import hashlib

import pytest

import budgen.series as S
from budgen.core import MONO, AsOperad, BudgenError, BudOperad, DivergenceError
from budgen.grammars import cfg_to_bud, parse_cfg
from budgen.operads import ASchrOperad, DiasOperad, MagOperad, MotzOperad
from budgen.systems import (
    BUILTIN_NAMES,
    BudSystem,
    DerivGraph,
    builtin,
    ground_from_json,
    ground_to_json,
    system_dumps,
    system_from_json,
    system_loads,
    system_to_json,
)


def test_builtin_names_construct():
    for name in BUILTIN_NAMES:
        kwargs = {}
        if name == "bdias":
            kwargs["gamma"] = 2
        if name == "btree":
            kwargs["arities"] = [2, 3]
        system = builtin(name, **kwargs)
        assert system.rules
        ok, _ = system.ff_check()
        assert ok


def test_builtin_aliases():
    assert (system_to_json(builtin("bp"))
            == system_to_json(builtin("motz-nohh")))
    assert (system_to_json(builtin("b1"))
            == system_to_json(builtin("tamari-max-trees")))
    assert (system_to_json(builtin("b1"))
            != system_to_json(builtin("tamari-balanced-intervals")))
    with pytest.raises(BudgenError):
        builtin("nosuch")
    with pytest.raises(BudgenError):
        builtin("bdias")  # missing gamma
    with pytest.raises(BudgenError):
        builtin("btree")  # missing arities


@pytest.mark.parametrize("name,kwargs,message", [
    ("bs", {"gamma": 3}, "--gamma applies to the bdias preset only"),
    ("bperfect", {"gamma": 3}, "--gamma applies to the bdias preset only"),
    ("bp", {"arities": [2]}, "--arities applies to the btree preset only"),
    ("bdias", {"gamma": 1, "arities": []},
     "--arities applies to the btree preset only"),
    ("nosuch", {"gamma": 1}, "unknown preset 'nosuch'"),
])
def test_builtin_rejects_parameters_it_does_not_read(name, kwargs, message):
    with pytest.raises(BudgenError) as info:
        builtin(name, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("name,kwargs,message", [
    ("bdias", {"gamma": 2.5}, "gamma must be an integer"),
    ("bdias", {"gamma": "2"}, "gamma must be an integer"),
    ("bdias", {"gamma": True}, "gamma must be an integer"),
    ("btree", {"arities": [2.5]}, "arities must be positive integers"),
    ("btree", {"arities": ["2"]}, "arities must be positive integers"),
    ("btree", {"arities": [True, 2]}, "arities must be positive integers"),
    ("btree", {"arities": [2, 0]}, "arities must be positive integers"),
])
def test_builtin_checks_its_parameters_before_building(name, kwargs, message):
    # int() would read 2.5 and "2" as 2 and True as 1; no file is involved
    with pytest.raises(BudgenError) as info:
        builtin(name, **kwargs)
    assert str(info.value) == message


def test_system_validation():
    ground = MagOperad()
    c = ground.corolla()
    with pytest.raises(BudgenError):
        BudSystem(ground, ("1",), [("1", c, ("1", "1")),
                                   ("1", c, ("1", "1"))], ("1",), ("1",))
    with pytest.raises(BudgenError):
        BudSystem(ground, ("1",), [("1", c, ("1", "1"))], ("9",), ("1",))
    with pytest.raises(BudgenError):
        BudSystem(ground, ("1",), [("2", c, ("1", "1"))], ("1",), ("1",))


def test_ff_check_values():
    assert builtin("bp").ff_check() == (True, 0)
    assert builtin("bbu").ff_check() == (True, 1)
    assert builtin("bbt").ff_check() == (True, 1)
    ground = MagOperad()
    leaf = ground.unit(MONO)
    cyclic = BudSystem(ground, ("1", "2"),
                       [("1", leaf, ("2",)), ("2", leaf, ("1",))],
                       ("1",), ("1",))
    ok, chain = cyclic.ff_check()
    assert ok is False and chain == -1


def test_successors_multiplicities():
    bd = builtin("bdias", gamma=1)
    op = bd.bud
    u = op.unit(MONO)
    succ = bd.successors(u, 3)
    assert sorted(op.dumps(x) for x in succ) == ["01", "10"]
    # both positions of 01 accept both rules
    succ2 = bd.successors(op.loads("01"), 3)
    assert sum(succ2.values()) == 4


def test_sync_successors():
    bbt = builtin("bbt")
    op = bbt.bud
    x = op.element("1", MagOperad().corolla(), ("1", "2"))
    succ = bbt.sync_successors(x, 3)
    # three rule choices at the color-1 leaf, one at the color-2 leaf
    assert sum(succ.values()) == 3
    # a leaf color with no rule kills the branch
    no_rule = BudSystem(MagOperad(), ("1", "2"),
                        [("1", MagOperad().corolla(), ("2", "2"))],
                        ("1",), ("2",))
    assert no_rule.sync_successors(op.element("1", MagOperad().corolla(),
                                              ("1", "2")), 3) == {}


def test_derivation_graph_and_multipath():
    bd = builtin("bdias", gamma=1)
    graph = bd.derivation_graph(4)
    op = bd.bud
    src = op.unit(MONO)
    h = bd.hook_series(4)
    for x, c in h.coeffs.items():
        assert graph.multipath_count(src, x) == c
    dot = graph.to_dot()
    assert dot.startswith("digraph") and '"0" -> "01";' in dot


def test_graph_to_dot_text_is_frozen():
    assert builtin("bp").derivation_graph(4).to_dot() == (
        'digraph derivations {\n'
        '  "1::1";\n'
        '  "1:H:2,2";\n'
        '  "1:UD:1,1,1";\n'
        '  "1:HUD:2,2,1,1";\n'
        '  "1:UDH:1,1,2,2";\n'
        '  "1:UHD:1,2,2,1";\n'
        '  "1::1" -> "1:H:2,2";\n'
        '  "1::1" -> "1:UD:1,1,1";\n'
        '  "1:UD:1,1,1" -> "1:HUD:2,2,1,1";\n'
        '  "1:UD:1,1,1" -> "1:UDH:1,1,2,2";\n'
        '  "1:UD:1,1,1" -> "1:UHD:1,2,2,1";\n'
        '}')
    # an edge of multiplicity 3 is printed three times
    assert builtin("bdias", gamma=1).derivation_graph(3).to_dot() == (
        'digraph derivations {\n'
        '  "0";\n  "01";\n  "10";\n  "011";\n  "101";\n  "110";\n'
        '  "0" -> "01";\n  "0" -> "10";\n'
        + '  "01" -> "011";\n' * 3 + '  "01" -> "101";\n'
        '  "10" -> "101";\n'
        + '  "10" -> "110";\n' * 3 + '}')


def test_bp_graph_edges():
    bp = builtin("bp")
    graph = bp.derivation_graph(4)
    op = bp.bud
    labels = {(op.dumps(x), op.dumps(y)) for (x, y) in graph.edges}
    assert ("1::1", "1:H:2,2") in labels
    assert ("1::1", "1:UD:1,1,1") in labels
    # the H element has only color-2 inputs and no rule produces color 2
    assert not any(src == "1:H:2,2" for src, _ in labels)


def test_series_filtering_by_initial_terminal():
    bbu = builtin("bbu")
    f = bbu.synt_series(3)
    op = bbu.bud
    for x in f.support():
        assert op.out(x) in bbu.initial
        assert all(c in bbu.terminal for c in op.ins(x))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_seeded_series_equal_the_filtered_full_fixpoints(name):
    # the system series compose with the terminal units inside the
    # fixpoints; seeding with every color and filtering gives the same.
    # So every term they build has terminal inputs, and `_filtered` keeps
    # the initial output colors only (five presets have other colors)
    kwargs = {"bdias": {"gamma": 2}, "btree": {"arities": [2, 3]}}
    system = builtin(name, **kwargs.get(name, {}))
    bound = 4
    r = system.rule_series(bound)
    u = S.units_series(system.bud, bound)
    full = {"hook": S.pre_lie_star(r),
            "synt": S.compose_inverse(S.sub(u, r)),
            "sync": S.compose_star(r)}
    initial, terminal = set(system.initial), set(system.terminal)
    for kind, middle in full.items():
        expect = {x: c for x, c in middle.coeffs.items()
                  if x[0] in initial and terminal.issuperset(x[2])}
        assert getattr(system, kind + "_series")(bound).coeffs == expect, \
            (name, kind)


def _check_hook_and_synt_orders(make, bound: int) -> None:
    """hook_series also caches the syntactic series: in either order, each
    series equals the one a fresh system computes alone, to the text."""
    pairs = []
    hook_first = make()
    pairs.append((hook_first.hook_series(bound), make().hook_series(bound)))
    pairs.append((hook_first.synt_series(bound), make().synt_series(bound)))
    synt_first = make()
    pairs.append((synt_first.synt_series(bound), make().synt_series(bound)))
    pairs.append((synt_first.hook_series(bound), make().hook_series(bound)))
    for got, alone in pairs:
        assert got == alone
        assert got.dumps() == alone.dumps()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_hook_and_synt_in_either_order_equal_fresh_runs(name):
    kwargs = {"bdias": {"gamma": 2}, "btree": {"arities": [2, 3]}}
    for bound in range(1, 6):
        _check_hook_and_synt_orders(
            lambda: builtin(name, **kwargs.get(name, {})), bound)


def test_synt_after_hook_runs_no_second_engine_pass(monkeypatch):
    engine = S._graded_tree_sum
    runs = []

    def counted(*args, **kwargs):
        runs.append(kwargs.get("labeled", False))
        return engine(*args, **kwargs)

    monkeypatch.setattr(S, "_graded_tree_sum", counted)
    system = builtin("bbu")
    hook = system.hook_series(4)
    assert runs == [True]
    synt = system.synt_series(4)
    assert runs == [True]  # served from the hook run
    assert synt.dumps() == builtin("bbu").synt_series(4).dumps()
    assert runs == [True, False]  # a fresh system alone: one plain run
    assert system.hook_series(4) is hook
    other = builtin("bbu")
    synt = other.synt_series(3)
    other.hook_series(3)
    assert runs == [True, False, False, True]
    assert other.synt_series(3) is synt  # the series asked first stays
    assert len(runs) == 4


def test_language_counts_small():
    bp = builtin("bp")
    lang = bp.language(4)
    assert {bp.bud.dumps(x) for x in lang} == {
        "1::1", "1:H:2,2", "1:UD:1,1,1",
        "1:HUD:2,2,1,1", "1:UHD:1,2,2,1", "1:UDH:1,1,2,2"}


def test_verdicts_small():
    bd = builtin("bdias", gamma=1)
    assert bd.is_faithful(4)
    assert not bd.is_unambiguous(4)
    bs = builtin("bs")
    assert bs.is_unambiguous(5)
    bbt = builtin("bbt")
    assert bbt.is_sync_unambiguous(6)


def test_json_round_trip_all_presets():
    for name in BUILTIN_NAMES:
        kwargs = {}
        if name == "bdias":
            kwargs["gamma"] = 2
        if name == "btree":
            kwargs["arities"] = [2, 3]
        system = builtin(name, **kwargs)
        text = system_dumps(system)
        again = system_loads(text)
        assert system_dumps(again) == text
        assert again.rules == system.rules
        assert again.colors == system.colors
        assert again.initial == system.initial
        assert again.terminal == system.terminal


def test_json_ground_kinds():
    bd = builtin("bdias", gamma=3)
    text = system_dumps(bd)
    again = system_loads(text)
    assert isinstance(again.ground, DiasOperad)
    assert again.ground.gamma == 3
    for kind, cls in (("as", AsOperad), ("mag", MagOperad),
                      ("motz", MotzOperad), ("aschr", ASchrOperad)):
        data = {"kind": kind, "params": {}}
        assert ground_to_json(cls()) == data
        assert isinstance(ground_from_json(data), cls)
    for kind in ("tree", ["as"], None):
        with pytest.raises(BudgenError, match="unknown ground kind"):
            ground_from_json({"kind": kind})
    with pytest.raises(BudgenError, match="unsupported ground operad"):
        ground_to_json(BudOperad(AsOperad(), ("1",)))


def test_empty_initial_gives_zero_series():
    ground = MagOperad()
    c = ground.corolla()
    system = BudSystem(ground, ("1",), [("1", c, ("1", "1"))], (), ("1",))
    assert system.synt_series(4).support() == set()


def _cyclic_system():
    leaf = MagOperad().unit(MONO)
    return BudSystem(MagOperad(), ("1", "2"),
                     [("1", leaf, ("2",)), ("2", leaf, ("1",))],
                     ("1",), ("1",))


def test_multipath_count_on_a_cyclic_graph_raises():
    # derivation_graph refuses a color cycle, so the graph is built from
    # the one-step derivations, which go 1 -> 2 -> 1
    cyclic = _cyclic_system()
    src = cyclic.bud.unit("1")
    (mid,) = cyclic.successors(src, 1)
    assert src in cyclic.successors(mid, 1)
    graph = DerivGraph(cyclic, {src: {mid: 1}, mid: {src: 1}})
    for x in graph.vertices:
        with pytest.raises(BudgenError):
            graph.multipath_count(src, x)


@pytest.mark.parametrize("synchronous", [False, True])
def test_derivation_graph_diverges_on_a_color_cycle(synchronous):
    # an arity-1 rule on a color cycle makes the closure infinite
    for system in [_cyclic_system(), builtin("btree", arities=[1, 2])]:
        with pytest.raises(DivergenceError):
            system.derivation_graph(3, synchronous=synchronous)


def test_multipath_count_from_every_source():
    # the table of one source does not leak into the counts of another
    bd = builtin("bdias", gamma=1)
    graph = bd.derivation_graph(4)
    src = bd.bud.unit(MONO)
    for x in graph.vertices:
        assert graph.multipath_count(x, x) == 1
        assert graph.multipath_count(x, src) == (1 if x == src else 0)
    # counted after every other source's table is cached
    for x, c in bd.hook_series(4).coeffs.items():
        assert graph.multipath_count(src, x) == c


def test_multipath_count_from_a_unit_outside_the_graph():
    # the unit of a non-initial color is no vertex: it reaches only itself
    bbt = builtin("bbt")
    graph = bbt.derivation_graph(4)
    outside = bbt.bud.unit("2")
    assert outside not in graph.vertices
    assert graph.multipath_count(outside, outside) == 1
    for x in graph.vertices:
        assert graph.multipath_count(outside, x) == 0


def test_multipath_count_along_a_long_unit_chain():
    # A1 -> A2, .., A1500 -> a: one derivation, 1,500 steps deep
    cfg = parse_cfg("".join("A%d -> A%d\n" % (i, i + 1)
                            for i in range(1, 1500)) + "A1500 -> a\n")
    system = cfg_to_bud(cfg)
    graph = system.derivation_graph(1)
    assert len(graph.vertices) == 1501  # the unit of A1 and one per step
    finished = system.bud.element("A1", 1, ("a",))
    assert graph.multipath_count(system.bud.unit("A1"), finished) == 1


def _two_color_json():
    return {"ground": {"kind": "mag", "params": {}}, "colors": ["ab", "c"],
            "rules": [{"out": "ab", "elem": "c(*,*)", "ins": ["ab", "c"]}],
            "initial": ["ab"], "terminal": ["ab", "c"]}


def test_system_from_json_keeps_multi_letter_colors():
    system = system_from_json(_two_color_json())
    assert system.colors == ("ab", "c")
    assert system.initial == ("ab",)


@pytest.mark.parametrize("field", ["colors", "initial", "terminal", "ins"])
def test_system_from_json_rejects_a_string_for_a_color_list(field):
    # a string would split into one color per letter
    data = _two_color_json()
    if field == "ins":
        data["rules"][0]["ins"] = "ab"
    else:
        data[field] = "ab"
    with pytest.raises(BudgenError,
                       match="malformed system file: %s must be a list" % field):
        system_from_json(data)


# sha256 of system_dumps(builtin(name, **params)), frozen from the
# presets' earlier builder functions: a mistyped row of the preset table
# changes one of them
PRESET_DUMPS_SHA256 = [
    ("motz-nohh", {}, "fc250b01df88e1473c9f2fa1338bc53ca707d74fcf3f59eed4cb685922b6f520"),
    ("aschr-catalan", {}, "c80ce08631ed05597dc0fbb558a6b0f3e3c2d94fdcab3bc3216ff9e92317dd3b"),
    ("unary-binary", {}, "ec160b8d414acfa1554aa5aa6a4190532554caa1e448ca4ee5a899563d9223ec"),
    ("bbt", {}, "5498d2a104e0e48079cbb3c8cea065b013ba5bc5b34744095496413c7315de89"),
    ("tamari-max-trees", {}, "835640e5c57cfbeb75bfea2101556e7cdae2968403fdb184b88e1e970bf375f2"),
    ("tamari-balanced-intervals", {}, "95a261ef683e1d10ee228934f0efa6ff6d99f044dc7e7295c9e3d2ccf6fadffc"),
    ("tamari-max-intervals", {}, "2c91dbb470ee3ec54cc6017595f55aadf3bffe03854bc25a87fa5f651e45facd"),
    ("hook-mag", {}, "9f23a396889c3b5d78792eba77d6613721f733e0172a33b68d4af0d3ed5a812b"),
    ("hook-motz", {}, "eb6d62295a2deca0e7fb74441ed4e32455d801bf47643fa7afcc17a1ce12b0d8"),
    ("bp", {}, "fc250b01df88e1473c9f2fa1338bc53ca707d74fcf3f59eed4cb685922b6f520"),
    ("bs", {}, "c80ce08631ed05597dc0fbb558a6b0f3e3c2d94fdcab3bc3216ff9e92317dd3b"),
    ("bbu", {}, "ec160b8d414acfa1554aa5aa6a4190532554caa1e448ca4ee5a899563d9223ec"),
    ("b1", {}, "835640e5c57cfbeb75bfea2101556e7cdae2968403fdb184b88e1e970bf375f2"),
    ("b2", {}, "95a261ef683e1d10ee228934f0efa6ff6d99f044dc7e7295c9e3d2ccf6fadffc"),
    ("b3", {}, "2c91dbb470ee3ec54cc6017595f55aadf3bffe03854bc25a87fa5f651e45facd"),
    ("bdias", {"gamma": 0}, "8965a70bdfca80cc448f7c1d583d791ad550513f337109b765e4f215c550bfab"),
    ("bdias", {"gamma": 1}, "a5b79cc796522e0f5b40d28fa6c8d7f12b126f3108fd8439c3de8888cddbeeb4"),
    ("bdias", {"gamma": 2}, "cefc21e46897823bea9308c51eb3a6a882c319116c107a5c65471b462d6dd027"),
    ("bdias", {"gamma": 3}, "bbac386082232efef8b14d33e4bec752d880bad59be2772ae81fa0ae336db35d"),
    ("bdias", {"gamma": 4}, "82a2e1c38fa907eb364a7a7f05d192c2532ca71cd8c1dca189ce3b24b85c03be"),
    ("bdias", {"gamma": 5}, "d989beb064f29d358862055ec80407a76ad7b67973576316dfe1f61a1f468bd3"),
    ("bdias", {"gamma": 6}, "c61e9c199469e686606fa9bf8c9c142cc3804c7c5aac12ed3d6665031e1a4182"),
    ("bdias", {"gamma": 7}, "ed34e42d921cc1be808ae0eafc3a79313969afce58eb71df1afa5e88371d3f96"),
    ("bdias", {"gamma": 8}, "37450f62c4fa6d833f9a7b147e9fc20374ec3abf0b9a0243a7734776f10c54f9"),
    ("bdias", {"gamma": 9}, "44b25cdef38417db8f11869b74b8bdee2b95d0e319fc60c651156f7c719837c0"),
    ("btree", {"arities": [1]}, "64379e8c51bae736bc311c758c30bf98a9d8c646ae6d648ab9e701a1c5d9a875"),
    ("bperfect", {"arities": [1]}, "64379e8c51bae736bc311c758c30bf98a9d8c646ae6d648ab9e701a1c5d9a875"),
    ("btree", {"arities": [2]}, "43392440bb528c165b66324085b0ccb58d34b0548a1a9e94db7190fff21791c1"),
    ("bperfect", {"arities": [2]}, "43392440bb528c165b66324085b0ccb58d34b0548a1a9e94db7190fff21791c1"),
    ("btree", {"arities": [2, 3]}, "57bac562cdff3eb4043bc6f67c9bee12a9772348bb878fc91ab118a4dc2ed4cf"),
    ("bperfect", {"arities": [2, 3]}, "57bac562cdff3eb4043bc6f67c9bee12a9772348bb878fc91ab118a4dc2ed4cf"),
    ("btree", {"arities": [3, 2, 2]}, "57bac562cdff3eb4043bc6f67c9bee12a9772348bb878fc91ab118a4dc2ed4cf"),
    ("bperfect", {"arities": [3, 2, 2]}, "57bac562cdff3eb4043bc6f67c9bee12a9772348bb878fc91ab118a4dc2ed4cf"),
    ("btree", {"arities": [1, 2, 3, 4]}, "6506d739eb308c6c31b2d33d4f6615de42c9896523e3a64ac5daebf199884353"),
    ("bperfect", {"arities": [1, 2, 3, 4]}, "6506d739eb308c6c31b2d33d4f6615de42c9896523e3a64ac5daebf199884353"),
    ("btree", {"arities": [5]}, "af54c8fd2d17b2b6663e56e651799a3d4997cfa73f1fa4b683b1027d21cf5107"),
    ("bperfect", {"arities": [5]}, "af54c8fd2d17b2b6663e56e651799a3d4997cfa73f1fa4b683b1027d21cf5107"),
]


def test_preset_dumps_are_frozen():
    for name, params, digest in PRESET_DUMPS_SHA256:
        text = system_dumps(builtin(name, **params))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (
            name, params)
