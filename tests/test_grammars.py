import pathlib

import pytest

import budgen.series as S
from budgen.core import BudgenError
from budgen.grammars import (
    cfg_bruteforce,
    cfg_to_bud,
    parse_cfg,
    parse_rtg,
    parse_sg,
    rtg_bruteforce,
    rtg_term_of,
    rtg_to_bud,
    sg_bruteforce,
    sg_term_of,
    sg_to_bud,
)
from budgen.systems import system_dumps, system_loads

DATA = pathlib.Path(__file__).parent / "data"


def read(name: str) -> str:
    return (DATA / name).read_text()


# -- parsing -----------------------------------------------------------------


def test_parse_cfg():
    cfg = parse_cfg(read("dyck.cfg"))
    assert cfg.start == "S"
    assert cfg.variables == ("S",)
    assert cfg.terminals == ("a", "b")
    assert len(cfg.productions) == 2


def test_cfg_rejects_empty_rhs():
    with pytest.raises(BudgenError):
        parse_cfg("S -> \n")


def test_parse_rtg_infers_ranks():
    rtg = parse_rtg(read("unarymix.rtg"))
    assert rtg.variables == ("S", "A")
    assert rtg.ranks == {"f": 2, "g": 1, "c": 0, "d": 0}
    assert rtg.constants == ("c", "d")
    with pytest.raises(BudgenError):
        parse_rtg("S -> f(S)\nS -> f(S,S)\n")


def test_parse_sg():
    sg = parse_sg(read("balanced.sg"))
    assert sg.start == "1"
    assert sg.terminal == ("1",)
    assert sg.colors == ("1", "2")
    with pytest.raises(BudgenError):
        parse_sg("1 -> x2(1,1)\n")
    with pytest.raises(BudgenError):
        parse_sg("1 -> n3(1,1)\n")


# -- language bijections -------------------------------------------------------


def _cfg_words(system, bound):
    return {x[2] for x in system.language(bound)}


@pytest.mark.parametrize("name", ["dyck.cfg", "anbn.cfg", "expr.cfg"])
def test_cfg_bijection(name):
    cfg = parse_cfg(read(name))
    system = cfg_to_bud(cfg)
    assert _cfg_words(system, 6) == cfg_bruteforce(cfg, 6)


@pytest.mark.parametrize("name", ["bintree.rtg", "unarymix.rtg",
                                  "twosort.rtg"])
def test_rtg_bijection(name):
    rtg = parse_rtg(read(name))
    system = rtg_to_bud(rtg)
    lang = {rtg_term_of(system, x) for x in system.language(4)}
    assert lang == rtg_bruteforce(rtg, 4)


def _sg_sync_terms(system, depth, bound):
    op = system.bud
    cur = S.characteristic(op, [op.unit(c) for c in system.initial], bound)
    r = system.rule_series(bound)
    seen = set()
    for step in range(depth + 1):
        for x in cur.support():
            if all(c in system.terminal for c in op.ins(x)):
                seen.add(sg_term_of(system, x))
        if step < depth:
            cur = S.compose_prod(cur, r)
    return seen


@pytest.mark.parametrize("name,depth,bound", [
    ("balanced.sg", 3, 8),
    ("perfect23.sg", 3, 27),
    ("relabel.sg", 4, 16),
])
def test_sg_bijection(name, depth, bound):
    sg = parse_sg(read(name))
    system = sg_to_bud(sg)
    brute = sg_bruteforce(sg, depth)
    assert brute  # the bound must exercise something
    assert _sg_sync_terms(system, depth, bound) == brute


def test_sg_cap_validation():
    sg = parse_sg(read("perfect23.sg"))
    with pytest.raises(BudgenError):
        sg_to_bud(sg, cap=2)
    system = sg_to_bud(sg, cap=4)
    assert sorted(system.ground.spec.gens) == ["n1", "n2", "n3", "n4"]


def test_compiled_systems_round_trip_json():
    for build in [
        lambda: cfg_to_bud(parse_cfg(read("dyck.cfg"))),
        lambda: rtg_to_bud(parse_rtg(read("twosort.rtg"))),
        lambda: sg_to_bud(parse_sg(read("relabel.sg"))),
    ]:
        system = build()
        text = system_dumps(system)
        assert system_dumps(system_loads(text)) == text


def test_rtg_constant_only_rule():
    rtg = parse_rtg("S -> c\n")
    system = rtg_to_bud(rtg)
    lang = {rtg_term_of(system, x) for x in system.language(3)}
    assert lang == {("c",)}


def test_cfg_unit_cycle_diverges():
    # S -> S is a rule equal to the unit of S, a cycle of length one
    from budgen.core import DivergenceError
    for text in ("S -> T\nT -> S\nS -> a\n", "S -> S\nS -> a\n"):
        system = cfg_to_bud(parse_cfg(text))
        with pytest.raises(DivergenceError):
            system.language(3)
