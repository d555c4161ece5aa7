"""Differential test: the series of small random systems against the
brute-force syntax-tree oracle `all_treelike`, the type recurrences
(coefficients and counting series) against the colt pushforward and the
per-arity sums of the series, the bounded successors and derivation
graphs against composition references written here, the hook and
sync coefficients against path counts in the derivation graphs, and the
orders of `Series.dumps` and `DerivGraph.serialized` against one sort
on `Operad.key`.  With rule coefficients other than 1, both readouts of
one labeled run (the pre-Lie star and the composition inverse) are
checked against the syntax trees weighted by their coefficient products.

The systems have 1-3 colors over every ground: AsOperad, MagOperad, a
random FreeOperad signature, DiasOperad (gamma 1-3), whose template
splices raise letters, MotzOperad, whose template parts are steps, and
ASchrOperad, whose template splices merge roots.  Arity-1 rules go only
from a lower to a higher color (so the systems are finitely
factorizing), and rules reach one above the bound.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import budgen.series as S
from budgen.core import MONO, AsOperad
from budgen.operads import (
    ASchrOperad,
    CollectionSpec,
    DiasOperad,
    FreeOperad,
    MagOperad,
    MotzOperad,
    UNIT_TAG,
    all_treelike,
    degree_bound,
    hook_count,
    st_is_perfect,
)
from budgen.systems import BUILTIN_NAMES, BudSystem, builtin
from budgen.typecount import (
    colt_synt_coeff,
    colt_sync_coeff,
    lang_counting_series,
    sync_counting_series,
)

MAX_BOUND = 4


def _free_ground(arities):
    """A free operad on generators g0, g1, ... of the given arities, and
    its elements of arity <= MAX_BOUND + 1 with at most two generators."""
    gens = [("g%d" % k, MONO, (MONO,) * a) for k, a in enumerate(arities)]
    ground = FreeOperad(CollectionSpec(gens, colors=(MONO,)))
    corollas = [ground.corolla(name) for name, _, _ in gens]
    elements = [ground.unit(MONO)] + corollas
    elements += [ground.compose(x, 1, y) for x in corollas for y in corollas]
    return ground, elements


@st.composite
def random_systems(draw):
    bound = draw(st.integers(1, MAX_BOUND))
    kind = draw(st.sampled_from(["as", "mag", "free", "dias", "motz",
                                 "aschr"]))
    if kind == "as":
        ground = AsOperad()
        elements = list(range(1, MAX_BOUND + 2))
    elif kind != "free":
        ground = (DiasOperad(draw(st.integers(1, 3))) if kind == "dias"
                  else {"mag": MagOperad, "motz": MotzOperad,
                        "aschr": ASchrOperad}[kind]())
        elements = [t for n in range(1, MAX_BOUND + 2)
                    for t in ground.elements(n)]
    else:
        arities = [draw(st.integers(2, 3))]
        arities += draw(st.lists(st.integers(1, 3), max_size=2))
        ground, elements = _free_ground(arities)
    by_arity: dict = {}
    for g in elements:
        if ground.arity(g) <= bound + 1:
            by_arity.setdefault(ground.arity(g), []).append(g)
    colors = tuple(str(c) for c in range(1, draw(st.integers(1, 3)) + 1))
    rules: dict = {}
    for k in range(len(colors) - 1):
        # arity-1 rules go to a higher color, so they are acyclic
        for _ in range(draw(st.integers(0, 2))):
            ins = (colors[draw(st.integers(k + 1, len(colors) - 1))],)
            rules[(colors[k], draw(st.sampled_from(by_arity[1])), ins)] = None
    wide = sorted(a for a in by_arity if a > 1)
    for _ in range(draw(st.integers(1, 4)) if wide else 0):
        arity = draw(st.sampled_from(wide))
        ins = tuple(draw(st.sampled_from(colors)) for _ in range(arity))
        rules[(draw(st.sampled_from(colors)),
               draw(st.sampled_from(by_arity[arity])), ins)] = None
    initial = draw(st.lists(st.sampled_from(colors), min_size=1, unique=True))
    terminal = draw(st.lists(st.sampled_from(colors), min_size=1, unique=True))
    return BudSystem(ground, colors, rules, initial, terminal), bound


def _types(k: int, bound: int):
    """Every color type of k colors with 1..bound inputs."""
    return [al for al in product(range(bound + 1), repeat=k)
            if 1 <= sum(al) <= bound]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(random_systems())
def test_series_of_random_systems_match_the_oracles(case):
    system, bound = case
    op = system.bud
    r = system.rule_series(bound)
    synt = S.compose_inverse(S.sub(S.units_series(op, bound), r))
    sync = S.compose_star(r)
    hook = S.pre_lie_star(r)
    ok, chain = system.ff_check()
    assert ok
    # a tree holding a rule above the bound has an arity above the bound
    gens = [g for g in system.rules if op.arity(g) <= bound]
    table = all_treelike(op, gens, bound, degree_bound(bound, chain))
    support = set(table) | synt.support() | sync.support() | hook.support()
    for x in support:
        trees = table.get(x, [])
        assert synt.coeff(x) == len(trees)
        assert sync.coeff(x) == sum(1 for t in trees if st_is_perfect(t))
        assert hook.coeff(x) == sum(hook_count(t) for t in trees)
    # faithful: the pruned characteristic series of the language is 0/1
    for verdict, language in ((system.is_faithful, system.language),
                              (system.is_sync_faithful, system.sync_language)):
        lang = S.characteristic(op, language(bound), bound)
        assert verdict(bound) == S.zero_one_coefficients(S.pru_series(lang))
    # the system series are seeded with the terminal units only: they
    # are the terms of the full fixpoints from initial to terminal colors
    initial, terminal = set(system.initial), set(system.terminal)
    for kind, middle in (("hook", hook), ("synt", synt), ("sync", sync)):
        assert getattr(system, kind + "_series")(bound).coeffs == {
            x: c for x, c in middle.coeffs.items()
            if x[0] in initial and terminal.issuperset(x[2])}
    # the type recurrence of the counting series, solved over the terminal
    # colors only, counts the terms of the system series
    for counting, series in ((lang_counting_series, system.synt_series),
                             (sync_counting_series, system.sync_series)):
        counts, method = counting(system, bound)
        if method == "type-recurrence":
            f = series(bound)
            assert counts == [sum(f.coeff(x) for x in f.support_slice(n))
                              for n in range(1, bound + 1)]
    synt_table = S.colt_table(synt)
    sync_table = S.colt_table(sync)
    for color in system.colors:
        for alpha in _types(len(system.colors), bound):
            key = (color, alpha)
            assert colt_synt_coeff(system, color, alpha) == synt_table.get(key, 0)
            assert colt_sync_coeff(system, color, alpha) == sync_table.get(key, 0)


def _tree_weight(t, coeffs: dict):
    """The product of the coefficients of the rules at the nodes of the
    syntax tree t."""
    if t[0] == UNIT_TAG:
        return 1
    weight = coeffs[t[1]]
    for child in t[2]:
        weight = weight * _tree_weight(child, coeffs)
    return weight


SCALARS = (3, -2, Fraction(2, 3))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(random_systems(), st.integers(0, len(SCALARS)))
def test_one_labeled_run_weighs_trees_like_the_oracle(case, pick):
    # the rules scaled by one scalar, or (pick == len(SCALARS)) each by
    # the next scalar in turn: the hook readout sums weight * hook count
    # over the syntax trees of an element, the synt readout the weights
    system, bound = case
    op = system.bud
    gens = [g for g in system.rules if op.arity(g) <= bound]
    coeffs = {g: SCALARS[pick] if pick < len(SCALARS)
              else SCALARS[i % len(SCALARS)] for i, g in enumerate(gens)}
    f = S.Series(op, bound, coeffs)
    hook, synt = S.pre_lie_star_and_inverse(f)
    table = all_treelike(op, gens, bound,
                         degree_bound(bound, system.ff_check()[1]))
    for x in set(table) | hook.support() | synt.support():
        trees = table.get(x, [])
        assert synt.coeff(x) == sum(_tree_weight(t, coeffs) for t in trees)
        assert hook.coeff(x) == sum(_tree_weight(t, coeffs) * hook_count(t)
                                    for t in trees)


def _nodes(t) -> int:
    """The node count of the syntax tree t."""
    return 0 if t[0] == UNIT_TAG else 1 + sum(_nodes(c) for c in t[2])


# elements reached with two node counts in one labeled run: the element
# 3 by a ternary rule and by two binary ones, in either rule order (so
# either count comes first); (1, 2, (2, 2)) by a binary rule in a slice's
# first pass and by an arity-1 rule over (2, 2, (2, 2)) in its increment,
# and then picked at the input of color 1 of (2, 2, (1, 2))
TWO_COUNT_SYSTEMS = {
    "as-2-3": ((MONO,), [(MONO, 2, (MONO,) * 2), (MONO, 3, (MONO,) * 3)], 5),
    "as-3-2": ((MONO,), [(MONO, 3, (MONO,) * 3), (MONO, 2, (MONO,) * 2)], 5),
    "as-unary": (("1", "2"), [("1", 1, ("2",)), ("2", 2, ("2", "2")),
                              ("1", 2, ("2", "2")), ("2", 2, ("1", "2"))], 4),
}


@pytest.mark.parametrize("name", sorted(TWO_COUNT_SYSTEMS))
@pytest.mark.parametrize("scale", SCALARS + (1, "each"))
def test_labeled_run_with_a_second_node_count_matches_the_oracle(name, scale):
    # every rule scaled by one scalar, or ("each") by the next in turn
    colors, rules, bound = TWO_COUNT_SYSTEMS[name]
    system = BudSystem(AsOperad(), colors, rules, colors[:1], colors)
    op = system.bud
    coeffs = {g: SCALARS[i % len(SCALARS)] if scale == "each" else scale
              for i, g in enumerate(system.rules)}
    hook, synt = S.pre_lie_star_and_inverse(S.Series(op, bound, coeffs))
    table = all_treelike(op, system.rules, bound,
                         degree_bound(bound, system.ff_check()[1]))
    assert any(len({_nodes(t) for t in trees}) > 1
               for trees in table.values())
    for x in set(table) | hook.support() | synt.support():
        trees = table.get(x, [])
        assert synt.coeff(x) == sum(_tree_weight(t, coeffs) for t in trees)
        assert hook.coeff(x) == sum(_tree_weight(t, coeffs) * hook_count(t)
                                    for t in trees)


@pytest.mark.parametrize("direct", [1, -1, 2])
def test_an_element_of_two_increment_rounds_merges_exactly(direct):
    # (1, 1, (3,)) is the rule 1 <- 3 in the first increment round of
    # slice 1 and 1 <- 2 over 2 <- 3 in the second; at direct = -1 its
    # weights cancel, and the binary rule picks it in later slices
    rules = [("1", 1, ("2",)), ("2", 1, ("3",)), ("1", 1, ("3",)),
             ("3", 2, ("1", "3"))]
    system = BudSystem(AsOperad(), ("1", "2", "3"), rules, ("1",),
                       ("1", "2", "3"))
    op, bound = system.bud, 4
    coeffs = {g: direct if g == ("1", 1, ("3",)) else 1
              for g in system.rules}
    hook, synt = S.pre_lie_star_and_inverse(S.Series(op, bound, coeffs))
    table = all_treelike(op, system.rules, bound,
                         degree_bound(bound, system.ff_check()[1]))
    for x in set(table) | hook.support() | synt.support():
        trees = table.get(x, [])
        assert synt.coeff(x) == sum(_tree_weight(t, coeffs) for t in trees)
        assert hook.coeff(x) == sum(_tree_weight(t, coeffs) * hook_count(t)
                                    for t in trees)
    reached = ("1", 1, ("3",)) in synt.coeffs
    assert reached == (direct != -1)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(random_systems())
def test_hook_and_synt_of_random_systems_in_either_order(case):
    # hook_series caches the syntactic series of its run too: in either
    # order, both equal what a fresh system computes alone
    system, bound = case

    def fresh():
        return BudSystem(system.ground, system.colors, system.rules,
                         system.initial, system.terminal)

    hook_first, synt_first = fresh(), fresh()
    hook_first.hook_series(bound)
    synt_first.synt_series(bound)
    for kind in ("hook", "synt"):
        alone = getattr(fresh(), kind + "_series")(bound)
        for first in (hook_first, synt_first):
            got = getattr(first, kind + "_series")(bound)
            assert got == alone
            assert got.dumps() == alone.dumps()


def _reference_successors(system, x) -> Counter:
    """x o_i r over every position and every rule of the right color."""
    op = system.bud
    return Counter(op.compose(x, i, r)
                   for i, c in enumerate(op.ins(x), 1)
                   for r in system.rules if op.out(r) == c)


def _product_sync_successors(system, x) -> Counter:
    """x o [r_1..r_n] over the whole product of the rule pools."""
    op = system.bud
    pools = [[r for r in system.rules if op.out(r) == c] for c in op.ins(x)]
    return Counter(op.full_compose(x, p) for p in product(*pools))


def _at_most(system, steps: Counter, bound: int) -> Counter:
    return Counter({y: m for y, m in steps.items()
                    if system.bud.arity(y) <= bound})


def _naive_graph(system, bound: int, synchronous: bool):
    """BFS over the reference steps, dropping those above the bound."""
    op = system.bud
    step = _product_sync_successors if synchronous else _reference_successors
    frontier = [op.unit(c) for c in system.initial]
    vertices, edges = set(frontier), {}
    while frontier:
        nxt = []
        for x in frontier:
            for y, mult in _at_most(system, step(system, x), bound).items():
                edges[(x, y)] = edges.get((x, y), 0) + mult
                if y not in vertices:
                    vertices.add(y)
                    nxt.append(y)
        frontier = nxt
    return vertices, edges


def _check_bounded_successors(system, bound: int) -> None:
    steps = ((system.successors, _reference_successors),
             (system.sync_successors, _product_sync_successors))
    for synchronous in (False, True):
        graph = system.derivation_graph(bound, synchronous)
        vertices, edges = _naive_graph(system, bound, synchronous)
        assert graph.vertices == vertices
        assert graph.edges == edges
        for x in vertices:
            for step, reference in steps:
                full = reference(system, x)
                for b in range(1, bound + 2):
                    assert step(x, b) == _at_most(system, full, b)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(random_systems())
def test_bounded_successors_of_random_systems(case):
    system, bound = case
    _check_bounded_successors(system, bound)


_PRESET_KWARGS = {"bdias": {"gamma": 2}, "btree": {"arities": [2, 3]}}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_bounded_successors_of_presets(name):
    _check_bounded_successors(builtin(name, **_PRESET_KWARGS.get(name, {})), 4)


def _check_graph_edges_are_successors(system, bound: int) -> None:
    """The out-edges of each vertex of a derivation graph, with their
    multiplicities, are its (synchronous) successors at the bound."""
    for synchronous, step in ((False, system.successors),
                              (True, system.sync_successors)):
        graph = system.derivation_graph(bound, synchronous)
        out = {x: Counter() for x in graph.vertices}
        for (x, y), mult in graph.edges.items():
            out[x][y] = mult
        for x in graph.vertices:
            assert out[x] == step(x, bound)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(random_systems())
def test_graph_edges_are_the_successors_of_random_systems(case):
    system, bound = case
    _check_graph_edges_are_successors(system, bound)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_graph_edges_are_the_successors_of_presets(name, bound):
    _check_graph_edges_are_successors(
        builtin(name, **_PRESET_KWARGS.get(name, {})), bound)


def _dumps_by_key(f) -> str:
    """`Series.dumps` by its definition: the terms sorted by `op.key`."""
    op = f.operad
    return "\n".join("%s * %s" % (f.coeffs[x], op.dumps(x))
                     for x in sorted(f.coeffs, key=op.key))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(random_systems(),
       st.lists(st.one_of(st.integers(-5, 5),
                          st.fractions(-5, 5, max_denominator=6)),
                min_size=1, max_size=6))
def test_dumps_orders_the_terms_by_the_operad_key(case, scalars):
    system, bound = case
    op = system.bud
    terms = set(system.rule_series(bound).coeffs)
    for kind in ("hook", "synt", "sync"):
        terms |= getattr(system, kind + "_series")(bound).support()
    f = S.Series(op, bound, {x: scalars[i % len(scalars)] for i, x
                             in enumerate(sorted(terms, key=op.key))})
    # the pushforward to the ground operad, where sums may cancel
    for g in (f, S.pru_series(f), S.Series(op, bound),
              S.Series(op.ground, bound)):
        assert g.dumps() == _dumps_by_key(g)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(random_systems())
def test_serialized_orders_the_edges_by_the_operad_key(case):
    system, bound = case
    op = system.bud
    for synchronous in (False, True):
        graph = system.derivation_graph(bound, synchronous)
        vertices, edges = graph.serialized()
        assert vertices == [op.dumps(v)
                            for v in sorted(graph.vertices, key=op.key)]
        assert edges == [
            (op.dumps(x), op.dumps(y), graph.edges[(x, y)])
            for x, y in sorted(graph.edges,
                               key=lambda e: (op.key(e[0]), op.key(e[1])))]


def _check_path_counts(system, bound: int) -> None:
    """A hook (sync) coefficient counts the paths from the unit of the
    output color in the plain (synchronous) derivation graph."""
    op = system.bud
    terminal = set(system.terminal)
    for synchronous, series in ((False, system.hook_series),
                                (True, system.sync_series)):
        graph = system.derivation_graph(bound, synchronous)
        f = series(bound)
        assert f.support() <= graph.vertices
        for x in graph.vertices:
            if terminal.issuperset(op.ins(x)):
                assert graph.multipath_count(op.unit(op.out(x)), x) == \
                    f.coeff(x)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(random_systems())
def test_path_counts_of_random_systems(case):
    system, bound = case
    _check_path_counts(system, bound)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_path_counts_of_presets(name):
    _check_path_counts(builtin(name, **_PRESET_KWARGS.get(name, {})), 4)
