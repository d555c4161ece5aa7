import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import budgen.series as S
from budgen.core import MONO, AsOperad, BudgenError, BudOperad, DivergenceError
from budgen.operads import (
    ASchrOperad,
    DiasOperad,
    MagOperad,
    all_treelike,
    degree_bound,
    hook_count,
    st_is_perfect,
)
from budgen.systems import BUILTIN_NAMES, builtin

AS = AsOperad()
MAG = MagOperad()
BUD = BudOperad(AS, ("1", "2"))


def test_series_construction_and_coeff():
    f = S.Series(AS, 5, {2: Fraction(3), 3: Fraction(0)})
    assert f.coeff(2) == 3
    assert f.coeff(3) == 0
    assert f.support() == {2}
    with pytest.raises(BudgenError):
        S.Series(AS, 3, {5: Fraction(1)})
    with pytest.raises(BudgenError):
        S.Series(AS, 0, {})


def test_series_dumps_sorted():
    f = S.Series(AS, 5, {3: Fraction(2), 1: Fraction(1), 2: Fraction(5)})
    assert f.dumps() == "1 * 1\n5 * 2\n2 * 3"


def test_series_dumps_orders_by_arity_then_serialization():
    f = S.Series(BUD, 3, {
        BUD.element("2", 2, ("1", "1")): Fraction(-1, 2),
        BUD.element("1", 3, ("1", "1", "1")): 7,
        BUD.element("1", 2, ("2", "1")): -3,
        BUD.element("2", 1, ("2",)): Fraction(5, 3),
        BUD.element("1", 2, ("1", "2")): Fraction(2),
    })
    # "2:2:1,1" sorts before "1:3:1,1,1": arity first, then the text
    assert f.dumps() == ("5/3 * 2:1:2\n"
                         "2 * 1:2:1,2\n"
                         "-3 * 1:2:2,1\n"
                         "-1/2 * 2:2:1,1\n"
                         "7 * 1:3:1,1,1")
    assert S.Series(BUD, 3, {}).dumps() == ""


def test_series_are_not_hashable():
    with pytest.raises(TypeError):
        hash(S.characteristic(AS, [2], 3))


def test_linear_operations():
    f = S.characteristic(AS, [1, 2], 4)
    g = S.characteristic(AS, [2, 3], 4)
    assert S.add(f, g).coeff(2) == 2
    assert S.sub(f, g).coeff(2) == 0
    assert S.scale(3, f).coeff(1) == 3
    assert S.scalar_product(f, g) == 1
    with pytest.raises(BudgenError):
        S.add(f, S.characteristic(AS, [1], 5))


def test_pre_lie_on_as():
    f = S.characteristic(AS, [2], 6)
    assert S.pre_lie(f, f).coeff(3) == 2  # two positions
    assert S.pre_lie(S.pre_lie(f, f), f).coeff(4) == 6


def test_pre_lie_is_left_but_not_right_associative():
    f = S.characteristic(AS, [2], 6)
    left = S.pre_lie(S.pre_lie(f, f), f)
    right = S.pre_lie(f, S.pre_lie(f, f))
    assert left.coeff(4) == 6 and right.coeff(4) == 4


def test_compose_prod_on_as():
    f = S.characteristic(AS, [2], 6)
    g = S.add(f, S.characteristic(AS, [3], 6))
    k = S.compose_prod(f, g)
    assert k.coeff(4) == 1 and k.coeff(5) == 2 and k.coeff(6) == 1


def test_compose_prod_units():
    u = S.units_series(BUD, 4)
    f = S.characteristic(BUD, [BUD.element("1", 2, ("2", "1"))], 4)
    assert S.compose_prod(u, f) == f
    assert S.compose_prod(f, u) == f


def _random_series(data, op, pool, bound, terms=3):
    support = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                 max_size=terms, unique=True))
    coeffs = {}
    for x in support:
        coeffs[x] = Fraction(data.draw(st.integers(-3, 3)),
                             data.draw(st.integers(1, 3)))
    return S.Series(op, bound, coeffs)


def _bud_pool(bound):
    pool = []
    for n in range(1, bound + 1):
        pool.extend(BUD.elements(n))
    return pool


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pre_lie_relation_property(data):
    # (f <- g) <- h - f <- (g <- h) is symmetric in g and h
    pool = _bud_pool(3)
    f = _random_series(data, BUD, pool, 6)
    g = _random_series(data, BUD, pool, 6)
    h = _random_series(data, BUD, pool, 6)
    lhs = S.sub(S.pre_lie(S.pre_lie(f, g), h), S.pre_lie(f, S.pre_lie(g, h)))
    rhs = S.sub(S.pre_lie(S.pre_lie(f, h), g), S.pre_lie(f, S.pre_lie(h, g)))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_prod_associative_property(data):
    pool = _bud_pool(3)
    f = _random_series(data, BUD, pool, 6)
    g = _random_series(data, BUD, pool, 6)
    h = _random_series(data, BUD, pool, 6)
    assert S.compose_prod(S.compose_prod(f, g), h) == \
        S.compose_prod(f, S.compose_prod(g, h))


def test_stars_on_mag():
    r = S.characteristic(MAG, [MAG.corolla()], 5)
    u = S.units_series(MAG, 5)
    hs = S.pre_lie_star(r)
    assert hs == S.add(u, S.pre_lie(hs, r))
    cs = S.compose_star(r)
    assert cs == S.add(u, S.compose_prod(cs, r))
    gens = [MAG.corolla()]
    table = all_treelike(MAG, gens, 5, 4)
    for x, c in hs.coeffs.items():
        assert c == sum(hook_count(t) for t in table.get(x, []))
    for x, c in cs.coeffs.items():
        assert c == sum(1 for t in table.get(x, []) if st_is_perfect(t))


def test_star_divergence_detected():
    f = S.characteristic(BUD, [BUD.element("1", 1, ("2",)),
                               BUD.element("2", 1, ("1",))], 4)
    cycle = "arity-1 support admits a color cycle"
    for inputs in (None, ("1",), ("2",), ()):
        with pytest.raises(DivergenceError,
                           match="pre-Lie star diverges: " + cycle):
            S.pre_lie_star(f, inputs=inputs)
        with pytest.raises(DivergenceError,
                           match="composition star diverges: " + cycle):
            S.compose_star(f, inputs=inputs)
        with pytest.raises(DivergenceError,
                           match="composition inverse diverges"):
            S.compose_inverse(S.sub(S.units_series(BUD, 4), f),
                              inputs=inputs)


@pytest.mark.parametrize("labeled,fixpoint", [
    (True, "pre-Lie star"), (False, "composition inverse")])
def test_tree_sum_names_its_fixpoint_when_the_chain_is_too_short(
        labeled, fixpoint):
    # 2 -> 1 -> c(2, 2): a chain of one arity-1 rule, which needs two
    # increment rounds per slice; a chain bound of 0 allows one
    f = S.characteristic(BUD, [BUD.element("1", 1, ("2",)),
                               BUD.element("2", 2, ("1", "1"))], 3)
    with pytest.raises(DivergenceError) as info:
        S._graded_tree_sum(BUD, f.coeffs, 3, 0, labeled=labeled)
    assert str(info.value) == fixpoint + " did not stabilize"
    S._graded_tree_sum(BUD, f.coeffs, 3, 1, labeled=labeled)


@pytest.mark.parametrize("name", ["bbu", "bbt", "b2", "bs", "bdias"])
def test_stars_with_other_coefficients_equal_their_power_sums(name):
    # the bottom-up levels against the top-down products, on rule series
    # scaled by ints other than 1 and by a Fraction; `inputs` composes
    # on the right with the terminal units
    system = builtin(name, **({"gamma": 2} if name == "bdias" else {}))
    bound = 4
    op = system.bud
    top = degree_bound(bound, system.ff_check()[1])
    units = S.units_series(op, bound)
    for scalar in (3, -2, Fraction(2, 3)):
        f = S.scale(scalar, system.rule_series(bound))
        hook, sync = units, units
        for ell in range(1, top + 1):
            hook = S.add(hook, S.pre_lie_power(f, ell))
            sync = S.add(sync, S.compose_power(f, ell))
        t = S.units_series(op, bound, system.terminal)
        for star, expect in ((S.pre_lie_star, hook), (S.compose_star, sync)):
            got = star(f)
            assert got == expect, (name, scalar)
            assert all(type(c) is type(scalar) for x, c in got.coeffs.items()
                       if x not in units.coeffs)
            assert star(f, inputs=system.terminal) == \
                S.compose_prod(expect, t), (name, scalar)
        g = S.sub(units, f)
        assert S.compose_inverse(g, inputs=system.terminal) == \
            S.compose_prod(S.compose_inverse(g), t), (name, scalar)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_engine_series_are_well_formed(name):
    # the engine builds its results without the constructor's checks;
    # the checked constructor must give back the same series
    system = builtin(name, **{"bdias": {"gamma": 2},
                              "btree": {"arities": [2, 3]}}.get(name, {}))
    op, bound = system.bud, 4
    r = system.rule_series(bound)
    units = S.units_series(op, bound)
    for f in (system.hook_series(bound), system.synt_series(bound),
              system.sync_series(bound), S.pre_lie_star(r),
              S.compose_star(r), S.compose_inverse(S.sub(units, r)),
              S.pre_lie(S.scale(-1, r), r), S.compose_prod(r, S.add(units, r))):
        assert S.Series(op, bound, f.coeffs) == f
        assert 0 not in f.coeffs.values()
        for x in f.coeffs:
            assert op.key(x) == (op.arity(x), op.dumps(x))
    assert not S.sub(r, r).coeffs  # cancelled terms are dropped
    above = system.hook_series(bound + 1).support_slice(bound + 1)
    assert above
    with pytest.raises(BudgenError, match="exceeds the arity bound"):
        S.Series(op, bound, {min(above, key=op.key): 1})


def _alternatives(w):
    """The (nodes, product, labeled product) terms of a labeled weight."""
    if type(w) is tuple:
        return [w]
    return [(k, p, h) for k, (p, h) in w.items()]


def _substitute_by_products(op, y, weight, pools, lo, hi, labeled):
    """`_substitute` by brute force: every tuple of pool rows, composed
    with `_full_compose`; labeled, as {x: {nodes: [product, labeled]}}."""
    rows = [[row for bucket in pools.get(c, {}).values() for row in bucket]
            for c in op.ins(y)]
    acc = {}
    for picks in product(*rows):
        if not lo <= sum(op.arity(z) for z, _ in picks) <= hi:
            continue
        x = op._full_compose(y, [z for z, _ in picks])
        if not labeled:
            c = weight
            for _, cz in picks:
                c = c * cz
            acc[x] = acc.get(x, 0) + c
            continue
        for terms in product(*[_alternatives(cz) for _, cz in picks]):
            k, p, h = 0, weight, weight
            for kz, pz, hz in terms:
                k, p, h = k + kz, p * pz, h * hz * comb(k + kz, kz)
            cell = acc.setdefault(x, {}).setdefault(k + 1, [0, 0])
            cell[0] += p
            cell[1] += h
    return acc


@pytest.mark.parametrize("op", [
    BudOperad(ASchrOperad(), ("1", "2")), BudOperad(MagOperad(), ("1", "2")),
    ASchrOperad(), DiasOperad(2), AS], ids=[
    "bud-aschr", "bud-mag", "aschr", "dias2", "as"])
@pytest.mark.parametrize("labeled", [False, True])
def test_substitute_equals_the_products_of_pool_rows(op, labeled):
    # the breadth-first walk on templates against one _full_compose per
    # tuple of picks, over a range of arities (lo < hi) and with pools of
    # several arities per color; labeled picks mix triples and maps
    rng = random.Random(7)
    elements = {n: list(op.elements(n)) for n in (1, 2, 3)}
    rows = []
    for n, xs in elements.items():
        for z in rng.sample(xs, min(len(xs), 6)):
            cz = rng.choice([1, 2, -3])
            if labeled:
                cz = rng.choice([(n - 1, cz, 1), (n, 1, cz),
                                 {n: [cz, 2], n + 1: [1, cz]}])
            rows.append((z, cz))
    pools = S._pools(op, rows)
    for y in elements[2][:3] + elements[3][:3]:
        for lo, hi in ((2, 5), (4, 7), (1, 9)):
            acc = {}
            S._substitute(op, y, 3, pools, lo, hi, acc, labeled)
            if labeled:
                acc = {x: {w[0]: list(w[1:])} if type(w) is tuple else w
                       for x, w in acc.items()}
            assert acc == _substitute_by_products(op, y, 3, pools, lo, hi,
                                                  labeled), (y, lo, hi)


@pytest.mark.parametrize("kind", ["hook", "synt"])
def test_last_slice_builds_no_root_that_the_filter_drops(monkeypatch, kind):
    # bs: rule b has the output color 2, which is not initial and which
    # no arity-1 rule leads from, so its roots at the bound are dropped
    substitute = S._substitute
    slices = set()

    def spy(op, y, weight, pools, lo, hi, acc, labeled=False):
        if op.out(y) == "2" and op.arity(y) >= 2:
            slices.add((lo, hi))
        substitute(op, y, weight, pools, lo, hi, acc, labeled)

    monkeypatch.setattr(S, "_substitute", spy)
    system = builtin("bs")
    got = getattr(system, kind + "_series")(6)
    assert (5, 5) in slices and (6, 6) not in slices
    monkeypatch.setattr(S, "_substitute", substitute)
    bud, r = system.bud, system.rule_series(6)
    middle = (S.pre_lie_star(r, system.terminal) if kind == "hook" else
              S.compose_inverse(S.sub(S.units_series(bud, 6), r),
                                system.terminal))
    # the public fixpoints keep their full last slice
    assert any(x[0] == "2" for x in middle.support_slice(6))
    assert got == system._filtered(middle, 6)


def test_pre_lie_star_passes_an_empty_node_level():
    # seeded with b alone: the 1-node trees have color a, no 2-node tree
    # exists, and c(a(b, b), a(b, b)) has 3 nodes and 2 labelings
    op = BudOperad(MAG, ("a", "b", "c"))
    c = MAG.corolla()
    f = S.characteristic(op, [op.element("a", c, ("b", "b")),
                              op.element("c", c, ("a", "a"))], 4)
    star = S.pre_lie_star(f, inputs=("b",))
    assert star.coeff(op.element("c", MAG.loads("c(c(*,*),c(*,*))"),
                                 ("b",) * 4)) == 2
    assert star == S.compose_prod(S.pre_lie_star(f),
                                  S.units_series(op, 4, ("b",)))


def test_powers():
    r = S.characteristic(MAG, [MAG.corolla()], 5)
    p2 = S.compose_power(r, 2)
    # ((u (.) r) (.) r): the corolla composed with corollas everywhere
    assert p2.coeff(MAG.loads("c(c(*,*),c(*,*))")) == 1
    assert p2.coeff(MAG.corolla()) == 0
    q2 = S.pre_lie_power(r, 2)
    assert q2.coeff(MAG.loads("c(c(*,*),*)")) == 1
    assert q2.coeff(MAG.loads("c(*,c(*,*))")) == 1


def test_compose_inverse_on_mag():
    r = S.characteristic(MAG, [MAG.corolla()], 5)
    u = S.units_series(MAG, 5)
    inv = S.compose_inverse(S.sub(u, r))
    assert S.compose_prod(S.sub(u, r), inv) == u
    gens = [MAG.corolla()]
    table = all_treelike(MAG, gens, 5, 4)
    for x, c in inv.coeffs.items():
        assert c == len(table.get(x, []))


def test_compose_inverse_with_scaled_units():
    # f = 2u + 3c: the inverse must normalize by the unit coefficients
    r = S.scale(3, S.characteristic(MAG, [MAG.corolla()], 4))
    u = S.units_series(MAG, 4)
    f = S.add(S.scale(2, u), r)
    inv = S.compose_inverse(f)
    assert S.compose_prod(f, inv) == u
    assert S.compose_prod(inv, f) == u
    # exact division: 2a = 1 at arity 1, 2b + 3a^2 = 0 at arity 2
    assert inv.coeff(MAG.unit(MONO)) == Fraction(1, 2)
    assert inv.coeff(MAG.corolla()) == Fraction(-3, 8)
    assert all(type(c) is Fraction for c in inv.coeffs.values())


def test_compose_inverse_needs_unit_coefficients():
    r = S.characteristic(MAG, [MAG.corolla()], 4)
    with pytest.raises(BudgenError):
        S.compose_inverse(r)


def test_col_and_pru_series():
    mag_bud = BudOperad(MAG, ("1", "2"))
    c = MAG.corolla()
    f = S.characteristic(mag_bud, [mag_bud.element("1", c, ("1", "2")),
                                   mag_bud.element("1", c, ("2", "1"))], 4)
    colf, carrier = S.col_series(f)
    assert colf.coeff(("1", 2, ("1", "2"))) == 1
    pruf = S.pru_series(f)
    assert pruf.coeff(c) == 2
    with pytest.raises(BudgenError):
        S.pru_series(S.characteristic(AS, [2], 4))


def test_colt_table():
    mag_bud = BudOperad(MAG, ("1", "2"))
    c = MAG.corolla()
    f = S.characteristic(mag_bud, [mag_bud.element("1", c, ("1", "2")),
                                   mag_bud.element("1", c, ("2", "1"))], 4)
    assert S.colt_table(f) == {("1", (1, 1)): 2}


def test_zero_one_coefficients():
    f = S.characteristic(AS, [1, 2], 4)
    assert S.zero_one_coefficients(f)
    assert not S.zero_one_coefficients(S.scale(2, f))


def test_word_series_concatenation_is_pre_lie():
    alphabet = ("a", "b")
    op = S.word_operad(alphabet)
    f = S.mu_encode({("a",): Fraction(2)}, alphabet, 8, op)
    g = S.mu_encode({("b", "a"): Fraction(1)}, alphabet, 8, op)
    expect = S.mu_encode({("a", "b", "a"): Fraction(2)}, alphabet, 8, op)
    assert S.pre_lie(f, g) == expect
    with pytest.raises(BudgenError):
        S.word_operad(("a", S.WORD_MARK))
