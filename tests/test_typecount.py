import random

import pytest
import sympy as sp

import budgen.series as S
from budgen.core import BudgenError, DivergenceError, MONO, type_of
from budgen.grammars import cfg_to_bud, parse_cfg
from budgen.operads import MagOperad
from budgen.systems import BudSystem, builtin
from budgen.typecount import (
    _mul,
    _packing,
    chi_table,
    colt_sync_coeff,
    colt_synt_coeff,
    g_poly,
    hook_triangle,
    lang_counting_series,
    multiset_factorial,
    refined_perfect,
    solve_sync_system,
    solve_synt_system,
    sync_counting_series,
    sync_iterates,
)

Y1, Y2 = sp.Symbol("y_1"), sp.Symbol("y_2")


def test_multiset_factorial():
    assert multiset_factorial([]) == 1
    assert multiset_factorial([3]) == 1
    assert multiset_factorial([1, 1]) == 2
    assert multiset_factorial([2, 1]) == 3
    assert multiset_factorial([2, 2, 1]) == 30


def test_chi_and_g_for_bbt():
    bbt = builtin("bbt")
    assert chi_table(bbt) == {("1", (2, 0)): 1, ("1", (1, 1)): 2,
                              ("2", (1, 0)): 1}
    g = g_poly(bbt)
    assert sp.expand(g["1"] - (Y1 ** 2 + 2 * Y1 * Y2)) == 0
    assert g["2"] == Y1


def test_chi_and_g_for_bbu():
    bbu = builtin("bbu")
    assert chi_table(bbu) == {("1", (0, 1)): 2, ("2", (2, 0)): 1}
    g = g_poly(bbu)
    assert g["1"] == 2 * Y2
    assert g["2"] == Y1 ** 2


def test_chi_table_counts_the_rule_types():
    # against one `type_of` per rule, on the presets and on a grammar
    # whose rule words repeat and skip colors
    grammar = "S -> a S b S\nS -> T c\nT -> a a S\nT -> c\nS -> b"
    systems = [builtin(name) for name in ("bbt", "bbu", "b2", "bs", "bp")]
    systems.append(cfg_to_bud(parse_cfg(grammar)))
    for system in systems:
        expected: dict = {}
        for out, _, u in system.rules:
            key = (out, type_of(u, system.colors))
            expected[key] = expected.get(key, 0) + 1
        assert chi_table(system) == expected


def test_colt_synt_matches_series():
    for name, bound in [("bp", 5), ("bs", 5), ("bbt", 4)]:
        system = builtin(name)
        u = S.units_series(system.bud, bound)
        middle = S.compose_inverse(S.sub(u, system.rule_series(bound)))
        table = S.colt_table(middle)
        for (color, alpha), coeff in table.items():
            assert colt_synt_coeff(system, color, alpha) == coeff
        # and zero where the table is empty
        assert colt_synt_coeff(system, system.colors[0],
                               (bound + 1,) + (0,) * (len(system.colors) - 1)) \
            >= 0


def test_colt_sync_matches_series():
    for name, bound in [("bbt", 6), ("bp", 6), ("b1", 6)]:
        system = builtin(name)
        middle = S.compose_star(system.rule_series(bound))
        table = S.colt_table(middle)
        for (color, alpha), coeff in table.items():
            assert colt_sync_coeff(system, color, alpha) == coeff


def test_colt_divergence_on_color_cycle():
    ground = MagOperad()
    leaf = ground.unit(MONO)
    cyclic = BudSystem(ground, ("1", "2"),
                       [("1", leaf, ("2",)), ("2", leaf, ("1",))],
                       ("1",), ("1",))
    with pytest.raises(DivergenceError):
        colt_synt_coeff(cyclic, "1", (1, 0))
    with pytest.raises(DivergenceError):
        colt_sync_coeff(cyclic, "1", (1, 0))
    with pytest.raises(DivergenceError):
        sync_counting_series(cyclic, 3)
    # no element has arity 0, cycle or not
    assert colt_synt_coeff(cyclic, "1", (0, 0)) == 0
    assert colt_sync_coeff(cyclic, "1", (0, 0)) == 0


def test_counting_series_methods():
    counts, method = lang_counting_series(builtin("bs"), 6)
    assert method == "type-recurrence"
    assert counts == [1, 1, 2, 5, 14, 42]
    counts, method = lang_counting_series(builtin("bp"), 6)
    assert method == "support"
    assert counts == [1, 1, 1, 3, 5, 11]
    counts, method = sync_counting_series(builtin("bbt"), 8)
    assert method == "type-recurrence"
    assert counts == [1, 1, 2, 1, 4, 6, 4, 17]


def test_counting_with_a_rule_above_the_probe_bound():
    system = cfg_to_bud(parse_cfg("S -> a a a a a a\n"))
    counts, method = lang_counting_series(system, 7)
    assert counts == [0, 0, 0, 0, 0, 1, 0]
    assert method == "type-recurrence"


def test_solve_synt_system_matches_colt():
    bbu = builtin("bbu")
    f = solve_synt_system(bbu, 5)
    for color in bbu.colors:
        poly = sp.Poly(f[color], Y1, Y2)
        for monom, coeff in poly.terms():
            assert coeff == colt_synt_coeff(bbu, color, monom)


def test_solve_sync_system_matches_colt():
    bbt = builtin("bbt")
    f = solve_sync_system(bbt, 6)
    for color in bbt.colors:
        poly = sp.Poly(f[color], Y1, Y2)
        for monom, coeff in poly.terms():
            assert coeff == colt_sync_coeff(bbt, color, monom)


def test_sync_iterates_start_at_variables():
    bbt = builtin("bbt")
    its = sync_iterates(bbt, 2, 6)
    assert its[0]["1"] == Y1
    assert sp.expand(its[1]["1"] - (Y1 + Y1 ** 2 + 2 * Y1 * Y2)) == 0


def test_refined_perfect_small():
    q2, q3, q4 = sp.symbols("q_2 q_3 q_4")
    s = refined_perfect(5)
    assert s[1] == 1
    assert s[2] == q2
    assert s[3] == q3
    assert sp.expand(s[4] - (q2 ** 3 + q4)) == 0
    for bound in (0, -1):
        with pytest.raises(BudgenError, match="^arity bound must be >= 1$"):
            refined_perfect(bound)


def test_int_poly_prints_and_compares_without_sympy():
    f = solve_synt_system(builtin("bbt"), 2)
    assert str(f["1"]) == "3*y_1**2 + 2*y_1*y_2 + y_1"
    assert f["1"].coeff((1, 1)) == 2 and f["1"].coeff([0, 2]) == 0
    assert f["1"] == solve_synt_system(builtin("bbt"), 2)["1"] != f["2"]
    assert str(refined_perfect(3)[1]) == "1"
    assert str(solve_synt_system(builtin("bbt"), 0)["1"]) == "0"
    assert f["1"].as_sympy() == 3 * Y1 ** 2 + 2 * Y1 * Y2 + Y1
    assert repr(f["1"]) == (
        "IntPoly('3*y_1**2 + 2*y_1*y_2 + y_1', variables=('y_1', 'y_2'))")
    assert repr(refined_perfect(1)) == "{1: IntPoly('1', variables=())}"


def test_refined_perfect_counts_perfect_trees():
    # setting every q_b to 1 counts perfect trees with n leaves
    s = refined_perfect(8)
    ones = {sym: 1 for expr in s.values() for sym in expr.free_symbols}
    totals = [s[n].as_sympy().subs(ones) for n in range(1, 9)]
    assert totals == [1, 1, 1, 2, 3, 5, 8, 14]


def _refined_perfect_reference(bound):
    """{n: {exponent tuple: count}} of the perfect-tree polynomials, each
    last layer listed by a recursion over the arities b = 2..bound."""
    def layers(n, b):
        # (d_b, .., d_bound) with sum of b' * d_b' = n
        if n == 0 or b > bound:
            if n == 0:
                yield (0,) * (bound + 1 - b)
            return
        for d in range(n // b + 1):
            for rest in layers(n - b * d, b + 1):
                yield (d,) + rest

    s = {1: {(0,) * (bound - 1): 1}}
    for n in range(2, bound + 1):
        total = {}
        for layer in layers(n, 2):
            weight = multiset_factorial(layer)
            for m, c in s[sum(layer)].items():
                key = tuple(a + b for a, b in zip(layer, m))
                total[key] = total.get(key, 0) + weight * c
        s[n] = total
    return s


def test_refined_perfect_matches_the_recursive_layers():
    for bound in range(1, 15):
        reference = _refined_perfect_reference(bound)
        s = refined_perfect(bound)
        assert s.keys() == reference.keys()
        for n, poly in s.items():
            assert dict(poly.terms) == reference[n], (bound, n)


def test_refined_perfect_sums_count_the_perfect_btrees():
    # a second engine: the synchronous language of btree with arities
    # 2..12 is the perfect trees, counted by the type recurrence
    s = refined_perfect(12)
    sums = [sum(s[n].terms.values()) for n in range(1, 13)]
    counts, method = sync_counting_series(
        builtin("btree", arities=list(range(2, 13))), 12)
    assert method == "type-recurrence"
    assert sums == counts
    assert sums[:10] == [1, 1, 1, 2, 3, 5, 8, 14, 25, 46]


def _mul_reference(p, q, bound, box=None):
    """p * q on exponent tuples, dropping total degree > bound or not
    <= box componentwise."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            if sum(m) <= bound and (
                    box is None or all(a <= b for a, b in zip(m, box))):
                out[m] = out.get(m, 0) + c1 * c2
    return out


def test_packed_mul_matches_the_tuple_product():
    rng = random.Random(17)
    cases = [(k, bound) for k in range(1, 5) for bound in range(7)]
    # digits of one byte up to bound 255, of two bytes from 256 on
    cases += [(k, bound) for k in (1, 2) for bound in (255, 256, 300)]
    for k, bound in cases:
        pack, unpack, top = _packing(k, bound)
        monomials = [m for n in range(bound + 1) for m in _types(k, n)]
        for m in monomials:
            assert unpack(pack(m)) == m
        # y_c**bound in both factors: their square carries a digit of one
        # byte
        high = [tuple(bound * (i == c) for i in range(k)) for c in range(k)]
        for _ in range(12):
            p, q = ({m: rng.randint(1, 9)
                     for m in rng.sample(monomials, min(4, len(monomials)))
                     + high} for _ in range(2))
            box = rng.choice([None, tuple(rng.randint(0, bound)
                                          for _ in range(k))])
            # _mul looks up only the products in the box
            packed_box = None if box is None else frozenset(
                pack(m) for m in (tuple(map(sum, zip(m1, m2)))
                                  for m1 in p for m2 in q)
                if sum(m) <= bound and all(a <= b for a, b in zip(m, box)))
            d = rng.randint(0, bound)
            got = _mul({pack(m): c for m, c in p.items()},
                       {pack(m): c for m, c in q.items()},
                       (d + 1) * top, packed_box)
            assert {unpack(m): c for m, c in got.items()} == \
                _mul_reference(p, q, d, box), (k, bound, d, box)


def test_unit_monomials_of_many_variables_unpack_exactly():
    # the 1,501 colors of a long unit chain: one byte per exponent
    k = 1501
    pack, unpack, top = _packing(k, 1)
    assert top == 256 ** k
    for i in range(k):
        unit = (0,) * i + (1,) + (0,) * (k - 1 - i)
        assert pack(unit) == 256 ** i + top
        assert unpack(pack(unit)) == unit


def test_colt_coefficients_of_types_no_element_has():
    bbt = builtin("bbt")
    for coeff in (colt_synt_coeff, colt_sync_coeff):
        assert coeff(bbt, "1", (-1, 2)) == 0
        assert coeff(bbt, "1", (3, -1)) == 0
        assert coeff(bbt, "2", (-1, 2)) == 0
        with pytest.raises(BudgenError,
                           match="^type entries must be integers$"):
            coeff(bbt, "1", (1.0, 2))


def test_solve_systems_at_a_negative_bound_are_zero():
    bbt = builtin("bbt")
    zeros = {"1": 0, "2": 0}
    assert solve_synt_system(bbt, -1) == zeros
    assert solve_sync_system(bbt, -1) == zeros
    assert sync_iterates(bbt, 2, -1) == [{"1": Y1, "2": Y2}, zeros, zeros]


def test_hook_triangle_first_rows():
    assert hook_triangle(4) == [[1], [1, 1], [3, 2, 3], [15, 9, 9, 15]]
    rows = hook_triangle(6)
    # row symmetry
    for row in rows:
        assert row == row[::-1]


def _coefficient_table(system, f):
    """{(color, type): coefficient} of a solved functional system."""
    ys = [sp.Symbol("y_%s" % c) for c in system.colors]
    table = {}
    for color in system.colors:
        for monom, coeff in sp.Poly(f[color], *ys).terms():
            if coeff:
                table[(color, monom)] = coeff
    return table


@pytest.mark.parametrize("name", ["bbt", "b1", "b2", "bbu"])
def test_solve_systems_match_series_colt_tables(name):
    # the series engine is an oracle independent of the type recurrence
    system = builtin(name)
    for bound in range(1, 6):
        synt = _coefficient_table(system, solve_synt_system(system, bound))
        sync = _coefficient_table(system, solve_sync_system(system, bound))
        r = system.rule_series(bound)
        u = S.units_series(system.bud, bound)
        assert synt == S.colt_table(S.compose_inverse(S.sub(u, r)))
        assert sync == S.colt_table(S.compose_star(r))
        # and the filtered system series pick out their part of f
        for table, series in [(synt, system.synt_series(bound)),
                              (sync, system.sync_series(bound))]:
            filtered = {(a, alpha): c for (a, alpha), c in table.items()
                        if a in system.initial
                        and all(alpha[i] == 0
                                for i, col in enumerate(system.colors)
                                if col not in system.terminal)}
            assert filtered == S.colt_table(series)


def test_solve_systems_diverge_on_color_cycle():
    ground = MagOperad()
    leaf = ground.unit(MONO)
    cyclic = BudSystem(ground, ("1", "2"),
                       [("1", leaf, ("2",)), ("2", leaf, ("1",))],
                       ("1",), ("1",))
    with pytest.raises(DivergenceError):
        solve_synt_system(cyclic, 3)
    with pytest.raises(DivergenceError):
        solve_sync_system(cyclic, 3)


@pytest.mark.parametrize("name", ["bbt", "b1", "bbu", "bs"])
def test_solve_systems_at_bound_zero_are_zero(name):
    system = builtin(name)
    zeros = {c: 0 for c in system.colors}
    assert solve_synt_system(system, 0) == zeros
    assert solve_sync_system(system, 0) == zeros


def test_sync_iterates_reject_a_negative_index():
    with pytest.raises(BudgenError, match="iterate index"):
        sync_iterates(builtin("bbt"), -1, 4)


def test_sync_iterates_at_bound_zero():
    # f^(0) = y is the one iterate that is not truncated
    its = sync_iterates(builtin("bbt"), 2, 0)
    assert its == [{"1": Y1, "2": Y2}, {"1": 0, "2": 0}, {"1": 0, "2": 0}]


@pytest.mark.parametrize("name", ["bbt", "b2", "bp"])
def test_colt_tables_serve_smaller_bounds(name):
    # a table computed at degree 6 answers degrees 1..5 as a fresh one does
    for coeff, counting, solve in [
            (colt_synt_coeff, lang_counting_series, solve_synt_system),
            (colt_sync_coeff, sync_counting_series, solve_sync_system)]:
        warm = builtin(name)
        top = (6,) + (0,) * (len(warm.colors) - 1)
        coeff(warm, warm.colors[0], top)
        for n in range(1, 6):
            for color in warm.colors:
                for alpha in _types(len(warm.colors), n):
                    assert coeff(warm, color, alpha) == \
                        coeff(builtin(name), color, alpha)
        assert counting(warm, 5) == counting(builtin(name), 5)
        assert solve(warm, 5) == solve(builtin(name), 5)


def test_box_tables_give_the_values_of_the_series():
    # colt_*_coeff solve only the types componentwise <= alpha; the table
    # of one type must not answer another, nor the counting series
    bound = 4
    sides = [(colt_synt_coeff, lang_counting_series, solve_synt_system,
              lambda u, r: S.compose_inverse(S.sub(u, r))),
             (colt_sync_coeff, sync_counting_series, solve_sync_system,
              lambda u, r: S.compose_star(r))]
    for coeff, counting, solve, middle in sides:
        for name in ["b2", "b3"]:
            system = builtin(name)
            u = S.units_series(system.bud, bound)
            table = S.colt_table(middle(u, system.rule_series(bound)))
            assert len(table) > 10
            for n in range(bound, 0, -1):
                for alpha in _types(len(system.colors), n):
                    for color in system.colors:
                        assert coeff(system, color, alpha) == \
                            table.get((color, alpha), 0), (name, color, alpha)
            fresh = builtin(name)
            assert counting(system, bound) == counting(fresh, bound)
            assert solve(system, bound) == solve(fresh, bound)


def test_a_sweep_over_types_keeps_one_box_table_per_kind():
    # every type of b3 with entries <= 3 and degree <= 6, each color asked
    types = [alpha for n in range(1, 7) for alpha in _types(5, n)
             if max(alpha) <= 3]
    assert len(types) == 356
    for coeff in (colt_synt_coeff, colt_sync_coeff):
        swept = builtin("b3")
        values = {(color, alpha): coeff(swept, color, alpha)
                  for alpha in types for color in swept.colors}
        # the rule counts, the rule plan and one box table
        assert len(swept._cache) <= 3
        for alpha in types:
            fresh = builtin("b3")
            for color in fresh.colors:
                assert values[color, alpha] == coeff(fresh, color, alpha)


def test_box_coefficient_of_b3_at_every_color():
    # a type that uses every color solves only the types below it
    assert colt_synt_coeff(builtin("b3"), "1", (2, 2, 2, 2, 2)) == 8_774_640


def test_counting_series_at_large_bounds():
    assert lang_counting_series(builtin("bs"), 16) == (
        [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
         742900, 2674440, 9694845], "type-recurrence")
    assert lang_counting_series(builtin("bs"), 30) == ([
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
        742900, 2674440, 9694845, 35357670, 129644790, 477638700,
        1767263190, 6564120420, 24466267020, 91482563640, 343059613650,
        1289904147324, 4861946401452, 18367353072152, 69533550916004,
        263747951750360, 1002242216651368], "type-recurrence")
    assert sync_counting_series(builtin("b3"), 18) == (
        [1, 1, 1, 1, 3, 2, 2, 6, 9, 15, 15, 17, 41, 77, 125, 178, 252, 376],
        "type-recurrence")


FIVE_LETTERS = "S -> a S\nS -> b S\nS -> c S\nS -> e S\nS -> d\n"


def test_counting_series_of_the_five_letter_grammar():
    # the words of length n are {a, b, c, e}^(n-1) d
    counts, method = lang_counting_series(cfg_to_bud(parse_cfg(FIVE_LETTERS)),
                                          40)
    assert method == "type-recurrence"
    assert counts == [4 ** (n - 1) for n in range(1, 41)]


def test_synt_system_of_bbt_at_degree_16():
    # bbt is ambiguous, so its language counts take the support; its
    # treelike expressions over the terminal color y_1 are f_1(y_1, 0)
    f = solve_synt_system(builtin("bbt"), 16)
    poly = sp.Poly(f["1"].as_sympy().subs(Y2, 0), Y1)
    assert [poly.coeff_monomial(Y1 ** n) for n in range(1, 17)] == [
        1, 3, 18, 135, 1134, 10206, 96228, 938223, 9382230, 95698746,
        991787004, 10413763542, 110546105292, 1184422556700, 12791763612360,
        139110429284415]


def _types(k, n):
    """All k-tuples of nonnegative ints that sum to n."""
    if k == 1:
        yield (n,)
        return
    for v in range(n + 1):
        for rest in _types(k - 1, n - v):
            yield (v,) + rest
