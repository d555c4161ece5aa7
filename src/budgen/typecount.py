"""Counting by color type: recurrences and functional systems.

The color type of a bud element is the vector counting each color among
its inputs.  Pushing the treelike / perfect expression counts of a bud
system to (output color, type) indices gives integer recurrences that
are much cheaper than the full series, and the same data packages as a
system of truncated polynomial equations in one variable per color.
"""

from __future__ import annotations

import math
from itertools import product

from .core import BudgenError, DivergenceError, type_of
from .systems import BudSystem


def multiset_factorial(counts) -> int:
    """(sum counts)! / prod of counts!: arrangements of a multiset."""
    counts = list(counts)
    num = math.factorial(sum(counts))
    for c in counts:
        num //= math.factorial(c)
    return num


def chi_table(system: BudSystem) -> dict:
    """Rule counts indexed by (output color, input color type)."""
    key = "chi"
    if key not in system._cache:
        table: dict = {}
        for r in system.rules:
            k = (r[0], type_of(r[2], system.colors))
            table[k] = table.get(k, 0) + 1
        system._cache[key] = table
    return system._cache[key]


# ---------------------------------------------------------------------------
# type-indexed recurrences


def _unit_type(system: BudSystem, color: str) -> tuple:
    return tuple(1 if c == color else 0 for c in system.colors)


def _nonzero(alpha) -> bool:
    return any(a > 0 for a in alpha)


def _sub_type(alpha, beta):
    return tuple(a - b for a, b in zip(alpha, beta))


def _fits(beta, alpha) -> bool:
    return all(b <= a for b, a in zip(beta, alpha))


def _vectors_below(bound):
    """All componentwise-nonnegative vectors <= bound, excluding zero."""
    return [v for v in product(*[range(b + 1) for b in bound]) if _nonzero(v)]


def _multisets(k: int, bound, ceiling=None):
    """Multisets (as nonincreasing tuples) of k nonzero vectors whose sum
    fits below `bound` componentwise."""
    if k == 0:
        yield ()
        return
    for v in _vectors_below(bound):
        if ceiling is not None and v > ceiling:
            continue
        for rest in _multisets(k - 1, _sub_type(bound, v), v):
            yield (v,) + rest


def _multiplicity_factor(multiset) -> int:
    counts: dict = {}
    for v in multiset:
        counts[v] = counts.get(v, 0) + 1
    return multiset_factorial(counts.values())


def colt_synt_coeff(system: BudSystem, color: str, alpha) -> int:
    """Treelike expressions of the system with the given output color,
    counted by input color type."""
    alpha = tuple(alpha)
    if len(alpha) != len(system.colors):
        raise BudgenError("type length must match the color count")
    chi = chi_table(system)
    memo = system._cache.setdefault("colt_synt", {})
    in_progress: set = set()
    colors = system.colors

    def rec(a: str, al: tuple) -> int:
        key = (a, al)
        if key in memo:
            return memo[key]
        if key in in_progress:
            raise DivergenceError("type recurrence admits a color cycle")
        in_progress.add(key)
        total = 1 if al == _unit_type(system, a) else 0
        for (out, tau), count in chi.items():
            if out != a:
                continue
            total += count * _synt_rule_sum(tau, al)
        in_progress.discard(key)
        memo[key] = total
        return total

    def _synt_rule_sum(tau: tuple, al: tuple) -> int:
        # assign a multiset of child types to each color class of the rule
        def go(idx: int, remaining: tuple) -> int:
            while idx < len(colors) and tau[idx] == 0:
                idx += 1
            if idx == len(colors):
                return 1 if not _nonzero(remaining) else 0
            b = colors[idx]
            subtotal = 0
            for multiset in _multisets(tau[idx], remaining):
                rest = remaining
                for gamma in multiset:
                    rest = _sub_type(rest, gamma)
                # resolve the rest of the rule first: dead branches must
                # not trigger recursive child counts
                tail = go(idx + 1, rest)
                if tail == 0:
                    continue
                weight = _multiplicity_factor(multiset)
                for gamma in multiset:
                    weight *= rec(b, gamma)
                    if weight == 0:
                        break
                subtotal += weight * tail
            return subtotal

        return go(0, al)

    return rec(color, alpha)


def colt_sync_coeff(system: BudSystem, color: str, alpha) -> int:
    """Perfect (synchronous) expressions of the system with the given
    output color, counted by input color type."""
    alpha = tuple(alpha)
    if len(alpha) != len(system.colors):
        raise BudgenError("type length must match the color count")
    chi = chi_table(system)
    memo = system._cache.setdefault("colt_sync", {})
    in_progress: set = set()
    colors = system.colors
    pairs = sorted(chi.items())  # ((out color, rule type), count)

    def rec(a: str, al: tuple) -> int:
        key = (a, al)
        if key in memo:
            return memo[key]
        if key in in_progress:
            raise DivergenceError("type recurrence admits a color cycle")
        in_progress.add(key)
        total = 1 if al == _unit_type(system, a) else 0

        # choose how many leaves of each color take each rule type
        def go(idx: int, remaining: tuple, beta: list, weight: int,
               phi_by_color: dict) -> int:
            if weight == 0:
                return 0
            if idx == len(pairs):
                if _nonzero(remaining) or not any(beta):
                    return 0
                for counts in phi_by_color.values():
                    weight_here = multiset_factorial(counts)
                    if weight_here != 1:
                        weight *= weight_here
                return weight * rec(a, tuple(beta))
            (b, gamma), count = pairs[idx]
            b_idx = colors.index(b)
            subtotal = 0
            d = 0
            chi_pow = 1
            rest = remaining
            while True:
                phi_by_color.setdefault(b, []).append(d)
                beta[b_idx] += d
                subtotal += go(idx + 1, rest, beta, weight * chi_pow,
                               phi_by_color)
                beta[b_idx] -= d
                phi_by_color[b].pop()
                if not _fits(gamma, rest):
                    break
                rest = _sub_type(rest, gamma)
                d += 1
                chi_pow *= count
            return subtotal

        total += go(0, al, [0] * len(colors), 1, {})
        in_progress.discard(key)
        memo[key] = total
        return total

    return rec(color, alpha)


# ---------------------------------------------------------------------------
# counting series of the (synchronous) language


def _compositions(n: int, k: int):
    """All k-tuples of nonnegative ints that sum to n."""
    if k == 1:
        yield (n,)
        return
    for v in range(n + 1):
        for rest in _compositions(n - v, k - 1):
            yield (v,) + rest


def _terminal_types(system: BudSystem, n: int):
    """All types of degree n supported on the terminal colors."""
    idxs = [system.colors.index(c) for c in system.terminal]
    if not idxs:
        return
    for parts in _compositions(n, len(idxs)):
        alpha = [0] * len(system.colors)
        for i, v in zip(idxs, parts):
            alpha[i] = v
        yield tuple(alpha)


PROBE_BOUND = 5


def _counting_series(system: BudSystem, bound: int, synchronous: bool):
    probe = min(bound, PROBE_BOUND)
    if synchronous:
        unambiguous = system.is_sync_unambiguous(probe)
        coeff = colt_sync_coeff
        series = system.sync_series
    else:
        unambiguous = system.is_unambiguous(probe)
        coeff = colt_synt_coeff
        series = system.synt_series
    if unambiguous:
        counts = []
        for n in range(1, bound + 1):
            total = 0
            for a in system.initial:
                for alpha in _terminal_types(system, n):
                    total += coeff(system, a, alpha)
            counts.append(total)
        return counts, "type-recurrence"
    full = series(bound)
    counts = [len(full.support_slice(n)) for n in range(1, bound + 1)]
    return counts, "support"


def lang_counting_series(system: BudSystem, bound: int):
    """a(n) = number of language elements of arity n, for n = 1..bound.

    Uses the type recurrence when an unambiguity probe (at arity
    min(bound, PROBE_BOUND)) passes, else falls back to counting the
    support of the full series.  Returns (counts, method)."""
    return _counting_series(system, bound, synchronous=False)


def sync_counting_series(system: BudSystem, bound: int):
    """Like lang_counting_series for the synchronous language."""
    return _counting_series(system, bound, synchronous=True)


# ---------------------------------------------------------------------------
# functional systems on truncated integer polynomials: dicts from exponent
# tuples to ints, turned into sympy expressions (and sympy imported) only
# on return


def _as_sympy(poly: dict, syms):
    """The sympy expression of an integer polynomial in the symbols syms."""
    import sympy as sp
    return sp.Add(*[sp.Mul(sp.Integer(c),
                           *[s ** e for s, e in zip(syms, m) if e])
                    for m, c in poly.items()])


def y_symbols(system: BudSystem) -> dict:
    import sympy as sp
    return {c: sp.Symbol("y_%s" % c) for c in system.colors}


def _in_y(system: BudSystem, polys: dict) -> dict:
    """{color: polynomial} as {color: sympy expression in the y_c}."""
    ys = y_symbols(system)
    syms = [ys[c] for c in system.colors]
    return {c: _as_sympy(polys[c], syms) for c in system.colors}


def _g_polys(system: BudSystem) -> dict:
    """g_a as integer polynomials: the rule counts of chi_table."""
    chi = chi_table(system)
    return {a: {tau: n for (out, tau), n in chi.items() if out == a}
            for a in system.colors}


def g_poly(system: BudSystem) -> dict:
    """Rule-generating polynomials: g_a = sum over rules with output a of
    the product of y_c over the rule inputs c."""
    return _in_y(system, _g_polys(system))


def _mul(p: dict, q: dict, bound: int) -> dict:
    """p * q without the monomials of total degree above bound."""
    out: dict = {}
    q_items = [(m, c, sum(m)) for m, c in q.items()]
    for m1, c1 in p.items():
        d1 = sum(m1)
        for m2, c2, d2 in q_items:
            if d1 + d2 > bound:
                continue
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _from_recurrence(system: BudSystem, bound: int, coeff) -> dict:
    """f_a = sum over the types 1 <= |alpha| <= bound of
    coeff(system, a, alpha) * y^alpha."""
    ok, _ = system.ff_check()
    if not ok:
        raise DivergenceError("arity-1 rules admit a color cycle")
    types = [alpha for n in range(1, bound + 1)
             for alpha in _compositions(n, len(system.colors))]
    return _in_y(system, {
        a: {alpha: c for alpha in types if (c := coeff(system, a, alpha))}
        for a in system.colors})


def solve_synt_system(system: BudSystem, bound: int) -> dict:
    """Fixpoint of f_a = y_a + g_a(f_c1, .., f_ck), truncated at total
    degree `bound`.  f_a counts treelike expressions by leaf colors, so
    its coefficients are the type recurrence colt_synt_coeff."""
    return _from_recurrence(system, bound, colt_synt_coeff)


def solve_sync_system(system: BudSystem, bound: int) -> dict:
    """Fixpoint of f_a = y_a + f_a(g_c1, .., g_ck), truncated at total
    degree `bound`.  f_a counts perfect expressions by leaf colors, so
    its coefficients are the type recurrence colt_sync_coeff."""
    return _from_recurrence(system, bound, colt_sync_coeff)


def sync_iterates(system: BudSystem, ell: int, bound: int) -> list:
    """Iterates f^(0)_a = y_a, f^(l)_a = y_a + f^(l-1)_a(g_c1, .., g_ck),
    each truncated at total degree `bound`."""
    colors = system.colors
    g = _g_polys(system)
    one = (0,) * len(colors)
    images = {one: {one: 1}}  # y^beta -> prod of g_c^beta_c, truncated

    def image(beta: tuple) -> dict:
        if beta not in images:
            i = next(i for i, e in enumerate(beta) if e)
            lower = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            images[beta] = _mul(image(lower), g[colors[i]], bound)
        return images[beta]

    iterates = [{c: {_unit_type(system, c): 1} for c in colors}]
    for _ in range(ell):
        nxt = {}
        for a, poly in iterates[-1].items():
            new = {_unit_type(system, a): 1} if bound >= 1 else {}
            for beta, coeff in poly.items():
                for m, v in image(beta).items():
                    new[m] = new.get(m, 0) + coeff * v
            nxt[a] = new
        iterates.append(nxt)
    return [_in_y(system, f) for f in iterates]


# ---------------------------------------------------------------------------
# refined counting of perfect trees, all arities at once


def refined_perfect(bound: int) -> dict:
    """Perfect-tree polynomials s_n in q_2..q_n: the coefficient of a
    monomial prod q_b^(d_b) counts perfect trees with n leaves built by
    repeatedly substituting, at every leaf at once, corollas whose last
    layer uses d_b corollas of arity b.  Returns {n: polynomial}."""
    import sympy as sp

    def layers(n: int, b: int):
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
        total: dict = {}
        for layer in layers(n, 2):
            weight = multiset_factorial(layer)
            for m, c in s[sum(layer)].items():
                key = tuple(a + b for a, b in zip(layer, m))
                total[key] = total.get(key, 0) + weight * c
        s[n] = total
    q = [sp.Symbol("q_%d" % b) for b in range(2, bound + 1)]
    return {n: _as_sympy(poly, q) for n, poly in s.items()}


# ---------------------------------------------------------------------------
# hook coefficients of binary trees, by arity and left-subtree arity


def hook_triangle(n_max: int) -> list:
    """Rows t_n = [h(n, 0), .., h(n, n-1)] with h(n, a) = (2a - 1) *
    h(n-1, a-1) + (2n - 2a - 3) * h(n-1, a); h(n, a) sums the hook counts
    of the binary trees with n + 1 leaves whose left subtree has a + 1
    leaves."""
    if n_max < 1:
        return []
    rows = [[1]]
    for n in range(2, n_max + 1):
        prev = rows[-1]
        row = []
        for a in range(n):
            val = 0
            if 0 <= a - 1 < len(prev):
                val += (2 * a - 1) * prev[a - 1]
            if a < len(prev):
                val += (2 * n - 2 * a - 3) * prev[a]
            row.append(val)
        rows.append(row)
    return rows
