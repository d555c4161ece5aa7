"""Counting by color type: functional systems on truncated polynomials.

The color type of a bud element is the vector counting each color among
its inputs.  Pushed to (output color, type) indices, the treelike and
perfect expression counts of a bud system are the coefficients of two
systems of polynomial equations in one variable y_c per color,

    f_a = y_a + g_a(f_c1, .., f_ck)    (syntactic: treelike expressions)
    f_a = y_a + f_a(g_c1, .., g_ck)    (synchronous: perfect expressions)

where g_a counts the rules of output color a by input type.  Both are
solved, truncated at a total degree (one syntactic coefficient: at its
type, componentwise), by one polynomial composition: the first by
composing until two rounds agree, the second by summing the layers y_a,
g_a, g_a(g), .. until one is empty.
"""

from __future__ import annotations

import math

from .core import BudgenError, DivergenceError, type_of
from .operads import degree_bound
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
# truncated integer polynomials: dicts from exponent tuples to ints, turned
# into sympy expressions (and sympy imported) only on return


def _mul(p: dict, q: dict, bound: int, box=None) -> dict:
    """p * q, dropping monomials of total degree > bound or not <= box."""
    out: dict = {}
    q_items = sorted(((sum(m), m, c) for m, c in q.items()),
                     key=lambda t: t[0])
    for m1, c1 in p.items():
        room = bound - sum(m1)
        for d2, m2, c2 in q_items:
            if d2 > room:
                break
            m = tuple(a + b for a, b in zip(m1, m2))
            if box is None or all(a <= b for a, b in zip(m, box)):
                out[m] = out.get(m, 0) + c1 * c2
    return out


def _add(p: dict, q: dict) -> dict:
    """p += q, in place."""
    for m, c in q.items():
        p[m] = p.get(m, 0) + c
    return p


def _compose(p: dict, powers: list, bound: int, box=None) -> dict:
    """p(q_1, .., q_k) truncated as by `_mul`, where powers[i] = [1, q_i,
    q_i^2, ..] grows as needed.  Horner's rule over the variables: p =
    sum over e of q_1^e * p_e(q_2, .., q_k)."""
    k = len(powers)

    def horner(terms: list, i: int) -> dict:
        if i == k:
            return {(0,) * k: sum(c for _, c in terms)}
        groups: dict = {}
        for m, c in terms:
            groups.setdefault(m[i], []).append((m, c))
        pw = powers[i]
        out: dict = {}
        for e, sub in groups.items():
            while len(pw) <= e:
                pw.append(_mul(pw[-1], pw[1], bound, box))
            if pw[e]:
                _add(out, _mul(pw[e], horner(sub, i + 1), bound, box))
        return out

    return horner(list(p.items()), 0)


def _g_polys(system: BudSystem) -> dict:
    """g_a as integer polynomials: the rule counts of chi_table."""
    chi = chi_table(system)
    return {a: {tau: n for (out, tau), n in chi.items() if out == a}
            for a in system.colors}


def _powers(system: BudSystem, polys: dict) -> list:
    """The first powers [1, q_c] of each polynomial, in color order."""
    one = (0,) * len(system.colors)
    return [[{one: 1}, polys[c]] for c in system.colors]


# ---------------------------------------------------------------------------
# the two functional systems, by color type


def _y(system: BudSystem, color: str, bound: int) -> dict:
    """The variable y_color, truncated at total degree bound."""
    unit = tuple(1 if c == color else 0 for c in system.colors)
    return {unit: 1} if bound >= 1 else {}


def _round_cap(system: BudSystem, bound: int) -> int:
    """The certified cap on rounds or layers; a color cycle diverges."""
    ok, chain = system.ff_check()
    if not ok:
        raise DivergenceError("arity-1 rules admit a color cycle")
    # bound 0 still takes one round to see the zero truncation
    return degree_bound(max(bound, 1), chain) + 2


def _solve_synt(system: BudSystem, bound: int, variables, box=None) -> dict:
    """{a: f_a} for the fixpoint of f_a = y_a + g_a(f_c1, .., f_ck) with
    y_c = 0 for each color c not in `variables`: the treelike expressions
    by output color and input type, for the types supported on
    `variables` (setting a variable to 0 commutes with composition) and
    inside the box if given (a tree's type bounds its subtrees')."""
    cap = _round_cap(system, bound)
    g = _g_polys(system)
    y = {a: _y(system, a, bound) if a in variables else {}
         for a in system.colors}
    f: dict = {a: {} for a in system.colors}
    for _ in range(cap):
        powers = _powers(system, f)
        nxt = {a: _add(_compose(g[a], powers, bound, box), y[a])
               for a in system.colors}
        if nxt == f:
            return f
        f = nxt
    raise DivergenceError("functional system did not stabilize")


def _sync_layers(system: BudSystem, color: str, bound: int):
    """L^0 = y_color, L^(h+1) = L^h(g_c1, .., g_ck): the perfect
    expressions of output color `color` and height h, by input type."""
    powers = _powers(system, _g_polys(system))
    layer = _y(system, color, bound)
    while True:
        yield layer
        layer = _compose(layer, powers, bound)


def _solve_sync(system: BudSystem, color: str, bound: int) -> dict:
    """f_color for f_a = y_a + f_a(g_c1, .., g_ck): the sum of the layers
    up to the first empty one."""
    cap = _round_cap(system, bound)
    f: dict = {}
    for layer, _ in zip(_sync_layers(system, color, bound), range(cap)):
        if not layer:
            return f
        _add(f, layer)
    raise DivergenceError("functional system did not stabilize")


def _cached(system: BudSystem, key, bound: int, solve):
    """solve(bound), cached per system; a result computed at a larger
    bound serves every smaller one."""
    hit = system._cache.get(key)
    if hit is None or hit[0] < bound:
        hit = system._cache[key] = (bound, solve(bound))
    return hit[1]


def _poly(system: BudSystem, color: str, bound: int, synchronous: bool,
          variables) -> dict:
    """f_color at a bound of at least `bound`, exact on the types
    supported on the colors `variables` (synt drops the other types)."""
    if synchronous:
        return _cached(system, ("colt_sync", color), bound,
                       lambda n: _solve_sync(system, color, n))
    variables = frozenset(variables)
    return _cached(system, ("colt_synt", variables), bound,
                   lambda n: _solve_synt(system, n, variables))[color]


def _coeff(system: BudSystem, color: str, alpha, synchronous: bool) -> int:
    alpha = tuple(alpha)
    if len(alpha) != len(system.colors):
        raise BudgenError("type length must match the color count")
    if color not in system.colors:
        raise BudgenError("unknown color %r" % color)
    if not any(alpha):
        return 0  # no element has arity 0, even on a color cycle
    support = [c for c, e in zip(system.colors, alpha) if e]
    if synchronous:
        return _poly(system, color, sum(alpha), True, support).get(alpha, 0)
    box = _cached(system, ("colt_synt_box", alpha), sum(alpha),  # alpha only
                  lambda n: _solve_synt(system, n, support, alpha))
    return box[color].get(alpha, 0)


def colt_synt_coeff(system: BudSystem, color: str, alpha) -> int:
    """Treelike expressions of the system with the given output color,
    counted by input color type: [y^alpha] f_color of the syntactic
    system."""
    return _coeff(system, color, alpha, synchronous=False)


def colt_sync_coeff(system: BudSystem, color: str, alpha) -> int:
    """Perfect (synchronous) expressions of the system with the given
    output color, counted by input color type: [y^alpha] f_color of the
    synchronous system."""
    return _coeff(system, color, alpha, synchronous=True)


# ---------------------------------------------------------------------------
# counting series of the (synchronous) language


PROBE_BOUND = 5


def _counting_series(system: BudSystem, bound: int, synchronous: bool):
    probe = min(bound, PROBE_BOUND)
    if synchronous:
        unambiguous = system.is_sync_unambiguous(probe)
        series = system.sync_series
    else:
        unambiguous = system.is_unambiguous(probe)
        series = system.synt_series
    if unambiguous:
        terminal = [c in system.terminal for c in system.colors]
        counts = [0] * bound
        for a in system.initial:
            for alpha, c in _poly(system, a, bound, synchronous,
                                  system.terminal).items():
                n = sum(alpha)
                if n <= bound and all(t or not e
                                      for t, e in zip(terminal, alpha)):
                    counts[n - 1] += c
        return counts, "type-recurrence"
    full = series(bound)
    counts = [len(full.support_slice(n)) for n in range(1, bound + 1)]
    return counts, "support"


def lang_counting_series(system: BudSystem, bound: int):
    """a(n) = number of language elements of arity n, for n = 1..bound.

    Uses the syntactic functional system when an unambiguity probe (at
    arity min(bound, PROBE_BOUND)) passes, else falls back to counting
    the support of the full series.  Returns (counts, method)."""
    return _counting_series(system, bound, synchronous=False)


def sync_counting_series(system: BudSystem, bound: int):
    """Like lang_counting_series for the synchronous language."""
    return _counting_series(system, bound, synchronous=True)


# ---------------------------------------------------------------------------
# functional systems as sympy expressions


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


def g_poly(system: BudSystem) -> dict:
    """Rule-generating polynomials: g_a = sum over rules with output a of
    the product of y_c over the rule inputs c."""
    return _in_y(system, _g_polys(system))


def _solved(system: BudSystem, bound: int, synchronous: bool) -> dict:
    return _in_y(system, {
        a: {m: c for m, c in _poly(system, a, bound, synchronous,
                                   system.colors).items()
            if sum(m) <= bound}
        for a in system.colors})


def solve_synt_system(system: BudSystem, bound: int) -> dict:
    """Fixpoint of f_a = y_a + g_a(f_c1, .., f_ck), truncated at total
    degree `bound`.  f_a counts treelike expressions by leaf colors."""
    return _solved(system, bound, synchronous=False)


def solve_sync_system(system: BudSystem, bound: int) -> dict:
    """Fixpoint of f_a = y_a + f_a(g_c1, .., g_ck), truncated at total
    degree `bound`.  f_a counts perfect expressions by leaf colors."""
    return _solved(system, bound, synchronous=True)


def sync_iterates(system: BudSystem, ell: int, bound: int) -> list:
    """Iterates f^(0)_a = y_a, f^(l)_a = y_a + f^(l-1)_a(g_c1, .., g_ck),
    each truncated at total degree `bound` (but for f^(0)): the partial
    sums of the layers of the synchronous system."""
    colors = system.colors
    iterates = [{} for _ in range(ell + 1)]
    for a in colors:
        total: dict = {}
        for f, layer in zip(iterates, _sync_layers(system, a, bound)):
            f[a] = dict(_add(total, layer))
    iterates[0] = {a: _y(system, a, 1) for a in colors}  # not truncated
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
