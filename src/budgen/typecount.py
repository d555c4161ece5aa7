"""Counting by color type: functional systems on truncated polynomials.

The color type of a bud element is the vector counting each color among
its inputs.  Pushed to (output color, type) indices, the treelike and
perfect expression counts of a bud system are the coefficients of two
systems of polynomial equations in one variable y_c per color,

    f_a = y_a + g_a(f_c1, .., f_ck)    (syntactic: treelike expressions)
    f_a = y_a + f_a(g_c1, .., g_ck)    (synchronous: perfect expressions)

where g_a counts the rules of output color a by input type.  Both are
solved on integer polynomials truncated at a total degree, over the
variables a request needs: setting y_c = 0 commutes with composition,
and so does setting every terminal y_c to one variable t, which keeps
total degree, so the counting series are solved in t alone.  One
coefficient is solved in the box of its type (componentwise), since a
tree's type bounds its subtrees' types.  Both systems read one rule
plan from the rule counts: the arity-1 rules, the wider rules, and the
products f^tau they need, each built by first-color split as f_i *
f^rest.  The syntactic system is solved degree slice by degree slice:
the rules of arity >= 2 over the finished slices, then arity-1
increments.  The synchronous one sums its layers from the leaves, y,
g(y), g(g(y)), .., until the whole vector is empty; each layer forms the
plan's products of the one below.
While solving, a monomial is one packed int (see _packing): its exponents
are its byte digits and its total degree the digit above them, so a
product of monomials is an integer addition and the truncation one
comparison.  The solved systems are decoded to exponent tuples once, at
the end, and returned as IntPoly values, which need no sympy; as_sympy()
gives the sympy expression.  A count is not decoded: the count of arity
n is the coefficient of t^n, read off the degree digit.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from types import MappingProxyType

from .core import BudgenError, DivergenceError
from .operads import arity1_chain, degree_bound
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
        # one color -> index map serves every rule, so that a type costs
        # O(k + |u|) for k colors and a rule word u
        index = {c: j for j, c in enumerate(system.colors)}
        table: dict = {}
        for out, _, u in system.rules:
            alpha = [0] * len(index)
            for c in u:
                j = index.get(c)
                if j is None:
                    raise BudgenError("color %r not declared" % c)
                alpha[j] += 1
            k = (out, tuple(alpha))
            table[k] = table.get(k, 0) + 1
        system._cache[key] = table
    return system._cache[key]


# ---------------------------------------------------------------------------
# truncated integer polynomials: dicts from packed monomials to ints while
# solving, returned as IntPoly on exponent tuples


class IntPoly:
    """An exact polynomial with integer coefficients: a frozen map from
    exponent tuples over `variables` (names such as y_1 or q_2) to
    nonzero ints.  It equals another IntPoly with the same variables and
    terms, and an int when it is that constant."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms: dict):
        self.variables = tuple(variables)
        self.terms = MappingProxyType({m: c for m, c in terms.items() if c})

    def coeff(self, monomial) -> int:
        return self.terms.get(tuple(monomial), 0)

    def __eq__(self, other):
        if isinstance(other, int):
            constant = {(0,) * len(self.variables): other} if other else {}
            return self.terms == constant
        if isinstance(other, IntPoly):
            return (self.variables == other.variables
                    and self.terms == other.terms)
        return NotImplemented

    def __str__(self) -> str:
        """Terms by descending degree, e.g. `y_1**2 + 2*y_1*y_2`; a
        constant prints as its integer."""
        parts = []
        for m, c in sorted(self.terms.items(), reverse=True,
                           key=lambda t: (sum(t[0]), t[0])):
            factors = [v if e == 1 else "%s**%d" % (v, e)
                       for v, e in zip(self.variables, m) if e]
            if c != 1 or not factors:
                factors.insert(0, str(c))
            parts.append("*".join(factors))
        return " + ".join(parts) or "0"

    def __repr__(self) -> str:
        return "IntPoly(%r, variables=%r)" % (str(self), self.variables)

    def as_sympy(self):
        """The sympy expression of this polynomial; the one place that
        imports sympy."""
        import sympy as sp
        syms = [sp.Symbol(v) for v in self.variables]
        return sp.Add(*[sp.Mul(sp.Integer(c),
                               *[s ** e for s, e in zip(syms, m) if e])
                        for m, c in self.terms.items()])

    # sympy's protocol: sympify (and so sp.Poly, sp.expand and comparisons
    # with sympy expressions) calls _sympy_, and a caller that passes
    # symbols to sp.Poly reads free_symbols first, as the counting checks
    # of perfbench/checks.py do
    def _sympy_(self):
        return self.as_sympy()

    @property
    def free_symbols(self) -> set:
        return self.as_sympy().free_symbols


def _packing(k: int, bound: int):
    """(pack, unpack, top): monomials in k variables of total degree <=
    bound as single ints, the Kronecker substitution on byte digits.
    Each digit is w bytes wide, w the least width with 256**w > max(bound,
    1): digit c holds the exponent of variable c, and the digit at top =
    256**(w * k) holds the total degree, so a product of monomials is a
    sum of ints and "degree > bound" is the one test m >= (bound + 1) *
    top.  A digit carries only when an exponent passes the bound, that is
    on a degree above it, which the test drops: every kept monomial
    unpacks exactly, by one to_bytes call and a slice, or by a shift per
    digit when w > 1 (a bound above 255)."""
    w = (max(bound, 1).bit_length() + 7) // 8
    shifts = range(0, 8 * w * k, 8 * w)
    top = 1 << 8 * w * k
    mask = (1 << 8 * w) - 1

    def pack(m) -> int:
        return sum(e << s for e, s in zip(m, shifts)) + sum(m) * top

    def unpack(m: int) -> tuple:
        if w == 1:
            return tuple(m.to_bytes(k + 1, "little")[:k])
        return tuple([m >> s & mask for s in shifts])

    return pack, unpack, top


def _boxed(pack, box):
    """The packed monomials <= box componentwise, or None for no box."""
    if box is None:
        return None
    return frozenset(map(pack, itertools.product(*(range(e + 1)
                                                   for e in box))))


def _unpacked(colors, polys, unpack) -> dict:
    """polys[i] of colors[i], on packed monomials, as {a: exponent
    tuples}."""
    return {a: {unpack(m): c for m, c in p.items()}
            for a, p in zip(colors, polys)}


def _mul(p: dict, q: dict, limit: int, box=None) -> dict:
    """p * q on packed monomials, dropping those >= limit, (d + 1) * top
    for a total degree above d, and, given a box of packed monomials,
    those outside it.  q sorted by key is sorted by degree first, so the
    row of m1 ends at the first m2 >= limit - m1."""
    out: dict = {}
    q_items = sorted(q.items())
    for m1, c1 in p.items():
        room = limit - m1
        for m2, c2 in q_items:
            if m2 >= room:
                break
            m = m1 + m2
            if box is None or m in box:
                out[m] = out.get(m, 0) + c1 * c2
    return out


def _add(p: dict, q: dict, scale: int = 1) -> dict:
    """p += scale * q, in place."""
    for m, c in q.items():
        p[m] = p.get(m, 0) + scale * c
    return p


# ---------------------------------------------------------------------------
# the two functional systems, by color type.  Both take `leaves`, {color
# index: the packed monomial of its y_c} for the colors whose y_c is kept
# (the others are set to 0, which commutes with composition), the top of
# their packing, and an optional packed box: a tree's type bounds its
# subtrees' types componentwise, so the types <= box are solved from
# types <= box.  Both return one packed polynomial per color index.


def _plan(system: BudSystem, bound: int):
    """The rule plan both systems read, from chi_table, each input type
    resolved to a slot once: slot c < k is the type of one input of color
    c (f_c itself), slot k + s that of split[s].  `wide` lists (i, slot,
    n) for the n rules of output color i and arity 2..bound of the
    slot's type, `linear[j]` lists (i, n) for the n arity-1 rules from
    color j to color i, and split[s] is (i, rest, degree): f^tau = f_i *
    f^rest with i the first color of tau and rest a slot of that total
    degree, after the entries it reads."""
    k = len(system.colors)
    index = {a: i for i, a in enumerate(system.colors)}
    slots: dict = {}  # type of total degree >= 2 -> its slot
    wide, linear, split = [], [[] for _ in index], []
    for (a, tau), n in chi_table(system).items():
        if sum(tau) == 1:
            linear[tau.index(1)].append((index[a], n))
        elif sum(tau) <= bound:
            chain, t = [], tau
            while sum(t) > 1 and t not in slots:
                i = next(i for i, e in enumerate(t) if e)
                rest = t[:i] + (t[i] - 1,) + t[i + 1:]
                chain.append((t, i, rest))
                t = rest
            for t, i, rest in reversed(chain):
                slots[t] = k + len(split)
                split.append((i, slots[rest] if sum(rest) > 1
                              else rest.index(1), sum(rest)))
            wide.append((index[a], slots[tau], n))
    return wide, linear, split


def _unit(k: int, i: int) -> tuple:
    """The type of one input of color i, among k colors."""
    return (0,) * i + (1,) + (0,) * (k - 1 - i)


def _solve_synt(system: BudSystem, bound: int, leaves, top,
                box=None) -> list:
    """The fixpoint of f_a = y_a + g_a(f_c1, .., f_ck): the treelike
    expressions by output color and input type, degree slice by degree
    slice.  A product of j >= 2 of the f_c takes only slices below
    d into its slice d, so slice d of f starts from y and the rules of
    arity >= 2 over the finished slices; the arity-1 rules then add
    increments, which vanish within chain + 1 rounds; an increment holds
    only the colors it reaches."""
    chain = arity1_chain(system.bud, system.rules, "functional system")
    wide, linear, split = _plan(system, bound)
    k = len(system.colors)
    # slices[slot][d] is slice d of the type of the slot (see _plan), on
    # packed monomials; those of the slot of color c are f_c's own
    slices = [[{}] for _ in range(k + len(split))]
    f = slices[:k]
    for d in range(1, bound + 1):
        for s, (i, rest, degree) in enumerate(split, k):
            acc: dict = {}
            for j in range(1, d - degree + 1):
                p, q = f[i][j], slices[rest][d - j]
                if p and q:
                    _add(acc, _mul(p, q, (d + 1) * top, box))
            slices[s].append(acc)
        delta: dict = {}  # color index -> a nonzero increment
        if d == 1:
            delta = {i: {m: 1} for i, m in leaves.items()}
        for i, s, n in wide:
            if slices[s][d]:
                _add(delta.setdefault(i, {}), slices[s][d], n)
        new: dict = {}
        for _ in range(chain + 2):
            if not delta:
                break
            nxt: dict = {}
            for j, p in delta.items():
                _add(new.setdefault(j, {}), p)
                for i, n in linear[j]:
                    _add(nxt.setdefault(i, {}), p, n)
            delta = nxt
        else:
            raise DivergenceError("functional system did not stabilize")
        for i in range(k):
            f[i].append(new.get(i, {}))
    return [{m: c for s in p for m, c in s.items()} for p in f]


def _sync_layers(system: BudSystem, bound: int, leaves, top, box=None):
    """L^0_a = y_a, L^(h+1)_a = g_a(L^h_c1, .., L^h_ck), built from the
    leaves: the perfect expressions of height h by output color and input
    type, each layer as {color index: its nonzero polynomial}.  Each layer
    forms the products L^tau of the plan by first-color split, L^tau = L_i
    * L^rest, then sums the rules over them, the arity-1 rules only out
    of the colors the layer holds."""
    wide, linear, split = _plan(system, bound)
    k = len(system.colors)
    limit = (bound + 1) * top
    layer = {i: {m: 1} for i, m in leaves.items() if bound >= 1}
    while True:
        yield layer
        prod = dict(layer)  # slot (see _plan) -> its nonzero product
        for s, (i, rest, _) in enumerate(split, k):
            p, q = prod.get(i), prod.get(rest)
            if p and q:
                m = _mul(p, q, limit, box)
                if m:
                    prod[s] = m
        nxt: dict = {}
        for i, s, n in wide:
            if s in prod:
                _add(nxt.setdefault(i, {}), prod[s], n)
        for j, p in layer.items():
            for i, n in linear[j]:
                _add(nxt.setdefault(i, {}), p, n)
        layer = nxt


def _solve_sync(system: BudSystem, bound: int, leaves, top,
                box=None) -> list:
    """The fixpoint of f_a = y_a + f_a(g_c1, .., g_ck): the sum of the
    layers up to the first empty one."""
    # bound 0 still takes one layer to see the zero truncation
    chain = arity1_chain(system.bud, system.rules, "functional system")
    cap = degree_bound(max(bound, 1), chain) + 2
    f = [{} for _ in system.colors]
    for layer, _ in zip(_sync_layers(system, bound, leaves, top, box),
                        range(cap)):
        if not layer:
            return f
        for i, p in layer.items():
            _add(f[i], p)
    raise DivergenceError("functional system did not stabilize")


def _solve(system: BudSystem, bound: int, synchronous: bool,
           box=None) -> dict:
    """{a: f_a} on exponent tuples, one variable y_c per color; given a
    box, only the types inside it, with y_c = 0 for the colors it
    excludes."""
    colors = system.colors
    k = len(colors)
    pack, unpack, top = _packing(k, bound)
    leaves = {i: pack(_unit(k, i)) for i in range(k)
              if box is None or box[i]}
    solve = _solve_sync if synchronous else _solve_synt
    return _unpacked(colors, solve(system, bound, leaves, top,
                                   _boxed(pack, box)), unpack)


def _table(system: BudSystem, bound: int, synchronous: bool,
           box=None) -> dict:
    """{a: f_a} at a bound of at least `bound`, exact on the types inside
    the box, cached per system.  Without a box, a table solved at a
    larger bound serves every smaller one.  Of the box tables only the
    latest is kept, per kind: it serves every type inside its box (whose
    support and degree it covers), so a sweep over many types keeps one
    table."""
    kind = "colt_sync" if synchronous else "colt_synt"
    if box is not None:
        hit = system._cache.get((kind, "box"))
        if hit is None or any(a > b for a, b in zip(box, hit[0])):
            hit = system._cache[kind, "box"] = (
                box, _solve(system, bound, synchronous, box))
        return hit[1]
    hit = system._cache.get(kind)
    if hit is None or hit[0] < bound:
        hit = system._cache[kind] = (bound, _solve(system, bound, synchronous))
    return hit[1]


def _coeff(system: BudSystem, color: str, alpha, synchronous: bool) -> int:
    try:
        alpha = tuple(map(operator.index, alpha))
    except TypeError:
        raise BudgenError("type entries must be integers") from None
    if len(alpha) != len(system.colors):
        raise BudgenError("type length must match the color count")
    if color not in system.colors:
        raise BudgenError("unknown color %r" % color)
    if not any(alpha) or min(alpha) < 0:
        # no element has arity 0, even on a color cycle, nor a negative
        # count of a color
        return 0
    table = _table(system, sum(alpha), synchronous, alpha)
    return table[color].get(alpha, 0)


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


def _counts(system: BudSystem, bound: int, synchronous: bool) -> list:
    """[a(1), .., a(bound)] from the functional system in one variable t:
    every terminal y_c is set to t, a map that keeps total degree and so
    commutes with the solvers' products and truncations.  A count reads
    the degree digit of t^n, with no unpacking.  Counts at a larger bound
    serve every smaller one, cached per system and kind."""
    key = "count_sync" if synchronous else "count_synt"
    counts = system._cache.get(key)
    if counts is None or len(counts) < bound:
        pack, _, top = _packing(1, bound)
        t = pack((1,))
        solve = _solve_sync if synchronous else _solve_synt
        f = solve(system, bound, {i: t for i, a in enumerate(system.colors)
                                  if a in system.terminal}, top)
        counts = system._cache[key] = [0] * bound
        for i, a in enumerate(system.colors):
            if a in system.initial:
                for m, c in f[i].items():
                    counts[m // top - 1] += c
    return counts[:bound]


def _counting_series(system: BudSystem, bound: int, synchronous: bool):
    probe = min(bound, PROBE_BOUND)
    if synchronous:
        unambiguous = system.is_sync_unambiguous(probe)
        series = system.sync_series
    else:
        unambiguous = system.is_unambiguous(probe)
        series = system.synt_series
    if unambiguous:
        return _counts(system, bound, synchronous), "type-recurrence"
    full = series(bound)
    arities = Counter(map(full.operad.arity, full.coeffs))
    return [arities[n] for n in range(1, bound + 1)], "support"


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
# functional systems as IntPoly values in the y_c


def _in_y(system: BudSystem, polys: dict) -> dict:
    """{color: integer polynomial} as {color: IntPoly in the y_c}."""
    ys = ["y_%s" % c for c in system.colors]
    return {c: IntPoly(ys, polys[c]) for c in system.colors}


def g_poly(system: BudSystem) -> dict:
    """Rule-generating polynomials: g_a = sum over rules with output a of
    the product of y_c over the rule inputs c."""
    chi = chi_table(system)
    return _in_y(system, {a: {tau: n for (out, tau), n in chi.items()
                              if out == a} for a in system.colors})


def _solved(system: BudSystem, bound: int, synchronous: bool) -> dict:
    table = _table(system, bound, synchronous)
    return _in_y(system, {a: {m: c for m, c in p.items() if sum(m) <= bound}
                          for a, p in table.items()})


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
    if ell < 0:
        raise BudgenError("iterate index must be >= 0")
    colors = system.colors
    k = len(colors)
    pack, unpack, top = _packing(k, bound)
    leaves = {i: pack(_unit(k, i)) for i in range(k)}
    total = [{} for _ in colors]
    iterates = []
    for layer, _ in zip(_sync_layers(system, bound, leaves, top),
                        range(ell + 1)):
        for i, p in layer.items():
            _add(total[i], p)
        iterates.append(_unpacked(colors, total, unpack))
    # f^(0) = y is not truncated
    iterates[0] = {a: {_unit(k, i): 1} for i, a in enumerate(colors)}
    return [_in_y(system, f) for f in iterates]


# ---------------------------------------------------------------------------
# refined counting of perfect trees, all arities at once


def refined_perfect(bound: int) -> dict:
    """Perfect-tree polynomials s_n in q_2..q_n: the coefficient of a
    monomial prod q_b^(d_b) counts perfect trees with n leaves built by
    repeatedly substituting, at every leaf at once, corollas whose last
    layer uses d_b corollas of arity b.  Returns {n: IntPoly}.

    s_n sums, over the last layers (d_2, .., d_bound) with n leaves, the
    arrangements j! / prod d_b! of the layer times q^d times s_j, j = sum
    of d_b the corollas of the layer.  The layers of every n <= bound are
    built once, by coin change over the arities, each with its
    arrangements, and the monomials are packed ints (exponents below
    bound, so no digit carries) until s_n is returned."""
    if bound < 1:
        raise BudgenError("arity bound must be >= 1")
    pack, unpack, _ = _packing(bound - 1, bound)
    # layers[n]: (packed layer, corolla count j, arrangements, largest
    # arity b, its d_b) for each last layer with n leaves; coin change
    # over b, a corolla of arity b multiplying the arrangements by (j +
    # 1) / (d_b + 1)
    layers: list = [[] for _ in range(bound + 1)]
    layers[0].append((0, 0, 1, 0, 0))
    for b in range(2, bound + 1):
        q_b = pack([int(c == b) for c in range(2, bound + 1)])
        for n in range(b, bound + 1):
            for v, j, weight, last, d in layers[n - b]:
                d = d + 1 if last == b else 1
                layers[n].append((v + q_b, j + 1, weight * (j + 1) // d,
                                  b, d))
    s = {1: {0: 1}}
    for n in range(2, bound + 1):
        total: dict = {}
        for v, j, weight, _, _ in layers[n]:
            for m, c in s[j].items():
                total[v + m] = total.get(v + m, 0) + weight * c
        s[n] = total
    q = ["q_%d" % b for b in range(2, bound + 1)]
    return {n: IntPoly(q, {unpack(m): c for m, c in poly.items()})
            for n, poly in s.items()}


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
