"""Arity-truncated formal power series on a colored operad.

Coefficients are exact scalars: `int` when the inputs are integral, and
`Fraction` where `compose_inverse` divides (anything with ring semantics
works).  Every operation takes or propagates an arity bound N:
coefficients at arity <= N are exact and higher arities are absent.  The
stars and the composition inverse are built bottom-up from the units of
the input colors: the stars level by level (node count for pre-Lie,
height for composition), the inverse arity slice by arity slice.  All
stop within a certified cap derived from the longest arity-1 chain.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import itemgetter

from .core import (BudgenError, BudOperad, DivergenceError, Operad, colorize,
                   prune, type_of)
from .operads import AsOperad, arity1_chain, degree_bound

_first = itemgetter(0)


class Series:
    """Sparse finite map from operad elements of arity <= bound to scalars.

    The constructor drops zero coefficients and rejects a term above the
    bound.  The engine builds its results through `Series._unchecked`,
    which only drops zeros: every term it makes is within the bound.  A
    series is not changed once made; the products keep the pools of
    their right operand on it.
    """

    __slots__ = ("operad", "bound", "coeffs", "_pooled")

    def __init__(self, operad: Operad, bound: int, coeffs=None):
        if bound < 1:
            raise BudgenError("arity bound must be >= 1")
        self.operad = operad
        self.bound = bound
        cleaned = {}
        for x, c in (coeffs or {}).items():
            if c == 0:
                continue
            if operad.arity(x) > bound:
                raise BudgenError("support element exceeds the arity bound")
            cleaned[x] = c
        self.coeffs = cleaned
        self._pooled = None

    @classmethod
    def _unchecked(cls, operad: Operad, bound: int, coeffs: dict) -> Series:
        """A series of terms the engine built within the bound; zero
        coefficients are dropped, since signed inputs can cancel."""
        f = cls.__new__(cls)
        f.operad = operad
        f.bound = bound
        f.coeffs = {x: c for x, c in coeffs.items() if c != 0}
        f._pooled = None
        return f

    def coeff(self, x):
        return self.coeffs.get(x, 0)

    def support(self):
        return set(self.coeffs)

    def support_slice(self, n: int):
        return {x for x in self.coeffs if self.operad.arity(x) == n}

    def __eq__(self, other):
        return (isinstance(other, Series) and self.bound == other.bound
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "Series(bound=%d, %d terms)" % (self.bound, len(self.coeffs))

    def dumps(self) -> str:
        """Sorted `coeff * element` lines, ordered by (arity, serialization)."""
        key = self.operad.key
        rows = sorted(((key(x), c) for x, c in self.coeffs.items()),
                      key=_first)
        return "\n".join("%s * %s" % (c, k[1]) for k, c in rows)


def characteristic(operad: Operad, elements, bound: int) -> Series:
    return Series(operad, bound, {x: 1 for x in elements})


def units_series(operad: Operad, bound: int, colors=None) -> Series:
    """The units of `colors` (every color by default)."""
    colors = operad.colors if colors is None else colors
    return characteristic(operad, [operad.unit(c) for c in colors], bound)


def add(f: Series, g: Series) -> Series:
    _check_compat(f, g)
    coeffs = dict(f.coeffs)
    for x, c in g.coeffs.items():
        coeffs[x] = coeffs.get(x, 0) + c
    return Series._unchecked(f.operad, f.bound, coeffs)


def sub(f: Series, g: Series) -> Series:
    return add(f, scale(-1, g))


def scale(scalar, f: Series) -> Series:
    return Series._unchecked(f.operad, f.bound,
                             {x: scalar * c for x, c in f.coeffs.items()})


def scalar_product(f: Series, g: Series):
    total = 0
    for x, c in f.coeffs.items():
        d = g.coeffs.get(x)
        if d is not None:
            total = total + c * d
    return total


def _check_compat(f: Series, g: Series) -> None:
    if f.bound != g.bound:
        raise BudgenError("arity bound mismatch")
    if f.operad is not g.operad:
        raise BudgenError("operad mismatch")


def pre_lie(f: Series, g: Series) -> Series:
    """One-position composition product: sums coeff(y)*coeff(z) onto y o_i z."""
    _check_compat(f, g)
    op = f.operad
    pools = _pools_of(g)
    coeffs: dict = {}
    for y, cy in f.coeffs.items():
        room = f.bound + 1 - op.arity(y)  # the largest arity of z
        for i, c in enumerate(op.ins(y), 1):
            pool = pools.get(c)
            if pool is None:
                continue
            for nz, z, cz in pool[0]:
                if nz > room:
                    break
                x = op._compose(y, i, z)
                coeffs[x] = coeffs.get(x, 0) + cy * cz
    return Series._unchecked(op, f.bound, coeffs)


def compose_prod(f: Series, g: Series) -> Series:
    """All-positions composition product: substitutes one g-term per input."""
    _check_compat(f, g)
    op = f.operad
    pools = _pools_of(g)
    coeffs: dict = {}
    for y, cy in f.coeffs.items():
        _substitute(op, y, cy, pools, 1, f.bound, coeffs)
    return Series._unchecked(op, f.bound, coeffs)


def _pools(op: Operad, items, nodes: int = 0, pools=None,
           arity: int | None = None) -> dict:
    """pools[out color][nodes] += items as (arity, elem, coeff), by arity.
    `arity` is the arity of every item, when the caller knows it: the
    items then keep their order, and a pool stays sorted if its earlier
    items have smaller arities."""
    pools = {} if pools is None else pools
    if arity is None:
        rows = sorted(((op.arity(z), z, cz) for z, cz in items), key=_first)
    else:
        rows = [(arity, z, cz) for z, cz in items]
    for row in rows:
        pools.setdefault(op.out(row[1]), {}).setdefault(nodes, []).append(row)
    return pools


def _pools_of(g: Series) -> dict:
    """The pools of g's terms (see `_pools`), built once per series, so
    that the products of many series with one g share them."""
    if g._pooled is None:
        g._pooled = _pools(g.operad, g.coeffs.items())
    return g._pooled


def _substitute(op: Operad, y, weight, pools: dict, lo: int, hi: int,
                acc: dict, nodes: int = 0) -> None:
    """Add weight * (y composed with one pick per input) into acc, for
    every pick of total arity in lo..hi and total node count `nodes`; an
    input of color c picks from pools[c] (see `_pools`), and picks of
    k_1..k_m nodes weigh multinomial(nodes; k_1..k_m)."""
    choices = [pools.get(c) for c in op.ins(y)]
    if not all(choices):
        return
    m = len(choices)
    rest = [(0, 0, 0, 0)] * (m + 1)  # min/max arity and nodes of j..m-1
    for j in range(m - 1, -1, -1):
        lists, (a0, a1, k0, k1) = choices[j], rest[j + 1]
        rest[j] = (a0 + min(p[0][0] for p in lists.values()),
                   a1 + max(p[-1][0] for p in lists.values()),
                   k0 + min(lists), k1 + max(lists))
    picks = [None] * m
    last = m - 1

    def assign(j: int, arity: int, k: int, w) -> None:
        if j == last:  # the last input takes exactly the nodes left
            kz = nodes - k
            items = choices[j].get(kz)
            if items is None:
                return
            if kz:
                w = w * comb(nodes, kz)
            for az, z, cz in items:
                if arity + az > hi:
                    break
                if arity + az < lo:
                    continue
                picks[j] = z
                x = op._full_compose(y, picks)
                acc[x] = acc.get(x, 0) + w * cz
            return
        a0, a1, k0, k1 = rest[j + 1]
        for kz, items in choices[j].items():
            if not nodes - k1 <= k + kz <= nodes - k0:
                continue
            wk = w * comb(k + kz, kz) if kz else w
            for az, z, cz in items:
                if arity + az + a0 > hi:
                    break
                if arity + az + a1 < lo:
                    continue
                picks[j] = z
                assign(j + 1, arity + az, k + kz, wk * cz)

    assign(0, 0, 0, weight)


def pre_lie_star(f: Series, inputs=None) -> Series:
    """Unique solution of x = u + x <- f, truncated at the bound of f and
    composed on the right with the units of `inputs` (default: all), by
    node count: a coefficient sums the increasing labelings of f-trees."""
    op = f.operad
    top = degree_bound(f.bound, arity1_chain(op, f.coeffs, "pre-Lie star"))
    coeffs, pools = {}, {}
    level = units_series(op, f.bound, inputs).coeffs
    for k in range(top + 1):  # levels in between may be empty
        for x, c in level.items():
            coeffs[x] = coeffs.get(x, 0) + c
        _pools(op, level.items(), k, pools)
        level = {}
        for y, cy in f.coeffs.items():
            _substitute(op, y, cy, pools, 1, f.bound, level, k)
        level = {x: c for x, c in level.items() if c != 0}
    if level:
        raise DivergenceError("pre-Lie star did not stop at %d nodes" % top)
    return Series._unchecked(op, f.bound, coeffs)


def compose_star(f: Series, inputs=None) -> Series:
    """Unique solution of x = u + x (.) f, truncated at the bound of f and
    composed on the right with the units of `inputs` (default: all); by
    height, as f^h (.) t = f (.) (f^(h-1) (.) t)."""
    chain = arity1_chain(f.operad, f.coeffs, "composition star")
    cap = degree_bound(f.bound, chain) + 2
    level = total = units_series(f.operad, f.bound, inputs)
    for _ in range(cap):
        level = compose_prod(f, level)
        if not level.coeffs:
            return total
        total = add(total, level)
    raise DivergenceError(
        "composition star did not stabilize within %d iterations" % cap)


def pre_lie_power(f: Series, ell: int) -> Series:
    result = units_series(f.operad, f.bound)
    for _ in range(ell):
        result = pre_lie(result, f)
    return result


def compose_power(f: Series, ell: int) -> Series:
    result = units_series(f.operad, f.bound)
    for _ in range(ell):
        result = compose_prod(result, f)
    return result


def compose_inverse(f: Series, inputs=None) -> Series:
    """Two-sided inverse of f for the composition product, composed on
    the right with the units of `inputs` (default: all).

    Requires the support of f to be the units plus a set S whose arity-1
    part is finitely factorizing, with nonzero unit coefficients.  The
    coefficients are the alternating sums over S-syntax trees, computed
    as the fixpoint of V = u + W (.) V where W carries the negated,
    unit-normalized weights of S.
    """
    op = f.operad
    unit_coeff = {}
    rest = {}
    units = {c: op.unit(c) for c in op.colors}
    unit_set = set(units.values())
    for x, c in f.coeffs.items():
        if x in unit_set:
            unit_coeff[op.out(x)] = c
        else:
            rest[x] = c
    for c in op.colors:
        if c not in unit_coeff:
            raise BudgenError("missing unit coefficient for color %r" % c)
    weights = {}
    for x, c in rest.items():
        denom = 1
        for a in op.ins(x):
            denom = denom * unit_coeff[a]
        weights[x] = _divide(-c, denom)
    chain = arity1_chain(op, weights, "composition inverse")
    current = _graded_tree_sum(op, weights, f.bound, chain, inputs)
    return Series._unchecked(op, f.bound, {x: _divide(c, unit_coeff[op.out(x)])
                                           for x, c in current.items()})


def _divide(c, d):
    """c / d, exact: a Fraction for two ints, and no division when d is 1
    (c * d then keeps the coefficient type of both inputs)."""
    if d == 1:
        return c * d
    if isinstance(c, int) and isinstance(d, int):
        return Fraction(c, d)
    return c / d


def _graded_tree_sum(op: Operad, weights: dict, bound: int, chain: int,
                     inputs=None) -> dict:
    """The coefficients of the solution of V = u + W (.) V, composed on
    the right with the units of `inputs`, arity slice by arity slice.  Slice n starts from those
    units (n = 1) and the roots of arity >= 2 over the finished
    slices; the terms with an arity-1 root are then added by increments,
    which the finitely-factorizing chain bound makes vanish within
    chain + 1 rounds."""
    w1 = [(y, cy) for y, cy in weights.items() if op.arity(y) == 1]
    wide = [(y, cy) for y, cy in weights.items() if op.arity(y) > 1]
    pools: dict = {}  # the finished slices
    v_coeffs: dict = {}
    for n in range(1, bound + 1):
        delta = units_series(op, bound, inputs).coeffs if n == 1 else {}
        for y, cy in wide:
            _substitute(op, y, cy, pools, n, n, delta)
        terms: dict = {}
        for _ in range(chain + 2):
            if not delta:
                break
            for x, c in delta.items():
                terms[x] = terms.get(x, 0) + c
            delta_pools = _pools(op, delta.items(), arity=n)
            delta = {}
            for y, cy in w1:
                _substitute(op, y, cy, delta_pools, n, n, delta)
        else:
            raise DivergenceError("composition inverse did not stabilize")
        terms = {x: c for x, c in terms.items() if c != 0}
        v_coeffs.update(terms)
        _pools(op, terms.items(), 0, pools, n)
    return v_coeffs


# ---------------------------------------------------------------------------
# transports


def col_series(f: Series) -> tuple[Series, BudOperad]:
    """Pushforward along (out, arity, ins); returns the series and its carrier."""
    op = f.operad
    target = BudOperad(AsOperad(), op.colors)
    coeffs: dict = {}
    for x, c in f.coeffs.items():
        y = colorize(op, x)
        coeffs[y] = coeffs.get(y, 0) + c
    return Series(target, f.bound, coeffs), target


def pru_series(f: Series) -> Series:
    """Pushforward along the color-forgetting projection of a bud operad."""
    op = f.operad
    if not isinstance(op, BudOperad):
        raise BudgenError("pruning needs a series over a bud operad")
    coeffs: dict = {}
    for x, c in f.coeffs.items():
        g = prune(op, x)
        coeffs[g] = coeffs.get(g, 0) + c
    return Series(op.ground, f.bound, coeffs)


def colt_table(f: Series) -> dict:
    """Pushforward to (output color, input color type) indices."""
    op = f.operad
    table: dict = {}
    for x, c in f.coeffs.items():
        key = (op.out(x), type_of(op.ins(x), op.colors))
        table[key] = table.get(key, 0) + c
    return table


def zero_one_coefficients(f: Series) -> bool:
    return all(c == 0 or c == 1 for c in f.coeffs.values())


# ---------------------------------------------------------------------------
# noncommutative word series


WORD_MARK = "$"


def word_operad(alphabet) -> BudOperad:
    """Carrier for word series: bud elements (mark, word + mark)."""
    alphabet = tuple(alphabet)
    if WORD_MARK in alphabet:
        raise BudgenError("the letter %r is reserved" % WORD_MARK)
    return BudOperad(AsOperad(), alphabet + (WORD_MARK,))


def mu_encode(word_coeffs: dict, alphabet, bound: int,
              op: BudOperad | None = None) -> Series:
    """Encode a word polynomial as a series; concatenation becomes the
    pre-Lie product on the encoded side.  Pass the same carrier `op` to
    make encoded series composable with each other."""
    if op is None:
        op = word_operad(alphabet)
    coeffs = {}
    for word, c in word_coeffs.items():
        if len(word) + 1 > bound:
            raise BudgenError("word %r too long for bound %d" % (word, bound))
        x = op.element(WORD_MARK, len(word) + 1, tuple(word) + (WORD_MARK,))
        coeffs[x] = coeffs.get(x, 0) + c
    return Series(op, bound, coeffs)
