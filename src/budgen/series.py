"""Arity-truncated formal power series on a colored operad.

Coefficients are exact scalars: `int` when the inputs are integral, and
`Fraction` where `compose_inverse` divides (anything with ring semantics
works).  Every operation takes or propagates an arity bound N:
coefficients at arity <= N are exact and higher arities are absent.  The
stars and the composition inverse are built bottom-up from the units of
the input colors, in two gradings: arity slices for both tree sums, and
height for the composition star.  The tree sum `_graded_tree_sum`
weighs each f-tree by its coefficient product for the inverse of u - f;
for the pre-Lie star its terms also carry their node counts and the
product times the increasing labelings, as a flat triple, or as a map
by node count once an element is reached with a second count, so that
one run yields both series (`pre_lie_star_and_inverse`).  Each slice's
roots of arity >= 2, and its arity-1 increments on the pools of the
terms the last round added, are `_substitute` runs, the enumerator of
every multi-input composition; the rounds' pools together are the
slice's.  `_substitute` composes on the template of its root (see
`core.Operad`), breadth first: the picks before the last grow a list of
partial texts, and the last pick builds the elements.  A system's tree
sum builds in its last slice only the terms that its filter by output
color can keep.  All stop within a certified cap derived from the
longest arity-1 chain.  The derivation graphs of `systems` call the
products' one-term kernels, `_pre_lie_term` and `_substitute`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import itemgetter, mul

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
    their right operand, and the terms of their left operand by first
    input color, on it.
    """

    __slots__ = ("operad", "bound", "coeffs", "_pooled", "_heads")

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
        self._pooled = self._heads = None

    @classmethod
    def _unchecked(cls, operad: Operad, bound: int, coeffs: dict) -> Series:
        """A series of terms the engine built within the bound; zero
        coefficients are dropped, since signed inputs can cancel."""
        f = cls.__new__(cls)
        f.operad = operad
        f.bound = bound
        if 0 in coeffs.values():
            coeffs = {x: c for x, c in coeffs.items() if c != 0}
        f.coeffs = coeffs
        f._pooled = f._heads = None
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
        _pre_lie_term(op, y, cy, pools, f.bound, coeffs)
    return Series._unchecked(op, f.bound, coeffs)


def _pre_lie_term(op: Operad, y, weight, pools: dict, bound: int,
                  acc: dict) -> None:
    """Add weight * cz * (y o_i z) into acc for every input i of y and
    every z of pools[color of i] (see `_pools`) within the bound.

    Each pick is one `_compose`, not a cut of the template of y: its
    callers, the derivation steps, meet about two picks per input that
    has any, and cutting y there cost more than it saved."""
    room = bound + 1 - op.arity(y)  # the largest arity of z
    for i, c in enumerate(op.ins(y), 1):
        for nz, rows in pools.get(c, {}).items():
            if nz > room:
                continue
            for z, cz in rows:
                x = op._compose(y, i, z)
                acc[x] = acc.get(x, 0) + weight * cz


def compose_prod(f: Series, g: Series) -> Series:
    """All-positions composition product: substitutes one g-term per input.
    It visits only the terms of f whose first input color has g-terms."""
    _check_compat(f, g)
    op = f.operad
    pools = _pools_of(g)
    if f._heads is None:
        f._heads = {}
        for y, cy in f.coeffs.items():
            f._heads.setdefault(op.ins(y)[0], []).append((y, cy))
    coeffs: dict = {}
    for c in pools:
        for y, cy in f._heads.get(c, ()):
            _substitute(op, y, cy, pools, 1, f.bound, coeffs)
    return Series._unchecked(op, f.bound, coeffs)


def _pools(op: Operad, rows, pools=None, arity: int | None = None) -> dict:
    """pools[out color][arity] += rows, each (elem, coefficient); a
    labeled coefficient is a labeled weight (see `_substitute`).  `arity`
    is the arity of every row, when the caller knows it."""
    pools = {} if pools is None else pools
    out, arity_of = op.out, op.arity
    for row in rows:
        z = row[0]
        c = out(z)
        buckets = pools.get(c)
        if buckets is None:
            buckets = pools[c] = {}
        a = arity_of(z) if arity is None else arity
        bucket = buckets.get(a)
        if bucket is None:
            buckets[a] = [row]
        else:
            bucket.append(row)
    return pools


def _pools_of(g: Series) -> dict:
    """The pools of g's terms (see `_pools`), built once per series, so
    that the products of many series with one g share them."""
    if g._pooled is None:
        g._pooled = _pools(g.operad, g.coeffs.items())
    return g._pooled


def _substitute(op: Operad, y, weight, pools: dict, lo: int, hi: int,
                acc: dict, labeled: bool = False) -> None:
    """Add weight * (y composed with one pick per input) into acc, for
    every pick of total arity in lo..hi; an input of color c picks from
    pools[c] (see `_pools`).

    The walk is breadth first, not recursive, on the template of y (see
    `Operad`): the picks before the last grow a list of partial states
    (text, input word, arity, weight), a pick z at input j appending
    splice_j(z) and parts[j + 1] to the text and the word of z to the
    word, and the last pick builds the elements.  Each bucket of a pool
    is spliced once per input (`_spliced`), and the last pick runs a
    loop chosen once per call, plain or labeled, so no pick tests the
    operad, the splice, the kind of weight or its position.

    Labeled, the picks and results carry labeled weights: a triple
    (nodes, product, labeled product), or a map {nodes: [product,
    labeled product]} once an element has a second node count.  y adds
    its root node, weighted by `weight`, at the last pick; a pick of kz
    nodes multiplies the products, the labeled one also by comb(k + kz,
    kz) (its labels interleaved with the k before).  Triples stay
    triples, so an element of one node count allocates no map."""
    choices = [pools.get(c) for c in op.ins(y)]
    if not all(choices):
        return
    m = len(choices)
    rest = [(0, 0)] * (m + 1)  # min and max total arity of picks j..m-1
    for j in range(m - 1, -1, -1):
        a0, a1 = rest[j + 1]
        rest[j] = (a0 + min(choices[j]), a1 + max(choices[j]))
    if rest[0][0] > hi or rest[0][1] < lo:
        return  # no pick tuple fits, so no template is needed
    bud = isinstance(op, BudOperad)
    parts, splices = op._template(y)
    join = _join if labeled else mul
    states = [(parts[0], (), 0, (0, weight, weight) if labeled else weight)]
    for j in range(m):
        buckets, splice, tail = choices[j], splices[j], parts[j + 1]
        a0, a1 = rest[j + 1]
        reads, got = [], {}  # (state, spliced rows); arity -> spliced rows
        for text, word, arity, w in states:
            for a in range(max(lo - arity - a1, 1), hi - arity - a0 + 1):
                rows = got.get(a)
                if rows is None:
                    rows = got[a] = (_spliced(buckets[a], splice, tail, bud)
                                     if a in buckets else ())
                if rows:
                    reads.append((text, word, arity + a, w, rows))
        if j < m - 1:
            states = [(text + t, word + u, arity, join(w, cz))
                      for text, word, arity, w, rows in reads
                      for t, u, cz in rows]
    # the last pick; on a ground operad, whose elements are the texts
    # alone, into a map keyed as on a bud operad first
    out = acc if bud else {}
    root = y[0] if bud else None
    if not labeled:
        for text, word, _, w, rows in reads:
            for t, u, cz in rows:
                x = (root, text + t, word + u)
                out[x] = out.get(x, 0) + w * cz
    else:
        for text, word, _, w, rows in reads:
            tupled = type(w) is tuple
            k, p, h = w if tupled else (0, 0, 0)
            for t, u, cz in rows:
                x = (root, text + t, word + u)
                if not tupled or type(cz) is not tuple:
                    _graft_weights(w, cz, 1, _own_map(out, x))
                    continue
                kz, pz, hz = cz
                key, pp, hh = k + kz + 1, p * pz, h * hz * comb(k + kz, kz)
                old = out.get(x)
                if old is None:
                    out[x] = (key, pp, hh)
                elif type(old) is tuple and old[0] == key:
                    out[x] = (key, old[1] + pp, old[2] + hh)
                else:
                    _add_labeled(out, x, (key, pp, hh))
    if not bud:
        for (_, x, _), w in out.items():
            if labeled:
                _add_labeled(acc, x, w)
            else:
                acc[x] = acc.get(x, 0) + w


def _spliced(rows, splice, part, bud: bool) -> list:
    """The pool rows (z, cz) at one input of a template (see
    `_substitute`) as (splice(z) + part, input word of z, cz)."""
    if not bud:  # z as the bud element (None, z, ()), with no input word
        rows = [((None, z, ()), cz) for z, cz in rows]
    if splice is None:
        return [(z[1] + part, z[2], cz) for z, cz in rows]
    return [(splice(z[1]) + part, z[2], cz) for z, cz in rows]


def _join(w, wz):
    """The labeled weight w of the picks so far grafted with one more
    pick, wz (see `_substitute`)."""
    if type(w) is tuple and type(wz) is tuple:
        k, p, h = w
        kz, pz, hz = wz
        return (k + kz, p * pz, h * hz * comb(k + kz, kz))
    return _graft_weights(w, wz, 0)


def _graft_weights(w, wz, root: int, out: dict | None = None) -> dict:
    """Add to the map `out` (a new one by default) the labeled weights w
    of the picks so far grafted with those of one more pick, wz (see
    `_substitute`): the node counts add, plus `root` (1 for the root of
    a finished tree), and the products multiply, the labeled ones also
    by comb(k + kz, kz)."""
    out = {} if out is None else out
    rows = wz.items() if type(wz) is dict else ((wz[0], wz[1:]),)
    for k, (p, h) in w.items() if type(w) is dict else ((w[0], w[1:]),):
        for kz, (pz, hz) in rows:
            key = k + kz + root
            pp, hh = p * pz, h * hz * comb(k + kz, kz)
            cell = out.get(key)
            if cell is None:
                out[key] = [pp, hh]
            else:
                cell[0] += pp
                cell[1] += hh
    return out


_NO_PICK = (0, 1, 1)  # the labeled weight of no picks


def _add_labeled(acc: dict, x, w) -> None:
    """acc[x] += the labeled weight w (see `_substitute`)."""
    old = acc.get(x)
    if old is None:
        acc[x] = w
    elif type(old) is tuple and type(w) is tuple and old[0] == w[0]:
        acc[x] = (w[0], old[1] + w[1], old[2] + w[2])
    else:
        _graft_weights(_NO_PICK, w, 0, _own_map(acc, x))


def _own_map(acc: dict, x) -> dict:
    """acc[x] as a labeled map that acc owns, so that weights can be
    added to it in place: a triple or a missing entry becomes one."""
    old = acc.get(x)
    if type(old) is not dict:
        old = acc[x] = {} if old is None else {old[0]: [old[1], old[2]]}
    return old


def pre_lie_star(f: Series, inputs=None) -> Series:
    """Unique solution of x = u + x <- f, truncated at the bound of f and
    composed on the right with the units of `inputs` (default: all): a
    coefficient sums the increasing labelings of f-trees."""
    return pre_lie_star_and_inverse(f, inputs)[0]


def pre_lie_star_and_inverse(f: Series, inputs=None) -> tuple[Series, Series]:
    """(pre_lie_star(f, inputs), compose_inverse(u - f, inputs)) from one
    run over the f-trees: the inverse of u - f weighs a tree by the
    product of its coefficients in f, and the star by that product times
    the tree's increasing labelings."""
    op = f.operad
    chain = arity1_chain(op, f.coeffs, "pre-Lie star")
    star, inverse = _graded_tree_sum(op, f.coeffs, f.bound, chain, inputs,
                                     labeled=True)
    return (Series._unchecked(op, f.bound, star),
            Series._unchecked(op, f.bound, inverse))


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
    units = {op.unit(c): c for c in op.colors}
    unit_coeff = {units[x]: c for x, c in f.coeffs.items() if x in units}
    for c in op.colors:
        if c not in unit_coeff:
            raise BudgenError("missing unit coefficient for color %r" % c)
    weights = {}
    for x, c in f.coeffs.items():
        if x not in units:
            denom = 1
            for a in op.ins(x):
                denom = denom * unit_coeff[a]
            weights[x] = _divide(-c, denom)
    chain = arity1_chain(op, weights, "composition inverse")
    current = _graded_tree_sum(op, weights, f.bound, chain, inputs)
    # dividing by the int 1 would change neither a value nor its type
    if any(type(c) is not int or c != 1 for c in unit_coeff.values()):
        current = {x: _divide(c, unit_coeff[op.out(x)])
                   for x, c in current.items()}
    return Series._unchecked(op, f.bound, current)


def _divide(c, d):
    """c / d, exact: a Fraction for two ints, and no division when d is 1
    (c * d then keeps the coefficient type of both inputs)."""
    if d == 1:
        return c * d
    if isinstance(c, int) and isinstance(d, int):
        return Fraction(c, d)
    return c / d


def _graded_tree_sum(op: Operad, weights: dict, bound: int, chain: int,
                     inputs=None, labeled: bool = False, outputs=None):
    """The sums over the trees of V = u + W (.) V, composed on the right
    with the units of `inputs`, arity slice by arity slice: {x: sum of
    the weight products of the trees of x}; labeled, the pair of {x: sum
    of weight product * increasing labelings} and that plain dict.

    Slice n starts from those units (n = 1) and the roots of arity >= 2
    over the finished slices; the terms with an arity-1 root are then
    added by increments, each `_substitute` of the arity-1 weights on
    the pools of the terms the last round added, which the
    finitely-factorizing chain bound makes vanish within chain + 1
    rounds.  Labeled terms are {x: labeled weight} (see `_substitute`);
    this sum only seeds, merges and sums them.

    No slice reads the last one, so its pools are not assembled.  Given
    `outputs`, the output colors that the caller keeps, the last slice
    builds only the roots and arity-1 increments whose output color
    reaches one of them through arity-1 weights: the terms of any other
    color are never picks, and the caller drops them."""
    unary: dict = {}  # input color -> the arity-1 weights
    up: dict = {}  # output color -> the input colors of its arity-1 weights
    wide = []
    for y, cy in weights.items():
        if op.arity(y) == 1:
            unary.setdefault(op.ins(y)[0], []).append((y, cy))
            up.setdefault(op.out(y), []).append(op.ins(y)[0])
        else:
            wide.append((y, cy))
    pools: dict = {}  # the finished slices
    sums: dict = {}  # x -> sum of the weight products
    labelings: dict = {}  # x -> sum of weight product * labelings
    for n in range(1, bound + 1):
        if n == bound and outputs is not None:
            # the last slice's terms are never picks: build only those that
            # arity-1 weights still lead to an output color
            keep, todo = set(outputs), list(outputs)
            for c in todo:  # todo grows while it is read
                more = set(up.get(c, ())) - keep
                keep |= more
                todo += more
            wide = [(y, cy) for y, cy in wide if op.out(y) in keep]
            unary = {c: [(y, cy) for y, cy in ys if op.out(y) in keep]
                     for c, ys in unary.items()}
        delta = units_series(op, bound, inputs).coeffs if n == 1 else {}
        if labeled:
            delta = {x: (0, 1, 1) for x in delta}
        for y, cy in wide:
            _substitute(op, y, cy, pools, n, n, delta, labeled)
        terms: dict = {}
        rounds = []  # the pools of each increment round's terms
        reached = 0  # the terms of all rounds, an element once per round
        for _ in range(chain + 2):
            if not delta:
                break
            if not terms:
                terms = delta
            elif labeled:
                for x, w in delta.items():
                    _add_labeled(terms, x, w)
            else:
                for x, c in delta.items():
                    terms[x] = terms.get(x, 0) + c
            reached += len(delta)
            last, delta = delta, {}
            if not unary:
                continue
            picks = _pools(op, last.items(), None, n)
            rounds.append(picks)
            for c in picks:
                for y, cy in unary.get(c, ()):
                    _substitute(op, y, cy, picks, n, n, delta, labeled)
        else:
            raise DivergenceError("%s did not stabilize"
                                  % ("pre-Lie star" if labeled
                                     else "composition inverse"))
        rows = (terms.items() if labeled
                else [(x, c) for x, c in terms.items() if c != 0])
        if n == bound:
            pass  # nothing reads the last slice's pools
        elif rounds and len(rows) == reached:
            # each element came from one round, with a nonzero weight: the
            # rounds' pools, one after the other, are the slice's
            for picks in rounds:
                for c, buckets in picks.items():
                    pools.setdefault(c, {}).setdefault(n, []).extend(
                        buckets[n])
        else:
            _pools(op, rows, pools, n)
        if not labeled:
            sums.update(rows)
            continue
        for x, w in terms.items():
            if type(w) is tuple:
                _, p_sum, h_sum = w
            else:
                p_sum = h_sum = 0
                for p, h in w.values():
                    p_sum += p
                    h_sum += h
            if p_sum != 0:
                sums[x] = p_sum
            if h_sum != 0:
                labelings[x] = h_sum
    return (labelings, sums) if labeled else sums


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
    types: dict = {}
    for x, c in f.coeffs.items():
        word = op.ins(x)
        alpha = types.get(word)
        if alpha is None:
            alpha = types[word] = type_of(word, op.colors)
        key = (op.out(x), alpha)
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
