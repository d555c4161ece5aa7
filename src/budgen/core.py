"""Colored-operad contract, the bud construction, and the shared morphisms.

A colored operad is a graded set of elements, each with one output color
and a nonempty word of input colors.  The partial composition x o_i y is
defined exactly when the output color of y equals the i-th input color
of x.  All values here are immutable and hashable; element identity is
derived from a canonical string serialization.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

MONO = "1"  # color token used by every monochrome operad
_first = itemgetter(0)


class BudgenError(Exception):
    """Base class for all library errors."""


class PositionError(BudgenError):
    """Composition position out of range."""


class CompositionError(BudgenError):
    """Composition undefined: output/input color mismatch."""


class DivergenceError(BudgenError):
    """A fixpoint iteration exceeded its certified degree cap."""


class NotGeneratedError(BudgenError):
    """The element is not in the suboperad generated by the given set."""


class Operad:
    """Behavioral contract shared by every concrete operad.

    Subclasses define arity, output/input colors, partial composition,
    and the unit `UNIT` of their one color (a colored subclass defines
    `unit` instead).  Elements are plain hashable Python values.  Unless
    a subclass defines its own, `dumps` is `str`, and `loads` returns
    the text once the subclass's `validate` accepts it.  A subclass
    implements the unchecked `_compose`; the public `compose` and
    `full_compose` check positions and colors before calling it, and the
    one-position product calls it directly where it has matched colors.

    The engine's multi-input compositions use templates (`_template`)
    instead.  The template of an element x of arity m is a pair (parts,
    splices): the m + 1 parts of x around its inputs and one splice per
    input, such that

        x o (z_1, .., z_m) = parts[0] + splice_1(z_1) + parts[1] + ..
                                      + splice_m(z_m) + parts[m],

    where `+` joins texts (adds ints on `AsOperad`) and a splice of None
    is the identity.  The splices are the identity on `AsOperad`,
    `MagOperad` and `MotzOperad`; a unit `!c` becomes a leaf on
    `FreeOperad`; on `ASchrOperad` a root merges into the parent of its
    leaf when their labels agree; and on `DiasOperad` the letters rise
    to the pivot letter of the input.  `_compose` and `_full_compose`
    never use templates: they stay the reference that templates are
    tested against.
    """

    colors: tuple[str, ...] = (MONO,)

    def arity(self, x) -> int:
        raise NotImplementedError

    def out(self, x) -> str:
        return self.colors[0]

    def ins(self, x) -> tuple[str, ...]:
        return (self.colors[0],) * self.arity(x)

    def unit(self, c: str):
        if c not in self.colors:
            raise BudgenError("unknown color %r" % c)
        return self.UNIT

    def compose(self, x, i: int, y):
        """Partial composition x o_i y (1-based position)."""
        self._check_colors(x, i, y)
        return self._compose(x, i, y)

    def _compose(self, x, i: int, y):
        """x o_i y for a position and colors the caller has already matched."""
        raise NotImplementedError

    def _template(self, x):
        """(parts, splices): the template of x (see the class docstring)."""
        raise NotImplementedError

    def full_compose(self, x, ys: Sequence):
        """Complete composition: substitute ys[j] at every input of x.

        Equals the right-to-left fold (..((x o_n y_n) o_{n-1} y_{n-1})..) o_1 y_1.
        """
        n = self.arity(x)
        if len(ys) != n:
            raise CompositionError(
                "complete composition needs %d arguments, got %d" % (n, len(ys)))
        ins = self.ins(x)
        for i in range(n, 0, -1):
            if ins[i - 1] != self.out(ys[i - 1]):
                raise self._color_error(i, ins[i - 1], ys[i - 1])
        return self._full_compose(x, ys)

    def _full_compose(self, x, ys: Sequence):
        """full_compose for arguments the caller has already matched."""
        result = x
        for i in range(len(ys), 0, -1):
            result = self._compose(result, i, ys[i - 1])
        return result

    def dumps(self, x) -> str:
        return str(x)

    def loads(self, text: str):
        self.validate(text)
        return text

    def key(self, x) -> tuple[int, str]:
        """Sort key: (arity, canonical serialization).  It is not memoized:
        the tree grounds' elements are their own texts, and the other
        grounds print with `str` or a short format.  `_ordered` sorts in
        this order without a key per element; the two must stay in step."""
        return (self.arity(x), self.dumps(x))

    def _ordered(self, rows) -> list:
        """The rows (x, value) as (serialization of x, value), in the order
        of `key(x)`: grouped by arity, and each group sorted by text."""
        arity, text = self.arity, self.dumps
        groups: dict = {}
        for x, value in rows:
            groups.setdefault(arity(x), []).append((text(x), value))
        return [row for n in sorted(groups)
                for row in sorted(groups[n], key=_first)]

    def elements(self, n: int) -> Iterable:
        """Per-arity enumeration; only locally finite operads provide it."""
        raise NotImplementedError

    def _check_colors(self, x, i: int, y) -> None:
        n = self.arity(x)
        if not 1 <= i <= n:
            raise PositionError("position %d out of range 1..%d" % (i, n))
        color = self.ins(x)[i - 1]
        if color != self.out(y):
            raise self._color_error(i, color, y)

    def _color_error(self, i: int, color: str, y) -> CompositionError:
        return CompositionError(
            "input color %r at position %d does not match output color %r"
            % (color, i, self.out(y)))


class AsOperad(Operad):
    """The associative operad: one element per arity, composition adds arities."""

    UNIT = 1

    def arity(self, x: int) -> int:
        return x

    def _compose(self, x: int, i: int, y: int) -> int:
        return x + y - 1

    def _template(self, x: int):
        # x o (z_1, .., z_m) = z_1 + .. + z_m, as x = m
        return (0,) * (x + 1), (None,) * x

    def loads(self, text: str) -> int:
        # int() would also read 2.7, true, " 2", "+2" and "2_0"
        if not (type(text) is str and text.isdecimal()
                and str(n := int(text)) == text):
            raise BudgenError("arity must be a decimal integer: %r" % (text,))
        if n < 1:
            raise BudgenError("arity must be >= 1")
        return n

    def elements(self, n: int):
        if n >= 1:
            yield n


def validate_color_token(c: str) -> str:
    if not c or ":" in c or "," in c:
        raise BudgenError("invalid color token %r" % c)
    return c


class BudOperad(Operad):
    """Bud construction over a monochrome ground operad.

    Elements are triples (out, ground element, input-color word); the
    composition acts on the ground and splices the input word.
    """

    def __init__(self, ground: Operad, colors: Sequence[str]):
        if len(ground.colors) != 1:
            raise BudgenError("bud construction requires a monochrome ground operad")
        if not colors:
            raise BudgenError("color set must be nonempty")
        for c in colors:
            validate_color_token(c)
        if len(set(colors)) != len(colors):
            raise BudgenError("duplicate color tokens")
        self.ground = ground
        self.colors = tuple(colors)
        self._colorset = frozenset(colors)

    def element(self, out: str, g, ins: Sequence[str]):
        if out not in self._colorset:
            raise BudgenError("unknown output color %r" % out)
        ins = tuple(ins)
        if len(ins) != self.ground.arity(g):
            raise BudgenError("input word length %d != ground arity %d"
                              % (len(ins), self.ground.arity(g)))
        for c in ins:
            if c not in self._colorset:
                raise BudgenError("unknown input color %r" % c)
        return (out, g, ins)

    def arity(self, x) -> int:
        return len(x[2])

    def out(self, x) -> str:
        return x[0]

    def ins(self, x) -> tuple[str, ...]:
        return x[2]

    def unit(self, c: str):
        if c not in self._colorset:
            raise BudgenError("unknown color %r" % c)
        return (c, self.ground.unit(MONO), (c,))

    # compose and full_compose check positions and colors on the input
    # words; the ground has nothing left to check, because the ground arity
    # of an element equals the length of its input word.

    def _compose(self, x, i: int, y):
        a, g, u = x
        return (a, self.ground._compose(g, i, y[1]), u[:i - 1] + y[2] + u[i:])

    def _template(self, x):
        """The template of the ground element of x: x o (z_1, .., z_m) has
        the output color of x, the ground template applied to the ground
        elements of the z_j, and the concatenated input words of the z_j."""
        return self.ground._template(x[1])

    def dumps(self, x) -> str:
        a, g, u = x
        if len(self.colors) == 1:
            return self.ground.dumps(g)
        return "%s:%s:%s" % (a, self.ground.dumps(g), ",".join(u))

    def loads(self, text: str):
        if len(self.colors) == 1:
            c = self.colors[0]
            g = self.ground.loads(text)
            return self.element(c, g, (c,) * self.ground.arity(g))
        a, g_text, u_text = text.split(":")
        g = self.ground.loads(g_text)
        return self.element(a, g, tuple(u_text.split(",")) if u_text else ())

    def elements(self, n: int):
        from itertools import product
        for g in self.ground.elements(n):
            for a in self.colors:
                for u in product(self.colors, repeat=n):
                    yield (a, g, u)


def prune(op: BudOperad, x):
    """Forget the colors of a bud element: (a, g, u) -> g."""
    return x[1]


def colorize(op: BudOperad, x):
    """Keep only the colors of a bud element: (a, g, u) -> (a, *_n, u)."""
    return (x[0], op.arity(x), x[2])


def type_of(u: Sequence[str], colors: Sequence[str]) -> tuple[int, ...]:
    """Count each declared color in the word u, in declaration order."""
    alpha = tuple(map(u.count, colors))
    if sum(alpha) != len(u):
        for c in u:
            if c not in colors:
                raise BudgenError("color %r not declared" % c)
    return alpha


def dumps_type(alpha: Sequence[int]) -> str:
    return ",".join(str(a) for a in alpha)
