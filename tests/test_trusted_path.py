"""The checked public compositions and the unchecked paths behind them.

The one-position product and the derivation steps x <- r compose
through the unchecked `_compose` once they have matched colors, and
the multi-input compositions through element templates; the public
`compose`/`full_compose` must still reject bad positions and colors,
and every template must agree with `_compose` and `_full_compose`.
Coefficients keep the type of the inputs: `int` for the presets,
`Fraction` where the input has it or where `compose_inverse` divides.
"""

from fractions import Fraction
from itertools import product

import pytest

import budgen.series as S
from budgen.core import (
    MONO,
    AsOperad,
    BudgenError,
    BudOperad,
    CompositionError,
    PositionError,
)
from budgen.operads import (
    ASchrOperad,
    CollectionSpec,
    DiasOperad,
    FreeOperad,
    MagOperad,
    MotzOperad,
)
from budgen.systems import BUILTIN_NAMES, builtin

MAG = MagOperad()

GROUNDS = [
    (AsOperad(), 2, 3),
    (MAG, MAG.corolla(), MAG.corolla()),
    (DiasOperad(2), "01", "20"),
    (MotzOperad(), "H", "UD"),
    (ASchrOperad(), ASchrOperad().corolla("a"), ASchrOperad().corolla("b")),
    (FreeOperad(CollectionSpec([("f", MONO, (MONO, MONO))])),
     "f(*,*)", "f(*,*)"),
]


def _preset(name):
    kwargs = {"bdias": {"gamma": 2}, "btree": {"arities": [2, 3]}}
    return builtin(name, **kwargs.get(name, {}))


@pytest.mark.parametrize("op,x,y", GROUNDS,
                         ids=[type(g[0]).__name__ for g in GROUNDS])
def test_ground_compose_rejects_bad_positions(op, x, y):
    n = op.arity(x)
    for i in (0, n + 1):
        with pytest.raises(PositionError):
            op.compose(x, i, y)
    with pytest.raises(CompositionError):
        op.full_compose(x, [y] * (n + 1))
    assert op.compose(x, n, y) == op._compose(x, n, y)
    assert op.full_compose(x, [y] * n) == op._full_compose(x, [y] * n)


@pytest.mark.parametrize("op,x,y", GROUNDS,
                         ids=[type(g[0]).__name__ for g in GROUNDS])
def test_ground_unit_and_serialization(op, x, y):
    # the contract every ground shares, whichever class defines it
    u = op.unit(MONO)
    composites = [op.compose(x, i, y) for i in range(1, op.arity(x) + 1)]
    composites += [op.compose(y, i, x) for i in range(1, op.arity(y) + 1)]
    for z in [x, y] + composites:
        assert op.compose(u, 1, z) == z
        for i in range(1, op.arity(z) + 1):
            assert op.compose(z, i, u) == z
        assert op.loads(op.dumps(z)) == z
    assert op.loads(op.dumps(u)) == u
    with pytest.raises(BudgenError):
        op.unit("2")


def test_colored_ground_compose_rejects_bad_colors():
    spec = CollectionSpec([("f", "1", ("1", "2")), ("g", "2", ("1",))])
    op = FreeOperad(spec)
    f, g = op.corolla("f"), op.corolla("g")
    with pytest.raises(CompositionError):
        op.compose(f, 1, g)
    with pytest.raises(CompositionError):
        op.full_compose(f, [g, g])
    assert op.dumps(op.full_compose(f, [op.unit("1"), g])) == "f(*,g(*))"


def test_bud_compose_and_full_compose_reject_bad_input():
    op = BudOperad(MAG, ("1", "2"))
    x = op.element("1", MAG.corolla(), ("1", "2"))
    y1 = op.element("1", MAG.corolla(), ("2", "2"))
    y2 = op.unit("2")
    for i in (0, 3):
        with pytest.raises(PositionError):
            op.compose(x, i, y1)
    with pytest.raises(CompositionError):
        op.compose(x, 2, y1)
    with pytest.raises(CompositionError):
        op.full_compose(x, [y1, y1])
    with pytest.raises(CompositionError):
        op.full_compose(x, [y1])
    expect = op.compose(op.compose(x, 2, y2), 1, y1)
    assert op.full_compose(x, [y1, y2]) == expect
    assert expect == ("1", MAG.loads("c(c(*,*),*)"), ("2", "2", "2"))


def _free_elements(op):
    """The units of a free operad, its corollas, and their grafts of
    two corollas of arity <= 3."""
    corollas = [op.corolla(name) for name in op.spec.gens]
    return [op.unit(c) for c in op.colors] + corollas + [
        op.compose(x, i, y) for x in corollas for y in corollas
        for i in range(1, op.arity(x) + 1)
        if op.ins(x)[i - 1] == op.out(y) and op.arity(x) + op.arity(y) <= 4]


def _ground_elements(op, arity=3):
    if isinstance(op, FreeOperad):
        return _free_elements(op)
    return [x for n in range(1, arity + 1) for x in op.elements(n)]


def _budded(ground, elements):
    """Over two colors, each ground element x as two bud elements, with
    output 1 or 2 and the input word alternating from the other color."""
    op = BudOperad(ground, ("1", "2"))
    return op, [op.element(out, x, [("1", "2")[(j + k) % 2]
                                    for j in range(ground.arity(x))])
                for x in elements for k, out in enumerate(("1", "2"))]


def _by_template(op, x, zs):
    """x o (z_1, .., z_m) by the template of x (see `Operad`)."""
    bud = isinstance(op, BudOperad)
    parts, splices = op._template(x)
    assert len(parts) == len(splices) + 1 == op.arity(x) + 1
    text, word = parts[0], ()
    for z, splice, part in zip(zs, splices, parts[1:]):
        if bud:
            z, word = z[1], word + z[2]
        text = text + (z if splice is None else splice(z)) + part
    return (op.out(x), text, word) if bud else text


# (name, ground, largest pick arity of the triples of an arity-3 root):
# DiasOperad(3) picks from arity <= 2 there, as its 34 elements of arity
# <= 3 would make a million triples; its one-position picks take all 34
TEMPLATE_GROUNDS = [
    ("as", AsOperad(), 3),
    ("mag", MAG, 3),
    ("aschr", ASchrOperad(), 3),
    ("dias2", DiasOperad(2), 3),
    ("dias3", DiasOperad(3), 2),
    ("motz", MotzOperad(), 3),
    ("free", FreeOperad(CollectionSpec([("f", MONO, (MONO, MONO)),
                                        ("g", MONO, (MONO,))])), 3),
    ("free-colored", FreeOperad(CollectionSpec([
        ("f", "1", ("1", "2")), ("g", "2", ("2",)),
        ("h", "2", ("1", "2", "1"))])), 3),
]
TEMPLATE_CASES = [(name, ground, wide, bud) for name, ground, wide
                  in TEMPLATE_GROUNDS for bud in (False, True)
                  if not bud or len(ground.colors) == 1]


@pytest.mark.parametrize(
    "name,ground,wide,bud", TEMPLATE_CASES,
    ids=[c[0] + ("-bud" if c[3] else "") for c in TEMPLATE_CASES])
def test_template_composes_like_the_reference(name, ground, wide, bud):
    # every root of arity <= 3 with every pick tuple against _full_compose,
    # and with one pick among units against _compose
    elements = _ground_elements(ground)
    op = ground
    if bud:
        op, elements = _budded(ground, elements)
    narrow = [z for z in elements if op.arity(z) <= wide]
    for x in elements:
        ins = op.ins(x)
        pools = [[z for z in (narrow if len(ins) == 3 else elements)
                  if op.out(z) == c] for c in ins]
        for zs in product(*pools):
            assert _by_template(op, x, zs) == op._full_compose(x, zs), \
                (x, zs)
        units = [op.unit(c) for c in ins]
        for i, c in enumerate(ins):
            for z in elements:
                if op.out(z) == c:
                    picks = units[:i] + [z] + units[i + 1:]
                    assert _by_template(op, x, picks) == \
                        op._compose(x, i + 1, z), (x, i + 1, z)


def test_template_covers_both_schroeder_roots_and_every_pivot():
    # the Schroeder roots of both labels, and Dias roots with every letter
    # as a pivot, are among the roots the law test composes
    aschr = _ground_elements(ASchrOperad())
    assert {x[0] for x in aschr if x != "*"} == {"a", "b"}
    for gamma in (2, 3):
        letters = {p for x in _ground_elements(DiasOperad(gamma)) for p in x}
        assert letters == {str(p) for p in range(gamma + 1)}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_preset_series_have_int_coefficients(name):
    system = _preset(name)
    for kind in ("hook", "synt", "sync"):
        f = getattr(system, kind + "_series")(4)
        assert all(type(c) is int for c in f.coeffs.values()), (name, kind)


def test_fraction_inputs_keep_fraction_coefficients():
    f = S.Series(MAG, 4, {MAG.unit(MONO): Fraction(1),
                          MAG.corolla(): Fraction(1, 2)})
    for g in (S.pre_lie(f, f), S.compose_prod(f, f), S.compose_inverse(f)):
        assert g.coeffs
        assert all(type(c) is Fraction for c in g.coeffs.values())
    assert S.compose_prod(f, f).coeff(MAG.loads("c(c(*,*),*)")) == \
        Fraction(1, 4)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_filter_equals_products_with_unit_series(name):
    system = _preset(name)
    bud, bound = system.bud, 4
    i = S.characteristic(bud, [bud.unit(c) for c in system.initial], bound)
    t = S.characteristic(bud, [bud.unit(c) for c in system.terminal], bound)
    r = system.rule_series(bound)
    u = S.units_series(bud, bound)
    # the middles as the system series build them, from the terminal units
    inputs = system.terminal
    for middle in (S.pre_lie_star(r, inputs),
                   S.compose_inverse(S.sub(u, r), inputs),
                   S.compose_star(r, inputs)):
        expect = S.compose_prod(S.compose_prod(i, middle), t)
        assert system._filtered(middle, bound) == expect, name
