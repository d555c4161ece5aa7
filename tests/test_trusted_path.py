"""The checked public compositions and the unchecked path behind them.

The products and derivations compose through the unchecked `_compose`
once they have matched colors; the public `compose`/`full_compose` must
still reject bad positions and colors.  Coefficients keep the type of the
inputs: `int` for the presets, `Fraction` where the input has it or where
`compose_inverse` divides.
"""

from fractions import Fraction

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
