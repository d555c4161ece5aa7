import pytest

from budgen.core import (
    MONO,
    AsOperad,
    BudgenError,
    BudOperad,
    CompositionError,
    PositionError,
    colorize,
    dumps_type,
    prune,
    type_of,
)


def test_as_operad_basics():
    op = AsOperad()
    assert op.arity(5) == 5
    assert op.unit(MONO) == 1
    assert op.compose(3, 2, 4) == 6
    assert op.out(3) == MONO
    assert op.ins(3) == (MONO, MONO, MONO)
    assert op.loads(op.dumps(7)) == 7
    assert list(op.elements(4)) == [4]


def test_as_operad_position_errors():
    op = AsOperad()
    with pytest.raises(PositionError):
        op.compose(2, 3, 2)
    with pytest.raises(PositionError):
        op.compose(2, 0, 2)


def test_full_compose_is_right_to_left_fold():
    op = AsOperad()
    x, ys = 3, [2, 1, 4]
    assert op.full_compose(x, ys) == 2 + 1 + 4
    folded = x
    for i in range(3, 0, -1):
        folded = op.compose(folded, i, ys[i - 1])
    assert op.full_compose(x, ys) == folded


def test_full_compose_length_mismatch():
    op = AsOperad()
    with pytest.raises(CompositionError):
        op.full_compose(2, [1, 1, 1])


def test_bud_compose_example():
    op = BudOperad(AsOperad(), tuple("123456"))
    x = op.element("2", 4, ("3", "1", "1", "2"))
    y = op.element("1", 3, ("2", "3", "3"))
    assert op.compose(x, 2, y) == ("2", 6, ("3", "2", "3", "3", "1", "2"))


def test_bud_color_mismatch():
    op = BudOperad(AsOperad(), ("1", "2"))
    x = op.element("1", 2, ("1", "2"))
    y = op.element("1", 1, ("1",))
    with pytest.raises(CompositionError):
        op.compose(x, 2, y)  # input color 2, output color 1
    assert op.compose(x, 1, y) == ("1", 2, ("1", "2"))


def test_bud_units():
    op = BudOperad(AsOperad(), ("1", "2"))
    u = op.unit("2")
    assert u == ("2", 1, ("2",))
    x = op.element("1", 2, ("2", "1"))
    assert op.compose(x, 1, u) == x
    assert op.compose(op.unit("1"), 1, x) == x


def test_bud_element_validation():
    op = BudOperad(AsOperad(), ("1", "2"))
    with pytest.raises(BudgenError):
        op.element("3", 1, ("1",))
    with pytest.raises(BudgenError):
        op.element("1", 2, ("1",))
    with pytest.raises(BudgenError):
        op.element("1", 1, ("9",))


def test_bud_requires_monochrome_ground():
    inner = BudOperad(AsOperad(), ("1", "2"))
    with pytest.raises(BudgenError):
        BudOperad(inner, ("1",))


def test_color_token_validation():
    with pytest.raises(BudgenError):
        BudOperad(AsOperad(), ("a:b",))
    with pytest.raises(BudgenError):
        BudOperad(AsOperad(), ("a", "a"))
    with pytest.raises(BudgenError):
        BudOperad(AsOperad(), ())


def test_bud_serialization_round_trip():
    op = BudOperad(AsOperad(), ("1", "2"))
    x = op.element("2", 3, ("1", "2", "1"))
    assert op.dumps(x) == "2:3:1,2,1"
    assert op.loads(op.dumps(x)) == x


def test_monochrome_bud_serializes_as_ground():
    op = BudOperad(AsOperad(), (MONO,))
    x = op.element(MONO, 3, (MONO,) * 3)
    assert op.dumps(x) == "3"
    assert op.loads("3") == x


def test_prune_and_colorize():
    op = BudOperad(AsOperad(), ("1", "2"))
    x = op.element("2", 3, ("1", "2", "1"))
    assert prune(op, x) == 3
    assert colorize(op, x) == ("2", 3, ("1", "2", "1"))


def test_type_helpers():
    colors = ("1", "2", "3")
    assert type_of(("1", "3", "1"), colors) == (2, 0, 1)
    assert dumps_type((2, 0, 1)) == "2,0,1"
    with pytest.raises(BudgenError):
        type_of(("9",), colors)
    # the first undeclared color is named
    with pytest.raises(BudgenError, match="^color 'x' not declared$"):
        type_of(("1", "x", "y"), ("1", "2"))


def test_bud_elements_enumeration():
    op = BudOperad(AsOperad(), ("1", "2"))
    elems = list(op.elements(2))
    assert len(elems) == 2 * 4  # out colors x input words
    assert len(set(elems)) == len(elems)
