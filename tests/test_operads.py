import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from budgen.core import MONO, BudgenError, BudOperad, NotGeneratedError
from budgen.operads import (
    ASchrOperad,
    CollectionSpec,
    DiasOperad,
    FreeOperad,
    MagOperad,
    MotzOperad,
    all_treelike,
    capped_tree_operad,
    degree_bound,
    dumps_term,
    finitely_factorizing_check,
    hook_count,
    left_expression_count,
    loads_term,
    s_degree,
    st_degree,
    st_is_perfect,
    st_leaf,
    st_node,
    treelike_expressions,
)


def test_term_syntax_round_trip():
    for text in ["*", "!1", "c(*,*)", "c(c(*,*),*)", "a(*,b(*,*,!2),*)"]:
        assert dumps_term(loads_term(text)) == text
    with pytest.raises(BudgenError):
        loads_term("c(*,*")
    with pytest.raises(BudgenError):
        loads_term("c(*,*))")


def _dumps_reference(t) -> str:
    # the term text, printed by plain recursion
    if t == "*":
        return "*"
    if t[0] == "!":
        return "!" + t[1]
    if len(t) == 1:
        return t[0]
    return "%s(%s)" % (t[0], ",".join(_dumps_reference(c) for c in t[1:]))


@pytest.mark.parametrize("make", [
    MagOperad, ASchrOperad, lambda: FreeOperad(_two_color_spec())],
    ids=["mag", "aschr", "free-two-color"])
def test_memoized_printer_matches_the_recursive_one(make):
    # elements(1) of the free operad are its units !1 and !2; the second
    # round prints every term again from a warm memo
    op = make()
    texts = {"*": "*"}
    for _ in range(2):
        for n in range(1, 6):
            for x in op.elements(n):
                t = loads_term(x)
                text = _dumps_reference(t)
                assert op.dumps(x) == x == text
                assert dumps_term(t) == dumps_term(t, texts) == text


def test_printer_memo_is_keyed_by_value():
    op = MagOperad()
    x = ("c", ("c", "*", "*"), "*")
    y = loads_term("c(c(*,*),*)")
    assert x == y and x is not y and x[1] is not y[1]
    assert dumps_term(x) == dumps_term(y) == op.dumps(op.loads(
        "c(c(*,*),*)")) == "c(c(*,*),*)"
    assert dumps_term(y[1]) == "c(*,*)"
    texts = {}
    assert dumps_term(x, texts) == "c(c(*,*),*)"
    assert texts[y[1]] == "c(*,*)"


def test_printer_walks_any_depth():
    t = "*"
    for _ in range(3000):
        t = ("u", t)
    assert dumps_term(t) == "u(" * 3000 + "*" + ")" * 3000


# -- magmatic ---------------------------------------------------------------


def test_mag_graft():
    op = MagOperad()
    c = op.corolla()
    left = op.compose(c, 1, c)
    assert op.dumps(left) == "c(c(*,*),*)"
    assert op.arity(left) == 3
    assert op.dumps(op.compose(left, 2, c)) == "c(c(*,c(*,*)),*)"


def test_mag_counts_are_catalan():
    op = MagOperad()
    catalan = [1, 1, 2, 5, 14, 42]
    for n in range(1, 7):
        assert len(list(op.elements(n))) == catalan[n - 1]


# -- pluriassociative -------------------------------------------------------


def test_dias_compose_examples():
    op = DiasOperad(2)
    assert op.compose("010", 1, "02") == "0210"
    assert op.compose("102", 2, "01") == "1012"


def test_dias_max_rule():
    op = DiasOperad(3)
    # the pivot letter dominates every letter of the inserted word
    assert op.compose("20", 1, "01") == "220"


@pytest.mark.parametrize("gamma", [0, 1, 2, 3])
def test_dias_compose_is_the_max_rule(gamma):
    # the paper's rule, letter by letter: u o_i v puts v at the i-th
    # letter of u, with each letter a of v raised to max(a, u_i)
    op = DiasOperad(gamma)
    words = [w for n in range(1, 5) for w in op.elements(n)]
    for u in words:
        for i in range(1, len(u) + 1):
            pivot = int(u[i - 1])
            for v in words:
                raised = "".join(str(max(int(a), pivot)) for a in v)
                assert op._compose(u, i, v) == u[:i - 1] + raised + u[i:]


def test_dias_gamma_is_one_digit():
    assert DiasOperad(9).compose("90", 1, "09") == "990"
    with pytest.raises(BudgenError, match="gamma must be <= 9"):
        DiasOperad(10)


def test_dias_validation_and_counts():
    op = DiasOperad(2)
    with pytest.raises(BudgenError):
        op.loads("11")
    with pytest.raises(BudgenError):
        op.loads("030")
    for n in range(1, 6):
        words = list(op.elements(n))
        assert len(words) == n * 2 ** (n - 1)
        assert len(set(words)) == len(words)


# -- Motzkin ----------------------------------------------------------------


def test_motz_compose_example():
    op = MotzOperad()
    assert op.compose("UD", 2, "H") == "UHD"
    assert op.compose("UD", 1, "H") == "HUD"
    assert op.compose("UD", 3, "H") == "UDH"


def test_motz_validation_and_counts():
    op = MotzOperad()
    with pytest.raises(BudgenError):
        op.loads("UDD")
    with pytest.raises(BudgenError):
        op.loads("UU")
    motzkin = [1, 1, 2, 4, 9, 21]
    for n in range(1, 7):
        assert len(list(op.elements(n))) == motzkin[n - 1]


# -- alternating Schroeder trees --------------------------------------------


def test_aschr_graft_merges_equal_labels():
    op = ASchrOperad()
    a2 = op.corolla("a")
    b2 = op.corolla("b")
    assert op.dumps(op.compose(a2, 1, b2)) == "a(b(*,*),*)"
    # grafting a on a merges into a single wider corolla
    assert op.dumps(op.compose(a2, 1, a2)) == "a(*,*,*)"
    assert op.arity(op.compose(a2, 1, a2)) == 3


def test_aschr_validation_and_counts():
    op = ASchrOperad()
    with pytest.raises(BudgenError):
        op.loads("a(a(*,*),*)")
    with pytest.raises(BudgenError):
        op.loads("a(*)")
    # two interleaved label choices double the Schroeder numbers above arity 1
    schroeder = [1, 1, 3, 11, 45]
    for n in range(2, 6):
        assert len(list(op.elements(n))) == 2 * schroeder[n - 1]


# -- free colored operads ----------------------------------------------------


def _two_color_spec():
    return CollectionSpec([("a", "1", ("2", "1")), ("b", "2", ("1", "2", "1"))])


def test_free_operad_basics():
    op = FreeOperad(_two_color_spec())
    a = op.corolla("a")
    b = op.corolla("b")
    assert op.out(a) == "1"
    assert op.ins(a) == ("2", "1")
    x = op.compose(a, 1, b)
    assert op.dumps(x) == "a(b(*,*,*),*)"
    assert op.ins(x) == ("1", "2", "1", "1")
    assert op.compose(a, 1, op.unit("2")) == a
    assert op.compose(op.unit("1"), 1, a) == a


def test_free_operad_validation():
    op = FreeOperad(_two_color_spec())
    with pytest.raises(BudgenError):
        op.loads("a(*)")
    with pytest.raises(BudgenError):
        op.loads("z(*,*)")
    with pytest.raises(BudgenError):
        op.loads("a(a(*,*),*)")  # child output color 1 at a color-2 input
    assert op.loads("a(b(*,*,*),*)") == op.compose(op.corolla("a"), 1,
                                                   op.corolla("b"))


def _binary_ternary_spec():
    return CollectionSpec([("a", MONO, (MONO,) * 2), ("b", MONO, (MONO,) * 3)])


def test_free_operad_counts():
    # one binary and one ternary generator: A001002 (polygon dissections)
    op = FreeOperad(_binary_ternary_spec())
    assert [len(list(op.elements(n))) for n in range(1, 8)] == [
        1, 1, 3, 10, 38, 154, 654]
    op = FreeOperad(_two_color_spec())
    assert [len(list(op.elements(n))) for n in range(1, 8)] == [
        2, 1, 2, 4, 9, 22, 56]
    with pytest.raises(BudgenError, match="arity-1 generators"):
        list(capped_tree_operad(2).elements(3))


# -- text grafting against the tuple graft -----------------------------------


def _graft_reference(x, i, y, merge):
    """x o_i y on tuple terms by the recursive leaf walk: the units first,
    then y planted on the i-th leaf; with `merge`, the children of y take
    the place of the leaf when y's label is the parent's (Schroeder)."""
    if x == "*" or x[0] == "!":
        return y
    if y == "*" or y[0] == "!":
        return x
    offset = 0
    for j in range(1, len(x)):
        child = x[j]
        a = _leaves(child)
        if i <= offset + a:
            if child == "*":
                mid = y[1:] if merge and y[0] == x[0] else (y,)
            else:
                mid = (_graft_reference(child, i - offset, y, merge),)
            return x[:j] + mid + x[j + 1:]
        offset += a
    raise AssertionError("leaf %d not found" % i)


def _ins_reference(spec, t):
    if t[0] == "!":
        return (t[1],)
    colors = []
    for color, child in zip(spec.ins(t[0]), t[1:]):
        colors.extend((color,) if child == "*" else _ins_reference(spec, child))
    return tuple(colors)


def _random_term(rng, op, above, depth):
    """A random tuple term of width 1..3 per node under the node rule of
    op, its root allowed under `above`."""
    label, contexts = rng.choice([node for k in (1, 2, 3)
                                  for node in op._nodes(above, k)])
    return (label,) + tuple(
        "*" if depth == 0 or rng.random() < 0.4
        else _random_term(rng, op, context, depth - 1)
        for context in contexts)


def _unary_spec():
    # arity-1 generators u, v and a two-color signature, so that a leaf's
    # color depends on its parent
    return CollectionSpec([("u", "1", ("2",)), ("f", "1", ("1", "2")),
                           ("v", "2", ("2",)), ("g", "2", ("1", "1", "2"))])


@pytest.mark.parametrize("make", [
    MagOperad, ASchrOperad, lambda: FreeOperad(_two_color_spec()),
    lambda: FreeOperad(_unary_spec())],
    ids=["mag", "aschr", "free-two-color", "free-unary"])
def test_text_graft_matches_the_tuple_graft(make):
    op = make()
    free = isinstance(op, FreeOperad)
    merge = isinstance(op, ASchrOperad)
    rng = random.Random(23)
    units = 0
    for _ in range(600):
        x = ("!", rng.choice(op.colors)) if free else "*"
        if rng.random() > 0.1:
            x = _random_term(rng, op, None, 4)
        i = rng.randint(1, _leaves(x))
        color = _ins_reference(op.spec, x)[i - 1] if free else None
        y = ("!", color) if free else "*"
        if rng.random() > 0.1:
            y = _random_term(rng, op, color, 4)
        units += "*" in (x, y) or "!" in (x[0], y[0])
        z = op.compose(dumps_term(x), i, dumps_term(y))
        t = _graft_reference(x, i, y, merge)
        assert z == dumps_term(t)
        assert op.arity(z) == _leaves(t)
        assert op.loads(z) == z
        if free:
            assert op.out(z) == (t[1] if t[0] == "!" else op.spec.out(t[0]))
            assert op.ins(z) == _ins_reference(op.spec, t)
    assert units > 50


def test_schroeder_text_graft_merges_at_odd_and_even_depth():
    op = ASchrOperad()
    cases = [
        # (x, i, y, x o_i y): merges into parents at depths 1, 2 and 3,
        # under either root label, each next to a leaf that does not merge
        ("a(*,*)", 1, "a(*,*)", "a(*,*,*)"),
        ("a(*,*)", 2, "b(*,*)", "a(*,b(*,*))"),
        ("a(*,b(*,*))", 2, "b(*,*,*)", "a(*,b(*,*,*,*))"),
        ("a(*,b(*,*))", 3, "a(*,*)", "a(*,b(*,a(*,*)))"),
        ("a(b(a(*,*),*),*)", 2, "a(*,*)", "a(b(a(*,*,*),*),*)"),
        ("a(b(a(*,*),*),*)", 2, "b(*,*)", "a(b(a(*,b(*,*)),*),*)"),
        ("b(a(*,*),a(*,b(*,*)))", 4, "b(*,*)", "b(a(*,*),a(*,b(*,*,*)))"),
        ("b(a(*,*),a(*,b(*,*)))", 3, "b(*,*)", "b(a(*,*),a(b(*,*),b(*,*)))"),
    ]
    for x, i, y, z in cases:
        assert op.compose(x, i, y) == z
        assert z == dumps_term(_graft_reference(
            loads_term(x), i, loads_term(y), True))


def test_graft_at_depth_3000_does_not_recurse():
    # a left comb of 3,000 alternating Schroeder corollas, built and then
    # grafted on at its deepest leaf, where the parent is at depth 3,000;
    # and a chain of 3,000 arity-1 free generators
    op = ASchrOperad()
    label = ["b", "a"]  # the label at depth d is label[d % 2]
    x = op.corolla("a")
    for d in range(2, 3001):
        x = op.compose(x, 1, op.corolla(label[d % 2]))
    head = "".join(label[d % 2] + "(" for d in range(1, 3001))
    assert x == head + "*" + ",*)" * 3000
    assert op.arity(x) == 3001
    assert op.compose(x, 1, op.corolla("b")) == head + "*,*,*)" + ",*)" * 2999
    assert op.compose(x, 2, op.corolla("a")) == head + "*,a(*,*))" + ",*)" * 2999
    free = FreeOperad(_unary_spec())
    chain = free.unit("2")
    for _ in range(1500):
        chain = free.compose(free.compose(free.corolla("v"), 1, chain), 1,
                             free.corolla("v"))
    deep = free.compose(free.corolla("u"), 1, chain)
    assert deep == "u(" + "v(" * 3000 + "*" + ")" * 3001
    grafted = free.compose(deep, 1, free.corolla("g"))
    assert grafted == "u(" + "v(" * 3000 + "g(*,*,*)" + ")" * 3001
    assert free.arity(grafted) == 3
    assert free.ins(grafted) == ("1", "1", "2")
    assert free.out(grafted) == "1"


def _terms_up_to(size: int, labels, leaves):
    """Every term of size <= `size` over `labels`, with leaves from
    `leaves`; the size counts the leaves and the one-child nodes."""
    terms = {1: list(leaves)}

    def forests(k, largest):
        # child lists of total size k, each child of size <= largest
        if k == 0:
            yield ()
        for j in range(1, min(k, largest) + 1):
            for t in terms[j]:
                for rest in forests(k - j, largest):
                    yield (t,) + rest

    for k in range(2, size + 1):
        terms[k] = [(label, t) for label in labels for t in terms[k - 1]]
        terms[k].extend((label,) + children for children in forests(k, k - 1)
                        for label in labels)
    return [t for k in sorted(terms) for t in terms[k]]


def _leaves(t) -> int:
    if t == "*" or t[0] == "!":
        return 1
    return sum(_leaves(c) for c in t[1:])


@pytest.mark.parametrize("make", [
    MagOperad, ASchrOperad, lambda: FreeOperad(_two_color_spec()),
    lambda: FreeOperad(_binary_ternary_spec())],
    ids=["mag", "aschr", "free-two-color", "free-binary-ternary"])
def test_loads_accepts_exactly_the_elements(make):
    # labels of every ground above, one unknown label and the unit !1
    op = make()
    elements = {n: set(op.elements(n)) for n in range(1, 5)}
    terms = _terms_up_to(4, ["a", "b", "c", "z"], ["*", ("!", "1")])
    for t in terms:
        text = dumps_term(t)
        if text in elements[_leaves(t)]:
            assert op.loads(text) == dumps_term(t)
        else:
            with pytest.raises(BudgenError):
                op.loads(text)
    # the terms hold every element with at most 4 leaves but the unit !2
    missed = set().union(*elements.values()) - set(map(dumps_term, terms))
    assert missed <= {"!2"}


def test_node_rules_name_the_exact_width():
    # _nodes(above, k) lists only the nodes with exactly k children, so
    # validating a node asks for its own width and no narrower one
    assert list(ASchrOperad()._nodes("b", 5)) == [("a", ("a",) * 5)]
    assert list(ASchrOperad()._nodes(None, 1)) == []
    assert list(MagOperad()._nodes(None, 3)) == []
    op = FreeOperad(_binary_ternary_spec())
    assert list(op._nodes(MONO, 3)) == [("b", (MONO,) * 3)]


def test_collection_spec_validation():
    with pytest.raises(BudgenError):
        CollectionSpec([("a(", "1", ("1",))])
    with pytest.raises(BudgenError):
        CollectionSpec([("a", "1", ())])
    with pytest.raises(BudgenError):
        CollectionSpec([("a", "1", ("1",)), ("a", "1", ("1",))])


def test_capped_tree_operad():
    op = capped_tree_operad(3)
    assert sorted(op.spec.gens) == ["n1", "n2", "n3"]
    x = op.compose(op.corolla("n2"), 2, op.corolla("n3"))
    assert op.arity(x) == 4


# -- operad axioms as properties ----------------------------------------------


def _mag_trees(max_n=5):
    op = MagOperad()
    pool = []
    for n in range(1, max_n + 1):
        pool.extend(op.elements(n))
    return pool


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mag_sequential_axiom(data):
    op = MagOperad()
    pool = _mag_trees()
    x = data.draw(st.sampled_from(pool))
    y = data.draw(st.sampled_from(pool))
    z = data.draw(st.sampled_from(pool))
    i = data.draw(st.integers(1, op.arity(x)))
    j = data.draw(st.integers(1, op.arity(y)))
    lhs = op.compose(op.compose(x, i, y), i + j - 1, z)
    rhs = op.compose(x, i, op.compose(y, j, z))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mag_parallel_axiom(data):
    op = MagOperad()
    pool = [t for t in _mag_trees() if op.arity(t) >= 2]
    x = data.draw(st.sampled_from(pool))
    y = data.draw(st.sampled_from(_mag_trees()))
    z = data.draw(st.sampled_from(_mag_trees()))
    i = data.draw(st.integers(1, op.arity(x) - 1))
    j = data.draw(st.integers(i + 1, op.arity(x)))
    m = op.arity(y)
    lhs = op.compose(op.compose(x, i, y), j + m - 1, z)
    rhs = op.compose(op.compose(x, j, z), i, y)
    assert lhs == rhs


# -- syntax trees and expressions ----------------------------------------------


def test_hook_count():
    op = MagOperad()
    c = op.corolla()
    leaf = st_leaf(MONO)
    t1 = st_node(c, [leaf, leaf])
    assert hook_count(t1) == 1
    t2 = st_node(c, [st_node(c, [leaf, leaf]), leaf])
    assert hook_count(t2) == 1
    t3 = st_node(c, [st_node(c, [leaf, leaf]), st_node(c, [leaf, leaf])])
    # 3 nodes, two independent subtrees: 3!/ (3*1*1) = 2
    assert hook_count(t3) == 2
    assert st_degree(t3) == 3
    assert st_is_perfect(t3)
    assert not st_is_perfect(t2)


def test_treelike_expressions_on_mag():
    op = MagOperad()
    gens = [op.corolla()]
    comb = op.loads("c(c(*,*),*)")
    trees = treelike_expressions(op, gens, comb)
    assert len(trees) == 1
    balanced = op.loads("c(c(*,*),c(*,*))")
    assert left_expression_count(op, gens, balanced) == 2
    assert s_degree(op, gens, balanced) == 3


def test_not_generated():
    op = MagOperad()
    right_comb = op.loads("c(*,c(*,*))")
    left_only = all_treelike(op, [op.loads("c(c(*,*),*)")], 5, 4)
    assert right_comb not in left_only
    with pytest.raises(NotGeneratedError):
        s_degree(op, [], op.corolla())


def test_finitely_factorizing_check():
    op = BudOperad(MagOperad(), ("1", "2"))
    leaf = MagOperad().unit(MONO)
    ok, chain = finitely_factorizing_check(op, [])
    assert (ok, chain) == (True, 0)
    ok, chain = finitely_factorizing_check(
        op, [op.element("2", leaf, ("1",))])
    assert (ok, chain) == (True, 1)
    ok, chain = finitely_factorizing_check(
        op, [op.element("2", leaf, ("1",)), op.element("1", leaf, ("2",))])
    assert ok is False


@pytest.mark.parametrize("edges,expected", [
    ([], (True, 0)),
    ([("1", "a", "2"), ("2", "a", "3"), ("3", "a", "4")], (True, 3)),
    ([("1", "a", "2"), ("1", "b", "2"), ("2", "a", "3")], (True, 2)),
    ([("1", "a", "2"), ("3", "a", "3")], (False, -1)),
    ([("1", "a", "2"), ("2", "b", "1"), ("3", "a", "4")], (False, -1)),
], ids=["none", "chain3", "parallel", "self-loop", "2-cycle"])
def test_finitely_factorizing_check_cases(edges, expected):
    ground = FreeOperad(CollectionSpec(
        [("a", MONO, (MONO,)), ("b", MONO, (MONO,)), ("c", MONO, (MONO, MONO))]))
    op = BudOperad(ground, ("1", "2", "3", "4"))
    rules = [op.element(out, ground.corolla(g), (inp,))
             for out, g, inp in edges]
    assert finitely_factorizing_check(op, rules) == expected
    binary = op.element("1", ground.corolla("c"), ("1", "1"))
    with pytest.raises(BudgenError):
        finitely_factorizing_check(op, rules + [binary])


def test_finitely_factorizing_check_on_a_long_chain():
    # one arity-1 rule per link of a 1,500-color chain: the walk keeps its
    # own stack, so no Python frame is spent per color
    colors = [str(i) for i in range(1500)]
    op = BudOperad(MagOperad(), colors)
    leaf = MagOperad().unit(MONO)
    chain = [op.element(a, leaf, (b,)) for a, b in zip(colors, colors[1:])]
    assert finitely_factorizing_check(op, chain) == (True, 1499)
    closed = chain + [op.element(colors[-1], leaf, (colors[0],))]
    assert finitely_factorizing_check(op, closed) == (False, -1)


def test_degree_bound():
    assert degree_bound(4, 0) == 3
    assert degree_bound(4, 1) == 10


def test_hook_count_equals_linear_extension_factorial_identity():
    # left comb of n nodes has hook count (n-1)! / ... = product check
    op = MagOperad()
    c = op.corolla()
    leaf = st_leaf(MONO)
    t = st_node(c, [leaf, leaf])
    for _ in range(4):
        t = st_node(c, [t, leaf])
    degs = st_degree(t)
    assert hook_count(t) == math.factorial(degs) // math.prod(
        range(1, degs + 1))  # chain: exactly one linear extension
