"""Concrete operads, free colored operads, and syntax-tree machinery.

Element serializations (the interchange format for JSON files and CLI
output): the associative operad prints its arity in decimal; binary and
Schroeder trees and free-operad elements print as terms `name(child,..)`
with `*` for leaves and `!c` for the unit leaf of color c; pluriassociative
words print as digit strings; Motzkin paths print as U/H/D step strings
(the empty string is the arity-1 path).

The three tree-shaped operads (magmatic, Schroeder and free) share one
term core, `TermOperad`.  Their elements are their canonical term texts:
the arity counts the leaves, grafting splices a text in at the position
of a leaf, the template of an element (see `core.Operad`) is its text
cut at its leaves, and printing is the identity.  One enumerator and one
validator both follow from the node rule `_nodes(above, k)` each class
states once; `loads` parses a text into a tuple term (`loads_term`),
validates it and returns the text itself: a text that parses is canonical.

The two walks over a finite DAG, the color chains of the arity-1 rules
(`finitely_factorizing_check`) and the path counts of a derivation graph
(`systems.DerivGraph`), share one iterative post-order walk,
`_post_order`, which reports a reachable cycle instead of entering it.
"""

from __future__ import annotations

import math
import re
from itertools import product
from operator import methodcaller
from typing import Sequence

from .core import (
    MONO,
    AsOperad,
    BudgenError,
    DivergenceError,
    NotGeneratedError,
    Operad,
    validate_color_token,
)

LEAF = "*"
UNIT_TAG = "!"


# ---------------------------------------------------------------------------
# term syntax shared by tree-shaped elements


def dumps_term(t) -> str:
    """The text of the term t, built in one post-order walk with an
    explicit stack, so that a term of any depth prints; each subtree is
    printed once."""
    texts = {LEAF: LEAF}  # subtree -> its text
    get = texts.get
    text = get(t)
    if text is not None:
        return text
    stack = [t]
    while stack:
        node = stack[-1]
        if node[0] == UNIT_TAG:
            text = texts[node] = UNIT_TAG + node[1]
            stack.pop()
            continue
        parts = [get(c) for c in node[1:]]
        if None in parts:  # print the missing children first
            stack.extend(c for c, p in zip(node[1:], parts) if p is None)
        else:
            text = texts[node] = ("%s(%s)" % (node[0], ",".join(parts))
                                  if parts else node[0])
            stack.pop()
    return text  # the root's, printed last


MAX_TERM_DEPTH = 100  # loads_term and the tree walks recurse per level


def loads_term(text: str):
    """Parse a term; nesting deeper than MAX_TERM_DEPTH raises
    BudgenError."""
    pos = 0

    def parse(depth: int):
        nonlocal pos
        if depth > MAX_TERM_DEPTH:
            raise BudgenError("term nested deeper than %d levels"
                              % MAX_TERM_DEPTH)
        if pos >= len(text):
            raise BudgenError("unexpected end of term %r" % text)
        if text[pos] == LEAF:
            pos += 1
            return LEAF
        if text[pos] == UNIT_TAG:
            pos += 1
            start = pos
            while pos < len(text) and text[pos] not in "(),":
                pos += 1
            if pos == start:
                raise BudgenError("missing color after %r" % UNIT_TAG)
            return (UNIT_TAG, text[start:pos])
        start = pos
        while pos < len(text) and text[pos] not in "(),":
            pos += 1
        name = text[start:pos]
        if not name:
            raise BudgenError("bad term syntax at %d in %r" % (pos, text))
        if pos < len(text) and text[pos] == "(":
            pos += 1
            children = [parse(depth + 1)]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                children.append(parse(depth + 1))
            if pos >= len(text) or text[pos] != ")":
                raise BudgenError("unbalanced parentheses in %r" % text)
            pos += 1
            return tuple([name] + children)
        return (name,)

    t = parse(0)
    if pos != len(text):
        raise BudgenError("trailing characters in term %r" % text)
    return t


# ---------------------------------------------------------------------------
# the term core of the tree-shaped operads


_UNIT_HEADS = (LEAF, UNIT_TAG)  # the first character of a unit: LEAF or UNIT_TAG + c


class TermOperad(Operad):
    """Elements are their canonical term text: LEAF, the unit UNIT_TAG + c
    of a color c, or a node `label(child,..)` whose leaves are LEAF; x o_i
    y splices the text of y in place of the i-th leaf of x.  An element is
    a str, so it hashes once, and it prints as itself.

    Subclasses state one node rule, `_nodes(above, k)`: the pairs
    (label, child contexts) of the nodes with exactly k children allowed
    under the context `above` (None at the root); a child context is the
    `above` of that child.  `elements(n)` and `validate`, which `loads`
    runs on the parsed term of every text, both follow from it.  A
    subclass may also override `_splice`, which says what text y becomes
    in place of the leaf of x at `pos`.
    """

    UNIT = LEAF

    def arity(self, x: str) -> int:
        # labels and generator names hold no LEAF, and a unit is only
        # ever a whole element
        return 1 if x[0] == UNIT_TAG else x.count(LEAF)

    def _compose(self, x: str, i: int, y: str) -> str:
        if x[0] in _UNIT_HEADS:
            return y
        if y[0] in _UNIT_HEADS:
            return x
        pos = -1
        for _ in range(i):
            pos = x.index(LEAF, pos + 1)
        return x[:pos] + self._splice(x, pos, y) + x[pos + 1:]

    def _splice(self, x: str, pos: int, y: str) -> str:
        """The text that the node y becomes in place of the leaf of x at
        `pos`."""
        return y

    def _template(self, x: str):
        # the text of x cut at its leaves
        if x[0] in _UNIT_HEADS:
            return ("", ""), (None,)  # a unit: x o (z) = z
        parts = x.split(LEAF)
        return parts, self._leaf_splices(parts)

    def _leaf_splices(self, parts: list):
        """The splice of each leaf of the element that `parts` cut at its
        leaves, which is not a unit: what a z becomes in its place."""
        return (None,) * (len(parts) - 1)

    def _nodes(self, above, k: int):
        raise NotImplementedError

    def elements(self, n: int):
        def trees(n, above):
            if n == 1:
                yield LEAF
            for k in range(1, n + 1):
                for label, contexts in self._nodes(above, k):
                    for split in _compositions(n, k):
                        for children in product(*[trees(m, c) for m, c
                                                  in zip(split, contexts)]):
                            yield "%s(%s)" % (label, ",".join(children))

        return trees(n, None)

    def validate(self, t) -> None:
        """Check the parsed term t (a tuple, see `loads_term`)."""
        def walk(node, above):
            for label, contexts in self._nodes(above, len(node) - 1):
                if label == node[0]:
                    break
            else:
                raise BudgenError("node %s not allowed in %s"
                                  % (dumps_term(node), dumps_term(t)))
            for child, context in zip(node[1:], contexts):
                if child == LEAF:
                    continue
                if child[0] == UNIT_TAG:
                    # g(!1,*) is g(*,*): a unit is an element only on its own
                    raise BudgenError("unit %s below the root of %s"
                                      % (dumps_term(child), dumps_term(t)))
                walk(child, context)

        if t != LEAF:
            walk(t, None)

    def loads(self, text: str) -> str:
        # loads_term reads every character of the text into the term, so
        # a text it accepts is the canonical text of its term
        self.validate(loads_term(text))
        return text


# ---------------------------------------------------------------------------
# magmatic operad: planar binary trees under leaf grafting


class MagOperad(TermOperad):
    """Binary trees; composition grafts a tree onto the i-th leaf."""

    NODE = "c"

    def corolla(self) -> str:
        return "%s(*,*)" % self.NODE

    def _nodes(self, above, k: int):
        return [(self.NODE, (None, None))] if k == 2 else []


# ---------------------------------------------------------------------------
# pluriassociative operads: words with exactly one 0


# pivot letter p -> the translate table raising each digit below p to p
_DIAS_RAISE = {str(p): str.maketrans({str(a): str(p) for a in range(p)})
               for p in range(10)}
# pivot letter p -> the splice that raises the letters of a word to p
_DIAS_SPLICES = {p: methodcaller("translate", table)
                 for p, table in _DIAS_RAISE.items()}


class DiasOperad(Operad):
    """Words over {0} u [gamma] with exactly one 0, one digit per letter
    (so gamma <= 9).

    u o_i v replaces the i-th letter of u by v', where v' replaces every
    letter a of v by max(a, u_i); `_compose` raises the letters with the
    `str.translate` table of the pivot letter u_i.
    """

    UNIT = "0"

    def __init__(self, gamma: int):
        if gamma < 0:
            raise BudgenError("gamma must be >= 0")
        if gamma > 9:
            raise BudgenError("gamma must be <= 9")
        self.gamma = gamma

    def arity(self, x: str) -> int:
        return len(x)

    def _compose(self, x: str, i: int, y: str) -> str:
        return x[:i - 1] + y.translate(_DIAS_RAISE[x[i - 1]]) + x[i:]

    def _template(self, x: str):
        # one raised word per letter of x, pivoting on that letter
        return ("",) * (len(x) + 1), list(map(_DIAS_SPLICES.__getitem__, x))

    def validate(self, word: str) -> None:
        if word.count("0") != 1:
            raise BudgenError("word must contain exactly one 0: %r" % word)
        for ch in word:
            if not ch.isdigit() or int(ch) > self.gamma:
                raise BudgenError("letter %r outside 0..%d" % (ch, self.gamma))

    def elements(self, n: int):
        letters = [str(a) for a in range(1, self.gamma + 1)]
        for pos in range(n):
            for rest in product(letters, repeat=n - 1):
                yield "".join(rest[:pos]) + "0" + "".join(rest[pos:])


# ---------------------------------------------------------------------------
# operad of Motzkin paths


class MotzOperad(Operad):
    """Motzkin paths as U/H/D step words; arity = number of points.

    a o_i b splices the steps of b at the i-th point of a (between steps
    i-1 and i).
    """

    UNIT = ""

    def arity(self, x: str) -> int:
        return len(x) + 1

    def _compose(self, x: str, i: int, y: str) -> str:
        return x[:i - 1] + y + x[i - 1:]

    def _template(self, x: str):
        # z_1, step 1, z_2, .., step m - 1, z_m
        return ("", *x, ""), (None,) * (len(x) + 1)

    def validate(self, steps: str) -> None:
        height = 0
        for ch in steps:
            if ch == "U":
                height += 1
            elif ch == "D":
                height -= 1
            elif ch != "H":
                raise BudgenError("bad step %r" % ch)
            if height < 0:
                raise BudgenError("path goes below the axis: %r" % steps)
        if height != 0:
            raise BudgenError("path does not end on the axis: %r" % steps)

    def elements(self, n: int):
        def walk(prefix, height, remaining):
            if remaining == 0:
                if height == 0:
                    yield prefix
                return
            if height + remaining < 0 or height > remaining:
                return
            for step, dh in (("U", 1), ("H", 0), ("D", -1)):
                if height + dh >= 0:
                    yield from walk(prefix + step, height + dh, remaining - 1)

        if n >= 1:
            yield from walk("", 0, n - 1)


# ---------------------------------------------------------------------------
# operad of alternating Schroeder trees


class ASchrOperad(TermOperad):
    """Planar trees with internal arity >= 2, nodes labeled a or b, and no
    equal-label parent/child pair.  Grafting merges the grafted root into
    the parent node when their labels coincide.
    """

    LABELS = ("a", "b")

    def corolla(self, label: str) -> str:
        return "%s(*,*)" % label

    def _splice(self, x: str, pos: int, y: str) -> str:
        # the leaf's parent sits at depth d (the root's is 1), and labels
        # alternate along every path, so the parent is labeled like the
        # root of x at odd d and like the other label at even d; when that
        # is the label of y, the children of y merge into the parent
        depth = x.count("(", 0, pos) - x.count(")", 0, pos)
        if (y[0] == x[0]) == (depth % 2 == 1):
            return y[2:-1]
        return y

    def _leaf_splices(self, parts: list):
        # the parent of a leaf at depth d is labeled like the root at odd
        # d and like the other label at even d (see `_splice`); a z whose
        # root has the parent's label merges into the parent
        merges = _MERGES[parts[0][0]]
        depth = parts[0].count("(")  # no node closes before the first leaf
        splices = []
        for tail in parts[1:]:
            splices.append(merges[depth % 2])
            depth += tail.count("(") - tail.count(")")
        return splices

    def _nodes(self, above, k: int):
        # at least 2 children, and never the label of the parent
        return [(label, (label,) * k) for label in self.LABELS
                if label != above] if k >= 2 else []


def _merge_into(label: str):
    """The splice of a leaf whose parent is labeled `label`: the children
    of a z with that root label join the parent."""
    def merge(z: str) -> str:
        return z[2:-1] if z[0] == label else z
    return merge


# root label -> the splices of a leaf whose parent is at even depth
# (labeled with the other label) and at odd depth (with the root's)
_MERGES = {"a": (_merge_into("b"), _merge_into("a")),
           "b": (_merge_into("a"), _merge_into("b"))}


def _compositions(n: int, parts: int):
    """All ways to write n as an ordered sum of `parts` positive integers."""
    if parts == 1:
        if n >= 1:
            yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# free colored operads


class CollectionSpec:
    """A finite list of colored generators (name, output color, input colors)."""

    def __init__(self, generators: Sequence[tuple[str, str, Sequence[str]]],
                 colors: Sequence[str] | None = None):
        self.gens: dict[str, tuple[str, tuple[str, ...]]] = {}
        seen_colors: list[str] = []
        for name, out, ins in generators:
            if not name or any(ch in name for ch in "(),!*:"):
                raise BudgenError("invalid generator name %r" % name)
            if name in self.gens:
                raise BudgenError("duplicate generator name %r" % name)
            ins = tuple(ins)
            if len(ins) < 1:
                raise BudgenError("generator arity must be >= 1")
            self.gens[name] = (out, ins)
            for c in (out,) + ins:
                if c not in seen_colors:
                    seen_colors.append(c)
        if colors is None:
            colors = seen_colors or [MONO]
        for c in seen_colors:
            if c not in colors:
                raise BudgenError("generator color %r not declared" % c)
        for c in colors:
            validate_color_token(c)
        self.colors = tuple(colors)

    def out(self, name: str) -> str:
        return self.gens[name][0]

    def ins(self, name: str) -> tuple[str, ...]:
        return self.gens[name][1]

    def arity(self, name: str) -> int:
        return len(self.gens[name][1])


# the tokens of a term text that ins() reads: a leaf, a node's end, and a
# node's name with its opening parenthesis
_INS_TOKENS = re.compile(r"\*|\)|[^(),]+\(")


class FreeOperad(TermOperad):
    """Free colored operad over a CollectionSpec.

    Elements are term texts: the unit of color c is '!c'; another element
    is `name(child,..)`, each child a '*' leaf, whose color the signature
    of its parent gives, or a further node.
    """

    def __init__(self, spec: CollectionSpec):
        self.spec = spec
        self.colors = spec.colors

    def out(self, x: str) -> str:
        if x[0] == UNIT_TAG:
            return x[1:]
        return self.spec.out(x[:x.index("(")])

    def ins(self, x: str) -> tuple[str, ...]:
        """The input colors of x, read off its text in one scan.  A bud
        element carries its own input word, so only the non-bud API
        asks."""
        if x[0] == UNIT_TAG:
            return (x[1:],)
        colors: list[str] = []
        slots: list = []  # the input colors left at each open node
        for token in _INS_TOKENS.findall(x):
            if token == LEAF:
                colors.append(next(slots[-1]))
            elif token == ")":
                slots.pop()
            else:
                if slots:
                    next(slots[-1])  # this node fills one slot of its parent
                slots.append(iter(self.spec.ins(token[:-1])))
        return tuple(colors)

    def unit(self, c: str) -> str:
        if c not in self.colors:
            raise BudgenError("unknown color %r" % c)
        return UNIT_TAG + c

    def corolla(self, name: str) -> str:
        return "%s(%s)" % (name, ",".join(LEAF * self.spec.arity(name)))

    def _leaf_splices(self, parts: list):
        # a unit grafted on a leaf leaves the leaf
        return (_unit_to_leaf,) * (len(parts) - 1)

    def _nodes(self, above, k: int):
        # the generators of arity k whose output is `above` (at the root,
        # each color in turn), their input colors expected below them
        return [(name, ins) for c in (self.colors if above is None else (above,))
                for name, (out, ins) in self.spec.gens.items()
                if out == c and len(ins) == k]

    def validate(self, t) -> None:
        if t == LEAF:
            raise BudgenError("bare leaf is not an element")
        if t[0] == UNIT_TAG:
            self.unit(t[1])  # rejects an unknown color
        else:
            super().validate(t)

    def elements(self, n: int):
        if any(self.spec.arity(name) == 1 for name in self.spec.gens):
            raise BudgenError(
                "per-arity enumeration needs a signature without arity-1 generators")
        if n == 1:
            yield from map(self.unit, self.colors)
        else:
            yield from super().elements(n)


def _unit_to_leaf(z: str) -> str:
    return LEAF if z[0] == UNIT_TAG else z


def capped_tree_operad(cap: int) -> FreeOperad:
    """Monochrome free operad with one generator per arity 1..cap."""
    if cap < 1:
        raise BudgenError("arity cap must be >= 1")
    gens = [("n%d" % k, MONO, (MONO,) * k) for k in range(1, cap + 1)]
    return FreeOperad(CollectionSpec(gens, colors=(MONO,)))


# ---------------------------------------------------------------------------
# syntax trees over an arbitrary operad (treelike expressions)

# tree nodes: ('!', color) unit leaf, or ('@', element, (children, ...))


def st_leaf(color: str):
    return (UNIT_TAG, color)


def st_node(elem, children):
    return ("@", elem, tuple(children))


def st_degree(t) -> int:
    if t[0] == UNIT_TAG:
        return 0
    return 1 + sum(st_degree(c) for c in t[2])


def st_is_perfect(t) -> bool:
    """True when all root-to-leaf paths have the same length."""
    depths: set[int] = set()

    def walk(node, depth):
        if node[0] == UNIT_TAG:
            depths.add(depth)
        else:
            for c in node[2]:
                walk(c, depth + 1)

    walk(t, 0)
    return len(depths) <= 1


def hook_count(t) -> int:
    """Number of linear extensions of t: deg(t)! / prod of subtree degrees."""
    degs: list[int] = []

    def walk(node) -> int:
        if node[0] == UNIT_TAG:
            return 0
        d = 1 + sum(walk(c) for c in node[2])
        degs.append(d)
        return d

    walk(t)
    num = math.factorial(len(degs))
    for d in degs:
        num, rem = divmod(num, d)
        assert rem == 0
    return num


def _post_order(succ: dict, roots):
    """The vertices reachable from `roots` in the graph `succ` (vertex ->
    iterable of successors), each listed after all of its successors, by
    one depth-first walk with an explicit stack, so that a chain of any
    length is walked; None when a cycle is reachable."""
    order = []
    done: dict = {}  # vertex -> False while on the stack, True once listed
    for root in roots:
        if root in done:
            continue
        done[root] = False
        stack = [(root, iter(succ.get(root, ())))]
        while stack:
            v, successors = stack[-1]
            for w in successors:
                if w not in done:
                    done[w] = False
                    stack.append((w, iter(succ.get(w, ()))))
                    break
                if not done[w]:
                    return None
            else:
                stack.pop()
                done[v] = True
                order.append(v)
    return order


def finitely_factorizing_check(op: Operad, s1) -> tuple[bool, int]:
    """Check that the arity-1 generators admit no color cycle.

    Walks the color graph with an edge out(s) -> in_1(s) per arity-1
    generator; returns (acyclic?, longest chain length in edges), and
    (False, -1) when there is a cycle, a self-loop included.
    """
    succ: dict = {}
    for s in s1:
        if op.arity(s) != 1:
            raise BudgenError("expected an arity-1 element")
        succ.setdefault(op.out(s), set()).add(op.ins(s)[0])
    order = _post_order(succ, succ)
    if order is None:
        return (False, -1)
    longest: dict = {}  # color -> longest chain starting there
    for c in order:
        longest[c] = max((longest[d] + 1 for d in succ.get(c, ())), default=0)
    return (True, max(longest.values(), default=0))


def arity1_chain(op: Operad, elements, what: str) -> int:
    """The longest color chain of the arity-1 part of `elements`, for the
    caps of the computation named `what`; a color cycle raises
    DivergenceError, since the computation would then never stop."""
    ok, chain = finitely_factorizing_check(
        op, [x for x in elements if op.arity(x) == 1])
    if not ok:
        raise DivergenceError(
            "%s diverges: arity-1 support admits a color cycle" % what)
    return chain


def degree_bound(n: int, k: int) -> int:
    """Maximum degree of a treelike expression of an arity-n element when
    the longest arity-1 generator chain has length k."""
    return (n - 1) + (2 * n - 1) * k


def _group_by_color(op: Operad, level: dict) -> dict:
    """{color: [(arity, elem, tree)]} of one degree level elem -> trees."""
    pools: dict = {}
    for e, trees in level.items():
        pool = pools.setdefault(op.out(e), [])
        arity = op.arity(e)
        pool.extend((arity, e, t) for t in trees)
    return pools


def all_treelike(op: Operad, gens, max_arity: int, max_degree: int):
    """All syntax trees over `gens` with arity <= max_arity and degree <=
    max_degree, grouped by evaluated element.  Returns dict elem -> [trees].
    """
    gens = list(gens)
    # by_degree[d]: dict elem -> list of trees of degree exactly d
    by_degree: list[dict] = [{}]
    for c in op.colors:
        by_degree[0].setdefault(op.unit(c), []).append(st_leaf(c))
    # by_color[d]: dict color -> [(arity, elem, tree)] of degree exactly d
    by_color = [_group_by_color(op, by_degree[0])]
    for d in range(1, max_degree + 1):
        level: dict = {}
        for g in gens:
            m = op.arity(g)
            ins = op.ins(g)
            for split in _compositions(d - 1 + m, m):
                # split[j] - 1 is the degree of child j; parts sum to d - 1
                pools = [by_color[s - 1].get(color)
                         for s, color in zip(split, ins)]
                if not all(pools):
                    continue
                min_rest = [0] * (m + 1)
                for j in range(m - 1, -1, -1):
                    min_rest[j] = min_rest[j + 1] + min(
                        a for a, _, _ in pools[j])

                def assign(j, budget, picks):
                    if j == m:
                        value = op.full_compose(g, [p[1] for p in picks])
                        tree = st_node(g, [p[2] for p in picks])
                        level.setdefault(value, []).append(tree)
                        return
                    for entry in pools[j]:
                        if entry[0] + min_rest[j + 1] <= budget:
                            assign(j + 1, budget - entry[0], picks + [entry])

                assign(0, max_arity, [])
        by_degree.append(level)
        by_color.append(_group_by_color(op, level))
    result: dict = {}
    for level in by_degree:
        for elem, trees in level.items():
            result.setdefault(elem, []).extend(trees)
    return result


def treelike_expressions(op: Operad, gens, x):
    """All syntax trees over `gens` evaluating to x, up to the certified
    degree bound, so complete; a color cycle among the arity-1
    generators raises DivergenceError."""
    gens = list(gens)
    k = arity1_chain(op, gens, "treelike expression enumeration")
    table = all_treelike(op, gens, op.arity(x), degree_bound(op.arity(x), k))
    return table.get(x, [])


def left_expression_count(op: Operad, gens, x) -> int:
    """Number of left-nested composition sequences producing x: the sum of
    hook counts over all treelike expressions of x."""
    return sum(hook_count(t) for t in treelike_expressions(op, gens, x))


def s_degree(op: Operad, gens, x) -> int:
    """Maximum degree over the treelike expressions of x."""
    trees = treelike_expressions(op, gens, x)
    if not trees:
        raise NotGeneratedError("element %r is not generated" % (op.dumps(x),))
    return max(st_degree(t) for t in trees)
