"""Compiling grammars into bud generating systems.

Three input formats, one production per line, `LHS -> RHS`:

* context-free grammars: the right side is a space-separated word of
  symbols; the left sides are the variables, everything else is a
  terminal; the first left side is the start symbol; no empty right
  sides.
* regular tree grammars: the right side is a term `f(t,..)` over ranked
  terminals whose leaves are variables or constants (terminals of rank
  zero); ranks are inferred and must be consistent.
* synchronous grammars: the right side is a tree over unlabeled nodes,
  written with the arity-indexed names `n2(..)`, `n3(..)`, .., whose
  leaves are color tokens; a bare color is a unit rule.

One line reader serves the three formats: `#` starts a comment, and a
directive `start: c` (any format) or `terminal: c1 c2 ..` (synchronous
grammars) overrides the default, the first left side or every color;
the last directive of a name wins.

Each compiler returns a BudSystem whose (synchronous) language is in
bijection with the generated language; each has an independent
brute-force enumerator for cross-checking.
"""

from __future__ import annotations

from itertools import product

from .core import MONO, BudgenError, validate_color_token
from .operads import (
    LEAF,
    UNIT_TAG,
    CollectionSpec,
    FreeOperad,
    capped_tree_operad,
    dumps_term,
    loads_term,
)
from .operads import AsOperad
from .systems import BudSystem


def _parse_lines(text: str, directives=("start",)):
    """The productions [(lhs, rhs_text)] of a grammar, in order, and its
    directive values {name: value} (the last one wins); `start` defaults
    to the first left side."""
    productions = []
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            lhs, rhs = line.split("->", 1)
            productions.append((validate_color_token(lhs.strip()),
                                rhs.strip()))
        elif ":" in line:
            name, value = (part.strip() for part in line.split(":", 1))
            if name not in directives:
                raise BudgenError("unknown directive %r" % name)
            values[name] = value
        else:
            raise BudgenError("cannot parse line %r" % raw)
    if not productions:
        raise BudgenError("grammar has no productions")
    values.setdefault("start", productions[0][0])
    return productions, values


# ---------------------------------------------------------------------------
# context-free grammars


class Cfg:
    def __init__(self, start: str, productions):
        self.start = start
        self.productions = tuple(productions)
        self.variables = tuple(dict.fromkeys(lhs for lhs, _ in self.productions))
        terminals = []
        for _, rhs in self.productions:
            for s in rhs:
                if s not in self.variables and s not in terminals:
                    terminals.append(s)
        self.terminals = tuple(terminals)


def parse_cfg(text: str) -> Cfg:
    lines, values = _parse_lines(text)
    productions = []
    for lhs, rhs_text in lines:
        rhs = tuple(rhs_text.split())
        if not rhs:
            raise BudgenError("empty right sides are not supported")
        for s in rhs:
            validate_color_token(s)
        productions.append((lhs, rhs))
    return Cfg(values["start"], productions)


def cfg_to_bud(cfg: Cfg) -> BudSystem:
    """Words of the grammar <-> language elements: a sentential form
    becomes the input-color word of an associative-operad bud element."""
    colors = cfg.variables + cfg.terminals
    if cfg.start not in cfg.variables:
        raise BudgenError("start symbol %r has no production" % cfg.start)
    rules = [(lhs, len(rhs), rhs) for lhs, rhs in cfg.productions]
    return BudSystem(AsOperad(), colors, rules, (cfg.start,), cfg.terminals)


def cfg_bruteforce(cfg: Cfg, max_len: int):
    """All terminal words of length <= max_len, by closure over
    sentential forms of bounded length."""
    variables = set(cfg.variables)
    seen = {(cfg.start,)}
    frontier = [(cfg.start,)]
    while frontier:
        nxt = []
        for form in frontier:
            for pos, symbol in enumerate(form):
                if symbol not in variables:
                    continue
                for lhs, rhs in cfg.productions:
                    if lhs != symbol:
                        continue
                    new = form[:pos] + rhs + form[pos + 1:]
                    if len(new) <= max_len and new not in seen:
                        seen.add(new)
                        nxt.append(new)
        frontier = nxt
    return {form for form in seen
            if all(s not in variables for s in form)}


# ---------------------------------------------------------------------------
# regular tree grammars


class Rtg:
    def __init__(self, start: str, rules):
        self.start = start
        self.rules = tuple(rules)  # (variable, term)
        self.variables = tuple(dict.fromkeys(lhs for lhs, _ in self.rules))
        ranks: dict[str, int] = {}
        for _, t in self.rules:
            self._scan(t, ranks)
        self.ranks = ranks
        self.constants = tuple(sorted(
            name for name, r in ranks.items() if r == 0))

    def _scan(self, t, ranks) -> None:
        name = t[0]
        children = t[1:]
        if name in self.variables:
            if children:
                raise BudgenError("variable %r must be a leaf" % name)
            return
        if name in ranks and ranks[name] != len(children):
            raise BudgenError("terminal %r used with two ranks" % name)
        ranks[name] = len(children)
        for c in children:
            self._scan(c, ranks)


def parse_rtg(text: str) -> Rtg:
    lines, values = _parse_lines(text)
    rules = []
    for lhs, rhs_text in lines:
        t = loads_term(rhs_text)
        if t == LEAF or t[0] == UNIT_TAG:
            raise BudgenError("reserved token in tree %r" % rhs_text)
        rules.append((lhs, t))
    start = values["start"]
    rtg = Rtg(start, rules)
    if start not in rtg.variables:
        raise BudgenError("start symbol %r has no rule" % start)
    return rtg


def _split_leaves(ground: FreeOperad, t):
    """Split a rule tree into (ground element text, word of leaf labels).
    A leaf is a node of length 1: a variable or a constant of a regular
    tree grammar, a color of a synchronous grammar; a bare leaf becomes
    the unit."""
    if len(t) == 1:
        return ground.unit(MONO), (t[0],)
    leaves: list[str] = []

    def walk(node):
        if len(node) == 1:
            leaves.append(node[0])
            return LEAF
        return tuple([node[0]] + [walk(c) for c in node[1:]])

    return dumps_term(walk(t)), tuple(leaves)


def rtg_to_bud(rtg: Rtg) -> BudSystem:
    """Generated trees <-> language elements: the tree shape over
    positive-rank terminals is the ground element and the constants at
    its leaves are the input-color word."""
    for name in rtg.variables:
        if name in rtg.ranks:
            raise BudgenError("%r is both a variable and a terminal" % name)
    gens = [(name, MONO, (MONO,) * r)
            for name, r in sorted(rtg.ranks.items()) if r > 0]
    ground = FreeOperad(CollectionSpec(gens, colors=(MONO,)))
    colors = rtg.variables + rtg.constants
    rules = [(lhs,) + _split_leaves(ground, t) for lhs, t in rtg.rules]
    return BudSystem(ground, colors, rules, (rtg.start,), rtg.constants)


def rtg_bruteforce(rtg: Rtg, max_leaves: int):
    """All generated ground terms with <= max_leaves leaves, by a
    bottom-up fixpoint of at most 64 rounds.  Terms are tuples (name,
    child, ..)."""
    lang: dict[str, set] = {v: set() for v in rtg.variables}

    def leaves(t) -> int:
        if len(t) == 1:
            return 1
        return sum(leaves(c) for c in t[1:])

    def plug(t):
        """All ways to replace the variable leaves of t by derived terms."""
        name = t[0]
        if name in rtg.variables:
            yield from lang[name]
            return
        if len(t) == 1:
            yield t
            return
        for children in product(*(plug(c) for c in t[1:])):
            yield (name,) + children

    for _ in range(64):
        changed = False
        for lhs, t in rtg.rules:
            for term in plug(t):
                if leaves(term) <= max_leaves and term not in lang[lhs]:
                    lang[lhs].add(term)
                    changed = True
        if not changed:
            return lang[rtg.start]
    raise BudgenError("brute-force closure did not stabilize")


def rtg_term_of(system: BudSystem, x):
    """Rebuild the ground term of a language element of a compiled
    regular tree grammar: put the input word back at the leaves."""
    _, g, u = x
    labels = list(u)

    def walk(node):
        if node == LEAF or node[0] == UNIT_TAG:
            return (labels.pop(0),)
        return tuple([node[0]] + [walk(c) for c in node[1:]])

    return walk(loads_term(g))


# ---------------------------------------------------------------------------
# synchronous grammars


class Sg:
    def __init__(self, start: str, terminal, colors, rules):
        self.start = start
        self.terminal = tuple(terminal)
        self.colors = tuple(colors)
        self.rules = tuple(rules)  # (color, term or bare-color leaf)


def parse_sg(text: str) -> Sg:
    lines, values = _parse_lines(text, ("start", "terminal"))
    rules = [(lhs, loads_term(rhs_text)) for lhs, rhs_text in lines]
    colors = []
    for lhs, t in rules:
        if lhs not in colors:
            colors.append(lhs)

    def scan(node):
        if len(node) == 1:
            if node[0] not in colors:
                colors.append(node[0])
            return
        name = node[0]
        if not (name.startswith("n") and name[1:].isdigit()
                and int(name[1:]) == len(node) - 1):
            raise BudgenError("node %r must be n<arity> with matching "
                              "child count" % name)
        for c in node[1:]:
            scan(c)

    for _, t in rules:
        scan(t)
    terminal = values["terminal"].split() if "terminal" in values else colors
    return Sg(values["start"], terminal, colors, rules)


def sg_to_bud(sg: Sg, cap: int | None = None) -> BudSystem:
    """Compile onto the free monochrome operad with one generator per
    arity up to `cap` (default: the largest node arity used)."""
    max_arity = 1
    for _, t in sg.rules:
        for node in _sg_nodes(t):
            max_arity = max(max_arity, len(node) - 1)
    if cap is None:
        cap = max_arity
    if cap < max_arity:
        raise BudgenError("arity cap %d below the largest rule node %d"
                          % (cap, max_arity))
    ground = capped_tree_operad(cap)
    rules = [(lhs,) + _split_leaves(ground, t) for lhs, t in sg.rules]
    return BudSystem(ground, sg.colors, rules, (sg.start,), sg.terminal)


def _sg_nodes(t):
    if len(t) > 1:
        yield t
        for c in t[1:]:
            yield from _sg_nodes(c)


def sg_bruteforce(sg: Sg, depth: int):
    """All synchronously generated trees of derivation depth <= depth
    whose leaves are all terminal.  Trees use the rule term syntax, with
    bare-color leaves."""
    by_color: dict[str, list] = {}
    for lhs, t in sg.rules:
        by_color.setdefault(lhs, []).append(t)
    current = {(sg.start,)}
    terminal = set(sg.terminal)
    result = set()

    def finished(t) -> bool:
        if len(t) == 1:
            return t[0] in terminal
        return all(finished(c) for c in t[1:])

    def expand(t):
        """Replace every leaf of t by a rule tree, in all ways."""
        if len(t) == 1:
            yield from by_color.get(t[0], [])
            return
        for children in product(*(expand(c) for c in t[1:])):
            yield (t[0],) + children

    for step in range(depth + 1):
        result.update(t for t in current if finished(t))
        if step < depth:
            current = {t2 for t in current for t2 in expand(t)}
    return result


# the rule-syntax tree of a synchronous-language element of a compiled
# synchronous grammar is rebuilt the same way: labels back at the leaves
sg_term_of = rtg_term_of
