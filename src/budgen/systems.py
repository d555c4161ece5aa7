"""Bud generating systems: rules, derivations, languages, and their series.

A system is (ground operad, colors, rules, initial colors, terminal
colors).  Rules are elements of the bud operad; derivation applies one
rule at one input, synchronous derivation applies one rule at every
input.  The three generating series are

    hook = i (.) r^{<-*} (.) t      (left-expression counts)
    synt = i (.) (u - r)^{(.)-1} (.) t   (treelike-expression counts)
    sync = i (.) r^{(.)*} (.) t     (perfect-expression counts)

whose supports are the language and the synchronous language.

A system's JSON form (`system_dumps`) is the file that `--system`
reads.  Each preset of `builtin` is such a form, a row of `_PRESETS`,
and loads through `system_from_json` as a system file does.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, Sequence

from .core import MONO, BudgenError, BudOperad, Operad
from .operads import (
    ASchrOperad,
    AsOperad,
    CollectionSpec,
    DiasOperad,
    FreeOperad,
    LEAF,
    MagOperad,
    MotzOperad,
    _post_order,
    arity1_chain,
    finitely_factorizing_check,
)
from . import series as S


# the most vertices derivation_graph builds: bbu at arity 5 has 57,909,
# and the graph grows about 16x per arity there
GRAPH_VERTEX_BUDGET = 100_000


class BudSystem:
    """A bud generating system over a monochrome ground operad."""

    def __init__(self, ground: Operad, colors: Sequence[str],
                 rules: Iterable, initial: Sequence[str],
                 terminal: Sequence[str]):
        self.ground = ground
        self.bud = BudOperad(ground, colors)
        self.colors = self.bud.colors
        checked = []
        for out, g, ins in rules:
            checked.append(self.bud.element(out, g, ins))
        if len(set(checked)) != len(checked):
            raise BudgenError("duplicate rules")
        self.rules = tuple(checked)
        for c in tuple(initial) + tuple(terminal):
            if c not in self.colors:
                raise BudgenError("unknown color %r" % c)
        self.initial = tuple(dict.fromkeys(initial))
        self.terminal = tuple(dict.fromkeys(terminal))
        self._cache: dict = {}

    def ff_check(self) -> tuple[bool, int]:
        """Acyclicity check and longest chain for the arity-1 rules."""
        s1 = [r for r in self.rules if self.bud.arity(r) == 1]
        return finitely_factorizing_check(self.bud, s1)

    # -- series ------------------------------------------------------------

    def rule_series(self, bound: int) -> S.Series:
        """The rules of arity <= bound; a tree holding a larger rule has a
        larger arity, so truncation drops those rules."""
        return S.characteristic(
            self.bud, [r for r in self.rules if self.bud.arity(r) <= bound],
            bound)

    def _filtered(self, middle: S.Series, bound: int) -> S.Series:
        """i (.) middle: the terms whose output color is initial (all of
        them when every color is).  The middle is built up from the units
        of the terminal colors only (`inputs=`), so its input colors are
        all terminal already."""
        if len(self.initial) == len(self.colors):
            return middle
        initial = set(self.initial)
        return S.Series._unchecked(self.bud, bound, {
            x: c for x, c in middle.coeffs.items() if x[0] in initial})

    def _series(self, kind: str, bound: int, middle) -> S.Series:
        """i (.) middle(r, t), cached per kind and bound."""
        key = (kind, bound)
        if key not in self._cache:
            m = middle(self.rule_series(bound), self.terminal)
            self._cache[key] = self._filtered(m, bound)
        return self._cache[key]

    def _tree_sum(self, r: S.Series, labeled: bool):
        """The tree sum of the rules r composed with the terminal units
        (see `series._graded_tree_sum`), whose last slice builds only the
        terms that i (.) can keep; a rule equal to a unit is an arity-1
        color cycle, which diverges."""
        chain = arity1_chain(self.bud, r.coeffs, "pre-Lie star" if labeled
                             else "composition inverse")
        return S._graded_tree_sum(self.bud, r.coeffs, r.bound, chain,
                                  self.terminal, labeled=labeled,
                                  outputs=self.initial)

    def hook_series(self, bound: int) -> S.Series:
        """i (.) r^{<-*} (.) t.  Its run yields the syntactic series of
        the same bound too, which is cached unless it is already."""
        key = ("hook", bound)
        if key not in self._cache:
            hook, synt = (S.Series._unchecked(self.bud, bound, sums) for sums
                          in self._tree_sum(self.rule_series(bound), True))
            self._cache[key] = self._filtered(hook, bound)
            self._cache.setdefault(("synt", bound), self._filtered(synt, bound))
        return self._cache[key]

    def synt_series(self, bound: int) -> S.Series:
        """i (.) (u - r)^{(.)-1} (.) t, as the tree sum over the rules."""
        return self._series("synt", bound, lambda r, t: S.Series._unchecked(
            self.bud, bound, self._tree_sum(r, False)))

    def sync_series(self, bound: int) -> S.Series:
        return self._series("sync", bound, S.compose_star)

    def language(self, bound: int) -> set:
        return self.synt_series(bound).support()

    def sync_language(self, bound: int) -> set:
        return self.sync_series(bound).support()

    # -- verdicts (certificates up to the bound only) ------------------------

    def is_unambiguous(self, bound: int) -> bool:
        return S.zero_one_coefficients(self.synt_series(bound))

    def is_sync_unambiguous(self, bound: int) -> bool:
        return S.zero_one_coefficients(self.sync_series(bound))

    def is_faithful(self, bound: int) -> bool:
        return _faithful(self.language(bound))

    def is_sync_faithful(self, bound: int) -> bool:
        return _faithful(self.sync_language(bound))

    # -- derivations ---------------------------------------------------------

    def successors(self, x, bound: int) -> Counter:
        """One-step derivations x -> x o_i r of arity <= bound, with
        multiplicities: the terms of the pre-Lie product x <- r."""
        return Counter(self._steps(x, bound, False))

    def sync_successors(self, x, bound: int) -> Counter:
        """One-step synchronous derivations x -> x o [r_1..r_n] of arity
        <= bound, with multiplicities: the terms of x (.) r."""
        return Counter(self._steps(x, bound, True))

    def _steps(self, x, bound: int, synchronous: bool, pools=None) -> dict:
        """The terms of x <- r (of x (.) r) of arity <= bound, from the
        products' one-term kernels on the pools of r."""
        if pools is None:
            pools = S._pools_of(self.rule_series(bound))
        steps: dict = {}
        if synchronous:
            S._substitute(self.bud, x, 1, pools, 1, bound, steps)
        else:
            S._pre_lie_term(self.bud, x, 1, pools, bound, steps)
        return steps

    def derivation_graph(self, bound: int, synchronous: bool = False):
        """BFS closure from the initial units, restricted to arity <= bound:
        each vertex x is expanded once, into the terms of x <- r (or of
        x (.) r).  An arity-1 rule on a color cycle makes the closure
        infinite; a graph above GRAPH_VERTEX_BUDGET vertices raises
        BudgenError."""
        arity1_chain(self.bud, self.rules, "derivation graph")
        pools = S._pools_of(self.rule_series(bound))
        frontier = [self.bud.unit(c) for c in self.initial]
        vertices = set(frontier)
        edges: dict = {}
        while frontier:
            nxt = []
            for x in frontier:
                for y, mult in self._steps(x, bound, synchronous,
                                           pools).items():
                    edges[(x, y)] = mult
                    if y not in vertices:
                        if len(vertices) == GRAPH_VERTEX_BUDGET:
                            raise BudgenError(
                                "derivation graph exceeds %d vertices at "
                                "arity bound %d" % (GRAPH_VERTEX_BUDGET, bound))
                        vertices.add(y)
                        nxt.append(y)
            frontier = nxt
        return DerivGraph(self, vertices, edges)


def _faithful(lang: set) -> bool:
    """No two elements of lang share a ground element: the 0/1 test of
    the pruned characteristic series, without building it."""
    return len({x[1] for x in lang}) == len(lang)


class DerivGraph:
    """Derivation multigraph; edge multiplicities count rule applications."""

    def __init__(self, system: BudSystem, vertices: set, edges: dict):
        self.system = system
        self.vertices = vertices
        self.edges = edges
        self._succ: dict = {}  # x -> {y: multiplicity of x -> y}
        self._paths: dict = {}  # source -> {vertex: path count}
        for (x, y), mult in edges.items():
            self._succ.setdefault(x, {})[y] = mult

    def multipath_count(self, src, dst) -> int:
        """Directed paths from src to dst, counting edge multiplicities."""
        return self._paths_from(src).get(dst, 0)

    def _paths_from(self, src) -> dict:
        """Path counts from src to every vertex it reaches, in one pass
        over the reverse post-order of the walk from src; cached per
        source.  A cycle reachable from src raises BudgenError."""
        table = self._paths.get(src)
        if table is not None:
            return table
        order = _post_order(self._succ, (src,))
        if order is None:
            raise BudgenError("derivation graph has a cycle")
        table = {src: 1}
        for v in reversed(order):
            count = table[v]
            for w, mult in self._succ.get(v, {}).items():
                table[w] = table.get(w, 0) + mult * count
        self._paths[src] = table
        return table

    def serialized(self) -> tuple[list, list]:
        """The vertices as text, and the edges as (x text, y text,
        multiplicity), both ordered by the (arity, serialization) keys
        (of x, then of y); each vertex is serialized once."""
        op = self.system.bud
        key = {v: op.key(v) for v in self.vertices}
        vertices = [text for _, text in sorted(key.values())]
        edges = [(key[x][1], key[y][1], self.edges[(x, y)])
                 for x, y in sorted(self.edges,
                                    key=lambda e: (key[e[0]], key[e[1]]))]
        return vertices, edges

    def to_dot(self) -> str:
        vertices, edges = self.serialized()
        lines = ["digraph derivations {"]
        lines.extend('  "%s";' % v for v in vertices)
        for x, y, mult in edges:
            lines.extend(['  "%s" -> "%s";' % (x, y)] * mult)
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON interchange


# the ground kinds without parameters
_GROUND_KINDS = {"as": AsOperad, "mag": MagOperad, "motz": MotzOperad,
                 "aschr": ASchrOperad}


def _ground(kind: str, **params) -> dict:
    return {"kind": kind, "params": params}


def _free(gens) -> dict:
    """A monochrome free ground; `gens` are (name, arity) pairs."""
    return _ground("free", generators=[{"name": name, "arity": k}
                                       for name, k in gens])


def ground_to_json(ground: Operad) -> dict:
    for kind, cls in _GROUND_KINDS.items():
        if isinstance(ground, cls):
            return _ground(kind)
    if isinstance(ground, DiasOperad):
        return _ground("dias", gamma=ground.gamma)
    if isinstance(ground, FreeOperad):
        return _free((name, len(ins))
                     for name, (_, ins) in ground.spec.gens.items())
    raise BudgenError("unsupported ground operad")


def _typed(value, kind: type, field: str):
    """value, if it is a JSON list or integer as `kind` asks: a string
    would split into one color per letter, and int() would read 2.5 as 2
    and true as 1."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise BudgenError("malformed system file: %s must be %s" % (
            field, "a list" if kind is list else "an integer"))
    return value


def ground_from_json(data: dict) -> Operad:
    kind = data.get("kind")
    params = data.get("params", {})
    for name, cls in _GROUND_KINDS.items():
        if kind == name:
            return cls()
    if kind == "dias":
        return DiasOperad(_typed(params["gamma"], int, "gamma"))
    if kind == "free":
        gens = [(g["name"], MONO, (MONO,) * _typed(g["arity"], int, "arity"))
                for g in params["generators"]]
        return FreeOperad(CollectionSpec(gens, colors=(MONO,)))
    raise BudgenError("unknown ground kind %r" % kind)


def _form(ground: dict, colors, rules, initial, terminal) -> dict:
    """The JSON form of a system; rules are (out, element text, input
    word), and a sequence of colors may be a string of one-character
    colors."""
    return {"ground": ground, "colors": list(colors),
            "rules": [{"out": out, "elem": elem, "ins": list(ins)}
                      for out, elem, ins in rules],
            "initial": list(initial), "terminal": list(terminal)}


def system_to_json(system: BudSystem) -> dict:
    dumps = system.ground.dumps
    return _form(ground_to_json(system.ground), system.colors,
                 [(out, dumps(g), ins) for out, g, ins in system.rules],
                 system.initial, system.terminal)


def system_from_json(data: dict) -> BudSystem:
    """Build a system from its JSON form; a missing field, or a field of
    the wrong type, raises BudgenError."""
    try:
        ground = ground_from_json(data["ground"])
        rules = [(r["out"], ground.loads(r["elem"]),
                  tuple(_typed(r["ins"], list, "ins")))
                 for r in data["rules"]]
        return BudSystem(ground, _typed(data["colors"], list, "colors"),
                         rules, _typed(data["initial"], list, "initial"),
                         _typed(data["terminal"], list, "terminal"))
    except KeyError as exc:
        raise BudgenError("malformed system file: missing field %s" % exc)
    except (TypeError, ValueError, AttributeError) as exc:
        raise BudgenError("malformed system file: %s" % exc)


def system_dumps(system: BudSystem) -> str:
    return json.dumps(system_to_json(system), indent=2) + "\n"


def system_loads(text: str) -> BudSystem:
    return system_from_json(json.loads(text))


# ---------------------------------------------------------------------------
# presets


# name -> the arguments of _form
_PRESETS = {
    "motz-nohh": (_ground("motz"), "12",
                  [("1", "H", "22"), ("1", "UD", "111")], "1", "12"),
    "aschr-catalan": (_ground("aschr"), "12",
                      [("1", "a(*,*)", "12"), ("2", "b(*,*)", "12")],
                      "1", "12"),
    "unary-binary": (_free([("a", 1), ("b", 1), ("c", 2)]), "12",
                     [("1", "a(*)", "2"), ("1", "b(*)", "2"),
                      ("2", "c(*,*)", "11")], "1", "2"),
    "bbt": (_ground("mag"), "12",
            [("1", "c(*,*)", "11"), ("1", "c(*,*)", "12"),
             ("1", "c(*,*)", "21"), ("2", "*", "1")], "1", "1"),
    "tamari-max-trees": (_ground("mag"), "123",
                         [("1", "c(*,*)", "11"), ("1", "c(*,*)", "21"),
                          ("1", "c(*,*)", "32"), ("2", "*", "1"),
                          ("3", "c(*,*)", "21")], "1", "1"),
    "tamari-balanced-intervals": (
        _free([("a", 2), ("b", 2)]), "123",
        [("1", "a(*,*)", "11"), ("1", "a(*,*)", "12"), ("1", "a(*,*)", "21"),
         ("1", "b(*,*)", "32"), ("2", "!1", "1"),
         ("3", "a(*,*)", "11"), ("3", "a(*,*)", "12")], "1", "1"),
    "tamari-max-intervals": (
        _free([("a", 2), ("b", 2)]), "12345",
        [("1", "a(*,*)", "11"), ("1", "a(*,*)", "24"), ("1", "a(*,*)", "52"),
         ("1", "b(*,*)", "32"), ("2", "!1", "1"),
         ("3", "a(*,*)", "11"), ("3", "a(*,*)", "12"),
         ("4", "b(*,*)", "32"), ("4", "a(*,*)", "52"),
         ("5", "a(*,*)", "24"), ("5", "b(*,*)", "32")], "1", "1"),
    "hook-mag": (_ground("mag"), "1", [("1", "c(*,*)", "11")], "1", "1"),
    "hook-motz": (_ground("motz"), "1",
                  [("1", "H", "11"), ("1", "UD", "111")], "1", "1"),
}


_BUILTIN_ALIASES = {"bp": "motz-nohh", "bs": "aschr-catalan",
                    "bbu": "unary-binary", "b1": "tamari-max-trees",
                    "b2": "tamari-balanced-intervals",
                    "b3": "tamari-max-intervals", "bperfect": "btree"}

BUILTIN_NAMES = ("bdias", "motz-nohh", "aschr-catalan", "unary-binary",
                 "btree", "bbt", "tamari-max-trees",
                 "tamari-balanced-intervals", "tamari-max-intervals",
                 "hook-mag", "hook-motz")


def builtin(name: str, gamma: int | None = None,
            arities: Sequence[int] | None = None) -> BudSystem:
    """Construct a named preset system.  `gamma` is the parameter of
    bdias and `arities` that of btree; no other preset takes either."""
    name = _BUILTIN_ALIASES.get(name, name)
    if name not in BUILTIN_NAMES:
        raise BudgenError("unknown preset %r" % name)
    if gamma is not None and name != "bdias":
        raise BudgenError("--gamma applies to the bdias preset only")
    if arities is not None and name != "btree":
        raise BudgenError("--arities applies to the btree preset only")
    if name == "bdias":
        if type(gamma) is not int:
            raise BudgenError("bdias needs --gamma" if gamma is None
                              else "gamma must be an integer")
        rules = [("1", word, "11") for a in range(1, gamma + 1)
                 for word in ("0%d" % a, "%d0" % a)]
        form = (_ground("dias", gamma=gamma), "1", rules, "1", "1")
    elif name == "btree":
        if not arities:
            raise BudgenError("btree needs --arities")
        if any(type(n) is not int or n < 1 for n in arities):
            raise BudgenError("arities must be positive integers")
        arities = sorted(set(arities))
        rules = [("1", "a%d(%s)" % (n, ",".join(LEAF * n)), "1" * n)
                 for n in arities]
        form = (_free(("a%d" % n, n) for n in arities), "1", rules, "1", "1")
    else:
        form = _PRESETS[name]
    return system_from_json(_form(*form))
