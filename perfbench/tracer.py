"""Layer tracing of budgen from outside the library.

`Tracer.install` replaces functions and methods of the budgen modules
with wrappers, by setting module and class attributes at run time;
`uninstall` puts the originals back.  Public module-level functions get
call counters; the layer boundaries listed in SPANS get spans (name,
start, end, parent); the hot leaf methods listed in COUNTED get counters
only, and a strided sample of their arguments is kept for a replay that
times them per call.  Spans stay in memory until `summary` folds them
into additive totals, so the totals of several processes can be summed
and turned into the per-layer metrics by `layer_metrics`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from statistics import median

# (module, attribute path) -> span name
SPANS = {
    ("operads", "finitely_factorizing_check"): "operads.ff_check",
    ("series", "Series.__init__"): "series.init",
    ("series", "Series.dumps"): "series.dumps",
    ("series", "add"): "series.add",
    ("series", "pre_lie"): "series.pre_lie",
    ("series", "compose_prod"): "series.compose_prod",
    ("series", "pre_lie_star"): "series.pre_lie_star",
    ("series", "compose_star"): "series.compose_star",
    ("series", "compose_inverse"): "series.compose_inverse",
    ("series", "colt_table"): "series.colt_table",
    ("systems", "BudSystem.hook_series"): "systems.hook",
    ("systems", "BudSystem.synt_series"): "systems.synt",
    ("systems", "BudSystem.sync_series"): "systems.sync",
    ("systems", "BudSystem.is_unambiguous"): "systems.verdict",
    ("systems", "BudSystem.is_sync_unambiguous"): "systems.verdict",
    ("systems", "BudSystem.is_faithful"): "systems.verdict",
    ("systems", "BudSystem.is_sync_faithful"): "systems.verdict",
    ("systems", "BudSystem.derivation_graph"): "systems.graph",
    ("systems", "DerivGraph.multipath_count"): "systems.graph",
    ("systems", "DerivGraph.to_dot"): "systems.graph",
    ("typecount", "lang_counting_series"): "typecount.counting",
    ("typecount", "sync_counting_series"): "typecount.counting",
    ("typecount", "colt_synt_coeff"): "typecount.colt",
    ("typecount", "colt_sync_coeff"): "typecount.colt",
    ("typecount", "solve_synt_system"): "typecount.functional",
    ("typecount", "solve_sync_system"): "typecount.functional",
    ("typecount", "sync_iterates"): "typecount.functional",
    ("typecount", "refined_perfect"): "typecount.refined_perfect",
    ("grammars", "parse_cfg"): "grammars.parse",
    ("grammars", "parse_rtg"): "grammars.parse",
    ("grammars", "parse_sg"): "grammars.parse",
    ("grammars", "cfg_to_bud"): "grammars.compile",
    ("grammars", "rtg_to_bud"): "grammars.compile",
    ("grammars", "sg_to_bud"): "grammars.compile",
}

# hot methods: counter name and the stride of the argument sample (0: none)
COUNTED = {
    ("core", "BudOperad.compose"): ("core.compose", 61),
    ("core", "BudOperad.full_compose"): ("core.full_compose", 0),
    ("systems", "BudSystem.successors"): ("systems.successors", 0),
    ("systems", "BudSystem.sync_successors"): ("systems.successors", 0),
}
# methods of every ground operad class (each Operad subclass but BudOperad)
GROUND_COUNTED = {"arity": ("operads.arity", 997),
                  "compose": ("operads.compose", 61),
                  "ins": ("operads.ins", 0)}

MODULES = ("core", "operads", "series", "systems", "typecount", "grammars",
           "cli")
SAMPLE_CAP = 3000
PRODUCTS = ("series.pre_lie", "series.compose_prod")
STARS = ("series.pre_lie_star", "series.compose_star")
FIXPOINTS = STARS + ("series.compose_inverse",)
SYSTEM_SERIES = ("systems.hook", "systems.synt", "systems.sync")
_MISSING = object()


def _terms(args, result):
    return len(result.coeffs)


def _terms_bound(args, result):
    return len(result.coeffs), args[0].bound


# what a span keeps of its call, by span name
INFO = {
    "series.init": lambda args, result: len(args[0].coeffs),
    "series.pre_lie": _terms,
    "series.compose_prod": _terms,
    "series.pre_lie_star": _terms_bound,
    "series.compose_star": _terms_bound,
    "series.compose_inverse": _terms_bound,
    "systems.hook": _terms,
    "systems.synt": _terms,
    "systems.sync": _terms,
    "systems.graph": lambda args, result: (len(result.vertices)
                                           if hasattr(result, "vertices")
                                           else None),
    "operads.ff_check": lambda args, result: result[1],
}


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list = []     # [name, start, end, parent, info, c0, c1]
        self.stack: list = []
        self.samples: dict = {}
        self._patches: list = []
        self._degree_bound = None

    # -- wrappers ------------------------------------------------------------

    def _counter(self, name, func, stride):
        counts = self.counts
        if not stride:
            def counted(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            counted.__wrapped__ = func
            return counted
        samples = self.samples.setdefault(name, [])

        def sampled(*args):
            n = counts[name] = counts[name] + 1
            if n % stride == 0 and len(samples) < SAMPLE_CAP:
                samples.append((func, args))
            return func(*args)
        sampled.__wrapped__ = func
        return sampled

    def _span(self, name, func):
        spans, stack, counts = self.spans, self.stack, self.counts
        info = INFO.get(name)
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None,
                   counts["core.compose"], 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
                rec[6] = counts["core.compose"]
            if info is not None:
                rec[4] = info(args, result)
            return result
        return spanned

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        old = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the budgen modules, which must be imported already, and
        sympy.expand when sympy is loaded (this never imports it)."""
        mods = {m: sys.modules["budgen." + m] for m in MODULES}
        from budgen import core, operads
        self._degree_bound = operads.degree_bound
        namespaces = [sys.modules["budgen"]] + list(mods.values())
        replaced: dict = {}
        for (mod, path), name in SPANS.items():
            self._wrap(mods[mod], path, lambda f, n=name: self._span(n, f),
                       replaced)
        for (mod, path), (name, stride) in COUNTED.items():
            self._wrap(mods[mod], path,
                       lambda f, n=name, s=stride: self._counter(n, f, s),
                       replaced)
        for mod_name, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(value)
                        or isinstance(value, type)
                        or getattr(value, "__module__", None) != mod.__name__
                        or value in replaced):
                    continue
                replaced[value] = self._counter(
                    "%s.%s" % (mod_name, attr), value, 0)
        for cls in _ground_classes(core.Operad, core.BudOperad):
            for attr, (name, stride) in GROUND_COUNTED.items():
                func = getattr(cls, attr)
                func = getattr(func, "__wrapped__", func)
                self._set(cls, attr, self._counter(name, func, stride))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if callable(value) and value in replaced:
                    self._set(ns, attr, replaced[value])
        if "sympy" in sys.modules:
            sp = sys.modules["sympy"]
            self._set(sp, "expand", self._counter("sympy.expand", sp.expand,
                                                  0))

    def _wrap(self, module, path, make, replaced):
        owner = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        wrapper = make(original)
        if owner is module:
            replaced[original] = wrapper
        else:
            self._set(owner, parts[-1], wrapper)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def replay(self, repeats=5):
        """Time the sampled calls again, unwrapped, in a tight loop; the
        best of `repeats` rounds.  Call after `uninstall`."""
        out = {}
        for name, samples in self.samples.items():
            if not samples:
                continue
            best = float("inf")
            for _ in range(repeats):
                t = time.perf_counter()
                for func, args in samples:
                    func(*args)
                best = min(best, time.perf_counter() - t)
            out["replay_t." + name] = best
            out["replay_n." + name] = len(samples)
        return out

    def finish(self, import_s) -> dict:
        """Uninstall, then the totals of this process: spans, counters,
        replayed per-call times, and the import time and loaded modules
        of the cli layer."""
        self.uninstall()
        totals = self.summary()
        totals.update(self.replay())
        totals.update({"cli.import_s": import_s, "cli.processes": 1,
                       "cli.sympy_loaded": int("sympy" in sys.modules),
                       "cli.networkx_loaded": int("networkx" in sys.modules)})
        return totals

    def summary(self) -> dict:
        """Additive totals of the counters and spans of this process."""
        s: Counter = Counter()
        for name, n in self.counts.items():
            s["n." + name] += n
        spans = self.spans
        children: dict = {}
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                children.setdefault(rec[3], []).append(i)
        for i, (name, t0, t1, parent, info, c0, c1) in enumerate(spans):
            dur = t1 - t0
            kids = [spans[k] for k in children.get(i, ())]
            pname = spans[parent][0] if parent >= 0 else None
            s["n." + name] += 1
            s["t." + name] += dur
            s["self." + name] += dur - sum(k[2] - k[1] for k in kids)
            if name in PRODUCTS:
                if pname in STARS:
                    s["star.rounds"] += 1
                if pname in SYSTEM_SERIES:
                    s["t.filter"] += dur
            elif name == "systems.verdict" and pname == "typecount.counting":
                s["t.probe"] += dur
            elif name == "typecount.colt" and pname == "typecount.counting":
                s["t.recurrence"] += dur
            elif name == "typecount.functional" and pname != name:
                s["t.functional_top"] += dur
            if info is None:  # the call raised, or keeps nothing
                continue
            if name == "series.init":
                s["terms.series.init"] += info
            elif name in PRODUCTS:
                s["prod.compositions"] += c1 - c0
                s["prod.terms"] += info
            elif name in STARS:
                chains = [k[4] for k in kids if k[0] == "operads.ff_check"]
                if chains:
                    s["star.cap"] += self._degree_bound(info[1], chains[0]) + 2
            elif name in SYSTEM_SERIES:
                s["series.requests"] += 1
                fix = [k[4] for k in kids
                       if k[0] in FIXPOINTS and k[4] is not None]
                if not kids:
                    s["series.hits"] += 1
                elif fix:
                    s["filter.out"] += info
                    s["filter.in"] += fix[0][0]
            elif name == "systems.graph":
                s["graph.vertices"] += info
        return dict(s)


def _ground_classes(base, exclude):
    found, todo = [], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub is not exclude and sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _ratio(a, b):
    return a / b if b else 0.0


def _us(s, name):
    return _ratio(s.get("replay_t." + name, 0.0),
                  s.get("replay_n." + name, 0)) * 1e6


def layer_metrics(s: dict) -> dict:
    """Per-layer metrics from summed `summary` totals (plus the cli.*
    totals the worker adds)."""
    g = lambda key: s.get(key, 0)  # noqa: E731
    m = {
        "operads.compose_calls": g("n.operads.compose"),
        "operads.arity_calls": g("n.operads.arity"),
        "operads.ins_calls": g("n.operads.ins"),
        "operads.ff_check_calls": g("n.operads.ff_check"),
        "operads.ff_check_s": g("t.operads.ff_check"),
        "operads.compose_us": _us(s, "operads.compose"),
        "operads.arity_us": _us(s, "operads.arity"),
        "core.compose_calls": g("n.core.compose"),
        "core.full_compose_calls": g("n.core.full_compose"),
        "core.compose_us": _us(s, "core.compose"),
        "series.pre_lie_calls": g("n.series.pre_lie"),
        "series.pre_lie_s": g("t.series.pre_lie"),
        "series.compose_prod_calls": g("n.series.compose_prod"),
        "series.compose_prod_s": g("t.series.compose_prod"),
        "series.compositions_per_term": _ratio(g("prod.compositions"),
                                               g("prod.terms")),
        "series.init_calls": g("n.series.init"),
        "series.init_terms": g("terms.series.init"),
        "series.init_s": g("t.series.init"),
        "series.add_s": g("t.series.add"),
        "series.dumps_s": g("t.series.dumps"),
        "series.pre_lie_star_s": g("self.series.pre_lie_star"),
        "series.compose_star_s": g("self.series.compose_star"),
        "series.compose_inverse_s": g("self.series.compose_inverse"),
        "series.star_rounds": g("star.rounds"),
        "series.star_rounds_per_cap": _ratio(g("star.rounds"), g("star.cap")),
        "systems.hook_s": g("t.systems.hook"),
        "systems.synt_s": g("t.systems.synt"),
        "systems.sync_s": g("t.systems.sync"),
        "systems.filter_s": g("t.filter"),
        "systems.filter_keep": _ratio(g("filter.out"), g("filter.in")),
        "systems.cache_hit_ratio": _ratio(g("series.hits"),
                                          g("series.requests")),
        "systems.verdict_s": g("t.systems.verdict"),
        "systems.graph_s": g("t.systems.graph"),
        "systems.graph_vertices": g("graph.vertices"),
        "systems.successor_calls": g("n.systems.successors"),
        "typecount.counting_s": g("t.typecount.counting"),
        "typecount.probe_s": g("t.probe"),
        "typecount.recurrence_share": _ratio(g("t.recurrence"),
                                             g("t.typecount.counting")),
        "typecount.colt_calls": g("n.typecount.colt"),
        "typecount.functional_s": g("t.functional_top"),
        "typecount.expand_calls": g("n.sympy.expand"),
        "typecount.refined_perfect_s": g("t.typecount.refined_perfect"),
        "grammars.parse_s": g("t.grammars.parse"),
        "grammars.compile_s": g("t.grammars.compile"),
        "cli.import_s": _ratio(g("cli.import_s"), g("cli.processes")),
        "cli.exec_s": _ratio(g("cli.exec_s"), g("cli.commands")),
        "cli.sympy_loaded": _ratio(g("cli.sympy_loaded"), g("cli.processes")),
        "cli.networkx_loaded": _ratio(g("cli.networkx_loaded"),
                                      g("cli.processes")),
    }
    return m


COUNT_SUFFIXES = ("_calls", "_terms", "_rounds", "_vertices", "_counts",
                  "_open")
COUNT_RATIOS = ("series.compositions_per_term", "series.star_rounds_per_cap",
                "systems.filter_keep", "systems.cache_hit_ratio",
                "cli.sympy_loaded", "cli.networkx_loaded")


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly across hash seeds."""
    return name.endswith(COUNT_SUFFIXES) or name in COUNT_RATIOS


def unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith(COUNT_SUFFIXES) else "ratio"


def merge_passes(per_pass: list) -> tuple[dict, list]:
    """Median over traced passes; a count that differs between passes
    is reported as a timing (its median) and named in the second result."""
    names = per_pass[0].keys()
    merged, unstable = {}, []
    for name in names:
        values = [p[name] for p in per_pass]
        merged[name] = median(values)
        if is_count(name) and len(set(values)) > 1:
            unstable.append(name)
    return merged, unstable
