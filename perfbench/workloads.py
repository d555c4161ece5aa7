"""Request mixes of the three workloads, built from the seed.

Nothing here imports budgen: the runner uses these lists to plan passes
and the worker turns them into calls.  Each workload is closed-loop with
one client: the next request starts when the previous one returns.
"""

from __future__ import annotations

import random

# series: one session per system.  (label, source, bound, graph bound,
# synchronous graph).  A source is ("builtin", name, kwargs) or
# ("grammar", file under data/, kwargs of the compiler).  The bounds are
# lowered from the ones a user would ask for so that a pass takes a few
# seconds; every ground operad is still in the mix.
SERIES_MIX = [
    ("bbu", ("builtin", "bbu", {}), 4, 3, False),            # FreeOperad, arity-1 rules
    ("bbt", ("builtin", "bbt", {}), 6, 5, True),             # MagOperad
    ("b2", ("builtin", "b2", {}), 4, 4, True),               # FreeOperad, 3 colors
    ("b3", ("builtin", "b3", {}), 4, 4, True),               # FreeOperad, 5 colors
    ("perfect23", ("grammar", "perfect23.sg", {}), 7, 7, True),  # capped FreeOperad
    ("dyck", ("grammar", "dyck.cfg", {}), 12, 10, False),    # AsOperad
    ("bdias2", ("builtin", "bdias", {"gamma": 2}), 6, 5, False),  # DiasOperad
    ("bs", ("builtin", "bs", {}), 8, 6, False),              # ASchrOperad
    ("bp", ("builtin", "bp", {}), 8, 6, False),              # MotzOperad
    ("hook-motz", ("builtin", "hook-motz", {}), 8, 6, False),  # MotzOperad, monochrome
]

RANDOM_SYSTEMS = 3

# oracle bound of the fixed mix: all_treelike enumerates every syntax
# tree, so it checks only the arity <= ORACLE_BOUND part of each output.
ORACLE_BOUND = 4

# counting: (label, [(typecount function, arguments after the system)]),
# one session per system; the last label has no system.  Fifteen
# requests whose latencies are far enough apart that p50 and p75 each
# fall among the samples of one request.
COUNTING_MIX = [
    ("bbt", [("sync_counting_series", 30), ("solve_synt_system", 6),
             ("solve_sync_system", 7), ("sync_iterates", 3, 8)]),
    ("b1", [("sync_counting_series", 28), ("solve_sync_system", 5)]),
    ("b2", [("sync_counting_series", 20)]),
    ("b3", [("sync_counting_series", 18)]),
    ("btree234", [("sync_counting_series", 30)]),
    ("bs", [("lang_counting_series", 16)]),
    ("btree23", [("lang_counting_series", 16)]),
    ("hook-mag", [("lang_counting_series", 14)]),
    ("bp", [("lang_counting_series", 9)]),                   # ambiguous: support
    ("bbu", [("solve_synt_system", 5)]),
    ("perfect", [("refined_perfect", 16)]),
]

COUNTING_SYSTEMS = {
    "bbt": ("bbt", {}),
    "b1": ("b1", {}),
    "b2": ("b2", {}),
    "b3": ("b3", {}),
    "btree234": ("btree", {"arities": [2, 3, 4]}),
    "bs": ("bs", {}),
    "btree23": ("btree", {"arities": [2, 3]}),
    "hook-mag": ("hook-mag", {}),
    "bp": ("bp", {}),
    "bbu": ("bbu", {}),
}

# cli: (name, argv after `python -m budgen.cli`, known defect).  Paths
# starting with "@" name a file compiled into the run directory before
# the first pass; paths under perfbench/data are fixed inputs.
CLI_COMPILED = {
    "dyck": "perfbench/data/dyck.cfg",
    "relabel": "perfbench/data/relabel.sg",
    "twoparse": "perfbench/data/twoparse.cfg",
}

CLI_MIX = [
    ("help", ["--help"], False),
    ("enum-bp", ["enumerate", "--builtin", "bp", "--max-arity", "9"], False),
    ("enum-bbt-sync", ["enumerate", "--builtin", "bbt", "--sync",
                       "--max-arity", "14"], False),
    ("enum-bs-csv", ["enumerate", "--builtin", "bs", "--max-arity", "10",
                     "--format", "csv"], False),
    ("series-bdias-hook", ["series", "--builtin", "bdias", "--gamma", "1",
                           "--kind", "hook", "--max-arity", "6"], False),
    ("series-bs", ["series", "--builtin", "bs", "--max-arity", "7"], False),
    ("colt-bbt-sync", ["colt", "--builtin", "bbt", "--kind", "sync"], False),
    ("graph-bp-dot", ["graph", "--builtin", "bp", "--max-arity", "4",
                      "--format", "dot"], False),
    ("graph-bbt-sync", ["graph", "--builtin", "bbt", "--sync",
                        "--max-arity", "6", "--format", "text"], False),
    ("check-bdias", ["check", "--builtin", "bdias", "--gamma", "1",
                     "--max-arity", "3"], False),
    ("check-bs", ["check", "--builtin", "bs", "--max-arity", "6"], False),
    ("compile-expr", ["compile", "perfbench/data/expr.cfg"], False),
    ("compile-twosort", ["compile", "perfbench/data/twosort.rtg"], False),
    ("compile-perfect23", ["compile", "perfbench/data/perfect23.sg",
                           "--cap", "3"], False),
    ("enum-dyck", ["enumerate", "--system", "@dyck", "--max-arity", "10"],
     False),
    # error paths: bad input exits 1, divergence exits 2
    ("unknown-preset", ["enumerate", "--builtin", "nosuch"], False),
    ("relabel-cycle", ["series", "--system", "@relabel", "--kind", "sync",
                       "--max-arity", "4"], False),
    # known defects, checked against their correct results
    ("twoparse-count", ["enumerate", "--system", "@twoparse",
                        "--max-arity", "7"], True),
    ("rule-above-bound", ["series", "--builtin", "btree", "--arities",
                          "2,3,4", "--max-arity", "3", "--kind", "sync"],
     True),
    ("no-rules-json", ["enumerate", "--system",
                       "perfbench/data/norules.json", "--max-arity", "3"],
     True),
]

WORKLOADS = ("series", "counting", "cli")


def _random_elements(rng: random.Random, kind: str):
    """Ground elements of arity 1..3 as term strings, by arity."""
    if kind == "as":
        return {1: ["1"], 2: ["2"], 3: ["3"]}, None
    if kind == "mag":
        return {1: ["*"], 2: ["c(*,*)"], 3: ["c(c(*,*),*)", "c(*,c(*,*))"]}, None
    gens = [("g%d" % k, rng.randint(1, 3)) for k in range(rng.randint(2, 3))]
    if all(a == 1 for _, a in gens):
        gens[0] = (gens[0][0], 2)
    by_arity: dict = {1: ["!1"]}
    for name, a in gens:
        by_arity.setdefault(a, []).append("%s(%s)" % (name, ",".join("*" * a)))
    for name, a in gens:
        for inner, b in gens:
            total = a + b - 1
            if a >= 2 and b >= 2 and total <= 3:
                kids = ["*"] * a
                kids[0] = "%s(%s)" % (inner, ",".join("*" * b))
                by_arity.setdefault(total, []).append(
                    "%s(%s)" % (name, ",".join(kids)))
    ground = {"kind": "free",
              "params": {"generators": [{"name": n, "arity": a}
                                        for n, a in gens]}}
    return by_arity, ground


def random_systems(seed: int, count: int = RANDOM_SYSTEMS):
    """Small random systems in the JSON form of budgen.systems: 1-3
    colors, 2-5 rules drawn (fewer when the colors and the ground allow
    fewer distinct ones) of arity 1-3 over MagOperad, AsOperad or a random
    FreeOperad signature, arity-1 rules only from a lower to a higher
    color (so they are acyclic), bound 3-4.  Bound 5 would make one seed
    in twenty cost a tenth of the pass, so the seed would move pass_s."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        kind = rng.choice(["as", "mag", "free"])
        by_arity, ground = _random_elements(rng, kind)
        if ground is None:
            ground = {"kind": kind, "params": {}}
        colors = [str(c) for c in range(1, rng.randint(1, 3) + 1)]
        rules = set()
        want = rng.randint(2, 5)
        for _ in range(100):
            if len(rules) >= want:
                break
            arity = rng.choice([a for a in (1, 2, 3) if by_arity.get(a)])
            out_c = rng.randrange(len(colors))
            if arity == 1:
                if out_c == len(colors) - 1:
                    continue
                ins = (colors[rng.randrange(out_c + 1, len(colors))],)
            else:
                ins = tuple(rng.choice(colors) for _ in range(arity))
            rules.add((colors[out_c], rng.choice(by_arity[arity]), ins))
        rules = sorted(rules)
        initial = sorted(rng.sample(colors, rng.randint(1, len(colors))))
        terminal = sorted(rng.sample(colors, rng.randint(1, len(colors))))
        out.append({
            "label": "random%d" % k,
            "bound": rng.randint(3, 4),
            "system": {"ground": ground, "colors": colors,
                       "rules": [{"out": o, "elem": e, "ins": list(i)}
                                 for o, e, i in rules],
                       "initial": initial, "terminal": terminal},
        })
    return out


def shuffled(items, seed: int):
    """The items in an order drawn from the seed."""
    items = list(items)
    random.Random(seed).shuffle(items)
    return items
