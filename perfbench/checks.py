"""Reference checks of the workloads' outputs, run after the timed region.

Each check returns [name, ok, known defect, detail].  References are
frozen digests recorded under expected/, independent oracles
(`operads.all_treelike` and `hook_count` for series, closed recurrences
for tree counts) and the literature sequences frozen in the acceptance
tests.
"""

from __future__ import annotations

import hashlib
import json

from workloads import ORACLE_BOUND

# language counts, n = 1.. (tests/test_acceptance.py)
LITERATURE = {
    "bp/lang_counting_series": [1, 1, 1, 3, 5, 11, 25, 55, 129],
    "bbt/sync_counting_series": [1, 1, 2, 1, 4, 6, 4, 17, 32, 44, 60, 70,
                                 184, 476],
    "b1/sync_counting_series": [1, 1, 1, 1, 2, 2, 2, 4, 6, 9, 11, 13, 22],
    "b2/sync_counting_series": [1, 1, 3, 1, 7, 12, 6, 52, 119, 137],
    "b3/sync_counting_series": [1, 1, 1, 1, 3, 2, 2, 6, 9, 15, 15, 17, 41],
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(name, ok, known=False, detail=""):
    return [name, bool(ok), known, detail]


# ---------------------------------------------------------------------------
# series


def series_texts(out) -> dict:
    """The outputs of one session as text, by request."""
    colt = sorted(out["colt"].items())
    return {
        "hook.dumps": out["hook.dumps"],
        "synt.dumps": out["synt.dumps"],
        "sync.dumps": out["sync.dumps"],
        "colt": "\n".join("%s|%s|%s" % (c, ",".join(map(str, a)), v)
                          for (c, a), v in colt),
        "verdicts": json.dumps(out["verdicts"]),
        "graph": json.dumps(out["graph"]),
    }


def treelike_oracle(system, bound):
    """hook/synt/sync coefficients up to `bound` from the syntax trees,
    and the trees themselves."""
    from budgen.operads import (all_treelike, degree_bound, hook_count,
                                st_is_perfect)
    op = system.bud
    _, chain = system.ff_check()
    table = all_treelike(op, system.rules, bound, degree_bound(bound, chain))
    coeffs = {"hook": {}, "synt": {}, "sync": {}}
    for x, trees in table.items():
        if (op.out(x) not in system.initial
                or any(c not in system.terminal for c in op.ins(x))):
            continue
        coeffs["synt"][x] = len(trees)
        coeffs["hook"][x] = sum(hook_count(t) for t in trees)
        perfect = sum(1 for t in trees if st_is_perfect(t))
        if perfect:
            coeffs["sync"][x] = perfect
    return coeffs, table


def check_series_session(label, system, n, graph_bound, out, expected):
    """Frozen digests and the small-bound oracle for a session of the
    fixed mix (`expected` given); for a random system, which has no
    frozen digests, the oracle at the full bound for every request."""
    from budgen.operads import hook_count
    op = system.bud
    found = []
    if expected is not None:
        for key, text in series_texts(out).items():
            found.append(check("%s/%s" % (label, key),
                               digest(text) == expected.get(key)))
        bound = min(n, ORACLE_BOUND)
    else:
        bound = n
    oracle, table = treelike_oracle(system, bound)
    for kind in ("hook", "synt", "sync"):
        got = {x: c for x, c in out[kind].coeffs.items()
               if op.arity(x) <= bound}
        found.append(check("%s/%s" % (label, kind), got == oracle[kind]))
    if expected is not None:
        return found

    for kind in ("hook", "synt", "sync"):
        coeffs = oracle[kind]
        text = "\n".join("%s * %s" % (coeffs[x], op.dumps(x))
                         for x in sorted(coeffs, key=op.key))
        found.append(check("%s/%s.dumps" % (label, kind),
                           out[kind + ".dumps"] == text))
    colt: dict = {}
    for x, c in oracle["synt"].items():
        key = (op.out(x), tuple(op.ins(x).count(k) for k in system.colors))
        colt[key] = colt.get(key, 0) + c
    found.append(check("%s/colt" % label, out["colt"] == colt))

    def faithful(support):
        grounds = [x[1] for x in support]
        return len(grounds) == len(set(grounds))

    verdicts = [all(c == 1 for c in oracle["synt"].values()),
                all(c == 1 for c in oracle["sync"].values()),
                faithful(oracle["synt"]), faithful(oracle["sync"])]
    found.append(check("%s/verdicts" % label, out["verdicts"] == verdicts))

    # the derivation graph from the initial units: its vertices are the
    # generated elements with an initial output color, and the paths
    # from the first initial unit count the hook coefficients
    src = system.initial[0]
    vertices = [x for x in table
                if op.out(x) in system.initial and op.arity(x) <= graph_bound]
    top = max(op.arity(x) for x in vertices)
    paths = sum(sum(hook_count(t) for t in table[x]) for x in vertices
                if op.out(x) == src and op.arity(x) == top)
    got = out["graph"]
    found.append(check("%s/graph" % label,
                       [got[0], got[2], got[3]] == [len(vertices), top, paths]))
    return found


# ---------------------------------------------------------------------------
# counting


def catalan(n):
    """Binary trees by leaves, n = 1..n."""
    return plane_tree_counts((2,), n)


def plane_tree_counts(arities, n):
    """Plane trees by leaves whose internal nodes have the given arities:
    T = x + sum_a T^a, coefficients 1..n."""
    t = [0] * (n + 1)
    for m in range(1, n + 1):
        total = 1 if m == 1 else 0
        for a in arities:
            total += _tuples(t, a, m)
        t[m] = total
    return t[1:]


def perfect_tree_counts(arities, n):
    """Perfect trees by leaves: a perfect tree with k leaves is one with
    m < k leaves whose every leaf carries a corolla of an allowed arity."""
    corolla = [0] * (n + 1)
    for a in arities:
        corolla[a] = 1
    s = [0] * (n + 1)
    s[1] = 1
    for k in range(2, n + 1):
        s[k] = sum(s[m] * _tuples(corolla, m, k) for m in range(1, k))
    return s[1:]


def _tuples(weights, length, total):
    """Sum over tuples of `length` positive parts adding to `total` of
    the product of weights[part]."""
    ways = [1] + [0] * total
    for _ in range(length):
        nxt = [0] * (total + 1)
        for done, w in enumerate(ways):
            if w:
                for part in range(1, total - done + 1):
                    if weights[part]:
                        nxt[done + part] += w * weights[part]
        ways = nxt
    return ways[total]


ORACLES = {
    "btree234/sync_counting_series": lambda n: perfect_tree_counts((2, 3, 4), n),
    "btree23/lang_counting_series": lambda n: plane_tree_counts((2, 3), n),
    "bs/lang_counting_series": catalan,
    "hook-mag/lang_counting_series": catalan,
}


def _poly_text(expr) -> str:
    import sympy as sp
    syms = sorted(expr.free_symbols, key=str)
    if not syms:
        return str(expr)
    return str(sorted(sp.Poly(expr, *syms).terms()))


def counting_text(value) -> str:
    """Canonical text of a typecount result; the counting method is not
    part of it."""
    if isinstance(value, tuple):
        return ",".join(map(str, value[0]))
    if isinstance(value, list):
        return "\n--\n".join(counting_text(v) for v in value)
    return "\n".join("%s:%s" % (k, _poly_text(value[k]))
                     for k in sorted(value, key=str))


def check_counting(key, value, expected):
    ok = digest(counting_text(value)) == expected
    detail = "" if ok else "digest"
    if isinstance(value, tuple):
        counts = value[0]
        prefix = LITERATURE.get(key)
        if prefix is not None and counts[:len(prefix)] != prefix:
            ok, detail = False, "literature prefix"
        if key in ORACLES and counts != ORACLES[key](len(counts)):
            ok, detail = False, "tree-count oracle"
    return check(key, ok, False, detail)


# ---------------------------------------------------------------------------
# cli


def check_cli(name, known, proc, expected):
    """Exit code and stdout byte for byte; no traceback; an error exit
    starts its stderr with `error: `."""
    if expected is None:
        return check(name, False, known, "no reference")
    ok = (proc.returncode == expected["exit"]
          and proc.stdout == expected["stdout"].encode()
          and b"Traceback" not in proc.stderr)
    if expected["exit"] != 0:
        ok = ok and proc.stderr.startswith(b"error: ")
    return check(name, ok, known, "" if ok else "exit %d" % proc.returncode)
