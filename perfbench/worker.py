"""One pass of a workload, in a fresh interpreter.

    python perfbench/worker.py WORKLOAD SEED RUNDIR [TRACE_DIR | --setup-only]

Sets up (imports budgen and budgen.cli, builds the workload's systems),
runs the workload's requests once in a closed loop, then checks every
output against its reference outside the timed region.  With TRACE_DIR
the pass runs under the tracer; with --setup-only it ends after the
set-up.  Prints one JSON object: set-up and pass times, per-request
latencies (all in reference-speed seconds, see `Clock`), the raw wall
times, peak resident set, the checks and, when traced, the additive
layer totals.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads as W
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


# Time of `kernel_s` on a vCPU of the reference host (2-vCPU VM, Python
# 3.11) in its fast phases; a scaled time is the wall time at that speed.
REF_KERNEL_S = 0.02


def kernel_s() -> float:
    """Time of a fixed pure-Python kernel made of what budgen spends its
    time on: tuples, slices, dict updates, string formatting.  It uses no
    budgen code, and the collector is paused so the heap left by earlier
    requests does not slow it."""
    gc.disable()
    try:
        t = time.perf_counter()
        d: dict = {}
        word = ("a", "b", "c", "d")
        for i in range(30000):
            k = i % 4
            key = (i & 7, word[:k] + word[k:], "%d" % (i & 15))
            d[key] = d.get(key, 0) + 1
        return time.perf_counter() - t
    finally:
        gc.enable()


class Clock:
    """Interval times in reference-speed seconds.

    The host this benchmark was built on changes speed by up to 2x within
    a minute, on each vCPU on its own, so raw wall times of identical
    passes spread by 30 %.  Each interval is therefore scaled by
    REF_KERNEL_S over the mean time of `kernel_s` measured just before and
    just after it, on the same CPU (the worker is pinned to one CPU and
    its children inherit that).  Raw times and kernel times are kept."""

    def __init__(self):
        kernel_s()  # the first run in a fresh process pays for warming up
        self.last = kernel_s()
        self.raw: list = []
        self.kernel: list = []

    def scaled(self, elapsed: float) -> float:
        now = kernel_s()
        k = (self.last + now) / 2
        self.last = now
        self.raw.append(elapsed)
        self.kernel.append(k)
        return elapsed * REF_KERNEL_S / k


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


SETUP_ONLY = "--setup-only"


def import_budgen(tracer):
    """Import budgen and budgen.cli; returns the import time."""
    t = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import budgen  # noqa: F401
    import budgen.cli  # noqa: F401
    import_s = time.perf_counter() - t
    if tracer is not None:
        import sympy  # noqa: F401  (so that sympy.expand is counted)
        tracer.install()
    return import_s


# ---------------------------------------------------------------------------
# series


def compile_grammar(path: Path, kwargs):
    from budgen import grammars
    text = path.read_text()
    if path.suffix == ".cfg":
        return grammars.cfg_to_bud(grammars.parse_cfg(text))
    return grammars.sg_to_bud(grammars.parse_sg(text), **kwargs)


def series_session(system, n, graph_bound, synchronous):
    """Every request of one user session on one system."""
    from budgen import series as S
    out = {}
    for kind in ("hook", "synt", "sync"):
        f = getattr(system, kind + "_series")(n)
        out[kind] = f
        out[kind + ".dumps"] = f.dumps()
    out["colt"] = S.colt_table(out["synt"])
    out["verdicts"] = [system.is_unambiguous(n), system.is_sync_unambiguous(n),
                       system.is_faithful(n), system.is_sync_faithful(n)]
    graph = system.derivation_graph(graph_bound, synchronous=synchronous)
    src = system.bud.unit(system.initial[0])
    top = max(system.bud.arity(v) for v in graph.vertices)
    paths = sum(graph.multipath_count(src, v) for v in graph.vertices
                if system.bud.arity(v) == top)
    out["graph"] = [len(graph.vertices), len(graph.edges), top, paths]
    return out


def setup_series(seed, rundir, trace_dir):
    from budgen import systems
    sessions = []
    for label, (kind, name, kwargs), n, gn, sync in W.SERIES_MIX:
        if kind == "builtin":
            system = systems.builtin(name, **kwargs)
        else:
            system = compile_grammar(HERE / "data" / name, kwargs)
        sessions.append((label, system, n, gn, sync))
    for spec in W.random_systems(seed):
        system = systems.system_from_json(spec["system"])
        sessions.append((spec["label"], system, spec["bound"],
                         spec["bound"] - 1, False))
    return W.shuffled(sessions, seed)


def run_series(sessions, clock):
    latencies, results = [], {}
    for label, system, n, gn, sync in sessions:
        t = time.perf_counter()
        results[label] = series_session(system, n, gn, sync)
        latencies.append(clock.scaled(time.perf_counter() - t))
    return latencies, results


def check_series(sessions, results):
    expected = json.loads((HERE / "expected" / "series.json").read_text())
    found = []
    for label, system, n, gn, sync in sessions:
        found.extend(checks.check_series_session(
            label, system, n, gn, results[label], expected.get(label)))
    return found


# ---------------------------------------------------------------------------
# counting


def setup_counting(seed, rundir, trace_dir):
    from budgen import systems
    built = {label: systems.builtin(name, **kwargs)
             for label, (name, kwargs) in W.COUNTING_SYSTEMS.items()}
    return built, W.shuffled(W.COUNTING_MIX, seed)


def run_counting(state, clock):
    from budgen import typecount
    built, sessions = state
    latencies, results = [], {}
    for label, requests in sessions:
        for func, *args in requests:
            t = time.perf_counter()
            if label in built:
                value = getattr(typecount, func)(built[label], *args)
            else:
                value = getattr(typecount, func)(*args)
            latencies.append(clock.scaled(time.perf_counter() - t))
            results["%s/%s" % (label, func)] = value
    return latencies, results


def check_counting(state, results):
    expected = json.loads((HERE / "expected" / "counting.json").read_text())
    return [checks.check_counting(key, value, expected.get(key))
            for key, value in sorted(results.items())]


# ---------------------------------------------------------------------------
# cli


def cli_args(argv, rundir: Path):
    return [str(rundir / (a[1:] + ".json")) if a.startswith("@") else a
            for a in argv]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_cli(seed, rundir, trace_dir):
    """The command lines; traced, each command writes its totals to a
    file of its own in TRACE_DIR."""
    commands = []
    for k, (name, argv, known) in enumerate(W.shuffled(W.CLI_MIX, seed)):
        args = cli_args(argv, rundir)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "budgen.cli"] + args
        else:
            out = Path(trace_dir) / ("%02d.json" % k)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(out)] + args
        commands.append((name, known, cmd))
    return commands


def run_cli(commands, clock):
    env = cli_env()
    latencies, results = [], {}
    for name, known, cmd in commands:
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=120)
        latencies.append(clock.scaled(time.perf_counter() - t))
        results[name] = proc
    return latencies, results


def check_cli(commands, results):
    expected = json.loads((HERE / "expected" / "cli.json").read_text())
    return [checks.check_cli(name, known, results[name], expected.get(name))
            for name, known, _ in commands]


def cli_trace_totals(trace_dir):
    totals: dict = {}
    for out in sorted(Path(trace_dir).glob("*.json")):
        for key, value in json.loads(out.read_text()).items():
            totals[key] = totals.get(key, 0) + value
    return totals


WORKLOADS = {
    "series": (setup_series, run_series, check_series),
    "counting": (setup_counting, run_counting, check_counting),
    "cli": (setup_cli, run_cli, check_cli),
}


def main(argv):
    workload, seed, rundir = argv[0], int(argv[1]), Path(argv[2])
    mode = argv[3] if len(argv) > 3 else None
    trace_dir = mode if mode not in (None, SETUP_ONLY) else None
    setup, run, check = WORKLOADS[workload]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    clock = Clock()
    # the cli commands trace themselves, in their own processes
    tracer = Tracer() if trace_dir is not None and workload != "cli" else None
    t = time.perf_counter()
    import_s = import_budgen(tracer)
    state = setup(seed, rundir, trace_dir)
    setup_s = clock.scaled(time.perf_counter() - t)
    if mode == SETUP_ONLY:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": clock.raw[0]}))
        return

    latencies, results = run(state, clock)
    rss = peak_rss_mb()
    trace = None
    if tracer is not None:
        trace = tracer.finish(import_s)
    elif trace_dir is not None:
        trace = cli_trace_totals(trace_dir)
    print(json.dumps({
        "setup_s": setup_s, "pass_s": sum(latencies), "latencies": latencies,
        "raw_setup_s": clock.raw[0], "raw_pass_s": sum(clock.raw[1:]),
        "kernel_s": sorted(clock.kernel)[len(clock.kernel) // 2],
        "rss_mb": rss, "checks": check(state, results), "trace": trace}))


if __name__ == "__main__":
    main(sys.argv[1:])
