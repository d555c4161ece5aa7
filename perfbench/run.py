"""budgen's benchmark.

    python3 perfbench/run.py --workload {series,counting,cli} --seed N
                             --seconds S --trace {0,1}

Runs passes of one workload for about S seconds, each pass in a fresh
interpreter (perfbench/worker.py), one pass at a time.  Every output is
checked against its reference.  A human-readable report goes to stderr;
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 reports the end-to-end metrics: set-up time, pass time,
request latency (p50/p75), peak resident set.  Times are in
reference-speed seconds (see `worker.Clock`); stderr shows the raw ones.
--trace 1 alternates untraced passes with traced ones under two hash
seeds and reports the per-layer metrics (medians over traced passes), the
tracing overhead and the number of counts that differ between the hash
seeds.

Requests marked as known defects are checked against their correct
results but counted apart, in `ops.defects_open`, not in `failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import tracer
import workloads as W
from worker import SETUP_ONLY, cli_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare(workload, rundir: Path):
    """Compile the grammar inputs of the cli workload into the run
    directory (not timed, not checked: a failure shows in the requests
    that read them)."""
    if workload != "cli":
        return
    for name, path in W.CLI_COMPILED.items():
        proc = subprocess.run(
            [sys.executable, "-m", "budgen.cli", "compile", path],
            cwd=ROOT, env=cli_env(), capture_output=True, timeout=60)
        if proc.returncode == 0:
            (rundir / (name + ".json")).write_bytes(proc.stdout)


def run_pass(workload, seed, rundir, hash_seed, mode, deadline):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(rundir)] + ([mode] if mode else [])
    t = time.perf_counter()
    # a session of its own, so that a pass that runs out of time is
    # stopped together with the command it may have started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(5.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, time.perf_counter() - t, "timed out"
    wall = time.perf_counter() - t
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall, stderr.strip()[-2000:]
    return json.loads(lines[-1]), wall, None


def schedule(trace):
    """Pass kinds in order: None an untraced pass, "setup" a set-up only
    (SETUP_PROBES of them between the first passes, for more set-up
    samples), 0 or 1 a traced pass under the first or second hash seed."""
    if trace:
        while True:
            yield from (0, None, 1, None)
    for _ in range(SETUP_PROBES):
        yield from (None, "setup")
    while True:
        yield None


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "budgen" / "__init__.py").is_file():
        print("perfbench: no budgen sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    rundir = ROOT / ".perfbench" / ("%s-%d" % (args.workload, os.getpid()))
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        prepare(args.workload, rundir)
        return measure(args, rundir, started)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args, rundir, started):
    deadline = started + HARD_LIMIT_S
    seed = args.seed
    base_hash = (seed * 1000) % (2 ** 32 - 1000)
    untraced, traced, setups, errors = [], [], [], []
    walls: dict = {}
    t0 = time.perf_counter()
    for k, slot in enumerate(schedule(args.trace)):
        enough = untraced and (not args.trace or len(traced) >= 2)
        est = median(walls.get(slot, [0.0]))
        # a pass starts when at least half of it fits in the time left
        if enough and time.perf_counter() - t0 + est / 2 > args.seconds:
            break
        if time.perf_counter() > deadline - 2 * est:
            break
        if slot is None:
            mode, hash_seed, out = None, base_hash + 10 + k, untraced
        elif slot == "setup":
            mode, hash_seed, out = SETUP_ONLY, base_hash + 10 + k, setups
        else:
            trace_dir = rundir / ("trace%d" % k)
            trace_dir.mkdir()
            mode, hash_seed, out = str(trace_dir), base_hash + 1 + slot, traced
        result, wall, err = run_pass(args.workload, seed, rundir, hash_seed,
                                     mode, deadline)
        walls.setdefault(slot, []).append(wall)
        if result is None:
            errors.append(err)
            if len(errors) >= 2:
                break
            continue
        out.append(result)
    return report(args, untraced, traced, setups, errors)


def report(args, untraced, traced, setups, errors):
    passes = untraced + traced
    checks = [c for p in passes for c in p["checks"]]
    attempted = len(checks) + len(errors)
    failed = sum(1 for name, ok, known, _ in checks if not ok and not known)
    failed += len(errors)
    open_defects = sorted({name for name, ok, known, _ in checks
                           if not ok and known})
    out = sys.stderr
    print("workload %s  seed %d  passes %d untraced, %d traced"
          % (args.workload, args.seed, len(untraced), len(traced)), file=out)
    for err in errors:
        print("pass failed: %s" % err, file=out)
    for name in sorted({n for n, ok, known, d in checks if not ok and not known}):
        print("FAILED %s" % name, file=out)
    for name in open_defects:
        print("known defect still open: %s" % name, file=out)
    print("ops_failed %.4f  (%d of %d requests)"
          % (failed / attempted if attempted else 1.0, failed, attempted),
          file=out)

    metrics: dict = {}
    if not args.trace and untraced:
        lat_ms = [1000.0 * x for p in untraced for x in p["latencies"]]
        setup = [p["setup_s"] for p in untraced + setups]
        n = len(untraced)
        e2e = {
            "setup_s": (median(setup), "s", len(setup)),
            "pass_s": (median(p["pass_s"] for p in untraced), "s", n),
            "cmd_p50_ms": (median(lat_ms), "ms", len(lat_ms)),
            "cmd_p75_ms": (quantiles(lat_ms, n=4)[2], "ms", len(lat_ms)),
            "peak_rss_mb": (median(p["rss_mb"] for p in untraced), "MB", n),
        }
        for name, (value, unit, count) in e2e.items():
            metrics[name] = {"value": value, "unit": unit}
            print("  %-12s %12.6g %-3s (%d samples)" % (name, value, unit, count),
                  file=out)
        print("  raw wall times: setup %.4g s, pass %.4g s; kernel %.4g ms"
              % (median(p["raw_setup_s"] for p in untraced),
                 median(p["raw_pass_s"] for p in untraced),
                 1000 * median(p["kernel_s"] for p in untraced)), file=out)
    elif args.trace and untraced and len(traced) >= 2:
        per_pass = [tracer.layer_metrics(p["trace"]) for p in traced]
        layers, unstable = tracer.merge_passes(per_pass)
        for name in unstable:
            print("count differs between hash seeds: %s" % name, file=out)
        layers["trace.overhead"] = (median(p["pass_s"] for p in traced)
                                    / median(p["pass_s"] for p in untraced))
        layers["trace.unstable_counts"] = len(unstable)
        layers["ops.defects_open"] = len(open_defects)
        for name, value in layers.items():
            metrics[name] = {"value": value, "unit": tracer.unit(name)}
            print("  %-32s %14.6g %s" % (name, value, tracer.unit(name)),
                  file=out)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
