"""Run one budgen command under the tracer.

    python perfbench/traced_cli.py OUT_JSON ARGS...

Behaves like `python -m budgen.cli ARGS...` (same stdout, exit code and
error lines) and writes the command's layer totals to OUT_JSON when it
ends, whether it succeeded or not.
"""

import json
import runpy
import sys
import time
import warnings
from pathlib import Path

from tracer import Tracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main():
    out, args = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    import budgen.cli
    import_s = time.perf_counter() - t
    tracer = Tracer()
    tracer.install()
    sys.argv = ["budgen"] + args
    # budgen.cli runs again as __main__, as under `python -m`
    warnings.filterwarnings("ignore", "'budgen.cli' found in sys.modules",
                            RuntimeWarning)
    t = time.perf_counter()
    try:
        runpy.run_module("budgen.cli", run_name="__main__", alter_sys=True)
    finally:
        exec_s = time.perf_counter() - t
        totals = tracer.finish(import_s)
        totals.update({"cli.exec_s": exec_s, "cli.commands": 1})
        Path(out).write_text(json.dumps(totals))


if __name__ == "__main__":
    main()
