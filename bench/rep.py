"""One repetition of a benchmark workload in a fresh interpreter.

    python3 bench/rep.py --probe
    python3 bench/rep.py --workload NAME --seed N --workers W --out DIR [--trace]

The package import is the first thing this script does, and the moment it
returns is reported as `imported_at` on the shared monotonic clock, so the
parent can time set-up from the moment it started this interpreter, with
the CPU time the interpreter had used by then (`setup_cpu_s`).
`--probe` stops right there. Otherwise the workload runs once and the last
line of standard output is one JSON object with its result.
"""

import sys
import time

import geomgw

IMPORTED_AT = time.perf_counter()
SETUP_CPU_S = time.process_time()
MODULES_AFTER_IMPORT = len(sys.modules)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def _peak_rss_mb() -> float:
    """Largest resident set of this interpreter and of any child it has
    waited for (pool workers), in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, kids_kb) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--workers", type=int)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    result = {
        "imported_at": IMPORTED_AT,
        "setup_cpu_s": SETUP_CPU_S,
        "modules": MODULES_AFTER_IMPORT,
        "geomgw_file": geomgw.__file__,
    }
    if not args.probe:
        from workloads import run_workload

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer().install()
        out_dir = Path(args.out)
        result.update(run_workload(args.workload, args.seed, args.workers, out_dir))
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.dump(out_dir / "spans.npz")
        result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
