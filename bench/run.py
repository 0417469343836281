"""geomgw benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from anywhere else. Workloads (closed loop: each
repetition does a fixed amount of work and stops):

    sweep-kesten   the bundled kesten `geomgw converge` sweep
    sweep-series   a 20-row certified condensation sweep + the poisson theta sweep
    sample-exact   six depth-2 `geomgw sample` paths + the deep conditioned bridge

Every repetition runs in a fresh interpreter (bench/rep.py). An untraced run
(`--trace 0`) repeats the workload for `--seconds` (at least twice) and
reports medians over the repetitions. The JSON line carries the gated
end-to-end metrics, the same on every workload:

    setup_s      fresh interpreter start to `import geomgw` complete
    work_s       time inside the workload's calls into the package: the
                 sweeps with their CSV writing, or the draws (child stream,
                 sampler, encoding)
    peak_rss_mb  largest resident set of the interpreter and its pool workers

The two times are CPU times given at the reference speed. On a shared host
the speed of a virtual CPU wanders by tens of percent within seconds,
differently on each CPU, and code that works through much memory, as this
package does, suffers most. So an untraced run keeps itself and every
process it starts on one CPU, and runs bench/calib.py beside them on that
CPU the whole time: a fixed, cache-heavy reference routine that records the
CPU time of each of its rounds. The set-up and each part of the work (a
sweep with its CSV, a draw stream) have their CPU time scaled by REF_S over
the median round that ended during that part: they read as if a round had
taken REF_S. A change to the program moves them; a change in the host's
speed mostly cancels out. The pool's two workers share the CPU too, so a
sweep's work_s counts all the work of both workers, the enumeration each of
them repeats included.

The report above the JSON line adds plain medians (wall times, which the
reference routine stretches by sharing the CPU, the work's CPU time and the
reference round's CPU time) and the workload's own figures: sweep_s and
certified_frac for the sweeps, draws_per_s and bridge_draws_per_s for
sample-exact, and fail_ratio everywhere.

A traced run (`--trace 1`) runs a sweep once untraced with its pool, for the
row times and pool overhead, then pairs of untraced and traced one-worker
repetitions for `--seconds`. Per-layer metrics (see tracing.py) are medians
over the pairs, and the tracing overhead compares the two halves of each
pair. Every repetition must produce the same digests.

The report goes to standard output, and in full to .bench_out/; its last
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REP = BENCH_DIR / "rep.py"

# Why each workload is there; recorded with every result.
WHY = {
    "sweep-kesten": (
        "the bundled kesten sweep: enumerating and tabulating 137,257 ball "
        "shapes in every worker dominates, with tv_distance over those codes "
        "next; the certified series layer sits idle"
    ),
    "sweep-series": (
        "a 20-row certified condensation sweep up to a_n=5.9e7 plus the "
        "poisson theta sweep: few shapes with expensive weights, so the "
        "certified sibling series and the pole algebra dominate"
    ),
    "sample-exact": (
        "the geomgw sample path for six shallow samplers plus the deep "
        "conditioned bridge: rng and sampler dominate, exactlaw serves only "
        "forest-pmf point evaluations and the G-test reference laws"
    ),
}
WORKLOADS = tuple(WHY)
SWEEPS = ("sweep-kesten", "sweep-series")
SHALLOW_PATHS = ("gw", "conditioned", "kesten", "poisson",
                 "condensation-two_type", "condensation-inhomogeneous")
# Pool size of the timed sweeps: two, never more than the machine has.
WORKERS = min(2, os.cpu_count() or 1)
MIN_REPS = 2
CALIB = BENCH_DIR / "calib.py"
# Reference speed: the typical CPU time of a reference round beside the
# benchmark on the 2-vCPU host it was written on. It only scales the figures.
REF_S = 2.7e-3
# Fewest reference rounds a scaled interval may rest on.
MIN_ROUNDS = 20
# Every run must end within this, whatever --seconds says.
RUN_BUDGET_S = 170.0

# Per-layer metrics read from the traced summary (see tracing.py), with
# their units: "<span>.s" is self seconds, "<span>.calls" the call count,
# anything else a counter.
SPAN_METRICS = {
    "treekit.enumerate_trees.s": "s",
    "treekit.enumerate_trees.calls": "count",
    "treekit.shapes": "count",
    "treekit.encode.s": "s",
    "treekit.encode.calls": "count",
    "treekit.OrderedTree.s": "s",
    "treekit.OrderedTree.calls": "count",
    "exactlaw.family.s": "s",
    "exactlaw.family.entries": "count",
    "exactlaw.restricted_family.s": "s",
    "exactlaw.size_conditioning_ratio.calls": "count",
    "exactlaw.size_conditioning_ratio.s": "s",
    "exactlaw.log_poisson_weight.calls": "count",
    "exactlaw.log_poisson_weight.s": "s",
    "exactlaw.log_forest_pmf.calls": "count",
    "exactlaw.log_forest_pmf.s": "s",
    "offspring.iterate.calls": "count",
    "offspring.iterate.s": "s",
    "offspring.log_gamma_ratio.calls": "count",
    "offspring.log_gamma_ratio.s": "s",
    "offspring.extinction_params.calls": "count",
    "lab.tv_distance.s": "s",
    "lab.tv_distance.codes": "count",
    "lab.per_tree_gap.s": "s",
    "lab.write_csv.s": "s",
    "rng.child.calls": "count",
    "rng.child.s": "s",
    "rng.uniform.calls": "count",
    "rng.uniform.s": "s",
    "rng.below.calls": "count",
    "gtest.s": "s",
    "gtest.classes": "count",
    "gtest.pooled": "count",
}


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "seed": args.seed,
    }


def summarize(values: list[float]) -> dict:
    """Median, and the highest of p90/p99/p99.9 with at least ten samples
    beyond it (None below 11 samples), with the sample count."""
    xs = sorted(values)
    n = len(xs)
    tail = None
    for q in (99.9, 99.0, 90.0):
        k = math.ceil(q / 100.0 * n)
        if n - k >= 10:
            tail = {"q": q, "value": xs[k - 1]}
            break
    return {"median": statistics.median(xs), "tail": tail, "n": n,
            "min": xs[0], "max": xs[-1], "values": list(values)}


class Runner:
    """Starts fresh interpreters under a shared deadline and collects them."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )

    def spawn(self, argv: list[str], python_flags: tuple = ()) -> dict:
        """Run one interpreter to completion. Returns its JSON result with
        `wall_s` and `setup_s` on the parent's clock, or `error`."""
        cmd = [sys.executable, *python_flags, str(REP), *argv]
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"{' '.join(argv)}: timed out"}
        finally:
            # pool workers share the session; none may outlive the rep
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        ended = time.perf_counter()
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"exit {proc.returncode}: {tail[0]}"}
        try:
            res = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": f"{' '.join(argv)}: no result line"}
        res["started_at"] = started
        res["wall_s"] = ended - started
        res["setup_s"] = res["imported_at"] - started
        res["stderr"] = err
        return res

    def rep(self, workload: str, seed: int, workers: int, trace: bool) -> dict:
        argv = ["--workload", workload, "--seed", str(seed), "--workers",
                str(workers), "--out", str(OUT_DIR / workload)]
        return self.spawn(argv + (["--trace"] if trace else []))


def tally(reps: list[dict], same_digests: str) -> tuple[int, int, list]:
    """(attempted, failed, failure notes) over repetitions: every check,
    sweep row and draw counts, a crashed repetition counts once, and so does
    the check that all repetitions produced the same digests."""
    attempted = failed = 0
    failures = []
    for r in reps:
        if "error" in r:
            attempted += 1
            failed += 1
            failures.append(r["error"])
            continue
        attempted += len(r["checks"]) + r.get("rows", 0) + r.get("draws", 0)
        failed += r.get("bad_draws", 0)
        for name, ok, detail in r["checks"]:
            if not ok:
                failed += 1
                failures.append(f"{name} ({detail})")
    seen = [r["digests"] for r in reps if "error" not in r]
    attempted += 1
    if not seen or any(d != seen[0] for d in seen):
        failed += 1
        failures.append(same_digests)
    return attempted, failed, failures


# ---------------------------------------------------------------------------
# untraced run


def _fits(next_s: float, started: float, seconds: float) -> bool:
    """Whether work lasting next_s more seconds still ends within the
    measuring window."""
    return time.perf_counter() - started + next_s <= seconds


class Calibrator:
    """bench/calib.py, running beside the repetitions on the parent's CPU."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(CALIB)], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self._kill()
            raise RuntimeError("the reference routine did not start")
        return self

    def stop(self) -> list:
        """Stop the routine; its rounds as (end, cpu_s), in time order."""
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=30)
        return [tuple(r) for r in json.loads(out)]

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def __exit__(self, *exc):
        self._kill()


def at_reference_speed(cpu_s: float, rounds: list, window) -> float:
    """cpu_s scaled by REF_S over the median reference round that ended
    inside the window, or over the MIN_ROUNDS rounds nearest to its middle
    if fewer ended inside."""
    start, end = window
    inside = [dt for t, dt in rounds if start <= t <= end]
    if len(inside) < MIN_ROUNDS:
        mid = (start + end) / 2
        inside = [dt for t, dt in sorted(rounds, key=lambda r: abs(r[0] - mid))[:MIN_ROUNDS]]
    return cpu_s * REF_S / statistics.median(inside)


def timed_run(args, runner: Runner, started: float) -> dict:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reps: list[dict] = []
    with Calibrator() as calibrator:
        # the next repetition is assumed to last as long as the slowest so far
        while len(reps) < MIN_REPS or _fits(
                max(r.get("wall_s", 0.0) for r in reps), started, args.seconds):
            reps.append(runner.rep(args.workload, args.seed, WORKERS, False))
            if "error" in reps[-1] or time.perf_counter() > runner.deadline - 30.0:
                break
        rounds = calibrator.stop()
    good = [r for r in reps if "error" not in r]
    if not good:
        raise RuntimeError(f"no repetition completed: {reps[0]['error']}")
    series = {
        "setup_s": ("s", [at_reference_speed(
            r["setup_cpu_s"], rounds, (r["started_at"], r["imported_at"])) for r in good]),
        "work_s": ("s", [sum(at_reference_speed(cpu, rounds, (start, end))
                             for cpu, start, end in r["work_parts"]) for r in good]),
        "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in good]),
        "plain_setup_s": ("s", [r["setup_s"] for r in good]),
        "wall_s": ("s", [r["wall_s"] for r in good]),
        "plain_work_s": ("s", [r["work_s"] for r in good]),
        "work_cpu_s": ("s", [sum(part[0] for part in r["work_parts"]) for r in good]),
        "reference_round_ms": ("ms", [1e3 * dt for _, dt in rounds]),
    }
    if args.workload in SWEEPS:
        series["sweep_s"] = ("s", [r["work_s"] for r in good])
        series["certified_frac"] = (
            "ratio", [r["certified_rows"] / r["rows"] for r in good])
    else:
        series["draws_per_s"] = ("1/s", [r["draws_per_s"] for r in good])
        series["bridge_draws_per_s"] = (
            "1/s", [r["bridge_draws_per_s"] for r in good])
    attempted, failed, failures = tally(reps, "digests differ between repetitions")
    series["fail_ratio"] = ("ratio", [failed / attempted])
    report = {name: {"unit": unit, **summarize(vals)}
              for name, (unit, vals) in series.items()}
    metrics = {name: {"value": report[name]["median"], "unit": report[name]["unit"]}
               for name in ("setup_s", "work_s", "peak_rss_mb")}
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "report": report, "metrics": metrics,
        "digests": good[0]["digests"],
        "end_tv": good[0].get("end_tv"),
    }


# ---------------------------------------------------------------------------
# traced run


def import_profile(runner: Runner) -> dict:
    """scipy.stats' cumulative import time, from -X importtime."""
    probe = runner.spawn(["--probe"], python_flags=("-X", "importtime"))
    if "error" in probe:
        raise RuntimeError(probe["error"])
    scipy_stats_us = 0
    for line in probe["stderr"].splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if m and m.group(2) == "scipy.stats":
            scipy_stats_us = int(m.group(1))
    return {"scipy_stats_s": scipy_stats_us / 1e6, "modules": probe["modules"]}


def _ratio(cache: dict) -> float:
    total = cache["hits"] + cache["misses"]
    return cache["hits"] / total if total else 0.0


def _median_of(reps: list[dict], get) -> float:
    return statistics.median(get(r) for r in reps)


def traced_run(args, runner: Runner, started: float) -> dict:
    """The pooled sweep once, then pairs of untraced and traced one-worker
    repetitions for --seconds; per-layer figures are medians over pairs."""
    sweep = args.workload in SWEEPS
    pooled = runner.rep(args.workload, args.seed, WORKERS, False) if sweep else {}
    untraced, traced, pair_s = [], [], []
    while not pair_s or _fits(max(pair_s), started, args.seconds):
        untraced.append(runner.rep(args.workload, args.seed, 1, False))
        traced.append(runner.rep(args.workload, args.seed, 1, True))
        for r in (pooled, untraced[-1], traced[-1]):
            if "error" in r:
                raise RuntimeError(r["error"])
        pair_s.append(untraced[-1]["wall_s"] + traced[-1]["wall_s"])
    reps = ([pooled] if sweep else []) + untraced + traced
    imports = import_profile(runner)
    m: dict[str, tuple[float, str]] = {}
    for name, unit in SPAN_METRICS.items():
        m[name] = (_median_of(traced, lambda r: r["layers"].get(name, 0)), unit)
    m["exactlaw.skeleton_cache.hit_ratio"] = (_ratio(traced[0]["skeleton_cache"]), "ratio")

    row_ms = [ms for s in pooled.get("sweeps", {}).values() for ms in s["row_ms"]]
    overhead = sum(
        s["sweep_s"] - sum(s["row_ms"]) / 1000.0 / min(WORKERS, len(s["row_ms"]))
        for s in pooled.get("sweeps", {}).values()
    )
    m["lab.row_ms_p50"] = (statistics.median(row_ms) if row_ms else 0.0, "ms")
    m["lab.row_ms_max"] = (max(row_ms, default=0.0), "ms")
    m["lab.pool_overhead_s"] = (overhead, "s")

    for path in (*SHALLOW_PATHS, "bridge"):
        for stat, unit in (("us_p50", "us"), ("us_p99", "us"), ("draws", "count")):
            m[f"sampler.{path}.{stat}"] = (_median_of(
                untraced, lambda r: r.get("paths", {}).get(path, {}).get(stat, 0)), unit)
    m["sampler.forest_cache.hit_ratio"] = (_ratio(untraced[0]["forest_cache"]), "ratio")
    m["sampler.nodes"] = (untraced[0].get("nodes", 0), "count")
    m["import.scipy_stats_s"] = (imports["scipy_stats_s"], "s")
    m["import.modules"] = (imports["modules"], "count")
    slowdown = (_median_of(traced, lambda r: r["work_s"])
                / _median_of(untraced, lambda r: r["work_s"]))
    m["trace.overhead_pct"] = (100.0 * (slowdown - 1.0), "%")

    attempted, failed, failures = tally(
        reps, "tracing or the worker count changed a digest")
    return {
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
        "digests": traced[0]["digests"],
        "spans": traced[0]["layers"]["spans"],
        "pairs": len(traced),
    }


# ---------------------------------------------------------------------------


def print_report(args, env: dict, why: str, result: dict) -> None:
    print(f"geomgw benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}")
    print(f"  why: {why}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, r in result.get("report", {}).items():
        tail = (f"p{r['tail']['q']:g}={r['tail']['value']:.6g}" if r["tail"]
                else "no tail percentile (under 11 samples)")
        print(f"  {name:<20} median={r['median']:.6g} {r['unit']}  {tail}  "
              f"n={r['n']}  range=[{r['min']:.6g}, {r['max']:.6g}]")
    if "report" not in result:
        for name, v in result["metrics"].items():
            print(f"  {name:<40} {v['value']:.6g} {v['unit']}")
        print("  tracing overhead against untraced one-worker repetitions: "
              f"{result['metrics']['trace.overhead_pct']['value']:.1f}% "
              f"(median over {result['pairs']} pairs; {result['spans']} spans per traced run)")
    for name, digest in result["digests"].items():
        print(f"  sha256 {name:<28} {digest}")
    print(f"  checks: {result['attempted'] - result['failed']}/{result['attempted']} "
          "passed" + "".join(f"\n  FAILED {f}" for f in result["failures"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="geomgw benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "geomgw" / "__init__.py").is_file():
        return fail(f"no package source at {SRC / 'geomgw'}; run from a geomgw checkout")
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(started + RUN_BUDGET_S)

    # first interpreter: compiles bytecode and warms the file cache, untimed
    warm = runner.spawn(["--probe"])
    if "error" in warm:
        return fail(f"cannot import geomgw: {warm['error']}")
    if Path(warm["geomgw_file"]).resolve().parent != (SRC / "geomgw").resolve():
        return fail(f"geomgw came from {warm['geomgw_file']}, not from {SRC}")

    env = environment(args)
    why = WHY[args.workload]
    try:
        run = traced_run if args.trace else timed_run
        result = run(args, runner, started)
    except RuntimeError as exc:
        return fail(str(exc))
    print_report(args, env, why, result)
    full = {"workload": args.workload, "why": why, "trace": args.trace,
            "env": env, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(full, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
