"""The three benchmark workloads. Each runs once per fresh interpreter.

A workload returns a plain dict: the end-to-end timings of its main phase,
the CPU time of each part of it with the window that part covers on the
monotonic clock (`work_parts`: each sweep with its CSV, or each draw stream),
SHA-256 digests of everything it produced, per-item detail for the
per-layer report, and a list of checks as (name, passed, detail) triples.

Every call into the package goes through an attribute of the `geomgw`
module at call time (`geomgw.run_regime(...)`, not a name bound at import),
so the tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import resource
import time
from collections import Counter
from pathlib import Path

import geomgw

BENCH_DIR = Path(__file__).resolve().parent

# Criterion-8 regression pins on the TV at the bundled grid's last point.
PIN_N = 50
PINNED_TV = {"kesten": 0.0206, "condensation": 1e-9}
# Criterion-7 bound on the largest per-tree gap to the fat law at large theta.
THETA_GAP_BOUND = 1e-3

# A G-test fails a run only below this p value: at 1e-3 a handful of the
# many per-seed tests would fail by chance alone.
G_TEST_FAIL_P = 1e-6
CRIT = (0.5, 0.5)
SHALLOW_DRAWS = 5_000
SHALLOW_DEPTH = 2
LAW_CAP = 5
BRIDGE = dict(n=40, a=200, depth=5)
BRIDGE_DRAWS = 5_000


def cpu_s() -> float:
    """CPU seconds of this process and of the children it has waited for
    (the pool workers, once a sweep returns)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def bundled_config(name: str) -> geomgw.ExperimentConfig:
    ref = importlib.resources.files("geomgw") / "configs" / f"{name}.json"
    return geomgw.ExperimentConfig.from_json(ref.read_text())


# ---------------------------------------------------------------------------
# sweeps


def _converge(cfg, mode: str, workers: int, out_path: Path) -> dict:
    """One `geomgw converge` call: the sweep, then its CSV, as the CLI runs
    them. Returns the rows, the time in each part and the CSV digest.
    Sweeps are exact: they take no seed."""
    c0 = cpu_s()
    t0 = time.perf_counter()
    if mode == "regime":
        rows = geomgw.run_regime(cfg, workers=workers)
        write = geomgw.write_regime_csv
    else:
        rows = geomgw.run_theta_continuity(cfg, workers=workers)
        write = geomgw.write_theta_csv
    t1 = time.perf_counter()
    with open(out_path, "w", newline="") as fh:
        write(rows, fh)
    t2 = time.perf_counter()
    return {
        "mode": mode,
        "rows": rows,
        "sweep_s": t2 - t0,
        "part": (cpu_s() - c0, t0, t2),
        "csv_s": t2 - t1,
        "sha256": hashlib.sha256(out_path.read_bytes()).hexdigest(),
    }


def _cache_counts(cached) -> dict:
    """Hit and miss counts of an lru_cache, read through cache_info()."""
    info = cached.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def _regime_checks(name: str, rows, require_certified: bool) -> list:
    curve = [r.tv_exact for r in rows]
    at_pin = {r.n: r.tv_exact for r in rows}[PIN_N]
    pin = PINNED_TV[name]
    checks = [
        (f"{name}: curve ends below its start", curve[-1] < curve[0],
         f"{curve[0]!r} -> {curve[-1]!r}"),
        (f"{name}: curve peaks at its first point", max(curve) == curve[0],
         f"max {max(curve)!r}"),
        (f"{name}: tv at n={PIN_N} below the criterion-8 pin {pin}",
         at_pin < pin, repr(at_pin)),
    ]
    if require_certified:
        checks += [
            (f"{name}: row n={r.n} certified", r.certified,
             f"bound {r.tv_residual_bound!r}")
            for r in rows
        ]
    return checks


def _theta_checks(rows) -> list:
    tv_k = [r.tv_kesten for r in rows]
    last = rows[-1]
    return [
        ("theta: tv to kesten is smallest at the smallest theta",
         min(tv_k) == tv_k[0], f"{tv_k[0]!r} at theta={rows[0].theta!r}"),
        (f"theta: gap to condensation below {THETA_GAP_BOUND} at the largest theta",
         last.gap_condensation < THETA_GAP_BOUND,
         f"{last.gap_condensation!r} at theta={last.theta!r}"),
    ]


def _sweep_result(parts: dict, checks: list) -> dict:
    rows = [r for part in parts.values() if part["mode"] == "regime"
            for r in part["rows"]]
    return {
        "work_s": sum(p["sweep_s"] for p in parts.values()),
        "work_parts": [p["part"] for p in parts.values()],
        "digests": {k: p["sha256"] for k, p in parts.items()},
        "sweeps": {
            k: {
                "sweep_s": p["sweep_s"],
                "csv_s": p["csv_s"],
                "row_ms": [r.runtime_ms for r in p["rows"]],
            }
            for k, p in parts.items()
        },
        "rows": len(rows),
        "certified_rows": sum(r.certified for r in rows),
        "end_tv": {k: p["rows"][-1].tv_exact for k, p in parts.items()
                   if p["mode"] == "regime"},
        "checks": checks,
    }


def sweep_kesten(seed: int, workers: int, out_dir: Path) -> dict:
    cfg = bundled_config("kesten")
    part = _converge(cfg, "regime", workers, out_dir / "kesten.csv")
    return _sweep_result(
        {"kesten": part}, _regime_checks("kesten", part["rows"], False)
    )


def sweep_series(seed: int, workers: int, out_dir: Path) -> dict:
    cfg = geomgw.ExperimentConfig.load(str(BENCH_DIR / "configs" / "series.json"))
    regime = _converge(cfg, "regime", workers, out_dir / "series.csv")
    theta = _converge(bundled_config("poisson"), "theta", workers,
                      out_dir / "poisson-theta.csv")
    checks = _regime_checks("condensation", regime["rows"], True)
    checks += _theta_checks(theta["rows"])
    return _sweep_result({"series": regime, "poisson-theta": theta}, checks)


# ---------------------------------------------------------------------------
# sampling


def _shallow_paths(p):
    """(name, draw, reference law, audit) for each depth-2 sampling path."""
    d = SHALLOW_DEPTH
    return (
        ("gw", lambda r: geomgw.sample_gw(p, r, d),
         lambda: geomgw.gw_family(p, d, LAW_CAP), None),
        ("conditioned", lambda r: geomgw.sample_conditioned(p, 3, 2, r, d),
         lambda: geomgw.conditioned_family(p, 3, 2, d, LAW_CAP), None),
        ("kesten", lambda r: geomgw.sample_kesten(p, r, d),
         lambda: geomgw.kesten_family(p, d, LAW_CAP),
         lambda tt: geomgw.audit_spine(tt, d)),
        ("poisson", lambda r: geomgw.sample_poisson_tree(p, 0.7, r, d),
         lambda: geomgw.poisson_family(p, d, 0.7, LAW_CAP),
         lambda tt: geomgw.audit_skeleton(tt, d)),
        ("condensation-two_type",
         lambda r: geomgw.sample_condensation(p, 2, r, d, variant="two_type"),
         lambda: geomgw.condensation_family(p, d, 2, LAW_CAP),
         lambda tt: geomgw.audit_skeleton(tt, d, allow_barren_root=True)),
        ("condensation-inhomogeneous",
         lambda r: geomgw.sample_condensation(p, 2, r, d, variant="inhomogeneous"),
         lambda: geomgw.condensation_family(p, d, 2, LAW_CAP), None),
    )


def _draw_stream(root, draw, count: int) -> dict:
    """`geomgw sample` in-process: draw i uses root.child(i) and its tree is
    encoded as the CLI prints it. The digest covers exactly the CLI's
    output, header included."""
    lines, trees, times = [], [], []
    clock = time.perf_counter_ns
    c0 = cpu_s()
    t0 = clock()
    for i in range(count):
        s = clock()
        tree = draw(root.child(i))
        if isinstance(tree, geomgw.TypedTree):
            line = f'"{tree.tree.encode()}","{tree.flag_string()}"\n'
        else:
            line = f'"{tree.encode()}"\n'
        times.append(clock() - s)
        lines.append(line)
        trees.append(tree)
    t1 = clock()
    part = (cpu_s() - c0, t0 / 1e9, t1 / 1e9)
    elapsed = (t1 - t0) / 1e9
    typed = isinstance(trees[0], geomgw.TypedTree)
    header = "tree_code,survivor_flags\n" if typed else "tree_code\n"
    digest = hashlib.sha256((header + "".join(lines)).encode()).hexdigest()
    times.sort()
    return {
        "trees": trees,
        "elapsed_s": elapsed,
        "part": part,
        "sha256": digest,
        "draws": count,
        "us_p50": times[count // 2] / 1000.0,
        "us_p99": times[(99 * count) // 100] / 1000.0,
    }


def sample_exact(seed: int, workers: int, out_dir: Path) -> dict:
    p = geomgw.OffspringParams(*CRIT)
    root = geomgw.RandomSource(seed)
    checks, paths, digests = [], {}, {}
    bad_draws = nodes = 0
    for name, draw, law, audit in _shallow_paths(p):
        got = _draw_stream(root, draw, SHALLOW_DRAWS)
        trees = got.pop("trees")
        plain = [t.tree if isinstance(t, geomgw.TypedTree) else t for t in trees]
        nodes += sum(t.size for t in plain)
        if audit is not None:
            for tt in trees:
                try:
                    audit(tt)
                except geomgw.AuditError:
                    bad_draws += 1
        counts = Counter(t.encode() for t in plain)
        g = geomgw.g_test_against_law(counts, law())
        checks.append((f"{name}: G-test p >= {G_TEST_FAIL_P}",
                       g.p_value >= G_TEST_FAIL_P, f"p={g.p_value:.4g}"))
        paths[name] = got
        digests[name] = got["sha256"]

    b = BRIDGE
    got = _draw_stream(
        root, lambda r: geomgw.sample_conditioned(p, b["n"], b["a"], r, b["depth"]),
        BRIDGE_DRAWS,
    )
    # conditioned on Z_n = a >= 1, no level above n may be empty
    bad_draws += sum(t.z(b["depth"]) < 1 for t in got.pop("trees"))
    paths["bridge"] = got
    digests["bridge"] = got["sha256"]

    shallow_s = sum(v["elapsed_s"] for k, v in paths.items() if k != "bridge")
    shallow_draws = SHALLOW_DRAWS * (len(paths) - 1)
    checks.append(("no sampled tree fails its audit", bad_draws == 0,
                   f"{bad_draws} failed"))
    return {
        "work_s": shallow_s + got["elapsed_s"],
        "work_parts": [v.pop("part") for v in paths.values()],
        "digests": digests,
        "paths": paths,
        "draws_per_s": shallow_draws / shallow_s,
        "bridge_draws_per_s": BRIDGE_DRAWS / got["elapsed_s"],
        "draws": shallow_draws + BRIDGE_DRAWS,
        "bad_draws": bad_draws,
        "nodes": nodes,
        "checks": checks,
    }


RUNNERS = {
    "sweep-kesten": sweep_kesten,
    "sweep-series": sweep_series,
    "sample-exact": sample_exact,
}


def run_workload(name: str, seed: int, workers: int, out_dir: Path) -> dict:
    """Run one workload once. The two lru_cache counters are read through
    cache_info() only; with pool workers they stay in the workers."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result = RUNNERS[name](seed, workers, out_dir)
    result["skeleton_cache"] = _cache_counts(geomgw.exactlaw._skeleton)
    result["forest_cache"] = _cache_counts(geomgw.sampler._cached_forest)
    return result
