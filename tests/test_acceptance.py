"""Acceptance gate: nine end-to-end checks, each with a pinned tolerance
and a wall-clock budget.

Every test prints a single summary line (visible under `pytest -s`) and
fails loudly if either the numbers or the runtime drift. The convergence
thresholds in criterion 8 are regression pins recorded at the first
certified run of the bundled sweeps; they are deliberately tighter than
the coarse a-priori targets.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import io
import math
import os
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

from geomgw import (
    ExperimentConfig,
    OffspringParams,
    RandomSource,
    TypedTree,
    condensation_family,
    condensation_tree_law,
    condensation_tree_law_product,
    conditioned_tree_law,
    enumerate_trees,
    extinction_params,
    g_test_against_law,
    g_test_two_sample,
    iterate,
    kesten_family,
    kesten_restricted_family,
    log_forest_pmf,
    log_poisson_weight,
    per_tree_gap,
    poisson_restricted_family,
    run_regime,
    sample_condensation,
    write_regime_csv,
)
from geomgw import oracle
from geomgw.cli import main as cli_main
from geomgw.lab import LAWS

CRIT = OffspringParams(0.5, 0.5)
SUB = OffspringParams(0.4, 0.5)
SUP = OffspringParams(0.6, 0.3)
FIXTURES = (SUB, CRIT, SUP)

# Milder supercritical law for the degree-cap-40 normalization checks: at
# (0.6, 0.3) the tilted depth-1 offspring law genuinely carries ~2e-4 of
# mass beyond degree 40, more than the 1e-4 slack the check allows, so the
# tolerance would measure the fixture instead of the code.
SUP_MILD = OffspringParams(0.55, 0.45)


def _stamp(num: int, name: str, t0: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, (
        f"criterion {num} ({name}): FAIL, over budget ({elapsed:.2f}s >= {budget:g}s)"
    )
    print(f"criterion {num} ({name}): PASS in {elapsed:.2f}s, {detail}")


# -- 1: closed-form parameter identities --------------------------------------


def test_criterion_1_parameter_identities():
    t0 = time.perf_counter()
    worst_grid = 0.0
    for i in range(10):
        for j in range(10):
            eta = (i + 0.5) / 10.0
            q = (j + 0.5) / 10.0
            p = OffspringParams(eta, q)
            mu, gamma, kappa = p.mean, p.gamma, p.kappa
            scale = max(1.0, gamma)
            gaps = [abs((gamma - kappa) - mu * (gamma - 1.0)) / scale]
            if eta != q:
                gaps.append(abs((gamma - 1.0) - (kappa - 1.0) / (1.0 - mu)) / scale)
            back = OffspringParams.from_poles(kappa, gamma)
            gaps.append(abs(back.eta - eta))
            gaps.append(abs(back.q - q))
            worst_grid = max(worst_grid, max(gaps))
    assert worst_grid <= 1e-12

    # the pole sequence must thread back through the generating function
    worst_chain = 0.0
    for p in FIXTURES:
        for n in range(1, 61):
            target = iterate(p, n).gamma_n
            probe = p.gf(iterate(p, n + 1).gamma_n)
            worst_chain = max(worst_chain, abs(probe - target) / target)
    assert worst_chain <= 1e-10

    _stamp(
        1, "parameter identities", t0, 1.0,
        f"grid gap {worst_grid:.1e}, pole chain gap {worst_chain:.1e}",
    )


# -- 2: forest law against an independent convolution program -----------------


def test_criterion_2_forest_convolution_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for p in FIXTURES:
        for n in range(5):
            for k in range(7):
                dp = oracle.forest_series(p, k, n, 50)
                for a in range(51):
                    mine = math.exp(log_forest_pmf(p, k, n, a))
                    worst = max(worst, abs(mine - dp[a]))
    assert worst <= 1e-12
    _stamp(
        2, "forest law vs convolution program", t0, 5.0,
        f"max abs gap {worst:.1e} over k<=6, n<=4, a<=50, 3 laws",
    )


# -- 3: conditioned ball law against brute-force joint enumeration ------------


def _ball_and_generation_prob(p, n, a, h, t):
    """P(radius-h ball = t, generation n = a) the pedestrian way: a direct
    product of offspring masses over the inner nodes, times the bottom-row
    forest mass from the series-composition program. No pole algebra."""
    prob = 1.0
    for deg, dep in zip(t.degrees, t.depths):
        if dep < h:
            if deg == 0:
                prob *= 1.0 - p.eta
            else:
                prob *= p.eta * p.q * (1.0 - p.q) ** (deg - 1)
    width = t.z(h)
    return prob * oracle.forest_series(p, width, n - h, a)[a]


def test_criterion_3_conditioned_law_vs_brute_force():
    t0 = time.perf_counter()
    worst = 0.0
    shells = 0
    for p, n, a, h in ((CRIT, 3, 2, 2), (SUB, 3, 1, 2)):
        denom = oracle.generation_series(p, n, a)[a]
        total = 0.0
        for t in enumerate_trees(h, 4):
            brute = _ball_and_generation_prob(p, n, a, h, t) / denom
            mine = math.exp(conditioned_tree_law(p, n, a, t, h))
            worst = max(worst, abs(mine - brute))
            total += brute
            shells += 1
        # the degree cap loses some conditional mass, never gains any
        assert total <= 1.0 + 1e-12
    assert worst <= 1e-10
    _stamp(
        3, "conditioned law vs brute force", t0, 30.0,
        f"max abs gap {worst:.1e} over {shells} ball shapes",
    )


# -- 4: limit-law normalizations and the two fat-tree formulas ----------------


def _capped_spine_mass(p, h, cap):
    """Mass kept by the degree-capped radius-h eternal-tree ball law, via a
    scalar derivative recursion on the capped generating function evaluated
    at the extinction probability. Independent of the per-tree weights."""
    ext = extinction_params(p)
    pmf = [math.exp(p.log_pmf(k)) for k in range(cap + 1)]
    val, der = ext.extinction_prob, 1.0
    for _ in range(h):
        nval = sum(pmf[k] * val**k for k in range(cap + 1))
        nder = der * sum(pmf[k] * k * val ** (k - 1) for k in range(1, cap + 1))
        val, der = nval, nder
    return der / ext.mean**h


def test_criterion_4_limit_normalizations_and_two_formulas():
    t0 = time.perf_counter()

    worst_mass = 0.0
    for p in (SUB, CRIT, SUP_MILD):
        masses = [
            math.exp(kesten_family(p, 1, 40).log_total()),
            math.exp(kesten_restricted_family(p, 2, 2, 40).log_total()),
            _capped_spine_mass(p, 2, 40),
        ]
        for h in (1, 2):
            for k0 in (1, 2):
                masses.append(math.exp(condensation_family(p, h, k0, 40).log_total()))
        worst_mass = max(worst_mass, max(abs(m - 1.0) for m in masses))
    assert worst_mass <= 1e-4

    # weight form vs tilted product, every enumerable ball shape
    worst_pair = 0.0
    pairs = 0

    def compare(p, t, h):
        nonlocal worst_pair, pairs
        k0 = t.root_degree
        if k0 == 0:
            return
        la = condensation_tree_law(p, k0, t, h)
        lb = condensation_tree_law_product(p, k0, t, h)
        if math.isinf(la) or math.isinf(lb):
            assert la == lb
        else:
            worst_pair = max(worst_pair, abs(la - lb))
        pairs += 1

    for p in FIXTURES:
        for h in (1, 2):
            for t in enumerate_trees(h, 3):
                compare(p, t, h)
    for t in enumerate_trees(3, 3):
        compare(CRIT, t, 3)
    assert worst_pair <= 1e-10

    _stamp(
        4, "limit normalizations", t0, 60.0,
        f"mass defect {worst_mass:.1e}, formula gap {worst_pair:.1e} on {pairs} shapes",
    )


# -- 5: every sampler against its exact law -----------------------------------


def test_criterion_5_sampler_g_tests():
    t0 = time.perf_counter()
    draws = 100_000
    cap = 5
    pvals = {}
    for seed, (regime, row) in enumerate(LAWS.items(), 52001):
        # a law that needs k0 is its (h, k0) view; the others are families
        o = SimpleNamespace(n=3, a=2, theta=0.7, variant=None,
                            k0=2 if "k0" in row.needs else None)
        draw = row.sampler(CRIT, 2, o)
        r = RandomSource(seed)
        trees = (draw(r) for _ in range(draws))
        counts = Counter(
            (t.tree if isinstance(t, TypedTree) else t).encode() for t in trees
        )
        family, args = row.law(CRIT, 2, cap, o)
        pvals[regime] = g_test_against_law(counts, family(*args)).p_value
    assert min(pvals.values()) > 1e-3, pvals
    _stamp(
        5, "sampler G-tests", t0, 180.0,
        "p values " + ", ".join(f"{k}={v:.3f}" for k, v in pvals.items()),
    )


# -- 6: the two fat-tree generators agree in law ------------------------------


def test_criterion_6_fat_tree_generators_two_sample():
    t0 = time.perf_counter()
    draws = 100_000
    pvals = {}
    for name, p, s1, s2 in (
        ("critical", CRIT, 61001, 61002),
        ("supercritical", SUP, 61003, 61004),
    ):
        r1, r2 = RandomSource(s1), RandomSource(s2)
        c1 = Counter(
            sample_condensation(p, 1, r1, 2, "inhomogeneous").encode()
            for _ in range(draws)
        )
        c2 = Counter(
            sample_condensation(p, 1, r2, 2, "two_type").tree.encode()
            for _ in range(draws)
        )
        pvals[name] = g_test_two_sample(c1, c2).p_value
    assert min(pvals.values()) > 1e-3, pvals
    _stamp(
        6, "fat-tree generators two-sample", t0, 120.0,
        "p values " + ", ".join(f"{k}={v:.3f}" for k, v in pvals.items()),
    )


# -- 7: boundary behaviour of the skinny family -------------------------------


def test_criterion_7_theta_continuity():
    t0 = time.perf_counter()

    # as theta -> 0 the root weight degenerates to the eternal-tree factor
    worst_rel = 0.0
    for p in FIXTURES:
        ext = extinction_params(p)
        for h in range(1, 5):
            for k in range(1, 5):
                target = k * ext.extinction_prob ** (k - 1) / ext.mean**h
                got = math.exp(log_poisson_weight(p, h, k, 1e-8))
                worst_rel = max(worst_rel, abs(got - target) / target)
    assert worst_rel < 1e-6

    # as theta -> infinity the restricted skinny law approaches the fat law
    worst_gap = 0.0
    for k0 in (1, 2):
        skinny = poisson_restricted_family(CRIT, 1, k0, 1e3, 4)
        fat = condensation_family(CRIT, 1, k0, 4)
        worst_gap = max(worst_gap, per_tree_gap(skinny, fat))
    assert worst_gap < 1e-3

    _stamp(
        7, "theta continuity", t0, 60.0,
        f"small-theta rel gap {worst_rel:.1e}, large-theta tree gap {worst_gap:.1e}",
    )


# -- 8: the three convergence sweeps ------------------------------------------

# Regression pins from the first certified run of the bundled configs
# (kesten end 0.0196, poisson end 0.0120, condensation end 3.8e-11; the
# condensation curve bottoms out at the double-precision noise floor near
# 1e-12..1e-10 for n >= 25, hence the looser pin).
PINNED_END_TV = {"kesten": 0.0206, "poisson": 0.0126, "condensation": 1e-9}
# SHA-256 of each bundled sweep's CSV: output bytes stay the same across
# refactors, and a fix that moves them must say so
PINNED_CSV = {
    "kesten": "8d01cf479a1958b72ab8fb778915c3e3cf8472125ca80cce0fd10b4a164d0d92",
    "poisson": "2528a8ccfdc14ebb66178d0f299726c9195882988fdad990e5444978ed782698",
    "condensation": "95bc14b27ab5d1f76317816c6a51f5c4cde7c1f0f11304d01c3518e4b621ba02",
}


def _bundled(name: str) -> ExperimentConfig:
    text = (importlib.resources.files("geomgw") / "configs" / f"{name}.json").read_text()
    return ExperimentConfig.from_json(text)


def test_criterion_8_regime_convergence():
    t0 = time.perf_counter()
    ends = {}
    for name in ("kesten", "poisson", "condensation"):
        rows = run_regime(_bundled(name))
        curve = [row.tv_exact for row in rows]
        assert curve[-1] < curve[0], (name, curve)
        assert max(curve) == curve[0], (name, curve)
        assert curve[-1] < PINNED_END_TV[name], (name, curve[-1])
        if name == "kesten":
            # coarse a-priori target the regression pin tightens
            assert curve[-1] < 0.05
        else:
            assert all(row.certified for row in rows), name
        csv = io.StringIO()
        write_regime_csv(rows, csv)
        digest = hashlib.sha256(csv.getvalue().encode()).hexdigest()
        assert digest == PINNED_CSV[name], name
        ends[name] = curve[-1]
    _stamp(
        8, "regime convergence", t0, 600.0,
        "end TV " + ", ".join(f"{k}={v:.3e}" for k, v in ends.items()),
    )


# -- 9: byte-level determinism of the command line -----------------------------


def _cli(capsys, *argv: str) -> str:
    rc = cli_main(list(argv))
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return captured.out


def test_criterion_9_cli_determinism(tmp_path, monkeypatch, capsys):
    t0 = time.perf_counter()
    sample_args = (
        "sample", "--eta", "0.5", "--q", "0.5", "--regime", "kesten",
        "--height", "2", "--samples", "200", "--seed", "11",
    )
    first = _cli(capsys, *sample_args)
    second = _cli(capsys, *sample_args)
    assert first and first == second

    cfg = ExperimentConfig(
        eta=0.5, q=0.5, regime="kesten", h=2, degree_cap=6,
        n_grid=(10, 14, 18, 22),
    )
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(cfg.to_json())
    blobs = []
    for run, threads in ((1, "1"), (2, "1"), (3, "4")):
        out_path = tmp_path / f"run{run}.csv"
        monkeypatch.setenv("GEOMGW_THREADS", threads)
        _cli(capsys, "converge", "--config", str(cfg_path), "--out", str(out_path))
        blobs.append(out_path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    # Separate interpreters with different hash seeds: an in-process rerun
    # shares one string-hash seed, so it cannot see set-iteration-order
    # effects on float sums. This leg can.
    for run, seed in ((4, "1"), (5, "2")):
        out_path = tmp_path / f"run{run}.csv"
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["GEOMGW_THREADS"] = "2"
        proc = subprocess.run(
            [sys.executable, "-m", "geomgw.cli", "converge",
             "--config", str(cfg_path), "--out", str(out_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out_path.read_bytes())
    assert blobs[3] == blobs[4] == blobs[0]

    sample_cmd = [sys.executable, "-m", "geomgw.cli", *sample_args]
    sample_blobs = []
    for seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            sample_cmd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        sample_blobs.append(proc.stdout)
    assert sample_blobs[0] == sample_blobs[1] == first

    elapsed = time.perf_counter() - t0
    print(
        f"criterion 9 (cli determinism): PASS in {elapsed:.2f}s, "
        "sample and converge byte-stable across reruns, worker counts 1/2/4, "
        "and subprocesses with different hash seeds"
    )
