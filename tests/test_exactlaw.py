"""Exact generation/forest pmfs, conditioning ratios, and the limit laws."""

import functools
import io
import math
import operator
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from geomgw import (
    CertificationError,
    OffspringParams,
    OrderedTree,
    ResourceError,
    TruncatedLaw,
    TruncationError,
    ValidationError,
    condensation_family,
    condensation_tree_law,
    condensation_tree_law_product,
    conditioned_family,
    conditioned_restricted_family,
    conditioned_tree_law,
    count_trees,
    enumerate_trees,
    extinction_params,
    gw_family,
    gw_tree_log_prob,
    iterate,
    kesten_family,
    kesten_restricted_family,
    kesten_tree_law,
    log_forest_pmf,
    log_generation_pmf,
    log_poisson_weight,
    poisson_family,
    poisson_restricted_family,
    poisson_tree_law,
    size_conditioning_ratio,
)
from geomgw import exactlaw, logspace, oracle
from geomgw.exactlaw import law_normalize_check
from geomgw.logspace import log_binomial, log_sub, log_sum
from geomgw.treekit import MAX_TREES

CRIT = OffspringParams(0.5, 0.5)
SUB = OffspringParams(0.3, 0.5)
SUP = OffspringParams(0.6, 0.3)
PURE = OffspringParams(1.0, 0.5)  # no extinction, kappa = 0
FIXTURES = (CRIT, SUB, SUP)

LEAF = OrderedTree((0,))


def rational_gamma(p, n):
    eta = Fraction(p.eta)
    q = Fraction(p.q)
    gamma = 1 / (1 - q)
    kappa = (1 - eta) * gamma
    mu = eta / q
    if mu == 1:
        return 1 + (gamma - 1) / n
    return (kappa - mu**n) / (1 - mu**n)


def rational_kappa(p):
    # subtract inside Fraction, not in float: a float-rounded 1 - eta
    # differs from the exact one by ~1e-17, and g - kappa amplifies that
    # by mu^-n, which is the whole reason the stable forms exist
    return (1 - Fraction(p.eta)) / (1 - Fraction(p.q))


def rational_z_pmf(p, n, a):
    """P(Z_n = a) in exact arithmetic, straight from the closed form."""
    kappa = rational_kappa(p)
    g = rational_gamma(p, n)
    if a == 0:
        return kappa / g
    return (g - kappa) * (g - 1) / g ** (a + 1)


# -- generation pmf -------------------------------------------------------


def test_generation_pmf_frozen():
    assert math.exp(log_generation_pmf(CRIT, 2, 1)) == pytest.approx(
        1.0 / 9.0, rel=1e-14
    )


def test_generation_zero_is_a_point_mass():
    for p in FIXTURES:
        assert log_generation_pmf(p, 0, 1) == 0.0
        assert log_generation_pmf(p, 0, 0) == -math.inf
        assert log_generation_pmf(p, 0, 7) == -math.inf


def test_generation_pmf_death_mass():
    for p in FIXTURES:
        for n in (1, 2, 9):
            want = p.kappa / iterate(p, n).gamma_n
            assert math.exp(log_generation_pmf(p, n, 0)) == pytest.approx(
                want, rel=1e-13
            )


def test_generation_pmf_normalizes():
    # supercritical iterates sit just above 1, so the tail needs room
    for p in FIXTURES:
        for n in (1, 3, 8):
            mass = 0.0
            for a in range(200_000):
                term = math.exp(log_generation_pmf(p, n, a))
                mass += term
                if a > 1 and term < 1e-17:
                    break
            assert mass == pytest.approx(1.0, abs=1e-12)


def test_generation_pmf_matches_exact_rationals_deep():
    # the closed form must survive gamma_n -> kappa collapse at large n
    cases = [(SUB, 60, 1), (SUB, 60, 40), (SUP, 60, 5), (CRIT, 500, 3)]
    for p, n, a in cases:
        want = rational_z_pmf(p, n, a)
        got = log_generation_pmf(p, n, a)
        assert got == pytest.approx(math.log(float(want)), abs=1e-12)


def test_generation_pmf_survives_gap_underflow():
    # the smaller pole gap leaves the normal float range near n = 1385 for
    # SUB (gamma_n - kappa) and near n = 1021 for SUP (gamma_n - 1)
    mpmath = pytest.importorskip("mpmath")
    cases = [(SUB, n) for n in (1300, 1380, 1390, 1450, 2000, 5000)] + [
        (SUP, n) for n in (1000, 1020, 1025, 1075, 2000, 5000)
    ]
    for p, n in cases:
        # the naive closed form, with enough digits to survive gamma_n
        # meeting its limit to within 2^-5000
        with mpmath.workdps(1600):
            eta, q = mpmath.mpf(p.eta), mpmath.mpf(p.q)
            kappa = (1 - eta) / (1 - q)
            mun = (eta / q) ** n
            g = (kappa - mun) / (1 - mun)
            want = [float(mpmath.log((g - kappa) * (g - 1) / g ** (a + 1)))
                    for a in (1, 3)]
        got = [log_generation_pmf(p, n, a) for a in (1, 3)]
        assert got == pytest.approx(want, rel=1e-13)


def test_generation_pmf_rejects_negatives():
    with pytest.raises(ValidationError):
        log_generation_pmf(CRIT, -1, 2)
    with pytest.raises(ValidationError):
        log_generation_pmf(CRIT, 2, -1)


# -- forest pmf -----------------------------------------------------------


def test_forest_corners():
    for p in FIXTURES:
        assert log_forest_pmf(p, 0, 3, 0) == 0.0
        assert log_forest_pmf(p, 0, 3, 2) == -math.inf
        assert log_forest_pmf(p, 3, 0, 3) == 0.0
        assert log_forest_pmf(p, 3, 0, 2) == -math.inf
        for a in (0, 1, 5):
            assert log_forest_pmf(p, 1, 2, a) == pytest.approx(
                log_generation_pmf(p, 2, a), rel=1e-13, abs=1e-13
            )


def test_forest_matches_hand_convolution():
    for p in (CRIT, SUB, SUP, PURE):
        single = [math.exp(log_generation_pmf(p, 2, a)) for a in range(60)]
        pair = [0.0] * 60
        for x in range(60):
            for y in range(60 - x):
                pair[x + y] += single[x] * single[y]
        for a in range(40):
            got = math.exp(log_forest_pmf(p, 2, 2, a))
            assert got == pytest.approx(pair[a], abs=1e-13)


def test_forest_normalizes_in_a():
    for p in (CRIT, SUP, PURE):
        mass = sum(math.exp(log_forest_pmf(p, 3, 2, a)) for a in range(500))
        assert mass == pytest.approx(1.0, abs=1e-11)


# -- size-conditioning ratio ----------------------------------------------


def test_ratio_frozen_rational():
    got = size_conditioning_ratio(CRIT, 40, 1, 2, 1)
    assert math.exp(got) == pytest.approx(
        131118.0 / 64000.0, rel=1e-12
    )


def test_ratio_at_h_equals_n_is_a_kronecker():
    for p in FIXTURES:
        for a in (1, 3):
            hit = size_conditioning_ratio(p, 4, 4, a, a)
            want = -log_generation_pmf(p, 4, a)
            assert hit == pytest.approx(want, rel=1e-12)
            miss = size_conditioning_ratio(p, 4, 4, a + 1, a)
            assert miss == -math.inf


def test_ratio_allows_width_above_target_when_levels_remain():
    # five lines at depth 1 can still thin down to two at depth 3
    assert size_conditioning_ratio(CRIT, 3, 1, 5, 2) > -math.inf
    # but not when no levels remain
    assert size_conditioning_ratio(CRIT, 3, 3, 5, 2) == -math.inf


def test_ratio_integrates_to_one_against_generation_pmf():
    # E[ratio(Z_h)] = 1 is total probability in disguise
    cases = [(CRIT, 6, 4, 2), (SUB, 8, 3, 3), (SUP, 5, 6, 2), (PURE, 6, 7, 2)]
    for p, n, a, h in cases:
        total = 0.0
        for k in range(1, 700):
            lz = log_generation_pmf(p, h, k)
            lr = size_conditioning_ratio(p, n, h, k, a)
            if lz > -math.inf and lr > -math.inf:
                total += math.exp(lz + lr)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_ratio_matches_exact_rationals():
    # forest pmf at n - h over the single-line pmf at n, exact arithmetic
    for p, n, h, a in [(SUB, 20, 2, 100), (SUP, 30, 3, 7), (CRIT, 50, 1, 4)]:
        m = n - h
        kappa = rational_kappa(p)
        gn, gm = rational_gamma(p, n), rational_gamma(p, m)
        beta = (gm - kappa) * (gm - 1)
        delta = (gn - kappa) * (gn - 1)
        for k in (1, 2, 5):
            total = Fraction(0)
            for i in range(1, min(k, a) + 1):
                total += (
                    math.comb(k, i)
                    * math.comb(a - 1, i - 1)
                    * kappa ** (k - i)
                    * beta**i
                )
            want = (gn / gm) ** a * (gn / delta) * gm ** (-k) * total
            got = size_conditioning_ratio(p, n, h, k, a)
            assert got == pytest.approx(math.log(float(want)), abs=1e-11)


# -- plain ball laws -------------------------------------------------------


def test_gw_ball_probability_is_a_product_over_inner_nodes():
    t = OrderedTree((2, 1, 0, 0))
    want = 0.125 * 0.25 * 0.5  # p(2) p(1) p(0) at the critical fixture
    assert math.exp(gw_tree_log_prob(CRIT, t, 2)) == pytest.approx(
        want, rel=1e-14
    )
    # bottom-row nodes contribute nothing: only the root is inner here
    assert gw_tree_log_prob(CRIT, t.restrict(1), 1) == pytest.approx(
        CRIT.log_pmf(2), rel=1e-14
    )
    # the argument must already be its own ball
    with pytest.raises(ValidationError):
        gw_tree_log_prob(CRIT, t, 1)


def test_gw_family_masses():
    law = gw_family(CRIT, 1, 30)
    assert math.exp(law.log_total()) == pytest.approx(
        1.0 - 0.5**31, rel=1e-12
    )
    assert math.exp(law.log_residual) == pytest.approx(0.5**31, rel=1e-6)


# -- conditioned law -------------------------------------------------------


def test_conditioned_law_assembles_ball_times_ratio():
    for t in enumerate_trees(2, 3):
        k = t.z(2)
        lgw = gw_tree_log_prob(CRIT, t, 2)
        lr = size_conditioning_ratio(CRIT, 5, 2, k, 3)
        want = lgw + lr if k >= 1 else -math.inf
        assert conditioned_tree_law(CRIT, 5, 3, t, 2) == pytest.approx(
            want, rel=1e-12, abs=1e-12
        )


def test_conditioned_law_kills_dead_balls():
    assert conditioned_tree_law(CRIT, 3, 2, LEAF, 1) == -math.inf


def test_conditioned_family_mass_and_meta():
    law = conditioned_family(CRIT, 3, 2, 2, 5)
    assert law.meta["law"] == "conditioned"
    assert law.meta["n"] == "3"
    assert law.meta["a"] == "2"
    assert law.meta["h"] == "2"
    total = math.exp(law.log_total())
    resid = math.exp(law.log_residual)
    assert total + resid == pytest.approx(1.0, abs=1e-12)
    assert resid < 0.05


def test_conditioned_family_at_h_equals_n_pins_the_width():
    law = conditioned_family(CRIT, 2, 2, 2, 6)
    for code in law.entries:
        assert OrderedTree.decode(code).z(2) == 2


# -- Kesten law ------------------------------------------------------------


def test_kesten_frozen_entries():
    law = kesten_family(CRIT, 1, 3)
    want = {"1,0": 0.25, "2,0,0": 0.25, "3,0,0,0": 0.1875}
    assert set(law.entries) == set(want)
    for code, val in want.items():
        assert math.exp(law.entries[code]) == pytest.approx(val, rel=1e-13)
        t = OrderedTree.decode(code)
        assert kesten_tree_law(CRIT, t, 1) == pytest.approx(
            math.log(val), rel=1e-13
        )


def test_kesten_law_kills_dying_balls():
    assert kesten_tree_law(CRIT, LEAF, 1) == -math.inf
    assert kesten_tree_law(SUB, OrderedTree((2, 0, 0)), 2) == -math.inf


def test_kesten_mass_fills_up_at_height_one():
    law = kesten_family(SUB, 1, 200)
    assert math.exp(law.log_total()) == pytest.approx(1.0, abs=1e-10)


def test_kesten_rejects_eta_one():
    with pytest.raises(ValidationError):
        kesten_family(PURE, 1, 5)
    with pytest.raises(ValidationError):
        kesten_tree_law(PURE, LEAF, 1)
    with pytest.raises(ValidationError, match="eta < 1"):
        kesten_restricted_family(PURE, 2, 1, 3)


# -- skinny-limit weight ----------------------------------------------------


def test_poisson_weight_frozen_exponential():
    for theta in (0.3, 1.0, 2.5):
        assert log_poisson_weight(CRIT, 1, 1, theta) == pytest.approx(
            -theta, rel=1e-13
        )


def test_poisson_weight_at_zero_width_vanishes():
    assert log_poisson_weight(CRIT, 2, 0, 0.7) == -math.inf


def test_poisson_weight_at_theta_zero_is_the_kesten_factor():
    for p in FIXTURES:
        ext = extinction_params(p)
        for h in (1, 2, 3):
            for k in (1, 2, 5):
                want = (
                    math.log(k)
                    + (k - 1) * math.log(ext.extinction_prob)
                    - h * math.log(ext.mean)
                )
                assert log_poisson_weight(p, h, k, 0.0) == pytest.approx(
                    want, rel=1e-13
                )


def test_poisson_weight_no_extinction_branch():
    # kappa = 0: no dying bushes, so the inner sum keeps only its top term
    theta = 0.9
    k1 = log_poisson_weight(PURE, 1, 1, theta)
    # width 1 at radius 1: exp(-theta zbar_1) / dual mean, and for this
    # fixture zbar_1 = (mu - 1)(1 - kappa) = 1 and the dual mean is 1/2
    assert k1 == pytest.approx(-theta + math.log(2.0), rel=1e-12)
    # widths 2 and 3 must be pure lambda^(K-1)/(K-1)! on top of width 1
    k2 = log_poisson_weight(PURE, 1, 2, theta)
    k3 = log_poisson_weight(PURE, 1, 3, theta)
    assert k3 == pytest.approx(k1 + 2.0 * (k2 - k1) - math.log(2.0), rel=1e-12)
    # and the theta -> 0 end carries no width >= 2 mass at all
    assert log_poisson_weight(PURE, 1, 2, 0.0) == -math.inf


def test_poisson_weight_rejects_negative_theta():
    with pytest.raises(ValidationError):
        log_poisson_weight(CRIT, 1, 1, -0.5)


def test_poisson_law_assembles_ball_times_weight():
    theta = 0.7
    for t in enumerate_trees(2, 3):
        k = t.z(2)
        want = gw_tree_log_prob(CRIT, t, 2) + log_poisson_weight(
            CRIT, 2, k, theta
        )
        assert poisson_tree_law(CRIT, theta, t, 2) == pytest.approx(
            want, rel=1e-12
        )


def test_poisson_family_mass_is_below_one():
    law = poisson_family(CRIT, 1, 0.5, 80)
    total = math.exp(law.log_total())
    assert 0.9 < total <= 1.0 + 1e-9


# -- condensation law -------------------------------------------------------


def test_condensation_star_is_certain():
    star = OrderedTree((1, 0))
    assert condensation_tree_law(CRIT, 1, star, 1) == pytest.approx(
        0.0, abs=1e-14
    )
    assert condensation_tree_law_product(CRIT, 1, star, 1) == pytest.approx(
        0.0, abs=1e-14
    )


def test_condensation_two_formulas_agree():
    for p in FIXTURES:
        for k0 in (1, 2):
            for h in (1, 2):
                for t in enumerate_trees(h, 3, root_degree=k0):
                    a = condensation_tree_law(p, k0, t, h)
                    b = condensation_tree_law_product(p, k0, t, h)
                    if a == -math.inf:
                        assert b == -math.inf
                    else:
                        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)


def test_condensation_family_includes_dying_balls():
    law = condensation_family(CRIT, 2, 2, 4)
    assert "2,0,0" in law.entries
    assert math.exp(law.entries["2,0,0"]) > 0.0


def test_condensation_rejects_wrong_root_degree():
    law = condensation_family(CRIT, 2, 2, 4)
    assert "1,1,0" not in law.entries
    # a ball whose root keeps the wrong subtree count is a contract error,
    # not a zero-probability event; so are k0 = 0 and radius 0, and both
    # formulas reject all three
    for law_of in (condensation_tree_law, condensation_tree_law_product):
        with pytest.raises(ValidationError, match="root degree 2, got 1"):
            law_of(CRIT, 2, OrderedTree((1, 0)), 1)
        with pytest.raises(ValidationError, match="at least one subtree"):
            law_of(CRIT, 0, OrderedTree((0,)), 1)
        with pytest.raises(ValidationError, match="radius must be >= 1"):
            law_of(CRIT, 2, OrderedTree((2, 0, 0)), 0)


# -- restricted families ----------------------------------------------------


def test_restricted_family_meta():
    law = poisson_restricted_family(CRIT, 2, 2, 0.7, 4)
    assert law.meta["law"] == "poisson-restricted"
    assert law.meta["k0"] == "2"
    assert law.meta["theta"] == repr(0.7)
    law = conditioned_restricted_family(CRIT, 7, 9, 2, 2, 4)
    assert law.meta["law"] == "conditioned-restricted"
    assert law.meta["n"] == "7"
    assert law.meta["a"] == "9"
    # each view's meta is its family's, with k0 and the -restricted suffix
    for view, family, k0 in [
        (poisson_restricted_family(CRIT, 2, 2, 0.7, 4),
         poisson_family(CRIT, 2, 0.7, 4), 2),
        (conditioned_restricted_family(CRIT, 7, 9, 2, 2, 4),
         conditioned_family(CRIT, 7, 9, 2, 4), 2),
        (kesten_restricted_family(SUB, 2, 3, 3), kesten_family(SUB, 2, 3), 3),
    ]:
        meta = family.meta
        assert view.meta == {
            **meta, "law": meta["law"] + "-restricted", "k0": str(k0)
        }


@pytest.mark.parametrize("p", FIXTURES)
def test_views_past_the_cap_are_their_family(p):
    # with k0 > cap no ball reaches its k0-th root subtree, so no sibling is
    # hidden: each view lists its family's balls with the family's log-probs
    for view, family in [
        (kesten_restricted_family(p, 2, 5, 3), kesten_family(p, 2, 3)),
        (poisson_restricted_family(p, 2, 5, 0.7, 3), poisson_family(p, 2, 0.7, 3)),
        (conditioned_restricted_family(p, 5, 3, 2, 5, 3),
         conditioned_family(p, 5, 3, 2, 3)),
    ]:
        assert view.entries == family.entries
        assert view.log_residual == family.log_residual
    for view in (
        kesten_restricted_family(p, 2, 1, 0),
        poisson_restricted_family(p, 2, 1, 0.7, 0),
        conditioned_restricted_family(p, 5, 3, 2, 1, 0),
    ):
        assert view.entries == {}
        assert view.log_residual == 0.0


def test_restricted_family_supports_root_degrees_up_to_k0():
    law = poisson_restricted_family(CRIT, 2, 2, 0.7, 4)
    degrees = {OrderedTree.decode(c).root_degree for c in law.entries}
    assert degrees == {1, 2}
    # sub-k0 root degrees only appear with full height
    for code in law.entries:
        t = OrderedTree.decode(code)
        if t.root_degree < 2:
            assert t.height == 2


@pytest.mark.parametrize("h", [2, 3])
def test_sibling_series_refuses_oversized_cuts_before_allocating(h):
    # a tiny q puts the starting cut near 7e5 terms at h = 2 and 7e8 at
    # h = 3; the series must give up before it sizes arrays that long
    start = time.perf_counter()
    with pytest.raises(TruncationError, match="k_cut"):
        poisson_restricted_family(OffspringParams(0.999, 0.001), h, 1, 0.7, 3)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("n,a", [(10, 3), (50, 125_000), (390, 59_319_000)])
def test_sibling_series_matches_an_exact_recurrence(monkeypatch, n, a):
    # the series kernel against S_i(m) = sum_{K >= m} C(K, i) y^K, summed in
    # mpmath through S_0(m) = y^m / (1-y) and
    # S_i(m) = (C(m, i) y^m + y S_{i-1}(m)) / (1-y), with the same weights;
    # a = 3 puts the weight on the terms i <= k + 1, the large a_n on i >> k
    mpmath = pytest.importorskip("mpmath")
    seen = {}
    graft = exactlaw._graft_table

    def recording(*args):
        seen["args"], seen["table"] = args, graft(*args)
        return seen["table"]

    monkeypatch.setattr(exactlaw, "_graft_table", recording)
    exactlaw._sibling_sum_conditioned(CRIT, n, a, 2, [1, 40])
    log_gh, head, log_y, weight_log, _, lam, k_values = seen["args"]
    # the table returns log T(k) = head + k log gamma_h + log U_k
    got = {k: t - head - k * log_gh for k, t in seen["table"].items()}
    lam_hat = math.exp(lam - log_gh - math.log1p(-math.exp(log_y)))
    i_max = int(lam_hat + 20.0 * math.sqrt(lam_hat + 1.0)) + 100
    lws = weight_log(i_max)
    with mpmath.workdps(30):
        y = mpmath.exp(log_y)
        for k in k_values:
            m = k + 1
            s = y**m / (1 - y)
            u = mpmath.mpf(0)
            for i in range(1, i_max + 1):
                s = (mpmath.binomial(m, i) * y**m + y * s) / (1 - y)
                u += mpmath.exp(lws[i - 1]) * s
            assert abs(got[k] - float(mpmath.log(u))) <= 1e-11, (n, k)


def test_sibling_series_certificate_bounds_every_weight(monkeypatch):
    # the i-tail is bounded by a Poisson tail only if
    # w_i y^i / (1-y)^(i+1) <= C0 lam_hat^(i-1) / (i-1)! for every i. The
    # table passes its own log lam_hat to log_poisson_tail, whose caller
    # frame holds the table's log C0, y and weights; the spy reads them
    # there and stops the table. The Poisson bound holds with equality
    class Read(Exception):
        pass

    seen = []

    def reading(log_lam_hat, i_cut):
        f = sys._getframe(1).f_locals
        seen.append((f["y"], f["weight_log"], f["log_c0"], log_lam_hat))
        raise Read

    monkeypatch.setattr(exactlaw, "log_poisson_tail", reading)
    for p in FIXTURES:
        for h in (1, 2, 3):
            for theta in (0.5, 5.0, 30.0):
                with pytest.raises(Read):
                    exactlaw._sibling_sum_poisson(p, h, theta, [1])
            for n, a in [(10, 3), (50, 125_000), (390, 59_319_000)]:
                with pytest.raises(Read):
                    exactlaw._sibling_sum_conditioned(p, n, a, h, [1])
    assert len(seen) == 54
    for y, weight_log, log_c0, log_lam_hat in seen:
        log_y, log_1my = math.log(y), math.log1p(-y)
        lws = weight_log(2000)
        for i in range(1, 2001):
            lhs = lws[i - 1] + i * log_y - (i + 1) * log_1my
            rhs = log_c0 + (i - 1) * log_lam_hat - math.lgamma(i)
            assert lhs <= rhs + 1e-9, (i, lhs - rhs)


@pytest.mark.parametrize("theta,passes", [(0.5, 3), (5.0, 2)])
def test_sibling_series_retries_with_a_doubled_cut(monkeypatch, theta, passes):
    # at k = 500 the first i-cut leaves the i-tail bound above SERIES_RTOL,
    # so the series doubles its cut; one log_poisson_tail call per pass.
    # The reference sums W(k + k') P(Z_2 = k') directly over k' < 400, past
    # which P(Z_2 = k') is below 1e-70
    tails = []
    tail = exactlaw.log_poisson_tail

    def counting(*args):
        tails.append(args)
        return tail(*args)

    monkeypatch.setattr(exactlaw, "log_poisson_tail", counting)
    got = exactlaw._sibling_sum_poisson(CRIT, 2, theta, [1, 500])
    assert len(tails) == passes
    for k in (1, 500):
        ref = log_sum([
            log_poisson_weight(CRIT, 2, k + j, theta) + log_generation_pmf(CRIT, 2, j)
            for j in range(1, 400)
        ])
        assert abs(math.expm1(got[k] - ref)) <= 1e-8, k


def accumulate_chain_sums(log_fact, k_log_y, cols, lws, k_values):
    """The pass _chain_sums replaced: one 1-D logaddexp accumulate per term
    i over K = k_cut .. i, read at max(k + 1, i) and folded into log U_k."""
    k_cut = len(log_fact) - 2
    ks = np.asarray(k_values, dtype=np.int64)
    log_u = np.full(len(k_values), -math.inf)
    for i, lw in zip(cols, lws):
        lt = log_fact[i:] - log_fact[i] - log_fact[: k_cut + 2 - i] + k_log_y[i:]
        suffix = np.logaddexp.accumulate(lt[-2::-1])[::-1]
        log_u = np.logaddexp(log_u, lw + suffix[np.maximum(ks + 1, i) - i])
    return log_u


def test_chain_sums_match_the_per_term_accumulate_bit_for_bit(monkeypatch):
    # every pass of both series, the doubled-cut passes of the retry test
    # included, against one accumulate per term i. Theta 0 leaves only the
    # term i = 1 of the skinny weights; (10, 3) only i <= 3 of the
    # conditioned ones. The widths put k + 1 below i, past i_cut (the
    # cut is at least 42) and alone
    calls = []
    chain_sums = exactlaw._chain_sums

    def recording(*args):
        calls.append((args, chain_sums(*args)))
        return calls[-1][1]

    monkeypatch.setattr(exactlaw, "_chain_sums", recording)
    for p in FIXTURES:
        for h in (1, 2, 3):
            for ks in ([0, 1, 5, 60], [7]):
                for theta in (0.0, 0.5, 30.0):
                    exactlaw._sibling_sum_poisson(p, h, theta, ks)
                for n, a in [(10, 3), (50, 125_000), (390, 59_319_000)]:
                    exactlaw._sibling_sum_conditioned(p, n, a, h, ks)
    for theta in (0.5, 5.0):
        exactlaw._sibling_sum_poisson(CRIT, 2, theta, [1, 500])
    assert len(calls) == 3 * 3 * 2 * 6 + 3 + 2
    assert any(len(args[2]) == 1 for args, _ in calls)
    assert any(len(args[2]) == 3 for args, _ in calls)
    for args, got in calls:
        ref = accumulate_chain_sums(*args)
        assert [v.hex() for v in got] == [v.hex() for v in ref], args[2][-1]


def test_chain_sums_memory_does_not_grow_with_the_widths():
    # the chains are one array and the term rows come in fixed blocks, so
    # 2,000 widths of the largest series-grid row stay within a fixed 4 MB
    # (about 1.7 MB)
    exactlaw._sibling_sum_conditioned(CRIT, 390, 59_319_000, 2, [1])
    tracemalloc.start()
    try:
        exactlaw._sibling_sum_conditioned(CRIT, 390, 59_319_000, 2, list(range(2000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_sibling_series_refuses_a_pass_of_too_many_terms():
    # theta 1000 at h = 5 starts at i_cut = 38,182 and k_cut = 151,767,
    # inside the k_cut cap: a first pass of 5.8e9 chain terms, minutes of
    # work, refused before it starts
    start = time.perf_counter()
    with pytest.raises(TruncationError, match="i_cut=.*k_cut="):
        exactlaw._sibling_sum_poisson(OffspringParams(0.5, 0.2), 5, 1000.0, list(range(122)))
    assert time.perf_counter() - start < 2.0


def loop_alive_sum(p, k, a, log_gaps, base):
    """The sum _log_alive_sum replaced: two scalar log_binomial calls per
    term i."""
    kappa = p.kappa
    terms = []
    for i in range(1, min(k, a) + 1):
        if kappa == 0.0 and i < k:
            continue
        t = log_binomial(k, i) + log_binomial(a - 1, i - 1) + i * log_gaps + base
        if i < k:
            t += (k - i) * math.log(kappa)
        terms.append(t)
    return log_sum(terms)


def loop_poisson_weight(p, h, k, theta):
    """The sum log_poisson_weight replaced, one log_binomial per term i."""
    mu = p.mean
    c = min(p.kappa, 1.0)
    lam = theta * exactlaw._mixing_base(p, h)
    terms = []
    for i in range(1, k + 1):
        if c == 0.0 and i < k:
            continue
        if lam == 0.0 and i > 1:
            break
        t = log_binomial(k, i) - gammaln(i)
        if i < k:
            t += (k - i) * math.log(c)
        if i > 1:
            t += (i - 1) * math.log(lam)
        terms.append(t)
    return (
        -h * math.log(min(mu, 1.0 / mu))
        - theta * exactlaw.cumulative_immigration(p, h)
        + log_sum(terms)
    )


WIDTH_GRID = [1, 2, 3, 7, 40, 129, 1000]


def test_alive_sum_matches_the_scalar_loop_bit_for_bit():
    # kappa = 0 (eta 1), a = 1, widths below, at and above a, and a - 1 on
    # both sides of the betaln switch at 1e6; the gaps of a short and of a
    # long generation, with and without a base
    for p in (*FIXTURES, PURE):
        for n in (3, 388):
            log_gaps = iterate(p, n).log_gap_product
            for a in (1, 2, 7, 40, 1_000_000, 1_000_001, 59_319_000):
                for k in WIDTH_GRID:
                    for base in (0.0, -3.75):
                        got = exactlaw._log_alive_sum(p, k, a, log_gaps, base)
                        want = loop_alive_sum(p, k, a, log_gaps, base)
                        assert got.hex() == want.hex(), (p, n, a, k, base)


def test_poisson_weight_matches_the_scalar_loop_bit_for_bit():
    # theta 0 leaves only i = 1; eta 1 (c = 0) only i = k, and both
    # together nothing past k = 1
    for p in (*FIXTURES, PURE):
        for h in (1, 2, 3):
            for theta in (0.0, 0.5, 30.0):
                for k in WIDTH_GRID:
                    got = log_poisson_weight(p, h, k, theta)
                    want = loop_poisson_weight(p, h, k, theta)
                    assert got.hex() == want.hex(), (p, h, theta, k)


def test_series_weights_match_their_scalar_terms_bit_for_bit(monkeypatch):
    # every pass's weights up to its i_cut: the conditioned ones against
    # log C(a-1, i-1) + i log w_base, the skinny ones against
    # -i log c - log (i-1)! + (i-1) log lam
    passes = []
    tail = exactlaw.log_poisson_tail

    def reading(log_lam_hat, i_cut):
        passes.append((sys._getframe(1).f_locals["weight_log"], i_cut))
        return tail(log_lam_hat, i_cut)

    monkeypatch.setattr(exactlaw, "log_poisson_tail", reading)
    for p in FIXTURES:
        log_c = math.log(extinction_params(p).extinction_prob)
        for h in (1, 2, 3):
            for n, a in [(10, 3), (50, 125_000), (390, 59_319_000)]:
                del passes[:]
                exactlaw._sibling_sum_conditioned(p, n, a, h, [1, 40])
                log_w_base = iterate(p, n - h).log_gap_product - math.log(p.kappa)
                for weight_log, i_cut in passes:
                    want = [log_binomial(a - 1, i - 1) + i * log_w_base
                            for i in range(1, i_cut + 1)]
                    assert [v.hex() for v in weight_log(i_cut)] == [v.hex() for v in want]
            for theta in (0.0, 0.5, 30.0):
                del passes[:]
                exactlaw._sibling_sum_poisson(p, h, theta, [1, 40])
                lam = theta * exactlaw._mixing_base(p, h)
                log_lam = math.log(lam) if lam > 0.0 else -math.inf
                for weight_log, i_cut in passes:
                    want = []
                    for i in range(1, i_cut + 1):
                        t = -i * log_c - gammaln(i)
                        if i > 1:
                            t += (i - 1) * log_lam
                        want.append(t)
                    assert [v.hex() for v in weight_log(i_cut)] == [v.hex() for v in want]


def test_alive_sum_rows_stay_within_the_cache_bound():
    # 2,000 widths at the largest series-grid target read rows of up to
    # 2,048 entries; the row cache keeps 512 of them (8.4 MB), where
    # keeping every row would take about 22 MB
    log_gaps = iterate(CRIT, 388).log_gap_product
    logspace._binomial_row.cache_clear()
    tracemalloc.start()
    try:
        for k in range(1, 2001):
            exactlaw._log_alive_sum(CRIT, k, 59_319_000, log_gaps, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        logspace._binomial_row.cache_clear()
    assert peak < 10_000_000, peak


@pytest.mark.parametrize(
    "h,a,k0,cap", [(1, 1, 1, 4), (1, 3, 2, 4), (2, 3, 2, 4), (2, 5, 1, 4), (2, 6, 2, 3)]
)
def test_conditioned_view_at_h_equal_n_matches_the_double_loop(h, a, k0, cap):
    # at h = n the size-conditioning weight is a point mass at bottom width
    # a, and the sibling series a finite sum over the hidden width a - k
    for p in FIXTURES + (PURE,):
        law = conditioned_restricted_family(p, h, a, h, k0, cap)
        assert law.entries
        table = oracle.hidden_forest_table(p, h, 320, a)
        weights = oracle.conditioned_weight_vector(p, h, a, h, k0 * cap ** (h - 1) + a)
        for code, logp in law.entries.items():
            t = OrderedTree.decode(code)
            direct = oracle.restricted_entry_direct(p, h, k0, t, weights, table)
            assert math.exp(logp) == pytest.approx(direct, rel=1e-12), (p, code)


def test_restricted_family_validation():
    with pytest.raises(ValidationError):
        conditioned_restricted_family(CRIT, 2, 1, 3, 1, 4)  # h > n
    with pytest.raises(ValidationError):
        poisson_restricted_family(CRIT, 2, 2, -1.0, 4)


def test_poisson_restricted_family_names_eta_when_it_is_one():
    # hidden root subtrees of the restricted view need a positive
    # extinction probability; the message must name the argument at fault
    with pytest.raises(ValidationError, match=r"eta < 1.*eta=1\.0") as err:
        poisson_restricted_family(PURE, 2, 2, 0.7, 4)
    assert "q must be" not in str(err.value)


# -- one code path per law --------------------------------------------------


def _family_and_tree_law(p, law_name, h, cap):
    """The tabulated family and the per-tree law of one law, plus the
    enumeration whose shapes of positive mass the family must list."""
    if law_name == "gw":
        return gw_family(p, h, cap), lambda t: gw_tree_log_prob(p, t, h), {}
    if law_name == "conditioned":
        law = conditioned_family(p, 5, 3, h, cap)
        return law, lambda t: conditioned_tree_law(p, 5, 3, t, h), {}
    if law_name == "kesten":
        return kesten_family(p, h, cap), lambda t: kesten_tree_law(p, t, h), {}
    if law_name == "poisson":
        law = poisson_family(p, h, 0.7, cap)
        return law, lambda t: poisson_tree_law(p, 0.7, t, h), {}
    law = condensation_family(p, h, 2, cap)
    return law, lambda t: condensation_tree_law(p, 2, t, h), {"root_degree": 2}


_LAW_NAMES = ("gw", "conditioned", "kesten", "poisson", "condensation")
_SAME_PATH_CASES = [
    (name, p, h, 4) for name in _LAW_NAMES for p in (SUB, CRIT, SUP) for h in (1, 2)
] + [("kesten", SUP, 1, 40)]


@pytest.mark.parametrize(
    "law_name,p,h,cap",
    _SAME_PATH_CASES,
    ids=[f"{n}-{p.eta}-{p.q}-h{h}-cap{c}" for n, p, h, c in _SAME_PATH_CASES],
)
def test_family_entries_are_the_tree_law_bit_for_bit(law_name, p, h, cap):
    law, tree_law, shape = _family_and_tree_law(p, law_name, h, cap)
    for code, lp in law.entries.items():
        assert lp == tree_law(OrderedTree.decode(code)), code
    listed = {
        t.encode()
        for t in enumerate_trees(h, cap, **shape)
        if tree_law(t) != -math.inf
    }
    assert listed == set(law.entries)


def test_eta_one_tables_list_no_zero_mass_rows():
    for law in (
        gw_family(PURE, 2, 4),
        poisson_family(PURE, 2, 0.0, 4),
        poisson_family(PURE, 2, 0.5, 4),
        condensation_family(PURE, 2, 2, 4),
    ):
        assert law.entries
        assert -math.inf not in law.entries.values()


def test_eta_one_conditioned_restricted_tables_build():
    # without extinction the hidden-sibling series is a finite binomial sum
    # whose term ratio reaches 0 at its last term; that ends the sum
    for h in (1, 2):
        for cap in (3, 4):
            for k0 in (1, 2, 3):
                law = conditioned_restricted_family(PURE, 5, 3, h, k0, cap)
                assert law.entries
                assert math.exp(law.log_total()) <= 1.0


def test_eta_one_conditioned_restricted_view_matches_the_double_loop():
    # without extinction (kappa = 0, m = n - h > 0) the sibling series is
    # the finite binomial sum; hold every entry to the slow double loop
    for q in (0.3, 0.5, 0.7):
        p = OffspringParams(1.0, q)
        for n, a, h, k0, cap in [
            (5, 3, 2, 2, 3), (7, 9, 2, 2, 4), (6, 20, 2, 1, 4),
            (4, 6, 2, 3, 3), (8, 30, 3, 1, 2),
        ]:
            law = conditioned_restricted_family(p, n, a, h, k0, cap)
            assert law.entries
            # no tree dies, so j hidden subtrees are at least j wide, and
            # the weight is zero past width a: j, b <= a cover every term
            table = oracle.hidden_forest_table(p, h, a, a)
            weights = oracle.conditioned_weight_vector(
                p, n, a, h, k0 * cap ** (h - 1) + a
            )
            for code, logp in law.entries.items():
                t = OrderedTree.decode(code)
                direct = oracle.restricted_entry_direct(p, h, k0, t, weights, table)
                assert math.exp(logp) == pytest.approx(direct, rel=1e-8), (q, n, code)


def test_unrestricted_families_share_one_skeleton():
    # the width weights vanish at width 0, so the plain law and the three
    # width-weighted laws all read the one table of balls of height <= h
    exactlaw._skeleton.cache_clear()
    plain = gw_family(SUB, 2, 3)
    conditioned_family(SUB, 5, 3, 2, 3)
    kesten_family(SUB, 2, 3)
    poisson_family(SUB, 2, 0.7, 3)
    assert exactlaw._skeleton.cache_info().misses == 1
    # a table that drops no shape keeps the shape table's code tuple
    assert plain.codes is exactlaw._skeleton(SUB, 2, 3, None).codes


@pytest.mark.parametrize("h,k0,cap", [(2, 2, 3), (1, 10, 12), (2, 5, 3)])
def test_a_view_and_its_fat_limit_share_one_skeleton(h, k0, cap):
    # the condensation family keeps the root-degree-k0 rows of the view's
    # table, and the three views read all of it
    exactlaw._skeleton.cache_clear()
    fat = condensation_family(SUB, h, k0, cap)
    views = [
        conditioned_restricted_family(SUB, 5, 3, h, k0, cap),
        kesten_restricted_family(SUB, h, k0, cap),
        poisson_restricted_family(SUB, h, k0, 0.7, cap),
    ]
    # past the cap too, the fat limit reads the view's table and keeps none
    # of its rows
    assert exactlaw._skeleton.cache_info().misses == 1
    skel = exactlaw._skeleton(SUB, h, cap, k0)
    assert set(skel.rows) == set(range(1, min(k0, cap) + 1))
    assert fat.codes == skel.codes[skel.rows.get(k0, slice(0))]
    for view in views:
        assert set(view.codes) <= set(skel.codes)


@pytest.mark.parametrize(
    "p,h,k0,cap",
    [(SUB, 2, 2, 3), (PURE, 2, 2, 3), (SUP, 2, 3, 4), (CRIT, 1, 10, 12), (SUB, 1, 12, 12)],
)
def test_condensation_family_is_the_view_rows_of_root_degree_k0(p, h, k0, cap):
    # the fat limit tabulates the whole view table, with zero weight off
    # root degree k0, and keeps exactly that degree's rows of nonzero
    # mass, each one float add; PURE's leaf mass is zero, so rows drop out
    fat = condensation_family(p, h, k0, cap)
    skel = exactlaw._skeleton(p, h, cap, k0)
    rows = skel.rows[k0]
    want = [
        (code, lgw + exactlaw._log_condensation_weight(p, h, k))
        for code, lgw, k in zip(
            skel.codes[rows], skel.lgw[rows].tolist(), skel.width[rows].tolist()
        )
    ]
    want = [(code, lp) for code, lp in want if lp != -math.inf]
    assert fat.codes == tuple(code for code, _ in want)
    assert [lp.hex() for lp in fat.log_probs.tolist()] == [lp.hex() for _, lp in want]


def test_the_fat_limit_past_the_cap_shares_its_view_table():
    # no row of the (2, 5) view's table has root degree 5 at cap 3, so
    # the fat limit keeps no row of it, and reads it all the same; its
    # codes are empty, and reading them builds none of the table's codes
    exactlaw._skeleton.cache_clear()
    fat = condensation_family(CRIT, 2, 5, 3)
    view = conditioned_restricted_family(CRIT, 10, 7, 2, 5, 3)
    assert fat._source[0] is view._source[0]
    assert not fat._source[1].any()
    assert fat.log_residual == 0.0
    assert fat.codes == ()
    assert "codes" not in vars(fat._source[0])


def test_the_fat_limit_past_the_cap_refuses_what_its_view_refuses():
    # (h, k0, cap) = (2, 9, 8): the view's root degrees 1 .. 8 hold more
    # balls than the enumeration cap, and the fat limit builds that table
    for build in (
        lambda: condensation_family(CRIT, 2, 9, 8),
        lambda: kesten_restricted_family(CRIT, 2, 9, 8),
    ):
        with pytest.raises(ResourceError, match="more than the cap of 5000000"):
            build()


def test_a_view_table_is_capped_as_a_whole():
    # (h, k0, cap) = (2, 6, 12): 13^6 = 4,826,809 balls of root degree 6
    # and 5,229,042 over root degrees 1 .. 6, past the cap of 5,000,000
    assert count_trees(2, 12, root_degree=6) <= MAX_TREES
    for build in (
        lambda: condensation_family(CRIT, 2, 6, 12),
        lambda: kesten_restricted_family(CRIT, 2, 6, 12),
    ):
        with pytest.raises(ResourceError, match="more than the cap of 5000000"):
            build()


def _view_count(h, cap, k0):
    if k0 is None:
        return count_trees(h, cap)
    return sum(count_trees(h, cap, root_degree=j) for j in range(1, min(k0, cap) + 1))


def _reference_skeletons(params, h, cap, k0):
    # the route _skeleton took before it folded pool annotations: build
    # every tree of the table's root degrees, then walk it in preorder;
    # one tree walk serves every parameter set
    pmfs = [[p.log_pmf(d) for d in range(cap + 1)] for p in params]
    tables = [[] for _ in params]
    roots = [None] if k0 is None else range(1, min(k0, cap) + 1)
    trees = (t for r in roots for t in enumerate_trees(h, cap, root_degree=r))
    for t in trees:
        code, k = t.encode(), t.z(h)
        above = [d for d, dep in zip(t.degrees, t.depths) if dep < h]
        for pmf, rows in zip(pmfs, tables):
            # the preorder loop's sum: 0.0 plus each term, left to right
            lgw = functools.reduce(operator.add, map(pmf.__getitem__, above), 0.0)
            rows.append((code, lgw.hex(), k))
    for rows in tables:
        rows.sort(key=lambda r: r[0])
    return tables


# the free-root table (None) and views of each k0; a view past the cap
# stops at root degree cap
_SKELETON_CASES = [
    (0, 3, (None,)),
    (1, 40, (None, 1, 2, 5, 41)),
    (2, 6, (None, 1, 2, 5)),
    (3, 3, (None, 1, 2)),
    (4, 2, (None, 1, 5)),
    (30, 1, (None, 1, 5)),
    # two-digit degrees inside the pool entries; the free root and the
    # views past k0 = 5 exceed the enumeration cap, and the views at k0 10
    # and 12 list root degrees 1, 10, 11, 12, 2, ... in string order
    (2, 12, (None, 1, 2, 3, 10, 12)),
    (1, 12, (10, 12)),
]


@pytest.mark.parametrize(
    "h,cap,views", _SKELETON_CASES, ids=[f"{h}-{cap}" for h, cap, _ in _SKELETON_CASES]
)
def test_skeleton_rows_match_the_tree_walk_bit_for_bit(h, cap, views):
    # PURE has log_pmf(0) = -inf: a leaf above the bottom zeroes the mass
    params = FIXTURES + (PURE,)
    for k0 in views:
        if _view_count(h, cap, k0) > MAX_TREES:
            with pytest.raises(ResourceError):
                exactlaw._skeleton(CRIT, h, cap, k0)
            continue
        refs = _reference_skeletons(params, h, cap, k0)
        for p, ref in zip(params, refs):
            got = exactlaw._skeleton(p, h, cap, k0)
            bits = [
                (code, lgw.hex(), k)
                for code, lgw, k in zip(got.codes, got.lgw.tolist(), got.width.tolist())
            ]
            assert bits == ref, (p, k0)
            # each distinct width once, ascending
            assert got.widths == tuple(sorted({k for _, _, k in ref}))
            # each root degree's rows, one slice each (empty at h = 0 past
            # the root degree 0)
            for d, rows in got.rows.items():
                assert {code.split(",", 1)[0] for code in got.codes[rows]} <= {str(d)}
            assert sum(r.stop - r.start for r in got.rows.values()) == len(ref)


def _reference_tabulate(rows, weight_of):
    # the dict tabulator the families used before their tables became
    # columns: one row at a time, each width's weight evaluated at its
    # first row, zero-mass shapes left out; weight_of(code) picks the
    # row's weight
    weights = {}
    entries = {}
    for code, lgw, k in rows:
        weight = weight_of(code)
        if (weight, k) not in weights:
            weights[weight, k] = weight(k)
        lp = lgw + weights[weight, k]
        if lp != -math.inf:
            entries[code] = lp
    return entries


def _meta(p, h, cap, kind, **params):
    return {"eta": repr(p.eta), "q": repr(p.q), "law": kind, "h": str(h),
            "degree_cap": str(cap), **params}


_TABLE_CASES = [
    *(
        case
        for p in FIXTURES
        for h in (1, 2)
        for case in (
            (lambda p=p, h=h: gw_family(p, h, 4), _meta(p, h, 4, "gw")),
            (lambda p=p, h=h: conditioned_family(p, 5, 3, h, 4),
             _meta(p, h, 4, "conditioned", n="5", a="3")),
            (lambda p=p, h=h: kesten_family(p, h, 4), _meta(p, h, 4, "kesten")),
            (lambda p=p, h=h: poisson_family(p, h, 0.7, 4),
             _meta(p, h, 4, "poisson", theta="0.7")),
            (lambda p=p, h=h: condensation_family(p, h, 2, 4),
             _meta(p, h, 4, "condensation", k0="2")),
        )
    ),
    # at k0 = 10 the root degrees go 1, 10, 2, ... in string order; at
    # (2, 5, 3) the view stops at the cap, short of root degree k0
    *(
        case
        for p in FIXTURES
        for h, k0, cap in ((1, 1, 4), (2, 2, 4), (1, 10, 10), (1, 12, 12), (2, 5, 3))
        for case in (
            (lambda p=p, h=h, k0=k0, cap=cap: kesten_restricted_family(p, h, k0, cap),
             _meta(p, h, cap, "kesten-restricted", k0=str(k0))),
            (lambda p=p, h=h, k0=k0, cap=cap:
             poisson_restricted_family(p, h, k0, 0.7, cap),
             _meta(p, h, cap, "poisson-restricted", k0=str(k0), theta="0.7")),
            (lambda p=p, h=h, k0=k0, cap=cap:
             conditioned_restricted_family(p, 5, 3, h, k0, cap),
             _meta(p, h, cap, "conditioned-restricted", k0=str(k0), n="5", a="3")),
        )
    ),
    # the fat limit over the same views; at (2, 2, 4) it is the h = 2 case
    # above, so that one is not listed twice
    *(
        (lambda p=p, h=h, k0=k0, cap=cap: condensation_family(p, h, k0, cap),
         _meta(p, h, cap, "condensation", k0=str(k0)))
        for p in FIXTURES
        for h, k0, cap in ((1, 1, 4), (1, 10, 10), (1, 12, 12), (2, 5, 3))
    ),
]


@pytest.mark.parametrize(
    "build,meta", _TABLE_CASES,
    ids=[f"{m['law']}-{m['eta']}-{m['q']}-h{m['h']}-cap{m['degree_cap']}"
         + (f"-k0{m['k0']}" if "k0" in m else "") for _, m in _TABLE_CASES],
)
def test_tables_match_the_dict_tabulator_bit_for_bit(monkeypatch, build, meta):
    # the shape table a law reads goes through the dict tabulator too, with
    # the width weights the law evaluates, in order: its own weight first,
    # then for a view with rows of root degree k0 its top weight over those
    # rows (F, or the fat limit's weight, whose own weight is zero). The
    # mass summed over the reference's values in table order is the
    # reference residual
    tables, weights = [], []
    skeleton, tabulate_weights = exactlaw._skeleton, exactlaw._weights

    def skeleton_spy(*args):
        tables.append(skeleton(*args))
        return tables[-1]

    def weights_spy(weight, widths):
        weights.append(weight)
        return tabulate_weights(weight, widths)

    monkeypatch.setattr(exactlaw, "_skeleton", skeleton_spy)
    monkeypatch.setattr(exactlaw, "_weights", weights_spy)
    law = build()
    entries = {}
    top = meta.get("k0")

    def weight_of(code):
        # a view's rows of root degree k0 take its last weight, the top
        return weights[-1] if code.split(",", 1)[0] == top else weights[0]

    for skel in tables:
        rows = zip(skel.codes, skel.lgw.tolist(), skel.width.tolist())
        entries.update(_reference_tabulate(rows, weight_of))
    residual = log_sub(0.0, log_sum(entries.values()))
    assert len(tables) <= 1
    assert list(law.entries) == list(entries)
    assert [v.hex() for v in law.entries.values()] == [v.hex() for v in entries.values()]
    assert law.log_residual.hex() == residual.hex()
    assert law.meta == meta


def _order_cases():
    # five families and three views at k0 1, 2, 10 and 12: within the cap
    # at (h, cap) = (1, 12), past it for k0 10 and 12 at (1, 10) and (2, 3)
    for p in (SUB, CRIT):
        for h, cap in ((1, 12), (1, 10), (2, 3)):
            yield gw_family(p, h, cap)
            yield conditioned_family(p, 5, 3, h, cap)
            yield kesten_family(p, h, cap)
            yield poisson_family(p, h, 0.7, cap)
            for k0 in (1, 2, 10, 12):
                yield condensation_family(p, h, k0, cap)
                yield conditioned_restricted_family(p, 5, 3, h, k0, cap)
                yield kesten_restricted_family(p, h, k0, cap)
                yield poisson_restricted_family(p, h, k0, 0.7, cap)


def test_every_law_is_in_code_order():
    for law in _order_cases():
        assert all(a < b for a, b in zip(law.codes, law.codes[1:])), law.meta
        assert list(law.entries) == list(law.codes)


def test_oversized_family_fails_before_any_walk():
    # at cap 2 the exact count has about 2^h bits; the check stops
    # counting once it passes the cap
    for h, cap in ((3, 12), (16, 2), (40, 2)):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="more than the cap of 5000000"):
            gw_family(CRIT, h, cap)
        assert time.perf_counter() - start < 1.0


def test_wide_root_within_the_cap():
    # one product slot per root child: 1,200 slots, 1,201 balls
    assert len(gw_family(CRIT, 1, 1200).entries) == 1201


# -- the tabulated-law container --------------------------------------------


def test_law_csv_layout():
    law = kesten_family(CRIT, 1, 3)
    buf = io.StringIO()
    law.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# ")
    assert "log_residual=" in lines[0]
    assert lines[1] == "tree_code,log_prob"
    codes = [line.split(",", 1)[0] for line in lines[2:]]
    assert codes == sorted(codes)


def test_law_csv_sorts_a_wide_view():
    # a k0 >= 10 view lists root degrees past 9, which go 1, 10, 2, ... in
    # code order, in the table and in the file
    law = conditioned_restricted_family(CRIT, 5, 3, 1, 10, 10)
    buf = io.StringIO()
    law.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].endswith(f" log_residual={law.log_residual!r}")
    rows = [line.rsplit(",", 1) for line in lines[2:]]
    codes = [code.strip('"') for code, _ in rows]
    assert codes == sorted(codes) == list(law.codes)
    assert codes.index("10," + ",".join(["0"] * 10)) < codes.index("2,0,0")
    assert [float(lp) for _, lp in rows] == law.log_probs.tolist()


def test_normalize_check_rejects_excess_mass():
    # the rows "0" and "1,0": mass e^0.1 on the first, or NaN on the second
    skel = exactlaw._skeleton(CRIT, 1, 1, None)
    for keep, log_probs in (([True, False], [0.1]), ([True, True], [-1.0, math.nan])):
        law = TruncatedLaw((skel, np.array(keep)), np.array(log_probs))
        law.meta = {"law": "bogus"}
        with pytest.raises(CertificationError):
            law_normalize_check(law)
