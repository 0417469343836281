"""Offspring-law parameterization, pole iterates, and derived laws."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomgw import (
    OffspringParams,
    ValidationError,
    condensation_offspring_params,
    cumulative_immigration,
    extinction_params,
    gamma_gap,
    immigration_rate,
    iterate,
    log_condensation_offspring,
    log_gamma_ratio,
    survivor_offspring_param,
)

CRIT = OffspringParams(0.5, 0.5)
SUB = OffspringParams(0.3, 0.5)
SUP = OffspringParams(0.6, 0.3)
FIXTURES = (CRIT, SUB, SUP)

params_st = st.tuples(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=0.95),
).map(lambda t: OffspringParams(*t))


def exact_gamma_n(p, n):
    """Pole iterate as an exact rational, for cancellation checks."""
    eta = Fraction(p.eta)
    q = Fraction(p.q)
    gamma = 1 / (1 - q)
    kappa = (1 - eta) * gamma
    mu = eta / q
    if mu == 1:
        return 1 + (gamma - 1) / n
    return (kappa - mu**n) / (1 - mu**n)


def test_basic_descriptors():
    assert CRIT.mean == 1.0
    assert CRIT.gamma == 2.0
    assert CRIT.kappa == 1.0
    assert SUB.mean == pytest.approx(0.6, rel=1e-15)
    assert SUB.kappa == pytest.approx(1.4, rel=1e-15)
    assert SUP.mean == pytest.approx(2.0, rel=1e-15)
    assert [f.regime() for f in FIXTURES] == [
        "critical",
        "subcritical",
        "supercritical",
    ]


def test_criticality_is_exact_equality():
    # regime must hinge on eta == q, not on a rounded mean
    almost = OffspringParams(0.5 + 1e-12, 0.5)
    assert almost.regime() == "supercritical"


@pytest.mark.parametrize("bad", [(-0.1, 0.5), (0.0, 0.5), (1.2, 0.5),
                                 (0.5, 0.0), (0.5, 1.0), (0.5, -0.3)])
def test_rejects_bad_parameters(bad):
    with pytest.raises(ValidationError):
        OffspringParams(*bad)


def test_pmf_shape_and_mass():
    for p in FIXTURES:
        mass = math.exp(p.log_pmf(0))
        assert mass == pytest.approx(1.0 - p.eta, abs=1e-15)
        for k in range(1, 200):
            mass += math.exp(p.log_pmf(k))
        tail = p.eta * (1.0 - p.q) ** 199
        assert mass == pytest.approx(1.0, abs=tail + 1e-13)


@given(params_st)
def test_pole_identities(p):
    assert p.eta == pytest.approx(1.0 - p.kappa / p.gamma, abs=1e-12)
    assert p.q == pytest.approx(1.0 - 1.0 / p.gamma, abs=1e-12)


def test_generating_function_values():
    assert CRIT.gf(0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # the gf extends past 1 as a rational function; it maps pole iterates
    # one step up the chain
    assert SUB.gf(1.625) == pytest.approx(2.0, rel=1e-12)


@given(params_st, st.floats(min_value=0.0, max_value=0.999))
def test_gf_inverse_round_trip(p, s):
    assert p.gf_inverse(p.gf(s)) == pytest.approx(s, abs=1e-10)


def test_iterate_frozen_values():
    assert iterate(CRIT, 3).gamma_n == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert iterate(SUB, 2).gamma_n == pytest.approx(1.625, rel=1e-15)
    assert math.isinf(iterate(CRIT, 0).gamma_n)
    for p in FIXTURES:
        assert iterate(p, 1).gamma_n == p.gamma


def test_iterate_cache_is_bounded_and_exact():
    assert iterate.cache_info().maxsize is not None
    for p in FIXTURES:
        for n in (0, 1, 2, 7, 300):
            # a fresh but equal parameter object hits the same entry
            same = OffspringParams(p.eta, p.q)
            assert iterate(same, n) == iterate.__wrapped__(p, n)
    # errors are raised on every call, never cached
    for _ in range(2):
        with pytest.raises(ValidationError):
            iterate(CRIT, -1)


def test_iterate_matches_exact_rationals():
    for p in FIXTURES:
        for n in (1, 2, 5, 12, 40, 80):
            it = iterate(p, n)
            want = exact_gamma_n(p, n)
            assert it.gamma_n == pytest.approx(float(want), rel=1e-13)
            # the pole gaps' product, exact until its one rounding to a float;
            # gamma_n - kappa falls to about mu^n, far below gamma_n's ulp
            kappa = (1 - Fraction(p.eta)) / (1 - Fraction(p.q))
            gaps = float((want - 1) * (want - kappa))
            assert it.log_gap_product == pytest.approx(math.log(gaps), rel=1e-14, abs=1e-15)


def test_iterate_chains_through_gf():
    for p in FIXTURES:
        for n in range(1, 30):
            here = iterate(p, n).gamma_n
            up = iterate(p, n + 1).gamma_n
            assert p.gf(up) == pytest.approx(here, rel=1e-10)


def test_log_gamma_ratio_stays_accurate_when_iterates_collide():
    # gamma_80 and gamma_78 agree to ~20 digits for a subcritical law;
    # naive log(g_n) - log(g_m) would return garbage there
    for p, (n, m) in ((SUB, (80, 78)), (SUP, (80, 78)), (CRIT, (2000, 1999))):
        want = exact_gamma_n(p, n) / exact_gamma_n(p, m)
        expected = math.log1p(float(want - 1))
        assert log_gamma_ratio(p, n, m) == pytest.approx(expected, rel=1e-12)


def test_gamma_gap_stays_accurate_when_iterates_collide():
    for p, (m, n) in ((SUB, (78, 80)), (SUP, (78, 80)), (CRIT, (1999, 2000))):
        want = float(exact_gamma_n(p, m) - exact_gamma_n(p, n))
        assert gamma_gap(p, m, n) == pytest.approx(want, rel=1e-11)
    assert gamma_gap(CRIT, 1, 3) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_extinction_params():
    ext = extinction_params(SUP)
    assert ext.law == OffspringParams(0.3, 0.6)
    assert ext.mean == pytest.approx(0.5, rel=1e-15)
    assert ext.extinction_prob == pytest.approx(4.0 / 7.0, rel=1e-14)
    for p in (CRIT, SUB):
        ext = extinction_params(p)
        assert ext.law == p
        assert ext.extinction_prob == 1.0
        assert ext.mean == pytest.approx(min(p.mean, 1.0 / p.mean), rel=1e-15)
    # the swapped law's q is the larger of the two original parameters
    for p in FIXTURES:
        assert extinction_params(p).law.q == max(p.eta, p.q)


def test_extinction_params_need_eta_below_one():
    # without mass at zero there is no mirrored law; the error names eta
    with pytest.raises(ValidationError, match=r"eta < 1, got eta=1\.0"):
        extinction_params(OffspringParams(1.0, 0.5))


def test_immigration_rate_frozen():
    assert immigration_rate(SUP, 0) == pytest.approx(3.0 / 7.0, rel=1e-13)
    assert immigration_rate(OffspringParams(0.3, 0.6), 1) == pytest.approx(
        6.0 / 7.0, rel=1e-13
    )
    assert immigration_rate(CRIT, 5) == pytest.approx(CRIT.gamma - 1.0, rel=1e-15)


def test_cumulative_immigration_telescopes():
    assert cumulative_immigration(CRIT, 3) == pytest.approx(3.0, rel=1e-15)
    for p in FIXTURES:
        for h in (1, 2, 5, 9):
            total = sum(immigration_rate(p, g) for g in range(h))
            assert cumulative_immigration(p, h) == pytest.approx(total, rel=1e-11)
        assert cumulative_immigration(p, 0) == 0.0


def test_survivor_param_frozen_and_identity():
    assert survivor_offspring_param(CRIT, 1) == pytest.approx(0.5, rel=1e-15)
    assert survivor_offspring_param(CRIT, 2) == pytest.approx(2.0 / 3.0, rel=1e-15)
    # supercritical drops the leading mu: (1 - mu) / (1 - mu^2) = 1/(1+mu)
    assert survivor_offspring_param(SUP, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    # (1 - qhat nu_{n-1}) / (1 - q) recovers the n-th pole iterate, where
    # qhat = max(eta, q) is the success parameter of the mirrored law
    for p in FIXTURES:
        qhat = max(p.eta, p.q)
        for n in range(1, 25):
            nu = survivor_offspring_param(p, n - 1)
            lhs = (1.0 - qhat * nu) / (1.0 - p.q)
            assert lhs == pytest.approx(iterate(p, n).gamma_n, rel=1e-12)


@given(params_st, st.integers(min_value=1, max_value=12))
@settings(max_examples=60)
def test_survivor_param_is_a_probability(p, n):
    nu = survivor_offspring_param(p, n)
    assert 0.0 < nu < 1.0
    assert survivor_offspring_param(p, 0) == 0.0


def test_condensation_tilt_frozen():
    pt = condensation_offspring_params(CRIT, 1)
    assert pt == OffspringParams(0.75, 0.25)
    want = (0.25, 0.1875, 0.140625, 0.10546875)
    for k, val in enumerate(want):
        assert math.exp(pt.log_pmf(k)) == pytest.approx(val, rel=1e-14)
        assert math.exp(log_condensation_offspring(CRIT, 1, k)) == pytest.approx(
            val, rel=1e-14
        )


def test_condensation_tilt_matches_direct_formula():
    # tilted mass gamma_{m+1}^k p(k) / gamma_m stays inside the family
    for p in FIXTURES:
        for m in (1, 2, 4, 7):
            gm = iterate(p, m).gamma_n
            gm1 = iterate(p, m + 1).gamma_n
            pt = condensation_offspring_params(p, m)
            mass = 0.0
            for k in range(60):
                direct = gm1**k * math.exp(p.log_pmf(k)) / gm
                assert math.exp(pt.log_pmf(k)) == pytest.approx(direct, rel=1e-11)
                assert math.exp(
                    log_condensation_offspring(p, m, k)
                ) == pytest.approx(direct, rel=1e-11)
                mass += direct
            tail = pt.eta * (1.0 - pt.q) ** 59
            assert mass + tail == pytest.approx(1.0, abs=1e-10)


def test_condensation_tilt_rejects_depth_zero():
    # depth 0 is the root of the fat tree, which has no finite degree law
    with pytest.raises(ValidationError):
        condensation_offspring_params(CRIT, 0)
