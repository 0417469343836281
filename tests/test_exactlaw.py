"""Exact generation/forest pmfs, conditioning ratios, and the limit laws."""

import functools
import io
import math
import operator
import time
from fractions import Fraction

import pytest

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
from geomgw import exactlaw
from geomgw.exactlaw import law_normalize_check

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
    # not a zero-probability event
    with pytest.raises(ValidationError):
        condensation_tree_law(CRIT, 2, OrderedTree((1, 0)), 1)
    with pytest.raises(ValidationError):
        condensation_tree_law_product(CRIT, 2, OrderedTree((1, 0)), 1)


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
    log_y, weight_log, _, log_lam_hat, k_values = seen["args"]
    got = seen["table"]
    lam_hat = math.exp(log_lam_hat)
    i_max = int(lam_hat + 20.0 * math.sqrt(lam_hat + 1.0)) + 100
    with mpmath.workdps(30):
        y = mpmath.exp(log_y)
        for k in k_values:
            m = k + 1
            s = y**m / (1 - y)
            u = mpmath.mpf(0)
            for i in range(1, i_max + 1):
                s = (mpmath.binomial(m, i) * y**m + y * s) / (1 - y)
                u += mpmath.exp(weight_log(i)) * s
            assert abs(got[k] - float(mpmath.log(u))) <= 1e-11, (n, k)


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


def test_unrestricted_families_share_one_skeleton():
    # the width weights vanish at width 0, so the plain law and the three
    # width-weighted laws all read the one table of balls of height <= h
    exactlaw._skeleton.cache_clear()
    gw_family(SUB, 2, 3)
    conditioned_family(SUB, 5, 3, 2, 3)
    kesten_family(SUB, 2, 3)
    poisson_family(SUB, 2, 0.7, 3)
    assert exactlaw._skeleton.cache_info().misses == 1


def _reference_skeletons(params, h, cap, root_degree):
    # the route _skeleton took before it folded pool annotations: build
    # every tree, then walk it in preorder; one tree walk serves every
    # parameter set
    pmfs = [[p.log_pmf(d) for d in range(cap + 1)] for p in params]
    tables = [[] for _ in params]
    for t in enumerate_trees(h, cap, root_degree=root_degree):
        code, k = t.encode(), t.z(h)
        above = [d for d, dep in zip(t.degrees, t.depths) if dep < h]
        for pmf, rows in zip(pmfs, tables):
            # the preorder loop's sum: 0.0 plus each term, left to right
            lgw = functools.reduce(operator.add, map(pmf.__getitem__, above), 0.0)
            rows.append((code, lgw.hex(), k))
    for rows in tables:
        rows.sort(key=lambda r: r[0])
    return tables


@pytest.mark.parametrize("h,cap", [(0, 3), (1, 40), (2, 6), (3, 3), (4, 2)])
def test_skeleton_rows_match_the_tree_walk_bit_for_bit(h, cap):
    for root_degree in (None, 0, 1, 2, 5):
        refs = _reference_skeletons(FIXTURES, h, cap, root_degree)
        for p, ref in zip(FIXTURES, refs):
            got = exactlaw._skeleton(p, h, cap, root_degree)
            bits = [(code, lgw.hex(), k) for code, lgw, k in got]
            assert bits == ref, (p, root_degree)


def test_oversized_family_fails_before_any_walk():
    start = time.perf_counter()
    with pytest.raises(ResourceError):
        gw_family(CRIT, 3, 12)
    assert time.perf_counter() - start < 1.0


# -- the tabulated-law container --------------------------------------------


def test_law_csv_round_trip_is_exact():
    law = conditioned_family(SUB, 3, 2, 2, 5)
    buf = io.StringIO()
    law.write_csv(buf)
    back = TruncatedLaw.read_csv(io.StringIO(buf.getvalue()))
    assert back.entries == law.entries
    assert back.meta == law.meta
    assert back.log_residual == law.log_residual


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


def test_normalize_check_rejects_excess_mass():
    law = TruncatedLaw(
        entries={"0": 0.1}, log_residual=-math.inf, meta={"law": "bogus"}
    )
    with pytest.raises(CertificationError):
        law_normalize_check(law)
