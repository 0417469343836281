"""Exact samplers: determinism, structural audits, and law agreement."""

import hashlib
import inspect
import math
import sys
import time
from collections import Counter

import pytest
import scipy.stats

from geomgw import (
    AuditError,
    OffspringParams,
    OrderedTree,
    RandomSource,
    ResourceError,
    TruncationError,
    TypedTree,
    ValidationError,
    audit_skeleton,
    audit_spine,
    condensation_family,
    condensation_offspring_params,
    conditioned_family,
    extinction_params,
    g_test_against_law,
    g_test_two_sample,
    immigration_rate,
    kesten_family,
    log_forest_pmf,
    log_generation_pmf,
    poisson_family,
    sample_condensation,
    sample_conditioned,
    sample_gw,
    sample_kesten,
    sample_poisson_tree,
    sampler,
)
from geomgw.logspace import LOG_ZERO
from pvalue import g_pvalue

CRIT = OffspringParams(0.5, 0.5)
SUB = OffspringParams(0.3, 0.5)
SUP = OffspringParams(0.6, 0.3)


# -- determinism -------------------------------------------------------------


def sampler_calls(seed):
    r = lambda: RandomSource(seed)  # noqa: E731
    return [
        sample_gw(CRIT, r(), 3).encode(),
        sample_conditioned(CRIT, 4, 3, r(), 3).encode(),
        sample_kesten(CRIT, r(), 3).tree.encode(),
        sample_poisson_tree(CRIT, 0.8, r(), 3).tree.encode(),
        sample_condensation(CRIT, 2, r(), 3, "inhomogeneous").encode(),
        sample_condensation(CRIT, 2, r(), 3, "two_type").tree.encode(),
    ]


def test_all_samplers_are_seed_deterministic():
    assert sampler_calls(4242) == sampler_calls(4242)
    # and genuinely random: a different seed moves at least one draw
    assert sampler_calls(4242) != sampler_calls(4243)


# -- plain sampler -----------------------------------------------------------


def test_gw_height_cap():
    for seed in range(60):
        t = sample_gw(CRIT, RandomSource(seed), 2)
        assert t.height <= 2


def test_gw_root_degree_law():
    draws = 8000
    r = RandomSource(52)
    counts = Counter(
        sample_gw(CRIT, r, 1).root_degree for _ in range(draws)
    )
    p = g_pvalue(
        counts, lambda k: math.exp(CRIT.log_pmf(k)), draws, range(25)
    )
    assert p > 1e-3


def test_gw_rejects_negative_depth():
    with pytest.raises(ValidationError):
        sample_gw(CRIT, RandomSource(1), -1)


# -- conditioned bridge ------------------------------------------------------


def test_conditioned_single_step_is_a_star():
    for seed in range(20):
        t = sample_conditioned(CRIT, 1, 3, RandomSource(seed), 1)
        assert t.encode() == "3,0,0,0"


def test_conditioned_hits_the_pinned_size():
    for p in (CRIT, SUB, SUP):
        for seed in range(25):
            t = sample_conditioned(p, 4, 3, RandomSource(seed), 4)
            assert t.z(4) == 3


def test_conditioned_bridge_marginal():
    # root degree under the bridge follows P(Z_1 = k) forest(k, 3, a) / P(Z_4 = a)
    p, n, a = CRIT, 4, 3
    draws = 6000
    r = RandomSource(77)
    counts = Counter(
        sample_conditioned(p, n, a, r, 1).root_degree for _ in range(draws)
    )

    def pmf(k):
        lw = (
            log_generation_pmf(p, 1, k)
            + log_forest_pmf(p, k, n - 1, a)
            - log_generation_pmf(p, n, a)
        )
        return math.exp(lw)

    pv = g_pvalue(counts, pmf, draws, range(1, 30))
    assert pv > 1e-3


def test_conditioned_full_law_small():
    draws = 8000
    r = RandomSource(99)
    counts = Counter(
        sample_conditioned(CRIT, 3, 2, r, 2).encode() for _ in range(draws)
    )
    law = conditioned_family(CRIT, 3, 2, 2, 5)
    res = g_test_against_law(counts, law)
    assert res.p_value > 1e-3


def test_conditioned_node_cap():
    with pytest.raises(ResourceError):
        sample_conditioned(CRIT, 1, 3, RandomSource(1), 1, max_nodes=2)


@pytest.mark.parametrize(
    "draw,cap",
    [
        # eta = 1 never dies out, so four levels hold at least four nodes
        (lambda r, m: sample_gw(OffspringParams(1.0, 0.5), r, 3, max_nodes=m), 3),
        # the root alone already exceeds an empty budget
        (lambda r, m: sample_gw(CRIT, r, 0, max_nodes=m), 0),
        (lambda r, m: sample_conditioned(CRIT, 3, 3, r, 3, max_nodes=m), 3),
        (lambda r, m: sample_kesten(CRIT, r, 3, max_nodes=m), 3),
        (lambda r, m: sample_poisson_tree(CRIT, 0.7, r, 3, max_nodes=m), 3),
        (lambda r, m: sample_condensation(CRIT, 3, r, 1, max_nodes=m), 3),
        (
            lambda r, m: sample_condensation(
                CRIT, 3, r, 1, "inhomogeneous", max_nodes=m
            ),
            3,
        ),
    ],
    ids=["gw", "gw-root", "conditioned", "kesten", "poisson", "two_type",
         "inhomogeneous"],
)
def test_every_sampler_enforces_its_node_cap(draw, cap):
    for seed in range(5):
        with pytest.raises(ResourceError, match=f"exceeded the {cap}-node cap"):
            draw(RandomSource(seed), cap)


@pytest.mark.parametrize(
    "draw,cap,cpu_s",
    [
        (lambda: sample_condensation(SUB, 3, RandomSource(2), 26, max_nodes=1000),
         1000, 1.0),
        (lambda: sample_poisson_tree(SUB, 1.0, RandomSource(2), 27, max_nodes=1000),
         1000, 1.0),
        # the immigration draw stops once it passes the cap instead of
        # halving a mean of 1e300 down to draws of at most 30
        (lambda: sample_poisson_tree(CRIT, 1e300, RandomSource(0), 2),
         1_000_000, 2.0),
    ],
    ids=["two_type", "poisson", "poisson-huge-theta"],
)
def test_skeletons_stop_at_the_node_cap(draw, cap, cpu_s):
    # each skeleton outgrows the cap within a few levels, so the draw must
    # stop there: the whole depth-26 or depth-27 skeleton costs seconds
    start = time.process_time()
    with pytest.raises(ResourceError, match=f"exceeded the {cap}-node cap"):
        draw()
    assert time.process_time() - start < cpu_s


def clear_scan_tables():
    sampler._bridge_table.cache_clear()
    sampler._allocation_table.cache_clear()


def stream_sha256(draw, count, seed, cold):
    """SHA-256 of the tree codes of draws 0 .. count-1 from RandomSource(seed)
    children. cold clears the scan tables before every draw; otherwise the
    draws share them."""
    root = RandomSource(seed)
    lines = []
    clear_scan_tables()
    for i in range(count):
        if cold:
            clear_scan_tables()
        lines.append(draw(root.child(i)).encode() + "\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


# The large-a stream below, as the samplers drew it before the scan tables.
LARGE_A_SHA256 = "65fb5ec3c2d2732bdd3a705c545a26a801e9a3a49e58e8ffe1c951e14b5c19c6"


@pytest.mark.parametrize(
    "n,a,depth,count,pinned",
    [(40, 200, 5, 200, None), (50, 125000, 2, 3, LARGE_A_SHA256)],
    ids=["bridge", "large_a"],
)
def test_cold_and_warm_scan_tables_draw_the_same_bytes(n, a, depth, count, pinned):
    draw = lambda r: sample_conditioned(CRIT, n, a, r, depth)  # noqa: E731
    warm = stream_sha256(draw, count, 11, cold=False)
    assert stream_sha256(draw, count, 11, cold=True) == warm
    if pinned is not None:
        assert warm == pinned


class TopUniform:
    """A random source whose every uniform is the largest double below 1."""

    def uniform(self):
        return 1.0 - 2.0**-53


def test_bridge_scan_past_its_cap(monkeypatch):
    real = sampler.log_forest_pmf
    cap = 1024 + 64 * (1 + 3)  # the kernel scan's cap from z = 1 towards a = 3

    def no_one_step_mass(p, k, n, a):
        return LOG_ZERO if n == 1 else real(p, k, n, a)

    def total_a_shade_high(p, k, n, a):
        return real(p, k, n, a) + (1e-13 if (k, n, a) == (1, 4, 3) else 0.0)

    sampler._cached_forest.cache_clear()
    clear_scan_tables()
    try:
        # no weight anywhere: the scan ends at its cap covering nothing, on a
        # cold table and again on the warm one it left
        monkeypatch.setattr(sampler, "log_forest_pmf", no_one_step_mass)
        for _ in range(2):
            with pytest.raises(TruncationError, match=f"stopped at b={cap} "):
                sample_conditioned(CRIT, 4, 3, RandomSource(1), 2)
        assert sampler._bridge_table.cache_info().hits == 1
        # all but about 1e-13 of the mass covered: a draw in that sliver
        # takes the cap
        monkeypatch.setattr(sampler, "log_forest_pmf", total_a_shade_high)
        sampler._cached_forest.cache_clear()
        clear_scan_tables()
        for _ in range(2):
            assert sampler._bridge_step(CRIT, 1, 3, 3, TopUniform()) == cap
    finally:
        sampler._cached_forest.cache_clear()
        clear_scan_tables()


def test_conditioned_validation():
    r = RandomSource(1)
    with pytest.raises(ValidationError):
        sample_conditioned(CRIT, 3, 0, r, 2)
    with pytest.raises(ValidationError):
        sample_conditioned(CRIT, 3, 2, r, 4)
    with pytest.raises(ValidationError):
        sample_conditioned(CRIT, 3, 2, r, 0)


# -- Kesten sampler ----------------------------------------------------------


def test_kesten_spine_audit():
    for p in (CRIT, SUB, SUP):
        for seed in range(40):
            tt = sample_kesten(p, RandomSource(seed), 3)
            audit_spine(tt, 3)


def test_kesten_full_law_small():
    draws = 8000
    r = RandomSource(123)
    counts = Counter(
        sample_kesten(CRIT, r, 2).tree.encode() for _ in range(draws)
    )
    law = kesten_family(CRIT, 2, 5)
    res = g_test_against_law(counts, law)
    assert res.p_value > 1e-3


def test_kesten_bushes_follow_the_dual_law():
    # off-spine root children of the supercritical tree grow subcritical
    # bushes: their degree one level down follows the mirrored law
    ext = extinction_params(SUP)
    draws = 4000
    r = RandomSource(321)
    counts: Counter = Counter()
    for _ in range(draws):
        tt = sample_kesten(SUP, r, 2)
        for deg, level, bit in zip(tt.tree.degrees, tt.tree.depths, tt.flags):
            if level == 1 and bit == "0":
                counts[deg] += 1
    total = sum(counts.values())
    p = g_pvalue(
        counts, lambda k: math.exp(ext.law.log_pmf(k)), total, range(25)
    )
    assert p > 1e-3


def test_kesten_rejects_eta_one():
    with pytest.raises(ValidationError):
        sample_kesten(OffspringParams(1.0, 0.5), RandomSource(1), 2)


def test_typed_samplers_at_eta_one_name_eta():
    # the Poisson and two-type samplers grow bushes on the law conditioned
    # to die out, which needs mass at zero; the inhomogeneous variant does not
    p = OffspringParams(1.0, 0.5)
    for draw in (
        lambda r: sample_poisson_tree(p, 1.0, r, 2),
        lambda r: sample_condensation(p, 1, r, 2),
    ):
        with pytest.raises(
            ValidationError, match=r"^extinction needs eta < 1, got eta=1\.0$"
        ):
            draw(RandomSource(1))
    tree = sample_condensation(p, 1, RandomSource(1), 2, "inhomogeneous")
    assert tree.degrees[0] == 1


# -- skinny-family sampler ---------------------------------------------------


def test_poisson_skeleton_audit():
    for p in (CRIT, SUB, SUP):
        for seed in range(40):
            tt = sample_poisson_tree(p, 0.9, RandomSource(seed), 3)
            audit_skeleton(tt, 3)


def test_poisson_immigration_count_law():
    # survivors at level 1, minus the continuing line, count the immigrants
    theta = 1.3
    lam = theta * immigration_rate(CRIT, 0)
    draws = 6000
    r = RandomSource(654)
    counts = Counter(
        sample_poisson_tree(CRIT, theta, r, 1).survivor_counts(1)[1] - 1
        for _ in range(draws)
    )
    p = g_pvalue(
        counts,
        lambda k: scipy.stats.poisson.pmf(k, lam),
        draws,
        range(20),
    )
    assert p > 1e-3


def test_poisson_full_law_small():
    draws = 8000
    r = RandomSource(888)
    counts = Counter(
        sample_poisson_tree(CRIT, 0.7, r, 2).tree.encode()
        for _ in range(draws)
    )
    law = poisson_family(CRIT, 2, 0.7, 5)
    res = g_test_against_law(counts, law)
    assert res.p_value > 1e-3


def test_poisson_full_law_supercritical():
    # the skeleton intensities switch branch with the regime, so the
    # law test must run off criticality too
    draws = 6000
    r = RandomSource(889)
    counts = Counter(
        sample_poisson_tree(SUP, 0.7, r, 2).tree.encode()
        for _ in range(draws)
    )
    law = poisson_family(SUP, 2, 0.7, 5)
    res = g_test_against_law(counts, law)
    assert res.p_value > 1e-3


def test_poisson_rejects_bad_theta():
    for theta in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="theta must be finite and >= 0"):
            sample_poisson_tree(CRIT, theta, RandomSource(1), 2)


def test_poisson_at_theta_zero_follows_its_law():
    # no survivor slot opens at theta = 0: the skeleton is the Kesten spine
    draws = 8000
    r = RandomSource(246)
    counts = Counter(
        sample_poisson_tree(CRIT, 0.0, r, 2).tree.encode() for _ in range(draws)
    )
    res = g_test_against_law(counts, poisson_family(CRIT, 2, 0.0, 5))
    assert res.p_value > 1e-3


# -- condensation sampler ----------------------------------------------------


def test_condensation_root_degree_is_pinned():
    for variant in ("inhomogeneous", "two_type"):
        for seed in range(15):
            got = sample_condensation(
                CRIT, 3, RandomSource(seed), 2, variant
            )
            tree = got if isinstance(got, OrderedTree) else got.tree
            assert tree.root_degree == 3


def test_condensation_skeleton_audit():
    for p in (CRIT, SUB, SUP):
        for seed in range(40):
            tt = sample_condensation(p, 2, RandomSource(seed), 3, "two_type")
            audit_skeleton(tt, 3, allow_barren_root=True)


def test_condensation_depth_one_degree_follows_the_tilt():
    # in the level-indexed construction, the root's child draws the
    # depth-1 tilted law
    tilt = condensation_offspring_params(CRIT, 1)
    draws = 6000
    r = RandomSource(404)
    counts = Counter(
        # k0 = 1: the root's one child is node 1 in preorder
        sample_condensation(CRIT, 1, r, 2, "inhomogeneous").degrees[1]
        for _ in range(draws)
    )
    p = g_pvalue(
        counts, lambda k: math.exp(tilt.log_pmf(k)), draws, range(25)
    )
    assert p > 1e-3


def test_condensation_variants_agree_in_law():
    draws = 6000
    r1 = RandomSource(31)
    r2 = RandomSource(32)
    c1 = Counter(
        sample_condensation(CRIT, 2, r1, 2, "inhomogeneous").encode()
        for _ in range(draws)
    )
    c2 = Counter(
        sample_condensation(CRIT, 2, r2, 2, "two_type").tree.encode()
        for _ in range(draws)
    )
    res = g_test_two_sample(c1, c2)
    assert res.p_value > 1e-3


def test_condensation_two_type_full_law_small():
    draws = 6000
    r = RandomSource(77)
    counts = Counter(
        sample_condensation(CRIT, 2, r, 2, "two_type").tree.encode()
        for _ in range(draws)
    )
    law = condensation_family(CRIT, 2, 2, 5)
    res = g_test_against_law(counts, law)
    assert res.p_value > 1e-3


def test_condensation_two_type_full_law_supercritical():
    # regression: the survivor-count parameter once kept a spurious mu
    # factor above criticality, which this comparison flags immediately
    draws = 8000
    r = RandomSource(78)
    counts = Counter(
        sample_condensation(SUP, 1, r, 2, "two_type").tree.encode()
        for _ in range(draws)
    )
    law = condensation_family(SUP, 2, 1, 5)
    res = g_test_against_law(counts, law)
    assert res.p_value > 1e-3


def test_condensation_validation():
    r = RandomSource(1)
    with pytest.raises(ValidationError):
        sample_condensation(CRIT, 0, r, 2)
    with pytest.raises(ValidationError):
        sample_condensation(CRIT, 2, r, 0)
    with pytest.raises(ValidationError):
        sample_condensation(CRIT, 2, r, 2, "spectral")


# -- trees deeper than the interpreter's recursion limit ---------------------

# eta = q close to 1 is critical with little offspring variance, so the
# condensation trees stay a few thousand nodes deep into level 300
NEAR_LINE = OffspringParams(0.999, 0.999)


@pytest.mark.parametrize(
    "draw,audit",
    [
        (lambda r: sample_kesten(SUB, r, 300), audit_spine),
        (lambda r: sample_poisson_tree(CRIT, 1e-9, r, 300), audit_skeleton),
        (
            lambda r: sample_condensation(NEAR_LINE, 1, r, 300),
            lambda tt, h: audit_skeleton(tt, h, allow_barren_root=True),
        ),
        (lambda r: sample_condensation(NEAR_LINE, 1, r, 300, "inhomogeneous"), None),
    ],
    ids=["kesten", "poisson", "two_type", "inhomogeneous"],
)
def test_typed_samplers_grow_past_the_recursion_limit(draw, audit):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        got = draw(RandomSource(3))
    finally:
        sys.setrecursionlimit(limit)
    tree = got if audit is None else got.tree
    assert tree.height == 300
    assert tree.depths == OrderedTree(tree.degrees).depths
    if audit is not None:
        audit(got, 300)


# -- trees built without a validation walk -----------------------------------


@pytest.mark.parametrize(
    "draw",
    [
        lambda r: sample_gw(SUP, r, 3),
        lambda r: sample_conditioned(CRIT, 6, 4, r, 3),
        lambda r: sample_kesten(CRIT, r, 3).tree,
        lambda r: sample_poisson_tree(CRIT, 0.8, r, 3).tree,
        lambda r: sample_condensation(CRIT, 2, r, 3).tree,
        lambda r: sample_condensation(CRIT, 2, r, 3, "inhomogeneous"),
    ],
    ids=["gw", "conditioned", "kesten", "poisson", "two_type", "inhomogeneous"],
)
def test_sampled_trees_equal_validated_trees(draw):
    root = RandomSource(2024)
    for i in range(2000):
        t = draw(root.child(i))
        checked = OrderedTree(t.degrees)
        assert t == checked
        assert t.depths == checked.depths
        assert all(type(d) is int for d in t.degrees)


# -- typed trees and audits --------------------------------------------------


def test_flag_string_round_trip():
    for seed in range(20):
        tt = sample_poisson_tree(CRIT, 0.8, RandomSource(seed), 3)
        back = TypedTree(OrderedTree.decode(tt.tree.encode()), tt.flag_string())
        assert back == tt


def test_flag_string_aligns_with_preorder():
    tt = TypedTree(OrderedTree((2, 1, 0, 0)), "1110")
    assert tt.flag_string() == "1110"
    assert tt.survivor_counts(2) == [1, 1, 1]


def test_typed_tree_from_strings_length_check():
    with pytest.raises(ValidationError):
        TypedTree(OrderedTree.decode("2,0,0"), "10")
    # the right length is not enough: every character is a 0/1 flag
    with pytest.raises(ValidationError):
        TypedTree(OrderedTree.decode("2,0,0"), "1x1")


def test_spine_audit_rejects_wide_survival():
    tt = TypedTree(OrderedTree((2, 0, 0)), "111")
    with pytest.raises(AuditError):
        audit_spine(tt, 1)


def test_skeleton_audit_rejects_orphans_and_barren_lines():
    no_root = TypedTree(OrderedTree((1, 0)), "01")
    with pytest.raises(AuditError):
        audit_skeleton(no_root, 1)
    barren = TypedTree(OrderedTree((1, 1, 0)), "100")
    with pytest.raises(AuditError):
        audit_skeleton(barren, 2)
    audit_skeleton(barren, 2, allow_barren_root=True)
    deep_barren = TypedTree(OrderedTree((1, 1, 0)), "110")
    with pytest.raises(AuditError):
        audit_skeleton(deep_barren, 2, allow_barren_root=True)
    # a survivor under an extinction node, and one below the horizon; the
    # other invariants hold, so only closure under parents or the horizon
    # check can catch these
    two_lines = OrderedTree((2, 1, 0, 1, 0))
    with pytest.raises(AuditError):
        audit_skeleton(TypedTree(two_lines, "11101"), 2)
    with pytest.raises(AuditError):
        audit_spine(TypedTree(two_lines, "11001"), 2)
    too_deep = TypedTree(OrderedTree((1, 1, 0)), "111")
    audit_spine(too_deep, 2)
    with pytest.raises(AuditError):
        audit_skeleton(too_deep, 1)
