"""Seeded randomness: derivation scheme, determinism, and draw laws."""

import hashlib
import math
import random
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from geomgw import OffspringParams, RandomSource, ValidationError
from geomgw.rng import ALGORITHM, CHILD_BLOCK, _seed_sequence_words
from pvalue import g_pvalue

CRIT = OffspringParams(0.5, 0.5)
SUP = OffspringParams(0.6, 0.3)


# -- stream identity ---------------------------------------------------------


def test_algorithm_tag_is_frozen():
    # the tag is written into output artifacts; changing it is a format bump
    assert ALGORITHM == "pcg64-sha256split-v1"


def test_same_seed_same_stream():
    a = RandomSource(99)
    b = RandomSource(99)
    assert [a.uniform() for _ in range(20)] == [
        b.uniform() for _ in range(20)
    ]
    assert [a.below(1000) for _ in range(20)] == [
        b.below(1000) for _ in range(20)
    ]


def test_frozen_stream_regression():
    r = RandomSource(2026)
    assert [r.uniform() for _ in range(5)] == [
        0.17893481367543618,
        0.6399131657151546,
        0.4672684011434851,
        0.37050052710804804,
        0.3549173343096512,
    ]
    r = RandomSource(2026)
    assert [r.below(100) for _ in range(8)] == [85, 17, 2, 63, 36, 46, 7, 37]
    r = RandomSource(7)
    assert [r.geometric0(0.5) for _ in range(10)] == [
        1, 3, 2, 0, 0, 2, 0, 2, 2, 0,
    ]


def test_child_derivation_matches_documented_scheme():
    want = int.from_bytes(hashlib.sha256(b"42/7").digest()[:8], "big")
    assert RandomSource(42).child(7).seed == want
    assert RandomSource(42).child(7).seed == 9378075616326229178


def test_children_do_not_depend_on_parent_consumption():
    fresh = RandomSource(5).child(3).uniform()
    burned = RandomSource(5)
    for _ in range(17):
        burned.uniform()
    assert burned.child(3).uniform() == fresh


def test_sibling_children_differ():
    r = RandomSource(11)
    streams = {r.child(i).uniform() for i in range(30)}
    assert len(streams) == 30


def test_seed_must_be_integer():
    with pytest.raises(ValidationError):
        RandomSource("42")
    with pytest.raises(ValidationError):
        RandomSource(1.5)
    # bool is an int subclass, and its children would hash "True/i"
    with pytest.raises(ValidationError):
        RandomSource(True)
    with pytest.raises(ValidationError):
        RandomSource(False)
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        RandomSource(-1)
    for index in (True, 1.0, "1"):
        with pytest.raises(ValidationError):
            RandomSource(1).child(index)


# -- block seeding of children ---------------------------------------------

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def numpy_words(seed):
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


def test_block_words_match_seed_sequence_at_edge_seeds():
    got = _seed_sequence_words(np.array(EDGE_SEEDS, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (len(EDGE_SEEDS), 4)
    for seed, row in zip(EDGE_SEEDS, got):
        assert row.tolist() == numpy_words(seed).tolist()


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_block_words_match_seed_sequence(seeds):
    got = _seed_sequence_words(np.array(seeds, dtype=np.uint64))
    assert [row.tolist() for row in got] == [
        numpy_words(s).tolist() for s in seeds
    ]


def test_block_seeded_children_equal_integer_seeded_pcg64():
    # indices on both sides of block edges, far blocks and a negative one
    assert CHILD_BLOCK == 256
    order = [0, 255, 256, 511, 512, 700, -1]
    random.Random(3).shuffle(order)
    warm = RandomSource(77)
    warm.child(300)
    for parent in (RandomSource(77), warm):
        for i in order:
            kid = parent.child(i)
            assert type(kid.seed) is int
            assert kid.seed == int.from_bytes(
                hashlib.sha256(f"77/{i}".encode()).digest()[:8], "big"
            )
            assert kid._gen.bit_generator.state == np.random.PCG64(kid.seed).state
    mid = RandomSource(77).child(700)
    nested = mid.child(5)
    assert nested.seed == int.from_bytes(
        hashlib.sha256(f"{mid.seed}/5".encode()).digest()[:8], "big"
    )
    assert nested._gen.bit_generator.state == np.random.PCG64(nested.seed).state


@given(st.integers(0, 2**32), st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_below_stays_in_range(seed, n):
    r = RandomSource(seed)
    for _ in range(5):
        assert 0 <= r.below(n) < n


def test_below_rejects_empty_range():
    with pytest.raises(ValidationError):
        RandomSource(1).below(0)


# -- draw laws ---------------------------------------------------------------


def test_geometric0_law():
    r = RandomSource(314)
    q = 0.35
    draws = 30_000
    counts = Counter(r.geometric0(q) for _ in range(draws))
    p = g_pvalue(counts, lambda j: q * (1 - q) ** j, draws, range(40))
    assert p > 1e-3


def test_geometric_pos_is_a_shift():
    a = RandomSource(6)
    b = RandomSource(6)
    assert [a.geometric_pos(0.3) for _ in range(50)] == [
        1 + b.geometric0(0.3) for _ in range(50)
    ]


@pytest.mark.parametrize("p", [CRIT, SUP], ids=["critical", "supercritical"])
def test_offspring_law(p):
    r = RandomSource(2718)
    draws = 30_000
    counts = Counter(r.offspring(p) for _ in range(draws))
    pv = g_pvalue(
        counts, lambda k: math.exp(p.log_pmf(k)), draws, range(40)
    )
    assert pv > 1e-3


def test_size_biased_total_law():
    r = RandomSource(161)
    q, s = 0.5, 2
    draws = 30_000
    counts = Counter(r.size_biased_total(q, s) for _ in range(draws))

    def pmf(n):
        return math.comb(n, s) * q ** (s + 1) * (1 - q) ** (n - s)

    p = g_pvalue(counts, pmf, draws, range(s, 50))
    assert p > 1e-3
    assert min(counts) >= s


def test_size_biased_total_rejects_zero_lines():
    with pytest.raises(ValidationError):
        RandomSource(1).size_biased_total(0.5, 0)


@pytest.mark.parametrize("lam", [3.7, 130.0], ids=["inversion", "halving"])
def test_poisson_law(lam):
    # lam = 130 goes through the exact-additivity halving
    r = RandomSource(577)
    draws = 30_000
    counts = Counter(r.poisson(lam) for _ in range(draws))
    lo = max(0, int(lam - 6 * math.sqrt(lam)))
    hi = int(lam + 7 * math.sqrt(lam))
    p = g_pvalue(
        counts,
        lambda k: scipy.stats.poisson.pmf(k, lam),
        draws,
        range(lo, hi),
    )
    assert p > 1e-3


def test_poisson_corners():
    assert RandomSource(1).poisson(0.0) == 0
    for lam in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            RandomSource(1).poisson(lam)


def test_poisson_halving_draws_are_pinned():
    # the G-test above does not fix the order the halves are drawn in; these
    # draws do (left half first, down to means of at most 30)
    assert [RandomSource(s).poisson(130.0) for s in range(6)] == [
        128, 138, 118, 115, 139, 120]
    r = RandomSource(7)
    assert [r.poisson(1e5) for _ in range(3)] == [100020, 100061, 100298]


def test_poisson_stops_past_its_limit():
    # a full draw at this mean would take about 4e10 inversions
    assert RandomSource(1).poisson(1e12, limit=1000) > 1000


# -- combinatorial draws -----------------------------------------------------


def test_positive_composition_small_uniformity():
    # total 4 into 2 parts: (1,3), (2,2), (3,1) each carry mass 1/3
    r = RandomSource(808)
    draws = 30_000
    counts = Counter(
        tuple(r.positive_composition(4, 2)) for _ in range(draws)
    )
    assert set(counts) == {(1, 3), (2, 2), (3, 1)}
    stat, p = scipy.stats.power_divergence(
        list(counts.values()), [draws / 3] * 3, lambda_="log-likelihood"
    )
    assert p > 1e-3


def test_positive_composition_wider_uniformity():
    # total 6 into 3 parts: C(5, 2) = 10 equally likely compositions
    r = RandomSource(809)
    draws = 20_000
    counts = Counter(
        tuple(r.positive_composition(6, 3)) for _ in range(draws)
    )
    assert len(counts) == 10
    stat, p = scipy.stats.power_divergence(
        list(counts.values()), [draws / 10] * 10, lambda_="log-likelihood"
    )
    assert p > 1e-3


@given(
    st.integers(0, 2**32),
    st.integers(1, 40).flatmap(
        lambda t: st.tuples(st.just(t), st.integers(1, t))
    ),
)
@settings(max_examples=80, deadline=None)
def test_positive_composition_shape(seed, total_parts):
    total, parts = total_parts
    out = RandomSource(seed).positive_composition(total, parts)
    assert len(out) == parts
    assert sum(out) == total
    assert all(x >= 1 for x in out)


def test_positive_composition_rejects_impossible_splits():
    with pytest.raises(ValidationError):
        RandomSource(1).positive_composition(2, 3)
    with pytest.raises(ValidationError):
        RandomSource(1).positive_composition(5, 0)


def test_uniform_subset_uniformity():
    r = RandomSource(909)
    draws = 20_000
    counts = Counter(
        tuple(r.uniform_subset(5, 2)) for _ in range(draws)
    )
    assert len(counts) == 10
    stat, p = scipy.stats.power_divergence(
        list(counts.values()), [draws / 10] * 10, lambda_="log-likelihood"
    )
    assert p > 1e-3


def test_uniform_subset_corners():
    assert RandomSource(3).uniform_subset(4, 0) == []
    assert RandomSource(3).uniform_subset(4, 4) == [0, 1, 2, 3]
    out = RandomSource(3).uniform_subset(9, 4)
    assert out == sorted(out) and len(set(out)) == 4
    with pytest.raises(ValidationError):
        RandomSource(3).uniform_subset(3, 4)
