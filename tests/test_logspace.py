"""Log-domain arithmetic at the edges of double precision."""

import math
import struct

import numpy as np
import pytest

from geomgw import logspace
from geomgw.logspace import LOG_ZERO, log_binomial, log_binomial_row, log_sub, log_sum


def test_log_sub_half_an_ulp_below_is_zero():
    # exp(-2**-54) rounds to 1.0: the difference vanishes within one ulp
    assert log_sub(0.0, -(2.0**-54)) == LOG_ZERO
    assert log_sub(0.0, 0.0) == LOG_ZERO
    assert log_sub(-3.5, -3.5) == LOG_ZERO


def test_log_sub_one_ulp_below_stays_finite():
    got = log_sub(0.0, -(2.0**-53))
    assert got == math.log1p(-math.exp(-(2.0**-53)))
    assert got == pytest.approx(-53.0 * math.log(2.0), rel=1e-15)


@pytest.mark.parametrize("x,y", [(0.0, -1.0), (-2.0, -2.5), (10.0, -30.0)])
def test_log_sub_keeps_its_formula_bits(x, y):
    assert log_sub(x, y) == x + math.log1p(-math.exp(y - x))


def test_log_sub_corners():
    assert log_sub(-1.25, LOG_ZERO) == -1.25
    # roundoff above x reads as zero, anything more is a bug upstream
    assert log_sub(0.0, 1e-12) == LOG_ZERO
    with pytest.raises(ValueError):
        log_sub(0.0, 1e-3)


@pytest.mark.parametrize("n", [4.4e13, 5.6e16])
@pytest.mark.parametrize("k", [1, 7, 40])
def test_log_binomial_at_astronomic_n(n, k):
    # three lgamma terms near n log n cancel to an error of 0.17 (n = 4.4e13)
    # and 39 (n = 5.6e16) in the log
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = float(mpmath.log(mpmath.binomial(mpmath.mpf(n), k)))
    assert abs(log_binomial(n, k) - want) <= 1e-12


def array_log_sum(values):
    """log_sum's numpy path, applied to any number of terms."""
    arr = np.asarray(values, dtype=float)
    m = float(arr.max())
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(float(np.exp(arr - m).sum()))


@pytest.mark.parametrize(
    "v",
    [0.0, -0.0, 1.5, -745.25, 5e-324, 1e308, -1e308,
     math.inf, -math.inf, math.nan, -math.nan],
)
def test_log_sum_of_one_term_keeps_the_array_bits(v):
    with np.errstate(invalid="ignore"):
        want = array_log_sum([v])
    for got in (log_sum([v]), log_sum(iter([v]))):
        assert struct.pack("<d", got) == struct.pack("<d", want)


@pytest.mark.parametrize(
    "values",
    [[-0.75], [math.ldexp(1.0 + i / 97.0, -(i % 40)) - 30.0 for i in range(1000)],
     [-math.inf] * 3],
    ids=["one", "many", "all-zero-mass"],
)
def test_log_sum_reads_an_array_like_its_list(values):
    arr = np.array(values, dtype=np.float64)
    assert log_sum(arr).hex() == log_sum(values).hex()
    assert log_sum(arr[:0]) == log_sum([]) == LOG_ZERO


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 999_999, 1_000_000, 59_318_999])
def test_log_binomial_row_is_log_binomial_bit_for_bit(n):
    # both routes (gammaln below n = 1e6, betaln from it on), j = 0, j = n
    # and the -inf past n; rows of a large n are read at their two ends
    logspace._binomial_row.cache_clear()
    try:
        m = n + 3 if n < 1_000_000 else 3000
        row = log_binomial_row(n, m)
        assert len(row) == m and not row.flags.writeable
        js = range(m) if m <= 3000 else [*range(3000), *range(m - 3000, m)]
        assert [row[j].hex() for j in js] == [log_binomial(n, j).hex() for j in js]
    finally:
        logspace._binomial_row.cache_clear()


def test_a_cached_row_prefix_is_a_fresh_row():
    # a short read after a long one, from the same cached row and from a
    # shorter one, against rows built on an empty cache
    n = 59_318_999
    logspace._binomial_row.cache_clear()
    try:
        log_binomial_row(n, 3000)
        got = {m: log_binomial_row(n, m).copy() for m in (2100, 20, 1)}
        for m, row in got.items():
            logspace._binomial_row.cache_clear()
            assert [v.hex() for v in row] == [v.hex() for v in log_binomial_row(n, m)]
    finally:
        logspace._binomial_row.cache_clear()
    with pytest.raises(ValueError):
        log_binomial_row(n, 4)[0] = 1.0
