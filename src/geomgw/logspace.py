"""Log-domain probability arithmetic.

Every probability in this package travels as a natural log, with
float("-inf") standing for exact zero. Laws multiply thousands of factors
whose product underflows double precision long before the mathematics gets
interesting (a single conditioning event can sit at exp(-1000)), so linear
space is never used for anything that will be multiplied or summed across
a tree.
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np
from scipy.special import betaln, gammaln

LOG_ZERO = float("-inf")


def log_add(x: float, y: float) -> float:
    """log(e^x + e^y), tolerant of -inf on either side."""
    if x == LOG_ZERO:
        return y
    if y == LOG_ZERO:
        return x
    return float(np.logaddexp(x, y))


def log_sub(x: float, y: float) -> float:
    """log(e^x - e^y) for x >= y. Returns -inf when the difference
    vanishes to within one ulp; raises if y exceeds x by more than
    roundoff, since a negative probability is always a bug upstream."""
    if y == LOG_ZERO:
        return x
    if y > x:
        if y - x < 1e-9:
            return LOG_ZERO
        raise ValueError(f"log_sub would go negative: x={x!r} y={y!r}")
    # exp(y - x) rounds to 1 already half an ulp below x
    e = math.exp(y - x)
    if e == 1.0:
        return LOG_ZERO
    return x + math.log1p(-e)


def log_sum(values: Iterable[float] | np.ndarray) -> float:
    """log(sum(e^v)) over an iterable or a 1-d array, empty sum -> -inf.
    An array is read in place; any other iterable is listed first."""
    if not isinstance(values, np.ndarray):
        values = list(values)
    if len(values) == 1:
        # the array path's operations in plain floats, bit for bit
        m = float(values[0])
        if m == LOG_ZERO:
            return LOG_ZERO
        return m + math.log(math.exp(m - m))
    arr = np.asarray(values, dtype=float)
    # drop the list so that the terms are not held twice at the peak
    del values
    if arr.size == 0:
        return LOG_ZERO
    m = float(arr.max())
    if m == LOG_ZERO:
        return LOG_ZERO
    return m + math.log(float(np.exp(arr - m).sum()))


def log_binomial(n: float, k: float) -> float:
    """log C(n, k) for integer 0 <= k <= n, -inf outside that range.

    Uses lgamma, so n may be astronomically large (generation targets
    routinely reach 10^5 and beyond). The three lgamma terms near
    n log n cancel to an absolute error that grows with n log n (0.17 in
    the log at n = 4.4e13), so from n = 1e6 on the identity
    C(n, k) = 1 / ((n + 1) B(n - k + 1, k + 1)) goes through betaln.
    """
    if k < 0 or k > n:
        return LOG_ZERO
    if k == 0 or k == n:
        return 0.0
    if n >= 1e6:
        return float(-math.log(n + 1.0) - betaln(n - k + 1.0, k + 1.0))
    return float(gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0))


def log_poisson_tail(log_lam: float, i: int) -> float:
    """Certified upper bound for log sum_{j >= i} lam^j / j!.

    Valid once i + 1 > lam (the terms are then geometrically dominated
    with ratio lam / (i + 1)); returns +inf when the bound does not
    apply yet, so callers simply keep summing.
    """
    lam = math.exp(log_lam) if log_lam < 700 else math.inf
    if not (i + 1 > lam):
        return math.inf
    r = lam / (i + 1)
    return i * log_lam - float(gammaln(i + 1.0)) - math.log1p(-r)
