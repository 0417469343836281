"""Likelihood-ratio (G) goodness-of-fit tests for sampled tree families.

Small classes are pooled into a rest bucket before the chi-square reference
is applied, the usual guard for sparse multinomials. The one-sample variant
tests empirical counts against an exact truncated law; the two-sample
variant tests two count tables against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from scipy.special import chdtrc

from .errors import ValidationError
from .exactlaw import TruncatedLaw

MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class GTestResult:
    statistic: float
    df: int
    p_value: float
    classes: int
    pooled: int


def _finish(statistic: float, df: int, classes: int, pooled: int) -> GTestResult:
    if df < 1:
        return GTestResult(statistic, df, 1.0, classes, pooled)
    # chi-square survival function; a statistic that rounds below 0 lies
    # at the bottom of the support, where the p-value is 1
    p_value = float(chdtrc(df, max(statistic, 0.0)))
    return GTestResult(statistic, df, p_value, classes, pooled)


def g_test_against_law(
    counts: Mapping[str, int],
    law: TruncatedLaw,
) -> GTestResult:
    """G-test of observed class counts against an exact truncated law.

    Classes whose expected count falls below MIN_EXPECTED are pooled into a
    single rest bucket together with everything outside the law's support
    table (the residual mass makes that bucket's expectation honest).
    """
    total = sum(counts.values())
    if total <= 0:
        raise ValidationError("need at least one observation")
    kept: list[tuple[float, float]] = []  # (observed, expected)
    kept_codes = set()
    for code, prob in zip(law.codes, law.probs.tolist()):
        expected = total * prob
        if expected >= MIN_EXPECTED:
            kept.append((float(counts.get(code, 0)), expected))
            kept_codes.add(code)
    rest_obs = float(sum(c for code, c in counts.items() if code not in kept_codes))
    rest_exp = total - sum(e for _, e in kept)
    classes = len(kept)
    if rest_exp > 0.0 or rest_obs > 0.0:
        kept.append((rest_obs, rest_exp))
        classes += 1
    statistic = 0.0
    for obs, exp in kept:
        if obs > 0.0:
            if exp <= 0.0:
                statistic = math.inf
            else:
                statistic += 2.0 * obs * math.log(obs / exp)
    pooled = len(law.log_probs) - len(kept_codes)
    return _finish(statistic, classes - 1, classes, pooled)


def g_test_two_sample(
    counts1: Mapping[str, int],
    counts2: Mapping[str, int],
) -> GTestResult:
    """G-test of homogeneity for two independent count tables."""
    n1 = sum(counts1.values())
    n2 = sum(counts2.values())
    if n1 <= 0 or n2 <= 0:
        raise ValidationError("need observations in both samples")
    total = n1 + n2
    codes = sorted(set(counts1) | set(counts2))
    small_fraction = min(n1, n2) / total
    kept_codes = []
    rest = [0.0, 0.0]
    for code in codes:
        col = counts1.get(code, 0) + counts2.get(code, 0)
        if col * small_fraction >= MIN_EXPECTED:
            kept_codes.append(code)
        else:
            rest[0] += counts1.get(code, 0)
            rest[1] += counts2.get(code, 0)
    cells = [
        (float(counts1.get(code, 0)), float(counts2.get(code, 0)))
        for code in kept_codes
    ]
    if rest[0] + rest[1] > 0.0:
        cells.append((rest[0], rest[1]))
    statistic = 0.0
    for o1, o2 in cells:
        col = o1 + o2
        for obs, row in ((o1, n1), (o2, n2)):
            exp = row * col / total
            if obs > 0.0:
                statistic += 2.0 * obs * math.log(obs / exp)
    classes = len(cells)
    pooled = len(codes) - len(kept_codes)
    return _finish(statistic, classes - 1, classes, pooled)
