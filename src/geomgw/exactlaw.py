"""Exact laws: generation sizes, truncated trees, and the three limit laws.

Everything here is a closed form or a certified truncation of one. All
probabilities move through log space; a returned float is always a log
probability unless the name says otherwise. The laws implemented:

  * generation size of one tree and of a forest of k iid trees,
  * the radius-h ball of the unconditioned tree,
  * the tree conditioned on its generation-n size (exact ratio form),
  * the size-biased eternal tree (Kesten's limit),
  * the one-parameter family of skinny limits bridging that tree to
    the fat limit (weight family indexed by theta >= 0),
  * the fat limit with an infinite-degree root (condensation), in two
    independently-derived forms kept separate on purpose.

Each ball law is the plain ball mass times a weight of the ball's bottom
width k = Z_h alone. Every law has exactly one weight function of
(p, h, k), and its per-tree law adds it to gw_tree_log_prob. One record
per law (_Law), the fat limit's included, carries that weight and the
weight of a view's balls of root degree k0, and one tabulator, _tabulate,
builds each family, view and fat law whole from it. Each table reads one
shape table in code order, so every tabulated law is in code order.

For root-degree-truncated balls the laws of the conditioned and skinny
trees need an infinite series over the unobserved sibling subtrees; it
is summed with explicit tail certificates and fails loudly (instead of
returning a best effort) when the requested accuracy is not reached.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, product, zip_longest

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from .errors import CertificationError, TruncationError, ValidationError
from .logspace import (
    LOG_ZERO,
    log_add,
    log_binomial,
    log_binomial_row,
    log_poisson_tail,
    log_sub,
    log_sum,
)
from .offspring import (
    OffspringParams,
    cumulative_immigration,
    extinction_params,
    gamma_gap,
    iterate,
    log_condensation_offspring,
    log_gamma_ratio,
)
# enumerate_trees is not called here any more, but bench/tracing.py wraps
# it under this module's name, so it stays bound
from .treekit import OrderedTree, _shape_pool, enumerate_trees

MASS_TOLERANCE = 1e-9  # slack allowed above 1 before a law is declared broken
SERIES_RTOL = 1e-9  # relative accuracy of every certified sibling series


# ---------------------------------------------------------------------------
# generation-size laws
# ---------------------------------------------------------------------------


def log_generation_pmf(p: OffspringParams, n: int, a: int) -> float:
    """log P(generation n of one tree has exactly a members).

    Closed form through the pole of the n-fold iterated generating
    function: mass (gamma_n - kappa)(gamma_n - 1) gamma_n^-(a+1) at a >= 1
    and kappa / gamma_n at a = 0. Generation 0 is the point mass at 1.
    """
    return log_forest_pmf(p, 1, n, a)


def log_forest_pmf(p: OffspringParams, k: int, n: int, a: int) -> float:
    """log P(generation n of a forest of k iid trees has a members).

    The convolution collapses to a single sum over the number i of
    root trees still alive at time n:

        sum_i C(k,i) C(a-1,i-1) kappa^(k-i)
              ((gamma_n-kappa)(gamma_n-1))^i gamma_n^-(a+k).

    Degenerate corners (k = 0, n = 0, a = 0) are all meaningful and
    handled; they are exercised constantly by the bridge sampler.
    """
    if k < 0 or n < 0 or a < 0:
        raise ValidationError("forest size, generation and total must be >= 0")
    if k == 0:
        return 0.0 if a == 0 else LOG_ZERO
    if n == 0:
        return 0.0 if a == k else LOG_ZERO
    it = iterate(p, n)
    if a == 0:
        if p.kappa == 0.0:
            return LOG_ZERO
        return k * (math.log(p.kappa) - it.log_gamma)
    return _log_alive_sum(p, k, a, it.log_gap_product, 0.0) - (a + k) * it.log_gamma


def _log_alive_sum(
    p: OffspringParams, k: int, a: int, log_gaps: float, base: float
) -> float:
    """log of sum_i C(k,i) C(a-1,i-1) kappa^(k-i) exp(i log_gaps + base)
    over the number i of the k root trees still alive, 1 <= i <= min(k, a).

    One array pass over cached binomial rows; each term is
    ((log C(k,i) + log C(a-1,i-1)) + i log_gaps) + base, plus
    (k-i) log kappa for i < k, the operations of a loop over i in its
    order. With kappa = 0 no root tree dies, so only i = k is left. A
    lone term (k = 1, a = 1 or kappa = 0) takes the same operations in
    plain floats, about 2 us a call against 5 for the array pass."""
    kappa = p.kappa
    m = min(k, a)
    lo = k if kappa == 0.0 else 1
    if lo > m:
        return LOG_ZERO
    if lo == m:
        # the same operations in plain floats, as log_sum does for one term
        t = (float(log_binomial_row(k, m + 1)[m]) + float(log_binomial_row(a - 1, m)[m - 1])
             + m * log_gaps + base)
        if m < k:
            t += (k - m) * math.log(kappa)
        return log_sum([t])
    i = np.arange(lo, m + 1.0)
    terms = (
        log_binomial_row(k, m + 1)[lo:] + log_binomial_row(a - 1, m)[lo - 1 :]
        + i * log_gaps + base
    )
    dead = min(m, k - 1) - lo + 1
    if dead > 0:
        terms[:dead] += (k - i[:dead]) * math.log(kappa)
    return log_sum(terms)


# ---------------------------------------------------------------------------
# truncated-tree law of the plain tree
# ---------------------------------------------------------------------------


def gw_tree_log_prob(p: OffspringParams, t: OrderedTree, h: int) -> float:
    """log P(radius-h ball of the unconditioned tree equals t).

    t must be its own radius-h ball (depth-h nodes carry degree zero);
    the probability is the product of offspring masses over nodes of
    depth < h, leaves included.
    """
    if h < 0:
        raise ValidationError(f"radius must be >= 0, got {h}")
    if not t.is_ball(h):
        raise ValidationError("tree is not its own radius-h ball")
    total = 0.0
    for d, dep in zip(t.degrees, t.depths):
        if dep < h:
            total += p.log_pmf(d)
    return total


# ---------------------------------------------------------------------------
# conditioning ratio and the conditioned law
# ---------------------------------------------------------------------------


def size_conditioning_ratio(
    p: OffspringParams, n: int, h: int, k: int, a: int
) -> float:
    """log P(forest of k reaches total a in n-h steps) / P(one tree reaches a in n).

    This is the factor that converts the plain radius-h ball law into the
    law of the ball of the tree conditioned on generation n having size a,
    with k the ball's bottom-row width. Everything is assembled from
    cancellation-free pole differences, so it stays certifiable at
    generation sizes of order mu^-n.
    """
    if not 1 <= h <= n:
        raise ValidationError("need 1 <= h <= n")
    if a < 1:
        raise ValidationError("conditioned size must be >= 1")
    if k < 0:
        raise ValidationError("ball width must be >= 0")
    if k == 0:
        return LOG_ZERO
    m = n - h
    if m == 0:
        if k != a:
            return LOG_ZERO
        # 0.0 - x, not -x: a mass that rounds to 1 gives +0.0
        return 0.0 - log_generation_pmf(p, n, a)
    it_n = iterate(p, n)
    it_m = iterate(p, m)
    # a * log(gamma_n / gamma_m) is the only piece whose error a amplifies
    log_scale = a * log_gamma_ratio(p, n, m)
    base = it_n.log_gamma - k * it_m.log_gamma - it_n.log_gap_product
    return log_scale + _log_alive_sum(p, k, a, it_m.log_gap_product, base)


def conditioned_tree_law(
    p: OffspringParams, n: int, a: int, t: OrderedTree, h: int
) -> float:
    """log P(radius-h ball = t | generation n has size a)."""
    ratio = size_conditioning_ratio(p, n, h, t.z(h), a)
    return gw_tree_log_prob(p, t, h) + ratio


# ---------------------------------------------------------------------------
# the three limit laws on radius-h balls
# ---------------------------------------------------------------------------


def _log_kesten_weight(p: OffspringParams, h: int, k: int) -> float:
    """log of the eternal-tree weight k c^(k-1) m^-h at radius h and bottom
    width k, with c the extinction probability and m the mean of the law
    conditioned on dying out. Needs eta < 1: without leaves the
    extinction probability vanishes and this limit does not exist.
    """
    if p.eta >= 1.0:
        raise ValidationError("the size-biased eternal tree needs eta < 1")
    if k == 0:
        return LOG_ZERO
    ext = extinction_params(p)
    return (
        math.log(k)
        + (k - 1) * math.log(ext.extinction_prob)
        - h * math.log(ext.mean)
    )


def kesten_tree_law(p: OffspringParams, t: OrderedTree, h: int) -> float:
    """log P(radius-h ball of the size-biased eternal tree equals t)."""
    return gw_tree_log_prob(p, t, h) + _log_kesten_weight(p, h, t.z(h))


def _mixing_base(p: OffspringParams, h: int) -> float:
    """Per-theta intensity of the sibling-mixing series at depth h."""
    mu = p.mean
    kappa = p.kappa
    if p.eta == p.q:
        return (p.gamma - 1.0) ** 2
    if mu < 1.0:
        return mu ** (-h) * (kappa - 1.0) ** 2 / kappa
    return mu**h * (1.0 - kappa) ** 2


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta < math.inf:
        raise ValidationError(f"theta must be finite and >= 0, got {theta}")


def log_poisson_weight(p: OffspringParams, h: int, k: int, theta: float) -> float:
    """log of the skinny-family weight at radius h and bottom width k.

    Multiplying the plain ball law by this weight gives the radius-h law
    of the theta-member of the limit family. At theta = 0 it equals the
    eternal-tree weight up to rounding; as theta grows the mass drifts
    toward wide balls. Valid for every finite theta >= 0; width 0 carries
    no mass. Only the death probability and the dual mean enter, as plain
    numbers, so eta = 1 works here even though the dual law itself degenerates.
    """
    if h < 0:
        raise ValidationError(f"radius must be >= 0, got {h}")
    _check_theta(theta)
    if k < 0:
        raise ValidationError(f"ball width must be >= 0, got {k}")
    if k == 0:
        return LOG_ZERO
    mu = p.mean
    c = min(p.kappa, 1.0)
    dual_mean = min(mu, 1.0 / mu)
    lam = theta * _mixing_base(p, h)
    # the terms i = lo .. hi of (log C(k,i) - log (i-1)!) + (k-i) log c
    # [i < k] + (i-1) log lam [i > 1]: with c = 0 only i = k is left, with
    # lam = 0 only i = 1
    lo = k if c == 0.0 else 1
    hi = 1 if lam == 0.0 else k
    i = np.arange(lo, hi + 1.0)
    terms = log_binomial_row(k, hi + 1)[lo:] - gammaln(i)
    dead = min(hi, k - 1) - lo + 1  # the terms i < k
    if dead > 0:
        terms[:dead] += (k - i[:dead]) * math.log(c)
    if hi > 1:
        two = max(2 - lo, 0)  # the first term i > 1
        terms[two:] += (i[two:] - 1) * math.log(lam)
    return (
        -h * math.log(dual_mean)
        - theta * cumulative_immigration(p, h)
        + log_sum(terms)
    )


def poisson_tree_law(
    p: OffspringParams, theta: float, t: OrderedTree, h: int
) -> float:
    """log P(radius-h ball of the theta-member of the limit family = t)."""
    return gw_tree_log_prob(p, t, h) + log_poisson_weight(p, h, t.z(h), theta)


def _log_fat_constant(p: OffspringParams) -> float:
    """log (1-q)/(eta q), the fat limit's constant factor."""
    return math.log1p(-p.q) - math.log(p.eta) - math.log(p.q)


def _log_condensation_weight(p: OffspringParams, h: int, k: int) -> float:
    """log of the fat-limit weight (1-q)/(eta q) gamma_h^k at radius h and
    bottom width k."""
    return _log_fat_constant(p) + k * iterate(p, h).log_gamma


def _check_fat_ball(k0: int, t: OrderedTree, h: int) -> None:
    """The input check both condensation formulas share: t must be an
    (h, k0)-ball of the fat tree, with h >= 1 and root degree k0 >= 1."""
    if k0 < 1:
        raise ValidationError("the root keeps at least one subtree")
    if t.root_degree != k0:
        raise ValidationError(
            f"ball of the fat tree has root degree {k0}, got {t.root_degree}"
        )
    if h < 1:
        raise ValidationError("radius must be >= 1 for the fat limit")


def condensation_tree_law(
    p: OffspringParams, k0: int, t: OrderedTree, h: int
) -> float:
    """log P(the (h, k0)-ball of the fat limit tree equals t).

    The fat tree's root has infinitely many children, so the observable
    is the radius-h ball keeping only the first k0 root subtrees; t must
    have root degree exactly k0.
    """
    _check_fat_ball(k0, t, h)
    return gw_tree_log_prob(p, t, h) + _log_condensation_weight(p, h, t.z(h))


def condensation_tree_law_product(
    p: OffspringParams, k0: int, t: OrderedTree, h: int
) -> float:
    """Same law as condensation_tree_law by an unrelated route: product of
    the depth-tilted offspring masses over non-root nodes. The two are
    kept as separate code paths and the tests hold them together."""
    _check_fat_ball(k0, t, h)
    if not t.is_ball(h):
        raise ValidationError("tree is not its own radius-h ball")
    total = 0.0
    for idx, (d, dep) in enumerate(zip(t.degrees, t.depths)):
        if idx == 0 or dep >= h:
            continue
        total += log_condensation_offspring(p, dep, d)
    return total


# ---------------------------------------------------------------------------
# certified sibling-series machinery (root-degree-truncated balls)
# ---------------------------------------------------------------------------


# term-table elements _chain_sums builds at a time (512 KiB of float64)
_CHAIN_BLOCK = 1 << 16
# the most chain terms i_cut * k_cut one pass of _graft_table takes on,
# about a second of _chain_sums; the largest pass of the bundled configs
# is 1,349 * 4,063 and the largest of the tests 2,480 * 11,176. As k_cut
# >= 1.5 i_cut, it also keeps i_cut below 8,200
_PASS_TERMS = 100_000_000


def _chain_sums(
    log_fact: np.ndarray,
    k_log_y: np.ndarray,
    cols: list[int],
    lws: list[float],
    k_values: list[int],
) -> np.ndarray:
    """log U_k = log sum_i w_i S_i(max(k+1, i)) for each k of k_values, where
    S_i(L) = sum_{K=L}^{k_cut} C(K, i) y^K.

    log_fact[K] = log K! and k_log_y[K] = K log y for K = 0 .. k_cut + 1;
    cols lists the terms i in ascending order and lws their log w_i. One
    array carries every chain S_i, and each row K of log C(K, i) y^K =
    ((log K! - log i!) - log (K-i)!) + K log y, from K = k_cut down, is
    added to it by one elementwise logaddexp. log (K-i)! is read from
    log_fact reversed and padded with +inf, so K < i adds -inf, which
    leaves a chain as it is. Each chain thus makes the calls of a 1-D
    accumulate of its own terms, in the same order, without waiting on
    the others. U_k is folded over ascending i once row k + 1 is in.
    Rows are built _CHAIN_BLOCK elements at a time, whatever the widths.
    """
    k_cut = len(log_fact) - 2
    n = cols[-1]
    idx = np.asarray(cols) - 1
    lws = np.asarray(lws)
    chains = np.full(n, LOG_ZERO)
    # rev[j] = log (k_cut + 1 - j)!, and +inf where k_cut + 1 - j < 0
    rev = np.concatenate((log_fact[::-1], np.full(n, np.inf)))
    reads = sorted(set(k_values))
    log_u = {}
    hi = k_cut
    while reads:
        # chains i > hi see only -inf in rows K <= hi and stay as they are
        width = min(n, hi)
        lo = max(reads[0] + 1, hi + 1 - max(1, _CHAIN_BLOCK // width))
        # rows K = hi .. lo: terms[r, c] reads log (hi - r - c - 1)! at
        # rev[k_cut + 2 - hi + r + c]
        start = k_cut + 2 - hi
        terms = np.subtract.outer(log_fact[lo : hi + 1][::-1], log_fact[1 : width + 1])
        terms -= sliding_window_view(rev[start : start + hi - lo + width], width)
        terms += k_log_y[lo : hi + 1][::-1, None]
        live = chains[:width]
        for k_row, row in zip(range(hi, lo - 1, -1), terms):
            np.logaddexp(live, row, out=live)
            if k_row == reads[-1] + 1:
                fold = np.concatenate(([LOG_ZERO], lws + chains[idx]))
                log_u[reads.pop()] = np.logaddexp.accumulate(fold)[-1]
        hi = lo - 1
    return np.array([log_u[k] for k in k_values])


def _graft_table(
    log_gh: float,
    head: float,
    log_y: float,
    weight_log,
    c0: float,
    lam: float,
    k_values: list[int],
) -> dict[int, float]:
    """log T(k) = head + k log gamma_h + log U_k, where
    U_k = sum_i w_i sum_{K >= max(k+1, i)} C(K,i) y^K is certified.

    weight_log(n) returns log w_i for i = 1 .. n as an array. From the
    law's bases c0 and lam, log C0 = c0 - log gamma_h - 2 log(1-y) and
    log lam_hat = lam - log gamma_h - log(1-y) give the certificate
    w_i y^i / (1-y)^(i+1) <= C0 lam_hat^(i-1) / (i-1)!, so the i-tail is
    bounded by a Poisson tail; the K-tail of each inner series is
    geometric once K is past i / (1-y). The truncation error
    is pushed below SERIES_RTOL * min_k U_k or a TruncationError is raised.
    Each pass sums its inner series side by side in _chain_sums, and a pass
    of more than _PASS_TERMS terms i_cut * k_cut is refused before it runs.
    """
    y = math.exp(log_y)
    log_c0 = c0 - log_gh - 2.0 * math.log1p(-y)
    log_lam_hat = lam - log_gh - math.log1p(-y)
    kmax = max(k_values)
    lam_hat = math.exp(log_lam_hat)
    i_cut = int(math.ceil(lam_hat + 10.0 * math.sqrt(lam_hat + 1.0))) + 32
    for attempt in range(7):
        k_cut = max(kmax + 2, int(math.ceil(1.5 * i_cut / (1.0 - y))) + 16)
        # at most six passes; the term caps refuse a pass before its arrays
        # are sized, and the error names the cuts of the refused pass
        if attempt == 6 or k_cut > 1_000_000 or i_cut * k_cut > _PASS_TERMS:
            break
        log_err = log_c0 + log_poisson_tail(log_lam_hat, i_cut)
        # one term table per pass: log K! and K log y for K = 0 .. k_cut + 1
        kk = np.arange(k_cut + 2, dtype=np.float64)
        log_fact = gammaln(kk + 1.0)
        k_log_y = kk * log_y
        cols, lws = [], []
        for i, lw in enumerate(weight_log(i_cut).tolist(), 1):
            if lw == LOG_ZERO:
                continue
            cols.append(i)
            lws.append(lw)
            # geometric bound on the truncated K-tail of this i, whose
            # first term is log C(k_cut + 1, i) y^(k_cut + 1)
            r = y * (k_cut + 2.0) / (k_cut + 2.0 - i)
            if r >= 1.0:
                log_err = math.inf
                break
            first = (
                log_fact[k_cut + 1] - log_fact[i] - log_fact[k_cut + 1 - i]
                + k_log_y[k_cut + 1]
            )
            log_err = log_add(log_err, lw + float(first) - math.log1p(-r))
        log_u = _chain_sums(log_fact, k_log_y, cols, lws, k_values)
        floor = float(np.min(log_u))
        if log_err == LOG_ZERO or (
            floor != LOG_ZERO and log_err <= math.log(SERIES_RTOL) + floor
        ):
            return {k: head + k * log_gh + float(v) for k, v in zip(k_values, log_u)}
        i_cut *= 2
    raise TruncationError(
        "sibling series not certified to requested accuracy "
        f"(rtol={SERIES_RTOL}, i_cut={i_cut}, k_cut={k_cut})"
    )


def _sibling_sum_poisson(
    p: OffspringParams, h: int, theta: float, k_values: list[int]
) -> dict[int, float]:
    """log T(k) = log sum_{k' >= 1} W(k+k') P(Z_h = k') for the skinny
    weight. Needs eta < 1, so the extinction probability c is positive."""
    ext = extinction_params(p)
    c = ext.extinction_prob
    it_h = iterate(p, h)
    log_gh = it_h.log_gamma
    log_a = it_h.log_gap_product - log_gh
    lam = theta * _mixing_base(p, h)
    log_head = -h * math.log(ext.mean) - theta * cumulative_immigration(p, h)
    log_lam = math.log(lam) if lam > 0.0 else LOG_ZERO
    log_c = math.log(c)

    def weight_log(n: int) -> np.ndarray:
        # -i log c - log (i-1)!, plus (i-1) log lam for i > 1
        i = np.arange(1.0, n + 1)
        t = -i * log_c - gammaln(i)
        t[1:] += (i[1:] - 1) * log_lam
        return t

    return _graft_table(
        log_gh, log_head + log_a, log_c - log_gh, weight_log, 0.0, log_lam, k_values
    )


def _sibling_sum_conditioned(
    p: OffspringParams, n: int, a: int, h: int, k_values: list[int]
) -> dict[int, float]:
    """log T(k) for the size-conditioning weight W = ratio(n, h, ., a)."""
    it_h = iterate(p, h)
    log_gh = it_h.log_gamma
    log_a_factor = it_h.log_gap_product - log_gh
    m = n - h
    if m == 0:
        # ratio degenerates to a point: T(k) = P(Z_h = a-k) / P(Z_n = a)
        log_zn = log_generation_pmf(p, n, a)
        out = {}
        for k in k_values:
            if a - k >= 1:
                out[k] = log_generation_pmf(p, h, a - k) - log_zn
            else:
                out[k] = LOG_ZERO
        return out
    it_n = iterate(p, n)
    it_m = iterate(p, m)
    log_gm = it_m.log_gamma
    kappa = p.kappa
    log_beta = it_m.log_gap_product
    log_b = a * log_gamma_ratio(p, n, m)
    log_head = log_b + it_n.log_gamma - it_n.log_gap_product + log_a_factor
    if kappa == 0.0:
        # only the all-alive term of the weight survives; the hidden-sibling
        # sum is finite (binomial cut at a) with a decreasing term ratio
        out = {}
        log_x = log_beta - log_gm - log_gh
        x = math.exp(log_x)
        for k in k_values:
            terms = []
            kk = k + 1
            while kk <= a:
                lt = log_binomial(a - 1, kk - 1) + kk * log_x
                terms.append(lt)
                ratio = x * (a - kk) / kk
                if ratio == 0.0:
                    break  # every later term vanishes (kk = a)
                if ratio < 1.0 and terms:
                    body = log_sum(terms)
                    tail = lt + math.log(ratio) - math.log1p(-ratio)
                    if tail <= math.log(SERIES_RTOL) + body:
                        break
                if kk - k > 200_000:
                    raise TruncationError("sibling series (no-extinction) diverged")
                kk += 1
            out[k] = (log_head + k * log_gh + log_sum(terms)) if terms else LOG_ZERO
        return out
    log_w_base = log_beta - math.log(kappa)

    def weight_log(n: int) -> np.ndarray:
        return log_binomial_row(a - 1, n) + np.arange(1.0, n + 1) * log_w_base

    log_a1 = math.log(a - 1.0) if a > 1 else LOG_ZERO
    log_y = math.log(kappa) - log_gm - log_gh
    return _graft_table(
        log_gh, log_head, log_y, weight_log, log_beta - log_gm,
        log_a1 + log_beta - log_gm, k_values,
    )


def _sibling_sum_kesten(
    p: OffspringParams, h: int, k_values: list[int]
) -> dict[int, float]:
    """log T(k) for the eternal-tree weight; fully closed form."""
    ext = extinction_params(p)
    c = ext.extinction_prob
    it_h = iterate(p, h)
    log_gh = it_h.log_gamma
    log_a = it_h.log_gap_product - log_gh
    log_c = math.log(c)
    log_x = log_c - log_gh
    x = math.exp(log_x)
    out = {}
    for k in k_values:
        body = log_x + math.log(k + 1.0 / (1.0 - x)) - math.log1p(-x)
        out[k] = -h * math.log(ext.mean) + log_a + (k - 1) * log_c + body
    return out


# ---------------------------------------------------------------------------
# tabulated laws over enumerated supports
# ---------------------------------------------------------------------------


class TruncatedLaw:
    """A law tabulated over the rows of a shape table.

    source = (support, keep) is a shape table, whose codes tuple lists its
    rows in code (string) order, and a boolean mask over those rows: the
    rows of nonzero mass. log_probs is a read-only float64 array of their
    log probabilities, one per kept row. Every law lies on one table, and
    a table's rows depend on (h, degree_cap, k0) alone, so two laws of one
    ball line up by their masks, with no code read. codes, the kept rows'
    text tree codes, is built on first read: the support's own tuple when
    the mask keeps every row, () with no code built when it keeps none.
    entries is the code -> log probability dict in code order and probs
    the column of probabilities (math.exp of each entry); both are derived
    from the columns on first use and then kept.
    log_residual bounds (in log space) the mass the table does not see,
    i.e. 1 minus the tabulated total; a new law has none yet. meta records
    how the table was built, and rides along in the CSV header comment.
    """

    def __init__(self, source: tuple, log_probs: np.ndarray) -> None:
        log_probs.flags.writeable = False
        self._source, self.log_probs = source, log_probs
        self.log_residual, self.meta = LOG_ZERO, {}

    @cached_property
    def codes(self) -> tuple[str, ...]:
        support, keep = self._source
        if keep.all():
            return support.codes
        return tuple(compress(support.codes, keep.tolist())) if keep.any() else ()

    @cached_property
    def entries(self) -> dict[str, float]:
        return dict(zip(self.codes, self.log_probs.tolist()))

    @cached_property
    def probs(self) -> np.ndarray:
        # libm's exp, one entry at a time: numpy's vectorized exp differs
        # from it in the last bit on some inputs
        out = np.fromiter(
            map(math.exp, self.log_probs.tolist()), dtype=np.float64,
            count=len(self.log_probs),
        )
        out.flags.writeable = False
        return out

    def log_total(self) -> float:
        return log_sum(self.log_probs)

    def write_csv(self, out) -> None:
        """Write the law to a text stream: one metadata comment line, a
        header, then code/log-prob rows in code order."""
        keys = sorted(self.meta)
        parts = [f"{k}={self.meta[k]}" for k in keys]
        parts.append(f"log_residual={self.log_residual!r}")
        out.write("# " + " ".join(parts) + "\n")
        out.write("tree_code,log_prob\n")
        for code, lp in zip(self.codes, self.log_probs.tolist()):
            out.write(f'"{code}",{lp!r}\n')


def law_normalize_check(law: TruncatedLaw) -> float:
    """Log of the total tabulated mass; raises if the mass exceeds 1 beyond
    rounding slack or is not a number."""
    log_total = law.log_total()
    total = math.exp(log_total)
    if not total <= 1.0 + MASS_TOLERANCE:
        raise CertificationError(
            f"tabulated mass {total!r} exceeds 1 (law {law.meta.get('law', '?')})"
        )
    return log_total


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """A shape table as columns, rows in code order: each ball's log ball
    mass (a read-only float64 array) and its bottom width (an int array),
    plus the distinct widths in ascending order and the rows of each root
    degree, one slice each, root degrees in code order. Each row's code is
    built from the codes of the height-(h-1) pool on first read, once per
    table, so every law of one table shares one tuple."""

    pool_codes: tuple[str, ...]
    lgw: np.ndarray
    width: np.ndarray
    widths: tuple[int, ...]
    rows: dict[int, slice]

    @cached_property
    def codes(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(
            map(",".join, product((str(d),), *[self.pool_codes] * d)) for d in self.rows
        ))


# A single entry can hold millions of rows, and a rebuild is cheap next to
# the laws built from it. Without its codes an entry takes 16 bytes a row;
# the code strings, built only when a law's codes are read, take about
# 100 more (14 MB at (h, cap) = (2, 6)). One table serves every family at
# (p, h, cap) and one every law at an (h, k0) view; the bundled sweeps and
# the benchmark workloads use at most three distinct tables.
@lru_cache(maxsize=8)
def _skeleton(p: OffspringParams, h: int, degree_cap: int, k0: int | None) -> _Skeleton:
    """(log ball mass, bottom width) for each ball shape of height <= h,
    in code order, as columns, with the codes built on demand: with k0
    None every such ball, else the balls of the (h, k0) view, root degrees
    1 .. min(k0, degree_cap). The expensive part of every family build, so
    cached; the width weights drop the shapes that do not reach depth h.

    A ball is its root over a product of entries of the height-(h-1) pool.
    The columns are built one pass per root slot, all root degrees with a
    slot left in one matrix, one row each. A pass adds each pool entry's
    log_pmf terms above depth h, in preorder and zero padded, and its
    width at depth h. Sums start at 0.0 + pmf[d], never -0.0, so a
    padding add x + 0.0 returns x: every row adds the same terms in the
    same order as a preorder walk over the ball. At h = 0 the lone root
    is the bottom: no node above it, one node at it."""
    degrees = range(degree_cap + 1) if k0 is None else range(1, min(k0, degree_cap) + 1)
    roots = sorted(degrees, key=str)
    pool = _shape_pool(h, degree_cap, roots)
    pmf = [p.log_pmf(d) for d in range(degree_cap + 1)]
    above = [[pmf[d] for d, dep in zip(degs, depths) if dep < h]
             for degs, depths in pool]
    # column t holds each entry's t-th term, 0.0 past its last
    term_columns = np.array(list(zip_longest(*above, fillvalue=0.0)))
    sub_width = np.array([depths.count(h) for _, depths in pool], dtype=np.intp)
    open_degrees = sorted(roots)
    lgw = np.array([[0.0 + pmf[d] if h else 0.0] for d in open_degrees])
    width = np.full((len(open_degrees), 1), 0 if h else 1, dtype=np.intp)
    done = {}
    for slots in range(max(roots, default=-1) + 1):
        if open_degrees[0] == slots:
            done[open_degrees.pop(0)] = lgw[0], width[0]
            lgw, width = lgw[1:], width[1:]
        if not open_degrees:
            break
        lgw = np.repeat(lgw[:, :, None], len(pool), axis=2)
        for col in term_columns:
            lgw += col
        lgw = lgw.reshape(len(open_degrees), -1)
        width = (width[:, :, None] + sub_width).reshape(len(open_degrees), -1)
    pool_codes = tuple(",".join(map(str, degs)) for degs, _ in pool)
    lgw = np.concatenate([done[d][0] for d in roots] or [np.empty(0)])
    lgw.flags.writeable = False
    width = np.concatenate([done[d][1] for d in roots] or [np.empty(0, np.intp)])
    sizes = [len(done[d][0]) for d in roots]
    rows = dict(zip(roots, map(slice, accumulate([0] + sizes), accumulate(sizes))))
    return _Skeleton(pool_codes, lgw, width, tuple(np.unique(width).tolist()), rows)


def _weights(weight: Callable[[int], float], widths) -> np.ndarray:
    """weight(k) once per width k, in the order given, in a table by width."""
    table = np.empty(max(widths, default=-1) + 1)
    for k in widths:
        table[k] = weight(k)
    return table


@dataclass(frozen=True)
class _Law:
    """One ball law, read by its family and its (h, k0) view: the log width
    weight of balls that show all their root subtrees; top(own, widths),
    the table by width of a view's balls of root degree k0, given own, the
    first weight's table; and its meta entries beyond eta, q, law, h and
    degree_cap. The callables look their functions up by module name at
    call time, so a wrapper installed on this module sees every call."""

    kind: str
    weight: Callable[[int], float]
    params: dict[str, str] = field(default_factory=dict)
    top: Callable[[np.ndarray, list[int]], np.ndarray] | None = None


def _hidden_siblings(p: OffspringParams, h: int, series) -> Callable:
    """top for a law whose root-degree-k0 balls may hide further root
    subtrees: F(k) = W(k) (1 + c g) + c T(k) from the own weight W and the
    certified hidden-sibling series T = series(widths), with c = (1-q)/(eta q)
    and g >= 0 the gap P(ball of one subtree dies by h) - P(no subtree)."""
    def top(own: np.ndarray, widths: list[int]) -> np.ndarray:
        t_table = series(widths)
        log_cq = _log_fat_constant(p)
        gap = (p.kappa * gamma_gap(p, 1, h) / (p.gamma * iterate(p, h).gamma_n)
               if h > 1 and p.kappa > 0.0 else 0.0)
        log_own = math.log1p(math.exp(log_cq) * gap)
        return _weights(lambda k: log_add(own.item(k) + log_own, log_cq + t_table[k]), widths)
    return top


def _conditioned(p: OffspringParams, n: int, a: int, h: int) -> _Law:
    if not 1 <= h <= n:
        raise ValidationError("need 1 <= h <= n")
    return _Law("conditioned", lambda k: size_conditioning_ratio(p, n, h, k, a),
                {"n": str(n), "a": str(a)}, _hidden_siblings(
                    p, h, lambda ks: _sibling_sum_conditioned(p, n, a, h, ks)))


def _kesten(p: OffspringParams, h: int) -> _Law:
    return _Law("kesten", lambda k: _log_kesten_weight(p, h, k), top=_hidden_siblings(
        p, h, lambda ks: _sibling_sum_kesten(p, h, ks)))


def _poisson(p: OffspringParams, h: int, theta: float) -> _Law:
    return _Law("poisson", lambda k: log_poisson_weight(p, h, k, theta),
                {"theta": repr(float(theta))}, _hidden_siblings(
                    p, h, lambda ks: _sibling_sum_poisson(p, h, theta, ks)))


def _tabulate(p: OffspringParams, h: int, degree_cap: int, k0: int | None, kind: str,
              law: _Law) -> TruncatedLaw:
    """The law over the shape table of (p, h, degree_cap, k0), complete
    with its meta and residual: a family with k0 None, else an (h, k0)
    view. Each row's log-prob is its ball mass plus its width weight,
    one float add as in a row-by-row loop, and rows of zero mass are left
    out. The rows of root degree k0 take law.top, the rest law.weight."""
    skel = _skeleton(p, h, degree_cap, k0)
    # every own weight before the series, so a weight's own check
    # (Kesten: eta < 1) is the error a caller sees
    own = _weights(law.weight, skel.widths)
    log_weight = own[skel.width]
    # past the cap no ball has root degree k0, and none needs the series
    if k0 in skel.rows:
        top = skel.width[skel.rows[k0]]
        log_weight[skel.rows[k0]] = law.top(own, np.unique(top).tolist())[top]
    log_probs = skel.lgw + log_weight
    # the unmasked columns go before the mass check, so that they do not
    # add to the peak of a build
    del own, log_weight
    keep = log_probs != LOG_ZERO
    out = TruncatedLaw((skel, keep), log_probs[keep])
    del log_probs
    params = law.params if k0 is None else {"k0": str(k0), **law.params}
    out.meta = {"eta": repr(p.eta), "q": repr(p.q), "law": kind, "h": str(h),
                "degree_cap": str(degree_cap), **params}
    out.log_residual = log_sub(0.0, law_normalize_check(out))
    return out


def _check_view(h: int, k0: int) -> None:
    """The range check of every (h, k0)-ball law."""
    if h < 1 or k0 < 1:
        raise ValidationError("need h >= 1 and k0 >= 1")


def _family(p: OffspringParams, h: int, degree_cap: int, law: _Law) -> TruncatedLaw:
    """The law tabulated over every ball shape with height <= h and
    degrees <= degree_cap."""
    if h < 0:
        raise ValidationError("radius must be >= 0")
    return _tabulate(p, h, degree_cap, None, law.kind, law)


def gw_family(p: OffspringParams, h: int, degree_cap: int) -> TruncatedLaw:
    """Radius-h ball law of the plain branching tree, tabulated over every
    ball shape with height <= h and degrees <= degree_cap."""
    return _family(p, h, degree_cap, _Law("gw", lambda k: 0.0))


def conditioned_family(
    p: OffspringParams, n: int, a: int, h: int, degree_cap: int
) -> TruncatedLaw:
    """Radius-h ball law of the tree conditioned on generation-n size a,
    tabulated over every ball shape with degrees <= degree_cap."""
    return _family(p, h, degree_cap, _conditioned(p, n, a, h))


def kesten_family(p: OffspringParams, h: int, degree_cap: int) -> TruncatedLaw:
    """Radius-h ball law of the size-biased eternal tree, tabulated."""
    return _family(p, h, degree_cap, _kesten(p, h))


def poisson_family(
    p: OffspringParams, h: int, theta: float, degree_cap: int
) -> TruncatedLaw:
    """Radius-h ball law of the theta-member of the skinny limit family."""
    return _family(p, h, degree_cap, _poisson(p, h, theta))


def condensation_family(
    p: OffspringParams, h: int, k0: int, degree_cap: int
) -> TruncatedLaw:
    """(h, k0)-ball law of the fat limit tree, tabulated. The support is
    every ball with root degree exactly k0 and height <= h, dying
    truncations included: the root-degree-k0 rows of the view's table, the
    one its restricted views read. Past the cap that table has no such
    row, and the law keeps none. The view always shows k0 root subtrees,
    so every smaller root degree weighs zero."""
    _check_view(h, k0)
    return _tabulate(p, h, degree_cap, k0, "condensation", _Law(
        "condensation", lambda k: LOG_ZERO,
        top=lambda own, ks: _weights(lambda k: _log_condensation_weight(p, h, k), ks)))


def _restricted_family(
    p: OffspringParams, h: int, k0: int, degree_cap: int, law: _Law
) -> TruncatedLaw:
    """The (h, k0)-ball law of a weighted tree. Balls with root degree
    j < k0 keep all root subtrees, so they take the law's own weight (and
    only full-height balls carry mass); balls with root degree exactly k0
    may hide further root subtrees, and take its top weight F."""
    _check_view(h, k0)
    return _tabulate(p, h, degree_cap, k0, law.kind + "-restricted", law)


def kesten_restricted_family(
    p: OffspringParams, h: int, k0: int, degree_cap: int
) -> TruncatedLaw:
    """(h, k0)-ball law of the size-biased eternal tree."""
    return _restricted_family(p, h, k0, degree_cap, _kesten(p, h))


def poisson_restricted_family(
    p: OffspringParams, h: int, k0: int, theta: float, degree_cap: int
) -> TruncatedLaw:
    """(h, k0)-ball law of the theta-member of the skinny limit family."""
    _check_theta(theta)
    if p.eta >= 1.0:
        raise ValidationError(
            "the restricted view of the skinny family needs eta < 1 "
            f"(hidden root subtrees must be able to die out), got eta={p.eta!r}"
        )
    return _restricted_family(p, h, k0, degree_cap, _poisson(p, h, theta))


def conditioned_restricted_family(
    p: OffspringParams, n: int, a: int, h: int, k0: int, degree_cap: int
) -> TruncatedLaw:
    """(h, k0)-ball law of the tree conditioned on generation-n size a."""
    return _restricted_family(p, h, k0, degree_cap, _conditioned(p, n, a, h))
