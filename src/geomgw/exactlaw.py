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
(p, h, k); its per-tree law adds it to gw_tree_log_prob and its tables
go through the one tabulator, _tabulate.

For root-degree-truncated balls the laws of the conditioned and skinny
trees need an infinite series over the unobserved sibling subtrees; it
is summed with explicit tail certificates and fails loudly (instead of
returning a best effort) when the requested accuracy is not reached.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import CertificationError, TruncationError, ValidationError
from .logspace import (
    LOG_ZERO,
    log_add,
    log_binomial,
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
from .treekit import OrderedTree, enumerate_trees, shape_products

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
    if n < 0 or a < 0:
        raise ValidationError("generation index and size must be >= 0")
    if n == 0:
        return 0.0 if a == 1 else LOG_ZERO
    it = iterate(p, n)
    if a == 0:
        if p.kappa == 0.0:
            return LOG_ZERO
        return math.log(p.kappa) - it.log_gamma
    return it.log_gap_product - (a + 1) * it.log_gamma


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
    over the number i of the k root trees still alive, 1 <= i <= min(k, a)."""
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
    if ratio == LOG_ZERO:
        # avoid the ball-shape walk when the width already kills the mass
        if not t.is_ball(h):
            raise ValidationError("tree is not its own radius-h ball")
        return LOG_ZERO
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


def log_poisson_weight(p: OffspringParams, h: int, k: int, theta: float) -> float:
    """log of the skinny-family weight at radius h and bottom width k.

    Multiplying the plain ball law by this weight gives the radius-h law
    of the theta-member of the limit family. At theta = 0 it equals the
    eternal-tree weight exactly; as theta grows the mass drifts toward
    wide balls. Valid for every theta >= 0; width 0 carries no mass.
    Only the death probability and the dual mean enter, as plain numbers,
    so eta = 1 works here even though the dual law itself degenerates.
    """
    if h < 0:
        raise ValidationError(f"radius must be >= 0, got {h}")
    if theta < 0.0:
        raise ValidationError(f"theta must be >= 0, got {theta}")
    if k < 0:
        raise ValidationError(f"ball width must be >= 0, got {k}")
    if k == 0:
        return LOG_ZERO
    mu = p.mean
    c = min(p.kappa, 1.0)
    dual_mean = min(mu, 1.0 / mu)
    lam = theta * _mixing_base(p, h)
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


def condensation_tree_law(
    p: OffspringParams, k0: int, t: OrderedTree, h: int
) -> float:
    """log P(the (h, k0)-ball of the fat limit tree equals t).

    The fat tree's root has infinitely many children, so the observable
    is the radius-h ball keeping only the first k0 root subtrees; t must
    have root degree exactly k0.
    """
    if k0 < 1:
        raise ValidationError("the root keeps at least one subtree")
    if t.root_degree != k0:
        raise ValidationError(
            f"ball of the fat tree has root degree {k0}, got {t.root_degree}"
        )
    if h < 1:
        raise ValidationError("radius must be >= 1 for the fat limit")
    return gw_tree_log_prob(p, t, h) + _log_condensation_weight(p, h, t.z(h))


def condensation_tree_law_product(
    p: OffspringParams, k0: int, t: OrderedTree, h: int
) -> float:
    """Same law as condensation_tree_law by an unrelated route: product of
    the depth-tilted offspring masses over non-root nodes. The two are
    kept as separate code paths and the tests hold them together."""
    if k0 < 1:
        raise ValidationError("the root keeps at least one subtree")
    if t.root_degree != k0:
        raise ValidationError(
            f"ball of the fat tree has root degree {k0}, got {t.root_degree}"
        )
    if h < 1:
        raise ValidationError("radius must be >= 1 for the fat limit")
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


def _graft_table(
    log_y: float,
    weight_log,
    log_c0: float,
    log_lam_hat: float,
    k_values: list[int],
) -> dict[int, float]:
    """Certified evaluation of U_k = sum_i w_i sum_{K >= max(k+1, i)} C(K,i) y^K.

    weight_log(i) returns log w_i. The caller supplies the certificate
    w_i * y^i / (1-y)^(i+1) <= C0 * lam_hat^(i-1) / (i-1)!  so the i-tail
    is bounded by a Poisson tail; the K-tail of each inner series is
    geometric once K is past i / (1-y). The truncation error is pushed
    below SERIES_RTOL * min_k U_k or a TruncationError is raised.
    """
    y = math.exp(log_y)
    kmax = max(k_values)
    lam_hat = math.exp(log_lam_hat) if log_lam_hat != LOG_ZERO else 0.0
    i_cut = int(math.ceil(lam_hat + 10.0 * math.sqrt(lam_hat + 1.0))) + 32
    ks = np.asarray(k_values, dtype=np.int64)
    for attempt in range(7):
        k_cut = max(kmax + 2, int(math.ceil(1.5 * i_cut / (1.0 - y))) + 16)
        # at most six passes; the term caps refuse a pass before its arrays
        # are sized, and the error names the cuts of the refused pass
        if attempt == 6 or i_cut > 200_000 or k_cut > 1_000_000:
            break
        log_u = np.full(len(k_values), LOG_ZERO)
        log_err = log_c0 + log_poisson_tail(log_lam_hat, i_cut)
        # one term table per pass: log K! and K log y for K = 0 .. k_cut + 1
        kk = np.arange(k_cut + 2, dtype=np.float64)
        log_fact = gammaln(kk + 1.0)
        k_log_y = kk * log_y
        for i in range(1, i_cut + 1):
            lw = weight_log(i)
            if lw == LOG_ZERO:
                continue
            # log C(K, i) y^K for K = i .. k_cut + 1; the last is the first
            # term of the truncated K-tail
            lt = log_fact[i:] - log_fact[i] - log_fact[: k_cut + 2 - i] + k_log_y[i:]
            suffix = np.logaddexp.accumulate(lt[-2::-1])[::-1]
            idx = np.maximum(ks + 1, i) - i
            log_u = np.logaddexp(log_u, lw + suffix[idx])
            # geometric bound on the truncated K-tail of this i
            r = y * (k_cut + 2.0) / (k_cut + 2.0 - i)
            if r >= 1.0:
                log_err = math.inf
                break
            log_err = log_add(log_err, lw + float(lt[-1]) - math.log1p(-r))
        floor = float(np.min(log_u))
        if log_err == LOG_ZERO or (
            floor != LOG_ZERO and log_err <= math.log(SERIES_RTOL) + floor
        ):
            return {k: float(v) for k, v in zip(k_values, log_u)}
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
    log_y = math.log(c) - log_gh
    y = math.exp(log_y)
    log_lam = math.log(lam) if lam > 0.0 else LOG_ZERO
    log_c = math.log(c)

    def weight_log(i: int) -> float:
        if lam == 0.0 and i > 1:
            return LOG_ZERO
        t = -i * log_c - gammaln(i)
        if i > 1:
            t += (i - 1) * log_lam
        return t

    log_c0 = -log_gh - 2.0 * math.log1p(-y)
    log_lam_hat = (log_lam - log_gh - math.log1p(-y)) if lam > 0.0 else LOG_ZERO
    table = _graft_table(log_y, weight_log, log_c0, log_lam_hat, k_values)
    return {k: log_head + log_a + k * log_gh + u for k, u in table.items()}


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
    kappa = p.kappa
    log_beta = it_m.log_gap_product
    log_b = a * log_gamma_ratio(p, n, m)
    log_head = log_b + it_n.log_gamma - it_n.log_gap_product + log_a_factor
    if kappa == 0.0:
        # only the all-alive term of the weight survives; the hidden-sibling
        # sum is finite (binomial cut at a) with a decreasing term ratio
        out = {}
        log_x = log_beta - it_m.log_gamma - log_gh
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
    log_y = math.log(kappa) - it_m.log_gamma - log_gh
    y = math.exp(log_y)
    log_w_base = log_beta - math.log(kappa)

    def weight_log(i: int) -> float:
        lb = log_binomial(a - 1, i - 1)
        if lb == LOG_ZERO:
            return LOG_ZERO
        return lb + i * log_w_base

    log_c0 = log_beta - it_m.log_gamma - log_gh - 2.0 * math.log1p(-y)
    if a > 1:
        log_lam_hat = (
            math.log(a - 1.0)
            + log_beta
            - it_m.log_gamma
            - log_gh
            - math.log1p(-y)
        )
    else:
        log_lam_hat = LOG_ZERO
    table = _graft_table(log_y, weight_log, log_c0, log_lam_hat, k_values)
    return {k: log_head + k * log_gh + u for k, u in table.items()}


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


@dataclass
class TruncatedLaw:
    """A law tabulated over an enumerated set of tree codes.

    entries maps the text code of each tree to its log probability;
    log_residual bounds (in log space) the mass the table does not see,
    i.e. 1 minus the tabulated total. meta records how the table was
    built, and rides along in the CSV header comment.
    """

    entries: dict[str, float]
    log_residual: float
    meta: dict[str, str] = field(default_factory=dict)

    def log_total(self) -> float:
        return log_sum(self.entries.values())

    def write_csv(self, out) -> None:
        """Write the law to a text stream: one metadata comment line, a
        header, then code/log-prob rows in sorted code order."""
        keys = sorted(self.meta)
        parts = [f"{k}={self.meta[k]}" for k in keys]
        parts.append(f"log_residual={self.log_residual!r}")
        out.write("# " + " ".join(parts) + "\n")
        out.write("tree_code,log_prob\n")
        for code in sorted(self.entries):
            out.write(f'"{code}",{self.entries[code]!r}\n')

    @classmethod
    def read_csv(cls, fh) -> "TruncatedLaw":
        head = fh.readline()
        if not head.startswith("# "):
            raise ValidationError("law csv: missing metadata line")
        meta = {}
        for piece in head[2:].split():
            key, _, val = piece.partition("=")
            meta[key] = val
        log_residual = float(meta.pop("log_residual", "-inf"))
        header = fh.readline().strip()
        if header != "tree_code,log_prob":
            raise ValidationError(f"law csv: unexpected header {header!r}")
        entries = {}
        for row in csv.reader(fh):
            if not row:
                continue
            entries[row[0]] = float(row[1])
        return cls(entries=entries, log_residual=log_residual, meta=meta)


def law_normalize_check(law: TruncatedLaw) -> float:
    """Log of the total tabulated mass; raises if the mass exceeds 1 beyond
    rounding slack."""
    log_total = law.log_total()
    total = math.exp(log_total)
    if total > 1.0 + MASS_TOLERANCE:
        raise CertificationError(
            f"tabulated mass {total!r} exceeds 1 (law {law.meta.get('law', '?')})"
        )
    return log_total


# A single entry can hold millions of rows, and a rebuild is cheap next to
# the laws built from it; the bundled sweeps and the benchmark workloads
# use at most four distinct tables.
@lru_cache(maxsize=8)
def _skeleton(
    p: OffspringParams, h: int, degree_cap: int, root_degree: int | None
) -> tuple[tuple[str, float, int], ...]:
    """(code, log ball mass, bottom width) for each ball shape of height
    <= h, sorted by code. The expensive part of every family build, so
    cached; the width weights drop the shapes that do not reach depth h.

    A ball is its root over a product of entries of the height-(h-1) pool.
    Each pool entry is annotated once with its code, the log_pmf terms of
    its nodes above relative depth h-1 in preorder, and its width at that
    depth; a row folds those, so its log mass adds the same terms in the
    same order as a preorder walk over the whole ball would."""
    pool, walk = shape_products(h, degree_cap, root_degree=root_degree)
    if h == 0:
        return tuple(("0", 0.0, 1) for _ in walk)
    pmf = [p.log_pmf(d) for d in range(degree_cap + 1)]
    codes, terms, widths = [], [], []
    for degs in pool:
        t = OrderedTree(degs)
        codes.append(t.encode())
        terms.append(
            tuple(pmf[d] for d, dep in zip(degs, t.depths) if dep < h - 1)
        )
        widths.append(t.z(h - 1))
    rows = []
    for d, combo in walk:
        lgw = 0.0 + pmf[d]
        for i in combo:
            for term in terms[i]:
                lgw += term
        rows.append((
            ",".join([str(d), *map(codes.__getitem__, combo)]),
            lgw,
            sum(map(widths.__getitem__, combo)),
        ))
    rows.sort(key=lambda r: r[0])
    return tuple(rows)


def _tabulate(rows, weight) -> dict[str, float]:
    """code -> lgw + weight(k) over skeleton rows (code, lgw, k), evaluating
    the weight once per width k and leaving out shapes of zero mass."""
    weights: dict[int, float] = {}
    entries: dict[str, float] = {}
    for code, lgw, k in rows:
        if k not in weights:
            weights[k] = weight(k)
        lp = lgw + weights[k]
        if lp != LOG_ZERO:
            entries[code] = lp
    return entries


def _finalize(entries: dict[str, float], meta: dict[str, str]) -> TruncatedLaw:
    law = TruncatedLaw(entries=entries, log_residual=LOG_ZERO, meta=meta)
    law.log_residual = log_sub(0.0, law_normalize_check(law))
    return law


def _base_meta(
    p: OffspringParams, kind: str, h: int, degree_cap: int, **extra: str
) -> dict[str, str]:
    return {
        "eta": repr(p.eta),
        "q": repr(p.q),
        "law": kind,
        "h": str(h),
        "degree_cap": str(degree_cap),
        **extra,
    }


def gw_family(p: OffspringParams, h: int, degree_cap: int) -> TruncatedLaw:
    """Radius-h ball law of the plain branching tree, tabulated over every
    ball shape with height <= h and degrees <= degree_cap."""
    if h < 0:
        raise ValidationError("radius must be >= 0")
    entries = _tabulate(_skeleton(p, h, degree_cap, None), lambda k: 0.0)
    return _finalize(entries, _base_meta(p, "gw", h, degree_cap))


def conditioned_family(
    p: OffspringParams, n: int, a: int, h: int, degree_cap: int
) -> TruncatedLaw:
    """Radius-h ball law of the tree conditioned on generation-n size a,
    tabulated over every ball shape with degrees <= degree_cap."""
    if not 1 <= h <= n:
        raise ValidationError("need 1 <= h <= n")
    entries = _tabulate(
        _skeleton(p, h, degree_cap, None),
        lambda k: size_conditioning_ratio(p, n, h, k, a),
    )
    meta = _base_meta(p, "conditioned", h, degree_cap, n=str(n), a=str(a))
    return _finalize(entries, meta)


def kesten_family(p: OffspringParams, h: int, degree_cap: int) -> TruncatedLaw:
    """Radius-h ball law of the size-biased eternal tree, tabulated."""
    if h < 1:
        raise ValidationError("radius must be >= 1")
    entries = _tabulate(
        _skeleton(p, h, degree_cap, None),
        lambda k: _log_kesten_weight(p, h, k),
    )
    return _finalize(entries, _base_meta(p, "kesten", h, degree_cap))


def poisson_family(
    p: OffspringParams, h: int, theta: float, degree_cap: int
) -> TruncatedLaw:
    """Radius-h ball law of the theta-member of the skinny limit family."""
    if h < 1:
        raise ValidationError("radius must be >= 1")
    entries = _tabulate(
        _skeleton(p, h, degree_cap, None),
        lambda k: log_poisson_weight(p, h, k, theta),
    )
    meta = _base_meta(p, "poisson", h, degree_cap, theta=repr(float(theta)))
    return _finalize(entries, meta)


def condensation_family(
    p: OffspringParams, h: int, k0: int, degree_cap: int
) -> TruncatedLaw:
    """(h, k0)-ball law of the fat limit tree, tabulated. The support is
    every ball with root degree exactly k0 and height <= h, dying
    truncations included."""
    if h < 1 or k0 < 1:
        raise ValidationError("need h >= 1 and k0 >= 1")
    entries = _tabulate(
        _skeleton(p, h, degree_cap, k0),
        lambda k: _log_condensation_weight(p, h, k),
    )
    meta = _base_meta(p, "condensation", h, degree_cap, k0=str(k0))
    return _finalize(entries, meta)


def _restricted_family(
    p: OffspringParams,
    h: int,
    k0: int,
    degree_cap: int,
    weight,
    sibling_sum,
    meta: dict[str, str],
) -> TruncatedLaw:
    """Shared scaffolding for (h, k0)-ball laws of the weighted trees.

    Balls with root degree j < k0 keep all root subtrees, so their law is
    the plain weighted one (and only full-height balls carry mass). Balls
    with root degree exactly k0 may hide further root subtrees; their
    weight picks up the certified sibling sum:

        F(k) = W(k) (1 + c g) + c T(k),   c = (1-q)/(eta q),

    with g >= 0 the gap P(ball of one subtree dies by h) - P(no subtree),
    and T(k) the weighted hidden-sibling series.
    """
    if h < 1 or k0 < 1:
        raise ValidationError("need h >= 1 and k0 >= 1")
    entries: dict[str, float] = {}
    for j in range(1, k0):
        entries.update(_tabulate(_skeleton(p, h, degree_cap, j), weight))
    skel = _skeleton(p, h, degree_cap, k0)
    # weights before the series, so a weight's own check (Kesten: eta < 1)
    # is the error a caller sees
    own = {k: weight(k) for k in sorted({k for _, _, k in skel})}
    t_table = sibling_sum(list(own))
    log_cq = _log_fat_constant(p)
    if h > 1 and p.kappa > 0.0:
        gap = p.kappa * gamma_gap(p, 1, h) / (p.gamma * iterate(p, h).gamma_n)
    else:
        gap = 0.0
    log_own = math.log1p(math.exp(log_cq) * gap)
    entries.update(_tabulate(
        skel, lambda k: log_add(own[k] + log_own, log_cq + t_table[k])
    ))
    return _finalize(entries, meta)


def kesten_restricted_family(
    p: OffspringParams, h: int, k0: int, degree_cap: int
) -> TruncatedLaw:
    """(h, k0)-ball law of the size-biased eternal tree."""
    return _restricted_family(
        p, h, k0, degree_cap,
        lambda k: _log_kesten_weight(p, h, k),
        lambda ks: _sibling_sum_kesten(p, h, ks),
        _base_meta(p, "kesten-restricted", h, degree_cap, k0=str(k0)),
    )


def poisson_restricted_family(
    p: OffspringParams, h: int, k0: int, theta: float, degree_cap: int
) -> TruncatedLaw:
    """(h, k0)-ball law of the theta-member of the skinny limit family."""
    if theta < 0.0:
        raise ValidationError(f"theta must be >= 0, got {theta}")
    if p.eta >= 1.0:
        raise ValidationError(
            "the restricted view of the skinny family needs eta < 1 "
            f"(hidden root subtrees must be able to die out), got eta={p.eta!r}"
        )
    return _restricted_family(
        p, h, k0, degree_cap,
        lambda k: log_poisson_weight(p, h, k, theta),
        lambda ks: _sibling_sum_poisson(p, h, theta, ks),
        _base_meta(
            p, "poisson-restricted", h, degree_cap,
            k0=str(k0), theta=repr(float(theta)),
        ),
    )


def conditioned_restricted_family(
    p: OffspringParams, n: int, a: int, h: int, k0: int, degree_cap: int
) -> TruncatedLaw:
    """(h, k0)-ball law of the tree conditioned on generation-n size a."""
    if not 1 <= h <= n:
        raise ValidationError("need 1 <= h <= n")
    return _restricted_family(
        p, h, k0, degree_cap,
        lambda k: size_conditioning_ratio(p, n, h, k, a),
        lambda ks: _sibling_sum_conditioned(p, n, a, h, ks),
        _base_meta(
            p, "conditioned-restricted", h, degree_cap,
            k0=str(k0), n=str(n), a=str(a),
        ),
    )
