"""The geometric offspring family and everything derived from it.

The family has two parameters: eta in (0, 1] is the chance of having any
children at all, and given at least one child the count is geometric with
success parameter q in (0, 1):

    p(0) = 1 - eta,    p(k) = eta * q * (1 - q)^(k-1)   for k >= 1.

Its generating function is a Mobius transform, which is the engine behind
the whole package: composing Mobius transforms stays in the family, so the
n-th generation size of the branching process is again a two-parameter
geometric law, and every conditioning ratio comes out in closed form.

Two derived poles describe a law more conveniently than (eta, q):

    gamma = 1 / (1 - q)            the radius of convergence of the gf,
    kappa = (1 - eta) / (1 - q)    its fixed point other than 1.

The mean is mu = eta / q; mu < 1 forces gamma > kappa > 1, mu > 1 forces
gamma > 1 > kappa >= 0, and at criticality kappa = 1.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError
from .logspace import LOG_ZERO


@dataclass(frozen=True)
class OffspringParams:
    """Validated (eta, q) pair with the derived quantities as properties."""

    eta: float
    q: float

    def __post_init__(self):
        if not (isinstance(self.eta, (int, float)) and isinstance(self.q, (int, float))):
            raise ValidationError("eta and q must be numbers")
        object.__setattr__(self, "eta", float(self.eta))
        object.__setattr__(self, "q", float(self.q))
        if not 0.0 < self.eta <= 1.0:
            raise ValidationError(f"eta must be in (0, 1], got {self.eta!r}")
        if not 0.0 < self.q < 1.0:
            raise ValidationError(f"q must be in (0, 1), got {self.q!r}")

    @property
    def mean(self) -> float:
        return self.eta / self.q

    @property
    def gamma(self) -> float:
        return 1.0 / (1.0 - self.q)

    @property
    def kappa(self) -> float:
        return (1.0 - self.eta) / (1.0 - self.q)

    def regime(self) -> str:
        """'subcritical' | 'critical' | 'supercritical'.

        Criticality is mu == 1, i.e. exactly eta == q; float equality is
        the intended contract (callers wanting the critical branch must
        pass literally equal parameters).
        """
        if self.eta == self.q:
            return "critical"
        return "subcritical" if self.eta < self.q else "supercritical"

    @classmethod
    def from_poles(cls, kappa: float, gamma: float) -> "OffspringParams":
        """Rebuild (eta, q) from the pole pair: eta = 1 - kappa/gamma,
        q = 1 - 1/gamma."""
        if not gamma > 1.0:
            raise ValidationError(f"gamma must exceed 1, got {gamma!r}")
        if not 0.0 <= kappa < gamma:
            raise ValidationError(f"kappa must lie in [0, gamma), got {kappa!r}")
        return cls(eta=1.0 - kappa / gamma, q=1.0 - 1.0 / gamma)

    def log_pmf(self, k: int) -> float:
        """log p(k)."""
        if k < 0:
            return LOG_ZERO
        if k == 0:
            return math.log1p(-self.eta) if self.eta < 1.0 else LOG_ZERO
        return (
            math.log(self.eta)
            + math.log(self.q)
            + (k - 1) * math.log1p(-self.q)
        )

    def gf(self, s: float) -> float:
        """Generating function E[s^K] = ((1-eta) - s(1-q-eta)) / (1 - s(1-q)),
        valid for 0 <= s < gamma."""
        if not 0.0 <= s < self.gamma:
            raise ValidationError(f"gf argument must be in [0, gamma), got {s!r}")
        return ((1.0 - self.eta) - s * (1.0 - self.q - self.eta)) / (1.0 - s * (1.0 - self.q))

    def gf_inverse(self, y: float) -> float:
        """Functional inverse of gf, used only as a test oracle for the
        closed-form pole recursion (the iteration loses precision near the
        fixed point, the closed form does not)."""
        den = y * (1.0 - self.q) - (1.0 - self.q - self.eta)
        return (y - (1.0 - self.eta)) / den


@dataclass(frozen=True)
class IteratedLaw:
    """Law of the n-th generation size started from one ancestor.

    Again a two-parameter geometric law, pinned by its own pole gamma_n.
    The differences gamma_n - 1 and gamma_n - kappa enter through their
    cancellation-free closed forms: for subcritical parameters gamma_n
    approaches kappa at rate mu^n, and computing the difference by
    subtraction would throw away every significant digit that the deep
    conditioning ratios rely on.

    n = 0 is the degenerate point mass at 1, represented by the customary
    convention gamma_0 = +inf.
    """

    gamma_n: float
    log_gamma: float
    # log(gamma_n - kappa) + log(gamma_n - 1), the log of the pole
    # differences' product that every generation-size mass carries; it stays
    # finite at deep generations, where the smaller difference underflows
    log_gap_product: float


def _log_small_gap(gap: float, n_log_mu: float, c: float, mun: float) -> float:
    """log of the gap c * mu^n / (1 - mu^n), with mu^n = mun.

    Below the normal range the float gap has lost digits or underflowed to
    zero, so its log is taken from the closed form instead.
    """
    if gap >= sys.float_info.min:
        return math.log(gap)
    return n_log_mu + math.log(c) - math.log1p(-mun)


# The ball laws ask for the same few (p, n) pairs at every node of every
# enumerated shape. Both key and result are frozen, so a cached result is
# safe to share; typed=True keeps an int n apart from a numpy integer n, so
# each caller gets exactly the floats an uncached call would give.
@lru_cache(maxsize=1024, typed=True)
def iterate(p: OffspringParams, n: int) -> IteratedLaw:
    """Pole of the n-fold composed generating function, in closed form.

    mu != 1:  gamma_n = (kappa - mu^n) / (1 - mu^n), evaluated through
              mu^{-n} on the supercritical side so nothing overflows;
    mu == 1:  gamma_n = 1 + (gamma - 1) / n.

    The sequence decreases strictly from gamma_1 = gamma to max(1, kappa).
    """
    if n < 0:
        raise ValidationError(f"generation index must be >= 0, got {n}")
    if n == 0:
        return IteratedLaw(gamma_n=math.inf, log_gamma=math.inf, log_gap_product=math.inf)
    mu = p.mean
    kappa = p.kappa
    if n == 1:
        # gamma_1 is the base pole itself; route around the closed form so
        # the first iterate is exact rather than correct to the last bit
        gm1 = p.q / (1.0 - p.q)
        gmk = p.eta / (1.0 - p.q)
        return IteratedLaw(
            gamma_n=p.gamma, log_gamma=-math.log1p(-p.q),
            log_gap_product=math.log(gmk) + math.log(gm1),
        )
    if p.eta == p.q:
        gm1 = (p.gamma - 1.0) / n
        gmk = gm1  # kappa == 1
        log_gap = math.log(gmk) + math.log(gm1)
    elif mu < 1.0:
        mun = mu ** n
        gm1 = (kappa - 1.0) / (1.0 - mun)
        gmk = mun * (kappa - 1.0) / (1.0 - mun)
        log_gap = (
            _log_small_gap(gmk, n * math.log(mu), kappa - 1.0, mun)
            + math.log(gm1)
        )
    else:
        mun_inv = mu ** (-n)
        gm1 = (1.0 - kappa) * mun_inv / (1.0 - mun_inv)
        gmk = (1.0 - kappa) / (1.0 - mun_inv)
        log_gap = math.log(gmk) + _log_small_gap(
            gm1, -n * math.log(mu), 1.0 - kappa, mun_inv
        )
    return IteratedLaw(
        gamma_n=1.0 + gm1, log_gamma=math.log1p(gm1), log_gap_product=log_gap,
    )


@dataclass(frozen=True)
class ExtinctionParams:
    """The tree conditioned on dying out, and the bookkeeping constants.

    law:             offspring law of the conditioned tree; equal to the
                     original below criticality, and to the (q, eta) swap
                     above it.
    mean:            its mean, min(mu, 1/mu).
    extinction_prob: extinction probability of the original tree,
                     min(1, kappa).

    Needs eta < 1: at eta = 1 the tree never dies out.
    """

    law: OffspringParams
    mean: float
    extinction_prob: float


def extinction_params(p: OffspringParams) -> ExtinctionParams:
    if p.eta >= 1.0:
        raise ValidationError(f"extinction needs eta < 1, got eta={p.eta!r}")
    if p.mean <= 1.0:
        return ExtinctionParams(law=p, mean=p.mean, extinction_prob=1.0)
    return ExtinctionParams(
        law=OffspringParams(eta=p.q, q=p.eta),
        mean=p.q / p.eta,
        extinction_prob=p.kappa,
    )


def immigration_rate(p: OffspringParams, h: int) -> float:
    """Per-level immigration intensity of the skinny-limit skeleton.

    The number of new spine lines appearing between levels h and h + 1 is
    Poisson with mean theta times this value:

        mu < 1:  mu^(-h-1) (1 - mu)(kappa - 1) / kappa
        mu = 1:  gamma - 1
        mu > 1:  mu^h (mu - 1)(1 - kappa)
    """
    if h < 0:
        raise ValidationError(f"level must be >= 0, got {h}")
    mu = p.mean
    kappa = p.kappa
    if p.eta == p.q:
        return p.gamma - 1.0
    if mu < 1.0:
        return mu ** (-h - 1) * (1.0 - mu) * (kappa - 1.0) / kappa
    return mu ** h * (mu - 1.0) * (1.0 - kappa)


def survivor_offspring_param(p: OffspringParams, n: int) -> float:
    """Success parameter of the geometric-on-{1,2,...} law of the number
    of surviving children of a depth-n survivor in the two-type fat tree.

        mu <= 1:  mu (1 - mu^n) / (1 - mu^(n+1)), critical limit n / (n+1)
        mu > 1:   (1 - mu^n) / (1 - mu^(n+1))

    One closed form behind both: (1 - gamma_{n+1} (1-q)) / qhat, where
    qhat = max(eta, q) is the success parameter of the mirrored law; the
    numerator is q mu (1 - mu^n) / (1 - mu^(n+1)) in every regime, and
    qhat swallows the extra mu exactly when the law is supercritical.
    Evaluated through mu^{-n} on that side so nothing overflows. The value
    at n = 0 is 0 (the root's survivor count is handled separately and
    never draws from this law).
    """
    if n < 0:
        raise ValidationError(f"level must be >= 0, got {n}")
    if n == 0:
        return 0.0
    mu = p.mean
    if p.eta == p.q:
        return n / (n + 1.0)
    if mu < 1.0:
        return mu * (1.0 - mu ** n) / (1.0 - mu ** (n + 1))
    mun1 = mu ** (-n - 1)
    return (mun1 - 1.0 / mu) / (mun1 - 1.0)


def cumulative_immigration(p: OffspringParams, h: int) -> float:
    """Sum of immigration_rate over levels 0 .. h-1, in closed form.

        mu < 1:  (mu^-h - 1)(kappa - 1) / kappa
        mu = 1:  h (gamma - 1)
        mu > 1:  (mu^h - 1)(1 - kappa)
    """
    if h < 0:
        raise ValidationError(f"level must be >= 0, got {h}")
    mu = p.mean
    kappa = p.kappa
    if p.eta == p.q:
        return h * (p.gamma - 1.0)
    if mu < 1.0:
        return (mu ** (-h) - 1.0) * (kappa - 1.0) / kappa
    return (mu**h - 1.0) * (1.0 - kappa)


def log_gamma_ratio(p: OffspringParams, n: int, m: int) -> float:
    """log(gamma_n / gamma_m) for n, m >= 1, without cancellation.

    Subtracting two log-poles loses all precision once both sit within a
    few ulp of the common limit; written through log1p of the exact
    closed-form pieces the result keeps full relative accuracy even when
    it is later multiplied by generation sizes of order mu^-n.
    """
    if n < 1 or m < 1:
        raise ValidationError("pole indices must be >= 1")
    if n == m:
        return 0.0
    mu = p.mean
    kappa = p.kappa
    if p.eta == p.q:
        g1 = p.gamma - 1.0
        # gamma_i = (i + g1) / i; one log1p of the exact cross difference
        return math.log1p(g1 * (m - n) / ((m + g1) * n))
    if mu < 1.0:
        return (
            math.log1p(-(mu**n) / kappa)
            - math.log1p(-(mu**m) / kappa)
            + math.log1p(-(mu**m))
            - math.log1p(-(mu**n))
        )
    xn = mu ** (-n)
    xm = mu ** (-m)
    return (
        math.log1p(-kappa * xn)
        - math.log1p(-xn)
        - math.log1p(-kappa * xm)
        + math.log1p(-xm)
    )


def gamma_gap(p: OffspringParams, m: int, n: int) -> float:
    """gamma_m - gamma_n for 1 <= m <= n (non-negative, cancellation-free)."""
    if not 1 <= m <= n:
        raise ValidationError("need 1 <= m <= n")
    if m == n:
        return 0.0
    mu = p.mean
    kappa = p.kappa
    if p.eta == p.q:
        return (p.gamma - 1.0) * (n - m) / (n * m)
    if mu < 1.0:
        return (kappa - 1.0) * (mu**m - mu**n) / ((1.0 - mu**m) * (1.0 - mu**n))
    xm = mu ** (-m)
    xn = mu ** (-n)
    return (1.0 - kappa) * (xm - xn) / ((1.0 - xm) * (1.0 - xn))


def log_condensation_offspring(p: OffspringParams, n: int, k: int) -> float:
    """log of the depth-n offspring pmf of the fat limit tree:
    gamma_{n+1}^k p(k) / gamma_n. Normalization is exactly the pole
    recursion gf(gamma_{n+1}) = gamma_n."""
    if n < 1:
        raise ValidationError(f"depth must be >= 1, got {n}")
    if k < 0:
        return LOG_ZERO
    lg_next = iterate(p, n + 1).log_gamma
    lg_here = iterate(p, n).log_gamma
    return k * lg_next + p.log_pmf(k) - lg_here


def condensation_offspring_params(p: OffspringParams, n: int) -> OffspringParams:
    """The depth-n offspring law of the fat limit tree as an
    OffspringParams (it stays inside the geometric family:
    q_n = 1 - gamma_{n+1} (1 - q), eta_n = 1 - (1 - eta)/gamma_n)."""
    if n < 1:
        raise ValidationError(f"depth must be >= 1, got {n}")
    g_next = iterate(p, n + 1).gamma_n
    g_here = iterate(p, n).gamma_n
    return OffspringParams(
        eta=1.0 - (1.0 - p.eta) / g_here,
        q=1.0 - g_next * (1.0 - p.q),
    )
