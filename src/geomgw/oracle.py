"""Brute-force cross-checks for the closed-form machinery.

Everything here recomputes a quantity the library already knows, by a
deliberately different route: truncated power series instead of pole
algebra, composition enumeration instead of convolution identities, scalar
dynamic programs instead of per-tree weights, double loops instead of the
certified sibling-series tables. The equivalence suite at the bottom is what
the CLI `oracle` subcommand runs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .exactlaw import (
    condensation_family,
    conditioned_restricted_family,
    gw_tree_log_prob,
    kesten_family,
    kesten_restricted_family,
    log_forest_pmf,
    log_generation_pmf,
    log_poisson_weight,
    poisson_restricted_family,
)
from .offspring import (
    OffspringParams,
    condensation_offspring_params,
    extinction_params,
    iterate,
)
from .treekit import OrderedTree, count_trees, enumerate_trees


# ---------------------------------------------------------------------------
# generation sizes by truncated power series


def _series_div(num: list[float], den: list[float]) -> list[float]:
    """Coefficients of num/den as a power series, same truncation order.
    Long-division recurrence; lower coefficients come out exact, the
    truncation only drops higher orders."""
    out = [0.0] * len(num)
    d0 = den[0]
    for j in range(len(num)):
        acc = num[j]
        for i in range(j):
            acc -= out[i] * den[j - i]
        out[j] = acc / d0
    return out


def _apply_gf(p: OffspringParams, x: list[float]) -> list[float]:
    """Compose the offspring generating function with the series x."""
    eta, q = p.eta, p.q
    num = [eta * q * c for c in x]
    den = [-(1.0 - q) * c for c in x]
    den[0] += 1.0
    out = _series_div(num, den)
    out[0] += 1.0 - eta
    return out


def generation_series(p: OffspringParams, n: int, amax: int) -> list[float]:
    """P(Z_n = a) for a = 0..amax, by n-fold series composition of the
    offspring generating function starting from the identity series."""
    if n < 0 or amax < 0:
        raise ValidationError("need n >= 0 and amax >= 0")
    coeffs = [0.0] * (amax + 1)
    if amax >= 1:
        coeffs[1] = 1.0
    for _ in range(n):
        coeffs = _apply_gf(p, coeffs)
    return coeffs


def forest_series(p: OffspringParams, k: int, n: int, amax: int) -> list[float]:
    """P(sum of k iid generation-n sizes = a) for a = 0..amax, by repeated
    truncated convolution of the series route."""
    if k < 0:
        raise ValidationError(f"forest size must be >= 0, got {k}")
    base = np.array(generation_series(p, n, amax))
    out = np.zeros(amax + 1)
    out[0] = 1.0
    for _ in range(k):
        out = np.convolve(out, base)[: amax + 1]
    return out.tolist()


def iid_sum_pmf_enum(p: OffspringParams, k: int, a: int) -> float:
    """P(X_1 + ... + X_k = a) for iid offspring draws, by summing over
    every composition. Exponential in k; keep both arguments tiny."""
    if k == 0:
        return 1.0 if a == 0 else 0.0
    total = 0.0
    for first in range(a + 1):
        total += math.exp(p.log_pmf(first)) * iid_sum_pmf_enum(p, k - 1, a - first)
    return total


def pole_iterates(p: OffspringParams, n: int) -> list[float]:
    """gamma_1 .. gamma_n by inverting the generating function one step at
    a time, an independent route to the closed forms in offspring."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    out = [p.gamma]
    for _ in range(n - 1):
        out.append(p.gf_inverse(out[-1]))
    return out


# ---------------------------------------------------------------------------
# capped-mass dynamic programs


def kesten_capped_mass(p: OffspringParams, h: int, degree_cap: int) -> float:
    """Total Kesten-law mass on radius-h balls with all degrees <=
    degree_cap, via a bottom-width DP instead of per-tree enumeration."""
    if p.eta >= 1.0:
        raise ValidationError("the size-biased eternal tree needs eta < 1")
    ext = extinction_params(p)
    pmf = np.array([math.exp(p.log_pmf(d)) for d in range(degree_cap + 1)])
    dist = np.zeros(2)
    dist[1] = 1.0
    for _ in range(h):
        new = np.zeros((len(dist) - 1) * degree_cap + 1)
        power = np.ones(1)
        for z in range(len(dist)):
            if z > 0:
                power = np.convolve(power, pmf)
            if dist[z] != 0.0:
                new[: len(power)] += dist[z] * power
        dist = new
    b = np.arange(1, len(dist))
    weights = b * ext.extinction_prob ** (b - 1) / ext.mean**h
    return float(np.dot(dist[1:], weights))


def condensation_capped_mass(
    p: OffspringParams, h: int, k0: int, degree_cap: int
) -> float:
    """Mass of the fat-limit (h, k0) ball law on degrees <= degree_cap, by
    the scalar depth recursion over the tilted offspring laws."""
    if h < 1 or k0 < 1:
        raise ValidationError("need h >= 1 and k0 >= 1")
    val = 1.0
    for m in reversed(range(1, h)):
        law = condensation_offspring_params(p, m)
        val = sum(
            math.exp(law.log_pmf(d)) * val**d for d in range(degree_cap + 1)
        )
    return val**k0


# ---------------------------------------------------------------------------
# restricted-view laws by double loop


def hidden_forest_table(
    p: OffspringParams, h: int, jmax: int, bmax: int
) -> np.ndarray:
    """table[j, b] = P(a forest of j plain trees, each rooted at depth 1,
    has total width b at depth h), i.e. a j-fold generation count after
    h - 1 steps. The hidden root subtrees of a restricted view are exactly
    such a forest, so this table powers the direct double loop. Assembled
    by repeated series convolution; entries up to bmax are exact because
    convolution truncation only drops mass beyond bmax."""
    base = generation_series(p, h - 1, bmax)
    table = np.zeros((jmax + 1, bmax + 1))
    table[0, 0] = 1.0
    for j in range(1, jmax + 1):
        table[j] = np.convolve(table[j - 1], base)[: bmax + 1]
    return table


def restricted_entry_direct(
    p: OffspringParams,
    h: int,
    k0: int,
    t: OrderedTree,
    weights,
    table: np.ndarray,
) -> float:
    """P(the (h, k0)-restricted view of a limit tree equals t), summed the
    slow way.

    weights[z] is the limit law's density against the plain branching
    factor at bottom width z. A view with root degree k0 hides any number
    of extra root subtrees; the double sum runs over the hidden subtree
    count j and the hidden bottom width b, with `table` from
    hidden_forest_table and tails cut where the geometric factors vanish.
    """
    base = math.exp(gw_tree_log_prob(p, t, h))
    k = t.z(h)
    if t.root_degree < k0:
        return base * weights[k]
    jmax = table.shape[0] - 1
    bmax = table.shape[1] - 1
    if k + bmax >= len(weights):
        raise ValidationError("weight vector too short for the b range")
    shifted = np.asarray(weights[k : k + bmax + 1])
    rel = (1.0 - p.q) ** np.arange(jmax + 1)  # p(k0+j) / p(k0)
    return base * float(rel @ (table @ shifted))


def conditioned_weight_vector(
    p: OffspringParams, n: int, a: int, h: int, zmax: int
) -> list[float]:
    """Conditioning densities at bottom widths 0..zmax, through the series
    route: P(a forest of z reaches a in n-h steps) / P(Z_n = a)."""
    den = generation_series(p, n, a)[a]
    base = np.array(generation_series(p, n - h, a))
    cur = np.zeros(a + 1)
    cur[0] = 1.0
    out = []
    for _ in range(zmax + 1):
        out.append(float(cur[a]) / den)
        cur = np.convolve(cur, base)[: a + 1]
    return out


# ---------------------------------------------------------------------------
# the equivalence suite


def equivalence_suite() -> list[tuple[str, bool, str]]:
    """Run every brute-vs-closed-form comparison at desk scale.

    Returns (name, passed, detail) triples; the CLI prints them and exits
    nonzero if any failed. Runtime is a few seconds.
    """
    fixtures = [
        OffspringParams(0.5, 0.5),
        OffspringParams(0.3, 0.5),
        OffspringParams(0.6, 0.3),
    ]
    rows: list[tuple[str, bool, str]] = []

    def check(name: str, passed: bool, detail: str) -> None:
        rows.append((name, passed, detail))

    # generation pmf: series composition vs pole closed form
    worst = 0.0
    for p in fixtures:
        for n in range(1, 5):
            series = generation_series(p, n, 50)
            for a in range(51):
                closed = math.exp(log_generation_pmf(p, n, a))
                worst = max(worst, abs(series[a] - closed))
    check("generation-pmf-series", worst < 1e-12, f"max abs gap {worst:.3e}")

    # forest pmf: convolved series vs binomial closed form
    worst = 0.0
    for p in fixtures:
        for k in range(7):
            for n in range(1, 5):
                series = forest_series(p, k, n, 50)
                for a in range(51):
                    closed = math.exp(log_forest_pmf(p, k, n, a))
                    worst = max(worst, abs(series[a] - closed))
    check("forest-pmf-series", worst < 1e-12, f"max abs gap {worst:.3e}")

    # forest pmf again, by raw composition enumeration at one generation
    worst = 0.0
    for p in fixtures:
        for k in range(4):
            for a in range(7):
                brute = iid_sum_pmf_enum(p, k, a)
                closed = math.exp(log_forest_pmf(p, k, 1, a))
                worst = max(worst, abs(brute - closed))
    check("forest-pmf-enumeration", worst < 1e-12, f"max abs gap {worst:.3e}")

    # pole iterates: generating-function inversion vs closed forms
    worst = 0.0
    for p in fixtures:
        chain = pole_iterates(p, 12)
        for n, g in enumerate(chain, start=1):
            closed = iterate(p, n).gamma_n
            worst = max(worst, abs(g - closed) / closed)
    check("pole-iterates", worst < 1e-10, f"max rel gap {worst:.3e}")

    # tree counting: closed recurrence vs actual enumeration
    ok = True
    detail = ""
    for height in range(4):
        for cap in range(4):
            for root in (None, 0, 1, 2):
                got = sum(
                    1 for _ in enumerate_trees(height, cap, root_degree=root)
                )
                want = count_trees(height, cap, root_degree=root)
                if got != want:
                    ok = False
                    detail = (
                        f"h={height} cap={cap} root={root}: "
                        f"enumerated {got}, recurrence {want}"
                    )
    check("tree-counts", ok, detail or "all shapes agree")

    # capped masses: DP totals vs summed per-tree families
    worst = 0.0
    for p in fixtures:
        if p.eta < 1.0:
            for h, cap in ((1, 12), (2, 5)):
                fam = math.exp(kesten_family(p, h, cap).log_total())
                dp = kesten_capped_mass(p, h, cap)
                worst = max(worst, abs(fam - dp))
    check("kesten-capped-mass", worst < 1e-12, f"max abs gap {worst:.3e}")

    worst = 0.0
    for p in fixtures:
        for h, cap in ((1, 8), (2, 8), (3, 3)):
            for k0 in (1, 2):
                fam = math.exp(condensation_family(p, h, k0, cap).log_total())
                dp = condensation_capped_mass(p, h, k0, cap)
                worst = max(worst, abs(fam - dp))
    check("condensation-capped-mass", worst < 1e-12, f"max abs gap {worst:.3e}")

    # restricted views: certified series tables vs slow double loops
    h, k0, theta = 2, 2, 0.7
    n, a = 7, 9
    jmax = bmax = 320
    kmax = 2 * 4  # root degree k0, caps at degree_cap=4, two levels
    worst_pois = worst_kes = worst_cond = 0.0
    for p in fixtures:
        ext = extinction_params(p)
        table = hidden_forest_table(p, h, jmax, bmax)
        zs = np.arange(kmax + bmax + 1)

        law = poisson_restricted_family(p, h, k0, theta, 4)
        pois_w = [
            math.exp(log_poisson_weight(p, h, int(z), theta)) if z else 0.0
            for z in zs
        ]
        for code, logp in law.entries.items():
            t = OrderedTree.decode(code)
            direct = restricted_entry_direct(p, h, k0, t, pois_w, table)
            worst_pois = max(worst_pois, abs(math.exp(logp) - direct) / direct)

        if p.eta < 1.0:
            law = kesten_restricted_family(p, h, k0, 4)
            kes_w = (
                zs * ext.extinction_prob ** np.maximum(zs - 1, 0) / ext.mean**h
            )
            for code, logp in law.entries.items():
                t = OrderedTree.decode(code)
                direct = restricted_entry_direct(p, h, k0, t, kes_w, table)
                worst_kes = max(worst_kes, abs(math.exp(logp) - direct) / direct)

        law = conditioned_restricted_family(p, n, a, h, k0, 4)
        cond_w = conditioned_weight_vector(p, n, a, h, kmax + bmax)
        for code, logp in law.entries.items():
            t = OrderedTree.decode(code)
            direct = restricted_entry_direct(p, h, k0, t, cond_w, table)
            worst_cond = max(worst_cond, abs(math.exp(logp) - direct) / direct)
    check(
        "poisson-restricted-direct",
        worst_pois < 1e-8,
        f"max rel gap {worst_pois:.3e}",
    )
    check(
        "kesten-restricted-direct",
        worst_kes < 1e-8,
        f"max rel gap {worst_kes:.3e}",
    )
    check(
        "conditioned-restricted-direct",
        worst_cond < 1e-8,
        f"max rel gap {worst_cond:.3e}",
    )

    return rows
