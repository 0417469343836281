"""Convergence experiments on exact truncated laws.

A sweep compares the conditioned law of a radius-h ball against the matching
limit law as n walks a grid, reporting total-variation distances computed
from the tabulated entries plus a pessimistic residual bound for the mass
the degree cap hides. The theta mode sweeps the skinny family parameter
instead, measuring its approach to the Kesten law on one side and to the
condensation law on the other.

Everything here is exact arithmetic on laws; no sampling noise enters. Rows
are computed by independent worker processes and merged in grid order, so
the CSV artifacts are byte-stable for any worker count. Wall-clock timings
ride along on the row objects for logs but deliberately stay out of the
files.
"""

from __future__ import annotations

import json
import math
import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import repeat
from typing import Iterable, TextIO

from .errors import GeomGWError, ValidationError
from .exactlaw import (
    TruncatedLaw,
    condensation_family,
    conditioned_family,
    conditioned_restricted_family,
    kesten_family,
    poisson_family,
    poisson_restricted_family,
)
from .logspace import LOG_ZERO
from .offspring import OffspringParams

REGIMES = ("kesten", "poisson", "condensation")

# theta grid used when a config does not spell one out: ten decades
DEFAULT_THETA_GRID = tuple(10.0**e for e in range(-6, 4))

REGIME_CSV_COLUMNS = ("n", "a_n", "tv_exact", "tv_residual_bound", "certified")
THETA_CSV_COLUMNS = (
    "theta",
    "gap_kesten",
    "tv_kesten",
    "gap_condensation",
    "tv_condensation",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs, round-trippable through JSON."""

    eta: float
    q: float
    regime: str
    h: int
    degree_cap: int
    n_grid: tuple[int, ...]
    theta: float = 1.0
    k0: int = 1
    a_rule: str = "default"  # "default" regime rule, or "const" for a_const
    a_const: int = 1
    seed: int = 20260817
    certify_tolerance: float = 0.01
    theta_grid: tuple[float, ...] = ()

    def __post_init__(self):
        # JSON hands over any value; a bool is an int to isinstance
        ints = [(f, getattr(self, f)) for f in ("h", "degree_cap", "k0", "a_const")]
        ints += [("n_grid entry", n) for n in self.n_grid]
        reals = [(f, getattr(self, f)) for f in ("eta", "q", "theta", "certify_tolerance")]
        reals += [("theta_grid entry", t) for t in self.theta_grid]
        for kind, what, fields in ((int, "an integer", ints), ((int, float), "a number", reals)):
            for name, value in fields:
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValidationError(f"{name} must be {what}, got {value!r}")
        if self.regime not in REGIMES:
            raise ValidationError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.h < 1:
            raise ValidationError(f"h must be >= 1, got {self.h}")
        if not self.n_grid:
            raise ValidationError("n_grid must not be empty")
        if self.h > min(self.n_grid):
            raise ValidationError(
                f"h={self.h} exceeds the smallest grid point {min(self.n_grid)}"
            )
        if self.degree_cap < 1:
            raise ValidationError(f"degree_cap must be >= 1, got {self.degree_cap}")
        if self.k0 < 1:
            raise ValidationError(f"k0 must be >= 1, got {self.k0}")
        if not self.theta > 0.0:
            raise ValidationError(f"theta must be > 0, got {self.theta}")
        if self.a_rule not in ("default", "const"):
            raise ValidationError(f"a_rule must be default or const, got {self.a_rule!r}")
        if self.a_rule == "const" and self.a_const < 1:
            raise ValidationError(f"a_const must be >= 1, got {self.a_const}")

    @property
    def params(self) -> OffspringParams:
        return OffspringParams(self.eta, self.q)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValidationError("config file must hold a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise ValidationError(f"unknown config fields {sorted(extra)}")
        for key in ("n_grid", "theta_grid"):
            if key in raw:
                if not isinstance(raw[key], list):
                    raise ValidationError(
                        f"{key} must be a JSON array, got {raw[key]!r}"
                    )
                raw[key] = tuple(raw[key])
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ValidationError(f"bad config: {exc}") from None

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json(fh.read())


def generation_scale(p: OffspringParams, n: int) -> float:
    """The natural size c_n of generation n: mu^-n, n^2, or mu^n."""
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    mu = p.mean
    if p.eta == p.q:
        return float(n * n)
    try:
        return mu ** (-n) if mu < 1.0 else mu**n
    except OverflowError:
        raise ValidationError(
            f"the generation scale c_n at n={n} does not fit a double"
        ) from None


def target_generation_size(cfg: ExperimentConfig, n: int) -> int:
    """The conditioning value a_n for grid point n.

    The default rules drive a_n/c_n to 0, theta, and infinity in the
    kesten, poisson, and condensation regimes respectively; a_rule "const"
    pins a_n = a_const instead (the classic choice a_n = 1 for the Kesten
    limit).
    """
    if cfg.a_rule == "const":
        return cfg.a_const
    c = generation_scale(cfg.params, n)
    if cfg.regime == "kesten":
        a = c / n
    elif cfg.regime == "poisson":
        a = cfg.theta * c
    else:
        a = n * c
    if math.isinf(a):
        raise ValidationError(f"the target size a_n at n={n} does not fit a double")
    return max(1, round(a))


# ---------------------------------------------------------------------------
# distances


def tv_distance(l1: TruncatedLaw, l2: TruncatedLaw) -> tuple[float, float]:
    """Total variation over the tabulated codes, plus the pessimistic bound
    contributed by the two residual masses. The true TV lies within
    [tv, tv + bound]."""
    for key in ("h", "k0"):
        if l1.meta.get(key) != l2.meta.get(key):
            raise ValidationError(
                f"laws disagree on {key}: {l1.meta.get(key)} vs {l2.meta.get(key)}"
            )
    # summed left to right in sorted-code order: set order varies with hash
    # randomization across processes, and builtin sum() compensates its
    # rounding from Python 3.12 on; the sum must be byte-reproducible
    gaps = map(abs, map(operator.sub, *_aligned(l1, l2)))
    tv = 0.5 * reduce(operator.add, gaps, 0.0)
    bound = 0.5 * (math.exp(l1.log_residual) + math.exp(l2.log_residual))
    return tv, bound


def per_tree_gap(l1: TruncatedLaw, l2: TruncatedLaw) -> float:
    """Largest absolute probability difference over the tabulated codes."""
    return max(map(abs, map(operator.sub, *_aligned(l1, l2))), default=0.0)


def _aligned(l1: TruncatedLaw, l2: TruncatedLaw):
    """The two laws' probabilities over the union of their codes, in sorted
    code order. Tables come out of exactlaw sorted, so the sort only merges
    l1's codes with the few runs of l2's codes that l1 lacks."""
    e1, e2 = l1.entries, l2.entries
    codes = list(e1)
    codes.extend(c for c in e2 if c not in e1)
    codes.sort()
    return (
        map(math.exp, map(e.get, codes, repeat(LOG_ZERO))) for e in (e1, e2)
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    a_n: int
    tv_exact: float
    tv_residual_bound: float
    certified: bool
    runtime_ms: float


@dataclass(frozen=True)
class ThetaRow:
    theta: float
    gap_kesten: float
    tv_kesten: float
    gap_condensation: float
    tv_condensation: float
    runtime_ms: float


def _regime_row(task: tuple[ExperimentConfig, int]) -> ConvergenceRow:
    cfg, n = task
    start = time.perf_counter()
    p = cfg.params
    a = target_generation_size(cfg, n)
    try:
        if cfg.regime == "condensation":
            cond = conditioned_restricted_family(
                p, n, a, cfg.h, cfg.k0, cfg.degree_cap
            )
            limit = condensation_family(p, cfg.h, cfg.k0, cfg.degree_cap)
        else:
            cond = conditioned_family(p, n, a, cfg.h, cfg.degree_cap)
            if cfg.regime == "kesten":
                limit = kesten_family(p, cfg.h, cfg.degree_cap)
            else:
                limit = poisson_family(p, cfg.h, cfg.theta, cfg.degree_cap)
        tv, bound = tv_distance(cond, limit)
    except GeomGWError as exc:
        raise type(exc)(f"grid point n={n}: {exc}") from None
    ms = (time.perf_counter() - start) * 1000.0
    return ConvergenceRow(n, a, tv, bound, bound <= cfg.certify_tolerance, ms)


def _theta_row(task: tuple[ExperimentConfig, float]) -> ThetaRow:
    cfg, theta = task
    start = time.perf_counter()
    p = cfg.params
    try:
        skinny = poisson_family(p, cfg.h, theta, cfg.degree_cap)
        kesten = kesten_family(p, cfg.h, cfg.degree_cap)
        skinny_view = poisson_restricted_family(
            p, cfg.h, cfg.k0, theta, cfg.degree_cap
        )
        fat = condensation_family(p, cfg.h, cfg.k0, cfg.degree_cap)
        gap_k = per_tree_gap(skinny, kesten)
        tv_k, _ = tv_distance(skinny, kesten)
        gap_c = per_tree_gap(skinny_view, fat)
        tv_c, _ = tv_distance(skinny_view, fat)
    except GeomGWError as exc:
        raise type(exc)(f"grid point theta={theta!r}: {exc}") from None
    ms = (time.perf_counter() - start) * 1000.0
    return ThetaRow(theta, gap_k, tv_k, gap_c, tv_c, ms)


def worker_count(explicit: int | None = None) -> int:
    """Workers to use: explicit argument, then GEOMGW_THREADS, then a
    small default. Results never depend on this, only wall time does."""
    if explicit is not None:
        return max(1, explicit)
    env = os.environ.get("GEOMGW_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(f"GEOMGW_THREADS must be an integer, got {env!r}")
    return min(4, os.cpu_count() or 1)


def _run_tasks(fn, tasks: list, workers: int | None):
    w = min(worker_count(workers), len(tasks))
    if w <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, tasks))


def run_regime(
    cfg: ExperimentConfig, workers: int | None = None
) -> list[ConvergenceRow]:
    """TV between the conditioned law and the regime's limit law, one row
    per grid point, in grid order."""
    if cfg.regime == "kesten" and cfg.eta >= 1.0:
        raise ValidationError("the kesten regime needs eta < 1")
    return _run_tasks(_regime_row, [(cfg, n) for n in cfg.n_grid], workers)


def run_theta_continuity(
    cfg: ExperimentConfig, workers: int | None = None
) -> list[ThetaRow]:
    """Distance of the skinny family to its two boundary laws across a
    theta grid: the Kesten law as theta drops, the condensation law (seen
    through k0 root children) as theta grows."""
    if cfg.eta >= 1.0:
        raise ValidationError("theta continuity needs eta < 1")
    grid = cfg.theta_grid or DEFAULT_THETA_GRID
    return _run_tasks(_theta_row, [(cfg, t) for t in grid], workers)


# ---------------------------------------------------------------------------
# artifacts


def write_regime_csv(rows: Iterable[ConvergenceRow], out: TextIO) -> None:
    out.write(",".join(REGIME_CSV_COLUMNS) + "\n")
    for r in rows:
        out.write(
            f"{r.n},{r.a_n},{r.tv_exact!r},{r.tv_residual_bound!r},"
            f"{int(r.certified)}\n"
        )


def write_theta_csv(rows: Iterable[ThetaRow], out: TextIO) -> None:
    out.write(",".join(THETA_CSV_COLUMNS) + "\n")
    for r in rows:
        out.write(
            f"{r.theta!r},{r.gap_kesten!r},{r.tv_kesten!r},"
            f"{r.gap_condensation!r},{r.tv_condensation!r}\n"
        )


def write_svg_chart(
    series: list[tuple[str, list[tuple[float, float]]]],
    out: TextIO,
    x_label: str,
    y_label: str,
    log_x: bool = False,
) -> None:
    """A small static line chart, no renderer dependencies. One polyline
    per named series; log_x plots against log10 of the x values."""
    width, height = 640, 400
    left, right, top, bottom = 64, 24, 24, 48
    points = [(x, y) for _, pts in series for x, y in pts]
    if not points:
        raise ValidationError("nothing to plot")
    xs = [math.log10(x) if log_x else x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(max(ys), 1e-12)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    span_x = (width - left - right) / (x_hi - x_lo)
    span_y = (height - top - bottom) / (y_hi - y_lo)

    def sx(x: float) -> str:
        return format(left + ((math.log10(x) if log_x else x) - x_lo) * span_x, ".2f")

    def sy(y: float) -> str:
        return format(height - bottom - (y - y_lo) * span_y, ".2f")

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    out.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    axis = (
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>\n'
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
        f'stroke="black"/>\n'
    )
    out.write(axis)
    x_lab = x_label + (" (log10)" if log_x else "")
    out.write(
        f'<text x="{(left + width - right) // 2}" y="{height - 12}" '
        f'text-anchor="middle" font-size="13">{x_lab}</text>\n'
    )
    out.write(
        f'<text x="14" y="{(top + height - bottom) // 2}" text-anchor="middle" '
        f'font-size="13" transform="rotate(-90 14 {(top + height - bottom) // 2})">'
        f"{y_label}</text>\n"
    )
    out.write(
        f'<text x="{left}" y="{height - bottom + 16}" text-anchor="middle" '
        f'font-size="11">{format(x_lo, ".3g")}</text>\n'
        f'<text x="{width - right}" y="{height - bottom + 16}" '
        f'text-anchor="middle" font-size="11">{format(x_hi, ".3g")}</text>\n'
        f'<text x="{left - 6}" y="{height - bottom + 4}" text-anchor="end" '
        f'font-size="11">0</text>\n'
        f'<text x="{left - 6}" y="{top + 4}" text-anchor="end" font-size="11">'
        f'{format(y_hi, ".3g")}</text>\n'
    )
    for i, (name, pts) in enumerate(series):
        color = colors[i % len(colors)]
        coords = " ".join(f"{sx(x)},{sy(y)}" for x, y in pts)
        out.write(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>\n'
        )
        out.write(
            f'<text x="{width - right - 4}" y="{top + 16 + 16 * i}" '
            f'text-anchor="end" font-size="12" fill="{color}">{name}</text>\n'
        )
    out.write("</svg>\n")
