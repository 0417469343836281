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
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, TextIO

import numpy as np

from .errors import GeomGWError, ValidationError
from .exactlaw import (
    TruncatedLaw,
    _check_theta,
    condensation_family,
    conditioned_family,
    conditioned_restricted_family,
    gw_family,
    kesten_family,
    kesten_restricted_family,
    poisson_family,
    poisson_restricted_family,
)
from .offspring import OffspringParams
from .sampler import (
    sample_condensation,
    sample_conditioned,
    sample_gw,
    sample_kesten,
    sample_poisson_tree,
)


class _Regime(NamedTuple):
    """What one regime name means. `needs`: the options it needs; `takes`:
    per command, the options it reads without needing them. `law(p, h,
    cap, o)` gives (function, args) of its law, the (h, k0) view when o.k0
    is set and the family otherwise; `sampler(p, h, o)` gives draw(rng);
    `a_n(c, n, o)` gives a sweep's conditioning size from the generation
    scale c, and is None for a regime with no sweep."""

    needs: tuple[str, ...]
    takes: dict[str, tuple[str, ...]]
    law: Callable
    sampler: Callable
    a_n: Callable | None = None


# Every regime, in `--regime` order. The functions are looked up by their
# names in this module at each call, so a wrapped family is what runs.
LAWS = {
    "gw": _Regime(
        (), {},
        lambda p, h, cap, o: (gw_family, (p, h, cap)),
        lambda p, h, o: lambda rng: sample_gw(p, rng, h)),
    "conditioned": _Regime(
        ("n", "a"), {"law": ("k0",)},
        lambda p, h, cap, o: (
            (conditioned_family, (p, o.n, o.a, h, cap)) if o.k0 is None
            else (conditioned_restricted_family, (p, o.n, o.a, h, o.k0, cap))),
        lambda p, h, o: lambda rng: sample_conditioned(p, o.n, o.a, rng, h)),
    "kesten": _Regime(
        (), {"law": ("k0",)},
        lambda p, h, cap, o: (
            (kesten_family, (p, h, cap)) if o.k0 is None
            else (kesten_restricted_family, (p, h, o.k0, cap))),
        lambda p, h, o: lambda rng: sample_kesten(p, rng, h),
        lambda c, n, o: c / n),
    "poisson": _Regime(
        ("theta",), {"law": ("k0",)},
        lambda p, h, cap, o: (
            (poisson_family, (p, h, o.theta, cap)) if o.k0 is None
            else (poisson_restricted_family, (p, h, o.k0, o.theta, cap))),
        lambda p, h, o: lambda rng: sample_poisson_tree(p, o.theta, rng, h),
        lambda c, n, o: o.theta * c),
    "condensation": _Regime(
        ("k0",), {"sample": ("variant",)},
        lambda p, h, cap, o: (condensation_family, (p, h, o.k0, cap)),
        lambda p, h, o: lambda rng: sample_condensation(
            p, o.k0, rng, h, variant=o.variant or "two_type"),
        lambda c, n, o: n * c),
}
# the regimes a sweep compares against the conditioned tree
REGIMES = tuple(name for name, row in LAWS.items() if row.a_n)

# theta grid used when a config does not spell one out: ten decades
DEFAULT_THETA_GRID = tuple(10.0**e for e in range(-6, 4))


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
        thetas = [("theta", self.theta)] + [("theta_grid entry", t) for t in self.theta_grid]
        reals = [(f, getattr(self, f)) for f in ("eta", "q", "certify_tolerance")] + thetas
        for kind, what, fields in ((int, "an integer", ints), ((int, float), "a number", reals)):
            for name, value in fields:
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValidationError(f"{name} must be {what}, got {value!r}")
        OffspringParams(self.eta, self.q)  # its own range checks, before any grid point
        if not 0.0 <= self.certify_tolerance < math.inf:
            raise ValidationError(
                f"certify_tolerance must be finite and >= 0, got {self.certify_tolerance!r}"
            )
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
        _check_theta(self.theta)
        for value in self.theta_grid:
            if not 0.0 < value < math.inf:
                raise ValidationError(f"theta_grid entry must be finite and > 0 (the "
                                      f"theta chart plots log10 theta), got {value!r}")
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
    a = LAWS[cfg.regime].a_n(generation_scale(cfg.params, n), n, cfg)
    if math.isinf(a):
        raise ValidationError(f"the target size a_n at n={n} does not fit a double")
    return max(1, round(a))


# ---------------------------------------------------------------------------
# distances


def tv_distance(l1: TruncatedLaw, l2: TruncatedLaw) -> tuple[float, float]:
    """Total variation over the tabulated codes, plus the pessimistic bound
    contributed by the two residual masses. The true TV lies within
    [tv, tv + bound]."""
    # summed left to right in code order: both builtin sum() (from Python
    # 3.12 on) and ndarray.sum() (pairwise) round differently; the sum must
    # be byte-reproducible, and accumulate adds strictly left to right
    gaps = np.abs(np.subtract(*_aligned(l1, l2)))
    tv = 0.5 * (float(np.add.accumulate(gaps)[-1]) if gaps.size else 0.0)
    bound = 0.5 * (math.exp(l1.log_residual) + math.exp(l2.log_residual))
    return tv, bound


def per_tree_gap(l1: TruncatedLaw, l2: TruncatedLaw) -> float:
    """Largest absolute probability difference over the tabulated codes."""
    gaps = np.abs(np.subtract(*_aligned(l1, l2)))
    return float(gaps.max()) if gaps.size else 0.0


def _aligned(l1: TruncatedLaw, l2: TruncatedLaw) -> tuple[np.ndarray, np.ndarray]:
    """The two laws' probabilities over the union of their rows, in code
    order. Laws of different balls (h or k0) or degree caps are refused: a
    code past one law's cap lies in its residual, not at mass zero, so
    their distance would not be bracketed. A shape table's rows depend on
    (h, degree_cap, k0) alone, never on (eta, q), so two laws of one ball
    have masks over the same rows in the same order, and no code is read.
    Each law's cached probability column is spread over the union of the
    two row masks, 0.0 on the rows it does not keep; a law that keeps
    every row of the union is its own column, not a copy."""
    for key in ("h", "k0", "degree_cap"):
        if l1.meta.get(key) != l2.meta.get(key):
            raise ValidationError(
                f"laws disagree on {key}: {l1.meta.get(key)} vs {l2.meta.get(key)}"
            )
    k1, k2 = l1._source[1], l2._source[1]
    if len(k1) != len(k2):
        raise ValidationError(f"laws disagree on rows: {len(k1)} vs {len(k2)}")
    union = k1 | k2
    return _spread(l1.probs, k1, union), _spread(l2.probs, k2, union)


def _spread(probs: np.ndarray, keep: np.ndarray, union: np.ndarray) -> np.ndarray:
    """The column probs of the rows keep over the rows union (a superset of
    them), 0.0 on the rows keep lacks. probs has one value per row of keep,
    so counting union's rows tells whether keep is all of it; no temporary
    array is made then."""
    size = np.count_nonzero(union)
    if len(probs) == size:
        return probs
    out = np.zeros(size)
    out[keep[union]] = probs
    return out


# ---------------------------------------------------------------------------
# sweeps


# A sweep row's first field is its grid value and its CSV columns are its
# fields but the timing, so reruns are byte-identical.
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


def _csv_columns(row_class) -> tuple[str, ...]:
    return tuple(f for f in row_class.__dataclass_fields__ if f != "runtime_ms")


REGIME_CSV_COLUMNS = _csv_columns(ConvergenceRow)
THETA_CSV_COLUMNS = _csv_columns(ThetaRow)


# The limit laws do not depend on n, so each worker builds them once. Two
# entries hold the theta rows' pair; the family is part of the key, looked
# up by its name in this module at each call, so a wrapped or replaced
# family is a new key. The cached laws are only read.
@lru_cache(maxsize=2)
def _limit_law(family, *args) -> TruncatedLaw:
    return family(*args)


def _regime_row(cfg: ExperimentConfig, n: int) -> tuple:
    p, h, cap = cfg.params, cfg.h, cfg.degree_cap
    a = target_generation_size(cfg, n)
    limit = LAWS[cfg.regime]
    # a limit that needs k0 is compared through the (h, k0) view
    o = SimpleNamespace(n=n, a=a, theta=cfg.theta,
                        k0=cfg.k0 if "k0" in limit.needs else None)
    family, args = LAWS["conditioned"].law(p, h, cap, o)
    cond = family(*args)
    family, args = limit.law(p, h, cap, o)
    tv, bound = tv_distance(cond, _limit_law(family, *args))
    return n, a, tv, bound, bound <= cfg.certify_tolerance


def _theta_row(cfg: ExperimentConfig, theta: float) -> tuple:
    p = cfg.params
    skinny = poisson_family(p, cfg.h, theta, cfg.degree_cap)
    kesten = _limit_law(kesten_family, p, cfg.h, cfg.degree_cap)
    skinny_view = poisson_restricted_family(p, cfg.h, cfg.k0, theta, cfg.degree_cap)
    fat = _limit_law(condensation_family, p, cfg.h, cfg.k0, cfg.degree_cap)
    return (theta, per_tree_gap(skinny, kesten), tv_distance(skinny, kesten)[0],
            per_tree_gap(skinny_view, fat), tv_distance(skinny_view, fat)[0])


def _timed_row(task):
    """One grid point's row, timed; an error names the grid point."""
    row_class, values, cfg, x = task
    start = time.perf_counter()
    try:
        cells = values(cfg, x)
    except GeomGWError as exc:
        name = _csv_columns(row_class)[0]
        raise type(exc)(f"grid point {name}={x!r}: {exc}") from None
    return row_class(*cells, (time.perf_counter() - start) * 1000.0)


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


def _sweep(row_class, values, cfg: ExperimentConfig, grid, workers: int | None):
    tasks = [(row_class, values, cfg, x) for x in grid]
    w = min(worker_count(workers), len(tasks))
    if w <= 1:
        return list(map(_timed_row, tasks))
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(_timed_row, tasks))


def run_regime(
    cfg: ExperimentConfig, workers: int | None = None
) -> list[ConvergenceRow]:
    """TV between the conditioned law and the regime's limit law, one row
    per grid point, in grid order."""
    return _sweep(ConvergenceRow, _regime_row, cfg, cfg.n_grid, workers)


def run_theta_continuity(
    cfg: ExperimentConfig, workers: int | None = None
) -> list[ThetaRow]:
    """Distance of the skinny family to its two boundary laws across a
    theta grid: the Kesten law as theta drops, the condensation law (seen
    through k0 root children) as theta grows."""
    if cfg.eta >= 1.0:
        raise ValidationError("theta continuity needs eta < 1")
    grid = cfg.theta_grid or DEFAULT_THETA_GRID
    return _sweep(ThetaRow, _theta_row, cfg, grid, workers)


# ---------------------------------------------------------------------------
# artifacts


def _write_csv(columns: tuple[str, ...], rows: Iterable, out: TextIO) -> None:
    out.write(",".join(columns) + "\n")
    for r in rows:
        # each cell is the field's repr, a flag's as 0 or 1
        cells = (getattr(r, c) for c in columns)
        out.write(",".join(repr(int(v) if isinstance(v, bool) else v) for v in cells))
        out.write("\n")


def write_regime_csv(rows: Iterable[ConvergenceRow], out: TextIO) -> None:
    _write_csv(REGIME_CSV_COLUMNS, rows, out)


def write_theta_csv(rows: Iterable[ThetaRow], out: TextIO) -> None:
    _write_csv(THETA_CSV_COLUMNS, rows, out)


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
