"""Sweep configs, distances, and the convergence experiments."""

import hashlib
import importlib.resources
import io
import math
import random

import numpy as np
import pytest

from geomgw import (
    ExperimentConfig,
    OffspringParams,
    TruncatedLaw,
    ValidationError,
    condensation_family,
    conditioned_family,
    conditioned_restricted_family,
    generation_scale,
    gw_family,
    kesten_family,
    kesten_restricted_family,
    per_tree_gap,
    poisson_family,
    run_regime,
    run_theta_continuity,
    target_generation_size,
    tv_distance,
    worker_count,
    write_regime_csv,
    write_svg_chart,
    write_theta_csv,
)
from geomgw import exactlaw, lab
from geomgw.lab import REGIME_CSV_COLUMNS, THETA_CSV_COLUMNS

CRIT = OffspringParams(0.5, 0.5)
SUB = OffspringParams(0.3, 0.5)
SUP = OffspringParams(0.6, 0.3)


def small_cfg(**overrides):
    base = dict(
        eta=0.5,
        q=0.5,
        regime="kesten",
        h=1,
        degree_cap=4,
        n_grid=(4, 8, 12),
        a_rule="const",
        a_const=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# -- config ------------------------------------------------------------------


def test_config_json_round_trip():
    cfg = small_cfg(theta=0.25, k0=2, theta_grid=(0.1, 10.0))
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg


def test_config_load(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(small_cfg().to_json())
    assert ExperimentConfig.load(str(path)) == small_cfg()


def test_config_rejects_unknown_fields():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_json('{"eta": 0.5, "q": 0.5, "colour": 1}')


def test_config_rejects_missing_fields():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_json('{"eta": 0.5}')


def test_config_rejects_non_object():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_json("[1, 2]")


@pytest.mark.parametrize(
    "overrides",
    [
        {"regime": "mellin"},
        {"h": 0},
        {"n_grid": ()},
        {"h": 5},  # exceeds min(n_grid) = 4
        {"degree_cap": 0},
        {"k0": 0},
        {"theta": math.inf},
        {"theta": math.nan},
        {"theta_grid": (0.5, 0.0)},
        {"theta_grid": (math.nan,)},
        {"theta_grid": (math.inf,)},
        {"a_rule": "linear"},
        {"a_rule": "const", "a_const": 0},
        {"eta": 1.5},
        {"eta": 0.0},
        {"q": 1.0},
        {"certify_tolerance": math.nan},
        {"certify_tolerance": -0.01},
        {"certify_tolerance": math.inf},
    ],
)
def test_config_field_validation(overrides):
    with pytest.raises(ValidationError):
        small_cfg(**overrides)


def test_config_params_property():
    assert small_cfg().params == CRIT


# -- scales and targets ------------------------------------------------------


def test_generation_scale_by_regime():
    assert generation_scale(CRIT, 7) == 49.0
    assert generation_scale(SUB, 3) == pytest.approx(0.6**-3, rel=1e-12)
    assert generation_scale(SUP, 3) == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValidationError):
        generation_scale(CRIT, -1)


def test_target_size_const_rule():
    cfg = small_cfg(a_rule="const", a_const=5)
    assert [target_generation_size(cfg, n) for n in (4, 8, 12)] == [5, 5, 5]


def test_target_size_default_rules():
    # critical: c_n = n^2, so the three regimes read n, theta n^2, n^3
    kes = small_cfg(a_rule="default")
    assert target_generation_size(kes, 10) == 10
    poi = small_cfg(regime="poisson", a_rule="default", theta=0.5)
    assert target_generation_size(poi, 10) == 50
    con = small_cfg(regime="condensation", a_rule="default")
    assert target_generation_size(con, 10) == 1000
    # the floor keeps the target a valid conditioning size
    sub_kes = small_cfg(eta=0.3, a_rule="default")
    assert target_generation_size(sub_kes, 4) >= 1


# -- distances ---------------------------------------------------------------


def law_on(skel, masses, residual, **meta):
    # a law over the rows of one shape table, with the given masses on the
    # rows masses names and none on the rest
    keep = np.array([c in masses for c in skel.codes])
    assert np.count_nonzero(keep) == len(masses)
    law = TruncatedLaw(
        (skel, keep), np.array([math.log(masses[c]) for c in skel.codes if c in masses])
    )
    law.log_residual = math.log(residual) if residual > 0.0 else -math.inf
    law.meta = meta
    return law


def law_of(masses, residual, **meta):
    # the rows "0", "1,0", "2,0,0" and "3,0,0,0"
    return law_on(exactlaw._skeleton(CRIT, 1, 3, None), masses, residual, **meta)


def test_tv_distance_hand_value():
    l1 = law_of({"1,0": 0.5, "2,0,0": 0.3}, 0.2, h="1", k0="1")
    l2 = law_of({"1,0": 0.4, "3,0,0,0": 0.1}, 0.5, h="1", k0="1")
    tv, bound = tv_distance(l1, l2)
    assert tv == pytest.approx(0.5 * (0.1 + 0.3 + 0.1), rel=1e-12)
    assert bound == pytest.approx(0.35, rel=1e-12)
    assert tv_distance(l1, l1) == (0.0, pytest.approx(0.2, rel=1e-12))


def test_tv_distance_is_insertion_order_invariant():
    # ~250 masses spread over many binades on the 251 rows of one table:
    # any change in summation order moves the last bits, so bit-equality
    # with the reference loop pins the code-order sum
    rng = random.Random(9151)
    skel = exactlaw._skeleton(CRIT, 1, 250, None)
    codes = skel.codes
    assert len(codes) == 251
    m1 = {c: math.ldexp(rng.random() + 1.0, -rng.randrange(10, 45)) for c in codes[:200]}
    m2 = {c: math.ldexp(rng.random() + 1.0, -rng.randrange(10, 45)) for c in codes[50:]}
    l1, l2 = law_on(skel, m1, 0.25, h="1"), law_on(skel, m2, 0.25, h="1")
    for a, b in ((l1, l2), (l2, l1)):
        tv, gap = _reference_tv_and_gap(a, b)
        assert tv_distance(a, b)[0].hex() == tv.hex()
        assert per_tree_gap(a, b).hex() == gap.hex()


def test_tv_distance_sums_left_to_right():
    # the pinned sweep CSVs hold a plain left-to-right sum: here it rounds
    # each 1e-16 term away against 1.0, while a compensated sum (builtin
    # sum() from Python 3.12 on, math.fsum) keeps them and ends one ulp up
    l1 = law_of({"0": 1.0}, 0.0, h="1")
    l2 = law_of({"1,0": 1e-16, "2,0,0": 1e-16}, 1.0 - 2e-16, h="1")
    terms = [1.0, math.exp(math.log(1e-16)), math.exp(math.log(1e-16))]
    assert math.fsum(terms) > 1.0
    tv, _ = tv_distance(l1, l2)
    assert tv == 0.5


@pytest.mark.parametrize("distance", [tv_distance, per_tree_gap])
def test_distances_refuse_laws_of_different_balls(distance):
    pairs = [
        (law_of({"1,0": 0.5}, 0.5, h="1", k0="1"),
         law_of({"1,0": 0.5}, 0.5, h="2", k0="1")),
        (kesten_family(CRIT, 1, 3), kesten_family(CRIT, 2, 3)),
        (kesten_restricted_family(CRIT, 2, 1, 3),
         condensation_family(CRIT, 2, 2, 3)),
        # one law at two degree caps: the true TV is 0, but the codes past
        # the smaller cap would read as disagreement
        (kesten_family(CRIT, 1, 2), kesten_family(CRIT, 1, 6)),
    ]
    for l1, l2 in pairs:
        for a, b in ((l1, l2), (l2, l1)):
            with pytest.raises(ValidationError, match="laws disagree"):
                distance(a, b)


@pytest.mark.parametrize("distance", [tv_distance, per_tree_gap])
def test_distances_refuse_masks_of_different_lengths(distance):
    # one meta, two tables of different rows: refused before any numpy
    # broadcast
    l1 = law_of({"1,0": 0.5}, 0.5, h="1")
    l2 = law_on(exactlaw._skeleton(CRIT, 1, 4, None), {"1,0": 0.5}, 0.5, h="1")
    for a, b in ((l1, l2), (l2, l1)):
        with pytest.raises(ValidationError, match="laws disagree on rows"):
            distance(a, b)


def test_per_tree_gap_hand_value():
    l1 = law_of({"1,0": 0.5, "2,0,0": 0.3}, 0.2, h="1")
    l2 = law_of({"1,0": 0.4, "3,0,0,0": 0.1}, 0.5, h="1")
    assert per_tree_gap(l1, l2) == pytest.approx(0.3, rel=1e-12)
    empty = law_of({}, 1.0, h="1")
    assert per_tree_gap(empty, empty) == 0.0


def _reference_tv_and_gap(l1, l2):
    # a fresh sort of the set union of both laws' codes, summed by an
    # explicit loop
    tv = 0.0
    gap = 0.0
    for c in sorted(set(l1.entries) | set(l2.entries)):
        diff = abs(
            math.exp(l1.entries.get(c, -math.inf))
            - math.exp(l2.entries.get(c, -math.inf))
        )
        tv += diff
        gap = max(gap, diff)
    return 0.5 * tv, gap


def _bundled(name):
    ref = importlib.resources.files("geomgw") / "configs" / f"{name}.json"
    return ExperimentConfig.from_json(ref.read_text())


def _table_pairs():
    # a view against its fat limit, the view's root-degree-k0 rows:
    # partly disjoint
    yield (
        conditioned_restricted_family(SUP, 6, 4, 2, 2, 5),
        condensation_family(SUP, 2, 2, 5),
    )
    cfg = _bundled("kesten")
    p = cfg.params
    cond = conditioned_family(
        p, 10, target_generation_size(cfg, 10), cfg.h, cfg.degree_cap
    )
    yield cond, kesten_family(p, cfg.h, cfg.degree_cap)
    # two offspring laws: two tables with the same rows, the conditioned
    # view's mask keeping more of them than the fat limit's
    yield kesten_family(SUB, 2, 4), kesten_family(CRIT, 2, 4)
    yield (
        conditioned_restricted_family(SUB, 10, 7, 2, 2, 4),
        condensation_family(CRIT, 2, 2, 4),
    )
    # the codes of one shape table, as both weights drop its width-0 shapes:
    # read in place
    cond, kesten = conditioned_family(CRIT, 5, 3, 2, 4), kesten_family(CRIT, 2, 4)
    assert cond.codes == kesten.codes
    yield cond, kesten
    # codes that differ only by zero-mass filtering: the plain law keeps the
    # width-0 shapes the Kesten weight drops
    yield gw_family(CRIT, 2, 4), kesten
    # a k0 = 10 view, root degrees 1, 10, 2, ... in code order, against
    # its limit law
    view = conditioned_restricted_family(CRIT, 5, 3, 1, 10, 10)
    yield view, condensation_family(CRIT, 1, 10, 10)
    # k0 past the cap: the fat limit keeps no row of the view's table
    yield (
        conditioned_restricted_family(CRIT, 10, 1000, 2, 3, 2),
        condensation_family(CRIT, 2, 3, 2),
    )


def test_tv_alignment_matches_the_sorted_union_bit_for_bit():
    for l1, l2 in _table_pairs():
        for a, b in ((l1, l2), (l2, l1)):
            tv, gap = _reference_tv_and_gap(a, b)
            assert tv_distance(a, b)[0].hex() == tv.hex()
            assert per_tree_gap(a, b).hex() == gap.hex()


def test_cross_parameter_pair_reads_no_code():
    # two offspring laws at one (h, cap) read two tables with the same
    # rows: the masks line up as they are, and neither table's code
    # strings are built
    exactlaw._skeleton.cache_clear()
    sub, crit = kesten_family(SUB, 2, 4), kesten_family(CRIT, 2, 4)
    assert sub._source[0] is not crit._source[0]
    got = [_distances(a, b) for a, b in ((sub, crit), (crit, sub))]
    for law in (sub, crit):
        assert "codes" not in vars(law._source[0])
    for (a, b), distances in zip(((sub, crit), (crit, sub)), got):
        tv, gap = _reference_tv_and_gap(a, b)
        assert distances == (tv.hex(), gap.hex())


def _same_table_pairs():
    # the conditioned law against the Kesten family at the bundled Kesten
    # sweep's (h, cap) = (2, 6), and the skinny family against the Kesten
    # family at the bundled theta sweep's (1, 40): each pair reads the
    # same rows of one shape table, as both weights drop its width-0 rows
    cfg = _bundled("kesten")
    kesten = kesten_family(CRIT, 2, 6)
    for n in (cfg.n_grid[0], cfg.n_grid[-1]):
        yield conditioned_family(CRIT, n, target_generation_size(cfg, n), 2, 6), kesten
    kesten = kesten_family(CRIT, 1, 40)
    for theta in (lab.DEFAULT_THETA_GRID[0], lab.DEFAULT_THETA_GRID[-1]):
        yield poisson_family(CRIT, 1, theta, 40), kesten


def _distances(l1, l2):
    return tv_distance(l1, l2)[0].hex(), per_tree_gap(l1, l2).hex()


def _assert_matches_reference(l1, l2):
    for a, b in ((l1, l2), (l2, l1)):
        tv, gap = _reference_tv_and_gap(a, b)
        assert _distances(a, b) == (tv.hex(), gap.hex())


def test_same_table_columns_match_the_merge_bit_for_bit():
    for l1, l2 in _same_table_pairs():
        _assert_matches_reference(l1, l2)
    # one table, different keep masks: the plain law keeps the width-0 rows
    # that the Kesten weight drops, so the Kesten column is spread over them
    gw, kesten = gw_family(CRIT, 2, 6), kesten_family(CRIT, 2, 6)
    assert gw._source[0] is kesten._source[0]
    _assert_matches_reference(gw, kesten)


def test_alignment_on_the_same_rows_returns_the_cached_columns():
    # laws that keep the same rows of one table are their own columns: the
    # alignment copies nothing, so a Kesten-sweep row pays no spread
    for l1, l2 in _same_table_pairs():
        p1, p2 = lab._aligned(l1, l2)
        assert p1 is l1.probs
        assert p2 is l2.probs


def test_alignment_spreads_zero_on_the_rows_a_law_drops():
    # the plain law keeps the width-0 rows the Kesten weight drops: its
    # column is returned as it is, and the Kesten column is spread over the
    # union with 0.0 exactly on the dropped rows, its values in row order
    gw, kesten = gw_family(CRIT, 2, 6), kesten_family(CRIT, 2, 6)
    k_gw, k_kesten = gw._source[1], kesten._source[1]
    assert not (k_kesten & ~k_gw).any()
    p_gw, p_kesten = lab._aligned(gw, kesten)
    assert p_gw is gw.probs
    dropped = ~k_kesten[k_gw]
    assert dropped.any()
    assert len(p_kesten) == len(p_gw)
    assert (p_kesten[dropped] == 0.0).all()
    assert p_kesten[~dropped].tobytes() == kesten.probs.tobytes()
    # the other order spreads the same column
    p_kesten2, p_gw2 = lab._aligned(kesten, gw)
    assert p_gw2 is gw.probs
    assert p_kesten2.tobytes() == p_kesten.tobytes()


def test_bundled_sweeps_build_no_code_string():
    # every pair these sweeps compare lies on one table, so the tables'
    # code strings are never built
    exactlaw._skeleton.cache_clear()
    lab._limit_law.cache_clear()
    run_regime(_bundled("kesten"), workers=1)
    assert "codes" not in vars(exactlaw._skeleton(CRIT, 2, 6, None))
    # the k0 = 1 view's rows are all of root degree 1, so the skinny view
    # and the fat limit read the same rows too
    run_theta_continuity(_bundled("poisson"), workers=1)
    assert "codes" not in vars(exactlaw._skeleton(CRIT, 1, 40, None))
    assert "codes" not in vars(exactlaw._skeleton(CRIT, 1, 40, 1))
    # past k0 = 1 the view keeps more rows than its fat limit, whose column
    # is spread over the view's rows
    run_regime(_bundled("condensation"), workers=1)
    assert "codes" not in vars(exactlaw._skeleton(CRIT, 2, 40, 2))
    run_theta_continuity(small_cfg(h=2, k0=2, theta_grid=(1e-2, 1.0, 1e2)), workers=1)
    assert "codes" not in vars(exactlaw._skeleton(CRIT, 2, 4, 2))


# -- sweeps ------------------------------------------------------------------


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)

    def counting(name, family):
        def counted(*args):
            calls[name] += 1
            return family(*args)
        return counted

    for name in names:
        monkeypatch.setattr(lab, name, counting(name, getattr(lab, name)))
    return calls


def test_regime_rows_build_the_limit_law_once(monkeypatch):
    calls = _count_calls(monkeypatch, "kesten_family")
    rows = run_regime(small_cfg(h=2), workers=1)
    assert len(rows) == 3
    assert calls == {"kesten_family": 1}


def test_theta_rows_build_each_boundary_law_once(monkeypatch):
    calls = _count_calls(monkeypatch, "kesten_family", "condensation_family")
    cfg = small_cfg(h=2, theta_grid=(1e-2, 1.0, 1e2))
    rows = run_theta_continuity(cfg, workers=1)
    assert len(rows) == 3
    assert calls == {"kesten_family": 1, "condensation_family": 1}


def strip_runtime(rows):
    return [
        tuple(getattr(r, f) for f in type(r).__dataclass_fields__ if f != "runtime_ms")
        for r in rows
    ]


def test_run_regime_kesten_smoke():
    rows = run_regime(small_cfg(), workers=1)
    assert [r.n for r in rows] == [4, 8, 12]
    assert all(r.a_n == 1 for r in rows)
    assert rows[-1].tv_exact < rows[0].tv_exact
    assert all(r.tv_residual_bound >= 0.0 for r in rows)
    assert all(isinstance(r.certified, bool) for r in rows)


def test_poisson_sweep_at_theta_zero_is_the_kesten_sweep():
    # theta 0 is a valid config: its default rule gives a_n = 1 on every
    # row, and the theta = 0 member is the Kesten law up to rounding
    poi = run_regime(small_cfg(regime="poisson", h=2, theta=0.0, a_rule="default"),
                     workers=1)
    kes = run_regime(small_cfg(h=2), workers=1)
    assert [r.a_n for r in poi] == [1, 1, 1]
    for p, k in zip(poi, kes, strict=True):
        assert p.n == k.n
        assert abs(p.tv_exact - k.tv_exact) <= 1e-15
        assert abs(p.tv_residual_bound - k.tv_residual_bound) <= 1e-15


def test_run_regime_condensation_smoke():
    # h = 1 with k0 = 1 would make both views a point mass on "1,0",
    # so measure at radius 2 where the laws have real content
    cfg = small_cfg(
        regime="condensation", h=2, k0=1, n_grid=(4, 8), a_rule="default"
    )
    rows = run_regime(cfg, workers=1)
    assert [r.a_n for r in rows] == [64, 512]  # a_n = n^3 when critical
    assert rows[-1].tv_exact < rows[0].tv_exact


def test_run_regime_condensation_at_astronomic_targets():
    # a_n = n 2^n reaches 4.4e13 at n = 40; there log C(a-1, i-1)
    # once cancelled to 0.17 in the log and the tabulated mass passed 1
    cfg = small_cfg(
        eta=0.6, q=0.3, regime="condensation", h=2, k0=2, degree_cap=40,
        n_grid=(10, 15, 20, 25, 30, 35, 40, 45, 50), a_rule="default",
    )
    rows = run_regime(cfg, workers=1)
    assert rows[-1].a_n == 56_294_995_342_131_200
    assert all(r.certified for r in rows)
    assert rows[-1].tv_exact < 1e-9


def test_run_regime_is_deterministic_and_worker_independent():
    first = run_regime(small_cfg(), workers=1)
    again = run_regime(small_cfg(), workers=1)
    wide = run_regime(small_cfg(), workers=4)
    assert strip_runtime(first) == strip_runtime(again) == strip_runtime(wide)


def test_run_regime_rejects_kesten_without_death():
    with pytest.raises(ValidationError):
        run_regime(small_cfg(eta=1.0, q=0.5), workers=1)


def test_theta_continuity_endpoints():
    cfg = small_cfg(h=2, theta_grid=(1e-4, 1.0, 1e3))
    rows = run_theta_continuity(cfg, workers=1)
    assert [r.theta for r in rows] == [1e-4, 1.0, 1e3]
    # near zero the skinny family sits on the eternal tree ...
    assert rows[0].tv_kesten < 1e-3
    assert rows[-1].tv_kesten > rows[0].tv_kesten
    # ... and far out it sits on the fat tree, seen through k0 children
    assert rows[-1].tv_condensation < 5e-2
    assert rows[0].tv_condensation > rows[-1].tv_condensation
    for r in rows:
        assert 0.0 <= r.gap_kesten and 0.0 <= r.gap_condensation


def test_theta_continuity_worker_independence():
    cfg = small_cfg(h=2, theta_grid=(1e-2, 1e2))
    one = run_theta_continuity(cfg, workers=1)
    four = run_theta_continuity(cfg, workers=4)
    assert strip_runtime(one) == strip_runtime(four)


# -- artifacts ---------------------------------------------------------------


def test_regime_csv_layout():
    rows = run_regime(small_cfg(n_grid=(4, 8)), workers=1)
    buf = io.StringIO()
    write_regime_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(REGIME_CSV_COLUMNS)
    assert len(lines) == 3
    # five columns, no runtime field: reruns must be byte-identical
    assert all(len(line.split(",")) == 5 for line in lines)
    assert "runtime" not in buf.getvalue()
    n, a_n, tv, bound, cert = lines[1].split(",")
    assert (int(n), int(a_n)) == (4, 1)
    assert float(tv) == rows[0].tv_exact
    assert cert in ("0", "1")


def test_theta_csv_layout():
    rows = run_theta_continuity(small_cfg(theta_grid=(0.5,)), workers=1)
    buf = io.StringIO()
    write_theta_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(THETA_CSV_COLUMNS)
    assert len(lines) == 2
    assert float(lines[1].split(",")[0]) == 0.5


def _csv_sha256(write, rows) -> str:
    out = io.StringIO()
    write(rows, out)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_series_and_theta_csv_bytes_are_pinned():
    # the bundled theta sweep and a 20-point certified series grid up to
    # a_n = 5.9e7; output bytes stay the same across refactors
    ref = importlib.resources.files("geomgw") / "configs" / "poisson.json"
    theta = run_theta_continuity(ExperimentConfig.from_json(ref.read_text()))
    assert _csv_sha256(write_theta_csv, theta) == (
        "e571f48b624b39595934d861797b868e51964a5f7d453dfc043758bb5c76bc9e"
    )
    series = ExperimentConfig(
        eta=0.5, q=0.5, regime="condensation", h=2, k0=2, degree_cap=40,
        n_grid=tuple(range(10, 391, 20)), seed=20260817, certify_tolerance=0.01,
    )
    assert _csv_sha256(write_regime_csv, run_regime(series)) == (
        "283536615c4de89051f7571200509bbd2c9608d9c09190ebb6dc6ad25e71433d"
    )


def test_svg_chart_smoke():
    buf = io.StringIO()
    write_svg_chart(
        [("tv", [(1.0, 0.5), (2.0, 0.25)]), ("bound", [(1.0, 0.6)])],
        buf,
        x_label="n",
        y_label="distance",
    )
    text = buf.getvalue()
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2
    assert ">tv</text>" in text and ">bound</text>" in text


def test_svg_chart_log_axis_and_empty():
    buf = io.StringIO()
    write_svg_chart(
        [("g", [(1e-3, 0.1), (1e3, 0.2)])], buf, "theta", "gap", log_x=True
    )
    assert "(log10)" in buf.getvalue()
    with pytest.raises(ValidationError):
        write_svg_chart([("g", [])], io.StringIO(), "x", "y")


# -- workers -----------------------------------------------------------------


def test_worker_count_rules(monkeypatch):
    monkeypatch.delenv("GEOMGW_THREADS", raising=False)
    assert worker_count(3) == 3
    assert worker_count(0) == 1
    assert 1 <= worker_count() <= 4
    monkeypatch.setenv("GEOMGW_THREADS", "7")
    assert worker_count() == 7
    assert worker_count(2) == 2  # explicit beats the environment
    monkeypatch.setenv("GEOMGW_THREADS", "soup")
    with pytest.raises(ValidationError):
        worker_count()
