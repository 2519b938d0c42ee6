"""Tests for the battery runners: rows on one ensemble share one sweep,
and deterministic cases fail on a NaN in any gated field."""

import math
from collections import Counter

import numpy as np
import pytest

import cdstoch.experiments as experiments_module
import cdstoch.integrals as integrals_module
import cdstoch.paths as paths_module
import cdstoch.sde as sde_module
from cdstoch.algebra import CdComplex, CdReal
from cdstoch.config import RunConfig
from cdstoch.experiments import (
    ALGEBRA_CASES,
    EXPERIMENTS,
    LINOPS_CASES,
    Case,
    Row,
    _random_complex_cov,
    _run_cases,
    _run_rows,
    isometry_experiment,
    martingale_experiment,
    run_experiments,
    sde_experiment,
)
from cdstoch.linops import (
    ComplexCovariance,
    CovarianceOperator,
    RealFunctional,
)
from cdstoch.paths import (
    PathEnsemble,
    TimeGrid,
    char_functional_check,
    fixture_rng,
    increment_cov,
    mean_increment,
    sweep,
)
from cdstoch.report import make_report, render_json, strip_timing


def _bits(value):
    """A result with every float replaced by its bytes."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, (float, np.ndarray)):
        return np.asarray(value, dtype=float).tobytes()
    return value


@pytest.mark.parametrize("threads", [1, 3])
def test_runner_sweeps_each_ensemble_once_in_row_order(threads, monkeypatch):
    """Rows on ensembles A, B, A: entries come back in row order, each
    with the bits of its probe swept alone, from one assembly per batch
    of each distinct ensemble."""
    grid = TimeGrid.uniform(0.0, 1.0, 16)
    cov = CovarianceOperator.simple(CdReal.from_real(2, 1.0), np.eye(2))
    a = PathEnsemble(grid, ComplexCovariance(cov, cov), None, seed=5,
                     n_replicas=300, batch_size=64)
    b = PathEnsemble(grid, cov, None, seed=6, n_replicas=200, batch_size=64)
    y = RealFunctional(2, 2, np.random.default_rng(3).standard_normal(16) / 4)
    probes = [(a, mean_increment(a, 0.25, 0.75)),
              (b, increment_cov(b, 0.25, 0.75, 0, 1)),
              (a, char_functional_check(a, y, 1.0))]
    rows = [Row(ens, probe, lambda res, i=i: (i, res))
            for i, (ens, probe) in enumerate(probes)]
    alone = [(i, sweep([(ens, probe)], 1)[0])
             for i, (ens, probe) in enumerate(probes)]

    assembled = []
    assemble = paths_module.assemble_paths

    def counting(*args):
        assembled.append(1)
        return assemble(*args)

    monkeypatch.setattr(paths_module, "assemble_paths", counting)
    entries = _run_rows(rows, threads)
    assert len(assembled) == a.n_batches + b.n_batches == 9
    assert _bits(entries) == _bits(alone)


def watch_assemblies(monkeypatch, seen) -> None:
    """Call seen(batch, w) on each batch as it is assembled, with what it
    assembled: the whole path, or the points its sweep's rows declared.
    The hook sits on the one assembly site, BatchPaths._assembled."""
    assembled = paths_module.BatchPaths._assembled

    def watched(batch):
        fresh = batch._w is None
        w = assembled(batch)
        if fresh:
            seen(batch, w)
        return w

    monkeypatch.setattr(paths_module.BatchPaths, "_assembled", watched)


def count_assemblies(monkeypatch, cfg) -> Counter:
    """Assemblies per (seed offset, batch index), counted as they happen."""
    assembled = Counter()
    watch_assemblies(monkeypatch, lambda batch, w: assembled.update(
        [(batch.ensemble.seed - cfg.seed, batch.index)]))
    return assembled


def ensemble_manifest(monkeypatch, cfg) -> tuple[list[tuple], dict]:
    """(seed offset, replicas, grid steps, level, n, complexified, drift)
    of each ensemble swept, in the order of its first assembly, and per
    seed offset the set of grid point counts its batches assembled."""
    manifest, widths = [], {}

    def seen(batch, w):
        e = batch.ensemble
        entry = (e.seed - cfg.seed, e.n_replicas, e.grid.steps, e.level, e.n,
                 e.complexified, e.p is not None)
        if entry not in manifest:
            manifest.append(entry)
        widths.setdefault(entry[0], set()).add(w.shape[1])

    watch_assemblies(monkeypatch, seen)
    return manifest, widths


T, F = True, False
# Every Monte Carlo battery's ensembles at seed 5, 2100 replicas and grid
# 16.  The offsets key the noise, so a slipped offset, replica rule or
# law moves a report; this table names the slip in seconds.
MANIFESTS = {
    "paths": [
        (1, 2100, 16, 2, 1, T, F), (2, 2100, 16, 2, 3, F, F),
        (3, 2100, 16, 2, 1, F, F), (100, 2100, 16, 0, 2, T, T),
        (101, 2100, 16, 1, 1, F, F), (102, 2100, 16, 2, 1, T, F),
        (103, 2100, 16, 3, 2, F, F), (104, 2100, 16, 0, 1, T, F),
        (105, 2100, 16, 1, 1, F, T), (106, 2100, 16, 2, 2, T, F),
        (107, 2100, 16, 3, 1, F, F), (108, 2100, 16, 0, 1, T, F),
        (109, 2100, 16, 1, 2, F, F), (110, 2100, 16, 2, 1, T, T),
        (111, 2100, 16, 3, 1, F, F), (112, 2100, 16, 0, 2, T, F),
        (113, 2100, 16, 1, 1, F, F), (114, 2100, 16, 2, 1, T, F),
        (115, 2100, 16, 3, 2, F, T), (116, 2100, 16, 0, 1, T, F),
        (117, 2100, 16, 1, 1, F, F), (118, 2100, 16, 2, 2, T, F),
        (119, 2100, 16, 3, 1, F, F),
    ],
    "isometry": [
        (200, 64, 16, 2, 2, T, F), (201, 2100, 16, 2, 1, T, F),
        (202, 2100, 16, 2, 1, F, F), (203, 2100, 16, 3, 1, F, F),
        (204, 2100, 16, 1, 2, F, F), (205, 2100, 16, 0, 1, F, F),
        (206, 2100, 16, 3, 2, F, F), (207, 2100, 16, 2, 1, F, F),
        (208, 2100, 16, 2, 2, T, F), (209, 2100, 16, 3, 1, T, F),
        (210, 2100, 16, 1, 1, T, F),
    ],
    "martingale": [(300, 2100, 16, 2, 1, T, F)],
    "chebyshev": [
        (400, 2100, 16, 1, 2, T, F), (401, 2100, 16, 2, 1, T, F),
        (402, 2100, 16, 3, 2, T, F), (403, 2100, 16, 1, 1, T, F),
        (404, 2100, 16, 2, 2, T, F), (405, 2100, 16, 3, 1, T, F),
        (406, 2100, 16, 1, 2, T, F), (407, 2100, 16, 2, 1, T, F),
        (408, 2100, 16, 3, 2, T, F), (409, 2100, 16, 1, 1, T, F),
        (420, 2100, 16, 2, 1, T, F), (421, 2100, 16, 2, 1, T, F),
    ],
    "sde": [
        (500, 2100, 16, 2, 1, T, F), (501, 2048, 16, 2, 1, T, F),
        (502, 2048, 16, 2, 1, T, F), (503, 2100, 16, 2, 1, T, F),
        (504, 2100, 16, 2, 1, T, F), (505, 2100, 16, 2, 1, T, F),
        (506, 8, 16, 2, 1, T, F),
    ],
}
# The sde battery's other replica rules and its two grids: the
# strong-order ensemble (+503) on the finest grid, the rest on at most
# 64 steps.
SDE_MANIFESTS = {
    (1500, 128): [
        (500, 1500, 64, 2, 1, T, F), (501, 1500, 64, 2, 1, T, F),
        (502, 1500, 64, 2, 1, T, F), (503, 1500, 128, 2, 1, T, F),
        (504, 2000, 64, 2, 1, T, F), (505, 2000, 64, 2, 1, T, F),
        (506, 8, 64, 2, 1, T, F),
    ],
    (4200, 16): [
        (500, 4096, 16, 2, 1, T, F), (501, 2048, 16, 2, 1, T, F),
        (502, 2048, 16, 2, 1, T, F), (503, 4200, 16, 2, 1, T, F),
        (504, 4200, 16, 2, 1, T, F), (505, 4200, 16, 2, 1, T, F),
        (506, 8, 16, 2, 1, T, F),
    ],
}


# Grid points each batch of a paths-battery ensemble assembles, where
# its rows read fewer than all 17: every characteristic-functional case
# reads one point, the fixture and directional ensembles two.
PATHS_POINTS = {2: 2, 3: 2, **{offset: 1 for offset in range(100, 120)}}


@pytest.mark.parametrize("name", list(MANIFESTS))
def test_battery_sweeps_its_pinned_ensembles(name, monkeypatch):
    """Each battery sweeps its pinned ensembles; every batch assembles
    the whole path but where the paths battery's rows read fewer
    points."""
    cfg = RunConfig(seed=5, replicas=2100, grids=(16,), threads=1,
                    experiments=(name,))
    manifest, widths = ensemble_manifest(monkeypatch, cfg)
    dict(EXPERIMENTS)[name](cfg)
    assert manifest == MANIFESTS[name]
    points = PATHS_POINTS if name == "paths" else {}
    assert widths == {entry[0]: {points.get(entry[0], entry[2] + 1)}
                      for entry in manifest}


@pytest.mark.parametrize(("replicas", "steps"), list(SDE_MANIFESTS))
def test_sde_battery_sweeps_its_pinned_ensembles(replicas, steps,
                                                 monkeypatch):
    cfg = RunConfig(seed=5, replicas=replicas, grids=(steps,), threads=1,
                    experiments=("sde",))
    manifest, widths = ensemble_manifest(monkeypatch, cfg)
    sde_experiment(cfg)
    assert manifest == SDE_MANIFESTS[(replicas, steps)]
    assert widths == {entry[0]: {entry[2] + 1} for entry in manifest}


def _nan_time_major(b: int, k: int, *shape: int) -> np.ndarray:
    """paths._time_major's layout, every element NaN."""
    return np.full((k, b, *shape), np.nan).swapaxes(0, 1)


def test_time_major_storage_is_written_before_it_is_read(monkeypatch):
    """_time_major hands out storage that is not zeroed.  With NaN in it
    instead, the Monte Carlo batteries report the bytes they report on
    the real allocator: no caller reads a row it has not written."""
    cfg = RunConfig(seed=5, replicas=300, grids=(16,), threads=1,
                    experiments=("paths", "isometry", "martingale",
                                 "chebyshev", "sde"))

    def stripped() -> str:
        return render_json(strip_timing(make_report(cfg,
                                                    run_experiments(cfg))))

    clean = stripped()
    for module in (paths_module, integrals_module, sde_module):
        monkeypatch.setattr(module, "_time_major", _nan_time_major)
    assert stripped() == clean


def checks_of(entry) -> dict:
    return {c["name"]: c for c in entry["checks"]}


def test_isometry_battery_assembles_each_batch_once(monkeypatch):
    """ens_cplx (seed + 201) feeds both integral_zero_mean and
    bound_identity_anchor, in one pass; ens_small (seed + 200) feeds the
    two structural rows."""
    cfg = RunConfig(seed=5, replicas=2100, grids=(8,), threads=1,
                    experiments=("isometry",))
    assembled = count_assemblies(monkeypatch, cfg)
    isometry_experiment(cfg)
    assert assembled[(201, 0)] == assembled[(201, 1)] == 1
    # ens_small has one batch of 64; ten ensembles have two batches each
    assert len(assembled) == 21 and set(assembled.values()) == {1}


def test_drift_only_closed_form_assembles_no_noise(monkeypatch):
    """ens_noise (seed + 502) is read by the pure-noise check alone, in
    the one sweep it shares with the drift-only check, which reads no
    increments.  The three restart rows share one ensemble (seed + 504),
    so each of its batches is assembled once."""
    cfg = RunConfig(seed=5, replicas=600, grids=(16,), threads=1,
                    experiments=("sde",))
    assembled = count_assemblies(monkeypatch, cfg)
    report = sde_experiment(cfg)
    assert assembled[(502, 0)] == 1
    restart = {k: n for k, n in assembled.items() if k[0] == 504}
    assert list(restart.values()) == [1]  # 2000 replicas: one batch
    checks = checks_of(report)
    assert checks["closed_form_pure_drift"]["passed"]
    assert checks["closed_form_pure_noise"]["passed"]


def test_martingale_battery_assembles_each_batch_once(monkeypatch):
    """The three martingale rows share their ensemble (seed + 300)."""
    cfg = RunConfig(seed=5, replicas=4500, grids=(8,), threads=1,
                    experiments=("martingale",))
    assembled = count_assemblies(monkeypatch, cfg)
    entry = martingale_experiment(cfg)
    assert assembled == {(300, 0): 1, (300, 1): 1, (300, 2): 1}
    assert list(checks_of(entry)) == ["martingale_piecewise",
                                      "martingale_adapted",
                                      "lookahead_control_rejected"]


# Planted NaNs: a maximum that drops a NaN would let each check pass.

def test_martingale_rows_fail_on_a_nan_increment(monkeypatch):
    """One replica's integral turns NaN after t1: every bin maximum reads
    NaN, so the look-ahead control cannot pass on its worst bin either."""
    cfg = RunConfig(seed=5, replicas=2100, grids=(8,), threads=2,
                    experiments=("martingale",))
    integral_paths = integrals_module.integral_paths

    def poisoned(integrand, w):
        eta = integral_paths(integrand, w)
        eta[0, eta.shape[1] // 2:] = np.nan  # past t1 = t_2, up to t2 = t_6
        return eta

    monkeypatch.setattr(integrals_module, "integral_paths", poisoned)
    checks = checks_of(martingale_experiment(cfg))
    assert len(checks) == 3
    for check in checks.values():
        assert np.isnan(check["worst_bin_z"]) and not check["passed"]


def test_window_additivity_fails_on_a_nan_gap(monkeypatch):
    cfg = RunConfig(seed=5, replicas=200, grids=(8,), threads=1,
                    experiments=("isometry",))
    integral_paths = experiments_module.integral_paths

    def poisoned(integrand, w):
        eta = integral_paths(integrand, w)
        eta[0, -1] = np.nan
        return eta

    monkeypatch.setattr(experiments_module, "integral_paths", poisoned)
    check = checks_of(isometry_experiment(cfg))["window_additivity"]
    assert np.isnan(check["max_rel_gap"]) and not check["passed"]


def test_closed_form_anchors_fail_on_a_nan_value(monkeypatch):
    """The drift-only and noise-only closed forms each end NaN in one
    replica; the strong-order reference (both terms) is left alone."""
    cfg = RunConfig(seed=5, replicas=600, grids=(16,), threads=1,
                    experiments=("sde",))
    kernel = sde_module._closed_form_kernel

    def poisoned(problem, grid):
        values = kernel(problem, grid)
        if problem.g is not None and problem.h is not None:
            return values

        def nan_end(dw, y, out):
            last = values(dw, y, out)
            out[0, -1] = np.nan
            return last

        return nan_end

    monkeypatch.setattr(sde_module, "_closed_form_kernel", poisoned)
    checks = checks_of(sde_experiment(cfg))
    for name in ("closed_form_pure_noise", "closed_form_pure_drift"):
        assert np.isnan(checks[name]["max_gap"]), name
        assert not checks[name]["passed"], name
    assert checks["strong_order_window"]["passed"]


def test_divergence_guard_that_never_fires_fails(monkeypatch):
    """A blow-up control that crosses no limit fails its check with an
    abort count of 0, instead of stopping the battery."""
    monkeypatch.setattr(sde_module, "DIVERGENCE_LIMIT", np.inf)
    cfg = RunConfig(seed=5, replicas=200, grids=(16,), threads=1,
                    experiments=("sde",))
    guard = checks_of(sde_experiment(cfg))["divergence_guard"]
    assert not guard["passed"] and guard["aborted_replicas"] == 0


def test_chebyshev_covariances_clear_the_tail_bound_floor():
    """Each random block has a[0] >= 1 and B >= (n + 1/2) I, so every
    chebyshev case's max ||U_k^(1/2)||_2^2 is at least 3, above the 2.2
    the tail bound's regime needs, with no rescale; checked on every
    case stream for every level and width the battery draws."""
    for seed in range(50):
        for index in range(10):
            for level in (1, 2, 3):
                for n in (1, 2):
                    u = _random_complex_cov(fixture_rng(seed, 70 + index),
                                            level, n)
                    assert u.max_sqrt_hs2() >= 2.2, (seed, index, level, n)


def test_restart_rows_fail_on_a_nan_in_a_later_batch(monkeypatch):
    """The restart ensemble (seed + 504) has two batches here; a NaN at
    the last point of the second one's path makes every restart row's
    pathwise deviation NaN."""
    cfg = RunConfig(seed=5, replicas=3000, grids=(16,), threads=2,
                    experiments=("sde",))
    path_on = sde_module._path_on

    def poisoned(problem, batch, grid):
        if batch.ensemble.seed == cfg.seed + 504 and batch.index == 1:
            batch.w[0, -1] = np.nan
        return path_on(problem, batch, grid)

    monkeypatch.setattr(sde_module, "_path_on", poisoned)
    checks = checks_of(sde_experiment(cfg))
    for name in ("restart_linear", "restart_pure_noise", "restart_nonlinear"):
        assert np.isnan(checks[name]["max_pathwise_deviation"]), name
        assert not checks[name]["passed"], name


# Deterministic cases: one runner, and every gated field fails on a NaN.

def _verdict(fields, gated=("gap",)):
    cfg = RunConfig(seed=0, tolerances=(("exact", 0.5),))
    case = Case("c", "§0", None, "exact", gated, lambda rng, tol: dict(fields))
    return _run_cases([case], cfg)[0]["passed"]


def test_case_runner_gates_ok_and_every_gated_field():
    assert _verdict({"gap": 0.5})  # equal to tol passes
    assert _verdict({"ok": True, "gap": 0.1, "other": 9.0})
    assert not _verdict({"gap": 0.5 + 1e-12})
    assert not _verdict({"ok": False, "gap": 0.0})
    assert not _verdict({"gap": 0.1, "more": 0.6}, gated=("gap", "more"))
    assert not _verdict({"gap": math.nan})
    assert _verdict({"ok": True}, gated=())


def test_case_runner_hands_each_case_its_stream_and_tolerance():
    seen = []

    def run(rng, tol):
        seen.append((None if rng is None else rng.random(), tol))
        return {"ok": True, "value": 1.0}

    cfg = RunConfig(seed=3, tolerances=(("exact", 0.25), ("sqrt", 0.5)))
    entries = _run_cases([Case("a", "x", 4, "sqrt", (), run),
                          Case("b", "y", None, "exact", ("value",), run)],
                         cfg)
    assert seen == [(fixture_rng(3, 4).random(), 0.5), (None, 0.25)]
    assert entries == [
        {"name": "a", "anchor": "x", "passed": True, "value": 1.0},
        {"name": "b", "anchor": "y", "passed": False, "value": 1.0}]


def nan_like(value):
    """The value with every float replaced by NaN."""
    if isinstance(value, CdComplex):
        return CdComplex(nan_like(value.re), nan_like(value.im))
    if isinstance(value, CdReal):
        return CdReal(value.level, np.full_like(value.coeffs, np.nan))
    if isinstance(value, np.ndarray):
        return np.full_like(value, np.nan)
    return math.nan


# (case, gated field, experiments attribute, call whose result turns NaN).
# The f_functional plant skips the two pinned values and the first base
# value, so only the scaling gap sees it.
NAN_PLANTS = [
    ("norm_multiplicativity", "max_rel_gap", "mul_coeffs", 1),
    ("sedenion_zero_divisor", "residual", "cd_mul", 1),
    ("moufang_and_alternativity", "max_rel_gap", "mul_coeffs", 1),
    ("power_associativity", "max_rel_gap", "mul_coeffs", 1),
    ("conjugation_antiautomorphism", "max_rel_gap", "cd_mul", 1),
    ("sqrt_round_trip", "max_rel_gap_plain", "cd_mul", 1),
    ("sqrt_round_trip", "max_rel_gap_complexified", "cdc_mul", 1),
    ("exp_inverse_identity", "max_gap", "cd_exp", 1),
    ("structured_vs_realized", "max_rel_gap", "_random_block", 1),
    ("adjoint_real_inner_identity", "max_rel_gap", "re_inner", 1),
    ("trace_formulas_agree", "max_rel_gap", "entries_trace", 1),
    ("operator_norm_dominated", "worst_relative_excess", "op_norm", 1),
    ("cov_sqrt_round_trip", "max_rel_gap", "CdReal", 1),
    ("exp_semigroup_and_growth", "max_rel_gap", "op_exp_left", 1),
    ("f_functional_values", "max_scaling_gap", "f_functional", 4),
]
CASES = {case.name: case for case in ALGEBRA_CASES + LINOPS_CASES}


def test_every_gated_field_has_a_nan_plant():
    assert sorted((c.name, f) for c in CASES.values() for f in c.gated) \
        == sorted((name, field) for name, field, _, _ in NAN_PLANTS)


@pytest.mark.parametrize(("name", "field", "attr", "nth"), NAN_PLANTS,
                         ids=[f"{n}.{f}" for n, f, _, _ in NAN_PLANTS])
def test_case_fails_on_a_nan_in_a_gated_field(name, field, attr, nth,
                                              monkeypatch):
    """One call's result turns NaN and the others stay finite: a maximum
    that drops the NaN reports the finite worst and passes."""
    orig = getattr(experiments_module, attr)
    calls = []

    def poisoned(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.append(1)
        return nan_like(out) if len(calls) == nth else out

    monkeypatch.setattr(experiments_module, attr, poisoned)
    [entry] = _run_cases([CASES[name]], RunConfig(seed=5))
    assert len(calls) >= nth
    assert np.isnan(entry[field]) and not entry["passed"]
