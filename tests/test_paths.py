"""Tests for grid-aligned Gaussian path simulation and its estimators."""

import csv
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import cdstoch.paths as paths_module
import cdstoch.sde as sde_module
from cdstoch.algebra import AlgebraError, CdReal, LevelMismatch
from cdstoch.linops import (
    CdVector,
    ComplexCovariance,
    CovarianceOperator,
    RealFunctional,
    RightLinearOp,
    vec_norm2,
)
from cdstoch.integrals import StepIntegrand, integral_paths
from cdstoch.paths import (
    GridError,
    McReport,
    PathEnsemble,
    TimeGrid,
    assemble_paths,
    available_cpus,
    batch_normals,
    char_functional_check,
    char_functional_closed_form,
    char_functional_estimator,
    char_semigroup,
    complex_of,
    disjoint_increments,
    increment_cov,
    lag_exceedances,
    Probe,
    mean_increment,
    modulus_se,
    path_continuity,
    sup_norm2,
    sweep,
)
from cdstoch.report import CSV_HEADER, write_paths_csv
from cdstoch.sde import ZetaSpec, euler_maruyama, linear_problem, picard_solve


def identity_complex_covariance(level, n):
    eye = np.eye(n)
    one = CdReal.from_real(level, 1.0)
    return ComplexCovariance(CovarianceOperator.simple(one, eye),
                             CovarianceOperator.simple(one, eye))


# ------------------------------------------------------------------ time grid

def test_time_grid_validation():
    grid = TimeGrid.uniform(0.0, 2.0, 8)
    assert grid.a == 0.0 and grid.b == 2.0 and grid.steps == 8
    assert np.allclose(grid.deltas, 0.25)
    assert grid.index_of(0.75) == 3
    with pytest.raises(GridError):
        grid.index_of(0.3)
    with pytest.raises(GridError):
        TimeGrid([0.0, 1.0, 1.0])
    with pytest.raises(GridError):
        TimeGrid([0.0])
    with pytest.raises(GridError):
        TimeGrid([0.0, np.inf])
    with pytest.raises(GridError):
        TimeGrid.uniform(0.0, 1.0, 0)


def test_time_grid_handles_nonuniform_points():
    grid = TimeGrid([0.0, 0.1, 0.4, 1.0])
    assert grid.steps == 3
    assert grid.index_of(0.4) == 2
    assert np.allclose(grid.deltas, [0.1, 0.3, 0.6])


def test_time_grid_copies_its_points():
    x = np.linspace(0.0, 1.0, 5)
    grid = TimeGrid(x)
    assert grid.points is not x
    x[0] = 0.5  # the caller's array stays writable
    assert grid.points[0] == 0.0
    with pytest.raises(ValueError):
        grid.points[0] = 0.5


# --------------------------------------------------------------- noise draws

def test_batch_normals_reproducible_and_distinct():
    a = batch_normals(42, 7, 16, (4, 2), stream=0)
    b = batch_normals(42, 7, 16, (4, 2), stream=0)
    assert a.shape == (16, 4, 2)
    assert np.array_equal(a, b)
    c = batch_normals(42, 8, 16, (4, 2), stream=0)
    d = batch_normals(43, 7, 16, (4, 2), stream=0)
    e = batch_normals(42, 7, 16, (4, 2), stream=1)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_batch_normals_refuse_a_stream_of_another_batch():
    """Stream 8 of a batch would be stream 0 of the next batch, so a
    stream outside 0..7 is refused; the eight streams of one batch and
    the first of the next all differ."""
    for stream in (-1, 8, 9):
        with pytest.raises(AlgebraError, match="stream"):
            batch_normals(42, 0, 4, (3,), stream)
    draws = [batch_normals(42, 0, 4, (3,), s) for s in range(8)]
    draws.append(batch_normals(42, 1, 4, (3,), 0))
    assert len({d.tobytes() for d in draws}) == 9


# -------------------------------------------------------------- path assembly

def test_identity_covariance_embeds_noise():
    """With unit covariances and no drift the path is the embedded noise."""
    level, n = 3, 2
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    ens = PathEnsemble(grid, identity_complex_covariance(level, n), None,
                       seed=1, n_replicas=4)
    batch = ens.batch(0)
    w = batch.w
    assert w.shape == (4, 9, 2, 2, 8)
    for inc, half in ((batch.inc0, 0), (batch.inc1, 1)):
        xi = np.zeros((4, 9, n))
        xi[:, 1:] = np.cumsum(inc, axis=1)
        assert np.allclose(w[..., half, 0], xi)
    assert np.all(w[..., 1:] == 0.0)
    assert np.all(w[:, 0] == 0.0)


def test_ensemble_start_and_drift():
    level, n = 2, 1
    grid = TimeGrid([1.0, 1.5, 2.0])
    u = CovarianceOperator.simple(CdReal.from_real(level, 1.0), np.eye(1))
    rng = np.random.default_rng(12)
    p = CdVector(level, n, rng.standard_normal((n, 2, 4)))
    w = PathEnsemble(grid, u, p, seed=5, n_replicas=3).batch(0).w
    # the path starts at zero at t_0 even though the window begins at 1
    assert np.all(w[:, 0] == 0.0)
    drift_gap = w[:, 2] - w[:, 0]
    pure_noise = PathEnsemble(grid, u, None, seed=5,
                              n_replicas=3).batch(0).w[:, 2]
    assert np.allclose(drift_gap, pure_noise + 1.0 * p.data)


# ------------------------------------------------------------- path ensembles

def test_ensemble_rows_match_single_path_assembly():
    """A batch row equals assemble_paths run on that row alone, bitwise."""
    level, n = 3, 2
    grid = TimeGrid.uniform(0.0, 1.0, 32)
    u = identity_complex_covariance(level, n)
    rng = np.random.default_rng(4)
    p = CdVector(level, n, rng.standard_normal((n, 2, 8)))
    ens = PathEnsemble(grid, u, p, seed=21, n_replicas=64, batch_size=16)
    batch = ens.batch(0)
    e0, e1 = u.u0.sqrt_entries(), u.u1.sqrt_entries()
    inc0, inc1 = batch.inc0, batch.inc1
    for j in (0, 3, 15):
        single = assemble_paths(grid, e0, e1, p, inc0[j:j + 1],
                                inc1[j:j + 1], None)[0]
        assert np.array_equal(single, batch.w[j])


def test_path_steps_are_contiguous_and_gathers_c_ordered():
    """Each grid point of a batch's paths is one contiguous block (the
    array is stored time-major); what a gather hands its gate is
    C-ordered."""
    grid = TimeGrid.uniform(0.0, 1.0, 16)
    u = identity_complex_covariance(2, 2)
    p = CdVector(2, 2, np.random.default_rng(6).standard_normal((2, 2, 4)))
    ens = PathEnsemble(grid, u, p, seed=3, n_replicas=40, batch_size=16)
    batch = ens.batch(0)
    w = batch.w
    assert w.shape == (16, 17, 2, 2, 4)
    assert all(w[:, l].flags.c_contiguous for l in range(len(grid)))
    seen = []
    probe = Probe(ens,
                  lambda b: (b.w, b.w[:, :, 0, 0, 0], b.w[:, -1] - b.w[:, 0]),
                  seen.append, gather=True)
    sweep([probe], 1)
    joined, = seen
    assert [a.shape for a in joined] == [(40, 17, 2, 2, 4), (40, 17),
                                        (40, 2, 2, 4)]
    assert all(a.flags.c_contiguous for a in joined)
    assert np.array_equal(joined[0][:16], w)


@pytest.mark.parametrize("threads", [1, 3])
def test_a_sweep_assembles_only_the_declared_points(threads, monkeypatch):
    """Rows that declare points assemble their union once per batch, each
    row with the bits of the whole path; w then raises, and so does at
    on a point no row declared.  Outside a sweep, at reads the whole
    path, time-major like w."""
    grid = TimeGrid.uniform(0.0, 1.0, 16)
    p = CdVector(2, 2, np.random.default_rng(7).standard_normal((2, 2, 4)))
    ens = PathEnsemble(grid, identity_complex_covariance(2, 2), p, seed=9,
                       n_replicas=150, batch_size=64)
    whole = np.concatenate([ens.batch(i).w for i in range(ens.n_batches)])
    lone = ens.batch(1)
    got = lone.at((12, 0))
    assert np.array_equal(got.view(np.uint64),
                          lone.w[:, [12, 0]].view(np.uint64))
    assert all(got[:, j].flags.c_contiguous for j in range(2))

    def sample(batch):
        for read in (lambda: batch.w, lambda: batch.at((5,))):
            with pytest.raises(GridError):
                read()
        return (batch.at((0, 12)),)

    assembled = []
    assemble = paths_module.assemble_paths

    def counting(*args):
        assembled.append(args[-1])
        return assemble(*args)

    monkeypatch.setattr(paths_module, "assemble_paths", counting)
    rows = sweep([Probe(ens, sample, list, gather=True, points=(12, 0)),
                  mean_increment(ens, 0.25, 0.75)], threads)[0][0]
    assert assembled == [(0, 4, 12)] * ens.n_batches
    assert np.array_equal(rows.view(np.uint64),
                          whole[:, [0, 12]].view(np.uint64))


@pytest.mark.parametrize("threads", [1, 3])
def test_a_sweep_whose_rows_declare_no_points(threads, monkeypatch):
    """Rows that declare no points read the empty time-major path that at
    gives outside a sweep; an empty point set made the blocked assembly
    step through its points by a block of zero."""
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    p = CdVector(1, 2, np.random.default_rng(11).standard_normal((2, 2, 2)))
    ens = PathEnsemble(grid, identity_complex_covariance(1, 2), p, seed=13,
                       n_replicas=150, batch_size=64)
    assert ens.batch(0).at(()).shape == (64, 0, 2, 2, 2)
    assembled = []
    assemble = paths_module.assemble_paths

    def counting(*args):
        assembled.append(args[-1])
        return assemble(*args)

    monkeypatch.setattr(paths_module, "assemble_paths", counting)
    empty, = sweep([Probe(ens, lambda batch: (batch.at(()),), list,
                          gather=True, points=())], threads)[0]
    assert assembled == [()] * ens.n_batches
    assert empty.shape == (150, 0, 2, 2, 2)


def test_moment_reducer_bits_do_not_depend_on_layout():
    """A time-major float array reaching the moment reducer gives the
    bits of its C-ordered copy: the sum over replicas has one order."""
    rng = np.random.default_rng(14)
    v = rng.standard_normal((2048, 33)) * np.exp(rng.normal(size=33))
    tm = paths_module._time_major(2048, 33)
    tm[...] = v
    assert not tm.flags.c_contiguous
    for got, ref in zip(paths_module._moments(tm), paths_module._moments(v)):
        assert got.tobytes() == ref.tobytes()


def test_ensemble_deterministic_across_threads_and_runs():
    grid = TimeGrid.uniform(0.0, 1.0, 16)
    u = identity_complex_covariance(2, 1)
    ens = PathEnsemble(grid, u, None, seed=99, n_replicas=5000, batch_size=1024)
    seq = ens.map_batches(lambda b: b.w.copy(), threads=1)
    par = ens.map_batches(lambda b: b.w.copy(), threads=4)
    again = PathEnsemble(grid, u, None, seed=99, n_replicas=5000,
                         batch_size=1024).map_batches(lambda b: b.w.copy(), 1)
    assert all(np.array_equal(x, y) for x, y in zip(seq, par))
    assert all(np.array_equal(x, y) for x, y in zip(seq, again))
    other = PathEnsemble(grid, u, None, seed=100, n_replicas=5000,
                         batch_size=1024).map_batches(lambda b: b.w.copy(), 1)
    assert not np.array_equal(seq[0], other[0])


def test_ensemble_batch_layout_covers_all_replicas():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    u = CovarianceOperator.simple(CdReal.from_real(0, 1.0), np.eye(1))
    ens = PathEnsemble(grid, u, None, seed=1, n_replicas=2500, batch_size=1024)
    spans = [(b.index, b.count)
             for b in map(ens.batch, range(ens.n_batches))]
    assert spans == [(0, 1024), (1, 1024), (2, 452)]
    assert ens.n_batches == 3
    assert not ens.complexified


def test_ensemble_validation():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    u = identity_complex_covariance(2, 1)
    with pytest.raises(AlgebraError):
        PathEnsemble(grid, u, None, seed=-1, n_replicas=10)
    with pytest.raises(AlgebraError):
        PathEnsemble(grid, u, None, seed=0, n_replicas=0)
    with pytest.raises(LevelMismatch):
        PathEnsemble(grid, u, CdVector(3, 1, np.zeros((1, 2, 8))), seed=0,
                     n_replicas=10)


# -------------------------------------------------------------- moment checks

def multi_block_covariance():
    level = 2
    a1 = CdReal(level, [1.0, 0.5, 0.0, 0.0])
    b1 = np.array([[2.0, 0.3], [0.3, 1.0]])
    a2 = CdReal(level, [0.0, 0.0, 1.0, 0.0])
    return CovarianceOperator(level, ((a1, b1), (a2, np.array([[1.5]]))))


def run(probe, threads=1):
    """The result of one probe swept alone."""
    return sweep([probe], threads)[0]


def reports(ens, sample, threads=1):
    """The McReports of one sampler swept alone."""
    return run(Probe(ens, sample, list), threads)


def test_mean_increment_matches_drift():
    u = multi_block_covariance()
    rng = np.random.default_rng(0)
    p = CdVector(2, 3, rng.standard_normal((3, 2, 4)))
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 16), u, p,
                       seed=11, n_replicas=20_000)
    out = run(mean_increment(ens, 0.25, 0.875))
    assert out["passed"], out
    rep, = reports(ens, mean_increment(ens, 0.25, 0.875).sample)
    assert rep.estimate.shape == (3, 2, 4)
    # without drift the imaginary half of a plain-covariance path is empty
    plain = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 16), u, None,
                         seed=11, n_replicas=2000)
    rep0, = reports(plain, mean_increment(plain, 0.25, 0.875).sample)
    assert np.all(rep0.estimate[:, 1, :] == 0.0)


def test_as_stated_product_is_centred_from_the_window_start():
    """The two-time product centres each value by the drift the path
    gathered from the window start.  On windows shifted to start at 1
    and 5, the same noise reads the as_stated_gap it reads at start 0;
    centred from t = 0 it grew to 8.8 and 225 (seed 4, 20k replicas, a
    drift of 3 on i_0)."""
    p = np.zeros((1, 2, 4))
    p[0, 0, 0] = 3.0
    gaps = []
    for a in (0.0, 1.0, 5.0):
        ens = PathEnsemble(TimeGrid.uniform(a, a + 1.0, 16),
                           identity_complex_covariance(2, 1),
                           CdVector(2, 1, p), seed=4, n_replicas=2000)
        gaps.append(run(increment_cov(ens, a + 0.25, a + 0.75, 0, 0))
                    ["as_stated_gap"])
    assert gaps[0] < 1.0
    assert gaps[1:] == pytest.approx([gaps[0]] * 2, rel=1e-6)


def test_increment_covariance_same_block_and_cross_block():
    u = multi_block_covariance()
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 16), u, None,
                       seed=17, n_replicas=20_000)
    same, cross = sweep([increment_cov(ens, 0.25, 0.875, 0, 1),
                         increment_cov(ens, 0.25, 0.875, 1, 2)], 1)
    assert same["passed"], same
    assert cross["passed"], cross
    assert np.all(cross["expected"] == 0.0)


def test_increment_covariance_unit_block_value():
    # unit coefficient, identity matrix: the same-component moment is
    # (t2 - t1) on the i_0 axis and zero elsewhere
    level = 2
    u = CovarianceOperator.simple(CdReal.from_real(level, 1.0), np.eye(1))
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 8), u, None,
                       seed=29, n_replicas=20_000)
    res = run(increment_cov(ens, 0.25, 0.75, 0, 0))
    assert np.array_equal(res["expected"], [0.5, 0.0, 0.0, 0.0])
    assert res["passed"], res


def test_increment_covariance_directional_coefficient():
    """A coefficient along i_1 steers the moment onto that axis."""
    level = 2
    a = CdReal(level, [0.0, 1.0, 0.0, 0.0])
    u = CovarianceOperator.simple(a, np.eye(1))
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 8), u, None,
                       seed=31, n_replicas=20_000)
    res = run(increment_cov(ens, 0.0, 1.0, 0, 0))
    assert np.array_equal(res["expected"], [0.0, 1.0, 0.0, 0.0])
    assert res["passed"], res


def test_increment_covariance_scaled_block_doubles_deviation():
    # coefficient 4 i_0 puts variance 4 (b - a) on each coordinate
    level = 1
    u = CovarianceOperator.simple(CdReal.from_real(level, 4.0), np.eye(2))
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 4), u, None,
                       seed=37, n_replicas=20_000)
    res = run(increment_cov(ens, 0.0, 1.0, 1, 1))
    assert np.array_equal(res["expected"], [4.0, 0.0])
    assert res["passed"], res


def test_increment_covariance_reports_as_stated_residual():
    """Away from the window start the two-time product disagrees with the
    increment-scaled value, and that gap is reported without being asserted."""
    level = 2
    u = CovarianceOperator.simple(CdReal.from_real(level, 1.0), np.eye(1))
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 8), u, None,
                       seed=41, n_replicas=20_000)
    res = run(increment_cov(ens, 0.5, 0.75, 0, 0))
    assert res["passed"], res
    # the verbatim product concentrates near min(t1, t2) = 0.5, far from 0.25
    assert res["as_stated_gap"] > 0.15


def test_increment_covariance_complexified_combines_both_halves():
    level, n = 2, 1
    u0 = CovarianceOperator.simple(CdReal.from_real(level, 3.0), np.eye(n))
    u1 = CovarianceOperator.simple(CdReal.from_real(level, 1.0), np.eye(n))
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 8), ComplexCovariance(u0, u1),
                       None, seed=43, n_replicas=20_000)
    res = run(increment_cov(ens, 0.0, 1.0, 0, 0))
    # re part carries U0 - U1, im part is centered
    assert np.array_equal(res["expected"][0], [2.0, 0.0, 0.0, 0.0])
    assert np.all(res["expected"][1] == 0.0)
    assert res["passed"], res


def test_increment_covariance_index_validation():
    u = multi_block_covariance()
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 4), u, None,
                       seed=1, n_replicas=100)
    with pytest.raises(AlgebraError):
        increment_cov(ens, 0.0, 1.0, 0, 3)
    with pytest.raises(GridError):
        increment_cov(ens, 0.5, 0.25, 0, 0)


def test_disjoint_increments_uncorrelated():
    u = multi_block_covariance()
    rng = np.random.default_rng(2)
    p = CdVector(2, 3, rng.standard_normal((3, 2, 4)))
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 16), u, p,
                       seed=47, n_replicas=20_000)
    out = run(disjoint_increments(ens, 0.0, 0.25, 0.5, 1.0))
    assert out["passed"], out
    with pytest.raises(GridError):
        disjoint_increments(ens, 0.0, 0.5, 0.25, 1.0)


# --------------------------------------------------- characteristic functional

def test_char_functional_zero_functional_is_one():
    level, n = 2, 1
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 4),
                       identity_complex_covariance(level, n), None,
                       seed=53, n_replicas=1000)
    y = RealFunctional(level, n, np.zeros(2 * n * 4))
    rep = run(char_functional_estimator(ens, y, 1.0))
    assert complex_of(rep) == 1.0 + 0.0j
    assert modulus_se(rep) == 0.0


def test_char_closed_form_trivial_cases():
    level, n = 2, 1
    u = identity_complex_covariance(level, n)
    y0 = RealFunctional(level, n, np.zeros(8))
    assert char_functional_closed_form(u, None, y0, 2.0) == 1.0 + 0.0j
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    y = RealFunctional(level, n, coeffs)
    assert char_functional_closed_form(u, None, y, 0.0) == 1.0 + 0.0j
    with pytest.raises(AlgebraError):
        char_functional_closed_form(u, None, y, -1.0)


def test_char_closed_form_standard_gaussian_value():
    """Unit functional on the embedded first coordinate gives e^{-d/2}."""
    level, n = 2, 1
    u = identity_complex_covariance(level, n)
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    y = RealFunctional(level, n, coeffs)
    val = char_functional_closed_form(u, None, y, 1.0)
    assert abs(val - np.exp(-0.5)) < 1e-15


def test_char_estimator_matches_closed_form():
    level, n = 2, 1
    u = identity_complex_covariance(level, n)
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    y = RealFunctional(level, n, coeffs)
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 16), u, None,
                       seed=5, n_replicas=30_000)
    out = run(char_functional_check(ens, y, 1.0))
    assert out["passed"], out


def test_char_estimator_battery_with_drift():
    level, n = 2, 2
    rng = np.random.default_rng(61)
    u0 = CovarianceOperator.simple(CdReal(level, [1.0, 0.3, 0.0, 0.0]),
                                   np.array([[1.5, 0.2], [0.2, 0.8]]))
    u1 = CovarianceOperator.simple(CdReal.from_real(level, 0.5), np.eye(n))
    u = ComplexCovariance(u0, u1)
    p = CdVector(level, n, 0.3 * rng.standard_normal((n, 2, 4)))
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 16), u, p,
                       seed=67, n_replicas=30_000)
    for case in range(4):
        coeffs = 0.7 * rng.standard_normal(2 * n * 4)
        y = RealFunctional(level, n, coeffs)
        out = run(char_functional_check(ens, y, 1.0))
        assert out["passed"], (case, out)


def test_char_semigroup_identity():
    level, n = 2, 1
    u = identity_complex_covariance(level, n)
    coeffs = np.zeros(8)
    coeffs[0] = 0.8
    coeffs[4] = -0.4
    y = RealFunctional(level, n, coeffs)
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 16), u, None,
                       seed=71, n_replicas=30_000)
    out = run(char_semigroup(ens, y, 0.25, 0.5))
    assert out["passed"], out
    with pytest.raises(LevelMismatch):
        char_semigroup(ens, RealFunctional(1, n, np.zeros(4)), 0.25, 0.5)


def test_char_semigroup_passes_a_zero_variance_case():
    """A zero functional reads exp(0) = 1 on every replica, so the gap
    and the tolerance are both 0.  A strict gap < tol failed it, while
    char_functional_check passed on the same ensemble."""
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 8),
                       identity_complex_covariance(2, 1), None, seed=3,
                       n_replicas=200)
    y = RealFunctional(2, 1, np.zeros(8))
    out = run(char_semigroup(ens, y, 0.25, 0.5))
    assert (out["gap"], out["tolerance"]) == (0.0, 0.0)
    assert out["passed"], out
    assert run(char_functional_check(ens, y, 1.0))["passed"]


# ------------------------------------------------------- stochastic continuity

def test_path_continuity_ladder_and_wiener_oracle():
    level, n = 2, 1
    u = identity_complex_covariance(level, n)
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 256), u, None,
                       seed=9, n_replicas=20_000)
    out = run(path_continuity(ens, eps=1.5, halvings=8))
    assert out["passed"], out
    assert out["tails"][-1] < 0.01
    # both embedded coordinates are independent N(0, delta), so the exact
    # tail at the window start is exp(-eps^2 / (4 delta))
    for delta, emp in list(zip(out["deltas"], out["origin_tails"]))[:4]:
        oracle = np.exp(-1.5 ** 2 / (4.0 * delta))
        se = np.sqrt(oracle * (1 - oracle) / out["sample_count"])
        assert abs(emp - oracle) <= 4 * se + 1e-6, (delta, emp, oracle)


def test_path_continuity_rejects_bad_ladder():
    u = identity_complex_covariance(2, 1)
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 12), u, None,
                       seed=1, n_replicas=100)
    with pytest.raises(GridError):
        path_continuity(ens, eps=1.0, halvings=8)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_path_continuity_refuses_a_threshold_that_measures_nothing(eps):
    """A NaN threshold fails every comparison, so its tails would read 0
    and pass; an infinite, zero or negative one measures nothing either
    (a negative eps was read as |eps|)."""
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 16),
                       identity_complex_covariance(2, 1), None, seed=1,
                       n_replicas=500)
    with pytest.raises(AlgebraError, match="eps must be finite and positive"):
        path_continuity(ens, eps, 4)


def tail_rows(b, layout):
    """(b, 33, 2, 2, 8) heavy-tailed values, stored time-major or
    C-ordered, with NaN and inf in a few rows and coordinates."""
    rng = np.random.default_rng(b)
    shape = (b, 33, 2, 2, 8)
    x = rng.standard_normal(shape) * rng.exponential(size=shape[:2]
                                                     + (1, 1, 1)) ** 3
    x[3, 5] = np.nan
    x[7, 9, 1, 0, 4] = np.nan
    x[11, 2] = np.inf
    x[11, 3] = np.inf  # inf - inf: a NaN difference
    x[13, 20, 0, 1, 2] = -np.inf
    x[17, 4, 0, 0, 0] = np.nan
    x[17, 6, 1, 1, 1] = np.inf  # a NaN before an inf in one replica
    if layout == "time_major":
        x = np.ascontiguousarray(x.swapaxes(0, 1)).swapaxes(0, 1)
    return x


@pytest.mark.parametrize("b", [2048, 904])
@pytest.mark.parametrize("layout", ["time_major", "c_ordered"])
def test_lag_exceedances_keep_the_bits_of_the_whole_difference(layout, b):
    """The in-place lag kernel gives the indicators of both expressions
    it replaces, vec_norm2 on the flattened difference and the sum over
    the three coordinate axes, whose norms agree bit for bit.  Each
    threshold is a reference norm, and the next float below it, so a
    norm one ulp off flips its own indicator."""
    x = tail_rows(b, layout)
    flat = x.reshape(b, 33, -1)
    rng = np.random.default_rng(5)
    with np.errstate(invalid="ignore"):  # inf - inf
        for lag in (1, 2, 5, 16):
            d = x[:, lag:] - x[:, :-lag]
            ref = vec_norm2(flat[:, lag:] - flat[:, :-lag])
            ref_axes = 2.0 * np.sum(d * d, axis=(2, 3, 4))
            assert ref.view(np.uint64).tolist() == \
                ref_axes.view(np.uint64).tolist()
            finite = np.flatnonzero(np.isfinite(ref))
            for at in rng.choice(finite, 3, replace=False):
                at = np.unravel_index(at, ref.shape)
                for eps2 in (ref[at], np.nextafter(ref[at], -np.inf)):
                    got, = lag_exceedances(x, [lag], eps2)
                    assert got.shape == ref.shape and got.dtype == bool
                    assert np.array_equal(got, ref > eps2)
                    assert np.array_equal(got, ref_axes > eps2)
                assert got[at]
        eps2 = float(np.median(ref))
        lags = list(range(1, 17))
        for lag, got in zip(lags, lag_exceedances(x, lags, eps2)):
            assert np.array_equal(
                got, vec_norm2(flat[:, lag:] - flat[:, :-lag]) > eps2)


@pytest.mark.parametrize("b", [2048, 904])
@pytest.mark.parametrize("layout", ["time_major", "c_ordered"])
def test_sup_norm2_keeps_the_bits_of_the_whole_square(layout, b):
    """The running supremum has the bits of np.max over vec_norm2 of
    every row, NaN and inf included, on either layout."""
    x = tail_rows(b, layout)
    ref = np.max(vec_norm2(x.reshape(b, 33, -1)), axis=1)
    got = sup_norm2(x)
    assert got.shape == (b,)
    assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()
    assert np.isnan(got[[3, 7, 17]]).all() and np.isinf(got[[11, 13]]).all()


def test_path_continuity_holds_no_lag_difference():
    """One batch of 2048 replicas on 32 steps (level 3, n = 2, 16.5 MiB
    of path, assembled first) samples its ladder within 2 MiB: one
    scratch block of _BLOCK_BYTES and the indicators.  Each lag's
    difference and its square were two path-sized arrays (31.6 MiB)."""
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 32),
                       identity_complex_covariance(3, 2), None, seed=21,
                       n_replicas=2048)
    probe = path_continuity(ens, 1.0, 5)
    batch = ens.batch(0)
    path = batch.w
    tracemalloc.start()
    try:
        tails = probe.sample(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.nbytes == 2048 * 33 * 2 * 2 * 8 * 8
    assert [t.shape for t in tails] == [(2048, 33 - lag)
                                        for lag in (16, 8, 4, 2, 1)]
    assert peak <= 2 * 2 ** 20


# ----------------------------------------------------------------- CSV export

def _csv_values(kind):
    """(grid, values) of one kind of grid-aligned array."""
    if kind == "path_batch":
        ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 4),
                           identity_complex_covariance(2, 2), None,
                           seed=73, n_replicas=50, batch_size=8)
        return ens.grid, ens.batch(0).w
    if kind == "integral":
        ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 4),
                           identity_complex_covariance(1, 1), None,
                           seed=11, n_replicas=7)
        s = StepIntegrand.constant(ens.grid, RightLinearOp.identity(1, 1))
        return ens.grid, integral_paths(s, ens.batch(0).w[:3])
    ident = RightLinearOp.identity(1, 1)
    prob = linear_problem(ident.scaled(-1.0), ident,
                          ZetaSpec.constant(CdVector.embedded_real(1, [1.0])),
                          1)
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 4),
                       identity_complex_covariance(1, 1), None, seed=3,
                       n_replicas=6)
    sol = sweep([euler_maruyama(prob, ens)], 1)[0]
    return sol.grid, sol.values[:2]


@pytest.mark.parametrize("kind", ["path_batch", "integral", "solution"])
def test_write_paths_csv(tmp_path, kind):
    grid, values = _csv_values(kind)
    b, kk, h, _, dim = values.shape
    out = tmp_path / f"{kind}.csv"
    assert write_paths_csv(out, grid, values) == b
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == CSV_HEADER
    assert rows[0] == ["replica", "t", "component", "basis", "imag", "value"]
    # replicas x grid points x components x 2 halves x basis axes
    assert len(rows) == 1 + b * kk * h * 2 * dim
    assert {int(r[0]) for r in rows[1:]} == set(range(b))
    # spot-check one imaginary-half value of the last replica and component
    probe = [r for r in rows[1:]
             if r[0] == str(b - 1) and float(r[1]) == grid.points[2]
             and r[2] == str(h - 1) and r[3] == str(dim - 1) and r[4] == "1"]
    assert len(probe) == 1
    assert float(probe[0][5]) == values[b - 1, 2, h - 1, 1, dim - 1]
    with pytest.raises(GridError):
        write_paths_csv(out, TimeGrid.uniform(0.0, 1.0, 8), values)


def test_write_paths_csv_bytes(tmp_path):
    """The rows, their order, the float reprs and the CRLF line ends."""
    values = np.array([0.1, -2.5, 1e-17, -0.0, 3.0, 0.25, 1 / 3, 7.0])
    out = tmp_path / "pin.csv"
    assert write_paths_csv(out, TimeGrid([0.0, 0.5]),
                           values.reshape(1, 2, 1, 2, 2)) == 1
    assert out.read_bytes() == (
        b"replica,t,component,basis,imag,value\r\n"
        b"0,0.0,0,0,0,0.1\r\n0,0.0,0,1,0,-2.5\r\n"
        b"0,0.0,0,0,1,1e-17\r\n0,0.0,0,1,1,-0.0\r\n"
        b"0,0.5,0,0,0,3.0\r\n0,0.5,0,1,0,0.25\r\n"
        b"0,0.5,0,0,1,0.3333333333333333\r\n0,0.5,0,1,1,7.0\r\n")


# ------------------------------------------------------------------ McReport

def test_mc_report_from_sums_and_within():
    rng = np.random.default_rng(79)
    samples = rng.standard_normal((4000, 3)) + [1.0, -2.0, 0.0]
    rep = McReport.from_sums(samples.sum(0), (samples * samples).sum(0),
                             samples.shape[0])
    assert np.allclose(rep.estimate, samples.mean(0))
    assert np.allclose(rep.standard_error,
                       samples.std(0, ddof=1) / np.sqrt(4000))
    assert np.all(rep.within([1.0, -2.0, 0.0]))
    assert not np.all(rep.within([1.5, -2.0, 0.0]))
    assert rep.max_gap([1.0, -2.0, 0.0]) < 0.1


def _report_bits(rep):
    return [np.asarray(getattr(rep, f)).tobytes()
            for f in ("estimate", "standard_error")] + [rep.sample_count]


def _bits(value):
    """A result with every float replaced by its bytes."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    if isinstance(value, (float, np.ndarray)):
        return np.asarray(value, dtype=float).tobytes()
    return value


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_matches_each_probe_swept_alone(threads, monkeypatch):
    """Probes fused into one sweep give the bits of each probe swept alone,
    and each batch is assembled once for all of them."""
    rng = np.random.default_rng(23)
    u = multi_block_covariance()
    p = CdVector(2, 3, rng.standard_normal((3, 2, 4)))
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 16), u, p, seed=19,
                       n_replicas=300, batch_size=64)
    y = RealFunctional(2, 3, rng.standard_normal(24) / 5.0)
    probes = [
        mean_increment(ens, 0.25, 0.75),
        increment_cov(ens, 0.25, 0.75, 0, 2),
        disjoint_increments(ens, 0.0, 0.25, 0.5, 1.0),
        char_semigroup(ens, y, 0.25, 0.5),
        path_continuity(ens, eps=3.0, halvings=3),
    ]
    alone = [run(probe) for probe in probes]

    assembled = []
    assemble = paths_module.assemble_paths

    def counting(*args):
        assembled.append(1)
        return assemble(*args)

    monkeypatch.setattr(paths_module, "assemble_paths", counting)
    fused = sweep(probes, threads)
    assert len(assembled) == ens.n_batches == 5
    assert _bits(fused) == _bits(alone)


@pytest.mark.parametrize("threads", [1, 3])
def test_a_sweep_of_no_rows_returns_no_results(threads):
    """An empty row list used to raise IndexError reading ensembles[0]."""
    assert sweep([], threads) == []


def _gather_samples(batch):
    """Per-replica arrays of three layouts: C-ordered, time-major (as the
    solvers store them) and 1-D boolean."""
    w = batch.w
    time_major = np.ascontiguousarray(np.moveaxis(w, 1, 0))
    return (w[:, -1].reshape(batch.count, -1), np.moveaxis(time_major, 0, 1),
            w[:, -1, 0, 0, 0] > 0.0)


@pytest.mark.parametrize("threads", [1, 3])
def test_gather_joins_the_batches_in_order(threads):
    """A gather probe's gate sees each array joined over the batches in
    batch order, C-contiguous, with the bits of np.concatenate; a batch
    size that does not divide the replica count leaves a short batch."""
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 8),
                       identity_complex_covariance(1, 2), None, seed=61,
                       n_replicas=500, batch_size=96)
    batches = [ens.batch(i) for i in range(ens.n_batches)]
    assert [b.count for b in batches] == [96] * 5 + [20]
    joined = run(Probe(ens, _gather_samples, list, gather=True), threads)
    parts = [_gather_samples(b) for b in batches]
    assert not parts[0][1].flags.c_contiguous
    for j, got in enumerate(joined):
        expect = np.concatenate([part[j] for part in parts], axis=0)
        assert got.flags.c_contiguous
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()
    # the layout trap a C-ordered join avoids: a concatenate of time-major
    # parts is not C-ordered, so later sums over replicas may change order
    assert not np.concatenate([part[1] for part in parts]).flags.c_contiguous


@pytest.mark.parametrize("threads", [1, 3])
def test_sweep_mixing_gathers_and_moments(threads, monkeypatch):
    """Gather and moment probes in one sweep give each probe the bits it
    has when swept alone, from one assembly per batch."""
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 8),
                       identity_complex_covariance(2, 1), None, seed=67,
                       n_replicas=300, batch_size=128)

    def gathered(joined):
        return [(a.tobytes(), a.flags.c_contiguous) for a in joined]

    probes = [Probe(ens, _gather_samples, gathered, gather=True),
              mean_increment(ens, 0.25, 0.75),
              Probe(ens, lambda b: _gather_samples(b)[1:], gathered,
                    gather=True),
              Probe(ens, lambda b: _gather_samples(b)[:2], list)]
    alone = [run(probe) for probe in probes]
    assembled = []
    assemble = paths_module.assemble_paths

    def counting(*args):
        assembled.append(1)
        return assemble(*args)

    monkeypatch.setattr(paths_module, "assemble_paths", counting)
    fused = sweep(probes, threads)
    assert len(assembled) == ens.n_batches == 3
    assert fused[0] == alone[0] and fused[2] == alone[2]
    assert all(c for _, c in fused[0] + fused[2])
    assert _bits(fused[1]) == _bits(alone[1])
    assert [_report_bits(r) for r in fused[3]] \
        == [_report_bits(r) for r in alone[3]]


def _one_pool_ensembles():
    """Ensembles of 1, 2 and 3 batches, the last one short."""
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    u = identity_complex_covariance(2, 1)
    return [PathEnsemble(grid, u, None, seed=seed, n_replicas=replicas,
                         batch_size=64)
            for seed, replicas in ((71, 64), (72, 128), (73, 150))]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_one_pool_gives_each_ensemble_the_bits_it_has_alone(threads,
                                                            monkeypatch):
    """Rows of several ensembles, moment and gather probes interleaved,
    swept on one pool: each ensemble's rows get the bits of that ensemble
    swept alone, from one assembly per batch of every ensemble."""
    ensembles = _one_pool_ensembles()

    def gathered(joined):
        return [(a.tobytes(), a.flags.c_contiguous) for a in joined]

    def rows_of(ens):
        return [mean_increment(ens, 0.25, 0.75),
                Probe(ens, _gather_samples, gathered, gather=True),
                disjoint_increments(ens, 0.0, 0.25, 0.5, 1.0)]

    alone = [sweep(rows_of(ens), 1) for ens in ensembles]
    # row j of every ensemble, then row j + 1: no ensemble's rows adjoin
    rows = [row for group in zip(*map(rows_of, ensembles)) for row in group]
    assembled = []
    assemble = paths_module.assemble_paths

    def counting(*args):
        assembled.append(1)
        return assemble(*args)

    monkeypatch.setattr(paths_module, "assemble_paths", counting)
    pools = []
    pool_map = paths_module.pool_map

    def one_pool(fn, items, threads):
        pools.append(len(items))
        return pool_map(fn, items, threads)

    monkeypatch.setattr(paths_module, "pool_map", one_pool)
    fused = sweep(rows, threads)
    assert len(assembled) == sum(e.n_batches for e in ensembles) == 6
    assert pools == [6]
    for k, expect in enumerate(alone):
        got = fused[k::len(ensembles)]
        assert _bits(got[0]) == _bits(expect[0])
        assert got[1] == expect[1] and all(c for _, c in got[1])
        assert _bits(got[2]) == _bits(expect[2])


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_map_batches_orders_by_ensemble_then_batch(threads):
    first, *more = _one_pool_ensembles()
    got = first.map_batches(lambda b: (b.ensemble.seed, b.index, b.count),
                            threads, *more)
    assert got == [(71, 0, 64), (72, 0, 64), (72, 1, 64), (73, 0, 64),
                   (73, 1, 64), (73, 2, 22)]


def test_a_batch_is_dropped_before_the_next_runs():
    """At one thread, every earlier batch's arrays are freed before a later
    batch runs, so a pool over many ensembles holds one assembled batch
    at a time.  (BatchPaths has no weakref slot; its arrays are the
    memory it holds.)"""
    first, *more = _one_pool_ensembles()
    refs = []

    def fn(batch):
        alive = sum(ref() is not None for ref in refs)
        refs.extend(weakref.ref(a) for a in (batch.inc0, batch.inc1, batch.w))
        return alive

    assert first.map_batches(fn, 1, *more) == [0] * 6
    assert len(refs) == 18 and all(ref() is None for ref in refs)


def test_mc_report_validation():
    with pytest.raises(AlgebraError):
        McReport(1.0, -0.1, 10)
    scalar = McReport(1.0, 0.0, 10)
    assert scalar.within(1.0)
    with pytest.raises(AlgebraError):
        complex_of(scalar)


def _einsum_assembly(grid, e0, e1, p, inc0, inc1):
    """The contraction assemble_paths must reproduce, as a plain einsum;
    no second injection (inc1 None) leaves the imaginary half zero."""
    b, k, n = inc0.shape
    w = np.zeros((b, k + 1, n, 2, e0.shape[-1]))
    for half, e, inc in ((0, e0, inc0), (1, e1, inc1)):
        if inc is not None:
            xi = np.zeros((b, k + 1, n))
            np.cumsum(inc, axis=1, out=xi[:, 1:])
            w[..., half, :] = np.einsum("lkd,btk->btld", e, xi)
    if p is not None:
        tau = grid.points - grid.a
        w += p.data[None, None] * tau[None, :, None, None, None]
    return w


# grid indices of the 12-step grid: each end alone, both ends, interior
# points out of order, and every point
POINT_SETS = [(0,), (12,), (0, 12), (7, 3, 12), tuple(range(13))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_assemble_paths_is_bitwise_the_einsum(n):
    """The whole assembly has the einsum's bits at n <= 2, signed zeros
    included; at any n, complexified or real, with or without drift, an
    assembly at a few points gives each of those rows with the bits of
    the whole assembly."""
    level, dim = 3, 8
    grid = TimeGrid.uniform(0.0, 1.0, 12)
    rng = np.random.default_rng(12)
    e0, e1 = rng.standard_normal((2, n, n, dim))
    e0[0, 0, :3] = -0.0  # signed zeros must survive
    e1[n - 1, 0, 5] = 0.0
    inc0, inc1 = rng.standard_normal((2, 9, 12, n))
    inc0[:, 4] = -0.0
    p = CdVector(level, n, rng.standard_normal((n, 2, dim)))
    cases = []
    for drift in (p, None):
        for second in ((e1, inc1), (None, None)):
            whole = assemble_paths(grid, e0, second[0], drift, inc0,
                                   second[1], None)
            cases.append((drift, second, whole))
            for points in POINT_SETS:
                rows = assemble_paths(grid, e0, second[0], drift, inc0,
                                      second[1], points)
                assert rows.shape == (9, len(points), n, 2, dim)
                assert all(rows[:, j].flags.c_contiguous
                           for j in range(len(points)))
                assert np.array_equal(rows.view(np.uint64),
                                      whole[:, list(points)].view(np.uint64))
    if n == 3:  # k order from zeros is not the einsum's order at n = 3
        return
    got = cases[0][2]
    ref = _einsum_assembly(grid, e0, e1, p, inc0, inc1)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    bare = cases[2][2]
    zero = CdVector(level, n, np.zeros((n, 2, dim)))
    bare_ref = _einsum_assembly(grid, e0, e1, zero, inc0, inc1)
    assert np.array_equal(bare, bare_ref)


def test_an_assembly_holds_blocks_not_a_second_path():
    """One whole-path assembly of 2048 replicas on 256 steps (n = 1,
    level 2, complexified) peaks within 4 MB above its 33.7 MB path: an
    accumulator of _BLOCK_BYTES, a half-size term buffer and the block's
    running sums (2.1 MB in all).  A whole-path accumulator would be a
    second 33.7 MB."""
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 256),
                       identity_complex_covariance(2, 1), None, seed=5,
                       n_replicas=2048)
    batch = ens.batch(0)
    args = (ens.grid, ens.sqrt_entries0, ens.sqrt_entries1, None,
            batch.inc0, batch.inc1, None)
    tracemalloc.start()
    try:
        w = assemble_paths(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert w.nbytes == 2048 * 257 * 8 * 8
    assert peak - w.nbytes <= 4 * 2 ** 20


# ----------------------------------------------------------------- CPU budget

@pytest.fixture
def blas():
    """The loaded OpenBLAS thread controls, restored after the test."""
    controls = paths_module._blas_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread control in this build")
    before = [get() for get, _ in controls]
    yield controls
    for (_, set_), count in zip(controls, before):
        set_(count)


def _counts(controls):
    return [get() for get, _ in controls]


def _budget_ensemble(n_replicas=64, batch_size=16):
    return PathEnsemble(TimeGrid.uniform(0.0, 1.0, 4),
                        identity_complex_covariance(1, 1), None, seed=29,
                        n_replicas=n_replicas, batch_size=batch_size)


def test_pool_caps_blas_inside_workers_and_restores(blas):
    before = _counts(blas)
    seen = _budget_ensemble().map_batches(lambda b: _counts(blas), threads=2)
    cap = max(1, available_cpus() // 2)
    assert seen == [[cap] * len(blas)] * 4
    assert _counts(blas) == before


def test_pool_restores_blas_after_fn_raises(blas):
    before = _counts(blas)

    def boom(b):
        if b.index == 2:
            raise RuntimeError("boom")
        return b.index

    with pytest.raises(RuntimeError, match="boom"):
        _budget_ensemble().map_batches(boom, threads=2)
    assert _counts(blas) == before


def test_inline_sweeps_leave_blas_alone(monkeypatch):
    calls = []
    fake = ((lambda: 0, calls.append),)  # 0: never a cap
    monkeypatch.setattr(paths_module, "_blas_controls", lambda: fake)
    _budget_ensemble().map_batches(lambda b: b.w.sum(), threads=1)
    _budget_ensemble(n_replicas=10).map_batches(lambda b: b.w.sum(),
                                                threads=3)
    paths_module.pool_map(abs, [-1.0], threads=4)
    assert calls == []
    # the fake is what a real pool reaches: cap, then restore
    _budget_ensemble().map_batches(lambda b: b.w.sum(), threads=2)
    assert calls == [max(1, available_cpus() // 2), 0]


def test_overlapping_sweeps_restore_the_original_count(blas):
    before = _counts(blas)
    barrier = threading.Barrier(4, timeout=30)  # 2 sweeps x 2 workers
    inside, errors = [], []

    def fn(b):
        barrier.wait()
        inside.append(_counts(blas))
        barrier.wait()
        return b.index

    def sweep():
        try:
            _budget_ensemble(n_replicas=32).map_batches(fn, threads=2)
        except Exception as exc:  # reported below, on the test's thread
            errors.append(exc)

    runners = [threading.Thread(target=sweep) for _ in range(2)]
    for t in runners:
        t.start()
    for t in runners:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in runners)
    assert errors == []
    assert inside == [[max(1, available_cpus() // 4)] * len(blas)] * 4
    assert _counts(blas) == before


def test_concurrent_sweeps_keep_the_budget_count(blas):
    """Many sweeps racing from many threads lose no open or close."""
    before = _counts(blas)
    interval = sys.getswitchinterval()
    errors = []

    def sweeps():
        try:
            for threads in (2, 3, 2, 3, 2):
                _budget_ensemble(n_replicas=48).map_batches(
                    lambda b: b.index, threads=threads)
        except Exception as exc:  # reported below, on the test's thread
            errors.append(exc)

    runners = [threading.Thread(target=sweeps) for _ in range(6)]
    sys.setswitchinterval(1e-6)
    try:
        for t in runners:
            t.start()
        for t in runners:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in runners)
    assert errors == []
    assert paths_module._pool_workers == 0
    assert _counts(blas) == before


def test_sweep_without_blas_controls_is_a_no_op(blas, monkeypatch):
    before = _counts(blas)
    monkeypatch.setattr(paths_module, "_blas_controls", lambda: ())
    seen = _budget_ensemble().map_batches(lambda b: _counts(blas), threads=2)
    assert seen == [before] * 4
    assert _counts(blas) == before


def test_blas_lookup_waits_for_the_first_pool():
    code = ("import cdstoch.paths as p; "
            "print(p._blas_control.cache_info().currsize)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "0"


class _FakeBlas:
    """A process-global thread count, as OpenBLAS keeps one."""

    def __init__(self, count):
        self.count = count

    def control(self):
        """A (get, set) pair, as each module's handle gives its own."""
        return (lambda: self.count), (lambda c: setattr(self, "count", c))


def test_a_library_loaded_under_an_open_pool_joins_the_next(monkeypatch):
    """A library that loads while a pool runs is capped from the next
    pool on, and every saved count is restored when the last one closes;
    one library reached through two handles ends at its first count."""
    monkeypatch.setattr(paths_module, "available_cpus", lambda: 8)
    numpy_blas, scipy_blas = _FakeBlas(7), _FakeBlas(5)
    loaded = [numpy_blas.control()]
    monkeypatch.setattr(paths_module, "_blas_controls", lambda: tuple(loaded))
    with paths_module._blas_budget(2):
        assert (numpy_blas.count, scipy_blas.count) == (4, 5)
        loaded += [scipy_blas.control(), numpy_blas.control()]
        assert (numpy_blas.count, scipy_blas.count) == (4, 5)
        with paths_module._blas_budget(2):
            assert (numpy_blas.count, scipy_blas.count) == (2, 2)
        assert (numpy_blas.count, scipy_blas.count) == (4, 4)
    assert (numpy_blas.count, scipy_blas.count) == (7, 5)
    assert paths_module._blas_saved == []
    with paths_module._blas_budget(4):  # a fresh save after the restore
        assert (numpy_blas.count, scipy_blas.count) == (2, 2)
    assert (numpy_blas.count, scipy_blas.count) == (7, 5)


def test_scipy_loaded_between_sweeps_joins_the_budget():
    """A 2-thread sweep, then scipy.linalg, then another: the second
    sweep's workers run on cpus // 2 threads in both OpenBLAS libraries,
    and both counts are restored after it."""
    code = """
import json, sys
import numpy as np
import cdstoch.paths as p
from cdstoch.algebra import CdReal
from cdstoch.linops import ComplexCovariance, CovarianceOperator

def counts():
    return [get() for get, _ in p._blas_controls()]

u = CovarianceOperator.simple(CdReal.from_real(1, 1.0), np.eye(1))
ens = p.PathEnsemble(p.TimeGrid.uniform(0.0, 1.0, 4),
                     ComplexCovariance(u, u), None, seed=29,
                     n_replicas=64, batch_size=16)
first = ens.map_batches(lambda b: counts(), threads=2)
import scipy.linalg
before = counts()
second = ens.map_batches(lambda b: counts(), threads=2)
print(json.dumps([first, before, second, counts(),
                  max(1, p.available_cpus() // 2)]))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=120)
    first, before, second, after, cap = json.loads(out.stdout)
    if len(before) < 2:
        pytest.skip("numpy and scipy do not both expose an OpenBLAS count")
    assert first == [[cap]] * 4
    assert second == [[cap, cap]] * 4
    assert after == before


@pytest.mark.parametrize("threads", [2, 3])
def test_reports_and_pins_hold_under_the_budget(threads, monkeypatch):
    """Sweep reports, batch row = assemble_paths on that row alone,
    and Picard = Euler, bitwise, at 1, 2 and 3 threads."""
    level, n = 3, 2
    grid = TimeGrid.uniform(0.0, 1.0, 16)
    u = identity_complex_covariance(level, n)
    p = CdVector(level, n, np.random.default_rng(8).standard_normal((n, 2, 8)))
    ens = PathEnsemble(grid, u, p, seed=41, n_replicas=5000)
    m = np.random.default_rng(9).standard_normal((17 * n * 2 * 8, 16))

    def sampler(b):  # a GEMM large enough for OpenBLAS to thread
        flat = b.w.reshape(b.count, -1) @ m
        return flat, np.sum(flat * flat, axis=1)

    serial = reports(ens, sampler, threads=1)
    for a, b in zip(serial, reports(ens, sampler, threads=threads)):
        assert _report_bits(a) == _report_bits(b)

    e0, e1 = u.u0.sqrt_entries(), u.u1.sqrt_entries()

    def rows_match(b):
        inc0, inc1 = b.inc0, b.inc1
        return all(np.array_equal(
            assemble_paths(grid, e0, e1, p, inc0[j:j + 1],
                           inc1[j:j + 1], None)[0], b.w[j])
            for j in (0, b.count // 2, b.count - 1))

    assert ens.map_batches(rows_match, threads=threads) == [True] * 3

    ident = RightLinearOp.identity(1, 1)
    prob = linear_problem(ident.scaled(-1.0), ident,
                          ZetaSpec.gaussian(1, 1, 0.5), 1)
    sde_ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 32),
                           identity_complex_covariance(1, 1), None, seed=17,
                           n_replicas=600, batch_size=128)
    forward = euler_maruyama(prob, sde_ens)
    em = sweep([forward], threads)[0]
    monkeypatch.setattr(sde_module, "PICARD_TOL", 0.0)
    monkeypatch.setattr(sde_module, "PICARD_M_MAX", 80)
    pic = picard_solve(prob, sde_ens, threads)
    assert np.array_equal(pic.values, em.values)
    assert np.array_equal(em.values, sweep([forward], 1)[0].values)
