"""Tests for the SDE solver layer."""

import contextlib
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

from cdstoch.algebra import AlgebraError, CdReal, LevelMismatch
from cdstoch.linops import (
    CdVector,
    ComplexCovariance,
    CovarianceOperator,
    RightLinearOp,
    op_exp_left,
    vec_norm2,
)
from cdstoch import paths, sde
from cdstoch.config import SDE_DRIFT
from cdstoch.experiments import (Row, _random_complex_cov, _random_four_block,
                                 _run_rows)
from cdstoch.paths import GridError, PathEnsemble, TimeGrid, sweep
from cdstoch.sde import (
    SdeError,
    SdeProblem,
    SolutionEnsemble,
    ZetaSpec,
    b2inf_norm,
    euler_maruyama,
    gronwall_bound,
    gronwall_check,
    linear_closed_form,
    linear_problem,
    lipschitz_validate,
    picard_decay_check,
    picard_em_gap,
    picard_solve,
    restart_markov_check,
    strong_order_study,
    uniqueness_study,
)


def one_real(level):
    c = np.zeros(2 ** level)
    c[0] = 1.0
    return CdReal(level, c)


def complexified_identity(level, n):
    u = CovarianceOperator.simple(one_real(level), np.eye(n))
    return ComplexCovariance(u, u)


def unit_zeta(level=1):
    return ZetaSpec.constant(CdVector.embedded_real(level, [1.0]))


def run(ens, probe, threads=1):
    """The result of one probe swept alone."""
    return sweep([(ens, probe)], threads)[0]


def forward(prob, ens, threads=1):
    """The forward scheme's solution of prob on ens."""
    return run(ens, euler_maruyama(prob, ens), threads)


def closed_form(prob, ens, threads=1):
    """The linear closed form's solution of prob on ens."""
    return run(ens, linear_closed_form(prob, ens), threads)


def linear_test_problem(level=1):
    ident = RightLinearOp.identity(level, 1)
    return linear_problem(ident.scaled(-1.0), ident, unit_zeta(level), 1)


def path_of(dw):
    """The path (replicas, points, m) that starts at zero and sums the
    increments dw (replicas, steps, m)."""
    b, _, m = dw.shape
    return np.cumsum(np.concatenate([np.zeros((b, 1, m)), dw], axis=1),
                     axis=1)


def apply_q(prob, grid, noise, x, start, out=None):
    """Q applied to x from start, into out (a fresh buffer when None)."""
    out = sde._time_major(*x.shape) if out is None else out
    sde._q_apply(prob, grid, noise, x, start, out)
    return out


def unit_ensemble(steps, seed, n_replicas, level=1, n=1, **kw):
    """Complexified-identity noise on [0, 1] with the given steps."""
    return PathEnsemble(TimeGrid.uniform(0.0, 1.0, steps),
                        complexified_identity(level, n), None, seed=seed,
                        n_replicas=n_replicas, **kw)


# ------------------------------------------------------------ initial values

def test_zeta_constant_and_gaussian_moments():
    z = unit_zeta()
    assert z.mean_norm2 == 2.0
    g = ZetaSpec.gaussian(1, 3, scale=0.5)
    assert g.mean_norm2 == pytest.approx(2 * 3 * 0.25)
    ens = unit_ensemble(4, seed=3, n_replicas=40000, n=3)
    samples = np.concatenate([g.sample(ens.batch(i))
                              for i in range(ens.n_batches)])
    second = 2.0 * np.mean(np.sum(samples ** 2, axis=1))
    assert abs(second - g.mean_norm2) < 0.02
    with pytest.raises(AlgebraError):
        ZetaSpec.gaussian(1, 1, np.inf)
    with pytest.raises(LevelMismatch):  # a level-2 value on level 1
        ZetaSpec(1, 1, np.ones(8), 0.0)


def test_problem_validation():
    with pytest.raises(AlgebraError):
        SdeProblem(None, None, unit_zeta(1), 0.0, 1)
    # the state's level meets the noise's when a solver is given both
    prob = SdeProblem(None, None, unit_zeta(2), 1.0, 1)
    with pytest.raises(LevelMismatch):
        euler_maruyama(prob, unit_ensemble(4, seed=3, n_replicas=4))


def test_problem_refuses_operator_coefficients_of_the_wrong_shape():
    """G must be (level, width, width) and H (level, width, n), checked
    when the problem is built, not at the first sweep."""
    ident = RightLinearOp.identity(1, 1)
    zeta2 = unit_zeta(2)
    with pytest.raises(LevelMismatch):  # a level-3 drift on a level-2 state
        linear_problem(RightLinearOp.identity(3, 1), None, zeta2, 1)
    with pytest.raises(LevelMismatch):
        linear_problem(None, RightLinearOp.identity(3, 1), zeta2, 1)
    with pytest.raises(LevelMismatch):  # a drift of width 2 on width 1
        SdeProblem(RightLinearOp.identity(1, 2), None, unit_zeta(), 1.0, 1)
    with pytest.raises(LevelMismatch):  # H reads one component, n is 2
        linear_problem(None, ident, unit_zeta(), 2)
    ok = linear_problem(ident.scaled(-1.0), ident, unit_zeta(), 1)
    assert ok.g is not None and ok.h is ident


def test_operator_drift_gives_the_bits_of_its_callback(monkeypatch):
    """A constant G steps as y @ G^T, the callback a linear problem
    used to wrap around it, bit for bit."""
    ident = RightLinearOp.identity(2, 1)
    g_op = RightLinearOp.left_mult(CdReal(2, [-0.5, 0.3, -0.2, 0.1]))
    zeta = ZetaSpec.gaussian(2, 1, 0.5)
    prob = linear_problem(g_op, ident, zeta, 1)
    assert prob.g is g_op
    as_callback = SdeProblem(lambda t, y: y @ g_op.realized.T, ident, zeta,
                             prob.k_const, 1)
    ens = unit_ensemble(16, seed=47, n_replicas=50, level=2)
    assert forward(prob, ens).values.tobytes() == \
        forward(as_callback, ens).values.tobytes()
    monkeypatch.setattr(sde, "PICARD_TOL", 0.0)
    monkeypatch.setattr(sde, "PICARD_M_MAX", 80)
    pic = picard_solve(prob, ens, 1)
    assert pic.values.tobytes() == forward(as_callback, ens).values.tobytes()


def test_problem_is_its_equation():
    """A problem holds G, H, zeta, K and the noise width, and no grid or
    law: those are the ensemble's."""
    assert [f.name for f in dataclasses.fields(SdeProblem)] == \
        ["g", "h", "zeta", "k_const", "n"]
    assert not hasattr(SdeProblem, "ensemble")


def test_solution_is_its_grid_values_and_diagnostics():
    """A solution holds its grid, its values and the scheme's diagnostics;
    level, width and scheme name are not kept beside them."""
    assert [f.name for f in dataclasses.fields(SolutionEnsemble)] == \
        ["grid", "values", "diagnostics"]


def test_one_problem_solves_on_any_grid_of_its_window(monkeypatch):
    """One problem, driven on two grids of one window, gives each grid's
    forward recursion bit for bit, by both schemes."""
    ident = RightLinearOp.identity(1, 1)
    g_mat, h_mat = ident.scaled(-1.0).realized, ident.realized
    prob = linear_test_problem()
    monkeypatch.setattr(sde, "PICARD_TOL", 0.0)
    monkeypatch.setattr(sde, "PICARD_M_MAX", 80)
    for steps in (8, 32):
        ens = unit_ensemble(steps, seed=43, n_replicas=20)
        grid = ens.grid
        batch = ens.batch(0)
        dw = np.diff(batch.w.reshape(batch.count, len(grid), -1), axis=1)
        y = prob.zeta.sample(batch)
        expect = [y]
        for l in range(steps):
            y = y + ((y @ g_mat.T) * float(grid.deltas[l])
                     + dw[:, l] @ h_mat.T)
            expect.append(y)
        expect = np.stack(expect, axis=1).reshape(batch.count, len(grid), 1,
                                                  2, 2)
        em = forward(prob, ens)
        assert em.grid is grid and em.values.tobytes() == expect.tobytes()
        pic = picard_solve(prob, ens, 1)
        assert pic.grid is grid and pic.values.tobytes() == expect.tobytes()


# ------------------------------------------------------------------ schemes

def test_zero_problem_stays_at_start():
    grid = TimeGrid.uniform(0.0, 1.0, 16)
    z = ZetaSpec.constant(CdVector.from_vec(1, 1, [1.5, 0.5, 0.0, 0.25]))
    prob = SdeProblem(None, None, z, 1.0, 1)
    sol = forward(prob, unit_ensemble(16, seed=3, n_replicas=12))
    assert np.all(sol.values == sol.values[:, :1])
    assert sol.diagnostics == {}
    assert np.array_equal(sol.values[:, grid.index_of(grid.a)],
                          sol.values[:, 0])


def test_euler_deterministic_ode_converges():
    errs = []
    prob = linear_problem(RightLinearOp.identity(1, 1).scaled(-1.0), None,
                          unit_zeta(), 1)
    for steps in (32, 64):
        sol = forward(prob, unit_ensemble(steps, seed=5, n_replicas=2))
        errs.append(abs(sol.values[0, -1, 0, 0, 0] - np.exp(-1.0)))
    assert errs[1] < 0.6 * errs[0]
    assert errs[0] < 0.02


def test_divergence_guard_flags_replicas():
    prob = SdeProblem(lambda t, y: y * 1e8, None, unit_zeta(), 1.0, 1)
    sol = forward(prob, unit_ensemble(8, seed=7, n_replicas=6))
    assert sol.diagnostics["aborted_replicas"] == 6
    assert np.all(np.isnan(sol.values[:, -1]))


def test_divergence_guard_aborts_only_the_rows_that_cross_it():
    """Rows that blow up, and one that starts at NaN, abort; every other
    row keeps the bits of the same recursion on a batch without them."""
    steps = 16
    grid = TimeGrid.uniform(0.0, 1.0, steps)
    ident = RightLinearOp.identity(1, 1)
    prob = SdeProblem(lambda t, y: 1e-4 * y ** 3, lambda t, y: [ident],
                      unit_zeta(), 1.0, 1)
    rng = np.random.default_rng(41)
    b = 12
    dw = rng.normal(size=(b, steps, 4)) / np.sqrt(steps)
    y0 = rng.normal(size=(b, 4))
    y0[1, 0] = 1e5  # crosses the guard at step 2
    y0[4, 2] = -3e3  # at step 3
    y0[6, 1] = np.nan
    wild = np.array([1, 4, 6])
    tame = np.setdiff1d(np.arange(b), wild)
    vals, aborted = sde._em_values(prob, grid, path_of(dw), y0)
    assert np.array_equal(np.flatnonzero(aborted), wild)
    assert np.all(np.isnan(vals[wild, -1]))
    assert np.all(np.isfinite(vals[tame]))
    alone, none = sde._em_values(prob, grid, path_of(dw[tame]), y0[tame])
    assert not none.any()
    assert vals[tame].tobytes() == alone.tobytes()
    # a NaN row with no row crossing the guard beside it
    rows = np.append(tame, 6)
    vals, aborted = sde._em_values(prob, grid, path_of(dw[rows]), y0[rows])
    assert np.flatnonzero(aborted).tolist() == [rows.size - 1]
    assert np.all(np.isnan(vals[-1, 1:]))
    assert vals[:-1].tobytes() == alone.tobytes()


def test_q_apply_resumes_past_its_stationary_prefix():
    """Q from any start up to the first change between an iterate and its
    predecessor, written over that predecessor, gives the bits of Q from
    0; one step later it does not."""
    prob = linear_test_problem()
    ens = unit_ensemble(32, seed=29, n_replicas=64)
    grid = ens.grid
    batch = ens.batch(0)
    noise = sde._picard_noise(prob, grid, sde._path_on(prob, batch, grid))
    z = prob.zeta.sample(batch)
    prev, x = None, sde._repeat_in_time(z, len(grid))
    for k in range(6):
        full = apply_q(prob, grid, noise, x, 0)
        if prev is not None:
            first = sde._stationary_prefix(x, prev, 0)
            assert k <= first <= grid.steps
            for p in range(first + 1):
                resumed = apply_q(prob, grid, noise, x, p, np.copy(prev))
                assert resumed.tobytes() == full.tobytes(), (k, p)
            late = apply_q(prob, grid, noise, x, first + 1, np.copy(prev))
            assert not np.array_equal(late, full)
        prev, x = x, full


@pytest.mark.parametrize("budget", [None, 2], ids=["process", "budget2"])
@pytest.mark.parametrize("rows", [1, 7, 300, 1952, 2048])
def test_picard_noise_and_drift_rows_keep_the_forward_step_bits(rows, budget):
    """The kick array a Picard batch holds gives every step the bits of
    dw[:, l] @ H^T, the product the forward step forms, and Q's drift
    written into an iterate row the bits of (y @ G^T) * dt, at the
    process's BLAS thread count and inside a two-worker budget.  Each is
    one (rows, m) product per step: one GEMM over every step at once is
    not bitwise that product on every BLAS and row count."""
    rng = np.random.default_rng(rows)
    ctx = contextlib.nullcontext() if budget is None \
        else paths._blas_budget(budget)
    with ctx:
        for level in range(4):
            dim = 2 ** level
            for n in (1, 2):
                for width in (1, 2):
                    h_op, g_op = (RightLinearOp.from_blocks(level, *(
                        rng.standard_normal((width, cols, dim))
                        for _ in range(4))) for cols in (n, width))
                    zeta = ZetaSpec.gaussian(level, width, 1.0)
                    prob = SdeProblem(g_op, h_op, zeta, 1.0, n)
                    for k in ((1, 3, 256) if rows <= 300 else (1, 9)):
                        grid = TimeGrid.uniform(0.0, 1.0, k)
                        path = sde._time_major(rows, k + 1, 2 * n * dim)
                        path[...] = rng.standard_normal(path.shape)
                        kicks = sde._picard_noise(prob, grid, path)
                        x = sde._time_major(rows, k, zeta.size)
                        x[...] = rng.standard_normal(x.shape)
                        drift = sde._time_major(rows, k, zeta.size)
                        for l in range(k):
                            dw_l = path[:, l + 1] - path[:, l]
                            assert kicks[:, l].tobytes() == (
                                dw_l @ h_op.realized.T).tobytes()
                            dt = float(grid.deltas[l])
                            sde._drift_step(prob, 0.0, dt, x[:, l],
                                            drift[:, l])
                            assert drift[:, l].tobytes() == (
                                (x[:, l] @ g_op.realized.T) * dt).tobytes()


def test_solver_steps_are_contiguous_and_results_c_ordered():
    """Step slices of the solver arrays, and the path points the kernels
    subtract, are contiguous blocks; what is reduced over replicas
    (solution values, probe samples) is C-ordered."""
    prob = linear_test_problem()
    ens = unit_ensemble(16, seed=31, n_replicas=40)
    grid = ens.grid
    batch = ens.batch(0)
    w = batch.w.reshape(batch.count, len(grid), -1)
    for stride in (1, 2):
        sub = TimeGrid(grid.points[::stride])
        view = sde._path_on(prob, batch, sub)
        expect = np.diff(w[:, ::stride], axis=1)
        buf = np.empty_like(view[:, 0])
        for l in range(sub.steps):
            assert np.array_equal(
                np.subtract(view[:, l + 1], view[:, l], out=buf), expect[:, l])
        assert all(view[:, j].flags.c_contiguous for j in range(len(sub)))
    path = sde._path_on(prob, batch, grid)
    z = prob.zeta.sample(batch)
    vals, _ = sde._em_values(prob, grid, path, z)
    cf = sde._time_major(40, len(grid), 4)
    sde._closed_form_kernel(prob, grid)(path, z, cf)
    noise = sde._picard_noise(prob, grid, path)
    assert all(noise[:, l].flags.c_contiguous for l in range(grid.steps))
    for arr in (vals, cf, apply_q(prob, grid, noise, vals, 0)):
        assert arr.shape == (40, len(grid), 4)
        assert all(arr[:, l].flags.c_contiguous for l in range(len(grid)))
    for scheme, sol in (("euler", forward(prob, ens)),
                        ("picard", picard_solve(prob, ens, 1)),
                        ("closed_form", closed_form(prob, ens))):
        assert sol.values.flags.c_contiguous, scheme
    probe = uniqueness_study(prob, ens, halvings=2)
    samples = probe.sample(batch)
    assert len(samples) == 3
    assert all(s.flags.c_contiguous for s in samples)


def test_closed_form_pure_noise_and_pure_drift():
    grid = TimeGrid.uniform(0.0, 1.0, 32)
    ident = RightLinearOp.identity(1, 1)
    u = complexified_identity(1, 1)
    ens = PathEnsemble(grid, u, None, seed=9, n_replicas=5)
    cf = closed_form(linear_problem(None, ident, unit_zeta(), 1), ens)
    batch = ens.batch(0)
    expect = (batch.w - batch.w[:, :1]).copy()
    expect[:, :, 0, 0, 0] += 1.0
    assert np.allclose(cf.values, expect, atol=1e-13)

    g = ident.scaled(-0.7)
    cf2 = closed_form(linear_problem(g, None, unit_zeta(), 1), ens)
    for idx in (0, 7, 32):
        t = float(grid.points[idx])
        orbit = op_exp_left(g, t) @ unit_zeta().value
        assert np.allclose(cf2.values[0, idx].reshape(-1), orbit, atol=1e-10)


def test_closed_form_step_is_conditional_mean_for_scalar_drift():
    """For G = -c I one step is e^{-c dt} y + (1 - e^{-c dt})/(c dt) dw."""
    c, steps = 1.3, 16
    grid = TimeGrid.uniform(0.0, 1.0, steps)
    ident = RightLinearOp.identity(1, 1)
    ens = PathEnsemble(grid, complexified_identity(1, 1), None, seed=4,
                       n_replicas=6)
    cf = closed_form(linear_problem(ident.scaled(-c), ident, unit_zeta(), 1),
                     ens)
    batch = ens.batch(0)
    w = batch.w.reshape(batch.count, len(grid), -1)
    y = cf.values.reshape(batch.count, len(grid), -1)
    dt = 1.0 / steps
    decay = np.exp(-c * dt)
    phi1 = (1.0 - decay) / (c * dt)
    for l in range(steps):
        expect = decay * y[:, l] + phi1 * (w[:, l + 1] - w[:, l])
        assert np.allclose(y[:, l + 1], expect, rtol=0.0, atol=1e-13)


def test_picard_trivial_and_nonconvergence(monkeypatch):
    prob = SdeProblem(None, None, unit_zeta(), 1.0, 1)
    sol = picard_solve(prob, unit_ensemble(8, seed=3, n_replicas=4), 1)
    assert sol.diagnostics["iterations"] == 1
    assert sol.diagnostics["distances"] == [0.0]

    hard = linear_test_problem()
    monkeypatch.setattr(sde, "PICARD_M_MAX", 1)
    with pytest.raises(SdeError):
        picard_solve(hard, unit_ensemble(16, seed=5, n_replicas=8), 1)


def test_picard_agrees_with_forward_scheme(monkeypatch):
    prob = linear_test_problem()
    ens = unit_ensemble(64, seed=11, n_replicas=512)
    pic = picard_solve(prob, ens, 1)
    em = forward(prob, ens)
    assert b2inf_norm(pic.values - em.values) < 1e-7
    monkeypatch.setattr(sde, "PICARD_TOL", 0.0)
    monkeypatch.setattr(sde, "PICARD_M_MAX", 80)
    pic0 = picard_solve(prob, ens, 1)
    assert np.array_equal(pic0.values, em.values)
    decay = picard_decay_check(pic.diagnostics["distances"],
                               c1=2 * prob.k_const + 2, span=1.0)
    assert decay["passed"], decay


def test_picard_maps_no_stationary_batch(monkeypatch):
    """Over several batches, Picard = Euler bitwise, and a batch whose
    iterate is already a fixed point is not mapped again while the
    others still move."""
    prob = linear_test_problem()
    ens = unit_ensemble(16, seed=39, n_replicas=300, batch_size=64)
    starts = {}
    q_apply = sde._q_apply

    def spy(problem, grid, noise, x, start, out):
        starts.setdefault(id(noise), []).append(start)
        return q_apply(problem, grid, noise, x, start, out)

    monkeypatch.setattr(sde, "_q_apply", spy)
    monkeypatch.setattr(sde, "PICARD_TOL", 0.0)
    monkeypatch.setattr(sde, "PICARD_M_MAX", 80)
    pic = picard_solve(prob, ens, 1)
    assert np.array_equal(pic.values, forward(prob, ens).values)
    iterations = pic.diagnostics["iterations"]
    assert len(starts) == ens.n_batches
    assert all(s == sorted(s) and len(s) <= iterations
               for s in starts.values())
    assert min(len(s) for s in starts.values()) < iterations


def picard_oracle(prob, ens):
    """picard_solve run serially, each gap summed over the whole iterate."""
    grid = ens.grid
    runs = [sde._PicardBatch(prob, grid, sde._path_on(prob, b, grid),
                             prob.zeta.sample(b))
            for b in map(ens.batch, range(ens.n_batches))]
    distances, starts = [], set()
    for _ in range(sde.PICARD_M_MAX):
        per_t = []
        for run in runs:
            old = run.x
            starts.add(run.start)
            run.advance()
            per_t.append(np.sum(np.ascontiguousarray(vec_norm2(run.x - old)),
                                axis=0))
        distances.append(float(np.sqrt(np.max(paths._tree_sum(per_t)
                                              / ens.n_replicas))))
        if distances[-1] <= sde.PICARD_TOL:
            break
    return np.concatenate([run.x for run in runs]), distances, starts


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("to_fixed_point", [False, True])
def test_picard_gaps_match_the_full_array_sum(threads, to_fixed_point,
                                              monkeypatch):
    """Gaps summed from the stationary prefix on, in the workers, give
    distances and values with the bits of the sum over every point, at
    each prefix length down to the last point."""
    ident = RightLinearOp.identity(1, 1)
    prob = linear_problem(ident.scaled(-1.0), ident,
                          ZetaSpec.gaussian(1, 1, 0.5), 1)
    ens = unit_ensemble(16, seed=43, n_replicas=300, batch_size=64)
    if to_fixed_point:
        monkeypatch.setattr(sde, "PICARD_TOL", 0.0)
        monkeypatch.setattr(sde, "PICARD_M_MAX", 80)
    values, distances, starts = picard_oracle(prob, ens)
    pic = picard_solve(prob, ens, threads)
    assert pic.diagnostics["distances"] == distances
    assert pic.values.tobytes() == values.tobytes()
    if to_fixed_point:
        assert distances[-1] == 0.0
        assert {0, len(ens.grid) - 1} <= starts


def test_picard_matches_closed_form_for_linear_problem():
    prob = linear_test_problem()
    ens = unit_ensemble(128, seed=13, n_replicas=2000)
    pic = picard_solve(prob, ens, 2)
    cf = closed_form(prob, ens, threads=2)
    gap = b2inf_norm(pic.values - cf.values)
    assert gap < 5e-2, gap


def test_uniqueness_study_gaps_vanish():
    grid = TimeGrid.uniform(0.0, 1.0, 64)
    ident = RightLinearOp.identity(1, 1)
    ens = PathEnsemble(grid, complexified_identity(1, 1), None, seed=33,
                       n_replicas=1000)
    rep = run(ens, uniqueness_study(
        linear_problem(ident.scaled(-1.0), ident, unit_zeta(), 1), ens,
        halvings=3))
    assert rep["passed"]
    assert max(rep["b2inf_gaps"]) == 0.0
    with pytest.raises(GridError):
        uniqueness_study(linear_test_problem(), ens, halvings=9)


def test_uniqueness_study_runs_its_batches_on_the_pool(monkeypatch):
    grid = TimeGrid.uniform(0.0, 1.0, 32)
    ident = RightLinearOp.identity(1, 1)
    ens = PathEnsemble(grid, complexified_identity(1, 1), None, seed=35,
                       n_replicas=300, batch_size=64)
    assert ens.n_batches >= 3

    problem = linear_problem(ident.scaled(-1.0), ident,
                             ZetaSpec.gaussian(1, 1, 0.5), 1)

    pools = []
    pool = paths.pool_map

    def spy(fn, items, threads):
        pools.append(threads)
        return pool(fn, items, threads)

    # every sweep, through map_batches or sde._map, reaches pool_map
    monkeypatch.setattr(paths, "pool_map", spy)
    monkeypatch.setattr(sde, "pool_map", spy)
    one = run(ens, uniqueness_study(problem, ens, halvings=2), threads=1)
    three = run(ens, uniqueness_study(problem, ens, halvings=2), threads=3)
    assert pools == [1, 3]  # one sweep for the whole study
    assert one == three
    assert [np.float64(g).tobytes() for g in one["b2inf_gaps"]] == \
        [np.float64(g).tobytes() for g in three["b2inf_gaps"]]


# -------------------------------------------------------------------- norms

def test_b2inf_norm_properties():
    zeros = np.zeros((5, 3, 1, 2, 2))
    assert b2inf_norm(zeros) == 0.0
    const = np.zeros((5, 3, 1, 2, 2))
    const[..., 0, 0] = np.sqrt(2.0)
    assert b2inf_norm(const) == pytest.approx(2.0)
    rng = np.random.default_rng(17)
    x = rng.normal(size=(64, 4, 6))
    y = rng.normal(size=(64, 4, 6))
    assert b2inf_norm(x + y) <= b2inf_norm(x) + b2inf_norm(y) + 1e-12
    with pytest.raises(AlgebraError):
        b2inf_norm(np.zeros((0, 3, 4)))


# ------------------------------------------------------------------- checks

def test_lipschitz_linear_and_constant_cases():
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    neg = SdeProblem(lambda t, y: -y, None, unit_zeta(), 1.0, 1)
    rep = lipschitz_validate(neg, grid, 4000, seed=0)
    assert rep["passed"]
    assert rep["max_lipschitz_ratio"] == pytest.approx(1.0)

    const = SdeProblem(None, RightLinearOp.identity(1, 1), unit_zeta(),
                       1.5, 1)
    rep2 = lipschitz_validate(const, grid, 4000, seed=0)
    assert rep2["passed"]
    assert rep2["max_lipschitz_ratio"] == 0.0
    assert rep2["max_growth_ratio"] <= np.sqrt(2.0) + 1e-9

    with pytest.raises(AlgebraError):
        lipschitz_validate(const, grid, 0, seed=0)


def test_lipschitz_check_fails_on_a_nan_map():
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    prob = SdeProblem(lambda t, y: np.full_like(y, np.nan), None,
                      unit_zeta(), 1.0, 1)
    rep = lipschitz_validate(prob, grid, 400, seed=0)
    assert not rep["passed"]
    assert np.isnan(rep["max_lipschitz_ratio"])
    assert np.isnan(rep["max_growth_ratio"])


def test_lipschitz_falsifies_quadratic_growth():
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    prob = SdeProblem(lambda t, y: y * np.abs(y), None, unit_zeta(), 1.0, 1)
    rep = lipschitz_validate(prob, grid, 4000, seed=0)
    assert not rep["passed"]
    assert rep["max_lipschitz_ratio"] > 10.0


def test_restart_markov_exact_and_edge():
    prob = linear_test_problem()
    ens = unit_ensemble(32, seed=19, n_replicas=4000)
    start = CdVector.embedded_real(1, [1.0])
    rep = run(ens, restart_markov_check(prob, ens, 0.5, start), threads=2)
    assert rep["passed"], rep
    assert rep["max_pathwise_deviation"] == 0.0
    edge_ens = unit_ensemble(32, seed=23, n_replicas=512)
    edge = run(edge_ens, restart_markov_check(prob, edge_ens,
                                              edge_ens.grid.a, start))
    assert edge["max_pathwise_deviation"] == 0.0


def test_restart_flow_property_without_noise():
    prob = linear_problem(RightLinearOp.identity(1, 1).scaled(-0.5), None,
                          unit_zeta(), 1)
    ens = unit_ensemble(16, seed=3, n_replicas=256)
    rep = run(ens, restart_markov_check(
        prob, ens, 0.5, CdVector.embedded_real(1, [1.0])))
    assert rep["passed"]
    assert rep["max_pathwise_deviation"] == 0.0


def test_restart_check_runs_its_problems_on_one_sweep(monkeypatch):
    """Problems sharing an ensemble, as battery rows, get the results each
    gets alone, from one assembly per batch."""
    prob = linear_test_problem()
    noise_only = linear_problem(None, RightLinearOp.identity(1, 1),
                                ZetaSpec.gaussian(1, 1, 0.5), 1)
    ens = unit_ensemble(16, seed=37, n_replicas=300, batch_size=128)
    z = CdVector.embedded_real(1, [0.7])
    alone = [run(ens, restart_markov_check(pb, ens, 0.5, z), threads=2)
             for pb in (prob, noise_only)]
    assembled = []
    assemble = paths.assemble_paths

    def counting(*args):
        assembled.append(1)
        return assemble(*args)

    monkeypatch.setattr(paths, "assemble_paths", counting)
    rows = [Row(ens, restart_markov_check(pb, ens, 0.5, z), lambda res: res)
            for pb in (prob, noise_only)]
    both = _run_rows(rows, threads=2)
    assert len(assembled) == ens.n_batches == 3
    assert both == alone


# scipy.stats is the oracle of the KS probe; the package does not import it
KS_SIZES = (1, 2, 7, 128, 256, 1000, 2000, 4096, 10000)


def scipy_ks(x, y):
    """scipy's p-value, and whether its exact route produced it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = float(scipy.stats.ks_2samp(x, y).pvalue)
    fell_back = any("Exact calculation unsuccessful" in str(w.message)
                    for w in caught)
    return p, not fell_back


def ks_samples(n):
    """Equal-size sample pairs: continuous, shifted, tied, identical, and
    staggered grids whose statistic is exactly h / n for every small h."""
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=n), rng.normal(size=n)
    yield x, y
    yield x, y + 0.3
    yield np.round(x, 1), np.round(y, 1)
    yield x, x.copy()
    ramp = np.arange(n, dtype=float)
    for h in range(1, min(n, 30) + 1):
        yield ramp, ramp + h - 0.5


@pytest.mark.parametrize("n", KS_SIZES)
def test_ks_pvalue_matches_scipy(n):
    """Bit for bit where scipy's exact route succeeds; where it falls back
    to the asymptotic law the p-value is near 1 and the verdict agrees."""
    thresholds = (0.01, 0.01 / 4, 0.01 / 8, 0.01 / 16)
    for x, y in ks_samples(n):
        got = sde._ks_2samp_pvalue(x, y)
        want, exact = scipy_ks(x, y)
        assert type(got) is float and 0.0 <= got <= 1.0
        if exact:
            assert got.hex() == want.hex(), (n, got, want)
        else:
            assert abs(got - want) <= 4e-5, (n, got, want)
            assert [got >= t for t in thresholds] == \
                [want >= t for t in thresholds]


def test_ks_pvalue_edges():
    x = np.linspace(-1.0, 1.0, 64)
    assert sde._ks_2samp_pvalue(x, x[::-1].copy()) == 1.0
    # n = 7, h = 1: scipy's exact sum leaves [0, 1] and it falls back
    ramp = np.arange(7, dtype=float)
    want, exact = scipy_ks(ramp, ramp + 0.5)
    assert not exact and 1.0 - want < 4e-5
    assert sde._ks_2samp_pvalue(ramp, ramp + 0.5) == 1.0
    with pytest.raises(SdeError):
        sde._ks_2samp_pvalue(x, x[:-1])
    with pytest.raises(SdeError):
        sde._ks_2samp_pvalue(x[:0], x[:0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_pvalue_fails_on_non_finite_samples(bad):
    """A diverged replica must fail the probe, not drop its coordinate."""
    x = np.linspace(-1.0, 1.0, 64)
    y = x[::-1].copy()
    y[5] = bad
    assert sde._ks_2samp_pvalue(x, y) == 0.0
    assert sde._ks_2samp_pvalue(y, x) == 0.0


def test_gronwall_bound_holds():
    prob = linear_test_problem()
    ens = unit_ensemble(32, seed=29, n_replicas=4000)
    rep = run(ens, gronwall_bound(prob, ens))
    assert rep["passed"]
    assert rep["sup_mean_norm2"] <= rep["bound"]


def random_linear_problem(rng, level, width, n):
    """Random constant coefficients, each scaled to operator norm 1."""
    g = _random_four_block(rng, level, width, width)
    h = _random_four_block(rng, level, width, n)
    return linear_problem(g.scaled(1.0 / np.linalg.norm(g.realized, 2)),
                          h.scaled(1.0 / np.linalg.norm(h.realized, 2)),
                          ZetaSpec.gaussian(level, width, 0.5), n)


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("replicas", [15, 16, 17, 40])
def test_norm_rows_keep_the_bits_of_the_gathered_gates(replicas, threads):
    """picard_em_gap and gronwall_bound, which gather norms per replica
    and point, give the bits of b2inf_norm(picard.values - em.values)
    and of gronwall_check on the gathered forward solution, at replica
    counts around the 16-replica batch boundary."""
    rng = np.random.default_rng(replicas)
    for level, width, n in ((1, 1, 1), (2, 2, 1), (0, 1, 2)):
        prob = random_linear_problem(rng, level, width, n)
        ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 12),
                           _random_complex_cov(rng, level, n), None,
                           seed=replicas + level, n_replicas=replicas,
                           batch_size=16)
        picard = picard_solve(prob, ens, threads)
        em = forward(prob, ens, threads)
        gap = run(ens, picard_em_gap(prob, ens, picard), threads)
        expect = b2inf_norm(picard.values - em.values)
        assert 0.0 < expect
        assert np.float64(gap).tobytes() == np.float64(expect).tobytes()
        got = run(ens, gronwall_bound(prob, ens), threads)
        expect = gronwall_check(prob, em)
        assert got["passed"] == expect["passed"]
        for key in ("sup_mean_norm2", "bound"):
            assert np.float64(got[key]).tobytes() == \
                np.float64(expect[key]).tobytes(), key


def test_norm_rows_gather_a_float_per_replica_and_point():
    """What the agreement and Gronwall rows hand their gates is one
    (replicas, K+1) float array per batch, not a trajectory."""
    prob = linear_test_problem()
    ens = unit_ensemble(16, seed=41, n_replicas=40, batch_size=32)
    picard = picard_solve(prob, ens, 1)
    for probe in (picard_em_gap(prob, ens, picard), gronwall_bound(prob, ens)):
        for index in range(ens.n_batches):
            batch = ens.batch(index)
            (norms,) = probe.sample(batch)
            assert norms.shape == (batch.count, len(ens.grid))
            assert norms.dtype == np.float64
    with pytest.raises(GridError):
        picard_em_gap(prob, unit_ensemble(8, seed=41, n_replicas=40), picard)


def test_a_noise_free_problem_reads_no_path(monkeypatch):
    """Without a diffusion the forward solution, Picard, the restart rows
    and the uniqueness ladder assemble no path, and the forward values
    keep the bits of the recursion run over the path's increments."""
    g = RightLinearOp.identity(1, 1).scaled(-1.0)
    prob = linear_problem(g, None, ZetaSpec.gaussian(1, 1, 0.5), 1)
    ens = unit_ensemble(16, seed=43, n_replicas=300, batch_size=128)
    grid = ens.grid
    expect = np.concatenate([
        sde._em_values(prob, grid, b.w.reshape(b.count, len(grid), -1),
                       prob.zeta.sample(b))[0]
        for b in map(ens.batch, range(ens.n_batches))])
    assembled = []
    assemble = paths.assemble_paths

    def counting(*args):
        assembled.append(1)
        return assemble(*args)

    monkeypatch.setattr(paths, "assemble_paths", counting)
    sol = run(ens, euler_maruyama(prob, ens), threads=2)
    picard_solve(prob, ens, 2)
    run(ens, restart_markov_check(prob, ens, 0.5,
                                  CdVector.embedded_real(1, [0.7])), threads=2)
    run(ens, uniqueness_study(prob, ens, halvings=2), threads=2)
    assert assembled == []
    assert sol.values.reshape(expect.shape).tobytes() == expect.tobytes()


# -------------------------------------------------------------- convergence

def test_a_strong_order_sample_holds_no_reference_trajectory():
    """One grid-256 batch of 2048 replicas of the sde battery's problem
    peaks within 2 MB above its finest level's forward trajectory
    (2048 x 129 x 8 floats, 16.9 MB), beyond its path: the reference
    runs through a pair of rows.  Its whole trajectory would be 33.7 MB."""
    level = 2
    ident = RightLinearOp.identity(level, 1)
    prob = linear_problem(RightLinearOp.left_mult(CdReal(level, SDE_DRIFT)),
                          ident, unit_zeta(level), 1)
    ens = unit_ensemble(256, seed=47, n_replicas=2048, level=level)
    probe = strong_order_study(prob, ens, halvings=4)
    batch = ens.batch(0)
    path = batch.w
    tracemalloc.start()
    try:
        errors = probe.sample(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.nbytes == 2048 * 257 * 8 * 8
    assert len(errors) == 4
    assert peak <= 2048 * 129 * 8 * 8 + 2 * 2 ** 20


def test_strong_order_against_closed_form_is_near_one():
    """Additive noise makes the forward scheme first order accurate, so
    the observed slope sits near 1; this pin records that behavior."""
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    ens = PathEnsemble(grid, complexified_identity(1, 1), None, seed=17,
                       n_replicas=2000)
    prob = linear_test_problem()
    rep = run(ens, strong_order_study(prob, ens, halvings=4), threads=2)
    errs = [row["error"] for row in rep["table"]]
    assert all(errs[i] < errs[i + 1] for i in range(len(errs) - 1))
    assert 0.7 < rep["slope"] < 1.2, rep
    with pytest.raises(GridError, match="two halvings"):
        strong_order_study(prob, ens, halvings=1)


def test_multiplicative_noise_shows_half_order():
    """With state-dependent diffusion the forward scheme drops to strong
    order 1/2; the study machinery must resolve that regime."""
    grid = TimeGrid.uniform(0.0, 1.0, 256)
    u = complexified_identity(1, 1)
    ens = PathEnsemble(grid, u, None, seed=21, n_replicas=2000)
    ident = RightLinearOp.identity(1, 1)

    def hmul(t, y):
        return np.tanh(y[:, 0]), ident

    from cdstoch.sde import _em_values, _path_on

    factors = [2, 4, 8, 16]
    prob = SdeProblem(None, hmul, unit_zeta(), 2.0, 1)
    sq = np.zeros(len(factors))
    for batch in map(ens.batch, range(ens.n_batches)):
        z = unit_zeta().sample(batch)
        ref, _ = _em_values(prob, grid, _path_on(prob, batch, grid), z)
        for i, f in enumerate(factors):
            sub = TimeGrid(grid.points[::f])
            vals, _ = _em_values(prob, sub, _path_on(prob, batch, sub), z)
            sq[i] += np.sum((vals[:, -1] - ref[:, -1]) ** 2)
    errs = np.sqrt(sq / ens.n_replicas)
    dts = [f / 256 for f in factors]
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    assert 0.35 < slope < 0.75, slope


def test_driving_validation():
    prob = linear_test_problem()
    wrong_n = unit_ensemble(8, seed=3, n_replicas=4, n=2)
    with pytest.raises(LevelMismatch):
        euler_maruyama(prob, wrong_n)
    with pytest.raises(LevelMismatch):
        picard_solve(prob, wrong_n, 1)
    with pytest.raises(LevelMismatch):
        uniqueness_study(prob, wrong_n, halvings=2)
    wrong_level = unit_ensemble(8, seed=3, n_replicas=4, level=2)
    with pytest.raises(LevelMismatch):
        linear_closed_form(prob, wrong_level)


def test_closed_form_and_strong_order_refuse_a_foreign_noise_width():
    """Every noise-drawing route checks its driving when it is built."""
    prob = linear_test_problem()
    wrong_n = unit_ensemble(16, seed=3, n_replicas=4, n=2)
    with pytest.raises(LevelMismatch):
        linear_closed_form(prob, wrong_n)
    with pytest.raises(LevelMismatch):
        strong_order_study(prob, wrong_n, halvings=2)


def test_closed_form_refuses_callback_coefficients():
    ens = unit_ensemble(16, seed=3, n_replicas=4)
    ident = RightLinearOp.identity(1, 1)
    drift_fn = SdeProblem(lambda t, y: -y, ident, unit_zeta(), 1.0, 1)
    noise_fn = SdeProblem(None, lambda t, y: [ident], unit_zeta(), 1.0, 1)
    for prob in (drift_fn, noise_fn):
        with pytest.raises(SdeError):
            linear_closed_form(prob, ens)
        with pytest.raises(SdeError):
            strong_order_study(prob, ens, halvings=2)


def test_restart_check_refuses_a_start_of_the_wrong_shape():
    prob = linear_test_problem()
    ens = unit_ensemble(16, seed=3, n_replicas=20)
    with pytest.raises(LevelMismatch):
        restart_markov_check(prob, ens, 0.5,
                             CdVector.embedded_real(1, [0.7, 0.7]))
    with pytest.raises(LevelMismatch):
        restart_markov_check(prob, ens, 0.5, CdVector.embedded_real(2, [0.7]))


def test_diffusion_term_validation():
    ens = unit_ensemble(4, seed=3, n_replicas=6)
    bad_w = SdeProblem(None, lambda t, y: (np.ones(3), RightLinearOp.identity(1, 1)),
                       unit_zeta(), 1.0, 1)
    with pytest.raises(AlgebraError):
        forward(bad_w, ens)
    # a constant H of the wrong level is refused when the problem is built
    with pytest.raises(LevelMismatch):
        SdeProblem(None, RightLinearOp.identity(2, 1), unit_zeta(), 1.0, 1)
