"""Tests for the stochastic integral layer."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from cdstoch.algebra import AlgebraError, CdReal, LevelMismatch, dim_of
from cdstoch.integrals import (
    StepIntegrand,
    _second_moment_samples,
    bound_check,
    chebyshev_check,
    continuity_check,
    integral_paths,
    isometry_check,
    lookahead_control,
    martingale_check,
    refinement_study,
    zero_mean_check,
)
from cdstoch.linops import (
    ComplexCovariance,
    CovarianceOperator,
    RightLinearOp,
    f_functional_cross,
    hs_inner,
    vec_norm2,
)
from cdstoch.paths import GridError, PathEnsemble, TimeGrid, sweep


def one_real(level):
    c = np.zeros(dim_of(level))
    c[0] = 1.0
    return CdReal(level, c)


def unit_real(level, axis):
    c = np.zeros(dim_of(level))
    c[axis] = 1.0
    return CdReal(level, c)


def identity_cov(level, n):
    return CovarianceOperator.simple(one_real(level), np.eye(n))


def complexified_identity(level, n):
    u = identity_cov(level, n)
    return ComplexCovariance(u, u)


def small_ensemble(level=1, n=1, steps=16, seed=11, replicas=8,
                   complexified=True):
    grid = TimeGrid.uniform(0.0, 1.0, steps)
    u = complexified_identity(level, n) if complexified else identity_cov(level, n)
    return PathEnsemble(grid, u, None, seed=seed, n_replicas=replicas)


def run(probe, threads=1):
    """The result of one probe swept alone."""
    return sweep([probe], threads)[0]


def random_op(rng, level, h, n):
    dim = dim_of(level)
    return RightLinearOp.from_blocks(
        level,
        s00=rng.normal(size=(h, n, dim)),
        s01=rng.normal(size=(h, n, dim)),
        s10=rng.normal(size=(h, n, dim)),
        s11=rng.normal(size=(h, n, dim)),
    )


# --------------------------------------------------------- elementary values

def test_identity_integrand_telescopes():
    ens = small_ensemble(level=2, n=2, replicas=6)
    s = StepIntegrand.constant(ens.grid, RightLinearOp.identity(2, 2))
    for batch in map(ens.batch, range(ens.n_batches)):
        eta = integral_paths(s, batch.w)
        assert np.array_equal(eta, batch.w - batch.w[:, :1])


def test_single_step_truncation():
    ens = small_ensemble(level=1, n=2, steps=8, seed=3)
    grid = ens.grid
    rng = np.random.default_rng(0)
    op = random_op(rng, 1, 3, 2)
    # the first step carries op, every later one the zero operator
    s = StepIntegrand.from_ops(grid, [op] + [op.scaled(0.0)] * (grid.steps - 1))
    w = ens.batch(0).w[:1]
    eta = integral_paths(s, w)
    inc = (w[0, 1] - w[0, 0]).reshape(-1)
    expected = inc @ op.realized.T
    for t in (grid.points[1], grid.points[4], grid.b):
        got = eta[0, grid.index_of(float(t))]
        assert np.allclose(got.reshape(-1), expected, atol=1e-14)
    assert not eta[0, grid.index_of(grid.a)].any()


def test_partition_must_lie_on_grid():
    """Every check refuses an integrand whose grid is not the ensemble's:
    a foreign partition, and a coarse or windowed one on its points; the
    engine refuses a path of another length."""
    ens = small_ensemble(steps=8)
    plain = small_ensemble(steps=8, complexified=False)
    grid = ens.grid
    ident = RightLinearOp.identity(1, 1)
    checks = (lambda s: zero_mean_check(s, ens),
              lambda s: isometry_check(s, plain),
              lambda s: bound_check(s, ens),
              lambda s: martingale_check(s, ens, 0.5, 1.0),
              lambda s: chebyshev_check(s, ens, 1.0, 1.0),
              lambda s: continuity_check(s, ens, 1.0, 1))
    for part in (TimeGrid(np.array([0.0, 0.3, 1.0])),
                 TimeGrid(grid.points[::2]), TimeGrid(grid.points[:5])):
        s = StepIntegrand.constant(part, ident)
        for check in checks:
            with pytest.raises(GridError):
                check(s)
        with pytest.raises(AlgebraError):
            integral_paths(s, ens.batch(0).w)


def test_slot_count_must_match_partition():
    part = TimeGrid(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(GridError):
        StepIntegrand(part, (RightLinearOp.identity(1, 1),), 1, 1, 1)


def test_additivity_over_adjacent_windows():
    ens = small_ensemble(level=1, n=2, steps=16, seed=7)
    grid = ens.grid
    rng = np.random.default_rng(1)
    # a step function on every 4th point, written on the grid
    ops = [random_op(rng, 1, 2, 2) for _ in range(4)]
    s = StepIntegrand.from_ops(grid, [ops[l // 4] for l in range(16)])
    w = ens.batch(0).w[:1]
    c = float(grid.points[8])
    whole = integral_paths(s, w)[0, -1]
    # each half integrates on its own sub-grid
    left = integral_paths(s.restrict(grid.a, c), w[:, :9])[0, -1]
    right = integral_paths(s.restrict(c, grid.b), w[:, 8:])[0, -1]
    assert np.allclose(whole, left + right, atol=1e-12)


def test_linearity_in_the_integrand():
    ens = small_ensemble(level=1, n=1, steps=8, seed=9)
    grid = ens.grid
    rng = np.random.default_rng(2)
    op1, op2 = random_op(rng, 1, 1, 1), random_op(rng, 1, 1, 1)
    s1 = StepIntegrand.constant(grid, op1)
    s2 = StepIntegrand.constant(grid, op2)
    # a slot returning a list of operators integrates their sum
    summed = StepIntegrand(grid, (lambda view: [op1, op2],) * grid.steps,
                           1, 1, 1)
    batch = ens.batch(0)
    joint = integral_paths(summed, batch.w)
    split = (integral_paths(s1, batch.w)
             + integral_paths(s2, batch.w))
    assert np.allclose(joint, split, atol=1e-12)


def test_weights_must_be_per_replica():
    ens = small_ensemble(steps=4, replicas=6)
    grid = ens.grid
    op = RightLinearOp.identity(1, 1)
    s = StepIntegrand(grid, tuple(
        (lambda view: (np.ones(3), op)) for _ in range(grid.steps)
    ), 1, 1, 1)
    batch = ens.batch(0)
    with pytest.raises(AlgebraError):
        integral_paths(s, batch.w)


def test_slot_operator_shape_is_checked():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    s = StepIntegrand(grid, (RightLinearOp.identity(1, 1),) * 4, 1, 1, 2)
    ens = small_ensemble(steps=4)
    batch = ens.batch(0)
    with pytest.raises(LevelMismatch):
        integral_paths(s, batch.w)


# ----------------------------------------------------------- predictability

def test_predictable_matches_elementary_for_constant():
    ens = small_ensemble(level=1, n=2, steps=8, seed=5)
    op = RightLinearOp.identity(1, 2)
    pred = StepIntegrand.predictable(ens.grid, 1, 2, 2, lambda idx, view: op)
    step = StepIntegrand.constant(ens.grid, op)
    w = ens.batch(0).w[:1]
    a = integral_paths(pred, w)
    b = integral_paths(step, w)
    assert np.array_equal(a, b)


def test_slots_see_only_the_prefix():
    ens = small_ensemble(steps=8, replicas=4)
    seen = []

    def evaluator(idx, view):
        seen.append((idx, view.shape[1]))
        return RightLinearOp.identity(1, 1)

    pred = StepIntegrand.predictable(ens.grid, 1, 1, 1, evaluator)
    batch = ens.batch(0)
    integral_paths(pred, batch.w)
    assert seen == [(idx, idx + 1) for idx in range(8)]


# ------------------------------------------------------------- moment checks

def test_zero_mean_identity_and_zero():
    ens = small_ensemble(level=1, n=1, steps=16, seed=13, replicas=20000)
    s = StepIntegrand.constant(ens.grid, RightLinearOp.identity(1, 1))
    rep = run(zero_mean_check(s, ens), threads=2)
    assert rep["passed"]
    zero = StepIntegrand.constant(ens.grid, RightLinearOp.identity(1, 1).scaled(0.0))
    rep0 = run(zero_mean_check(zero, ens))
    assert rep0["passed"] and rep0["max_abs_mean"] == 0.0


def test_zero_mean_path_dependent_adapted():
    ens = small_ensemble(level=1, n=1, steps=16, seed=19, replicas=30000)
    ident = RightLinearOp.identity(1, 1)

    def bind(idx):
        return lambda view: (np.tanh(view[:, idx, 0, 0, 0]), ident)

    slots = tuple(bind(l) for l in range(ens.grid.steps))
    s = StepIntegrand(ens.grid, slots, 1, 1, 1)
    rep = run(zero_mean_check(s, ens), threads=2)
    assert rep["passed"], rep


def test_isometry_identity_anchor():
    ens = small_ensemble(level=1, n=1, steps=16, seed=17, replicas=30000,
                         complexified=False)
    s = StepIntegrand.constant(ens.grid, RightLinearOp.identity(1, 1))
    rep = run(isometry_check(s, ens), threads=2)
    assert rep["passed"]
    assert abs(rep["rhs"] - 1.0) < 1e-12


def test_isometry_unit_direction():
    level = 3
    ens = small_ensemble(level=level, n=1, steps=16, seed=23, replicas=30000,
                         complexified=False)
    op = RightLinearOp.left_mult(unit_real(level, 1))
    s = StepIntegrand.constant(ens.grid, op)
    rep = run(isometry_check(s, ens), threads=2)
    assert rep["passed"]
    assert abs(rep["rhs"] - 1.0) < 1e-12


def test_isometry_zero_and_errors():
    ens = small_ensemble(level=1, n=1, steps=8, replicas=64,
                         complexified=False)
    zero = StepIntegrand.constant(ens.grid,
                                  RightLinearOp.identity(1, 1).scaled(0.0))
    rep = run(isometry_check(zero, ens))
    assert rep["passed"] and rep["lhs"] == 0.0 and rep["rhs"] == 0.0
    with pytest.raises(AlgebraError):
        isometry_check(zero, small_ensemble(steps=8, replicas=64))
    rng = np.random.default_rng(3)
    bad = StepIntegrand.constant(ens.grid, random_op(rng, 1, 1, 1))
    with pytest.raises(AlgebraError):  # slot operators are read per batch
        run(isometry_check(bad, ens))


def test_bound_identity_anchor():
    ens = small_ensemble(level=1, n=1, steps=16, seed=29, replicas=30000)
    s = StepIntegrand.constant(ens.grid, RightLinearOp.identity(1, 1))
    rep = run(bound_check(s, ens), threads=2)
    assert rep["passed"]
    assert abs(rep["m2"] - 4.0) < 1e-12
    assert abs(rep["m3"] - 4.0) < 1e-12


def test_bound_zero_and_random_battery():
    ens = small_ensemble(level=2, n=2, steps=8, seed=31, replicas=20000)
    zero = StepIntegrand.constant(ens.grid,
                                  RightLinearOp.identity(2, 2).scaled(0.0))
    rep0 = run(bound_check(zero, ens))
    assert rep0["passed"] and rep0["m1"] == 0.0 and rep0["m3"] == 0.0
    rng = np.random.default_rng(4)
    for _ in range(3):
        s = StepIntegrand.constant(ens.grid, random_op(rng, 2, 2, 2))
        rep = run(bound_check(s, ens), threads=2)
        assert rep["passed"], rep
    with pytest.raises(AlgebraError):
        bound_check(zero, small_ensemble(level=2, n=2, steps=8,
                                         complexified=False))


def test_martingale_pass_and_lookahead_power():
    ens = small_ensemble(level=1, n=1, steps=32, seed=37, replicas=30000)
    s = StepIntegrand.constant(ens.grid, RightLinearOp.identity(1, 1))
    control = lookahead_control(ens.grid, 1, 1)
    rep, rep2 = sweep([martingale_check(s, ens, 0.5, 1.0),
                       martingale_check(control, ens, 0.5, 1.0)], threads=2)
    assert rep["passed"], rep
    assert not rep2["passed"]
    assert rep2["worst_bin_z"] > 10.0
    # one sweep gives each probe the bits it has when swept alone
    assert rep == run(martingale_check(s, ens, 0.5, 1.0))
    assert rep2 == run(martingale_check(control, ens, 0.5, 1.0))


def test_martingale_zero_integrand_is_exact():
    ens = small_ensemble(level=1, n=1, steps=8, replicas=256)
    zero = StepIntegrand.constant(ens.grid,
                                  RightLinearOp.identity(1, 1).scaled(0.0))
    rep = run(martingale_check(zero, ens, 0.5, 1.0))
    assert rep["passed"] and rep["max_abs_mean"] == 0.0
    with pytest.raises(GridError):
        martingale_check(zero, ens, 1.0, 0.5)


def test_martingale_bin_with_a_nan_fails():
    """A NaN increment in one replica makes its bin's z NaN: the worst
    bin reads NaN and the bins fail, at any worker count."""
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 8),
                       complexified_identity(1, 1), None, seed=5,
                       n_replicas=600, batch_size=256)
    ident = RightLinearOp.identity(1, 1)

    def slot(view):
        weights = np.ones(view.shape[0])
        weights[-1] = np.nan
        return weights, ident

    # steps from t = 0.5 on carry the NaN, so eta(0.5) stays finite
    s = StepIntegrand(ens.grid, (ident,) * 4 + (slot,) * 4, 1, 1, 1)
    for threads in (1, 3):
        rep = run(martingale_check(s, ens, 0.5, 1.0), threads)
        assert np.isnan(rep["worst_bin_z"])
        assert not rep["bins_passed"] and not rep["passed"]


def test_chebyshev_bounds():
    ens = small_ensemble(level=1, n=1, steps=16, seed=41, replicas=20000)
    s = StepIntegrand.constant(ens.grid, RightLinearOp.identity(1, 1))
    rep = run(chebyshev_check(s, ens, beta=1.0, alpha=1.5),
              threads=2)
    assert rep["passed"]
    huge = run(chebyshev_check(s, ens, beta=50.0, alpha=1.5))
    assert huge["passed"] and huge["empirical"] == 0.0
    rng = np.random.default_rng(6)
    for _ in range(2):
        sr = StepIntegrand.constant(ens.grid, random_op(rng, 1, 1, 1))
        beta = float(rng.uniform(0.5, 3.0))
        alpha = float(rng.uniform(0.5, 5.0))
        rep = run(chebyshev_check(sr, ens, beta, alpha), threads=2)
        assert rep["passed"]
    with pytest.raises(AlgebraError):
        chebyshev_check(s, ens, beta=-1.0, alpha=1.0)
    with pytest.raises(AlgebraError):
        chebyshev_check(s, small_ensemble(complexified=False), 1.0, 1.0)


def test_continuity_ladder():
    ens = small_ensemble(level=1, n=1, steps=64, seed=43, replicas=4000)
    s = StepIntegrand.constant(ens.grid, RightLinearOp.identity(1, 1))
    rep = run(continuity_check(s, ens, eps=1.2, halvings=5),
              threads=2)
    assert rep["passed"]
    tails = rep["tails"]
    assert all(tails[i + 1] <= tails[i] for i in range(len(tails) - 1))
    assert tails[-1] < 0.01
    zero = StepIntegrand.constant(ens.grid,
                                  RightLinearOp.identity(1, 1).scaled(0.0))
    rep0 = run(continuity_check(zero, ens, eps=0.1, halvings=5))
    assert rep0["passed"] and max(rep0["tails"]) == 0.0
    with pytest.raises(GridError):
        continuity_check(s, ens, eps=1.0, halvings=9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_tail_probes_refuse_a_threshold_that_measures_nothing(bad):
    """A NaN threshold fails every comparison, so a tail would read 0
    and pass; an infinite, zero or negative one measures nothing either
    (a negative eps was read as |eps|, a NaN beta or alpha let through)."""
    ens = small_ensemble(level=2, n=1, steps=16, replicas=500)
    s = StepIntegrand.constant(ens.grid, RightLinearOp.identity(2, 1))
    with pytest.raises(AlgebraError, match="eps must be finite"):
        continuity_check(s, ens, bad, 4)
    with pytest.raises(AlgebraError, match="beta must be finite"):
        chebyshev_check(s, ens, bad, 1.0)
    with pytest.raises(AlgebraError, match="alpha must be finite"):
        chebyshev_check(s, ens, 1.0, bad)


def _sample_peak(probe, batch):
    """The traced peak of one sample call, the path assembled before."""
    batch.w
    tracemalloc.start()
    try:
        probe.sample(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_tail_samplers_hold_no_second_path():
    """One batch of 2048 replicas on 32 steps (level 3, n = 2, its path
    assembled first): the Chebyshev and the integral continuity samples
    each peak within 2 MiB above the 16.5 MiB running integral, a row
    buffer and one lag block of _BLOCK_BYTES.  Squaring the whole
    integral, and a lag difference with its square, took 33.5 and
    49.0 MiB."""
    level, n = 3, 2
    ens = small_ensemble(level=level, n=n, steps=32, seed=53, replicas=2048)
    s = StepIntegrand.constant(ens.grid, random_op(np.random.default_rng(8),
                                                   level, n, n))
    integral = 2048 * 33 * n * 2 * dim_of(level) * 8
    assert integral_paths(s, ens.batch(0).w).nbytes == integral
    for probe in (chebyshev_check(s, ens, 1.5, 1.0),
                  continuity_check(s, ens, 1.0, 5)):
        assert _sample_peak(probe, ens.batch(0)) <= integral + 2 * 2 ** 20


def test_refinement_of_path_dependent_integrand():
    ens = small_ensemble(level=1, n=1, steps=64, seed=47, replicas=8000)
    ident = RightLinearOp.identity(1, 1)

    def factory(grid):
        def bind(idx):
            def slot(view):
                flat = view[:, idx].reshape(view.shape[0], -1)
                return np.sqrt(vec_norm2(flat)), ident

            return slot

        slots = tuple(bind(l) for l in range(grid.steps))
        return StepIntegrand(grid, slots, 1, 1, 1)

    rep = run(refinement_study(factory, ens, halvings=3), threads=2)
    assert rep["passed"], rep
    gaps = rep["mean_square_gaps"]
    assert gaps[-1] < gaps[0]

    const = run(refinement_study(
        lambda g: StepIntegrand.constant(g, ident), ens, halvings=2))
    assert max(const["mean_square_gaps"]) < 1e-20



# ------------------------------------------------------------ kernel checks

def _reference_terms(slot, view):
    raw = slot(view) if callable(slot) else slot
    raw = [raw] if isinstance(raw, (RightLinearOp, tuple)) else list(raw)
    return [(None, t) if isinstance(t, RightLinearOp) else t for t in raw]


def reference_integral(s, w):
    """Running integral by one einsum per replica, slot and term."""
    b, kk = w.shape[:2]
    flat = w.reshape(b, kk, -1)
    dw = flat[:, 1:] - flat[:, :-1]
    steps = np.zeros((b, kk - 1, 2 * s.h * dim_of(s.level)))
    for l, slot in enumerate(s.slots):
        view = w if s.full_view else w[:, :l + 1]
        for weights, op in _reference_terms(slot, view):
            for r in range(b):
                seg = np.einsum("oi,i->o", op.realized, dw[r, l])
                steps[r, l] += seg if weights is None else weights[r] * seg
    eta = np.zeros((b, kk, steps.shape[2]))
    eta[:, 1:] = np.cumsum(steps, axis=1)
    return eta.reshape(b, kk, s.h, 2, -1)


def kernel_cases():
    level, n = 2, 2
    ens = small_ensemble(level=level, n=n, steps=16, seed=23, replicas=12)
    grid = ens.grid
    rng = np.random.default_rng(8)
    ops = [random_op(rng, level, n, n) for _ in range(3)]

    def evaluator(idx, view):
        # weighted first term, then a bare operator, then another weight
        return [(np.tanh(view[:, idx, 0, 0, 1]), ops[0]), ops[1],
                (view[:, idx, 1, 1, 2] ** 2, ops[2])]

    tiled = StepIntegrand.from_ops(grid, [ops[l % 3] for l in range(grid.steps)])
    coarse = [random_op(rng, level, n, n) for _ in range(4)]
    return ens, {
        "constant": StepIntegrand.constant(grid, random_op(rng, level, 3, n)),
        "tiled": tiled,
        # a sub-integrand on its own sub-grid, fed the path on that window
        "window": tiled.restrict(float(grid.points[4]), float(grid.points[12])),
        "weighted": StepIntegrand.predictable(grid, level, n, n, evaluator),
        "lookahead": lookahead_control(grid, level, n),
        # a step function on every 4th point, its operators repeated
        "coarse": StepIntegrand.from_ops(
            grid, [coarse[l // 4] for l in range(grid.steps)]),
    }


@pytest.mark.parametrize("case", ["constant", "tiled", "window", "weighted",
                                  "lookahead", "coarse"])
def test_integral_paths_matches_per_replica_reference(case):
    ens, cases = kernel_cases()
    s = cases[case]
    i0, i1 = (ens.grid.index_of(t) for t in (s.partition.a, s.partition.b))
    w = ens.batch(0).w[:, i0:i1 + 1]
    eta = integral_paths(s, w)
    ref = reference_integral(s, w)
    np.testing.assert_allclose(eta, ref, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(ref)))
    assert not eta[:, 0].any()
    alone = integral_paths(s, w[5:6])
    np.testing.assert_allclose(alone[0], eta[5], rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(eta[5])))


def test_second_moment_evaluates_each_operator_pair_once():
    ens = small_ensemble(level=1, n=2, steps=32, seed=29, replicas=6)
    rng = np.random.default_rng(9)
    ops = [random_op(rng, 1, 2, 2) for _ in range(2)]
    s = StepIntegrand.from_ops(ens.grid, [ops[l % 2]
                                          for l in range(ens.grid.steps)])
    calls = []

    def counting(op1, op2):
        calls.append((op1, op2))
        return hs_inner(op1, op2)

    w = ens.batch(0).w
    got, = _second_moment_samples(s, w, counting)
    assert len(calls) <= 4
    dt = np.diff(ens.grid.points)
    expected = np.zeros(w.shape[0])
    for l in range(ens.grid.steps):
        expected += dt[l] * hs_inner(ops[l % 2], ops[l % 2])
    np.testing.assert_allclose(got, expected, rtol=1e-14)


def test_second_moment_with_fresh_operators_per_slot():
    """Evaluators that build a new operator per slot get no stale trace."""
    ens = small_ensemble(level=1, n=1, steps=16, seed=31, replicas=5)
    ident = RightLinearOp.identity(1, 1)

    def evaluator(idx, view):
        return [ident.scaled(float(idx + 1)),
                (np.cos(view[:, idx, 0, 0, 0]), ident.scaled(0.5 - idx))]

    s = StepIntegrand.predictable(ens.grid, 1, 1, 1, evaluator)
    w = ens.batch(0).w
    got, = _second_moment_samples(s, w, hs_inner)
    expected = np.zeros(w.shape[0])
    for l in range(ens.grid.steps):
        dt = float(ens.grid.points[l + 1] - ens.grid.points[l])
        terms = [(np.ones(w.shape[0]), op) if not isinstance(op, tuple)
                 else op for op in evaluator(l, w[:, :l + 1])]
        q = np.zeros(w.shape[0])
        for wi, opi in terms:
            for wj, opj in terms:
                q += wi * wj * hs_inner(opi, opj)
        expected += dt * q
    np.testing.assert_allclose(got, expected, rtol=1e-13)


def test_second_moment_forms_share_one_slot_pass():
    """One call takes every trace form from one evaluation per slot, and
    each form keeps the bits it has when taken alone."""
    ens = small_ensemble(level=2, n=1, steps=8, seed=33, replicas=7)
    rng = np.random.default_rng(13)
    ops = [random_op(rng, 2, 1, 1) for _ in range(2)]
    seen = []

    def evaluator(idx, view):
        seen.append(idx)
        return [ops[idx % 2], (np.sin(view[:, idx, 0, 0, 1]), ops[0])]

    s = StepIntegrand.predictable(ens.grid, 2, 1, 1, evaluator)
    w = ens.batch(0).w
    f_fn = partial(f_functional_cross, u=ens.u)
    fq, hq = _second_moment_samples(s, w, f_fn, hs_inner)
    assert seen == list(range(8))
    alone_f, = _second_moment_samples(s, w, f_fn)
    alone_h, = _second_moment_samples(s, w, hs_inner)
    assert fq.tobytes() == alone_f.tobytes()
    assert hq.tobytes() == alone_h.tobytes()


def test_integral_steps_are_contiguous_and_gathers_c_ordered():
    """Each step row of the running integral is one contiguous block (it
    is stored time-major); what a gather hands its gate is C-ordered."""
    level, n = 2, 2
    ens = small_ensemble(level=level, n=n, steps=16, seed=19, replicas=20)
    s = StepIntegrand.constant(ens.grid,
                               random_op(np.random.default_rng(3), level, 3, n))
    batch = ens.batch(0)
    eta = integral_paths(s, batch.w)
    assert eta.shape == (20, 17, 3, 2, dim_of(level))
    assert all(eta[:, l].flags.c_contiguous for l in range(17))
    seen = []
    probe = martingale_check(s, ens, 0.25, 0.75)
    run(probe._replace(gate=seen.append))
    joined, = seen
    assert [a.shape for a in joined] == [(20, 3 * 2 * dim_of(level)), (20,)]
    assert all(a.flags.c_contiguous for a in joined)


@pytest.mark.parametrize("case", ["constant", "weighted", "lookahead"])
def test_integral_bits_do_not_depend_on_the_path_layout(case):
    """The time-major paths, their C-ordered copy, every other point and
    the first half of the window give the bits of C-ordered inputs."""
    level, n = 2, 2
    ens = small_ensemble(level=level, n=n, steps=16, seed=37, replicas=12)
    grid, k = ens.grid, ens.grid.steps
    rng = np.random.default_rng(12)
    op, op_w = random_op(rng, level, n, n), random_op(rng, level, n, n)

    def evaluator(idx, view):
        return [(np.tanh(view[:, idx, 0, 0, 1]), op_w), op]

    def build(g):
        if case == "constant":
            return StepIntegrand.constant(g, op)
        if case == "weighted":
            return StepIntegrand.predictable(g, level, n, n, evaluator)
        return lookahead_control(g, level, n)

    w = ens.batch(0).w
    assert not w.flags.c_contiguous
    for sub, g in ((w, grid), (np.ascontiguousarray(w), grid),
                   (w[:, ::2], TimeGrid(grid.points[::2])),
                   (w[:, :k // 2 + 1], TimeGrid(grid.points[:k // 2 + 1]))):
        s = build(g)
        got = integral_paths(s, sub)
        ref = integral_paths(s, np.ascontiguousarray(sub))
        assert got.tobytes() == ref.tobytes()
