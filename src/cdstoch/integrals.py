"""Stochastic integration of operator-valued step functions.

An integrand is a piecewise-constant family of right-linear operators on
a time grid, one slot per grid step.  Its integral against a path w
sampled on that grid is the finite sum

    eta(t_m) = sum_{l < m} S_l (w(t_{l+1}) - w(t_l)),

accumulated as a running path, so eta(t_0) = 0 and every grid point
carries the truncated value.  An integrand runs on its own grid: the
checks refuse one whose grid is not the ensemble's, and a step function
on a coarser partition is written on the grid with its operators
repeated (``StepIntegrand.from_ops``).  Predictable integrands
(prefix-measurable callbacks) are discretized onto the grid steps, with
refinement studies standing in for the mean-square limit.  A check
evaluates each slot once per batch for every second-moment quadrature
it takes.

Adaptedness is enforced by the interface: slot callbacks receive only
the path prefix up to their step's left endpoint.  A ``full_view``
escape hatch hands them the whole path instead; it exists solely so
negative controls can demonstrate that the martingale test has power.

Slot callbacks may return a bare operator, a ``(weights, op)`` pair with
one scalar weight per replica, or a list of such terms to be summed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import AlgebraError, LevelMismatch, dim_of
from .linops import (
    CovarianceOperator,
    RightLinearOp,
    compose_entries,
    f_functional_cross,
    hs_inner,
    op_terms,
    vec_norm2,
)
from .paths import (
    GridError,
    McReport,
    PathEnsemble,
    Probe,
    TimeGrid,
    _time_major,
    halving_factors,
)

MARTINGALE_BINS = 8


# ------------------------------------------------------------------ integrands

@dataclass(frozen=True)
class StepIntegrand:
    """Piecewise-constant operator family on a time grid, one slot per step.

    Each slot is either a fixed ``RightLinearOp`` or a callable taking the
    replica-batch path view (prefix up to the slot's left endpoint unless
    ``full_view``) and returning operator terms.
    """

    partition: TimeGrid
    slots: tuple
    level: int
    n: int
    h: int
    full_view: bool = False

    def __post_init__(self):
        if len(self.slots) != self.partition.steps:
            raise GridError("one slot per partition step is required")

    @classmethod
    def constant(cls, partition: TimeGrid, op: RightLinearOp) -> "StepIntegrand":
        return cls(partition, (op,) * partition.steps, op.level, op.n, op.h)

    @classmethod
    def from_ops(cls, partition: TimeGrid, ops) -> "StepIntegrand":
        ops = tuple(ops)
        first = ops[0]
        return cls(partition, ops, first.level, first.n, first.h)

    @classmethod
    def predictable(cls, grid: TimeGrid, level: int, n: int, h: int,
                    evaluator) -> "StepIntegrand":
        """Grid-step discretization of a prefix-measurable callback: the
        grid is the approximant.  ``evaluator(t_index, view)`` must produce
        the operator terms for the grid step starting at ``t_index`` from
        the path prefix alone."""

        def bind(idx):
            return lambda view: evaluator(idx, view)

        slots = tuple(bind(l) for l in range(grid.steps))
        return cls(grid, slots, level, n, h)

    def terms(self, j: int, view) -> list:
        """Slot j on a (batch, ...) path view as [(weights | None, op)]."""
        slot = self.slots[j]
        return op_terms(slot(view) if callable(slot) else slot,
                        view.shape[0], (self.level, self.h, self.n))

    def restrict(self, c: float, b: float) -> "StepIntegrand":
        """Sub-integrand on [c, b]; both ends must be partition points."""
        i = self.partition.index_of(c)
        j = self.partition.index_of(b)
        if i >= j:
            raise GridError("need c < b on the partition")
        sub = TimeGrid(self.partition.points[i:j + 1])
        return StepIntegrand(sub, self.slots[i:j], self.level, self.n,
                             self.h, self.full_view)


# ----------------------------------------------------------------- the engine

def integral_paths(integrand: StepIntegrand, w: np.ndarray) -> np.ndarray:
    """Running integral (batch, K+1, h, 2, dim) on the integrand's grid.

    Slot l acts on grid step l.  The running sum realizes the wedge
    truncation: the value at grid index m contains exactly the
    increments of steps below m.  The result is stored time-major (see
    paths._time_major), so each step row is one contiguous block; w may
    have any strides, and reads one contiguous row per step when it is
    time-major as assembled.
    """
    dim = dim_of(integrand.level)
    b, kk = w.shape[:2]
    if w.shape[1:] != (len(integrand.partition), integrand.n, 2, dim):
        raise AlgebraError("path array does not match the integrand")
    w_flat = w.reshape(b, kk, -1)
    dw = np.empty((b, w_flat.shape[2]))
    eta = _time_major(b, kk, 2 * integrand.h * dim)
    eta[:, 0] = 0.0
    for l in range(kk - 1):
        view = w if integrand.full_view else w[:, :l + 1]
        # one (b, in) @ (in, out) GEMM per term, written into the step's
        # row; adding the previous row afterwards reproduces the
        # sequential order of a cumulative sum
        np.subtract(w_flat[:, l + 1], w_flat[:, l], out=dw)
        step = eta[:, l + 1]
        terms = integrand.terms(l, view)
        if not terms or terms[0][0] is not None:
            step[...] = 0.0  # the terms add into a zero start
        for t, (weights, op) in enumerate(terms):
            if t == 0 and weights is None:
                np.matmul(dw, op.realized.T, out=step)
                continue
            seg = dw @ op.realized.T
            if weights is not None:
                seg *= weights[:, None]
            step += seg
        step += eta[:, l]
    return eta.reshape(b, kk, integrand.h, 2, dim)


# ------------------------------------------------------ second-moment helpers

def _lri_trace_fn(u0: CovarianceOperator):
    root = u0.sqrt_entries()

    def fn(op1: RightLinearOp, op2: RightLinearOp) -> float:
        for op in (op1, op2):
            if not op.is_lri:
                raise AlgebraError("the isometry identity needs lri-valued slots")
        g1 = compose_entries(op1.entries, root, op1.level)
        g2 = compose_entries(op2.entries, root, op2.level)
        return float(np.sum(g1 * g2))

    return fn


def _second_moment_samples(integrand: StepIntegrand, w: np.ndarray,
                           *trace_fns) -> list[np.ndarray]:
    """Per-replica quadratures sum_l dt_l tr(slot_l), one per trace form.

    One pass over the slots serves every form.  Each form runs once per
    distinct operator pair of the call.  The memo keeps the operators it
    keys alive, so no id is reused by a freed one.
    """
    b = w.shape[0]
    outs = [np.zeros(b) for _ in trace_fns]
    memo = {}

    def traces(opi, opj):
        key = (id(opi), id(opj))
        if key not in memo:
            memo[key] = (opi, opj, [fn(opi, opj) for fn in trace_fns])
        return memo[key][2]

    for l, dt in enumerate(integrand.partition.deltas):
        view = w if integrand.full_view else w[:, :l + 1]
        terms = integrand.terms(l, view)
        qs = [np.zeros(b) for _ in trace_fns]
        for wi, opi in terms:
            for wj, opj in terms:
                # an unweighted pair's factor 1.0 leaves c's bits alone
                ww = (wi if wi is not None else 1.0) * \
                     (wj if wj is not None else 1.0)
                for q, c in zip(qs, traces(opi, opj)):
                    q += ww * c
        for out, q in zip(outs, qs):
            out += float(dt) * q
    return outs


def _require_match(integrand, ensemble: PathEnsemble):
    if integrand.level != ensemble.level or integrand.n != ensemble.n:
        raise LevelMismatch("integrand does not match the ensemble")
    if not np.array_equal(integrand.partition.points, ensemble.grid.points):
        raise GridError("integrand is not on the ensemble's grid")


# ----------------------------------------------------------------- the checks

def zero_mean_check(integrand: StepIntegrand, ensemble: PathEnsemble) -> Probe:
    """Window-end mean of the integral, within 4 standard errors of zero."""
    _require_match(integrand, ensemble)

    def sampler(batch):
        eta = integral_paths(integrand, batch.w)
        return (eta[:, -1].reshape(batch.count, -1),)

    def gate(reports):
        rep, = reports
        zero = np.zeros_like(rep.estimate)
        return {
            "passed": bool(np.all(rep.within(zero))),
            "max_abs_mean": float(np.max(np.abs(rep.estimate))),
            "max_standard_error": float(np.max(rep.standard_error)),
            "sample_count": rep.sample_count,
        }

    return Probe(sampler, gate)


def isometry_check(integrand: StepIntegrand, ensemble: PathEnsemble) -> Probe:
    """Mean squared integral at t = b against the trace quadrature, two-sided.

    Valid in the plain-algebra setting: the ensemble must carry a single
    covariance and every slot operator must be lri-valued.
    """
    _require_match(integrand, ensemble)
    if ensemble.complexified:
        raise AlgebraError("the isometry identity lives on plain-covariance paths")
    trace_fn = _lri_trace_fn(ensemble.u0)

    def sampler(batch):
        eta = integral_paths(integrand, batch.w)
        lhs = np.sum(eta[:, -1, :, 0, :] ** 2, axis=(1, 2))
        rhs, = _second_moment_samples(integrand, batch.w, trace_fn)
        return lhs, rhs

    def gate(reports):
        lhs, rhs = reports
        gap = abs(float(lhs.estimate) - float(rhs.estimate))
        combined = float(np.sqrt(lhs.standard_error ** 2
                                 + rhs.standard_error ** 2))
        return {
            "passed": bool(gap <= 4.0 * combined + 1e-12),
            "lhs": float(lhs.estimate),
            "rhs": float(rhs.estimate),
            "gap": gap,
            "combined_standard_error": combined,
            "sample_count": lhs.sample_count,
        }

    return Probe(sampler, gate)


def bound_check(integrand: StepIntegrand, ensemble: PathEnsemble) -> Probe:
    """Second-moment identity and domination for complexified paths.

    At the window end, M1 = mean squared norm of the integral, M2 = twice
    the F-functional quadrature, M3 = the covariance factor times the
    squared-norm quadrature; asserts M1 = M2 within combined error and
    M1 <= M3 with Monte Carlo slack.
    """
    _require_match(integrand, ensemble)
    if not ensemble.complexified:
        raise AlgebraError("the norm bound needs a complexified covariance")
    f_fn = partial(f_functional_cross, u=ensemble.u)
    factor = ensemble.u.max_sqrt_hs2()

    def sampler(batch):
        eta = integral_paths(integrand, batch.w)
        m1 = vec_norm2(eta[:, -1].reshape(batch.count, -1))
        fq, m3 = _second_moment_samples(integrand, batch.w, f_fn, hs_inner)
        return m1, 2.0 * fq, m3

    def gate(reports):
        m1, m2, m3 = reports
        v1, v2 = float(m1.estimate), float(m2.estimate)
        v3 = factor * float(m3.estimate)
        se12 = float(np.sqrt(m1.standard_error ** 2 + m2.standard_error ** 2))
        se13 = float(np.sqrt(m1.standard_error ** 2
                             + (factor * float(m3.standard_error)) ** 2))
        equality = abs(v1 - v2) <= 4.0 * se12 + 1e-12
        dominated = v1 <= v3 * (1.0 + 1e-9) + 4.0 * se13 + 1e-12
        return {
            "passed": bool(equality and dominated),
            "equality_passed": bool(equality),
            "dominated": bool(dominated),
            "m1": v1,
            "m2": v2,
            "m3": v3,
            "combined_standard_error": se12,
            "sample_count": m1.sample_count,
        }

    return Probe(sampler, gate)


def martingale_check(integrand: StepIntegrand, ensemble: PathEnsemble,
                     t1: float, t2: float) -> Probe:
    """Conditional-increment test for the running integral.

    Checks the unconditional mean of eta(t2) - eta(t1) and, as a stronger
    probe, the mean inside MARTINGALE_BINS quantile bins of the first
    coordinate of eta(t1); every bin must be centered within 4 of its
    standard errors.
    The bins read every sample: a gather probe.
    """
    _require_match(integrand, ensemble)
    grid = ensemble.grid
    i1, i2 = grid.index_of(t1), grid.index_of(t2)
    if i1 >= i2:
        raise GridError("need t1 < t2 on the grid")

    def sampler(batch):
        eta = integral_paths(integrand, batch.w)
        d = (eta[:, i2] - eta[:, i1]).reshape(batch.count, -1)
        return d, eta[:, i1, 0, 0, 0]

    def gate(joined):
        diffs, stat = joined
        count = diffs.shape[0]
        rep = McReport.from_sums(diffs.sum(0), (diffs * diffs).sum(0), count)
        uncond_ok = bool(np.all(rep.within(np.zeros_like(rep.estimate))))

        edges = np.quantile(stat, np.linspace(0.0, 1.0, MARTINGALE_BINS + 1))
        edges[0], edges[-1] = -np.inf, np.inf
        which = np.clip(np.searchsorted(edges, stat, side="right") - 1, 0,
                        MARTINGALE_BINS - 1)
        zs = [np.zeros(1)]
        for b in range(MARTINGALE_BINS):
            sel = diffs[which == b]
            if sel.shape[0] < 2:
                continue
            se = sel.std(0, ddof=1) / np.sqrt(sel.shape[0])
            zs.append(np.abs(sel.mean(0)) / np.where(se > 0, se, np.inf))
        # np.max lets a NaN through, so a NaN bin fails the check
        worst = float(np.max(np.concatenate(zs)))
        bins_ok = worst <= 4.0
        return {
            "passed": bool(uncond_ok and bins_ok),
            "unconditional_passed": uncond_ok,
            "bins_passed": bool(bins_ok),
            "worst_bin_z": worst,
            "max_abs_mean": float(np.max(np.abs(rep.estimate))),
            "bins": MARTINGALE_BINS,
            "sample_count": count,
        }

    return Probe(sampler, gate, gather=True)


def lookahead_control(grid: TimeGrid, level: int, n: int) -> StepIntegrand:
    """Non-adapted control: each step is signed by its own future increment.

    Exists to demonstrate the power of the martingale test; the positive
    drift it produces must make martingale_check fail.
    """
    identity = RightLinearOp.identity(level, n)

    def bind(idx):
        def slot(full_w):
            step = full_w[:, idx + 1, 0, 0, 0] - full_w[:, idx, 0, 0, 0]
            return np.sign(step), identity

        return slot

    slots = tuple(bind(l) for l in range(grid.steps))
    return StepIntegrand(grid, slots, level, n, n, full_view=True)


def chebyshev_check(integrand: StepIntegrand, ensemble: PathEnsemble,
                    beta: float, alpha: float) -> Probe:
    """Tail of the running supremum against both quadrature bounds."""
    _require_match(integrand, ensemble)
    if not ensemble.complexified:
        raise AlgebraError("the tail bounds need a complexified covariance")
    if beta <= 0 or alpha <= 0:
        raise AlgebraError("need positive beta and alpha")
    f_fn = partial(f_functional_cross, u=ensemble.u)
    mstar2 = ensemble.u.max_sqrt_hs2()
    threshold2 = beta * beta * mstar2

    def sampler(batch):
        eta = integral_paths(integrand, batch.w)
        sup2 = np.max(vec_norm2(eta.reshape(*eta.shape[:2], -1)), axis=1)
        fq, hq = _second_moment_samples(integrand, batch.w, f_fn, hs_inner)
        # 0/1 indicators: their sums are exact integers, so the means are
        # the plain exceedance frequencies
        return sup2 > threshold2, fq, hq > alpha

    def gate(reports):
        exceed, f_rep, over = reports
        count = exceed.sample_count
        emp = float(exceed.estimate)
        over_prob = float(over.estimate)
        se_emp = float(np.sqrt(max(emp * (1 - emp), 1e-12) / count))
        bound_f = float(f_rep.estimate) / beta ** 2
        se_f = float(f_rep.standard_error) / beta ** 2
        bound_split = alpha / beta ** 2 + over_prob
        se_split = float(np.sqrt(max(over_prob * (1 - over_prob), 1e-12)
                                 / count))
        ok_f = emp <= bound_f + 4.0 * (se_emp + se_f)
        ok_split = emp <= bound_split + 4.0 * (se_emp + se_split)
        return {
            "passed": bool(ok_f and ok_split),
            "empirical": emp,
            "bound_quadrature": bound_f,
            "bound_split": bound_split,
            "beta": float(beta),
            "alpha": float(alpha),
            "sample_count": count,
        }

    return Probe(sampler, gate)


def continuity_check(integrand: StepIntegrand, ensemble: PathEnsemble,
                     eps: float, halvings: int) -> Probe:
    """Tail of integral increments over nested lag windows.

    tail(delta_j) takes the worst grid pair within lag delta_j; the pair
    sets are nested, so the ladder is non-increasing by construction and
    the assertion is about the finest level staying under 0.01.
    """
    _require_match(integrand, ensemble)
    grid = ensemble.grid
    k = grid.steps
    lags = [k // f for f in halving_factors(grid, halvings)[1:]]

    def sampler(batch):
        eta = integral_paths(integrand, batch.w)
        flat = eta.reshape(batch.count, k + 1, -1)
        # 0/1 indicators: their sums are exact integers
        return tuple(vec_norm2(flat[:, lag:] - flat[:, :-lag]) > eps * eps
                     for lag in range(1, lags[0] + 1))

    def gate(reports):
        per_lag_max = np.array([np.max(rep.estimate) for rep in reports])
        running = np.maximum.accumulate(per_lag_max)
        pts = grid.points
        deltas = [float(np.max(pts[lag:] - pts[:-lag])) for lag in lags]
        tails = [float(running[lag - 1]) for lag in lags]
        finest_ok = tails[-1] < 0.01
        monotone = all(tails[j + 1] <= tails[j] + 1e-15
                       for j in range(len(tails) - 1))
        return {
            "passed": bool(finest_ok and monotone),
            "eps": float(eps),
            "deltas": deltas,
            "tails": tails,
            "sample_count": reports[0].sample_count,
        }

    return Probe(sampler, gate)


def refinement_study(integrand_factory, ensemble: PathEnsemble,
                     halvings: int) -> Probe:
    """Mean-square gap between successive grid resolutions on shared noise.

    The ensemble grid is the finest level; coarser levels integrate the
    subsampled path, so every level sees the same underlying increments.
    integrand_factory(grid) builds the integrand at each resolution.
    """
    grid = ensemble.grid
    k = grid.steps
    factors = halving_factors(grid, halvings)[::-1]
    integrands = [integrand_factory(TimeGrid(grid.points[::f]))
                  for f in factors]

    def sampler(batch):
        finals = []
        for f, s in zip(factors, integrands):
            eta = integral_paths(s, batch.w[:, ::f])
            finals.append(eta[:, -1].reshape(batch.count, -1))
        return tuple(np.sum((b - a) ** 2, axis=1)
                     for a, b in zip(finals[:-1], finals[1:]))

    def gate(reports):
        gaps = [float(rep.estimate) for rep in reports]
        ses = [float(rep.standard_error) for rep in reports]
        decays = all(gaps[i + 1] <= 0.8 * gaps[i] + 4.0 * (ses[i] + ses[i + 1])
                     for i in range(len(gaps) - 1))
        return {
            "passed": bool(decays),
            "grid_steps": [k // f for f in factors],
            "mean_square_gaps": gaps,
            "standard_errors": ses,
            "sample_count": reports[0].sample_count,
        }

    return Probe(sampler, gate)

