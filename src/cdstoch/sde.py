"""Strong solutions of grid-discretized stochastic Cauchy problems.

A problem is the equation dY = G(t, Y) dt + H(t, Y) dw alone: a drift
G and a diffusion H, each absent, a constant right-linear operator
(its shape checked when the problem is built) or a callback of (t, y),
an initial-condition sampler, a declared Lipschitz/growth constant and
the number n of noise components.  The time grid and the law of the
driving noise w belong to the PathEnsemble a solver is given, so one
problem runs on any grid and any law of its level and n; every route
that draws noise takes (problem, ensemble).  Two schemes are
implemented against shared noise: forward Euler recursion and Picard
iteration of the integral operator Q.  On a fixed grid the Picard fixed
point satisfies exactly the forward recursion, so the two schemes
double as a uniqueness probe.

Callbacks receive batched flat-layout states (replicas, 2 n dim) and a
scalar time; diffusion callbacks return operator terms in the same form
the integral layer uses (an operator, or per-replica weights paired
with one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraError, LevelMismatch, dim_of
from .linops import (
    CdVector,
    RightLinearOp,
    op_exp_left,
    op_phi1_left,
    op_terms,
    vec_norm2,
    vec_size,
)
from .paths import (
    GridError,
    PathEnsemble,
    Probe,
    TimeGrid,
    _stack_rows,
    _time_major,
    _tree_sum,
    halving_factors,
    pool_map,
)


class SdeError(AlgebraError):
    """Raised when a solve diverges or fails to converge."""


DIVERGENCE_LIMIT = 1e12
PICARD_M_MAX = 40
PICARD_TOL = 1e-8
RESTART_KS_LEVEL = 0.01


def _map(fn, items, threads: int):
    return pool_map(fn, items, threads)


# ------------------------------------------------------------ initial values

@dataclass(frozen=True)
class ZetaSpec:
    """Initial condition with a closed-form second moment: a fixed vector
    plus scale times centered unit Gaussians along the real embedding."""

    level: int
    h: int
    value: np.ndarray
    scale: float

    def __post_init__(self):
        if np.shape(self.value) != (self.size,):
            raise LevelMismatch("the initial value does not match (level, h)")
        if not (np.isfinite(self.scale) and self.scale >= 0):
            raise AlgebraError("the initial scale must be finite and >= 0")

    @classmethod
    def constant(cls, v: CdVector) -> "ZetaSpec":
        return cls(v.level, v.n, v.vec.copy(), 0.0)

    @classmethod
    def gaussian(cls, level: int, h: int, scale: float) -> "ZetaSpec":
        return cls(level, h, np.zeros(vec_size(level, h)), float(scale))

    @property
    def size(self) -> int:
        return vec_size(self.level, self.h)

    @property
    def mean_norm2(self) -> float:
        """E ||zeta||^2 in closed form."""
        return float(vec_norm2(self.value) + 2.0 * self.h * self.scale ** 2)

    def sample(self, batch) -> np.ndarray:
        out = np.tile(self.value, (batch.count, 1))
        if self.scale:
            real = out.reshape(batch.count, self.h, 2, dim_of(self.level))
            real[:, :, 0, 0] += self.scale * batch.initial_normals((self.h,))
        return out


# ------------------------------------------------------------------ problems

@dataclass(frozen=True)
class SdeProblem:
    """dY = G(t, Y) dt + H(t, Y) dw with declared constant K, driven by
    noise of n components; its grid and law are the ensemble's."""

    g: object
    h: object
    zeta: ZetaSpec
    k_const: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.k_const) and self.k_const > 0):
            raise AlgebraError("the declared constant K must be positive")
        for op, n in ((self.g, self.width), (self.h, self.n)):
            if isinstance(op, RightLinearOp) and (op.level, op.h, op.n) != (
                    self.level, self.width, n):
                raise LevelMismatch("operator coefficient of the wrong shape")

    @property
    def level(self) -> int:
        return self.zeta.level

    @property
    def width(self) -> int:
        return self.zeta.h

    def drift_at(self, t: float, y: np.ndarray) -> np.ndarray | None:
        if self.g is None:
            return None
        if isinstance(self.g, RightLinearOp):
            return y @ self.g.realized.T
        out = np.asarray(self.g(t, y), dtype=float)
        if out.shape != y.shape:
            raise AlgebraError("drift output shape must match the state")
        return out

    def diffusion_terms(self, t: float, y: np.ndarray) -> list:
        """H(t, y) on a (replicas, size) state as [(weights | None, op)]."""
        if self.h is None:
            return []
        raw = self.h(t, y) if callable(self.h) else self.h
        return op_terms(raw, y.shape[0], (self.level, self.width, self.n))


def linear_problem(g_op: RightLinearOp | None, h_op: RightLinearOp | None,
                   zeta: ZetaSpec, n: int) -> SdeProblem:
    """Constant-coefficient problem; K is a valid enclosure."""
    g2 = float(np.linalg.norm(g_op.realized, 2)) ** 2 if g_op is not None else 0.0
    h2 = h_op.hs_norm2() if h_op is not None else 0.0
    k_const = float(np.sqrt(g2 + h2)) + 1e-9
    return SdeProblem(g_op, h_op, zeta, k_const, n)


# ------------------------------------------------------------------ solvers

def _path_on(problem: SdeProblem, batch,
             grid: TimeGrid) -> np.ndarray | None:
    """The batch's flat path (replicas, points, m) at the points of grid, a
    level of its halving ladder: a strided view, no copy.  None without a
    diffusion, so a noise-free solve assembles no path.

    A kernel reads step l as np.subtract(w[:, l + 1], w[:, l], out=buf)
    into one reused buffer, the subtraction np.diff makes, so no
    increment array is built; the path is time-major, so each point it
    subtracts is a contiguous (replicas, m) block.
    """
    if problem.h is None:
        return None
    k = batch.ensemble.grid.steps
    return batch.w.reshape(batch.count, k + 1, -1)[:, ::k // grid.steps]


def _drift_step(problem: SdeProblem, t: float, dt: float, y: np.ndarray,
                out: np.ndarray) -> None:
    """Write G(t, y) dt into out, zeros without a drift."""
    if problem.g is None:
        out[...] = 0.0
    elif isinstance(problem.g, RightLinearOp):
        np.matmul(y, problem.g.realized.T, out=out)
        out *= dt
    else:
        np.multiply(problem.drift_at(t, y), dt, out=out)


def _forward_step(problem: SdeProblem, t: float, dt: float, y: np.ndarray,
                  dw_l: np.ndarray, out: np.ndarray) -> None:
    """Write the increment G(t, y) dt + sum of weights (dw_l H^T) over the
    terms into out.

    The one float order shared by the forward recursion and the Picard
    map, which is what makes their fixed points agree bitwise: the
    drift, then each term added in turn, then (by the caller) the state.
    """
    _drift_step(problem, t, dt, y, out)
    for weights, op in problem.diffusion_terms(t, y):
        seg = dw_l @ op.realized.T
        if weights is not None:
            seg *= weights[:, None]
        out += seg


def _em_values(problem: SdeProblem, grid: TimeGrid, w: np.ndarray | None,
               y0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward recursion on the path w (see _path_on) and its aborted
    rows (a boolean mask); replicas crossing the size guard turn NaN.
    Each step is written straight into its row of the result.  Without
    noise (w None) no step is read."""
    b, size = y0.shape
    out = _time_major(b, grid.steps + 1, size)
    out[:, 0] = y0
    buf = None if w is None else np.empty_like(w[:, 0])
    pts, deltas = grid.points, grid.deltas
    aborted = np.zeros(b, dtype=bool)
    for l in range(grid.steps):
        y, nxt = out[:, l], out[:, l + 1]
        dw_l = None if w is None else np.subtract(w[:, l + 1], w[:, l],
                                                  out=buf)
        _forward_step(problem, float(pts[l]), float(deltas[l]), y, dw_l, nxt)
        nxt += y
        # one scalar test per step; NaN fails it, so aborted rows and
        # rows crossing the guard take the per-row test
        if not np.abs(nxt).max() <= DIVERGENCE_LIMIT:
            with np.errstate(invalid="ignore"):
                bad = ~aborted & ~(np.max(np.abs(nxt), axis=1)
                                   <= DIVERGENCE_LIMIT)
            if bad.any():
                nxt[bad] = np.nan
                aborted |= bad
    return out, aborted


@dataclass(frozen=True)
class SolutionEnsemble:
    """Grid-aligned solution values per replica, with scheme diagnostics."""

    grid: TimeGrid
    values: np.ndarray
    diagnostics: dict


def _check_driving(problem: SdeProblem, ensemble: PathEnsemble) -> None:
    if ensemble.level != problem.level or ensemble.n != problem.n:
        raise LevelMismatch("ensemble noise does not match the problem")


def _to_solution(zeta: ZetaSpec, grid: TimeGrid, values: np.ndarray,
                 diagnostics: dict) -> SolutionEnsemble:
    shape = values.shape[:2] + (zeta.h, 2, dim_of(zeta.level))
    return SolutionEnsemble(grid, values.reshape(shape), diagnostics)


def _solution_probe(zeta: ZetaSpec, grid: TimeGrid, sample) -> Probe:
    """Gather probe of a solver: sample(batch) returns the batch's values
    and its aborted rows, and the gate builds the SolutionEnsemble."""

    def gate(joined):
        values, aborted = joined
        count = int(aborted.sum())
        return _to_solution(zeta, grid, values,
                            {"aborted_replicas": count} if count else {})

    return Probe(sample, gate, gather=True)


def euler_maruyama(problem: SdeProblem, ensemble: PathEnsemble) -> Probe:
    """One forward pass per replica on the shared driving noise: a gather
    probe whose result is the SolutionEnsemble."""
    _check_driving(problem, ensemble)
    grid = ensemble.grid
    return _solution_probe(problem.zeta, grid, lambda batch: _em_values(
        problem, grid, _path_on(problem, batch, grid),
        problem.zeta.sample(batch)))


def _q_apply(problem: SdeProblem, grid: TimeGrid, noise, x: np.ndarray,
             start: int, out: np.ndarray) -> None:
    """Write QX = zeta + left-endpoint time quadrature + stochastic sum
    into out, where X(t_0) = zeta for every iterate.

    noise is a batch's noise term (see _picard_noise), read as the
    problem's diffusion says: kick rows for a constant H, steps of the
    path for a callback H, nothing without H.  Accumulated in
    exactly the float order of the forward recursion, so the bitwise
    fixed point of Q coincides with the forward scheme.  (QX)[l+1] reads
    X only on [0, l]: when x = QX' and x agrees with X' on [0, start),
    QX equals x on [0, start].  out must hold X' on [0, start) (nothing
    when start is 0), so only the point at start (if any) is copied, and
    each later row is written as its step and then accumulated in place.
    """
    out[:, start:start + 1] = x[:, start:start + 1]
    kicks = isinstance(problem.h, RightLinearOp)
    buf = None if kicks or problem.h is None else np.empty_like(noise[:, 0])
    pts, deltas = grid.points, grid.deltas
    for l in range(start, grid.steps):
        t, dt, row = float(pts[l]), float(deltas[l]), out[:, l + 1]
        if buf is not None:
            _forward_step(problem, t, dt, x[:, l], np.subtract(
                noise[:, l + 1], noise[:, l], out=buf), row)
        else:
            _drift_step(problem, t, dt, x[:, l], row)
            if kicks:
                row += noise[:, l]
        row += out[:, l]


def _picard_noise(problem: SdeProblem, grid: TimeGrid,
                  w: np.ndarray | None):
    """What the Picard map reads for its noise term on one batch.

    The term dw_l H^T of a constant H does not depend on the state, so
    it is taken for every step once, as a time-major kick array, with
    the same (replicas, m) product per step that the forward step forms:
    one GEMM over all steps at once does not give every step those bits
    at small replica counts.  Without noise there is none (w None); a
    callback H keeps the path w (see _path_on).
    """
    if not isinstance(problem.h, RightLinearOp):
        return w
    hmat = problem.h.realized.T
    buf = np.empty_like(w[:, 0])
    kicks = _time_major(buf.shape[0], grid.steps, hmat.shape[1])
    for l in range(grid.steps):
        np.matmul(np.subtract(w[:, l + 1], w[:, l], out=buf), hmat,
                  out=kicks[:, l])
    return kicks


def _stationary_prefix(new: np.ndarray, old: np.ndarray, start: int) -> int:
    """First step index at or past start where the iterates differ.

    An exact != compare (NaN counts as a change); the sum of squared gaps
    cannot stand in for it, because tiny differences square to zero.
    Returns the number of points when the iterates are equal.
    """
    changed = np.any(new[:, start:] != old[:, start:], axis=(0, 2))
    hits = np.flatnonzero(changed)
    return start + int(hits[0]) if hits.size else new.shape[1]


def _repeat_in_time(z: np.ndarray, k: int) -> np.ndarray:
    """The constant Picard start: z at each of k points, time-major."""
    x = _time_major(z.shape[0], k, z.shape[1])
    x[:] = z[:, None, :]
    return x


class _PicardBatch:
    """Picard iteration X <- QX on one batch, from the constant start.

    Each advance resumes Q past the prefix on which the last two
    iterates agree bitwise.  Once they agree everywhere the iterate is a
    fixed point of Q, and an advance leaves it as it is without applying
    Q.  A step is an advance that also returns its gaps.  The batch holds
    its noise term (see _picard_noise) and two iterate buffers, which
    alternate: Q writes the new iterate over the one before the last,
    which already agrees with the last on the stationary prefix.
    """

    def __init__(self, problem: SdeProblem, grid: TimeGrid,
                 w: np.ndarray | None, zeta: np.ndarray):
        self.problem, self.grid = problem, grid
        self.noise = _picard_noise(problem, grid, w)
        self.x = _repeat_in_time(zeta, len(grid))
        self._spare = _time_major(*self.x.shape)
        self.start = 0

    @property
    def stationary(self) -> bool:
        return self.start == len(self.grid)

    def advance(self) -> None:
        """Map the iterate once."""
        if not self.stationary:
            old, new = self.x, self._spare
            _q_apply(self.problem, self.grid, self.noise, old, self.start,
                     new)
            self.start = _stationary_prefix(new, old, self.start)
            self.x, self._spare = new, old

    def step(self) -> np.ndarray:
        """Advance; returns the replica sum of vec_norm2(new - old) at
        each grid point.

        On the stationary prefix the new iterate is a bitwise copy, so
        the sums there are +0.0 and are not taken.  The rest is summed
        down a C-ordered (replicas, points) block, point by point, which
        gives each point the bits of a sum over the whole iterate.  A
        one-point block, which numpy would sum pairwise, arises only when
        the prefix ends at the last point; Q then copies every point and
        each gap is +0.0.
        """
        old, lo = self.x, self.start
        self.advance()
        sums = np.zeros(len(self.grid))
        sums[lo:] = np.sum(np.ascontiguousarray(
            vec_norm2(self.x[:, lo:] - old[:, lo:])), axis=0)
        return sums


def picard_solve(problem: SdeProblem, ensemble: PathEnsemble,
                 threads: int) -> SolutionEnsemble:
    """Iterate X <- QX from the constant start until the gap reaches
    PICARD_TOL, within PICARD_M_MAX iterations.

    The recorded distance sequence is the empirical sup-in-time
    root-mean-square gap between successive iterates.
    """
    _check_driving(problem, ensemble)
    grid = ensemble.grid

    def begin(batch):  # a batch lives only in the worker that starts it
        return _PicardBatch(problem, grid, _path_on(problem, batch, grid),
                            problem.zeta.sample(batch))

    runs = ensemble.map_batches(begin, threads)
    count = ensemble.n_replicas
    distances = []
    for _ in range(PICARD_M_MAX):
        per_t = _tree_sum(_map(lambda run: run.step(), runs, threads))
        dist = float(np.sqrt(np.max(per_t / count)))
        distances.append(dist)
        # PICARD_TOL = 0 keeps iterating until the iterate is bitwise stationary
        if dist <= PICARD_TOL:
            break
    else:
        raise SdeError(f"no fixed point within {PICARD_M_MAX} iterations; "
                       f"distances={distances}")
    return _to_solution(problem.zeta, grid,
                        _stack_rows([run.x for run in runs]),
                        {"iterations": len(distances), "distances": distances})


def picard_decay_check(distances: list, c1: float, span: float) -> dict:
    """Dominate the recorded gaps by c * (c1 span)^m / m! anchored at m=1."""
    if len(distances) <= 1 or distances[0] == 0.0:
        return {"passed": True, "fitted_c": 0.0,
                "distances": list(distances)}

    def shape(m):
        return (c1 * span) ** m / math.factorial(m)

    c = distances[0] / shape(1)
    ok = all(d <= c * shape(m + 1) * (1 + 1e-9) + 1e-15
             for m, d in enumerate(distances))
    return {"passed": bool(ok), "fitted_c": float(c),
            "distances": list(distances)}


def _b2inf_of_norms(norms: np.ndarray) -> float:
    """sup over grid points of the replica mean of a (replicas, points)
    norm array, rooted.  The mean runs over a C-ordered array, whose
    summation order over replicas is fixed (see paths._stack_rows)."""
    per_t = np.mean(np.ascontiguousarray(norms), axis=0)
    return float(np.sqrt(np.max(per_t)))


def b2inf_norm(values: np.ndarray) -> float:
    """sup over grid points of the ensemble mean squared norm, rooted."""
    if values.size == 0:
        raise AlgebraError("empty ensemble has no norm")
    flat = values.reshape(values.shape[0], values.shape[1], -1)
    return _b2inf_of_norms(vec_norm2(flat))


def _forward_norms(problem: SdeProblem, ensemble: PathEnsemble, norms_of,
                   gate) -> Probe:
    """Gather probe of a gate over the forward solution's norms:
    norms_of(batch, values) turns a batch's forward trajectory into a
    (replicas, points) norm array in the worker, so no trajectory
    outlives its batch, and gate(norms) reads the joined arrays."""
    _check_driving(problem, ensemble)
    grid = ensemble.grid

    def sample(batch):
        values, _ = _em_values(problem, grid, _path_on(problem, batch, grid),
                               problem.zeta.sample(batch))
        return (norms_of(batch, values),)

    return Probe(sample, lambda joined: gate(joined[0]), gather=True)


def picard_em_gap(problem: SdeProblem, ensemble: PathEnsemble,
                  picard: SolutionEnsemble) -> Probe:
    """b2inf_norm(picard.values - forward solution) on ensemble, where
    picard is the ensemble's Picard solution: a gather probe of each
    batch's vec_norm2 gaps against its rows of picard."""
    if picard.values.shape[:2] != (ensemble.n_replicas, len(ensemble.grid)):
        raise GridError("the Picard solution does not cover the ensemble")

    def gaps(batch, values):
        lo = batch.index * ensemble.batch_size
        rows = picard.values[lo:lo + batch.count].reshape(values.shape)
        return vec_norm2(rows - values)

    return _forward_norms(problem, ensemble, gaps, _b2inf_of_norms)


def linear_closed_form(problem: SdeProblem, ensemble: PathEnsemble) -> Probe:
    """Exact solution's conditional mean given the noise on the grid.

    For a problem with constant operator coefficients: the semigroup
    orbit plus the stochastic convolution, evaluated by the stepwise
    recursion Y <- E_dt Y + phi1(G dt) H dw with phi1(z) = (e^z - 1)/z:
    given its endpoints, the noise inside a step is a bridge whose mean
    grows linearly, so averaging the kernel e^{G (t_{l+1} - s)} over the
    step gives phi1.  The values are E[X(t_k) | w on the grid], with no
    discretization error of their own; pure noise (phi1 = I) and pure
    drift reduce to w and the orbit.  A gather probe whose result is the
    SolutionEnsemble; no row aborts.
    """
    _check_driving(problem, ensemble)
    grid, zeta = ensemble.grid, problem.zeta
    values = _closed_form_kernel(problem, grid)

    def sample(batch):
        out = _time_major(batch.count, len(grid), zeta.size)
        values(_path_on(problem, batch, grid), zeta.sample(batch), out)
        return out, np.zeros(batch.count, bool)

    return _solution_probe(zeta, grid, sample)


def _closed_form_kernel(problem: SdeProblem, grid: TimeGrid):
    """values(w, y, out): the recursion Y <- E_dt Y + phi1(G dt) H dw on
    grid from y over the path w (see _path_on), through out (replicas, m,
    size), time-major.

    Step l reads point l and writes point l + 1, each taken mod m: m =
    K+1 keeps the whole trajectory, m = 2 a rolling pair of rows with
    the same float operations.  Returns the terminal row.  Without noise
    (w None) no step is read.
    """
    g_op, h_op, size = problem.g, problem.h, problem.zeta.size
    if callable(g_op) or callable(h_op):
        raise SdeError("the closed form needs constant operator coefficients")
    hmat = None if h_op is None else h_op.realized.T
    cache = {}
    for dt in np.unique(grid.deltas):
        dt = float(dt)
        if g_op is None:
            cache[dt] = (np.eye(size), hmat)
        else:
            kick = None if hmat is None \
                else hmat @ op_phi1_left(g_op, dt).T
            cache[dt] = (op_exp_left(g_op, dt).T, kick)

    def values(w: np.ndarray | None, y: np.ndarray,
               out: np.ndarray) -> np.ndarray:
        m = out.shape[1]
        out[:, 0] = y
        buf = None if w is None else np.empty_like(w[:, 0])
        for l in range(grid.steps):
            prop, kick = cache[float(grid.deltas[l])]
            row = out[:, (l + 1) % m]
            np.matmul(out[:, l % m], prop, out=row)
            if kick is not None:
                row += np.subtract(w[:, l + 1], w[:, l], out=buf) @ kick
        return out[:, grid.steps % m]

    return values


# ------------------------------------------------------------------- checks

def lipschitz_validate(problem: SdeProblem, grid: TimeGrid,
                       sample_count: int, seed: int) -> dict:
    """Random-probe falsification of the declared constant.

    Samples times in the grid's window and state pairs across
    magnitudes, measures the Lipschitz ratio of (G, H) and the growth
    ratio, and reports the maxima against K.  A pass is
    non-falsification, not proof.
    """
    if sample_count < 1:
        raise AlgebraError("need at least one probe")
    rng = np.random.default_rng(seed)
    size = problem.zeta.size
    rounds = 8
    b = -(-sample_count // rounds)
    lips, growths = [], []
    for _ in range(rounds):
        t = float(rng.uniform(grid.a, grid.b))
        scale = 10.0 ** rng.uniform(-1.0, 2.0, size=(b, 1))
        x = rng.normal(size=(b, size)) * scale
        y = rng.normal(size=(b, size)) * scale
        gap2 = np.zeros(b)
        gx = problem.drift_at(t, x)
        gy = problem.drift_at(t, y)
        if gx is not None:
            gap2 += vec_norm2(gx - gy)
        hx = _stacked_blocks(problem, t, x)
        hy = _stacked_blocks(problem, t, y)
        h_gap2 = np.sum((hx - hy) ** 2, axis=(1, 2, 3, 4))
        denom = np.sqrt(vec_norm2(x - y))
        lips.append((np.sqrt(gap2) + np.sqrt(h_gap2))
                    / np.where(denom > 0, denom, np.inf))
        g2 = vec_norm2(gy) if gy is not None else np.zeros(b)
        h2 = np.sum(hy ** 2, axis=(1, 2, 3, 4))
        growths.append(np.sqrt((g2 + h2) / (1.0 + vec_norm2(y))))
    # np.max lets a NaN through, so a NaN map fails the check
    max_lip, max_growth = float(np.max(lips)), float(np.max(growths))
    k = problem.k_const
    tol = 1e-9 * max(1.0, k)
    passed = max_lip <= k + tol and max_growth <= k + tol
    return {
        "passed": bool(passed),
        "k": float(k),
        "max_lipschitz_ratio": max_lip,
        "max_growth_ratio": max_growth,
        "sample_count": rounds * b,
    }


def _stacked_blocks(problem: SdeProblem, t: float, y: np.ndarray) -> np.ndarray:
    """Per-replica diffusion operator as stacked weighted blocks."""
    b = y.shape[0]
    dim = dim_of(problem.level)
    out = np.zeros((b, 4, problem.width, problem.n, dim))
    for weights, op in problem.diffusion_terms(t, y):
        w = np.ones(b) if weights is None else weights
        for i, blk in enumerate((op.s00, op.s01, op.s10, op.s11)):
            out[:, i] += w[:, None, None, None] * blk[None]
    return out


def restart_markov_check(problem: SdeProblem, ensemble: PathEnsemble,
                         t_mid: float, z: CdVector) -> Probe:
    """Pathwise flow property plus a transition-law consistency probe.

    With shared noise the restarted forward recursion repeats the same
    float operations, so agreement on [t_mid, b] is required to be exact
    to 1e-12.  The probe restarts every replica from the fixed state z
    and compares two disjoint replica halves coordinatewise with a
    two-sample Kolmogorov-Smirnov test at RESTART_KS_LEVEL (Bonferroni
    across coordinates), on every sample: a gather probe.
    """
    _check_driving(problem, ensemble)
    if (z.level, z.n) != (problem.level, problem.width):
        raise LevelMismatch("the restart state does not match the problem")
    grid = ensemble.grid
    mid = grid.index_of(t_mid)
    tail_grid = TimeGrid(grid.points[mid:])

    def sampler(batch):
        w = _path_on(problem, batch, grid)
        tail = None if w is None else w[:, mid:]
        full, _ = _em_values(problem, grid, w, problem.zeta.sample(batch))
        restarted, _ = _em_values(problem, tail_grid, tail, full[:, mid])
        fixed, _ = _em_values(problem, tail_grid, tail,
                              np.tile(z.vec, (batch.count, 1)))
        dev = np.max(np.abs(full[:, mid:] - restarted), axis=(1, 2))
        return dev, fixed[:, -1]

    def gate(joined):
        devs, finals = joined
        # np.max lets a NaN through, so a NaN deviation fails the check
        max_dev = float(np.max(devs))
        half = finals.shape[0] // 2
        a, bb = finals[:half], finals[half:2 * half]
        n_coords = finals.shape[1]
        min_p = min([1.0] + [_ks_2samp_pvalue(a[:, j], bb[:, j])
                             for j in range(n_coords)])
        ks_ok = min_p >= RESTART_KS_LEVEL / n_coords
        return {
            "passed": bool(max_dev < 1e-12 and ks_ok),
            "max_pathwise_deviation": max_dev,
            "ks_min_pvalue": min_p,
            "ks_threshold": RESTART_KS_LEVEL / n_coords,
            "sample_count": finals.shape[0],
        }

    return Probe(sampler, gate, gather=True)


def _ks_2samp_pvalue(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sided exact two-sample Kolmogorov-Smirnov p-value, equal sizes.

    The exact route of scipy's ks_2samp (taken by its "auto" method
    up to 10000 per sample), op for op, so finite samples give the same
    bits: ECDF gaps over the pooled data, h = round(d n), then the
    Horner sum for P(D >= h/n) in Python floats.  Where that sum leaves
    [0, 1] (small h only, with p-values above 0.9999) scipy switches to
    the asymptotic law and this returns 1.0.  A sample holding a
    non-finite value gives 0.0, so it fails any level.
    """
    n = x.shape[0]
    if n == 0 or y.shape[0] != n:
        raise SdeError("the KS probe needs two nonempty samples of one size")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return 0.0
    x, y = np.sort(x), np.sort(y)
    pooled = np.concatenate([x, y])
    gaps = (np.searchsorted(x, pooled, side="right") / n
            - np.searchsorted(y, pooled, side="right") / n)
    min_s = np.clip(-gaps[np.argmin(gaps)], 0, 1)
    max_s = gaps[np.argmax(gaps)]
    h = int(np.round((min_s if min_s > max_s else max_s) * n))
    if h == 0:
        return 1.0
    # P = 2 A_0 (1 - A_1 (1 - A_2 (...))) with A_k = C(2n, n - (k+1) h) /
    # C(2n, n - k h): the alternating sum of C(2n, n - k h) / C(2n, n),
    # evaluated from the innermost term out
    p = 0.0
    for k in range(n // h, -1, -1):
        a_k = 1.0
        for j in range(h):
            a_k = (n - k * h - j) * a_k / (n + k * h + j + 1)
        p = a_k * (1.0 - p)
    p *= 2
    return p if 0.0 <= p <= 1.0 else 1.0


def _gronwall_gate(problem: SdeProblem, grid: TimeGrid, b2inf: float) -> dict:
    """A-priori second-moment bound with the implementation's constants,
    for a solution on grid whose b2inf_norm is b2inf."""
    span = grid.b - grid.a
    sup2 = b2inf ** 2
    bound = (3.0 * problem.zeta.mean_norm2
             + 3.0 * problem.k_const ** 2 * span * (span + 1.0) * (1.0 + sup2))
    return {
        "passed": bool(sup2 <= bound),
        "sup_mean_norm2": sup2,
        "bound": float(bound),
    }


def gronwall_check(problem: SdeProblem, solution: SolutionEnsemble) -> dict:
    """The a-priori bound (see _gronwall_gate) on a solution."""
    return _gronwall_gate(problem, solution.grid, b2inf_norm(solution.values))


def gronwall_bound(problem: SdeProblem, ensemble: PathEnsemble) -> Probe:
    """gronwall_check on the forward solution of problem on ensemble: a
    gather probe of its vec_norm2 at each replica and grid point."""
    grid = ensemble.grid
    return _forward_norms(
        problem, ensemble, lambda batch, values: vec_norm2(values),
        lambda norms: _gronwall_gate(problem, grid, _b2inf_of_norms(norms)))


def strong_order_study(problem: SdeProblem, ensemble: PathEnsemble,
                       halvings: int) -> Probe:
    """Terminal strong error of the forward scheme against the closed form.

    The ensemble grid is the reference resolution; each coarser level
    reuses the same noise by subsampling the paths.  Reports the
    (step, error) table and the fitted log-log slope.
    """
    _check_driving(problem, ensemble)
    grid = ensemble.grid
    if halvings < 2:
        raise GridError("a slope fit needs at least two halvings")
    factors = halving_factors(grid, halvings)[1:]
    reference = _closed_form_kernel(problem, grid)
    grids = [TimeGrid(grid.points[::f]) for f in factors]

    def sampler(batch):
        # the reference runs through a rolling pair of rows; each level's
        # terminal row is copied, so its trajectory is freed before the
        # next level runs
        z = problem.zeta.sample(batch)
        ref = reference(_path_on(problem, batch, grid), z,
                        _time_major(batch.count, 2, z.shape[1]))
        finals = (_em_values(problem, g, _path_on(problem, batch, g),
                             z)[0][:, -1].copy() for g in grids)
        return tuple(vec_norm2(final - ref) for final in finals)

    dts = [float(grid.points[f] - grid.points[0]) for f in factors]

    def gate(reports):
        errors = [float(np.sqrt(rep.estimate)) for rep in reports]
        slope, intercept = np.polyfit(np.log(dts), np.log(errors), 1)
        return {
            "slope": float(slope),
            "table": [{"dt": dt, "error": e} for dt, e in zip(dts, errors)],
            "sample_count": reports[0].sample_count,
        }

    return Probe(sampler, gate)


def uniqueness_study(problem: SdeProblem, ensemble: PathEnsemble,
                     halvings: int) -> Probe:
    """Picard-vs-forward gap across grid resolutions on shared noise.

    The one problem runs on every grid of the ladder; Picard runs to a
    bitwise-stationary iterate (tol = 0), where its fixed point
    satisfies the forward recursion exactly, so the gap measures pure
    uniqueness failure and is required to vanish.
    """
    _check_driving(problem, ensemble)
    grid = ensemble.grid
    factors = halving_factors(grid, halvings)[::-1]
    subs = [TimeGrid(grid.points[::f]) for f in factors]

    def level_gap(sub, b):
        w = _path_on(problem, b, sub)
        z = problem.zeta.sample(b)
        em, _ = _em_values(problem, sub, w, z)
        run = _PicardBatch(problem, sub, w, z)
        for _ in range(2 * PICARD_M_MAX):
            run.advance()
            if run.stationary:
                break
        else:
            raise SdeError("Picard iterate did not stabilize")
        # sweep sums over replicas in the order of a C-ordered array
        return np.ascontiguousarray(vec_norm2(run.x - em))

    def gate(reports):
        gaps = [float(np.sqrt(np.max(rep.estimate))) for rep in reports]
        non_increasing = all(gaps[j + 1] <= gaps[j] + 1e-12
                             for j in range(len(gaps) - 1))
        return {
            "passed": bool(non_increasing and gaps[-1] <= 1e-12),
            "grid_steps": [sub.steps for sub in subs],
            "b2inf_gaps": gaps,
            "sample_count": reports[0].sample_count,
        }

    # every grid level runs on each batch of the one sweep
    return Probe(lambda b: tuple(level_gap(sub, b) for sub in subs), gate)

