"""Gaussian random paths on finite time grids.

The central object is the drifted, operator-injected path

    w(t_l) = J_0 xi_0(t_l) + **i** J_1 xi_1(t_l) + p (t_l - t_0),

where xi_0 and xi_1 are independent standard Wiener samples in R^n
(embedded along the i_0 axis), J_k is the block square root of the
covariance U_k, and the central unit **i** carries the second stream
into the imaginary half.  Passing a plain ``CovarianceOperator`` drops
that half and yields a path with values in the non-complexified algebra.

Reproducibility contract: every draw comes from a counter-based Philox
generator keyed by ``(seed, tag)``.  Ensembles tag by fixed-size batch
so a whole block of replicas is one vectorized draw.  The realized
ensemble therefore depends only on the seed and the batch size constant,
never on thread count or completion order.

Every Monte Carlo pass is a ``sweep`` of probes over their ensembles,
the batches of every ensemble on one worker pool.  A moment probe's
per-batch partial sums are placed by batch index and collapsed in one
fixed pairwise pass; a gather probe's per-batch arrays are joined in
batch order into one C-ordered array.  Either way every result is
bit-identical for any worker count.

Multi-resolution checks run on a halving ladder: level j keeps every
2**j-th grid point of one ensemble, so every level sees the same noise.
``halving_factors`` gives the levels' subsampling factors and refuses a
grid that does not halve that often; ``halving_depth`` counts how often
a size halves evenly.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .algebra import (AlgebraError, LevelMismatch, cdc_mul_coeffs, dim_of,
                      mul_coeffs)
from .linops import (
    CdVector,
    ComplexCovariance,
    CovarianceOperator,
    RealFunctional,
)

# Two-sided 0.99 normal quantile, the characteristic-functional radius.
Z99 = 2.5758293035489004

# Replicas per keyed batch.  Part of the reproducibility contract:
# changing it changes which Philox stream feeds which replica.
DEFAULT_BATCH = 2048


class GridError(AlgebraError):
    """A time value or partition does not live on the grid."""


# ------------------------------------------------------------------ time grid

@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing partition t_0 < t_1 < ... < t_K of a window."""

    points: np.ndarray

    def __post_init__(self):
        # a private copy: freezing the caller's array would make it read-only
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise GridError("a grid needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise GridError("grid points must be finite")
        if not np.all(np.diff(pts) > 0):
            raise GridError("grid points must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, a: float, b: float, steps: int) -> "TimeGrid":
        if steps < 1:
            raise GridError("need at least one step")
        return cls(np.linspace(float(a), float(b), steps + 1))

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def steps(self) -> int:
        return self.points.size - 1

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.points)

    def index_of(self, t: float) -> int:
        """Index of the grid point equal to t, or GridError."""
        i = int(np.searchsorted(self.points, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.points.size:
                if abs(self.points[j] - t) <= 1e-12 * max(1.0, abs(t)):
                    return j
        raise GridError(f"t={t!r} is not a grid point")

    def __len__(self) -> int:
        return self.points.size


def halving_depth(steps: int) -> int:
    """How many times steps halves evenly (its two-adic order)."""
    return (steps & -steps).bit_length() - 1


def halving_factors(grid: TimeGrid, halvings: int) -> list[int]:
    """Subsampling factors 1, 2, 4, ..., 2**halvings of a halving ladder.

    Level j of the ladder keeps every 2**j-th point of grid; every level
    needs whole steps, so halvings must lie in 1..halving_depth(steps).
    """
    if halvings < 1 or grid.steps % (2 ** halvings) != 0:
        raise GridError("grid does not support that many halvings")
    return [2 ** j for j in range(halvings + 1)]


# ---------------------------------------------------------------- noise draws

# The Philox key layout, (seed, tag), is owned here whole.  Batch b of an
# ensemble draws stream s at tag b * _STREAMS + s: streams 0 and 1 feed
# the two injections and _INITIAL_STREAM the initial values.  Fixtures
# draw at tags _FIXTURE_BASE + index, far above every batch tag, so the
# two families never meet.
_STREAMS = 8
_INITIAL_STREAM = 2
_FIXTURE_BASE = 1 << 62


def _philox(seed: int, tag: int) -> Generator:
    # The key words must be handed over as uint64: a plain int list with a
    # value above 2^63 would be routed through float64 and lose low bits.
    key = np.array([seed, tag], dtype=np.uint64)
    return Generator(Philox(key=key))


def fixture_rng(seed: int, index: int) -> Generator:
    """The generator of fixture stream index, apart from all path noise."""
    return _philox(seed, _FIXTURE_BASE + index)


def batch_normals(seed: int, batch_index: int, count: int, shape: tuple,
                  stream: int) -> np.ndarray:
    """Standard normals (count, *shape) for one keyed ensemble batch.

    stream must lie in 0..7: stream 8 of a batch would be stream 0 of
    the next one.
    """
    if not 0 <= stream < _STREAMS:
        raise AlgebraError(f"stream must lie in 0..{_STREAMS - 1}")
    g = _philox(seed, batch_index * _STREAMS + stream)
    return g.standard_normal((count, *shape))


def batch_increments(grid: TimeGrid, n: int, seed: int, batch_index: int,
                     count: int, stream: int) -> np.ndarray:
    """(count, K, n) Gaussian increments with per-step variance dt_l."""
    z = batch_normals(seed, batch_index, count, (grid.steps, n), stream)
    z *= np.sqrt(grid.deltas)[None, :, None]
    return z


# ------------------------------------------------------------- path assembly

def _time_major(b: int, k: int, *shape: int) -> np.ndarray:
    """An uninitialized (b, k, *shape) array stored step by step.

    Each step slice [:, l] is one contiguous block, so a per-step kernel
    reads and writes it without striding across the whole path array.
    The storage is not zeroed: the caller writes every step row before
    it reads one.
    """
    return np.empty((k, b, *shape)).swapaxes(0, 1)


# The byte budget of one block's accumulator in assemble_paths.  A
# whole-path accumulator (and a half-size term array) stood 33.7 + 16.8 MB
# beside a 33.7 MB grid-256 path (2048 replicas, n = 1, level 2,
# complexified); blocks of 1 MB take 2.1 MB in all.  A block that stays in
# cache is also written out faster: traced assembly self time fell from
# 0.351 to 0.297 s over the ensembles workload's 139 calls and from 0.214
# to 0.148 s over the sde workload's 13 (BENCH_28.json), with the same bits.
_BLOCK_BYTES = 1 << 20


def assemble_paths(grid: TimeGrid, e0: np.ndarray, e1: np.ndarray | None,
                   p: CdVector | None, inc0: np.ndarray,
                   inc1: np.ndarray | None, points) -> np.ndarray:
    """Coefficient array (batch, P, n, 2, dim) of w at the P grid indices
    points, a sequence of ints, or over the whole grid when points is
    None (P = K+1).

    e0/e1 are entry arrays of the covariance square roots; the second
    injection lands in the imaginary half.  Drift advances from the
    first grid point, so w(t_0) is exactly zero.  Every row has the bits
    it has in the whole path, signed zeros included.  The array is
    stored time-major (see _time_major): each grid point w[:, l] is one
    contiguous block.

    The points are taken in ascending grid order, in blocks.  The
    running sums xi of inc (b, K, n) from zero at t_0 advance one grid
    step at a time, the sequential order of np.cumsum (which strides
    when it runs along an outer axis), and are copied out at each point;
    where np.cumsum copies the first step, 0 + step differs only in the
    sign of a zero, which the injection's sum from zero drops.  An
    accumulator (n, 2, dim, points, b) of at most _BLOCK_BYTES then takes
    sum_k e[l, k, d] xi[b, t, k] for both injections, the k terms in k
    order from zero, each multiply-add over whole (points, b) planes, and
    one transposing copy writes the block into w.  So at n <= 2 every
    entry has the einsum's bits, signed zeros included, and no scratch
    array spans the path.
    """
    b, k, n = inc0.shape
    dim = e0.shape[-1]
    index = list(range(k + 1)) if points is None else list(points)
    order = sorted(range(len(index)), key=index.__getitem__)
    size = len(index)
    halves = [(e0, inc0.transpose(2, 1, 0))]
    if inc1 is not None:
        halves.append((e1, inc1.transpose(2, 1, 0)))
    # one point at least, so an empty point set gives an empty path
    block = max(1, min(size, _BLOCK_BYTES // (n * 2 * dim * b * 8)))
    # zeroed once: without a second injection the imaginary half stays +0
    acc = np.zeros((n, 2, dim, block, b))
    term = np.empty((n, dim, block, b))
    xi = np.zeros((len(halves), n, b))  # the running sums at grid index t
    sums = np.empty((len(halves), n, block, b))
    w = _time_major(b, size, n, 2, dim)
    t = 0
    for lo in range(0, size, block):
        rows = order[lo:lo + block]
        m = len(rows)
        for r, i in enumerate(rows):
            while t < index[i]:
                for h, (_, steps) in enumerate(halves):
                    np.add(xi[h], steps[:, t], out=xi[h])
                t += 1
            sums[:, :, r] = xi
        for h, (e, _) in enumerate(halves):
            a, tm = acc[:, h, :, :m], term[:, :, :m]
            np.multiply(e[:, 0, :, None, None], sums[h, 0, :m], out=a)
            a += 0.0  # zero plus the first term, the einsum's signed zeros
            for j in range(1, n):
                np.multiply(e[:, j, :, None, None], sums[h, j, :m], out=tm)
                a += tm
        w.swapaxes(0, 1)[rows] = acc[..., :m, :].transpose(3, 4, 0, 1, 2)
    if p is not None:
        tau = (np.asarray(grid.points) - grid.a)[index]
        w += p.data[None, None] * tau[None, :, None, None, None]
    return w


def _split_u(u) -> tuple[CovarianceOperator, CovarianceOperator | None]:
    if isinstance(u, ComplexCovariance):
        return u.u0, u.u1
    if isinstance(u, CovarianceOperator):
        return u, None
    raise AlgebraError("covariance must be a block operator or a pair of them")


# ---------------------------------------------------------------- worker pool

# Extension modules whose OpenBLAS a batch's BLAS calls run on: numpy's
# (64-bit integer ABI) and scipy's.  A handle opened on a loaded extension
# resolves the symbols of the OpenBLAS it links.
_BLAS_MODULES = ("numpy._core._multiarray_umath", "scipy.linalg._fblas")
# Thread-count symbol pairs, "{}" being get or set; plain names last.
_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_",
                 "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads")

_budget_lock = threading.Lock()
_pool_workers = 0           # workers of every pool open right now
_blas_saved: list = []      # (get, set, count) of each library a pool capped


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the host."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


@cache
def _blas_control(module: str) -> tuple | None:
    """(get, set) thread-count functions of the OpenBLAS that a loaded
    extension module links, or None when it exports neither symbol pair.

    Looked up once per module, on the first pool call that finds it
    loaded.
    """
    try:
        lib = ctypes.CDLL(sys.modules[module].__file__)
    except OSError:
        return None
    for symbol in _BLAS_SYMBOLS:
        get = getattr(lib, symbol.format("get"), None)
        set_ = getattr(lib, symbol.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _blas_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS loaded now.

    Reads only the _BLAS_MODULES already imported and never imports one,
    so a module loaded later (scipy's, say) joins at the next pool.  With
    none found the budget leaves BLAS alone.  A library reached through
    both modules appears twice, which is harmless: capping is idempotent,
    and restoring runs last-saved first (see _blas_budget).
    """
    found = (_blas_control(m) for m in _BLAS_MODULES
             if getattr(sys.modules.get(m), "__file__", None))
    return tuple(c for c in found if c is not None)


def _cap_blas(workers: int) -> None:
    count = max(1, available_cpus() // workers)
    for get, set_, _ in _blas_saved:
        if get() != count:
            set_(count)


@contextmanager
def _blas_budget(workers: int):
    """Cap every loaded OpenBLAS while a pool of workers runs.

    OpenBLAS's thread count is process-global, so the cap is too: it is
    cpus // (workers of every open pool), at least one.  Each library's
    count is saved the first time an open pool finds it loaded, and every
    saved count is restored when the last pool closes, in reverse order,
    so a library saved twice ends at the count it was first saved with.
    """
    global _pool_workers
    with _budget_lock:
        for get, set_ in _blas_controls():
            if all(saved is not set_ for _, saved, _ in _blas_saved):
                _blas_saved.append((get, set_, get()))
        _pool_workers += workers
        _cap_blas(_pool_workers)
    try:
        yield
    finally:
        with _budget_lock:
            _pool_workers -= workers
            if _pool_workers:
                _cap_blas(_pool_workers)
            else:
                for _, set_, count in reversed(_blas_saved):
                    set_(count)
                _blas_saved.clear()


def pool_map(fn, items, threads: int) -> list:
    """fn over items, results in item order, on one CPU budget.

    Runs min(threads, len(items)) workers; one worker runs the items
    inline and leaves BLAS alone.  Otherwise BLAS is capped (see
    _blas_budget) until every worker has finished, so the pool and
    OpenBLAS do not claim the same CPUs twice.
    """
    items = list(items)
    workers = min(threads or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with _blas_budget(workers), ThreadPoolExecutor(workers) as ex:
        return list(ex.map(fn, items))


# ------------------------------------------------------------- path ensembles

class BatchPaths:
    """Lazily materialized block of consecutive replicas.

    points is the sorted tuple of grid indices that the samplers of a
    sweep declared they read, or None (outside a sweep, or when a sampler
    reads the whole path).  The first read assembles the path once, at
    those points only: ``at`` serves any of them, and ``w`` the whole
    path when no points were declared.  The path is all a batch holds:
    ``inc0`` and ``inc1`` draw its increments afresh on each read.
    """

    __slots__ = ("ensemble", "index", "count", "points", "_w")

    def __init__(self, ensemble: "PathEnsemble", index: int, count: int):
        self.ensemble = ensemble
        self.index = index
        self.count = count
        self.points = None
        self._w = None

    @property
    def inc0(self) -> np.ndarray:
        e = self.ensemble
        return batch_increments(e.grid, e.n, e.seed, self.index, self.count,
                                stream=0)

    @property
    def inc1(self) -> np.ndarray | None:
        e = self.ensemble
        if not e.complexified:
            return None
        return batch_increments(e.grid, e.n, e.seed, self.index, self.count,
                                stream=1)

    def _assembled(self) -> np.ndarray:
        """The batch's one assembly, at points (see assemble_paths)."""
        if self._w is None:
            e = self.ensemble
            self._w = assemble_paths(e.grid, e.sqrt_entries0, e.sqrt_entries1,
                                     e.p, self.inc0, self.inc1, self.points)
        return self._w

    @property
    def w(self) -> np.ndarray:
        """Path coefficients (count, K+1, n, 2, dim); GridError when only
        declared points are assembled."""
        if self.points is not None:
            raise GridError("only the declared points of this batch are "
                            "assembled; read them with at")
        return self._assembled()

    def at(self, indices) -> np.ndarray:
        """Path coefficients (count, len(indices), n, 2, dim) at the grid
        indices, stored time-major like w; each must be a declared point
        when points were declared."""
        w = self._assembled()
        if self.points is not None:
            if not set(indices) <= set(self.points):
                raise GridError("grid index not among the declared points")
            indices = [self.points.index(i) for i in indices]
        return w.swapaxes(0, 1)[list(indices)].swapaxes(0, 1)

    def initial_normals(self, shape: tuple) -> np.ndarray:
        """Standard normals (count, *shape) for this batch's initial values."""
        e = self.ensemble
        return batch_normals(e.seed, self.index, self.count, shape,
                             _INITIAL_STREAM)


@dataclass(frozen=True)
class PathEnsemble:
    """Replicated path family with a fixed generator specification.

    Noise is organized in fixed-size batches keyed by batch index, so the
    realized ensemble depends only on (seed, batch_size) and is identical
    for any worker count.
    """

    grid: TimeGrid
    u: ComplexCovariance | CovarianceOperator
    p: CdVector | None
    seed: int
    n_replicas: int
    batch_size: int = DEFAULT_BATCH

    def __post_init__(self):
        u0, _ = _split_u(self.u)
        if self.n_replicas < 1 or self.batch_size < 1:
            raise AlgebraError("replica and batch counts must be positive")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise AlgebraError("seed must fit in 64 unsigned bits")
        if self.p is not None and (self.p.level != u0.level
                                   or self.p.n != u0.n):
            raise LevelMismatch("drift vector does not match the covariance")

    @property
    def complexified(self) -> bool:
        return isinstance(self.u, ComplexCovariance)

    @property
    def u0(self) -> CovarianceOperator:
        return self.u.u0 if self.complexified else self.u

    @property
    def u1(self) -> CovarianceOperator | None:
        return self.u.u1 if self.complexified else None

    @property
    def level(self) -> int:
        return self.u0.level

    @property
    def n(self) -> int:
        return self.u0.n

    @cached_property
    def sqrt_entries0(self) -> np.ndarray:
        return self.u0.sqrt_entries()

    @cached_property
    def sqrt_entries1(self) -> np.ndarray | None:
        return self.u1.sqrt_entries() if self.complexified else None

    @property
    def n_batches(self) -> int:
        return -(-self.n_replicas // self.batch_size)

    def batch(self, index: int) -> BatchPaths:
        start = index * self.batch_size
        return BatchPaths(self, index,
                          min(self.batch_size, self.n_replicas - start))

    def map_batches(self, fn, threads: int, *more: "PathEnsemble") -> list:
        """fn over every batch of this ensemble, then of each ensemble in
        more, on one pool; results in that (ensemble, batch index) order.

        Each batch is built in the worker that runs fn on it and dropped
        when fn returns, so no more batches are alive than workers.
        """
        keys = [(ens, index) for ens in (self, *more)
                for index in range(ens.n_batches)]
        return pool_map(lambda key: fn(key[0].batch(key[1])), keys, threads)


def _tree_sum(parts: list) -> np.ndarray:
    """Fixed-order pairwise reduction of per-batch partial sums."""
    return np.sum(np.stack([np.asarray(p, dtype=float) for p in parts],
                           axis=0), axis=0)


# ------------------------------------------------------------- MC estimators

@dataclass(frozen=True)
class McReport:
    """Monte Carlo point estimate with its standard error."""

    estimate: np.ndarray
    standard_error: np.ndarray
    sample_count: int

    def __post_init__(self):
        for name in ("estimate", "standard_error"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float))
        if np.any(self.standard_error < 0):
            raise AlgebraError("standard errors must be nonnegative")

    @classmethod
    def from_sums(cls, s1: np.ndarray, s2: np.ndarray,
                  count: int) -> "McReport":
        mean = np.asarray(s1, dtype=float) / count
        var = (np.asarray(s2, dtype=float) - count * mean * mean)
        var = np.clip(var / max(count - 1, 1), 0.0, None)
        return cls(mean, np.sqrt(var / count), count)

    def within(self, target) -> np.ndarray:
        """Componentwise |estimate - target| <= 4 standard errors."""
        gap = np.abs(self.estimate - np.asarray(target, dtype=float))
        return gap <= 4.0 * self.standard_error + 1e-12

    def max_gap(self, target) -> float:
        return float(np.max(np.abs(self.estimate - np.asarray(target, dtype=float))))


def complex_of(report: McReport) -> complex:
    """Complex value of a (re, im) shaped report."""
    est = report.estimate
    if est.shape != (2,):
        raise AlgebraError("report does not hold a complex estimate")
    return complex(est[0], est[1])


def modulus_se(report: McReport) -> float:
    """Combined standard error for the modulus of a complex estimate."""
    se = report.standard_error
    if se.shape != (2,):
        raise AlgebraError("report does not hold a complex estimate")
    return float(np.sqrt(se[0] ** 2 + se[1] ** 2))


class Probe(NamedTuple):
    """A Monte Carlo check on ensemble, whose law and grid its factory's
    oracle reads, split for a shared sweep: sample(batch) returns a tuple
    of per-replica arrays, gate(values) turns their McReports, or for a
    gather probe the arrays joined over the batches, into the check's
    result.  A gate takes a maximum with np.max over a gather: exact,
    and a NaN reaches the verdict.  points names the grid indices (ints)
    that sample reads, through batch.at; None means it reads the whole
    path, through batch.w."""

    ensemble: PathEnsemble
    sample: Callable
    gate: Callable
    gather: bool = False
    points: tuple | None = None


def _moments(v) -> tuple:
    """(sum, sum of squares) over replicas, on a C-ordered copy when v is
    not C-ordered: the order of a sum over the first axis follows the
    layout (see _stack_rows), and C order keeps it fixed."""
    v = np.ascontiguousarray(v, dtype=float)
    return np.sum(v, axis=0), np.sum(v * v, axis=0)


def _stack_rows(arrays: list) -> np.ndarray:
    """Concatenate along replicas into a C-ordered array: np.concatenate
    and ufuncs inherit the layout of their inputs (a time-major solver
    array, say), and with it the summation order of any later reduction
    over replicas; C order keeps that order fixed."""
    out = np.empty((sum(a.shape[0] for a in arrays),) + arrays[0].shape[1:],
                   dtype=np.result_type(*arrays))
    return np.concatenate(arrays, axis=0, out=out)


def sweep(probes: list[Probe], threads: int) -> list:
    """Each probe's result, in probe order, from one pass over the
    batches of every probe's ensemble, all on one pool.

    Probes that share an ensemble object share its batches: each batch
    is assembled once for all of their samplers, at the union of the
    points they declare, or over the whole grid when any of them reads
    the whole path.  A moment probe's arrays are reduced to (sum, sum of
    squares) per batch, and the partial sums collapse in the fixed batch
    order; a gather probe's arrays are joined in batch order.  So every
    result is bit-identical for any worker count, and a probe's result
    has the bits of that probe swept alone.
    """
    if not probes:
        return []
    groups = {}  # id(ensemble) -> (ensemble, its probe indices)
    for i, (ens, *_) in enumerate(probes):
        groups.setdefault(id(ens), (ens, []))[1].append(i)
    points = {}  # id(ensemble) -> the points its probes read, None for all
    for key, (_, members) in groups.items():
        declared = [probes[i].points for i in members]
        points[key] = None if None in declared \
            else tuple(sorted(set().union(*declared)))

    def sample(batch):
        batch.points = points[id(batch.ensemble)]
        return [probes[i].sample(batch) if probes[i].gather
                else [_moments(v) for v in probes[i].sample(batch)]
                for i in groups[id(batch.ensemble)][1]]

    ensembles = [ens for ens, _ in groups.values()]
    parts = ensembles[0].map_batches(sample, threads, *ensembles[1:])
    results = [None] * len(probes)
    for ens, members in groups.values():
        # own[batch][j] holds probe members[j]'s part per array: the array
        # itself for a gather, else its (sum, sum of squares); col is one
        # array's parts
        own, parts = parts[:ens.n_batches], parts[ens.n_batches:]
        for j, i in enumerate(members):
            probe = probes[i]
            results[i] = probe.gate([
                _stack_rows(col) if probe.gather else McReport.from_sums(
                    _tree_sum([m[0] for m in col]),
                    _tree_sum([m[1] for m in col]), ens.n_replicas)
                for col in zip(*(p[j] for p in own))])
    return results


# -------------------------------------------------------------- moment checks

def mean_increment(ensemble: PathEnsemble, t1: float, t2: float) -> Probe:
    """Mean of w(t2) - w(t1) against (t2 - t1) p, within 4 standard errors."""
    i1 = ensemble.grid.index_of(t1)
    i2 = ensemble.grid.index_of(t2)
    if ensemble.p is None:
        target = np.zeros((ensemble.n, 2, dim_of(ensemble.level)))
    else:
        target = (t2 - t1) * ensemble.p.data

    def gate(reports):
        rep, = reports
        return {
            "passed": bool(np.all(rep.within(target))),
            "max_gap": rep.max_gap(target),
            "max_standard_error": float(np.max(rep.standard_error)),
            "sample_count": rep.sample_count,
        }

    def sample(batch: BatchPaths):
        w = batch.at((i1, i2))
        return (w[:, 1] - w[:, 0],)

    return Probe(ensemble, sample, gate, points=(i1, i2))


def increment_cov(ensemble: PathEnsemble, t1: float, t2: float,
                  k: int, h: int) -> Probe:
    """Second-moment structure of the centered path at components k, h.

    Samples the asserted increment form (dw_k)(dw_h) over [t1, t2] and,
    alongside it, the two-time product taken verbatim at (t2, t1), each
    value centred by the drift it gathered from the window start; both
    are compared to the same (t2 - t1)-scaled block value (``expected``),
    and only the increment form is asserted to match it.
    """
    n = ensemble.n
    if not (0 <= k < n and 0 <= h < n):
        raise AlgebraError("component index out of range")
    grid = ensemble.grid
    i1, i2 = grid.index_of(t1), grid.index_of(t2)
    if i1 >= i2:
        raise GridError("need t1 < t2 on the grid")
    level = ensemble.level
    cx = ensemble.complexified
    dim = dim_of(level)
    pc = ensemble.p.data if ensemble.p is not None else np.zeros((n, 2, dim))
    expected = (t2 - t1) * ensemble.u0.entries()[k, h]
    if cx:
        expected = expected - (t2 - t1) * ensemble.u1.entries()[k, h]
        expected = np.stack([expected, np.zeros_like(expected)])

    def product(x, y):  # a real-part path has a zero i-half
        return cdc_mul_coeffs(level, x, y) if cx \
            else mul_coeffs(level, x[:, 0], y[:, 0])

    def sample(batch: BatchPaths):
        w = batch.at((i1, i2))
        w1, w2 = w[:, 0], w[:, 1]
        xs = w2[:, k] - (t2 - grid.a) * pc[k][None]
        ys = w1[:, h] - (t1 - grid.a) * pc[h][None]
        stated = product(xs, ys)
        dx = (w2[:, k] - w1[:, k]) - (t2 - t1) * pc[k][None]
        dy = (w2[:, h] - w1[:, h]) - (t2 - t1) * pc[h][None]
        return product(dx, dy), stated

    def gate(reports):
        rep, stated = reports
        return {
            "passed": bool(np.all(rep.within(expected))),
            "max_gap": rep.max_gap(expected),
            "max_standard_error": float(np.max(rep.standard_error)),
            "as_stated_gap": stated.max_gap(expected),
            "expected": expected,
            "sample_count": rep.sample_count,
            "k": k,
            "h": h,
        }

    return Probe(ensemble, sample, gate, points=(i1, i2))


def disjoint_increments(ensemble: PathEnsemble, t1: float, t2: float,
                        t3: float, t4: float) -> Probe:
    """Largest coefficientwise correlation between disjoint increments."""
    grid = ensemble.grid
    i1, i2 = grid.index_of(t1), grid.index_of(t2)
    i3, i4 = grid.index_of(t3), grid.index_of(t4)
    if not (i1 < i2 <= i3 < i4):
        raise GridError("increment windows must be ordered and disjoint")

    points = (i1, i2, i3, i4)

    def sample(batch: BatchPaths):
        w = batch.at(points)
        x = (w[:, 1] - w[:, 0]).reshape(batch.count, -1)
        y = (w[:, 3] - w[:, 2]).reshape(batch.count, -1)
        return x, y, x * x, y * y, x * y

    def gate(reports):
        mx, my, mxx, myy, mxy = (rep.estimate for rep in reports)
        count = reports[0].sample_count
        vx = np.clip(mxx - mx * mx, 0.0, None)
        vy = np.clip(myy - my * my, 0.0, None)
        cov = mxy - mx * my
        # Deterministic coordinates (drift only) carry pure cancellation
        # noise in the one-pass variance, so gate relative to their scale.
        live = (vx > 1e-12 * np.maximum(1.0, mx * mx)) \
            & (vy > 1e-12 * np.maximum(1.0, my * my))
        corr = np.zeros_like(cov)
        corr[live] = cov[live] / np.sqrt(vx[live] * vy[live])
        bound = 4.0 / np.sqrt(count)
        top = float(np.max(np.abs(corr))) if corr.size else 0.0
        return {
            "passed": bool(top <= bound),
            "max_abs_correlation": top,
            "bound": bound,
            "sample_count": count,
        }

    return Probe(ensemble, sample, gate, points=points)


# --------------------------------------------------- characteristic functional

def char_functional_estimator(ensemble: PathEnsemble, y: RealFunctional,
                              t: float) -> Probe:
    """Empirical mean of exp(**i** y(w(t))); the gate returns its (re, im)
    report."""
    if y.level != ensemble.level or y.n != ensemble.n:
        raise LevelMismatch("functional does not match the ensemble")
    idx = ensemble.grid.index_of(t)

    def sample(batch: BatchPaths):
        theta = y(batch.at((idx,))[:, 0].reshape(batch.count, -1))
        return (np.stack([np.cos(theta), np.sin(theta)], axis=1),)

    return Probe(ensemble, sample, lambda reports: reports[0], points=(idx,))


def char_functional_closed_form(u, p: CdVector | None, y: RealFunctional,
                                duration: float) -> complex:
    """exp(**i** d y(p) - d Var[y(w_unit)] / 2) for the Gaussian path law.

    The variance rate is assembled from the square-root entry columns of
    the two injections, which are exactly the images of the embedded unit
    noise coordinates.
    """
    if duration < 0:
        raise AlgebraError("duration must be nonnegative")
    u0, u1 = _split_u(u)
    if y.level != u0.level or y.n != u0.n:
        raise LevelMismatch("functional does not match the covariance")
    c = y.coeffs.reshape(u0.n, 2, dim_of(u0.level))
    g0 = np.einsum("ld,lkd->k", c[:, 0], u0.sqrt_entries())
    var_rate = float(g0 @ g0)
    if u1 is not None:
        g1 = np.einsum("ld,lkd->k", c[:, 1], u1.sqrt_entries())
        var_rate += float(g1 @ g1)
    drift_rate = y(p) if p is not None else 0.0
    return complex(np.exp(1j * duration * drift_rate - duration * var_rate / 2.0))


def char_functional_check(ensemble: PathEnsemble, y: RealFunctional,
                          t: float) -> Probe:
    """Empirical functional against the closed form, 0.99 modulus interval."""
    estimator = char_functional_estimator(ensemble, y, t)
    oracle = char_functional_closed_form(ensemble.u, ensemble.p, y,
                                         t - ensemble.grid.a)

    def gate(reports):
        rep, = reports
        gap = abs(complex_of(rep) - oracle)
        radius = Z99 * modulus_se(rep)
        return {
            "passed": bool(gap <= radius + 1e-12),
            "gap": float(gap),
            "radius": float(radius),
            "estimate_re": float(rep.estimate[0]),
            "estimate_im": float(rep.estimate[1]),
            "oracle_re": float(oracle.real),
            "oracle_im": float(oracle.imag),
            "t": float(t),
            "sample_count": rep.sample_count,
        }

    return estimator._replace(gate=gate)


def char_semigroup(ensemble: PathEnsemble, y: RealFunctional,
                   d1: float, d2: float) -> Probe:
    """Composition of durations against the product of functionals, with
    char_functional_check's 1e-12 slack (a zero-variance case passes)."""
    a = ensemble.grid.a
    estimators = [char_functional_estimator(ensemble, y, a + d)
                  for d in (d1, d2, d1 + d2)]

    def gate(reports):
        r1, r2, r12 = reports
        gap = abs(complex_of(r12) - complex_of(r1) * complex_of(r2))
        tol = 5.0 * (modulus_se(r1) + modulus_se(r2))
        return {
            "passed": bool(gap <= tol + 1e-12),
            "gap": float(gap),
            "tolerance": float(tol),
            "sample_count": r12.sample_count,
        }

    return Probe(ensemble,
                 lambda b: tuple(e.sample(b)[0] for e in estimators), gate,
                 points=tuple(e.points[0] for e in estimators))


# ------------------------------------------- tails and stochastic continuity

def check_thresholds(**thresholds: float) -> None:
    """AlgebraError unless every named tail threshold is finite and > 0.

    A NaN fails every comparison, so its tail reads zero and passes; an
    infinite or non-positive threshold measures nothing either."""
    for name, value in thresholds.items():
        if not (np.isfinite(value) and value > 0):
            raise AlgebraError(f"{name} must be finite and positive, "
                               f"got {value!r}")


def lag_exceedances(x: np.ndarray, lags, eps2: float) -> list[np.ndarray]:
    """Indicators 2 sum_coords (x[:, l + lag] - x[:, l])**2 > eps2, one
    (b, K+1-lag) bool array per lag, for x of shape (b, K+1, *coords).

    Each block of lag differences is taken, squared and summed in place
    in one scratch block of at most _BLOCK_BYTES, so no array spans the
    path.  Each norm is the pairwise sum over one contiguous row of
    coords, the order of vec_norm2 on the whole difference array, so
    every indicator has the bits of vec_norm2(x[:, lag:] - x[:, :-lag])
    > eps2, for any layout of x.
    """
    b, kk = x.shape[:2]
    rows = x.reshape(b, kk, -1).swapaxes(0, 1)  # (K+1, b, coords)
    c = rows.shape[2]
    block = max(1, min(kk, _BLOCK_BYTES // (b * c * 8)))
    # (block, b, c) and (block, b), C-ordered: each row one (b, c) block
    scratch = _time_major(b, block, c).swapaxes(0, 1)
    norms = _time_major(b, block).swapaxes(0, 1)
    outs = []
    for lag in lags:
        size = kk - lag
        out = np.empty((b, size), dtype=bool)
        for lo in range(0, size, block):
            m = min(block, size - lo)
            d, s = scratch[:m], norms[:m]
            np.subtract(rows[lo + lag:lo + lag + m], rows[lo:lo + m], out=d)
            np.multiply(d, d, out=d)
            np.sum(d, axis=2, out=s)
            s *= 2.0
            np.greater(s.T, eps2, out=out[:, lo:lo + m])
        outs.append(out)
    return outs


def sup_norm2(x: np.ndarray) -> np.ndarray:
    """max over grid points of vec_norm2(x[:, l]), per replica, for x of
    shape (b, K+1, *coords).

    Each row is squared into one (b, coords) buffer and summed, and the
    maximum runs with np.maximum, so a NaN reaches it; doubling once at
    the end gives the bits of np.max(vec_norm2(x.reshape(b, K+1, -1)),
    axis=1) without a path-sized square.
    """
    b, kk = x.shape[:2]
    rows = x.reshape(b, kk, -1)
    sq = np.empty_like(rows[:, 0])
    norms = np.empty(b)
    sup = np.full(b, -np.inf)
    for l in range(kk):
        np.multiply(rows[:, l], rows[:, l], out=sq)
        np.sum(sq, axis=1, out=norms)
        np.maximum(sup, norms, out=sup)
    sup *= 2.0
    return sup


def path_continuity(ensemble: PathEnsemble, eps: float,
                    halvings: int) -> Probe:
    """Tail P{ ||w(t + delta) - w(t)|| > eps } over a halving ladder.

    For each delta the tail is the worst grid offset at that exact lag;
    the ladder must be non-increasing within binomial slack as delta
    shrinks.  Per-lag tails at the window start are returned as well,
    since they are plain binomial proportions suitable for oracles.
    eps must be finite and > 0.
    """
    check_thresholds(eps=eps)
    k = ensemble.grid.steps
    lags = [k // f for f in halving_factors(ensemble.grid, halvings)[1:]]
    pts = ensemble.grid.points
    deltas = [float(np.max(pts[lag:] - pts[:-lag])) for lag in lags]

    def sample(batch: BatchPaths):
        # 0/1 indicators: their sums, and so the tails, are exact
        return lag_exceedances(batch.w, lags, eps * eps)

    def gate(reports):
        count = reports[0].sample_count
        tails = [float(np.max(rep.estimate)) for rep in reports]
        ok = True
        for j in range(len(tails) - 1):
            se = np.sqrt(max(tails[j] * (1 - tails[j]), 1e-12) / count)
            se_next = np.sqrt(max(tails[j + 1] * (1 - tails[j + 1]), 1e-12)
                              / count)
            if tails[j + 1] > tails[j] + 2.0 * (se + se_next):
                ok = False
        return {
            "passed": bool(ok),
            "eps": float(eps),
            "deltas": deltas,
            "tails": tails,
            "origin_tails": [float(rep.estimate[0]) for rep in reports],
            "sample_count": count,
        }

    return Probe(ensemble, sample, gate)
