"""Property tests: blocked path assembly, halving-ladder increments,
Picard = Euler on random problems, sweep row independence, replica
counts at a batch boundary, the algebra laws at levels 0-5 and the
config gates under edge numbers.

Every property runs derandomized and without an example database, so a
run draws the same examples each time; a counterexample one finds becomes
a fixed regression test beside it.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cdstoch.paths as paths
import cdstoch.sde as sde
from cdstoch.algebra import CdReal, mul_coeffs
from cdstoch.config import ConfigError, RunConfig, parse_config_fields
from cdstoch.experiments import _random_complex_cov
from cdstoch.linops import (
    CdVector,
    ComplexCovariance,
    CovarianceOperator,
    RealFunctional,
    RightLinearOp,
    vec_norm2,
)
from cdstoch.paths import (
    McReport,
    PathEnsemble,
    Probe,
    TimeGrid,
    char_semigroup,
    disjoint_increments,
    increment_cov,
    mean_increment,
    path_continuity,
    sweep,
)
from cdstoch.sde import (
    SdeProblem,
    ZetaSpec,
    euler_maruyama,
    linear_problem,
    uniqueness_study,
)
from test_paths import _einsum_assembly


def examples(count: int):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=count)


def _bits(value):
    """A result with every float replaced by its bytes."""
    if dataclasses.is_dataclass(value):
        return _bits(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, (float, np.ndarray)):
        return np.asarray(value).tobytes()
    return value


# ------------------------------------------------------ blocked assembly

# replicas 2048 run at levels 0-2 only, to keep the property under 2 s
@example(level=5, n=3, complexified=True, drifted=True, replicas=7, steps=5,
         seed=0)
@example(level=2, n=1, complexified=True, drifted=False, replicas=2048,
         steps=8, seed=1)
@example(level=0, n=2, complexified=False, drifted=True, replicas=1,
         steps=1, seed=2)
@examples(30)
@given(level=st.integers(0, 5), n=st.integers(1, 3),
       complexified=st.booleans(), drifted=st.booleans(),
       replicas=st.sampled_from([1, 7, 2048]), steps=st.integers(1, 9),
       seed=st.integers(0, 2 ** 62 - 1))
def test_blocked_assembly_keeps_the_bits_of_one_block(
        level, n, complexified, drifted, replicas, steps, seed):
    """An assembly in blocks of 1, 2 or 3 points, or of P - 1, P or P + 1
    for P assembled points, has the bits of the whole path's rows taken
    in one block, at every point set; at n <= 2 the whole path has the
    einsum's bits, signed zeros included."""
    if replicas == 2048:
        level = min(level, 2)
    rng = np.random.default_rng(seed)
    dim = 2 ** level
    grid = TimeGrid.uniform(0.0, 1.0, steps)
    e0, e1 = rng.standard_normal((2, n, n, dim))
    e0[0, 0, :(dim + 1) // 2] = -0.0  # signed zeros must survive
    inc0, inc1 = rng.standard_normal((2, replicas, steps, n))
    inc0[:, 0] = -0.0
    if not complexified:
        e1 = inc1 = None
    p = CdVector(level, n, rng.standard_normal((n, 2, dim))) \
        if drifted else None
    per_point = n * 2 * dim * replicas * 8  # accumulator bytes per point

    def assemble(points, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(paths, "_BLOCK_BYTES", block * per_point)
            return paths.assemble_paths(grid, e0, e1, p, inc0, inc1, points)

    whole = assemble(None, steps + 1)
    if n <= 2:
        ref = _einsum_assembly(grid, e0, e1, p, inc0, inc1)
        assert whole.tobytes() == ref.tobytes()
    chosen = rng.permutation(steps + 1)[:rng.integers(1, steps + 2)]
    for points in (None, tuple(int(i) for i in chosen)):
        rows = whole if points is None else whole[:, list(points)]
        size = rows.shape[1]
        for block in {1, 2, 3, max(1, size - 1), size, size + 1}:
            got = assemble(points, block)
            assert got.tobytes() == rows.tobytes(), (points, block)


# ---------------------------------------------------- halving-ladder reads

@examples(30)
@given(level=st.integers(0, 3), n=st.integers(1, 2),
       complexified=st.booleans(), drifted=st.booleans(),
       m=st.integers(1, 3), h=st.integers(0, 3),
       seed=st.integers(0, 2 ** 62 - 1))
def test_every_ladder_level_reads_its_increments_off_the_path(
        level, n, complexified, drifted, m, h, seed):
    """_path_on at level j of a halving ladder is a view of every 2**j-th
    path point, whose steps, read as the kernels read them, have the bits
    of np.diff of those points, and each point they subtract is a
    contiguous block; the increments a batch draws are the same on every
    read."""
    grid = TimeGrid.uniform(0.0, 1.0, m * 2 ** h)
    u0 = CovarianceOperator.identity(level, n)
    u = ComplexCovariance(u0, u0) if complexified else u0
    p = CdVector(level, n, np.random.default_rng(seed).standard_normal(
        (n, 2, 2 ** level))) if drifted else None
    batch = PathEnsemble(grid, u, p, seed=seed, n_replicas=5).batch(0)
    prob = linear_problem(None, RightLinearOp.identity(level, n),
                          ZetaSpec.gaussian(level, n, 1.0), n)
    w = batch.w.reshape(batch.count, len(grid), -1)
    for j in range(h + 1):
        sub = TimeGrid(grid.points[::2 ** j])
        view = sde._path_on(prob, batch, sub)
        assert np.shares_memory(view, batch.w)
        assert view.tobytes() == w[:, ::2 ** j].tobytes()
        expect = np.diff(w[:, ::2 ** j], axis=1)
        buf = np.empty_like(view[:, 0])
        for l in range(sub.steps):
            step = np.subtract(view[:, l + 1], view[:, l], out=buf)
            assert step.tobytes() == expect[:, l].tobytes()
            assert view[:, l].flags.c_contiguous
        assert buf.shape == expect[:, 0].shape
    assert batch.inc0.tobytes() == batch.inc0.tobytes()
    if complexified:
        assert batch.inc1.tobytes() == batch.inc1.tobytes()
    else:
        assert batch.inc1 is None


# ------------------------------------------------------- Picard = Euler

def _random_problem(rng, level, n, width, drift, diffusion):
    """A problem of the given coefficient kinds with tame random values."""
    dim = 2 ** level

    def op(cols, scale):
        return RightLinearOp.from_blocks(level, *(
            scale * rng.standard_normal((width, cols, dim)) for _ in range(4)))

    g = {"none": None, "constant": op(width, 0.3)}.get(drift)
    if drift == "callback":
        def g(t, y):
            return -np.tanh(y) * (1.0 + t)
    h = {"none": None, "constant": op(n, 0.5)}.get(diffusion)
    if diffusion == "weighted":
        h1, h2 = op(n, 0.5), op(n, 0.5)

        def h(t, y):
            return [(np.cos(y[:, 0]), h1), (np.tanh(y[:, -1]) * t, h2)]
    zeta = ZetaSpec(level, width, rng.standard_normal(2 * width * dim), 0.5)
    return SdeProblem(g, h, zeta, 1.0, n)


# one and seven replicas over several steps: row counts at which one GEMM
# over every step is not bitwise the per-step product
@example(level=1, n=1, width=1, steps=8, replicas=1, drift="constant",
         diffusion="constant", stride=2, seed=0)
@example(level=2, n=1, width=1, steps=16, replicas=7, drift="constant",
         diffusion="constant", stride=1, seed=1)
@examples(80)
@given(level=st.integers(0, 3), n=st.integers(1, 2), width=st.integers(1, 2),
       steps=st.integers(1, 24), replicas=st.integers(1, 70),
       drift=st.sampled_from(["none", "constant", "callback"]),
       diffusion=st.sampled_from(["none", "constant", "weighted"]),
       stride=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 62 - 1))
def test_picard_fixed_point_is_the_forward_recursion(
        level, n, width, steps, replicas, drift, diffusion, stride, seed):
    """A Picard batch advanced to stationarity holds the bits of the
    forward recursion on the same ladder level, and Q from any start up
    to the stationary prefix of an iterate, written over its
    predecessor, has the bits of Q from 0."""
    rng = np.random.default_rng(seed)
    prob = _random_problem(rng, level, n, width, drift, diffusion)
    grid = TimeGrid.uniform(0.0, 1.0, steps * stride)
    # a dense complexified law with drift: every increment component is
    # nonzero, so the noise products are full sums
    p = CdVector(level, n, rng.standard_normal((n, 2, 2 ** level)))
    batch = PathEnsemble(grid, _random_complex_cov(rng, level, n), p,
                         seed=seed, n_replicas=replicas).batch(0)
    sub = TimeGrid(grid.points[::stride])
    w = sde._path_on(prob, batch, sub)
    z = prob.zeta.sample(batch)
    em, aborted = sde._em_values(prob, sub, w, z)
    assert not aborted.any()
    run = sde._PicardBatch(prob, sub, w, z)
    prev = None
    for _ in range(steps + 1):
        x = np.copy(run.x)
        if prev is not None:
            full = sde._time_major(*x.shape)
            sde._q_apply(prob, sub, run.noise, x, 0, full)
            first = sde._stationary_prefix(x, prev, 0)
            for start in {0, first // 2, first}:
                resumed = np.copy(prev)
                sde._q_apply(prob, sub, run.noise, x, start, resumed)
                assert resumed.tobytes() == full.tobytes(), start
        run.advance()
        prev = x
    assert run.stationary
    assert run.x.tobytes() == em.tobytes()


# ------------------------------------------------------- sweep row order

def _tail_bytes(joined):
    return [a.tobytes() for a in joined]


def _sweep_rows():
    """Rows of two ensembles: moment and gather probes, point-declaring
    and whole-path ones, and two solver probes that read a ladder."""
    rng = np.random.default_rng(5)
    level = 2
    cov = CovarianceOperator(level, (
        (CdReal(level, [1.0, 0.5, 0.0, 0.0]),
         np.array([[2.0, 0.3], [0.3, 1.0]])),))
    wide = PathEnsemble(
        TimeGrid.uniform(0.0, 1.0, 16), ComplexCovariance(cov, cov),
        CdVector(level, 2, rng.standard_normal((2, 2, 4))), seed=13,
        n_replicas=200, batch_size=64)
    y = RealFunctional(level, 2, rng.standard_normal(16) / 5.0)
    plain = PathEnsemble(TimeGrid.uniform(0.0, 1.0, 8),
                         CovarianceOperator.identity(1, 1), None, seed=17,
                         n_replicas=150, batch_size=64)
    ident = RightLinearOp.identity(1, 1)
    prob = linear_problem(ident.scaled(-1.0), ident,
                          ZetaSpec.constant(CdVector.embedded_real(1, [1.0])),
                          1)
    return [
        mean_increment(wide, 0.25, 0.75),
        increment_cov(wide, 0.25, 0.75, 0, 1),
        char_semigroup(wide, y, 0.25, 0.5),
        path_continuity(wide, eps=3.0, halvings=3),
        Probe(wide, lambda b: (b.at((4,)).reshape(b.count, -1),),
              _tail_bytes, gather=True, points=(4,)),
        disjoint_increments(plain, 0.0, 0.25, 0.5, 1.0),
        euler_maruyama(prob, plain),
        uniqueness_study(prob, plain, halvings=2),
        Probe(plain, lambda b: (b.w[:, -1].reshape(b.count, -1),),
              _tail_bytes, gather=True),
    ]


SWEEP_ROWS = _sweep_rows()


@functools.cache
def _alone(i: int):
    """Row i's result swept alone, at one thread."""
    return _bits(sweep([SWEEP_ROWS[i]], 1)[0])


@examples(20)
@given(order=st.lists(st.integers(0, len(SWEEP_ROWS) - 1), unique=True,
                      min_size=1),
       threads=st.integers(1, 3))
def test_a_probe_keeps_its_bits_beside_any_rows_in_any_order(order,
                                                            threads):
    got = sweep([SWEEP_ROWS[i] for i in order], threads)
    for i, result in zip(order, got):
        assert _bits(result) == _alone(i), i


# ------------------------------------------------ batch-boundary counts

def _end_rows(batch):
    """Each replica's flat path at the last grid point, and its norm."""
    end = batch.at((batch.ensemble.grid.steps,))[:, 0]
    flat = end.reshape(batch.count, -1)
    return flat, vec_norm2(flat)


@examples(40)
@given(batch_size=st.integers(1, 64), k=st.integers(1, 3),
       offset=st.sampled_from([-1, 0, 1]), level=st.integers(0, 2),
       n=st.integers(1, 2), steps=st.integers(1, 4),
       seed=st.integers(0, 2 ** 62 - 1))
def test_replica_counts_at_a_batch_boundary_keep_the_batch_order(
        batch_size, k, offset, level, n, steps, seed):
    """At k B - 1, k B and k B + 1 replicas in batches of B, a moment
    probe swept at 1-3 threads gives the per-batch (sum, sum of squares)
    summed over the batches pairwise in batch order, and a gather probe
    the per-batch arrays joined in batch order; every batch but the last
    holds B replicas, and the last holds the rest."""
    replicas = k * batch_size + offset
    assume(replicas >= 1)
    rng = np.random.default_rng(seed)
    ens = PathEnsemble(TimeGrid.uniform(0.0, 1.0, steps),
                       _random_complex_cov(rng, level, n),
                       CdVector(level, n, rng.standard_normal(
                           (n, 2, 2 ** level))),
                       seed=seed, n_replicas=replicas, batch_size=batch_size)
    batches = [ens.batch(i) for i in range(ens.n_batches)]
    assert ens.n_batches == -(-replicas // batch_size)
    assert [b.count for b in batches[:-1]] == [batch_size] * (
        ens.n_batches - 1)
    assert batches[-1].count == replicas - (ens.n_batches - 1) * batch_size
    parts = [_end_rows(b) for b in batches]
    moments = []
    for j in range(2):
        s1 = np.sum(np.stack([np.sum(part[j], axis=0) for part in parts]),
                    axis=0)
        s2 = np.sum(np.stack([np.sum(part[j] * part[j], axis=0)
                              for part in parts]), axis=0)
        moments.append(McReport.from_sums(s1, s2, replicas))
    point = (steps,)

    def gather(batch):
        return (*_end_rows(batch), np.full(batch.count, batch.index))

    for threads in (1, 2, 3):
        reports, joined = sweep(
            [Probe(ens, _end_rows, list, points=point),
             Probe(ens, gather, list, gather=True, points=point)], threads)
        assert _bits(reports) == _bits(moments)
        for j in range(2):
            expect = np.concatenate([part[j] for part in parts])
            assert joined[j].tobytes() == expect.tobytes()
        assert np.bincount(joined[2]).tolist() == [b.count for b in batches]


# ---------------------------------------------------- algebra-law survey

def _law_gaps(level: int, rng, count: int = 300) -> dict:
    """Each law's largest relative gap over count random triples a, b, c
    of A_level, at scales 1e-3 to 1e3: the norm of lhs - rhs over the
    product of the factors' norms (for norm multiplicativity, the gap
    between |ab| and |a||b| over |a||b|)."""
    a, b, c = rng.standard_normal((3, count, 2 ** level)) \
        * 10.0 ** rng.uniform(-3.0, 3.0, (3, count, 1))
    na, nb, nc = (np.linalg.norm(v, axis=1) for v in (a, b, c))

    def mul(x, y):
        return mul_coeffs(level, x, y)

    def gap(lhs, rhs, scale):
        return float(np.max(np.linalg.norm(lhs - rhs, axis=1) / scale))

    a2, ab = mul(a, a), mul(a, b)
    return {
        "left alternativity": gap(mul(a2, b), mul(a, ab), na ** 2 * nb),
        "right alternativity": gap(mul(ab, b), mul(a, mul(b, b)),
                                   na * nb ** 2),
        "Moufang": gap(mul(ab, mul(c, a)), mul(a, mul(mul(b, c), a)),
                       na ** 2 * nb * nc),
        "norm multiplicativity": float(np.max(
            np.abs(np.linalg.norm(ab, axis=1) - na * nb) / (na * nb))),
        "flexibility": gap(mul(ab, a), mul(a, mul(b, a)), na ** 2 * nb),
        "power associativity": max(
            gap(mul(a2, a), mul(a, a2), na ** 3),
            gap(mul(a2, a2), mul(mul(a2, a), a), na ** 4)),
    }


# the last level at which each law holds; None: at every level
LAST_LEVEL_HOLDING = {"left alternativity": 3, "right alternativity": 3,
                      "Moufang": 3, "norm multiplicativity": 3,
                      "flexibility": None, "power associativity": None}


@pytest.mark.parametrize("level", range(6))
def test_the_algebra_laws_hold_up_to_their_level_and_fail_past_it(level):
    """Alternativity, Moufang and norm multiplicativity hold through the
    octonions (r <= 3) and fail in the sedenions and above; flexibility
    and power associativity hold at every level.  A law holds when its
    relative gap is at most 1e-12 and fails when it is at least 1e-3."""
    gaps = _law_gaps(level, np.random.default_rng(level))
    for law, last in LAST_LEVEL_HOLDING.items():
        if last is None or level <= last:
            assert gaps[law] <= 1e-12, (law, gaps[law])
        else:
            assert gaps[law] >= 1e-3, (law, gaps[law])


# -------------------------------------------------------- config edge fuzz

# a config that builds, with a value for every key but u1 (which takes
# only 'none', and conflicts with u1.block* keys)
BASE_FIELDS = {
    "seed": "3",
    "replicas": "200",
    "level": "1",
    "n": "2",
    "threads": "1",
    "format": "json",
    "out": "reports",
    "grid": "16",
    "window": "0 1",
    "experiments": "paths",
    "drift": "0.5 0 0 0 0 0 0.1 0",
    "u0.block1.a": "1 0.2",
    "u0.block1.b": "1.2 0.1 0.1 0.9",
    "u1.block1.a": "0.8 0",
    "u1.block1.b": "1 0 0 1",
    "tol.exact": "1e-12",
    "tol.sqrt": "1e-10",
}
EDGE_TOKENS = ("nan", "-nan", "inf", "-inf", "1e400", "-1e400",
               "18446744073709551616", "-18446744073709551616")
EDGE_FLOATS = (math.nan, math.inf, -math.inf, float("1e400"), 2.0 ** 64,
               -2.0 ** 64)
EDGE_INTS = (2 ** 64, -2 ** 64)


def _text(fields: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in fields.items())


def _law_is_finite(cfg: RunConfig) -> bool:
    values = list(cfg.window) + list(cfg.drift or ()) \
        + [v for _, v in cfg.tolerances]
    for blocks in (cfg.u0_blocks, cfg.u1_blocks):
        for a, b in blocks or ():
            values += list(a) + list(b)
    return bool(np.isfinite(values).all())


def _builds_finite_or_refuses(make) -> None:
    try:
        cfg = make()
    except ConfigError:
        return
    assert _law_is_finite(cfg)


def test_the_base_config_builds():
    assert _law_is_finite(RunConfig(**parse_config_fields(_text(BASE_FIELDS))))


@pytest.mark.parametrize("key", sorted(BASE_FIELDS) + ["u1"])
@examples(30)
@given(data=st.data())
def test_edge_numbers_in_text_build_finite_laws_or_refuse(key, data):
    """An edge number in place of any token of a key, in the base config
    or alone (every other key at its default): building the parsed fields
    raises only ConfigError, and a config that builds holds finite law
    values and tolerances."""
    edge = data.draw(st.sampled_from(EDGE_TOKENS))
    fields = {key: BASE_FIELDS.get(key)} if data.draw(st.booleans()) \
        else dict(BASE_FIELDS)
    if key == "u1":
        fields[key] = edge
    else:
        tokens = fields[key].split()
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = edge
        fields[key] = " ".join(tokens)
    _builds_finite_or_refuses(
        lambda: RunConfig(**parse_config_fields(_text(fields))))


def _numeric_leaves(value, path=()):
    """(path, value) of every int or float inside nested tuples and lists."""
    if isinstance(value, (tuple, list)):
        for j, item in enumerate(value):
            yield from _numeric_leaves(item, path + (j,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, value


def _replaced(value, path, leaf):
    if not path:
        return leaf
    items = list(value)
    items[path[0]] = _replaced(items[path[0]], path[1:], leaf)
    return type(value)(items)


BASE_NUMERIC = sorted(name for name, value in
                      parse_config_fields(_text(BASE_FIELDS)).items()
                      if any(_numeric_leaves(value)))


@pytest.mark.parametrize("name", BASE_NUMERIC)
@examples(30)
@given(data=st.data())
def test_edge_numbers_in_fields_build_finite_laws_or_refuse(name, data):
    """The same through RunConfig(...) directly: an edge float in place of
    any float of a field, or an edge int in place of any int."""
    fields = parse_config_fields(_text(BASE_FIELDS))
    if data.draw(st.booleans()):
        fields = {name: fields[name]}
    leaves = list(_numeric_leaves(fields[name]))
    path, old = data.draw(st.sampled_from(leaves))
    edge = data.draw(st.sampled_from(
        EDGE_INTS if isinstance(old, int) else EDGE_FLOATS))
    fields[name] = _replaced(fields[name], path, edge)
    _builds_finite_or_refuses(lambda: RunConfig(**fields))
