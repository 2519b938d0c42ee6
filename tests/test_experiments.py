"""Tests for the battery runner: rows on one ensemble share one sweep."""

from collections import Counter

import numpy as np
import pytest

import cdstoch.paths as paths_module
from cdstoch.algebra import CdReal
from cdstoch.config import RunConfig
from cdstoch.experiments import (
    Row,
    _run_rows,
    isometry_experiment,
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
    increment_cov,
    mean_increment,
    sweep,
)


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
    alone = [(i, sweep(ens, [probe])[0])
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


def test_isometry_battery_assembles_each_batch_once(monkeypatch):
    """ens_cplx (seed + 201) feeds both integral_zero_mean and
    bound_identity_anchor, in one pass."""
    cfg = RunConfig(seed=5, replicas=2100, grids=(8,), threads=1,
                    experiments=("isometry",))
    assembled = Counter()
    w = paths_module.BatchPaths.w

    def counting(batch):
        if batch._w is None:
            assembled[(batch.ensemble.seed - cfg.seed, batch.index)] += 1
        return w.fget(batch)

    monkeypatch.setattr(paths_module.BatchPaths, "w", property(counting))
    isometry_experiment(cfg)
    assert assembled[(201, 0)] == assembled[(201, 1)] == 1
    # ens_small has one batch of 64; ten ensembles have two batches each
    assert len(assembled) == 21 and set(assembled.values()) == {1}


def test_drift_only_closed_form_assembles_no_noise(monkeypatch):
    """ens_noise (seed + 502) is read by the pure-noise closed form and by
    its check; the drift-only closed form on it reads no increments.  The
    three restart problems share one ensemble (seed + 504), so each of
    its batches is assembled once."""
    cfg = RunConfig(seed=5, replicas=600, grids=(16,), threads=1,
                    experiments=("sde",))
    assembled = Counter()
    w = paths_module.BatchPaths.w

    def counting(batch):
        if batch._w is None:
            assembled[(batch.ensemble.seed - cfg.seed, batch.index)] += 1
        return w.fget(batch)

    monkeypatch.setattr(paths_module.BatchPaths, "w", property(counting))
    report = sde_experiment(cfg)
    assert assembled[(502, 0)] == 2
    restart = {k: n for k, n in assembled.items() if k[0] == 504}
    assert list(restart.values()) == [1]  # 2000 replicas: one batch
    drift = [c for c in report["checks"] if c["name"] == "closed_form_pure_drift"]
    assert len(drift) == 1 and drift[0]["passed"]
