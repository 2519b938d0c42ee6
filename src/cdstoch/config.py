"""Run configuration: defaults, validation, and the flat text format.

A config file is flat ``key = value`` text.  Values are whitespace
separated tokens; ``#`` starts a comment.  Matrices are row-major number
lists whose length fixes the (square) size.  Covariance blocks use
dotted keys::

    seed = 7
    replicas = 50000
    level = 2
    n = 2
    grid = 32
    window = 0 1
    experiments = paths isometry
    u0.block1.a = 1 0 0 0
    u0.block1.b = 2 0.3 0.3 1
    drift = 0.5 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
    tol.exact = 1e-12

``u1.block*`` keys configure the imaginary-part covariance; with no u1
keys it mirrors u0 (a complexified driving path), and ``u1 = none``
selects a plain real-part path.  Every parse or validation failure
raises ConfigError naming the offending key.
"""

from __future__ import annotations

import math
import numbers
import os
import re
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraError, CdReal, dim_of
from .linops import (
    CdVector,
    ComplexCovariance,
    CovarianceOperator,
    NotSPD,
    load_expm,
    spd_sqrt,
    vec_size,
)
from .paths import available_cpus, halving_depth


class ConfigError(ValueError):
    """A configuration problem; the message names the offending key."""


EXPERIMENT_CHOICES = ("algebra", "linops", "paths", "isometry",
                      "martingale", "chebyshev", "sde")
# The batteries that take a matrix exponential (the semigroup e^{G t} and
# its phi1 kernel); only a run of one of them loads scipy (linops.load_expm).
EXPM_EXPERIMENTS = ("linops", "sde")
TOLERANCES = {"exact": 1e-12, "sqrt": 1e-10}
FORMAT_CHOICES = ("json", "csv")
# RunConfig fields that cannot change a result, so no report echoes them
RUN_OPTIONS = ("threads", "out", "format")
# Building a config builds its driving law, whose covariance blocks are
# dense n x n: at level 5 and this n a build takes about 0.4 s on a 2-core
# x86 VM, and an n far beyond it cannot be allocated at all.
MAX_N = 1024
# A sweep's batch-key list and its per-batch results grow with replicas
# (one batch per 2048 by default): 10^8 replicas are 48,829 batches, far
# past what one host finishes, and a larger count only grows that list.
MAX_REPLICAS = 10 ** 8
# A batch's path holds batch_size x (steps + 1) x 2 n dim floats, and a
# solver keeps a trajectory of the same size beside it: at 8192 steps,
# the default level 2 and n = 1, the path of one 2048-replica batch is
# 1.07 GB.
MAX_GRID = 8192
# paths.pool_map starts min(threads, batches) OS threads, each holding a
# live batch; no host this runs on has CPUs for more, and a mistyped
# count (100000 at 10^7 replicas would start about 4,900) is refused.
MAX_THREADS = 256


# The sde battery's drift is left multiplication by a = -1 + 0.4 i_1, whose
# eigenvalues a_0 +- i|a'| keep the forward step stable up to
# dt = -2 a_0 / |a|^2 = 2 / 1.16.
SDE_DRIFT = (-1.0, 0.4, 0.0, 0.0)
SDE_MAX_STEP = -2.0 * SDE_DRIFT[0] / sum(c * c for c in SDE_DRIFT)


def sde_base_steps(grids: tuple[int, ...]) -> int:
    """Steps of the sde base grid: the finest size, at most 64."""
    return min(grids[-1], 64)


def uniqueness_halvings(grids: tuple[int, ...]) -> int:
    """Halvings of the sde uniqueness ladder on the base grid."""
    return min(3, halving_depth(sde_base_steps(grids)) - 1)


def strong_order_halvings(grids: tuple[int, ...]) -> int:
    """Halvings of the sde strong-order ladder that a grid list gives.

    Several sizes are the ladder itself, the last one the reference.  A
    single size is halved while the coarsest level keeps a multiple of
    4 steps, at most four times.
    """
    if len(grids) > 1:
        return len(grids) - 1
    return min(4, halving_depth(grids[-1]) - 2)


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs for a verification run.

    Building one runs every gate, the driving law's covariance blocks and
    drift included, and resolves threads=None to the CPUs this process
    may run on, at most MAX_THREADS.  An integer field given anything but
    an integer is refused, never rounded; a real one given anything but a
    real number (a string among them) is refused, never parsed; a
    sequence field given a string or a scalar is refused, never split or
    wrapped; and out must be a path or None.  A run of an EXPM_EXPERIMENTS
    battery loads scipy's expm here, at set-up, so every OpenBLAS a worker
    can call is loaded before the first pool opens (paths._blas_budget).
    """

    seed: int = 0
    replicas: int = 20_000
    grids: tuple[int, ...] = (32,)
    window: tuple[float, float] = (0.0, 1.0)
    level: int = 2
    n: int = 1
    experiments: tuple[str, ...] = ()
    u0_blocks: tuple | None = None
    u1_blocks: tuple | None = None
    drift: tuple[float, ...] | None = None
    threads: int | None = None
    out: str | None = None
    format: str = "json"
    tolerances: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.threads is None:
            object.__setattr__(self, "threads",
                               min(available_cpus(), MAX_THREADS))
        for key in ("seed", "replicas", "level", "n", "threads"):
            object.__setattr__(self, key, _need_int(key, getattr(self, key)))
        object.__setattr__(self, "grids", tuple(
            _need_int("grid", g) for g in _need_sequence("grid", self.grids)))
        window = _need_sequence("window", self.window)
        if len(window) != 2:
            raise ConfigError("config key 'window': need exactly 'a b'")
        object.__setattr__(self, "window",
                           tuple(_need_real("window", v) for v in window))
        object.__setattr__(self, "experiments",
                           _need_sequence("experiments", self.experiments))
        if self.drift is not None:
            object.__setattr__(self, "drift", tuple(
                _need_real("drift", v)
                for v in _need_sequence("drift", self.drift)))
        pairs = [_need_sequence("tol", item)
                 for item in _need_sequence("tol", self.tolerances)]
        if any(len(pair) != 2 for pair in pairs):
            raise ConfigError("config key 'tol': need (name, value) pairs")
        object.__setattr__(self, "tolerances", tuple(
            (k, _need_real(f"tol.{k}", v)) for k, v in pairs))
        if not (self.out is None or isinstance(self.out, (str, os.PathLike))):
            raise ConfigError("config key 'out': need a directory path")
        if not (0 <= self.seed < 2 ** 62):
            raise ConfigError("config key 'seed': need 0 <= seed < 2^62")
        if self.replicas < 1:
            raise ConfigError("config key 'replicas': need at least 1")
        if self.replicas > MAX_REPLICAS:
            raise ConfigError(
                f"config key 'replicas': need at most {MAX_REPLICAS}")
        if not self.grids:
            raise ConfigError("config key 'grid': need at least one size")
        for g in self.grids:
            if g < 8 or g % 8:
                raise ConfigError(
                    "config key 'grid': sizes must be positive multiples of 8")
            if g > MAX_GRID:
                raise ConfigError(f"config key 'grid': need at most {MAX_GRID}")
        for prev, nxt in zip(self.grids, self.grids[1:]):
            if nxt != 2 * prev:
                raise ConfigError(
                    "config key 'grid': multiple sizes must form a "
                    "doubling ladder (each twice the previous)")
        if ("sde" in (self.experiments or EXPERIMENT_CHOICES)
                and strong_order_halvings(self.grids) < 2):
            raise ConfigError(
                "config key 'grid': the sde strong-order slope needs at "
                "least two halvings (three doubling sizes, or one size "
                "that is a multiple of 16)")
        a, b = self.window
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ConfigError("config key 'window': need finite a < b")
        # the coarsest step of the sde uniqueness and strong-order ladders
        step = (b - a) / min(
            sde_base_steps(self.grids) >> uniqueness_halvings(self.grids),
            self.grids[-1] >> strong_order_halvings(self.grids))
        if "sde" in (self.experiments or EXPERIMENT_CHOICES) \
                and step > SDE_MAX_STEP:
            raise ConfigError(
                f"config key 'window': the sde forward step {step:.6g} "
                f"exceeds its stable limit {SDE_MAX_STEP:.6g}")
        if not (0 <= self.level <= 5):
            raise ConfigError("config key 'level': need 0 <= level <= 5")
        if self.n < 1:
            raise ConfigError("config key 'n': need at least 1")
        if self.n > MAX_N:
            raise ConfigError(f"config key 'n': need at most {MAX_N}")
        for name in self.experiments:
            if name not in EXPERIMENT_CHOICES:
                raise ConfigError(
                    f"config key 'experiments': unknown experiment '{name}'")
        if len(set(self.experiments)) != len(self.experiments):
            raise ConfigError(
                "config key 'experiments': each experiment may be named once")
        if self.format not in FORMAT_CHOICES:
            raise ConfigError("config key 'format': choose json or csv")
        if self.threads < 1:
            raise ConfigError("config key 'threads': need at least 1")
        if self.threads > MAX_THREADS:
            raise ConfigError(
                f"config key 'threads': need at most {MAX_THREADS}")
        named = [key for key, _ in self.tolerances]
        for key, value in self.tolerances:
            if key not in TOLERANCES:
                raise ConfigError(f"config key 'tol.{key}': unknown tolerance")
            if named.count(key) > 1:
                raise ConfigError(f"config key 'tol.{key}': named twice")
            _need_finite(f"tol.{key}", value)
            if not (value > 0):
                raise ConfigError(f"config key 'tol.{key}': need a positive value")
        if self.drift is not None:
            size = vec_size(self.level, self.n)
            if len(self.drift) != size:
                raise ConfigError(
                    f"config key 'drift': need {size} coefficients for "
                    f"level {self.level}, n {self.n}")
            _need_finite("drift", self.drift)
        build_driving(self)
        if set(self.experiments or EXPERIMENT_CHOICES) & set(EXPM_EXPERIMENTS):
            load_expm()


# ----------------------------------------------------------- driving builder

def _need_int(key: str, value) -> int:
    """value as an int; anything but an integer (a numpy one too, but not
    a bool) is refused, not rounded or left to fail inside a battery."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"config key '{key}': need an integer")
    return int(value)


def _need_real(key: str, value) -> float:
    """value as a float; anything but a real number (a numpy one too, but
    not a bool or a string) is refused, not parsed or cast."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"config key '{key}': need a real number")
    return float(value)


def _need_sequence(key: str, value) -> tuple:
    """value as a tuple; a string or a scalar is refused, not split into
    characters or left to fail as a TypeError."""
    if not isinstance(value, (str, bytes)):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise ConfigError(f"config key '{key}': need a sequence of values")


def _need_finite(key: str, values) -> None:
    """Refuse a NaN or an infinity among a law's values or a tolerance."""
    if not np.isfinite(np.asarray(values, dtype=float)).all():
        raise ConfigError(f"config key '{key}': need finite numbers")


def _build_covariance(level: int, n: int, blocks, key_prefix: str
                      ) -> CovarianceOperator:
    if blocks is None:
        return CovarianceOperator.identity(level, n)
    pieces = []
    d = dim_of(level)
    for j, (a_coeffs, b_flat) in enumerate(blocks, start=1):
        a = np.asarray(a_coeffs, dtype=float)
        if a.shape != (d,):
            raise ConfigError(
                f"config key '{key_prefix}.block{j}.a': need {d} "
                f"coefficients at level {level}")
        _need_finite(f"{key_prefix}.block{j}.a", a)
        k = math.isqrt(len(b_flat))
        if k * k != len(b_flat) or k < 1:
            raise ConfigError(
                f"config key '{key_prefix}.block{j}.b': need a row-major "
                "square matrix")
        _need_finite(f"{key_prefix}.block{j}.b", b_flat)
        m = np.asarray(b_flat, dtype=float).reshape(k, k)
        try:
            spd_sqrt(m)
        except NotSPD as exc:
            raise ConfigError(
                f"config key '{key_prefix}.block{j}.b': {exc}") from exc
        pieces.append((CdReal(level, a), m))
    try:
        cov = CovarianceOperator(level, tuple(pieces))
    except AlgebraError as exc:
        raise ConfigError(f"config key '{key_prefix}': {exc}") from exc
    if cov.n != n:
        raise ConfigError(
            f"config key '{key_prefix}': blocks cover {cov.n} components "
            f"but n = {n}")
    return cov


def build_driving(cfg: RunConfig):
    """Build (covariance, drift) for the configured driving paths."""
    u0 = _build_covariance(cfg.level, cfg.n, cfg.u0_blocks, "u0")
    if cfg.u1_blocks is not None and len(cfg.u1_blocks) == 0:
        u = u0
    else:
        u1_blocks = cfg.u1_blocks if cfg.u1_blocks is not None \
            else cfg.u0_blocks
        u1 = _build_covariance(cfg.level, cfg.n, u1_blocks, "u1")
        u = ComplexCovariance(u0, u1)
    p = None
    if cfg.drift is not None:
        p = CdVector.from_vec(cfg.level, cfg.n, np.asarray(cfg.drift))
    return u, p


# ------------------------------------------------------------------- parsing

_BLOCK_KEY = re.compile(r"^(u0|u1)\.block([0-9]+)\.(a|b)$")
_SCALAR_KEYS = ("seed", "replicas", "level", "n", "threads", "format", "out",
                "grid", "window", "experiments", "drift", "u1")


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': not an integer") from exc


def _parse_floats(key: str, value: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in value.split())
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': not a number list") from exc


def parse_config_fields(text: str) -> dict:
    """The RunConfig fields that flat key=value text sets, parsed but not
    yet gated: building the RunConfig gates them."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"config line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"config key '{key}': duplicated")
        values[key] = value.strip()

    fields: dict = {}
    blocks: dict[str, dict[int, dict[str, tuple[float, ...]]]] = {
        "u0": {}, "u1": {}}
    u1_none = False
    for key, value in values.items():
        match = _BLOCK_KEY.match(key)
        if match:
            prefix, j, part = match.group(1), int(match.group(2)), match.group(3)
            blocks[prefix].setdefault(j, {})[part] = _parse_floats(key, value)
            continue
        if key.startswith("tol."):
            parts = _parse_floats(key, value)
            if len(parts) != 1:
                raise ConfigError(f"config key '{key}': need one number")
            fields.setdefault("tolerances", []).append((key[4:], parts[0]))
            continue
        if key not in _SCALAR_KEYS:
            raise ConfigError(f"config key '{key}': unknown key")
        if key in ("seed", "replicas", "level", "n", "threads"):
            fields[key] = _parse_int(key, value)
        elif key == "grid":
            fields["grids"] = tuple(_parse_int(key, tok)
                                    for tok in value.split())
        elif key == "window":
            fields["window"] = _parse_floats(key, value)
        elif key == "experiments":
            fields["experiments"] = tuple(value.split())
        elif key == "drift":
            fields["drift"] = _parse_floats(key, value)
        elif key == "format":
            fields["format"] = value
        elif key == "out":
            fields["out"] = value
        elif key == "u1":
            if value != "none":
                raise ConfigError(
                    "config key 'u1': only 'none' is accepted here; use "
                    "u1.block*.a / u1.block*.b for blocks")
            u1_none = True

    for prefix in ("u0", "u1"):
        if not blocks[prefix]:
            continue
        if prefix == "u1" and u1_none:
            raise ConfigError(
                "config key 'u1': 'none' conflicts with u1.block* keys")
        indices = sorted(blocks[prefix])
        if indices != list(range(1, len(indices) + 1)):
            raise ConfigError(
                f"config key '{prefix}.block{indices[-1]}.a': block numbers "
                "must be 1, 2, ... without gaps")
        out = []
        for j in indices:
            part = blocks[prefix][j]
            for piece in ("a", "b"):
                if piece not in part:
                    raise ConfigError(
                        f"config key '{prefix}.block{j}.{piece}': missing")
            out.append((part["a"], part["b"]))
        fields[f"{prefix}_blocks"] = tuple(out)
    if u1_none:
        fields["u1_blocks"] = ()
    return fields


def load_config_fields(path) -> dict:
    """Read a config file and parse its fields (see parse_config_fields)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file '{path}': {exc}") from exc
    return parse_config_fields(text)


def load_config(path) -> RunConfig:
    """Read and parse a config file into a validated RunConfig."""
    return RunConfig(**load_config_fields(path))
