"""Outside-in tracing of the cdstoch layers for the per-layer metrics.

The tracer wraps public functions of each layer from outside the
package.  Every wrapped name is rebound wherever a ``cdstoch`` module
holds it -- as a module global (``from .paths import assemble_paths``),
inside a module-level registry tuple (``experiments.EXPERIMENTS``) or as
a class attribute (``PathEnsemble.map_batches``) -- so calls through any
of those bindings are timed.  Nothing under ``src/`` changes.

Each call is a span.  A span's self time is its duration minus the time
of its child spans in the same thread.  A span opened in a worker thread
with no open span of its own records the innermost open pool call
(``PathEnsemble.map_batches`` or ``sde._map``) as its parent.  Each span
also records its root, the outermost traced span it runs under, so calls
made by a battery (root ``experiments``) or by the report writer are told
apart from calls made during set-up.  Spans are aggregated in memory as
they close; ``Tracer.summary`` returns the totals, the per-parent
breakdown and the battery call counts, which the benchmark writes out at
the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "cdstoch"

ALGEBRA_FUNCS = ("cd_mul", "cdc_mul", "cd_sqrt", "cdc_sqrt", "cd_exp",
                 "find_zero_divisor")
BATTERIES = ("algebra", "linops", "paths", "isometry", "martingale",
             "chebyshev", "sde")
CHECK_SUFFIXES = ("_check", "_study", "_validate")
# Roots of the spans that a battery's own work runs under.
BATTERY_ROOTS = ("experiments", "report.write_outputs")

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("algebra.self_s", "s"),
    ("algebra.cd_sqrt.calls", "count"),
    ("algebra.mul_tensor.misses", "count"),
    ("linops.op_norm.calls", "count"),
    ("linops.op_norm.self_s", "s"),
    ("linops.spd_sqrt.calls", "count"),
    ("linops.spd_sqrt.self_s", "s"),
    ("linops.spd_sqrt.distinct_ratio", "ratio"),
    ("linops.f_functional.calls", "count"),
    ("linops.f_functional.self_s", "s"),
    ("linops.compose_entries.calls", "count"),
    ("linops.compose_entries.self_s", "s"),
    ("paths.batch_normals.calls", "count"),
    ("paths.batch_normals.self_s", "s"),
    ("paths.batch_normals.draws", "count"),
    ("paths.batch_normals.distinct_ratio", "ratio"),
    ("paths.assemble_paths.calls", "count"),
    ("paths.assemble_paths.self_s", "s"),
    ("paths.assemble_paths.replica_points", "count"),
    ("paths.assemble_paths.bytes_out", "bytes_computed"),
    ("paths.assemble_paths.distinct_ratio", "ratio"),
    ("paths.char_functional_estimator.calls", "count"),
    ("paths.char_functional_estimator.self_s", "s"),
    ("paths.map_batches.calls", "count"),
    ("paths.map_batches.batches", "count"),
    ("paths.map_batches.utilization", "ratio"),
    ("integrals.integral_paths.calls", "count"),
    ("integrals.integral_paths.self_s", "s"),
    ("integrals.integral_paths.replica_steps", "count"),
    ("integrals._second_moment_samples.calls", "count"),
    ("integrals._second_moment_samples.self_s", "s"),
    ("integrals.checks.self_s", "s"),
    ("sde._em_values.calls", "count"),
    ("sde._em_values.self_s", "s"),
    ("sde._em_values.replica_steps", "count"),
    ("sde._q_apply.calls", "count"),
    ("sde._q_apply.self_s", "s"),
    ("sde.picard_solve.iterations", "count"),
    ("sde.checks.self_s", "s"),
    *((f"experiments.{name}.wall_s", "s") for name in BATTERIES),
    ("experiments.self_s", "s"),
    ("report.write_outputs.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counts that must repeat exactly across runs at one seed.
EXACT_SUFFIXES = (".calls", ".draws", ".replica_points", ".bytes_out",
                  ".replica_steps", ".iterations", ".misses",
                  ".distinct_ratio", ".batches")


def _fingerprint(x):
    """Value key of one argument: shape, dtype and a strided sample."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    for attr in ("data", "points"):  # CdVector, TimeGrid
        inner = getattr(x, attr, None)
        if isinstance(inner, np.ndarray):
            x = inner
            break
    a = np.asarray(x)
    flat = a.reshape(-1)
    step = max(1, flat.size // 64)
    return (a.shape, a.dtype.str, flat[::step].tobytes(), flat[-1:].tobytes())


def _swap(value, orig, new) -> tuple[object, int]:
    """(value with each reference to orig replaced by new, sites replaced).

    Tuples, such as the ``experiments.EXPERIMENTS`` registry of
    ``(name, function)`` pairs, are searched recursively and rebuilt.
    """
    if value is orig:
        return new, 1
    if not isinstance(value, tuple) or hasattr(value, "_fields"):
        return value, 0
    items, sites = [], 0
    for item in value:
        item, n = _swap(item, orig, new)
        items.append(item)
        sites += n
    return (tuple(items) if sites else value), sites


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(orig, new) -> int:
    """Replace orig by new at every binding site in the package.

    Sites are module globals, tuples held in module globals and
    attributes of classes defined in the package.  A call through any
    other binding stays untimed; the benchmark's layer self-test turns
    that into a zero counter and a failed run.  Returns the number of
    sites rebound.
    """
    sites = 0
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            swapped, n = _swap(value, orig, new)
            if n:
                setattr(mod, key, swapped)
                sites += n
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    if member is orig:
                        setattr(value, attr, new)
                        sites += 1
    return sites


class Tracer:
    """Spans and counters for one traced cdstoch pass."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pools: list[tuple[str, str]] = []  # (span, root) open
        self.values: dict[str, float] = defaultdict(float)
        self.by_parent: dict[tuple[str, str], float] = defaultdict(float)
        self.by_root: dict[tuple[str, str], int] = defaultdict(int)
        self._keys: dict[str, set] = defaultdict(set)
        self._mul_tensor = None
        self._misses_at_install = 0

    # -------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent, root = stack[-1][0], stack[-1][4]
        else:
            with self._lock:
                parent, root = self._pools[-1] if self._pools else ("-", name)
        # name, parent span, start, time in child spans, root span
        frame = [name, parent, time.perf_counter(), 0.0, root]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        duration = time.perf_counter() - frame[2]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][3] += duration
        self_time = duration - frame[3]
        with self._lock:
            self.values[f"{frame[0]}.self_s"] += self_time
            self.values[f"{frame[0]}.calls"] += 1
            self.by_parent[(frame[0], frame[1])] += self_time
            self.by_root[(frame[0], frame[4])] += 1
        return duration

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.values[name] += amount

    def key(self, name: str, key) -> None:
        with self._lock:
            self._keys[name].add(key)

    # ----------------------------------------------------------- wrapping

    def wrap(self, span: str, fn, after=None):
        """Timed stand-in for fn; after(bound_arguments, result) counts."""
        sig = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        return wrapper

    def wrap_pool(self, span: str, fn, fn_arg: str, threads_arg: str,
                  batches=None):
        """Stand-in for a thread-pool map that also times its workers."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            work = bound.arguments[fn_arg]
            busy = [0.0]

            def timed(item):
                start = time.perf_counter()
                try:
                    return work(item)
                finally:
                    elapsed = time.perf_counter() - start
                    with self._lock:
                        busy[0] += elapsed

            bound.arguments[fn_arg] = timed
            frame = self._enter(span)
            with self._lock:
                self._pools.append((span, frame[4]))
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                with self._lock:
                    self._pools.pop()
                wall = self._exit(frame)
            threads = max(1, int(bound.arguments[threads_arg] or 1))
            self.add(f"{span}.busy_s", busy[0])
            self.add(f"{span}.capacity_s", threads * wall)
            if batches is not None:
                self.add(f"{span}.batches", batches(bound.arguments))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced name and rebind it at all binding sites."""
        import cdstoch.algebra as algebra
        import cdstoch.experiments as experiments
        import cdstoch.integrals as integrals
        import cdstoch.linops as linops
        import cdstoch.paths as paths
        import cdstoch.report as report
        import cdstoch.sde as sde

        def draws(args, out):
            self.add("paths.batch_normals.draws", int(out.size))
            self.key("paths.batch_normals",
                     (int(args["seed"]), int(args["batch_index"]),
                      int(args["stream"]), tuple(out.shape)))

        def assembled(args, out):
            self.add("paths.assemble_paths.replica_points",
                     int(out.shape[0]) * int(out.shape[1]))
            self.add("paths.assemble_paths.bytes_out", int(out.nbytes))
            self.key("paths.assemble_paths",
                     tuple(_fingerprint(v) for v in args.values()))

        def spd(args, out):
            self.key("linops.spd_sqrt",
                     tuple(_fingerprint(v) for v in args.values()))

        def integrated(args, out):
            self.add("integrals.integral_paths.replica_steps",
                     int(out.shape[0]) * (int(out.shape[1]) - 1))

        def stepped(args, out):
            values = out[0]
            self.add("sde._em_values.replica_steps",
                     int(values.shape[0]) * (int(values.shape[1]) - 1))

        def solved(args, out):
            self.add("sde.picard_solve.iterations",
                     int(out.diagnostics.get("iterations", 0)))

        plain = [(algebra, name, f"algebra.{name}", None)
                 for name in ALGEBRA_FUNCS]
        plain += [
            (linops, "op_norm", "linops.op_norm", None),
            (linops, "spd_sqrt", "linops.spd_sqrt", spd),
            (linops, "f_functional", "linops.f_functional", None),
            (linops, "f_functional_cross", "linops.f_functional", None),
            (linops, "compose_entries", "linops.compose_entries", None),
            (paths, "batch_normals", "paths.batch_normals", draws),
            (paths, "assemble_paths", "paths.assemble_paths", assembled),
            (paths, "char_functional_estimator",
             "paths.char_functional_estimator", None),
            (integrals, "integral_paths", "integrals.integral_paths",
             integrated),
            (integrals, "_second_moment_samples",
             "integrals._second_moment_samples", None),
            (sde, "_em_values", "sde._em_values", stepped),
            (sde, "_q_apply", "sde._q_apply", None),
            (sde, "picard_solve", "sde.picard_solve", solved),
            (report, "write_outputs", "report.write_outputs", None),
        ]
        plain += [(experiments, f"{name}_experiment", "experiments", None)
                  for name in BATTERIES]
        for module, layer in ((integrals, "integrals"), (sde, "sde")):
            plain += [(module, name, f"{layer}.checks", None)
                      for name, fn in sorted(vars(module).items())
                      if name.endswith(CHECK_SUFFIXES)
                      and not name.startswith("_")
                      and inspect.isfunction(fn)
                      and fn.__module__ == module.__name__]

        for module, name, span, after in plain:
            orig = getattr(module, name)
            rebind(orig, self.wrap(span, orig, after))

        ensemble = paths.PathEnsemble
        orig = ensemble.map_batches
        rebind(orig, self.wrap_pool(
            "paths.map_batches", orig, "fn", "threads",
            batches=lambda args: args["self"].n_batches))
        rebind(sde._map, self.wrap_pool("sde._map", sde._map, "fn",
                                        "threads"))
        self._mul_tensor = algebra.mul_tensor
        self._misses_at_install = self._mul_tensor.cache_info().misses

    # ------------------------------------------------------------ results

    def summary(self, report_doc: dict | None) -> dict:
        """Per-layer metric values plus the per-parent self-time record."""
        v = dict(self.values)
        out = {name: 0.0 for name, _ in METRICS}
        for name in out:
            if name in v:
                out[name] = v[name]
        out["algebra.self_s"] = sum(v.get(f"algebra.{f}.self_s", 0.0)
                                    for f in ALGEBRA_FUNCS)
        if self._mul_tensor is not None:
            out["algebra.mul_tensor.misses"] = \
                self._mul_tensor.cache_info().misses - self._misses_at_install
        for span in ("paths.batch_normals", "paths.assemble_paths",
                     "linops.spd_sqrt"):
            calls = v.get(f"{span}.calls", 0)
            out[f"{span}.distinct_ratio"] = \
                len(self._keys[span]) / calls if calls else 0.0
        capacity = v.get("paths.map_batches.capacity_s", 0.0)
        out["paths.map_batches.utilization"] = \
            v.get("paths.map_batches.busy_s", 0.0) / capacity \
            if capacity else 0.0
        for entry in (report_doc or {}).get("experiments", []):
            key = f"experiments.{entry['name']}.wall_s"
            if key in out:
                out[key] = float(entry.get("wall_time_s", 0.0))
        for name, unit in METRICS:
            if unit in ("count", "bytes_computed"):
                out[name] = int(out[name])
        parents = defaultdict(dict)
        for (span, parent), seconds in sorted(self.by_parent.items()):
            parents[span][parent] = seconds
        battery_calls = defaultdict(int)
        for (span, root), calls in self.by_root.items():
            if root in BATTERY_ROOTS:
                battery_calls[span] += calls
        return {"metrics": out, "self_s_by_parent": dict(parents),
                "battery_calls": dict(battery_calls)}
