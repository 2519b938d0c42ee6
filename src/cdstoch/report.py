"""Report documents: versioned JSON, CSV metric tables and CSV path dumps.

Reports are deterministic by construction: keys are sorted, numpy scalars
are converted to plain Python values, and the only non-reproducible
fields are the ``wall_time_s`` timings, which ``strip_timing`` removes
for byte-level comparison.  The config echo deliberately omits the
worker count and output options so that reruns at different parallelism
produce identical bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from . import __version__
from .config import EXPERIMENT_CHOICES, RUN_OPTIONS, RunConfig
from .paths import GridError, TimeGrid

SCHEMA_VERSION = 1
TIMING_KEY = "wall_time_s"
METRIC_HEADER = ("experiment", "check", "anchor", "metric", "value")
CSV_HEADER = ("replica", "t", "component", "basis", "imag", "value")


def jsonable(obj):
    """Plain-Python view of a report object tree."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def config_echo(cfg: RunConfig) -> dict:
    """Every setting that can change a result: the RunConfig fields but
    the run options, with the experiments that run and the tolerances
    given."""
    echo = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
            if f.name not in RUN_OPTIONS}
    echo["experiments"] = cfg.experiments or EXPERIMENT_CHOICES
    echo["tolerances"] = dict(cfg.tolerances)
    return jsonable(echo)


def make_report(cfg: RunConfig, experiments: list[dict]) -> dict:
    return jsonable({
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "seed": cfg.seed,
        "config": config_echo(cfg),
        "experiments": experiments,
        "passed": all(e["passed"] for e in experiments),
    })


def render_json(doc: dict) -> str:
    return json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"


def strip_timing(doc):
    """Copy of the document without the wall-clock fields."""
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items()
                if k != TIMING_KEY}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def _flat_metrics(value, prefix: str):
    """Yield (metric_path, scalar) pairs from a check's extra fields."""
    if isinstance(value, (bool, int, float, str)):
        yield prefix, value
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flat_metrics(item, f"{prefix}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _flat_metrics(item, f"{prefix}.{key}" if prefix
                                     else str(key))


def metric_rows(entry: dict):
    """Rows (check, anchor, metric, value) for one experiment entry."""
    for check in entry["checks"]:
        anchor = check.get("anchor", "")
        for key, value in check.items():
            if key in ("name", "anchor"):
                continue
            for path, scalar in _flat_metrics(value, key):
                yield (check["name"], anchor, path, scalar)


def _write_csv(path, header: tuple, rows) -> None:
    """One CSV table: the header row, then rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_outputs(doc: dict, out_dir, fmt: str) -> list[Path]:
    """Write report.json (always) and CSV metric tables (csv format)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = out / "report.json"
    report_path.write_text(render_json(doc), encoding="utf-8")
    written.append(report_path)
    if fmt == "csv":
        for entry in doc["experiments"]:
            path = out / f"{entry['name']}.csv"
            _write_csv(path, METRIC_HEADER, ((entry["name"],) + row
                                             for row in metric_rows(entry)))
            written.append(path)
    return written


def write_paths_csv(path, grid: TimeGrid, values: np.ndarray) -> int:
    """Write grid-aligned values (replicas, K+1, h, 2, dim) as CSV rows.

    One row (replica, t, component, basis, imag flag, value) per
    coefficient; serves driving paths, running integrals and SDE
    solutions alike.  Returns the number of replicas written.
    """
    b, kk, h, _, dim = values.shape
    if kk != len(grid):
        raise GridError("values do not match the grid")
    times = [repr(float(t)) for t in grid.points]
    _write_csv(path, CSV_HEADER, (
        [r, times[it], comp, d, flag,
         repr(float(values[r, it, comp, flag, d]))]
        for r in range(b) for it in range(kk) for comp in range(h)
        for flag in (0, 1) for d in range(dim)))
    return b
