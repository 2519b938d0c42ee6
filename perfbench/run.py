"""Benchmark of the cdstoch verification batteries.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed pass is a fresh ``cdstoch`` process (``perfbench/child.py``),
because a CLI user pays imports and cold caches on every call.  Passes
run one at a time, with ``src`` on ``PYTHONPATH``; BLAS threading is left
at the process default and recorded.

``--trace 0`` runs rounds of a ``--threads 2`` pass and a ``--threads 1``
pass until the next round would overrun ``--seconds`` (at least
``MIN_ROUNDS``), and reports medians: ``wall_s`` and ``peak_rss_mb`` of
the two-thread passes, ``wall_s_t1`` of the one-thread passes and
``setup_s`` over every pass.  ``--trace 1`` runs rounds of an untraced and
a traced two-thread pass and reports the per-layer metrics of
``perfbench/tracer.py``; timings are medians over the traced passes and
counts must repeat exactly between them.

Every pass goes through the correctness gate.  Exit status 0 or 1 with
a report is a verdict.  A crash, exit status 2 or a missing report fails
every check of the pass.  A check also fails when its ``passed`` flag is
false or its entry differs from the reference, the first two-thread
pass.  The operations are the workload's checks, once per pass kind
(``t2`` and ``t1``, or ``t2`` and ``t2-traced``); a check of a kind fails
when it fails in any pass of that kind, so ``attempted`` and ``failed``
do not depend on how many rounds fit.  ``correct`` is false when a
report disagrees with its exit status or covers other batteries, when a
pass's report with its timing fields stripped
(``cdstoch.report.strip_timing``) is not byte-identical to the
reference's, and, traced, when a count does not repeat between traced
passes or the layer self-test (``EXPECT``) fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-pass records
go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

# perfbench/ is sys.path[0]
from tracer import BATTERIES, EXACT_SUFFIXES, METRICS

BENCH_DIR = Path(__file__).resolve().parent

OUT_DIR = ".perfbench_out"
MIN_ROUNDS = 2
DEADLINE_S = 165  # a run must end within 180 s; a pass past this is killed

END_TO_END = (("wall_s", "s"), ("wall_s_t1", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    batteries: tuple[str, ...]
    config: str | None = None  # text of a generated ``cdstoch run`` config


# Why each workload was chosen is in BENCHMARK.json.  Replica counts are
# scaled down from the criterion sizes so that six or seven rounds fit
# one run; batch size 2048 and the grids stay.  ``ensembles`` runs the
# ``paths`` battery and the three integral batteries in one ``cdstoch
# run`` call, so that two workloads cover every layer and each run can be
# long.  ``cdstoch algebra`` is not a workload: its power iterations are
# small NumPy calls whose speed on a shared two-CPU host varies by a
# quarter between identical repetitions, wider than any bound allows.
WORKLOADS = {
    "ensembles": Workload(
        ("run",), ("paths", "isometry", "martingale", "chebyshev"),
        config="experiments = paths isometry martingale chebyshev\n"
               "replicas = 5000\ngrid = 32\n"),
    "sde": Workload(("sde", "--replicas", "4000", "--grid", "16", "--grid",
                     "32", "--grid", "64", "--grid", "128", "--grid", "256"),
                    ("sde",)),
}

# Layer self-test: (span, workloads where the battery calls it, workloads
# where the layer is bypassed).  Where the battery calls a span, the span
# must have calls under an ``experiments`` span (or be the report writer,
# see ``tracer.BATTERY_ROOTS``) -- calls made during set-up do not count --
# and each of its metrics must be nonzero.  Where the layer is bypassed,
# each of its metrics must be zero.  A span name covers the spans and
# metrics below it: ``algebra`` covers ``algebra.cd_sqrt``.  Separately,
# ``experiments.<battery>.wall_s`` must be nonzero exactly for the
# workload's batteries.
ALL = tuple(WORKLOADS)
EXPECT = (
    ("algebra", ("ensembles",), ()),
    ("algebra.cd_sqrt", ("ensembles",), ()),
    ("linops.op_norm", (), ("ensembles", "sde")),
    ("linops.spd_sqrt", ("ensembles",), ()),
    ("linops.f_functional", ("ensembles",), ()),
    ("linops.compose_entries", ("ensembles",), ()),
    ("paths.batch_normals", ALL, ()),
    ("paths.assemble_paths", ALL, ()),
    ("paths.char_functional_estimator", ("ensembles",), ("sde",)),
    ("paths.map_batches", ("ensembles",), ()),
    ("integrals.integral_paths", ("ensembles",), ("sde",)),
    ("integrals._second_moment_samples", ("ensembles",), ("sde",)),
    ("integrals.checks", ("ensembles",), ("sde",)),
    ("sde._em_values", ("sde",), ("ensembles",)),
    ("sde._q_apply", ("sde",), ("ensembles",)),
    ("sde.picard_solve", ("sde",), ("ensembles",)),
    ("sde.checks", ("sde",), ("ensembles",)),
    ("experiments", ALL, ()),
    ("report.write_outputs", ALL, ()),
)


def median(values):
    return statistics.median(values) if values else None


def covers(span: str, name: str) -> bool:
    """Whether name is span itself or a span or metric below it."""
    return name == span or name.startswith(span + ".")


# ---------------------------------------------------------------- passes

def run_pass(root: Path, work: Path, label: str, argv: list[str],
             threads: int, trace: bool, deadline: float) -> dict:
    """Run one fresh cdstoch process; return its result record."""
    out = work / label
    out.mkdir(parents=True)
    result_path = out / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path),
           "--trace" if trace else "--plain", "--", *argv,
           "--threads", str(threads), "--out", str(out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    with open(out / "output.txt", "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, stdout=log,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - spawned),
                                  check=False)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    record = {"label": label, "threads": threads, "traced": trace,
              "out": out}
    if code == 0 and result_path.is_file():
        record.update(json.loads(result_path.read_text(encoding="utf-8")))
        record["setup_s"] = record["ready"] - spawned
    else:
        tail = (out / "output.txt").read_text(encoding="utf-8").strip()
        record["error"] = (f"pass process ended with {code} and no result"
                           f"\n{tail}")
    return record


def run_rounds(root: Path, work: Path, argv: list[str], plan, seconds: float
               ) -> list[dict]:
    """Repeat the plan's passes while another round fits in seconds."""
    passes = []
    started = time.monotonic()
    deadline = started + DEADLINE_S
    rounds = 0
    while True:
        round_start = time.monotonic()
        for kind, threads, trace in plan:
            record = run_pass(root, work, f"r{rounds}-{kind}", argv,
                              threads, trace, deadline)
            passes.append({"kind": kind, **record})
        rounds += 1
        now = time.monotonic()
        if now + (now - round_start) > deadline or (
                rounds >= MIN_ROUNDS
                and now - started + (now - round_start) > seconds):
            return passes


# ------------------------------------------------------------------ gate

def _checks(out: Path):
    path = out / "report.stripped.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc, [(f"{e['name']}/{c['name']}", c) for e in doc["experiments"]
                 for c in e["checks"]]


def gate(passes: list[dict], batteries: tuple[str, ...]) -> dict:
    """Failed-check accounting and correctness verdict over all passes.

    A broken pass (crash, exit status 2, no report) fails every check of
    the reference report of its kind, or one operation when no pass wrote
    a report.  Reports that disagree with their exit status, cover other
    batteries or differ from the reference make the run incorrect.
    """
    problems, broken, loaded = [], [], []
    for p in passes:
        checks = None
        if p.get("error") is None and p["status"] in (0, 1):
            checks = _checks(p["out"])
        if checks is None:
            error = p.get("error") or f"exit status {p['status']}"
            broken.append(f"{p['label']}: no report: {error.strip()}")
        else:
            doc, _ = checks
            names = tuple(e["name"] for e in doc["experiments"])
            if p["status"] != (0 if doc["passed"] else 1):
                problems.append(f"{p['label']}: exit status {p['status']} "
                                f"disagrees with the report")
            if names != batteries:
                problems.append(f"{p['label']}: report covers {names}")
        loaded.append(checks)
    ref_index = next((i for i, (p, c) in enumerate(zip(passes, loaded))
                      if c is not None and p["threads"] == 2),
                     next((i for i, c in enumerate(loaded) if c is not None),
                          None))
    ref_checks = loaded[ref_index][1] if ref_index is not None else []
    ref_sha = passes[ref_index]["report_sha256"] \
        if ref_index is not None else None
    ref_names = [name for name, _ in ref_checks] or ["(no report)"]
    failed_by_kind = {p["kind"]: set() for p in passes}
    for p, checks in zip(passes, loaded):
        failed_here = failed_by_kind[p["kind"]]
        if checks is None:
            failed_here.update(ref_names)
            continue
        _, mine = checks
        if p["report_sha256"] != ref_sha:
            problems.append(f"{p['label']}: stripped report differs from "
                            f"{passes[ref_index]['label']}")
        for i, (name, check) in enumerate(mine):
            same = i < len(ref_checks) and ref_checks[i][1] == check
            if not check["passed"] or not same:
                failed_here.add(name)
    return {
        "problems": problems,
        "broken": broken,
        "attempted": len(ref_names) * len(failed_by_kind),
        "failed": sum(min(len(ref_names), len(names))
                      for names in failed_by_kind.values()),
        "checks_run": len(ref_checks),
        "failed_checks": sorted(set().union(*failed_by_kind.values())),
        "report_sha256": ref_sha,
    }


# --------------------------------------------------------------- metrics

def end_to_end(passes: list[dict]) -> dict:
    def values(key, threads=None):
        return [p[key] for p in passes
                if key in p and (threads is None or p["threads"] == threads)]

    return {
        "wall_s": median(values("wall_s", 2)),
        "wall_s_t1": median(values("wall_s", 1)),
        "setup_s": median(values("setup_s")),
        "peak_rss_mb": median(values("peak_rss_mb", 2)),
    }


def per_layer(workload: str, passes: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics, plus self-test and repeatability problems."""
    traced = [p["trace"] for p in passes if "trace" in p]
    plain = [p["wall_s"] for p in passes
             if not p["traced"] and "wall_s" in p]
    problems = []
    if not traced:
        return {}, ["no traced pass finished"]
    out = {}
    for name, _ in METRICS:
        series = [t["metrics"][name] for t in traced]
        if name.endswith(EXACT_SUFFIXES):
            if len(set(series)) > 1:
                problems.append(f"{name} differs between traced passes: "
                                f"{series}")
            out[name] = series[0]
        else:
            out[name] = median(series)
    walls = [p["wall_s"] for p in passes if p["traced"] and "wall_s" in p]
    out["trace.overhead_s"] = median(walls) - median(plain) \
        if walls and plain else 0.0
    if any(p.get("error") for p in passes if p["traced"]):
        return out, problems  # a crashed pass skews every layer
    battery_walls = {b: f"experiments.{b}.wall_s" for b in BATTERIES}
    for span, nonzero, zero in EXPECT:
        if workload in nonzero and not any(
                calls for name, calls in traced[0]["battery_calls"].items()
                if covers(span, name)):
            problems.append(f"self-test: the {workload} battery never "
                            f"calls {span}")
        for name, value in out.items():
            if name in battery_walls.values() or not covers(span, name):
                continue
            if workload in nonzero and not value:
                problems.append(f"self-test: {name} is 0 on {workload}")
            if workload in zero and value:
                problems.append(f"self-test: {name} is {value} on "
                                f"{workload}, where the layer is bypassed")
    for battery, name in battery_walls.items():
        if (battery in WORKLOADS[workload].batteries) != bool(out[name]):
            problems.append(f"self-test: {name} is {out[name]} on "
                            f"{workload}")
    return out, problems


def environment(passes: list[dict]) -> dict:
    """Software and thread set-up in effect, read at run time."""
    blas = next((p["blas"] for p in passes if "blas" in p), [])
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "pass_threads": sorted({p["threads"] for p in passes}),
    }


# ------------------------------------------------------------------ main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM, exit through subprocess.run, which kills and reaps the
    # pass in progress.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "cdstoch" / "cli.py").is_file():
        print("error: run from the root of a cdstoch checkout "
              "(src/cdstoch/cli.py not found)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / OUT_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Byte-compile once, as an installed package is; users do not pay it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(root / "src" / "cdstoch")], check=True,
                   stdout=subprocess.DEVNULL)

    argv = list(workload.argv)
    if workload.config is not None:
        config = work / "workload.cfg"
        config.write_text(f"seed = {args.seed}\n{workload.config}",
                          encoding="utf-8")
        argv += ["--config", str(config)]
    else:
        argv += ["--seed", str(args.seed)]

    if args.trace:
        plan = (("t2", 2, False), ("t2-traced", 2, True))
    else:
        plan = (("t2", 2, False), ("t1", 1, False))
    passes = run_rounds(root, work, argv, plan, args.seconds)
    verdict = gate(passes, workload.batteries)
    problems = list(verdict["problems"])
    if args.trace:
        values, trace_problems = per_layer(args.workload, passes)
        problems += trace_problems
        units = dict(METRICS)
    else:
        values = end_to_end(passes)
        units = dict(END_TO_END)

    env = environment(passes)
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"trace {args.trace}")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"checks_run {verdict['checks_run']} count")
    print(f"checks_failed {len(verdict['failed_checks'])} count")
    print(f"failed_checks {' '.join(verdict['failed_checks']) or '-'}")
    print(f"report_sha256 {verdict['report_sha256']}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    for line in verdict["broken"]:
        print(f"failed pass: {line.splitlines()[-1]}")
    for problem in problems:
        print(f"problem: {problem}")

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env,
              "metrics": values, "gate": verdict,
              "passes": [{k: (str(v) if isinstance(v, Path) else v)
                          for k, v in p.items()} for p in passes]}
    (work / "run.json").write_text(json.dumps(record, indent=1),
                                   encoding="utf-8")

    missing = [name for name in units if values.get(name) is None]
    if missing:
        print(f"error: no measurement of {', '.join(missing)}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
