"""Run the benchmark over several seeds and report run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--sets 2] [--workloads W ...]
        [--first-seed 0] [--write perfbench/baseline.json]

It makes ``--sets`` sets of runs, one after the other.  In each set it
runs ``perfbench/run.py --trace 0`` once per seed for every workload, one
run at a time, with the run length of ``BENCHMARK.json``; every set uses
``--runs`` new seeds.  For every end-to-end metric it prints each set's
median and spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- and
how much worse each later set's median is than the first set's, next to
the metric's bound.  ``--write`` records the environment, each workload's
reason, the failed checks and these figures in a JSON file.  The exit
status is 1 when a run was incorrect or a figure exceeded its bound (the
spread of ``setup_s`` excepted).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR, WORKLOADS  # perfbench/ is sys.path[0]


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(Path(OUT_DIR, workload, "run.json").read_text())
    result["record"] = record
    return result


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid if mid else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--write")
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    ok = True
    runs = {w: [] for w in args.workloads}  # per workload, one list a set
    environment = None
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        for workload in args.workloads:
            results = []
            for seed in range(first, first + args.runs):
                result = one_run(spec, workload, seed)
                ok &= result["correct"]
                results.append(result)
                gate = result["record"]["gate"]
                environment = result["record"]["environment"]
                print(f"set {k} {workload} seed {seed}: " + ", ".join(
                    f"{name} {m['value']:.4g} {m['unit']}"
                    for name, m in result["metrics"].items()) +
                      f"; checks_run {gate['checks_run']}, checks_failed "
                      f"{len(gate['failed_checks'])} "
                      f"({' '.join(gate['failed_checks']) or '-'}); "
                      f"correct {result['correct']}, "
                      f"failed {result['failed']}/{result['attempted']}",
                      flush=True)
            runs[workload].append(results)

    summary = {}
    for workload, sets in runs.items():
        figures = {}
        for name, m in metrics.items():
            per_set = [spread([r["metrics"][name]["value"] for r in results])
                       for results in sets]
            base = per_set[0][0]
            sign = 1 if m["better"] == "lower" else -1
            worse = [sign * (mid - base) / base for mid, _ in per_set[1:]]
            spreads = [rel for _, rel in per_set]
            over = [x for x in worse if x > m["bound"]]
            if name != "setup_s":
                over += [x for x in spreads if x > m["bound"]]
            ok &= not over
            figures[name] = {
                "unit": m["unit"],
                "bound": m["bound"],
                "set_medians": [mid for mid, _ in per_set],
                "set_spreads": spreads,
                "worse_than_first_set": worse,
            }
            print(f"{workload} {name} ({m['unit']}, bound {m['bound']}): "
                  f"medians {' '.join(f'{mid:.4g}' for mid, _ in per_set)}; "
                  f"spreads {' '.join(f'{x:.3f}' for x in spreads)}; "
                  f"worse than set 0 by "
                  f"{' '.join(f'{x:+.3f}' for x in worse) or '-'}"
                  f"{'  OVER BOUND' if over else ''}")
        summary[workload] = {
            "why": whys[workload],
            "seeds": [[r["record"]["seed"] for r in results]
                      for results in sets],
            "metrics": figures,
            "failed_checks": sorted({n for results in sets for r in results
                                     for n in
                                     r["record"]["gate"]["failed_checks"]}),
        }
    if args.write:
        Path(args.write).write_text(
            json.dumps({"run_seconds": spec["run_seconds"],
                        "environment": environment,
                        "workloads": summary}, indent=1) + "\n")
    print("all correct and within bounds" if ok else
          "NOT all correct or within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
