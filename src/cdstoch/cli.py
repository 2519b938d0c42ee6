"""Command line front end.

``cdstoch`` runs the verification batteries and writes a versioned
report.  Subcommands select battery groups; ``run`` takes a config file
and honors its experiment selection; ``all`` runs everything.  Exit
status: 0 when every check passed, 1 when any check failed, 2 on
configuration or usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import (
    FORMAT_CHOICES,
    ConfigError,
    RunConfig,
    build_driving,
    effective_threads,
    load_config,
)
from .experiments import run_experiments
from .report import make_report, write_outputs

SUBCOMMAND_EXPERIMENTS = {
    "algebra": ("algebra", "linops"),
    "paths": ("paths",),
    "isometry": ("isometry",),
    "martingale": ("martingale",),
    "chebyshev": ("chebyshev",),
    "sde": ("sde",),
    "all": (),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="base seed for all streams")
    parser.add_argument("--replicas", type=int,
                        help="Monte Carlo sample count per ensemble")
    parser.add_argument("--grid", type=int, action="append", metavar="STEPS",
                        help="time grid steps; repeat for a refinement "
                             "ladder (each entry doubling the last)")
    parser.add_argument("--threads", type=int,
                        help="worker threads (default: the available "
                             "parallelism)")
    parser.add_argument("--out", help="output directory (default: .)")
    parser.add_argument("--format", choices=FORMAT_CHOICES,
                        help="report format: json (default) or csv "
                             "(adds per-battery metric tables)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdstoch",
        description="Verification batteries for Cayley-Dickson stochastic "
                    "calculus: algebra laws, path statistics, integral "
                    "isometries, martingale structure, tail bounds, and "
                    "SDE solver diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run experiments from a config file")
    run.add_argument("--config", required=True, help="path to a key=value "
                                                     "config file")
    _add_common(run)

    for name, help_text in (
        ("algebra", "algebra and operator-layer batteries"),
        ("paths", "path construction and distribution batteries"),
        ("isometry", "integral isometry and second-moment bound batteries"),
        ("martingale", "martingale property batteries"),
        ("chebyshev", "tail bound and refinement batteries"),
        ("sde", "solver batteries (repeat --grid for a strong-order table)"),
        ("all", "every battery in dependency order"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd)

    return parser


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.replicas is not None:
        updates["replicas"] = args.replicas
    if args.grid:
        updates["grids"] = tuple(args.grid)
    if args.threads is not None:
        updates["threads"] = args.threads
    if args.out is not None:
        updates["out"] = args.out
    if args.format is not None:
        updates["format"] = args.format
    if args.command != "run":
        updates["experiments"] = SUBCOMMAND_EXPERIMENTS[args.command]
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.command == "run" \
            else RunConfig()
        cfg = _apply_overrides(cfg, args)
        cfg = dataclasses.replace(
            cfg, threads=effective_threads(cfg.threads))
        build_driving(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    experiments = run_experiments(cfg)
    doc = make_report(cfg, experiments)
    out_dir = Path(cfg.out) if cfg.out else Path(".")
    written = write_outputs(doc, out_dir, cfg.format)

    for entry in doc["experiments"]:
        if entry["passed"]:
            print(f"{entry['name']}: PASS "
                  f"({len(entry['checks'])} checks, "
                  f"{entry['wall_time_s']:.1f}s)")
        else:
            failed = [c["name"] for c in entry["checks"] if not c["passed"]]
            print(f"{entry['name']}: FAIL ({', '.join(failed)})")
    print(f"report: {written[0]}")
    return 0 if doc["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
