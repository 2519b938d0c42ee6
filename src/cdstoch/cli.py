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
    load_config_fields,
)
from .experiments import run_experiments
from .report import make_report, write_outputs

# subcommand -> (the experiments it runs, its help text); () runs them all
SUBCOMMANDS = {
    "algebra": (("algebra", "linops"), "algebra and operator-layer batteries"),
    "paths": (("paths",), "path construction and distribution batteries"),
    "isometry": (("isometry",),
                 "integral isometry and second-moment bound batteries"),
    "martingale": (("martingale",), "martingale property batteries"),
    "chebyshev": (("chebyshev",), "tail bound and refinement batteries"),
    "sde": (("sde",),
            "solver batteries (repeat --grid for a strong-order table)"),
    "all": ((), "every battery in dependency order"),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="base seed for all streams")
    parser.add_argument("--replicas", type=int,
                        help="Monte Carlo sample count per ensemble")
    parser.add_argument("--grid", type=int, action="append", dest="grids",
                        metavar="STEPS",
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

    for name, (_, help_text) in SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd)

    return parser


def _build_config(fields: dict, args: argparse.Namespace) -> RunConfig:
    """The command's one RunConfig: the config file's fields (none on a
    subcommand), then every flag given on the command line (each flag's
    dest is its RunConfig field) and, on a subcommand, its experiments.
    Only the merged values are gated, when it is built."""
    fields = dict(fields)
    fields.update({f.name: getattr(args, f.name)
                   for f in dataclasses.fields(RunConfig)
                   if getattr(args, f.name, None) is not None})
    if args.command != "run":
        fields["experiments"] = SUBCOMMANDS[args.command][0]
    return RunConfig(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(load_config_fields(args.config)
                            if args.command == "run" else {}, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # an unusable output directory is refused before any battery runs
    out_dir = Path(cfg.out) if cfg.out else Path(".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: output directory: {exc}", file=sys.stderr)
        return 2

    experiments = run_experiments(cfg)
    doc = make_report(cfg, experiments)
    try:
        written = write_outputs(doc, out_dir, cfg.format)
    except OSError as exc:
        print(f"error: writing the report: {exc}", file=sys.stderr)
        return 2

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
