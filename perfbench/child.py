"""One benchmark pass: a fresh interpreter that runs one ``cdstoch`` call.

Usage: python3 perfbench/child.py RESULT_JSON [--trace] -- CDSTOCH_ARGS...

Run from the repository root with ``src`` on ``PYTHONPATH``.  The pass
imports the package, builds the config and the driving covariance (the
set-up a CLI user pays on every call), stamps the CLOCK_MONOTONIC time at
which it is ready, then times ``cdstoch.cli.main`` alone.  It writes a
JSON result with the ready stamp, wall time, exit status, peak resident
memory, the sha256 of the report with its timing fields stripped, the
BLAS set-up in effect and, with ``--trace``, the per-layer trace.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def blas_info() -> list[dict]:
    """Version and thread count of each OpenBLAS loaded in this process."""
    paths = set()
    with open("/proc/self/maps", encoding="utf-8") as maps:
        for line in maps:
            fields = line.split()
            if len(fields) >= 6 and "openblas" in fields[-1].lower():
                paths.add(fields[-1])
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):  # the 64_ ABI first
            threads = getattr(lib, f"{prefix}_get_num_threads64_", None) or \
                getattr(lib, f"{prefix}_get_num_threads", None)
            config = getattr(lib, f"{prefix}_get_config64_", None) or \
                getattr(lib, f"{prefix}_get_config", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                entry.update(config=config().decode(), threads=int(threads()))
                break
        out.append(entry)
    return out


def main(argv: list[str]) -> int:
    result_path = Path(argv[0])
    trace = argv[1] == "--trace"
    cli_argv = argv[argv.index("--") + 1:]

    import cdstoch.cli as cli
    from cdstoch.config import RunConfig, build_driving, load_config
    from cdstoch.report import render_json, strip_timing

    args = cli.build_parser().parse_args(cli_argv)
    cfg = load_config(args.config) if args.command == "run" else RunConfig()
    build_driving(cfg)
    ready = time.monotonic()

    result = {"ready": ready, "blas": blas_info(), "status": None,
              "error": None}
    tracer = None
    if trace:
        from tracer import Tracer  # perfbench/ is sys.path[0]
        tracer = Tracer()
        tracer.install()

    start = time.perf_counter()
    try:
        result["status"] = int(cli.main(cli_argv))
    except SystemExit as exc:
        result["status"] = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # recorded; the benchmark counts the pass as failed
        result["error"] = traceback.format_exc()
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report_path = Path(args.out) / "report.json"
    doc = None
    if report_path.is_file():
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        stripped = render_json(strip_timing(doc))
        Path(args.out, "report.stripped.json").write_text(
            stripped, encoding="utf-8")
        result["report_sha256"] = \
            hashlib.sha256(stripped.encode()).hexdigest()
    if tracer is not None:
        result["trace"] = tracer.summary(doc)
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
