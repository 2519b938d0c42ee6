"""Check the guardrail hashes of ``cdstoch all``.

Runs ``cdstoch all`` at seeds 0 and 7 with ``--threads`` 1, 2 and 3, each
in a fresh process writing to a temporary directory, and prints the exit
code and the sha256 of the stripped report (``render_json(strip_timing(
doc))``) of every run.  Exits 1 unless every run of a seed gives that
seed's pinned exit code and hash.

    python tools/check_pins.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from cdstoch.report import render_json, strip_timing  # noqa: E402

# seed -> (exit code, sha256 of the stripped report); seed 0 fails on
# char_functional_case_15, the known red
PINS = {
    0: (1, "9adaf612beedcfb9855334d0f8b8d35d7d57535eab1942b4b6010db50c097e10"),
    7: (0, "0628ca75fa5863069db619c33030c8e75b4adf65e5e4d5c5e891ae15c312f574"),
}
THREADS = (1, 2, 3)


def run_all(seed: int, threads: int) -> tuple[int, str]:
    """(exit code, sha256 of the stripped report) of one ``cdstoch all``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory() as out:
        proc = subprocess.run(
            [sys.executable, "-m", "cdstoch.cli", "all", "--seed", str(seed),
             "--threads", str(threads), "--out", out],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, check=False)
        report = Path(out) / "report.json"
        if not report.exists():
            return proc.returncode, f"no report ({proc.stderr.strip()})"
        doc = json.loads(report.read_text(encoding="utf-8"))
    digest = hashlib.sha256(render_json(strip_timing(doc)).encode())
    return proc.returncode, digest.hexdigest()


def main() -> int:
    ok = True
    for seed, pinned in PINS.items():
        for threads in THREADS:
            got = run_all(seed, threads)
            match = got == pinned
            ok &= match
            print(f"seed {seed} threads {threads}: exit {got[0]} "
                  f"sha256 {got[1]} {'ok' if match else 'MISMATCH'}",
                  flush=True)
    print("pins hold" if ok else "pins broken")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
