"""The benchmark's traced pass against the package.

``perfbench/tracer.py`` rebinds the pool entry ``PathEnsemble.map_batches``
and the solver kernels by name, and parents worker spans to the open pool
call.  A change to those signatures shows here as a pass that records an
error or a span that records no call under a battery.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sde_pass_times_the_pool_and_the_solver_kernels(tmp_path):
    result = tmp_path / "r.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(result),
         "--trace", "--", "sde", "--replicas", "64", "--grid", "16",
         "--out", str(tmp_path)],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=300)
    out = json.loads(result.read_text(encoding="utf-8"))
    assert out["error"] is None
    assert out["status"] in (0, 1)  # a verdict, not a usage error
    metrics = out["trace"]["metrics"]
    under_battery = out["trace"]["battery_calls"]
    for span in ("paths.map_batches", "sde._q_apply", "sde._em_values"):
        assert metrics[f"{span}.calls"] > 0, span
        assert under_battery.get(span, 0) > 0, span
