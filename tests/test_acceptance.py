"""Acceptance battery: ten pinned criteria with budgeted runtimes.

Each criterion runs the relevant verification battery at its pinned
sample size, asserts the named checks, and enforces a wall-clock
budget.  Batteries shared by neighboring criteria run once and are
cached; the cached wall time is charged in full against every
criterion that reads it, so the budgets stay conservative.

Criterion 8 is split: the solver sub-checks (Picard contraction, the
Picard/Euler agreement, and the refinement gap decay) pass and live in
one test, while the strong-order window assertion sits alone in a
second test so that a genuine slope change is the only thing that can
flip it.
"""

import time

import pytest

import conftest
from cdstoch import experiments as ex
from cdstoch.config import RunConfig
from cdstoch.report import make_report, render_json, strip_timing

_CACHE = {}


def battery(name, **cfg_kw):
    """Run one battery through the runner once per configuration; return
    (its report entry, seconds)."""
    key = (name,) + tuple(sorted(cfg_kw.items()))
    if key not in _CACHE:
        cfg = RunConfig(seed=0, threads=1, experiments=(name,), **cfg_kw)
        started = time.perf_counter()
        entry, = ex.run_experiments(cfg)
        _CACHE[key] = (entry, time.perf_counter() - started)
    return _CACHE[key]


def by_name(entry):
    return {c["name"]: c for c in entry["checks"]}


def report(number, description, ok, elapsed=None, budget=None):
    timing = "" if budget is None else f" [{elapsed:.1f}s of {budget:.0f}s]"
    line = (f"CRITERION {number}: {'PASS' if ok else 'FAIL'}"
            f" - {description}{timing}")
    print(line)
    conftest.CRITERION_LINES.append(line)
    assert ok, f"criterion {number}: {description}"


def subset_ok(entry, names):
    checks = by_name(entry)
    missing = [n for n in names if n not in checks]
    failed = [n for n in names if n in checks and not checks[n]["passed"]]
    return not missing and not failed, missing + failed


# --------------------------------------------------------------- criteria

def test_criterion_01_algebra_invariants():
    entry, elapsed = battery("algebra", replicas=2000)
    names = ("quaternion_table", "octonion_fano_lines", "basis_xor_grading",
             "norm_multiplicativity", "sedenion_zero_divisor",
             "moufang_and_alternativity", "power_associativity",
             "conjugation_antiautomorphism")
    ok, bad = subset_ok(entry, names)
    budget = 10.0
    report(1, f"algebra laws through level five{' ' + str(bad) if bad else ''}",
           ok and elapsed < budget, elapsed, budget)


def test_criterion_02_square_roots():
    entry, elapsed = battery("algebra", replicas=2000)
    names = ("sqrt_round_trip", "sqrt_positive_branch",
             "nilpotent_root_rejected", "exp_inverse_identity")
    ok, bad = subset_ok(entry, names)
    budget = 5.0
    report(2, f"square root branches and rejections"
              f"{' ' + str(bad) if bad else ''}",
           ok and elapsed < budget, elapsed, budget)


def test_criterion_03_operator_layer():
    entry, elapsed = battery("linops", replicas=2000)
    budget = 30.0
    failed = [c["name"] for c in entry["checks"] if not c["passed"]]
    report(3, f"operator layer identities{' ' + str(failed) if failed else ''}",
           entry["passed"] and elapsed < budget, elapsed, budget)


def test_criterion_04_path_moments():
    entry, elapsed = battery("paths", replicas=100_000)
    names = ("mean_increment", "increment_covariance_00",
             "increment_covariance_cross_block",
             "increment_covariance_directional",
             "disjoint_increment_independence")
    ok, bad = subset_ok(entry, names)
    budget = 60.0
    report(4, f"increment moments at one hundred thousand replicas"
              f"{' ' + str(bad) if bad else ''}",
           ok and elapsed < budget, elapsed, budget)


def test_criterion_05_characteristic_functionals():
    entry, elapsed = battery("paths", replicas=100_000)
    names = tuple(f"char_functional_case_{i:02d}" for i in range(20))
    names += ("char_semigroup",)
    ok, bad = subset_ok(entry, names)
    budget = 60.0
    report(5, f"twenty characteristic functional cases plus the semigroup"
              f" step{' ' + str(bad) if bad else ''}",
           ok and elapsed < budget, elapsed, budget)


def test_criterion_06_isometry_and_bounds():
    entry, elapsed = battery("isometry", replicas=100_000)
    checks = by_name(entry)
    anchor = checks["isometry_identity_anchor"]
    anchored = anchor["expected_rhs"] == pytest.approx(1.0)
    cases = [n for n in checks if n.startswith(("isometry_", "bound_"))]
    failed = [c["name"] for c in entry["checks"] if not c["passed"]]
    budget = 120.0
    report(6, f"isometry and bound battery ({len(cases)} cases, identity"
              f" anchor pinned){' ' + str(failed) if failed else ''}",
           entry["passed"] and anchored and len(cases) == 10
           and elapsed < budget, elapsed, budget)


def test_criterion_07_martingale_and_tails():
    m_entry, m_elapsed = battery("martingale", replicas=100_000)
    c_entry, c_elapsed = battery("chebyshev", replicas=100_000)
    lookahead = by_name(m_entry)["lookahead_control_rejected"]
    failed = [c["name"] for c in m_entry["checks"] + c_entry["checks"]
              if not c["passed"]]
    elapsed = m_elapsed + c_elapsed
    budget = 120.0
    report(7, f"martingale bins, lookahead rejection, and tail bounds"
              f"{' ' + str(failed) if failed else ''}",
           m_entry["passed"] and c_entry["passed"] and lookahead["passed"]
           and elapsed < budget, elapsed, budget)


def test_criterion_08_solver_convergence():
    entry, elapsed = battery("sde", replicas=10_000,
                             grids=(16, 32, 64, 128, 256))
    names = ("picard_factorial_decay", "picard_em_agreement",
             "uniqueness_gap_vanishes")
    ok, bad = subset_ok(entry, names)
    budget = 300.0
    report("8 (solver sub-checks)",
           f"Picard contraction, Picard/Euler agreement, refinement gap"
           f" decay{' ' + str(bad) if bad else ''}",
           ok and elapsed < budget, elapsed, budget)


def test_criterion_08_strong_order_window():
    entry, elapsed = battery("sde", replicas=10_000,
                             grids=(16, 32, 64, 128, 256))
    check = by_name(entry)["strong_order_window"]
    budget = 300.0
    report(8, f"strong-order slope {check['slope']:.3f} vs window"
              f" {check['window']} over four halvings",
           check["passed"] and elapsed < budget, elapsed, budget)


def test_criterion_09_markov_restart():
    entry, elapsed = battery("sde", replicas=10_000,
                             grids=(16, 32, 64, 128, 256))
    checks = by_name(entry)
    ok = True
    for name in ("restart_linear", "restart_pure_noise",
                 "restart_nonlinear"):
        c = checks[name]
        ok = (ok and c["passed"] and c["max_pathwise_deviation"] <= 1e-12
              and c["ks_min_pvalue"] >= 0.01)
    budget = 60.0
    report(9, "restart consistency: exact pathwise match and marginal"
              " agreement", ok and elapsed < budget, elapsed, budget)


def test_criterion_10_deterministic_reports():
    texts = []
    for threads in (1, 3):
        cfg = RunConfig(seed=0, replicas=6000, grids=(32,), threads=threads)
        doc = make_report(cfg, ex.run_experiments(cfg))
        texts.append(render_json(strip_timing(doc)))
    report(10, "reports byte-identical across worker counts once timings"
               " are stripped", texts[0] == texts[1])
