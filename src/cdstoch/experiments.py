"""Verification batteries wiring every layer into auditable report entries.

Each battery function takes a RunConfig and returns its checks, each
``{"name", "anchor", "passed", ...}``.  The runner, ``run_experiments``,
builds each battery's report entry::

    {"name": ..., "checks": [...], "passed": bool, "wall_time_s": float}

with the name from ``EXPERIMENTS``, the time of the battery call, and a
verdict that holds when every check passes.  The ``anchor`` field is the
audit key a reader can use to locate the statement a check exercises;
it is part of the report wire format.  Monte Carlo checks are rows,
probes whose gate projects the result into a check (``_row``), and a
battery sweeps all of its rows at once; deterministic checks are cases
(``_run_cases``).  Every ensemble a Monte Carlo battery sweeps is built
by ``Battery.paths`` on the battery's grid, its noise keyed on the run
seed plus a fixed offset.  Experiments draw their fixtures from
``paths.fixture_rng`` streams, which never meet the path noise, so
adding or reordering checks never perturbs the simulated noise.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    CdComplex,
    CdReal,
    NegativeRealNoCanonicalRoot,
    NilpotentNoRoot,
    cd_conj,
    cd_exp,
    cd_mul,
    cd_sqrt,
    cdc_mul,
    cdc_sqrt,
    dim_of,
    find_zero_divisor,
    mul_coeffs,
    mul_table,
)
from .config import (
    EXPERIMENT_CHOICES,
    SDE_DRIFT,
    TOLERANCES,
    RunConfig,
    build_driving,
    sde_base_steps,
    strong_order_halvings,
    uniqueness_halvings,
)
from .integrals import (
    StepIntegrand,
    bound_check,
    chebyshev_check,
    continuity_check,
    integral_paths,
    isometry_check,
    lookahead_control,
    martingale_check,
    refinement_study,
    zero_mean_check,
)
from .linops import (
    CdVector,
    ComplexCovariance,
    CovarianceOperator,
    RealFunctional,
    RightLinearOp,
    adjoint_full_residual,
    entries_trace,
    f_functional,
    op_exp_left,
    op_norm,
    re_inner,
    trace_aa_star_via_units,
    vec_size,
)
from .paths import (
    PathEnsemble,
    Probe,
    TimeGrid,
    char_functional_check,
    char_semigroup,
    disjoint_increments,
    fixture_rng,
    halving_depth,
    increment_cov,
    mean_increment,
    path_continuity,
    sweep,
)
from .sde import (
    SdeProblem,
    ZetaSpec,
    euler_maruyama,
    gronwall_bound,
    linear_closed_form,
    linear_problem,
    lipschitz_validate,
    picard_decay_check,
    picard_em_gap,
    picard_solve,
    restart_markov_check,
    strong_order_study,
    uniqueness_study,
)

def _check(name: str, anchor: str, passed, **fields) -> dict:
    out = {"name": name, "anchor": anchor, "passed": bool(passed)}
    out.update(fields)
    return out


def _report(name: str, anchor: str, res: dict, *fields: str, passed=None,
            **extra) -> dict:
    """Report entry for a check result: its verdict plus the named fields.

    ``passed`` overrides the result's own verdict; ``extra`` adds fields
    the battery computes itself.
    """
    return _check(name, anchor, res["passed"] if passed is None else passed,
                  **{f: res[f] for f in fields}, **extra)


class Battery(NamedTuple):
    """A Monte Carlo battery's run settings and the grid it sweeps on."""

    cfg: RunConfig
    grid: TimeGrid

    @classmethod
    def on(cls, cfg: RunConfig, steps: int) -> "Battery":
        """The battery on the run window cut into ``steps`` steps."""
        return cls(cfg, TimeGrid.uniform(*cfg.window, steps))

    @property
    def span(self) -> float:
        return self.grid.b - self.grid.a

    def paths(self, u, p: CdVector | None, offset: int,
              replicas: int) -> PathEnsemble:
        """The one route to a battery's ensembles: ``replicas`` paths of
        law (u, p) on the battery's grid, their noise keyed on the run
        seed plus ``offset``.  An offset names one ensemble's noise, so
        changing it moves every entry read from that ensemble.
        """
        return PathEnsemble(self.grid, u, p, seed=self.cfg.seed + offset,
                            n_replicas=replicas)


def _project(probe: Probe, project: Callable) -> Probe:
    """The probe with project composed onto its gate: its result is
    project(the probe's own result), a report entry."""
    gate = probe.gate
    return probe._replace(gate=lambda values: project(gate(values)))


def _row(probe: Probe, name: str, anchor: str, *fields: str,
         **extra) -> Probe:
    """The probe whose result is its entry: its verdict plus the named
    fields."""
    return _project(probe,
                    lambda res: _report(name, anchor, res, *fields, **extra))


def _max_gap_row(ens: PathEnsemble, gap, name: str, anchor: str, tol: float,
                 *fields: str) -> Probe:
    """Row on ens of the largest |gap(batch)| over all replicas vs tol, as
    ``max_gap``; a gather, so a NaN gap reaches np.max and fails."""

    def sample(batch):
        return (np.max(np.abs(gap(batch)).reshape(batch.count, -1), axis=1),)

    def gate(joined):
        worst = float(np.max(joined[0]))
        return {"passed": worst <= tol, "max_gap": worst}

    return _row(Probe(ens, sample, gate, gather=True), name, anchor, *fields)


def _tolerances(cfg: RunConfig) -> dict[str, float]:
    """The default tolerances, with those the config sets."""
    return {**TOLERANCES, **dict(cfg.tolerances)}


def _worst(gaps) -> float:
    """Largest entry of the gaps (arrays or scalars); NaN if any is NaN."""
    return float(np.max(np.concatenate([np.ravel(g) for g in gaps])))


class Case(NamedTuple):
    """One deterministic check of a battery: ``run(rng, tol)`` returns the
    entry's fields, plus an optional ``ok`` flag for its boolean parts.
    ``rng`` is the fixture stream (None when the case draws nothing) and
    ``tol`` the ``exact`` or ``sqrt`` tolerance; the case passes when
    ``ok`` holds and every ``gated`` field is at most ``tol``."""

    name: str
    anchor: str
    fixture: int | None
    tol: str
    gated: tuple[str, ...]
    run: Callable


def _run_cases(cases, cfg: RunConfig) -> list[dict]:
    """Report entries of the cases, in case order; a NaN gated field
    compares False, so it fails its case."""
    tols = _tolerances(cfg)
    entries = []
    for case in cases:
        rng = (None if case.fixture is None
               else fixture_rng(cfg.seed, case.fixture))
        tol = tols[case.tol]
        fields = case.run(rng, tol)
        passed = fields.pop("ok", True) and all(
            fields[f] <= tol for f in case.gated)
        entries.append(_check(case.name, case.anchor, passed, **fields))
    return entries


# ------------------------------------------------------------------- algebra

# Quaternion products among the imaginary units 1=i, 2=j, 3=k under the
# doubling convention used throughout: value is (sign, basis index).
QUATERNION_TABLE = {
    (1, 2): (1.0, 3), (2, 1): (-1.0, 3),
    (2, 3): (1.0, 1), (3, 2): (-1.0, 1),
    (3, 1): (1.0, 2), (1, 3): (-1.0, 2),
    (1, 1): (-1.0, 0), (2, 2): (-1.0, 0), (3, 3): (-1.0, 0),
}

# Oriented octonion triples (a, b, c): each means ab = c, closed cyclically.
OCTONION_LINES = (
    (1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6),
    (2, 5, 7), (3, 4, 7), (3, 6, 5),
)


def _quaternion_table_check(rng, atol: float) -> dict:
    signs, idxs = mul_table(2)
    expected_sign = np.zeros((4, 4))
    expected_idx = np.zeros((4, 4), dtype=int)
    for x in range(4):
        expected_sign[0, x] = expected_sign[x, 0] = 1.0
        expected_idx[0, x] = expected_idx[x, 0] = x
    for (x, y), (s, k) in QUATERNION_TABLE.items():
        expected_sign[x, y] = s
        expected_idx[x, y] = k
    ok = np.array_equal(idxs, expected_idx) and np.allclose(
        signs, expected_sign, rtol=0.0, atol=atol)
    return {"ok": ok, "pairs": 16}


def _octonion_lines_check(rng, tol: float) -> dict:
    signs, idxs = mul_table(3)
    ok = True
    for line in OCTONION_LINES:
        for a, b, c in (line, line[1:] + line[:1], line[2:] + line[:2]):
            ok = ok and idxs[a, b] == c and signs[a, b] == 1.0
            ok = ok and idxs[b, a] == c and signs[b, a] == -1.0
    return {"ok": ok, "lines": len(OCTONION_LINES)}


def _xor_grading_check(rng, tol: float) -> dict:
    ok = True
    for level in range(6):
        signs, idxs = mul_table(level)
        d = dim_of(level)
        grid = np.indices((d, d))
        ok = ok and np.array_equal(idxs, grid[0] ^ grid[1])
        ok = ok and np.all(np.abs(signs) == 1.0)
    return {"ok": ok, "levels": 6}


def _norm_multiplicativity_check(rng, atol: float) -> dict:
    gaps = []
    pairs = 0
    for level in range(4):
        d = dim_of(level)
        a = rng.normal(size=(2500, d))
        b = rng.normal(size=(2500, d))
        prod = mul_coeffs(level, a, b)
        na = np.sqrt(np.sum(a * a, axis=1))
        nb = np.sqrt(np.sum(b * b, axis=1))
        np_ = np.sqrt(np.sum(prod * prod, axis=1))
        gaps.append(np.abs(np_ - na * nb) / np.maximum(1.0, na * nb))
        pairs += a.shape[0]
    return {"pairs": pairs, "levels": 4, "max_rel_gap": _worst(gaps)}


def _zero_divisor_check(rng, atol: float) -> dict:
    a, b = find_zero_divisor()
    prod = cd_mul(a, b)
    return {"ok": abs(a) > 0.5 and abs(b) > 0.5,
            "residual": float(np.max(np.abs(prod.coeffs)))}


def _identities_check(rng, atol: float) -> dict:
    mul = functools.partial(mul_coeffs, 3)
    count = 2000
    a = rng.normal(size=(count, 8))
    b = rng.normal(size=(count, 8))
    c = rng.normal(size=(count, 8))
    scale = np.maximum(
        1.0,
        (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
         * np.linalg.norm(c, axis=1))[:, None])
    moufang = np.abs(mul(mul(a, b), mul(c, a))
                     - mul(a, mul(mul(b, c), a))) / scale
    left_alt = np.abs(mul(mul(a, a), b) - mul(a, mul(a, b))) / scale
    right_alt = np.abs(mul(mul(a, b), b) - mul(a, mul(b, b))) / scale
    flexible = np.abs(mul(mul(a, b), a) - mul(a, mul(b, a))) / scale
    return {"level": 3, "samples": count,
            "max_rel_gap": _worst([moufang, left_alt, right_alt, flexible])}


def _power_associativity_check(rng, atol: float) -> dict:
    gaps = []
    for level in range(2, 6):
        x = rng.normal(size=(500, dim_of(level)))
        x2 = mul_coeffs(level, x, x)
        scale = np.maximum(1.0, np.linalg.norm(x, axis=1) ** 4)[:, None]
        gaps.append(np.abs(mul_coeffs(level, x2, x2)
                           - mul_coeffs(level, x, mul_coeffs(level, x, x2)))
                    / scale)
    return {"levels": "2..5", "max_rel_gap": _worst(gaps)}


def _conjugation_check(rng, atol: float) -> dict:
    gaps = []
    for level in range(6):
        d = dim_of(level)
        for _ in range(50):
            a = CdReal(level, rng.normal(size=d))
            b = CdReal(level, rng.normal(size=d))
            scale = max(1.0, abs(a) * abs(b))
            gaps.append(np.max(np.abs(
                cd_conj(cd_mul(a, b)).coeffs
                - cd_mul(cd_conj(b), cd_conj(a)).coeffs)) / scale)
            # a * conj(a) lands on the real axis with value sum(a_l^2)
            sq = cd_mul(a, cd_conj(a)).coeffs
            target = np.zeros(d)
            target[0] = np.sum(a.coeffs ** 2)
            gaps.append(np.max(np.abs(sq - target)) / max(1.0, target[0]))
    return {"max_rel_gap": _worst(gaps)}


def _sqrt_roundtrip_check(rng, rtol: float) -> dict:
    plain = []
    for level in range(4):
        d = dim_of(level)
        for _ in range(1250):
            coeffs = rng.normal(size=d)
            a = CdReal(level, coeffs)
            if level == 0 and coeffs[0] <= 0.0:
                a = CdReal(level, np.abs(coeffs) + 0.1)
            try:
                s = cd_sqrt(a)
            except NegativeRealNoCanonicalRoot:
                # negative reals have no canonical plain root; perturb off axis
                coeffs = coeffs.copy()
                coeffs[min(1, d - 1)] += 0.5
                a = CdReal(level, coeffs)
                s = cd_sqrt(a)
            gap = np.max(np.abs(cd_mul(s, s).coeffs - a.coeffs))
            plain.append(gap / max(1.0, abs(a)))
    cplx = []
    for level in range(4):
        d = dim_of(level)
        for _ in range(1250):
            a = CdComplex(CdReal(level, rng.normal(size=d)),
                          CdReal(level, rng.normal(size=d)))
            s = cdc_sqrt(a)
            gap_elem = cdc_mul(s, s) - a
            gap = math.sqrt(gap_elem.norm2())
            cplx.append(gap / max(1.0, math.sqrt(a.norm2())))
    return {"plain_inputs": len(plain), "complexified_inputs": len(cplx),
            "max_rel_gap_plain": _worst(plain),
            "max_rel_gap_complexified": _worst(cplx)}


def _sqrt_branch_check(rng, atol: float) -> dict:
    four = cd_sqrt(CdReal.from_real(2, 4.0))
    ok = bool(np.max(np.abs(four.coeffs
                            - CdReal.from_real(2, 2.0).coeffs)) <= atol)
    # positive reals keep a positive root across the tower
    for level in range(4):
        for _ in range(50):
            value = float(rng.uniform(0.1, 9.0))
            root = cd_sqrt(CdReal.from_real(level, value))
            ok = ok and root.real > 0.0
            ok = ok and abs(root.real - math.sqrt(value)) <= atol * 10
    return {"ok": ok}


def _nilpotent_check(rng, tol: float) -> dict:
    # (i_1 + i i_2)^2 = 0: square roots must be refused, not fabricated
    a = CdComplex(CdReal.unit(2, 1), CdReal.unit(2, 2))
    is_nilpotent = cdc_mul(a, a).norm2() == 0.0
    try:
        cdc_sqrt(a)
    except NilpotentNoRoot:
        return {"ok": is_nilpotent}
    return {"ok": False}


def _exp_check(rng, rtol: float) -> dict:
    gaps = []
    for level in range(4):
        d = dim_of(level)
        one = np.zeros(d)
        one[0] = 1.0
        gaps.append(np.abs(cd_exp(CdReal.zero(level)).coeffs - one))
        for _ in range(50):
            a = CdReal(level, rng.normal(size=d) * 0.7)
            prod = cd_mul(cd_exp(a), cd_exp(-a))
            gaps.append(np.abs(prod.coeffs - one))
    return {"max_gap": _worst(gaps)}


ALGEBRA_CASES = (
    Case("quaternion_table", "§1", None, "exact", (),
         _quaternion_table_check),
    Case("octonion_fano_lines", "§1", None, "exact", (),
         _octonion_lines_check),
    Case("basis_xor_grading", "§1", None, "exact", (), _xor_grading_check),
    Case("norm_multiplicativity", "Remark 2.7", 1, "exact",
         ("max_rel_gap",), _norm_multiplicativity_check),
    Case("sedenion_zero_divisor", "§1", None, "exact", ("residual",),
         _zero_divisor_check),
    Case("moufang_and_alternativity", "§1", 2, "exact", ("max_rel_gap",),
         _identities_check),
    Case("power_associativity", "§1", 3, "exact", ("max_rel_gap",),
         _power_associativity_check),
    Case("conjugation_antiautomorphism", "Remark 2.11(3)", 4, "exact",
         ("max_rel_gap",), _conjugation_check),
    Case("sqrt_round_trip", "Thm. 2.8 proof", 5, "sqrt",
         ("max_rel_gap_plain", "max_rel_gap_complexified"),
         _sqrt_roundtrip_check),
    Case("sqrt_positive_branch", "Thm. 2.8 proof", 6, "exact", (),
         _sqrt_branch_check),
    Case("nilpotent_root_rejected", "Thm. 2.8 proof", None, "exact", (),
         _nilpotent_check),
    Case("exp_inverse_identity", "Thm. 2.14 proof", 7, "sqrt", ("max_gap",),
         _exp_check),
)


def algebra_experiment(cfg: RunConfig) -> list[dict]:
    """Multiplication tables, identity laws, square roots."""
    return _run_cases(ALGEBRA_CASES, cfg)


# -------------------------------------------------------------------- linops

def _random_block(rng, level: int, h: int, n: int) -> np.ndarray:
    return rng.normal(size=(h, n, dim_of(level)))


def _random_four_block(rng, level: int, h: int, n: int) -> RightLinearOp:
    """Blocks s00, s01, s10, s11, drawn in that order."""
    return RightLinearOp.from_blocks(
        level, *(_random_block(rng, level, h, n) for _ in range(4)))


def _structured_vs_realized_check(rng, atol: float) -> dict:
    gaps = []
    for level in range(4):
        for n, h in ((1, 1), (2, 1), (2, 3)):
            for _ in range(4):
                op = _random_four_block(rng, level, h, n)
                v = rng.normal(size=(100, vec_size(level, n)))
                via_matrix = v @ op.realized.T
                via_blocks = np.stack([
                    op.apply(CdVector.from_vec(level, n, row)).vec
                    for row in v])
                scale = max(1.0, float(np.max(np.abs(via_matrix))))
                gaps.append(np.max(np.abs(via_matrix - via_blocks)) / scale)
    return {"operators": len(gaps), "vectors_per_operator": 100,
            "max_rel_gap": _worst(gaps)}


def _adjoint_check(rng, atol: float) -> dict:
    gaps = []
    involution_ok = True
    residuals = []
    for level in range(4):
        for n, h in ((1, 1), (2, 2)):
            op = _random_four_block(rng, level, h, n)
            adj = op.adjoint()
            involution_ok = involution_ok and np.array_equal(
                adj.adjoint().realized, op.realized)
            x = rng.normal(size=(200, vec_size(level, n)))
            y = rng.normal(size=(200, vec_size(level, h)))
            lhs = re_inner(x @ op.realized.T, y, level, h)
            rhs = re_inner(x, y @ adj.realized.T, level, n)
            scale = max(1.0, float(np.max(np.abs(lhs))))
            gaps.append(np.max(np.abs(lhs - rhs)) / scale)
            residuals.append(adjoint_full_residual(op, samples=10))
    return {"ok": involution_ok, "max_rel_gap": _worst(gaps),
            "full_form_residual_unasserted": _worst(residuals)}


def _trace_formula_check(rng, atol: float) -> dict:
    gaps = []
    count = 0
    for level in range(4):
        for n, h in ((1, 1), (2, 1), (3, 2)):
            for _ in range(20):
                block = _random_block(rng, level, h, n)
                direct = entries_trace(block)
                via_units = trace_aa_star_via_units(block, level)
                scale = max(1.0, abs(direct))
                gaps.append(abs(direct - via_units.central.real) / scale)
                gaps.append(abs(via_units.central.imag) / scale)
                count += 1
    return {"blocks": count, "max_rel_gap": _worst(gaps)}


def _norm_dominance_check(rng, atol: float) -> dict:
    sizes = ((1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (2, 1), (1, 2), (2, 2))
    excess = []
    for level in range(4):
        for index in range(2500):
            n, h = sizes[index % len(sizes)]
            op = _random_four_block(rng, level, h, n)
            hs = math.sqrt(op.hs_norm2())
            excess.append((op_norm(op) - hs) / max(1.0, hs))
    return {"operators": len(excess), "worst_relative_excess": _worst(excess)}


def _cov_sqrt_check(rng, rtol: float) -> dict:
    gaps = []
    for level in range(4):
        d = dim_of(level)
        for _ in range(50):
            blocks = []
            for _ in range(int(rng.integers(1, 3))):
                k = int(rng.integers(1, 3))
                a = np.zeros(d)
                a[0] = 1.0 + float(rng.uniform(0.0, 2.0))
                if d > 1:
                    a[1:] = 0.35 * rng.normal(size=d - 1)
                m = rng.normal(size=(k, k))
                b = m @ m.T + (0.5 + k) * np.eye(k)
                blocks.append((CdReal(level, a), b))
            cov = CovarianceOperator(level, tuple(blocks))
            root = cov.sqrt_op()
            squared = root.realized @ root.realized
            target = cov.as_op().realized
            scale = max(1.0, float(np.max(np.abs(target))))
            gaps.append(np.max(np.abs(squared - target)) / scale)
    return {"covariances": len(gaps), "max_rel_gap": _worst(gaps)}


def _op_exp_check(rng, rtol: float) -> dict:
    gaps = []
    growth_ok = True
    for level in range(3):
        for n in (1, 2):
            op = _random_four_block(rng, level, n, n)
            s, t = 0.37, 0.81
            joint = op_exp_left(op, s + t)
            split = op_exp_left(op, s) @ op_exp_left(op, t)
            scale = max(1.0, float(np.max(np.abs(joint))))
            gaps.append(np.max(np.abs(joint - split)) / scale)
            norm_bound = math.exp(op_norm(op) * t)
            growth_ok = growth_ok and (
                op_norm(op_exp_left(op, t)) <= norm_bound * (1.0 + 1e-9))
    return {"ok": growth_ok, "max_rel_gap": _worst(gaps)}


def _f_functional_check(rng, atol: float) -> dict:
    u = _complexified_identity(2, 1)
    half = RightLinearOp.from_blocks(
        2, s00=np.array([[[1.0, 0.0, 0.0, 0.0]]]))
    single = f_functional(half, u)
    identity = f_functional(RightLinearOp.identity(2, 1), u)
    gaps = []
    nonneg_ok = True
    for _ in range(25):
        op = _random_four_block(rng, 2, 1, 1)
        c = float(rng.uniform(0.2, 3.0))
        base = f_functional(op, u)
        nonneg_ok = nonneg_ok and base >= 0.0
        scaled = f_functional(op.scaled(c), u)
        gaps.append(abs(scaled - c * c * base) / max(1.0, abs(base)))
    ok = (abs(single - 1.0) <= atol and abs(identity - 2.0) <= atol
          and nonneg_ok)
    return {"ok": ok, "single_entry": single, "identity_value": identity,
            "max_scaling_gap": _worst(gaps)}


LINOPS_CASES = (
    Case("structured_vs_realized", "Eq. 2.14(3)", 10, "exact",
         ("max_rel_gap",), _structured_vs_realized_check),
    Case("adjoint_real_inner_identity", "Remark 2.11(4)", 11, "exact",
         ("max_rel_gap",), _adjoint_check),
    Case("trace_formulas_agree", "Lemma 2.13 proof", 12, "exact",
         ("max_rel_gap",), _trace_formula_check),
    Case("operator_norm_dominated", "Remark 2.11(5)", 13, "exact",
         ("worst_relative_excess",), _norm_dominance_check),
    Case("cov_sqrt_round_trip", "Eq. 2.14(4)", 14, "sqrt", ("max_rel_gap",),
         _cov_sqrt_check),
    Case("exp_semigroup_and_growth", "Cor. 2.30 proof", 15, "sqrt",
         ("max_rel_gap",), _op_exp_check),
    Case("f_functional_values", "Eq. 2.18(2)", 16, "exact",
         ("max_scaling_gap",), _f_functional_check),
)


def linops_experiment(cfg: RunConfig) -> list[dict]:
    """Operator layer: realizations, adjoints, traces, square roots."""
    return _run_cases(LINOPS_CASES, cfg)


# --------------------------------------------------------------------- paths

def _multi_block_covariance(level: int) -> CovarianceOperator:
    a1 = np.zeros(dim_of(level))
    a1[0], a1[1] = 1.0, 0.5
    b1 = np.array([[2.0, 0.3], [0.3, 1.0]])
    a2 = np.zeros(dim_of(level))
    a2[min(2, dim_of(level) - 1)] = 1.0
    return CovarianceOperator(
        level, ((CdReal(level, a1), b1),
                (CdReal(level, a2), np.array([[1.5]]))))


def _cf_case_rows(bat: Battery) -> list[Probe]:
    """Twenty pinned characteristic-functional cases."""
    cfg = bat.cfg
    scales = fixture_rng(cfg.seed, 20)
    rows = []
    for index in range(20):
        level = (0, 1, 2, 3)[index % 4]
        n = 1 if index % 3 else 2
        complexified = index % 2 == 0
        with_drift = index % 5 == 0
        coeff_scale = float(scales.uniform(0.4, 1.4))
        rng = fixture_rng(cfg.seed, 21 + index)
        u0 = _random_spd_cov(rng, level, n, 1.0, 0.4)
        u = ComplexCovariance(u0, u0) if complexified else u0
        p = None
        if with_drift:
            p = CdVector(level, n,
                         0.4 * rng.normal(size=(n, 2, dim_of(level))))
        ens = bat.paths(u, p, 100 + index, cfg.replicas)
        y = RealFunctional(level, n,
                           coeff_scale * rng.normal(size=vec_size(level, n))
                           / math.sqrt(vec_size(level, n)))
        t = bat.grid.a + (0.5, 1.0)[index % 2] * bat.span
        rows.append(_row(char_functional_check(ens, y, t),
                         f"char_functional_case_{index:02d}", "Eq. 2.4(4)",
                         "gap", "radius", "sample_count", level=level, n=n,
                         complexified=complexified, with_drift=with_drift))
    return rows


def paths_experiment(cfg: RunConfig) -> list[dict]:
    """Moments, characteristic functionals, and continuity of the paths."""
    bat = Battery.on(cfg, cfg.grids[-1])
    grid, span = bat.grid, bat.span
    ens = bat.paths(*build_driving(cfg), 1, cfg.replicas)

    k4 = grid.steps // 4
    t1 = float(grid.points[k4])
    t2 = float(grid.points[3 * k4])
    pairs = [(0, 0)] if ens.n == 1 else [(0, 0), (0, ens.n - 1)]
    rng = fixture_rng(cfg.seed, 41)
    y = RealFunctional(ens.level, ens.n,
                       rng.normal(size=vec_size(ens.level, ens.n))
                       / math.sqrt(vec_size(ens.level, ens.n)))
    halvings = min(5, halving_depth(grid.steps))
    coords = ens.n * dim_of(ens.level) * (2 if ens.complexified else 1)
    eps = 2.0 * math.sqrt(2.0 * coords * span)
    # pinned multi-block fixture: a cross-block moment vanishes and an
    # i_1-valued coefficient steers the moment onto that axis
    fixture = bat.paths(_multi_block_covariance(2), None, 2, cfg.replicas)
    directional = bat.paths(CovarianceOperator.simple(
        CdReal.unit(2, 1), np.eye(1)), None, 3, cfg.replicas)
    return sweep([
        _row(mean_increment(ens, t1, t2), "mean_increment", "Cor. 2.9(1)",
             "max_gap", "max_standard_error", "sample_count"),
        *(_row(increment_cov(ens, t1, t2, k, h),
               f"increment_covariance_{k}{h}", "Cor. 2.9(2)", "k", "h",
               "max_gap", "as_stated_gap", "sample_count")
          for k, h in pairs),
        _row(increment_cov(fixture, t1, t2, 0, 2),
             "increment_covariance_cross_block", "Cor. 2.9(2)", "max_gap",
             "sample_count"),
        _row(increment_cov(directional, t1, t2, 0, 0),
             "increment_covariance_directional", "Cor. 2.9(2)", "max_gap",
             "sample_count"),
        _row(disjoint_increments(ens, grid.a, t1, t2, grid.b),
             "disjoint_increment_independence", "Def. 2.6",
             "max_abs_correlation", "bound"),
        *_cf_case_rows(bat),
        _row(char_semigroup(ens, y, span * k4 / grid.steps,
                            span * 2 * k4 / grid.steps),
             "char_semigroup", "Eq. 2.4(6)", "gap", "tolerance"),
        _row(path_continuity(ens, eps, halvings), "path_continuity",
             "Thm. 2.27", "eps", "tails", "deltas"),
    ], cfg.threads)


# ------------------------------------------------------------------ isometry

def _complexified_identity(level: int, n: int) -> ComplexCovariance:
    u = CovarianceOperator.identity(level, n)
    return ComplexCovariance(u, u)


def _random_spd_cov(rng, level: int, n: int, spread: float,
                    tilt: float) -> CovarianceOperator:
    """One block (1 + U(0, spread) + tilt N(0, 1) i_1, M M^T + (n + 1/2) I)."""
    d = dim_of(level)
    a = np.zeros(d)
    a[0] = 1.0 + float(rng.uniform(0.0, spread))
    if d > 1:
        a[1] = tilt * float(rng.normal())
    m = rng.normal(size=(n, n))
    return CovarianceOperator(
        level, ((CdReal(level, a), m @ m.T + (n + 0.5) * np.eye(n)),))


def _random_lri(rng, level: int, n: int) -> RightLinearOp:
    return RightLinearOp.lri(level, rng.normal(size=(n, n, dim_of(level))))


def _random_complex_cov(rng, level: int, n: int) -> ComplexCovariance:
    """Random complexified covariance with max ||U_k^(1/2)||_2^2 >= 3.

    The asserted tail bound beta^(-2) E int F compares the exceedance of
    beta * max ||U_k^(1/2)||_2 against an expectation that scales with the
    covariance; below ||U^(1/2)||_2^2 = 2 (the identity's value at n = 1)
    the threshold shrinks faster than the tail and the stated constant
    fails.  Each _random_spd_cov has a[0] >= 1 and B >= (n + 1/2) I, so
    ||U^(1/2)||_2^2 = 2 |a| tr B >= 3 and the chebyshev battery stays in
    the regime the bound covers.
    """
    return ComplexCovariance(_random_spd_cov(rng, level, n, 1.5, 0.3),
                             _random_spd_cov(rng, level, n, 1.5, 0.3))


def _tiled_ops(grid: TimeGrid, ops: list[RightLinearOp]) -> StepIntegrand:
    return StepIntegrand.from_ops(
        grid, [ops[i % len(ops)] for i in range(grid.steps)])


def isometry_experiment(cfg: RunConfig) -> list[dict]:
    """Second-moment identity and norm bound for the stochastic integral."""
    bat = Battery.on(cfg, cfg.grids[-1])
    grid, span, steps = bat.grid, bat.span, bat.grid.steps
    atol = _tolerances(cfg)["exact"]

    # structural, in one pass: the identity integrand telescopes to the
    # increment, and the elementary integral is additive over windows
    ens_small = bat.paths(_complexified_identity(2, 2), None, 200, 64)
    identity_s = StepIntegrand.constant(grid, RightLinearOp.identity(2, 2))
    rng = fixture_rng(cfg.seed, 50)
    whole = _tiled_ops(grid, [_random_four_block(rng, 2, 2, 2)
                              for _ in range(2)])
    half = steps // 2
    mid = float(grid.points[half])
    left, right = whole.restrict(grid.a, mid), whole.restrict(mid, grid.b)

    def additivity(batch):
        eta = integral_paths(whole, batch.w)
        eta_l = integral_paths(left, batch.w[:, :half + 1])
        eta_r = integral_paths(right, batch.w[:, half:])
        return eta[:, -1], eta_l[:, -1] + eta_r[:, -1]

    def additive_gate(joined):
        end, summed = joined
        # np.max lets a NaN through, so a NaN gap fails the check
        worst = float(np.max(np.abs(end - summed))
                      / np.maximum(1.0, np.max(np.abs(end))))
        return {"passed": worst <= atol, "max_rel_gap": worst}

    rows = [
        _max_gap_row(ens_small, lambda b: integral_paths(identity_s, b.w)
                     - (b.w - b.w[:, :1]), "elementary_telescoping",
                     "Eq. 2.11(2)", 0.0),
        _row(Probe(ens_small, additivity, additive_gate, gather=True),
             "window_additivity", "Prop. 2.20(1)", "max_rel_gap"),
    ]

    # zero mean of the integral at the window end
    ens_cplx = bat.paths(_complexified_identity(2, 1), None, 201,
                         cfg.replicas)
    rows.append(_row(zero_mean_check(_tiled_ops(
        grid, [_random_four_block(rng, 2, 1, 1) for _ in range(3)]),
        ens_cplx), "integral_zero_mean", "Lemma 2.12", "max_abs_mean",
        "max_standard_error", "sample_count"))

    # isometry battery: plain covariance, lri integrands, each on its own
    # ensemble; an anchor also pins the quadrature to the span
    iso_fields = ("lhs", "rhs", "gap", "combined_standard_error",
                  "sample_count")

    def iso_row(name, offset, u, integrand, anchored):
        probe = isometry_check(integrand, bat.paths(u, None, offset,
                                                    cfg.replicas))
        if not anchored:
            return _row(probe, name, "Thm. 2.14(1)", *iso_fields)
        return _project(probe, lambda res: _report(
            name, "Thm. 2.14(1)", res, *iso_fields,
            passed=res["passed"] and abs(res["rhs"] - span) <= atol,
            expected_rhs=span))

    rng_iso = fixture_rng(cfg.seed, 51)
    rows += [
        iso_row("isometry_identity_anchor", 202,
                CovarianceOperator.identity(2, 1), StepIntegrand.constant(
                    grid, RightLinearOp.identity(2, 1)), True),
        iso_row("isometry_unit_direction", 203,
                CovarianceOperator.identity(3, 1), StepIntegrand.constant(
                    grid, RightLinearOp.left_mult(CdReal.unit(3, 1))), True),
        iso_row("isometry_piecewise_lri", 204,
                _random_spd_cov(rng_iso, 1, 2, 1.5, 0.3),
                _tiled_ops(grid, [_random_lri(rng_iso, 1, 2)
                                  for _ in range(2)]), False),
        iso_row("isometry_real_line", 205, CovarianceOperator.simple(
            CdReal.from_real(0, 2.0), np.eye(1)), StepIntegrand.constant(
                grid, RightLinearOp.lri(0, np.array([[[0.8]]]))), False),
        iso_row("isometry_octonion_pair", 206,
                _random_spd_cov(rng_iso, 3, 2, 1.5, 0.3),
                _tiled_ops(grid, [_random_lri(rng_iso, 3, 2)
                                  for _ in range(2)]), False),
    ]

    # adapted per-replica weights through the predictable interface
    base_op = _random_lri(rng_iso, 2, 1)

    def weighted_evaluator(i0, view):
        weights = 1.0 + 0.5 * np.tanh(view[:, i0, 0, 0, 0])
        return [(weights, base_op)]

    rows.append(iso_row("isometry_adapted_weights", 207,
                        CovarianceOperator.identity(2, 1),
                        StepIntegrand.predictable(grid, 2, 1, 1,
                                                  weighted_evaluator), False))

    # bound battery: complexified covariance, four-block integrands
    bound_fields = ("m1", "m2", "m3", "combined_standard_error",
                    "sample_count")
    expect_m2 = 4.0 * span
    rows.append(_project(bound_check(
        StepIntegrand.constant(grid, RightLinearOp.identity(2, 1)), ens_cplx),
        lambda res: _report(
            "bound_identity_anchor", "Prop. 2.22(2)", res, *bound_fields,
            passed=res["passed"] and (abs(res["m2"] - expect_m2) <= atol
                                      and abs(res["m3"] - expect_m2) <= atol),
            expected_m2=expect_m2)))

    rng_bd = fixture_rng(cfg.seed, 52)

    def bound_row(name, offset, level, n, h, tiles):
        """bound_check of a random complexified covariance at (level, n)
        for ``tiles`` random four-block (h, n) operators tiled over the
        grid."""
        ens = bat.paths(_random_complex_cov(rng_bd, level, n), None, offset,
                        cfg.replicas)
        ops = [_random_four_block(rng_bd, level, h, n) for _ in range(tiles)]
        return _row(bound_check(_tiled_ops(grid, ops), ens), name,
                    "Thm. 2.15(1)", *bound_fields)

    rows += [bound_row("bound_random_pair", 208, 2, 2, 2, 2),
             bound_row("bound_octonion", 209, 3, 1, 1, 1),
             bound_row("bound_rectangular", 210, 1, 1, 2, 3)]
    return sweep(rows, cfg.threads)


# ---------------------------------------------------------------- martingale

def martingale_experiment(cfg: RunConfig) -> list[dict]:
    """Conditional-mean tests plus the look-ahead power control."""
    bat = Battery.on(cfg, cfg.grids[-1])
    grid, steps = bat.grid, bat.grid.steps
    t1 = float(grid.points[steps // 4])
    t2 = float(grid.points[(3 * steps) // 4])

    ens = bat.paths(_complexified_identity(2, 1), None, 300, cfg.replicas)
    rng = fixture_rng(cfg.seed, 60)
    piecewise = _tiled_ops(grid, [_random_four_block(rng, 2, 1, 1)
                                  for _ in range(2)])
    mart_fields = ("worst_bin_z", "max_abs_mean", "bins", "sample_count")

    base_op = RightLinearOp.identity(2, 1)

    def adapted_evaluator(i0, view):
        weights = np.tanh(np.sum(view[:, i0], axis=(1, 2, 3)))
        return [(weights, base_op)]

    adapted = StepIntegrand.predictable(grid, 2, 1, 1, adapted_evaluator)
    return sweep([
        _row(martingale_check(piecewise, ens, t1, t2),
             "martingale_piecewise", "Lemma 2.25", *mart_fields),
        _row(martingale_check(adapted, ens, t1, t2),
             "martingale_adapted", "Lemma 2.25", *mart_fields),
        _project(martingale_check(lookahead_control(grid, 2, 1), ens, t1, t2),
                 lambda res: _report("lookahead_control_rejected",
                                     "Lemma 2.25", res, "worst_bin_z",
                                     "sample_count",
                                     passed=(not res["passed"])
                                     and res["worst_bin_z"] > 4.0)),
    ], cfg.threads)


# ----------------------------------------------------------------- chebyshev

def chebyshev_experiment(cfg: RunConfig) -> list[dict]:
    """Tail bounds for the running supremum, plus integral continuity."""
    bat = Battery.on(cfg, cfg.grids[-1])
    grid, span, steps = bat.grid, bat.span, bat.grid.steps
    rows = []

    for index in range(10):
        rng = fixture_rng(cfg.seed, 70 + index)
        level = (1, 2, 3)[index % 3]
        n = 1 if index % 2 else 2
        u = _random_complex_cov(rng, level, n)
        ops = [_random_four_block(rng, level, n, n)
               for _ in range(1 + index % 3)]
        integrand = _tiled_ops(grid, ops)
        mean_hs = float(np.mean([op.hs_norm2() for op in ops]))
        beta = float(rng.uniform(0.9, 2.5))
        alpha = float(rng.uniform(0.4, 1.5)) * span * mean_hs
        ens = bat.paths(u, None, 400 + index, cfg.replicas)
        rows.append(_row(chebyshev_check(integrand, ens, beta, alpha),
                         f"chebyshev_case_{index:02d}", "Lemma 2.26(3)",
                         "beta", "alpha", "empirical", "bound_quadrature",
                         "bound_split", "sample_count", level=level, n=n))

    rng = fixture_rng(cfg.seed, 85)
    ens = bat.paths(_complexified_identity(2, 1), None, 420, cfg.replicas)
    ops = [_random_four_block(rng, 2, 1, 1) for _ in range(2)]
    mean_hs = float(np.mean([op.hs_norm2() for op in ops]))
    halvings = min(5, halving_depth(steps))
    eps = 2.0 * math.sqrt(mean_hs * span)
    rows.append(_project(continuity_check(_tiled_ops(grid, ops), ens, eps,
                                          halvings),
                         lambda res: _report("integral_continuity",
                                             "Thm. 2.27", res, "eps", "tails",
                                             finest_tail=res["tails"][-1])))

    # refinement stability: step integrands built from the running path
    # norm converge as the binding grid refines
    level, n = 2, 1
    base = RightLinearOp.identity(level, n)

    def factory(sub_grid: TimeGrid) -> StepIntegrand:
        def evaluator(i0, view):
            weights = np.sqrt(np.sum(view[:, i0] ** 2, axis=(1, 2, 3)))
            return [(np.tanh(weights), base)]

        return StepIntegrand.predictable(sub_grid, level, n, n, evaluator)

    ens_ref = bat.paths(_complexified_identity(level, n), None, 421,
                        min(cfg.replicas, 20_000))
    rows.append(_row(refinement_study(
        factory, ens_ref, min(3, halving_depth(steps) - 1)),
                     "refinement_stability", "Def. 2.19(1)",
                     "mean_square_gaps", "grid_steps"))
    return sweep(rows, cfg.threads)


# ----------------------------------------------------------------------- sde

def sde_experiment(cfg: RunConfig) -> list[dict]:
    """Picard iteration, scheme agreement, closed form, Markov restart."""
    threads = cfg.threads
    level = 2
    checks = []

    # the strong-order ladder runs on the finest grid, the rest on a base
    # grid of at most 64 steps
    ref = Battery.on(cfg, cfg.grids[-1])
    bat = Battery.on(cfg, sde_base_steps(cfg.grids))
    grid, span = bat.grid, bat.span

    g_op = RightLinearOp.left_mult(CdReal(level, SDE_DRIFT))
    h_op = RightLinearOp.identity(level, 1)
    unit = ZetaSpec.constant(CdVector.embedded_real(level, [1.0]))
    u = _complexified_identity(level, 1)

    linear = linear_problem(g_op, h_op, unit, 1)
    pure_noise = linear_problem(None, h_op, unit, 1)

    res = lipschitz_validate(linear, grid, 4096, cfg.seed)
    checks.append(_report("lipschitz_linear", "Thm. 2.29(i)", res,
                          "max_lipschitz_ratio", "max_growth_ratio",
                          k_declared=res["k"]))

    def g_quad(t, y):
        return np.sign(y) * y * y

    quad = SdeProblem(g_quad, h_op, unit, 1.0, 1)
    res = lipschitz_validate(quad, grid, 4096, cfg.seed)
    checks.append(_report("lipschitz_quadratic_rejected", "Thm. 2.29(i)", res,
                          "max_lipschitz_ratio", passed=not res["passed"]))

    ens_picard = bat.paths(u, None, 500, min(cfg.replicas, 4096))
    picard = picard_solve(linear, ens_picard, threads=threads)
    distances = picard.diagnostics["distances"]
    checks.append(_report("picard_factorial_decay", "Thm. 2.29 proof",
                          picard_decay_check(distances,
                                             2.0 * linear.k_const + 2.0, span),
                          "distances", iterations=len(distances)))

    ens_uni = bat.paths(u, None, 501, min(cfg.replicas, 2048))
    rows = [
        _project(picard_em_gap(linear, ens_picard, picard),
                 lambda gap: _check("picard_em_agreement", "Thm. 2.29 proof",
                                    gap <= 1e-6, b2inf_gap=gap)),
        _row(uniqueness_study(linear, ens_uni, uniqueness_halvings(cfg.grids)),
             "uniqueness_gap_vanishes", "Thm. 2.29 proof", "b2inf_gaps",
             "grid_steps"),
    ]

    # closed-form anchors on one sweep: semigroup absent, then noise absent
    ens_noise = bat.paths(u, None, 502, min(cfg.replicas, 2048))
    noise = linear_closed_form(pure_noise, ens_noise)
    drift = linear_closed_form(linear_problem(g_op, None, unit, 1), ens_noise)

    def noise_gap(batch):
        w = batch.w.reshape(batch.count, len(grid), -1)
        return noise.sample(batch)[0] - (unit.value + (w - w[:, :1]))

    idxs = [0, len(grid) // 2, len(grid) - 1]
    orbit = np.stack([op_exp_left(g_op, float(grid.points[idx] - grid.a))
                      @ unit.value for idx in idxs])
    rows += [
        _max_gap_row(ens_noise, noise_gap, "closed_form_pure_noise",
                     "Cor. 2.30(2)", 1e-12, "max_gap"),
        _max_gap_row(ens_noise, lambda b: drift.sample(b)[0][:, idxs] - orbit,
                     "closed_form_pure_drift", "Cor. 2.30(2)", 1e-10,
                     "max_gap"),
    ]

    ens_order = ref.paths(u, None, 503, cfg.replicas)
    # additive noise: the forward scheme coincides with Milstein's and
    # has strong order 1 (Kloeden & Platen 1992, 10.2-10.3)
    expected_order = 1.0
    window = [expected_order - 0.15, expected_order + 0.15]
    rows.append(_project(
        strong_order_study(linear, ens_order,
                           strong_order_halvings(cfg.grids)),
        lambda res: _report("strong_order_window", "Cor. 2.30(2)", res,
                            "slope", "table",
                            passed=window[0] <= res["slope"] <= window[1],
                            expected_order=expected_order, window=window)))

    # restart battery on one ensemble: linear, driftless, and a contracting
    # drift with a bounded state-dependent diffusion gain
    def g_contract(t, y):
        return -y

    def h_gain(t, y):
        return [(np.tanh(y[:, 0]), h_op)]

    t_mid = float(grid.points[grid.steps // 2])
    z = CdVector.embedded_real(level, [0.7])
    n_long = max(2000, min(cfg.replicas, 20_000))
    ens = bat.paths(u, None, 504, n_long)
    for name, problem in (
            ("restart_linear", linear),
            ("restart_pure_noise", pure_noise),
            ("restart_nonlinear",
             SdeProblem(g_contract, h_gain, ZetaSpec.gaussian(level, 1, 0.5),
                        4.0, 1))):
        rows.append(_row(restart_markov_check(problem, ens, t_mid, z),
                         name, "Thm. 2.31 proof", "max_pathwise_deviation",
                         "ks_min_pvalue", "ks_threshold"))

    rows.append(_row(gronwall_bound(linear, bat.paths(u, None, 505, n_long)),
                     "gronwall_bound", "Thm. 2.29 proof", "sup_mean_norm2",
                     "bound"))

    # the blow-up rate scales with 1 / span, so its growth over the window,
    # and its crossing of the divergence limit, is the same on any window
    def g_blowup(t, y):
        return (1e8 / span) * y

    def guard(sol):
        aborted = sol.diagnostics.get("aborted_replicas", 0)
        final_nan = bool(np.all(np.isnan(sol.values[:, -1])))
        return _check("divergence_guard", "Def. 2.28(5)",
                      aborted == 8 and final_nan, aborted_replicas=aborted)

    blowup = SdeProblem(g_blowup, h_op, unit, 1.0, 1)
    rows.append(_project(euler_maruyama(blowup, bat.paths(u, None, 506, 8)),
                         guard))
    return checks + sweep(rows, threads)


# ------------------------------------------------------------------ registry

EXPERIMENTS = (
    ("algebra", algebra_experiment),
    ("linops", linops_experiment),
    ("paths", paths_experiment),
    ("isometry", isometry_experiment),
    ("martingale", martingale_experiment),
    ("chebyshev", chebyshev_experiment),
    ("sde", sde_experiment),
)


def run_experiments(cfg: RunConfig) -> list[dict]:
    """The report entry of each selected battery, in registry order: its
    name from EXPERIMENTS, its checks, their conjunction as its verdict,
    and the wall time of the battery call."""
    selected = cfg.experiments or EXPERIMENT_CHOICES
    out = []
    for name, battery in EXPERIMENTS:
        if name in selected:
            started = time.perf_counter()
            checks = battery(cfg)
            out.append({"name": name, "checks": checks,
                        "passed": bool(all(c["passed"] for c in checks)),
                        "wall_time_s": time.perf_counter() - started})
    return out
