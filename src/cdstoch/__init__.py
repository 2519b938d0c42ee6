"""Stochastic calculus over complexified Cayley-Dickson algebras.

Layers, bottom up: ``algebra`` (doubled real algebras and their
complexifications), ``linops`` (right-linear operators, covariance
operators, functionals), ``paths`` (driving random functions on a time
grid), ``integrals`` (elementary and predictable stochastic integrals
with moment checks), ``sde`` (Picard and Euler-Maruyama solvers), and
``experiments``/``cli`` (verification batteries and the ``cdstoch``
command).
"""

__version__ = "0.1.0"

# numpy imports numpy.ma on the first np.quantile or np.unique call (the
# martingale bins, the sde step sizes).  Importing it with the package
# keeps that cost in a run's set-up, out of the first battery's time.
import numpy.ma  # noqa: F401

from .algebra import (
    AlgebraError,
    CdComplex,
    CdReal,
    NegativeRealNoCanonicalRoot,
    NilpotentNoRoot,
    cd_conj,
    cd_exp,
    cd_mul,
    cd_sqrt,
    cdc_inner,
    cdc_mul,
    cdc_norm2,
    cdc_sqrt,
    find_zero_divisor,
)
from .config import EXPERIMENT_CHOICES, ConfigError, RunConfig, load_config
from .experiments import run_experiments
from .integrals import (
    StepIntegrand,
    bound_check,
    chebyshev_check,
    isometry_check,
    martingale_check,
)
from .linops import (
    CdVector,
    ComplexCovariance,
    CovarianceOperator,
    RealFunctional,
    RightLinearOp,
    f_functional,
    op_norm,
    spd_sqrt,
    vec_size,
)
from .paths import PathEnsemble, TimeGrid, sweep
from .report import (make_report, render_json, strip_timing, write_outputs,
                     write_paths_csv)
from .sde import (
    SdeProblem,
    ZetaSpec,
    euler_maruyama,
    gronwall_check,
    linear_closed_form,
    linear_problem,
    picard_solve,
    strong_order_study,
)

__all__ = [
    "AlgebraError",
    "CdReal",
    "CdComplex",
    "NegativeRealNoCanonicalRoot",
    "NilpotentNoRoot",
    "cd_mul",
    "cd_conj",
    "cd_sqrt",
    "cd_exp",
    "cdc_mul",
    "cdc_norm2",
    "cdc_sqrt",
    "cdc_inner",
    "find_zero_divisor",
    "CdVector",
    "RealFunctional",
    "RightLinearOp",
    "CovarianceOperator",
    "ComplexCovariance",
    "vec_size",
    "op_norm",
    "spd_sqrt",
    "f_functional",
    "TimeGrid",
    "PathEnsemble",
    "sweep",
    "write_paths_csv",
    "StepIntegrand",
    "isometry_check",
    "bound_check",
    "martingale_check",
    "chebyshev_check",
    "SdeProblem",
    "ZetaSpec",
    "linear_problem",
    "euler_maruyama",
    "picard_solve",
    "linear_closed_form",
    "strong_order_study",
    "gronwall_check",
    "ConfigError",
    "RunConfig",
    "load_config",
    "EXPERIMENT_CHOICES",
    "run_experiments",
    "make_report",
    "render_json",
    "strip_timing",
    "write_outputs",
    "__version__",
]
