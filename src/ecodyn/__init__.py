"""ecodyn: a numerical laboratory for macroeconomic dynamics models.

Growth and business-cycle models in dimensional form with their
diagnostics (stock/flow dimension audits, time-scale-invariance checks,
discrete/continuous adequacy residuals), the input-output balance with
its dynamic reductions, and second-kind integral-equation machinery with
spectra, resolvents and parameter sweeps.
"""

from .dims import (
    DIMENSIONLESS,
    FLOW,
    MONEY,
    TIME,
    ConsistencyReport,
    DimExpr,
    Dimension,
    check_relation,
    var,
)
from .errors import (
    BlowUpError,
    CrossCheckError,
    DegenerateDataError,
    EcodynError,
    NonConvergenceError,
    NumericalError,
    PoleError,
    ResolutionError,
    SingularMatrixError,
    SpectrumProximityError,
    StructuralError,
    UnsupportedError,
    ValidationError,
)
from .odelin import (
    OdeSpec,
    TimeGrid,
    Trajectory,
    analytic_solution,
    char_roots,
    rk4_integrate,
    rk4_linear,
)
from .harrod import (
    AdequacyResidual,
    CorrectedHarrodResult,
    DiscretePath,
    FlowDecomposition,
    HarrodParams,
    adequacy_residual,
    classical_trajectory,
    corrected_trajectory,
    discrete_path,
)
from .allen import (
    AllenScaling,
    BergstromResult,
    PhillipsParams,
    PhillipsSolution,
    ScaleInvarianceReport,
    bergstrom_capital_solve,
    harrod_domar_trajectory,
    multiplier_trajectory,
    phillips_capital_roots,
    phillips_solve,
    phillips_system_residuals,
    scale_invariance_check,
)
from .longwave import (
    CycleReport,
    LongWaveParams,
    lw_classify,
    lw_matrix,
    lw_simulate,
    zero_crossing_period,
)
from .leontief import (
    DemandScaleReport,
    IterationLog,
    LeontiefModel,
    MetzlerReport,
    TaylorReduction,
    demand_scale,
    dynamic_solve,
    metzler_check,
    static_solve,
    taylor_reduce,
    volterra_solve,
)
from .fredholm import (
    FredholmReduction,
    KernelSpec,
    NystromDiscretization,
    QuadratureRule,
    SpectralReport,
    SweepReport,
    VolterraReduction,
    char_numbers,
    degenerate_residual,
    gauss_legendre_rule,
    kernel_degenerate,
    kernel_exp_diff,
    kernel_t_plus_eta,
    kernel_zero,
    nystrom_solve,
    ode_to_integral,
    param_singularity_sweep,
    resolvent,
    resolvent_apply,
    simpson_rule,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dims
    "Dimension", "DimExpr", "ConsistencyReport", "check_relation", "var",
    "MONEY", "TIME", "DIMENSIONLESS", "FLOW",
    # odelin
    "OdeSpec", "TimeGrid", "Trajectory",
    "char_roots", "analytic_solution", "rk4_integrate", "rk4_linear",
    # harrod
    "HarrodParams", "FlowDecomposition", "DiscretePath", "AdequacyResidual",
    "CorrectedHarrodResult", "classical_trajectory", "corrected_trajectory",
    "discrete_path", "adequacy_residual",
    # allen
    "AllenScaling", "PhillipsParams", "PhillipsSolution", "BergstromResult",
    "ScaleInvarianceReport", "harrod_domar_trajectory", "phillips_solve",
    "phillips_system_residuals", "phillips_capital_roots",
    "bergstrom_capital_solve", "multiplier_trajectory", "scale_invariance_check",
    # longwave
    "LongWaveParams", "CycleReport", "lw_matrix", "lw_classify", "lw_simulate",
    "zero_crossing_period",
    # leontief
    "LeontiefModel", "MetzlerReport", "IterationLog", "TaylorReduction",
    "DemandScaleReport", "metzler_check", "static_solve", "taylor_reduce",
    "dynamic_solve", "volterra_solve", "demand_scale",
    # fredholm
    "KernelSpec", "QuadratureRule", "NystromDiscretization", "SpectralReport",
    "SweepReport", "VolterraReduction", "FredholmReduction",
    "simpson_rule", "gauss_legendre_rule", "nystrom_solve", "resolvent",
    "resolvent_apply", "char_numbers", "param_singularity_sweep",
    "degenerate_residual", "ode_to_integral",
    "kernel_t_plus_eta", "kernel_exp_diff", "kernel_zero", "kernel_degenerate",
    # errors
    "EcodynError", "ValidationError", "StructuralError", "UnsupportedError",
    "DegenerateDataError", "NumericalError", "PoleError", "BlowUpError",
    "NonConvergenceError", "SingularMatrixError", "SpectrumProximityError",
    "ResolutionError", "CrossCheckError",
]
