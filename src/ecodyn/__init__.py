"""ecodyn: a numerical laboratory for macroeconomic dynamics models.

Growth and business-cycle models in dimensional form with their
diagnostics (stock/flow dimension audits, time-scale-invariance checks,
discrete/continuous adequacy residuals), the input-output balance with
its dynamic reductions, and second-kind integral-equation machinery with
spectra and parameter sweeps.

Only ``errors`` is imported with the package.  Every other public name
is resolved on first use from the submodule that defines it (PEP 562
``__getattr__``), so ``import ecodyn`` loads no numpy and a command
loads only the models it runs.  The names are looked up again on every
access, never stored on the package: code that patches a submodule's
attribute is seen at once through ``ecodyn.<name>``.
"""

import importlib

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
    ValidationError,
)

__version__ = "0.1.0"

# public names of each lazily loaded submodule, in __all__ order
_LAZY = {
    "dims": (
        "Dimension", "DimExpr", "ConsistencyReport", "check_relation", "parse_relation",
        "var", "MONEY", "TIME", "DIMENSIONLESS", "FLOW",
    ),
    "odelin": (
        "OdeSpec", "TimeGrid", "Trajectory",
        "quadratic_roots", "linear_flow",
    ),
    "harrod": (
        "HarrodParams", "DiscretePath", "AdequacyResidual",
        "CorrectedHarrodResult", "classical_trajectory", "corrected_trajectory",
        "discrete_path", "adequacy_residual",
    ),
    "allen": (
        "AllenScaling", "PhillipsParams", "PhillipsSolution", "BergstromResult",
        "ScaleInvarianceReport", "harrod_domar_trajectory", "phillips_solve",
        "phillips_system_residuals", "phillips_capital_roots",
        "bergstrom_capital_solve", "multiplier_trajectory", "scale_invariance_check",
    ),
    "longwave": (
        "LongWaveParams", "CycleReport", "lw_matrix", "lw_classify", "lw_simulate",
        "zero_crossing_period",
    ),
    "leontief": (
        "LeontiefModel", "MetzlerReport", "IterationLog", "TaylorReduction",
        "metzler_check", "static_solve", "taylor_reduce", "dynamic_solve",
        "volterra_solve",
    ),
    "fredholm": (
        "KernelSpec", "QuadratureRule", "NystromDiscretization", "SpectralReport",
        "SweepReport", "VolterraReduction", "FredholmReduction",
        "simpson_rule", "nystrom_solve", "char_numbers",
        "param_singularity_sweep",
        "degenerate_residual", "ode_to_integral",
        "kernel_t_plus_eta", "kernel_exp_diff", "kernel_zero", "kernel_degenerate",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "__version__",
    *_HOME,
    "EcodynError", "ValidationError", "StructuralError", "DegenerateDataError",
    "NumericalError", "PoleError", "BlowUpError", "NonConvergenceError",
    "SingularMatrixError", "SpectrumProximityError", "ResolutionError", "CrossCheckError",
]


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _LAZY:
        # importing a submodule binds it on the package as well
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
