"""The package's lazy name resolution and what each command loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecodyn
from ecodyn import allen, dims, errors, fredholm, harrod, leontief, longwave, odelin

SUBMODULES = (dims, odelin, harrod, allen, longwave, leontief, fredholm, errors)

# ecodyn.__all__, written out independently of the package
PUBLIC = {
    "__version__",
    "Dimension", "DimExpr", "ConsistencyReport", "check_relation", "parse_relation", "var",
    "MONEY", "TIME", "DIMENSIONLESS", "FLOW",
    "OdeSpec", "TimeGrid", "Trajectory",
    "quadratic_roots", "linear_flow",
    "HarrodParams", "DiscretePath", "AdequacyResidual",
    "CorrectedHarrodResult", "classical_trajectory", "corrected_trajectory",
    "discrete_path", "adequacy_residual",
    "AllenScaling", "PhillipsParams", "PhillipsSolution", "BergstromResult",
    "ScaleInvarianceReport", "harrod_domar_trajectory", "phillips_solve",
    "phillips_system_residuals", "phillips_capital_roots",
    "bergstrom_capital_solve", "multiplier_trajectory", "scale_invariance_check",
    "LongWaveParams", "CycleReport", "lw_matrix", "lw_classify", "lw_simulate",
    "zero_crossing_period",
    "LeontiefModel", "MetzlerReport", "IterationLog", "TaylorReduction",
    "metzler_check", "static_solve", "taylor_reduce", "dynamic_solve",
    "volterra_solve",
    "KernelSpec", "QuadratureRule", "NystromDiscretization", "SpectralReport",
    "SweepReport", "VolterraReduction", "FredholmReduction",
    "simpson_rule", "nystrom_solve", "char_numbers",
    "param_singularity_sweep",
    "degenerate_residual", "ode_to_integral",
    "kernel_t_plus_eta", "kernel_exp_diff", "kernel_zero", "kernel_degenerate",
    "EcodynError", "ValidationError", "StructuralError", "DegenerateDataError",
    "NumericalError", "PoleError", "BlowUpError", "NonConvergenceError",
    "SingularMatrixError", "SpectrumProximityError", "ResolutionError", "CrossCheckError",
}


class TestNames:
    def test_all_is_unchanged(self):
        assert len(ecodyn.__all__) == len(PUBLIC)
        assert set(ecodyn.__all__) == PUBLIC

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from ecodyn import *", namespace)
        assert set(namespace) - {"__builtins__"} == PUBLIC

    @pytest.mark.parametrize("name", sorted(PUBLIC - {"__version__"}))
    def test_name_is_the_submodules_object(self, name):
        homes = [mod for mod in SUBMODULES if name in vars(mod)]
        assert homes
        for mod in homes:
            assert getattr(ecodyn, name) is vars(mod)[name]

    def test_names_are_not_cached_on_the_package(self, monkeypatch):
        assert ecodyn.nystrom_solve is fredholm.nystrom_solve
        assert "nystrom_solve" not in vars(ecodyn)

        def patched(*args):
            return "patched"

        monkeypatch.setattr(fredholm, "nystrom_solve", patched)
        assert ecodyn.nystrom_solve is patched

    def test_submodules_and_dir(self):
        assert ecodyn.fredholm is fredholm and ecodyn.errors is errors
        assert PUBLIC <= set(dir(ecodyn))
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            ecodyn.no_such_name  # noqa: B018


# public names that no module of the package reaches yet: the paper's
# diagnostics, which await a command to serve, and the dimension constant
# FLOW, which the audit forms from its atoms "$" and "s"
UNREACHED = {
    "adequacy_residual", "phillips_system_residuals", "phillips_capital_roots",
    "degenerate_residual", "zero_crossing_period", "FLOW",
}


def reached_names() -> set[str]:
    """Identifiers and string constants of the package's modules other than
    ``__init__``, each top-level definition's own name left out of its body."""
    reached = set()
    for path in Path(ecodyn.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = getattr(top, "targets", [getattr(top, "target", None)])
            own = {getattr(top, "name", None), *(getattr(t, "id", None) for t in targets)}
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
            reached |= names - own
    return reached


def test_every_public_name_is_reached_by_the_package():
    # a public name that no command or model reaches goes from __all__, or
    # onto UNREACHED until a command serves it
    unreached = set(ecodyn.__all__) - reached_names()
    assert unreached == UNREACHED


GOLDEN = Path(__file__).parent / "golden"
MATRIX = str(GOLDEN / "leontief_matrix.txt")
LEONTIEF = ["--matrix", MATRIX, "--demand", "0.5,0.3,0.2", "--x0", "1,1,1", "--steps", "4"]
HARROD = {"harrod"}
ALLEN = {"allen", "harrod"}  # allen shares harrod's cross-check
# command and flags -> the model modules it may load, besides errors and odelin
LOADS = [
    (["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "1", "--steps", "4"], HARROD),
    (["harrod-corrected", "--mu", "0.3", "--nu-star", "2.5", "--t-end", "1", "--steps", "4"],
     HARROD),
    (["harrod-discrete", "--mu", "0.3", "--nu", "2.5", "--years", "3"], HARROD),
    (["harrod-domar", "--mu", "0.3", "--nu", "2.5", "--t0", "2", "--t-end", "1", "--steps", "4"],
     ALLEN),
    (["phillips", "--kappa", "1.3", "--nu", "0.8", "--mu", "0.4", "--lam", "1.1",
      "--t-end", "1", "--steps", "4"], ALLEN),
    (["bergstrom", "--mu", "0.4", "--nu", "0.8", "--gamma", "0.5", "--lam", "1.1",
      "--t-end", "1", "--steps", "4"], ALLEN),
    (["multiplier", "--mu", "0.4", "--lam", "1.1", "--t-end", "1", "--steps", "4"], ALLEN),
    (["scale-check", "--model", "multiplier", "--t0-a", "1", "--t0-b", "2", "--mu", "0.4",
      "--lam", "1.1", "--t-end", "1", "--steps", "4"], ALLEN),
    (["longwave", "--p", "0.11", "--r", "0.11", "--t-end", "1", "--steps", "4"], {"longwave"}),
    (["leontief-static", "--matrix", MATRIX, "--demand", "0.5,0.3,0.2", "--method", "iterate"],
     {"leontief"}),
    (["leontief-dynamic", *LEONTIEF], {"leontief"}),
    (["leontief-volterra", *LEONTIEF, "--xdot0", "0,0.1,0"], {"leontief"}),
    (["fredholm-solve", "--kernel", "exp-diff", "--lam", "0.5", "--nodes", "5"], {"fredholm"}),
    (["fredholm-spectrum", "--kernel", "t-plus-eta", "--nodes", "5"], {"fredholm"}),
    (["fredholm-sweep", "--k0", "zero", "--k1", "exp-diff", "--mu-min", "0", "--mu-max", "1",
      "--mu-count", "3", "--nodes", "5"], {"fredholm"}),
    (["dim-check", "--relation", "Y = C", "--dims", "Y:$/s,C:$/s"], {"dims"}),
]

# `python -m ecodyn.cli <argv>`, then the ecodyn modules loaded and numpy's presence;
# the run's closing os._exit is turned into the SystemExit of a normal exit
RUN_AS_MAIN = """
import os, runpy, sys
def exit_normally(status):
    raise SystemExit(status)
os._exit = exit_normally
sys.argv[0] = "ecodyn"
try:
    runpy.run_module("ecodyn.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    rc = exc.code
print(rc, sorted(m for m in sys.modules if m.startswith("ecodyn.")), file=sys.stderr)
"""


def fresh(*args) -> str:
    src = str(Path(ecodyn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("ECODYN_DEFAULT_STEPS", None)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()[-1] if proc.stderr else proc.stdout.strip()


def test_import_ecodyn_loads_no_numpy_and_no_model():
    loaded = fresh("-c", "import sys, ecodyn; print(sorted(m for m in sys.modules "
                         "if m.startswith(('ecodyn', 'numpy'))))")
    assert loaded == "['ecodyn', 'ecodyn.errors']"


@pytest.mark.parametrize("argv, models", LOADS, ids=lambda x: x[0] if isinstance(x, list) else "")
def test_command_loads_only_its_models(argv, models):
    expected = sorted(f"ecodyn.{m}" for m in {"errors", "odelin", *models})
    assert fresh("-c", RUN_AS_MAIN, *argv) == f"0 {expected}"


@pytest.mark.parametrize("fmt, loaded", [("csv", False), ("json", True)])
def test_only_a_json_run_loads_json(fmt, loaded):
    # the JSON writer imports json's string encoder itself
    script = RUN_AS_MAIN + 'print("json" in sys.modules, file=sys.stderr)\n'
    assert fresh("-c", script, *LOADS[0][0], "--format", fmt) == str(loaded)
