"""Batch front end: run any model or solver from flags or a scenario
file and emit trajectories and reports as CSV or JSON.

Exit codes: 0 success, 2 validation error (the message names the
offending key), 3 numerical failure (pole, blow-up, non-convergence,
spectrum proximity) with the originating module's message verbatim, or a
run too large for the memory at hand.  The console script exits 1,
silently, when its stdout is closed before the output is written (the
reader of a pipe quit, as `head` does).
Output is rendered and written a block of rows at a time, so a long
trajectory is never held whole as text.  --out stays atomic: the blocks
go to a temporary file beside the target, which is renamed into place
once complete, so a failed run never leaves a partial file behind.  A
run that fails before rendering writes nothing to stdout.

Every float cell, CSV or JSON, is the bytes of its ``repr``: the shortest
string that reads back as the same float.  JSON writes a value that is not
finite as ``null``; CSV writes ``nan``, ``inf`` or ``-inf``.  The float
cells of a block are rendered together by array arithmetic
(``_repr_cells``): a fast path that certifies each cell, and ``repr``
itself for the few it cannot certify (subnormal and non-finite values, and
cells whose digits a rounding error could change), so no byte depends on
the path a cell took.

Process rules of a command-line run (``python -m ecodyn.cli`` or the
``ecodyn`` console script): the cyclic garbage collector is off, since a
short run frees its memory by ending; and once stdout and stderr are
flushed the process ends with ``os._exit``, without interpreter teardown.
So ``atexit`` handlers registered by others do not run.  A traced or
profiled process (``sys.settrace``, ``sys.setprofile`` or a
``sys.monitoring`` tool, as coverage and cProfile use) exits normally, so
that its data is written.  ``run()`` is unaffected: called in process, it
leaves the collector and the exit to its caller.
"""

from __future__ import annotations

import argparse
import bisect
import errno
import functools
import gc
import itertools
import json
import math
import os
import stat
import sys
import tempfile
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if __name__ == "__main__":
    gc.disable()  # before numpy's import, whose object graph it would traverse

import numpy as np

from . import __version__
from .errors import (
    EcodynError,
    NumericalError,
    ValidationError,
    _require,
    _require_array_length,
    _require_finite_result,
)
from .odelin import OdeSpec, TimeGrid, Trajectory

# Each handler imports the model module it calls, so a run loads only its
# own command's models; these imports serve the annotations alone.
if TYPE_CHECKING:
    from . import fredholm, harrod, leontief

DEFAULT_STEPS_FALLBACK = 1000
ENV_DEFAULT_STEPS = "ECODYN_DEFAULT_STEPS"


# ---------------------------------------------------------------------------
# Command schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Param:
    name: str  # flag name, dashed
    kind: str  # "float" | "int" | "str"
    required: bool = False
    default: object = None
    choices: tuple[str, ...] | None = None
    help: str = ""


_CONVERTERS: dict[str, Callable] = {"float": float, "int": int, "str": str}


@dataclass(frozen=True)
class Command:
    name: str
    params: tuple[Param, ...]
    handler: Callable[[argparse.Namespace], "Output"]
    default_format: str = "csv"
    formats: tuple[str, ...] = ("csv", "json")
    help: str = ""


@dataclass
class Output:
    command: str
    params: dict
    # CSV table as named 1-D columns, float or int; None => csv unsupported
    columns: dict[str, np.ndarray] | None = None
    data: dict | None = None  # JSON "data" payload; may share the column arrays


def _default_steps(value, fallback: int = DEFAULT_STEPS_FALLBACK) -> int:
    if value is not None:
        _require("positive", steps=value)
        return int(value)
    raw = os.environ.get(ENV_DEFAULT_STEPS)
    if raw is None:
        return fallback
    try:
        steps = int(raw)
    except ValueError:
        steps = 0
    if steps < 1:
        raise ValidationError(
            f"{ENV_DEFAULT_STEPS} must be a positive integer, got {raw!r}",
            key=ENV_DEFAULT_STEPS,
        )
    return steps


def _grid(ns) -> TimeGrid:
    return TimeGrid(0.0, ns.t_end, _default_steps(ns.steps))


def _vector(text: str, key: str) -> np.ndarray:
    try:
        vec = np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ValidationError(f"{key} must be comma-separated numbers, got {text!r}", key=key) from None
    if not np.isfinite(vec).all():
        raise ValidationError(f"{key} must be finite, got {text!r}", key=key)
    return vec


def _trajectory_output(command: str, params: dict, traj: Trajectory, report: dict | None = None) -> Output:
    columns = {"t": traj.times}
    for j, label in enumerate(traj.labels):
        columns[label] = traj.values[:, j]
    data: dict = {"columns": columns}
    if report is not None:
        data["report"] = report
    return Output(command, params, columns, data)


# ---------------------------------------------------------------------------
# Trajectory commands
# ---------------------------------------------------------------------------

def _harrod_params(ns, **fields) -> harrod.HarrodParams:
    """HarrodParams of a command whose --nu also serves as nu_star; a bad
    --nu is reported under its own flag."""
    from . import harrod

    _require("positive", nu=ns.nu)
    return harrod.HarrodParams(mu=ns.mu, nu_star=ns.nu, **fields)


def _cmd_harrod(ns) -> Output:
    from . import harrod

    params = _harrod_params(ns, Y0=ns.y0, K0=ns.k0)
    traj = harrod.classical_trajectory(params, ns.nu, _grid(ns))
    return _trajectory_output("harrod", _ns_params(ns), traj)


def _cmd_harrod_corrected(ns) -> Output:
    from . import harrod

    params = harrod.HarrodParams(mu=ns.mu, nu_star=ns.nu_star, Y0=ns.y0)
    result = harrod.corrected_trajectory(params, _grid(ns))
    report = {
        "blowup_time": result.blowup_time,
        "forecast_horizon": result.forecast_horizon,
    }
    return _trajectory_output("harrod-corrected", _ns_params(ns), result.trajectory, report)


def _cmd_harrod_discrete(ns) -> Output:
    from . import harrod

    params = _harrod_params(ns, K0=ns.k0)
    path = harrod.discrete_path(params, ns.nu, ns.years)
    # year 0 has no jump; year i has the impulse K_i - K_{i-1}, the data form
    # of the distributional derivative of the piecewise-constant capital
    impulse = np.concatenate(([0.0], np.diff(path.K)))
    columns = {
        "year": path.years,
        "K": path.K,
        "Y_tilde": path.Y_tilde,
        "I_tilde": path.I_tilde,
        "impulse": impulse,
    }
    data = {
        "years": path.years,
        "K": path.K,
        "Y_tilde": path.Y_tilde,
        "I_tilde": path.I_tilde,
        "impulses": tuple(zip(path.years[1:].tolist(), impulse[1:].tolist())),
    }
    return Output("harrod-discrete", _ns_params(ns), columns, data)


def _cmd_harrod_domar(ns) -> Output:
    from . import allen

    scaling = allen.AllenScaling(t0=ns.t0, Y0=ns.y0)
    traj = allen.harrod_domar_trajectory(scaling, ns.mu, ns.nu, _grid(ns))
    return _trajectory_output("harrod-domar", _ns_params(ns), traj)


def _cmd_phillips(ns) -> Output:
    from . import allen

    params = allen.PhillipsParams(kappa=ns.kappa, nu=ns.nu, mu=ns.mu, lam=ns.lam)
    scaling = allen.AllenScaling(t0=ns.t0, t_star=ns.t_star)
    sol = allen.phillips_solve(params, scaling, (ns.y0, ns.ydot0), _grid(ns))
    report = {
        "roots": sol.roots,
        "period_t_hat": sol.period_t_hat,
        "a": sol.a,
        "b": sol.b,
        "a1": params.a1,
        "b1": params.b1,
    }
    return _trajectory_output("phillips", _ns_params(ns), sol.trajectory, report)


def _cmd_bergstrom(ns) -> Output:
    from . import allen

    result = allen.bergstrom_capital_solve(
        ns.mu, ns.nu, ns.gamma, ns.lam, (ns.k0, ns.kdot0), _grid(ns)
    )
    report = {
        "roots": result.roots,
        "damping": result.damping,
        "stiffness": result.stiffness,
        "kappa_equivalent": result.kappa_equivalent,
    }
    return _trajectory_output("bergstrom", _ns_params(ns), result.trajectory, report)


def _cmd_multiplier(ns) -> Output:
    from . import allen

    traj = allen.multiplier_trajectory(ns.mu, ns.lam, ns.y0, _grid(ns))
    return _trajectory_output("multiplier", _ns_params(ns), traj)


def _cmd_longwave(ns) -> Output:
    from . import longwave

    params = longwave.LongWaveParams(p=ns.p, r=ns.r, q=ns.q, s=ns.s)
    cycle = longwave.lw_classify(params)
    traj = longwave.lw_simulate(params, ns.x0, ns.y0, _grid(ns))
    report = {
        "regime": cycle.regime,
        "period_years": cycle.period_years,
        "eigenvalues": cycle.eigenvalues,
    }
    return _trajectory_output("longwave", _ns_params(ns), traj, report)


# ---------------------------------------------------------------------------
# Leontief commands
# ---------------------------------------------------------------------------

def _read_matrix(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read matrix file {path!r}: {exc}", key="matrix") from None
    if not lines:
        raise ValidationError(f"matrix file {path!r} is empty", key="matrix")
    try:
        n = int(lines[0])
    except ValueError:
        n = 0
    if n < 1:
        raise ValidationError(
            f"matrix file {path!r} must start with the dimension n >= 1", key="matrix"
        )
    if len(lines) != n + 1:
        raise ValidationError(
            f"matrix file {path!r} needs {n} coefficient rows, got {len(lines) - 1}",
            key="matrix",
        )
    rows = []
    for ln in lines[1 : n + 1]:
        row = _vector(ln, "matrix")
        if len(row) != n:
            raise ValidationError(f"matrix row {ln!r} must have {n} entries", key="matrix")
        rows.append(row)
    return np.vstack(rows)


def _demand_from_flags(ns, n: int, steps: int):
    given = [flag for flag in ("demand", "demand_file") if getattr(ns, flag, None)]
    if len(given) != 1:
        raise ValidationError("provide exactly one of demand / demand-file", key="demand")
    if ns.demand:
        return _vector(ns.demand, "demand")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file fails the shape check
            table = np.loadtxt(ns.demand_file, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:  # ValueError: a cell that is no number, ragged rows
        raise ValidationError(f"cannot read demand file: {exc}", key="demand-file") from None
    if not np.isfinite(table).all():
        raise ValidationError("demand file must hold finite values", key="demand-file")
    if table.shape != (steps + 1, n):
        raise ValidationError(
            f"demand file must have {steps + 1} rows of {n} values "
            f"(grid-aligned), got shape {table.shape}",
            key="demand-file",
        )
    return _row_sampler(TimeGrid(0.0, 1.0, steps).nodes, table)


def _row_sampler(t_nodes: np.ndarray, table: np.ndarray) -> Callable[[float], np.ndarray]:
    """Piecewise-linear sampler of the rows of the finite ``table`` at
    ``t_nodes`` (strictly increasing), equal to ``np.interp`` on every
    column: one bracket search, then np.interp's own formula across the row."""
    nodes = t_nodes.tolist()
    with np.errstate(over="ignore"):  # an infinite slope interpolates as in np.interp
        slopes = np.diff(table, axis=0) / np.diff(t_nodes)[:, None]

    def sampler(t: float) -> np.ndarray:
        if t <= nodes[0]:
            return table[0].copy()
        if t >= nodes[-1]:
            return table[-1].copy()
        j = bisect.bisect_right(nodes, t) - 1
        if nodes[j] == t:
            return table[j].copy()
        return slopes[j] * (t - nodes[j]) + table[j]

    return sampler


def _cmd_leontief_static(ns) -> Output:
    from . import leontief

    A = _read_matrix(ns.matrix)
    c = _vector(ns.demand, "demand")
    X, log = leontief.static_solve(A, c, method=ns.method, tol=ns.tol, max_iter=ns.max_iter)
    columns = {"component": np.arange(1, len(X) + 1), "x": X}
    data = {
        "X": X,
        "method": ns.method,
        "iterations": log.iterates if log else None,
        "residual_history": log.residual_history if log else None,
        "metzler": vars(leontief.metzler_check(A)),
    }
    return Output("leontief-static", _ns_params(ns), columns, data)


def _leontief_model(ns, order: int) -> tuple[leontief.LeontiefModel, int]:
    from . import leontief

    A = _read_matrix(ns.matrix)
    n = A.shape[0]
    steps = _default_steps(ns.steps)
    demand = _demand_from_flags(ns, n, steps)
    X0 = _vector(ns.x0, "x0")
    Xdot0 = _vector(ns.xdot0, "xdot0") if ns.xdot0 else None
    model = leontief.LeontiefModel(A=A, demand=demand, X0=X0, Xdot0=Xdot0, order=order)
    return model, steps


def _cmd_leontief_dynamic(ns) -> Output:
    from . import leontief

    model, steps = _leontief_model(ns, ns.order)
    traj = leontief.dynamic_solve(model, steps=steps)
    return _trajectory_output("leontief-dynamic", _ns_params(ns), traj)


def _cmd_leontief_volterra(ns) -> Output:
    from . import leontief

    model, steps = _leontief_model(ns, 2)
    traj = leontief.volterra_solve(model, steps=steps)
    return _trajectory_output("leontief-volterra", _ns_params(ns), traj)


# ---------------------------------------------------------------------------
# Fredholm commands
# ---------------------------------------------------------------------------

# kernel name -> the name of its factory in the fredholm module
_SIMPLE_KERNELS: dict[str, str] = {
    "t-plus-eta": "kernel_t_plus_eta",
    "exp-diff": "kernel_exp_diff",
    "zero": "kernel_zero",
    "rho-rho": "kernel_rho_rho",
    "sigma-rho": "kernel_sigma_rho",
}

_Q_CATALOGUE: dict[str, Callable[[float], float]] = {
    "one": lambda t: 1.0,
    "t": lambda t: t,
    "zero": lambda t: 0.0,
}


def _kernel_by_name(name: str, mu: float) -> fredholm.KernelSpec:
    from . import fredholm

    if name == "degenerate":
        return fredholm.kernel_degenerate(mu)
    if name in _SIMPLE_KERNELS:
        return getattr(fredholm, _SIMPLE_KERNELS[name])()
    raise ValidationError(f"unknown kernel {name!r}", key="kernel")


def _cmd_fredholm_solve(ns) -> Output:
    from . import fredholm

    if ns.kernel == "ode-reduced":
        if not ns.ode_coeffs or not ns.ode_init:
            raise ValidationError(
                "ode-reduced kernel needs ode-coeffs and ode-init", key="ode-coeffs"
            )
        coeffs = _vector(ns.ode_coeffs, "ode-coeffs")
        init = _vector(ns.ode_init, "ode-init")
        try:
            spec = OdeSpec(tuple(coeffs))
        except ValidationError as exc:
            raise ValidationError(str(exc), key="ode-coeffs") from None
        try:
            reduction = fredholm.ode_to_integral(spec, list(init))
        except ValidationError as exc:  # initial values can only be too few or too many
            raise ValidationError(str(exc), key="ode-init") from None
        steps = _default_steps(ns.steps, fallback=200)
        sol = reduction.solve(steps=steps)
        traj = sol.trajectory
        values = np.column_stack([traj.values[:, 0], sol.phi])
        out_traj = Trajectory(traj.grid, values, ("z", "phi"))
        return _trajectory_output("fredholm-solve", _ns_params(ns), out_traj)
    kernel = _kernel_by_name(ns.kernel, ns.mu)
    if ns.q not in _Q_CATALOGUE:
        raise ValidationError(f"unknown free term {ns.q!r}", key="q")
    disc = fredholm.NystromDiscretization(kernel, fredholm.simpson_rule(ns.nodes))
    sol = fredholm.nystrom_solve(disc, ns.lam, _Q_CATALOGUE[ns.q])
    columns = {"t": disc.nodes, "phi": sol.phi}
    return Output("fredholm-solve", _ns_params(ns), columns, {"columns": columns})


def _cmd_fredholm_spectrum(ns) -> Output:
    from . import fredholm

    kernel = _kernel_by_name(ns.kernel, ns.mu)
    disc = fredholm.NystromDiscretization(kernel, fredholm.simpson_rule(ns.nodes))
    report = fredholm.char_numbers(disc, discard_threshold=ns.discard_threshold)
    data = {
        "kernel": ns.kernel,
        "characteristic_numbers": report.characteristic_numbers,
        "eigenfunctions": report.eigenfunctions,
        "nodes": report.nodes,
        "discard_threshold": report.discard_threshold,
    }
    return Output("fredholm-spectrum", _ns_params(ns), None, data)


def _cmd_fredholm_sweep(ns) -> Output:
    from . import fredholm

    _require("positive", mu_count=ns.mu_count)
    _require("finite", mu_min=ns.mu_min, mu_max=ns.mu_max)
    _require_array_length(ns.mu_count, "mu values")
    with np.errstate(over="ignore", invalid="ignore"):  # mu-max - mu-min may overflow
        mu_grid = np.linspace(ns.mu_min, ns.mu_max, ns.mu_count)
    _require_finite_result(mu_grid=mu_grid)
    k0 = _kernel_by_name(ns.k0, 0.0)
    k1 = _kernel_by_name(ns.k1, 0.0)
    report = fredholm.param_singularity_sweep(
        k0, k1, mu_grid, fredholm.simpson_rule(ns.nodes)
    )
    columns = {
        "mu": np.array(report.mu_values, dtype=float),
        "smallest_singular_value": np.array(report.smallest_singular_values, dtype=float),
        "flagged": np.array(report.flagged, dtype=int),
    }
    data = {
        "mu_values": columns["mu"],
        "smallest_singular_values": columns["smallest_singular_value"],
        "flagged": report.flagged,
        "flagged_mus": report.flagged_mus,
        "classification": report.classification,
    }
    return Output("fredholm-sweep", _ns_params(ns), columns, data)


# ---------------------------------------------------------------------------
# Diagnostic commands
# ---------------------------------------------------------------------------

def _cmd_dim_check(ns) -> Output:
    from . import dims

    lhs, rhs = dims.parse_relation(ns.relation, dims.parse_dims(ns.dims))
    report = dims.check_relation(lhs, rhs)
    data = {
        "relation": ns.relation,
        "consistent": report.consistent,
        "lhs_dim": report.lhs_dim.render(),
        "rhs_dim": report.rhs_dim.render(),
        "first_violation": str(report.first_violation) if report.first_violation else None,
        "verdict": "consistent" if report.consistent else "inconsistent",
    }
    return Output("dim-check", _ns_params(ns), None, data)


def _cmd_scale_check(ns) -> Output:
    from . import allen

    flags = ("mu", "nu", "nu_star", "kappa", "lam", "y0", "ydot0", "t_star")
    renamed = {"y0": "Y0", "ydot0": "Ydot0"}
    params = {renamed.get(f, f): getattr(ns, f) for f in flags if getattr(ns, f) is not None}
    grid = _grid(ns)
    report = allen.scale_invariance_check(
        ns.model.replace("-", "_"), params, ns.t0_a, ns.t0_b, grid
    )
    data = {
        "model": ns.model,
        "t0_a": report.t0_a,
        "t0_b": report.t0_b,
        "max_rel_deviation": report.max_rel_deviation,
        "verdict": report.verdict,
        "trivially_invariant": report.trivially_invariant,
    }
    return Output("scale-check", _ns_params(ns), None, data)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _p(name, kind="float", **kw) -> Param:
    return Param(name=name, kind=kind, **kw)


_GRID_PARAMS = (
    _p("t-end", required=True, help="grid end"),
    _p("steps", "int", help="grid steps (default ECODYN_DEFAULT_STEPS or 1000)"),
)

COMMANDS: dict[str, Command] = {}


def _register(cmd: Command) -> None:
    COMMANDS[cmd.name] = cmd


_register(Command(
    "harrod",
    (_p("mu", required=True), _p("nu", required=True), _p("y0", default=1.0),
     _p("k0", default=1.0), *_GRID_PARAMS),
    _cmd_harrod,
    help="exponential-growth income path with its flow split",
))
_register(Command(
    "harrod-corrected",
    (_p("mu", required=True), _p("nu-star", required=True), _p("y0", default=1.0),
     *_GRID_PARAMS),
    _cmd_harrod_corrected,
    help="finite-horizon income path Y0/(1 - sigma*t)^2",
))
_register(Command(
    "harrod-discrete",
    (_p("mu", required=True), _p("nu", required=True), _p("k0", default=1.0),
     _p("years", "int", required=True)),
    _cmd_harrod_discrete,
    help="yearly capital/income recursion with jump impulses",
))
_register(Command(
    "harrod-domar",
    (_p("mu", required=True), _p("nu", required=True), _p("t0", required=True),
     _p("y0", default=1.0), *_GRID_PARAMS),
    _cmd_harrod_domar,
    help="flow-form exponential growth on physical time",
))
_register(Command(
    "phillips",
    (_p("kappa", required=True), _p("nu", required=True), _p("mu", required=True),
     _p("lam", required=True), _p("t0", default=1.0), _p("t-star", default=1.0),
     _p("y0", default=1.0), _p("ydot0", default=0.0), *_GRID_PARAMS),
    _cmd_phillips,
    help="accelerator-multiplier second-order income dynamics",
))
_register(Command(
    "bergstrom",
    (_p("mu", required=True), _p("nu", required=True), _p("gamma", required=True),
     _p("lam", required=True), _p("k0", default=1.0), _p("kdot0", default=0.0),
     *_GRID_PARAMS),
    _cmd_bergstrom,
    help="capital-form second-order dynamics",
))
_register(Command(
    "multiplier",
    (_p("mu", required=True), _p("lam", required=True), _p("y0", default=1.0),
     *_GRID_PARAMS),
    _cmd_multiplier,
    help="pure multiplier decay",
))
_register(Command(
    "longwave",
    (_p("p", required=True), _p("r", required=True), _p("q", default=1.0),
     _p("s", default=-2.0), _p("x0", default=1.0), _p("y0", default=0.0),
     *_GRID_PARAMS),
    _cmd_longwave,
    help="two-rate cycle system with regime classification",
))
_register(Command(
    "leontief-static",
    (_p("matrix", "str", required=True), _p("demand", "str", required=True),
     _p("method", "str", default="direct", choices=("direct", "iterate")),
     _p("tol", default=1e-10), _p("max-iter", "int", default=10_000)),
    _cmd_leontief_static,
    default_format="json",
    help="balance solve X = AX + c, direct or simple iteration",
))
_register(Command(
    "leontief-dynamic",
    (_p("matrix", "str", required=True), _p("demand", "str"), _p("demand-file", "str"),
     _p("order", "int", default=1), _p("x0", "str", required=True),
     _p("xdot0", "str"), _p("steps", "int")),
    _cmd_leontief_dynamic,
    help="truncated balance dynamics on normalized time [0, 1]",
))
_register(Command(
    "leontief-volterra",
    (_p("matrix", "str", required=True), _p("demand", "str"), _p("demand-file", "str"),
     _p("x0", "str", required=True), _p("xdot0", "str", required=True),
     _p("steps", "int")),
    _cmd_leontief_volterra,
    help="order-2 balance dynamics through the Volterra route",
))
_register(Command(
    "fredholm-solve",
    (_p("kernel", "str", required=True,
        choices=("t-plus-eta", "exp-diff", "degenerate", "ode-reduced")),
     _p("lam", default=0.0), _p("q", "str", default="one", choices=("one", "t", "zero")),
     _p("mu", default=0.0), _p("nodes", "int", default=201),
     _p("ode-coeffs", "str"), _p("ode-init", "str"), _p("steps", "int")),
    _cmd_fredholm_solve,
    help="second-kind solve for a catalogue kernel or a reduced ODE",
))
_register(Command(
    "fredholm-spectrum",
    (_p("kernel", "str", required=True, choices=(*_SIMPLE_KERNELS, "degenerate")),
     _p("mu", default=0.0), _p("nodes", "int", default=201),
     _p("discard-threshold", default=1e-10)),
    _cmd_fredholm_spectrum,
    default_format="json",
    formats=("json",),
    help="characteristic numbers and eigenfunctions of a kernel",
))
_register(Command(
    "fredholm-sweep",
    (_p("k0", "str", required=True, choices=tuple(_SIMPLE_KERNELS)),
     _p("k1", "str", required=True, choices=tuple(_SIMPLE_KERNELS)),
     _p("mu-min", required=True), _p("mu-max", required=True),
     _p("mu-count", "int", default=21), _p("nodes", "int", default=201)),
    _cmd_fredholm_sweep,
    help="singularity sweep of Id - (K0 + mu*K1)W over a mu grid",
))
_register(Command(
    "dim-check",
    (_p("relation", "str", required=True,
        help="side = side, each side built from names in --dims with + - * /, "
             "parentheses, int(...) for the time integral and ddt(...) for the time "
             "derivative; K = nu*Y with a dimensionless nu equates a stock ($) with a "
             "flow ($/s)"),
     _p("dims", "str", required=True, help="name:dim entries such as K:$,nu:1,Y:$/s")),
    _cmd_dim_check,
    default_format="json",
    formats=("json",),
    help="stock/flow dimension audit of a relation",
))
_register(Command(
    "scale-check",
    # allen.SCALE_CHECK_MODELS with dashes, spelled out so that building
    # the parser loads no model module
    (_p("model", "str", required=True,
        choices=("harrod-domar", "phillips", "multiplier", "corrected-harrod")),
     _p("t0-a", required=True), _p("t0-b", required=True),
     _p("mu"), _p("nu"), _p("nu-star"), _p("kappa"), _p("lam"),
     _p("y0"), _p("ydot0"), _p("t-star"), *_GRID_PARAMS),
    _cmd_scale_check,
    default_format="json",
    formats=("json",),
    help="trajectory deviation under two time scales",
))


def _ns_params(ns) -> dict:
    """Resolved parameter map of the invocation, for JSON meta."""
    cmd = COMMANDS[ns.command]
    out = {}
    for param in cmd.params:
        value = getattr(ns, param.name.replace("-", "_"), None)
        if value is not None:
            out[param.name] = value
    return out


# ---------------------------------------------------------------------------
# Parsing, emission, entry point
# ---------------------------------------------------------------------------

def _command_name(argv: Sequence[str]) -> str | None:
    """The first token of ``argv`` that argparse takes for the command: not
    an option, and not the value of ``--scenario``."""
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            return token
        if token == "--scenario":
            next(tokens, None)
    return None


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Given ``argv`` that names a command, only
    that command's subparser gets its flags (and ``-h``); the others keep
    their name and help line, all argparse shows of a command it does not
    dispatch to, so the parse, the help and every error read as with the
    full parser, which ``argv=None`` builds."""
    only = _command_name(argv) if argv is not None else None
    if only not in COMMANDS:
        only = None
    # the process rules concern code that embeds or profiles the CLI, not --help
    # (``python -OO`` strips the docstring)
    description = (__doc__ or "").partition("\n\nProcess rules")[0]
    # no abbreviations of --scenario: ``run`` expands the exact flag only
    parser = argparse.ArgumentParser(prog="ecodyn", description=description, allow_abbrev=False)
    parser.add_argument("--scenario", help="run from a key = value scenario file")
    sub = parser.add_subparsers(dest="command")
    for cmd in COMMANDS.values():
        if only not in (None, cmd.name):
            sub.add_parser(cmd.name, help=cmd.help, add_help=False)
            continue
        p = sub.add_parser(cmd.name, help=cmd.help)
        for param in cmd.params:
            p.add_argument(
                f"--{param.name}",
                dest=param.name.replace("-", "_"),
                type=_CONVERTERS[param.kind],
                required=param.required,
                default=param.default,
                choices=param.choices,
                help=param.help,
            )
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format",
            default=cmd.default_format,
            choices=cmd.formats,
            help=f"output format (default {cmd.default_format})",
        )
    return parser


def load_scenario(path: str) -> list[str]:
    """Translate a `key = value` scenario file into an argv list."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read scenario {path!r}: {exc}", key="scenario") from None
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValidationError(
                f"scenario line {lineno} is not `key = value`: {raw.rstrip()!r}",
                key="scenario",
            )
        pairs.append((key.strip().replace("_", "-"), value.strip()))
    command = None
    argv: list[str] = []
    for key, value in pairs:
        if key == "command":
            command = value
        else:
            argv.append(f"--{key}={value}")  # a value such as -1e-3 is not read as a flag
    if command is None:
        raise ValidationError("scenario file must set `command`", key="command")
    return [command, *argv]


# cells rendered at a time: of a JSON float array, or of a CSV table in
# whole rows, so the text held does not grow with the table's width; 2048
# keeps the float kernel's arrays, some 200 bytes a cell, under half a MB
_BLOCK = 2048
# characters of rendered pieces gathered into one write
_FLUSH_CHARS = 1 << 16


# ---------------------------------------------------------------------------
# Float cells: repr's bytes, a block at a time
# ---------------------------------------------------------------------------
#
# repr(x) is the shortest decimal string that reads back as x and, of those,
# the one nearest x (Gay's dtoa, mode 0).  _repr_cells finds these strings
# for a whole block with array arithmetic, as Grisu3 does (Loitsch, PLDI
# 2010): a fast path that certifies each answer, and repr itself for the
# cells it cannot certify.
#
# x = f * 2**E (frexp) is scaled to y = x * 10**k in [1e16, 2e17), k set by
# E alone: y = f * (Dh + Dl), where Dh + Dl is 10**k * 2**E as a
# double-double built from exact integers, and f * Dh is Dekker's exact
# product.  Every number within half an ulp of x (a quarter below, at a
# power of two) reads back as x; scaled, that interval is 1.66 to 22.2
# wide.  The shortest string is the multiple of the largest power of ten P
# inside it -- 1, 10 or 100, since only one multiple of 100 fits -- and, of
# those, the one nearest y.  A cell is certified when both ends of the
# interval, and the point halfway between the multiples of P around y, lie
# further than _CERTAIN from an integer; y is exact to about 1e-14.

# the fast path takes 0 and 2**-1022 < |x| <= the greatest float; the
# subnormals, 2**-1022 itself (a power of two whose lower neighbour is no
# closer than its upper one), inf and nan go to repr
_LEAST_NORMAL = 2.2250738585072014e-308
_GREATEST = 1.7976931348623157e308
_CERTAIN = 1e-6
_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's
_TENS = np.array([10.0, 100.0])[:, None, None]
_POWERS = np.array([1.0, 10.0, 100.0])
# 10**k * 2**E as Dh + Dl, and k, for the frexp exponent E = index - 1021 of
# a normal number: constants, each computed on first use (Dh NaN until then)
_SCALE_HI = np.full(2046, np.nan)
_SCALE_LO = np.zeros(2046)
_SCALE_K = np.zeros(2046, np.int64)
# text columns of a cell: a sign, 16 integer digits, the point, 20 fraction
# digits and, after the last digit of the exponent form, its suffix
_UNITS = 16  # the units digit
_TEXT = 39


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0..9999 as one uint32 each, and their trailing
    zeros (4 for 0), built from those of 0..99 on first use."""
    two = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)
    digits = np.empty((100, 100, 2), np.uint16)
    digits[:, :, 0] = two[:, None]
    digits[:, :, 1] = two
    zeros = np.array([2] + [int(i % 10 == 0) for i in range(1, 100)], np.uint8)
    zeros = np.where(zeros == 2, zeros[:, None] + 2, zeros)
    return digits.view(np.uint32).ravel(), zeros.ravel()


def _fill_scales(indices: Iterable[int]) -> None:
    """Compute the scale tables' entries at ``indices``; Dh is written
    last, so an entry whose Dh is not NaN is whole."""
    for i in map(int, indices):
        E = i - 1021
        k = math.ceil(16 - (E - 1) * math.log10(2))
        while True:  # the float estimate of k, checked in exact integers
            num = 2 ** max(E, 0) * 10 ** max(k, 0)
            den = 2 ** max(-E, 0) * 10 ** max(-k, 0)
            if num < 2 * 10**16 * den:
                k += 1
            elif num >= 2 * 10**17 * den:
                k -= 1
            else:
                break
        hi = num / den  # int / int is correctly rounded
        a, b = hi.as_integer_ratio()
        _SCALE_LO[i] = (num * b - a * den) / (den * b)
        _SCALE_K[i] = k
        _SCALE_HI[i] = hi


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For positive normal ``a``: c, an integer of 17 or 18 digits whose
    digits, trailing zeros dropped, are repr's; k, with x = c * 10**-k to
    repr's precision; and whether the cell is certified."""
    f, i = np.frexp(a)
    i = np.add(i, 1021, dtype=np.intp)
    scale = _SCALE_HI[i]
    if math.isnan(scale.sum()):  # a scale not yet built
        missing = i[np.isnan(scale)]
        _fill_scales(range(missing.min(), missing.max() + 1))
        scale = _SCALE_HI[i]
    # y = p + rest: p = f * Dh rounded, rest its error plus f * Dl
    p = f * scale
    t = f * _SPLITTER
    fh = t - f
    np.subtract(t, fh, out=fh)
    fl = f - fh
    np.multiply(scale, _SPLITTER, out=t)
    sh = t - scale
    np.subtract(t, sh, out=sh)
    sl = np.subtract(scale, sh, out=t)
    rest = fh * sh
    rest -= p
    rest += np.multiply(fh, sl, out=fh)
    rest += np.multiply(fl, sh, out=sh)
    rest += np.multiply(fl, sl, out=fl)
    rest += np.multiply(f, _SCALE_LO[i], out=sl)
    del t, fh, fl, sh, sl
    # p >= 1e16 is an integer: take a multiple of 100 off it, and go on in
    # floats with u = y - base, in (-16, 116)
    base = p.astype(np.int64)
    u = base - base // 100 * 100
    base -= u
    u = u + rest
    del p, rest
    # the interval's ends, u less a quarter or half ulp of x and u plus half
    # an ulp, scaled; their integer parts, and then their fractions
    scale *= 2.0**-54
    ends = np.empty((2, len(u)))
    np.subtract(u, scale, out=ends[0])
    np.add(u, scale, out=ends[1])
    pow2 = np.flatnonzero(f == 0.5)
    ends[0, pow2] += 0.5 * scale[pow2]
    del f, scale
    whole = np.floor(ends)
    ends -= whole
    ok = ((ends > _CERTAIN) & (ends < 1 - _CERTAIN)).all(axis=0)
    # P = 100 where a multiple of 100 lies inside, else 10 where a multiple
    # of 10 does, else 1; then the multiple of P nearest y (certified not
    # halfway), brought inside
    ends = np.floor(whole / _TENS)
    P = _POWERS[(ends[:, 1] > ends[:, 0]).sum(axis=0)]
    u /= P
    u += 0.5
    c = np.floor(u)
    u -= c
    ok &= (u > _CERTAIN) & (u < 1 - _CERTAIN)
    c *= P
    c -= P * (c > whole[1])
    c += P * (c <= whole[0])
    base += c.astype(np.int64)
    return base, _SCALE_K[i], ok


def _repr_cells(values: np.ndarray, seps: np.ndarray,
                others: Callable[[np.ndarray], list[str]],
                whole: np.ndarray | None = None) -> str:
    """The text of the float64 ``values``, each cell followed by its
    separator: cell i by the bytes ``seps[i % len(seps)]`` (a uint8 array
    of rows of one length).  A cell is ``repr``'s bytes, laid out in
    repr's fixed form (-4 < decimal exponent <= 16, ".0" on an integral
    value) or its exponent form; where ``whole[i % len(whole)]``, the cell
    holds an integer below 2**53 and drops the ".0".  The cells the fast
    path does not certify (see above) are ``others(indices)``, one string
    each."""
    n = len(values)
    if n == 0:
        return ""
    a = np.abs(values)
    fast = (a > _LEAST_NORMAL) & (a <= _GREATEST)
    zero = a == 0.0  # laid out as 1.0, its digit then made 0
    fast |= zero
    a[~fast | zero] = 1.0
    c, k, ok = _shortest(a)
    del a
    fast &= ok
    digits4, zeros4 = _digit_tables()
    # c's 18 digits (the first may be 0) in 4-digit groups after two zeros;
    # the first group is never 0
    groups = np.empty((5, n), np.int64)
    high = np.floor_divide(c, 10**8, out=groups[4])
    c -= high * 10**8
    np.floor_divide(high, 10**8, out=groups[0])
    np.floor_divide(high, 10**4, out=groups[1])
    groups[2] = high - groups[1] * 10**4
    groups[1] -= groups[0] * 10**4
    np.floor_divide(c, 10**4, out=groups[3])
    np.subtract(c, groups[3] * 10**4, out=groups[4])
    ndigits = 17 + (groups[0] >= 10)
    # the significant digits: all but the trailing zeros, group by group
    zeros = zeros4[groups]
    run = zeros[0]
    for z in zeros[1:]:
        run = z + (z == 4) * run
    sig = ndigits - run
    # the digits at bytes 20..39 of a row of zeros; each row is slid so that
    # its units digit (the exponent form: its first digit) lands in text
    # column _UNITS
    digits = np.full((n, 60), ord("0"), np.uint8)
    digits.view(np.uint32)[:, 5:10] = digits4[groups].T
    del c, groups, high, run, zeros
    point = ndigits - k  # the decimal exponent plus 1: x = 0.ddd * 10**point
    exp_form = (point < -3) | (point > 16)
    exponent = point - 1
    point[exp_form] = 1
    windows = np.ndarray((n, 25, 36), np.uint8, digits, 0, (60, 1, 1))
    placed = windows[np.arange(n), 24 - ndigits + point]
    del digits, windows
    width = _TEXT + seps.shape[1]
    text = np.empty((n, width), np.uint8)
    text[:, 1 : _UNITS + 1] = placed[:, :16]
    text[:, _UNITS + 1] = ord(".")
    text[:, _UNITS + 2 : _UNITS + 22] = placed[:, 16:]
    text[:, _TEXT:].reshape(-1, *seps.shape)[:] = seps
    del placed
    # the text runs from column first (a sign, or the units digit, or the
    # first digit) to last (the last significant digit, or the 0 of ".0";
    # the exponent form of one digit has no point)
    neg = np.signbit(values)
    first = _UNITS + 1 - np.maximum(point, 1) - neg
    last = _UNITS + 1 + np.maximum(sig - point, 1)
    text[neg, first[neg]] = ord("-")
    text[zero, _UNITS] = ord("0")
    if whole is not None and whole.any():
        last -= 2 * np.tile(whole, n // len(whole))
    if exp_form.any():  # "e", the sign and two or three exponent digits
        rows = np.flatnonzero(exp_form)
        last[rows] -= 2 * (sig[rows] == 1)
        e = exponent[rows]
        e4 = digits4[np.abs(e)].view(np.uint8).reshape(-1, 4)
        three = np.abs(e) >= 100
        end = last[rows]
        text[rows, end + 1] = ord("e")
        text[rows, end + 2] = np.where(e < 0, ord("-"), ord("+"))
        text[rows, end + 3] = np.where(three, e4[:, 1], e4[:, 2])
        text[rows, end + 4] = np.where(three, e4[:, 2], e4[:, 3])
        text[rows, end + 5] = e4[:, 3]
        last[rows] += 4 + three
    rest = np.flatnonzero(~fast)
    if rest.size:
        cells = np.array(others(rest), "S")
        size = cells.dtype.itemsize
        text[rest, :size] = cells.view(np.uint8).reshape(-1, size)
        first[rest] = 0
        last[rest] = np.strings.str_len(cells) - 1
    # one mask: columns first..last of each row, and its separator
    first *= _TEXT
    first += last
    text = text[np.take(_keep_masks(width), first, axis=0)]
    return text.tobytes().decode("ascii")


@functools.cache
def _keep_masks(width: int) -> np.ndarray:
    """Row first * _TEXT + last: the columns of a cell's text, first..last,
    and its separator, columns _TEXT.. of a row ``width`` wide."""
    cols = np.arange(width)
    first = np.arange(_UNITS + 1)[:, None, None]
    last = np.arange(_TEXT)[None, :, None]
    return (((cols >= first) & (cols <= last)) | (cols >= _TEXT)).reshape(-1, width)


def render_csv(output: Output) -> str:
    """The CSV text ``run`` writes for ``output``, as one string."""
    return "".join(_csv_chunks(output))


def render_json(output: Output) -> str:
    """The JSON text ``run`` writes for ``output``, as one string."""
    return "".join(_json_document(output))


def _csv_chunks(output: Output) -> Iterator[str]:
    """The CSV text in pieces: the header line, then blocks of about
    ``_BLOCK`` cells, ``_BLOCK // width`` whole rows (at least one).  A cell
    is the ``repr`` of its Python value, byte for byte: the shortest
    round-trip float (``nan``, ``inf`` and ``-inf`` included), or a plain
    int.  All the cells of a block go through one call of ``_repr_cells``:
    its certified fast path renders the float and int cells, and ``repr``
    the cells of any other column and those the fast path leaves."""
    if output.columns is None:
        raise ValidationError(
            f"command {output.command!r} has no CSV rendering; use --format json",
            key="format",
        )
    columns = list(output.columns.values())
    yield ",".join(output.columns) + "\n"
    width = len(columns)
    seps = np.array([[ord(",")]] * (width - 1) + [[ord("\n")]], np.uint8)
    # a float column goes through the kernel as float64 (a float32's value
    # exactly), and so does an int column, whose values below 2**53 are
    # exact floats: their text is the float's less ".0"; any other column
    # holds NaN, which is never certified, so its cells go to other_cells
    kinds = [col.dtype.kind for col in columns]
    floats = np.array([kind == "f" for kind in kinds], bool)
    whole = np.array([kind in "iu" for kind in kinds], bool)
    rows = max(1, _BLOCK // max(1, width))
    length = min(map(len, columns), default=0)
    for i in range(0, length, rows):
        n = min(rows, length - i)
        block = np.empty((n, width))
        for j, col in enumerate(columns):
            block[:, j] = col[i : i + n] if floats[j] or whole[j] else np.nan
            if whole[j]:
                block[np.abs(block[:, j]) >= 2.0**53, j] = np.nan
        block = block.ravel()

        def other_cells(idx: np.ndarray, block=block, i=i) -> list[str]:
            cells = list(map(repr, block[idx].tolist()))
            for k in np.flatnonzero(~floats[idx % width]).tolist():
                row, j = divmod(int(idx[k]), width)
                cells[k] = repr(columns[j][i + row].item())
            return cells

        yield _repr_cells(block, seps, other_cells, whole)


def _json_document(output: Output) -> Iterator[str]:
    payload = {
        "meta": {
            "command": output.command,
            "params": output.params,
            "version": __version__,
        },
        "data": output.data if output.data is not None else {},
    }
    yield from _json_chunks(payload, "")
    yield "\n"


# the string encoder json.dumps uses with ensure_ascii=False
_json_str = json.encoder.encode_basestring


# the values _json_chunks renders on more than one line; a scalar inside a
# list or dict is rendered in place, without a generator of its own
_NESTED = (dict, list, tuple, np.ndarray, complex, np.complexfloating)


def _json_chunks(obj, pad: str) -> Iterator[str]:
    """The text ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=False)`` gives for ``obj`` starting on a line indented by
    ``pad``, in pieces, after mapping numpy scalars to Python, complex
    numbers to {re, im} and non-finite floats to null.  A float is
    ``repr``'s bytes.  A 1-D float64 array is rendered ``_BLOCK`` cells at
    a time by ``_repr_cells`` (its fast path, and ``repr`` or null for the
    cells it leaves); a list of lists or tuples of scalars, all of one
    length, ``_BLOCK`` items at a time in one join."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "biuf":
        if len(obj) == 0:
            yield "[]"
            return
        # _BLOCK cells at once: float64 through _repr_cells, null where not finite
        sep = ",\n" + inner
        seps = np.frombuffer(sep.encode(), np.uint8)[None, :]
        lead = "[\n" + inner
        for i in range(0, len(obj), _BLOCK):
            block = obj[i : i + _BLOCK]
            if block.dtype == np.float64:
                text = _repr_cells(
                    block, seps, lambda idx: list(map(_json_scalar, block[idx].tolist()))
                )[: -len(sep)]
            else:
                text = sep.join(map(_json_scalar, block.tolist()))
            yield lead + text
            lead = sep
        yield "\n" + pad + "]"
    elif isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        if not items:
            yield "{}"
            return
        sep = "{\n" + inner
        for key in sorted(items):
            value = items[key]
            if isinstance(value, _NESTED):
                yield sep + _json_str(key) + ": "
                yield from _json_chunks(value, inner)
            else:
                yield sep + _json_str(key) + ": " + _json_scalar(value)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    elif isinstance(obj, (complex, np.complexfloating)):
        yield from _json_chunks({"re": float(obj.real), "im": float(obj.imag)}, pad)
    elif isinstance(obj, _NESTED):
        if len(obj) == 0:
            yield "[]"
            return
        # the rows of a numeric array stay arrays and take the first branch
        sep = "[\n" + inner
        for i in range(0, len(obj), _BLOCK):
            block = obj[i : i + _BLOCK]
            rows = _scalar_rows(block, inner)
            if rows is not None:
                yield sep + rows
                sep = ",\n" + inner
                continue
            for item in block:
                if isinstance(item, _NESTED):
                    yield sep
                    yield from _json_chunks(item, inner)
                else:
                    yield sep + _json_scalar(item)
                sep = ",\n" + inner
        yield "\n" + pad + "]"
    else:
        yield _json_scalar(obj)


def _scalar_rows(block, pad: str) -> str | None:
    """The items of a list ``block`` as ``_json_chunks`` renders them, from
    ``pad`` on, when they are lists or tuples of scalars, all of one
    nonzero length (the (year, impulse) pairs of ``harrod-discrete``), in
    one join; else None."""
    if not set(map(type, block)) <= {list, tuple}:
        return None
    sizes = set(map(len, block))
    if len(sizes) != 1 or 0 in sizes:
        return None
    try:
        cells = list(map(_json_scalar, itertools.chain.from_iterable(block)))
    except TypeError:  # a nested value: the caller renders the block item by item
        return None
    inner = pad + "  "
    rows = zip(*[iter(cells)] * sizes.pop())
    return ("[\n" + inner
            + ("\n" + pad + "],\n" + pad + "[\n" + inner).join(map((",\n" + inner).join, rows))
            + "\n" + pad + "]")


def _json_scalar(obj) -> str:
    if type(obj) is float:  # the common scalars first, by their exact type
        return repr(obj) if math.isfinite(obj) else "null"
    if type(obj) is int:
        return repr(obj)
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return repr(f) if math.isfinite(f) else "null"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(chunks: Iterable[str], write: Callable[[str], object]) -> None:
    """Pass ``chunks`` to ``write`` gathered into pieces of at least
    ``_FLUSH_CHARS`` characters, the last one excepted."""
    pending: list[str] = []
    size = 0
    for chunk in chunks:
        pending.append(chunk)
        size += len(chunk)
        if size >= _FLUSH_CHARS:
            write("".join(pending))
            pending.clear()
            size = 0
    if pending:
        write("".join(pending))


def _redirect_mode(path: str) -> int:
    """The permission bits ``> path`` leaves on ``path``: those of the file
    it truncates, or 0o666 less the umask for a new file."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except OSError:
        umask = os.umask(0o077)  # the umask is read by setting it; put it back at once
        os.umask(umask)
        return 0o666 & ~umask


def write_atomic(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or its pieces, to a temporary file beside
    ``path`` and rename it into place; if anything fails, the temporary
    file is removed and ``path`` is left as it was.  The file gets the
    permission bits a shell redirect would give it, not the 0o600 of
    ``mkstemp``.  As with a redirect, a symlinked ``path`` stays a link and
    its target, existing or not, gets the bytes; a loop of links raises
    ``OSError``, as it fails a redirect."""
    path = os.path.realpath(path)
    if os.path.islink(path):  # left unresolved: the links form a loop
        raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), path)
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ecodyn-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            os.fchmod(fd, _redirect_mode(path))
            _emit([text] if isinstance(text, str) else text, fh.write)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _is_number_list(token: str) -> bool:
    """Whether ``token`` is a number or a comma-separated list of numbers."""
    try:
        for part in token.split(","):
            float(part)
    except ValueError:
        return False
    return True


def _attach_signed_values(argv: list[str]) -> list[str]:
    """``--flag -1e-3`` as ``--flag=-1e-3``.  argparse takes a token that
    starts with '-' for an option unless it reads as a plain negative
    number (-1, -.5), so a negative value in exponent, inf or vector form
    (-1e-3, -inf, -1,2) would leave its flag with "expected one argument"."""
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (flag.startswith("--") and len(flag) > 2 and "=" not in flag and flag != "--help"
                and token.startswith("-") and _is_number_list(token)):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one command; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # --scenario PATH or --scenario=PATH
    idx = next((i for i, a in enumerate(argv) if a.partition("=")[0] == "--scenario"), None)
    if idx is not None:
        _, eq, path = argv[idx].partition("=")
        end = idx + 1
        if not eq:
            if end == len(argv):
                print("error: --scenario needs a file path", file=sys.stderr)
                return 2
            path, end = argv[end], end + 1
        try:
            argv = load_scenario(path) + argv[:idx] + argv[end:]
        except EcodynError as exc:
            return _report(exc)
    argv = _attach_signed_values(argv)
    parser = build_parser(argv)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return 2
    cmd = COMMANDS[ns.command]
    try:
        output = cmd.handler(ns)
        chunks = _csv_chunks(output) if ns.format == "csv" else _json_document(output)
        if ns.out:
            try:
                write_atomic(ns.out, chunks)
            except OSError as exc:
                raise ValidationError(f"cannot write {ns.out!r}: {exc.strerror or exc}",
                                      key="out") from None
        else:
            _emit(chunks, sys.stdout.write)  # looked up now: callers may redirect stdout
    except EcodynError as exc:
        return _report(exc)
    except MemoryError as exc:  # e.g. the samples of a huge --nodes
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3
    return 0


def _report(exc: EcodynError) -> int:
    """Print ``exc`` to stderr and return its exit code: 3 for a numerical
    failure, else 2 with the offending key."""
    if isinstance(exc, NumericalError):
        print(f"error: {exc}", file=sys.stderr)
        return 3
    key = getattr(exc, "key", None)
    suffix = f" (key: {key})" if key else ""
    print(f"error: {exc}{suffix}", file=sys.stderr)
    return 2


def entry() -> None:
    """The console script: ``run()`` under the process rules of the module
    docstring."""
    gc.disable()
    try:
        status = run()
        sys.stdout.flush()  # inside the try: a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader is gone: send the rest, and any exit flush, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.stderr.flush()
    if _observed():
        sys.exit(status)  # the tracer or profiler writes its data at exit
    os._exit(status)


def _observed() -> bool:
    """Whether a tracer, profiler or ``sys.monitoring`` tool watches this
    process (cProfile uses ``sys.monitoring`` from Python 3.12 on)."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


if __name__ == "__main__":
    entry()
