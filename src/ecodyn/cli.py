"""Batch front end: run any model or solver from flags or a scenario
file and emit trajectories and reports as CSV or JSON.

Exit codes: 0 success, 2 validation error (the message names the
offending key), 3 numerical failure (pole, blow-up, non-convergence,
spectrum proximity) with the originating module's message verbatim.
Output files are written atomically; a failed run never leaves a
partial file behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import __version__
from . import allen, dims, fredholm, harrod, leontief, longwave
from .errors import EcodynError, NumericalError, ValidationError
from .odelin import OdeSpec, TimeGrid, Trajectory

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
    steps_like: bool = False  # falls back to ECODYN_DEFAULT_STEPS


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
    headers: list[str] | None = None  # CSV table; None => csv unsupported
    rows: list[list] | None = None
    data: dict | None = None  # JSON "data" payload


def _default_steps(value, fallback: int = DEFAULT_STEPS_FALLBACK) -> int:
    if value is not None:
        if value < 1:
            raise ValidationError("steps must be positive", key="steps")
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


def _grid(ns, t_start: float = 0.0) -> TimeGrid:
    return TimeGrid(t_start, ns.t_end, _default_steps(ns.steps))


def _vector(text: str, key: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise ValidationError(f"{key} must be comma-separated numbers, got {text!r}", key=key) from None


def _trajectory_output(command: str, params: dict, traj: Trajectory, report: dict | None = None) -> Output:
    headers = ["t", *traj.labels]
    t = traj.times
    rows = [[float(t[k]), *(float(v) for v in traj.values[k])] for k in range(len(t))]
    data: dict = {"columns": {"t": [float(x) for x in t]}}
    for j, label in enumerate(traj.labels):
        data["columns"][label] = [float(v) for v in traj.values[:, j]]
    if report is not None:
        data["report"] = report
    return Output(command=command, params=params, headers=headers, rows=rows, data=data)


def _sanitize(obj):
    """Make reports JSON-ready and deterministic: numpy scalars to python,
    complex to {re, im}, non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _sanitize(float(obj.real)), "im": _sanitize(float(obj.imag))}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


# ---------------------------------------------------------------------------
# Trajectory commands
# ---------------------------------------------------------------------------

def _cmd_harrod(ns) -> Output:
    params = harrod.HarrodParams(mu=ns.mu, nu_star=ns.nu, Y0=ns.y0, K0=ns.k0)
    traj = harrod.classical_trajectory(params, ns.nu, _grid(ns))
    return _trajectory_output("harrod", _ns_params(ns), traj)


def _cmd_harrod_corrected(ns) -> Output:
    params = harrod.HarrodParams(mu=ns.mu, nu_star=ns.nu_star, Y0=ns.y0)
    result = harrod.corrected_trajectory(params, _grid(ns))
    report = {
        "blowup_time": result.blowup_time,
        "forecast_horizon": result.forecast_horizon,
    }
    return _trajectory_output("harrod-corrected", _ns_params(ns), result.trajectory, _sanitize(report))


def _cmd_harrod_discrete(ns) -> Output:
    params = harrod.HarrodParams(mu=ns.mu, nu_star=ns.nu, K0=ns.k0)
    path = harrod.discrete_path(params, ns.nu, ns.years)
    impulse = {year: w for year, w in path.impulses}
    headers = ["year", "K", "Y_tilde", "I_tilde", "impulse"]
    rows = [
        [int(y), float(path.K[i]), float(path.Y_tilde[i]), float(path.I_tilde[i]),
         float(impulse.get(int(y), 0.0))]
        for i, y in enumerate(path.years)
    ]
    data = {
        "years": [int(y) for y in path.years],
        "K": [float(v) for v in path.K],
        "Y_tilde": [float(v) for v in path.Y_tilde],
        "I_tilde": [float(v) for v in path.I_tilde],
        "impulses": [[int(y), float(w)] for y, w in path.impulses],
    }
    return Output("harrod-discrete", _ns_params(ns), headers, rows, data)


def _cmd_harrod_domar(ns) -> Output:
    scaling = allen.AllenScaling(t0=ns.t0, Y0=ns.y0)
    traj = allen.harrod_domar_trajectory(scaling, ns.mu, ns.nu, _grid(ns))
    return _trajectory_output("harrod-domar", _ns_params(ns), traj)


def _cmd_phillips(ns) -> Output:
    params = allen.PhillipsParams(kappa=ns.kappa, nu=ns.nu, mu=ns.mu, lam=ns.lam)
    scaling = allen.AllenScaling(t0=ns.t0, t_star=ns.t_star)
    sol = allen.phillips_solve(params, scaling, (ns.y0, ns.ydot0), _grid(ns))
    report = _sanitize(
        {
            "roots": list(sol.roots),
            "period_t_hat": sol.period_t_hat,
            "a": sol.a,
            "b": sol.b,
            "a1": params.a1,
            "b1": params.b1,
        }
    )
    return _trajectory_output("phillips", _ns_params(ns), sol.trajectory, report)


def _cmd_bergstrom(ns) -> Output:
    result = allen.bergstrom_capital_solve(
        ns.mu, ns.nu, ns.gamma, ns.lam, (ns.k0, ns.kdot0), _grid(ns)
    )
    report = _sanitize(
        {
            "roots": list(result.roots),
            "damping": result.damping,
            "stiffness": result.stiffness,
            "kappa_equivalent": result.kappa_equivalent,
        }
    )
    return _trajectory_output("bergstrom", _ns_params(ns), result.trajectory, report)


def _cmd_multiplier(ns) -> Output:
    traj = allen.multiplier_trajectory(ns.mu, ns.lam, ns.y0, _grid(ns))
    return _trajectory_output("multiplier", _ns_params(ns), traj)


def _cmd_longwave(ns) -> Output:
    params = longwave.LongWaveParams(p=ns.p, r=ns.r, q=ns.q, s=ns.s)
    cycle = longwave.lw_classify(params)
    traj = longwave.lw_simulate(params, ns.x0, ns.y0, _grid(ns))
    report = _sanitize(
        {
            "regime": cycle.regime,
            "period_years": cycle.period_years,
            "eigenvalues": list(cycle.eigenvalues),
        }
    )
    return _trajectory_output("longwave", _ns_params(ns), traj, report)


# ---------------------------------------------------------------------------
# Leontief commands
# ---------------------------------------------------------------------------

def _read_matrix(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    except OSError as exc:
        raise ValidationError(f"cannot read matrix file {path!r}: {exc}", key="matrix") from None
    if not lines:
        raise ValidationError(f"matrix file {path!r} is empty", key="matrix")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValidationError(
            f"matrix file {path!r} must start with the dimension n", key="matrix"
        ) from None
    if len(lines) < n + 1:
        raise ValidationError(f"matrix file {path!r} needs {n} coefficient rows", key="matrix")
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
        vec = _vector(ns.demand, "demand")
        if len(vec) != n:
            raise ValidationError(f"demand must have {n} components", key="demand")
        return vec
    try:
        table = np.loadtxt(ns.demand_file, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ValidationError(f"cannot read demand file: {exc}", key="demand-file") from None
    if table.shape != (steps + 1, n):
        raise ValidationError(
            f"demand file must have {steps + 1} rows of {n} values "
            f"(grid-aligned), got shape {table.shape}",
            key="demand-file",
        )
    t_nodes = np.linspace(0.0, 1.0, steps + 1)

    def sampler(t: float, _t=t_nodes, _v=table) -> np.ndarray:
        return np.array([np.interp(t, _t, _v[:, j]) for j in range(_v.shape[1])])

    return sampler


def _cmd_leontief_static(ns) -> Output:
    A = _read_matrix(ns.matrix)
    c = _vector(ns.demand, "demand")
    X, log = leontief.static_solve(A, c, method=ns.method, tol=ns.tol, max_iter=ns.max_iter)
    headers = ["component", "x"]
    rows = [[i + 1, float(x)] for i, x in enumerate(X)]
    data = {
        "X": [float(x) for x in X],
        "method": ns.method,
        "iterations": log.iterates if log else None,
        "residual_history": [float(r) for r in log.residual_history] if log else None,
        "metzler": _sanitize(vars(leontief.metzler_check(A)) | {}),
    }
    return Output("leontief-static", _ns_params(ns), headers, rows, data)


def _leontief_model(ns, order: int) -> tuple[leontief.LeontiefModel, int]:
    A = _read_matrix(ns.matrix)
    n = A.shape[0]
    steps = _default_steps(ns.steps)
    demand = _demand_from_flags(ns, n, steps)
    X0 = _vector(ns.x0, "x0")
    Xdot0 = _vector(ns.xdot0, "xdot0") if getattr(ns, "xdot0", None) else None
    if order == 2 and Xdot0 is None:
        raise ValidationError("order 2 needs xdot0", key="xdot0")
    model = leontief.LeontiefModel(A=A, demand=demand, X0=X0, Xdot0=Xdot0, order=order)
    return model, steps


def _cmd_leontief_dynamic(ns) -> Output:
    model, steps = _leontief_model(ns, ns.order)
    traj = leontief.dynamic_solve(model, steps=steps)
    return _trajectory_output("leontief-dynamic", _ns_params(ns), traj)


def _cmd_leontief_volterra(ns) -> Output:
    model, steps = _leontief_model(ns, 2)
    traj = leontief.volterra_solve(model, steps=steps)
    return _trajectory_output("leontief-volterra", _ns_params(ns), traj)


# ---------------------------------------------------------------------------
# Fredholm commands
# ---------------------------------------------------------------------------

_SIMPLE_KERNELS: dict[str, Callable[[], fredholm.KernelSpec]] = {
    "t-plus-eta": fredholm.kernel_t_plus_eta,
    "exp-diff": fredholm.kernel_exp_diff,
    "zero": fredholm.kernel_zero,
    "rho-rho": fredholm.kernel_rho_rho,
    "sigma-rho": fredholm.kernel_sigma_rho,
}

_Q_CATALOGUE: dict[str, Callable[[float], float]] = {
    "one": lambda t: 1.0,
    "t": lambda t: t,
    "zero": lambda t: 0.0,
}


def _kernel_by_name(name: str, mu: float) -> fredholm.KernelSpec:
    if name == "degenerate":
        return fredholm.kernel_degenerate(mu)
    if name in _SIMPLE_KERNELS:
        return _SIMPLE_KERNELS[name]()
    raise ValidationError(f"unknown kernel {name!r}", key="kernel")


def _cmd_fredholm_solve(ns) -> Output:
    if ns.kernel == "ode-reduced":
        if not ns.ode_coeffs or not ns.ode_init:
            raise ValidationError(
                "ode-reduced kernel needs ode-coeffs and ode-init", key="ode-coeffs"
            )
        coeffs = _vector(ns.ode_coeffs, "ode-coeffs")
        init = _vector(ns.ode_init, "ode-init")
        reduction = fredholm.ode_to_integral(OdeSpec(tuple(coeffs)), list(init))
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
    headers = ["t", "phi"]
    rows = [[float(t), float(p)] for t, p in zip(disc.nodes, sol.phi)]
    data = {
        "columns": {
            "t": [float(t) for t in disc.nodes],
            "phi": [float(p) for p in sol.phi],
        }
    }
    return Output("fredholm-solve", _ns_params(ns), headers, rows, data)


def _cmd_fredholm_spectrum(ns) -> Output:
    kernel = _kernel_by_name(ns.kernel, ns.mu)
    disc = fredholm.NystromDiscretization(kernel, fredholm.simpson_rule(ns.nodes))
    report = fredholm.char_numbers(disc, discard_threshold=ns.discard_threshold)
    data = _sanitize(
        {
            "kernel": ns.kernel,
            "characteristic_numbers": list(report.characteristic_numbers),
            "eigenfunctions": report.eigenfunctions,
            "nodes": report.nodes,
            "discard_threshold": report.discard_threshold,
        }
    )
    return Output("fredholm-spectrum", _ns_params(ns), None, None, data)


def _cmd_fredholm_sweep(ns) -> Output:
    if ns.mu_count < 1:
        raise ValidationError("mu-count must be >= 1", key="mu-count")
    mu_grid = np.linspace(ns.mu_min, ns.mu_max, ns.mu_count)
    k0 = _kernel_by_name(ns.k0, 0.0)
    k1 = _kernel_by_name(ns.k1, 0.0)
    report = fredholm.param_singularity_sweep(
        k0, k1, mu_grid, fredholm.simpson_rule(ns.nodes)
    )
    headers = ["mu", "smallest_singular_value", "flagged"]
    rows = [
        [float(m), float(s), int(f)]
        for m, s, f in zip(
            report.mu_values, report.smallest_singular_values, report.flagged
        )
    ]
    data = _sanitize(
        {
            "mu_values": list(report.mu_values),
            "smallest_singular_values": list(report.smallest_singular_values),
            "flagged": list(report.flagged),
            "flagged_mus": list(report.flagged_mus),
            "classification": report.classification,
        }
    )
    return Output("fredholm-sweep", _ns_params(ns), headers, rows, data)


# ---------------------------------------------------------------------------
# Diagnostic commands
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[()*/+-])")


def _tokenize_relation(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValidationError(f"cannot tokenize relation at {text[pos:]!r}", key="relation")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_dim_expr(tokens: list[str], table: dict[str, dims.Dimension]) -> dims.DimExpr:
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValidationError(
                f"unexpected token {tok!r} in relation (expected {expected!r})",
                key="relation",
            )
        pos += 1
        return tok

    def factor() -> dims.DimExpr:
        tok = take()
        if tok == "(":
            e = expr()
            take(")")
            return e
        if tok in ("int", "ddt") and peek() == "(":
            take("(")
            inner = expr()
            take(")")
            return inner.integral_dt() if tok == "int" else inner.derivative_dt()
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            if tok not in table:
                raise ValidationError(f"no dimension given for {tok!r}", key="dims")
            return dims.var(tok, table[tok])
        raise ValidationError(f"unexpected token {tok!r} in relation", key="relation")

    def term() -> dims.DimExpr:
        e = factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = factor()
            e = e * rhs if op == "*" else e / rhs
        return e

    def expr() -> dims.DimExpr:
        e = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            e = e + rhs if op == "+" else e - rhs
        return e

    result = expr()
    if peek() is not None:
        raise ValidationError(f"trailing tokens {tokens[pos:]!r} in relation", key="relation")
    return result


_DIM_ATOMS = {"$": dims.MONEY, "s": dims.TIME, "1": dims.DIMENSIONLESS}


def _parse_dimension(text: str) -> dims.Dimension:
    """Parse "$", "s", "1", "$/s", "$*s^-1", "s^2" into a Dimension."""

    def atom(part: str) -> dims.Dimension:
        part = part.strip()
        if "^" in part:
            sym, _, exp_text = part.partition("^")
            try:
                exp = int(exp_text)
            except ValueError:
                raise ValidationError(f"bad exponent in {part!r}", key="dims") from None
        else:
            sym, exp = part, 1
        sym = sym.strip()
        if sym not in _DIM_ATOMS:
            raise ValidationError(f"unknown dimension symbol {sym!r}", key="dims")
        base = _DIM_ATOMS[sym]
        return dims.Dimension(base.money_exp * exp, base.time_exp * exp)

    num, _, rest = text.partition("/")
    result = dims.DIMENSIONLESS
    for part in num.split("*"):
        if part.strip():
            result = result * atom(part)
    while rest:
        part, _, rest = rest.partition("/")
        result = result / atom(part)
    return result


def _parse_dims_table(text: str) -> dict[str, dims.Dimension]:
    table: dict[str, dims.Dimension] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, sep, dim_text = entry.partition(":")
        if not sep:
            raise ValidationError(f"dims entry {entry!r} must look like name:dim", key="dims")
        table[name.strip()] = _parse_dimension(dim_text.strip())
    return table


def _cmd_dim_check(ns) -> Output:
    table = _parse_dims_table(ns.dims)
    sides = ns.relation.split("=")
    if len(sides) != 2:
        raise ValidationError("relation must contain exactly one '='", key="relation")
    lhs = _parse_dim_expr(_tokenize_relation(sides[0]), table)
    rhs = _parse_dim_expr(_tokenize_relation(sides[1]), table)
    report = dims.check_relation(lhs, rhs)
    data = {
        "relation": ns.relation,
        "consistent": report.consistent,
        "lhs_dim": report.lhs_dim.render(),
        "rhs_dim": report.rhs_dim.render(),
        "first_violation": str(report.first_violation) if report.first_violation else None,
        "verdict": "consistent" if report.consistent else "inconsistent",
    }
    return Output("dim-check", _ns_params(ns), None, None, data)


_SCALE_MODELS = {
    "harrod-domar": ("harrod_domar", ("mu", "nu")),
    "phillips": ("phillips", ("kappa", "nu", "mu", "lam")),
    "multiplier": ("multiplier", ("mu", "lam")),
    "corrected-harrod": ("corrected_harrod", ("mu", "nu_star")),
}


def _cmd_scale_check(ns) -> Output:
    model_key, required = _SCALE_MODELS[ns.model]
    params: dict[str, float] = {}
    for key in required:
        value = getattr(ns, key, None)
        if value is None:
            raise ValidationError(
                f"model {ns.model!r} requires --{key.replace('_', '-')}", key=key.replace("_", "-")
            )
        params[key] = value
    for flag, key in (("y0", "Y0"), ("ydot0", "Ydot0"), ("t_star", "t_star")):
        value = getattr(ns, flag, None)
        if value is not None:
            params[key] = value
    grid = _grid(ns)
    report = allen.scale_invariance_check(model_key, params, ns.t0_a, ns.t0_b, grid)
    data = _sanitize(
        {
            "model": ns.model,
            "t0_a": report.t0_a,
            "t0_b": report.t0_b,
            "max_rel_deviation": report.max_rel_deviation,
            "verdict": report.verdict,
            "trivially_invariant": report.trivially_invariant,
        }
    )
    return Output("scale-check", _ns_params(ns), None, None, data)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _p(name, kind="float", **kw) -> Param:
    return Param(name=name, kind=kind, **kw)


_GRID_PARAMS = (
    _p("t-end", required=True, help="grid end"),
    _p("steps", "int", steps_like=True, help="grid steps (default ECODYN_DEFAULT_STEPS or 1000)"),
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
     _p("xdot0", "str"), _p("steps", "int", steps_like=True)),
    _cmd_leontief_dynamic,
    help="truncated balance dynamics on normalized time [0, 1]",
))
_register(Command(
    "leontief-volterra",
    (_p("matrix", "str", required=True), _p("demand", "str"), _p("demand-file", "str"),
     _p("x0", "str", required=True), _p("xdot0", "str", required=True),
     _p("steps", "int", steps_like=True)),
    _cmd_leontief_volterra,
    help="order-2 balance dynamics through the Volterra route",
))
_register(Command(
    "fredholm-solve",
    (_p("kernel", "str", required=True,
        choices=("t-plus-eta", "exp-diff", "degenerate", "ode-reduced")),
     _p("lam", default=0.0), _p("q", "str", default="one", choices=("one", "t", "zero")),
     _p("mu", default=0.0), _p("nodes", "int", default=201),
     _p("ode-coeffs", "str"), _p("ode-init", "str"), _p("steps", "int", steps_like=True)),
    _cmd_fredholm_solve,
    help="second-kind solve for a catalogue kernel or a reduced ODE",
))
_register(Command(
    "fredholm-spectrum",
    (_p("kernel", "str", required=True,
        choices=("t-plus-eta", "exp-diff", "zero", "rho-rho", "sigma-rho", "degenerate")),
     _p("mu", default=0.0), _p("nodes", "int", default=201),
     _p("discard-threshold", default=1e-10)),
    _cmd_fredholm_spectrum,
    default_format="json",
    formats=("json",),
    help="characteristic numbers and eigenfunctions of a kernel",
))
_register(Command(
    "fredholm-sweep",
    (_p("k0", "str", required=True,
        choices=("t-plus-eta", "exp-diff", "zero", "rho-rho", "sigma-rho")),
     _p("k1", "str", required=True,
        choices=("t-plus-eta", "exp-diff", "zero", "rho-rho", "sigma-rho")),
     _p("mu-min", required=True), _p("mu-max", required=True),
     _p("mu-count", "int", default=21), _p("nodes", "int", default=201)),
    _cmd_fredholm_sweep,
    help="singularity sweep of Id - (K0 + mu*K1)W over a mu grid",
))
_register(Command(
    "dim-check",
    (_p("relation", "str", required=True), _p("dims", "str", required=True)),
    _cmd_dim_check,
    default_format="json",
    formats=("json",),
    help="stock/flow dimension audit of a relation",
))
_register(Command(
    "scale-check",
    (_p("model", "str", required=True, choices=tuple(_SCALE_MODELS)),
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecodyn", description=__doc__)
    parser.add_argument("--scenario", help="run from a key = value scenario file")
    sub = parser.add_subparsers(dest="command")
    for cmd in COMMANDS.values():
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
            argv.extend([f"--{key}", value])
    if command is None:
        raise ValidationError("scenario file must set `command`", key="command")
    return [command, *argv]


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def render_csv(output: Output) -> str:
    if output.headers is None or output.rows is None:
        raise ValidationError(
            f"command {output.command!r} has no CSV rendering; use --format json",
            key="format",
        )
    lines = [",".join(output.headers)]
    for row in output.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(output: Output) -> str:
    payload = {
        "meta": {
            "command": output.command,
            "params": _sanitize(output.params),
            "version": __version__,
        },
        "data": _sanitize(output.data if output.data is not None else {}),
    }
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ecodyn-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one command; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--scenario" in argv:
        idx = argv.index("--scenario")
        try:
            path = argv[idx + 1]
        except IndexError:
            print("error: --scenario needs a file path", file=sys.stderr)
            return 2
        try:
            argv = load_scenario(path) + argv[:idx] + argv[idx + 2 :]
        except EcodynError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    parser = build_parser()
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
        text = render_csv(output) if ns.format == "csv" else render_json(output)
        if ns.out:
            write_atomic(ns.out, text)
        else:
            sys.stdout.write(text)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EcodynError as exc:
        key = getattr(exc, "key", None)
        suffix = f" (key: {key})" if key else ""
        print(f"error: {exc}{suffix}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
