"""Flow-form growth and multiplier-accelerator models plus the
time-scale-invariance diagnostic.

All models here are stated in normalized time and re-dimensionalized
through an arbitrary scale t0.  A reliable model cannot depend on that
choice; ``scale_invariance_check`` runs a model under two scales and
measures the deviation of the physical trajectories, which is the
operational form of that criticism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, ValidationError, _require, _require_finite_result
from .harrod import HarrodParams, _checked_exponential, corrected_trajectory
from .odelin import (
    OdeSpec,
    TimeGrid,
    Trajectory,
    _raise_on_blow_up,
    analytic_solution,
    char_roots,
    sup_rel_diff,
)

SCALE_DEVIATION_THRESHOLD = 1e-6


@dataclass(frozen=True)
class AllenScaling:
    """Arbitrary time scale t0, year length t_star, and the reference flow
    intensities that normalize Y, C, I and Z."""

    t0: float
    t_star: float = 1.0
    Y0: float = 1.0
    C0: float = 1.0
    I0: float = 1.0
    Z0: float = 1.0

    def __post_init__(self):
        _require("positive", t0=self.t0, t_star=self.t_star, Y0=self.Y0, C0=self.C0,
                 I0=self.I0, Z0=self.Z0)

    @property
    def k1(self) -> float:
        return self.Y0 / self.C0

    @property
    def k2(self) -> float:
        return self.Y0 / self.I0

    @property
    def k3(self) -> float:
        return self.Y0 / self.Z0

    @property
    def rho(self) -> float:
        return self.t0 / self.t_star


@dataclass(frozen=True)
class PhillipsParams:
    """Reaction rate kappa, accelerator power nu, multiplier mu, demand
    reaction rate lam.  The reduced second-order coefficients a1, b1 are
    derived, never stored."""

    kappa: float
    nu: float
    mu: float
    lam: float

    def __post_init__(self):
        _require("positive", kappa=self.kappa)
        _require("nonnegative", nu=self.nu)
        _require("(0, 1)", mu=self.mu)
        _require("positive", lam=self.lam)

    @property
    def a1(self) -> float:
        return self.kappa + self.mu * self.lam - self.kappa * self.nu * self.lam

    @property
    def b1(self) -> float:
        return self.kappa * self.nu * self.lam


def harrod_domar_trajectory(
    scaling: AllenScaling,
    mu: float,
    nu: float,
    grid: TimeGrid,
) -> Trajectory:
    """Y(t) = Y0 * exp(mu*t/(nu*t0)) on a physical-time grid, with C and I
    recovered from the flow identities k1*C = (1-mu)*Y and k2*I = mu*Y.

    The exponent carries the arbitrary scale t0: doubling t0 halves the
    exponent, which is the model's structural defect.
    """
    _require("(0, 1)", mu=mu)
    _require("positive", nu=nu)
    time_scale = nu * scaling.t0  # underflows to 0 for a tiny nu*t0: the rate is inf
    Y = _checked_exponential(scaling.Y0, mu / time_scale if time_scale else math.inf, grid)
    values = Y[:, None] * np.array([1.0, 1.0 - mu, mu])
    values[:, 1] /= scaling.k1
    values[:, 2] /= scaling.k2
    return Trajectory(grid, values, ("Y", "C", "I"))


@dataclass(frozen=True)
class PhillipsSolution:
    """Income path of the accelerator-multiplier model plus its roots."""

    trajectory: Trajectory  # columns Y, Ydot (derivative w.r.t. t_hat)
    roots: tuple[complex, ...]
    a: float
    b: float
    period_t_hat: float | None


def phillips_solve(
    params: PhillipsParams,
    scaling: AllenScaling,
    init: tuple[float, float],
    grid: TimeGrid,
) -> PhillipsSolution:
    """Solve Yddot + a*Ydot + b*Y = 0 in year time t_hat, with a = a1/rho
    and b = b1/rho^2.

    Roots are computed with the standard quadratic-root convention
    (-a1 +/- sqrt(a1^2 - 4 b1))/(2 rho); some printings show +a1 in this
    place, which is not used here.  When the roots are complex the
    oscillation period in t_hat, 2*pi/|Im p|, is reported; it scales
    linearly with rho, so the physical period depends on the arbitrary
    scale t0.  A t0/t_star whose reduced coefficients leave the float range
    is rejected.
    """
    _require("finite", **dict(zip(("y0", "ydot0"), init)))
    _require_finite_result(a1=params.a1, b1=params.b1)
    rho = scaling.rho
    a = b = math.nan
    if 0.0 < rho * rho < math.inf:  # else rho**2 overflows or underflows to 0
        a, b = params.a1 / rho, params.b1 / rho**2
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(
            f"t0/t_star = {rho!r} gives reduced coefficients a = a1/rho, b = b1/rho^2 "
            "that are not finite",
            key="t0",
        )
    traj, roots = _second_order_solve(a, b, init, grid, ("Y", "Ydot"))
    period = None
    im = max(abs(r.imag) for r in roots)
    if im > 0.0:
        period = 2.0 * math.pi / im
    return PhillipsSolution(trajectory=traj, roots=roots, a=a, b=b, period_t_hat=period)


def _second_order_solve(
    a: float, b: float, init: tuple[float, float], grid: TimeGrid, labels: tuple[str, str]
) -> tuple[Trajectory, tuple[complex, ...]]:
    """x'' + a x' + b x = 0 with initial data ``init`` = (x, x'): the closed-form
    trajectory of x and x' under ``labels``, and the characteristic roots."""
    spec = OdeSpec((1.0, a, b))
    traj = analytic_solution(spec, list(init), grid, derivatives=1)
    return Trajectory(traj.grid, traj.values, labels), tuple(r for r, _ in char_roots(spec))


def phillips_system_residuals(
    solution: PhillipsSolution,
    params: PhillipsParams,
    scaling: AllenScaling,
) -> dict[str, float]:
    """Sup-norm residuals of the three original flow equations.

    I and Z are reconstructed from Y through the algebraic relations
    k2*I = mu*Y + (rho/lam)*Ydot and k3*Z = Y + (rho/lam)*Ydot; the
    investment equation rho*(k2*I)' = -kappa*(k2*I - nu*rho*Ydot) is then
    checked with fourth-order finite differences at interior nodes.  Its
    residual vanishes only where the second-order reduction with
    b1 = kappa*nu*lam is consistent with the flow system, i.e. at
    mu = nu; elsewhere the residual exposes the printed coefficient.
    """
    traj = solution.trajectory
    t = traj.times
    h = traj.grid.h
    Y = traj.column("Y")
    Yd = traj.column("Ydot")
    rho = scaling.rho
    k3Z = Y + (rho / params.lam) * Yd
    k2I = params.mu * Y + (rho / params.lam) * Yd

    def d_dt4(f: np.ndarray) -> np.ndarray:
        # 4th-order central differences on interior nodes 2..-2
        return (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)

    interior = slice(2, -2)
    scale = max(float(np.max(np.abs(Y))), 1e-300)
    res_income = rho * d_dt4(Y) + params.lam * (Y[interior] - k3Z[interior])
    res_demand = k3Z - ((1.0 - params.mu) * Y + k2I)
    res_invest = rho * d_dt4(k2I) + params.kappa * (
        k2I[interior] - params.nu * rho * Yd[interior]
    )
    return {
        "income": float(np.max(np.abs(res_income))) / scale,
        "demand": float(np.max(np.abs(res_demand))) / scale,
        "investment": float(np.max(np.abs(res_invest))) / scale,
    }


def phillips_capital_roots(
    params: PhillipsParams,
    t0: float,
    t_star: float = 1.0,
) -> list[complex]:
    """Roots of the capital cubic t0^2 p^3 + t0*a1 p^2 + b1 p = 0.

    The root p = 0 is always present; the two nonzero roots equal the
    second-order income roots when t0 = t_star, which is asserted to
    1e-10.  Scaling t0 -> c*t0 divides the nonzero roots by c.
    """
    _require("positive", t0=t0)
    spec = OdeSpec((t0**2, t0 * params.a1, params.b1, 0.0))
    roots = [r for r, m in char_roots(spec) for _ in range(m)]
    if math.isclose(t0, t_star, rel_tol=1e-12):
        quad = [r for r, _ in char_roots(OdeSpec((1.0, params.a1, params.b1)))]
        nonzero = sorted(
            (r for r in roots if abs(r) > 1e-12), key=lambda z: (z.real, z.imag)
        )
        quad = sorted(quad, key=lambda z: (z.real, z.imag))
        for rc, rq in zip(nonzero, quad):
            if abs(rc - rq) > 1e-10 * max(1.0, abs(rq)):
                raise CrossCheckError(
                    f"cubic root {rc!r} differs from quadratic root {rq!r}"
                )
    return sorted(roots, key=lambda z: (z.real, z.imag))


@dataclass(frozen=True)
class BergstromResult:
    trajectory: Trajectory  # columns K, Kdot
    roots: tuple[complex, ...]
    damping: float
    stiffness: float
    kappa_equivalent: float


def bergstrom_capital_solve(
    mu: float,
    nu: float,
    gamma: float,
    lam: float,
    init: tuple[float, float],
    grid: TimeGrid,
) -> BergstromResult:
    """Solve the capital form Kddot + (gamma + mu*lam - nu*gamma*lam)*Kdot
    + mu*gamma*lam*K = 0.

    The damping coefficient matches the income-form a1 under gamma =
    kappa, which is reported as ``kappa_equivalent``.
    """
    _require("(0, 1)", mu=mu)
    _require("nonnegative", nu=nu, gamma=gamma)
    _require("positive", lam=lam)
    _require("finite", **dict(zip(("k0", "kdot0"), init)))
    damping = gamma + mu * lam - nu * gamma * lam
    stiffness = mu * gamma * lam
    _require_finite_result(damping=damping, stiffness=stiffness)
    traj, roots = _second_order_solve(damping, stiffness, init, grid, ("K", "Kdot"))
    return BergstromResult(
        trajectory=traj,
        roots=roots,
        damping=damping,
        stiffness=stiffness,
        kappa_equivalent=gamma,
    )


def multiplier_trajectory(
    mu: float,
    lam: float,
    Y0: float,
    grid: TimeGrid,
) -> Trajectory:
    """Pure multiplier decay Y(t_hat) = Y0 * exp(-lam*mu*t_hat) with the
    demand component Z = (1 - mu) * Y."""
    _require("(0, 1)", mu=mu)
    _require("positive", lam=lam, Y0=Y0)
    with np.errstate(over="ignore"):  # exp(-inf) is exactly 0
        Y = Y0 * np.exp(-lam * mu * grid.nodes)
    return Trajectory(grid, Y[:, None] * np.array([1.0, 1.0 - mu]), ("Y", "Z"))


@dataclass(frozen=True)
class ScaleInvarianceReport:
    model: str
    t0_a: float
    t0_b: float
    max_rel_deviation: float
    verdict: str  # "scale_dependent" | "scale_invariant"
    trivially_invariant: bool = False


# model -> the names it needs in the ``params`` of ``scale_invariance_check``
SCALE_CHECK_MODELS = {
    "harrod_domar": ("mu", "nu"),
    "phillips": ("kappa", "nu", "mu", "lam"),
    "multiplier": ("mu", "lam"),
    "corrected_harrod": ("mu", "nu_star"),
}


def scale_invariance_check(
    model: str,
    params: dict,
    t0_a: float,
    t0_b: float,
    grid: TimeGrid,
) -> ScaleInvarianceReport:
    """Run ``model`` under the scales t0_a and t0_b on one physical grid
    and report the sup deviation relative to the sup of the first run.

    ``params`` holds the model's parameters by name ("mu", "nu", ...)
    plus the optional initial data "Y0" (default 1) and, for phillips,
    "Ydot0" (default 0), and the scale "t_star" (default 1).

    A deviation above 1e-6 is structural scale dependence (noise in the
    models at hand sits many orders below, structural deviations above
    1e-2).  Models with no t0 parameter are trivially scale invariant and
    flagged as such.
    """
    _require("positive", t0_a=t0_a, t0_b=t0_b)
    if t0_a == t0_b:
        raise ValidationError("t0_a and t0_b must differ", key="t0-b")
    if model not in SCALE_CHECK_MODELS:
        raise ValidationError(f"unknown model {model!r}", key="model")
    for name in SCALE_CHECK_MODELS[model]:
        if params.get(name) is None:
            raise ValidationError(f"model {model!r} needs {name}", key=name.replace("_", "-"))
    t_star = float(params.get("t_star", 1.0))
    _require("positive", t_star=t_star)
    Y0 = float(params.get("Y0", 1.0))
    if model == "harrod_domar":
        def income(t0):
            scaling = AllenScaling(t0=t0, t_star=t_star, Y0=Y0)
            return harrod_domar_trajectory(scaling, params["mu"], params["nu"], grid)
    elif model == "multiplier":
        def income(t0):
            # Y0 exp(-lam mu t/t0): the rate lam/t0 on physical time
            return multiplier_trajectory(params["mu"], params["lam"] / t0, Y0, grid)
    elif model == "corrected_harrod":
        harrod_params = HarrodParams(mu=params["mu"], nu_star=params["nu_star"], Y0=Y0)
        year_grid = TimeGrid(grid.t_start / t_star, grid.t_end / t_star, grid.steps)

        def income(t0):
            return corrected_trajectory(harrod_params, year_grid).trajectory
    else:
        phillips = PhillipsParams(
            kappa=params["kappa"], nu=params["nu"], mu=params["mu"], lam=params["lam"]
        )
        init = (Y0, float(params.get("Ydot0", 0.0)))

        def income(t0):
            scaling = AllenScaling(t0=t0, t_star=t_star)
            year_grid = TimeGrid(grid.t_start / t_star, grid.t_end / t_star, grid.steps)
            return phillips_solve(phillips, scaling, init, year_grid).trajectory

    Ya, Yb = (income(t0).column("Y") for t0 in (t0_a, t0_b))
    for Y in (Ya, Yb):
        _raise_on_blow_up(Y[:, None], grid.nodes, "income path")
    deviation = sup_rel_diff(Ya, Yb)
    trivial = model == "corrected_harrod"
    verdict = (
        "scale_dependent" if deviation > SCALE_DEVIATION_THRESHOLD else "scale_invariant"
    )
    return ScaleInvarianceReport(
        model=model,
        t0_a=t0_a,
        t0_b=t0_b,
        max_rel_deviation=deviation,
        verdict=verdict,
        trivially_invariant=trivial,
    )
