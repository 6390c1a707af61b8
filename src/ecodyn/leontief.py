"""Input-output balance X = AX + C: static solves, the Taylor-truncation
reduction to a matrix ODE on normalized time, and its two independent
dynamic realizations.

The two-term truncation 0.5*Xdd + Xd + B*X = C (B = E - A) is integrated
both as a first-order system with RK4 and, after substituting U = Xdd, as
a second-kind Volterra equation marched with trapezoidal quadrature.  The
two routes share nothing beyond the model data, which makes their
agreement the module's central cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateDataError,
    NonConvergenceError,
    ResolutionError,
    SingularMatrixError,
    ValidationError,
)
from .odelin import TimeGrid, Trajectory, rk4_linear

DemandLike = Callable[[float], np.ndarray] | Sequence[float] | np.ndarray


def _as_demand(demand: DemandLike, n: int) -> Callable[[float], np.ndarray]:
    if callable(demand):
        return demand
    vec = np.asarray(demand, dtype=float)
    if vec.shape != (n,):
        raise ValidationError(f"constant demand must have {n} components", key="demand")
    return lambda _t, _v=vec: _v


@dataclass
class LeontiefModel:
    """Technology matrix A (nonnegative, dimensionless), demand sampler
    C(t_bar) on [0, 1], initial data, horizon t0 and truncation order."""

    A: np.ndarray
    demand: DemandLike
    X0: np.ndarray
    Xdot0: np.ndarray | None = None
    t0: float = 1.0
    order: int = 1

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValidationError("A must be a square matrix", key="matrix")
        if np.any(self.A < 0.0):
            i, j = np.argwhere(self.A < 0.0)[0]
            raise ValidationError(
                f"A[{i},{j}] = {self.A[i, j]!r} is negative", key="matrix"
            )
        n = self.A.shape[0]
        self.X0 = np.asarray(self.X0, dtype=float)
        if self.X0.shape != (n,):
            raise ValidationError(f"X0 must have {n} components", key="x0")
        if self.Xdot0 is not None:
            self.Xdot0 = np.asarray(self.Xdot0, dtype=float)
            if self.Xdot0.shape != (n,):
                raise ValidationError(f"Xdot0 must have {n} components", key="xdot0")
        if self.t0 <= 0.0:
            raise ValidationError("t0 must be positive", key="t0")
        if self.order < 1:
            raise ValidationError("truncation order must be >= 1", key="order")
        self.demand_fn = _as_demand(self.demand, n)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def B(self) -> np.ndarray:
        return np.eye(self.n) - self.A

    def demand_at(self, t: float) -> np.ndarray:
        c = np.asarray(self.demand_fn(t), dtype=float)
        if c.shape != (self.n,):
            raise ValidationError(f"demand sampler must return {self.n} components")
        if not np.all(np.isfinite(c)):
            raise ValidationError(f"demand is not finite at t_bar = {t!r}")
        if np.any(c < -1e-12):
            raise ValidationError(f"demand has a negative component at t_bar = {t!r}")
        return c


@dataclass(frozen=True)
class MetzlerReport:
    holds: bool
    row_sums: tuple[float, ...]
    strict_row_exists: bool
    offending_rows: tuple[int, ...]


def metzler_check(A: np.ndarray) -> MetzlerReport:
    """Row sums of the nonnegative matrix must all be <= 1 with at least
    one strictly below; that guarantees solvability of the balance and
    convergence of simple iteration."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("A must be a square matrix", key="matrix")
    if np.any(A < 0.0):
        i, j = np.argwhere(A < 0.0)[0]
        raise ValidationError(f"A[{i},{j}] = {A[i, j]!r} is negative", key="matrix")
    sums = A.sum(axis=1)
    offending = tuple(int(i) for i in np.nonzero(sums > 1.0 + 1e-15)[0])
    strict = bool(np.any(sums < 1.0 - 1e-15))
    holds = not offending and strict
    return MetzlerReport(
        holds=holds,
        row_sums=tuple(float(s) for s in sums),
        strict_row_exists=strict,
        offending_rows=offending,
    )


@dataclass
class IterationLog:
    """Successive-difference history ||X_{s+1} - X_s||_inf of simple iteration."""

    iterates: int = 0
    residual_history: list[float] = field(default_factory=list)


def static_solve(
    A: np.ndarray,
    c: Sequence[float],
    method: str = "direct",
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, IterationLog | None]:
    """Solve X = AX + c.

    "direct" factors E - A with partially pivoted LU and rejects pivots
    below 1e-12 times the matrix norm; "iterate" runs X_{s+1} = A X_s + c
    from X_0 = c until the step difference drops to ``tol`` (under the
    Metzler condition this bounds the balance residual by ``tol`` too).
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    n = A.shape[0]
    if c.shape != (n,):
        raise ValidationError(f"demand must have {n} components", key="demand")
    if method == "direct":
        # imported here, not at module level: scipy.linalg takes longer to
        # import than the rest of ecodyn, and only this branch needs it
        # (lu_factor exposes the pivots the singularity guard reads)
        import scipy.linalg

        B = np.eye(n) - A
        with warnings.catch_warnings():
            # singularity is detected via the pivot threshold below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(B)
        pivots = np.abs(np.diag(lu))
        threshold = 1e-12 * np.linalg.norm(B)
        if np.any(pivots < threshold):
            raise SingularMatrixError(
                f"E - A is numerically singular (pivot {pivots.min():.3e} below "
                f"{threshold:.3e})"
            )
        return scipy.linalg.lu_solve((lu, piv), c), None
    if method == "iterate":
        report = metzler_check(A)
        if not report.holds:
            raise ValidationError(
                "simple iteration requires the Metzler condition "
                f"(row sums {report.row_sums})",
                key="method",
            )
        log = IterationLog()
        X = c.copy()
        for _ in range(max_iter):
            X_next = A @ X + c
            diff = float(np.max(np.abs(X_next - X)))
            log.residual_history.append(diff)
            log.iterates += 1
            X = X_next
            if diff <= tol:
                return X, log
        raise NonConvergenceError(
            f"simple iteration did not reach tol={tol!r} in {max_iter} steps",
            log=log,
        )
    raise ValidationError(f"unknown method {method!r}", key="method")


@dataclass(frozen=True)
class TaylorReduction:
    """Coefficients (1/1!, ..., 1/m!) of sum_k (1/k!) X^(k) = -B X + C on
    t_bar in [0, 1]; the horizon powers t0^k cancel in the rescaling."""

    order: int
    derivative_coeffs: tuple[float, ...]
    B: np.ndarray

    def render(self) -> str:
        terms = []
        for k in range(self.order, 0, -1):
            coeff = self.derivative_coeffs[k - 1]
            prime = "'" * k
            terms.append(f"X{prime}" if coeff == 1.0 else f"{coeff:g}*X{prime}")
        return " + ".join(terms) + " + B*X = C(t_bar)"


def taylor_reduce(model: LeontiefModel) -> TaylorReduction:
    coeffs = tuple(1.0 / math.factorial(k) for k in range(1, model.order + 1))
    return TaylorReduction(order=model.order, derivative_coeffs=coeffs, B=model.B)


def dynamic_solve(model: LeontiefModel, steps: int = 400) -> Trajectory:
    """Integrate the truncated balance on t_bar in [0, 1] with RK4.

    Order 1: Xd = C - B X.  Order 2: the first-order system in (X, Xd)
    with Xdd = 2 (C - Xd - B X), i.e. the block matrix [[0, I], [-2B, -2I]]
    with forcing [0, 2C].  Higher orders are not accepted.  A constant
    demand is checked once; a demand sampler is called once per distinct
    RK4 stage time, each sample checked by ``LeontiefModel.demand_at``.
    """
    if model.order not in (1, 2):
        raise ValidationError("dynamic_solve supports truncation orders 1 and 2", key="order")
    if model.order == 2 and model.Xdot0 is None:
        raise ValidationError("order 2 needs Xdot0", key="xdot0")
    grid = TimeGrid(0.0, 1.0, steps)
    n = model.n
    labels = tuple(f"x{i + 1}" for i in range(n))
    if callable(model.demand):
        def demand(ts: np.ndarray) -> np.ndarray:
            return np.array([model.demand_at(float(t)) for t in ts])
    else:
        demand = model.demand_at(0.0)
    if model.order == 1:
        return rk4_linear(-model.B, model.X0, grid, forcing=demand, labels=labels)

    eye = np.eye(n)
    M = np.block([[np.zeros((n, n)), eye], [-2.0 * model.B, -2.0 * eye]])
    if callable(demand):
        def forcing(ts: np.ndarray) -> np.ndarray:
            return np.hstack([np.zeros((len(ts), n)), 2.0 * demand(ts)])
    else:
        forcing = np.concatenate([np.zeros(n), 2.0 * demand])
    full = rk4_linear(
        M,
        np.concatenate([model.X0, model.Xdot0]),
        grid,
        forcing=forcing,
        labels=labels + tuple(f"v{i + 1}" for i in range(n)),
    )
    return Trajectory(grid, full.values[:, :n], labels)


def _volterra_march(model: LeontiefModel, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """March U(t) = G(t) - 2*int_0^t [I + B(t-eta)] U(eta) deta and
    reconstruct X = int_0^t (t-eta) U deta + c0*t + c1 by trapezoid.

    Returns (nodes, X values).  The kernel's (t-eta) part vanishes at the
    new node, so the implicit step reduces to division by (1 + h).
    """
    B = model.B
    n = model.n
    c1 = model.X0
    c0 = model.Xdot0
    t = np.linspace(0.0, 1.0, steps + 1)
    h = 1.0 / steps
    U = np.empty((steps + 1, n))
    X = np.empty((steps + 1, n))

    def G(tk: float) -> np.ndarray:
        return 2.0 * (model.demand_at(tk) - c0 - B @ (c0 * tk + c1))

    U[0] = G(0.0)
    X[0] = c1
    S0 = 0.5 * U[0]  # running trapezoid sums over interior history
    S1 = 0.5 * t[0] * U[0]
    for k in range(1, steps + 1):
        tk = t[k]
        known = h * (S0 + B @ (tk * S0 - S1))
        U[k] = (G(tk) - 2.0 * known) / (1.0 + h)
        X[k] = h * (tk * S0 - S1) + c0 * tk + c1
        S0 = S0 + U[k]
        S1 = S1 + tk * U[k]
    return t, X


def volterra_solve(model: LeontiefModel, steps: int = 400) -> Trajectory:
    """Solve the order-2 balance through its Volterra second-kind form.

    An internal half-resolution rerun guards the quadrature step: if the
    two solutions differ by more than 10% (sup norm, relative) the grid
    is too coarse and a ResolutionError is raised.
    """
    if model.order != 2:
        raise ValidationError("volterra_solve requires truncation order 2", key="order")
    if model.Xdot0 is None:
        raise ValidationError("order 2 needs Xdot0", key="xdot0")
    if steps < 4:
        raise ValidationError("need at least 4 steps", key="steps")
    t, X = _volterra_march(model, steps)
    t_c, X_c = _volterra_march(model, steps // 2)
    scale = max(float(np.max(np.abs(X))), 1e-300)
    coarse_on_fine = np.column_stack(
        [np.interp(t, t_c, X_c[:, j]) for j in range(model.n)]
    )
    drift = float(np.max(np.abs(X - coarse_on_fine))) / scale
    if drift > 0.10:
        raise ResolutionError(
            f"half-resolution drift {drift:.3e} exceeds 10%; refine the grid"
        )
    labels = tuple(f"x{i + 1}" for i in range(model.n))
    return Trajectory(TimeGrid(0.0, 1.0, steps), X, labels)


@dataclass(frozen=True)
class DemandScaleReport:
    alpha: float
    alpha_raw: float
    feasible: bool
    aggregate_target: float
    aggregate_base: float
    aggregate_full: float
    per_component_residuals: tuple[float, ...]


def _component_integrals(traj: Trajectory) -> np.ndarray:
    t = traj.times
    return np.array(
        [np.trapezoid(traj.values[:, j], t) for j in range(traj.values.shape[1])]
    )


def demand_scale(
    model: LeontiefModel,
    X_star: Sequence[float],
    tol: float = 1e-8,
    steps: int = 400,
) -> DemandScaleReport:
    """Choose alpha in (0, 1] multiplying the demand so that the aggregate
    produced volume sum_i int_0^1 x_i matches sum_i x*_i.

    The dynamic solution is affine in the demand, so two solves (alpha = 0
    and alpha = 1) determine alpha exactly.  A required alpha outside
    (0, 1] yields an infeasibility report carrying the unclamped value;
    the per-component residuals of the matching are always reported.
    """
    X_star = np.asarray(X_star, dtype=float)
    if X_star.shape != (model.n,):
        raise ValidationError(f"X_star must have {model.n} components", key="x-star")
    if model.order not in (1, 2):
        raise ValidationError("demand_scale supports truncation orders 1 and 2", key="order")

    def scaled_model(alpha: float) -> LeontiefModel:
        fn = model.demand_fn
        return LeontiefModel(
            A=model.A,
            demand=lambda t, _a=alpha: _a * fn(t),
            X0=model.X0,
            Xdot0=model.Xdot0,
            t0=model.t0,
            order=model.order,
        )

    base = _component_integrals(dynamic_solve(scaled_model(0.0), steps=steps))
    full = _component_integrals(dynamic_solve(scaled_model(1.0), steps=steps))
    response = full - base
    target = float(np.sum(X_star))
    agg_base = float(np.sum(base))
    agg_full = float(np.sum(full))
    agg_response = agg_full - agg_base
    if abs(agg_response) < 1e-14 * max(1.0, abs(agg_base)):
        raise DegenerateDataError("demand scaling has zero aggregate response")
    alpha_raw = (target - agg_base) / agg_response
    feasible = 0.0 < alpha_raw <= 1.0 + tol
    alpha = min(1.0, max(alpha_raw, 0.0)) if not feasible else min(alpha_raw, 1.0)
    residuals = base + alpha * response - X_star
    return DemandScaleReport(
        alpha=float(alpha),
        alpha_raw=float(alpha_raw),
        feasible=feasible,
        aggregate_target=target,
        aggregate_base=agg_base,
        aggregate_full=agg_full,
        per_component_residuals=tuple(float(r) for r in residuals),
    )
