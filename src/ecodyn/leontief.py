"""Input-output balance X = AX + C: static solves, the Taylor-truncation
reduction to a matrix ODE on normalized time, and its dynamic solves.

These are the Leontief relations of arXiv:0804.3658: the static balance,
its shift X(t + t0) expanded in Taylor terms sum_k (t0^k/k!) X^(k) on
normalized time t_bar = t/t0, and the Volterra form of the truncation.
Solved for its top derivative, the order-m truncation (B = E - A) is
X^(m) = m! C + sum_j K_j X^(m-1-j), K = -m! [c_(m-1) I, ..., c_1 I, B]
from ``taylor_reduce``: [-B] at order 1, and [-2I, -2B] at order 2, the
kernel of the Volterra equation U = G - 2 int_0^t [I + B(t-eta)] U deta
of U = Xdd.  ``_balance_flow`` builds K, the forcing m! C and the initial
data, and both routes step this one system, the moments of X^(m), by its
exact flow on one set of demand samples: ``dynamic_solve`` (orders 1 and
2) by ``odelin._volterra_nodes``, ``volterra_solve`` (order 2) by
``odelin._volterra_ivp``, as the ODE reduction of ``fredholm`` does.
Their values are equal; the only difference is the half-resolution guard
that ``volterra_solve`` adds.

Each input has one owner here.  ``_as_matrix`` is the one rule for a
technology matrix (square, finite, nonnegative; key ``matrix``), used by
``LeontiefModel``, ``metzler_check`` and ``static_solve``.  The demand is
stored once, as the caller's sampler or a constant float vector, and
``LeontiefModel.demand_samples`` is its only accessor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NonConvergenceError,
    SingularMatrixError,
    ValidationError,
    _require,
)
from .odelin import TimeGrid, Trajectory, _volterra_ivp, _volterra_nodes

DemandLike = Callable[[float], np.ndarray] | Sequence[float] | np.ndarray


def _as_matrix(A: np.ndarray) -> np.ndarray:
    """A as a float array, rejected unless square, finite and nonnegative."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("A must be a square matrix", key="matrix")
    if not np.isfinite(A).all():
        raise ValidationError("A has an entry that is not finite", key="matrix")
    if np.any(A < 0.0):
        i, j = np.argwhere(A < 0.0)[0]
        raise ValidationError(f"A[{i},{j}] = {float(A[i, j])!r} is negative", key="matrix")
    return A


@dataclass
class LeontiefModel:
    """Technology matrix A (nonnegative, dimensionless), demand (a sampler
    C(t_bar) on [0, 1], or a constant kept as a float vector), initial data
    and truncation order."""

    A: np.ndarray
    demand: DemandLike
    X0: np.ndarray
    Xdot0: np.ndarray | None = None
    order: int = 1

    def __post_init__(self):
        self.A = _as_matrix(self.A)
        n = self.A.shape[0]
        self.X0 = np.asarray(self.X0, dtype=float)
        if self.X0.shape != (n,):
            raise ValidationError(f"X0 must have {n} components", key="x0")
        if not np.isfinite(self.X0).all():
            raise ValidationError("X0 has a component that is not finite", key="x0")
        if self.Xdot0 is not None:
            self.Xdot0 = np.asarray(self.Xdot0, dtype=float)
            if self.Xdot0.shape != (n,):
                raise ValidationError(f"Xdot0 must have {n} components", key="xdot0")
            if not np.isfinite(self.Xdot0).all():
                raise ValidationError("Xdot0 has a component that is not finite", key="xdot0")
        _require("positive", order=self.order)
        if not callable(self.demand):
            self.demand = np.asarray(self.demand, dtype=float)
            if self.demand.shape != (n,):
                raise ValidationError(f"constant demand must have {n} components", key="demand")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def B(self) -> np.ndarray:
        return np.eye(self.n) - self.A

    def demand_samples(self, ts: Sequence[float] | np.ndarray) -> np.ndarray:
        """C(t_bar) at every time of ``ts``, stacked len(ts) x n.

        Each sample must have n components, all finite and none below
        -1e-12.  The checks run once over the stack and name the first bad
        t_bar, as checking the samples one by one in order would.  A
        constant demand is sampled (and checked) once, at ts[0].
        """
        times = np.asarray(ts, dtype=float).tolist()
        n = self.n
        if callable(self.demand):
            rows = [np.asarray(self.demand(t), dtype=float) for t in times]
        else:
            rows = [self.demand]
        shape_bad = next((i for i, c in enumerate(rows) if c.shape != (n,)), len(rows))
        C = np.array(rows[:shape_bad]).reshape(shape_bad, n)
        nonfinite = ~np.isfinite(C).all(axis=1)
        negative = (C < -1e-12).any(axis=1)
        first_nonfinite = int(np.argmax(nonfinite)) if nonfinite.any() else shape_bad
        first_negative = int(np.argmax(negative)) if negative.any() else shape_bad
        if first_nonfinite < shape_bad and first_nonfinite <= first_negative:
            raise ValidationError(f"demand is not finite at t_bar = {times[first_nonfinite]!r}")
        if first_negative < shape_bad:
            raise ValidationError(
                f"demand has a negative component at t_bar = {times[first_negative]!r}"
            )
        if shape_bad < len(rows):
            raise ValidationError(f"demand sampler must return {n} components")
        return C if callable(self.demand) else np.repeat(C, len(times), axis=0)


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
    A = _as_matrix(A)
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


def _lu_pivots(B: np.ndarray) -> np.ndarray:
    """|u_kk| of the LU factorization of B with partial (row) pivoting, by
    one rank-1 update per column; a zero pivot leaves its column as it is
    and the elimination goes on, as in LAPACK's getrf."""
    U = np.array(B, dtype=float)
    n = U.shape[0]
    pivots = np.empty(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(U[k:, k])))
        if p != k:
            U[[k, p], k:] = U[[p, k], k:]
        pivot = U[k, k]
        pivots[k] = abs(pivot)
        if pivot != 0.0:
            col = U[k + 1 :, k] / pivot
            U[k + 1 :, k + 1 :] -= col[:, None] * U[k, k + 1 :]
    return pivots


def static_solve(
    A: np.ndarray,
    c: Sequence[float],
    method: str = "direct",
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> tuple[np.ndarray, IterationLog | None]:
    """Solve the balance X = AX + c, that is (E - A) X = c.

    "direct" factors B = E - A by LU with partial pivoting (numpy, one
    rank-1 update per column) and rejects B when a pivot |u_kk| is zero
    or below 1e-12 * ||B||_F; X then comes from ``np.linalg.solve(B, c)``
    (LAPACK gesv), and a failure there is a singular matrix too.
    "iterate" runs X_{s+1} = A X_s + c from X_0 = c until the step
    difference drops to ``tol`` (under the Metzler condition this bounds
    the balance residual by ``tol`` too).  A goes through the one matrix
    rule before it is factored or iterated; c must be finite, tol
    nonnegative and max_iter positive, whichever the method.
    """
    A = _as_matrix(A)
    c = np.asarray(c, dtype=float)
    n = A.shape[0]
    if c.shape != (n,):
        raise ValidationError(f"demand must have {n} components", key="demand")
    if not np.isfinite(c).all():
        raise ValidationError("demand has a component that is not finite", key="demand")
    _require("nonnegative", tol=tol)
    _require("positive", max_iter=max_iter)
    if method == "direct":
        B = np.eye(n) - A
        pivots = _lu_pivots(B)
        # ||B||_F of B scaled to its largest entry: the plain sum of squares
        # overflows from entries of about 1e154 on
        scale = float(np.max(np.abs(B)))
        threshold = scale * (1e-12 * float(np.linalg.norm(B / scale))) if scale else 0.0
        if np.any(pivots < threshold):
            raise SingularMatrixError(
                f"E - A is numerically singular (pivot {pivots.min():.3e} below "
                f"{threshold:.3e})"
            )
        if not pivots.all():
            raise SingularMatrixError("E - A is singular (zero pivot)")
        try:
            return np.linalg.solve(B, c), None
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"E - A is singular ({exc})") from None
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


def _balance_flow(model: LeontiefModel) -> tuple:
    """Kernel coefficients K = -m! [c_(m-1) I, ..., c_1 I, B], forcing m! C
    and initial data (X0, Xdot0 at order 2) of the order-m balance in the
    form of ``odelin._volterra_nodes``.  A constant demand is checked once
    here; a sampler is checked on every stack of samples the march asks for.
    """
    reduction = taylor_reduce(model)
    top = 1.0 / reduction.derivative_coeffs[-1]  # m!, exactly at orders 1 and 2
    lower = reversed(reduction.derivative_coeffs[:-1])
    K = -top * np.stack([*(c * np.eye(model.n) for c in lower), reduction.B])
    demand = model.demand_samples if callable(model.demand) else model.demand_samples([0.0])[0]
    forcing = (lambda t: top * demand(t)) if callable(demand) else top * demand
    return K, forcing, [model.X0, model.Xdot0][: reduction.order]


def dynamic_solve(model: LeontiefModel, steps: int = 400) -> Trajectory:
    """Solve the truncated balance on t_bar in [0, 1] by the exact flow of
    the moments of its top derivative (``odelin._volterra_nodes``), from
    the coefficients of ``taylor_reduce`` (``_balance_flow``).

    Orders 1 and 2 are accepted.  A constant demand is checked once, and
    the flow takes it exactly.  A demand sampler is called once at every
    node and every step midpoint, the samples are checked together by
    ``LeontiefModel.demand_samples``, and the flow integrates their
    quadratic on each step exactly: exact for a demand that is linear
    between the nodes, as a demand file is, and O(h^4) for a smooth one.
    A non-finite X or top derivative raises BlowUpError.
    """
    if model.order not in (1, 2):
        raise ValidationError("dynamic_solve supports truncation orders 1 and 2", key="order")
    if model.order == 2 and model.Xdot0 is None:
        raise ValidationError("order 2 needs Xdot0", key="xdot0")
    grid = TimeGrid(0.0, 1.0, steps)
    X, _ = _volterra_nodes(*_balance_flow(model), grid, "integration")
    return Trajectory(grid, X, tuple(f"x{i + 1}" for i in range(model.n)))


def volterra_solve(model: LeontiefModel, steps: int = 400) -> Trajectory:
    """Solve the order-2 balance through its Volterra second-kind form
    (arXiv:0804.3658), U = Xdd = G - 2 int_0^t [I + B(t-eta)] U deta with
    G = 2 (C - Xdot0 - B (X0 + t Xdot0)), by the core's one Volterra solve
    ``odelin._volterra_ivp``: the march of ``dynamic_solve``, whose values
    it returns, and a rerun at half the steps.  A demand sampler is called
    once per march at every node and step midpoint.  A non-finite X or U
    raises BlowUpError, and X drifting by more than 10% (sup norm,
    relative) from its rerun raises ResolutionError.
    """
    if model.order != 2:
        raise ValidationError("volterra_solve requires truncation order 2", key="order")
    if model.Xdot0 is None:
        raise ValidationError("order 2 needs Xdot0", key="xdot0")
    if steps < 4:
        raise ValidationError("need at least 4 steps", key="steps")
    grid, X, _ = _volterra_ivp(*_balance_flow(model), 1.0, steps, "integration")
    return Trajectory(grid, X, tuple(f"x{i + 1}" for i in range(model.n)))
