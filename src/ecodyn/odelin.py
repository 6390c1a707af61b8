"""Shared linear-ODE core.

Characteristic roots of constant-coefficient equations (via companion
matrix eigenvalues), analytic solutions built from simple roots, and a
fixed-step classical Runge-Kutta integrator for first-order vector
systems.  Everything downstream (growth models, business-cycle systems,
the input-output dynamics) runs on these three primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BlowUpError,
    DegenerateDataError,
    UnsupportedError,
    ValidationError,
)

# Two computed roots closer than this, relative to their modulus, are one
# repeated root.  The companion eigenvalues of an exact double root split by
# about sqrt(eps) ~ 1.5e-8 relative, up to 6.5e-8 seen (critical damping
# p^2 + a p + a^2/4 for a in [0.1, 20], and (p + 1)^2 (p + s) up to s = 1e5),
# whatever the scale of the root, so the bound is relative with a 15x margin.
ROOT_CLUSTER_RTOL = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps + 1`` nodes on [t_start, t_end]."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValidationError("steps must be a positive integer", key="steps")
        if not self.t_end > self.t_start:
            raise ValidationError("t_end must exceed t_start", key="t-end")

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.steps + 1)


@dataclass
class Trajectory:
    """Per-node values on a time grid; the universal simulator output."""

    grid: TimeGrid
    values: np.ndarray  # shape (steps + 1, d)
    labels: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.shape[0] != self.grid.steps + 1:
            raise ValidationError("values length must equal steps + 1")
        if len(self.labels) != self.values.shape[1]:
            raise ValidationError("one label per component required")
        self.labels = tuple(self.labels)

    @property
    def times(self) -> np.ndarray:
        return self.grid.nodes

    def column(self, label: str) -> np.ndarray:
        try:
            j = self.labels.index(label)
        except ValueError:
            raise ValidationError(f"no component labelled {label!r}") from None
        return self.values[:, j]

    def final(self) -> np.ndarray:
        return self.values[-1]


@dataclass(frozen=True)
class OdeSpec:
    """Constant-coefficient linear ODE c_n z^(n) + ... + c_0 z = f(t).

    ``coeffs`` lists (c_n, ..., c_0), highest derivative first.
    """

    coeffs: tuple[float, ...]
    forcing: Callable[[float], float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) < 2:
            raise ValidationError("need order >= 1 (at least two coefficients)")
        if self.coeffs[0] == 0.0:
            raise ValidationError("leading coefficient must be nonzero")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def normalized(self) -> tuple[float, ...]:
        """Coefficients (a_0, ..., a_{n-1}) of z^(n) + sum a_k z^(k) = f/c_n."""
        cn = self.coeffs[0]
        return tuple(c / cn for c in reversed(self.coeffs[1:]))


def char_roots(spec: OdeSpec) -> list[tuple[complex, int]]:
    """Roots of sum c_k p^k = 0 with multiplicities.

    Computed as companion-matrix eigenvalues; a root joins a cluster when
    its distance to the cluster's center is at most ``ROOT_CLUSTER_RTOL``
    times the larger of the two moduli, so the test does not depend on
    the scale of the roots.
    Returned sorted by (real part, imaginary part).
    """
    raw = np.roots(spec.coeffs).astype(complex)
    clusters: list[list[complex]] = []
    for r in sorted(raw, key=lambda z: (z.real, z.imag)):
        for members in clusters:
            center = sum(members) / len(members)
            if abs(r - center) <= ROOT_CLUSTER_RTOL * max(abs(r), abs(center)):
                members.append(r)
                break
        else:
            clusters.append([r])
    out = [(sum(m) / len(m), len(m)) for m in clusters]
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def analytic_solution(
    spec: OdeSpec,
    init: Sequence[float],
    grid: TimeGrid,
    derivatives: int = 0,
) -> Trajectory:
    """Evaluate sum c_i exp(p_i t) fitted to initial data z(0)..z^(n-1)(0).

    Only homogeneous equations with simple characteristic roots are
    supported; with ``derivatives`` = m the trajectory carries columns
    z, z', ..., z^(m).
    """
    if spec.forcing is not None:
        raise UnsupportedError("analytic_solution handles homogeneous equations only")
    n = spec.order
    if len(init) != n:
        raise ValidationError(f"need {n} initial values, got {len(init)}")
    roots = char_roots(spec)
    if any(m > 1 for _, m in roots):
        raise UnsupportedError(
            "repeated characteristic roots are not supported by the analytic path"
        )
    p = np.array([r for r, _ in roots], dtype=complex)
    vander = np.vstack([p**i for i in range(n)])  # row i: z^(i)(0) coefficients
    try:
        c = np.linalg.solve(vander, np.asarray(init, dtype=complex))
    except np.linalg.LinAlgError:
        raise DegenerateDataError("singular Vandermonde system for initial data") from None

    t = grid.nodes
    cols = []
    for m in range(derivatives + 1):
        zm = (c * p**m) @ np.exp(np.outer(p, t))
        cols.append(zm)
    z = np.column_stack(cols)
    scale = max(1.0, float(np.max(np.abs(z))))
    imag_rel = float(np.max(np.abs(z.imag))) / scale
    if imag_rel >= 1e-10:
        raise DegenerateDataError(
            f"imaginary residue {imag_rel:.3e} of the real solution exceeds 1e-10"
        )
    labels = ["z"] + [f"z_d{m}" for m in range(1, derivatives + 1)]
    return Trajectory(grid, z.real, tuple(labels))


def rk4_integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0: Sequence[float],
    grid: TimeGrid,
    labels: Sequence[str] | None = None,
    substeps: int = 1,
) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta; global error O(h^4).

    ``substeps`` subdivides every grid step internally while recording
    only the grid nodes.  A non-finite state raises BlowUpError carrying
    the last valid node.
    """
    if substeps < 1:
        raise ValidationError("substeps must be >= 1", key="substeps")
    x = np.asarray(x0, dtype=float)
    if x.ndim == 0:
        x = x[None]
    d = x.shape[0]
    nodes = grid.nodes
    values = np.empty((grid.steps + 1, d))
    values[0] = x
    h = grid.h / substeps
    for k in range(grid.steps):
        t = nodes[k]
        for s in range(substeps):
            ts = t + s * h
            k1 = np.asarray(rhs(ts, x), dtype=float)
            k2 = np.asarray(rhs(ts + 0.5 * h, x + 0.5 * h * k1), dtype=float)
            k3 = np.asarray(rhs(ts + 0.5 * h, x + 0.5 * h * k2), dtype=float)
            k4 = np.asarray(rhs(ts + h, x + h * k3), dtype=float)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise BlowUpError(
                f"integration blew up between t={nodes[k]!r} and t={nodes[k + 1]!r}",
                t_last=float(nodes[k]),
                index_last=k,
                x_last=values[k].copy(),
            )
        values[k + 1] = x
    if labels is None:
        labels = [f"x{i}" for i in range(d)] if d > 1 else ["x"]
    return Trajectory(grid, values, tuple(labels))


def sup_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm difference of two arrays relative to the sup-norm of the first."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(a))), math.ulp(1.0))
    return float(np.max(np.abs(a - b))) / scale
