"""Simplified long-wave system: productivity growth x relaxes toward q*y,
capital-endowment growth y toward s*z, with the profit-rate growth
z = x - y eliminated algebraically.

With s = -2 and p = r the 2x2 system has purely imaginary eigenvalues:
regular undamped cycles whose period (years if p and r are yearly rates)
is 2*pi/|Im|.  q defaults to 1, which puts the period at 2*pi/p for
p = r: 52.4 to 62.8 years over p in [0.10, 0.12], 18.5 years at 0.34.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _require, _require_finite_result
from .odelin import TimeGrid, Trajectory, rk4_linear

REGIME_REAL_TOL = 1e-10


@dataclass(frozen=True)
class LongWaveParams:
    """Structural coefficients: relaxation rates p, r >= 0 (per year) and
    the unrestricted couplings q, s (s = -2 is the regular-cycle case)."""

    p: float
    r: float
    q: float = 1.0
    s: float = -2.0

    def __post_init__(self):
        _require("nonnegative", p=self.p, r=self.r)
        _require("finite", q=self.q, s=self.s)


@dataclass(frozen=True)
class CycleReport:
    eigenvalues: tuple[complex, complex]
    regime: str  # undamped_periodic | damped_oscillatory | growing_oscillatory | non_oscillatory
    period_years: float | None


def lw_matrix(params: LongWaveParams) -> np.ndarray:
    """Coefficient matrix of (x, y) after substituting z = x - y:
    [[-p, p*q], [r*s, -r*(1+s)]]."""
    p, q, r, s = params.p, params.q, params.r, params.s
    M = np.array([[-p, p * q], [r * s, -r * (1.0 + s)]])
    _require_finite_result(lw_matrix=M)
    return M


def lw_classify(params: LongWaveParams) -> CycleReport:
    """Classify the dynamics by the eigenvalues of the reduced matrix.

    Real parts within 1e-10 (relative to the matrix scale) of zero count
    as undamped.  The period 2*pi/|Im| is reported whenever the
    eigenvalues have an imaginary part, in the time unit of p and r.
    """
    M = lw_matrix(params)
    eigs = np.linalg.eigvals(M)
    eigs = tuple(sorted(eigs, key=lambda z: (z.imag, z.real)))
    scale = max(1.0, float(np.max(np.abs(M))))
    re = max(e.real for e in eigs)
    im = max(abs(e.imag) for e in eigs)
    if im > REGIME_REAL_TOL * scale:
        period = 2.0 * math.pi / im
        if abs(re) <= REGIME_REAL_TOL * scale:
            regime = "undamped_periodic"
        elif re < 0.0:
            regime = "damped_oscillatory"
        else:
            regime = "growing_oscillatory"
    else:
        period = None
        regime = "non_oscillatory"
    return CycleReport(eigenvalues=eigs, regime=regime, period_years=period)


def lw_simulate(
    params: LongWaveParams,
    x0: float,
    y0: float,
    grid: TimeGrid,
) -> Trajectory:
    """Integrate the (x, y) system with RK4 and emit z = x - y alongside."""
    _require("finite", x0=x0, y0=y0)
    traj = rk4_linear(lw_matrix(params), [x0, y0], grid, labels=("x", "y"))
    values = np.empty((len(traj.values), 3))
    values[:, :2] = traj.values
    np.subtract(values[:, 0], values[:, 1], out=values[:, 2])
    return Trajectory(grid, values, ("x", "y", "z"))


def zero_crossing_period(traj: Trajectory, component: str = "x") -> float:
    """Estimate the oscillation period from the zero crossings of a
    component minus its mean, with linear interpolation between nodes.

    Averages the spacings between alternate crossings; needs at least
    three crossings, i.e. a horizon longer than one period.
    """
    f = traj.column(component)
    f = f - float(np.mean(f))
    t = traj.times
    crossings: list[float] = []
    for k in range(len(f) - 1):
        if f[k] == 0.0:
            crossings.append(float(t[k]))
        elif f[k] * f[k + 1] < 0.0:
            # linear interpolation of the crossing time
            frac = f[k] / (f[k] - f[k + 1])
            crossings.append(float(t[k] + frac * (t[k + 1] - t[k])))
    if len(crossings) < 3:
        raise ValidationError(
            "fewer than three zero crossings on the grid; extend the horizon"
        )
    spans = [crossings[i + 2] - crossings[i] for i in range(len(crossings) - 2)]
    return float(np.mean(spans))
