"""Simplified long-wave system: productivity growth x relaxes toward q*y,
capital-endowment growth y toward s*z, with the profit-rate growth
z = x - y eliminated algebraically.

With s = -2 and p = r the 2x2 system has purely imaginary eigenvalues:
regular undamped cycles whose period (years if p and r are yearly rates)
is 2*pi/|Im|.  q defaults to 1, which puts the period at 2*pi/p for
p = r: 52.4 to 62.8 years over p in [0.10, 0.12], 18.5 years at 0.34.

It is the long-wave case among the models that arXiv:0804.3658
criticizes for conclusions that hang on the unit of time, the criterion
that ``allen.scale_invariance_check`` measures.  ``lw_classify`` takes the
roots by the package's one rule, ``odelin.quadratic_roots``, from M scaled
by a power of two, so its regime does not hang on the unit.  ``lw_simulate``
steps it by its exact flow e^(hM) (``odelin.linear_flow``), so a cycle that
``lw_classify`` calls undamped keeps its amplitude on the simulated path at
any step size; a Runge-Kutta step would damp it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _require, _require_finite_result
from .odelin import TimeGrid, Trajectory, linear_flow, quadratic_roots

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


@np.errstate(over="ignore")  # a root or a period past the float range is inf
def lw_classify(params: LongWaveParams) -> CycleReport:
    """Classify the dynamics by the roots of l^2 - tr(M) l + det(M) = 0.

    With max|M| = m 2^e, tr and det of M/2^e are formed exactly, rounded
    once and solved by ``quadratic_roots``; the roots times 2^e are M's,
    but for the smaller of a real pair, the exact det over the larger.
    The pair is oscillatory when a root has an imaginary part (a merged
    double root has none), and undamped when |Re| <= REGIME_REAL_TOL max|M|.
    So p and r times 2^k give the same regime and the period over 2^k, to
    the bit.  The period 2*pi/|Im| is in the time unit of p and r.
    """
    from fractions import Fraction  # here: one exact trace and determinant per run

    M = lw_matrix(params)
    m, e = math.frexp(float(np.max(np.abs(M))))
    a, b, c, d = (Fraction(x) / Fraction(2) ** e for x in M.ravel().tolist())
    lo, hi = quadratic_roots(float(-a - d), float(a * d - b * c))
    eigs = tuple(complex(*np.ldexp((z.real, z.imag), e)) for z in (lo, hi))
    if lo != hi and hi.imag == 0.0:
        # a real pair: the smaller root is the exact det over the larger, times
        # 2^e, rounded once, so it keeps its bits where det(M/2^e) underflows
        big = max(lo.real, hi.real, key=abs)
        small = (a * d - b * c) / Fraction(big) * Fraction(2) ** e
        try:
            small = float(small)
        except OverflowError:  # two roots of opposite signs past the float range
            small = math.inf if small > 0 else -math.inf
        eigs = tuple(map(complex, sorted((float(np.ldexp(big, e)), small))))
    period, regime = None, "non_oscillatory"
    if hi.imag > 0.0:
        period = float(np.ldexp(2.0 * math.pi / hi.imag, -e))
        if abs(hi.real) <= REGIME_REAL_TOL * m:
            regime = "undamped_periodic"
        elif hi.real < 0.0:
            regime = "damped_oscillatory"
        else:
            regime = "growing_oscillatory"
    return CycleReport(eigenvalues=eigs, regime=regime, period_years=period)


def lw_simulate(
    params: LongWaveParams,
    x0: float,
    y0: float,
    grid: TimeGrid,
) -> Trajectory:
    """Step the (x, y) system by its exact flow (``odelin.linear_flow``)
    and emit z = x - y alongside.

    An undamped cycle keeps its amplitude over any horizon: for p = r,
    q = 1 and s = -2 the invariant 2x^2 - 2xy + y^2 of the flow holds to
    rounding at every node, however coarse the grid.
    """
    _require("finite", x0=x0, y0=y0)
    traj = linear_flow(lw_matrix(params), [x0, y0], grid, labels=("x", "y"))
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
