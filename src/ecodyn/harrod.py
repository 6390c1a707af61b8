"""Capital-income growth models: exponential, corrected, and discrete forms.

The classical model equates capital to the income flow through a constant
ratio and yields exponential growth Y0*exp(mu*t/nu).  Relating capital to
the integral of income instead yields Y0/(1 - sigma*t)^2 with
sigma = mu/nu_star: finite forecast horizon, pole at sigma^-1.  The yearly
discrete recursion produces a geometric partial sum whose mismatch with
the exponential is quantified by the adequacy residuals.

Time is the dimensionless year count t_hat = t/t_star throughout; physical
rendering is a presentation concern of the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, PoleError, ValidationError, _require, _require_finite_result
from .errors import _require_array_length
from .odelin import TimeGrid, Trajectory, _raise_on_blow_up, sup_rel_diff

POLE_GUARD_REL = 1e-6


@dataclass(frozen=True)
class HarrodParams:
    """Accumulation share mu in [0,1), base capital/income ratio nu_star
    (years), initial income intensity Y0 (money/time) and initial capital
    K0 (money)."""

    mu: float
    nu_star: float
    Y0: float = 1.0
    K0: float = 1.0

    def __post_init__(self):
        _require("[0, 1)", mu=self.mu)
        _require("positive", nu_star=self.nu_star, Y0=self.Y0, K0=self.K0)

    @property
    def sigma(self) -> float:
        return self.mu / self.nu_star


def classical_trajectory(
    params: HarrodParams,
    nu: float,
    grid: TimeGrid,
) -> Trajectory:
    """Exponential-growth income path Y(t_hat) = Y0 * exp(mu*t_hat/nu).

    Emits Y together with its split Y = C + S into consumption
    C = (1 - mu) Y and accumulation S = mu Y, with investment I = S.
    The closed form is validated against an independent RK4 integration
    of Ydot = (mu/nu) Y to 1e-8 relative.
    """
    _require("positive", nu=nu)
    Y = _checked_exponential(params.Y0, params.mu / nu, grid)
    mu = params.mu
    # one (steps+1, 4) allocation; Y * 1.0 is Y, and Y * c is c * Y bit for bit
    values = Y[:, None] * np.array([1.0, 1.0 - mu, mu, mu])
    return Trajectory(grid, values, ("Y", "C", "S", "I"))


@dataclass(frozen=True)
class CorrectedHarrodResult:
    trajectory: Trajectory
    blowup_time: float
    forecast_horizon: float


def corrected_trajectory(
    params: HarrodParams,
    grid: TimeGrid,
) -> CorrectedHarrodResult:
    """Income path Y(t_hat) = Y0 / (1 - sigma*t_hat)^2, sigma = mu/nu_star.

    The solution loses meaning at t_hat = 1/sigma, so grids reaching
    (1 - 1e-6)/sigma are rejected with a PoleError.  Returns the pole
    location and the conditional forecast horizon 0.5/sigma alongside the
    trajectory.  The closed form of this corrected model is validated
    against RK4 of Ydot = 2*sigma/(1 - sigma*t_hat) * Y, started from Y[0],
    to 1e-6 relative.
    """
    sigma = params.sigma
    blowup = math.inf if sigma == 0.0 else 1.0 / sigma
    horizon = math.inf if sigma == 0.0 else 0.5 / sigma
    guard = blowup * (1.0 - POLE_GUARD_REL)
    if grid.t_start < 0.0:
        raise ValidationError("grid must start at t_hat >= 0", key="t-start")
    if grid.t_end >= guard:
        raise PoleError(
            f"grid reaches t_hat={grid.t_end!r}, inside the guard of the pole "
            f"at t_hat = {blowup!r}",
            pole_location=blowup,
        )
    with np.errstate(over="ignore"):  # an overflow is a blow-up, raised below
        Y = params.Y0 / (1.0 - sigma * grid.nodes) ** 2
    if sigma > 0.0:
        _check_against_rk4(Y, lambda s: 2.0 * sigma / (1.0 - sigma * s), grid, "1e-6")
    traj = Trajectory(grid, Y, ("Y",))
    return CorrectedHarrodResult(traj, blowup_time=blowup, forecast_horizon=horizon)


def _checked_exponential(Y0: float, rate: float, grid: TimeGrid) -> np.ndarray:
    """The closed form Y = Y0 * exp(rate*t) on ``grid``, checked by
    ``_check_against_rk4`` to 1e-8 relative.  A rate that is not finite is
    rejected before Y is formed."""
    _require_finite_result(rate=rate)
    with np.errstate(over="ignore"):  # an overflow is a blow-up, raised by the check
        Y = Y0 * np.exp(rate * grid.nodes)
    _check_against_rk4(Y, rate, grid, "1e-8")
    return Y


# the cross-check's RK4 keeps rate*h_eff below the target, in at most cap substeps
RK4_SUBSTEP_TARGET = 0.02
RK4_SUBSTEP_CAP = 64


def _check_against_rk4(Y: np.ndarray, rate, grid: TimeGrid, tol: str) -> None:
    """Validate the closed form Y of Ydot = rate*Y on ``grid`` against RK4
    started from Y[0].  ``rate`` is a finite constant or a function of time,
    whose largest size at the nodes sets the substeps, and ``tol`` is the
    relative tolerance as shown in the message.  A Y that is not finite is a
    BlowUpError, raised before a disagreement beyond ``tol``, a CrossCheckError."""
    rate_max = float(np.max(np.abs(rate(grid.nodes)))) if callable(rate) else abs(rate)
    numeric = _rk4_growth(rate, Y[0], grid, _substeps_for(rate_max, grid.h))
    _raise_on_blow_up(Y[:, None], grid.nodes, "closed form")
    dev = sup_rel_diff(Y, numeric)
    if not dev <= float(tol):
        raise CrossCheckError(f"closed form vs RK4 deviation {dev:.3e} exceeds {tol}")


# overflow shows as a non-finite state, which raises BlowUpError
@np.errstate(over="ignore", invalid="ignore")
def _rk4_growth(rate, y0: float, grid: TimeGrid, substeps: int) -> np.ndarray:
    """Classical fixed-step RK4 for the scalar growth y' = a(t) y from
    y(t_start) = y0; global error O(h^4).  It is the package's one
    Runge-Kutta step, kept because the exact step of y' = a y would be the
    very closed form it checks.

    ``rate`` is a constant or maps an array of times to an array of rates,
    evaluated at each substep's start, midpoint and end.  Each grid step
    is ``substeps`` RK4 steps, whose gains fold into one gain minus one,
    and the path at the grid nodes is y0 times the running product of the
    step gains.  A non-finite state raises BlowUpError carrying the last
    finite node.
    """
    nodes, h = grid.nodes, grid.h / substeps
    total = 0.0
    for s in range(substeps):
        if callable(rate):
            ts = nodes[:-1] + s * h
            a0, am, a1 = rate(ts), rate(ts + 0.5 * h), rate(ts + h)
        else:
            a0 = am = a1 = rate
        r2 = am * (1.0 + (0.5 * h) * a0)
        r3 = am * (1.0 + (0.5 * h) * r2)
        r4 = a1 * (1.0 + h * r3)
        e = (h / 6.0) * (a0 + 2.0 * r2 + 2.0 * r3 + r4)
        total += e + total * e
    y = np.empty(grid.steps + 1)
    y[0] = y0
    y[1:] = 1.0 + total
    np.cumprod(y, out=y)
    _raise_on_blow_up(y[:, None], nodes)
    return y


def _substeps_for(rate: float, h: float) -> int:
    """Substeps keeping rate*h_eff below ``RK4_SUBSTEP_TARGET`` so RK4 meets
    the check tolerances; ``rate`` is at least 0."""
    steps = min(rate * h / RK4_SUBSTEP_TARGET, RK4_SUBSTEP_CAP)  # rate*h may overflow
    return max(1, math.ceil(steps))


@dataclass(frozen=True)
class DiscretePath:
    """Yearly capital/income/investment volumes of the discrete recursion."""

    years: np.ndarray
    K: np.ndarray
    Y_tilde: np.ndarray
    I_tilde: np.ndarray


def discrete_path(params: HarrodParams, nu: float, n: int) -> DiscretePath:
    """Yearly path K_n = K0 * sum_{i<=n} alpha^i with alpha = mu/nu over
    n >= 0 years (checked as ``years``).

    Y_tilde_n = K_n/nu and I_tilde_n = K_n*mu/nu.  K comes from the
    recursion K_i = K0 + alpha K_(i-1), compensated (``_compensated_path``)
    so that each K_i is within about one rounding of the exact partial
    sum, at any horizon: the plain loop's own rounding grew to 2.4e-12 at
    100 000 years with alpha within 1e-5 of 1.  It is checked to 1e-12
    relative against the geometric sum K0 * ``_geometric_sum(alpha, i+1)``.
    The plain K0 (1 - alpha^(i+1))/(1 - alpha) would lose digits to
    cancellation near alpha = 1 (up to 5e-9 within 10 000 years); the
    stable form stays within 2.5e-13.  A disagreement is a CrossCheckError,
    and a path that overflows is a BlowUpError.
    """
    _require("positive", nu=nu)
    _require("nonnegative", years=n)
    alpha = params.mu / nu
    if alpha > 1.0:
        raise ValidationError(
            f"alpha = mu/nu = {alpha!r} exceeds 1, outside the model's range",
            key="nu",
        )
    _require_array_length(n + 1, "years")
    years = np.arange(n + 1)
    KY = np.empty((n + 1, 2))  # K and Y_tilde side by side, for the blow-up check
    K, Y_tilde = KY.T
    # K0 = m 2^e: the recursion runs on m in [0.5, 1), where no product or
    # split overflows, and K is scaled back by 2^e, exactly up to overflow
    m, e = math.frexp(params.K0)
    _compensated_path(m, alpha, K)
    with np.errstate(over="ignore"):  # an overflow is a blow-up, raised below
        np.ldexp(K, e, out=K)
        np.divide(K, nu, out=Y_tilde)
    _raise_on_blow_up(KY, years, "capital path")
    dev = sup_rel_diff(params.K0 * _geometric_sum(alpha, years + 1), K)
    if not dev <= 1e-12:
        raise CrossCheckError(f"recursion vs closed form deviation {dev:.3e} exceeds 1e-12")
    return DiscretePath(years=years, K=K, Y_tilde=Y_tilde, I_tilde=K * (params.mu / nu))


def _compensated_path(k0: float, alpha: float, K: np.ndarray) -> None:
    """Fill K with k_i = k0 + alpha k_(i-1), k_0 = k0, by the compensated
    Horner scheme (Graillat, Langlois & Louvet, "Compensated Horner
    scheme", 2005).

    Beside the plain recursion's value s_i runs the correction
    c_i = alpha c_(i-1) + (pi_i + sigma_i), where pi_i is the exact
    rounding error of alpha s_(i-1) (Dekker's TwoProduct, on Veltkamp's
    splitting) and sigma_i that of the sum with k0 (Knuth's TwoSum), and
    k_i is the rounded s_i + c_i.  The splitting needs |s_i| far below
    2^996, which k0 < 1 gives for any array length.
    """
    split = 134217729.0  # 2^27 + 1
    t = split * alpha
    a_hi = t - (t - alpha)
    a_lo = alpha - a_hi
    s, c = k0, 0.0
    K[0] = k0
    for i in range(1, K.shape[0]):
        p = alpha * s
        t = split * s
        s_hi = t - (t - s)
        s_lo = s - s_hi
        pi = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
        s = p + k0
        z = s - p
        c = alpha * c + (pi + ((p - (s - z)) + (k0 - z)))
        K[i] = s + c


def _geometric_sum(alpha: float, p: np.ndarray) -> np.ndarray:
    """1 + alpha + ... + alpha^(p-1) = (1 - alpha^p)/(1 - alpha) for each
    entry of ``p``, as -expm1(p log(alpha))/(1 - alpha), which keeps the
    digits that 1 - alpha^p cancels near alpha = 1; p itself at alpha = 1.
    log(0) = -inf makes every alpha^p zero at alpha = 0."""
    if alpha == 1.0:
        return p
    log_alpha = math.log(alpha) if alpha > 0.0 else -math.inf
    return -np.expm1(p * log_alpha) / (1.0 - alpha)


@dataclass(frozen=True)
class AdequacyResidual:
    """How far the exponential yearly path is from the geometric one.

    ``residual_154`` = |alpha*n - ln((1-alpha^(n+1))/(1-alpha))|,
    ``residual_155`` = |alpha - ln((1-alpha^(n+1))/(1-alpha^n))|;
    both strictly positive for alpha in (0,1), n >= 1.
    """

    alpha: float
    n: int
    lhs_exp: float
    rhs_rational: float
    residual_154: float
    residual_155: float

    @property
    def mismatch_ratio(self) -> float:
        return self.lhs_exp / self.rhs_rational


def adequacy_residual(alpha: float, n: int) -> AdequacyResidual:
    """Evaluate the inadequacy residuals (154) and (155) of the paper at
    (alpha, n): the exponential yearly path against the geometric sums
    1 + alpha + ... + alpha^n and 1 + ... + alpha^(n-1), both taken from
    ``_geometric_sum``, the reference of ``discrete_path``.

    alpha must lie in (0, 1) and n be positive: alpha in {0, 1} and n = 0
    are trivial cases.  Past the float range (alpha*n above about 709.78)
    ``lhs_exp`` and ``mismatch_ratio`` are inf; the residuals, which are
    logarithms, stay finite at any horizon.
    """
    _require("(0, 1)", alpha=alpha)
    _require("positive", n=n)
    try:
        lhs_exp = math.exp(alpha * n)
    except OverflowError:
        lhs_exp = math.inf
    rhs_rational, rhs_previous = _geometric_sum(alpha, np.array([n + 1, n])).tolist()
    residual_154 = abs(alpha * n - math.log(rhs_rational))
    residual_155 = abs(alpha - math.log(rhs_rational / rhs_previous))
    return AdequacyResidual(
        alpha=alpha,
        n=n,
        lhs_exp=lhs_exp,
        rhs_rational=rhs_rational,
        residual_154=residual_154,
        residual_155=residual_155,
    )
