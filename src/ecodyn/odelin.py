"""Shared linear-ODE core.

Characteristic roots of the second-order models by the closed form of a
quadratic and one exact-step propagator for linear systems.
``linear_flow`` solves x' = M x + c(t) for a constant M without
right-hand-side callbacks: each step is the affine map x -> x + (E x + q)
with E = e^(hM) - I, computed once per run by scaling and squaring, and q
the forcing integrated against the same flow through the phi-functions of
hM.  Every linear model of arXiv:0804.3658 that has no scalar closed form
goes through it: the second-order Phillips and Bergstrom models on their
companion matrices, repeated roots included, the long-wave cycle, the
truncated input-output balance and the Volterra forms below.  No
Runge-Kutta step is left here: the one RK4 of the package is
``harrod._rk4_growth``, the independent check of the Harrod closed forms,
for which the exact step of y' = a y would be the closed form itself.

The Volterra form of the Leontief balance and the reduction of a
constant-coefficient ODE (arXiv:0804.3658) are one computation: phi =
z^(n) solves phi = q + int_0^t K(t - eta) phi deta, K a polynomial in
t - eta, and z = J_n[phi] + sum_i c_i t^i/i! with c_i = z^(i)(0).  The
moments M_m of phi's history under (t - eta)^m/m! obey a linear system
driven by q, so ``_volterra_nodes`` steps that system by ``linear_flow``
(the exponential integrator of Hochbruck & Ostermann, Acta Numerica 19,
2010) and reads z and phi off its nodes, and ``_volterra_ivp`` adds the
half-resolution guard.  The ODE reduction and the balance's Volterra
route call ``_volterra_ivp``; the balance's ODE route calls
``_volterra_nodes``.

A function of time (``linear_flow``'s forcing, the Leontief demand, an
``OdeSpec``'s f) is called once per march with the increasing array of
every node and step midpoint; ``_time_samples`` reads every return, as
it reads the kernel profiles and free terms of ``fredholm`` at width 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BlowUpError,
    ResolutionError,
    ValidationError,
    _require,
    _require_array_length,
)

# Two computed roots within twice this distance of their larger modulus are one
# double root: their spread about their center is at most this, relative.  An
# exact double root of p^2 + a p + b reaches ``quadratic_roots`` with b rounded,
# so the discriminant is off by O(eps) and the pair splits by about sqrt(eps),
# whatever the scale of the root: up to 2.5e-8 seen for b = a**2/4 over a in
# [0.1, 20], inside the bound with a wide margin.
ROOT_CLUSTER_RTOL = 1e-6


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``steps + 1`` nodes on [t_start, t_end].

    Every march builds its nodes and step here, so its count and its ends
    are checked before any work runs.  On a grid from 0 the step is
    t_end / steps bit for bit.
    """

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        _require("positive", steps=self.steps)
        if not all(map(math.isfinite, (self.t_start, self.t_end, self.h))):
            raise ValidationError(
                f"grid ends and step must be finite, got t_start={float(self.t_start)!r}, "
                f"t_end={float(self.t_end)!r}, step={float(self.h)!r}",
                key="t-end",
            )
        if not self.t_end > self.t_start:
            raise ValidationError("t_end must exceed t_start", key="t-end")

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @property
    def nodes(self) -> np.ndarray:
        _require_array_length(self.steps + 1, "nodes")
        with np.errstate(over="ignore"):  # k*step at the last node, which is set to t_end
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


@dataclass(frozen=True)
class OdeSpec:
    """Constant-coefficient linear ODE c_n z^(n) + ... + c_0 z = f(t).

    ``coeffs`` lists (c_n, ..., c_0), highest derivative first, each
    finite (a coefficient that is not is rejected under its name, c_k).
    ``forcing`` (f; None for 0) takes an increasing array of times and
    returns one value per time or a constant: ``np.sin``, ``lambda t: 2.0``.
    """

    coeffs: tuple[float, ...]
    forcing: Profile | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) < 2:
            raise ValidationError("need order >= 1 (at least two coefficients)")
        _require("finite", **{f"c_{self.order - i}": c for i, c in enumerate(self.coeffs)})
        if self.coeffs[0] == 0.0:
            raise ValidationError("leading coefficient must be nonzero")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def normalized(self) -> tuple[float, ...]:
        """Coefficients (a_0, ..., a_{n-1}) of z^(n) + sum a_k z^(k) = f/c_n."""
        cn = self.coeffs[0]
        return tuple(c / cn for c in reversed(self.coeffs[1:]))


def quadratic_roots(a: float, b: float) -> tuple[complex, complex]:
    """Roots of p^2 + a p + b = 0, sorted by (real part, imaginary part).

    With h = -a/2 the roots are h +/- sqrt(d), d = h^2 - b, and d is formed
    after scaling by s = max(|h|, sqrt|b|), so no finite a, b overflow it.
    A real pair is q = h + sign(h) sqrt(d) and b/q, neither of which
    cancels (Kahan, "On the cost of floating-point computation without
    extra-precise arithmetic", 2004); a complex pair is h +/- i sqrt(-d).
    Two roots within 2 ``ROOT_CLUSTER_RTOL`` of their larger modulus are
    one double root, returned as their mean twice.
    """
    h = -0.5 * a
    s = max(abs(h), math.sqrt(abs(b)))
    if s == 0.0:
        return 0j, 0j
    hs = h / s
    d = hs * hs - b / s / s
    if abs(d) < 1e-8:
        # the terms cancel, and the roots would carry their rounding over
        # sqrt|d|: form d again with s rounded up to a power of two, which
        # scales exactly (Kahan's recomputation of a small discriminant)
        s = math.ldexp(1.0, math.frexp(s)[1])
        hs = h / s
        d = hs * hs - b / s / s
    if d < 0.0:
        w = s * math.sqrt(-d)
        lo, hi = complex(h, -w), complex(h, w)
    else:
        q = h + math.copysign(s * math.sqrt(d), h)
        lo, hi = map(complex, sorted((q, b / q)))
    if abs(hi - lo) <= 2.0 * ROOT_CLUSTER_RTOL * max(abs(lo), abs(hi)):
        lo = hi = (lo + hi) / 2.0
    return lo + 0.0, hi + 0.0  # no root has the real part -0.0


Profile = Callable[[np.ndarray], np.ndarray | float]  # points -> values, or a constant
Forcing = np.ndarray | Sequence[float] | Profile


# overflow shows as a non-finite state, which raises BlowUpError
@np.errstate(over="ignore", invalid="ignore")
def linear_flow(
    M: np.ndarray,
    x0: Sequence[float],
    grid: TimeGrid,
    forcing: Forcing | None = None,
    labels: Sequence[str] | None = None,
    what: str = "integration",
) -> Trajectory:
    """The linear system x' = M x + c(t) with a constant (d, d) matrix M,
    stepped by its exact flow over each grid step h.

    Every step is the affine map x -> x + (E x + q_k) with E = e^(hM) - I
    and q_k = int_0^h e^((h - tau) M) c(t_k + tau) dtau, applied in that
    form so that a slow mode keeps the digits that e^(hM) x would round
    away.  The homogeneous part is exact to rounding, undamped cycles
    included.  ``forcing`` drives the leading components of x, as many as
    its width, 1 to d: a constant vector c, for which q = h phi_1(hM) c is
    exact, or a callable mapping an array of m increasing times to m rows
    of that width (``_time_samples``), called once per march with every
    node and step midpoint; q_k integrates the quadratic through a step's
    three samples exactly (``_forcing_terms``): exact for a forcing that
    is piecewise quadratic on the grid, global error O(h^4) for a smooth
    one.  Homogeneous data whose largest entry is subnormal are marched
    scaled by 2^-e, e from ``math.frexp``, and the values scaled back by
    2^e once, so that the data keep their bits while their modes grow into
    the normal range.  The scaled data peak at 2^-969, 2^53 times the
    least normal number: products with entries of E down to 2^-53 stay
    normal, and only a growth beyond 2^1993, to values
    beyond 2^919, overflows in the scaled march where the unscaled one
    would not.  Normal-range data march unscaled.  A non-finite state
    raises BlowUpError naming ``what`` and carrying the last finite node.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x.shape[0]
    M = np.asarray(M, dtype=float)
    if M.shape != (d, d):
        raise ValidationError(f"coefficient matrix must be {d}x{d} for {d} components")
    nodes, h = grid.nodes, grid.h
    values = np.empty((grid.steps + 1, d))
    values[0] = x
    E, *phis = _phi_functions(h * M)
    e = 0
    if forcing is None:
        q = None
        top = float(np.max(np.abs(x)))
        if 0.0 < top < np.finfo(float).tiny:
            e = math.frexp(top)[1] + 968  # 2^-e x0 peaks in [2^-969, 2^-968)
            values[0] = np.ldexp(x, -e)
    elif callable(forcing):
        q = _forcing_terms(forcing, nodes, h, *phis)
    else:
        c = np.asarray(forcing, dtype=float)
        if c.ndim != 1 or not 0 < c.shape[0] <= d:
            raise ValidationError(f"constant forcing must have 1 to {d} components")
        q = h * (phis[0][:, : c.shape[0]] @ c)
    _march(values, E, q)
    if e:
        values = np.ldexp(values, e)
    _raise_on_blow_up(values, nodes, what)
    if labels is None:
        labels = [f"x{i}" for i in range(d)] if d > 1 else ["x"]
    return Trajectory(grid, values, tuple(labels))


def _phi_functions(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """E = e^A - I and phi_1, phi_2, phi_3 of A, phi_k(A) = sum_j A^j/(j + k)!.

    Scaling and squaring (Higham, "The scaling and squaring method for the
    matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005):
    B = A/2^s has ||B||_1 <= 1/2, and phi_3(B) is one Taylor sum, by
    Horner, of the least degree m >= 1 whose tail bound
    6 ||B||^(m+1)/(m+4)! relative to phi_3 is below eps/2 (m = 12 at
    ||B|| = 1/2); its innermost term B/(m+3)! needs no product.  Then
    phi_j(B) = I/j! + B phi_(j+1)(B) down to E = B phi_1(B), and s
    doublings undo the scaling: E <- 2E + E^2 and the modified squaring
    phi_k(2B) = 2^-k [e^B phi_k(B) + sum_(1<=j<=k) phi_j(B)/(k - j)!] of
    Skaflestad & Wright ("The scaling and modified squaring method for
    matrix functions related to the exponential", Appl. Numer. Math. 59,
    2009), with e^B = I + E so that no step subtracts I.
    """
    d = A.shape[0]

    def plus_eye(X, c):  # X + c I, in place
        X.flat[::d + 1] += c
        return X

    s = max(0, math.frexp(float(np.linalg.norm(A, 1)))[1] + 1)
    B = np.ldexp(A, -s)
    theta = float(np.linalg.norm(B, 1))
    m, tail = 1, theta**2 / 20.0
    while m < 12 and not tail <= 0.5 * np.finfo(float).eps:
        m += 1
        tail *= theta / (m + 4)
    phi3 = plus_eye(B / math.factorial(m + 3), 1.0 / math.factorial(m + 2))
    for j in range(m + 1, 2, -1):
        phi3 = plus_eye(B @ phi3, 1.0 / math.factorial(j))
    phi2 = plus_eye(B @ phi3, 0.5)
    phi1 = plus_eye(B @ phi2, 1.0)
    E = B @ phi1
    for _ in range(s):
        phi3 = (E @ phi3 + 2.0 * phi3 + phi2 + 0.5 * phi1) / 8.0
        phi2 = (E @ phi2 + 2.0 * phi2 + phi1) / 4.0
        phi1 = phi1 + 0.5 * (E @ phi1)
        E = 2.0 * E + E @ E
    return E, phi1, phi2, phi3


def _forcing_terms(forcing, nodes, h, phi1, phi2, phi3) -> np.ndarray:
    """Per-step forcing terms q_k of ``linear_flow`` for a sampled forcing.

    The forcing is sampled once, in increasing time, at the 2 steps + 1
    times t_k and t_k + h/2, and returns one row of 1 to d components per
    time, which force as many leading components of the state: only those
    columns of the phi-functions enter.  On step k it is replaced by the
    quadratic c0 + u r + w r^2, r = tau/h, through its samples c0, cm and
    c1 at the step's start, midpoint and end, whose integral against
    e^((h - tau) M) is exact (Hochbruck & Ostermann, "Exponential
    integrators", Acta Numerica 19, 2010): int_0^h e^((h - tau) M)
    (tau/h)^j dtau = j! h phi_(j+1)(hM).
    """
    d = phi1.shape[0]
    times = np.empty(2 * nodes.shape[0] - 1)
    times[0::2] = nodes
    times[1::2] = nodes[:-1] + 0.5 * h
    message = f"forcing must return one row of 1 to {d} components per time"
    c = _time_samples(forcing, times, None, message)
    width = c.shape[1]
    if not 0 < width <= d:
        raise ValidationError(message)
    c0, cm, c1 = c[0:-1:2], c[1::2], c[2::2]
    # summed term by term in the order of one expression, u and w formed in
    # turn: the same roundings, one (steps, d) temporary at a time
    q = c0 @ (h * phi1[:, :width]).T
    q += (4.0 * cm - 3.0 * c0 - c1) @ (h * phi2[:, :width]).T  # u
    q += (2.0 * (c0 + c1) - 4.0 * cm) @ (2.0 * h * phi3[:, :width]).T  # w
    return q


def _time_samples(fn: Profile, times: np.ndarray, width: int | None, message: str,
                  key: str | None = None) -> np.ndarray:
    """``fn(times)`` as one row of ``width`` real values (None: its own) per time:
    those rows, a 2-D array that broadcasts to them, a constant, or at width 1 only
    (where no row looks alike) a flat array.  Else, complex too, ValidationError(message, key)."""
    r = np.asarray(fn(times))
    if r.ndim == 0 or (r.ndim == 1 and width == 1):
        r = r.reshape(-1, 1)
    if (r.dtype.kind == "c" or r.ndim != 2 or r.shape[0] not in (1, len(times))
            or width and r.shape[1] not in (1, width)):
        raise ValidationError(message, key=key)
    return np.broadcast_to(r.astype(float, copy=False), (len(times), width or r.shape[1]))


def _march(values: np.ndarray, E: np.ndarray, q: np.ndarray | None) -> None:
    """Fill values[k + 1] = values[k] + (E @ values[k] + q[k]) in place; q is
    None, one vector for every step, or one row per step, under ``linear_flow``'s errstate."""
    inc = np.empty(values.shape[1])
    prev = values[0]
    if q is None:
        for row in values[1:]:
            np.dot(E, prev, out=inc)
            np.add(prev, inc, out=row)
            prev = row
    else:
        for row, qk in zip(values[1:], itertools.repeat(q) if q.ndim == 1 else q):
            np.dot(E, prev, out=inc)
            inc += qk
            np.add(prev, inc, out=row)
            prev = row


# overflow shows as a non-finite z or phi, which raises BlowUpError
@np.errstate(over="ignore", invalid="ignore")
def _volterra_nodes(K: np.ndarray, forcing: Forcing | None, init: Sequence, grid: TimeGrid,
                    what: str) -> tuple[np.ndarray, np.ndarray]:
    """z and phi = z^(n) at every node of ``grid`` (from 0) for the Volterra
    equation phi = q + int_0^t sum_m K_m (t - eta)^m/m! phi(eta) deta of
    z^(n) = f + sum_m K_m z^(n-1-m), z^(i)(0) = init[i], i < n = len(K),
    each of d components: q = f + sum_m K_m P_m, P_m the Taylor polynomial
    of z^(n-1-m) from the initial data.

    The moments M_m = int_0^t (t - eta)^m/m! phi(eta) deta satisfy
    M_0' = phi = q + sum_m K_m M_m and M_m' = M_(m-1): one linear system
    whose matrix has [K_0 ... K_p] as block row 0 and identity blocks
    below the diagonal.  ``linear_flow`` steps it exactly.  The part of q
    that is polynomial in t enters through the state, not the forcing:
    the state M_m + P_m starts at the initial data and obeys the same
    system driven by f alone (``forcing``: a callable of the m sample
    times read by ``_time_samples`` at width d, a constant (d,) vector,
    or None for f = 0), which drives block 0, the leading d of the n d
    components, and goes to ``linear_flow`` as it is.  So a free term that
    is polynomial in t is exact at every order, and only a sampled f goes
    through the flow's quadratic rule.  Then z = M_(n-1) + sum_i init[i]
    t^i/i! is the last block of the state and phi = f + sum_m K_m (M_m +
    P_m).  A non-finite state or phi raises BlowUpError naming ``what``.
    """
    K = np.asarray(K, dtype=float)
    n, d = K.shape[0], K.shape[1]
    A = np.eye(n * d, k=-d)
    A[:d] = np.hstack(K)
    x0 = np.reshape(init, (n, d))[::-1].ravel()  # (z^(n-1), ..., z)(0)
    f = []  # f at the nodes, or the constant f, for phi
    if callable(forcing):
        def drive(t: np.ndarray) -> np.ndarray:
            ft = _time_samples(forcing, t, d, f"forcing must return one row of {d} components "
                               "per time" if d > 1 else "forcing must return one value per time")
            f.append(ft[::2])
            return ft
    elif forcing is None:
        drive = None
    else:
        drive = np.asarray(forcing, dtype=float)
        f.append(drive)
    x = linear_flow(A, x0, grid, drive, what=what).values
    z, phi = x[:, -d:], x @ A[:d].T
    if f:
        phi += f[0]
    if not np.isfinite(phi).all():
        _raise_on_blow_up(np.hstack([z, phi]), grid.nodes, what)
    return z, phi


def _volterra_ivp(K: np.ndarray, forcing: Forcing | None, init: Sequence, t_end: float,
                  steps: int, what: str
                  ) -> tuple[TimeGrid, np.ndarray, np.ndarray]:
    """The grid of ``steps`` intervals on [0, t_end] and z and phi on its
    nodes by ``_volterra_nodes``, the grid checked first.  A rerun at half
    the intervals (a one-interval march is its own half) guards the step.

    ResolutionError when the rerun and z, interpolated linearly onto the
    rerun's nodes, differ by more than 10% of max |z| in the sup norm: the
    grid is too coarse for the forcing.  At an even step count the rerun's
    nodes are nodes of the grid, so no interpolation enters.  The scale
    has no floor; a march that is zero everywhere, as is its rerun, has
    drift 0.  A march whose max |z| is subnormal is refused as well,
    whatever its drift: its few bits cannot hold a 10% bound.  Both
    messages give four significant digits, so equations that differ by a
    rounding are refused alike.
    """
    grid = TimeGrid(0.0, float(t_end), steps)
    z, phi = _volterra_nodes(K, forcing, init, grid, what)
    half = TimeGrid(0.0, grid.t_end, max(steps // 2, 1))
    z_half, _ = _volterra_nodes(K, forcing, init, half, what)
    scale = float(np.max(np.abs(z)))
    fine = np.column_stack([np.interp(half.nodes, grid.nodes, col) for col in z.T])
    gap = float(np.max(np.abs(fine - z_half)))
    drift = gap / scale if scale else (math.inf if gap else 0.0)
    if drift > 0.10:
        raise ResolutionError(f"half-resolution drift {drift:.3e} exceeds 10%; refine the grid")
    if 0.0 < scale < np.finfo(float).tiny:
        raise ResolutionError(f"march sup {scale:.3e} is subnormal, too few bits for a 10% bound")
    return grid, z, phi


def _raise_on_blow_up(values: np.ndarray, nodes: np.ndarray, what: str = "integration") -> None:
    """BlowUpError at the first non-finite node, carrying the node before it
    (the first node itself when that one is not finite)."""
    finite = np.isfinite(values).all(axis=1)
    if finite.all():
        return
    bad = int(np.argmin(finite))
    k = max(bad - 1, 0)
    where = f"at t={float(nodes[0])!r}"
    if bad:
        where = f"between t={float(nodes[k])!r} and t={float(nodes[bad])!r}"
    raise BlowUpError(
        f"{what} blew up {where}",
        t_last=float(nodes[k]),
        index_last=k,
        x_last=values[k].copy(),
    )


def sup_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Sup-norm difference of two arrays relative to the sup-norm of the first."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(a))), math.ulp(1.0))
    return float(np.max(np.abs(a - b))) / scale
