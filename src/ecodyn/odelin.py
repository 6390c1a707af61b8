"""Shared linear-ODE core.

Characteristic roots of constant-coefficient equations (via companion
matrix eigenvalues), analytic solutions built from simple roots, one
fixed-step classical Runge-Kutta integrator, and one trapezoidal marcher
for second-kind Volterra equations.  ``rk4_linear`` integrates linear
systems x' = M x + c(t) without right-hand-side callbacks: each step
folds into the affine map x -> P x + q with P the RK4 stability
polynomial of hM.  Every model downstream (growth models, business-cycle
systems, the input-output dynamics) is linear and integrates through it.

``_volterra_trapezoid`` marches phi = q + int_0^t K(t - eta) phi deta for
a kernel that is a polynomial in t - eta (Linz, *Analytical and Numerical
Methods for Volterra Equations*, SIAM 1985, ch. 7): its state is the
history's shifted trapezoid moments, so each step is again one constant
affine map.  Both Volterra forms of the package go through it: the
reduction of a constant-coefficient ODE (``fredholm.VolterraReduction``)
and the two-term Leontief balance (``leontief.volterra_solve``).  With a
zero kernel the march returns the trapezoid J of the given samples, and
the two-point reduction (``fredholm.FredholmReduction``) takes z from the
Fredholm phi that way: z = J_n[phi] + sum_i c_i t^i/i! with the constants
c_i = z^(i)(0) its Fredholm solve implies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BlowUpError,
    DegenerateDataError,
    ResolutionError,
    UnsupportedError,
    ValidationError,
    _require,
)

# Two computed roots within this distance of their center, relative to their
# modulus, are one double root.  The companion eigenvalues of an exact double
# root split by about sqrt(eps) ~ 1.5e-8 relative, up to 6.5e-8 seen (critical
# damping p^2 + a p + a^2/4 for a in [0.1, 20], and (p + 1)^2 (p + s) up to
# s = 1e5), whatever the scale of the root, so the bound is relative with a
# 15x margin.  An m-fold root splits by about eps^(1/m), so m roots form one
# cluster within ROOT_CLUSTER_RTOL^(2/m) (see ``_cluster_rtol``).
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
        n = self.steps + 1
        # numpy refuses a float64 array near intp.max bytes as too big, and
        # linspace wraps a count near sys.maxsize: both are out of memory
        if n > np.iinfo(np.intp).max // 16:
            raise MemoryError(f"Unable to allocate {n} nodes: more bytes than an array can hold")
        return np.linspace(self.t_start, self.t_end, n)


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
    """

    coeffs: tuple[float, ...]
    forcing: Callable[[float], float] | None = None

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


def char_roots(spec: OdeSpec) -> list[tuple[complex, int]]:
    """Roots of sum c_k p^k = 0 with multiplicities.

    Computed as companion-matrix eigenvalues, then grouped by
    ``_clusters``: m computed roots count as one m-fold root when they all
    lie within ``_cluster_rtol(m)`` of their center, relative to their
    largest modulus, so the test depends neither on the scale of the roots
    nor, beyond the eps^(1/m) splitting, on the multiplicity.
    Returned sorted by (real part, imaginary part).
    """
    raw = sorted(np.roots(spec.coeffs).astype(complex), key=lambda z: (z.real, z.imag))
    out = [(sum(m) / len(m), len(m)) for m in _clusters(raw, max(1, len(raw)))]
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _cluster_rtol(m: int) -> float:
    """Relative spread allowed for m computed copies of one root.

    An m-fold root splits by about eps^(1/m): 1.5e-8, 6.1e-6 and 1.2e-4
    for m = 2, 3, 4, and up to 1.9e-8, 1.2e-5 and 2.5e-4 were seen for
    (p + a)^m over a in [0.1, 20], against bounds of 1e-6, 1e-4 and 1e-3.
    """
    return ROOT_CLUSTER_RTOL ** (2.0 / m)


def _clusters(roots: list[complex], m_max: int) -> list[list[complex]]:
    """Group roots that are copies of one repeated root.

    Roots link when they are within twice the bound for ``m_max`` members
    of each other; a linked group wider than the bound for its own size
    is split again with ``m_max`` one below its size.
    """
    link = 2.0 * _cluster_rtol(m_max)
    groups: list[list[complex]] = []
    for r in roots:
        near = [g for g in groups if any(abs(r - s) <= link * max(abs(r), abs(s)) for s in g)]
        merged = [r]
        for g in near:
            groups.remove(g)
            merged += g
        groups.append(merged)
    out: list[list[complex]] = []
    for g in groups:
        center = sum(g) / len(g)
        scale = max(abs(r) for r in g)
        if len(g) == 1 or max(abs(r - center) for r in g) <= _cluster_rtol(len(g)) * scale:
            out.append(g)
        else:
            out.extend(_clusters(g, len(g) - 1))
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
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(derivatives + 1):
            zm = (c * p**m) @ np.exp(np.outer(p, t))
            cols.append(zm)
    z = np.column_stack(cols)
    _raise_on_blow_up(z, t, "closed form")
    scale = max(1.0, float(np.max(np.abs(z))))
    imag_rel = float(np.max(np.abs(z.imag))) / scale
    if imag_rel >= 1e-10:
        raise DegenerateDataError(
            f"imaginary residue {imag_rel:.3e} of the real solution exceeds 1e-10"
        )
    labels = ["z"] + [f"z_d{m}" for m in range(1, derivatives + 1)]
    return Trajectory(grid, z.real, tuple(labels))


Coefficient = float | np.ndarray | Callable[[np.ndarray], np.ndarray]
Forcing = np.ndarray | Sequence[float] | Callable[[np.ndarray], np.ndarray]


# overflow shows as a non-finite state, which raises BlowUpError
@np.errstate(over="ignore", invalid="ignore")
def rk4_linear(
    coeff: Coefficient,
    x0: Sequence[float],
    grid: TimeGrid,
    forcing: Forcing | None = None,
    labels: Sequence[str] | None = None,
    substeps: int = 1,
) -> Trajectory:
    """Classical fixed-step RK4 for the linear system x' = M x + c(t),
    without right-hand-side callbacks; global error O(h^4).

    One RK4 step of size h from (t, x) takes the stages k1 = f(t, x),
    k2 = f(t + h/2, x + (h/2) k1), k3 = f(t + h/2, x + (h/2) k2) and
    k4 = f(t + h, x + h k3) of f(t, x) = M x + c(t), and returns
    x + (h/6)(k1 + 2 k2 + 2 k3 + k4).  For a linear f that is the affine
    map x -> P x + q, with P = I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24
    (the RK4 stability polynomial) and q the step applied to the zero
    state.  Steps are applied as x + ((P - I) x + q), which rounds like
    the stage sum instead of repeating the rounding of P.

    ``coeff`` is a constant (d, d) matrix, a constant scalar rate, or a
    time-varying scalar rate a(t) that maps an array of times to an array
    of rates; the time-varying rate takes no ``forcing``.  ``forcing`` is
    a constant (d,) vector or a callable mapping an array of m increasing
    times to an (m, d) array; it is sampled once at each distinct stage
    time (every substep node and midpoint).  ``substeps`` subdivides every
    grid step while recording only the grid nodes.  A non-finite state
    raises BlowUpError carrying the last finite node.
    """
    _require("positive", substeps=substeps)
    x = np.asarray(x0, dtype=float)
    if x.ndim == 0:
        x = x[None]
    d = x.shape[0]
    nodes = grid.nodes
    h = grid.h / substeps
    values = np.empty((grid.steps + 1, d))
    values[0] = x
    if callable(coeff):
        if d != 1 or forcing is not None:
            raise ValidationError("a time-varying rate needs one component and no forcing")
        values[1:, 0] = 1.0 + _scalar_increments(coeff, nodes[:-1], h, substeps)
        _cumprod(values)
    else:
        M = np.atleast_2d(np.asarray(coeff, dtype=float))
        if M.shape != (d, d):
            raise ValidationError(f"coefficient matrix must be {d}x{d} for {d} components")
        E = _stability_increment(h * M)
        E_step = E
        for _ in range(substeps - 1):
            E_step = E_step + (E + E @ E_step)
        if forcing is None and d == 1:
            values[1:, 0] = 1.0 + E_step[0, 0]
            _cumprod(values)
        elif forcing is None:
            _march(values, E_step, None)
        elif callable(forcing):
            _march(values, E_step, _forcing_terms(M, E, forcing, nodes, h, substeps))
        else:
            c = np.asarray(forcing, dtype=float)
            if c.shape != (d,):
                raise ValidationError(f"constant forcing must have {d} components")
            _march(values, E_step, _fold_substeps(E, [_stage_terms(M, h, c, c, c)] * substeps))
    _raise_on_blow_up(values, nodes)
    if labels is None:
        labels = [f"x{i}" for i in range(d)] if d > 1 else ["x"]
    return Trajectory(grid, values, tuple(labels))


def _stability_increment(hM: np.ndarray) -> np.ndarray:
    """P - I = hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24, by Horner."""
    eye = np.eye(hM.shape[0])
    E = hM / 4.0
    for j in (3.0, 2.0, 1.0):
        E = (hM / j) @ (eye + E)
    return E


def _stage_terms(M, h, c0, cm, c1):
    """One RK4 step of x' = M x + c from the zero state.

    c0, cm and c1 are the forcing at the step's start, midpoint and end;
    rows of a 2-D argument are independent steps.
    """
    k1 = c0
    k2 = (0.5 * h) * (k1 @ M.T) + cm
    k3 = (0.5 * h) * (k2 @ M.T) + cm
    k4 = h * (k3 @ M.T) + c1
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _forcing_terms(M, E, forcing, nodes, h, substeps) -> np.ndarray:
    """Per-grid-step forcing terms q_k of the folded substeps.

    The forcing is sampled once, in increasing time, at every substep node
    and midpoint: (steps * substeps + 1) + steps * substeps times.
    """
    steps, d = nodes.shape[0] - 1, M.shape[0]
    sub = (nodes[:-1, None] + h * np.arange(substeps)).ravel()
    times = np.empty(2 * sub.shape[0] + 1)
    times[0:-1:2] = sub
    times[1::2] = sub + 0.5 * h
    times[-1] = nodes[-1]
    c = np.asarray(forcing(times), dtype=float)
    if c.shape != (times.shape[0], d):
        raise ValidationError(f"forcing must return {d} components per time")
    ends = c[0::2]
    q = _stage_terms(M, h, ends[:-1], c[1::2], ends[1:]).reshape(steps, substeps, d)
    return _fold_substeps(E, [q[:, s] for s in range(substeps)])


def _fold_substeps(E: np.ndarray, terms: list[np.ndarray]) -> np.ndarray:
    """Forcing term of consecutive substeps, sum_s P^(S-1-s) terms[s] with
    P = I + E; each term is one vector or one row per grid step."""
    q = terms[0]
    for term in terms[1:]:
        q = q + (q @ E.T + term)
    return q


def _scalar_increments(rate, starts, h, substeps) -> np.ndarray:
    """Per-grid-step RK4 gain minus one of x' = a(t) x, substeps folded in.

    The rate is evaluated at each substep's start, midpoint and end.
    """
    total = np.zeros(starts.shape[0])
    for s in range(substeps):
        ts = starts + s * h
        a0 = rate(ts)
        am = rate(ts + 0.5 * h)
        a1 = rate(ts + h)
        r2 = am * (1.0 + (0.5 * h) * a0)
        r3 = am * (1.0 + (0.5 * h) * r2)
        r4 = a1 * (1.0 + h * r3)
        e = (h / 6.0) * (a0 + 2.0 * r2 + 2.0 * r3 + r4)
        total += e + total * e
    return total


def _cumprod(values: np.ndarray) -> None:
    """Turn [x0, g_1, g_2, ...] into the states x0, g_1 x0, g_2 g_1 x0, ... in place."""
    np.cumprod(values[:, 0], out=values[:, 0])


def _march(values: np.ndarray, E: np.ndarray, q: np.ndarray | None) -> None:
    """Fill values[k + 1] = values[k] + (E @ values[k] + q[k]) in place; q is
    None, one vector for every step, or one row per step."""
    inc = np.empty(values.shape[1])
    prev = values[0]
    with np.errstate(over="ignore", invalid="ignore"):
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


@np.errstate(over="ignore", invalid="ignore")
def _volterra_trapezoid(K: np.ndarray, q: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """March phi(t) = q(t) + int_0^t sum_m K_m (t - eta)^m/m! phi(eta) deta
    with the trapezoidal rule on the uniform grid t_k = k h.

    ``K`` stacks the (d, d) coefficients K_0..K_p, ``q`` the free term at
    the N + 1 >= 2 nodes, one row each.  Before step k the state is the shifted
    moments M_m = sum'_{j<k} (t_k - t_j)^m/m! phi_j, m = 0..p, where sum'
    gives j = 0 half weight.  Only the m = 0 term sees the new node, so

        phi_k = (I - (h/2) K_0)^-1 (q_k + h sum_m K_m M_m),

    and moving the moments to t_(k+1) is the Taylor shift
    M_m <- sum_(i<=m) h^(m-i)/(m-i)! M_i + h^m/m! phi_k: one constant
    affine map per step, applied by ``_march`` in O(N (p+1)^2 d^2).
    Returns phi and the trapezoid J = int_0^t (t - eta)^p/p! phi(eta) deta
    at every node (h M_p, plus h/2 phi_k for p = 0).  The caller rules out
    a singular I - (h/2) K_0 and checks the result for overflow.
    """
    K = np.asarray(K, dtype=float)
    p1, d = K.shape[0], K.shape[1]
    N = q.shape[0] - 1
    A = np.linalg.inv(np.eye(d) - (0.5 * h) * K[0])
    AK = np.concatenate([A @ Km for Km in K], axis=1)  # (d, (p+1) d)
    b = np.array([h**m / math.factorial(m) for m in range(p1)])  # weight of phi_k in M_m
    shift = np.zeros((p1, p1))
    for m in range(1, p1):
        shift[m, :m] = b[m:0:-1]
    E = np.kron(shift, np.eye(d)) + np.kron((h * b)[:, None], AK)
    Aq = q @ A.T
    state = np.empty((N, p1 * d))  # the moments before steps 1..N
    state[0] = np.kron(b, 0.5 * q[0])
    _march(state, E, (b[:, None] * Aq[1:N, None, :]).reshape(N - 1, p1 * d))
    phi = np.empty_like(Aq)
    phi[0] = q[0]
    phi[1:] = Aq[1:] + h * (state @ AK.T)
    J = np.zeros_like(phi)
    J[1:] = h * state[:, (p1 - 1) * d:]
    if p1 == 1:
        J[1:] += (0.5 * h) * phi[1:]
    return phi, J


def _check_half_resolution(t: np.ndarray, X: np.ndarray, t_c: np.ndarray, X_c: np.ndarray) -> None:
    """ResolutionError when the march X on the nodes ``t`` (one column per
    component) and its rerun X_c on the coarser nodes ``t_c``, interpolated
    linearly onto ``t``, differ by more than 10% of max |X| in the sup
    norm: the grid is too coarse for the trapezoid."""
    scale = max(float(np.max(np.abs(X))), 1e-300)
    coarse_on_fine = np.column_stack([np.interp(t, t_c, X_c[:, j]) for j in range(X.shape[1])])
    drift = float(np.max(np.abs(X - coarse_on_fine))) / scale
    if drift > 0.10:
        raise ResolutionError(f"half-resolution drift {drift:.3e} exceeds 10%; refine the grid")


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
