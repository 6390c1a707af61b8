"""Second-kind integral equation machinery on [0, 1].

Nystrom discretization (composite Simpson), direct solves of
phi = lambda*K phi + q, characteristic numbers with eigenfunctions,
singularity sweeps for kernels k0 + mu*k1, and the classic reduction of
a constant-coefficient ODE to a Volterra (initial data) or Fredholm
(two-point data) equation.

One route per kernel class.  A ``KernelSpec`` is separable: pairs
(g_i, h_i) of profiles, and G H^T is the kernel: a sum of products of
functions of one variable, as is the paper's degenerate kernel.  Profiles
and free terms q take the array of every point at once (``np.cos``, a
constant ``lambda e: 1.0``), read by ``odelin._time_samples``.  Every catalogue
kernel (``kernel_t_plus_eta``, ``kernel_exp_diff``, ``kernel_rho_rho``,
``kernel_sigma_rho``, ``kernel_degenerate``, ``kernel_zero``) is one.
Construction checks the profiles on a 5 x 5 lattice for values that are
not finite.  The kernels of the ODE reductions are not ``KernelSpec``s:
each reduction solves its own equation (``VolterraReduction``,
``FredholmReduction``).

Finite-rank route.  A separable kernel k(t, eta) = sum_i g_i(t) h_i(eta) of
rank r is, on the nodes, K = G H^T with the n x r samples G = [g_i(t_j)]
and H = [h_i(eta_j)], which ``NystromDiscretization`` takes once (one
call per profile; none after).  Such a kernel is degenerate (Kress, *Linear
Integral Equations*, 3rd ed., ch. 11; Atkinson, *The Numerical Solution of
Integral Equations of the Second Kind*, ch. 2), and its spectrum, sweep,
spectral guard and solve need no n x n array: K is assembled only when a
library caller reads it.

  - Spectrum.  K W = G (H^T W) has the nonzero eigenvalues of the r x r
    matrix S = H^T W G, and an eigenpair S v = mu v gives the
    eigenfunction phi = G v; KW's other n - r eigenvalues are exactly 0.
    Each entry of S is the correctly rounded sum of the products
    w_k h_i(eta_k) g_j(t_k) (math.fsum).  ``NystromDiscretization.S`` is
    the one S, summed once, and each eigenvalue of S gets one correction
    from its exact residual, so that 1/mu is rounded once (``_reciprocals``).
  - Sweep.  On an orthonormal basis Q of the span of [G0, G1, W H0, W H1]
    (from the R factor of its QR factorization), Id - (K0 + mu K1) W is
    Q C Q^T + (Id - Q Q^T), so its singular values are those of the small
    C and, n - dim Q times, 1.
  - Solve.  (Id - lambda K W) phi = q is, for K = G H^T, the r x r
    capacitance system of the Woodbury identity (Kress, ch. 11):
    phi = q + G (I/lambda - S)^-1 H^T W q, with ``NystromDiscretization.S``
    and H^T W q by math.fsum; a rank-0 kernel, or lambda = 0, returns q.
    The paper's example of the Fredholm alternative, the degenerate kernel
    rho(t)rho(eta) + mu sigma(t)rho(eta) (arXiv:0804.3658), is rank 2.

Spectral guard.  A solve at lambda is rejected when 1/lambda lies within
``SPECTRUM_PROXIMITY_TOL`` of an eigenvalue mu of K*diag(w), naming the
nearest characteristic number 1/mu: one of the r eigenvalues of
``NystromDiscretization.S``, and the 1/mu that ``char_numbers`` reports,
or inf for an eigenvalue that it discards as 0 (|mu| <=
``EIGEN_DISCARD_DEFAULT``, which only |lambda| > 0.99e8 can reach).
|lambda| >= 1/SPECTRUM_PROXIMITY_TOL = 1e8 is the regime boundary: 1/lambda is then
within the tolerance of 0, an exact eigenvalue of KW when n > r and in the
spectrum of every compact kernel operator, and the rejection names inf.

Two-point route.  The two-point reduction's kernel is the Volterra
polynomial of the ODE, masked to eta <= t, plus a smooth rank-n term, so
it jumps or kinks on eta = t.  ``FredholmReduction.solve`` integrates each
piece by its own rule on Chebyshev-Lobatto nodes: the masked part by the
spectral integration matrix S, the rank-n part by the Clenshaw-Curtis
weights, the last row of S (Greengard & Rokhlin, Comm. Pure Appl. Math. 44,
1991; Trefethen, *Approximation Theory and Approximation Practice*, 2013).
Its guard is the collocation matrix's sigma_min/sigma_max against
``SPECTRUM_PROXIMITY_TOL``.

Routes the commands reach.  Every kernel the CLI offers (``--kernel``,
``--k0``, ``--k1``) is separable, so ``fredholm-solve``,
``fredholm-spectrum`` and ``fredholm-sweep`` form no n x n array, a
rejected solve included.  ``--kernel ode-reduced`` accepts initial values
only, so it builds a ``VolterraReduction``.  The two-point reduction
serves library callers alone, as ``perfbench/twopoint.py`` runs it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateDataError,
    NumericalError,
    ResolutionError,
    SingularMatrixError,
    SpectrumProximityError,
    ValidationError,
    _require,
    _require_array_length,
    _require_finite_result,
)
from .odelin import (OdeSpec, Profile, TimeGrid, Trajectory, _raise_on_blow_up, _time_samples,
                     _volterra_ivp)

SPECTRUM_PROXIMITY_TOL = 1e-8
EIGEN_DISCARD_DEFAULT = 1e-10
SINGULARITY_FLAG_REL = 1e-6


@dataclass(frozen=True)
class KernelSpec:
    """A separable kernel k(t, eta) = sum_i g_i(t) h_i(eta) on [0, 1]^2,
    given by its ``separable`` pairs (g_i, h_i) of profiles, each a
    callable of an array of points (see the module docstring).

    Construction samples the profiles on a 5 x 5 lattice and rejects a
    kernel with a value there that is not finite.
    """

    separable: tuple[tuple[Profile, Profile], ...]
    name: str = "kernel"

    def __post_init__(self):
        probe = np.linspace(0.0, 1.0, 5)
        lattice = self.matrix(probe, probe)
        if not np.isfinite(lattice).all():
            i, j = np.argwhere(~np.isfinite(lattice))[0]
            raise ValidationError(
                f"separable form of {self.name!r} is not finite at ({probe[i]}, {probe[j]})"
            )

    def factors(self, t: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G[j, i] = g_i(t_j) and H[j, i] = h_i(eta_j), each profile called
        once with every point (``_profile_samples``)."""
        pairs = self.separable
        return (_profile_samples([g for g, _ in pairs], t),
                _profile_samples([h for _, h in pairs], eta))

    def matrix(self, t: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Samples k(t_i, eta_j) for 1-D ``t`` and ``eta`` as the
        len(t) x len(eta) array G H^T."""
        G, H = self.factors(t, eta)
        return G @ H.T


def kernel_t_plus_eta() -> KernelSpec:
    return KernelSpec(
        separable=((lambda t: t, lambda e: 1.0), (lambda t: 1.0, lambda e: e)),
        name="t-plus-eta",
    )


def kernel_exp_diff() -> KernelSpec:
    exp = np.frompyfunc(math.exp, 1, 1)  # libm's, per point: np.exp differs in the last bit
    return KernelSpec(separable=((exp, lambda e: exp(-e)),), name="exp-diff")


def kernel_zero() -> KernelSpec:
    return KernelSpec(separable=(), name="zero")  # rank 0


def canonical_rho(t: np.ndarray) -> float:
    """Unit-normalized profile: int_0^1 rho^2 = 1; the constant 1."""
    return 1.0


def canonical_sigma(t: np.ndarray) -> np.ndarray:
    """Profile orthogonal to canonical_rho: int_0^1 rho*sigma = 0; t - 1/2."""
    return t - 0.5


def kernel_rho_rho(
    rho: Profile = canonical_rho,
) -> KernelSpec:
    return KernelSpec(separable=((rho, rho),), name="rho-rho")


def kernel_sigma_rho(
    sigma: Profile = canonical_sigma,
    rho: Profile = canonical_rho,
) -> KernelSpec:
    return KernelSpec(separable=((sigma, rho),), name="sigma-rho")


def kernel_degenerate(
    mu: float,
    rho: Profile = canonical_rho,
    sigma: Profile = canonical_sigma,
) -> KernelSpec:
    """rho(t)rho(eta) + mu*sigma(t)rho(eta), the paper's example of the
    Fredholm alternative (arXiv:0804.3658): it carries rho + mu*sigma as a
    homogeneous solution for every mu once rho is unit-normalized and
    orthogonal to sigma."""
    _require("finite", mu=mu)
    return KernelSpec(separable=((rho, rho), (lambda t: mu * sigma(t), rho)), name="degenerate")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for int_0^1; weights sum to one."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        for name, values in (("nodes", nodes), ("weights", weights)):
            if not np.isfinite(values).all():  # NaN would pass every comparison below
                raise ValidationError(f"quadrature {name} must be finite")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValidationError("quadrature nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ValidationError("quadrature weights must be positive")
        if abs(float(np.sum(weights)) - 1.0) > 1e-14:
            raise ValidationError("quadrature weights must sum to 1 within 1e-14")

    @property
    def n(self) -> int:
        return len(self.nodes)


def simpson_rule(n_nodes: int = 201) -> QuadratureRule:
    """Composite Simpson on [0, 1]; requires an odd node count >= 3."""
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValidationError("Simpson needs an odd node count >= 3", key="nodes")
    _require("positive", nodes=n_nodes)  # bounds the count by sys.maxsize
    _require_array_length(n_nodes, "nodes")
    h = 1.0 / (n_nodes - 1)
    w = np.full(n_nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    w /= float(np.sum(w))  # remove rounding drift so the sum is exactly 1
    return QuadratureRule(np.linspace(0.0, 1.0, n_nodes), w)


def _profile_samples(profiles: Sequence[Profile], x: np.ndarray) -> np.ndarray:
    """len(x) x len(profiles) matrix of f_i(x_j), each f_i called once with x."""
    cols = [_time_samples(f, x, 1, "a profile or free term must return one value per point "
                          "or a constant")[:, 0] for f in profiles]
    return np.array(cols).reshape(len(profiles), len(x)).T.copy()


@dataclass
class NystromDiscretization:
    """A separable kernel sampled on a quadrature rule: its n x r factors
    G[j, i] = g_i(t_j) and H[j, i] = h_i(eta_j) (see the module docstring).

    The guard, the solve and the spectrum read the one ``S`` = H^T W G and
    its ``eigenpairs``, each formed on its first read and read-only; the
    sweep reads G and H alone.  K = G H^T is assembled on its first read,
    which only library callers make (``weighted``, ``weighted_eigs``)."""

    kernel: KernelSpec
    rule: QuadratureRule
    G: np.ndarray = field(init=False)
    H: np.ndarray = field(init=False)
    _S: np.ndarray | None = field(init=False, default=None, repr=False)
    _eigenpairs: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.G, self.H = self.kernel.factors(self.rule.nodes, self.rule.nodes)

    @cached_property
    def K(self) -> np.ndarray:
        return self.G @ self.H.T

    @property
    def S(self) -> np.ndarray:
        """H^T W G (r x r) by ``_weighted_inner``; NumericalError if not finite."""
        if self._S is None:
            S = _weighted_inner(self, self.G)
            _require_finite_result(S=S)
            S.flags.writeable = False
            self._S = S
        return self._S

    @property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(mu, V): the eigenvalues of ``S`` and its eigenvectors as columns."""
        if self._eigenpairs is None:
            mus, V = np.linalg.eig(self.S)
            mus.flags.writeable = V.flags.writeable = False
            self._eigenpairs = (mus, V)
        return self._eigenpairs

    @property
    def nodes(self) -> np.ndarray:
        return self.rule.nodes

    @property
    def weights(self) -> np.ndarray:
        return self.rule.weights

    def weighted(self) -> np.ndarray:
        return self.K * self.weights[None, :]

    def weighted_eigs(self) -> np.ndarray:
        return np.linalg.eigvals(self.weighted())

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Quadrature application of the kernel operator to node values:
        G (H^T (w phi))."""
        return self.G @ (self.H.T @ (self.weights * phi))


def _rank_solve(disc: NystromDiscretization, lam: float, q: np.ndarray) -> np.ndarray:
    """phi = q + G (I/lambda - S)^-1 H^T W q, the Woodbury form for K = G H^T;
    q itself at rank 0 or lambda = 0."""
    if disc.G.shape[1] == 0 or lam == 0.0:
        return q
    with np.errstate(over="ignore", invalid="ignore"):  # a phi that is not finite fails
        C = -disc.S
        C[np.diag_indices_from(C)] += 1.0 / lam
        try:
            return q + disc.G @ np.linalg.solve(C, _weighted_inner(disc, q[:, None])[:, 0])
        except np.linalg.LinAlgError as exc:  # singular exactly when Id - lambda*K*W is
            raise SingularMatrixError(f"Id - lambda*K*W is singular ({exc})") from None


def _guard_spectrum(disc: NystromDiscretization, lam: float) -> None:
    """Reject lam as ``nystrom_solve`` describes."""
    if not np.isfinite(lam):
        raise ValidationError(f"lambda must be finite, got {lam!r}", key="lam")
    if lam == 0.0:
        return
    if abs(lam) >= 1.0 / SPECTRUM_PROXIMITY_TOL:  # 1/lam is within the tolerance of 0
        raise _proximity_error(lam, math.inf)
    mus = disc.eigenpairs[0]
    dist = np.abs(1.0 / lam - mus)
    if dist.size and dist.min() < SPECTRUM_PROXIMITY_TOL:
        j = int(np.argmin(dist))
        # named as char_numbers reports it: inf for an eigenvalue it discards as 0
        discarded = abs(mus[j]) <= EIGEN_DISCARD_DEFAULT
        raise _proximity_error(lam, math.inf if discarded else _reciprocals(disc)[j])


def _proximity_error(lam: float, nearest) -> SpectrumProximityError:
    nearest = complex(nearest)
    return SpectrumProximityError(
        f"lambda = {lam!r} sits within {SPECTRUM_PROXIMITY_TOL} of the "
        f"characteristic number {nearest!r}",
        nearest_characteristic_number=nearest,
    )


@dataclass
class NystromSolution:
    disc: NystromDiscretization
    lam: float
    q: Profile
    phi: np.ndarray

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        """Off-node values by the natural interpolation phi(t) = q(t) +
        lambda * sum_j w_j k(t, eta_j) phi_j = q(t) + lambda * g(t) (H^T W phi).

        ``t`` is one point (returns a float) or an array of points
        (returns an array of its shape); q and each g are called once, with every point.
        A point that is not finite raises ValidationError, before q or g is called;
        a q or g that overflows, or a value that is not finite, NumericalError.
        Each names the first such point.
        """
        disc = self.disc
        ts = np.asarray(t, dtype=float).ravel()
        if not np.isfinite(ts).all():
            raise ValidationError(f"point t = {float(ts[~np.isfinite(ts)][0])!r} is not finite")
        try:
            with np.errstate(all="ignore"):  # a value that is not finite is refused below
                qv = _profile_samples([self.q], ts)[:, 0]
                G_t = _profile_samples([g for g, _ in disc.kernel.separable], ts)
                vals = qv + self.lam * (G_t @ (disc.H.T @ (disc.weights * self.phi)))
        except OverflowError:  # raised by a profile, as libm's exp is
            vals = None
        if vals is None:  # each point alone names the first that fails
            for x in ts.tolist() if len(ts) > 1 else ():
                self(x)
            raise NumericalError(f"a profile or free term overflows at t = {float(ts[0])!r}")
        bad = np.flatnonzero(~np.isfinite(vals))
        if len(bad):
            raise NumericalError(f"phi is not finite at t = {float(ts[bad[0]])!r}")
        if np.ndim(t) == 0:
            return float(vals[0])
        return vals.reshape(np.shape(t))


def nystrom_solve(
    disc: NystromDiscretization,
    lam: float,
    q: Profile,
) -> NystromSolution:
    """Solve (Id - lambda*K*diag(w)) phi = q at the nodes: the Nystrom form
    of the second-kind equation phi = lambda K phi + q, q called once with every node.

    Rejects a lambda that is not finite, and one whose reciprocal sits
    within 1e-8 of an eigenvalue of the weighted kernel matrix, naming the
    nearest characteristic number as ``char_numbers`` reports it, and inf
    for |lambda| >= 1e8 (see "Spectral guard" in the module docstring).
    The kernel is solved at its rank, and neither its solve nor its
    rejection forms an n x n array (see "Solve" there).  A phi that is not
    finite, as from a free term that is not, raises NumericalError.
    """
    qv = _profile_samples([q], disc.nodes)[:, 0]
    _guard_spectrum(disc, lam)
    phi = _rank_solve(disc, lam, qv)
    if not np.isfinite(phi).all():
        raise NumericalError("the finite-rank solve gave a phi that is not finite")
    return NystromSolution(disc=disc, lam=lam, q=q, phi=phi)


@dataclass(frozen=True)
class SpectralReport:
    nodes: np.ndarray
    characteristic_numbers: tuple[complex, ...]
    eigenfunctions: np.ndarray  # shape (len(characteristic_numbers), n)
    discard_threshold: float


def _fsum(terms: np.ndarray) -> float:
    """math.fsum, or a plain sum of terms that are not finite or overflow."""
    try:
        return math.fsum(terms.tolist())
    except (OverflowError, ValueError):
        return float(np.sum(terms))


def _weighted_inner(disc: NystromDiscretization, X: np.ndarray) -> np.ndarray:
    """H^T W X (r x m) for an n x m ``X``, each entry the correctly rounded
    sum of its n products w_k h_i(eta_k) x_kj (``math.fsum``)."""
    WH = disc.weights[:, None] * disc.H
    r, m = WH.shape[1], X.shape[1]
    S = [[_fsum(WH[:, i] * X[:, j]) for j in range(m)] for i in range(r)]
    return np.array(S).reshape(r, m)


def _saturate(x) -> float:
    """float(x) of a Fraction, or +-inf where it is beyond the float range
    (1/mu of an eigenvalue mu below about 1e-308)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _reciprocals(disc: NystromDiscretization) -> list[complex]:
    """1/mu_i for the eigenpairs (mu_i, v_i) of ``disc.S``, each corrected
    once from the exact residual and rounded once.

    A plain dot product for S put the -12.93 of t-plus-eta off by 4.6e-14
    relative at 801 nodes, hence math.fsum.  eig(S) and the division 1/mu
    round once more each, which left some characteristic numbers further
    from the exact ones than those of eig(KW) (t-plus-eta at 7 and 51
    Simpson nodes).  So each mu_i gets one first-order correction
    d_i = (V^-1 R)_ii from the residual R = S V - V diag(mu), computed
    exactly in fractions, and 1/(mu_i + d_i) is rounded once.  A correction
    above 1e-8 max|S| (a defective or ill-conditioned S) is dropped."""
    from fractions import Fraction  # here: only the spectrum and a rejection need it

    S, (mus, V) = disc.S, disc.eigenpairs
    Sx = [[Fraction(x) for x in row] for row in S.tolist()]
    exact, R = [], np.empty(V.shape, dtype=complex)
    for j, (mu, v) in enumerate(zip(mus.tolist(), V.T.tolist())):
        a, b = Fraction(mu.real), Fraction(mu.imag)
        vr, vi = [Fraction(x.real) for x in v], [Fraction(x.imag) for x in v]
        for i, row in enumerate(Sx):
            sr = sum((s * x for s, x in zip(row, vr)), Fraction(0))
            si = sum((s * x for s, x in zip(row, vi)), Fraction(0))
            R[i, j] = complex(float(sr - a * vr[i] + b * vi[i]), float(si - a * vi[i] - b * vr[i]))
        exact.append((a, b))
    try:
        deltas = np.diag(np.linalg.solve(V, R)).tolist()
    except np.linalg.LinAlgError:
        deltas = [0j] * len(mus)
    bound = 1e-8 * float(np.max(np.abs(S), initial=0.0))
    lams = []
    for (a, b), d in zip(exact, deltas):
        if abs(d) <= bound:
            a, b = a + Fraction(d.real), b + Fraction(d.imag)
        norm2 = a * a + b * b
        lams.append(complex(_saturate(a / norm2), _saturate(-b / norm2)) if norm2 else complex(math.inf))
    return lams


def char_numbers(
    disc: NystromDiscretization,
    discard_threshold: float = EIGEN_DISCARD_DEFAULT,
) -> SpectralReport:
    """Characteristic numbers lambda_i = 1/mu_i of the second-kind equation
    phi = lambda K phi + q, from the eigenvalues mu_i of K*diag(w) with
    |mu_i| above the discard threshold.

    Eigenfunctions are normalized to sup-norm 1 with the max-modulus
    entry made real positive; every reported pair satisfies
    ||phi - lambda * K_w phi||_inf <= 1e-6.  The eigenpairs (mu, v) of
    ``disc.S`` give mu and the eigenfunction G v (see the module
    docstring)."""
    _require("nonnegative", discard_threshold=discard_threshold)
    mus, V = disc.eigenpairs
    pairs = []
    for mu, lam, vec in zip(mus, _reciprocals(disc), (disc.G @ V).T):
        if abs(mu) <= discard_threshold:
            continue
        j = int(np.argmax(np.abs(vec)))
        phi = vec / vec[j]
        with np.errstate(over="ignore", invalid="ignore"):  # a residual that is not finite fails
            resid = float(np.max(np.abs(phi - lam * disc.apply(phi))))
        if not resid <= 1e-6:
            continue  # numerically spurious pair
        pairs.append((complex(lam), phi))
    pairs.sort(key=lambda p: (abs(p[0]), p[0].real, p[0].imag))
    lams = tuple(p[0] for p in pairs)
    if pairs:
        funcs = np.vstack([p[1] for p in pairs])
        if np.iscomplexobj(funcs) and np.all(np.abs(funcs.imag) < 1e-300):
            funcs = funcs.real
    else:
        funcs = np.empty((0, disc.rule.n))
    return SpectralReport(
        nodes=disc.nodes,
        characteristic_numbers=lams,
        eigenfunctions=funcs,
        discard_threshold=discard_threshold,
    )


@dataclass(frozen=True)
class SweepReport:
    mu_values: tuple[float, ...]
    smallest_singular_values: tuple[float, ...]
    flagged: tuple[bool, ...]
    classification: str  # "exceptional" | "non_exceptional"

    @property
    def flagged_mus(self) -> tuple[float, ...]:
        return tuple(m for m, f in zip(self.mu_values, self.flagged) if f)


def _sweep_extremes(
    d0: NystromDiscretization, d1: NystromDiscretization, mu_grid: Sequence[float]
) -> Iterator[tuple[float, float]]:
    """(sigma_min, sigma_max) of Id - (K0 + mu*K1)*diag(w) for each mu, from
    its compression on [G0, G1, W H0, W H1] (every other singular value is
    1).  A compressed matrix that is not finite raises NumericalError."""
    n = d0.rule.n
    w = d0.weights
    r0, r1 = d0.G.shape[1], d1.G.shape[1]
    m = 2 * (r0 + r1)
    k = min(n, m)
    P0 = P1 = np.zeros((k, k))
    if m:
        R = np.linalg.qr(np.hstack([d0.G, d1.G, w[:, None] * d0.H, w[:, None] * d1.H]),
                         mode="r")
        P0 = R[:, :r0] @ R[:, r0 + r1 : 2 * r0 + r1].T
        P1 = R[:, r0 : r0 + r1] @ R[:, 2 * r0 + r1 :].T
    eye = np.eye(k)
    for mu in mu_grid:
        with np.errstate(over="ignore", invalid="ignore"):
            P = eye - (P0 + mu * P1)
        _require_finite_result(compressed_matrix=P)
        svals = np.linalg.svd(P, compute_uv=False).tolist() if k else []
        if n > k:
            svals.append(1.0)
        yield min(svals), max(svals)


def param_singularity_sweep(
    k0: KernelSpec,
    k1: KernelSpec,
    mu_grid: Sequence[float],
    rule: QuadratureRule | None = None,
) -> SweepReport:
    """Smallest singular value of Id - (K0 + mu*K1)*diag(w) over a mu grid.

    This is the paper's probe of the Fredholm alternative for a kernel
    with an embedded parameter, such as rho(t)rho(eta) + mu*sigma(t)rho(eta).
    A value below 1e-6 times the matrix norm flags mu as numerically
    exceptional.  Isolated flags mirror the countable-set alternative
    ("non_exceptional" kernel); adjacent flags on the grid indicate the
    everywhere-singular alternative ("exceptional").  The sweep takes the
    finite-rank route (see the module docstring).
    """
    if len(mu_grid) == 0:
        raise ValidationError("mu grid must be nonempty", key="mu-grid")
    rule = rule or simpson_rule()
    d0 = NystromDiscretization(k0, rule)
    d1 = NystromDiscretization(k1, rule)
    sigma_mins: list[float] = []
    flags: list[bool] = []
    for smin, smax in _sweep_extremes(d0, d1, mu_grid):
        sigma_mins.append(smin)
        flags.append(smin < SINGULARITY_FLAG_REL * smax)
    adjacent = any(flags[i] and flags[i + 1] for i in range(len(flags) - 1))
    if len(flags) == 1:
        classification = "exceptional" if flags[0] else "non_exceptional"
    else:
        classification = "exceptional" if adjacent else "non_exceptional"
    return SweepReport(
        mu_values=tuple(float(m) for m in mu_grid),
        smallest_singular_values=tuple(sigma_mins),
        flagged=tuple(flags),
        classification=classification,
    )


@dataclass(frozen=True)
class DegenerateResidual:
    mu: float
    residual: float
    rho_square_integral: float
    rho_sigma_integral: float


def degenerate_residual(
    rho: Profile,
    sigma: Profile,
    mu: float,
    rule: QuadratureRule | None = None,
) -> DegenerateResidual:
    """Sup residual of phi = rho + mu*sigma in the homogeneous equation
    phi = K phi with the kernel ``kernel_degenerate(mu, rho, sigma)``,
    rho(t)rho(eta) + mu*sigma(t)rho(eta): the paper's example of the
    Fredholm alternative, whose homogeneous equation has the solution
    phi for every mu.  ``rho`` and ``sigma`` are profiles (module docstring).

    Requires int rho^2 = 1 and int rho*sigma = 0 within 1e-8 (measured
    with the rule's weights); then the residual ||phi - K_w phi||, with
    K_w applied by the ``NystromDiscretization.apply`` the solver runs,
    is at quadrature level for any mu.
    """
    _require("finite", mu=mu)
    rule = rule or simpson_rule()
    w = rule.weights
    rho_v, sigma_v = _profile_samples([rho, sigma], rule.nodes).T
    rho_sq = float(np.sum(w * rho_v**2))
    rho_sig = float(np.sum(w * rho_v * sigma_v))
    if abs(rho_sq - 1.0) > 1e-8 or abs(rho_sig) > 1e-8:
        raise ValidationError(
            "side conditions violated: int rho^2 = "
            f"{rho_sq!r} (need 1), int rho*sigma = {rho_sig!r} (need 0)"
        )
    phi = rho_v + mu * sigma_v
    disc = NystromDiscretization(kernel_degenerate(mu, rho, sigma), rule)
    residual = float(np.max(np.abs(phi - disc.apply(phi))))
    return DegenerateResidual(
        mu=mu,
        residual=residual,
        rho_square_integral=rho_sq,
        rho_sigma_integral=rho_sig,
    )


# ---------------------------------------------------------------------------
# Reduction of a constant-coefficient ODE to an integral equation
# ---------------------------------------------------------------------------

BoundaryCondition = tuple[int, float, float]  # (derivative order, location, value)


@dataclass(frozen=True)
class OdeReductionSolution:
    trajectory: Trajectory  # column z on the output grid
    phi: np.ndarray  # z^(n) at the output nodes
    constants: tuple[float, ...]  # c_i = z^(i)(0) implied by the data


def _poly_part(a: tuple[float, ...], c, n: int, t: np.ndarray) -> np.ndarray:
    """sum_k a_k P_k(t) with P_k(t) = sum_{i>=k} c_i t^(i-k)/(i-k)!.

    The c_i may be arrays broadcasting against ``t``."""
    shape = np.broadcast_shapes(np.shape(t), *(np.shape(c[i]) for i in range(n)))
    total = np.zeros(shape)
    for k, ak in enumerate(a):
        if ak == 0.0:
            continue
        pk = np.zeros(shape)
        for i in range(k, n):
            pk += c[i] * t ** (i - k) / math.factorial(i - k)
        total += ak * pk
    return total


def _free_term_values(forcing: Profile | None,
                      a: tuple[float, ...], c: np.ndarray, n: int, t: np.ndarray) -> np.ndarray:
    """q(t) = f(t) - sum_k a_k P_k(t) at the increasing array ``t``, f called once."""
    f = 0.0 if forcing is None else _time_samples(forcing, t, 1, "forcing must return one "
                                                   "value per time")[:, 0]
    return f - _poly_part(a, c, n, t)


@dataclass(frozen=True)
class VolterraReduction:
    """Initial-data reduction: phi = z^(n) satisfies
    phi(t) = int_0^t kappa(t, eta) phi(eta) deta + q(t) with the
    convolution kernel kappa(t, eta) = -sum_k a_k (t-eta)^(n-1-k)/(n-1-k)!."""

    order: int
    a: tuple[float, ...]
    init: tuple[float, ...]
    forcing: Profile | None = None

    def solve(self, steps: int = 200, t_end: float = 1.0) -> OdeReductionSolution:
        """phi and z = J_n[phi] + sum c_i t^i/i! at the ``steps`` + 1 nodes
        of [0, t_end] by the core's one Volterra solve, ``odelin._volterra_ivp``
        (grid check, blow-up check and half-resolution guard included): the
        exact flow of the n moments of the history under the kernel
        coefficients K_m = -a_(n-1-m), O(steps n^2) work after one n x n
        exponential per march.  The forcing f/c_n, if any, is called once per
        march with every node and step midpoint; the rest of the free term
        is exact."""
        K = -np.array(self.a[::-1]).reshape(self.order, 1, 1)
        grid, z, phi = _volterra_ivp(K, self.forcing, self.init, t_end, steps, "Volterra march")
        return OdeReductionSolution(Trajectory(grid, z, ("z",)), phi[:, 0],
                                    tuple(float(x) for x in self.init))


@dataclass(frozen=True)
class FredholmReduction:
    """Two-point reduction: conditions at t = 1 turn the integration
    constants into linear functionals of phi, producing a genuine
    Fredholm kernel on [0, 1]^2 with multiplier lambda = 1."""

    order: int
    a: tuple[float, ...]
    conditions: tuple[BoundaryCondition, ...]
    forcing: Profile | None = None
    _c0: np.ndarray = field(repr=False, init=False, default=None)  # type: ignore[assignment]
    _Minv: np.ndarray = field(repr=False, init=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        n = self.order
        M = np.zeros((n, n))
        v = np.zeros(n)
        for j, (d, loc, value) in enumerate(self.conditions):
            v[j] = value
            if loc == 0.0:
                M[j, d] = 1.0
            else:
                for i in range(d, n):
                    M[j, i] = 1.0 / math.factorial(i - d)
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:
            raise DegenerateDataError("boundary placement yields a singular system") from None
        object.__setattr__(self, "_Minv", Minv)
        object.__setattr__(self, "_c0", Minv @ v)

    def _beta(self, eta):
        """beta_j(eta) = (1 - eta)^m/m!, m = n-1-d_j, for a condition on
        z^(d_j) at t = 1 and 0 otherwise, stacked on a leading axis of
        length n in front of the shape of ``eta``."""
        n = self.order
        out = np.zeros((n, *np.shape(eta)))
        for j, (d, loc, _) in enumerate(self.conditions):
            if loc == 1.0:
                m = n - 1 - d
                out[j] = (1.0 - eta) ** m / math.factorial(m)
        return out

    def solve(self, n_nodes: int = 65, steps: int = 200) -> OdeReductionSolution:
        """Collocate the Fredholm form at lambda = 1 on ``n_nodes``
        Chebyshev-Lobatto nodes, then carry z and phi to the ``steps`` + 1
        nodes of [0, 1] by barycentric interpolation.

        The kernel's two pieces take two rules (see "Two-point route" in the
        module docstring).  With S the spectral integration matrix, its
        last row w the Clenshaw-Curtis weights and B = M^-1 beta(t) w, the
        contribution of phi to the constants, phi solves
        (I + sum_k a_k S^(n-k) - P(t) B) phi = q, where P(t) B is the
        kernel's rank-n term.  Then c = c0 - B phi and
        z = S^n phi + sum c_i t^i/i!.  The full ODE is not marched from c:
        that would carry every error in c along the ODE's growing modes, by
        about e^sqrt(k)/(2 sqrt(k)) at t = 1 for z'' = k z.

        The step count and then the node count (at least 2) are checked
        before any work.  SpectrumProximityError when sigma_min/sigma_max
        of the collocation matrix is below ``SPECTRUM_PROXIMITY_TOL``:
        lambda = 1 is then numerically a characteristic number, and the
        data admit no solution or many (z'' + pi^2 z = 0, z(0) = 0,
        z(1) = 1).  ResolutionError when the last quarter of phi's
        Chebyshev coefficients exceeds 1e-8 of the largest: the nodes do
        not resolve phi.  BlowUpError when z or phi is not finite.
        """
        grid = TimeGrid(0.0, 1.0, steps)
        _require("positive", nodes=n_nodes)
        if n_nodes < 2:
            raise ValidationError("the collocation needs at least 2 nodes", key="nodes")
        _require_array_length(n_nodes, "nodes")
        n, what = self.order, "two-point reduction"
        t, S, to_coeffs = _chebyshev_lobatto(n_nodes)
        B = self._Minv @ (self._beta(t) * S[-1])
        powers = [S]  # S^1, ..., S^n
        for _ in range(n - 1):
            powers.append(S @ powers[-1])
        with np.errstate(over="ignore", invalid="ignore"):  # a matrix that is not finite fails
            A = np.eye(n_nodes) - _poly_part(self.a, np.eye(n)[:, None, :], n, t[:, None]) @ B
            for k, ak in enumerate(self.a):
                A += ak * powers[n - 1 - k]
        _require_finite_result(collocation_matrix=A)
        sigma = np.linalg.svd(A, compute_uv=False)
        if sigma[-1] < SPECTRUM_PROXIMITY_TOL * sigma[0]:
            mus = np.linalg.eigvals(np.eye(n_nodes) - A)
            mu = mus[np.argmin(np.abs(1.0 - mus))]
            nearest = complex(1.0 / mu) if mu else complex(math.inf)
            raise SpectrumProximityError(
                f"lambda = 1 is numerically a characteristic number of the {what}: "
                f"sigma_min/sigma_max = {sigma[-1] / sigma[0]:.3e} of its collocation matrix "
                f"is below {SPECTRUM_PROXIMITY_TOL} at {n_nodes} nodes (nearest {nearest!r})",
                nearest_characteristic_number=nearest,
            )
        with np.errstate(over="ignore", invalid="ignore"):  # a z or phi that is not finite fails
            phi = np.linalg.solve(A, _free_term_values(self.forcing, self.a, self._c0, n, t))
            c = self._c0 - B @ phi
            z = powers[-1] @ phi + sum(c[i] * t**i / math.factorial(i) for i in range(n))
            values = np.column_stack([z, phi])
            _raise_on_blow_up(values, t, what)
            coeffs = np.abs(to_coeffs @ phi)
            tail = np.max(coeffs[(3 * n_nodes) // 4:]) / np.max(coeffs)  # phi = 0 gives nan
            if tail > 1e-8:
                raise ResolutionError(
                    f"{n_nodes} nodes do not resolve phi: the last quarter of its Chebyshev "
                    f"coefficients reaches {tail:.3e} of the largest, above 1e-8; add nodes")
            out = _barycentric(t, values, grid.nodes)
            _raise_on_blow_up(out, grid.nodes, what)
        return OdeReductionSolution(Trajectory(grid, out[:, :1], ("z",)), out[:, 1],
                                    tuple(float(x) for x in c))


def _chebyshev_lobatto(n_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N = ``n_nodes`` Chebyshev-Lobatto nodes t_j = (1 + x_j)/2 of
    [0, 1], x_j = -cos(pi j/m) for m = N - 1 (in sine form, so that 0, 1/2
    and 1 are exact); the spectral integration matrix S, for which S f is
    int_0^t p at the nodes, p the polynomial interpolating f there, exact
    for f of degree <= N - 1; and the matrix C mapping values at the
    nodes to the coefficients of p in T_k(2t - 1) (Trefethen, ch. 3).  The
    last row of S holds the Clenshaw-Curtis weights."""
    m = n_nodes - 1
    j = np.arange(n_nodes)
    t = 0.5 + 0.5 * np.sin(np.pi * (2 * j - m) / (2 * m))
    k = np.arange(n_nodes + 1)
    T = np.cos(np.pi * (np.outer(m - j, k) % (2 * m)) / m)  # T_k(x_j), the angle reduced exactly
    half = np.ones(n_nodes)
    half[[0, -1]] = 0.5
    C = (2.0 / m) * (half[:, None] * T[:, :n_nodes].T * half)
    # the coefficients of int_-1^x: b_k = (c_(k-1) - c_(k+1))/(2k), c_0 counted twice in b_1,
    # and b_0 so that the integral vanishes at x = -1
    Q = np.zeros((n_nodes + 1, n_nodes))
    Q[k[1:], k[:-1]] = 1.0 / (2 * k[1:])
    Q[1, 0] = 1.0
    Q[k[1:m], k[2:m + 1]] = -1.0 / (2 * k[1:m])
    Q[0] = -((-1.0) ** k[1:]) @ Q[1:]
    return t, 0.5 * (T @ (Q @ C)), C


def _barycentric(nodes: np.ndarray, values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The polynomial interpolating the rows of ``values`` at the
    Chebyshev-Lobatto ``nodes``, at the points ``s``: the barycentric formula
    with the weights (-1)^j, halved at the ends (Trefethen, ch. 5); a point
    that is a node takes that node's row."""
    weights = (-1.0) ** np.arange(len(nodes))
    weights[[0, -1]] *= 0.5
    diff = s[:, None] - nodes
    hit = diff == 0.0
    W = weights / np.where(hit, 1.0, diff)
    rows, cols = np.nonzero(hit)
    W[rows] = 0.0
    W[rows, cols] = 1.0
    W /= np.sum(W, axis=1)[:, None]  # rows summing to 1: no overflow unless the values do
    return W @ values


def ode_to_integral(
    spec: OdeSpec,
    boundary: Sequence[float] | Sequence[BoundaryCondition],
) -> VolterraReduction | FredholmReduction:
    """Reduce the ODE to a second-kind integral equation for phi = z^(n).

    ``boundary`` is either n initial values (z(0), ..., z^(n-1)(0)),
    giving a Volterra problem with a convolution kernel, or n triples
    (derivative order, location in {0, 1}, value) splitting the data
    between the ends of [0, 1], giving a Fredholm problem.  A value that is
    not finite, a derivative order that is not an integer, a condition that
    is not a triple and initial values mixed with triples are rejected.
    Like the coefficients, the forcing is divided by the leading c_n, so
    phi solves z^(n) + sum a_k z^(k) = f/c_n; f is called once per march
    (or two-point solve) with the array of every sample time.
    """
    n = spec.order
    if len(boundary) != n:
        raise ValidationError(f"need exactly {n} boundary data, got {len(boundary)}")
    a = spec.normalized()
    _require_finite_result(normalized_coeffs=a)
    f, cn = spec.forcing, spec.coeffs[0]
    forcing = None if f is None else (lambda t: f(t) / cn)
    first = boundary[0]
    if not isinstance(first, (tuple, list)):
        if any(isinstance(b, (tuple, list)) for b in boundary):
            raise ValidationError("boundary data mix initial values with "
                                  "(derivative order, location, value) triples")
        init = tuple(float(b) for b in boundary)  # type: ignore[arg-type]
        bad = next((i for i, v in enumerate(init) if not math.isfinite(v)), None)
        if bad is not None:
            raise ValidationError(f"initial value z^({bad})(0) = {init[bad]!r} is not finite")
        return VolterraReduction(order=n, a=a, init=init, forcing=forcing)
    conditions: list[BoundaryCondition] = []
    seen: set[tuple[int, float]] = set()
    for item in boundary:  # type: ignore[assignment]
        if not isinstance(item, (tuple, list)) or len(item) != 3:
            raise ValidationError(
                f"boundary condition {item!r} is not a (derivative order, location, value) triple"
            )
        d, loc, value = item
        if not (isinstance(d, numbers.Integral) or isinstance(d, float) and d.is_integer()):
            shown = float(d) if isinstance(d, float) else d
            raise ValidationError(f"derivative order {shown!r} is not an integer")
        d, loc = int(d), float(loc)
        if not 0 <= d < n:
            raise ValidationError(f"derivative order {d} outside 0..{n - 1}")
        if loc not in (0.0, 1.0):
            raise ValidationError(f"boundary location must be 0 or 1, got {loc!r}")
        if (d, loc) in seen:
            raise ValidationError(
                f"duplicate derivative order {d} at t = {loc:g} in the boundary set"
            )
        value = float(value)
        if not math.isfinite(value):
            raise ValidationError(f"boundary value of z^({d}) at t = {loc:g} is {value!r}")
        seen.add((d, loc))
        conditions.append((d, loc, value))
    if all(loc == 0.0 for _, loc, _ in conditions):
        init_map = {d: value for d, _, value in conditions}
        init = tuple(init_map[i] for i in sorted(init_map))
        return VolterraReduction(order=n, a=a, init=init, forcing=forcing)
    return FredholmReduction(order=n, a=a, conditions=tuple(conditions), forcing=forcing)
