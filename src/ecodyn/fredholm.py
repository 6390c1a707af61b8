"""Second-kind integral equation machinery on [0, 1].

Nystrom discretization (composite Simpson by default, Gauss-Legendre as
an alternative rule), direct solves of phi = lambda*K phi + q, the
resolvent, characteristic numbers with eigenfunctions, singularity sweeps
for kernels k0 + mu*k1, and the classic reduction of a constant-
coefficient ODE to a Volterra (initial data) or Fredholm (two-point data)
equation.

One definition per kernel.  A ``KernelSpec`` is defined by its ``array``
form k(T, E), which takes float arrays broadcasting against each other
and returns a new float array of their broadcast shape holding k at every
pair; or, for a kernel built from profiles (``kernel_rho_rho``,
``kernel_sigma_rho``, ``kernel_degenerate``, ``kernel_zero``), by its
``separable`` pairs alone, and then G H^T is the kernel.  A closed-form
kernel with a factorization (``kernel_t_plus_eta``, ``kernel_exp_diff``)
gives both, and only then are the two forms compared: on a 5 x 5 lattice,
to 1e-12, at construction, where each given form is also checked for its
shape and for values that are not finite.  k(t, eta) is the kernel's
matrix at one point.  An array form samples K (nodes x nodes), a block of
its rows or the off-node values (points x nodes) in one call each; a
profile kernel's K, rows and action are formed from the samples G and H
below, so it makes no profile call after its discretization.  The
ODE-reduced kernels are array forms.

Finite-rank route.  A kernel that carries its separable form
k(t, eta) = sum_i g_i(t) h_i(eta) of rank r is, on the nodes, K = G H^T with
the n x r samples G = [g_i(t_j)] and H = [h_i(eta_j)], which
``NystromDiscretization`` takes once (n*r profile calls).  Such a kernel is
degenerate (Kress, *Linear Integral Equations*, 3rd ed., ch. 11; Atkinson,
*The Numerical Solution of Integral Equations of the Second Kind*, ch. 2),
and its characteristic numbers, its sweep and its spectral guard need no
n x n factorization.  Where none is made no n x n array is held either:
K is assembled on its first read, which only the n x n routes (eigvals,
LU, SVD) make, and is otherwise sampled in blocks of rows
(``NystromDiscretization.rows``).

  - Spectrum.  K W = G (H^T W) has the nonzero eigenvalues of the r x r
    matrix S = H^T W G, and an eigenpair S v = mu v gives the
    eigenfunction phi = G v.  Each entry of S is the correctly rounded
    sum of the products w_k h_i(eta_k) g_j(t_k) (math.fsum), and each
    eigenvalue of S gets one correction from its exact residual, so that
    1/mu is rounded once (see ``_rank_spectrum``).
  - Sweep.  On an orthonormal basis Q of the span of [G0, G1, W H0, W H1]
    (from the R factor of its QR factorization), Id - (K0 + mu K1) W is
    Q C Q^T + (Id - Q Q^T), so its singular values are those of the small
    C and, n - dim Q times, 1.
  - Solve.  (Id - lambda K W) phi = q is, for K = G H^T, the r x r
    capacitance system of the Woodbury identity (Kress, ch. 11):
    phi = q + G (I/lambda - S)^-1 H^T W q, with S and H^T W q summed by
    math.fsum.  ``nystrom_solve`` takes it when the guard's certificate
    proved lambda far from the spectrum and K is G H^T to the rounding of
    forming G H^T, ||D||_F <= 2(r + 3) eps s (below); a rank-0 kernel
    returns q.  Otherwise (eigvals decided, the kernel has no separable
    form, or its separable form is not the kernel), and always for
    ``resolvent``, the solve is LU of the n x n system matrix.  The
    paper's example of the Fredholm alternative, the degenerate kernel
    rho(t)rho(eta) + mu sigma(t)rho(eta) (arXiv:0804.3658), is rank 2:
    away from its characteristic numbers its solve never assembles K and
    holds two blocks of ``_DEFECT_ROWS`` x n floats at most, where the
    n x n route holds K, the system matrix and LAPACK's copy of it.
  - Guard, below.

Kernels without a separable form (the ODE-reduced kernels, user kernels)
take the n x n route for their spectrum, sweep and solve: eig, values-only
SVD and LU.

Routes the commands reach.  Every kernel the CLI offers (``--kernel``,
``--k0``, ``--k1``) has a separable form, and ``--kernel ode-reduced``
accepts initial values only, so it builds a ``VolterraReduction`` and no
Nystrom discretization.  The commands reach the n x n routes only when
the guard's certificate fails and eigvals decide lambda: a lambda at a
characteristic number is rejected there, and one they accept is solved by
LU.  The ``eig`` branch of ``char_numbers``, the SVD branch of
``_sweep_extremes`` and ``resolvent`` serve library callers only, and the
two-point reduction (``FredholmReduction``, whose kernel has no separable
form) is reached through the library alone, as ``perfbench/twopoint.py``
does.

Spectral guard.  A solve at lambda is rejected when 1/lambda lies within
``SPECTRUM_PROXIMITY_TOL`` of an eigenvalue mu of K*diag(w).  Every such
mu gives (I/lambda - KW) v = (1/lambda - mu) v for its eigenvector, so
sigma_min(A) <= dist(1/lambda, spec KW) for A = I/lambda - KW.  The guard
first tries to prove sigma_min(A) >= tau, with

    F    >= ||A||_F  (>= sigma_max),
    tau  = GUARD_SCREEN_FACTOR * SPECTRUM_PROXIMITY_TOL + n*eps*F,

by one certificate for every kernel; gamma_k = k*eps/(1 - k*eps) (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed.).  A kernel of
rank r >= 0 enters it with its samples G, H; a kernel without a separable
form enters it at rank 0, with G and H of no columns.  With m = 2r and
k = min(n, m), Weyl's inequality (Horn & Johnson, *Matrix Analysis*,
sec. 7.3) bounds

    sigma_min(A) >= sigma_min(A_r) - ||(K - G H^T) W||_F,
    A_r = I/lambda - G (W H)^T.

  - Perturbation.  D = fl(fl(K - fl(G H^T)) * w) differs from (K - G H^T) W
    entrywise by at most gamma_2 |(K - G H^T) W| + gamma_(r+3) |G| |W H|^T,
    and fl(vdot(D, D)) from ||D||_F^2 by gamma_(n^2) ||D||_F^2, so
    delta = (1 + 2(n^2 + 2) eps) sqrt(fl(vdot(D, D))) + 2(r + 3) eps s,
    s = sum_i ||g_i||_2 ||w h_i||_2, bounds the norm with slack.  D is
    formed ``_DEFECT_ROWS`` rows at a time and the blocks' vdots are
    added: gamma_(n^2) bounds a sum of n^2 terms in any order.  Each block
    samples its rows of K afresh unless K is assembled, with the bits of
    the full assembly (the array forms are elementwise), so the working
    memory stays at two blocks and the bound needs no new term.  The rows
    of a profile kernel are G H^T itself, so its D is the rounding of
    forming G H^T, which the second term already bounds.
  - Compression (r > 0).  Householder QR of [G, fl(W H)] returns R with
    [G, W H] + E = Q R, Q exactly orthonormal (n x k) and every column of E
    at most gq = 32 n m eps times its column of [G, W H] (Higham, thm.
    19.4, with a generous constant; it absorbs the rounding of W H).  So
    A_r is within e_qr = (2 gq + gq^2) ||G||_F ||W H||_F of
    Q C Q^T + (I - Q Q^T)/lambda, C = I/lambda - R_G R_H^T, whose singular
    values are those of C and, n - k times, 1/|lambda|.
  - Small SVD (r > 0).  fl(C) is within e_c = 2 gamma_(r+2) (||R_G||_F
    ||R_H||_F + sqrt(k)/|lambda|) of C in the 2-norm, and LAPACK's SVD
    returns the singular values of fl(C) to 32 k^2 eps sigma_max (backward
    stability and Weyl again; about ten times the usual constant).
  - So sigma_min(A) >= min(s_min - e_c - 32 k^2 eps s_max, 1/|lambda|
    (1 - eps)) - e_qr - delta, the second term only when n > k, and
    F = (1 + 4 eps)(sqrt((||fl(C)||_F + e_c)^2 + (n - k)/lambda^2) + e_qr
    + delta).  At 1201 nodes the margins add up to 1e-10 for t-plus-eta
    (rank 2) and 4e-11 for exp-diff (rank 1), against tau >= 2e-8; the
    work is O(n^2 r) for the perturbation and O(n r^2) for the QR.
  - Rank 0.  There is no compression and no small SVD (k = 0, e_qr = 0,
    A_r = I/lambda), so sigma_min(A) >= (1 - eps)/|lambda| - delta with
    delta >= ||KW||_F, and F = (1 + 4 eps)(sqrt(n)/|lambda| + delta), in
    O(n^2) work.  It proves only lambdas with |lambda| ||KW||_F below
    about 1; the two-point reduction of z'' + z = 0 has ||KW||_F = 0.11
    at 51 to 801 nodes, so its solves at lambda = 1 need no eigvals.

Since F >= sigma_max, tau is at least twice the tolerance plus
n*eps*sigma_max.  Only when the certificate fails, or F^2 is not finite
or above half the largest float, are the eigenvalues of KW computed; they
decide, and name the nearest characteristic number in the rejection.
Accept/reject decisions and messages are therefore those of a guard that
always computes eigvals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateDataError,
    NumericalError,
    ResolutionError,
    SingularMatrixError,
    SpectrumProximityError,
    ValidationError,
    _require,
    _require_finite_result,
)
from .odelin import (
    OdeSpec,
    TimeGrid,
    Trajectory,
    _check_half_resolution,
    _raise_on_blow_up,
    _volterra_trapezoid,
)

SPECTRUM_PROXIMITY_TOL = 1e-8
EIGEN_DISCARD_DEFAULT = 1e-10
SINGULARITY_FLAG_REL = 1e-6
# the guard skips eigvals only when sigma_min is proved above this multiple
# of the tolerance (plus rounding)
GUARD_SCREEN_FACTOR = 2.0
# rows of K sampled at a time where K is not assembled (the certificate's
# (K - G H^T) W and ``apply``): 32 x 1201 floats is about 300 KB
_DEFECT_ROWS = 32


@dataclass(frozen=True)
class KernelSpec:
    """A kernel k(t, eta) on [0, 1]^2, defined once: by its broadcasting
    ``array`` form k(T, E), by its ``separable`` pairs (g_i, h_i) of scalar
    profiles alone, as sum_i g_i(t) h_i(eta), or by both for a closed form
    with a factorization, where the array form is the kernel (see the
    module docstring).

    Construction samples each given form on a 5 x 5 lattice and rejects a
    kernel with neither, a form of the wrong shape or with a value that is
    not finite, and two forms that differ by more than 1e-12 relative.
    """

    array: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    separable: tuple[tuple[Callable[[float], float], Callable[[float], float]], ...] | None = None
    name: str = "kernel"

    def __post_init__(self):
        probe = np.linspace(0.0, 1.0, 5)
        forms = {}
        if self.array is not None:
            forms["array form"] = np.asarray(self.array(probe[:, None], probe[None, :]))
        if self.separable is not None:
            G, H = self.factors(probe, probe)
            forms["separable form"] = G @ H.T
        if not forms:
            raise ValidationError(f"kernel {self.name!r} needs an array or a separable form")
        for what, lattice in forms.items():
            if lattice.shape != (5, 5):
                raise ValidationError(
                    f"{what} of {self.name!r} returned shape {lattice.shape} on a 5 x 5 lattice"
                )
            if not np.isfinite(lattice).all():
                i, j = np.argwhere(~np.isfinite(lattice))[0]
                raise ValidationError(
                    f"{what} of {self.name!r} is not finite at ({probe[i]}, {probe[j]})"
                )
        if len(forms) == 2:
            a, s = forms["array form"], forms["separable form"]
            off = np.abs(s - a) > 1e-12 * np.maximum(1.0, np.abs(a))
            if off.any():
                i, j = np.argwhere(off)[0]
                raise ValidationError(
                    f"separable form of {self.name!r} deviates from the array form at "
                    f"({probe[i]}, {probe[j]}): {float(s[i, j])!r} vs {float(a[i, j])!r}"
                )

    def __call__(self, t: float, eta: float) -> float:
        return float(self.matrix(np.array([t], dtype=float), np.array([eta], dtype=float))[0, 0])

    def factors(self, t: np.ndarray, eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """G[j, i] = g_i(t_j) and H[j, i] = h_i(eta_j), one profile call per
        entry."""
        pairs = self.separable
        return (_profile_samples([g for g, _ in pairs], t),
                _profile_samples([h for _, h in pairs], eta))

    def matrix(self, t: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Samples k(t_i, eta_j) for 1-D ``t`` and ``eta`` as a
        len(t) x len(eta) array: the array form, or G H^T."""
        if self.array is not None:
            return self.array(t[:, None], eta[None, :])
        G, H = self.factors(t, eta)
        return G @ H.T


def _exp_diff(T: np.ndarray, E: np.ndarray) -> np.ndarray:
    out = np.subtract(T, E)
    return np.exp(out, out=out)


def kernel_t_plus_eta() -> KernelSpec:
    return KernelSpec(
        array=np.add,
        separable=((lambda t: t, lambda e: 1.0), (lambda t: 1.0, lambda e: e)),
        name="t-plus-eta",
    )


def kernel_exp_diff() -> KernelSpec:
    return KernelSpec(
        array=_exp_diff,
        separable=((math.exp, lambda e: math.exp(-e)),),
        name="exp-diff",
    )


def kernel_zero() -> KernelSpec:
    return KernelSpec(separable=(), name="zero")  # rank 0


def canonical_rho(t: float) -> float:
    """Unit-normalized profile: int_0^1 rho^2 = 1."""
    return 1.0


def canonical_sigma(t: float) -> float:
    """Profile orthogonal to canonical_rho: int_0^1 rho*sigma = 0."""
    return t - 0.5


def kernel_rho_rho(
    rho: Callable[[float], float] = canonical_rho,
) -> KernelSpec:
    return KernelSpec(separable=((rho, rho),), name="rho-rho")


def kernel_sigma_rho(
    sigma: Callable[[float], float] = canonical_sigma,
    rho: Callable[[float], float] = canonical_rho,
) -> KernelSpec:
    return KernelSpec(separable=((sigma, rho),), name="sigma-rho")


def kernel_degenerate(
    mu: float,
    rho: Callable[[float], float] = canonical_rho,
    sigma: Callable[[float], float] = canonical_sigma,
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
    name: str

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
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
    h = 1.0 / (n_nodes - 1)
    w = np.full(n_nodes, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    w /= float(np.sum(w))  # remove rounding drift so the sum is exactly 1
    return QuadratureRule(np.linspace(0.0, 1.0, n_nodes), w, "simpson")


def gauss_legendre_rule(n_nodes: int = 64) -> QuadratureRule:
    if n_nodes < 2:
        raise ValidationError("need at least 2 Gauss nodes", key="nodes")
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    weights = weights / float(np.sum(weights))
    return QuadratureRule(nodes, weights, "gauss-legendre")


def _profile_samples(profiles: Sequence[Callable[[float], float]], x: np.ndarray) -> np.ndarray:
    """len(x) x len(profiles) matrix of f_i(x_j), one scalar call each."""
    xs = x.tolist()
    cols = [[float(f(v)) for v in xs] for f in profiles]
    return np.array(cols, dtype=float).reshape(len(profiles), len(xs)).T.copy()


@dataclass
class NystromDiscretization:
    """Kernel sampled on a quadrature rule: K[i, j] = k(t_i, eta_j), and,
    for a separable kernel, its n x r factors G[j, i] = g_i(t_j) and
    H[j, i] = h_i(eta_j) (None otherwise; see the module docstring).

    K is assembled on its first read.  A kernel without a separable form
    assembles it at once, since its spectrum, sweep and solve all read it;
    a separable kernel's certificate and spectrum sample the kernel
    ``_DEFECT_ROWS`` rows at a time (``rows``), so only the n x n routes
    (``weighted``, ``system_matrix``, eigvals, ``resolvent``) assemble it.
    A kernel given by its profiles alone takes K, its rows and ``apply``
    from G and H."""

    kernel: KernelSpec
    rule: QuadratureRule
    G: np.ndarray | None = field(init=False, default=None)
    H: np.ndarray | None = field(init=False, default=None)
    _weighted_eigs: np.ndarray | None = field(init=False, default=None, repr=False)
    _defect: tuple[float, float] | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.kernel.separable is None:
            self.K  # assembled now: the n x n routes read it
        else:
            self.G, self.H = self.kernel.factors(self.rule.nodes, self.rule.nodes)

    @cached_property
    def K(self) -> np.ndarray:
        if self.kernel.array is None:
            return self.G @ self.H.T
        return self.kernel.matrix(self.rule.nodes, self.rule.nodes)

    def rows(self, i: int, j: int) -> np.ndarray:
        """Rows i:j of K: a view of K once it is assembled, else a new
        (j - i) x n sample, from the array form with the bits of the full
        assembly, or G[i:j] H^T for a profile kernel."""
        if "K" in self.__dict__:
            return self.K[i:j]
        if self.kernel.array is None:
            return self.G[i:j] @ self.H.T
        return self.kernel.matrix(self.rule.nodes[i:j], self.rule.nodes)

    @property
    def nodes(self) -> np.ndarray:
        return self.rule.nodes

    @property
    def weights(self) -> np.ndarray:
        return self.rule.weights

    def weighted(self) -> np.ndarray:
        return self.K * self.weights[None, :]

    def weighted_eigs(self) -> np.ndarray:
        if self._weighted_eigs is None:
            self._weighted_eigs = np.linalg.eigvals(self.weighted())
        return self._weighted_eigs

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """Quadrature application of the kernel operator to node values:
        G (H^T (w phi)) for a profile kernel, else ``_DEFECT_ROWS`` rows of
        K at a time."""
        wphi = self.weights * phi
        if self.kernel.array is None:
            return self.G @ (self.H.T @ wphi)
        n = self.rule.n
        return np.concatenate(
            [self.rows(i, i + _DEFECT_ROWS) @ wphi for i in range(0, n, _DEFECT_ROWS)]
        )

    def system_matrix(self, lam: float) -> np.ndarray:
        """Id - lambda*K*diag(w), built in place in one n x n array: the
        bits of np.eye(n) - lam * self.weighted(), since 0 - x = -x and
        x * (-lam) = -(lam * x) exactly."""
        M = self.weighted()
        M *= -lam
        M[np.diag_indices_from(M)] += 1.0
        return M


def _factors(disc: NystromDiscretization) -> tuple[np.ndarray, np.ndarray]:
    """G and H, with no columns for a kernel without a separable form."""
    if disc.G is None:
        return np.zeros((disc.rule.n, 0)), np.zeros((disc.rule.n, 0))
    return disc.G, disc.H


@np.errstate(over="ignore", invalid="ignore")  # a sum that is not finite fails the callers
def _separable_defect(disc: NystromDiscretization) -> tuple[float, float]:
    """fl(||D||_F^2) for D = fl(fl(K - fl(G H^T)) * w), summed over blocks of
    ``_DEFECT_ROWS`` rows, and s = sum_i ||g_i||_2 ||w h_i||_2 (see
    "Perturbation" in the module docstring).  Neither depends on lambda, so
    they are computed once per discretization."""
    if disc._defect is None:
        G, H = _factors(disc)
        w = disc.weights
        n = disc.rule.n
        block = np.empty((min(n, _DEFECT_ROWS), n))
        dsq = 0.0
        for i in range(0, n, _DEFECT_ROWS):
            D = block[: min(_DEFECT_ROWS, n - i)]
            np.matmul(G[i : i + _DEFECT_ROWS], H.T, out=D)
            np.subtract(disc.rows(i, i + _DEFECT_ROWS), D, out=D)  # the sample is freed here
            D *= w
            dsq += float(np.vdot(D, D))
        s = float(np.sum(np.linalg.norm(G, axis=0) * np.linalg.norm(w[:, None] * H, axis=0)))
        disc._defect = (dsq, s)
    return disc._defect


@np.errstate(over="ignore", invalid="ignore")  # a bound that is not finite fails
def _certified_far(disc: NystromDiscretization, lam: float) -> bool:
    """Whether sigma_min(I/lam - KW) >= tau is proved by the Weyl
    certificate, at rank 0 for a kernel without a separable form (see the
    module docstring).  Never True for a matrix that is not finite."""
    n = disc.rule.n
    eps = np.finfo(float).eps
    G, H = _factors(disc)
    r = G.shape[1]
    WH = disc.weights[:, None] * H
    # delta >= ||(K - G H^T) W||_F
    dsq, s = _separable_defect(disc)
    delta = (1.0 + 2 * (n * n + 2) * eps) * math.sqrt(dsq)
    delta += 2 * (r + 3) * eps * s
    inv = 1.0 / lam
    k = min(n, 2 * r)
    low, fro_c, e_qr = math.inf, 0.0, 0.0
    if r:
        R = np.linalg.qr(np.hstack([G, WH]), mode="r")
        RG, RH = R[:, :r], R[:, r:]
        C = RG @ RH.T
        np.negative(C, out=C)
        C[np.diag_indices_from(C)] += inv
        if not np.isfinite(C).all():
            return False  # the SVD would not converge
        sv = np.linalg.svd(C, compute_uv=False)
        gq = 32 * n * 2 * r * eps
        e_qr = (2 * gq + gq * gq) * float(np.linalg.norm(G)) * float(np.linalg.norm(WH))
        e_c = 2 * (r + 2) * eps * (
            float(np.linalg.norm(RG)) * float(np.linalg.norm(RH)) + math.sqrt(k) * abs(inv)
        )
        low = float(sv[-1]) - e_c - 32 * k * k * eps * float(sv[0])
        fro_c = float(np.linalg.norm(C)) + e_c
    if n > k:
        low = min(low, abs(inv) * (1.0 - eps))
    fro = (1.0 + 4 * eps) * (math.sqrt(fro_c * fro_c + (n - k) * inv * inv) + e_qr + delta)
    # not finite, or near overflow: left to eigvals
    if not fro * fro <= np.finfo(float).max / 2:
        return False
    tau = GUARD_SCREEN_FACTOR * SPECTRUM_PROXIMITY_TOL + n * eps * fro
    return low - e_qr - delta >= tau


def _dense_solve(disc: NystromDiscretization, lam: float, rhs: np.ndarray) -> np.ndarray:
    """(Id - lambda*K*W)^-1 rhs by the n x n system matrix.  Entries near the
    float range pass the guard, so a system matrix that overflows raises
    NumericalError, and one that LAPACK finds singular SingularMatrixError."""
    with np.errstate(over="ignore"):
        M = disc.system_matrix(lam)
    if not (math.isfinite(M.max()) and math.isfinite(M.min())):  # no n x n temporary
        _require_finite_result(system_matrix=M)
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Id - lambda*K*W is singular ({exc})") from None


def _guarded_solve(disc: NystromDiscretization, lam: float, q: np.ndarray) -> np.ndarray:
    """(Id - lambda*K*W)^-1 q after the spectral guard: at the kernel's rank
    when the certificate decided and K is G H^T to rounding, else by the
    n x n system matrix (see "Solve" in the module docstring).  A phi that
    is not finite raises NumericalError on either route."""
    if not (_guard_spectrum(disc, lam) and disc.G is not None and _is_separable_form(disc)):
        phi, route = _dense_solve(disc, lam, q), "n x n"
    else:
        phi, route = _rank_solve(disc, lam, q), "finite-rank"
    if not np.isfinite(phi).all():
        raise NumericalError(f"the {route} solve gave a phi that is not finite")
    return phi


def _rank_solve(disc: NystromDiscretization, lam: float, q: np.ndarray) -> np.ndarray:
    """phi = q + G (I/lambda - S)^-1 H^T W q, the Woodbury form for K = G H^T;
    q itself at rank 0."""
    r = disc.G.shape[1]
    if r == 0:
        return q
    with np.errstate(over="ignore", invalid="ignore"):  # a phi that is not finite fails
        Sq = _weighted_inner(disc, np.column_stack([disc.G, q]))
        C = -Sq[:, :r]
        C[np.diag_indices_from(C)] += 1.0 / lam
        try:
            return q + disc.G @ np.linalg.solve(C, Sq[:, r])
        except np.linalg.LinAlgError as exc:  # singular exactly when Id - lambda*K*W is
            raise SingularMatrixError(f"Id - lambda*K*W is singular ({exc})") from None


def _is_separable_form(disc: NystromDiscretization) -> bool:
    """Whether ||D||_F <= 2 (r + 3) eps s: K differs from G H^T by no more
    than the rounding the certificate allows for forming G H^T."""
    dsq, s = _separable_defect(disc)
    r = disc.G.shape[1]
    return math.sqrt(dsq) <= 2 * (r + 3) * np.finfo(float).eps * s


def _guard_spectrum(disc: NystromDiscretization, lam: float) -> bool:
    """Reject lam as ``nystrom_solve`` describes; True when the certificate
    decided, False when eigvals did (or lam = 0)."""
    if not np.isfinite(lam):
        raise ValidationError(f"lambda must be finite, got {lam!r}", key="lam")
    if lam == 0.0:
        return False
    if _certified_far(disc, lam):
        return True  # sigma_min <= dist(1/lam, spec KW): no eigenvalue is near
    eigs = disc.weighted_eigs()
    dist = np.abs(1.0 / lam - eigs)
    j = int(np.argmin(dist))
    if dist[j] < SPECTRUM_PROXIMITY_TOL:
        mu = eigs[j]
        nearest = complex(1.0 / mu if mu != 0 else math.inf)
        raise SpectrumProximityError(
            f"lambda = {lam!r} sits within {SPECTRUM_PROXIMITY_TOL} of the "
            f"characteristic number {nearest!r}",
            nearest_characteristic_number=nearest,
        )
    return False


@dataclass
class NystromSolution:
    disc: NystromDiscretization
    lam: float
    q: Callable[[float], float]
    phi: np.ndarray

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        """Off-node values by the natural interpolation
        phi(t) = q(t) + lambda * sum_j w_j k(t, eta_j) phi_j.

        ``t`` is one point (returns a float) or an array of points
        (returns an array of its shape), evaluated as one matrix product.
        """
        disc = self.disc
        ts = np.asarray(t, dtype=float).ravel()
        qv = np.array([self.q(float(x)) for x in ts])
        vals = qv + self.lam * (disc.kernel.matrix(ts, disc.nodes) @ (disc.weights * self.phi))
        if np.ndim(t) == 0:
            return float(vals[0])
        return vals.reshape(np.shape(t))


def nystrom_solve(
    disc: NystromDiscretization,
    lam: float,
    q: Callable[[float], float],
) -> NystromSolution:
    """Solve (Id - lambda*K*diag(w)) phi = q at the nodes: the Nystrom form
    of the second-kind equation phi = lambda K phi + q.

    Rejects a lambda that is not finite, and one whose reciprocal sits
    within 1e-8 of an eigenvalue of the weighted kernel matrix, naming the
    nearest characteristic number (see "Spectral guard" in the module
    docstring).  A separable kernel away from its spectrum is solved at its
    rank, with no n x n array at all (see "Solve" there).  A phi that is
    not finite, as from a free term that is not, raises NumericalError.
    """
    phi = _guarded_solve(disc, lam, np.array([q(float(t)) for t in disc.nodes], dtype=float))
    return NystromSolution(disc=disc, lam=lam, q=q, phi=phi)


def resolvent(disc: NystromDiscretization, lam: float) -> np.ndarray:
    """Node samples of H(t, eta, lambda) = (Id - lambda*K*W)^-1 K, so that
    phi = q + lambda * (quadrature apply of H to q).  Always by the n x n
    system matrix, which keeps it an independent check of ``nystrom_solve``."""
    _guard_spectrum(disc, lam)
    return _dense_solve(disc, lam, disc.K)


def resolvent_apply(
    disc: NystromDiscretization, H: np.ndarray, lam: float, q_nodes: np.ndarray
) -> np.ndarray:
    return q_nodes + lam * (H @ (disc.weights * q_nodes))


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


def _rank_spectrum(disc: NystromDiscretization) -> tuple[np.ndarray, np.ndarray, list[complex]]:
    """Eigenvalues mu_i and eigenvectors v_i of S = H^T W G (r x r) of a
    separable kernel, and its characteristic numbers 1/mu_i.

    Each entry of S is the correctly rounded sum of its n products
    w_k h_i(t_k) g_j(t_k) (``math.fsum``): a plain dot product put the
    -12.93 of t-plus-eta off by 4.6e-14 relative at 801 nodes.  eig(S)
    and the division 1/mu round once more each, which left some
    characteristic numbers further from the exact ones than those of
    eig(KW) (t-plus-eta at 7 and 51 Simpson nodes).  So each mu_i gets one
    first-order correction d_i = (V^-1 R)_ii from the residual
    R = S V - V diag(mu), computed exactly in fractions, and
    1/(mu_i + d_i) is rounded once.  A correction above 1e-8 max|S| (a
    defective or ill-conditioned S) is dropped, leaving 1/mu_i.
    """
    from fractions import Fraction  # here: only the spectrum needs it

    r = disc.G.shape[1]
    S = _weighted_inner(disc, disc.G)
    mus, V = np.linalg.eig(S)
    Sx = [[Fraction(x) for x in row] for row in S.tolist()]
    exact, R = [], np.empty((r, r), dtype=complex)
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
        deltas = [0j] * r
    bound = 1e-8 * float(np.max(np.abs(S), initial=0.0))
    lams = []
    for (a, b), d in zip(exact, deltas):
        if abs(d) <= bound:
            a, b = a + Fraction(d.real), b + Fraction(d.imag)
        norm2 = a * a + b * b
        lams.append(complex(_saturate(a / norm2), _saturate(-b / norm2)) if norm2 else complex(math.inf))
    return mus, V, lams


def char_numbers(
    disc: NystromDiscretization,
    discard_threshold: float = EIGEN_DISCARD_DEFAULT,
) -> SpectralReport:
    """Characteristic numbers lambda_i = 1/mu_i of the second-kind equation
    phi = lambda K phi + q, from the eigenvalues mu_i of K*diag(w) with
    |mu_i| above the discard threshold.

    Eigenfunctions are normalized to sup-norm 1 with the max-modulus
    entry made real positive; every reported pair satisfies
    ||phi - lambda * K_w phi||_inf <= 1e-6.  A separable kernel takes the
    finite-rank route: the eigenpairs (mu, v) of S = H^T W G give mu and
    the eigenfunction G v (see the module docstring)."""
    _require("nonnegative", discard_threshold=discard_threshold)
    if disc.G is not None:
        eigvals, vecs, rank_lams = _rank_spectrum(disc)
        eigvecs = disc.G @ vecs
    else:
        eigvals, eigvecs = np.linalg.eig(disc.weighted())
    pairs = []
    for i, (mu, vec) in enumerate(zip(eigvals, eigvecs.T)):
        if abs(mu) <= discard_threshold:
            continue
        lam = 1.0 / mu if disc.G is None else rank_lams[i]
        j = int(np.argmax(np.abs(vec)))
        phi = vec / vec[j]
        resid = float(np.max(np.abs(phi - lam * disc.apply(phi))))
        if resid > 1e-6:
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
    """(sigma_min, sigma_max) of Id - (K0 + mu*K1)*diag(w) for each mu: from
    the compression on [G0, G1, W H0, W H1] when both kernels are
    separable (every other singular value is 1), else from the SVD."""
    n = d0.rule.n
    w = d0.weights
    if d0.G is None or d1.G is None:
        eye = np.eye(n)
        for mu in mu_grid:
            svals = np.linalg.svd(eye - (d0.K + mu * d1.K) * w[None, :], compute_uv=False)
            yield float(svals[-1]), float(svals[0])
        return
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
        svals = np.linalg.svd(eye - (P0 + mu * P1), compute_uv=False).tolist() if k else []
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
    everywhere-singular alternative ("exceptional").  Two separable
    kernels take the finite-rank route (see the module docstring).
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
    rho: Callable[[float], float],
    sigma: Callable[[float], float],
    mu: float,
    rule: QuadratureRule | None = None,
) -> DegenerateResidual:
    """Sup residual of phi = rho + mu*sigma in the homogeneous equation
    phi = K phi with the kernel ``kernel_degenerate(mu, rho, sigma)``,
    rho(t)rho(eta) + mu*sigma(t)rho(eta): the paper's example of the
    Fredholm alternative, whose homogeneous equation has the solution
    phi for every mu.

    Requires int rho^2 = 1 and int rho*sigma = 0 within 1e-8 (measured
    with the rule's weights); then the residual ||phi - K_w phi||, with
    K_w applied by the ``NystromDiscretization.apply`` the solver runs,
    is at quadrature level for any mu.
    """
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


def _ode_solution(grid: TimeGrid, refine: int, phi: np.ndarray, J: np.ndarray, c: np.ndarray,
                  what: str) -> OdeReductionSolution:
    """z = J_n[phi] + sum_i c_i t^i/i! and phi at every ``refine``-th node of
    ``grid``, which starts at 0, given phi and its trapezoid J_n[phi] on
    that grid.  A non-finite z or phi raises BlowUpError naming ``what``."""
    tk = grid.nodes[::refine]
    with np.errstate(over="ignore", invalid="ignore"):
        z = J[::refine] + sum(c[i] * tk**i / math.factorial(i) for i in range(len(c)))
    phi = phi[::refine]
    _raise_on_blow_up(np.column_stack([z, phi]), tk, what)
    return OdeReductionSolution(
        trajectory=Trajectory(TimeGrid(0.0, grid.t_end, grid.steps // refine), z, ("z",)),
        phi=phi,
        constants=tuple(float(x) for x in c),
    )


def _volterra_kernel(a: tuple[float, ...], n: int) -> Callable[[float, float], float]:
    """kappa(t, eta) = -sum_k a_k (t - eta)^(n-1-k)/(n-1-k)!, for floats or
    broadcasting arrays."""
    def kappa(t, eta):
        d = t - eta
        acc = 0.0
        for k, ak in enumerate(a):
            m = n - 1 - k
            acc = acc - ak * d**m / math.factorial(m)
        return acc

    return kappa


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


def _free_term_values(
    forcing: Callable[[float], float] | None,
    a: tuple[float, ...],
    c: np.ndarray,
    n: int,
    t: np.ndarray,
) -> np.ndarray:
    """q(t) = f(t) - sum_k a_k P_k(t) at every point of the array ``t``."""
    f = np.array([forcing(float(x)) for x in t]) if forcing is not None else 0.0
    return f - _poly_part(a, c, n, t)


@dataclass(frozen=True)
class VolterraReduction:
    """Initial-data reduction: phi = z^(n) satisfies
    phi(t) = int_0^t kappa(t, eta) phi(eta) deta + q(t) with the
    convolution kernel kappa(t, eta) = -sum_k a_k (t-eta)^(n-1-k)/(n-1-k)!."""

    order: int
    a: tuple[float, ...]
    init: tuple[float, ...]
    forcing: Callable[[float], float] | None = None

    def kernel(self, t: float, eta: float) -> float:
        return _volterra_kernel(self.a, self.order)(t, eta)

    def free_term(self, t: float) -> float:
        return float(self._free_terms(np.array([t]))[0])

    def _free_terms(self, t: np.ndarray) -> np.ndarray:
        return _free_term_values(self.forcing, self.a, np.asarray(self.init), self.order, t)

    def solve(self, steps: int = 200, t_end: float = 1.0, refine: int = 4) -> OdeReductionSolution:
        """March phi with trapezoidal quadrature on an internally refined
        grid, then reconstruct z(t) = J_n[phi](t) + sum c_i t^i/i! at the
        requested nodes.

        The kernel is the polynomial sum_m K_m (t-eta)^m/m! with
        K_m = -a_(n-1-m), so the march carries n running moments of the
        history instead of summing it at every node: O(N n^2) work for the
        N = steps * refine nodes, and J_n[phi] comes out of the last moment.
        Counts below 1 and a grid end that is not finite and positive are
        rejected before the march; a non-finite phi or z raises BlowUpError.
        A second march at half the N nodes (a one-node march is its own
        half) guards the step: z drifting from it by more than 10% raises
        ResolutionError, as in ``leontief.volterra_solve``.
        """
        _require("positive", steps=steps, refine=refine)
        grid = TimeGrid(0.0, float(t_end), steps * refine)
        sol = self._march(grid, refine)
        half = self._march(TimeGrid(0.0, grid.t_end, max(grid.steps // 2, 1)), 1).trajectory
        _check_half_resolution(sol.trajectory.times, sol.trajectory.values, half.times, half.values)
        return sol

    def _march(self, grid: TimeGrid, refine: int) -> OdeReductionSolution:
        n = self.order
        a = self.a
        c = np.asarray(self.init, dtype=float)
        h = grid.h
        # kernel at the moving node: kappa(t, t) = -a_{n-1}
        if abs(1.0 + (h / 2.0) * a[n - 1]) < 1e-12:
            raise ResolutionError("marching step resonates with the kernel; refine")
        K = -np.array(a[::-1]).reshape(n, 1, 1)
        phi, J = _volterra_trapezoid(K, self._free_terms(grid.nodes)[:, None], h)
        return _ode_solution(grid, refine, phi[:, 0], J[:, 0], c, "Volterra march")


@dataclass(frozen=True)
class FredholmReduction:
    """Two-point reduction: conditions at t = 1 turn the integration
    constants into linear functionals of phi, producing a genuine
    Fredholm kernel on [0, 1]^2 with multiplier lambda = 1."""

    order: int
    a: tuple[float, ...]
    conditions: tuple[BoundaryCondition, ...]
    forcing: Callable[[float], float] | None = None
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

    def kernel_array(self, T: np.ndarray, E: np.ndarray) -> np.ndarray:
        """The Fredholm kernel on broadcasting arrays: the Volterra
        polynomial in t - eta masked to eta <= t, plus the rank-n term
        P(t).Minv beta(eta), where Minv beta(eta) is the contribution of
        phi(eta) to the constants c."""
        n = self.order
        out = np.where(E <= T, _volterra_kernel(self.a, n)(T, E), 0.0)
        coeff = np.tensordot(self._Minv, self._beta(E), axes=1)
        out += _poly_part(self.a, coeff, n, T)
        return out

    def kernel_spec(self) -> KernelSpec:
        """The kernel as a ``KernelSpec`` given by ``kernel_array``."""
        return KernelSpec(array=self.kernel_array, name="ode-reduced")

    def free_term(self, t: float) -> float:
        q = _free_term_values(self.forcing, self.a, self._c0, self.order, np.array([t]))
        return float(q[0])

    def solve(self, n_nodes: int = 201, steps: int = 200) -> OdeReductionSolution:
        """Nystrom-solve the Fredholm form at lambda = 1 on ``n_nodes``
        Simpson nodes, which fixes the constants c_i = z^(i)(0) the data
        imply, then integrate the initial-value problem z^(n) = phi,
        z^(i)(0) = c_i: phi is the Nystrom interpolant on a grid four
        times finer than the ``steps`` output intervals, and
        ``_volterra_trapezoid`` with a zero kernel gives its J_n[phi].

        The full ODE is not marched from c: that would carry every error
        in c along the ODE's growing modes, by about e^sqrt(k)/(2 sqrt(k))
        at t = 1 for z'' = k z.  Integrating phi, which the Fredholm form
        fixes on all of [0, 1] at once, amplifies none.
        """
        grid = TimeGrid(0.0, 1.0, 4 * steps)
        rule = simpson_rule(n_nodes)
        disc = NystromDiscretization(self.kernel_spec(), rule)
        sol = nystrom_solve(disc, 1.0, self.free_term)
        w_phi = np.sum(rule.weights * self._beta(rule.nodes) * sol.phi, axis=1)
        c = self._c0 - self._Minv @ w_phi
        K = np.zeros((self.order, 1, 1))
        phi, J = _volterra_trapezoid(K, sol(grid.nodes)[:, None], grid.h)
        return _ode_solution(grid, 4, phi[:, 0], J[:, 0], c, "two-point reduction")


def ode_to_integral(
    spec: OdeSpec,
    boundary: Sequence[float] | Sequence[BoundaryCondition],
) -> VolterraReduction | FredholmReduction:
    """Reduce the ODE to a second-kind integral equation for phi = z^(n).

    ``boundary`` is either n initial values (z(0), ..., z^(n-1)(0)),
    giving a Volterra problem with a convolution kernel, or n triples
    (derivative order, location in {0, 1}, value) splitting the data
    between the ends of [0, 1], giving a Fredholm problem.  Like the
    coefficients, the forcing is divided by the leading c_n, so phi solves
    z^(n) + sum a_k z^(k) = f/c_n.
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
        init = tuple(float(b) for b in boundary)  # type: ignore[arg-type]
        return VolterraReduction(order=n, a=a, init=init, forcing=forcing)
    conditions: list[BoundaryCondition] = []
    seen: set[tuple[int, float]] = set()
    for item in boundary:  # type: ignore[assignment]
        d, loc, value = item
        d = int(d)
        loc = float(loc)
        if not 0 <= d < n:
            raise ValidationError(f"derivative order {d} outside 0..{n - 1}")
        if loc not in (0.0, 1.0):
            raise ValidationError(f"boundary location must be 0 or 1, got {loc!r}")
        if (d, loc) in seen:
            raise ValidationError(
                f"duplicate derivative order {d} at t = {loc:g} in the boundary set"
            )
        seen.add((d, loc))
        conditions.append((d, loc, float(value)))
    if all(loc == 0.0 for _, loc, _ in conditions):
        init_map = {d: value for d, _, value in conditions}
        init = tuple(init_map[i] for i in sorted(init_map))
        return VolterraReduction(order=n, a=a, init=init, forcing=forcing)
    return FredholmReduction(order=n, a=a, conditions=tuple(conditions), forcing=forcing)
