import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ecodyn import cli, fredholm, odelin
from ecodyn.errors import (
    BlowUpError,
    DegenerateDataError,
    NumericalError,
    ResolutionError,
    SpectrumProximityError,
    ValidationError,
)
from ecodyn.fredholm import (
    SINGULARITY_FLAG_REL,
    SPECTRUM_PROXIMITY_TOL,
    FredholmReduction,
    KernelSpec,
    NystromDiscretization,
    NystromSolution,
    QuadratureRule,
    VolterraReduction,
    _chebyshev_lobatto,
    canonical_rho,
    canonical_sigma,
    char_numbers,
    degenerate_residual,
    kernel_degenerate,
    kernel_exp_diff,
    kernel_rho_rho,
    kernel_sigma_rho,
    kernel_t_plus_eta,
    kernel_zero,
    nystrom_solve,
    ode_to_integral,
    param_singularity_sweep,
    simpson_rule,
)
from ecodyn.odelin import OdeSpec, TimeGrid, _volterra_nodes
from conftest import augmented_flow, companion, ode_flow


def gauss_legendre_rule(n_nodes: int = 64) -> QuadratureRule:
    """The n-point Gauss-Legendre rule on [0, 1]: non-uniform nodes for the
    properties that must not rest on Simpson's equal spacing."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    w = 0.5 * w
    return QuadratureRule(0.5 * (x + 1.0), w / float(np.sum(w)))


@pytest.fixture(scope="module")
def rule():
    return simpson_rule(201)


@pytest.fixture(scope="module")
def disc_sum(rule):
    return NystromDiscretization(kernel_t_plus_eta(), rule)


@pytest.fixture(scope="module")
def disc_exp(rule):
    return NystromDiscretization(kernel_exp_diff(), rule)


class TestRules:
    def test_simpson_weights_sum_to_one(self):
        for n in (3, 51, 201):
            r = simpson_rule(n)
            assert abs(float(np.sum(r.weights)) - 1.0) <= 1e-14
            assert np.all(np.diff(r.nodes) > 0)

    def test_simpson_needs_odd_count(self):
        with pytest.raises(ValidationError):
            simpson_rule(200)

    @pytest.mark.parametrize("n", [2**62 + 1, sys.maxsize])
    def test_nodes_no_array_can_hold_are_out_of_memory(self, n):
        # numpy refused these as too big (ValueError)
        with pytest.raises(MemoryError, match=f"^Unable to allocate {n} nodes"):
            simpson_rule(n)

    @pytest.mark.parametrize("nodes, weights, name", [
        ([0.0, math.nan, 1.0], [0.25, 0.5, 0.25], "nodes"),
        ([0.0, 0.5, math.inf], [0.25, 0.5, 0.25], "nodes"),
        ([0.0, 0.5, 1.0], [0.25, math.nan, 0.25], "weights"),
    ], ids=["nan-node", "inf-node", "nan-weight"])
    def test_non_finite_rule_is_refused(self, nodes, weights, name):
        # NaN passed every comparison, and a solve on the rule then failed as
        # a numerical error
        with pytest.raises(ValidationError, match=f"^quadrature {name} must be finite$"):
            QuadratureRule(nodes, weights)

    def test_gauss_legendre_integrates_polynomials(self):
        r = gauss_legendre_rule(16)
        assert float(np.sum(r.weights * r.nodes**5)) == pytest.approx(1.0 / 6.0, abs=1e-14)


class TestNystromSolve:
    def test_lambda_zero_returns_free_term(self, disc_sum):
        sol = nystrom_solve(disc_sum, 0.0, np.sin)
        assert np.allclose(sol.phi, np.sin(disc_sum.nodes), atol=1e-15)

    def test_sum_kernel_closed_form(self, disc_sum):
        # independent oracle: phi = alpha + beta*t with the separable 2x2
        # moment system solved by hand -> alpha = 36/23, beta = 24/23
        sol = nystrom_solve(disc_sum, 0.5, lambda t: 1.0)
        expected = 36.0 / 23.0 + (24.0 / 23.0) * disc_sum.nodes
        assert np.max(np.abs(sol.phi - expected)) < 1e-12

    def test_exp_kernel_rank_one_closed_form(self, disc_exp):
        # phi = q + (lam/(1-lam)) e^t int_0^1 e^-eta q(eta) deta, q(t) = t
        lam = 0.5
        moment = 1.0 - 2.0 / math.e  # int_0^1 eta e^-eta deta by parts
        sol = nystrom_solve(disc_exp, lam, lambda t: t)
        expected = disc_exp.nodes + (lam / (1 - lam)) * np.exp(disc_exp.nodes) * moment
        assert np.max(np.abs(sol.phi - expected)) < 1e-8

    def test_off_node_interpolation_residual(self, disc_sum):
        lam = 0.5
        sol = nystrom_solve(disc_sum, lam, lambda t: 1.0)
        fine = simpson_rule(801)
        for t in (0.137, 0.5521, 0.9113):
            integral = float(
                np.sum(fine.weights * (t + fine.nodes) * [sol(float(e)) for e in fine.nodes])
            )
            residual = sol(t) - lam * integral - 1.0
            assert abs(residual) < 1e-6

    def test_near_spectrum_rejected(self, disc_exp):
        with pytest.raises(SpectrumProximityError) as exc_info:
            nystrom_solve(disc_exp, 1.0 + 1e-10, lambda t: 1.0)
        assert exc_info.value.nearest_characteristic_number == pytest.approx(1.0, abs=1e-6)

    def test_neumann_series_consistency(self, disc_sum):
        # small lambda: solution equals the truncated Neumann series within
        # the geometric tail bound
        lam = 0.2
        q = np.ones(disc_sum.rule.n)
        Kw = disc_sum.weighted()
        norm = float(np.linalg.norm(lam * Kw, np.inf))
        assert norm < 0.5
        series = q.copy()
        term = q.copy()
        m = 12
        for _ in range(m):
            term = lam * (Kw @ term)
            series += term
        bound = norm ** (m + 1) / (1.0 - norm) * float(np.max(np.abs(q)))
        sol = nystrom_solve(disc_sum, lam, lambda t: 1.0)
        assert np.max(np.abs(sol.phi - series)) <= bound + 1e-14

    @pytest.mark.parametrize("mu", [1e20, 1e300])
    def test_huge_mu_degenerate_solves_at_its_rank(self, mu):
        # the 2 x 2 capacitance system gives the exact solution 2 + mu (t - 1/2),
        # whose integral is 2, where the n x n system meets an exact zero pivot
        disc = NystromDiscretization(kernel_degenerate(mu), simpson_rule(5))
        sol = nystrom_solve(disc, 0.5, lambda t: 1.0)
        assert np.array_equal(sol.phi, 2.0 + mu * (disc.nodes - 0.5))

    @pytest.mark.parametrize("lam", [1e8, -1e8, 1e9, 1e200])
    @pytest.mark.parametrize("name", ["t-plus-eta", "zero"])
    def test_lambda_from_1e8_names_infinity(self, name, lam):
        # 1/lambda is within 1e-8 of 0, an exact eigenvalue of KW (n > r) and
        # in the spectrum of the compact operator, not of rounding noise
        disc = NystromDiscretization(CATALOGUE[name](), simpson_rule(21))
        with pytest.raises(SpectrumProximityError) as exc:
            nystrom_solve(disc, lam, lambda t: 1.0)
        assert exc.value.nearest_characteristic_number == complex(math.inf)
        assert str(exc.value) == (f"lambda = {lam!r} sits within 1e-08 of the characteristic "
                                  "number (inf+0j)")

    @pytest.mark.parametrize("lam", [math.nextafter(1e8, 0.0), -math.nextafter(1e8, 0.0)])
    @pytest.mark.parametrize("name", ["t-plus-eta", "zero"])
    def test_lambda_just_below_1e8_is_solved(self, name, lam):
        disc = NystromDiscretization(CATALOGUE[name](), simpson_rule(21))
        nystrom_solve(disc, lam, lambda t: 1.0)

    def test_gauss_rule_agrees_with_simpson(self):
        disc_g = NystromDiscretization(kernel_t_plus_eta(), gauss_legendre_rule(40))
        sol_g = nystrom_solve(disc_g, 0.5, lambda t: 1.0)
        expected = 36.0 / 23.0 + (24.0 / 23.0) * disc_g.nodes
        assert np.max(np.abs(sol_g.phi - expected)) < 1e-10


class TestSpectrum:
    def test_sum_kernel_two_characteristic_numbers(self, disc_sum):
        report = char_numbers(disc_sum)
        got = sorted(x.real for x in report.characteristic_numbers)
        assert got[0] == pytest.approx(-6 - 4 * math.sqrt(3), abs=1e-4)
        assert got[1] == pytest.approx(-6 + 4 * math.sqrt(3), abs=1e-4)
        assert len(report.characteristic_numbers) == 2

    def test_exp_kernel_single_characteristic_number_one(self, disc_exp):
        report = char_numbers(disc_exp)
        assert len(report.characteristic_numbers) == 1
        assert report.characteristic_numbers[0].real == pytest.approx(1.0, abs=1e-8)
        assert abs(report.characteristic_numbers[0].imag) < 1e-8

    def test_zero_kernel_empty_spectrum(self, rule):
        disc = NystromDiscretization(kernel_zero(), rule)
        assert char_numbers(disc).characteristic_numbers == ()

    def test_node_count_convergence(self):
        coarse = char_numbers(NystromDiscretization(kernel_t_plus_eta(), simpson_rule(51)))
        fine = char_numbers(NystromDiscretization(kernel_t_plus_eta(), simpson_rule(201)))
        for a, b in zip(
            sorted(coarse.characteristic_numbers, key=lambda z: z.real),
            sorted(fine.characteristic_numbers, key=lambda z: z.real),
        ):
            assert abs(a - b) < 1e-6

    def test_huge_mu_degenerate_spectrum_warns_nothing(self):
        # 1/mu of the eigenvalue 1 saturates to inf after its correction: its
        # residual is not finite, and the pair is dropped without a warning
        report = char_numbers(NystromDiscretization(kernel_degenerate(1e300), simpson_rule(201)))
        assert report.characteristic_numbers == ()

    def test_eigenfunction_residual_bound(self, disc_sum):
        report = char_numbers(disc_sum)
        for lam, phi in zip(report.characteristic_numbers, report.eigenfunctions):
            assert np.max(np.abs(phi)) == pytest.approx(1.0, abs=1e-12)
            residual = np.max(np.abs(phi - lam * disc_sum.apply(phi)))
            assert residual <= 1e-6 * np.max(np.abs(phi))


class TestSweep:
    def test_mu_independent_kernel_never_flags(self, rule):
        report = param_singularity_sweep(
            kernel_t_plus_eta(), kernel_zero(), [0.0, 0.5, 1.0, 2.0], rule
        )
        assert not any(report.flagged)
        assert report.classification == "non_exceptional"

    def test_rank_one_flags_exactly_at_one(self, rule):
        report = param_singularity_sweep(
            kernel_zero(), kernel_exp_diff(), [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5], rule
        )
        assert report.flagged_mus == (1.0,)
        assert report.classification == "non_exceptional"

    def test_degenerate_pair_flags_everywhere(self, rule):
        mu_grid = [0.0, 0.5, 1.0, 10.0, 100.0]
        report = param_singularity_sweep(kernel_rho_rho(), kernel_sigma_rho(), mu_grid, rule)
        assert all(report.flagged)
        assert report.classification == "exceptional"

    def test_empty_grid_rejected(self, rule):
        with pytest.raises(ValidationError):
            param_singularity_sweep(kernel_zero(), kernel_zero(), [], rule)

    @pytest.mark.parametrize("mu", [1.7e308, -1.7e308, math.inf, math.nan])
    def test_overflowing_compression_is_a_numerical_failure(self, mu):
        # I - (P0 + mu P1) left the float range ahead of the SVD, which raised
        # LinAlgError
        with pytest.raises(NumericalError,
                           match="^derived coefficient compressed_matrix is not finite"):
            param_singularity_sweep(kernel_exp_diff(), kernel_t_plus_eta(), [0.5, mu],
                                    simpson_rule(21))


class TestDegenerateResidual:
    def test_mu_zero_normalization_only(self, rule):
        res = degenerate_residual(canonical_rho, canonical_sigma, 0.0, rule)
        assert res.residual <= 1e-10

    @pytest.mark.parametrize("mu", [0.0, 1.0, 10.0, 100.0])
    def test_any_mu_within_quadrature_level(self, mu, rule):
        res = degenerate_residual(canonical_rho, canonical_sigma, mu, rule)
        assert res.residual <= 1e-8

    @pytest.mark.parametrize("mu", [-3.0, 0.5, 10.0])
    def test_residual_is_the_solver_s_kernel_action(self, mu, rule):
        # rho = 1 and sigma = cos(2 pi t): a pair other than the canonical one
        def sigma(t):
            return np.cos(2.0 * np.pi * t)

        res = degenerate_residual(canonical_rho, sigma, mu, rule)
        phi = 1.0 + mu * sigma(rule.nodes)
        disc = NystromDiscretization(kernel_degenerate(mu, canonical_rho, sigma), rule)
        assert res.residual == float(np.max(np.abs(phi - disc.apply(phi))))
        assert res.residual <= 1e-8

    @pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
    def test_mu_is_checked_before_phi_is_sampled(self, mu, rule):
        # phi = rho + mu sigma once met inf * 0 and warned ahead of the error
        with pytest.raises(ValidationError, match="^mu must be finite"):
            degenerate_residual(canonical_rho, canonical_sigma, mu, rule)

    def test_side_condition_violation_reported(self, rule):
        # sigma = t has int rho*sigma = 0.5 != 0
        with pytest.raises(ValidationError) as exc_info:
            degenerate_residual(canonical_rho, lambda t: t, 1.0, rule)
        assert "0.5" in str(exc_info.value)

    def test_degenerate_kernel_spec_consistent(self, rule):
        spec = kernel_degenerate(2.0)
        disc = NystromDiscretization(spec, rule)
        phi = np.array([canonical_rho(t) + 2.0 * canonical_sigma(t) for t in rule.nodes])
        assert np.max(np.abs(phi - disc.apply(phi))) < 1e-12


class TestOdeReduction:
    def test_first_order_constant_kernel(self):
        red = ode_to_integral(OdeSpec((1.0, 1.0)), [1.0])
        assert isinstance(red, VolterraReduction)

    def test_first_order_reconstructs_exponential(self):
        red = ode_to_integral(OdeSpec((1.0, 1.0)), [1.0])
        sol = red.solve(steps=200)
        t = sol.trajectory.times
        err = np.max(np.abs(sol.trajectory.column("z") - np.exp(-t)))
        assert err < 1e-6

    def test_second_order_reconstructs_cosine(self):
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [1.0, 0.0])
        sol = red.solve(steps=200)
        t = sol.trajectory.times
        err = np.max(np.abs(sol.trajectory.column("z") - np.cos(t)))
        assert err < 1e-6

    def test_matches_the_matrix_exponential_orders_one_two(self):
        for coeffs, init in [((1.0, 2.0), [1.5]), ((1.0, 1.0, 2.0), [1.0, -0.5])]:
            red = ode_to_integral(OdeSpec(coeffs), init)
            sol = red.solve(steps=200)
            exact = ode_flow(coeffs, init, sol.trajectory.times)
            err = np.max(np.abs(sol.trajectory.column("z") - exact[:, 0]))
            assert err < 1e-6

    def test_two_point_boundary_produces_fredholm(self):
        red = ode_to_integral(
            OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, 1.0), (0, 1.0, math.cos(1.0))]
        )
        assert isinstance(red, FredholmReduction)
        sol = red.solve()
        t = sol.trajectory.times
        err = np.max(np.abs(sol.trajectory.column("z") - np.cos(t)))
        assert err < 1e-14
        # the implied initial slope is cos' (0) = 0
        assert sol.constants[1] == pytest.approx(0.0, abs=1e-14)

    def test_integral_float_and_numpy_orders_are_read_as_ints(self):
        # z'' + z = 0 with z(0) = 1 and z'(1) = -sin(1): z = cos
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)),
                              [(0.0, 0.0, 1.0), (np.int64(1), 1.0, -math.sin(1.0))])
        assert isinstance(red, FredholmReduction)
        assert red.conditions == ((0, 0.0, 1.0), (1, 1.0, -math.sin(1.0)))
        assert all(type(d) is int for d, _, _ in red.conditions)

    def test_all_conditions_at_zero_collapse_to_volterra(self):
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [(1, 0.0, 0.0), (0, 0.0, 1.0)])
        assert isinstance(red, VolterraReduction)
        assert red.init == (1.0, 0.0)

    def test_duplicate_orders_rejected(self):
        with pytest.raises(ValidationError):
            ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, 1.0), (0, 0.0, 2.0)])

    def test_singular_boundary_placement_rejected(self):
        # z'' + z = 0 with z'(0) and z'(1) given leaves z(0) free
        with pytest.raises(DegenerateDataError, match="singular system"):
            ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [(1, 0.0, 0.0), (1, 1.0, 0.0)])

    def test_normalized_coefficients_must_be_finite(self):
        # c_1/c_2 = 1e300/1e-300 overflows
        with pytest.raises(NumericalError, match="^derived coefficient normalized_coeffs"):
            ode_to_integral(OdeSpec((1e-300, 1e300, 1.0)), [1.0, 0.0])

    def test_wrong_count_rejected(self):
        with pytest.raises(ValidationError):
            ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [1.0])

    @pytest.mark.parametrize("boundary, message", [
        ([(0, 0.0), (0, 1.0, 1.0)],
         "boundary condition (0, 0.0) is not a (derivative order, location, value) triple"),
        ([(0, 0.0, 1.0), 2.0],
         "boundary condition 2.0 is not a (derivative order, location, value) triple"),
        ([math.nan, 0.0], "initial value z^(0)(0) = nan is not finite"),
        ([1.0, -math.inf], "initial value z^(1)(0) = -inf is not finite"),
        ([(0, 0.0, 1.0), (0, 1.0, math.nan)], "boundary value of z^(0) at t = 1 is nan"),
        ([(1, 0.0, math.inf), (0, 0.0, 1.0)], "boundary value of z^(1) at t = 0 is inf"),
        ([(math.nan, 0.0, 1.0), (0, 1.0, 1.0)], "derivative order nan is not an integer"),
        ([(0.5, 0.0, 1.0), (0, 1.0, 1.0)], "derivative order 0.5 is not an integer"),
        ([(0, 0.0, 1.0), (math.inf, 1.0, 1.0)], "derivative order inf is not an integer"),
        ([(np.float64(0.5), 0.0, 1.0), (0, 1.0, 1.0)], "derivative order 0.5 is not an integer"),
        ([1.0, (0, 1.0, 1.0)], "boundary data mix initial values with "
                               "(derivative order, location, value) triples"),
    ], ids=["pair", "scalar-among-triples", "nan-init", "inf-init", "nan-at-one", "inf-at-zero",
            "nan-order", "half-order", "inf-order", "numpy-half-order", "triple-among-scalars"])
    def test_malformed_or_non_finite_data_rejected(self, boundary, message):
        with pytest.raises(ValidationError) as info:
            ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), boundary)
        assert str(info.value) == message

    def test_forced_equation_free_term(self):
        red = ode_to_integral(OdeSpec((1.0, 1.0), forcing=lambda t: 2.0), [0.0])
        # zdot + z = 2 from 0 -> z = 2(1 - e^-t)
        sol = red.solve(steps=200)
        t = sol.trajectory.times
        assert np.max(np.abs(sol.trajectory.column("z") - 2 * (1 - np.exp(-t)))) < 1e-6


COS_TWO_POINT = [(0, 0.0, 1.0), (0, 1.0, math.cos(1.0))]  # z'' + z = 0 has z = cos t


class TestChebyshevToolkit:
    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 17, 65])
    def test_integration_matrix_is_exact_on_polynomials(self, n_nodes):
        # S f = int_0^t f at the nodes for every f of degree <= N - 1
        t, S, _ = _chebyshev_lobatto(n_nodes)
        assert t[0] == 0.0 and t[-1] == 1.0 and np.all(np.diff(t) > 0.0)
        for p in range(n_nodes):
            assert np.max(np.abs(S @ t**p - t ** (p + 1) / (p + 1))) <= 1e-15

    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 17, 65])
    def test_clenshaw_curtis_weights_are_exact_on_chebyshev_polynomials(self, n_nodes):
        # the last row of S: int_0^1 T_k(2t - 1) dt is 1/(1 - k^2) for even
        # k and 0 for odd k
        t, S, C = _chebyshev_lobatto(n_nodes)
        w = S[-1]
        assert np.all(w > 0.0) and abs(math.fsum(w.tolist()) - 1.0) <= 1e-15
        for k in range(n_nodes):
            Tk = np.cos(k * np.arccos(np.clip(2.0 * t - 1.0, -1.0, 1.0)))
            assert abs(w @ Tk - (1.0 / (1.0 - k * k) if k % 2 == 0 else 0.0)) <= 1e-14
            # and C maps the samples of T_k to the k-th unit vector
            assert np.max(np.abs(C @ Tk - np.eye(n_nodes)[k])) <= 1e-14

    @pytest.mark.parametrize("n_nodes", [2, 5, 17])
    def test_barycentric_interpolation_reproduces_polynomials(self, n_nodes, rng):
        t, _, _ = _chebyshev_lobatto(n_nodes)
        s = np.concatenate([rng.uniform(0.0, 1.0, 30), t[::2]])
        powers = np.arange(n_nodes)
        got = fredholm._barycentric(t, t[:, None] ** powers, s)
        assert np.max(np.abs(got - s[:, None] ** powers)) <= 1e-14
        hits = fredholm._barycentric(t, t[:, None] ** powers, t)
        assert np.array_equal(hits, t[:, None] ** powers)


def two_point_flow(M, conditions, times, tail=()):
    """z at ``times``, the first component of x' = M x with
    x = (z, ..., z^(n-1), *tail): the n two-point ``conditions`` (order,
    location, value) fix z^(i)(0), the ``tail`` states start at the values
    given.  From mpmath's expm at 40 digits."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        d, n = len(M), len(M) - len(tail)
        Mm = mp.matrix(M.tolist())
        rows, rhs = [], []
        for order, loc, value in conditions:
            P = mp.expm(Mm) if loc == 1.0 else mp.eye(d)
            rows.append([P[order, j] for j in range(n)])
            rhs.append(value - sum(P[order, n + k] * x for k, x in enumerate(tail)))
        x0 = mp.matrix([*mp.lu_solve(mp.matrix(rows), mp.matrix(rhs)), *tail])
        return np.array([float((mp.expm(Mm * mp.mpf(t)) * x0)[0]) for t in times])


def sup_error(sol, z):
    return float(np.max(np.abs(sol.trajectory.column("z") - z)) / np.max(np.abs(z)))


OMEGA = math.sqrt(3.0) / 2.0
RESONANT = [(0, 0.0, 0.0), (0, 1.0, 1.0)]  # z'' + pi^2 z = 0 has no solution with these


class TestTwoPointSolve:
    """The two-point solve collocates the Fredholm form on Chebyshev-Lobatto
    nodes, then interpolates z and phi onto the output grid."""

    @pytest.mark.parametrize("coeffs, conditions, exact, n_nodes, bound", [
        *(((1.0, 0.0, 1.0), COS_TWO_POINT, np.cos, n, 1e-13) for n in (13, 17, 33, 65)),
        ((1.0, 0.0, -400.0), [(0, 0.0, 1.0), (0, 1.0, 0.0)],
         lambda t: np.sinh(20.0 * (1.0 - t)) / math.sinh(20.0), 33, 1e-12),
        ((1.0, 0.0, -1e4), [(0, 0.0, 1.0), (0, 1.0, 0.0)],
         lambda t: np.sinh(100.0 * (1.0 - t)) / math.sinh(100.0), 65, 1e-12),
        ((1.0, 1.0, 1.0), [(0, 0.0, 1.0), (0, 1.0, 0.0)],
         lambda t: np.exp(-t / 2) * (np.cos(OMEGA * t) - np.sin(OMEGA * t) / math.tan(OMEGA)),
         17, 1e-13),
    ], ids=["cos-13", "cos-17", "cos-33", "cos-65", "k-400", "k-1e4", "damped"])
    def test_matches_its_closed_form(self, coeffs, conditions, exact, n_nodes, bound):
        # Simpson across the kink gave 2.1e-2 (k = 400, 201 nodes), 0.17
        # (k = 1e4, 801 nodes) and 2.3e-3 (damped, 201 nodes)
        sol = ode_to_integral(OdeSpec(coeffs), conditions).solve(n_nodes=n_nodes)
        assert sup_error(sol, exact(sol.trajectory.times)) <= bound

    def test_fourth_order_with_both_ends_matches_mpmath(self):
        # z'''' + 2z''' + 3z'' + 4z' + 5z = 0 with z and z' given at both ends
        coeffs = (1.0, 2.0, 3.0, 4.0, 5.0)
        conditions = [(0, 0.0, 1.0), (1, 0.0, -0.5), (0, 1.0, 0.25), (1, 1.0, 0.75)]
        sol = ode_to_integral(OdeSpec(coeffs), conditions).solve(n_nodes=17, steps=10)
        want = two_point_flow(companion(coeffs), conditions, sol.trajectory.times)
        assert sup_error(sol, want) <= 1e-13

    def test_forced_equation_matches_mpmath(self):
        # z'' + 0.5 z' + 2 z = sin t, z(0) = 1, z'(1) = -0.5: (sin, cos) ride
        # along as two more states
        M = np.zeros((4, 4))
        M[:2, :2] = companion((1.0, 0.5, 2.0))
        M[1, 2] = M[2, 3] = 1.0
        M[3, 2] = -1.0
        conditions = [(0, 0.0, 1.0), (1, 1.0, -0.5)]
        red = ode_to_integral(OdeSpec((1.0, 0.5, 2.0), forcing=np.sin), conditions)
        sol = red.solve(n_nodes=17, steps=10)
        want = two_point_flow(M, conditions, sol.trajectory.times, tail=(0.0, 1.0))
        assert sup_error(sol, want) <= 1e-13
        assert sol.trajectory.labels == ("z",)

    @pytest.mark.parametrize("n_nodes", [17, 33, 65, 129])
    def test_resonance_is_refused(self, n_nodes):
        # lambda = 1 is a characteristic number: Simpson's discrete number sat
        # 2.7e-5 away, and the solve returned max |z| = 2.3e4
        red = ode_to_integral(OdeSpec((1.0, 0.0, math.pi**2)), RESONANT)
        with pytest.raises(SpectrumProximityError,
                           match="^lambda = 1 is numerically a characteristic number of the "
                                 "two-point reduction: sigma_min/sigma_max = ") as info:
            red.solve(n_nodes=n_nodes)
        assert abs(info.value.nearest_characteristic_number - 1.0) <= 1e-12

    def test_every_node_count_refuses_the_resonance(self):
        # too few nodes to resolve phi, or numerically singular: never an answer
        red = ode_to_integral(OdeSpec((1.0, 0.0, math.pi**2)), RESONANT)
        for n_nodes in range(2, 66):
            with pytest.raises((SpectrumProximityError, ResolutionError)):
                red.solve(n_nodes=n_nodes)

    @pytest.mark.parametrize("eps, refused", [(1e-9, True), (1e-8, True), (1e-6, False)])
    def test_near_resonance(self, eps, refused):
        # sigma_min/sigma_max is about eps: 9.9e-10 at eps = 1e-9
        k = math.pi**2 * (1.0 + eps)
        red = ode_to_integral(OdeSpec((1.0, 0.0, k)), RESONANT)
        if refused:
            with pytest.raises(SpectrumProximityError):
                red.solve(n_nodes=33)
            return
        sol = red.solve(n_nodes=33)
        t = sol.trajectory.times
        assert sup_error(sol, np.sin(math.sqrt(k) * t) / math.sin(math.sqrt(k))) <= 1e-9

    def test_unresolved_boundary_layer_is_refused(self):
        # z'' = 1e4 z at 33 nodes answered 7.5e-6 off; 65 nodes resolve it
        red = ode_to_integral(OdeSpec((1.0, 0.0, -1e4)), [(0, 0.0, 1.0), (0, 1.0, 0.0)])
        with pytest.raises(ResolutionError, match="^33 nodes do not resolve phi: the last "
                                                  r"quarter of its Chebyshev coefficients "
                                                  r"reaches 3\.349e-03 of the largest"):
            red.solve(n_nodes=33)

    @pytest.mark.parametrize("forcing", [lambda t: np.where(t > 0.5, math.inf, 1.0),
                                         lambda t: math.nan])
    def test_phi_that_is_not_finite_is_a_blow_up(self, forcing):
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0), forcing=forcing), COS_TWO_POINT)
        with pytest.raises(BlowUpError, match="^two-point reduction blew up"):
            red.solve()

    def test_huge_phi_is_interpolated_without_overflow(self):
        # z'' + z = 1e308: z and phi are finite, and so is their interpolant
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0), forcing=lambda t: 1e308),
                              [(0, 0.0, 0.0), (0, 1.0, 0.0)])
        sol = red.solve()
        k = (1.0 - math.cos(1.0)) / math.sin(1.0)
        t = sol.trajectory.times
        assert sup_error(sol, 1e308 * (1.0 - np.cos(t) - k * np.sin(t))) <= 1e-13

    def test_collocation_matrix_that_is_not_finite_is_a_numerical_failure(self):
        red = ode_to_integral(OdeSpec((1.0, 1.7e308, 1.7e308)), [(0, 0.0, 1.0), (0, 1.0, 0.0)])
        with pytest.raises(NumericalError,
                           match="^derived coefficient collocation_matrix is not finite"):
            red.solve(n_nodes=9)

    def test_zero_phi_answers(self):
        # z'' = 0, z(0) = 0, z(1) = 1: phi = 0 has no Chebyshev tail to read
        sol = ode_to_integral(OdeSpec((1.0, 0.0, 0.0)), RESONANT).solve(n_nodes=5, steps=4)
        assert not sol.phi.any()
        assert np.max(np.abs(sol.trajectory.column("z") - sol.trajectory.times)) <= 1e-16

    def test_growing_mode_is_not_amplified(self):
        # z'' = 400 z, z(0) = 1, z(1) = 0: a march of the ODE from the
        # computed z'(0) carries its error along e^(20 t), about 1e5 here
        red = ode_to_integral(OdeSpec((1.0, 0.0, -400.0)), [(0, 0.0, 1.0), (0, 1.0, 0.0)])
        sol = red.solve(n_nodes=201, steps=200)
        t = sol.trajectory.times
        z = np.sinh(20.0 * (1.0 - t)) / math.sinh(20.0)
        assert np.max(np.abs(sol.trajectory.column("z") - z)) < 0.05

    def test_forced_two_point_matches_its_closed_form(self):
        # z'' + z = 1, z(0) = z(1) = 0
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0), forcing=lambda t: 1.0),
                              [(0, 0.0, 0.0), (0, 1.0, 0.0)])
        sol = red.solve()
        t = sol.trajectory.times
        k = (1.0 - math.cos(1.0)) / math.sin(1.0)
        z = 1.0 - np.cos(t) - k * np.sin(t)
        assert np.max(np.abs(sol.trajectory.column("z") - z)) < 1e-14
        assert np.max(np.abs(sol.phi - (1.0 - z))) < 1e-14

    def test_derivative_condition_at_one_matches_its_closed_form(self):
        # z'' + z = 0, z(0) = a, z'(1) = b: z = a cos t + B sin t with
        # B = (b + a sin 1)/cos 1
        a, b = 1.0, 0.5
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, a), (1, 1.0, b)])
        sol = red.solve()
        t = sol.trajectory.times
        B = (b + a * math.sin(1.0)) / math.cos(1.0)
        assert np.max(np.abs(sol.trajectory.column("z") - (a * np.cos(t) + B * np.sin(t)))) < 1e-14
        assert sol.constants[1] == pytest.approx(B, abs=1e-14)

    def test_phi_is_minus_z(self):
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), COS_TWO_POINT)
        sol = red.solve(n_nodes=201)
        t = sol.trajectory.times
        assert np.max(np.abs(sol.phi + np.cos(t))) < 1e-14
        assert np.max(np.abs(sol.phi + sol.trajectory.column("z"))) < 1e-14


# 2 z'' + 2 z = 2 from rest has z = 1 - cos t: the forcing, like the
# coefficients, is divided by c_2 = 2, so the reduction is that of the c_2 = 1 spec
FORCED_CN2 = OdeSpec((2.0, 0.0, 2.0), forcing=lambda t: 2.0)
FORCED_CN1 = OdeSpec((1.0, 0.0, 1.0), forcing=lambda t: 1.0)


class TestLeadingCoefficient:
    @pytest.mark.parametrize("boundary, bound", [
        ([0.0, 0.0], 1e-6),
        ([(0, 0.0, 0.0), (0, 1.0, 1.0 - math.cos(1.0))], 2e-6),
    ], ids=["volterra", "two-point"])
    def test_forcing_is_divided_by_it(self, boundary, bound):
        sol = ode_to_integral(FORCED_CN2, boundary).solve(steps=100)
        t = sol.trajectory.times
        assert np.max(np.abs(sol.trajectory.column("z") - (1.0 - np.cos(t)))) < bound
        same = ode_to_integral(FORCED_CN1, boundary).solve(steps=100)
        assert np.array_equal(sol.trajectory.values, same.trajectory.values)
        assert np.array_equal(sol.phi, same.phi)

    @pytest.mark.parametrize("boundary, nodes, sizes", [
        ([0.0, 0.0], {}, [(21,), (11,)]),
        ([(0, 0.0, 0.0), (0, 1.0, 1.0 - math.cos(1.0))], {"n_nodes": 17}, [(17,)]),
    ], ids=["volterra", "two-point"])
    def test_forcing_takes_every_time_at_once(self, boundary, nodes, sizes):
        # one call per march, the 11 nodes and 10 midpoints of 10 steps and
        # the 6 and 5 of the rerun, or the 17 collocation nodes; one value
        # per time answers as the constant return of FORCED_CN2 does
        calls = []

        def forcing(t):
            calls.append(np.shape(t))
            return np.full_like(t, 2.0)

        sol = ode_to_integral(OdeSpec((2.0, 0.0, 2.0), forcing=forcing), boundary).solve(
            steps=10, **nodes)
        assert calls == sizes
        same = ode_to_integral(FORCED_CN2, boundary).solve(steps=10, **nodes)
        assert np.array_equal(sol.trajectory.values, same.trajectory.values)
        assert np.array_equal(sol.phi, same.phi)

    @pytest.mark.parametrize("boundary, nodes", [
        ([0.0, 0.0], {}), ([(0, 0.0, 0.0), (0, 1.0, 1.0)], {"n_nodes": 17}),
    ], ids=["volterra", "two-point"])
    @pytest.mark.parametrize("shape", [lambda m: (m, 2), lambda m: (m - 1,), lambda m: (1, m)],
                             ids=["two-columns", "short", "row"])
    def test_forcing_of_more_than_one_value_per_time_is_refused(self, boundary, nodes, shape):
        spec = OdeSpec((1.0, 0.0, 1.0), forcing=lambda t: np.ones(shape(len(t))))
        with pytest.raises(ValidationError, match="^forcing must return one value per time$"):
            ode_to_integral(spec, boundary).solve(steps=10, **nodes)


def refuse(*args, **kwargs):
    raise AssertionError("a rejected grid reached the solver")


class TestReductionGrid:
    """Both reductions take their grid from TimeGrid, which rejects a bad
    count or end before any work runs."""

    def test_two_point_zero_steps(self, monkeypatch):
        monkeypatch.setattr(fredholm, "_chebyshev_lobatto", refuse)
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, 1.0), (0, 1.0, 0.5)])
        for steps in (0, -1):
            with pytest.raises(ValidationError, match="^steps must be positive$") as info:
                red.solve(steps=steps)
            assert info.value.key == "steps"

    @pytest.mark.parametrize("n_nodes, message", [
        (10**400, f"^nodes must not exceed {sys.maxsize} in magnitude$"),
        (0, "^nodes must be positive$"),
        (-3, "^nodes must be positive$"),
        (1, "^the collocation needs at least 2 nodes$"),
    ])
    def test_two_point_node_count_follows_the_count_rule(self, monkeypatch, n_nodes, message):
        monkeypatch.setattr(fredholm, "_chebyshev_lobatto", refuse)
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, 1.0), (0, 1.0, 0.5)])
        with pytest.raises(ValidationError, match=message) as info:
            red.solve(n_nodes=n_nodes)
        assert info.value.key == "nodes"

    @pytest.mark.parametrize("n_nodes", [2**62, sys.maxsize])
    def test_two_point_nodes_no_array_can_hold_are_out_of_memory(self, monkeypatch, n_nodes):
        monkeypatch.setattr(fredholm, "_chebyshev_lobatto", refuse)
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, 1.0), (0, 1.0, 0.5)])
        with pytest.raises(MemoryError, match=f"^Unable to allocate {n_nodes} nodes"):
            red.solve(n_nodes=n_nodes)

    @pytest.mark.parametrize("kwargs, key", [
        ({"steps": 0}, "steps"),
        ({"steps": -2}, "steps"),
        ({"t_end": math.nan}, "t-end"),
        ({"t_end": math.inf}, "t-end"),
        ({"t_end": -1.0}, "t-end"),
    ], ids=["steps-0", "steps-negative", "t-end-nan", "t-end-inf", "t-end-negative"])
    def test_volterra_rejects_before_the_march(self, monkeypatch, kwargs, key):
        monkeypatch.setattr(odelin, "linear_flow", refuse)
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [1.0, 0.0])
        with pytest.raises(ValidationError) as info:
            red.solve(**kwargs)
        assert info.value.key == key

    @pytest.mark.parametrize("t_end, steps", [
        (1.0, 200), (0.7, 33), (2.0, 7), (np.float64(1.5), 10), (3, 12)])
    def test_output_grid_is_the_march_grid(self, t_end, steps):
        sol = ode_to_integral(OdeSpec((1.0, 0.5, 2.0)), [1.0, -0.5]).solve(
            steps=steps, t_end=t_end)
        grid = sol.trajectory.grid
        assert (grid.t_start, grid.t_end, grid.steps) == (0.0, t_end, steps)
        assert type(grid.t_end) is float
        assert np.array_equal(grid.nodes, np.linspace(0.0, t_end, steps + 1))


@st.composite
def repeated_root_odes(draw):
    """Monic ODEs of orders 1 to 4 whose roots come from a small pool, so
    that double, triple and quadruple roots and complex pairs are drawn."""
    pool = [-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, complex(-0.5, 3.0), complex(0.0, 1.0)]
    order, roots = draw(st.integers(1, 4)), []
    while len(roots) < order:
        r = draw(st.sampled_from(pool))
        roots += [r, r.conjugate()] if isinstance(r, complex) else [r]
    assume(len(roots) <= 4)
    coeffs = tuple(float(c) for c in np.real(np.poly(roots)))
    init = draw(st.lists(st.floats(-2.0, 2.0).map(lambda x: round(x, 3)),
                         min_size=len(roots), max_size=len(roots)))
    return coeffs, init


class TestMomentFlow:
    @settings(max_examples=80, deadline=None)
    @given(ode=repeated_root_odes(), steps=st.integers(4, 500),
           t_end=st.sampled_from([0.5, 1.0, 2.0]))
    def test_matches_the_companion_flow(self, ode, steps, t_end):
        # one core: the reduction steps the flow of the companion system
        coeffs, init = ode
        grid = TimeGrid(0.0, t_end, steps)
        red = ode_to_integral(OdeSpec(coeffs), init)
        try:
            want = odelin.linear_flow(companion(coeffs), init, grid, what="Volterra march")
        except BlowUpError as exc:
            with pytest.raises(BlowUpError) as info:
                red.solve(steps=steps, t_end=t_end)
            assert str(info.value) == str(exc)
            return
        z = want.values[:, 0]
        got = red.solve(steps=steps, t_end=t_end)
        assert np.max(np.abs(got.trajectory.column("z") - z)) <= 1e-12 * np.max(np.abs(z))

    @pytest.mark.parametrize("order", range(1, 7))
    @pytest.mark.parametrize("steps", [1, 3, 20])
    def test_polynomial_free_term_is_exact(self, order, steps):
        # the free term q = -sum_k a_k P_k(t) has degree order - 1, beyond
        # the quadratic rule of the flow's forcing from order 4 on
        coeffs = (1.0, *np.linspace(0.9, -0.6, order))
        init = np.linspace(1.0, -0.5, order)
        sol = ode_to_integral(OdeSpec(coeffs), init).solve(steps=steps)
        want = ode_flow(coeffs, init, sol.trajectory.times, digits=40)
        z = want[:, 0]
        phi = -want @ np.array(coeffs[:0:-1])  # z^(n) = -sum_k a_k z^(k)
        assert np.max(np.abs(sol.trajectory.column("z") - z)) <= 1e-14 * np.max(np.abs(z))
        assert np.max(np.abs(sol.phi - phi)) <= 1e-14 * np.max(np.abs(phi))

    @pytest.mark.parametrize("steps", [1, 3, 20])
    def test_quadratic_forcing_is_exact(self, steps):
        # z'' + 0.5 z' + 2 z = 1 - 2 t + 3 t^2, from z = 1, z' = -0.5
        spec = OdeSpec((1.0, 0.5, 2.0), forcing=lambda t: 1.0 - 2.0 * t + 3.0 * t * t)
        sol = ode_to_integral(spec, [1.0, -0.5]).solve(steps=steps)
        forcing = [np.array([0.0, 1.0]), np.array([0.0, -2.0]), np.array([0.0, 3.0])]
        want = augmented_flow(companion(spec.coeffs), np.array([1.0, -0.5]), forcing,
                              sol.trajectory.times)[:, 0]
        assert np.max(np.abs(sol.trajectory.column("z") - want)) <= 1e-14 * np.max(np.abs(want))

    def test_forced_equation_matches_the_companion_flow(self):
        # the forcing goes through the same quadratic rule on both routes
        red = ode_to_integral(OdeSpec((1.0, 0.5, 2.0), forcing=np.sin), [1.0, -0.5])
        grid = TimeGrid(0.0, 1.0, 50)
        want = odelin.linear_flow(companion((1.0, 0.5, 2.0)), [1.0, -0.5], grid,
                                  forcing=lambda t: np.column_stack([0.0 * t, np.sin(t)]))
        sol = red.solve(steps=50)
        z = want.values[:, 0]
        assert np.max(np.abs(sol.trajectory.column("z") - z)) <= 1e-14 * np.max(np.abs(z))
        phi = want.values @ companion((1.0, 0.5, 2.0))[-1] + np.sin(grid.nodes)
        assert np.max(np.abs(sol.phi - phi)) <= 1e-14 * np.max(np.abs(phi))

    def test_step_where_one_plus_half_h_a0_vanishes_answers(self):
        # z' = 2 z on one step, h = 1: z = e^(2t)
        sol = ode_to_integral(OdeSpec((1.0, -2.0)), [1.0]).solve(steps=1)
        assert sol.trajectory.values[:, 0].tolist() == [1.0, pytest.approx(math.exp(2.0),
                                                                            rel=1e-15)]

    @pytest.mark.parametrize("coeffs, init, bound", [
        ((1.0, 0.0, 1e4), [1.0, 0.0], 1e-12),
        ((1.0, 0.0, 1e6), [1.0, 0.0], 1e-12),
        ((1.0, 60.0, 339624.0), [1.0, 0.0], 1e-12),
        # e^-20t: rounding grows with the mode e^20t, 4.9e8 at t = 1
        ((1.0, 0.0, -400.0), [1.0, -20.0], 2.0 * math.exp(20.0) * 2.0**-52),
    ], ids=["omega-100", "omega-1000", "damped-582", "growing-mode"])
    def test_fast_and_growing_modes_answer_to_rounding(self, coeffs, init, bound):
        # 12.6, 1.3 and 2.2 nodes a period on 200 steps, and a decaying z
        # under a growing mode
        sol = ode_to_integral(OdeSpec(coeffs), init).solve()
        want = ode_flow(coeffs, init, sol.trajectory.times, digits=40)[:, 0]
        assert np.max(np.abs(sol.trajectory.column("z") - want)) <= bound * np.max(np.abs(want))

    def test_zero_march_has_no_drift(self):
        sol = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [0.0, 0.0]).solve()
        assert not sol.trajectory.values.any()

    @pytest.mark.parametrize("coeffs, init, sup", [
        # sup |z| = 5e-324 with a drift of 0: too few bits for any relative bound
        ((1.0, 0.0), [5e-324], "4.941e-324"),
        # z = 2.2e-311 sin(117 t)/117, all subnormal
        ((1.0, -0.0, 13689.0), [0.0, 2.225073858507e-311], "1.902e-313"),
    ], ids=["constant", "oscillating"])
    def test_subnormal_march_is_a_resolution_error(self, coeffs, init, sup):
        red = ode_to_integral(OdeSpec(coeffs), init)
        with pytest.raises(ResolutionError, match=f"^march sup {sup} is subnormal"):
            red.solve()

    def test_one_output_step_passes_its_check(self):
        # a one-step march is its own half
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [1.0, 0.0])
        sol = red.solve(steps=1)
        K = -np.array(red.a[::-1]).reshape(2, 1, 1)
        want, _ = _volterra_nodes(K, None, red.init, TimeGrid(0.0, 1.0, 1), "Volterra march")
        assert sol.trajectory.values.tobytes() == want.tobytes()
        assert abs(sol.trajectory.column("z")[-1] - math.cos(1.0)) < 1e-15

    def test_overflow_is_a_blow_up(self):
        red = ode_to_integral(OdeSpec((1.0, -1000.0)), [1.0])
        with pytest.raises(BlowUpError, match="^Volterra march blew up between") as exc:
            red.solve(steps=1000)
        assert exc.value.t_last < 0.71


# ---------------------------------------------------------------------------
# Kernel forms, batched off-node evaluation and the rank guard
# ---------------------------------------------------------------------------

unit = st.floats(0.0, 1.0, allow_nan=False)
points = st.lists(st.tuples(unit, unit), min_size=1, max_size=20)
coeff = st.floats(-3.0, 3.0, allow_nan=False)


def assert_array_matches_scalar(spec, reference, ts, es):
    """k at the pairs (t_i, e_i), taken from the kernel's matrix, within
    1e-12 of the closed form ``reference``."""
    T, E = np.array(ts, dtype=float), np.array(es, dtype=float)
    got = np.diagonal(spec.matrix(T, E))
    for t, e, value in zip(ts, es, got):
        v = reference(float(t), float(e))
        assert abs(value - v) <= 1e-12 * max(1.0, abs(v)), (t, e, value, v)


# closed forms of the catalogue kernels, with the canonical profiles
# rho = 1 and sigma = t - 1/2
REFERENCES = {
    "t-plus-eta": lambda t, e: t + e,
    "exp-diff": lambda t, e: math.exp(t - e),
    "zero": lambda t, e: 0.0,
    "rho-rho": lambda t, e: 1.0,
    "sigma-rho": lambda t, e: t - 0.5,
    "degenerate": lambda t, e: 1.0 + 2.5 * (t - 0.5),
}

CATALOGUE = {
    "t-plus-eta": kernel_t_plus_eta,
    "exp-diff": kernel_exp_diff,
    "zero": kernel_zero,
    "rho-rho": kernel_rho_rho,
    "sigma-rho": kernel_sigma_rho,
    "degenerate": lambda: kernel_degenerate(2.5),
}


class TestArrayEvaluators:
    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    @given(pts=points)
    def test_catalogue_matches_scalar(self, name, pts):
        spec = CATALOGUE[name]()
        assert_array_matches_scalar(spec, REFERENCES[name], [p[0] for p in pts],
                                    [p[1] for p in pts])

    @given(pts=points, mu=coeff)
    def test_profile_kernels_with_math_profiles(self, pts, mu):
        spec = kernel_degenerate(mu, rho=np.cos, sigma=np.sin)

        def reference(t, e):
            return (math.cos(t) + mu * math.sin(t)) * math.cos(e)

        assert_array_matches_scalar(spec, reference, [p[0] for p in pts], [p[1] for p in pts])

    @pytest.mark.parametrize("pairs, match", [
        (((lambda t: np.where(t == 0.5, math.nan, t), lambda e: 1.0),),
         r"^separable form of 'kernel' is not finite at \(0.5, 0.0\)$"),
        (((lambda t: 1.0, lambda e: np.where(e == 0.25, math.inf, e)),),
         r"^separable form of 'kernel' is not finite at \(0.0, 0.25\)$"),
    ], ids=["nan-g", "inf-h"])
    def test_profiles_checked_at_construction(self, pairs, match):
        with pytest.raises(ValidationError, match=match):
            KernelSpec(separable=pairs)

    def test_kernel_assembles_on_first_read(self, rule):
        disc = NystromDiscretization(KernelSpec(separable=((np.exp, lambda e: np.exp(-e)),)), rule)
        assert "K" not in disc.__dict__
        T, E = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
        assert np.max(np.abs(disc.K - np.exp(T - E))) < 1e-15


class TestBatchedOffNode:
    @pytest.mark.parametrize("spec", [kernel_t_plus_eta(), kernel_exp_diff(),
                                      KernelSpec(separable=((lambda t: t, lambda e: e),)),
                                      kernel_degenerate(0.5)])
    def test_array_equals_pointwise(self, spec, rng):
        disc = NystromDiscretization(spec, simpson_rule(101))
        sol = nystrom_solve(disc, 0.3, lambda t: np.cos(3.0 * t))
        ts = np.concatenate([rng.uniform(0.0, 1.0, 40), disc.nodes[::10]])
        batched = sol(ts)
        assert batched.shape == ts.shape
        pointwise = np.array([sol(float(t)) for t in ts])
        assert np.max(np.abs(batched - pointwise)) <= 1e-13 * np.max(np.abs(pointwise))
        assert isinstance(sol(0.25), float)

    @pytest.mark.parametrize("t", [800.0, np.array([0.5, 800.0, 900.0])], ids=["point", "array"])
    def test_overflowing_profile_names_the_point(self, t):
        # libm's exp in the exp-diff profile raised a bare OverflowError
        sol = nystrom_solve(NystromDiscretization(kernel_exp_diff(), simpson_rule(21)), 0.3, np.cos)
        with pytest.raises(NumericalError, match=r"^a profile or free term overflows at t = 800\.0$"):
            sol(t)

    @pytest.mark.parametrize("t", [1e3, np.array([0.5, 1e3, 2e3])], ids=["point", "array"])
    def test_value_that_is_not_finite_names_the_point(self, disc_sum, t):
        # numpy's exp overflows to inf, with no warning
        sol = nystrom_solve(disc_sum, 0.5, np.exp)
        with pytest.raises(NumericalError, match=r"^phi is not finite at t = 1000\.0$"):
            sol(t)

    @pytest.mark.parametrize("t, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                          (np.array([0.5, math.nan, -math.inf]), "nan")],
                             ids=["nan", "inf", "array"])
    def test_point_that_is_not_finite_is_a_rejected_input(self, t, shown):
        # refused before q or a profile sees it: neither is called
        def never(ts):
            raise AssertionError(f"sampled at {ts}")

        sol = nystrom_solve(NystromDiscretization(kernel_exp_diff(), simpson_rule(21)), 0.3, np.cos)
        sol.q = never
        with pytest.raises(ValidationError, match=rf"^point t = {shown} is not finite$"):
            sol(t)

    def test_at_nodes_reproduces_the_solve(self, disc_sum):
        sol = nystrom_solve(disc_sum, 0.5, lambda t: 1.0)
        assert np.max(np.abs(sol(disc_sum.nodes) - sol.phi)) < 1e-12


def forbid_square_factorizations(monkeypatch, n):
    """Make eig, eigvals, svd and cholesky fail on any matrix of order >= n."""
    for name in ("eig", "eigvals", "svd", "cholesky"):
        original = getattr(np.linalg, name)

        def guarded(a, *args, _original=original, _name=name, **kwargs):
            if min(np.shape(a)[-2:]) >= n:
                raise AssertionError(f"{_name} on an {np.shape(a)} matrix")
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, guarded)


def plain_eigvals_guard(disc, lam):
    """The unscreened guard: eigvals on every call."""
    eigs = np.linalg.eigvals(disc.weighted())
    dist = np.abs(1.0 / lam - eigs)
    j = int(np.argmin(dist))
    if dist[j] < SPECTRUM_PROXIMITY_TOL:
        mu = eigs[j]
        nearest = complex(1.0 / mu if mu != 0 else math.inf)
        return (
            f"lambda = {lam!r} sits within {SPECTRUM_PROXIMITY_TOL} of the "
            f"characteristic number {nearest!r}"
        )
    return None


def guard_message(disc, lam):
    """The message the guard rejects ``lam`` with, or None when it solves."""
    try:
        nystrom_solve(disc, lam, lambda t: 1.0)
    except SpectrumProximityError as exc:
        return str(exc)
    return None


def printed_message(lam, nearest):
    """The guard's rejection of ``lam`` naming ``nearest``."""
    return (f"lambda = {lam!r} sits within {SPECTRUM_PROXIMITY_TOL} of the "
            f"characteristic number {complex(nearest)!r}")


# A separable kernel is decided by the r eigenvalues of S = H^T W G, and a
# rejection names the characteristic number char_numbers reports
class TestRankGuard:
    DISTANCES = (1e-10, 5e-9, 0.999e-8, 1.001e-8, 2e-8, 1e-6)

    @pytest.mark.parametrize("make", [kernel_t_plus_eta, kernel_exp_diff])
    def test_decision_table_matches_plain_eigvals(self, make, rule):
        # eigvals on the n x n KW decides the same, and the rejection names
        # the printed number, not eigvals' 1/mu
        disc = NystromDiscretization(make(), rule)
        printed = char_numbers(disc).characteristic_numbers
        assert printed
        for nearest in printed:
            mu = 1.0 / nearest.real
            for d in self.DISTANCES:
                for lam in (1.0 / (mu + d), 1.0 / (mu - d)):
                    got = guard_message(disc, lam)
                    assert (got is None) == (plain_eigvals_guard(disc, lam) is None), (mu, d)
                    assert (got is not None) == (d < SPECTRUM_PROXIMITY_TOL)
                    if got is not None:
                        assert got == printed_message(lam, nearest)

    @pytest.mark.parametrize("make", [kernel_t_plus_eta, kernel_exp_diff])
    def test_far_from_spectrum_skips_eigvals(self, make, rule, monkeypatch):
        disc = NystromDiscretization(make(), rule)

        def forbidden():
            raise AssertionError("eigvals computed for a separable kernel")

        monkeypatch.setattr(disc, "weighted_eigs", forbidden)
        nystrom_solve(disc, 0.5, lambda t: 1.0)
        nystrom_solve(disc, 0.25, lambda t: 1.0)

    @pytest.mark.parametrize("n_nodes", [3, 5, 7, 21, 63, 255])
    @pytest.mark.parametrize("make_rule", [simpson_rule, gauss_legendre_rule],
                             ids=["simpson", "gauss"])
    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_rejects_each_printed_number_by_name(self, name, make_rule, n_nodes):
        # lambda at a number char_numbers prints is rejected naming it, and
        # 2e-8 either side of its reciprocal is solved; eigvals on the
        # assembled KW decides the same at each (zero and sigma-rho print
        # none, and lambda = +-1e7 is solved as eigvals solves it)
        disc = NystromDiscretization(CATALOGUE[name](), make_rule(n_nodes))
        printed = char_numbers(disc).characteristic_numbers
        assert (len(printed) == 0) == (name in ("zero", "sigma-rho"))
        lams = [1e7, -1e7]
        for nearest in printed:
            assert nearest.imag == 0.0
            lam = nearest.real
            assert guard_message(disc, lam) == printed_message(lam, nearest)
            assert plain_eigvals_guard(disc, lam) is not None
            lams += [1.0 / (1.0 / lam + 2e-8), 1.0 / (1.0 / lam - 2e-8)]
        for lam in lams:
            assert guard_message(disc, lam) is None
            assert plain_eigvals_guard(disc, lam) is None

    def test_decides_at_the_tolerance_itself(self):
        # no rounding band is left to eigvals: 1e-14 either side of the
        # tolerance decides
        disc = NystromDiscretization(kernel_exp_diff(), simpson_rule(201))
        mu = disc.eigenpairs[0][0].real
        tol = SPECTRUM_PROXIMITY_TOL
        assert guard_message(disc, 1.0 / (mu + tol * (1.0 + 1e-6))) is None
        assert guard_message(disc, 1.0 / (mu + tol * (1.0 - 1e-6))) == printed_message(
            1.0 / (mu + tol * (1.0 - 1e-6)), char_numbers(disc).characteristic_numbers[0])

    @pytest.mark.parametrize("make", [kernel_t_plus_eta, kernel_exp_diff])
    def test_solves_and_rejections_factor_no_n_by_n_matrix(self, make, monkeypatch):
        disc = NystromDiscretization(make(), simpson_rule(801))
        printed = char_numbers(disc).characteristic_numbers
        forbid_square_factorizations(monkeypatch, disc.rule.n)
        for lam in (-2.0, -1.0, 0.3, 0.7):
            nystrom_solve(disc, lam, lambda t: 1.0)
        for nearest in printed:
            assert guard_message(disc, nearest.real) == printed_message(nearest.real, nearest)
        assert "K" not in disc.__dict__

    def test_tiny_lambda_is_solved_at_its_rank(self, monkeypatch):
        # ||I/lam - KW||_F^2 is about 0.75 of the largest float, which the
        # n x n screen leaves to eigvals
        disc = NystromDiscretization(kernel_t_plus_eta(), simpson_rule(21))
        lam = 1.0 / math.sqrt(0.75 * np.finfo(float).max / disc.rule.n)
        assert plain_eigvals_guard(disc, lam) is None
        forbid_square_factorizations(monkeypatch, disc.rule.n)
        sol = nystrom_solve(disc, lam, lambda t: 1.0)
        assert np.array_equal(sol.phi, np.ones(disc.rule.n))


# The rank guard of every catalogue kernel against eigvals on the n x n KW
class TestGuardProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOGUE)),
        make_rule=st.sampled_from([simpson_rule, gauss_legendre_rule]),
        half=st.integers(2, 30),
        pick=st.integers(0, 60),
        sign=st.sampled_from([-1.0, 1.0]),
        # dense around the tolerance
        log_d=st.one_of(st.floats(-11.0, 0.5), st.floats(-8.1, -7.9)),
    )
    # 1/lam within the tolerance of an eigenvalue of sigma-rho's S = int
    # sigma*rho, which is 0 to rounding: named inf, as char_numbers discards
    # it, not the 1/mu = -2.9e16 of its rounding
    @example(name="sigma-rho", make_rule=simpson_rule, half=3, pick=2, sign=-1.0, log_d=-8.0)
    # sigma-rho again: eigvals puts a spurious eigenvalue within the
    # tolerance, and the exact spectrum does not
    @example(name="sigma-rho", make_rule=simpson_rule, half=2, pick=2, sign=-1.0, log_d=-8.0)
    def test_agrees_with_plain_eigvals(self, name, make_rule, half, pick, sign, log_d):
        disc = NystromDiscretization(CATALOGUE[name](), make_rule(2 * half + 1))
        eigs = np.linalg.eigvals(disc.weighted())
        mu = float(eigs[pick % len(eigs)].real)
        denominator = mu + sign * 10.0**log_d
        assume(denominator != 0.0)
        lam = 1.0 / denominator
        got = guard_message(disc, lam)
        if abs(lam) >= 1e8:
            assert got == printed_message(lam, math.inf)
            return
        # eigvals rounds the spectrum to about n eps ||KW||: the decisions
        # agree outside that band around the tolerance.  KW of sigma-rho is
        # nilpotent, and eigvals splits its zero by about sqrt(eps): its
        # exact spectrum, 0, is the reference
        exact = np.zeros(1) if name == "sigma-rho" else eigs
        dist = float(np.min(np.abs(1.0 / lam - exact)))
        if abs(dist - SPECTRUM_PROXIMITY_TOL) > 1e-12:
            assert (got is None) == (dist >= SPECTRUM_PROXIMITY_TOL)
        if got is not None:
            # a number char_numbers prints, or inf for an eigenvalue it
            # discards as 0
            printed = (*char_numbers(disc).characteristic_numbers, math.inf)
            assert got in [printed_message(lam, x) for x in printed]


# ---------------------------------------------------------------------------
# Convergence: the two-point collocation is spectral, the Volterra march
# fourth order in its forcing
# ---------------------------------------------------------------------------

def observed_orders(errors):
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


class TestConvergenceOrder:
    def test_two_point_solve_answers_once_resolved(self):
        # every node count either is refused as too coarse or answers to
        # rounding; from 13 nodes on every count answers
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), COS_TWO_POINT)
        answered = []
        for n_nodes in range(2, 34):
            try:
                sol = red.solve(n_nodes=n_nodes)
            except ResolutionError:
                continue
            assert sup_error(sol, np.cos(sol.trajectory.times)) <= 1e-13, n_nodes
            answered.append(n_nodes)
        assert answered[0] <= 13 and answered == list(range(answered[0], 34))

    def test_forced_volterra_march_is_fourth_order(self):
        # z'' + z = e^t from z = 1, z' = 0: only the forcing's quadratic rule errs
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0), forcing=np.exp), [1.0, 0.0])
        errors = []
        for steps in (10, 20, 40):
            sol = red.solve(steps=steps)
            t = sol.trajectory.times
            z = 0.5 * (np.cos(t) - np.sin(t) + np.exp(t))
            errors.append(float(np.max(np.abs(sol.trajectory.column("z") - z))))
        for order in observed_orders(errors):
            assert 3.8 <= order <= 4.2, errors


# ---------------------------------------------------------------------------
# The finite-rank route of separable kernels against the n x n route
# ---------------------------------------------------------------------------

# the kernels the CLI offers to fredholm-sweep
SWEEP_KERNELS = ("t-plus-eta", "exp-diff", "zero", "rho-rho", "sigma-rho")
PAIRS = [(k0, k1) for k0 in SWEEP_KERNELS for k1 in SWEEP_KERNELS]
MU_GRID = np.linspace(-2.0, 2.0, 9)


def dense_sweep(k0, k1, rule):
    """(sigma_min, sigma_max) of Id - (K0 + mu*K1)W for each mu of MU_GRID,
    by the SVD of the n x n matrix."""
    d0, d1 = NystromDiscretization(k0, rule), NystromDiscretization(k1, rule)
    eye = np.eye(rule.n)
    out = []
    for mu in MU_GRID:
        s = np.linalg.svd(eye - (d0.K + mu * d1.K) * rule.weights, compute_uv=False)
        out.append((s[-1], s[0]))
    return out


def dense_spectrum(disc):
    """Characteristic numbers and eigenfunctions from eig of the n x n
    K*diag(w), with char_numbers' default discard threshold, residual
    filter, normalization and order."""
    eigvals, eigvecs = np.linalg.eig(disc.weighted())
    pairs = []
    for mu, vec in zip(eigvals, eigvecs.T):
        if abs(mu) <= 1e-10:
            continue
        phi = vec / vec[int(np.argmax(np.abs(vec)))]
        if np.max(np.abs(phi - (disc.K @ (disc.weights * phi)) / mu)) > 1e-6:
            continue
        pairs.append((complex(1.0 / mu), phi))
    pairs.sort(key=lambda p: (abs(p[0]), p[0].real, p[0].imag))
    funcs = np.vstack([p[1] for p in pairs]) if pairs else np.empty((0, disc.rule.n))
    if np.iscomplexobj(funcs) and np.all(np.abs(funcs.imag) < 1e-300):
        funcs = funcs.real
    return tuple(p[0] for p in pairs), funcs


class TestFiniteRank:
    def test_zero_kernel_has_rank_zero(self):
        rule = simpson_rule(21)
        disc = NystromDiscretization(kernel_zero(), rule)
        assert kernel_zero().separable == ()
        assert disc.G.shape == disc.H.shape == (21, 0)
        assert char_numbers(disc).characteristic_numbers == ()
        assert char_numbers(disc).eigenfunctions.shape == (0, 21)
        # KW = 0: only a lambda from 1e8 on, whose 1/lambda is within the
        # tolerance of 0, is rejected
        assert guard_message(disc, 0.5) is None
        lam = 1.0 / (0.5 * SPECTRUM_PROXIMITY_TOL)
        assert guard_message(disc, lam) == printed_message(lam, math.inf)
        sol = nystrom_solve(disc, 3.0, lambda t: t)
        assert np.array_equal(sol.phi, rule.nodes)
        report = param_singularity_sweep(kernel_zero(), kernel_zero(), MU_GRID, rule)
        assert report.smallest_singular_values == (1.0,) * len(MU_GRID)
        assert report.classification == "non_exceptional"

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejects_a_lambda_that_is_not_finite(self, lam):
        disc = NystromDiscretization(kernel_t_plus_eta(), simpson_rule(21))
        with pytest.raises(ValidationError, match="^lambda must be finite") as exc:
            nystrom_solve(disc, lam, lambda t: 1.0)
        assert exc.value.key == "lam"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_profile_samples_that_are_not_finite_are_a_numerical_failure(self, bad):
        # S = H^T W G is not finite: neither the guard nor the spectrum reads it
        disc = NystromDiscretization(kernel_t_plus_eta(), simpson_rule(21))
        disc.G[4, 0] = bad
        for call in (lambda: nystrom_solve(disc, 0.5, lambda t: 1.0), lambda: char_numbers(disc)):
            with pytest.raises(NumericalError, match="^derived coefficient S is not finite"):
                call()

    def test_samples_each_profile_once_per_node(self):
        # one call per profile and one per free term, each with every node
        calls = {"g": [], "h": [], "q": []}

        def counted(name, f):
            def profile(x):
                calls[name].append(x.copy())
                return f(x)
            return profile

        spec = KernelSpec(separable=((counted("g", lambda t: t), counted("h", lambda e: e)),))
        for made in calls.values():
            made.clear()
        disc = NystromDiscretization(spec, simpson_rule(41))
        nystrom_solve(disc, 0.5, counted("q", np.cos))
        for name, made in calls.items():
            assert len(made) == 1, name
            assert np.array_equal(made[0], disc.nodes), name
        assert np.array_equal(disc.G[:, 0], disc.nodes)
        assert np.array_equal(disc.H[:, 0], disc.nodes)

    @pytest.mark.parametrize("n_nodes", [1201, 1601])
    def test_exp_diff_profiles_are_libm_exp(self, n_nodes):
        # np.exp picks its loop by CPU and differs from libm on some e^(+-t)
        # at these nodes, which moves the bytes of fredholm-solve and
        # fredholm-spectrum --kernel exp-diff
        x = simpson_rule(n_nodes).nodes
        G, H = kernel_exp_diff().factors(x, x)
        assert G[:, 0].tolist() == [math.exp(t) for t in x.tolist()]
        assert H[:, 0].tolist() == [math.exp(-t) for t in x.tolist()]

    @pytest.mark.parametrize("n_nodes", [7, 51, 401])
    @pytest.mark.parametrize("name", sorted(set(CATALOGUE) - {"sigma-rho"}))
    def test_spectrum_matches_the_dense_route(self, name, n_nodes):
        spec = CATALOGUE[name]()
        rule = simpson_rule(n_nodes)
        disc = NystromDiscretization(spec, rule)
        got = char_numbers(disc)
        want, funcs = dense_spectrum(disc)
        assert len(got.characteristic_numbers) == len(want)
        for a, b in zip(got.characteristic_numbers, want):
            assert abs(a - b) <= 1e-13 * abs(b)
        assert got.eigenfunctions.shape == funcs.shape
        assert np.max(np.abs(got.eigenfunctions - funcs), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("mu", [3.064689215977694e-289, -3.064689215977694e-289, 1e-320])
    def test_characteristic_number_beyond_the_float_range_is_infinite(self, mu):
        # the eigenvalue near mu of the degenerate kernel has 1/mu above
        # the float range; its exact quotient saturates to +-inf, and the
        # discard threshold drops it
        disc = NystromDiscretization(kernel_degenerate(mu), simpson_rule(23))
        lams = fredholm._reciprocals(disc)
        assert sorted(abs(lam.real) for lam in lams)[1] == math.inf
        assert char_numbers(disc).characteristic_numbers == pytest.approx((1.0,))

    @pytest.mark.parametrize("n_nodes", [7, 51, 401])
    def test_sigma_rho_has_no_characteristic_number(self, n_nodes):
        # K W = sigma rho^T W is nilpotent: its one nonzero-rank eigenvalue is
        # int sigma*rho = 0.  eig of the n x n matrix splits that defective
        # zero into a spurious pair near +-1/sqrt(rounding) that passes the
        # residual filter; S = rho^T W sigma is 0 to rounding and discarded
        rule = simpson_rule(n_nodes)
        disc = NystromDiscretization(kernel_sigma_rho(), rule)
        assert abs(math.fsum(rule.weights * (rule.nodes - 0.5))) < 1e-16
        assert char_numbers(disc).characteristic_numbers == ()
        spurious, _ = dense_spectrum(disc)
        assert all(abs(lam) > 1e6 for lam in spurious)

    @pytest.mark.parametrize("n_nodes", [7, 51])
    @pytest.mark.parametrize("k0, k1", PAIRS)
    def test_sweep_matches_the_dense_route(self, k0, k1, n_nodes):
        self.check_sweep(k0, k1, simpson_rule(n_nodes))

    @pytest.mark.parametrize("k0, k1", [("exp-diff", "t-plus-eta"), ("rho-rho", "sigma-rho"),
                                        ("zero", "exp-diff")])
    def test_sweep_matches_the_dense_route_at_401_nodes(self, k0, k1):
        self.check_sweep(k0, k1, simpson_rule(401))

    @staticmethod
    def check_sweep(k0, k1, rule):
        spec0, spec1 = CATALOGUE[k0](), CATALOGUE[k1]()
        got = param_singularity_sweep(spec0, spec1, MU_GRID, rule)
        want = dense_sweep(spec0, spec1, rule)
        flags = tuple(bool(smin < SINGULARITY_FLAG_REL * smax) for smin, smax in want)
        adjacent = any(a and b for a, b in zip(flags, flags[1:]))
        assert got.flagged == flags
        assert (got.classification == "exceptional") == adjacent
        for s, (smin, smax) in zip(got.smallest_singular_values, want):
            assert abs(s - smin) <= 1e-13 * smax

    @pytest.mark.parametrize("k0, k1", PAIRS)
    def test_exceptional_exactly_when_the_determinant_vanishes(self, k0, k1):
        # Fredholm alternative for K0 + mu*K1 = [G0, mu*G1][H0, H1]^T:
        # Id - (K0 + mu*K1)W is singular for every mu exactly when
        # p(mu) = det(I - [H0, H1]^T W [G0, mu*G1]), of degree <= r1, is 0
        rule = simpson_rule(201)
        d0 = NystromDiscretization(CATALOGUE[k0](), rule)
        d1 = NystromDiscretization(CATALOGUE[k1](), rule)
        H = np.hstack([d0.H, d1.H]) * rule.weights[:, None]
        r1 = d1.G.shape[1]
        values = []
        for mu in range(r1 + 1):
            G = np.hstack([d0.G, mu * d1.G])
            S = np.array([[math.fsum(H[:, i] * G[:, j]) for j in range(G.shape[1])]
                          for i in range(H.shape[1])]).reshape(H.shape[1], G.shape[1])
            values.append(np.linalg.det(np.eye(len(S)) - S))
        identically_zero = max(map(abs, values)) <= 1e-12
        report = param_singularity_sweep(CATALOGUE[k0](), CATALOGUE[k1](), MU_GRID, rule)
        assert (report.classification == "exceptional") == identically_zero

    def test_separable_routes_factor_no_n_by_n_matrix(self, monkeypatch):
        rule = simpson_rule(401)
        discs = [NystromDiscretization(CATALOGUE[name](), rule) for name in sorted(CATALOGUE)]
        forbid_square_factorizations(monkeypatch, rule.n)
        for disc in discs:
            char_numbers(disc)
            nystrom_solve(disc, 0.3, lambda t: 1.0)
            nystrom_solve(disc, -0.4, lambda t: 1.0)
        for k0, k1 in PAIRS:
            param_singularity_sweep(CATALOGUE[k0](), CATALOGUE[k1](), MU_GRID, rule)


def solve_orders(call):
    """call()'s result, and the order of every matrix np.linalg.solve met in it."""
    orders, original = [], np.linalg.solve

    def spy(a, b):
        orders.append(len(a))
        return original(a, b)

    with mock.patch.object(np.linalg, "solve", spy):
        return call(), orders


# the separable solve at rank r (Woodbury) against the n x n solve
RANK_KERNELS = {
    "t-plus-eta": lambda mu: kernel_t_plus_eta(),
    "exp-diff": lambda mu: kernel_exp_diff(),
    "degenerate": kernel_degenerate,
    "zero": lambda mu: kernel_zero(),
}


class TestRankSolve:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(RANK_KERNELS)),
        mu=st.floats(-1.0, 1.0),
        half=st.integers(1, 200),
        # below |lam| = 1e-150 or so ||I/lam - KW||_F^2 overflows, and
        # eigvals decides
        log_lam=st.floats(-6.0, 1.3),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_matches_the_dense_solve(self, name, mu, half, log_lam, sign):
        lam = sign * 10.0**log_lam
        disc = NystromDiscretization(RANK_KERNELS[name](mu), simpson_rule(2 * half + 1))
        mus = disc.eigenpairs[0]
        assume(all(abs(1.0 - lam * m) >= 0.1 for m in mus))
        sol, orders = solve_orders(lambda: nystrom_solve(disc, lam, np.cos))
        assert all(k < disc.rule.n for k in orders)  # no n x n solve
        q = np.cos(disc.nodes)
        if name == "zero":
            assert np.array_equal(sol.phi, q)
        # the dense oracle with one step of refinement: the plain LU solve
        # was off by up to 2.2e-13 of ||phi|| from the exact solution of the
        # degenerate kernel (n = 363, lam = 8.85), and the rank route by 5e-16
        M = np.eye(disc.rule.n) - lam * disc.weighted()
        want = np.linalg.solve(M, q)
        want += np.linalg.solve(M, q - M @ want)
        assert np.max(np.abs(sol.phi - want)) <= 1e-13 * np.max(np.abs(sol.phi))

    @pytest.mark.parametrize("n_nodes", [3, 5, 7, 21, 63, 255, 801])
    @pytest.mark.parametrize("make_rule", [simpson_rule, gauss_legendre_rule],
                             ids=["simpson", "gauss"])
    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_catalogue_solve_matches_the_assembled_solve(self, name, make_rule, n_nodes):
        # every catalogue kernel on both rules, from 3 nodes (n close to the
        # rank) to 801: the rank solve leaves K unassembled, and agrees with
        # the refined n x n solve of the K = G H^T assembled afterwards
        disc = NystromDiscretization(CATALOGUE[name](), make_rule(n_nodes))
        q = np.cos(disc.nodes)
        for lam in (-0.7, 0.3):
            sol, orders = solve_orders(lambda: nystrom_solve(disc, lam, np.cos))
            assert all(k < disc.rule.n for k in orders)
            assert "K" not in disc.__dict__
            M = np.eye(disc.rule.n) - lam * disc.weighted()
            want = np.linalg.solve(M, q)
            want += np.linalg.solve(M, q - M @ want)
            assert np.max(np.abs(sol.phi - want)) <= 1e-13 * np.max(np.abs(sol.phi))
            del disc.K

    def test_separable_solve_holds_less_than_half_a_square_array(self):
        n = 801
        disc = NystromDiscretization(kernel_exp_diff(), simpson_rule(n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nystrom_solve(disc, 0.3, np.cos)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n * 8

    def test_separable_solve_holds_no_square_array(self):
        # K is not assembled: the guard and the solve hold n x r arrays
        n = 1201
        disc = NystromDiscretization(kernel_exp_diff(), simpson_rule(n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nystrom_solve(disc, 0.3, np.cos)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * 8

    def test_separable_rejection_holds_less_than_half_a_square_array(self):
        # one n x n float array is 20.5 MB here
        n = 1601
        disc = NystromDiscretization(kernel_t_plus_eta(), simpson_rule(n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with pytest.raises(SpectrumProximityError):
                nystrom_solve(disc, 0.9282032302755091, np.cos)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n * 8

    def test_phi_that_is_not_finite_is_a_numerical_failure(self):
        disc = NystromDiscretization(kernel_exp_diff(), simpson_rule(21))
        with pytest.raises(NumericalError, match="^the finite-rank solve gave a phi that is not"):
            nystrom_solve(disc, 0.3, lambda t: np.where(t == 0.5, math.inf, 1.0))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("spec", [kernel_exp_diff(), kernel_zero()],  # rank 0 returns q
                             ids=["exp-diff", "zero"])
    def test_free_term_that_is_not_finite_fails(self, spec, bad):
        disc = NystromDiscretization(spec, simpson_rule(21))
        with pytest.raises(NumericalError, match="^the finite-rank solve gave a phi that is not"):
            nystrom_solve(disc, 0.3, lambda t: np.where(t == 0.5, bad, 1.0))


# K is assembled on first read, which no separable route makes
class TestLazyMatrix:
    @pytest.mark.parametrize("make", [kernel_t_plus_eta, kernel_exp_diff])
    def test_separable_solve_and_rejection_leave_K_unassembled(self, make):
        disc = NystromDiscretization(make(), simpson_rule(801))
        for lam in (-2.0, -1.0, 0.3, 0.7):
            nystrom_solve(disc, lam, np.cos)
        with pytest.raises(SpectrumProximityError):
            nystrom_solve(disc, char_numbers(disc).characteristic_numbers[0].real, np.cos)
        assert "K" not in disc.__dict__

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_finite_rank_spectrum_leaves_K_unassembled(self, name):
        disc = NystromDiscretization(CATALOGUE[name](), simpson_rule(401))
        char_numbers(disc)
        assert "K" not in disc.__dict__

    @pytest.mark.parametrize("k0, k1", [("rho-rho", "sigma-rho"), ("exp-diff", "t-plus-eta")])
    def test_finite_rank_sweep_leaves_K_unassembled(self, k0, k1, monkeypatch):
        made = []

        class Recorded(NystromDiscretization):
            def __post_init__(self):
                super().__post_init__()
                made.append(self)

        monkeypatch.setattr(fredholm, "NystromDiscretization", Recorded)
        param_singularity_sweep(CATALOGUE[k0](), CATALOGUE[k1](), MU_GRID, simpson_rule(401))
        assert len(made) == 2
        assert all("K" not in d.__dict__ for d in made)

    @pytest.mark.parametrize("make", [
        lambda rho, sigma: kernel_rho_rho(rho),
        lambda rho, sigma: kernel_sigma_rho(sigma, rho),
        lambda rho, sigma: kernel_degenerate(0.5, rho, sigma),
    ], ids=["rho-rho", "sigma-rho", "degenerate"])
    def test_spectrum_makes_no_profile_call(self, make):
        # a profile kernel's rows and action come from the G and H its
        # discretization sampled, so the spectrum calls no profile
        calls = []

        def counted(profile):
            def f(t):
                calls.append(t)
                return profile(t)
            return f

        n = 801
        disc = NystromDiscretization(make(counted(canonical_rho), counted(canonical_sigma)),
                                     simpson_rule(n))
        calls.clear()
        char_numbers(disc)
        assert calls == []
        assert "K" not in disc.__dict__


def solved_or_refused(disc, lam):
    """nystrom_solve's phi at ``lam``, or its rejection message."""
    try:
        return nystrom_solve(disc, lam, np.cos).phi
    except SpectrumProximityError as exc:
        return str(exc)


# a discretization owns its S = H^T W G and the eigenpairs of S: the guard,
# the solve and the spectrum read them and form neither again
class TestOneOwner:
    @pytest.mark.parametrize("make", [kernel_t_plus_eta, kernel_exp_diff, kernel_zero])
    def test_one_eig_and_one_sum_of_G_serve_solve_rejection_and_spectrum(self, make,
                                                                      monkeypatch):
        disc = NystromDiscretization(make(), simpson_rule(201))
        eigs, inner = [], []
        eig, weighted_inner = np.linalg.eig, fredholm._weighted_inner

        def eig_spy(a):
            eigs.append(np.shape(a))
            return eig(a)

        def inner_spy(d, X):
            inner.append("G" if X is d.G else X.shape[1])
            return weighted_inner(d, X)

        monkeypatch.setattr(np.linalg, "eig", eig_spy)
        monkeypatch.setattr(fredholm, "_weighted_inner", inner_spy)
        nystrom_solve(disc, 0.3, np.cos)
        for mu in disc.eigenpairs[0][:1]:  # none for the zero kernel
            with pytest.raises(SpectrumProximityError):
                nystrom_solve(disc, 1.0 / mu.real, np.cos)
        char_numbers(disc)
        r = disc.G.shape[1]
        assert eigs == [(r, r)]
        # G's columns once, then H^T W q for the one solve at rank r > 0
        assert inner == ["G"] + [1] * (r > 0)

    def test_S_and_eigenpairs_are_read_only(self):
        disc = NystromDiscretization(kernel_t_plus_eta(), simpson_rule(21))
        S, (mus, V) = disc.S, disc.eigenpairs
        for write in (lambda: setattr(disc, "S", S + 1.0),
                      lambda: setattr(disc, "eigenpairs", (mus, V))):
            with pytest.raises(AttributeError):
                write()
        for array in (S, mus, V):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert disc.S is S and disc.eigenpairs[0] is mus and disc.eigenpairs[1] is V

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOGUE)),
        half=st.integers(1, 100),
        lam=st.one_of(st.just(1.0), st.floats(-20.0, 20.0)),  # 1 is refused for two kernels
    )
    def test_reading_S_first_leaves_every_solve_as_it_was(self, name, half, lam):
        rule = simpson_rule(2 * half + 1)
        fresh = NystromDiscretization(CATALOGUE[name](), rule)
        primed = NystromDiscretization(CATALOGUE[name](), rule)
        primed.S
        want, got = solved_or_refused(fresh, lam), solved_or_refused(primed, lam)
        assert type(got) is type(want)
        assert got == want if isinstance(want, str) else np.array_equal(got, want)

    @pytest.mark.parametrize("make", [
        lambda g, h: KernelSpec(separable=((g, h),)),
        lambda g, h: KernelSpec(separable=((g, h), (lambda t: g(t) ** 2, h))),
    ], ids=["rank-1", "rank-2"])
    def test_off_node_values_call_no_h_profile(self, make, rng):
        g_calls, h_calls, q_calls = [], [], []

        def g(t):
            g_calls.append(t.copy())
            return np.exp(t)

        def h(e):
            h_calls.append(e)
            return np.exp(-e)

        def q(t):
            q_calls.append(t.copy())
            return np.cos(t)

        disc = NystromDiscretization(make(g, h), simpson_rule(101))
        sol = nystrom_solve(disc, 0.3, q)
        g_calls.clear()
        h_calls.clear()
        q_calls.clear()
        ts = rng.uniform(0.0, 1.0, 40)
        sol(ts)
        sol(0.25)
        # per evaluation, q once and each g profile once, with every point
        assert h_calls == []
        r = disc.G.shape[1]
        assert len(q_calls) == 2 and len(g_calls) == 2 * r
        for points, calls in ((ts, q_calls[:1] + g_calls[:r]), ([0.25], q_calls[1:] + g_calls[r:])):
            assert all(np.array_equal(x, points) for x in calls)


def scalar_samples(profiles, x):
    """len(x) x len(profiles) samples by the per-entry loop that served
    before profiles took arrays: one call per entry, with a Python float."""
    xs = np.asarray(x, dtype=float).tolist()
    cols = [[float(f(v)) for v in xs] for f in profiles]
    return np.array(cols, dtype=float).reshape(len(profiles), len(xs)).T.copy()


def scalar_off_node(sol, points):
    """NystromSolution's values at ``points`` by the per-point loop:
    q(t) + lambda * g(t) (H^T W phi)."""
    disc = sol.disc
    gs = [g for g, _ in disc.kernel.separable]
    c = disc.H.T @ (disc.weights * sol.phi)
    return scalar_samples([sol.q], points)[:, 0] + sol.lam * (scalar_samples(gs, points) @ c)


# a profile and a free term take every point at once, in one call, and
# sample what the per-entry loop sampled, to the bit
class TestOneConvention:
    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOGUE)),
        q_name=st.sampled_from(sorted(cli._Q_CATALOGUE)),
        half=st.integers(1, 800),
        mu=st.floats(-3.0, 3.0),
        lam=st.floats(-0.5, 0.5),  # 1/lam beyond every eigenvalue: no rejection
        points=st.lists(unit, min_size=1, max_size=20),
    )
    @example(name="exp-diff", q_name="t", half=800, mu=0.0, lam=0.3, points=[0.0, 0.5, 1.0])
    @example(name="degenerate", q_name="one", half=1, mu=2.5, lam=-0.5, points=[0.25])
    def test_samples_are_the_per_entry_loop(self, name, q_name, half, mu, lam, points):
        spec = kernel_degenerate(mu) if name == "degenerate" else CATALOGUE[name]()
        rule = simpson_rule(2 * half + 1)
        disc = NystromDiscretization(spec, rule)
        assert np.array_equal(disc.G, scalar_samples([g for g, _ in spec.separable], rule.nodes))
        assert np.array_equal(disc.H, scalar_samples([h for _, h in spec.separable], rule.nodes))
        q = cli._Q_CATALOGUE[q_name]
        free = nystrom_solve(NystromDiscretization(kernel_zero(), rule), lam, q)
        assert np.array_equal(free.phi, scalar_samples([q], rule.nodes)[:, 0])
        sol = nystrom_solve(disc, lam, q)
        assert np.array_equal(sol(np.array(points)), scalar_off_node(sol, points))
        got = sol(points[0])
        assert type(got) is float and got == scalar_off_node(sol, points[:1])[0]

    @pytest.mark.parametrize("bad", [lambda x: x[:-1], lambda x: np.ones(len(x) + 1),
                                     lambda x: np.ones((len(x), 2)), lambda x: np.ones((2, 1)),
                                     lambda x: x + 1j, lambda x: 1j, lambda x: np.complex128(1.0)],
                             ids=["short", "long", "two-wide", "two-rows", "complex",
                                  "complex-constant", "complex-zero-imaginary"])
    def test_a_wrong_number_of_values_is_refused(self, bad):
        # a complex return is refused too, not cast to its real part
        message = "^a profile or free term must return one value per point or a constant$"
        for pairs in (((bad, lambda e: 1.0),), ((lambda t: 1.0, bad),)):
            with pytest.raises(ValidationError, match=message):
                KernelSpec(separable=pairs)
        disc = NystromDiscretization(kernel_t_plus_eta(), simpson_rule(21))
        with pytest.raises(ValidationError, match=message):
            nystrom_solve(disc, 0.3, bad)
        sol = nystrom_solve(disc, 0.3, np.cos)
        with pytest.raises(ValidationError, match=message):
            NystromSolution(disc, 0.3, bad, sol.phi)(np.linspace(0.0, 1.0, 5))

    @pytest.mark.parametrize("constant", [2.0, 2, np.float64(2.0), np.array([2.0]),
                                          np.array([[2.0]])], ids=repr)
    def test_a_constant_broadcasts(self, constant):
        rule = simpson_rule(21)
        G, H = KernelSpec(separable=((lambda t: constant, lambda e: constant),)).factors(
            rule.nodes, rule.nodes)
        assert np.array_equal(G, np.full((21, 1), 2.0)) and np.array_equal(H, G)
        sol = nystrom_solve(NystromDiscretization(kernel_zero(), rule), 0.3, lambda t: constant)
        assert np.array_equal(sol.phi, np.full(21, 2.0))
        assert sol(0.25) == 2.0 and sol(np.array([0.1, 0.9])).tolist() == [2.0, 2.0]


# profiles (g_i, h_i) of the separable catalogue kernels, in mpmath
def mp_profiles(mp):
    one = mp.mpf(1)
    return {
        "t-plus-eta": [(lambda t: t, lambda e: one), (lambda t: one, lambda e: e)],
        "exp-diff": [(mp.exp, lambda e: mp.exp(-e))],
        "rho-rho": [(lambda t: one, lambda e: one)],
        "degenerate": [(lambda t: one, lambda e: one),
                       (lambda t: mp.mpf(2.5) * (t - mp.mpf(0.5)), lambda e: one)],
    }


def mp_characteristic_numbers(name, rule):
    """The exact characteristic numbers of the discretization (the profiles
    at the floating-point nodes, the floating-point weights) to 50 digits."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    pairs = mp_profiles(mp)[name]
    t = [mp.mpf(x) for x in rule.nodes.tolist()]
    w = [mp.mpf(x) for x in rule.weights.tolist()]
    S = mp.matrix([[mp.fsum(wk * h(tk) * g(tk) for wk, tk in zip(w, t)) for g, _ in pairs]
                   for _, h in pairs])
    mus = [S[0, 0]] if S.rows == 1 else mp.eig(S, left=False, right=False)
    assert all(abs(mp.im(mu)) < 1e-40 for mu in mus)
    return sorted((1 / mp.re(mu) for mu in mus if abs(mu) > 1e-10), key=abs)


def worst_relative_error(got, want):
    assert len(got) == len(want) and all(g.imag == 0.0 for g in got)
    return max(float(abs(g.real - ref) / abs(ref)) for g, ref in zip(got, want))


@pytest.mark.parametrize("n_nodes", [7, 201, 801, 1201])
@pytest.mark.parametrize("name", ["t-plus-eta", "exp-diff", "rho-rho", "degenerate"])
def test_characteristic_numbers_within_4_ulp_of_mpmath(name, n_nodes):
    rule = simpson_rule(n_nodes)
    want = mp_characteristic_numbers(name, rule)
    got = char_numbers(NystromDiscretization(CATALOGUE[name](), rule)).characteristic_numbers
    assert len(got) == len(want)
    for g, ref in zip(got, want):
        assert abs(g.real - ref) <= 4 * math.ulp(g.real), (g, ref)


@pytest.mark.parametrize("rule", [simpson_rule(7), simpson_rule(21), simpson_rule(51),
                                  simpson_rule(201), gauss_legendre_rule(40)],
                         ids=["simpson-7", "simpson-21", "simpson-51", "simpson-201",
                              "gauss-legendre-40"])
@pytest.mark.parametrize("name", ["t-plus-eta", "exp-diff", "degenerate"])
def test_finite_rank_spectrum_no_less_accurate_than_the_dense_route(name, rule):
    want = mp_characteristic_numbers(name, rule)
    disc = NystromDiscretization(CATALOGUE[name](), rule)
    got = char_numbers(disc).characteristic_numbers
    assert worst_relative_error(got, want) <= worst_relative_error(dense_spectrum(disc)[0], want)
