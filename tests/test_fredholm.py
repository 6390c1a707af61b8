import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ecodyn import fredholm
from ecodyn.errors import (
    BlowUpError,
    DegenerateDataError,
    NumericalError,
    ResolutionError,
    SingularMatrixError,
    SpectrumProximityError,
    ValidationError,
)
from ecodyn.fredholm import (
    SPECTRUM_PROXIMITY_TOL,
    FredholmReduction,
    KernelSpec,
    NystromDiscretization,
    VolterraReduction,
    _certified_far,
    _poly_part,
    _volterra_kernel,
    canonical_rho,
    canonical_sigma,
    char_numbers,
    degenerate_residual,
    gauss_legendre_rule,
    kernel_degenerate,
    kernel_exp_diff,
    kernel_rho_rho,
    kernel_sigma_rho,
    kernel_t_plus_eta,
    kernel_zero,
    nystrom_solve,
    ode_to_integral,
    param_singularity_sweep,
    resolvent,
    resolvent_apply,
    simpson_rule,
)
from ecodyn.odelin import OdeSpec, TimeGrid


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

    def test_gauss_legendre_integrates_polynomials(self):
        r = gauss_legendre_rule(16)
        assert float(np.sum(r.weights * r.nodes**5)) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_kernel_separable_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            KernelSpec(
                array=np.add,
                separable=((lambda t: t, lambda e: 1.0),),  # missing the eta factor
            )


class TestNystromSolve:
    def test_lambda_zero_returns_free_term(self, disc_sum):
        sol = nystrom_solve(disc_sum, 0.0, lambda t: math.sin(t))
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
    def test_numerically_singular_system_is_a_singular_matrix(self, mu):
        # the guard passes, and LAPACK meets an exact zero pivot
        disc = NystromDiscretization(kernel_degenerate(mu), simpson_rule(5))
        with pytest.raises(SingularMatrixError, match="Singular matrix"):
            nystrom_solve(disc, 0.5, lambda t: 1.0)
        with pytest.raises(SingularMatrixError, match="Singular matrix"):
            resolvent(disc, 0.5)

    def test_overflowing_system_matrix_is_a_numerical_failure(self):
        disc = NystromDiscretization(kernel_degenerate(1e200), simpson_rule(5))
        for solve in (lambda: nystrom_solve(disc, 1e200, lambda t: 1.0),
                      lambda: resolvent(disc, 1e200)):
            with pytest.raises(NumericalError, match="^derived coefficient system_matrix is not"):
                solve()

    def test_gauss_rule_agrees_with_simpson(self):
        disc_g = NystromDiscretization(kernel_t_plus_eta(), gauss_legendre_rule(40))
        sol_g = nystrom_solve(disc_g, 0.5, lambda t: 1.0)
        expected = 36.0 / 23.0 + (24.0 / 23.0) * disc_g.nodes
        assert np.max(np.abs(sol_g.phi - expected)) < 1e-10


class TestResolvent:
    def test_lambda_zero_is_kernel(self, disc_sum):
        H = resolvent(disc_sum, 0.0)
        assert np.allclose(H, disc_sum.K, atol=1e-15)

    def test_exp_kernel_geometric_series(self, disc_exp):
        H = resolvent(disc_exp, 0.5)
        assert np.max(np.abs(H - disc_exp.K / 0.5)) < 1e-8

    def test_sum_kernel_closed_form_bracket(self, disc_sum):
        # H(t,eta) = [6(lam-2)(t+eta) - 12*lam*t*eta - 4*lam] / (lam^2+12lam-12)
        lam = 0.5
        H = resolvent(disc_sum, lam)
        T, E = np.meshgrid(disc_sum.nodes, disc_sum.nodes, indexing="ij")
        expected = (6 * (lam - 2) * (T + E) - 12 * lam * T * E - 4 * lam) / (
            lam**2 + 12 * lam - 12
        )
        assert np.max(np.abs(H - expected)) < 1e-6

    def test_resolvent_route_equals_direct_solve(self, disc_sum, rng):
        lam = 0.4
        H = resolvent(disc_sum, lam)
        t = disc_sum.nodes
        for _ in range(10):
            coeffs = rng.uniform(-1.0, 1.0, 4)
            q_nodes = coeffs[0] + coeffs[1] * t + coeffs[2] * t**2 + coeffs[3] * np.sin(3 * t)
            via_resolvent = resolvent_apply(disc_sum, H, lam, q_nodes)

            def q_fn(x, c=coeffs):
                return c[0] + c[1] * x + c[2] * x**2 + c[3] * math.sin(3 * x)

            direct = nystrom_solve(disc_sum, lam, q_fn)
            assert np.max(np.abs(via_resolvent - direct.phi)) < 1e-10


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
            return math.cos(2.0 * math.pi * t)

        res = degenerate_residual(canonical_rho, sigma, mu, rule)
        phi = 1.0 + mu * np.array([sigma(t) for t in rule.nodes.tolist()])
        disc = NystromDiscretization(kernel_degenerate(mu, canonical_rho, sigma), rule)
        assert res.residual == float(np.max(np.abs(phi - disc.apply(phi))))
        assert res.residual <= 1e-8

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
        assert red.kernel(0.9, 0.2) == pytest.approx(-1.0)
        assert red.free_term(0.0) == pytest.approx(-1.0)

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

    def test_kernel_is_convolution(self):
        red = ode_to_integral(OdeSpec((1.0, 0.5, 2.0)), [1.0, 0.0])
        for t, eta, shift in [(0.8, 0.3, 0.1), (0.5, 0.2, 0.25)]:
            assert red.kernel(t, eta) == pytest.approx(
                red.kernel(t + shift, eta + shift), rel=1e-12
            )

    def test_matches_analytic_solution_orders_one_two(self):
        from ecodyn.odelin import TimeGrid, analytic_solution

        for coeffs, init in [((1.0, 2.0), [1.5]), ((1.0, 1.0, 2.0), [1.0, -0.5])]:
            red = ode_to_integral(OdeSpec(coeffs), init)
            sol = red.solve(steps=200)
            exact = analytic_solution(OdeSpec(coeffs), init, TimeGrid(0.0, 1.0, 200))
            err = np.max(np.abs(sol.trajectory.column("z") - exact.values[:, 0]))
            assert err < 1e-6

    def test_two_point_boundary_produces_fredholm(self):
        red = ode_to_integral(
            OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, 1.0), (0, 1.0, math.cos(1.0))]
        )
        assert isinstance(red, FredholmReduction)
        sol = red.solve()
        t = sol.trajectory.times
        err = np.max(np.abs(sol.trajectory.column("z") - np.cos(t)))
        assert err < 1e-5
        # the implied initial slope is cos' (0) = 0
        assert sol.constants[1] == pytest.approx(0.0, abs=1e-4)

    def test_two_point_kernel_not_convolution(self):
        red = ode_to_integral(
            OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, 1.0), (0, 1.0, math.cos(1.0))]
        )
        k = red.kernel_spec()
        assert k(0.6, 0.2) != pytest.approx(k(0.9, 0.5), rel=1e-6)

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

    def test_forced_equation_free_term(self):
        red = ode_to_integral(OdeSpec((1.0, 1.0), forcing=lambda t: 2.0), [0.0])
        # zdot + z = 2 from 0 -> z = 2(1 - e^-t)
        sol = red.solve(steps=200)
        t = sol.trajectory.times
        assert np.max(np.abs(sol.trajectory.column("z") - 2 * (1 - np.exp(-t)))) < 1e-6


COS_TWO_POINT = [(0, 0.0, 1.0), (0, 1.0, math.cos(1.0))]  # z'' + z = 0 has z = cos t


class TestTwoPointSolve:
    """The two-point solve fixes z^(i)(0) by the Fredholm form, then
    integrates z^(n) = phi from them with the Fredholm phi."""

    def test_z_integrates_the_fredholm_phi_from_its_constants(self):
        spec = OdeSpec((1.0, 0.5, 2.0), forcing=math.sin)
        red = ode_to_integral(spec, [(0, 0.0, 1.0), (1, 1.0, -0.5)])
        sol = red.solve(n_nodes=101, steps=80)
        disc = fredholm.NystromDiscretization(red.kernel_spec(), simpson_rule(101))
        tf = np.linspace(0.0, 1.0, 4 * 80 + 1)
        phi = fredholm.nystrom_solve(disc, 1.0, red.free_term)(tf)
        z = reconstruct(tf, 1.0 / (4 * 80), phi, np.asarray(sol.constants), red.order, 4)
        assert np.array_equal(sol.trajectory.times, tf[::4])
        assert np.array_equal(sol.phi, phi[::4])
        np.testing.assert_allclose(sol.trajectory.column("z"), z, rtol=1e-12, atol=1e-14)
        assert sol.trajectory.labels == ("z",)

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
        assert np.max(np.abs(sol.trajectory.column("z") - z)) < 1e-5
        assert np.max(np.abs(sol.phi - (1.0 - z))) < 1e-5

    def test_derivative_condition_at_one_matches_its_closed_form(self):
        # z'' + z = 0, z(0) = a, z'(1) = b: z = a cos t + B sin t with
        # B = (b + a sin 1)/cos 1
        a, b = 1.0, 0.5
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, a), (1, 1.0, b)])
        sol = red.solve()
        t = sol.trajectory.times
        B = (b + a * math.sin(1.0)) / math.cos(1.0)
        assert np.max(np.abs(sol.trajectory.column("z") - (a * np.cos(t) + B * np.sin(t)))) < 1e-5
        assert sol.constants[1] == pytest.approx(B, abs=1e-5)

    def test_phi_is_minus_z(self):
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), COS_TWO_POINT)
        sol = red.solve(n_nodes=201)
        t = sol.trajectory.times
        assert np.max(np.abs(sol.phi + np.cos(t))) < 1e-5
        assert np.max(np.abs(sol.phi + sol.trajectory.column("z"))) < 1e-5


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


def refuse(*args, **kwargs):
    raise AssertionError("a rejected grid reached the solver")


class TestReductionGrid:
    """Both reductions take their grid from TimeGrid, which rejects a bad
    count or end before any work runs."""

    def test_two_point_zero_steps(self, monkeypatch):
        monkeypatch.setattr(fredholm, "nystrom_solve", refuse)
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, 1.0), (0, 1.0, 0.5)])
        for steps in (0, -1):
            with pytest.raises(ValidationError, match="^steps must be positive$") as info:
                red.solve(steps=steps)
            assert info.value.key == "steps"

    @pytest.mark.parametrize("kwargs, key", [
        ({"steps": 0}, "steps"),
        ({"steps": -2, "refine": -2}, "steps"),  # a positive product is no excuse
        ({"refine": 0}, "refine"),
        ({"t_end": math.nan}, "t-end"),
        ({"t_end": math.inf}, "t-end"),
        ({"t_end": -1.0}, "t-end"),
    ], ids=["steps-0", "both-negative", "refine-0", "t-end-nan", "t-end-inf", "t-end-negative"])
    def test_volterra_rejects_before_the_march(self, monkeypatch, kwargs, key):
        monkeypatch.setattr(fredholm, "_volterra_trapezoid", refuse)
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [1.0, 0.0])
        with pytest.raises(ValidationError) as info:
            red.solve(**kwargs)
        assert info.value.key == key

    @pytest.mark.parametrize("t_end, steps, refine", [
        (1.0, 200, 4), (0.7, 33, 3), (2.0, 7, 1), (np.float64(1.5), 10, 2), (3, 12, 2)])
    def test_output_grid_is_every_refine_th_node(self, t_end, steps, refine):
        sol = ode_to_integral(OdeSpec((1.0, 0.5, 2.0)), [1.0, -0.5]).solve(
            steps=steps, refine=refine, t_end=t_end)
        grid = sol.trajectory.grid
        assert (grid.t_start, grid.t_end, grid.steps) == (0.0, t_end, steps)
        assert type(grid.t_end) is float
        assert np.array_equal(grid.nodes, np.linspace(0.0, t_end, steps + 1))


def reconstruct(t, h, phi, c, n, refine):
    """z = J_n[phi] + sum_i c_i t^i/i! at every ``refine``-th node of the
    uniform grid ``t`` (t[0] = 0, spacing h), where
    J_n[phi](t) = int_0^t (t - s)^(n-1)/(n-1)! phi(s) ds by the trapezoidal
    rule on that grid, taken as one convolution."""
    g = t ** (n - 1) / math.factorial(n - 1)  # the integrand's kernel at lag t_K - t_j = t_(K-j)
    conv = np.convolve(phi, g)[: len(t)]  # sum_{j<=K} g_(K-j) phi_j
    integral = h * (conv - 0.5 * (g * phi[0] + g[0] * phi))
    tk = t[::refine]
    return integral[::refine] + sum(c[i] * tk**i / math.factorial(i) for i in range(n))


def row_dot_march(red, steps, refine=4, t_end=1.0):
    """(z, phi) of the Volterra reduction by the plain trapezoidal march: one
    kernel row over the whole history per node, O(N^2) for N = steps *
    refine, and z from the convolution of ``reconstruct``."""
    n = red.order
    N = steps * refine
    t = np.linspace(0.0, t_end, N + 1)
    h = t_end / N
    q = red._free_terms(t)
    diag_gain = 1.0 + (h / 2.0) * red.a[n - 1]
    phi = np.empty(N + 1)
    phi[0] = q[0]
    w_phi = np.empty(N + 1)  # trapezoidal weight times phi over the history
    w_phi[0] = (h / 2.0) * phi[0]
    kappa = fredholm._volterra_kernel(red.a, n)
    for k in range(1, N + 1):
        phi[k] = (q[k] + float(kappa(t[k], t[:k]) @ w_phi[:k])) / diag_gain
        w_phi[k] = h * phi[k]
    z = reconstruct(t, h, phi, np.asarray(red.init, dtype=float), n, refine)
    return z, phi[::refine]


class TestMomentMarch:
    @settings(max_examples=60, deadline=None)
    @given(
        # three decimals: no data so small that the march underflows
        coeffs=st.integers(1, 4).flatmap(
            lambda n: st.lists(st.floats(-3.0, 3.0).map(lambda x: round(x, 3)),
                               min_size=n, max_size=n)),
        init=st.lists(st.floats(-2.0, 2.0).map(lambda x: round(x, 3)), min_size=4, max_size=4),
        steps=st.integers(7, 300),
        refine=st.integers(1, 4),
        t_end=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_matches_the_row_dot_march(self, coeffs, init, steps, refine, t_end):
        # the march alone: ``solve`` refuses the coarsest draws (7 steps on
        # [0, 2]) by its half-resolution check
        red = ode_to_integral(OdeSpec((1.0, *coeffs)), init[: len(coeffs)])
        sol = red._march(TimeGrid(0.0, t_end, steps * refine), refine)
        z, phi = row_dot_march(red, steps, refine, t_end)
        for got, want in ((sol.trajectory.column("z"), z), (sol.phi, phi)):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)

    def test_forced_equation_matches_the_row_dot_march(self):
        red = ode_to_integral(OdeSpec((1.0, 0.5, 2.0), forcing=math.sin), [1.0, -0.5])
        z, phi = row_dot_march(red, 50)
        sol = red.solve(steps=50)
        assert np.max(np.abs(sol.trajectory.column("z") - z)) <= 1e-12 * np.max(np.abs(z))
        assert np.max(np.abs(sol.phi - phi)) <= 1e-12 * np.max(np.abs(phi))

    def test_evaluates_no_kernel_row(self, monkeypatch):
        calls = []
        original = fredholm._volterra_kernel

        def spy(a, n):
            kappa = original(a, n)

            def evaluate(t, eta):
                calls.append(np.shape(eta))
                return kappa(t, eta)

            return evaluate

        monkeypatch.setattr(fredholm, "_volterra_kernel", spy)
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [1.0, 0.0])
        sol = red.solve(steps=50)
        assert np.max(np.abs(sol.trajectory.column("z") - np.cos(sol.trajectory.times))) < 1e-4
        assert not [shape for shape in calls if shape != ()]

    def test_resonant_step_is_a_resolution_error(self):
        # 1 + (h/2) a_0 = 0 at h = 1
        red = ode_to_integral(OdeSpec((1.0, -2.0)), [1.0])
        with pytest.raises(ResolutionError):
            red.solve(steps=1, refine=1)

    @pytest.mark.parametrize("coeffs, init", [
        ((1.0, 0.0, 1e4), [1.0, 0.0]),
        ((1.0, 0.0, 1e6), [1.0, 0.0]),
        ((1.0, 0.0, -400.0), [1.0, -20.0]),  # e^-20t, with the mode e^20t growing
    ], ids=["omega-100", "omega-1000", "growing-mode"])
    def test_unresolved_march_is_a_resolution_error(self, coeffs, init):
        # each used to return a wrong z: z(1) = 0.893 against cos 100 = 0.862,
        # 0.879 against cos 1000 = 0.562, 1.9e4 against 2e-9
        red = ode_to_integral(OdeSpec(coeffs), init)
        with pytest.raises(ResolutionError,
                           match="^half-resolution drift .* exceeds 10%; refine the grid$"):
            red.solve()

    @pytest.mark.parametrize("steps, refine", [(1, 4), (1, 1)])
    def test_one_output_step_passes_its_check(self, steps, refine):
        # one step of 4 nodes against 2; a one-node march is its own half
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [1.0, 0.0])
        sol = red.solve(steps=steps, refine=refine)
        want = red._march(TimeGrid(0.0, 1.0, steps * refine), refine)
        assert sol.trajectory.values.tobytes() == want.trajectory.values.tobytes()
        assert abs(sol.trajectory.column("z")[-1] - math.cos(1.0)) < 0.1

    def test_overflow_is_a_blow_up(self):
        red = ode_to_integral(OdeSpec((1.0, -1000.0)), [1.0])
        with pytest.raises(BlowUpError) as exc:
            red.solve(steps=1000)
        assert exc.value.t_last < 0.71


# ---------------------------------------------------------------------------
# Kernel forms, batched off-node evaluation and the screened guard
# ---------------------------------------------------------------------------

unit = st.floats(0.0, 1.0, allow_nan=False)
points = st.lists(st.tuples(unit, unit), min_size=1, max_size=20)
coeff = st.floats(-3.0, 3.0, allow_nan=False)


def assert_array_matches_scalar(spec, reference, ts, es):
    """k at the pairs (t_i, e_i), taken from the array form where the kernel
    has one and from its matrix otherwise, and k one point at a time, both
    within 1e-12 of the closed form ``reference``."""
    T, E = np.array(ts, dtype=float), np.array(es, dtype=float)
    if spec.array is not None:
        got = spec.array(T, E)
        assert got.shape == T.shape
    else:
        got = np.diagonal(spec.matrix(T, E))
    for t, e, a in zip(ts, es, got):
        v = reference(float(t), float(e))
        for value in (a, spec(float(t), float(e))):
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
        spec = kernel_degenerate(mu, rho=math.cos, sigma=math.sin)

        def reference(t, e):
            return (math.cos(t) + mu * math.sin(t)) * math.cos(e)

        assert_array_matches_scalar(spec, reference, [p[0] for p in pts], [p[1] for p in pts])

    @given(pts=points, a0=coeff, a1=coeff, a2=coeff, layout=st.sampled_from([
        ((0, 0.0, 1.0), (0, 1.0, 0.5)),
        ((1, 0.0, -0.5), (0, 1.0, 2.0)),
        ((0, 0.0, 1.0), (1, 1.0, 0.3)),
        ((0, 0.0, 1.0), (1, 0.0, 0.0), (0, 1.0, 0.7)),
    ]))
    def test_ode_reduced_matches_scalar_on_and_off_diagonal(self, pts, a0, a1, a2, layout):
        n = len(layout)
        coeffs = (1.0, *(a2, a1, a0)[-n:])
        red = ode_to_integral(OdeSpec(coeffs), list(layout))
        assert isinstance(red, FredholmReduction)

        def scalar(t, eta):
            # the kernel one point at a time, with the mask as a branch
            base = _volterra_kernel(red.a, n)(t, eta) if eta <= t else 0.0
            coeff = red._Minv @ red._beta(eta)  # contribution of phi to c
            add = float(_poly_part(red.a, coeff, n, np.array([t]))[0])
            return base + add

        ts, es = [], []
        for t, e in pts:
            # the kernel jumps on eta = t: probe it and one ulp either side
            ts += [t, t, t, t]
            es += [e, t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        assert_array_matches_scalar(red.kernel_spec(), scalar, ts, es)

    @pytest.mark.parametrize("forms, match", [
        ({}, "^kernel 'kernel' needs an array or a separable form$"),
        ({"array": lambda T, E: T - E,
          "separable": ((lambda t: t, lambda e: 1.0), (lambda t: 1.0, lambda e: e))},
         "^separable form of 'kernel' deviates from the array form at "),
        ({"array": lambda T, E: np.ones(5)}, "^array form of 'kernel' returned shape"),
        ({"separable": ((lambda t: math.nan if t == 0.5 else t, lambda e: 1.0),)},
         r"^separable form of 'kernel' is not finite at \(0.5, 0.0\)$"),
        ({"array": lambda T, E: np.where(T == E, np.inf, T)},
         r"^array form of 'kernel' is not finite at \(0.0, 0.0\)$"),
    ], ids=["neither", "disagree", "shape", "nan-profile", "inf-array"])
    def test_user_forms_checked_at_construction(self, forms, match):
        with pytest.raises(ValidationError, match=match):
            KernelSpec(**forms)

    @pytest.mark.parametrize("spec", [
        KernelSpec(array=lambda T, E: np.exp(T - E)),
        KernelSpec(separable=((math.exp, lambda e: math.exp(-e)),)),
    ], ids=["array", "profiles"])
    def test_one_form_kernel_assembles(self, spec, rule):
        disc = NystromDiscretization(spec, rule)
        T, E = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
        assert np.max(np.abs(disc.K - np.exp(T - E))) < 1e-15


class TestBatchedOffNode:
    @pytest.mark.parametrize("spec", [kernel_t_plus_eta(), kernel_exp_diff(),
                                      KernelSpec(array=np.multiply), kernel_degenerate(0.5)])
    def test_array_equals_pointwise(self, spec, rng):
        disc = NystromDiscretization(spec, simpson_rule(101))
        sol = nystrom_solve(disc, 0.3, lambda t: math.cos(3.0 * t))
        ts = np.concatenate([rng.uniform(0.0, 1.0, 40), disc.nodes[::10]])
        batched = sol(ts)
        assert batched.shape == ts.shape
        pointwise = np.array([sol(float(t)) for t in ts])
        assert np.max(np.abs(batched - pointwise)) <= 1e-13 * np.max(np.abs(pointwise))
        assert isinstance(sol(0.25), float)

    def test_at_nodes_reproduces_the_solve(self, disc_sum):
        sol = nystrom_solve(disc_sum, 0.5, lambda t: 1.0)
        assert np.max(np.abs(sol(disc_sum.nodes) - sol.phi)) < 1e-12


def dense(spec):
    """The kernel as an array form alone: it takes the n x n route.  A
    profile kernel's array form is the sum of g(T) h(E) over its pairs,
    one profile call per element of T and of E."""
    if spec.array is not None:
        return dataclasses.replace(spec, separable=None)
    pairs = [(np.vectorize(g, otypes=[float]), np.vectorize(h, otypes=[float]))
             for g, h in spec.separable]

    def array(T, E):
        out = np.zeros(np.broadcast_shapes(np.shape(T), np.shape(E)))
        for g, h in pairs:
            out += g(T) * h(E)
        return out

    return KernelSpec(array=array, name=spec.name)


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


class TestScreenedGuard:
    DISTANCES = (1e-10, 5e-9, 0.999e-8, 1.001e-8, 2e-8, 1e-6)

    @pytest.mark.parametrize("make", [kernel_t_plus_eta, kernel_exp_diff])
    def test_decision_table_matches_plain_eigvals(self, make, rule):
        disc = NystromDiscretization(make(), rule)
        eigs = np.linalg.eigvals(disc.weighted())
        mus = [mu.real for mu in eigs if abs(mu) > 1e-3]
        assert mus
        for mu in mus:
            for d in self.DISTANCES:
                for lam in (1.0 / (mu + d), 1.0 / (mu - d)):
                    expected = plain_eigvals_guard(disc, lam)
                    got = guard_message(disc, lam)
                    assert got == expected, (mu, d, lam)
                    assert (got is not None) == (d < SPECTRUM_PROXIMITY_TOL)

    @pytest.mark.parametrize("make", [kernel_t_plus_eta, kernel_exp_diff])
    def test_far_from_spectrum_skips_eigvals(self, make, rule, monkeypatch):
        disc = NystromDiscretization(make(), rule)

        def forbidden():
            raise AssertionError("eigvals computed although sigma_min cleared the tolerance")

        monkeypatch.setattr(disc, "weighted_eigs", forbidden)
        nystrom_solve(disc, 0.5, lambda t: 1.0)
        resolvent(disc, 0.25)


def certificate_tau(disc, lam):
    """I/lam - KW, and the sigma_min the guard's certificate claims for it
    when it accepts."""
    shifted = np.eye(disc.rule.n) / lam - disc.weighted()
    fro = float(np.linalg.norm(shifted))
    return shifted, 2.0 * SPECTRUM_PROXIMITY_TOL + disc.rule.n * np.finfo(float).eps * fro


# The guard's certificate: at rank 0 for dense() kernels, at the rank of the
# separable form otherwise
class TestGramCertificate:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(CATALOGUE)),
        make_rule=st.sampled_from([simpson_rule, gauss_legendre_rule]),
        half=st.integers(2, 30),
        pick=st.integers(0, 60),
        sign=st.sampled_from([-1.0, 1.0]),
        # dense where sigma_min crosses tau = 2e-8 + rounding
        log_d=st.one_of(st.floats(-11.0, 0.5), st.floats(-7.75, -7.55)),
        # the certificate at the separable form's rank, or at rank 0 without it
        separable=st.booleans(),
    )
    # sigma_min just below tau, next to an eigenvalue: eigvals decides
    @example(name="exp-diff", make_rule=simpson_rule, half=30, pick=0, sign=1.0,
             log_d=-7.610169491525424, separable=False)
    def test_accepts_only_proved_distances(self, name, make_rule, half, pick, sign, log_d,
                                           separable):
        spec = CATALOGUE[name]()
        disc = NystromDiscretization(spec if separable else dense(spec), make_rule(2 * half + 1))
        assert (disc.G is not None) == separable
        eigs = np.linalg.eigvals(disc.weighted())
        mu = float(eigs[pick % len(eigs)].real)
        denominator = mu + sign * 10.0**log_d
        assume(denominator != 0.0)
        lam = 1.0 / denominator
        if _certified_far(disc, lam):
            shifted, tau = certificate_tau(disc, lam)
            assert np.linalg.svd(shifted, compute_uv=False)[-1] >= tau
        assert guard_message(disc, lam) == plain_eigvals_guard(disc, lam)

    # A kernel without a separable form enters the certificate at rank 0:
    # dense() keeps these tests on it.  The finite-rank certificate of the
    # separable form has its own cases below.
    @pytest.mark.parametrize("make", [kernel_t_plus_eta, kernel_exp_diff])
    def test_far_solves_compute_no_svd_or_eigvals(self, make, monkeypatch):
        disc = NystromDiscretization(dense(make()), simpson_rule(801))
        # |lam| ||KW||_F is 1.1 to 2.5 here: too far for rank 0 to prove, so
        # eigvals decides, as the unscreened guard does
        for lam in (-2.0, -1.0):
            assert guard_message(disc, lam) == plain_eigvals_guard(disc, lam)
        forbid_square_factorizations(monkeypatch, disc.rule.n)
        for lam in (0.3, 0.7):
            nystrom_solve(disc, lam, lambda t: 1.0)

    def test_two_point_solve_factors_no_n_by_n_matrix(self, monkeypatch):
        # ||KW||_F = 0.11 for the two-point kernel of z'' + z = 0: rank 0
        # proves lambda = 1 in O(n^2)
        reduction = ode_to_integral(
            OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, 1.0), (0, 1.0, math.cos(1.0))]
        )
        disc = NystromDiscretization(reduction.kernel_spec(), simpson_rule(801))
        assert disc.G is None
        forbid_square_factorizations(monkeypatch, disc.rule.n)
        nystrom_solve(disc, 1.0, reduction.free_term)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_never_certifies_a_matrix_that_is_not_finite(self, bad):
        disc = NystromDiscretization(dense(kernel_t_plus_eta()), simpson_rule(21))
        disc.K[3, 4] = bad
        assert not _certified_far(disc, 0.5)

    def test_leaves_a_gram_matrix_that_could_overflow_to_eigvals(self):
        disc = NystromDiscretization(dense(kernel_t_plus_eta()), simpson_rule(21))
        # ||I/lam - KW||_F^2 is about 0.75 of the largest float
        lam = 1.0 / math.sqrt(0.75 * np.finfo(float).max / disc.rule.n)
        assert not _certified_far(disc, lam)
        assert plain_eigvals_guard(disc, lam) is None
        nystrom_solve(disc, lam, lambda t: 1.0)

    @pytest.mark.parametrize("make", [kernel_t_plus_eta, kernel_exp_diff])
    def test_far_separable_solves_factor_no_n_by_n_matrix(self, make, monkeypatch):
        # the certificate factors only its 2r x 2r compression
        disc = NystromDiscretization(make(), simpson_rule(801))
        forbid_square_factorizations(monkeypatch, disc.rule.n)
        for lam in (-2.0, -1.0, 0.3, 0.7):
            nystrom_solve(disc, lam, lambda t: 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_weyl_never_certifies_a_matrix_that_is_not_finite(self, bad):
        disc = NystromDiscretization(kernel_t_plus_eta(), simpson_rule(21))
        disc.K[3, 4] = bad
        assert not _certified_far(disc, 0.5)

    def test_weyl_bounds_a_separable_form_that_is_not_the_kernel(self):
        # t*eta matches the kernel only on the 5 x 5 lattice KernelSpec
        # checks.  The eigenvalue near 1/2 of the sin(4 pi t) sin(4 pi eta)
        # part shows only through ||(K - G H^T) W||_F
        def bump(x):
            return np.sin(4.0 * np.pi * x)

        spec = KernelSpec(array=lambda T, E: T * E + bump(T) * bump(E),
                          separable=((lambda t: t, lambda e: e),))
        disc = NystromDiscretization(spec, simpson_rule(41))
        eigs = np.linalg.eigvals(disc.weighted())
        lam = 1.0 / float(eigs[np.argmin(np.abs(eigs - 0.5))].real)
        expected = plain_eigvals_guard(disc, lam)
        assert expected is not None
        assert not _certified_far(disc, lam)
        with pytest.raises(SpectrumProximityError) as exc:
            nystrom_solve(disc, lam, lambda t: 1.0)
        assert str(exc.value) == expected

    def test_weyl_leaves_a_matrix_that_could_overflow_to_eigvals(self):
        disc = NystromDiscretization(kernel_t_plus_eta(), simpson_rule(21))
        lam = 1.0 / math.sqrt(0.75 * np.finfo(float).max / disc.rule.n)
        assert not _certified_far(disc, lam)
        assert plain_eigvals_guard(disc, lam) is None
        nystrom_solve(disc, lam, lambda t: 1.0)


# ---------------------------------------------------------------------------
# Convergence orders: both reductions are second order against cos t
# ---------------------------------------------------------------------------

def observed_orders(errors):
    return [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]


class TestConvergenceOrder:
    def test_two_point_solve_is_second_order(self):
        red = ode_to_integral(
            OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, 1.0), (0, 1.0, math.cos(1.0))]
        )
        errors = []
        for n_nodes in (51, 101, 201):
            sol = red.solve(n_nodes=n_nodes)
            t = sol.trajectory.times
            errors.append(float(np.max(np.abs(sol.trajectory.column("z") - np.cos(t)))))
        for order in observed_orders(errors):
            assert 1.8 <= order <= 2.2, errors

    def test_volterra_march_is_second_order(self):
        red = ode_to_integral(OdeSpec((1.0, 0.0, 1.0)), [1.0, 0.0])
        errors = []
        for steps in (50, 100, 200):
            sol = red.solve(steps=steps)
            t = sol.trajectory.times
            errors.append(float(np.max(np.abs(sol.trajectory.column("z") - np.cos(t)))))
        for order in observed_orders(errors):
            assert 1.8 <= order <= 2.2, errors


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


class TestFiniteRank:
    def test_zero_kernel_has_rank_zero(self):
        rule = simpson_rule(21)
        disc = NystromDiscretization(kernel_zero(), rule)
        assert kernel_zero().separable == ()
        assert disc.G.shape == disc.H.shape == (21, 0)
        assert char_numbers(disc).characteristic_numbers == ()
        assert char_numbers(disc).eigenfunctions.shape == (0, 21)
        # every singular value of I/lam is 1/|lam|
        assert _certified_far(disc, 0.5)
        assert not _certified_far(disc, 1.0 / (0.5 * SPECTRUM_PROXIMITY_TOL))
        sol = nystrom_solve(disc, 3.0, lambda t: t)
        assert np.array_equal(sol.phi, rule.nodes)
        report = param_singularity_sweep(kernel_zero(), kernel_zero(), MU_GRID, rule)
        assert report.smallest_singular_values == (1.0,) * len(MU_GRID)
        assert report.classification == "non_exceptional"

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("separable", [True, False])
    def test_never_certifies_a_lambda_that_is_not_finite(self, lam, separable):
        spec = kernel_t_plus_eta() if separable else dense(kernel_t_plus_eta())
        disc = NystromDiscretization(spec, simpson_rule(21))
        assert not _certified_far(disc, lam)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_never_certifies_profile_samples_that_are_not_finite(self, bad):
        disc = NystromDiscretization(kernel_t_plus_eta(), simpson_rule(21))
        disc.G[4, 0] = bad
        assert not _certified_far(disc, 0.5)

    def test_samples_each_profile_once_per_node(self):
        calls = []

        def g(t):
            calls.append(t)
            return t

        spec = KernelSpec(array=np.multiply, separable=((g, lambda e: e),))
        calls.clear()
        disc = NystromDiscretization(spec, simpson_rule(41))
        assert calls == disc.nodes.tolist()
        assert np.array_equal(disc.G[:, 0], disc.nodes)
        assert np.array_equal(disc.H[:, 0], disc.nodes)

    @pytest.mark.parametrize("n_nodes", [7, 51, 401])
    @pytest.mark.parametrize("name", sorted(set(CATALOGUE) - {"sigma-rho"}))
    def test_spectrum_matches_the_dense_route(self, name, n_nodes):
        spec = CATALOGUE[name]()
        rule = simpson_rule(n_nodes)
        got = char_numbers(NystromDiscretization(spec, rule))
        want = char_numbers(NystromDiscretization(dense(spec), rule))
        assert len(got.characteristic_numbers) == len(want.characteristic_numbers)
        for a, b in zip(got.characteristic_numbers, want.characteristic_numbers):
            assert abs(a - b) <= 1e-13 * abs(b)
        assert got.eigenfunctions.shape == want.eigenfunctions.shape
        assert np.max(np.abs(got.eigenfunctions - want.eigenfunctions), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("mu", [3.064689215977694e-289, -3.064689215977694e-289, 1e-320])
    def test_characteristic_number_beyond_the_float_range_is_infinite(self, mu):
        # the eigenvalue near mu of the degenerate kernel has 1/mu above
        # the float range; its exact quotient saturates to +-inf, and the
        # discard threshold drops it
        disc = NystromDiscretization(kernel_degenerate(mu), simpson_rule(23))
        lams = fredholm._rank_spectrum(disc)[2]
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
        spurious = char_numbers(NystromDiscretization(dense(kernel_sigma_rho()), rule))
        assert all(abs(lam) > 1e6 for lam in spurious.characteristic_numbers)

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
        want = param_singularity_sweep(dense(spec0), dense(spec1), MU_GRID, rule)
        assert (got.flagged, got.classification) == (want.flagged, want.classification)
        for s, (smin, smax) in zip(got.smallest_singular_values, dense_sweep(spec0, spec1, rule)):
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
            resolvent(disc, -0.4)
        for k0, k1 in PAIRS:
            param_singularity_sweep(CATALOGUE[k0](), CATALOGUE[k1](), MU_GRID, rule)

    def test_leaves_the_rounding_band_to_eigvals(self):
        # sigma_min(I/lam - KW) clears tau by 1e-12, less than the rounding
        # margin the certificate must leave: eigvals decides, and accepts
        disc = NystromDiscretization(kernel_exp_diff(), simpson_rule(201))
        mu = 1.0 / char_numbers(disc).characteristic_numbers[0].real

        def gap(d):
            shifted, tau = certificate_tau(disc, 1.0 / (mu + d))
            return np.linalg.svd(shifted, compute_uv=False)[-1] - tau

        lo, hi = 1e-8, 1e-7  # gap(lo) < 0 < gap(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) <= 1e-12 else (lo, mid)
        assert 0.0 < gap(hi) <= 2e-12
        lam = 1.0 / (mu + hi)
        assert not _certified_far(disc, lam)
        assert plain_eigvals_guard(disc, lam) is None
        nystrom_solve(disc, lam, lambda t: 1.0)


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
        mus = fredholm._rank_spectrum(disc)[0]
        assume(all(abs(1.0 - lam * m) >= 0.1 for m in mus))
        sol, orders = solve_orders(lambda: nystrom_solve(disc, lam, math.cos))
        assert all(k < disc.rule.n for k in orders)  # no n x n solve
        q = np.cos(disc.nodes)
        if name == "zero":
            assert np.array_equal(sol.phi, q)
        # the dense oracle with one step of refinement: the plain LU solve
        # was off by up to 2.2e-13 of ||phi|| from the exact solution of the
        # degenerate kernel (n = 363, lam = 8.85), and the rank route by 5e-16
        M = disc.system_matrix(lam)
        want = np.linalg.solve(M, q)
        want += np.linalg.solve(M, q - M @ want)
        assert np.max(np.abs(sol.phi - want)) <= 1e-13 * np.max(np.abs(sol.phi))

    def test_separable_solve_holds_less_than_half_a_square_array(self):
        n = 801
        disc = NystromDiscretization(kernel_exp_diff(), simpson_rule(n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nystrom_solve(disc, 0.3, math.cos)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * n * 8

    def test_separable_solve_holds_no_square_array(self):
        # K is not assembled: the certificate and the solve hold two blocks
        # of _DEFECT_ROWS rows (0.065 n^2 floats at 1201 nodes)
        n = 1201
        disc = NystromDiscretization(kernel_exp_diff(), simpson_rule(n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            nystrom_solve(disc, 0.3, math.cos)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * n * n * 8

    @pytest.mark.parametrize(
        "n_nodes",
        [7, fredholm._DEFECT_ROWS - 1, fredholm._DEFECT_ROWS + 1, 2 * fredholm._DEFECT_ROWS,
         255, 257, 801],
    )
    @pytest.mark.parametrize("separable", [True, False])
    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_blocked_defect_matches_one_vdot(self, name, separable, n_nodes):
        spec = CATALOGUE[name]()
        # Simpson needs an odd node count
        rule = simpson_rule(n_nodes) if n_nodes % 2 else gauss_legendre_rule(n_nodes)
        disc = NystromDiscretization(spec if separable else dense(spec), rule)
        G, H = fredholm._factors(disc)
        D = (disc.K - G @ H.T) * disc.weights
        want = float(np.vdot(D, D))
        assert abs(fredholm._separable_defect(disc)[0] - want) <= 1e-12 * want

    def test_a_separable_form_that_is_not_the_kernel_solves_dense(self):
        # t*eta matches t*eta + sin(4 pi t) sin(4 pi eta) on KernelSpec's 5 x 5
        # lattice only: the certificate proves lambda far, and the solve
        # keeps to K
        def bump(x):
            return np.sin(4.0 * np.pi * x)

        spec = KernelSpec(array=lambda T, E: T * E + bump(T) * bump(E),
                          separable=((lambda t: t, lambda e: e),))
        disc = NystromDiscretization(spec, simpson_rule(41))
        assert _certified_far(disc, 0.3)
        want = np.linalg.solve(disc.system_matrix(0.3), np.cos(disc.nodes))
        assert np.array_equal(nystrom_solve(disc, 0.3, math.cos).phi, want)

    def test_phi_that_is_not_finite_is_a_numerical_failure(self):
        disc = NystromDiscretization(kernel_exp_diff(), simpson_rule(21))
        with pytest.raises(NumericalError, match="^the finite-rank solve gave a phi that is not"):
            nystrom_solve(disc, 0.3, lambda t: math.inf if t == 0.5 else 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("spec, route", [
        (kernel_exp_diff(), "finite-rank"),
        (kernel_zero(), "finite-rank"),  # rank 0 returns q
        (dense(kernel_exp_diff()), "n x n"),
    ])
    def test_free_term_that_is_not_finite_fails_on_every_route(self, spec, route, bad):
        disc = NystromDiscretization(spec, simpson_rule(21))
        with pytest.raises(NumericalError, match=f"^the {route} solve gave a phi that is not"):
            nystrom_solve(disc, 0.3, lambda t: bad if t == 0.5 else 1.0)


# K is assembled on first read: the separable routes sample it in row blocks
class TestLazyMatrix:
    @pytest.mark.parametrize("make", [kernel_t_plus_eta, kernel_exp_diff])
    def test_far_separable_solve_leaves_K_unassembled(self, make):
        disc = NystromDiscretization(make(), simpson_rule(801))
        for lam in (-2.0, -1.0, 0.3, 0.7):
            assert _certified_far(disc, lam)
            nystrom_solve(disc, lam, math.cos)
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

    def test_kernel_without_a_separable_form_is_assembled_once(self, monkeypatch):
        n = 41
        shapes, original = [], KernelSpec.matrix

        def spy(self, t, eta):
            shapes.append((len(t), len(eta)))
            return original(self, t, eta)

        monkeypatch.setattr(KernelSpec, "matrix", spy)
        disc = NystromDiscretization(dense(kernel_exp_diff()), simpson_rule(n))
        assert shapes == [(n, n)]
        nystrom_solve(disc, 0.3, math.cos)
        char_numbers(disc)
        resolvent(disc, 0.3)
        assert shapes == [(n, n)]

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

    @pytest.mark.parametrize("n_nodes", [7, fredholm._DEFECT_ROWS - 1, fredholm._DEFECT_ROWS + 1,
                                         2 * fredholm._DEFECT_ROWS, 257, 801])
    @pytest.mark.parametrize("separable", [True, False])
    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_row_blocks_have_the_bits_of_the_full_assembly(self, name, separable, n_nodes):
        # so delta, and every decision of the certificate and the gate, is
        # that of the assembled K
        spec = CATALOGUE[name]()
        spec = spec if separable else dense(spec)
        nodes = gauss_legendre_rule(n_nodes).nodes
        full = spec.matrix(nodes, nodes)
        step = fredholm._DEFECT_ROWS
        blocks = np.vstack([spec.matrix(nodes[i : i + step], nodes)
                            for i in range(0, n_nodes, step)])
        assert blocks.tobytes() == full.tobytes()
        if separable:
            disc = NystromDiscretization(spec, simpson_rule(n_nodes | 1))
            rows = np.vstack([disc.rows(i, i + step) for i in range(0, disc.rule.n, step)])
            assert "K" not in disc.__dict__
            assert rows.tobytes() == disc.K.tobytes()


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


def worst_relative_error(spec, rule, want):
    got = char_numbers(NystromDiscretization(spec, rule)).characteristic_numbers
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
                         ids=lambda r: f"{r.name}-{r.n}")
@pytest.mark.parametrize("name", ["t-plus-eta", "exp-diff", "degenerate"])
def test_finite_rank_spectrum_no_less_accurate_than_the_dense_route(name, rule):
    want = mp_characteristic_numbers(name, rule)
    spec = CATALOGUE[name]()
    assert worst_relative_error(spec, rule, want) <= worst_relative_error(dense(spec), rule, want)
