import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecodyn.allen import (
    AllenScaling,
    PhillipsParams,
    bergstrom_capital_solve,
    harrod_domar_trajectory,
    multiplier_trajectory,
    phillips_capital_roots,
    phillips_solve,
    phillips_system_residuals,
    scale_invariance_check,
)
from ecodyn.errors import BlowUpError, NumericalError, PoleError, ValidationError
from ecodyn.odelin import TimeGrid
from conftest import ode_flow


class TestScaling:
    def test_derived_ratios(self):
        s = AllenScaling(t0=2.0, t_star=0.5, Y0=4.0, C0=2.0, I0=1.0, Z0=8.0)
        assert s.k1 == 2.0
        assert s.k2 == 4.0
        assert s.k3 == 0.5
        assert s.rho == 4.0

    def test_positivity(self):
        with pytest.raises(ValidationError):
            AllenScaling(t0=0.0)


class TestHarrodDomar:
    def test_initial_value(self):
        traj = harrod_domar_trajectory(AllenScaling(t0=1.0), 0.5, 1.0, TimeGrid(0.0, 1.0, 50))
        assert traj.values[0, 0] == pytest.approx(1.0)

    def test_growth_at_one_scale_unit(self):
        traj = harrod_domar_trajectory(AllenScaling(t0=1.0), 0.5, 1.0, TimeGrid(0.0, 1.0, 100))
        assert traj.column("Y")[-1] == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_doubling_t0_halves_exponent(self):
        grid = TimeGrid(0.0, 1.0, 100)
        y1 = harrod_domar_trajectory(AllenScaling(t0=1.0), 0.5, 1.0, grid).column("Y")[-1]
        y2 = harrod_domar_trajectory(AllenScaling(t0=2.0), 0.5, 1.0, grid).column("Y")[-1]
        assert y1 == pytest.approx(math.exp(0.5), rel=1e-12)
        assert y2 == pytest.approx(math.exp(0.25), rel=1e-12)

    @pytest.mark.parametrize("mu", [0.1, 0.37, 0.9])
    def test_bits_match_the_stacked_columns(self, mu):
        s = AllenScaling(t0=1.7, Y0=1.1, C0=3.0, I0=0.7)
        grid = TimeGrid(0.0, 4.0, 1000)
        values = harrod_domar_trajectory(s, mu, 2.0, grid).values
        Y = values[:, 0]
        assert same_bits(values, np.column_stack([Y, (1.0 - mu) * Y / s.k1, mu * Y / s.k2]))

    def test_flow_recovery(self):
        s = AllenScaling(t0=1.0, C0=2.0, I0=4.0)
        traj = harrod_domar_trajectory(s, 0.25, 1.0, TimeGrid(0.0, 1.0, 50))
        Y, C, I = (traj.column(k) for k in ("Y", "C", "I"))
        assert np.allclose(s.k1 * C, (1 - 0.25) * Y, rtol=1e-12)
        assert np.allclose(s.k2 * I, 0.25 * Y, rtol=1e-12)


PHILLIPS = dict(kappa=4.0, nu=0.6, mu=0.5, lam=1.0)


class TestPhillips:
    def test_reduced_coefficients(self):
        p = PhillipsParams(**PHILLIPS)
        assert p.a1 == pytest.approx(2.1, rel=1e-14)
        assert p.b1 == pytest.approx(2.4, rel=1e-14)

    @pytest.mark.parametrize("t0", [1e-200, 1e-160, 1e160, 1e300])
    def test_reduced_coefficients_out_of_range_are_keyed_t0(self, t0):
        # rho**2 underflows to 0 at 1e-200, b1/rho**2 overflows at 1e-160,
        # and rho**2 overflows at 1e160 and 1e300: the income equation and
        # the capital cubic refuse them alike
        p = PhillipsParams(**PHILLIPS)
        with pytest.raises(ValidationError, match="not finite") as exc:
            phillips_solve(p, AllenScaling(t0=t0), (1.0, 0.0), TimeGrid(0.0, 1.0, 2))
        assert exc.value.key == "t0"
        message = f"^rho = t0 = {re.escape(repr(t0))} gives .* not finite$"
        with pytest.raises(ValidationError, match=message) as exc:
            phillips_capital_roots(p, t0)
        assert exc.value.key == "t0"

    def test_oscillatory_roots(self):
        p = PhillipsParams(**PHILLIPS)
        sol = phillips_solve(p, AllenScaling(t0=1.0), (1.0, 0.0), TimeGrid(0.0, 5.0, 500))
        # independent oracle: quadratic formula, discriminant 4.41 - 9.6 < 0
        expected = (-2.1 + cmath.sqrt(complex(2.1**2 - 4 * 2.4))) / 2
        got = max(sol.roots, key=lambda z: z.imag)
        assert got == pytest.approx(expected, abs=1e-12)
        assert sol.period_t_hat == pytest.approx(2 * math.pi / expected.imag, rel=1e-12)

    def test_accelerator_off_gives_zero_root_and_decay(self):
        p = PhillipsParams(kappa=4.0, nu=0.0, mu=0.5, lam=1.0)
        sol = phillips_solve(p, AllenScaling(t0=1.0), (1.0, -1.0), TimeGrid(0.0, 8.0, 400))
        assert any(abs(r) < 1e-12 for r in sol.roots)
        Y = sol.trajectory.column("Y")
        assert abs(Y[-1] - Y[-2]) < 1e-3  # settles to a constant
        assert sol.period_t_hat is None

    def test_rho_doubles_period(self):
        p = PhillipsParams(**PHILLIPS)
        grid = TimeGrid(0.0, 5.0, 100)
        s1 = phillips_solve(p, AllenScaling(t0=1.0), (1.0, 0.0), grid)
        s2 = phillips_solve(p, AllenScaling(t0=2.0), (1.0, 0.0), grid)
        assert s2.period_t_hat == pytest.approx(2.0 * s1.period_t_hat, rel=1e-12)

    def test_system_residuals_at_mu_equals_nu(self):
        # with mu = nu the printed second-order coefficients are consistent
        # with the three-equation flow system, so every residual is small
        p = PhillipsParams(kappa=4.0, nu=0.5, mu=0.5, lam=1.0)
        sol = phillips_solve(p, AllenScaling(t0=1.0), (1.0, 0.0), TimeGrid(0.0, 5.0, 2000))
        res = phillips_system_residuals(sol, p, AllenScaling(t0=1.0))
        assert res["income"] < 1e-6
        assert res["demand"] < 1e-6
        assert res["investment"] < 1e-6

    def test_system_residual_exposes_printed_stiffness(self):
        # with mu != nu the investment equation is violated at O(1):
        # the printed stiffness kappa*nu*lam disagrees with the flow system
        p = PhillipsParams(**PHILLIPS)
        sol = phillips_solve(p, AllenScaling(t0=1.0), (1.0, 0.0), TimeGrid(0.0, 5.0, 2000))
        res = phillips_system_residuals(sol, p, AllenScaling(t0=1.0))
        assert res["income"] < 1e-6
        assert res["demand"] < 1e-6
        assert res["investment"] > 1e-2


class TestPhillipsCapital:
    def test_zero_root_always_present(self):
        p = PhillipsParams(**PHILLIPS)
        roots = phillips_capital_roots(p, 1.0)
        assert any(abs(r) < 1e-12 for r in roots)

    def test_nonzero_roots_match_income_roots_at_unit_scale(self):
        p = PhillipsParams(**PHILLIPS)
        sol = phillips_solve(p, AllenScaling(t0=1.0), (1.0, 0.0), TimeGrid(0.0, 1.0, 10))
        cubic = sorted(
            (r for r in phillips_capital_roots(p, 1.0) if abs(r) > 1e-12),
            key=lambda z: z.imag,
        )
        income = sorted(sol.roots, key=lambda z: z.imag)
        for rc, ri in zip(cubic, income):
            assert abs(rc - ri) < 1e-10

    def test_doubling_t0_halves_nonzero_roots(self):
        p = PhillipsParams(**PHILLIPS)
        r1 = sorted((r for r in phillips_capital_roots(p, 1.0) if abs(r) > 1e-12), key=lambda z: z.imag)
        r2 = sorted((r for r in phillips_capital_roots(p, 2.0) if abs(r) > 1e-12), key=lambda z: z.imag)
        for a, b in zip(r1, r2):
            assert b == pytest.approx(a / 2.0, abs=1e-10)

    def test_random_parameter_sets_coincide(self, rng):
        for _ in range(20):
            p = PhillipsParams(
                kappa=float(rng.uniform(0.5, 5.0)),
                nu=float(rng.uniform(0.1, 2.0)),
                mu=float(rng.uniform(0.05, 0.95)),
                lam=float(rng.uniform(0.2, 3.0)),
            )
            cubic = sorted(
                (r for r in phillips_capital_roots(p, 1.0) if abs(r) > 1e-12),
                key=lambda z: (z.real, z.imag),
            )
            quad = sorted(
                (r for r in phillips_solve(
                    p, AllenScaling(t0=1.0), (1.0, 0.0), TimeGrid(0.0, 1.0, 4)
                ).roots),
                key=lambda z: (z.real, z.imag),
            )
            for rc, ri in zip(cubic, quad):
                assert abs(rc - ri) <= 1e-10 * max(1.0, abs(ri))

    @pytest.mark.parametrize("params", [PhillipsParams(**PHILLIPS), PhillipsParams(1.2, 0.8, 0.4, 1.1)])
    @pytest.mark.parametrize("t0, t_star", [(2.0, 2.0), (1.0, 1.0), (0.5, 3.0), (7.0, 0.25)])
    def test_nonzero_roots_are_income_roots_in_physical_time(self, params, t0, t_star):
        # the cubic is in physical time and the income equation in years:
        # its nonzero roots are the income roots at rho = t0/t_star over t_star
        sol = phillips_solve(params, AllenScaling(t0=t0, t_star=t_star), (1.0, 0.0),
                             TimeGrid(0.0, 1.0, 4))
        cubic = [r for r in phillips_capital_roots(params, t0) if r != 0]
        assert len(cubic) == 2
        for rc, ri in zip(cubic, sol.roots):
            assert abs(rc - ri / t_star) <= 1e-12 * abs(ri / t_star)


class TestBergstrom:
    def test_gamma_zero_settles(self):
        res = bergstrom_capital_solve(0.5, 1.0, 0.0, 1.0, (1.0, 1.0), TimeGrid(0.0, 40.0, 400))
        K = res.trajectory.column("K")
        # Kdot decays at rate mu*lam, K approaches K0 + Kdot0/(mu*lam)
        assert K[-1] == pytest.approx(1.0 + 1.0 / 0.5, rel=1e-6)
        assert res.stiffness == 0.0

    def test_undamped_oscillation_period(self):
        # damping gamma + mu*lam - nu*gamma*lam = 0 at nu = 1.5, stiffness 0.5
        res = bergstrom_capital_solve(0.5, 1.5, 1.0, 1.0, (1.0, 0.0), TimeGrid(0.0, 20.0, 2000))
        assert res.damping == pytest.approx(0.0, abs=1e-14)
        assert res.stiffness == pytest.approx(0.5, rel=1e-14)
        # pure harmonic oscillation at angular frequency sqrt(0.5)
        K = res.trajectory.column("K")
        t = res.trajectory.times
        assert np.max(np.abs(K - np.cos(math.sqrt(0.5) * t))) < 1e-9
        roots_im = max(abs(r.imag) for r in res.roots)
        assert 2 * math.pi / roots_im == pytest.approx(2 * math.pi / math.sqrt(0.5), rel=1e-12)

    def test_coefficients_match_phillips_under_gamma_kappa(self):
        res = bergstrom_capital_solve(0.5, 0.6, 4.0, 1.0, (1.0, 0.0), TimeGrid(0.0, 1.0, 10))
        assert res.damping == pytest.approx(2.1, rel=1e-14)
        assert res.stiffness == pytest.approx(2.0, rel=1e-14)
        assert res.kappa_equivalent == 4.0


# a/(2 sqrt(b)) of x'' + a x' + b x = 0: exactly critical, 1e-12 off it on
# either side, or anywhere from growing oscillations to overdamped decay
DAMPING_RATIOS = st.one_of(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12]),
                           st.floats(-0.5, 3.0))
UNIT = st.floats(0.05, 0.95)
RATE = st.floats(0.2, 3.0)
INIT = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
GRIDS = st.builds(lambda t_end, steps: TimeGrid(0.0, t_end, steps),
                  st.floats(0.5, 5.0), st.integers(1, 200))


def assert_matches_expm(traj, a, b, init):
    """Each column of ``traj`` within 1e-12 of its sup of mpmath's expm,
    at no more than eleven of its nodes."""
    nodes = slice(None, None, max(1, traj.grid.steps // 10))
    exact = ode_flow((1.0, a, b), init, traj.times[nodes], digits=30)
    sup = np.max(np.abs(exact), axis=0)
    assert np.all(np.max(np.abs(traj.values[nodes] - exact), axis=0) <= 1e-12 * sup)


class TestSecondOrderExactFlow:
    @settings(max_examples=50, deadline=None)
    @given(zeta=DAMPING_RATIOS, kappa=RATE, mu=UNIT, lam=RATE, t0=st.floats(0.5, 2.0),
           init=INIT, grid=GRIDS)
    def test_phillips_matches_expm(self, zeta, kappa, mu, lam, t0, init, grid):
        # nu puts a1/(2 sqrt(b1)) at zeta: s = sqrt(b1) solves s^2 + 2 zeta s = kappa + mu lam
        c = kappa + mu * lam
        s = c / (zeta + math.sqrt(zeta * zeta + c))
        params = PhillipsParams(kappa=kappa, nu=s * s / (kappa * lam), mu=mu, lam=lam)
        sol = phillips_solve(params, AllenScaling(t0=t0), init, grid)
        assert len(sol.roots) == 2
        assert_matches_expm(sol.trajectory, sol.a, sol.b, init)

    @settings(max_examples=50, deadline=None)
    @given(zeta=DAMPING_RATIOS, mu=UNIT, gamma=RATE, lam=RATE, init=INIT, grid=GRIDS)
    def test_bergstrom_matches_expm(self, zeta, mu, gamma, lam, init, grid):
        # nu puts the damping at 2 zeta sqrt(stiffness); a nu below 0 is no model
        nu = (gamma + mu * lam - 2.0 * zeta * math.sqrt(mu * gamma * lam)) / (gamma * lam)
        assume(nu >= 0.0)
        res = bergstrom_capital_solve(mu, nu, gamma, lam, init, grid)
        assert len(res.roots) == 2
        assert_matches_expm(res.trajectory, res.damping, res.stiffness, init)

    def test_critically_damped_phillips_has_no_period(self):
        # a1 = 2 and b1 = 1 exactly: Y'' + 2 Y' + Y = 0, Y = (1 + t) e^(-t)
        params = PhillipsParams(kappa=1.0, nu=0.25, mu=0.5, lam=4.0)
        sol = phillips_solve(params, AllenScaling(t0=1.0), (1.0, 0.0), TimeGrid(0.0, 10.0, 20))
        assert (sol.a, sol.b) == (2.0, 1.0)
        assert sol.roots == (-1.0, -1.0)
        assert sol.period_t_hat is None
        t = sol.trajectory.times
        assert np.max(np.abs(sol.trajectory.column("Y") - (1.0 + t) * np.exp(-t))) <= 1e-13

    def test_critically_damped_bergstrom(self):
        # damping 1 + 1 - 0 = 2, stiffness 0.5 * 1 * 2 = 1: K = (1 + t) e^(-t)
        res = bergstrom_capital_solve(0.5, 0.0, 1.0, 2.0, (1.0, 0.0), TimeGrid(0.0, 10.0, 20))
        assert (res.damping, res.stiffness) == (2.0, 1.0)
        assert res.roots == (-1.0, -1.0)
        t = res.trajectory.times
        assert np.max(np.abs(res.trajectory.column("K") - (1.0 + t) * np.exp(-t))) <= 1e-13
        assert np.max(np.abs(res.trajectory.column("Kdot") + t * np.exp(-t))) <= 1e-13


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestMultiplier:
    @pytest.mark.parametrize("mu", [0.1, 0.37, 0.9])
    def test_bits_match_the_stacked_columns(self, mu):
        grid = TimeGrid(0.0, 7.0, 1000)
        Y = 2.5 * np.exp(-1.3 * mu * grid.nodes)
        expected = np.column_stack([Y, (1.0 - mu) * Y])
        assert same_bits(multiplier_trajectory(mu, 1.3, 2.5, grid).values, expected)

    def test_initial_value(self):
        traj = multiplier_trajectory(0.5, 1.0, 2.0, TimeGrid(0.0, 1.0, 10))
        assert traj.values[0, 0] == 2.0

    def test_decay_value(self):
        traj = multiplier_trajectory(0.5, 1.0, 1.0, TimeGrid(0.0, 2.0, 100))
        assert traj.column("Y")[-1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_mu_near_one_fastest_decay(self):
        grid = TimeGrid(0.0, 2.0, 50)
        rates = []
        for mu in (0.3, 0.6, 0.99):
            Y = multiplier_trajectory(mu, 1.0, 1.0, grid).column("Y")
            rates.append(Y[-1])
        assert rates[0] > rates[1] > rates[2]

    def test_monotone_decreasing(self):
        Y = multiplier_trajectory(0.4, 2.0, 1.0, TimeGrid(0.0, 3.0, 200)).column("Y")
        assert np.all(np.diff(Y) < 0.0)

    def test_scale_divides_the_rate(self):
        grid = TimeGrid(0.0, 3.0, 30)
        Y = multiplier_trajectory(0.4, 1.1, 2.0, grid, t0=2.0).column("Y")
        assert same_bits(Y, 2.0 * np.exp(-(1.1 / 2.0) * 0.4 * grid.nodes))
        assert same_bits(multiplier_trajectory(0.4, 1.1, 2.0, grid, t0=1.0).values,
                         multiplier_trajectory(0.4, 1.1, 2.0, grid).values)

    def test_rate_that_is_not_finite_is_a_numerical_failure(self):
        with pytest.raises(NumericalError, match=r"^derived coefficient rate is not finite, got inf$"):
            multiplier_trajectory(0.5, 1.0, 1.0, TimeGrid(0.0, 1.0, 2), t0=1e-320)

    def test_path_that_overflows_before_zero_is_a_blow_up(self):
        # Y is largest at its first node, where exp(1e4) overflows
        with pytest.raises(BlowUpError, match=r"^closed form blew up at t=-20000\.0$"):
            multiplier_trajectory(0.5, 1.0, 1.0, TimeGrid(-2e4, 1.0, 10))
        with pytest.raises(BlowUpError, match="^closed form blew up"):
            scale_invariance_check("multiplier", {"mu": 0.5, "lam": 1.0}, 1.0, 2.0,
                                   TimeGrid(-2e4, 1.0, 10))


class TestScaleInvariance:
    def test_harrod_domar_structurally_scale_dependent(self):
        rep = scale_invariance_check(
            "harrod_domar", {"mu": 0.5, "nu": 1.0}, 1.0, 2.0, TimeGrid(0.0, 1.0, 200)
        )
        expected = (math.exp(0.5) - math.exp(0.25)) / math.exp(0.5)
        assert rep.max_rel_deviation == pytest.approx(expected, rel=1e-10)
        assert rep.verdict == "scale_dependent"
        assert not rep.trivially_invariant

    def test_corrected_harrod_scale_invariant(self):
        rep = scale_invariance_check(
            "corrected_harrod", {"mu": 0.5, "nu_star": 10.0}, 1.0, 2.0, TimeGrid(0.0, 1.0, 200)
        )
        assert rep.verdict == "scale_invariant"
        assert rep.trivially_invariant
        assert rep.max_rel_deviation == 0.0

    def test_phillips_scale_dependent(self):
        rep = scale_invariance_check(
            "phillips", dict(PHILLIPS), 1.0, 2.0, TimeGrid(0.0, 1.0, 200)
        )
        assert rep.verdict == "scale_dependent"
        assert rep.max_rel_deviation > 0.10

    def test_multiplier_scale_dependent(self):
        rep = scale_invariance_check(
            "multiplier", {"mu": 0.5, "lam": 1.0}, 1.0, 2.0, TimeGrid(0.0, 1.0, 200)
        )
        assert rep.verdict == "scale_dependent"

    def test_sweep_over_parameter_sets(self, rng):
        for _ in range(5):
            params = {
                "kappa": float(rng.uniform(0.5, 5.0)),
                "nu": float(rng.uniform(0.1, 1.5)),
                "mu": float(rng.uniform(0.1, 0.9)),
                "lam": float(rng.uniform(0.3, 2.0)),
            }
            rep = scale_invariance_check("phillips", params, 1.0, 2.0, TimeGrid(0.0, 2.0, 200))
            assert rep.verdict == "scale_dependent"
            hd = scale_invariance_check(
                "harrod_domar",
                {"mu": params["mu"], "nu": params["nu"]},
                1.0,
                2.0,
                TimeGrid(0.0, 2.0, 200),
            )
            assert hd.verdict == "scale_dependent"

    def test_identical_scales_rejected(self):
        with pytest.raises(ValidationError):
            scale_invariance_check("multiplier", {"mu": 0.5, "lam": 1.0}, 1.0, 1.0, TimeGrid(0.0, 1.0, 10))

    @pytest.mark.parametrize("t0_a, t0_b, message, key", [
        (0.0, 2.0, "t0_a must be positive", "t0-a"),
        (1.0, math.inf, "t0_b must be finite, got inf", "t0-b"),
    ])
    def test_scales_named_by_their_key(self, t0_a, t0_b, message, key):
        with pytest.raises(ValidationError) as exc:
            scale_invariance_check("multiplier", {"mu": 0.5, "lam": 1.0}, t0_a, t0_b,
                                   TimeGrid(0.0, 1.0, 10))
        assert (str(exc.value), exc.value.key) == (message, key)

    def test_corrected_harrod_checks_its_year_length(self):
        with pytest.raises(ValidationError) as exc:
            scale_invariance_check("corrected_harrod", {"mu": 0.5, "nu_star": 10.0, "t_star": 0.0},
                                   1.0, 2.0, TimeGrid(0.0, 1.0, 10))
        assert exc.value.key == "t-star"

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError):
            scale_invariance_check("solow", {}, 1.0, 2.0, TimeGrid(0.0, 1.0, 10))

    def test_missing_parameter_named_by_its_key(self):
        with pytest.raises(ValidationError) as exc:
            scale_invariance_check("corrected_harrod", {"mu": 0.5}, 1.0, 2.0,
                                   TimeGrid(0.0, 1.0, 10))
        assert exc.value.key == "nu-star"

    def test_corrected_harrod_keeps_its_pole_guard(self):
        # the 4-step grid would step over the pole at t = 2.5
        with pytest.raises(PoleError):
            scale_invariance_check("corrected_harrod", {"mu": 0.4, "nu_star": 1.0}, 1.0, 2.0,
                                   TimeGrid(0.0, 3.0, 4))

    @pytest.mark.parametrize("model, params", [
        ("harrod_domar", {"mu": 0.5, "nu": 1.0, "Y0": 0.0}),
        ("multiplier", {"mu": 0.5, "lam": 1.0, "Y0": -1.0}),
        ("corrected_harrod", {"mu": 0.5, "nu_star": 10.0, "Y0": 0.0}),
    ])
    def test_initial_income_checked_as_by_the_model(self, model, params):
        with pytest.raises(ValidationError) as exc:
            scale_invariance_check(model, params, 1.0, 2.0, TimeGrid(0.0, 1.0, 10))
        assert exc.value.key == "y0"
