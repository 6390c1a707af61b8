import cmath
import math

import numpy as np
import pytest

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
from ecodyn.errors import PoleError, ValidationError
from ecodyn.odelin import TimeGrid


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

    @pytest.mark.parametrize("t0", [1e-200, 1e300])
    def test_reduced_coefficients_out_of_range_are_keyed_t0(self, t0):
        # rho**2 underflows to 0 at 1e-200 and overflows at 1e300
        with pytest.raises(ValidationError, match="not finite") as exc:
            phillips_solve(PhillipsParams(**PHILLIPS), AllenScaling(t0=t0), (1.0, 0.0),
                           TimeGrid(0.0, 1.0, 2))
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
