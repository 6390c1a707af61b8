import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ecodyn import harrod
from ecodyn.allen import AllenScaling, harrod_domar_trajectory
from ecodyn.errors import BlowUpError, CrossCheckError, EcodynError, PoleError, ValidationError
from ecodyn.harrod import (
    HarrodParams,
    adequacy_residual,
    classical_trajectory,
    corrected_trajectory,
    discrete_path,
)
from ecodyn.odelin import TimeGrid


class TestParams:
    def test_sigma(self):
        assert HarrodParams(mu=0.5, nu_star=10.0).sigma == 0.05

    def test_validation(self):
        with pytest.raises(ValidationError):
            HarrodParams(mu=1.5, nu_star=10.0)
        with pytest.raises(ValidationError):
            HarrodParams(mu=0.5, nu_star=-1.0)
        with pytest.raises(ValidationError):
            HarrodParams(mu=0.5, nu_star=10.0, Y0=0.0)


class TestClassical:
    def test_initial_value(self):
        p = HarrodParams(mu=0.5, nu_star=10.0, Y0=3.0)
        traj = classical_trajectory(p, 10.0, TimeGrid(0.0, 5.0, 50))
        assert traj.values[0, 0] == pytest.approx(3.0, rel=1e-14)

    def test_exponential_value_at_ten_years(self):
        p = HarrodParams(mu=0.5, nu_star=10.0)
        traj = classical_trajectory(p, 10.0, TimeGrid(0.0, 10.0, 1000))
        assert traj.column("Y")[-1] == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_zero_mu_constant(self):
        p = HarrodParams(mu=0.0, nu_star=10.0, Y0=2.0)
        traj = classical_trajectory(p, 10.0, TimeGrid(0.0, 10.0, 100))
        assert np.all(traj.column("Y") == 2.0)

    @pytest.mark.parametrize("mu,nu", [(0.1, 5.0), (0.5, 10.0), (0.9, 3.0)])
    def test_flow_identities(self, mu, nu):
        p = HarrodParams(mu=mu, nu_star=nu)
        traj = classical_trajectory(p, nu, TimeGrid(0.0, 4.0, 200))
        Y, C, S, I = (traj.column(k) for k in ("Y", "C", "S", "I"))
        scale = np.max(np.abs(Y))
        assert np.max(np.abs(Y - (C + S))) / scale < 1e-12
        assert np.max(np.abs(S - I)) / scale < 1e-12
        assert np.max(np.abs(S - mu * Y)) / scale < 1e-12


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def stacked_classical(params: HarrodParams, nu: float, grid: TimeGrid) -> np.ndarray:
    """The table classical_trajectory built before it was one product:
    column_stack of Y and three full-length temporaries."""
    Y = harrod._checked_exponential(params.Y0, params.mu / nu, grid)
    S = params.mu * Y
    return np.column_stack([Y, (1.0 - params.mu) * Y, S, S])


class TestClassicalTable:
    @pytest.mark.parametrize("mu", [0.0, 0.1, 0.37, 0.9])
    @pytest.mark.parametrize("nu, Y0, t_end, steps", [(2.5, 1.0, 20.0, 1000),
                                                       (0.7, 3.3, 5.0, 777),
                                                       (40.0, 1e-3, 100.0, 10)])
    def test_bits_match_the_stacked_columns(self, mu, nu, Y0, t_end, steps):
        params = HarrodParams(mu=mu, nu_star=nu, Y0=Y0)
        grid = TimeGrid(0.0, t_end, steps)
        values = classical_trajectory(params, nu, grid).values
        assert same_bits(values, stacked_classical(params, nu, grid))

    def test_traced_peak_at_1e5_steps(self):
        # one (steps+1, 4) table and the RK4 check: 3.94 MiB; the stacked
        # columns reached 5.34 MiB
        params = HarrodParams(mu=0.3, nu_star=2.5)
        grid = TimeGrid(0.0, 20.0, 100_000)
        tracemalloc.start()
        try:
            classical_trajectory(params, 2.5, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20


class TestCorrected:
    def test_zero_mu_constant(self):
        p = HarrodParams(mu=0.0, nu_star=10.0, Y0=2.0)
        res = corrected_trajectory(p, TimeGrid(0.0, 50.0, 100))
        assert np.all(res.trajectory.column("Y") == 2.0)
        assert res.blowup_time == math.inf

    def test_forecast_horizon_ten_years(self):
        p = HarrodParams(mu=0.5, nu_star=10.0)
        res = corrected_trajectory(p, TimeGrid(0.0, 1.0, 10))
        assert res.forecast_horizon == pytest.approx(10.0, rel=1e-14)
        assert res.blowup_time == pytest.approx(20.0, rel=1e-14)

    def test_value_at_forecast_horizon(self):
        p = HarrodParams(mu=0.5, nu_star=10.0)
        res = corrected_trajectory(p, TimeGrid(0.0, 10.0, 1000))
        assert res.trajectory.column("Y")[-1] == pytest.approx(4.0, rel=1e-12)

    def test_pole_error_names_location(self):
        p = HarrodParams(mu=0.5, nu_star=10.0)
        with pytest.raises(PoleError) as exc_info:
            corrected_trajectory(p, TimeGrid(0.0, 25.0, 100))
        assert exc_info.value.pole_location == pytest.approx(20.0)
        assert "20.0" in str(exc_info.value)

    def test_large_nu_star_approaches_constant(self):
        # deviation from Y0 decreases monotonically as nu_star doubles
        t_end = 5.0
        deviations = []
        for nu_star in (20.0, 40.0, 80.0, 160.0):
            p = HarrodParams(mu=0.5, nu_star=nu_star)
            res = corrected_trajectory(p, TimeGrid(0.0, t_end, 200))
            deviations.append(float(np.max(np.abs(res.trajectory.column("Y") - 1.0))))
        assert all(b < a for a, b in zip(deviations, deviations[1:]))
        sigma = 0.5 / 20.0
        assert deviations[0] <= 2 * sigma * t_end * 1.0 * 1.5


TRAJECTORIES = {
    "classical": lambda: classical_trajectory(
        HarrodParams(mu=0.5, nu_star=10.0), 10.0, TimeGrid(0.0, 10.0, 1000)),
    "corrected": lambda: corrected_trajectory(
        HarrodParams(mu=0.5, nu_star=10.0), TimeGrid(0.0, 15.0, 1000)),
    "harrod-domar": lambda: harrod_domar_trajectory(
        AllenScaling(t0=2.0), 0.5, 3.0, TimeGrid(0.0, 10.0, 1000)),
}


class TestCrossCheck:
    # the RK4 reference perturbed by `rel`: 1e-6 is 100x the 1e-8 bound of
    # the exponential checks; the corrected check's bound is 1e-6 itself,
    # so it gets twice that
    @pytest.mark.parametrize("name, rel", [
        ("classical", 1e-6), ("corrected", 2e-6), ("harrod-domar", 1e-6),
        # a NaN deviation is no pass
        ("classical", math.nan), ("corrected", math.nan), ("harrod-domar", math.nan)])
    def test_perturbed_reference_raises(self, monkeypatch, name, rel):
        original = harrod.rk4_linear

        def perturbed(*args, **kwargs):
            traj = original(*args, **kwargs)
            traj.values *= 1.0 + rel
            return traj

        TRAJECTORIES[name]()  # passes unperturbed
        monkeypatch.setattr(harrod, "rk4_linear", perturbed)
        with pytest.raises(CrossCheckError, match="closed form vs RK4 deviation"):
            TRAJECTORIES[name]()


    @pytest.mark.parametrize("name, tol", [
        ("classical", "1e-8"), ("corrected", "1e-6"), ("harrod-domar", "1e-8")])
    def test_each_check_names_its_own_tolerance(self, monkeypatch, name, tol):
        monkeypatch.setattr(harrod, "sup_rel_diff", lambda a, b: 2.0 * float(tol))
        message = rf"^closed form vs RK4 deviation \S+ exceeds {tol}$"
        with pytest.raises(CrossCheckError, match=message):
            TRAJECTORIES[name]()


# closed forms that overflow where the capped-substep RK4 stays finite
OVERFLOWS = {
    "classical": lambda: classical_trajectory(
        HarrodParams(mu=0.9, nu_star=1.0), 0.001, TimeGrid(0.0, 1.0, 1)),
    "corrected": lambda: corrected_trajectory(
        HarrodParams(mu=0.5, nu_star=1.0, Y0=1e300), TimeGrid(0.0, 1.9999, 4)),
    "harrod-domar": lambda: harrod_domar_trajectory(
        AllenScaling(t0=1.0), 0.9, 0.001, TimeGrid(0.0, 1.0, 1)),
}


@pytest.mark.filterwarnings("error")  # the overflow is raised, not warned
@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_closed_form_overflow_is_a_blow_up(name):
    with pytest.raises(BlowUpError, match="^closed form blew up between t=") as exc:
        OVERFLOWS[name]()
    assert np.isfinite(exc.value.x_last).all()


class TestDiscrete:
    def test_base_year(self):
        p = HarrodParams(mu=0.5, nu_star=10.0, K0=7.0)
        path = discrete_path(p, 2.0, 0)
        assert path.Y_tilde[0] == pytest.approx(3.5)
        assert path.impulses == ()

    def test_geometric_sum_oracle(self):
        # alpha = 0.5, n = 2: brute-force partial sums as the oracle
        p = HarrodParams(mu=0.5, nu_star=10.0)
        path = discrete_path(p, 1.0, 2)
        alpha = 0.5
        brute = [sum(alpha**i for i in range(k + 1)) for k in range(3)]
        assert np.allclose(path.K, np.array(brute) * p.K0, rtol=1e-14)
        assert path.Y_tilde[2] / path.Y_tilde[0] == pytest.approx(1.75, rel=1e-12)

    def test_alpha_one_linear_branch(self):
        p = HarrodParams(mu=0.5, nu_star=10.0)
        path = discrete_path(p, 0.5, 4)
        assert path.Y_tilde[4] == pytest.approx(5.0 * path.Y_tilde[0], rel=1e-14)

    def test_alpha_above_one_rejected(self):
        p = HarrodParams(mu=0.9, nu_star=10.0)
        with pytest.raises(ValidationError):
            discrete_path(p, 0.5, 3)

    @pytest.mark.filterwarnings("error")  # the overflow is raised, not warned
    def test_capital_overflow_is_a_blow_up(self):
        p = HarrodParams(mu=0.5, nu_star=10.0, K0=1.5e308)
        with pytest.raises(BlowUpError, match="^capital path blew up between t=0.0 and t=1.0$") as exc:
            discrete_path(p, 1.0, 5)
        assert (exc.value.index_last, exc.value.t_last) == (0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_income_overflow_in_year_zero_is_a_blow_up(self):
        # K0/nu leaves the float range although K0 does not
        p = HarrodParams(mu=1e-301, nu_star=1e-300, K0=1e10)
        with pytest.raises(BlowUpError, match="^capital path blew up at t=0.0$"):
            discrete_path(p, 1e-300, 0)

    @pytest.mark.parametrize("mu, nu, K0, n", [(0.5, 1.0, 1.0, 40), (0.37, 0.9, 7.1, 300),
                                               (0.5, 0.5, 2.0, 12), (1e-301, 1e-300, 1.0, 5)])
    def test_bits_match_separate_arrays(self, mu, nu, K0, n):
        # K and Y_tilde share one (n+1, 2) buffer; the values are those of
        # the separate arrays the path was built from before
        K = np.empty(n + 1)
        K[0] = K0
        for i in range(1, n + 1):
            K[i] = K0 + (mu / nu) * K[i - 1]
        path = discrete_path(HarrodParams(mu=mu, nu_star=10.0, K0=K0), nu, n)
        assert same_bits(path.K, K)
        assert same_bits(path.Y_tilde, K / nu)
        assert same_bits(path.I_tilde, K * (mu / nu))

    # alpha = mu/nu within 1e-6 .. 1e-10 of 1, where the plain reference
    # K0 (1 - alpha^(n+1))/(1 - alpha) lost up to 5e-9 to cancellation
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("years", [10, 100, 1000, 10000])
    @pytest.mark.parametrize("gap", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    def test_alpha_near_one_runs_and_keeps_the_recursion(self, gap, years):
        mu, K0 = 0.5, 1.3
        nu = mu / (1.0 - gap)
        path = discrete_path(HarrodParams(mu=mu, nu_star=10.0, K0=K0), nu, years)
        K = np.empty(years + 1)
        K[0] = K0
        for i in range(1, years + 1):
            K[i] = K0 + (mu / nu) * K[i - 1]
        assert same_bits(path.K, K)

    # alpha = 0, and alpha so small that alpha - 1 rounds to -1 (a log1p
    # of that would be a domain error), down to a subnormal
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu", [0.0, 1e-20, 5e-324])
    def test_alpha_at_or_near_zero_keeps_the_recursion(self, mu):
        K0 = 2.5
        path = discrete_path(HarrodParams(mu=mu, nu_star=10.0, K0=K0), 1.0, 6)
        K = np.empty(7)
        K[0] = K0
        for i in range(1, 7):
            K[i] = K0 + mu * K[i - 1]
        assert same_bits(path.K, K)

    @pytest.mark.parametrize("dev", [2e-12, math.nan])
    def test_disagreement_is_a_cross_check_error(self, monkeypatch, dev):
        monkeypatch.setattr(harrod, "sup_rel_diff", lambda a, b: dev)
        with pytest.raises(CrossCheckError, match="^recursion vs closed form deviation"):
            discrete_path(HarrodParams(mu=0.4, nu_star=10.0), 0.8, 5)

    @pytest.mark.parametrize("n", [-1, -100])
    def test_negative_year_count_is_keyed_years(self, n):
        with pytest.raises(ValidationError, match="^years must be nonnegative$") as info:
            discrete_path(HarrodParams(mu=0.4, nu_star=10.0), 0.8, n)
        assert info.value.key == "years"

    def test_impulses_telescope_to_total_growth(self):
        p = HarrodParams(mu=0.4, nu_star=10.0, K0=3.0)
        path = discrete_path(p, 0.8, 12)
        assert path.impulse_total == pytest.approx(path.K[-1] - path.K[0], rel=1e-12)
        for year, weight in path.impulses:
            assert weight == pytest.approx(path.K[year] - path.K[year - 1], rel=1e-12)


class TestAdequacy:
    def test_frozen_point_value(self):
        # |0.5 - ln(0.875/0.75)| evaluated independently
        expected = abs(0.5 - math.log(0.875 / 0.75))
        res = adequacy_residual(0.5, 2)
        assert res.residual_155 == pytest.approx(expected, rel=1e-14)
        assert res.residual_155 == pytest.approx(0.3458493, abs=1e-7)

    def test_mismatch_ratio_alpha_half_n_ten(self):
        res = adequacy_residual(0.5, 10)
        expected_ratio = math.exp(5.0) / ((1.0 - 0.5**11) / 0.5)
        assert res.mismatch_ratio == pytest.approx(expected_ratio, rel=1e-14)
        assert res.mismatch_ratio == pytest.approx(74.2428, abs=1e-3)
        assert res.mismatch_ratio > 70.0

    def test_sums_near_one_keep_their_digits(self):
        # 1 - alpha^11 cancels nine digits here; the exact sum is a Fraction
        alpha, n = 1 - 1e-9, 10
        res = adequacy_residual(alpha, n)
        exact = sum(Fraction(alpha) ** i for i in range(n + 1))
        assert abs(Fraction(res.rhs_rational) / exact - 1) <= 1e-15
        assert abs(Fraction(res.mismatch_ratio) / (Fraction(res.lhs_exp) / exact) - 1) <= 1e-15

    def test_positive_over_grid(self):
        for alpha in np.arange(0.1, 1.0, 0.1):
            for n in range(1, 21):
                res = adequacy_residual(float(alpha), n)
                assert res.residual_155 > 0.0
                assert res.residual_154 > 0.0

    @pytest.mark.parametrize("alpha", [1e-300, 1e-8, 0.1, 0.5, 0.8, 0.999, 1 - 1e-9])
    @pytest.mark.parametrize("n", [1, 10, 886, 887, 1000, 10**6, 10**12, sys.maxsize])
    def test_any_horizon_gives_finite_residuals(self, alpha, n):
        # math.exp(alpha * n) raised OverflowError past alpha * n = 709.78,
        # as at (0.8, 1000)
        try:
            res = adequacy_residual(alpha, n)
        except EcodynError:
            return
        assert math.isfinite(res.residual_154) and math.isfinite(res.residual_155)
        assert math.isfinite(res.rhs_rational)
        if alpha * n <= 709.0:  # inside the float range: the bits of exp
            assert res.lhs_exp == math.exp(alpha * n)
            assert res.mismatch_ratio == math.exp(alpha * n) / res.rhs_rational
        elif alpha * n > 710.0:
            assert res.lhs_exp == res.mismatch_ratio == math.inf

    def test_vanishing_alpha_limit(self):
        res = adequacy_residual(1e-8, 3)
        assert res.residual_154 < 1e-6
        assert res.residual_155 < 1e-6

    def test_trivial_cases_rejected(self):
        with pytest.raises(ValidationError):
            adequacy_residual(0.0, 3)
        with pytest.raises(ValidationError):
            adequacy_residual(1.0, 3)
        with pytest.raises(ValidationError):
            adequacy_residual(0.5, 0)

    @pytest.mark.parametrize("alpha, n, key", [
        (0.0, 3, "alpha"), (1.0, 3, "alpha"), (math.nan, 3, "alpha"),
        (0.5, 0, "n"), (0.5, -2, "n")])
    def test_rejections_are_keyed(self, alpha, n, key):
        with pytest.raises(ValidationError) as info:
            adequacy_residual(alpha, n)
        assert info.value.key == key
