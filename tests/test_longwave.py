import math

import numpy as np
import pytest

from ecodyn.errors import ValidationError
from ecodyn.longwave import (
    LongWaveParams,
    lw_classify,
    lw_matrix,
    lw_simulate,
    zero_crossing_period,
)
from ecodyn.odelin import TimeGrid, rk4_linear


class TestMatrix:
    def test_direct_substitution(self):
        M = lw_matrix(LongWaveParams(p=1.0, r=1.0, q=1.0, s=0.0))
        assert np.allclose(M, [[-1.0, 1.0], [0.0, -1.0]])

    def test_s_minus_two_second_row(self):
        M = lw_matrix(LongWaveParams(p=0.3, r=0.25, q=1.0, s=-2.0))
        assert np.allclose(M[1], [-0.5, 0.25])

    def test_p_zero_first_row_zero(self):
        M = lw_matrix(LongWaveParams(p=0.0, r=1.0))
        assert np.allclose(M[0], [0.0, 0.0])


class TestClassify:
    def test_undamped_band_low(self):
        rep = lw_classify(LongWaveParams(p=0.10, r=0.10))
        assert rep.regime == "undamped_periodic"
        assert rep.period_years == pytest.approx(2 * math.pi / 0.10, rel=1e-10)

    def test_twenty_year_cycles(self):
        rep = lw_classify(LongWaveParams(p=0.34, r=0.34))
        assert rep.regime == "undamped_periodic"
        assert rep.period_years == pytest.approx(18.48, abs=0.01)

    def test_p_above_r_damped(self):
        # trace = r - p < 0: oscillation decays
        rep = lw_classify(LongWaveParams(p=0.12, r=0.10))
        assert rep.regime == "damped_oscillatory"

    def test_r_above_p_growing(self):
        rep = lw_classify(LongWaveParams(p=0.10, r=0.12))
        assert rep.regime == "growing_oscillatory"

    def test_non_oscillatory(self):
        # s = 0 decouples the feedback: real eigenvalues
        rep = lw_classify(LongWaveParams(p=1.0, r=2.0, q=1.0, s=0.0))
        assert rep.regime == "non_oscillatory"
        assert rep.period_years is None

    def test_undamped_iff_zero_trace(self):
        # -p - r(1+s) = 0 is the machine form of the balance condition
        for p, r, s in [(0.2, 0.2, -2.0), (0.3, 0.1, -4.0), (0.05, 0.05, -2.0)]:
            M = lw_matrix(LongWaveParams(p=p, r=r, q=1.0, s=s))
            rep = lw_classify(LongWaveParams(p=p, r=r, q=1.0, s=s))
            if abs(np.trace(M)) < 1e-12 and rep.period_years is not None:
                assert rep.regime == "undamped_periodic"
            elif rep.period_years is not None:
                assert rep.regime in ("damped_oscillatory", "growing_oscillatory")

    def test_negative_rates_rejected(self):
        with pytest.raises(ValidationError):
            LongWaveParams(p=-0.1, r=0.1)


class TestSimulate:
    def test_equilibrium_stays_zero(self):
        traj = lw_simulate(LongWaveParams(p=0.1, r=0.1), 0.0, 0.0, TimeGrid(0.0, 50.0, 500))
        assert np.all(traj.values == 0.0)

    def test_zero_rates_constant(self):
        traj = lw_simulate(LongWaveParams(p=0.0, r=0.0), 1.0, 0.5, TimeGrid(0.0, 10.0, 100))
        assert np.all(traj.column("x") == 1.0)
        assert np.all(traj.column("y") == 0.5)
        assert np.all(traj.column("z") == 0.5)

    @pytest.mark.parametrize("p, r, x0, y0", [(0.11, 0.11, 1.0, 0.2), (0.2, 0.05, -0.7, 0.3),
                                               (0.1, 0.1, 0.0, -0.0)])
    def test_bits_match_the_stacked_columns(self, p, r, x0, y0):
        params = LongWaveParams(p=p, r=r)
        grid = TimeGrid(0.0, 80.0, 800)
        xy = rk4_linear(lw_matrix(params), [x0, y0], grid).values
        x, y = xy[:, 0], xy[:, 1]
        expected = np.column_stack([x, y, x - y])
        values = lw_simulate(params, x0, y0, grid).values
        assert np.array_equal(values.view(np.int64), expected.view(np.int64))

    def test_z_is_x_minus_y(self):
        traj = lw_simulate(LongWaveParams(p=0.11, r=0.11), 1.0, 0.2, TimeGrid(0.0, 80.0, 800))
        assert np.allclose(traj.column("z"), traj.column("x") - traj.column("y"))

    def test_returns_near_start_after_one_period(self):
        traj = lw_simulate(LongWaveParams(p=0.10, r=0.10), 1.0, 0.0, TimeGrid(0.0, 126.0, 2520))
        period = 2 * math.pi / 0.10
        idx = int(round(period / (126.0 / 2520)))
        assert traj.column("x")[idx] == pytest.approx(1.0, abs=0.01)

    def test_orbit_closure_energy_like(self):
        # undamped orbit returns to its start point after one period
        traj = lw_simulate(LongWaveParams(p=0.2, r=0.2), 0.7, -0.3, TimeGrid(0.0, 35.0, 3500))
        period = 2 * math.pi / 0.2
        t = traj.times
        x_back = np.interp(period, t, traj.column("x"))
        y_back = np.interp(period, t, traj.column("y"))
        start = np.array([0.7, -0.3])
        back = np.array([x_back, y_back])
        assert np.linalg.norm(back - start) / np.linalg.norm(start) < 0.01


class TestPeriodEstimation:
    def test_matches_eigenvalue_period(self):
        params = LongWaveParams(p=0.10, r=0.10)
        rep = lw_classify(params)
        traj = lw_simulate(params, 1.0, 0.0, TimeGrid(0.0, 190.0, 3800))
        estimated = zero_crossing_period(traj)
        assert abs(estimated - rep.period_years) / rep.period_years < 0.02

    def test_random_undamped_parameter_sets(self, rng):
        # p = -r(1+s) > 0 makes the trace vanish; det > 0 keeps rotation
        count = 0
        while count < 10:
            r = float(rng.uniform(0.05, 0.5))
            s = float(rng.uniform(-3.0, -1.2))
            q = float(rng.uniform(0.6, 2.0))
            p = -r * (1.0 + s)
            params = LongWaveParams(p=p, r=r, q=q, s=s)
            rep = lw_classify(params)
            if rep.regime != "undamped_periodic":
                continue
            count += 1
            horizon = 2.5 * rep.period_years
            traj = lw_simulate(params, 1.0, 0.0, TimeGrid(0.0, horizon, 4000))
            estimated = zero_crossing_period(traj)
            assert abs(estimated - rep.period_years) / rep.period_years < 0.02

    def test_needs_enough_crossings(self):
        traj = lw_simulate(LongWaveParams(p=0.10, r=0.10), 1.0, 0.0, TimeGrid(0.0, 10.0, 100))
        with pytest.raises(ValidationError):
            zero_crossing_period(traj)
