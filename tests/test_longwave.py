import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ecodyn.errors import ValidationError
from ecodyn.longwave import (
    REGIME_REAL_TOL,
    LongWaveParams,
    lw_classify,
    lw_matrix,
    lw_simulate,
    zero_crossing_period,
)
from ecodyn.odelin import ROOT_CLUSTER_RTOL, TimeGrid, linear_flow


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


def exact_trace_det(params: LongWaveParams) -> tuple[Fraction, Fraction]:
    """tr and det of the float matrix, exactly."""
    a, b, c, d = map(Fraction, lw_matrix(params).ravel().tolist())
    return a + d, a * d - b * c


rates = st.floats(1e-3, 10.0)
couplings = st.floats(-5.0, 5.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-3)


class TestRootRule:
    """The roots are ``quadratic_roots``' of tr and det of M scaled by a
    power of two, so the regime is the same in every unit of time."""

    @settings(max_examples=300, deadline=None)
    @given(p=rates, r=rates, q=couplings, s=couplings, k=st.integers(-1000, 900))
    # per year and per 2^-40 year: the floors of eigvals' route made the second
    # non_oscillatory
    @example(p=0.2, r=0.25, q=1.1, s=-2.0, k=-40)
    def test_power_of_two_rates_scale_the_period_to_the_bit(self, p, r, q, s, k):
        params = LongWaveParams(p=p, r=r, q=q, s=s)
        scaled = LongWaveParams(p=math.ldexp(p, k), r=math.ldexp(r, k), q=q, s=s)
        M = lw_matrix(params)
        entries = np.abs(M[M != 0.0])
        # every entry of 2^k M, its roots and its period stay normal
        assume(math.ldexp(float(entries.min()), k) >= sys.float_info.min)
        assume(math.ldexp(float(entries.max()), k + 2) < sys.float_info.max)
        rep, rep_k = lw_classify(params), lw_classify(scaled)
        if rep.period_years is not None:
            assume(sys.float_info.min <= math.ldexp(rep.period_years, -k) < sys.float_info.max)
        assert rep_k.regime == rep.regime
        assert rep_k.eigenvalues == tuple(complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))
                                          for z in rep.eigenvalues)
        if rep.period_years is None:
            assert rep_k.period_years is None
        else:
            assert math.ldexp(rep_k.period_years, k) == rep.period_years

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(0.05, 1.0), r=st.floats(0.05, 1.0), s=st.floats(-3.0, -1.05),
           offset=st.just(0.0) | st.floats(-1e-2, 1e-2))
    def test_double_root_manifold(self, p, r, s, offset):
        # q puts tr^2 - 4 det at 0 in float arithmetic, then moves by offset
        t = -p - r * (1.0 + s)
        q = (t * t / 4.0 - p * r * (1.0 + s)) / (-p * r * s) * (1.0 + offset)
        params = LongWaveParams(p=p, r=r, q=q, s=s)
        rep = lw_classify(params)
        tr, det = exact_trace_det(params)
        disc = tr * tr - 4 * det
        if disc >= 0:
            assert rep.regime == "non_oscillatory" and rep.period_years is None
        # |l1 - l2| = sqrt|disc| against the band of 2 ROOT_CLUSTER_RTOL max|l|
        top = max(abs(tr) / 2 + math.sqrt(abs(disc)) / 2, math.sqrt(abs(det)))
        if math.sqrt(abs(disc)) <= 4.0 * ROOT_CLUSTER_RTOL * top:
            return
        re_half, unit = tr / 2, float(np.max(np.abs(lw_matrix(params))))
        if disc >= 0:
            want = "non_oscillatory"
        elif abs(re_half) < 0.5 * REGIME_REAL_TOL * unit:
            want = "undamped_periodic"
        elif abs(re_half) > 2.0 * REGIME_REAL_TOL * unit:
            want = "damped_oscillatory" if re_half < 0 else "growing_oscillatory"
        else:
            return
        assert rep.regime == want

    def test_double_root_example_is_not_oscillatory(self):
        # eigvals split this pair by 7.4e-9 and printed a period of 8.5e8 years
        rep = lw_classify(LongWaveParams(p=0.6142279915325098, r=0.855876647861307,
                                         q=0.7121643149077024, s=-2.578126739259058))
        assert rep.regime == "non_oscillatory" and rep.period_years is None
        assert rep.eigenvalues == (0.3682269159824138 + 0j, 0.3682269159824138 + 0j)

    def test_slow_cycle_among_unit_entries_is_a_cycle(self):
        # tr = 0 and det = 1.2e-24 exactly, against max|M| = 1.0001: a floor of
        # |Im| at 1e-10 max|M| calls this cycle of 5.7e12 years non_oscillatory
        params = LongWaveParams(p=9.999999999998899e-05, r=1.0, q=9.999000099988901e-05,
                                s=-1.0001)
        tr, det = exact_trace_det(params)
        assert tr == 0 and 0 < det < 1e-23
        rep = lw_classify(params)
        assert rep.regime == "undamped_periodic"
        assert rep.period_years == pytest.approx(2.0 * math.pi / math.sqrt(det), rel=1e-15)

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-160, 1e150, 1e300])
    def test_extreme_rates_classify(self, p):
        rep = lw_classify(LongWaveParams(p=p, r=p))
        assert rep.regime == "undamped_periodic"
        assert rep.eigenvalues == (-p * 1j, p * 1j)
        assert rep.period_years == pytest.approx(2.0 * math.pi / p, rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(0.0, 2.0), r=st.floats(0.0, 2.0), q=st.floats(-3.0, 3.0),
           s=st.floats(-5.0, 5.0))
    @example(p=1e-6, r=1e-6, q=1.0, s=1e-6)
    # eigvals was 4.7e-11 of top off: roots of 1.5e-3 from entries of 1.7
    @example(p=0.9660189231020974, r=0.7128772809969641, q=0.5748864712605348,
             s=-2.3523052150437818)
    def test_roots_match_mpmath(self, p, r, q, s):
        mp = pytest.importorskip("mpmath").mp
        tr, det = exact_trace_det(LongWaveParams(p=p, r=r, q=q, s=s))
        with mp.workdps(50):
            h = mp.mpf(tr.numerator) / tr.denominator / 2
            w = mp.sqrt(h * h - mp.mpf(det.numerator) / det.denominator)
            exact = (h - w, h + w)
            top = max(abs(exact[0]), abs(exact[1]))
            assume(top > 0 and abs(exact[1] - exact[0]) >= 1e-3 * top)
            got = lw_classify(LongWaveParams(p=p, r=r, q=q, s=s)).eigenvalues
            # a root moves by (l dtr - ddet)/(l1 - l2): rounding tr and det once,
            # and quadratic_roots' own d, give about 3.5 u top^2/sep (3.2 u seen
            # in 20000 draws).  So a pair 2e-3 apart can be 1.5e-13 of top off,
            # and a pair as far apart as top is within 1e-15 of it; a subnormal
            # root is rounded to a multiple of 2^-1074
            tol = 2.0**-50 * top * top / abs(exact[1] - exact[0]) + math.ulp(0.0)
            # each root against the nearer exact one: the order is the report's own
            assert max(min(abs(z - e) for e in exact) for z in got) <= tol


    @pytest.mark.parametrize("p, r", [(1e200, 1e-200), (1e150, 1e-170)])
    def test_smaller_real_root_keeps_its_bits(self, p, r):
        # det(M/2^e) alone underflows here: rounded once, it gave the smaller
        # roots 0 and -1.000281398996973e-170
        mp = pytest.importorskip("mpmath").mp
        params = LongWaveParams(p=p, r=r)
        a, b, c, d = lw_matrix(params).ravel().tolist()
        rep = lw_classify(params)
        assert rep.regime == "non_oscillatory" and rep.period_years is None
        with mp.workdps(50):
            h = (mp.mpf(a) + d) / 2
            det = mp.mpf(a) * d - mp.mpf(b) * c
            big = h + mp.sign(h) * mp.sqrt(h * h - det)  # no cancellation
            for got, want in zip(sorted(rep.eigenvalues, key=abs), (det / big, big)):
                assert got.imag == 0.0
                assert abs(got.real - want) <= 2.0**-52 * abs(want)


    def test_real_pair_past_the_float_range_is_infinite(self):
        # tr = 0 and det = -4.34e616: the roots are -/+2.08e308
        rep = lw_classify(LongWaveParams(p=1.4e308, r=0.3e308, q=-1.0, s=-1.7e308 / 0.3e308))
        assert rep.eigenvalues == (complex(-math.inf, 0.0), complex(math.inf, 0.0))
        assert rep.regime == "non_oscillatory" and rep.period_years is None


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
        xy = linear_flow(lw_matrix(params), [x0, y0], grid).values
        x, y = xy[:, 0], xy[:, 1]
        expected = np.column_stack([x, y, x - y])
        values = lw_simulate(params, x0, y0, grid).values
        assert np.array_equal(values.view(np.int64), expected.view(np.int64))

    # p = r, q = 1, s = -2: x' = p(y - x), y' = p(y - 2x) conserves
    # V = 2x^2 - 2xy + y^2, so an undamped cycle keeps its amplitude; RK4
    # at h = 2 years lost 44% of it by t = 2000 at p = 0.34
    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(0.05, 1.0), t_end=st.floats(1.0, 2000.0),
           x0=st.floats(0.1, 2.0), y0=st.floats(-2.0, 2.0))
    def test_undamped_cycle_keeps_its_invariant(self, p, t_end, x0, y0):
        xy = lw_simulate(LongWaveParams(p=p, r=p), x0, y0, TimeGrid(0.0, t_end, 1000)).values
        x, y = xy[:, 0], xy[:, 1]
        V = 2.0 * x * x - 2.0 * x * y + y * y
        assert np.all(np.abs(V - V[0]) <= 1e-12 * V[0])

    def test_stable_system_decays_at_any_step(self):
        # eigenvalues -0.03 and -0.41 (s = 2): at h = 1e305 the exact flow
        # is zero after one step, where RK4 overflowed
        traj = lw_simulate(LongWaveParams(p=0.11, r=0.11, s=2.0), 1.0, 0.0,
                           TimeGrid(0.0, 1e308, 1000))
        assert np.all(traj.values[1:] == 0.0)

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
