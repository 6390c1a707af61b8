import cmath
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecodyn import odelin
from ecodyn.errors import BlowUpError, ValidationError
from ecodyn.leontief import LeontiefModel, dynamic_solve
from ecodyn.odelin import (
    OdeSpec,
    TimeGrid,
    Trajectory,
    _volterra_nodes,
    char_roots,
    linear_flow,
    sup_rel_diff,
)
from conftest import augmented_flow, companion, expm, flow, ode_flow, random_metzler
from rk4_reference import rk4_integrate


class TestTimeGrid:
    def test_nodes(self):
        g = TimeGrid(0.0, 2.0, 4)
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.h == 0.5

    def test_rejects_bad_grids(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 0.0, 10)
        with pytest.raises(ValidationError):
            TimeGrid(0.0, 1.0, 0)

    @pytest.mark.parametrize("t_start, t_end", [
        (math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf), (0.0, math.nan),
        (np.float64(0.0), np.float64(math.inf)),
        (-1e308, 1e308),  # finite ends, but the step overflows
    ])
    def test_rejects_non_finite_grids_one_way(self, t_start, t_end):
        with pytest.raises(ValidationError, match="^grid ends and step must be finite") as info:
            TimeGrid(t_start, t_end, 10)
        assert info.value.key == "t-end"
        assert "np.float64" not in str(info.value)

    @pytest.mark.parametrize("steps", [0, -1, -10**6])
    def test_count_below_one_is_keyed_steps(self, steps):
        with pytest.raises(ValidationError, match="^steps must be positive$") as info:
            TimeGrid(0.0, 1.0, steps)
        assert info.value.key == "steps"

    @pytest.mark.parametrize("steps", [2**59, 2**60 - 3, 2**62, sys.maxsize - 1, sys.maxsize])
    def test_nodes_no_array_can_hold_are_out_of_memory(self, steps):
        # from about 2^60 nodes numpy refused the array as too big
        # (ValueError) or wrapped the count (IndexError); every such count is
        # refused without allocating
        grid = TimeGrid(0.0, 1.0, steps)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError, match=f"^Unable to allocate {steps + 1} nodes"):
                grid.nodes
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


class TestTrajectory:
    def test_column_lookup(self):
        g = TimeGrid(0.0, 1.0, 2)
        t = Trajectory(g, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), ("a", "b"))
        assert list(t.column("b")) == [2.0, 4.0, 6.0]
        with pytest.raises(ValidationError):
            t.column("c")

    def test_shape_validation(self):
        g = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(ValidationError):
            Trajectory(g, np.zeros((2, 1)), ("a",))
        with pytest.raises(ValidationError):
            Trajectory(g, np.zeros((3, 2)), ("a",))


class TestCharRoots:
    def test_exact_factorization(self):
        roots = char_roots(OdeSpec((1.0, 3.0, 2.0)))
        values = sorted(r.real for r, _ in roots)
        assert values == pytest.approx([-2.0, -1.0], abs=1e-12)
        assert all(m == 1 for _, m in roots)

    def test_complex_pair_from_quadratic_formula(self):
        # independent oracle: the quadratic formula via cmath
        a, b = 2.1, 2.4
        expected = sorted(
            [(-a + cmath.sqrt(complex(a * a - 4 * b))) / 2,
             (-a - cmath.sqrt(complex(a * a - 4 * b))) / 2],
            key=lambda z: z.imag,
        )
        roots = sorted((r for r, _ in char_roots(OdeSpec((1.0, a, b)))), key=lambda z: z.imag)
        for got, exp in zip(roots, expected):
            assert got == pytest.approx(exp, abs=1e-12)
        assert expected[1] == pytest.approx(complex(-1.05, math.sqrt(2.4 - 1.1025)), abs=1e-12)

    def test_cubic_with_zero_root_keeps_quadratic_roots(self):
        a1, b1 = 2.1, 2.4
        cubic = char_roots(OdeSpec((1.0, a1, b1, 0.0)))
        quad = char_roots(OdeSpec((1.0, a1, b1)))
        cubic_nonzero = sorted(
            (r for r, _ in cubic if abs(r) > 1e-12), key=lambda z: (z.real, z.imag)
        )
        quad_sorted = sorted((r for r, _ in quad), key=lambda z: (z.real, z.imag))
        assert any(abs(r) <= 1e-12 for r, _ in cubic)
        for rc, rq in zip(cubic_nonzero, quad_sorted):
            assert abs(rc - rq) < 1e-10

    def test_conjugate_pairs_for_real_coefficients(self, rng):
        for _ in range(20):
            coeffs = rng.uniform(-3.0, 3.0, 4)
            coeffs[0] = rng.uniform(0.5, 2.0)
            roots = [r for r, m in char_roots(OdeSpec(tuple(coeffs))) for _ in range(m)]
            for r in roots:
                if abs(r.imag) > 1e-9:
                    assert any(abs(r.conjugate() - s) < 1e-7 * max(1.0, abs(r)) for s in roots)

    def test_critical_damping_sweep_is_one_double_root(self):
        # z'' + a z' + (a^2/4) z has the double root -a/2 for every a; the
        # computed roots split by up to ~4e-8 relative, whatever a is
        for a in np.linspace(0.1, 20.0, 400):
            spec = OdeSpec((1.0, float(a), float(a) ** 2 / 4.0))
            assert [m for _, m in char_roots(spec)] == [2]

    def test_triple_root_sweep_is_one_triple_root(self):
        # (p + a)^3 has the triple root -a; the computed roots split by up to
        # ~1.2e-5 relative (about eps^(1/3)), whatever a is
        for a in np.linspace(0.1, 20.0, 100):
            a = float(a)
            spec = OdeSpec((1.0, 3.0 * a, 3.0 * a**2, a**3))
            assert [m for _, m in char_roots(spec)] == [3]

    def test_multiplicity_clustering(self):
        # (p + 1)^2 = p^2 + 2p + 1
        roots = char_roots(OdeSpec((1.0, 2.0, 1.0)))
        assert len(roots) == 1
        root, mult = roots[0]
        assert mult == 2
        assert root == pytest.approx(-1.0, abs=1e-7)

    def test_order_zero_rejected(self):
        with pytest.raises(ValidationError):
            OdeSpec((1.0,))

    @pytest.mark.parametrize("coeffs, message", [
        ((1.0, math.nan, 1.0), "c_1 must be finite, got nan"),
        ((math.inf, 0.0, 1.0), "c_2 must be finite, got inf"),
        ((1.0, 0.0, -math.inf), "c_0 must be finite, got -inf"),
    ], ids=["c1-nan", "c2-inf", "c0-minus-inf"])
    def test_coefficients_must_be_finite(self, coeffs, message):
        # numpy's root finder would raise LinAlgError, which is no EcodynError
        with pytest.raises(ValidationError) as info:
            OdeSpec(coeffs)
        assert str(info.value) == message


class TestCompanionFlow:
    """``linear_flow`` on the companion matrix of a homogeneous ODE, the
    route of the second-order Allen models."""

    def flow(self, coeffs, init, grid):
        return linear_flow(companion(coeffs), init, grid)

    def test_exponential(self):
        traj = self.flow((1.0, -1.0), [1.0], TimeGrid(0.0, 1.0, 10))
        assert traj.values[-1, 0] == pytest.approx(math.e, rel=1e-12)

    def test_cosine_at_pi(self):
        traj = self.flow((1.0, 0.0, 1.0), [1.0, 0.0], TimeGrid(0.0, math.pi, 64))
        assert traj.values[-1, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_derivative_column(self):
        traj = self.flow((1.0, 0.0, 1.0), [1.0, 0.0], TimeGrid(0.0, 1.0, 50))
        assert np.allclose(traj.values[:, 1], -np.sin(traj.times), atol=1e-12)

    def test_matches_rk4_on_damped_oscillator(self):
        # a = 2.1, b = 2.4: the numerical integration is the oracle
        grid = TimeGrid(0.0, 1.0, 1000)
        exact = self.flow((1.0, 2.1, 2.4), [1.0, 0.0], grid)
        numeric = rk4_integrate(
            lambda t, x: np.array([x[1], -2.1 * x[1] - 2.4 * x[0]]), [1.0, 0.0], grid
        )
        assert sup_rel_diff(exact.values[:, 0], numeric.values[:, 0]) < 1e-6

    def test_agreement_with_rk4_on_random_specs(self, rng):
        # orders <= 3, moderate roots, horizon <= 2
        for _ in range(10):
            order = int(rng.integers(1, 4))
            roots = []
            while len(roots) < order:
                if order - len(roots) >= 2 and rng.random() < 0.5:
                    re = rng.uniform(-3.0, 1.0)
                    im = rng.uniform(0.3, 4.0)
                    if re * re + im * im <= 25.0:
                        roots += [complex(re, im), complex(re, -im)]
                else:
                    roots.append(complex(rng.uniform(-5.0, 2.0), 0.0))
            spec = OdeSpec(tuple(np.poly(np.array(roots)).real))
            init = list(rng.uniform(-1.0, 1.0, order))
            grid = TimeGrid(0.0, 2.0, 2000)
            exact = self.flow(spec.coeffs, init, grid)

            def rhs(t, x, a=spec.normalized(), n=order):
                dx = np.empty(n)
                dx[:-1] = x[1:]
                dx[-1] = -sum(a[k] * x[k] for k in range(n))
                return dx

            numeric = rk4_integrate(rhs, init, grid)
            assert sup_rel_diff(exact.values[:, 0], numeric.values[:, 0]) < 1e-5

    def test_critical_damping_sweep_matches_mpmath(self):
        # z'' + a z' + (a^2/4) z has the double root -a/2 for every a, where
        # a solve through the roots meets a singular Vandermonde matrix
        grid = TimeGrid(0.0, 1.0, 4)
        for a in np.linspace(0.1, 20.0, 400):
            coeffs = (1.0, float(a), float(a) ** 2 / 4.0)
            got = self.flow(coeffs, [1.0, 0.0], grid).values
            exact = ode_flow(coeffs, [1.0, 0.0], grid.nodes, digits=30)
            sup = np.max(np.abs(exact), axis=0)
            assert np.all(np.max(np.abs(got - exact), axis=0) <= 1e-13 * sup), a

    @pytest.mark.parametrize("coeffs, init", [
        ((1.0, -49.67, 450.7), [-5e-324, -5e-324]),  # was z = 0 throughout
        ((1.0, -27.10, -461.3), [0.0, 3e-322]),  # was 17% off
    ])
    def test_subnormal_data_match_mpmath(self, coeffs, init):
        # the modes grow from subnormal data into the normal range; the
        # reference is summed in mpmath, where the data are no longer subnormal
        mp = pytest.importorskip("mpmath").mp
        grid = TimeGrid(0.0, 1.0, 200)
        traj = self.flow(coeffs, init, grid)
        with mp.workdps(50):
            roots = mp.polyroots(coeffs)
            c = mp.lu_solve(mp.matrix([[p**i for p in roots] for i in range(len(roots))]),
                            mp.matrix(init))
            exact = np.array([[float(mp.re(sum(c[k] * roots[k]**m * mp.exp(roots[k] * t)
                                                for k in range(len(roots)))))
                               for m in (0, 1)] for t in grid.nodes])
        sup = np.max(np.abs(exact), axis=0)
        assert np.all(sup > 1e-308)
        assert np.all(np.max(np.abs(traj.values - exact), axis=0) <= 1e-12 * sup)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-20000, 20000).map(lambda i: i / 1000), min_size=1, max_size=3),
           st.lists(st.integers(-1000, 1000).map(lambda i: i / 1000), min_size=3, max_size=3),
           st.integers(-600, 600))
    def test_power_of_two_data_scale_z_exactly(self, lower, init, k):
        # data and z stay in the normal range, where scaling by 2**k is exact
        coeffs = (1.0, *lower)
        init = init[:len(lower)]
        grid = TimeGrid(0.0, 1.0, 16)
        base = self.flow(coeffs, init, grid).values
        assume(np.all(np.isfinite(base)))
        scaled = self.flow(coeffs, [math.ldexp(x, k) for x in init], grid).values
        assert np.array_equal(scaled, np.ldexp(base, k))


class TestRk4:
    def test_zero_field_constant(self):
        traj = rk4_integrate(lambda t, x: 0.0 * x, [5.0], TimeGrid(0.0, 3.0, 30))
        assert np.all(traj.values == 5.0)

    def test_exponential_accuracy(self):
        traj = rk4_integrate(lambda t, x: x, [1.0], TimeGrid(0.0, 1.0, 1000))
        assert abs(traj.values[-1, 0] - math.e) < 1e-10

    def test_corrected_growth_reaches_four(self):
        sigma = 0.05
        traj = rk4_integrate(
            lambda t, x: (2 * sigma / (1 - sigma * t)) * x,
            [1.0],
            TimeGrid(0.0, 10.0, 1000),
        )
        assert traj.values[-1, 0] == pytest.approx(4.0, abs=1e-6)

    def test_step_halving_improves_by_at_least_12(self):
        def err(steps: int) -> float:
            grid = TimeGrid(0.0, 1.0, steps)
            traj = rk4_integrate(lambda t, x: x, [1.0], grid)
            return float(np.max(np.abs(traj.values[:, 0] - np.exp(grid.nodes))))

        assert err(50) / err(100) >= 12.0

    def test_blow_up_carries_last_valid_node(self):
        # xdot = x^2 from x(0) = 1 has a pole at t = 1
        with pytest.raises(BlowUpError) as exc_info, np.errstate(over="ignore"):
            rk4_integrate(lambda t, x: x**2, [1.0], TimeGrid(0.0, 2.0, 100))
        err = exc_info.value
        assert 0.0 < err.t_last < 2.0
        assert np.isfinite(err.x_last).all()

    def test_vector_system(self):
        # harmonic oscillator: energy preserved to integrator accuracy
        traj = rk4_integrate(
            lambda t, x: np.array([x[1], -x[0]]), [1.0, 0.0], TimeGrid(0.0, 2 * math.pi, 2000)
        )
        assert traj.values[-1, 0] == pytest.approx(1.0, abs=1e-9)
        assert traj.values[-1, 1] == pytest.approx(0.0, abs=1e-9)


FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def linear_systems(draw):
    """x' = M x + c(t), d <= 6, with ||hM||_1 up to 6 so that the squarings
    run, and c none, constant or quadratic in t.  ||t_end M||_1 <= 12 keeps
    scipy's expm itself within about 1e-13 (at 36 it was 7e-13 off)."""
    d = draw(st.integers(1, 6))
    entries = st.floats(-1.0, 1.0, **FINITE)
    scale = draw(st.floats(0.1, 1.0, **FINITE))
    M = scale * np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    x0 = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    degree = draw(st.sampled_from([None, 0, 2]))  # None: no forcing
    coeffs = [np.array(draw(st.lists(entries, min_size=d, max_size=d)))
              for _ in range(0 if degree is None else degree + 1)]
    t_end = draw(st.floats(0.1, 2.0, **FINITE))
    steps = draw(st.integers(1, 60))
    return M, x0, degree, coeffs, TimeGrid(0.0, t_end, steps)


class TestLinearFlow:
    @settings(max_examples=60, deadline=None)
    @given(system=linear_systems())
    def test_matches_expm_of_the_augmented_system(self, system):
        # a constant forcing and a forcing quadratic in t are both integrated
        # exactly, so only rounding separates the flow from expm
        M, x0, degree, coeffs, grid = system
        if degree is None:
            forcing = None
        elif degree == 0:
            forcing = coeffs[0]
        else:
            def forcing(ts):
                return sum(np.outer(ts**j, c) for j, c in enumerate(coeffs))
        got = linear_flow(M, x0, grid, forcing=forcing)
        ref = augmented_flow(M, x0, coeffs, grid.nodes)
        assert got.labels == (("x",) if len(x0) == 1 else tuple(f"x{i}" for i in range(len(x0))))
        assert sup_rel_diff(ref, got.values) <= 1e-12

    @pytest.mark.parametrize("quadratic", [False, True])
    def test_squarings_run_at_large_steps(self, quadratic):
        # ||hM||_1 = 6.6 and 66: four and eight squarings of the scaled Taylor
        # sums, of phi_1 alone for a constant forcing and of phi_1..phi_3 for
        # a quadratic one; scipy's expm is 2e-14 off at 66, so mpmath is the
        # reference
        M = np.array([[0.0, 10.0], [-10.0, -1.0]])
        coeffs = [np.array([3.0, 1.0])] + quadratic * [np.array([0.5, -1.0]),
                                                       np.array([-0.2, 0.1])]
        if quadratic:
            def forcing(ts):
                return sum(np.outer(ts**j, c) for j, c in enumerate(coeffs))
        else:
            forcing = coeffs[0]
        for grid in (TimeGrid(0.0, 3.0, 5), TimeGrid(0.0, 30.0, 5)):
            got = linear_flow(M, [1.0, -2.0], grid, forcing=forcing)
            ref = augmented_flow(M, np.array([1.0, -2.0]), coeffs, grid.nodes, digits=40)
            assert sup_rel_diff(ref, got.values) <= 1e-12

    def test_sine_forcing_converges_at_fourth_order(self):
        # x' = M x + v sin(w t): the quadratic through a step's three samples
        # leaves an O(h^5) local error, so each halving of h cuts the global
        # error about 16-fold
        M = np.array([[-0.5, 1.0], [-1.0, -0.2]])
        v, w = np.array([1.0, 2.0]), 3.0
        big = np.zeros((4, 4))
        big[:2, :2] = M
        big[:2, 2] = v
        big[2, 3], big[3, 2] = w, -w  # (sin, cos)' = (w cos, -w sin)
        errors = []
        for steps in (10, 20, 40, 80):
            grid = TimeGrid(0.0, 2.0, steps)
            got = linear_flow(M, [1.0, 0.0], grid,
                              forcing=lambda ts: np.outer(np.sin(w * ts), v))
            ref = np.array([(expm(t * big) @ [1.0, 0.0, 0.0, 1.0])[:2] for t in grid.nodes])
            errors.append(float(np.max(np.abs(got.values - ref))))
        ratios = [a / b for a, b in zip(errors, errors[1:])]
        assert all(r >= 14.0 for r in ratios), ratios

    def test_zero_matrix_adds_the_forcing_integral(self):
        traj = linear_flow(np.zeros((2, 2)), [1.0, 2.0], TimeGrid(0.0, 2.0, 8),
                           forcing=lambda ts: np.outer(ts, [1.0, 0.0]))
        assert np.allclose(traj.values[:, 0], 1.0 + 0.5 * traj.times**2, rtol=0.0, atol=1e-15)
        assert np.all(traj.values[:, 1] == 2.0)

    @pytest.mark.parametrize("forced", [False, True])
    def test_blow_up_carries_the_last_finite_node(self, forced):
        # x' = M x grows like 0.75 e^(100 t) and leaves the float range in
        # step 72 at h = 0.1; the last finite node is still the exact flow
        # (mpmath: scipy's expm at ||tM||_1 = 710 is 8e-12 off)
        grid = TimeGrid(0.0, 20.0, 200)
        M = np.array([[0.0, 100.0], [100.0, 0.0]])
        c = np.array([1.0, 2.0])
        forcing = (lambda ts: np.outer(ts, c)) if forced else None
        with pytest.raises(BlowUpError, match="^integration blew up between t=") as exc_info:
            linear_flow(M, [1.0, 0.5], grid, forcing=forcing)
        err = exc_info.value
        assert err.index_last == 71
        assert err.t_last == grid.nodes[71]
        ref = augmented_flow(M, np.array([1.0, 0.5]), [np.zeros(2), c] if forced else [],
                             [err.t_last], digits=40)[0]
        assert sup_rel_diff(ref, err.x_last) <= 1e-12

    def test_subnormal_data_keep_their_bits_through_large_growth(self):
        # the long-wave matrix at p = 0.11, r = 0.5 grows x0 = 3e-320 to about
        # 3e19 by t = 4000, a growth of 2^1120 that the data march through
        # scaled; unscaled, they lose bits before the mode grows (6e-6 off).
        # 400 steps of the growing mode round to 2.1e-12 of sup, as they do
        # from x0 = 1e-300
        M = np.array([[-0.11, 0.11], [-1.0, 0.5]])
        grid = TimeGrid(0.0, 4000.0, 400)
        got = linear_flow(M, [3e-320, 0.0], grid).values[::40]
        exact = flow(M, [3e-320, 0.0], grid.nodes[::40], digits=40)
        assert np.max(np.abs(exact)) > 1e19
        sup = np.max(np.abs(exact), axis=0)
        assert np.all(np.max(np.abs(got - exact), axis=0) <= 1e-11 * sup)

    def test_rejects_bad_arguments(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValidationError, match="^coefficient matrix must be 3x3"):
            linear_flow(np.eye(2), [1.0, 0.0, 0.0], grid)
        with pytest.raises(ValidationError, match="^coefficient matrix must be 1x1"):
            linear_flow(1.0, [1.0], grid)
        # a forcing drives 1 to d leading components, d named in the message
        for c in ([], [1.0, 2.0, 3.0], [[1.0], [2.0]]):
            with pytest.raises(ValidationError, match="^constant forcing must have 1 to 2 "):
                linear_flow(np.eye(2), [1.0, 0.0], grid, forcing=c)
        for shape in (lambda m: (m, 0), lambda m: (m, 3), lambda m: (m - 1, 2), lambda m: (m,)):
            with pytest.raises(ValidationError,
                               match="^forcing must return one row of 1 to 2 components per"):
                linear_flow(np.eye(2), [1.0, 0.0], grid,
                            forcing=lambda ts, shape=shape: np.ones(shape(len(ts))))

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("sampled", [False, True])
    def test_narrow_forcing_drives_the_leading_components(self, width, sampled):
        # a forcing of width k < d is the forcing of width d with zeros after
        # its k components
        rng = np.random.default_rng(7)
        d = 4
        M = rng.uniform(-1.0, 1.0, (d, d))
        x0 = rng.uniform(-1.0, 1.0, d)
        coeffs = [rng.uniform(-1.0, 1.0, width) for _ in range(3 if sampled else 1)]
        if sampled:
            def forcing(ts):
                return sum(np.outer(ts**j, c) for j, c in enumerate(coeffs))
        else:
            forcing = coeffs[0]
        grid = TimeGrid(0.0, 1.5, 30)
        got = linear_flow(M, x0, grid, forcing=forcing)
        ref = augmented_flow(M, x0, [np.pad(c, (0, d - width)) for c in coeffs], grid.nodes)
        assert sup_rel_diff(ref, got.values) <= 1e-13

    def test_volterra_forcing_reaches_the_flow_at_its_own_width(self, monkeypatch):
        # the moment system of n = 3 blocks of d = 50 components takes the
        # sampled f as it is, 50 columns, not 150 with the lower blocks padded
        widths = []
        forcing_terms = odelin._forcing_terms

        def spy(forcing, *args):
            def sampled(ts):
                c = forcing(ts)
                widths.append(np.shape(c))
                return c
            return forcing_terms(sampled, *args)

        monkeypatch.setattr(odelin, "_forcing_terms", spy)
        rng = np.random.default_rng(3)
        d, grid = 50, TimeGrid(0.0, 1.0, 20)
        K = rng.uniform(-0.1, 0.1, (3, d, d))
        _volterra_nodes(K, lambda t: np.outer(1.0 + t, np.ones(d)), np.ones((3, d)), grid,
                        "march")
        model = LeontiefModel(A=random_metzler(rng, d), demand=lambda t: np.full(d, 1.0 + t),
                              X0=np.ones(d), Xdot0=np.zeros(d), order=2)
        dynamic_solve(model, steps=20)
        assert widths == [(41, d), (41, d)]


class TestVolterraNodes:
    """The moment flow of phi = q + int_0^t sum_m K_m (t - eta)^m/m! phi."""

    def test_recovers_the_exponential(self):
        # phi = 1 + int_0^t phi: phi = e^t and z = J_1[phi] = e^t - 1
        grid = TimeGrid(0.0, 1.0, 200)
        z, phi = _volterra_nodes(np.ones((1, 1, 1)), lambda t: np.ones(len(t)), [0.0], grid,
                                 "march")
        t = grid.nodes
        assert np.max(np.abs(phi[:, 0] - np.exp(t))) <= 1e-15 * math.e
        assert np.max(np.abs(z[:, 0] - np.expm1(t))) <= 1e-15 * math.e

    @pytest.mark.parametrize("K0", [[[2.0]], [[2.0, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]]],
                             ids=["scalar", "diagonal", "rank-one"])
    @pytest.mark.parametrize("steps", [1, 3])
    def test_step_where_i_minus_half_h_k0_is_singular_answers(self, K0, steps):
        # I - (h/2) K_0 is singular at h = 1 in each case, which would stop
        # an implicit trapezoid step; the flow of z' = K_0 z has no such matrix
        K0 = np.array(K0)
        c = np.linspace(1.0, 0.5, K0.shape[0])
        grid = TimeGrid(0.0, 1.0, steps)
        z, phi = _volterra_nodes(K0[None], None, c[None], grid, "march")
        want = flow(K0, c, grid.nodes, digits=40)
        assert sup_rel_diff(want, z) <= 1e-14
        assert sup_rel_diff(want @ K0.T, phi) <= 1e-14
