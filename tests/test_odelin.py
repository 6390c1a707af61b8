import cmath
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecodyn.errors import BlowUpError, UnsupportedError, ValidationError
from ecodyn.odelin import (
    OdeSpec,
    TimeGrid,
    Trajectory,
    _volterra_trapezoid,
    analytic_solution,
    char_roots,
    rk4_linear,
    sup_rel_diff,
)
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


class TestAnalyticSolution:
    def test_exponential(self):
        traj = analytic_solution(OdeSpec((1.0, -1.0)), [1.0], TimeGrid(0.0, 1.0, 10))
        assert traj.values[-1, 0] == pytest.approx(math.e, rel=1e-12)

    def test_cosine_at_pi(self):
        traj = analytic_solution(
            OdeSpec((1.0, 0.0, 1.0)), [1.0, 0.0], TimeGrid(0.0, math.pi, 64)
        )
        assert traj.values[-1, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_rk4_on_damped_oscillator(self):
        # a = 2.1, b = 2.4: the numerical integration is the oracle
        spec = OdeSpec((1.0, 2.1, 2.4))
        grid = TimeGrid(0.0, 1.0, 1000)
        exact = analytic_solution(spec, [1.0, 0.0], grid)
        numeric = rk4_integrate(
            lambda t, x: np.array([x[1], -2.1 * x[1] - 2.4 * x[0]]), [1.0, 0.0], grid
        )
        assert sup_rel_diff(exact.values[:, 0], numeric.values[:, 0]) < 1e-6

    def test_derivative_columns(self):
        traj = analytic_solution(
            OdeSpec((1.0, 0.0, 1.0)), [1.0, 0.0], TimeGrid(0.0, 1.0, 50), derivatives=1
        )
        assert traj.labels == ("z", "z_d1")
        t = traj.times
        assert np.allclose(traj.values[:, 1], -np.sin(t), atol=1e-12)

    def test_repeated_roots_rejected(self):
        with pytest.raises(UnsupportedError):
            analytic_solution(OdeSpec((1.0, 2.0, 1.0)), [1.0, 0.0], TimeGrid(0.0, 1.0, 4))

    def test_critical_damping_sweep_fails_one_way(self):
        # z'' + a z' + (a^2/4) z has the double root -a/2 for every a; the
        # computed roots split by up to ~4e-8 relative, whatever a is
        grid = TimeGrid(0.0, 1.0, 10)
        for a in np.linspace(0.1, 20.0, 400):
            spec = OdeSpec((1.0, float(a), float(a) ** 2 / 4.0))
            with pytest.raises(UnsupportedError):
                analytic_solution(spec, [1.0, 0.0], grid)
            assert [m for _, m in char_roots(spec)] == [2]

    def test_triple_root_sweep_fails_one_way(self):
        # (p + a)^3 has the triple root -a; the computed roots split by up to
        # ~1.2e-5 relative (about eps^(1/3)), whatever a is
        grid = TimeGrid(0.0, 1.0, 10)
        for a in np.linspace(0.1, 20.0, 100):
            a = float(a)
            spec = OdeSpec((1.0, 3.0 * a, 3.0 * a**2, a**3))
            with pytest.raises(UnsupportedError):
                analytic_solution(spec, [1.0, 0.0, 0.0], grid)
            assert [m for _, m in char_roots(spec)] == [3]

    def test_forced_spec_rejected(self):
        spec = OdeSpec((1.0, 1.0), forcing=lambda t: 1.0)
        with pytest.raises(UnsupportedError):
            analytic_solution(spec, [0.0], TimeGrid(0.0, 1.0, 4))

    def test_agreement_with_rk4_on_random_specs(self, rng):
        # orders <= 3, simple moderate roots, horizon <= 2
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
            poly = np.poly(np.array(roots))
            spec = OdeSpec(tuple(poly.real))
            if any(m > 1 for _, m in char_roots(spec)):
                continue
            init = list(rng.uniform(-1.0, 1.0, order))
            grid = TimeGrid(0.0, 2.0, 2000)
            exact = analytic_solution(spec, init, grid)

            def rhs(t, x, a=spec.normalized(), n=order):
                dx = np.empty(n)
                dx[:-1] = x[1:]
                dx[-1] = -sum(a[k] * x[k] for k in range(n))
                return dx

            numeric = rk4_integrate(rhs, init, grid)
            assert sup_rel_diff(exact.values[:, 0], numeric.values[:, 0]) < 1e-5


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
def constant_systems(draw):
    """x' = M x + a + b t with |M_ij| <= 1, d <= 4, and h*|M| <= 0.4."""
    d = draw(st.integers(1, 4))
    entries = st.floats(-1.0, 1.0, **FINITE)
    M = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    x0 = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    affine = draw(st.booleans())
    a = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    b = np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    t_end = draw(st.floats(0.1, 2.0, **FINITE))
    steps = draw(st.integers(20, 2000))
    return M, x0, (a, b) if affine else None, TimeGrid(0.0, t_end, steps)


class TestRk4Linear:
    @settings(max_examples=25, deadline=None)
    @given(system=constant_systems(), substeps=st.integers(1, 4))
    def test_constant_matrix_matches_rk4_integrate(self, system, substeps):
        M, x0, affine, grid = system
        if affine is None:
            ref = rk4_integrate(lambda t, x: M @ x, x0, grid, substeps=substeps)
            got = rk4_linear(M, x0, grid, substeps=substeps)
        else:
            a, b = affine
            ref = rk4_integrate(lambda t, x: M @ x + a + b * t, x0, grid, substeps=substeps)
            got = rk4_linear(M, x0, grid, forcing=lambda ts: a + np.outer(ts, b),
                             substeps=substeps)
        assert got.labels == ref.labels
        assert sup_rel_diff(ref.values, got.values) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(-2.0, 2.0, **FINITE),
        beta=st.floats(-1.0, 1.0, **FINITE),
        omega=st.floats(0.0, 5.0, **FINITE),
        x0=st.floats(0.1, 2.0, **FINITE),
        t_end=st.floats(0.1, 3.0, **FINITE),
        steps=st.integers(20, 2000),
        substeps=st.integers(1, 4),
    )
    def test_time_varying_rate_matches_rk4_integrate(
        self, alpha, beta, omega, x0, t_end, steps, substeps
    ):
        grid = TimeGrid(0.0, t_end, steps)
        ref = rk4_integrate(
            lambda t, x: (alpha + beta * math.sin(omega * t)) * x, [x0], grid, substeps=substeps
        )
        got = rk4_linear(lambda t: alpha + beta * np.sin(omega * t), [x0], grid,
                         substeps=substeps)
        assert sup_rel_diff(ref.values, got.values) <= 1e-12

    @pytest.mark.parametrize("substeps", [1, 3])
    def test_constant_forcing_matches_rk4_integrate(self, substeps):
        M = np.array([[-1.0, 0.5], [0.2, -0.3]])
        c = np.array([1.0, -2.0])
        grid = TimeGrid(0.0, 2.0, 300)
        ref = rk4_integrate(lambda t, x: M @ x + c, [1.0, 0.5], grid, substeps=substeps)
        got = rk4_linear(M, [1.0, 0.5], grid, forcing=c, substeps=substeps)
        assert sup_rel_diff(ref.values, got.values) <= 1e-12

    def test_constant_scalar_rate(self):
        traj = rk4_linear(1.0, [1.0], TimeGrid(0.0, 1.0, 1000))
        assert traj.labels == ("x",)
        assert abs(traj.values[-1, 0] - math.e) < 1e-10

    @pytest.mark.parametrize("case", ["scalar", "rate", "matrix", "forced"])
    def test_blow_up_matches_rk4_integrate(self, case):
        # x' = 100 x (or its 2x2 analogue) at h = 0.1 overflows in step 110
        grid = TimeGrid(0.0, 20.0, 200)
        M = np.array([[0.0, 100.0], [100.0, 0.0]])
        c = np.array([1.0, 2.0])
        coeff, rhs, x0, forcing = {
            "scalar": (100.0, lambda t, x: 100.0 * x, [1.0], None),
            "rate": (lambda t: 100.0 + 0.0 * t, lambda t, x: 100.0 * x, [1.0], None),
            "matrix": (M, lambda t, x: M @ x, [1.0, 0.5], None),
            "forced": (M, lambda t, x: M @ x + c * t, [1.0, 0.5],
                       lambda ts: np.outer(ts, c)),
        }[case]
        errors = []
        with np.errstate(over="ignore", invalid="ignore"):
            for run in (lambda: rk4_integrate(rhs, x0, grid),
                        lambda: rk4_linear(coeff, x0, grid, forcing=forcing)):
                with pytest.raises(BlowUpError) as exc_info:
                    run()
                errors.append(exc_info.value)
        ref, got = errors
        assert got.index_last == ref.index_last == 109
        assert got.t_last == ref.t_last
        assert sup_rel_diff(ref.x_last, got.x_last) <= 1e-12

    def test_rejects_bad_arguments(self):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValidationError):
            rk4_linear(1.0, [1.0], grid, substeps=0)
        with pytest.raises(ValidationError):
            rk4_linear(np.eye(2), [1.0, 0.0, 0.0], grid)
        with pytest.raises(ValidationError):
            rk4_linear(lambda t: t, [1.0, 0.0], grid)
        with pytest.raises(ValidationError):
            rk4_linear(np.eye(2), [1.0, 0.0], grid, forcing=[1.0])
        with pytest.raises(ValidationError):
            rk4_linear(np.eye(2), [1.0, 0.0], grid, forcing=lambda ts: np.ones((len(ts), 3)))

    @pytest.mark.parametrize("substeps", [0, -3])
    def test_substeps_below_one_is_keyed_substeps(self, substeps):
        with pytest.raises(ValidationError, match="^substeps must be positive$") as info:
            rk4_linear(1.0, [1.0], TimeGrid(0.0, 1.0, 10), substeps=substeps)
        assert info.value.key == "substeps"


def trapezoid_reference(K, q, h):
    """phi and J_(p+1)[phi] of phi = q + int_0^t sum_m K_m (t-eta)^m/m! phi
    by the trapezoidal rule, one node at a time over the whole history."""
    p1, d = K.shape[0], K.shape[1]
    N = q.shape[0] - 1

    def kappa(s):
        return sum(K[m] * s**m / math.factorial(m) for m in range(p1))

    phi = np.empty_like(q)
    J = np.zeros_like(q)
    phi[0] = q[0]
    lhs = np.eye(d) - (0.5 * h) * K[0]
    for k in range(1, N + 1):
        w = np.full(k, h)
        w[0] = 0.5 * h
        rhs = q[k] + sum(w[j] * kappa((k - j) * h) @ phi[j] for j in range(k))
        phi[k] = np.linalg.solve(lhs, rhs)
        w = np.append(w, 0.5 * h)
        lag = (k - np.arange(k + 1)) * h
        J[k] = (w * lag ** (p1 - 1) / math.factorial(p1 - 1)) @ phi[: k + 1]
    return phi, J


class TestVolterraTrapezoid:
    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 3),
        p1=st.integers(1, 4),
        steps=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_node_by_node_march(self, d, p1, steps, seed):
        rng = np.random.default_rng(seed)
        K = rng.uniform(-2.0, 2.0, (p1, d, d))
        q = rng.uniform(-1.0, 1.0, (steps + 1, d))
        h = 1.0 / steps
        # a near-singular implicit step would measure its condition number
        assume(np.linalg.cond(np.eye(d) - (0.5 * h) * K[0]) < 1e3)
        phi, J = _volterra_trapezoid(K, q, h)
        want_phi, want_J = trapezoid_reference(K, q, h)
        for got, want in ((phi, want_phi), (J, want_J)):
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)

    def test_recovers_the_exponential(self):
        # phi = 1 + int_0^t phi: phi = exp(t), J_1 = exp(t) - 1
        t = np.linspace(0.0, 1.0, 201)
        phi, J = _volterra_trapezoid(np.ones((1, 1, 1)), np.ones((201, 1)), 1.0 / 200)
        assert np.max(np.abs(phi[:, 0] - np.exp(t))) < 1e-4
        assert np.max(np.abs(J[:, 0] - (np.exp(t) - 1.0))) < 1e-4
