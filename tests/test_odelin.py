import cmath
import math

import numpy as np
import pytest

from ecodyn.errors import BlowUpError, UnsupportedError, ValidationError
from ecodyn.odelin import (
    OdeSpec,
    TimeGrid,
    Trajectory,
    analytic_solution,
    char_roots,
    rk4_integrate,
    sup_rel_diff,
)


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
