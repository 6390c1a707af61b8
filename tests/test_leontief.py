import numpy as np
import pytest

from conftest import random_metzler
from ecodyn.odelin import TimeGrid, rk4_integrate, sup_rel_diff
from ecodyn.errors import (
    DegenerateDataError,
    NonConvergenceError,
    ResolutionError,
    SingularMatrixError,
    ValidationError,
)
from ecodyn.leontief import (
    LeontiefModel,
    demand_scale,
    dynamic_solve,
    metzler_check,
    static_solve,
    taylor_reduce,
    volterra_solve,
)

A22 = np.array([[0.2, 0.3], [0.1, 0.4]])


class TestMetzler:
    def test_zero_matrix_holds(self):
        rep = metzler_check(np.zeros((3, 3)))
        assert rep.holds
        assert rep.strict_row_exists

    def test_worked_instance(self):
        rep = metzler_check(A22)
        assert rep.holds
        assert rep.row_sums == pytest.approx((0.5, 0.5))

    def test_violating_row_reported(self):
        A = np.array([[0.5, 0.7], [0.1, 0.2]])
        rep = metzler_check(A)
        assert not rep.holds
        assert rep.offending_rows == (0,)

    def test_all_rows_exactly_one_fails_strictness(self):
        A = np.array([[0.5, 0.5], [0.5, 0.5]])
        rep = metzler_check(A)
        assert not rep.holds
        assert not rep.strict_row_exists

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            metzler_check(np.array([[0.1, -0.2], [0.0, 0.3]]))


class TestStatic:
    def test_identity_balance(self):
        X, _ = static_solve(np.zeros((2, 2)), [3.0, 4.0])
        assert np.allclose(X, [3.0, 4.0])

    def test_hand_inversion_oracle(self):
        # (E - A)^-1 c computed by the 2x2 adjugate formula
        X, _ = static_solve(A22, [10.0, 20.0])
        det = 0.8 * 0.6 - 0.3 * 0.1
        expected = np.array([0.6 * 10 + 0.3 * 20, 0.1 * 10 + 0.8 * 20]) / det
        assert np.allclose(X, expected, rtol=1e-12)
        assert X[0] == pytest.approx(80.0 / 3.0, abs=1e-10)
        assert X[1] == pytest.approx(340.0 / 9.0, abs=1e-10)

    def test_direct_residual_small_instances(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 33))
            A = random_metzler(rng, n)
            c = rng.uniform(0.1, 5.0, n)
            X, _ = static_solve(A, c)
            resid = np.max(np.abs(X - A @ X - c))
            assert resid <= 1e-10 * np.max(np.abs(c))

    def test_iterate_matches_direct(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            A = random_metzler(rng, n)
            c = rng.uniform(0.1, 5.0, n)
            X_direct, _ = static_solve(A, c)
            X_iter, log = static_solve(A, c, method="iterate", tol=1e-12)
            assert np.max(np.abs(X_direct - X_iter)) < 1e-8
            assert log is not None and log.iterates >= 1

    def test_iteration_contracts_at_row_sum_rate(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 9))
            A = random_metzler(rng, n)
            rate_bound = float(np.max(A.sum(axis=1))) + 0.05
            _, log = static_solve(A, rng.uniform(0.5, 2.0, n), method="iterate", tol=1e-11)
            hist = log.residual_history
            for s in range(5, len(hist) - 1):
                if hist[s] < 1e-13:
                    break
                assert hist[s + 1] / hist[s] <= rate_bound

    def test_residuals_monotone_nonincreasing(self, rng):
        A = random_metzler(rng, 5)
        _, log = static_solve(A, np.ones(5), method="iterate", tol=1e-12)
        hist = log.residual_history
        assert all(b <= a * (1 + 1e-12) for a, b in zip(hist[1:], hist[2:]))

    def test_iterate_requires_metzler(self):
        A = np.array([[0.9, 0.9], [0.1, 0.1]])
        with pytest.raises(ValidationError):
            static_solve(A, [1.0, 1.0], method="iterate")

    def test_non_convergence_carries_log(self):
        with pytest.raises(NonConvergenceError) as exc_info:
            static_solve(A22, [10.0, 20.0], method="iterate", tol=1e-14, max_iter=3)
        assert exc_info.value.log.iterates == 3

    def test_singular_balance_rejected(self):
        # row sum exactly 1 in every row makes E - A singular
        A = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(SingularMatrixError):
            static_solve(A, [1.0, 1.0], method="direct")


class TestTaylorReduce:
    def test_one_term(self):
        model = LeontiefModel(A=A22, demand=[1.0, 1.0], X0=[0.0, 0.0], order=1)
        red = taylor_reduce(model)
        assert red.derivative_coeffs == (1.0,)
        assert np.allclose(red.B, np.eye(2) - A22)

    def test_two_terms(self):
        model = LeontiefModel(A=A22, demand=[1.0, 1.0], X0=[0.0, 0.0], order=2)
        red = taylor_reduce(model)
        assert red.derivative_coeffs == (1.0, 0.5)
        assert "0.5*X''" in red.render()

    def test_three_terms_factorials(self):
        model = LeontiefModel(A=A22, demand=[1.0, 1.0], X0=[0.0, 0.0], order=3)
        red = taylor_reduce(model)
        assert red.derivative_coeffs == pytest.approx((1.0, 0.5, 1.0 / 6.0))


class TestDynamic:
    def test_zero_everything_stays_zero(self):
        model = LeontiefModel(
            A=A22, demand=[0.0, 0.0], X0=[0.0, 0.0], Xdot0=[0.0, 0.0], order=2
        )
        traj = dynamic_solve(model)
        assert np.all(traj.values == 0.0)

    def test_scalar_steady_state_exact(self):
        # B = 0.5, C = 1: steady state C/B = 2, starting there stays there
        model = LeontiefModel(A=np.array([[0.5]]), demand=[1.0], X0=[2.0], order=1)
        traj = dynamic_solve(model)
        assert np.all(np.abs(traj.values - 2.0) < 1e-13)

    def test_order_one_approaches_static_solution(self, rng):
        A = random_metzler(rng, 3)
        c = rng.uniform(0.5, 2.0, 3)
        X_static, _ = static_solve(A, c)
        model = LeontiefModel(A=A, demand=c, X0=np.zeros(3), order=1)
        traj = dynamic_solve(model)
        d0 = np.linalg.norm(traj.values[0] - X_static)
        d1 = np.linalg.norm(traj.values[-1] - X_static)
        assert d1 < d0

    def test_matches_volterra_on_random_instances(self, rng):
        for n in (2, 3):
            for _ in range(3):
                A = random_metzler(rng, n)
                c = rng.uniform(0.5, 2.0, n)
                model = LeontiefModel(
                    A=A,
                    demand=lambda t, _c=c: _c * (1.0 + 0.4 * np.sin(2 * np.pi * t)),
                    X0=rng.uniform(0.0, 1.0, n),
                    Xdot0=rng.uniform(-0.5, 0.5, n),
                    order=2,
                )
                d = dynamic_solve(model, steps=400)
                v = volterra_solve(model, steps=400)
                assert np.max(np.abs(d.values - v.values)) < 1e-4

    def test_affine_in_demand(self, rng):
        A = random_metzler(rng, 3)
        c1 = rng.uniform(0.2, 1.0, 3)
        c2 = rng.uniform(0.2, 1.0, 3)

        def solve_with(cvec):
            model = LeontiefModel(
                A=A, demand=cvec, X0=np.zeros(3), Xdot0=np.zeros(3), order=2
            )
            return dynamic_solve(model, steps=200).values

        combined = solve_with(c1 + c2)
        summed = solve_with(c1) + solve_with(c2)
        assert np.max(np.abs(combined - summed)) < 1e-9

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("constant", [True, False])
    def test_matches_rk4_integrate_of_the_balance(self, rng, order, constant):
        # reference: the stage-by-stage RK4 of Xd = C - B X, or of
        # (X, Xd)' = (Xd, 2 (C - Xd - B X)) for order 2
        n = 3
        A = random_metzler(rng, n)
        B = np.eye(n) - A
        c = rng.uniform(0.5, 2.0, n)
        demand = c if constant else (lambda t: c * (1.0 + 0.4 * np.sin(2 * np.pi * t)))
        model = LeontiefModel(A=A, demand=demand, X0=rng.uniform(0.0, 1.0, n),
                              Xdot0=rng.uniform(-0.5, 0.5, n), order=order)
        grid = TimeGrid(0.0, 1.0, 300)
        if order == 1:
            ref = rk4_integrate(lambda t, x: model.demand_at(t) - B @ x, model.X0, grid)
        else:
            ref = rk4_integrate(
                lambda t, s: np.concatenate(
                    [s[n:], 2.0 * (model.demand_at(t) - s[n:] - B @ s[:n])]),
                np.concatenate([model.X0, model.Xdot0]),
                grid,
            )
        got = dynamic_solve(model, steps=300)
        assert sup_rel_diff(ref.values[:, :n], got.values) <= 1e-12

    @pytest.mark.parametrize("order", [1, 2])
    def test_demand_sampled_once_per_stage_time(self, order):
        # steps + 1 nodes and steps midpoints, in increasing time
        times = []

        def demand(t):
            times.append(t)
            return np.array([1.0 + t, 2.0])

        model = LeontiefModel(A=A22, demand=demand, X0=[0.0, 0.0], Xdot0=[0.0, 0.0],
                              order=order)
        dynamic_solve(model, steps=10)
        assert len(times) == 21
        assert times == sorted(times)
        assert times[0::2] == pytest.approx(list(np.linspace(0.0, 1.0, 11)), abs=1e-15)

    def test_every_demand_sample_is_checked(self):
        model = LeontiefModel(A=A22, demand=lambda t: np.array([1.0, 0.5 - t]),
                              X0=[0.0, 0.0], order=1)
        with pytest.raises(ValidationError, match="negative component at t_bar = 0.55"):
            dynamic_solve(model, steps=10)

    def test_order_three_rejected(self):
        model = LeontiefModel(A=A22, demand=[1.0, 1.0], X0=[0.0, 0.0], order=3)
        with pytest.raises(ValidationError):
            dynamic_solve(model)

    def test_order_two_needs_xdot0(self):
        model = LeontiefModel(A=A22, demand=[1.0, 1.0], X0=[0.0, 0.0], order=2)
        with pytest.raises(ValidationError):
            dynamic_solve(model)


class TestVolterra:
    def test_zero_data_zero_solution(self):
        model = LeontiefModel(
            A=A22, demand=[0.0, 0.0], X0=[0.0, 0.0], Xdot0=[0.0, 0.0], order=2
        )
        traj = volterra_solve(model)
        assert np.all(traj.values == 0.0)

    def test_scalar_steady_state(self):
        model = LeontiefModel(A=np.array([[0.5]]), demand=[1.0], X0=[2.0], Xdot0=[0.0], order=2)
        traj = volterra_solve(model)
        assert np.max(np.abs(traj.values - 2.0)) < 1e-6

    def test_requires_order_two(self):
        model = LeontiefModel(A=A22, demand=[1.0, 1.0], X0=[0.0, 0.0], order=1)
        with pytest.raises(ValidationError):
            volterra_solve(model)

    def test_resolution_error_on_coarse_grid(self):
        model = LeontiefModel(
            A=A22,
            demand=lambda t: np.array([1.0 + np.sin(40 * np.pi * t), 1.0]),
            X0=[0.0, 0.0],
            Xdot0=[0.0, 0.0],
            order=2,
        )
        with pytest.raises(ResolutionError):
            volterra_solve(model, steps=12)
        # fine grid resolves the same demand
        volterra_solve(model, steps=800)


class TestDemandScale:
    def _model(self, rng):
        A = random_metzler(rng, 3)
        c = rng.uniform(0.5, 2.0, 3)
        return LeontiefModel(
            A=A, demand=c, X0=rng.uniform(0.0, 0.5, 3), Xdot0=np.zeros(3), order=2
        )

    @staticmethod
    def _aggregates(model):
        from ecodyn.leontief import _component_integrals

        zero = LeontiefModel(
            A=model.A,
            demand=lambda t: 0.0 * model.demand_fn(t),
            X0=model.X0,
            Xdot0=model.Xdot0,
            order=model.order,
        )
        base = _component_integrals(dynamic_solve(zero, steps=400))
        full = _component_integrals(dynamic_solve(model, steps=400))
        return base, full

    def test_full_demand_integral_gives_alpha_one(self, rng):
        model = self._model(rng)
        _, full = self._aggregates(model)
        rep = demand_scale(model, X_star=full)
        assert rep.alpha == pytest.approx(1.0, abs=1e-9)
        assert rep.feasible

    def test_midpoint_gives_alpha_half(self, rng):
        model = self._model(rng)
        base, full = self._aggregates(model)
        rep = demand_scale(model, X_star=(base + full) / 2.0)
        assert rep.alpha == pytest.approx(0.5, abs=1e-9)
        assert max(abs(r) for r in rep.per_component_residuals) < 1e-9

    def test_target_below_base_infeasible(self, rng):
        model = self._model(rng)
        base, _ = self._aggregates(model)
        rep = demand_scale(model, X_star=base - 1.0)
        assert not rep.feasible
        assert rep.alpha_raw < 0.0

    def test_zero_response_degenerate(self):
        model = LeontiefModel(
            A=A22, demand=[0.0, 0.0], X0=[1.0, 1.0], Xdot0=[0.0, 0.0], order=2
        )
        with pytest.raises(DegenerateDataError):
            demand_scale(model, X_star=[1.0, 1.0])


class TestModelValidation:
    def test_negative_entry_named(self):
        with pytest.raises(ValidationError):
            LeontiefModel(A=np.array([[0.1, -0.5], [0.0, 0.2]]), demand=[1.0, 1.0], X0=[0.0, 0.0])

    def test_demand_shape_checked(self):
        with pytest.raises(ValidationError):
            LeontiefModel(A=A22, demand=[1.0], X0=[0.0, 0.0])

    def test_demand_finite_checked(self):
        model = LeontiefModel(
            A=A22, demand=lambda t: np.array([np.inf, 1.0]), X0=[0.0, 0.0], order=1
        )
        with pytest.raises(ValidationError):
            dynamic_solve(model, steps=10)
