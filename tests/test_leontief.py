import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import augmented_flow, expm, random_metzler
from ecodyn.fredholm import ode_to_integral
from ecodyn.odelin import OdeSpec, TimeGrid, sup_rel_diff
from ecodyn.errors import (
    BlowUpError,
    EcodynError,
    NonConvergenceError,
    ResolutionError,
    SingularMatrixError,
    ValidationError,
)
from ecodyn.leontief import (
    LeontiefModel,
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

    @pytest.mark.filterwarnings("error")
    def test_huge_entries_are_not_taken_for_a_singular_matrix(self):
        # ||E - A||_F as a plain sum of squares overflows to inf, which puts
        # every pivot below the threshold 1e-12 * inf
        X, _ = static_solve(np.array([[1e300]]), [1.0])
        assert X[0] == pytest.approx(-1e-300, rel=1e-15)
        X, _ = static_solve(np.array([[1e200, 0.0], [0.0, 3e200]]), [1.0, 3.0])
        assert X == pytest.approx([-1e-200, -1e-200], rel=1e-15)

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
            assert log.iterates == len(log.residual_history)

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
        log = exc_info.value.log
        assert log.iterates == 3
        assert log.iterates == len(log.residual_history)

    @pytest.mark.parametrize("method", ["direct", "iterate"])
    @pytest.mark.parametrize("kwargs, message, key", [
        ({"max_iter": 0}, "max_iter must be positive", "max-iter"),
        ({"max_iter": -5}, "max_iter must be positive", "max-iter"),
        ({"tol": -1.0}, "tol must be nonnegative", "tol"),
        ({"tol": np.nan}, "tol must be finite, got nan", "tol"),
    ])
    def test_tolerance_and_budget_are_checked(self, method, kwargs, message, key):
        with pytest.raises(ValidationError) as exc_info:
            static_solve(A22, [1.0, 1.0], method=method, **kwargs)
        assert (str(exc_info.value), exc_info.value.key) == (message, key)

    def test_zero_tolerance_iterates_to_a_fixed_point(self):
        X, log = static_solve(A22, [1.0, 1.0], method="iterate", tol=0.0)
        assert log.residual_history[-1] == 0.0
        assert np.allclose(X, np.linalg.solve(np.eye(2) - A22, [1.0, 1.0]), rtol=1e-14)

    def test_singular_balance_rejected(self):
        # row sum exactly 1 in every row makes E - A singular
        A = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(SingularMatrixError):
            static_solve(A, [1.0, 1.0], method="direct")

    def test_identity_is_singular(self):
        # B = 0: the threshold 1e-12 * ||B|| is 0 too, so zero pivots count
        with pytest.raises(SingularMatrixError, match=r"^E - A is singular \(zero pivot\)$"):
            static_solve(np.eye(2), [1.0, 1.0], method="direct")

    def test_solver_failure_is_a_singular_matrix(self, monkeypatch):
        def failing(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing)
        with pytest.raises(SingularMatrixError, match="Singular matrix"):
            static_solve(A22, [1.0, 1.0], method="direct")

    @pytest.mark.parametrize("method", ["direct", "iterate"])
    def test_entries_must_be_finite(self, method):
        with pytest.raises(ValidationError) as exc_info:
            static_solve(np.array([[0.2, np.nan], [0.1, 0.4]]), [1.0, 1.0], method=method)
        assert exc_info.value.key == "matrix"
        with pytest.raises(ValidationError) as exc_info:
            static_solve(A22, [1.0, np.inf], method=method)
        assert exc_info.value.key == "demand"

    @pytest.mark.parametrize("method", ["direct", "iterate"])
    @pytest.mark.parametrize("A, message", [
        ([[0.1, -0.5], [0.0, 0.2]], "A[0,1] = -0.5 is negative"),
        ([[0.1, 0.2, 0.3], [0.0, 0.2, 0.1]], "A must be a square matrix"),
    ], ids=["negative", "not-square"])
    def test_matrix_rule_under_both_methods(self, method, A, message):
        with pytest.raises(ValidationError) as exc_info:
            static_solve(np.array(A), [1.0, 1.0], method=method)
        assert (str(exc_info.value), exc_info.value.key) == (message, "matrix")

    def test_matrix_checked_before_it_is_factored(self):
        # negative and singular: E - A = [[0, 1], [0, 1]]
        with pytest.raises(ValidationError, match=r"^A\[0,1\] = -1.0 is negative$"):
            static_solve(np.array([[1.0, -1.0], [0.0, 0.0]]), [1.0, 1.0], method="direct")


def balance_flow(model, c0, c1, times, digits=None):
    """X(t) of the order-1 or order-2 balance with demand c0 + c1 t, as
    ``expm`` of its first-order system augmented by the states t and 1."""
    n, order = model.n, model.order
    d = order * n
    M = np.zeros((d + 2, d + 2))
    M[:d - n, n:d] = np.eye(d - n)
    top = 1.0 if order == 1 else 2.0
    M[d - n:d, :n] = -top * model.B
    if order == 2:
        M[d - n:d, n:d] = -2.0 * np.eye(n)
    M[d - n:d, d] = top * c1
    M[d - n:d, d + 1] = top * c0
    M[d, d + 1] = 1.0  # t' = 1
    z0 = np.concatenate([model.X0, model.Xdot0, [0.0, 1.0]] if order == 2
                        else [model.X0, [0.0, 1.0]])
    return np.array([(expm(t * M, digits) @ z0)[:n] for t in times])


def scipy_direct(A, c):
    """The direct solve through scipy's LU: (X or None, rejection message or None)."""
    linalg = pytest.importorskip("scipy.linalg")
    B = np.eye(len(c)) - A
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", linalg.LinAlgWarning)
        lu, piv = linalg.lu_factor(B)
    pivots = np.abs(np.diag(lu))
    threshold = 1e-12 * np.linalg.norm(B)
    if np.any(pivots < threshold):
        return None, (f"E - A is numerically singular (pivot {pivots.min():.3e} below "
                      f"{threshold:.3e})")
    return linalg.lu_solve((lu, piv), c), None


def numpy_direct(A, c):
    try:
        return static_solve(A, c, method="direct")[0], None
    except SingularMatrixError as exc:
        return None, str(exc)


class TestDirectWithoutScipy:
    def test_matches_scipy_lu_on_random_metzler(self, rng):
        # X is LAPACK's getrf + getrs either way, but numpy and scipy may
        # bundle different OpenBLAS builds, which can round a solve apart
        for _ in range(60):
            n = int(rng.integers(2, 201))
            A, c = random_metzler(rng, n), rng.uniform(0.5, 1.5, n)
            (X, msg), (ref, ref_msg) = numpy_direct(A, c), scipy_direct(A, c)
            assert msg is None and ref_msg is None
            assert np.max(np.abs(X - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))

    def test_golden_system_bit_for_bit(self):
        A = np.loadtxt(Path(__file__).parent / "golden" / "leontief_matrix.txt",
                       delimiter=",", skiprows=1)
        c = np.array([0.5, 0.3, 0.2])
        X, ref = numpy_direct(A, c)[0], scipy_direct(A, c)[0]
        assert X.tolist() == ref.tolist()

    def test_rejects_as_scipy_does(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 201))
            A, c = random_metzler(rng, n), rng.uniform(0.5, 1.5, n)
            i = int(rng.integers(n))
            A[i] = 0.0
            A[i, i] = 1.0  # row i of E - A vanishes: an exact zero pivot
            assert numpy_direct(A, c) == scipy_direct(A, c)
            message = numpy_direct(A, c)[1]
            assert message.startswith("E - A is numerically singular (pivot 0.000e+00")
            # every row sum 1: singular up to rounding, the pivots are noise
            A = random_metzler(rng, n)
            A /= A.sum(axis=1, keepdims=True)
            assert numpy_direct(A, c)[1] is not None and scipy_direct(A, c)[1] is not None


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
                    demand=lambda ts, _c=c: np.outer(1.0 + 0.4 * np.sin(2 * np.pi * ts), _c),
                    X0=rng.uniform(0.0, 1.0, n),
                    Xdot0=rng.uniform(-0.5, 0.5, n),
                    order=2,
                )
                d = dynamic_solve(model, steps=400)
                v = volterra_solve(model, steps=400)
                # one system, one flow, one set of demand samples
                assert np.array_equal(d.values, v.values)

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

    @pytest.mark.parametrize("n", [3, 50])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("constant", [True, False])
    def test_matches_expm_of_the_balance(self, rng, n, order, constant):
        # a demand c0 + c1 t is integrated exactly, constant or sampled, so
        # only rounding separates the flow from expm of the balance
        A = random_metzler(rng, n)
        c0 = rng.uniform(0.5, 2.0, n)
        c1 = np.zeros(n) if constant else rng.uniform(-0.4, 0.4, n)
        demand = c0 if constant else (lambda ts: c0 + np.outer(ts, c1))
        model = LeontiefModel(A=A, demand=demand, X0=rng.uniform(0.0, 1.0, n),
                              Xdot0=rng.uniform(-0.5, 0.5, n), order=order)
        got = dynamic_solve(model, steps=300)
        ref = balance_flow(model, c0, c1, got.times)
        assert sup_rel_diff(ref, got.values) <= 1e-12

    @pytest.mark.parametrize("steps", [4, 20])
    def test_golden_matrix_order_two_matches_mpmath(self, steps):
        # RK4 was 2.9e-5 off at 4 steps and 4.2e-8 at 20
        A = np.loadtxt(Path(__file__).parent / "golden" / "leontief_matrix.txt", delimiter=",",
                       skiprows=1)
        model = LeontiefModel(A=A, demand=[0.5, 0.3, 0.2], X0=[1.0, 1.0, 1.0],
                              Xdot0=[0.0, 0.1, 0.0], order=2)
        got = dynamic_solve(model, steps=steps)
        ref = balance_flow(model, np.array([0.5, 0.3, 0.2]), np.zeros(3), got.times, digits=40)
        assert sup_rel_diff(ref, got.values) <= 1e-14

    @pytest.mark.parametrize("order", [1, 2])
    def test_demand_called_once_with_every_node_and_midpoint(self, order):
        # the 11 nodes and 10 midpoints of 10 steps, in one call, in increasing time
        calls = []

        def demand(ts):
            calls.append(ts.copy())
            return np.column_stack([1.0 + ts, np.full_like(ts, 2.0)])

        model = LeontiefModel(A=A22, demand=demand, X0=[0.0, 0.0], Xdot0=[0.0, 0.0],
                              order=order)
        dynamic_solve(model, steps=10)
        assert len(calls) == 1
        ts = calls[0]
        assert ts.shape == (21,) and np.all(np.diff(ts) > 0.0)
        assert ts[0::2].tolist() == np.linspace(0.0, 1.0, 11).tolist()
        assert ts[1::2] == pytest.approx(np.linspace(0.05, 0.95, 10), abs=1e-15)

    def test_every_demand_sample_is_checked(self):
        model = LeontiefModel(A=A22,
                              demand=lambda ts: np.column_stack([np.ones_like(ts), 0.5 - ts]),
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

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_is_keyed_order(self, order):
        with pytest.raises(ValidationError, match="^order must be positive$") as exc_info:
            LeontiefModel(A=A22, demand=[1.0, 1.0], X0=[0.0, 0.0], order=order)
        assert exc_info.value.key == "order"


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

    @pytest.mark.parametrize("steps", [10, 9])
    def test_demand_called_once_per_march(self, steps):
        # the march's 2 steps + 1 nodes and midpoints, then its rerun's at steps // 2
        calls = []

        def demand(ts):
            calls.append(ts.copy())
            return np.column_stack([1.0 + ts, np.full_like(ts, 2.0)])

        model = LeontiefModel(A=A22, demand=demand, X0=[0.0, 0.0], Xdot0=[0.0, 0.0], order=2)
        volterra_solve(model, steps=steps)
        assert [len(ts) for ts in calls] == [2 * steps + 1, 2 * (steps // 2) + 1]
        for ts, k in zip(calls, (steps, steps // 2)):
            assert ts[0::2].tolist() == np.linspace(0.0, 1.0, k + 1).tolist()
            assert np.all(np.diff(ts) > 0.0)

    @pytest.mark.parametrize("steps, bound", [(12, 0.07), (800, 3e-9)])
    def test_aliased_sine_demand_answers_within_its_drift_contract(self, steps, bound):
        # 20 periods of demand on 12 steps: the samples alias, and the
        # answer is 6.6% off while the drift from its 6-step rerun reads
        # 1.6%, inside the 10% bound; 800 steps resolve the demand
        w = 40.0 * np.pi
        model = LeontiefModel(A=A22,
                              demand=lambda ts: np.column_stack([1.0 + np.sin(w * ts),
                                                                 np.ones_like(ts)]),
                              X0=[0.0, 0.0], Xdot0=[0.0, 0.0], order=2)
        # (X, X', sin wt, cos wt, 1): the demand is part of the state
        M = np.zeros((7, 7))
        M[0:2, 2:4] = np.eye(2)
        M[2:4] = np.hstack([-2.0 * model.B, -2.0 * np.eye(2), [[2.0, 0.0, 2.0], [0.0, 0.0, 2.0]]])
        M[4, 5], M[5, 4] = w, -w
        y0 = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        step = expm(M / steps, 30)
        want = [y0]
        for _ in range(steps):
            want.append(step @ want[-1])
        got = volterra_solve(model, steps=steps).values
        assert sup_rel_diff(np.array(want)[:, :2], got) <= bound

    def test_aliased_demand_file_is_a_resolution_error(self):
        # a demand zigzag between 0 and 1 at every node of 4 steps: the rerun
        # on 2 steps sees a quadratic through 0, 1 and 0 on each of its steps
        nodes, zigzag = np.linspace(0.0, 1.0, 5), [0.0, 1.0, 0.0, 1.0, 0.0]
        model = LeontiefModel(A=A22,
                              demand=lambda ts: np.outer(np.interp(ts, nodes, zigzag), [1.0, 1.0]),
                              X0=[0.0, 0.0], Xdot0=[0.0, 0.0], order=2)
        with pytest.raises(ResolutionError,
                           match="^half-resolution drift 3.283e-01 exceeds 10%; refine the grid$"):
            volterra_solve(model, steps=4)


def stepwise_flow(model, nodes):
    """X of the order-2 balance at ``nodes`` for a demand linear between
    them: each step is ``expm`` of the system augmented by 1 and t."""
    n = model.n
    M = np.block([[np.zeros((n, n)), np.eye(n)], [-2.0 * model.B, -2.0 * np.eye(n)]])
    C = model.demand_samples(nodes)
    x = np.concatenate([model.X0, model.Xdot0])
    out = [x]
    for k in range(len(nodes) - 1):
        h = nodes[k + 1] - nodes[k]
        slope = (C[k + 1] - C[k]) / h
        terms = [np.concatenate([np.zeros(n), 2.0 * c]) for c in (C[k], slope)]
        x = augmented_flow(M, x, terms, [h], digits=30)[0]
        out.append(x)
    return np.array(out)[:, :n]


class TestMomentFlow:
    @pytest.mark.parametrize("n", [3, 50, 200])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(4, 400), constant=st.booleans())
    def test_matches_dynamic_solve(self, n, seed, steps, constant):
        # one system: the moments of U = X'' are the state of both routes,
        # stepped by the same flow on the same demand samples
        rng = np.random.default_rng(seed)
        c0, c1 = rng.uniform(0.5, 1.5, n), rng.uniform(-0.4, 0.4, n)
        demand = c0 if constant else (lambda ts: c0 + np.outer(ts, c1))
        model = LeontiefModel(A=random_metzler(rng, n), demand=demand,
                              X0=rng.uniform(0.5, 1.5, n), Xdot0=rng.uniform(-0.5, 0.5, n),
                              order=2)
        got = volterra_solve(model, steps=steps).values
        want = dynamic_solve(model, steps=steps).values
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("steps", [4, 9, 40])
    def test_grid_aligned_demand_file_is_exact(self, rng, steps):
        # a demand file is linear between the grid nodes, as the CLI reads it
        nodes = np.linspace(0.0, 1.0, steps + 1)
        table = rng.uniform(0.0, 2.0, (steps + 1, 3))
        model = LeontiefModel(
            A=random_metzler(rng, 3), X0=rng.uniform(0.5, 1.5, 3), Xdot0=rng.uniform(-0.5, 0.5, 3),
            demand=lambda ts: np.column_stack([np.interp(ts, nodes, col) for col in table.T]),
            order=2)
        got = volterra_solve(model, steps=steps).values
        assert sup_rel_diff(stepwise_flow(model, nodes), got) <= 1e-14

    def test_blow_up_is_a_numerical_failure(self):
        model = LeontiefModel(A=np.diag([1e300, 1e300]), demand=[1.0, 1.0], X0=[1.0, 1.0],
                              Xdot0=[1.0, 0.0], order=2)
        with pytest.raises(BlowUpError):
            volterra_solve(model, steps=4)

    def test_blow_up_names_the_first_node_where_x_or_u_is_not_finite(self):
        # e^(hM) overflows on the first step
        model = LeontiefModel(A=np.diag([1e300, 1e300]), demand=[1.0, 1.0], X0=[1.0, 1.0],
                              Xdot0=[1.0, 0.0], order=2)
        with pytest.raises(BlowUpError, match=r"^integration blew up between t=0.0 and t=0.25$"):
            volterra_solve(model, steps=4)

    def test_non_finite_u_at_the_last_node_is_a_blow_up(self):
        # 2 C overflows at t = 1 only, the end of the last step
        model = LeontiefModel(A=[[0.5]],
                              demand=lambda ts: np.where(ts == 1.0, 1e308, 1.0)[:, None],
                              X0=[1.0], Xdot0=[0.0], order=2)
        with pytest.raises(BlowUpError, match=r"^integration blew up between t=0.75 and t=1.0$"):
            volterra_solve(model, steps=4)


class TestTwoVolterraForms:
    @settings(max_examples=100, deadline=None)
    @given(b=st.floats(0.0, 1.0, exclude_min=True), c=st.floats(0.0, 2.0),
           x0=st.floats(-2.0, 2.0), v=st.floats(-2.0, 2.0), steps=st.integers(4, 500))
    def test_scalar_balance_matches_the_ode_reduction(self, b, c, x0, v, steps):
        # 0.5 X'' + X' + b X = c as a balance with B = b, and as the ODE
        # reduction of the same equation: one march, two free terms
        model = LeontiefModel(A=[[1.0 - b]], demand=[c], X0=[x0], Xdot0=[v], order=2)
        red = ode_to_integral(OdeSpec((0.5, 1.0, b), forcing=lambda t: c), [x0, v])
        try:
            x = volterra_solve(model, steps=steps).values[:, 0]
        except EcodynError as exc:
            with pytest.raises(type(exc)) as info:
                red.solve(steps=steps)
            assert str(info.value) == str(exc)
            return
        z = red.solve(steps=steps).trajectory.values[:, 0]
        assert np.max(np.abs(x - z)) <= 1e-13 * np.max(np.abs(x))


def stepwise_check(ts, rows):
    """The message of the first failing sample, checked one at a time."""
    for t, c in zip(ts, rows):
        if not np.all(np.isfinite(c)):
            return f"demand is not finite at t_bar = {t!r}"
        if np.any(c < -1e-12):
            return f"demand has a negative component at t_bar = {t!r}"
    return None


class TestDemandSamples:
    BAD = {"nan": [np.nan, 1.0], "neg": [1.0, -1.0], "-inf": [-np.inf, 1.0], "ok": [1.0, 2.0]}

    @pytest.mark.parametrize("pattern", [
        ("ok", "ok"), ("ok", "neg", "nan"), ("ok", "nan", "neg"), ("-inf", "neg"), ("ok",) * 5,
    ], ids="-".join)
    def test_first_bad_sample_named_as_one_by_one(self, pattern):
        ts = np.linspace(0.0, 1.0, len(pattern)).tolist()
        rows = np.array([self.BAD[name] for name in pattern])
        model = LeontiefModel(A=A22, demand=lambda times: rows, X0=[0.0, 0.0])
        expected = stepwise_check(ts, rows)
        if expected is None:
            assert model.demand_samples(ts).shape == (len(ts), 2)
        else:
            with pytest.raises(ValidationError) as exc_info:
                model.demand_samples(ts)
            assert (str(exc_info.value), exc_info.value.key) == (expected, "demand")

    @pytest.mark.parametrize("shape", [(3, 3), (2, 2), (3,), (2,), (2, 1), (1, 2, 2)],
                             ids=["wide", "short", "flat", "flat-row", "short-column", "deep"])
    def test_wrong_shape_is_one_stack_error(self, shape):
        # 3 times of a 2-component demand: a return that does not broadcast to
        # 3 x 2, or a flat one, which could be one row or one value per time
        model = LeontiefModel(A=A22, demand=lambda ts: np.full(shape, np.nan), X0=[0.0, 0.0])
        with pytest.raises(ValidationError) as exc_info:
            model.demand_samples([0.0, 0.5, 1.0])
        assert (str(exc_info.value), exc_info.value.key) == (
            "demand sampler must return one row of 2 components per time", "demand")

    @pytest.mark.parametrize("value, rows", [
        (1.5, [[1.5, 1.5]] * 3), ([[1.0, 2.0]], [[1.0, 2.0]] * 3),
        ([[1.0], [2.0], [3.0]], [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
    ], ids=["scalar", "row", "column"])
    def test_return_broadcasts(self, value, rows):
        # a scalar or one 2-D row is a constant, a column one value per time
        model = LeontiefModel(A=A22, demand=lambda ts: np.array(value), X0=[0.0, 0.0])
        assert model.demand_samples([0.0, 0.5, 1.0]).tolist() == rows

    def test_flat_return_is_one_value_per_time_for_one_sector(self):
        model = LeontiefModel(A=[[0.5]], demand=lambda ts: 1.0 + ts, X0=[0.0])
        assert model.demand_samples([0.0, 0.5, 1.0]).tolist() == [[1.0], [1.5], [2.0]]

    @pytest.mark.parametrize("demand", [
        lambda ts: 1.0 + ts,  # one value per time
        lambda t, c0=np.ones(21), c1=np.linspace(0.0, 1.0, 21): c0 + c1 * t,  # one row
    ], ids=["per-time", "per-sector"])
    def test_flat_return_is_refused_when_sectors_match_the_times(self, demand):
        # n = 21 sectors and 2 * 10 + 1 sample times: a flat return of 21
        # values could be either, so it is refused, not broadcast
        model = LeontiefModel(A=0.02 * np.ones((21, 21)), demand=demand, X0=np.zeros(21),
                              Xdot0=np.zeros(21), order=2)
        for solve in (dynamic_solve, volterra_solve):
            with pytest.raises(ValidationError) as exc_info:
                solve(model, steps=10)
            assert (str(exc_info.value), exc_info.value.key) == (
                "demand sampler must return one row of 21 components per time", "demand")

    def test_constant_demand_is_checked_once(self):
        model = LeontiefModel(A=A22, demand=[1.0, -1.0], X0=[0.0, 0.0])
        with pytest.raises(ValidationError, match="negative component at t_bar = 0.0$"):
            model.demand_samples([0.0, 0.5])
        model = LeontiefModel(A=A22, demand=[1.0, 2.0], X0=[0.0, 0.0])
        assert model.demand_samples([0.0, 0.5]).tolist() == [[1.0, 2.0], [1.0, 2.0]]

    @pytest.mark.parametrize("order", [1, 2])
    def test_solves_check_the_stack_not_each_sample(self, monkeypatch, order):
        # one call per march: the 11 nodes and 10 midpoints that the exact
        # flow of 10 steps samples, then as many for the Volterra march and
        # the 6 nodes and 5 midpoints of its half-resolution rerun
        sizes = []
        demand_samples = LeontiefModel.demand_samples

        def counted(self, ts):
            sizes.append(len(ts))
            return demand_samples(self, ts)

        monkeypatch.setattr(LeontiefModel, "demand_samples", counted)
        model = LeontiefModel(A=A22,
                              demand=lambda ts: np.column_stack([1.0 + ts, np.full_like(ts, 2.0)]),
                              X0=[0.0, 0.0], Xdot0=[0.0, 0.0], order=order)
        dynamic_solve(model, steps=10)
        assert sizes == [21]
        if order == 2:
            volterra_solve(model, steps=10)
            assert sizes == [21, 21, 11]


class TestModelValidation:
    def test_negative_entry_named(self):
        # the entry reads as a plain float, not as np.float64(-0.5)
        with pytest.raises(ValidationError, match=r"^A\[0,1\] = -0.5 is negative$"):
            LeontiefModel(A=np.array([[0.1, -0.5], [0.0, 0.2]]), demand=[1.0, 1.0], X0=[0.0, 0.0])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_matrix_must_be_finite(self, entry):
        with pytest.raises(ValidationError) as exc_info:
            LeontiefModel(A=np.array([[0.1, entry], [0.0, 0.2]]), demand=[1.0, 1.0],
                          X0=[0.0, 0.0])
        assert (str(exc_info.value), exc_info.value.key) == (
            "A has an entry that is not finite", "matrix")

    @pytest.mark.parametrize("X0, Xdot0, message, key", [
        ([np.nan], [0.0], "X0 has a component that is not finite", "x0"),
        ([0.0], [np.inf], "Xdot0 has a component that is not finite", "xdot0"),
        ([-np.inf], None, "X0 has a component that is not finite", "x0"),
    ], ids=["nan-x0", "inf-xdot0", "order-one"])
    def test_initial_data_must_be_finite(self, X0, Xdot0, message, key):
        with pytest.raises(ValidationError) as exc_info:
            LeontiefModel(A=[[0.5]], demand=[1.0], X0=X0, Xdot0=Xdot0, order=2 if Xdot0 else 1)
        assert (str(exc_info.value), exc_info.value.key) == (message, key)

    def test_metzler_check_shares_the_rule(self):
        with pytest.raises(ValidationError, match="^A has an entry that is not finite$"):
            metzler_check(np.array([[np.nan]]))
        with pytest.raises(ValidationError, match="^A must be a square matrix$"):
            metzler_check(np.zeros(3))

    def test_constant_demand_stored_as_a_float_vector(self):
        model = LeontiefModel(A=A22, demand=[1, 2], X0=[0.0, 0.0])
        assert model.demand.dtype == float and model.demand.tolist() == [1.0, 2.0]

    def test_demand_shape_checked(self):
        with pytest.raises(ValidationError):
            LeontiefModel(A=A22, demand=[1.0], X0=[0.0, 0.0])

    def test_demand_finite_checked(self):
        model = LeontiefModel(
            A=A22, demand=lambda ts: np.array([[np.inf, 1.0]]), X0=[0.0, 0.0], order=1
        )
        with pytest.raises(ValidationError, match="^demand is not finite at t_bar = 0.0$"):
            dynamic_solve(model, steps=10)
