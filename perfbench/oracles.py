"""Correctness oracles, one per job kind.

Each oracle reads the program's output and returns the achieved error,
which must not exceed the tolerance fixed in TOLERANCES.  Where a model
has a closed form, the reference is computed here from the flags given
to the program, independently of the code under test: exponentials and
rational closed forms, ``scipy.linalg.expm`` of the linear system, the
explicit solution of a separable integral equation, the balance
residual.  A structural mismatch (wrong exit code, missing column,
wrong grid) raises Mismatch.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
import scipy.linalg


class Mismatch(Exception):
    """Output does not have the expected shape, exit code or verdict."""


# Relative sup-norm error bounds.  The achieved error at the development
# seed is listed in README.md next to each bound.
TOLERANCES = {
    "harrod": 1e-10,
    "harrod-corrected": 1e-10,
    "harrod-domar": 1e-10,
    "multiplier": 1e-10,
    "harrod-discrete": 1e-10,
    "phillips": 1e-8,
    "bergstrom": 1e-8,
    "longwave": 1e-6,  # RK4 at h <= 0.1 year
    "leontief-dynamic": 1e-6,  # RK4 at h <= 1e-3
    "leontief-volterra": 1e-3,  # second-order trapezoid march
    "leontief-static": 1e-9,
    "fredholm-solve": 1e-9,
    "ode-reduced": 1e-5,  # second-order trapezoid march
    "two-point": 5e-5,  # Simpson across the kink of the reduced kernel
    "fredholm-spectrum": 1e-9,
    "fredholm-sweep": 1e-9,
    "dim-check": 0.0,
    "scale-check": 1e-8,
    "expected-error": 0.0,
}


def _rel(got, ref) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise Mismatch(f"shape {got.shape} != expected {ref.shape}")
    return float(np.max(np.abs(got - ref))) / max(float(np.max(np.abs(ref))), 1e-300)


def parse(job, text: str) -> dict:
    """Columns of a CSV table, or the JSON ``data`` payload."""
    if job.fmt == "csv":
        header, _, body = text.partition("\n")
        names = header.split(",")
        table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        if table.shape[1] != len(names):
            raise Mismatch(f"CSV has {table.shape[1]} columns for header {names}")
        return {name: table[:, j] for j, name in enumerate(names)}
    payload = json.loads(text)
    data = payload["data"]
    if "columns" in data:
        return {k: np.asarray(v, dtype=float) for k, v in data["columns"].items()} | {
            k: v for k, v in data.items() if k != "columns"}
    return data


def _grid(cols, t_end: float, steps: int) -> np.ndarray:
    t = np.asarray(cols["t"], dtype=float)
    err = _rel(t, np.linspace(0.0, t_end, steps + 1))
    if err > 1e-12:
        raise Mismatch(f"time grid deviates by {err:.3e}")
    return t


def _steps(job) -> int:
    return job.size[1] if job.size[0] == "steps" else int(job.params.get("steps", 1000))


def _samples(m: int, count: int = 33) -> np.ndarray:
    """Indices of up to ``count`` nodes spread over 0..m-1, ends included."""
    return np.unique(np.linspace(0, m - 1, count).round().astype(int))


def _expm_path(M: np.ndarray, z0: np.ndarray, t: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Exact solution z(t) = expm(M t) z0 of z' = M z at the nodes ``idx``."""
    return np.array([scipy.linalg.expm(M * t[k]) @ z0 for k in idx])


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def harrod(job, cols):
    p = job.params
    t = _grid(cols, p["t-end"], _steps(job))
    Y = p["y0"] * np.exp(p["mu"] / p["nu"] * t)
    return max(_rel(cols["Y"], Y), _rel(cols["C"], (1 - p["mu"]) * Y),
               _rel(cols["S"], p["mu"] * Y), _rel(cols["I"], p["mu"] * Y))


def harrod_corrected(job, cols):
    p = job.params
    t = _grid(cols, p["t-end"], _steps(job))
    sigma = p["mu"] / p["nu-star"]
    err = _rel(cols["Y"], p["y0"] / (1.0 - sigma * t) ** 2)
    if job.fmt == "json":
        err = max(err, abs(cols["report"]["blowup_time"] * sigma - 1.0))
    return err


def harrod_domar(job, cols):
    p = job.params
    t = _grid(cols, p["t-end"], _steps(job))
    return _rel(cols["Y"], p["y0"] * np.exp(p["mu"] / (p["nu"] * p["t0"]) * t))


def multiplier(job, cols):
    p = job.params
    t = _grid(cols, p["t-end"], _steps(job))
    Y = p["y0"] * np.exp(-p["lam"] * p["mu"] * t)
    return max(_rel(cols["Y"], Y), _rel(cols["Z"], (1 - p["mu"]) * Y))


def harrod_discrete(job, cols):
    p = job.params
    n, alpha = p["years"], p["mu"] / p["nu"]
    years = np.arange(n + 1)
    K = p["k0"] * (1.0 - alpha ** (years + 1.0)) / (1.0 - alpha)
    if job.fmt == "csv":
        jumps = cols["impulse"][1:]
        got_years = cols["year"]
    else:
        jumps = np.array([w for _, w in cols["impulses"]])
        got_years = np.asarray(cols["years"], dtype=float)
    if not np.array_equal(got_years, years):
        raise Mismatch("year column is not 0..n")
    return max(_rel(cols["K"], K), _rel(cols["Y_tilde"], K / p["nu"]),
               _rel(cols["I_tilde"], K * alpha), _rel(jumps, p["k0"] * alpha ** years[1:]))


def _second_order(job, cols, a: float, b: float, init, names) -> float:
    t = _grid(cols, job.params["t-end"], _steps(job))
    idx = _samples(len(t))
    ref = _expm_path(np.array([[0.0, 1.0], [-b, -a]]), np.asarray(init, dtype=float), t, idx)
    return max(_rel(cols[names[0]][idx], ref[:, 0]), _rel(cols[names[1]][idx], ref[:, 1]))


def phillips(job, cols):
    p = job.params
    rho = p["t0"] / p.get("t-star", 1.0)
    a1 = p["kappa"] + p["mu"] * p["lam"] - p["kappa"] * p["nu"] * p["lam"]
    b1 = p["kappa"] * p["nu"] * p["lam"]
    return _second_order(job, cols, a1 / rho, b1 / rho**2, (p["y0"], p["ydot0"]), ("Y", "Ydot"))


def bergstrom(job, cols):
    p = job.params
    damping = p["gamma"] + p["mu"] * p["lam"] - p["nu"] * p["gamma"] * p["lam"]
    stiffness = p["mu"] * p["gamma"] * p["lam"]
    return _second_order(job, cols, damping, stiffness, (p["k0"], p["kdot0"]), ("K", "Kdot"))


def longwave(job, cols):
    p = job.params
    t = _grid(cols, p["t-end"], _steps(job))
    P, q, r, s = p["p"], p["q"], p["r"], p["s"]
    M = np.array([[-P, P * q], [r * s, -r * (1.0 + s)]])
    idx = _samples(len(t))
    ref = _expm_path(M, np.array([p["x0"], p["y0"]]), t, idx)
    return max(_rel(cols["x"][idx], ref[:, 0]), _rel(cols["y"][idx], ref[:, 1]),
               _rel(cols["z"][idx], ref[:, 0] - ref[:, 1]))


def _leontief_reference(job, t: np.ndarray, idx: np.ndarray, order: int) -> np.ndarray:
    """expm of the truncated balance with demand c0 + c1*t, augmented by
    the states s = t and 1 so the forcing becomes part of the matrix."""
    A, c0, c1 = job.ref["A"], job.ref["c0"], job.ref["c1"]
    n = A.shape[0]
    B = np.eye(n) - A
    x0 = np.array([float(v) for v in job.params["x0"].split(",")])
    if order == 1:
        M = np.zeros((n + 2, n + 2))
        M[:n, :n] = -B
        M[:n, n] = c1
        M[:n, n + 1] = c0
        z0 = np.concatenate([x0, [0.0, 1.0]])
    else:
        v0 = np.array([float(v) for v in job.params["xdot0"].split(",")])
        M = np.zeros((2 * n + 2, 2 * n + 2))
        M[:n, n:2 * n] = np.eye(n)
        M[n:2 * n, :n] = -2.0 * B
        M[n:2 * n, n:2 * n] = -2.0 * np.eye(n)
        M[n:2 * n, 2 * n] = 2.0 * c1
        M[n:2 * n, 2 * n + 1] = 2.0 * c0
        z0 = np.concatenate([x0, v0, [0.0, 1.0]])
    M[n if order == 1 else 2 * n, -1] = 1.0  # s' = 1
    return _expm_path(M, z0, t, idx)[:, :n]


def _leontief_path(job, cols, order: int, steps: int) -> float:
    n = job.ref["A"].shape[0]
    t = _grid(cols, 1.0, steps)
    idx = _samples(len(t))
    ref = _leontief_reference(job, t, idx, order)
    got = np.column_stack([cols[f"x{i + 1}"][idx] for i in range(n)])
    return _rel(got, ref)


def leontief_dynamic(job, cols):
    return _leontief_path(job, cols, int(job.params["order"]), _steps(job))


def leontief_volterra(job, cols):
    return _leontief_path(job, cols, 2, job.ref["steps"])


def leontief_static(job, cols):
    A, c = job.ref["A"], job.ref["c"]
    X = np.asarray(cols["x"] if job.fmt == "csv" else cols["X"], dtype=float)
    if X.shape != c.shape:
        raise Mismatch(f"{X.shape[0]} components for n = {c.shape[0]}")
    return float(np.max(np.abs(X - A @ X - c))) / float(np.max(np.abs(X)))


_Q = {"one": (1.0, 0.5, 1.0 - math.exp(-1.0)), "t": (0.5, 1.0 / 3.0, 1.0 - 2.0 * math.exp(-1.0))}


def fredholm_solve(job, cols):
    """phi = q + lam*K phi for the separable catalogue kernels, solved by hand.

    With Q0 = int q, Q1 = int eta*q and E = int exp(-eta)*q:
    t + eta:     phi = q + lam*(A*t + B), (A, B) from a 2x2 system;
    exp(t-eta):  phi = q + lam*E/(1 - lam)*exp(t);
    degenerate:  phi = q + lam*(1 + mu*(t - 1/2))*Q0/(1 - lam).
    """
    p = job.params
    lam, kernel = p["lam"], p["kernel"]
    t = np.asarray(cols["t"], dtype=float)
    n = job.size[1]
    if _rel(t, np.linspace(0.0, 1.0, n)) > 1e-12:
        raise Mismatch("nodes are not the uniform Simpson nodes")
    Q0, Q1, E = _Q[p["q"]]
    q = np.ones_like(t) if p["q"] == "one" else t
    if kernel == "t-plus-eta":
        A, B = np.linalg.solve([[1 - lam / 2, -lam], [-lam / 3, 1 - lam / 2]], [Q0, Q1])
        ref = q + lam * (A * t + B)
    elif kernel == "exp-diff":
        ref = q + lam * E / (1.0 - lam) * np.exp(t)
    else:
        ref = q + lam * (1.0 + p["mu"] * (t - 0.5)) * Q0 / (1.0 - lam)
    return _rel(cols["phi"], ref)


def ode_reduced(job, cols):
    a, c = (float(v) for v in job.params["ode-init"].split(","))
    t = _grid(cols, 1.0, _steps(job))
    z = a * np.cos(t) + c * np.sin(t)
    return max(_rel(cols["z"], z), _rel(cols["phi"], -z))


def two_point(job, cols):
    p = job.params
    t = np.asarray(cols["t"], dtype=float)
    z = p["a"] * np.cos(t) + p["c"] * np.sin(t)
    return _rel(cols["z"], z)


_SPECTRA = {
    "t-plus-eta": (1.0 / (0.5 + 1.0 / math.sqrt(3.0)), 1.0 / (0.5 - 1.0 / math.sqrt(3.0))),
    "exp-diff": (1.0,),
    "degenerate": (1.0,),
}


def fredholm_spectrum(job, data):
    got = sorted((complex(z["re"], z["im"]) for z in data["characteristic_numbers"]), key=abs)
    want = sorted(_SPECTRA[job.params["kernel"]], key=abs)
    if len(got) != len(want):
        raise Mismatch(f"characteristic numbers {got} != {want}")
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


_KERNELS = {
    "t-plus-eta": lambda t, e: t + e,
    "exp-diff": lambda t, e: np.exp(t - e),
    "zero": lambda t, e: 0.0 * t * e,
    "rho-rho": lambda t, e: 1.0 + 0.0 * t * e,
    "sigma-rho": lambda t, e: (t - 0.5) + 0.0 * e,
}


def fredholm_sweep(job, data):
    """Smallest singular values of Id - (K0 + mu*K1)W, assembled here by
    broadcasting; the rho-rho/sigma-rho pair must come out exceptional."""
    p = job.params
    n = job.size[1]
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w /= w.sum()
    T, E = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, n), indexing="ij")
    K0, K1 = _KERNELS[p["k0"]](T, E), _KERNELS[p["k1"]](T, E)
    mus = np.linspace(p["mu-min"], p["mu-max"], int(p.get("mu-count", 21)))
    if job.fmt == "csv":
        got_mu, got_s = data["mu"], data["smallest_singular_value"]
    else:
        got_mu, got_s = data["mu_values"], data["smallest_singular_values"]
        want = "exceptional" if p["k0"] == "rho-rho" else "non_exceptional"
        if data["classification"] != want:
            raise Mismatch(f"classification {data['classification']!r} != {want!r}")
    if _rel(got_mu, mus) > 1e-12:
        raise Mismatch("mu grid differs")
    err = 0.0
    for mu, got in zip(mus, got_s):
        s = np.linalg.svd(np.eye(n) - (K0 + mu * K1) * w, compute_uv=False)
        err = max(err, abs(got - s[-1]) / s[0])
    return err


def dim_check(job, data):
    if data["consistent"] != job.ref["consistent"]:
        raise Mismatch(f"verdict {data['verdict']!r} for {job.params['relation']!r}")
    return 0.0


def scale_check(job, data):
    """Deviation between the physical income paths under t0-a and t0-b.

    Phillips goes through two ecodyn.phillips_solve calls that pass the
    given y0 and ydot0; the other models use their closed forms.
    """
    p = job.params
    t = np.linspace(0.0, p["t-end"], 1001)
    model = p["model"]

    def income(t0):
        if model == "harrod-domar":
            return np.exp(p["mu"] / (p["nu"] * t0) * t)
        if model == "multiplier":
            return np.exp(-p["lam"] * p["mu"] * t / t0)
        if model == "corrected-harrod":
            return 1.0 / (1.0 - p["mu"] / p["nu-star"] * t) ** 2
        import ecodyn

        sol = ecodyn.phillips_solve(
            ecodyn.PhillipsParams(kappa=p["kappa"], nu=p["nu"], mu=p["mu"], lam=p["lam"]),
            ecodyn.AllenScaling(t0=t0),
            (p.get("y0", 1.0), p.get("ydot0", 0.0)),
            ecodyn.TimeGrid(0.0, p["t-end"], 1000),
        )
        return sol.trajectory.column("Y")

    Ya, Yb = income(p["t0-a"]), income(p["t0-b"])
    want = float(np.max(np.abs(Ya - Yb))) / float(np.max(np.abs(Ya)))
    return abs(data["max_rel_deviation"] - want) / max(want, 1e-6)


ORACLES = {
    "harrod": harrod,
    "harrod-corrected": harrod_corrected,
    "harrod-domar": harrod_domar,
    "multiplier": multiplier,
    "harrod-discrete": harrod_discrete,
    "phillips": phillips,
    "bergstrom": bergstrom,
    "longwave": longwave,
    "leontief-dynamic": leontief_dynamic,
    "leontief-volterra": leontief_volterra,
    "leontief-static": leontief_static,
    "fredholm-solve": fredholm_solve,
    "ode-reduced": ode_reduced,
    "two-point": two_point,
    "fredholm-spectrum": fredholm_spectrum,
    "fredholm-sweep": fredholm_sweep,
    "dim-check": dim_check,
    "scale-check": scale_check,
}


def check(job, rc: int, stdout: str, stderr: str) -> tuple[float, str]:
    """(achieved error, failure reason or "") for one finished job."""
    if rc != job.expect_rc:
        return math.inf, f"exit {rc}, expected {job.expect_rc}: {stderr.strip()[-200:]}"
    if job.oracle == "expected-error":
        needle = job.ref["needle"]
        return (0.0, "") if needle in stderr else (math.inf, f"stderr lacks {needle!r}")
    try:
        if job.out is not None:
            with open(job.out, encoding="utf-8") as fh:
                stdout = fh.read()
        err = ORACLES[job.oracle](job, parse(job, stdout))
    except (Mismatch, KeyError, ValueError, OSError) as exc:
        return math.inf, f"{type(exc).__name__}: {exc}"
    tol = TOLERANCES[job.oracle]
    if not err <= tol:
        return err, f"error {err:.3e} exceeds tolerance {tol:.0e}"
    return err, ""
