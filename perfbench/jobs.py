"""Seeded job lists for the benchmark workloads.

A job is one CLI invocation (``python -m ecodyn.cli <argv>``) or one call
of the two-point driver in this directory.  The seed draws every model
parameter within its valid range, the Metzler matrices, the demand
files and the job order.  Sizes (steps, nodes, n) and output formats are
fixed per workload, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

@dataclass
class Job:
    kind: str  # command or named variant, e.g. "fredholm-solve:exp-diff"
    argv: list[str]  # arguments after `python -m ecodyn.cli`, or the driver's
    size: tuple[str, int]  # attribute the report groups by: steps, nodes, n, years
    oracle: str  # key into oracles.ORACLES
    params: dict  # flags given to the program, read back by the oracle
    fmt: str = "csv"
    out: str | None = None  # --out path relative to the checkout; None = stdout
    expect_rc: int = 0
    driver: str = "cli"  # "cli" or "twopoint"
    ref: dict = field(default_factory=dict)  # oracle-only data (matrices, demand)

    @property
    def label(self) -> str:
        return f"{self.kind} {self.size[0]}={self.size[1]}"


def _flags(params: dict) -> list[str]:
    # --key=value, so that values such as "-0.3,0.2" are not taken for options
    return [f"--{key}={value if isinstance(value, str) else repr(value)}"
            for key, value in params.items()]


def _u(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class Builder:
    """Draws parameters from ``rng`` and writes input files to ``workdir``."""

    def __init__(self, workdir: str, rng: np.random.Generator):
        self.workdir = workdir
        self.rng = rng
        self._count = 0

    def path(self, stem: str, ext: str) -> str:
        self._count += 1
        safe = stem.replace(":", "-")
        return os.path.join(self.workdir, f"{self._count:03d}-{safe}.{ext}")

    def metzler(self, n: int) -> tuple[str, np.ndarray]:
        """Nonnegative matrix with every row sum 0.5, written in the CLI's format."""
        A = self.rng.uniform(0.0, 1.0, (n, n))
        A *= 0.5 / A.sum(axis=1, keepdims=True)
        path = self.path(f"matrix-n{n}", "txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n}\n")
            for row in A:
                fh.write(_vec(row) + "\n")
        return path, A

    def job(self, kind, cmd, params, size, oracle, fmt, to_file, ref=None,
            expect_rc=0, driver="cli") -> Job:
        argv = ([cmd] if driver == "cli" else []) + _flags(params)
        out = None
        if driver == "cli":
            argv += ["--format", fmt]
            if to_file:
                out = self.path(kind, fmt)
                argv += ["--out", out]
        return Job(kind, argv, size, oracle, dict(params), fmt, out, expect_rc,
                   driver, ref or {})


# ---------------------------------------------------------------------------
# Job kinds.  Each takes the builder, a size (None = the program's default)
# and the output choice, and returns one Job.
# ---------------------------------------------------------------------------

def _steps(params: dict, steps: int | None, default: int = 1000) -> tuple[str, int]:
    if steps is not None:
        params["steps"] = steps
    return ("steps", steps or default)


def k_harrod(b, steps, fmt, to_file):
    r = b.rng
    p = {"mu": _u(r, 0.1, 0.4), "nu": _u(r, 2.0, 6.0), "y0": _u(r, 0.5, 2.0),
         "k0": _u(r, 0.5, 2.0), "t-end": _u(r, 10.0, 30.0)}
    return b.job("harrod", "harrod", p, _steps(p, steps), "harrod", fmt, to_file)


def k_harrod_corrected(b, steps, fmt, to_file):
    r = b.rng
    mu, nu_star = _u(r, 0.1, 0.4), _u(r, 2.0, 6.0)
    # stay well before the pole at nu_star/mu so the cross-check needs no substeps
    p = {"mu": mu, "nu-star": nu_star, "y0": _u(r, 0.5, 2.0),
         "t-end": _u(r, 0.3, 0.6) * nu_star / mu}
    return b.job("harrod-corrected", "harrod-corrected", p, _steps(p, steps),
                 "harrod-corrected", fmt, to_file)


def k_harrod_domar(b, steps, fmt, to_file):
    r = b.rng
    p = {"mu": _u(r, 0.1, 0.4), "nu": _u(r, 2.0, 6.0), "t0": _u(r, 0.5, 2.0),
         "y0": _u(r, 0.5, 2.0), "t-end": _u(r, 10.0, 30.0)}
    return b.job("harrod-domar", "harrod-domar", p, _steps(p, steps), "harrod-domar",
                 fmt, to_file)


def k_multiplier(b, steps, fmt, to_file):
    r = b.rng
    p = {"mu": _u(r, 0.1, 0.9), "lam": _u(r, 0.2, 1.0), "y0": _u(r, 0.5, 2.0),
         "t-end": _u(r, 5.0, 20.0)}
    return b.job("multiplier", "multiplier", p, _steps(p, steps), "multiplier", fmt, to_file)


def _simple_roots(damping: float, stiffness: float) -> bool:
    """Keep the analytic path away from critical damping."""
    return abs(damping**2 - 4.0 * stiffness) > 0.05 * max(1.0, damping**2, stiffness)


def k_phillips(b, steps, fmt, to_file):
    r = b.rng
    while True:
        p = {"kappa": _u(r, 0.5, 2.0), "nu": _u(r, 0.5, 1.5), "mu": _u(r, 0.2, 0.8),
             "lam": _u(r, 0.5, 2.0), "t0": _u(r, 0.5, 2.0), "y0": _u(r, 0.5, 2.0),
             "ydot0": _u(r, -1.0, 1.0), "t-end": _u(r, 5.0, 15.0)}
        a1 = p["kappa"] + p["mu"] * p["lam"] - p["kappa"] * p["nu"] * p["lam"]
        b1 = p["kappa"] * p["nu"] * p["lam"]
        if _simple_roots(a1 / p["t0"], b1 / p["t0"] ** 2) and a1 > -0.3:
            break
    return b.job("phillips", "phillips", p, _steps(p, steps), "phillips", fmt, to_file)


def k_bergstrom(b, steps, fmt, to_file):
    r = b.rng
    while True:
        p = {"mu": _u(r, 0.2, 0.8), "nu": _u(r, 0.5, 1.5), "gamma": _u(r, 0.5, 2.0),
             "lam": _u(r, 0.5, 2.0), "k0": _u(r, 0.5, 2.0), "kdot0": _u(r, -1.0, 1.0),
             "t-end": _u(r, 5.0, 15.0)}
        damping = p["gamma"] + p["mu"] * p["lam"] - p["nu"] * p["gamma"] * p["lam"]
        if _simple_roots(damping, p["mu"] * p["gamma"] * p["lam"]) and damping > -0.3:
            break
    return b.job("bergstrom", "bergstrom", p, _steps(p, steps), "bergstrom", fmt, to_file)


def k_longwave(b, steps, fmt, to_file):
    r = b.rng
    rate = _u(r, 0.08, 0.35)
    p = {"p": rate, "r": rate * _u(r, 0.8, 1.2), "q": _u(r, 0.8, 1.2), "s": -2.0,
         "x0": _u(r, 0.5, 1.5), "y0": _u(r, 0.05, 0.5) * float(r.choice([-1.0, 1.0])),
         "t-end": 100.0}
    return b.job("longwave", "longwave", p, _steps(p, steps), "longwave", fmt, to_file)


def k_harrod_discrete(b, years, fmt, to_file):
    r = b.rng
    nu = _u(r, 2.0, 6.0)
    p = {"mu": _u(r, 0.1, 0.4), "nu": nu, "k0": _u(r, 0.5, 2.0), "years": years or 50}
    return b.job("harrod-discrete", "harrod-discrete", p, ("years", p["years"]),
                 "harrod-discrete", fmt, to_file)


def k_leontief_dynamic(b, steps, fmt, to_file, n=3, order=1, demand_file=False):
    r = b.rng
    path, A = b.metzler(n)
    p = {"matrix": path, "order": order, "x0": _vec(r.uniform(0.5, 1.5, n))}
    ref = {"A": A}
    if demand_file:
        # linear in t, so the program's interpolation between rows is exact
        c0, c1 = r.uniform(0.5, 1.5, n), r.uniform(-0.4, 0.4, n)
        fpath = b.path(f"demand-n{n}", "csv")
        with open(fpath, "w", encoding="utf-8") as fh:
            for tk in np.linspace(0.0, 1.0, (steps or 1000) + 1):
                fh.write(_vec(c0 + c1 * tk) + "\n")
        p["demand-file"] = fpath
        ref.update(c0=c0, c1=c1)
    else:
        c = r.uniform(0.5, 1.5, n)
        p["demand"] = _vec(c)
        ref.update(c0=c, c1=np.zeros(n))
    if order == 2:
        p["xdot0"] = _vec(r.uniform(-0.5, 0.5, n))
    kind = "leontief-dynamic" + (":o2" if order == 2 else "") + (":file" if demand_file else "")
    return b.job(kind, "leontief-dynamic", p, _steps(p, steps), "leontief-dynamic", fmt,
                 to_file, ref)


def k_leontief_volterra(b, steps, fmt, to_file, n=3):
    r = b.rng
    path, A = b.metzler(n)
    c = r.uniform(0.5, 1.5, n)
    p = {"matrix": path, "demand": _vec(c), "x0": _vec(r.uniform(0.5, 1.5, n)),
         "xdot0": _vec(r.uniform(-0.5, 0.5, n))}
    if steps is not None:
        p["steps"] = steps
    ref = {"A": A, "c0": c, "c1": np.zeros(n), "steps": steps or 1000}
    return b.job("leontief-volterra", "leontief-volterra", p, ("n", n),
                 "leontief-volterra", fmt, to_file, ref)


def k_leontief_static(b, n, fmt, to_file, method):
    n = n or 5
    path, A = b.metzler(n)
    c = b.rng.uniform(0.5, 1.5, n)
    p = {"matrix": path, "demand": _vec(c), "method": method}
    return b.job(f"leontief-static:{method}", "leontief-static", p, ("n", n),
                 "leontief-static", fmt, to_file, {"A": A, "c": c})


def k_fredholm_solve(b, nodes, fmt, to_file, kernel):
    r = b.rng
    p = {"kernel": kernel, "lam": _u(r, -2.0, 0.7), "q": str(r.choice(["one", "t"]))}
    if kernel == "degenerate":
        p["mu"] = _u(r, -1.0, 1.0)
    if nodes is not None:
        p["nodes"] = nodes
    return b.job(f"fredholm-solve:{kernel}", "fredholm-solve", p, ("nodes", nodes or 201),
                 "fredholm-solve", fmt, to_file)


def k_ode_reduced(b, steps, fmt, to_file):
    r = b.rng
    p = {"kernel": "ode-reduced", "ode-coeffs": "1,0,1",
         "ode-init": _vec([_u(r, 0.5, 1.5), _u(r, -1.0, 1.0)])}
    return b.job("fredholm-solve:ode-reduced", "fredholm-solve", p, _steps(p, steps, 200),
                 "ode-reduced", fmt, to_file)


def k_spectrum(b, nodes, fmt, to_file, kernel):
    p = {"kernel": kernel}
    if kernel == "degenerate":
        p["mu"] = _u(b.rng, -1.0, 1.0)
    if nodes is not None:
        p["nodes"] = nodes
    return b.job(f"fredholm-spectrum:{kernel}", "fredholm-spectrum", p,
                 ("nodes", nodes or 201), "fredholm-spectrum", "json", to_file)


def k_sweep(b, nodes, fmt, to_file, variant, k0, k1, count=None):
    r = b.rng
    lo = _u(r, -2.0, -0.5)
    p = {"k0": k0, "k1": k1, "mu-min": lo, "mu-max": lo + _u(r, 1.0, 2.5)}
    if count is not None:
        p["mu-count"] = count
    if nodes is not None:
        p["nodes"] = nodes
    return b.job(f"fredholm-sweep:{variant}", "fredholm-sweep", p, ("nodes", nodes or 201),
                 "fredholm-sweep", fmt, to_file)


def k_two_point(b, nodes, fmt, to_file):
    """z'' + z = 0 with z(0) and z(1) given: z = a cos t + c sin t."""
    r = b.rng
    a, c = _u(r, 0.5, 1.5), _u(r, -1.0, 1.0)
    p = {"a": a, "c": c, "nodes": nodes or 101}
    if p["nodes"] < 101:
        p["steps"] = 50  # fewer off-node evaluations at smoke size
    return b.job("two-point", "", p, ("nodes", p["nodes"]), "two-point", "json", False,
                 driver="twopoint")


# dim-check relations from the stock/flow audit, with their verdicts
_RELATIONS = (
    ("K = int(I)", "K:$,I:$/s", True),
    ("K = nu*Y", "K:$,nu:s,Y:$/s", True),
    ("ddt(K) = I", "K:$,I:$/s", True),
    ("Y = C + I", "Y:$/s,C:$/s,I:$/s", True),
    ("K = Y", "K:$,Y:$/s", False),
    ("Y = C + K", "Y:$/s,C:$/s,K:$", False),
)


def k_dim_check(b, size, fmt, to_file):
    relation, dims, consistent = _RELATIONS[int(b.rng.integers(len(_RELATIONS)))]
    p = {"relation": relation, "dims": dims}
    return b.job("dim-check", "dim-check", p, ("default", 0), "dim-check", "json", to_file,
                 {"consistent": consistent})


_PHILLIPS = {"kappa": (0.5, 2.0), "nu": (0.5, 1.5), "mu": (0.2, 0.8), "lam": (0.5, 2.0)}


def k_scale(b, size, fmt, to_file, variant, model, ranges):
    r = b.rng
    p = {"model": model, "t0-a": _u(r, 0.5, 1.5), "t0-b": _u(r, 1.6, 3.0),
         **{key: _u(r, lo, hi) for key, (lo, hi) in ranges.items()}, "t-end": _u(r, 2.0, 6.0)}
    return b.job(f"scale-check:{variant}", "scale-check", p, ("steps", 1000), "scale-check",
                 "json", to_file)


def k_scenario(b, size, fmt, to_file, inner):
    """Write the inner job's flags to a `key = value` file and run it through it."""
    inner = inner(b, None, fmt, False)
    kind = f"scenario:{inner.kind}"
    path = b.path(kind, "scenario")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {kind}\ncommand = {inner.argv[0]}\n")
        for key, value in inner.params.items():
            fh.write(f"{key} = {value if isinstance(value, str) else repr(value)}\n")
    job = b.job(kind, "", {}, inner.size, inner.oracle, inner.fmt, to_file, inner.ref)
    job.argv = ["--scenario", path] + job.argv[1:]
    job.params = inner.params
    return job


def k_fail_pole(b, size, fmt, to_file):
    r = b.rng
    mu, nu_star = _u(r, 0.1, 0.4), _u(r, 2.0, 6.0)
    p = {"mu": mu, "nu-star": nu_star, "t-end": _u(r, 1.0, 2.0) * nu_star / mu}
    return b.job("fail:pole", "harrod-corrected", p, ("steps", 1000), "expected-error",
                 fmt, to_file, {"needle": "pole"}, expect_rc=3)


def k_fail_char_number(b, size, fmt, to_file):
    p = {"kernel": "t-plus-eta", "lam": 1.0 / (0.5 + 1.0 / math.sqrt(3.0))}
    return b.job("fail:char-number", "fredholm-solve", p, ("nodes", 201), "expected-error",
                 fmt, to_file, {"needle": "characteristic number"}, expect_rc=3)


def k_fail_mu_range(b, size, fmt, to_file):
    r = b.rng
    p = {"mu": _u(r, 1.1, 2.0), "nu": _u(r, 2.0, 6.0), "t-end": 10.0}
    return b.job("fail:mu-range", "harrod", p, ("steps", 1000), "expected-error",
                 fmt, to_file, {"needle": "(key: mu)"}, expect_rc=2)


KINDS = {
    "harrod": k_harrod,
    "harrod-corrected": k_harrod_corrected,
    "harrod-domar": k_harrod_domar,
    "multiplier": k_multiplier,
    "phillips": k_phillips,
    "bergstrom": k_bergstrom,
    "longwave": k_longwave,
    "harrod-discrete": k_harrod_discrete,
    "leontief-dynamic": k_leontief_dynamic,
    "leontief-dynamic:o2": partial(k_leontief_dynamic, order=2),
    "leontief-dynamic:file": partial(k_leontief_dynamic, demand_file=True),
    "leontief-volterra": k_leontief_volterra,
    "leontief-static:direct": partial(k_leontief_static, method="direct"),
    "leontief-static:iterate": partial(k_leontief_static, method="iterate"),
    "fredholm-solve:t-plus-eta": partial(k_fredholm_solve, kernel="t-plus-eta"),
    "fredholm-solve:exp-diff": partial(k_fredholm_solve, kernel="exp-diff"),
    "fredholm-solve:degenerate": partial(k_fredholm_solve, kernel="degenerate"),
    "fredholm-solve:ode-reduced": k_ode_reduced,
    "fredholm-spectrum:t-plus-eta": partial(k_spectrum, kernel="t-plus-eta"),
    "fredholm-spectrum:exp-diff": partial(k_spectrum, kernel="exp-diff"),
    "fredholm-spectrum:degenerate": partial(k_spectrum, kernel="degenerate"),
    # rho(t)rho(eta) + mu*sigma(t)rho(eta) is singular for every mu
    "fredholm-sweep:exceptional": partial(k_sweep, variant="exceptional", k0="rho-rho",
                                          k1="sigma-rho"),
    "fredholm-sweep:regular": partial(k_sweep, variant="regular", k0="exp-diff", k1="t-plus-eta",
                                      count=11),
    "two-point": k_two_point,
    "dim-check": k_dim_check,
    "scale-check:harrod-domar": partial(k_scale, variant="harrod-domar", model="harrod-domar",
                                        ranges={"mu": (0.1, 0.4), "nu": (2.0, 6.0)}),
    "scale-check:multiplier": partial(k_scale, variant="multiplier", model="multiplier",
                                      ranges={"mu": (0.1, 0.9), "lam": (0.2, 1.0)}),
    "scale-check:corrected-harrod": partial(k_scale, variant="corrected-harrod",
                                            model="corrected-harrod",
                                            ranges={"mu": (0.02, 0.05), "nu-star": (2.0, 6.0)}),
    "scale-check:phillips": partial(k_scale, variant="phillips", model="phillips", ranges=_PHILLIPS),
    # nonzero --y0/--ydot0: the oracle passes both to phillips_solve
    "scale-check:phillips-ydot0": partial(k_scale, variant="phillips-ydot0", model="phillips",
                                          ranges=_PHILLIPS | {"y0": (0.5, 2.0), "ydot0": (0.5, 2.0)}),
    "scenario:harrod": partial(k_scenario, inner=k_harrod),
    "scenario:longwave": partial(k_scenario, inner=k_longwave),
    "fail:pole": k_fail_pole,
    "fail:char-number": k_fail_char_number,
    "fail:mu-range": k_fail_mu_range,
}

# One pass of each workload: (kind, size, format, write with --out, extra options).
# A size of None leaves the program's default in place.
_C, _J = "csv", "json"
WORKLOADS: dict[str, list[tuple]] = {
    # Trajectory commands at 1e3-1e5 steps; half CSV on stdout, half JSON via --out.
    "traj-long": [
        ("harrod", 100_000, _C, False, {}),
        ("harrod-corrected", 10_000, _C, False, {}),
        ("harrod-domar", 10_000, _J, True, {}),
        ("multiplier", 10_000, _C, False, {}),
        ("phillips", 10_000, _J, True, {}),
        ("bergstrom", 1_000, _C, False, {}),
        ("longwave", 10_000, _J, True, {}),
        ("harrod-discrete", 10_000, _J, True, {}),
        ("leontief-dynamic:o2", 1_000, _C, False, {"n": 50}),
        ("leontief-dynamic:file", 1_000, _J, True, {"n": 10}),
    ],
    # Integral-equation solvers and the Leontief balance at their large sizes.
    "integral": [
        ("fredholm-solve:t-plus-eta", 801, _C, False, {}),
        ("fredholm-solve:exp-diff", 1201, _J, True, {}),
        ("fredholm-solve:degenerate", 401, _C, False, {}),
        ("fredholm-spectrum:t-plus-eta", 401, _J, True, {}),
        ("fredholm-sweep:regular", 401, _C, False, {}),
        ("fredholm-solve:ode-reduced", 200, _C, False, {}),
        ("leontief-volterra", 2_000, _C, False, {"n": 3}),
        ("leontief-volterra", 1_000, _J, True, {"n": 50}),
        ("leontief-static:direct", 200, _J, False, {}),
        ("leontief-static:iterate", 200, _J, True, {}),
        ("two-point", 101, _J, False, {}),
    ],
    # Every command at its default size, a scenario file, scale-check with
    # and without --ydot0, and the expected-failure runs.
    "batch-small": [
        ("harrod", None, _C, False, {}),
        ("harrod-corrected", None, _J, True, {}),
        ("harrod-discrete", None, _C, False, {}),
        ("harrod-domar", None, _J, True, {}),
        ("phillips", None, _C, False, {}),
        ("bergstrom", None, _J, True, {}),
        ("multiplier", None, _C, False, {}),
        ("longwave", None, _J, True, {}),
        ("leontief-static:direct", None, _J, False, {}),
        ("leontief-dynamic", None, _C, False, {}),
        ("leontief-volterra", None, _J, True, {}),
        ("fredholm-solve:t-plus-eta", None, _C, False, {}),
        ("fredholm-spectrum:t-plus-eta", None, _J, False, {}),
        ("fredholm-sweep:exceptional", None, _C, False, {}),
        ("dim-check", None, _J, False, {}),
        ("scale-check:phillips", None, _J, False, {}),
        ("scale-check:phillips-ydot0", None, _J, False, {}),
        ("scale-check:harrod-domar", None, _J, True, {}),
        ("scenario:longwave", None, _J, True, {}),
        ("fail:pole", None, _C, False, {}),
        ("fail:char-number", None, _C, False, {}),
        ("fail:mu-range", None, _C, False, {}),
    ],
}

# Small but accurate sizes: every oracle holds at these, so the warm-up and
# the smoke run exercise each job kind with its oracle on.
SMOKE_SIZES = {
    "harrod-discrete": 50,
    "leontief-static:direct": 5,
    "leontief-static:iterate": 5,
    "leontief-volterra": 400,
    "fredholm-solve:ode-reduced": 50,
    "two-point": 51,
}
_NODE_KINDS = ("fredholm-solve:t-plus-eta", "fredholm-solve:exp-diff",
               "fredholm-solve:degenerate", "fredholm-spectrum", "fredholm-sweep")


def smoke_size(kind: str) -> int | None:
    if kind in SMOKE_SIZES:
        return SMOKE_SIZES[kind]
    if kind.startswith(_NODE_KINDS):
        return 101
    if kind in ("dim-check",) or kind.startswith(("scale-check", "scenario", "fail")):
        return None
    return 1000


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """One pass of ``workload``, in seeded order."""
    rng = np.random.default_rng(seed)
    b = Builder(workdir, rng)
    jobs = [KINDS[kind](b, size, fmt, to_file, **opts)
            for kind, size, fmt, to_file, opts in WORKLOADS[workload]]
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def build_smoke(kinds, seed: int, workdir: str) -> list[Job]:
    """Each kind once at its smoke size, half CSV and half JSON via --out."""
    b = Builder(workdir, np.random.default_rng(seed))
    return [KINDS[kind](b, smoke_size(kind), ("csv", "json")[i % 2], i % 2 == 1)
            for i, kind in enumerate(kinds)]


def workload_kinds(workload: str) -> list[str]:
    return list(dict.fromkeys(kind for kind, *_ in WORKLOADS[workload]))
