"""ecodyn benchmark: seeded job lists of `python -m ecodyn.cli ...` runs,
driven as a closed loop (one client, one job at a time).

    python3 perfbench/run.py --workload traj-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every metric, all workloads
    python3 perfbench/run.py --smoke                          # every job kind once, < 10 s

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the jobs run as subprocesses and the end-to-end
metrics are reported; with ``--trace 1`` the same jobs run in process,
once plain and once with spans around ecodyn's public functions, and the
per-layer metrics are reported.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

# The modules here that load numpy (jobs, oracles, spans, inproc) are
# imported inside functions: after main() has fixed the BLAS thread count,
# which numpy reads when it loads, and started the launcher while this
# process is still small.

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
STATE = ".perfbench"  # scratch and result files, inside the checkout

WORKLOADS = ("traj-long", "integral", "batch-small")
# A run measures round(seconds / NOMINAL_PASS_S) passes over the job list,
# which is about the seconds one pass takes on the reference machine (a
# shared 2-core Xeon), so every run of a workload does the same work
# whatever its speed.
NOMINAL_PASS_S = 10.0
SETUP_REPEATS = 3
JOB_TIMEOUT_S = 120.0
# Jobs whose failure is a confirmed program defect.  They still count in
# `failed` and failed_ratio; they do not make the result incorrect.
KNOWN_DEFECTS = {
    "scale-check:phillips-ydot0": "scale-check drops --y0/--ydot0 (ROADMAP item 4)",
}
E2E_UNITS = {
    "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio", "setup_s": "s",
}


# One BLAS thread per process: with two cores shared by the benchmark, the
# job and the neighbours, threaded LAPACK ran slower here and no steadier.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC, **BLAS_THREADS)
    # write .pyc files, as a user's interpreter does; the warm-up makes them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("ECODYN_DEFAULT_STEPS", None)
    return env


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "ecodyn", "cli.py")):
        _fail(f"no ecodyn sources under {SRC}; run from the root of a checkout")


def _import_program():
    """Import ecodyn from this checkout's src, nowhere else."""
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    sys.path[:0] = [SRC]
    import ecodyn

    if not os.path.abspath(ecodyn.__file__).startswith(SRC + os.sep):
        _fail(f"ecodyn imported from {ecodyn.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def run_record(workload: str, seed: int, jobs_per_pass: int, passes: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    env = child_env()
    return {
        "workload": workload, "seed": seed, "jobs_per_pass": jobs_per_pass,
        "passes": passes, "jobs": jobs_per_pass * passes,
        "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": openblas,
        "blas_thread_env": {k: env[k] for k in BLAS_THREADS},
        "commit": commit,
    }


# ---------------------------------------------------------------------------
# Set-up: seeded inputs plus one warm-up run per job kind
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, workdir: str):
    import jobs as jobs_mod

    start = perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    joblist = jobs_mod.build(workload, seed, workdir)
    os.makedirs(os.path.join(workdir, "warm"))
    warm = jobs_mod.build_smoke(jobs_mod.workload_kinds(workload), seed,
                                os.path.join(workdir, "warm"))
    plan = os.path.join(workdir, "warmup.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump([(j.driver, j.argv) for j in warm], fh)
    subprocess.run([sys.executable, os.path.join(HERE, "inproc.py"), plan], env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                   timeout=JOB_TIMEOUT_S)
    return joblist, perf_counter() - start


# ---------------------------------------------------------------------------
# Untraced run: subprocesses in a closed loop
# ---------------------------------------------------------------------------

class Launcher:
    """The small process that starts every timed job (see spawner.py).
    Create it before numpy is imported, while this process is small."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, job, stdout_path: str, stderr_path: str):
        """Run one job to completion: (exit code, wall s, cpu s, max rss KB)."""
        script = ["-m", "ecodyn.cli"] if job.driver == "cli" else [os.path.join(HERE, "twopoint.py")]
        request = {"argv": [sys.executable, *script, *job.argv], "env": child_env(),
                   "stdout": stdout_path, "stderr": stderr_path, "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["rc"], reply["wall"], reply["cpu"], reply["maxrss_kb"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


class Checker:
    """Applies the oracles and keeps per-kind errors and failures."""

    def __init__(self):
        import oracles

        self.oracles = oracles
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.errors: dict[str, tuple[float, str]] = {}  # kind -> (worst error, oracle)

    def __call__(self, job, rc: int, stdout: str, stderr: str) -> None:
        err, reason = self.oracles.check(job, rc, stdout, stderr)
        self.attempted += 1
        if reason:
            self.failures.append((job.label, reason))
        elif job.oracle != "expected-error":
            worst = self.errors.get(job.kind, (0.0, job.oracle))[0]
            self.errors[job.kind] = (max(worst, err), job.oracle)
        if job.out is not None and os.path.exists(job.out):
            os.unlink(job.out)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> list[tuple[str, str]]:
        return [(label, why) for label, why in self.failures
                if label.split(" ")[0] not in KNOWN_DEFECTS]

    def report(self) -> list[str]:
        lines = [f"# failed {self.failed}/{self.attempted} "
                 f"(failed_ratio {self.failed / max(self.attempted, 1):.4f})"]
        for label, why in sorted(set(self.failures)):
            note = KNOWN_DEFECTS.get(label.split(" ")[0])
            lines.append(f"#   FAIL {label}: {why}" + (f"  [known: {note}]" if note else ""))
        for kind, (err, oracle) in sorted(self.errors.items()):
            tol = self.oracles.TOLERANCES[oracle]
            lines.append(f"#   ok   {kind:32s} error {err:9.2e}  tolerance {tol:.0e}")
        return lines


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n, n


def measure(workload: str, seed: int, seconds: float, workdir: str, launcher: Launcher):
    import numpy as np

    setups = []
    for _ in range(SETUP_REPEATS):
        joblist, spent = setup(workload, seed, workdir)
        setups.append(spent)
    passes = max(1, round(seconds / NOMINAL_PASS_S))
    checker = Checker()
    samples: list[list[tuple[float, float]]] = [[] for _ in joblist]  # (wall, cpu) by pass
    rss = []
    for p in range(passes):
        order = np.random.default_rng([seed, p]).permutation(len(joblist))
        results = []
        for i in order:
            paths = (os.path.join(workdir, f"{i}.out"), os.path.join(workdir, f"{i}.err"))
            results.append((i, paths, launcher.run(joblist[i], *paths)))
        for i, (out, err), (rc, wall, cpu, maxrss) in results:
            samples[i].append((wall, cpu))
            rss.append(maxrss)
            checker(joblist[i], rc, _read(out), _read(err))
    pass_walls = [sum(s[p][0] for s in samples) for p in range(passes)]
    pass_cpus = [sum(s[p][1] for s in samples) for p in range(passes)]
    job_walls = [w for s in samples for w, _ in s]
    value, pct, n = tail(job_walls)
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "job_p50_s": statistics.median(job_walls),
        "job_tail_s": value,
        "cpu_s": statistics.median(pass_cpus),
        "peak_rss_mb": max(rss) / 1024.0,
        "ok_ratio": 1.0 - checker.failed / checker.attempted,
        "setup_s": statistics.median(setups),
    }
    notes = [f"# job_tail_s is p{pct:.1f} of {n} job samples",
             "# pass walls " + ", ".join(f"{w:.3f}" for w in pass_walls)
             + " s; setups " + ", ".join(f"{s:.3f}" for s in setups) + " s"]
    for i in sorted(range(len(joblist)), key=lambda i: -statistics.median(w for w, _ in samples[i])):
        walls = [w for w, _ in samples[i]]
        notes.append(f"#   job {joblist[i].label + ' ' + joblist[i].fmt:44s} wall "
                     + ", ".join(f"{w:.3f}" for w in walls) + " s")
    return metrics, checker, len(joblist), passes, notes


# ---------------------------------------------------------------------------
# Traced run: the same jobs in process, plain and with spans
# ---------------------------------------------------------------------------

def startup_probes(repeats: int = 3) -> dict[str, float]:
    """Interpreter start and import times from fresh interpreters."""
    env = child_env()
    bare, imports, scipy_imports = [], [], []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ecodyn.cli"],
                              env=env, check=True, capture_output=True, text=True)
        imports.append(_outermost(proc.stderr, "ecodyn"))
        scipy_imports.append(_outermost(proc.stderr, "scipy"))
    return {"startup.interpreter_s": statistics.median(bare),
            "startup.import_s": statistics.median(imports),
            "startup.import_scipy_s": statistics.median(scipy_imports)}


_IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)")


def _outermost(stderr: str, package: str) -> float:
    """Cumulative seconds of the outermost imports of ``package`` in
    `-X importtime` output (children precede their parents)."""
    total, depth_of_parent = 0.0, None
    for line in reversed(stderr.splitlines()):
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        depth = len(m.group(2)) // 2
        name = m.group(3)
        if depth_of_parent is not None and depth > depth_of_parent:
            continue  # inside an outermost import already counted
        depth_of_parent = None
        if name == package or name.startswith(package + "."):
            total += int(m.group(1)) / 1e6
            depth_of_parent = depth
    return total


def in_process(joblist, checker, tracer, with_plain: bool) -> tuple[float, float]:
    """Run each job in this interpreter with spans on, and with ``with_plain``
    also with spans off, in alternating order so that neither side always
    pays for first-time costs.  Returns (plain, traced) seconds."""
    import inproc

    seconds = {False: 0.0, True: 0.0}
    for i, job in enumerate(joblist):
        modes = ((False, True) if i % 2 == 0 else (True, False)) if with_plain else (True,)
        for with_spans in modes:
            if with_spans:
                tracer.job = i
                tracer.install()
            try:
                rc, out, err, spent = inproc.run_one(job.driver, job.argv)
            finally:
                tracer.uninstall()
            seconds[with_spans] += spent
            checker(job, rc, out, err)
    return seconds[False], seconds[True]


def traced(workload: str, seed: int, workdir: str):
    import spans

    joblist, _ = setup(workload, seed, workdir)
    metrics = startup_probes()
    checker = Checker()

    tracer = spans.Tracer()
    plain, traced_s = in_process(joblist, checker, tracer, with_plain=True)
    metrics.update(spans.layer_metrics(tracer.spans, traced_s))
    metrics["trace.overhead_ratio"] = traced_s / plain
    lines = [f"# in-process pass: plain {plain:.3f} s, traced {traced_s:.3f} s; "
             f"{metrics['trace.attributed_share']:.1%} attributed to named layers"]
    lines += layer_report(tracer.spans, joblist)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", f"spans-{workload}-{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"jobs": [j.label for j in joblist],
                   "spans": [dict(zip(("name", "start", "end", "parent", "attrs", "job"), s))
                             for s in tracer.spans]}, fh)
    return metrics, checker, len(joblist), lines


def layer_report(span_list, joblist) -> list[str]:
    import spans

    lines = ["# self time (s) per layer, by job kind and size; top spans in brackets",
             "# " + f"{'group':42s}" + "".join(f"{layer:>9s}" for layer in spans.LAYERS)]
    for label, by_name in spans.group_table(span_list, joblist):
        per_layer = {layer: 0.0 for layer in spans.LAYERS}
        for name, t in by_name.items():
            per_layer[name.split(".")[0]] += t
        top = sorted(by_name.items(), key=lambda kv: -kv[1])[:3]
        lines.append("# " + f"{label:42s}" + "".join(f"{per_layer[x]:9.3f}" for x in spans.LAYERS)
                     + "   [" + ", ".join(f"{n} {t:.3f}" for n, t in top) + "]")
    return lines


# ---------------------------------------------------------------------------
# Smoke: every job kind once, small, in process, oracles and tracing on
# ---------------------------------------------------------------------------

def smoke(seed: int) -> int:
    import jobs as jobs_mod
    import spans

    start = perf_counter()
    workdir = os.path.join(STATE, "smoke")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    joblist = jobs_mod.build_smoke(list(jobs_mod.KINDS), seed, workdir)
    checker = Checker()
    tracer = spans.Tracer()
    _, total = in_process(joblist, checker, tracer, with_plain=False)
    metrics = spans.layer_metrics(tracer.spans, total)
    shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(checker.report()))
    share = metrics["trace.attributed_share"]
    print(f"# {len(joblist)} job kinds in {perf_counter() - start:.2f} s; "
          f"{share:.1%} of in-process time attributed to named layers")
    ok = not checker.unexpected and share >= 0.9
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _result(checker, metrics: dict, units: dict) -> dict:
    return {
        "correct": not checker.unexpected,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def per_layer_units(metrics: dict) -> dict[str, str]:
    def unit(name: str) -> str:
        if name.endswith("_s"):
            return "s"
        if name.endswith(("_ratio", "_share")):
            return "ratio"
        if name.endswith("bytes_out"):
            return "bytes"
        return "count"

    return {name: unit(name) for name in sorted(metrics)}


def run_workload(workload: str, seed: int, seconds: float, launcher: Launcher | None) -> dict:
    """Traced in-process run when ``launcher`` is None, else the measured run."""
    trace = launcher is None
    workdir = os.path.join(STATE, f"work-{workload}-{seed}-{os.getpid()}")
    try:
        if trace:
            metrics, checker, per_pass, lines = traced(workload, seed, workdir)
            units = per_layer_units(metrics)
            passes = 1
        else:
            metrics, checker, per_pass, passes, lines = measure(workload, seed, seconds, workdir,
                                                                launcher)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = run_record(workload, seed, per_pass, passes)
    print("# run record " + json.dumps(record, sort_keys=True))
    print("\n".join(lines))
    print("\n".join(checker.report()))
    for name, unit in units.items():
        print(f"# {workload:11s} {name:38s} {metrics[name]:14.6g} {unit}")
    result = _result(checker, metrics, units)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", f"{'trace' if trace else 'run'}-{workload}-{seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result, "failures": checker.failures}, fh, indent=1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1,
                        help="1 is the development seed; 20260417 is held out for confirming claims")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every job kind once, in process")
    args = parser.parse_args()
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    os.environ.update(BLAS_THREADS)  # before numpy loads, so in-process runs match
    _require_sources()
    launcher = None if args.smoke or args.trace else Launcher()
    try:
        _import_program()
        if args.smoke:
            return smoke(args.seed)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, launcher) for w in workloads}
    finally:
        if launcher is not None:
            launcher.close()
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    names = list(results[WORKLOADS[0]]["metrics"])
    print("# " + f"{'metric':38s}{'unit':>7s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print("# " + f"{name:38s}{unit:>7s}"
              + "".join(f"{results[w]['metrics'][name]['value']:14.6g}" for w in WORKLOADS))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
