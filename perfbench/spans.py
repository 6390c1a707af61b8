"""Spans around ecodyn's public functions, installed from outside the package.

``Tracer.install`` wraps every public function of each layer module at
every name a caller binds (module attributes, including re-exports such
as ``ecodyn.harrod.rk4_integrate``, and module-level dict values), the
CLI handlers reached through ``cli.COMMANDS``, and the few methods that
carry a per-layer metric.  ``uninstall`` puts the originals back.  A
span is ``[name, start, end, parent index, size attrs, job index]``; spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "odelin", "harrod", "allen", "longwave", "leontief", "fredholm", "dims")


def _n_nodes(args, result):
    return {"nodes": args["self"].rule.n}


def _offnode(args, result):
    return {"nodes": args["self"].disc.rule.n}


def _rk4(args, result):
    return {"steps": args["grid"].steps * args.get("substeps", 1)}


def _rendered(args, result):
    return {"bytes": len(result)}  # the renderers emit ASCII


def _exit_code(args, result):
    return {"rc": result}


def _static(args, result):
    return {"iterations": result[1].iterates if result[1] else 0}


def _char_numbers(args, result):
    return {"kept": len(result.characteristic_numbers), "eigenvalues": args["disc"].rule.n}


# Size attributes recorded per span, computed from arguments and results.
ATTRS = {
    "odelin.rk4_integrate": _rk4,
    "cli.render_csv": _rendered,
    "cli.render_json": _rendered,
    "cli.run": _exit_code,
    "leontief.static_solve": _static,
    "fredholm.char_numbers": _char_numbers,
    "fredholm.assemble": _n_nodes,
    "fredholm.offnode_eval": _offnode,
}

# (class, method, span name) for methods that carry a per-layer metric.
METHODS = (
    ("NystromDiscretization", "__init__", "fredholm.assemble"),
    ("NystromDiscretization", "weighted_eigs", "fredholm.weighted_eigs"),
    ("NystromSolution", "__call__", "fredholm.offnode_eval"),
    ("VolterraReduction", "solve", "fredholm.volterra_reduction_solve"),
    ("FredholmReduction", "solve", "fredholm.two_point_solve"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None, self.job]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4] = attrs(bound.arguments, result)
            return result

        return wrapper

    def _set(self, container, key, value):
        if isinstance(container, dict):
            self._undo.append((container, key, container[key]))
            container[key] = value
        else:
            self._undo.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def install(self) -> None:
        package = importlib.import_module("ecodyn")
        modules = {layer: importlib.import_module(f"ecodyn.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj)
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._set(obj, key, wrapped[value])
        commands = modules["cli"].COMMANDS
        for key, cmd in list(commands.items()):
            handler = self.wrap("cli.handler", cmd.handler)
            self._set(commands, key, dataclasses.replace(cmd, handler=handler))
        for cls_name, method, name in METHODS:
            cls = getattr(modules["fredholm"], cls_name)
            self._set(cls, method, self.wrap(name, vars(cls)[method]))

    def uninstall(self) -> None:
        while self._undo:
            container, key, value = self._undo.pop()
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)


def self_times(spans) -> list[float]:
    """Span duration minus the time its (sequential) child spans cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# per-layer metric -> the span name whose self time it sums
SELF_METRICS = {
    "cli.build_parser_s": "cli.build_parser",
    "cli.run_self_s": "cli.run",
    "cli.handler_self_s": "cli.handler",
    "cli.render_csv_s": "cli.render_csv",
    "cli.render_json_s": "cli.render_json",
    "cli.write_atomic_s": "cli.write_atomic",
    "odelin.rk4_integrate_s": "odelin.rk4_integrate",
    "odelin.analytic_solution_s": "odelin.analytic_solution",
    "odelin.char_roots_s": "odelin.char_roots",
    "harrod.classical_trajectory_s": "harrod.classical_trajectory",
    "harrod.corrected_trajectory_s": "harrod.corrected_trajectory",
    "harrod.discrete_path_s": "harrod.discrete_path",
    "allen.phillips_solve_s": "allen.phillips_solve",
    "allen.bergstrom_capital_solve_s": "allen.bergstrom_capital_solve",
    "allen.harrod_domar_trajectory_s": "allen.harrod_domar_trajectory",
    "allen.multiplier_trajectory_s": "allen.multiplier_trajectory",
    "allen.scale_invariance_check_s": "allen.scale_invariance_check",
    "longwave.lw_simulate_s": "longwave.lw_simulate",
    "longwave.lw_classify_s": "longwave.lw_classify",
    "leontief.static_solve_s": "leontief.static_solve",
    "leontief.metzler_check_s": "leontief.metzler_check",
    "leontief.dynamic_solve_s": "leontief.dynamic_solve",
    "leontief.volterra_solve_s": "leontief.volterra_solve",
    "fredholm.assemble_s": "fredholm.assemble",
    "fredholm.guard_eigs_s": "fredholm.weighted_eigs",
    "fredholm.nystrom_solve_self_s": "fredholm.nystrom_solve",
    "fredholm.char_numbers_s": "fredholm.char_numbers",
    "fredholm.sweep_s": "fredholm.param_singularity_sweep",
    "fredholm.volterra_reduction_solve_s": "fredholm.volterra_reduction_solve",
    "fredholm.two_point_solve_s": "fredholm.two_point_solve",
    "fredholm.offnode_eval_s": "fredholm.offnode_eval",
    "dims.check_relation_s": "dims.check_relation",
}

# counts and ratios derived from span attributes
DERIVED_METRICS = (
    "cli.bytes_out", "cli.exit2_count", "cli.exit3_count", "odelin.rk4_steps",
    "harrod.cross_check_share", "leontief.static_iterations", "fredholm.kernel_evals",
    "fredholm.char_pairs_kept_ratio", "fredholm.offnode_evals",
)


def layer_metrics(spans, job_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose jobs took ``job_seconds``
    in process (the sum of the harness's per-job timings)."""
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for record, t in zip(spans, own):
        by_name[record[0]] += t
    out = {m: by_name[name] for m, name in SELF_METRICS.items()}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in by_name.items() if n.split(".")[0] == layer)

    counts: dict[str, float] = defaultdict(float)
    check_parent = check_rk4 = 0.0
    for i, (name, start, end, parent, attrs, _) in enumerate(spans):
        attrs = attrs or {}
        if name in ("cli.render_csv", "cli.render_json"):
            counts["cli.bytes_out"] += attrs.get("bytes", 0)
        elif name == "cli.run" and attrs.get("rc") in (2, 3):
            counts[f"cli.exit{attrs['rc']}_count"] += 1
        elif name == "odelin.rk4_integrate":
            counts["odelin.rk4_steps"] += attrs.get("steps", 0)
            if parent >= 0 and spans[parent][0] in (
                    "harrod.classical_trajectory", "harrod.corrected_trajectory"):
                check_rk4 += end - start
        elif name in ("harrod.classical_trajectory", "harrod.corrected_trajectory"):
            check_parent += end - start
        elif name == "leontief.static_solve":
            counts["leontief.static_iterations"] += attrs.get("iterations", 0)
        elif name == "fredholm.assemble":
            counts["fredholm.kernel_evals"] += attrs.get("nodes", 0) ** 2
        elif name == "fredholm.offnode_eval":
            counts["fredholm.kernel_evals"] += attrs.get("nodes", 0)
            counts["fredholm.offnode_evals"] += 1
        elif name == "fredholm.char_numbers":
            counts["kept"] += attrs.get("kept", 0)
            counts["eigenvalues"] += attrs.get("eigenvalues", 0)
    counts["harrod.cross_check_share"] = check_rk4 / check_parent if check_parent else 0.0
    counts["fredholm.char_pairs_kept_ratio"] = (
        counts["kept"] / counts["eigenvalues"] if counts["eigenvalues"] else 0.0)
    out.update({m: float(counts[m]) for m in DERIVED_METRICS})
    attributed = sum(own)
    out["trace.unattributed_s"] = job_seconds - attributed
    out["trace.attributed_share"] = attributed / job_seconds if job_seconds else 0.0
    return out


def group_table(spans, jobs) -> list[tuple[str, dict[str, float]]]:
    """Self time per span name, summed per (job kind, size) group."""
    own = self_times(spans)
    groups: dict[str, dict[str, float]] = {}
    for record, t in zip(spans, own):
        job = jobs[record[5]]
        key = job.label
        groups.setdefault(key, defaultdict(float))[record[0]] += t
    return sorted(groups.items())
