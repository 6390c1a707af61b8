"""Two-point driver: solve z'' + z = 0 with z(0) = a and z(1) = a cos 1 + c sin 1
through ``FredholmReduction.solve``, which no CLI command reaches.

    python perfbench/twopoint.py --a 1.0 --c 0.0 --nodes 101

Prints the trajectory as JSON in the CLI's layout ({"data": {"columns": ...}})
and exits 0, or prints the error and exits 2 (rejected input) or 3
(numerical failure), like the CLI.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import ecodyn


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="twopoint")
    parser.add_argument("--a", type=float, required=True)
    parser.add_argument("--c", type=float, required=True)
    parser.add_argument("--nodes", type=int, default=101)
    parser.add_argument("--steps", type=int, default=200)
    ns = parser.parse_args(argv)
    z1 = ns.a * math.cos(1.0) + ns.c * math.sin(1.0)
    try:
        reduction = ecodyn.ode_to_integral(
            ecodyn.OdeSpec((1.0, 0.0, 1.0)), [(0, 0.0, ns.a), (0, 1.0, z1)]
        )
        sol = reduction.solve(n_nodes=ns.nodes, steps=ns.steps)
    except ecodyn.NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ecodyn.EcodynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    traj = sol.trajectory
    columns = {"t": traj.times.tolist(), "z": traj.values[:, 0].tolist(), "phi": sol.phi.tolist()}
    sys.stdout.write(json.dumps({"data": {"columns": columns}}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
