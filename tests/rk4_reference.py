"""The general RK4 integrator the tests use as the reference for
``harrod._rk4_growth``, the scalar RK4 of Harrod's closed-form
cross-checks, and as an independent integration of the companion systems
that ``odelin.linear_flow`` steps exactly.

It takes any first-order system as a Python right-hand side and applies
the four RK4 stages literally, so it shares no code with the folded step
gains of ``_rk4_growth`` or with the exact flow.  The tight accuracy
checks of ``linear_flow`` are made against the matrix exponential
(``conftest.expm``) instead.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ecodyn.errors import BlowUpError, ValidationError
from ecodyn.odelin import TimeGrid, Trajectory


def rk4_integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    x0: Sequence[float],
    grid: TimeGrid,
    labels: Sequence[str] | None = None,
    substeps: int = 1,
) -> Trajectory:
    """Classical fixed-step fourth-order Runge-Kutta; global error O(h^4).

    ``substeps`` subdivides every grid step internally while recording
    only the grid nodes.  A non-finite state raises BlowUpError carrying
    the last valid node.
    """
    if substeps < 1:
        raise ValidationError("substeps must be >= 1", key="substeps")
    x = np.asarray(x0, dtype=float)
    if x.ndim == 0:
        x = x[None]
    d = x.shape[0]
    nodes = grid.nodes
    values = np.empty((grid.steps + 1, d))
    values[0] = x
    h = grid.h / substeps
    for k in range(grid.steps):
        t = nodes[k]
        for s in range(substeps):
            ts = t + s * h
            k1 = np.asarray(rhs(ts, x), dtype=float)
            k2 = np.asarray(rhs(ts + 0.5 * h, x + 0.5 * h * k1), dtype=float)
            k3 = np.asarray(rhs(ts + 0.5 * h, x + 0.5 * h * k2), dtype=float)
            k4 = np.asarray(rhs(ts + h, x + h * k3), dtype=float)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise BlowUpError(
                f"integration blew up between t={float(nodes[k])!r} and t={float(nodes[k + 1])!r}",
                t_last=float(nodes[k]),
                index_last=k,
                x_last=values[k].copy(),
            )
        values[k + 1] = x
    if labels is None:
        labels = [f"x{i}" for i in range(d)] if d > 1 else ["x"]
    return Trajectory(grid, values, tuple(labels))
