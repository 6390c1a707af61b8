"""Exception hierarchy shared by all ecodyn modules.

Two families matter to callers (and to the CLI exit-code mapping):
``ValidationError`` for rejected inputs and violated preconditions, and
``NumericalError`` for failures that arise while computing (poles,
blow-ups, non-convergence, spectrum proximity).

Every scalar model parameter is checked by ``_require``: a value that is
NaN or infinite fails as "must be finite", and a finite value outside the
parameter's range fails with the range's wording.  Both name the
parameter and key it by its CLI flag (lower case, dashes for
underscores), so the finiteness rule, the wording and the key spelling
live here alone.  Counts go through it too: a step, substep, iteration,
sweep, node or truncation-order count is "positive" and a year count
"nonnegative".  An integer beyond ``sys.maxsize`` in magnitude
indexes no array and may lie beyond the float range: it is rejected
before any range test, by a message that never converts it to float.  A
count within that bound whose arrays do not fit in memory fails where
they are allocated, with MemoryError; from 2^59 entries, which numpy
refuses as too big or wraps, ``_require_array_length`` raises it without
allocating, before a ``TimeGrid``'s nodes, ``discrete_path``'s years, a
quadrature rule or a sweep's mu grid.  Every march takes its nodes and
step from ``odelin.TimeGrid``, which checks its count and ends before any
work runs.  The count
rules that stay special are Simpson's odd count >= 3 for the Nystrom rule
of the catalogue kernels; the two-point collocation's >= 2
Chebyshev-Lobatto nodes, checked after "positive";
``leontief.volterra_solve``'s >= 4 steps for its half-resolution rerun;
``dynamic_solve``'s truncation orders 1 and 2; and the
``ECODYN_DEFAULT_STEPS`` parse, which is keyed by the variable's name.

A coefficient formed from finite parameters can still leave the float
range (mu/nu at a subnormal nu, gamma*lam at 1e200 each).
``_require_finite_result`` names the first such coefficient where it is
formed and raises a ``NumericalError``, before a root finder, a substep
count or a warning meets the infinity.
"""

import math
import sys


class EcodynError(Exception):
    """Base class for all ecodyn errors."""


class ValidationError(EcodynError):
    """Rejected input or violated precondition.

    ``key`` optionally names the offending parameter for CLI messages.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


# range -> (test of a finite value, wording of its failure)
_RANGES = {
    "finite": (lambda x: True, ""),
    "positive": (lambda x: x > 0.0, "must be positive"),
    "nonnegative": (lambda x: x >= 0.0, "must be nonnegative"),
    "(0, 1)": (lambda x: 0.0 < x < 1.0, "must lie in (0, 1)"),
    "[0, 1)": (lambda x: 0.0 <= x < 1.0, "must lie in [0, 1)"),
}


def _require(range_: str, **values: float) -> None:
    """Reject the first of ``values``, in argument order, that is not finite
    or lies outside ``range_`` (a key of ``_RANGES``)."""
    inside, wording = _RANGES[range_]
    for name, value in values.items():
        key = name.lower().replace("_", "-")
        # an int is exact and may lie beyond the float range: never float() it
        if isinstance(value, int) and abs(value) > sys.maxsize:
            raise ValidationError(f"{name} must not exceed {sys.maxsize} in magnitude", key=key)
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {float(value)!r}", key=key)
        if not inside(value):
            raise ValidationError(f"{name} {wording}", key=key)


def _require_array_length(n: int, what: str) -> None:
    """MemoryError for ``n`` entries of ``what`` beyond 1/16 of the largest
    array size in bytes: room for two float64 columns of that length."""
    if n > sys.maxsize // 16:
        raise MemoryError(f"Unable to allocate {n} {what}: more bytes than an array can hold")


def _require_finite_result(**values) -> None:
    """Reject the first of ``values``, in argument order, that is not
    finite or, as a tuple or an array, holds an entry that is not."""
    for name, value in values.items():
        entries = getattr(value, "flat", value if isinstance(value, tuple) else (value,))
        bad = next((x for x in entries if not math.isfinite(x)), None)
        if bad is not None:
            raise NumericalError(f"derived coefficient {name} is not finite, got {float(bad)!r}")


class StructuralError(ValidationError):
    """Malformed expression tree or container."""


class DegenerateDataError(ValidationError):
    """Data that makes the problem singular (e.g. a boundary placement that
    leaves a constant of the two-point reduction free)."""


class NumericalError(EcodynError):
    """Failure during numerical evaluation; maps to CLI exit code 3."""


class PoleError(NumericalError):
    """A requested grid crosses a pole of the solution."""

    def __init__(self, message: str, pole_location: float):
        super().__init__(message)
        self.pole_location = pole_location


class BlowUpError(NumericalError):
    """Integration produced a non-finite value.

    Carries the last node where the state was still finite.
    """

    def __init__(self, message: str, t_last: float, index_last: int, x_last):
        super().__init__(message)
        self.t_last = t_last
        self.index_last = index_last
        self.x_last = x_last


class NonConvergenceError(NumericalError):
    """Iterative scheme exceeded its iteration budget."""

    def __init__(self, message: str, log=None):
        super().__init__(message)
        self.log = log


class SingularMatrixError(NumericalError):
    """A direct linear solve met a numerically singular matrix."""


class SpectrumProximityError(NumericalError):
    """1/lambda too close to an eigenvalue of the discretized kernel, or,
    for the two-point reduction, its collocation matrix numerically
    singular at lambda = 1 (sigma_min/sigma_max below the tolerance)."""

    def __init__(self, message: str, nearest_characteristic_number: complex):
        super().__init__(message)
        self.nearest_characteristic_number = nearest_characteristic_number


class ResolutionError(NumericalError):
    """Grid too coarse: a march drifts by more than 10% from its rerun on
    half the steps, or its values are too small to hold that bound; or the
    two-point collocation's nodes leave phi's Chebyshev tail above 1e-8."""


class CrossCheckError(NumericalError):
    """Closed-form result and its independent integration disagree."""
