import math
import sys

import numpy as np
import pytest

from ecodyn.errors import NumericalError, ValidationError, _require, _require_finite_result


def rejection(range_, **values) -> ValidationError:
    with pytest.raises(ValidationError) as info:
        _require(range_, **values)
    return info.value


class TestRequire:
    @pytest.mark.parametrize("range_, value, wording", [
        ("positive", 0.0, "must be positive"),
        ("positive", -1.0, "must be positive"),
        ("nonnegative", -1e-300, "must be nonnegative"),
        ("(0, 1)", 0.0, "must lie in (0, 1)"),
        ("(0, 1)", 1.0, "must lie in (0, 1)"),
        ("[0, 1)", -0.5, "must lie in [0, 1)"),
        ("[0, 1)", 1.0, "must lie in [0, 1)"),
    ])
    def test_a_finite_value_outside_its_range(self, range_, value, wording):
        assert str(rejection(range_, mu=value)) == f"mu {wording}"

    @pytest.mark.parametrize("range_, value", [
        ("finite", -1e308),
        ("positive", 5e-324),
        ("nonnegative", 0.0),
        ("(0, 1)", 0.5),
        ("[0, 1)", 0.0),
    ])
    def test_a_value_inside_its_range_passes(self, range_, value):
        assert _require(range_, x=value) is None

    @pytest.mark.parametrize("range_", ["finite", "positive", "nonnegative", "(0, 1)", "[0, 1)"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_must_be_finite(self, range_, value):
        exc = rejection(range_, nu=value)
        assert str(exc) == f"nu must be finite, got {value!r}"
        assert exc.key == "nu"

    @pytest.mark.parametrize("name, key", [
        ("Y0", "y0"), ("nu_star", "nu-star"), ("t0_a", "t0-a"),
        ("discard_threshold", "discard-threshold"),
    ])
    def test_the_key_is_the_dashed_lower_case_name(self, name, key):
        exc = rejection("positive", **{name: 0.0})
        assert (str(exc), exc.key) == (f"{name} must be positive", key)

    def test_the_first_bad_value_in_argument_order_is_reported(self):
        exc = rejection("positive", t0=1.0, t_star=math.inf, Y0=-1.0)
        assert (str(exc), exc.key) == ("t_star must be finite, got inf", "t-star")
        exc = rejection("positive", t0=1.0, t_star=-1.0, Y0=math.nan)
        assert (str(exc), exc.key) == ("t_star must be positive", "t-star")

    @pytest.mark.parametrize("range_", ["finite", "positive", "nonnegative"])
    @pytest.mark.parametrize("value", [sys.maxsize + 1, -sys.maxsize - 1, 10**20, 10**400,
                                       -(10**400)])
    def test_an_int_beyond_sys_maxsize_is_out_of_range(self, range_, value):
        exc = rejection(range_, max_iter=value)
        assert str(exc) == f"max_iter must not exceed {sys.maxsize} in magnitude"
        assert exc.key == "max-iter"

    @pytest.mark.parametrize("value", [sys.maxsize, 1])
    def test_an_int_up_to_sys_maxsize_is_tested_for_its_range(self, value):
        assert _require("positive", steps=value) is None

    def test_a_numpy_scalar_is_reported_as_a_plain_float(self):
        assert str(rejection("finite", mu=np.float64("inf"))) == "mu must be finite, got inf"


class TestRequireFiniteResult:
    def test_finite_values_pass(self):
        assert _require_finite_result(a=1e308, b=(0.0, -1.0), m=np.ones((2, 2))) is None

    @pytest.mark.parametrize("value, shown", [
        (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
        ((1.0, math.inf), "inf"), (np.array([[1.0, 2.0], [np.nan, np.inf]]), "nan"),
    ])
    def test_the_first_entry_that_is_not_finite_is_shown(self, value, shown):
        with pytest.raises(NumericalError) as info:
            _require_finite_result(coeff=value)
        assert str(info.value) == f"derived coefficient coeff is not finite, got {shown}"

    def test_the_first_bad_value_in_argument_order_is_reported(self):
        with pytest.raises(NumericalError, match="^derived coefficient b1 is not"):
            _require_finite_result(a1=1.0, b1=math.inf, c1=math.nan)
