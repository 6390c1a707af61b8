import math

import numpy as np
import pytest

from ecodyn.errors import ValidationError, _require


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

    def test_a_numpy_scalar_is_reported_as_a_plain_float(self):
        assert str(rejection("finite", mu=np.float64("inf"))) == "mu must be finite, got inf"
