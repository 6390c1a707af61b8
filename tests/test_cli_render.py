"""Properties of the CLI's output helpers against the code they replaced:
the JSON writer against json.dumps of the old per-element sanitizer, and
the --demand-file row sampler against per-column np.interp."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecodyn import cli


def old_sanitize(obj):
    """The per-element sanitizer the CLI used before its JSON writer."""
    if isinstance(obj, dict):
        return {str(k): old_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [old_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": old_sanitize(float(obj.real)), "im": old_sanitize(float(obj.imag))}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def write_json(obj) -> str:
    chunks: list[str] = []
    cli._write_json(obj, "", chunks)
    return "".join(chunks)


special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308])
floats = st.floats(width=64) | special_floats
float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
    elements=floats,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    floats,
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True).map(np.complex128),
    st.text(),
    float_arrays,
    hnp.arrays(np.int64, st.integers(0, 3)),
    hnp.arrays(np.bool_, st.integers(0, 3)),
    hnp.arrays(np.complex128, st.integers(0, 2)),
)
keys = st.text(max_size=6) | st.integers(-3, 3)
payloads = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_json_writer_matches_json_dumps_of_old_sanitize(obj):
    expected = json.dumps(old_sanitize(obj), sort_keys=True, indent=2, ensure_ascii=False)
    assert write_json(obj) == expected


def test_json_writer_float_array_edges():
    cases = [
        np.array([math.nan, -math.inf, math.inf, -0.0, 1.5]),
        np.array([[1.0, math.nan], [-0.0, 2.0]]),
        np.empty(0),
        np.empty((0, 3)),
        np.empty((2, 0)),
        np.arange(6.0).reshape(2, 3)[:, 1],  # strided view
        {"a": np.ones((1, 1)), "b": [np.array([math.nan])]},
    ]
    for obj in cases:
        expected = json.dumps(old_sanitize(obj), sort_keys=True, indent=2, ensure_ascii=False)
        assert write_json(obj) == expected


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal to 0 ulp: identical bits, except that any NaN equals any NaN."""
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


# --demand-file rejects a table that is not finite before it is sampled; the
# values near the float limit make a finite table's slope infinite
table_values = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.7e308, -1.7e308])


@settings(max_examples=300, deadline=None)
@given(steps=st.integers(1, 40), n=st.integers(1, 5), data=st.data())
def test_row_sampler_matches_np_interp(steps, n, data):
    table = data.draw(hnp.arrays(np.float64, (steps + 1, n), elements=table_values))
    t_nodes = np.linspace(0.0, 1.0, steps + 1)
    k = data.draw(st.integers(0, steps - 1))
    times = [
        0.0,
        1.0,
        float(t_nodes[k]),
        float(t_nodes[k + 1]),
        float(0.5 * (t_nodes[k] + t_nodes[k + 1])),
        data.draw(st.floats(0.0, 1.0)),
        data.draw(st.floats(float(t_nodes[k]), float(t_nodes[k + 1]))),
    ]
    sampler = cli._row_sampler(t_nodes, table)
    for t in times:
        expected = np.array([np.interp(t, t_nodes, table[:, j]) for j in range(n)])
        assert same_bits(sampler(t), expected), t
