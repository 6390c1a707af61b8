"""Properties of the CLI's output helpers against the code they replaced:
the JSON writer against json.dumps of the old per-element sanitizer, the
block-wise CSV writer against the one-shot join, and the memory the
streamed output holds."""

import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
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
    return "".join(cli._json_chunks(obj, ""))


special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308])
floats = st.floats(width=64) | special_floats
# arrays long enough to cross blocks of the sizes the property patches in
float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7),
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
    hnp.arrays(np.int64, st.integers(0, 7)),
    hnp.arrays(np.bool_, st.integers(0, 7)),
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
@given(payloads, st.sampled_from([1, 2, 3, cli._BLOCK]))
def test_json_writer_matches_json_dumps_of_old_sanitize(obj, block):
    expected = json.dumps(old_sanitize(obj), sort_keys=True, indent=2, ensure_ascii=False)
    with mock.patch.object(cli, "_BLOCK", block):
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


B = cli._BLOCK
BLOCK_EDGE_ROWS = [0, 1, B - 1, B, B + 1, 2 * B + 1]


def table(rows: int) -> cli.Output:
    """Int columns as the CLI makes them (years, components, flags) beside
    float columns with every float class: tiny, huge, negative zero and
    the non-finite values."""
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    x[::7] = -0.0
    x[3::11] = 5e-324
    specials = [math.nan, math.inf, -math.inf]
    for k, i in enumerate(range(0, rows, max(1, B // 2))):
        x[i] = specials[k % 3]
    columns = {
        "year": np.arange(rows),
        "component": np.arange(1, rows + 1),
        "flagged": rng.integers(0, 2, rows),
        "t": np.linspace(0.0, 1.0, rows),
        "x": x,
    }
    return cli.Output("table", {}, columns, {"columns": columns})


def one_shot_csv(output: cli.Output) -> str:
    """The CSV formula of the renderer before its output was streamed."""
    cells = [map(repr, col.tolist()) for col in output.columns.values()]
    return "\n".join([",".join(output.columns), *map(",".join, zip(*cells)), ""])


def emitted(chunks) -> list[str]:
    writes: list[str] = []
    cli._emit(chunks, writes.append)
    return writes


@pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
def test_csv_blocks_match_one_shot_join(rows):
    output = table(rows)
    expected = one_shot_csv(output)
    assert cli.render_csv(output) == expected
    writes = emitted(cli._csv_chunks(output))
    assert "".join(writes) == expected
    # every write but the last gathers at least _FLUSH_CHARS characters
    assert all(len(w) >= cli._FLUSH_CHARS for w in writes[:-1])


def wide_table(rows: int, width: int) -> cli.Output:
    """``width`` columns cycled from the five of ``table(rows)``."""
    base = itertools.cycle(table(rows).columns.items())
    columns = {f"{name}{k}": col for k, (name, col) in zip(range(width), base)}
    return cli.Output("table", {}, columns, {"columns": columns})


# a CSV block holds about B cells in whole rows: B // width of them
WIDTH_EDGES = [(w, rows) for w in (1, 5, 51, 201)
               for rows in (B // w - 1, B // w, B // w + 1)]


@pytest.mark.parametrize("width, rows", WIDTH_EDGES)
def test_csv_cell_blocks_match_one_shot_join(width, rows):
    output = wide_table(rows, width)
    expected = one_shot_csv(output)
    assert cli.render_csv(output) == expected
    pieces = list(cli._csv_chunks(output))
    assert len(pieces) == 1 + math.ceil(rows / (B // width))  # the header, then the blocks
    writes = emitted(pieces)
    assert "".join(writes) == expected
    assert all(len(w) >= cli._FLUSH_CHARS for w in writes[:-1])


@pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
def test_json_blocks_match_json_dumps(rows):
    output = table(rows)
    x = output.columns["x"]
    for i in (0, B - 1, B, B + 1, 2 * B):  # block edges
        if i < rows:
            x[i] = (math.nan, math.inf, -math.inf)[i % 3]
    expected = json.dumps(old_sanitize(output.data), sort_keys=True, indent=2,
                          ensure_ascii=False)
    assert write_json(output.data) == expected
    document = "".join(emitted(cli._json_document(output)))
    assert document == cli.render_json(output)
    data = json.loads(document)["data"]
    assert data == json.loads(expected)
    nulls = [i for i, v in enumerate(data["columns"]["x"]) if v is None]
    assert nulls == np.flatnonzero(~np.isfinite(x)).tolist()


# a fixed bound, below the size of the 200 000-row documents themselves (4.9
# MiB of CSV, 8.3 MiB of JSON): the text held at once does not grow with the
# rows.  Nor with the columns: a CSV block is about B cells whatever the
# table's width, so any CSV write holds under CSV_PEAK_BYTES (rendered B rows
# at a time, a 4097 x 201 table held 71 MiB)
STREAM_PEAK_BYTES = 4 * 2**20
CSV_PEAK_BYTES = 2**20


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [50_000, 200_000])
def test_streamed_output_holds_a_bounded_amount(tmp_path, fmt, rows):
    columns = {"year": np.arange(rows), "t": np.linspace(0.0, 1.0, rows)}
    output = cli.Output("table", {}, columns, {"columns": columns})
    chunks = cli._csv_chunks(output) if fmt == "csv" else cli._json_document(output)
    target = tmp_path / f"out.{fmt}"
    tracemalloc.start()
    try:
        cli.write_atomic(str(target), chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STREAM_PEAK_BYTES
    # the bytes of each block are pinned above; here, that every row arrived
    text = target.read_text(encoding="utf-8")
    if fmt == "csv":
        assert text.count("\n") == rows + 1 and text.endswith(f"\n{rows - 1},1.0\n")
    else:
        assert json.loads(text)["data"]["columns"]["year"] == list(range(rows))


@pytest.mark.parametrize("rows, width", [(1001, 51), (4097, 201)])
def test_csv_write_holds_a_bounded_amount_at_any_width(tmp_path, rows, width):
    rng = np.random.default_rng(width)
    columns = {f"c{k}": rng.standard_normal(rows) for k in range(width)}
    output = cli.Output("table", {}, columns, {"columns": columns})
    target = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        cli.write_atomic(str(target), cli._csv_chunks(output))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CSV_PEAK_BYTES
    with target.open(encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == rows + 1


# ---------------------------------------------------------------------------
# Float cells: every byte is repr's
# ---------------------------------------------------------------------------

def from_bits(bits: int) -> float:
    return float(np.array(bits, np.uint64).view(np.float64))


# two draws of float64 values: raw 64-bit patterns, which reach every
# exponent and mantissa evenly, and hypothesis's floats, which favour edges
raw_floats = st.integers(0, 2**64 - 1).map(from_bits)
cell_floats = raw_floats | st.floats()


def edge_floats() -> np.ndarray:
    """Zero, the least subnormal, the least normal, the greatest finite
    number, every power of 2 and of 10 in range with both neighbours, the
    ends of the fixed form (1e-05 and 0.0001, 9999999999999998.0 and
    1e+16), and exact ties at the 17th significant digit (2**50 + odd/4,
    whose tenfold is a half-integer), each with both signs."""
    values = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              1e-5, 1e-4, 9999999999999998.0, 1e16]
    powers = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    powers += [float(f"1e{e}") for e in range(-323, 309)]
    for x in powers:
        values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    values += [2.0**50 + (2 * j + 1) / 4 for j in range(200)]
    values = np.array(values)
    return np.concatenate([values, -values])


EDGES = edge_floats()


def float_table(values: np.ndarray, width: int, with_int: bool) -> cli.Output:
    """``values`` in ``width`` float columns, row by row (the last row
    padded with its first values), after an int column if ``with_int``."""
    rows = -(-len(values) // width)
    cells = np.resize(values, rows * width) if len(values) else np.empty(0)
    grid = cells.reshape(rows, width)
    columns = {"year": np.arange(rows)} if with_int else {}
    columns.update((f"x{j}", grid[:, j]) for j in range(width))
    return cli.Output("table", {}, columns, {"columns": columns})


def assert_cells_are_repr(output: cli.Output) -> None:
    """CSV cells are repr's bytes; JSON cells too, with null where the
    value is not finite."""
    assert cli.render_csv(output) == one_shot_csv(output)
    meta = {"command": output.command, "params": output.params, "version": cli.__version__}
    document = {"meta": meta, "data": old_sanitize(output.data)}
    expected = json.dumps(document, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert cli.render_json(output) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(cell_floats, max_size=60), st.sampled_from([1, 5, 101]), st.booleans(),
       st.sampled_from([1, 2, 7, cli._BLOCK]))
def test_float_cells_are_repr(values, width, with_int, block):
    output = float_table(np.array(values, dtype=np.float64), width, with_int)
    with mock.patch.object(cli, "_BLOCK", block):
        assert_cells_are_repr(output)


@pytest.mark.parametrize("width, with_int", [(1, False), (5, True), (101, False), (101, True)])
def test_edge_floats_are_repr(width, with_int):
    assert_cells_are_repr(float_table(EDGES, width, with_int))


@pytest.mark.parametrize("length", [0, 1, B - 1, B, B + 1])
def test_float_blocks_are_repr(length):
    """A float column, and a JSON float array, of each length about one
    block: raw bit patterns among the edges."""
    bits = np.random.default_rng(length).integers(0, 2**64, length, dtype=np.uint64,
                                                   endpoint=False)
    values = bits.view(np.float64).copy()
    values[::2] = EDGES[: len(values[::2])]
    assert_cells_are_repr(float_table(values, 1, False))


def count_fallbacks(render, output: cli.Output) -> tuple[str, int, int, int]:
    """``render(output)`` with _repr_cells watched: the text, the kernel's
    calls, its cells, and the cells that went to repr."""
    calls = cells = fallbacks = 0
    kernel = cli._repr_cells

    def watched(values, seps, others, whole=None):
        nonlocal calls, cells

        def counted(idx):
            nonlocal fallbacks
            fallbacks += len(idx)
            return others(idx)

        calls += 1
        cells += len(values)
        return kernel(values, seps, counted, whole)

    with mock.patch.object(cli, "_repr_cells", watched):
        text = render(output)
    return text, calls, cells, fallbacks


def test_one_kernel_call_per_block():
    """All the cells of a block go through one call: 50 rows of an int
    column and 101 float columns, B // 102 rows a block."""
    output = float_table(np.linspace(0.0, 1.0, 101 * 50), 101, True)
    text, calls, cells, _ = count_fallbacks(cli.render_csv, output)
    assert text == one_shot_csv(output)
    assert calls == math.ceil(50 / (B // 102)) and cells == 50 * 102


@pytest.mark.parametrize("argv", [
    ["harrod", "--mu", "0.3", "--nu", "2.5", "--t-end", "20", "--steps", "100000"],
    ["longwave", "--p", "0.34", "--r", "0.3", "--t-end", "200", "--steps", "10000"],
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fast_path_renders_trajectories(argv, fmt):
    """Fewer than 1e-3 of a trajectory's cells go to repr: a kernel that
    gave every cell to repr would pass every test above."""
    ns = cli.build_parser(argv).parse_args(argv)
    output = cli.COMMANDS[ns.command].handler(ns)
    render = cli.render_csv if fmt == "csv" else cli.render_json
    _, _, cells, fallbacks = count_fallbacks(render, output)
    assert cells >= 4 * 10_000
    assert fallbacks < 1e-3 * cells


def test_scalar_rows_match_json_dumps():
    """Blocks of equal-length scalar tuples are joined whole; a block with
    a nested or shorter item is rendered item by item."""
    pairs = tuple(zip(range(1, 8), np.linspace(-1.0, 1.0, 7).tolist()))
    cases = [pairs, list(pairs[:3]) + [(1, [2.0]), (), (math.nan, None, "s")] + list(pairs)]
    for obj in cases:
        for block in (1, 2, 3, B):
            with mock.patch.object(cli, "_BLOCK", block):
                assert write_json({"x": obj}) == json.dumps(
                    old_sanitize({"x": obj}), sort_keys=True, indent=2, ensure_ascii=False)


def test_int_bool_and_float32_columns_are_repr():
    """An int column's cells below 2**53 in magnitude go through the kernel
    as floats less their ".0", and larger ones to repr, as do the cells of
    a bool column; a float32 column's cells are its values as float64."""
    ints = [0, 1, -1, 7, -10, 2**53 - 1, -(2**53 - 1), 2**53, -(2**53), 2**53 + 1,
            10**16, 2**63 - 1, -(2**63), 1234567890123456]
    rows = len(ints)
    columns = {
        "i": np.array(ints, np.int64),
        "u": np.array([2**64 - 1, 0, 1, 2**53 + 1] * (rows // 4) + [5] * (rows % 4), np.uint64),
        "i32": np.arange(-rows, rows, 2, dtype=np.int32),
        "b": np.arange(rows) % 3 == 0,
        "f32": np.linspace(-1.0, 1.0, rows, dtype=np.float32),
        "x": np.linspace(0.0, 1.0, rows),
    }
    output = cli.Output("table", {}, columns, {"columns": columns})
    assert cli.render_csv(output) == one_shot_csv(output)
