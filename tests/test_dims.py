import keyword
import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecodyn import cli, dims
from ecodyn.dims import (
    DIMENSIONLESS,
    FLOW,
    MONEY,
    TIME,
    Dimension,
    DimExpr,
    check_relation,
    parse_dims,
    parse_relation,
    var,
)
from ecodyn.errors import StructuralError, ValidationError


def test_base_constants():
    assert MONEY == Dimension(1, 0)
    assert TIME == Dimension(0, 1)
    assert DIMENSIONLESS == Dimension(0, 0)
    assert FLOW == Dimension(1, -1)


def test_dimension_arithmetic():
    assert MONEY / TIME == FLOW
    assert FLOW * TIME == MONEY
    assert (MONEY * MONEY).money_exp == 2
    assert FLOW.integrated_dt() == MONEY
    assert MONEY.differentiated_dt() == FLOW


def test_rendering():
    assert FLOW.render() == "$·s^-1"
    assert MONEY.render() == "$"
    assert TIME.render() == "s"
    assert DIMENSIONLESS.render() == "1"
    assert Dimension(2, -3).render() == "$^2·s^-3"


def test_capital_growth_equals_investment_consistent():
    # Kdot = I with K a stock and I a flow: both sides are $/s
    K = var("K", MONEY)
    I = var("I", FLOW)
    report = check_relation(K.derivative_dt(), I)
    assert report.consistent
    assert report.lhs_dim == FLOW
    assert report.rhs_dim == FLOW


def test_stock_equals_flow_inconsistent():
    # K = nu*Y with dimensionless nu: $ vs $/s
    K = var("K", MONEY)
    nu = var("nu", DIMENSIONLESS)
    Y = var("Y", FLOW)
    report = check_relation(K, nu * Y)
    assert not report.consistent
    assert report.lhs_dim == MONEY
    assert report.rhs_dim == FLOW
    assert report.first_violation is not None


def test_stock_equals_integrated_flow_consistent():
    K = var("K", MONEY)
    nu = var("nu", DIMENSIONLESS)
    Y = var("Y", FLOW)
    report = check_relation(K, nu * Y.integral_dt())
    assert report.consistent


def test_goodwin_stock_flow_time_mix_inconsistent():
    # K = nu*Y + a*t with a itself a flow: the sum mixes $/s and $
    K = var("K", MONEY)
    nu = var("nu", DIMENSIONLESS)
    Y = var("Y", FLOW)
    a = var("a", FLOW)
    t = var("t", TIME)
    report = check_relation(K, nu * Y + a * t)
    assert not report.consistent
    violation = report.first_violation
    assert violation is not None
    assert violation.side == "rhs"
    assert violation.left_dim == FLOW
    assert violation.right_dim == MONEY


def test_nu_tagging_resolves_both_ways():
    # tagging nu with TIME makes K = nu*Y consistent; DIMENSIONLESS breaks it
    K = var("K", MONEY)
    Y = var("Y", FLOW)
    assert check_relation(K, var("nu", TIME) * Y).consistent
    assert not check_relation(K, var("nu", DIMENSIONLESS) * Y).consistent


def test_verdict_symmetric_in_sides():
    K = var("K", MONEY)
    Y = var("Y", FLOW)
    nu = var("nu", DIMENSIONLESS)
    assert (
        check_relation(K, nu * Y).consistent
        == check_relation(nu * Y, K).consistent
    )
    lhs = var("a", FLOW) + var("b", FLOW)
    rhs = var("c", FLOW)
    assert check_relation(lhs, rhs).consistent == check_relation(rhs, lhs).consistent


def test_derivative_of_integral_restores_dimension():
    Y = var("Y", FLOW)
    expr = Y.integral_dt().derivative_dt()
    report = check_relation(expr, Y)
    assert report.consistent
    assert report.lhs_dim == FLOW


def test_violation_reports_first_offending_node():
    bad = var("a", MONEY) + var("b", TIME)
    report = check_relation(bad * var("c", FLOW), var("d", FLOW))
    v = report.first_violation
    assert v is not None
    assert "a + b" in v.expr
    assert v.path == (0,)


def test_malformed_tree_rejected():
    with pytest.raises(StructuralError):
        dims.DimExpr("add", children=(var("a", MONEY),))
    with pytest.raises(StructuralError):
        dims.DimExpr("leaf", name="x", dim=None)
    with pytest.raises(StructuralError):
        dims.DimExpr("frobnicate", children=(var("a", MONEY), var("b", MONEY)))
    with pytest.raises(StructuralError):
        var("a", MONEY) + 3  # type: ignore[operator]


def test_render_expressions():
    K = var("K", MONEY)
    Y = var("Y", FLOW)
    nu = var("nu", DIMENSIONLESS)
    assert (nu * Y.integral_dt()).render() == "nu*int(Y)dt"
    assert (K.derivative_dt()).render() == "d(K)/dt"
    assert ((K + K) * Y).render() == "(K + K)*Y"


# ---------------------------------------------------------------------------
# The relation grammar
# ---------------------------------------------------------------------------

NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True).filter(
    lambda name: not keyword.iskeyword(name))
DIMENSIONS = st.builds(Dimension, st.integers(-3, 3), st.integers(-3, 3))
BINARY = {"add": ("+", operator.add), "sub": ("-", operator.sub),
          "mul": ("*", operator.mul), "div": ("/", operator.truediv)}
UNARY = {"integrate_dt": ("int", DimExpr.integral_dt),
         "differentiate_dt": ("ddt", DimExpr.derivative_dt)}


# tree shapes whose leaves index the entries of a table
SHAPES = st.recursive(st.integers(0, 5), lambda sub: st.one_of(
    st.tuples(st.sampled_from(sorted(BINARY)), sub, sub),
    st.tuples(st.sampled_from(sorted(UNARY)), sub),
), max_leaves=12)


def tree(shape, leaves: list) -> DimExpr:
    if isinstance(shape, int):
        return leaves[shape % len(leaves)]
    if shape[0] in UNARY:
        return UNARY[shape[0]][1](tree(shape[1], leaves))
    return BINARY[shape[0]][1](tree(shape[1], leaves), tree(shape[2], leaves))


def cli_text(expr: DimExpr) -> str:
    """``expr`` fully parenthesised in the --relation syntax."""
    if expr.op == "leaf":
        return expr.name
    if expr.op in UNARY:
        return f"{UNARY[expr.op][0]}({cli_text(expr.children[0])})"
    left, right = expr.children
    return f"({cli_text(left)} {BINARY[expr.op][0]} {cli_text(right)})"


@settings(deadline=None)
@given(table=st.dictionaries(NAMES, DIMENSIONS, min_size=1, max_size=6), lhs=SHAPES, rhs=SHAPES)
def test_printed_relation_parses_back_to_its_trees(table, lhs, rhs):
    leaves = [var(name, dim) for name, dim in table.items()]
    lhs, rhs = tree(lhs, leaves), tree(rhs, leaves)
    parsed = parse_relation(f"{cli_text(lhs)} = {cli_text(rhs)}", table)
    assert parsed == (lhs, rhs)
    assert check_relation(*parsed) == check_relation(lhs, rhs)


def test_precedence_and_grouping_follow_python():
    table = parse_dims("a:$,b:s,c:1")
    a, b, c = (var(name, table[name]) for name in "abc")
    assert parse_relation("a - b - c = a + b*c", table) == ((a - b) - c, a + (b * c))
    assert parse_relation("a/b/c = int(a)*ddt(b)", table) == (
        (a / b) / c, a.integral_dt() * b.derivative_dt())
    # whitespace and line breaks anywhere between tokens, as the shell may pass them
    assert parse_relation(" a\n*\tb =\n c ", table) == (a * b, c)


# side -> the key of its ValidationError
REFUSED_SIDES = {
    "2*Y": "relation",  # a number
    "Y**2": "relation",
    "-Y": "relation",
    "Y.x": "relation",
    "Y[0]": "relation",
    "int(Y, Y)": "relation",
    "int(Y=Y)": "relation",
    "ddt()": "relation",
    "f(Y)": "relation",
    "Y // Y": "relation",
    "Y Y": "relation",
    "(Y": "relation",
    "": "relation",
    "None": "relation",
    "lambda": "relation",  # a Python keyword is no name
    "Y # a comment": "relation",
    "\uff39": "relation",  # a fullwidth Y, which ast would read as Y
    "(" * 400 + "Y" + ")" * 400: "relation",
    " + ".join(["Y"] * 2000): "relation",
    "Q": "dims",
    "Y + Q": "dims",
}


@pytest.mark.parametrize("side, key", REFUSED_SIDES.items(), ids=lambda x: x[:20])
@pytest.mark.parametrize("template", ["{} = Y", "Y = {}"], ids=["lhs", "rhs"])
def test_refused_side_names_its_key(template, side, key):
    with pytest.raises(ValidationError) as info:
        parse_relation(template.format(side), {"Y": FLOW})
    assert info.value.key == key


@pytest.mark.parametrize("text", ["K", "K = Y = K", "K == Y"])
def test_relation_needs_one_equals_sign(text):
    with pytest.raises(ValidationError, match="exactly one '='") as info:
        parse_relation(text, {"K": MONEY, "Y": FLOW})
    assert info.value.key == "relation"


def test_tree_too_deep_for_the_audit_is_a_validation_error():
    deep = var("Y", FLOW)
    for _ in range(5000):
        deep = deep + var("Y", FLOW)
    with pytest.raises(ValidationError, match="^relation is nested too deeply$") as info:
        check_relation(deep, var("Y", FLOW))
    assert info.value.key == "relation"


def test_huge_sum_is_refused_by_the_cli_in_one_line(capsys):
    relation = " + ".join(["Y"] * 200_000) + " = Y"
    rc = cli.run(["dim-check", "--relation", relation, "--dims", "Y:$/s"])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: relation is nested too deeply (key: relation)\n"


def test_parse_dims_reads_the_table():
    assert parse_dims("Y:$/s, K:$,nu:1,t:s ,") == {"Y": FLOW, "K": MONEY, "nu": DIMENSIONLESS,
                                                   "t": TIME}
    assert parse_dims("a:$*s^-1,b:s^2/$,c:$/s/s") == {
        "a": FLOW, "b": Dimension(-1, 2), "c": Dimension(1, -2)}
    # an empty product before a divisor is 1
    assert parse_dims("r:/s,q: / s^2") == {"r": Dimension(0, -1), "q": Dimension(0, -2)}


EMPTY_FACTORS = ["Y:*", "Y:1*", "Y:$*", "Y: * $", "Y:$**s", "Y:$/", "Y:$//s", "Y:/", "Y:*/s",
                 "Y:$/s/"]


# a name that is empty, holds a space, is a keyword or is not ASCII (a
# fullwidth Y), none of which the relation grammar reads as a name
BAD_NAMES = [":$,Y:$/s", "Y Z:$/s", "Y:$/s,if:s", "\uff39:$/s"]


@pytest.mark.parametrize("text", ["Y", "Y:m", "Y:s^x", "Y:s^2.5", "Y:", "K:$,nu: ,Y:$/s",
                                  "Y:$/s*s", "K:$,nu:s,Y:$/s,K:s", *EMPTY_FACTORS, *BAD_NAMES])
def test_parse_dims_refuses_malformed_entries(text):
    with pytest.raises(ValidationError) as info:
        parse_dims(text)
    assert info.value.key == "dims"


@pytest.mark.parametrize("text, entry", zip(BAD_NAMES, [":$", "Y Z:$/s", "if:s", "\uff39:$/s"]))
def test_bad_name_is_refused_quoting_its_entry(text, entry):
    with pytest.raises(ValidationError, match=f"^dims entry {re.escape(repr(entry))} "):
        parse_dims(text)


def test_names_may_carry_spaces_around_them():
    assert parse_dims(" K :$, _nu2:1,match:s") == {"K": MONEY, "_nu2": DIMENSIONLESS,
                                                   "match": TIME}


@pytest.mark.parametrize("text", ["Y:$/s*s", "Y:$ / s * s^-1", "Y:1/s/$*s"])
def test_divisor_product_is_refused_with_the_two_spellings(text):
    # not "unknown dimension symbol 's*s'": / takes a single factor
    dim = text.partition(":")[2].strip()
    with pytest.raises(ValidationError, match=f"^dimension {re.escape(repr(dim))} divides by "
                                              r"the product .* write \$/s/s or \$\*s\^-2$"):
        parse_dims(text)


@pytest.mark.parametrize("text", EMPTY_FACTORS)
def test_empty_factor_has_one_message(text):
    dim = text.partition(":")[2].strip()
    with pytest.raises(ValidationError, match=f"^dimension {re.escape(repr(dim))} has an "
                                              "empty factor$"):
        parse_dims(text)
