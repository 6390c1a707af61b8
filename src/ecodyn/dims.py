"""Dimension-tagged expression checking over the base dimensions money and time.

A stock is measured in money ($), a flow in money per time ($/s).
Relations that equate a stock to a flow, or add the two, are exactly the
dimensional contradictions this module makes machine-detectable: Harrod's
K = nu*Y with a dimensionless nu equates the capital stock K ($) with the
income flow Y ($/s) (arXiv:0804.3658).

:func:`parse_relation` reads a relation given as text, such as
``"K = nu*int(Y)"``, against a table such as ``parse_dims("K:$,nu:1,Y:$/s")``.
Each side of its one ``=`` is a Python expression of ASCII names from the
table (a Python keyword is no name), ``+ - * /`` with Python's precedence,
parentheses, ``int(x)`` (the time integral) and ``ddt(x)`` (the time
derivative).  A table entry is ``name:dim``: such a name, and a product of
the atoms ``$``, ``s`` and ``1``, each with an optional integer exponent
``^e``, divided by further atoms, as in ``$/s``, ``$*s^-1`` or ``s^2``.
"""

from __future__ import annotations

import ast
import keyword
import sys
from dataclasses import dataclass

from .errors import StructuralError, ValidationError

_BINARY_OPS = {"add", "sub", "mul", "div"}
_UNARY_OPS = {"integrate_dt", "differentiate_dt"}
_TOO_DEEP = "relation is nested too deeply"


@dataclass(frozen=True)
class Dimension:
    """Integer exponent vector over the base dimensions (money, time)."""

    money_exp: int
    time_exp: int

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.money_exp + other.money_exp, self.time_exp + other.time_exp)

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(self.money_exp - other.money_exp, self.time_exp - other.time_exp)

    def integrated_dt(self) -> "Dimension":
        return Dimension(self.money_exp, self.time_exp + 1)

    def differentiated_dt(self) -> "Dimension":
        return Dimension(self.money_exp, self.time_exp - 1)

    def render(self) -> str:
        """Human-readable form such as "$", "s", "1" or "$·s^-1"."""
        parts = []
        for symbol, exp in (("$", self.money_exp), ("s", self.time_exp)):
            if exp == 0:
                continue
            parts.append(symbol if exp == 1 else f"{symbol}^{exp}")
        return "·".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.render()


MONEY = Dimension(1, 0)
TIME = Dimension(0, 1)
DIMENSIONLESS = Dimension(0, 0)
FLOW = Dimension(1, -1)


@dataclass(frozen=True)
class DimExpr:
    """Expression tree over dimension-tagged named quantities.

    Leaves carry (name, Dimension); interior nodes are one of
    add/sub/mul/div and the time-integral / time-derivative unaries.
    Build leaves with :func:`var` and combine with ``+ - * /``,
    ``.integral_dt()`` and ``.derivative_dt()``.
    """

    op: str
    name: str | None = None
    dim: Dimension | None = None
    children: tuple["DimExpr", ...] = ()

    def __post_init__(self):
        if self.op == "leaf":
            if self.name is None or self.dim is None or self.children:
                raise StructuralError("leaf nodes need a name and a dimension, no children")
        elif self.op in _BINARY_OPS:
            if len(self.children) != 2:
                raise StructuralError(f"{self.op} node needs exactly two children")
        elif self.op in _UNARY_OPS:
            if len(self.children) != 1:
                raise StructuralError(f"{self.op} node needs exactly one child")
        else:
            raise StructuralError(f"unknown operation {self.op!r}")

    def __add__(self, other: "DimExpr") -> "DimExpr":
        return DimExpr("add", children=(self, _as_expr(other)))

    def __sub__(self, other: "DimExpr") -> "DimExpr":
        return DimExpr("sub", children=(self, _as_expr(other)))

    def __mul__(self, other: "DimExpr") -> "DimExpr":
        return DimExpr("mul", children=(self, _as_expr(other)))

    def __truediv__(self, other: "DimExpr") -> "DimExpr":
        return DimExpr("div", children=(self, _as_expr(other)))

    def integral_dt(self) -> "DimExpr":
        return DimExpr("integrate_dt", children=(self,))

    def derivative_dt(self) -> "DimExpr":
        return DimExpr("differentiate_dt", children=(self,))

    def render(self) -> str:
        if self.op == "leaf":
            return self.name  # type: ignore[return-value]
        if self.op in _UNARY_OPS:
            inner = self.children[0].render()
            return f"int({inner})dt" if self.op == "integrate_dt" else f"d({inner})/dt"
        symbol = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}[self.op]
        left, right = self.children
        ls, rs = left.render(), right.render()
        if self.op in {"mul", "div"}:
            if left.op in {"add", "sub"}:
                ls = f"({ls})"
            if right.op in {"add", "sub", "mul", "div"}:
                rs = f"({rs})"
        return f"{ls}{symbol}{rs}"

    def __str__(self) -> str:
        return self.render()


def var(name: str, dim: Dimension) -> DimExpr:
    """Leaf quantity with the given name and dimension."""
    return DimExpr("leaf", name=name, dim=dim)


def _as_expr(value) -> DimExpr:
    if isinstance(value, DimExpr):
        return value
    raise StructuralError(f"expected a DimExpr, got {type(value).__name__}")


@dataclass(frozen=True)
class Violation:
    """First inhomogeneous add/sub node found during an audit."""

    side: str  # "lhs" or "rhs"
    path: tuple[int, ...]
    expr: str
    left_dim: Dimension
    right_dim: Dimension

    def __str__(self) -> str:
        where = "/".join(str(i) for i in self.path) or "root"
        return (
            f"{self.side}@{where}: {self.expr} mixes "
            f"{self.left_dim.render()} with {self.right_dim.render()}"
        )


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    lhs_dim: Dimension
    rhs_dim: Dimension
    first_violation: Violation | None

    def render(self) -> str:
        verdict = "consistent" if self.consistent else "inconsistent"
        line = f"{verdict}: lhs {self.lhs_dim.render()} vs rhs {self.rhs_dim.render()}"
        if self.first_violation is not None:
            line += f" ({self.first_violation})"
        return line


def _evaluate(expr: DimExpr, side: str, path: tuple[int, ...], violations: list[Violation]) -> Dimension:
    if expr.op == "leaf":
        return expr.dim  # type: ignore[return-value]
    if expr.op in _UNARY_OPS:
        inner = _evaluate(expr.children[0], side, path + (0,), violations)
        return inner.integrated_dt() if expr.op == "integrate_dt" else inner.differentiated_dt()
    left = _evaluate(expr.children[0], side, path + (0,), violations)
    right = _evaluate(expr.children[1], side, path + (1,), violations)
    if expr.op == "mul":
        return left * right
    if expr.op == "div":
        return left / right
    # add/sub must be homogeneous; propagate the left dimension either way
    if left != right:
        violations.append(Violation(side, path, expr.render(), left, right))
    return left


def check_relation(lhs: DimExpr, rhs: DimExpr) -> ConsistencyReport:
    """Audit the relation lhs = rhs.

    Consistent iff every add/sub node on both sides is homogeneous and
    the two sides carry the same dimension.  The first offending node
    (leftmost, depth-first) is reported when there is one.  A tree too deep
    for the audit's recursion is a ValidationError keyed ``relation``.
    """
    violations: list[Violation] = []
    try:  # the audit and the rendering recurse once per nesting level or term
        lhs_dim = _evaluate(_as_expr(lhs), "lhs", (), violations)
        rhs_dim = _evaluate(_as_expr(rhs), "rhs", (), violations)
        first = violations[0] if violations else None
        if first is None and lhs_dim != rhs_dim:
            first = Violation("relation", (), f"{lhs.render()} = {rhs.render()}", lhs_dim, rhs_dim)
    except RecursionError:
        raise ValidationError(_TOO_DEEP, key="relation") from None
    return ConsistencyReport(
        consistent=first is None,
        lhs_dim=lhs_dim,
        rhs_dim=rhs_dim,
        first_violation=first,
    )


# dimension symbol -> its base Dimension
_DIM_ATOMS = {"$": MONEY, "s": TIME, "1": DIMENSIONLESS}


def _parse_dimension(text: str) -> Dimension:
    """Parse "$", "s", "1", "$/s", "$*s^-1", "s^2" into a Dimension.

    Every factor of the product and every divisor must be given, save that
    an empty product before a divisor is 1: "/s" reads as s^-1, while "$*",
    "$**s" and "$/" are refused.  A divisor is a single factor, so "$/s*s"
    is refused too rather than read as either $ or $/s^2.
    """
    num, *den = text.split("/")
    product = next((part.strip() for part in den if "*" in part), None)
    if product is not None:
        raise ValidationError(f"dimension {text.strip()!r} divides by the product {product!r}, "
                              "but a divisor is a single factor: write $/s/s or $*s^-2",
                              key="dims")
    factors = [] if den and not num.strip() else [(1, p) for p in num.split("*")]
    result = DIMENSIONLESS
    for sign, part in factors + [(-1, p) for p in den]:
        part = part.strip()
        if not part:
            raise ValidationError(f"dimension {text.strip()!r} has an empty factor", key="dims")
        sym, caret, exp_text = part.partition("^")
        try:
            exp = sign * (int(exp_text) if caret else 1)
        except ValueError:
            raise ValidationError(f"bad exponent in {part!r}", key="dims") from None
        base = _DIM_ATOMS.get(sym.strip())
        if base is None:
            raise ValidationError(f"unknown dimension symbol {sym.strip()!r}", key="dims")
        result = result * Dimension(base.money_exp * exp, base.time_exp * exp)
    return result


def parse_dims(text: str) -> dict[str, Dimension]:
    """The table of a text such as ``"Y:$/s,K:$"``: name -> Dimension."""
    table: dict[str, Dimension] = {}
    for entry in filter(None, (entry.strip() for entry in text.split(","))):
        name, sep, dim_text = map(str.strip, entry.partition(":"))
        if not (sep and name.isascii() and name.isidentifier()) or keyword.iskeyword(name):
            raise ValidationError(f"dims entry {entry!r} must look like name:dim, the name an "
                                  "ASCII identifier and no Python keyword", key="dims")
        if not dim_text:  # not read as dimensionless: that is spelled 1
            raise ValidationError(f"dims entry {entry!r} has no dimension (a dimensionless "
                                  "one is written 1)", key="dims")
        if name in table:
            raise ValidationError(f"dims name {name!r} is given twice", key="dims")
        table[name] = _parse_dimension(dim_text)
    return table


_OPS = {ast.Add: DimExpr.__add__, ast.Sub: DimExpr.__sub__,
        ast.Mult: DimExpr.__mul__, ast.Div: DimExpr.__truediv__}
_CALLS = {"int": DimExpr.integral_dt, "ddt": DimExpr.derivative_dt}


def parse_relation(text: str, table: dict[str, Dimension]) -> tuple[DimExpr, DimExpr]:
    """The two sides of the relation ``text`` (grammar in the module
    docstring), each name tagged with its dimension in ``table``.

    A name missing from ``table`` is a ValidationError keyed ``dims``;
    anything outside the grammar, numbers, ``**`` and unary minus
    included, is one keyed ``relation``.  So is a side nested deeper than
    Python's parser allows, or with more operators than the recursion
    limit, refused before it is parsed: the audit of such a side recurses
    once per operator.
    """
    sides = text.split("=")
    if len(sides) != 2:
        raise ValidationError("relation must contain exactly one '='", key="relation")
    return _parse_side(sides[0], table), _parse_side(sides[1], table)


def _parse_side(side: str, table: dict[str, Dimension]) -> DimExpr:
    side = " ".join(side.split())  # no indent and no line break reach the parser
    # ast folds a non-ASCII name to NFKC (a fullwidth Y reads as Y) and skips a comment
    if not side.isascii() or "#" in side or "\0" in side:
        bad = next(c for c in side if c in "#\0" or not c.isascii())
        raise ValidationError(f"unexpected {bad!r} in relation", key="relation")
    if sum(map(side.count, "+-*/")) > sys.getrecursionlimit():  # before ast has to build it
        raise ValidationError(_TOO_DEEP, key="relation")
    try:  # ast.parse and _build recurse once per nesting level
        return _build(ast.parse(side, mode="eval").body, side, table)
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse relation side {side!r}: {exc.msg}",
                              key="relation") from None
    except (RecursionError, MemoryError):
        raise ValidationError(_TOO_DEEP, key="relation") from None


def _build(node: ast.expr, side: str, table: dict[str, Dimension]) -> DimExpr:
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](_build(node.left, side, table), _build(node.right, side, table))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _CALLS and len(node.args) == 1 and not node.keywords):
        return _CALLS[node.func.id](_build(node.args[0], side, table))
    if isinstance(node, ast.Name):
        if node.id not in table:
            raise ValidationError(f"no dimension given for {node.id!r}", key="dims")
        return var(node.id, table[node.id])
    raise ValidationError(
        f"unexpected {ast.get_source_segment(side, node)!r} in relation", key="relation"
    )
