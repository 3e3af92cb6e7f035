"""Expression language for the nonlinearity f(x1, ..., xn, u).

A small recursive-descent grammar (documented in the README):

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)*          # exponent: signed integer
    atom     := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the unknown ``u``, coordinates ``x1``..``x9`` (``x`` is an
alias for ``x1``), the functions sin, cos, exp, abs, sqrt, or named
parameters resolved to constants from a bindings map at parse time.
Exponents are restricted to integers so evaluation stays total on
negative bases.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .timescale import Grid, GridFunction, coordinates

FUNCTIONS = ("sin", "cos", "exp", "abs", "sqrt")


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class UnknownIdentifierError(ParseError):
    pass


class EvaluationError(ArithmeticError):
    """Division by zero or square root of a negative value."""

    def __init__(self, message: str, mask=None):
        self.mask = mask
        super().__init__(message)


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "u" or "x<i>"

    @property
    def axis(self) -> int | None:
        """0-based coordinate index, or None for u."""
        return None if self.name == "u" else int(self.name[1:]) - 1


@dataclass(frozen=True)
class Neg:
    arg: "Expression"


@dataclass(frozen=True)
class Fun:
    name: str
    arg: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int


Expression = Const | Var | Neg | Fun | Binary | Pow


def max_coordinate(e: Expression) -> int:
    """Highest coordinate index used (0 when only u and constants appear)."""
    if isinstance(e, Var):
        return 0 if e.axis is None else e.axis + 1
    if isinstance(e, (Neg, Fun)):
        return max_coordinate(e.arg)
    if isinstance(e, Binary):
        return max(max_coordinate(e.left), max_coordinate(e.right))
    if isinstance(e, Pow):
        return max_coordinate(e.base)
    return 0


def uses_u(e: Expression) -> bool:
    if isinstance(e, Var):
        return e.name == "u"
    if isinstance(e, (Neg, Fun)):
        return uses_u(e.arg)
    if isinstance(e, Binary):
        return uses_u(e.left) or uses_u(e.right)
    if isinstance(e, Pow):
        return uses_u(e.base)
    return False


# --- parser ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, bindings: dict[str, float] | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.bindings = bindings or {}
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", off)
        return self.take()

    def parse(self) -> Expression:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}", off)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            e = Binary(op, e, self.term())
        return e

    def term(self) -> Expression:
        e = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            e = Binary(op, e, self.unary())
        return e

    def unary(self) -> Expression:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            arg = self.unary()
            if isinstance(arg, Const):
                return Const(-arg.value)  # canonical: "-2" is the constant -2
            return Neg(arg)
        return self.power()

    def power(self) -> Expression:
        e = self.atom()
        while self.peek()[:2] == ("op", "^"):
            self.take()
            e = Pow(e, self.exponent())
        return e

    def exponent(self) -> int:
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
            kind, val, off = self.peek()
        if kind == "op" and val == "(":
            self.take()
            n = self.exponent()
            self.expect_op(")")
            return sign * n
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise ParseError(
                f"exponent must be an integer, found {val or 'end of input'!r}", off
            )
        self.take()
        return sign * int(val)

    def atom(self) -> Expression:
        kind, val, off = self.take()
        if kind == "num":
            return Const(float(val))
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Fun(val, arg)
            if val == "u":
                return Var("u")
            if val == "x":
                return Var("x1")
            if re.fullmatch(r"x[1-9]", val):
                return Var(val)
            if val in self.bindings:
                return Const(float(self.bindings[val]))
            raise UnknownIdentifierError(f"unknown identifier {val!r}", off)
        raise ParseError(f"expected a value, found {val or 'end of input'!r}", off)


def parse(
    text: str,
    bindings: dict[str, float] | None = None,
    dim: int | None = None,
) -> Expression:
    """Parse an expression, folding named parameters to constants.

    ``dim`` (when given) bounds the coordinate indices allowed.
    """
    e = _Parser(text, bindings).parse()
    if dim is not None and max_coordinate(e) > dim:
        raise ParseError(
            f"expression uses x{max_coordinate(e)} but the domain has "
            f"dimension {dim}",
            0,
        )
    return e


# --- canonical printer ----------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_string(e: Expression) -> str:
    return _print(e, 0)


def _print(e: Expression, parent_prec: int) -> str:
    if isinstance(e, Const):
        s = _fmt_num(e.value)
        return f"({s})" if e.value < 0 and parent_prec >= 3 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Fun):
        return f"{e.name}({_print(e.arg, 0)})"
    if isinstance(e, Neg):
        inner = _print(e.arg, 3)
        s = f"-{inner}"
        return f"({s})" if parent_prec > 3 else s
    if isinstance(e, Pow):
        base = _print(e.base, 4)
        if isinstance(e.base, (Binary, Neg)):
            base = f"({_print(e.base, 0)})"
        exp = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return f"{base}^{exp}"
    prec = _PREC[e.op]
    left = _print(e.left, prec)
    right = _print(e.right, prec + 1)  # -,/ are left-associative
    s = f"{left} {e.op} {right}"
    return f"({s})" if parent_prec > prec else s


def _fmt_num(v: float) -> str:
    return repr(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(v)


# --- evaluation -----------------------------------------------------------


def evaluate_arrays(e: Expression, xs: Sequence[np.ndarray], u: np.ndarray):
    """Evaluate over broadcastable coordinate arrays and a u array."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.axis is None:
            return u
        if e.axis >= len(xs):
            raise EvaluationError(f"coordinate {e.name} out of range")
        return xs[e.axis]
    if isinstance(e, Neg):
        return -evaluate_arrays(e.arg, xs, u)
    if isinstance(e, Fun):
        a = evaluate_arrays(e.arg, xs, u)
        if e.name == "sqrt":
            bad = np.asarray(a) < 0
            if np.any(bad):
                raise EvaluationError("square root of a negative value", mask=bad)
            return np.sqrt(a)
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}[e.name](a)
    if isinstance(e, Pow):
        base = evaluate_arrays(e.base, xs, u)
        if e.exponent < 0:
            bad = np.asarray(base) == 0
            if np.any(bad):
                raise EvaluationError("zero raised to a negative power", mask=bad)
            return np.power(np.asarray(base, dtype=float), e.exponent)
        return np.power(base, e.exponent)
    left = evaluate_arrays(e.left, xs, u)
    right = evaluate_arrays(e.right, xs, u)
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    if e.op == "*":
        return left * right
    bad = np.asarray(right) == 0
    if np.any(bad):
        raise EvaluationError("division by zero", mask=bad)
    return left / right


def evaluate(e: Expression, x: Sequence[float], u: float) -> float:
    """Evaluate at a single point; IEEE double semantics."""
    xs = [np.float64(v) for v in x]
    try:
        return float(evaluate_arrays(e, xs, np.float64(u)))
    except EvaluationError as err:
        raise EvaluationError(f"{err} at x = {tuple(x)}, u = {u}") from None


def nemytskii(
    e: Expression, grids: Sequence[Grid], u: GridFunction
) -> GridFunction:
    """Pointwise substitution (Fu)(x) = f(x, u(x)) on the closed grid."""
    grids = tuple(grids)
    if u.grids != grids:
        raise ValueError("grid function does not live on the given grids")
    xs, shape = coordinates(grids)
    try:
        vals = evaluate_arrays(e, xs, u.values)
    except EvaluationError as err:
        where = ""
        if err.mask is not None:
            mask = np.broadcast_to(err.mask, shape)
            idx = tuple(int(j) for j in np.argwhere(mask)[0])
            point = tuple(float(g.points[j]) for g, j in zip(grids, idx))
            where = f" at grid point {point}"
        raise EvaluationError(f"{err}{where}") from None
    vals = np.broadcast_to(np.asarray(vals, dtype=float), shape).copy()
    return GridFunction(grids, vals)


# --- growth hypotheses ----------------------------------------------------


@dataclass(frozen=True)
class GrowthHypotheses:
    """Constants under which the solvers certify their fixed-point maps.

    ``L`` is a global Lipschitz constant in u; ``alpha``/``cbound`` form the
    one-sided pair f(x, eta) * eta <= alpha * eta^2 + cbound.
    """

    L: float | None = None
    alpha: float | None = None
    cbound: float | None = None

    def __post_init__(self):
        if self.L is not None and self.L < 0:
            raise ValueError("Lipschitz constant must be >= 0")
        if self.cbound is not None and self.cbound < 0:
            raise ValueError("one-sided constant C must be >= 0")


@dataclass(frozen=True)
class LipschitzEstimate:
    """Sampled lower estimate of the true Lipschitz constant.

    Not a certificate: the solver only uses it when explicitly accepted.
    """

    value: float
    samples: int


def estimate_lipschitz(
    e: Expression,
    grids: Sequence[Grid],
    u_range: tuple[float, float],
    samples: int = 101,
) -> LipschitzEstimate:
    """Max of |df/du| over grid points x and sampled u, by central
    differences with step 1e-6 * scale."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    lo, hi = u_range
    grids = tuple(grids)
    xs, shape = coordinates(grids)
    best = 0.0
    for uv in np.linspace(lo, hi, samples):
        d = 1e-6 * max(1.0, abs(uv))
        up = evaluate_arrays(e, xs, np.float64(uv + d))
        dn = evaluate_arrays(e, xs, np.float64(uv - d))
        slope = np.abs(np.asarray(up) - np.asarray(dn)) / (2.0 * d)
        best = max(best, float(np.broadcast_to(slope, shape).max()))
    return LipschitzEstimate(value=best, samples=samples)


@dataclass(frozen=True)
class OneSidedReport:
    passed: bool
    witness: tuple[tuple[float, ...], float] | None  # (x, eta)


def check_one_sided(
    e: Expression,
    grids: Sequence[Grid],
    alpha: float,
    cbound: float,
    u_range: tuple[float, float],
    samples: int = 101,
) -> OneSidedReport:
    """Sample f(x, eta) * eta <= alpha * eta^2 + C; report a violation."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    grids = tuple(grids)
    xs, shape = coordinates(grids)
    for eta in np.linspace(u_range[0], u_range[1], samples):
        lhs = np.asarray(evaluate_arrays(e, xs, np.float64(eta))) * eta
        rhs = alpha * eta**2 + cbound
        bad = np.broadcast_to(lhs > rhs + 1e-9 * (1.0 + abs(rhs)), shape)
        if bad.any():
            idx = tuple(int(j) for j in np.argwhere(bad)[0])
            x = tuple(float(g.points[j]) for g, j in zip(grids, idx))
            return OneSidedReport(passed=False, witness=(x, float(eta)))
    return OneSidedReport(passed=True, witness=None)
