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

import math
import re
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .timescale import Grid, GridFunction, GridMismatchError, _fmt

FUNCTIONS = ("sin", "cos", "exp", "abs", "sqrt")
# Levels an expression may nest: each parenthesis, function call, unary minus
# and chained operator adds one.  Parsing, printing and evaluation recurse
# once per level, so the limit keeps them well inside Python's stack.
MAX_DEPTH = 100


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
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
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
        self.depth = 0

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

    def nested(self, step):
        """``step()`` one level deeper, refused past MAX_DEPTH levels."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", self.peek()[2])
        self.depth += 1
        e = step()
        self.depth -= 1
        return e

    def parse(self) -> Expression:
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing {val!r}", off)
        depth, level = 0, [e]  # chained operators nest the tree without recursing
        while level := [
            c for n in level for c in vars(n).values() if isinstance(c, Expression)
        ]:
            depth += 1
        if depth > MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", 0)
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
            arg = self.nested(self.unary)
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
            n = self.nested(self.exponent)
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
            e = self.nested(self.expr)
            self.expect_op(")")
            return e
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(self.expr)
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


def parse(text: str, bindings: dict[str, float] | None = None) -> Expression:
    """Parse an expression, folding named parameters to constants."""
    return _Parser(text, bindings).parse()


# --- canonical printer ----------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_string(e: Expression) -> str:
    return _print(e, 0)


def _print(e: Expression, parent_prec: int) -> str:
    if isinstance(e, Const):
        s = _fmt(e.value)
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


def _grid_point(points: Sequence[np.ndarray], mask) -> tuple[float, ...]:
    """First point of the product of the per-axis ``points`` where ``mask``,
    broadcast over that product, holds."""
    mask = np.broadcast_to(mask, tuple(len(p) for p in points))
    idx = np.argwhere(mask)[0]
    return tuple(float(p[j]) for p, j in zip(points, idx))


def substitute(e: Expression, points: Sequence[np.ndarray], u):
    """f(x, u(x)) over the product of the per-axis ``points`` (the solvers
    pass the interior ones) for u an array over it or one value, as floats;
    an undefined value raises EvaluationError naming its grid point."""
    try:
        vals = np.asarray(evaluate_arrays(e, np.ix_(*points), u), dtype=float)
    except EvaluationError as err:
        if err.mask is not None:
            point = _grid_point(points, err.mask)
            err = EvaluationError(f"{err} at grid point {point}")
        raise err from None
    return np.broadcast_to(vals, np.broadcast_shapes(vals.shape, np.shape(u)))


def nemytskii(
    e: Expression, grids: Sequence[Grid], u: GridFunction
) -> GridFunction:
    """Pointwise substitution (Fu)(x) = f(x, u(x)) on the closed grid."""
    grids = tuple(grids)
    if u.grids != grids:
        raise GridMismatchError("grid function does not live on the given grids")
    return GridFunction(grids, substitute(e, [g.points for g in grids], u.values))


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


# Slack of the one-sided test, relative to alpha * eta^2 + C; the range
# bound accepts a sample only within half of it.
ONE_SIDED_TOL = 1e-9


def _samples(u_range: tuple[float, float], samples: int) -> np.ndarray:
    if samples < 2:
        raise ValueError("need at least 2 samples")
    return np.linspace(u_range[0], u_range[1], samples)


def _sampled(e: Expression, points, values, name: str):
    """Each v of ``values``, with f over the product of ``points`` as a
    function of u: an undefined value raises EvaluationError naming its
    grid point, then ``name = v``."""
    for v in values:
        def f(u, v=v):
            try:
                return substitute(e, points, np.float64(u))
            except EvaluationError as err:
                raise EvaluationError(f"{err}, {name} = {v:g}") from None
        yield v, f


def estimate_lipschitz(
    e: Expression,
    points: Sequence[np.ndarray],
    u_range: tuple[float, float],
    samples: int = 101,
) -> float:
    """Max of |df/du| over the product of the per-axis ``points`` and
    sampled u, by central differences with step 1e-6 * scale; inf when a
    sampled slope is not finite.

    A sampled lower estimate of the true Lipschitz constant, not a
    certificate: the solver only uses it when explicitly accepted.
    """
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for uv, f in _sampled(e, points, _samples(u_range, samples), "u"):
            d = 1e-6 * max(1.0, abs(uv))
            slope = float(np.max(np.abs(f(uv + d) - f(uv - d)))) / (2.0 * d)
            best = math.inf if math.isnan(slope) else max(best, slope)
    return best


def _one_sided_limit(eta, alpha: float, cbound: float, tol: float):
    """alpha * eta^2 + C plus ``tol`` relative to it: the most that the
    left side f(x, eta) * eta of the one-sided condition may be."""
    rhs = alpha * eta**2 + cbound
    return rhs + tol * (1.0 + abs(rhs))


def check_one_sided(
    e: Expression,
    points: Sequence[np.ndarray],
    alpha: float,
    cbound: float,
    u_range: tuple[float, float],
    samples: int = 101,
) -> tuple[tuple[float, ...], float] | None:
    """Sample f(x, eta) * eta <= alpha * eta^2 + C over the product of the
    per-axis ``points``; return the first violation as (x, eta), or None.

    A range bound over all the points at once decides most samples of eta
    (``_bound_holds``); only the samples it cannot decide are evaluated
    point by point, in order, so the witness and any EvaluationError are
    those of the point-by-point check.  The samples still stand for the
    values of eta between them: the check is not a certificate in eta.
    """
    etas = _samples(u_range, samples)
    lhs = Binary("*", e, Var("u"))  # f(x, eta) * eta
    with np.errstate(over="ignore", invalid="ignore"):
        held = _bound_holds(lhs, points, etas, alpha, cbound)
        for eta, f in _sampled(lhs, points, etas[~held], "eta"):
            bad = f(eta) > _one_sided_limit(eta, alpha, cbound, ONE_SIDED_TOL)
            if bad.any():
                return _grid_point(points, bad), float(eta)
    return None


# --- range bounds ---------------------------------------------------------
#
# Interval arithmetic (Moore, Kearfott & Cloud, Introduction to Interval
# Analysis, SIAM 2009) over an expression whose u-free subtrees are folded
# to the range of their values on the grid, vectorised over the samples of
# u: each node gives arrays lo, hi that enclose its floating-point values
# at every grid point, ends rounded outward with np.nextafter (by 4 ulps
# after the library functions exp, sin, cos and pow, which need not be
# correctly rounded).  Both ends are NaN, "undecided", where the node is
# not finite or may be undefined at some point.


@dataclass(frozen=True)
class _Range:
    """A u-free subtree folded to the least and greatest of its values."""

    lo: float
    hi: float


def _reads_u(e: Expression) -> bool:
    return e == Var("u") or any(
        _reads_u(c) for c in vars(e).values() if isinstance(c, Expression)
    )


def _fold(e: Expression, xs):
    """``e`` with each largest u-free subtree replaced by the range of its
    values over the coordinate arrays ``xs``."""
    if not _reads_u(e):
        v = np.asarray(evaluate_arrays(e, xs, None), dtype=float)
        return _Range(float(v.min()), float(v.max()))
    return replace(e, **{
        k: _fold(c, xs) for k, c in vars(e).items() if isinstance(c, Expression)
    })


def _widen(lo, hi, ulps: int = 1):
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    return lo, hi


def _hull(*ends):
    return _widen(np.minimum.reduce(ends), np.maximum.reduce(ends))


def _periodic_bound(fun, lo, hi, peak: int):
    """Range of sin or cos, which are 1 at x = (4m + peak) * pi/2 and -1
    at (4m + peak + 2) * pi/2, and monotone between."""
    a, b = lo / (np.pi / 2), hi / (np.pi / 2)
    slack = 1e-12 * (1.0 + np.maximum(np.abs(a), np.abs(b)))
    a, b = a - slack, b + slack

    def reaches(r):
        return np.floor((b - r) / 4) >= np.ceil((a - r) / 4)

    fa, fb = fun(lo), fun(hi)
    return _widen(
        np.where(reaches(peak + 2), -1.0, np.minimum(fa, fb)),
        np.where(reaches(peak), 1.0, np.maximum(fa, fb)),
        4,
    )


def _fun_bound(name: str, lo, hi):
    if name == "abs":
        return np.where(lo >= 0, lo, np.where(hi <= 0, -hi, 0.0)), np.maximum(-lo, hi)
    if name == "sqrt":
        return _widen(np.sqrt(np.where(lo < 0, np.nan, lo)), np.sqrt(hi))
    if name == "exp":
        return _widen(np.exp(lo), np.exp(hi), 4)
    fun, peak = {"sin": (np.sin, 1), "cos": (np.cos, 0)}[name]
    return _periodic_bound(fun, lo, hi, peak)


def _pow_bound(lo, hi, n: int):
    if n == 0:  # 1, unless the base may be undefined
        one = np.where(np.isnan(lo), np.nan, 1.0)
        return one, one
    a, b = np.power(lo, n), np.power(hi, n)
    plo, phi = np.minimum(a, b), np.maximum(a, b)  # monotone off 0
    spans_zero = (lo <= 0) & (hi >= 0)
    if n < 0:
        plo = np.where(spans_zero, np.nan, plo)
    elif n % 2 == 0:
        plo = np.where(spans_zero, 0.0, plo)
    return _widen(plo, phi, 4)


def _binary_bound(op: str, alo, ahi, blo, bhi):
    if op == "+":
        return _widen(alo + blo, ahi + bhi)
    if op == "-":
        return _widen(alo - bhi, ahi - blo)
    if op == "*":
        return _hull(alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    spans_zero = (blo <= 0) & (bhi >= 0)
    blo, bhi = np.where(spans_zero, np.nan, blo), np.where(spans_zero, np.nan, bhi)
    return _hull(alo / blo, alo / bhi, ahi / blo, ahi / bhi)


def _bound(e, eta: np.ndarray):
    """[lo, hi] enclosing a folded tree's values for u = each entry of
    ``eta``; both NaN where the bound cannot decide."""
    if isinstance(e, _Range):
        lo, hi = np.full_like(eta, e.lo), np.full_like(eta, e.hi)
    elif isinstance(e, Var):  # folding leaves no other variable than u
        lo, hi = eta, eta
    elif isinstance(e, Neg):
        lo, hi = _bound(e.arg, eta)
        lo, hi = -hi, -lo
    elif isinstance(e, Fun):
        lo, hi = _fun_bound(e.name, *_bound(e.arg, eta))
    elif isinstance(e, Pow):
        lo, hi = _pow_bound(*_bound(e.base, eta), e.exponent)
    else:
        lo, hi = _binary_bound(e.op, *_bound(e.left, eta), *_bound(e.right, eta))
    undecided = ~(np.isfinite(lo) & np.isfinite(hi))
    return np.where(undecided, np.nan, lo), np.where(undecided, np.nan, hi)


def _bound_holds(lhs: Expression, points, etas, alpha: float, cbound: float):
    """Per sample of ``etas``: whether a range bound shows that ``lhs`` at
    u = eta is within half the one-sided slack at every point of the
    product of ``points``.  False where it cannot tell, and everywhere
    when the u-free subtrees of ``lhs`` cannot be folded."""
    with np.errstate(all="ignore"):
        try:
            folded = _fold(lhs, np.ix_(*points))
        except (ArithmeticError, ValueError):
            return np.zeros(len(etas), dtype=bool)
        hi = _bound(folded, etas)[1]
        return hi <= _one_sided_limit(etas, alpha, cbound, ONE_SIDED_TOL / 2)
