import math

import numpy as np
import pytest

from tselliptic import nonlinearity as nl
from tselliptic.nonlinearity import (
    FUNCTIONS,
    Binary,
    Const,
    EvaluationError,
    Fun,
    GrowthHypotheses,
    Neg,
    ParseError,
    Pow,
    UnknownIdentifierError,
    Var,
    check_one_sided,
    estimate_lipschitz,
    evaluate,
    evaluate_arrays,
    max_coordinate,
    nemytskii,
    parse,
    substitute,
    to_string,
)
from tselliptic.timescale import (
    GridFunction,
    GridMismatchError,
    MeshParams,
    ProductGridFunction,
    TimeScale,
    discretize,
    product_delta_norm,
)

from conftest import random_grid

G4 = discretize(TimeScale.parse("0,1,2,3"))

ROUNDTRIP_CORPUS = [
    "-2*u",
    "1 + u^2",
    "c0 + c1*u + c2*u^2",
    "u",
    "x1",
    "x",
    "-u",
    "u - 1",
    "1 - u - 2",
    "1 - (u - 2)",
    "u/2/3",
    "u/(2/3)",
    "2*u + 3*x1 - 4",
    "sin(u)",
    "cos(x1*u)",
    "exp(-u)",
    "abs(u - 1)",
    "sqrt(u^2 + 1)",
    "u^3",
    "u^-2",
    "(u + 1)^2",
    "(-u)^2",
    "-u^2",
    "2^3",
    "u^2^3",
    "(1 + u)*(1 - u)",
    "u*x1*x2",
    "x2 - x1",
    "1/(1 + u^2)",
    "sin(cos(u))",
    "-(u + 1)",
    "-sin(u)",
    "3.5e-2*u",
    "0.5 + .25*u",
    "u - -1",
    "-u - -u",
    "((u))",
    "sin(u)^2 + cos(u)^2",
    "exp(u)/exp(u)",
    "u^0",
    "-1",
    "u*2 - 2*u",
    "sqrt(abs(u))",
    "x1^2 + x2^2 + x3^2",
    "1 - u^2/2 + u^4/24",
    "(u - 1)*(u - 2)*(u - 3)",
    "u/x1",
    "-x1*u^2",
    "5",
    "u + u + u",
]


class TestParser:
    def test_canonical_neg_constant(self):
        assert parse("-2*u") == Binary("*", Const(-2.0), Var("u"))

    def test_superlinear_example(self):
        assert parse("1 + u^2") == Binary("+", Const(1.0), Pow(Var("u"), 2))

    def test_bindings_fold(self):
        e = parse("c0 + c1*u + c2*u^2", bindings={"c0": 1, "c1": 0, "c2": 2})
        assert e == Binary(
            "+",
            Binary("+", Const(1.0), Binary("*", Const(0.0), Var("u"))),
            Binary("*", Const(2.0), Pow(Var("u"), 2)),
        )

    def test_precedence(self):
        assert parse("-u^2") == Neg(Pow(Var("u"), 2))
        assert parse("1 + 2*u") == Binary(
            "+", Const(1.0), Binary("*", Const(2.0), Var("u"))
        )
        assert parse("1 - u - 2") == Binary(
            "-", Binary("-", Const(1.0), Var("u")), Const(2.0)
        )

    @pytest.mark.parametrize("text", ["u ", "u\t\n", " u  "])
    def test_trailing_whitespace(self, text):
        assert parse(text) == Var("u")

    def test_x_alias(self):
        assert parse("x") == Var("x1")
        assert max_coordinate(parse("x2*u")) == 2

    def test_roundtrip_corpus(self):
        bindings = {"c0": 1.0, "c1": 2.0, "c2": 3.0}
        for text in ROUNDTRIP_CORPUS:
            e = parse(text, bindings=bindings)
            assert parse(to_string(e), bindings=bindings) == e, text

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("1 + * u")
        assert err.value.offset == 4
        with pytest.raises(ParseError):
            parse("(1 + u")
        with pytest.raises(ParseError):
            parse("1 + u)")
        with pytest.raises(ParseError):
            parse("")

    @pytest.mark.parametrize("text, offset", [("u $ 2", 2), ("u$", 1), ("1 +\t #", 5)])
    def test_bad_character_offset(self, text, offset):
        # the offset is that of the character, not of the whitespace before it
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(text)
        assert err.value.offset == offset

    def test_integer_exponent_enforced(self):
        with pytest.raises(ParseError):
            parse("u^2.5")
        with pytest.raises(ParseError):
            parse("u^u")
        assert parse("u^(-2)") == Pow(Var("u"), -2)

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("k*u")


class TestEvaluate:
    def test_examples(self):
        assert evaluate(parse("-u"), (), 3.0) == -3.0
        assert evaluate(parse("1+u^2"), (), 1.0) == 2.0
        assert evaluate(parse("sin(u)"), (), 0.0) == 0.0

    def test_coordinates(self):
        assert evaluate(parse("x1 + 10*x2"), (2.0, 3.0), 0.0) == 32.0

    def test_negative_base_integer_power(self):
        assert evaluate(parse("u^3"), (), -2.0) == -8.0
        assert evaluate(parse("u^-2"), (), -2.0) == 0.25

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("1/u"), (), 0.0)

    def test_sqrt_negative(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("sqrt(u)"), (), -1.0)

    def test_deterministic(self):
        e = parse("sin(u)*exp(x1) - u^3/7")
        a = evaluate(e, (0.3,), 1.7)
        b = evaluate(e, (0.3,), 1.7)
        assert a == b


class TestNemytskii:
    def test_constant(self):
        u = ProductGridFunction.zeros((G4,))
        F = nemytskii(parse("5"), (G4,), u)
        assert np.array_equal(F.values, np.full(4, 5.0))

    def test_negation_of_eigenfunction(self):
        phi = ProductGridFunction((G4,), [0.0, 2**-0.5, 2**-0.5, 0.0])
        F = nemytskii(parse("-u"), (G4,), phi)
        assert np.array_equal(F.values, -phi.values)

    def test_superlinear_interior(self):
        u = ProductGridFunction((G4,), [0.0, 2.0, 3.0, 0.0])
        F = nemytskii(parse("1+u^2"), (G4,), u)
        assert np.array_equal(F.values, [1.0, 5.0, 10.0, 1.0])

    def test_position_dependence_2d(self):
        u = ProductGridFunction.zeros((G4, G4))
        F = nemytskii(parse("x1 + 10*x2"), (G4, G4), u)
        expected = G4.points[:, None] + 10 * G4.points[None, :]
        assert np.array_equal(F.values, expected)

    @pytest.mark.parametrize(
        "call, error, fragment",
        [
            (
                lambda u: evaluate_arrays(parse("x2 + u"), [G4.points], u.values),
                EvaluationError,
                "coordinate x2 out of range",
            ),
            (
                lambda u: nemytskii(parse("u"), (G4, G4), u),
                GridMismatchError,
                "does not live on the given grids",
            ),
        ],
        ids=["coordinate-out-of-range", "nemytskii-other-grids"],
    )
    def test_refusals(self, call, error, fragment):
        with pytest.raises(error, match=fragment):
            call(ProductGridFunction.zeros((G4,)))

    def test_error_reports_grid_point(self):
        u = ProductGridFunction((G4,), [1.0, 1.0, 0.0, 1.0])
        with pytest.raises(EvaluationError) as err:
            nemytskii(parse("1/u"), (G4,), u)
        assert "2.0" in str(err.value)

    def test_lipschitz_transfer(self, rng):
        # ||F(u) - F(v)|| <= 2 ||u - v|| holds exactly for f = -2u
        e = parse("-2*u")
        for _ in range(30):
            g = random_grid(rng)
            u = ProductGridFunction((g,), rng.standard_normal(len(g.points)))
            v = ProductGridFunction((g,), rng.standard_normal(len(g.points)))
            Fu = nemytskii(e, (g,), u)
            Fv = nemytskii(e, (g,), v)
            du = GridFunction(g, u.values - v.values)
            dF = GridFunction(g, Fu.values - Fv.values)
            assert product_delta_norm(dF) <= 2.0 * product_delta_norm(du) + 1e-12


class TestLipschitzEstimate:
    def test_linear(self):
        est = estimate_lipschitz(parse("-2*u"), [G4.points], (-5.0, 5.0))
        assert est == pytest.approx(2.0, abs=1e-6)

    def test_constant(self):
        est = estimate_lipschitz(parse("7"), [G4.points], (-5.0, 5.0))
        assert est == 0.0

    def test_quadratic_range(self):
        est = estimate_lipschitz(parse("1+u^2"), [G4.points], (-5.0, 5.0))
        assert est == pytest.approx(10.0, abs=1e-4)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            estimate_lipschitz(parse("u"), [G4.points], (-1.0, 1.0), samples=1)

    def test_overflowed_slope_is_infinite(self):
        # u^3 overflows at every sample but u = 0, where the slope is 1e-12
        est = estimate_lipschitz(parse("u^3"), [G4.points], (-1e120, 1e120))
        assert est == math.inf


class TestOneSided:
    def test_negative_linear_passes(self):
        assert check_one_sided(parse("-u"), [G4.points], 0.5, 0.0, (-10.0, 10.0)) is None

    def test_positive_linear_fails_large_eta(self):
        x, eta = check_one_sided(parse("2*u"), [G4.points], 0.9, 5.0, (-10.0, 10.0))
        assert x == (0.0,)
        assert abs(eta) > 2.0

    def test_superlinear_fails(self):
        assert check_one_sided(parse("1+u^2"), [G4.points], 0.9, 100.0, (-50.0, 50.0))

    def test_witness_names_the_grid_point(self):
        # (2 eta + x1) eta <= 2 eta^2 fails at eta = 1 wherever x1 > 0
        g = discretize(TimeScale.parse("[0,1]"), MeshParams(h=0.25))
        points = [g.points, g.points]
        x, eta = check_one_sided(parse("2*u + x"), points, 2.0, 0.0, (0.0, 1.0), 2)
        assert (x, eta) == ((0.25, 0.0), 1.0)


class TestUndefinedOnGrid:
    """Every evaluation over a grid names the point where f is undefined."""

    def test_one_sided(self):
        with pytest.raises(EvaluationError, match=r"at grid point \(0\.0,\)"):
            check_one_sided(parse("sqrt(u)"), [G4.points], 0.5, 1.0, (-10.0, 10.0))

    def test_lipschitz(self):
        with pytest.raises(EvaluationError, match=r"at grid point \(0\.0,\)"):
            estimate_lipschitz(parse("sqrt(u)"), [G4.points], (-1.0, 1.0))

    def test_coordinate_dependent(self):
        # 1/(x - 2) is undefined only at x = 2, whatever u is
        with pytest.raises(EvaluationError, match=r"at grid point \(2\.0,\)"):
            estimate_lipschitz(parse("u/(x - 2)"), [G4.points], (-1.0, 1.0))


class TestGrowthHypotheses:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthHypotheses(L=-1.0)
        with pytest.raises(ValueError):
            GrowthHypotheses(cbound=-0.1)
        h = GrowthHypotheses(L=2.0, alpha=0.5, cbound=0.0)
        assert h.L == 2.0


# --- the range bound of the one-sided check --------------------------------


def grid_only_check(e, points, alpha, cbound, u_range, samples):
    """The one-sided check as it was before the range bound: f at every
    point for every sample of eta.  The oracle of the bound's shortcut."""
    shape = tuple(len(p) for p in points)
    with np.errstate(all="ignore"):
        for eta in np.linspace(u_range[0], u_range[1], samples):
            try:
                lhs = substitute(e, points, eta) * eta
            except EvaluationError as err:
                raise EvaluationError(f"{err}, eta = {eta:g}") from None
            rhs = alpha * eta**2 + cbound
            bad = np.broadcast_to(lhs > rhs + 1e-9 * (1.0 + abs(rhs)), shape)
            if bad.any():
                idx = np.argwhere(bad)[0]
                return tuple(float(p[j]) for p, j in zip(points, idx)), float(eta)
    return None


CONSTANTS = (0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 0.1, 1e200, -1e-300)


def random_expression(rng, depth: int):
    """A random tree over the whole grammar, in u, x1 and x2."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            return Var("u")
        if r < 0.7:
            return Var(f"x{rng.integers(1, 3)}")
        return Const(float(rng.choice(CONSTANTS)))
    kind = rng.integers(4)
    if kind == 0:
        return Neg(random_expression(rng, depth - 1))
    if kind == 1:
        return Fun(str(rng.choice(FUNCTIONS)), random_expression(rng, depth - 1))
    if kind == 2:
        return Pow(random_expression(rng, depth - 1), int(rng.integers(-3, 5)))
    return Binary(
        str(rng.choice(list("+-*/"))),
        random_expression(rng, depth - 1),
        random_expression(rng, depth - 1),
    )


# a second axis with x = 0 on it, where 1/x and x^-1 are undefined
ZERO_AXIS = discretize(TimeScale.parse("[-1,1],1.5,3"), MeshParams(h=0.5)).points[1:-1]


def random_points(rng):
    """The interior points of a random 2D hybrid grid."""
    return [random_grid(rng).points[1:-1], ZERO_AXIS]


def outcome(check, *args):
    try:
        return check(*args)
    except EvaluationError as err:
        return f"EvaluationError: {err}"


def enclosure(e, points, etas):
    """The folded range bound of e at each eta, checked against e at every
    point: each value lies in its range, and a sample where e is undefined
    or not finite somewhere is undecided.  Returns the decided mask."""
    xs = np.ix_(*points)
    with np.errstate(all="ignore"):
        try:
            lo, hi = nl._bound(nl._fold(e, xs), etas)
        except EvaluationError:
            with pytest.raises(EvaluationError):
                evaluate_arrays(e, xs, etas[0])
            return np.zeros(len(etas), dtype=bool)
        decided = ~np.isnan(lo)
        assert np.array_equal(decided, ~np.isnan(hi))
        for k, eta in enumerate(etas):
            try:
                vals = np.asarray(evaluate_arrays(e, xs, eta), dtype=float)
            except EvaluationError:
                assert not decided[k], (to_string(e), eta)
                continue
            if decided[k]:
                assert np.isfinite(vals).all(), (to_string(e), eta)
                assert lo[k] <= vals.min() and vals.max() <= hi[k], (to_string(e), eta)
    return decided


class TestRangeBound:
    @pytest.mark.parametrize("text", [
        "x1 + u", "x1 - u", "x1*u", "u/(x1 + 5)", "-u", "x1*u^2", "u^3", "u^0",
        "(u + x1)^-1", "(u + 10)^-2", "(u - x1)^2", "(u - x1)^4", "sin(x1*u)", "cos(u - x1)", "exp(u/10)",
        "abs(u - x1)", "sqrt(u^2 + x1 + 3)", "0.5", "x1*x2",
    ])
    def test_each_node_encloses_its_values(self, text):
        rng = np.random.default_rng(7)
        points = random_points(rng)
        etas = np.concatenate([np.linspace(-9.0, 9.0, 19), rng.uniform(-30, 30, 20)])
        decided = enclosure(parse(text), points, etas)
        assert decided.mean() > 0.5, text  # the bound is not vacuous

    def test_random_expressions_enclose_their_values(self):
        rng = np.random.default_rng(20240811)
        decided = 0
        for _ in range(300):
            e = random_expression(rng, 4)
            etas = np.linspace(-rng.uniform(0, 20), rng.uniform(0, 20), 7)
            decided += enclosure(e, random_points(rng), etas).sum()
        assert decided > 300

    @pytest.mark.parametrize("text, eta", [
        ("sqrt(u)", -1.0),             # sqrt of a range below 0
        ("sqrt(u - x1)", 0.25),        # ... reaching below 0 at some points
        ("1/(u - x1)", 0.25),          # division by a range holding 0
        ("(u - x1)^-1", 0.25),         # a negative power of such a range
        ("u^-2", 0.0),
        ("(1/u)^0", 0.0),              # ^0 of an undefined base
        ("exp(u)", 1000.0),            # overflow to +inf
        ("-exp(u)", 1000.0),           # ... and to -inf
        ("u^3", 1e200),
        ("u*1e200*1e200", 1.0),
    ])
    def test_undecided_is_never_accepted(self, text, eta):
        e, points = parse(text), [np.array([0.0, 0.5, 1.0])]
        etas = np.array([eta])
        assert not enclosure(e, points, etas).any()
        lhs = Binary("*", e, Var("u"))
        assert not nl._bound_holds(lhs, points, etas, 0.0, 1e300).any()

    @pytest.mark.parametrize("excess", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0])
    def test_same_answers_at_the_edge_of_the_slack(self, excess):
        # f * eta = eta^2 = 1 at eta = 1 exceeds alpha * eta^2 by about
        # excess * 2e-9, against the slack 1e-9 * (1 + alpha)
        args = (parse("u"), [G4.points], 1.0 - excess * 2e-9, 0.0, (0.5, 1.0), 3)
        assert check_one_sided(*args) == grid_only_check(*args)

    def test_power_zero_of_a_defined_base_is_one(self):
        with np.errstate(all="ignore"):
            lo, hi = nl._bound(nl._fold(parse("(u - 1)^0"), []), np.array([0.0, 5.0]))
        assert list(lo) == list(hi) == [1.0, 1.0]

    def test_same_answers_as_the_grid_only_check(self):
        # each answer (witness, None or error text) equals the oracle's
        rng = np.random.default_rng(11)
        grids = [random_points(rng) for _ in range(8)]
        kinds = {"none": 0, "witness": 0, "error": 0}
        for _ in range(2000):
            e = random_expression(rng, 3)
            points = grids[rng.integers(len(grids))]
            alpha, cbound = rng.uniform(-1.0, 3.0), 10.0 ** rng.uniform(-3, 3)
            span = 10.0 ** rng.uniform(-1, 2)
            args = (e, points, alpha, cbound, (-span, span), int(rng.integers(2, 12)))
            want = outcome(grid_only_check, *args)
            assert outcome(check_one_sided, *args) == want, to_string(e)
            kinds["none" if want is None else
                  "error" if isinstance(want, str) else "witness"] += 1
        assert min(kinds.values()) > 100, kinds

    def test_benchmark_family_needs_no_grid_sweep(self, monkeypatch):
        # the homotopy-3d f, whose pair bounds |b + c x1 x2 x3| by b + 8c
        a, b, c = 0.3, 1.2, 0.7
        e = parse("-a*u + sin(u) + b + c*x1*x2*x3", {"a": a, "b": b, "c": c})
        alpha, cbound = 1.0 - a + 0.5, (b + 8.0 * c) ** 2 / 2.0
        axis = discretize(TimeScale.parse("[0,1],2"), MeshParams(h=0.25)).points[1:-1]
        sweeps = []
        monkeypatch.setattr(
            nl, "substitute", lambda *args: sweeps.append(args) or substitute(*args)
        )
        assert check_one_sided(e, [axis] * 3, alpha, cbound, (-40.0, 40.0)) is None
        assert sweeps == []
