import random
from fractions import Fraction

import pytest

from odegeom.expr import (
    Const,
    EvalError,
    Evaluator,
    ExprError,
    ParseError,
    SampleDomain,
    add,
    diff,
    equiv,
    equiv_all,
    evaluate,
    mul,
    neg,
    parse,
    pow_,
    structurally_equal,
    to_string,
    var,
)

DOM = SampleDomain.box(q=(0.5, 2.0), r=(0.5, 2.0), s=(-1.0, 1.0))


def test_parse_rhs_structure():
    e = parse("-(40/9)*r^3/q^2 + 5*r*s/q")
    assert len(e.terms) == 2
    assert equiv(e, parse("5*r*s/q - (40/9)*r^3*q^-2"), DOM).passed


def test_parse_atom():
    e = parse("q")
    assert e is var("q")


def test_parse_second_rhs():
    e = parse("(5/3)*s^2/r")
    v = evaluate(e, {"s": 3.0, "r": 5.0})
    assert v == pytest.approx(3.0)


def test_parse_rational_literal_folds():
    e = parse("40/9")
    assert isinstance(e, Const) and e.value == Fraction(40, 9)


def test_parse_decimal_literal_exact():
    assert parse("0.5").value == Fraction(1, 2)


def test_parse_power_right_associative():
    assert evaluate(parse("2^3^2"), {}) == 512.0


def test_parse_unary_minus_binds_below_power():
    assert evaluate(parse("-2^2"), {}) == -4.0


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("q +")
    with pytest.raises(ParseError) as exc:
        parse("q + w")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse("1/0")
    with pytest.raises(ParseError):
        parse("q^r")


def test_roundtrip_structural_equality():
    rng = random.Random(11)
    for _ in range(40):
        e = _random_expr(rng, 3)
        assert structurally_equal(parse(to_string(e)), e), to_string(e)


def test_diff_rhs_partials():
    lam = parse("-(40/9)*r^3/q^2 + 5*r*s/q")
    assert equiv(diff(lam, "s"), parse("5*r/q"), DOM).passed
    assert equiv(diff(lam, "r"), parse("5*s/q - (40/3)*r^2/q^2"), DOM).passed
    assert equiv(diff(lam, "q"), parse("(80/9)*r^3/q^3 - 5*r*s/q^2"), DOM).passed


def test_diff_constant_is_zero():
    z = diff(Const(7), "q")
    assert isinstance(z, Const) and z.value == 0


def test_diff_rational_power():
    e = pow_(var("q"), Fraction(1, 2))
    assert equiv(diff(e, "q"), parse("(1/2)*q^(-1/2)"), DOM).passed


def test_eval_oracle():
    lam = parse("-(40/9)*r^3/q^2 + 5*r*s/q")
    # hand arithmetic: -(40/9)*27 + 5*3*2 = -120 + 30
    assert evaluate(lam, {"q": 1.0, "r": 3.0, "s": 2.0}) == pytest.approx(-90.0)
    assert evaluate(parse("q^(1/2)"), {"q": 4.0}) == pytest.approx(2.0)
    assert evaluate(parse("0"), {}) == 0.0


def test_eval_errors():
    with pytest.raises(EvalError):
        evaluate(parse("q^(1/2)"), {"q": -1.0})
    with pytest.raises(EvalError):
        evaluate(parse("1/q"), {"q": 0.0})
    for text in ("q^1000", "q^(2001/2)"):
        with pytest.raises(EvalError):
            evaluate(parse(text), {"q": 1e300})
    with pytest.raises(EvalError) as exc:
        evaluate(parse("q + r"), {"q": 1.0})
    assert exc.value.point == {"q": 1.0}


def test_equiv_basics():
    assert equiv(parse("q*q^(-1/2)"), parse("q^(1/2)"), DOM).passed
    res = equiv(parse("q"), parse("r"), DOM)
    assert not res.passed and res.max_residual > 1e-3
    assert res.worst_point


def test_equiv_deterministic_and_symmetric():
    a, b = parse("q^2*r"), parse("r*q*q")
    r1 = equiv(a, b, DOM, seed=5)
    r2 = equiv(b, a, DOM, seed=5)
    assert r1.max_residual == r2.max_residual
    assert equiv(a, a, DOM).max_residual == 0.0


def test_equiv_rejects_empty_sample():
    with pytest.raises(ExprError):
        equiv(parse("q"), parse("q"), DOM, n=0)


def test_equiv_eval_error_carries_point():
    dom = SampleDomain.box(s=(-1.0, 1.0))
    with pytest.raises(EvalError) as exc:
        equiv(parse("s^(1/2)"), parse("s"), dom)
    assert exc.value.point is not None and "s" in exc.value.point


def test_eval_points_rejects_what_the_scalar_path_rejects():
    # 1/(x - x) is inf, and 1/(1 + inf) turns it back into a finite 0
    e = parse("x + 1/(1 + 1/(x - x))")
    with pytest.raises(EvalError):
        Evaluator([e])({"x": 0.5})
    with pytest.raises(EvalError) as exc:
        Evaluator([e]).eval_points([{"x": 0.25}, {"x": 0.5}])
    assert exc.value.point == {"x": 0.25}
    with pytest.raises(EvalError):
        equiv(e, parse("x"), SampleDomain.box(x=(0.5, 2.0)))
    with pytest.raises(EvalError) as exc:
        Evaluator([parse("(q - 1)^(-1/2)")]).eval_points([{"q": 2.0}, {"q": 1.0}])
    assert exc.value.point == {"q": 1.0}


def test_equiv_all_mixed_pairs_report_the_failing_pair():
    good = (parse("q*q^(-1/2)"), parse("q^(1/2)"))
    bad = (parse("q"), parse("r"))
    res = equiv_all([good, bad, good], DOM, seed=3)
    alone = equiv(*bad, DOM, seed=3)
    assert not res.passed
    assert res.max_residual == alone.max_residual
    assert res.worst_point == alone.worst_point
    assert equiv_all([good, good], DOM).passed


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            return var(rng.choice(["q", "r", "s"]))
        return Const(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
    kind = rng.choice(["add", "mul", "pow", "neg"])
    if kind == "add":
        return add(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "mul":
        return mul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "neg":
        return neg(_random_expr(rng, depth - 1))
    base = var(rng.choice(["q", "r"]))  # positive on DOM
    exponent = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    return pow_(base, exponent)


def test_diff_linearity_property():
    rng = random.Random(23)
    for _ in range(25):
        e1 = _random_expr(rng, 3)
        e2 = _random_expr(rng, 3)
        lhs = diff(add(e1, e2), "q")
        rhs = add(diff(e1, "q"), diff(e2, "q"))
        assert equiv(lhs, rhs, DOM).passed


def test_diff_matches_finite_difference():
    rng = random.Random(37)
    pts = [DOM.sample(rng) for _ in range(5)]
    for _ in range(15):
        e = _random_expr(rng, 3)
        de = diff(e, "q")
        for pt in pts:
            h = 1e-6 * max(1.0, abs(pt["q"]))
            up = dict(pt, q=pt["q"] + h)
            dn = dict(pt, q=pt["q"] - h)
            try:
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                sym = evaluate(de, pt)
            except EvalError:
                continue
            assert abs(fd - sym) <= 1e-6 * (1.0 + max(abs(fd), abs(sym)))
