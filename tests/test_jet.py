import math
import random

import pytest

from odegeom.expr import add, equiv, evaluate, mul, parse, var
from odegeom.jet import (JetError, JetOde, builtin, flow_series, load_ode_file, prolongation,
                         total_derivative)
from odegeom.radon import integrate_ode


def test_builtin_conics5(conics5):
    assert conics5.order == 5
    assert equiv(conics5.rhs, parse("-(40/9)*r^3/q^2 + 5*r*s/q"), conics5.domain).passed


def test_builtin_gn5(gn5):
    assert gn5.order == 5
    assert equiv(gn5.rhs, parse("(5/3)*s^2/r"), gn5.domain).passed


def test_builtin_conics4(conics4):
    assert conics4.order == 4
    w = "(x*p - y)"
    ref = parse(f"4*r^2/(3*q) + (2*x*q*r + 6*q^2)/{w} - 3*x^2*q^3/{w}^2")
    assert equiv(conics4.rhs, ref, conics4.domain).passed


def test_builtin_unknown():
    with pytest.raises(JetError):
        builtin("nope")


def test_total_derivative_basics(conics5):
    assert total_derivative(parse("y"), conics5) is var("p")
    assert equiv(total_derivative(parse("s"), conics5), conics5.rhs, conics5.domain).passed
    assert equiv(
        total_derivative(parse("q^(1/2)"), conics5),
        parse("(1/2)*r*q^(-1/2)"),
        conics5.domain,
    ).passed


def test_total_derivative_order4(conics4):
    # D(r) is the equation's right-hand side for a 4th-order equation
    assert equiv(total_derivative(parse("r"), conics4), conics4.rhs, conics4.domain).passed
    assert equiv(total_derivative(parse("x*p - y"), conics4), parse("x*q"), conics4.domain).passed


def test_prolongation_components(conics5, gn5, conics4):
    v5 = prolongation(conics5)
    assert v5[:4] == (var("p"), var("q"), var("r"), var("s"))
    assert v5[4] is conics5.rhs
    assert prolongation(gn5)[4] is gn5.rhs
    v4 = prolongation(conics4)
    assert len(v4) == 4 and v4[3] is conics4.rhs


def test_derivation_property(conics5):
    rng = random.Random(3)
    for _ in range(10):
        e1 = parse(rng.choice(["q^2*r", "s*q", "r^3/q", "y*p + q", "p*s - r"]))
        e2 = parse(rng.choice(["q*r*s", "p^2", "y + r^2", "s/q", "q^(1/2)"]))
        lhs = total_derivative(mul(e1, e2), conics5)
        rhs = add(mul(total_derivative(e1, conics5), e2), mul(e1, total_derivative(e2, conics5)))
        assert equiv(lhs, rhs, conics5.domain).passed


def test_commutator_with_vertical_derivative(conics5):
    # [D, d/ds] e = -(d/dr) e - (dLambda/ds) (d/ds) e
    from odegeom.expr import diff, neg

    for text in ["q^2*s", "r*s^2 + q", "s^3/q", "p*q*r*s"]:
        e = parse(text)
        lhs = add(
            diff(total_derivative(e, conics5), "s"),
            neg(total_derivative(diff(e, "s"), conics5)),
        )
        rhs = add(diff(e, "r"), mul(diff(conics5.rhs, "s"), diff(e, "s")))
        assert equiv(lhs, rhs, conics5.domain).passed


def test_five_fold_total_derivative_along_solution(conics5):
    # integrate the jet numerically and compare ds/dx with the rhs
    e = parse("y")
    for _ in range(5):
        e = total_derivative(e, conics5)
    jet = {"y": 1.0, "p": 0.3, "q": 2.0, "r": 0.1, "s": -0.2}
    h = 1e-5
    up = integrate_ode(conics5, jet, 0.0, h, tol=1e-12)
    dn = integrate_ode(conics5, jet, 0.0, -h, tol=1e-12)
    ds_dx = (up["s"] - dn["s"]) / (2 * h)
    pt = dict(jet, x=0.0)
    assert ds_dx == pytest.approx(evaluate(e, pt), rel=1e-6)


def test_flow_series_of_gn5_is_the_taylor_series_of_a_closed_form_solution(gn5):
    # y = 1 + x^2 + (1 + x)^(3/2) solves y^(5) = (5/3) (y^(4))^2 / y^(3);
    # its Taylor coefficients at x = 0 are binomial, and those of the k-th
    # derivative are y_(j+k) (j+k)!/j!
    degree = 6
    y, binom = [], 1.0
    for j in range(degree + 5):
        y.append(binom + (j == 0) + (j == 2))
        binom *= (1.5 - j) / (j + 1)
    coords = ("y", "p", "q", "r", "s")
    point = {"x": 0.0, **{c: y[k] * math.factorial(k) for k, c in enumerate(coords)}}
    got = flow_series(gn5, [point], degree)[0]
    assert got["x"] == (1.0,) + (0.0,) * (degree - 1)
    for k, c in enumerate(coords):
        want = [y[j + k] * math.factorial(j + k) / math.factorial(j) for j in range(1, degree + 1)]
        assert got[c] == pytest.approx(want, rel=1e-14, abs=0.0), c


def test_flow_series_of_degree_0_and_1(conics5):
    point = {"x": 0.25, "y": 1.0, "p": 0.3, "q": 2.0, "r": 0.1, "s": -0.2}
    assert flow_series(conics5, [point], 0) == [{c: () for c in conics5.jet_vars}]
    # degree 1 is the direction of the total derivative
    got = flow_series(conics5, [point, point], 1)
    want = {"x": 1.0, "y": 0.3, "p": 2.0, "q": 0.1, "r": -0.2, "s": evaluate(conics5.rhs, point)}
    assert got == [{c: (v,) for c, v in want.items()}] * 2


def test_ode_definition_file(tmp_path):
    path = tmp_path / "ode.txt"
    path.write_text(
        "# a test equation\n"
        "name = sample\n"
        "order = 5\n"
        "rhs = -(40/9)*r^3/q^2 + 5*r*s/q\n"
    )
    ode = load_ode_file(path)
    assert ode.name == "sample" and ode.order == 5
    assert equiv(ode.rhs, builtin("conics5").rhs, ode.domain).passed


def test_ode_definition_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("name = x\norder = seven\nrhs = q\n")
    with pytest.raises(JetError):
        load_ode_file(path)
    path.write_text("name = x\n")
    with pytest.raises(JetError):
        load_ode_file(path)


def test_order_must_be_4_or_5(conics5):
    with pytest.raises(JetError):
        JetOde("bad", 3, parse("q"), conics5.domain)


def test_rhs_variables_must_fit_order(conics4):
    with pytest.raises(JetError):
        JetOde("bad", 4, parse("s"), conics4.domain)
