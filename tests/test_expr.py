import gc
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from odegeom import expr
from odegeom.expr import (
    VARIABLES,
    ZERO,
    Const,
    EvalError,
    Evaluator,
    ExprError,
    Jet1,
    Jet2,
    Neg,
    ParseError,
    Pow,
    Prod,
    SampleDomain,
    Sum,
    Taylor,
    Var,
    add,
    diff,
    equiv,
    equiv_all,
    equiv_each,
    evaluate,
    free_variables,
    mul,
    neg,
    parse,
    pow_,
    to_string,
    topo_order,
    var,
    worst_sample,
)
from odegeom.geom import sample_points
from odegeom.jet import JetOde, flow_series, load_ode_file, total_derivative
from odegeom.pentad import _build_rows, solve_pentad
from odegeom.radon import COORDS, _condition_rows
from odegeom.report import CheckRecord

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
        assert parse(to_string(e)) is e, to_string(e)


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
        Evaluator([e]).eval_points([{"x": 0.5}])
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


def test_equiv_each_is_one_result_per_pair_and_equiv_all_their_worst():
    good = (parse("q*q^(-1/2)"), parse("q^(1/2)"))
    bad = (parse("q"), parse("r"))
    worse = (parse("q"), parse("3*r"))
    each = equiv_each([good, bad, worse, bad], DOM, seed=3)
    assert [r.passed for r in each] == [True, False, False, False]
    rng = random.Random(3)
    points = [DOM.sample(rng) for _ in range(expr.DEFAULT_SAMPLES)]
    gaps = [abs(pt["q"] - pt["r"]) / (1.0 + max(abs(pt["q"]), abs(pt["r"]))) for pt in points]
    assert each[1].max_residual == max(gaps)
    assert each[1].worst_point == points[gaps.index(max(gaps))]
    assert each[1] == equiv(*bad, DOM, seed=3) == each[3]
    assert each[2] == equiv(*worse, DOM, seed=3)
    assert equiv_all([good, bad, worse, bad], DOM, seed=3) == max(each, key=lambda r: r.max_residual)
    assert equiv_all([bad, bad], DOM, seed=3) == each[1]
    with pytest.raises(ExprError):
        equiv_each([], DOM)


def test_worst_sample_is_the_first_largest_and_a_nan_wins():
    points = [{"q": float(i)} for i in range(4)]
    # trailing axes are reduced by max; a tie goes to the first sample
    assert worst_sample([[0.1, 0.3], [0.3, 0.2], [0.0, 0.3], [0.2, 0.2]], points) == (
        0.3, points[0])
    assert worst_sample(np.array([1.0, 2.0, 5.0, 5.0]), points) == (5.0, points[2])
    for residuals, at in (([np.nan, 1.0, 5.0, 0.0], 0),
                          ([1.0, 5.0, np.nan, np.nan], 2),
                          ([[0.0, 1.0], [2.0, np.nan], [3.0, 0.0], [np.nan, 9.0]], 1)):
        residual, point = worst_sample(residuals, points)
        assert math.isnan(residual) and point is points[at]
    with pytest.raises(ValueError):
        worst_sample([1.0, 2.0], points)


def test_a_nan_residual_fails_its_record_at_its_point():
    points = [{"q": float(i)} for i in range(3)]
    rec = CheckRecord.from_residual("row", [[0.0, 1e-12], [np.nan, 0.0], [0.5, 0.0]], 1e-8, 7,
                                    points=points)
    assert rec.status == "fail" and math.isnan(rec.max_residual)
    assert rec.worst_point is points[1] and rec.samples == 7
    rec = CheckRecord.from_residual("row", [0.0, 1e-9, 1e-9], 1e-8, 3, points=points)
    assert (rec.status, rec.max_residual, rec.worst_point) == ("pass", 1e-9, points[1])


def test_integer_power_under_a_fractional_power_is_kept():
    e = parse("(p^2)^(1/2)")
    assert e is not var("p") and isinstance(e, Pow) and isinstance(e.base, Pow)
    assert evaluate(e, {"p": -0.5}) == 0.5
    assert parse(to_string(e)) is e
    assert to_string(e) == "(p^2)^(1/2)"
    assert parse("(q^(1/2))^3") is pow_(var("q"), Fraction(3, 2))
    assert parse("(q^2)^3") is pow_(var("q"), 6)
    assert parse("(q^(1/2))^(1/3)") is pow_(var("q"), Fraction(1, 6))
    assert diff(e, "p") is parse("(1/2)*(p^2)^(-1/2)*2*p")


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


# -- the interned core ------------------------------------------------------

USER_RHS = "-(7/3)*r^3/q^2 + 5*r*s/q + (2/3)*s^2/r"


def _user_ode(tmp_path):
    path = tmp_path / "user.ode"
    path.write_text(f"name = user\norder = 5\nrhs = {USER_RHS}\n")
    return load_ode_file(path)


def test_equal_constructions_are_one_node():
    a = add(mul(Const(3), pow_(var("q"), Fraction(1, 2)), var("r")), neg(var("s")))
    b = parse("3*q^(1/2)*r - s")
    assert a is b
    assert parse(USER_RHS) is parse(USER_RHS)
    assert Const(Fraction(2, 4)) is Const(Fraction(1, 2))
    assert Const(2) is Const(Fraction(4, 2))
    assert Var("q") is var("q")
    assert Pow(var("q"), 2) is pow_(var("q"), Fraction(2))


def test_diff_is_memoized_per_node():
    e = parse(USER_RHS)
    assert diff(e, "q") is diff(e, "q")
    assert diff(e, var("s")) is diff(parse(USER_RHS), "s")
    # a node built again after the first diff maps to the same derivative
    assert diff(parse("q^3*r"), "q") is diff(mul(pow_(var("q"), 3), var("r")), "q")


def test_nodes_are_immutable():
    e = parse("q*r + 1")
    for node, attr in ((e, "terms"), (var("q"), "name"), (Const(2), "value"),
                       (parse("q^(1/2)"), "exponent"), (parse("-(q*r)"), "child")):
        with pytest.raises(AttributeError):
            setattr(node, attr, None)
        with pytest.raises(AttributeError):
            setattr(node, "extra", 1)
    assert parse("q*r + 1") is e


def _table_sizes():
    gc.collect()
    return len(expr._INTERN), {v: len(m) for v, m in expr._DIFF_MEMO.items()}


def test_solve_leaves_no_nodes_or_derivatives_behind(tmp_path):
    # a first solve leaves derivatives keyed on the module-level singletons
    # (variables, 0, 1); a second solve must leave nothing at all
    warm = solve_pentad(_user_ode(tmp_path))
    del warm
    before = _table_sizes()
    pd = solve_pentad(_user_ode(tmp_path))
    during = _table_sizes()
    assert during[0] > before[0] and during[1]["q"] > before[1]["q"]
    del pd
    assert _table_sizes() == before


def _node_key(node):
    if isinstance(node, Const):
        return (Const, node.value)
    if isinstance(node, Var):
        return (Var, node.name)
    if isinstance(node, Pow):
        return (Pow, node.base, node.exponent)
    return (type(node), node.children())


def _assert_hash_consed(roots):
    keys = {}
    for node in topo_order(roots):
        other = keys.setdefault(_node_key(node), node)
        assert other is node, f"two nodes for {to_string(node)}"


def _frame_roots(pd):
    # the frame keeps no equation expressions; they are built here, as the
    # symbolic oracle of the numeric equations builds them
    return ([e for row in pd.lower for e in row]
            + [e for row in pd.coframe_rows for e in row]
            + _build_rows(pd.ode, pd.P, pd.Q)[1])


def test_solved_frames_have_one_node_per_key(pd_conics5, tmp_path):
    _assert_hash_consed(_frame_roots(pd_conics5))
    _assert_hash_consed(_frame_roots(solve_pentad(_user_ode(tmp_path))))


# -- one-level constructors and the support mask, against the old core ------
#
# The oracles are the constructors and the derivative as they were before
# nodes carried a support mask: add and mul flatten every nested operand
# through a stack and fold every constant through Fraction arithmetic, and
# diff walks every node under the root into a fresh memo.  The new ones
# must build the very same interned node.


def _add_by_stack(*terms):
    flat = []
    acc = 0
    stack = [expr.as_expr(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack.extend(reversed(t.terms))
        elif isinstance(t, Const):
            acc += t.value
        else:
            flat.append(t)
    if acc != 0:
        flat.append(Const(acc))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def _mul_by_stack(*factors):
    flat = []
    acc = 1
    stack = [expr.as_expr(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if isinstance(f, Prod):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Const):
            acc *= f.value
        elif isinstance(f, Neg):
            acc = -acc
            stack.append(f.child)
        else:
            flat.append(f)
    if acc == 0:
        return ZERO
    if not flat:
        return Const(acc)
    if acc != 1:
        flat.insert(0, Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def _diff_walking_everything(roots, name):
    """{node: d(node)/d(name)} for every node under roots, by the old
    constructors."""
    memo = {}
    for node in topo_order(roots):
        if isinstance(node, Const):
            d = ZERO
        elif isinstance(node, Var):
            d = expr.ONE if node.name == name else ZERO
        elif isinstance(node, Neg):
            d = neg(memo[node.child])
        elif isinstance(node, Sum):
            d = _add_by_stack(*[memo[t] for t in node.terms])
        elif isinstance(node, Prod):
            terms = []
            factors = node.factors
            for i, f in enumerate(factors):
                df = memo[f]
                if df is ZERO:
                    continue
                terms.append(_mul_by_stack(df, *(factors[:i] + factors[i + 1:])))
            d = _add_by_stack(*terms) if terms else ZERO
        else:
            db = memo[node.base]
            d = ZERO if db is ZERO else _mul_by_stack(
                Const(node.exponent), pow_(node.base, node.exponent - 1), db)
        memo[node] = d
    return memo


def _walked_free_variables(roots) -> dict:
    """{node: its set of variable names}, by walking the DAG."""
    free = {}
    for node in topo_order(roots):
        if isinstance(node, Var):
            free[node] = {node.name}
        else:
            free[node] = set().union(*[free[c] for c in node.children()])
    return free


def _assert_matches_the_old_core(nodes):
    free = _walked_free_variables(nodes)
    for node, names in free.items():
        assert node.mask == sum(1 << VARIABLES.index(n) for n in names)
        assert free_variables(node) == names
    order = list(free)
    for a, b in zip(order, order[1:] + order[:1]):
        for args in ((a, neg(b), a), (neg(a), Const(-2), b, Const(Fraction(1, 2)))):
            assert add(*args) is _add_by_stack(*args)
            assert mul(*args) is _mul_by_stack(*args)
    for name in VARIABLES:
        expected = _diff_walking_everything(order, name)
        for node in order:
            assert diff(node, name) is expected[node], (to_string(node), name)


_leaves = st.one_of(
    st.sampled_from(VARIABLES).map(var),
    st.builds(lambda n, d: Const(Fraction(n, d)), st.integers(-4, 4), st.integers(1, 3)),
)


def _extend(children):
    lists = st.lists(children, min_size=1, max_size=4)
    bases = children.filter(lambda e: not isinstance(e, Const))
    return st.one_of(
        lists.map(lambda xs: add(*xs)),
        lists.map(lambda xs: mul(*xs)),
        children.map(neg),
        # a constant base may be negative or 0, which pow_ refuses
        st.builds(lambda e, k: pow_(e, Fraction(k, 2)), bases, st.integers(-3, 3)),
        st.builds(lambda e, k: pow_(e, k), bases, st.integers(-2, 3)),
    )


_exprs = st.recursive(_leaves, _extend, max_leaves=12)


@settings(max_examples=100, deadline=None)
@given(st.lists(_exprs, min_size=1, max_size=4))
def test_constructors_and_diff_match_the_old_core_on_random_expressions(operands):
    _assert_matches_the_old_core(operands)


def test_constructors_and_diff_match_the_old_core_on_the_frames(
        pd_conics5, pd_gn5, pd_conics4, tmp_path):
    for pd in (pd_conics5, pd_gn5, pd_conics4, solve_pentad(_user_ode(tmp_path))):
        _assert_matches_the_old_core([e for row in pd.lower + pd.coframe_rows for e in row])


def test_diff_outside_the_support_adds_no_memo_entry():
    e = parse("x*q + r^2 + q^(1/2)*s")
    r2 = parse("r^2")
    sizes = {v: len(m) for v, m in expr._DIFF_MEMO.items()}
    assert diff(e, "p") is ZERO and diff(r2, "q") is ZERO
    assert {v: len(m) for v, m in expr._DIFF_MEMO.items()} == sizes
    assert diff(e, "q") is parse("x + (1/2)*q^(-1/2)*s")
    assert e in expr._DIFF_MEMO["q"] and r2 not in expr._DIFF_MEMO["q"]
    assert parse("x") not in expr._DIFF_MEMO["q"]


# -- one evaluation loop, against the scalar interpreter it replaced ---------
#
# The oracle is the scalar loop the evaluator ran per point before
# `eval_points` became its only evaluation method, with the program it was
# compiled to: each sum starts at 0.0 and each product at 1.0, every
# intermediate is tested for a finite value, and all arithmetic is in Python
# floats.  A lone point must give its values; a batch must fail exactly
# where it fails at one of the points, and name the first such point.

_CONST, _VAR, _NEG, _SUM, _PROD, _IPOW, _FPOW = range(7)


def _old_program(exprs):
    slot = {}
    prog = []
    for i, node in enumerate(topo_order(exprs)):
        slot[node] = i
        if isinstance(node, Const):
            prog.append((_CONST, node.fvalue, None))
        elif isinstance(node, Var):
            prog.append((_VAR, node.name, None))
        elif isinstance(node, Neg):
            prog.append((_NEG, slot[node.child], None))
        elif isinstance(node, Sum):
            prog.append((_SUM, tuple(slot[t] for t in node.terms), None))
        elif isinstance(node, Prod):
            prog.append((_PROD, tuple(slot[f] for f in node.factors), None))
        elif node.exponent.denominator == 1:
            prog.append((_IPOW, slot[node.base], node.exponent.numerator))
        else:
            prog.append((_FPOW, slot[node.base], float(node.exponent)))
    return prog, [slot[e] for e in exprs]


def _scalar_oracle(ev, assignment):
    prog, outs = _old_program(ev.exprs)
    vals = [0.0] * len(prog)
    for i, (op, a, b) in enumerate(prog):
        if op == _CONST:
            v = a
        elif op == _VAR:
            try:
                v = float(assignment[a])
            except KeyError:
                raise EvalError(f"missing variable {a!r}", assignment) from None
        elif op == _NEG:
            v = -vals[a]
        elif op == _SUM:
            v = 0.0
            for t in a:
                v += vals[t]
        elif op == _PROD:
            v = 1.0
            for f in a:
                v *= vals[f]
        elif op == _IPOW:
            base = vals[a]
            if base == 0.0 and b < 0:
                raise EvalError("division by zero in integer power", assignment)
            try:
                v = base ** b
            except OverflowError:
                v = math.inf  # rejected below like any other overflow
        else:
            base = vals[a]
            if base < 0.0:
                raise EvalError(
                    f"negative base {base!r} under fractional exponent {b}", assignment
                )
            if base == 0.0 and b < 0:
                raise EvalError("zero base with negative exponent", assignment)
            try:
                v = base ** b
            except OverflowError:
                v = math.inf
        if not math.isfinite(v):
            raise EvalError("non-finite value during evaluation", assignment)
        vals[i] = v
    return [vals[o] for o in outs]


def _oracle_fails(ev, point) -> bool:
    try:
        _scalar_oracle(ev, point)
    except EvalError:
        return True
    return False


def _assert_lone_points_match_the_oracle(ev, points):
    for pt in points:
        if _oracle_fails(ev, pt):
            with pytest.raises(EvalError) as exc:
                ev.eval_points([pt])
            assert exc.value.point == pt
        else:
            assert ev.eval_points([pt])[:, 0].tolist() == _scalar_oracle(ev, pt)


_points = st.fixed_dictionaries({name: st.floats(-2.0, 2.0) for name in VARIABLES})


@settings(max_examples=200, deadline=None)
@given(st.lists(_exprs, min_size=1, max_size=4), _points)
def test_a_lone_point_matches_the_scalar_oracle_on_random_expressions(exprs, point):
    _assert_lone_points_match_the_oracle(Evaluator(exprs), [point])


@settings(max_examples=200, deadline=None)
@given(st.lists(_exprs, min_size=1, max_size=4), st.lists(_points, min_size=2, max_size=5))
def test_a_batch_fails_where_the_scalar_oracle_fails_first(exprs, points):
    ev = Evaluator(exprs)
    failing = [pt for pt in points if _oracle_fails(ev, pt)]
    if not failing:
        assert ev.eval_points(points).shape == (len(exprs), len(points))
        return
    with pytest.raises(EvalError) as exc:
        ev.eval_points(points)
    assert exc.value.point == failing[0]


def test_a_lone_point_matches_the_scalar_oracle_on_the_built_in_tables(
        pd_conics5, pd_gn5, pd_conics4, metric_conics5, metric_gn5, symbolic_metric_tables):
    for pd in (pd_conics5, pd_gn5, pd_conics4):
        points = sample_points(pd.ode, 3, seed=17)
        _assert_lone_points_match_the_oracle(Evaluator([pd.ode.rhs]), points)
        for rows in (pd.lower, pd.coframe_rows):
            _assert_lone_points_match_the_oracle(Evaluator([e for row in rows for e in row]), points)
    for m in (metric_conics5, metric_gn5):
        points = sample_points(m.ode, 3, seed=17)
        g, dg, ddg = symbolic_metric_tables(m)
        _assert_lone_points_match_the_oracle(Evaluator(g + dg), points)
        _assert_lone_points_match_the_oracle(Evaluator(ddg), points)
    jet_points = [dict(pt, x=0.0) for pt in sample_points(pd_conics5.ode, 3, seed=17)]
    _assert_lone_points_match_the_oracle(Evaluator(_conic_minor_table()), jet_points)


def _conic_minor_table():
    """The six signed 5x5 minors of the jet-condition matrix, each followed
    by its 5 first and 15 second partials over (y, p, q, r, s): 126
    polynomials, a large corpus of sums, products and integer powers."""
    rows = [[expr.as_expr(e) for e in row]
            for row in _condition_rows(*(var(n) for n in ("x",) + COORDS))]
    memo: dict = {}

    def det(i, cols):
        # Laplace expansion along row i of rows i.. restricted to cols
        if i == len(rows):
            return expr.ONE
        if (i, cols) not in memo:
            terms = []
            for j, col in enumerate(cols):
                if rows[i][col] is not ZERO:
                    term = mul(rows[i][col], det(i + 1, cols[:j] + cols[j + 1:]))
                    terms.append(neg(term) if j % 2 else term)
            memo[(i, cols)] = add(*terms)
        return memo[(i, cols)]

    table = []
    for k in range(6):
        minor = det(0, tuple(c for c in range(6) if c != k))
        if k % 2:
            minor = neg(minor)
        first = [diff(minor, c) for c in COORDS]
        table += [minor] + first
        table += [diff(first[i], COORDS[j]) for i in range(5) for j in range(i, 5)]
    return table


def test_a_batch_names_the_first_point_missing_a_variable():
    with pytest.raises(EvalError) as exc:
        Evaluator([parse("q + r")]).eval_points([{"q": 1.0, "r": 2.0}, {"q": 1.0}])
    assert exc.value.point == {"q": 1.0}
    assert "missing variable 'r'" in str(exc.value)


def test_an_overflowing_batch_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalError) as exc:
            Evaluator([parse("q^1000")]).eval_points([{"q": 2.0}, {"q": 1e300}])
    assert exc.value.point == {"q": 1e300}


def _as_columns(points):
    return {name: np.array([pt[name] for pt in points]) for name in points[0]}


def _parts(result) -> list:
    """The arrays of an `eval_points` result: the values alone, or every
    part of a forward-mode number."""
    if isinstance(result, np.ndarray):
        return [result]
    return list(result.coef) if isinstance(result, Taylor) else [
        getattr(result, part) for part in type(result).__slots__]


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# each point's tangent for Jet1, seeds along two directions for Jet2 and
# coefficients of degrees 1 and 2 for Taylor numbers
_KINDS = {
    "plain": (lambda k: None, False, False),
    "jet1": (lambda k: {"q": 1.0 + k, "s": -0.5}, False, False),
    "jet2": (lambda k: {"q": (1.0, 0.25 * k), "x": (0.0, 1.0)}, True, False),
    "taylor": (lambda k: {"q": (1.0, 0.25 * k), "s": (-0.5, 2.0)}, False, True),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_points_as_columns_are_the_points_as_mappings_bit_for_bit(kind):
    tangent, second_order, series = _KINDS[kind]
    ev = Evaluator([parse("x*y^2 - p^(1/2)/q"), parse("(q - 1)^(-2) + s^3"), parse("3")])
    rng = random.Random(7)
    points = [{v: rng.uniform(1.5, 3.0) for v in VARIABLES} for _ in range(5)]
    for batch in (points, points[:1]):
        tangents = None if kind == "plain" else [tangent(k) for k in range(len(batch))]
        want = ev.eval_points(batch, tangents, second_order, series)
        got = ev.eval_points(_as_columns(batch), tangents, second_order, series)
        assert type(got) is type(want)
        assert all(_same_bits(g, w) for g, w in zip(_parts(got), _parts(want), strict=True))


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_points_as_columns_fail_at_the_point_the_mappings_fail(kind):
    tangent, second_order, series = _KINDS[kind]
    ev = Evaluator([parse("x*y^2 - p^(1/2)/q"), parse("(q - 1)^(-2) + s^3")])
    points = [{v: 2.0 + 0.1 * k for v in VARIABLES} for k in range(4)]
    points[1]["p"], points[2]["q"] = 0.5, 1.0
    points[3]["p"] = -1.0
    for batch in (points, points[2:3]):
        tangents = None if kind == "plain" else [tangent(k) for k in range(len(batch))]
        with pytest.raises(EvalError) as mappings:
            ev.eval_points(batch, tangents, second_order, series)
        with pytest.raises(EvalError) as columns:
            ev.eval_points(_as_columns(batch), tangents, second_order, series)
        assert str(columns.value) == str(mappings.value)
        assert columns.value.point == mappings.value.point == points[2]
        assert "zero or non-finite base under a negative exponent" in str(columns.value)


def test_point_columns_must_be_one_dimensional_and_of_one_length():
    ev = Evaluator([parse("q + r")])
    with pytest.raises(ValueError):
        ev.eval_points({"q": np.ones(3), "r": np.ones(2)})
    with pytest.raises(ValueError):
        ev.eval_points({"q": np.ones((1, 3)), "r": np.ones((1, 3))})
    with pytest.raises(EvalError) as exc:
        ev.eval_points({"q": np.ones(3)})
    assert str(exc.value) == "missing variable 'r' at point {'q': 1.0}"


@pytest.mark.parametrize("text, point, message", [
    ("q*q + r", {"q": 1e200, "r": 1.0}, "non-finite value during evaluation"),
    ("q^1000 + r", {"q": 10.0, "r": 1.0}, "non-finite value during evaluation"),
    ("(q - 1)^(-1) + r", {"q": 1.0, "r": 1.0}, "zero or non-finite base under a negative exponent"),
    ("q^(1/2) + r", {"q": -4.0, "r": 1.0}, "negative base -4.0 under fractional exponent 0.5"),
], ids=["overflowing-product", "overflowing-power", "zero-base", "negative-base"])
def test_a_lone_plain_point_keeps_the_error_texts(text, point, message):
    ev = Evaluator([parse(text)])
    for points in ([point], _as_columns([point])):
        with pytest.raises(EvalError) as exc:
            ev.eval_points(points)
        assert str(exc.value) == f"{message} at point {point}"
        assert exc.value.point == point


def test_a_lone_plain_point_returns_its_floats():
    ev = Evaluator([parse("q^(-2) + r"), parse("3"), var("q")])
    values = ev.eval_points([{"q": 0.1, "r": 2.0}])
    assert values.shape == (3, 1) and values.dtype == np.float64
    assert values[:, 0].tolist() == [0.1 ** -2 + 2.0, 3.0, 0.1]


def test_a_directly_built_sum_or_product_of_one_operand_evaluates():
    q = var("q")
    ev = Evaluator([Sum((q,)), Prod((q,)), Sum((Neg(q),)), Prod((Sum((q,)),))])
    points = [{"q": 1.5}, {"q": -0.25}]
    _assert_lone_points_match_the_oracle(ev, points)
    assert ev.eval_points(points).tolist() == [[1.5, -0.25], [1.5, -0.25], [-1.5, 0.25], [1.5, -0.25]]


# -- forward mode: Jet1 numbers in the same loop ----------------------------
#
# Seeded with the direction of the total derivative D, the derivative parts
# are D of each expression, whose oracle is the symbolic `total_derivative`
# evaluated at the same points; the value parts must be the plain pass, bit
# for bit.  The equation's rhs is a polynomial, so the direction is defined
# at every point.

_POLY_ODE = JetOde("poly", 5, parse("x*s^2 - 3*r*q + y"), DOM)
_positive_points = st.fixed_dictionaries({name: st.floats(0.25, 2.0) for name in VARIABLES})


def _direction(points) -> list:
    """The direction of D at each point, as `Jet1` tangents: the flow's
    series of degree 1."""
    return [{v: c[0] for v, c in t.items()} for t in flow_series(_POLY_ODE, points, 1)]


def _derivative_scale(exprs, point, tangent) -> list:
    """Per expression, its derivative along the tangent at the point with
    every term taken by its size: each sum adds the sizes of its terms and
    each product those of its product-rule terms.  Two derivatives of one
    expression computed in different orders differ by rounding, which is
    relative to this size, not to their result, which may cancel."""
    val, size = {}, {}
    for node in topo_order(exprs):
        if isinstance(node, Const):
            val[node], size[node] = node.fvalue, 0.0
        elif isinstance(node, Var):
            val[node], size[node] = point[node.name], abs(tangent.get(node.name, 0.0))
        elif isinstance(node, Neg):
            val[node], size[node] = -val[node.child], size[node.child]
        elif isinstance(node, Sum):
            val[node] = math.fsum(val[t] for t in node.terms)
            size[node] = math.fsum(size[t] for t in node.terms)
        elif isinstance(node, Prod):
            vals = [abs(val[f]) for f in node.factors]
            val[node] = math.prod(val[f] for f in node.factors)
            size[node] = math.fsum(size[f] * math.prod(vals[:i] + vals[i + 1:])
                                   for i, f in enumerate(node.factors))
        else:
            x, b = val[node.base], float(node.exponent)
            try:
                val[node] = x ** b
                size[node] = abs(b) * abs(x) ** (b - 1) * size[node.base]
            except (OverflowError, ZeroDivisionError):
                val[node] = size[node] = math.inf
    # a size that overflowed (inf, or nan from inf * 0) bounds nothing
    return [math.inf if math.isnan(size[e]) else size[e] for e in exprs]


def _assert_forward_mode_matches(ev, points):
    try:
        plain = ev.eval_points(points)
        want = Evaluator([total_derivative(e, _POLY_ODE) for e in ev.exprs]).eval_points(points)
    except EvalError:
        return  # undefined at a point: the error texts are tested below
    tangents = _direction(points)
    jets = ev.eval_points(points, tangents)
    assert isinstance(jets, Jet1)
    assert jets.val.tobytes() == plain.tobytes()
    scale = np.array([_derivative_scale(ev.exprs, pt, t) for pt, t in zip(points, tangents)]).T
    assert np.all(np.abs(jets.der - want) <= 1e-12 * (1.0 + scale))


_CANCELLING_POINT = {"x": 0.0, "y": 0.0, "p": 0.0, "q": 0.0, "r": 1.01343642441124e-102,
                     "s": 0.71875}


@settings(max_examples=100, deadline=None)
@given(st.lists(_exprs, min_size=1, max_size=4),
       st.lists(_positive_points | _points, min_size=2, max_size=4))
# D(r * r^-1) = s r^-1 - r r^-2 s: two terms of 7e101 that cancel to 0, while
# the forward-mode pass, rounding in another order, gives -1.2e86
@example([mul(var("r"), pow_(var("r"), -1))], [_CANCELLING_POINT, dict(_CANCELLING_POINT, r=1.0)])
def test_forward_mode_is_the_plain_pass_and_the_total_derivative(exprs, points):
    ev = Evaluator(exprs)
    _assert_forward_mode_matches(ev, points)
    for pt in points:
        _assert_forward_mode_matches(ev, [pt])


@pytest.mark.parametrize("text, bad, message", [
    ("(q - 1)^(1/2) + r", 0.5, "negative base -0.5 under fractional exponent 0.5"),
    ("1/(q - 1) + r", 1.0, "zero or non-finite base under a negative exponent"),
], ids=["negative-base", "zero-base"])
def test_forward_mode_errors_name_the_same_point_with_the_same_text(text, bad, message):
    ev = Evaluator([parse(text)])
    points = [{"q": 1.5, "r": 1.0}, {"q": bad, "r": 1.0}, {"q": 0.25, "r": 2.0}]
    tangents = [{"q": 1.0, "r": -0.5}, {"q": 2.0}, {"r": 1.0}]
    # each point's own seeds along two directions, the second its tangent;
    # as series, the same pairs are the coefficients of degrees 1 and 2
    seeds = [{v: (1.0, t) for v, t in tangent.items()} for tangent in tangents]
    for k in (slice(None), slice(1, 2)):
        with pytest.raises(EvalError) as plain:
            ev.eval_points(points[k])
        for tgs, second_order, series in ((tangents[k], False, False), (seeds[k], True, False),
                                          (seeds[k], False, True)):
            with pytest.raises(EvalError) as jet:
                ev.eval_points(points[k], tgs, second_order, series)
            assert str(jet.value) == str(plain.value)
            assert message in str(jet.value)
            assert jet.value.point == plain.value.point == points[1]


# -- Taylor numbers along the flow -----------------------------------------
#
# Seeded with the flow's series, a Taylor number's coefficient of degree k
# is D^k of the expression over k!, whose oracle is the iterated symbolic
# `total_derivative` evaluated at the same points; the value parts must be
# the plain pass, bit for bit.


def _iterated_total_derivatives(exprs, points, degree):
    """D^k of each expression over k! at the points, k = 1 .. degree: an
    array (degree, len(exprs), len(points))."""
    table = [list(exprs)]
    for _ in range(degree):
        table.append([total_derivative(e, _POLY_ODE) for e in table[-1]])
    return np.array([Evaluator(row).eval_points(points) / math.factorial(k)
                     for k, row in enumerate(table[1:], 1)])


@settings(max_examples=100, deadline=None)
@given(st.lists(_exprs, min_size=1, max_size=3),
       st.lists(_positive_points, min_size=1, max_size=3), st.integers(1, 3))
def test_taylor_coefficients_are_iterated_total_derivatives_over_factorials(
        exprs, points, degree):
    ev = Evaluator(exprs)
    try:
        plain = ev.eval_points(points)
        want = _iterated_total_derivatives(exprs, points, degree)
    except EvalError:
        return  # undefined at a point: the error texts are tested above
    got = ev.eval_points(points, flow_series(_POLY_ODE, points, degree), series=True)
    assert isinstance(got, Taylor) and len(got.coef) == degree + 1
    assert got.val.tobytes() == plain.tobytes()
    for k in range(degree):
        assert np.all(np.abs(got.coef[k + 1] - want[k]) <= 1e-9 * (1.0 + np.abs(want[k])))


@pytest.mark.parametrize("count", [1, 2])
def test_a_zero_base_under_a_square_at_a_flow_point(count):
    # (q - 1)^2 is a product, so its series at q = 1 divides by nothing
    e = parse("(q - 1)^2 + r")
    points = [{"x": 0.5, "y": 1.0, "p": -0.5, "q": 1.0, "r": 0.75, "s": -1.25},
              {"x": 0.0, "y": 2.0, "p": 0.5, "q": 1.5, "r": 1.0, "s": 0.5}][:count]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = Evaluator([e]).eval_points(points, flow_series(_POLY_ODE, points, 4), series=True)
    want = _iterated_total_derivatives([e], points, 4)
    assert got.val.tolist() == [[0.75, 1.25][:count]]
    assert np.all(np.abs(np.array(got.coef[1:]) - want) <= 1e-12 * (1.0 + np.abs(want)))


def test_taylor_values_and_degree_1_are_those_of_the_plain_and_jet1_passes():
    # the degree-1 case is Jet1's first-order pass, up to the rounding of
    # its power rule, and the values are the plain pass, bit for bit
    ev = Evaluator([parse("q^(1/2)*r^3 - s/q^2 + (x*p - y)^(1/3)")])
    points = [{"x": 0.5, "y": -1.0, "p": 0.25, "q": 1.5, "r": 0.5, "s": 0.75}] * 2
    got = ev.eval_points(points, flow_series(_POLY_ODE, points, 1), series=True)
    jets = ev.eval_points(points, _direction(points))
    assert got.val.tobytes() == jets.val.tobytes() == ev.eval_points(points).tobytes()
    assert np.allclose(got.coef[1], jets.der, rtol=1e-14, atol=0.0)


# -- second-order forward mode: Jet2 numbers in the same loop ---------------
#
# Seeded along d directions, the value parts must be the plain pass bit for
# bit, and a direction seeded with a Jet1 tangent must give that pass's
# derivative bit for bit: both follow the same product and power rules.
# The Hessians are checked against symbolic second partials on the conic
# minors here and on the metric in `test_geom`.


def _seeds(tangents):
    """Two directions per point: the tangent and e_q + e_r/2 (d = 2)."""
    return [{v: (t.get(v, 0.0), {"q": 1.0, "r": 0.5}.get(v, 0.0)) for v in VARIABLES}
            for t in tangents]


@settings(max_examples=100, deadline=None)
@given(st.lists(_exprs, min_size=1, max_size=4),
       st.lists(_positive_points | _points, min_size=1, max_size=4))
def test_second_order_values_are_the_plain_pass_and_gradients_the_first_order_pass(exprs, points):
    ev = Evaluator(exprs)
    tangents = _direction(points)
    try:
        plain = ev.eval_points(points)
        first = ev.eval_points(points, tangents)
    except EvalError:
        return  # undefined at a point: the error texts are tested above
    try:
        second = ev.eval_points(points, _seeds(tangents), second_order=True)
    except EvalError as err:
        # a second derivative may overflow where the first does not
        assert str(err).startswith("non-finite value during evaluation")
        return
    assert isinstance(second, Jet2)
    assert second.grad.shape == (2,) + plain.shape
    assert second.hess.shape == (2, 2) + plain.shape
    assert second.val.tobytes() == plain.tobytes()
    assert second.grad[0].tobytes() == first.der.tobytes()


@pytest.mark.parametrize("count", [1, 3])
def test_second_order_conic_minors_match_their_symbolic_partials(pd_conics5, count):
    table = _conic_minor_table()
    minors = table[::21]
    points = [dict(pt, x=0.0) for pt in sample_points(pd_conics5.ode, count, seed=17)]
    want = Evaluator(table).eval_points(points).reshape(6, 21, count)
    upper = [(i, j) for i in range(5) for j in range(i, 5)]
    want_grad = np.moveaxis(want[:, 1:6], 1, 0)
    want_hess = np.empty((5, 5, 6, count))
    for k, (i, j) in enumerate(upper):
        want_hess[i, j] = want_hess[j, i] = want[:, 6 + k]
    seeds = [dict(zip(COORDS, np.eye(5)))] * count
    got = Evaluator(minors).eval_points(points, seeds, second_order=True)
    assert got.val.tobytes() == Evaluator(minors).eval_points(points).tobytes()
    for part, ref in ((got.grad, want_grad), (got.hess, want_hess)):
        assert np.max(np.abs(part - ref)) <= 1e-12 * np.max(np.abs(ref))
