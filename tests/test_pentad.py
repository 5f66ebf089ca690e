import json
import random
from fractions import Fraction

import numpy as np
import pytest

from odegeom import catalog, cli, pentad
from odegeom.expr import (
    DEFAULT_SEED,
    ZERO,
    Const,
    Evaluator,
    Taylor,
    add,
    equiv,
    equiv_each,
    mul,
    parse,
    relative_residual,
)
from odegeom.jet import JetOde, builtin, load_ode_file
from odegeom.pentad import (
    PentadError,
    frame_values,
    solve_pentad,
    symplectic_at,
)

W = "(x*p - y)"


def test_solved_P_Q_conics5(conics5, pd_conics5):
    dom = conics5.domain
    assert equiv(pd_conics5.P, parse("q^(1/2)"), dom).passed
    assert equiv(pd_conics5.Q, parse("r^2/(48*q^(5/2))"), dom).passed


def test_solved_P_Q_gn5(gn5, pd_gn5):
    dom = gn5.domain
    assert equiv(pd_gn5.P, parse("r^(1/3)"), dom).passed
    assert equiv(pd_gn5.Q, ZERO, dom).passed


def test_solved_P_Q_conics4(conics4, pd_conics4):
    dom = conics4.domain
    assert equiv(pd_conics4.P, parse(f"q^(4/9)*{W}^(1/3)"), dom).passed
    ref = parse(f"(1/(9*q^(4/9)*{W}^(1/3)))*((2/9)*r^2/q^2 + x*r/(3*{W}) - x^2*q^2/{W}^2)")
    assert equiv(pd_conics4.Q, ref, dom).passed


def _letters(pd, symbolic_letters):
    """The symbolic letters: the program's at order 5, which builds none at
    order 4, where the test oracle builds the last shift."""
    if pd.n == 5:
        return pd.coefficients
    with pytest.raises(PentadError):
        pd.coefficients
    return symbolic_letters(pd)


@pytest.mark.parametrize("ode_name", ["conics5", "gn5", "conics4"])
def test_coefficients_match_catalog(ode_name, request, symbolic_letters):
    pd = request.getfixturevalue(f"pd_{ode_name}")
    dom = pd.ode.domain
    co = _letters(pd, symbolic_letters)
    for letter, text in catalog.for_ode(ode_name)["coefficients"].items():
        res = equiv(co[letter], catalog.expr(text), dom)
        assert res.passed, f"{ode_name} coefficient {letter}: {res.max_residual}"


@pytest.mark.parametrize("ode_name", ["conics5", "gn5", "conics4"])
def test_residual_identities_pass(ode_name, request, residual_rows):
    pd = request.getfixturevalue(f"pd_{ode_name}")
    assert all(row.status == "pass" for row in residual_rows(pd))
    names = pd.residual_names
    expected_count = 3 if pd.n == 5 else 2
    assert sum(name.startswith("residual_identity") for name in names) == expected_count


def test_negative_control_perturbed_equation(conics5, residual_rows):
    bad = JetOde("bad", 5, parse("-(41/9)*r^3/q^2 + 5*r*s/q"), conics5.domain)
    failing = [row.name for row in residual_rows(solve_pentad(bad))
               if row.name.startswith("residual_identity") and row.status != "pass"]
    assert failing, "a perturbed equation must break at least one identity"


def test_ansatz_failure_raises(conics5):
    # rhs whose top derivative cannot be a log-derivative of the ansatz basis
    weird = JetOde("weird", 5, parse("s^2*y"), conics5.domain)
    with pytest.raises(PentadError):
        solve_pentad(weird)


@pytest.mark.parametrize("ode_name", ["conics5", "gn5", "conics4"])
def test_defining_recurrences_hold_as_identities(ode_name, request, symbolic_letters):
    """The coefficient letters satisfy their defining relations with primes
    meaning the total derivative."""
    from odegeom.jet import total_derivative as D

    pd = request.getfixturevalue(f"pd_{ode_name}")
    ode = pd.ode
    dom = ode.domain
    P, Q = pd.P, pd.Q
    co = _letters(pd, symbolic_letters)
    Pp = D(P, ode)
    Ppp = D(Pp, ode)
    Qp = D(Q, ode)
    if pd.n == 5:
        relations = {
            "A": 8 * Pp * Q + 4 * P * Qp,
            "B": 4 * Ppp + 40 * P ** 2 * Q,
            "C": 36 * P * Pp,
            "E": D(co["A"], ode) + co["B"] * Q,
            "F": D(co["B"], ode) + 4 * P * co["A"] + 2 * Q * co["C"],
            "G": D(co["C"], ode) + 3 * P * co["B"] + 72 * P ** 3 * Q,
            "H": 144 * P ** 2 * Pp,
        }
    else:
        relations = {
            "A": 3 * P * Qp + 6 * Pp * Q,
            "B": 3 * Ppp + 21 * P ** 2 * Q,
            "C": 18 * P * Pp,
            "D": 6 * P ** 3,
            "E": D(co["A"], ode) + co["B"] * Q,
            "F": D(co["B"], ode) + 3 * co["A"] * P + 2 * co["C"] * Q,
            "G": D(co["C"], ode) + 2 * co["B"] * P + 3 * co["D"] * Q,
            "H": 36 * P ** 2 * Pp,
        }
    for letter, rhs in relations.items():
        res = equiv(co[letter], rhs, dom)
        assert res.passed, f"{ode_name} {letter}: {res.max_residual}"


def test_coframe_times_lower_is_identity(pd_conics5, conics5):
    C = pd_conics5.coframe_rows
    dom = conics5.domain
    for i in range(5):
        for j in range(5):
            acc = add(*[mul(C[i][a], pd_conics5.lower[a][j]) for a in range(5)])
            want = parse("1") if i == j else ZERO
            assert equiv(acc, want, dom).passed


def test_coframe_matches_catalog_conics5(pd_conics5, conics5):
    ref = catalog.matrix(catalog.for_ode("conics5")["coframe"])
    dom = conics5.domain
    for i in range(5):
        for a in range(5):
            assert equiv(pd_conics5.coframe_rows[i][a], ref[i][a], dom).passed


def test_frame_is_lower_transpose(pd_gn5):
    # the frame vector E_i = sum_a L[a][i] d/d(coord_a); the last one is
    # 24 P^4 d/ds only
    E4 = [row[4] for row in pd_gn5.lower]
    dom = pd_gn5.ode.domain
    assert equiv(E4[4], parse("24*r^(4/3)"), dom).passed
    for a in range(4):
        assert E4[a] is ZERO or equiv(E4[a], ZERO, dom).passed


def test_symplectic_requires_order4(pd_conics5):
    with pytest.raises(PentadError):
        symplectic_at(pd_conics5)


@pytest.fixture(scope="module")
def omega(pd_conics4, symbolic_two_form):
    return symbolic_two_form(pd_conics4)


def test_symplectic_matches_catalog(omega, conics4):
    dom = conics4.domain
    coords = conics4.coords
    for (ca, cb), text in catalog.for_ode("conics4")["symplectic"].items():
        a, b = coords.index(ca), coords.index(cb)
        assert equiv(omega.matrix[a][b], catalog.expr(text), dom).passed, (ca, cb)


def test_symplectic_closed(omega, conics4):
    for comp in omega.closure:
        assert equiv(comp, ZERO, conics4.domain).passed


def test_symplectic_wedge_square(omega, conics4):
    ref = catalog.expr(catalog.for_ode("conics4")["symplectic_volume"])
    assert equiv(omega.volume, ref, conics4.domain).passed


def test_symplectic_base_point_independence(omega, conics4):
    for comp in omega.x_invariance:
        assert equiv(comp, ZERO, conics4.domain).passed


def test_antisymmetry_exact(omega, pd_conics4):
    w = symplectic_at(pd_conics4)[0]
    assert np.array_equal(w, -np.swapaxes(w, 1, 2))
    for a in range(4):
        assert omega.matrix[a][a] is ZERO
        assert not w[:, a, a].any()


def _order4_user_ode(tmp_path):
    """An order-4 equation with no catalogue entry; its first residual
    identity fails, its two-form is closed."""
    path = tmp_path / "user4.ode"
    path.write_text("name = user4\norder = 4\nrhs = (5/4)*r^2/q\n")
    return load_ode_file(path)


def _two_form_against_the_oracle(pd, oracle):
    """The numeric omega, volume, closure and base-point arrays at the
    solve's points, and the oracle's values there, each pair as
    (got, want) with the point on the first axis."""
    omega, volume, closure, base_point = symplectic_at(pd)
    want = Evaluator([e for row in oracle.matrix for e in row] + [oracle.volume]
                     + oracle.closure + oracle.x_invariance).eval_points(pd.points).T
    return [(omega, want[:, :16].reshape(-1, 4, 4)), (volume, want[:, 16]),
            (closure, want[:, 17:21]), (base_point, want[:, 21:])]


@pytest.mark.parametrize("ode_name", ["conics4", "user4"])
def test_numeric_two_form_matches_the_symbolic_oracle(
        ode_name, pd_conics4, tmp_path, symbolic_two_form):
    pd = pd_conics4 if ode_name == "conics4" else solve_pentad(_order4_user_ode(tmp_path))
    for got, want in _two_form_against_the_oracle(pd, symbolic_two_form(pd)):
        assert got.shape == want.shape
        assert np.max(relative_residual(got, want)) <= 1e-12


def test_perturbed_pairing_fails_the_symplectic_rows_as_the_oracle_does(
        monkeypatch, pd_conics4, symbolic_two_form):
    # J_12 = -2 for -3: omega = e^1 ^ e^4 - 2 e^2 ^ e^3 is neither closed
    # nor the catalogued form, and the numeric arrays still agree with the
    # oracle's, now far from 0
    J = pentad._J.copy()
    J[1, 2], J[2, 1] = -2.0, 2.0
    monkeypatch.setattr(pentad, "_J", J)
    oracle = symbolic_two_form(pd_conics4, j12=-2)
    pairs = _two_form_against_the_oracle(pd_conics4, oracle)
    for got, want in pairs:
        assert np.max(relative_residual(got, want)) <= 1e-12
    code, text = cli.run(["pentad", "--ode", "conics4", "--json"])
    assert code == 1
    rows = {row["name"]: row for row in json.loads(text)}
    assert sorted(n for n, row in rows.items() if row["status"] != "pass") == [
        "symplectic_base_point_independent", "symplectic_closed",
        "symplectic_matches_expected", "symplectic_wedge_square"]
    # each residual row reports the oracle's largest residual against 0
    for name, (_, want) in (("symplectic_closed", pairs[2]),
                            ("symplectic_base_point_independent", pairs[3])):
        ref = np.max(relative_residual(want, 0.0))
        assert ref > 0.1
        assert rows[name]["max_residual"] == pytest.approx(ref, rel=1e-9)


# -- the coefficient equations in numbers, against the symbolic last shift --


def _seeded_user_ode(tmp_path, seed=11):
    """An order-5 equation with no catalogue entry and P = q^(1/2) r^(b/5)."""
    rng = random.Random(seed)
    a = Fraction(rng.randint(1, 80), rng.randint(1, 18))
    den = rng.randint(2, 48)
    b = 5 * Fraction(rng.choice([n for n in range(-den + 1, den) if n]), den)
    path = tmp_path / "user.ode"
    path.write_text(f"name = user\norder = 5\nrhs = -({a})*r^3/q^2 + 5*r*s/q + ({b})*s^2/r\n")
    return load_ode_file(path)


@pytest.fixture(params=["conics5", "gn5", "conics4", "user", "control"])
def any_pd(request, tmp_path, conics5):
    if request.param == "user":
        return solve_pentad(_seeded_user_ode(tmp_path))
    if request.param == "control":
        return solve_pentad(JetOde("bad", 5, parse("-(41/9)*r^3/q^2 + 5*r*s/q"), conics5.domain))
    return request.getfixturevalue(f"pd_{request.param}")


def test_numeric_equations_match_the_symbolic_last_shift(any_pd, residual_rows, symbolic_frame):
    ode = any_pd.ode
    points = ode.domain.draw(50, DEFAULT_SEED)
    rows, equations = symbolic_frame(any_pd)
    # the frame built on first read is the eager build, node for node
    assert all(a is b for got, want in zip(any_pd.lower, rows) for a, b in zip(got, want))
    got = frame_values(ode, any_pd.P, any_pd.Q, points)
    want = Evaluator(equations).eval_points(points)
    assert np.max(relative_residual(got.equations, want)) <= 1e-9
    want_rows = Evaluator([e for row in rows for e in row]).eval_points(points)
    assert np.max(relative_residual(got.lower.reshape(ode.order ** 2, -1), want_rows)) <= 1e-12
    symbolic = equiv_each([(e, ZERO) for e in equations], ode.domain)
    passed = [row.status == "pass" for row in residual_rows(any_pd)]
    assert passed == [c.passed for c in symbolic]
    if ode.name == "bad":
        assert not all(passed)


def test_order5_solve_builds_no_symbolic_last_shift(monkeypatch, tmp_path):
    shifts, jet1_passes = [], []
    real = pentad._dyad_shift

    def counted(row, P, Q, derive):
        shifts.append("Taylor" if isinstance(Q, Taylor) else "Const" if isinstance(Q, Const)
                      else "Expr")
        return real(row, P, Q, derive)

    eval_points = Evaluator.eval_points

    def recorded(self, points, tangents=None, second_order=False, series=False):
        jet1_passes.append(tangents is not None and not (second_order or series))
        return eval_points(self, points, tangents, second_order, series)

    monkeypatch.setattr(pentad, "_dyad_shift", counted)
    monkeypatch.setattr(Evaluator, "eval_points", recorded)
    for ode in (builtin("conics5"), _seeded_user_ode(tmp_path)):
        n = ode.order
        shifts.clear()
        pd = solve_pentad(ode)
        # the rows at Q = 0 and at Q = 1: n - 1 shifts each, and neither
        # builds a whole last shift
        assert shifts == ["Const"] * 2 * (n - 1), ode.name
        shifts.clear()
        assert len(pd.values.equations) == n
        # the certification: the n - 1 shifts of the rows and the last
        # shift, all on Taylor numbers, and no first-order pass
        assert shifts == ["Taylor"] * n, ode.name
        assert not any(jet1_passes), ode.name
        shifts.clear()
        pd.lower
        assert shifts == ["Expr"] * (n - 1), ode.name


def test_combined_powers_keep_the_frame_programs_small(monkeypatch, tmp_path, pd_conics5,
                                                       pd_conics4):
    """The sizes that `mul` combining the powers of a base gives: slots of
    the coframe program, and `Taylor` products in one pentad report of the
    CI workflow's seeded user equation.  Without the fold they are 533, 936
    and 1,698 slots and 490 products."""
    user = _seeded_user_ode(tmp_path, seed=20181)
    assert str(user.rhs) == "(-32/11)*r^3*q^(-2) + 5*r*s*q^(-1) + (95/22)*s^2*r^(-1)"
    assert [len(pd.coframe_program._prog)
            for pd in (pd_conics5, pd_conics4, solve_pentad(user))] == [430, 675, 1201]
    products = []
    product = Taylor.__mul__

    def counted(self, other):
        products.append(None)
        return product(self, other)

    monkeypatch.setattr(Taylor, "__mul__", counted)
    monkeypatch.setattr(Taylor, "__rmul__", counted)
    assert cli.run(["pentad", "--ode", str(tmp_path / "user.ode")])[0] == 1
    assert len(products) == 263
