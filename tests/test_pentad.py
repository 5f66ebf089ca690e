import pytest

from odegeom import catalog
from odegeom.expr import ZERO, add, equiv, mul, parse
from odegeom.jet import JetOde
from odegeom.pentad import (
    PentadError,
    solve_pentad,
    symplectic,
    symplectic_closure_components,
    symplectic_volume_ratio,
    symplectic_x_invariance_components,
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


@pytest.mark.parametrize("ode_name", ["conics5", "gn5", "conics4"])
def test_coefficients_match_catalog(ode_name, request):
    pd = request.getfixturevalue(f"pd_{ode_name}")
    dom = pd.ode.domain
    for letter, text in catalog.for_ode(ode_name)["coefficients"].items():
        res = equiv(pd.coefficients[letter], catalog.expr(text), dom)
        assert res.passed, f"{ode_name} coefficient {letter}: {res.max_residual}"


@pytest.mark.parametrize("ode_name", ["conics5", "gn5", "conics4"])
def test_residual_identities_pass(ode_name, request):
    pd = request.getfixturevalue(f"pd_{ode_name}")
    assert pd.residuals_pass()
    names = [name for name, _ in pd.residual_identities]
    expected_count = 3 if pd.n == 5 else 2
    assert sum(name.startswith("residual_identity") for name in names) == expected_count


def test_negative_control_perturbed_equation(conics5):
    bad = JetOde("bad", 5, parse("-(41/9)*r^3/q^2 + 5*r*s/q"), conics5.domain)
    pd = solve_pentad(bad)
    failing = [
        name
        for (name, _), chk in zip(pd.residual_identities, pd.residual_checks)
        if name.startswith("residual_identity") and not chk.passed
    ]
    assert failing, "a perturbed equation must break at least one identity"


def test_ansatz_failure_raises(conics5):
    # rhs whose top derivative cannot be a log-derivative of the ansatz basis
    weird = JetOde("weird", 5, parse("s^2*y"), conics5.domain)
    with pytest.raises(PentadError):
        solve_pentad(weird)


@pytest.mark.parametrize("ode_name", ["conics5", "gn5", "conics4"])
def test_defining_recurrences_hold_as_identities(ode_name, request):
    """The coefficient letters satisfy their defining relations with primes
    meaning the total derivative."""
    from odegeom.jet import total_derivative as D

    pd = request.getfixturevalue(f"pd_{ode_name}")
    ode = pd.ode
    dom = ode.domain
    P, Q = pd.P, pd.Q
    co = pd.coefficients
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
    F = pd_gn5.frame_cols
    # last frame vector: 24 P^4 d/ds only
    dom = pd_gn5.ode.domain
    assert equiv(F[4][4], parse("24*r^(4/3)"), dom).passed
    for a in range(4):
        assert F[4][a] is ZERO or equiv(F[4][a], ZERO, dom).passed


def test_symplectic_requires_order4(pd_conics5):
    with pytest.raises(PentadError):
        symplectic(pd_conics5)


@pytest.fixture(scope="module")
def omega(pd_conics4):
    return symplectic(pd_conics4)


def test_symplectic_matches_catalog(omega, conics4):
    dom = conics4.domain
    coords = conics4.coords
    for (ca, cb), text in catalog.for_ode("conics4")["symplectic"].items():
        a, b = coords.index(ca), coords.index(cb)
        assert equiv(omega.matrix[a][b], catalog.expr(text), dom).passed, (ca, cb)


def test_symplectic_closed(omega, conics4):
    for _, comp in symplectic_closure_components(omega):
        assert equiv(comp, ZERO, conics4.domain).passed


def test_symplectic_wedge_square(omega, conics4):
    ref = catalog.expr(catalog.for_ode("conics4")["symplectic_volume"])
    assert equiv(symplectic_volume_ratio(omega), ref, conics4.domain).passed


def test_symplectic_base_point_independence(omega, conics4):
    for _, comp in symplectic_x_invariance_components(omega):
        assert equiv(comp, ZERO, conics4.domain).passed


def test_antisymmetry_exact(omega):
    for a in range(4):
        assert omega.matrix[a][a] is ZERO
