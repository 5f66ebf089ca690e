from types import SimpleNamespace

import numpy as np
import pytest

from odegeom.expr import ZERO, Const, add, diff, mul, neg
from odegeom.geom import _K_LOWER, metric_from_frame
from odegeom.jet import builtin, prolongation
from odegeom.pentad import _LETTERS, _derivation, _dyad_shift, _equation, _frame_rows, solve_pentad
from odegeom.radon import _fd_combine, _fd_stencil
from odegeom.report import values_check
from odegeom.so3 import build_G


@pytest.fixture(scope="session")
def conics5():
    return builtin("conics5")


@pytest.fixture(scope="session")
def gn5():
    return builtin("gn5")


@pytest.fixture(scope="session")
def conics4():
    return builtin("conics4")


@pytest.fixture(scope="session")
def pd_conics5(conics5):
    return solve_pentad(conics5)


@pytest.fixture(scope="session")
def pd_gn5(gn5):
    return solve_pentad(gn5)


@pytest.fixture(scope="session")
def pd_conics4(conics4):
    return solve_pentad(conics4)


@pytest.fixture(scope="session")
def metric_conics5(pd_conics5):
    return metric_from_frame(pd_conics5)


@pytest.fixture(scope="session")
def metric_gn5(pd_gn5):
    return metric_from_frame(pd_gn5)


def _symbolic_g_lower(pd):
    """g_ab as expressions, from the coframe rows and the frame pairing,
    each entry below the diagonal the node of its mirror."""
    C = pd.coframe_rows
    upper = {(a, b): add(*[mul(Const(k), C[i][a], C[j][b]) for (i, j), k in _K_LOWER.items()])
             for a in range(5) for b in range(a, 5)}
    return [[upper[min(a, b), max(a, b)] for b in range(5)] for a in range(5)]


@pytest.fixture(scope="session")
def symbolic_g_lower():
    """g_ab of a metric as expressions: the oracle of its numeric values;
    the program builds no symbolic metric."""
    return lambda m: _symbolic_g_lower(m.pd)


@pytest.fixture(scope="session")
def symbolic_metric_tables():
    """For a metric: g_ab, dg[c][a][b] = d_c g_ab and ddg[e][c][a][b] =
    d_e d_c g_ab as flat symbolic tables, by `diff` of the symbolic g_ab.
    The oracle of the forward-mode passes; the program builds no such table."""
    def tables(m):
        g = [e for row in _symbolic_g_lower(m.pd) for e in row]
        dg = [diff(e, c) for c in m.coords for e in g]
        return g, dg, [diff(d, c) for c in m.coords for d in dg]
    return tables


def _symbolic_two_form(pd, j12=-3):
    """omega = e^1 ^ e^4 + j12 e^2 ^ e^3 of an order-4 frame as expressions
    (the closed two-form at j12 = -3):
    the antisymmetric matrix over the coordinates; the four components of
    d omega (coordinates a < b < c); the coefficient of the coordinate
    4-volume in omega ^ omega; and the six components of d_x omega + L_V
    omega (a < b), V the prolongation field."""
    C, coords = pd.coframe_rows, pd.ode.coords
    mat = [[ZERO] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(a + 1, 4):
            entry = add(mul(C[0][a], C[3][b]), neg(mul(C[0][b], C[3][a])),
                        mul(Const(j12), C[1][a], C[2][b]), mul(Const(-j12), C[1][b], C[2][a]))
            mat[a][b], mat[b][a] = entry, neg(entry)
    closure = [add(diff(mat[b][c], coords[a]), neg(diff(mat[a][c], coords[b])),
                   diff(mat[a][b], coords[c]))
               for a in range(4) for b in range(a + 1, 4) for c in range(b + 1, 4)]
    volume = mul(Const(2), add(mul(mat[0][1], mat[2][3]), neg(mul(mat[0][2], mat[1][3])),
                               mul(mat[0][3], mat[1][2])))
    V = prolongation(pd.ode)
    x_invariance = []
    for a in range(4):
        for b in range(a + 1, 4):
            terms = [diff(mat[a][b], "x")]
            for c, coord in enumerate(coords):
                terms += [mul(V[c], diff(mat[a][b], coord)),
                          mul(mat[c][b], diff(V[c], coords[a])),
                          mul(mat[a][c], diff(V[c], coords[b]))]
            x_invariance.append(add(*terms))
    return SimpleNamespace(matrix=mat, closure=closure, volume=volume, x_invariance=x_invariance)


@pytest.fixture(scope="session")
def symbolic_two_form():
    """For an order-4 frame: its two-form and the closure, volume and
    x-invariance components as expressions, the oracle of the numeric
    symplectic rows; the program builds no symbolic two-form."""
    return _symbolic_two_form


def _symbolic_frame(pd):
    """The rows of a frame and the n coefficient equations of its final
    differentiation, all as expressions built by D."""
    D = _derivation(pd.ode)
    rows = _frame_rows(pd.P, pd.Q, pd.n, D)
    lam_partials = [diff(pd.ode.rhs, c) for c in pd.ode.coords]
    return rows, [_equation(rows, pd.P, pd.Q, lam_partials, j, D) for j in range(pd.n)]


@pytest.fixture(scope="session")
def symbolic_frame():
    """For a frame: its rows and coefficient equations as expressions, the
    oracle of their values at the points (`pentad.frame_values`); the
    program builds no expression of an equation."""
    return _symbolic_frame


def _symbolic_letters(pd):
    """The coefficient letters A..H of a frame as expressions; at order 4,
    E..H are slots of the last dyad shift, built here by D."""
    rows = list(pd.lower)
    if pd.n == 4:
        rows.append(_dyad_shift(rows[-1], pd.P, pd.Q, _derivation(pd.ode)))
    return {name: rows[a][i] for name, (a, i) in _LETTERS[pd.n].items()}


@pytest.fixture(scope="session")
def symbolic_letters():
    """For a frame of either order: its letters as expressions, the oracle
    of the values at the points; the program builds the symbolic letters at
    order 5 only."""
    return _symbolic_letters


@pytest.fixture(scope="session")
def residual_rows():
    """For a frame: the report rows of its residual identities and its Q
    and P equations, as the pentad suite makes them."""
    return lambda pd: [values_check(name, equation, 0.0, pd)
                       for name, equation in zip(pd.residual_names, pd.values.equations)]


@pytest.fixture(scope="session")
def gtensor(pd_conics5, metric_conics5):
    return build_G(pd_conics5, metric_conics5)


@pytest.fixture(scope="session")
def fd_gradient():
    """The gradient of a scalar F of a jet by central differences with one
    Richardson level, at step h: the finite-difference oracle of the exact
    transform derivatives."""
    return lambda F, X, h: _fd_combine([F(Xp) for Xp in _fd_stencil(X, h)], h)


def _operator_at_point(grad, hess, g_inv, gamma, G_lower):
    """The operator pair on one scalar field at one point, written out:
    grad (5,) and hess (5, 5) over the coordinates, g_inv (5, 5),
    gamma[d, a, b] = Gamma^d_ab and G_lower (5, 5, 5); returns the covector
    G_a^bc nabla_b nabla_c F (5,) and the Laplacian g^bc nabla_b nabla_c F."""
    cov_hess = hess - np.einsum("dbc,d->bc", gamma, grad)
    return (np.einsum("abc,bx,cy,xy->a", G_lower, g_inv, g_inv, cov_hess),
            float(np.einsum("bc,bc->", g_inv, cov_hess)))


@pytest.fixture(scope="session")
def operator_at_point():
    """The per-point reference of the operator pair: the oracle of the
    batched `so3.hor_operator`."""
    return _operator_at_point
