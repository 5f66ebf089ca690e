import pytest

from odegeom.expr import Const, add, diff, mul
from odegeom.geom import _K_LOWER, metric_from_frame
from odegeom.jet import builtin
from odegeom.pentad import solve_pentad
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


@pytest.fixture(scope="session")
def gtensor(pd_conics5, metric_conics5):
    return build_G(pd_conics5, metric_conics5)
