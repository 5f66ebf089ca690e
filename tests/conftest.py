import pytest

from odegeom.expr import diff
from odegeom.geom import metric_from_frame
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


@pytest.fixture(scope="session")
def symbolic_metric_tables():
    """For a metric: g_ab, dg[c][a][b] = d_c g_ab and ddg[e][c][a][b] =
    d_e d_c g_ab as flat symbolic tables, by `diff` of `g_lower`.  The
    oracle of the forward-mode passes; the program builds no such table."""
    def tables(m):
        g = [e for row in m.g_lower for e in row]
        dg = [diff(e, c) for c in m.coords for e in g]
        return g, dg, [diff(d, c) for c in m.coords for d in dg]
    return tables


@pytest.fixture(scope="session")
def gtensor(pd_conics5, metric_conics5):
    return build_G(pd_conics5, metric_conics5)
