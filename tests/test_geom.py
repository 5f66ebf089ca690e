import numpy as np
import pytest

from odegeom import catalog
from odegeom.expr import ZERO, Evaluator, equiv, equiv_all, parse
from odegeom.geom import (
    GeomError,
    connection_checks,
    connection_forms,
    curvature,
    curvature_checks,
    integrability_check,
    metric_from_frame,
    metric_pairing_check,
    sample_points,
    structure_checks,
)


def _all_pass(checks):
    bad = [(c.name, c.max_residual) for c in checks if c.status != "pass"]
    assert not bad, f"failing checks: {bad}"


def test_metric_requires_order5(pd_conics4):
    with pytest.raises(GeomError):
        metric_from_frame(pd_conics4)


def test_metric_upper_entries_conics5(metric_conics5, conics5):
    dom = conics5.domain
    g = metric_conics5.g_upper
    assert equiv(g[2][2], parse("24*q^2"), dom).passed
    assert equiv(g[3][3], parse("56*r^2 - 24*q*s"), dom).passed
    assert equiv(g[0][4], parse("24*q^2"), dom).passed
    assert equiv(g[0][0], ZERO, dom).passed


def test_metric_upper_antidiagonal_at_unit_point(metric_conics5):
    point = {"q": 1.0, "r": 0.0, "s": 0.0, "y": 0.3, "p": 0.7, "x": 0.0}
    flat = [metric_conics5.g_upper[a][b] for a in range(5) for b in range(5)]
    vals = np.array(Evaluator(flat)(point)).reshape(5, 5)
    expected = np.zeros((5, 5))
    for i, v in enumerate([24.0, -24.0, 24.0, -24.0, 24.0]):
        expected[i, 4 - i] = v
    assert np.max(np.abs(vals - expected)) < 1e-9


def test_metric_upper_entry_gn5(metric_gn5, gn5):
    assert equiv(metric_gn5.g_upper[4][4], parse("(40/3)*r^(-8/3)*s^4"), gn5.domain).passed
    assert equiv(metric_gn5.g_upper[1][4], parse("-48*r^(1/3)*s"), gn5.domain).passed


def test_equiv_all_matches_per_pair_equiv_on_metric_routes(metric_conics5, conics5):
    route2 = metric_conics5.contravariant_from_pairing()
    pairs = [(metric_conics5.g_upper[a][b], route2[a][b]) for a in range(5) for b in range(a, 5)]
    singles = [equiv(e1, e2, conics5.domain) for e1, e2 in pairs]
    joint = equiv_all(pairs, conics5.domain)
    assert joint.max_residual == max(r.max_residual for r in singles)
    assert joint.passed == all(r.passed for r in singles)


def test_pairing_checks_conics5(metric_conics5):
    _all_pass(metric_pairing_check(metric_conics5))


def test_pairing_checks_gn5(metric_gn5):
    _all_pass(metric_pairing_check(metric_gn5))


def test_curvature_einstein_conics5(metric_conics5, conics5):
    pts = sample_points(conics5, 20, seed=101)
    for pt in pts[:5]:
        cv = curvature(metric_conics5, pt)
        assert cv.scalar == pytest.approx(-60.0, abs=1e-6)
        assert np.max(np.abs(cv.ricci + 12.0 * cv.g)) < 1e-6
    _all_pass(curvature_checks(metric_conics5, points=pts))


def test_curvature_gn5_scalar_flat_not_ricci_flat(metric_gn5, gn5):
    pts = sample_points(gn5, 10, seed=7)
    for pt in pts[:3]:
        cv = curvature(metric_gn5, pt)
        assert abs(cv.scalar) < 1e-8
        assert np.max(np.abs(cv.ricci)) > 0.1 * np.max(np.abs(cv.g))
    _all_pass(curvature_checks(metric_gn5, points=pts))


def test_riemann_symmetries_at_point(metric_conics5, conics5):
    pt = sample_points(conics5, 1, seed=4)[0]
    cv = curvature(metric_conics5, pt)
    R = cv.riemann
    scale = np.max(np.abs(R))
    assert np.max(np.abs(R + np.transpose(R, (1, 0, 2, 3)))) < 1e-9 * scale
    assert np.max(np.abs(R + np.transpose(R, (0, 1, 3, 2)))) < 1e-9 * scale
    assert np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1)))) < 1e-9 * scale


def test_structure_checks_conics5(metric_conics5):
    _all_pass(structure_checks(metric_conics5))


def test_structure_checks_gn5(metric_gn5):
    _all_pass(structure_checks(metric_gn5))


def test_first_integral_matches_catalog(metric_conics5, conics5):
    ref = catalog.expr(catalog.for_ode("conics5")["first_integral"])
    assert equiv(metric_conics5.g_lower[0][0], ref, conics5.domain).passed


@pytest.fixture(scope="module")
def conn(pd_conics5):
    return connection_forms(pd_conics5)


def test_connection_scalars(conn, conics5):
    dom = conics5.domain
    assert equiv(conn.delta, parse("(1/2)*q^(-1/2)"), dom).passed
    assert equiv(conn.gamma, parse("(1/24)*r*q^(-3/2)"), dom).passed
    assert equiv(conn.alpha, parse("s/(12*q^2) - r^2/(8*q^3)"), dom).passed


def test_connection_chi_components(conn, conics5):
    dom = conics5.domain
    assert equiv(conn.chi[0], parse("4*(1/24)*r*q^(-3/2)"), dom).passed
    assert equiv(conn.chi[1], parse("(1/2)*q^(-1/2)"), dom).passed
    for comp in conn.chi[2:]:
        assert comp is ZERO


def test_connection_psi_dq_component(conn, conics5):
    assert equiv(conn.psi[2], parse("r/(24*q^(5/2))"), conics5.domain).passed


def test_connection_checks(conn, metric_conics5):
    _all_pass(connection_checks(conn, metric_conics5))


def test_connection_requires_conics5(pd_gn5):
    with pytest.raises(GeomError):
        connection_forms(pd_gn5)


def test_integrability(conn, metric_conics5):
    _all_pass(integrability_check(conn, metric_conics5))


@pytest.mark.parametrize("metric", ["metric_conics5", "metric_gn5"])
def test_christoffel_first_order_table_matches_full_table(metric, request):
    m = request.getfixturevalue(metric)
    for pt in sample_points(m.ode, 4, seed=11):
        g, dg, g_inv, gamma = m.christoffel_at(pt)
        g2, dg2, _, g_inv2 = m.derivatives_at(pt)
        gamma2 = 0.5 * np.einsum(
            "de,aeb->dab", g_inv2,
            dg2 + np.transpose(dg2, (2, 1, 0)) - np.transpose(dg2, (1, 0, 2)))
        assert np.array_equal(g, g2)
        assert np.array_equal(dg, dg2)
        assert np.array_equal(g_inv, g_inv2)
        assert np.array_equal(gamma, gamma2)


def test_radon_suite_never_builds_second_order_table(monkeypatch, conics5):
    from odegeom import cli
    from odegeom.geom import MetricField

    def refuse(self):
        raise AssertionError("second-order metric table built")

    monkeypatch.setattr(MetricField, "_derivative_exprs", refuse)
    report = cli.radon_suite(cli.Session(conics5, 50, 1e-9, 0x5EED))
    assert report.checks
