import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from odegeom import catalog, geom
from odegeom.expr import (
    DEFAULT_SEED,
    ONE,
    ZERO,
    Const,
    Evaluator,
    add,
    diff,
    equiv,
    equiv_all,
    mul,
    neg,
    parse,
    pow_,
    relative_residual,
    var,
)
from odegeom.geom import (
    GeomError,
    connection_checks,
    connection_forms,
    curvature,
    curvature_checks,
    integrability_check,
    metric_from_frame,
    metric_pairing_check,
    structure_checks,
)
from odegeom.jet import total_derivative


def _all_pass(checks):
    bad = [(c.name, c.max_residual) for c in checks if c.status != "pass"]
    assert not bad, f"failing checks: {bad}"


def test_metric_requires_order5(pd_conics4):
    with pytest.raises(GeomError):
        metric_from_frame(pd_conics4)


def _assert_upper_entries(m, entries):
    """g^ab at 50 sample points against the expressions of entries, a map
    from (a, b) to text, under the residual of `equiv`."""
    points = m.ode.domain.draw(50, DEFAULT_SEED)
    g_inv = m.frame_at(points).g_inv
    for (a, b), text in entries.items():
        want = Evaluator([parse(text)]).eval_points(points)[0]
        assert np.max(relative_residual(g_inv[:, a, b], want)) <= 1e-9, (a, b)


def test_metric_upper_entries_conics5(metric_conics5):
    _assert_upper_entries(metric_conics5, {(2, 2): "24*q^2", (3, 3): "56*r^2 - 24*q*s",
                                           (0, 4): "24*q^2", (0, 0): "0"})


def test_metric_upper_antidiagonal_at_unit_point(metric_conics5):
    point = {"q": 1.0, "r": 0.0, "s": 0.0, "y": 0.3, "p": 0.7, "x": 0.0}
    [vals] = metric_conics5.frame_at([point]).g_inv
    expected = np.zeros((5, 5))
    for i, v in enumerate([24.0, -24.0, 24.0, -24.0, 24.0]):
        expected[i, 4 - i] = v
    assert np.max(np.abs(vals - expected)) < 1e-9


def test_metric_upper_entry_gn5(metric_gn5):
    _assert_upper_entries(metric_gn5, {(4, 4): "(40/3)*r^(-8/3)*s^4",
                                       (1, 4): "-48*r^(1/3)*s"})


def test_equiv_all_matches_per_pair_equiv_on_metric_routes(
        metric_conics5, conics5, symbolic_g_lower):
    g = symbolic_g_lower(metric_conics5)
    ref = catalog.matrix(catalog.for_ode("conics5")["metric_lower"])
    pairs = [(g[a][b], ref[a][b]) for a in range(5) for b in range(a, 5)]
    singles = [equiv(e1, e2, conics5.domain) for e1, e2 in pairs]
    joint = equiv_all(pairs, conics5.domain)
    assert joint.max_residual == max(r.max_residual for r in singles)
    assert joint.passed == all(r.passed for r in singles)


def test_pairing_checks_conics5(metric_conics5):
    _all_pass(metric_pairing_check(metric_conics5))


def test_pairing_checks_gn5(metric_gn5):
    _all_pass(metric_pairing_check(metric_gn5))


def test_curvature_einstein_conics5(metric_conics5, conics5):
    pts = conics5.domain.draw(20, 101)
    cv = curvature(metric_conics5, pts[:5])
    assert cv.scalar == pytest.approx(np.full(5, -60.0), abs=1e-6)
    assert np.max(np.abs(cv.ricci + 12.0 * cv.g)) < 1e-6
    _all_pass(curvature_checks(metric_conics5, points=pts))


def test_curvature_gn5_scalar_flat_not_ricci_flat(metric_gn5, gn5):
    pts = gn5.domain.draw(10, 7)
    cv = curvature(metric_gn5, pts[:3])
    assert np.all(np.abs(cv.scalar) < 1e-8)
    assert np.all(np.max(np.abs(cv.ricci), axis=(1, 2)) > 0.1 * np.max(np.abs(cv.g), axis=(1, 2)))
    _all_pass(curvature_checks(metric_gn5, points=pts))


def test_riemann_symmetries_at_point(metric_conics5, conics5):
    pt = conics5.domain.draw(1, 4)[0]
    [R] = curvature(metric_conics5, [pt]).riemann
    scale = np.max(np.abs(R))
    assert np.max(np.abs(R + np.transpose(R, (1, 0, 2, 3)))) < 1e-9 * scale
    assert np.max(np.abs(R + np.transpose(R, (0, 1, 3, 2)))) < 1e-9 * scale
    assert np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1)))) < 1e-9 * scale


def test_structure_checks_conics5(metric_conics5):
    _all_pass(structure_checks(metric_conics5))


def test_structure_checks_gn5(metric_gn5):
    _all_pass(structure_checks(metric_gn5))


def test_first_integral_matches_catalog(metric_conics5, conics5, symbolic_g_lower):
    ref = catalog.expr(catalog.for_ode("conics5")["first_integral"])
    assert equiv(symbolic_g_lower(metric_conics5)[0][0], ref, conics5.domain).passed


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
    pts = m.ode.domain.draw(4, 11)
    g, dg, g_inv, gamma = m.christoffel_at(pts)
    g2, dg2, _, g_inv2 = m.derivatives_at(pts)
    gamma2 = 0.5 * np.einsum(
        "kde,kaeb->kdab", g_inv2,
        dg2 + np.transpose(dg2, (0, 3, 2, 1)) - np.transpose(dg2, (0, 2, 1, 3)))
    assert np.array_equal(g, g2)
    assert np.array_equal(dg, dg2)
    assert np.array_equal(g_inv, g_inv2)
    assert np.array_equal(gamma, gamma2)


def test_radon_suite_never_builds_second_order_table(monkeypatch, conics5):
    from odegeom import cli
    from odegeom.geom import MetricField

    def refuse(self, points):
        raise AssertionError("second derivatives of the metric taken")

    # the suite needs the metric to first order only
    monkeypatch.setattr(MetricField, "derivatives_at", refuse)
    report = cli.radon_suite(cli.Session(conics5, 50, 1e-9, 0x5EED))
    assert report.checks


@pytest.mark.parametrize("metric", ["metric_conics5", "metric_gn5"])
def test_forward_mode_metric_matches_the_symbolic_derivatives(
        metric, request, symbolic_metric_tables):
    m = request.getfixturevalue(metric)
    pts = m.ode.domain.draw(20, 23)
    g, dg, _, _ = m.christoffel_at(pts)
    g_table, dg_table, _ = symbolic_metric_tables(m)
    want = Evaluator(g_table + dg_table).eval_points(pts).T
    g_ref, dg_ref = want[:, :25].reshape(-1, 5, 5), want[:, 25:].reshape(-1, 5, 5, 5)
    assert np.max(np.abs(g - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
    assert np.max(np.abs(dg - dg_ref)) <= 1e-12 * np.max(np.abs(dg_ref))


@pytest.mark.parametrize("metric", ["metric_conics5", "metric_gn5"])
def test_second_order_metric_matches_the_symbolic_table(metric, request, symbolic_metric_tables):
    m = request.getfixturevalue(metric)
    pts = m.ode.domain.draw(20, 23)
    g, dg, ddg, g_inv = m.derivatives_at(pts)
    *_, ddg_table = symbolic_metric_tables(m)
    ddg_ref = Evaluator(ddg_table).eval_points(pts).T.reshape(-1, 5, 5, 5, 5)
    assert np.max(np.abs(ddg - ddg_ref)) <= 1e-12 * np.max(np.abs(ddg_ref))
    # g, dg and g_inv are those of the first-order pass, bit for bit
    fr = m.frame_at(pts)
    assert (g.tobytes(), dg.tobytes(), g_inv.tobytes()) == (
        fr.g.tobytes(), fr.dg.tobytes(), fr.g_inv.tobytes())


def test_radon_report_runs_the_coframe_program_once_per_batch(monkeypatch, conics5):
    from odegeom import cli, radon

    verify_calls = []
    calls = []
    eval_points = Evaluator.eval_points
    verify_system = radon.verify_system

    def counted_eval_points(self, points, tangents=None):
        calls.append((self, tangents is not None))
        return eval_points(self, points, tangents)

    def counted_verify_system(*args, **kwargs):
        verify_calls.append(args)
        return verify_system(*args, **kwargs)

    monkeypatch.setattr(Evaluator, "eval_points", counted_eval_points)
    monkeypatch.setattr(radon, "verify_system", counted_verify_system)
    session = cli.Session(conics5, 50, 1e-9, 0x5EED)
    assert cli.radon_suite(session).passed()
    coframe = session.pd.coframe_program
    assert len(verify_calls) == 1
    assert [tangents for ev, tangents in calls if ev is coframe] == [True]


@pytest.mark.parametrize("argv, first_order, second_order", [
    # the stream (the solve's 50 points), the 5 signature points of the next
    # seed, the 3 radon jets; one second-order pass, at the first 20 points
    ("all --ode conics5", [50, 5, 3], [20]),
    # the 9 solve points, then draws of the seed up to the 20 curvature reads
    ("all --ode conics5 --samples 9", [20, 5, 3], [20]),
    ("all --ode gn5", [50, 5], [20]),
    # the order-4 two-form at the solve's points; no metric
    ("all --ode conics4", [50], []),
    ("geom --ode gn5 --point y=1,p=0.5,q=1.5,r=0.7,s=0.3", [50, 5, 1], [20, 1]),
    # the jet and its two companions, and no pass over the stream
    ("radon --ode conics5 --point y=1.098864,p=0.061431,q=2.096677,r=0.053546,s=-0.058008",
     [3], []),
])
def test_each_point_stream_runs_its_coframe_passes_once(
        monkeypatch, argv, first_order, second_order):
    from odegeom import cli, pentad

    solved, passes = [], {False: [], True: []}
    solve_pentad, eval_points = pentad.solve_pentad, Evaluator.eval_points

    def kept_solve_pentad(*args, **kwargs):
        solved.append(solve_pentad(*args, **kwargs))
        return solved[-1]

    def counted_eval_points(self, points, tangents=None, second_order=False, series=False):
        if tangents is not None and any(self is vars(pd).get("coframe_program") for pd in solved):
            # a first-order pass repeats each point once per tangent
            passes[second_order].append(len({id(pt) for pt in points}))
        return eval_points(self, points, tangents, second_order, series)

    monkeypatch.setattr(pentad, "solve_pentad", kept_solve_pentad)
    monkeypatch.setattr(Evaluator, "eval_points", counted_eval_points)
    assert cli.run(argv.split())[0] == 0
    assert len(solved) == 1
    assert passes == {False: first_order, True: second_order}


def _key(pt):
    return tuple(sorted(pt.items()))


def _weights(points, seed):
    """A distinct weight in 1..n for each point, in shuffled order."""
    return {_key(pt): w for pt, w in zip(points, np.random.default_rng(seed).permutation(
        len(points)) + 1.0)}


def test_curvature_rows_keep_the_point_whose_residual_is_largest(
        metric_conics5, conics5, monkeypatch):
    # Riemann, Ricci and the scalar perturbed with a different weight at each
    # point: all four rows fail, and each row's point is the one whose
    # lone-point residual, recomputed by the same check, is the largest
    points = conics5.domain.draw(20, DEFAULT_SEED)
    weight = _weights(points, 5)
    rng = np.random.default_rng(6)
    E4, E2 = rng.standard_normal((5, 5, 5, 5)), rng.standard_normal((5, 5))
    exact = geom.curvature

    def perturbed(m, pts):
        cv = exact(m, pts)
        w = np.array([1e-3 * weight[_key(pt)] for pt in pts])
        return dataclasses.replace(cv, riemann=cv.riemann + w[:, None, None, None, None] * E4,
                                   ricci=cv.ricci + w[:, None, None] * E2, scalar=cv.scalar + w)

    monkeypatch.setattr(geom, "curvature", perturbed)
    batch = curvature_checks(metric_conics5, points=points)
    alone = [curvature_checks(metric_conics5, points=[pt]) for pt in points]
    assert [rec.name for rec in batch] == ["riemann_symmetries", "bianchi_first_identity",
                                           "scalar_curvature_minus60",
                                           "einstein_ricci_proportional"]
    for i, rec in enumerate(batch):
        residuals = [recs[i].max_residual for recs in alone]
        assert rec.status == "fail", rec.name
        assert rec.worst_point == points[int(np.argmax(residuals))], rec.name
        assert rec.max_residual == pytest.approx(max(residuals), rel=1e-9), rec.name


def test_harmonic_coordinates_keep_the_point_whose_residual_is_largest(
        metric_conics5, conics5, monkeypatch):
    points = conics5.domain.draw(10, DEFAULT_SEED)
    weight = _weights(points, 7)
    E = np.random.default_rng(8).standard_normal((5, 5, 5))
    exact = geom.MetricField.christoffel_at

    def perturbed(self, pts):
        g, dg, g_inv, gamma = exact(self, pts)
        w = np.array([1e-3 * weight.get(_key(pt), 0.0) for pt in pts])
        return g, dg, g_inv, gamma + w[:, None, None, None] * E

    monkeypatch.setattr(geom.MetricField, "christoffel_at", perturbed)
    [rec] = [c for c in structure_checks(metric_conics5) if c.name == "harmonic_coordinates"]
    _, _, g_inv, gamma = metric_conics5.christoffel_at(points)
    residuals = [np.max(np.abs(np.einsum("ab,cab->c", gi, ga))) / (np.max(np.abs(ga)) + 1e-300)
                 for gi, ga in zip(g_inv, gamma)]
    assert rec.status == "fail"
    assert rec.worst_point == points[int(np.argmax(residuals))]
    assert rec.max_residual == pytest.approx(max(residuals), rel=1e-9)


def test_connection_compatibility_keeps_the_point_whose_residual_is_largest(
        conn, metric_conics5, conics5):
    # a wrong dy component of phi fails the frame compatibility law
    bad = dataclasses.replace(conn, phi=(add(conn.phi[0], mul(Const(Fraction(1, 10)),
                                                              pow_(var("r"), 2))),)
                              + conn.phi[1:])
    points = conics5.domain.draw(20, DEFAULT_SEED)
    rec = connection_checks(bad, metric_conics5, points=points)[-1]
    residuals = [connection_checks(bad, metric_conics5, points=[pt])[-1].max_residual
                 for pt in points]
    assert rec.name == "connection_frame_compatibility"
    assert rec.status == "fail"
    assert rec.worst_point == points[int(np.argmax(residuals))]
    assert rec.max_residual == pytest.approx(max(residuals), rel=1e-9)


_X, _Y = var("x"), var("y")
# the point fields xi d_x + eta d_y of the projective algebra sl(3)
_PROJECTIVE_FIELDS = {
    "d_x": (ONE, ZERO), "d_y": (ZERO, ONE), "x d_x": (_X, ZERO), "y d_x": (_Y, ZERO),
    "x d_y": (ZERO, _X), "y d_y": (ZERO, _Y),
    "x(x d_x + y d_y)": (mul(_X, _X), mul(_X, _Y)), "y(x d_x + y d_y)": (mul(_X, _Y), mul(_Y, _Y)),
}


def _lie_derivative_of_metric(m, xi, eta, points):
    """L_K g_ab = K^c d_c g_ab + g_cb d_a K^c + g_ac d_b K^c at the points,
    K^c = D^c Q the prolonged evolutionary field of the characteristic
    Q = eta - xi p (D the total derivative of the equation), with g and dg
    from the metric's forward-mode pass."""
    ode = m.ode
    K = [add(eta, neg(mul(xi, var("p"))))]
    for _ in range(4):
        K.append(total_derivative(K[-1], ode))
    vals = Evaluator(K + [diff(k, a) for k in K for a in ode.coords]).eval_points(points)
    Kv = vals[:5].T
    dK = vals[5:].reshape(5, 5, len(points)).transpose(2, 1, 0)   # [k, a, c] = d_a K^c
    fr = m.frame_at(points)
    return (np.einsum("kc,kcab->kab", Kv, fr.dg) + np.einsum("kcb,kac->kab", fr.g, dK)
            + np.einsum("kac,kbc->kab", fr.g, dK)), fr.g


def test_projective_fields_are_killing_fields_of_the_conics_metric(metric_conics5, conics5):
    # conics form SL(3)/SO(2,1): all eight projective fields preserve g
    points = conics5.domain.draw(20, DEFAULT_SEED)
    for name, (xi, eta) in _PROJECTIVE_FIELDS.items():
        lie, g = _lie_derivative_of_metric(metric_conics5, xi, eta, points)
        assert np.max(np.abs(lie)) <= 1e-12 * np.max(np.abs(g)), name
    # negative controls: two point fields outside sl(3)
    for xi, eta in ((ZERO, mul(_X, _X)), (ZERO, mul(_Y, _Y))):
        lie, g = _lie_derivative_of_metric(metric_conics5, xi, eta, points)
        assert np.max(np.abs(lie)) > np.max(np.abs(g))
