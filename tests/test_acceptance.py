"""Acceptance criteria, one test per criterion, each printing a pass line.

Tolerances are pinned here and match the CLI defaults; runtime caps are
enforced with a wall clock around the relevant computation.
"""

import time

import numpy as np

from odegeom import catalog
from odegeom.expr import ZERO, equiv, parse
from odegeom.geom import (
    connection_checks,
    connection_forms,
    curvature,
    integrability_check,
    metric_from_frame,
    metric_pairing_check,
    structure_checks,
)
from odegeom.jet import JetOde, builtin
from odegeom.pentad import solve_pentad
from odegeom.radon import (
    RadonConfig,
    default_test_jets,
    integration_cross_checks,
    radon_F,
    system_checks,
)
from odegeom.so3 import expansion_check, frame_constant_checks, g_identities


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{label}]: {status} {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _assert_all(checks, wanted=None):
    failing = [c for c in checks if c.status != "pass" and (wanted is None or c.name in wanted)]
    return not failing, "; ".join(f"{c.name}={c.max_residual:.2e}" for c in failing)


EXPECTED_PQ = {
    "conics5": ("q^(1/2)", "r^2/(48*q^(5/2))"),
    "gn5": ("r^(1/3)", "0"),
    "conics4": (
        "q^(4/9)*(x*p - y)^(1/3)",
        "(1/(9*q^(4/9)*(x*p - y)^(1/3)))"
        "*((2/9)*r^2/q^2 + x*r/(3*(x*p - y)) - x^2*q^2/(x*p - y)^2)",
    ),
}


def test_criterion_01_pentad_reconstruction():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for name, (p_text, q_text) in EXPECTED_PQ.items():
        ode = builtin(name)
        pd = solve_pentad(ode)
        rp = equiv(pd.P, parse(p_text), ode.domain, n=50, tol=1e-9)
        rq = equiv(pd.Q, parse(q_text), ode.domain, n=50, tol=1e-9)
        ok = ok and rp.passed and rq.passed
        detail.append(f"{name}: P {rp.max_residual:.1e} Q {rq.max_residual:.1e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(1, "pentad P,Q for three equations", ok,
            f"({elapsed:.2f}s) " + " | ".join(detail))


def test_criterion_02_residual_identity_gate(pd_conics5, pd_gn5, pd_conics4, conics5,
                                             residual_rows):
    ok = True
    detail = []
    for pd in (pd_conics5, pd_gn5, pd_conics4):
        for row in residual_rows(pd):
            if row.name.startswith("residual_identity"):
                ok = ok and row.status == "pass" and row.max_residual < 1e-9
        detail.append(f"{pd.ode.name} ok")
    bad = JetOde("bad", 5, parse("-(41/9)*r^3/q^2 + 5*r*s/q"), conics5.domain)
    broken = any(
        row.status != "pass"
        for row in residual_rows(solve_pentad(bad))
        if row.name.startswith("residual_identity")
    )
    ok = ok and broken
    _report(2, "residual identities + negative control", ok,
            " | ".join(detail) + f" | 41/9 control breaks: {broken}")


def test_criterion_03_metric_fidelity(metric_conics5, metric_gn5):
    ok1, d1 = _assert_all(metric_pairing_check(metric_conics5))
    ok2, d2 = _assert_all(metric_pairing_check(metric_gn5))
    _report(3, "printed metric matrices and route agreement", ok1 and ok2,
            d1 + d2 or "all entries match at rel 1e-9")


def test_criterion_04_curvature():
    t0 = time.perf_counter()
    ode = builtin("conics5")
    m = metric_from_frame(solve_pentad(ode))
    pts = ode.domain.draw(20, 2024)
    cv = curvature(m, pts)
    worst_R = float(np.max(np.abs(cv.scalar + 60.0)))
    worst_E = float(np.max(np.abs(cv.ricci + 12.0 * cv.g)))
    gn = builtin("gn5")
    mg = metric_from_frame(solve_pentad(gn))
    cv = curvature(mg, gn.domain.draw(10, 2024))
    worst_flat = float(np.max(np.abs(cv.scalar)))
    ricci_ratio = float(np.min(np.max(np.abs(cv.ricci), axis=(1, 2))
                               / np.max(np.abs(cv.g), axis=(1, 2))))
    elapsed = time.perf_counter() - t0
    ok = worst_R < 1e-6 and worst_E < 1e-6 and worst_flat < 1e-8 and ricci_ratio > 0.1
    ok = ok and elapsed < 30.0
    _report(4, "Einstein curvature and scalar-flat control", ok,
            f"({elapsed:.1f}s) |R+60|={worst_R:.1e} |Ric+12g|={worst_E:.1e} "
            f"|R_gn5|={worst_flat:.1e} ric/g={ricci_ratio:.2f}")


def test_criterion_05_structure_checks(metric_conics5, metric_gn5):
    ok1, d1 = _assert_all(structure_checks(metric_conics5))
    ok2, d2 = _assert_all(structure_checks(metric_gn5))
    _report(5, "Killing flow, first integral, harmonicity, signature", ok1 and ok2, d1 + d2)


def test_criterion_06_connection(pd_conics5, metric_conics5):
    cf = connection_forms(pd_conics5)
    checks = connection_checks(cf, metric_conics5) + integrability_check(cf, metric_conics5)
    ok, d = _assert_all(checks)
    law = next(c for c in checks if c.name == "connection_frame_compatibility")
    _report(6, "connection scalars and frame compatibility", ok,
            d or f"compatibility residual {law.max_residual:.1e} at tol {law.tolerance:.0e}")


def test_criterion_07_so3_identities(gtensor):
    checks = frame_constant_checks(gtensor) + g_identities(gtensor)
    ok, d = _assert_all(checks)
    _report(7, "structure tensor identity suite", ok, d or "all < 1e-8; traces exact")


def test_criterion_08_operator_expansion(gtensor):
    checks = expansion_check(gtensor)
    ok, d = _assert_all(checks)
    noted = any("equation rhs" in c.notes for c in checks)
    _report(8, "printed operator rows vs tensorial operator", ok and noted,
            d or "20 random quadratics at 10 points, rel 1e-8")


def test_criterion_09_radon_verification(gtensor):
    t0 = time.perf_counter()
    checks = system_checks(gtensor, f_texts=("1", "x", "y", "x*y"), points=default_test_jets())
    elapsed = time.perf_counter() - t0
    ok, d = _assert_all(checks)
    ok = ok and elapsed < 120.0
    lam_note = next(c.notes for c in checks if c.name.startswith("system_residual"))
    _report(9, "integral transform solves the operator pair", ok,
            f"({elapsed:.1f}s) " + (d or lam_note))


def test_criterion_10_symplectic_form(pd_conics4, conics4, symbolic_two_form):
    t0 = time.perf_counter()
    form = symbolic_two_form(pd_conics4)
    dom = conics4.domain
    coords = conics4.coords
    ok = True
    for (ca, cb), text in catalog.for_ode("conics4")["symplectic"].items():
        a, b = coords.index(ca), coords.index(cb)
        ok = ok and equiv(form.matrix[a][b], catalog.expr(text), dom).passed
    ok = ok and all(equiv(c, ZERO, dom).passed for c in form.closure)
    ok = ok and equiv(
        form.volume,
        catalog.expr(catalog.for_ode("conics4")["symplectic_volume"]),
        dom,
    ).passed
    ok = ok and all(equiv(c, ZERO, dom).passed for c in form.x_invariance)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(10, "two-form: printed entries, closure, wedge square, base point", ok,
            f"({elapsed:.1f}s)")


def test_criterion_11_numerics_hygiene(conics5, gn5, fd_gradient):
    cfg = RadonConfig(f=parse("x*y"))
    jet = default_test_jets()[0]

    def Ffun(X):
        return radon_F(cfg, X)

    g1 = fd_gradient(Ffun, jet, cfg.h)
    g2 = fd_gradient(Ffun, jet, cfg.h / 2)
    grad_gap = float(np.linalg.norm(g1 - g2) / np.linalg.norm(g1))

    F1 = radon_F(cfg, jet)
    F2 = radon_F(cfg, jet, order=2 * cfg.order)
    quad_gap = abs(F1 - F2) / (1.0 + abs(F1))

    ok_cross, d = _assert_all(integration_cross_checks(conics5, gn5))
    ok = grad_gap < 1e-5 and quad_gap < 1e-10 and ok_cross
    _report(11, "finite-difference and quadrature hygiene", ok,
            f"grad doubling {grad_gap:.1e}, quadrature doubling {quad_gap:.1e}" + d)
