"""Metric, curvature, and spinor connection on the order-5 moduli space.

The metric exists only at points.  With C the coframe and K the constant
pairing (2, -8, 6) on (e1.e5, e2.e4, e3.e3), halved, g = C^T K C and its
inverse is taken in numpy.  An independent second route pairs the
lower-triangular rows L = C^-1 directly with the inverse pairing,
g^-1 = L K^-1 L^T.  The checks compare the two routes, and both with the
catalogued matrices, at the solve's sample points.

Curvature is numeric at points, and every metric derivative entering it is
exact; nothing is finite-differenced.  Conventions: Gamma^c_ab standard
Levi-Civita, R^d_cab = d_a Gamma^d_bc - d_b Gamma^d_ac + Gamma Gamma,
Ricci_cb = R^a_cab, R = g^cb Ricci_cb.

No metric entry or derivative is an expression.  `MetricField.frame_at`
reads the coframe C and its partials dC from the one forward-mode pass of
the solved frame over a batch of points (`pentad.PentadData.coframe_at`,
on `expr.Jet1` numbers; Griewank & Walther, Evaluating Derivatives, 2008),
the pass the order-4 two-form reads too.  Then d_c g = (d_c C)^T K C plus
its transpose (`pentad.paired_at`); the inverse and the Christoffel symbols
follow in numpy.  Only curvature needs second derivatives: one more pass,
on `expr.Jet2` numbers seeded with the five unit directions, gives
d_e d_c g = (d_e d_c C)^T K C + (d_e C)^T K (d_c C) plus its transpose.
Only a coframe that holds x has d_x g != 0; the pass then runs each point
once more along x.  Over the points drawn with the solve's seed, prefixes
of one stream (`MetricField.points`), each pass runs once, read in slices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import catalog
from .expr import (
    Const,
    Evaluator,
    Expr,
    InputError,
    ZERO,
    add,
    diff,
    div,
    mul,
    neg,
    pow_,
)
from .jet import total_derivative
from .pentad import PentadData, along_flow, paired_at
from .report import CheckRecord, values_check

# frame pairing constants for g = 2 e1.e5 - 8 e2.e4 + 6 e3.e3
_K_LOWER = {(0, 4): Fraction(1), (4, 0): Fraction(1),
            (1, 3): Fraction(-4), (3, 1): Fraction(-4),
            (2, 2): Fraction(6)}
_K = np.array([[float(_K_LOWER.get((i, j), 0)) for j in range(5)] for i in range(5)])
# its inverse: the pairing is anti-diagonal, so each entry inverts alone
_K_UPPER = np.array([[float(1 / _K_LOWER[i, j]) if (i, j) in _K_LOWER else 0.0
                      for j in range(5)] for i in range(5)])
_CURVATURE_POINTS = 20   # the seeded points that curvature and the connection read


class GeomError(InputError):
    pass


class MetricField:
    """The metric over the moduli coordinates, numeric at a batch of points
    (`frame_at`, `derivatives_at`), from the coframe pass of the solved
    frame (`PentadData.coframe_at`)."""

    def __init__(self, pd: PentadData):
        if pd.n != 5:
            raise GeomError("the metric construction needs an order-5 frame")
        self.pd = pd
        self.ode = pd.ode
        self.coords = pd.ode.coords

    @cached_property
    def points(self) -> tuple:
        """`pd.points`, then further draws of the solve's seed up to 20: a draw
        reads one `random.Random(seed)`, so each prefix is a draw too."""
        pd = self.pd
        return pd.points + tuple(self.ode.domain.draw(_CURVATURE_POINTS, pd.seed)[len(pd.points):])

    def _in_stream(self, points: Sequence[Dict[str, float]]) -> bool:
        return len(points) <= len(self.points) and all(p is q for p, q in zip(points, self.points))

    @cached_property
    def _stream_frame(self) -> "FrameAtPoints":
        return self._frame_pass(self.points)

    @cached_property
    def _stream_ddg(self) -> np.ndarray:
        points = self.points[:_CURVATURE_POINTS]
        return self._ddg_pass(points, self.frame_at(points))

    # -- numeric evaluation ----------------------------------------------------

    def frame_at(self, points: Sequence[Dict[str, float]]) -> "FrameAtPoints":
        """Coframe, metric and Christoffel symbols at a batch of points: a
        slice of the stream's frame if they are its first points, else a pass."""
        if self._in_stream(points):
            stream = vars(self._stream_frame).values()
            return FrameAtPoints(*(a if a is None else a[:len(points)] for a in stream))
        return self._frame_pass(points)

    def _frame_pass(self, points: Sequence[Dict[str, float]]) -> "FrameAtPoints":
        coframe = self.pd.coframe_at(points)
        g, dg, dxg = paired_at(coframe, _K)
        g_inv = np.linalg.inv(g)
        frame = FrameAtPoints(*coframe[:2], g, dg, dxg, g_inv, _christoffel(g_inv, dg))
        for arr in vars(frame).values():
            if arr is not None:
                arr.flags.writeable = False
        return frame

    def derivatives_at(self, points: Sequence[Dict[str, float]]):
        """(g, dg, ddg, g_inv) at a batch of points, leading axis the point,
        ddg[k, e, c, a, b] = d_e d_c g_ab from the `Jet2` pass (sliced for the
        stream's first 20 points), the rest from `frame_at`."""
        fr = self.frame_at(points)
        if self._in_stream(points) and len(points) <= _CURVATURE_POINTS:
            return fr.g, fr.dg, self._stream_ddg[:len(points)], fr.g_inv
        return fr.g, fr.dg, self._ddg_pass(points, fr), fr.g_inv

    def _ddg_pass(self, points: Sequence[Dict[str, float]], fr: "FrameAtPoints") -> np.ndarray:
        """d_e d_c g_ab from one `Jet2` pass over the coframe program."""
        n, count = 5, len(points)
        seeds = dict(zip(self.coords, np.eye(n)))
        hess = self.pd.coframe_program.eval_points(points, [seeds] * count,
                                                   second_order=True).hess
        ddC = np.moveaxis(hess.reshape(n, n, n, n, count), -1, 0)   # [k, e, c, i, a]
        X = (np.swapaxes(ddC, 3, 4) @ (_K @ fr.C)[:, None, None]
             + np.swapaxes(fr.dC, 2, 3)[:, :, None] @ (_K @ fr.dC)[:, None])
        ddg = X + np.swapaxes(X, 3, 4)
        ddg.flags.writeable = False
        return ddg

    def christoffel_at(self, points: Sequence[Dict[str, float]]):
        """(g, dg, g_inv, gamma) at a batch of points from `frame_at`, each
        with a leading point axis; gamma[k, d, a, b] = Gamma^d_ab."""
        fr = self.frame_at(points)
        return fr.g, fr.dg, fr.g_inv, fr.gamma


@dataclass(frozen=True)
class FrameAtPoints:
    """First-order geometry at a batch of points, leading axis the point:
    C[k, i, a] the coframe, dC[k, c, i, a] = d_c C_ia, the metric g, its
    partials dg[k, c, a, b], dxg[k, a, b] = d_x g_ab at fixed coordinates
    (None unless the coframe holds x), g_inv and gamma[k, d, a, b] =
    Gamma^d_ab."""

    C: np.ndarray
    dC: np.ndarray
    g: np.ndarray
    dg: np.ndarray
    dxg: Optional[np.ndarray]
    g_inv: np.ndarray
    gamma: np.ndarray


def _point_max(a: np.ndarray) -> np.ndarray:
    """max|a| at each point (leading axis), shaped to broadcast against a."""
    return np.max(np.abs(a), axis=tuple(range(1, a.ndim)), keepdims=True)


def _christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    # Gamma^d_ab = 1/2 g^de (d_a g_eb + d_b g_ea - d_e g_ab), per point
    return 0.5 * np.einsum(
        "kde,kaeb->kdab", g_inv,
        dg + np.transpose(dg, (0, 3, 2, 1)) - np.transpose(dg, (0, 2, 1, 3)))


@dataclass(frozen=True)
class CurvatureAtPoints:
    """Curvature at a batch of points, leading axis the point: the metric
    g, g_inv, gamma[k, d, a, b] = Gamma^d_ab, riemann[k, d, c, a, b] =
    R_dcab (all indices down), ricci and the scalar curvature."""

    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray


def metric_from_frame(pd: PentadData) -> MetricField:
    return MetricField(pd)


def curvature(m: MetricField, points: Sequence[Dict[str, float]]) -> CurvatureAtPoints:
    """Riemann/Ricci/scalar at a batch of points from exact metric
    derivatives (`derivatives_at`)."""
    g, dg, ddg, g_inv = m.derivatives_at(points)
    gamma = _christoffel(g_inv, dg)
    # d_c Gamma^d_ab needs d g^{-1} = -g^{-1} (dg) g^{-1}
    dg_inv = -np.einsum("kdm,kcmn,kne->kcde", g_inv, dg, g_inv)
    sym = dg + np.transpose(dg, (0, 3, 2, 1)) - np.transpose(dg, (0, 2, 1, 3))
    dsym = ddg + np.transpose(ddg, (0, 1, 4, 3, 2)) - np.transpose(ddg, (0, 1, 3, 2, 4))
    dgamma = 0.5 * (
        np.einsum("kcde,kaeb->kcdab", dg_inv, sym) + np.einsum("kde,kcaeb->kcdab", g_inv, dsym)
    )
    # R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
    #                       + Gamma^rho_{mu lam} Gamma^lam_{nu sigma} - (mu <-> nu)
    riem_up = (
        np.einsum("kmrns->krsmn", dgamma)
        - np.einsum("knrms->krsmn", dgamma)
        + np.einsum("krml,klns->krsmn", gamma, gamma)
        - np.einsum("krnl,klms->krsmn", gamma, gamma)
    )
    ricci = np.einsum("krsrn->ksn", riem_up)
    scalar = np.einsum("ksn,ksn->k", g_inv, ricci)
    riemann = np.einsum("kdr,krsmn->kdsmn", g, riem_up)
    return CurvatureAtPoints(g, g_inv, gamma, riemann, ricci, scalar)


# ---------------------------------------------------------------------------
# check suites


def metric_pairing_check(m: MetricField) -> List[CheckRecord]:
    """Verify the repeated-differentiation route at the solve's sample
    points: route agreement, the P-expressed pairings, and (for built-ins)
    the catalogued matrices."""
    pd = m.pd
    fr = m.frame_at(pd.points)
    # route 2: g^-1 = L K^-1 L^T, the rows paired with the inverse pairing
    L = Evaluator([e for row in pd.lower for e in row]).eval_points(pd.points)
    L = L.T.reshape(-1, 5, 5)
    route2 = L @ _K_UPPER @ np.swapaxes(L, 1, 2)
    checks = [values_check("metric_routes_agree", fr.g_inv, route2, pd,
                           "coframe pairing + inversion vs direct row pairing")]

    P, Q = pd.P, pd.Q
    Pp = total_derivative(P, m.ode)
    P4 = pow_(P, 4)
    coeffs = pd.coefficients
    expected = {
        (0, 0): ZERO,
        (0, 1): ZERO,
        (0, 2): ZERO,
        (0, 3): ZERO,
        (1, 1): ZERO,
        (1, 2): ZERO,
        (0, 4): mul(Const(24), P4),
        (1, 3): neg(mul(Const(24), P4)),
        (2, 2): mul(Const(24), P4),
        (1, 4): neg(mul(Const(144), pow_(P, 3), Pp)),
        (2, 3): mul(Const(48), pow_(P, 3), Pp),
        # from the same differentiation chain, via the recurrence letters:
        (2, 4): add(mul(Const(96), pow_(P, 5), Q), neg(mul(Pp, coeffs["H"])),
                    mul(Const(2), pow_(P, 2), coeffs["G"])),
    }
    rows, cols = zip(*expected)
    checks.append(values_check(
        "metric_differentiation_chain", fr.g_inv[:, rows, cols], list(expected.values()), pd,
        "g(d.,d.) entries in terms of P, P', Q and the recurrence letters"))

    cat = catalog.for_ode(m.ode.name)
    if cat and "metric_upper" in cat:
        for key, values, texts in (
            ("metric_upper_matches_expected", fr.g_inv, cat["metric_upper"]),
            ("metric_lower_matches_expected", fr.g, cat["metric_lower"]),
        ):
            ref = catalog.matrix(texts)
            checks.append(values_check(key, values, [e for row in ref for e in row], pd))

    checks.append(values_check("metric_inverse_identity", fr.g @ route2, np.eye(5), pd))
    return checks


def curvature_checks(
    m: MetricField,
    points: Optional[Sequence[Dict[str, float]]] = None,
) -> List[CheckRecord]:
    """Riemann symmetries and the scalar/Einstein facts expected per ODE, at
    the points, by default 20 drawn with the solve's seed."""
    seed = m.pd.seed
    if points is None:
        points = m.points[:_CURVATURE_POINTS]
    checks: List[CheckRecord] = []
    sym_tol = 1e-9
    cat = catalog.for_ode(m.ode.name) or {}
    einstein_factor = cat.get("einstein_factor")

    cv = curvature(m, points)
    R, g, ricci = cv.riemann, cv.g, cv.ricci
    n = len(points)
    R_scale = _point_max(R) + 1e-300
    g_scale = _point_max(g) + 1e-300
    symmetries = np.concatenate([R + np.transpose(R, (0, 2, 1, 3, 4)),
                                 R + np.transpose(R, (0, 1, 2, 4, 3)),
                                 R - np.transpose(R, (0, 3, 4, 1, 2))], axis=1)
    bianchi = R + np.transpose(R, (0, 1, 3, 4, 2)) + np.transpose(R, (0, 1, 4, 2, 3))

    checks.append(CheckRecord.from_residual(
        "riemann_symmetries", np.abs(symmetries) / R_scale, sym_tol, n, seed, points=points))
    checks.append(CheckRecord.from_residual(
        "bianchi_first_identity", np.abs(bianchi) / R_scale, sym_tol, n, seed, points=points))

    expected_R = cat.get("scalar_curvature")
    if expected_R is not None:
        gap = np.abs(cv.scalar - expected_R)
        if expected_R == -60.0:
            checks.append(CheckRecord.from_residual(
                "scalar_curvature_minus60", gap, 1e-6, n, seed, points=points))
        else:
            checks.append(CheckRecord.from_residual(
                "scalar_curvature_zero", gap, 1e-8, n, seed, points=points))
    if einstein_factor is not None:
        checks.append(CheckRecord.from_residual(
            "einstein_ricci_proportional", np.abs(ricci - einstein_factor * g) / g_scale, 1e-6,
            n, seed, notes=f"Ricci = {einstein_factor} * g", points=points))
    else:
        ricci_scale_min = float(np.min(_point_max(ricci) / g_scale))
        checks.append(CheckRecord(
            "ricci_not_zero",
            "pass" if ricci_scale_min > 0.1 else "fail",
            ricci_scale_min,
            0.1,
            n,
            seed,
            "max|Ricci| / max|g| must stay above 0.1; scalar-flat but not Ricci-flat",
        ))
    return checks


def structure_checks(m: MetricField) -> List[CheckRecord]:
    """Flow invariance, first integral, harmonicity, signature."""
    ode, pd = m.ode, m.pd
    seed = pd.seed
    checks: List[CheckRecord] = []

    if (catalog.for_ode(ode.name) or {}).get("harmonic"):
        harmonic_pts = m.points[:10]
        _, _, g_inv, gamma = m.christoffel_at(harmonic_pts)
        div_c = np.einsum("kab,kcab->kc", g_inv, gamma)
        scale = np.max(np.abs(gamma), axis=(1, 2, 3)) + 1e-300
        checks.append(CheckRecord.from_residual(
            "harmonic_coordinates", np.abs(div_c) / scale[:, None], 1e-8, 10, seed,
            notes="g^ab Gamma^c_ab = 0", points=harmonic_pts))

    eigs = np.linalg.eigvalsh(m.frame_at(ode.domain.draw(5, seed + 1)).g)
    split_ok = bool(np.all((eigs > 0).sum(axis=1) == 3) and np.all((eigs < 0).sum(axis=1) == 2))
    checks.append(CheckRecord(
        "signature_split_3_2", "pass" if split_ok else "fail",
        0.0, 0.0, 5, seed + 1,
        "eigenvalues of g split 3 positive / 2 negative at sample points"))

    # g_ab along the solutions, and its Lie derivative along the shift field
    fr = m.frame_at(pd.points)
    along, lie = along_flow(pd, fr.g, fr.dg, fr.dxg)
    checks.append(values_check("killing_prolongation", lie, 0.0, pd,
                               "Lie derivative of g along the shift field vanishes"))
    checks.append(values_check("first_integral_gyy", along[:, 0, 0], 0.0, pd,
                               "g_yy is constant along solutions"))
    return checks


# ---------------------------------------------------------------------------
# spinor connection forms


@dataclass(frozen=True)
class ConnectionForms:
    """One-forms phi, psi, chi (coordinate components) and the scalars
    alpha, gamma, delta they are built from."""

    pd: PentadData
    alpha: Expr
    gamma: Expr
    delta: Expr
    phi: tuple
    psi: tuple
    chi: tuple


def connection_forms(pd: PentadData) -> ConnectionForms:
    """Derive the connection scalars from the solved P, Q.

    The torsion-free requirement forces phi = alpha dy - gamma/P dp and
    chi = 4 gamma dy + delta dp; differentiating chi along x and matching the
    dq slot gives delta = dP/dq, the dp slot gives 6 gamma + D(delta) = 0,
    and the dy slot gives alpha = 2 D(gamma) / P.  psi then follows from the
    x-derivative of phi.
    """
    if pd.ode.name != "conics5":
        raise GeomError("connection forms are derived for the conics5 frame")
    ode = pd.ode
    P, Q = pd.P, pd.Q
    delta = diff(P, "q")
    gamma = div(neg(total_derivative(delta, ode)), Const(6))
    alpha = div(mul(Const(2), total_derivative(gamma, ode)), P)
    inv_p = pow_(P, Fraction(-1))
    phi = (alpha, neg(mul(inv_p, gamma)), ZERO, ZERO, ZERO)
    chi = (mul(Const(4), gamma), delta, ZERO, ZERO, ZERO)
    # P psi = -phi' + Q chi, using (dy)' = dp, (dp)' = dq on the covector basis
    psi_y = mul(add(neg(total_derivative(alpha, ode)), mul(Const(4), Q, gamma)), inv_p)
    psi_p = mul(
        add(neg(alpha), total_derivative(mul(inv_p, gamma), ode), mul(Q, delta)), inv_p
    )
    psi_q = mul(inv_p, gamma, inv_p)
    psi = (psi_y, psi_p, psi_q, ZERO, ZERO)
    return ConnectionForms(pd, alpha, gamma, delta, phi, psi, chi)


def connection_checks(
    cf: ConnectionForms,
    m: MetricField,
    points: Optional[Sequence[Dict[str, float]]] = None,
) -> List[CheckRecord]:
    """Catalogued scalars, at the solve's sample points, plus the frame
    compatibility laws, at the points, by default 20 drawn with the solve's
    seed.

    For e^i = o^m iota^(4-m) the extended derivative rules give
    nabla_a e^i_b = (2m-4) phi_a e^i_b + m psi_a e^(i-1)_b
                    + (4-m) chi_a e^(i+1)_b,
    checked against the numeric Levi-Civita derivative of the coframe.
    """
    pd = cf.pd
    ode, seed = pd.ode, pd.seed
    conn = catalog.for_ode(ode.name)["connection"]
    checks = [values_check(f"connection_{name}_expected", [built],
                           [catalog.expr(conn[name])], pd)
              for name, built in (("delta", cf.delta), ("gamma", cf.gamma), ("alpha", cf.alpha))]
    checks.append(values_check("connection_psi_expected", list(cf.psi),
                               [catalog.expr(text) for text in conn["psi"]], pd))

    if points is None:
        points = m.points[:_CURVATURE_POINTS]
    n = 5
    fr = m.frame_at(points)
    forms = Evaluator(list(cf.phi) + list(cf.psi) + list(cf.chi)).eval_points(points)
    phi, psi, chi = forms.reshape(3, n, len(points)).transpose(0, 2, 1)
    # nabla_a e^i_b = d_a C[i,b] - Gamma^c_ab C[i,c]
    nabla = np.einsum("kaib->kiab", fr.dC) - np.einsum("kic,kcab->kiab", fr.C, fr.gamma)
    # e^(i-1) and e^(i+1) at [k, i]; the missing ends are 0, with weight 0
    zero = np.zeros_like(fr.C[:, :1])
    prev = np.concatenate((zero, fr.C[:, :-1]), axis=1)
    succ = np.concatenate((fr.C[:, 1:], zero), axis=1)
    m_deg = np.arange(n)[:, None, None]
    rhs = ((2 * m_deg - 4) * (phi[:, None, :, None] * fr.C[:, :, None])
           + m_deg * (psi[:, None, :, None] * prev[:, :, None])
           + (4 - m_deg) * (chi[:, None, :, None] * succ[:, :, None]))
    checks.append(CheckRecord.from_residual(
        "connection_frame_compatibility", np.abs(nabla - rhs) / (_point_max(nabla) + 1e-300), 1e-8,
        len(points), seed, notes="nabla e^i vs (2m-4) phi e^i + m psi e^(i-1) + (4-m) chi e^(i+1)",
        points=points))
    return checks


def integrability_check(cf: ConnectionForms, m: MetricField) -> List[CheckRecord]:
    """The constant-y surfaces: chi has no dq/dr/ds components and the
    conormal dy is null."""
    pd = m.pd
    return [
        values_check("chi_spans_dy_dp_only", list(cf.chi[2:]), 0.0, pd),
        values_check("null_surface_gyy_upper", m.frame_at(pd.points).g_inv[:, 0, 0], 0.0, pd,
                     "constant-y surfaces are null"),
    ]
