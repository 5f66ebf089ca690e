"""Metric, curvature, and spinor connection on the order-5 moduli space.

The covariant metric is assembled from the coframe with the constant pairing
(2, -8, 6) on (e1.e5, e2.e4, e3.e3); the contravariant metric is its symbolic
adjugate/determinant inverse.  An independent second route pairs the
lower-triangular rows directly with the inverse constant pairing; agreement
of the two routes (and of both with the catalogued matrices) is part of the
verification surface.

Curvature is numeric-at-a-point but all metric derivatives entering it are
symbolic; nothing is finite-differenced.  Conventions: Gamma^c_ab standard
Levi-Civita, R^d_cab = d_a Gamma^d_bc - d_b Gamma^d_ac + Gamma Gamma,
Ricci_cb = R^a_cab, R = g^cb Ricci_cb.

The metric derivatives come in two table levels, each compiled once per
`MetricField` on first use.  The first-order table (g, dg) serves
`christoffel_at`, and through it the signature and harmonic-coordinate
checks, the frame compatibility law, and the `so3` operator and expansion
checks; the `radon` suite never reads more.  The second-order table
(g, dg, ddg) differentiates the same dg expressions and serves
`derivatives_at`, which only `curvature` needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import catalog
from .expr import (
    Const,
    DEFAULT_REL_TOL,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Evaluator,
    Expr,
    ONE,
    ZERO,
    add,
    diff,
    div,
    mul,
    neg,
    pow_,
)
from .jet import JetOde, prolongation, total_derivative
from .pentad import PentadData
from .report import CheckRecord, check_identities

# frame pairing constants for g = 2 e1.e5 - 8 e2.e4 + 6 e3.e3
_K_LOWER = {(0, 4): Fraction(1), (4, 0): Fraction(1),
            (1, 3): Fraction(-4), (3, 1): Fraction(-4),
            (2, 2): Fraction(6)}
_K_UPPER = {(0, 4): Fraction(1), (4, 0): Fraction(1),
            (1, 3): Fraction(-1, 4), (3, 1): Fraction(-1, 4),
            (2, 2): Fraction(1, 6)}


class GeomError(Exception):
    pass


def _pairing(rows_a: Sequence[Expr], rows_b: Sequence[Expr], k: Dict) -> Expr:
    terms = []
    for (i, j), c in k.items():
        terms.append(mul(Const(c), rows_a[i], rows_b[j]))
    return add(*terms)


def _sym_minor(g, rows: tuple, cols: tuple, memo: dict) -> Expr:
    key = (rows, cols)
    if key in memo:
        return memo[key]
    if len(rows) == 1:
        res = g[rows[0]][cols[0]]
    else:
        r0 = rows[0]
        rest = rows[1:]
        terms = []
        for k, c in enumerate(cols):
            sub = _sym_minor(g, rest, cols[:k] + cols[k + 1:], memo)
            term = mul(g[r0][c], sub)
            terms.append(term if k % 2 == 0 else neg(term))
        res = add(*terms)
    memo[key] = res
    return res


class MetricField:
    """Symbolic covariant/contravariant metric over the moduli coordinates."""

    def __init__(self, pd: PentadData):
        if pd.n != 5:
            raise GeomError("the metric construction needs an order-5 frame")
        self.pd = pd
        self.ode = pd.ode
        self.coords = pd.ode.coords
        n = 5
        C = pd.coframe_rows
        L = pd.lower

        lower = [[ZERO] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                entry = _pairing([C[i][a] for i in range(n)], [C[j][b] for j in range(n)], _K_LOWER)
                lower[a][b] = entry
                lower[b][a] = entry
        self.g_lower = tuple(tuple(r) for r in lower)

        memo: dict = {}
        idx = tuple(range(n))
        self.det = _sym_minor(self.g_lower, idx, idx, memo)
        inv_det = pow_(self.det, Fraction(-1))
        upper = [[ZERO] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                rows = tuple(i for i in idx if i != b)
                cols = tuple(j for j in idx if j != a)
                cof = _sym_minor(self.g_lower, rows, cols, memo)
                entry = mul(cof, inv_det)
                if (a + b) % 2 == 1:
                    entry = neg(entry)
                upper[a][b] = entry
                upper[b][a] = entry
        self.g_upper = tuple(tuple(r) for r in upper)

        self._dg: Optional[list] = None
        self._first_evaluator: Optional[Evaluator] = None
        self._deriv_cache: Optional[tuple] = None
        self._evaluator: Optional[Evaluator] = None

    # -- second construction route ------------------------------------------

    def contravariant_from_pairing(self) -> tuple:
        """g(dX^a, dX^b) obtained by pairing the differentiated rows of d(y)
        directly, the repeated-differentiation route."""
        n = 5
        L = self.pd.lower
        out = [[ZERO] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                entry = _pairing(L[a], L[b], _K_UPPER)
                out[a][b] = entry
                out[b][a] = entry
        return tuple(tuple(r) for r in out)

    # -- numeric evaluation ----------------------------------------------------

    def _dg_exprs(self) -> list:
        """dg[c][a][b] = d_c g_ab as expressions; built once and shared by
        both table levels."""
        if self._dg is None:
            n = 5
            g = self.g_lower
            self._dg = [[[diff(g[a][b], c) for b in range(n)] for a in range(n)]
                        for c in self.coords]
        return self._dg

    def _first_order_evaluator(self) -> Evaluator:
        """Compiled first-order table: g then dg, flattened."""
        if self._first_evaluator is None:
            dg = self._dg_exprs()
            flat = [ex for row in self.g_lower for ex in row]
            flat += [ex for blk in dg for row in blk for ex in row]
            self._first_evaluator = Evaluator(flat)
        return self._first_evaluator

    def _derivative_exprs(self):
        """(g, dg, ddg) expression tables, the second-order level; built once,
        ddg by differentiating the cached dg."""
        if self._deriv_cache is not None:
            return self._deriv_cache
        n = 5
        coords = self.coords
        g = self.g_lower
        dg = self._dg_exprs()
        ddg = [
            [[[diff(dg[c][a][b], coords[e]) for b in range(n)] for a in range(n)] for c in range(n)]
            for e in range(n)
        ]
        flat = [ex for row in g for ex in row]
        flat += [ex for blk in dg for row in blk for ex in row]
        flat += [ex for blk3 in ddg for blk in blk3 for row in blk for ex in row]
        self._deriv_cache = (g, dg, ddg)
        self._evaluator = Evaluator(flat)
        return self._deriv_cache

    def derivatives_at(self, point: Dict[str, float]):
        """Numeric (g, dg, ddg, g_inv) at a point from the second-order table;
        derivatives are exact symbolic expressions evaluated there.  Only
        curvature needs ddg; everything else reads `christoffel_at`."""
        self._derivative_exprs()
        n = 5
        vals = self._evaluator(point)
        g = np.array(vals[: n * n]).reshape(n, n)
        dg = np.array(vals[n * n: n * n + n ** 3]).reshape(n, n, n)
        ddg = np.array(vals[n * n + n ** 3:]).reshape(n, n, n, n)
        g_inv = np.linalg.inv(g)
        return g, dg, ddg, g_inv

    def christoffel_at(self, point: Dict[str, float]):
        """Numeric (g, dg, g_inv, gamma) at a point from the first-order table
        alone; never builds ddg.  gamma[d, a, b] = Gamma^d_ab."""
        n = 5
        vals = self._first_order_evaluator()(point)
        g = np.array(vals[: n * n]).reshape(n, n)
        dg = np.array(vals[n * n:]).reshape(n, n, n)
        g_inv = np.linalg.inv(g)
        return g, dg, g_inv, _christoffel(g_inv, dg)


def _christoffel(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    # Gamma^d_ab = 1/2 g^de (d_a g_eb + d_b g_ea - d_e g_ab)
    return 0.5 * np.einsum(
        "de,aeb->dab", g_inv, dg + np.transpose(dg, (2, 1, 0)) - np.transpose(dg, (1, 0, 2))
    )


@dataclass(frozen=True)
class CurvatureAtPoint:
    point: Dict[str, float]
    g: np.ndarray
    g_inv: np.ndarray
    gamma: np.ndarray        # Gamma[d, a, b]
    riemann: np.ndarray      # R_{dcab} (all indices down)
    ricci: np.ndarray
    scalar: float


def metric_from_frame(pd: PentadData) -> MetricField:
    return MetricField(pd)


def curvature(m: MetricField, point: Dict[str, float]) -> CurvatureAtPoint:
    """Riemann/Ricci/scalar at a point from symbolic metric derivatives (the
    second-order table)."""
    g, dg, ddg, g_inv = m.derivatives_at(point)
    gamma = _christoffel(g_inv, dg)
    # d_c Gamma^d_ab needs d g^{-1} = -g^{-1} (dg) g^{-1}
    dg_inv = -np.einsum("dm,cmn,ne->cde", g_inv, dg, g_inv)
    sym = dg + np.transpose(dg, (2, 1, 0)) - np.transpose(dg, (1, 0, 2))
    dsym = ddg + np.transpose(ddg, (0, 3, 2, 1)) - np.transpose(ddg, (0, 2, 1, 3))
    dgamma = 0.5 * (
        np.einsum("cde,aeb->cdab", dg_inv, sym) + np.einsum("de,caeb->cdab", g_inv, dsym)
    )
    # R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma} - d_nu Gamma^rho_{mu sigma}
    #                       + Gamma^rho_{mu lam} Gamma^lam_{nu sigma} - (mu <-> nu)
    riem_up = (
        np.einsum("mrns->rsmn", dgamma)
        - np.einsum("nrms->rsmn", dgamma)
        + np.einsum("rml,lns->rsmn", gamma, gamma)
        - np.einsum("rnl,lms->rsmn", gamma, gamma)
    )
    ricci = np.einsum("rsrn->sn", riem_up)
    scalar = float(np.einsum("sn,sn->", g_inv, ricci))
    riemann = np.einsum("dr,rsmn->dsmn", g, riem_up)
    return CurvatureAtPoint(point, g, g_inv, gamma, riemann, ricci, scalar)


def sample_points(ode: JetOde, count: int, seed: int = DEFAULT_SEED) -> List[Dict[str, float]]:
    rng = random.Random(seed)
    return [ode.domain.sample(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# check suites


def metric_pairing_check(
    m: MetricField,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_REL_TOL,
    seed: int = DEFAULT_SEED,
) -> List[CheckRecord]:
    """Verify the repeated-differentiation route: route agreement, the
    P-expressed pairings, and (for built-ins) the catalogued matrices."""
    sampling = (m.ode.domain, samples, tol, seed)
    checks: List[CheckRecord] = []
    n = 5
    upper_half = [(a, b) for a in range(n) for b in range(a, n)]
    route2 = m.contravariant_from_pairing()

    checks.append(check_identities(
        "metric_routes_agree",
        [(m.g_upper[a][b], route2[a][b]) for a, b in upper_half],
        *sampling, "coframe pairing + inversion vs direct row pairing"))

    P, Q = m.pd.P, m.pd.Q
    Pp = total_derivative(P, m.ode)
    P4 = pow_(P, 4)
    coeffs = m.pd.coefficients
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
    checks.append(check_identities(
        "metric_differentiation_chain",
        [(m.g_upper[a][b], e) for (a, b), e in expected.items()],
        *sampling, "g(d.,d.) entries in terms of P, P', Q and the recurrence letters"))

    cat = catalog.for_ode(m.ode.name)
    if cat and "metric_upper" in cat:
        for key, table, texts in (
            ("metric_upper_matches_expected", m.g_upper, cat["metric_upper"]),
            ("metric_lower_matches_expected", m.g_lower, cat["metric_lower"]),
        ):
            ref = catalog.matrix(texts)
            checks.append(check_identities(
                key, [(table[a][b], ref[a][b]) for a, b in upper_half], *sampling))

    checks.append(check_identities(
        "metric_inverse_identity",
        [(add(*[mul(m.g_lower[a][c], m.g_upper[c][b]) for c in range(n)]),
          ONE if a == b else ZERO)
         for a in range(n) for b in range(n)],
        *sampling))
    return checks


def curvature_checks(
    m: MetricField,
    points: Optional[Sequence[Dict[str, float]]] = None,
    count: int = 20,
    seed: int = DEFAULT_SEED,
) -> List[CheckRecord]:
    """Riemann symmetries and the scalar/Einstein facts expected per ODE."""
    if points is None:
        points = sample_points(m.ode, count, seed)
    checks: List[CheckRecord] = []
    sym_tol = 1e-9
    worst_sym = worst_bianchi = 0.0
    scalars = []
    einstein_worst = 0.0
    ricci_scale_min = float("inf")

    cat = catalog.for_ode(m.ode.name) or {}
    einstein_factor = cat.get("einstein_factor")

    for pt in points:
        cv = curvature(m, pt)
        R = cv.riemann
        scale = np.max(np.abs(R)) + 1e-300
        worst_sym = max(
            worst_sym,
            float(np.max(np.abs(R + np.transpose(R, (1, 0, 2, 3))))) / scale,
            float(np.max(np.abs(R + np.transpose(R, (0, 1, 3, 2))))) / scale,
            float(np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1))))) / scale,
        )
        bianchi = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
        worst_bianchi = max(worst_bianchi, float(np.max(np.abs(bianchi))) / scale)
        scalars.append(cv.scalar)
        if einstein_factor is not None:
            gap = cv.ricci - einstein_factor * cv.g
            einstein_worst = max(
                einstein_worst, float(np.max(np.abs(gap))) / (np.max(np.abs(cv.g)) + 1e-300)
            )
        else:
            ricci_scale_min = min(
                ricci_scale_min,
                float(np.max(np.abs(cv.ricci))) / (np.max(np.abs(cv.g)) + 1e-300),
            )

    checks.append(CheckRecord.from_residual(
        "riemann_symmetries", worst_sym, sym_tol, len(points), seed))
    checks.append(CheckRecord.from_residual(
        "bianchi_first_identity", worst_bianchi, sym_tol, len(points), seed))

    expected_R = cat.get("scalar_curvature")
    if expected_R is not None:
        gap = max(abs(s - expected_R) for s in scalars)
        if expected_R == -60.0:
            checks.append(CheckRecord.from_residual(
                "scalar_curvature_minus60", gap, 1e-6, len(points), seed))
        else:
            checks.append(CheckRecord.from_residual(
                "scalar_curvature_zero", gap, 1e-8, len(points), seed))
    if einstein_factor is not None:
        checks.append(CheckRecord.from_residual(
            "einstein_ricci_proportional", einstein_worst, 1e-6, len(points), seed,
            notes=f"Ricci = {einstein_factor} * g"))
    else:
        checks.append(CheckRecord(
            "ricci_not_zero",
            "pass" if ricci_scale_min > 0.1 else "fail",
            ricci_scale_min,
            0.1,
            len(points),
            seed,
            "max|Ricci| / max|g| must stay above 0.1; scalar-flat but not Ricci-flat",
        ))
    return checks


def structure_checks(
    m: MetricField,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_REL_TOL,
    seed: int = DEFAULT_SEED,
) -> List[CheckRecord]:
    """Flow invariance, first integral, harmonicity, signature."""
    ode = m.ode
    sampling = (ode.domain, samples, tol, seed)
    coords = ode.coords
    n = 5
    V = prolongation(ode).components
    checks: List[CheckRecord] = []

    lie = []
    for a in range(n):
        for b in range(a, n):
            terms = [diff(m.g_lower[a][b], "x")]
            for c in range(n):
                terms.append(mul(V[c], diff(m.g_lower[a][b], coords[c])))
                terms.append(mul(m.g_lower[c][b], diff(V[c], coords[a])))
                terms.append(mul(m.g_lower[a][c], diff(V[c], coords[b])))
            lie.append((add(*terms), ZERO))
    checks.append(check_identities("killing_prolongation", lie, *sampling,
                                   "Lie derivative of g along the shift field vanishes"))

    checks.append(check_identities(
        "first_integral_gyy", [(total_derivative(m.g_lower[0][0], ode), ZERO)], *sampling,
        "g_yy is constant along solutions"))

    cat = catalog.for_ode(ode.name) or {}
    if cat.get("harmonic"):
        pts = sample_points(ode, 10, seed)
        worst = 0.0
        for pt in pts:
            _, _, g_inv, gamma = m.christoffel_at(pt)
            div_c = np.einsum("ab,cab->c", g_inv, gamma)
            worst = max(worst, float(np.max(np.abs(div_c))) / (np.max(np.abs(gamma)) + 1e-300))
        checks.append(CheckRecord.from_residual(
            "harmonic_coordinates", worst, 1e-8, len(pts), seed,
            notes="g^ab Gamma^c_ab = 0"))

    pts = sample_points(ode, 5, seed + 1)
    split_ok = True
    for pt in pts:
        g, _, _, _ = m.christoffel_at(pt)
        eigs = np.linalg.eigvalsh(g)
        split_ok = split_ok and (int(np.sum(eigs > 0)), int(np.sum(eigs < 0))) == (3, 2)
    checks.append(CheckRecord(
        "signature_split_3_2", "pass" if split_ok else "fail",
        0.0, 0.0, len(pts), seed + 1,
        "eigenvalues of g split 3 positive / 2 negative at sample points"))
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
    count: int = 20,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_REL_TOL,
    seed: int = DEFAULT_SEED,
) -> List[CheckRecord]:
    """Catalogued scalars plus the frame compatibility laws.

    For e^i = o^m iota^(4-m) the extended derivative rules give
    nabla_a e^i_b = (2m-4) phi_a e^i_b + m psi_a e^(i-1)_b
                    + (4-m) chi_a e^(i+1)_b,
    checked against the numeric Levi-Civita derivative of the coframe.
    """
    ode = cf.pd.ode
    sampling = (ode.domain, samples, tol, seed)
    checks: List[CheckRecord] = []
    cat = catalog.for_ode(ode.name)
    conn = cat["connection"]

    for name, built in (("delta", cf.delta), ("gamma", cf.gamma), ("alpha", cf.alpha)):
        checks.append(check_identities(f"connection_{name}_expected",
                                       [(built, catalog.expr(conn[name]))], *sampling))
    checks.append(check_identities(
        "connection_psi_expected",
        [(comp, catalog.expr(text)) for comp, text in zip(cf.psi, conn["psi"])], *sampling))

    if points is None:
        points = sample_points(ode, count, seed)
    n = 5
    coords = ode.coords
    C = cf.pd.coframe_rows
    dC = [[[diff(C[i][b], coords[a]) for b in range(n)] for i in range(n)] for a in range(n)]
    flat = [e for row in C for e in row]
    flat += [e for blk in dC for row in blk for e in row]
    flat += list(cf.phi) + list(cf.psi) + list(cf.chi)
    ev = Evaluator(flat)

    worst = 0.0
    law_tol = 1e-8
    for pt in points:
        vals = ev(pt)
        Cv = np.array(vals[: n * n]).reshape(n, n)
        dCv = np.array(vals[n * n: n * n + n ** 3]).reshape(n, n, n)
        off = n * n + n ** 3
        phi_v = np.array(vals[off: off + n])
        psi_v = np.array(vals[off + n: off + 2 * n])
        chi_v = np.array(vals[off + 2 * n: off + 3 * n])
        _, _, _, gamma_np = m.christoffel_at(pt)
        # nabla_a e^i_b = d_a C[i,b] - Gamma^c_ab C[i,c]
        nabla = np.einsum("aib->iab", dCv) - np.einsum("ic,cab->iab", Cv, gamma_np)
        scale = np.max(np.abs(nabla)) + 1e-300
        for i in range(n):
            mdeg = i
            rhs = (2 * mdeg - 4) * np.einsum("a,b->ab", phi_v, Cv[i])
            if mdeg > 0:
                rhs = rhs + mdeg * np.einsum("a,b->ab", psi_v, Cv[i - 1])
            if mdeg < 4:
                rhs = rhs + (4 - mdeg) * np.einsum("a,b->ab", chi_v, Cv[i + 1])
            worst = max(worst, float(np.max(np.abs(nabla[i] - rhs))) / scale)
    checks.append(CheckRecord.from_residual(
        "connection_frame_compatibility", worst, law_tol, len(points), seed,
        notes="nabla e^i vs (2m-4) phi e^i + m psi e^(i-1) + (4-m) chi e^(i+1)"))
    return checks


def integrability_check(
    cf: ConnectionForms,
    m: MetricField,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_REL_TOL,
    seed: int = DEFAULT_SEED,
) -> List[CheckRecord]:
    """The constant-y surfaces: chi has no dq/dr/ds components and the
    conormal dy is null."""
    sampling = (cf.pd.ode.domain, samples, tol, seed)
    return [
        check_identities("chi_spans_dy_dp_only",
                         [(comp, ZERO) for comp in cf.chi[2:]], *sampling),
        check_identities("null_surface_gyy_upper", [(m.g_upper[0][0], ZERO)], *sampling,
                         "constant-y surfaces are null"),
    ]
