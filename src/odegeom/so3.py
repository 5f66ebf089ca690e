"""The totally symmetric structure tensor and its identity suite.

The tensor is built once and exactly: moduli-space frame indices are
symmetric 4-index spinors over a 2-dimensional space, and the structure
tensor is the six-epsilon contraction of three such blocks, evaluated in
exact rational arithmetic by brute-force symmetrisation.  Its frame
components are rational constants; coordinate components follow by coframe
substitution.  Everything the tensor is supposed to satisfy (trace-freeness,
the quartic normalisation, parallelism, the curvature contractions, and the
printed coordinate expansion of the associated second-order operator) is
checked numerically at sample points against the curvature machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import catalog
from .expr import (
    Const,
    DEFAULT_REL_TOL,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Evaluator,
    ZERO,
    add,
    diff,
    mul,
)
from .geom import MetricField, curvature, sample_points
from .pentad import PentadData
from .report import CheckRecord, check_identities


class So3Error(Exception):
    pass


# ---------------------------------------------------------------------------
# exact spinor block: 2-dim space, basis dyad (o, i), eps(o, i) = 1

_EPS = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))


def _sym4(vectors: Sequence[Sequence[Fraction]]) -> dict:
    """Symmetrised product of four 2-component spinors, as a dense map from
    index tuples to Fractions (weight-one symmetrisation, factor 1/4!)."""
    out: dict = {}
    norm = Fraction(1, 24)
    for idx in itertools.product((0, 1), repeat=4):
        total = Fraction(0)
        for perm in itertools.permutations(range(4)):
            term = Fraction(1)
            for slot, which in enumerate(perm):
                term *= vectors[which][idx[slot]]
                if term == 0:
                    break
            total += term
        if total:
            out[idx] = total * norm
    return out


def _frac_inv(mat: List[List[Fraction]]) -> List[List[Fraction]]:
    n = len(mat)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise So3Error("singular pairing matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _spinor_frame_data():
    """Frame vectors as symmetric 4-spinors, the induced constant metric, and
    the structure-tensor frame components.  Computed once, exactly."""
    o_lo = (Fraction(1), Fraction(0))
    i_lo = (Fraction(0), Fraction(1))

    def raise_idx(v):
        return tuple(
            sum(_EPS[a][b] * v[b] for b in range(2)) for a in range(2)
        )

    o_hi, i_hi = raise_idx(o_lo), raise_idx(i_lo)

    e_lo = [_sym4([o_lo] * m + [i_lo] * (4 - m)) for m in range(5)]
    f_hi = [_sym4([o_hi] * m + [i_hi] * (4 - m)) for m in range(5)]

    pairing = [
        [sum((e_lo[i].get(idx, Fraction(0)) * v for idx, v in f_hi[j].items()), Fraction(0))
         for j in range(5)]
        for i in range(5)
    ]
    inv = _frac_inv(pairing)
    frame = []
    for j in range(5):
        vec: dict = {}
        for k in range(5):
            c = inv[k][j]
            if c == 0:
                continue
            for idx, v in f_hi[k].items():
                vec[idx] = vec.get(idx, Fraction(0)) + c * v
        frame.append(vec)

    # induced metric on frame indices: four eps pairings
    sign_patterns2 = list(itertools.product(((0, 1, Fraction(1)), (1, 0, Fraction(-1))), repeat=4))
    khat = [[Fraction(0)] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(5):
            total = Fraction(0)
            for pat in sign_patterns2:
                sgn = Fraction(1)
                left = []
                right = []
                for a, b, s in pat:
                    sgn *= s
                    left.append(a)
                    right.append(b)
                vi = frame[i].get(tuple(left), Fraction(0))
                if vi == 0:
                    continue
                vj = frame[j].get(tuple(right), Fraction(0))
                if vj == 0:
                    continue
                total += sgn * vi * vj
            khat[i][j] = total

    # structure tensor: eps pairings (A,E)(B,F) between slots 1-2,
    # (G,P)(H,Q) between 2-3, (C,R)(D,S) between 1-3
    sign_patterns6 = list(itertools.product(((0, 1, Fraction(1)), (1, 0, Fraction(-1))), repeat=6))
    ghat = [[[Fraction(0)] * 5 for _ in range(5)] for _ in range(5)]
    for i in range(5):
        for j in range(5):
            for k in range(5):
                total = Fraction(0)
                for pat in sign_patterns6:
                    (A, E, s1), (B, F, s2), (G, P, s3), (H, Q, s4), (C, R, s5), (D, S, s6) = pat
                    vi = frame[i].get((A, B, C, D), Fraction(0))
                    if vi == 0:
                        continue
                    vj = frame[j].get((E, F, G, H), Fraction(0))
                    if vj == 0:
                        continue
                    vk = frame[k].get((P, Q, R, S), Fraction(0))
                    if vk == 0:
                        continue
                    total += s1 * s2 * s3 * s4 * s5 * s6 * vi * vj * vk
                ghat[i][j][k] = total

    # full symmetrisation over the three moduli slots
    ghat_sym = [[[Fraction(0)] * 5 for _ in range(5)] for _ in range(5)]
    for i in range(5):
        for j in range(5):
            for k in range(5):
                acc = Fraction(0)
                for perm in itertools.permutations((i, j, k)):
                    acc += ghat[perm[0]][perm[1]][perm[2]]
                ghat_sym[i][j][k] = acc / 6

    return khat, ghat, ghat_sym


_SPINOR_CACHE: Optional[tuple] = None


def spinor_frame_data():
    global _SPINOR_CACHE
    if _SPINOR_CACHE is None:
        _SPINOR_CACHE = _spinor_frame_data()
    return _SPINOR_CACHE


# ---------------------------------------------------------------------------


@dataclass
class GTensor:
    """Frame components (exact rationals) and coordinate components of the
    structure tensor, tied to the metric it is compatible with."""

    m: MetricField
    ghat: tuple                  # 5x5x5 Fractions, totally symmetric
    ghat_raw_symmetric: bool     # was the unsymmetrised contraction already symmetric
    khat_matches_pairing: bool   # induced constant metric equals the frame pairing
    coord_lower: tuple           # 5x5x5 Exprs: G_abc over the moduli coordinates

    def __post_init__(self):
        self._coframe_ev: Optional[Evaluator] = None
        self._ghat_np: Optional[np.ndarray] = None

    def ghat_np(self) -> np.ndarray:
        if self._ghat_np is None:
            self._ghat_np = np.array(
                [[[float(v) for v in row] for row in blk] for blk in self.ghat]
            )
        return self._ghat_np

    def lower_at(self, point: Dict[str, float]) -> np.ndarray:
        n = 5
        if self._coframe_ev is None:
            C = self.m.pd.coframe_rows
            self._coframe_ev = Evaluator([C[i][a] for i in range(n) for a in range(n)])
        Cv = np.array(self._coframe_ev(point)).reshape(n, n)
        return np.einsum("ijk,ia,jb,kc->abc", self.ghat_np(), Cv, Cv, Cv)


_K_PAIRING = {(0, 4): Fraction(1), (1, 3): Fraction(-4), (2, 2): Fraction(6),
              (3, 1): Fraction(-4), (4, 0): Fraction(1)}


def build_G(pd: PentadData, m: MetricField) -> GTensor:
    """Assemble the structure tensor for the conics frame."""
    if pd.ode.name != "conics5":
        raise So3Error("the parallel structure tensor is built on the conics5 frame")
    khat, ghat_raw, ghat = spinor_frame_data()

    khat_ok = all(
        khat[i][j] == _K_PAIRING.get((i, j), Fraction(0)) for i in range(5) for j in range(5)
    )
    raw_sym = all(
        ghat_raw[i][j][k] == ghat_raw[p][q][r]
        for i in range(5) for j in range(5) for k in range(5)
        for (p, q, r) in itertools.permutations((i, j, k))
    )

    C = pd.coframe_rows
    n = 5
    coord = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                terms = []
                for i in range(n):
                    for j in range(n):
                        for k in range(n):
                            v = ghat[i][j][k]
                            if v == 0:
                                continue
                            terms.append(mul(Const(v), C[i][a], C[j][b], C[k][c]))
                coord[a][b][c] = add(*terms) if terms else ZERO

    return GTensor(
        m=m,
        ghat=tuple(tuple(tuple(row) for row in blk) for blk in ghat),
        ghat_raw_symmetric=raw_sym,
        khat_matches_pairing=khat_ok,
        coord_lower=tuple(tuple(tuple(row) for row in blk) for blk in coord),
    )


def frame_constant_checks(G: GTensor) -> List[CheckRecord]:
    """Exact rational checks on the frame components."""
    checks = []
    checks.append(CheckRecord(
        "gtensor_frame_pairing_consistent",
        "pass" if G.khat_matches_pairing else "fail",
        0.0, 0.0, 1, DEFAULT_SEED,
        "epsilon-built constant metric equals the (2, -8, 6) frame pairing"))
    checks.append(CheckRecord(
        "gtensor_raw_symmetry",
        "pass" if G.ghat_raw_symmetric else "fail",
        0.0, 0.0, 1, DEFAULT_SEED,
        "six-epsilon contraction is already totally symmetric"))

    k = [[_K_PAIRING.get((i, j), Fraction(0)) for j in range(5)] for i in range(5)]
    kinv = _frac_inv(k)
    gh = G.ghat

    trace = [
        sum(kinv[i][j] * gh[i][j][kk] for i in range(5) for j in range(5))
        for kk in range(5)
    ]
    checks.append(CheckRecord(
        "gtensor_trace_free_exact",
        "pass" if all(t == 0 for t in trace) else "fail",
        0.0, 0.0, 1, DEFAULT_SEED, "k^ij Ghat_ijk = 0 exactly"))

    # Ghat_efa Ghat^ef_b = (7/12) k_ab
    ok = True
    worst = Fraction(0)
    for a in range(5):
        for b in range(5):
            tot = Fraction(0)
            for e in range(5):
                for f in range(5):
                    for e2 in range(5):
                        for f2 in range(5):
                            if kinv[e][e2] == 0 or kinv[f][f2] == 0:
                                continue
                            tot += gh[e][f][a] * gh[e2][f2][b] * kinv[e][e2] * kinv[f][f2]
            want = Fraction(7, 12) * k[a][b]
            if tot != want:
                ok = False
                worst = max(worst, abs(tot - want))
    checks.append(CheckRecord(
        "gtensor_quadratic_trace_7_12",
        "pass" if ok else "fail", float(worst), 1e-10, 1, DEFAULT_SEED,
        "G_efa G^ef_b = (7/12) g_ab exactly on the frame"))

    full = Fraction(0)
    for a in range(5):
        for b in range(5):
            for c in range(5):
                for a2 in range(5):
                    for b2 in range(5):
                        for c2 in range(5):
                            w = kinv[a][a2] * kinv[b][b2] * kinv[c][c2]
                            if w == 0:
                                continue
                            full += gh[a][b][c] * gh[a2][b2][c2] * w
    checks.append(CheckRecord(
        "gtensor_norm_35_12",
        "pass" if full == Fraction(35, 12) else "fail",
        float(abs(full - Fraction(35, 12))), 1e-10, 1, DEFAULT_SEED,
        f"G_abc G^abc = {full} on the frame"))
    return checks


def trace_checks_symbolic(
    G: GTensor,
    samples: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_REL_TOL,
    seed: int = DEFAULT_SEED,
) -> List[CheckRecord]:
    """g^ab G_abc = 0 as coordinate identities."""
    m = G.m
    contractions = [
        (add(*[mul(m.g_upper[a][b], G.coord_lower[a][b][c])
               for a in range(5) for b in range(5)]), ZERO)
        for c in range(5)
    ]
    return [check_identities("gtensor_trace_free_coordinates", contractions,
                             m.ode.domain, samples, tol, seed)]


def _tensors_at(G: GTensor, point: Dict[str, float]):
    cv = curvature(G.m, point)
    Gl = G.lower_at(point)
    ginv = cv.g_inv
    Gup = np.einsum("ax,by,cz,xyz->abc", ginv, ginv, ginv, Gl)
    Gmix = np.einsum("ef,fab->eab", ginv, Gl)
    return cv, Gl, Gup, Gmix


def _sym_last3(T: np.ndarray) -> np.ndarray:
    return (
        T + np.transpose(T, (0, 1, 3, 2)) + np.transpose(T, (0, 2, 1, 3))
        + np.transpose(T, (0, 2, 3, 1)) + np.transpose(T, (0, 3, 1, 2))
        + np.transpose(T, (0, 3, 2, 1))
    ) / 6.0


def g_identities(
    G: GTensor,
    points: Optional[Sequence[Dict[str, float]]] = None,
    count: int = 10,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-8,
) -> List[CheckRecord]:
    """The compatibility identities tying the structure tensor to the metric
    and curvature, at random points."""
    m = G.m
    if points is None:
        points = sample_points(m.ode, count, seed)
    n = 5
    coords = m.ode.coords

    dG_exprs = [
        [[[diff(G.coord_lower[a][b][c], coords[d]) for c in range(n)] for b in range(n)]
         for a in range(n)]
        for d in range(n)
    ]
    flat = [dG_exprs[d][a][b][c]
            for d in range(n) for a in range(n) for b in range(n) for c in range(n)]
    ev_dG = Evaluator(flat)

    worst = {"quartic": 0.0, "parallel": 0.0, "curv_sym": 0.0, "chi_decomp": 0.0,
             "chi_sym": 0.0, "riemann_eigen": 0.0, "norm": 0.0, "trace2": 0.0}

    for pt in points:
        cv, Gl, Gup, Gmix = _tensors_at(G, pt)
        g, ginv = cv.g, cv.g_inv
        gscale = np.max(np.abs(g))

        norm = float(np.einsum("abc,abc->", Gl, Gup))
        worst["norm"] = max(worst["norm"], abs(norm - 35.0 / 12.0))
        t2 = np.einsum("efa,xyb,ex,fy->ab", Gl, Gl, ginv, ginv) - (7.0 / 12.0) * g
        worst["trace2"] = max(worst["trace2"], float(np.max(np.abs(t2))) / gscale)

        chi = 6.0 * np.einsum("eab,cde->abcd", Gmix, Gl)
        chi_scale = np.max(np.abs(chi)) + 1e-300
        target = (
            np.einsum("ab,cd->abcd", g, g)
            + np.einsum("ac,bd->abcd", g, g)
            + np.einsum("ad,bc->abcd", g, g)
        ) / 3.0
        worst["quartic"] = max(worst["quartic"], float(np.max(np.abs(_sym_last3(chi) - target))) / chi_scale)

        dGv = np.array(ev_dG(pt)).reshape(n, n, n, n)
        nabla = (
            dGv
            - np.einsum("eda,ebc->dabc", cv.gamma, Gl)
            - np.einsum("edb,aec->dabc", cv.gamma, Gl)
            - np.einsum("edc,abe->dabc", cv.gamma, Gl)
        )
        scale = np.max(np.abs(dGv)) + np.max(np.abs(cv.gamma)) * np.max(np.abs(Gl)) + 1e-300
        worst["parallel"] = max(worst["parallel"], float(np.max(np.abs(nabla))) / scale)

        R4 = cv.riemann
        Rmix = np.einsum("abce,ed->abcd", R4, ginv)
        T = np.einsum("abcd,efc->abdef", Rmix, Gup)
        Tsym = (
            T + np.transpose(T, (0, 1, 3, 4, 2)) + np.transpose(T, (0, 1, 4, 2, 3))
            + np.transpose(T, (0, 1, 3, 2, 4)) + np.transpose(T, (0, 1, 4, 3, 2))
            + np.transpose(T, (0, 1, 2, 4, 3))
        ) / 6.0
        worst["curv_sym"] = max(worst["curv_sym"], float(np.max(np.abs(Tsym))) / (np.max(np.abs(T)) + 1e-300))

        # full symmetrisation: average slot 0 into each position, then
        # symmetrise the remaining three slots
        chi_s4 = (chi + np.transpose(chi, (1, 0, 2, 3)) + np.transpose(chi, (2, 1, 0, 3))
                  + np.transpose(chi, (3, 1, 2, 0))) / 4.0
        chi_s4 = _sym_last3(chi_s4)
        worst["chi_sym"] = max(
            worst["chi_sym"], float(np.max(np.abs(chi_s4 - target))) / chi_scale
        )
        # chi_a[bc]d and chi_a[bd]c contributions; the last transpose sends
        # [a,b,c,d] to chi[a,d,b,c]
        decomp = (
            chi_s4
            + (1.0 / 3.0)
            * (chi - np.transpose(chi, (0, 2, 1, 3)) + np.transpose(chi, (0, 1, 3, 2))
               - np.transpose(chi, (0, 2, 3, 1)))
        )
        worst["chi_decomp"] = max(worst["chi_decomp"], float(np.max(np.abs(chi - decomp))) / chi_scale)

        F = 0.5 * (np.einsum("abcd->bcad", chi) - np.einsum("acbd->bcad", chi))
        Fup = np.einsum("cx,dy,xypq->cdpq", ginv, ginv, F)
        lhs = np.einsum("abcd,cdpq->abpq", R4, Fup)
        rhs = 1.75 * R4
        worst["riemann_eigen"] = max(
            worst["riemann_eigen"], float(np.max(np.abs(lhs - rhs))) / (np.max(np.abs(rhs)) + 1e-300)
        )

    records = [
        CheckRecord.from_residual("identity_norm_35_12_points", worst["norm"], 1e-10,
                                  len(points), seed),
        CheckRecord.from_residual("identity_trace_7_12_points", worst["trace2"], 1e-10,
                                  len(points), seed),
        CheckRecord.from_residual("identity_quartic_normalisation", worst["quartic"], tol,
                                  len(points), seed, notes="6 G^e_a(b G_cd)e = g_a(b g_cd)"),
        CheckRecord.from_residual("identity_parallel_tensor", worst["parallel"], tol,
                                  len(points), seed, notes="nabla G = 0"),
        CheckRecord.from_residual("identity_curvature_symmetric_part", worst["curv_sym"], tol,
                                  len(points), seed, notes="R_abc^(d G^ef)c = 0"),
        CheckRecord.from_residual("identity_chi_symmetrisation", worst["chi_sym"], tol,
                                  len(points), seed),
        CheckRecord.from_residual("identity_chi_decomposition", worst["chi_decomp"], tol,
                                  len(points), seed),
        CheckRecord.from_residual("identity_riemann_eigen_7_4", worst["riemann_eigen"], tol,
                                  len(points), seed, notes="R_abcd F^cd_pq = (7/4) R_abpq"),
    ]
    return records


# ---------------------------------------------------------------------------
# the second-order operator


@dataclass(frozen=True)
class HorOperatorValue:
    point: Dict[str, float]
    covector: np.ndarray    # G_a^bc nabla_b nabla_c F
    laplacian: float
    gradient: np.ndarray


def hor_operator(
    G: GTensor,
    m: MetricField,
    F: Callable[[Dict[str, float]], Tuple[float, np.ndarray, np.ndarray]],
    point: Dict[str, float],
) -> HorOperatorValue:
    """Apply the operator pair to a scalar-field evaluator.

    F(point) must return (value, gradient, hessian) over the coordinate order
    (y, p, q, r, s); derivatives are coordinate partials, the covariant
    corrections are added here.
    """
    _, grad, hess = F(point)
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    _, _, g_inv, gamma = m.christoffel_at(point)
    Gl = G.lower_at(point)
    Gmixed = np.einsum("abc,bx,cy->axy", Gl, g_inv, g_inv)
    cov_hess = hess - np.einsum("dbc,d->bc", gamma, grad)
    v = np.einsum("abc,bc->a", Gmixed, cov_hess)
    lap = float(np.einsum("bc,bc->", g_inv, cov_hess))
    return HorOperatorValue(point, v, lap, grad)


def mu_lambda(lam: float, scalar_curvature: float) -> float:
    """The eigenvalue relation mu = 6 lambda^2 + R/10."""
    return 6.0 * lam * lam + scalar_curvature / 10.0


def expansion_check(
    G: GTensor,
    m: MetricField,
    n_fields: int = 20,
    points: Optional[Sequence[Dict[str, float]]] = None,
    count: int = 10,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-8,
) -> List[CheckRecord]:
    """Printed coordinate rows of the operator vs the tensorial value, for
    random quadratic test fields.

    The catalogued rows use the coordinate second partials plus one gradient
    term per row; the coefficient tagged `lambda:` stands for the equation's
    right-hand side evaluated at the point (the only sensible reading of the
    derivative-of-top-coordinate shorthand, and the one the tensorial
    operator confirms).
    """
    ode = m.ode
    if points is None:
        points = sample_points(ode, count, seed)
    rows = catalog.for_ode("conics5")["operator_rows"]
    coords = ode.coords
    rng = np.random.default_rng(seed)

    row_names = {c: f"operator_row_{c}" for c in coords}
    worst = {c: 0.0 for c in coords}

    # one batched evaluator: equation rhs followed by every row coefficient
    keys = []
    exprs = [ode.rhs]
    lam_marks = {}
    for c, table in rows.items():
        for pair, text in table.items():
            if text.startswith("lambda:"):
                lam_marks[(c, pair)] = float(text.split(":")[1])
            else:
                keys.append((c, pair))
                exprs.append(catalog.expr(text))
    ev = Evaluator(exprs)

    for pt in points:
        vals = ev(pt)
        lam_val = vals[0]
        coeff_val = dict(zip(keys, vals[1:]))
        for key, factor in lam_marks.items():
            coeff_val[key] = factor * lam_val

        # per-point tensors, shared by all test fields
        _, _, g_inv, gamma = m.christoffel_at(pt)
        Gl = G.lower_at(pt)
        Gmixed = np.einsum("abc,bx,cy->axy", Gl, g_inv, g_inv)

        for _ in range(n_fields):
            H = rng.standard_normal((5, 5))
            H = (H + H.T) / 2.0
            b = rng.standard_normal(5)
            cov_hess = H - np.einsum("dbc,d->bc", gamma, b)
            v = np.einsum("abc,bc->a", Gmixed, cov_hess)
            scale = np.max(np.abs(v)) + 1e-300
            for ci, c in enumerate(coords):
                printed = -b[ci]
                for pair in rows[c]:
                    i, j = coords.index(pair[0]), coords.index(pair[1])
                    printed += coeff_val[(c, pair)] * H[i, j]
                worst[c] = max(worst[c], abs(printed - v[ci]) / scale)

    return [
        CheckRecord.from_residual(
            row_names[c], worst[c], tol, len(points), seed,
            notes="top-coordinate-derivative coefficient read as the equation rhs"
            if c == "y" else "",
        )
        for c in coords
    ]
