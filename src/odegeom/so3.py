"""The totally symmetric structure tensor and its identity suite.

The tensor is built once and exactly: moduli-space frame indices are
symmetric 4-index spinors over a 2-dimensional space, and the structure
tensor is the six-epsilon contraction of three such blocks, evaluated
exactly over the nonzero spinor components (on integer numerators over one
common denominator, with `Fraction`s made of the results only), then
symmetrised.  Its frame components are rational constants; coordinate
components follow by coframe substitution on first use
(`GTensor.coord_lower`), since only the symbolic checks read them: the
numeric checks and the operator pair contract the frame components with
the coframe of the metric's forward-mode pass (`GTensor.lower_at`).
Everything the tensor is supposed to satisfy (trace-freeness, the quartic
normalisation, parallelism, the curvature contractions, and the printed
coordinate expansion of the associated second-order operator) is
checked numerically at sample points against the curvature machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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
    mul,
)
from .geom import _K_LOWER as _K_PAIRING, MetricField, _point_max, curvature, sample_points
from .pentad import PentadData
from .report import CheckRecord, check_identities


class So3Error(Exception):
    pass


# ---------------------------------------------------------------------------
# exact spinor block: 2-dim space, basis dyad (o, i), eps(o, i) = 1

_EPS = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))


def _sym_power(a: Sequence[Fraction], b: Sequence[Fraction], m: int) -> dict:
    """Symmetrised product of m copies of the spinor a and 4 - m copies of
    b (weight-one symmetrisation, factor 1/4!), as a sparse map from index
    tuples to Fractions, for a and b with one nonzero component each, at
    different indices ia and ib.

    A permutation's term is nonzero only at a tuple holding ia in m slots
    and ib in the others, and only if it sends the m copies of a to the ia
    slots: m!(4-m)! of the 4! permutations, each a[ia]^m b[ib]^(4-m)."""
    ia = 0 if a[0] else 1
    ib = 0 if b[0] else 1
    value = a[ia] ** m * b[ib] ** (4 - m) * Fraction(math.factorial(m) * math.factorial(4 - m), 24)
    return {idx: value for idx in itertools.product((0, 1), repeat=4) if idx.count(ia) == m}


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


# the basis dyad with lower indices
_O_LO = (Fraction(1), Fraction(0))
_I_LO = (Fraction(0), Fraction(1))


def _raise_idx(v: Sequence[Fraction]) -> tuple:
    return tuple(sum(_EPS[a][b] * v[b] for b in range(2)) for a in range(2))


def _basis_spinors() -> Tuple[List[dict], List[dict]]:
    """(e_lo, f_hi): the symmetrised products of m o's and 4 - m i's,
    m = 0..4, with lower and with raised indices."""
    o_hi, i_hi = _raise_idx(_O_LO), _raise_idx(_I_LO)
    e_lo = [_sym_power(_O_LO, _I_LO, m) for m in range(5)]
    f_hi = [_sym_power(o_hi, i_hi, m) for m in range(5)]
    return e_lo, f_hi


def _spinor_frame() -> List[dict]:
    """The five frame vectors as symmetric 4-spinors: sparse maps from index
    tuples to Fractions, dual to the symmetrised basis under the pairing."""
    e_lo, f_hi = _basis_spinors()

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
    return frame


def _spinor_contractions() -> Tuple[int, List[List[int]], List[List[List[int]]]]:
    """The induced constant metric and the unsymmetrised structure tensor
    on integer numerators: (den, khat, ghat), with den the common
    denominator of the frame vectors' components, khat's numerators over
    den^2 and ghat's over den^3.  Integers keep the contractions exact and
    cheap; `Fraction`s are made of the results only."""
    frame = _spinor_frame()
    den = math.lcm(*(v.denominator for vec in frame for v in vec.values()))
    frame = [{idx: v.numerator * (den // v.denominator) for idx, v in vec.items()}
             for vec in frame]

    # eps(X, 1-X) is +1 for X = 0 and -1 for X = 1, and every other pairing
    # vanishes, so only the nonzero entries of the left frame are visited

    # induced metric on frame indices: four eps pairings
    khat = [[0] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(5):
            for idx, vi in frame[i].items():
                vj = frame[j].get(tuple(1 - a for a in idx))
                if vj is not None:
                    khat[i][j] += -vi * vj if sum(idx) % 2 else vi * vj

    # structure tensor: eps pairings (A,E)(B,F) between slots 1-2,
    # (G,P)(H,Q) between 2-3, (C,R)(D,S) between 1-3.  The nonzero entries
    # of frame i and frame j fix E, F and every index of the third slot.
    ghat = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    for i in range(5):
        for j in range(5):
            for k in range(5):
                total = 0
                for (A, B, C, D), vi in frame[i].items():
                    for (E, F, G, H), vj in frame[j].items():
                        if E != 1 - A or F != 1 - B:
                            continue
                        vk = frame[k].get((1 - G, 1 - H, 1 - C, 1 - D))
                        if vk is None:
                            continue
                        term = vi * vj * vk
                        total += -term if (A + B + G + H + C + D) % 2 else term
                ghat[i][j][k] = total
    return den, khat, ghat


def _spinor_frame_data():
    """The induced constant metric and the structure-tensor frame
    components of the spinor frame, as `Fraction`s: (khat, ghat, ghat_sym),
    ghat_sym the full symmetrisation of ghat over the three moduli slots.
    Computed exactly, from `_spinor_contractions`."""
    den, khat, ghat = _spinor_contractions()
    return (
        [[Fraction(v, den ** 2) for v in row] for row in khat],
        [[[Fraction(v, den ** 3) for v in row] for row in blk] for blk in ghat],
        [[[Fraction(sum(ghat[p][q][r] for p, q, r in itertools.permutations((i, j, k))),
                    6 * den ** 3)
           for k in range(5)] for j in range(5)] for i in range(5)],
    )


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

    @cached_property
    def coord_lower(self) -> tuple:
        """5x5x5 Exprs: G_abc over the moduli coordinates, by coframe
        substitution.  Built on first use: only the symbolic so3 checks read
        it, the operator pair takes the numeric `lower_at`."""
        C = self.m.pd.coframe_rows
        n = 5
        coord = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    terms = []
                    for i in range(n):
                        for j in range(n):
                            for k in range(n):
                                v = self.ghat[i][j][k]
                                if v == 0:
                                    continue
                                terms.append(mul(Const(v), C[i][a], C[j][b], C[k][c]))
                    coord[a][b][c] = add(*terms) if terms else ZERO
        return tuple(tuple(tuple(row) for row in blk) for blk in coord)

    @cached_property
    def ghat_np(self) -> np.ndarray:
        return np.array([[[float(v) for v in row] for row in blk] for blk in self.ghat])

    def lower_at(self, points: Sequence[Dict[str, float]]) -> np.ndarray:
        """G_abc at a batch of points (leading point axis), from the frame
        components and the coframe of the metric's `frame_at` pass."""
        C = self.m.frame_at(points).C
        return np.einsum("ijk,pia,pjb,pkc->pabc", self.ghat_np, C, C, C)

    def derivative_at(self, points: Sequence[Dict[str, float]]) -> np.ndarray:
        """dG[k, d, a, b, c] = d_d G_abc at a batch of points, by the product
        rule on the coframe's first-order jets from the metric's `frame_at`
        pass.  Ghat is totally symmetric, so the terms with d_d C in the
        second and third slot are the first one with its slots swapped."""
        fr = self.m.frame_at(points)
        CC = np.einsum("ijk,pjb,pkc->pibc", self.ghat_np, fr.C, fr.C)
        X = np.einsum("pdia,pibc->pdabc", fr.dC, CC)
        return X + np.transpose(X, (0, 1, 3, 2, 4)) + np.transpose(X, (0, 1, 4, 3, 2))


def build_G(pd: PentadData, m: MetricField) -> GTensor:
    """Assemble the structure tensor for the conics frame."""
    if pd.ode.name != "conics5":
        raise So3Error("the parallel structure tensor is built on the conics5 frame")
    khat, ghat_raw, ghat = spinor_frame_data()

    khat_ok = all(
        khat[i][j] == _K_PAIRING.get((i, j), Fraction(0)) for i in range(5) for j in range(5)
    )
    # exactly symmetric if and only if it equals its full symmetrisation
    raw_sym = ghat_raw == ghat

    return GTensor(
        m=m,
        ghat=tuple(tuple(tuple(row) for row in blk) for blk in ghat),
        ghat_raw_symmetric=raw_sym,
        khat_matches_pairing=khat_ok,
    )


def _frame_contractions(gh: Sequence, kinv: List[List[Fraction]]
                        ) -> Tuple[List[Fraction], List[List[Fraction]], Fraction]:
    """The trace k^ij G_ijk (5,), the quadratic trace G_efa G^ef_b (5 x 5)
    and the norm G_abc G^abc of the frame components, exactly.

    The sums run over the nonzero entries of the inverse pairing kinv only:
    it is anti-diagonal, so each index has one partner.
    """
    pairs = [(i, j, w) for i, row in enumerate(kinv) for j, w in enumerate(row) if w != 0]
    trace = [sum((w * gh[i][j][c] for i, j, w in pairs), Fraction(0)) for c in range(5)]
    quadratic = [[sum((gh[e][f][a] * gh[e2][f2][b] * we * wf
                       for e, e2, we in pairs for f, f2, wf in pairs), Fraction(0))
                  for b in range(5)] for a in range(5)]
    full = sum((gh[a][b][c] * gh[a2][b2][c2] * wa * wb * wc
                for a, a2, wa in pairs for b, b2, wb in pairs for c, c2, wc in pairs), Fraction(0))
    return trace, quadratic, full


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
    trace, quadratic, full = _frame_contractions(G.ghat, _frac_inv(k))
    checks.append(CheckRecord(
        "gtensor_trace_free_exact",
        "pass" if all(t == 0 for t in trace) else "fail",
        0.0, 0.0, 1, DEFAULT_SEED, "k^ij Ghat_ijk = 0 exactly"))

    # Ghat_efa Ghat^ef_b = (7/12) k_ab
    gap = max(abs(q - Fraction(7, 12) * kk)
              for q_row, k_row in zip(quadratic, k) for q, kk in zip(q_row, k_row))
    checks.append(CheckRecord(
        "gtensor_quadratic_trace_7_12",
        "pass" if gap == 0 else "fail", float(gap), 1e-10, 1, DEFAULT_SEED,
        "G_efa G^ef_b = (7/12) g_ab exactly on the frame"))

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


def _perm(T: np.ndarray, *axes: int) -> np.ndarray:
    """T with its axes after the leading point axis permuted as `axes`."""
    return np.transpose(T, (0,) + tuple(a + 1 for a in axes))


def _sym_last3(T: np.ndarray) -> np.ndarray:
    return (
        T + _perm(T, 0, 1, 3, 2) + _perm(T, 0, 2, 1, 3)
        + _perm(T, 0, 2, 3, 1) + _perm(T, 0, 3, 1, 2)
        + _perm(T, 0, 3, 2, 1)
    ) / 6.0


def g_identities(
    G: GTensor,
    points: Optional[Sequence[Dict[str, float]]] = None,
    count: int = 10,
    seed: int = DEFAULT_SEED,
    tol: float = 1e-8,
) -> List[CheckRecord]:
    """The compatibility identities tying the structure tensor to the metric
    and curvature, at random points, each an array expression over the
    leading point axis."""
    m = G.m
    if points is None:
        points = sample_points(m.ode, count, seed)

    cv = curvature(m, points)
    g, ginv, R4 = cv.g, cv.g_inv, cv.riemann
    Gl, dG = G.lower_at(points), G.derivative_at(points)
    Gup = np.einsum("kax,kby,kcz,kxyz->kabc", ginv, ginv, ginv, Gl)
    Gmix = np.einsum("kef,kfab->keab", ginv, Gl)

    norm = np.abs(np.einsum("kabc,kabc->k", Gl, Gup) - 35.0 / 12.0)
    t2 = np.einsum("kefa,kxyb,kex,kfy->kab", Gl, Gl, ginv, ginv) - (7.0 / 12.0) * g
    trace2 = np.abs(t2) / _point_max(g)

    chi = 6.0 * np.einsum("keab,kcde->kabcd", Gmix, Gl)
    chi_scale = _point_max(chi) + 1e-300
    target = (
        np.einsum("kab,kcd->kabcd", g, g)
        + np.einsum("kac,kbd->kabcd", g, g)
        + np.einsum("kad,kbc->kabcd", g, g)
    ) / 3.0
    quartic = np.abs(_sym_last3(chi) - target) / chi_scale

    nabla = (
        dG
        - np.einsum("keda,kebc->kdabc", cv.gamma, Gl)
        - np.einsum("kedb,kaec->kdabc", cv.gamma, Gl)
        - np.einsum("kedc,kabe->kdabc", cv.gamma, Gl)
    )
    scale = _point_max(dG) + _point_max(cv.gamma)[..., None] * _point_max(Gl)[..., None] + 1e-300
    parallel = np.abs(nabla) / scale

    Rmix = np.einsum("kabce,ked->kabcd", R4, ginv)
    T = np.einsum("kabcd,kefc->kabdef", Rmix, Gup)
    Tsym = (
        T + _perm(T, 0, 1, 3, 4, 2) + _perm(T, 0, 1, 4, 2, 3)
        + _perm(T, 0, 1, 3, 2, 4) + _perm(T, 0, 1, 4, 3, 2)
        + _perm(T, 0, 1, 2, 4, 3)
    ) / 6.0
    curv_sym = np.abs(Tsym) / (_point_max(T) + 1e-300)

    # full symmetrisation: average slot 0 into each position, then
    # symmetrise the remaining three slots
    chi_s4 = _sym_last3((chi + _perm(chi, 1, 0, 2, 3) + _perm(chi, 2, 1, 0, 3)
                         + _perm(chi, 3, 1, 2, 0)) / 4.0)
    chi_sym = np.abs(chi_s4 - target) / chi_scale
    # chi_a[bc]d and chi_a[bd]c contributions; the last permutation sends
    # [a,b,c,d] to chi[a,d,b,c]
    decomp = (
        chi_s4
        + (1.0 / 3.0)
        * (chi - _perm(chi, 0, 2, 1, 3) + _perm(chi, 0, 1, 3, 2) - _perm(chi, 0, 2, 3, 1))
    )
    chi_decomp = np.abs(chi - decomp) / chi_scale

    F = 0.5 * (np.einsum("kabcd->kbcad", chi) - np.einsum("kacbd->kbcad", chi))
    Fup = np.einsum("kcx,kdy,kxypq->kcdpq", ginv, ginv, F)
    lhs = np.einsum("kabcd,kcdpq->kabpq", R4, Fup)
    rhs = 1.75 * R4
    riemann_eigen = np.abs(lhs - rhs) / (_point_max(rhs) + 1e-300)

    rows = (
        ("identity_norm_35_12_points", norm, 1e-10, ""),
        ("identity_trace_7_12_points", trace2, 1e-10, ""),
        ("identity_quartic_normalisation", quartic, tol, "6 G^e_a(b G_cd)e = g_a(b g_cd)"),
        ("identity_parallel_tensor", parallel, tol, "nabla G = 0"),
        ("identity_curvature_symmetric_part", curv_sym, tol, "R_abc^(d G^ef)c = 0"),
        ("identity_chi_symmetrisation", chi_sym, tol, ""),
        ("identity_chi_decomposition", chi_decomp, tol, ""),
        ("identity_riemann_eigen_7_4", riemann_eigen, tol, "R_abcd F^cd_pq = (7/4) R_abpq"),
    )
    return [CheckRecord.from_residual(name, residual, row_tol, len(points), seed, notes=notes,
                                      points=points)
            for name, residual, row_tol, notes in rows]


# ---------------------------------------------------------------------------
# the second-order operator


@dataclass(frozen=True)
class HorOperatorValue:
    covector: np.ndarray    # G_a^bc nabla_b nabla_c F
    laplacian: float
    gradient: np.ndarray


def hor_operator(
    grad: np.ndarray,
    hess: np.ndarray,
    g_inv: np.ndarray,
    gamma: np.ndarray,
    G_lower: np.ndarray,
) -> HorOperatorValue:
    """Apply the operator pair to a scalar field given by its gradient and
    Hessian at a point.

    grad (5,) and hess (5, 5) are coordinate partials over (y, p, q, r, s);
    g_inv, gamma (gamma[d, a, b] = Gamma^d_ab) and G_lower are the point's
    geometry (`MetricField.christoffel_at`, `GTensor.lower_at`), and the
    covariant corrections are added here.
    """
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    Gmixed = np.einsum("abc,bx,cy->axy", G_lower, g_inv, g_inv)
    cov_hess = hess - np.einsum("dbc,d->bc", gamma, grad)
    v = np.einsum("abc,bc->a", Gmixed, cov_hess)
    lap = float(np.einsum("bc,bc->", g_inv, cov_hess))
    return HorOperatorValue(v, lap, grad)


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
    vals = Evaluator(exprs).eval_points(points)
    coeff = dict(zip(keys, vals[1:]))
    for key, factor in lam_marks.items():
        coeff[key] = factor * vals[0]

    # the test fields of each point: a symmetric Hessian H and a gradient b
    # per field, from 25 + 5 consecutive draws of one stream
    draws = np.random.default_rng(seed).standard_normal((len(points), n_fields, 30))
    H = draws[..., :25].reshape(len(points), n_fields, 5, 5)
    H = (H + np.swapaxes(H, 2, 3)) / 2.0
    b = draws[..., 25:]

    _, _, g_inv, gamma = m.christoffel_at(points)
    Gmixed = np.einsum("kabc,kbx,kcy->kaxy", G.lower_at(points), g_inv, g_inv)
    cov_hess = H - np.einsum("kdbc,kfd->kfbc", gamma, b)
    v = np.einsum("kabc,kfbc->kfa", Gmixed, cov_hess)
    scale = np.max(np.abs(v), axis=2) + 1e-300

    records = []
    for ci, c in enumerate(coords):
        printed = -b[..., ci]
        for pair in rows[c]:
            i, j = coords.index(pair[0]), coords.index(pair[1])
            printed = printed + coeff[(c, pair)][:, None] * H[..., i, j]
        records.append(CheckRecord.from_residual(
            f"operator_row_{c}", np.abs(printed - v[..., ci]) / scale, tol, len(points), seed,
            notes="top-coordinate-derivative coefficient read as the equation rhs"
            if c == "y" else "", points=points))
    return records
