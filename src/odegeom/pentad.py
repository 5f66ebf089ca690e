"""Frame construction on the moduli space of a 4th/5th-order ODE.

Starting from d(y) and differentiating along the ODE, the coordinate
differentials expand in the dyad-induced basis e^i with coefficient functions
P, Q, A..H.  The top slot of the expansion of the highest differential is
pinned to (n-1)! P^(n-1) by the dyad normalisation; the next-to-top slots of
the lower rows are likewise (n-1)! P^(n-2) and so on.  Matching coefficients
in the final differentiation step yields, from the top slot down:

  * a log-derivative equation for P  (D(P)/P = Lambda_top / c, c = 10 or 6),
  * a linear algebraic equation for Q,
  * residual identities that hold exactly when the ODE carries the structure.

P is found with a product ansatz over {q, r, s, x*p - y} with rational
exponents fitted numerically and then certified symbolically.  Q is solved
linearly.  The residual identities are certified by randomized sampling and
reported, not fatal: their failure signals an ODE without the structure.

The rows (d(y) and its first n - 1 shifts) come from one function,
`_frame_rows`, over two kinds of numbers: expressions, with the total
derivative D as the derivation, and `Taylor` numbers at points, with the
series derivative.  The solve certifies on numbers.  At its sample points
one series pass (`Evaluator.eval_points` on `Taylor` numbers, seeded with
`jet.flow_series`) gives P and Q to degree n - 1 along the solutions;
`_frame_rows` and `_dyad_shift` on those numbers give row k to degree
n - k, the last shift to degree 0, and so the n equations at the points
(`frame_values`).  No expression of a row with the solved Q is built for
that.  The rows as expressions feed the coefficient letters (order 5) and
the coframe program: `PentadData` builds them on first read, and the
equations' values on first read too; the pentad suite reports each as a row
against 0 (`report.values_check`).  The Q solve stays symbolic: the rows at
the constant Q = 0 and Q = 1 and one slot of their last shifts.

Both orders have one frame-at-points path: `PentadData.coframe_at` gets
the coframe C and its partials exactly from one forward-mode pass of the
coframe program on `expr.Jet1` numbers, and `paired_at` turns a constant
pairing M into C^T M C and its partials: at order 5 the metric (geom), at
order 4 the two-form omega = e^1 ^ e^4 - 3 e^2 ^ e^3 (`symplectic_at`).
Its closure and base-point independence (d_x omega + L_V omega = 0, the
expression of the metric's Killing row, `along_flow`) are checked on
those values; no entry of omega is an expression.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import (
    DEFAULT_REL_TOL,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Const,
    EvalError,
    Evaluator,
    Expr,
    InputError,
    ONE,
    Taylor,
    ZERO,
    add,
    diff,
    div,
    equiv,
    free_variables,
    mul,
    neg,
    pow_,
    series_derivative,
    var,
)
from .jet import JetOde, flow_series, prolongation, total_derivative

# log-derivative constants: c * D(P) = P * Lambda_top
_LOG_DERIV_C = {5: 10, 4: 6}

# the coefficient letters: (row, slot) in the rows followed by the last dyad
# shift, so at order 4, E..H are slots of the last shift
_LETTERS = {
    5: {"A": (3, 0), "B": (3, 1), "C": (3, 2),
        "E": (4, 0), "F": (4, 1), "G": (4, 2), "H": (4, 3)},
    4: {"A": (3, 0), "B": (3, 1), "C": (3, 2), "D": (3, 3),
        "E": (4, 0), "F": (4, 1), "G": (4, 2), "H": (4, 3)},
}


class PentadError(InputError):
    pass


@dataclass(frozen=True, eq=False)
class FrameValues:
    """The frame at sample points, from one series pass along the flow."""

    shifts: np.ndarray      # (n + 1, n, points): d(y), its n - 1 shifts, the last shift
    equations: np.ndarray   # (n, points): the coefficient equations (`_equation`)

    @property
    def lower(self) -> np.ndarray:
        """L[a][i] at the points: the rows, the values of `PentadData.lower`."""
        return self.shifts[:-1]

    def coefficients(self) -> dict:
        """Letters A..H -> their values at the points."""
        return {name: self.shifts[a, i] for name, (a, i) in _LETTERS[self.shifts.shape[1]].items()}

    def coframe(self) -> np.ndarray:
        """C[i][a] at the points: L^(-1) by forward substitution, with no
        LAPACK call."""
        L = self.lower
        C = np.zeros_like(L)
        for i in range(len(L)):
            for a in range(i + 1):
                acc = 1.0 if a == i else -sum(L[i, j] * C[j, a] for j in range(a, i))
                C[i, a] = acc / L[i, i]
        return C


@dataclass(frozen=True, eq=False)
class PentadData:
    """Solved frame data: P and Q, the sample points, tolerance and seed
    that every sampled row of a report reads, and what is built from P and
    Q on first read: the change of basis between coordinate differentials
    and the dyad-induced basis as expressions, and its values and the
    coefficient equations at the sample points; and the coframe with its
    partials at any batch of points (`coframe_at`)."""

    ode: JetOde
    P: Expr
    Q: Expr
    points: tuple   # the solve's sample points
    tol: float
    seed: int

    @property
    def n(self) -> int:
        return self.ode.order

    @cached_property
    def lower(self) -> tuple:
        """L[a][i]: d(coord_a) = sum_i L[a][i] e^i, as expressions."""
        return tuple(map(tuple, _frame_rows(self.P, self.Q, self.n, _derivation(self.ode))))

    @cached_property
    def coframe_rows(self) -> tuple:
        """C[i][a]: e^i = sum_a C[i][a] d(coord_a), as expressions."""
        return _invert_lower(self.lower)

    @cached_property
    def coframe_program(self) -> Evaluator:
        """The n * n coframe entries C[i][a], row-major, compiled once: the
        program of every forward-mode pass at points."""
        return Evaluator([e for row in self.coframe_rows for e in row])

    def coframe_at(self, points: Sequence[dict]) -> tuple:
        """(C, dC, dxC) at a batch of points, leading axis the point: the
        coframe C[k, i, a], dC[k, c, i, a] = d_c C_ia over the coordinates
        and dxC[k, i, a] = d_x C_ia at fixed coordinates, None unless the
        coframe holds x.  One forward-mode pass over the coframe program
        gives them: each point once per coordinate, seeded with the unit
        tangent, and once more along x when the coframe holds x.  Each call
        is a pass; the metric keeps the one over its seeded stream."""
        n, count = self.n, len(points)
        tangents = [{c: 1.0} for c in self.ode.coords]
        if any("x" in free_variables(e) for e in self.coframe_program.exprs):
            tangents.append({"x": 1.0})
        d = len(tangents)
        jets = self.coframe_program.eval_points([pt for pt in points for _ in range(d)],
                                                tangents * count)
        # rows are the entries C[i][a], columns the points, tangent-minor
        C = jets.val.reshape(n, n, count, d)[..., 0].transpose(2, 0, 1)
        der = jets.der.reshape(n, n, count, d).transpose(2, 3, 0, 1)
        return C, der[:, :n], der[:, n] if d > n else None

    @cached_property
    def coefficients(self) -> dict:
        """Letters A..H -> Expr, at order 5, where all are slots of the rows;
        at order 4, E..H are slots of the last shift, which only `values`
        holds."""
        if self.n != 5:
            raise PentadError("the symbolic coefficient letters are built at order 5")
        return {name: self.lower[a][i] for name, (a, i) in _LETTERS[5].items()}

    @cached_property
    def values(self) -> FrameValues:
        """The frame and the coefficient equations at the sample points."""
        return frame_values(self.ode, self.P, self.Q, self.points)

    @property
    def residual_names(self) -> tuple:
        """The names of the rows of `values.equations`: the residual
        identities, then the Q and P equations."""
        return tuple("residual_identity_%d" % (j + 1) for j in range(self.n - 2)) + (
            "q_equation", "p_equation")


def _derivation(ode: JetOde) -> Callable:
    """The total derivative D of expressions, the derivation of the rows."""
    return partial(total_derivative, ode=ode)


def _dyad_shift(row: Sequence, P, Q, derive: Callable) -> list:
    """One application of d/dx to a covector written in the e-basis, whose
    coefficients `derive` differentiates: expressions with D, `Taylor`
    numbers with `series_derivative`.

    (e^i)' = (i-1) Q e^(i-1) + (n-i) P e^(i+1), so for row = sum c_i e^i the
    new coefficients are D(c_j) + c_(j+1) * j * Q + c_(j-1) * (n-j+1) * P
    (1-based j).
    """
    return [_shift_slot(row, P, Q, j, derive) for j in range(1, len(row) + 1)]


def _shift_slot(row: Sequence, P, Q, j: int, derive: Callable):
    """Slot j (1-based) of `_dyad_shift`, built alone."""
    n = len(row)
    slot = derive(row[j - 1])
    if j < n:
        slot = slot + j * Q * row[j]
    if j > 1:
        slot = slot + (n - j + 1) * P * row[j - 2]
    return slot


def _frame_rows(P, Q, n: int, derive: Callable) -> list:
    """Rows of the lower-triangular change of basis: d(y) = e^1 and its
    n - 1 dyad shifts, as expressions for expressions P and Q, as numbers
    for numbers."""
    rows = [[ONE] + [ZERO] * (n - 1) if isinstance(P, Expr) else [1.0] + [0.0] * (n - 1)]
    for _ in range(n - 1):
        rows.append(_dyad_shift(rows[-1], P, Q, derive))
    return rows


def _equation(rows: Sequence[Sequence[Expr]], P: Expr, Q: Expr,
              lam_partials: Sequence[Expr], j: int, derive: Callable) -> Expr:
    """Coefficient equation j (0-based) of the final differentiation,
    lhs_j - sum_k Lambda_k rows[k][j], as an expression; only slot j of the
    last dyad shift is built."""
    rhs = add(*[mul(lam, row[j]) for lam, row in zip(lam_partials, rows)])
    return add(_shift_slot(rows[-1], P, Q, j + 1, derive), neg(rhs))


def frame_values(ode: JetOde, P: Expr, Q: Expr, points: Sequence[dict]) -> FrameValues:
    """The rows, the last dyad shift and the n coefficient equations
    (`_equation`) at the points, as numbers.

    One series pass over P, Q and the partials of the rhs, seeded with the
    flow's series to degree n - 1, gives P and Q as `Taylor` numbers;
    `_frame_rows` and `_dyad_shift` on them give the rows and the last
    shift, and equation j is slot j of that shift minus
    sum_k Lambda_k rows[k][j].  No expression of a row is built."""
    n = ode.order
    lam_partials = [diff(ode.rhs, c) for c in ode.coords]
    series = Evaluator([P, Q] + lam_partials).eval_points(
        points, flow_series(ode, points, n - 1), series=True)
    P_t, Q_t = (Taylor(*(c[k] for c in series.coef)) for k in (0, 1))
    rows = _frame_rows(P_t, Q_t, n, series_derivative)
    rows.append(_dyad_shift(rows[-1], P_t, Q_t, series_derivative))
    shifts = np.array([[np.broadcast_to(e.val if type(e) is Taylor else e, len(points))
                        for e in row] for row in rows])
    lam = series.val[2:]
    return FrameValues(shifts, shifts[n] - (lam[:, None, :] * shifts[:n]).sum(axis=0))


def _ansatz_basis(ode: JetOde) -> list:
    basis = [("q", var("q")), ("r", var("r"))]
    if ode.order == 5:
        basis.append(("s", var("s")))
    basis.append(("W", add(mul(var("x"), var("p")), neg(var("y")))))
    return basis


def _fit_exponents(
    ode: JetOde,
    target: Expr,
    c: int,
    samples: int,
    tol: float,
    seed: int,
) -> Optional[dict]:
    """Match D(P)/P = target with P = prod u_k^(alpha_k), rational alpha_k.

    Tries subsets of the ansatz basis smallest-first (so the s^2/r equation
    picks r^(1/3) rather than the flow-equivalent s^(1/5)), fits exponents by
    least squares at random points, snaps them to small rationals, and keeps
    the first candidate whose defining equation passes the symbolic
    certificate; candidates that cannot even be evaluated on the domain are
    rejected the same way.
    """
    basis = _ansatz_basis(ode)
    log_derivs = [(name, div(total_derivative(u, ode), u)) for name, u in basis]
    points = ode.domain.draw(12, 7)

    ev = Evaluator([target] + [ld for _, ld in log_derivs])
    vals = ev.eval_points(points)
    t = vals[0]
    M = vals[1:].T.copy()

    def certified(exponents: dict) -> bool:
        named = dict(basis)
        P = mul(*[pow_(named[k], fr) for k, fr in exponents.items()]) if exponents else ONE
        eqn = add(mul(Const(c), total_derivative(P, ode)),
                  neg(mul(P, diff(ode.rhs, ode.coords[-1]))))
        try:
            return equiv(eqn, ZERO, ode.domain, n=samples, tol=tol, seed=seed).passed
        except EvalError:
            return False

    if np.max(np.abs(t)) < 1e-13 and certified({}):
        return {}

    for size in range(1, len(basis) + 1):
        for combo in itertools.combinations(range(len(basis)), size):
            sub = M[:, list(combo)]
            alpha, res, rank, _ = np.linalg.lstsq(sub, t, rcond=None)
            if rank < size:
                continue
            fit = sub @ alpha - t
            if np.max(np.abs(fit)) > 1e-8 * (1.0 + np.max(np.abs(t))):
                continue
            snapped = [Fraction(a).limit_denominator(48) for a in alpha]
            if any(abs(float(fr) - a) > 1e-6 for fr, a in zip(snapped, alpha)):
                continue
            exponents = {}
            for idx, fr in zip(combo, snapped):
                if fr != 0:
                    exponents[basis[idx][0]] = fr
            if certified(exponents):
                return exponents
    return None


def solve_pentad(ode: JetOde, samples: int = DEFAULT_SAMPLES, tol: float = DEFAULT_REL_TOL,
                 seed: int = DEFAULT_SEED) -> PentadData:
    """Solve for P and Q; the frame and the coefficient equations at
    `samples` points are built from them on first read."""
    n = ode.order
    c = _LOG_DERIV_C[n]
    top = ode.coords[-1]
    target = div(diff(ode.rhs, top), Const(c))

    exponents = _fit_exponents(ode, target, c, samples, tol, seed)
    if exponents is None:
        raise PentadError(
            f"no rational-exponent product ansatz matches D(P)/P for {ode.name}"
        )
    basis = dict(_ansatz_basis(ode))
    P = mul(*[pow_(basis[name], fr) for name, fr in exponents.items()]) if exponents else ONE

    # Q from the next-to-top slot: that equation is affine in Q with no D(Q),
    # so two constant substitutions expose the pivot and the offset.  Only
    # that slot of the last shift is built.
    D = _derivation(ode)
    lam_partials = [diff(ode.rhs, c) for c in ode.coords]
    q_slot = n - 2  # 0-based index of e^(n-1)
    eq0, eq1 = (_equation(_frame_rows(P, q, n, D), P, q, lam_partials, q_slot, D)
                for q in (ZERO, ONE))
    pivot = add(eq1, neg(eq0))
    if equiv(pivot, ZERO, ode.domain, n=samples, tol=tol, seed=seed).passed:
        raise PentadError(f"zero pivot in the Q equation for {ode.name}")
    Q = div(neg(eq0), pivot)
    return PentadData(ode, P, Q, tuple(ode.domain.draw(samples, seed)), tol, seed)


def _invert_lower(rows: Sequence[Sequence[Expr]]) -> tuple:
    """Symbolic forward substitution: C = L^(-1) for lower-triangular L."""
    n = len(rows)
    C = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        inv_diag = ONE if rows[i][i] is ONE else pow_(rows[i][i], Fraction(-1))
        for a in range(i + 1):
            if a == i:
                acc = ONE
            else:
                acc = neg(add(*[mul(rows[i][j], C[j][a]) for j in range(a, i)]))
            C[i][a] = acc if inv_diag is ONE else mul(acc, inv_diag)
    return tuple(tuple(r) for r in C)


# ---------------------------------------------------------------------------
# constant pairings of the coframe at points


def paired_at(coframe: tuple, M: np.ndarray, combine=np.add) -> tuple:
    """(t, dt, dxt) for t = C^T M C at the points of a `coframe_at` batch,
    M a constant pairing, symmetric (combine np.add) or antisymmetric
    (np.subtract): t[k, a, b], dt[k, c, a, b] = (d_c C^T M C + C^T M d_c C)_ab
    and dxt[k, a, b] = d_x t_ab, None when dxC is.  Each combines X and its
    transpose (X = C^T M C, d C^T M C), so t is exactly symmetric or
    antisymmetric."""
    C, dC, dxC = coframe
    MC = M @ C
    X = np.swapaxes(C, 1, 2) @ MC
    t = 0.5 * combine(X, np.swapaxes(X, 1, 2))
    X = np.swapaxes(dC, 2, 3) @ MC[:, None]
    dt = combine(X, np.swapaxes(X, 2, 3))
    if dxC is None:
        return t, dt, None
    X = np.swapaxes(dxC, 1, 2) @ MC
    return t, dt, combine(X, np.swapaxes(X, 1, 2))


def along_flow(pd: PentadData, t: np.ndarray, dt: np.ndarray,
               dxt: Optional[np.ndarray]) -> tuple:
    """(along, lie) for a two-tensor t at the solve's sample points, with
    its partials dt and dxt as `paired_at` gives them: the derivative along
    the solutions, along = d_x t_ab + V^c d_c t_ab, and d_x t plus the Lie
    derivative of t along the prolongation field V, lie = along + t_cb d_a V^c
    + t_ac d_b V^c.  V and d_a V^c come from one forward-mode pass of the
    field (each point once per coordinate, seeded with the unit tangent)."""
    n, count = pd.n, len(pd.points)
    jets = Evaluator(list(prolongation(pd.ode))).eval_points(
        [pt for pt in pd.points for _ in range(n)], [{c: 1.0} for c in pd.ode.coords] * count)
    V = jets.val.reshape(n, count, n)[..., 0].T
    dV = jets.der.reshape(n, count, n).transpose(1, 2, 0)   # [k, a, c] = d_a V^c
    along = np.einsum("kc,kcab->kab", V, dt)
    if dxt is not None:
        along = dxt + along
    lie = along + np.einsum("kcb,kac->kab", t, dV) + np.einsum("kac,kbc->kab", t, dV)
    return along, lie


# ---------------------------------------------------------------------------
# the closed two-form of the order-4 moduli space

# omega = e^1 ^ e^4 - 3 e^2 ^ e^3 = C^T J C: the constant antisymmetric pairing
_J = np.array([[0.0, 0.0, 0.0, 1.0],
               [0.0, 0.0, -3.0, 0.0],
               [0.0, 3.0, 0.0, 0.0],
               [-1.0, 0.0, 0.0, 0.0]])


def symplectic_at(pd: PentadData) -> tuple:
    """(omega, volume, closure, base_point) at the solve's sample points,
    leading axis the point, from the coframe pass: omega[k, a, b] = C^T J C
    over the coordinates; the coefficient of the coordinate 4-volume in
    omega ^ omega; the four components of d omega (coordinates a < b < c),
    with d_c omega = d_c C^T J C + C^T J d_c C; and the six of
    d_x omega + L_V omega (a < b), V the prolongation field.  The last two
    vanish when omega is closed and does not depend on the base point."""
    if pd.n != 4:
        raise PentadError("the symplectic form is an order-4 construction")
    w, dw, dxw = paired_at(pd.coframe_at(pd.points), _J, np.subtract)
    volume = 2.0 * (w[:, 0, 1] * w[:, 2, 3] - w[:, 0, 2] * w[:, 1, 3] + w[:, 0, 3] * w[:, 1, 2])
    a, b, c = np.array(list(itertools.combinations(range(4), 3))).T
    closure = dw[:, a, b, c] - dw[:, b, a, c] + dw[:, c, a, b]
    upper = np.triu_indices(4, 1)
    return w, volume, closure, along_flow(pd, w, dw, dxw)[1][:, upper[0], upper[1]]
