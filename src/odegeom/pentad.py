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

The rows (d(y) and its first n - 1 shifts) are expressions: they feed the
coefficient letters, the coframe and the metric.  The last shift is needed
only at the sample points, so it is never built as an expression: one
forward-mode pass (`Evaluator.eval_points` on `Jet1` numbers, seeded with
the direction of the total derivative) gives the last row and its total
derivative there, and `equation_values` forms the n equations from those
numbers.  Order 4 still builds that shift once, symbolically, because its
slots are the letters E..H.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .expr import (
    Const,
    EvalError,
    Evaluator,
    Expr,
    ONE,
    ZERO,
    add,
    compare_values,
    diff,
    div,
    equiv,
    mul,
    neg,
    pow_,
    var,
)
from .jet import JetOde, prolongation, total_derivative, total_derivative_direction

# log-derivative constants: c * D(P) = P * Lambda_top
_LOG_DERIV_C = {5: 10, 4: 6}

# index of the coefficient letters in the lower-triangular rows
_LETTERS_5 = {"A": (3, 0), "B": (3, 1), "C": (3, 2)}
_LETTERS_4 = {"A": (3, 0), "B": (3, 1), "C": (3, 2), "D": (3, 3)}


class PentadError(Exception):
    pass


@dataclass(frozen=True)
class PentadData:
    """Solved frame data: P, Q, coefficient functions, and the change of
    basis between coordinate differentials and the dyad-induced basis."""

    ode: JetOde
    P: Expr
    Q: Expr
    coefficients: dict          # letters A..H -> Expr
    lower: tuple                # L[a][i]: d(coord_a) = sum_i L[a][i] e^i
    coframe_rows: tuple         # C[i][a]: e^i = sum_a C[i][a] d(coord_a)
    residual_names: tuple       # residual identities, then the Q and P equations
    residual_checks: tuple      # EquivResult per name (same order)

    @property
    def n(self) -> int:
        return self.ode.order

    @property
    def frame_cols(self) -> tuple:
        """F[i][a]: frame vector E_i = sum_a F[i][a] d/d(coord_a); this is
        the transpose of `lower` (inverse transpose of the coframe)."""
        n = self.n
        return tuple(tuple(self.lower[a][i] for a in range(n)) for i in range(n))

    def residuals_pass(self) -> bool:
        return all(chk.passed for chk in self.residual_checks)


def _dyad_shift(row: Sequence[Expr], P: Expr, Q: Expr, ode: JetOde) -> list:
    """One application of d/dx to a covector written in the e-basis.

    (e^i)' = (i-1) Q e^(i-1) + (n-i) P e^(i+1), so for row = sum c_i e^i the
    new coefficients are D(c_j) + c_(j+1) * j * Q + c_(j-1) * (n-j+1) * P
    (1-based j).
    """
    return [_shift_slot(row, P, Q, ode, j) for j in range(1, ode.order + 1)]


def _shift_slot(row: Sequence[Expr], P: Expr, Q: Expr, ode: JetOde, j: int) -> Expr:
    """Slot j (1-based) of `_dyad_shift`, built alone."""
    n = ode.order
    terms = [total_derivative(row[j - 1], ode)]
    if j < n:
        terms.append(mul(Const(j), Q, row[j]))
    if j > 1:
        terms.append(mul(Const(n - j + 1), P, row[j - 2]))
    return add(*terms)


def _frame_rows(ode: JetOde, P: Expr, Q: Expr) -> list:
    """Rows of the lower-triangular change of basis: d(y) = e^1 and its
    n - 1 dyad shifts."""
    rows = [[ONE] + [ZERO] * (ode.order - 1)]
    for _ in range(ode.order - 1):
        rows.append(_dyad_shift(rows[-1], P, Q, ode))
    return rows


def _equation(ode: JetOde, rows: Sequence[Sequence[Expr]], P: Expr, Q: Expr,
              lam_partials: Sequence[Expr], j: int) -> Expr:
    """Coefficient equation j (0-based) of the final differentiation,
    lhs_j - sum_k Lambda_k rows[k][j], as an expression; only slot j of the
    last dyad shift is built."""
    rhs = add(*[mul(lam, row[j]) for lam, row in zip(lam_partials, rows)])
    return add(_shift_slot(rows[-1], P, Q, ode, j + 1), neg(rhs))


def _build_rows(ode: JetOde, P: Expr, Q: Expr, lam_partials: Optional[list] = None):
    """Rows of the lower-triangular change of basis, plus the n coefficient
    equations of the final differentiation, all as expressions: the symbolic
    oracle of `equation_values`."""
    rows = _frame_rows(ode, P, Q)
    if lam_partials is None:
        lam_partials = [diff(ode.rhs, c) for c in ode.coords]
    return rows, [_equation(ode, rows, P, Q, lam_partials, j) for j in range(ode.order)]


def equation_values(ode: JetOde, rows: Sequence[Sequence[Expr]], P: Expr, Q: Expr,
                    lam_partials: Sequence[Expr], points: Sequence[dict]) -> np.ndarray:
    """The coefficient equations of `_build_rows` at the points, as numbers:
    an array of shape (n, len(points)).

    One forward-mode pass over the rows, P, Q and the partials of the rhs,
    seeded with the direction of the total derivative D, gives the last row
    and its D at the points; the last dyad shift is then `_dyad_shift`'s
    formula on those numbers, D(c_j) + j Q c_(j+1) + (n-j+1) P c_(j-1), and
    equation j is that minus sum_k Lambda_k rows[k][j].  No expression of
    the last shift is built."""
    n = ode.order
    exprs = [e for row in rows for e in row] + [P, Q] + list(lam_partials)
    jets = Evaluator(exprs).eval_points(points, total_derivative_direction(ode, points))
    entries = jets.val[: n * n].reshape(n, n, len(points))
    Pv, Qv, lam = jets.val[n * n], jets.val[n * n + 1], jets.val[n * n + 2:]
    last = entries[n - 1]
    j = np.arange(1, n + 1)[:, None]
    lhs = jets.der[(n - 1) * n: n * n].copy()
    lhs[:-1] += j[:-1] * Qv * last[1:]
    lhs[1:] += (n - j[1:] + 1) * Pv * last[:-1]
    return lhs - (lam[:, None, :] * entries).sum(axis=0)


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


def solve_pentad(ode: JetOde, samples: int = 50, tol: float = 1e-9, seed: int = 0x5EED) -> PentadData:
    """Solve for P and Q, build the frame, and check the residual identities."""
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
    lam_partials = [diff(ode.rhs, c) for c in ode.coords]
    q_slot = n - 2  # 0-based index of e^(n-1)
    eq0, eq1 = (_equation(ode, _frame_rows(ode, P, q), P, q, lam_partials, q_slot)
                for q in (ZERO, ONE))
    pivot = add(eq1, neg(eq0))
    if equiv(pivot, ZERO, ode.domain, n=samples, tol=tol, seed=seed).passed:
        raise PentadError(f"zero pivot in the Q equation for {ode.name}")
    Q = div(neg(eq0), pivot)

    rows = _frame_rows(ode, P, Q)

    letters = dict(_LETTERS_5 if n == 5 else _LETTERS_4)
    coefficients = {name: rows[a][i] for name, (a, i) in letters.items()}
    if n == 5:
        coefficients.update({"E": rows[4][0], "F": rows[4][1], "G": rows[4][2], "H": rows[4][3]})
    else:
        # order 4 names the slots of the last shift too
        lhs = _dyad_shift(rows[-1], P, Q, ode)
        coefficients.update({"E": lhs[0], "F": lhs[1], "G": lhs[2], "H": lhs[3]})

    names = ["residual_identity_%d" % (j + 1) for j in range(n - 2)]
    names += ["q_equation", "p_equation"]
    points = ode.domain.draw(samples, seed)
    values = equation_values(ode, rows, P, Q, lam_partials, points)
    checks = tuple(compare_values(values, 0.0, points, tol, seed))

    coframe_rows = _invert_lower(rows)
    return PentadData(
        ode=ode,
        P=P,
        Q=Q,
        coefficients=coefficients,
        lower=tuple(tuple(r) for r in rows),
        coframe_rows=coframe_rows,
        residual_names=tuple(names),
        residual_checks=checks,
    )


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


@dataclass(frozen=True)
class SymplecticForm:
    """Antisymmetric matrix of the two-form on the order-4 moduli space."""

    pd: PentadData
    matrix: tuple  # n x n Exprs, antisymmetric by construction


def symplectic(pd: PentadData) -> SymplecticForm:
    """The closed two-form e^1 ^ e^4 - 3 e^2 ^ e^3 in coordinates."""
    if pd.n != 4:
        raise PentadError("the symplectic form is an order-4 construction")
    C = pd.coframe_rows
    n = 4
    mat = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            entry = add(
                mul(C[0][a], C[3][b]),
                neg(mul(C[0][b], C[3][a])),
                mul(Const(-3), C[1][a], C[2][b]),
                mul(Const(3), C[1][b], C[2][a]),
            )
            mat[a][b] = entry
            mat[b][a] = neg(entry)
    return SymplecticForm(pd, tuple(tuple(r) for r in mat))


def symplectic_closure_components(form: SymplecticForm) -> list:
    """The four independent components of the exterior derivative."""
    coords = form.pd.ode.coords
    out = []
    for a in range(4):
        for b in range(a + 1, 4):
            for c in range(b + 1, 4):
                comp = add(
                    diff(form.matrix[b][c], coords[a]),
                    neg(diff(form.matrix[a][c], coords[b])),
                    diff(form.matrix[a][b], coords[c]),
                )
                out.append(((coords[a], coords[b], coords[c]), comp))
    return out


def symplectic_volume_ratio(form: SymplecticForm) -> Expr:
    """Coefficient of the 4-volume in the wedge square: 2(O_01 O_23 - O_02 O_13 + O_03 O_12)."""
    m = form.matrix
    return mul(
        Const(2),
        add(
            mul(m[0][1], m[2][3]),
            neg(mul(m[0][2], m[1][3])),
            mul(m[0][3], m[1][2]),
        ),
    )


def symplectic_x_invariance_components(form: SymplecticForm) -> list:
    """Residuals of d/dx O_ab + (Lie_V O)_ab for the prolongation field V;
    identically zero expressions certify that the form does not depend on the
    base-point choice."""
    ode = form.pd.ode
    coords = ode.coords
    V = prolongation(ode).components
    out = []
    for a in range(4):
        for b in range(a + 1, 4):
            terms = [diff(form.matrix[a][b], "x")]
            for cidx, ccoord in enumerate(coords):
                terms.append(mul(V[cidx], diff(form.matrix[a][b], ccoord)))
                terms.append(mul(form.matrix[cidx][b], diff(V[cidx], coords[a])))
                terms.append(mul(form.matrix[a][cidx], diff(V[cidx], coords[b])))
            out.append(((coords[a], coords[b]), add(*terms)))
    return out
