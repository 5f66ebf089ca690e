"""Numerical verification of the integral transform.

A conic is recovered from a 4-jet as the six signed 5x5 minors of the five
linear conditions its implicit equation must satisfy at the base point (a
null vector of the condition matrix); evaluation along the conic is exact
(quadratic formula plus implicit differentiation), and a numeric ODE
integration of the jet system is kept as an independent cross-check.
That integration is a private port of the Dormand-Prince 5(4) pair with the
starting-step rule of Hairer, Norsett & Wanner (Solving ODEs I, II.4); it
repeats the RK45 step control of `solve_ivp` operation for operation, so its
results are bitwise those of `solve_ivp(method="RK45")`.

The transform F(X) = integral of f(x, Z(x, X)) * q^(1/3) dx is taken over a
fixed real interval on which the branch stays smooth and q keeps one sign
(the real cube root carries the sign).  It has one path, over a batch of
jets: the minors from one Laplace expansion run on `expr.Jet2` numbers
(value, gradient and Hessian over the moduli coordinates X = (y, p, q, r,
s); Fike & Alonso, AIAA 2011-886), the branch at every jet's Gauss nodes in
one numpy pass (its square and cube roots, divisions and choice of root are
functions over those numbers here), f at all the nodes in one `eval_points`
pass over the nodes' x and y columns, and each jet's weighted sums.
`radon_derivatives` carries the five coordinate directions and gets F with
its exact gradient and Hessian; `radon_F_batch` and `radon_F` carry none
and evaluate f alone, which gives bitwise the same F (no value depends on
the directions carried, nor on the batch).  A lone jet carrying none takes
its conditions and minors on Python floats, on the batch's Laplace plan.
The branch does not depend on the conic's scale, so the minors need no
normalisation; `conic_from_jet` and `conic_jet` are the batch of one, with
the minors made unit and sign-fixed.  Each jet is validated inside the
path, by array tests over the batch, and the first bad jet raises the error
it raises alone; at a jet the caller did not give (a finite-difference
stencil jet, a companion of a lone point, the jet carried to a shifted base
point) the error names that jet and its role.

The second-order operator pair of the structure tensor G and its metric
`G.m` (`so3.hor_operator`) is then applied to each test function's exact
derivatives at all points at once, and the eigenvalue content extracted: a
per-point least-squares lambda, and (mu, c) regressed across points from
laplacian(F) = mu * (F + c).  Central differences of F are no part of that
system, and no row compares them with the exact derivatives (the tests
do).  `numerics_checks` measures only the differences themselves:
`fd_gradient_step_doubling` is the gap between the Richardson gradients at
steps h and h/2, and `fd_hessian_symmetry` the asymmetry of the Hessian
made as differences of those gradients.  They come from 22 stencils of 20
jets that share about half their jets, so each distinct jet is evaluated
once: the 215-231 distinct jets of a point run in the fewest batches of at
most 115, two for nearly every point.

The Gauss-Legendre rule (`_gauss`) is computed by Newton's method on the
three-term Legendre recurrence (Hale & Townsend, SIAM J. Sci. Comput. 35
(2013) A652), not by the Golub-Welsch eigenvalue problem of numpy's
`leggauss`.  Its weights are about 25 times more accurate at orders 60 and
120, the rule is exactly symmetric, and it needs no LAPACK call.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import catalog
from .expr import (DEFAULT_SEED, Evaluator, Expr, ExprError, InputError, Jet2, diff,
                   free_variables, parse)
from .jet import JetOde
from .report import CheckRecord
from .so3 import GTensor, hor_operator, mu_lambda

COORDS = ("y", "p", "q", "r", "s")


class RadonError(InputError):
    """`jet`: the index in its batch of the jet the error is about, if any."""

    def __init__(self, message: str, jet: Optional[int] = None):
        super().__init__(message)
        self.jet = jet


def _at_jet(err: RadonError, jets: Sequence[Dict[str, float]], role: str,
            start: int = 0) -> RadonError:
    """`err` naming the jet it is about and that jet's role, for an error
    at a jet the caller made (a jet before `start` keeps its error)."""
    if err.jet is None or err.jet < start:
        return err
    jet = {c: jets[err.jet][c] for c in COORDS}
    return RadonError(f"{err} at the {role} {jet}", err.jet)


@dataclass(frozen=True)
class ConicCoefficients:
    """Unit 6-vector (a, b, c, d, e, f) of a*x^2 + 2*b*x*y + c*y^2 + 2*d*x
    + 2*e*y + f = 0, sign-fixed on the largest component."""

    vector: tuple


def _condition_rows(x, y, p, q, r, s) -> list:
    """The five linear conditions on (a, b, c, d, e, f): the implicit
    equation and its first four total x-derivatives vanish at the jet.
    Generic in the number type: floats, `Jet2` numbers (whose minors
    `_conic_fwd` expands) or expressions."""
    return [
        [x * x, 2 * x * y, y * y, 2 * x, 2 * y, 1],
        [2 * x, 2 * (y + x * p), 2 * y * p, 2, 2 * p, 0],
        [2, 2 * (2 * p + x * q), 2 * (p * p + y * q), 0, 2 * q, 0],
        [0, 2 * (3 * q + x * r), 2 * (3 * p * q + y * r), 0, 2 * r, 0],
        [0, 2 * (4 * r + x * s), 2 * (4 * p * r + 3 * q * q + y * s), 0, 2 * s, 0],
    ]


def conic_from_jet(jet: Dict[str, float], x0: float = 0.0) -> Tuple[ConicCoefficients, int]:
    """Solve the five jet conditions for the conic through a 4-jet: the
    signed minors of `_conic_fwd` at the jet alone, made unit and sign-fixed.

    Returns the normalized coefficients and the branch selector (the sign of
    the y-partial of the implicit equation along the defining branch).
    Raises if a condition or minor is not finite, the null space is not
    one-dimensional, the tangent at the base point is vertical or the
    recovered conic does not reproduce the jet.
    """
    minors, branches, _, checks = _conic_fwd([jet], x0, 0)
    _raise_first(checks)
    v = np.array([k.val[0] for k in minors])
    v = v / np.linalg.norm(v)
    branch = int(branches[0])
    if v[int(np.argmax(np.abs(v)))] < 0:
        v, branch = -v, -branch
    return ConicCoefficients(tuple(v.tolist())), branch


def conic_jet(conic: ConicCoefficients, branch: int, x: float) -> Dict[str, float]:
    """Full 4-jet of the selected branch by implicit differentiation (the
    implicit equation is quadratic, so third partials vanish): `_jet_at`
    for one conic at one x.  Raises if the branch is not regular there."""
    got, check = _jet_at([np.array([v]) for v in conic.vector],
                         np.array([float(branch)]), np.array([float(x)]))
    _raise_first([check])
    return {c: float(v[0]) for c, v in zip(COORDS, got)}


# Dormand-Prince 5(4): nodes, stage matrix, 5th-order weights and the
# error-estimate weights (5th minus embedded 4th order, FSAL stage last).
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 5


def _rms(x: np.ndarray) -> float:
    # np.linalg.norm of a 1-D real vector, without its dispatch
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """Starting step size of Hairer, Norsett & Wanner, Solving ODEs I, II.4."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0 * direction, y0 + h0 * direction * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _rk45(fun, t: float, y: np.ndarray, t_bound: float, rtol: float, atol: float) -> np.ndarray:
    """State at t_bound by adaptive Dormand-Prince 5(4) steps from (t, y).

    The step control is that of `solve_ivp(method="RK45")` without a step
    bound, operation for operation, so the result is bitwise the same.
    """
    rtol = max(rtol, 100 * np.finfo(float).eps)
    direction = np.sign(t_bound - t)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, f, direction, rtol, atol)
    K = np.empty((7, y.size))
    while direction * (t - t_bound) < 0:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise RadonError(
                    "jet integration failed: "
                    "Required step size is less than spacing between numbers."
                )
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, _DP_A[s, :s]) * h
                K[s] = fun(t + _DP_C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            f_new = fun(t + h, y_new)
            K[-1] = f_new

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y


def integrate_ode(
    ode: JetOde,
    jet0: Dict[str, float],
    x0: float,
    x1: float,
    tol: float = 1e-10,
) -> Dict[str, float]:
    """Integrate the jet system from x0 to x1; the cross-check path for the
    exact conic evaluation.

    Adaptive Dormand-Prince 5(4) steps (Dormand & Prince 1980) with the
    starting step of Hairer, Norsett & Wanner, Solving ODEs I, II.4, at
    relative tolerance tol and absolute tolerance tol * 1e-2.  The port
    repeats the step control of `solve_ivp(method="RK45")`, so the values
    (`np.float64`) are those of `solve_ivp` bit for bit.  Raises
    `RadonError` when a start coordinate is not finite and when the step
    size underflows.
    """
    coords = ode.coords
    for c in coords:
        if not math.isfinite(jet0[c]):
            raise RadonError(f"start jet coordinate {c} = {jet0[c]!r} is not finite")
    if x1 == x0:
        return dict(jet0)
    ev = Evaluator([ode.rhs])

    def rhs(x, u):
        point = dict(zip(coords, u.tolist()))
        point["x"] = x
        du = np.empty(len(coords))
        du[:-1] = u[1:]
        du[-1] = ev.eval_points([point])[0, 0]
        return du

    y0 = np.asarray([jet0[c] for c in coords], dtype=float)
    y1 = _rk45(rhs, float(x0), y0, float(x1), tol, tol * 1e-2)
    return dict(zip(coords, y1))


@dataclass(frozen=True)
class RadonConfig:
    """Contour and quadrature of the transform, and the step h of the
    finite differences of `numerics_checks`."""

    f: Expr
    x_a: float = -0.8
    x_b: float = 0.8
    order: int = 60
    h: float = 1e-4
    x0: float = 0.0

    def __post_init__(self):
        if not self.x_a < self.x_b:
            raise RadonError("empty integration interval")
        if self.h <= 0:
            raise RadonError("finite-difference step must be positive")
        extra = free_variables(self.f) - {"x", "y"}
        if extra:
            raise RadonError(f"test function may only use x and y, got {sorted(extra)}")

    @cached_property
    def f_evaluator(self) -> Evaluator:
        """f compiled once per configuration."""
        return Evaluator([self.f])

    @cached_property
    def f_jet_evaluator(self) -> Evaluator:
        """f, f_y and f_yy compiled once per configuration."""
        fy = diff(self.f, "y")
        return Evaluator([self.f, fy, diff(fy, "y")])


def _legendre(n: int, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """P_n and P_n' at x (|x| < 1) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1)


@lru_cache(maxsize=None)
def _gauss(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights of the given order on
    [-1, 1], read-only and built on first use.

    Newton's method on the recurrence finds the nonnegative half of the
    roots of P_n from cos(pi (k - 1/4) / (n + 1/2)); the middle root of an
    odd order is 0 exactly.  The weights are 2 / ((1 - x^2) P_n'(x)^2) at
    the converged roots, and the negative half mirrors them, so the rule is
    exactly symmetric.
    """
    n, m = order, order // 2
    x = np.cos(np.pi * (np.arange(1, n - m + 1) - 0.25) / (n + 0.5))
    if n % 2:
        x[-1] = 0.0
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 4 * np.finfo(float).eps:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes, weights = np.concatenate([-x[:m], x[::-1]]), np.concatenate([w[:m], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _sqrt(x: Jet2) -> Jet2:
    r = np.sqrt(x.val)
    return x.chain(r, lambda: (0.5 / r, -0.25 / (r * x.val)))


def _cbrt(x: Jet2) -> Jet2:
    """The real cube root, which carries the sign."""
    r = np.copysign(np.abs(x.val) ** (1.0 / 3.0), x.val)
    return x.chain(r, lambda: (r / (3.0 * x.val), -2.0 * r / (9.0 * x.val * x.val)))


def _div(a: Jet2, b: Jet2) -> Jet2:
    inv = 1.0 / b.val
    return a * b.chain(inv, lambda: (-inv * inv, 2.0 * inv * inv * inv))


def _where(mask: np.ndarray, a: Jet2, b: Jet2) -> Jet2:
    return Jet2(np.where(mask, a.val, b.val), np.where(mask, a.grad, b.grad),
                np.where(mask, a.hess, b.hess))


@lru_cache(maxsize=None)
def _laplace_plan(zeros: Tuple[Tuple[bool, ...], ...]):
    """The Laplace expansion along the rows of the six 5x5 minors of a 5x6
    matrix with plain-zero entries where `zeros` says, as a program: a step
    per sub-determinant (rows i.. on some columns), a list of terms (odd, i,
    col, sub), the entry (i, col) times step `sub` (none when sub is -1),
    negated when odd; and the step of each minor.  Zero entries and
    sub-determinants without terms (None) are left out."""
    steps: list = []
    index: dict = {}

    def plan(i: int, cols: tuple) -> Optional[int]:
        if i == len(zeros):
            return -1
        if (i, cols) not in index:
            terms = []
            for j, col in enumerate(cols):
                if not zeros[i][col]:
                    sub = plan(i + 1, cols[:j] + cols[j + 1:])
                    if sub is not None:
                        terms.append((j % 2 == 1, i, col, sub))
            index[(i, cols)] = len(steps) if terms else None
            if terms:
                steps.append(terms)
        return index[(i, cols)]

    return steps, [plan(0, tuple(c for c in range(6) if c != k)) for k in range(6)]


def _plain_zeros(rows: list) -> Tuple[Tuple[bool, ...], ...]:
    """Where the entries of a matrix are a plain zero (an int or float 0)."""
    return tuple(tuple(isinstance(entry, (int, float)) and entry == 0 for entry in row)
                 for row in rows)


@lru_cache(maxsize=None)
def _structural_zeros(x0: float) -> Tuple[Tuple[bool, ...], ...]:
    """The plain zeros of the jet conditions at base point x0 whatever the
    jet: those of `_condition_rows` over coordinates that are numbers of no
    point (empty `Jet2` numbers)."""
    none = Jet2(np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0, 0)))
    return _plain_zeros(_condition_rows(x0, *[none] * 5))


def _signed_minors(rows: list, zeros: Optional[Tuple[Tuple[bool, ...], ...]] = None) -> list:
    """The six signed 5x5 minors of a 5x6 matrix, in any number type that
    `_condition_rows` takes (floats, `Jet2` numbers, expressions).

    The minor without column k, signed (-1)^k, is the k-th coefficient of a
    null vector of the matrix (expanding the 6x6 determinant with a repeated
    row): for the jet conditions, the conic through the jet, up to scale.
    The Laplace expansion (`_laplace_plan`) is planned once per pattern of
    zero entries, which it skips: `zeros` if given, else the entries that
    are a plain zero.  A minor all of whose terms are skipped is 0.
    """
    steps, minors = _laplace_plan(_plain_zeros(rows) if zeros is None else zeros)
    dets: list = []
    for terms in steps:
        total = None
        for odd, i, col, sub in terms:
            term = rows[i][col] if sub < 0 else rows[i][col] * dets[sub]
            term = -term if odd else term
            total = term if total is None else total + term
        dets.append(total)
    return [0 if step is None else -dets[step] if k % 2 else dets[step]
            for k, step in enumerate(minors)]


_Check = Tuple[np.ndarray, Callable[[int], str]]


def _raise_first(checks: Sequence[_Check]) -> None:
    """Raise `RadonError` for the first jet that fails a check, with the
    message of the first check it fails: the error it raises alone.  A
    check is the mask of the jets that pass it and the message for a jet
    that does not."""
    passed = np.logical_and.reduce([ok for ok, _ in checks])
    if not passed.all():
        j = int(np.argmin(passed))
        raise RadonError(next(message(j) for ok, message in checks if not ok[j]), j)


def _conic_fwd(jets: Sequence[Dict[str, float]], x0: float,
               dims: int = 5) -> Tuple[List[Jet2], np.ndarray, np.ndarray, List[_Check]]:
    """The conic of each jet, its branch selector, the gap of its round trip
    at the base point (the largest coordinate error) and the checks of the
    jets.

    The conic is the vector of signed minors, unnormalised, as forward-mode
    numbers over `dims` directions: 5 for the moduli coordinates, 0 for
    values alone.  The selector is the sign of phi_y at the base point.  The
    checks, in order: the conditions and the minors are finite; the null
    space is a line, as the minors' norm exceeds 1e-40 of the product of the
    condition rows' largest entries (a smaller one puts the smallest
    singular value at most 1e-10 of the largest, by Hadamard's inequality,
    so the SVD that words the error counts a rank below 5); the tangent at
    the base point is not vertical; the branch is regular there and
    reproduces the jet.
    """
    coords = np.array([[float(jet[c]) for c in COORDS] for jet in jets]).reshape(-1, 5)
    count, unit = len(coords), np.eye(dims, 5)
    matrix = np.empty((count, 5, 6))
    with np.errstate(all="ignore"):
        if count == 1 and not dims:
            # a lone jet's values on Python floats, which numpy's one-element
            # arrays would round alike at several times the cost; the plan
            # skips the batch's zeros only, never a coordinate that is 0.0
            rows = _condition_rows(x0, *coords[0].tolist())
            none = np.zeros((0, 1))
            minors = [Jet2(np.array([float(k)]), none, none[None])
                      for k in _signed_minors(rows, _structural_zeros(x0))]
        else:
            rows = _condition_rows(x0, *(
                Jet2(coords[:, k], np.repeat(unit[:, k:k + 1], count, axis=1),
                     np.zeros((dims, dims, count))) for k in range(5)))
            minors = _signed_minors(rows)
        for i, row in enumerate(rows):
            for k, entry in enumerate(row):
                matrix[:, i, k] = entry.val if isinstance(entry, Jet2) else entry
        finite = np.isfinite(np.concatenate(
            [k.val[None] for k in minors] + [k.grad for k in minors]
            + [k.hess.reshape(-1, count) for k in minors])).all(axis=0)
        volume = np.sqrt(sum(k.val * k.val for k in minors))
        for largest in np.abs(matrix).max(axis=2).T:
            volume = volume / largest
        b, c, e = (minors[k].val for k in (1, 2, 4))
        phi_y = 2 * b * x0 + 2 * c * coords[:, 0] + 2 * e
        branches = np.where(phi_y > 0, 1.0, -1.0)
        got, at_base = _jet_at([k.val for k in minors], branches, np.full(count, float(x0)))
        gap = np.abs(np.stack(got, axis=1) - coords).max(axis=1)
    checks = [
        (np.isfinite(matrix).all(axis=(1, 2)),
         lambda j: "jet conditions are not finite (jet too large or not a number)"),
        (finite, lambda j: "conic minors are not finite at the jet"),
        (volume > 1e-40, lambda j: (
            "degenerate jet: conic conditions have rank "
            f"{np.linalg.matrix_rank(matrix[j], 1e-10 * np.linalg.norm(matrix[j], 2))}, "
            "null space is not a line")),
        (phi_y != 0.0, lambda j: "vertical tangent at the base point"),
        at_base,
        (gap <= 1e-10 * (1.0 + np.abs(coords).max(axis=1)),
         lambda j: f"recovered conic does not reproduce the jet (gap {gap[j]:.2e})"),
    ]
    return minors, branches, gap, checks


def _branch(conic: Sequence[Jet2], branches: np.ndarray, xs: np.ndarray, n: int):
    """y, p, q and phi_y of each conic's branch at its point, one row per
    point (n per jet), and the check of the branch at the points.

    The coefficients and the selectors (the sign of phi_y on the branch)
    are given per point.  The root of the branch's orientation is chosen
    from the values, and p and q follow by implicit differentiation.  The
    check wants the discriminant positive and phi_y of the branch's sign and
    not small against the conic's scale at every point; its message names
    the first point that fails.
    """
    a, b, c, d, e, f = conic
    with np.errstate(all="ignore"):
        B = 2 * xs * b + 2 * e
        C = (xs * xs) * a + (2 * xs) * d + f
        disc = B * B - 4 * c * C
        sign_B = np.copysign(1.0, B.val)
        qf = (B + sign_B * _sqrt(disc)) * -0.5
        # qf/c has phi_y = -sign(B) sqrt(disc), C/qf has +sign(B) sqrt(disc)
        y = _where(sign_B != branches, _div(qf, c), _div(C, qf))
        fy = B + 2 * c * y
        # done with: each is an array over all nodes, many for a large batch
        del B, C, sign_B, qf
        p = _div(-(2 * xs * a + 2 * b * y + 2 * d), fy)
        q = _div(-(2 * a + 4 * b * p + 2 * c * p * p), fy)
        scale = np.sqrt(sum(k.val * k.val for k in conic))
        real = (disc.val > 0.0).reshape(-1, n)
        good = real & ((fy.val * branches > 0) & (np.abs(fy.val) >= 1e-13 * scale * (
            1.0 + np.abs(xs) + np.abs(y.val)))).reshape(-1, n)

    def message(j: int) -> str:
        k = j * n + int(np.argmin(good[j]))
        if real.flat[k]:
            return f"vertical tangent at x={float(xs[k])}"
        return (f"branch leaves the reals at x={float(xs[k])} "
                f"(discriminant {disc.val[k] / scale[k] ** 2:.2e})")

    return (y, p, q, fy), (good.all(axis=1), message)


def _jet_at(conic: Sequence[np.ndarray], branches: np.ndarray, xs: np.ndarray):
    """y, p, q, r and s on each conic's branch at its point (values alone),
    and the check of the branch there (`_branch`); r and s follow by
    implicit differentiation."""
    none = np.zeros((0, len(xs)))
    (y, p, q, fy), check = _branch([Jet2(v, none, none[None]) for v in conic], branches, xs, 1)
    y, p, q, fy = y.val, p.val, q.val, fy.val
    b, c = conic[1], conic[2]
    with np.errstate(all="ignore"):
        G = 2 * b + 2 * c * p
        r = -3 * q * G / fy
        s = -3 * (r * G + 2 * c * q * q) / fy + 3 * q * G * G / (fy * fy)
    return (y, p, q, r, s), check


def _nodes(cfg: RadonConfig, order: Optional[int] = None):
    """Gauss-Legendre nodes on the interval, their weights, and the
    half-length that scales the weighted sum."""
    nodes, weights = _gauss(order or cfg.order)
    half = 0.5 * (cfg.x_b - cfg.x_a)
    mid = 0.5 * (cfg.x_a + cfg.x_b)
    return mid + half * nodes, weights, half


def _q_sign_error(xs: Sequence[float], qs: Sequence[float]) -> str:
    """Why q does not keep one nonzero sign across the nodes: it vanishes at
    a node before it leaves the sign of the first, or it changes sign."""
    for x, qv in zip(xs, qs):
        if qv == 0.0:
            return f"q vanishes at x={x}; cube-root branch point inside the contour"
        if (qv > 0) != (qs[0] > 0):
            break
    return "q changes sign inside the contour"


@dataclass(frozen=True)
class _Branch:
    """The branch of each jet's conic at the Gauss nodes of one contour, as
    forward-mode numbers over the jets' nodes, rows jet-major: y, the real
    cube root of q, the (x, y) node points as the columns `eval_points`
    takes, and the scaled weights (N,)."""

    y: Jet2
    cbrt_q: Jet2
    nodes: Dict[str, np.ndarray]
    weights: np.ndarray


def _branch_fwd(cfg: RadonConfig, jets: Sequence[Dict[str, float]],
                order: Optional[int] = None, dims: int = 5) -> _Branch:
    """The branch of each jet's conic at the Gauss nodes, by the chain rule
    over `dims` directions (`_conic_fwd`).

    All jets run in one numpy pass.  The checks of the jets (`_conic_fwd`),
    of the branch at the nodes (`_branch`) and of the sign of q then run as
    array tests over the jets, so the first bad jet raises the error it
    raises alone, which names its first irregular node.
    """
    minors, branches, _, checks = _conic_fwd(jets, cfg.x0, dims)
    xs, weights, half = _nodes(cfg, order)
    count, n = len(branches), len(xs)
    xs = np.tile(xs, count)
    (y, _, q, _), at_nodes = _branch(
        [Jet2(*(np.repeat(part, n, axis=-1) for part in (k.val, k.grad, k.hess))) for k in minors],
        np.repeat(branches, n), xs, n)
    qs = q.val.reshape(count, n)
    checks += [at_nodes, ((qs > 0).all(axis=1) | (qs < 0).all(axis=1),
                          lambda j: _q_sign_error(xs[j * n:(j + 1) * n].tolist(), qs[j].tolist()))]
    _raise_first(checks)
    return _Branch(y, _cbrt(q), {"x": xs, "y": y.val}, half * weights)


def _transform_derivatives(cfg: RadonConfig,
                           br: _Branch) -> List[Tuple[float, np.ndarray, np.ndarray]]:
    """F with its gradient and Hessian over the branch's directions at each
    jet of the branch: f at every node from one `eval_points` pass (with
    f_y and f_yy when there are directions), then each jet's weighted sums.
    With no directions the sums are tested for finiteness at once, and each
    jet's gradient and Hessian are empty."""
    w, n, dims = br.weights, len(br.weights), len(br.y.grad)
    if not dims:
        integrand = br.cbrt_q.val * cfg.f_evaluator.eval_points(br.nodes)[0]
        values = [w @ row for row in integrand.reshape(-1, n)]
        finite = np.isfinite(values)
        if not finite.all():
            raise RadonError("the transform or its derivatives are not finite",
                             int(np.argmin(finite)))
        none = np.zeros(0), np.zeros((0, 0))
        return [(float(value), *none) for value in values]
    f, f_y, f_yy = cfg.f_jet_evaluator.eval_points(br.nodes)
    integrand = br.y.chain(f, lambda: (f_y, f_yy)) * br.cbrt_q
    out = []
    for j, start in enumerate(range(0, len(br.y.val), n)):
        at = slice(start, start + n)
        value = w @ integrand.val[at]
        # node-major and contiguous: the layout picks the BLAS kernel that
        # sums, and so its rounding
        grad = w @ np.ascontiguousarray(integrand.grad[:, at].T)
        hess = np.tensordot(w, np.moveaxis(integrand.hess[..., at], -1, 0), axes=1)
        if not (np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()):
            raise RadonError("the transform or its derivatives are not finite", j)
        out.append((float(value), grad, hess))
    return out


def radon_F_batch(cfg: RadonConfig, jets: Sequence[Dict[str, float]],
                  order: Optional[int] = None) -> List[float]:
    """Gauss-Legendre quadrature of f(x, Z) * q^(1/3) over the interval, at
    each jet: the value part of the pass of `radon_derivatives`, carrying
    no derivative direction and evaluating f alone, so each value is
    bitwise its F.  Each jet's sum is its own, so a value does not depend
    on the batch it was computed in.

    q must keep one sign across the nodes; the cube root is the real one and
    carries that sign.  The first bad jet raises the error it raises alone,
    and f's `eval_points` pass rejects non-finite intermediates.
    """
    return [F for F, _, _ in _transform_derivatives(cfg, _branch_fwd(cfg, jets, order, 0))]


def radon_F(cfg: RadonConfig, jet: Dict[str, float], order: Optional[int] = None) -> float:
    """The transform at one jet: `radon_F_batch` over a batch of one."""
    return radon_F_batch(cfg, [jet], order)[0]


def radon_derivatives(cfg: RadonConfig, jet: Dict[str, float]) -> Tuple[float, np.ndarray, np.ndarray]:
    """F at the jet with its exact gradient (5,) and Hessian (5, 5) over
    (y, p, q, r, s), in one forward-mode pass over the Gauss nodes: the
    batch of one of `_branch_fwd` and `_transform_derivatives`."""
    return _transform_derivatives(cfg, _branch_fwd(cfg, [jet]))[0]


def _fd_stencil(X: Dict[str, float], h: float) -> List[Dict[str, float]]:
    """The 20 jets of `_fd_combine`: X shifted by +h, -h, +h/2 and -h/2 in
    each coordinate in turn."""
    jets = []
    for c in COORDS:
        for delta in (h, -h, h / 2, -h / 2):
            Xp = dict(X)
            Xp[c] += delta
            jets.append(Xp)
    return jets


def _fd_combine(values: Sequence, h: float) -> np.ndarray:
    """Central differences with one Richardson level, from the values over
    `_fd_stencil(X, h)`: floats give the gradient (5,), gradients (5,) give
    the Jacobian of the gradient, one row per shifted coordinate."""
    rows = []
    for i in range(5):
        plus, minus, plus_half, minus_half = values[4 * i:4 * i + 4]
        d1 = (plus - minus) / (2 * h)
        d2 = (plus_half - minus_half) / h
        rows.append((4 * d2 - d1) / 3)
    return np.array(rows)


# jets per quadrature batch at most: up to 230 distinct jets of a point's
# stencils (215-231 over 200 benchmark points) run in two batches, whose
# arrays stay below the peak memory of the rest of a radon report
_FD_BATCH = 115
_JET_KEY = struct.Struct("5d")


def _distinct_jets(stencils: Iterable[Sequence[Dict[str, float]]]
                   ) -> Tuple[List[List[int]], List[Tuple[float, ...]]]:
    """The distinct jets of the stencils, in order of first appearance, as
    (y, p, q, r, s) tuples, and for each stencil the index of each of its
    jets among them.  Jets are keyed on the bits of their coordinates, so
    0.0 and -0.0 stay apart and a jet's value is looked up only for a jet
    of the same float coordinates."""
    coords = itemgetter(*COORDS)
    index: Dict[bytes, int] = {}
    distinct: List[Tuple[float, ...]] = []
    at = []
    for stencil in stencils:
        idx = []
        for Xp in stencil:
            values = coords(Xp)
            i = index.setdefault(_JET_KEY.pack(*values), len(distinct))
            if i == len(distinct):
                distinct.append(tuple(map(float, values)))
            idx.append(i)
        at.append(idx)
    return at, distinct


@dataclass
class RadonVerification:
    """The system of one test function at its jets: per jet (the leading
    axis of each array) F, its gradient, the covector G_a^bc nabla_b
    nabla_c F, the Laplacian, lambda-hat and the relative residual of
    covector = lambda-hat * gradient; across the jets lambda-hat's mean
    and spread, (mu, c) and the gap of the eigenvalue relation."""

    f_text: str
    jets: List[Dict[str, float]]
    values: np.ndarray
    gradients: np.ndarray
    covectors: np.ndarray
    laplacians: np.ndarray
    lams: np.ndarray
    residuals: np.ndarray
    lam: float
    lam_spread: float
    mu: float
    c_offset: float
    relation_gap: float   # |mu - (6 lam^2 + R/10)|, R the catalogued scalar curvature


def default_test_jets() -> List[Dict[str, float]]:
    return [
        {"y": 1.0, "p": 0.3, "q": 2.0, "r": 0.1, "s": -0.2},
        {"y": 0.8, "p": -0.2, "q": 1.7, "r": 0.3, "s": 0.4},
        {"y": 1.3, "p": 0.1, "q": 2.4, "r": -0.2, "s": 0.3},
    ]


def _aux_points(jet: Dict[str, float]) -> List[Dict[str, float]]:
    """Two deterministic companions, needed to regress (mu, c)."""
    a = dict(jet)
    a["y"] *= 1.05
    a["q"] *= 0.95
    b = dict(jet)
    b["p"] += 0.1
    b["s"] -= 0.1
    return [a, b]


def verify_system(
    cfgs: Sequence[RadonConfig],
    points: Union[Dict[str, float], Sequence[Dict[str, float]]],
    G: GTensor,
) -> List[RadonVerification]:
    """Check that the transform of each test function solves the operator
    pair of G and its metric `G.m`; one `RadonVerification` per
    configuration, in order.

    The configurations share one contour.  Once for all test functions:
    the branch at the nodes (`_branch_fwd`) and the points' geometry
    (`frame_at`, G on its coframe: one pass over the points).  Per test
    function, over all points at once: F with its exact gradient and
    Hessian (no finite differences), the operator pair (`hor_operator`),
    then lambda-hat from least squares on (covector = lambda * grad F) with
    its relative residual.  Across points (at least two; a single input
    point gets deterministic companions): mu-hat and the additive constant
    from laplacian(F) = mu * (F + c), and the gap against the eigenvalue
    relation mu = 6 lambda^2 + R/10, R the catalogued scalar curvature.  An
    error at a companion names it; a gradient too small or a covector that
    vanishes raises at the first test function and point, in that order,
    naming both and the point's role (given point or companion jet).
    """
    points = [points] if isinstance(points, dict) else list(points)
    given = len(points)
    if given < 2:
        points = points + _aux_points(points[0])
    if len({(cfg.x_a, cfg.x_b, cfg.order, cfg.x0) for cfg in cfgs}) != 1:
        raise ValueError("the test functions of one call must share one contour")

    try:
        branch = _branch_fwd(cfgs[0], points)
        derivatives = [_transform_derivatives(cfg, branch) for cfg in cfgs]
    except RadonError as err:
        raise _at_jet(err, points, "companion jet", given) from None
    fr = G.m.frame_at(points)
    G_lower = G.lower(fr.C)
    R = catalog.for_ode("conics5")["scalar_curvature"]
    results = []
    for cfg, per_jet in zip(cfgs, derivatives):
        values, grads, hessians = (np.array(part) for part in zip(*per_jet))
        covectors, laplacians = hor_operator(grads, hessians, fr.g_inv, fr.gamma, G_lower)
        denom = np.einsum("kb,kb->k", grads, grads)
        vnorm = np.linalg.norm(covectors, axis=1)
        small, vanished = denom < 1e-24, vnorm == 0.0
        if (small | vanished).any():
            j = int(np.argmax(small | vanished))
            err = RadonError(("gradient of F too small for a least-squares eigenvalue" if small[j]
                              else "operator value vanished; cannot form a relative residual")
                             + f" for the test function f = {cfg.f}", j)
            raise _at_jet(err, points, "given point" if j < given else "companion jet")
        lams = np.einsum("ka,ka->k", covectors, grads) / denom
        residuals = np.linalg.norm(covectors - lams[:, None] * grads, axis=1) / vnorm

        A = np.vstack([values, np.ones(len(points))]).T
        (mu, k), *_ = np.linalg.lstsq(A, laplacians, rcond=None)
        c_offset = float(k / mu) if mu != 0 else float("inf")
        lam = float(np.mean(lams))
        results.append(RadonVerification(
            str(cfg.f), points, values, grads, covectors, laplacians, lams, residuals, lam,
            float(lams.max() - lams.min()), float(mu), c_offset,
            abs(float(mu) - mu_lambda(lam, R))))
    return results


# ---------------------------------------------------------------------------
# check suites


def conic_checks(seed: int = DEFAULT_SEED) -> List[CheckRecord]:
    """Jet -> conic -> jet fidelity, including the catalogued examples."""
    checks: List[CheckRecord] = []

    for name, jet, ref, notes in (
            ("conic_circle_from_jet", {"y": 1.0, "p": 0.0, "q": -1.0, "r": 0.0, "s": -3.0},
             [1.0, 0, 1.0, 0, 0, -1.0], "unit-circle jet recovers x^2 + y^2 = 1"),
            ("conic_parabola_from_jet", {"y": 0.0, "p": 0.0, "q": 2.0, "r": 0.0, "s": 0.0},
             [1.0, 0, 0, 0, -0.5, 0], "")):
        v = np.array(conic_from_jet(jet, 0.0)[0].vector)
        ref = np.array(ref) / np.linalg.norm(ref)
        gap = min(np.max(np.abs(v - ref)), np.max(np.abs(v + ref)))
        checks.append(CheckRecord.from_residual(name, [gap], 1e-10, 1, seed, notes=notes,
                                                points=[jet]))

    rng = random.Random(seed)
    box = ((0.5, 1.5), (-0.5, 0.5), (1.0, 2.5), (-0.5, 0.5), (-0.5, 0.5))
    jets = [{c: rng.uniform(lo, hi) for c, (lo, hi) in zip(COORDS, box)} for _ in range(10)]
    _, _, gap, jet_checks = _conic_fwd(jets, 0.0, 0)  # one batch: the jets' round trips
    _raise_first(jet_checks)
    checks.append(CheckRecord.from_residual(
        "conic_jet_roundtrip", gap, 1e-10, 10, seed, points=jets))

    try:
        conic_from_jet({"y": 0.0, "p": 0.0, "q": 0.0, "r": 0.0, "s": 0.0}, 0.0)
        status = "fail"
    except RadonError:
        status = "pass"
    checks.append(CheckRecord(
        "conic_degenerate_jet_rejected", status, 0.0, 0.0, 1, seed,
        "an inflectional jet admits no conic branch"))
    return checks


def integration_cross_checks(ode5: JetOde, gn5: JetOde, seed: int = DEFAULT_SEED) -> List[CheckRecord]:
    """Exact conic evaluation vs the numeric jet integration, and the
    closed-form solution of the second fifth-order equation."""
    checks: List[CheckRecord] = []

    jet0 = {"y": 1.0, "p": 0.3, "q": 2.0, "r": 0.1, "s": -0.2}
    conic, branch = conic_from_jet(jet0, 0.0)
    num = integrate_ode(ode5, jet0, 0.0, 0.3, tol=1e-11)
    exact = conic_jet(conic, branch, 0.3)
    checks.append(CheckRecord.from_residual(
        "ode_integration_matches_conic",
        [[abs(num[c] - exact[c]) / (1.0 + abs(exact[c])) for c in COORDS]], 1e-8, 1, seed,
        points=[jet0]))

    # y = 1 + x^2 + (1+x)^(3/2) solves the s^2/r equation
    def closed(x):
        return {
            "y": 1 + x * x + (1 + x) ** 1.5,
            "p": 2 * x + 1.5 * (1 + x) ** 0.5,
            "q": 2 + 0.75 * (1 + x) ** (-0.5),
            "r": -0.375 * (1 + x) ** (-1.5),
            "s": 0.5625 * (1 + x) ** (-2.5),
        }

    num = integrate_ode(gn5, closed(0.0), 0.0, 0.5, tol=1e-11)
    ref = closed(0.5)
    checks.append(CheckRecord.from_residual(
        "ode_integration_matches_closed_form",
        [[abs(num[c] - ref[c]) / (1.0 + abs(ref[c])) for c in COORDS]], 1e-8, 1, seed,
        points=[closed(0.0)]))
    return checks


def _fd_derivatives(cfg: RadonConfig,
                    jet: Dict[str, float]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The finite-difference gradients of F at steps h and h/2 and the
    Hessian as differences of gradients at step h (`_fd_combine` over
    `_fd_stencil`), with each distinct jet of the 22 stencils evaluated once.

    The distinct jets run in order of first appearance, in the fewest
    batches of at most `_FD_BATCH`, of sizes that differ by one at most; a
    jet's value does not depend on its batch, so the results are bitwise
    those of one batch per stencil.  When a batch raises, the stencils are
    evaluated one batch each, in order, so the error is the one the first
    stencil holding a bad jet raises.
    """
    h = cfg.h
    outer = [(jet, h), (jet, h / 2)] + [(Xs, h) for Xs in _fd_stencil(jet, h)]
    at, distinct = _distinct_jets(_fd_stencil(X, step) for X, step in outer)
    batches = -(-len(distinct) // _FD_BATCH)
    bounds = [k * len(distinct) // batches for k in range(batches + 1)]
    try:
        values = []
        for lo, hi in zip(bounds, bounds[1:]):
            values.extend(radon_F_batch(cfg, [dict(zip(COORDS, key)) for key in distinct[lo:hi]]))
    except (RadonError, ExprError):
        for X, step in outer:
            stencil = _fd_stencil(X, step)
            try:
                radon_F_batch(cfg, stencil)
            except RadonError as err:
                raise _at_jet(err, stencil, "finite-difference stencil jet") from None
        raise
    g1, g2, *inner = (_fd_combine([values[i] for i in idx], step)
                      for idx, (_, step) in zip(at, outer))
    return g1, g2, _fd_combine(inner, h).T


def numerics_checks(cfg: RadonConfig, jet: Optional[Dict[str, float]] = None,
                    seed: int = DEFAULT_SEED) -> List[CheckRecord]:
    """Quadrature stability, reparametrisation invariance, finite-difference
    hygiene: the finite-difference gradient's change when its step is
    halved and the asymmetry of the finite-difference Hessian, neither
    compared with the exact derivatives.  The finite differences take each
    distinct jet of their 22 stencils once (`_fd_derivatives`)."""
    if jet is None:
        jet = default_test_jets()[0]
    checks: List[CheckRecord] = []

    F1 = radon_F(cfg, jet)
    F2 = radon_F(cfg, jet, order=2 * cfg.order)
    checks.append(CheckRecord.from_residual(
        "quadrature_order_stability", [abs(F1 - F2) / (1.0 + abs(F1))], 1e-10, 2, seed,
        points=[jet]))

    # same conic, jet carried to a shifted base point; contour fixed
    conic, branch = conic_from_jet(jet, cfg.x0)
    delta = 0.1
    shifted_jet = conic_jet(conic, branch, cfg.x0 + delta)
    cfg_shifted = replace(cfg, x0=cfg.x0 + delta)
    try:
        F3 = radon_F(cfg_shifted, shifted_jet)
    except RadonError as err:
        role = f"jet carried along its conic to x={cfg_shifted.x0}"
        raise _at_jet(err, [shifted_jet], role) from None
    checks.append(CheckRecord.from_residual(
        "reparametrisation_invariance", [abs(F1 - F3) / (1.0 + abs(F1))], 1e-9, 2, seed,
        notes="transform depends on the conic, not on the jet representative", points=[jet]))

    g1, g2, H = _fd_derivatives(cfg, jet)
    checks.append(CheckRecord.from_residual(
        "fd_gradient_step_doubling",
        [float(np.linalg.norm(g1 - g2)) / (float(np.linalg.norm(g1)) + 1e-300)],
        1e-5, 2, seed, points=[jet]))

    # Hessian asymmetry when built as differences of gradients (Richardson on
    # the outer difference too, so truncation does not masquerade as asymmetry)
    asym = float(np.max(np.abs(H - H.T))) / (float(np.max(np.abs(H))) + 1e-300)
    checks.append(CheckRecord.from_residual(
        "fd_hessian_symmetry", [asym], 1e-6, 1, seed, points=[jet]))
    return checks


def system_checks(
    G: GTensor,
    f_texts: Sequence[str] = ("1", "x", "y", "x*y"),
    interval: Tuple[float, float] = (-0.8, 0.8),
    points: Optional[Sequence[Dict[str, float]]] = None,
) -> List[CheckRecord]:
    """The eigen-system residuals for a family of test functions, recorded
    under the seed of the solve that G's metric was built from."""
    seed = G.m.pd.seed
    if points is None:
        points = default_test_jets()
    checks: List[CheckRecord] = []
    cfgs = [RadonConfig(f=parse(text), x_a=interval[0], x_b=interval[1]) for text in f_texts]
    vers = verify_system(cfgs, points, G)
    for text, ver in zip(f_texts, vers):
        tag = text.replace("*", "")
        checks.append(CheckRecord.from_residual(
            f"system_residual_f_{tag}", ver.residuals, 1e-4, len(ver.jets), seed,
            notes=f"lambda_hat = {ver.lam:.6f}", points=ver.jets))
    # the spread of lambda as each sample's height above the smallest
    lams = np.concatenate([ver.lams for ver in vers])
    checks.append(CheckRecord.from_residual(
        "lambda_point_to_point_spread", lams - np.min(lams), 1e-3, len(lams), seed,
        points=[jet for ver in vers for jet in ver.jets]))
    # the samples of the relation are the test functions
    checks.append(CheckRecord.from_residual(
        "eigenvalue_relation_mu_6lam2_R10", [ver.relation_gap for ver in vers], 1e-3,
        len(f_texts), seed, notes="mu vs 6 lambda^2 + R/10 at R = -60",
        points=[{"f": text} for text in f_texts]))
    return checks
