"""Jet-space formalism for 4th/5th-order scalar ODEs.

An ODE y^(n) = Lambda(x, y, y', ..., y^(n-1)) is carried as its right-hand
side over the jet variables (x, y, p, q, r[, s]).  The total derivative D
differentiates along solutions; the prolongation field is D restricted to the
frozen-x moduli coordinates.  `flow_series` gives the jet variables' Taylor
series along the solutions through points, the seeds of an
`Evaluator.eval_points` pass on `Taylor` numbers that yields D^k e / k! at
the points for every expression e (its degree 1 is the direction of D).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple, Union

import numpy as np

from .expr import (
    EvalError,
    Evaluator,
    Expr,
    InputError,
    Pow,
    SampleDomain,
    Var,
    add,
    diff,
    equiv,
    free_variables,
    mul,
    parse,
    topo_order,
    var,
)

JET_VARS_5 = ("x", "y", "p", "q", "r", "s")
JET_VARS_4 = ("x", "y", "p", "q", "r")


class JetError(InputError):
    pass


def _w_resolve(point: dict) -> dict:
    # y is chosen so that x*p - y lands in the sampled w-interval
    w = point.pop("w")
    point["y"] = point["x"] * point["p"] - w
    return point


def _domain_for(order: int, positive: Sequence[str], x_dependent: bool) -> SampleDomain:
    """Default sampling box: fractional-power bases strictly positive, the
    rest in a generic box away from coordinate degeneracies."""
    intervals = {}
    coords = ("y", "p", "q", "r", "s")[: order]
    for c in ("x",) + coords if x_dependent else coords:
        intervals[c] = (0.5, 2.0) if c in positive or c in ("q", "r") else (-1.0, 1.0)
    if not x_dependent:
        intervals["x"] = (-0.25, 0.25)
    if "w" in positive:
        intervals.pop("y", None)
        intervals["w"] = (0.5, 2.0)
        intervals["x"] = (0.5, 2.0)
        intervals["p"] = (0.5, 2.0)
        return SampleDomain(
            tuple((k, lo, hi) for k, (lo, hi) in sorted(intervals.items())),
            resolve=_w_resolve,
        )
    return SampleDomain(tuple((k, lo, hi) for k, (lo, hi) in sorted(intervals.items())))


@dataclass(frozen=True)
class JetOde:
    """ODE of order 4 or 5 given by its right-hand side expression."""

    name: str
    order: int
    rhs: Expr
    domain: SampleDomain

    def __post_init__(self):
        if self.order not in (4, 5):
            raise JetError(f"unsupported order {self.order}; only 4 and 5 are handled")
        extra = free_variables(self.rhs) - set(self.jet_vars)
        if extra:
            raise JetError(f"rhs uses variables {sorted(extra)} outside the jet variables")

    @property
    def jet_vars(self) -> tuple:
        return JET_VARS_5 if self.order == 5 else JET_VARS_4

    @property
    def coords(self) -> tuple:
        """Moduli coordinates: the frozen-x jet (y, p, q, r[, s])."""
        return self.jet_vars[1:]

    def __repr__(self):
        return f"JetOde({self.name!r}, order={self.order})"


def total_derivative(e: Expr, ode: JetOde) -> Expr:
    """D = d_x + p d_y + q d_p + r d_q (+ s d_r) + Lambda d_last."""
    coords = ode.jet_vars
    shifted = list(coords[2:]) + [None]
    terms = [diff(e, "x")]
    for c, nxt in zip(coords[1:], shifted):
        de = diff(e, c)
        vel = ode.rhs if nxt is None else var(nxt)
        terms.append(mul(vel, de))
    return add(*terms)


def prolongation(ode: JetOde) -> Tuple[Expr, ...]:
    """Components of the shift field (p, q, r[, s], Lambda) on the moduli
    coordinates, in coordinate order."""
    return tuple(var(c) for c in ode.jet_vars[2:]) + (ode.rhs,)


def flow_series(ode: JetOde, points: Sequence[dict], degree: int) -> list:
    """The Taylor coefficients of degrees 1 .. `degree` of every jet variable
    along the solution through each point, in powers of x - x0: one mapping
    per point from a variable to its coefficients, as `Evaluator.eval_points`
    takes a `Taylor` number's seeds.  A series pass seeded with them gives
    the series of any expression along the solutions; degree 1 is the
    direction of the total derivative D.

    x -> (1, 0, ...).  A coordinate's coefficient of degree k + 1 is the next
    coordinate's of degree k over k + 1, and the last coordinate's is the
    rhs's of degree k over k + 1.  The rhs's needs the coordinates to degree
    k only, so `degree` passes of the rhs program, on Taylor numbers of
    degrees 0 .. degree - 1, give every coefficient."""
    coords = ode.coords
    ev = Evaluator([var(c) for c in coords[1:]] + [ode.rhs])
    x = (1.0,) + (0.0,) * degree
    series = np.empty((len(coords), degree, len(points)))   # [coordinate, degree - 1, point]
    for k in range(degree):
        seeds = [{"x": x[:k], **dict(zip(coords, series[:, :k, i]))} for i in range(len(points))]
        series[:, k] = ev.eval_points(points, seeds, series=True).coef[k] / (k + 1)
    return [{"x": x[:degree], **{c: tuple(row.tolist()) for c, row in zip(coords, series[..., i])}}
            for i in range(len(points))]


_BUILTINS = {
    "conics5": (
        5,
        "-(40/9)*r^3/q^2 + 5*r*s/q",
        ("q",),
        False,
    ),
    "gn5": (
        5,
        "(5/3)*s^2/r",
        ("r",),
        False,
    ),
    "conics4": (
        4,
        "4*r^2/(3*q) + (2*x*q*r + 6*q^2)/(x*p - y) - 3*x^2*q^3/(x*p - y)^2",
        ("q", "w"),
        True,
    ),
}


def builtin(name: str) -> JetOde:
    """Built-in equations: conics5 (all conics), gn5, conics4 (conics through
    a fixed point)."""
    try:
        order, rhs_text, positive, x_dep = _BUILTINS[name]
    except KeyError:
        raise JetError(f"unknown builtin ODE {name!r}; choices: {sorted(_BUILTINS)}") from None
    return JetOde(name, order, parse(rhs_text), _domain_for(order, positive, x_dep))


def builtin_names() -> tuple:
    return tuple(sorted(_BUILTINS))


def load_ode_file(path: Union[str, Path]) -> JetOde:
    """Read an ODE definition file: `key = value` lines with keys name,
    order, rhs; '#' starts a comment."""
    text = Path(path).read_text(encoding="utf-8")
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise JetError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        fields[key.strip().lower()] = value.strip()
    missing = {"name", "order", "rhs"} - set(fields)
    if missing:
        raise JetError(f"{path}: missing keys {sorted(missing)}")
    try:
        order = int(fields["order"])
    except ValueError:
        raise JetError(f"{path}: order must be an integer") from None
    rhs = parse(fields["rhs"])
    x_dep = "x" in free_variables(rhs)
    return JetOde(fields["name"], order, rhs, _domain_for(order, _fractional_bases(rhs), x_dep))


def _fractional_bases(e: Expr) -> tuple:
    """Variables that are the direct base of a fractional power in e."""
    return tuple(sorted({n.base.name for n in topo_order([e])
                         if isinstance(n, Pow) and n.exponent.denominator != 1
                         and isinstance(n.base, Var)}))


def resolve_ode(name_or_path: str) -> JetOde:
    """A builtin name, or a path to an ODE definition file.

    A file whose order and rhs agree with a built-in's (`equiv` on the
    built-in's domain) resolves to that built-in, so the suites and catalogued
    forms keyed on its name apply; a file that takes a built-in's name for
    another equation is refused."""
    if name_or_path in _BUILTINS:
        return builtin(name_or_path)
    p = Path(name_or_path)
    if not p.exists():
        raise JetError(f"unknown ODE {name_or_path!r}: not a builtin "
                       f"({', '.join(builtin_names())}) and no such file")
    ode = load_ode_file(p)
    for known in map(builtin, builtin_names()):
        try:
            if known.order == ode.order and equiv(ode.rhs, known.rhs, known.domain).passed:
                return known
        except EvalError:
            pass  # not even defined where the built-in is
    if ode.name in _BUILTINS:
        raise JetError(f"{p}: named {ode.name!r}, but its equation is not the "
                       f"built-in {ode.name} equation")
    return ode
