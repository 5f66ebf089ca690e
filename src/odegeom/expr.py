"""Symbolic expression core.

Expressions are immutable trees over a fixed variable alphabet with exact
rational constants and exact rational exponents.  There is deliberately no
canonical simplification: identities between expressions are certified by
randomized point sampling over a box on which all fractional-power bases are
positive.  `equiv_all` is the one identity test: it compiles every pair of a
check into one `Evaluator` and evaluates them in one vectorised pass over a
shared sample set, each pair still a separate test with its own residual;
`equiv` is its one-pair case.  Constructors only do cheap local folding
(constants, neutral elements, nested sums/products) to keep trees small.

Large expressions built here share subtrees freely, so evaluation and
differentiation treat an expression as a DAG: both are iterative and memoize
on node identity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

VARIABLES = ("x", "y", "p", "q", "r", "s")

DEFAULT_SEED = 0x5EED
DEFAULT_SAMPLES = 50
DEFAULT_REL_TOL = 1e-9

Rational = Union[int, Fraction]
Number = Union[int, float, Fraction]


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    """Syntax or lexical error, with position information."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    """Numeric evaluation failure; carries the offending assignment."""

    def __init__(self, message: str, point: Optional[Mapping[str, float]] = None):
        if point is not None:
            message = f"{message} at point {dict(sorted(point.items()))}"
        super().__init__(message)
        self.point = dict(point) if point is not None else None


class Expr:
    """Immutable expression node.  Subclasses: Const, Var, Sum, Prod, Pow, Neg."""

    __slots__ = ()

    # Identity-based hashing/equality: big shared DAGs must never be compared
    # structurally by accident.  Use structurally_equal() for that.

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"<Expr {to_string(self)}>"

    def children(self) -> tuple:
        return ()


class Const(Expr):
    __slots__ = ("value", "fvalue")

    def __init__(self, value: Rational):
        value = Fraction(value)
        try:
            fvalue = float(value)
        except OverflowError:
            raise ExprError("constant too large for a float") from None
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "fvalue", fvalue)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in VARIABLES:
            raise ExprError(f"unknown variable {name!r}; alphabet is {VARIABLES}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")


class Sum(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def children(self):
        return self.terms


class Prod(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def children(self):
        return self.factors


class Pow(Expr):
    """base ** exponent with an exact rational exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Fraction):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", Fraction(exponent))

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def children(self):
        return (self.base,)


class Neg(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        object.__setattr__(self, "child", child)

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def children(self):
        return (self.child,)


ZERO = Const(0)
ONE = Const(1)

_VAR_CACHE = {name: Var(name) for name in VARIABLES}


def var(name: str) -> Var:
    try:
        return _VAR_CACHE[name]
    except KeyError:
        raise ExprError(f"unknown variable {name!r}; alphabet is {VARIABLES}") from None


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(value)
    raise TypeError(f"cannot coerce {value!r} to Expr (floats are not exact)")


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0


def add(*terms) -> Expr:
    """Sum with flattening, constant folding and zero elimination."""
    flat = []
    acc = Fraction(0)
    stack = [as_expr(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack.extend(reversed(t.terms))
        elif isinstance(t, Const):
            acc += t.value
        else:
            flat.append(t)
    if acc != 0:
        flat.append(Const(acc))
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors) -> Expr:
    """Product with flattening, constant folding, and 0/1 elimination."""
    flat = []
    acc = Fraction(1)
    stack = [as_expr(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if isinstance(f, Prod):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Const):
            acc *= f.value
        elif isinstance(f, Neg):
            acc = -acc
            stack.append(f.child)
        else:
            flat.append(f)
    if acc == 0:
        return ZERO
    if not flat:
        return Const(acc)
    if acc != 1:
        flat.insert(0, Const(acc))
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def _rational_root(value: Fraction, exponent: Fraction) -> Optional[Fraction]:
    """Exact value**exponent if it is rational, else None."""
    if value == 0:
        return Fraction(0) if exponent > 0 else None
    if exponent.denominator == 1:
        return value ** exponent.numerator if value != 0 else Fraction(0)
    if value < 0:
        return None

    def int_root(n: int, k: int) -> Optional[int]:
        try:
            r = round(n ** (1.0 / k))
        except OverflowError:
            # too large to estimate in floats; the power is left unfolded
            return None
        for c in (r - 1, r, r + 1):
            if c >= 0 and c ** k == n:
                return c
        return None

    num = int_root(value.numerator, exponent.denominator)
    den = int_root(value.denominator, exponent.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den) ** exponent.numerator


def pow_(base, exponent) -> Expr:
    """base**exponent with exact rational exponent.

    Nested powers are combined ((u^a)^b -> u^(ab)); this is sound because all
    sampling domains keep fractional-power bases strictly positive.
    """
    base = as_expr(base)
    if isinstance(exponent, Expr):
        if not isinstance(exponent, Const):
            raise ExprError("exponents must be rational constants")
        exponent = exponent.value
    exponent = Fraction(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        folded = _rational_root(base.value, exponent)
        if folded is not None:
            return Const(folded)
        if base.value < 0:
            raise ExprError(
                f"negative constant base {base.value} under fractional exponent {exponent}"
            )
        return Pow(base, exponent)
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * exponent)
    return Pow(base, exponent)


def neg(e) -> Expr:
    e = as_expr(e)
    if isinstance(e, Neg):
        return e.child
    if isinstance(e, Const):
        return Const(-e.value)
    return Neg(e)


def div(a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    if isinstance(b, Const):
        if b.value == 0:
            raise ExprError("division by constant zero")
        return mul(Const(Fraction(1) / b.value), a)
    return mul(a, pow_(b, Fraction(-1)))


# ---------------------------------------------------------------------------
# traversal, printing, structural comparison


def topo_order(roots: Sequence[Expr]) -> list:
    """Children-first topological order of the expression DAG under roots."""
    order: list = []
    seen = set()
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in reversed(node.children()):
            if id(child) not in seen:
                stack.append((child, False))
    return order


def free_variables(e: Expr) -> set:
    return {n.name for n in topo_order([e]) if isinstance(n, Var)}


def _fmt_fraction(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def to_string(e: Expr) -> str:
    """ASCII infix form; parse(to_string(e)) is structurally equal to e."""
    if isinstance(e, Const):
        s = _fmt_fraction(e.value)
        return s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_string(e.child)
        # parens keep reparsing from folding the sign into a product
        if isinstance(e.child, (Sum, Prod)):
            return f"-({inner})"
        return f"-{inner}"
    if isinstance(e, Sum):
        parts = []
        for i, t in enumerate(e.terms):
            if i == 0:
                parts.append(to_string(t))
            elif isinstance(t, Neg):
                parts.append(f" - {to_string(t.child) if not isinstance(t.child, Sum) else '(' + to_string(t.child) + ')'}")
            elif isinstance(t, Const) and t.value < 0:
                parts.append(f" - {_fmt_fraction(-t.value)}")
            else:
                parts.append(f" + {to_string(t)}")
        return "".join(parts)
    if isinstance(e, Prod):
        parts = []
        for f in e.factors:
            s = to_string(f)
            if isinstance(f, (Sum, Neg)) or (isinstance(f, Const) and (f.value < 0 or f.value.denominator != 1)):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(e, Pow):
        base = to_string(e.base)
        if isinstance(e.base, (Sum, Prod, Neg, Pow)) or (
            isinstance(e.base, Const) and (e.base.value < 0 or e.base.value.denominator != 1)
        ):
            base = f"({base})"
        exp = _fmt_fraction(e.exponent)
        if e.exponent < 0 or e.exponent.denominator != 1:
            exp = f"({exp})"
        return f"{base}^{exp}"
    raise TypeError(f"unknown node {type(e).__name__}")


def structurally_equal(a: Expr, b: Expr) -> bool:
    """Structural equality on trees (memoized on id pairs)."""
    memo: set = set()

    def walk(u: Expr, v: Expr) -> bool:
        if u is v or (id(u), id(v)) in memo:
            return True
        if type(u) is not type(v):
            return False
        if isinstance(u, Const):
            ok = u.value == v.value
        elif isinstance(u, Var):
            ok = u.name == v.name
        elif isinstance(u, Pow):
            ok = u.exponent == v.exponent and walk(u.base, v.base)
        else:
            cu, cv = u.children(), v.children()
            ok = len(cu) == len(cv) and all(walk(x, y) for x, y in zip(cu, cv))
        if ok:
            memo.add((id(u), id(v)))
        return ok

    return walk(a, b)


# ---------------------------------------------------------------------------
# parsing


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list = []
        self._lex()
        self.index = 0

    def _lex(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit() or ch == ".":
                j = i
                seen_dot = False
                while j < len(text) and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                    if text[j] == ".":
                        seen_dot = True
                    j += 1
                lit = text[i:j]
                if lit == ".":
                    raise ParseError("malformed number", i)
                self.tokens.append(("num", lit, i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", len(text)))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Parser:
    """Recursive descent over: sum -> term -> unary -> power -> atom.

    `^` binds tightest and is right-associative; its right operand must fold
    to a rational constant.  Unary minus binds looser than `^`, so -q^2 is
    -(q^2).
    """

    def __init__(self, text: str):
        self.lex = _Lexer(text)

    def parse(self) -> Expr:
        e = self.sum()
        kind, val, pos = self.lex.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return e

    def sum(self) -> Expr:
        terms = [self.term()]
        while True:
            kind, _, _ = self.lex.peek()
            if kind == "+":
                self.lex.next()
                terms.append(self.term())
            elif kind == "-":
                self.lex.next()
                terms.append(neg(self.term()))
            else:
                break
        return add(*terms)

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, _, pos = self.lex.peek()
            if kind == "*":
                self.lex.next()
                e = mul(e, self.unary())
            elif kind == "/":
                self.lex.next()
                rhs = self.unary()
                if isinstance(rhs, Const) and rhs.value == 0:
                    raise ParseError("zero denominator", pos)
                e = div(e, rhs)
            else:
                break
        return e

    def unary(self) -> Expr:
        kind, _, _ = self.lex.peek()
        if kind == "-":
            self.lex.next()
            return neg(self.unary())
        if kind == "+":
            self.lex.next()
            return self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, _, pos = self.lex.peek()
        if kind == "^":
            self.lex.next()
            exponent = self.exponent_operand()
            if not isinstance(exponent, Const):
                raise ParseError("exponent must be a rational constant", pos)
            try:
                return pow_(base, exponent.value)
            except ExprError as err:
                raise ParseError(str(err), pos) from None
        return base

    def exponent_operand(self) -> Expr:
        # sign then a power (right associativity of ^)
        kind, _, _ = self.lex.peek()
        if kind == "-":
            self.lex.next()
            return neg(self.exponent_operand())
        return self.power()

    def atom(self) -> Expr:
        kind, val, pos = self.lex.next()
        if kind == "num":
            if "." in val:
                return Const(Fraction(val))
            return Const(int(val))
        if kind == "name":
            if val not in VARIABLES:
                raise ParseError(f"unknown variable {val!r}", pos)
            return var(val)
        if kind == "(":
            e = self.sum()
            kind2, _, pos2 = self.lex.next()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return e
        raise ParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def parse(text: str) -> Expr:
    """Parse infix arithmetic over the fixed variable alphabet."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# differentiation


def diff(e: Expr, v: Union[str, Var]) -> Expr:
    """Exact partial derivative; iterative over the DAG, memoized per node."""
    name = v.name if isinstance(v, Var) else v
    if name not in VARIABLES:
        raise ExprError(f"unknown variable {name!r}")
    memo: dict = {}
    order = topo_order([e])
    for node in order:
        if isinstance(node, Const):
            d = ZERO
        elif isinstance(node, Var):
            d = ONE if node.name == name else ZERO
        elif isinstance(node, Neg):
            d = neg(memo[id(node.child)])
        elif isinstance(node, Sum):
            d = add(*[memo[id(t)] for t in node.terms])
        elif isinstance(node, Prod):
            terms = []
            factors = node.factors
            for i, f in enumerate(factors):
                df = memo[id(f)]
                if _is_zero(df):
                    continue
                rest = factors[:i] + factors[i + 1:]
                terms.append(mul(df, *rest))
            d = add(*terms) if terms else ZERO
        elif isinstance(node, Pow):
            db = memo[id(node.base)]
            if _is_zero(db):
                d = ZERO
            else:
                d = mul(Const(node.exponent), pow_(node.base, node.exponent - 1), db)
        else:
            raise TypeError(f"unknown node {type(node).__name__}")
        memo[id(node)] = d
    return memo[id(e)]


# ---------------------------------------------------------------------------
# evaluation


# opcodes for the compiled evaluation program
_OP_CONST, _OP_VAR, _OP_NEG, _OP_SUM, _OP_PROD, _OP_IPOW, _OP_FPOW = range(7)


class Evaluator:
    """Compiled evaluator for a batch of expressions sharing one DAG.

    The topological order is fixed once into a flat slot program; evaluation
    runs either per point (floats) or vectorised over many points (numpy),
    which is what makes 50-point identity sampling on large expressions
    cheap.
    """

    def __init__(self, exprs: Sequence[Expr]):
        self.exprs = list(exprs)
        order = topo_order(self.exprs)
        slot = {}
        prog = []
        for i, node in enumerate(order):
            slot[id(node)] = i
            if isinstance(node, Const):
                prog.append((_OP_CONST, node.fvalue, None))
            elif isinstance(node, Var):
                prog.append((_OP_VAR, node.name, None))
            elif isinstance(node, Neg):
                prog.append((_OP_NEG, slot[id(node.child)], None))
            elif isinstance(node, Sum):
                prog.append((_OP_SUM, tuple(slot[id(t)] for t in node.terms), None))
            elif isinstance(node, Prod):
                prog.append((_OP_PROD, tuple(slot[id(f)] for f in node.factors), None))
            elif isinstance(node, Pow):
                if node.exponent.denominator == 1:
                    prog.append((_OP_IPOW, slot[id(node.base)], node.exponent.numerator))
                else:
                    prog.append((_OP_FPOW, slot[id(node.base)], float(node.exponent)))
            else:
                raise TypeError(f"unknown node {type(node).__name__}")
        self._prog = prog
        self._outs = [slot[id(e)] for e in self.exprs]

    def __call__(self, assignment: Mapping[str, float]) -> list:
        vals: list = [0.0] * len(self._prog)
        for i, (op, a, b) in enumerate(self._prog):
            if op == _OP_CONST:
                v = a
            elif op == _OP_VAR:
                try:
                    v = float(assignment[a])
                except KeyError:
                    raise EvalError(f"missing variable {a!r}", assignment) from None
            elif op == _OP_NEG:
                v = -vals[a]
            elif op == _OP_SUM:
                v = 0.0
                for t in a:
                    v += vals[t]
            elif op == _OP_PROD:
                v = 1.0
                for f in a:
                    v *= vals[f]
            elif op == _OP_IPOW:
                base = vals[a]
                if base == 0.0 and b < 0:
                    raise EvalError("division by zero in integer power", assignment)
                try:
                    v = base ** b
                except OverflowError:
                    v = math.inf  # rejected below like any other overflow
            else:
                base = vals[a]
                if base < 0.0:
                    raise EvalError(
                        f"negative base {base!r} under fractional exponent {b}", assignment
                    )
                if base == 0.0 and b < 0:
                    raise EvalError("zero base with negative exponent", assignment)
                try:
                    v = base ** b
                except OverflowError:
                    v = math.inf
            if not math.isfinite(v):
                raise EvalError("non-finite value during evaluation", assignment)
            vals[i] = v
        return [vals[o] for o in self._outs]

    def eval_points(self, points: Sequence[Mapping[str, float]]):
        """Vectorised evaluation: returns an array of shape (n_exprs, n_points).
        Raises `EvalError` wherever the scalar path does."""
        n = len(points)
        arrays: dict = {}
        vals: list = [None] * len(self._prog)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for i, (op, a, b) in enumerate(self._prog):
                if op == _OP_CONST:
                    v = np.full(n, a)
                elif op == _OP_VAR:
                    if a not in arrays:
                        try:
                            arrays[a] = np.array([float(pt[a]) for pt in points])
                        except KeyError:
                            raise EvalError(f"missing variable {a!r}", points[0]) from None
                    v = arrays[a]
                elif op == _OP_NEG:
                    v = -vals[a]
                elif op == _OP_SUM:
                    v = vals[a[0]].copy()
                    for t in a[1:]:
                        v += vals[t]
                elif op == _OP_PROD:
                    v = vals[a[0]].copy()
                    for f in a[1:]:
                        v *= vals[f]
                else:
                    base = vals[a]
                    if op == _OP_FPOW and np.any(base < 0.0):
                        bad = int(np.argmax(base < 0.0))
                        raise EvalError(
                            f"negative base under fractional exponent {b}", points[bad]
                        )
                    # the one place a zero or non-finite intermediate can turn
                    # finite again (1/inf == 0), so the only one tested
                    # before the outputs
                    if b < 0 and not (base.all() and np.isfinite(base).all()):
                        bad = int(np.argmax((base == 0.0) | ~np.isfinite(base)))
                        raise EvalError(
                            "zero or non-finite base under a negative exponent", points[bad]
                        )
                    v = base ** b
                vals[i] = v
        out = np.vstack([vals[o] for o in self._outs]) if self._outs else np.zeros((0, n))
        finite = np.isfinite(out)
        if not finite.all():
            bad = int(np.argmax(~finite.all(axis=0)))
            raise EvalError("non-finite value during evaluation", points[bad])
        return out


def evaluate(e: Expr, assignment: Mapping[str, float]) -> float:
    """IEEE double evaluation of e under a full assignment."""
    return Evaluator([e])(assignment)[0]


# ---------------------------------------------------------------------------
# sampling domains and randomized equivalence


@dataclass(frozen=True)
class SampleDomain:
    """Per-variable closed intervals, with an optional resolver for derived
    variables (used when a combination like x*p - y must stay in a box)."""

    intervals: tuple  # ((name, lo, hi), ...)
    resolve: Optional[Callable[[dict], dict]] = None

    def __post_init__(self):
        for name, lo, hi in self.intervals:
            if not lo < hi:
                raise ExprError(f"degenerate interval for {name}: [{lo}, {hi}]")

    @staticmethod
    def box(**kw) -> "SampleDomain":
        return SampleDomain(tuple((k, float(v[0]), float(v[1])) for k, v in sorted(kw.items())))

    def sample(self, rng: random.Random) -> dict:
        point = {name: rng.uniform(lo, hi) for name, lo, hi in self.intervals}
        if self.resolve is not None:
            point = self.resolve(point)
        return point


@dataclass(frozen=True)
class EquivResult:
    passed: bool
    max_residual: float
    samples: int
    tolerance: float
    seed: int
    worst_point: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed


def equiv_all(
    pairs: Iterable[Tuple[Expr, Expr]],
    dom: SampleDomain,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_REL_TOL,
    seed: int = DEFAULT_SEED,
) -> EquivResult:
    """Randomized identity test: e1 == e2 on dom, for every pair (e1, e2).

    A pair passes iff |e1 - e2| <= tol * (1 + max(|e1|, |e2|)) at all n
    uniformly sampled points; the result passes iff every pair does, with the
    largest residual and its point.  The pairs share one sample set and one
    vectorised pass, each still its own test.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise ExprError("equiv needs n >= 1 samples")
    exprs = [as_expr(e) for pair in pairs for e in pair]
    if not exprs:
        raise ExprError("equiv_all needs at least one pair")
    rng = random.Random(seed)
    points = [dom.sample(rng) for _ in range(n)]
    vals = Evaluator(exprs).eval_points(points)
    v1, v2 = vals[0::2], vals[1::2]
    residuals = np.abs(v1 - v2) / (1.0 + np.maximum(np.abs(v1), np.abs(v2)))
    k, i = np.unravel_index(int(np.argmax(residuals)), residuals.shape)
    worst = float(residuals[k, i])
    return EquivResult(worst <= tol, worst, n, tol, seed, points[i])


def equiv(
    e1: Expr,
    e2: Expr,
    dom: SampleDomain,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_REL_TOL,
    seed: int = DEFAULT_SEED,
) -> EquivResult:
    """Randomized identity test of one pair: `equiv_all` on [(e1, e2)]."""
    return equiv_all([(e1, e2)], dom, n=n, tol=tol, seed=seed)
