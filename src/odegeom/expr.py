"""Symbolic expression core.

Expressions are immutable trees over a fixed variable alphabet with exact
rational constants and exact rational exponents.  There is deliberately no
canonical simplification: identities between expressions are certified by
randomized point sampling over a box on which all fractional-power bases are
positive.  `equiv_each` is the one identity test: it compiles every pair it
is given into one `Evaluator`, evaluates them in one vectorised pass over a
shared sample set and returns one result per pair, each pair still a
separate test with its own residual; `equiv_all` (all pairs of one check)
and `equiv` (one pair) reduce its results.  They decide the solve (the
exponent fit, the Q pivot) and match a file to a built-in; a report's rows
are made by `report.values_check` at the solve's points, under the same
`relative_residual`.  Constructors only do cheap local
folding (constants, neutral elements, nested sums/products) to keep trees
small.

Nodes are hash-consed: every constructor looks its (type, children, exact
value or exponent) key up in a weak-value intern table and returns the live
node with that key if there is one, so structurally equal expressions are one
object and `is` is structural equality.  Operands keep the order they were
built in (no canonical sorting), so each node is evaluated with the same
float operations as its tree form, only once.  Evaluation and differentiation
treat an expression as a DAG and are iterative.

`Evaluator` compiles expressions into a flat slot program, and
`eval_points` is the one loop that runs it: on Python floats at a lone point
(cheaper, and rounded as Python's `**` rounds), on numpy arrays for a larger
batch, whose points it takes as mappings or as one float column per
variable.  Every error names the first point that fails.  The loop is written
with the arithmetic operators only, so the number type is pluggable: given a
tangent per variable, it runs on `Jet1` numbers (first-order forward mode,
Griewank & Walther, *Evaluating Derivatives*, ch. 3); given seeds along
d directions, on `Jet2` numbers (second order, ch. 13: gradients and
Hessians along the directions); and given a variable's Taylor coefficients
along one direction, on `Taylor` numbers (truncated Taylor series to any
degree, ch. 13: along the flow of an ODE, the total derivatives D^k / k!).
Their value parts are computed by the very operations of a plain pass.
`Jet1` stays apart from the degree-1 `Taylor` number: its products and
power rule are the cheaper ones of the first-order metric pass, whose bits
they fix.

Every node carries its support: `mask`, a bitmask of the variables it
contains (bit i for VARIABLES[i]), computed once when the node is first
built, from its children's masks.  `free_variables` reads it, and `diff`
uses it to skip work whose result is known: the derivative of a node free of
the variable is 0.  `diff` keeps a persistent memo per variable, keyed weakly
on the interned node: a derivative taken once (by a total derivative, a
frame row or a metric table) is reused by every later call, which walks only
the nodes that contain the variable and were not differentiated before.
Nodes free of the variable are neither walked nor memoized.

`add`, `mul` and `neg` are the only builders of sums, products and
negations, and they keep three invariants that let `add` and `mul` flatten
their operands one level only:

  * a `Sum`'s terms hold no `Sum`, and at most one `Const`, the last term,
    which is not 0;
  * a `Prod`'s factors hold no `Prod` and no `Neg`, and at most one `Const`,
    the first factor, which is neither 0 nor 1;
  * a `Neg` never wraps a `Neg` or a `Const`.

A lone constant operand is reused as it is; only two or more constants (or
a sign) are folded with `Fraction` arithmetic.

Nested powers (u^a)^b are combined into u^(ab) only when b is an integer or
a is not.  An integer power under a fractional one, such as (p^2)^(1/2), is
kept as it is: p^2 is never negative, while p can be.  When a is fractional,
u^a already requires u > 0 wherever it is evaluated, and there u^(ab) is
exact.
"""

from __future__ import annotations

import contextlib
import math
import random
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

VARIABLES = ("x", "y", "p", "q", "r", "s")

DEFAULT_SEED = 0x5EED
DEFAULT_SAMPLES = 50
DEFAULT_REL_TOL = 1e-9

Rational = Union[int, Fraction]
Number = Union[int, float, Fraction]


class InputError(Exception):
    """Base class of the errors that invalid input raises, anywhere in the
    pipeline; the command line reports one and exits 2."""


class ExprError(InputError):
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
    """Immutable, interned expression node.  Subclasses: Const, Var, Sum,
    Prod, Pow, Neg.

    Each constructor returns the one live node with its (type, children,
    value) key, so structurally equal expressions are the same object and
    `is` is structural equality.  Hashing and `==` stay those of `object`:
    on interned nodes identity is the structural comparison, in O(1)."""

    __slots__ = ("__weakref__", "mask")

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

    def __setattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def __delattr__(self, *a):
        raise AttributeError("Expr nodes are immutable")

    def children(self) -> tuple:
        return ()


# (class, children..., exact value or exponent) -> the live node with that
# key.  The table holds its nodes weakly: a node leaves it when the last
# expression using it is gone.
_INTERN: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def _interned(cls, key: tuple, children: tuple, **fields) -> Expr:
    node = _INTERN.get(key)
    if node is None:
        node = object.__new__(cls)
        mask = 0
        for child in children:
            mask |= child.mask
        object.__setattr__(node, "mask", mask)
        for name, value in fields.items():
            object.__setattr__(node, name, value)
        _INTERN[key] = node
    return node


class Const(Expr):
    __slots__ = ("value", "fvalue")

    def __new__(cls, value: Rational):
        # an int or Fraction key finds the node of the equal Fraction
        node = _INTERN.get((cls, value))
        if node is not None:
            return node
        value = Fraction(value)
        try:
            fvalue = float(value)
        except OverflowError:
            raise ExprError("constant too large for a float") from None
        return _interned(cls, (cls, value), (), value=value, fvalue=fvalue)


class Var(Expr):
    """A jet variable; `Var(name)` is the `var(name)` singleton."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        return var(name)


class Sum(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        terms = tuple(terms)
        return _interned(cls, (cls, terms), terms, terms=terms)

    def children(self):
        return self.terms


class Prod(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple):
        factors = tuple(factors)
        return _interned(cls, (cls, factors), factors, factors=factors)

    def children(self):
        return self.factors


class Pow(Expr):
    """base ** exponent with an exact rational exponent."""

    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Fraction):
        exponent = Fraction(exponent)
        return _interned(cls, (cls, base, exponent), (base,), base=base, exponent=exponent)

    def children(self):
        return (self.base,)


class Neg(Expr):
    __slots__ = ("child",)

    def __new__(cls, child: Expr):
        return _interned(cls, (cls, child), (child,), child=child)

    def children(self):
        return (self.child,)


ZERO = Const(0)
ONE = Const(1)


# variable name -> its bit in a node's mask
_VAR_BIT = {name: 1 << i for i, name in enumerate(VARIABLES)}


def _make_var(name: str) -> Var:
    node = object.__new__(Var)
    object.__setattr__(node, "mask", _VAR_BIT[name])
    object.__setattr__(node, "name", name)
    return node


_VAR_CACHE = {name: _make_var(name) for name in VARIABLES}


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


def add(*terms) -> Expr:
    """Sum with flattening, constant folding and zero elimination.

    Operand sums are flattened one level: their terms are flat already."""
    flat = []
    consts = []
    for t in terms:
        t = as_expr(t)
        kind = type(t)
        if kind is Sum:
            last = t.terms[-1]
            if type(last) is Const:
                flat.extend(t.terms[:-1])
                consts.append(last)
            else:
                flat.extend(t.terms)
        elif kind is Const:
            if t is not ZERO:
                consts.append(t)
        else:
            flat.append(t)
    if len(consts) > 1:
        consts = [Const(sum(c.value for c in consts))]
    if consts and consts[0] is not ZERO:
        flat.append(consts[0])
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mul(*factors) -> Expr:
    """Product with flattening, constant folding, and 0/1 elimination.

    A negation's sign joins the constant; operand products (under a
    negation or not) are flattened one level: their factors are flat
    already."""
    flat = []
    consts = []
    negative = False
    for f in factors:
        f = as_expr(f)
        kind = type(f)
        if kind is Neg:
            negative = not negative
            f = f.child
            kind = type(f)
        if kind is Prod:
            first = f.factors[0]
            if type(first) is Const:
                flat.extend(f.factors[1:])
                consts.append(first)
            else:
                flat.extend(f.factors)
        elif kind is Const:
            if f is not ONE:
                consts.append(f)
        else:
            flat.append(f)
    if negative or len(consts) > 1:
        acc = consts[0].value if consts else 1
        for c in consts[1:]:
            acc *= c.value
        const = Const(-acc if negative else acc)
    else:
        const = consts[0] if consts else ONE
    if const is ZERO:
        return ZERO
    if not flat:
        return const
    if const is not ONE:
        flat.insert(0, const)
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

    Nested powers are combined ((u^a)^b -> u^(ab)) when b is an integer or a
    is not: an integer a under a fractional b, as in (p^2)^(1/2), is kept,
    since u^a may be positive where u is not.  A fractional a keeps u
    strictly positive on every sampling domain, so there the fold is exact.
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
    if isinstance(base, Pow) and (exponent.denominator == 1 or base.exponent.denominator != 1):
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
# traversal and printing


def topo_order(roots: Sequence[Expr], stop=()) -> list:
    """Children-first topological order of the expression DAG under roots.

    Nodes in `stop` are neither listed nor descended into."""
    order: list = []
    seen = set()  # nodes hash by identity, and the roots keep them alive
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        if node in stop:
            continue
        stack.append((node, True))
        for child in reversed(node.children()):
            if child not in seen:
                stack.append((child, False))
    return order


def free_variables(e: Expr) -> set:
    return {name for name, bit in _VAR_BIT.items() if e.mask & bit}


def _fmt_fraction(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def to_string(e: Expr) -> str:
    """ASCII infix form; parse(to_string(e)) is e."""
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


# variable name -> {node: d(node)/d(variable)}, kept across calls.  Keys are
# held weakly, so an entry lives as long as its node.  A derivative is built
# from the node's operands and their derivatives, never from the node itself,
# so no entry keeps its own key alive.  Only nodes containing the variable
# get an entry: every other node's derivative is 0.
_DIFF_MEMO = {name: weakref.WeakKeyDictionary() for name in VARIABLES}


class _Known:
    """The nodes whose derivative in one variable needs no work: those free
    of it and those already in its memo."""

    __slots__ = ("bit", "memo")

    def __init__(self, bit: int, memo):
        self.bit = bit
        self.memo = memo

    def __contains__(self, node) -> bool:
        return not node.mask & self.bit or node in self.memo


def diff(e: Expr, v: Union[str, Var]) -> Expr:
    """Exact partial derivative; iterative over the DAG.  Memoized per
    interned node and variable across calls, so only nodes that contain the
    variable and were never differentiated before are visited."""
    name = v.name if isinstance(v, Var) else v
    bit = _VAR_BIT.get(name)
    if bit is None:
        raise ExprError(f"unknown variable {name!r}")
    if not e.mask & bit:
        return ZERO
    memo = _DIFF_MEMO[name]
    for node in topo_order([e], stop=_Known(bit, memo)):
        if isinstance(node, Var):
            d = ONE  # the only variable with this bit
        elif isinstance(node, Neg):
            d = neg(memo[node.child])
        elif isinstance(node, Sum):
            d = add(*[memo[t] for t in node.terms if t.mask & bit])
        elif isinstance(node, Prod):
            terms = []
            factors = node.factors
            for i, f in enumerate(factors):
                if not f.mask & bit:
                    continue
                df = memo[f]
                if df is ZERO:
                    continue
                rest = factors[:i] + factors[i + 1:]
                terms.append(mul(df, *rest))
            d = add(*terms) if terms else ZERO
        elif isinstance(node, Pow):
            db = memo[node.base]
            if db is ZERO:
                d = ZERO
            else:
                d = mul(Const(node.exponent), pow_(node.base, node.exponent - 1), db)
        else:
            raise TypeError(f"unknown node {type(node).__name__}")
        memo[node] = d
    return memo[e]


# ---------------------------------------------------------------------------
# evaluation


# opcodes for the compiled evaluation program
_OP_CONST, _OP_VAR, _OP_NEG, _OP_SUM, _OP_PROD, _OP_IPOW, _OP_FPOW = range(7)

# the slots after the program hold the identities 0.0 and 1.0, with which a
# sum or product of fewer than two operands is padded
_ZERO_SLOT, _ONE_SLOT = -2, -1
# the floating-point error state of a lone point's float pass
_UNCHANGED = contextlib.nullcontext()


class Jet1:
    """First-order forward-mode number: a value and its derivative along one
    direction, each a float (at a lone point) or an array over a batch.

    Each operation computes the value part by the operation a plain pass
    applies, with the operands in the same order, so value parts are bitwise
    those of the plain pass.  A plain operand (a float constant) has
    derivative 0.  The evaluation loop needs only +, *, unary - and ** with
    a constant exponent."""

    __slots__ = ("val", "der")

    def __init__(self, val, der):
        self.val = val
        self.der = der

    def __add__(self, other):
        if type(other) is Jet1:
            return Jet1(self.val + other.val, self.der + other.der)
        return Jet1(self.val + other, self.der)

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is Jet1:
            return Jet1(self.val * other.val, self.der * other.val + self.val * other.der)
        return Jet1(self.val * other, self.der * other)

    __rmul__ = __mul__

    def __neg__(self):
        return Jet1(-self.val, -self.der)

    def __pow__(self, b):
        return Jet1(self.val ** b, b * _slope_power(self.val, b - 1) * self.der)


def _slope_power(x, e):
    """x ** e for a derivative of a power: infinite where a float overflows
    or divides by 0, a non-finite derivative rejected with the outputs."""
    try:
        return x ** e
    except (OverflowError, ZeroDivisionError):
        return math.inf


class Jet2:
    """Second-order forward-mode number over d directions: a value (a float
    at a lone point, an (N,) array over N points), its gradient (d,) + that
    shape and its Hessian (d, d) + that shape.  The direction axes lead, so
    the parts broadcast against each other as they are.  A plain operand (a
    float or an (N,) array) is a constant; over no direction (d = 0) a
    number carries its value alone.  As in `Jet1`, value parts are bitwise
    those of the plain pass."""

    __slots__ = ("val", "grad", "hess")
    # numpy arrays on the left defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, val, grad, hess):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __add__(self, other):
        if type(other) is not Jet2:
            return Jet2(self.val + other, self.grad, self.hess)
        if not len(self.grad):
            return Jet2(self.val + other.val, self.grad, self.hess)
        return Jet2(self.val + other.val, self.grad + other.grad, self.hess + other.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not len(self.grad):
            other = other.val if type(other) is Jet2 else other
            return Jet2(self.val * other, self.grad, self.hess)
        if type(other) is not Jet2:
            return Jet2(self.val * other, self.grad * other, self.hess * other)
        a, b = self.grad, other.grad
        ab = a[:, None] * b[None]
        return Jet2(self.val * other.val, a * other.val + self.val * b,
                    self.hess * other.val + self.val * other.hess + ab + ab.swapaxes(0, 1))

    __rmul__ = __mul__

    def __pow__(self, b):
        x = self.val
        return self.chain(x ** b, lambda: (b * _slope_power(x, b - 1),
                                           b * (b - 1) * _slope_power(x, b - 2)))

    def chain(self, f0, derivatives: Callable) -> "Jet2":
        """phi(self) for a function phi of one variable, given phi at the
        values and a function that gives phi' and phi'' there, called only
        when there are directions."""
        g = self.grad
        if not len(g):
            return Jet2(f0, g, self.hess)
        f1, f2 = derivatives()
        return Jet2(f0, f1 * g, f1 * self.hess + f2 * (g[:, None] * g[None]))


class Taylor:
    """Truncated Taylor series along one direction: the coefficients c_0 ..
    c_d of t^0 .. t^d, each a float (at a lone point) or an array over a
    batch (univariate Taylor propagation; Griewank & Walther, ch. 13).

    As in `Jet1`, c_0 is computed by the operation a plain pass applies, so
    value parts are bitwise those of the plain pass.  A plain operand (a
    float constant) is a series whose higher coefficients are 0; two series
    of different degrees give one of the lower degree.  Products are Cauchy
    products on the coefficients, elementwise (no BLAS call).  A positive
    integer power is a product of the base with itself, so a zero base
    divides by nothing; any other power follows the recurrence of
    x y' = b x' y, which divides by c_0."""

    __slots__ = ("coef",)
    # numpy arrays on the left defer to the reflected operators below
    __array_ufunc__ = None

    def __init__(self, *coef):
        self.coef = coef

    @property
    def val(self):
        return self.coef[0]

    def __add__(self, other):
        a = self.coef
        if type(other) is not Taylor:
            return Taylor(a[0] + other, *a[1:])
        return Taylor(*[x + y for x, y in zip(a, other.coef)])

    __radd__ = __add__

    def __neg__(self):
        return Taylor(*[-x for x in self.coef])

    def __mul__(self, other):
        a = self.coef
        if type(other) is not Taylor:
            return Taylor(*[x * other for x in a])
        b = other.coef
        out = []
        for m in range(min(len(a), len(b))):
            c = a[m] * b[0]
            for k in range(1, m + 1):
                c = c + a[m - k] * b[k]
            out.append(c)
        return Taylor(*out)

    __rmul__ = __mul__

    def __pow__(self, b):
        a = self.coef
        head = a[0] ** b
        if type(b) is int and b > 0:
            power, square = None, self
            while True:
                if b & 1:
                    power = square if power is None else power * square
                b >>= 1
                if not b:
                    return Taylor(head, *power.coef[1:])
                square = square * square
        # k c_0 y_k = sum_(j<k) (b (k - j) - j) c_(k-j) y_j
        inv = _slope_power(a[0], -1)
        y = [head]
        for k in range(1, len(a)):
            acc = b * k * a[k] * head
            for j in range(1, k):
                acc = acc + (b * (k - j) - j) * a[k - j] * y[j]
            y.append(acc * inv / k)
        return Taylor(*y)


def series_derivative(c):
    """The series of the derivative along the direction of a `Taylor`
    number, one degree lower, (k + 1) c_(k+1) for k < d; 0.0 for a plain
    number (a constant)."""
    if type(c) is not Taylor:
        return 0.0
    return Taylor(*[k * x for k, x in enumerate(c.coef[1:], 1)])


class Evaluator:
    """Compiled evaluator for a batch of expressions sharing one DAG.

    The topological order is fixed once into a flat slot program, and
    `eval_points` is the one method that runs it, on any number of points.
    """

    def __init__(self, exprs: Sequence[Expr]):
        self.exprs = list(exprs)
        slot = {}
        prog = []
        for i, node in enumerate(topo_order(self.exprs)):
            slot[node] = i
            if isinstance(node, Const):
                prog.append((_OP_CONST, node.fvalue, None, None))
            elif isinstance(node, Var):
                prog.append((_OP_VAR, node.name, None, None))
            elif isinstance(node, Neg):
                prog.append((_OP_NEG, slot[node.child], None, None))
            elif isinstance(node, (Sum, Prod)):
                # (first, second, rest); only a node built directly, never
                # one from add or mul, has fewer than two operands
                is_sum = isinstance(node, Sum)
                ops = [slot[c] for c in node.children()] + [_ZERO_SLOT if is_sum else _ONE_SLOT] * 2
                prog.append((_OP_SUM if is_sum else _OP_PROD, ops[0], ops[1], tuple(ops[2:-2])))
            elif isinstance(node, Pow):
                if node.exponent.denominator == 1:
                    prog.append((_OP_IPOW, slot[node.base], node.exponent.numerator, None))
                else:
                    prog.append((_OP_FPOW, slot[node.base], float(node.exponent), None))
            else:
                raise TypeError(f"unknown node {type(node).__name__}")
        self._prog = prog
        self._outs = [slot[e] for e in self.exprs]
        self._variables = [a for op, a, _, _ in prog if op == _OP_VAR]

    def eval_points(self, points: Union[Sequence[Mapping[str, float]], Mapping[str, np.ndarray]],
                    tangents: Optional[Sequence[Mapping]] = None, second_order: bool = False,
                    series: bool = False):
        """Values of the expressions at the points: an array of shape
        (n_exprs, n_points).

        The points are a sequence of mappings, one per point from a variable
        to its value, or columns: one mapping from each variable to a 1-D
        float array of its values at all points, every column of one length.
        A sequence becomes columns here, so the loop reads one
        representation; a caller that holds arrays passes them as columns
        and builds no per-point mapping.  The two forms give bitwise the
        same values and the same errors.

        One loop serves every batch.  At a lone point the values are Python
        floats, at more points numpy arrays (a constant stays a float), and
        the same operations run either way.  Floats keep a lone point cheap:
        on the 1,728-slot first-order metric table, arrays over two points
        take about nine times as long as floats at one, and a plain lone
        point returns its floats as they are, without the packing a number
        type needs.  They also keep its values those of Python's `**`:
        numpy's `power` is not correctly rounded on every platform (with
        AVX-512, `x**-2` differs from Python's in the last bit for about one
        input in twenty).  A sum is `t0 + t1 + ...` and a product
        `f0 * f1 * ...`, in place on the fresh array of a batch; a column is
        read, never written.

        With `tangents`, one mapping per point from a variable to its
        tangent component (a variable left out has tangent 0), the loop runs
        on `Jet1` numbers and returns a `Jet1` of two such arrays: the
        values, bitwise those of the plain pass, and the derivatives of the
        expressions along the tangents.  With `second_order`, each tangent
        maps a variable to its d components along d directions, and the loop
        runs on `Jet2` numbers: it returns the values, the gradients
        (d, n_exprs, n_points) and the Hessians (d, d, n_exprs, n_points).
        With `series`, each tangent maps a variable to its Taylor
        coefficients of degrees 1 .. d along one direction, and the loop runs
        on `Taylor` numbers: it returns a `Taylor` of d + 1 such arrays, the
        values (bitwise those of the plain pass) and the coefficients of
        degrees 1 .. d of the expressions along the direction.

        Raises `EvalError` naming the first point that fails, as a mapping:
        a negative base under a fractional exponent, a zero or non-finite
        base under a negative exponent (both tested on the value part), a
        missing variable or a non-finite value or derivative.  A batch in
        which a point fails runs again point by point, each point with its
        own tangent, so its error is that of the first point that fails
        alone.
        """
        if isinstance(points, Mapping):
            given = {a: np.asarray(c, dtype=float) for a, c in points.items()}
            count = len(next(iter(given.values()), ()))
            if any(c.shape != (count,) for c in given.values()):
                raise ValueError("point columns must be 1-D arrays of one length")

            def point(k: int) -> dict:
                return {a: float(c[k]) for a, c in given.items()}

            lone = count == 1
            columns = {a: float(c[0]) for a, c in given.items()} if lone else given
        else:
            count, point = len(points), points.__getitem__
            lone = count == 1
            # a variable some point lacks has no column; the loop raises there
            columns = {}
            for a in self._variables:
                try:
                    columns[a] = (float(points[0][a]) if lone
                                  else np.array([float(pt[a]) for pt in points]))
                except KeyError:
                    pass
        number = (None if tangents is None else Jet2 if second_order
                  else Taylor if series else Jet1)
        # the directions of a Jet2's seeds, or a Taylor number's degree
        dims = (len(next((s for t in tangents for s in t.values()), ()))
                if number is Jet2 or number is Taylor else 0)
        if number is Taylor:
            width, parts_of = dims + 1, attrgetter("coef")
        elif number is not None:
            width, parts_of = len(number.__slots__), attrgetter(*number.__slots__)
        vals: list = [None] * len(self._prog) + [0.0, 1.0]
        try:
            # floats raise where numpy arrays (a batch, a Jet2's derivative
            # parts) give a non-finite value, rejected with the outputs
            silent = not lone or number is Jet2
            with np.errstate(all="ignore") if silent else _UNCHANGED:
                for i, (op, a, b, c) in enumerate(self._prog):
                    # the most frequent operations first
                    if op == _OP_PROD:
                        v = vals[a] * vals[b]
                        for f in c:
                            v *= vals[f]
                    elif op == _OP_SUM:
                        v = vals[a] + vals[b]
                        for t in c:
                            v += vals[t]
                    elif op == _OP_CONST:
                        v = a
                    elif op == _OP_NEG:
                        v = -vals[a]
                    elif op == _OP_VAR:
                        try:
                            v = columns[a]
                        except KeyError:
                            raise EvalError(f"missing variable {a!r}", point(0)) from None
                        if number is Jet1:
                            v = Jet1(v, float(tangents[0].get(a, 0.0)) if lone
                                     else np.array([float(t.get(a, 0.0)) for t in tangents]))
                        elif number is Jet2:
                            zero = np.zeros(dims)
                            seed = (np.array(tangents[0].get(a, zero), dtype=float) if lone
                                    else np.array([t.get(a, zero) for t in tangents], dtype=float).T)
                            v = Jet2(v, seed, np.zeros(seed.shape[:1] + seed.shape))
                        elif number is Taylor:
                            none = (0.0,) * dims
                            v = Taylor(v, *(tuple(map(float, tangents[0].get(a, none))) if lone
                                            else np.array([t.get(a, none) for t in tangents],
                                                          dtype=float).reshape(count, dims).T))
                    else:
                        base = vals[a]
                        x = base.val if type(base) is number else base
                        # a negative exponent is the one place a zero or
                        # non-finite intermediate can turn finite again
                        # (1/inf == 0), so the only one tested before the
                        # outputs
                        if lone:
                            if op == _OP_FPOW and x < 0.0:
                                raise EvalError(
                                    f"negative base {x!r} under fractional exponent {b}", point(0))
                            if b < 0 and (x == 0.0 or not math.isfinite(x)):
                                raise EvalError(
                                    "zero or non-finite base under a negative exponent", point(0))
                        elif (op == _OP_FPOW and np.any(x < 0.0)
                              or b < 0 and not np.all(np.isfinite(x) & (x != 0.0))):
                            raise EvalError("a point of the batch fails")
                        try:
                            v = base ** b
                        except OverflowError:
                            v = math.inf  # a float overflowed; rejected with the outputs
                    vals[i] = v
            outs = [vals[o] for o in self._outs]
            if lone and number is None:
                # the outputs are Python floats already
                if not all(map(math.isfinite, outs)):
                    raise EvalError("non-finite value during evaluation", point(0))
                return np.array(outs, dtype=float).reshape(len(outs), 1)
            if number is None:
                parts = [outs]
            else:
                # the parts of the number in order; a plain output (a
                # constant) has derivative parts 0
                parts = [[parts_of(v)[k] if type(v) is number else v if k == 0 else 0.0
                          for v in outs] for k in range(width)]
            # a Jet2's gradient and Hessian lead with 1 and 2 direction axes
            arrays = [np.empty((dims,) * (k if number is Jet2 else 0) + (len(outs), count))
                      for k in range(len(parts))]
            for out, part in zip(arrays, parts):
                for i, v in enumerate(part):
                    out[..., i, 0 if lone else slice(None)] = v
            if not all(np.isfinite(out).all() for out in arrays):
                if lone:
                    raise EvalError("non-finite value during evaluation", point(0))
                raise EvalError("a point of the batch fails")
        except EvalError:
            if lone:
                raise
            # point by point, the first point that fails raises its own
            # error; should none fail alone (numpy's `power` rounding past a
            # limit that `**` stays within), their values are the result
            singles = [self.eval_points([point(k)], None if tangents is None else [tangents[k]],
                                        second_order, series) for k in range(count)]
            if number is None:
                return np.hstack(singles)
            return number(*(np.concatenate([parts_of(s)[k] for s in singles], axis=-1)
                            for k in range(width)))
        return arrays[0] if number is None else number(*arrays)


def evaluate(e: Expr, assignment: Mapping[str, float]) -> float:
    """IEEE double evaluation of e under a full assignment."""
    return float(Evaluator([e]).eval_points([assignment])[0, 0])


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

    def draw(self, n: int, seed: int) -> list:
        """The n points `equiv_each` samples for a seed."""
        rng = random.Random(seed)
        return [self.sample(rng) for _ in range(n)]


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


def equiv_each(
    pairs: Iterable[Tuple[Expr, Expr]],
    dom: SampleDomain,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_REL_TOL,
    seed: int = DEFAULT_SEED,
) -> list:
    """Randomized identity tests e1 == e2 on dom, one `EquivResult` per pair
    (e1, e2), in the order given.

    A pair passes iff |e1 - e2| <= tol * (1 + max(|e1|, |e2|)) at all n
    uniformly sampled points; its result holds its largest residual and the
    first point where it occurs.  All pairs share one sample set and are
    compiled into one `Evaluator` for one vectorised pass; an `EvalError`
    anywhere in it is raised.  Deterministic for a fixed seed.
    """
    if n < 1:
        raise ExprError("equiv needs n >= 1 samples")
    exprs = [as_expr(e) for pair in pairs for e in pair]
    if not exprs:
        raise ExprError("equiv_all needs at least one pair")
    points = dom.draw(n, seed)
    vals = Evaluator(exprs).eval_points(points)
    results = []
    for row in relative_residual(vals[0::2], vals[1::2]):
        residual, point = worst_sample(row, points)
        results.append(EquivResult(residual <= tol, residual, n, tol, seed, point))
    return results


def relative_residual(v1, v2):
    """|v1 - v2| / (1 + max(|v1|, |v2|)), elementwise: the residual of
    `equiv_each` and of `report.values_check`."""
    return np.abs(v1 - v2) / (1.0 + np.maximum(np.abs(v1), np.abs(v2)))


def worst_sample(residuals, points: Sequence[dict]) -> Tuple[float, dict]:
    """(max_residual, worst_point) of residuals at samples: an array with
    the sample on its first axis, one sample per point, whose trailing axes
    are reduced by max.  The point is that of the first sample where the
    largest residual occurs; a NaN anywhere is the result, at the first
    sample that holds one, so a NaN residual fails every tolerance."""
    residuals = np.asarray(residuals, dtype=float)
    if len(residuals) != len(points):
        raise ValueError(f"{len(residuals)} residual samples for {len(points)} points")
    flat = residuals.reshape(len(points), -1)
    j = int(np.argmax(flat))  # the first largest entry, or the first NaN, in sample order
    return float(flat.flat[j]), points[j // flat.shape[1]]


def equiv_all(
    pairs: Iterable[Tuple[Expr, Expr]],
    dom: SampleDomain,
    n: int = DEFAULT_SAMPLES,
    tol: float = DEFAULT_REL_TOL,
    seed: int = DEFAULT_SEED,
) -> EquivResult:
    """Randomized identity test of one check: e1 == e2 on dom, for every
    pair (e1, e2).

    The per-pair results of `equiv_each` reduced to one: it passes iff every
    pair does, and it is the result of the pair with the largest residual
    (the first such pair on a tie), so it carries that residual and its
    point.
    """
    return max(equiv_each(pairs, dom, n=n, tol=tol, seed=seed), key=lambda r: r.max_residual)


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
