"""Symbolic function models: parsing, printing, Taylor jets.

A function is represented as a small expression AST over one variable.
Values and derivatives come from one evaluator, jet(), which returns the
scaled derivatives f^(j)(x)/j! for j < K by truncated Taylor arithmetic
in double precision (scalar or numpy array), in extended precision
through mpmath, or over boxes in interval arithmetic (matmono.interval,
whose jets enclose every point's), so repeated-node tables, local
derivative matrices and divided-difference enclosures need no finite
differencing.  Symbolic differentiation (differentiate,
FunctionModel.deriv) is off the numeric path: nothing calls it to
compute a value, and it stays until it is deleted together with the
benchmark tracer's patch of FunctionModel.deriv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from . import interval
from .interval import Interval

EXTENDED_DIGITS = 50


class ParseError(ValueError):
    """Syntax error in a function expression; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ValueError):
    """Evaluation requested outside the function's domain of definition."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __neg__(self):
        return Neg(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Log(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    """Integer power.  The exponent is a literal, never an expression."""

    base: Expr
    exponent: int


@dataclass(frozen=True)
class PowReal(Expr):
    """Real power x^p, defined for positive base only.

    Not reachable from the parser (the grammar rejects non-integer
    exponents); constructed through the API, e.g. by the catalog.
    """

    base: Expr
    exponent: float


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(float(v))


X = Var()


# ---------------------------------------------------------------------------
# Parsing
#
# Grammar (whitespace free between tokens):
#   expr   := term (('+' | '-') term)*
#   term   := factor (('*' | '/') factor)*
#   factor := '-' factor | power
#   power  := atom ('^' exponent)?      -- right-associative integer chain
#   atom   := number | 'x' | func '(' expr ')' | '(' expr ')'
#   func   := 'exp' | 'log' | 'sqrt'

_FUNCS = {"exp": Exp, "log": Log, "sqrt": Sqrt}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None):
        raise ParseError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            if self.take("+"):
                e = Add(e, self.term())
            elif self.take("-"):
                e = Sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            if self.take("*"):
                e = Mul(e, self.factor())
            elif self.take("/"):
                e = Div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        if self.take("-"):
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if not self.take("^"):
            return base
        return Pow(base, self.exponent_chain())

    def exponent_chain(self) -> int:
        # Integer exponents only; '^' chains fold right-associatively so
        # x^2^3 means x^(2^3).  A fractional exponent is rejected here.
        k = self.signed_integer()
        if self.take("^"):
            rest = self.exponent_chain()
            if rest < 0:
                self.error("negative exponent inside an exponent chain")
            k = k**rest
        return k

    def signed_integer(self) -> int:
        self.skip_ws()
        start = self.pos
        sign = 1
        if self.take("-"):
            sign = -1
        if self.take("("):
            k = self.signed_integer()
            if not self.take(")"):
                self.error("expected ')' in exponent")
            return sign * k
        self.skip_ws()
        num_start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == num_start:
            self.error("expected integer exponent", start)
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            self.error("non-integer exponent", num_start)
        return sign * int(self.text[num_start : self.pos])

    def atom(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            e = self.expr()
            if not self.take(")"):
                self.error("expected ')'")
            return e
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalnum():
                self.pos += 1
            name = self.text[start : self.pos]
            if name == "x":
                return X
            if name in _FUNCS:
                if not self.take("("):
                    self.error(f"expected '(' after {name}")
                e = self.expr()
                if not self.take(")"):
                    self.error("expected ')'")
                return _FUNCS[name](e)
            self.error(f"unknown name {name!r}", start)
        self.error(f"unexpected {ch!r}")

    def number(self) -> Expr:
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(text) and text[self.pos] == ".":
            self.pos += 1
            while self.pos < len(text) and text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(text) and text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(text) and text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(text) and text[self.pos].isdigit():
                while self.pos < len(text) and text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent suffix after all
        token = text[start : self.pos]
        try:
            return Const(float(token))
        except ValueError:
            self.error(f"bad number {token!r}", start)


def parse(text: str) -> Expr:
    """Parse an expression in one variable ``x``.

    Raises ParseError with the byte offset of the first bad token.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Pretty printing with minimal parentheses

_PREC = {
    Add: 1,
    Sub: 1,
    Mul: 2,
    Div: 2,
    Neg: 3,
    Pow: 4,
    PowReal: 4,
}


def _prec(e: Expr) -> int:
    return _PREC.get(type(e), 5)


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(e: Expr) -> str:
    """Render an AST back to parseable text."""
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{_fmt_const(-e.value)}"
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        if _prec(e.arg) < _prec(e):
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, (Exp, Log, Sqrt)):
        name = type(e).__name__.lower()
        return f"{name}({to_text(e.arg)})"
    if isinstance(e, (Add, Sub, Mul, Div)):
        op = {"Add": "+", "Sub": "-", "Mul": "*", "Div": "/"}[type(e).__name__]
        lhs, rhs = to_text(e.left), to_text(e.right)
        if _prec(e.left) < _prec(e):
            lhs = f"({lhs})"
        # subtraction and division do not associate on the right
        if _prec(e.right) < _prec(e) or (
            _prec(e.right) == _prec(e) and isinstance(e, (Sub, Div))
        ):
            rhs = f"({rhs})"
        return f"{lhs} {op} {rhs}"
    if isinstance(e, Pow):
        base = to_text(e.base)
        if _prec(e.base) <= _prec(e):
            base = f"({base})"
        if e.exponent < 0:
            return f"{base}^({e.exponent})"
        return f"{base}^{e.exponent}"
    if isinstance(e, PowReal):
        raise ValueError("real powers have no text form; the grammar is integer-only")
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Simplification (conservative: constant folding and neutral elements)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def simplify(e: Expr) -> Expr:
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Neg):
        a = simplify(e.arg)
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(e, (Exp, Log, Sqrt)):
        return type(e)(simplify(e.arg))
    if isinstance(e, Add):
        a, b = simplify(e.left), simplify(e.right)
        if _is_const(a) and _is_const(b):
            return Const(a.value + b.value)
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
        return Add(a, b)
    if isinstance(e, Sub):
        a, b = simplify(e.left), simplify(e.right)
        if _is_const(a) and _is_const(b):
            return Const(a.value - b.value)
        if _is_const(b, 0.0):
            return a
        if _is_const(a, 0.0):
            return simplify(Neg(b))
        return Sub(a, b)
    if isinstance(e, Mul):
        a, b = simplify(e.left), simplify(e.right)
        if _is_const(a) and _is_const(b):
            return Const(a.value * b.value)
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return Const(0.0)
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
        # keep constant coefficients outermost-left so they keep folding
        if _is_const(b) and not _is_const(a):
            a, b = b, a
        if _is_const(a) and isinstance(b, Mul) and _is_const(b.left):
            return simplify(Mul(Const(a.value * b.left.value), b.right))
        return Mul(a, b)
    if isinstance(e, Div):
        a, b = simplify(e.left), simplify(e.right)
        if _is_const(a) and _is_const(b) and b.value != 0:
            return Const(a.value / b.value)
        if _is_const(a, 0.0):
            return Const(0.0)
        if _is_const(b, 1.0):
            return a
        return Div(a, b)
    if isinstance(e, Pow):
        a = simplify(e.base)
        if e.exponent == 0:
            return Const(1.0)
        if e.exponent == 1:
            return a
        if isinstance(a, Const):
            return Const(a.value**e.exponent)
        return Pow(a, e.exponent)
    if isinstance(e, PowReal):
        return PowReal(simplify(e.base), e.exponent)
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Differentiation


def _d(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return Neg(_d(e.arg))
    if isinstance(e, Add):
        return Add(_d(e.left), _d(e.right))
    if isinstance(e, Sub):
        return Sub(_d(e.left), _d(e.right))
    if isinstance(e, Mul):
        return Add(Mul(_d(e.left), e.right), Mul(e.left, _d(e.right)))
    if isinstance(e, Div):
        num = Sub(Mul(_d(e.left), e.right), Mul(e.left, _d(e.right)))
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        inner = Mul(Const(float(e.exponent)), Pow(e.base, e.exponent - 1))
        return Mul(inner, _d(e.base))
    if isinstance(e, PowReal):
        inner = Mul(Const(e.exponent), PowReal(e.base, e.exponent - 1.0))
        return Mul(inner, _d(e.base))
    if isinstance(e, Exp):
        return Mul(_d(e.arg), e)
    if isinstance(e, Log):
        return Div(_d(e.arg), e.arg)
    if isinstance(e, Sqrt):
        return Div(_d(e.arg), Mul(Const(2.0), e))
    raise TypeError(f"unknown node {e!r}")


def differentiate(e: Expr, k: int = 1) -> Expr:
    """k-th symbolic derivative, simplified after every step."""
    if k < 0:
        raise ValueError("derivative order must be >= 0")
    return FunctionModel(e).deriv(k)


# ---------------------------------------------------------------------------
# Evaluation: truncated Taylor arithmetic
#
# Each node maps the jets of its children to its own by the recurrences
# of Griewank & Walther, Evaluating Derivatives, ch. 13: O(K^2) operations
# per node in the arithmetic of x (math, numpy, mpmath at working precision,
# or the outward-rounded boxes of the interval module).

_MP_ZERO = mpmath.mpf(0)


def cauchy(a, b, count: int) -> list:
    """First `count` coefficients of the product of two jets."""
    out = []
    for k in range(count):
        acc = a[0] * b[k]
        for j in range(1, k + 1):
            acc += a[j] * b[k - j]
        out.append(acc)
    return out


def _divide(u: list, v: list, K: int) -> list:
    """Jet of u / v; v[0] must be nonzero."""
    w = []
    for k in range(K):
        acc = u[k]
        for j in range(k):
            acc -= w[j] * v[k - j]
        w.append(acc / v[0])
    return w


def _number(value: float, lib):
    """A float in lib's arithmetic; in interval arithmetic its point box,
    so that every nonzero coefficient is a box and rounds outward."""
    if lib is mpmath:
        return mpmath.mpf(value)
    return interval.point(value) if lib is interval else value


def _constant(value: float, K: int, lib) -> list:
    return [_number(value, lib)] + [_MP_ZERO if lib is mpmath else 0.0] * (K - 1)


def _check(bad, message: str):
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        raise DomainError(message)


def _jet(e: Expr, x, K: int, lib) -> list:
    if isinstance(e, Const):
        return _constant(e.value, K, lib)
    if isinstance(e, Var):
        return [x] + _constant(1.0, K - 1, lib) if K > 1 else [x]
    if isinstance(e, Neg):
        return [-c for c in _jet(e.arg, x, K, lib)]
    if isinstance(e, (Add, Sub, Mul, Div)):
        u, v = _jet(e.left, x, K, lib), _jet(e.right, x, K, lib)
        if isinstance(e, Add):
            return [a + b for a, b in zip(u, v)]
        if isinstance(e, Sub):
            return [a - b for a, b in zip(u, v)]
        if isinstance(e, Mul):
            return cauchy(u, v, K)
        _check(v[0] == 0, "division by zero")
        return _divide(u, v, K)
    if isinstance(e, Pow):
        # square-and-multiply: never divides by the base, which may be 0
        u, p = _jet(e.base, x, K, lib), e.exponent
        _check(p < 0 and u[0] == 0, "division by zero")
        if K == 1:
            return [u[0] ** p]
        w = u if p else _constant(1.0, K, lib)
        for bit in bin(abs(p))[3:]:
            w = cauchy(w, w, K)
            if bit == "1":
                w = cauchy(w, u, K)
        return w if p >= 0 else _divide(_constant(1.0, K, lib), w, K)
    if isinstance(e, PowReal):
        # u w' = p u' w, so w_k = sum_j (p j - (k - j)) u_j w_(k-j) / (k u_0)
        u = _jet(e.base, x, K, lib)
        _check(u[0] <= 0, "real power of a non-positive value")
        p = _number(e.exponent, lib)
        w = [u[0] ** p]
        for k in range(1, K):
            terms = ((p * j - (k - j)) * u[j] * w[k - j] for j in range(1, k + 1))
            w.append(sum(terms) / (k * u[0]))
        return w
    if isinstance(e, Exp):
        # w' = u' w
        u = _jet(e.arg, x, K, lib)
        w = [lib.exp(u[0])]
        for k in range(1, K):
            w.append(sum(j * u[j] * w[k - j] for j in range(1, k + 1)) / k)
        return w
    if isinstance(e, Log):
        # u w' = u'
        u = _jet(e.arg, x, K, lib)
        _check(u[0] <= 0, "log of a non-positive value")
        w = [lib.log(u[0])]
        for k in range(1, K):
            w.append((k * u[k] - sum(j * w[j] * u[k - j] for j in range(1, k))) / (k * u[0]))
        return w
    if isinstance(e, Sqrt):
        # w w = u
        u = _jet(e.arg, x, K, lib)
        _check(u[0] < 0, "sqrt of a negative value")
        w = [lib.sqrt(u[0])]
        _check(K > 1 and w[0] == 0, "division by zero")
        for k in range(1, K):
            w.append((u[k] - sum(w[j] * w[k - j] for j in range(1, k))) / (2 * w[0]))
        return w
    raise TypeError(f"unknown node {e!r}")


def jet(e: Expr, x, K: int, precision: str = "double", digits: int = EXTENDED_DIGITS) -> list:
    """Scaled derivatives [e^(j)(x)/j! for j < K] by truncated Taylor arithmetic.

    x may be a float, a numpy array (double mode only, in the array's float
    type: double or long double), an interval.Interval (double mode only:
    each coefficient is an Interval that encloses the coefficient at every
    point of each box, or an exact zero) or an mpmath float.
    Extended mode computes with ``digits`` significant decimal digits (the
    context's own precision when it already has them) and returns mpmath
    floats.  Raises DomainError outside the domain; a box raises where the
    domain test is possibly violated somewhere in it.
    """
    if K < 1:
        raise ValueError("a jet needs at least one coefficient")
    if precision == "double":
        if isinstance(x, Interval):
            return _jet(e, x, K, interval)
        return _jet(e, x, K, np if isinstance(x, np.ndarray) else math)
    if precision == "extended":
        if mpmath.mp.prec == mpmath.libmp.dps_to_prec(digits):
            return _jet(e, mpmath.mpf(x), K, mpmath)
        with mpmath.workdps(digits):
            return _jet(e, mpmath.mpf(x), K, mpmath)
    raise ValueError(f"unsupported precision mode {precision!r}")


def evaluate(e: Expr, x, precision: str = "double"):
    """Value of an expression at x: the first coefficient of its jet."""
    return jet(e, x, 1, precision)[0]


# ---------------------------------------------------------------------------
# Function models


@dataclass
class FunctionModel:
    """An expression together with its open interval of definition.

    Values and derivatives come from the Taylor jet of expr; deriv(k)
    and deriv_cache hold symbolic derivatives off the numeric path.
    """

    expr: Expr
    domain: tuple[float, float] = (-math.inf, math.inf)
    name: str = ""
    deriv_cache: list[Expr] = field(default_factory=list)

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"empty domain {self.domain}")
        if not self.deriv_cache:
            self.deriv_cache = [simplify(self.expr)]
        if not self.name:
            try:
                self.name = to_text(self.expr)
            except ValueError:
                self.name = "<function>"

    def deriv(self, k: int) -> Expr:
        while len(self.deriv_cache) <= k:
            self.deriv_cache.append(simplify(_d(self.deriv_cache[-1])))
        return self.deriv_cache[k]

    def contains(self, x: float) -> bool:
        lo, hi = self.domain
        return lo < x < hi

    def check_inside(self, x: float):
        if not self.contains(float(x)):
            raise DomainError(
                f"{x} is not strictly inside the domain ({self.domain[0]}, {self.domain[1]})"
            )

    def taylor(self, x, K: int, precision: str = "double", digits: int = EXTENDED_DIGITS) -> list:
        """[f^(j)(x)/j! for j < K] at a point, an array of points or an
        Interval of boxes (jet) inside the domain."""
        if not isinstance(x, (np.ndarray, Interval)):
            self.check_inside(float(x))
        elif precision != "double":
            raise ValueError("array evaluation is double-precision only")
        else:
            lo, hi = (x.lo, x.hi) if isinstance(x, Interval) else (x, x)
            if (lo <= self.domain[0]).any() or (hi >= self.domain[1]).any():
                raise DomainError(f"point outside the open domain {self.domain}")
        return jet(self.expr, x, K, precision, digits)

    def eval(self, x):
        """Double-precision value at a point or an array of points."""
        return self.eval_deriv(0, x)

    def eval_deriv(self, k: int, x, precision: str = "double"):
        """k-th derivative at x: k! times the k-th jet coefficient
        (extended precision works at EXTENDED_DIGITS)."""
        c = self.taylor(x, k + 1, precision)[k]
        if k < 2:
            return c
        with mpmath.workdps(EXTENDED_DIGITS if precision == "extended" else mpmath.mp.dps):
            return c * math.factorial(k)


# ---------------------------------------------------------------------------
# Catalog of reference functions with known classification


@dataclass(frozen=True)
class GroundTruth:
    """Known classification of a catalog entry on its test interval.

    max_monotone / max_convex are the largest orders n for which the
    function is n-monotone / n-convex there (math.inf means every order,
    0 means not even the scalar property).
    """

    max_monotone: float
    max_convex: float
    monotone_note: str
    convex_note: str

    def is_monotone(self, n: int) -> bool:
        return n <= self.max_monotone

    def is_convex(self, n: int) -> bool:
        return n <= self.max_convex


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    model: FunctionModel
    interval: tuple[float, float]
    truth: GroundTruth

    def __iter__(self):
        # convenient unpacking: model, truth = entry
        return iter((self.model, self.truth))


INF = math.inf


def _powreal_model(p: float) -> FunctionModel:
    return FunctionModel(PowReal(X, p), domain=(0.0, INF), name=f"x^{p}")


def _power_truth(p: float) -> GroundTruth:
    # 2x2 derivative-Hankel determinants pin the monotone boundary at
    # p in [0, 1] and the convex boundary at p in [1, 2]; inside those
    # ranges the classical integral representations give every order.
    if 0.0 <= p <= 1.0:
        mono: float = INF
        mono_note = "x^p with 0<=p<=1 averages Cauchy kernels x/(x+t), PSD at every order"
    elif p > 1.0:
        mono = 1.0
        mono_note = "increasing, but det of the 2x2 derivative-Hankel is -p^2(p-1)(p+1)t^(2p-4)/12 < 0"
    else:
        mono = 0.0
        mono_note = "decreasing on (0, inf)"
    if 1.0 <= p <= 2.0:
        conv: float = INF
        conv_note = "x^p with 1<=p<=2 is a positive average of (affine + t(x^2/(x+t))) terms"
    elif p > 2.0:
        conv = 1.0
        conv_note = "scalar convex, but det of the 2x2 convexity Hankel is -p^2(p-1)^2(p-2)(p+1)t^(2p-6)/144 < 0"
    elif 0.0 < p < 1.0:
        conv = 0.0
        conv_note = "f'' = p(p-1)x^(p-2) < 0: strictly concave"
    else:
        conv = INF if p >= -1.0 else 1.0
        conv_note = "x^p with -1<=p<0 averages operator-convex kernels 1/(x+t)"
    return GroundTruth(mono, conv, mono_note, conv_note)


def catalog(power_exponents: tuple[float, ...] = (0.25, 0.75, 1.5)) -> list[CatalogEntry]:
    """Reference functions with their known classification.

    Monotone/convex orders hold on the recorded test interval; each note
    states the one-line analytic reason.
    """
    entries = [
        CatalogEntry(
            "x",
            FunctionModel(X, name="x"),
            (-2.0, 2.0),
            GroundTruth(
                INF,
                INF,
                "f(A) = A preserves the semidefinite order",
                "Jensen inequality holds with equality for affine maps",
            ),
        ),
        CatalogEntry(
            "x^2",
            FunctionModel(Pow(X, 2), domain=(0.0, INF), name="x^2"),
            (0.1, 10.0),
            GroundTruth(
                1.0,
                INF,
                "increasing, but the 2x2 derivative-Hankel [[2t,1],[1,0]] has det -1",
                "t f(A)+(1-t) f(B)-f(tA+(1-t)B) = t(1-t)(A-B)^2 >= 0",
            ),
        ),
        CatalogEntry(
            "x^3",
            FunctionModel(Pow(X, 3), domain=(0.0, INF), name="x^3"),
            (0.5, 4.0),
            GroundTruth(
                1.0,
                1.0,
                "increasing, but the 2x2 derivative-Hankel [[3t^2,3t],[3t,1]] has det -6t^2",
                "f''=6x>0 here, but the 2x2 convexity Hankel [[3t,1],[1,0]] has det -1",
            ),
        ),
        CatalogEntry(
            "-1/x",
            FunctionModel(Neg(Pow(X, -1)), domain=(0.0, INF), name="-1/x"),
            (0.5, 4.0),
            GroundTruth(
                INF,
                0.0,
                "difference-quotient matrix has entries 1/(x_i x_j): a rank-one Gram matrix",
                "f'' = -2/x^3 < 0: strictly concave",
            ),
        ),
        CatalogEntry(
            "sqrt(x)",
            FunctionModel(Sqrt(X), domain=(0.0, INF), name="sqrt(x)"),
            (0.5, 4.0),
            GroundTruth(
                INF,
                0.0,
                "difference quotients 1/(sqrt(x)+sqrt(y)) form a Cauchy-type PSD kernel",
                "f'' = -x^(-3/2)/4 < 0: strictly concave",
            ),
        ),
        CatalogEntry(
            "log(x)",
            FunctionModel(Log(X), domain=(0.0, INF), name="log(x)"),
            (0.5, 4.0),
            GroundTruth(
                INF,
                0.0,
                "log x = int_0^inf (1/(1+t) - 1/(x+t)) dt averages PSD resolvent kernels",
                "f'' = -1/x^2 < 0: strictly concave",
            ),
        ),
        CatalogEntry(
            "exp(x)",
            FunctionModel(Exp(X), name="exp(x)"),
            (-1.0, 1.0),
            GroundTruth(
                1.0,
                1.0,
                "increasing, but the 2x2 derivative-Hankel e^t[[1,1/2],[1/2,1/6]] has det e^(2t)(1/6-1/4) < 0",
                "scalar convex, but the 2x2 convexity Hankel e^t[[1/2,1/6],[1/6,1/24]] has det e^(2t)(1/48-1/36) < 0",
            ),
        ),
    ]
    for p in power_exponents:
        entries.append(
            CatalogEntry(f"x^{p}", _powreal_model(p), (0.1, 10.0), _power_truth(p))
        )
    return entries


def catalog_model(key: str) -> FunctionModel:
    for entry in catalog():
        if entry.key == key:
            return entry.model
    raise KeyError(f"no catalog entry {key!r}")
