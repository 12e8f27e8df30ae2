"""Small arithmetic expression language for user-definable functions.

Grammar (infix, precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``, binary
operators left-associative, parentheses allowed)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' atom)*        # exponent must fold to an integer, |n| <= 2^53
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

The two binary levels, ``expr`` and ``term``, come from one table,
``_BINARY``, of each operator's precedence and operation: one
precedence-climbing method parses them, and the printer and the compiler
read the same table.

A NUMBER must be finite: ``1e999`` is refused, as it would print as
``inf``, which parses as an unknown identifier.  Beyond 2^53 every float is
an integer, so ``is_integer`` cannot tell an integer literal there from any
other, and such an exponent is refused too (``x^1e300`` would overflow its
jet).

Known functions: exp, tanh, sin, cos, sqrt, abs_smooth (smoothed absolute
value, sqrt(x^2 + eps^2) with eps = 1e-8) and bump (C^2 plateau equal to 1
on [-1, 1], supported in [-2, 2]).  All functions take one argument.

Each expression is compiled once, when its function object is built:
``_compile`` walks the AST a single time and returns a closure that
evaluates it on floats, on numpy arrays and on order-2 jets (value, first
and second derivative under truncated-Taylor arithmetic), so exact
derivatives never need symbolic differentiation.  The closure applies,
node by node, the operation a walk of the tree would, so it gives the
same bits.  Literals compile to numpy floats, so a constant subexpression
such as ``1/0`` gives an infinity under the caller's error state, as an
array value does, rather than a Python exception.
Each built-in is defined once, in numpy, with its value and its first two
derivatives; a call applies the chain rule when its argument is a jet.
Jets carry arrays, so ``eval2`` takes a float or a whole array of points.
A float argument gives the same bits as that point inside an array, and a
value or jet part that is NaN or infinite at a float raises
``EvalDomainError``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from .core import _uniforms

__all__ = [
    "ParseError",
    "EvalDomainError",
    "ScalarFunction",
    "TriFunction",
    "parse",
    "parse_scalar",
    "parse_tri",
]

ABS_SMOOTH_EPS = 1e-8


class ParseError(ValueError):
    """Malformed expression text; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ValueError):
    """Evaluation left the operation's domain (sqrt of a negative, x/0, ...)."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Node = Union["Lit", "Var", "Neg", "BinOp", "Pow", "Call"]


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: Node


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow:
    base: Node
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: Node


# binary operator -> (precedence, operation): the parser's levels, the printer's
# parentheses and the compiled operation all read this one table
_BINARY = {"+": (1, operator.add), "-": (1, operator.sub), "*": (2, operator.mul), "/": (2, operator.truediv)}

# node type -> the fields that hold its child nodes, for the tree walkers
_CHILDREN = {Lit: (), Var: (), Neg: ("operand",), BinOp: ("left", "right"), Pow: ("base",), Call: ("arg",)}


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def parse(self) -> Node:
        node = self.binary()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def binary(self, min_prec: int = 1) -> Node:
        """The binary levels of ``_BINARY`` from ``min_prec`` up, left-associative, over ``unary``."""
        node = self.unary()
        while (prec := _BINARY.get(self.peek()[0], (0,))[0]) >= min_prec:
            op = self.advance()[0]
            node = BinOp(op, node, self.binary(prec + 1))
        return node

    def unary(self) -> Node:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.peek()[0] == "^":
            tok = self.advance()
            exponent_node = self.atom()
            exponent = _fold_integer(exponent_node)
            if exponent is None:
                raise ParseError("power exponent must be an integer literal", tok[2])
            node = Pow(node, exponent)
        return node

    def atom(self) -> Node:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"invalid number literal {text!r}", offset) from None
            if not math.isfinite(value):
                raise ParseError(f"number literal {text!r} is not finite", offset)
            return Lit(value)
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                self.advance()
                args = [self.binary()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.binary())
                self.expect(")")
                if text not in _BUILTINS:
                    raise ParseError(f"unknown function {text!r}", offset)
                if len(args) != 1:
                    raise ParseError(
                        f"function {text!r} takes 1 argument, got {len(args)}", offset
                    )
                return Call(text, args[0])
            return Var(text)
        if kind == "(":
            self.advance()
            node = self.binary()
            self.expect(")")
            return node
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", offset)


_MAX_EXPONENT = 2.0**53  # beyond it every float is an integer


def _fold_integer(node: Node) -> int | None:
    if isinstance(node, Lit) and float(node.value).is_integer() and abs(node.value) <= _MAX_EXPONENT:
        return int(node.value)
    if isinstance(node, Neg):
        inner = _fold_integer(node.operand)
        return None if inner is None else -inner
    return None


# ---------------------------------------------------------------------------
# Printing (round-trip stable: parse(to_string(ast)) == ast for every tree
# the parser builds from finite literals, which carry no sign, a minus
# parsing as Neg; ``scale`` and ``shift`` build their numbers the same way)
# ---------------------------------------------------------------------------

def _to_string(node: Node, parent_prec: int = 0) -> str:
    if isinstance(node, Lit):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _to_string(node.operand, 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 3 else text
    if isinstance(node, BinOp):
        prec = _BINARY[node.op][0]
        left = _to_string(node.left, prec)
        # Right operand gets a strictly higher context so left-associativity survives.
        right = _to_string(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(node, Pow):
        base = _to_string(node.base, 5)
        exponent = str(node.exponent) if node.exponent >= 0 else f"({node.exponent})"
        text = f"{base}^{exponent}"
        return f"({text})" if parent_prec > 4 else text
    if isinstance(node, Call):
        return f"{node.func}({_to_string(node.arg, 0)})"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Order-2 jets: (value, first, second) with truncated-Taylor arithmetic
# ---------------------------------------------------------------------------

class _Jet:
    """Order-2 jet; parts are floats or arrays, plain numbers act as constants."""

    __slots__ = ("v", "d1", "d2")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators below

    def __init__(self, v, d1, d2):
        self.v, self.d1, self.d2 = v, d1, d2

    def __add__(self, other) -> "_Jet":
        other = _lift(other)
        return _Jet(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other) -> "_Jet":
        other = _lift(other)
        return _Jet(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2)

    def __neg__(self) -> "_Jet":
        return _Jet(-self.v, -self.d1, -self.d2)

    def __mul__(self, other) -> "_Jet":
        other = _lift(other)
        return _Jet(
            self.v * other.v,
            self.d1 * other.v + self.v * other.d1,
            self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2,
        )

    def __truediv__(self, other) -> "_Jet":
        other = _lift(other)
        q = self.v / other.v
        q1 = (self.d1 - q * other.d1) / other.v
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.v
        return _Jet(q, q1, q2)

    __radd__, __rmul__ = __add__, __mul__  # same bits as the constant on the left

    def __rsub__(self, other) -> "_Jet":
        return _lift(other) - self

    def __rtruediv__(self, other) -> "_Jet":
        return _lift(other) / self

    def __pow__(self, n: int) -> "_Jet":  # n >= 0
        if n == 0:
            return _Jet(1.0, 0.0, 0.0)
        v = self.v
        return self.chain(v ** n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2) if n >= 2 else 0.0)

    def chain(self, f, f1, f2) -> "_Jet":
        """Compose with a univariate map whose value and derivatives at v are f, f1, f2."""
        return _Jet(f, f1 * self.d1, f2 * self.d1 * self.d1 + f1 * self.d2)


def _lift(x) -> _Jet:
    return x if isinstance(x, _Jet) else _Jet(x, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Built-ins: value, first and second derivative of each, in numpy
# ---------------------------------------------------------------------------

def _bump(u):
    """C^2 plateau: 1 on [-1, 1], 0 outside [-2, 2], quintic ramp between."""
    au = np.abs(u)
    w = np.clip(au - 1.0, 0.0, 1.0)
    ramp = 1.0 - w * w * w * (10.0 + w * (-15.0 + 6.0 * w))
    return np.where(au <= 1.0, 1.0, np.where(au >= 2.0, 0.0, ramp))


def _bump_derivatives(u, _):
    au = np.abs(u)
    w = np.clip(au - 1.0, 0.0, 1.0)
    ramp = (au > 1.0) & (au < 2.0)
    return (
        np.where(ramp, -w * w * (30.0 + w * (-60.0 + 30.0 * w)) * np.sign(u), 0.0),
        np.where(ramp, -w * (60.0 + w * (-180.0 + 120.0 * w)), 0.0),
    )


_E2 = ABS_SMOOTH_EPS * ABS_SMOOTH_EPS

# name -> (value at u, (u, value) -> first and second derivative at u)
_BUILTINS = {
    "exp": (np.exp, lambda u, e: (e, e)),
    "tanh": (np.tanh, lambda u, t: (1.0 - t * t, -2.0 * t * (1.0 - t * t))),
    "sin": (np.sin, lambda u, s: (np.cos(u), -s)),
    "cos": (np.cos, lambda u, c: (-np.sin(u), -c)),
    "sqrt": (np.sqrt, lambda u, r: (0.5 / r, -0.25 / (u * r))),
    "abs_smooth": (lambda u: np.sqrt(u * u + _E2), lambda u, r: (u / r, _E2 / (r * r * r))),
    "bump": (_bump, _bump_derivatives),
}


def _compile(node: Node):
    """Closure ``fn(env)`` evaluating ``node`` under ``env``, whose values may be floats, arrays or jets.

    The AST is walked once, here; each node's closure applies exactly the
    operation an evaluation of that node would, so a compiled expression
    gives the bits of evaluating it node by node.
    """
    if isinstance(node, Lit):
        value = np.float64(node.value)
        return lambda env: value
    if isinstance(node, Var):
        name = node.name
        return lambda env: env[name]
    if isinstance(node, Neg):
        operand = _compile(node.operand)
        return lambda env: -operand(env)
    if isinstance(node, BinOp):
        (_, op), left, right = _BINARY[node.op], _compile(node.left), _compile(node.right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, Pow):
        base, n = _compile(node.base), node.exponent
        if n >= 0:
            return lambda env: base(env) ** n
        return lambda env: 1.0 / base(env) ** -n
    if isinstance(node, Call):
        arg, (value, derivatives) = _compile(node.arg), _BUILTINS[node.func]

        def call(env):
            a = arg(env)
            if isinstance(a, _Jet):
                f = value(a.v)
                return a.chain(f, *derivatives(a.v, f))
            return value(a)

        return call
    raise TypeError(f"not an AST node: {node!r}")


def _finite(values: np.ndarray, xs: np.ndarray, what: str) -> np.ndarray:
    """A copy of ``values``; EvalDomainError names the first x where one is NaN or infinite."""
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        raise EvalDomainError(f"{what} produced {float(values.flat[k])} at x = {float(xs.flat[k])!r}")
    return values.copy()


# ---------------------------------------------------------------------------
# Public function wrappers
# ---------------------------------------------------------------------------

def _free_variables(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    names = set()
    for name in _CHILDREN[type(node)]:
        names |= _free_variables(getattr(node, name))
    return names


def _substitute(node: Node, replacement: dict[str, Node]) -> Node:
    if isinstance(node, Var):
        return replacement.get(node.name, node)
    return replace(node, **{name: _substitute(getattr(node, name), replacement) for name in _CHILDREN[type(node)]})


def _number(name: str, value: float) -> Node:
    """The tree the parser builds for the finite number ``value``: Neg(Lit(|value|)) when its sign bit is set.

    The sign bit, not ``value < 0``, decides, so -0.0 is Neg(Lit(0.0)) as
    the text "-0.0" parses.  A value that is not finite raises ValueError
    naming ``name``: it would print as an identifier the parser refuses.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return Neg(Lit(-value)) if math.copysign(1.0, value) < 0.0 else Lit(value)


@dataclass(frozen=True)
class ScalarFunction:
    """Function of the single variable ``x``; its AST is compiled once, at construction."""

    ast: Node
    _compiled: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_compiled", _compile(self.ast))

    def __call__(self, x):
        """Array like x; for a number, a float that must be finite (else EvalDomainError)."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(all="ignore"):
            value = np.broadcast_to(self._compiled({"x": xs}), xs.shape)
        return value.copy() if np.ndim(x) else float(_finite(value, xs, "evaluation")[0])

    def eval2(self, x):
        """Finite (h, h', h'') at x (else EvalDomainError): floats for a number, arrays like x."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(all="ignore"):
            jet = _lift(self._compiled({"x": _Jet(xs, np.ones_like(xs), np.zeros_like(xs))}))
        parts = tuple(
            _finite(np.broadcast_to(p, xs.shape), xs, "jet evaluation") for p in (jet.v, jet.d1, jet.d2)
        )
        return parts if np.ndim(x) else tuple(float(p[0]) for p in parts)

    def compose(self, inner: "ScalarFunction") -> "ScalarFunction":
        """self(inner(x)) as a new expression."""
        return ScalarFunction(_substitute(self.ast, {"x": inner.ast}))

    def __add__(self, other: "ScalarFunction") -> "ScalarFunction":
        return ScalarFunction(BinOp("+", self.ast, other.ast))

    def scale(self, factor: float) -> "ScalarFunction":
        """factor * self; a factor that is not finite raises ValueError."""
        return ScalarFunction(BinOp("*", _number("factor", factor), self.ast))

    def shift(self, offset: float) -> "ScalarFunction":
        """self + offset; an offset that is not finite raises ValueError."""
        return ScalarFunction(BinOp("+", self.ast, _number("offset", offset)))

    def to_string(self) -> str:
        return _to_string(self.ast)


@dataclass(frozen=True)
class TriFunction:
    """Function of the driver variables ``t, y, z``; its AST is compiled once, at construction.

    ``_compiled({"t": t, "y": y, "z": z})`` evaluates without the checks and
    the error state of a call: the march calls it inside its own, and leaves
    out of the mapping a variable that ``variables``, the names the
    expression reads, does not hold.
    """

    ast: Node
    variables: frozenset = field(init=False, repr=False, compare=False)
    _compiled: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_compiled", _compile(self.ast))
        object.__setattr__(self, "variables", frozenset(_free_variables(self.ast)))

    def __call__(self, t, y, z):
        """For arrays, a new array shaped as the variables the expression reads; for numbers, a finite float.

        The shape is the broadcast of the arguments read, not of all three:
        ``y + 1`` has the shape of ``y`` and a constant gives a numpy float,
        so a caller that needs every argument's shape broadcasts the result.
        A call on three numbers raises EvalDomainError where the value is not
        finite.  Numbers take part as 1-element arrays: NaN or infinity where
        Python floats would raise.
        """
        point = np.ndim(t) == np.ndim(y) == np.ndim(z) == 0
        t, y, z = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (t, y, z))
        with np.errstate(all="ignore"):
            result = self._compiled({"t": t, "y": y, "z": z})
        if not point:
            # a bare variable compiles to its argument, which may be the caller's own array
            return result.copy() if any(result is v for v in (t, y, z)) else result
        value = float(np.broadcast_to(result, (1,))[0])
        if not np.isfinite(value):
            at = ", ".join(repr(float(v[0])) for v in (t, y, z))
            raise EvalDomainError(f"evaluation produced {value} at (t, y, z) = ({at})")
        return value

    def to_string(self) -> str:
        return _to_string(self.ast)

    def max_difference_quotient(self) -> float:
        """Largest |df| / (|dy| + |dz|) over one fixed draw of 1000 pairs.

        The pairs lie in t in [0, 1] and y, z in [-10, 10], and share their
        t.  They are the first 5000 values of the package's splitmix64
        stream of seed 20240 (``core._uniforms``): the 1000 t, then y1, z1,
        y2 and z2, 1000 each.  The smallest |dy| + |dz| of the draw is
        0.53.  A NaN value makes the quotient NaN.
        """
        t, y1, z1, y2, z2 = _uniforms(20240, (5, 1000), [[0.0]] + [[-10.0]] * 4, [[1.0]] + [[10.0]] * 4)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the bound check
            df = np.broadcast_to(np.abs(np.asarray(self(t, y1, z1)) - np.asarray(self(t, y2, z2))), t.shape)
        return float(np.max(df / (np.abs(y1 - y2) + np.abs(z1 - z2))))


def parse_scalar(text: str) -> ScalarFunction:
    """Parse an expression over ``x``."""
    ast = _parse_checked(text, allowed={"x"})
    return ScalarFunction(ast)


def parse_tri(text: str) -> TriFunction:
    """Parse an expression over ``t``, ``y``, ``z``."""
    ast = _parse_checked(text, allowed={"t", "y", "z"})
    return TriFunction(ast)


def parse(text: str):
    """Parse and classify by the variables used.

    Expressions in ``x`` become :class:`ScalarFunction`; expressions in a
    subset of ``{t, y, z}`` become :class:`TriFunction`.  Constants default
    to :class:`ScalarFunction`.
    """
    ast = _parse_checked(text, allowed=None)
    names = _free_variables(ast)
    if names <= {"x"}:
        return ScalarFunction(ast)
    if names <= {"t", "y", "z"}:
        return TriFunction(ast)
    raise ParseError(f"expression mixes incompatible variables {sorted(names)}", 0)


def _parse_checked(text: str, allowed: set[str] | None) -> Node:
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    ast = _Parser(text).parse()
    if allowed is not None:
        unknown = _free_variables(ast) - allowed
        if unknown:
            raise ParseError(
                f"unknown identifier {sorted(unknown)[0]!r} "
                f"(allowed: {sorted(allowed)})",
                0,
            )
    return ast

