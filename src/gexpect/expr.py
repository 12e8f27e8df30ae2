"""Small arithmetic expression language for user-definable functions.

Grammar (infix, precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``, binary
operators left-associative, parentheses allowed)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' atom)*        # exponent must fold to an integer
    atom    := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Known functions: exp, tanh, sin, cos, sqrt, abs_smooth (smoothed absolute
value, sqrt(x^2 + eps^2) with eps = 1e-8) and bump (C^2 plateau equal to 1
on [-1, 1], supported in [-2, 2]).  All functions take one argument.

Evaluation works on scalars and on numpy arrays.  Exact first and second
derivatives come from truncated-Taylor (jet) arithmetic of order 2, so no
expression ever needs symbolic differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ParseError",
    "EvalDomainError",
    "ScalarFunction",
    "TriFunction",
    "parse",
    "parse_scalar",
    "parse_tri",
    "ABS_SMOOTH_EPS",
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


_FUNCTIONS = ("exp", "tanh", "sin", "cos", "sqrt", "abs_smooth", "bump")

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


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
        self.text = text
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
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.unary())
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
                return Lit(float(text))
            except ValueError:
                raise ParseError(f"invalid number literal {text!r}", offset) from None
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                self.advance()
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                if text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", offset)
                if len(args) != 1:
                    raise ParseError(
                        f"function {text!r} takes 1 argument, got {len(args)}", offset
                    )
                return Call(text, args[0])
            return Var(text)
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", offset)


def _fold_integer(node: Node) -> int | None:
    if isinstance(node, Lit) and float(node.value).is_integer():
        return int(node.value)
    if isinstance(node, Neg):
        inner = _fold_integer(node.operand)
        return None if inner is None else -inner
    return None


# ---------------------------------------------------------------------------
# Printing (round-trip stable: parse(to_string(ast)) == ast)
# ---------------------------------------------------------------------------

def _to_string(node: Node, parent_prec: int = 0) -> str:
    if isinstance(node, Lit):
        if node.value < 0:
            return f"({node.value!r})"
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _to_string(node.operand, 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 3 else text
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
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
# Value evaluation (scalars and arrays)
# ---------------------------------------------------------------------------

def _bump_value(x):
    """C^2 plateau: 1 on [-1, 1], 0 outside [-2, 2], quintic ramp between."""
    ax = np.abs(x)
    u = np.clip(ax - 1.0, 0.0, 1.0)
    ramp = 1.0 - u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
    return np.where(ax <= 1.0, 1.0, np.where(ax >= 2.0, 0.0, ramp))


_VALUE_FUNCS = {
    "exp": np.exp,
    "tanh": np.tanh,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs_smooth": lambda x: np.sqrt(x * x + ABS_SMOOTH_EPS * ABS_SMOOTH_EPS),
    "bump": _bump_value,
}


def _eval_value(node: Node, env: dict):
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval_value(node.operand, env)
    if isinstance(node, BinOp):
        a = _eval_value(node.left, env)
        b = _eval_value(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        base = _eval_value(node.base, env)
        if node.exponent >= 0:
            return base ** node.exponent
        return 1.0 / base ** (-node.exponent)
    if isinstance(node, Call):
        return _VALUE_FUNCS[node.func](_eval_value(node.arg, env))
    raise TypeError(f"not an AST node: {node!r}")


def _check_scalar_result(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise EvalDomainError(f"evaluation produced {value}")
    return value


# ---------------------------------------------------------------------------
# Order-2 jets: (value, first, second) with truncated-Taylor arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Jet:
    v: float
    d1: float
    d2: float

    def __add__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "_Jet") -> "_Jet":
        return _Jet(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2)

    def __neg__(self) -> "_Jet":
        return _Jet(-self.v, -self.d1, -self.d2)

    def __mul__(self, other: "_Jet") -> "_Jet":
        return _Jet(
            self.v * other.v,
            self.d1 * other.v + self.v * other.d1,
            self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2,
        )

    def __truediv__(self, other: "_Jet") -> "_Jet":
        if other.v == 0.0:
            raise EvalDomainError("division by zero")
        q = self.v / other.v
        q1 = (self.d1 - q * other.d1) / other.v
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.v
        return _Jet(q, q1, q2)


def _jet_chain(x: _Jet, f: float, f1: float, f2: float) -> _Jet:
    """Compose the univariate map with jet x: (f, f'*x', f''*x'^2 + f'*x'')."""
    return _Jet(f, f1 * x.d1, f2 * x.d1 * x.d1 + f1 * x.d2)


def _jet_pow(x: _Jet, n: int) -> _Jet:
    if n == 0:
        return _Jet(1.0, 0.0, 0.0)
    if n < 0:
        return _Jet(1.0, 0.0, 0.0) / _jet_pow(x, -n)
    v = x.v ** n
    f1 = n * x.v ** (n - 1)
    f2 = n * (n - 1) * x.v ** (n - 2) if n >= 2 else 0.0
    return _jet_chain(x, v, f1, f2)


def _jet_call(name: str, x: _Jet) -> _Jet:
    if name == "exp":
        e = math.exp(x.v)
        return _jet_chain(x, e, e, e)
    if name == "tanh":
        t = math.tanh(x.v)
        s = 1.0 - t * t
        return _jet_chain(x, t, s, -2.0 * t * s)
    if name == "sin":
        s, c = math.sin(x.v), math.cos(x.v)
        return _jet_chain(x, s, c, -s)
    if name == "cos":
        s, c = math.sin(x.v), math.cos(x.v)
        return _jet_chain(x, c, -s, -c)
    if name == "sqrt":
        if x.v <= 0.0:
            raise EvalDomainError(f"sqrt of non-positive value {x.v}")
        r = math.sqrt(x.v)
        return _jet_chain(x, r, 0.5 / r, -0.25 / (x.v * r))
    if name == "abs_smooth":
        e2 = ABS_SMOOTH_EPS * ABS_SMOOTH_EPS
        r = math.sqrt(x.v * x.v + e2)
        return _jet_chain(x, r, x.v / r, e2 / (r * r * r))
    if name == "bump":
        ax = abs(x.v)
        if ax <= 1.0:
            return _Jet(1.0, 0.0, 0.0)
        if ax >= 2.0:
            return _Jet(0.0, 0.0, 0.0)
        u = ax - 1.0
        s = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
        s1 = u * u * (30.0 + u * (-60.0 + 30.0 * u))
        s2 = u * (60.0 + u * (-180.0 + 120.0 * u))
        sign = 1.0 if x.v > 0.0 else -1.0
        return _jet_chain(x, 1.0 - s, -s1 * sign, -s2)
    raise EvalDomainError(f"unknown function {name!r}")


def _eval_jet(node: Node, env: dict[str, _Jet]) -> _Jet:
    if isinstance(node, Lit):
        return _Jet(node.value, 0.0, 0.0)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval_jet(node.operand, env)
    if isinstance(node, BinOp):
        a = _eval_jet(node.left, env)
        b = _eval_jet(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        return _jet_pow(_eval_jet(node.base, env), node.exponent)
    if isinstance(node, Call):
        return _jet_call(node.func, _eval_jet(node.arg, env))
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Public function wrappers
# ---------------------------------------------------------------------------

def _free_variables(node: Node) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return _free_variables(node.operand)
    if isinstance(node, BinOp):
        return _free_variables(node.left) | _free_variables(node.right)
    if isinstance(node, Pow):
        return _free_variables(node.base)
    if isinstance(node, Call):
        return _free_variables(node.arg)
    return set()


def _substitute(node: Node, replacement: dict[str, Node]) -> Node:
    if isinstance(node, Var):
        return replacement.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(_substitute(node.operand, replacement))
    if isinstance(node, BinOp):
        return BinOp(node.op, _substitute(node.left, replacement), _substitute(node.right, replacement))
    if isinstance(node, Pow):
        return Pow(_substitute(node.base, replacement), node.exponent)
    if isinstance(node, Call):
        return Call(node.func, _substitute(node.arg, replacement))
    return node


@dataclass(frozen=True)
class ScalarFunction:
    """Function of the single variable ``x``."""

    ast: Node

    def __call__(self, x):
        if np.isscalar(x) or isinstance(x, float):
            try:
                return _check_scalar_result(_eval_value(self.ast, {"x": float(x)}))
            except ZeroDivisionError as exc:
                raise EvalDomainError(str(exc)) from exc
        with np.errstate(all="ignore"):
            value = np.asarray(_eval_value(self.ast, {"x": np.asarray(x)}))
        return np.broadcast_to(value, np.shape(x)).copy()

    def eval2(self, x: float) -> tuple[float, float, float]:
        jet = _eval_jet(self.ast, {"x": _Jet(float(x), 1.0, 0.0)})
        for part in (jet.v, jet.d1, jet.d2):
            if not math.isfinite(part):
                raise EvalDomainError(f"jet evaluation produced {part}")
        return jet.v, jet.d1, jet.d2

    def compose(self, inner: "ScalarFunction") -> "ScalarFunction":
        """self(inner(x)) as a new expression."""
        return ScalarFunction(_substitute(self.ast, {"x": inner.ast}))

    def __add__(self, other: "ScalarFunction") -> "ScalarFunction":
        return ScalarFunction(BinOp("+", self.ast, other.ast))

    def scale(self, factor: float) -> "ScalarFunction":
        return ScalarFunction(BinOp("*", Lit(float(factor)), self.ast))

    def shift(self, offset: float) -> "ScalarFunction":
        return ScalarFunction(BinOp("+", self.ast, Lit(float(offset))))

    def to_string(self) -> str:
        return _to_string(self.ast)


@dataclass(frozen=True)
class TriFunction:
    """Function of the driver variables ``t, y, z``."""

    ast: Node

    def __call__(self, t, y, z):
        env = {"t": t, "y": y, "z": z}
        with np.errstate(all="ignore"):
            result = _eval_value(self.ast, env)
        if np.isscalar(y) and np.isscalar(z) and np.isscalar(result):
            return float(result)
        return result

    def to_string(self) -> str:
        return _to_string(self.ast)

    def max_difference_quotient(
        self,
        t_range: tuple[float, float] = (0.0, 1.0),
        box: float = 10.0,
        samples: int = 1000,
        seed: int = 20240,
    ) -> float:
        """Largest sampled |df| / (|dy| + |dz|) over the working domain."""
        rng = np.random.default_rng(seed)
        t = rng.uniform(t_range[0], t_range[1], samples)
        y1, z1, y2, z2 = (rng.uniform(-box, box, samples) for _ in range(4))
        df = np.broadcast_to(np.abs(np.asarray(self(t, y1, z1)) - np.asarray(self(t, y2, z2))), t.shape)
        denom = np.abs(y1 - y2) + np.abs(z1 - z2)
        mask = denom > 1e-12
        if not np.any(mask):
            return 0.0
        return float(np.max(df[mask] / denom[mask]))


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

