"""A small expression language over multivectors.

Binary operators, loosest first; every level is left-associative:

    + -          sum, difference
    ^ _| |_ .    wedge, left and right contraction, scalar product
    *            geometric product

Unary minus and function calls bind tighter than all of them.  Functions:
rev, inv, gradeinv, conj, dual, grade<k>.  Input may write ^ _| |_ . as
∧ ⌟ ⌞ ·.  Blades: e1..en; for signature (1,3) the aliases g0..g3 map to
e1..e4.  A number starts with a digit, so '.5' is '.' then 5 and 'e1.5' is
e1 . 5.  Parentheses, function calls and negations nest at most MAX_DEPTH
levels, and the parsed tree has at most MAX_DEPTH operator nodes on any path
(a chain like e1+e1+...+e1 is one level deeper per operator); deeper input
raises ExpressionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .multivector import (
    Multivector,
    Signature,
    conjugation,
    geometric_product,
    grade_involution,
    grade_part,
    hodge_dual,
    inverse,
    left_contraction,
    reversion,
    right_contraction,
    scalar_product,
    wedge,
)


MAX_DEPTH = 100


class ExpressionError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


# -- AST ------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Blade:
    index: int  # 1-based generator index


@dataclass(frozen=True)
class Unary:
    op: str  # a key of _UNARY, or 'grade<k>'
    arg: object


@dataclass(frozen=True)
class Binary:
    op: str  # a key of _BINARY
    left: object
    right: object


# -- operators -------------------------------------------------------------------

# Each table entry looks its function up in this module's globals when it is
# called, so a wrapper installed there later (as perfbench/layertrace.py does)
# sees every call.
_BINARY = {
    "+": lambda a, b, sig: a + b,
    "-": lambda a, b, sig: a - b,
    "*": lambda a, b, sig: geometric_product(a, b),
    "^": lambda a, b, sig: wedge(a, b),
    "_|": lambda a, b, sig: left_contraction(a, b),
    "|_": lambda a, b, sig: right_contraction(a, b),
    ".": lambda a, b, sig: Multivector.scalar(sig, scalar_product(a, b)),
}
# Binary precedence levels, loosest first; every level is left-associative.
_LEVELS = (("+", "-"), ("^", "_|", "|_", "."), ("*",))
# 'neg' is unary minus; every other key is also a function name.
_UNARY = {
    "neg": lambda a: -a,
    "rev": lambda a: reversion(a),
    "inv": lambda a: inverse(a),
    "gradeinv": lambda a: grade_involution(a),
    "conj": lambda a: conjugation(a),
    "dual": lambda a: hodge_dual(a),
}
_UNICODE_OPS = {"∧": "^", "⌟": "_|", "⌞": "|_", "·": "."}
_UNICODE_OF = {ascii: uni for uni, ascii in _UNICODE_OPS.items()}


# -- lexer ------------------------------------------------------------------------


def tokenize(src: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        text = src[i : i + 2] if src[i : i + 2] in _BINARY else ch
        op = _UNICODE_OPS.get(text, text)
        j = i + len(text)  # the end of the token, unless a number or a name
        if ch.isspace():
            pass
        elif op in _BINARY or op in "()":
            tokens.append(("op", op, i))
        elif ch.isdigit():
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE" and j + 1 < n and (
                src[j + 1].isdigit() or (src[j + 1] in "+-" and j + 2 < n and src[j + 2].isdigit())
            ):
                j += 2
                while j < n and src[j].isdigit():
                    j += 1
            try:
                value = float(src[i:j])
                if not math.isfinite(value):  # too large for a float
                    raise ValueError
            except ValueError:
                raise ExpressionError(f"bad number {src[i:j]!r}", i) from None
            tokens.append(("num", value, i))
        elif ch.isalpha():
            while j < n and (src[j].isalnum() or src[j] == "_") and src[j : j + 2] not in _BINARY:
                j += 1
            tokens.append(("name", src[i:j], i))
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
        i = j
    tokens.append(("end", None, n))
    return tokens


# -- parser ------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], sig: Signature):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig
        self.depth = 0

    def nested(self, at: int, parse):
        """parse() one nesting level deeper, refusing to pass MAX_DEPTH."""
        if self.depth >= MAX_DEPTH:
            raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels", at)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, at = self.peek()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", at)
        self.advance()

    def parse_binary(self, level: int = 0):
        """Parse one level of _LEVELS, whose operands are the next level or,
        below the last, unary terms.  The operand call is written out, not
        wrapped, so each nesting level costs one Python frame per level."""
        ops, tighter = _LEVELS[level], level + 1
        last = tighter == len(_LEVELS)
        node = self.parse_unary() if last else self.parse_binary(tighter)
        while True:
            kind, value, _ = self.peek()
            if kind != "op" or value not in ops:
                return node
            self.advance()
            node = Binary(value, node, self.parse_unary() if last else self.parse_binary(tighter))

    def parse_unary(self):
        kind, value, at = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("neg", self.nested(at, self.parse_unary))
        if kind == "op" and value == "(":
            self.advance()
            node = self.nested(at, self.parse_binary)
            self.expect_op(")")
            return node
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "name":
            return self.parse_name()
        raise ExpressionError("expected a value", at)

    def parse_name(self):
        kind, name, at = self.advance()
        assert kind == "name"
        if (name in _UNARY and name != "neg") or (name.startswith("grade") and name[5:].isdigit()):
            self.expect_op("(")
            node = self.nested(at, self.parse_binary)
            self.expect_op(")")
            return Unary(name, node)
        if name.startswith("e") and name[1:].isdigit():
            idx = int(name[1:])
            if not 1 <= idx <= self.sig.n:
                raise ExpressionError(f"generator {name} out of range for n={self.sig.n}", at)
            return Blade(idx)
        if (
            name.startswith("g")
            and name[1:].isdigit()
            and (self.sig.p, self.sig.q) == (1, 3)
        ):
            idx = int(name[1:])
            if not 0 <= idx <= 3:
                raise ExpressionError(f"alias {name} out of range 0..3", at)
            return Blade(idx + 1)
        raise ExpressionError(f"unknown name {name!r}", at)


def _tree_depth(node) -> int:
    deepest, stack = 0, [(node, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Unary):
            stack.append((node.arg, depth + 1))
        elif isinstance(node, Binary):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest


def parse(source: str, sig: Signature):
    parser = _Parser(tokenize(source), sig)
    node = parser.parse_binary()
    kind, _, at = parser.peek()
    if kind != "end":
        raise ExpressionError("trailing input", at)
    if _tree_depth(node) > MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels", 0)
    return node


# -- evaluation -------------------------------------------------------------------


def evaluate(node, sig: Signature) -> Multivector:
    if isinstance(node, Num):
        return Multivector.scalar(sig, node.value)
    if isinstance(node, Blade):
        return Multivector.generator(sig, node.index)
    if isinstance(node, Unary):
        arg = evaluate(node.arg, sig)
        if node.op in _UNARY:
            return _UNARY[node.op](arg)
        if node.op.startswith("grade"):
            return grade_part(arg, int(node.op[5:]))
        raise ExpressionError(f"unknown unary op {node.op!r}", 0)
    if isinstance(node, Binary):
        left = evaluate(node.left, sig)
        right = evaluate(node.right, sig)
        if node.op not in _BINARY:
            raise ExpressionError(f"unknown binary op {node.op!r}", 0)
        return _BINARY[node.op](left, right, sig)
    raise TypeError(f"not an AST node: {node!r}")


def evaluate_source(source: str, sig: Signature) -> Multivector:
    return evaluate(parse(source, sig), sig)


# -- printing (for round-trip checks) ------------------------------------------------


def ast_to_text(node, ascii_only: bool = True) -> str:
    if isinstance(node, Num):
        # These print as text that parses to another tree, or to none.
        if not math.isfinite(node.value) or math.copysign(1.0, node.value) < 0:
            raise ExpressionError(f"number {node.value!r} has no source text", 0)
        return repr(node.value)
    if isinstance(node, Blade):
        return f"e{node.index}"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"-({ast_to_text(node.arg, ascii_only)})"
        return f"{node.op}({ast_to_text(node.arg, ascii_only)})"
    if isinstance(node, Binary):
        op = node.op if ascii_only else _UNICODE_OF.get(node.op, node.op)
        return f"({ast_to_text(node.left, ascii_only)} {op} {ast_to_text(node.right, ascii_only)})"
    raise TypeError(f"not an AST node: {node!r}")
