"""A small expression language over multivectors.

Grammar (whitespace-insensitive, left-associative):

    sum      := product (('+' | '-') product)*
    product  := factor (('^' | '_|' | '|_' | '.') factor)*
    factor   := unary ('*' unary)*
    unary    := '-' unary | func '(' sum ')' | '(' sum ')' | NUMBER | BLADE

Precedence: unary > '*' > (wedge, contractions, dot) > (+, -).
Functions: rev, inv, gradeinv, conj, dual, grade<k>.
Blades: e1..en; for signature (1,3) the aliases g0..g3 map to e1..e4.
Unicode operator forms are accepted on input.  Parentheses, function calls
and negations nest at most MAX_DEPTH levels, and the parsed tree has at most
MAX_DEPTH operator nodes on any path (a chain like e1+e1+...+e1 is one level
deeper per operator); deeper input raises ExpressionError.
"""

from __future__ import annotations

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
    op: str  # 'neg', 'rev', 'inv', 'gradeinv', 'conj', 'dual', or 'grade<k>'
    arg: object


@dataclass(frozen=True)
class Binary:
    op: str  # '+', '-', '*', '^', '_|', '|_', '.'
    left: object
    right: object


# -- lexer ------------------------------------------------------------------------

_MULTI_OPS = ("_|", "|_")
_UNICODE_OPS = {"∧": "^", "⌟": "_|", "⌞": "|_", "·": "."}
_SINGLE_OPS = "+-*^.()"


def tokenize(src: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _UNICODE_OPS:
            tokens.append(("op", _UNICODE_OPS[ch], i))
            i += 1
            continue
        if src.startswith("_|", i) or src.startswith("|_", i):
            tokens.append(("op", src[i : i + 2], i))
            i += 2
            continue
        if ch in _SINGLE_OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and src[i + 1].isdigit()
        ):
            j = i
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
            except ValueError:
                raise ExpressionError(f"bad number {src[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                if src.startswith("_|", j):
                    break
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


# -- parser ------------------------------------------------------------------------

_FUNCS = {"rev", "inv", "gradeinv", "conj", "dual"}


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

    def parse_sum(self):
        node = self.parse_product()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                node = Binary(value, node, self.parse_product())
            else:
                return node

    def parse_product(self):
        node = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("^", "_|", "|_", "."):
                self.advance()
                node = Binary(value, node, self.parse_factor())
            else:
                return node

    def parse_factor(self):
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = Binary("*", node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        kind, value, at = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("neg", self.nested(at, self.parse_unary))
        if kind == "op" and value == "(":
            self.advance()
            node = self.nested(at, self.parse_sum)
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
        if name in _FUNCS or (name.startswith("grade") and name[5:].isdigit()):
            self.expect_op("(")
            node = self.nested(at, self.parse_sum)
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
    node = parser.parse_sum()
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
        if node.op == "neg":
            return -arg
        if node.op == "rev":
            return reversion(arg)
        if node.op == "inv":
            return inverse(arg)
        if node.op == "gradeinv":
            return grade_involution(arg)
        if node.op == "conj":
            return conjugation(arg)
        if node.op == "dual":
            return hodge_dual(arg)
        if node.op.startswith("grade"):
            return grade_part(arg, int(node.op[5:]))
        raise ExpressionError(f"unknown unary op {node.op!r}", 0)
    if isinstance(node, Binary):
        left = evaluate(node.left, sig)
        right = evaluate(node.right, sig)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return geometric_product(left, right)
        if node.op == "^":
            return wedge(left, right)
        if node.op == "_|":
            return left_contraction(left, right)
        if node.op == "|_":
            return right_contraction(left, right)
        if node.op == ".":
            return Multivector.scalar(sig, scalar_product(left, right))
        raise ExpressionError(f"unknown binary op {node.op!r}", 0)
    raise TypeError(f"not an AST node: {node!r}")


def evaluate_source(source: str, sig: Signature) -> Multivector:
    return evaluate(parse(source, sig), sig)


# -- printing (for round-trip checks) ------------------------------------------------


def ast_to_text(node, ascii_only: bool = True) -> str:
    wedge_s = "^" if ascii_only else "∧"
    lc_s = "_|" if ascii_only else "⌟"
    rc_s = "|_" if ascii_only else "⌞"
    dot_s = "." if ascii_only else "·"
    op_map = {"^": wedge_s, "_|": lc_s, "|_": rc_s, ".": dot_s}
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Blade):
        return f"e{node.index}"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"-({ast_to_text(node.arg, ascii_only)})"
        return f"{node.op}({ast_to_text(node.arg, ascii_only)})"
    if isinstance(node, Binary):
        op = op_map.get(node.op, node.op)
        return f"({ast_to_text(node.left, ascii_only)} {op} {ast_to_text(node.right, ascii_only)})"
    raise TypeError(f"not an AST node: {node!r}")
