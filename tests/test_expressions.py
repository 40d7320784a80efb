import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffspin import (
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
from cliffspin.expressions import (
    MAX_DEPTH,
    Binary,
    Blade,
    ExpressionError,
    Num,
    Unary,
    ast_to_text,
    evaluate,
    evaluate_source,
    parse,
)

SIG13 = Signature(1, 3)
SIG20 = Signature(2, 0)


def gen(sig, i):
    return Multivector.generator(sig, i)


# -- basic evaluation --------------------------------------------------------------


def test_generator_square():
    assert evaluate_source("e1*e1", SIG13) == Multivector.scalar(SIG13, 1.0)
    assert evaluate_source("e2*e2", SIG13) == Multivector.scalar(SIG13, -1.0)


def test_reversion_of_bivector():
    got = evaluate_source("rev(e1^e2)", SIG13)
    want = -geometric_product(gen(SIG13, 1), gen(SIG13, 2))
    assert got == want


def test_idempotent_style_product():
    got = evaluate_source("(1.0+e1)*(1.0-e1)", SIG20)
    assert got.is_zero()


def test_scalar_coefficients_need_explicit_star():
    with pytest.raises(ExpressionError):
        evaluate_source("2 e1", SIG13)
    got = evaluate_source("2*e1", SIG13)
    assert got == 2.0 * gen(SIG13, 1)


def test_spacetime_aliases():
    assert evaluate_source("g0", SIG13) == gen(SIG13, 1)
    assert evaluate_source("g3", SIG13) == gen(SIG13, 4)
    with pytest.raises(ExpressionError):
        evaluate_source("g0", SIG20)


def test_unicode_operators():
    a = evaluate_source("e1∧e2", SIG13)
    b = evaluate_source("e1^e2", SIG13)
    assert a == b
    assert evaluate_source("e1·e1", SIG13) == Multivector.scalar(SIG13, 1.0)
    lhs = evaluate_source("e1⌟(e1^e2)", SIG13)
    rhs = evaluate_source("e1_|(e1^e2)", SIG13)
    assert lhs == rhs


def test_dual_and_grade_functions():
    got = evaluate_source("dual(e1^e2)", SIG13)
    want = hodge_dual(geometric_product(gen(SIG13, 1), gen(SIG13, 2)))
    assert got == want
    assert evaluate_source("grade0((1.0+e1)*(1.0+e1))", SIG13) == Multivector.scalar(
        SIG13, 2.0
    )
    assert evaluate_source("grade2(e1*e2)", SIG13) == geometric_product(
        gen(SIG13, 1), gen(SIG13, 2)
    )


def test_precedence():
    # '*' binds tighter than '^': a^b*c parses as a^(b*c)
    got = evaluate_source("e1^e2*e3", SIG13)
    want = wedge(gen(SIG13, 1), geometric_product(gen(SIG13, 2), gen(SIG13, 3)))
    assert got == want
    # unary minus binds tightest
    assert evaluate_source("-e1*e1", SIG13) == Multivector.scalar(SIG13, -1.0)


def test_left_associativity_of_sums():
    got = evaluate_source("1.0 - 2.0 - 3.0", SIG13)
    assert got == Multivector.scalar(SIG13, -4.0)


# -- error reporting -----------------------------------------------------------------


def test_error_positions():
    with pytest.raises(ExpressionError) as info:
        parse("e1 + ", SIG13)
    assert info.value.pos >= 3
    with pytest.raises(ExpressionError) as info:
        parse("e9", SIG13)
    assert info.value.pos == 0
    with pytest.raises(ExpressionError) as info:
        parse("e1 @ e2", SIG13)
    assert "column 4" in str(info.value)


def test_a_number_too_large_for_a_float_is_a_bad_number():
    for text, literal, column in (("1e400 + e1", "1e400", 1), ("e1 + 2 * 9.5e999", "9.5e999", 10)):
        with pytest.raises(ExpressionError) as info:
            parse(text, SIG13)
        assert str(info.value) == f"bad number '{literal}' (at column {column})"
        assert info.value.pos == column - 1
    assert parse("1e308 + e1", SIG13) == Binary("+", Num(1e308), Blade(1))


def test_unbalanced_parens():
    with pytest.raises(ExpressionError):
        parse("(e1 + e2", SIG13)
    with pytest.raises(ExpressionError):
        parse("e1 + e2)", SIG13)


def test_unknown_function():
    with pytest.raises(ExpressionError):
        parse("frobnicate(e1)", SIG13)


@pytest.mark.parametrize(
    "build",
    [
        lambda k: "(" * k + "e1" + ")" * k,
        lambda k: "rev(" * k + "e1" + ")" * k,
        lambda k: "-" * k + "e1",
        lambda k: "+".join(["e1"] * (k + 1)),
    ],
    ids=["parens", "calls", "negations", "chain"],
)
def test_nesting_depth_limit(build):
    # MAX_DEPTH levels parse; one more is an ExpressionError, not a
    # RecursionError from the parser or the evaluator.
    assert evaluate_source(build(MAX_DEPTH), SIG13).max_abs() > 0
    with pytest.raises(ExpressionError, match="nested deeper"):
        parse(build(MAX_DEPTH + 1), SIG13)
    with pytest.raises(ExpressionError, match="nested deeper"):
        parse(build(2000), SIG13)


def test_noninvertible_reported():
    from cliffspin import NonInvertibleError

    with pytest.raises(NonInvertibleError):
        evaluate_source("inv(0.5*(1.0+e1))", SIG13)


# -- print/parse round trip --------------------------------------------------------------


def random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(float(np.round(rng.uniform(0.0, 4.0), 3)))
        return Blade(int(rng.integers(1, 5)))
    kind = rng.random()
    if kind < 0.3:
        op = str(rng.choice(["neg", "rev", "gradeinv", "conj", "grade0", "grade1", "grade2"]))
        return Unary(op, random_ast(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*", "^", "_|", "|_", "."]))
    return Binary(op, random_ast(rng, depth - 1), random_ast(rng, depth - 1))


def test_round_trip_500_random_asts():
    rng = np.random.default_rng(12)
    for _ in range(500):
        tree = random_ast(rng, 4)
        text = ast_to_text(tree, ascii_only=True)
        back = parse(text, SIG13)
        assert back == tree
        a = evaluate(tree, SIG13)
        b = evaluate(back, SIG13)
        assert (a - b).max_abs() == 0.0


@pytest.mark.parametrize("value", [-1.0, -0.0, -2.5e-300, math.inf, -math.inf, math.nan])
def test_numbers_without_source_text_are_refused(value):
    # repr(-1.0) parses to Unary('neg', Num(1.0)), and 'inf' or 'nan' to a
    # name; printing one of them would break the round trip silently.
    for tree in (Num(value), Binary("+", Blade(1), Num(value)), Unary("rev", Num(value))):
        with pytest.raises(ExpressionError, match=f"number {value!r} has no source text"):
            ast_to_text(tree)


def test_non_negative_finite_numbers_round_trip():
    for value in (0.0, 5e-324, 1.5, 2.0**70, 1.7976931348623157e308):
        assert parse(ast_to_text(Num(value)), SIG13) == Num(value)


def test_round_trip_unicode_printing():
    rng = np.random.default_rng(13)
    for _ in range(50):
        tree = random_ast(rng, 3)
        text = ast_to_text(tree, ascii_only=False)
        back = parse(text, SIG13)
        assert back == tree


# -- the lexer, parser and evaluator before the operator tables, kept as oracles ----------
#
# Unchanged apart from the names, including the number branch for a leading
# '.', which never ran: '.' is taken as an operator first, and apart from the
# rejection of a literal too large for a float, which the parser reports as a
# bad number by design (test_a_number_too_large_for_a_float_is_a_bad_number).

_OLD_UNICODE_OPS = {"∧": "^", "⌟": "_|", "⌞": "|_", "·": "."}
_OLD_SINGLE_OPS = "+-*^.()"


def _old_tokenize(src: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OLD_UNICODE_OPS:
            tokens.append(("op", _OLD_UNICODE_OPS[ch], i))
            i += 1
            continue
        if src.startswith("_|", i) or src.startswith("|_", i):
            tokens.append(("op", src[i : i + 2], i))
            i += 2
            continue
        if ch in _OLD_SINGLE_OPS:
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
                if not math.isfinite(value):
                    raise ValueError
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


_OLD_FUNCS = {"rev", "inv", "gradeinv", "conj", "dual"}


class _OldParser:
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
        if name in _OLD_FUNCS or (name.startswith("grade") and name[5:].isdigit()):
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


def _old_tree_depth(node) -> int:
    deepest, stack = 0, [(node, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, Unary):
            stack.append((node.arg, depth + 1))
        elif isinstance(node, Binary):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return deepest


def _old_parse(source: str, sig: Signature):
    parser = _OldParser(_old_tokenize(source), sig)
    node = parser.parse_sum()
    kind, _, at = parser.peek()
    if kind != "end":
        raise ExpressionError("trailing input", at)
    if _old_tree_depth(node) > MAX_DEPTH:
        raise ExpressionError(f"expression nested deeper than {MAX_DEPTH} levels", 0)
    return node


def _old_evaluate(node, sig: Signature) -> Multivector:
    if isinstance(node, Num):
        return Multivector.scalar(sig, node.value)
    if isinstance(node, Blade):
        return Multivector.generator(sig, node.index)
    if isinstance(node, Unary):
        arg = _old_evaluate(node.arg, sig)
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
        left = _old_evaluate(node.left, sig)
        right = _old_evaluate(node.right, sig)
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


def _parse_outcome(parse_fn, text, sig):
    """The AST, or the exception's type and message (column included)."""
    try:
        return parse_fn(text, sig)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def _value_outcome(evaluate_fn, tree, sig):
    """The value's exact (mask, real.hex(), imag.hex()) list, or the exception's type and message."""
    try:
        value = evaluate_fn(tree, sig)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return [(m, c.real.hex(), c.imag.hex()) for m, c in value.terms.items()]


PIECES = [*"eg0123456789.+-*^_|()∧⌟⌞·", "rev", "grade", "inv", " "]

def _loose_text(node, rng) -> str:
    """ast_to_text's ASCII form with each binary node's parentheses kept or
    dropped at random, so that precedence and associativity decide the parse."""
    if isinstance(node, Unary):
        arg = _loose_text(node.arg, rng)
        return f"-({arg})" if node.op == "neg" else f"{node.op}({arg})"
    if isinstance(node, Binary):
        text = f"{_loose_text(node.left, rng)} {node.op} {_loose_text(node.right, rng)}"
        return f"({text})" if rng.random() < 0.5 else text
    return ast_to_text(node)


@st.composite
def edited_printed_asts(draw):
    """A random AST printed in ASCII, in Unicode, or with parentheses dropped,
    with a few pieces replaced, inserted or deleted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = random_ast(rng, 4)
    style = draw(st.sampled_from(["ascii", "unicode", "loose"]))
    if style == "loose":
        text = list(_loose_text(tree, rng))
    else:
        text = list(ast_to_text(tree, ascii_only=style == "ascii"))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        piece = draw(st.sampled_from(PIECES))
        if op == "insert":
            text.insert(at, piece)
        elif text and at < len(text):
            if op == "replace":
                text[at] = piece
            else:
                del text[at]
    return "".join(text)


@settings(derandomize=True, deadline=None, max_examples=1000, database=None)
@given(
    st.lists(st.sampled_from(PIECES), max_size=30).map("".join) | edited_printed_asts(),
    st.sampled_from([SIG13, SIG20]),
)
def test_parser_matches_old_parser(text, sig):
    tree = _parse_outcome(parse, text, sig)
    assert tree == _parse_outcome(_old_parse, text, sig)
    if not isinstance(tree, tuple):
        assert _value_outcome(evaluate, tree, sig) == _value_outcome(_old_evaluate, tree, sig)


@pytest.mark.parametrize(
    "text",
    ["e1.5", ".5", "1.5", "1..5", "2e1", "2e+1", "2e", "1e-", "e1_|e2", "e1 _| e2", "e1|_e2", "e1_ |e2",
     "e1|e2", "e1_e2", "a_|b", "neg(e1)", "grade(e1)", "grade2(e1)", "gradeinv(e1)", "g4", "g0 ⌟ g1",
     "rev e1", "((e1)", "e1 e2", "", "   ", "e1 +", "- - e1", "e1··e2", "²", "e1²", "e1^e2*e3",
     "e1*e2^e3", "e1 + e2^e3*e4 - e1.e2", "1 - 2 - 3", "e1_|e2|_e3", "-e1*e2", "e1 ∧ e2 · e3*e4"],
)
@pytest.mark.parametrize("sig", [SIG13, SIG20], ids=str)
def test_pinned_inputs_match_old_parser(text, sig):
    assert _parse_outcome(parse, text, sig) == _parse_outcome(_old_parse, text, sig)


def test_a_number_starts_with_a_digit():
    # '.' is the scalar product wherever it stands, so '.5' has no left operand
    # and 'e1.5' is e1 . 5.
    assert parse("e1.5", SIG13) == Binary(".", Blade(1), Num(5.0))
    with pytest.raises(ExpressionError, match="expected a value .at column 1."):
        parse(".5", SIG13)
