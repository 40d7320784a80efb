import numpy as np
import pytest

from cliffspin import (
    Multivector,
    Signature,
    geometric_product,
    hodge_dual,
    reversion,
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
    from cliffspin import wedge

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


def test_round_trip_unicode_printing():
    rng = np.random.default_rng(13)
    for _ in range(50):
        tree = random_ast(rng, 3)
        text = ast_to_text(tree, ascii_only=False)
        back = parse(text, SIG13)
        assert back == tree
