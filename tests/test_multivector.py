import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffspin import (
    Multivector,
    NonInvertibleError,
    Rotor,
    Signature,
    SignatureMismatchError,
    conjugation,
    exp_bivector,
    geometric_product,
    grade_involution,
    grade_part,
    hodge_dual,
    inverse,
    left_contraction,
    norm_N,
    reversion,
    right_contraction,
    scalar_product,
    wedge,
)
from cliffspin import multivector as mv_module
from cliffspin.multivector import _exp_series, _left_mult_matrix, _reorder_sign

rng = np.random.default_rng(0)

SIG13 = Signature(1, 3)
SIG20 = Signature(2, 0)


def gen(sig, i):
    return Multivector.generator(sig, i)


def random_mv(sig, rng, grades=None):
    terms = {}
    for mask in range(1 << sig.n):
        if grades is not None and mask.bit_count() not in grades:
            continue
        terms[mask] = float(rng.uniform(-1, 1))
    return Multivector(sig, terms)


# -- independent word oracle: multiply generator words in the tensor algebra,
# -- reducing adjacent equal generators by their metric square and counting
# -- transposition signs while sorting.


def word_product(word_a, word_b, squares):
    word = list(word_a) + list(word_b)
    sign = 1
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(word) - 1:
            if word[i] == word[i + 1]:
                sign *= squares[word[i]]
                del word[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            elif word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                sign = -sign
                changed = True
            else:
                i += 1
    return sign, tuple(word)


def word_to_mv(sig, word):
    out = Multivector.scalar(sig, 1.0)
    for i in word:
        out = geometric_product(out, gen(sig, i + 1))
    return out


@pytest.mark.parametrize("p,q", [(1, 3), (2, 2), (3, 0), (0, 3), (4, 1), (0, 5)])
def test_product_matches_word_oracle(p, q):
    sig = Signature(p, q)
    squares = sig.squares
    import itertools

    indices = range(sig.n)
    words = [()]
    for k in (1, 2, 3):
        words += list(itertools.product(indices, repeat=k))
    mvs = {w: word_to_mv(sig, w) for w in words}
    for wa in words:
        for wb in words:
            sign, reduced = word_product(wa, wb, squares)
            expected = sign * word_to_mv(sig, reduced)
            got = geometric_product(mvs[wa], mvs[wb])
            assert (got - expected).max_abs() == 0.0, (wa, wb)


def test_generator_squares():
    assert geometric_product(gen(SIG13, 1), gen(SIG13, 1)) == Multivector.scalar(SIG13, 1.0)
    assert geometric_product(gen(SIG13, 2), gen(SIG13, 2)) == Multivector.scalar(SIG13, -1.0)


def test_generator_anticommutation():
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            anti = geometric_product(gen(SIG13, i), gen(SIG13, j)) + geometric_product(
                gen(SIG13, j), gen(SIG13, i)
            )
            assert anti.is_zero()


def test_unit_law():
    x = random_mv(SIG13, rng)
    one = Multivector.scalar(SIG13, 1.0)
    assert geometric_product(one, x) == x
    assert geometric_product(x, one) == x


def test_signature_mismatch_rejected():
    with pytest.raises(SignatureMismatchError):
        geometric_product(gen(SIG13, 1), gen(SIG20, 1))
    with pytest.raises(SignatureMismatchError):
        gen(SIG13, 1) + gen(SIG20, 1)


def test_dimension_cap():
    with pytest.raises(ValueError):
        Signature(7, 6)
    Signature(6, 6)


def test_zero_terms_pruned():
    mv = Multivector(SIG13, {0: 1.0, 1: 0.0})
    assert set(mv.terms) == {0}


# -- wedge ---------------------------------------------------------------------


def test_wedge_antisymmetry_on_vectors():
    assert wedge(gen(SIG13, 1), gen(SIG13, 1)).is_zero()
    v = random_mv(SIG13, rng, grades={1})
    assert wedge(v, v).max_abs() < 1e-15


def test_wedge_scalar_multiplication():
    x = random_mv(SIG13, rng)
    alpha = Multivector.scalar(SIG13, 2.5)
    assert (wedge(alpha, x) - 2.5 * x).max_abs() == 0.0


def test_wedge_associativity_all_blade_triples():
    sig = Signature(2, 2)
    blades = [Multivector.from_mask(sig, m) for m in range(16)]
    for a in blades:
        for b in blades:
            for c in blades:
                lhs = wedge(a, wedge(b, c))
                rhs = wedge(wedge(a, b), c)
                assert (lhs - rhs).max_abs() == 0.0


def test_geometric_associativity_all_blade_triples():
    sig = Signature(2, 2)
    blades = [Multivector.from_mask(sig, m) for m in range(16)]
    for a in blades:
        for b in blades:
            for c in blades:
                lhs = geometric_product(a, geometric_product(b, c))
                rhs = geometric_product(geometric_product(a, b), c)
                assert (lhs - rhs).max_abs() == 0.0


def test_geometric_associativity_random_dense():
    local = np.random.default_rng(7)
    for _ in range(1000):
        n = int(local.integers(1, 7))
        p = int(local.integers(0, n + 1))
        sig = Signature(p, n - p)
        a = random_mv(sig, local)
        b = random_mv(sig, local)
        c = random_mv(sig, local)
        lhs = geometric_product(a, geometric_product(b, c))
        rhs = geometric_product(geometric_product(a, b), c)
        scale = max(1.0, lhs.max_abs())
        assert (lhs - rhs).max_abs() <= 1e-12 * scale


@st.composite
def integer_triples(draw):
    """Three multivectors of one signature with n <= 6 and small Gaussian-integer
    coefficients, so every product and sum is exact in double precision."""
    n = draw(st.integers(0, 6))
    p = draw(st.integers(0, n))
    sig = Signature(p, n - p)
    coeff = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
    terms = st.dictionaries(st.integers(0, (1 << n) - 1), coeff, max_size=1 << n)
    return [Multivector(sig, draw(terms)) for _ in range(3)]


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(integer_triples())
def test_geometric_associativity_exact_on_integer_operands(triple):
    a, b, c = triple
    assert geometric_product(a, geometric_product(b, c)) == geometric_product(
        geometric_product(a, b), c
    )


def test_vector_splits_into_contraction_plus_wedge():
    for _ in range(20):
        v = random_mv(SIG13, rng, grades={1})
        x = random_mv(SIG13, rng)
        total = left_contraction(v, x) + wedge(v, x)
        assert (geometric_product(v, x) - total).max_abs() < 1e-12


# -- contractions ------------------------------------------------------------------


def test_contraction_grade_rules():
    # j-vector contracted on a k-vector vanishes when j > k
    x = random_mv(SIG13, rng, grades={2})
    y = random_mv(SIG13, rng, grades={1})
    assert left_contraction(x, y).is_zero()
    assert right_contraction(y, x).is_zero()


def test_contraction_scalar_law():
    x = random_mv(SIG13, rng)
    alpha = Multivector.scalar(SIG13, -1.25)
    assert (left_contraction(alpha, x) + 1.25 * x).max_abs() == 0.0
    assert (right_contraction(x, alpha) + 1.25 * x).max_abs() == 0.0


def test_contractions_satisfy_defining_property():
    # (X _| Y) . Z = Y . (rev(X) ^ Z)  and  (X |_ Y) . Z = X . (Z ^ rev(Y))
    for _ in range(10):
        x = random_mv(SIG13, rng)
        y = random_mv(SIG13, rng)
        for mask in range(16):
            z = Multivector.from_mask(SIG13, mask)
            lhs1 = scalar_product(left_contraction(x, y), z)
            rhs1 = scalar_product(y, wedge(reversion(x), z))
            assert abs(lhs1 - rhs1) < 1e-11
            lhs2 = scalar_product(right_contraction(x, y), z)
            rhs2 = scalar_product(x, wedge(z, reversion(y)))
            assert abs(lhs2 - rhs2) < 1e-11


def test_fundamental_split_identities():
    # v _| X = (vX - gradeinv(X) v)/2 and v ^ X = (vX + gradeinv(X) v)/2
    for _ in range(20):
        v = random_mv(SIG13, rng, grades={1})
        x = random_mv(SIG13, rng)
        lhs = left_contraction(v, x)
        rhs = 0.5 * (geometric_product(v, x) - geometric_product(grade_involution(x), v))
        assert (lhs - rhs).max_abs() < 1e-12
        lhsw = wedge(v, x)
        rhsw = 0.5 * (geometric_product(v, x) + geometric_product(grade_involution(x), v))
        assert (lhsw - rhsw).max_abs() < 1e-12


def test_leibniz_rule():
    # v _| (X ^ Y) = (v _| X) ^ Y + gradeinv(X) ^ (v _| Y)
    for _ in range(20):
        v = random_mv(SIG13, rng, grades={1})
        x = random_mv(SIG13, rng)
        y = random_mv(SIG13, rng)
        lhs = left_contraction(v, wedge(x, y))
        rhs = wedge(left_contraction(v, x), y) + wedge(
            grade_involution(x), left_contraction(v, y)
        )
        assert (lhs - rhs).max_abs() < 1e-11


def test_duality_identity():
    # I(v ^ X) = (-1)^{n-1} v _| (I X) for the top blade I
    for p, q in [(1, 3), (3, 0), (2, 2)]:
        sig = Signature(p, q)
        n = sig.n
        top = Multivector.from_mask(sig, (1 << n) - 1)
        for _ in range(10):
            v = random_mv(sig, rng, grades={1})
            x = random_mv(sig, rng)
            lhs = geometric_product(top, wedge(v, x))
            rhs = (-1) ** (n - 1) * left_contraction(v, geometric_product(top, x))
            assert (lhs - rhs).max_abs() < 1e-11


def test_contraction_associativity():
    # X _| (Y ^ Z) = (X ^ Y) _| Z  and  (X |_ Y) |_ Z = X |_ (Z ^ Y... symmetric form)
    for _ in range(20):
        x = random_mv(SIG13, rng)
        y = random_mv(SIG13, rng)
        z = random_mv(SIG13, rng)
        lhs = left_contraction(x, left_contraction(y, z))
        rhs = left_contraction(wedge(x, y), z)
        assert (lhs - rhs).max_abs() < 1e-10
        lhs2 = right_contraction(right_contraction(x, y), z)
        rhs2 = right_contraction(x, wedge(y, z))
        assert (lhs2 - rhs2).max_abs() < 1e-10


# -- scalar product ------------------------------------------------------------------


def test_scalar_product_gram_determinant():
    b = wedge(gen(SIG20, 1), gen(SIG20, 2))
    assert scalar_product(b, b) == 1.0


def test_scalar_product_grade_orthogonality():
    x = random_mv(SIG13, rng, grades={1})
    y = random_mv(SIG13, rng, grades={2})
    assert scalar_product(x, y) == 0.0


def test_scalar_product_is_reverted_grade0():
    for _ in range(20):
        x = random_mv(SIG13, rng)
        y = random_mv(SIG13, rng)
        expected = geometric_product(reversion(x), y).scalar_part().real
        assert abs(scalar_product(x, y) - expected) < 1e-12


def test_scalar_product_involution_interplay():
    for _ in range(20):
        x = random_mv(SIG13, rng)
        y = random_mv(SIG13, rng)
        assert abs(scalar_product(reversion(x), y) - scalar_product(x, reversion(y))) < 1e-12


# -- grades and involutions -----------------------------------------------------------


def test_grade_part_examples():
    x = 1 + gen(SIG13, 1) + geometric_product(gen(SIG13, 1), gen(SIG13, 2))
    assert grade_part(x, 1) == gen(SIG13, 1)
    assert grade_part(grade_part(x, 2), 2) == grade_part(x, 2)
    assert sum(grade_part(x, k).max_abs() > 0 for k in range(5)) == 3
    with pytest.raises(ValueError):
        grade_part(x, 5)


def test_grade_spread_of_products():
    for r in range(5):
        for s in range(5):
            xr = random_mv(SIG13, rng, grades={r})
            ys = random_mv(SIG13, rng, grades={s})
            allowed = set(range(abs(r - s), min(r + s, 4) + 1, 2))
            got = geometric_product(xr, ys).prune(1e-13).grades()
            assert got <= allowed, (r, s, got)


def test_involution_signs():
    e12 = geometric_product(gen(SIG13, 1), gen(SIG13, 2))
    assert reversion(e12) == -e12
    x_even = random_mv(SIG13, rng, grades={0, 2, 4})
    assert grade_involution(x_even) == x_even
    for k in range(5):
        xk = random_mv(SIG13, rng, grades={k})
        assert grade_involution(xk) == (-1) ** k * xk
        assert reversion(xk) == (-1) ** (k * (k - 1) // 2) * xk
        assert conjugation(xk) == grade_involution(reversion(xk))


def test_reversion_antiautomorphism():
    for _ in range(20):
        x = random_mv(SIG13, rng)
        y = random_mv(SIG13, rng)
        lhs = reversion(geometric_product(x, y))
        rhs = geometric_product(reversion(y), reversion(x))
        assert (lhs - rhs).max_abs() < 1e-12


def test_involutions_distribute_over_wedge():
    for _ in range(10):
        x = random_mv(SIG13, rng)
        y = random_mv(SIG13, rng)
        assert (reversion(wedge(x, y)) - wedge(reversion(y), reversion(x))).max_abs() < 1e-12
        assert (
            grade_involution(wedge(x, y))
            - wedge(grade_involution(x), grade_involution(y))
        ).max_abs() < 1e-12


# -- dual, exp, inverse, norm ----------------------------------------------------------


def test_hodge_dual_basics():
    g5 = Multivector(SIG13, {0b1111: -1.0})
    one = Multivector.scalar(SIG13, 1.0)
    assert hodge_dual(one) == g5
    assert hodge_dual(g5) == -one
    assert hodge_dual(Multivector.scalar(SIG13, 2.0)) == 2.0 * g5


def test_hodge_dual_rejects_other_signatures():
    with pytest.raises(SignatureMismatchError):
        hodge_dual(Multivector.scalar(SIG20, 1.0))


def test_exp_zero():
    z = Multivector.zero(SIG13)
    assert exp_bivector(z) == Multivector.scalar(SIG13, 1.0)


def test_exp_rotation_collapse():
    theta = 0.73
    b = geometric_product(gen(SIG20, 1), gen(SIG20, 2))
    got = exp_bivector(theta * b)
    expected = math.cos(theta) + math.sin(theta) * b
    assert (got - expected).max_abs() < 1e-15


def test_exp_matches_raw_series():
    f = random_mv(SIG13, rng, grades={2}) * 3.0
    got = exp_bivector(f)
    term = Multivector.scalar(SIG13, 1.0)
    total = term
    for k in range(1, 80):
        term = geometric_product(term, f) * (1.0 / k)
        total = total + term
    assert (got - total).max_abs() < 1e-11 * max(1.0, total.max_abs())


def test_exp_gives_unit_rotors():
    for _ in range(10):
        f = random_mv(SIG13, rng, grades={2})
        u = exp_bivector(f)
        assert (geometric_product(u, reversion(u)) - 1).max_abs() < 1e-12
        assert all(g % 2 == 0 for g in u.grades())


def test_exp_rejects_non_bivector():
    with pytest.raises(ValueError):
        exp_bivector(gen(SIG13, 1))


# -- closed-form exponential (n <= 4) against the power series ---------------------

SMALL_SIGNATURES = [Signature(p, n - p) for n in range(5) for p in range(n + 1)]


def bivector_masks(sig):
    return [m for m in range(1 << sig.n) if m.bit_count() == 2]


@st.composite
def moderate_bivectors(draw):
    """A real bivector in any signature with n <= 4, with norm 1e-6 to 4."""
    sig = draw(st.sampled_from(SMALL_SIGNATURES))
    masks = bivector_masks(sig)
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    raw = [draw(unit) for _ in masks]
    size = math.sqrt(sum(c * c for c in raw))
    norm = 10.0 ** draw(st.floats(-6.0, math.log10(4.0)))
    return Multivector(sig, {m: norm * c / size for m, c in zip(masks, raw)} if size else {})


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(moderate_bivectors())
def test_exp_closed_form_matches_series(f):
    got = exp_bivector(f)
    want = _exp_series(f)
    assert (got - want).max_abs() <= 1e-13 * want.max_abs()


@pytest.mark.parametrize("sig", SMALL_SIGNATURES, ids=str)
def test_exp_of_zero_is_one_in_every_small_signature(sig):
    assert exp_bivector(Multivector.zero(sig)) == Multivector.scalar(sig, 1.0)


@pytest.mark.parametrize("sig", [s for s in SMALL_SIGNATURES if s.n >= 2], ids=str)
def test_exp_of_simple_bivector_is_cos_sin_or_cosh_sinh(sig):
    """exp(theta B) for a unit blade B: cos theta + sin theta B when B^2 = -1
    (a rotation), cosh theta + sinh theta B when B^2 = +1 (a boost), with no
    other term and each coefficient within one rounding."""
    theta = 0.83
    for mask in bivector_masks(sig):
        square = _reorder_sign(sig.p, sig.n, mask)[mask]
        cos, sin = (math.cos, math.sin) if square < 0 else (math.cosh, math.sinh)
        u = exp_bivector(Multivector.from_mask(sig, mask, theta))
        assert set(u.terms) == {0, mask}
        assert u.scalar_part() == pytest.approx(cos(theta), rel=2.3e-16, abs=0)
        assert u.coeff(mask) == pytest.approx(sin(theta), rel=2.3e-16, abs=0)


def test_exp_huge_rotation_is_a_unit_rotor():
    u = exp_bivector(Multivector(SIG13, {0b0110: 1e6}))
    assert (geometric_product(u, reversion(u)) - 1).max_abs() < 1e-15
    assert Rotor(u).u == u
    assert u.scalar_part() == pytest.approx(math.cos(1e6), abs=1e-15)


def test_exp_huge_boost_is_a_domain_error():
    with pytest.raises(ValueError, match="non-finite coefficient"):
        exp_bivector(Multivector(SIG13, {0b0011: 1e6}))


def test_exp_series_serves_only_n_above_four_and_complex_input(monkeypatch):
    calls = []

    def counting_series(f):
        calls.append(f)
        return _exp_series(f)

    monkeypatch.setattr(mv_module, "_exp_series", counting_series)
    for sig in SMALL_SIGNATURES:
        exp_bivector(Multivector(sig, {m: 0.3 for m in bivector_masks(sig)}))
    assert calls == []
    five = Multivector(Signature(1, 4), {0b00011: 0.4, 0b11000: -0.7})
    complex_f = Multivector(SIG13, {0b0110: 0.5j})
    for f in (five, complex_f):
        assert exp_bivector(f) == _exp_series(f)
    assert calls == [five, complex_f]


def test_inverse_generators():
    assert inverse(gen(SIG13, 1)) == gen(SIG13, 1)
    assert (inverse(gen(SIG13, 2)) + gen(SIG13, 2)).max_abs() == 0.0


def test_inverse_of_rotor_is_reversion():
    f = random_mv(SIG13, rng, grades={2})
    u = exp_bivector(f)
    assert (inverse(u) - reversion(u)).max_abs() < 1e-12


def test_inverse_general_path():
    # force the general linear-solve path with an element whose x*rev(x) is
    # not scalar
    x = 2 + gen(SIG13, 1) + geometric_product(
        gen(SIG13, 1), geometric_product(gen(SIG13, 2), gen(SIG13, 3))
    )
    xi = inverse(x)
    assert (geometric_product(x, xi) - 1).max_abs() < 1e-12


def test_left_mult_matrix_matches_product_exactly():
    # Dyadic coefficients keep every sum exact, whatever order numpy adds in.
    sig = Signature(3, 2)
    a = Multivector(sig, {m: (m % 7 - 3) / 8 for m in range(1 << sig.n)})
    b = Multivector(sig, {m: (m % 5 - 2) / 4 for m in range(1 << sig.n)})
    got = _left_mult_matrix(a) @ np.array(b.coefficients()).real
    assert got.tolist() == [c.real for c in geometric_product(a, b).coefficients()]


def test_sign_cache_holds_one_row_per_left_blade():
    sig = Signature(3, 3)
    dense = Multivector(sig, {m: 1.0 + m % 3 for m in range(1 << sig.n)})
    _reorder_sign.cache_clear()
    geometric_product(dense, dense)
    assert _reorder_sign.cache_info().currsize <= 1 << sig.n


def test_idempotent_not_invertible():
    e = (1 + gen(SIG13, 1)) * 0.5
    with pytest.raises(NonInvertibleError):
        inverse(e)
    with pytest.raises(NonInvertibleError):
        inverse(Multivector.zero(SIG13))


def test_norm_examples():
    assert norm_N(Multivector.scalar(SIG13, 1.0)) == 1.0
    # conj(e1) = -e1 and e1*e1 = +1, so N(e1) = -1; the spacelike e2 has
    # conj(e2) = -e2 and e2*e2 = -1, so N(e2) = +1
    assert norm_N(gen(SIG13, 1)) == -1.0
    assert norm_N(gen(SIG13, 2)) == 1.0
    for _ in range(10):
        u = exp_bivector(random_mv(SIG13, rng, grades={2}))
        assert abs(norm_N(u) - 1.0) < 1e-12


# -- trusted constructor: internal results match the validating constructor --------------


def random_operand(sig, rng, complex_coeffs):
    """Sparse operand with dyadic and random coefficients, so that some
    products cancel exactly and leave zeros for the constructor to drop."""
    terms = {}
    for mask in range(1 << sig.n):
        if rng.random() < 0.4:
            continue
        c = float(rng.integers(-2, 3)) / 2 if rng.random() < 0.5 else float(rng.uniform(-1, 1))
        if complex_coeffs:
            c = complex(c, float(rng.integers(-2, 3)) / 2)
        terms[mask] = c
    return Multivector(sig, terms)


def bits(mv):
    return {m: (c.real.hex(), c.imag.hex()) for m, c in mv.terms.items()}


def internal_results(a, b):
    return {
        "product": geometric_product(a, b),
        "wedge": wedge(a, b),
        "left_contraction": left_contraction(a, b),
        "right_contraction": right_contraction(a, b),
        "sum": a + b,
        "difference": a - b,
        "cancelled": a - a,
        "negation": -a,
        "scaled": a * -0.75,
        "scaled_imaginary": a * 1j,
        "reversion": reversion(a),
        "grade_involution": grade_involution(a),
        "conjugation": conjugation(a),
        "grade_2": grade_part(a, 2),
        "even": a.even(),
        "odd": a.odd(),
        "pruned": a.prune(0.5),
    }


@pytest.mark.parametrize("p,q", [(1, 3), (4, 1), (0, 5), (3, 3)])
@pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real", "complex"])
def test_internal_results_match_public_constructor(p, q, complex_coeffs):
    sig = Signature(p, q)
    local = np.random.default_rng(p * 10 + q + 100 * complex_coeffs)
    for _ in range(6):
        a = random_operand(sig, local, complex_coeffs)
        b = random_operand(sig, local, complex_coeffs and bool(local.random() < 0.5))
        for name, result in internal_results(a, b).items():
            rebuilt = Multivector(sig, result.terms)
            assert result == rebuilt, name
            assert result.real == rebuilt.real, name
            # Same bits too: no -0.0 part survives where __init__ would store +0.0.
            assert bits(result) == bits(rebuilt), name
            assert all(c != 0 for c in result.terms.values()), name
            assert all(type(c) is complex for c in result.terms.values()), name


def test_exact_cancellation_leaves_no_terms():
    e1 = gen(SIG13, 1)
    # (1 + e1)(1 - e1) = 1 - e1 e1 = 0 with e1^2 = +1
    product = geometric_product(1 + e1, 1 - e1)
    assert product.is_zero() and product.terms == {}
    assert product.real


def test_trusted_path_rejects_non_finite_coefficients():
    big = Multivector.generator(SIG13, 1) * 1e200
    with pytest.raises(ValueError, match="non-finite coefficient"):
        geometric_product(big, big)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        big * 1e200
    with pytest.raises(ValueError, match="non-finite coefficient"):
        big * 1e108 + big * 1e108
    with pytest.raises(ValueError, match="non-finite coefficient"):
        gen(SIG13, 2) * math.nan


def test_trusted_path_accepts_terms_whose_sum_overflows():
    # Every coefficient is finite though their sum is not.
    a = Multivector(SIG13, {1: 1e308, 2: 1e308, 4: -1e308 * 1j})
    for result in (a * 1.0, -a, reversion(a), a.even() + a.odd(), a + 0.0):
        assert result == a or result == -a
        assert all(math.isfinite(abs(c)) for c in result.terms.values())


def test_numpy_scalars_are_stored_as_python_complex():
    e1 = gen(SIG13, 1)
    for s in (np.float64(2), np.int64(2), np.complex128(2), np.float32(2)):
        for scaled in (e1 * s, s * e1):
            assert scaled == 2 * e1
            assert all(type(c) is complex for c in scaled.terms.values())


# -- generated product kernels: bit-identical to the dict loop ---------------------------

PRODUCTS = {
    geometric_product: None,
    wedge: mv_module._outer,
    left_contraction: mv_module._left_inner,
    right_contraction: mv_module._right_inner,
}


def ordered_bits(mv):
    """Coefficient bits in insertion order, so key order counts too."""
    return [(m, c.real.hex(), c.imag.hex()) for m, c in mv._terms.items()]


def loop_product(a, b, keep):
    sig = a.signature
    return Multivector._own(sig, mv_module._product_loop(sig.p, sig.n, a._terms, b._terms, keep))


def shuffled_operand(sig, rng, size, complex_coeffs):
    """size terms on random blades in random key order, with dyadic values
    among them so that some output blades cancel exactly."""
    masks = rng.permutation(1 << sig.n)[:size]
    terms = {}
    for m in masks:
        c = float(rng.integers(-2, 3)) / 2 if rng.random() < 0.3 else float(rng.normal())
        if complex_coeffs:
            c = complex(c, float(rng.normal()))
        terms[int(m)] = c if c else 0.5
    return Multivector(sig, terms)


@pytest.mark.parametrize(
    "p,q", [(p, n - p) for n in range(5) for p in range(n + 1)], ids=lambda v: str(v)
)
@pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real", "complex"])
def test_kernels_match_the_dict_loop_bit_for_bit(monkeypatch, p, q, complex_coeffs):
    cache = mv_module._KernelCache()
    monkeypatch.setattr(mv_module, "_KERNELS", cache)
    sig = Signature(p, q)
    local = np.random.default_rng([p, q, complex_coeffs])
    dim = 1 << sig.n
    for size in range(1, dim + 1):
        a = shuffled_operand(sig, local, size, complex_coeffs)
        b = shuffled_operand(sig, local, int(local.integers(1, dim + 1)), complex_coeffs)
        for product, keep in PRODUCTS.items():
            want = ordered_bits(loop_product(a, b, keep))
            key = (sig.p, sig.n, tuple(a._terms), tuple(b._terms), keep)
            # The first call compiles the pattern; the next two reuse its kernel.
            for call in range(3):
                assert ordered_bits(product(a, b)) == want, (product.__name__, call)
                assert key in cache.kernels
    assert cache.pairs == sum(len(k[2]) * len(k[3]) for k in cache.kernels)


def test_kernel_cache_holds_to_its_pair_budget(monkeypatch):
    cache = mv_module._KernelCache()
    monkeypatch.setattr(mv_module, "_KERNELS", cache)
    monkeypatch.setattr(mv_module, "_KERNEL_PAIR_BUDGET", 2000)
    local = np.random.default_rng(3)
    sig = SIG13
    for _ in range(150):
        # Dense and near-dense operands in random key order: 150 new patterns
        # of up to 256 pairs each, many times what the budget holds.
        a = shuffled_operand(sig, local, int(local.integers(8, 17)), False)
        b = shuffled_operand(sig, local, int(local.integers(8, 17)), True)
        for product, keep in PRODUCTS.items():
            want = ordered_bits(loop_product(a, b, keep))
            for _ in range(2):
                assert ordered_bits(product(a, b)) == want
        assert cache.pairs <= 2000
    assert cache.pairs == sum(len(k[2]) * len(k[3]) for k in cache.kernels)
    assert 0 < len(cache.kernels) < 150


def test_products_above_four_dimensions_never_enter_the_kernel_cache(monkeypatch):
    cache = mv_module._KernelCache()
    monkeypatch.setattr(mv_module, "_KERNELS", cache)
    local = np.random.default_rng(4)
    for sig in (Signature(5, 0), Signature(3, 2), Signature(1, 5)):
        a = shuffled_operand(sig, local, 6, False)
        b = shuffled_operand(sig, local, 5, True)
        for product in PRODUCTS:
            for _ in range(3):
                product(a, b)
    assert cache.kernels == {} and cache.pairs == 0


# -- the sign table: one int8 table per signature serves real products for n >= 5 ------------

SIGNATURES_5_TO_8 = [(p, n - p) for n in range(5, 9) for p in range(n + 1)]


def table_product(a, b, keep):
    sig = a.signature
    return Multivector._own(sig, mv_module._product_array(sig.p, sig.n, a._terms, b._terms, keep))


def drawn_operand(sig, local, kind, dyadic):
    """A real operand with one term, a few terms or all 2^n terms, in random
    key order, with dyadic coefficients (k/8) or normal ones."""
    dim = 1 << sig.n
    size = {"single": 1, "sparse": int(local.integers(2, 12)), "dense": dim}[kind]
    terms = {}
    for m in local.permutation(dim)[:size]:
        c = float(local.integers(-8, 9)) / 8 if dyadic else float(local.normal())
        terms[int(m)] = c if c else 0.25
    return Multivector(sig, terms)


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    st.sampled_from(SIGNATURES_5_TO_8),
    st.sampled_from(["single", "sparse", "dense"]),
    st.sampled_from(["single", "sparse", "dense"]),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
def test_table_path_matches_the_dict_loop_bit_for_bit(pq, kind_a, kind_b, dyadic, seed):
    sig = Signature(*pq)
    local = np.random.default_rng(seed)
    a = drawn_operand(sig, local, kind_a, dyadic)
    b = drawn_operand(sig, local, kind_b, dyadic)
    for product, keep in PRODUCTS.items():
        want = loop_product(a, b, keep)
        # Values and key order, from the table path and from the public product.
        assert list(table_product(a, b, keep)._terms.items()) == list(want._terms.items())
        assert list(product(a, b)._terms.items()) == list(want._terms.items())
    if dyadic:
        # Every sum of dyadic products is exact, in whatever order it is added.
        exact = _left_mult_matrix(a) @ np.array(b.coefficients()).real
        assert table_product(a, b, None) == Multivector(sig, dict(enumerate(exact.tolist())))


@pytest.mark.parametrize("pq", [(3, 2), (0, 7), (4, 4)])
def test_table_path_keeps_loop_order_across_blocks(monkeypatch, pq):
    monkeypatch.setattr(mv_module, "_ARRAY_BLOCK_PAIRS", 97)
    sig = Signature(*pq)
    local = np.random.default_rng(list(pq))
    for kinds in (("dense", "dense"), ("sparse", "dense"), ("dense", "single")):
        a, b = (drawn_operand(sig, local, kind, False) for kind in kinds)
        for keep in PRODUCTS.values():
            want = list(loop_product(a, b, keep)._terms.items())
            assert list(table_product(a, b, keep)._terms.items()) == want


def test_only_large_real_products_above_four_dimensions_take_the_table_path(monkeypatch):
    calls = []
    table = mv_module._product_array
    monkeypatch.setattr(
        mv_module, "_product_array", lambda *args: calls.append(args[:2]) or table(*args)
    )
    local = np.random.default_rng(7)
    sig = Signature(3, 3)
    dense = drawn_operand(sig, local, "dense", False)
    single = drawn_operand(sig, local, "single", False)
    geometric_product(dense, dense)
    geometric_product(single, dense)  # 64 pairs: below the threshold
    geometric_product(random_mv(SIG13, local), random_mv(SIG13, local))
    assert calls == [(3, 6)]
    assert 64 < mv_module._ARRAY_MIN_PAIRS <= 64 * 64


@pytest.mark.parametrize("pq", [(5, 0), (2, 4), (3, 4)])
def test_complex_products_never_take_the_table_path(monkeypatch, pq):
    # numpy's complex multiply can differ from Python's in the last bit.
    def refuse(*args):
        raise AssertionError("complex operands reached the table path")

    monkeypatch.setattr(mv_module, "_product_array", refuse)
    sig = Signature(*pq)
    local = np.random.default_rng(list(pq))
    real = drawn_operand(sig, local, "dense", False)
    imaginary = real * 1j + drawn_operand(sig, local, "dense", True)
    for a, b in ((imaginary, real), (real, imaginary), (imaginary, imaginary)):
        for product, keep in PRODUCTS.items():
            assert list(product(a, b)._terms.items()) == list(loop_product(a, b, keep)._terms.items())


@pytest.mark.parametrize("n", range(5, 9))
def test_sign_table_rows_are_the_sign_rule_rows(n):
    for p in range(n + 1):
        table = mv_module._sign_table(p, n)
        assert table.dtype == np.int8 and not table.flags.writeable
        assert all(tuple(table[a].tolist()) == _reorder_sign(p, n, a) for a in range(1 << n))
    _reorder_sign.cache_clear()


def test_dense_real_products_build_no_sign_rows():
    # A fresh interpreter: the rows of _reorder_sign are Python-int tuples,
    # 128 MiB for all of Cl(6,6), where its int8 sign table holds 16 MiB.
    script = (
        "import resource\n"
        "import numpy as np\n"
        "import cliffspin as cs\n"
        "from cliffspin.multivector import _reorder_sign\n"
        "local = np.random.default_rng(0)\n"
        "def dense(sig):\n"
        "    return cs.Multivector(sig, dict(enumerate(local.uniform(-1, 1, 1 << sig.n).tolist())))\n"
        "a, b = dense(cs.Signature(5, 5)), dense(cs.Signature(5, 5))\n"
        "cs.geometric_product(a, b)\n"
        "rows = _reorder_sign.cache_info().currsize\n"
        "c, d = dense(cs.Signature(6, 6)), dense(cs.Signature(6, 6))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "cs.geometric_product(c, d)\n"
        "grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(rows, grew / 1024, _reorder_sign.cache_info().currsize)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    rows, grew_mib, rows_after = out.stdout.split()
    assert int(rows) == 0 and int(rows_after) == 0
    assert float(grew_mib) <= 32


def test_inverse_fast_path_test_is_relative_to_scale(monkeypatch):
    def refuse(a):
        raise AssertionError("took the general path")

    monkeypatch.setattr(mv_module, "_left_mult_matrix", refuse)
    sig = Signature(4, 3)
    for scale in (1e-8, 1.0, 1e8):
        for i in (1, 5):
            a = gen(sig, i) * scale
            assert (geometric_product(a, inverse(a)) - 1).max_abs() < 1e-12
