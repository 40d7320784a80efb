import cmath
import copy
import dataclasses
import gc
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from functools import partial

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
    format_multivector,
    from_json,
    geometric_product,
    grade_involution,
    grade_part,
    hodge_dual,
    inverse,
    left_contraction,
    norm_N,
    parse_multivector,
    reversion,
    right_contraction,
    scalar_product,
    to_json,
    wedge,
)
from cliffspin import multivector as mv_module
from cliffspin.multivector import (
    _exp_series,
    _left_mult_matrix,
    _parity_sign,
    _reorder_sign,
    _right_sign_weight,
    _sign_weight,
    _times_blade,
)

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


def test_masks_are_stored_as_ints():
    mv = Multivector(SIG13, {np.int64(3): 1.0, True: 2.0})
    assert [type(m) for m in mv.terms] == [int, int]
    assert mv == Multivector(SIG13, {3: 1.0, 1: 2.0})
    assert repr(mv) == "<Cl(1,3) 2 e1 + e1^e2>"
    assert format_multivector(mv) == "2 e1 + e1^e2"
    assert '"blades": [1, 2]' in to_json(mv)
    for mask in (3.0, "3", None):
        with pytest.raises(ValueError, match="is not an integer"):
            Multivector(SIG13, {mask: 1.0})


# -- one Signature per (p, q); constants shared per signature ------------------


def test_signature_is_shared_per_int_pair():
    assert Signature(1, 3) is SIG13
    assert Signature(p=1, q=3) is SIG13
    assert Signature(3, 1) is not SIG13 and Signature(3, 1) != SIG13
    assert SIG13 == Signature(1, 3) and hash(SIG13) == hash(Signature(1, 3))
    assert {SIG13: "x"}[Signature(1, 3)] == "x"
    assert repr(SIG13) == "Signature(p=1, q=3)"
    # n is stored, and neither compared nor hashed: == and hash read (p, q).
    for p in range(mv_module.MAX_DIM + 1):
        for q in range(mv_module.MAX_DIM + 1 - p):
            sig = Signature(p, q)
            assert sig.n == p + q and type(sig.n) is int
            assert hash(sig) == hash((p, q))
    assert [f.name for f in dataclasses.fields(Signature) if f.compare] == ["p", "q"]


@pytest.mark.parametrize(
    "copy_of",
    [copy.copy, copy.deepcopy, dataclasses.replace]
    + [lambda s, k=k: pickle.loads(pickle.dumps(s, protocol=k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_signature_copies_are_the_shared_instance(copy_of):
    assert copy_of(SIG13) is SIG13
    assert copy_of(Signature(0, 0)) is Signature(0, 0)
    # A copy writes nothing back into the shared instance.
    assert type(SIG13.p) is int and (SIG13.p, SIG13.q, SIG13.n) == (1, 3, 4)


@pytest.mark.parametrize(
    "copy_of",
    [copy.copy, copy.deepcopy]
    + [lambda x, k=k: pickle.loads(pickle.dumps(x, protocol=k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_multivectors_and_values_holding_them_copy_and_pickle(copy_of):
    from cliffspin import (
        bilinear_covariants,
        planewave_solution,
        random_regular_spinor,
        random_rotor,
        spinorial_frame_of,
    )

    x = Multivector(SIG13, {0: 1.5, 0b0110: -2 + 0.25j, 0b1111: 3e-300})
    y = copy_of(x)
    assert y == x and list(y.terms) == list(x.terms)
    assert y.signature is SIG13 and y.real is False and copy_of(x.even()).real is False
    assert copy_of(Multivector.one(SIG13)).real is True

    rng = np.random.default_rng(4)
    rotor = random_rotor(SIG13, rng)
    frame = spinorial_frame_of(rotor)
    d = random_regular_spinor(rng, frame)
    field = planewave_solution(1.0, (0.3, -0.2, 0.5))
    for value in (rotor, frame, d, bilinear_covariants(d), field):
        assert copy_of(value) == value, type(value).__name__
    field._amplitude
    # The cached amplitude travels with the field.
    assert copy_of(field).__dict__ == field.__dict__


def test_signature_replace_gives_the_shared_instance_of_its_pair():
    assert dataclasses.replace(SIG13, q=2) is Signature(1, 2)
    assert dataclasses.replace(SIG13, q=2).n == 3
    with pytest.raises(ValueError):
        dataclasses.replace(SIG13, p=-1)
    # n is derived, so replace refuses it.
    with pytest.raises(ValueError):
        dataclasses.replace(SIG13, n=5)
    assert (SIG13.p, SIG13.q, SIG13.n) == (1, 3, 4)


@pytest.mark.parametrize("pq", [(-1, 3), (2, -1), (7, 6), (13, 0)])
def test_invalid_signatures_raise_and_are_never_shared(pq):
    with pytest.raises(ValueError):
        Signature(*pq)
    assert (Signature, *pq) not in mv_module._SIGNATURES


def test_counts_are_normalised_to_int_and_the_signature_shared():
    for one in (True, np.int64(1), np.uint8(1)):
        assert Signature(one, 3) is SIG13
        assert Signature(3, one) is Signature(3, 1)
        assert dataclasses.replace(SIG13, q=one) is Signature(1, 1)
    # The shared Cl(1,3) keeps its int counts, as do its constants.
    assert type(SIG13.p) is int and type(SIG13.q) is int
    assert repr(Multivector.generator(SIG13, 1)) == "<Cl(1,3) e1>"
    for bad in (1.0, np.float64(1), "1", None):
        with pytest.raises(TypeError):
            Signature(bad, 3)
    with pytest.raises(ValueError):
        Signature(np.int64(-1), 3)


def test_generators_and_one_are_shared_and_immutable():
    e1 = Multivector.generator(SIG13, 1)
    assert e1 is Multivector.generator(Signature(1, 3), 1)
    assert Multivector.one(SIG13) is Multivector.one(Signature(1, 3))
    # Values built past __init__, by the slot descriptors, keep the guard.
    x, r = Multivector(SIG13, {0: 1.0, 3: 2.0, 6: -1.5j}), Multivector(SIG13, {0: 1.0, 3: 2.0})
    built = (x * x, r * r, geometric_product(r, x, grades=(2,)), _times_blade(x, 0b0101, -1.0), reversion(x), -x, x + 1)
    for value in (e1, Multivector.zero(SIG13)) + built:
        for name in ("_terms", "real", "signature", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
    e1.terms[1] = 5.0
    e1.terms.clear()
    for result in (e1 + 0, e1 - 0, 0 - -e1, e1 * 1.0, e1.prune(0.0), e1.grade(1), e1.odd(), reversion(e1)):
        assert result._terms is not e1._terms
    assert ordered_bits(e1) == [(1, "0x1.0000000000000p+0", "0x0.0p+0")] and e1.real
    with pytest.raises(ValueError, match="out of range"):
        Multivector.generator(SIG13, 0)
    with pytest.raises(ValueError, match="out of range"):
        Multivector.generator(SIG13, 5)


@pytest.mark.parametrize("pq", [(0, 0), (1, 0), (1, 3), (2, 2), (4, 1), (0, 7)])
def test_shared_constants_are_what_the_validating_constructor_builds(pq):
    sig = Signature(*pq)
    want = [Multivector(sig, {0: 1.0})] + [Multivector(sig, {1 << i: 1.0}) for i in range(sig.n)]
    got = [Multivector.one(sig)] + [Multivector.generator(sig, i + 1) for i in range(sig.n)]
    for g, w in zip(got, want):
        assert ordered_bits(g) == ordered_bits(w) and g.real is w.real and g.signature is sig
    zero = Multivector.zero(sig)
    assert zero == Multivector(sig, {}) and zero.real is True and not zero._terms


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


# -- closed-form exponential (n <= 4, and single blades at any n) -------------------

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


@pytest.mark.parametrize(
    "sig",
    [s for s in SMALL_SIGNATURES if s.n >= 2] + [Signature(4, 1), Signature(3, 3), Signature(1, 5)],
    ids=str,
)
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


def test_exp_huge_rotation_above_four_dimensions_is_a_unit_rotor():
    """A single blade squares to an exact scalar at any n, so its exponential
    is cos + sin B, a unit rotor even at angle 1e6."""
    theta = 1e6
    u = exp_bivector(Multivector(Signature(4, 1), {0b0110: theta}))
    assert (geometric_product(u, reversion(u)) - 1).max_abs() < 1e-15
    assert Rotor(u).u == u
    assert set(u.terms) == {0, 0b0110}
    assert u.scalar_part() == pytest.approx(math.cos(theta), rel=2.3e-16, abs=0)
    assert u.coeff(0b0110) == pytest.approx(math.sin(theta), rel=2.3e-16, abs=0)


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
    # Only the loop reads rows, and complex operands take the loop at every n
    # (a dense real product here takes a plan and reads none).  The cache
    # keeps at most 512 rows: a dense Cl(5,5) product reads 1024.
    for sig in (Signature(3, 3), Signature(5, 5)):
        dense = Multivector(sig, {m: 1.0 + m % 3 for m in range(1 << sig.n)})
        _reorder_sign.cache_clear()
        geometric_product(1j * dense, dense)
        assert 0 < _reorder_sign.cache_info().currsize <= min(1 << sig.n, 512)
    _reorder_sign.cache_clear()


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
    """The result of every builder path on operands a and b.  Real products
    take an n <= 4 kernel, a shared n > 4 kernel (Cl(4,1), Cl(0,5)) or pair
    blocks (Cl(3,3)); vector products above n = 4, and complex operands,
    take the loop.  The readers, the complex values whose grade, even part
    or pruned part is real, and a * 1j * 1j reach the cases where _own
    stores a complex input as floats."""
    sig = a.signature
    # For a real a, its even part is real and its odd part imaginary.
    mixed = a.even() + 1j * a.odd()
    return {
        "product": geometric_product(a, b),
        "vector_product": geometric_product(a.grade(1), b.grade(1)),
        "wedge": wedge(a, b),
        "left_contraction": left_contraction(a, b),
        "right_contraction": right_contraction(a, b),
        "sum": a + b,
        "difference": a - b,
        "cancelled": a - a,
        "negation": -a,
        "scaled": a * -0.75,
        "scaled_imaginary": a * 1j,
        "imaginary_squared": a * 1j * 1j,
        "scalar_added": a + 0.5,
        "complex_scalar_added": a + (0.5 + 0j),
        "reversion": reversion(a),
        "grade_involution": grade_involution(a),
        "conjugation": conjugation(a),
        "grade_2": grade_part(a, 2),
        "even": a.even(),
        "odd": a.odd(),
        "pruned": a.prune(0.5),
        "mixed_grade_2": mixed.grade(2),
        "mixed_even": mixed.even(),
        "mixed_pruned": (a.even() + 1e-9j * a.odd()).prune(1e-6),
        # n <= 3, n = 4 with I^2 = -1 or +1, or the series above n = 4 and
        # for a complex F.
        "exp_bivector": exp_bivector(a.grade(2)),
        "inverse": inverse(a),
        "pickled": pickle.loads(pickle.dumps(a)),
        # A real value's JSON holds "im": 0.0 for every term.
        "json_read": from_json(to_json(a)),
        "text_read": parse_multivector(format_multivector(a), sig),
        "text_read_zero_imaginary": parse_multivector("(1+0j) e1", sig),
    }


@pytest.mark.parametrize("p,q", [(1, 3), (4, 1), (0, 5), (3, 3), (1, 2), (2, 2)])
@pytest.mark.parametrize("complex_coeffs", [False, True], ids=["real", "complex"])
def test_internal_results_match_public_constructor(p, q, complex_coeffs):
    """Every builder stores what __init__ stores: floats on a real value and
    complexes on a complex one."""
    sig = Signature(p, q)
    one, one_complex = Multivector(sig, {0: 1.0}), Multivector(sig, {0: 1 + 0j})
    assert one == one_complex and hash(one) == hash(one_complex)
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
            stored = float if result.real else complex
            assert all(type(c) is stored for c in result.terms.values()), name


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


def test_numpy_scalars_scale_a_real_value_to_python_floats():
    e1 = gen(SIG13, 1)
    for s in (np.float64(2), np.int64(2), np.complex128(2), np.float32(2)):
        for scaled in (e1 * s, s * e1):
            assert scaled == 2 * e1
            assert all(type(c) is float for c in scaled.terms.values())


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


def charge(key):
    """The pairs the form cache charges for a key pattern: its term pairs,
    and no fewer than _FORM_MIN_PAIRS."""
    return max(len(key[2]) * len(key[3]), mv_module._FORM_MIN_PAIRS)


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
def test_kernels_match_the_dict_loop_bit_for_bit(fresh_forms, p, q, complex_coeffs):
    cache = fresh_forms
    sig = Signature(p, q)
    local = np.random.default_rng([p, q, complex_coeffs])
    dim = 1 << sig.n
    for size in range(1, dim + 1):
        a = shuffled_operand(sig, local, size, complex_coeffs)
        b = shuffled_operand(sig, local, int(local.integers(1, dim + 1)), complex_coeffs)
        for product, keep in PRODUCTS.items():
            want = ordered_bits(loop_product(a, b, keep))
            key = (sig.p, sig.n, tuple(a._terms), tuple(b._terms), keep)
            # The first call compiles a real pattern; the next two reuse its
            # kernel.  Complex operands take the loop and compile nothing.
            for call in range(3):
                assert ordered_bits(product(a, b)) == want, (product.__name__, call)
                assert (key in cache.forms) is not complex_coeffs
    assert (cache.forms == {}) is complex_coeffs
    assert cache.pairs == sum(map(charge, cache.forms))


def test_kernel_cache_holds_to_its_pair_budget(fresh_forms, monkeypatch):
    cache = fresh_forms
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 2000)
    local = np.random.default_rng(3)
    sig = SIG13
    for _ in range(150):
        # Dense and near-dense operands in random key order: 150 new patterns
        # of up to 256 pairs each, many times what the budget holds.
        a = shuffled_operand(sig, local, int(local.integers(8, 17)), False)
        b = shuffled_operand(sig, local, int(local.integers(8, 17)), False)
        for product, keep in PRODUCTS.items():
            want = ordered_bits(loop_product(a, b, keep))
            for _ in range(2):
                assert ordered_bits(product(a, b)) == want
        assert cache.pairs <= 2000
    assert cache.pairs == sum(map(charge, cache.forms))
    assert 0 < len(cache.forms) < 150


def test_products_above_four_dimensions_never_enter_the_kernel_cache(fresh_forms):
    cache = fresh_forms
    local = np.random.default_rng(4)
    for sig in (Signature(5, 0), Signature(3, 2), Signature(1, 5)):
        a = shuffled_operand(sig, local, 6, False)
        b = shuffled_operand(sig, local, 5, True)
        for product in PRODUCTS:
            for _ in range(3):
                product(a, b)
    assert cache.forms == {} and cache.pairs == 0


def test_complex_operands_compile_no_kernel_and_match_the_loop(fresh_forms):
    cache = fresh_forms
    local = np.random.default_rng(5)
    for sig in (SIG13, SIG20, Signature(0, 1), Signature(4, 0), Signature(1, 2)):
        a = shuffled_operand(sig, local, min(6, 1 << sig.n), False)
        b = shuffled_operand(sig, local, min(5, 1 << sig.n), False)
        # The same keys in the same order, with imaginary parts.
        ai = Multivector(sig, {m: c + 0.5j for m, c in a._terms.items()})
        bi = Multivector(sig, {m: c - 0.25j for m, c in b._terms.items()})
        for x, y in ((ai, b), (a, bi), (ai, bi)):
            for product, keep in PRODUCTS.items():
                for _ in range(2):
                    assert ordered_bits(product(x, y)) == ordered_bits(loop_product(x, y, keep))
    assert cache.forms == {} and cache.pairs == 0


def test_real_and_complex_operands_compile_distinct_kernels(fresh_forms):
    cache = fresh_forms
    local = np.random.default_rng(5)
    a = shuffled_operand(SIG13, local, 6, False)
    b = shuffled_operand(SIG13, local, 5, False)
    # The same keys in the same order, with imaginary parts.
    ai = Multivector(SIG13, {m: c + 0.5j for m, c in a._terms.items()})
    bi = Multivector(SIG13, {m: c - 0.25j for m, c in b._terms.items()})
    pattern = (SIG13.p, SIG13.n, tuple(a._terms), tuple(b._terms))
    for x, y in ((a, b), (ai, b), (a, bi), (ai, bi)):
        for product, keep in PRODUCTS.items():
            assert ordered_bits(product(x, y)) == ordered_bits(loop_product(x, y, keep))
    # One kernel per filter, compiled by the real operands alone: a complex
    # operand of the same pattern is not served by the real kernel (which
    # would drop its imaginary parts) but takes the loop, and each kernel
    # of 30 pairs is charged the least charge, 64 pairs.
    want = {(*pattern, keep) for keep in PRODUCTS.values()}
    assert set(cache.forms) == want
    assert cache.pairs == sum(map(charge, want)) == 4 * 64


def test_kernel_budget_charges_each_realness_of_a_pattern(fresh_forms, monkeypatch):
    cache = fresh_forms
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 64)  # one 30-pair kernel's charge
    local = np.random.default_rng(6)
    a = shuffled_operand(SIG13, local, 6, False)
    b = shuffled_operand(SIG13, local, 5, False)
    ai = Multivector(SIG13, {m: c + 0.5j for m, c in a._terms.items()})
    # The complex pattern takes the loop and is charged nothing, so the
    # real kernel after it still finds the whole budget.
    assert ordered_bits(geometric_product(ai, b)) == ordered_bits(loop_product(ai, b, None))
    assert cache.forms == {} and cache.pairs == 0
    assert ordered_bits(geometric_product(a, b)) == ordered_bits(loop_product(a, b, None))
    # The real kernel spent the budget; the complex pattern still takes the loop.
    assert ordered_bits(geometric_product(ai, b)) == ordered_bits(loop_product(ai, b, None))
    key = (SIG13.p, SIG13.n, tuple(a._terms), tuple(b._terms), None)
    assert list(cache.forms) == [key]
    assert cache.pairs == charge(key) == 64


def test_real_kernels_report_overflow_as_the_loop_does(fresh_forms):
    big = Multivector(SIG13, {1: 1e200, 2: -3e200, 6: 2e200})
    for product, keep in PRODUCTS.items():
        with pytest.raises(ValueError, match="^non-finite coefficient$"):
            loop_product(big, big, keep)
        for _ in range(2):  # compiling, then the cached kernel
            with pytest.raises(ValueError, match="^non-finite coefficient$"):
                product(big, big)
    # Finite terms whose float sum overflows are kept, as the loop keeps them.
    huge = Multivector(SIG13, {1: 1e308, 2: 1e308, 4: 1e308})
    one = Multivector.scalar(SIG13, 1.0)
    assert ordered_bits(geometric_product(huge, one)) == ordered_bits(huge)


# -- the array path: pair blocks serve real products for n >= 5 ----------------------------

SIGNATURES_5_TO_8 = [(p, n - p) for n in range(5, 9) for p in range(n + 1)]


def plan_key(a, b, keep):
    return (a.signature.p, a.signature.n, tuple(a._terms), tuple(b._terms), keep)


def table_product(a, b, keep):
    """The pattern's compiled form, a kernel or pair blocks, as _FORMS
    compiles it on the first call and reads it back after, or blocks made
    anew where _FORM_MAX_PAIRS leaves the pattern uncompiled."""
    key = plan_key(a, b, keep)
    form = mv_module._FORMS.forms.get(key) or mv_module._FORMS.compile(key)
    if form is None:
        return uncached_product(a, b, keep)
    return Multivector._trusted(a.signature, form(a._terms.values(), b._terms.values()), True)


def uncached_product(a, b, keep):
    """_sum_blocks on blocks made anew, as past the form cap or budget."""
    blocks = mv_module._pair_blocks(*plan_key(a, b, keep))
    terms = mv_module._sum_blocks(a.signature.n, blocks, a._terms.values(), b._terms.values())
    return Multivector._trusted(a.signature, terms, True)


def plan_blades(blocks):
    """The output blades of a plan, in the order its blocks first meet them."""
    return [m for block in blocks for m in block[4].tolist()]


def is_kernel(form):
    """Whether a compiled form is a generated kernel, not pair blocks: an
    n <= 4 kernel, or a shared n >= 5 kernel bound to its masks."""
    return getattr(getattr(form, "func", form), "__name__", None) == "kernel"


def cache_holds_its_pairs(cache):
    """The cache charges each form charge(key), within its budget; a
    pattern of fewer than _KERNEL_MAX_PAIRS pairs holds a kernel, and a
    larger one pair blocks that store blades and positions as int32 and
    signs as int8."""
    for key, form in cache.forms.items():
        if len(key[2]) * len(key[3]) < mv_module._KERNEL_MAX_PAIRS:
            assert is_kernel(form)
        else:
            assert form.func is mv_module._sum_blocks and form.args[0] == key[1]
            for rows, positions, blades, signs, new in form.args[1]:
                assert isinstance(rows, slice)
                assert blades.dtype == new.dtype == np.int32 and signs.dtype == np.int8
                assert positions is None or positions.dtype == np.int32
    assert cache.pairs == sum(map(charge, cache.forms)) <= mv_module._FORM_PAIR_BUDGET


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


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
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
    cache = mv_module._FormCache()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mv_module, "_FORMS", cache)
        for product, keep in PRODUCTS.items():
            want = ordered_bits(loop_product(a, b, keep))
            # Values and key order: from the pattern's form (a kernel under
            # _KERNEL_MAX_PAIRS pairs, pair blocks from there) as it is
            # compiled and as it is read back, from blocks made anew, and
            # from the public product.
            for call in range(2):
                assert ordered_bits(table_product(a, b, keep)) == want, (product.__name__, call)
            assert ordered_bits(uncached_product(a, b, keep)) == want
            assert ordered_bits(product(a, b)) == want
        cache_holds_its_pairs(cache)
        if dyadic:
            # Every sum of dyadic products is exact, in whatever order it is added.
            exact = _left_mult_matrix(a) @ np.array(b.coefficients()).real
            assert table_product(a, b, None) == Multivector(sig, dict(enumerate(exact.tolist())))


@pytest.mark.parametrize("pq", [(3, 2), (0, 7), (4, 4)])
def test_table_path_keeps_loop_order_across_blocks(monkeypatch, pq):
    """Compiled forms, as built and as read back, and blocks made anew give
    the loop's bits, with one block and with blocks of 97 pairs.  The sparse
    Cl(3,2) patterns and the dense x single ones compile to kernels, the
    rest to pair blocks."""
    sig = Signature(*pq)
    local = np.random.default_rng(list(pq))
    for block_pairs in (mv_module._ARRAY_BLOCK_PAIRS, 97):
        monkeypatch.setattr(mv_module, "_ARRAY_BLOCK_PAIRS", block_pairs)
        # A fresh cache per block size, whose block forms hold blocks of that size.
        cache = mv_module._FormCache()
        monkeypatch.setattr(mv_module, "_FORMS", cache)
        for kinds in (("dense", "dense"), ("sparse", "dense"), ("dense", "single")):
            a, b = (drawn_operand(sig, local, kind, False) for kind in kinds)
            for keep in PRODUCTS.values():
                want = ordered_bits(loop_product(a, b, keep))
                for _ in range(2):
                    assert ordered_bits(table_product(a, b, keep)) == want
                assert ordered_bits(uncached_product(a, b, keep)) == want
                key = plan_key(a, b, keep)
                cached = len(a._terms) * len(b._terms) <= mv_module._FORM_MAX_PAIRS
                assert (key in cache.forms) == cached
                blocks = tuple(mv_module._pair_blocks(*key))
                assert plan_blades(blocks) == [m for m, *_ in want]
                assert len(blocks) == -(-len(a._terms) // max(1, block_pairs // len(b._terms)))
        cache_holds_its_pairs(cache)
        assert {is_kernel(form) for form in cache.forms.values()} == {True, False}


def test_only_large_real_products_above_four_dimensions_take_the_table_path(fresh_forms, monkeypatch):
    calls = []
    # Each call is recorded with its n: _pair_blocks takes (p, n, ...) and
    # _sum_blocks (n, ...).
    for name, at in (("_pair_blocks", 1), ("_sum_blocks", 0)):
        path = getattr(mv_module, name)
        record = lambda *args, name=name, path=path, at=at: calls.append((name, args[at])) or path(*args)
        monkeypatch.setattr(mv_module, name, record)
    local = np.random.default_rng(7)
    sig = Signature(3, 3)
    dense = drawn_operand(sig, local, "dense", False)
    single = drawn_operand(sig, local, "single", False)
    sparse = Multivector(sig, {m: 0.5 + m for m in range(1, 64, 2)})  # 32 terms
    geometric_product(dense, dense)  # 4096 pairs: pair blocks
    geometric_product(single, dense)  # 64 pairs: a kernel
    geometric_product(single, sparse)  # 32 pairs: the loop
    geometric_product(random_mv(SIG13, local), random_mv(SIG13, local))
    big = drawn_operand(Signature(4, 4), local, "dense", False)
    geometric_product(big, big)  # 2^16 pairs: above the form cap
    blocked = [("_pair_blocks", 6), ("_sum_blocks", 6)]
    assert calls == blocked + [("_pair_blocks", 8), ("_sum_blocks", 8)]
    # The Cl(4,4) blocks are not kept; the 64-pair Cl(3,3) pattern and the
    # Cl(1,3) pattern have kernels.
    assert [key[:2] for key in fresh_forms.forms] == [(3, 6), (3, 6), (1, 4)]
    assert [is_kernel(form) for form in fresh_forms.forms.values()] == [False, True, True]
    assert mv_module._FORM_MIN_PAIRS == 64 < mv_module._KERNEL_MAX_PAIRS <= 64 * 64
    assert 64 * 64 <= mv_module._FORM_MAX_PAIRS < 256 * 256


@st.composite
def kernel_patterns(draw):
    """Two real operands of one signature with n = 5..7 whose pattern has 64
    to 1023 term pairs, in random key order, with dyadic (k/8) or normal
    values, and a product: one of the four, or a grade-filtered product."""
    sig = Signature(*draw(st.sampled_from(SIGNATURES_5_TO_8[:21])))  # n = 5..7
    dim = 1 << sig.n
    size_a = draw(st.integers(2, dim))
    size_b = draw(st.integers(max(1, -(-64 // size_a)), min(dim, 1023 // size_a)))
    dyadic = draw(st.booleans())
    local = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    a, b = (drawn_operand(sig, local, "dense", dyadic) for _ in range(2))
    a = Multivector(sig, dict(list(a._terms.items())[:size_a]))
    b = Multivector(sig, dict(list(b._terms.items())[:size_b]))
    products = list(PRODUCTS.items())
    choice = draw(st.integers(0, len(products)))
    if choice < len(products):
        product, keep = products[choice]
    else:
        grades = draw(st.sets(st.integers(0, sig.n), min_size=1))
        product = partial(geometric_product, grades=grades)
        keep = mv_module._grade_filter(sum(1 << k for k in grades))
    return a, b, product, keep, dyadic


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(kernel_patterns())
def test_kernels_above_four_dimensions_match_the_dict_loop_bit_for_bit(pattern):
    a, b, product, keep, dyadic = pattern
    assert 64 <= len(a._terms) * len(b._terms) < mv_module._KERNEL_MAX_PAIRS
    want = ordered_bits(loop_product(a, b, keep))
    cache = mv_module._FormCache()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mv_module, "_FORMS", cache)
        for call in range(2):  # compiled, then read back
            got = product(a, b)
            assert ordered_bits(got) == want, call
    key = plan_key(a, b, keep)
    assert list(cache.forms) == [key] and is_kernel(cache.forms[key])
    if dyadic:
        # On fractions the loop's sums are exact, and every partial sum of
        # dyadic products of k/8 values is a float: the kernel's sums are
        # the exact ones.
        sig = a.signature
        exact = mv_module._product_loop(
            sig.p, sig.n, *({m: Fraction(c.real) for m, c in x._terms.items()} for x in (a, b)), keep
        )
        assert [(m, complex(v)) for m, v in exact.items() if v] == list(got._terms.items())


@pytest.mark.parametrize(
    "pq, sizes, path",
    [
        ((1, 3), (1, 1), "kernel"),
        ((4, 3), (7, 9), "loop"),
        ((4, 3), (8, 8), "kernel"),
        ((4, 3), (31, 33), "kernel"),
        ((4, 3), (32, 32), "blocks"),
    ],
    ids=["n4-1", "n7-63", "n7-64", "n7-1023", "n7-1024"],
)
def test_real_products_take_their_path_by_pair_count(fresh_forms, monkeypatch, pq, sizes, path):
    """Every real pattern with n <= 4 compiles to a kernel.  Above, a
    pattern of fewer than 64 pairs takes the loop, one of 64 to 1023 pairs a
    kernel and a larger one pair blocks; each form compiles once."""
    sig = Signature(*pq)
    local = np.random.default_rng(list(sizes))
    a, b = (shuffled_operand(sig, local, size, False) for size in sizes)
    wants = {product: ordered_bits(loop_product(a, b, keep)) for product, keep in PRODUCTS.items()}
    calls = []
    for name in ("_product_loop", "_generate_kernel", "_pair_blocks", "_sum_blocks"):
        fn = getattr(mv_module, name)
        record = lambda *args, name=name, fn=fn: calls.append(name) or fn(*args)
        monkeypatch.setattr(mv_module, name, record)
    taken = {
        "loop": ["_product_loop", "_product_loop"],
        "kernel": ["_generate_kernel"],
        "blocks": ["_pair_blocks", "_sum_blocks", "_sum_blocks"],
    }[path]
    for product, want in wants.items():
        calls.clear()
        for _ in range(2):
            assert ordered_bits(product(a, b)) == want
        assert calls == taken, product.__name__
    assert [is_kernel(form) for form in fresh_forms.forms.values()] == {
        "loop": [], "kernel": [True] * 4, "blocks": [False] * 4
    }[path]


@pytest.mark.parametrize("pq", [(5, 0), (2, 4), (3, 4)])
def test_complex_products_never_take_the_table_path(monkeypatch, pq):
    # numpy's complex multiply can differ from Python's in the last bit.
    def refuse(*args):
        raise AssertionError("complex operands reached the table path")

    monkeypatch.setattr(mv_module, "_sum_blocks", refuse)
    monkeypatch.setattr(mv_module, "_pair_blocks", refuse)
    sig = Signature(*pq)
    local = np.random.default_rng(list(pq))
    real = drawn_operand(sig, local, "dense", False)
    imaginary = real * 1j + drawn_operand(sig, local, "dense", True)
    for a, b in ((imaginary, real), (real, imaginary), (imaginary, imaginary)):
        for product, keep in PRODUCTS.items():
            assert list(product(a, b)._terms.items()) == list(loop_product(a, b, keep)._terms.items())


def loop_sign_weight(p, a):
    """_sign_weight as a loop over a's bits, kept as the oracle: each factor
    i of a flips bits 0 to i - 1, and factors that square to -1 set their own."""
    w = a >> p << p
    rest = a
    while rest:
        low = rest & -rest
        w ^= low - 1
        rest ^= low
    return w


def test_sign_weight_is_the_loop_on_ints_and_arrays():
    # w depends on p and a alone, so a < 2^12 covers every blade at n <= 12.
    blades = np.arange(1 << mv_module.MAX_DIM)
    kept = blades.copy()
    for p in range(mv_module.MAX_DIM + 1):
        want = [loop_sign_weight(p, a) for a in range(blades.size)]
        assert [_sign_weight(p, a) for a in range(blades.size)] == want
        got = _sign_weight(p, blades)
        assert got.dtype == blades.dtype and got.tolist() == want
    assert np.array_equal(blades, kept)


@pytest.mark.parametrize("n", range(0, 9))
def test_right_sign_weight_gives_the_sign_rule_column(n):
    # e_a e_b = (-1)^popcount(a & v(b)) = (-1)^popcount(b & w(a)) for all a, b.
    blades = np.arange(1 << n)
    for p in range(n + 1):
        signs = _parity_sign(_sign_weight(p, blades)[:, None] & blades)
        right = np.array([_right_sign_weight(p, b) for b in range(1 << n)])
        assert np.array_equal(_parity_sign(blades[:, None] & right), signs)


@pytest.mark.parametrize("pq", [(1, 3), (3, 0), (2, 2), (4, 1), (3, 3)])
def test_a_product_by_one_blade_is_the_product_to_the_bit(pq):
    sig = Signature(*pq)
    local = np.random.default_rng(list(pq))
    for _ in range(40):
        x = random_mv(sig, local)
        x = Multivector(sig, {m: c for m, c in x._terms.items() if local.random() < 0.5})
        if local.random() < 0.3:
            x = x * complex(1.0, float(local.normal()))
        for k in map(int, local.integers(0, 1 << sig.n, size=4)):
            for s in (1.0, -1.0):
                got, want = _times_blade(x, k, s), geometric_product(x, Multivector(sig, {k: s}))
                assert ordered_bits(got) == ordered_bits(want) and got.real == want.real


@pytest.mark.parametrize("n", range(0, 9))
def test_sign_table_rows_are_the_sign_rule_rows(n):
    # The numpy readers' signs, _parity_sign(_sign_weight(p, a) & b) over all
    # blade pairs, are the rows the loop reads.
    blades = np.arange(1 << n)
    for p in range(n + 1):
        signs = _parity_sign(_sign_weight(p, blades)[:, None] & blades)
        assert signs.dtype == np.int8
        assert all(tuple(signs[a].tolist()) == _reorder_sign(p, n, a) for a in range(1 << n))
    _reorder_sign.cache_clear()


def test_dense_real_products_build_no_sign_rows():
    # A fresh interpreter: neither cached nor uncached pair blocks read the
    # rows of _reorder_sign, which are Python-int tuples,
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
        "e = dense(cs.Signature(4, 3))\n"
        "cs.geometric_product(e, e), cs.wedge(e, e)\n"
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


def test_kernels_and_plans_read_no_sign_rows_or_table(fresh_forms):
    """Compiling reads each sign as the parity of mb & _sign_weight(p, ma),
    not from a _reorder_sign row."""
    local = np.random.default_rng(13)
    _reorder_sign.cache_clear()
    for pq in ((1, 3), (0, 4), (2, 1), (4, 1), (3, 3), (4, 3)):
        sig = Signature(*pq)
        a = drawn_operand(sig, local, "dense", False)
        b = drawn_operand(sig, local, "sparse" if sig.n > 5 else "dense", False)
        for product, keep in PRODUCTS.items():
            want = ordered_bits(loop_product(a, b, keep))
            _reorder_sign.cache_clear()  # the loop oracle reads rows
            assert ordered_bits(product(a, b)) == want
            mv_module._generate_kernel(*plan_key(b, a, keep))
            tuple(mv_module._pair_blocks(*plan_key(b, a, keep)))
            assert _reorder_sign.cache_info().currsize == 0
    # Both kinds of form were compiled, kernels and pair blocks, and kernels
    # at n >= 5 among them.
    assert {is_kernel(form) for form in fresh_forms.forms.values()} == {True, False}
    assert any(key[1] >= 5 and is_kernel(form) for key, form in fresh_forms.forms.items())


def test_first_sparse_real_product_of_cl66_builds_no_sign_table():
    # A fresh interpreter: the first real Cl(6,6) product of 16 x 16 terms
    # takes a plan, which reads signs from weight masks and builds no sign
    # rows.
    script = (
        "import resource\n"
        "import numpy as np\n"
        "import cliffspin as cs\n"
        "from cliffspin.multivector import _reorder_sign\n"
        "local = np.random.default_rng(0)\n"
        "sig = cs.Signature(6, 6)\n"
        "def sparse():\n"
        "    masks = local.permutation(1 << sig.n)[:16].tolist()\n"
        "    return cs.Multivector(sig, dict(zip(masks, local.uniform(-1, 1, 16).tolist())))\n"
        "a, b = sparse(), sparse()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "cs.geometric_product(a, b)\n"
        "grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(_reorder_sign.cache_info().currsize, grew / 1024)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    rows, grew_mib = out.stdout.split()
    assert int(rows) == 0
    assert float(grew_mib) < 4


def test_inverse_fast_path_test_is_relative_to_scale(monkeypatch):
    def refuse(a):
        raise AssertionError("took the general path")

    monkeypatch.setattr(mv_module, "_left_mult_matrix", refuse)
    sig = Signature(4, 3)
    for scale in (1e-8, 1.0, 1e8):
        for i in (1, 5):
            a = gen(sig, i) * scale
            assert (geometric_product(a, inverse(a)) - 1).max_abs() < 1e-12


# -- plans: cached pair blocks serve real n >= 5 products up to dense Cl(4,3) --------------


@pytest.mark.parametrize("pq", [(4, 3), (2, 5), (4, 4)])
def test_plan_path_adds_a_single_output_blade_in_loop_order(fresh_forms, pq):
    """a _| b of two operands on the same grade-k blades keeps only the pairs
    with equal blades, so every pair lands on the scalar.  A sum over an axis
    would add them pairwise, which the loop does not; np.add.at adds them in
    pair order."""
    sig = Signature(*pq)
    grade = sig.n // 2
    local = np.random.default_rng(list(pq))
    masks = [m for m in range(1 << sig.n) if m.bit_count() == grade]
    for _ in range(40):
        order = local.permutation(masks).tolist()
        values = local.normal(size=len(masks)) * 10.0 ** local.integers(-3, 4, len(masks))
        a = Multivector(sig, dict(zip(order, values.tolist())))
        b = Multivector(sig, dict(zip(masks, local.normal(size=len(masks)).tolist())))
        blocks = tuple(mv_module._pair_blocks(*plan_key(a, b, mv_module._left_inner)))
        assert plan_blades(blocks) == [0]
        assert sum(block[2].size for block in blocks) == len(masks)
        assert not any(block[2].any() for block in blocks)
        want = ordered_bits(loop_product(a, b, mv_module._left_inner))
        assert ordered_bits(left_contraction(a, b)) == want
        assert ordered_bits(table_product(a, b, mv_module._left_inner)) == want


@pytest.mark.parametrize("pq", [(5, 0), (3, 3), (4, 3)])
def test_plan_path_reports_overflow_as_the_loop_does(fresh_forms, pq):
    sig = Signature(*pq)
    local = np.random.default_rng(list(pq))
    big = drawn_operand(sig, local, "dense", False) * 1e200
    for product, keep in PRODUCTS.items():
        with pytest.raises(ValueError, match="non-finite coefficient"):
            loop_product(big, big, keep)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite coefficient"):
                product(big, big)


def compiles(monkeypatch):
    """The keys of every form compiled from here on: one _generate_kernel
    or _pair_blocks call each, as long as no pattern takes blocks made anew."""
    keys = []
    for name in ("_generate_kernel", "_pair_blocks"):
        path = getattr(mv_module, name)
        record = lambda *args, path=path: keys.append(args) or path(*args)
        monkeypatch.setattr(mv_module, name, record)
    return keys


def holds_the_newest(cache, compiled):
    """The cache holds the forms compiled last, in compile order, and the
    one compiled before them would not have fit beside them."""
    held = list(cache.forms)
    assert held == compiled[len(compiled) - len(held):]
    if len(held) < len(compiled):
        older = compiled[len(compiled) - len(held) - 1]
        assert cache.pairs + charge(older) > mv_module._FORM_PAIR_BUDGET


def test_form_budget_is_shared_by_kernels_and_blocks(fresh_forms, monkeypatch):
    """Cl(1,3) kernels, and Cl(3,3) and Cl(4,3) kernels and pair blocks,
    spend one pair budget.  Past it, a new form drops the oldest ones, so
    every pattern is compiled and read back; a dense Cl(4,4) pattern, above
    the form cap, is never compiled and takes blocks made anew."""
    calls = []
    for name in ("_product_loop", "_pair_blocks", "_sum_blocks"):
        path = getattr(mv_module, name)
        record = lambda *args, name=name, path=path: calls.append(name) or path(*args)
        monkeypatch.setattr(mv_module, name, record)

    def second_calls(a, b, product, keep):
        """The paths that the second of two products took, each product
        checked against the loop."""
        want = ordered_bits(loop_product(a, b, keep))
        for _ in range(2):
            calls.clear()
            assert ordered_bits(product(a, b)) == want
        return list(calls)

    local = np.random.default_rng(11)
    # The whole budget could hold its 2^16 pairs.
    big = drawn_operand(Signature(4, 4), local, "dense", False)
    for product, keep in PRODUCTS.items():
        assert second_calls(big, big, product, keep) == ["_pair_blocks", "_sum_blocks"]
    assert fresh_forms.forms == {} and fresh_forms.pairs == 0
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 12000)
    signatures = [SIG13, Signature(3, 3), Signature(4, 3)]
    compiled, kinds = [], set()
    for _ in range(24):
        sig = signatures[int(local.integers(3))]
        a = drawn_operand(sig, local, "dense", False)
        b = drawn_operand(sig, local, "dense" if sig.n <= 4 else "sparse", False)
        for product, keep in PRODUCTS.items():
            key = plan_key(a, b, keep)
            taken = second_calls(a, b, product, keep)
            compiled.append(key)
            form = fresh_forms.forms[key]
            kinds.add((sig.n <= mv_module._KERNEL_MAX_N, is_kernel(form)))
            assert taken == ([] if is_kernel(form) else ["_sum_blocks"])
            cache_holds_its_pairs(fresh_forms)
            holds_the_newest(fresh_forms, compiled)
    assert kinds == {(True, True), (False, True), (False, False)}
    assert len(fresh_forms.forms) < len(compiled)  # the budget dropped some


def test_form_cache_charges_each_key_once_under_threads(fresh_forms, monkeypatch):
    """Threads that compile the same kernels and pair blocks at once, with
    a budget that holds under a third of them, so that forms are dropped and
    compiled again: each key held is charged once, the count stays within
    the budget, and every result is the loop's.  The eight threads start
    three cases apart, so between two visits to a case the threads pass
    more pairs than the budget holds, whether they run side by side or one
    after another; threads that started one case apart could run side by
    side and recompile only the two kernels they wrap round to."""
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 4000)
    local = np.random.default_rng(15)
    cases = []
    for sig in (SIG13, Signature(3, 3), Signature(4, 3)) * 8:
        a = drawn_operand(sig, local, "dense", False)
        b = drawn_operand(sig, local, "dense" if sig.n <= 4 else "sparse", False)
        cases.append((a, b, ordered_bits(loop_product(a, b, None))))
    assert sum(len(a._terms) * len(b._terms) for a, b, _ in cases) > 3 * 4000
    keys = compiles(monkeypatch)
    errors = []

    def work(offset):
        try:
            for i in range(len(cases)):
                a, b, want = cases[(i + offset) % len(cases)]
                assert ordered_bits(geometric_product(a, b)) == want
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(3 * k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    cache_holds_its_pairs(fresh_forms)
    holds_the_newest(fresh_forms, keys)
    # Kernels and pair blocks were dropped and compiled again.  Which forms
    # the budget holds at the end depends on how the threads interleave.
    again = {key for key in keys if keys.count(key) > 1}
    kinds = {len(key[2]) * len(key[3]) < mv_module._KERNEL_MAX_PAIRS for key in again}
    assert kinds == {True, False}
    assert 0 < len(fresh_forms.forms) < len(cases) < len(keys)


def test_plan_cache_evicts_to_its_byte_budget_and_rebuilds_the_same_bits(fresh_forms, monkeypatch):
    """The form cache's budget counts term pairs, and a new form drops the
    oldest ones until it fits: Cl(6) and Cl(7) patterns past it are kept
    newest first, and a pattern dropped and seen again is compiled anew with
    the loop's bits.  A hit leaves the cache as it was."""
    cache = fresh_forms
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 3000)
    keys = compiles(monkeypatch)
    local = np.random.default_rng(11)
    seen = []
    for _ in range(30):
        sig = Signature(*SIGNATURES_5_TO_8[int(local.integers(6, 21))])  # n = 6..7
        a = drawn_operand(sig, local, "sparse", False)
        b = drawn_operand(sig, local, "dense", False)
        for product, keep in PRODUCTS.items():
            want = ordered_bits(loop_product(a, b, keep))
            assert ordered_bits(product(a, b)) == want
            seen.append((a, b, product, keep, want))
            cache_holds_its_pairs(cache)
            holds_the_newest(cache, keys)
    dropped = [case for case in seen if plan_key(case[0], case[1], case[3]) not in cache.forms]
    assert dropped and cache.forms
    held = dict(cache.forms)
    for a, b, product, keep, want in seen[-len(held):]:
        assert plan_key(a, b, keep) in held
        assert ordered_bits(product(a, b)) == want
    assert cache.forms == held and list(cache.forms) == list(held)
    for a, b, product, keep, want in seen:
        assert ordered_bits(product(a, b)) == want
        assert ordered_bits(table_product(a, b, keep)) == want
        cache_holds_its_pairs(cache)
        holds_the_newest(cache, keys)
    assert len(keys) > len(set(keys))  # dropped patterns were compiled again


def test_form_cache_drops_its_oldest_forms_first(fresh_forms, monkeypatch):
    """Insertion order, not use: a hit does not move a form, and a new form
    drops the oldest ones until it fits, no more.  A dropped pattern seen
    again gives the same bits, and a pattern above the whole budget takes
    blocks made anew and leaves the cache as it was."""
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 1000)
    local = np.random.default_rng(29)
    patterns = []
    for size in (16, 15, 14, 16, 16):  # 256, 240, 224, 256 and 256 pairs
        a = shuffled_operand(SIG13, local, size, False)
        b = shuffled_operand(SIG13, local, 16, False)
        patterns.append((a, b, ordered_bits(geometric_product(a, b))))
    keys = [plan_key(a, b, None) for a, b, _ in patterns]
    assert list(fresh_forms.forms) == keys[1:] and fresh_forms.pairs == 976
    assert ordered_bits(geometric_product(*patterns[1][:2])) == patterns[1][2]  # a hit
    # 640 pairs: drops the three oldest, 240 + 224 + 256 pairs, and keeps
    # the newest, 256 pairs.
    a = drawn_operand(Signature(3, 3), local, "dense", False)
    b = Multivector(a.signature, {m: 1.0 - m / 8 for m in range(0, 30, 3)})
    assert len(a._terms) * len(b._terms) == 640
    assert ordered_bits(geometric_product(a, b)) == ordered_bits(loop_product(a, b, None))
    assert list(fresh_forms.forms) == [keys[4], plan_key(a, b, None)]
    assert fresh_forms.pairs == 256 + 640
    # The first pattern, dropped when the fifth came, compiles again.
    assert ordered_bits(geometric_product(*patterns[0][:2])) == patterns[0][2]
    assert list(fresh_forms.forms) == [plan_key(a, b, None), keys[0]]
    cache_holds_its_pairs(fresh_forms)
    # 1024 pairs, above the whole budget but within the cap.
    held = dict(fresh_forms.forms)
    big = drawn_operand(Signature(3, 2), local, "dense", False)
    for _ in range(2):
        assert ordered_bits(geometric_product(big, big)) == ordered_bits(loop_product(big, big, None))
    assert fresh_forms.forms == held and list(fresh_forms.forms) == list(held)
    assert fresh_forms.pairs == 640 + 256


def test_kernels_above_four_dimensions_hold_a_bounded_number_of_bytes_per_pair(fresh_forms, monkeypatch):
    """A budget of 2^14 pairs filled, and passed, with n >= 5 kernels of 64
    to 1023 pairs holds under 60 bytes per pair (tracemalloc; 51 measured
    with Python 3.11), so that a change to the generated code cannot grow
    the full cache unseen: a kernel that kept its source would hold 62.
    Pair blocks hold 3 to 6."""
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 1 << 14)
    local = np.random.default_rng(31)
    patterns = []
    for pq, sizes in (((3, 2), (8, 8)), ((3, 3), (16, 30)), ((4, 3), (8, 16)), ((2, 5), (31, 33))):
        for _ in range(12):
            patterns.append([shuffled_operand(Signature(*pq), local, size, False) for size in sizes])
    assert sum(len(a._terms) * len(b._terms) for a, b in patterns) > 1 << 14
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a, b in patterns:
            geometric_product(a, b)
        del a, b
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(map(is_kernel, fresh_forms.forms.values()))
    assert (1 << 14) - 1023 < fresh_forms.pairs <= 1 << 14
    assert held / fresh_forms.pairs < 60


def test_one_pair_kernels_hold_a_bounded_number_of_bytes_per_charged_pair(fresh_forms, monkeypatch):
    """A budget of 2^14 pairs filled, and passed, with the 1408 one-pair
    patterns of n <= 4 algebras holds under 60 bytes per charged pair
    (tracemalloc; 21 measured with Python 3.11).  Each such kernel holds
    about 1.3 kB, so charged one pair each they would fill the full 2^17
    budget with about 165 MiB, not the 9 MiB of larger patterns."""
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 1 << 14)
    patterns = []
    for sig in map(Signature, (1, 3, 2, 4, 0, 1, 2), (3, 1, 2, 0, 4, 2, 1)):
        for ma in range(1 << sig.n):
            for mb in range(1 << sig.n):
                patterns.append((Multivector(sig, {ma: 1.0}), Multivector(sig, {mb: -0.5})))
    assert len(patterns) == 1408 and len(patterns) * mv_module._FORM_MIN_PAIRS > 1 << 14
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a, b in patterns:
            geometric_product(a, b)
        del a, b
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(map(is_kernel, fresh_forms.forms.values()))
    assert fresh_forms.pairs == sum(map(charge, fresh_forms.forms)) == 1 << 14
    assert held / fresh_forms.pairs < 60


# -- n >= 5 kernels: one per structure, bound to each pattern's masks ----------------------

SIG60 = Signature(6, 0)


def low_operand(local, masks):
    """A Cl(6,0) operand on the given blades of e1..e5, in their order."""
    return Multivector(SIG60, {int(m): float(local.normal()) for m in masks})


def moved_up(a):
    """a with each e_i read as e_{i+1}: every mask doubles, and in Cl(6,0)
    every sign, filter verdict and first appearance stays, so a product's
    pattern keeps its structure and changes its masks."""
    return Multivector(a.signature, {m << 1: c for m, c in a._terms.items()})


def test_patterns_of_one_structure_share_one_kernel(fresh_forms):
    """Each form binds one shared kernel to its own masks and gives the
    loop's bits in its key order: unfiltered, filtered, and with a filter
    that keeps no pair."""
    local = np.random.default_rng(37)
    a, b = (low_operand(local, local.permutation(32)[:8]) for _ in range(2))
    odd = [m for m in range(32) if m & 1]  # every blade holds e1: no pair is disjoint
    a_odd, b_odd = (low_operand(local, local.permutation(odd)[:8]) for _ in range(2))
    cases = [(a, b, keep) for keep in (*PRODUCTS.values(), mv_module._grade_filter(0b10101))]
    cases.append((a_odd, b_odd, mv_module._outer))
    kernels = set()
    for x, y, keep in cases:
        forms = []
        for u, v in ((x, y), (moved_up(x), moved_up(y))):
            want = ordered_bits(loop_product(u, v, keep))
            for _ in range(2):  # compiled, then read back
                assert ordered_bits(mv_module._product(u, v, keep)) == want
            forms.append(fresh_forms.forms[plan_key(u, v, keep)])
        low, high = forms
        assert is_kernel(low) and low.func is high.func
        assert high.args == (tuple(m << 1 for m in low.args[0]),)
        kernels.add(low.func)
    assert ordered_bits(wedge(a_odd, b_odd)) == [] and low.args == ((),)
    assert len(kernels) == len(cases) and kernels <= set(mv_module._SHARED_KERNELS.values())


def test_structures_that_group_the_same_terms_apart_do_not_share(fresh_forms):
    """In Cl(5,0), (e5 + e1e4) ^ (e1e4 + e5) keeps two pairs and sums them
    on one blade, while (e5 + e2) _| (e1e4e5 + e2e3e4) keeps the same two
    pairs, with the same signs, and puts them on two: two kernels."""
    sig = Signature(5, 0)
    outer = (Multivector(sig, {16: 1.5, 9: -0.5}), Multivector(sig, {9: 0.25, 16: 2.0}))
    inner = (Multivector(sig, {16: 1.5, 2: -0.5}), Multivector(sig, {25: 0.25, 14: 2.0}))
    cases = [(*outer, mv_module._outer), (*inner, mv_module._left_inner)]
    forms = []
    for a, b, keep in cases:
        form = mv_module._generate_kernel(*plan_key(a, b, keep))
        got = Multivector._trusted(sig, form(a._terms.values(), b._terms.values()), True)
        assert ordered_bits(got) == ordered_bits(loop_product(a, b, keep))
        forms.append(form)
    assert [len(ordered_bits(loop_product(*case))) for case in cases] == [1, 2]
    assert forms[0].func is not forms[1].func


def test_a_shared_kernel_goes_with_the_last_form_that_binds_it(fresh_forms, monkeypatch):
    """Under a budget of 200 pairs, two 64-pair patterns of one structure
    hold one kernel.  Dropping the first leaves it to the second; dropping
    the second releases it and takes it out of _SHARED_KERNELS."""
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 200)
    local = np.random.default_rng(41)
    a, b = (low_operand(local, local.permutation(32)[:8]) for _ in range(2))
    c, d, e, f = (low_operand(local, local.permutation(64)[:9]) for _ in range(4))
    geometric_product(a, b)
    geometric_product(moved_up(a), moved_up(b))
    kernel = weakref.ref(fresh_forms.forms[plan_key(a, b, None)].func)
    codes = [code for code, shared in mv_module._SHARED_KERNELS.items() if shared is kernel()]
    assert len(codes) == 1
    geometric_product(c, d)  # 81 pairs: drops the first pattern
    gc.collect()
    assert plan_key(a, b, None) not in fresh_forms.forms
    assert kernel() is not None and mv_module._SHARED_KERNELS.get(codes[0]) is kernel()
    geometric_product(e, f)  # drops the second
    gc.collect()
    assert len(fresh_forms.forms) == 2
    assert kernel() is None and codes[0] not in mv_module._SHARED_KERNELS


def test_a_dropped_pattern_of_a_live_structure_compiles_no_source(fresh_forms, monkeypatch):
    """A pattern dropped by the budget and met again while another pattern
    of its structure still holds the kernel gets a form on that kernel, with
    no exec, and the loop's bits."""
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 200)
    local = np.random.default_rng(43)
    a, b = (low_operand(local, local.permutation(32)[:8]) for _ in range(2))
    c, d = (low_operand(local, local.permutation(64)[:9]) for _ in range(2))
    want = ordered_bits(loop_product(a, b, None))
    geometric_product(a, b)
    geometric_product(moved_up(a), moved_up(b))
    kernel = fresh_forms.forms[plan_key(a, b, None)].func
    geometric_product(c, d)  # drops the first pattern
    assert plan_key(a, b, None) not in fresh_forms.forms

    def refuse(*args):
        raise AssertionError("compiled a kernel source")

    monkeypatch.setattr(mv_module, "exec", refuse, raising=False)
    keys = compiles(monkeypatch)
    assert ordered_bits(geometric_product(a, b)) == want
    assert keys == [plan_key(a, b, None)] and fresh_forms.forms[keys[0]].func is kernel


@pytest.mark.parametrize("pq", [(3, 2), (4, 3)])
def test_plan_with_no_kept_pair_gives_zero(pq):
    # Every blade holds e1, so no pair is disjoint and the wedge keeps none.
    sig = Signature(*pq)
    a = Multivector(sig, {m: 1.0 + m for m in range(1, 1 << sig.n, 2)})
    blocks = tuple(mv_module._pair_blocks(*plan_key(a, a, mv_module._outer)))
    assert plan_blades(blocks) == [] and not any(block[2].size for block in blocks)
    assert wedge(a, a).is_zero() and loop_product(a, a, mv_module._outer).is_zero()
    assert not geometric_product(a, a).is_zero()


def test_plan_larger_than_the_budget_is_used_but_not_kept(fresh_forms, monkeypatch):
    """A dense Cl(3,2) pattern, 1024 pairs, against a budget of 100: its
    blocks, made anew on each call, give the loop's bits, and the cache
    keeps the 64-pair kernel it held, dropping nothing."""
    monkeypatch.setattr(mv_module, "_FORM_PAIR_BUDGET", 100)
    local = np.random.default_rng(12)
    sig = Signature(3, 2)
    a, b = (drawn_operand(sig, local, "dense", False) for _ in range(2))
    two = Multivector(sig, {6: 0.5, 1: -1.25})
    assert ordered_bits(geometric_product(two, b)) == ordered_bits(loop_product(two, b, None))
    held = dict(fresh_forms.forms)
    assert list(held) == [plan_key(two, b, None)] and fresh_forms.pairs == 64
    keys = compiles(monkeypatch)
    for _ in range(2):
        assert ordered_bits(geometric_product(a, b)) == ordered_bits(loop_product(a, b, None))
    assert keys == [plan_key(a, b, None)] * 2  # blocks made anew
    assert fresh_forms.forms == held and fresh_forms.pairs == 64


def old_left_mult_matrix(a):
    """_left_mult_matrix as one fancy-index update per term, kept as the
    oracle, with each term's signs from the loop's row."""
    sig = a.signature
    cols = np.arange(1 << sig.n)
    mat = np.zeros((cols.size, cols.size), dtype=float if a.real else complex)
    for ma, ca in a._terms.items():
        row = np.array(_reorder_sign(sig.p, sig.n, ma), np.int8)
        mat[cols ^ ma, cols] += row * (ca.real if a.real else ca)
    return mat


@pytest.mark.parametrize("pq", [(1, 0), (1, 3), (0, 4), (3, 2), (2, 4), (4, 3)])
def test_left_mult_matrix_is_the_old_update_loop_byte_for_byte(pq):
    sig = Signature(*pq)
    local = np.random.default_rng(list(pq))
    for kind in ("single", "sparse", "dense"):
        real = drawn_operand(sig, local, kind, False)
        imaginary = real * 1j + drawn_operand(sig, local, kind, True) * (1 - 0.5j)
        for a in (real, -real, imaginary, -imaginary):
            got, want = _left_mult_matrix(a), old_left_mult_matrix(a)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_inverse_reads_the_solution_as_the_old_readout():
    sig = Signature(4, 3)
    local = np.random.default_rng(13)
    for _ in range(3):
        real = drawn_operand(sig, local, "dense", False)
        for a in (real, real * (0.5 + 1j)):
            mat = old_left_mult_matrix(a)
            rhs = np.zeros(len(mat), dtype=mat.dtype)
            rhs[0] = 1.0
            sol = np.linalg.solve(mat, rhs)
            want = Multivector(sig, {m: sol[m] for m in range(len(mat)) if sol[m] != 0})
            assert ordered_bits(inverse(a)) == ordered_bits(want)


# -- algebraic laws over random signatures ------------------------------------------------

EPS = np.finfo(float).eps


@st.composite
def law_operands(draw):
    """Three operands of one random signature with n <= 6, each with one
    term, a few terms or all 2^n, real or complex, at its own scale."""
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(local.integers(1, 7))
    p = int(local.integers(0, n + 1))
    sig = Signature(p, n - p)
    operands = []
    for _ in range(3):
        size = min(int(local.choice([1, local.integers(2, 9), 1 << n])), 1 << n)
        masks = local.permutation(1 << n)[:size].tolist()
        values = local.normal(size=size) * 10.0 ** local.integers(-8, 9)
        if local.random() < 0.5:
            values = values + 1j * local.normal(size=size) * 10.0 ** local.integers(-8, 9)
        operands.append(Multivector(sig, dict(zip(masks, values.tolist()))))
    return operands


def l1(mv):
    return sum(abs(c) for c in mv.terms.values())


def law_bound(sig, x, y):
    """A scale-relative bound on the rounding of a product of x and y: each
    output coefficient sums at most 2^n products, each at most l1(x) l1(y)
    in all; the factor 8 covers the complex multiply and the sums on both
    sides of the law."""
    return 2 ** (sig.n + 3) * EPS * l1(x) * l1(y)


FOUR_PRODUCTS = [geometric_product, wedge, left_contraction, right_contraction]


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(law_operands())
def test_all_four_products_distribute_over_sums(operands):
    a, b, c = operands
    sig = a.signature
    for product in FOUR_PRODUCTS:
        left = product(a, b + c) - (product(a, b) + product(a, c))
        assert left.max_abs() <= law_bound(sig, a, b + c) + law_bound(sig, a, b) + law_bound(sig, a, c)
        right = product(a + b, c) - (product(a, c) + product(b, c))
        assert right.max_abs() <= law_bound(sig, a + b, c) + law_bound(sig, a, c) + law_bound(sig, b, c)


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(law_operands())
def test_reversion_is_an_anti_automorphism(operands):
    """rev(a b) = rev(b) rev(a), and likewise for the wedge; reversion swaps
    the left and right contractions."""
    a, b, _ = operands
    ra, rb = reversion(a), reversion(b)
    mirrored = {
        geometric_product: geometric_product,
        wedge: wedge,
        left_contraction: right_contraction,
        right_contraction: left_contraction,
    }
    for product, mirror in mirrored.items():
        gap = reversion(product(a, b)) - mirror(rb, ra)
        assert gap.max_abs() <= law_bound(a.signature, a, b)



def test_real_products_above_four_dimensions_overflow_without_numpy_warnings(fresh_forms, monkeypatch):
    """The array path raises the loop's ValueError alone, on blocks made
    anew and on a compiled form, as compiled and as read back."""
    local = np.random.default_rng(14)
    sig = Signature(3, 2)
    big = drawn_operand(sig, local, "dense", False) * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cap = mv_module._FORM_MAX_PAIRS
        for form_max in (0, cap, cap):  # blocks made anew, then the form
            monkeypatch.setattr(mv_module, "_FORM_MAX_PAIRS", form_max)
            for product in PRODUCTS:
                with pytest.raises(ValueError, match="^non-finite coefficient$"):
                    product(big, big)


# -- builders: each result is what the validating constructor stores ---------------------


@st.composite
def builder_operands(draw):
    """Two operands of one random signature with n <= 6, each real or
    complex, with one term, a few terms or all 2^n in random key order.
    Dyadic values among them make sums and products cancel exactly, and
    tiny or huge scales make products underflow to +-0.0 or overflow."""
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(local.integers(0, 7))
    p = int(local.integers(0, n + 1))
    sig = Signature(p, n - p)
    operands = []
    for _ in range(2):
        size = min(int(local.choice([1, local.integers(2, 9), 1 << n])), 1 << n)
        masks = local.permutation(1 << n)[:size].tolist()
        dyadic = local.integers(-2, 3, size) / 2
        values = np.where(local.random(size) < 0.4, dyadic, local.normal(size=size))
        values = values * 10.0 ** float(local.choice([0, 0, 0, -170, -300, 160]))
        if local.random() < 0.5:
            imaginary = np.where(local.random(size) < 0.4, dyadic, local.normal(size=size))
            values = values + 1j * imaginary
        operands.append(Multivector(sig, dict(zip(masks, values.tolist()))))
    return operands


def validated(sig, make_terms):
    """Multivector(sig, terms) of the terms a builder used to pass to the
    validating path, or the error it raises."""
    try:
        return Multivector(sig, make_terms())
    except ValueError as exc:
        return exc


def outcome(build):
    try:
        result = build()
    except ValueError as exc:
        return exc
    # Clean as __init__ stores terms: nonzero, finite, no -0.0 part, real
    # exactly when no imaginary part is nonzero, and floats exactly when real.
    stored = float if result.real else complex
    for c in result._terms.values():
        assert type(c) is stored and c != 0 and math.isfinite(abs(c))
        assert math.copysign(1.0, c.real) == 1.0 or c.real != 0
        assert math.copysign(1.0, c.imag) == 1.0 or c.imag != 0
    assert result.real == all(c.imag == 0 for c in result._terms.values())
    return result


def same_outcome(got, want):
    if isinstance(want, Exception):
        return isinstance(got, ValueError) and str(got) == str(want)
    return (
        isinstance(got, Multivector)
        and ordered_bits(got) == ordered_bits(want)
        and got.real == want.real
    )


def old_sum(a, b):
    out = dict(a._terms)
    for m, c in b._terms.items():
        out[m] = out.get(m, 0) + c
    return out


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(builder_operands())
def test_builders_store_what_the_validating_constructor_stores(operands):
    a, b = operands
    sig = a.signature
    p, n = sig.p, sig.n
    at, bt = a._terms, b._terms
    k = int(sum(at) % (n + 1))
    cases = {
        "negation": (lambda: -a, lambda: {m: -c for m, c in at.items()}),
        "reversion": (
            lambda: reversion(a),
            lambda: {m: (1, 1, -1, -1)[m.bit_count() % 4] * c for m, c in at.items()},
        ),
        "grade_involution": (
            lambda: grade_involution(a),
            lambda: {m: (-1) ** m.bit_count() * c for m, c in at.items()},
        ),
        "sum": (lambda: a + b, lambda: old_sum(a, b)),
        "difference": (
            lambda: a - b,
            lambda: old_sum(a, Multivector(sig, {m: -c for m, c in bt.items()})),
        ),
        "grade_part": (
            lambda: grade_part(a, k),
            lambda: {m: c for m, c in at.items() if m.bit_count() == k},
        ),
        "even": (lambda: a.even(), lambda: {m: c for m, c in at.items() if m.bit_count() % 2 == 0}),
        "odd": (lambda: a.odd(), lambda: {m: c for m, c in at.items() if m.bit_count() % 2 == 1}),
        "pruned": (lambda: a.prune(0.5), lambda: {m: c for m, c in at.items() if abs(c) > 0.5}),
        "scaled": (lambda: a * -0.75, lambda: {m: c * complex(-0.75) for m, c in at.items()}),
    }
    for product, keep in PRODUCTS.items():
        cases[product.__name__] = (
            lambda product=product: product(a, b),
            lambda keep=keep: mv_module._product_loop(p, n, at, bt, keep),
        )
    for name, (build, old_terms) in cases.items():
        got = outcome(build)
        assert same_outcome(got, validated(sig, old_terms)), name
        if isinstance(got, Multivector):
            assert same_outcome(got, Multivector(sig, got._terms)), name


# -- numbers in sums: the stored coefficient, not a scalar multivector ---------------

NUMBERS = [
    0, -0.0, 0.0, 0j, complex(-0.0, -0.0), True, 1, -3, 2**53 + 1, 10**400,
    0.5, -1e-300, 5e-324, 1e308, -1e308, 2.5 - 1j, 1j, complex(1e308, -1e308),
    math.inf, -math.inf, math.nan, complex(0.0, math.inf), complex(math.nan, 0.0),
]


def old_number_sum(x, c, form):
    """The parent's x + c, c + x, x - c and c - x: the number became
    Multivector.scalar(sig, c) first, then took the multivector paths."""
    s = Multivector.scalar(x.signature, c)
    return {"x+c": lambda: x + s, "c+x": lambda: x + s, "x-c": lambda: x + (-s), "c-x": lambda: (-x) + s}[form]()


def number_outcome(build):
    try:
        result = build()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return ordered_bits(result), result.real, result.signature


@st.composite
def number_operands(draw):
    """An operand as builder_operands draws it, and a number: one of
    NUMBERS, any int, float or complex (inf and nan included), or the
    negated or plain scalar part of the operand, which cancels exactly."""
    x = draw(builder_operands())[0]
    s0 = x.scalar_part()
    c = draw(
        st.one_of(
            st.sampled_from(NUMBERS),
            st.integers(-(2**70), 2**70),
            st.floats(),
            st.complex_numbers(),
            st.sampled_from([-s0, s0, -s0.real, s0.real]),
        )
    )
    return x, c


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(number_operands())
def test_numbers_in_sums_store_what_the_scalar_path_stored(operands):
    x, c = operands
    new = {"x+c": lambda: x + c, "c+x": lambda: c + x, "x-c": lambda: x - c, "c-x": lambda: c - x}
    for form, build in new.items():
        got = number_outcome(build)
        assert got == number_outcome(lambda: old_number_sum(x, c, form)), form
        if isinstance(c, (float, complex)) and not cmath.isfinite(c):
            assert got == (ValueError, "non-finite coefficient"), form


@pytest.mark.parametrize("c", NUMBERS, ids=repr)
def test_each_listed_number_stores_what_the_scalar_path_stored(c):
    local = np.random.default_rng(33)
    for x in (Multivector.zero(SIG13), random_mv(SIG13, local), 1j * random_mv(SIG13, local)):
        for form, build in {"x+c": lambda: x + c, "c+x": lambda: c + x, "x-c": lambda: x - c, "c-x": lambda: c - x}.items():
            assert number_outcome(build) == number_outcome(lambda: old_number_sum(x, c, form)), form


# -- closed-form signs against the sign rows they replace ----------------------------

REV_SIGN = (1, 1, -1, -1)  # (-1)^{k(k-1)/2} by k mod 4


def old_scalar_product(a, b):
    """The parent's scalar_product, which read each sign from a sign row."""
    p, n = a.signature.p, a.signature.n
    total = 0j
    for m, ca in a._terms.items():
        cb = b._terms.get(m)
        if cb is None:
            continue
        total += REV_SIGN[m.bit_count() % 4] * _reorder_sign(p, n, m)[m] * ca * cb
    return total.real if a.real and b.real else total


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(builder_operands())
def test_scalar_product_is_the_sign_row_sum_bit_for_bit(operands):
    a, b = operands
    for x, y in ((a, b), (b, a), (a, a)):
        got, want = scalar_product(x, y), old_scalar_product(x, y)
        assert type(got) is type(want) and repr(got) == repr(want)


def old_exp_four_dimensions(f):
    """The parent's n = 4 branches of exp_bivector for a real F whose square
    is not a scalar, which read the pseudoscalar's signs from its row."""
    sig = f.signature
    f2 = geometric_product(f, f)
    alpha, pseudo = f2.scalar_part().real, 0b1111
    row = _reorder_sign(sig.p, 4, pseudo)
    beta = f2.coeff(pseudo).real
    if row[pseudo] < 0:
        z = cmath.sqrt(complex(alpha, beta))
        ch, sh = cmath.cosh(z), (cmath.sinh(z) / z if z else 1 + 0j)
        c0, c1, s0, s1 = ch.real, ch.imag, sh.real, sh.imag
    else:
        cp, sp = mv_module._cosh_sinhc(alpha + beta)
        cm, sm = mv_module._cosh_sinhc(alpha - beta)
        c0, c1, s0, s1 = (cp + cm) / 2, (cp - cm) / 2, (sp + sm) / 2, (sp - sm) / 2
    out = {0: complex(c0), pseudo: complex(c1)}
    for m, v in f._terms.items():
        out[m] = out.get(m, 0) + s0 * v
        out[pseudo ^ m] = out.get(pseudo ^ m, 0) + s1 * row[m] * v
    return Multivector._own(sig, out)


@pytest.mark.parametrize("p", range(5))
def test_four_dimensional_exp_reads_the_sign_rows_signs(p):
    sig = Signature(p, 4 - p)
    local = np.random.default_rng(40 + p)
    masks = bivector_masks(sig)
    for _ in range(200):
        size = int(local.integers(2, len(masks) + 1))
        chosen = local.permutation(masks)[:size].tolist()
        values = local.normal(size=size) * 10.0 ** float(local.uniform(-3, 0.5))
        f = Multivector(sig, dict(zip(chosen, values.tolist())))
        if geometric_product(f, f)._terms.keys() <= {0}:
            continue
        assert ordered_bits(exp_bivector(f)) == ordered_bits(old_exp_four_dimensions(f))


# -- grade-filtered products: only the grades the caller reads -------------------------------


def paths_taken(a, b, grades):
    """geometric_product(a, b, grades=grades) and the names of the array and
    loop paths it called, with a fresh form cache."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mv_module, "_FORMS", mv_module._FormCache())
        for name in ("_product_loop", "_sum_blocks"):
            path = getattr(mv_module, name)
            record = lambda *args, name=name, path=path: calls.append(name) or path(*args)
            patch.setattr(mv_module, name, record)
        out = geometric_product(a, b, grades=grades)
    return out, calls


def projected_bits(mv, grades):
    return [bits for bits in ordered_bits(mv) if bits[0].bit_count() in grades]


# path -> (signatures, left operand size, right operand size or None for dense,
# complex operands, the calls paths_taken records)
FILTER_PATHS = {
    "kernel": ([(p, n - p) for n in range(5) for p in range(n + 1)], None, None, False, []),
    "kernel, large": ([(p, n - p) for n in range(5, 8) for p in range(n + 1)], 8, 16, False, []),
    "array": ([(p, n - p) for n in range(5, 8) for p in range(n + 1)], 32, None, False, ["_sum_blocks"]),
    "loop, complex": ([(1, 3), (2, 1), (3, 2), (0, 6)], None, 7, True, ["_product_loop"]),
    "loop, small": ([(p, n - p) for n in range(5, 8) for p in range(n + 1)], 7, 9, False, ["_product_loop"]),
}


@settings(derandomize=True, deadline=None, max_examples=120, database=None)
@given(st.sampled_from(sorted(FILTER_PATHS)), st.data())
def test_grade_filtered_product_is_the_projected_product_bit_for_bit(path, data):
    signatures, size_a, size_b, complex_coeffs, want_calls = FILTER_PATHS[path]
    sig = Signature(*data.draw(st.sampled_from(signatures)))
    grades = data.draw(st.sets(st.integers(0, sig.n)))
    local = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    dim = 1 << sig.n
    a = shuffled_operand(sig, local, min(size_a or dim, dim), complex_coeffs)
    b = shuffled_operand(sig, local, min(size_b or dim, dim), complex_coeffs)
    want = projected_bits(geometric_product(a, b), grades)
    got, calls = paths_taken(a, b, grades)
    assert ordered_bits(got) == want
    assert calls == want_calls
    if path != "kernel":
        # Blocks made anew, above the form cap, then the form as it is
        # compiled and as it is read back.
        cap = mv_module._FORM_MAX_PAIRS
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mv_module, "_FORMS", mv_module._FormCache())
            for form_max in (0, cap, cap):
                patch.setattr(mv_module, "_FORM_MAX_PAIRS", form_max)
                assert ordered_bits(geometric_product(a, b, grades=grades)) == want


def test_grade_filters_are_shared_per_grade_set(fresh_forms):
    cache = fresh_forms
    local = np.random.default_rng(26)
    a, b = random_mv(SIG13, local), random_mv(SIG13, local)
    for grades in ((0, 4), [4, 0], {0, 4}, (4, 0, 4)):
        assert ordered_bits(geometric_product(a, b, grades=grades)) == projected_bits(a * b, {0, 4})
    assert len([key for key in cache.forms if key[4] is not None]) == 1
    # The filter tests ints and int arrays alike.
    keep = mv_module._grade_filter(0b10001)
    ma, mb = np.arange(16, dtype=np.int32)[:, None], np.arange(16, dtype=np.int32)
    assert keep(ma, mb).tolist() == [[bool(keep(x, y)) for y in range(16)] for x in range(16)]


def test_grade_filter_branches_agree_on_every_grade_set():
    """The array branch builds its own table of the grade set: on int32 mask
    arrays, shaped as _pair_blocks passes them, it gives the int branch's
    results as bools, for every grade set of every n <= 7."""
    for n in range(8):
        ma = np.arange(1 << n, dtype=np.int32)[:, None]
        mb = np.array(sorted({0, 0b1010101 % (1 << n), (1 << n) - 1}), np.int32)
        for bits in range(1 << (n + 1)):
            keep = mv_module._grade_filter(bits)
            got = keep(ma, mb)
            want = [[bool(keep(x, y)) for y in mb.tolist()] for x in ma[:, 0].tolist()]
            assert got.dtype == bool and got.tolist() == want, (n, bits)


def test_grade_filter_empty_set_gives_zero_and_outside_grades_raise():
    local = np.random.default_rng(27)
    for sig in (SIG13, Signature(3, 3)):
        a, b = random_mv(sig, local), random_mv(sig, local)
        assert geometric_product(a, b, grades=()) == Multivector.zero(sig)
        for bad in (-1, sig.n + 1):
            with pytest.raises(ValueError, match=rf"^grade {bad} out of range 0\.\.{sig.n}$"):
                geometric_product(a, b, grades=(0, bad))


def test_grade_filtered_product_checks_only_the_kept_grades_for_overflow():
    # e1 e1 overflows in the scalar; e1 e2 stays finite in grade 2.
    big = Multivector(SIG13, {1: 1e200})
    other = Multivector(SIG13, {1: 1e200, 2: 1.0})
    for a, b in ((big, other), (big * (1 + 0j) + 1j * big, other)):  # kernel, loop
        with pytest.raises(ValueError, match="^non-finite coefficient$"):
            geometric_product(a, b)
        with pytest.raises(ValueError, match="^non-finite coefficient$"):
            geometric_product(a, b, grades=(0, 2))
        kept = geometric_product(a, b, grades=(2,))
        assert kept == grade_part(loop_product(a, Multivector(SIG13, {2: 1.0}), None), 2)


# -- compiled forms return stored values, as the loop's builder stores them ----------------


def every_path(a, b, keep):
    """_product on a fresh pattern and on its compiled form, the form as
    the cache holds it, blocks made anew and the loop: each as its stored
    bits in key order, or the message of the ValueError it raised."""

    def outcome(build):
        try:
            return ordered_bits(build())
        except ValueError as exc:
            return str(exc)

    first, again = (outcome(lambda: mv_module._product(a, b, keep)) for _ in range(2))
    return [
        first,
        again,
        outcome(lambda: table_product(a, b, keep)),
        outcome(lambda: uncached_product(a, b, keep)),
        outcome(lambda: loop_product(a, b, keep)),
    ]


# path -> (signature, left size, right size): a kernel with n <= 4, a kernel
# of 64 pairs above four dimensions, and pair blocks of 1024 pairs.
FORM_PATHS = {
    "kernel": (SIG13, 4, 4),
    "kernel, n = 5": (Signature(3, 2), 8, 8),
    "blocks": (Signature(3, 2), 32, 32),
}


def form_operands(path, left, right):
    """Operands of the path's size on its first blades, valued by mask."""
    sig, na, nb = FORM_PATHS[path]
    a = Multivector(sig, {m: left(m) for m in range(na)})
    b = Multivector(sig, {m: right(m) for m in range(nb)})
    return a, b


@pytest.mark.parametrize("path", FORM_PATHS)
def test_forms_keep_finite_blades_whose_sum_overflows(fresh_forms, path):
    """b's blades at 1e308 pass through 1 * b: each is finite, their float
    sum is not, and nothing raises."""
    a, b = form_operands(path, lambda m: 1e-300 if m else 1.0, lambda m: 1e308)
    outcomes = every_path(a, b, None)
    assert outcomes == [outcomes[-1]] * 5
    assert sum(c.real for c in loop_product(a, b, None)._terms.values()) == math.inf
    assert [is_kernel(form) for form in fresh_forms.forms.values()] == [path != "blocks"]


@pytest.mark.parametrize("path", FORM_PATHS)
def test_forms_raise_on_one_overflowing_blade_and_not_on_a_skipped_one(fresh_forms, path):
    a, b = form_operands(path, lambda m: 1.0 if m else 1e200, lambda m: 1.0 if m else 1e200)
    assert every_path(a, b, None) == ["non-finite coefficient"] * 5
    # Only the scalar overflows; under grades=(2,) it is skipped.
    kept = every_path(a, b, mv_module._grade_filter(1 << 2))
    assert kept == [kept[-1]] * 5 and kept[-1] and {m.bit_count() for m, _, _ in kept[-1]} == {2}


@pytest.mark.parametrize("path", FORM_PATHS)
def test_forms_give_nothing_for_a_filter_that_keeps_no_pair(fresh_forms, path):
    """Every blade holds e1, so no pair is disjoint and the wedge is {}."""
    sig, na, nb = FORM_PATHS[path]
    sig = Signature(4, 3) if path == "blocks" else sig  # 32 odd blades of Cl(3,2) are too few
    odd = [m for m in range(1 << sig.n) if m & 1]
    a = Multivector(sig, {m: 1.0 + m for m in odd[:na]})
    b = Multivector(sig, {m: 2.0 - m for m in odd[-nb:]})
    assert every_path(a, b, mv_module._outer) == [[]] * 5
    assert [is_kernel(form) for form in fresh_forms.forms.values()] == [path != "blocks"]


def test_vector_squared_cancels_its_bivector_sums_to_nothing(fresh_forms):
    """v v holds six bivector sums x_i x_j - x_j x_i = 0 exactly: the kernel
    stores none of them, and the scalar comes first, as in the loop."""
    v = Multivector(SIG13, {1: 0.3, 2: -1.7, 4: 2.5, 8: 0.1})
    kernel = mv_module._generate_kernel(*plan_key(v, v, None))
    sums = list(kernel(v._terms.values(), v._terms.values()))
    assert sums == [0]
    outcomes = every_path(v, v, None)
    assert outcomes == [outcomes[-1]] * 5 and [m for m, _, _ in outcomes[-1]] == [0]


def test_kernels_read_and_store_floats(fresh_forms):
    """A real operand's values are floats, so no kernel, n <= 4 or shared,
    reads .real or stores 0j + s."""
    for sig in (SIG13, Signature(3, 2)):
        a = Multivector(sig, {m: 1.0 + m for m in range(16)})
        kernel = mv_module._generate_kernel(*plan_key(a, a, None))
        code = getattr(kernel, "func", kernel).__code__
        assert "real" not in code.co_names
        assert not any(isinstance(c, complex) for c in code.co_consts)
        assert all(type(c) is float for c in geometric_product(a, a)._terms.values())


def test_single_term_forms_store_what_the_loop_stores(fresh_forms):
    cases = [
        ({5: 1.5}, {6: -2.0}),  # e_5 e_6 = -e_3 in Cl(1,3)
        ({1: 1e-200}, {2: -1e-200}),  # underflows to -0.0: stored as nothing
        ({3: 1e200}, {3: 1e200}),  # overflows
        ({0: -0.5}, {15: 3.0}),
    ]
    for at, bt in cases:
        a, b = Multivector(SIG13, at), Multivector(SIG13, bt)
        for keep in PRODUCTS.values():
            outcomes = every_path(a, b, keep)
            assert outcomes == [outcomes[-1]] * 5, (at, bt, keep)
    assert every_path(*(Multivector(SIG13, t) for t in cases[1]), None) == [[]] * 5
    stored = mv_module._product(Multivector(SIG13, {5: 1.5}), Multivector(SIG13, {6: -2.0}))
    assert [type(c) for c in stored._terms.values()] == [float] and stored.real
