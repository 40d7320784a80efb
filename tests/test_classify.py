import hashlib
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffspin import (
    Multivector,
    Signature,
    center_dim,
    classify,
    division_ring_of,
    find_primitive_idempotent,
    geometric_product,
    ideal_basis,
    ideal_dim_over_K,
    idempotent_factor_count,
    is_primitive,
    is_simple,
    orthogonal_idempotent_expansion,
    radon_hurwitz,
)
from cliffspin.classify import ClassificationError, ideal_real_dim, is_idempotent

SIG13 = Signature(1, 3)


def blade(sig, *indices):
    out = Multivector.scalar(sig, 1.0)
    for i in indices:
        out = geometric_product(out, Multivector.generator(sig, i))
    return out


def test_radon_hurwitz_base_table():
    assert [radon_hurwitz(i) for i in range(8)] == [0, 1, 2, 2, 3, 3, 3, 3]


def test_radon_hurwitz_recurrence_up_and_down():
    assert radon_hurwitz(8) == 4
    assert radon_hurwitz(9) == 5
    assert radon_hurwitz(-1) == -1
    assert radon_hurwitz(-2) == -1
    for i in range(-16, 17):
        assert radon_hurwitz(i + 8) == radon_hurwitz(i) + 4


def test_idempotent_factor_counts():
    assert idempotent_factor_count(1, 3) == 1
    assert idempotent_factor_count(0, 2) == 0
    assert idempotent_factor_count(3, 1) == 2
    assert idempotent_factor_count(1, 0) == 1
    assert idempotent_factor_count(4, 1) == 2


def test_classify_named_cases():
    cases = {
        (1, 3): ("H", 2),
        (3, 1): ("R", 4),
        (4, 1): ("C", 4),
        (1, 4): ("H+H", 2),
        (3, 0): ("C", 2),
        (0, 3): ("H+H", 1),
    }
    for (p, q), (ring, m) in cases.items():
        desc = classify(p, q)
        assert (desc.ring, desc.m) == (ring, m), (p, q)


def test_classify_dimension_bookkeeping_sweep():
    from cliffspin.classify import _RING_REAL_DIM

    for n in range(9):
        for p in range(n + 1):
            q = n - p
            desc = classify(p, q)
            assert _RING_REAL_DIM[desc.ring] * desc.m**2 == 1 << n
            assert (desc.ring in ("R+R", "H+H")) == (not is_simple(p, q))


def test_classify_periodicity():
    for p in range(4):
        for q in range(4 - p):
            a = classify(p, q)
            b = classify(p + 8, q)
            assert a.ring == b.ring
            assert b.m == 16 * a.m


def test_simplicity_and_center():
    assert not is_simple(1, 0)  # R+R
    assert is_simple(0, 1)  # C
    assert not is_simple(2, 1)
    assert center_dim(1, 3) == 1
    assert center_dim(3, 0) == 2
    assert center_dim(0, 1) == 2


def test_primitive_idempotent_spacetime_default():
    desc = find_primitive_idempotent(1, 3)
    expected = (1 + Multivector.generator(SIG13, 1)) * 0.5
    assert desc.idempotent == expected
    assert desc.k_factors == 1
    assert desc.division_ring == "H"
    assert len(desc.ideal_basis) == 8
    assert ideal_dim_over_K(desc.idempotent) == 2


def test_other_spacetime_idempotents_are_primitive():
    # (1 + e4 e1)/2 and (1 + e2 e3 e4)/2 are primitive of different types
    for e in [
        (1 + blade(SIG13, 4, 1)) * 0.5,
        (1 + blade(SIG13, 2, 3, 4)) * 0.5,
    ]:
        assert is_idempotent(e)
        assert is_primitive(e)
        assert division_ring_of(e) == "H"
        assert ideal_real_dim(e) == 8


def test_whole_algebra_ideal():
    one = Multivector.scalar(SIG13, 1.0)
    assert ideal_real_dim(one) == 16
    assert len(ideal_basis(one)) == 16
    assert not is_primitive(one)


def test_division_rings_by_signature():
    e = (1 + Multivector.generator(Signature(2, 0), 1)) * 0.5
    assert division_ring_of(e) == "R"
    desc41 = find_primitive_idempotent(4, 1)
    assert desc41.division_ring == "C"


def test_idempotent_search_seeded_determinism():
    a = find_primitive_idempotent(2, 3, seed=5)
    b = find_primitive_idempotent(2, 3, seed=5)
    assert a.idempotent == b.idempotent
    assert is_primitive(a.idempotent)


def test_quaternion_algebra_has_trivial_search():
    # Cl(0,2) is H itself: k = 0, the unit is the only factor product
    desc = find_primitive_idempotent(0, 2)
    assert desc.k_factors == 0
    assert desc.idempotent == Multivector.scalar(Signature(0, 2), 1.0)
    assert desc.division_ring == "H"


def test_nonsimple_algebras_flagged():
    desc = find_primitive_idempotent(1, 0)
    assert desc.nonsimple_summand
    assert desc.k_factors == 1
    assert ideal_real_dim(desc.idempotent) == 1


def test_orthogonal_expansion_exact():
    for p, q in [(1, 3), (3, 1), (2, 2), (0, 3)]:
        sig = Signature(p, q)
        desc = find_primitive_idempotent(p, q)
        parts = orthogonal_idempotent_expansion(desc)
        assert len(parts) == 1 << desc.k_factors
        total = Multivector.zero(sig)
        for part in parts:
            total = total + part
            assert is_idempotent(part)
        assert total == Multivector.scalar(sig, 1.0)
        for i, a in enumerate(parts):
            for j, b in enumerate(parts):
                prod = geometric_product(a, b)
                if i == j:
                    assert prod == a
                else:
                    assert prod.is_zero()


def test_ideal_basis_members_stay_in_ideal():
    desc = find_primitive_idempotent(1, 3)
    e = desc.idempotent
    for x in desc.ideal_basis:
        assert (geometric_product(x, e) - x).max_abs() == 0.0


def test_ideal_basis_rejects_non_idempotent():
    with pytest.raises(ValueError):
        ideal_basis(Multivector.generator(SIG13, 1))


# -- the real-span helper -----------------------------------------------------------------

_BASE_RING = {"R": ("R", 1), "R+R": ("R", 1), "C": ("C", 2), "H": ("H", 4), "H+H": ("H", 4)}
SMALL_SIGNATURES = [(p, n - p) for n in range(7) for p in range(n + 1)]


def minimal_ideal_real_dim(p, q):
    """Real dimension of a minimal left ideal: K^m for Cl(p,q) = K(m) or K(m) + K(m)."""
    desc = classify(p, q)
    return _BASE_RING[desc.ring][1] * desc.m


def real_rank(mvs):
    """Rank over R by SVD, independent of the greedy span helper."""
    return int(np.linalg.matrix_rank(np.array([x.coefficients() for x in mvs]).real))


def blade_images(e):
    sig = e.signature
    return [geometric_product(Multivector.from_mask(sig, m), e) for m in range(1 << sig.n)]


@pytest.mark.parametrize("p,q", SMALL_SIGNATURES)
def test_searched_idempotents_span_minimal_ideals(p, q):
    for seed in (None, 1, 2, 3):
        desc = find_primitive_idempotent(p, q, seed)
        e = desc.idempotent
        assert ideal_real_dim(e) == minimal_ideal_real_dim(p, q) == real_rank(blade_images(e))
        assert desc.division_ring == _BASE_RING[classify(p, q).ring][0]


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.sampled_from(SMALL_SIGNATURES), st.integers(0, 2**31 - 1))
def test_seeded_search_spans_minimal_ideal(pq, seed):
    desc = find_primitive_idempotent(*pq, seed=seed)
    assert ideal_real_dim(desc.idempotent) == minimal_ideal_real_dim(*pq)
    assert len(desc.ideal_basis) == ideal_real_dim(desc.idempotent)


def test_ideal_basis_keeps_first_independent_images_in_mask_order():
    e = find_primitive_idempotent(1, 3).idempotent
    images = blade_images(e)
    basis = ideal_basis(e)
    kept = [images.index(b) for b in basis]
    assert kept == sorted(kept)
    # Every skipped image lies in the span of the basis members kept before it.
    for m, img in enumerate(images):
        before = [b for b, k in zip(basis, kept) if k < m]
        if m not in kept:
            assert real_rank([*before, img]) == len(before)


@pytest.mark.parametrize("pq", [(1, 3), (3, 2), (4, 3)])
def test_search_runs_no_span_elimination(pq, monkeypatch):
    """The search's rank probes, ideal basis and division ring are closed
    forms: the span helper is never called."""
    classify_module = importlib.import_module("cliffspin.classify")
    events = []
    span, probe = classify_module._real_independent, classify_module.ideal_real_dim
    monkeypatch.setattr(
        classify_module, "_real_independent", lambda rows: events.append("span") or span(rows)
    )
    monkeypatch.setattr(
        classify_module, "ideal_real_dim", lambda e: events.append("probe") or probe(e)
    )
    desc = find_primitive_idempotent(*pq, seed=1)
    assert "probe" in events and "span" not in events
    assert desc.ideal_basis == ideal_basis(desc.idempotent)


# -- the closed forms against the greedy span they replace ---------------------------------

SIGNATURES_TO_7 = [(p, n - p) for n in range(8) for p in range(n + 1)]


def product_rows(e, sandwich=False):
    """Real coefficient rows of blade_m e, or of e blade_m e when sandwich is
    set, for every mask m in ascending order, built by products."""
    sig = e.signature
    left = e if sandwich else Multivector.scalar(sig, 1.0)
    for m in range(1 << sig.n):
        image = geometric_product(geometric_product(left, Multivector.from_mask(sig, m)), e)
        yield np.array(image.coefficients()).real


def greedy_independent(rows, tol=1e-9):
    """Indices of the rows, in order, that are not in the real span of the
    rows kept before them: incremental Gaussian elimination, pivoting on the
    largest entry, with a pivot tolerance."""
    basis, pivots, kept = [], [], []
    for i, w in enumerate(rows):
        for row, piv in zip(basis, pivots):
            if w[piv] != 0.0:
                w = w - row * w[piv]
        idx = int(np.argmax(np.abs(w)))
        if abs(w[idx]) <= tol:
            continue
        basis.append(w / w[idx])
        pivots.append(idx)
        kept.append(i)
    return kept


def oracle_division_ring(e):
    """e Cl e spanned by its images e blade_m e; at real dimension 2 the
    structure constants of w^2 = alpha e + beta w tell C from R + R."""
    sig = e.signature
    kept = greedy_independent(product_rows(e, sandwich=True))
    if len(kept) == 2:
        basis = [
            geometric_product(geometric_product(e, Multivector.from_mask(sig, m)), e) for m in kept
        ]
        w = next(b for b in basis if not b.approx_eq(e, 1e-12))
        A = np.array([e.coefficients(), w.coefficients()]).real.T
        w2 = np.array(geometric_product(w, w).coefficients()).real
        (alpha, beta), *_ = np.linalg.lstsq(A, w2, rcond=None)
        return "C" if alpha + beta * beta / 4 < -1e-12 else "split"
    return {1: "R", 4: "H"}.get(len(kept), f"dimension {len(kept)}")


def span_outputs(e):
    """The ideal basis masks and terms, dimension and division ring that the
    greedy span of the blade images gives."""
    masks = greedy_independent(product_rows(e))
    images = blade_images(e)
    terms = [list(images[m]._terms.items()) for m in masks]
    return masks, terms, len(masks), oracle_division_ring(e)


def closed_form_outputs(e):
    classify_module = importlib.import_module("cliffspin.classify")
    basis = ideal_basis(e)
    masks = classify_module._coset_minima(e)
    return masks, [list(b._terms.items()) for b in basis], ideal_real_dim(e), division_ring_of(e)


@pytest.mark.parametrize("p,q", SIGNATURES_TO_7)
def test_closed_forms_match_the_greedy_span(p, q):
    for seed in (None, 1, 2, 3):
        e = find_primitive_idempotent(p, q, seed).idempotent
        assert closed_form_outputs(e) == span_outputs(e), seed


def off_subgroup_idempotent(e):
    """e + e x (1 - e) for the first blade x that changes e: the conjugate
    (1 - u) e (1 + u) of e by 1 + u with u = e x (1 - e), u^2 = 0.  Its
    coefficients stay dyadic, and its support is no subgroup H with
    |H| <e>_0 = 1.  None when every such u is zero."""
    sig = e.signature
    rest = Multivector.scalar(sig, 1.0) - e
    for m in range(1, 1 << sig.n):
        u = geometric_product(geometric_product(e, Multivector.from_mask(sig, m)), rest)
        if not u.is_zero():
            return e + u
    return None


@pytest.mark.parametrize("p,q", SIGNATURES_TO_7)
def test_table_built_ideals_match_product_built_ideals(p, q, monkeypatch):
    """Off the subgroup case ideal_basis spans the sign table's rows; its
    basis is the one the product-built rows give, and so are the closed-form
    dimension and ring."""
    classify_module = importlib.import_module("cliffspin.classify")
    e = off_subgroup_idempotent(find_primitive_idempotent(p, q).idempotent)
    if e is None:
        # A division algebra, or a sum of two, has no nilpotents.
        assert classify(p, q).m == 1
        return
    assert is_idempotent(e) and classify_module._coset_minima(e) is None
    calls = []
    span = classify_module._real_independent
    monkeypatch.setattr(
        classify_module, "_real_independent", lambda rows: calls.append(1) or span(rows)
    )
    got = [list(b._terms.items()) for b in ideal_basis(e)]
    assert calls
    masks, terms, dim, ring = span_outputs(e)
    assert (got, ideal_real_dim(e), division_ring_of(e)) == (terms, dim, ring)


@pytest.mark.parametrize("p,q", SIGNATURES_TO_7)
def test_square_plus_blades_read_from_the_sign_table(p, q):
    classify_module = importlib.import_module("cliffspin.classify")
    sig = Signature(p, q)
    one = Multivector.scalar(sig, 1.0)
    squares = [
        m for m in range(1, 1 << sig.n)
        if geometric_product(Multivector.from_mask(sig, m), Multivector.from_mask(sig, m)) == one
    ]
    want = sorted(squares, key=lambda m: (m.bit_count(), m))
    got = classify_module._commuting_square_plus_blades(sig)
    assert got == want and all(type(m) is int for m in got)


def test_image_rows_match_products_in_small_blocks(monkeypatch):
    classify_module = importlib.import_module("cliffspin.classify")
    e = off_subgroup_idempotent(find_primitive_idempotent(4, 3, seed=2).idempotent)
    want = list(product_rows(e))
    monkeypatch.setattr(classify_module, "_IMAGE_BLOCK_ENTRIES", 300)
    got = list(classify_module._image_rows(e))
    assert np.array_equal(np.array(got), np.array(want))


def test_non_real_idempotents_keep_the_span():
    e = (1 + 1j * Multivector.generator(SIG13, 2)) * 0.5
    assert is_idempotent(e)
    assert ideal_real_dim(e) == len(ideal_basis(e)) == 16
    with pytest.raises(ClassificationError, match="real idempotent"):
        division_ring_of(e)


def test_trace_that_is_not_an_integer_is_rejected():
    classify_module = importlib.import_module("cliffspin.classify")
    assert classify_module._trace_dim(SIG13, 0.5, "probe") == 8
    with pytest.raises(ClassificationError, match="not an integer"):
        classify_module._trace_dim(SIG13, 0.3, "probe")


def test_cl66_search_is_small():
    """One Cl(6,6) search: the closed forms and the weight-mask signs keep its
    traced peak under 8 MiB, half of what a 2^12 x 2^12 int8 sign table
    alone would hold."""
    tracemalloc.start()
    try:
        desc = find_primitive_idempotent(6, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert desc.division_ring == "R" and len(desc.ideal_basis) == 64
    assert peak < 8 * 2**20


def search_digest(seed=None):
    """sha256 over every output of find_primitive_idempotent for p + q <= 7:
    each multivector as its realness and (mask, type, real.hex(), imag.hex())
    terms in key order, and the descriptor's other fields."""
    digest = hashlib.sha256()
    for n in range(8):
        for p in range(n + 1):
            desc = find_primitive_idempotent(p, n - p, seed=seed)
            for mv in (desc.idempotent, *desc.ideal_basis, *desc.factors):
                items = mv._terms.items()
                terms = [(m, type(c).__name__, c.real.hex(), c.imag.hex()) for m, c in items]
                digest.update(repr((mv.real, terms)).encode())
            fields = (desc.k_factors, desc.division_ring, desc.nonsimple_summand)
            digest.update(repr(fields).encode())
    return digest.hexdigest()


# Digests of the search's output when its blades were built by the validating
# Multivector.from_mask, for seeds None and 3.
SEARCH_DIGESTS = {
    None: "b9a2c6dbcea440efc15a3cb3f242d6dfa05363892c59fd37655591139ccef04d",
    3: "174eacb6cd1d8a55037cba4c2d11f4c6563bdad74edef73797efedd126592e0d",
}


@pytest.mark.parametrize("seed", list(SEARCH_DIGESTS))
def test_search_output_is_unchanged_up_to_seven_generators(seed):
    assert search_digest(seed) == SEARCH_DIGESTS[seed]
    for b in find_primitive_idempotent(3, 4, seed=seed).factors:
        ((mask, c),) = b._terms.items()
        stored = Multivector.from_mask(b.signature, mask)._terms[mask]
        assert b.real and type(c) is complex
        assert (c.real.hex(), c.imag.hex()) == (stored.real.hex(), stored.imag.hex())
