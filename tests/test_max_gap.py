"""The gap checks read max |x_m - y_m| from the terms of x and y; the
difference multivector they built before, (x - y).max_abs(), is kept here as
the oracle, with the checks as they were written on it."""

import math

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
    geometric_product,
    grade_involution,
    inverse,
    is_clifford_group,
    is_spin_e,
    norm_N,
    random_rotor,
    reversion,
)
from cliffspin import groups
from cliffspin.groups import ROTOR_TOL, FrameError, NotARotorError, SpinorialFrame, VectorFrame
from cliffspin.multivector import _left_mult_matrix, _max_gap

SIG13 = Signature(1, 3)
SIGNATURES = [(1, 3), (3, 0), (2, 2), (0, 4), (4, 1), (3, 3)]


def old_gap(x, y):
    return (x - y).max_abs()


def outcome(check, *args):
    """A check's value, or the type and message of what it raised."""
    try:
        return "value", check(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle compares any error
        return type(exc), str(exc)


def bits(x):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in x._terms.items()]


# -- the checks as written on the difference multivector ----------------------------------


def old_rotor(u):
    if u.grades() and any(g % 2 for g in u.grades()):
        raise NotARotorError("rotor must be an even element")
    if old_gap(geometric_product(u, reversion(u)), 1) > ROTOR_TOL:
        raise NotARotorError("rotor must satisfy u * reversion(u) = 1")
    return bits(u)


def new_rotor(u):
    return bits(Rotor(u).u)


def old_frame(rotor):
    """The frame as it was derived and checked before Rotor's check became
    its only proof: its vectors are the frame's to the bit."""
    sig = rotor.signature
    uinv = rotor.inverse
    tol = 1e-8 + 1e-12 * rotor.u.norm() ** 2
    vectors = []
    for i in range(sig.n):
        pulled = geometric_product(geometric_product(uinv, Multivector.generator(sig, i + 1)), rotor.u)
        b = pulled.grade(1)
        if old_gap(pulled, b) > tol:
            raise FrameError("u^{-1} E_i u is not a vector")
        vectors.append(b)
    return [bits(b) for b in VectorFrame(tuple(vectors)).vectors]


def new_frame(rotor):
    return [bits(b) for b in SpinorialFrame(rotor).frame.vectors]


def old_is_clifford_group(g, tol=ROTOR_TOL):
    sig = g.signature
    try:
        ghat_inv = old_inverse(grade_involution(g))
    except NonInvertibleError:
        return False
    for i in range(sig.n):
        image = geometric_product(geometric_product(g, Multivector.generator(sig, i + 1)), ghat_inv)
        if old_gap(image, image.grade(1)) > tol:
            return False
    return True


def old_is_spin_e(g, tol=ROTOR_TOL):
    if not old_is_clifford_group(g, tol) or any(k % 2 for k in g.grades()):
        return False
    if abs(complex(norm_N(g)) - 1.0) > tol:
        return False
    return g.signature.n > 5 or old_gap(geometric_product(g, reversion(g)), 1) <= tol


def old_inverse(a):
    sig = a.signature
    if a.is_zero():
        raise NonInvertibleError("zero element has no inverse")
    ar = reversion(a)
    s = geometric_product(a, ar)
    s0 = s.scalar_part()
    if abs(s0) > 1e-14 * a.norm() ** 2 and old_gap(s, s0) <= 1e-14 * abs(s0):
        cand = ar * (1.0 / s0)
        if old_gap(geometric_product(a, cand), Multivector.one(sig)) <= 1e-12:
            return cand
    mat = _left_mult_matrix(a)
    rhs = np.zeros(1 << sig.n, dtype=mat.dtype)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonInvertibleError("singular element (zero divisor)") from exc
    cand = Multivector(sig, {m: c for m, c in enumerate(sol.tolist()) if c != 0})
    residual = old_gap(geometric_product(a, cand), Multivector.one(sig))
    if residual > 1e-9 * max(1.0, a.max_abs() * cand.max_abs()):
        raise NonInvertibleError(f"singular element (inverse residual {residual:.3g})")
    return cand


def bits_of(check):
    """check with a multivector result read as its bits."""
    return lambda *args: bits(check(*args))


# -- the helper against the oracle ---------------------------------------------------------


@st.composite
def gap_operands(draw):
    """x, and y a multivector of x's algebra or a number: terms on shared
    and on own blades, some values equal so that differences cancel, real or
    complex, at scales up to the float limit."""
    sig = Signature(draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    masks = st.integers(0, (1 << sig.n) - 1)
    scale = 10.0 ** draw(st.sampled_from([-300, -6, 0, 6, 300, 307]))
    value = st.sampled_from([0.5, -1.0, 1.0, 3.0]) | st.floats(-4, 4, allow_nan=False)
    if draw(st.booleans()):
        value = st.builds(complex, value, value)
    x = Multivector(sig, {m: scale * draw(value) for m in draw(st.lists(masks, max_size=6))})
    if draw(st.booleans()):
        return x, draw(st.sampled_from([0, 1, -1, 1.0, 2.5, 1j, 1 + 1e-12, complex(scale, 0)]))
    shared = [m for m in x._terms if draw(st.booleans())]
    terms = {m: x._terms[m] if draw(st.booleans()) else scale * draw(value) for m in shared}
    terms.update({m: scale * draw(value) for m in draw(st.lists(masks, max_size=4))})
    return x, Multivector(sig, terms)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(gap_operands())
def test_max_gap_is_the_difference_max_abs_to_the_bit(operands):
    x, y = operands
    got, want = outcome(_max_gap, x, y), outcome(old_gap, x, y)
    assert got == want
    if got[0] == "value":
        assert type(got[1]) is float and got[1].hex() == want[1].hex()


def test_blades_absent_from_one_side_read_zero_there():
    one = Multivector.one(SIG13)
    assert _max_gap(Multivector.zero(SIG13), 1) == 1.0
    assert _max_gap(Multivector.zero(SIG13), one) == 1.0
    assert _max_gap(one, Multivector.zero(SIG13)) == 1.0
    assert _max_gap(Multivector.zero(SIG13), 0) == 0.0
    e1 = Multivector.generator(SIG13, 1)
    assert _max_gap(e1 * 3.0, -2.0) == 3.0
    assert _max_gap(e1 * 3.0 + 1.5, 1) == 3.0


def test_a_difference_that_overflows_raises_as_the_subtraction_does():
    big = Multivector(SIG13, {1: 1e308, 2: 1.0})
    imaginary = Multivector(SIG13, {1: 1e308j})
    for x, y in ((big, -big), (big + 1e308, -1e308), (-big, big), (imaginary, -imaginary)):
        for gap in (_max_gap, old_gap):
            with pytest.raises(ValueError, match="^non-finite coefficient$"):
                gap(x, y)
    with pytest.raises(ValueError, match="^non-finite coefficient$"):
        big.approx_eq(-big)
    # Each difference finite and their sum not: no error, as for x - y.
    x, y = Multivector(SIG13, {1: 1e308, 2: -1e308j, 8: 1e308}), Multivector(SIG13, {4: 1.0})
    assert _max_gap(x, y) == old_gap(x, y) == 1e308


def test_signatures_must_match():
    with pytest.raises(SignatureMismatchError):
        _max_gap(Multivector.one(SIG13), Multivector.one(Signature(3, 0)))
    with pytest.raises(SignatureMismatchError):
        Multivector.one(SIG13).approx_eq(Multivector.one(Signature(3, 0)))


# -- verdicts of every check that reads a gap -------------------------------------------------


def cases_at_scales(sig, local):
    """Two random rotors, a dense even element and a rotor nudged by 1e-11
    of it, each scaled by 10^k, k in -6..6."""
    rotors = [random_rotor(sig, local).u for _ in range(2)]
    even = Multivector(sig, {m: local.normal() for m in range(1 << sig.n) if m.bit_count() % 2 == 0})
    cases = []
    for u in rotors + [even, rotors[0] + even * 1e-11]:
        cases += [u * 10.0**k for k in range(-6, 7)]
    return cases


@pytest.mark.parametrize("pq", SIGNATURES, ids=str)
def test_checks_give_the_old_verdicts_at_every_scale(pq):
    sig = Signature(*pq)
    local = np.random.default_rng([29, *pq])
    cases = cases_at_scales(sig, local)
    verdicts = set()
    for g in cases:
        want = outcome(old_rotor, g)
        assert outcome(new_rotor, g) == want
        verdicts.add(want[0])
        if want[0] == "value":
            assert outcome(new_frame, Rotor(g)) == outcome(old_frame, Rotor(g))
        assert is_clifford_group(g) is old_is_clifford_group(g)
        assert is_spin_e(g) is old_is_spin_e(g)
        assert outcome(bits_of(inverse), g) == outcome(bits_of(old_inverse), g)
        h = g * (1 + 1e-9)
        for tol in (1e-12, 1e-9 * g.max_abs(), old_gap(g, h) * (1 + 1e-3), old_gap(g, h) * (1 - 1e-3)):
            assert g.approx_eq(h, tol) is (old_gap(g, h) <= tol)
    assert verdicts == {"value", NotARotorError}


@pytest.mark.parametrize("pq", SIGNATURES, ids=str)
def test_checks_give_the_old_verdicts_at_their_tolerance(pq, monkeypatch):
    """Each check with its tolerance at 1 +- 1e-3 times the gap it reads:
    the group checks read groups.ROTOR_TOL when called, so it is set there."""
    sig = Signature(*pq)
    local = np.random.default_rng([31, *pq])
    for _ in range(3):
        u = random_rotor(sig, local).u
        for slack in (ROTOR_TOL * (1 - 1e-3), ROTOR_TOL * (1 + 1e-3)):
            for g in (Multivector.scalar(sig, math.sqrt(1 + slack)), u * math.sqrt(1 + slack)):
                want = outcome(old_rotor, g)
                assert outcome(new_rotor, g) == want
                assert (want[0] == "value") is (slack < ROTOR_TOL)
                assert is_spin_e(g) is old_is_spin_e(g)
        noise = {m: local.normal() * 1e-10 for m in range(1 << sig.n) if m.bit_count() % 2 == 0}
        nudged = u + Multivector(sig, noise)
        gaps = [old_gap(geometric_product(nudged, reversion(nudged)), 1)]
        ghat_inv = inverse(grade_involution(nudged))
        for i in range(sig.n):
            image = geometric_product(geometric_product(nudged, Multivector.generator(sig, i + 1)), ghat_inv)
            gaps.append(old_gap(image, image.grade(1)))
        for gap in gaps:
            for tol in (gap * (1 - 1e-3), gap * (1 + 1e-3)):
                with monkeypatch.context() as patch:
                    patch.setattr(groups, "ROTOR_TOL", tol)
                    assert is_clifford_group(nudged) is old_is_clifford_group(nudged, tol)
                    assert is_spin_e(nudged) is old_is_spin_e(nudged, tol)


def test_the_zero_element_is_no_rotor():
    """u u~ of u = 0 has no scalar term, and reads |0 - 1| = 1."""
    with pytest.raises(NotARotorError, match=r"^rotor must satisfy u \* reversion\(u\) = 1$"):
        Rotor(Multivector.zero(SIG13))
    assert outcome(old_rotor, Multivector.zero(SIG13))[0] is NotARotorError


def test_rotor_rejects_any_odd_term():
    e1, e12 = Multivector.generator(SIG13, 1), Multivector(SIG13, {0b11: 1.0})
    for u in (e1, e12 + e1 * 1e-300, Multivector.one(SIG13) + Multivector(SIG13, {0b111: 1e-20})):
        with pytest.raises(NotARotorError, match="^rotor must be an even element$"):
            Rotor(u)
