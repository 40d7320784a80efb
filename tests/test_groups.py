import copy
import math
import pickle

import numpy as np
import pytest

from cliffspin import (
    Multivector,
    NonInvertibleError,
    Rotor,
    Signature,
    adjoint,
    exp_bivector,
    fiducial_frame,
    fiducial_spinorial_frame,
    frame_right_action,
    geometric_product,
    grade_involution,
    inverse,
    is_clifford_group,
    is_pin,
    is_spin,
    is_spin_e,
    lorentz_matrix_of,
    norm_N,
    random_rotor,
    reversion,
    rotor_between,
    spinorial_frame_of,
    twisted_adjoint,
)
from cliffspin import groups as groups_module
from cliffspin.groups import ROTOR_TOL, FrameError, NotARotorError, SpinorialFrame, VectorFrame, random_bivector
from cliffspin.multivector import _max_gap
from cliffspin.spinors import random_regular_spinor

rng = np.random.default_rng(1)

SIG13 = Signature(1, 3)
SIG30 = Signature(3, 0)


def gen(sig, i):
    return Multivector.generator(sig, i)


def bits(x):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in x.terms.items()]


def frame_bits(f):
    return [bits(b) for b in f.frame.vectors]


def two_step_frame_vectors(u):
    """Oracle: b_i = <(u^{-1} E_i) u>_1, one sandwich per vector."""
    uinv = u.inverse
    sig = u.signature
    return [geometric_product(geometric_product(uinv, gen(sig, i + 1)), u.u).grade(1) for i in range(sig.n)]


def test_rotor_validation():
    Rotor(Multivector.scalar(SIG13, 1.0))
    with pytest.raises(NotARotorError):
        Rotor(gen(SIG13, 1))  # odd
    with pytest.raises(NotARotorError):
        Rotor(Multivector.scalar(SIG13, 2.0))  # u rev(u) != 1


def test_adjoint_identity():
    x = Multivector(SIG13, {m: float(rng.uniform(-1, 1)) for m in range(16)})
    one = Rotor(Multivector.scalar(SIG13, 1.0))
    assert (adjoint(one, x) - x).max_abs() == 0.0


def test_adjoint_rotation_oracle():
    # exp(theta/2 e2e1) rotates e1 toward e2 by theta
    theta = 0.41
    u = Rotor(exp_bivector(theta / 2 * geometric_product(gen(SIG30, 2), gen(SIG30, 1))))
    got = adjoint(u, gen(SIG30, 1))
    expected = math.cos(theta) * gen(SIG30, 1) + math.sin(theta) * gen(SIG30, 2)
    assert (got - expected).max_abs() < 1e-12


def test_twisted_vs_plain_adjoint_on_odd_elements():
    e1 = gen(SIG13, 1)
    plain = adjoint(e1, e1)
    twisted = twisted_adjoint(e1, e1)
    assert (plain + twisted).max_abs() < 1e-12  # differ by the involution sign
    # and they agree for even elements
    u = random_rotor(SIG13, rng)
    x = gen(SIG13, 2)
    assert (adjoint(u.u, x) - twisted_adjoint(u.u, x)).max_abs() < 1e-10


def test_group_membership():
    for _ in range(5):
        f = random_bivector(SIG13, rng)
        u = exp_bivector(f)
        assert is_spin_e(u)
        assert is_spin(u)
        assert is_pin(u)
        assert abs(complex(norm_N(u)) - 1.0) < 1e-10
    e1 = gen(SIG13, 1)
    assert is_pin(e1)
    assert not is_spin(e1)
    assert not is_spin_e(e1)
    assert is_clifford_group(e1)
    assert not is_clifford_group(1 + gen(SIG13, 1))


def test_clifford_group_test_rejects_zero_divisors_but_not_wrong_arguments():
    zero_divisor = 1 + gen(SIG13, 1)  # (1 + e1)(1 - e1) = 0
    assert not is_clifford_group(zero_divisor)
    assert not is_spin_e(zero_divisor)
    with pytest.raises(AttributeError):
        is_spin_e(random_rotor(SIG13, rng))  # a Rotor, not its element


def old_is_spin_e(g):
    """is_spin_e as is_spin, then N(g) = 1, then g g~ = 1 for n <= 5, as it
    was written before it computed N(g) once; kept as the oracle."""
    if not is_spin(g) or abs(complex(norm_N(g)) - 1.0) > ROTOR_TOL:
        return False
    return g.signature.n > 5 or (geometric_product(g, reversion(g)) - 1).max_abs() <= ROTOR_TOL


SPIN_E_SIGNATURES = [(1, 3), (3, 0), (2, 2), (0, 4), (4, 1), (3, 3)]


def spin_e_draws(sig):
    """Rotors, their multiples and rotors off by 1e-13 to 1e-3, with the
    verdicts of is_spin_e on both sides of each bound."""
    local = np.random.default_rng([sig.p, sig.q])
    cases = [gen(sig, 1) * gen(sig, 2), gen(sig, 1) * gen(sig, sig.n)]  # N = +-1
    for _ in range(3):
        u = random_rotor(sig, local).u
        even = Multivector(sig, {m: local.normal() for m in range(1 << sig.n) if m.bit_count() % 2 == 0})
        for scale in (1e-13, 1e-8, 1e-3):
            cases.append(u + even * scale)
        cases += [u, u + gen(sig, 1) * 1e-13, 2 * u, -u]
    return cases


@pytest.mark.parametrize("pq", SPIN_E_SIGNATURES, ids=str)
def test_is_spin_e_computes_N_once_with_the_old_verdicts(monkeypatch, pq):
    sig = Signature(*pq)
    cases = spin_e_draws(sig)
    want = [old_is_spin_e(g) for g in cases]
    assert True in want and False in want
    calls = []

    def counting_norm_N(g):
        calls.append(g)
        return norm_N(g)

    monkeypatch.setattr(groups_module, "norm_N", counting_norm_N)
    for g, verdict in zip(cases, want):
        calls.clear()
        assert is_spin_e(g) is verdict
        # N(g) only for even elements of the Clifford group, and once.
        assert calls == ([g] if is_clifford_group(g) and not g.odd() else [])


def old_is_clifford_group(g):
    """is_clifford_group as it formed each whole image (g e_i) ghat^{-1} by
    two products and measured its gap to its vector part; the oracle."""
    sig = g.signature
    try:
        ghat_inv = inverse(grade_involution(g))
    except NonInvertibleError:
        return False
    for i in range(sig.n):
        image = geometric_product(geometric_product(g, gen(sig, i + 1)), ghat_inv)
        if (image - image.grade(1)).max_abs() > ROTOR_TOL:
            return False
    return True


def clifford_group_draws(sig, local):
    """Odd, complex and zero-divisor elements, and versors scaled off the
    group's bound, in sig."""
    n = sig.n
    dense = lambda k: Multivector(sig, {m: local.normal() for m in range(1 << n) if m.bit_count() % 2 == k})
    cases = []
    for _ in range(4):
        u = random_rotor(sig, local).u
        v = Multivector(sig, {1 << i: local.normal() for i in range(n)})
        odd = geometric_product(u, v)  # an odd versor
        cases += [odd, odd * 3.0, odd + dense(1) * 1e-12, odd + dense(1) * 1e-6, odd + dense(0) * 1e-9]
        cases += [u * 1j, odd * (0.6 + 0.8j), u + dense(0) * 1e-7j, dense(1) + dense(0) * 1j]
        cases += [u + dense(0) * 1e-12, u + dense(0) * 1e-3, dense(0), dense(1)]
    e1, e2 = gen(sig, 1), gen(sig, 2)
    cases += [1 + e1, e1 + e2 * e2 * e1, (1 + e1) * u, 1 + geometric_product(e1, gen(sig, n)) * 1j]
    return cases


def old_rotor_refusal(u):
    """Rotor's checks as they formed each whole image (u E_i) u~ above n = 5
    by two products and measured its gap to its vector part: the message
    that Rotor(u) raised, or None; the oracle."""
    if any(m.bit_count() & 1 for m in u._terms):
        return "rotor must be an even element"
    inv = reversion(u)
    if _max_gap(geometric_product(u, inv), 1) > ROTOR_TOL:
        return "rotor must satisfy u * reversion(u) = 1"
    sig = u.signature
    if sig.n > 5:
        tol = groups_module._vector_tol(u)
        for i in range(sig.n):
            image = geometric_product(geometric_product(u, gen(sig, i + 1)), inv)
            if _max_gap(image, image.grade(1)) > tol:
                return "rotor must map vectors to vectors: u E_i reversion(u)"
    return None


def rotor_refusal(u):
    try:
        Rotor(u)
    except NotARotorError as exc:
        return str(exc)
    return None


def near_rotors(sig, local):
    """(1 + d B)/|1 + d B| for the 6-blade B = e1...e6, which sends e1 to
    grade 5 by 2d/(1 - d^2 B^2) with u u~ = 1, on both sides of Rotor's
    vector bound 1e-8 + 1e-12 |u|^2 (d near 5e-9), alone and times random
    rotors."""
    B = Multivector.blade(sig, range(1, 7))
    b2 = geometric_product(B, B).scalar_part().real
    cases = []
    for d in (0.0, 1e-9, 4.9e-9, 4.99e-9, 5.01e-9, 5.1e-9, 1e-8, 1e-4, 0.3):
        w = (1 + d * B) * (1 / math.sqrt(1 - d * d * b2))
        r = random_rotor(sig, local).u
        cases += [w, geometric_product(r, w), geometric_product(w, r), w + B * 1e-9]
    return cases


@pytest.mark.parametrize("pq", [(4, 1), (3, 2)] + SPIN_E_SIGNATURES + [(6, 0), (4, 3)], ids=str)
def test_clifford_group_verdicts_are_the_whole_image_verdicts(monkeypatch, pq):
    """Forming only the image's non-vector grades, with g e_i as a signed
    permutation, keeps every verdict of is_clifford_group, and so of is_pin
    and is_spin_e, which read it; above n = 5 it keeps Rotor's verdicts on
    near-rotors, which read it with their own bound."""
    sig = Signature(*pq)
    local = np.random.default_rng([sig.p, sig.q, 7])
    if sig.n > 5:
        rotors = near_rotors(sig, local)
        refusals = [rotor_refusal(u) for u in rotors]
        assert refusals == [old_rotor_refusal(u) for u in rotors]
        assert None in refusals and "rotor must map vectors to vectors: u E_i reversion(u)" in refusals
    cases = spin_e_draws(sig) + clifford_group_draws(sig, local)
    got = [(is_clifford_group(g), is_pin(g), is_spin_e(g)) for g in cases]
    monkeypatch.setattr(groups_module, "is_clifford_group", old_is_clifford_group)
    want = [(old_is_clifford_group(g), is_pin(g), is_spin_e(g)) for g in cases]
    assert got == want
    verdicts = [v[0] for v in want]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("pq", [(1, 3), (3, 1), (2, 2), (4, 1)], ids=str)
def test_lorentz_matrix_is_the_two_product_matrix_bit_for_bit(pq):
    """u E_i read as _times_blade's signed permutation keeps every entry of
    L as the product by the generator made it."""
    sig = Signature(*pq)
    local = np.random.default_rng([sig.p, sig.q, 11])
    for _ in range(20):
        u = random_rotor(sig, local)
        want = np.zeros((sig.n, sig.n))
        for i in range(sig.n):
            image = geometric_product(geometric_product(u.u, gen(sig, i + 1)), u.inverse, grades=(1,))
            for j in range(sig.n):
                want[j, i] = image.coeff(1 << j).real
        assert lorentz_matrix_of(u).tobytes() == want.tobytes()


@pytest.mark.parametrize("pq", [(1, 3), (4, 1), (3, 2)], ids=str)
def test_clifford_group_still_raises_where_the_whole_image_raised(pq):
    sig = Signature(*pq)
    for g in (gen(sig, 1) * 1e200, (1 + gen(sig, 1) * gen(sig, 2)) * 1e160):
        with pytest.raises(ValueError, match="non-finite"):
            old_is_clifford_group(g)
        with pytest.raises(ValueError, match="non-finite"):
            is_clifford_group(g)


def old_random_bivector(sig, rng):
    """random_bivector as it tested each blade's square by a product; the oracle."""
    terms = {}
    one = Multivector.scalar(sig, 1.0)
    for i in range(sig.n):
        for j in range(i + 1, sig.n):
            mask = (1 << i) | (1 << j)
            b = Multivector.from_mask(sig, mask)
            c = float(rng.uniform(-1.0, 1.0))
            if geometric_product(b, b) == one:
                c *= 0.5
            terms[mask] = c
    return Multivector(sig, terms)


@pytest.mark.parametrize("pq", [(1, 3), (3, 1), (0, 4), (4, 0), (2, 3), (0, 6), (6, 0), (3, 4)], ids=str)
def test_random_bivector_is_the_old_draw_bit_for_bit(pq):
    sig = Signature(*pq)
    want = old_random_bivector(sig, np.random.default_rng(list(pq)))
    got = random_bivector(sig, np.random.default_rng(list(pq)))
    assert bits(got) == bits(want)


def test_twisted_adjoint_kernel_sign():
    u = random_rotor(SIG13, rng)
    for i in range(1, 5):
        v = gen(SIG13, i)
        a = twisted_adjoint(u.u, v)
        b = twisted_adjoint(-u.u, v)
        assert (a - b).max_abs() < 1e-10


def test_lorentz_matrix_identity_and_kernel():
    one = Rotor(Multivector.scalar(SIG13, 1.0))
    assert np.allclose(lorentz_matrix_of(one), np.eye(4))
    u = random_rotor(SIG13, rng)
    assert np.allclose(lorentz_matrix_of(u), lorentz_matrix_of(-u), atol=1e-12)


def test_lorentz_matrix_boost_oracle():
    phi = 0.62
    u = Rotor(exp_bivector(phi / 2 * geometric_product(gen(SIG13, 2), gen(SIG13, 1))))
    L = lorentz_matrix_of(u)
    expected = np.eye(4)
    expected[0, 0] = expected[1, 1] = math.cosh(phi)
    expected[0, 1] = expected[1, 0] = math.sinh(phi)
    assert np.max(np.abs(L - expected)) < 1e-12


def test_lorentz_matrix_preserves_metric_and_is_homomorphism():
    G = np.diag([1.0, -1.0, -1.0, -1.0])
    for _ in range(10):
        u = random_rotor(SIG13, rng)
        v = random_rotor(SIG13, rng)
        L = lorentz_matrix_of(u)
        assert np.max(np.abs(L @ G @ L.T - G)) < 1e-9
        assert abs(np.linalg.det(L) - 1.0) < 1e-9
        lhs = lorentz_matrix_of(u * v)
        rhs = lorentz_matrix_of(u) @ lorentz_matrix_of(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_frame_action_basics():
    f = fiducial_spinorial_frame(SIG13)
    one = Rotor(Multivector.scalar(SIG13, 1.0))
    assert frame_right_action(one, f) == f
    minus = Rotor(Multivector.scalar(SIG13, -1.0))
    flipped = frame_right_action(minus, f)
    assert flipped != f  # distinct spinorial frames
    for a, b in zip(flipped.frame.vectors, f.frame.vectors):
        assert (a - b).max_abs() == 0.0  # same vector frame


@pytest.mark.parametrize("pq", [(1, 3), (3, 0), (2, 2), (4, 1)])
def test_fiducial_spinorial_frame_is_built_once_per_signature(pq):
    sig = Signature(*pq)
    f = fiducial_spinorial_frame(sig)
    assert fiducial_spinorial_frame(Signature(*pq)) is f
    assert f == SpinorialFrame(Rotor(Multivector.scalar(sig, 1.0)))
    assert frame_bits(f) == [bits(e) for e in fiducial_frame(sig).vectors]


def test_frame_eq_and_hash_are_exact():
    u = exp_bivector(Multivector(SIG13, {0b0110: 0.7, 0b0011: 0.2}))
    a = spinorial_frame_of(Rotor(u))
    b = spinorial_frame_of(Rotor(u))
    assert a == b and hash(a) == hash(b)
    nudged = spinorial_frame_of(Rotor(u + Multivector.scalar(SIG13, 1e-14)))
    assert a != nudged
    assert spinorial_frame_of(-Rotor(u)) != a


def test_frame_action_composition():
    f = fiducial_spinorial_frame(SIG13)
    a = random_rotor(SIG13, rng)
    b = random_rotor(SIG13, rng)
    lhs = frame_right_action(a * b, f)
    rhs = frame_right_action(b, frame_right_action(a, f))
    assert (lhs.u.u - rhs.u.u).max_abs() < 1e-10
    for va, vb in zip(lhs.frame.vectors, rhs.frame.vectors):
        assert (va - vb).max_abs() < 1e-9


def test_frame_action_equivariance():
    f = spinorial_frame_of(random_rotor(SIG13, rng))
    a = random_rotor(SIG13, rng)
    moved = frame_right_action(a, f)
    ainv = a.inverse
    for got, old in zip(moved.frame.vectors, f.frame.vectors):
        expected = geometric_product(geometric_product(ainv, old), a.u)
        assert (got - expected).max_abs() < 1e-9


def test_spinorial_frame_of_round_trip():
    u = random_rotor(SIG13, rng)
    f = spinorial_frame_of(u)
    # u b_i u^{-1} recovers the fiducial vectors
    fid = fiducial_frame(SIG13)
    for b, e in zip(f.frame.vectors, fid.vectors):
        assert (adjoint(u, b) - e).max_abs() < 1e-10


def test_rotor_between_trivial():
    g0 = gen(SIG13, 1)
    r = rotor_between(g0, g0)
    assert (r.u - 1).max_abs() < 1e-12


def test_rotor_between_boost():
    g0, g1 = gen(SIG13, 1), gen(SIG13, 2)
    v = (g0 + 0.6 * g1) * (1.0 / 0.8)
    r = rotor_between(v, g0)
    assert (adjoint(r, g0) - v).max_abs() < 1e-10
    assert is_spin_e(r.u)


def test_rotor_between_spacelike():
    g1, g3 = gen(SIG13, 2), gen(SIG13, 4)
    r = rotor_between(g1, g3)
    assert (adjoint(r, g3) - g1).max_abs() < 1e-12
    assert is_spin_e(r.u)


def test_rotor_between_null_sum_rejected():
    g1 = gen(SIG13, 2)
    with pytest.raises(ValueError):
        rotor_between(g1, -g1)


def test_random_rotor_properties():
    for _ in range(10):
        u = random_rotor(SIG13, rng)
        assert all(g % 2 == 0 for g in u.u.grades())
        assert abs(complex(norm_N(u.u)) - 1.0) < 1e-10


@pytest.mark.parametrize("pq", [(1, 3), (3, 0), (4, 1), (3, 3)])
def test_negated_rotor_skips_the_check_it_already_passed(monkeypatch, pq):
    sig = Signature(*pq)
    local = np.random.default_rng(list(pq))
    for _ in range(5):
        u = Rotor(exp_bivector(random_bivector(sig, local)))
        # Negation is exact, so (-u)(-u~) is u u~ to the bit, key order included.
        uut = geometric_product(u.u, reversion(u.u))
        neg_uut = geometric_product(-u.u, reversion(-u.u))
        assert [(m, c.real.hex(), c.imag.hex()) for m, c in neg_uut.terms.items()] == [
            (m, c.real.hex(), c.imag.hex()) for m, c in uut.terms.items()
        ]
        with monkeypatch.context() as patch:
            patch.setattr(Rotor, "__post_init__", lambda self: pytest.fail("re-ran the rotor check"))
            minus = -u
        assert isinstance(minus, Rotor) and minus.u == -u.u and -minus == u


def ordered_bits(mv):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in mv.terms.items()]


@pytest.mark.parametrize("pq", [(1, 3), (3, 0), (4, 1), (3, 3)])
def test_rotor_keeps_the_reversion_its_check_computed(monkeypatch, pq):
    """u^{-1} is the reversion of u that the rotor check computed, kept at
    construction and negated with u, to the bit; equality, hashing and repr
    read u alone, and a frame derives its vectors from it."""
    sig = Signature(*pq)
    local = np.random.default_rng([7, *pq])
    for _ in range(5):
        u = Rotor(exp_bivector(random_bivector(sig, local)))
        twin = Rotor(Multivector(sig, u.u.terms))
        minus = -u
        for rotor in (u, twin, minus, -minus, copy.copy(u), pickle.loads(pickle.dumps(minus))):
            assert ordered_bits(rotor.inverse) == ordered_bits(reversion(rotor.u))
        assert twin == u and hash(twin) == hash(u) and minus != u
        assert repr(u) == f"Rotor(u={u.u!r})"
        with monkeypatch.context() as patch:
            patch.setattr(groups_module, "reversion", lambda a: pytest.fail("reversed u again"))
            assert ordered_bits((-u).inverse) == ordered_bits(-u.inverse)
            assert frame_bits(SpinorialFrame(u)) == [bits(b) for b in two_step_frame_vectors(u)]


# -- frame checks relative to their inputs ----------------------------------------------


# Unit boost directions, one with a rotation mixed in.
BOOST_PLANES = [{0b0011: 1.0}, {0b0101: 0.6, 0b1001: 0.8}, {0b1001: -0.8, 0b0101: 0.6}, {0b0011: 1.0, 0b0110: 0.4}]


@pytest.mark.parametrize("rapidity", [6.0, 8.0, 10.0, 12.0, 14.0])
@pytest.mark.parametrize("plane", BOOST_PLANES, ids=str)
def test_large_boosts_give_valid_frames(rapidity, plane):
    """The frame of a rapidity-14 boost has components near 6e5; its
    orthonormality holds to 1e-16 of |v||w| but only to 1e-4 absolutely."""
    u = Rotor(exp_bivector(Multivector(SIG13, {m: rapidity / 2 * c for m, c in plane.items()})))
    f = spinorial_frame_of(u)
    assert f.u is u
    moved = frame_right_action(u, fiducial_spinorial_frame(SIG13))
    assert moved == SpinorialFrame(u) and frame_bits(moved) == frame_bits(f)
    b0 = f.frame.vectors[0]
    assert (adjoint(u, b0) - gen(SIG13, 1)).max_abs() <= 1e-8 * b0.norm() ** 2


def test_relative_frame_checks_still_reject_wrong_frames():
    """At unit scale the checks reject what the absolute ones rejected, and
    the reported rapidity-10 rotor gives a frame."""
    fid = fiducial_frame(SIG13).vectors
    with pytest.raises(FrameError, match="g-orthonormal"):
        VectorFrame((fid[0] * (1 + 1e-9),) + fid[1:])
    u = Rotor(exp_bivector(Multivector(SIG13, {0b11: 5.0, 0b110: 0.3})))
    vectors = spinorial_frame_of(u).frame.vectors  # raised FrameError before
    with pytest.raises(FrameError, match="g-orthonormal"):
        VectorFrame((vectors[0] + 1e-3 * vectors[3],) + vectors[1:])


# Small turns: a rotation in e2e3 and in e3e4, a boost in e1e2.
TURNS = [{0b0110: 5e-7}, {0b1100: 5e-7}, {0b0011: 5e-7}]


@pytest.mark.parametrize("rapidity", [0.0, 1.0, 6.0, 8.0, 10.0, 12.0, 14.0])
@pytest.mark.parametrize("plane", BOOST_PLANES, ids=str)
def test_frame_checks_reject_errors_of_one_part_in_a_million(rapidity, plane):
    """The frame is the two-step oracle's to the bit, and a rotor turned by
    1e-6 gives a distinct frame, the one the frame action reaches, at any
    rapidity.  b_0 scaled by 1 + 1e-3 is not orthonormal up to rapidity 10;
    above that, b_0.b_0 rounds by about 1e-16 |b_0|^2, 1e-4 at rapidity 14,
    and only the rotor can tell; a frame with such a b_0 cannot be built
    from its rotor."""
    u = Rotor(exp_bivector(Multivector(SIG13, {m: rapidity / 2 * c for m, c in plane.items()})))
    f = spinorial_frame_of(u)
    b = f.frame.vectors
    assert frame_bits(f) == [bits(v) for v in two_step_frame_vectors(u)]
    for turn in TURNS:
        t = Rotor(exp_bivector(Multivector(SIG13, turn)))
        turned = spinorial_frame_of(u * t)
        assert turned != f and frame_right_action(t, f) == turned
    if rapidity <= 10.0:
        with pytest.raises(FrameError, match="g-orthonormal"):
            VectorFrame((b[0] * (1 + 1e-3),) + b[1:])


@pytest.mark.parametrize("pq", [(1, 3), (3, 1), (2, 2), (0, 4)])
def test_frames_of_rotors_within_rotor_tol_are_valid(pq):
    """u u~ = 1 + 9e-11 passes the rotor check, so its frame is valid too."""
    sig = Signature(*pq)
    u = exp_bivector(random_bivector(sig, np.random.default_rng(8)))
    slack = Rotor(u * math.sqrt(1 + 9e-11))
    assert (geometric_product(slack.u, reversion(slack.u)) - 1).max_abs() > 5e-11
    f = spinorial_frame_of(slack)
    assert frame_right_action(slack, fiducial_spinorial_frame(sig)) == f


# -- a frame is a function of its rotor ---------------------------------------------------


@pytest.mark.parametrize("pq", [(1, 3), (3, 0), (2, 2), (4, 1), (3, 3)])
def test_frame_vectors_and_actions_match_the_two_step_oracle(pq):
    sig = Signature(*pq)
    local = np.random.default_rng(list(pq))
    fid = fiducial_spinorial_frame(sig)
    for _ in range(5):
        u = random_rotor(sig, local)
        f = spinorial_frame_of(u)
        assert frame_bits(f) == [bits(b) for b in two_step_frame_vectors(u)]
        a = random_rotor(sig, local)
        # On the fiducial frame u = 1 a exactly, so the action gives
        # <a^{-1} E_i a>_1 to the bit.
        assert frame_bits(frame_right_action(a, fid)) == [bits(b) for b in two_step_frame_vectors(a)]
        moved, direct = frame_right_action(a, f), spinorial_frame_of(f.u * a)
        assert moved == direct and frame_bits(moved) == frame_bits(direct)


def test_rotor_whose_sandwich_is_not_a_vector_is_rejected():
    """In Cl(6,0), u = (1 + I)/sqrt(2) with I = e1...e6 has u u~ = 1, but
    u^{-1} e1 u = -I e1 has grade 5: no frame has that rotor, and Rotor
    refuses it."""
    sig = Signature(6, 0)
    pseudo = Multivector(sig, {0b111111: 1.0})
    u = (1 + pseudo) * (1 / math.sqrt(2))
    assert (geometric_product(u, reversion(u)) - 1).max_abs() < 1e-15
    pulled = geometric_product(geometric_product(reversion(u), gen(sig, 1)), u)
    assert (pulled + geometric_product(pseudo, gen(sig, 1))).max_abs() < 1e-15
    with pytest.raises(NotARotorError, match="vectors to vectors"):
        Rotor(u)


@pytest.mark.parametrize("pq", [(1, 3), (3, 0), (4, 1)])
def test_a_frame_takes_one_sandwich_per_vector(pq, request):
    """With n <= 5 a frame derives its vectors when they are first read, one
    sandwich each, and keeps them."""
    sig = Signature(*pq)
    u = random_rotor(sig, np.random.default_rng(3))
    products = request.getfixturevalue("geometric_products")
    f = spinorial_frame_of(u)
    assert len(products) == 0
    vectors = f.frame
    assert len(products) == 2 * sig.n
    assert f.frame is vectors and len(products) == 2 * sig.n


def test_a_rapidity_14_frame_derives_its_vectors_at_first_use():
    u = Rotor(exp_bivector(Multivector(SIG13, {0b0011: 7.0})))
    f = spinorial_frame_of(u)
    assert frame_bits(f) == [bits(b) for b in two_step_frame_vectors(u)]


def test_a_cl60_rotor_that_is_no_frame_raises_at_construction():
    """Above n = 5 Rotor checks u E_i u~ for each generator, so the element
    of test_rotor_whose_sandwich_is_not_a_vector_is_rejected raises at
    Rotor(u), before any frame is built, and a frame above n = 5 derives
    no vector until its frame is read."""
    sig = Signature(6, 0)
    with pytest.raises(NotARotorError, match="vectors to vectors"):
        Rotor((1 + Multivector(sig, {0b111111: 1.0})) * (1 / math.sqrt(2)))
    f = SpinorialFrame(random_rotor(sig, np.random.default_rng(6)))
    assert "frame" not in vars(f)
    assert len(f.frame.vectors) == 6


@pytest.mark.parametrize(
    "copy_of",
    [copy.copy, copy.deepcopy]
    + [lambda x, k=k: pickle.loads(pickle.dumps(x, protocol=k)) for k in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_frame_copies_restore_the_derived_vectors(copy_of, monkeypatch):
    local = np.random.default_rng(5)
    f = spinorial_frame_of(random_rotor(SIG13, local))
    d = random_regular_spinor(local, f)
    with monkeypatch.context() as patch:
        patch.setattr(SpinorialFrame, "__post_init__", lambda self: pytest.fail("re-derived the frame"))
        f_copy, d_copy = copy_of(f), copy_of(d)
    for c, value in ((f_copy, f), (d_copy, d)):
        assert c == value and hash(c) == hash(value)
    assert frame_bits(f_copy) == frame_bits(f) and frame_bits(d_copy.frame) == frame_bits(f)
