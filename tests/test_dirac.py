import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cliffspin import (
    ConstantPotential,
    Multivector,
    PlaneWaveDHSF,
    Rotor,
    Signature,
    asf_residual,
    bilinear_covariants,
    both_gauge,
    dhe_residual,
    exp_bivector,
    fiducial_spinorial_frame,
    geometric_product,
    left_gauge,
    matrix_column_at,
    matrix_dirac_residual,
    matrix_of,
    planewave_solution,
    random_rotor,
    right_gauge,
    scalar_product,
    spin_dirac_apply,
    spinorial_frame_of,
    zero_potential,
)
from cliffspin import dirac, multivector
from cliffspin.dirac import DiracError, asf_projector
from cliffspin.groups import NotARotorError, _from_fiducial, _to_fiducial, is_spin_e, rotor_between
from cliffspin.matrixrep import _first_column
from cliffspin.multivector import G5, SignatureMismatchError
from cliffspin.spinors import DHSRep
from finite_difference import spin_dirac_apply_fd
from frame_oracle import gamma_lower
from matrix_oracle import numpy_matrix_column_at, numpy_matrix_dirac_residual

rng = np.random.default_rng(4)

SIG13 = Signature(1, 3)
FID = fiducial_spinorial_frame(SIG13)


def gen(i):
    return Multivector.generator(SIG13, i)


def random_points(n):
    return [list(map(float, rng.uniform(-5, 5, size=4))) for _ in range(n)]


def random_even(scale=1.0):
    masks = [0b0000, 0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100, 0b1111]
    return Multivector(SIG13, {m: float(rng.uniform(-scale, scale)) for m in masks})


# -- derivative operator -----------------------------------------------------------------


def test_constant_field_annihilated():
    field = PlaneWaveDHSF(
        frame=FID, psi0=random_even(), p=Multivector.zero(SIG13), m=1.0, energy_sign=1
    )
    for x in random_points(3):
        assert spin_dirac_apply(field, x).max_abs() == 0.0


def test_rest_wave_derivative_closed_form():
    # psi = psi0 exp(-B m t): D psi = g^0 (-m) psi B = -m g0 psi B
    m = 1.3
    field = planewave_solution(m, (0.0, 0.0, 0.0))
    for x in random_points(3):
        psi = field.evaluate(x)
        got = spin_dirac_apply(field, x)
        expected = -m * geometric_product(
            gen(1), geometric_product(psi, old_phase_bivector(field))
        )
        assert (got - expected).max_abs() < 1e-12


def test_finite_difference_cross_check():
    worst = 0.0
    for _ in range(20):
        field = planewave_solution(
            float(rng.uniform(0.5, 2.0)),
            tuple(rng.uniform(-2, 2, size=3)),
            sign=int(rng.choice([1, -1])),
        )
        for x in random_points(3):
            a = spin_dirac_apply(field, x)
            b = spin_dirac_apply_fd(field.evaluate, x)
            scale = max(1.0, a.max_abs())
            worst = max(worst, (a - b).max_abs() / scale)
    assert worst < 1e-6


# -- plane-wave solutions -----------------------------------------------------------------


def test_rest_solution_is_identity_amplitude():
    field = planewave_solution(1.0, (0.0, 0.0, 0.0))
    assert (field.psi0 - 1).max_abs() < 1e-12
    field_neg = planewave_solution(1.0, (0.0, 0.0, 0.0), sign=-1)
    assert (field_neg.psi0 - G5).max_abs() < 1e-12


def test_bad_arguments_rejected():
    with pytest.raises(DiracError):
        planewave_solution(0.0, (0, 0, 0))
    with pytest.raises(DiracError):
        planewave_solution(-1.0, (0, 0, 0))
    with pytest.raises(DiracError):
        planewave_solution(1.0, (0, 0, 0), sign=2)
    with pytest.raises(DiracError):
        ConstantPotential(geometric_product(gen(1), gen(2)), 1.0)


def test_current_is_future_timelike_for_both_signs():
    for sign in (1, -1):
        field = planewave_solution(1.5, (0.4, -0.7, 1.1), sign=sign)
        c = bilinear_covariants(DHSRep(field.frame, field.psi0))
        # J = pi / m regardless of the energy sign
        pi = field.p if sign == 1 else field.p  # zero potential: p is kinetic
        expected = (1.0 / 1.5) * pi
        assert (c.J - expected).max_abs() < 1e-10
        assert c.J.coeff(0b0001).real > 0
        assert scalar_product(c.J, c.J) > 0


def test_three_formulations_agree_on_shell():
    worst = 0.0
    for _ in range(25):
        m = float(rng.uniform(0.5, 2.0))
        sp = rng.uniform(-1, 1, size=3) * (3 * m / math.sqrt(3))
        sign = int(rng.choice([1, -1]))
        field = planewave_solution(m, tuple(sp), sign=sign)
        for x in random_points(4):
            r1 = dhe_residual(field, None, m, x).max_abs()
            r2 = asf_residual(field, None, m, x).max_abs()
            r3 = float(np.max(np.abs(matrix_dirac_residual(field, None, m, x))))
            worst = max(worst, r1, r2, r3)
    assert worst < 1e-9


def test_off_shell_detected_by_all_three():
    m = 1.0
    field = planewave_solution(m, (0.3, -0.2, 0.5))
    m_wrong = 1.01 * m
    floor = math.inf
    for x in random_points(10):
        r1 = dhe_residual(field, None, m_wrong, x).max_abs()
        r2 = asf_residual(field, None, m_wrong, x).max_abs()
        r3 = float(np.max(np.abs(matrix_dirac_residual(field, None, m_wrong, x))))
        floor = min(floor, r1, r2, r3)
    assert floor > 1e-3


def test_matrix_column_phase():
    field = planewave_solution(1.0, (0.5, 0.0, 0.0))
    x0 = [0.0, 0.0, 0.0, 0.0]
    col0 = matrix_column_at(field, x0)
    x1 = [0.7, 0.0, 0.0, 0.0]
    theta = field.phase_at(x1)
    col1 = matrix_column_at(field, x1)
    assert np.max(np.abs(col1 - np.exp(-1j * theta) * col0)) < 1e-12


def test_constant_potential_solutions():
    A = Multivector(SIG13, {1: 0.2, 2: -0.1, 4: 0.05, 8: 0.3})
    pot = ConstantPotential(A, 0.7)
    for sign in (1, -1):
        field = planewave_solution(1.2, (0.4, 0.1, -0.6), sign=sign, pot=pot)
        for x in random_points(5):
            r1 = dhe_residual(field, pot, 1.2, x).max_abs()
            r3 = float(np.max(np.abs(matrix_dirac_residual(field, pot, 1.2, x))))
            assert max(r1, r3) < 1e-9
        # without the potential term the same field misses the shell
        assert dhe_residual(field, None, 1.2, [1.0, 0.5, -0.2, 0.3]).max_abs() > 1e-3


def test_three_forms_agree_over_charge_potential_sign_and_momentum():
    """On shell every form vanishes to 1e-13 of the equation's scale, with or
    without a constant potential.  Off shell the ideal-form residual is the
    operator-form residual times e e' g5, which is how the ideal form is
    derived."""
    local = np.random.default_rng(61)
    potentials = [
        Multivector(SIG13, {1 << mu: float(local.uniform(-1, 1)) for mu in range(4)})
        for _ in range(2)
    ]
    for q in (-1.5, -0.4, 0.0, 0.7, 2.0):
        for A in potentials:
            pot = ConstantPotential(A, q)
            for sign in (1, -1):
                for momentum in ((0.0, 0.0, 0.0), (0.3, -1.2, 0.5), (2.5, 0.1, -1.7)):
                    m = 0.9
                    field = planewave_solution(m, momentum, sign=sign, pot=pot)
                    amp = max(1.0, field.psi0.max_abs())
                    scale = amp * (m + sum(map(abs, momentum)) + abs(q) * A.max_abs())
                    x = [float(v) for v in local.uniform(-5, 5, size=4)]
                    residuals = (
                        dhe_residual(field, pot, m, x).max_abs(),
                        asf_residual(field, pot, m, x).max_abs(),
                        float(np.max(np.abs(matrix_dirac_residual(field, pot, m, x)))),
                    )
                    assert max(residuals) <= 1e-13 * scale, (q, sign, momentum, residuals)
                    off = dhe_residual(field, pot, 1.1 * m, x)
                    projected = geometric_product(
                        geometric_product(off, asf_projector(field.frame)), G5
                    )
                    ideal = asf_residual(field, pot, 1.1 * m, x)
                    assert ideal.max_abs() > 1e-3 * scale
                    assert (ideal - projected).max_abs() <= 1e-13 * scale


def test_zero_potential_helper():
    pot = zero_potential()
    field = planewave_solution(1.0, (0.1, 0.2, 0.3))
    x = [0.3, -0.2, 0.9, 0.1]
    a = dhe_residual(field, pot, 1.0, x)
    b = dhe_residual(field, None, 1.0, x)
    assert (a - b).max_abs() == 0.0


# -- gauge covariance ----------------------------------------------------------------------


def test_right_gauge_trivial_elements():
    field = planewave_solution(1.0, (0.2, 0.0, -0.4))
    one = Rotor(Multivector.scalar(SIG13, 1.0))
    assert right_gauge(field, one).psi0 == field.psi0
    minus = Rotor(Multivector.scalar(SIG13, -1.0))
    flipped = right_gauge(field, minus)
    assert (flipped.psi0 + field.psi0).max_abs() == 0.0
    c1 = bilinear_covariants(DHSRep(field.frame, field.psi0))
    c2 = bilinear_covariants(DHSRep(flipped.frame, flipped.psi0))
    assert (c1.J - c2.J).max_abs() < 1e-12


def test_right_gauge_residual_law():
    m = 1.1
    field = planewave_solution(m, (0.4, -0.3, 0.2))
    pot = ConstantPotential(Multivector(SIG13, {1: 0.1, 4: -0.2}), 0.5)
    off = 1.07 * m  # deliberately off shell so the residual is nonzero
    for _ in range(5):
        s = random_rotor(SIG13, rng)
        moved = right_gauge(field, s)
        for x in random_points(2):
            lhs = dhe_residual(moved, pot, off, x)
            rhs = geometric_product(dhe_residual(field, pot, off, x), s.inverse)
            assert (lhs - rhs).max_abs() < 1e-9


def test_right_gauge_covariants_invariant():
    field = planewave_solution(1.0, (0.3, 0.3, -0.1))
    c1 = bilinear_covariants(DHSRep(field.frame, field.psi0))
    for _ in range(5):
        moved = right_gauge(field, random_rotor(SIG13, rng))
        c2 = bilinear_covariants(DHSRep(moved.frame, moved.psi0))
        assert abs(c1.sigma - c2.sigma) < 1e-10
        assert abs(c1.omega - c2.omega) < 1e-10
        assert (c1.J - c2.J).max_abs() < 1e-9
        assert (c1.S - c2.S).max_abs() < 1e-9
        assert (c1.K - c2.K).max_abs() < 1e-9


def test_right_gauge_preserves_solutions():
    m = 0.9
    field = planewave_solution(m, (0.5, 0.1, 0.0))
    moved = right_gauge(field, random_rotor(SIG13, rng))
    for x in random_points(3):
        assert dhe_residual(moved, None, m, x).max_abs() < 1e-10
        assert asf_residual(moved, None, m, x).max_abs() < 1e-10


def test_left_gauge_residual_law():
    m = 1.3
    pot = ConstantPotential(Multivector(SIG13, {2: 0.3, 8: -0.1}), 0.4)
    field = planewave_solution(m, (0.2, -0.5, 0.1), pot=pot)
    off = 1.05 * m
    for _ in range(5):
        s = random_rotor(SIG13, rng)
        moved = left_gauge(field, s, pot)
        for x in random_points(2):
            lhs = dhe_residual(
                moved.field, moved.pot, off, x, left_rotor=moved.left_rotor
            )
            rhs = geometric_product(s.u, dhe_residual(field, pot, off, x))
            assert (lhs - rhs).max_abs() < 1e-9


def test_left_gauge_preserves_solutions():
    m = 1.3
    pot = ConstantPotential(Multivector(SIG13, {2: 0.3, 8: -0.1}), 0.4)
    field = planewave_solution(m, (0.2, -0.5, 0.1), pot=pot)
    moved = left_gauge(field, random_rotor(SIG13, rng), pot)
    for x in random_points(3):
        res = dhe_residual(moved.field, moved.pot, m, x, left_rotor=moved.left_rotor)
        assert res.max_abs() < 1e-9


def test_both_gauge_composes():
    m = 1.0
    pot = ConstantPotential(Multivector(SIG13, {1: 0.15}), 0.3)
    field = planewave_solution(m, (0.1, 0.4, -0.3), pot=pot)
    off = 1.04 * m
    s = random_rotor(SIG13, rng)
    combined = both_gauge(field, s, pot)
    stepwise = right_gauge(left_gauge(field, s, pot).field, s)
    assert (combined.field.psi0 - stepwise.psi0).max_abs() < 1e-12
    for x in random_points(3):
        lhs = dhe_residual(
            combined.field, combined.pot, off, x, left_rotor=combined.left_rotor
        )
        base = dhe_residual(field, pot, off, x)
        rhs = geometric_product(geometric_product(s.u, base), s.inverse)
        assert (lhs - rhs).max_abs() < 1e-9


def test_gauge_requires_connected_group():
    field = planewave_solution(1.0, (0.0, 0.0, 0.0))
    # an even unit element outside Spin^e does not exist in Cl(1,3) rotor form,
    # but a non-normalized rotor is rejected upstream by the Rotor constructor
    from cliffspin.groups import NotARotorError

    with pytest.raises(NotARotorError):
        right_gauge(field, Rotor(2.0 * Multivector.scalar(SIG13, 1.0)))


# -- the per-point code of the frame's own vectors, kept as the oracle --------------------
#
# Before the forms moved to the fiducial representative psi_0 = psi u~, a field
# evaluated psi(x) = psi0 (cos(theta) - s sin(theta) B) with its frame's B = g2 g1,
# and each form multiplied by the frame's own vectors and by its e e'.  In the
# fiducial frame the field's values equal these to the bit.  Their key order is not
# kept: psi_0(x) lists a_0's blades first, where the product listed them in the order
# its kernel met them, and every later value inherits that order.  In a moved frame
# the values differ in the last bits, by at most moved_bound.

EPS = 2.0**-52
# moved_bound's constant: over 400 right-gauged fields (random_rotor frames), at 5
# points each, the worst value of the field and its three forms reached 2.5.
K_MOVED = 16


def old_phase_bivector(field):
    return geometric_product(gamma_lower(field.frame, 2), gamma_lower(field.frame, 1))


def old_dirac_vector(field):
    coframe = [gen(mu + 1) * (1.0 if mu == 0 else -1.0) for mu in range(4)]
    return sum((c * g for c, g in zip(field._coefficients(), coframe)), Multivector.zero(SIG13))


def oracle_evaluate(field, x):
    theta = field.phase_at(x)
    rot = math.cos(theta) - field.energy_sign * math.sin(theta) * old_phase_bivector(field)
    return geometric_product(field.psi0, rot)


def oracle_point(field, x):
    psi = oracle_evaluate(field, x)
    psi_b = geometric_product(psi, old_phase_bivector(field))
    return psi, psi_b, geometric_product(old_dirac_vector(field), psi_b)


def oracle_partials(field, x):
    psi_b = oracle_point(field, x)[1]
    return [c * psi_b for c in field._coefficients()]


def oracle_dhe(field, pot, m, x, left_rotor=None):
    psi, psi_b, dpsi = oracle_point(field, x)
    if left_rotor is not None:
        v = geometric_product(left_rotor.u, old_dirac_vector(field))
        dpsi = geometric_product(geometric_product(v, left_rotor.inverse), psi_b)
    res = geometric_product(dpsi, old_phase_bivector(field)) - m * geometric_product(psi, gamma_lower(field.frame, 0))
    if pot is not None and pot.q_charge != 0.0:
        res = res + pot.q_charge * geometric_product(pot.A, psi)
    return res


def oracle_asf(field, pot, m, x):
    proj = old_projector(field.frame)
    psi, _, dpsi = oracle_point(field, x)
    phi = geometric_product(psi, proj)
    res = geometric_product(dpsi, proj) - m * geometric_product(phi, G5)
    if pot is not None and pot.q_charge != 0.0:
        res = res + pot.q_charge * geometric_product(geometric_product(pot.A, phi), G5)
    return res


def oracle_column(field, x):
    return np.array(_first_column(geometric_product(oracle_evaluate(field, x), field.frame.u.inverse)), dtype=complex)


def moved_bound(field, pot=None):
    """K_MOVED eps |u|^2 |a_0| (1 + m + |p| + |q| |A|): psi_0 u~ and the
    frame's vectors u~ E u are both of size |u|^2, and either way the
    rounding of the products scales with the field's amplitude a_0 = psi0 u~
    and the equation's coefficients, as in the benchmark's scale."""
    coeffs = 1.0 + field.m + sum(abs(c) for c in field.p._terms.values())
    if pot is not None:
        coeffs += abs(pot.q_charge) * sum(abs(c) for c in pot.A._terms.values())
    return K_MOVED * EPS * field.frame.u.u.norm() ** 2 * field._amplitude[0].norm() * coeffs


def value_bits(mv):
    """mv's stored values by blade, in blade order, and its realness."""
    return sorted(bits(mv)[0]), mv.real


def random_fiducial_field(local):
    """A plain, charged or left-gauged field in the fiducial frame, or one with
    a sparse amplitude; momentum components and potentials are often exactly
    zero, so columns and residuals have exact zeros."""
    kind = str(local.choice(["plain", "charged", "left", "sparse"]))
    m = float(local.uniform(0.3, 3.0))
    momentum = [0.0 if local.random() < 0.3 else float(v) for v in local.normal(size=3)]
    sign = int(local.choice([1, -1]))
    pot = ConstantPotential(
        Multivector(SIG13, {1 << mu: 0.0 if local.random() < 0.3 else float(local.normal()) for mu in range(4)}),
        float(local.uniform(0.2, 1.0)),
    ) if kind in ("charged", "left") else None
    field = planewave_solution(m, momentum, sign=sign, pot=pot)
    left = None
    if kind == "left":
        gauged = left_gauge(field, random_rotor(SIG13, local), pot)
        field, pot, left = gauged.field, gauged.pot, gauged.left_rotor
    elif kind == "sparse":
        psi0 = Multivector(SIG13, {int(b): float(local.normal()) for b in local.choice([0, 3, 5, 6, 9, 10, 12, 15], 2)})
        field = PlaneWaveDHSF(frame=FID, psi0=psi0, p=field.p, m=m, energy_sign=sign)
    return field, pot, left


def random_point(local):
    return [0.0 if local.random() < 0.2 else float(v) for v in local.uniform(-5, 5, size=4)]


def test_fiducial_fields_give_the_oracles_values_bit_for_bit():
    """Plain, charged, left-gauged and sparse fields in the fiducial frame:
    psi(x), its partials, D psi, the operator form with and without the left
    rotor, the ideal form and the matrix column and residual hold the oracle's
    values; only the key order moved (psi_0(x) lists a_0's blades first)."""
    local = np.random.default_rng(34)
    zero_entries = 0
    for _ in range(300):
        field, pot, left = random_fiducial_field(local)
        for k in range(3):
            x = random_point(local) if k else [0.0, 0.0, 0.0, 0.0]
            m = field.m * (1.0, 1.05, 0.0)[k]
            clear_point()
            psi = field._fiducial_at(x)
            a0 = field._amplitude[0]
            assert list(psi.terms)[: len(a0.terms)] == [b for b in a0.terms if b in psi.terms]
            pairs = [
                (field.evaluate(x), oracle_evaluate(field, x)),
                (spin_dirac_apply(field, x), oracle_point(field, x)[2]),
                (dhe_residual(field, pot, m, x), oracle_dhe(field, pot, m, x)),
                (dhe_residual(field, pot, m, x, left_rotor=left), oracle_dhe(field, pot, m, x, left)),
                (asf_residual(field, pot, m, x), oracle_asf(field, pot, m, x)),
                *zip(field.partials(x), oracle_partials(field, x)),
            ]
            for got, want in pairs:
                assert value_bits(got) == value_bits(want)
            col = matrix_column_at(field, x)
            assert col.tobytes() == oracle_column(field, x).tobytes()
            zero_entries += int(np.sum(col == 0))
            assert matrix_dirac_residual(field, pot, m, x).tobytes() == numpy_matrix_dirac_residual(field, pot, m, x).tobytes()
    assert zero_entries > 100


def random_moved_field(local):
    pot = ConstantPotential(Multivector(SIG13, {1 << mu: float(local.normal()) for mu in range(4)}), 0.5)
    m = float(local.uniform(0.3, 3.0))
    charged = bool(local.random() < 0.5)
    field = planewave_solution(m, local.normal(size=3), sign=int(local.choice([1, -1])), pot=pot if charged else None)
    return right_gauge(field, random_rotor(SIG13, local)), pot if charged else None


def test_moved_frames_are_within_k_eps_u2_of_the_oracle():
    """Right-gauged fields: every value of the field and its three forms lies
    within moved_bound of the oracle's, which rounds differently."""
    local = np.random.default_rng(35)
    for _ in range(100):
        field, pot = random_moved_field(local)
        bound = moved_bound(field, pot)
        for _ in range(3):
            x = random_point(local)
            m = field.m * float(local.choice([1.0, 1.05]))
            pairs = [
                (field.evaluate(x), oracle_evaluate(field, x)),
                (spin_dirac_apply(field, x), oracle_point(field, x)[2]),
                (dhe_residual(field, pot, m, x), oracle_dhe(field, pot, m, x)),
                (asf_residual(field, pot, m, x), oracle_asf(field, pot, m, x)),
                *zip(field.partials(x), oracle_partials(field, x)),
            ]
            for got, want in pairs:
                assert (got - want).max_abs() <= bound
            assert np.abs(matrix_column_at(field, x) - oracle_column(field, x)).max() <= bound


MAX_RAPIDITY = 14.0
BOOSTS = (0b0011, 0b0101, 0b1001)  # e1e2, e1e3, e1e4 square to +1
TURNS = (0b0110, 0b1010, 0b1100)  # e2e3, e2e4, e3e4 square to -1


def unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def rotors(draw):
    """exp(F) with F's boost part of rapidity up to MAX_RAPIDITY and a
    rotation of up to pi; a draw that Rotor rejects is no rotor."""
    direction = draw(st.tuples(unit(-1, 1), unit(-1, 1), unit(-1, 1)).filter(lambda d: math.hypot(*d) > 0.1))
    half = draw(unit(0, MAX_RAPIDITY)) / (2 * math.hypot(*direction))
    turn = draw(st.tuples(unit(-math.pi, math.pi), unit(-math.pi, math.pi), unit(-math.pi, math.pi)))
    F = {**dict(zip(BOOSTS, (half * d for d in direction))), **dict(zip(TURNS, (t / 2 for t in turn)))}
    try:
        return Rotor(exp_bivector(Multivector(SIG13, F)))
    except NotARotorError:
        reject()


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(rotors(), st.integers(0, 2**32 - 1))
def test_right_gauge_keeps_psi_0_and_maps_the_residuals_to_residual_times_s_inverse(s, seed):
    """psi_0(x) of right_gauge(f, s) is f's to the bit, since the gauged
    field keeps f's amplitude; its operator- and ideal-form residuals are
    f's times s^{-1}, up to 16 eps |s|^3 times moved_bound's size (the worst
    over 400 random draws reached 0.022 of these)."""
    local = np.random.default_rng(seed)
    pot = ConstantPotential(Multivector(SIG13, {1 << mu: float(local.normal()) for mu in range(4)}), 0.5)
    pot = pot if local.random() < 0.5 else None
    f = planewave_solution(float(local.uniform(0.3, 3.0)), local.normal(size=3), sign=int(local.choice([1, -1])), pot=pot)
    g = right_gauge(f, s)
    size = s.u.norm()
    for _ in range(2):
        x = random_point(local)
        assert value_bits(g._fiducial_at(x)) == value_bits(f._fiducial_at(x))
        m = f.m * float(local.choice([1.0, 1.05]))
        for form in (dhe_residual, asf_residual):
            want = geometric_product(form(f, pot, m, x), s.inverse)
            assert (form(g, pot, m, x) - want).max_abs() <= size**3 * moved_bound(f, pot)


# -- D psi = V (psi B): agreement with a four-product reference ---------------------------
#
# The reference rebuilds psi(x) and psi(x) B once per derivative index mu, with the
# parent's psi(x) and B (the oracle below), and sums gamma^mu d_mu psi over four
# products, as the residuals did before they used one vector V per field.  In the
# fiducial frame partials(x) computes the same floating-point expressions, so its
# coefficients must be equal.  The residuals sum the same terms in another order,
# so they agree within REL_BOUND * max(1, |reference|), 64 machine epsilons of a
# double; the worst seen over 20 points on each system below was 1.9e-15.  In a
# moved frame the field computes on psi_0 = psi u~ and multiplies by u last, so
# it agrees within moved_bound (below) instead.

REL_BOUND = 64 * np.finfo(float).eps

ETA = (1.0, -1.0, -1.0, -1.0)


def coordinate_coframe():
    return [gen(1), -gen(2), -gen(3), -gen(4)]


def reference_partial(field, mu, x):
    p_lower = ETA[mu] * field.p.coeff(1 << mu).real
    return -field.energy_sign * p_lower * geometric_product(
        oracle_evaluate(field, x), old_phase_bivector(field)
    )


def reference_dirac(field, x, coframe):
    out = Multivector.zero(SIG13)
    for mu in range(4):
        out = out + geometric_product(coframe[mu], reference_partial(field, mu, x))
    return out


def reference_dhe(field, pot, m, x, left_rotor=None):
    coframe = coordinate_coframe()
    if left_rotor is not None:
        s, sinv = left_rotor.u, left_rotor.inverse
        coframe = [geometric_product(geometric_product(s, g), sinv) for g in coframe]
    psi = oracle_evaluate(field, x)
    dpsi = reference_dirac(field, x, coframe)
    res = geometric_product(dpsi, old_phase_bivector(field)) - m * geometric_product(
        psi, gamma_lower(field.frame, 0)
    )
    if pot is not None and pot.q_charge != 0.0:
        res = res + pot.q_charge * geometric_product(pot.A, psi)
    return res


def reference_asf(field, pot, m, x):
    proj = old_projector(field.frame)
    phi = geometric_product(oracle_evaluate(field, x), proj)
    dphi = Multivector.zero(SIG13)
    for mu, g in enumerate(coordinate_coframe()):
        dphi = dphi + geometric_product(g, geometric_product(reference_partial(field, mu, x), proj))
    res = dphi - m * geometric_product(phi, G5)
    if pot is not None and pot.q_charge != 0.0:
        res = res + pot.q_charge * geometric_product(geometric_product(pot.A, phi), G5)
    return res


def exactness_systems():
    """(label, field, potential, left rotor) for plain, charged and gauged fields."""
    local = np.random.default_rng(2024)
    pot = ConstantPotential(Multivector(SIG13, {1: 0.2, 2: -0.1, 4: 0.05, 8: 0.3}), 0.7)
    out = []
    for sign in (1, -1):
        plain = planewave_solution(1.3, (0.4, -0.7, 0.2), sign=sign)
        charged = planewave_solution(0.8, (-0.3, 0.1, 0.6), sign=sign, pot=pot)
        out.append((f"plain{sign:+d}", plain, None, None))
        out.append((f"charged{sign:+d}", charged, pot, None))
        s = random_rotor(SIG13, local)
        out.append((f"right{sign:+d}", right_gauge(plain, s), None, None))
        for label, moved in (("left", left_gauge(charged, s, pot)), ("both", both_gauge(charged, s, pot))):
            out.append((f"{label}{sign:+d}", moved.field, moved.pot, moved.left_rotor))
    return out


def assert_close(got, ref, field=None):
    """Within REL_BOUND of ref, or within moved_bound for a field in a moved frame."""
    if field is not None and field.frame._rotor is not None:
        assert (got - ref).max_abs() <= moved_bound(field)
    else:
        assert (got - ref).max_abs() <= REL_BOUND * max(1.0, ref.max_abs())


def transported_coframe(s):
    sinv = s.inverse
    return [geometric_product(geometric_product(s.u, g), sinv) for g in coordinate_coframe()]


@pytest.mark.parametrize("label,field,pot,left_rotor", exactness_systems())
def test_shared_partials_match_per_index_reference_exactly(label, field, pot, left_rotor):
    local = np.random.default_rng(7)
    for _ in range(3):
        x = [float(v) for v in local.uniform(-5, 5, size=4)]
        want = [reference_partial(field, mu, x) for mu in range(4)]
        if field.frame._rotor is None:
            assert field.partials(x) == want
        else:
            for got, ref in zip(field.partials(x), want):
                assert_close(got, ref, field)


@pytest.mark.parametrize("label,field,pot,left_rotor", exactness_systems())
def test_linear_residuals_match_four_product_reference(label, field, pot, left_rotor):
    local = np.random.default_rng(7)
    m = field.m * 1.05  # off shell, so the residuals carry nonzero digits
    for _ in range(20):
        x = [float(v) for v in local.uniform(-5, 5, size=4)]
        assert_close(spin_dirac_apply(field, x), reference_dirac(field, x, coordinate_coframe()), field)
        assert_close(dhe_residual(field, pot, m, x), reference_dhe(field, pot, m, x), field)
        assert_close(
            dhe_residual(field, pot, m, x, left_rotor=left_rotor),
            reference_dhe(field, pot, m, x, left_rotor),
            field,
        )
        assert_close(asf_residual(field, pot, m, x), reference_asf(field, pot, m, x), field)
        assert not dhe_residual(field, pot, m, x).is_zero()


@pytest.mark.parametrize("label,field,pot,left_rotor", exactness_systems())
def test_spin_dirac_apply_on_transported_coframe(label, field, pot, left_rotor):
    s = left_rotor if left_rotor is not None else random_rotor(SIG13, np.random.default_rng(5))
    coframe = transported_coframe(s)
    local = np.random.default_rng(11)
    for _ in range(5):
        x = [float(v) for v in local.uniform(-5, 5, size=4)]
        dpsi = reference_dirac(field, x, coframe)
        # At m = 0 with no potential, dhe_residual(..., left_rotor=s) is
        # (D psi) g2 g1 with its own D psi = (s V s^{-1})(psi B).
        inside = dhe_residual(field, None, 0.0, x, left_rotor=s)
        assert_close(inside, geometric_product(dpsi, old_phase_bivector(field)), field)


# -- one point, three forms: psi(x), psi B and D psi are computed once per (field, x) ----


def clear_point():
    dirac._last_point = None


def fresh(residual, *args, **kwargs):
    """residual(*args, **kwargs) with nothing kept from an earlier point."""
    clear_point()
    return residual(*args, **kwargs)


THREE_FORMS = (dhe_residual, asf_residual, matrix_dirac_residual)


def outputs_bits(*outs):
    return [out.tobytes() if isinstance(out, np.ndarray) else bits(out) for out in outs]


@pytest.fixture
def evaluations(monkeypatch):
    """The x of every PlaneWaveDHSF._fiducial_at call, psi_0(x), from here on."""
    calls = []
    fiducial_at = PlaneWaveDHSF._fiducial_at

    def counting_fiducial_at(self, x):
        calls.append(x)
        return fiducial_at(self, x)

    monkeypatch.setattr(PlaneWaveDHSF, "_fiducial_at", counting_fiducial_at)
    return calls


@pytest.mark.parametrize("label,field,pot,left_rotor", exactness_systems())
def test_three_forms_at_one_point_evaluate_psi_once(label, field, pot, left_rotor, evaluations):
    x = [0.3, -1.2, 2.5, 0.7]
    clear_point()
    for residual in (
        lambda: dhe_residual(field, pot, field.m, x),
        lambda: dhe_residual(field, pot, field.m, x, left_rotor=left_rotor),
        lambda: asf_residual(field, pot, field.m, x),
        lambda: matrix_dirac_residual(field, pot, field.m, x),
        lambda: matrix_column_at(field, x),
        lambda: spin_dirac_apply(field, x),
        lambda: field.partials(x),
    ):
        before = len(evaluations)
        residual()
        assert len(evaluations) - before <= 1
    assert len(evaluations) == 1


@pytest.fixture
def products(monkeypatch):
    """The filter of every product from here on, one entry per product."""
    calls = []
    product = multivector._product
    monkeypatch.setattr(multivector, "_product", lambda a, b, keep=None: calls.append(keep) or product(a, b, keep))
    return calls


@pytest.mark.parametrize("label,field,pot,left_rotor", exactness_systems())
def test_partials_on_a_miss_compute_psi_b_alone_and_keep_nothing(label, field, pot, left_rotor, products):
    """partials reads the point slot as every other reader does: a miss
    computes psi_0(x), psi_0(x) E_2 E_1 and D psi_0 and keeps them.  In a
    moved frame partials and spin_dirac_apply each multiply by u.  (The
    name, kept so the test id stays stable, states an older mechanism.)"""
    x = [0.3, -1.2, 2.5, 0.7]
    moved = field.frame._rotor is not None
    field.evaluate(x)  # builds the per-field a_0
    clear_point()
    del products[:]
    # A miss: D psi_0 is the one product of the point, and the point is kept.
    got = field.partials(x)
    assert len(products) == 1 + moved and dirac._last_point[0] is field
    for d, want in zip(got, oracle_partials(field, x)):
        assert_close(d, want, field)
    # spin_dirac_apply then reads D psi_0 from the slot, and partials psi_0 E_2 E_1.
    del products[:]
    dpsi = spin_dirac_apply(field, x)
    assert [bits(d) for d in field.partials(x)] == [bits(d) for d in got]
    assert len(products) == 2 * moved
    assert_close(dpsi, oracle_point(field, x)[2], field)


def test_three_forms_at_one_point_take_at_most_nine_products(products):
    """Three products in the fiducial frame, seven in a moved one."""
    field = planewave_solution(1.3, (0.4, -0.7, 0.2))
    moved = right_gauge(field, random_rotor(SIG13, np.random.default_rng(6)))
    x = [0.3, -1.2, 2.5, 0.7]
    # The per-field values (a_0, P_0, V) are built at a first point.
    for fld in (field, moved):
        for residual in THREE_FORMS:
            residual(fld, None, fld.m, [1.0, 2.0, 3.0, 4.0])
    del products[:]
    for residual in THREE_FORMS:
        residual(field, None, field.m, x)
    # D psi_0 (1) and the ideal form's psi_0 P_0 and (D psi_0) P_0 (2); the
    # operator form's blades, g5 and the column take none.  9 when the forms
    # multiplied by the frame's vectors, 13 when each evaluated psi itself.
    assert len(products) == 3
    del products[:]
    for residual in THREE_FORMS:
        residual(moved, None, moved.m, x)
    # In a moved frame each form's two terms are multiplied by u.
    assert len(products) == 7


def test_point_slot_misses_for_another_field_with_the_same_amplitude():
    field = planewave_solution(1.3, (0.4, -0.7, 0.2))
    other = dataclasses.replace(field, p=1.5 * field.p)
    same = dataclasses.replace(field)
    x = [0.3, -1.2, 2.5, 0.7]
    for fld in (other, same):
        want = [fresh(r, fld, None, field.m, x) for r in THREE_FORMS]
        clear_point()
        dhe_residual(field, None, field.m, x)
        got = [r(fld, None, field.m, x) for r in THREE_FORMS]
        assert outputs_bits(*got) == outputs_bits(*want)
        assert dirac._last_point[0] is fld
    assert outputs_bits(dhe_residual(other, None, field.m, x)) != outputs_bits(
        fresh(dhe_residual, field, None, field.m, x)
    )


def test_point_slot_misses_at_another_point(evaluations):
    field = planewave_solution(1.3, (0.4, -0.7, 0.2))
    x, y = [0.3, -1.2, 2.5, 0.7], [0.3, -1.2, 2.5, 0.75]
    want = [fresh(r, field, None, field.m, y) for r in THREE_FORMS]
    clear_point()
    dhe_residual(field, None, field.m, x)
    del evaluations[:]
    got = [r(field, None, field.m, y) for r in THREE_FORMS]
    assert outputs_bits(*got) == outputs_bits(*want)
    assert evaluations == [tuple(y)]


def test_point_slot_hits_an_equal_point_in_any_sequence_type(evaluations):
    field = planewave_solution(1.3, (0.4, -0.7, 0.2))
    x = [0.3, -1.2, 2.5, 0.0]
    want = [fresh(r, field, None, field.m, x) for r in THREE_FORMS]
    del evaluations[:]
    # p.x skips zero coordinates, so -0.0 gives psi(x) to the bit.
    for point in (list(x), tuple(x), np.array(x), [0.3, -1.2, 2.5, -0.0]):
        got = [r(field, None, field.m, point) for r in THREE_FORMS]
        assert outputs_bits(*got) == outputs_bits(*want)
    assert evaluations == []


def test_nan_coordinate_raises_on_every_call():
    field = planewave_solution(1.3, (0.4, -0.7, 0.2))
    x = [0.3, -1.2, 2.5, 0.7]
    want = fresh(dhe_residual, field, None, field.m, x)
    bad = [0.3, float("nan"), 2.5, 0.7]
    for _ in range(3):
        for call in (
            lambda: dhe_residual(field, None, field.m, bad),
            lambda: asf_residual(field, None, field.m, bad),
            lambda: matrix_dirac_residual(field, None, field.m, bad),
            lambda: spin_dirac_apply(field, bad),
        ):
            with pytest.raises(ValueError, match="non-finite"):
                call()
    # The point before the NaN is still the one kept.
    assert dirac._last_point[0] is field and dirac._last_point[1] == tuple(x)
    assert bits(dhe_residual(field, None, field.m, x)) == bits(want)


def test_left_gauge_sequence_gives_the_values_of_fresh_points():
    pot = ConstantPotential(Multivector(SIG13, {1: 0.2, 2: -0.1, 4: 0.05, 8: 0.3}), 0.7)
    s = random_rotor(SIG13, np.random.default_rng(31))
    local = np.random.default_rng(32)
    for sign in (1, -1):
        base = planewave_solution(0.8, (-0.3, 0.1, 0.6), sign=sign, pot=pot)
        gauged = left_gauge(base, s, pot)
        for m in (base.m, 1.02 * base.m):
            x = [float(v) for v in local.uniform(-5, 5, size=4)]
            want = (
                fresh(dhe_residual, gauged.field, gauged.pot, m, x, left_rotor=s),
                fresh(asf_residual, base, pot, m, x),
                fresh(matrix_dirac_residual, base, pot, m, x),
            )
            clear_point()
            got = (
                dhe_residual(gauged.field, gauged.pot, m, x, left_rotor=s),
                asf_residual(base, pot, m, x),
                matrix_dirac_residual(base, pot, m, x),
            )
            assert outputs_bits(*got) == outputs_bits(*want)
            assert got[2].tobytes() == numpy_matrix_dirac_residual(base, pot, m, x).tobytes()
            assert_close(got[0], reference_dhe(gauged.field, gauged.pot, m, x, s))
            assert_close(got[1], reference_asf(base, pot, m, x))


@pytest.mark.parametrize("label,field,pot,left_rotor", exactness_systems())
def test_matrix_path_matches_the_numpy_loop_bit_for_bit(label, field, pot, left_rotor):
    local = np.random.default_rng(13)
    for k in range(20):
        x = [float(v) for v in local.uniform(-5, 5, size=4)]
        m = field.m if k % 2 else 1.05 * field.m
        assert matrix_column_at(field, x).tobytes() == numpy_matrix_column_at(field, x).tobytes()
        got = matrix_dirac_residual(field, pot, m, x)
        assert got.dtype == complex and got.shape == (4,)
        assert got.tobytes() == numpy_matrix_dirac_residual(field, pot, m, x).tobytes()


def test_matrix_path_matches_the_numpy_loop_where_entries_vanish():
    # At rest or along one axis the column has exact zeros, so the residual
    # has zero entries whose signs come from the order of operations.
    pot = ConstantPotential(Multivector(SIG13, {1: 0.2, 2: -0.1, 4: 0.05, 8: 0.3}), 0.7)
    for sign in (1, -1):
        for momentum in ((0.0, 0.0, 0.0), (0.4, 0.0, 0.0), (0.0, 0.0, 1.0)):
            for p in (None, pot):
                field = planewave_solution(1.3, momentum, sign=sign, pot=p)
                for x in ([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, -0.0, 0.0], [0.3, -1.2, 2.5, 0.7]):
                    for m in (1.3, 0.0, 1.4):
                        got = matrix_dirac_residual(field, p, m, x)
                        want = numpy_matrix_dirac_residual(field, p, m, x)
                        assert got.tobytes() == want.tobytes(), (momentum, x, m)


def test_matrix_column_is_the_first_column_of_the_fiducial_representative(products):
    field = right_gauge(planewave_solution(1.1, (0.2, 0.3, -0.4)), random_rotor(SIG13, rng))
    x = [0.5, -1.0, 2.0, 0.25]
    psi0 = field._fiducial_at(x)
    clear_point()
    del products[:]
    col = matrix_column_at(field, x)
    # psi_0(x) and D psi_0: the column itself takes no product by u^-1.
    assert len(products) == 1
    assert np.array_equal(col, matrix_of(psi0)[:, 0])
    assert np.abs(col - oracle_column(field, x)).max() <= moved_bound(field)


def test_momentum_from_another_algebra_is_rejected():
    field = planewave_solution(1.1, (0.2, 0.3, -0.4))
    for pq in ((3, 1), (1, 4), (4, 1)):
        other = Multivector(Signature(*pq), {1: 1.1, 2: 0.2})
        with pytest.raises(SignatureMismatchError, match=r"Cl\(1,3\)"):
            dataclasses.replace(field, p=other)


# -- per-field values: computed once, equal to the old per-point formulas ----------------


def old_phase_at(field, x):
    """The parent's phase: a validated vector x and scalar_product(p, x)."""
    xvec = Multivector(SIG13, {1 << mu: float(x[mu]) for mu in range(4) if x[mu] != 0.0})
    return complex(scalar_product(field.p, xvec)).real


def old_projector(frame):
    """The parent's asf_projector, whose 1 + v built Multivector.scalar(1)."""
    one = Multivector.scalar(SIG13, 1.0)
    g0, g3 = gamma_lower(frame, 0), gamma_lower(frame, 3)
    e = (g0 + one) * 0.5
    ep = (geometric_product(g3, g0) + one) * 0.5
    return geometric_product(e, ep)


def bits(mv):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in mv._terms.items()], mv.real


def phase_outcome(phase, field, x):
    try:
        return phase(field, x).hex()
    except ValueError as exc:
        return str(exc)


@st.composite
def phase_cases(draw):
    """A field (on shell, charged, gauged, or hand-made with p in any key
    order or huge) and points whose coordinates are often 0, -0.0,
    tiny, huge or not finite."""
    local = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["plain", "charged", "right", "left", "p order", "huge p"]))
    m = float(local.uniform(0.3, 3.0))
    momentum = [float(v) for v in local.normal(size=3) * 10.0 ** local.integers(-3, 3)]
    sign = int(local.choice([1, -1]))
    pot = ConstantPotential(Multivector(SIG13, {1 << mu: float(local.normal()) for mu in range(4)}), 0.6)
    field = planewave_solution(m, momentum, sign=sign, pot=pot if kind in ("charged", "left") else None)
    s = random_rotor(SIG13, local)
    if kind == "right":
        field = right_gauge(field, s)
    elif kind == "left":
        field = left_gauge(field, s, pot).field
    elif kind != "plain" and kind != "charged":
        masks = [int(v) for v in local.permutation([1, 2, 4, 8])[: int(local.integers(1, 5))]]
        values = local.normal(size=len(masks))
        if kind == "huge p":
            values = values * 1e300
        p = Multivector(SIG13, dict(zip(masks, values.tolist())))
        field = PlaneWaveDHSF(frame=spinorial_frame_of(s), psi0=s.u, p=p, m=m, energy_sign=sign)
    special = [0.0, -0.0, 0, 5e-324, -1e-310, 1e300, math.inf, math.nan]
    points = []
    for _ in range(4):
        x = [float(v) for v in local.uniform(-5, 5, size=4)]
        for mu in range(4):
            if local.random() < 0.3:
                x[mu] = special[int(local.integers(0, len(special) - 2 if local.random() < 0.8 else len(special)))]
        points.append(x)
    return field, points


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(phase_cases())
def test_per_field_values_match_the_old_per_point_formulas(case):
    field, points = case
    # asf_projector is u~ P_0 u, so in a moved frame it rounds apart from the
    # product of the frame's vectors (2.2 of these units at worst over 600
    # random_rotor frames).
    if field.frame._rotor is None:
        assert bits(asf_projector(field.frame)) == bits(old_projector(field.frame))
    else:
        gap = (asf_projector(field.frame) - old_projector(field.frame)).max_abs()
        assert gap <= K_MOVED * EPS * field.frame.u.u.norm() ** 2
    assert bits(dirac._fiducial_projector()) == bits(old_projector(FID))
    assert bits(field.dirac_vector) == bits(old_dirac_vector(field))
    assert field._amplitude is field._amplitude
    for x in points:
        want = phase_outcome(old_phase_at, field, x)
        assert phase_outcome(PlaneWaveDHSF.phase_at, field, x) == want
        if not all(map(math.isfinite, x)):
            assert want == "non-finite coefficient"


def test_right_gauge_keeps_the_amplitude_and_replace_computes_its_own():
    """A right gauge leaves psi u~ as it was, so the gauged field holds the
    field's own (a_0, a_0 E_2 E_1) and V; a field made by replace with the
    same frame is another class and computes its own psi0 u~."""
    field = planewave_solution(1.2, (0.3, -0.5, 0.1))
    s = random_rotor(SIG13, np.random.default_rng(12))
    moved = right_gauge(field, s)
    replaced = dataclasses.replace(field, frame=moved.frame)
    assert field.frame._rotor is None and field._amplitude[0] is field.psi0
    assert moved.frame._rotor == replaced.frame._rotor == geometric_product(field.frame.u.u, s.inverse)
    assert moved._amplitude is field._amplitude and moved.dirac_vector is field.dirac_vector
    # psi0 s~ (u s~)~ = psi0 u~ up to rounding of the size of moved_bound's.
    recomputed = geometric_product(moved.psi0, moved.frame.u.inverse)
    assert (recomputed - field.psi0).max_abs() <= moved_bound(field) * s.u.norm() ** 2
    assert replaced._amplitude[0] == geometric_product(replaced.psi0, moved.frame.u.inverse) != field.psi0
    assert (replaced._amplitude[0] - geometric_product(field.psi0, s.u)).max_abs() <= moved_bound(replaced)


def test_warm_right_gauged_fields_compile_no_kernel(monkeypatch):
    """A right-gauged field computes on its base field's amplitude, whose
    blades do not depend on the gauge, so once 30 fields have met the key
    patterns, 30 more compile no kernel at their points.  Recomputing a_0 as
    psi0' u'~ left rounding-level blades on masks that changed from field to
    field: the 30 later fields compiled 22 kernels (15 to 33 over seeds 1 to
    7).  A rare point still meets a pattern of its own, whatever the frame:
    x = 0 drops a_0 E_2 E_1 from psi_0(x), and D psi_0 can sum to an exact 0
    on a blade; seed 42's list has neither."""
    local = np.random.default_rng(42)
    # A cache of its own, so that no form the warm-up met is dropped for room.
    monkeypatch.setattr(multivector, "_FORMS", multivector._FormCache())

    def run_fields():
        for _ in range(30):
            field, pot = random_moved_field(local)
            for _ in range(3):
                x = random_point(local)
                dhe_residual(field, pot, field.m, x)
                asf_residual(field, pot, field.m, x)
                matrix_dirac_residual(field, pot, field.m, x)

    run_fields()
    compiled = []
    generate = multivector._generate_kernel
    monkeypatch.setattr(multivector, "_generate_kernel", lambda *key: compiled.append(key) or generate(*key))
    run_fields()
    assert compiled == []


# exp(F) for a boost of rapidity about 11.5 with a turn: Rotor accepts it, and
# is_spin_e refuses it, because it bounds the terms of u E_i u^{-1}, of size
# |u|^2 = 5.1e4, by the absolute ROTOR_TOL.
WIDE_GAUGE = {0b0011: 3.0, 0b0101: 3.5, 0b1001: -3.5, 0b0110: 0.7}


def test_gauge_maps_accept_a_large_rapidity_rotor():
    """Every Cl(1,3) Rotor is in Spin^e, so the gauge maps take one that
    is_spin_e refuses, and the gauged plane wave stays on shell within
    |s|^4 moved_bound = 16 eps |s|^4 |a_0| (1 + m + |p| + |q| |A|); at worst
    over the 5 points, both_gauge's residual reached 0.35 of these units
    and the others less than 0.002."""
    s = Rotor(exp_bivector(Multivector(SIG13, WIDE_GAUGE)))
    assert not is_spin_e(s.u)
    m = 1.3
    pot = ConstantPotential(Multivector(SIG13, {1: 0.2, 2: -0.1, 4: 0.05, 8: 0.3}), 0.7)
    field = planewave_solution(m, (0.4, -0.7, 0.2), pot=pot)
    bound = s.u.norm() ** 4 * moved_bound(field, pot)
    right = right_gauge(field, s)
    systems = [left_gauge(field, s, pot), both_gauge(field, s, pot)]
    local = np.random.default_rng(3)
    for _ in range(5):
        x = random_point(local)
        residuals = [dhe_residual(right, pot, m, x), asf_residual(right, pot, m, x)]
        residuals += [dhe_residual(g.field, g.pot, m, x, left_rotor=g.left_rotor) for g in systems]
        assert max(r.max_abs() for r in residuals) <= bound
        assert np.abs(matrix_dirac_residual(right, pot, m, x)).max() <= bound


# -- validation happens once: residuals at a new point construct nothing validated -----


@pytest.mark.parametrize("label,field,pot,left_rotor", exactness_systems())
def test_residuals_at_a_new_point_construct_no_validated_multivector(
    label, field, pot, left_rotor, validated_constructions
):
    for x in ([0.3, -1.2, 2.5, 0.7], [0.0, 4.0, -0.0, 1e-3]):
        dhe_residual(field, pot, field.m * 1.05, x)
        dhe_residual(field, pot, field.m, x, left_rotor=left_rotor)
        asf_residual(field, pot, field.m, x)
        matrix_dirac_residual(field, pot, field.m, x)
    assert validated_constructions == []
    planewave_solution(field.m, (0.1, 0.2, 0.3))  # builds its momentum through __init__
    assert len(validated_constructions) == 1


# -- real residuals are summed on floats, with the operator chain's bits ---------


def chain_residual(field, pot, m, terms):
    """t0 - m t1 + q t2 through the Multivector operators, each term first
    carried to the frame: the oracle of dirac._residual's float sum."""
    terms = [_from_fiducial(t, field.frame) for t in terms]
    res = terms[0] - m * terms[1]
    if len(terms) > 2:
        res = res + pot.q_charge * terms[2]
    return res


@pytest.fixture
def residual_sums(monkeypatch):
    """(dirac._residual's value, the chain's value) for every residual summed
    from here on."""
    calls = []
    residual = dirac._residual

    def paired(field, pot, m, terms):
        got = residual(field, pot, m, terms)
        calls.append((got, chain_residual(field, pot, m, terms)))
        return got

    monkeypatch.setattr(dirac, "_residual", paired)
    return calls


@pytest.mark.parametrize("label,field,pot,left_rotor", exactness_systems())
def test_real_residuals_are_the_operator_chain_bit_for_bit(label, field, pot, left_rotor, residual_sums):
    """Fiducial and moved frames, with and without charge, on and off the
    mass shell, with an int mass too."""
    for x in random_points(4) + [[0.0, 0.0, 0.0, 0.0]]:
        for m in (field.m, 1.05 * field.m, 2):
            dhe_residual(field, pot, m, x)
            dhe_residual(field, pot, m, x, left_rotor=left_rotor)
            asf_residual(field, pot, m, x)
    assert len(residual_sums) == 45
    for got, want in residual_sums:
        assert got.real and bits(got) == bits(want)


FIELD_AT_REST = planewave_solution(1.0, (0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "terms,m,q,keys",
    [
        # t0 = m t1 at e1: the chain's t0 - m t1 drops it, and q t2 adds it back last.
        (({1: 2.0, 2: 3.0}, {1: 1.0, 4: 1.0}, {1: 1.0, 8: 0.5}), 2.0, 0.5, [2, 4, 1, 8]),
        # t0 = m t1 at e1 with no charge: the key is dropped.
        (({1: 2.0, 2: 3.0}, {1: 1.0, 4: 1.0}), 2, None, [2, 4]),
        # m x underflows to 0 at e2 and q z at e8: neither adds its key.
        (({1: 1.0}, {2: 1e-300, 4: 0.5}, {8: 1e-300}), 1e-300, 1e-300, [1, 4]),
        # Values that cancel in the charge term.
        (({1: 1.0}, {2: 1.0}, {1: -2.0, 2: 4.0}), 1.0, 0.5, [2]),
    ],
)
def test_float_sum_keeps_the_chain_s_keys_and_bits(terms, m, q, keys):
    pot = None if q is None else ConstantPotential(gen(1), q)
    ts = [Multivector(SIG13, t) for t in terms]
    got = dirac._residual(FIELD_AT_REST, pot, m, ts)
    assert bits(got) == bits(chain_residual(FIELD_AT_REST, pot, m, ts))
    assert list(got._terms) == keys


@pytest.mark.parametrize(
    "terms,m,q",
    [
        (({1: 1.0}, {1: 1e300}), 1e300, None),  # m x overflows
        (({1: 1.7e308}, {1: -1.0}), 1e308, None),  # t0 - m x overflows
        (({1: 1.0}, {1: 1.0}, {2: 1e300}), 1.0, 1e300),  # q z overflows after a drop
    ],
)
def test_float_sum_raises_where_the_chain_does(terms, m, q):
    pot = None if q is None else ConstantPotential(gen(1), q)
    ts = [Multivector(SIG13, t) for t in terms]
    for residual in (dirac._residual, chain_residual):
        with pytest.raises(ValueError, match="^non-finite coefficient$"):
            residual(FIELD_AT_REST, pot, m, ts)


def test_off_shell_amplitudes_are_the_operator_chain_bit_for_bit(residual_sums):
    """A hand-made amplitude that solves no equation, in the fiducial and a
    moved frame, with and without charge."""
    psi0 = Multivector(SIG13, {0: 0.6, 0b0011: 0.3, 0b0110: -0.2, 0b1111: 0.1})
    pot = ConstantPotential(Multivector(SIG13, {1: 0.2, 2: -0.1, 4: 0.05, 8: 0.3}), 0.7)
    wave = planewave_solution(1.3, (0.4, -0.7, 0.2))
    s = random_rotor(SIG13, np.random.default_rng(38))
    for frame in (FID, spinorial_frame_of(s)):
        field = dataclasses.replace(wave, frame=frame, psi0=psi0)
        for x in random_points(3):
            for p in (None, pot):
                dhe_residual(field, p, field.m, x)
                asf_residual(field, p, field.m, x)
    assert len(residual_sums) == 24
    for got, want in residual_sums:
        assert got.real and bits(got) == bits(want)
        assert got.max_abs() > 0.1  # off shell: no term cancels to rounding


@pytest.fixture
def built_values(monkeypatch):
    """One entry per Multivector built from here on: through __init__, or
    through _trusted, which _own, the operators and the products end in."""
    calls = []
    init, trusted = Multivector.__init__, Multivector._trusted.__func__

    def counting_init(self, *args):
        calls.append("init")
        init(self, *args)

    def counting_trusted(cls, *args):
        calls.append("trusted")
        return trusted(cls, *args)

    monkeypatch.setattr(Multivector, "__init__", counting_init)
    monkeypatch.setattr(Multivector, "_trusted", classmethod(counting_trusted))
    return calls


@pytest.mark.parametrize("charged", [False, True])
def test_fiducial_residuals_build_one_value_past_their_terms(charged, built_values):
    """On a warm point the operator form builds its two or three terms and
    the ideal form its three or five values, and each sum builds one more.
    The operator chain built three values for the sum, five with charge."""
    pot = ConstantPotential(Multivector(SIG13, {1: 0.2, 2: -0.1, 4: 0.05, 8: 0.3}), 0.7) if charged else None
    field = planewave_solution(1.3, (0.4, -0.7, 0.2), pot=pot)
    x = [0.3, -1.2, 2.5, 0.7]
    for residual, most in ((dhe_residual, 3 + charged), (asf_residual, 4 + 2 * charged)):
        residual(field, pot, field.m, x)  # warms the point slot and P_0
        del built_values[:]
        residual(field, pot, field.m, x)
        assert 0 < len(built_values) <= most, residual.__name__


# -- the amplitude in closed form: rotor_between's bits, one product -------------------


def rotor_between_solution(m, spatial_momentum, sign=1, pot=None):
    """(psi0, p) as planewave_solution built them through rotor_between(v, E_0)
    and the product R G5: the oracle of the closed form."""
    p1, p2, p3 = (float(c) for c in spatial_momentum)
    p0 = math.sqrt(m * m + p1 * p1 + p2 * p2 + p3 * p3)
    pi = Multivector(SIG13, {1: p0, 2: p1, 4: p2, 8: p3})
    R = rotor_between((1.0 / m) * pi, gen(1))
    psi0 = R.u if sign == 1 else geometric_product(R.u, G5)
    p = pi if pot is None or pot.q_charge == 0.0 else pi - float(sign) * pot.q_charge * pot.A
    return psi0, p


def closed_form_cases(n=400):
    """(m, spatial momentum, sign, potential): both signs, charged and
    uncharged, zero and -0.0 components, |p|/m from 1e-3 to 1e3."""
    local = np.random.default_rng(44)
    cases = []
    for _ in range(n):
        m = float(10 ** local.uniform(-2, 2))
        ratio = float(10 ** local.uniform(-3, 3))
        direction = local.normal(size=3)
        momentum = [float(c) for c in direction / np.linalg.norm(direction) * m * ratio]
        for i in range(3):
            momentum[i] = [momentum[i], 0.0, -0.0][int(local.choice(3, p=[0.6, 0.2, 0.2]))]
        pot = None
        if local.uniform() < 0.5:
            A = Multivector(SIG13, dict(zip((1, 2, 4, 8), map(float, local.normal(size=4)))))
            pot = ConstantPotential(A, float(local.choice([0.0, local.normal()])))
        cases.append((m, tuple(momentum), int(local.choice([1, -1])), pot))
    return cases


def test_closed_form_amplitude_is_rotor_between_s_to_the_bit():
    for m, momentum, sign, pot in closed_form_cases():
        field = planewave_solution(m, momentum, sign=sign, pot=pot)
        psi0, p = rotor_between_solution(m, momentum, sign, pot)
        assert bits(field.psi0) == bits(psi0) and bits(field.p) == bits(p), (m, momentum, sign)


@pytest.mark.parametrize("charged", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_plane_wave_solution_takes_one_product(sign, charged, products):
    """Rotor's u u~ check is the one product; R g5 is a signed permutation.
    The fiducial frame is warm: FID built it at import."""
    pot = ConstantPotential(Multivector(SIG13, {1: 0.2, 2: -0.1}), 0.7) if charged else None
    planewave_solution(1.3, (0.4, -0.7, 0.2), sign=sign, pot=pot)
    assert len(products) == 1


def test_left_gauge_keeps_v_and_computes_its_own_amplitude():
    """V depends on p and the energy sign alone, so a left-gauged field holds
    the field's own V; its amplitude psi0' u~ is new and computed on use."""
    s = random_rotor(SIG13, np.random.default_rng(13))
    for field in (
        planewave_solution(1.2, (0.3, -0.5, 0.1)),
        right_gauge(planewave_solution(0.8, (-0.2, 0.6, 0.4), sign=-1), s),
    ):
        moved = left_gauge(field, s).field
        assert moved.dirac_vector is field.dirac_vector
        assert moved.dirac_vector == dataclasses.replace(moved).dirac_vector
        assert "_amplitude" not in vars(moved)
        assert moved._amplitude is not field._amplitude
        assert moved._amplitude[0] == _to_fiducial(moved.psi0, moved.frame)


BOOST_DIRECTIONS = [(1.0, 0.0, 0.0), (1e4, 3e3, -2e3)]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("direction", BOOST_DIRECTIONS, ids=["x", "oblique"])
@pytest.mark.parametrize("k", range(7))
def test_boosts_up_to_a_million_masses_build_and_solve(k, direction, sign):
    """|p|/m = 10^k builds: rotor_between's absolute unit check refused
    1e4 and 1e5 along x, and 1e4 to 1e6 along the oblique direction, by
    cancellation in v.v.  The operator residual stays within 16 eps
    |psi0|^2 (m + |p|_1)."""
    m = 0.7
    norm = math.sqrt(sum(c * c for c in direction))
    field = planewave_solution(m, [10.0**k * m * c / norm for c in direction], sign=sign)
    scale = 16 * EPS * field.psi0.max_abs() ** 2 * (m + sum(abs(c) for c in field.p._terms.values()))
    for x in ([0.3, -1.2, 2.5, 0.7], [0.0, 0.0, 0.0, 0.0], [1e-3, 2.0, -0.5, 0.1]):
        assert dhe_residual(field, None, m, x).max_abs() <= scale


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("px", [1e4, 1e5])
def test_rotor_between_builds_large_boosts_with_the_closed_form_s_bits(px, sign):
    """rotor_between's unit checks are relative to the squared terms of v.v,
    so at m = 1 it builds p = (1e4, 0, 0) and (1e5, 0, 0), which its absolute
    check refused by cancellation, and gives planewave_solution's amplitude."""
    field = planewave_solution(1.0, (px, 0.0, 0.0), sign=sign)
    psi0, p = rotor_between_solution(1.0, (px, 0.0, 0.0), sign)
    assert bits(field.psi0) == bits(psi0) and bits(field.p) == bits(p)


def test_the_boost_is_bounded_by_the_rotor_check_alone():
    assert planewave_solution(1.0, (1e4, 3e3, -2e3)).p.coeff(2) == 1e4
    with pytest.raises(NotARotorError, match="u \\* reversion\\(u\\) = 1"):
        planewave_solution(1.0, (3e6, 0.0, 0.0))
