import math

import numpy as np
import pytest

from cliffspin import (
    Multivector,
    Rotor,
    Signature,
    as_from_dhs,
    bilinear_covariants,
    canonical_decompose,
    canonical_reconstruct,
    change_frame,
    dhs_from_as,
    fiducial_spinorial_frame,
    fierz_residuals,
    geometric_product,
    mother_spinor_assemble,
    mother_spinor_expand,
    random_regular_spinor,
    random_rotor,
    recover_from_covariants,
    reversion,
    scalar_product,
    spinorial_frame_of,
)
from cliffspin.spinors import (
    ASRep,
    BilinearCovariants,
    DHSRep,
    SingularSpinorError,
    SpinorValueError,
    exp_beta_gamma5,
    frame_idempotent,
    gamma5,
    gamma_upper,
    is_regular,
)

rng = np.random.default_rng(2)

SIG13 = Signature(1, 3)
FID = fiducial_spinorial_frame(SIG13)


def gen(i):
    return Multivector.generator(SIG13, i)


def one():
    return Multivector.scalar(SIG13, 1.0)


# -- representations and frame changes ---------------------------------------------


def test_dhs_requires_even():
    with pytest.raises(SpinorValueError):
        DHSRep(FID, gen(1))


def test_change_frame_identity_and_round_trip():
    d = random_regular_spinor(rng)
    assert change_frame(d, d.frame).psi == d.psi
    target = spinorial_frame_of(random_rotor(SIG13, rng))
    back = change_frame(change_frame(d, target), d.frame)
    assert (back.psi - d.psi).max_abs() < 1e-10


def test_change_frame_sign_memory():
    d = random_regular_spinor(rng)
    minus = spinorial_frame_of(Rotor(-d.frame.u.u))
    d2 = change_frame(d, minus)
    assert (d2.psi + d.psi).max_abs() < 1e-12


def test_as_from_dhs_and_back():
    d = DHSRep(FID, one())
    a = as_from_dhs(d)
    expected = (1 + gen(1)) * 0.5
    assert (a.element - expected).max_abs() == 0.0
    for _ in range(10):
        d = random_regular_spinor(rng)
        back = dhs_from_as(as_from_dhs(d))
        assert (back.psi - d.psi).max_abs() < 1e-12


def test_as_transport_commutes_with_frame_change():
    d = random_regular_spinor(rng)
    target = spinorial_frame_of(random_rotor(SIG13, rng))
    a1 = as_from_dhs(change_frame(d, target))
    a2 = change_frame(as_from_dhs(d), target)
    assert (a1.element - a2.element).max_abs() < 1e-10


def test_representative_linear_structure():
    d1 = random_regular_spinor(rng)
    d2 = DHSRep(d1.frame, random_regular_spinor(rng).psi)
    target = spinorial_frame_of(random_rotor(SIG13, rng))
    s = DHSRep(d1.frame, d1.psi + 2.0 * d2.psi)
    moved = change_frame(s, target)
    expected = change_frame(d1, target).psi + 2.0 * change_frame(d2, target).psi
    assert (moved.psi - expected).max_abs() < 1e-10


# -- covariants ----------------------------------------------------------------------


def test_covariants_of_unit_spinor():
    c = bilinear_covariants(DHSRep(FID, one()))
    assert c.sigma == 1.0 and c.omega == 0.0
    assert c.J == gamma_upper(FID, 0)
    assert (c.S - geometric_product(gamma_upper(FID, 1), gamma_upper(FID, 2))).max_abs() == 0.0
    assert c.K == gamma_upper(FID, 3)


def test_covariants_scaling_law():
    R = random_rotor(SIG13, rng)
    c = bilinear_covariants(DHSRep(FID, 2.0 * R.u))
    assert abs(c.sigma - 4.0) < 1e-12
    assert abs(c.omega) < 1e-12
    expected_J = 4.0 * geometric_product(
        geometric_product(R.u, gamma_upper(FID, 0)), reversion(R.u)
    )
    assert (c.J - expected_J.grade(1)).max_abs() < 1e-12


def singular_psi():
    # (1 + e1e4)(1 + e3e2)/2 has psi * reversion(psi) = 0 exactly
    return geometric_product(
        (1 + geometric_product(gen(1), gen(4))) * 0.5,
        1 + geometric_product(gen(3), gen(2)),
    )


def test_singular_spinor_detected():
    psi = singular_psi()
    assert not psi.is_zero()
    d = DHSRep(FID, psi)
    assert not is_regular(d)
    agg = geometric_product(psi, reversion(psi))
    assert agg.scalar_part() == 0.0 and agg.coeff(0b1111) == 0.0
    with pytest.raises(SingularSpinorError):
        canonical_decompose(d)
    c = bilinear_covariants(d)
    with pytest.raises(SingularSpinorError):
        recover_from_covariants(c, FID)


def test_frame_covariance_of_aggregates():
    worst = 0.0
    for _ in range(25):
        d = random_regular_spinor(rng)
        target = spinorial_frame_of(random_rotor(SIG13, rng))
        c1 = bilinear_covariants(d)
        c2 = bilinear_covariants(change_frame(d, target))
        worst = max(
            worst,
            abs(c1.sigma - c2.sigma),
            abs(c1.omega - c2.omega),
            (c1.J - c2.J).max_abs(),
            (c1.S - c2.S).max_abs(),
            (c1.K - c2.K).max_abs(),
        )
    assert worst < 1e-10


# -- identity suite -------------------------------------------------------------------


def test_identities_unit_spinor():
    c = bilinear_covariants(DHSRep(FID, one()))
    assert abs(scalar_product(c.J, c.J) - 1.0) < 1e-15
    assert abs(scalar_product(c.K, c.K) + 1.0) < 1e-15
    res = fierz_residuals(c)
    for name, r in res.items():
        assert r < 1e-12, name


def test_identity_suite_random_spinors():
    local = np.random.default_rng(11)
    for _ in range(200):
        d = random_regular_spinor(local)
        res = fierz_residuals(bilinear_covariants(d))
        for name, r in res.items():
            assert r <= 1e-9, (name, r)


def test_explicit_quadratic_invariants():
    d = random_regular_spinor(rng)
    c = bilinear_covariants(d)
    from cliffspin import hodge_dual

    assert abs(scalar_product(c.S, c.S) - (c.sigma**2 - c.omega**2)) < 1e-10
    assert abs(scalar_product(hodge_dual(c.S), c.S) - 2 * c.sigma * c.omega) < 1e-10


def test_identity_suite_holds_on_singular_spinor():
    # J.J = 0 here, and every identity, S (K S K) = (J.J)^2 included, still
    # holds (tests/test_fierz_proof.py proves them for every spinor).
    res = fierz_residuals(bilinear_covariants(DHSRep(FID, singular_psi())))
    assert len(res) == 16
    for name, r in res.items():
        assert math.isfinite(r) and r <= 1e-12, (name, r)


def test_regularity_is_scale_relative():
    d = random_regular_spinor(np.random.default_rng(5))
    tiny = DHSRep(FID, 1e-6 * d.psi)
    assert is_regular(tiny)
    f = canonical_decompose(tiny)
    assert abs(f.rho / canonical_decompose(d).rho - 1e-12) < 1e-21
    back = canonical_reconstruct(f, FID)
    assert (back.psi - tiny.psi).max_abs() < 1e-12 * tiny.psi.max_abs()
    c = bilinear_covariants(tiny)
    rec = bilinear_covariants(recover_from_covariants(c, FID))
    assert abs(rec.sigma - c.sigma) + abs(rec.omega - c.omega) < 1e-9 * f.rho
    singular = DHSRep(FID, 1e-6 * singular_psi())
    assert not is_regular(singular)
    with pytest.raises(SingularSpinorError):
        canonical_decompose(singular)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_covariant_and_ideal_checks_are_scale_relative(scale):
    d = DHSRep(FID, scale * random_regular_spinor(np.random.default_rng(6)).psi)
    c = bilinear_covariants(d)
    BilinearCovariants(c.sigma, c.omega, c.J, c.S, c.K)
    # J and K swapped: J.J = -(sigma^2 + omega^2) and J.K = 0, at any scale.
    with pytest.raises(SpinorValueError, match="J.J"):
        BilinearCovariants(c.sigma, c.omega, c.K, c.S, c.J)
    # A timelike K makes J.K != 0 while J.J still holds.
    with pytest.raises(SpinorValueError, match="J.K"):
        BilinearCovariants(c.sigma, c.omega, c.J, c.S, c.J)
    # J is of order scale^2: below 1e-9 at scale 1e-6, yet not in the ideal.
    ASRep(FID, as_from_dhs(d).element)
    ASRep(FID, geometric_product(c.J, frame_idempotent(FID)))
    with pytest.raises(SpinorValueError, match="left ideal"):
        ASRep(FID, c.J)


# -- canonical decomposition -----------------------------------------------------------


def test_decompose_scalar():
    f = canonical_decompose(DHSRep(FID, Multivector.scalar(SIG13, 2.0)))
    assert abs(f.rho - 4.0) < 1e-12
    assert abs(f.beta) < 1e-12
    assert (f.R.u - 1).max_abs() < 1e-12


def test_decompose_duality_rotation():
    R = random_rotor(SIG13, rng)
    psi = geometric_product(exp_beta_gamma5(0.3), R.u)
    f = canonical_decompose(DHSRep(FID, psi))
    assert abs(f.rho - 1.0) < 1e-10
    assert abs(f.beta - 0.6) < 1e-10


def test_decompose_round_trip_and_current():
    local = np.random.default_rng(5)
    for _ in range(200):
        d = random_regular_spinor(local)
        f = canonical_decompose(d)
        assert f.rho > 0
        assert -math.pi < f.beta <= math.pi
        rec = canonical_reconstruct(f, d.frame)
        assert (rec.psi - d.psi).max_abs() < 1e-10
        c = bilinear_covariants(d)
        J_expected = f.rho * geometric_product(
            geometric_product(f.R.u, gamma_upper(d.frame, 0)), reversion(f.R.u)
        )
        assert (c.J - J_expected.grade(1)).max_abs() < 1e-9


# -- mother spinors ---------------------------------------------------------------------


def test_mother_spinor_basis_coefficients():
    from cliffspin.spinors import mother_spinor_basis

    basis = mother_spinor_basis(FID)
    a1 = as_from_dhs(DHSRep(FID, one()))
    assert (a1.element - basis[0]).max_abs() == 0.0
    coeffs = np.asarray(mother_spinor_expand(a1))
    assert np.allclose(coeffs, [(1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)], atol=1e-12)
    from cliffspin.spinors import ASRep

    phi2 = ASRep(FID, basis[1])
    coeffs2 = np.asarray(mother_spinor_expand(phi2))
    assert np.allclose(coeffs2, [(0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (0.0, 0.0)], atol=1e-12)


def test_mother_spinor_round_trip():
    for _ in range(10):
        d = random_regular_spinor(rng)
        a = as_from_dhs(d)
        coeffs = mother_spinor_expand(a)
        back = mother_spinor_assemble(coeffs, FID)
        assert (back.element - a.element).max_abs() < 1e-10


# -- recovery -----------------------------------------------------------------------------


def test_recover_trivial():
    c = bilinear_covariants(DHSRep(FID, one()))
    rec = recover_from_covariants(c, FID)
    c2 = bilinear_covariants(rec)
    assert abs(c2.sigma - 1.0) < 1e-10 and abs(c2.omega) < 1e-10
    assert (c2.J - c.J).max_abs() < 1e-10


def test_recover_random_round_trip():
    local = np.random.default_rng(9)
    for _ in range(100):
        d = random_regular_spinor(local)
        c = bilinear_covariants(d)
        rec = recover_from_covariants(c, d.frame)
        c2 = bilinear_covariants(rec)
        assert abs(c2.sigma - c.sigma) < 1e-8
        assert abs(c2.omega - c.omega) < 1e-8
        assert (c2.J - c.J).max_abs() < 1e-8
        assert (c2.S - c.S).max_abs() < 1e-8
        assert (c2.K - c.K).max_abs() < 1e-8
        agg = geometric_product(rec.psi, reversion(rec.psi))
        assert abs(agg.scalar_part().real - c.sigma) < 1e-8
        assert abs(-agg.coeff(0b1111).real - c.omega) < 1e-8


def test_recover_antipodal_direction():
    # rotate g3 to -g3 so the single-plane construction degenerates
    psi = geometric_product(gen(2), gen(4))  # a half-turn in the 1-3 plane
    d = DHSRep(FID, psi)
    c = bilinear_covariants(d)
    assert (c.K + gamma_upper(FID, 3)).max_abs() < 1e-12
    rec = recover_from_covariants(c, FID)
    c2 = bilinear_covariants(rec)
    assert (c2.K - c.K).max_abs() < 1e-8
    assert (c2.J - c.J).max_abs() < 1e-8
    assert (c2.S - c.S).max_abs() < 1e-8


def covariant_gap(got, want):
    def rel(x, y):
        return (x - y).max_abs() / max(1.0, y.max_abs())

    return max(
        abs(got.sigma - want.sigma) / max(1.0, abs(want.sigma)),
        abs(got.omega - want.omega) / max(1.0, abs(want.omega)),
        rel(got.J, want.J),
        rel(got.S, want.S),
        rel(got.K, want.K),
    )


def test_recover_keeps_digits_in_random_frames():
    # A one-plane rotor that turns K's rest-frame direction onto g3 from the
    # far hemisphere loses digits; seed 11 reaches such a spinor early.
    local = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        frame = spinorial_frame_of(random_rotor(SIG13, local))
        c = bilinear_covariants(random_regular_spinor(local, frame))
        worst = max(worst, covariant_gap(bilinear_covariants(recover_from_covariants(c, frame)), c))
    assert worst < 1e-13


def test_recovery_phase_freedom():
    # recovered representative differs from the source by a right phase factor
    d = random_regular_spinor(rng)
    c = bilinear_covariants(d)
    rec = recover_from_covariants(c, d.frame)
    f1 = canonical_decompose(d)
    f2 = canonical_decompose(rec)
    shift = geometric_product(reversion(f2.R.u), f1.R.u)
    # shift must be a rotation in the g2 g1 plane: exp(g2 g1 phi)
    g21 = geometric_product(gamma_upper(d.frame, 2), gamma_upper(d.frame, 1))
    phi = math.atan2(scalar_product(shift.grade(2), g21), shift.scalar_part().real)
    expected = math.cos(phi) + math.sin(phi) * g21
    assert (shift - expected).max_abs() < 1e-8
