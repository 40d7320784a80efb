"""The class laws of Dirac-Hestenes spinors, over random rotors.

A DHSF is an equivalence class of pairs (Xi_u, psi_u), with psi_u' = psi_u
u^{-1} u' (``change_frame``).  So its covariants belong to the class, frame
changes compose, the algebraic representative moves with the operator one,
and the spinor recovered from the covariants in any frame has those
covariants.  Each law is checked up to the rounding of the products that
state it: a bound of a few machine epsilons times the norms of their
factors, which a wrong sign or frame misses by orders of magnitude.

The frames are exp(F) for a bivector F of boost rapidity up to
``MAX_RAPIDITY``, with a rotation of up to pi; a draw that ``Rotor`` rejects
(|u u~ - 1| above the absolute ``ROTOR_TOL``, which rounding reaches near
rapidity 14) is no frame and is discarded.  A class is drawn by its
fiducial representative psi_0 = rho^{1/2} e^{beta g5 / 2} R, and stands in
frame u as psi_0 u.  Singular classes are drawn as psi_0 = a (1 + n)/2 for
a Gaussian even a and a unit n = n_k sigma_k of the even subalgebra, with
sigma_k = E_k E_0: dipoles (S = 0) for n = sigma3, flag-dipoles otherwise.

The covariants and the recovery as they were computed before they moved to
the fiducial representative, with products by the frame's derived vectors,
are kept here as oracles.
"""

import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from cliffspin import (
    ConstantPotential,
    Multivector,
    PlaneWaveDHSF,
    Rotor,
    Signature,
    as_from_dhs,
    asf_residual,
    bilinear_covariants,
    both_gauge,
    change_frame,
    dhe_residual,
    exp_bivector,
    fiducial_spinorial_frame,
    fierz_residuals,
    geometric_product,
    left_gauge,
    matrix_dirac_residual,
    mother_spinor_assemble,
    mother_spinor_expand,
    planewave_solution,
    random_regular_spinor,
    random_rotor,
    recover_from_covariants,
    reversion,
    right_gauge,
    scalar_product,
    spin_dirac_apply,
    spinorial_frame_of,
)
from cliffspin.dirac import asf_projector
from cliffspin.groups import NotARotorError, rotor_between
from cliffspin.multivector import _product_loop, inverse
from cliffspin.spinors import (
    ASRep,
    BilinearCovariants,
    DHSRep,
    SingularSpinorError,
    SpinorValueError,
    _regular,
    _sigma_omega,
    exp_beta_gamma5,
    mother_spinor_basis,
)
from frame_oracle import gamma_upper

SIG13 = Signature(1, 3)
FID = fiducial_spinorial_frame(SIG13)
EPS = 2.0**-52
MAX_RAPIDITY = 14.0
BOOSTS = (0b0011, 0b0101, 0b1001)  # e1e2, e1e3, e1e4 square to +1
TURNS = (0b0110, 0b1010, 0b1100)  # e2e3, e2e4, e3e4 square to -1


# -- oracles: the covariants and the recovery with the frame's own vectors ---------


def oracle_bilinear_covariants(d):
    psi = d.psi
    psit = reversion(psi)
    sigma, omega = _sigma_omega(geometric_product(psi, psit, grades=(0, 4)))
    g0 = gamma_upper(d.frame, 0)
    g1 = gamma_upper(d.frame, 1)
    g2 = gamma_upper(d.frame, 2)
    g3 = gamma_upper(d.frame, 3)
    J = geometric_product(geometric_product(psi, g0), psit, grades=(1,))
    S = geometric_product(geometric_product(psi, geometric_product(g1, g2)), psit, grades=(2,))
    K = geometric_product(geometric_product(psi, g3), psit, grades=(1,))
    return BilinearCovariants(sigma=sigma, omega=omega, J=J, S=S, K=K)


def oracle_recover_from_covariants(c, frame):
    if not _regular(c.sigma, c.omega, c.J.norm() ** 2):
        raise SingularSpinorError("recovery unsupported for singular covariants")
    rho = math.sqrt(c.sigma**2 + c.omega**2)
    beta = math.atan2(c.omega, c.sigma) + 0.0
    g0 = gamma_upper(frame, 0)
    g1 = gamma_upper(frame, 1)
    g2 = gamma_upper(frame, 2)
    g3 = gamma_upper(frame, 3)
    v0 = (1.0 / rho) * c.J
    R0 = rotor_between(v0, g0)
    w3 = geometric_product(
        geometric_product(R0.inverse, (1.0 / rho) * c.K), R0.u, grades=(1,)
    )
    if 1.0 - complex(scalar_product(w3, g3)).real >= 1.0:
        R1 = rotor_between(w3, g3)
    else:
        gk = max((g1, g2), key=lambda g: 1.0 - complex(scalar_product(w3, g)).real)
        R1 = rotor_between(w3, gk) * rotor_between(gk, g3)
    R = R0 * R1
    psi = geometric_product(rho**0.5 * exp_beta_gamma5(beta / 2), R.u)
    return DHSRep(frame, psi)


# -- draws ----------------------------------------------------------------------------


def unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def bivector(boost, turn):
    return Multivector(SIG13, {**dict(zip(BOOSTS, boost)), **dict(zip(TURNS, turn))})


@st.composite
def rotors(draw, max_rapidity=MAX_RAPIDITY):
    """exp(F) with F's boost part of rapidity up to max_rapidity."""
    direction = draw(st.tuples(unit(-1, 1), unit(-1, 1), unit(-1, 1)).filter(lambda d: math.hypot(*d) > 0.1))
    rapidity = draw(unit(0, max_rapidity))
    turn = draw(st.tuples(unit(-math.pi, math.pi), unit(-math.pi, math.pi), unit(-math.pi, math.pi)))
    half = rapidity / (2 * math.hypot(*direction))
    try:
        return Rotor(exp_bivector(bivector([half * x for x in direction], [t / 2 for t in turn])))
    except NotARotorError:
        reject()


@st.composite
def classes(draw):
    """A fiducial representative psi_0 = rho^{1/2} e^{beta g5 / 2} R."""
    rho = draw(unit(0.5, 2.0))
    beta = draw(unit(-math.pi, math.pi))
    boost = draw(st.tuples(unit(-0.5, 0.5), unit(-0.5, 0.5), unit(-0.5, 0.5)))
    turn = draw(st.tuples(unit(-1, 1), unit(-1, 1), unit(-1, 1)))
    R = Rotor(exp_bivector(bivector(boost, turn)))
    return geometric_product(rho**0.5 * exp_beta_gamma5(beta / 2), R.u)


def boost(rapidity, mask=0b0011):
    return Rotor(exp_bivector(Multivector(SIG13, {mask: rapidity / 2})))


ONE = Rotor(Multivector.one(SIG13))
PSI0 = geometric_product(exp_beta_gamma5(0.4), boost(0.3, 0b0101).u)
HARD = boost(14.0)


def in_frame(psi0, u):
    """The class of psi0 in frame u: (Xi_u, psi0 u)."""
    return change_frame(DHSRep(FID, psi0), spinorial_frame_of(u))


def covariant_gap(a, b):
    return max(
        abs(a.sigma - b.sigma),
        abs(a.omega - b.omega),
        *(((x - y).max_abs() for x, y in ((a.J, b.J), (a.S, b.S), (a.K, b.K)))),
    )


def size(c):
    return max(c.J.max_abs(), c.S.max_abs(), c.K.max_abs())


EVEN = [m for m in range(16) if not m.bit_count() & 1]
SIGMA3 = Multivector(SIG13, {0b1001: -1.0})  # E3 E0 = e4e1


def singular_class(local, n=None):
    """a (1 + n)/2 for a Gaussian even a, and n = SIGMA3 or, if None, a
    random unit n_1 sigma_1 + n_2 sigma_2 + n_3 sigma_3."""
    if n is None:
        v = local.normal(size=3)
        v /= np.linalg.norm(v)
        n = Multivector(SIG13, {0b0011: -v[0], 0b0101: -v[1], 0b1001: -v[2]})
    a = Multivector(SIG13, {m: float(local.normal()) for m in EVEN})
    return geometric_product(a, (1 + n) * 0.5)


# -- the class laws -------------------------------------------------------------------

SETTINGS = settings(derandomize=True, deadline=None, max_examples=150, database=None)


@SETTINGS
@given(classes(), rotors(), rotors())
@example(PSI0, ONE, HARD)
@example(PSI0, HARD, boost(-14.0))
@example(PSI0, HARD, Rotor(-HARD.u))
def test_covariants_are_unchanged_by_a_frame_change(psi0, u, v):
    d = in_frame(psi0, u)
    moved = change_frame(d, spinorial_frame_of(v))
    gap = covariant_gap(bilinear_covariants(moved), bilinear_covariants(d))
    # psi u~ and psi' v~ are both psi_0, rounded at the scale |psi| |u|.
    scale = (d.psi.norm() * u.u.norm()) ** 2 + (moved.psi.norm() * v.u.norm()) ** 2
    assert gap <= 64 * EPS * scale


@SETTINGS
@given(classes(), rotors(), rotors(), rotors())
@example(PSI0, HARD, boost(-14.0), HARD)
def test_frame_changes_compose(psi0, u, v, w):
    d = in_frame(psi0, u)
    via = change_frame(change_frame(d, spinorial_frame_of(v)), spinorial_frame_of(w))
    direct = change_frame(d, spinorial_frame_of(w))
    assert via.frame == direct.frame
    bound = 16 * EPS * d.psi.norm() * u.u.norm() * v.u.norm() ** 2 * w.u.norm()
    assert (via.psi - direct.psi).max_abs() <= bound


@SETTINGS
@given(classes(), rotors(), rotors())
@example(PSI0, boost(8.0), boost(-8.0, 0b1001))
@example(PSI0, HARD, boost(-14.0, 0b1001))
@example(PSI0, ONE, HARD)
@example(PSI0, HARD, ONE)
def test_as_from_dhs_commutes_with_a_frame_change(psi0, u, v):
    d = in_frame(psi0, u)
    target = spinorial_frame_of(v)
    moved = change_frame(d, target)
    a, b = as_from_dhs(moved), change_frame(as_from_dhs(d), target)
    assert a.frame == b.frame == target
    # e = (1 + b_0)/2 is of size |u|^2 in frame u.
    bound = 64 * EPS * (d.psi.norm() * u.u.norm() ** 3 * v.u.norm() + moved.psi.norm() * v.u.norm() ** 2)
    assert (a.element - b.element).max_abs() <= bound


@SETTINGS
@given(classes(), rotors())
@example(PSI0, ONE)
@example(PSI0, HARD)
@example(Multivector.one(SIG13), HARD)
def test_recovery_round_trips_in_any_frame(psi0, u):
    c = bilinear_covariants(DHSRep(FID, psi0))
    frame = spinorial_frame_of(u)
    recovered = recover_from_covariants(c, frame)
    assert recovered.frame == frame
    # psi_0 u carries the rounding of a product of size |psi_0| |u|.
    assert covariant_gap(bilinear_covariants(recovered), c) <= 64 * EPS * size(c) * u.u.norm() ** 2


@SETTINGS
@given(classes(), rotors())
@example(PSI0, HARD)
@example(PSI0, boost(14.0, 0b0101))
@example(PSI0, boost(-14.0, 0b1001))
def test_recovery_round_trips_for_covariants_computed_in_a_moved_frame(psi0, u):
    """The covariants of psi_0 u in frame u carry rounding of size eps
    |u|^2, which no rotor check bounds any more: the recovered spinor has
    those covariants to the same order (the worst of 1200 classes at boost
    rapidity 10 to 14 in the three planes reached 3.2 of the units below)."""
    frame = spinorial_frame_of(u)
    c = bilinear_covariants(in_frame(psi0, u))
    recovered = recover_from_covariants(c, frame)
    assert recovered.frame == frame
    assert covariant_gap(bilinear_covariants(recovered), c) <= 16 * EPS * size(c) * u.u.norm() ** 2


@pytest.mark.parametrize("plane", BOOSTS)
def test_recovery_holds_at_rapidity_14_in_every_boost_plane(plane):
    """Recovery through rotor_between raised NotARotorError for 13 to 18 of
    these 100 classes per plane, whose covariants' rounding at eps |u|^2
    passed its unit check but not ROTOR_TOL."""
    local = np.random.default_rng([36, plane])
    u = boost(14.0, plane)
    frame = spinorial_frame_of(u)
    for _ in range(100):
        c = bilinear_covariants(in_frame(random_regular_spinor(local).psi, u))
        recovered = recover_from_covariants(c, frame)
        assert covariant_gap(bilinear_covariants(recovered), c) <= 16 * EPS * size(c) * u.u.norm() ** 2


def test_fiducial_recovery_is_within_8_eps_of_the_covariants():
    """Over 2000 regular classes the recovered spinor's covariants are
    within 8 eps |J| of the covariants it was recovered from (the worst of
    5000 reached 3.4)."""
    local = np.random.default_rng(36)
    for _ in range(2000):
        c = bilinear_covariants(random_regular_spinor(local))
        assert covariant_gap(bilinear_covariants(recover_from_covariants(c, FID)), c) <= 8 * EPS * c.J.max_abs()


@pytest.mark.parametrize("kind", ["dipole", "flag-dipole"])
def test_singular_covariants_round_trip(kind):
    """psi_0 = a (1 + n)/2 is singular: sigma = omega = 0, and S = 0 as well
    for n = sigma3.  The recovery, which refused every such spinor while it
    built rotors, returns a spinor with those covariants.  The worst of
    two sets of 5000 draws reached 4.1 of the units below for dipoles and
    37 for flag-dipoles: as n nears +-sigma3 one column of psi_0 shrinks,
    and S, sigma and omega, which pair the two columns, carry its error
    relative to its own size."""
    local = np.random.default_rng(37)
    for _ in range(300):
        c = bilinear_covariants(DHSRep(FID, singular_class(local, SIGMA3 if kind == "dipole" else None)))
        assert not _regular(c.sigma, c.omega, c.J.norm() ** 2)
        assert (c.S.max_abs() <= 16 * EPS * size(c)) == (kind == "dipole")
        recovered = recover_from_covariants(c, FID)
        assert covariant_gap(bilinear_covariants(recovered), c) <= 64 * EPS * size(c)


@pytest.mark.parametrize("u", [ONE, HARD], ids=["fiducial", "rapidity-14"])
def test_zero_covariants_recover_the_zero_spinor(u):
    frame = spinorial_frame_of(u)
    c = bilinear_covariants(DHSRep(frame, Multivector.zero(SIG13)))
    recovered = recover_from_covariants(c, frame)
    assert recovered.frame == frame and recovered.psi.is_zero()


def test_as_from_dhs_in_a_frame_of_rapidity_10():
    """ASRep bounds |phi e - phi| by the sizes of phi and e, and e is of size
    |u|^2 in frame u, so psi e, the element as_from_dhs builds on psi_0 = psi
    u~, passes the check at rapidity 10 (the bound 1e-9 |phi| rejected it
    from about rapidity 8.4)."""
    a = as_from_dhs(in_frame(PSI0, boost(10.0)))
    assert a.frame == spinorial_frame_of(boost(10.0))


@pytest.mark.parametrize("rapidity", [0.0, 8.0, 14.0])
def test_an_element_1e_6_off_the_ideal_is_rejected(rapidity):
    """An element of the frame's ideal plus 1e-6 of its size from the
    complementary ideal Cl (1 - e) is rejected in every frame; the element
    itself, and its multiples at any scale, pass."""
    u = boost(rapidity, 0b0101)
    frame = spinorial_frame_of(u)
    phi = as_from_dhs(in_frame(PSI0, u)).element
    # PSI0 (1 - E_0)/2 u lies in Cl (1 - e) for e = u~ (1 + E_0)/2 u.
    other = geometric_product(geometric_product(PSI0, (1 - Multivector.generator(SIG13, 1)) * 0.5), u.u)
    off = phi + (1e-6 * phi.norm() / other.norm()) * other
    for scale in (1e-6, 1.0, 1e6):
        ASRep(frame, scale * phi)
        with pytest.raises(SpinorValueError, match="left ideal"):
            ASRep(frame, scale * off)


@pytest.mark.parametrize("rapidity", [0.0, 7.0, 10.0, 12.0, 13.0, 14.0])
def test_mother_spinor_round_trip_in_a_moved_frame(rapidity):
    """The mother-spinor basis is u~ S_i u for the fiducial S_i, so the
    assembled element lies in the frame's ideal, and the round trip holds to
    the rounding of the sandwich (the worst of 30 boosts up to rapidity 13
    reached 22 eps |phi| |u|^2).  With a basis built from the frame's
    vectors the round trip raised SpinorValueError from rapidity 7 for an
    e1e2 boost, and at 10 and 12 here; with expand's fit checked against
    1e-9 |phi| it raised at 13 and 14 for an e1e2 boost."""
    for plane in BOOSTS:
        u = boost(rapidity, plane)
        a = as_from_dhs(in_frame(PSI0, u))
        back = mother_spinor_assemble(mother_spinor_expand(a), a.frame)
        assert back.frame == a.frame
        assert (back.element - a.element).max_abs() <= 64 * EPS * a.element.norm() * u.u.norm() ** 2


def test_no_function_of_the_package_derives_a_frames_vectors():
    """Every object in the frame u is the fiducial one moved by u, through
    the groups module's class map, so no function reads the frame's vectors,
    which a frame derives the first time ``frame`` is read."""
    u = boost(3.0, 0b0101) * Rotor(exp_bivector(bivector((0.0, 0.0, 0.0), (0.4, -0.2, 0.7))))
    s = random_rotor(SIG13, np.random.default_rng(35))
    f, target = spinorial_frame_of(u), spinorial_frame_of(boost(-2.0, 0b1001))
    d = DHSRep(f, geometric_product(PSI0, u.u))
    c = bilinear_covariants(d)
    recover_from_covariants(c, f)
    a = as_from_dhs(d)
    change_frame(d, target)
    change_frame(a, target)
    ASRep(f, a.element)
    mother_spinor_basis(f)
    mother_spinor_assemble(mother_spinor_expand(a), f)
    asf_projector(f)
    pot = ConstantPotential(Multivector(SIG13, {1: 0.2, 2: -0.1, 4: 0.05, 8: 0.3}), 0.7)
    base = planewave_solution(0.8, (-0.3, 0.1, 0.6), pot=pot)
    field = PlaneWaveDHSF(frame=f, psi0=geometric_product(base.psi0, u.u), p=base.p, m=base.m, energy_sign=1)
    right, left, both = right_gauge(field, s), left_gauge(field, s, pot), both_gauge(field, s, pot)
    x = [0.3, -1.2, 2.5, 0.7]
    for fld, p, rotor in ((field, pot, None), (right, pot, None), (left.field, left.pot, s), (both.field, both.pot, s)):
        dhe_residual(fld, p, fld.m, x, left_rotor=rotor)
        asf_residual(fld, p, fld.m, x)
        matrix_dirac_residual(fld, p, fld.m, x)
        fld.evaluate(x), fld.partials(x), spin_dirac_apply(fld, x)
    for frame in (f, target, right.frame, both.field.frame):
        assert "frame" not in vars(frame)


# -- the kept oracles -----------------------------------------------------------------


def bits(x):
    return [(m, c.real.hex(), c.imag.hex()) for m, c in x._terms.items()]


def covariant_bits(c):
    return [c.sigma.hex(), c.omega.hex(), bits(c.J), bits(c.S), bits(c.K)]


def right_phase_gap(psi, ref):
    """max |psi - ref e^{E3E2 phi}|, for the phi read off ref^{-1} psi; the
    e2e3 coefficient of e^{E3E2 phi} = cos phi - sin phi e2e3 is -sin phi."""
    X = geometric_product(inverse(ref), psi)
    phi = math.atan2(-X.coeff(0b0110).real, X.scalar_part().real)
    turn = Multivector(SIG13, {0: math.cos(phi), 0b0110: -math.sin(phi)})
    return (psi - geometric_product(ref, turn)).max_abs()


def test_fiducial_covariants_and_recovery_match_the_oracles_bit_for_bit():
    """The covariants are the oracle's to the bit.  The recovered spinor is
    the oracle's up to the class's right phase e^{E3E2 phi}, to 32 eps
    |psi| (the worst of 2000 reached 7.5), since the two recoveries build
    different members of the class."""
    local = np.random.default_rng(32)
    for _ in range(300):
        d = random_regular_spinor(local)
        c = bilinear_covariants(d)
        assert covariant_bits(c) == covariant_bits(oracle_bilinear_covariants(d))
        want = oracle_recover_from_covariants(c, FID).psi
        assert right_phase_gap(recover_from_covariants(c, FID).psi, want) <= 32 * EPS * want.max_abs()


def test_moved_frame_covariants_are_within_8_eps_of_the_oracle():
    """sigma and omega are read from psi in either frame, to the bit; J, S
    and K move to psi u~ and round differently."""
    local = np.random.default_rng(33)
    for _ in range(300):
        d = random_regular_spinor(local, spinorial_frame_of(random_rotor(SIG13, local)))
        got, want = bilinear_covariants(d), oracle_bilinear_covariants(d)
        assert covariant_bits(got)[:2] == covariant_bits(want)[:2]
        assert covariant_gap(got, want) <= 8 * EPS * size(want)


def exact(x):
    return {m: Fraction(c.real) for m, c in x._terms.items()}


def exact_product(x, y):
    return _product_loop(1, 4, x, y)


def exact_gap(x, y):
    return float(max(abs(Fraction(x._terms.get(m, 0j).real) - y.get(m, 0)) for m in x._terms.keys() | y.keys()))


def test_moved_frame_covariants_are_nearer_the_exact_ones_than_the_oracles():
    """Against psi u~ E_mu u reversion(psi) in exact arithmetic on the float
    inputs, the value both ways compute, the summed error of J, S and K is
    smaller, and so is the median of each spinor's worst Fierz residual.
    The worst Fierz residual is not: the quartic S (K S K) = (J.J)^2
    amplifies each error by about |J|^4 / rho^4 (CHANGES.md)."""
    local = np.random.default_rng(34)
    errors, oracle_errors, fierz, oracle_fierz = [], [], [], []
    for _ in range(300):
        d = random_regular_spinor(local, spinorial_frame_of(random_rotor(SIG13, local)))
        psi0 = exact_product(exact(d.psi), exact(d.frame.u.inverse))
        psi0t = {m: -c if m.bit_count() & 2 else c for m, c in psi0.items()}
        want = {
            name: {m: c for m, c in exact_product(exact_product(psi0, blade), psi0t).items() if m.bit_count() == k}
            for name, blade, k in (("J", {0b0001: 1}, 1), ("S", {0b0110: 1}, 2), ("K", {0b1000: -1}, 1))
        }
        for c, err, res in ((bilinear_covariants(d), errors, fierz), (oracle_bilinear_covariants(d), oracle_errors, oracle_fierz)):
            err.append(sum(exact_gap(getattr(c, name), want[name]) for name in "JSK"))
            res.append(max(fierz_residuals(c).values()))
    assert sum(errors) <= sum(oracle_errors)
    assert statistics.median(fierz) <= statistics.median(oracle_fierz)
