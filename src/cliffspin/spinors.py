"""Spinor calculus in Cl(1,3): algebraic and operator spinor representatives,
frame changes, bilinear covariants, the quadratic identity suite relating
them, and the canonical (density / duality-angle / rotor) decomposition.

Index conventions: a spinorial frame's vectors b_0..b_3 are the lower-index
frame vectors; the upper-index ones are g^0 = b_0 and g^i = -b_i.  The volume
element g5 = g^0 g^1 g^2 g^3 is frame-independent under even rotors.

A DHSF is a class of pairs (Xi_u, psi_u) with psi_u' = psi_u u^{-1} u', so
the covariants and the recovery work on its fiducial representative
psi_0 = psi_u u~, where the upper-index gammas are the single blades e1, -e2,
-e3 and -e4: psi b_mu reversion(psi) = psi_0 E_mu reversion(psi_0).  So do
the algebraic element psi e = (psi_0 e_0) u of ``as_from_dhs`` and an
algebraic spinor's frame change, with e_0 = (1 + E_0)/2, and the Dirac forms
(dirac module).  What belongs to the frame itself, its idempotent
e = u~ e_0 u and its mother-spinor basis u~ S_i u, is the fiducial one
carried by u.  The maps psi_0 -> psi_0 u and X -> u~ X u are the groups
module's ``_from_fiducial`` and ``_carry``; no function here derives a
frame's vectors.

The covariants are quadratic forms in the spinor, sigma + omega g5 =
psi reversion(psi) and J, S, K = psi_0 E reversion(psi_0), each read off a
kernel that ``multivector._quadratic_forms`` compiles once per key pattern:
one kernel call gives all five in the fiducial frame, two in a moved one,
with the bits and key order of the grade-filtered products they replace
and no product call.  Regularity, the canonical decomposition and the
recovery read sigma and omega, and the recovery S, the same way.

The recovery reads psi_0 back from J and K as two rank-one columns of the
even subalgebra Cl+(1,3) = M(2,C), with no rotor, up to the class's right
phase e^{E3E2 phi}, for regular and singular covariants alike
(``recover_from_covariants``).

Spinors are real: ``DHSRep``, ``ASRep`` and ``BilinearCovariants`` refuse a
complex value, as ``Rotor`` does, so every function here computes on real
multivectors and reads scalars as floats.  Complex numbers enter only
through the matrix representation (matrixrep module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from numbers import Real
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .groups import (
    Rotor,
    SpinorialFrame,
    _carry,
    _from_fiducial,
    _to_fiducial,
    fiducial_spinorial_frame,
    random_rotor,
)
from .multivector import (
    Multivector,
    Signature,
    _max_gap,
    _quadratic_forms,
    _sign_weight,
    _times_blade,
    geometric_product,
    hodge_dual,
    right_contraction,
    scalar_product,
    wedge,
)

if TYPE_CHECKING:
    import numpy as np

SIG13 = Signature(1, 3)
_ONE = Multivector.one(SIG13)
REGULARITY_EPS2 = 1e-20
# The fiducial frame's spinor-projector e_0 = (1 + E_0)/2.
_E0_IDEMPOTENT = (1 + Multivector.generator(SIG13, 1)) * 0.5
_EPS = 2.0**-52
# The ideal check's bound, in units of eps |phi|_1 |e|_1 (ASRep): the
# elements that as_from_dhs and change_frame built for 600 random classes, in
# frames of boost rapidity up to 14, reached 0.8 of them; an element 1e-6
# off the ideal, relative to its size, lay over 1200 of them away at
# rapidity 14.  mother_spinor_expand's fit reads the same bound in units of
# eps max_i sum_j |A_ij| |x_j|, where 16000 random classes reached 50.
IDEAL_ROUNDINGS = 64


class SingularSpinorError(ArithmeticError):
    pass


class SpinorValueError(ValueError):
    pass


def _require_finite_real(x, what: str, error: type[ValueError]) -> None:
    """Refuse x with error unless it is a finite real number and not a bool.
    The Dirac residuals check their mass at every call, so a float skips the
    isinstance tests (isinstance(x, Real) alone takes 0.4 us on x86_64)."""
    if type(x) is not float and (isinstance(x, bool) or not isinstance(x, Real)) or not math.isfinite(x):
        raise error(f"{what} must be a finite real number")


def frame_idempotent(frame: SpinorialFrame) -> Multivector:
    """The frame's spinor-projector e = (1 + b_0)/2, computed as u~ e_0 u."""
    return _carry(_E0_IDEMPOTENT, frame)


@dataclass(frozen=True)
class DHSRep:
    """Operator-spinor representative: an even multivector tied to a frame."""

    frame: SpinorialFrame
    psi: Multivector

    def __post_init__(self) -> None:
        if self.psi.signature != SIG13 or self.frame.signature != SIG13:
            raise SpinorValueError("operator spinors live in Cl(1,3)")
        if not self.psi.real:
            raise SpinorValueError("representative must be real")
        if any(g % 2 for g in self.psi.grades()):
            raise SpinorValueError("representative must be even (grades 0, 2, 4)")


@dataclass(frozen=True)
class ASRep:
    """Algebraic-spinor representative: an element of the frame's minimal
    left ideal Cl(1,3) * (1 + b_0)/2."""

    frame: SpinorialFrame
    element: Multivector

    def __post_init__(self) -> None:
        if self.element.signature != SIG13 or self.frame.signature != SIG13:
            raise SpinorValueError("algebraic spinors live in Cl(1,3)")
        if not self.element.real:
            raise SpinorValueError("element must be real")
        # phi e rounds at eps times the sizes of its factors, and |e| grows
        # as |u|^2 in the frame u, so the bound is IDEAL_ROUNDINGS eps
        # |phi|_1 |e|_1 (sums of absolute values): a uniform rescaling of the
        # element keeps the verdict, and so does the frame's rapidity.
        e = frame_idempotent(self.frame)
        bound = IDEAL_ROUNDINGS * _EPS * _abs_sum(self.element) * _abs_sum(e)
        if _max_gap(geometric_product(self.element, e), self.element) > bound:
            raise SpinorValueError("element is not in the frame's left ideal")


@dataclass(frozen=True)
class BilinearCovariants:
    sigma: float
    omega: float
    J: Multivector
    S: Multivector
    K: Multivector

    def __post_init__(self) -> None:
        if not (self.J.real and self.S.real and self.K.real):
            raise SpinorValueError("J, S and K must be real")
        _require_finite_real(self.sigma, "sigma", SpinorValueError)
        _require_finite_real(self.omega, "omega", SpinorValueError)
        # Relative to the covariants' own squared scale, so a uniform
        # rescaling of the spinor keeps the verdict.
        scale = max(self.J.max_abs() ** 2, self.sigma**2 + self.omega**2)
        if abs(scalar_product(self.J, self.J) - (self.sigma**2 + self.omega**2)) > 1e-6 * scale:
            raise SpinorValueError("J.J != sigma^2 + omega^2; not covariants of a spinor")
        if abs(scalar_product(self.J, self.K)) > 1e-6 * scale:
            raise SpinorValueError("J.K != 0; not covariants of a spinor")


@dataclass(frozen=True)
class CanonicalFactors:
    rho: float
    beta: float
    R: Rotor

    def __post_init__(self) -> None:
        _require_finite_real(self.rho, "rho", SpinorValueError)
        _require_finite_real(self.beta, "beta", SpinorValueError)
        if self.rho <= 0:
            raise SpinorValueError("rho must be positive")


# -- frame changes and the two representations ---------------------------------


def change_frame(s: "DHSRep | ASRep", target: SpinorialFrame):
    """New representative psi' = psi u^{-1} u' for a target frame (u', b').
    An algebraic spinor's element phi moves as (phi u~ e_0) u': its fiducial
    representative, projected on the fiducial ideal, so the new element lies
    in the target's ideal up to the rounding of its product by u'."""
    if target.signature != s.frame.signature:
        raise SpinorValueError("frames of different signature")
    if isinstance(s, DHSRep):
        shift = geometric_product(s.frame.u.inverse, target.u.u)
        return DHSRep(target, geometric_product(s.psi, shift))
    return _as_in_frame(s.element, s.frame, target)


def _as_in_frame(x: Multivector, frame: SpinorialFrame, target: SpinorialFrame) -> ASRep:
    """ASRep(target, (x u~ e_0) u') for x in the frame u: computed on the
    fiducial representative x u~, with the fixed blade E_0 in place of the
    frame's b_0."""
    phi = geometric_product(_to_fiducial(x, frame), _E0_IDEMPOTENT)
    return ASRep(target, _from_fiducial(phi, target))


def as_from_dhs(d: DHSRep) -> ASRep:
    """phi = psi e = (psi_0 e_0) u: the element of the frame's ideal,
    computed on the fiducial representative psi_0 = psi u~."""
    return _as_in_frame(d.psi, d.frame, d.frame)


def dhs_from_as(a: ASRep) -> DHSRep:
    return DHSRep(a.frame, 2.0 * a.element.even())


# -- bilinear covariants --------------------------------------------------------


# The quadratic forms x (s E) reversion(x) of the covariants, as
# _quadratic_forms' specs (E, s, grades): psi reversion(psi) = sigma + omega g5
# (E = 1), and J, S, K = psi_0 E reversion(psi_0) for E = e1, e2e3 and -e4, the
# fiducial g^0, g^1 g^2 and g^3.
_SIGMA_OMEGA_FORM = ((0, 1.0, (0, 4)),)
_JSK_FORMS = ((0b0001, 1.0, (1,)), (0b0110, 1.0, (2,)), (0b1000, -1.0, (1,)))
_COVARIANT_FORMS = _SIGMA_OMEGA_FORM + _JSK_FORMS


def _sigma_omega(agg: Multivector) -> tuple[float, float]:
    """(sigma, omega) from agg = psi reversion(psi) = sigma + omega g5."""
    # The grade-4 part is omega * g5, and g5 = -e1e2e3e4: an absent one reads -0.0.
    return agg.scalar_part(), -agg.coeff(0b1111)


def _abs_sum(x: Multivector) -> float:
    return sum(map(abs, x._terms.values()))


def bilinear_covariants(d: DHSRep) -> BilinearCovariants:
    """sigma + omega g5 = psi reversion(psi), and J, S, K = psi_0 E
    reversion(psi_0) for E = e1, e2e3 and -e4, the fiducial g^0, g^1 g^2 and
    g^3, with psi_0 = psi u~ (module docstring).  Each is a quadratic form
    read by one compiled kernel (_quadratic_forms), with the bits and key
    order of the grade-filtered product (psi_0 E) reversion(psi_0): in the
    fiducial frame psi_0 is psi and one kernel call gives all five, and in
    a moved frame the product psi u~ is the only one."""
    psi = d.psi
    psi0 = _to_fiducial(psi, d.frame)
    if psi0 is psi:
        agg, J, S, K = _quadratic_forms(psi, _COVARIANT_FORMS)
    else:
        (agg,) = _quadratic_forms(psi, _SIGMA_OMEGA_FORM)
        J, S, K = _quadratic_forms(psi0, _JSK_FORMS)
    sigma, omega = _sigma_omega(agg)
    return BilinearCovariants(sigma=sigma, omega=omega, J=J, S=S, K=K)


def _regular(sigma: float, omega: float, scale2: float) -> bool:
    """Whether sigma^2 + omega^2 = rho^2 is nonzero relative to scale2, a
    squared scale of order rho^2: |psi|^4 for a spinor psi, |J|^2 for its
    covariants.  A uniform rescaling of psi keeps the verdict."""
    return sigma * sigma + omega * omega > REGULARITY_EPS2 * scale2


def is_regular(d: DHSRep) -> bool:
    sigma, omega = _sigma_omega(*_quadratic_forms(d.psi, _SIGMA_OMEGA_FORM))
    return _regular(sigma, omega, d.psi.norm() ** 4)


# -- identity suite over the covariants ------------------------------------------


# The sign of the g5 pair of blade m in (b g5) X: g5 = -e1e2e3e4, and
# e_1111 e_m = (-1)^popcount(m & w) e_{1111 ^ m} with w its weight mask.
_G5_SIGNS = tuple(1.0 if (m & _sign_weight(1, 0b1111)).bit_count() & 1 else -1.0 for m in range(16))


def _residual(lhs: Multivector, a: float, b: float, X: Multivector) -> float:
    """max |lhs - rhs| / max(1, |lhs|, |rhs|) for rhs = (a + b g5) X, read
    on floats from the coefficient dicts of the real lhs and X.  Each rhs
    value is the one that building rhs as a multivector stores (a X when b
    is 0), from the same float operations in the same order: a + b g5 is
    stored as {1111: -b, 0: a}, its scalar dropped when a is 0, so each
    blade adds its g5 pair +-(b x) first, then a x.  Only moduli are read,
    so the sign of a zero is never seen.  The gaps and the scale are read in
    one pass over lhs and one over rhs.  lhs is finite, so a non-finite gap
    comes from rhs, and it raises ValueError, as building rhs or lhs - rhs
    would."""
    xt = X._terms
    if b:
        rhs = {0b1111 ^ m: _G5_SIGNS[m] * (b * c) for m, c in xt.items()}
        if a:
            get = rhs.get
            for m, c in xt.items():
                rhs[m] = get(m, 0.0) + a * c
    else:
        rhs = {m: a * c for m, c in xt.items()} if a else {}
    lt = lhs._terms
    scale, worst = 1.0, 0.0
    for m, c in lt.items():
        c = abs(c)
        if c > scale:
            scale = c
        if c > worst and m not in rhs:
            worst = c
    get = lt.get
    for m, v in rhs.items():
        c = get(m)
        gap = abs(v if c is None else c - v)
        v = abs(v)
        if v > scale:
            scale = v
        # Written so that a NaN gap, which compares False, is not skipped.
        if not gap <= worst:
            if not gap < math.inf:
                raise ValueError("non-finite coefficient")
            worst = gap
    return worst / scale


def fierz_statements(ops, sigma, omega, J, S, K) -> dict[str, tuple]:
    """The quadratic covariant identities, each keyed by its name as
    (lhs, a, b, X, scale): it states lhs = (a + b g5) X.  ops supplies
    product, wedge, right_contraction, scalar_product, hodge_dual and one,
    so the same rows are evaluated on multivectors by fierz_residuals and
    on exact polynomials by tests/test_fierz_proof.py.  A scalar row has
    b = 0, X = one and the scale of its residual; a multivector row has
    scale None."""
    sig, om = sigma, omega
    sp, one = ops.scalar_product, ops.one
    starS = ops.hodge_dual(S)
    JJ = sp(J, J)
    rho2 = sig**2 + om**2
    ks = ops.product(K, S)
    ksk = ops.product(ks, K)
    return {
        "J.J = sigma^2 + omega^2": (JJ, rho2, 0, one, JJ),
        "J.K = 0": (sp(J, K), 0, 0, one, JJ),
        "J.J = -K.K": (JJ, -sp(K, K), 0, one, JJ),
        "J^K = -(omega + sigma g5) S": (ops.wedge(J, K), -om, -sig, S, None),
        "(*S)|_J = -sigma K": (ops.right_contraction(starS, J), -sig, 0, K, None),
        "(*S)|_K = -sigma J": (ops.right_contraction(starS, K), -sig, 0, J, None),
        "S.S = sigma^2 - omega^2": (sp(S, S), sig**2 - om**2, 0, one, rho2),
        "S|_J = omega K": (ops.right_contraction(S, J), om, 0, K, None),
        "S|_K = omega J": (ops.right_contraction(S, K), om, 0, J, None),
        "(*S).S = 2 sigma omega": (sp(starS, S), 2 * sig * om, 0, one, rho2),
        "J S = -(omega + sigma g5) K": (ops.product(J, S), -om, -sig, K, None),
        "S J = (omega - sigma g5) K": (ops.product(S, J), om, -sig, K, None),
        "K S = -(omega + sigma g5) J": (ks, -om, -sig, J, None),
        "S K = (omega - sigma g5) J": (ops.product(S, K), om, -sig, J, None),
        "S^2 = omega^2 - sigma^2 - 2 sigma omega g5": (
            ops.product(S, S), om**2 - sig**2, -2 * sig * om, one, None
        ),
        "S (K S K) = (J.J)^2": (ops.product(S, ksk), JJ**2, 0, one, None),
    }


# fierz_statements on multivectors; scalar products of real covariants are floats.
_MULTIVECTOR_OPS = SimpleNamespace(
    product=geometric_product,
    wedge=wedge,
    right_contraction=right_contraction,
    scalar_product=scalar_product,
    hodge_dual=hodge_dual,
    one=_ONE,
)


def fierz_residuals(c: BilinearCovariants) -> dict[str, float]:
    """Relative residuals of the rows of fierz_statements: |lhs - a| over
    max(1, |scale|) for a scalar row, and the max-abs residual of
    lhs = (a + b g5) X for a multivector row.  tests/test_fierz_proof.py
    proves each row as an exact polynomial identity in the coefficients
    of a generic spinor."""
    rows = fierz_statements(_MULTIVECTOR_OPS, c.sigma, c.omega, c.J, c.S, c.K)
    res: dict[str, float] = {}
    for name, (lhs, a, b, X, scale) in rows.items():
        if scale is not None:
            res[name] = abs(lhs - a) / max(1.0, abs(scale))
        else:
            res[name] = _residual(lhs, a, b, X)
    return res


# -- canonical decomposition -----------------------------------------------------


def exp_beta_gamma5(beta: float) -> Multivector:
    """e^{beta g5} = cos(beta) + sin(beta) g5, since g5^2 = -1, with
    g5 = -e1e2e3e4: the keys and bits of math.cos(beta) + math.sin(beta) * G5."""
    return Multivector._own(SIG13, {0b1111: -math.sin(beta), 0: math.cos(beta)}, True)


def canonical_decompose(d: DHSRep) -> CanonicalFactors:
    sigma, omega = _sigma_omega(*_quadratic_forms(d.psi, _SIGMA_OMEGA_FORM))
    if not _regular(sigma, omega, d.psi.norm() ** 4):
        raise SingularSpinorError(
            "psi * reversion(psi) = 0: singular spinor, no canonical decomposition"
        )
    rho = math.sqrt(sigma * sigma + omega * omega)
    beta = math.atan2(omega, sigma) + 0.0
    factor = rho ** -0.5 * exp_beta_gamma5(-beta / 2)
    R = Rotor(geometric_product(factor, d.psi))
    return CanonicalFactors(rho=rho, beta=beta, R=R)


def canonical_reconstruct(f: CanonicalFactors, frame: SpinorialFrame) -> DHSRep:
    psi = geometric_product(f.rho**0.5 * exp_beta_gamma5(f.beta / 2), f.R.u)
    return DHSRep(frame, psi)


def random_regular_spinor(
    rng: np.random.Generator, frame: SpinorialFrame | None = None
) -> DHSRep:
    """psi = rho^{1/2} e^{beta g5 / 2} R with rho in [0.5, 2], beta in
    (-pi, pi), and a random rotor R."""
    if frame is None:
        frame = fiducial_spinorial_frame(SIG13)
    rho = float(rng.uniform(0.5, 2.0))
    beta = float(rng.uniform(-math.pi * 0.999, math.pi * 0.999))
    R = random_rotor(SIG13, rng)
    psi = geometric_product(rho**0.5 * exp_beta_gamma5(beta / 2), R.u)
    return DHSRep(frame, psi)


# -- mother-spinor expansion -------------------------------------------------------


@cache
def _fiducial_mother_basis() -> tuple[tuple[Multivector, Multivector], ...]:
    """The fiducial mother-spinor basis S_i, each with E_2 E_1 S_i."""
    b0, b1, b2, b3 = (Multivector.generator(SIG13, i + 1) for i in range(4))
    unit = geometric_product(b2, b1)
    basis = [
        _E0_IDEMPOTENT,
        geometric_product(geometric_product(b3, b1), _E0_IDEMPOTENT),
        geometric_product(geometric_product(b3, b0), _E0_IDEMPOTENT),
        geometric_product(geometric_product(b1, b0), _E0_IDEMPOTENT),
    ]
    return tuple((s, geometric_product(unit, s)) for s in basis)


def mother_spinor_basis(frame: SpinorialFrame) -> list[Multivector]:
    """s_1 = e, s_2 = b3 b1 e, s_3 = b3 b0 e, s_4 = b1 b0 e, with
    e = (1 + b0)/2: each is u~ S_i u for the fiducial S_i of the fixed
    blades, so it lies in the frame's ideal up to the rounding of the
    sandwich rather than of three products by the frame's vectors."""
    return [_carry(s, frame) for s, _ in _fiducial_mother_basis()]


def mother_spinor_expand(phi: ASRep) -> list[tuple[float, float]]:
    """Coefficients (a_i, b_i) with phi = sum (a_i + b_i b2 b1) s_i; the
    formally-complex unit b2 b1 is kept as a real-algebra factor.  The fit
    A x = phi over the columns u~ S_i u and u~ E_2 E_1 S_i u is accepted
    within IDEAL_ROUNDINGS eps max_i sum_j |A_ij| |x_j|, the rounding of A x
    (the columns are of size |u|^2); ASRep's check rejects an element near
    the ideal but not in it, which the fit can absorb."""
    import numpy as np

    columns = [_carry(x, phi.frame) for pair in _fiducial_mother_basis() for x in pair]
    A = np.array([col.coefficients() for col in columns]).T
    rhs = np.array(phi.element.coefficients())
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    resid = A @ sol - rhs
    if np.max(np.abs(resid)) > IDEAL_ROUNDINGS * _EPS * np.max(np.abs(A) @ np.abs(sol)):
        raise SpinorValueError("element is outside the spanned ideal")
    return [(float(sol[2 * i]), float(sol[2 * i + 1])) for i in range(4)]


def mother_spinor_assemble(
    coeffs: list[tuple[float, float]], frame: SpinorialFrame
) -> ASRep:
    """sum (a_i + b_i b2 b1) s_i, summed on the fiducial basis and carried
    to the frame by one sandwich."""
    total = Multivector.zero(SIG13)
    for (a, b), (s, unit_s) in zip(coeffs, _fiducial_mother_basis()):
        total = total + a * s + b * unit_s
    return ASRep(frame, _carry(total, frame))


# -- recovery from covariants --------------------------------------------------------

# P_+- = (1 +- sigma3)/2 for sigma3 = E3 E0 = e4e1 = -e1e4: the recovery reads
# the columns psi_0 P_+- off J e1 +- (-K e1) = 2 psi_0 P_+- psi_0^dagger.
_COLUMN_PROJECTORS = {s: Multivector(SIG13, {0: 0.5, 0b1001: -0.5 * s}) for s in (1, -1)}


def _column(M: Multivector, s: int) -> Multivector:
    """psi_0 P_s times a unit phase e^{g5 a}, from M = 2 psi_0 P_s psi_0^dagger,
    or zero for an empty column.  In Cl+(1,3) = M(2,C), M is the rank-one
    Hermitian 2 v v^dagger of the column v = psi_0 P_s.  Of X = 1 and
    X = sigma1 = e2e1, the one with the larger c^2 = <(X P_s)^dagger M X P_s>_0
    gives M X P_s / (2c) = v times a unit phase; in exact arithmetic c^2 is
    positive for one of them unless v = 0.  c^2 = <M X P_s X^dagger>_0 is a scalar product with P_-s
    (X = 1) or P_s (X = sigma1): the diagonal of M."""
    d1 = scalar_product(_COLUMN_PROJECTORS[-s], M)
    d2 = scalar_product(_COLUMN_PROJECTORS[s], M)
    c2 = max(d1, d2)
    if c2 <= 0.0:
        return Multivector.zero(SIG13)
    Y = M if d1 >= d2 else _times_blade(M, 0b0011, -1.0)
    return geometric_product(Y, _COLUMN_PROJECTORS[s]) * (0.5 / math.sqrt(c2))


def _euclid(x: Multivector, y: Multivector) -> float:
    """The Euclidean inner product of two real coefficient vectors."""
    yt = y._terms
    return sum(c * yt.get(m, 0) for m, c in x._terms.items())


def recover_from_covariants(c: BilinearCovariants, frame: SpinorialFrame) -> DHSRep:
    """Some psi' whose covariants equal c, regular or singular; unique up to
    a right phase factor e^{g2 g1 phi} (E3 E2 in the fiducial frame).  It
    recovers psi_0 with the fiducial gammas and returns psi_0 u in the frame
    (u, b).

    With psi^dagger = e1 reversion(psi) e1, J e1 = psi_0 psi_0^dagger and
    -K e1 = psi_0 sigma3 psi_0^dagger, so J e1 -+ K e1 = 2 psi_0 P_+- psi_0^dagger
    are rank one, and each gives the column psi_0 P_+- up to a phase
    (``_column``).  Their sum is psi_0 e^{g5 alpha} e^{E3E2 phi}, which has
    the covariants J and K.  The central phase e^{g5 alpha} turns
    sigma + omega g5 = psi_0 reversion(psi_0) into e^{2 alpha g5} times
    itself, and S into e^{2 alpha g5} S, so alpha is read from sigma and
    omega for a regular spinor, from S for a singular one, and is free when
    S = 0 as well.  No rotor is built, so no rotor check bounds the input:
    covariants that carry the rounding of a frame of any rapidity are
    accepted, and zero covariants give psi' = 0."""
    A = _times_blade(c.J, 0b0001)
    C = _times_blade(c.K, 0b0001, -1.0)
    psi0 = _column(A + C, 1) + _column(A - C, -1)
    if _regular(c.sigma, c.omega, c.J.norm() ** 2):
        # (sigma' + omega' i)(sigma - omega i) = rho^2 e^{2 alpha i}
        sigma, omega = _sigma_omega(*_quadratic_forms(psi0, _SIGMA_OMEGA_FORM))
        x, y = sigma * c.sigma + omega * c.omega, omega * c.sigma - sigma * c.omega
    else:
        # S' = (cos 2 alpha + sin 2 alpha g5) S, and S g5 is orthogonal to S.
        _, S, _ = _quadratic_forms(psi0, _JSK_FORMS)
        x, y = _euclid(S, c.S), _euclid(S, _times_blade(c.S, 0b1111, -1.0))
    alpha = 0.5 * math.atan2(y, x)
    if alpha:
        psi0 = geometric_product(psi0, exp_beta_gamma5(-alpha))
    return DHSRep(frame, _from_fiducial(psi0, frame))
