"""Spinor calculus in Cl(1,3): algebraic and operator spinor representatives,
frame changes, bilinear covariants, the quadratic identity suite relating
them, and the canonical (density / duality-angle / rotor) decomposition.

Index conventions: a spinorial frame's vectors b_0..b_3 are the lower-index
frame vectors; the upper-index ones are g^0 = b_0 and g^i = -b_i.  The volume
element g5 = g^0 g^1 g^2 g^3 is frame-independent under even rotors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import (
    Rotor,
    SpinorialFrame,
    fiducial_spinorial_frame,
    random_rotor,
    rotor_between,
)
from .multivector import (
    G5,
    Multivector,
    Signature,
    geometric_product,
    hodge_dual,
    reversion,
    right_contraction,
    scalar_product,
)

SIG13 = Signature(1, 3)
REGULARITY_EPS2 = 1e-20


class SingularSpinorError(ArithmeticError):
    pass


class SpinorValueError(ValueError):
    pass


def gamma5() -> Multivector:
    return G5


def gamma_lower(frame: SpinorialFrame, mu: int) -> Multivector:
    return frame.frame.vectors[mu]


def gamma_upper(frame: SpinorialFrame, mu: int) -> Multivector:
    v = frame.frame.vectors[mu]
    return v if mu == 0 else -v


def frame_idempotent(frame: SpinorialFrame) -> Multivector:
    """The frame's spinor-projector e = (1 + b_0)/2."""
    return (1 + gamma_lower(frame, 0)) * 0.5


@dataclass(frozen=True)
class DHSRep:
    """Operator-spinor representative: an even multivector tied to a frame."""

    frame: SpinorialFrame
    psi: Multivector

    def __post_init__(self) -> None:
        if self.psi.signature != SIG13 or self.frame.signature != SIG13:
            raise SpinorValueError("operator spinors live in Cl(1,3)")
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
        # Relative to the element's own size, so a uniform rescaling of the
        # element keeps the verdict.
        e = frame_idempotent(self.frame)
        scale = self.element.max_abs()
        if (geometric_product(self.element, e) - self.element).max_abs() > 1e-9 * scale:
            raise SpinorValueError("element is not in the frame's left ideal")


@dataclass(frozen=True)
class BilinearCovariants:
    sigma: float
    omega: float
    J: Multivector
    S: Multivector
    K: Multivector

    def __post_init__(self) -> None:
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


# -- frame changes and the two representations ---------------------------------


def change_frame(s: "DHSRep | ASRep", target: SpinorialFrame):
    """New representative psi' = psi u^{-1} u' for a target frame (u', b')."""
    if target.signature != s.frame.signature:
        raise SpinorValueError("frames of different signature")
    shift = geometric_product(s.frame.u.inverse_mv(), target.u.u)
    if isinstance(s, DHSRep):
        return DHSRep(target, geometric_product(s.psi, shift))
    return ASRep(target, geometric_product(s.element, shift))


def as_from_dhs(d: DHSRep) -> ASRep:
    return ASRep(d.frame, geometric_product(d.psi, frame_idempotent(d.frame)))


def dhs_from_as(a: ASRep) -> DHSRep:
    return DHSRep(a.frame, 2.0 * a.element.even())


# -- bilinear covariants --------------------------------------------------------


def _sigma_omega(psi: Multivector, psit: Multivector) -> tuple[float, float]:
    """(sigma, omega) from psi reversion(psi) = sigma + omega g5."""
    agg = geometric_product(psi, psit)
    # The grade-4 part is omega * g5, and g5 = -e1e2e3e4.
    return agg.scalar_part().real, -agg.coeff(0b1111).real


def bilinear_covariants(d: DHSRep) -> BilinearCovariants:
    psi = d.psi
    psit = reversion(psi)
    sigma, omega = _sigma_omega(psi, psit)
    g0 = gamma_upper(d.frame, 0)
    g1 = gamma_upper(d.frame, 1)
    g2 = gamma_upper(d.frame, 2)
    g3 = gamma_upper(d.frame, 3)
    J = geometric_product(geometric_product(psi, g0), psit)
    S = geometric_product(geometric_product(psi, geometric_product(g1, g2)), psit)
    K = geometric_product(geometric_product(psi, g3), psit)
    return BilinearCovariants(sigma=sigma, omega=omega, J=J.grade(1), S=S.grade(2), K=K.grade(1))


def _regular(sigma: float, omega: float, scale2: float) -> bool:
    """Whether sigma^2 + omega^2 = rho^2 is nonzero relative to scale2, a
    squared scale of order rho^2: |psi|^4 for a spinor psi, |J|^2 for its
    covariants.  A uniform rescaling of psi keeps the verdict."""
    return sigma * sigma + omega * omega > REGULARITY_EPS2 * scale2


def is_regular(d: DHSRep) -> bool:
    sigma, omega = _sigma_omega(d.psi, reversion(d.psi))
    return _regular(sigma, omega, d.psi.norm() ** 4)


# -- identity suite over the covariants ------------------------------------------


def _rel(lhs: Multivector, rhs: Multivector) -> float:
    return (lhs - rhs).max_abs() / max(1.0, lhs.max_abs(), rhs.max_abs())


def fierz_residuals(c: BilinearCovariants) -> dict[str, float]:
    """Max-abs relative residuals of the quadratic covariant identities.
    tests/test_fierz_proof.py proves each one, in the form stated here, as
    an exact polynomial identity in the coefficients of a generic spinor."""
    sig, om = c.sigma, c.omega
    J, S, K = c.J, c.S, c.K
    g5 = G5
    one = Multivector.scalar(SIG13, 1.0)
    starS = hodge_dual(S)
    JJ = complex(scalar_product(J, J)).real
    res: dict[str, float] = {}

    res["J.J = sigma^2 + omega^2"] = abs(JJ - (sig**2 + om**2)) / max(1.0, abs(JJ))
    res["J.K = 0"] = abs(complex(scalar_product(J, K)).real) / max(1.0, abs(JJ))
    res["J.J = -K.K"] = abs(JJ + complex(scalar_product(K, K)).real) / max(1.0, abs(JJ))
    res["J^K = -(omega + sigma g5) S"] = _rel(
        J ^ K, -geometric_product(om + sig * g5, S)
    )

    res["(*S)|_J = -sigma K"] = _rel(right_contraction(starS, J), -sig * K)
    res["(*S)|_K = -sigma J"] = _rel(right_contraction(starS, K), -sig * J)
    res["S.S = sigma^2 - omega^2"] = abs(
        complex(scalar_product(S, S)).real - (sig**2 - om**2)
    ) / max(1.0, sig**2 + om**2)
    res["S|_J = omega K"] = _rel(right_contraction(S, J), om * K)
    res["S|_K = omega J"] = _rel(right_contraction(S, K), om * J)
    res["(*S).S = 2 sigma omega"] = abs(
        complex(scalar_product(starS, S)).real - 2 * sig * om
    ) / max(1.0, sig**2 + om**2)

    res["J S = -(omega + sigma g5) K"] = _rel(
        geometric_product(J, S), -geometric_product(om + sig * g5, K)
    )
    res["S J = (omega - sigma g5) K"] = _rel(
        geometric_product(S, J), geometric_product(om - sig * g5, K)
    )
    res["K S = -(omega + sigma g5) J"] = _rel(
        geometric_product(K, S), -geometric_product(om + sig * g5, J)
    )
    res["S K = (omega - sigma g5) J"] = _rel(
        geometric_product(S, K), geometric_product(om - sig * g5, J)
    )
    res["S^2 = omega^2 - sigma^2 - 2 sigma omega g5"] = _rel(
        geometric_product(S, S), (om**2 - sig**2) * one - (2 * sig * om) * g5
    )
    ksk = geometric_product(geometric_product(K, S), K)
    res["S (K S K) = (J.J)^2"] = _rel(geometric_product(S, ksk), (JJ**2) * one)
    return res


# -- canonical decomposition -----------------------------------------------------


def exp_beta_gamma5(beta: float) -> Multivector:
    """e^{beta g5} = cos(beta) + sin(beta) g5, since g5^2 = -1."""
    return math.cos(beta) + math.sin(beta) * G5


def canonical_decompose(d: DHSRep) -> CanonicalFactors:
    sigma, omega = _sigma_omega(d.psi, reversion(d.psi))
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


def mother_spinor_basis(frame: SpinorialFrame) -> list[Multivector]:
    """s_1 = e, s_2 = b3 b1 e, s_3 = b3 b0 e, s_4 = b1 b0 e, with
    e = (1 + b0)/2 from the frame's own vectors."""
    b0, b1, _, b3 = frame.frame.vectors
    e = frame_idempotent(frame)
    return [
        e,
        geometric_product(geometric_product(b3, b1), e),
        geometric_product(geometric_product(b3, b0), e),
        geometric_product(geometric_product(b1, b0), e),
    ]


def mother_spinor_expand(phi: ASRep) -> list[tuple[float, float]]:
    """Coefficients (a_i, b_i) with phi = sum (a_i + b_i b2 b1) s_i; the
    formally-complex unit b2 b1 is kept as a real-algebra factor."""
    frame = phi.frame
    basis = mother_spinor_basis(frame)
    b0, b1, b2, b3 = frame.frame.vectors
    unit = geometric_product(b2, b1)
    columns = []
    for s in basis:
        columns.append(s)
        columns.append(geometric_product(unit, s))
    A = np.array([col.coefficients() for col in columns]).real.T
    rhs = np.array(phi.element.coefficients()).real
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    resid = A @ sol - rhs
    if np.max(np.abs(resid)) > 1e-9 * max(1.0, np.max(np.abs(rhs))):
        raise SpinorValueError("element is outside the spanned ideal")
    return [(float(sol[2 * i]), float(sol[2 * i + 1])) for i in range(4)]


def mother_spinor_assemble(
    coeffs: list[tuple[float, float]], frame: SpinorialFrame
) -> ASRep:
    basis = mother_spinor_basis(frame)
    _, b1, b2, _ = frame.frame.vectors
    unit = geometric_product(b2, b1)
    total = Multivector.zero(SIG13)
    for (a, b), s in zip(coeffs, basis):
        total = total + a * s + b * geometric_product(unit, s)
    return ASRep(frame, total)


# -- recovery from covariants --------------------------------------------------------


def recover_from_covariants(c: BilinearCovariants, frame: SpinorialFrame) -> DHSRep:
    """Some psi' whose covariants equal c; unique up to a right phase factor
    e^{g2 g1 phi}.  Requires regular covariants."""
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
    # Pull K back to the rest frame; w3 is unit spacelike, orthogonal to g0.
    w3 = geometric_product(
        geometric_product(R0.inverse_mv(), (1.0 / rho) * c.K), R0.u
    ).grade(1)
    # For unit spacelike vectors 1 - w.g runs from 0 (antipodal) to 2 (equal).
    if 1.0 - complex(scalar_product(w3, g3)).real >= 1.0:
        R1 = rotor_between(w3, g3)
    else:
        # w3 is in the far hemisphere from g3, where the one-plane rotor loses
        # digits as w3 nears -g3: go through the nearer of g1 and g2.
        gk = max((g1, g2), key=lambda g: 1.0 - complex(scalar_product(w3, g)).real)
        R1 = rotor_between(w3, gk) * rotor_between(gk, g3)
    R = R0 * R1
    psi = geometric_product(rho**0.5 * exp_beta_gamma5(beta / 2), R.u)
    return DHSRep(frame, psi)
