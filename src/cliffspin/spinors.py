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
from types import SimpleNamespace

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
    _max_gap,
    _sign_weight,
    geometric_product,
    hodge_dual,
    reversion,
    right_contraction,
    scalar_product,
    wedge,
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
        if _max_gap(geometric_product(self.element, e), self.element) > 1e-9 * self.element.max_abs():
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
    shift = geometric_product(s.frame.rotor_inverse, target.u.u)
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
    agg = geometric_product(psi, psit, grades=(0, 4))
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
    J = geometric_product(geometric_product(psi, g0), psit, grades=(1,))
    S = geometric_product(geometric_product(psi, geometric_product(g1, g2)), psit, grades=(2,))
    K = geometric_product(geometric_product(psi, g3), psit, grades=(1,))
    return BilinearCovariants(sigma=sigma, omega=omega, J=J, S=S, K=K)


def _regular(sigma: float, omega: float, scale2: float) -> bool:
    """Whether sigma^2 + omega^2 = rho^2 is nonzero relative to scale2, a
    squared scale of order rho^2: |psi|^4 for a spinor psi, |J|^2 for its
    covariants.  A uniform rescaling of psi keeps the verdict."""
    return sigma * sigma + omega * omega > REGULARITY_EPS2 * scale2


def is_regular(d: DHSRep) -> bool:
    sigma, omega = _sigma_omega(d.psi, reversion(d.psi))
    return _regular(sigma, omega, d.psi.norm() ** 4)


# -- identity suite over the covariants ------------------------------------------


def _residual(lhs: Multivector, a: float, b: float, X: Multivector) -> float:
    """max |lhs - rhs| / max(1, |lhs|, |rhs|) for rhs = (a + b g5) X, read
    from the coefficient dicts.  Each rhs value is the one that building rhs
    as a multivector stores (a X when b is 0), from the same float
    operations in the same order: a + b g5 is stored as {1111: -b, 0: a},
    its scalar dropped when a is 0, so each blade adds its g5 pair first.
    lhs is finite, so a non-finite rhs value is a non-finite gap, which
    raises ValueError, as building rhs or lhs - rhs would."""
    xt = X._terms
    rhs: dict[int, complex] = {}
    if b:
        g, w = G5._terms[0b1111] * complex(b), _sign_weight(1, 0b1111)
        rhs = {0b1111 ^ m: (-g if (m & w).bit_count() & 1 else g) * c for m, c in xt.items()}
    if a:
        s = complex(a)
        for m, c in xt.items():
            rhs[m] = rhs.get(m, 0) + s * c
    gap = _max_gap(lhs, rhs)
    return gap / max(1.0, lhs.max_abs(), max(map(abs, rhs.values()), default=0.0))


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
    ksk = ops.product(ops.product(K, S), K)
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
        "K S = -(omega + sigma g5) J": (ops.product(K, S), -om, -sig, J, None),
        "S K = (omega - sigma g5) J": (ops.product(S, K), om, -sig, J, None),
        "S^2 = omega^2 - sigma^2 - 2 sigma omega g5": (
            ops.product(S, S), om**2 - sig**2, -2 * sig * om, one, None
        ),
        "S (K S K) = (J.J)^2": (ops.product(S, ksk), JJ**2, 0, one, None),
    }


# fierz_statements on multivectors, with scalar products read as floats.
_MULTIVECTOR_OPS = SimpleNamespace(
    product=geometric_product,
    wedge=wedge,
    right_contraction=right_contraction,
    scalar_product=lambda x, y: complex(scalar_product(x, y)).real,
    hodge_dual=hodge_dual,
    one=Multivector.one(SIG13),
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
        geometric_product(R0.inverse_mv(), (1.0 / rho) * c.K), R0.u, grades=(1,)
    )
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
