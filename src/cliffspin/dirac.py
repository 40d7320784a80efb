"""Three formulations of the Dirac equation on the constant global coframe
of Minkowski spacetime (natural units, metric +---):

  operator form:   D psi g2 g1 - m psi g0 + q A psi = 0
  ideal form:      D Phi - m Phi g5 + q A Phi g5 = 0,  Phi = psi e e'
  matrix form:     gamma^mu (i d_mu + q A_mu) Psi - m Psi = 0

with D = gamma^mu d_mu built from the coordinate coframe.  Plane-wave fields
carry analytic derivatives: D psi = V (psi B) with one vector V per field.
The three residuals at one point share psi(x), psi B and D psi, and the
matrix form applies each gamma matrix as a signed permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .groups import (
    Rotor,
    SpinorialFrame,
    fiducial_spinorial_frame,
    frame_right_action,
    is_spin_e,
    rotor_between,
)
from .matrixrep import _blade_columns, _first_column
from .multivector import G5, Multivector, SignatureMismatchError, geometric_product
from .spinors import SIG13, frame_idempotent, gamma_lower

ETA = (1.0, -1.0, -1.0, -1.0)


class DiracError(ValueError):
    pass


@dataclass(frozen=True)
class ConstantPotential:
    A: Multivector
    q_charge: float

    def __post_init__(self) -> None:
        if self.A.grades() - {1}:
            raise DiracError("potential must be grade-1")


def zero_potential() -> ConstantPotential:
    return ConstantPotential(Multivector.zero(SIG13), 0.0)


# The coordinate coframe gamma^mu: g^0 = e1, g^i = -e_{i+1}.
_COORDINATE_COFRAME = tuple(
    Multivector.generator(SIG13, mu + 1) * (1.0 if mu == 0 else -1.0) for mu in range(4)
)


@dataclass(frozen=True)
class PlaneWaveDHSF:
    """psi(x) = psi0 * exp(-energy_sign * B * (p.x)) with B the frame's
    g2 g1 phase bivector (B^2 = -1), so d_mu psi = c_mu psi B with
    c_mu = -s eta_mu p^mu, and D psi = V (psi B) with V = sum_mu c_mu gamma^mu.

    The fields are frozen, so what depends on them alone is computed on
    first use and kept with the field: ``phase_bivector`` B, ``projector``
    e e' of the ideal form and ``dirac_vector`` V on the coordinate coframe.
    A field made by ``dataclasses.replace`` or a gauge map computes its own.

    ``evaluate`` computes psi(x) afresh on every call.  The residuals,
    ``spin_dirac_apply`` and ``partials`` read psi(x), psi B and D psi from
    one module-level slot that keeps them for the most recent (field, x), so
    all of them evaluated in turn at one point compute the three once."""

    frame: SpinorialFrame
    psi0: Multivector
    p: Multivector
    m: float
    energy_sign: int

    def __post_init__(self) -> None:
        if self.energy_sign not in (1, -1):
            raise DiracError("energy_sign must be +1 or -1")
        if self.p.grades() - {1}:
            raise DiracError("momentum must be grade-1")
        if self.p.signature != SIG13:
            sig = self.p.signature
            raise SignatureMismatchError(f"momentum must be in Cl(1,3), got Cl({sig.p},{sig.q})")
        if any(g % 2 for g in self.psi0.grades()):
            raise DiracError("amplitude must be even")

    @cached_property
    def phase_bivector(self) -> Multivector:
        """B = g2 g1 of the field's frame."""
        return geometric_product(gamma_lower(self.frame, 2), gamma_lower(self.frame, 1))

    @cached_property
    def projector(self) -> Multivector:
        """asf_projector(frame), the e e' of the ideal form."""
        return asf_projector(self.frame)

    @cached_property
    def dirac_vector(self) -> Multivector:
        """V = sum_mu c_mu gamma^mu on the coordinate coframe."""
        terms = zip(self._coefficients(), _COORDINATE_COFRAME)
        return sum((c * g for c, g in terms), Multivector.zero(SIG13))

    def _coefficients(self) -> list[float]:
        return [-self.energy_sign * (ETA[mu] * self.p.coeff(1 << mu).real) for mu in range(4)]

    def phase_at(self, x: Sequence[float]) -> float:
        """p.x = sum of eta_mu p^mu x^mu, summed over p's terms in their
        order and over nonzero x^mu only, from 0.0: the real part of
        scalar_product(p, x) to the bit, for the Cl(1,3) vector p that
        __post_init__ checked.  A non-finite x^mu raises."""
        xs = [float(x[mu]) for mu in range(4)]
        if not all(map(math.isfinite, xs)):
            raise ValueError("non-finite coefficient")
        theta = 0.0
        for mask, c in self.p._terms.items():
            mu = mask.bit_length() - 1
            if xs[mu] != 0.0:
                theta += ETA[mu] * c.real * xs[mu]
        return theta

    def evaluate(self, x: Sequence[float]) -> Multivector:
        theta = self.phase_at(x)
        B = self.phase_bivector
        # exp(-s*B*theta) = cos(theta) - s*sin(theta) B, since B^2 = -1
        rot = math.cos(theta) - self.energy_sign * math.sin(theta) * B
        return geometric_product(self.psi0, rot)

    def partials(self, x: Sequence[float]) -> list[Multivector]:
        """[d_0 psi, ..., d_3 psi] at x: d_mu psi = c_mu psi(x) B, with
        psi(x) B built once for all four indices."""
        psi_b = _point(self, x)[1]
        return [c * psi_b for c in self._coefficients()]


# The most recent (field, xs, (psi, psi B, D psi)) that _point computed.  It
# is written as one tuple and read once, so a concurrent caller can at worst
# compute a point again; it keeps one field alive, not one point per field.
_last_point: tuple | None = None


def _point(field: PlaneWaveDHSF, x: Sequence[float]) -> tuple[Multivector, Multivector, Multivector]:
    """(psi(x), psi(x) B, V (psi(x) B)) for the field at x.  A call with the
    same field object and equal coordinates as the one before returns what
    that call computed; a miss computes all three and keeps them.  A
    non-finite coordinate raises in evaluate before anything is kept, so it
    raises on every call."""
    global _last_point
    xs = tuple(float(x[mu]) for mu in range(4))
    last = _last_point
    if last is not None and last[0] is field and last[1] == xs:
        return last[2]
    psi = field.evaluate(xs)
    psi_b = geometric_product(psi, field.phase_bivector)
    point = (psi, psi_b, geometric_product(field.dirac_vector, psi_b))
    _last_point = (field, xs, point)
    return point


def spin_dirac_apply(field: PlaneWaveDHSF, x: Sequence[float]) -> Multivector:
    """Analytic D psi = gamma^mu d_mu psi = V (psi B) at x, with V = sum_mu
    c_mu gamma^mu on the coordinate coframe (dirac_vector)."""
    return _point(field, x)[2]


def dhe_residual(
    field: PlaneWaveDHSF,
    pot: ConstantPotential | None,
    m: float,
    x: Sequence[float],
    left_rotor: Rotor | None = None,
) -> Multivector:
    """D psi g2 g1 - m psi g0 + q A psi at x, with the frame's own g2 g1 and
    g0 and D psi = V (psi B).  With left_rotor=s the coframe is transported to
    s gamma^mu s^{-1} (active left gauge), so V becomes s V s^{-1}."""
    psi, psi_b, dpsi = _point(field, x)
    g21 = field.phase_bivector
    if left_rotor is not None:
        v = geometric_product(left_rotor.u, field.dirac_vector)
        dpsi = geometric_product(geometric_product(v, left_rotor.inverse), psi_b)
    g0 = gamma_lower(field.frame, 0)
    res = geometric_product(dpsi, g21) - m * geometric_product(psi, g0)
    if pot is not None and pot.q_charge != 0.0:
        res = res + pot.q_charge * geometric_product(pot.A, psi)
    return res


def planewave_solution(
    m: float,
    spatial_momentum: Sequence[float],
    sign: int = 1,
    pot: ConstantPotential | None = None,
) -> PlaneWaveDHSF:
    """Plane wave in the fiducial frame with kinetic momentum on the mass
    shell: pi^0 = +sqrt(m^2 + |p|^2).  For a constant potential the phase
    momentum is shifted so the equation still holds exactly."""
    if m <= 0:
        raise DiracError("mass must be positive")
    if sign not in (1, -1):
        raise DiracError("sign must be +1 or -1")
    frame = fiducial_spinorial_frame(SIG13)
    p1, p2, p3 = (float(c) for c in spatial_momentum)
    p0 = math.sqrt(m * m + p1 * p1 + p2 * p2 + p3 * p3)
    pi = Multivector(SIG13, {1: p0, 2: p1, 4: p2, 8: p3})
    v = (1.0 / m) * pi
    g0 = gamma_lower(frame, 0)
    R = rotor_between(v, g0)
    if sign == 1:
        psi0 = R.u
    else:
        psi0 = geometric_product(R.u, G5)
    # The amplitude condition is (sign*p + qA) psi0 = m psi0 g0, giving the
    # phase momentum p = sign * (kin_sign * pi - q A) with kin_sign = sign.
    if pot is None or pot.q_charge == 0.0:
        p = pi
    else:
        p = pi - float(sign) * pot.q_charge * pot.A
    return PlaneWaveDHSF(frame=frame, psi0=psi0, p=p, m=m, energy_sign=sign)


# -- ideal (algebraic-spinor) form ----------------------------------------------


def asf_projector(frame: SpinorialFrame) -> Multivector:
    """e e' = (1 + g0)/2 (1 + g3 g0)/2 from the frame's own vectors."""
    e = frame_idempotent(frame)
    ep = (1 + geometric_product(gamma_lower(frame, 3), gamma_lower(frame, 0))) * 0.5
    return geometric_product(e, ep)


def asf_residual(
    field: PlaneWaveDHSF,
    pot: ConstantPotential | None,
    m: float,
    x: Sequence[float],
) -> Multivector:
    """D Phi - m Phi g5 + q A Phi g5 at x, with Phi = psi e e' and g5 the
    volume element G5 = g^0 g^1 g^2 g^3 = -g0 g1 g2 g3.

    The form is the operator form right-multiplied by e e' and then by g5,
    so this residual is dhe_residual(...) e e' g5.  With e = (1 + g0)/2 and
    e' = (1 + g3 g0)/2 from the frame's own vectors:
      g0 e = e, so psi g0 e e' = Phi;
      (g3 g0)^2 = 1 and g3 g0 commutes with e', so Phi g3 g0 = Phi;
      g2 g1 commutes with g0 and with g3 g0, so
        psi g2 g1 e e' = Phi g2 g1 = Phi g3 g0 g2 g1 = Phi g0 g1 g2 g3 = -Phi g5;
      D acts from the left, so (D psi) g2 g1 e e' = -(D Phi) g5.
    The operator form times e e' reads -(D Phi) g5 - m Phi + q A Phi = 0.
    Right-multiplying by g5, with g5^2 = -1, gives the form above, in which
    the mass term and the charge term both carry the right factor g5.
    """
    proj = field.projector
    psi, _, dpsi = _point(field, x)
    phi = geometric_product(psi, proj)
    dphi = geometric_product(dpsi, proj)
    res = dphi - m * geometric_product(phi, G5)
    if pot is not None and pot.q_charge != 0.0:
        res = res + pot.q_charge * geometric_product(geometric_product(pot.A, phi), G5)
    return res


# -- matrix form ------------------------------------------------------------------


def _column_at(field: PlaneWaveDHSF, x: Sequence[float]) -> list[complex]:
    return _first_column(geometric_product(_point(field, x)[0], field.frame.u.inverse))


def matrix_column_at(field: PlaneWaveDHSF, x: Sequence[float]) -> np.ndarray:
    """Column spinor Psi(x): the first column of matrix_of(psi(x) u^-1), the
    fiducial-frame representative projected with the standard spin
    idempotent, summed from the blade table without building the matrix."""
    return np.array(_column_at(field, x), dtype=complex)


@lru_cache(maxsize=1)
def _upper_gammas() -> tuple[tuple[tuple[int, complex], ...], ...]:
    """gamma^mu as (row, entry) per column: gamma^0 = gamma_0, gamma^i = -gamma_i."""
    return tuple(
        tuple((row, e if mu == 0 else -e) for row, e in _blade_columns()[1 << mu])
        for mu in range(4)
    )


def matrix_dirac_residual(
    field: PlaneWaveDHSF,
    pot: ConstantPotential | None,
    m: float,
    x: Sequence[float],
) -> np.ndarray:
    """gamma^mu (i d_mu + q A_mu) Psi - m Psi with analytic d_mu Psi.  Each
    gamma^mu has one entry, +-1 or +-i, per column, so it acts on the column
    as a signed permutation of Python complex numbers.  Each component is
    summed in the order of the array form res + gamma^mu @ term, so the
    result equals that form bit for bit (tests/matrix_oracle.py)."""
    col = _column_at(field, x)
    res = [-m * c for c in col]
    q = pot.q_charge if pot is not None else 0.0
    for mu, gamma in enumerate(_upper_gammas()):
        p_lower = ETA[mu] * field.p.coeff(1 << mu).real
        k = -1j * field.energy_sign * p_lower
        term = [1j * (k * c) for c in col]
        if q != 0.0 and pot is not None:
            qa = q * (ETA[mu] * pot.A.coeff(1 << mu).real)
            term = [t + qa * c for t, c in zip(term, col)]
        for (row, e), t in zip(gamma, term):
            res[row] += e * t
    return np.array(res, dtype=complex)


# -- gauge transformations ----------------------------------------------------------


def _require_spin_e(s: Rotor) -> None:
    if not is_spin_e(s.u):
        raise DiracError("gauge element must be in Spin^e")


def right_gauge(field: PlaneWaveDHSF, s: Rotor) -> PlaneWaveDHSF:
    """psi -> psi s^{-1} with the frame relabeled to (u s^{-1}, s b s^{-1});
    the equation is form-invariant and the residual maps to residual * s^{-1}."""
    _require_spin_e(s)
    sinv = s.inverse
    new_frame = frame_right_action(Rotor(sinv), field.frame)
    return replace(field, frame=new_frame, psi0=geometric_product(field.psi0, sinv))


@dataclass(frozen=True)
class GaugedSystem:
    field: PlaneWaveDHSF
    pot: ConstantPotential | None
    left_rotor: Rotor | None


def left_gauge(
    field: PlaneWaveDHSF, s: Rotor, pot: ConstantPotential | None = None
) -> GaugedSystem:
    """Active transformation psi -> s psi, A -> s A s^{-1}, with the
    derivative operator transported to s gamma^mu s^{-1} d_mu."""
    _require_spin_e(s)
    new_field = replace(field, psi0=geometric_product(s.u, field.psi0))
    if pot is not None:
        newA = geometric_product(geometric_product(s.u, pot.A), s.inverse, grades=(1,))
        pot = replace(pot, A=newA)
    return GaugedSystem(field=new_field, pot=pot, left_rotor=s)


def both_gauge(
    field: PlaneWaveDHSF, s: Rotor, pot: ConstantPotential | None = None
) -> GaugedSystem:
    """Simultaneous transformation: psi -> s psi s^{-1} with the frame
    relabeled, A -> s A s^{-1}, operator transported as in left_gauge."""
    sys_left = left_gauge(field, s, pot)
    return replace(sys_left, field=right_gauge(sys_left.field, s))
