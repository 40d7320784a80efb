"""Three formulations of the Dirac equation on the constant global coframe
of Minkowski spacetime (natural units, metric +---):

  operator form:   D psi g2 g1 - m psi g0 + q A psi = 0
  ideal form:      D Phi - m Phi g5 + q A Phi g5 = 0,  Phi = psi e e'
  matrix form:     gamma^mu (i d_mu + q A_mu) Psi - m Psi = 0

with D = gamma^mu d_mu built from the coordinate coframe.  Plane-wave fields
carry analytic derivatives: D psi = V (psi B) with one vector V per field.
``planewave_solution`` writes the amplitude out from the momentum: the boost
R = (1 + v E_0)/sqrt(2 (1 + v0)) that takes E_0 to v = pi/m, with the bits
of ``groups.rotor_between(v, E_0)``, and R g5 for negative energy.  Only
``Rotor``'s check u u~ = 1 bounds the boost; its absolute tolerance refuses
some boosts from |p|/m of about 7e5 on, by rounding of size eps |p|/m.

A field in the frame Xi_u is the class of psi = psi_0 u (spinors module
docstring), and the frame's vectors are g_mu = u~ E_mu u.  So psi g_mu =
(psi_0 E_mu) u, psi g2 g1 = (psi_0 E_2 E_1) u and psi e e' = (psi_0 P_0) u,
with P_0 the fiducial frame's e e': each residual in Xi_u is the fiducial
residual of psi_0 times u.  The forms compute on psi_0(x) with the fixed
blades E_0 = e1, E_2 E_1 = -e2e3 and g5 = -e1e2e3e4 (``_times_blade``, no
product) and P_0, and never derive a moved frame's vectors; the maps by u
are the groups module's ``_to_fiducial`` and ``_from_fiducial``.  In a moved
frame each term is multiplied by u before the terms are summed: near the
mass shell the summed residual is rounding alone, so its blades would change
from point to point, and each new key set compiles a new kernel.  The
three residuals at one point share psi_0(x), psi_0(x) E_2 E_1 and
D psi_0 = V (psi_0(x) E_2 E_1), and the matrix form applies each gamma
matrix as a signed permutation of psi_0(x)'s first column.

The operator and ideal residuals each end in the sum t0 - m t1 + q t2 of
their terms in the frame, summed on floats in one pass that builds one
multivector (``_real_residual``), with the bits and key order of the chain
of Multivector operators t0 - m*t1 + q*t2.  The terms are real, since the
amplitude, momentum, potential and charge are (``PlaneWaveDHSF`` and
``ConstantPotential`` refuse complex ones); only the matrix form is
complex.

A gauge map takes any Cl(1,3) ``Rotor``: in Cl(1,3) Spin^e is the set of
even u with u u~ = 1, which ``Rotor`` checks.  A right gauge relabels the
frame and keeps the class's fiducial representative psi u~, so the gauged
field computes every form from the field's own a_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from numbers import Integral
from typing import TYPE_CHECKING, Sequence

from .groups import (
    Rotor,
    SpinorialFrame,
    _carry,
    _from_fiducial,
    _to_fiducial,
    fiducial_spinorial_frame,
)
from .matrixrep import _blade_columns, _first_column
from .multivector import (
    Multivector,
    SignatureMismatchError,
    _stored,
    _times_blade,
    geometric_product,
)
from .spinors import _E0_IDEMPOTENT, SIG13, _require_finite_real

if TYPE_CHECKING:
    import numpy as np

ETA = (1.0, -1.0, -1.0, -1.0)

# The fixed blades the forms multiply by, as (mask, sign) for _times_blade:
# E_0 = e1, E_2 E_1 = e3 e2 = -e2e3 and g5 = G5 = -e1e2e3e4.
_E0 = (0b0001, 1.0)
_E21 = (0b0110, -1.0)
_G5 = (0b1111, -1.0)


class DiracError(ValueError):
    pass


@dataclass(frozen=True)
class ConstantPotential:
    A: Multivector
    q_charge: float

    def __post_init__(self) -> None:
        if self.A.grades() - {1}:
            raise DiracError("potential must be grade-1")
        sig = self.A.signature
        if sig != SIG13:
            raise SignatureMismatchError(f"potential must be in Cl(1,3), got Cl({sig.p},{sig.q})")
        if not self.A.real:
            raise DiracError("potential must be real")
        _require_finite_real(self.q_charge, "charge", DiracError)


def zero_potential() -> ConstantPotential:
    return ConstantPotential(Multivector.zero(SIG13), 0.0)


@dataclass(frozen=True)
class PlaneWaveDHSF:
    """psi(x) = psi0 * exp(-energy_sign * B * (p.x)) with B the frame's
    g2 g1 phase bivector (B^2 = -1), so d_mu psi = c_mu psi B with
    c_mu = -s eta_mu p^mu, and D psi = V (psi B) with V = sum_mu c_mu gamma^mu.

    In the frame u, B = u~ E_2 E_1 u, so the fiducial representative is
    psi_0(x) = psi(x) u~ = cos(p.x) a_0 - s sin(p.x) (a_0 E_2 E_1) with
    a_0 = psi0 u~, and every form is computed on it (module docstring).

    The fields are frozen, so what depends on them alone is computed on
    first use and kept with the field: ``dirac_vector`` V on the coordinate
    coframe and ``_amplitude`` (a_0, a_0 E_2 E_1), with a_0 psi0 itself when
    u = 1.  A field made by ``dataclasses.replace`` or ``left_gauge``
    computes its own amplitude; ``right_gauge`` keeps the field's, since a
    right gauge leaves psi u~ as it was.  Both gauge maps keep the field's
    V, which depends on p and the energy sign alone.

    ``evaluate`` computes psi(x) afresh on every call.  The residuals,
    ``spin_dirac_apply`` and ``partials`` read psi_0(x), psi_0(x) E_2 E_1
    and D psi_0 from one module-level slot that keeps them for the most
    recent (field, x), so all of them evaluated in turn at one point compute
    the three once."""

    frame: SpinorialFrame
    psi0: Multivector
    p: Multivector
    m: float
    energy_sign: int

    def __post_init__(self) -> None:
        sign = self.energy_sign
        # An int skips the isinstance tests, as _require_finite_real's float does.
        integral = type(sign) is int or not isinstance(sign, bool) and isinstance(sign, Integral)
        if not integral or sign not in (1, -1):
            raise DiracError("energy_sign must be +1 or -1")
        _require_finite_real(self.m, "mass", DiracError)
        if self.m <= 0:
            raise DiracError("mass must be positive")
        if self.p.grades() - {1}:
            raise DiracError("momentum must be grade-1")
        for name, x in (("momentum", self.p), ("amplitude", self.psi0), ("frame", self.frame)):
            sig = x.signature
            if sig is not SIG13:  # equal signatures are one shared instance
                raise SignatureMismatchError(f"{name} must be in Cl(1,3), got Cl({sig.p},{sig.q})")
        if any(g % 2 for g in self.psi0.grades()):
            raise DiracError("amplitude must be even")
        if not self.psi0.real:
            raise DiracError("amplitude must be real")
        if not self.p.real:
            raise DiracError("momentum must be real")

    @cached_property
    def dirac_vector(self) -> Multivector:
        """V = sum_mu c_mu gamma^mu on the coordinate coframe gamma^0 = e1,
        gamma^i = -e_{i+1}: the stored values of that sum, built in one dict."""
        c0, c1, c2, c3 = self._coefficients()
        return Multivector._own(SIG13, {1: c0, 2: -c1, 4: -c2, 8: -c3}, True)

    @cached_property
    def _amplitude(self) -> tuple[Multivector, Multivector]:
        """(a_0, a_0 E_2 E_1) with a_0 = psi0 u~."""
        a0 = _to_fiducial(self.psi0, self.frame)
        return a0, _times_blade(a0, *_E21)

    def _coefficients(self) -> list[float]:
        return [-self.energy_sign * (ETA[mu] * self.p.coeff(1 << mu)) for mu in range(4)]

    def phase_at(self, x: Sequence[float]) -> float:
        """p.x = sum of eta_mu p^mu x^mu, summed over p's terms in their
        order and over nonzero x^mu only, from 0.0: scalar_product(p, x) to
        the bit, for the real Cl(1,3) vector p that __post_init__ checked.
        A non-finite x^mu raises."""
        xs = [float(x[mu]) for mu in range(4)]
        if not all(map(math.isfinite, xs)):
            raise ValueError("non-finite coefficient")
        theta = 0.0
        for mask, c in self.p._terms.items():
            mu = mask.bit_length() - 1
            if xs[mu] != 0.0:
                theta += ETA[mu] * c * xs[mu]
        return theta

    def _fiducial_at(self, x: Sequence[float]) -> Multivector:
        """psi_0(x) = cos(theta) a_0 - s sin(theta) (a_0 E_2 E_1), theta = p.x,
        with no product.  Each value is the sum of the two scaled terms of
        its blade, so it holds the bits of psi0 (cos(theta) - s sin(theta) B)
        in the fiducial frame; its keys are a_0's, then a_0 E_2 E_1's new ones."""
        theta = self.phase_at(x)
        a0, a0b = self._amplitude
        c, t = math.cos(theta), -self.energy_sign * math.sin(theta)
        terms = {m: c * v for m, v in a0._terms.items()}
        for m, v in a0b._terms.items():
            terms[m] = terms[m] + t * v if m in terms else t * v
        return Multivector._own(SIG13, terms, True)

    def evaluate(self, x: Sequence[float]) -> Multivector:
        """psi(x) = psi_0(x) u."""
        return _from_fiducial(self._fiducial_at(x), self.frame)

    def partials(self, x: Sequence[float]) -> list[Multivector]:
        """[d_0 psi, ..., d_3 psi] at x: d_mu psi = c_mu psi(x) B, with
        psi(x) B = (psi_0(x) E_2 E_1) u built once for all four indices."""
        psi_b = _from_fiducial(_point(self, x)[1], self.frame)
        return [c * psi_b for c in self._coefficients()]


# The most recent (field, xs, (psi_0, psi_0 E_2 E_1, D psi_0)) that _point
# computed.  It is written as one tuple and read once, so a concurrent caller
# can at worst compute a point again; it keeps one field alive, not one point
# per field.
_last_point: tuple | None = None


def _point(field: PlaneWaveDHSF, x: Sequence[float]) -> tuple[Multivector, Multivector, Multivector]:
    """(psi_0(x), psi_0(x) E_2 E_1, V (psi_0(x) E_2 E_1)) for the field at x.
    A call with the same field object and equal coordinates as the one
    before returns what that call computed; a miss computes all three and
    keeps them.  A non-finite coordinate raises in phase_at before anything
    is kept, so it raises on every call."""
    global _last_point
    xs = tuple(float(x[mu]) for mu in range(4))
    last = _last_point
    if last is not None and last[0] is field and last[1] == xs:
        return last[2]
    psi = field._fiducial_at(xs)
    psi_b = _times_blade(psi, *_E21)
    point = (psi, psi_b, geometric_product(field.dirac_vector, psi_b))
    _last_point = (field, xs, point)
    return point


# The most recent (field, rotor, s V s^{-1}) that _transported computed; a
# slot like _last_point's, read by the left-gauged operator form.
_last_transport: tuple | None = None


def _transported(field: PlaneWaveDHSF, s: Rotor) -> Multivector:
    """(s V) s^{-1}, the field's V on the coframe s gamma^mu s^{-1}, kept for
    the most recent (field, s) objects."""
    global _last_transport
    last = _last_transport
    if last is not None and last[0] is field and last[1] is s:
        return last[2]
    v = geometric_product(geometric_product(s.u, field.dirac_vector), s.inverse)
    _last_transport = (field, s, v)
    return v


def _residual(
    field: PlaneWaveDHSF, pot: ConstantPotential | None, m: float, terms: list[Multivector]
) -> Multivector:
    """t0 - m t1 + q t2 for the fiducial terms [t0, t1, t2] (t2 only when
    charged), each first carried to the frame as t u (``_from_fiducial``,
    t itself when u = 1), so that the products see the terms' own key sets,
    and summed on floats by ``_real_residual``."""
    terms = [_from_fiducial(t, field.frame) for t in terms]
    q = pot.q_charge if len(terms) > 2 else 0.0
    return _real_residual(float(m), float(q), *terms)


def _real_residual(
    m: float, q: float, t0: Multivector, t1: Multivector, t2: Multivector | None = None
) -> Multivector:
    """t0 - m t1 + q t2 of real terms in one pass over their dicts, built
    once.  Each value is t0's (or 0.0), minus m x, plus q z: the stored
    values of the operator chain, since a + (-b) is a - b in IEEE 754,
    negation is exact and 0.0 - y is -y for y nonzero.  The sums that are
    exactly 0 are dropped before q t2 is added, as the chain's t0 - m t1
    drops them, so a key that q t2 brings back comes last, as in the chain.
    A value that overflows stays non-finite to the end, where ``_stored``
    raises the chain's ValueError."""
    out = dict(t0._terms)
    get = out.get
    for k, c in t1._terms.items():
        out[k] = get(k, 0.0) - m * c
    if t2 is not None:
        out = {k: v for k, v in out.items() if v}
        get = out.get
        for k, c in t2._terms.items():
            out[k] = get(k, 0.0) + q * c
    return Multivector._trusted(t0.signature, _stored(out, out.values()), True)


def _charged(pot: ConstantPotential | None) -> bool:
    return pot is not None and pot.q_charge != 0.0


def spin_dirac_apply(field: PlaneWaveDHSF, x: Sequence[float]) -> Multivector:
    """Analytic D psi = gamma^mu d_mu psi = V (psi B) = (D psi_0) u at x, with
    V = sum_mu c_mu gamma^mu on the coordinate coframe (dirac_vector)."""
    return _from_fiducial(_point(field, x)[2], field.frame)


def dhe_residual(
    field: PlaneWaveDHSF,
    pot: ConstantPotential | None,
    m: float,
    x: Sequence[float],
    left_rotor: Rotor | None = None,
) -> Multivector:
    """D psi g2 g1 - m psi g0 + q A psi at x, computed as
    ((D psi_0) E_2 E_1 - m psi_0 E_0 + q A psi_0) u.  With left_rotor=s the
    coframe is transported to s gamma^mu s^{-1} (active left gauge), so V
    becomes s V s^{-1}."""
    _require_finite_real(m, "mass", DiracError)
    psi, psi_b, dpsi = _point(field, x)
    if left_rotor is not None:
        dpsi = geometric_product(_transported(field, left_rotor), psi_b)
    terms = [_times_blade(dpsi, *_E21), _times_blade(psi, *_E0)]
    if _charged(pot):
        terms.append(geometric_product(pot.A, psi))
    return _residual(field, pot, m, terms)


def planewave_solution(
    m: float,
    spatial_momentum: Sequence[float],
    sign: int = 1,
    pot: ConstantPotential | None = None,
) -> PlaneWaveDHSF:
    """Plane wave in the fiducial frame with kinetic momentum on the mass
    shell: pi^0 = +sqrt(m^2 + |p|^2).  For a constant potential the phase
    momentum is shifted so the equation still holds exactly.  The boost R
    that takes E_0 to v = pi/m is written blade by blade from v E_0 = v0 -
    v1 e1e2 - v2 e1e3 - v3 e1e4, with the float operations and key order of
    ``rotor_between(v, E_0)``."""
    _require_finite_real(m, "mass", DiracError)
    if m <= 0:
        raise DiracError("mass must be positive")
    if sign not in (1, -1):
        raise DiracError("sign must be +1 or -1")
    frame = fiducial_spinorial_frame(SIG13)
    p1, p2, p3 = (float(c) for c in spatial_momentum)
    p0 = math.sqrt(m * m + p1 * p1 + p2 * p2 + p3 * p3)
    pi = Multivector(SIG13, {1: p0, 2: p1, 4: p2, 8: p3})
    k = 1.0 / m
    v0, v1, v2, v3 = p0 * k, p1 * k, p2 * k, p3 * k
    s = 1.0 / (2.0 * (1.0 + v0)) ** 0.5
    boost = {0: (v0 + 1) * s, 0b0011: (0.0 - v1) * s, 0b0101: (0.0 - v2) * s, 0b1001: (0.0 - v3) * s}
    R = Rotor(Multivector._own(SIG13, boost, True))
    psi0 = R.u if sign == 1 else _times_blade(R.u, *_G5)
    # The amplitude condition is (sign*p + qA) psi0 = m psi0 g0, giving the
    # phase momentum p = sign * (kin_sign * pi - q A) with kin_sign = sign.
    if pot is None or pot.q_charge == 0.0:
        p = pi
    else:
        p = pi - float(sign) * pot.q_charge * pot.A
    return PlaneWaveDHSF(frame=frame, psi0=psi0, p=p, m=m, energy_sign=sign)


# -- ideal (algebraic-spinor) form ----------------------------------------------


def asf_projector(frame: SpinorialFrame) -> Multivector:
    """e e' = (1 + g0)/2 (1 + g3 g0)/2 for the frame's vectors g_mu =
    u~ E_mu u, computed as u~ P_0 u."""
    return _carry(_fiducial_projector(), frame)


@lru_cache(maxsize=1)
def _fiducial_projector() -> Multivector:
    """P_0 = (1 + E_0)/2 (1 + E_3 E_0)/2, the fiducial frame's e e'."""
    e0, e3 = Multivector.generator(SIG13, 1), Multivector.generator(SIG13, 4)
    return geometric_product(_E0_IDEMPOTENT, (1 + geometric_product(e3, e0)) * 0.5)


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

    In the frame u, e e' = u~ P_0 u and g5 commutes with u, so Phi =
    (psi_0 P_0) u and the residual is computed as
    ((D psi_0) P_0 - m Phi_0 g5 + q (A Phi_0) g5) u with Phi_0 = psi_0 P_0.
    """
    _require_finite_real(m, "mass", DiracError)
    proj = _fiducial_projector()
    psi, _, dpsi = _point(field, x)
    phi = geometric_product(psi, proj)
    terms = [geometric_product(dpsi, proj), _times_blade(phi, *_G5)]
    if _charged(pot):
        terms.append(_times_blade(geometric_product(pot.A, phi), *_G5))
    return _residual(field, pot, m, terms)


# -- matrix form ------------------------------------------------------------------


def _column_at(field: PlaneWaveDHSF, x: Sequence[float]) -> list[complex]:
    return _first_column(_point(field, x)[0])


def matrix_column_at(field: PlaneWaveDHSF, x: Sequence[float]) -> np.ndarray:
    """Column spinor Psi(x): the first column of matrix_of(psi_0(x)), the
    fiducial-frame representative psi(x) u^-1 projected with the standard
    spin idempotent, summed from the blade table without building the
    matrix."""
    import numpy as np

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
    _require_finite_real(m, "mass", DiracError)
    import numpy as np

    col = _column_at(field, x)
    res = [-m * c for c in col]
    q = pot.q_charge if pot is not None else 0.0
    for mu, gamma in enumerate(_upper_gammas()):
        p_lower = ETA[mu] * field.p.coeff(1 << mu)
        k = -1j * field.energy_sign * p_lower
        term = [1j * (k * c) for c in col]
        if q != 0.0 and pot is not None:
            qa = q * (ETA[mu] * pot.A.coeff(1 << mu))
            term = [t + qa * c for t, c in zip(term, col)]
        for (row, e), t in zip(gamma, term):
            res[row] += e * t
    return np.array(res, dtype=complex)


# -- gauge transformations ----------------------------------------------------------


def right_gauge(field: PlaneWaveDHSF, s: Rotor) -> PlaneWaveDHSF:
    """psi -> psi s^{-1} with the frame relabeled to (u s^{-1}, s b s^{-1});
    the equation is form-invariant and the residual maps to residual * s^{-1}.
    The class's fiducial representative does not change, psi s~ (u s~)~ =
    psi u~, so the new field keeps the field's ``_amplitude``, and its
    ``dirac_vector``, which depends on p and the energy sign alone."""
    sinv = s.inverse
    new_frame = SpinorialFrame(Rotor(geometric_product(field.frame.u.u, sinv)))
    moved = replace(field, frame=new_frame, psi0=geometric_product(field.psi0, sinv))
    moved.__dict__.update(_amplitude=field._amplitude, dirac_vector=field.dirac_vector)
    return moved


@dataclass(frozen=True)
class GaugedSystem:
    field: PlaneWaveDHSF
    pot: ConstantPotential | None
    left_rotor: Rotor | None


def left_gauge(
    field: PlaneWaveDHSF, s: Rotor, pot: ConstantPotential | None = None
) -> GaugedSystem:
    """Active transformation psi -> s psi, A -> s A s^{-1}, with the
    derivative operator transported to s gamma^mu s^{-1} d_mu.  The new
    field keeps the field's ``dirac_vector``, which depends on p and the
    energy sign alone, and computes its own ``_amplitude``."""
    new_field = replace(field, psi0=geometric_product(s.u, field.psi0))
    new_field.__dict__["dirac_vector"] = field.dirac_vector
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
