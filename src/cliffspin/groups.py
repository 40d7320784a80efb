"""Clifford group machinery: Pin/Spin membership tests, adjoint actions,
rotor-to-matrix maps, and spinorial frames.

A spinorial frame is fixed by its rotor u, and every object in it is the
fiducial one moved by u: a spinor psi_0 u, and its vectors, idempotent and
projector u~ X u, as ``_to_fiducial``, ``_from_fiducial`` and ``_carry``
compute for every module.  ``Rotor`` refuses a complex u, and checks that
u E_i u~ is a vector above n = 5, where an even u with u u~ = 1 need not map
vectors to vectors, so every rotor is a real frame's.  That check is the only
proof: the vectors b_i = u~ E_i u are derived, unchecked, the first time
``frame`` is read (no function of the package reads them), and
``lorentz_matrix_of`` reads any rotor.  Equality and hashing read u alone.
Frames with rotors u and -u carry the same vector frame but compare as
distinct values; that sign is exactly the 2*pi-rotation memory spinors care
about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import TYPE_CHECKING

from .multivector import (
    Multivector,
    NonInvertibleError,
    Signature,
    _max_gap,
    _sign_weight,
    _times_blade,
    exp_bivector,
    geometric_product,
    grade_involution,
    inverse,
    norm_N,
    reversion,
    scalar_product,
)

if TYPE_CHECKING:
    import numpy as np

# An absolute bound on |u reversion(u) - 1|, unlike the checks that scale with
# their inputs: rotors are not scale-free.  u reversion(u) = 1 is not
# homogeneous in u (10^k u is no rotor for k != 0), so there is no input scale
# to divide by; the residual is measured against the unit 1.  The Clifford
# group, Pin, Spin and Spin^e tests read the same bound.
ROTOR_TOL = 1e-10


class NotARotorError(ValueError):
    pass


class FrameError(ValueError):
    pass


@dataclass(frozen=True)
class Rotor:
    u: Multivector
    inverse: Multivector = field(init=False, compare=False, repr=False)  # reversion(u)

    def __post_init__(self) -> None:
        u = self.u
        if not u.real:
            raise NotARotorError("rotor must be real")
        if any(m.bit_count() & 1 for m in u._terms):
            raise NotARotorError("rotor must be an even element")
        inverse = reversion(u)
        if _max_gap(geometric_product(u, inverse), 1) > ROTOR_TOL:
            raise NotARotorError("rotor must satisfy u * reversion(u) = 1")
        # For n <= 5 an even u with u u~ = 1 maps vectors to vectors, but not
        # beyond: in Cl(6,0), u = (1 + e1...e6)/sqrt(2) sends e1 to grade 5.
        # So there u E_i u~ is checked for each generator.
        if u.signature.n > 5 and not _maps_vectors_to_vectors(u, inverse, _vector_tol(u)):
            raise NotARotorError("rotor must map vectors to vectors: u E_i reversion(u)")
        object.__setattr__(self, "inverse", inverse)

    @property
    def signature(self) -> Signature:
        return self.u.signature

    def __mul__(self, other: "Rotor") -> "Rotor":
        return Rotor(geometric_product(self.u, other.u))

    def __neg__(self) -> "Rotor":
        # Negation is exact, so (-u)(-u~) is u u~ and -u~ is reversion(-u)
        # to the bit: the check this rotor passed holds for its negative too.
        neg = object.__new__(Rotor)
        object.__setattr__(neg, "u", -self.u)
        object.__setattr__(neg, "inverse", -self.inverse)
        return neg


def _maps_vectors_to_vectors(g: Multivector, ginv: Multivector, tol: float) -> bool:
    """Whether each image (g E_i) ginv is a vector within tol.  g E_i is
    _times_blade's signed permutation, and only the image's other grades
    are formed: their largest coefficient is the gap between the image and
    its vector part."""
    n = g.signature.n
    others = [k for k in range(n + 1) if k != 1]
    for i in range(n):
        if geometric_product(_times_blade(g, 1 << i), ginv, grades=others).max_abs() > tol:
            return False
    return True


def _vector_tol(u: Multivector) -> float:
    """The bound on the non-vector part of u E_i u~ (Rotor).  Its terms
    are of size |u|^2, so the part is checked against |u|^2: the factor
    1e-12 is 70 times the largest error measured against |u|^2 (as for
    VectorFrame), added to the absolute 1e-8 that admits the slack ROTOR_TOL
    leaves in u."""
    return 1e-8 + 1e-12 * u.norm() ** 2


@dataclass(frozen=True)
class VectorFrame:
    vectors: tuple[Multivector, ...]
    signature: Signature = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        vectors = self.vectors
        if not vectors:
            raise FrameError("empty frame")
        sig = vectors[0].signature
        object.__setattr__(self, "signature", sig)
        squares = sig.squares
        if len(vectors) != sig.n:
            raise FrameError(f"frame needs {sig.n} vectors, got {len(vectors)}")
        # A frame computed from a rotor carries rounding errors of the size
        # of its largest vector s in every vector, so v.w is off by up to
        # about eps s (|v| + |w|): 6e-5 for b_0.b_0 of a rapidity-14 boost,
        # 1e-10 for the vectors it leaves alone.  The factor 1e-12 is 30
        # times the largest such ratio measured (random rotors of rapidity up
        # to 14 and their products, n <= 6), added to the absolute 1e-9 that
        # admits the slack ROTOR_TOL leaves in a rotor's frame.
        norms = [v.norm() for v in vectors]
        s = max(norms)
        for i, v in enumerate(vectors):
            if v.grades() - {1}:
                raise FrameError("frame members must be grade-1")
            for j, w in enumerate(vectors):
                want = squares[i] if i == j else 0.0
                if abs(scalar_product(v, w) - want) > 1e-9 + 1e-12 * s * (norms[i] + norms[j]):
                    raise FrameError("frame is not g-orthonormal")


def fiducial_frame(sig: Signature) -> VectorFrame:
    return VectorFrame(tuple(Multivector.generator(sig, i + 1) for i in range(sig.n)))


@dataclass(frozen=True)
class SpinorialFrame:
    """The frame (u, b) fixed by the rotor u; u^{-1} is ``u.inverse``."""

    u: Rotor
    _rotor: Multivector | None = field(init=False, compare=False, repr=False)  # u, or None when u = 1

    def __post_init__(self) -> None:
        u = self.u.u
        object.__setattr__(self, "_rotor", None if u == Multivector.one(u.signature) else u)

    @cached_property
    def frame(self) -> VectorFrame:
        """The vectors b_i = <u^{-1} E_i u>_1, derived on first use: Rotor
        has checked that u maps vectors to vectors."""
        sig = self.u.signature
        generators = (Multivector.generator(sig, i + 1) for i in range(sig.n))
        return VectorFrame(tuple(_carry(e, self).grade(1) for e in generators))

    @property
    def signature(self) -> Signature:
        return self.u.signature


# -- the class map psi = psi_0 u ------------------------------------------------


def _unmoved(x: Multivector, f: SpinorialFrame) -> Multivector:
    """x itself for the frame u = 1, after the signature check that the
    product by u it skips would have made."""
    x._check_sig(f.u.u)
    return x


def _to_fiducial(x: Multivector, f: SpinorialFrame) -> Multivector:
    """x u~: the fiducial representative of x in the frame u."""
    return _unmoved(x, f) if f._rotor is None else geometric_product(x, f.u.inverse)


def _from_fiducial(x: Multivector, f: SpinorialFrame) -> Multivector:
    """x u: the representative in the frame u of the fiducial x."""
    return _unmoved(x, f) if f._rotor is None else geometric_product(x, f._rotor)


def _carry(x: Multivector, f: SpinorialFrame) -> Multivector:
    """u~ x u: the image in the frame u of the fiducial frame's x."""
    if f._rotor is None:
        return _unmoved(x, f)
    return geometric_product(geometric_product(f.u.inverse, x), f._rotor)


def spinorial_frame_of(u: Rotor) -> SpinorialFrame:
    """Frame reached from the fiducial one by u: b_i = u^{-1} E_i u."""
    return SpinorialFrame(u)


@cache
def fiducial_spinorial_frame(sig: Signature) -> SpinorialFrame:
    """The frame (1, E): built and checked once per signature, since
    signatures are shared instances and frames are immutable."""
    return SpinorialFrame(Rotor(Multivector.one(sig)))


# -- actions ------------------------------------------------------------------


def adjoint(u: Multivector | Rotor, x: Multivector) -> Multivector:
    g = u.u if isinstance(u, Rotor) else u
    ginv = reversion(g) if isinstance(u, Rotor) else inverse(g)
    return geometric_product(geometric_product(g, x), ginv)


def twisted_adjoint(g: Multivector, x: Multivector) -> Multivector:
    return geometric_product(geometric_product(g, x), inverse(grade_involution(g)))


# -- group membership ---------------------------------------------------------


def is_clifford_group(g: Multivector) -> bool:
    """Whether g is invertible and each image (g E_i) ghat^{-1}, with ghat
    the grade involution of g, is a vector within ROTOR_TOL."""
    try:
        ghat_inv = inverse(grade_involution(g))
    except NonInvertibleError:
        return False
    return _maps_vectors_to_vectors(g, ghat_inv, ROTOR_TOL)


def is_pin(g: Multivector) -> bool:
    if not is_clifford_group(g):
        return False
    n = norm_N(g)
    return abs(abs(complex(n).real) - 1.0) <= ROTOR_TOL and abs(complex(n).imag) <= ROTOR_TOL


def is_spin(g: Multivector) -> bool:
    return is_pin(g) and not any(k % 2 for k in g.grades())


def is_spin_e(g: Multivector) -> bool:
    """Even, in the Clifford group, and |N(g) - 1| <= ROTOR_TOL, which
    implies is_pin's bound on N(g) since ||x| - 1| <= |x - 1|.  For n <= 5
    the identity component is exactly the set of even g with g * reversion(g)
    = 1, which is checked as well."""
    if not is_clifford_group(g) or any(k % 2 for k in g.grades()):
        return False
    if abs(complex(norm_N(g)) - 1.0) > ROTOR_TOL:
        return False
    return g.signature.n > 5 or _max_gap(geometric_product(g, reversion(g)), 1) <= ROTOR_TOL


# -- rotor-to-matrix ----------------------------------------------------------


def lorentz_matrix_of(u: Rotor) -> np.ndarray:
    """Matrix L with u E_i u^{-1} = L[j,i] E_j over the fiducial frame."""
    import numpy as np

    n = u.signature.n
    L = np.zeros((n, n))
    for i in range(n):
        image = geometric_product(_times_blade(u.u, 1 << i), u.inverse, grades=(1,))
        for j in range(n):
            L[j, i] = image.coeff(1 << j)
    return L


# -- frame actions ------------------------------------------------------------


def frame_right_action(a: Rotor, f: SpinorialFrame) -> SpinorialFrame:
    """(u, b) -> (u a, a^{-1} b a), with the new b derived from u a."""
    if a.signature != f.signature:
        raise FrameError("signature mismatch in frame action")
    return SpinorialFrame(f.u * a)


# -- rotor constructions --------------------------------------------------------


def rotor_between(v: Multivector, w: Multivector) -> Rotor:
    """Rotor R with R w R^{-1} = v, for real unit vectors v, w of equal
    square sign.  v.v is a sum of terms +-c^2 and rounds at eps times the
    sum of the c^2, which grows as the square of a boost's |p|/m, so each
    unit check is relative to the sum of the squared terms that formed it."""
    if v.grades() - {1} or w.grades() - {1}:
        raise ValueError("rotor_between needs grade-1 inputs")
    if not (v.real and w.real):
        raise ValueError("rotor_between needs real vectors")
    sv, sw = scalar_product(v, v), scalar_product(w, w)
    vv = sum(c * c for c in v._terms.values())
    ww = sum(c * c for c in w._terms.values())
    if abs(abs(sv) - 1) > 1e-9 * vv or abs(sv - sw) > 1e-9 * (vv + ww):
        raise ValueError("rotor_between needs unit vectors of equal square sign")
    s = 1 if sv > 0 else -1
    dot = scalar_product(v, w)
    denom = 2.0 * (1.0 + dot) if s == 1 else 2.0 * (1.0 - dot)
    if denom <= 1e-12:
        raise ValueError("v + w is null; use a two-step construction")
    vw = geometric_product(v, w)
    r = (1 + vw) if s == 1 else (1 - vw)
    return Rotor(r * (1.0 / denom ** 0.5))


def random_bivector(sig: Signature, rng: np.random.Generator) -> Multivector:
    """Bivector with components uniform in [-1,1]; components on blades with
    square +1 (boost planes) are halved to keep exponentials tame."""
    terms: dict[int, complex] = {}
    for i in range(sig.n):
        for j in range(i + 1, sig.n):
            mask = (1 << i) | (1 << j)
            c = float(rng.uniform(-1.0, 1.0))
            # e_m e_m = (-1)^popcount(m & w) for the weight mask w of m.
            if not (mask & _sign_weight(sig.p, mask)).bit_count() & 1:
                c *= 0.5
            terms[mask] = c
    return Multivector(sig, terms)


def random_rotor(sig: Signature, rng: np.random.Generator) -> Rotor:
    return Rotor(exp_bivector(random_bivector(sig, rng)))
