"""Clifford group machinery: Pin/Spin membership tests, adjoint actions,
rotor-to-matrix maps, and spinorial frames.

A spinorial frame is fixed by its rotor u: its vector frame b_i = u^{-1} E_i u
is derived from u once, when the frame is built, so a frame whose vectors do
not match its rotor cannot be built.  Equality and hashing read u alone.
Frames with rotors u and -u carry the same vector frame but compare as
distinct values; that sign is exactly the 2*pi-rotation memory spinors care
about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .multivector import (
    Multivector,
    NonInvertibleError,
    Signature,
    _max_gap,
    _sign_weight,
    exp_bivector,
    geometric_product,
    grade_involution,
    inverse,
    norm_N,
    reversion,
    scalar_product,
)

# An absolute bound on |u reversion(u) - 1|, unlike the checks that scale with
# their inputs: rotors are not scale-free.  u reversion(u) = 1 is not
# homogeneous in u (10^k u is no rotor for k != 0), so there is no input scale
# to divide by; the residual is measured against the unit 1.
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
        if any(m.bit_count() & 1 for m in self.u._terms):
            raise NotARotorError("rotor must be an even element")
        inverse = reversion(self.u)
        if _max_gap(geometric_product(self.u, inverse), 1) > ROTOR_TOL:
            raise NotARotorError("rotor must satisfy u * reversion(u) = 1")
        object.__setattr__(self, "inverse", inverse)

    @property
    def signature(self) -> Signature:
        return self.u.signature

    def inverse_mv(self) -> Multivector:
        return self.inverse

    def __mul__(self, other: "Rotor") -> "Rotor":
        return Rotor(geometric_product(self.u, other.u))

    def __neg__(self) -> "Rotor":
        # Negation is exact, so (-u)(-u~) is u u~ and -u~ is reversion(-u)
        # to the bit: the check this rotor passed holds for its negative too.
        neg = object.__new__(Rotor)
        object.__setattr__(neg, "u", -self.u)
        object.__setattr__(neg, "inverse", -self.inverse)
        return neg


@dataclass(frozen=True)
class VectorFrame:
    vectors: tuple[Multivector, ...]

    def __post_init__(self) -> None:
        if not self.vectors:
            raise FrameError("empty frame")
        sig = self.vectors[0].signature
        squares = sig.squares
        if len(self.vectors) != sig.n:
            raise FrameError(f"frame needs {sig.n} vectors, got {len(self.vectors)}")
        # A frame computed from a rotor carries rounding errors of the size
        # of its largest vector s in every vector, so v.w is off by up to
        # about eps s (|v| + |w|): 6e-5 for b_0.b_0 of a rapidity-14 boost,
        # 1e-10 for the vectors it leaves alone.  The factor 1e-12 is 30
        # times the largest such ratio measured (random rotors of rapidity up
        # to 14 and their products, n <= 6), added to the absolute 1e-9 that
        # admits the slack ROTOR_TOL leaves in a rotor's frame.
        norms = [v.norm() for v in self.vectors]
        s = max(norms)
        for i, v in enumerate(self.vectors):
            if v.grades() - {1}:
                raise FrameError("frame members must be grade-1")
            for j, w in enumerate(self.vectors):
                want = squares[i] if i == j else 0.0
                if abs(scalar_product(v, w) - want) > 1e-9 + 1e-12 * s * (norms[i] + norms[j]):
                    raise FrameError("frame is not g-orthonormal")

    @property
    def signature(self) -> Signature:
        return self.vectors[0].signature

    def __getitem__(self, i: int) -> Multivector:
        return self.vectors[i]

    def __len__(self) -> int:
        return len(self.vectors)


def fiducial_frame(sig: Signature) -> VectorFrame:
    return VectorFrame(tuple(Multivector.generator(sig, i + 1) for i in range(sig.n)))


@dataclass(frozen=True)
class SpinorialFrame:
    u: Rotor
    frame: VectorFrame = field(init=False, compare=False)
    rotor_inverse: Multivector = field(init=False, compare=False)

    def __post_init__(self) -> None:
        sig = self.u.signature
        uinv = self.u.inverse_mv()
        # The terms of b_i = u^{-1} E_i u are of size |u|^2, so its non-vector
        # part is checked against |u|^2.  For n <= 5 that part is rounding
        # alone, but an even u with u u~ = 1 need not map vectors to vectors
        # beyond: in Cl(6,0), u = (1 + e1...e6)/sqrt(2) sends e1 to grade 5.
        # The factor 1e-12 is 70 times the largest error measured against
        # |u|^2 (as for VectorFrame), added to the absolute 1e-8 that admits
        # the slack ROTOR_TOL leaves in u.
        tol = 1e-8 + 1e-12 * self.u.u.norm() ** 2
        vectors = []
        for i in range(sig.n):
            pulled = geometric_product(geometric_product(uinv, Multivector.generator(sig, i + 1)), self.u.u)
            b = pulled.grade(1)
            if _max_gap(pulled, b) > tol:
                raise FrameError("u^{-1} E_i u is not a vector")
            vectors.append(b)
        object.__setattr__(self, "frame", VectorFrame(tuple(vectors)))
        object.__setattr__(self, "rotor_inverse", uinv)

    @property
    def signature(self) -> Signature:
        return self.u.signature


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


def is_clifford_group(g: Multivector, tol: float = ROTOR_TOL) -> bool:
    sig = g.signature
    try:
        ghat_inv = inverse(grade_involution(g))
    except NonInvertibleError:
        return False
    for i in range(sig.n):
        v = Multivector.generator(sig, i + 1)
        image = geometric_product(geometric_product(g, v), ghat_inv)
        if _max_gap(image, image.grade(1)) > tol:
            return False
    return True


def is_pin(g: Multivector, tol: float = ROTOR_TOL) -> bool:
    if not is_clifford_group(g, tol):
        return False
    n = norm_N(g)
    return abs(abs(complex(n).real) - 1.0) <= tol and abs(complex(n).imag) <= tol


def is_spin(g: Multivector, tol: float = ROTOR_TOL) -> bool:
    return is_pin(g, tol) and not any(k % 2 for k in g.grades())


def is_spin_e(g: Multivector, tol: float = ROTOR_TOL) -> bool:
    """Even, in the Clifford group, and |N(g) - 1| <= tol, which implies
    is_pin's bound on N(g) since ||x| - 1| <= |x - 1|.  For n <= 5 the
    identity component is exactly the set of even g with g * reversion(g)
    = 1, which is checked as well."""
    if not is_clifford_group(g, tol) or any(k % 2 for k in g.grades()):
        return False
    if abs(complex(norm_N(g)) - 1.0) > tol:
        return False
    return g.signature.n > 5 or _max_gap(geometric_product(g, reversion(g)), 1) <= tol


# -- rotor-to-matrix ----------------------------------------------------------


def lorentz_matrix_of(u: Rotor) -> np.ndarray:
    """Matrix L with u E_i u^{-1} = L[j,i] E_j over the fiducial frame."""
    if not is_spin_e(u.u):
        raise NotARotorError("lorentz_matrix_of requires a Spin^e element")
    sig = u.signature
    n = sig.n
    uinv = u.inverse_mv()
    L = np.zeros((n, n))
    for i in range(n):
        image = geometric_product(
            geometric_product(u.u, Multivector.generator(sig, i + 1)), uinv, grades=(1,)
        )
        for j in range(n):
            L[j, i] = image.coeff(1 << j).real
    return L


# -- frame actions ------------------------------------------------------------


def frame_right_action(a: Rotor, f: SpinorialFrame) -> SpinorialFrame:
    """(u, b) -> (u a, a^{-1} b a), with the new b derived from u a."""
    if a.signature != f.signature:
        raise FrameError("signature mismatch in frame action")
    return SpinorialFrame(f.u * a)


# -- rotor constructions --------------------------------------------------------


def rotor_between(v: Multivector, w: Multivector) -> Rotor:
    """Rotor R with R w R^{-1} = v, for unit vectors v, w of equal square sign."""
    if v.grades() - {1} or w.grades() - {1}:
        raise ValueError("rotor_between needs grade-1 inputs")
    sv = scalar_product(v, v)
    sw = scalar_product(w, w)
    if abs(abs(complex(sv).real) - 1) > 1e-9 or abs(complex(sv) - complex(sw)) > 1e-9:
        raise ValueError("rotor_between needs unit vectors of equal square sign")
    s = 1 if complex(sv).real > 0 else -1
    dot = complex(scalar_product(v, w)).real
    denom = 2.0 * (1.0 + dot) if s == 1 else 2.0 * (1.0 - dot)
    if denom <= 1e-12:
        raise ValueError("v + w is null; use a two-step construction")
    vw = geometric_product(v, w)
    r = (1 + vw) if s == 1 else (1 - vw)
    return Rotor(r * (1.0 / denom ** 0.5))


def random_bivector(sig: Signature, rng: np.random.Generator, scale: float = 1.0) -> Multivector:
    """Bivector with components uniform in [-1,1]; components on blades with
    square +1 (boost planes) are halved to keep exponentials tame."""
    terms: dict[int, complex] = {}
    for i in range(sig.n):
        for j in range(i + 1, sig.n):
            mask = (1 << i) | (1 << j)
            c = float(rng.uniform(-1.0, 1.0)) * scale
            # e_m e_m = (-1)^popcount(m & w) for the weight mask w of m.
            if not (mask & _sign_weight(sig.p, mask)).bit_count() & 1:
                c *= 0.5
            terms[mask] = c
    return Multivector(sig, terms)


def random_rotor(sig: Signature, rng: np.random.Generator, scale: float = 1.0) -> Rotor:
    return Rotor(exp_bivector(random_bivector(sig, rng, scale)))
