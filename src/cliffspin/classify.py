"""Classification of Cl(p,q) as a matrix algebra, Radon-Hurwitz numbers,
primitive idempotents, minimal left ideals, and their division rings.

All idempotent coefficients produced here are dyadic rationals (+-2^-k),
which are exact in double precision, so idempotency and orthogonality checks
use exact equality.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .multivector import (
    Multivector,
    Signature,
    geometric_product,
)

_RING_BY_PQ_MOD8 = {
    0: "R",
    1: "R+R",
    2: "R",
    3: "C",
    4: "H",
    5: "H+H",
    6: "H",
    7: "C",
}

_RING_REAL_DIM = {"R": 1, "C": 2, "H": 4, "R+R": 2, "H+H": 8}
_BASE_RING = {"R": "R", "C": "C", "H": "H", "R+R": "R", "H+H": "H"}


class ClassificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class MatrixAlgebraDescriptor:
    ring: str  # one of R, C, H, R+R, H+H
    m: int

    @property
    def real_dimension(self) -> int:
        return _RING_REAL_DIM[self.ring] * self.m * self.m

    def __str__(self) -> str:
        base = _BASE_RING[self.ring]
        if self.ring.endswith("+" + base):
            return f"{base}({self.m}) ⊕ {base}({self.m})"
        return f"{self.ring}({self.m})"


@dataclass
class IdealDescriptor:
    idempotent: Multivector
    ideal_basis: list[Multivector]
    k_factors: int
    division_ring: str  # R, C, or H
    factors: list[Multivector] = field(default_factory=list)
    nonsimple_summand: bool = False


def radon_hurwitz(i: int) -> int:
    base = (0, 1, 2, 2, 3, 3, 3, 3)
    return base[i % 8] + 4 * (i // 8)


def idempotent_factor_count(p: int, q: int) -> int:
    Signature(p, q)
    return q - radon_hurwitz(q - p)


def is_simple(p: int, q: int) -> bool:
    return (p - q) % 4 != 1


def center_dim(p: int, q: int) -> int:
    return 1 if (p + q) % 2 == 0 else 2


def classify(p: int, q: int) -> MatrixAlgebraDescriptor:
    sig = Signature(p, q)
    ring = _RING_BY_PQ_MOD8[(p - q) % 8]
    total = 1 << sig.n
    m2 = total // _RING_REAL_DIM[ring]
    m = round(m2 ** 0.5)
    if m * m != m2:
        raise ClassificationError(f"dimension bookkeeping failed for Cl({p},{q})")
    return MatrixAlgebraDescriptor(ring, m)


# -- ideal machinery ----------------------------------------------------------


def _real_independent(images: Iterable[Multivector], tol: float = 1e-9) -> list[Multivector]:
    """The images, in order, that are not in the real span of the images kept
    before them: incremental Gaussian elimination on the real parts of the
    coefficients, pivoting on the largest entry, with a pivot tolerance."""
    rows: list[np.ndarray] = []
    pivots: list[int] = []
    kept: list[Multivector] = []
    for img in images:
        if img.is_zero():
            continue
        w = np.zeros(1 << img.signature.n)
        for mask, c in img.terms.items():
            w[mask] = c.real
        for row, piv in zip(rows, pivots):
            if w[piv] != 0.0:
                w = w - row * w[piv]
        idx = int(np.argmax(np.abs(w)))
        if abs(w[idx]) <= tol:
            continue
        rows.append(w / w[idx])
        pivots.append(idx)
        kept.append(img)
    return kept


def is_idempotent(e: Multivector) -> bool:
    return geometric_product(e, e) == e


def ideal_basis(e: Multivector) -> list[Multivector]:
    """Basis of the left ideal Cl(p,q)e over the reals, picked greedily from
    the images (blade * e) in ascending mask order."""
    if not is_idempotent(e):
        raise ValueError("ideal_basis requires an idempotent")
    return list(_ideal_basis(e))


@lru_cache(maxsize=1)
def _ideal_basis(e: Multivector) -> tuple[Multivector, ...]:
    # One entry suffices: find_primitive_idempotent stops right after the
    # rank probe (ideal_real_dim) that accepts its idempotent, so the basis
    # it then asks for is the one that probe has just spanned.
    sig = e.signature
    return tuple(
        _real_independent(
            geometric_product(Multivector.from_mask(sig, mask), e) for mask in range(1 << sig.n)
        )
    )


def ideal_real_dim(e: Multivector) -> int:
    return len(ideal_basis(e))


def ideal_dim_over_K(e: Multivector) -> int:
    """Dimension of Cl(p,q)e over the base division ring of the algebra's
    matrix-algebra classification."""
    sig = e.signature
    desc = classify(sig.p, sig.q)
    base_dim = _RING_REAL_DIM[_BASE_RING[desc.ring]]
    real_dim = ideal_real_dim(e)
    if real_dim % base_dim:
        raise ClassificationError("ideal dimension not divisible by base ring dimension")
    return real_dim // base_dim


def division_ring_of(e: Multivector) -> str:
    """Identify e Cl(p,q) e as R, C, or H by real dimension and structure."""
    if not is_idempotent(e):
        raise ValueError("division_ring_of requires an idempotent")
    sig = e.signature
    basis = _real_independent(
        geometric_product(geometric_product(e, Multivector.from_mask(sig, mask)), e)
        for mask in range(1 << sig.n)
    )
    d = len(basis)
    if d == 1:
        return "R"
    if d == 2:
        # Split off the trace direction: find t with t^2 = lambda * e.
        w = next(b for b in basis if not b.approx_eq(e, 1e-12))
        # Solve w^2 = alpha*e + beta*w for the structure constants.
        w2 = geometric_product(w, w)
        A = np.array([e.coefficients(), w.coefficients()]).real.T
        coeffs, *_ = np.linalg.lstsq(A, np.array(w2.coefficients()).real, rcond=None)
        alpha, beta = coeffs
        t = w - (beta / 2) * e
        lam = alpha + beta * beta / 4  # t^2 = lam * e
        if lam < -1e-12:
            return "C"
        raise ClassificationError("2-dimensional eCle is split, not a division ring")
    if d == 4:
        return "H"
    raise ClassificationError(f"eCl(p,q)e has unexpected real dimension {d}")


def is_primitive(e: Multivector) -> bool:
    sig = e.signature
    return ideal_dim_over_K(e) == classify(sig.p, sig.q).m


def _commuting_square_plus_blades(sig: Signature) -> list[int]:
    """Canonical blade masks with square +1, ascending grade then mask."""
    out = []
    one = Multivector.scalar(sig, 1.0)
    for mask in range(1, 1 << sig.n):
        b = Multivector.from_mask(sig, mask)
        if geometric_product(b, b) == one:
            out.append(mask)
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def find_primitive_idempotent(p: int, q: int, seed: int | None = None) -> IdealDescriptor:
    """Greedy search for a primitive idempotent as a product of commuting
    factors (1 + e_alpha)/2 over canonical blades with square +1.

    With seed=None candidates are tried in canonical order (ascending grade,
    then mask); an integer seed deterministically shuffles the order.
    """
    sig = Signature(p, q)
    desc = classify(p, q)
    target_k = idempotent_factor_count(p, q)
    target_real_dim = (1 << sig.n) >> target_k if target_k >= 0 else None
    if target_k < 0:
        raise ClassificationError("negative factor count; bookkeeping failed")

    candidates = _commuting_square_plus_blades(sig)
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(candidates)

    e = Multivector.scalar(sig, 1.0)
    chosen: list[Multivector] = []
    current_dim = 1 << sig.n
    for mask in candidates:
        if len(chosen) == target_k:
            break
        b = Multivector.from_mask(sig, mask)
        if any(geometric_product(b, c) != geometric_product(c, b) for c in chosen):
            continue
        cand = geometric_product(e, (1 + b) * 0.5)
        if cand.is_zero() or not is_idempotent(cand):
            continue
        new_dim = ideal_real_dim(cand)
        if new_dim * 2 != current_dim:
            continue
        e = cand
        chosen.append(b)
        current_dim = new_dim
    if len(chosen) != target_k:
        raise ClassificationError(
            f"idempotent search for Cl({p},{q}) stalled at {len(chosen)} of {target_k} factors"
        )
    ring = division_ring_of(e)
    basis = ideal_basis(e)
    return IdealDescriptor(
        idempotent=e,
        ideal_basis=basis,
        k_factors=target_k,
        division_ring=ring,
        factors=chosen,
        nonsimple_summand=not is_simple(p, q),
    )


def orthogonal_idempotent_expansion(desc: IdealDescriptor) -> list[Multivector]:
    """All 2^k sign choices of prod (1 +- e_alpha)/2: pairwise orthogonal
    idempotents summing to 1, exactly in dyadic arithmetic."""
    sig = desc.idempotent.signature
    result = [Multivector.scalar(sig, 1.0)]
    for b in desc.factors:
        nxt = []
        for acc in result:
            nxt.append(geometric_product(acc, (1 + b) * 0.5))
            nxt.append(geometric_product(acc, (1 - b) * 0.5))
        result = nxt
    return result
