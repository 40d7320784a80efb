"""Classification of Cl(p,q) as a matrix algebra, Radon-Hurwitz numbers,
primitive idempotents, minimal left ideals, and their division rings.

All idempotent coefficients produced here are dyadic rationals (+-2^-k),
which are exact in double precision, so idempotency and orthogonality checks
use exact equality.

Ranks are traces of projections: dim Cl(p,q)e = 2^n <e>_0 and dim e Cl(p,q)e
= 2^n (e_0^2 + [n odd] I^2 e_I^2), as only the centre survives the sum over
the blades.  When supp(e) is a XOR-subgroup H with |H| <e>_0 = 1, as for every
search idempotent, the images blade_m e of a coset of H are +- one another, so
``ideal_basis`` keeps the coset minima in ascending order, the greedy span's
own pick.  Other idempotents keep the span: ``_image_rows`` builds the rows
with signs read as parities of the blades' weight masks, and
``_real_independent`` reduces them.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING

from .multivector import (
    Multivector,
    Signature,
    _parity_sign,
    _sign_weight,
    geometric_product,
)

if TYPE_CHECKING:
    import numpy as np

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


# Entries per block of _image_rows: each of its temporaries holds at most
# 2^19 numbers (4 MiB of floats).
_IMAGE_BLOCK_ENTRIES = 1 << 19


def _image_rows(e: Multivector) -> Iterator[np.ndarray]:
    """Real coefficient rows of blade_m e for every mask m in ascending order,
    in blocks: blade_m e_j is the single term sign e_{m^j}, the sign being
    the parity of j & _sign_weight(p, m), so the rows are the products'
    coefficients exactly."""
    import numpy as np

    sig = e.signature
    size = 1 << sig.n
    masks = np.fromiter(e._terms, np.intp, len(e._terms))
    coeffs = np.array(list(e._terms.values()))
    step = max(1, _IMAGE_BLOCK_ENTRIES // size)
    for start in range(0, size, step):
        blades = np.arange(start, min(start + step, size))[:, None]
        signs = _parity_sign(_sign_weight(sig.p, blades) & masks)
        rows = np.zeros((blades.size, size), dtype=coeffs.dtype)
        rows[np.arange(blades.size)[:, None], blades ^ masks] = signs * coeffs
        yield from rows.real


def _real_independent(rows: Iterable[np.ndarray]) -> list[int]:
    """Indices of the rows, in order, that are not in the real span of the
    rows kept before them: incremental Gaussian elimination, pivoting on the
    largest entry, with a pivot tolerance."""
    import numpy as np

    basis: list[np.ndarray] = []
    pivots: list[int] = []
    kept: list[int] = []
    for i, w in enumerate(rows):
        for row, piv in zip(basis, pivots):
            if w[piv] != 0.0:
                w = w - row * w[piv]
        idx = int(np.argmax(np.abs(w)))
        if abs(w[idx]) <= 1e-9:
            continue
        basis.append(w / w[idx])
        pivots.append(idx)
        kept.append(i)
    return kept


def _coset_minima(e: Multivector) -> list[int] | None:
    """The least mask of each coset m ^ H, in ascending order, when e is real
    and its support is a XOR-subgroup H with |H| <e>_0 = 1; None otherwise."""
    # An echelon basis of the support's span (distinct top bits, descending):
    # clearing its top bits takes a mask to the least mask of its coset.
    basis: list[int] = []
    for m in e._terms:
        for b in basis:
            m = min(m, m ^ b)
        if m:
            basis = sorted([*basis, m], reverse=True)
    if not e.real or len(e._terms) != 1 << len(basis) or e.scalar_part() * len(e._terms) != 1:
        return None
    pivots = sum(1 << (b.bit_length() - 1) for b in basis)
    return [m for m in range(1 << e.signature.n) if not m & pivots]


def _trace_dim(sig: Signature, diagonal_mean: float, what: str) -> int:
    """The trace 2^n * diagonal_mean of a projection on Cl(p,q): its rank."""
    trace = diagonal_mean * (1 << sig.n)
    if not trace.is_integer():
        raise ClassificationError(f"{what}: trace {trace!r} is not an integer")
    return int(trace)


def is_idempotent(e: Multivector) -> bool:
    return geometric_product(e, e) == e


def _require_idempotent(e: Multivector, caller: str) -> None:
    if not is_idempotent(e):
        raise ValueError(f"{caller} requires an idempotent")


def ideal_basis(e: Multivector) -> list[Multivector]:
    """Basis of Cl(p,q)e over the reals: the images blade * e that a greedy
    span keeps in ascending mask order."""
    _require_idempotent(e, "ideal_basis")
    return _ideal_basis(e)


def _ideal_basis(e: Multivector) -> list[Multivector]:
    masks = _coset_minima(e) or _real_independent(_image_rows(e))
    sig = e.signature
    return [geometric_product(Multivector._trusted(sig, {m: 1.0}, True), e) for m in masks]


def ideal_real_dim(e: Multivector) -> int:
    """dim Cl(p,q)e over the reals: 2^n <e>_0 for a real e, else spanned."""
    _require_idempotent(e, "ideal_real_dim")
    if not e.real:
        return len(_real_independent(_image_rows(e)))
    return _trace_dim(e.signature, e.scalar_part(), "ideal_real_dim")


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
    """Identify e Cl(p,q) e, for a real idempotent e, as R, C, or H by its
    real dimension 2^n (e_0^2 + [n odd] I^2 e_I^2) and, at dimension 2, by
    the square of w = e I e = I e, which is I^2 e."""
    _require_idempotent(e, "division_ring_of")
    return _division_ring(e)


def _division_ring(e: Multivector) -> str:
    if not e.real:
        raise ClassificationError("division_ring_of requires a real idempotent")
    sig = e.signature
    # I^2 is (-1)^(n(n-1)/2) from reordering, times the q squares -1.
    i_square = (-1) ** (sig.n * (sig.n - 1) // 2 + sig.q)
    central = e.scalar_part() ** 2
    if sig.n % 2:
        central += i_square * e.coeff((1 << sig.n) - 1) ** 2
    d = _trace_dim(sig, central, "division_ring_of")
    if d == 2 and i_square == 1:
        raise ClassificationError("2-dimensional eCle is split, not a division ring")
    if d not in (1, 2, 4):
        raise ClassificationError(f"eCl(p,q)e has unexpected real dimension {d}")
    return {1: "R", 2: "C", 4: "H"}[d]


def is_primitive(e: Multivector) -> bool:
    sig = e.signature
    return ideal_dim_over_K(e) == classify(sig.p, sig.q).m


def _commuting_square_plus_blades(sig: Signature) -> list[int]:
    """Canonical blade masks with square +1, ascending grade then mask: a
    new list on each call, which the seeded search shuffles in place."""
    return list(_square_plus_blades(sig.p, sig.n))


@cache
def _square_plus_blades(p: int, n: int) -> tuple[int, ...]:
    """The masks of _commuting_square_plus_blades: e_m e_m = +1 when
    m & _sign_weight(p, m) has even parity.  Read on Python ints, with no
    numpy, and kept per signature: at n = 7 the int parity takes longer
    than numpy's, and algebra sweeps search on every operation."""
    masks = [m for m in range(1, 1 << n) if not (_sign_weight(p, m) & m).bit_count() & 1]
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def find_primitive_idempotent(p: int, q: int, seed: int | None = None) -> IdealDescriptor:
    """Greedy search for a primitive idempotent as a product of commuting
    factors (1 + e_alpha)/2 over canonical blades with square +1.

    With seed=None candidates are tried in canonical order (ascending grade,
    then mask); an integer seed deterministically shuffles the order.
    """
    sig = Signature(p, q)
    target_k = idempotent_factor_count(p, q)
    if target_k < 0:
        raise ClassificationError("negative factor count; bookkeeping failed")

    candidates = _commuting_square_plus_blades(sig)
    if seed is not None:
        random.Random(seed).shuffle(candidates)

    e = Multivector.one(sig)
    chosen: list[Multivector] = []
    chosen_masks: list[int] = []
    current_dim = 1 << sig.n
    for mask in candidates:
        if len(chosen) == target_k:
            break
        # Blades b and c commute when e_b e_c and e_c e_b have one sign.
        w = _sign_weight(p, mask)
        if any(((c & w) ^ (mask & _sign_weight(p, c))).bit_count() & 1 for c in chosen_masks):
            continue
        b = Multivector._trusted(sig, {mask: 1.0}, True)
        cand = geometric_product(e, (1 + b) * 0.5)
        if cand.is_zero():
            continue
        try:
            new_dim = ideal_real_dim(cand)  # checks cand * cand == cand once
        except ValueError:  # not an idempotent
            continue
        if new_dim * 2 != current_dim:
            continue
        e = cand
        chosen.append(b)
        chosen_masks.append(mask)
        current_dim = new_dim
    if len(chosen) != target_k:
        raise ClassificationError(
            f"idempotent search for Cl({p},{q}) stalled at {len(chosen)} of {target_k} factors"
        )
    return IdealDescriptor(
        idempotent=e,
        # e is the last candidate that ideal_real_dim checked, or 1.
        ideal_basis=_ideal_basis(e),
        k_factors=target_k,
        division_ring=_division_ring(e),
        factors=chosen,
        nonsimple_summand=not is_simple(p, q),
    )


def orthogonal_idempotent_expansion(desc: IdealDescriptor) -> list[Multivector]:
    """All 2^k sign choices of prod (1 +- e_alpha)/2: pairwise orthogonal
    idempotents summing to 1, exactly in dyadic arithmetic."""
    sig = desc.idempotent.signature
    result = [Multivector.one(sig)]
    for b in desc.factors:
        nxt = []
        for acc in result:
            nxt.append(geometric_product(acc, (1 + b) * 0.5))
            nxt.append(geometric_product(acc, (1 - b) * 0.5))
        result = nxt
    return result
