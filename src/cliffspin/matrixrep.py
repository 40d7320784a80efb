"""The representation bridge: Cl(4,1) with a central pseudoscalar playing the
imaginary unit, the even embedding of Cl(1,3), the 4x4 complex matrix
representation induced by a minimal ideal, and covariant column-spinor
equivalence.

The ideal is that of f = (1 + E_0)/2 (1 + i E_1 E_2)/2 in Cl(4,1), with the
spin basis f_1 = f, f_2 = -E_1 E_3 f, f_3 = E_3 E_0 f, f_4 = E_1 E_0 f.  On
it the four generators E_mu act by the standard Dirac matrices, which have
exact +-1 and +-i entries; the matrix of every other blade is the ordered
product of generator matrices.  Every such matrix has one entry per column,
so matrix_of applies them as signed permutations."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import Rotor, SpinorialFrame, is_spin_e
from .multivector import Multivector, Signature, _max_gap, geometric_product

SIG13 = Signature(1, 3)
SIG41 = Signature(4, 1)


class RepresentationError(ValueError):
    pass


@dataclass(frozen=True)
class R41:
    """Cl(4,1) handle: generators F_0..F_4 (F_0^2 = -1, others +1), the
    central pseudoscalar i = F_0 F_1 F_2 F_3 F_4, and the embedded
    vectors E_mu = F_mu F_4."""

    F: tuple[Multivector, ...]
    i: Multivector
    E: tuple[Multivector, ...]


@lru_cache(maxsize=1)
def build_r41() -> R41:
    # The signature convention puts +1 generators first, so F_0 (square -1)
    # is the last generator e5 of Cl(4,1).
    F = (
        Multivector.generator(SIG41, 5),
        Multivector.generator(SIG41, 1),
        Multivector.generator(SIG41, 2),
        Multivector.generator(SIG41, 3),
        Multivector.generator(SIG41, 4),
    )
    i = F[0]
    for k in range(1, 5):
        i = geometric_product(i, F[k])
    E = tuple(geometric_product(F[mu], F[4]) for mu in range(4))
    return R41(F=F, i=i, E=E)


@lru_cache(maxsize=None)
def _embedded_blade(mask13: int) -> Multivector:
    r41 = build_r41()
    out = Multivector.one(SIG41)
    for mu in range(4):
        if mask13 >> mu & 1:
            out = geometric_product(out, r41.E[mu])
    return out


def embed_j(x: Multivector) -> Multivector:
    """Algebra homomorphism Cl(1,3) -> Cl^0(4,1) generated by E_mu -> F_mu F_4;
    complex coefficients a+bi land on a + b * (central pseudoscalar)."""
    if x.signature != SIG13:
        raise RepresentationError("embed_j expects a Cl(1,3) element")
    r41 = build_r41()
    out = Multivector.zero(SIG41)
    for mask, c in x.terms.items():
        blade = _embedded_blade(mask)
        out = out + c.real * blade
        if c.imag != 0.0:
            out = out + c.imag * geometric_product(r41.i, blade)
    return out


@lru_cache(maxsize=1)
def _blade_matrices() -> dict[int, np.ndarray]:
    """4x4 complex matrix of each Cl(1,3) basis blade: the ordered product of
    the Dirac matrices of its generators.  The Dirac matrices are monomial,
    so every product is exact."""
    gens = standard_gammas().gammas
    tables: dict[int, np.ndarray] = {}
    for mask in range(16):
        M = np.eye(4, dtype=complex)
        for mu in range(4):
            if mask >> mu & 1:
                M = M @ gens[mu]
        tables[mask] = M
    return tables


@lru_cache(maxsize=1)
def _blade_columns() -> tuple[tuple[tuple[int, complex], ...], ...]:
    """_blade_matrices() as signed permutations: per mask, the (row, entry)
    of the one nonzero entry, +-1 or +-i, in each column."""
    table = []
    for M in _blade_matrices().values():
        rows = [int(np.flatnonzero(M[:, j])[0]) for j in range(4)]
        table.append(tuple((row, complex(M[row, j])) for j, row in enumerate(rows)))
    return tuple(table)


def _first_column(x: Multivector) -> list[complex]:
    """Column 0 of matrix_of(x) as four complex sums, in term order from 0j."""
    columns = _blade_columns()
    col = [0j] * 4
    for mask, c in x._terms.items():
        row, e = columns[mask][0]
        col[row] += c * e
    return col


def matrix_of(x: Multivector) -> np.ndarray:
    """Representation of Cl(1,3) (real or complexified) on the spin basis of
    the ideal: a 4x4 complex matrix; an algebra homomorphism.  Each entry is
    the sum over x's terms, in their order from 0j, of c times the blade
    matrix entry: each blade matrix has one entry, +-1 or +-i, per column."""
    if x.signature != SIG13:
        raise RepresentationError("matrix_of expects a Cl(1,3) element")
    columns = _blade_columns()
    M = [[0j] * 4 for _ in range(4)]
    for mask, c in x._terms.items():
        for j, (row, e) in enumerate(columns[mask]):
            M[row][j] += c * e
    return np.array(M, dtype=complex)


@dataclass(frozen=True)
class GammaRep:
    gammas: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    f_matrix: np.ndarray


@lru_cache(maxsize=1)
def _build_standard_gammas() -> GammaRep:
    g0 = np.diag([1, 1, -1, -1]).astype(complex)
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)

    def off(s):
        return np.block([[zero, -s], [s, zero]])

    g1, g2, g3 = off(s1), off(s2), off(s3)
    ident = np.eye(4, dtype=complex)
    f = 0.5 * (ident + g0) @ (0.5 * (ident + 1j * g1 @ g2))
    for m in (g0, g1, g2, g3, f):
        m.flags.writeable = False
    return GammaRep(gammas=(g0, g1, g2, g3), f_matrix=f)


def standard_gammas() -> GammaRep:
    """The Dirac-representation gamma matrices and the ideal projector f,
    built on first use and shared: the arrays are read-only."""
    return _build_standard_gammas()


def complex_idempotent_f() -> Multivector:
    """The complexified ideal projector f = (1+E_0)/2 (1 + i E_1 E_2)/2 as a
    complex-coefficient Cl(1,3) element."""
    e0 = Multivector.generator(SIG13, 1)
    e12 = geometric_product(Multivector.generator(SIG13, 2), Multivector.generator(SIG13, 3))
    return geometric_product((1 + e0) * 0.5, (1 + 1j * e12) * 0.5)


def column_of(element: Multivector, tol: float = 1e-10) -> np.ndarray:
    """First-column extraction for elements of the complexified minimal
    ideal (x f = x)."""
    f = complex_idempotent_f()
    if _max_gap(geometric_product(element, f), element) > tol * max(1.0, element.max_abs()):
        raise RepresentationError("element is not in the ideal of f")
    return matrix_of(element)[:, 0].copy()


def dhs_matrix(psi: Multivector) -> np.ndarray:
    """The structured matrix of an even representative, built from the four
    complex components of its ideal projection."""
    if any(g % 2 for g in psi.grades()):
        raise RepresentationError("dhs_matrix expects an even element")
    p1, p2, p3, p4 = matrix_of(psi)[:, 0]
    c = np.conj
    return np.array(
        [
            [p1, -c(p2), p3, c(p4)],
            [p2, c(p1), p4, -c(p3)],
            [p3, c(p4), p1, -c(p2)],
            [p4, -c(p3), p2, c(p1)],
        ],
        dtype=complex,
    )


def s_of_rotor(u: Rotor) -> np.ndarray:
    if not is_spin_e(u.u):
        raise RepresentationError("s_of_rotor requires a Spin^e element")
    return matrix_of(u.u)


def cds_equivalent(
    a: tuple[SpinorialFrame, np.ndarray],
    b: tuple[SpinorialFrame, np.ndarray],
    tol: float = 1e-10,
) -> bool:
    """Whether (frame, column) pairs represent the same covariant spinor:
    column_b = S(u_b^{-1} u_a) column_a."""
    frame_a, col_a = a
    frame_b, col_b = b
    shift = geometric_product(frame_b.rotor_inverse, frame_a.u.u)
    S = matrix_of(shift)
    return bool(np.max(np.abs(np.asarray(col_b) - S @ np.asarray(col_a))) <= tol)
