"""Independent numpy reference algebra used to check cliffspin's outputs.

Nothing here calls cliffspin.  Two references are built:

* ``RefAlgebra(p, q)``: the left-regular representation of Cl(p,q) on its
  2^n blade coefficients.  It starts from the generator actions, worked out
  with this module's own sign rule (move e_i left past the lower-index
  factors of a blade), and composes them into the action of every blade.
  Blades use cliffspin's bitmask encoding (bit i is e_{i+1}, factors in
  ascending order), which is the only convention the two share.
* ``DiracImage``: the faithful 4x4 complex image of Cl(1,3) given by the
  textbook Dirac matrices, with coefficients recovered by trace
  orthogonality.
"""

from __future__ import annotations

import numpy as np


def _generator_signs(p: int, n: int, i: int) -> np.ndarray:
    """sign[D] with e_i e_D = sign[D] e_{D ^ (1 << i)} (0-based index i)."""
    masks = np.arange(1 << n)
    below = np.zeros(1 << n, dtype=np.int64)
    for j in range(i):
        below += (masks >> j) & 1
    sign = np.where(below % 2 == 0, 1.0, -1.0)
    square = 1.0 if i < p else -1.0
    return np.where((masks >> i) & 1 == 1, sign * square, sign)


class RefAlgebra:
    """Dense Cl(p,q) arithmetic on coefficient vectors indexed by blade mask."""

    def __init__(self, p: int, q: int):
        self.n = p + q
        dim = 1 << self.n
        self.dim = dim
        masks = np.arange(dim)
        gens = [_generator_signs(p, self.n, i) for i in range(self.n)]
        # sign[A, B] with e_A e_B = sign[A, B] e_{A ^ B}, built by composing
        # generator actions: e_A = e_i e_{A'} with i the lowest factor of A.
        sign = np.empty((dim, dim))
        sign[0] = 1.0
        for a in range(1, dim):
            i = (a & -a).bit_length() - 1
            rest = a ^ (1 << i)
            sign[a] = sign[rest] * gens[i][rest ^ masks]
        self.sign = sign
        self.xor = masks[:, None] ^ masks[None, :]
        # gather[A, C] = sign[A, A ^ C]: the sign with which a_A b_{A^C} lands on C.
        self.gather = np.take_along_axis(sign, self.xor, axis=1)
        self.grade = np.array([bin(m).count("1") for m in range(dim)])
        self.rev_sign = np.where((self.grade * (self.grade - 1) // 2) % 2 == 0, 1.0, -1.0)
        self.gi_sign = np.where(self.grade % 2 == 0, 1.0, -1.0)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # (a b)[C] = sum_A a_A sign[A, A^C] b_{A^C}
        return (a[:, None] * self.gather * b[self.xor]).sum(axis=0)

    def left_matrix(self, a: np.ndarray) -> np.ndarray:
        """L with (a b) = L @ b: L[C, B] = a_{B^C} sign[B^C, B]."""
        return a[self.xor] * np.take_along_axis(self.sign, self.xor, axis=0)

    def product_scale(self, a: np.ndarray, b: np.ndarray) -> float:
        """Largest coefficient of |a| |b| without signs: the size of the sums
        a product's rounding error is relative to."""
        return float((np.abs(a)[:, None] * np.abs(b)[self.xor]).sum(axis=0).max())

    def grade_part(self, a: np.ndarray, k: int) -> np.ndarray:
        return np.where(self.grade == k, a, 0)

    def _graded(self, a, b, rule) -> np.ndarray:
        out = np.zeros(self.dim, dtype=complex)
        for r in range(self.n + 1):
            ar = self.grade_part(a, r)
            if not ar.any():
                continue
            for s in range(self.n + 1):
                k = rule(r, s)
                if k is None or not 0 <= k <= self.n:
                    continue
                bs = self.grade_part(b, s)
                if bs.any():
                    out += self.grade_part(self.product(ar, bs), k)
        return out

    def wedge(self, a, b):
        return self._graded(a, b, lambda r, s: r + s)

    def left_contraction(self, a, b):
        return self._graded(a, b, lambda r, s: s - r if r <= s else None)

    def right_contraction(self, a, b):
        return self._graded(a, b, lambda r, s: r - s if s <= r else None)

    def reversion(self, a):
        return self.rev_sign * a

    def grade_involution(self, a):
        return self.gi_sign * a

    def one(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def right_mult_rank(self, e: np.ndarray) -> int:
        """Real dimension of the left ideal Cl e: rank of x -> x e."""
        right = (self.gather * e[self.xor]).T  # right[C, A] = (e_A e)[C]
        return int(np.linalg.matrix_rank(right.real, tol=1e-9))


# -- Dirac image of Cl(1,3) ------------------------------------------------------

_S1 = np.array([[0, 1], [1, 0]], dtype=complex)
_S2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_S3 = np.array([[1, 0], [0, -1]], dtype=complex)
_Z = np.zeros((2, 2), dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _dirac_gammas() -> list[np.ndarray]:
    g0 = np.block([[_I2, _Z], [_Z, -_I2]])
    return [g0] + [np.block([[_Z, s], [-s, _Z]]) for s in (_S1, _S2, _S3)]


class DiracImage:
    """Cl(1,3) -> C(4) with e1..e4 sent to gamma^0..gamma^3 (Dirac basis)."""

    def __init__(self):
        gammas = _dirac_gammas()
        blades = []
        for mask in range(16):
            m = np.eye(4, dtype=complex)
            for mu in range(4):
                if mask >> mu & 1:
                    m = m @ gammas[mu]
            blades.append(m)
        self.blades = np.array(blades)
        self.blade_inv = np.array([np.linalg.inv(b) for b in blades])
        self.gammas = gammas
        self.g5 = self.of({0b1111: -1.0})  # g^0 g^1 g^2 g^3 = -e1e2e3e4
        grade = np.array([bin(m).count("1") for m in range(16)])
        self.rev_sign = np.where((grade * (grade - 1) // 2) % 2 == 0, 1.0, -1.0)

    def of(self, terms: dict) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        for mask, c in terms.items():
            m = m + c * self.blades[mask]
        return m

    def of_vec(self, coeffs: np.ndarray) -> np.ndarray:
        return np.tensordot(coeffs, self.blades, axes=1)

    def coeffs(self, m: np.ndarray) -> np.ndarray:
        """Blade coefficients of a matrix: c_B = tr(Gamma_B^{-1} M) / 4."""
        return np.einsum("bij,ji->b", self.blade_inv, m) / 4.0

    def rev(self, m: np.ndarray) -> np.ndarray:
        return self.of_vec(self.rev_sign * self.coeffs(m))


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series."""
    norm = float(np.abs(m).sum(axis=0).max())
    k = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    x = m / (2.0**k)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for j in range(1, 30):
        term = term @ x / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out
