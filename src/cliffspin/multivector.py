"""Sparse multivector arithmetic for real and complex Clifford algebras Cl(p,q).

Basis blades are encoded as bitmasks: bit i set means the generator e_{i+1}
is a factor, with factors kept in ascending index order.  The first p
generators square to +1, the remaining q square to -1.

Every blade product goes through one sign rule.  e_a e_b = s * e_{a^b}, where
s is the parity of the swaps that sort b's factors past a's, times -1 for
each shared factor that squares to -1.  Both parities are linear in b's bits,
so for fixed a, s = (-1)^popcount(b & w) for one weight mask w
(``_sign_weight``).  Two caches hold the signs that mask gives:
``_reorder_sign(p, n, a)``, one row of Python ints over all 2^n blades b per
left blade a, and ``_sign_table(p, n)``, every row of one signature as an
int8 array (16 MiB at n = 12, where all rows as tuples take 128 MiB).

The geometric product, the wedge and both contractions share one kernel,
``_product``, with three paths.  Each gives the same bits and key order as
the dict loop ``_product_loop``, which is the tests' oracle.

- n <= 4: generated straight-line code.  On the first sight of a key pattern
  (p, n, left keys in order, right keys in order, filter),
  ``_generate_kernel`` compiles the loop for that pattern into one dict
  literal.  Each output blade's sum keeps the loop's term order, written
  +a_i*b_j or -a_i*b_j for sign +1 or -1, and the blades keep the loop's
  first-appearance order.  The only difference from the loop is where a zero
  gets its sign, which ``Multivector._own`` normalises.  The cache is
  budgeted by the number of term pairs its kernels cover (2^16).  Cl(1,3)
  work repeats its patterns: in the perfbench spinor-suite and
  dirac-planewave workloads (seeds 1-3) at most 7 of 275 to 563 patterns
  occur only once, spending at most 592 pairs of the budget, and over 99.6 %
  of the n <= 4 product calls meet a pattern seen before.  For n >= 5,
  kernels grow to thousands of pairs and many patterns never repeat.
- n >= 5, both operands real, at least ``_ARRAY_MIN_PAIRS`` term pairs:
  ``_product_array`` reads the signs from the table and computes each pair's
  sign * (x * y) as a float array, with the filter as a mask.  ``np.add.at``
  adds each output blade's terms one at a time in the loop's pair order, never
  pairwise, and the blades are emitted in the order of their first pair.
  Complex operands stay on the loop: numpy's complex multiply differs from
  Python's in the last bit on 44 % of random normal pairs, so its sums would
  not be the loop's.
- Otherwise, and once the kernel budget is spent: the loop itself.

Results that this module builds itself (products, sums, scalings, grade
parts, involutions) skip the validating ``Multivector.__init__``: they go
through ``Multivector._own``, which trusts that their masks are in range and
their values already complex, but still drops zero terms and rejects
non-finite coefficients.  Only the public constructor runs ``__init__``, so
a tracer that counts ``__init__`` calls counts public constructions, not all
the multivectors built.

The scalar product implemented here is the grade-wise Gram-determinant
pairing, equal to the scalar part of (reversion(a) * b).  Note that this
convention differs by a sign, on some grades, from the product used in parts
of the geometric-algebra literature (e.g. Hestenes' X * Y = <XY>_0).
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

MAX_DIM = 12

Scalar = complex  # coefficients are stored as machine complex numbers


class SignatureMismatchError(ValueError):
    """Raised when two multivectors from different algebras are combined."""


class NonInvertibleError(ArithmeticError):
    """Raised when an element of the algebra has no inverse."""


@dataclass(frozen=True)
class Signature:
    """The pair (p, q) fixing the metric diag(+1 x p, -1 x q)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("signature counts must be non-negative")
        if self.p + self.q > MAX_DIM:
            raise ValueError(f"dimension {self.p + self.q} exceeds cap {MAX_DIM}")

    @property
    def n(self) -> int:
        return self.p + self.q

    def square(self, i: int) -> int:
        """Square of generator with 0-based index i."""
        if not 0 <= i < self.n:
            raise ValueError(f"generator index {i} out of range for n={self.n}")
        return 1 if i < self.p else -1

    @property
    def squares(self) -> tuple[int, ...]:
        return tuple(1 if i < self.p else -1 for i in range(self.n))


def _sign_weight(p: int, a: int) -> int:
    """The weight mask w of left blade a in Cl(p, q):
    e_a e_b = (-1)^popcount(b & w) e_{a^b} for every blade b."""
    # Bit j of w is the sign parity that factor j of b contributes: one swap
    # per factor of a above j, plus one if j is in a and squares to -1.
    w = a >> p << p
    rest = a
    while rest:
        low = rest & -rest
        w ^= low - 1
        rest ^= low
    return w


@lru_cache(maxsize=None)
def _reorder_sign(p: int, n: int, a: int) -> tuple[int, ...]:
    """Signs of e_a e_b in Cl(p, n - p) for every blade b, indexed by b."""
    w = _sign_weight(p, a)
    row = [1]
    for j in range(n):
        row = row + ([-s for s in row] if w >> j & 1 else row)
    return tuple(row)


# Eight tables hold a five-signature sweep such as perfbench's algebra-sweep,
# and at most 128 MiB even if all eight are n = 12.
@lru_cache(maxsize=8)
def _sign_table(p: int, n: int) -> np.ndarray:
    """Read-only int8 signs of e_a e_b in Cl(p, n - p) at [a, b]: the rows of
    _reorder_sign for every left blade a, one byte per sign (16 MiB at
    n = 12), built by the same doubling over the bits of each weight mask."""
    size = 1 << n
    weights = np.array([_sign_weight(p, a) for a in range(size)])
    table = np.empty((size, size), dtype=np.int8)
    table[:, 0] = 1
    for j in range(n):
        # Column b + 2^j (b < 2^j) is column b times (-1)^(bit j of w).
        flip = (1 - 2 * (weights >> j & 1)).astype(np.int8)
        np.multiply(table[:, : 1 << j], flip[:, None], out=table[:, 1 << j : 2 << j])
    table.flags.writeable = False
    return table


_REV_SIGN = (1, 1, -1, -1)  # (-1)^{k(k-1)/2} by k mod 4
_GI_SIGN = (1, -1)  # (-1)^k by k mod 2


class Multivector:
    """Immutable sparse multivector: map from blade mask to coefficient."""

    __slots__ = ("signature", "_terms", "real")

    def __init__(self, signature: Signature, terms: Mapping[int, complex] | None = None):
        object.__setattr__(self, "signature", signature)
        clean: dict[int, complex] = {}
        limit = 1 << signature.n
        is_real = True
        for mask, coeff in (terms or {}).items():
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} invalid for n={signature.n}")
            c = complex(coeff)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("non-finite coefficient")
            if c != 0:
                clean[mask] = clean.get(mask, 0) + c
                if clean[mask] == 0:
                    del clean[mask]
        for c in clean.values():
            if c.imag != 0.0:
                is_real = False
                break
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "real", is_real)

    @classmethod
    def _own(cls, signature: Signature, terms: dict[int, complex]) -> "Multivector":
        """Trusted constructor for dicts built in this module: masks in range,
        values complex.  Stores 0 + c as __init__ does, so no part is -0.0."""
        clean = {m: 0 + c for m, c in terms.items() if c}
        values = clean.values()
        # A sum of finite terms can overflow, so a non-finite sum is only a
        # hint; each term is checked before rejecting.
        if not cmath.isfinite(sum(values)) and not all(map(cmath.isfinite, values)):
            raise ValueError("non-finite coefficient")
        is_real = True
        for c in values:
            if c.imag != 0.0:
                is_real = False
                break
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "signature", signature)
        _set(self, "_terms", clean)
        _set(self, "real", is_real)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Multivector is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, sig: Signature, value: complex) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls(sig, {})

    @classmethod
    def generator(cls, sig: Signature, index: int) -> "Multivector":
        """Basis vector e_index with 1-based index."""
        if not 1 <= index <= sig.n:
            raise ValueError(f"generator index {index} out of range 1..{sig.n}")
        return cls(sig, {1 << (index - 1): 1.0})

    @classmethod
    def blade(cls, sig: Signature, indices: Iterable[int], coeff: complex = 1.0) -> "Multivector":
        """Product of distinct generators given by 1-based ascending indices."""
        mask = 0
        for i in indices:
            bit = 1 << (i - 1)
            if mask & bit:
                raise ValueError("repeated generator index in blade")
            mask |= bit
        return cls(sig, {mask: coeff})

    @classmethod
    def from_mask(cls, sig: Signature, mask: int, coeff: complex = 1.0) -> "Multivector":
        return cls(sig, {mask: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[int, complex]:
        return dict(self._terms)

    def coeff(self, mask: int) -> complex:
        return self._terms.get(mask, 0j)

    def scalar_part(self) -> complex:
        return self._terms.get(0, 0j)

    def grades(self) -> set[int]:
        return {m.bit_count() for m in self._terms}

    def is_zero(self) -> bool:
        return not self._terms

    def max_abs(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return math.sqrt(sum(abs(c) ** 2 for c in self._terms.values()))

    def coefficients(self) -> "list[complex]":
        """Dense coefficient list over all 2^n blades in mask order."""
        dense = [0j] * (1 << self.signature.n)
        for mask, c in self._terms.items():
            dense[mask] = c
        return dense

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.signature == other.signature and self._terms == other._terms

    def __hash__(self):
        return hash((self.signature, frozenset(self._terms.items())))

    def approx_eq(self, other: "Multivector", tol: float = 1e-12) -> bool:
        return (self - other).max_abs() <= tol

    def __repr__(self) -> str:
        from .serialization import format_multivector

        return f"<Cl({self.signature.p},{self.signature.q}) {format_multivector(self)}>"

    # -- linear structure --------------------------------------------------

    def _check_sig(self, other: "Multivector") -> None:
        if self.signature != other.signature:
            raise SignatureMismatchError(
                f"Cl({self.signature.p},{self.signature.q}) vs "
                f"Cl({other.signature.p},{other.signature.q})"
            )

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Multivector.scalar(self.signature, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return Multivector._own(self.signature, out)

    __radd__ = __add__

    def __neg__(self):
        return Multivector._own(self.signature, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Multivector.scalar(self.signature, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            s = complex(other)
            return Multivector._own(self.signature, {m: c * s for m, c in self._terms.items()})
        if not isinstance(other, Multivector):
            return NotImplemented
        return geometric_product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * (1.0 / other)
        return NotImplemented

    def __xor__(self, other):
        if isinstance(other, Multivector):
            return wedge(self, other)
        return NotImplemented

    # -- convenience method forms ------------------------------------------

    def grade(self, k: int) -> "Multivector":
        return grade_part(self, k)

    def even(self) -> "Multivector":
        return Multivector._own(
            self.signature, {m: c for m, c in self._terms.items() if m.bit_count() % 2 == 0}
        )

    def odd(self) -> "Multivector":
        return Multivector._own(
            self.signature, {m: c for m, c in self._terms.items() if m.bit_count() % 2 == 1}
        )

    def rev(self) -> "Multivector":
        return reversion(self)

    def prune(self, tol: float) -> "Multivector":
        return Multivector._own(
            self.signature, {m: c for m, c in self._terms.items() if abs(c) > tol}
        )


# -- products ---------------------------------------------------------------


def _product_loop(p: int, n: int, at: dict, bt: dict, keep=None) -> dict[int, complex]:
    """Sum of sign * ca * cb e_{ma^mb} over the term pairs of at and bt, or
    over only the pairs (ma, mb) for which keep(ma, mb) holds."""
    out: dict[int, complex] = {}
    b_terms = bt.items()
    for ma, ca in at.items():
        row = _reorder_sign(p, n, ma)
        for mb, cb in b_terms:
            if keep is None or keep(ma, mb):
                m = ma ^ mb
                out[m] = out.get(m, 0) + row[mb] * ca * cb
    return out


def _generate_kernel(p: int, n: int, a_keys: tuple, b_keys: tuple, keep):
    """Compile _product_loop for one key pattern into straight-line code.

    Each output blade's sum lists its terms in the loop's order, and the
    blades appear in the loop's first-appearance order.  The source holds
    only integer masks and positional names a<i>, b<j>."""
    sums: dict[int, list[str]] = {}
    for i, ma in enumerate(a_keys):
        row = _reorder_sign(p, n, ma)
        for j, mb in enumerate(b_keys):
            if keep is None or keep(ma, mb):
                sign = "+" if row[mb] > 0 else "-"
                sums.setdefault(ma ^ mb, []).append(f"{sign}a{i}*b{j}")
    body = ", ".join(f"{m}: {''.join(terms).lstrip('+')}" for m, terms in sums.items())
    a_names = "".join(f"a{i}, " for i in range(len(a_keys)))
    b_names = "".join(f"b{j}, " for j in range(len(b_keys)))
    source = f"def kernel(a, b):\n    {a_names}= a\n    {b_names}= b\n    return {{{body}}}\n"
    namespace: dict = {}
    exec(source, namespace)
    return namespace["kernel"]


class _KernelCache:
    """Generated product kernels by (p, n, left keys, right keys, filter).

    A pattern is compiled on its first sight.  Each kernel costs the number
    of term pairs it covers, and compiling stops once the costs would pass
    _KERNEL_PAIR_BUDGET; patterns left out are served by _product_loop."""

    def __init__(self):
        self.kernels: dict[tuple, object] = {}
        self.pairs = 0
        self._lock = threading.Lock()

    def compile(self, key: tuple):
        """The kernel for a key missing from self.kernels, or None once the
        budget cannot hold it."""
        cost = len(key[2]) * len(key[3])
        if self.pairs + cost > _KERNEL_PAIR_BUDGET:
            return None
        with self._lock:
            kernel = self.kernels.get(key)
            if kernel is None and self.pairs + cost <= _KERNEL_PAIR_BUDGET:
                kernel = self.kernels[key] = _generate_kernel(*key)
                self.pairs += cost
        return kernel


# Kernels serve n <= 4, where an operand has at most 16 terms and a kernel at
# most 256 pairs.  Larger algebras meet many one-off patterns, and compiling a
# kernel of up to 16384 pairs (n = 7) costs more memory than the pair budget
# suggests.
_KERNEL_MAX_N = 4
_KERNEL_PAIR_BUDGET = 1 << 16
_KERNELS = _KernelCache()


# Real products with n >= 5 and at least this many term pairs run on the sign
# table.  Below it numpy's fixed cost per call exceeds the loop's cost per
# pair: with timeit on n = 5..7 operands the two paths break even at about
# 100-160 pairs.
_ARRAY_MIN_PAIRS = 128
# Term pairs per block of left terms on the table path: each temporary of a
# block holds at most 1 MiB.
_ARRAY_BLOCK_PAIRS = 1 << 17


def _product_array(p: int, n: int, at: dict, bt: dict, keep=None) -> dict[int, complex]:
    """_product_loop of two real operands, computed on the sign table.

    Pair (i, j) contributes sign * (x_i * y_j), which is the loop's value,
    and np.add.at adds the contributions to each output blade one at a time
    in the loop's pair order, so every sum is the loop's to the bit.  The
    blades come out in the order of their first kept pair, as the loop
    inserts them.  Left terms go in blocks of _ARRAY_BLOCK_PAIRS pairs."""
    table = _sign_table(p, n)
    ma = np.fromiter(at, np.intp, len(at))
    mb = np.fromiter(bt, np.intp, len(bt))
    xa = np.fromiter(at.values(), complex, len(at)).real
    xb = np.fromiter(bt.values(), complex, len(bt)).real
    sums = np.zeros(1 << n)
    first = np.full(1 << n, ma.size * mb.size)  # position of each blade's first pair
    keys = []
    step = max(1, _ARRAY_BLOCK_PAIRS // mb.size)
    for start in range(0, ma.size, step):
        a = ma[start : start + step, None]
        blades = a ^ mb
        values = table[a, mb] * (xa[start : start + step, None] * xb)
        order = np.arange(start * mb.size, start * mb.size + blades.size).reshape(blades.shape)
        if keep is None:
            blades, values, order = blades.ravel(), values.ravel(), order.ravel()
        else:
            kept = keep(a, mb)
            blades, values, order = blades[kept], values[kept], order[kept]
        np.add.at(sums, blades, values)
        np.minimum.at(first, blades, order)
        keys.append(blades[first[blades] == order])
    keys = np.concatenate(keys)
    return dict(zip(keys.tolist(), sums[keys].astype(complex).tolist()))


def _product(a: Multivector, b: Multivector, keep=None) -> Multivector:
    """_product_loop of a and b, through a generated kernel when one serves
    their key pattern (n <= 4, neither operand zero), or on the sign table
    for real operands with n >= 5 and _ARRAY_MIN_PAIRS term pairs or more."""
    a._check_sig(b)
    sig = a.signature
    p, n = sig.p, sig.n
    at, bt = a._terms, b._terms
    if n <= _KERNEL_MAX_N:
        if at and bt:
            key = (p, n, tuple(at), tuple(bt), keep)
            kernel = _KERNELS.kernels.get(key) or _KERNELS.compile(key)
            if kernel is not None:
                return Multivector._own(sig, kernel(at.values(), bt.values()))
    elif a.real and b.real and len(at) * len(bt) >= _ARRAY_MIN_PAIRS:
        return Multivector._own(sig, _product_array(p, n, at, bt, keep))
    return Multivector._own(sig, _product_loop(p, n, at, bt, keep))


# The filters also take arrays of masks, as _product_array calls them.
def _outer(ma, mb):
    return ma & mb == 0


def _left_inner(ma, mb):
    return ma & ~mb == 0


def _right_inner(ma, mb):
    return mb & ~ma == 0


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    return _product(a, b)


def wedge(a: Multivector, b: Multivector) -> Multivector:
    return _product(a, b, _outer)


def left_contraction(a: Multivector, b: Multivector) -> Multivector:
    """a _| b: grade-lowering part, nonzero blade-wise only when a's factors
    all occur in b."""
    return _product(a, b, _left_inner)


def right_contraction(a: Multivector, b: Multivector) -> Multivector:
    """a |_ b: nonzero blade-wise only when b's factors all occur in a."""
    return _product(a, b, _right_inner)


def scalar_product(a: Multivector, b: Multivector) -> complex:
    """Grade-wise Gram-determinant pairing; equals <reversion(a) b>_0."""
    a._check_sig(b)
    p, n = a.signature.p, a.signature.n
    total = 0j
    for m, ca in a._terms.items():
        cb = b._terms.get(m)
        if cb is None:
            continue
        sign = _REV_SIGN[m.bit_count() % 4] * _reorder_sign(p, n, m)[m]
        total += sign * ca * cb
    if a.real and b.real:
        return total.real
    return total


def grade_part(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= a.signature.n:
        raise ValueError(f"grade {k} out of range 0..{a.signature.n}")
    return Multivector._own(a.signature, {m: c for m, c in a._terms.items() if m.bit_count() == k})


# -- involutions ------------------------------------------------------------


def grade_involution(a: Multivector) -> Multivector:
    return Multivector._own(
        a.signature, {m: _GI_SIGN[m.bit_count() % 2] * c for m, c in a._terms.items()}
    )


def reversion(a: Multivector) -> Multivector:
    return Multivector._own(
        a.signature, {m: _REV_SIGN[m.bit_count() % 4] * c for m, c in a._terms.items()}
    )


def conjugation(a: Multivector) -> Multivector:
    return grade_involution(reversion(a))


# -- spacetime Hodge dual ----------------------------------------------------

# The Cl(1,3) volume element g5 = g^0 g^1 g^2 g^3 of the upper-index
# coordinate coframe: e1 (-e2)(-e3)(-e4) = -e1e2e3e4.
G5 = Multivector(Signature(1, 3), {0b1111: -1.0})


def hodge_dual(a: Multivector) -> Multivector:
    """*C = reversion(C) g5, fixed to the signature (1,3) volume element
    g5 = g^0 g^1 g^2 g^3 (upper-index coordinate coframe)."""
    sig = a.signature
    if (sig.p, sig.q) != (1, 3):
        raise SignatureMismatchError("hodge_dual is defined for signature (1,3) only")
    return geometric_product(reversion(a), G5)


# -- exponential and inverse -------------------------------------------------


def _cosh_sinhc(x: float) -> tuple[float, float]:
    """(cosh sqrt(x), sinh sqrt(x) / sqrt(x)), continued to cos and sin for
    x < 0; both are 1 at x = 0."""
    if x > 0:
        r = math.sqrt(x)
        return math.cosh(r), math.sinh(r) / r
    if x < 0:
        r = math.sqrt(-x)
        return math.cos(r), math.sin(r) / r
    return 1.0, 1.0


def exp_bivector(f: Multivector) -> Multivector:
    """exp of a pure bivector F.

    For real F with n <= 4, F^2 = alpha + beta I, where I is the unit
    pseudoscalar (beta = 0 for n <= 3) and, for n = 4, I commutes with F.
    Then exp F is closed-form in C(x) = cosh sqrt(x) and S(x) = sinh sqrt(x)
    / sqrt(x):
      n <= 3:         C(alpha) + S(alpha) F;
      n = 4, I^2 = -1: cosh z + (sinh z / z) F with z^2 = alpha + beta i and
                      i read as I (both functions are even in z);
      n = 4, I^2 = +1: (C(alpha +- beta) + S(alpha +- beta) F) on the
                      central idempotents (1 +- I)/2.
    Complex F and n >= 5 use scaling-and-squaring of the power series.  A
    result too large for a float raises ValueError.
    """
    if f.grades() - {2}:
        raise ValueError("exp_bivector requires a pure grade-2 argument")
    sig = f.signature
    n = sig.n
    if n > 4 or not f.real:
        return _exp_series(f)
    f2 = geometric_product(f, f)
    alpha = f2.scalar_part().real
    try:
        if n < 4:
            c, s = _cosh_sinhc(alpha)
            return Multivector._own(sig, {0: complex(c), **{m: s * v for m, v in f._terms.items()}})
        pseudo = (1 << n) - 1
        row = _reorder_sign(sig.p, n, pseudo)
        beta = f2.coeff(pseudo).real
        if row[pseudo] < 0:
            z = cmath.sqrt(complex(alpha, beta))
            ch = cmath.cosh(z)
            sh = cmath.sinh(z) / z if z else 1 + 0j
            c0, c1, s0, s1 = ch.real, ch.imag, sh.real, sh.imag
        else:
            cp, sp = _cosh_sinhc(alpha + beta)
            cm, sm = _cosh_sinhc(alpha - beta)
            c0, c1, s0, s1 = (cp + cm) / 2, (cp - cm) / 2, (sp + sm) / 2, (sp - sm) / 2
    except OverflowError as exc:
        raise ValueError(f"non-finite coefficient in exp_bivector (|F| = {f.norm():.3g})") from exc
    # exp F = c0 + c1 I + s0 F + s1 I F, with I e_m = row[m] e_{pseudo ^ m}.
    out = {0: complex(c0), pseudo: complex(c1)}
    for m, v in f._terms.items():
        out[m] = out.get(m, 0) + s0 * v
        out[pseudo ^ m] = out.get(pseudo ^ m, 0) + s1 * row[m] * v
    return Multivector._own(sig, out)


def _exp_series(f: Multivector) -> Multivector:
    """exp of a pure bivector via scaling-and-squaring plus power series."""
    sig = f.signature
    scale = f.norm()
    k = 0
    if scale > 0.5:
        k = max(0, math.ceil(math.log2(scale / 0.5)))
    x = f * (0.5 ** k if k else 1.0)
    result = Multivector.scalar(sig, 1.0)
    term = Multivector.scalar(sig, 1.0)
    j = 0
    while True:
        j += 1
        term = geometric_product(term, x) * (1.0 / j)
        result = result + term
        if term.max_abs() < 1e-16 * max(result.max_abs(), 1.0):
            break
        if j > 300:  # pragma: no cover
            raise ArithmeticError("exp_bivector series failed to converge")
    for _ in range(k):
        result = geometric_product(result, result)
    return result


def _left_mult_matrix(a: Multivector) -> np.ndarray:
    """The 2^n x 2^n matrix of x -> a x on dense coefficient vectors."""
    sig = a.signature
    table = _sign_table(sig.p, sig.n)
    cols = np.arange(1 << sig.n)
    mat = np.zeros((cols.size, cols.size), dtype=float if a.real else complex)
    for ma, ca in a._terms.items():
        # Column mb of term ma is a single entry, in row ma ^ mb.
        mat[cols ^ ma, cols] += table[ma] * (ca.real if a.real else ca)
    return mat


def inverse(a: Multivector) -> Multivector:
    """a^{-1} with a fast path when a * reversion(a) is a nonzero scalar and
    a general path via the 2^n x 2^n left-multiplication linear system.
    The fast path's zero test is relative to |a|^2, the size of a *
    reversion(a), so it serves a scaled element as it serves the unscaled."""
    sig = a.signature
    if a.is_zero():
        raise NonInvertibleError("zero element has no inverse")
    ar = reversion(a)
    s = geometric_product(a, ar)
    s0 = s.scalar_part()
    if abs(s0) > 1e-14 * a.norm() ** 2 and (
        (s - Multivector.scalar(sig, s0)).max_abs() <= 1e-14 * abs(s0)
    ):
        cand = ar * (1.0 / s0)
        if geometric_product(a, cand).approx_eq(Multivector.scalar(sig, 1.0), 1e-12):
            return cand
    mat = _left_mult_matrix(a)
    dim = 1 << sig.n
    rhs = np.zeros(dim, dtype=mat.dtype)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonInvertibleError("singular element (zero divisor)") from exc
    cand = Multivector(sig, {m: sol[m] for m in range(dim) if sol[m] != 0})
    residual = (geometric_product(a, cand) - Multivector.scalar(sig, 1.0)).max_abs()
    if residual > 1e-9 * max(1.0, a.max_abs() * cand.max_abs()):
        raise NonInvertibleError(f"singular element (inverse residual {residual:.3g})")
    return cand


def norm_N(a: Multivector) -> complex:
    """N(a) = <conjugation(a) a>_0."""
    val = geometric_product(conjugation(a), a).scalar_part()
    return val.real if a.real else val
