"""Sparse multivector arithmetic for real and complex Clifford algebras Cl(p,q).

Basis blades are encoded as bitmasks: bit i set means the generator e_{i+1}
is a factor, with factors kept in ascending index order.  The first p
generators square to +1, the remaining q square to -1.

Every blade product goes through one sign rule.  e_a e_b = s * e_{a^b}, where
s is the parity of the swaps that sort b's factors past a's, times -1 for
each shared factor that squares to -1.  Both parities are linear in b's bits,
so for fixed a, s = (-1)^popcount(b & w) for one weight mask w, which
``_sign_weight`` gives in closed form for an int or an int array.  Every sign
is read from that mask: the compiled paths take the parity of Python ints,
and the numpy paths, ``_pair_blocks``, ``_left_mult_matrix`` and
``classify``, take it over arrays with ``_parity_sign``.  For fixed b the
parity is likewise linear in a, with ``_right_sign_weight``'s mask:
``_times_blade`` reads it to multiply by one blade as a signed permutation
of the terms, for the recovery from covariants, the Dirac forms' E_0,
E_2 E_1 and g5, ``hodge_dual``, ``exp_bivector`` and ``is_clifford_group``,
and ``_generate_quadratic`` folds the same signs into its terms.  The only cache
of signs is the loop's: ``_reorder_sign`` keeps one row of Python ints over
all 2^n blades b for each recent left blade a.  ``scalar_product`` reads
reversion(e_m) e_m in closed form, (-1)^popcount(m >> p).

The geometric product, the wedge and both contractions share one kernel,
``_product``.  Each of its paths gives the same bits and key order as the
dict loop ``_product_loop``, which is the tests' oracle and, run on
polynomial coefficients, the product of the exact Fierz proof.

Real operands with n <= 4, or with ``_FORM_MIN_PAIRS`` term pairs or more,
take compiled forms.  The first sight of a key pattern (p, n, left keys in
order, right keys in order, filter) compiles a form, a callable from the
operands' values to the loop's stored values: ``_generate_kernel``'s
straight-line code for a pattern of fewer than ``_KERNEL_MAX_PAIRS`` pairs,
at any n, and ``_sum_blocks`` on the pattern's ``_pair_blocks`` for a larger
one.  ``_FORMS`` holds them, within a budget of term pairs (``_FormCache``)
that charges each form its pairs and no fewer than ``_FORM_MIN_PAIRS``.
With n <= 4 each pattern has its own kernel.  Above, a kernel names no mask
and is compiled once per structure, the operand lengths and each output's
signed term pairs, and a pattern's form binds its masks to it
(``_shared_form``); the kernel lives as long as some form that binds it.
A kernel holds about 52 bytes per pair above n = 4 when no structure
repeats, 70 at n <= 4, and blocks 3 to 6 (tracemalloc).  An n <= 4 kernel
of one pair still holds 1.3 kB, 21 bytes per charged pair, so a full
budget holds about 9 MiB whatever the pattern sizes.  Real work repeats
its patterns: over 99.6 % of perfbench's n <= 4 product calls, and 21755
algebra-sweep products of 64 to 1023 pairs on 250 patterns, of 45
structures, per 15 s run.

The spinor covariants are quadratic forms x (s e_k) reversion(x) of one
real x with n <= 4, and ``_quadratic_forms`` computes several of them with
no product call: ``_generate_quadratic`` compiles, per key pattern of x and
tuple of specs (k, s, grades), one kernel that reads x's values once and
gives each spec the bits and key order of
geometric_product(_times_blade(x, k, s), reversion(x), grades=grades).
``_FORMS`` holds these kernels too, by (p, n, keys, specs), each charged
len(keys)^2 pairs per spec under the same budget.

The loop serves the rest: smaller real products with n >= 5, and complex
operands at every n.  numpy's complex multiply differs from Python's in the
last bit on 44 % of random normal pairs, so its sums would not be the
loop's, and no perfbench workload multiplies complex operands.

Every stored coefficient is nonzero and finite with no -0.0 part: a Python
float on a real multivector and a Python complex on a complex one, with
``real`` exactly when no imaginary part is nonzero.  Only this module's
builders enforce that rule; other modules hand over and read plain numbers.
Results that this module builds itself skip the validating
``Multivector.__init__`` and go through one of two builders, each told what
its caller already knows, so that no result is re-walked to find it out.
Every builder, ``__init__`` included, stores the three slots through the
slot descriptors' own ``__set__``, bound once at import, past the raising
``__setattr__``; ``object.__setattr__`` would look each slot up by name.
The builders are classmethods read from the class at each call, so a
tracer that patches ``Multivector._trusted`` sees every value that is not
validated.

- ``_own(sig, terms, real=None)``: values from the loop, sums, scalings and
  subsets of a complex operand.  It stores c.real for a real result and
  0j + c for a complex one, drops zeros and rejects a non-finite value, and
  scans for ``real`` unless the caller passes it: a sum, a scaling by a
  real number or a loop product of real operands is real.
- ``_trusted(sig, terms, real)``: no checks, for results that are clean by
  construction.  A compiled form stores each nonzero float sum and rejects
  a non-finite one; ``real`` is True.  Negation, the involutions and
  ``_times_blade`` store 0.0 - c or c and keep the operand's ``real``.
  ``grade_part``, ``even``, ``odd`` and ``prune`` of a real operand keep
  some of its stored values.

Checks read max |x_m - y_m| with ``_max_gap``, without building x - y.

The numpy paths import numpy on first use: ``_pair_blocks``,
``_sum_blocks``, ``_shared_form``, ``_parity_sign``, ``_left_mult_matrix``,
the array branch of a grade filter and ``inverse``'s general path.  Real
products with n <= 4 and the loop never load it.

``Signature(p, q)`` returns one shared instance per pair, its counts
normalised to int, so the signature tests of every product and sum
(``_check_sig``, ``__eq__``) pass on identity, with the dataclass ``__eq__``
behind them.  ``n`` = p + q is stored by ``__new__`` as a field outside
``==``, hash, repr, pickle and ``replace``, since every product reads it.
Each signature holds its scalar 1 and generators, built once through
``__init__`` on first use and shared from then on: ``Multivector.one`` and
``Multivector.generator`` return them, and ``Multivector.zero`` is a
trusted empty value.  A Python number in ``+`` and ``-`` is added as its
coefficient, with no scalar multivector.

So ``__init__`` runs where numbers enter: the public constructors
``Multivector(sig, terms)``, ``scalar``, ``blade`` and ``from_mask``
validate, as do the few values the package builds from outside numbers
(``inverse``'s solved coefficients, a random bivector and the blades it
squares, a plane wave's momentum).  A tracer that counts ``__init__``
calls counts those, not all the multivectors built.

The scalar product implemented here is the grade-wise Gram-determinant
pairing, equal to the scalar part of (reversion(a) * b).  Note that this
convention differs by a sign, on some grades, from the product used in parts
of the geometric-algebra literature (e.g. Hestenes' X * Y = <XY>_0).
"""

from __future__ import annotations

import cmath
import math
import operator
import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    import numpy as np

MAX_DIM = 12

# The shared Signature of each class and (p, q).
_SIGNATURES: dict[tuple[type, int, int], "Signature"] = {}


class SignatureMismatchError(ValueError):
    """Raised when two multivectors from different algebras are combined."""


class NonInvertibleError(ArithmeticError):
    """Raised when an element of the algebra has no inverse."""


@dataclass(frozen=True)
class Signature:
    """The pair (p, q) fixing the metric diag(+1 x p, -1 x q).

    Signature(p, q) returns one shared instance per (p, q), its counts
    normalised to int (bool and numpy integers included, a float raises
    TypeError), so equal signatures are the same object; invalid counts
    raise before anything is shared."""

    p: int
    q: int
    # p + q, stored by __new__; out of ==, hash, repr, pickle and replace.
    n: int = field(init=False, compare=False, repr=False)

    def __new__(cls, p: int, q: int) -> "Signature":
        p, q = int(operator.index(p)), int(operator.index(q))
        if (self := _SIGNATURES.get((cls, p, q))) is not None:
            return self
        if p < 0 or q < 0:
            raise ValueError("signature counts must be non-negative")
        if p + q > MAX_DIM:
            raise ValueError(f"dimension {p + q} exceeds cap {MAX_DIM}")
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", p + q)
        return _SIGNATURES.setdefault((cls, p, q), self)

    def __init__(self, p: int, q: int) -> None:
        # __new__ returns a finished, shared instance; the generated
        # dataclass __init__ would store the raw counts (True, np.int64(1))
        # in it.
        pass

    def __reduce__(self):
        # pickle and copy rebuild through __new__, which returns the shared
        # instance; no state is written back into it.
        return type(self), (self.p, self.q)

    @cached_property
    def _constants(self) -> "tuple[Multivector, tuple[Multivector, ...]]":
        """The scalar 1 and the generators e_1..e_n, built once per instance
        through the validating constructor."""
        one = Multivector(self, {0: 1.0})
        return one, tuple(Multivector(self, {1 << i: 1.0}) for i in range(self.n))

    @property
    def squares(self) -> tuple[int, ...]:
        return tuple(1 if i < self.p else -1 for i in range(self.n))


def _sign_weight(p: int, a):
    """The weight mask w of left blade a in Cl(p, q), for an int a or
    elementwise for an int array: e_a e_b = (-1)^popcount(b & w) e_{a^b}
    for every blade b."""
    # Bit j of w is the sign parity that factor j of b contributes: one swap
    # per factor of a above j, plus one if j is in a and squares to -1.  The
    # folds make bit j of x the parity of a's bits j+1 to j+16, which reach
    # past MAX_DIM; they rebind x, so an array argument is never changed.
    x = a >> 1
    x = x ^ (x >> 1)
    x = x ^ (x >> 2)
    x = x ^ (x >> 4)
    x = x ^ (x >> 8)
    return (a >> p << p) ^ x


def _right_sign_weight(p: int, b: int) -> int:
    """The weight mask v of right blade b in Cl(p, q): e_a e_b =
    (-1)^popcount(a & v) e_{a^b} for every blade a, the parity of
    b & _sign_weight(p, a), read from one mask for all a."""
    # Bit j of v is the sign parity that factor j of a contributes: one swap
    # per factor of b below j, plus one if j is in b and squares to -1.  The
    # folds make bit j of x the parity of b's bits j-16 to j-1.
    x = b << 1
    x ^= x << 1
    x ^= x << 2
    x ^= x << 4
    x ^= x << 8
    return (b >> p << p) ^ x


def _parity_sign(x: np.ndarray) -> np.ndarray:
    """(-1)^popcount(x) elementwise, as int8."""
    import numpy as np

    # Signed before the 1 - 2 *: an unsigned parity would wrap to 255.
    return 1 - 2 * (np.bitwise_count(x) & 1).astype(np.int8)


# A row per left blade, 2^n Python ints: 512 rows hold every left blade of
# perfbench's algebra-sweep (320), and at most 16 MiB of rows at n = 12.
@lru_cache(maxsize=512)
def _reorder_sign(p: int, n: int, a: int) -> tuple[int, ...]:
    """Signs of e_a e_b in Cl(p, n - p) for every blade b, indexed by b."""
    w = _sign_weight(p, a)
    row = [1]
    for j in range(n):
        row = row + ([-s for s in row] if w >> j & 1 else row)
    return tuple(row)


def _blade_of(indices: Iterable[int], n: int) -> tuple[int, bool]:
    """The mask of the blade of generators with 1-based indices, in any
    order, checked index by index, and whether sorting them takes an odd
    number of swaps."""
    mask, swaps = 0, 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"generator e{i} out of range for n={n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator e{i}")
        swaps += (mask >> i).bit_count()  # earlier generators above e_i
        mask |= bit
    return mask, bool(swaps & 1)


def _all_real(values) -> bool:
    """Whether no value has a nonzero imaginary part."""
    for c in values:
        if c.imag != 0.0:
            return False
    return True


class Multivector:
    """Immutable sparse multivector: map from blade mask to coefficient."""

    __slots__ = ("signature", "_terms", "real")

    def __init__(self, signature: Signature, terms: Mapping[int, complex] | None = None):
        _set_signature(self, signature)
        clean: dict[int, complex] = {}
        limit = 1 << signature.n
        for mask, coeff in (terms or {}).items():
            try:
                mask = operator.index(mask)
            except TypeError:
                raise ValueError(f"blade mask {mask!r} is not an integer") from None
            if not 0 <= mask < limit:
                raise ValueError(f"blade mask {mask} invalid for n={signature.n}")
            c = complex(coeff)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("non-finite coefficient")
            if c != 0:
                clean[mask] = clean.get(mask, 0) + c
                if clean[mask] == 0:
                    del clean[mask]
        real = _all_real(clean.values())
        _set_terms(self, {m: c.real for m, c in clean.items()} if real else clean)
        _set_real(self, real)

    @classmethod
    def _own(
        cls, signature: Signature, terms: dict[int, complex], real: bool | None = None
    ) -> "Multivector":
        """Builder for values computed in this module: masks in range.
        Stores c.real for a real result and 0j + c, no part -0.0, for a
        complex one; drops zeros and rejects non-finite values.  A caller
        that knows the result is real passes real=True, skipping the scan."""
        if real is None:
            real = _all_real(terms.values())
        if real:
            clean = {m: c.real for m, c in terms.items() if c}
        else:
            clean = {m: 0j + c for m, c in terms.items() if c}
        values = clean.values()
        # A sum of finite terms can overflow, so a non-finite sum is only a
        # hint; each term is checked before rejecting.
        if not cmath.isfinite(sum(values)) and not all(map(cmath.isfinite, values)):
            raise ValueError("non-finite coefficient")
        return cls._trusted(signature, clean, real)

    @classmethod
    def _trusted(cls, signature: Signature, terms: dict[int, complex], real: bool) -> "Multivector":
        """No checks: terms must already be stored values, nonzero and finite
        with no -0.0 part, floats exactly when real."""
        self = _new(cls)
        _set_signature(self, signature)
        _set_terms(self, terms)
        _set_real(self, real)
        return self

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Multivector is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the validating constructor; the
        # default slot-state restore would call the raising __setattr__.
        return Multivector, (self.signature, dict(self._terms))

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, sig: Signature, value: complex) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def zero(cls, sig: Signature) -> "Multivector":
        return cls._trusted(sig, {}, True)

    @classmethod
    def one(cls, sig: Signature) -> "Multivector":
        """The scalar 1, shared per signature."""
        return sig._constants[0]

    @classmethod
    def generator(cls, sig: Signature, index: int) -> "Multivector":
        """Basis vector e_index with 1-based index, shared per signature.  An
        index outside 1..n raises _blade_of's ValueError."""
        if not 1 <= index <= sig.n:
            _blade_of((index,), sig.n)
        return sig._constants[1][index - 1]

    @classmethod
    def blade(cls, sig: Signature, indices: Iterable[int], coeff: complex = 1.0) -> "Multivector":
        """coeff times the product of distinct generators, given by 1-based
        indices in any order; each swap that sorts them flips the sign.  An
        index outside 1..n raises ValueError "generator e<i> out of range for
        n=<n>", and a repeated one "repeated generator e<i>"."""
        mask, odd = _blade_of(indices, sig.n)
        return cls(sig, {mask: -coeff if odd else coeff})

    @classmethod
    def from_mask(cls, sig: Signature, mask: int, coeff: complex = 1.0) -> "Multivector":
        return cls(sig, {mask: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[int, complex]:
        return dict(self._terms)

    def coeff(self, mask: int) -> complex:
        return self._terms.get(mask, 0.0 if self.real else 0j)

    def scalar_part(self) -> complex:
        return self._terms.get(0, 0.0 if self.real else 0j)

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
        dense = [0.0 if self.real else 0j] * (1 << self.signature.n)
        for mask, c in self._terms.items():
            dense[mask] = c
        return dense

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        a, b = self.signature, other.signature
        return (a is b or a == b) and self._terms == other._terms

    def __hash__(self):
        return hash((self.signature, frozenset(self._terms.items())))

    def approx_eq(self, other: "Multivector", tol: float = 1e-12) -> bool:
        return _max_gap(self, other) <= tol

    def __repr__(self) -> str:
        from .serialization import format_multivector

        return f"<Cl({self.signature.p},{self.signature.q}) {format_multivector(self)}>"

    # -- linear structure --------------------------------------------------

    def _check_sig(self, other: "Multivector") -> None:
        if self.signature is not other.signature and self.signature != other.signature:
            raise SignatureMismatchError(
                f"Cl({self.signature.p},{self.signature.q}) vs "
                f"Cl({other.signature.p},{other.signature.q})"
            )

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._add_scalar(complex(other))
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return Multivector._own(self.signature, out, True if self.real and other.real else None)

    __radd__ = __add__

    def _add_scalar(self, c: complex) -> "Multivector":
        """self + c for a number c: the sum with the scalar multivector of c,
        to the bit.  A real self adds c.real when c has no imaginary part;
        _own drops a zero sum and rejects a non-finite one."""
        real = self.real and not c.imag
        out = dict(self._terms)
        out[0] = out.get(0, 0) + (c.real if real else c)
        return Multivector._own(self.signature, out, True if real else None)

    def __neg__(self):
        terms = {m: 0.0 - c for m, c in self._terms.items()}
        return Multivector._trusted(self.signature, terms, self.real)

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._add_scalar(-complex(other))
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            s = complex(other)
            real = self.real and not s.imag
            s = s.real if real else s
            terms = {m: c * s for m, c in self._terms.items()}
            return Multivector._own(self.signature, terms, True if real else None)
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
        return _subset(self, {m: c for m, c in self._terms.items() if m.bit_count() % 2 == 0})

    def odd(self) -> "Multivector":
        return _subset(self, {m: c for m, c in self._terms.items() if m.bit_count() % 2 == 1})

    def rev(self) -> "Multivector":
        return reversion(self)

    def prune(self, tol: float) -> "Multivector":
        return _subset(self, {m: c for m, c in self._terms.items() if abs(c) > tol})


# The slots' own descriptors, past the raising __setattr__.
_new = object.__new__
_set_signature = Multivector.signature.__set__
_set_terms = Multivector._terms.__set__
_set_real = Multivector.real.__set__


def _max_gap(x: Multivector, y) -> float:
    """(x - y).max_abs() for y a multivector, a dict of stored values or a
    number, read from the terms: a blade absent from one side reads 0, and
    a difference too large for a float raises ValueError, as x - y does."""
    if isinstance(y, Multivector):
        x._check_sig(y)
        y = y._terms
    gaps = dict(x._terms)
    for m, c in y.items() if isinstance(y, dict) else ((0, complex(y)),):
        gaps[m] = gaps[m] - c if m in gaps else c
    values = gaps.values()
    if not cmath.isfinite(sum(values)) and not all(map(cmath.isfinite, values)):
        raise ValueError("non-finite coefficient")
    return max(map(abs, values), default=0.0)


def _subset(a: Multivector, terms: dict[int, complex]) -> Multivector:
    """Some of a's stored terms; a subset of a complex operand can be real."""
    if a.real:
        return Multivector._trusted(a.signature, terms, True)
    return Multivector._own(a.signature, terms)


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
    """Compile _product_loop of two real operands for one key pattern into
    straight-line code that returns the loop's stored values.

    Each output blade's sum lists its terms in the loop's order, and the
    blades appear in the loop's first-appearance order.  The source holds
    only positional names a<i>, b<j> and, with n <= _KERNEL_MAX_N, integer
    masks; each sign is the parity of mb & _sign_weight(p, ma).

    With n <= _KERNEL_MAX_N each nonzero sum s<m> is stored in the kernel,
    one kernel per pattern.  Above, _shared_form compiles one kernel per
    structure of patterns, and each form binds its masks."""
    if n > _KERNEL_MAX_N:
        return _shared_form(p, a_keys, b_keys, keep)
    sums: dict[int, list[str]] = {}
    for i, ma in enumerate(a_keys):
        w = _sign_weight(p, ma)
        for j, mb in enumerate(b_keys):
            if keep is None or keep(ma, mb):
                sign = "-" if (mb & w).bit_count() & 1 else "+"
                sums.setdefault(ma ^ mb, []).append(f"{sign}a{i}*b{j}")
    terms = {m: "".join(t).lstrip("+") for m, t in sums.items()}
    lines = [f"s{m} = {t}" for m, t in terms.items()] + ["out = {}"]
    lines += [f"if s{m}: out[{m}] = s{m}" for m in terms]
    if terms:
        total, names = " + ".join(f"s{m}" for m in terms), ", ".join(f"s{m}" for m in terms)
        lines.append(f"if not _isfinite({total}) and not all(map(_isfinite, ({names},))):")
        lines.append('    raise ValueError("non-finite coefficient")')
    lines.append("return out")
    return _compile_kernel("a, b", len(a_keys), len(b_keys), lines)


def _shared_form(p: int, a_keys: tuple, b_keys: tuple, keep):
    """The n > _KERNEL_MAX_N form of _generate_kernel: partial(kernel,
    masks), where kernel(M, a, b) hands the tuple of its sums to _stored
    with the output masks M; a store and a branch per blade doubled the
    compile time of kernels often run once.  The kernel names no mask, so
    it serves every pattern of its structure, the operand lengths and each
    output's signed (i, j) terms in order.  _SHARED_KERNELS finds it by the
    structure's code; the source is built only when the code misses."""
    import numpy as np

    nb = len(b_keys)
    sums: dict[int, list[int]] = {}
    for i, ma in enumerate(a_keys):
        w = _sign_weight(p, ma)
        for j, mb in enumerate(b_keys):
            if keep is None or keep(ma, mb):
                term = i * nb + j | (_SIGN_BIT if (mb & w).bit_count() & 1 else 0)
                m = ma ^ mb
                if m in sums:
                    sums[m].append(term)
                else:
                    sums[m] = [term | _FIRST_BIT]
    code = (len(a_keys), nb, np.fromiter(chain.from_iterable(sums.values()), np.uint16).tobytes())
    kernel = _SHARED_KERNELS.get(code)
    if kernel is None:
        pair = _SIGN_BIT - 1

        def text(term):
            i, j = divmod(term & pair, nb)
            return f"{'-' if term & _SIGN_BIT else '+'}a{i}*b{j}"

        texts = ("".join(map(text, t)).lstrip("+") for t in sums.values())
        body = ["return _stored(M, (" + "".join(f"{t}, " for t in texts) + "))"]
        kernel = _SHARED_KERNELS[code] = _compile_kernel("M, a, b", len(a_keys), nb, body)
    return partial(kernel, tuple(sums))


def _generate_quadratic(p: int, n: int, keys: tuple, specs: tuple):
    """Compile, for one key pattern of a real x with n <= _KERNEL_MAX_N,
    the quadratic forms x (s e_k) reversion(x) of each spec (k, s, grades)
    into one kernel that reads x's values once and returns a tuple of
    stored-value dicts, one per spec: those of
    geometric_product(_times_blade(x, k, s), reversion(x), grades=grades).

    Each sum lists that product's kept pairs (i, j) in its order, x_i times
    x_j, and each blade comes at its first kept pair.  The signs of
    _times_blade, reversion and the blade product are folded into the term:
    they flip nonzero stored values, exactly, so every term and every sum
    has that product's bits.  One finite check covers every sum."""
    lines, stores, names = [], [], []
    for o, (k, s, grades) in enumerate(specs):
        bits = 0
        for g in grades:
            bits |= 1 << g
        v = _right_sign_weight(p, k)
        sums: dict[int, list[str]] = {}
        for i, mi in enumerate(keys):
            ma = mi ^ k
            w = _sign_weight(p, ma)
            flip = ((mi & v).bit_count() & 1) ^ (s < 0)
            for j, mj in enumerate(keys):
                m = ma ^ mj
                if bits >> m.bit_count() & 1:
                    # x_i's sign in x s e_k, x_j's in reversion(x), the product's.
                    minus = flip ^ (mj.bit_count() >> 1 & 1) ^ ((mj & w).bit_count() & 1)
                    sums.setdefault(m, []).append(f"{'-' if minus else '+'}a{i}*a{j}")
        lines += [f"s{o}_{m} = {''.join(t).lstrip('+')}" for m, t in sums.items()]
        stores.append(f"o{o} = {{}}")
        stores += [f"if s{o}_{m}: o{o}[{m}] = s{o}_{m}" for m in sums]
        names += [f"s{o}_{m}" for m in sums]
    lines += stores
    if names:
        lines.append(f"if not _isfinite({' + '.join(names)}) and not all(map(_isfinite, ({', '.join(names)},))):")
        lines.append('    raise ValueError("non-finite coefficient")')
    lines.append("return " + "".join(f"o{o}, " for o in range(len(specs))))
    return _compile_kernel("a", len(keys), 0, lines)


def _compile_kernel(params: str, na: int, nb: int, body: list[str]):
    """The function kernel(params) that unpacks the operands' float values
    into a<i> and b<j>, an operand of no values into nothing, then runs the
    lines of body."""
    lines = [f"{', '.join(f'{v}{i}' for i in range(count))}, = {v}" for v, count in (("a", na), ("b", nb)) if count]
    lines += body
    source = f"def kernel({params}):\n" + "".join(f"    {line}\n" for line in lines)
    local: dict = {}
    exec(source, _KERNEL_GLOBALS, local)
    return local["kernel"]


def _stored(masks, sums) -> dict[int, float]:
    """Each nonzero float sum, with the mask at its position in masks; a
    non-finite total, which finite sums can reach, checks each sum."""
    if not math.isfinite(sum(sums)) and not all(map(math.isfinite, sums)):
        raise ValueError("non-finite coefficient")
    return {m: v for m, v in zip(masks, sums) if v}


# The globals of every kernel, one dict for all: a dict per kernel took 160 B.
_KERNEL_GLOBALS = {"_isfinite": math.isfinite, "_stored": _stored}

# Every real pattern with n <= 4, at most 16 x 16 terms, is compiled; above,
# only patterns of _FORM_MIN_PAIRS pairs or more.  Without that floor
# algebra-sweep's patterns under 64 pairs, mostly one-off and of few shared
# structures, made 1373 compile calls and 98 kernel sources per 100
# operations instead of 117 and 28, for 1.4-1.7 MiB more peak RSS and no
# faster operations.  It is also the least pairs a form is charged.
_KERNEL_MAX_N = 4
_FORM_MIN_PAIRS = 64
# Patterns of fewer term pairs compile to kernels, about 52 bytes per pair;
# larger ones to pair blocks, 3 to 6 bytes per pair, where a kernel would
# grow to 16384 pairs (dense n = 7).  A cap of 128 gave algebra-sweep the
# same median but a 4.5 % longer tail.
_KERNEL_MAX_PAIRS = 1024
# A structure code holds each kernel term i * len(b) + j, under
# _KERNEL_MAX_PAIRS, in 2 bytes, with a bit for a minus sign and one for an
# output's first term.
_SIGN_BIT = 1 << (_KERNEL_MAX_PAIRS - 1).bit_length()
_FIRST_BIT = _SIGN_BIT << 1
# Term pairs per block of left terms: each float temporary of a block holds at
# most 1 MiB.
_ARRAY_BLOCK_PAIRS = 1 << 17


def _pair_blocks(p: int, n: int, a_keys: tuple, b_keys: tuple, keep):
    """The pairs of _product_loop for one key pattern, in blocks of left
    terms of _ARRAY_BLOCK_PAIRS pairs.  Each block is (rows, positions,
    blades, signs, new): the slice of left terms; the flat positions of the
    kept pairs in the block's rows x b_keys, or None with no filter; their
    output blades and int8 signs, each the parity of mb & _sign_weight(p, ma);
    and the blades first met in the block, in the order of their first pair."""
    import numpy as np

    ma = np.array(a_keys, np.int32)
    mb = np.array(b_keys, np.int32)
    first = np.full(1 << n, ma.size * mb.size, np.int32)  # each blade's first pair
    step = max(1, _ARRAY_BLOCK_PAIRS // mb.size)
    for start in range(0, ma.size, step):
        a = ma[start : start + step, None]
        blades = (a ^ mb).ravel()
        signs = _parity_sign(_sign_weight(p, a) & mb).ravel()
        if keep is None:
            positions, order = None, np.arange(blades.size, dtype=np.int32)
        else:
            positions = order = np.flatnonzero(keep(a, mb)).astype(np.int32)
            blades, signs = blades[positions], signs[positions]
        order = order + start * mb.size
        np.minimum.at(first, blades, order)
        yield slice(start, start + step), positions, blades, signs, blades[first[blades] == order]


def _sum_blocks(n: int, blocks, a, b) -> dict[int, float]:
    """The stored values of _product_loop of two real operands with values
    a and b, computed on arrays from the pair blocks of their key pattern.

    Pair (i, j) contributes sign * (x_i * y_j), which is the loop's value,
    and np.add.at adds the contributions to each output blade one at a time
    in the loop's pair order, never pairwise, so every sum is the loop's to
    the bit.  The blades come out in the order of their first kept pair, as
    the loop inserts them.  Overflow is reported as the loop reports it, by
    the ValueError of _stored alone, so numpy's overflow and invalid-value
    warnings are off."""
    import numpy as np

    xa = np.fromiter(a, float, len(a))
    xb = np.fromiter(b, float, len(b))
    sums = np.zeros(1 << n)
    keys = []
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, positions, blades, signs, new in blocks:
            values = (xa[rows, None] * xb).ravel()
            if positions is not None:
                values = values[positions]
            values *= signs
            np.add.at(sums, blades, values)
            keys.append(new)
    keys = np.concatenate(keys)
    return _stored(keys.tolist(), sums[keys].tolist())


def _charge(key: tuple) -> int:
    """The pairs the form cache charges for a key: a product pattern's term
    pairs, len(keys)^2 per spec for a quadratic key (p, n, keys, specs),
    and no fewer than _FORM_MIN_PAIRS."""
    if len(key) == 4:
        return max(len(key[2]) ** 2 * len(key[3]), _FORM_MIN_PAIRS)
    return max(len(key[2]) * len(key[3]), _FORM_MIN_PAIRS)


class _FormCache:
    """Compiled forms of products of real operands, by (p, n, left keys,
    right keys, filter).  A form maps the operands' values to the loop's
    stored values: a generated kernel for a pattern of fewer than
    _KERNEL_MAX_PAIRS term pairs, and _sum_blocks on the pattern's pair
    blocks for a larger one.  Above n = _KERNEL_MAX_N the kernel is shared
    by the patterns of one structure, and the form is partial(kernel,
    masks), as a blocks form is partial(_sum_blocks, n, blocks); a shared
    kernel goes with the last form that binds it.  Quadratic forms of one
    real operand, by (p, n, keys, specs), are _generate_quadratic's kernels
    (_quadratic_forms).

    A pattern is compiled on its first sight.  Each form costs the number of
    term pairs it covers, and no fewer than _FORM_MIN_PAIRS (_charge), since
    a kernel's code object holds 1.3 kB even for one pair.  The forms held
    cost at most _FORM_PAIR_BUDGET: a new form drops the oldest ones, in
    insertion order, until it fits.  A pattern of more than _FORM_MAX_PAIRS
    pairs, or costing more than the whole budget, is not compiled."""

    def __init__(self):
        self.forms: dict[tuple, object] = {}
        self.pairs = 0
        self._lock = threading.Lock()

    def compile(self, key: tuple):
        """The form for a key missing from self.forms, or None for a pattern
        that the cap or the whole budget leaves out."""
        cost = _charge(key)
        # cost and the raw pair count pass _FORM_MAX_PAIRS and
        # _KERNEL_MAX_PAIRS together, as both lie above _FORM_MIN_PAIRS.
        if cost > min(_FORM_MAX_PAIRS, _FORM_PAIR_BUDGET):
            return None
        with self._lock:
            form = self.forms.get(key)
            if form is None:
                if len(key) == 4:
                    form = _generate_quadratic(*key)
                elif cost < _KERNEL_MAX_PAIRS:
                    form = _generate_kernel(*key)
                else:
                    form = partial(_sum_blocks, key[1], tuple(_pair_blocks(*key)))
                while self.pairs + cost > _FORM_PAIR_BUDGET:
                    oldest = next(iter(self.forms))
                    del self.forms[oldest]
                    self.pairs -= _charge(oldest)
                self.forms[key] = form
                self.pairs += cost
        return form


# Patterns up to dense Cl(4,3) are compiled.  perfbench's algebra-sweep
# compiles 105088 pairs in a 15 s run and fills the budget within 60 s; a
# 120 s run compiles 2004 forms and drops 1489 of them, oldest first.
_FORM_MAX_PAIRS = 1 << 14
_FORM_PAIR_BUDGET = 1 << 17
_FORMS = _FormCache()
# The n > _KERNEL_MAX_N kernels by structure code, each kept only while a
# form binds it, so the pair budget bounds them too.  Only _shared_form
# reads and writes it, called by _generate_kernel under the form cache's lock.
_SHARED_KERNELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _product(a: Multivector, b: Multivector, keep=None) -> Multivector:
    """_product_loop of a and b.  Real operands, neither zero, with n <= 4 or
    _FORM_MIN_PAIRS term pairs or more take the compiled form of their key
    pattern, or blocks made anew for a pattern that the form cache leaves
    out.  Complex operands take the loop at every n."""
    sig = a.signature
    if sig is not b.signature:
        a._check_sig(b)
    n, at, bt = sig.n, a._terms, b._terms
    real = a.real and b.real
    if real and at and bt and (n <= _KERNEL_MAX_N or len(at) * len(bt) >= _FORM_MIN_PAIRS):
        key = (sig.p, n, tuple(at), tuple(bt), keep)
        form = _FORMS.forms.get(key) or _FORMS.compile(key)
        if form is None:
            form = partial(_sum_blocks, n, _pair_blocks(*key))
        return Multivector._trusted(sig, form(at.values(), bt.values()), True)
    return Multivector._own(sig, _product_loop(sig.p, n, at, bt, keep), True if real else None)


def _quadratic_forms(x: Multivector, specs: tuple) -> tuple[Multivector, ...]:
    """geometric_product(_times_blade(x, k, s), reversion(x), grades=grades)
    for each spec (k, s, grades), to the bit and in key order, for a real x
    with n <= _KERNEL_MAX_N: one compiled kernel per key pattern and specs
    (_generate_quadratic), held in _FORMS under its pair budget, with no
    product call.  A non-finite sum raises ValueError."""
    sig = x.signature
    if not x.real or sig.n > _KERNEL_MAX_N:
        raise ValueError(f"quadratic forms need a real multivector with n <= {_KERNEL_MAX_N}")
    key = (sig.p, sig.n, tuple(x._terms), specs)
    # The budget holds any n <= 4 key of up to 64 specs; past that, compile uncached.
    form = _FORMS.forms.get(key) or _FORMS.compile(key) or _generate_quadratic(*key)
    trusted = Multivector._trusted
    return tuple([trusted(sig, out, True) for out in form(x._terms.values())])


def _times_blade(x: Multivector, k: int, s: float = 1.0) -> Multivector:
    """x (s e_k) for the blade mask k and s = 1 or -1, as a signed
    permutation of x's terms, with no product call.  The keys keep x's
    order, and each value is c or 0.0 - c, as the involutions store them:
    the bits that geometric_product(x, s e_k) stores."""
    w = _right_sign_weight(x.signature.p, k)
    flip = s < 0
    terms = {m ^ k: 0.0 - c if ((m & w).bit_count() & 1) ^ flip else c for m, c in x._terms.items()}
    return Multivector._trusted(x.signature, terms, x.real)


# The filters also take arrays of masks, as _pair_blocks calls them.
def _outer(ma, mb):
    return ma & mb == 0


def _left_inner(ma, mb):
    return ma & ~mb == 0


def _right_inner(ma, mb):
    return mb & ~ma == 0


@lru_cache(maxsize=None)
def _grade_filter(bits: int):
    """The pair filter that keeps the blades whose grade k has bit k set in
    bits: one object per grade set, as form keys hold it.  It
    takes ints, and int arrays as _pair_blocks passes them; only an array
    reads numpy."""

    def keep(ma, mb):
        x = ma ^ mb
        if isinstance(x, int):
            return bits >> x.bit_count() & 1
        import numpy as np

        table = np.array([bits >> k & 1 for k in range(MAX_DIM + 1)], bool)
        return table[np.bitwise_count(x)]

    return keep


def geometric_product(a: Multivector, b: Multivector, *, grades=None) -> Multivector:
    """a b, or with grades, the parts of a b of those grades only: each
    pair whose blade has another grade is skipped, so the kept blades hold
    the full product's bits in its key order.  An empty grade set gives
    zero; a grade outside 0..n raises ValueError.  Only the kept blades are
    checked for a non-finite coefficient, so an overflow in a skipped grade
    does not raise."""
    if grades is None:
        return _product(a, b)
    n, bits = a.signature.n, 0
    for k in grades:
        if not 0 <= k <= n:
            raise ValueError(f"grade {k} out of range 0..{n}")
        bits |= 1 << k
    return _product(a, b, _grade_filter(bits))


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
    p = a.signature.p
    total = 0.0 if a.real and b.real else 0j
    for m, ca in a._terms.items():
        cb = b._terms.get(m)
        if cb is None:
            continue
        # reversion(e_m) e_m is the product of m's generator squares.
        sign = -1 if (m >> p).bit_count() & 1 else 1
        total += sign * ca * cb
    return total


def grade_part(a: Multivector, k: int) -> Multivector:
    if not 0 <= k <= a.signature.n:
        raise ValueError(f"grade {k} out of range 0..{a.signature.n}")
    return _subset(a, {m: c for m, c in a._terms.items() if m.bit_count() == k})


# -- involutions ------------------------------------------------------------


# Sign flips are written 0.0 - c: -c on a float, and 0j - c, which is
# 0 + (-1 * c) to the bit, on a complex; sign +1 keeps the stored c.


def grade_involution(a: Multivector) -> Multivector:
    """(-1)^k on grade k."""
    terms = {m: 0.0 - c if m.bit_count() & 1 else c for m, c in a._terms.items()}
    return Multivector._trusted(a.signature, terms, a.real)


def reversion(a: Multivector) -> Multivector:
    """(-1)^(k(k-1)/2) on grade k: negative where k mod 4 is 2 or 3."""
    terms = {m: 0.0 - c if m.bit_count() & 2 else c for m, c in a._terms.items()}
    return Multivector._trusted(a.signature, terms, a.real)


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
    return _times_blade(reversion(a), 0b1111, -1.0)


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

    For real F, exp F is closed-form in C(x) = cosh sqrt(x) and S(x) =
    sinh sqrt(x) / sqrt(x) whenever F^2 = alpha + beta I, with I the unit
    pseudoscalar:
      F^2 exactly the scalar alpha (every F with n <= 3, and every single
                      blade at any n): C(alpha) + S(alpha) F;
      n = 4, I^2 = -1: cosh z + (sinh z / z) F with z^2 = alpha + beta i and
                      i read as I (I commutes with F; both functions are even
                      in z);
      n = 4, I^2 = +1: (C(alpha +- beta) + S(alpha +- beta) F) on the
                      central idempotents (1 +- I)/2.
    Complex F, and F with n >= 5 whose square is not a scalar, use
    scaling-and-squaring of the power series.  A result too large for a
    float raises ValueError.
    """
    if f.grades() - {2}:
        raise ValueError("exp_bivector requires a pure grade-2 argument")
    if not f.real:
        return _exp_series(f)
    sig = f.signature
    n = sig.n
    f2 = geometric_product(f, f)
    scalar_square = f2._terms.keys() <= {0}
    if n > 4 and not scalar_square:
        return _exp_series(f)
    alpha = f2.scalar_part()
    try:
        if scalar_square:
            c, s = _cosh_sinhc(alpha)
            return Multivector._own(sig, {0: c, **{m: s * v for m, v in f._terms.items()}}, True)
        pseudo = (1 << n) - 1
        w = _sign_weight(sig.p, pseudo)
        beta = f2.coeff(pseudo)
        if (pseudo & w).bit_count() & 1:
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
    # exp F = c0 + c1 I + s0 F + s1 I F, with I F = F I at n = 4 a signed
    # permutation of F's terms.
    out = {0: c0, pseudo: c1}
    for (m, v), (mi, vi) in zip(f._terms.items(), _times_blade(f, pseudo)._terms.items()):
        out[m] = out.get(m, 0) + s0 * v
        out[mi] = out.get(mi, 0) + s1 * vi
    return Multivector._own(sig, out, True)


def _exp_series(f: Multivector) -> Multivector:
    """exp of a pure bivector via scaling-and-squaring plus power series."""
    sig = f.signature
    scale = f.norm()
    k = 0
    if scale > 0.5:
        k = max(0, math.ceil(math.log2(scale / 0.5)))
    x = f * (0.5 ** k if k else 1.0)
    result = term = Multivector.one(sig)
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
    import numpy as np

    sig = a.signature
    cols = np.arange(1 << sig.n)
    x = np.array(a.coefficients())
    # Entry (r, c) is the one term ma = r ^ c, times the sign of e_ma e_c;
    # adding 0.0 stores no -0.0.
    terms = cols[:, None] ^ cols
    mat = x[terms]
    mat *= _parity_sign(_sign_weight(sig.p, cols)[terms] & cols)
    mat += 0.0
    return mat


def inverse(a: Multivector) -> Multivector:
    """a^{-1} with a fast path when a * reversion(a) is a nonzero scalar and
    a general path via the 2^n x 2^n left-multiplication linear system.
    The fast path's zero test is relative to |a|^2, the size of a *
    reversion(a), so it serves a scaled element as it serves the unscaled.

    The general path's np.linalg.solve rounds differently with the number of
    BLAS threads, so its last bits depend on the host's thread settings (a
    dense Cl(4,3) inverse differs between OPENBLAS_NUM_THREADS=1 and 2).
    perfbench pins BLAS to one thread."""
    sig = a.signature
    if a.is_zero():
        raise NonInvertibleError("zero element has no inverse")
    ar = reversion(a)
    s = geometric_product(a, ar)
    s0 = s.scalar_part()
    if abs(s0) > 1e-14 * a.norm() ** 2 and _max_gap(s, s0) <= 1e-14 * abs(s0):
        cand = ar * (1.0 / s0)
        if geometric_product(a, cand).approx_eq(Multivector.one(sig), 1e-12):
            return cand
    import numpy as np

    mat = _left_mult_matrix(a)
    dim = 1 << sig.n
    rhs = np.zeros(dim, dtype=mat.dtype)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NonInvertibleError("singular element (zero divisor)") from exc
    cand = Multivector(sig, {m: c for m, c in enumerate(sol.tolist()) if c != 0})
    residual = _max_gap(geometric_product(a, cand), 1)
    if residual > 1e-9 * max(1.0, a.max_abs() * cand.max_abs()):
        raise NonInvertibleError(f"singular element (inverse residual {residual:.3g})")
    return cand


def norm_N(a: Multivector) -> complex:
    """N(a) = <conjugation(a) a>_0."""
    return geometric_product(conjugation(a), a, grades=(0,)).scalar_part()
