"""Exact proofs of the quadratic covariant identities that fierz_residuals
checks numerically.

The spinor is a generic even element psi = sum a_i E_i of Cl(1,3), whose 8
coefficients are the generators a0..a7 of the polynomial ring Z[a0..a7].
sigma, omega, J, S and K are computed from it exactly, and the rows of
``spinors.fierz_statements``, the table that fierz_residuals evaluates, are
evaluated on them in an exact namespace: its product is
``multivector._product_loop`` itself on dicts of polynomial coefficients,
and its wedge and contraction pass the package's own ``_outer`` and
``_right_inner`` filters.  Each identity is then an equality of polynomials
in the a_i.

The fiducial frame covers every spinorial frame: bilinear_covariants
computes the covariants of psi in a frame (u, b) as those of psi u^{-1}
in the fiducial frame, and psi u^{-1} is again a generic even element.

The recovery's two rank-one factorizations, J e1 -+ K e1 = 2 psi P_+-
psi^dagger, and the action of a central phase e^{alpha g5} on the
covariants are proven in the same way.

The identities are those of P. Lounesto, Clifford Algebras and Spinors
(2nd ed.), ch. 12, and J. P. Crawford, J. Math. Phys. 26, 1439 (1985).
"""

import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from sympy import ZZ, ring

from cliffspin import DHSRep, Multivector, bilinear_covariants, fiducial_spinorial_frame
from cliffspin.multivector import G5, _outer, _product_loop, _right_inner
from cliffspin.spinors import _COLUMN_PROJECTORS, SIG13, fierz_statements

P, N = SIG13.p, SIG13.n
FID = fiducial_spinorial_frame(SIG13)
EVEN = [m for m in range(1 << N) if m.bit_count() % 2 == 0]
_, *A = ring("a0:8", ZZ)


# -- an exact evaluator over polynomial coefficients --------------------------------


def product(x, y, keep=None):
    """multivector._product_loop on dicts of polynomial coefficients, with
    the zero sums dropped."""
    return {m: c for m, c in _product_loop(P, N, x, y, keep).items() if c}


def add(x, y, s=1):
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, 0) + s * c
    return {m: c for m, c in out.items() if c}


def reversion(x):
    """Negative where the grade mod 4 is 2 or 3, as multivector.reversion."""
    return {m: -c if m.bit_count() & 2 else c for m, c in x.items()}


def grade(x, k):
    return {m: c for m, c in x.items() if m.bit_count() == k}


def scalar_product(x, y):
    """<reversion(x) y>_0, summed as multivector.scalar_product sums it."""
    total = 0
    for m, c in x.items():
        if m in y:
            total += (-1 if (m >> P).bit_count() & 1 else 1) * c * y[m]
    return total


def exact(mv: Multivector) -> dict:
    """An integer-valued constant of the package as an exact dict."""
    out = {m: int(c.real) for m, c in mv.terms.items()}
    assert all(out[m] == c for m, c in mv.terms.items())
    return out


ONE = {0: 1}
g5 = exact(G5)
# The fiducial upper-index gammas e1, -e2, -e3 and -e4.
g = [exact(s * Multivector.generator(SIG13, i + 1)) for i, s in enumerate((1, -1, -1, -1))]


def hodge_dual(x):
    return product(reversion(x), g5)


def covariants(psi):
    """(sigma, omega, J, S, K) as bilinear_covariants derives them, and the
    parts that its grade projections drop."""
    psit = reversion(psi)
    agg = product(psi, psit)
    sigma, omega = agg.get(0, 0), -agg.get(0b1111, 0)
    J = product(product(psi, g[0]), psit)
    S = product(product(psi, product(g[1], g[2])), psit)
    K = product(product(psi, g[3]), psit)
    dropped = [add(agg, {0: sigma, 0b1111: -omega}, -1)]
    dropped += [add(x, grade(x, k), -1) for x, k in ((J, 1), (S, 2), (K, 1))]
    return (sigma, omega, grade(J, 1), grade(S, 2), grade(K, 1)), dropped


PSI = dict(zip(EVEN, A))
(SIGMA, OMEGA, J, S, K), DROPPED = covariants(PSI)


def holds(lhs, a, b, X):
    rhs = product(add({0: a}, g5, b), X)
    return not add(lhs, rhs, -1)


EXACT_OPS = SimpleNamespace(
    product=product,
    wedge=lambda x, y: product(x, y, _outer),
    right_contraction=lambda x, y: product(x, y, _right_inner),
    scalar_product=scalar_product,
    hodge_dual=hodge_dual,
    one=ONE,
)
# Each row as (lhs, a, b, X), a scalar lhs lifted to a scalar dict.
STATED = {
    name: ({0: lhs} if scale is not None else lhs, a, b, X)
    for name, (lhs, a, b, X, scale) in fierz_statements(EXACT_OPS, SIGMA, OMEGA, J, S, K).items()
}


# -- the proofs ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(STATED))
def test_identity_holds_exactly(name):
    assert holds(*STATED[name]), name


def test_grade_projections_drop_nothing():
    # psi reversion(psi) = sigma + omega g5, and J, S, K are pure vectors and
    # a pure bivector, so the covariants lose nothing to their projections.
    assert DROPPED == [{}, {}, {}, {}]


def test_no_other_sign_or_role_holds():
    # Of (+-a +- b g5) X and (+-b +- a g5) X, only the stated (a + b g5) X
    # holds, so the suite pins every sign, including the sign of the
    # identity S (K S K) = (J.J)^2 that also holds where J.J = 0.
    for name, (lhs, a, b, X) in STATED.items():
        if not (a or b):
            continue
        variants = {(s * u, t * v) for s in (1, -1) for t in (1, -1) for u, v in ((a, b), (b, a))}
        assert [v for v in variants if holds(lhs, *v, X)] == [(a, b)], name


def test_evaluator_matches_bilinear_covariants():
    # At integer points every float in bilinear_covariants is an exact
    # integer, so the exact evaluator must agree with it to the bit.
    values = (3, -1, 2, 5, -4, 1, -2, 7)
    at = lambda x: {m: c(*values) for m, c in x.items()}
    psi = Multivector(SIG13, dict(zip(EVEN, values)))
    c = bilinear_covariants(DHSRep(FID, psi))
    assert (c.sigma, c.omega) == (SIGMA(*values), OMEGA(*values))
    for got, want in ((c.J, J), (c.S, S), (c.K, K)):
        assert got == Multivector(SIG13, at(want))


def dagger(x):
    """x^dagger = e1 reversion(x) e1, the Hermitian adjoint of Cl+(1,3) = M(2,C)."""
    return product(product(g[0], reversion(x)), g[0])


@pytest.mark.parametrize("s", [1, -1])
def test_recovery_columns_are_rank_one_factors(s):
    # J e1 - s K e1 = 2 psi P_s psi^dagger, with the recovery's own P_s.
    lhs = add(product(J, g[0]), product(K, g[0]), -s)
    rhs = product(product(PSI, exact(2 * _COLUMN_PROJECTORS[s])), dagger(PSI))
    assert lhs and not add(lhs, rhs, -1)


def test_a_central_phase_turns_sigma_omega_and_s_and_keeps_j_and_k():
    """For psi' = psi (c + s g5), which is psi e^{alpha g5} at c = cos(alpha)
    and s = sin(alpha): psi' reversion(psi') and S' are e^{2 alpha g5} =
    c^2 - s^2 + 2 c s g5 times psi reversion(psi) and S, and J' and K' are
    (c^2 + s^2) J and K, as polynomials in psi's coefficients, c and s."""
    _, *coeffs, c, s = ring("b0:8,c,s", ZZ)
    psi = dict(zip(EVEN, coeffs))
    (sigma, omega, j, S_, k), _ = covariants(psi)
    (sigma2, omega2, j2, S2, k2), _ = covariants(product(psi, add({0: c}, g5, s)))
    double = add({0: c**2 - s**2}, g5, 2 * c * s)
    norm = {0: c**2 + s**2}
    for got, want in (
        (add({0: sigma2}, g5, omega2), product(double, add({0: sigma}, g5, omega))),
        (S2, product(double, S_)),
        (j2, product(norm, j)),
        (k2, product(norm, k)),
    ):
        assert got and not add(got, want, -1)


def test_package_import_does_not_load_sympy():
    code = "import sys, cliffspin; sys.exit('sympy' in sys.modules)"
    # The child does not inherit pytest's own path to src/.
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
