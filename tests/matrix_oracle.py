"""The matrix path as numpy sums and products of the standard Dirac matrices:
an oracle for matrix_of, matrix_column_at and matrix_dirac_residual, which
apply the same matrices as signed permutations of Python complex numbers."""

from __future__ import annotations

import numpy as np

from cliffspin import standard_gammas
from cliffspin.matrixrep import _blade_matrices

ETA = (1.0, -1.0, -1.0, -1.0)


def numpy_matrix_of(x):
    """One 4x4 array sum per term of x, in term order."""
    tables = _blade_matrices()
    M = np.zeros((4, 4), dtype=complex)
    for mask, c in x.terms.items():
        M = M + c * tables[mask]
    return M


def numpy_matrix_column_at(field, x):
    """Column 0 of the matrix of the field's fiducial representative psi_0(x)
    = psi(x) u^-1, the element the matrix path reads."""
    return numpy_matrix_of(field._fiducial_at(x))[:, 0].copy()


def numpy_matrix_dirac_residual(field, pot, m, x):
    """gamma^mu (i d_mu + q A_mu) Psi - m Psi as array products, one
    matmul by gamma^mu per index."""
    rep = standard_gammas()
    col = numpy_matrix_column_at(field, x)
    res = -m * col
    q = pot.q_charge if pot is not None else 0.0
    for mu in range(4):
        g_upper = rep.gammas[mu] if mu == 0 else -rep.gammas[mu]
        p_lower = ETA[mu] * field.p.coeff(1 << mu).real
        d_mu = -1j * field.energy_sign * p_lower * col
        term = 1j * d_mu
        if q != 0.0 and pot is not None:
            a_lower = ETA[mu] * pot.A.coeff(1 << mu).real
            term = term + q * a_lower * col
        res = res + g_upper @ term
    return res
