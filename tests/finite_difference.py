"""Central-finite-difference evaluation of the spacetime Dirac operator, an
independent cross-check of the analytic derivatives in cliffspin.dirac."""

from __future__ import annotations

from typing import Callable, Sequence

from cliffspin import Multivector, Signature, geometric_product

SIG13 = Signature(1, 3)

# The coordinate coframe gamma^mu: g^0 = e1, g^i = -e_{i+1}.
COORDINATE_COFRAME = tuple(
    Multivector.generator(SIG13, mu + 1) * (1.0 if mu == 0 else -1.0) for mu in range(4)
)


def spin_dirac_apply_fd(
    psi_func: Callable[[Sequence[float]], Multivector],
    x: Sequence[float],
    h: float = 1e-5,
) -> Multivector:
    """D psi = gamma^mu d_mu psi at x, with each d_mu psi taken as the central
    difference (psi(x + h e_mu) - psi(x - h e_mu)) / 2h."""
    out = Multivector.zero(SIG13)
    x = list(x)
    for mu, g in enumerate(COORDINATE_COFRAME):
        xp = list(x)
        xm = list(x)
        xp[mu] += h
        xm[mu] -= h
        diff = (psi_func(xp) - psi_func(xm)) * (1.0 / (2.0 * h))
        out = out + geometric_product(g, diff)
    return out
