"""End-to-end acceptance checks with explicit tolerances and time budgets."""

import math
import time

import numpy as np

from cliffspin import (
    Multivector,
    Rotor,
    Signature,
    bilinear_covariants,
    canonical_decompose,
    canonical_reconstruct,
    change_frame,
    classify,
    dhe_residual,
    fierz_residuals,
    find_primitive_idempotent,
    asf_residual,
    geometric_product,
    ideal_dim_over_K,
    is_simple,
    matrix_dirac_residual,
    matrix_of,
    orthogonal_idempotent_expansion,
    planewave_solution,
    random_regular_spinor,
    random_rotor,
    reversion,
    spin_dirac_apply,
    spinorial_frame_of,
    standard_gammas,
)
from cliffspin.classify import _RING_REAL_DIM, is_idempotent
from finite_difference import spin_dirac_apply_fd
from frame_oracle import gamma_upper

SIG13 = Signature(1, 3)


def test_acceptance_classification_sweep():
    start = time.monotonic()
    named = {
        (1, 3): ("H", 2),
        (3, 1): ("R", 4),
        (4, 1): ("C", 4),
        (1, 4): ("H+H", 2),
        (3, 0): ("C", 2),
        (0, 3): ("H+H", 1),
    }
    for n in range(9):
        for p in range(n + 1):
            q = n - p
            desc = classify(p, q)
            assert _RING_REAL_DIM[desc.ring] * desc.m**2 == 1 << n, (p, q)
            assert (desc.ring in ("R+R", "H+H")) == (not is_simple(p, q)), (p, q)
            if (p, q) in named:
                assert (desc.ring, desc.m) == named[(p, q)], (p, q)
    assert time.monotonic() - start < 1.0


def test_acceptance_idempotent_sweep():
    start = time.monotonic()
    for n in range(7):
        for p in range(n + 1):
            q = n - p
            sig = Signature(p, q)
            desc = find_primitive_idempotent(p, q, seed=0)
            assert is_idempotent(desc.idempotent), (p, q)
            if not desc.nonsimple_summand:
                assert ideal_dim_over_K(desc.idempotent) == classify(p, q).m, (p, q)
            parts = orthogonal_idempotent_expansion(desc)
            assert len(parts) == 1 << desc.k_factors, (p, q)
            total = Multivector.zero(sig)
            for i, a in enumerate(parts):
                total = total + a
                assert is_idempotent(a), (p, q, i)
                for j, b in enumerate(parts):
                    prod = geometric_product(a, b)
                    if i == j:
                        assert prod == a, (p, q, i)
                    else:
                        assert prod.is_zero(), (p, q, i, j)
            assert total == Multivector.scalar(sig, 1.0), (p, q)
    assert time.monotonic() - start < 10.0


def test_acceptance_matrix_representation():
    rep = standard_gammas()
    eta = (1.0, -1.0, -1.0, -1.0)
    for mu in range(4):
        got = matrix_of(Multivector.generator(SIG13, mu + 1))
        assert np.array_equal(got, rep.gammas[mu]), mu
        for nu in range(4):
            anti = rep.gammas[mu] @ rep.gammas[nu] + rep.gammas[nu] @ rep.gammas[mu]
            want = 2.0 * eta[mu] * np.eye(4, dtype=complex) if mu == nu else np.zeros((4, 4))
            assert np.array_equal(anti, want), (mu, nu)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        a = Multivector(
            SIG13, {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in range(16)}
        )
        b = Multivector(
            SIG13, {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in range(16)}
        )
        diff = matrix_of(geometric_product(a, b)) - matrix_of(a) @ matrix_of(b)
        worst = max(worst, float(np.max(np.abs(diff))))
    assert worst <= 1e-12


def test_acceptance_identity_suite():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = random_regular_spinor(rng)
        res = fierz_residuals(bilinear_covariants(d))
        for name, r in res.items():
            assert not math.isnan(r), name
            assert r <= 1e-9, (name, r)
    assert time.monotonic() - start < 5.0


def test_acceptance_dirac_three_forms():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for _ in range(200):
        m = float(rng.uniform(0.5, 2.0))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        sp = direction * float(rng.uniform(0.0, 3.0 * m))
        sign = int(rng.choice([1, -1]))
        field = planewave_solution(m, tuple(sp), sign=sign)
        m_off = 1.01 * m
        for _ in range(20):
            x = [float(v) for v in rng.uniform(-5, 5, size=4)]
            r1 = dhe_residual(field, None, m, x).max_abs()
            r2 = asf_residual(field, None, m, x).max_abs()
            r3 = float(np.max(np.abs(matrix_dirac_residual(field, None, m, x))))
            assert max(r1, r2, r3) <= 1e-9, (m, sign)
        x = [float(v) for v in rng.uniform(-5, 5, size=4)]
        o1 = dhe_residual(field, None, m_off, x).max_abs()
        o2 = asf_residual(field, None, m_off, x).max_abs()
        o3 = float(np.max(np.abs(matrix_dirac_residual(field, None, m_off, x))))
        assert min(o1, o2, o3) >= 1e-3, (m, sign)
    assert time.monotonic() - start < 30.0


def test_acceptance_canonical_decomposition():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = random_regular_spinor(rng)
        f = canonical_decompose(d)
        rec = canonical_reconstruct(f, d.frame)
        scale = max(1.0, d.psi.max_abs())
        assert (rec.psi - d.psi).max_abs() / scale <= 1e-10
        c = bilinear_covariants(d)
        J_expected = f.rho * geometric_product(
            geometric_product(f.R.u, gamma_upper(d.frame, 0)), reversion(f.R.u)
        )
        assert (c.J - J_expected.grade(1)).max_abs() / max(1.0, c.J.max_abs()) <= 1e-9


def test_acceptance_derivative_cross_check():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = float(rng.uniform(0.5, 2.0))
        field = planewave_solution(
            m, tuple(rng.uniform(-2, 2, size=3)), sign=int(rng.choice([1, -1]))
        )
        x = [float(v) for v in rng.uniform(-3, 3, size=4)]
        a = spin_dirac_apply(field, x)
        b = spin_dirac_apply_fd(field.evaluate, x, h=1e-5)
        assert (a - b).max_abs() / max(1.0, a.max_abs()) <= 1e-6


def test_acceptance_frame_independence_of_covariants():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = random_regular_spinor(rng)
        u = random_rotor(SIG13, rng)
        moved = change_frame(d, spinorial_frame_of(u))
        c1 = bilinear_covariants(d)
        c2 = bilinear_covariants(moved)
        assert abs(c1.sigma - c2.sigma) <= 1e-10
        assert abs(c1.omega - c2.omega) <= 1e-10
        assert (c1.J - c2.J).max_abs() <= 1e-10
        assert (c1.S - c2.S).max_abs() <= 1e-10
        assert (c1.K - c2.K).max_abs() <= 1e-10
    # the double cover: -u relabels the representative but not the covariants
    d = random_regular_spinor(rng)
    u = random_rotor(SIG13, rng)
    plus = change_frame(d, spinorial_frame_of(u))
    minus = change_frame(d, spinorial_frame_of(Rotor(-u.u)))
    assert (plus.psi + minus.psi).max_abs() <= 1e-10
    cp = bilinear_covariants(plus)
    cm = bilinear_covariants(minus)
    assert (cp.J - cm.J).max_abs() <= 1e-10
    assert (cp.S - cm.S).max_abs() <= 1e-10
    assert (cp.K - cm.K).max_abs() <= 1e-10
