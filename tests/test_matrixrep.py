import numpy as np
import pytest
from matrix_oracle import numpy_matrix_of

from cliffspin import (
    Multivector,
    Rotor,
    Signature,
    cds_equivalent,
    change_frame,
    column_of,
    complex_idempotent_f,
    dhs_matrix,
    embed_j,
    exp_bivector,
    fiducial_spinorial_frame,
    geometric_product,
    matrix_of,
    random_regular_spinor,
    random_rotor,
    reversion,
    s_of_rotor,
    spinorial_frame_of,
    standard_gammas,
)
from cliffspin import groups as groups_module
from cliffspin import spinors as spinors_module
from cliffspin.matrixrep import (
    RepresentationError,
    _blade_columns,
    _blade_matrices,
    _embedded_blade,
    build_r41,
)

rng = np.random.default_rng(7)

SIG13 = Signature(1, 3)
ETA = (1.0, -1.0, -1.0, -1.0)


def gen(i):
    return Multivector.generator(SIG13, i)


def random_mv():
    return Multivector(
        SIG13,
        {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in range(16)},
    )


# -- the auxiliary algebra -------------------------------------------------------------


def test_r41_pseudoscalar_is_central_imaginary_unit():
    r41 = build_r41()
    i2 = geometric_product(r41.i, r41.i)
    assert (i2 + 1).max_abs() == 0.0
    for F in r41.F:
        comm = geometric_product(r41.i, F) - geometric_product(F, r41.i)
        assert comm.max_abs() == 0.0


def test_r41_embedded_vectors_have_spacetime_metric():
    r41 = build_r41()
    for mu in range(4):
        for nu in range(4):
            anti = geometric_product(r41.E[mu], r41.E[nu]) + geometric_product(
                r41.E[nu], r41.E[mu]
            )
            want = 2.0 * ETA[mu] if mu == nu else 0.0
            assert (anti - want).max_abs() == 0.0


def test_embed_j_generators_and_homomorphism():
    r41 = build_r41()
    for mu in range(4):
        got = embed_j(gen(mu + 1))
        want = geometric_product(r41.F[mu], r41.F[4])
        assert (got - want).max_abs() == 0.0
    # imaginary coefficients ride on the central pseudoscalar
    got_i = embed_j(1j * gen(1))
    assert (got_i - geometric_product(r41.i, r41.E[0])).max_abs() == 0.0
    worst = 0.0
    for _ in range(200):
        a, b = random_mv(), random_mv()
        diff = embed_j(geometric_product(a, b)) - geometric_product(embed_j(a), embed_j(b))
        worst = max(worst, diff.max_abs())
    assert worst < 1e-12


def test_embed_j_rejects_other_signatures():
    with pytest.raises(RepresentationError):
        embed_j(Multivector.generator(Signature(2, 0), 1))


# -- gamma matrices --------------------------------------------------------------------


def test_standard_gammas_are_exactly_dirac():
    rep = standard_gammas()
    g0 = np.diag([1, 1, -1, -1]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    for k, s in enumerate((sx, sy, sz)):
        gk = np.zeros((4, 4), dtype=complex)
        gk[:2, 2:] = -s
        gk[2:, :2] = s
        assert np.array_equal(rep.gammas[k + 1], gk), k + 1
    assert np.array_equal(rep.gammas[0], g0)


def test_gamma_anticommutators_exact():
    rep = standard_gammas()
    for mu in range(4):
        for nu in range(4):
            anti = rep.gammas[mu] @ rep.gammas[nu] + rep.gammas[nu] @ rep.gammas[mu]
            want = 2.0 * ETA[mu] * np.eye(4) if mu == nu else np.zeros((4, 4))
            assert np.array_equal(anti, want.astype(complex))


def test_f_matrix_is_corner_projector():
    rep = standard_gammas()
    assert np.array_equal(rep.f_matrix, np.diag([1, 0, 0, 0]).astype(complex))
    f = complex_idempotent_f()
    assert (geometric_product(f, f) - f).max_abs() < 1e-15
    assert np.array_equal(matrix_of(f), rep.f_matrix)


def test_matrix_of_identity_and_generators():
    assert np.array_equal(matrix_of(Multivector.scalar(SIG13, 1.0)), np.eye(4, dtype=complex))
    rep = standard_gammas()
    for mu in range(4):
        assert np.array_equal(matrix_of(gen(mu + 1)), rep.gammas[mu])


def test_matrix_of_is_a_homomorphism():
    worst = 0.0
    for _ in range(500):
        a, b = random_mv(), random_mv()
        diff = matrix_of(geometric_product(a, b)) - matrix_of(a) @ matrix_of(b)
        worst = max(worst, float(np.max(np.abs(diff))))
    assert worst < 1e-12


def test_matrix_of_linear_and_faithful():
    a = random_mv()
    b = random_mv()
    lhs = matrix_of(a + (2 - 1j) * b)
    rhs = matrix_of(a) + (2 - 1j) * matrix_of(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-14
    # the sixteen blade images are complex-linearly independent: the rep is onto C(4)
    blades = _blade_matrices()
    M = np.stack([blades[m].reshape(16) for m in range(16)], axis=1)
    assert np.linalg.matrix_rank(M) == 16


# -- columns and structured matrices ------------------------------------------------------


def test_column_of_projector_and_errors():
    f = complex_idempotent_f()
    col = column_of(f)
    assert np.array_equal(col, np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(RepresentationError):
        column_of(gen(2))


def test_column_of_ideal_members():
    f = complex_idempotent_f()
    for _ in range(5):
        x = geometric_product(random_mv(), f)
        col = column_of(x)
        M = matrix_of(x)
        assert np.max(np.abs(M[:, 0] - col)) == 0.0
        assert np.max(np.abs(M[:, 1:])) < 1e-12


def test_dhs_matrix_identity_and_structure():
    assert np.array_equal(dhs_matrix(Multivector.scalar(SIG13, 1.0)), np.eye(4, dtype=complex))
    for _ in range(10):
        psi = random_regular_spinor(rng).psi
        D = dhs_matrix(psi)
        M = matrix_of(psi)
        assert np.max(np.abs(D - M)) < 1e-12
        # projecting onto the ideal keeps only the first column
        rep = standard_gammas()
        kept = D @ rep.f_matrix
        assert np.array_equal(kept[:, 0], D[:, 0])
        assert np.max(np.abs(kept[:, 1:])) == 0.0


def test_dhs_matrix_rejects_odd():
    with pytest.raises(RepresentationError):
        dhs_matrix(gen(1))


def old_dhs_matrix(psi):
    """dhs_matrix as it read the column from matrix_of; the oracle."""
    p1, p2, p3, p4 = matrix_of(psi)[:, 0]
    c = np.conj
    rows = [
        [p1, -c(p2), p3, c(p4)],
        [p2, c(p1), p4, -c(p3)],
        [p3, c(p4), p1, -c(p2)],
        [p4, -c(p3), p2, c(p1)],
    ]
    return np.array(rows, dtype=complex)


def test_columns_are_the_first_column_of_matrix_of_bit_for_bit():
    """column_of and dhs_matrix read the first column with _first_column;
    matrix_of(x)[:, 0] is the oracle, on sparse and dense, real and complex
    elements of the ideal of f, and on even elements."""
    local = np.random.default_rng(41)
    f = complex_idempotent_f()
    even = [m for m in range(16) if m.bit_count() % 2 == 0]
    for k in range(200):
        value = (lambda: local.uniform(-1, 1)) if k % 2 else (lambda: complex(*local.uniform(-1, 1, 2)))
        x = geometric_product(Multivector(SIG13, {m: value() for m in range(16) if local.random() < 0.7}), f)
        assert column_of(x).tobytes() == matrix_of(x)[:, 0].copy().tobytes()
        psi = Multivector(SIG13, {m: value() for m in even if local.random() < 0.7})
        assert dhs_matrix(psi).tobytes() == old_dhs_matrix(psi).tobytes()
    with pytest.raises(RepresentationError, match=r"^dhs_matrix expects a Cl\(1,3\) element$"):
        dhs_matrix(Multivector.one(Signature(3, 0)))


# -- rotor spin matrices ---------------------------------------------------------------------


def test_s_of_rotor_homomorphism_and_sign():
    for _ in range(20):
        u = random_rotor(SIG13, rng)
        v = random_rotor(SIG13, rng)
        diff = s_of_rotor(u * v) - s_of_rotor(u) @ s_of_rotor(v)
        assert np.max(np.abs(diff)) < 1e-12
    u = random_rotor(SIG13, rng)
    assert np.max(np.abs(s_of_rotor(-u) + s_of_rotor(u))) == 0.0


def test_s_of_rotor_accepts_a_rotor_that_is_spin_e_refuses():
    """A boost of rapidity about 11.5 is a Rotor, hence in Spin^e, though
    is_spin_e bounds its images' terms of size |u|^2 = 5.1e4 by an absolute
    ROTOR_TOL.  S is a homomorphism on it within 16 eps |u| |v| (the worst of
    these products reached 0.75 of that), |u| |v| = |u|^2 for v = u~."""
    u = Rotor(exp_bivector(Multivector(SIG13, {0b0011: 3.0, 0b0101: 3.5, 0b1001: -3.5, 0b0110: 0.7})))
    assert not groups_module.is_spin_e(u.u)
    local = np.random.default_rng(9)
    for v in [Rotor(u.inverse)] + [random_rotor(SIG13, local) for _ in range(5)]:
        diff = s_of_rotor(u * v) - s_of_rotor(u) @ s_of_rotor(v)
        assert np.max(np.abs(diff)) <= 16 * np.finfo(float).eps * u.u.norm() * v.u.norm()


def test_s_of_rotor_accepts_minus_one():
    # -1 lies on the 2 pi rotation loop, hence inside the connected group
    u = Rotor(Multivector.scalar(SIG13, -1.0))
    assert np.array_equal(s_of_rotor(u), -np.eye(4, dtype=complex))


def test_cds_equivalence():
    # chi = psi rev(u) is frame independent; the column in frame u is the
    # first matrix column of u^{-1} chi
    chi = random_regular_spinor(rng).psi
    frame_a = spinorial_frame_of(random_rotor(SIG13, rng))
    frame_b = spinorial_frame_of(random_rotor(SIG13, rng))
    col_a = matrix_of(geometric_product(frame_a.u.inverse, chi))[:, 0]
    col_b = matrix_of(geometric_product(frame_b.u.inverse, chi))[:, 0]
    assert cds_equivalent((frame_a, col_a), (frame_b, col_b))
    assert not cds_equivalent((frame_a, col_a), (frame_b, col_b + 0.01))
    # same frame, same column: trivially equivalent
    assert cds_equivalent((frame_a, col_a), (frame_a, col_a))


def test_minimal_ideal_dimensions_agree():
    # real ideal of (1+e1)/2: dim_R 8, dim_H 2; complexified ideal of f: dim_C 4
    from cliffspin import find_primitive_idempotent, ideal_dim_over_K
    from cliffspin.classify import ideal_real_dim

    desc = find_primitive_idempotent(1, 3)
    assert ideal_real_dim(desc.idempotent) == 8
    assert ideal_dim_over_K(desc.idempotent) == 2
    f = complex_idempotent_f()
    cols = []
    for m in range(16):
        for unit in (1.0, 1j):
            x = geometric_product(unit * Multivector.from_mask(SIG13, m, 1.0), f)
            cols.append(matrix_of(x)[:, 0])
    rank = np.linalg.matrix_rank(np.stack(cols, axis=0))
    assert rank == 4


# -- exactness of the generator-product tables -----------------------------------------


def spin_basis():
    """f_1..f_4 of the ideal of f = (1 + E_0)/2 (1 + i E_1 E_2)/2 in Cl(4,1)."""
    r41 = build_r41()
    E, i = r41.E, r41.i
    e12 = geometric_product(E[1], E[2])
    f = geometric_product((1 + E[0]) * 0.5, (1 + geometric_product(i, e12)) * 0.5)
    return (
        f,
        -geometric_product(geometric_product(E[1], E[3]), f),
        geometric_product(geometric_product(E[3], E[0]), f),
        geometric_product(geometric_product(E[1], E[0]), f),
    )


def test_blade_tables_are_the_action_on_the_spin_basis():
    # E_m f_j = sum_k f_k M_kj with i read as the Cl(4,1) pseudoscalar, exactly
    # for all 16 blades; {f_j, i f_j} is real-independent, so M is the only
    # solution and the tables are the representation the ideal induces.
    r41 = build_r41()
    basis = spin_basis()
    i_basis = [geometric_product(r41.i, f) for f in basis]
    tables = _blade_matrices()
    assert sorted(tables) == list(range(16))
    for mask in range(16):
        M = tables[mask]
        for j, fj in enumerate(basis):
            want = Multivector.zero(Signature(4, 1))
            for k in range(4):
                want = want + M[k, j].real * basis[k] + M[k, j].imag * i_basis[k]
            assert geometric_product(_embedded_blade(mask), fj) == want, (mask, j)
    columns = (*basis, *i_basis)
    assert all(f.real for f in columns)
    dense = np.array([[c.real for c in f.coefficients()] for f in columns])
    assert np.linalg.matrix_rank(dense) == 8


def test_matrix_of_is_exactly_multiplicative_on_blades():
    for a in range(16):
        for b in range(16):
            x, y = Multivector.from_mask(SIG13, a), Multivector.from_mask(SIG13, b)
            assert np.array_equal(matrix_of(x) @ matrix_of(y), matrix_of(geometric_product(x, y)))


# -- matrix_of as signed permutations: the numpy sum it replaced is the oracle --------


def oracle_elements():
    """The empty element, then seeded real, complex and integer-valued
    elements on random blade subsets, and real products (whose coefficients
    are floats, not complex)."""
    local = np.random.default_rng(22)
    yield Multivector.zero(SIG13)
    for i in range(600):
        masks = [int(m) for m in local.choice(16, size=int(local.integers(1, 17)), replace=False)]
        kind = i % 4
        if kind == 0:
            terms = {m: float(local.normal()) for m in masks}
        elif kind == 1:
            terms = {m: complex(local.normal(), local.normal()) for m in masks}
        elif kind == 2:
            terms = {m: int(local.integers(-3, 4)) for m in masks}
        else:
            terms = {m: float(local.uniform(-2, 2)) for m in masks}
            yield geometric_product(Multivector(SIG13, terms), Multivector(SIG13, terms))
        yield Multivector(SIG13, terms)


def test_blade_columns_are_the_blade_matrices():
    columns = _blade_columns()
    assert columns is _blade_columns()
    for mask, M in _blade_matrices().items():
        P = np.zeros((4, 4), dtype=complex)
        for j, (row, e) in enumerate(columns[mask]):
            assert e in (1, -1, 1j, -1j)
            P[row, j] = e
        assert np.array_equal(P, M)


def test_matrix_of_matches_the_numpy_sum_bit_for_bit():
    count = 0
    for x in oracle_elements():
        got = matrix_of(x)
        assert got.dtype == complex and got.shape == (4, 4)
        assert got.tobytes() == numpy_matrix_of(x).tobytes(), x
        count += 1
    assert count == 751


def test_frame_changes_read_the_frames_cached_rotor_inverse(monkeypatch):
    frame_a = spinorial_frame_of(random_rotor(SIG13, rng))
    frame_b = spinorial_frame_of(random_rotor(SIG13, rng))
    d = random_regular_spinor(rng, frame_a)
    col_a = matrix_of(d.psi)[:, 0]
    # The reversions of the two rotors, computed afresh.
    old_psi = geometric_product(d.psi, geometric_product(reversion(frame_a.u.u), frame_b.u.u))
    old_S = matrix_of(geometric_product(reversion(frame_b.u.u), frame_a.u.u))
    # Each rotor reversed itself when it was checked, so no frame change
    # reverses one.
    for module in (groups_module, spinors_module):
        monkeypatch.setattr(module, "reversion", lambda a: pytest.fail("reversed a rotor again"))
    for _ in range(3):
        moved = change_frame(d, frame_b)
        assert [(m, c.real.hex(), c.imag.hex()) for m, c in moved.psi._terms.items()] == [
            (m, c.real.hex(), c.imag.hex()) for m, c in old_psi._terms.items()
        ]
        assert cds_equivalent((frame_a, col_a), (frame_b, old_S @ col_a))
