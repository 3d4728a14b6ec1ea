"""Truncated ladder algebra, CCR defect accounting, reference Hamiltonians."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from galq import fock
from galq.errors import ValidationError
from oracles import (basis_state, expi_hermitian, hamiltonian_matrix,
                     ladder_matrix, variance, xp_matrices)


def test_ladder_n2_matrix():
    a = ladder_matrix(2)
    np.testing.assert_array_equal(a, [[0.0, 1.0], [0.0, 0.0]])


def test_ladder_lowers_number_states():
    n_levels = 12
    a = ladder_matrix(n_levels)
    for n in range(1, n_levels):
        lowered = a @ basis_state(n_levels, n).amplitudes
        expected = np.sqrt(n) * basis_state(n_levels, n - 1).amplitudes
        np.testing.assert_allclose(lowered, expected, atol=1e-15)
    assert np.all(a @ basis_state(n_levels, 0).amplitudes == 0)


def test_ladder_commutator_corner():
    n_levels = 9
    a = ladder_matrix(n_levels)
    adag = a.conj().T
    comm = a @ adag - adag @ a
    expected = np.eye(n_levels)
    expected[-1, -1] = -(n_levels - 1)
    np.testing.assert_allclose(comm, expected, atol=1e-13)


def test_ladder_validation():
    with pytest.raises(ValidationError):
        ladder_matrix(1)


def test_xp_n2_matrix():
    x, p = fock.build_xp(2, 1.0)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(x.matrix, [[0, s], [s, 0]], atol=1e-15)
    np.testing.assert_allclose(p.matrix, [[0, -1j * s], [1j * s, 0]], atol=1e-15)


@pytest.mark.parametrize("n_levels", [2, 5, 64, 256, 1024])
def test_xp_hermitian(n_levels):
    x, p = fock.build_xp(n_levels, 1.0)
    assert x.is_hermitian(1e-12)
    assert p.is_hermitian(1e-12)


def test_vacuum_moments():
    x, p = fock.build_xp(64, 1.0)
    vac = basis_state(64, 0)
    v = vac.amplitudes
    assert abs(np.vdot(v, x.matrix @ v)) <= 1e-15
    assert abs(np.vdot(v, p.matrix @ v)) <= 1e-15
    assert variance(x, vac) == pytest.approx(0.5, abs=1e-12)
    assert variance(p, vac) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("hbar", [1.0, 0.25, 2.0])
def test_ground_state_minimum_uncertainty(hbar):
    x, p = fock.build_xp(4, hbar)
    vac = basis_state(4, 0)
    assert variance(x, vac) == pytest.approx(hbar / 2.0, abs=1e-12)
    assert variance(p, vac) == pytest.approx(hbar / 2.0, abs=1e-12)


def test_xp_entries_scale_as_sqrt_hbar():
    x1, p1 = fock.build_xp(16, 1.0)
    x2, p2 = fock.build_xp(16, 0.09)
    np.testing.assert_allclose(x2.matrix, 0.3 * x1.matrix, atol=1e-15)
    np.testing.assert_allclose(p2.matrix, 0.3 * p1.matrix, atol=1e-15)


@pytest.mark.parametrize("n_levels,hbar", [(64, 1.0), (64, 2.0), (17, 0.5)])
def test_commutator_defect_confined_to_corner(n_levels, hbar):
    x, p = fock.build_xp(n_levels, hbar)
    interior, corner = fock.commutator_defect(x, p)
    assert interior <= 1e-12
    assert corner == pytest.approx(-1j * hbar * n_levels, abs=1e-10)


def test_commutator_defect_corner_at_64():
    x, p = fock.build_xp(64, 1.0)
    _, corner = fock.commutator_defect(x, p)
    assert corner == pytest.approx(-64j, abs=1e-10)


def test_commutator_defect_scales_linearly_in_hbar():
    x1, p1 = fock.build_xp(32, 1.0)
    x2, p2 = fock.build_xp(32, 2.0)
    _, c1 = fock.commutator_defect(x1, p1)
    _, c2 = fock.commutator_defect(x2, p2)
    assert c2 == pytest.approx(2.0 * c1, abs=1e-12)


def test_commutator_defect_dimension_mismatch():
    x, _ = fock.build_xp(8, 1.0)
    _, p = fock.build_xp(9, 1.0)
    with pytest.raises(ValidationError):
        fock.commutator_defect(x, p)


def test_harmonic_ground_state_energy():
    for n_levels in (8, 32, 128):
        h = fock.build_hamiltonian("harmonic", n_levels, 1.0)
        assert h.is_hermitian(1e-12)
        v = basis_state(n_levels, 0).amplitudes
        assert np.vdot(v, h.matrix @ v).real == pytest.approx(0.5, abs=1e-12)


def test_free_hamiltonian_vacuum_energy():
    # <P^2>/2 on the ground state is hbar/4 (Gaussian moment)
    for hbar in (1.0, 0.5):
        h = fock.build_hamiltonian("free", 16, hbar)
        v = basis_state(16, 0).amplitudes
        assert np.vdot(v, h.matrix @ v).real == pytest.approx(hbar / 4.0,
                                                              abs=1e-12)


def test_quartic_reduces_to_harmonic_at_zero_coupling():
    h0 = fock.build_hamiltonian("harmonic", 24, 1.0)
    hq = fock.build_hamiltonian("quartic", 24, 1.0, lam=0.0)
    np.testing.assert_array_equal(h0.matrix, hq.matrix)


def test_hamiltonian_bands_match_the_xp_product_oracle():
    # the closed-form bands, assembled to the dense H, against the products
    # of the truncated X and P matrices, at even and odd cutoffs down to the
    # smallest, where bands 1 and 2 run past the matrix edge
    for n_levels in (2, 3, 4, 5, 16, 17, 64):
        for kind in fock.HAMILTONIAN_KINDS:
            bands = fock.hamiltonian_bands(kind, n_levels, 0.07)
            assert bands.shape == (3, n_levels)
            assert bands.dtype == float
            dense = sum(np.diag(bands[k, :n_levels - 2 * k], -2 * k)
                        for k in range(3) if 2 * k < n_levels)
            dense = dense + np.tril(dense, -1).T
            oracle = hamiltonian_matrix(kind, n_levels, 0.07)
            assert np.max(np.abs(dense - oracle)) <= 1e-12, (kind, n_levels)
            h = fock.build_hamiltonian(kind, n_levels, 1.0, lam=0.07)
            np.testing.assert_array_equal(h.matrix, dense)
            for k in (1, 2):
                assert not np.any(bands[k, max(n_levels - 2 * k, 0):])


def test_hamiltonian_bands_are_read_only_and_validated():
    bands = fock.hamiltonian_bands("quartic", 8, 0.1)
    with pytest.raises(ValueError):
        bands[0, 0] = 0.0
    assert not np.any(fock.hamiltonian_bands("harmonic", 8)[1:])
    assert not np.any(fock.hamiltonian_bands("free", 8)[2])
    for call in (lambda: fock.hamiltonian_bands("cubic", 8),
                 lambda: fock.hamiltonian_bands("quartic", 8, -0.1),
                 lambda: fock.hamiltonian_bands("quartic", 8, math.nan),
                 lambda: fock.hamiltonian_bands("harmonic", 1)):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("kind", fock.HAMILTONIAN_KINDS)
def test_dense_hamiltonian_scales_as_hbar_at_coupling_lam_hbar(kind):
    # X and P scale as sqrt(hbar): H(hbar, lam) = hbar H(1, lam hbar)
    hbar, lam = 0.3, 0.2
    h = fock.build_hamiltonian(kind, 12, hbar, lam=lam).matrix
    x, p = xp_matrices(12, hbar)
    oracle = 0.5 * (p @ p) if kind == "free" else 0.5 * (p @ p + x @ x)
    if kind == "quartic":
        oracle = oracle + lam * np.linalg.matrix_power(x, 4)
    assert np.max(np.abs(h - oracle)) <= 1e-12


def test_quartic_negative_coupling_rejected():
    with pytest.raises(ValidationError):
        fock.build_hamiltonian("quartic", 16, 1.0, lam=-0.1)


def test_unknown_hamiltonian_kind_rejected():
    with pytest.raises(ValidationError):
        fock.build_hamiltonian("cubic", 16, 1.0)


def test_expi_hermitian_unitary():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    m = 0.5 * (m + m.conj().T)
    u = expi_hermitian(m)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(24), atol=1e-12)
    with pytest.raises(ValidationError):
        expi_hermitian(rng.normal(size=(4, 4)) + np.diag([1j, 0, 0, 0]))


def test_state_vector_validation():
    with pytest.raises(ValidationError):
        fock.StateVector(3, np.array([1.0, np.inf, 0.0], dtype=complex))
    vac = basis_state(5, 0)
    assert vac.norm == pytest.approx(1.0, abs=1e-12)


def test_operator_csv_roundtrip(tmp_path):
    h = fock.build_hamiltonian("quartic", 12, 1.0, lam=0.3)
    path = tmp_path / "h.csv"
    fock.save_operator_csv(h, path)
    back = fock.load_operator_csv(path)
    assert back.n_levels == 12
    assert back.hbar == 1.0
    np.testing.assert_array_equal(back.matrix, h.matrix)


def test_operator_csv_roundtrip_of_a_numpy_hbar(tmp_path):
    # the operator keeps hbar as the Python float it checked, so its tag
    # is written as a number that load_operator_csv reads back
    h = fock.build_hamiltonian("harmonic", 4, np.float64(0.5))
    assert type(h.hbar) is float
    path = tmp_path / "h.csv"
    fock.save_operator_csv(h, path)
    back = fock.load_operator_csv(path)
    assert back.hbar == 0.5
    assert back.matrix.tobytes() == h.matrix.tobytes()


def test_operator_matrices_are_immutable():
    x, _ = fock.build_xp(4, 1.0)
    with pytest.raises(ValueError):
        x.matrix[0, 0] = 5.0


def test_state_vector_reads_a_strided_column():
    # a column of a row-major matrix is a strided view; it once raised
    # numpy's "the last axis must be contiguous" from the finiteness check
    m = np.arange(64.0).reshape(8, 8) + 1j
    state = fock.StateVector(8, m[:, 3])
    np.testing.assert_array_equal(state.amplitudes, m[:, 3])
    assert state.amplitudes.flags.c_contiguous


@pytest.mark.parametrize("build", [
    lambda c: fock.StateVector(4, c[:]),
    lambda c: fock.FockOperator(2, c[:].reshape(2, 2)),
], ids=["state", "operator"])
def test_constructors_keep_no_view_of_the_caller_array(build):
    c = np.arange(4.0) + 0j
    held = build(c)
    c[0] = np.nan
    values = held.amplitudes if isinstance(held, fock.StateVector) \
        else held.matrix
    np.testing.assert_array_equal(values.ravel(), [0.0, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("build", [
    lambda c: fock.StateVector(4, c),
    lambda c: fock.FockOperator(2, c.reshape(2, 2)),
], ids=["state", "operator"])
def test_constructors_leave_the_caller_array_writable(build):
    c = np.zeros(4, dtype=complex)
    held = build(c)
    assert c.flags.writeable
    c[1] = 1.0  # the caller's array is still its own to write
    values = held.amplitudes if isinstance(held, fock.StateVector) \
        else held.matrix
    assert not values.flags.writeable
    assert not np.any(values)


def test_position_basis_is_hermite_gauss():
    for n_levels in range(2, 65):
        lam, vecs = fock.position_basis(n_levels)
        nodes = np.polynomial.hermite.hermgauss(n_levels)[0]
        assert np.max(np.abs(lam - nodes)) <= 1e-12 * np.max(np.abs(lam))
        assert np.max(np.abs(vecs.T @ vecs - np.eye(n_levels))) <= 1e-12
        x_op, _ = fock.build_xp(n_levels, 1.0)
        assert np.max(np.abs((vecs * lam) @ vecs.T - x_op.matrix)) <= 1e-12


@pytest.mark.parametrize("n_levels", [2, 17, 128, 512])
def test_position_basis_matches_the_tridiagonal_solver(n_levels):
    lam, vecs = fock.position_basis(n_levels)
    ref_lam, ref_vecs = eigh_tridiagonal(np.zeros(n_levels),
                                         fock.x_superdiagonal(n_levels))
    scale = np.max(np.abs(ref_lam))
    assert np.max(np.abs(lam - ref_lam)) <= 1e-13 * scale
    # eigenvector signs are free; V diag(lam) V^T is not
    x_ref = (ref_vecs * ref_lam) @ ref_vecs.T
    assert np.max(np.abs((vecs * lam) @ vecs.T - x_ref)) <= 1e-13 * scale


def test_position_basis_is_read_only():
    lam, vecs = fock.position_basis(16)
    with pytest.raises(ValueError):
        lam[0] = 0.0
    with pytest.raises(ValueError):
        vecs[0, 0] = 0.0
    assert fock.position_basis(16)[0] is lam
    with pytest.raises(ValidationError):
        fock.position_basis(1)
