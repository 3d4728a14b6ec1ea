"""Reference helpers used only by the tests: dense eigendecomposition
oracles, independent of the banded propagator in galq.contraction and of
the closed forms in galq.coherent and unitary to roundoff by construction,
plus number states and variances on the truncated Fock space."""

import numpy as np

from galq import fock
from galq.errors import ValidationError
from galq.projective import StateTrajectory


def expi_hermitian(mat, scale=1.0):
    """exp(1j * scale * mat) for Hermitian mat, via eigendecomposition."""
    mat = np.asarray(mat, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ValidationError("generator must be Hermitian")
    w, v = np.linalg.eigh(mat)
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def exact_evolve(psi0, h_op, times):
    """Trajectory exp(-i h t) psi0 of a FockOperator h_op at the given
    times, from one dense eigh."""
    if not h_op.is_hermitian(1e-10):
        raise ValidationError("Hamiltonian must be Hermitian")
    w, v = np.linalg.eigh(h_op.matrix)
    coeff = v.conj().T @ psi0.amplitudes
    times = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.outer(times, w))
    return StateTrajectory(times, (phases * coeff) @ v.T)


def basis_state(n_levels, n):
    """Number state |n> on the N-level space."""
    if not 0 <= n < n_levels:
        raise ValidationError(f"level {n} outside 0..{n_levels - 1}")
    v = np.zeros(n_levels, dtype=complex)
    v[n] = 1.0
    return fock.StateVector(n_levels, v)


def variance(op, psi):
    """<psi|op^2|psi> - <psi|op|psi>^2."""
    mean = fock.expectation(op, psi)
    sq = fock.FockOperator(op.n_levels, op.matrix @ op.matrix, op.hbar)
    return fock.expectation(sq, psi) - mean**2
