"""Dense eigendecomposition oracles for the tests: independent of the
banded propagator in galq.contraction and of the closed forms in
galq.coherent, and unitary to roundoff by construction."""

import numpy as np

from galq.errors import ValidationError
from galq.projective import StateTrajectory


def expi_hermitian(mat, scale=1.0):
    """exp(1j * scale * mat) for Hermitian mat, via eigendecomposition."""
    mat = np.asarray(mat, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ValidationError("generator must be Hermitian")
    w, v = np.linalg.eigh(mat)
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def exact_evolve(psi0, h_op, times, hbar=1.0):
    """Trajectory exp(-i h t / hbar) psi0 of a FockOperator h_op at the
    given times, from one dense eigh."""
    if not h_op.is_hermitian(1e-10):
        raise ValidationError("Hamiltonian must be Hermitian")
    w, v = np.linalg.eigh(h_op.matrix)
    coeff = v.conj().T @ psi0.amplitudes
    times = np.asarray(times, dtype=float)
    phases = np.exp(-1j * np.outer(times, w) / hbar)
    return StateTrajectory(times, (phases * coeff) @ v.T)
