"""Reference helpers used only by the tests: dense eigendecomposition
oracles, independent of the banded propagator in galq.contraction and of
the closed forms in galq.coherent and unitary to roundoff by construction,
the reference Hamiltonians as products of the X and P matrices, independent
of the closed-form bands of galq.fock, the array-based RK4 of the quartic
classical reference, the numpy forms of the Galilei group law and of the
X/P matrix-element kernel, plus number states and variances on the
truncated Fock space."""

import numpy as np

from galq import coherent, coset, fock
from galq.errors import ValidationError
from galq.projective import StateTrajectory


def xp_matrices(n_levels, hbar=1.0):
    """Dense X = sqrt(hbar/2)(a + a+), P = i sqrt(hbar/2)(a+ - a) from the
    ladder matrix a, which is real, so a+ is its transpose."""
    a = fock.ladder_matrix(n_levels)
    s = np.sqrt(hbar / 2.0)
    return s * (a + a.T), 1j * s * (a.T - a)


def hamiltonian_matrix(kind, n_levels, lam=0.1):
    """The hbar = 1 reference Hamiltonian as a product of the dense X and P
    matrices: harmonic (P^2 + X^2)/2, free P^2/2, quartic harmonic + lam X^4."""
    x, p = xp_matrices(n_levels)
    p2 = p @ p
    if kind == "free":
        return 0.5 * p2
    x2 = x @ x
    h = 0.5 * (p2 + x2)
    if kind == "quartic":
        h = h + lam * (x2 @ x2)
    return h


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
    """<psi|op^2|psi> - <psi|op|psi>^2 of a Hermitian FockOperator."""
    def mean(m):
        return np.vdot(psi.amplitudes, m @ psi.amplitudes).real
    return mean(op.matrix @ op.matrix) - mean(op.matrix) ** 2


def classical_flow_rk4(x0, p0, times, lam, substeps=50):
    """Quartic classical trajectory of h = (p^2 + x^2)/2 + lam x^4 by RK4
    on 2-element arrays, substeps per sample interval: the stage order that
    galq.contraction.classical_flow must reproduce bit for bit."""
    times = np.asarray(times, dtype=float)

    def rhs(y):
        x, p = y
        return np.array([p, -x - 4.0 * lam * x**3])

    xs = np.empty(times.size)
    ps = np.empty(times.size)
    y = np.array([float(x0), float(p0)])
    xs[0], ps[0] = y
    for i in range(1, times.size):
        dt = (times[i] - times[i - 1]) / substeps
        for _ in range(substeps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        xs[i], ps[i] = y
    return xs, ps


def apply_galilei(g, pt):
    """(t, x) -> (t + B, V t + R x + A) on the element's numpy arrays: the
    form that galq.coset.apply_galilei computes on Python floats."""
    return coset.SpaceTime(t=pt.t + g.B, x=g.V * pt.t + g.R @ pt.x + g.A)


def compose(g1, g2):
    """The group product on the elements' numpy arrays, read off the 5x5
    matrix product: the form that galq.coset.compose computes on floats."""
    return coset.GalileiElement(
        B=g1.B + g2.B,
        V=g1.V + g1.R @ g2.V,
        R=g1.R @ g2.R,
        A=g1.V * g2.B + g1.R @ g2.A + g1.A,
    )


def matrix_element_xp(l1, l2, hbar=1.0):
    """<l1|X|l2> and <l1|P|l2> with the per-axis factors multiplied by the
    overlap as one (2, d) numpy array: the kernel tables that
    galq.coherent.matrix_element_xp must reproduce bit for bit."""
    ov = coherent.overlap_analytic(l1, l2, hbar)
    mx, mp = [], []
    for x1, p1, x2, p2 in zip(l1.x.tolist(), l1.p.tolist(),
                              l2.x.tolist(), l2.p.tolist()):
        mx.append(((x1 + x2) - 1j * (p1 - p2)) / 2.0)
        mp.append(((p1 + p2) + 1j * (x1 - x2)) / 2.0)
    mx, mp = np.array((mx, mp)) * ov
    if l1.d == 1:
        return complex(mx[0]), complex(mp[0])
    return mx, mp
