"""Reference helpers used only by the tests: dense eigendecomposition
oracles, independent of the banded propagator in galq.contraction and of
the closed forms in galq.coherent and unitary to roundoff by construction,
the reference Hamiltonians as products of the X and P matrices, independent
of the closed-form bands of galq.fock, the array-based RK4 of the quartic
classical reference, the numpy and the first float forms of the Galilei
group law, the numpy form of the X/P matrix-element kernel, the full
n x n X/P tables of a label set and the off-diagonal ratios read from
them, the einsum form of the Jacobi residual, the dense
ladder matrix and the additive part of the Heisenberg-Weyl label product,
plus number states and variances on the truncated Fock space."""

import numpy as np

from galq import coherent, coset, fock
from galq.errors import ValidationError
from galq.projective import StateTrajectory


def jacobi_defect_einsum(tbl):
    """Jacobi residual of a structure table by np.einsum: the form that
    algebra.jacobi_defect writes as one matrix product."""
    d = np.einsum("abe,exf->abxf", tbl.c, tbl.c)
    resid = d + d.transpose(1, 2, 0, 3) + d.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(resid))) if resid.size else 0.0


def ladder_matrix(n_levels):
    """Annihilation operator a as a dense matrix: sqrt(n) on the
    superdiagonal."""
    if n_levels < 2:
        raise ValidationError("need at least 2 levels")
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), 1)


def xp_matrices(n_levels, hbar=1.0):
    """Dense X = sqrt(hbar/2)(a + a+), P = i sqrt(hbar/2)(a+ - a) from the
    ladder matrix a, which is real, so a+ is its transpose."""
    a = ladder_matrix(n_levels)
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


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _made(cls, **fields):
    """An instance of a galq.coset value class holding fields, made without
    its constructor."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def apply_galilei_floats(g, pt):
    """The float action (t, x) -> (t + B, V t + R x + A) as list
    comprehensions over the rows and a shared dot product, with the
    constructors' checks: the bits and refusals that galq.coset.apply_galilei
    must reproduce."""
    B, V, R, A = g._floats
    t, x = pt.t, pt._x
    return _made(
        coset.SpaceTime,
        t=coset._scalar(t + B, "t"),
        _x=coset._finite([v * t + _dot3(r, x) + a for v, r, a in zip(V, R, A)],
                         "x"))


def compose_floats(g1, g2):
    """The float group product in the same form: the bits and refusals that
    galq.coset.compose must reproduce."""
    B1, V1, R1, A1 = g1._floats
    B2, V2, R2, A2 = g2._floats
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = R2
    rows = [[x * r11 + y * r21 + z * r31, x * r12 + y * r22 + z * r32,
             x * r13 + y * r23 + z * r33] for x, y, z in R1]
    B = coset._scalar(B1 + B2, "B")
    V = coset._finite([v + _dot3(r, V2) for v, r in zip(V1, R1)], "V")
    A = coset._finite([v * B2 + _dot3(r, A2) + a
                       for v, r, a in zip(V1, R1, A1)], "A")
    coset._check_rotation(rows, "R")
    return _made(coset.GalileiElement, B=B, _floats=(B, V, rows, A))


def label_sum(l1, l2):
    """Additive part of the Heisenberg-Weyl product of two labels."""
    return coherent.CoherentLabel(l1.p + l2.p, l1.x + l2.x,
                                  l1.theta + l2.theta, l1.d)


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


def matrix_element_tables(labels, hbar):
    """Gram-weighted tables M[i, j] = <l_i| X |l_j> and same for P over a
    tilde label set, one galq.coherent.matrix_element_xp call per entry."""
    n = len(labels)
    mx = np.zeros((n, n), dtype=complex)
    mp = np.zeros((n, n), dtype=complex)
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            mx[i, j], mp[i, j] = coherent.matrix_element_xp(li, lj, hbar)
    return mx, mp


def table_offdiag_ratios(labels, hbar):
    """(rx, rp): the largest off-diagonal magnitude of each full table of
    matrix_element_tables over the largest |x| or |p| entry, read as numpy
    arrays; what galq.contraction must reproduce bit for bit from one
    matrix element per unordered label pair."""
    mx, mp = matrix_element_tables(labels, hbar)
    scale = max(max(np.max(np.abs(lab.x)), np.max(np.abs(lab.p)))
                for lab in labels)
    off = ~np.eye(len(labels), dtype=bool)
    return (float(np.max(np.abs(mx[off]))) / scale,
            float(np.max(np.abs(mp[off]))) / scale)
