"""Truncated N-level Fock realization of the position/momentum generators
and reference Hamiltonians.

Truncation policy: operators are built exactly from the truncated ladder
matrices and the canonical-commutation defect is *reported*, never hidden.
[X, P] - i*hbar*I vanishes identically on the interior; the whole defect
sits in the (N-1, N-1) corner entry, whose exact value is -i*hbar*N.

Internal unit convention: hbar enters only as the sqrt(hbar) scale of X and
P.  All contraction-related hbar bookkeeping lives in galq.contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

HERMITIAN_TOL = 1e-12


def _freeze(m):
    m = np.ascontiguousarray(m, dtype=complex)
    m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class FockOperator:
    """Complex square matrix on an N-level Fock space, with the unit scale
    hbar and a short label for bookkeeping."""

    n_levels: int
    matrix: np.ndarray
    hbar: float = 1.0
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.n_levels, self.n_levels):
            raise ValidationError(
                f"matrix shape {m.shape} does not match n_levels={self.n_levels}")
        if self.hbar <= 0:
            raise ValidationError("hbar must be positive")
        object.__setattr__(self, "matrix", _freeze(m))

    def dag(self):
        return FockOperator(self.n_levels, self.matrix.conj().T,
                            self.hbar, self.label + "+")

    def is_hermitian(self, tol=HERMITIAN_TOL):
        return np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol

    def __matmul__(self, other):
        if isinstance(other, FockOperator):
            _check_match(self, other)
            return FockOperator(self.n_levels, self.matrix @ other.matrix,
                                self.hbar, f"{self.label}{other.label}")
        return self.matrix @ np.asarray(other)

    def __add__(self, other):
        _check_match(self, other)
        return FockOperator(self.n_levels, self.matrix + other.matrix,
                            self.hbar, self.label)

    def __sub__(self, other):
        _check_match(self, other)
        return FockOperator(self.n_levels, self.matrix - other.matrix,
                            self.hbar, self.label)

    def __mul__(self, scalar):
        return FockOperator(self.n_levels, self.matrix * scalar,
                            self.hbar, self.label)

    __rmul__ = __mul__


def _check_match(a, b):
    if a.n_levels != b.n_levels:
        raise ValidationError(
            f"operator dimensions differ: {a.n_levels} vs {b.n_levels}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector on the N-level space."""

    n_levels: int
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex)
        if v.shape != (self.n_levels,):
            raise ValidationError(
                f"amplitude shape {v.shape} does not match n_levels={self.n_levels}")
        if not np.all(np.isfinite(v.view(float))):
            raise ValidationError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _freeze(v))

    @property
    def norm(self):
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol=1e-12):
        return abs(self.norm - 1.0) <= tol


def vacuum(n_levels):
    v = np.zeros(n_levels, dtype=complex)
    v[0] = 1.0
    return StateVector(n_levels, v)


def basis_state(n_levels, n):
    if not 0 <= n < n_levels:
        raise ValidationError(f"level {n} outside 0..{n_levels - 1}")
    v = np.zeros(n_levels, dtype=complex)
    v[n] = 1.0
    return StateVector(n_levels, v)


def inner(phi, psi):
    """<phi|psi> with the physics convention (conjugate-linear in phi)."""
    _check_match(phi, psi)
    return complex(np.vdot(phi.amplitudes, psi.amplitudes))


def apply(op, psi):
    if op.n_levels != psi.n_levels:
        raise ValidationError(
            f"operator/state dimensions differ: {op.n_levels} vs {psi.n_levels}")
    return StateVector(psi.n_levels, op.matrix @ psi.amplitudes)


def expectation(op, psi):
    """<psi|op|psi>; real part returned for Hermitian op, complex otherwise."""
    val = inner(psi, apply(op, psi))
    return val.real if op.is_hermitian(1e-10) else val


def variance(op, psi):
    mean = expectation(op, psi)
    sq = FockOperator(op.n_levels, op.matrix @ op.matrix, op.hbar)
    return expectation(sq, psi) - mean**2


def ladder_matrix(n_levels):
    """Annihilation operator a as a sparse banded matrix: sqrt(n) on the
    superdiagonal.  Stored complex, so that X, P and H built from it, sparse
    or through ``.toarray()``, take only complex products."""
    if n_levels < 2:
        raise ValidationError("need at least 2 levels")
    diag = np.sqrt(np.arange(1, n_levels, dtype=float)).astype(complex)
    return sp.diags(diag, 1, format="csc")


def xp_matrices(a, hbar=1.0):
    """X = sqrt(hbar/2)(a + a+), P = i sqrt(hbar/2)(a+ - a) from a ladder
    matrix a, sparse or dense.  a is real, so a+ is its transpose."""
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    adag = a.T
    s = np.sqrt(hbar / 2.0)
    return s * (a + adag), 1j * s * (adag - a)


HAMILTONIAN_KINDS = ("harmonic", "free", "quartic")


def hamiltonian_matrix(kind, x, p, lam=0.1):
    """Reference Hamiltonians from X and P matrices, sparse or dense:
    harmonic (P^2 + X^2)/2, free P^2/2, and quartic = harmonic + lam * X^4
    (lam >= 0; the truncated quartic with negative lam is unbounded below
    in ways that depend on the cutoff)."""
    if kind not in HAMILTONIAN_KINDS:
        raise ValidationError(
            f"unknown Hamiltonian kind {kind!r}, expected one of {HAMILTONIAN_KINDS}")
    if kind == "quartic" and lam < 0:
        raise ValidationError("quartic coupling lam must be >= 0")
    p2 = p @ p
    if kind == "free":
        h = 0.5 * p2
    else:
        x2 = x @ x
        h = 0.5 * (p2 + x2)
        if kind == "quartic":
            h = h + lam * (x2 @ x2)
    return 0.5 * (h + h.conj().T)  # scrub roundoff asymmetry


def build_ladder(n_levels):
    """Annihilation/creation pair: a has sqrt(n) on the superdiagonal."""
    a = ladder_matrix(n_levels).toarray()
    return (FockOperator(n_levels, a, label="a"),
            FockOperator(n_levels, a.T, label="a+"))


def build_xp(n_levels, hbar=1.0):
    """Dense X/P pair from :func:`xp_matrices`; both Hermitian.

    Entries scale as sqrt(hbar) relative to the hbar = 1 pair.
    """
    x, p = xp_matrices(ladder_matrix(n_levels).toarray(), hbar)
    return (FockOperator(n_levels, x, hbar, "X"),
            FockOperator(n_levels, p, hbar, "P"))


def commutator_defect(x_op, p_op):
    """Deviation of [X, P] from i*hbar*identity.

    Returns (interior_max, corner): the largest |entry| of the deviation
    outside the (N-1, N-1) corner, and the corner value itself, which is
    -i*hbar*N for the exact truncated pair.
    """
    _check_match(x_op, p_op)
    if x_op.hbar != p_op.hbar:
        raise ValidationError("operators carry different hbar conventions")
    n = x_op.n_levels
    comm = x_op.matrix @ p_op.matrix - p_op.matrix @ x_op.matrix
    dev = comm - 1j * x_op.hbar * np.eye(n)
    corner = complex(dev[n - 1, n - 1])
    interior = dev.copy()
    interior[n - 1, n - 1] = 0.0
    return float(np.max(np.abs(interior))), corner


def build_hamiltonian(kind, n_levels, hbar=1.0, lam=0.1):
    """Dense reference Hamiltonian from :func:`hamiltonian_matrix`."""
    x, p = xp_matrices(ladder_matrix(n_levels).toarray(), hbar)
    return FockOperator(n_levels, hamiltonian_matrix(kind, x, p, lam), hbar,
                        kind)


def expi_hermitian(mat, scale=1.0):
    """exp(1j * scale * mat) for Hermitian mat, via eigendecomposition.

    Unitary to roundoff by construction, unlike a truncated series.
    """
    mat = np.asarray(mat, dtype=complex)
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ValidationError("generator must be Hermitian")
    w, v = np.linalg.eigh(mat)
    return (v * np.exp(1j * scale * w)) @ v.conj().T


# --- CSV debugging interface ----------------------------------------------

def save_operator_csv(op, path):
    """Row-major dump, alternating real and imaginary columns per entry."""
    n = op.n_levels
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# n_levels={n} hbar={op.hbar!r} label={op.label}\n")
        header = []
        for j in range(n):
            header += [f"re_{j}", f"im_{j}"]
        fh.write(",".join(header) + "\n")
        for i in range(n):
            cells = []
            for j in range(n):
                z = op.matrix[i, j]
                cells += [repr(float(z.real)), repr(float(z.imag))]
            fh.write(",".join(cells) + "\n")


def load_operator_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    meta = {"hbar": 1.0, "label": ""}
    rows = []
    for ln in lines:
        if not ln.strip():
            continue
        if ln.startswith("#"):
            for tok in ln[1:].split():
                if "=" in tok:
                    key, val = tok.split("=", 1)
                    meta[key] = val
            continue
        if ln.startswith("re_0"):
            continue
        rows.append([float(c) for c in ln.split(",")])
    data = np.asarray(rows)
    if data.ndim != 2 or data.shape[1] != 2 * data.shape[0]:
        raise ValidationError(f"CSV at {path} is not a square complex matrix")
    n = data.shape[0]
    mat = data[:, 0::2] + 1j * data[:, 1::2]
    return FockOperator(n, mat, float(meta["hbar"]), str(meta["label"]))
