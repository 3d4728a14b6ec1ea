"""Truncated N-level Fock realization of the position/momentum generators
and reference Hamiltonians.

Truncation policy: X and P are the truncated ladder combinations, built
from their one band, and the reference Hamiltonians are the products of
the truncated X and P, built from the closed forms of their band diagonals
(:func:`hamiltonian_bands`).  The canonical-commutation defect is
*reported*, never hidden.
[X, P] - i*hbar*I vanishes identically on the interior; the whole defect
sits in the (N-1, N-1) corner entry, whose exact value is -i*hbar*N.

Internal unit convention: hbar enters only as the sqrt(hbar) scale of X and
P.  All contraction-related hbar bookkeeping lives in galq.contraction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammainc

from .errors import ParseError, ValidationError

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
        if not (0 < self.hbar < math.inf):
            raise ValidationError("hbar must be positive")
        object.__setattr__(self, "matrix", _freeze(m))

    def is_hermitian(self, tol=HERMITIAN_TOL):
        return np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol


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


# Fock truncation of a coherent state: its level populations are
# Poisson(mu) in the mean occupation mu, so a cutoff N discards the mass
# poisson_tail(N, mu).  Every cutoff galq chooses for one keeps that mass
# <= TAIL_TOL with at least MIN_LEVELS and at most MAX_LEVELS levels.
TAIL_TOL = 1e-12
MIN_LEVELS = 16
MAX_LEVELS = 65536


def poisson_tail(n_levels, mu):
    """P[Poisson(mu) >= n_levels]: the mass a coherent state of mean
    occupation mu puts on the levels a cutoff of n_levels discards."""
    return float(gammainc(n_levels, mu))


def start_cutoff(mu):
    """Smallest N >= MIN_LEVELS with poisson_tail(N, mu) <= TAIL_TOL, or
    None when not even MAX_LEVELS keeps the tail that small.

    The tail at MAX_LEVELS is checked before the search, so an occupation
    of any size, inf included, is refused after one evaluation.
    """
    if not mu >= 0:
        raise ValidationError(f"mean occupation must be >= 0, got {mu!r}")
    if poisson_tail(MAX_LEVELS, mu) > TAIL_TOL:
        return None
    lo, hi = MIN_LEVELS - 1, MIN_LEVELS  # hi is the first candidate
    while poisson_tail(hi, mu) > TAIL_TOL:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # the tail falls with N: lo fails, hi passes
        mid = (lo + hi) // 2
        if poisson_tail(mid, mu) <= TAIL_TOL:
            hi = mid
        else:
            lo = mid
    return hi


EDGE_LEVELS = 4


def edge_mass(states):
    """Truncation diagnostic: the largest population in the top EDGE_LEVELS
    levels over amplitude vectors stacked as rows (one vector also works)."""
    edge = np.abs(np.atleast_2d(states)[:, -EDGE_LEVELS:]) ** 2
    return float(np.max(np.sum(edge, axis=1)))


def x_superdiagonal(n_levels, hbar=1.0):
    """X[n - 1, n] = sqrt(hbar n / 2) for n = 1 .. N-1: the one band of the
    truncated position operator X = sqrt(hbar/2)(a + a+), the Jacobi
    matrix of the Hermite polynomials."""
    if n_levels < 2:
        raise ValidationError("need at least 2 levels")
    if not (0 < hbar < math.inf):
        raise ValidationError("hbar must be positive")
    return math.sqrt(hbar / 2.0) * np.sqrt(np.arange(1.0, n_levels))


def ladder_matrix(n_levels):
    """Annihilation operator a as a dense matrix: sqrt(n) on the
    superdiagonal."""
    if n_levels < 2:
        raise ValidationError("need at least 2 levels")
    return np.diag(np.sqrt(np.arange(1.0, n_levels)), 1)


def build_xp(n_levels, hbar=1.0):
    """Dense X = sqrt(hbar/2)(a + a+) and P = i sqrt(hbar/2)(a+ - a); both
    Hermitian.

    Entries scale as sqrt(hbar) relative to the hbar = 1 pair.
    """
    sup = x_superdiagonal(n_levels, hbar)
    upper, lower = np.diag(sup, 1), np.diag(sup, -1)
    return (FockOperator(n_levels, upper + lower, hbar, "X"),
            FockOperator(n_levels, 1j * (lower - upper), hbar, "P"))


@functools.lru_cache(maxsize=4)
def position_basis(n_levels):
    """Eigendecomposition X = V diag(lam) V^T of the truncated hbar = 1
    position operator, cached per cutoff: (lam, V), both read-only.

    X is real tridiagonal, the Jacobi matrix of the Hermite polynomials,
    so lam are the zeros of H_N (Golub-Welsch).
    """
    lam, vecs = eigh_tridiagonal(np.zeros(n_levels), x_superdiagonal(n_levels))
    lam.setflags(write=False)
    vecs.setflags(write=False)
    return lam, vecs


HAMILTONIAN_KINDS = ("harmonic", "free", "quartic")


def hamiltonian_bands(kind, n_levels, lam=0.1):
    """Reference Hamiltonian at hbar = 1 in band form: a read-only real
    (3, N) array with bands[k, n] = H[n + 2k, n], zero past the matrix edge.

    The kinds are harmonic (P^2 + X^2)/2, free P^2/2, and quartic =
    harmonic + lam X^4 (lam >= 0; the truncated quartic with negative lam
    is unbounded below in ways that depend on the cutoff).  H keeps the
    parity of n, so only the offsets 0, 2 and 4 are stored.  With
    s_k^2 = k/2 for 0 < k < N and s_0 = s_N = 0 (X[k-1, k] = s_k), the
    truncated X^2 has diagonal d_n = s_n^2 + s_{n+1}^2 and offset-2 entries
    e_n = X^2[n+2, n] = sqrt((n+1)(n+2))/2, P^2 has d and -e, and
    X^4 = (X^2)^2 has diagonal d_n^2 + e_n^2 + e_{n-2}^2, offset-2 entries
    e_n (d_n + d_{n+2}) and offset-4 entries e_n e_{n+2} (Golub & Welsch,
    Math. Comp. 23, 1969, for X as the Jacobi matrix).
    """
    if kind not in HAMILTONIAN_KINDS:
        raise ValidationError(
            f"unknown Hamiltonian kind {kind!r}, expected one of {HAMILTONIAN_KINDS}")
    if kind == "quartic" and not (0 <= lam < math.inf):
        raise ValidationError("quartic coupling lam must be >= 0")
    if n_levels < 2:
        raise ValidationError("need at least 2 levels")
    n = np.arange(n_levels, dtype=float)
    d = n + 0.5
    d[-1] = n[-1] / 2.0
    e = np.zeros(n_levels)
    e[:-2] = np.sqrt(n[1:-1] * n[2:]) / 2.0
    bands = np.zeros((3, n_levels))
    if kind == "free":
        bands[0], bands[1] = d / 2.0, -e / 2.0
    else:
        bands[0] = d  # the X^2 and P^2 bands cancel in (P^2 + X^2)/2
    if kind == "quartic":
        bands[0] += lam * (d * d + e * e + np.pad(e[:-2] ** 2, (2, 0)))
        bands[1, :-2] = lam * e[:-2] * (d[:-2] + d[2:])
        bands[2, :-2] = lam * e[:-2] * e[2:]
    bands.setflags(write=False)
    return bands


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
    """Dense reference Hamiltonian hbar H(lam hbar), assembled from the
    :func:`hamiltonian_bands` of the hbar = 1 operator with the effective
    coupling lam * hbar (X and P scale as sqrt(hbar))."""
    if not (0 < hbar < math.inf):
        raise ValidationError("hbar must be positive")
    bands = hamiltonian_bands(kind, n_levels, lam * hbar)
    h = np.zeros((n_levels, n_levels))
    for k, band in enumerate(bands):
        rows = np.arange(2 * k, n_levels)
        h[rows, rows - 2 * k] = h[rows - 2 * k, rows] = band[:rows.size]
    return FockOperator(n_levels, hbar * h, hbar, kind)


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


def _number(text, what, line_no):
    """A finite float read from a CSV cell or tag, else ParseError."""
    try:
        val = float(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not a number", line_no) from None
    if not math.isfinite(val):
        raise ParseError(f"{what} {text!r} is not finite", line_no)
    return val


def load_operator_csv(path):
    """Read a :func:`save_operator_csv` file.  A cell or hbar tag that is
    not a finite number, or a row of another length than the first, raises
    ParseError with its line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    meta = {"hbar": 1.0, "label": ""}
    rows = []
    for line_no, ln in enumerate(lines, start=1):
        if not ln.strip():
            continue
        if ln.startswith("#"):
            for tok in ln[1:].split():
                if "=" in tok:
                    key, val = tok.split("=", 1)
                    meta[key] = _number(val, "hbar tag", line_no) \
                        if key == "hbar" else val
            continue
        if ln.startswith("re_0"):
            continue
        rows.append([_number(c, "entry", line_no) for c in ln.split(",")])
        if len(rows[-1]) != len(rows[0]):
            raise ParseError("row length differs from the first row", line_no)
    data = np.asarray(rows)
    if data.ndim != 2 or data.shape[1] != 2 * data.shape[0]:
        raise ValidationError(f"CSV at {path} is not a square complex matrix")
    n = data.shape[0]
    mat = data[:, 0::2] + 1j * data[:, 1::2]
    return FockOperator(n, mat, meta["hbar"], str(meta["label"]))
