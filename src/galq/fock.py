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

from .errors import ParseError, ValidationError


def _check_levels(n_levels):
    if n_levels < 2:
        raise ValidationError("need at least 2 levels")


def _check_hbar(hbar):
    """hbar as a checked Python float (a numpy hbar would warn where Python
    floats overflow)."""
    hbar = float(hbar)
    if not (0 < hbar < math.inf):
        raise ValidationError("hbar must be positive")
    return hbar


def _check_coupling(kind, lam):
    """The quartic coupling rule: 0 <= lam < inf, read only by the quartic
    kind."""
    if kind == "quartic" and not (0 <= lam < math.inf):
        raise ValidationError("quartic coupling lam must be >= 0")


def _private_copy(m):
    """A new read-only complex array of m: the caller's array is neither
    kept nor made read-only, and a strided view is read like any other."""
    m = np.array(m, dtype=complex)
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
        m = _private_copy(self.matrix)
        if m.shape != (self.n_levels, self.n_levels):
            raise ValidationError(
                f"matrix shape {m.shape} does not match n_levels={self.n_levels}")
        object.__setattr__(self, "hbar", _check_hbar(self.hbar))
        object.__setattr__(self, "matrix", m)

    def is_hermitian(self, tol):
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
        v = _private_copy(self.amplitudes)
        if v.shape != (self.n_levels,):
            raise ValidationError(
                f"amplitude shape {v.shape} does not match n_levels={self.n_levels}")
        if not np.all(np.isfinite(v.view(float))):
            raise ValidationError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", v)

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


# A run of Poisson probabilities stops where the mass left beyond it is
# below 2**-60 of the smaller of its first entry and TAIL_TOL, far under
# the float resolution of any sum it enters.
_NEGLIGIBLE = 2.0 ** -60


def _log_pmf(k, mu):
    """ln P[Poisson(mu) = k] for k >= 0 and 0 < mu < inf.  Its absolute
    error is a few ulps of k ln k + mu, so the probability is relative
    accurate to ~1e-10 for k and mu up to ~1e5."""
    return k * math.log(mu) - mu - math.lgamma(k + 1.0)


def _poisson_run(k, mu, step):
    """P[Poisson(mu) = j] for j = k, k + step, ... as an array, moving away
    from the mean (step = 1 from k > mu, -1 from k < mu) until an entry and
    the mass past it are below _NEGLIGIBLE * min(P[k], TAIL_TOL), or j
    reaches 0.

    One pmf is evaluated, the rest are products of the neighbour ratios
    mu/(j+1) up and j/mu down.  Those ratios fall away from the mean, so
    with r the next one, the mass past the last entry p is at most
    p r/(1 - r).  The first guess of the length covers ~70 e-folds, as a
    geometric series or as the Gaussian flank of width sqrt(k).
    """
    head = math.exp(_log_pmf(k, mu))
    floor = _NEGLIGIBLE * min(head, TAIL_TOL)
    r = mu / (k + 1.0) if step > 0 else k / mu
    count = 16 + int(min(80.0 / -math.log(r) if r > 0 else 1.0,
                         12.0 * math.sqrt(k + 1.0)))
    runs = []
    while True:
        if step > 0:  # entry i > 0 is P[k + i] / P[k + i - 1]
            ratios = mu / np.arange(k, k + count, dtype=float)
        else:
            count = min(count, k + 1)
            ratios = np.arange(k + 1.0, k + 1.0 - count, -1.0) / mu
        ratios[0] = head
        runs.append(ratios.cumprod())
        last = runs[-1][-1]
        k += step * count
        r = mu / k if step > 0 else (k + 1.0) / mu  # from last to level k
        if k < 0 or (last <= floor and last * r <= floor * (1.0 - r)):
            return np.concatenate(runs)
        head, count = last * r, 2 * count


def poisson_tail(n_levels, mu):
    """P[Poisson(mu) >= n_levels]: the mass a coherent state of mean
    occupation mu puts on the levels a cutoff of n_levels discards.

    Above the mean it is the sum of the pmf from n_levels up, relative
    accurate where it is not subnormal; at or below the mean, where the
    tail is above 1/4, it is 1 minus the sum from n_levels - 1 down.  Each
    sum runs only while its terms matter, and one whose geometric bound
    P[k]/(1 - r) underflows is 0 without a run.
    """
    if not mu >= 0:
        raise ValidationError(f"mean occupation must be >= 0, got {mu!r}")
    if n_levels <= 0 or mu == math.inf:
        return 1.0
    if mu == 0:
        return 0.0
    above = n_levels > mu
    k = n_levels if above else n_levels - 1
    r = mu / (k + 1.0) if above else k / mu
    if math.exp(_log_pmf(k, mu) - math.log1p(-r)) == 0.0:
        return 0.0 if above else 1.0
    if above:
        return float(_poisson_run(k, mu, 1).sum())
    return 1.0 - float(_poisson_run(k, mu, -1).sum())


def start_cutoff(mu):
    """Smallest N >= MIN_LEVELS with poisson_tail(N, mu) <= TAIL_TOL, or
    None when not even MAX_LEVELS keeps the tail that small.

    The tail at MAX_LEVELS is checked first, so an occupation of any size,
    inf included, is refused after one evaluation, and one that is not
    >= 0 gets poisson_tail's ValidationError.  Every candidate N is a
    level above the mean, since the tail at or below it is above 1/4.  The
    first one passes outright when the geometric bound of its tail does;
    otherwise all of them get their tails from one reverse cumulative sum
    of the pmf from the first candidate up, run until the mass past it is
    negligible against TAIL_TOL.
    """
    if poisson_tail(MAX_LEVELS, mu) > TAIL_TOL:
        return None
    first = max(MIN_LEVELS, math.floor(mu) + 1)
    if mu == 0 or (_log_pmf(first, mu) - math.log1p(-mu / (first + 1.0))
                   <= math.log(TAIL_TOL)):
        return first
    tails = _poisson_run(first, mu, 1)[::-1].cumsum()[::-1]
    return first + int(np.argmax(tails <= TAIL_TOL))  # the last one passes


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
    _check_levels(n_levels)
    _check_hbar(hbar)
    return math.sqrt(hbar / 2.0) * np.sqrt(np.arange(1.0, n_levels))


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
    so lam are the zeros of H_N (Golub-Welsch).  It is diagonalized dense
    by ``np.linalg.eigh``, O(N^3): ~3 ms at the N = 128 of the README and
    benchmark runs, ~0.4 s at N = 1024, the largest cutoff it is meant
    for (a banded solver takes ~0.1 s there).
    """
    x_op = np.diag(x_superdiagonal(n_levels), 1)
    lam, vecs = np.linalg.eigh(x_op, UPLO="U")
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
    _check_coupling(kind, lam)
    _check_levels(n_levels)
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
    _check_hbar(hbar)
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
