"""The quantum-to-classical laboratory: sqrt(hbar) relabeling of coherent
states, overlap-decay sweeps over an hbar grid, off-diagonal suppression of
the scaled position/momentum operators on a coherent label set (on
x-separated labels, the narrowing position basis), and emergence of
classical trajectories.

Everything here probes the k -> infinity (hbar = 1/k**2 -> 0) limit by
finite-hbar sweeps plus fitted asymptotics; nothing is evaluated at
hbar = 0, where the kernels are singular.

Quantum evolutions run in internal hbar = 1 units.  A classical phase-space
Hamiltonian h(x, p) = (p^2 + x^2)/2 + lam x^4 corresponds to the internal
operator (P^2 + X^2)/2 + lam*hbar*X^4, and the scaled expectation values
sqrt(hbar) <X>, sqrt(hbar) <P> are the quantities compared against the
classical flow.

The truncated Hamiltonian is real symmetric, banded and keeps the parity
of n, so :func:`eigen_propagate` diagonalizes it once per cutoff, one
``eig_banded`` per parity block (bandwidth 2 for quartic, 1 for free; the
harmonic blocks are diagonal, W = I), and gives every sampled state as
W (e^{-iEt} o W^T psi0).  Its cost is that of the two diagonalizations
plus one real product per block, whatever ||H|| t is.  A Krylov or
truncated-Taylor propagator costs in proportion to ||H|| t (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 2011), and the quartic term makes ||H||
grow like N^2.  The eigenbasis costs O(N^3) time and O(N^2) memory, which
wins at the cutoffs of the hbar >= 1e-3 sweeps (N <= ~1000) and loses
above a few thousand levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig_banded
from scipy.special import gammainc

from .coherent import (
    CoherentLabel,
    coherent_amplitudes,
    matrix_element_xp,
    overlap_analytic,
)
from .errors import DegenerateFitError, PrecisionError, ValidationError
from .fock import edge_mass, hamiltonian_matrix, ladder_matrix, xp_matrices

DEFAULT_HBAR_GRID = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)

# The verified Fock cutoff: start at the smallest N >= MIN_LEVELS whose
# Poisson tail P[n >= N] is <= START_TAIL, then double the margin N - mu
# above the mean occupation mu until the largest population in the top
# levels along the evolution is <= EDGE_TOL.
MIN_LEVELS = 16
START_TAIL = 1e-12
EDGE_TOL = 1e-10

# The eigenbasis of a banded parity block of m levels peaks at 24 m^2 bytes
# (W and the divide-and-conquer workspace of eig_banded): 0.4 GiB at
# N = 2m = 8192.  A larger one raises PrecisionError rather than exhaust
# the memory of the machine.
EIGENBASIS_BYTES = 2**30


def relabel(p, x, hbar):
    """Tilde labels (sqrt(hbar) p, sqrt(hbar) x) of a state labeled (p, x)."""
    if not (0 < hbar < math.inf):
        raise ValidationError("hbar must be positive")
    s = math.sqrt(hbar)
    return s * np.asarray(p, dtype=float), s * np.asarray(x, dtype=float)


def unrelabel(p_tilde, x_tilde, hbar):
    """Inverse of :func:`relabel`."""
    if not (0 < hbar < math.inf):
        raise ValidationError("hbar must be positive")
    s = math.sqrt(hbar)
    return np.asarray(p_tilde, dtype=float) / s, np.asarray(x_tilde, dtype=float) / s


def unscaled_label(label, hbar):
    """Internal (hbar = 1) label of the state carrying the given tilde label."""
    p, x = unrelabel(label.p, label.x, hbar)
    return CoherentLabel(p, x, label.theta, label.d)


def start_cutoff(mu):
    """Smallest N >= MIN_LEVELS with gammainc(N, mu) = P[Poisson(mu) >= N]
    <= START_TAIL: the cutoff that keeps the Fock tail of a coherent state
    of mean occupation mu (see coherent.coherent_tail_mass)."""
    if not (math.isfinite(mu) and mu >= 0):
        raise ValidationError("mean occupation must be finite and >= 0")
    lo, hi = MIN_LEVELS - 1, MIN_LEVELS  # hi is the first candidate
    while gammainc(hi, mu) > START_TAIL:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # gammainc falls with N: lo fails, hi passes
        mid = (lo + hi) // 2
        if gammainc(mid, mu) <= START_TAIL:
            hi = mid
        else:
            lo = mid
    return hi


def _occupation(label, hbar):
    """Mean Fock occupation |alpha|^2 of the unscaled label."""
    return float(np.sum(np.abs(unscaled_label(label, hbar).alpha) ** 2))


def _labels_distinct(l1, l2):
    return (np.max(np.abs(l1.p - l2.p)) > 0
            or np.max(np.abs(l1.x - l2.x)) > 0)


def fock_overlap_series(l1, l2, hbar, n_levels):
    """<l1|l2> summed over the truncated Fock expansion of both states.

    Independent of the closed-form kernel: the amplitudes are evaluated
    term by term in log space and the series is summed directly.
    """
    if l1.d != 1 or l2.d != 1:
        raise ValidationError("series overlap is per-axis (d=1)")
    a1 = coherent_amplitudes(unscaled_label(l1, hbar), n_levels)
    a2 = coherent_amplitudes(unscaled_label(l2, hbar), n_levels)
    return complex(np.vdot(a1.amplitudes, a2.amplitudes))


class SweepSpec:
    """Overlap-decay sweep: hbar grid (strictly descending), tilde label
    pairs, and the largest Fock cutoff the numeric series may use."""

    def __init__(self, hbar_grid, label_pairs, n_cap=8192):
        grid = tuple(float(h) for h in hbar_grid)
        if not grid or any(not (0 < h < math.inf) for h in grid):
            raise ValidationError("hbar grid must be positive")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("hbar grid must be strictly descending")
        pairs = tuple((l1, l2) for l1, l2 in label_pairs)
        if not pairs:
            raise ValidationError("need at least one label pair")
        self.hbar_grid = grid
        self.label_pairs = pairs
        self.n_cap = int(n_cap)


@dataclass(frozen=True, eq=False)
class DecayReport:
    """Per-pair sweep table plus the fitted decay slope.

    ln|overlap| is exactly linear in 1/hbar with slope -delta^2/4 where
    delta^2 is the squared tilde-label separation.
    """

    pair: tuple
    hbar: np.ndarray
    abs_overlap: np.ndarray
    offdiag_x: np.ndarray
    offdiag_p: np.ndarray
    numeric_abs: np.ndarray  # NaN where the cutoff exceeded n_cap
    n_levels: np.ndarray  # start_cutoff of the pair's larger occupation
    fitted_slope: float
    slope_stderr: float
    expected_slope: float

    @property
    def slope_rel_error(self):
        if self.expected_slope == 0:
            return abs(self.fitted_slope)
        return abs(self.fitted_slope - self.expected_slope) / abs(self.expected_slope)

    @property
    def max_numeric_gap(self):
        good = ~np.isnan(self.numeric_abs)
        if not np.any(good):
            return math.nan
        return float(np.max(np.abs(self.numeric_abs[good] - self.abs_overlap[good])))


def label_separation_sq(l1, l2):
    return float(np.sum((l1.x - l2.x) ** 2) + np.sum((l1.p - l2.p) ** 2))


def matrix_element_tables(labels, hbar):
    """Gram-weighted tables M[i, j] = <l_i| X |l_j> and same for P over a
    tilde label set, from the closed forms."""
    n = len(labels)
    mx = np.zeros((n, n), dtype=complex)
    mp = np.zeros((n, n), dtype=complex)
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            mx[i, j], mp[i, j] = matrix_element_xp(li, lj, hbar)
    return mx, mp


def diagonalization_diagnostic(labels, hbar, split=False):
    """Off-diagonal suppression ratio of the scaled X and P tables.

    Ratio = max off-diagonal magnitude over the label scale (the largest
    |x| or |p| entry, which is exactly the largest diagonal magnitude of
    the two tables).  Tends to 0 as hbar -> 0: the label set diagonalizes
    both operators and the representation splits over the coherent rays.
    """
    labels = list(labels)
    if len(labels) < 2:
        raise ValidationError("need at least two labels (no off-diagonal otherwise)")
    for i, li in enumerate(labels):
        for lj in labels[i + 1:]:
            if not _labels_distinct(li, lj):
                raise ValidationError("coincident labels in the diagnostic set")
    scale = max(max(np.max(np.abs(l.x)), np.max(np.abs(l.p))) for l in labels)
    if scale == 0:
        raise ValidationError("all labels at the origin; no diagonal scale")
    mx, mp = matrix_element_tables(labels, hbar)
    off = ~np.eye(len(labels), dtype=bool)
    rx = float(np.max(np.abs(mx[off]))) / scale
    rp = float(np.max(np.abs(mp[off]))) / scale
    if split:
        return rx, rp
    return max(rx, rp)


def overlap_decay_sweep(spec):
    """One DecayReport per label pair (list in pair order)."""
    reports = []
    for l1, l2 in spec.label_pairs:
        if not _labels_distinct(l1, l2):
            raise DegenerateFitError(
                "identical labels give |overlap| = 1 at every hbar; no decay to fit")
        hbar = np.asarray(spec.hbar_grid)
        absov = np.empty(hbar.size)
        numov = np.full(hbar.size, math.nan)
        rx = np.empty(hbar.size)
        rp = np.empty(hbar.size)
        ns = np.empty(hbar.size, dtype=int)
        for i, h in enumerate(hbar):
            absov[i] = abs(overlap_analytic(l1, l2, h))
            rx[i], rp[i] = diagonalization_diagnostic([l1, l2], h, split=True)
            # Each state's discarded tail is <= START_TAIL, so by
            # Cauchy-Schwarz so is the series' truncation error.
            n = ns[i] = start_cutoff(max(_occupation(l1, h),
                                         _occupation(l2, h)))
            if n <= spec.n_cap:
                numov[i] = abs(fock_overlap_series(l1, l2, h, n))
        slope, stderr = _fit_log_decay(hbar, absov)
        expected = -label_separation_sq(l1, l2) / 4.0
        reports.append(DecayReport((l1, l2), hbar, absov, rx, rp, numov, ns,
                                   slope, stderr, expected))
    return reports


def _fit_log_decay(hbar, absov):
    x = 1.0 / hbar
    y = np.log(absov)
    if x.size < 2:
        raise DegenerateFitError("need at least two hbar points to fit a slope")
    if x.size == 2:
        slope = (y[1] - y[0]) / (x[1] - x[0])
        return float(slope), math.nan
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return float(coeffs[0]), float(math.sqrt(max(cov[0, 0], 0.0)))


# --- classical trajectory emergence ---------------------------------------

def sparse_internal_hamiltonian(kind, n_levels, lam_eff=0.0):
    """Internal-unit Hamiltonian as a sparse banded matrix; lam_eff is the
    effective quartic coupling lam * hbar."""
    x, p = xp_matrices(ladder_matrix(n_levels))
    return hamiltonian_matrix(kind, x, p, lam_eff).real


def eigen_propagate(h, psi0, times):
    """exp(-i h t) psi0 at each t in times, stacked as rows (len(times), N).

    h is a real symmetric sparse matrix that keeps the parity of n, as
    :func:`sparse_internal_hamiltonian` returns; a coupling between even
    and odd levels raises ValidationError.  Each parity block is
    diagonalized by one ``eig_banded`` of its lower bands, h = W diag(E) W^T,
    and its columns are W (e^{-iEt} o W^T psi0).  Both products with W are
    real, on the (real, imaginary) pairs, so W is never copied to complex.
    A diagonal block (harmonic) is its own eigenbasis, W = I, at any N; a
    banded block whose eigenbasis would exceed EIGENBASIS_BYTES raises
    PrecisionError.
    """
    if h[0::2, 1::2].count_nonzero():
        raise ValidationError("Hamiltonian mixes the parities of n")
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    states = np.empty((times.size, psi0.size), dtype=complex)
    for parity in (0, 1):  # the even block, the larger, first
        block = h[parity::2, parity::2].tocoo()
        m = block.shape[0]
        width = (block.row - block.col)[block.data != 0].max(initial=0)
        if width == 0:
            a = np.exp(np.multiply.outer(block.diagonal(), times) * -1j)
            a *= psi0[parity::2, None]
            states[:, parity::2] = a.T
            continue
        if 24 * m * m > EIGENBASIS_BYTES:
            raise PrecisionError(
                f"Fock cutoff {psi0.size}: the eigenbasis of its {m}-level "
                f"parity blocks needs {24 * m * m / 2**20:.0f} MiB, over the "
                f"{EIGENBASIS_BYTES / 2**20:.0f} MiB limit")
        band = np.zeros((width + 1, m))
        for k in range(width + 1):  # lower storage: band[k, j] = h[j + k, j]
            band[k, :m - k] = block.diagonal(-k)
        w, v = eig_banded(band, lower=True, overwrite_a_band=True)
        pairs = np.ascontiguousarray(psi0[parity::2]).view(float).reshape(m, 2)
        a = np.exp(np.multiply.outer(w, times) * -1j)
        a *= (v.T @ pairs).view(complex)  # W^T psi0 as a column
        states[:, parity::2] = (v @ a.view(float)).view(complex).T
        del w, v, a  # one block's eigenvectors are alive at a time
    return states


def classical_flow(x0, p0, times, kind="harmonic", lam=0.1, substeps=50):
    """Reference classical trajectory of h = (p^2 + x^2)/2 [+ lam x^4].

    Harmonic case in closed form; anharmonic case by finely substepped RK4.
    """
    times = np.asarray(times, dtype=float)
    if kind == "harmonic":
        return (x0 * np.cos(times) + p0 * np.sin(times),
                p0 * np.cos(times) - x0 * np.sin(times))
    if kind != "quartic":
        raise ValidationError("classical flow supports harmonic and quartic kinds")

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


@dataclass(frozen=True, eq=False)
class EmergenceReport:
    """Per-hbar maximum deviation of the quantum coherent-center trajectory
    from the classical flow, in tilde (classical) units, with the verified
    Fock cutoff of each hbar and the edge mass reached on it."""

    kind: str
    lam: float
    x0: float
    p0: float
    t_final: float
    hbar: np.ndarray
    max_deviation: np.ndarray
    n_levels: np.ndarray
    edge_mass: np.ndarray  # fock.edge_mass over the sampled states
    times: np.ndarray
    quantum_x: np.ndarray  # (n_hbar, n_times), tilde units
    quantum_p: np.ndarray
    classical_x: np.ndarray  # (n_times,)
    classical_p: np.ndarray


def _center_trajectory(tilde, hbar, n_levels, kind, lam, times):
    """Edge mass and sqrt(hbar)(<X>, <P>) at the sampled times of the state
    carrying the tilde label, evolved on n_levels Fock levels by
    :func:`eigen_propagate` (one parity-split diagonalization of the
    internal Hamiltonian for all the times); the trajectory is None when
    the edge mass exceeds EDGE_TOL."""
    psi0 = coherent_amplitudes(unscaled_label(tilde, hbar), n_levels).amplitudes
    h = sparse_internal_hamiltonian(kind, n_levels, lam_eff=lam * hbar)
    states = eigen_propagate(h, psi0, times)
    edge = edge_mass(states)
    if edge > EDGE_TOL:
        return edge, None, None
    x_op, p_op = xp_matrices(ladder_matrix(n_levels))
    s = math.sqrt(hbar)
    qx = s * np.sum(states.conj() * (x_op @ states.T).T, axis=1).real
    qp = s * np.sum(states.conj() * (p_op @ states.T).T, axis=1).real
    return edge, qx, qp


def classical_trajectory_emergence(x0, p0, hbar_grid, kind="harmonic",
                                   lam=0.1, t_final=2.0, n_samples=101,
                                   n_cap=65536):
    """Evolve |p0/sqrt(hbar), x0/sqrt(hbar)> quantum mechanically for each
    hbar and compare sqrt(hbar)(<X>, <P>) against the classical trajectory
    started from (x0, p0).

    Exactly zero mismatch (to numerics) for the harmonic case at every
    hbar; for the quartic case the deviation shrinks with hbar.

    The Fock cutoff N of each hbar starts at :func:`start_cutoff` of the
    mean occupation mu and grows to 2N - floor(mu) until the edge mass of
    the sampled states is <= EDGE_TOL; a cutoff above n_cap raises
    PrecisionError.  The growth doubles the margin above mu, which for
    mu < 1 is doubling N; at small hbar, where mu is in the hundreds,
    doubling N would overshoot what the evolved state needs (at most
    1.65 mu for quartic runs started on the unit circle at hbar = 1e-3),
    and a quartic cutoff costs two banded diagonalizations of size N/2,
    cubic in N.  The cost does not depend on t_final or on ||H||: every
    sampled time comes from the same eigenbasis (see
    :func:`eigen_propagate`).
    """
    if kind not in ("harmonic", "quartic"):
        raise ValidationError("emergence supports harmonic and quartic kinds")
    hbar_grid = tuple(float(h) for h in hbar_grid)
    if not hbar_grid or any(not (0 < h < math.inf) for h in hbar_grid):
        raise ValidationError("hbar grid must be positive")
    if not (0 <= t_final < math.inf):
        raise ValidationError("t_final must be >= 0")
    if n_samples < 2:
        raise ValidationError("n_samples must be >= 2")
    if kind == "quartic" and not (0 <= lam < math.inf):
        raise ValidationError("quartic coupling lam must be >= 0")
    times = np.linspace(0.0, t_final, n_samples) if t_final > 0 else np.zeros(1)
    cx, cp = classical_flow(x0, p0, times, kind=kind, lam=lam)
    devs = np.empty(len(hbar_grid))
    ns = np.empty(len(hbar_grid), dtype=int)
    edges = np.empty(len(hbar_grid))
    qx = np.empty((len(hbar_grid), times.size))
    qp = np.empty_like(qx)
    tilde = CoherentLabel(p0, x0)
    for i, hbar in enumerate(hbar_grid):
        mu = _occupation(tilde, hbar)
        n = start_cutoff(mu)
        why = "initial tail"
        while True:
            if n > n_cap:
                raise PrecisionError(f"hbar={hbar} needs Fock cutoff {n} > "
                                     f"cap {n_cap} ({why})")
            edges[i], qx_i, qp_i = _center_trajectory(tilde, hbar, n, kind,
                                                      lam, times)
            if qx_i is not None:
                break
            why = f"edge mass {edges[i]:.2e} > {EDGE_TOL:.0e} at N={n}"
            n = 2 * n - math.floor(mu)
        qx[i], qp[i] = qx_i, qp_i
        ns[i] = n
        devs[i] = max(float(np.max(np.abs(qx[i] - cx))),
                      float(np.max(np.abs(qp[i] - cp))))
    return EmergenceReport(kind, lam, float(x0), float(p0), float(t_final),
                           np.asarray(hbar_grid), devs, ns, edges, times, qx,
                           qp, cx, cp)

