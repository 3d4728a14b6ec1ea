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
of n; it is never built as a matrix.  :func:`fock.hamiltonian_bands` gives
its three even-offset bands in closed form, each parity block is a strided
view of them in ``eig_banded``'s band storage, and :func:`eigen_propagate`
diagonalizes each block once per cutoff (bandwidth 2 for quartic, 1 for
free; the harmonic blocks are diagonal, W = I) and gives every sampled
state as W (e^{-iEt} o W^T psi0).  <X> and <P> are read off the products
of neighbouring amplitudes, with no operator matrices either.  The cost is
that of the two diagonalizations plus one real product per block, whatever
||H|| t is.  A Krylov or truncated-Taylor propagator costs in proportion to
||H|| t (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011), and the quartic
term makes ||H|| grow like N^2.  The eigenbasis costs O(N^3) time and
O(N^2) memory, which wins at the cutoffs of the hbar >= 1e-3 sweeps
(N <= ~1000) and loses above a few thousand levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, starmap

import numpy as np

from .coherent import (
    CoherentLabel,
    _check_axis,
    coherent_amplitudes,
    matrix_element_xp,
    overlap_analytic,
)
from . import fock
from .errors import DegenerateFitError, PrecisionError, ValidationError
from .fock import edge_mass

DEFAULT_HBAR_GRID = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)

# The verified Fock cutoff: start at fock.start_cutoff of the mean
# occupation mu, then double the margin N - mu above mu until the largest
# population in the top levels along the evolution is <= EDGE_TOL.
EDGE_TOL = 1e-10

# RK4 substeps of the quartic classical reference between two sample times.
# On criterion 09's sampling (101 times over [0, 2]) 50 substeps agree with
# 1000 to 2.4e-14, far below the 3.3e-4 deviation its hbar = 1e-3 point
# resolves.
FLOW_SUBSTEPS = 50

# The eigenbasis of a banded parity block of m levels peaks at 24 m^2 bytes
# (W and the divide-and-conquer workspace of eig_banded): 0.4 GiB at
# N = 2m = 8192.  A larger one raises PrecisionError rather than exhaust
# the memory of the machine.
EIGENBASIS_BYTES = 2**30


def unscaled_label(label, hbar):
    """Internal (hbar = 1) label (p/sqrt(hbar), x/sqrt(hbar)) of the state
    carrying the given tilde label (p, x)."""
    fock._check_hbar(hbar)
    s = math.sqrt(hbar)
    x, p = ([v / s for v in axis] for axis in label._floats)
    return CoherentLabel(p, x, label.theta, label.d)


def _internal_occupation(tilde, hbar):
    """Mean Fock occupation of the state carrying the tilde label at hbar,
    that of :func:`unscaled_label`; inf, with no numpy overflow warning,
    when tilde.occupation / hbar is past the float range."""
    if tilde.occupation / float(hbar) == math.inf:
        return math.inf
    return unscaled_label(tilde, hbar).occupation


def _labels_distinct(l1, l2):
    return l1._floats != l2._floats


def fock_overlap_series(l1, l2, hbar, n_levels):
    """<l1|l2> summed over the truncated Fock expansion of both states.

    Independent of the closed-form kernel: the amplitudes are evaluated
    term by term in log space and the series is summed directly.  Like
    them, it is per axis (d = 1).
    """
    a1 = coherent_amplitudes(unscaled_label(l1, hbar), n_levels)
    a2 = coherent_amplitudes(unscaled_label(l2, hbar), n_levels)
    return complex(np.vdot(a1.amplitudes, a2.amplitudes))


def _hbar_grid(hbar_grid):
    """hbar_grid as a nonempty tuple of floats, each in (0, inf)."""
    grid = tuple(float(h) for h in hbar_grid)
    if not grid or any(not (0 < h < math.inf) for h in grid):
        raise ValidationError("hbar grid must be positive")
    return grid


class SweepSpec:
    """Overlap-decay sweep: descending hbar grid and tilde label pairs."""

    def __init__(self, hbar_grid, label_pairs):
        grid = _hbar_grid(hbar_grid)
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("hbar grid must be strictly descending")
        pairs = tuple((l1, l2) for l1, l2 in label_pairs)
        if not pairs:
            raise ValidationError("need at least one label pair")
        self.hbar_grid = grid
        self.label_pairs = pairs


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
    numeric_abs: np.ndarray  # NaN filler where n_levels is None, read nowhere
    n_levels: tuple  # fock.start_cutoff per hbar, None above the cap
    fitted_slope: float
    slope_stderr: float | None  # None for a two-point fit
    expected_slope: float

    @property
    def slope_rel_error(self):
        if self.expected_slope == 0:
            return abs(self.fitted_slope)
        return abs(self.fitted_slope - self.expected_slope) / abs(self.expected_slope)

    @property
    def max_numeric_gap(self):  # None when no hbar point has a series
        has = [i for i, n in enumerate(self.n_levels) if n is not None]
        if not has:
            return None
        return float(np.max(np.abs(self.numeric_abs[has] - self.abs_overlap[has])))


def label_separation_sq(l1, l2):
    diffs = [a - b for u, v in zip(l1._floats, l2._floats)
             for a, b in zip(u, v)]
    return sum(d * d for d in diffs)


def _offdiag_ratios(labels, hbar):
    """(rx, rp): the largest off-diagonal |X| and |P| table entries over the
    label scale, from one closed-form call per unordered pair i < j:
    <l_j|X|l_i> == conj <l_i|X|l_j>, so both have the same magnitude bits."""
    mags = np.abs(np.array([matrix_element_xp(li, lj, hbar)
                            for li, lj in combinations(labels, 2)]))
    rx, rp = np.max(mags, axis=0).tolist()
    scale = max(abs(v) for lab in labels for axis in lab._floats for v in axis)
    return rx / scale, rp / scale


def diagonalization_diagnostic(labels, hbar):
    """Off-diagonal suppression ratio of the scaled X and P tables.

    Ratio = max off-diagonal magnitude over the label scale (the largest
    |x| or |p| entry, which is exactly the largest diagonal magnitude of
    the two tables).  Tends to 0 as hbar -> 0: the label set diagonalizes
    both operators and the representation splits over the coherent rays.
    The labels must be on one axis (d = 1), at least two and distinct.
    """
    labels = list(labels)
    for label in labels:
        _check_axis(label)
    if len(labels) < 2:
        raise ValidationError("need at least two labels (no off-diagonal otherwise)")
    if not all(starmap(_labels_distinct, combinations(labels, 2))):
        raise ValidationError("coincident labels in the diagnostic set")
    return max(_offdiag_ratios(labels, hbar))


def overlap_decay_sweep(spec):
    """One DecayReport per label pair (list in pair order)."""
    for label in chain(*spec.label_pairs):
        _check_axis(label)
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
        ns = []
        for i, h in enumerate(hbar):
            absov[i] = abs(overlap_analytic(l1, l2, h))
            rx[i], rp[i] = _offdiag_ratios((l1, l2), h)
            # Each state's discarded tail is <= fock.TAIL_TOL, so by
            # Cauchy-Schwarz so is the series' truncation error.
            n = fock.start_cutoff(max(_internal_occupation(l1, h),
                                      _internal_occupation(l2, h)))
            ns.append(n)
            if n is not None:
                numov[i] = abs(fock_overlap_series(l1, l2, h, n))
        slope, stderr = _fit_log_decay(hbar, absov)
        expected = -label_separation_sq(l1, l2) / 4.0
        reports.append(DecayReport((l1, l2), hbar, absov, rx, rp, numov,
                                   tuple(ns), slope, stderr, expected))
    return reports


def _fit_log_decay(hbar, absov):
    if not np.all(absov > 0):
        raise DegenerateFitError(
            f"|overlap| underflows to 0 at hbar={hbar[~(absov > 0)][0]:g}: "
            "ln|overlap| has no finite value to fit")
    x = 1.0 / hbar
    y = np.log(absov)
    if x.size < 2:
        raise DegenerateFitError("need at least two hbar points to fit a slope")
    if x.size == 2:
        slope = (y[1] - y[0]) / (x[1] - x[0])
        return float(slope), None
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return float(coeffs[0]), float(math.sqrt(max(cov[0, 0], 0.0)))


# --- classical trajectory emergence ---------------------------------------

def _phase_step(energies, times, coeff):
    """e^{-i E t} coeff, (len(E), len(times)), for a column coeff.  From
    |E t| = 2**52 on, a float64 keeps no fractional digit of the phase, so
    max|E| max|t| must stay below it (NaN and inf fail too), or
    PrecisionError is raised."""
    e = float(np.max(np.abs(energies), initial=0.0))
    t = float(np.max(np.abs(times), initial=0.0))
    if not e * t < 2.0**52:
        raise PrecisionError(
            f"the phase E t keeps no fractional digit in float64: |E| up to "
            f"{e:g} at |t| up to {t:g}; max|E| max|t| must stay below 2**52")
    a = np.exp(np.multiply.outer(energies, times) * -1j)
    a *= coeff
    return a


def eigen_propagate(bands, psi0, times):
    """exp(-i H t) psi0 at each t in times, stacked as rows (len(times), N).

    H is given by its bands, bands[k, n] = H[n + 2k, n], as
    :func:`fock.hamiltonian_bands` returns them.  Only even offsets are
    stored, so H keeps the parity of n and parity block p is exactly
    bands[:, p::2] in the lower band storage of ``eig_banded``: there is no
    parity check, slicing or copy, and a coupling of even and odd levels
    cannot be written at all.  Each block is diagonalized as W diag(E) W^T,
    and its columns of the result are W (e^{-iEt} o W^T psi0); both
    products with W are real, on the (real, imaginary) pairs, so W is never
    copied to complex.  A block whose bands 1 and 2 are all zero
    (harmonic) is its own eigenbasis, W = I, at any N; a banded block whose
    eigenbasis would exceed EIGENBASIS_BYTES raises PrecisionError before
    anything is allocated, and so does a time whose phase E t keeps no
    fractional digit in float64 (max|E| max|t| >= 2**52, or not finite).
    Bands of another shape than (3, N), not finite, or nonzero past the
    matrix edge raise ValidationError.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    bands = np.asarray(bands, dtype=float)
    n = psi0.size
    if bands.shape != (3, n):
        raise ValidationError(
            f"bands must have shape (3, {n}), got {bands.shape}")
    if not np.all(np.isfinite(bands)):
        raise ValidationError("bands have non-finite entries")
    if any(np.any(bands[k, max(n - 2 * k, 0):]) for k in (1, 2)):
        raise ValidationError("bands are nonzero past the matrix edge")
    # the highest nonzero band of each parity block, the even (larger) first
    widths = [max((k for k in (1, 2) if np.any(bands[k, parity::2])),
                  default=0) for parity in (0, 1)]
    sizes = ((n + 1) // 2, n // 2)
    m = max((size for size, width in zip(sizes, widths) if width), default=0)
    if 24 * m * m > EIGENBASIS_BYTES:
        raise PrecisionError(
            f"Fock cutoff {n}: the eigenbasis of its {m}-level parity "
            f"blocks needs {24 * m * m / 2**20:.0f} MiB, over the "
            f"{EIGENBASIS_BYTES / 2**20:.0f} MiB limit")
    states = np.empty((times.size, n), dtype=complex)
    for parity, width in enumerate(widths):
        block = bands[:width + 1, parity::2]
        if width == 0:
            states[:, parity::2] = _phase_step(block[0], times,
                                               psi0[parity::2, None]).T
            continue
        # galq's one scipy call, imported here so that only banded runs
        # load scipy.linalg.  np.linalg.eigh of the dense block is 1.35-1.46x
        # slower at the blocks of the hbar >= 1e-3 sweeps (10.9 against
        # 8.1 ms at 333 levels, 18.1 against 12.4 ms at 416), ~15 ms more
        # on a ~0.1 s classical-limit benchmark pass; it only wins from
        # ~1000 levels (0.14 against 0.22 s).
        from scipy.linalg import eig_banded
        w, v = eig_banded(block, lower=True, check_finite=False)
        pairs = np.ascontiguousarray(psi0[parity::2]).view(float).reshape(-1, 2)
        a = _phase_step(w, times, (v.T @ pairs).view(complex))  # W^T psi0
        states[:, parity::2] = (v @ a.view(float)).view(complex).T
        del w, v, a  # one block's eigenvectors are alive at a time
    return states


def _check_classical_kind(kind):
    if kind not in ("harmonic", "quartic"):
        raise ValidationError(
            f"the classical reference supports the harmonic and quartic "
            f"kinds, got {kind!r}")


def classical_flow(x0, p0, times, kind="harmonic", lam=0.1):
    """Reference classical trajectory of h = (p^2 + x^2)/2 [+ lam x^4].

    Harmonic case in closed form.  Quartic case by RK4 with FLOW_SUBSTEPS
    equal substeps between consecutive sample times, run on x and p as
    plain Python floats; each stage is evaluated in the order of the
    array-based RK4 (tests/oracles.classical_flow_rk4), so the trajectory
    is bitwise equal to it.  A quartic reference that leaves the finite
    range (x**3 overflows, or a stored sample is inf or NaN, as when the
    substep is far too large for the oscillation) raises PrecisionError
    naming the sample time it failed at and the substep dt.
    """
    _check_classical_kind(kind)
    times = np.asarray(times, dtype=float)
    if kind == "harmonic":
        return (x0 * np.cos(times) + p0 * np.sin(times),
                p0 * np.cos(times) - x0 * np.sin(times))
    c4 = 4.0 * float(lam)
    x, p = float(x0), float(p0)
    xs = np.empty(times.size)
    ps = np.empty(times.size)
    xs[0], ps[0] = x, p
    tl = times.tolist()
    for i in range(1, len(tl)):
        dt = (tl[i] - tl[i - 1]) / FLOW_SUBSTEPS
        half, sixth = 0.5 * dt, dt / 6.0
        try:
            for _ in range(FLOW_SUBSTEPS):  # stage j has slope (p_j, k_jp)
                k1p = -x - c4 * x**3
                x2, p2 = x + half * p, p + half * k1p
                k2p = -x2 - c4 * x2**3
                x3, p3 = x + half * p2, p + half * k2p
                k3p = -x3 - c4 * x3**3
                x4, p4 = x + dt * p3, p + dt * k3p
                k4p = -x4 - c4 * x4**3
                x = x + sixth * (p + 2 * p2 + 2 * p3 + p4)
                p = p + sixth * (k1p + 2 * k2p + 2 * k3p + k4p)
        except OverflowError:  # x**3 beyond the float range raises
            x = math.inf
        if not (math.isfinite(x) and math.isfinite(p)):
            raise PrecisionError(
                "quartic classical reference is not finite at t = "
                f"{tl[i]:g}: RK4 with substep dt = {dt:g} left the finite "
                "range")
        xs[i], ps[i] = x, p
    return xs, ps


@dataclass(frozen=True, eq=False)
class EmergenceReport:
    """Per-hbar maximum deviation of the quantum coherent-center trajectory
    from the classical flow, in tilde (classical) units, with the verified
    Fock cutoff of each hbar and the edge mass reached on it."""

    hbar: np.ndarray
    max_deviation: np.ndarray
    n_levels: np.ndarray
    edge_mass: np.ndarray  # fock.edge_mass over the sampled states
    times: np.ndarray
    quantum_x: np.ndarray  # (n_hbar, n_times), tilde units
    quantum_p: np.ndarray


def _center_trajectory(tilde, hbar, n_levels, kind, lam, times):
    """Edge mass and sqrt(hbar)(<X>, <P>) at the sampled times of the state
    carrying the tilde label, evolved on n_levels Fock levels by
    :func:`eigen_propagate` on the bands of the internal Hamiltonian (one
    diagonalization per parity block for all the times); the trajectory is
    None when the edge mass exceeds EDGE_TOL.

    X and P have the one band X[n, n+1] = s_{n+1} = sqrt((n+1)/2) and
    P[n, n+1] = -i s_{n+1}, so with z_n = conj(psi_n) psi_{n+1},
    <X> = 2 sum s_{n+1} Re z_n and <P> = 2 sum s_{n+1} Im z_n.
    """
    psi0 = coherent_amplitudes(unscaled_label(tilde, hbar), n_levels).amplitudes
    bands = fock.hamiltonian_bands(kind, n_levels, lam * hbar)
    states = eigen_propagate(bands, psi0, times)
    edge = edge_mass(states)
    if edge > EDGE_TOL:
        return edge, None, None
    z = states[:, :-1].conj() * states[:, 1:]
    s = 2.0 * math.sqrt(hbar) * fock.x_superdiagonal(n_levels)
    return edge, z.real @ s, z.imag @ s


def classical_trajectory_emergence(x0, p0, hbar_grid, kind="harmonic",
                                   lam=0.1, t_final=2.0, n_samples=101):
    """Evolve |p0/sqrt(hbar), x0/sqrt(hbar)> quantum mechanically for each
    hbar and compare sqrt(hbar)(<X>, <P>) against the classical trajectory
    started from (x0, p0).

    Exactly zero mismatch (to numerics) for the harmonic case at every
    hbar; for the quartic case the deviation shrinks with hbar.

    The Fock cutoff N of each hbar starts at fock.start_cutoff of the mean
    occupation mu and grows to 2N - floor(mu) until the edge mass of the
    sampled states is <= EDGE_TOL; a cutoff above fock.MAX_LEVELS raises
    PrecisionError.  The growth doubles the margin above mu, which for
    mu < 1 is doubling N; at small hbar, where mu is in the hundreds,
    doubling N would overshoot what the evolved state needs (at most
    1.65 mu for quartic runs started on the unit circle at hbar = 1e-3),
    and a quartic cutoff costs two banded diagonalizations of size N/2,
    cubic in N.  The cost does not depend on t_final or on ||H||: every
    sampled time comes from the same eigenbasis (see
    :func:`eigen_propagate`).
    """
    _check_classical_kind(kind)
    hbar_grid = _hbar_grid(hbar_grid)
    if not (0 <= t_final < math.inf):
        raise ValidationError("t_final must be >= 0")
    if n_samples < 2:
        raise ValidationError("n_samples must be >= 2")
    fock._check_coupling(kind, lam)  # before classical_flow runs the RK4
    times = np.linspace(0.0, t_final, n_samples) if t_final > 0 else np.zeros(1)
    cx, cp = classical_flow(x0, p0, times, kind=kind, lam=lam)
    devs = np.empty(len(hbar_grid))
    ns = np.empty(len(hbar_grid), dtype=int)
    edges = np.empty(len(hbar_grid))
    qx = np.empty((len(hbar_grid), times.size))
    qp = np.empty_like(qx)
    tilde = CoherentLabel(p0, x0)
    for i, hbar in enumerate(hbar_grid):
        mu = _internal_occupation(tilde, hbar)
        n = fock.start_cutoff(mu)
        if n is None:
            raise PrecisionError(
                f"hbar={hbar}: mean occupation {mu:.6g} needs a Fock cutoff "
                f"> cap {fock.MAX_LEVELS} (initial tail)")
        while True:
            edges[i], qx_i, qp_i = _center_trajectory(tilde, hbar, n, kind,
                                                      lam, times)
            if qx_i is not None:
                break
            why = f"edge mass {edges[i]:.2e} > {EDGE_TOL:.0e} at N={n}"
            n = 2 * n - math.floor(mu)
            if n > fock.MAX_LEVELS:
                raise PrecisionError(f"hbar={hbar} needs Fock cutoff {n} > "
                                     f"cap {fock.MAX_LEVELS} ({why})")
        qx[i], qp[i] = qx_i, qp_i
        ns[i] = n
        devs[i] = max(float(np.max(np.abs(qx[i] - cx))),
                      float(np.max(np.abs(qp[i] - cp))))
    return EmergenceReport(np.asarray(hbar_grid), devs, ns, edges, times, qx,
                           qp)

