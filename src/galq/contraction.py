"""The quantum-to-classical laboratory: sqrt(hbar) relabeling of coherent
states, overlap-decay sweeps over an hbar grid, off-diagonal suppression of
the scaled position/momentum operators on a coherent label set, emergence
of classical trajectories, and the narrowing position basis.

Everything here probes the k -> infinity (hbar = 1/k**2 -> 0) limit by
finite-hbar sweeps plus fitted asymptotics; nothing is evaluated at
hbar = 0, where the kernels are singular.

Quantum evolutions run in internal hbar = 1 units.  A classical phase-space
Hamiltonian h(x, p) = (p^2 + x^2)/2 + lam x^4 corresponds to the internal
operator (P^2 + X^2)/2 + lam*hbar*X^4, and the scaled expectation values
sqrt(hbar) <X>, sqrt(hbar) <P> are the quantities compared against the
classical flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import expm_multiply

from .coherent import (
    CoherentLabel,
    coherent_amplitudes,
    matrix_element_xp,
    overlap_analytic,
)
from .errors import DegenerateFitError, PrecisionError, ValidationError
from .fock import hamiltonian_matrix, ladder_matrix, xp_matrices

DEFAULT_HBAR_GRID = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)


def relabel(p, x, hbar):
    """Tilde labels (sqrt(hbar) p, sqrt(hbar) x) of a state labeled (p, x)."""
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    s = math.sqrt(hbar)
    return s * np.asarray(p, dtype=float), s * np.asarray(x, dtype=float)


def unrelabel(p_tilde, x_tilde, hbar):
    """Inverse of :func:`relabel`."""
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    s = math.sqrt(hbar)
    return np.asarray(p_tilde, dtype=float) / s, np.asarray(x_tilde, dtype=float) / s


def unscaled_label(label, hbar):
    """Internal (hbar = 1) label of the state carrying the given tilde label."""
    p, x = unrelabel(label.p, label.x, hbar)
    return CoherentLabel(p, x, label.theta, label.d)


def default_n_policy(hbar, labels, floor=64, factor=9.0):
    """Fock cutoff keeping the sweep's largest coherent tail far below 1e-12:
    N >= max(floor, factor * max |alpha|^2) over the unscaled labels."""
    mu_max = 0.0
    for lab in labels:
        alpha2 = float(np.sum(np.abs(unscaled_label(lab, hbar).alpha) ** 2))
        mu_max = max(mu_max, alpha2)
    return int(max(floor, math.ceil(factor * mu_max)))


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
    pairs, and the rule assigning a safe Fock cutoff to each hbar."""

    def __init__(self, hbar_grid, label_pairs, n_policy=None, n_cap=8192):
        grid = tuple(float(h) for h in hbar_grid)
        if not grid or any(h <= 0 for h in grid):
            raise ValidationError("hbar grid must be positive")
        if any(b >= a for a, b in zip(grid, grid[1:])):
            raise ValidationError("hbar grid must be strictly descending")
        pairs = tuple((l1, l2) for l1, l2 in label_pairs)
        if not pairs:
            raise ValidationError("need at least one label pair")
        self.hbar_grid = grid
        self.label_pairs = pairs
        self.n_policy = n_policy or default_n_policy
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
        for i, h in enumerate(hbar):
            absov[i] = abs(overlap_analytic(l1, l2, h))
            rx[i], rp[i] = diagonalization_diagnostic([l1, l2], h, split=True)
            n = spec.n_policy(h, (l1, l2))
            if n <= spec.n_cap:
                numov[i] = abs(fock_overlap_series(l1, l2, h, n))
        slope, stderr = _fit_log_decay(hbar, absov)
        expected = -label_separation_sq(l1, l2) / 4.0
        reports.append(DecayReport((l1, l2), hbar, absov, rx, rp, numov,
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
    from the classical flow, in tilde (classical) units."""

    kind: str
    lam: float
    x0: float
    p0: float
    t_final: float
    hbar: np.ndarray
    max_deviation: np.ndarray
    n_levels: np.ndarray
    times: np.ndarray
    quantum_x: np.ndarray  # (n_hbar, n_times), tilde units
    quantum_p: np.ndarray
    classical_x: np.ndarray  # (n_times,)
    classical_p: np.ndarray


def classical_trajectory_emergence(x0, p0, hbar_grid, kind="harmonic",
                                   lam=0.1, t_final=2.0, n_samples=101,
                                   n_policy=None, n_cap=65536):
    """Evolve |p0/sqrt(hbar), x0/sqrt(hbar)> quantum mechanically for each
    hbar and compare sqrt(hbar)(<X>, <P>) against the classical trajectory
    started from (x0, p0).

    Exactly zero mismatch (to numerics) for the harmonic case at every
    hbar; for the quartic case the deviation shrinks with hbar.
    """
    if kind not in ("harmonic", "quartic"):
        raise ValidationError("emergence supports harmonic and quartic kinds")
    hbar_grid = tuple(float(h) for h in hbar_grid)
    if not hbar_grid or any(h <= 0 for h in hbar_grid):
        raise ValidationError("hbar grid must be positive")
    if t_final < 0:
        raise ValidationError("t_final must be >= 0")
    n_policy = n_policy or default_n_policy
    times = np.linspace(0.0, t_final, n_samples) if t_final > 0 else np.zeros(1)
    cx, cp = classical_flow(x0, p0, times, kind=kind, lam=lam)
    devs = np.empty(len(hbar_grid))
    ns = np.empty(len(hbar_grid), dtype=int)
    qx = np.empty((len(hbar_grid), times.size))
    qp = np.empty_like(qx)
    tilde = CoherentLabel(p0, x0)
    for i, hbar in enumerate(hbar_grid):
        n = n_policy(hbar, (tilde,))
        if n > n_cap:
            raise PrecisionError(
                f"hbar={hbar} needs Fock cutoff {n} > cap {n_cap}")
        ns[i] = n
        internal = unscaled_label(tilde, hbar)
        psi0 = coherent_amplitudes(internal, n).amplitudes
        h = sparse_internal_hamiltonian(kind, n, lam_eff=lam * hbar)
        x_op, p_op = xp_matrices(ladder_matrix(n))
        if t_final > 0:
            states = expm_multiply(-1j * h, psi0, start=0.0, stop=t_final,
                                   num=times.size, endpoint=True)
        else:
            states = psi0[None, :]
        s = math.sqrt(hbar)
        for k, c in enumerate(states):
            qx[i, k] = s * float(np.real(np.vdot(c, x_op @ c)))
            qp[i, k] = s * float(np.real(np.vdot(c, p_op @ c)))
        devs[i] = max(float(np.max(np.abs(qx[i] - cx))),
                      float(np.max(np.abs(qp[i] - cp))))
    return EmergenceReport(kind, lam, float(x0), float(p0), float(t_final),
                           np.asarray(hbar_grid), devs, ns, times, qx, qp,
                           cx, cp)


# --- position-basis contraction -------------------------------------------

@dataclass(frozen=True, eq=False)
class PositionContractionReport:
    centers: np.ndarray
    hbar: np.ndarray
    max_offdiag_overlap: np.ndarray
    max_offdiag_x: np.ndarray
    max_diag_center_error: np.ndarray
    warning: str | None = None


def position_basis_contraction(centers, hbar_grid, n_points=None,
                               spacing=None):
    """Model the relabeled position basis by Gaussians of width
    sigma = sqrt(hbar/2) at the given centers and track, along the hbar
    grid, their mutual overlaps and the matrix of the position operator.

    As hbar -> 0 the off-diagonals vanish (underflowing to exact zero well
    before hbar does) and the diagonal converges to the center positions.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 1 or centers.size < 2:
        raise ValidationError("need at least two center positions")
    hbar_grid = tuple(float(h) for h in hbar_grid)
    if not hbar_grid or any(h <= 0 for h in hbar_grid):
        raise ValidationError("hbar grid must be positive")
    sig_min = math.sqrt(min(hbar_grid) / 2.0)
    sig_max = math.sqrt(max(hbar_grid) / 2.0)
    span = (centers.max() - centers.min()) + 16.0 * sig_max + 2.0
    if spacing is None:
        spacing = sig_min / 4.0
    need = int(math.ceil(span / spacing)) + 1
    if n_points is None:
        n_points = need
    warning = None
    if spacing > sig_min:
        warning = (f"grid spacing {spacing:.3g} cannot resolve the narrowest "
                   f"Gaussian width {sig_min:.3g}")
    if need > n_points:
        raise ValidationError(
            f"n_points={n_points} too small: need >= {need} at spacing {spacing:.3g}")
    y = (np.arange(n_points) - n_points // 2) * spacing
    mid = 0.5 * (centers.max() + centers.min())
    off_ov = np.empty(len(hbar_grid))
    off_x = np.empty(len(hbar_grid))
    diag_err = np.empty(len(hbar_grid))
    for i, hbar in enumerate(hbar_grid):
        sigma = math.sqrt(hbar / 2.0)
        waves = []
        for c in centers:
            psi = np.exp(-((y - (c - mid)) ** 2) / (4.0 * sigma * sigma))
            nrm = np.linalg.norm(psi) * math.sqrt(spacing)
            waves.append(psi / nrm)
        waves = np.asarray(waves)
        gram = (waves * spacing) @ waves.T
        xmat = (waves * y * spacing) @ waves.T + mid * gram
        off = ~np.eye(centers.size, dtype=bool)
        off_ov[i] = float(np.max(np.abs(gram[off])))
        off_x[i] = float(np.max(np.abs(xmat[off])))
        diag_err[i] = float(np.max(np.abs(np.diag(xmat) - centers)))
    return PositionContractionReport(centers, np.asarray(hbar_grid), off_ov,
                                     off_x, diag_err, warning)
