"""Canonical coherent states from displacement operators, their analytic
overlap and matrix-element kernels, overcompleteness quadrature, and the
position-translation representation on a sampled grid.

Label convention: the state labeled (p, x) is U|0> with
U = exp(i(p X - x P + theta I)), so the labels are the expectation values
<X> = x, <P> = p and the Fock amplitude parameter is alpha = (x + ip)/sqrt2.
The overlap kernel, written with hbar explicit, is

    <l1|l2> = exp[i(x1.p2 - p1.x2)/(2 hbar)]
              * exp[-(|x1-x2|^2 + |p1-p2|^2)/(4 hbar)]

which the Fock-space inner product reproduces at hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import PrecisionError, ValidationError
from .fock import FockOperator, StateVector, build_xp, expi_hermitian, vacuum


def _axis_vec(v, d, name):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (d,):
        raise ValidationError(f"{name} must have {d} component(s), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} has non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class CoherentLabel:
    """Phase-space label (p, x) with an optional overall phase theta."""

    p: np.ndarray
    x: np.ndarray
    theta: float = 0.0
    d: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("axis count d must be >= 1")
        object.__setattr__(self, "p", _axis_vec(self.p, self.d, "p"))
        object.__setattr__(self, "x", _axis_vec(self.x, self.d, "x"))
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def alpha(self):
        """Fock displacement amplitude(s) (x + ip)/sqrt2 per axis."""
        return (self.x + 1j * self.p) / math.sqrt(2.0)


def _check_matched(l1, l2):
    if l1.d != l2.d:
        raise ValidationError(f"label axis counts differ: {l1.d} vs {l2.d}")


def weyl_phase(l1, l2):
    """Cocycle phi(l1, l2) = (p1.x2 - x1.p2)/2 in U(l1)U(l2) = e^{i phi} U(l1*l2)."""
    _check_matched(l1, l2)
    return 0.5 * float(l1.p @ l2.x - l1.x @ l2.p)


def label_sum(l1, l2):
    """Additive part of the Heisenberg-Weyl product of two labels."""
    _check_matched(l1, l2)
    return CoherentLabel(l1.p + l2.p, l1.x + l2.x, l1.theta + l2.theta, l1.d)


def displacement(label, n_levels):
    """Unitary U = exp(i(p X - x P + theta I)) on the truncated space.

    Single-axis labels only; multi-axis operators are Kronecker products of
    these and are not needed quantitatively.
    """
    if label.d != 1:
        raise ValidationError("displacement operators are built per axis (d=1)")
    if n_levels < 2:
        raise ValidationError("need at least 2 levels")
    x_op, p_op = build_xp(n_levels, hbar=1.0)
    gen = (label.p[0] * x_op.matrix - label.x[0] * p_op.matrix
           + label.theta * np.eye(n_levels))
    return FockOperator(n_levels, expi_hermitian(gen), 1.0, "U")


def coherent_tail_mass(label, n_levels):
    """Poisson-tail estimate of the amplitude mass discarded at the cutoff."""
    mu = float(np.sum(np.abs(label.alpha) ** 2))
    return float(gammainc(n_levels, mu))  # P[Poisson(mu) >= n_levels]


def coherent_state(label, n_levels, tail_tol=1e-12):
    """U(label)|0>, guarded so the discarded Fock tail stays below tail_tol.

    Pass tail_tol=None to skip the guard (e.g. for deliberately lossy
    truncation studies).
    """
    if tail_tol is not None:
        tail = coherent_tail_mass(label, n_levels)
        if tail > tail_tol:
            raise PrecisionError(
                f"Fock cutoff {n_levels} keeps tail mass ~{tail:.3e} "
                f"above tail_tol={tail_tol:.1e} for |alpha|^2="
                f"{float(np.sum(np.abs(label.alpha)**2)):.3f}")
    u = displacement(label, n_levels)
    return StateVector(n_levels, u.matrix @ vacuum(n_levels).amplitudes)


def _log_space_amplitudes(alpha, n_levels):
    """Rows e^{-|a|^2/2} a^n/sqrt(n!), n < n_levels, one per entry of the
    1-d array alpha; evaluated in log space, stable for large |alpha|."""
    n = np.arange(n_levels)
    absa = np.abs(alpha)
    log_absa = np.log(np.where(absa > 0, absa, 1.0))  # alpha=0 rows fixed below
    log_mag = (-0.5 * absa[:, None] ** 2 + n[None, :] * log_absa[:, None]
               - 0.5 * gammaln(n + 1.0)[None, :])
    amps = np.exp(log_mag) * np.exp(1j * n[None, :] * np.angle(alpha)[:, None])
    amps[absa == 0] = (n == 0).astype(complex)
    return amps


def coherent_amplitudes(label, n_levels):
    """Closed-form truncated expansion e^{i theta} e^{-|a|^2/2} a^n/sqrt(n!).

    This is the analytic oracle for :func:`coherent_state` (equal up to the
    truncation tail).
    """
    if label.d != 1:
        raise ValidationError("per-axis amplitudes only (d=1)")
    amps = _log_space_amplitudes(label.alpha, n_levels)[0]
    return StateVector(n_levels, amps * np.exp(1j * label.theta))


def overlap_analytic(l1, l2, hbar=1.0):
    """<l1|l2> from the closed-form kernel; factorizes over axes.

    Equals 1 when the labels coincide; the Gaussian factor decays with the
    squared label separation over 4*hbar.
    """
    _check_matched(l1, l2)
    if hbar <= 0:
        raise ValidationError("hbar must be positive")
    phase = (float(l1.x @ l2.p - l1.p @ l2.x) / (2.0 * hbar)
             + (l2.theta - l1.theta))
    decay = (float(np.sum((l1.x - l2.x) ** 2) + np.sum((l1.p - l2.p) ** 2))
             / (4.0 * hbar))
    return complex(np.exp(1j * phase - decay))


def matrix_element_xp(l1, l2, hbar=1.0):
    """Closed-form <l1| X |l2> and <l1| P |l2> per axis (tilde-label
    convention: X, P here are the sqrt(hbar)-scaled operators whose
    expectation values the labels are).

    Diagonal elements reduce to the labels themselves.
    """
    ov = overlap_analytic(l1, l2, hbar)
    mx = ((l1.x + l2.x) - 1j * (l1.p - l2.p)) / 2.0 * ov
    mp = ((l1.p + l2.p) + 1j * (l1.x - l2.x)) / 2.0 * ov
    if l1.d == 1:
        return complex(mx[0]), complex(mp[0])
    return mx, mp


@dataclass(frozen=True)
class OvercompletenessResult:
    residual: float
    n_check: int
    n_labels: int
    s_block: np.ndarray
    warning: str | None = None


def overcompleteness_residual(n_levels, radius, step, n_check=16):
    """Riemann-sum check of the resolution of identity.

    Accumulates S = (step^2 / 2 pi) sum |l><l| over the label grid
    p, x in [-radius, radius] and returns the max-norm deviation of S from
    the identity on the first n_check levels.  The deviation shrinks as the
    domain grows and the mesh refines.
    """
    if radius <= 0 or step <= 0:
        raise ValidationError("radius and step must be positive")
    if not 1 <= n_check <= n_levels:
        raise ValidationError("need 1 <= n_check <= n_levels")
    warning = None
    if step > 1.0:
        warning = f"grid step {step} > 1 is too coarse for a meaningful sum"
    m = int(round(2.0 * radius / step))
    pts = -radius + step * np.arange(m + 1)
    pp, xx = np.meshgrid(pts, pts, indexing="ij")
    alpha = (xx.ravel() + 1j * pp.ravel()) / math.sqrt(2.0)
    amps = _log_space_amplitudes(alpha, n_check)
    s_block = (step * step / (2.0 * math.pi)) * (amps.T @ amps.conj())
    residual = float(np.max(np.abs(s_block - np.eye(n_check))))
    return OvercompletenessResult(residual, n_check, alpha.size, s_block, warning)


# --- sampled position-space representation --------------------------------

@dataclass(frozen=True, eq=False)
class GridWavefunction:
    """Complex samples on the periodic grid y_j = (j - M//2) * spacing."""

    n_points: int
    spacing: float
    samples: np.ndarray

    def __post_init__(self):
        if self.n_points < 2 or self.spacing <= 0:
            raise ValidationError("need n_points >= 2 and positive spacing")
        v = np.asarray(self.samples, dtype=complex)
        if v.shape != (self.n_points,):
            raise ValidationError("sample count does not match n_points")
        if not np.all(np.isfinite(v.view(float))):
            raise ValidationError("samples must be finite")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "samples", v)
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def grid(self):
        return (np.arange(self.n_points) - self.n_points // 2) * self.spacing

    @property
    def norm(self):
        return float(np.linalg.norm(self.samples) * math.sqrt(self.spacing))

    def is_normalized(self, tol=1e-10):
        return abs(self.norm - 1.0) <= tol


def grid_gaussian(n_points, spacing, center=0.0, sigma=1.0, momentum=0.0):
    """Normalized discrete Gaussian exp(-(y-c)^2/(4 sigma^2) + i k y)."""
    if sigma <= 0:
        raise ValidationError("sigma must be positive")
    y = (np.arange(n_points) - n_points // 2) * spacing
    env = np.exp(-((y - center) ** 2) / (4.0 * sigma * sigma))
    psi = env * np.exp(1j * momentum * y)
    nrm = np.linalg.norm(psi) * math.sqrt(spacing)
    if nrm == 0:
        raise ValidationError("Gaussian underflows to zero on this grid")
    return GridWavefunction(n_points, spacing, psi / nrm)


def position_translate(psi, x, theta=0.0):
    """e^{i theta} times the shift psi(y) -> psi(y - x).

    Integer multiples of the grid spacing shift by array roll (exact);
    other shifts go through the spectral factor e^{-i k x}, which keeps the
    map exactly unitary on the periodic grid.
    """
    shift_f = x / psi.spacing
    shift = int(round(shift_f))
    phase = np.exp(1j * theta)
    if abs(shift_f - shift) < 1e-12:
        out = np.roll(psi.samples, shift)
    else:
        k = 2.0 * math.pi * np.fft.fftfreq(psi.n_points, d=psi.spacing)
        out = np.fft.ifft(np.fft.fft(psi.samples) * np.exp(-1j * k * x))
    return GridWavefunction(psi.n_points, psi.spacing, phase * out)
