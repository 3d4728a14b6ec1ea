"""Canonical coherent states from displacement operators, their analytic
overlap and matrix-element kernels, and overcompleteness quadrature.
Position translations are the displacements with p = 0.

Label convention: the state labeled (p, x) is U|0> with
U = exp(i(p X - x P + theta I)), so the labels are the expectation values
<X> = x, <P> = p and the Fock amplitude parameter is alpha = (x + ip)/sqrt2.
The overlap kernel, written with hbar explicit, is

    <l1|l2> = exp[i(x1.p2 - p1.x2)/(2 hbar)]
              * exp[-(|x1-x2|^2 + |p1-p2|^2)/(4 hbar)]

which the Fock-space inner product reproduces at hbar = 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PrecisionError, ValidationError
from .fock import (TAIL_TOL, FockOperator, StateVector, poisson_tail,
                   position_basis)
from .fock import build_xp  # noqa: F401  (kept in this namespace for callers)
from .projective import coordinates_to_amplitudes


def _axis_vec(v, d, name):
    """v as a float d-vector, and the list of Python floats it was checked on."""
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (d,):
        raise ValidationError(f"{name} must have {d} component(s), got shape {arr.shape}")
    floats = arr.tolist()
    if not all(map(math.isfinite, floats)):
        raise ValidationError(f"{name} has non-finite entries")
    return arr, floats


@dataclass(frozen=True, eq=False)
class CoherentLabel:
    """Phase-space label (p, x) with an optional overall phase theta."""

    p: np.ndarray
    x: np.ndarray
    theta: float = 0.0
    d: int = 1
    # (x, p) as the Python floats they were checked on, for the kernels
    _floats: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError("axis count d must be >= 1")
        p, p_floats = _axis_vec(self.p, self.d, "p")
        x, x_floats = _axis_vec(self.x, self.d, "x")
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ValidationError(f"theta must be finite, got {theta}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "_floats", (x_floats, p_floats))

    @property
    def alpha(self):
        """Fock displacement amplitude(s) (x + ip)/sqrt2 per axis."""
        return coordinates_to_amplitudes(self.x, self.p)

    @property
    def occupation(self):
        """Mean Fock occupation |alpha|^2 over the axes; inf, with no numpy
        overflow warning, past the float range."""
        return sum(a * a for a in np.abs(self.alpha).tolist())


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


def _check_axis(label, n_levels):
    if label.d != 1:
        raise ValidationError("displacement operators are built per axis (d=1)")
    if n_levels < 2:
        raise ValidationError("need at least 2 levels")


def _displaced_columns(label, n_levels, n_cols):
    """Columns 0..n_cols-1 of U = exp(i(p X - x P + theta I)).

    With r = hypot(p, x) and phi = atan2(-x, p), p X - x P is
    r e^{i phi N} X e^{-i phi N}, exactly on the truncated space too
    (e^{i phi N} a e^{-i phi N} = e^{-i phi} a), so
    U = e^{i theta} e^{i phi N} V e^{i r lam} V^T e^{-i phi N} with the
    cached real position basis X = V diag(lam) V^T.
    """
    lam, vecs = position_basis(n_levels)
    p, x = float(label.p[0]), float(label.x[0])
    rot = np.exp(1j * math.atan2(-x, p) * np.arange(n_levels))
    right = np.exp(1j * math.hypot(p, x) * lam)[:, None] \
        * (vecs[:n_cols].T * rot[:n_cols].conj())
    return np.exp(1j * label.theta) * rot[:, None] * (vecs @ right)


def displacement(label, n_levels):
    """Unitary U = exp(i(p X - x P + theta I)) on the truncated space.

    Single-axis labels only; multi-axis operators are Kronecker products of
    these and are not needed quantitatively.
    """
    _check_axis(label, n_levels)
    return FockOperator(n_levels, _displaced_columns(label, n_levels, n_levels),
                        1.0, "U")


def coherent_state(label, n_levels):
    """U(label)|0>, refused with PrecisionError when the Fock tail it
    discards, fock.poisson_tail, is above fock.TAIL_TOL.

    Only the vacuum column of U is computed.
    """
    _check_axis(label, n_levels)
    mu = label.occupation
    tail = poisson_tail(n_levels, mu)
    if tail > TAIL_TOL:
        raise PrecisionError(
            f"Fock cutoff {n_levels} keeps tail mass ~{tail:.3e} above "
            f"the tail tolerance {TAIL_TOL:.1e} for |alpha|^2={mu:.3f}")
    return StateVector(n_levels, _displaced_columns(label, n_levels, 1)[:, 0])


@functools.lru_cache(maxsize=None)
def _log_factorial_table(size):
    table = np.array([math.lgamma(k + 1.0) for k in range(size)])
    table.setflags(write=False)
    return table


def _log_factorials(n_levels):
    """ln n! for n < n_levels, read-only: a prefix of one cached
    ``math.lgamma`` table per power of two, so every cutoff up to
    fock.MAX_LEVELS is served by at most 17 tables."""
    size = 1 << max(n_levels - 1, 1).bit_length()
    return _log_factorial_table(size)[:n_levels]


def _log_space_amplitudes(alpha, n_levels):
    """Rows e^{-|a|^2/2} a^n/sqrt(n!), n < n_levels, one per entry of the
    1-d array alpha; evaluated in log space, stable for large |alpha|."""
    n = np.arange(n_levels)
    absa = np.abs(alpha)
    log_absa = np.log(np.where(absa > 0, absa, 1.0))  # alpha=0 rows fixed below
    log_mag = (-0.5 * absa[:, None] ** 2 + n[None, :] * log_absa[:, None]
               - 0.5 * _log_factorials(n_levels)[None, :])
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


def _axes(l1, l2):
    """Per-axis (x1, p1, x2, p2) of two matched labels, as plain floats."""
    return zip(*l1._floats, *l2._floats)


def overlap_analytic(l1, l2, hbar=1.0):
    """<l1|l2> from the closed-form kernel; factorizes over axes.

    Equals 1 when the labels coincide; the Gaussian factor decays with the
    squared label separation over 4*hbar.  Where that factor underflows,
    the kernel is exactly 0, even when the phase overflows to infinity.
    """
    _check_matched(l1, l2)
    hbar = float(hbar)  # a numpy hbar would warn where Python floats overflow
    if not (0 < hbar < math.inf):
        raise ValidationError("hbar must be positive")
    cross = sep = 0.0
    for x1, p1, x2, p2 in _axes(l1, l2):
        dx, dp = x1 - x2, p1 - p2
        cross += x1 * p2 - p1 * x2
        sep += dx * dx + dp * dp
    phase = cross / (2.0 * hbar) + (l2.theta - l1.theta)
    gauss = sep / (4.0 * hbar)
    if math.exp(-gauss) == 0.0:
        return 0j
    return cmath.exp(1j * phase - gauss)


def matrix_element_xp(l1, l2, hbar=1.0):
    """Closed-form <l1| X |l2> and <l1| P |l2> per axis (tilde-label
    convention: X, P here are the sqrt(hbar)-scaled operators whose
    expectation values the labels are).

    Diagonal elements reduce to the labels themselves.
    """
    ov = overlap_analytic(l1, l2, hbar)
    mx, mp = [], []
    for x1, p1, x2, p2 in _axes(l1, l2):
        mx.append(((x1 + x2) - 1j * (p1 - p2)) / 2.0)
        mp.append(((p1 + p2) + 1j * (x1 - x2)) / 2.0)
    # one flat numpy complex product, not Python's: the two can differ in
    # the last bit, and the published kernel tables are numpy's
    out = np.array(mx + mp) * ov
    if l1.d == 1:
        return tuple(out.tolist())
    return out[:l1.d], out[l1.d:]


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
    if not (0 < radius < math.inf and 0 < step < math.inf):
        raise ValidationError("radius and step must be positive")
    if not 1 <= n_check <= n_levels:
        raise ValidationError("need 1 <= n_check <= n_levels")
    warning = None
    if step > 1.0:
        warning = f"grid step {step} > 1 is too coarse for a meaningful sum"
    m = int(round(2.0 * radius / step))
    pts = -radius + step * np.arange(m + 1)
    pp, xx = np.meshgrid(pts, pts, indexing="ij")
    alpha = coordinates_to_amplitudes(xx.ravel(), pp.ravel())
    amps = _log_space_amplitudes(alpha, n_check)
    s_block = (step * step / (2.0 * math.pi)) * (amps.T @ amps.conj())
    residual = float(np.max(np.abs(s_block - np.eye(n_check))))
    return OvercompletenessResult(residual, n_check, alpha.size, s_block, warning)

