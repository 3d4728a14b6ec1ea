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
from dataclasses import dataclass

import numpy as np

from .coset import _Checked, _frozen, _scalar, _vec
from .errors import PrecisionError, ValidationError
from .fock import (TAIL_TOL, FockOperator, StateVector, _check_hbar,
                   _check_levels, poisson_tail, position_basis)
from .fock import build_xp  # noqa: F401  (kept in this namespace for callers)
from .projective import coordinates_to_amplitudes


class CoherentLabel(_Checked):
    """Phase-space label (p, x) with an optional overall phase theta."""

    _fields = ("p", "x", "theta", "d")

    def __init__(self, p, x, theta=0.0, d=1):
        if d < 1:
            raise ValidationError("axis count d must be >= 1")
        p, x = _vec(p, d, "p"), _vec(x, d, "x")
        # (x, p) as the Python floats they were checked on, for the kernels
        self.__dict__.update(theta=_scalar(theta, "theta"), d=d,
                             _floats=(x, p))

    p = property(lambda self: _frozen(self._floats[1]))
    x = property(lambda self: _frozen(self._floats[0]))

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


def _check_axis(label):
    """The one per-axis rule of the Fock-space constructions."""
    if label.d != 1:
        raise ValidationError("Fock states and operators are built per axis "
                              f"(d=1), got d={label.d}")


def _displaced_columns(label, n_levels, n_cols):
    """Columns 0..n_cols-1 of U = exp(i(p X - x P + theta I)).

    With r = hypot(p, x) and phi = atan2(-x, p), p X - x P is
    r e^{i phi N} X e^{-i phi N}, exactly on the truncated space too
    (e^{i phi N} a e^{-i phi N} = e^{-i phi} a), so
    U = e^{i theta} e^{i phi N} V e^{i r lam} V^T e^{-i phi N} with the
    cached real position basis X = V diag(lam) V^T.
    """
    lam, vecs = position_basis(n_levels)
    (x,), (p,) = label._floats
    rot = np.exp(1j * math.atan2(-x, p) * np.arange(n_levels))
    right = np.exp(1j * math.hypot(p, x) * lam)[:, None] \
        * (vecs[:n_cols].T * rot[:n_cols].conj())
    # V is real: it multiplies the (re, im) pairs of right, not a complex
    # copy of itself
    cols = (vecs @ np.ascontiguousarray(right).view(float)).view(complex)
    return np.exp(1j * label.theta) * rot[:, None] * cols


def displacement(label, n_levels):
    """Unitary U = exp(i(p X - x P + theta I)) on the truncated space.

    Single-axis labels only; multi-axis operators are Kronecker products of
    these and are not needed quantitatively.
    """
    _check_axis(label)
    _check_levels(n_levels)
    return FockOperator(n_levels, _displaced_columns(label, n_levels, n_levels),
                        1.0, "U")


def coherent_state(label, n_levels):
    """U(label)|0>, refused with PrecisionError when the Fock tail it
    discards, fock.poisson_tail, is above fock.TAIL_TOL.

    Only the vacuum column of U is computed.
    """
    _check_axis(label)
    _check_levels(n_levels)
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
    _check_axis(label)
    amps = _log_space_amplitudes(label.alpha, n_levels)[0]
    return StateVector(n_levels, amps * np.exp(1j * label.theta))


def _axes(l1, l2):
    """Per-axis (x1, p1, x2, p2) of two matched labels, as plain floats."""
    return zip(*l1._floats, *l2._floats)


def _kernel(cross, sep, l1, l2, hbar):
    """<l1|l2> from the axis sums cross of x1.p2 - p1.x2 and sep of the
    squared label separation."""
    phase = cross / (2.0 * hbar) + (l2.theta - l1.theta)
    gauss = sep / (4.0 * hbar)
    if math.exp(-gauss) == 0.0:
        return 0j
    return cmath.exp(1j * phase - gauss)


def overlap_analytic(l1, l2, hbar=1.0):
    """<l1|l2> from the closed-form kernel; factorizes over axes.

    Equals 1 when the labels coincide; the Gaussian factor decays with the
    squared label separation over 4*hbar.  Where that factor underflows,
    the kernel is exactly 0, even when the phase overflows to infinity.
    """
    _check_matched(l1, l2)
    hbar = _check_hbar(hbar)
    cross = sep = 0.0
    for x1, p1, x2, p2 in _axes(l1, l2):
        dx, dp = x1 - x2, p1 - p2
        cross += x1 * p2 - p1 * x2
        sep += dx * dx + dp * dp
    return _kernel(cross, sep, l1, l2, hbar)


def matrix_element_xp(l1, l2, hbar=1.0):
    """Closed-form <l1| X |l2> and <l1| P |l2> per axis (tilde-label
    convention: X, P here are the sqrt(hbar)-scaled operators whose
    expectation values the labels are).

    Diagonal elements reduce to the labels themselves.  The overlap
    factor is summed in the same pass over the axes, in the order of
    :func:`overlap_analytic`, so it is that kernel's value bit for bit.
    """
    _check_matched(l1, l2)
    hbar = _check_hbar(hbar)
    cross = sep = 0.0
    mx, mp = [], []
    for x1, p1, x2, p2 in _axes(l1, l2):
        dx, dp = x1 - x2, p1 - p2
        cross += x1 * p2 - p1 * x2
        sep += dx * dx + dp * dp
        mx.append(((x1 + x2) - 1j * dp) / 2.0)
        mp.append(((p1 + p2) + 1j * dx) / 2.0)
    # one flat numpy complex product, not Python's: the two can differ in
    # the last bit, and the published kernel tables are numpy's
    out = np.array(mx + mp) * _kernel(cross, sep, l1, l2, hbar)
    if l1.d == 1:
        return tuple(out.tolist())
    return out[:l1.d], out[l1.d:]


# The residual holds the amplitudes of its whole label grid at once and
# peaks at 48 (n_check + 1) bytes per label (tracemalloc, 5e4 to 6e5 labels
# on 1 to 64 levels); a grid needing more is refused before it is built.
RESIDUAL_BYTES = 2**30


@dataclass(frozen=True)
class OvercompletenessResult:
    residual: float
    s_block: np.ndarray
    warning: str | None = None


def overcompleteness_residual(n_levels, radius, step, n_check=16):
    """Riemann-sum check of the resolution of identity.

    Accumulates S = (step^2 / 2 pi) sum |l><l| over the label grid
    p, x in [-radius, radius] and returns the max-norm deviation of S from
    the identity on the first n_check levels.  The deviation shrinks as the
    domain grows and the mesh refines.  A grid whose sum would need more
    than RESIDUAL_BYTES raises ValidationError.
    """
    if not (0 < radius < math.inf and 0 < step < math.inf):
        raise ValidationError("radius and step must be positive")
    if not 1 <= n_check <= n_levels:
        raise ValidationError("need 1 <= n_check <= n_levels")
    m = 2.0 * radius / step  # inf, with no exception, past the float range
    nbytes = 48.0 * (n_check + 1) * (m + 1.0) * (m + 1.0)
    if not nbytes <= RESIDUAL_BYTES:
        raise ValidationError(
            f"residual grid of radius {radius:g} and step {step:g} needs "
            f"~{nbytes / 2**30:.3g} GiB on {n_check} levels, over the "
            f"{RESIDUAL_BYTES / 2**30:.0f} GiB limit")
    warning = None
    if step > 1.0:
        warning = f"grid step {step} > 1 is too coarse for a meaningful sum"
    m = int(round(m))
    pts = -radius + step * np.arange(m + 1)
    pp, xx = np.meshgrid(pts, pts, indexing="ij")
    alpha = coordinates_to_amplitudes(xx.ravel(), pp.ravel())
    amps = _log_space_amplitudes(alpha, n_check)
    s_block = (step * step / (2.0 * math.pi)) * (amps.T @ amps.conj())
    residual = float(np.max(np.abs(s_block - np.eye(n_check))))
    return OvercompletenessResult(residual, s_block, warning)

