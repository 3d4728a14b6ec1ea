"""Matrix realizations of the group actions on the three coset spaces:
Newtonian space-time, the quantum configuration coset (x, theta), and the
quantum phase-space coset (p, x, theta).

Finite space-time transformations act through a 5x5 affine matrix; the two
quantum cosets are specified infinitesimally and exponentiated on demand.
The theta row of the phase coset carries the symplectic cocycle
d(theta) = (pbar.x - xbar.p)/2 + thetabar, which is what the central
extension adds to the classical transformation law.

Under contraction the cocycle coefficient is the central structure constant
1/k**2 of the rescaled bracket, so in scaled coordinates the theta row
decouples from (p, x) as k -> infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import ValidationError

ORTHO_TOL = 1e-9


def _vec3(v, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValidationError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValidationError(f"{name} has non-finite entries")
    return v


def _scalar(x, name):
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x}")
    return x


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def omega_from_vector(w):
    """Antisymmetric matrix of the rotation rate w: (omega x)_i = (w cross x)_i."""
    w = _vec3(w, "w")
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


@dataclass(frozen=True, eq=False)
class GalileiElement:
    """Finite group element with time shift B, boost V, rotation R and
    space translation A."""

    B: float = 0.0
    V: np.ndarray = field(default_factory=lambda: np.zeros(3))
    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    A: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "B", _scalar(self.B, "B"))
        object.__setattr__(self, "V", _vec3(self.V, "V"))
        object.__setattr__(self, "A", _vec3(self.A, "A"))
        R = np.asarray(self.R, dtype=float)
        if R.shape != (3, 3):
            raise ValidationError("R must be a 3x3 matrix")
        c0, c1, c2 = zip(*R.tolist())  # the columns
        gram = (_dot3(c0, c0) - 1.0, _dot3(c1, c1) - 1.0, _dot3(c2, c2) - 1.0,
                _dot3(c0, c1), _dot3(c0, c2), _dot3(c1, c2))
        # written as not (err <= tol) so that NaN entries fail too; a
        # non-finite entry makes its column's squared norm inf or NaN
        if not all(abs(err) <= ORTHO_TOL for err in gram):
            raise ValidationError("R is not orthogonal within 1e-9")
        if not abs(_dot3(c0, _cross3(c1, c2)) - 1.0) <= ORTHO_TOL:
            raise ValidationError("R must have determinant +1")
        object.__setattr__(self, "R", R)

    def as_matrix(self):
        """The 5x5 affine matrix acting on the column (t, x, 1)."""
        m = np.zeros((5, 5))
        m[0, 0] = 1.0
        m[0, 4] = self.B
        m[1:4, 0] = self.V
        m[1:4, 1:4] = self.R
        m[1:4, 4] = self.A
        m[4, 4] = 1.0
        return m


@dataclass(frozen=True, eq=False)
class InfinitesimalElement:
    """Lie algebra element; only the parameter subset relevant to a given
    coset is consumed by each action."""

    b: float = 0.0
    v: np.ndarray = field(default_factory=lambda: np.zeros(3))
    omega: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    a: np.ndarray = field(default_factory=lambda: np.zeros(3))
    pbar: np.ndarray = field(default_factory=lambda: np.zeros(3))
    xbar: np.ndarray = field(default_factory=lambda: np.zeros(3))
    thetabar: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "b", _scalar(self.b, "b"))
        object.__setattr__(self, "thetabar", _scalar(self.thetabar, "thetabar"))
        for name in ("v", "a", "pbar", "xbar"):
            object.__setattr__(self, name, _vec3(getattr(self, name), name))
        omega = np.asarray(self.omega, dtype=float)
        if omega.shape != (3, 3):
            raise ValidationError("omega must be a 3x3 matrix")
        if not np.array_equal(omega, -omega.T):
            raise ValidationError("omega must be exactly antisymmetric")
        if not np.all(np.isfinite(omega)):
            raise ValidationError("omega has non-finite entries")
        object.__setattr__(self, "omega", omega)


@dataclass(frozen=True, eq=False)
class SpaceTime:
    t: float
    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", _scalar(self.t, "t"))
        object.__setattr__(self, "x", _vec3(self.x, "x"))


@dataclass(frozen=True, eq=False)
class Config:
    x: np.ndarray
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", _vec3(self.x, "x"))
        object.__setattr__(self, "theta", _scalar(self.theta, "theta"))


@dataclass(frozen=True, eq=False)
class Phase:
    p: np.ndarray
    x: np.ndarray
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", _vec3(self.p, "p"))
        object.__setattr__(self, "x", _vec3(self.x, "x"))
        object.__setattr__(self, "theta", _scalar(self.theta, "theta"))


def apply_galilei(g, pt):
    """Finite action (t, x) -> (t + B, V t + R x + A), the action of the
    5x5 matrix ``g.as_matrix()`` on the column (t, x, 1)."""
    return SpaceTime(t=pt.t + g.B, x=g.V * pt.t + g.R @ pt.x + g.A)


def compose(g1, g2):
    """Group product; parameters read off the 5x5 matrix product."""
    return GalileiElement(
        B=g1.B + g2.B,
        V=g1.V + g1.R @ g2.V,
        R=g1.R @ g2.R,
        A=g1.V * g2.B + g1.R @ g2.A + g1.A,
    )


def infinitesimal_spacetime(e, pt):
    """Tangent (dt, dx) = (b, v t + omega x + a)."""
    return e.b, e.v * pt.t + e.omega @ pt.x + e.a


def contracted_action(e, pt, params=None, limit=False):
    """Infinitesimal action in the contracted basis.

    At k = 1 it is the plain action: dtheta = pbar.x + thetabar on Config
    and (pbar.x - xbar.p)/2 + thetabar, the symplectic cocycle, on Phase.
    All inputs are read as already-scaled quantities; the only change from
    the k = 1 action is that the central cocycle in dtheta is multiplied by
    hbar = 1/k**2.  With ``limit=True`` the strict k -> infinity form is
    used and dtheta = thetabar exactly.
    """
    if limit:
        hbar = 0.0
    else:
        if params is None:
            raise ValidationError("params required unless limit=True")
        hbar = params.hbar
    if isinstance(pt, Phase):
        dp = e.omega @ pt.p + e.pbar
        dx = e.omega @ pt.x + e.xbar
        dtheta = 0.5 * hbar * float(e.pbar @ pt.x - e.xbar @ pt.p) + e.thetabar
        return dp, dx, dtheta
    if isinstance(pt, Config):
        dx = e.omega @ pt.x + e.xbar
        dtheta = hbar * float(e.pbar @ pt.x) + e.thetabar
        return dx, dtheta
    if isinstance(pt, SpaceTime):
        # no central charge acts here; the transformation law is unchanged
        return infinitesimal_spacetime(e, pt)
    raise ValidationError(f"unsupported coset point {type(pt).__name__}")


# --- generator matrices and finite quantum-coset actions ------------------

def spacetime_generator(e):
    """5x5 generator matrix of Galilei transformations on (t, x, 1)."""
    m = np.zeros((5, 5))
    m[0, 4] = e.b
    m[1:4, 0] = e.v
    m[1:4, 1:4] = e.omega
    m[1:4, 4] = e.a
    return m


def config_generator(e):
    """5x5 generator matrix on the column (x, theta, 1)."""
    m = np.zeros((5, 5))
    m[0:3, 0:3] = e.omega
    m[0:3, 4] = e.xbar
    m[3, 0:3] = e.pbar
    m[3, 4] = e.thetabar
    return m


def phase_generator(e):
    """8x8 generator matrix on the column (p, x, theta, 1)."""
    m = np.zeros((8, 8))
    m[0:3, 0:3] = e.omega
    m[0:3, 7] = e.pbar
    m[3:6, 3:6] = e.omega
    m[3:6, 7] = e.xbar
    m[6, 0:3] = -0.5 * e.xbar
    m[6, 3:6] = 0.5 * e.pbar
    m[6, 7] = e.thetabar
    return m


def exp_spacetime_action(e, pt, t=1.0):
    """Finite space-time transformation exp(t * generator) applied to pt."""
    col = np.concatenate(([pt.t], pt.x, [1.0]))
    out = expm(t * spacetime_generator(e)) @ col
    return SpaceTime(t=out[0], x=out[1:4])


def exp_config_action(e, pt, t=1.0):
    col = np.concatenate((pt.x, [pt.theta], [1.0]))
    out = expm(t * config_generator(e)) @ col
    return Config(x=out[0:3], theta=out[3])


def exp_phase_action(e, pt, t=1.0):
    """Finite phase-coset transformation; for pure translations the
    exponential terminates (the phase block is nilpotent) and theta picks
    up the Heisenberg-Weyl cocycle exactly."""
    col = np.concatenate((pt.p, pt.x, [pt.theta], [1.0]))
    out = expm(t * phase_generator(e)) @ col
    return Phase(p=out[0:3], x=out[3:6], theta=out[6])
