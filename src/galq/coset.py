"""Group actions on the three coset spaces: Newtonian space-time, the
quantum configuration coset (x, theta), and the quantum phase-space coset
(p, x, theta).

Finite space-time transformations act through a 5x5 affine matrix.  A Lie
algebra element acts on each coset through one generator matrix G on the
homogeneous column (coordinates(pt), 1): ``exp_action`` is the finite
action exp(t G), ``contracted_action`` the infinitesimal one, G times the
column.  The theta row of the phase generator carries the symplectic cocycle
d(theta) = (pbar.x - xbar.p)/2 + thetabar, which is what the central
extension adds to the classical transformation law.

Under contraction the cocycle coefficient is the central structure constant
hbar = 1/k**2 of the rescaled bracket, so in scaled coordinates the theta
row decouples from (p, x) as k -> infinity (hbar = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        if not np.all(np.isfinite(omega)):
            raise ValidationError("omega has non-finite entries")
        if not np.array_equal(omega, -omega.T):
            raise ValidationError("omega must be exactly antisymmetric")
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


# --- one generator per coset, and the actions built from it ---------------

def coordinates(pt):
    """A coset point's coordinates in column order: (t, x) on space-time,
    (x, theta) on the configuration coset, (p, x, theta) on phase space."""
    if isinstance(pt, SpaceTime):
        return np.concatenate(([pt.t], pt.x))
    if isinstance(pt, Config):
        return np.concatenate((pt.x, [pt.theta]))
    if isinstance(pt, Phase):
        return np.concatenate((pt.p, pt.x, [pt.theta]))
    raise ValidationError(f"unsupported coset point {type(pt).__name__}")


def _split(pt, c):
    """Coordinates c cut into the fields of pt's coset, in field order."""
    if isinstance(pt, SpaceTime):
        return c[0], c[1:4]
    if isinstance(pt, Config):
        return c[0:3], c[3]
    return c[0:3], c[3:6], c[6]


def _generator(e, pt, hbar=1.0):
    """Generator matrix of e on the homogeneous column (coordinates(pt), 1):
    5x5 on (t, x, 1) and (x, theta, 1), 8x8 on (p, x, theta, 1).  The theta
    row carries the central cocycle times hbar: pbar.x on the configuration
    coset, (pbar.x - xbar.p)/2 on phase space."""
    if isinstance(pt, SpaceTime):
        m = np.zeros((5, 5))
        m[0, 4] = e.b
        m[1:4, 0] = e.v
        m[1:4, 1:4] = e.omega
        m[1:4, 4] = e.a
        return m
    if isinstance(pt, Phase):
        m = np.zeros((8, 8))
        m[0:3, 0:3] = e.omega
        m[0:3, 7] = e.pbar
        cocycle = 0.5 * np.concatenate((-e.xbar, e.pbar))
    else:
        m = np.zeros((5, 5))
        cocycle = e.pbar
    # both quantum columns end in (x, theta, 1)
    m[-5:-2, -5:-2] = e.omega
    m[-5:-2, -1] = e.xbar
    m[-2, :-2] = hbar * cocycle
    m[-2, -1] = e.thetabar
    return m


# 1/k! for k = 0 .. 16.  Row j of the blocks holds the coefficients of
# a^{4j + 1} .. a^{4j + 3}; the a^{4j} ones go on their diagonals.
_TAYLOR = np.array([1.0 / math.factorial(k) for k in range(17)])
_TAYLOR_BLOCKS = _TAYLOR[:16].reshape(4, 4)[:, 1:]
_TAYLOR_DIAGONALS = _TAYLOR[:16:4, None]


def expm(a):
    """Matrix exponential of a small real square matrix by scaling and
    squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005).

    a / 2**s has Frobenius norm below 1/2, where the degree-16 Taylor
    polynomial is exact to far below rounding (its first omitted term is
    under 2**-17 / 17! ~ 2e-20).  The polynomial is evaluated by
    Paterson-Stockmeyer, as a Horner scheme in a^4 whose coefficients are
    combinations of I, a, a^2 and a^3, in 6 matrix products, and is then
    squared s times.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    s = max(0, math.frexp(math.sqrt(float(np.vdot(a, a))))[1] + 1)
    powers = np.empty((3, n, n))
    np.multiply(a, 2.0 ** -s, out=powers[0])
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[1], powers[0], out=powers[2])
    a4 = powers[1] @ powers[1]
    blocks = _TAYLOR_BLOCKS @ powers.reshape(3, -1)
    blocks[:, ::n + 1] += _TAYLOR_DIAGONALS
    blocks = blocks.reshape(4, n, n)
    out = blocks[3] + _TAYLOR[16] * a4
    for block in blocks[2::-1]:
        out = out @ a4 + block
    for _ in range(s):
        out = out @ out
    return out


def exp_action(e, pt, t=1.0):
    """Finite action exp(t * generator) on the column (coordinates(pt), 1),
    by :func:`expm`.  For pure translations the generator is nilpotent, so
    the exponential terminates and theta picks up the Heisenberg-Weyl
    cocycle exactly."""
    col = np.append(coordinates(pt), 1.0)
    return type(pt)(*_split(pt, expm(t * _generator(e, pt)) @ col))


exp_phase_action = exp_action  # perfbench/workloads.py calls this name


def contracted_action(e, pt, params=None, limit=False):
    """Infinitesimal action in the contracted basis: the generator built at
    hbar = 1/k**2 times the column (coordinates(pt), 1), split like the
    point into (dt, dx), (dx, dtheta) or (dp, dx, dtheta).

    All inputs are read as already-scaled quantities; the only change from
    the k = 1 action is the factor hbar on the central cocycle in dtheta.
    With ``limit=True`` the strict k -> infinity form hbar = 0 is used and
    dtheta = thetabar exactly.
    """
    if not limit and params is None:
        raise ValidationError("params required unless limit=True")
    hbar = 0.0 if limit else params.hbar
    col = np.append(coordinates(pt), 1.0)
    return _split(pt, _generator(e, pt, hbar) @ col)
