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
    """v as a float 3-vector, and the list of Python floats it was checked on."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValidationError(f"{name} must be a 3-vector, got shape {v.shape}")
    floats = v.tolist()
    if not all(map(math.isfinite, floats)):
        raise ValidationError(f"{name} has non-finite entries")
    return v, floats


def _scalar(x, name):
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x}")
    return x


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _check_rotation(rows, name):
    """Refuse a 3x3 matrix, given as rows of Python floats, unless every
    entry of R^T R - I and det(R) - 1 is within ORTHO_TOL."""
    # the columns are (a, d, g), (b, e, h) and (c, f, i)
    (a, b, c), (d, e, f), (g, h, i) = rows
    # written as not (err <= tol) so that NaN entries fail too; a
    # non-finite entry makes its column's squared norm inf or NaN
    if not (abs(a * a + d * d + g * g - 1.0) <= ORTHO_TOL
            and abs(b * b + e * e + h * h - 1.0) <= ORTHO_TOL
            and abs(c * c + f * f + i * i - 1.0) <= ORTHO_TOL
            and abs(a * b + d * e + g * h) <= ORTHO_TOL
            and abs(a * c + d * f + g * i) <= ORTHO_TOL
            and abs(b * c + e * f + h * i) <= ORTHO_TOL):
        raise ValidationError(f"{name} is not orthogonal within 1e-9")
    if not abs(a * (e * i - h * f) + d * (h * c - b * i) + g * (b * f - e * c)
               - 1.0) <= ORTHO_TOL:
        raise ValidationError(f"{name} must have determinant +1")


def omega_from_vector(w):
    """Antisymmetric matrix of the rotation rate w: (omega x)_i = (w cross x)_i."""
    w = _vec3(w, "w")[1]
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
    # (B, V, rows of R, A) as the Python floats they were checked on
    _floats: tuple = field(init=False, repr=False)

    def __post_init__(self):
        B = _scalar(self.B, "B")
        V, v = _vec3(self.V, "V")
        A, a = _vec3(self.A, "A")
        R = np.asarray(self.R, dtype=float)
        if R.shape != (3, 3):
            raise ValidationError("R must be a 3x3 matrix")
        rows = R.tolist()
        _check_rotation(rows, "R")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "_floats", (B, v, rows, a))

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
            object.__setattr__(self, name, _vec3(getattr(self, name), name)[0])
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
    _x: list = field(init=False, repr=False)  # x as Python floats

    def __post_init__(self):
        object.__setattr__(self, "t", _scalar(self.t, "t"))
        x, floats = _vec3(self.x, "x")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "_x", floats)


@dataclass(frozen=True, eq=False)
class Config:
    x: np.ndarray
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", _vec3(self.x, "x")[0])
        object.__setattr__(self, "theta", _scalar(self.theta, "theta"))


@dataclass(frozen=True, eq=False)
class Phase:
    p: np.ndarray
    x: np.ndarray
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "p", _vec3(self.p, "p")[0])
        object.__setattr__(self, "x", _vec3(self.x, "x")[0])
        object.__setattr__(self, "theta", _scalar(self.theta, "theta"))


# The group law runs on the Python floats that the constructors checked:
# on 3-vectors numpy's fixed cost per call is most of the work.  Each result
# still goes through its validating constructor.

def apply_galilei(g, pt):
    """Finite action (t, x) -> (t + B, V t + R x + A), the action of the
    5x5 matrix ``g.as_matrix()`` on the column (t, x, 1)."""
    B, V, R, A = g._floats
    t, x = pt.t, pt._x
    return SpaceTime(t + B,
                     [v * t + _dot3(r, x) + a for v, r, a in zip(V, R, A)])


def compose(g1, g2):
    """Group product; parameters read off the 5x5 matrix product.

    R1 R2 stays one numpy product: the constructor converts a nested list
    to an array at more cost than the nine Python dot products save."""
    B1, V1, R1, A1 = g1._floats
    B2, V2, _, A2 = g2._floats
    return GalileiElement(
        B=B1 + B2,
        V=[v + _dot3(r, V2) for v, r in zip(V1, R1)],
        R=g1.R @ g2.R,
        A=[v * B2 + _dot3(r, A2) + a for v, r, a in zip(V1, R1, A1)],
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


def _rotation_rows(pt):
    """First row of each 3x3 block of pt's generator that holds omega."""
    if isinstance(pt, SpaceTime):
        return (1,)
    return (0, 3) if isinstance(pt, Phase) else (0,)


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

    The norm is taken of a scaled by a power of two that brings its largest
    entry below 1, so it cannot overflow, and gives the same s as the
    unscaled norm wherever that is finite.  A matrix with a non-finite
    entry, or whose exponential overflows in the squarings, is refused
    with ValidationError, with no numpy warning.
    """
    a = np.asarray(a, dtype=float)
    n = len(a)
    big = float(np.max(np.abs(a)))
    if not big < math.inf:
        raise ValidationError("expm: matrix has non-finite entries")
    e = math.frexp(big)[1]
    unit = np.ldexp(a, -e)
    s = max(0, math.frexp(math.sqrt(float(np.vdot(unit, unit))))[1] + e + 1)
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
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            out = out @ out
    if not np.isfinite(out).all():
        raise ValidationError(f"expm: the exponential of a matrix with "
                              f"entries up to {big:.3e} overflows")
    return out


def exp_action(e, pt, t=1.0):
    """Finite action exp(t * generator) on the column (coordinates(pt), 1),
    by :func:`expm`.  For pure translations the generator is nilpotent, so
    the exponential terminates and theta picks up the Heisenberg-Weyl
    cocycle exactly.

    Each 3x3 rotation block of exp(t G) must pass the rotation check of
    GalileiElement: squaring a fast rotation loses it to roundoff (at
    |omega| t ~ 1e19 it squares to zero), and such an action is refused
    with ValidationError."""
    col = np.append(coordinates(pt), 1.0)
    m = expm(t * _generator(e, pt))
    for i in _rotation_rows(pt):
        _check_rotation(m[i:i + 3, i:i + 3].tolist(),
                        "the rotation block of exp(t G)")
    return type(pt)(*_split(pt, m @ col))


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
