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
from math import isfinite
from dataclasses import FrozenInstanceError, dataclass, field

import numpy as np

from .errors import ValidationError

ORTHO_TOL = 1e-9


def _finite(floats, name):
    """floats, a list of Python floats, unless an entry is not finite."""
    if not all(map(math.isfinite, floats)):
        raise ValidationError(f"{name} has non-finite entries")
    return floats


def _vec(v, d, name):
    """v as a checked list of d Python floats.  A scalar is read as a
    1-vector when d = 1."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        if d != 1 or v.shape != ():
            raise ValidationError(
                f"{name} must have {d} component(s), got shape {v.shape}")
        v = v.reshape(1)
    return _finite(v.tolist(), name)


def _scalar(x, name):
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be finite, got {x}")
    return x


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
    w = _vec(w, 3, "w")
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def _frozen(values):
    """A new read-only float array of values."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


class _Checked:
    """Base of the values that hold only the Python floats their
    constructors checked.  Each read of an array attribute returns a new
    read-only array of those floats, so no caller array is ever kept;
    assigning an attribute raises FrozenInstanceError, as on a frozen
    dataclass."""

    _fields = ()  # the constructor's parameters, for the repr

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


_ZEROS = (0.0, 0.0, 0.0)
_IDENTITY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class GalileiElement(_Checked):
    """Finite group element with time shift B, boost V, rotation R and
    space translation A."""

    _fields = ("B", "V", "R", "A")

    def __init__(self, B=0.0, V=_ZEROS, R=_IDENTITY, A=_ZEROS):
        self.__post_init__(B, V, R, A)

    def __post_init__(self, B, V, R, A):
        """Check every construction from outside input, and keep (B, V,
        rows of R, A) as Python floats."""
        B = _scalar(B, "B")
        V, A = _vec(V, 3, "V"), _vec(A, 3, "A")
        R = np.asarray(R, dtype=float)
        if R.shape != (3, 3):
            raise ValidationError("R must be a 3x3 matrix")
        rows = R.tolist()
        _check_rotation(rows, "R")
        fields = self.__dict__
        fields["B"] = B
        fields["_floats"] = (B, V, rows, A)

    V = property(lambda self: _frozen(self._floats[1]))
    R = property(lambda self: _frozen(self._floats[2]))
    A = property(lambda self: _frozen(self._floats[3]))

    def as_matrix(self):
        """The 5x5 affine matrix acting on the column (t, x, 1)."""
        B, V, R, A = self._floats
        m = np.zeros((5, 5))
        m[0, 0] = 1.0
        m[0, 4] = B
        m[1:4, 0] = V
        m[1:4, 1:4] = R
        m[1:4, 4] = A
        m[4, 4] = 1.0
        return m


@dataclass(frozen=True, eq=False)
class InfinitesimalElement:
    """Lie algebra element; only the parameter subset relevant to a given
    coset is consumed by each action.  Its arrays are read-only copies."""

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
            object.__setattr__(self, name,
                               _frozen(_vec(getattr(self, name), 3, name)))
        omega = _frozen(self.omega)
        if omega.shape != (3, 3):
            raise ValidationError("omega must be a 3x3 matrix")
        if not np.all(np.isfinite(omega)):
            raise ValidationError("omega has non-finite entries")
        if not np.array_equal(omega, -omega.T):
            raise ValidationError("omega must be exactly antisymmetric")
        object.__setattr__(self, "omega", omega)


class SpaceTime(_Checked):
    """Newtonian space-time point (t, x)."""

    _fields = ("t", "x")

    def __init__(self, t, x):
        fields = self.__dict__
        fields["t"] = _scalar(t, "t")
        fields["_x"] = _vec(x, 3, "x")

    x = property(lambda self: _frozen(self._x))


class Config(_Checked):
    """Point (x, theta) of the quantum configuration coset."""

    _fields = ("x", "theta")

    def __init__(self, x, theta=0.0):
        fields = self.__dict__
        fields["_x"] = _vec(x, 3, "x")
        fields["theta"] = _scalar(theta, "theta")

    x = property(lambda self: _frozen(self._x))


class Phase(_Checked):
    """Point (p, x, theta) of the quantum phase-space coset."""

    _fields = ("p", "x", "theta")

    def __init__(self, p, x, theta=0.0):
        fields = self.__dict__
        fields["_p"] = _vec(p, 3, "p")
        fields["_x"] = _vec(x, 3, "x")
        fields["theta"] = _scalar(theta, "theta")

    p = property(lambda self: _frozen(self._p))
    x = property(lambda self: _frozen(self._x))


# The group law runs on the Python floats that the constructors checked:
# on 3-vectors numpy's fixed cost per call is most of the work.  Each
# result is made from the floats computed here, in the operation order of
# the dot products (r1 x1 + r2 x2) + r3 x3, and refused, as by its
# constructor, when an entry is not finite or its rotation is lost.

def apply_galilei(g, pt):
    """Finite action (t, x) -> (t + B, V t + R x + A), the action of the
    5x5 matrix ``g.as_matrix()`` on the column (t, x, 1)."""
    B, (v1, v2, v3), R, (a1, a2, a3) = g._floats
    (r11, r12, r13), (r21, r22, r23), (r31, r32, r33) = R
    t = pt.t
    x1, x2, x3 = pt._x
    s = t + B
    if not isfinite(s):
        raise ValidationError(f"t must be finite, got {s}")
    y1 = v1 * t + (r11 * x1 + r12 * x2 + r13 * x3) + a1
    y2 = v2 * t + (r21 * x1 + r22 * x2 + r23 * x3) + a2
    y3 = v3 * t + (r31 * x1 + r32 * x2 + r33 * x3) + a3
    if not (isfinite(y1) and isfinite(y2) and isfinite(y3)):
        raise ValidationError("x has non-finite entries")
    out = object.__new__(SpaceTime)
    fields = out.__dict__
    fields["t"] = s
    fields["_x"] = [y1, y2, y3]
    return out


def compose(g1, g2):
    """Group product; parameters read off the 5x5 matrix product."""
    B1, (v1, v2, v3), R1, (a1, a2, a3) = g1._floats
    B2, (w1, w2, w3), R2, (c1, c2, c3) = g2._floats
    (p11, p12, p13), (p21, p22, p23), (p31, p32, p33) = R1
    (q11, q12, q13), (q21, q22, q23), (q31, q32, q33) = R2
    B = B1 + B2
    if not isfinite(B):
        raise ValidationError(f"B must be finite, got {B}")
    V = [v1 + (p11 * w1 + p12 * w2 + p13 * w3),
         v2 + (p21 * w1 + p22 * w2 + p23 * w3),
         v3 + (p31 * w1 + p32 * w2 + p33 * w3)]
    if not (isfinite(V[0]) and isfinite(V[1]) and isfinite(V[2])):
        raise ValidationError("V has non-finite entries")
    A = [v1 * B2 + (p11 * c1 + p12 * c2 + p13 * c3) + a1,
         v2 * B2 + (p21 * c1 + p22 * c2 + p23 * c3) + a2,
         v3 * B2 + (p31 * c1 + p32 * c2 + p33 * c3) + a3]
    if not (isfinite(A[0]) and isfinite(A[1]) and isfinite(A[2])):
        raise ValidationError("A has non-finite entries")
    rows = [[p11 * q11 + p12 * q21 + p13 * q31,
             p11 * q12 + p12 * q22 + p13 * q32,
             p11 * q13 + p12 * q23 + p13 * q33],
            [p21 * q11 + p22 * q21 + p23 * q31,
             p21 * q12 + p22 * q22 + p23 * q32,
             p21 * q13 + p22 * q23 + p23 * q33],
            [p31 * q11 + p32 * q21 + p33 * q31,
             p31 * q12 + p32 * q22 + p33 * q32,
             p31 * q13 + p32 * q23 + p33 * q33]]
    _check_rotation(rows, "R")
    out = object.__new__(GalileiElement)
    fields = out.__dict__
    fields["B"] = B
    fields["_floats"] = (B, V, rows, A)
    return out


# --- one generator per coset, and the actions built from it ---------------

def coordinates(pt):
    """A coset point's coordinates in column order: (t, x) on space-time,
    (x, theta) on the configuration coset, (p, x, theta) on phase space."""
    if isinstance(pt, SpaceTime):
        return np.array([pt.t, *pt._x])
    if isinstance(pt, Config):
        return np.array([*pt._x, pt.theta])
    if isinstance(pt, Phase):
        return np.array([*pt._p, *pt._x, pt.theta])
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


def exp_generator(e, pt, t=1.0):
    """exp(t G) by :func:`expm`, for the generator G of e on the coset of
    pt (only pt's type is read): the matrix that :func:`apply_matrix`
    applies to the coset's points.  For pure translations G is nilpotent,
    so the exponential terminates and theta picks up the Heisenberg-Weyl
    cocycle exactly.

    Each 3x3 rotation block of exp(t G) must pass the rotation check of
    GalileiElement: squaring a fast rotation loses it to roundoff (at
    |omega| t ~ 1e19 it squares to zero), and such a matrix is refused
    with ValidationError.  So is a t G that overflows, whose entries expm
    refuses as not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = expm(t * _generator(e, pt))
    for i in _rotation_rows(pt):
        _check_rotation(m[i:i + 3, i:i + 3].tolist(),
                        "the rotation block of exp(t G)")
    return m


def apply_matrix(m, pt):
    """The point of pt's coset at m times the column (coordinates(pt), 1),
    for m from :func:`exp_generator`.  A new point past the float range is
    refused by its constructor, with ValidationError."""
    col = np.append(coordinates(pt), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        col = m @ col
    return type(pt)(*_split(pt, col))


def exp_action(e, pt, t=1.0):
    """Finite action exp(t G) on the column (coordinates(pt), 1): the
    matrix of :func:`exp_generator`, with its checks, applied to pt by
    :func:`apply_matrix`."""
    return apply_matrix(exp_generator(e, pt, t), pt)


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
