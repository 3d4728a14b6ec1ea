"""Structure-constant tables for the Galilei-type Lie algebras and their
scaling contraction.

The two shipped algebras are the rotation+translation symmetry without time
translation (``g3s_table``, generators J_i, X_i, P_i) and its central
extension by a generator I that commutes with everything (``hr3_table``),
where the only new bracket is [X_i, P_j] = i delta_ij I.

A table is one read-only complex array c[a, b, e], antisymmetric in a and b,
with [G_a, G_b] = sum_e c[a, b, e] G_e.  The contraction rescales a chosen
generator subset by 1/k.  Writing G_a^c = s_a G_a with s_a in {1, 1/k}, the
structure constants transform by the Inonu-Wigner rule (Inonu & Wigner,
PNAS 39, 510, 1953)

    c'_ab^e = c_ab^e * s_a * s_b / s_e = c_ab^e * k**m_ab^e,
    m_ab^e = n_e - n_a - n_b,

with n_a = 1 for scaled generators and 0 otherwise.  One exponent array m
serves every use: ``contract`` multiplies c by k**m and ``unscale`` by
k**-m (at finite k a change of basis, so an isomorphic table), and
``contraction_limit`` keeps the entries with m = 0, drops those with m < 0
and fails on a nonzero entry with m > 0.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

import numpy as np

from .errors import LimitDivergenceError, ParseError, ValidationError

_NAME_RE = re.compile(r"^(?:[JXP]_[123]|I|T)$")


class StructureTable:
    """Finite-dimensional Lie algebra given by named generators and the
    brackets [G_a, G_b] = sum_e c[a, b, e] G_e.

    ``c`` is one read-only complex array, antisymmetric in a and b.  The
    constructor takes the nonzero brackets as a dict keyed by generator
    pairs; if it supplies both orientations of a pair they must already be
    antisymmetric, otherwise construction fails.
    """

    def __init__(self, names, brackets):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValidationError("generator names must be unique")
        for name in names:
            if not _NAME_RE.match(name):
                raise ValidationError(f"unknown generator name {name!r}")
        self.names = names
        self.dim = len(names)
        self._index = {name: i for i, name in enumerate(names)}
        c = np.zeros((self.dim,) * 3, dtype=complex)
        given = set()  # (a, b) and (b, a) of every bracket seen so far
        for (a, b), terms in brackets.items():
            ia, ib = self.index(a), self.index(b)
            row = np.zeros(self.dim, dtype=complex)
            for e, coeff in terms.items():
                ie = self.index(e)  # a zero term must still name a generator
                coeff = complex(coeff)
                if coeff != 0:
                    row[ie] = coeff
            if ia == ib:
                if row.any():
                    raise ValidationError(
                        f"[{names[ia]},{names[ia]}] must vanish")
            elif (ia, ib) not in given:
                c[ia, ib], c[ib, ia] = row, -row
                given.update(((ia, ib), (ib, ia)))
            elif not np.array_equal(c[ia, ib], row):
                raise ValidationError(
                    "antisymmetry broken: [%s,%s] and [%s,%s] disagree"
                    % (names[ia], names[ib], names[ib], names[ia]))
        bad = np.argwhere(~np.isfinite(c))
        if bad.size:
            a, b, e = bad[0]
            raise ValidationError(
                f"[{names[a]},{names[b]}] -> {names[e]} coefficient "
                f"{complex(c[a, b, e])} is not finite")
        c.flags.writeable = False
        self.c = c

    @classmethod
    def _derived(cls, names, c):
        """Table with the constants c, built without a bracket dict."""
        tbl = cls(names, {})
        c.flags.writeable = False
        tbl.c = c
        return tbl

    def index(self, name):
        """Index of the generator called name."""
        if not isinstance(name, str) or name not in self._index:
            raise ValidationError(f"unknown generator {name!r}")
        return self._index[name]

    def __eq__(self, other):
        return (isinstance(other, StructureTable) and self.names == other.names
                and np.array_equal(self.c, other.c))

    def __repr__(self):
        return f"StructureTable(dim={self.dim}, names={self.names})"


@dataclass(frozen=True)
class ContractionParams:
    """Scale parameter of the contraction, with hbar identified as 1/k**2.

    ``scaled`` lists the generator names divided by k; by default every
    X_i and P_i present in the target table.
    """

    k: float
    scaled: tuple = ()

    def __post_init__(self):
        if not self.k >= 1.0:
            raise ValidationError(f"contraction scale k must be >= 1, got {self.k}")
        if not self.hbar > 0:  # also bounds k**2 in _rescaled
            raise ValidationError(
                f"contraction scale k={self.k} is too large: hbar = 1/k**2 "
                "underflows to 0")
        object.__setattr__(self, "scaled", tuple(self.scaled))

    @property
    def hbar(self):
        return 1.0 / (self.k * self.k)


def default_scaled_set(tbl):
    """All X_i and P_i generators of the table (the contraction default)."""
    return tuple(n for n in tbl.names if n[0] in "XP")


def bracket(a, b, tbl):
    """[G_a, G_b] as a name -> coefficient dict.

    Antisymmetric under swapping a and b; empty dict means zero.
    """
    row = tbl.c[tbl.index(a), tbl.index(b)].tolist()
    return {tbl.names[e]: v for e, v in enumerate(row) if v}


def jacobi_defect(tbl):
    """Max-norm residual of the Jacobi identity over all generator triples.

    Zero (to roundoff) for every valid Lie algebra table.
    """
    # [[G_a, G_b], G_x] coefficient of G_f: sum_e c_ab^e c_ex^f, one matmul
    n = tbl.dim
    d = (tbl.c.reshape(n * n, n) @ tbl.c.reshape(n, n * n)).reshape((n,) * 4)
    resid = d + d.transpose(1, 2, 0, 3) + d.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(resid))) if resid.size else 0.0


def central_defect(tbl, name="I"):
    """Max bracket coefficient involving the named generator on the left.

    Zero iff the generator commutes with everything.
    """
    if name not in tbl.names:
        return 0.0
    row = tbl.c[tbl.index(name)]
    # hypot rounds as Python's abs(complex); np.abs can differ in the last bit
    return float(np.hypot(row.real, row.imag).max())


def _exponents(tbl, scaled):
    """m[a, b, e] = n_e - n_a - n_b, with n_a = 1 for the scaled generators
    and 0 for the others: under G_a -> k**-n_a G_a, c -> c * k**m."""
    n = np.zeros(tbl.dim, dtype=int)
    n[[tbl.index(name) for name in scaled]] = 1
    return n - n[:, None, None] - n[:, None]


def _rescaled(tbl, params, direction):
    """Table with constants c * k**m for m = direction * exponents, rounded
    as Python rounds coeff * k**m (m >= 0) and coeff / k**-m (m < 0)."""
    m = direction * _exponents(tbl, params.scaled or default_scaled_set(tbl))
    kp = np.array([float(params.k)**j for j in range(3)])[np.abs(m)]  # |m|<=2
    re, im = tbl.c.real, tbl.c.imag
    c = np.empty_like(tbl.c)
    with np.errstate(over="ignore", invalid="ignore"):  # callers check inf
        zr, zi = re * 0.0, im * 0.0  # the signed zeros of those operations
        c.real = np.where(m >= 0, re * kp - zi, (re + zi) / kp)
        c.imag = np.where(m >= 0, zr + im * kp, (im - zr) / kp)
    lower = np.tri(tbl.dim, dtype=bool)[..., None]  # b <= a mirrors a < b
    return StructureTable._derived(tbl.names,
                                   np.where(lower, -c.swapaxes(0, 1), c))


def contract(tbl, params):
    """Structure table in the rescaled basis G_a^c = G_a / k for the scaled
    generators.  Isomorphic to the input at every finite k."""
    return _rescaled(tbl, params, 1)


def unscale(tbl, params):
    """Inverse basis change of :func:`contract` (G_a^c -> G_a)."""
    return _rescaled(tbl, params, -1)


def contraction_limit(tbl, scaled=None):
    """k -> infinity limit of the contracted table.

    Entries scaling as a negative power of k drop out; a positive power on a
    nonzero entry means the limit does not exist.
    """
    if scaled is None:
        scaled = default_scaled_set(tbl)
    m = _exponents(tbl, scaled)
    diverging = np.argwhere((m > 0) & (tbl.c != 0))
    if diverging.size:
        a, b, e = diverging[0]
        raise LimitDivergenceError(
            "[%s,%s] -> %s diverges like k**%d as k -> infinity"
            % (tbl.names[a], tbl.names[b], tbl.names[e], m[a, b, e]))
    return StructureTable._derived(tbl.names, np.where(m == 0, tbl.c, 0))


def _eps(i, j, k):
    return int((i - j) * (j - k) * (k - i) / 2)  # Levi-Civita on {1,2,3}


def g3s_table():
    """Rotations plus independent X and P translations, no time translation.

    Conventions: [J_i, J_j] = eps_ijk J_k and X_i, P_i transform as vectors
    under the same rotation block; X and P brackets all vanish.
    """
    names = [f"J_{i}" for i in (1, 2, 3)]
    names += [f"X_{i}" for i in (1, 2, 3)]
    names += [f"P_{i}" for i in (1, 2, 3)]
    brackets = {}
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i == j:
                continue
            k = 6 - i - j
            e = _eps(i, j, k)
            brackets[(f"J_{i}", f"J_{j}")] = {f"J_{k}": e}
            brackets[(f"J_{i}", f"X_{j}")] = {f"X_{k}": e}
            brackets[(f"J_{i}", f"P_{j}")] = {f"P_{k}": e}
    return StructureTable(names, brackets)


def hr3_table():
    """Central extension of :func:`g3s_table`: adds I with
    [X_i, P_j] = i delta_ij I and all other I-brackets zero."""
    base = g3s_table()
    names = base.names + ("I",)
    c = np.zeros((len(names),) * 3, dtype=complex)
    c[:-1, :-1, :-1] = base.c
    for i in (1, 2, 3):
        x, p = base.index(f"X_{i}"), base.index(f"P_{i}")
        c[x, p, -1], c[p, x, -1] = 1j, -1j
    return StructureTable._derived(names, c)


# --- plain-text serialization -------------------------------------------

def format_coefficient(z):
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return repr(z.imag) + "j"
    sign = "+" if z.imag >= 0 else "-"
    return f"({z.real!r}{sign}{abs(z.imag)!r}j)"


def dumps(tbl, header=None):
    """Readable one-bracket-per-line text form, parseable by :func:`loads`."""
    lines = []
    if header:
        for h in header.splitlines():
            lines.append("# " + h)
    lines.append("generators: " + " ".join(tbl.names))
    terms = {}  # (a, b) with a < b -> its nonzero terms, in index order
    for a, b, e in np.argwhere(tbl.c != 0).tolist():
        if a < b:
            terms.setdefault((a, b), []).append(
                f"{format_coefficient(tbl.c[a, b, e])}*{tbl.names[e]}")
    for (a, b), rhs in terms.items():
        lines.append(f"[{tbl.names[a]},{tbl.names[b]}] = {' + '.join(rhs)}")
    return "\n".join(lines) + "\n"


_BRACKET_RE = re.compile(r"^\[\s*([^\s,\]]+)\s*,\s*([^\s,\]]+)\s*\]\s*=\s*(.+)$")


def loads(text):
    """Parse the :func:`dumps` format.  Raises ParseError with the offending
    line number on malformed input."""
    names = None
    brackets = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("generators:"):
            if names is not None:
                raise ParseError("duplicate generators line", line_no)
            names = line.split(":", 1)[1].split()
            if not names:
                raise ParseError("empty generator list", line_no)
            continue
        if names is None:
            raise ParseError("bracket before generators line", line_no)
        m = _BRACKET_RE.match(line)
        if not m:
            raise ParseError(f"unparseable bracket line {line!r}", line_no)
        a, b, rhs = m.groups()
        terms = {}
        for piece in rhs.split(" + "):
            piece = piece.strip()
            if piece in ("0", "0.0"):
                continue
            if "*" not in piece:
                raise ParseError(f"expected coeff*generator, got {piece!r}",
                                 line_no)
            coeff_s, gen = piece.rsplit("*", 1)
            try:
                coeff = complex(coeff_s.strip())
            except ValueError:
                raise ParseError(f"bad coefficient {coeff_s.strip()!r}",
                                 line_no) from None
            if not cmath.isfinite(coeff):
                raise ParseError(
                    f"non-finite coefficient {coeff_s.strip()!r}", line_no)
            terms[gen.strip()] = terms.get(gen.strip(), 0) + coeff
        key = (a, b)
        if key in brackets:
            raise ParseError(f"duplicate bracket [{a},{b}]", line_no)
        brackets[key] = terms
    if names is None:
        raise ParseError("missing generators line", line_no=1)
    try:
        return StructureTable(names, brackets)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc
