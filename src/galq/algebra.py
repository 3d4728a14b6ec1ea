"""Structure-constant tables for the Galilei-type Lie algebras and their
scaling contraction.

The two shipped algebras are the rotation+translation symmetry without time
translation (``g3s_table``, generators J_i, X_i, P_i) and its central
extension by a generator I that commutes with everything (``hr3_table``),
where the only new bracket is [X_i, P_j] = i delta_ij I.

The contraction rescales a chosen generator subset by 1/k.  Writing
G_a^c = s_a G_a with s_a in {1, 1/k}, the structure constants transform as

    c'_ab^e = c_ab^e * s_a * s_b / s_e = c_ab^e * k**(n_e - n_a - n_b)

with n_a = 1 for scaled generators and 0 otherwise.  At finite k this is a
change of basis (an isomorphic table); the k -> infinity limit keeps only
entries whose exponent is <= 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import LimitDivergenceError, ParseError, ValidationError

TOL_EXACT = 1e-12  # absolute tolerance for "exact" algebraic identities

_NAME_RE = re.compile(r"^(?:[JXP]_[123]|I|T)$")


class StructureTable:
    """Finite-dimensional Lie algebra given by named generators and the
    nonzero brackets [G_a, G_b] = sum_e c_ab^e G_e.

    Brackets are stored for a < b only; the mirrored orientation is derived
    by antisymmetry.  If the input dictionary supplies both orientations
    they must already be antisymmetric, otherwise construction fails.
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
        self._c = {}
        for (a, b), terms in brackets.items():
            ia, ib = self._resolve(a), self._resolve(b)
            if ia == ib:
                if any(coeff != 0 for coeff in terms.values()):
                    raise ValidationError(
                        f"[{names[ia]},{names[ia]}] must vanish")
                continue
            clean = {}
            for e, coeff in terms.items():
                coeff = complex(coeff)
                if coeff != 0:
                    clean[self._resolve(e)] = coeff
            if ia < ib:
                key, signed = (ia, ib), clean
            else:
                key, signed = (ib, ia), {e: -v for e, v in clean.items()}
            if key in self._c:
                if self._c[key] != signed:
                    raise ValidationError(
                        "antisymmetry broken: [%s,%s] and [%s,%s] disagree"
                        % (names[ia], names[ib], names[ib], names[ia]))
            elif signed:
                self._c[key] = signed

    def _resolve(self, g):
        if isinstance(g, str):
            if g not in self._index:
                raise ValidationError(f"unknown generator {g!r}")
            return self._index[g]
        g = int(g)
        if not 0 <= g < self.dim:
            raise ValidationError(f"generator index {g} out of range")
        return g

    def index(self, name):
        return self._resolve(name)

    def bracket_indices(self, ia, ib):
        """Bracket coefficients as an index -> complex dict."""
        if ia == ib:
            return {}
        if ia < ib:
            return dict(self._c.get((ia, ib), {}))
        return {e: -v for e, v in self._c.get((ib, ia), {}).items()}

    def dense_constants(self):
        """Full c[a, b, e] array (antisymmetric in a, b)."""
        c = np.zeros((self.dim, self.dim, self.dim), dtype=complex)
        for (a, b), terms in self._c.items():
            for e, coeff in terms.items():
                c[a, b, e] = coeff
                c[b, a, e] = -coeff
        return c

    def items(self):
        """Iterate canonical nonzero brackets as ((ia, ib), {ie: coeff})."""
        return self._c.items()

    def __eq__(self, other):
        return (isinstance(other, StructureTable)
                and self.names == other.names and self._c == other._c)

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
        object.__setattr__(self, "scaled", tuple(self.scaled))

    @property
    def hbar(self):
        return 1.0 / (self.k * self.k)

    @classmethod
    def from_hbar(cls, hbar, scaled=()):
        if not 0 < hbar <= 1:
            raise ValidationError(f"hbar must be in (0, 1], got {hbar}")
        return cls(k=1.0 / math.sqrt(hbar), scaled=scaled)


def default_scaled_set(tbl):
    """All X_i and P_i generators of the table (the contraction default)."""
    return tuple(n for n in tbl.names if n[0] in "XP")


def bracket(a, b, tbl):
    """[G_a, G_b] as a name -> coefficient dict.

    Antisymmetric under swapping a and b; empty dict means zero.
    """
    ia, ib = tbl._resolve(a), tbl._resolve(b)
    return {tbl.names[e]: v for e, v in tbl.bracket_indices(ia, ib).items()}


def jacobi_defect(tbl):
    """Max-norm residual of the Jacobi identity over all generator triples.

    Zero (to roundoff) for every valid Lie algebra table.
    """
    c = tbl.dense_constants()
    # [[G_a, G_b], G_x] coefficient of G_f: sum_e c_ab^e c_ex^f
    d = np.einsum("abe,exf->abxf", c, c)
    resid = d + d.transpose(1, 2, 0, 3) + d.transpose(2, 0, 1, 3)
    return float(np.max(np.abs(resid))) if resid.size else 0.0


def central_defect(tbl, name="I"):
    """Max bracket coefficient involving the named generator on the left.

    Zero iff the generator commutes with everything.
    """
    if name not in tbl.names:
        return 0.0
    ic = tbl.index(name)
    worst = 0.0
    for b in range(tbl.dim):
        for coeff in tbl.bracket_indices(ic, b).values():
            worst = max(worst, abs(coeff))
    return worst


def _scaling_exponents(tbl, scaled):
    n = np.zeros(tbl.dim, dtype=int)
    for name in scaled:
        n[tbl.index(name)] = 1
    return n


def _rescaled(tbl, scaled, k, direction):
    """Structure constants in the basis G_a -> k**(-direction * n_a) G_a."""
    n = _scaling_exponents(tbl, scaled)
    brackets = {}
    for (a, b), terms in tbl.items():
        new_terms = {}
        for e, coeff in terms.items():
            m = direction * int(n[e] - n[a] - n[b])
            if m >= 0:
                new_terms[e] = coeff * k**m
            else:
                new_terms[e] = coeff / k**(-m)
        brackets[(a, b)] = new_terms
    return StructureTable(tbl.names, brackets)


def contract(tbl, params):
    """Structure table in the rescaled basis G_a^c = G_a / k for the scaled
    generators.  Isomorphic to the input at every finite k."""
    scaled = params.scaled or default_scaled_set(tbl)
    for name in scaled:
        tbl.index(name)  # raises for generators missing from the table
    return _rescaled(tbl, scaled, params.k, direction=1)


def unscale(tbl, params):
    """Inverse basis change of :func:`contract` (G_a^c -> G_a)."""
    scaled = params.scaled or default_scaled_set(tbl)
    return _rescaled(tbl, scaled, params.k, direction=-1)


def contraction_limit(tbl, scaled=None):
    """k -> infinity limit of the contracted table.

    Entries scaling as a negative power of k drop out; a positive power on a
    nonzero entry means the limit does not exist.
    """
    if scaled is None:
        scaled = default_scaled_set(tbl)
    for name in scaled:
        tbl.index(name)
    n = _scaling_exponents(tbl, scaled)
    brackets = {}
    for (a, b), terms in tbl.items():
        new_terms = {}
        for e, coeff in terms.items():
            m = int(n[e] - n[a] - n[b])
            if m > 0:
                raise LimitDivergenceError(
                    "[%s,%s] -> %s diverges like k**%d as k -> infinity"
                    % (tbl.names[a], tbl.names[b], tbl.names[e], m))
            if m == 0:
                new_terms[e] = coeff
        brackets[(a, b)] = new_terms
    return StructureTable(tbl.names, brackets)


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
    brackets = {(base.names[a], base.names[b]):
                {base.names[e]: v for e, v in terms.items()}
                for (a, b), terms in base.items()}
    for i in (1, 2, 3):
        brackets[(f"X_{i}", f"P_{i}")] = {"I": 1j}
    return StructureTable(names, brackets)


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
    for (a, b) in sorted(tbl._c):
        terms = tbl._c[(a, b)]
        rhs = " + ".join(
            f"{format_coefficient(terms[e])}*{tbl.names[e]}"
            for e in sorted(terms))
        lines.append(f"[{tbl.names[a]},{tbl.names[b]}] = {rhs}")
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
