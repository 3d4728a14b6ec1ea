"""Structure table construction, brackets, Jacobi checks, contraction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from galq import algebra
from galq.errors import LimitDivergenceError, ParseError, ValidationError
from oracles import jacobi_defect_einsum

EPS = [[0, 0, 0], [0, 0, 1], [0, -1, 0]], \
      [[0, 0, -1], [0, 0, 0], [1, 0, 0]], \
      [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]


def spacetime_generator_matrices():
    """5x5 realization on (t, x, 1): rotations in the spatial block, boosts
    in the v column, space translations in the a column.

    This is the independent anchor for every real structure constant: the
    table must reproduce the matrix commutators.
    """
    mats = {}
    for k in range(3):
        m = np.zeros((5, 5))
        m[1:4, 1:4] = np.asarray(EPS[k]).T  # omega block for axis k
        mats[f"J_{k + 1}"] = m
    for k in range(3):
        m = np.zeros((5, 5))
        m[1 + k, 0] = 1.0
        mats[f"X_{k + 1}"] = m
        m = np.zeros((5, 5))
        m[1 + k, 4] = 1.0
        mats[f"P_{k + 1}"] = m
    return mats


def test_rotation_brackets_match_matrix_realization():
    tbl = algebra.g3s_table()
    mats = spacetime_generator_matrices()
    for a in tbl.names:
        for b in tbl.names:
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            expected = np.zeros((5, 5))
            for e, coeff in algebra.bracket(a, b, tbl).items():
                assert coeff.imag == 0
                expected += coeff.real * mats[e]
            np.testing.assert_allclose(comm, expected, atol=1e-14)


def test_bracket_x1_p1_gives_central_generator():
    tbl = algebra.hr3_table()
    assert algebra.bracket("X_1", "P_1", tbl) == {"I": 1j}
    assert algebra.bracket("P_1", "X_1", tbl) == {"I": -1j}
    assert algebra.bracket("X_1", "P_2", tbl) == {}


def test_translations_commute():
    tbl = algebra.hr3_table()
    assert algebra.bracket("X_1", "X_2", tbl) == {}
    assert algebra.bracket("P_1", "P_3", tbl) == {}


def test_j3_x1_has_positive_x2_coefficient():
    # sign convention fixed by the omega-block matrix realization
    tbl = algebra.g3s_table()
    mats = spacetime_generator_matrices()
    comm = mats["J_3"] @ mats["X_1"] - mats["X_1"] @ mats["J_3"]
    np.testing.assert_allclose(comm, mats["X_2"], atol=1e-14)
    assert algebra.bracket("J_3", "X_1", tbl) == {"X_2": 1.0}


def test_central_generator_commutes_with_everything():
    tbl = algebra.hr3_table()
    assert algebra.central_defect(tbl, "I") == 0.0
    for name in tbl.names:
        assert algebra.bracket("I", name, tbl) == {}


def test_jacobi_defect_zero_for_shipped_tables():
    assert algebra.jacobi_defect(algebra.g3s_table()) == 0.0
    assert algebra.jacobi_defect(algebra.hr3_table()) == 0.0


def _broken_g3s():
    # corrupt one bracket: [J_1, J_2] = J_3 -> 2 J_3 breaks Jacobi
    tbl = algebra.g3s_table()
    brackets = {(a, b): algebra.bracket(a, b, tbl)
                for i, a in enumerate(tbl.names) for b in tbl.names[i + 1:]}
    brackets[("J_1", "J_2")] = {"J_3": 2.0}
    return algebra.StructureTable(tbl.names, brackets)


def test_jacobi_defect_detects_broken_table():
    assert algebra.jacobi_defect(_broken_g3s()) > 0.5


@pytest.mark.parametrize("build", [algebra.g3s_table, algebra.hr3_table],
                         ids=["g3s", "hr3"])
def test_jacobi_defect_is_bitwise_the_einsum_form(build):
    # the one matrix product sums the same terms as the einsum form, on the
    # shipped tables, their contractions over 150 decades of k and limits
    tbl = build()
    tables = [tbl, algebra.contraction_limit(tbl)] + [
        algebra.contract(tbl, algebra.ContractionParams(k=k))
        for k in (1.0, 1.3, 2.0, 7.7, 10.0, 1000.0, 3.1e7, 1e150)]
    for t in tables:
        assert algebra.jacobi_defect(t) == jacobi_defect_einsum(t)
    bad = _broken_g3s()
    assert algebra.jacobi_defect(bad) == jacobi_defect_einsum(bad) > 0.5


def test_antisymmetry_violation_rejected():
    with pytest.raises(ValidationError):
        algebra.StructureTable(
            ("X_1", "P_1", "I"),
            {("X_1", "P_1"): {"I": 1j}, ("P_1", "X_1"): {"I": 1j}})


@pytest.mark.parametrize("first, second", [
    ((("X_1", "P_1"), {"I": 0.0}), (("P_1", "X_1"), {"I": 1j})),
    ((("P_1", "X_1"), {"I": 1j}), (("X_1", "P_1"), {"I": 0.0})),
], ids=["zero-first", "zero-second"])
def test_zero_orientation_disagreement_rejected_in_either_order(first, second):
    with pytest.raises(ValidationError, match="antisymmetry broken"):
        algebra.StructureTable(("X_1", "P_1", "I"), dict((first, second)))


def test_zero_term_generator_is_resolved():
    with pytest.raises(ParseError, match="unknown generator 'Q_9'"):
        algebra.loads("generators: X_1 P_1 I\n"
                      "[X_1,P_1] = 0.0*Q_9 + 1.0j*I\n")
    with pytest.raises(ValidationError, match="unknown generator 'Q_9'"):
        algebra.StructureTable(("X_1", "I"), {("X_1", "X_1"): {"Q_9": 0.0}})


def test_generators_are_named_not_numbered():
    with pytest.raises(ValidationError, match="unknown generator 0"):
        algebra.bracket(0, 1, algebra.hr3_table())


def test_self_bracket_must_vanish():
    with pytest.raises(ValidationError):
        algebra.StructureTable(("X_1", "I"), {("X_1", "X_1"): {"I": 1.0}})


def test_generator_name_validation():
    with pytest.raises(ValidationError):
        algebra.StructureTable(("Q_1",), {})
    with pytest.raises(ValidationError):
        algebra.StructureTable(("X_4",), {})
    algebra.StructureTable(("T",), {})  # time translation allowed in the data model


def test_contract_k10_central_coefficient():
    tbl = algebra.hr3_table()
    ct = algebra.contract(tbl, algebra.ContractionParams(k=10.0))
    assert algebra.bracket("X_1", "P_1", ct) == {"I": 0.01j}
    # rotations are untouched
    assert algebra.bracket("J_3", "X_1", ct) == {"X_2": 1.0}


def test_contract_k1_is_identity():
    tbl = algebra.hr3_table()
    assert algebra.contract(tbl, algebra.ContractionParams(k=1.0)) == tbl


@pytest.mark.parametrize("k", [2.0, 10.0, 137.0])
def test_contract_preserves_jacobi(k):
    tbl = algebra.hr3_table()
    ct = algebra.contract(tbl, algebra.ContractionParams(k=k))
    assert algebra.jacobi_defect(ct) <= 1e-12


@pytest.mark.parametrize("k", [2.0, 10.0, 64.0])
def test_unscale_inverts_contract(k):
    tbl = algebra.hr3_table()
    params = algebra.ContractionParams(k=k)
    back = algebra.unscale(algebra.contract(tbl, params), params)
    assert back.names == tbl.names
    assert np.array_equal(back.c != 0, tbl.c != 0)
    assert np.max(np.abs(back.c - tbl.c)) <= 1e-12


def test_contraction_limit_decouples_central_generator():
    tbl = algebra.hr3_table()
    lim = algebra.contraction_limit(tbl)
    for i in "123":
        for j in "123":
            assert algebra.bracket(f"X_{i}", f"P_{j}", lim) == {}
    # J brackets survive unchanged; I is fully decoupled
    assert algebra.bracket("J_1", "X_2", lim) == {"X_3": 1.0}
    assert algebra.central_defect(lim, "I") == 0.0
    assert algebra.jacobi_defect(lim) == 0.0


def test_contraction_limit_with_nothing_scaled_is_identity():
    tbl = algebra.hr3_table()
    assert algebra.contraction_limit(tbl, scaled=()) == tbl


def test_half_scaled_limit_well_defined():
    # scaling only the X generators still has a finite limit
    tbl = algebra.hr3_table()
    scaled = ("X_1", "X_2", "X_3")
    lim = algebra.contraction_limit(tbl, scaled=scaled)
    assert algebra.bracket("X_1", "P_1", lim) == {}
    assert algebra.bracket("J_1", "P_2", lim) == {"P_3": 1.0}
    assert algebra.jacobi_defect(lim) == 0.0


def test_limit_diverges_when_central_generator_scaled():
    tbl = algebra.hr3_table()
    with pytest.raises(LimitDivergenceError):
        algebra.contraction_limit(tbl, scaled=("I",))


def test_contraction_params_validation():
    with pytest.raises(ValidationError):
        algebra.ContractionParams(k=0.5)
    with pytest.raises(ValidationError):
        algebra.ContractionParams(k=-3.0)
    for k in (math.inf, 1e200):  # 1/k**2 is 0, no contraction scale
        with pytest.raises(ValidationError):
            algebra.ContractionParams(k=k)
    assert algebra.ContractionParams(k=10.0).hbar == pytest.approx(0.01,
                                                                  abs=1e-15)


def test_random_rescalings_keep_jacobi():
    rng = np.random.default_rng(42)
    tbl = algebra.hr3_table()
    for k in rng.uniform(1.0, 50.0, size=8):
        ct = algebra.contract(tbl, algebra.ContractionParams(k=float(k)))
        assert algebra.jacobi_defect(ct) <= 1e-12


def test_serialization_roundtrip():
    for tbl in (algebra.g3s_table(), algebra.hr3_table()):
        text = algebra.dumps(tbl, header="shipped table")
        assert algebra.loads(text) == tbl


def test_serialization_format_is_readable():
    text = algebra.dumps(algebra.hr3_table())
    assert "generators: J_1 J_2 J_3 X_1 X_2 X_3 P_1 P_2 P_3 I" in text
    assert "[X_1,P_1] = 1.0j*I" in text


def test_parse_error_reports_line():
    text = "generators: X_1 P_1 I\n[X_1,P_1] = what*I\n"
    with pytest.raises(ParseError) as err:
        algebra.loads(text)
    assert "line 2" in str(err.value)


def test_parse_rejects_bracket_before_generators():
    with pytest.raises(ParseError):
        algebra.loads("[X_1,P_1] = 1j*I\n")


def test_unknown_generator_rejected():
    tbl = algebra.hr3_table()
    with pytest.raises(ValidationError):
        algebra.bracket("X_1", "K_1", tbl)


HR3_ROTATIONS = """\
generators: J_1 J_2 J_3 X_1 X_2 X_3 P_1 P_2 P_3 I
[J_1,J_2] = 1.0*J_3
[J_1,J_3] = -1.0*J_2
[J_1,X_2] = 1.0*X_3
[J_1,X_3] = -1.0*X_2
[J_1,P_2] = 1.0*P_3
[J_1,P_3] = -1.0*P_2
[J_2,J_3] = 1.0*J_1
[J_2,X_1] = -1.0*X_3
[J_2,X_3] = 1.0*X_1
[J_2,P_1] = -1.0*P_3
[J_2,P_3] = 1.0*P_1
[J_3,X_1] = 1.0*X_2
[J_3,X_2] = -1.0*X_1
[J_3,P_1] = 1.0*P_2
[J_3,P_2] = -1.0*P_1
"""


@pytest.mark.parametrize("k, coeff", [(2.0, "0.25j"), (10.0, "0.01j"),
                                      (1000.0, "1e-06j"), (None, None)])
def test_dumps_text_of_contracted_hr3(k, coeff):
    tbl = algebra.hr3_table()
    if k is None:  # the contraction limit: the X-P brackets drop out
        text, want = algebra.dumps(algebra.contraction_limit(tbl)), ""
    else:
        text = algebra.dumps(algebra.contract(tbl, algebra.ContractionParams(k=k)))
        want = "".join(f"[X_{i},P_{i}] = {coeff}*I\n" for i in (1, 2, 3))
    assert text == HR3_ROTATIONS + want


@pytest.mark.parametrize("coeff", [math.nan, math.inf, complex(1, -math.inf)])
def test_nonfinite_coefficient_rejected(coeff):
    with pytest.raises(ValidationError, match="is not finite"):
        algebra.StructureTable(("X_1", "P_1", "I"),
                               {("X_1", "P_1"): {"I": coeff}})


@pytest.mark.parametrize("coeff", ["nan", "inf", "-inf", "(1+infj)"])
def test_parse_rejects_nonfinite_coefficient(coeff):
    text = f"generators: X_1 P_1 I\n[X_1,P_1] = {coeff}*I\n"
    with pytest.raises(ParseError, match="line 2: non-finite coefficient"):
        algebra.loads(text)


NAMES = ("J_1", "J_2", "J_3", "X_1", "X_2", "X_3", "P_1", "P_2", "P_3", "I")
# nonzero, with |y| in [1e-300, 1e301): k**2 <= 1e6 neither overflows nor
# underflows them
REALS = st.builds(lambda sign, mantissa, exp10: sign * mantissa * 10.0**exp10,
                  st.sampled_from([-1.0, 1.0]), st.floats(1.0, 9.99),
                  st.integers(-300, 300))
COEFFS = st.one_of(REALS.map(complex), REALS.map(lambda y: complex(0.0, y)),
                   st.builds(complex, REALS, REALS))


@st.composite
def tables(draw):
    """Random antisymmetric tables on a subset of the generator names."""
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    brackets = {}
    if pairs:
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)):
            terms = draw(st.dictionaries(st.sampled_from(names), COEFFS,
                                         min_size=1, max_size=3))
            if draw(st.booleans()):  # either orientation of the pair
                a, b, terms = b, a, {e: -v for e, v in terms.items()}
            brackets[(a, b)] = terms
    return algebra.StructureTable(names, brackets)


EXTREME = algebra.StructureTable(
    ("X_1", "P_1", "I"),
    {("X_1", "P_1"): {"I": 1e300j, "X_1": -1e-300},
     ("P_1", "I"): {"P_1": complex(1e-300, 1e300)}})


@given(tables())
@example(EXTREME)
def test_dumps_loads_roundtrip(tbl):
    assert algebra.loads(algebra.dumps(tbl)) == tbl


@given(tables(), st.floats(1.0, 1e3))
@example(EXTREME, 1e3)
def test_unscale_recovers_constants(tbl, k):
    params = algebra.ContractionParams(k=k)
    back = algebra.unscale(algebra.contract(tbl, params), params)
    assert np.array_equal(back.c != 0, tbl.c != 0)
    scale = np.max(np.abs(tbl.c), initial=0.0)
    assert np.max(np.abs(back.c - tbl.c), initial=0.0) <= 1e-12 * scale


def python_rescaled(tbl, params, direction):
    """Per-bracket reference for contract/unscale in Python complex
    arithmetic: coeff * k**m for m >= 0 and coeff / k**-m for m < 0."""
    scaled = params.scaled or algebra.default_scaled_set(tbl)
    n = [int(name in scaled) for name in tbl.names]
    want = np.zeros_like(tbl.c)
    for a, b, e in np.argwhere(tbl.c != 0):
        if a < b:
            coeff, k = complex(tbl.c[a, b, e]), params.k
            m = direction * (n[e] - n[a] - n[b])
            new = coeff * k**m if m >= 0 else coeff / k**-m
            want[a, b, e], want[b, a, e] = new, -new
    return want


def bits(z):
    return z.view(np.int64).reshape(z.shape + (2,))


@given(tables(), st.floats(1.0, 1e3),
       st.lists(st.sampled_from(NAMES), unique=True))
@example(EXTREME, 137.0, [])
@example(EXTREME, 3.0, ["I"])
def test_rescaling_is_bitwise_the_per_bracket_arithmetic(tbl, k, scaled):
    params = algebra.ContractionParams(
        k=k, scaled=[name for name in scaled if name in tbl.names])
    for op, direction in ((algebra.contract, 1), (algebra.unscale, -1)):
        got, want = op(tbl, params).c, python_rescaled(tbl, params, direction)
        assert np.array_equal(got, want)
        # same bits, down to the sign of a zero real or imaginary part
        nonzero = want != 0
        assert np.array_equal(bits(got)[nonzero], bits(want)[nonzero])
