"""Structure table construction, brackets, Jacobi checks, contraction."""

import numpy as np
import pytest

from galq import algebra
from galq.errors import LimitDivergenceError, ParseError, ValidationError

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


def test_jacobi_defect_detects_broken_table():
    # corrupt one bracket: [J_1, J_2] = J_3 -> 2 J_3 breaks Jacobi
    tbl = algebra.g3s_table()
    brackets = {(tbl.names[a], tbl.names[b]):
                {tbl.names[e]: v for e, v in terms.items()}
                for (a, b), terms in tbl.items()}
    brackets[("J_1", "J_2")] = {"J_3": 2.0}
    bad = algebra.StructureTable(tbl.names, brackets)
    assert algebra.jacobi_defect(bad) > 0.5


def test_antisymmetry_violation_rejected():
    with pytest.raises(ValidationError):
        algebra.StructureTable(
            ("X_1", "P_1", "I"),
            {("X_1", "P_1"): {"I": 1j}, ("P_1", "X_1"): {"I": 1j}})


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
    for (a, b), terms in tbl.items():
        round_tripped = back.bracket_indices(a, b)
        assert set(round_tripped) == set(terms)
        for e, coeff in terms.items():
            assert abs(round_tripped[e] - coeff) <= 1e-12


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
    params = algebra.ContractionParams.from_hbar(0.01)
    assert params.k == pytest.approx(10.0)
    assert params.hbar == pytest.approx(0.01, abs=1e-15)


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
