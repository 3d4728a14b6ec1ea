"""Displacement operators, overlap kernels, overcompleteness."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.special import gammaincinv, gammaln

from galq import coherent, contraction, fock
from galq.errors import PrecisionError, ValidationError
import oracles
from oracles import basis_state, expi_hermitian, label_sum, variance


def fock_overlap(l1, l2, n_levels):
    """Brute-force <0|U(l1)^dag U(l2)|0> on the truncated space."""
    s1 = coherent.coherent_state(l1, n_levels)
    s2 = coherent.coherent_state(l2, n_levels)
    return complex(np.vdot(s1.amplitudes, s2.amplitudes))


def test_displacement_central_phase_only():
    u = coherent.displacement(coherent.CoherentLabel(0.0, 0.0, 0.9), 24)
    np.testing.assert_allclose(u.matrix, np.exp(0.9j) * np.eye(24), atol=1e-12)


def test_displacement_inverse_pair():
    lab = coherent.CoherentLabel(1.3, -0.7)
    inv = coherent.CoherentLabel(-1.3, 0.7)
    n_levels = 96
    u = coherent.displacement(lab, n_levels)
    v = coherent.displacement(inv, n_levels)
    prod = u.matrix @ v.matrix
    np.testing.assert_allclose(prod[:, :32], np.eye(n_levels)[:, :32],
                               atol=1e-10)


@pytest.mark.parametrize("p,x", [(3.0, 0.0), (0.0, -3.0), (2.0, 2.5)])
def test_displacement_unitary(p, x):
    n_levels = 128
    u = coherent.displacement(coherent.CoherentLabel(p, x), n_levels).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(n_levels))) <= 1e-10


def test_ordered_product_equals_single_exponential():
    # e^{i x p / 2} e^{i theta} e^{-i x P} e^{i p X} == e^{i(pX - xP + theta I)}
    # checked on the low-lying columns, away from the truncation corner
    n_levels = 96
    x_op, p_op = fock.build_xp(n_levels, 1.0)
    rng = np.random.default_rng(21)
    for _ in range(5):
        p, x = rng.uniform(-2.0, 2.0, size=2)
        theta = rng.uniform(-math.pi, math.pi)
        lab = coherent.CoherentLabel(p, x, theta)
        single = coherent.displacement(lab, n_levels).matrix
        ordered = (np.exp(1j * x * p / 2.0) * np.exp(1j * theta)
                   * expi_hermitian(p_op.matrix, -x)
                   @ expi_hermitian(x_op.matrix, p))
        assert np.max(np.abs((single - ordered)[:, :16])) <= 1e-10


@st.composite
def guarded_labels(draw):
    """(n_levels, p, x, theta) with N in 2..160, the label anywhere in the
    phase plane inside the tail guard at that N."""
    n = draw(st.integers(2, 160))
    mu = draw(st.floats(0.0, 0.99)) * gammaincinv(n, 1e-12)
    angle = draw(st.floats(-math.pi, math.pi))
    r = math.sqrt(2.0 * mu)  # |alpha|^2 = (p^2 + x^2)/2
    return n, r * math.cos(angle), r * math.sin(angle), \
        draw(st.floats(-2.0 * math.pi, 2.0 * math.pi))


@given(guarded_labels())
@example((64, 0.0, 0.0, 0.0))
@example((64, 0.0, 0.0, 1.3))
@example((64, 2.5, 0.0, 0.0))
@example((64, -2.5, 0.0, 0.0))
@example((64, 0.0, 2.5, 0.0))
@example((64, 0.0, -2.5, 0.0))
@example((2, 1e-3, -5e-4, 0.7))
def test_rotated_position_basis_matches_generator_exponential(case):
    n_levels, p, x, theta = case
    lab = coherent.CoherentLabel(p, x, theta)
    x_op, p_op = fock.build_xp(n_levels, 1.0)
    ref = expi_hermitian(p * x_op.matrix - x * p_op.matrix
                         + theta * np.eye(n_levels))
    u = coherent.displacement(lab, n_levels).matrix
    state = coherent.coherent_state(lab, n_levels).amplitudes
    assert np.max(np.abs(u - ref)) <= 1e-12
    assert np.max(np.abs(state - ref[:, 0])) <= 1e-12
    assert coherent.coherent_state(lab, n_levels).amplitudes.tobytes() \
        == state.tobytes()
    assert coherent.displacement(lab, n_levels).matrix.tobytes() == u.tobytes()


def test_coherent_state_argument_checks():
    lab = coherent.CoherentLabel(0.5, -0.5)
    for n_levels in (0, 1):
        with pytest.raises(ValidationError, match="at least 2 levels"):
            coherent.coherent_state(lab, n_levels)
    two_axis = coherent.CoherentLabel([0.0, 0.0], [0.0, 0.0], d=2)
    with pytest.raises(ValidationError, match="per axis"):
        coherent.coherent_state(two_axis, 32)


@pytest.mark.parametrize("build", [
    lambda lab: coherent.displacement(lab, 32),
    lambda lab: coherent.coherent_state(lab, 32),
    lambda lab: coherent.coherent_amplitudes(lab, 32),
    lambda lab: contraction.fock_overlap_series(lab, lab, 0.5, 32),
], ids=["displacement", "coherent_state", "coherent_amplitudes",
        "fock_overlap_series"])
def test_fock_constructions_share_one_per_axis_rule(build):
    two_axis = coherent.CoherentLabel([0.1, 0.0], [0.0, 0.2], d=2)
    with pytest.raises(ValidationError) as err:
        build(two_axis)
    assert str(err.value) == ("Fock states and operators are built per "
                              "axis (d=1), got d=2")


@pytest.mark.parametrize("kernel", [coherent.overlap_analytic,
                                    coherent.matrix_element_xp],
                         ids=["overlap", "matrix-element"])
@pytest.mark.parametrize("hbar", [0.0, -1.0, math.inf, math.nan])
def test_kernels_refuse_an_hbar_that_is_not_positive(kernel, hbar):
    lab = coherent.CoherentLabel(0.5, -0.25)
    with pytest.raises(ValidationError, match="hbar must be positive"):
        kernel(lab, lab, hbar)


@pytest.mark.parametrize("bad", [100.0, math.nan], ids=["100", "nan"])
def test_coherent_label_keeps_no_caller_array(bad):
    # writing the caller's array after construction once left the overlap
    # kernel on the old p while alpha and coherent_state read the new one
    p, x = np.array([0.5]), np.array([-0.25])
    lab = coherent.CoherentLabel(p, x)
    other = coherent.CoherentLabel(0.0, 0.75)
    before = (coherent.overlap_analytic(lab, other), lab.alpha.copy(),
              coherent.coherent_state(lab, 32).amplitudes)
    p[0] = x[0] = bad
    assert coherent.overlap_analytic(lab, other) == before[0]
    np.testing.assert_array_equal(lab.alpha, before[1])
    np.testing.assert_array_equal(coherent.coherent_state(lab, 32).amplitudes,
                                  before[2])
    np.testing.assert_array_equal(lab.p, [0.5])
    with pytest.raises(ValueError):
        lab.x[0] = 1.0


def test_coherent_state_at_origin_is_vacuum():
    s = coherent.coherent_state(coherent.CoherentLabel(0.0, 0.0), 32)
    np.testing.assert_allclose(s.amplitudes, basis_state(32, 0).amplitudes,
                               atol=1e-14)


def test_labels_are_expectation_values():
    n_levels = 128
    x_op, p_op = fock.build_xp(n_levels, 1.0)
    for p, x in [(0.5, 1.0), (-1.5, 0.25), (2.0, -2.0)]:
        s = coherent.coherent_state(coherent.CoherentLabel(p, x), n_levels)
        v = s.amplitudes
        assert np.vdot(v, x_op.matrix @ v).real == pytest.approx(x, abs=1e-8)
        assert np.vdot(v, p_op.matrix @ v).real == pytest.approx(p, abs=1e-8)


@pytest.mark.parametrize("n_levels", [1, 2, 3, 16, 17, 129, 4501])
def test_log_factorials_match_gammaln(n_levels):
    table = coherent._log_factorials(n_levels)
    ref = gammaln(np.arange(n_levels) + 1.0)
    assert table.shape == (n_levels,)
    assert np.max(np.abs(table - ref) / np.maximum(ref, 1.0)) <= 4 * 2.0**-52
    with pytest.raises(ValueError):
        table[0] = 1.0


def test_coherent_amplitudes_match_displaced_vacuum():
    n_levels = 96
    lab = coherent.CoherentLabel(0.8, -1.1, 0.4)
    numeric = coherent.coherent_state(lab, n_levels).amplitudes
    closed = coherent.coherent_amplitudes(lab, n_levels).amplitudes
    # equal up to a global phase (the closed form fixes it differently)
    phase = numeric[0] / closed[0]
    assert abs(abs(phase) - 1.0) <= 1e-12
    np.testing.assert_allclose(numeric, phase * closed, atol=1e-12)


def test_coherent_state_tail_guard():
    with pytest.raises(PrecisionError) as err:
        coherent.coherent_state(coherent.CoherentLabel(5.0, 5.0), 24)
    assert str(err.value) == (
        "Fock cutoff 24 keeps tail mass ~6.061e-01 above the tail tolerance "
        "1.0e-12 for |alpha|^2=25.000")


@pytest.mark.filterwarnings("error")
def test_coherent_state_tail_guard_far_out():
    # |alpha|^2 = 1e400 leaves the float range: inf, and no numpy warning
    lab = coherent.CoherentLabel(1e200, 1e200)
    assert lab.occupation == math.inf
    assert coherent.CoherentLabel(3.0, 4.0).occupation == pytest.approx(12.5)
    with pytest.raises(PrecisionError, match=r"\|alpha\|\^2=inf$"):
        coherent.coherent_state(lab, 24)


def test_normalization_within_guard():
    s = coherent.coherent_state(coherent.CoherentLabel(1.5, -0.5), 64)
    assert abs(s.norm - 1.0) <= 1e-10


def test_self_overlap_is_one():
    lab = coherent.CoherentLabel(1.7, -2.3, 0.6)
    assert coherent.overlap_analytic(lab, lab, 1.0) == pytest.approx(1.0)
    assert coherent.overlap_analytic(lab, lab, 0.05) == pytest.approx(1.0)


def test_overlap_unit_separation_magnitude():
    # |x' - x| = 2 sqrt(hbar), same p: magnitude e^{-1}
    for hbar in (1.0, 0.25):
        l1 = coherent.CoherentLabel(0.0, 0.0)
        l2 = coherent.CoherentLabel(0.0, 2.0 * math.sqrt(hbar))
        ov = coherent.overlap_analytic(l1, l2, hbar)
        assert abs(ov) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_overlap_analytic_matches_fock_inner_product():
    n_levels = 128
    pts = np.linspace(-2.0, 2.0, 9)
    states = {}
    for p in pts:
        for x in pts:
            lab = coherent.CoherentLabel(p, x)
            states[(p, x)] = coherent.coherent_state(lab, n_levels).amplitudes
    worst = 0.0
    rng = np.random.default_rng(3)
    keys = list(states)
    for _ in range(200):
        k1, k2 = (keys[i] for i in rng.integers(0, len(keys), 2))
        num = complex(np.vdot(states[k1], states[k2]))
        ana = coherent.overlap_analytic(
            coherent.CoherentLabel(*k1), coherent.CoherentLabel(*k2), 1.0)
        worst = max(worst, abs(num - ana))
    assert worst <= 1e-8


def test_overlap_includes_theta_phases():
    l1 = coherent.CoherentLabel(0.3, 0.4, 0.5)
    l2 = coherent.CoherentLabel(-0.2, 1.0, -1.1)
    num = fock_overlap(l1, l2, 96)
    ana = coherent.overlap_analytic(l1, l2, 1.0)
    assert abs(num - ana) <= 1e-10


def test_overlap_factorizes_over_axes():
    l1 = coherent.CoherentLabel([0.5, -0.3], [1.0, 0.2], d=2)
    l2 = coherent.CoherentLabel([0.1, 0.7], [-0.4, 0.9], d=2)
    ov2 = coherent.overlap_analytic(l1, l2, 0.7)
    per_axis = 1.0
    for axis in range(2):
        a = coherent.CoherentLabel(l1.p[axis], l1.x[axis])
        b = coherent.CoherentLabel(l2.p[axis], l2.x[axis])
        per_axis *= coherent.overlap_analytic(a, b, 0.7)
    assert ov2 == pytest.approx(per_axis, rel=1e-12)


def test_overlap_validation():
    lab = coherent.CoherentLabel(0.0, 0.0)
    with pytest.raises(ValidationError):
        coherent.overlap_analytic(lab, lab, 0.0)
    with pytest.raises(ValidationError):
        coherent.overlap_analytic(lab, lab, -1.0)
    two_axis = coherent.CoherentLabel([0.0, 0.0], [0.0, 0.0], d=2)
    with pytest.raises(ValidationError):
        coherent.overlap_analytic(lab, two_axis, 1.0)


DYADIC = st.integers(-64, 64).map(lambda k: k / 32.0)


@st.composite
def label_pairs(draw):
    """Two d-axis labels (d = 1, 2, 3) and hbar, all dyadic."""
    d = draw(st.integers(1, 3))
    axis = st.lists(DYADIC, min_size=d, max_size=d)
    l1, l2 = (coherent.CoherentLabel(draw(axis), draw(axis), draw(DYADIC), d)
              for _ in range(2))
    return l1, l2, draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))


@given(label_pairs())
def test_kernels_match_the_closed_form(pair):
    # dyadic labels and hbar make every sum and product in the exponents
    # exact, so the bound compares the closed form, not a summation order
    l1, l2, hbar = pair
    x1, p1, x2, p2 = l1.x, l1.p, l2.x, l2.p
    ov = (np.exp(1j * (x1 @ p2 - p1 @ x2) / (2.0 * hbar))
          * np.exp(-(np.sum((x1 - x2) ** 2) + np.sum((p1 - p2) ** 2))
                   / (4.0 * hbar))
          * np.exp(1j * (l2.theta - l1.theta)))
    got = coherent.overlap_analytic(l1, l2, hbar)
    assert type(got) is complex
    assert abs(got - ov) <= 1e-15 * abs(ov)
    mx, mp = coherent.matrix_element_xp(l1, l2, hbar)
    if l1.d == 1:
        assert type(mx) is complex and type(mp) is complex
    np.testing.assert_allclose(np.atleast_1d(mx),
                               ((x1 + x2) - 1j * (p1 - p2)) / 2.0 * ov,
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(np.atleast_1d(mp),
                               ((p1 + p2) + 1j * (x1 - x2)) / 2.0 * ov,
                               rtol=1e-15, atol=0)


def test_matrix_elements_diagonal_are_labels():
    lab = coherent.CoherentLabel(0.75, -1.25)
    mx, mp = coherent.matrix_element_xp(lab, lab, 0.3)
    assert mx == pytest.approx(-1.25)
    assert mp == pytest.approx(0.75)
    mx0, mp0 = coherent.matrix_element_xp(coherent.CoherentLabel(0.0, 0.0),
                                          coherent.CoherentLabel(0.0, 0.0), 1.0)
    assert mx0 == 0.0 and mp0 == 0.0


def test_matrix_elements_match_brute_force():
    n_levels = 128
    x_op, p_op = fock.build_xp(n_levels, 1.0)
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        p1, x1, p2, x2 = rng.uniform(-2.0, 2.0, 4)
        l1 = coherent.CoherentLabel(p1, x1)
        l2 = coherent.CoherentLabel(p2, x2)
        s1 = coherent.coherent_state(l1, n_levels).amplitudes
        s2 = coherent.coherent_state(l2, n_levels).amplitudes
        bx = complex(np.vdot(s1, x_op.matrix @ s2))
        bp = complex(np.vdot(s1, p_op.matrix @ s2))
        mx, mp = coherent.matrix_element_xp(l1, l2, 1.0)
        worst = max(worst, abs(mx - bx), abs(mp - bp))
    assert worst <= 1e-8


@pytest.mark.parametrize("d", [1, 3])
def test_matrix_element_xp_is_bitwise_the_numpy_form(d):
    # 5000 pairs per d, 1250 per hbar; l2 sits O(sqrt(hbar)) from l1, so
    # the overlap factor is O(1) and every product is a nontrivial one
    rng = np.random.default_rng(40 + d)
    got, want = [], []
    for hbar in (1e-3, 0.1, 1.0, 7.5):
        for _ in range(1250):
            p1, x1 = rng.uniform(-5.0, 5.0, (2, d))
            p2, x2 = (p1, x1) + math.sqrt(hbar) * rng.normal(size=(2, d))
            l1 = coherent.CoherentLabel(p1, x1, rng.uniform(-3.0, 3.0), d)
            l2 = coherent.CoherentLabel(p2, x2, rng.uniform(-3.0, 3.0), d)
            got.append(np.ravel(coherent.matrix_element_xp(l1, l2, hbar)))
            want.append(np.ravel(oracles.matrix_element_xp(l1, l2, hbar)))
    got, want = np.array(got), np.array(want)
    assert got.shape == (5000, 2 * d)
    assert np.count_nonzero(got) == got.size
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))



def test_matrix_element_xp_swapped_pair_is_the_conjugate():
    # <l2|X|l1> == conj <l1|X|l2>, and the same for P, component by
    # component on random d = 1 pairs, so |<l2|X|l1>| is |<l1|X|l2>| bit for
    # bit: galq.contraction reads every off-diagonal magnitude of a label
    # set's tables from the pairs i < j alone
    rng = np.random.default_rng(2701)
    origin = coherent.CoherentLabel(0.0, 0.0)
    fwd, back = [], []
    for k in range(4000):
        hbar = 10.0 ** rng.uniform(-3.0, 0.0)
        p1, x1 = rng.uniform(-2.0, 2.0, 2)
        p2, x2 = (p1, x1) + math.sqrt(hbar) * rng.normal(size=2)
        l1 = origin if k % 4 == 0 else coherent.CoherentLabel(p1, x1)
        l2 = origin if k % 4 == 1 else coherent.CoherentLabel(p2, x2)
        fwd.append(coherent.matrix_element_xp(l1, l2, hbar))
        back.append(coherent.matrix_element_xp(l2, l1, hbar))
    fwd, back = np.array(fwd), np.array(back)
    assert np.count_nonzero(fwd) > 0.9 * fwd.size
    assert np.all(back == fwd.conj())
    np.testing.assert_array_equal(np.abs(back).view(np.uint64),
                                  np.abs(fwd).view(np.uint64))


def _labels(d):
    coords = st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d)
    return st.builds(lambda p, x, theta: coherent.CoherentLabel(p, x, theta, d),
                     coords, coords, st.floats(-math.pi, math.pi))


@given(st.sampled_from([1, 2]).flatmap(lambda d: st.tuples(_labels(d),
                                                            _labels(d))),
       st.floats(0.05, 5.0))
def test_kernels_are_hermitian(pair, hbar):
    l1, l2 = pair
    ov12 = coherent.overlap_analytic(l1, l2, hbar)
    assert abs(ov12 - coherent.overlap_analytic(l2, l1, hbar).conjugate()) \
        <= 1e-15
    for m12, m21 in zip(coherent.matrix_element_xp(l1, l2, hbar),
                        coherent.matrix_element_xp(l2, l1, hbar)):
        assert np.max(np.abs(m12 - np.conj(m21))) <= 1e-14


@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                          st.floats(-math.pi, math.pi)),
                min_size=2, max_size=4))
def test_numeric_kernels_are_hermitian(coords):
    n_levels = 128
    x_op, p_op = fock.build_xp(n_levels, 1.0)
    labels = [coherent.CoherentLabel(*c) for c in coords]
    states = np.stack([coherent.coherent_state(lab, n_levels).amplitudes
                       for lab in labels])
    numeric = [states.conj() @ op @ states.T
               for op in (np.eye(n_levels), x_op.matrix, p_op.matrix)]
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            # <li|A|lj> against conj<lj|A|li> from the closed forms
            swapped = (coherent.overlap_analytic(lj, li, 1.0),
                       *coherent.matrix_element_xp(lj, li, 1.0))
            for num, ana in zip(numeric, swapped):
                assert abs(num[i, j] - np.conj(num[j, i])) <= 1e-10
                assert abs(num[i, j] - np.conj(ana)) <= 1e-10


def test_weyl_composition_phase():
    n_levels = 128
    rng = np.random.default_rng(17)
    for _ in range(5):
        p1, x1, p2, x2 = rng.uniform(-1.5, 1.5, 4)
        l1 = coherent.CoherentLabel(p1, x1)
        l2 = coherent.CoherentLabel(p2, x2)
        u12 = coherent.displacement(l1, n_levels).matrix \
            @ coherent.displacement(l2, n_levels).matrix
        phi = coherent.weyl_phase(l1, l2)
        assert phi == pytest.approx(0.5 * (p1 * x2 - x1 * p2), abs=1e-15)
        combined = np.exp(1j * phi) * coherent.displacement(
            label_sum(l1, l2), n_levels).matrix
        assert np.max(np.abs((u12 - combined)[:, :16])) <= 1e-8
    # pure translations: no cocycle phase, and e^{-i x P} composes
    # additively on every column, since both factors use the same P
    for x1, t1, x2, t2 in ((0.35, 0.2, 0.15, 0.3), (1.2, -0.7, -2.0, 2.5)):
        l1 = coherent.CoherentLabel(0.0, x1, t1)
        l2 = coherent.CoherentLabel(0.0, x2, t2)
        assert coherent.weyl_phase(l1, l2) == 0.0
        u12 = coherent.displacement(l1, n_levels).matrix \
            @ coherent.displacement(l2, n_levels).matrix
        combined = coherent.displacement(
            coherent.CoherentLabel(0.0, x1 + x2, t1 + t2), n_levels).matrix
        assert np.max(np.abs(u12 - combined)) <= 1e-12


def test_coherent_state_minimum_uncertainty():
    n_levels = 128
    x_op, p_op = fock.build_xp(n_levels, 1.0)
    s = coherent.coherent_state(coherent.CoherentLabel(1.0, 2.0), n_levels)
    product = variance(x_op, s) * variance(p_op, s)
    assert product == pytest.approx(0.25, abs=1e-8)


# --- overcompleteness ------------------------------------------------------

def test_overcompleteness_residual_values():
    # at R = 6 the level-15 integrand (peaked at |alpha|^2 ~ 30) spills
    # outside the label box, so the deficit is a few percent; R = 9 covers
    # it and the residual drops below 1e-3 (values frozen from this sum and
    # cross-checked against scipy.integrate.dblquad of the box integral)
    res6 = coherent.overcompleteness_residual(64, 6.0, 0.25, n_check=16)
    assert res6.residual == pytest.approx(0.0955, abs=0.002)
    res9 = coherent.overcompleteness_residual(64, 9.0, 0.25, n_check=16)
    assert res9.residual <= 1e-3
    assert res9.warning is None


def test_overcompleteness_improves_with_radius():
    residuals = [coherent.overcompleteness_residual(64, r, 0.25, n_check=8).residual
                 for r in (4.0, 5.0, 6.0, 8.0)]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_overcompleteness_improves_with_step_until_saturation():
    # coarse grids are quadrature-limited; refining the mesh helps there
    coarse = coherent.overcompleteness_residual(64, 8.0, 1.6, n_check=8)
    finer = coherent.overcompleteness_residual(64, 8.0, 0.8, n_check=8)
    finest = coherent.overcompleteness_residual(64, 8.0, 0.4, n_check=8)
    assert coarse.residual > finer.residual > finest.residual


def test_overcompleteness_vacuum_projector_element():
    # S_00 -> 1 as the domain grows
    vals = [coherent.overcompleteness_residual(16, r, 0.25, n_check=1)
            .s_block[0, 0].real for r in (2.0, 4.0, 6.0)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] == pytest.approx(1.0, abs=1e-6)


def test_overcompleteness_empty_domain_limit():
    res = coherent.overcompleteness_residual(16, 0.25, 0.25, n_check=4)
    assert res.residual > 0.99


def test_overcompleteness_warns_on_coarse_grid():
    res = coherent.overcompleteness_residual(16, 4.0, 1.5, n_check=4)
    assert res.warning is not None and "coarse" in res.warning


def test_overcompleteness_grid_is_refused_over_the_byte_limit(monkeypatch):
    # radius 2, step 0.5: 81 labels, 48 * (4 + 1) * 81 = 19440 bytes
    monkeypatch.setattr(coherent, "RESIDUAL_BYTES", 19440)
    coherent.overcompleteness_residual(16, 2.0, 0.5, n_check=4)
    with pytest.raises(ValidationError,
                       match="needs ~2.17e-05 GiB on 5 levels"):
        coherent.overcompleteness_residual(16, 2.0, 0.5, n_check=5)


def test_overcompleteness_validation():
    with pytest.raises(ValidationError):
        coherent.overcompleteness_residual(16, -1.0, 0.25)
    with pytest.raises(ValidationError):
        coherent.overcompleteness_residual(16, 1.0, 0.25, n_check=17)

