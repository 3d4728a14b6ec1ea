"""Finite and infinitesimal coset actions, group law, contraction limit."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from galq import coherent, coset
from galq.algebra import ContractionParams
from galq.errors import ValidationError
import oracles

K1 = ContractionParams(k=1.0)  # the uncontracted action


def random_element(rng, scale=10.0):
    rot = expm(coset.omega_from_vector(rng.uniform(-math.pi, math.pi, 3)))
    return coset.GalileiElement(
        B=rng.uniform(-scale, scale),
        V=rng.uniform(-scale, scale, 3),
        R=rot,
        A=rng.uniform(-scale, scale, 3))


def random_point(rng, scale=10.0):
    return coset.SpaceTime(rng.uniform(-scale, scale),
                           rng.uniform(-scale, scale, 3))


def as_tuple(pt):
    return np.concatenate(([pt.t], pt.x))


def test_identity_action():
    pt = coset.SpaceTime(1.5, (0.3, -2.0, 7.0))
    out = coset.apply_galilei(coset.GalileiElement(), pt)
    np.testing.assert_array_equal(as_tuple(out), as_tuple(pt))


def test_finite_action_hand_example():
    g = coset.GalileiElement(B=1.0, V=(1.0, 0.0, 0.0), A=(0.0, 0.0, 2.0))
    out = coset.apply_galilei(g, coset.SpaceTime(2.0, (0.0, 0.0, 0.0)))
    assert out.t == pytest.approx(3.0)
    np.testing.assert_allclose(out.x, [2.0, 0.0, 2.0], atol=1e-15)


def test_group_action_property_randomized():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        g1, g2 = random_element(rng), random_element(rng)
        pt = random_point(rng)
        lhs = coset.apply_galilei(g1, coset.apply_galilei(g2, pt))
        rhs = coset.apply_galilei(coset.compose(g1, g2), pt)
        worst = max(worst, np.max(np.abs(as_tuple(lhs) - as_tuple(rhs))))
    assert worst <= 1e-12


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g1, g2 = random_element(rng), random_element(rng)
        prod = g1.as_matrix() @ g2.as_matrix()
        np.testing.assert_allclose(coset.compose(g1, g2).as_matrix(), prod,
                                   atol=1e-12)


def test_compose_identity_and_translations():
    rng = np.random.default_rng(6)
    g = random_element(rng)
    ident = coset.GalileiElement()
    np.testing.assert_allclose(coset.compose(g, ident).as_matrix(),
                               g.as_matrix(), atol=0)
    t1 = coset.GalileiElement(A=(1.0, 2.0, 3.0))
    t2 = coset.GalileiElement(A=(-0.5, 0.25, 4.0))
    both = coset.compose(t1, t2)
    np.testing.assert_allclose(both.A, [0.5, 2.25, 7.0], atol=1e-15)
    assert both.B == 0.0


def test_boost_then_time_shift_couples_into_translation():
    boost = coset.GalileiElement(V=(2.0, 0.0, 0.0))
    shift = coset.GalileiElement(B=3.0)
    combined = coset.compose(boost, shift)
    np.testing.assert_allclose(combined.A, [6.0, 0.0, 0.0], atol=1e-15)
    assert combined.B == pytest.approx(3.0)


def test_associativity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        g1, g2, g3 = (random_element(rng) for _ in range(3))
        left = coset.compose(coset.compose(g1, g2), g3)
        right = coset.compose(g1, coset.compose(g2, g3))
        assert np.max(np.abs(left.as_matrix() - right.as_matrix())) <= 1e-12


COORD = st.floats(-10.0, 10.0)
VEC3 = st.tuples(COORD, COORD, COORD)
ANGLES = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)
ELEMENTS = st.builds(
    lambda b, v, w, a: coset.GalileiElement(
        B=b, V=v, R=expm(coset.omega_from_vector(w)), A=a),
    COORD, VEC3, ANGLES, VEC3)


@given(ELEMENTS, ELEMENTS, COORD, VEC3)
def test_group_law_property(g1, g2, t, x):
    pt = coset.SpaceTime(t, x)
    lhs = coset.apply_galilei(g1, coset.apply_galilei(g2, pt))
    rhs = coset.apply_galilei(coset.compose(g1, g2), pt)
    assert np.max(np.abs(as_tuple(lhs) - as_tuple(rhs))) <= 1e-12


@given(ELEMENTS, ELEMENTS, ELEMENTS)
def test_compose_associative_property(g1, g2, g3):
    left = coset.compose(coset.compose(g1, g2), g3)
    right = coset.compose(g1, coset.compose(g2, g3))
    assert np.max(np.abs(left.as_matrix() - right.as_matrix())) <= 1e-12


@given(ELEMENTS, COORD, VEC3)
def test_apply_galilei_is_the_affine_matrix_action(g, t, x):
    out = coset.apply_galilei(g, coset.SpaceTime(t, x))
    want = g.as_matrix() @ np.array([t, *x, 1.0])
    np.testing.assert_allclose(as_tuple(out), want[:4], rtol=0, atol=1e-12)


def test_float_group_law_matches_the_affine_matrix_product():
    # entries up to ~130: the measured worst gap, 2.8e-14 against both the
    # 5x5 matrix products and the numpy forms, is one ulp at 64..128
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(2000):
        g1, g2 = random_element(rng), random_element(rng)
        pt = random_point(rng)
        moved = as_tuple(coset.apply_galilei(g1, pt))
        product = coset.compose(g1, g2).as_matrix()
        col = np.array([pt.t, *pt.x, 1.0])
        for out, ref in (
                (moved, (g1.as_matrix() @ col)[:4]),
                (moved, as_tuple(oracles.apply_galilei(g1, pt))),
                (product, g1.as_matrix() @ g2.as_matrix()),
                (product, oracles.compose(g1, g2).as_matrix())):
            worst = max(worst, float(np.max(np.abs(out - ref))))
    assert worst <= 6e-14


def test_compose_checks_the_product_rotation():
    # each factor's R^T R - I is 9.0e-10, within ORTHO_TOL; the product's is
    # 1.8e-9, so composing must still refuse it
    g = coset.GalileiElement(R=np.diag([1.0 + 0.45e-9, 1.0, 1.0]))
    with pytest.raises(ValidationError) as err:
        coset.compose(g, g)
    assert str(err.value) == "R is not orthogonal within 1e-9"


@pytest.mark.parametrize("a, message", [
    (np.diag([0.0, np.inf]), "expm: matrix has non-finite entries"),
    (np.diag([np.nan, 0.0]), "expm: matrix has non-finite entries"),
    (np.array([[0.0, 1e300], [1e300, 0.0]]),
     "expm: the exponential of a matrix with entries up to 1.000e+300 "
     "overflows"),
    (np.diag([800.0, 0.0]),
     "expm: the exponential of a matrix with entries up to 8.000e+02 "
     "overflows"),
], ids=["inf", "nan", "cosh-1e300", "exp-800"])
def test_expm_refuses_a_non_finite_exponential(a, message):
    with pytest.raises(ValidationError) as err:
        coset.expm(a)
    assert str(err.value) == message


def test_expm_norm_does_not_overflow():
    # entries of 1e200 square to inf; the norm of the power-of-two-scaled
    # matrix still gives s ~ 666, so a / 2**s is small and the squarings
    # take exp(-1e200) to 0 (with s = 1 the Taylor powers overflowed)
    np.testing.assert_array_equal(coset.expm(np.diag([-1e200, 0.0])),
                                  [[0.0, 0.0], [0.0, 1.0]])
    nilpotent = np.array([[0.0, 1e200], [0.0, 0.0]])
    np.testing.assert_array_equal(coset.expm(nilpotent),
                                  [[1.0, 1e200], [0.0, 1.0]])


@pytest.mark.parametrize("pt", [
    coset.Phase((0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
    coset.Config((0.0, 1.0, 0.0)),
    coset.SpaceTime(0.0, (0.0, 1.0, 0.0)),
], ids=["phase", "config", "spacetime"])
def test_exp_action_refuses_a_rotation_lost_to_roundoff(pt):
    # about 65 squarings of a rotation by 1e19 / 2**65 rad leave no rotation
    e = coset.InfinitesimalElement(
        omega=coset.omega_from_vector((1e20, 0.0, 0.0)))
    with pytest.raises(ValidationError) as err:
        coset.exp_action(e, pt, t=0.1)
    assert str(err.value) == \
        "the rotation block of exp(t G) is not orthogonal within 1e-9"


def test_infinitesimal_spacetime_examples():
    pt = coset.SpaceTime(2.0, (1.0, 0.0, -1.0))
    zero = coset.InfinitesimalElement()
    dt, dx = coset.contracted_action(zero, pt, K1)
    assert dt == 0.0 and np.all(dx == 0.0)
    b_only = coset.InfinitesimalElement(b=1.0)
    dt, dx = coset.contracted_action(b_only, pt, K1)
    assert dt == 1.0 and np.all(dx == 0.0)


def test_infinitesimal_config_examples():
    e = coset.InfinitesimalElement(pbar=(1.0, 0.0, 0.0))
    dx, dtheta = coset.contracted_action(e, coset.Config((1.0, 0.0, 0.0)), K1)
    assert np.all(dx == 0.0)
    assert dtheta == pytest.approx(1.0)
    e2 = coset.InfinitesimalElement(xbar=(0.5, 0.0, 0.0), thetabar=0.25)
    dx, dtheta = coset.contracted_action(e2, coset.Config((3.0, 1.0, 0.0)), K1)
    np.testing.assert_allclose(dx, [0.5, 0.0, 0.0])
    assert dtheta == pytest.approx(0.25)


def test_infinitesimal_phase_cocycle():
    e = coset.InfinitesimalElement(pbar=(1.0, 0.0, 0.0))
    pt = coset.Phase(p=(0.0, 0.0, 0.0), x=(1.0, 0.0, 0.0))
    dp, dx, dtheta = coset.contracted_action(e, pt, K1)
    np.testing.assert_allclose(dp, [1.0, 0.0, 0.0])
    assert np.all(dx == 0.0)
    assert dtheta == pytest.approx(0.5)


def test_phase_cocycle_antisymmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pbar, xbar, p, x = (rng.uniform(-2, 2, 3) for _ in range(4))
        e = coset.InfinitesimalElement(pbar=pbar, xbar=xbar)
        pt = coset.Phase(p=p, x=x)
        _, _, dtheta = coset.contracted_action(e, pt, K1)
        swapped_e = coset.InfinitesimalElement(pbar=xbar, xbar=pbar)
        swapped_pt = coset.Phase(p=x, x=p)
        _, _, dtheta_swapped = coset.contracted_action(swapped_e, swapped_pt, K1)
        assert dtheta == pytest.approx(-dtheta_swapped, abs=1e-12)


def test_rotations_act_identically_on_x_and_p():
    rng = np.random.default_rng(12)
    omega = coset.omega_from_vector(rng.uniform(-1, 1, 3))
    e = coset.InfinitesimalElement(omega=omega)
    v = rng.uniform(-3, 3, 3)
    dp, _, _ = coset.contracted_action(e, coset.Phase(p=v, x=np.zeros(3)), K1)
    _, dx, _ = coset.contracted_action(e, coset.Phase(p=np.zeros(3), x=v), K1)
    np.testing.assert_allclose(dp, dx, atol=1e-15)


def test_finite_difference_matches_tangent_at_first_order():
    rng = np.random.default_rng(13)
    e = coset.InfinitesimalElement(
        b=0.7, v=rng.uniform(-1, 1, 3),
        omega=coset.omega_from_vector(rng.uniform(-1, 1, 3)),
        a=rng.uniform(-1, 1, 3), pbar=rng.uniform(-1, 1, 3),
        xbar=rng.uniform(-1, 1, 3), thetabar=0.3)
    points = (coset.SpaceTime(1.2, rng.uniform(-1, 1, 3)),
              coset.Phase(p=rng.uniform(-1, 1, 3), x=rng.uniform(-1, 1, 3),
                          theta=0.1),
              coset.Config(x=rng.uniform(-1, 1, 3), theta=-0.2))

    def coords(pt, h):
        return coset.coordinates(coset.exp_action(e, pt, t=h))

    tangents = [np.hstack(coset.contracted_action(e, pt, K1)) for pt in points]
    errs = {}
    for h in (1e-3, 1e-4):
        errs[h] = max(
            np.max(np.abs((coords(pt, h) - coords(pt, 0.0)) / h - tan))
            for pt, tan in zip(points, tangents))
        assert errs[h] <= 5.0 * h  # first-order convergence
    assert 4.0 < errs[1e-3] / errs[1e-4] < 25.0


def test_nilpotent_exponential_closed_form():
    # only v and a: exp is the exact polynomial, A picks up the v*b/2 term
    e = coset.InfinitesimalElement(b=2.0, v=(1.0, -0.5, 0.0), a=(0.0, 1.0, 3.0))
    pt = coset.SpaceTime(0.7, (0.1, 0.2, 0.3))
    out = coset.exp_action(e, pt, t=1.0)
    closed = coset.GalileiElement(B=2.0, V=(1.0, -0.5, 0.0),
                                  A=np.asarray((0.0, 1.0, 3.0))
                                  + np.asarray((1.0, -0.5, 0.0)) * 2.0 / 2.0)
    ref = coset.apply_galilei(closed, pt)
    assert out.t == pytest.approx(ref.t, abs=1e-12)
    np.testing.assert_allclose(out.x, ref.x, atol=1e-12)


@pytest.mark.parametrize("coset_kind", ["spacetime", "config", "phase"])
def test_exp_action_matches_scipy_expm_of_the_generator(coset_kind):
    rng = np.random.default_rng(21)
    for _ in range(50):
        e = coset.InfinitesimalElement(
            b=rng.uniform(-2, 2), v=rng.uniform(-2, 2, 3),
            omega=coset.omega_from_vector(rng.uniform(-2, 2, 3)),
            a=rng.uniform(-2, 2, 3), pbar=rng.uniform(-2, 2, 3),
            xbar=rng.uniform(-2, 2, 3), thetabar=rng.uniform(-1, 1))
        u3 = rng.uniform(-2, 2, (2, 3))
        pt = {"spacetime": coset.SpaceTime(rng.uniform(-2, 2), u3[0]),
              "config": coset.Config(u3[0], rng.uniform(-1, 1)),
              "phase": coset.Phase(u3[0], u3[1], rng.uniform(-1, 1)),
              }[coset_kind]
        t = rng.uniform(-2, 2)
        gen = t * coset._generator(e, pt)
        ref = expm(gen)
        assert np.max(np.abs(coset.expm(gen) - ref)) \
            <= 1e-13 * np.max(np.abs(ref))
        col = np.append(coset.coordinates(pt), 1.0)
        out = coset.coordinates(coset.exp_action(e, pt, t))
        np.testing.assert_allclose(out, (ref @ col)[:-1], rtol=1e-13,
                                   atol=1e-13)


def test_finite_phase_actions_accumulate_weyl_cocycle():
    e1 = coset.InfinitesimalElement(pbar=(1.0, 0.0, 0.0))
    e2 = coset.InfinitesimalElement(xbar=(0.5, 0.0, 0.0))
    origin = coset.Phase(p=np.zeros(3), x=np.zeros(3))
    out = coset.exp_phase_action(e1, coset.exp_phase_action(e2, origin))
    # theta = thetabar-free cocycle: (pbar1 . xbar2 - xbar1 . pbar2)/2
    assert out.theta == pytest.approx(0.25, abs=1e-12)
    np.testing.assert_allclose(out.p, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out.x, [0.5, 0.0, 0.0], atol=1e-12)


def test_finite_config_action_closed_form():
    # omega = 0: the generator on (x, theta, 1) is nilpotent of order 3
    rng = np.random.default_rng(16)
    for _ in range(20):
        e = coset.InfinitesimalElement(pbar=rng.uniform(-2, 2, 3),
                                       xbar=rng.uniform(-2, 2, 3),
                                       thetabar=rng.uniform(-1, 1))
        pt = coset.Config(x=rng.uniform(-2, 2, 3), theta=rng.uniform(-1, 1))
        t = rng.uniform(0.1, 2.0)
        out = coset.exp_action(e, pt, t=t)
        theta = (pt.theta + t * (e.pbar @ pt.x + e.thetabar)
                 + 0.5 * t * t * (e.pbar @ e.xbar))
        np.testing.assert_allclose(out.x, pt.x + t * e.xbar, rtol=0, atol=1e-12)
        assert out.theta == pytest.approx(theta, rel=0, abs=1e-12)


def test_contracted_action_matches_phase_action_at_k1():
    rng = np.random.default_rng(14)
    e = coset.InfinitesimalElement(
        omega=coset.omega_from_vector(rng.uniform(-1, 1, 3)),
        pbar=rng.uniform(-1, 1, 3), xbar=rng.uniform(-1, 1, 3), thetabar=0.4)
    pt = coset.Phase(p=rng.uniform(-1, 1, 3), x=rng.uniform(-1, 1, 3))
    plain = (e.omega @ pt.p + e.pbar, e.omega @ pt.x + e.xbar,
             0.5 * float(e.pbar @ pt.x - e.xbar @ pt.p) + e.thetabar)
    contracted = coset.contracted_action(e, pt, K1)
    for a, b in zip(plain, contracted):
        np.testing.assert_allclose(a, b, atol=0)


def test_contracted_action_suppresses_cocycle_by_hbar():
    e = coset.InfinitesimalElement(pbar=(1.0, 0.0, 0.0), thetabar=2.0)
    pt = coset.Phase(p=np.zeros(3), x=(1.0, 0.0, 0.0))
    _, _, dtheta_1 = coset.contracted_action(e, pt, ContractionParams(k=1.0))
    _, _, dtheta_100 = coset.contracted_action(e, pt, ContractionParams(k=100.0))
    assert dtheta_1 - 2.0 == pytest.approx(0.5)
    assert dtheta_100 - 2.0 == pytest.approx(0.5e-4, rel=1e-12)


def test_contracted_action_limit_decouples_theta():
    rng = np.random.default_rng(15)
    for _ in range(10):
        e = coset.InfinitesimalElement(pbar=rng.uniform(-5, 5, 3),
                                       xbar=rng.uniform(-5, 5, 3),
                                       thetabar=1.25)
        pt = coset.Phase(p=rng.uniform(-5, 5, 3), x=rng.uniform(-5, 5, 3))
        dp, dx, dtheta = coset.contracted_action(e, pt, limit=True)
        assert dtheta == 1.25
        np.testing.assert_allclose(dp, e.pbar, atol=0)
        np.testing.assert_allclose(dx, e.xbar, atol=0)
    # config coset decouples the same way
    cpt = coset.Config(x=(3.0, 0.0, 0.0))
    ce = coset.InfinitesimalElement(pbar=(2.0, 0.0, 0.0), thetabar=0.5)
    _, dtheta = coset.contracted_action(ce, cpt, limit=True)
    assert dtheta == 0.5


def test_validation_errors():
    with pytest.raises(ValidationError):
        coset.GalileiElement(R=np.eye(3) * 2.0)  # not orthogonal
    with pytest.raises(ValidationError):
        coset.GalileiElement(R=-np.eye(3))  # det -1
    with pytest.raises(ValidationError):
        coset.InfinitesimalElement(omega=np.ones((3, 3)))
    with pytest.raises(ValidationError):
        coset.contracted_action(coset.InfinitesimalElement(),
                                coset.Phase(p=np.zeros(3), x=np.zeros(3)))


NAN, INF = float("nan"), float("inf")
OMEGA_INF = np.array([[0.0, INF, 0.0], [-INF, 0.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("build", [
    lambda: coset.GalileiElement(R=np.full((3, 3), NAN)),
    lambda: coset.GalileiElement(B=NAN),
    lambda: coset.GalileiElement(B=INF),
    lambda: coset.SpaceTime(NAN, (0.0, 0.0, 0.0)),
    lambda: coset.Config((0.0, 0.0, 0.0), theta=INF),
    lambda: coset.Phase((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), theta=NAN),
    lambda: coset.InfinitesimalElement(b=NAN),
    lambda: coset.InfinitesimalElement(thetabar=INF),
    lambda: coset.InfinitesimalElement(omega=OMEGA_INF),
    lambda: coherent.CoherentLabel(0.0, 0.0, theta=NAN),
], ids=["R-nan", "B-nan", "B-inf", "t-nan", "config-theta-inf",
        "phase-theta-nan", "b-nan", "thetabar-inf", "omega-inf",
        "label-theta-nan"])
def test_nonfinite_coset_and_label_inputs_rejected(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("omega, message", [
    (np.full((3, 3), NAN), "omega has non-finite entries"),
    (OMEGA_INF, "omega has non-finite entries"),
    (np.ones((3, 3)), "omega must be exactly antisymmetric"),
], ids=["omega-nan", "omega-inf", "omega-symmetric"])
def test_infinitesimal_element_rejections_keep_their_messages(omega, message):
    with pytest.raises(ValidationError) as err:
        coset.InfinitesimalElement(omega=omega)
    assert str(err.value) == message


def _r_with(value):
    r = np.eye(3)
    r[1, 2] = value
    return r


NONFINITE = (NAN, INF, -INF)


@pytest.mark.parametrize("kwargs, message", [
    # R^T R - I then has the entry (1 + 2e-9) - 1
    ({"R": np.diag([math.sqrt(1.0 + 2e-9), 1.0, 1.0])},
     "R is not orthogonal within 1e-9"),
    ({"R": np.diag([1.0, 1.0, -1.0])}, "R must have determinant +1"),
    *[({"B": v}, f"B must be finite, got {v}") for v in NONFINITE],
    *[({"V": (0.0, v, 0.0)}, "V has non-finite entries") for v in NONFINITE],
    *[({"R": _r_with(v)}, "R is not orthogonal within 1e-9") for v in NONFINITE],
    *[({"A": (0.0, 0.0, v)}, "A has non-finite entries") for v in NONFINITE],
], ids=["R-off-by-2e-9", "R-reflection",
        *[f"{n}-{v}" for n in "BVRA" for v in ("nan", "inf", "-inf")]])
def test_galilei_element_rejections_keep_their_messages(kwargs, message):
    with pytest.raises(ValidationError) as err:
        coset.GalileiElement(**kwargs)
    assert str(err.value) == message
