"""Finite and infinitesimal coset actions, group law, contraction limit."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from galq import coset
from galq.algebra import ContractionParams
from galq.errors import ValidationError

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


def test_infinitesimal_spacetime_examples():
    pt = coset.SpaceTime(2.0, (1.0, 0.0, -1.0))
    zero = coset.InfinitesimalElement()
    dt, dx = coset.infinitesimal_spacetime(zero, pt)
    assert dt == 0.0 and np.all(dx == 0.0)
    b_only = coset.InfinitesimalElement(b=1.0)
    dt, dx = coset.infinitesimal_spacetime(b_only, pt)
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
    st_pt = coset.SpaceTime(1.2, rng.uniform(-1, 1, 3))
    ph_pt = coset.Phase(p=rng.uniform(-1, 1, 3), x=rng.uniform(-1, 1, 3),
                        theta=0.1)

    def st_coords(h):
        out = coset.exp_spacetime_action(e, st_pt, t=h)
        return np.concatenate(([out.t], out.x))

    def ph_coords(h):
        out = coset.exp_phase_action(e, ph_pt, t=h)
        return np.concatenate((out.p, out.x, [out.theta]))

    dt, dx = coset.infinitesimal_spacetime(e, st_pt)
    st_tan = np.concatenate(([dt], dx))
    dp, dx2, dth = coset.contracted_action(e, ph_pt, K1)
    ph_tan = np.concatenate((dp, dx2, [dth]))
    errs = {}
    for h in (1e-3, 1e-4):
        st_err = np.max(np.abs((st_coords(h) - st_coords(0.0)) / h - st_tan))
        ph_err = np.max(np.abs((ph_coords(h) - ph_coords(0.0)) / h - ph_tan))
        errs[h] = max(st_err, ph_err)
        assert errs[h] <= 5.0 * h  # first-order convergence
    assert 4.0 < errs[1e-3] / errs[1e-4] < 25.0


def test_nilpotent_exponential_closed_form():
    # only v and a: exp is the exact polynomial, A picks up the v*b/2 term
    e = coset.InfinitesimalElement(b=2.0, v=(1.0, -0.5, 0.0), a=(0.0, 1.0, 3.0))
    pt = coset.SpaceTime(0.7, (0.1, 0.2, 0.3))
    out = coset.exp_spacetime_action(e, pt, t=1.0)
    closed = coset.GalileiElement(B=2.0, V=(1.0, -0.5, 0.0),
                                  A=np.asarray((0.0, 1.0, 3.0))
                                  + np.asarray((1.0, -0.5, 0.0)) * 2.0 / 2.0)
    ref = coset.apply_galilei(closed, pt)
    assert out.t == pytest.approx(ref.t, abs=1e-12)
    np.testing.assert_allclose(out.x, ref.x, atol=1e-12)


def test_finite_phase_actions_accumulate_weyl_cocycle():
    e1 = coset.InfinitesimalElement(pbar=(1.0, 0.0, 0.0))
    e2 = coset.InfinitesimalElement(xbar=(0.5, 0.0, 0.0))
    origin = coset.Phase(p=np.zeros(3), x=np.zeros(3))
    out = coset.exp_phase_action(e1, coset.exp_phase_action(e2, origin))
    # theta = thetabar-free cocycle: (pbar1 . xbar2 - xbar1 . pbar2)/2
    assert out.theta == pytest.approx(0.25, abs=1e-12)
    np.testing.assert_allclose(out.p, [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(out.x, [0.5, 0.0, 0.0], atol=1e-12)


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
