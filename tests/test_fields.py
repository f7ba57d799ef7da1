"""Field algebra, deformation maps, and the pointwise divergence identities."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from innervar import fields as F
from innervar import geometry as G
from innervar import limits as L
from innervar import profiles as P
from innervar import variation as V
from innervar.errors import ConfigError, DimensionMismatch, NonInvertible
from innervar.jets import Jet, jet_cos, jet_exp, jet_norm, jet_polynomial, jet_sin, jet_sqrt


def fd_divergence(v, x, h=1e-5):
    total = 0.0
    for j in range(len(x)):
        dx = np.zeros_like(x)
        dx[j] = h
        total += (v.eval(x + dx)[j] - v.eval(x - dx)[j]) / (2 * h)
    return total


def fd_jacobian(v, x, h=1e-5):
    n = len(x)
    out = np.zeros((n, n))
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = h
        out[:, j] = (v.eval(x + dx) - v.eval(x - dx)) / (2 * h)
    return out


def test_divergence_dilation():
    v = F.dilation_field(2, 0.7)
    assert F.divergence(v, np.array([0.3, -0.2])) == pytest.approx(1.4, abs=1e-14)


def test_divergence_rotation_free():
    v = F.rotation_field(1.0)
    assert F.divergence(v, np.array([1.0, 2.0])) == pytest.approx(0.0, abs=1e-14)


def test_divergence_matches_fd_on_random_cubic():
    rng = np.random.default_rng(42)
    v = F.random_polynomial_vector_field(rng, 3, degree=3)
    pts = rng.uniform(-1, 1, size=(10, 3))
    for x in pts:
        assert F.divergence(v, x) == pytest.approx(fd_divergence(v, x), abs=1e-8)


def test_zeta_eta_dilation():
    # -(div eta) eta + (eta.grad) eta for eta = a x is a^2 (1 - N) x
    a = 0.5
    z = F.zeta_eta(F.dilation_field(3, a))
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(z.eval(x), a * a * (1 - 3) * x, atol=1e-14)


def test_zeta_eta_rotation():
    omega = np.array([0.3, -0.2, 0.9])
    z = F.zeta_eta(F.rotation_field(omega))
    x = np.array([0.7, 0.1, -0.4])
    np.testing.assert_allclose(z.eval(x), np.cross(omega, np.cross(omega, x)), atol=1e-14)


def test_zeta_eta_polynomial_hand_expansion():
    # eta = (x1^2, x1 x2): div = 3 x1, (eta.grad)eta = (2 x1^3, 2 x1^2 x2),
    # so zeta = (-x1^3, -x1^2 x2) with Jacobian [[-3x1^2, 0], [-2x1x2, -x1^2]]
    eta = F.polynomial_vector_field(2, [[(1.0, (2, 0))], [(1.0, (1, 1))]])
    z = F.zeta_eta(eta)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(15, 2))
    x1, x2 = pts[:, 0], pts[:, 1]
    expect = np.stack([-(x1**3), -(x1**2) * x2], axis=1)
    np.testing.assert_allclose(z.eval(pts), expect, atol=1e-10)
    jac = z.jacobian(pts)
    expect_j = np.zeros((15, 2, 2))
    expect_j[:, 0, 0] = -3 * x1**2
    expect_j[:, 1, 0] = -2 * x1 * x2
    expect_j[:, 1, 1] = -(x1**2)
    np.testing.assert_allclose(jac, expect_j, atol=1e-10)


def test_zeta_eta_jacobian_matches_fd_oracle():
    rng = np.random.default_rng(7)
    eta = F.random_polynomial_vector_field(rng, 3, degree=3)
    z = F.zeta_eta(eta)
    for x in rng.uniform(-0.8, 0.8, size=(5, 3)):
        np.testing.assert_allclose(z.jacobian(x), fd_jacobian(z, x), atol=1e-8)


def test_x0_field_trivial_cases():
    u = F.polynomial_scalar_field(2, [(1.0, (1, 0))])  # u = x1
    e1 = F.constant_field([1.0, 0.0])
    zero = F.constant_field([0.0, 0.0])
    x = np.array([0.3, 0.4])
    assert F.x0_field(u, e1, zero).eval(x) == pytest.approx(0.0, abs=1e-14)
    assert F.x0_field(u, zero, e1).eval(x) == pytest.approx(-1.0, abs=1e-14)


def test_x0_field_matches_t_expansion():
    # X0 is the t^2 coefficient of u(Phi_t^{-1}(y)), checked by 5-point FD in t
    u = F.polynomial_scalar_field(2, [(0.7, (2, 0)), (-0.4, (1, 1)), (0.3, (0, 2)), (0.5, (1, 0))])
    eta = F.linear_field([[0.2, -0.3], [0.1, 0.4]])
    zeta = F.polynomial_vector_field(2, [[(0.3, (0, 1))], [(0.2, (1, 0))]])
    x0 = F.x0_field(u, eta, zeta)
    pt = np.array([0.21, -0.37])
    h = 2e-2
    vals = []
    for t in (-2 * h, -h, 0.0, h, 2 * h):
        dm = F.DeformationMap(eta, zeta, t)
        vals.append(u.eval(dm.invert(pt)))
    d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    assert x0.eval(pt) == pytest.approx(d2, abs=1e-6)


def test_det_expansion_dilation_exact():
    c0, c1, c2 = F.det_expansion(
        F.dilation_field(2, 0.3), F.constant_field([0.0, 0.0]), np.array([0.1, 0.2])
    )
    # det(I + t a I) = (1 + a t)^2 = 1 + 2 a t + a^2 t^2
    assert (c0, c1) == (1.0, pytest.approx(0.6, abs=1e-14))
    assert c2 == pytest.approx(2 * 0.09, abs=1e-14)


def test_det_expansion_rotation():
    c0, c1, c2 = F.det_expansion(
        F.rotation_field(1.0), F.constant_field([0.0, 0.0]), np.array([0.5, -0.1])
    )
    # det(I + t A) = 1 + t^2 for the planar rotation generator
    assert (c0, c1, c2) == (1.0, pytest.approx(0.0, abs=1e-14), pytest.approx(2.0, abs=1e-14))


def test_det_expansion_matches_fd_in_t():
    rng = np.random.default_rng(11)
    eta = F.random_polynomial_vector_field(rng, 3, degree=3)
    zeta = F.random_polynomial_vector_field(rng, 3, degree=2)
    x = np.array([0.2, -0.1, 0.4])
    h = 1e-3
    dets = [F.DeformationMap(eta, zeta, t).det(x) for t in (-2 * h, -h, 0.0, h, 2 * h)]
    c1_fd = (dets[0] - 8 * dets[1] + 8 * dets[3] - dets[4]) / (12 * h)
    c2_fd = (-dets[0] + 16 * dets[1] - 30 * dets[2] + 16 * dets[3] - dets[4]) / (12 * h * h)
    _, c1, c2 = F.det_expansion(eta, zeta, x)
    assert c1 == pytest.approx(c1_fd, abs=1e-6)
    assert c2 == pytest.approx(c2_fd, abs=1e-6)


def test_good_identity_linear_exact():
    eta = F.linear_field([[0.3, -0.7], [0.2, 0.5]])
    res = F.good_identity_residual(eta, np.array([0.4, -0.9]))
    assert res == pytest.approx(0.0, abs=1e-14)


def test_good_identity_polynomial_analytic():
    rng = np.random.default_rng(5)
    eta = F.random_polynomial_vector_field(rng, 3, degree=3)
    pts = rng.uniform(-1, 1, size=(20, 3))
    assert np.max(np.abs(F.good_identity_residual(eta, pts))) <= 1e-9


def test_good_identity_trig_fd():
    # raw callables exercise the finite-difference second-derivative fallback
    def fn(xb):
        return np.stack(
            [
                np.sin(1.1 * xb[:, 0] + 0.4 * xb[:, 1]),
                np.cos(0.7 * xb[:, 0] - 1.3 * xb[:, 1]) * 0.8,
            ],
            axis=1,
        )

    eta = F.VectorField(2, fn)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1, 1, size=(30, 2))
    assert np.max(np.abs(F.good_identity_residual(eta, pts))) <= 1e-7


def test_deformation_identity_at_t0():
    rng = np.random.default_rng(2)
    eta = F.random_polynomial_vector_field(rng, 2, degree=2)
    dm = F.DeformationMap(eta, F.zeta_eta(eta), 0.0)
    x = np.array([0.3, 0.8])
    np.testing.assert_allclose(dm.apply(x), x, atol=1e-15)
    np.testing.assert_allclose(dm.jacobian(x), np.eye(2), atol=1e-15)


def test_deformation_dilation_closed_form():
    a, t = 0.4, 0.1
    dm = F.DeformationMap(F.dilation_field(2, a), F.constant_field([0.0, 0.0]), t)
    x = np.array([0.5, -0.2])
    np.testing.assert_allclose(dm.apply(x), (1 + a * t) * x, atol=1e-15)
    y = np.array([0.33, 0.71])
    np.testing.assert_allclose(dm.invert(y), y / (1 + a * t), atol=1e-13)


def test_newton_inversion_roundtrip():
    rng = np.random.default_rng(13)
    eta = F.random_polynomial_vector_field(rng, 3, degree=3)
    zeta = F.random_polynomial_vector_field(rng, 3, degree=2)
    dm = F.DeformationMap(eta, zeta, 0.01)
    y = rng.uniform(-0.5, 0.5, size=(25, 3))
    x = dm.invert(y)
    assert np.max(np.linalg.norm(dm.apply(x) - y, axis=1)) <= 1e-12


def test_newton_inversion_failure_signals():
    # t far beyond the diffeomorphism bound folds the map; Newton must report it
    eta = F.polynomial_vector_field(2, [[(4.0, (2, 0))], [(4.0, (0, 2))]])
    dm = F.DeformationMap(eta, F.constant_field([0.0, 0.0]), 5.0)
    with pytest.raises(NonInvertible):
        dm.invert(np.array([[0.9, 0.9], [0.1, -0.8], [-0.7, 0.5]]))


def test_rotation_deformation_matches_group_to_third_order():
    omega = np.array([0.2, -0.5, 0.7])
    rot = F.rotation_field(omega)
    zr = F.zeta_eta(rot)
    mat = rot.jacobian(np.zeros(3))
    x = np.array([[0.4, -0.3, 0.8], [0.1, 0.9, -0.2]])
    ratios = []
    for t in (0.1, 0.05, 0.025):
        dm = F.DeformationMap(rot, zr, t)
        exact = x @ expm(t * mat).T
        ratios.append(np.max(np.linalg.norm(dm.apply(x) - exact, axis=1)) / t**3)
    # error/t^3 stays bounded as t -> 0
    assert max(ratios) <= 2.0 * min(ratios) + 1e-12


@settings(max_examples=100, deadline=None)
@given(omega=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), t=st.floats(0.0, 1.0))
@example(omega=[0.0, 0.0, 0.0], t=1.0)
def test_rotation_exp_matches_expm(omega, t):
    # angles up to sqrt(3); beyond a few radians expm's own scaling and squaring errs
    # by about 1e-14 (4e-14 at angle 4), while 20000 draws here stayed within 4.5e-16
    mat = t * F.rotation_field(omega).jacobian(np.zeros(3))
    assert np.max(np.abs(F.rotation_exp(mat) - expm(mat))) <= 4e-15


def test_scalar_field_fd_fallback_accuracy():
    raw = F.ScalarField(2, lambda xb: np.sin(xb[:, 0]) * np.cos(2 * xb[:, 1]))
    x = np.array([0.3, 0.7])
    exact = np.array([np.cos(0.3) * np.cos(1.4), -2 * np.sin(0.3) * np.sin(1.4)])
    np.testing.assert_allclose(raw.gradient(x), exact, atol=1e-8)
    h = raw.hessian(x)
    np.testing.assert_allclose(h, h.T, atol=1e-10)


def test_analytic_hessian_symmetry():
    rng = np.random.default_rng(17)
    u = F.random_polynomial_scalar_field(rng, 3, degree=4)
    pts = rng.uniform(-1, 1, size=(40, 3))
    h = u.hessian(pts)
    assert np.max(np.abs(h - np.swapaxes(h, 1, 2))) <= 1e-10


def test_compact_support_vanishes_outside_hint():
    rng = np.random.default_rng(19)
    center, radius = np.array([0.2, -0.1]), 0.6
    eta = F.random_compact_vector_field(rng, 2, center=center, radius=radius)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=40)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    outside = center + dirs * radius * rng.uniform(1.001, 3.0, size=(40, 1))
    np.testing.assert_allclose(eta.eval(outside), 0.0, atol=0.0)
    np.testing.assert_allclose(eta.jacobian(outside), 0.0, atol=0.0)
    inside = center + dirs * radius * rng.uniform(0.0, 0.9, size=(40, 1))
    assert np.all(np.any(eta.eval(inside) != 0.0, axis=1))


def test_vector_field_algebra():
    a = F.constant_field([1.0, 0.0])
    b = F.dilation_field(2, 2.0)
    combo = a + 0.5 * b
    np.testing.assert_allclose(combo.eval(np.array([1.0, 1.0])), [2.0, 1.0], atol=1e-15)


def test_field_config_round_trip():
    spec = {
        "type": "bump_polynomial",
        "dim": 2,
        "center": [0.0, 0.0],
        "radius": 0.8,
        "components": [[[0.4, [0, 0]], [0.8, [1, 0]]], [[0.2, [0, 1]]]],
    }
    F.vector_field_from_config(spec)
    with pytest.raises(ConfigError):
        F.vector_field_from_config({**spec, "bogus": 1})
    with pytest.raises(ConfigError):
        F.vector_field_from_config({"type": "nope"})
    s = F.scalar_field_from_config({"type": "radial_bump", "center": [0.0, 0.0], "radius": 0.5})
    assert s.eval(np.array([0.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        F.scalar_field_from_config({"type": "radial_bump", "center": [0, 0]})  # missing radius

    # missing radius surfaces as KeyError-> ConfigError? ensure strictness via unknown key
    with pytest.raises(ConfigError):
        F.scalar_field_from_config({"type": "trig", "dim": 2, "terms": [], "w": 1})


def test_dimension_mismatch_raises():
    u = F.polynomial_scalar_field(2, [(1.0, (1, 0))])
    with pytest.raises(DimensionMismatch):
        u.eval(np.array([1.0, 2.0, 3.0]))


# ---------------------------------------------------------------------------
# truncated jets and the one evaluation path
# ---------------------------------------------------------------------------


def _tanh_derivatives(v, order):
    t = np.tanh(v)
    return t, 1.0 - t * t, -2.0 * t * (1.0 - t * t) if order == 2 else None


# each op maps a jet with bounded values and derivatives to one with bounded
# values and derivatives, so chains of up to six ops stay within the reach of
# the h = 1e-5 central differences in _check_orders
_OPS = {
    "mul": lambda a, xs, xb, k: a * xs[k],
    "add": lambda a, xs, xb, k: a + xs[k] * 0.5,
    "div": lambda a, xs, xb, k: a / (xs[k] * xs[k] + 2.0),
    "recip": lambda a, xs, xb, k: (a * a + 1.0).reciprocal(),
    "pow": lambda a, xs, xb, k: (jet_sin(a) * jet_sin(a) + 1.0) ** 1.5,
    "sqrt": lambda a, xs, xb, k: jet_sqrt(a * a + 0.5),
    "exp": lambda a, xs, xb, k: jet_exp(-(a * a)),
    "sin": lambda a, xs, xb, k: jet_sin(a * 1.5),
    "lift": lambda a, xs, xb, k: a.compose(_tanh_derivatives),
    "bump": lambda a, xs, xb, k: a * F._bump_jet(xb, np.full(xb.shape[1], 0.1), 1.6, 8, a.order),
}


def _jet_parts(jet_fn):
    """(val, grad) of an order-1 jet, (val, grad, hess) of an order-2 jet."""

    def parts(xb, order):
        jet = jet_fn(xb, order)
        return (jet.val, jet.grad) if jet.hess is None else (jet.val, jet.grad, jet.hess)

    return parts


def _check_orders(parts, x, h=1e-5):
    """Order 1 is a bit-identical prefix of order 2, and order 2 matches central differences.

    ``parts`` are component-major: each derivative axis sits before the point axis.
    """
    full, low = parts(x, 2), parts(x, 1)
    assert len(full) == 3 and len(low) == 2
    for a, b in zip(low, full):
        np.testing.assert_array_equal(a, b)
    scale = 1.0 + np.max(np.abs(full[1])) + np.max(np.abs(full[2]))
    for j in range(x.shape[1]):
        dx = np.zeros_like(x)
        dx[:, j] = h
        hi, lo = parts(x + dx, 2), parts(x - dx, 2)
        np.testing.assert_allclose(full[1][..., j, :], (hi[0] - lo[0]) / (2 * h),
                                   atol=1e-6 * scale)
        np.testing.assert_allclose(full[2][..., j, :], (hi[1] - lo[1]) / (2 * h),
                                   atol=1e-6 * scale)


@settings(max_examples=60, deadline=None)
@given(program=st.lists(st.sampled_from(sorted(_OPS)), min_size=1, max_size=6),
       dim=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
def test_random_jet_compositions_truncate_exactly_and_match_fd(program, dim, seed):
    def jet_fn(xb, order):
        xs = Jet.variables(xb, order)
        a = xs[0] + 0.3
        for i, op in enumerate(program):
            a = _OPS[op](a, xs, xb, i % dim)
        return a

    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(7, dim))
    _check_orders(_jet_parts(jet_fn), x)


def _monomial_reference(x, terms):
    """sum_k c_k prod_i x_i^e_ki and its derivatives, one factor at a time, point-major."""
    m, n = x.shape
    val, grad, hess = np.zeros(m), np.zeros((m, n)), np.zeros((m, n, n))

    def term(coef, exps):
        out = coef * np.ones(m)
        for i, e in enumerate(exps):
            out = out * x[:, i] ** e
        return out

    for coef, e in terms:
        val += term(coef, e)
        for i in range(n):
            if e[i] >= 1:
                grad[:, i] += term(coef * e[i], [ek - (k == i) for k, ek in enumerate(e)])
            for j in range(n):
                if i == j and e[i] >= 2:
                    hess[:, i, i] += term(coef * e[i] * (e[i] - 1),
                                          [ek - 2 * (k == i) for k, ek in enumerate(e)])
                elif i != j and e[i] >= 1 and e[j] >= 1:
                    hess[:, i, j] += term(coef * e[i] * e[j],
                                          [ek - (k == i) - (k == j) for k, ek in enumerate(e)])
    return val, grad, hess


@pytest.mark.parametrize("dim, degree", [(1, 5), (2, 3), (3, 3)])
def test_jet_polynomial_matches_the_factor_by_factor_reference_bit_for_bit(dim, degree):
    rng = np.random.default_rng(dim + degree)
    terms = F._random_terms(rng, dim, degree, 1.0) + [(2, (0,) * dim)]
    x = rng.uniform(-1.5, 1.5, size=(50, dim))
    x[0] = 0.0
    parts = _jet_parts(lambda xb, order: jet_polynomial(xb, terms, order))(x, 2)
    for got, want in zip(parts, _monomial_reference(x, terms)):
        assert got.tobytes() == np.moveaxis(want, 0, -1).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_jet_norm_matches_the_sum_of_squared_coordinate_jets_bit_for_bit(dim):
    x = np.random.default_rng(dim).uniform(-1.0, 1.0, size=(40, dim))
    x[:4, 0] = 0.0
    x[1:4, 0] = -0.0  # signed zeros: gradient rows keep the chain's zero signs
    x[2, 1:] = -0.5
    for order in (1, 2):
        coords = Jet.variables(x, order)
        sq = coords[0] * coords[0]
        for c in coords[1:]:
            sq = sq + c * c
        got, want = jet_norm(x, order), jet_sqrt(sq)
        for part in ("val", "grad", "hess")[:order + 1]:
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


# The bump as it was built from coordinate jets: the reference for the closed-form s^2.
def _generic_bump(xb, center, radius, order, jet_order):
    coords = Jet.variables(xb, jet_order)
    s2 = Jet.constant(0.0, xb, jet_order)
    for i in range(xb.shape[1]):
        d = coords[i] - center[i]
        s2 = s2 + d * d * (1.0 / radius**2)
    cut = 1.0 if order is not None else 1.0 - 1.0 / 700.0
    inside = s2.val < cut
    if not np.any(inside):
        return s2, Jet.constant(0.0, xb, jet_order)
    base = 1.0 - s2.masked(inside)
    shape = base ** int(order) if order is not None else jet_exp(1.0 - base.reciprocal())
    return s2, Jet.where(inside, shape, 0.0)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), jet_order=st.sampled_from([1, 2]),
       m=st.integers(1, 3000), centred=st.booleans(), zeros=st.sampled_from([0, 3, 7]),
       seed=st.integers(0, 2**16))
@example(dim=3, jet_order=2, m=1, centred=True, zeros=0, seed=0)
@example(dim=2, jet_order=1, m=1, centred=False, zeros=3, seed=1)
def test_closed_form_squared_radius_is_the_generic_jet_sum_bit_for_bit(dim, jet_order, m,
                                                                       centred, zeros, seed):
    rng = np.random.default_rng(seed)
    radius = float(rng.uniform(0.3, 1.2))
    center = np.zeros(dim) if centred else rng.uniform(-0.5, 0.5, size=dim)
    x = center + rng.uniform(-1.3, 1.3, size=(m, dim)) * radius
    if zeros:
        x[::zeros, 0] = center[0]  # x - c exactly zero
        if centred:
            x[1::zeros, -1] = -0.0  # and a signed zero
    for order in (8, None):
        want_s2, want = _generic_bump(x, center, radius, order, jet_order)
        got_s2 = F._squared_radius_jet(x, center, radius, jet_order)
        got = F._bump_jet(x, center, radius, order, jet_order)
        for part in ("val", "grad", "hess")[:jet_order + 1]:
            assert getattr(got_s2, part).tobytes() == getattr(want_s2, part).tobytes()
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


# The broadcast formulas jets used before they were summed row by row: the reference the
# row-wise products must reproduce bit for bit (the same terms, added in the same order).
def _broadcast_mul(a, b):
    val, grad = a.val * b.val, a.val * b.grad + b.val * a.grad
    if a.hess is None or b.hess is None:
        return val, grad, None
    cross = a.grad[:, None] * b.grad[None, :]
    return val, grad, a.val * b.hess + b.val * a.hess + cross + np.swapaxes(cross, 0, 1)


def _broadcast_lift(a, g0, g1, g2):
    grad = g1 * a.grad
    if a.hess is None:
        return g0, grad, None
    return g0, grad, g1 * a.hess + g2 * (a.grad[:, None] * a.grad[None, :])


def _broadcast_add(a, b):
    hess = None if a.hess is None or b.hess is None else a.hess + b.hess
    return a.val + b.val, a.grad + b.grad, hess


def _broadcast_neg(a):
    return -a.val, -a.grad, None if a.hess is None else -a.hess


# the (g, g', g'') each lifted function composes with, written as the functions write them
_LIFTED = {
    "sqrt": (jet_sqrt, lambda v: (np.sqrt(v), 0.5 / np.sqrt(v), -0.25 / (np.sqrt(v) * v))),
    "exp": (jet_exp, lambda v: (np.exp(v),) * 3),
    "sin": (jet_sin, lambda v: (np.sin(v), np.cos(v), -np.sin(v))),
    "cos": (jet_cos, lambda v: (np.cos(v), -np.sin(v), -np.cos(v))),
    "reciprocal": (Jet.reciprocal, lambda v: (1.0 / v, -(1.0 / v) * (1.0 / v),
                                              2.0 * (1.0 / v) * (1.0 / v) * (1.0 / v))),
    "pow": (lambda a: a**2.5, lambda v: (v**2.5, 2.5 * v**1.5, 2.5 * 1.5 * v**0.5)),
}


def _random_jet(rng, n, m, order):
    """Values in [0.5, 2] (every lifted function is defined there); signed zeros in the
    derivatives, so a sum that drops or flips a zero term shows in its bytes."""
    grad = rng.standard_normal((n, m))
    grad[:, ::5] = 0.0
    grad[:, 1::7] = -0.0
    hess = None
    if order == 2:
        hess = rng.standard_normal((n, n, m))  # not symmetric: a transposed term shows
        hess[..., ::6] = -0.0
    return Jet(rng.uniform(0.5, 2.0, m), grad, hess)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), m=st.integers(1, 5000), orders=st.sampled_from(
    [(1, 1), (2, 2), (1, 2), (2, 1)]), c=st.floats(-3.0, 3.0), seed=st.integers(0, 2**16))
@example(n=3, m=1, orders=(2, 2), c=0.0, seed=0)
@example(n=1, m=1, orders=(1, 2), c=-0.0, seed=1)
def test_jet_arithmetic_matches_the_broadcast_formulas_bit_for_bit(n, m, orders, c, seed):
    rng = np.random.default_rng(seed)
    a, b = (_random_jet(rng, n, m, order) for order in orders)
    cases = {
        "a*b": (a * b, _broadcast_mul(a, b)),
        "b*a": (b * a, _broadcast_mul(b, a)),
        "a+b": (a + b, _broadcast_add(a, b)),
        "a-b": (a - b, _broadcast_add(a, Jet(*_broadcast_neg(b)))),
        "-a": (-a, _broadcast_neg(a)),
        "a+c": (a + c, (a.val + c, a.grad, a.hess)),
        "c+a": (c + a, (a.val + c, a.grad, a.hess)),
        "a-c": (a - c, (a.val + -np.asarray(c, dtype=float), a.grad, a.hess)),
        "c-a": (c - a, (-a.val + c,) + _broadcast_neg(a)[1:]),
        "a*c": (a * c, (a.val * c, a.grad * c, None if a.hess is None else a.hess * c)),
        "a/b": (a / b, _broadcast_mul(
            a, Jet(*_broadcast_lift(b, *_LIFTED["reciprocal"][1](b.val))))),
    }
    for name, (fn, derivatives) in _LIFTED.items():
        cases[name] = (fn(a), _broadcast_lift(a, *derivatives(a.val)))
    g = [rng.standard_normal(m) for _ in range(3)]
    cases["lift"] = (a.lift(*g), _broadcast_lift(a, *g))
    for name, (got, want) in cases.items():
        assert (got.hess is None) == (want[2] is None), name
        for part, ref in zip((got.val, got.grad, got.hess), want):
            if ref is not None:
                assert part.shape == ref.shape and part.tobytes() == ref.tobytes(), name


def _recording_constructor(created):
    """A ``Jet.__init__`` that records each jet with a copy of its arrays' bytes."""
    init = Jet.__init__

    def recording(jet, val, grad, hess):
        init(jet, val, grad, hess)
        created.append((jet, [None if x is None else x.tobytes() for x in (val, grad, hess)]))

    return init, recording


def _assert_never_written(created):
    for jet, born in created:
        now = [None if x is None else x.tobytes() for x in (jet.val, jet.grad, jet.hess)]
        assert now == born


@settings(max_examples=40, deadline=None)
@given(program=st.lists(st.sampled_from(sorted(_OPS)), min_size=1, max_size=6),
       dim=st.sampled_from([2, 3]), order=st.sampled_from([1, 2]), seed=st.integers(0, 2**16))
def test_jets_are_never_written_after_construction(program, dim, order, seed):
    assert not hasattr(Jet, "put")
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(9, dim))
    x_bytes = x.tobytes()
    created = []
    init, Jet.__init__ = _recording_constructor(created)
    try:
        xs = Jet.variables(x, order)
        a = xs[0] + 0.3
        for i, op in enumerate(program):
            a = _OPS[op](a, xs, x, i % dim)
    finally:
        Jet.__init__ = init
    assert x.tobytes() == x_bytes
    _assert_never_written(created)


def test_piecewise_jets_are_built_not_written():
    # the bumps, the cutoff's smooth step and the vortex core are piecewise jets: each is
    # built by Jet.where, and no jet they pass through is written after construction
    g = G.straight_filament(1.0, 4)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=(40, 3))
    x[:3, 1:] = 0.0  # on the filament's axis: the vortex core branch
    vortex = P.gl_vortex_field(g, 0.05, L._profile("gl"))
    extension = G.normal_extension(G.sphere(1.0, n_polar=4, n_azimuth=8),
                                   F.polynomial_scalar_field(3, [(1.0, (1, 0, 0))]), 0.9)
    y = x * np.array([1.0, 2.0, 2.0])  # reach past the cutoff's flat pieces too
    near = x / np.linalg.norm(x, axis=1, keepdims=True) * 1.01  # the cutoff's flat top only
    created = []
    init, Jet.__init__ = _recording_constructor(created)
    try:
        for order in (1, 2):
            F._bump_jet(x, np.zeros(3), 0.9, 8, order)
            F._bump_jet(x, np.zeros(3), 0.9, None, order)
            F._cylindrical_bump_jet(x, 0.45, 8, order)
            vortex.evaluate(x, order)
            extension.evaluate(y, order)
            extension.evaluate(near, order)
    finally:
        Jet.__init__ = init
    _assert_never_written(created)


def test_a_scalar_shift_shares_its_operands_derivatives():
    a = _random_jet(np.random.default_rng(0), 3, 50, 2)
    for shifted in (a + 1.5, 1.5 + a, a - 1.5):
        assert shifted.grad is a.grad and shifted.hess is a.hess
        assert np.shares_memory(shifted.grad, a.grad) and np.shares_memory(shifted.hess, a.hess)
    assert not np.shares_memory((1.5 - a).grad, a.grad)  # c - a negates its derivatives


def _left_to_right(spec, *ops):
    """``np.einsum(spec, *ops)`` as an explicit loop over the summed labels.

    The summed labels run in the order they first appear, the last fastest;
    each term is the product of the operands' slices taken left to right, and
    the terms are added into zeros in loop order.
    """
    ins, out = spec.split("->")
    ins = ins.split(",")
    sizes = {c: k for labels, op in zip(ins, ops) for c, k in zip(labels, op.shape)}
    summed = [c for c in dict.fromkeys("".join(ins)) if c not in out]
    res = np.zeros(tuple(sizes[c] for c in out))
    for idx in itertools.product(*(range(sizes[c]) for c in summed)):
        fixed = dict(zip(summed, idx))
        term = None
        for labels, op in zip(ins, ops):
            a = op[tuple(fixed.get(c, slice(None)) for c in labels)]
            rest = [c for c in labels if c not in fixed]
            a = a.transpose(sorted(range(len(rest)), key=lambda i: out.index(rest[i])))
            a = a.reshape([sizes[c] if c in rest else 1 for c in out])
            term = a if term is None else term * a
        res += term
    return res


# every contraction of the kernels, the integrands and the derived fields, with the
# operand shapes in D (state components) and N (dimension); M is appended to each
_CONTRACTIONS = {
    "djm,jim->dim": "DN,NN",  # grad u . grad eta, grad u . (grad eta)^2
    "ijm,jkm->ikm": "NN,NN",  # (grad eta)^2 in zeta_eta
    "ijkm,jm->ikm": "NNN,N",  # D^2 eta . eta in zeta_eta
    "djim,jm->dim": "DNN,N",  # D^2 u . eta in composite_test_function
    "ijm,jm->im": "NN,N",  # mat-vecs of zeta_eta and x0_field
    "djm,jm->dm": "DN,N",
    "dim,im->dm": "DN,N",
    "dim,dim->m": "DN,DN",  # reductions
    "dm,dm->m": "D,D",
    "km,km->m": "N,N",
    "ijm,jim->m": "NN,NN",
    "iim->m": "NN",
    "jjkm->km": "NNN",
    "ijim,jm->m": "NNN,N",
    "abm,am,bm->m": "DD,D,D",
    "dijm,im,jm->dm": "DNN,N,N",
    "km,knm->nm": "N,NN",  # the chain rule of normal_extension
    "klm,knm,lom->nom": "NN,NN,NN",
    "km,im->ikm": "N,N",
}


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(sorted(_CONTRACTIONS)), m=st.integers(2, 9000),
       d=st.sampled_from([1, 2]), n=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
@example(spec="djm,jim->dim", m=4097, d=2, n=3, seed=0)
@example(spec="dim,dim->m", m=8193, d=2, n=3, seed=1)  # one point past einsum's buffer
@example(spec="klm,knm,lom->nom", m=8193, d=1, n=3, seed=2)
def test_component_major_contractions_sum_left_to_right_bit_for_bit(spec, m, d, n, seed):
    # With the point axis last and contiguous, einsum adds each point's terms into zeros in
    # index order; a length-1 point axis is dropped by numpy's iterator, which then sums the
    # short axes in its own (SIMD) order, so M starts at 2.  Signed zeros too: a sum of
    # zeros added into +0 is +0.
    rng = np.random.default_rng(seed)
    ops = [np.where(rng.random(shape) < 0.1, -0.0, rng.standard_normal(shape))
           for shape in (tuple({"D": d, "N": n}[c] for c in labels) + (m,)
                         for labels in _CONTRACTIONS[spec].split(","))]
    want, got = _left_to_right(spec, *ops), np.einsum(spec, *ops)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from(["sphere", "flat"]), seed=st.integers(0, 2**16))
def test_normal_extension_truncates_exactly_and_matches_fd(shape, seed):
    rng = np.random.default_rng(seed)
    if shape == "sphere":
        g = G.sphere(1.0, n_polar=6, n_azimuth=12)
        x = rng.normal(size=(7, 3))
        x *= rng.uniform(0.7, 1.3, size=(7, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    else:
        g = G.flat_patch(2, axis=0, n_per_axis=8)
        x = np.stack([rng.uniform(-0.4, 0.4, 7), rng.uniform(-1.0, 1.0, 7)], axis=1)
    xi = F.random_polynomial_scalar_field(rng, g.dim, degree=2)
    _check_orders(G.normal_extension(g, xi, 0.5).evaluate, x, h=1e-6)


_BUILTIN_FIELDS = {
    "polynomial": lambda rng: F.random_polynomial_scalar_field(rng, 3),
    "trig": lambda rng: F.trig_scalar_field(2, [(0.7, [1.0, 2.0], 0.3, "sin"),
                                                (0.2, [0.0, 1.5], 0.0, "cos")]),
    "radial_bump": lambda rng: F.bump_scalar_field([0.1, 0.0], 1.2),
    "exp_bump": lambda rng: F.bump_scalar_field([0.1, 0.0], 1.2, order=None),
    "bump_polynomial": lambda rng: F.random_compact_vector_field(rng, 3, radius=1.6),
    "filament_bend": lambda rng: F.filament_test_field("bend", radius=1.5),
    "ansatz_sphere": lambda rng: P.ansatz_field(G.sphere(1.0, n_polar=6, n_azimuth=12), 0.05,
                                                P.optimal_profile(1.5)),
    "ansatz_flat": lambda rng: P.ansatz_field(G.flat_patch(2), 0.1, P.optimal_profile(2.0)),
    "tanh_profile": lambda rng: P.tanh_profile_field(G.circle(1.0, n_nodes=16), 0.1),
    "vortex_straight": lambda rng: P.gl_vortex_field(G.straight_filament(), 0.05,
                                                     P.gl_radial_profile()),
    "vortex_circular": lambda rng: P.gl_vortex_field(G.circular_filament(1.0), 0.05,
                                                     P.gl_radial_profile()),
    "normal_extension": lambda rng: G.normal_extension(
        G.sphere(1.0, n_polar=6, n_azimuth=12), F.random_polynomial_scalar_field(rng, 3), 0.5),
    "zeta_eta": lambda rng: F.zeta_eta(F.random_compact_vector_field(rng, 3, radius=1.6)),
    "composite": lambda rng: V.composite_test_function(
        P.ansatz_field(G.sphere(1.0, n_polar=6, n_azimuth=12), 0.05, P.optimal_profile(2.0)),
        F.random_compact_vector_field(rng, 3, radius=1.6)),
    "sum": lambda rng: F.random_compact_vector_field(rng, 3) + 0.5 * F.dilation_field(3, 0.2),
}


@pytest.mark.parametrize("name", sorted(_BUILTIN_FIELDS))
def test_lower_orders_are_bit_identical_prefixes(name):
    rng = np.random.default_rng(31)
    field = _BUILTIN_FIELDS[name](rng)
    x = rng.uniform(-1.0, 1.0, size=(40, field.dim))
    x[:2] = 0.0
    x[:2, 0] = (0.5, 1.0)  # on the straight and the circular vortex axes
    full = field.evaluate(x, 2)
    for order in (0, 1):
        part = field.evaluate(x, order)
        assert len(part) == order + 1
        for a, b in zip(part, full):
            np.testing.assert_array_equal(a, b)


def _counting(calls, name, jet_fn, nodes=None):
    """jet_fn, recording (name, order) in ``calls`` and the node array in ``nodes`` per call."""

    def counted(xb, order):
        calls.append((name, order))
        if nodes is not None:
            nodes.append(xb)
        return jet_fn(xb, order)

    return counted


def _counted_fields(calls, dim=2, nodes=None):
    """u, phi, eta, zeta whose jet functions record (name, order) on each call."""
    rng = np.random.default_rng(8)
    terms = F._random_terms(rng, dim, 3, 1.0)
    u = F.ScalarField.from_jet(dim, _counting(
        calls, "u", lambda xb, order: jet_polynomial(xb, terms, order), nodes))
    phi = F.ScalarField.from_jet(dim, _counting(
        calls, "phi", lambda xb, order: F._bump_jet(xb, np.zeros(dim), 0.9, 8, order), nodes))

    def bumped(comps):
        return lambda xb, order: [jet_polynomial(xb, c, order)
                                  * F._bump_jet(xb, np.zeros(dim), 0.9, 8, order) for c in comps]

    eta, zeta = (F.VectorField.from_jets(dim, _counting(
        calls, name, bumped([F._random_terms(rng, dim, 2, 1.0) for _ in range(dim)]), nodes))
        for name in ("eta", "zeta"))
    return u, phi, eta, zeta


def test_each_kernel_evaluates_each_field_once_at_order_one():
    calls = []
    u, phi, eta, zeta = _counted_fields(calls)
    quad = V.tensor_grid([[-1.0, 1.0]] * 2, 8)
    f = V.integrand_p_allen_cahn(0.7, 2.0)
    state = [(obj, dict(vars(obj))) for obj in (u, phi, eta, zeta)]
    kernels = [
        (lambda: V.energy(f, u, quad), ["u"]),
        (lambda: V.first_variation(f, u, phi, quad), ["u", "phi"]),
        (lambda: V.second_variation(f, u, phi, quad), ["u", "phi"]),
        (lambda: V.first_inner_variation(f, u, eta, quad), ["u", "eta"]),
        (lambda: V.second_inner_variation(f, u, eta, zeta, quad), ["u", "eta", "zeta"]),
        (lambda: V.inner_variation_oracle(f, u, eta, zeta, quad), ["u", "eta", "zeta"]),
        (lambda: F.det_expansion(eta, zeta, quad.nodes), ["eta", "zeta"]),
        (lambda: (eta + 0.5 * zeta).evaluate(quad.nodes, 1), ["eta", "zeta"]),
        (lambda: L.perturbed_field(u, eta, F.dilation_field(2, 1.0), G.circle(0.5, n_nodes=32),
                                   quad), ["u", "eta"]),
    ]
    for run, names in kernels:
        calls.clear()
        run()
        assert sorted(calls) == sorted((name, 1) for name in names)
    for obj, attrs in state:  # nothing evaluated stays on a field
        assert vars(obj) == attrs


def test_derived_fields_evaluate_each_parent_once_one_order_higher():
    calls = []
    u, _phi, eta, zeta = _counted_fields(calls)
    x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(9, 2))
    cases = [
        (V.composite_test_function(u, eta), 1, [("u", 2), ("eta", 1)]),
        (F.zeta_eta(eta), 1, [("eta", 2)]),
        (F.zeta_eta(eta), 0, [("eta", 1)]),
        (F.x0_field(u, eta, zeta), 0, [("u", 2), ("eta", 1), ("zeta", 1)]),
    ]
    for field, order, expected in cases:
        calls.clear()
        field.evaluate(x, order)
        assert sorted(calls) == sorted(expected)


def _recording_tubes(monkeypatch):
    """The tube rules the sweeps build, in order."""
    tubes, build = [], L._ac_tube

    def recorded(*args, **kwargs):
        quad, s_end = build(*args, **kwargs)
        tubes.append(quad)
        return quad, s_end

    monkeypatch.setattr(L, "_ac_tube", recorded)
    return tubes


def test_forms_sweep_evaluates_u_and_v_once_per_width_on_the_tube_nodes(monkeypatch):
    calls, nodes = [], []
    g = G.sphere(1.0, n_polar=6, n_azimuth=12)
    g.distance_jet = _counting(calls, "u", g.distance_jet, nodes)
    tubes = _recording_tubes(monkeypatch)
    extend = G.normal_extension

    def counted_extension(*args):
        v_ext = extend(*args)
        v_ext._evaluator = _counting(calls, "V", v_ext._evaluator, nodes)
        return v_ext

    monkeypatch.setattr(L.geo, "normal_extension", counted_extension)
    xi = F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
    L.quadratic_forms(g, xi, L.EpsilonSchedule([0.1, 0.08]))
    assert calls == [("V", 2), ("u", 2)] * 2  # V first: its jets are the width's largest
    assert all(x is quad.nodes for x, quad in zip(nodes, [t for t in tubes for _ in "Vu"]))


def test_sweeps_evaluate_the_ansatz_once_per_width_at_order_one(monkeypatch):
    calls, nodes = [], []
    g = G.sphere(1.0, n_polar=6, n_azimuth=12)
    g.distance_jet = _counting(calls, "u", g.distance_jet, nodes)  # one call per ansatz evaluation
    tubes = _recording_tubes(monkeypatch)
    sched = L.EpsilonSchedule([0.1, 0.08])
    phi = F.bump_scalar_field([0.0, 0.0, 0.0], 1.8)
    eta = F.random_compact_vector_field(np.random.default_rng(3), 3, radius=1.4)
    for sweep in (lambda: L.equipartition_residuals(g, 2.0, sched),
                  lambda: L.tensor_pairing_experiment(g, 2.0, phi, [0, 0], sched),
                  lambda: L.ac_limit_experiment(g, eta, F.zeta_eta(eta), 2.0, sched)):
        del calls[:], nodes[:], tubes[:]
        sweep()
        assert calls == [("u", 1)] * 2
        assert all(x is quad.nodes for x, quad in zip(nodes, tubes))
    calls.clear()
    fil = G.straight_filament(1.0, 8)
    fil.transverse_jets = _counting(calls, "u", fil.transverse_jets)
    bend = F.filament_test_field("bend")
    L.gl_limit_experiment(fil, bend, F.zeta_eta(bend), L.EpsilonSchedule([0.04, 0.03]),
                          rho_max=0.4, n_theta=8)
    assert calls == [("u", 1)] * 2


def test_variation_report_evaluates_each_field_once_on_the_quadrature_nodes():
    calls, nodes = [], []
    u, _phi, eta, zeta = _counted_fields(calls, nodes=nodes)
    quad = V.tensor_grid([[-1.0, 1.0]] * 2, 8)
    V.variation_report(V.integrand_p_allen_cahn(0.7, 2.0), u, eta, zeta, quad)
    on_nodes = [call for call, x in zip(calls, nodes) if x is quad.nodes]
    assert sorted(on_nodes) == [("eta", 1), ("u", 2), ("zeta", 1)]  # X0's FD stencils aside


def test_volume_admissibility_evaluates_eta_once_at_order_two():
    calls = []
    _u, _phi, eta, _zeta = _counted_fields(calls)
    disk = G.circle(0.8, n_nodes=32)
    c1, c2 = L.volume_admissibility(disk, eta)
    assert calls == [("eta", 2)]
    assert (c1, c2) == L.volume_admissibility(disk, eta, F.zeta_eta(eta))  # bit for bit


def test_normal_extension_evaluates_xi_once_at_the_jet_order():
    calls = []
    g = G.sphere(1.0, n_polar=6, n_azimuth=12)
    terms = F._random_terms(np.random.default_rng(2), 3, 2, 1.0)
    xi = F.ScalarField.from_jet(3, _counting(
        calls, "xi", lambda xb, order: jet_polynomial(xb, terms, order)))
    ext = G.normal_extension(g, xi, 0.5)
    x = 1.1 * g.nodes[:5]
    for order in (1, 2):
        calls.clear()
        ext.evaluate(x, order)
        assert calls == [("xi", order)]


def test_strided_callable_parts_give_the_contiguous_kernel_values():
    # numpy's einsum may sum in another order on strided inputs; a gradient callable
    # that hands out a transposed view must not move a kernel value by one bit
    rng = np.random.default_rng(3)
    k = np.arange(1.0, 4.0)
    sym = rng.normal(size=(3, 3))
    sym = sym + sym.T

    def fn(xb):
        return np.sin(xb @ k) + 0.5 * np.einsum("mi,ij,mj->m", xb, sym, xb)

    def grad_rows(xb):  # (N, M): one row per coordinate
        return k[:, None] * np.cos(xb @ k)[None, :] + sym @ xb.T

    def hess(xb):
        return -np.sin(xb @ k)[:, None, None] * np.outer(k, k)[None] + sym[None]

    u_view = F.ScalarField(3, fn, lambda xb: grad_rows(xb).T, hess)
    u_flat = F.ScalarField(3, fn, lambda xb: np.ascontiguousarray(grad_rows(xb).T), hess)
    eta = F.VectorField(3, lambda x: np.stack([np.sin(x[:, 1]), x[:, 0] * x[:, 2],
                                               np.cos(x[:, 0])], axis=1))
    zeta = F.zeta_eta(eta)
    xb = rng.normal(size=(900, 3))
    quad = V.BulkQuadrature(xb, np.full(len(xb), 1.0 / len(xb)))
    f = V.integrand_dirichlet(1)
    assert np.array_equal(F.x0_field(u_view, eta, zeta).evaluate(xb, 0)[0],
                          F.x0_field(u_flat, eta, zeta).evaluate(xb, 0)[0])
    assert V.sv_relation_residual(f, u_view, eta, zeta, quad) == \
        V.sv_relation_residual(f, u_flat, eta, zeta, quad)
    assert V.variation_report(f, u_view, eta, zeta, quad) == \
        V.variation_report(f, u_flat, eta, zeta, quad)
