"""Interfaces, surface quadrature, and the surface functionals."""

import numpy as np
import pytest

from innervar import fields as F
from innervar import geometry as G
from innervar.errors import TubeTooNarrow


def zero_field(dim):
    return F.constant_field(np.zeros(dim))


# ---------------------------------------------------------------------------
# frames, weights, curvatures
# ---------------------------------------------------------------------------


def test_quadrature_weights_sum_to_measure():
    assert G.surface_integral(G.sphere(1.3), lambda x: np.ones(len(x))) == pytest.approx(
        4 * np.pi * 1.3**2, abs=1e-10
    )
    assert G.surface_integral(G.circle(0.7), lambda x: np.ones(len(x))) == pytest.approx(
        2 * np.pi * 0.7, abs=1e-10
    )
    patch = G.flat_patch(3)
    assert G.surface_integral(patch, lambda x: np.ones(len(x))) == pytest.approx(4.0, abs=1e-10)


def test_frame_orthonormality():
    for g in (G.sphere(1.0), G.circle(2.0), G.flat_patch(3)):
        t = g.tangents
        gram = np.einsum("mki,mli->mkl", t, t)
        eye = np.eye(t.shape[1])
        assert np.max(np.abs(gram - eye)) <= 1e-12
        assert np.max(np.abs(np.einsum("mki,mi->mk", t, g.normals))) <= 1e-12


def test_filament_frames():
    for g in (G.straight_filament(16), G.circular_filament(0.8, 64)):
        assert np.max(np.abs(np.einsum("mi,mi->m", g.frame_p, g.frame_q))) <= 1e-12
        assert np.max(np.abs(np.einsum("mi,mi->m", g.frame_p, g.frame_p) - 1)) <= 1e-12
        assert np.max(np.abs(np.einsum("mki,mi->mk", g.tangents, g.frame_p))) <= 1e-12


def test_curvature_closed_forms():
    sp = G.sphere(2.0)
    assert np.allclose(sp.curvatures.sum(axis=1), 2 / 2.0)  # mean curvature 2/R
    assert np.allclose((sp.curvatures**2).sum(axis=1), 2 / 2.0**2)  # |A|^2 = 2/R^2
    ci = G.circle(0.5)
    assert np.allclose(ci.curvatures.sum(axis=1), 1 / 0.5)
    assert np.allclose(G.flat_patch(2).curvatures, 0.0)


def test_surface_integral_monomial_on_sphere():
    # int x1^2 over the unit sphere is 4 pi / 3; doubled resolution agrees
    coarse = G.sphere(1.0, n_polar=16, n_azimuth=32)
    fine = G.sphere(1.0, n_polar=32, n_azimuth=64)
    f = lambda x: x[:, 0] ** 2
    v1, v2 = G.surface_integral(coarse, f), G.surface_integral(fine, f)
    assert v1 == pytest.approx(4 * np.pi / 3, abs=1e-10)
    assert v1 == pytest.approx(v2, abs=1e-10)


# ---------------------------------------------------------------------------
# second inner variation of the surface measure
# ---------------------------------------------------------------------------


def test_circle_dilation_has_zero_second_variation():
    # length 2 pi R (1 + a t) is linear in t
    g = G.circle(1.2)
    v = G.area_second_inner_variation(g, F.linear_field(0.4 * np.eye(2)), zero_field(2))
    assert v == pytest.approx(0.0, abs=1e-12)


def test_sphere_dilation_second_variation():
    # area 4 pi R^2 (1 + a t)^2 gives 8 pi R^2 a^2
    r, a = 1.0, 0.37
    g = G.sphere(r)
    v = G.area_second_inner_variation(g, F.linear_field(a * np.eye(3)), zero_field(3))
    assert v == pytest.approx(8 * np.pi * r * r * a * a, rel=1e-12)


def test_rigid_rotation_preserves_area():
    g = G.sphere(1.0)
    rot = F.rotation_field([0.2, -0.5, 0.7])
    v = G.area_second_inner_variation(g, rot, F.zeta_eta(rot))
    assert abs(v) <= 1e-8


def test_rigid_motion_invariance_constant_field():
    g = G.sphere(1.0)
    const = F.constant_field([0.3, -0.1, 0.2])
    v = G.area_second_inner_variation(g, const, F.zeta_eta(const))
    assert abs(v) <= 1e-8


def test_second_variation_matches_pushforward_fd():
    rng = np.random.default_rng(3)
    g = G.sphere(1.0)
    eta = F.random_compact_vector_field(rng, 3, F.bump_scalar_field(np.zeros(3), 1.6))
    zeta = F.random_compact_vector_field(rng, 3, F.bump_scalar_field(np.zeros(3), 1.6))
    h = 1e-3
    vals = [G.pushforward_area(g, eta, zeta, t) for t in (-2 * h, -h, 0.0, h, 2 * h)]
    d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    sv = G.area_second_inner_variation(g, eta, zeta)
    assert abs(sv - d2) <= 1e-5 * max(1.0, abs(sv))


@pytest.mark.parametrize(
    "shape",
    [
        lambda: G.circle(0.9, n_nodes=128),
        lambda: G.sphere(1.0, n_polar=20, n_azimuth=40),
        lambda: G.flat_patch(2, n_per_axis=32),
        lambda: G.flat_patch(3, n_per_axis=16),
        lambda: G.straight_filament(16),
        lambda: G.circular_filament(0.8, 96),
    ],
)
def test_second_variation_oracle_all_shapes(shape):
    g = shape()
    rng = np.random.default_rng(g.dim + g.n_nodes)
    bump = F.bump_scalar_field(np.zeros(g.dim), 1.8)
    eta = F.random_compact_vector_field(rng, g.dim, bump)
    zeta = F.random_compact_vector_field(rng, g.dim, bump)
    h = 1e-3
    vals = [G.pushforward_area(g, eta, zeta, t) for t in (-2 * h, -h, 0.0, h, 2 * h)]
    fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    sv = G.area_second_inner_variation(g, eta, zeta)
    assert abs(sv - fd) <= max(1e-6, 1e-4 * abs(sv))


def test_pushforward_area_basics():
    g = G.sphere(1.4)
    eta = F.linear_field(0.25 * np.eye(3))
    assert G.pushforward_area(g, eta, zero_field(3), 0.0) == pytest.approx(g.measure, rel=1e-12)
    t = 0.05
    assert G.pushforward_area(g, eta, zero_field(3), t) == pytest.approx(
        4 * np.pi * 1.4**2 * (1 + 0.25 * t) ** 2, rel=1e-12
    )


def test_pushforward_doubled_resolution():
    rng = np.random.default_rng(8)
    eta = F.random_compact_vector_field(rng, 3, F.bump_scalar_field(np.zeros(3), 1.6))
    zeta = F.random_compact_vector_field(rng, 3, F.bump_scalar_field(np.zeros(3), 1.6))
    a = G.pushforward_area(G.sphere(1.0, n_polar=24, n_azimuth=48), eta, zeta, 1e-2)
    b = G.pushforward_area(G.sphere(1.0, n_polar=48, n_azimuth=96), eta, zeta, 1e-2)
    assert abs(a - b) <= 1e-8 * abs(b)


# ---------------------------------------------------------------------------
# discrepancy integrals
# ---------------------------------------------------------------------------


def test_ac_discrepancy_sphere_dilation():
    r, a = 1.1, 0.6
    g = G.sphere(r)
    assert G.ac_discrepancy(g, F.linear_field(a * np.eye(3))) == pytest.approx(
        a * a * 4 * np.pi * r * r, rel=1e-12
    )


def test_ac_discrepancy_tangent_field_vanishes():
    # field with vanishing normal component of the normal derivative on the patch
    g = G.flat_patch(2)
    eta = F.polynomial_vector_field(2, [[], [(0.7, (0, 1)), (0.3, (1, 0))]])
    assert G.ac_discrepancy(g, eta) == pytest.approx(0.0, abs=1e-14)


def test_ac_discrepancy_polynomial_doubled_resolution():
    eta = F.polynomial_vector_field(
        2, [[(0.4, (1, 0)), (-0.2, (1, 2))], [(0.3, (0, 1)), (0.1, (2, 1))]]
    )
    a = G.ac_discrepancy(G.flat_patch(2, n_per_axis=32), eta)
    b = G.ac_discrepancy(G.flat_patch(2, n_per_axis=64), eta)
    assert abs(a - b) <= 1e-9


def test_gl_discrepancy_antiholomorphic_mode():
    g = G.straight_filament(24)
    eta = F.polynomial_vector_field(3, [[], [(1.0, (0, 1, 0))], [(-1.0, (0, 0, 1))]])
    real, dbar = G.gl_discrepancy(g, eta)
    assert real == pytest.approx(4.0 * g.measure, rel=1e-12)
    assert dbar == pytest.approx(real, abs=1e-12)


def test_gl_discrepancy_vanishes_for_conjugate_square():
    # transverse components (Re z^2, -Im z^2): the dbar derivative vanishes on
    # the filament itself, where the integral lives
    g = G.straight_filament(24)
    eta = F.polynomial_vector_field(
        3, [[], [(1.0, (0, 2, 0)), (-1.0, (0, 0, 2))], [(-2.0, (0, 1, 1))]]
    )
    real, dbar = G.gl_discrepancy(g, eta)
    assert real == pytest.approx(0.0, abs=1e-14)
    assert dbar == pytest.approx(0.0, abs=1e-14)


def test_gl_discrepancy_two_routes_agree_pointwise():
    rng = np.random.default_rng(31)
    g = G.straight_filament(64)
    eta = F.random_polynomial_vector_field(rng, 3, degree=3)
    r1, r2 = G.gl_discrepancy_densities(g, eta)
    assert np.max(np.abs(r1 - r2)) <= 1e-10
    coarse = G.gl_discrepancy(g, eta)[0]
    fine = G.gl_discrepancy(G.straight_filament(128), eta)[0]
    assert abs(coarse - fine) <= 1e-9 * max(1.0, abs(fine))


def test_gl_discrepancy_frame_invariance_on_circular_filament():
    # the real form does not depend on the (p, q) frame; rotating the frame by
    # a constant angle leaves the densities unchanged
    g = G.circular_filament(0.9, 128)
    rng = np.random.default_rng(12)
    eta = F.random_polynomial_vector_field(rng, 3, degree=2)
    r1, _ = G.gl_discrepancy(g, eta)
    c, s = np.cos(0.6), np.sin(0.6)
    g2 = G.circular_filament(0.9, 128)
    g2.frame_p, g2.frame_q = c * g.frame_p + s * g.frame_q, -s * g.frame_p + c * g.frame_q
    r2, d2 = G.gl_discrepancy(g2, eta)
    assert r1 == pytest.approx(r2, rel=1e-12)
    assert r2 == pytest.approx(d2, abs=1e-12)


# ---------------------------------------------------------------------------
# stability form
# ---------------------------------------------------------------------------


def test_jacobi_form_degree_one_harmonic():
    g = G.sphere(1.0)
    xi = F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
    assert G.jacobi_form(g, xi) == pytest.approx(0.0, abs=1e-10)


def test_jacobi_form_constant():
    g = G.sphere(1.0)
    xi = F.polynomial_scalar_field(3, [(1.0, (0, 0, 0))])
    assert G.jacobi_form(g, xi) == pytest.approx(-8 * np.pi, rel=1e-12)


def test_jacobi_form_flat_periodic_sine():
    g = G.flat_patch(2)
    xi = F.ScalarField(2, lambda x: np.sin(np.pi * x[:, 1]),
                       lambda x: np.stack([0.0 * x[:, 0], np.pi * np.cos(np.pi * x[:, 1])], axis=1))
    val = G.jacobi_form(g, xi)
    grad_sq = G.surface_integral(g, lambda x: np.pi**2 * np.cos(np.pi * x[:, 1]) ** 2)
    assert val > 0
    assert val == pytest.approx(grad_sq, rel=1e-12)


def test_quadratic_form_limit_alias():
    g = G.sphere(1.0)
    xi = F.polynomial_scalar_field(3, [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))])
    assert G.quadratic_form_limit(g, xi) == G.jacobi_form(g, xi)


def test_jacobi_form_nonnegative_on_mean_zero_harmonics():
    # volume-constrained stability of the sphere: J >= 0 on mean-zero modes
    g = G.sphere(1.0)
    harmonics = [
        F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))]),
        F.polynomial_scalar_field(3, [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))]),
        F.polynomial_scalar_field(3, [(1.0, (1, 1, 0))]),
        # degree 3: x3 (5 x3^2 - 3 r^2) restricted; use harmonic polynomial form
        F.polynomial_scalar_field(3, [(2.0, (0, 0, 3)), (-3.0, (2, 0, 1)), (-3.0, (0, 2, 1))]),
        # degree 4 zonal harmonic
        F.polynomial_scalar_field(
            3,
            [(8.0, (0, 0, 4)), (-24.0, (2, 0, 2)), (-24.0, (0, 2, 2)),
             (3.0, (4, 0, 0)), (6.0, (2, 2, 0)), (3.0, (0, 4, 0))],
        ),
    ]
    rng = np.random.default_rng(5)
    for _ in range(10):
        coeffs = rng.normal(size=len(harmonics))
        terms = []
        for c, h in zip(coeffs, harmonics):
            val = h.eval(g.nodes)
            terms.append(c * val)
        xi_vals = np.sum(terms, axis=0)
        mean = np.sum(g.weights * xi_vals)
        assert abs(mean) <= 1e-10
        combined = F.ScalarField(
            3,
            lambda xb, cs=coeffs: np.sum([c * h.eval(xb) for c, h in zip(cs, harmonics)], axis=0),
            lambda xb, cs=coeffs: np.sum(
                [c * h.gradient(xb) for c, h in zip(cs, harmonics)], axis=0
            ),
        )
        assert G.jacobi_form(g, combined) >= -1e-8


def test_product_rule_puts_the_first_axis_slowest():
    nodes, w = G.product_rule([(np.array([0.0, 1.0]), np.array([1.0, 2.0])),
                               (np.array([5.0, 6.0, 7.0]), np.array([1.0, 10.0, 100.0]))])
    assert nodes.tolist() == [[0, 5], [0, 6], [0, 7], [1, 5], [1, 6], [1, 7]]
    assert w.tolist() == [1, 10, 100, 2, 20, 200]


def test_flat_patch_needs_dimension_two_or_three():
    from innervar.errors import DimensionMismatch

    for dim in (1, 4):
        with pytest.raises(DimensionMismatch):
            G.flat_patch(dim)


def test_tube_widths_belong_to_the_shape():
    # 0.9 focal widths bound every tube; where that is infinite the default is one unit
    curved = (G.sphere(2.0, n_polar=4, n_azimuth=8), G.circle(0.5, n_nodes=8),
              G.circular_filament(0.5, n_nodes=8))
    for g in curved:
        assert g.tube_limit == g.default_half_width == 0.9 * g.focal_width
    for g in (G.flat_patch(2, n_per_axis=4), G.flat_patch(3, n_per_axis=4),
              G.straight_filament(n_nodes=4)):
        assert g.tube_limit == np.inf and g.default_half_width == 1.0


@pytest.mark.parametrize("g", [
    G.circle(1.3, n_nodes=8),
    G.sphere(0.8, n_polar=4, n_azimuth=8),
    G.flat_patch(2, n_per_axis=4),
    G.flat_patch(3, n_per_axis=4),
], ids=["circle", "sphere", "flat2", "flat3"])
def test_normal_coordinates_are_distance_foot_and_normal(g):
    rng = np.random.default_rng(5)
    x = (g.nodes[rng.integers(0, g.n_nodes, 12)]
         + rng.uniform(-0.3, 0.3, 12)[:, None] * g.normals[0])
    x += rng.normal(scale=0.05, size=x.shape)

    def components(xb):
        """The distance's jet, then the foot point's and the normal's component by component."""
        d, foot, normal = g.normal_coordinates(xb, 2)
        for jet in (foot, normal):  # one jet each, with a component axis
            assert jet.val.shape == (g.dim, len(xb)) and jet.grad.shape == (g.dim, g.dim, len(xb))
            assert jet.hess.shape == (g.dim, g.dim, g.dim, len(xb))
        return [d] + [foot[i] for i in range(g.dim)] + [normal[i] for i in range(g.dim)]

    d, foot, normal = g.normal_coordinates(x, 2)
    foot, normal = foot.val.T, normal.val.T
    np.testing.assert_allclose(d.val, g.distance_jet(x, 2).val, atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(normal, axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(foot + d.val[:, None] * normal, x, atol=1e-14)
    np.testing.assert_allclose(g.distance_jet(foot, 2).val, 0.0, atol=1e-14)
    # first and second derivatives of each jet against central differences of the one before
    flat = components(x)
    h = 1e-5
    for k in range(g.dim):
        step = np.zeros(g.dim)
        step[k] = h
        for j, ju, jd in zip(flat, components(x + step), components(x - step)):
            np.testing.assert_allclose(j.grad[k], (ju.val - jd.val) / (2 * h), atol=1e-8)
            np.testing.assert_allclose(j.hess[k], (ju.grad - jd.grad) / (2 * h), atol=1e-6)


# ---------------------------------------------------------------------------
# normal extension
# ---------------------------------------------------------------------------


def test_normal_extension_constant_on_sphere():
    g = G.sphere(1.0)
    xi = F.polynomial_scalar_field(3, [(0.7, (0, 0, 0))])
    eta = G.normal_extension(g, xi, 0.9)
    # on the interface the field is 0.7 x/|x| and constant along rays
    np.testing.assert_allclose(eta.eval(g.nodes), 0.7 * g.normals, atol=1e-12)
    je = eta.jacobian(g.nodes)
    val = np.einsum("mi,mij,mj->m", g.normals, je, g.normals)
    assert np.max(np.abs(val)) <= 1e-10


def test_normal_extension_harmonic_fd_along_normal():
    g = G.sphere(1.0)
    xi = F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
    eta = G.normal_extension(g, xi, 0.9)
    np.testing.assert_allclose(
        eta.eval(g.nodes), g.nodes[:, 2:3] * g.normals, atol=1e-12
    )
    h = 1e-5
    up = eta.eval(g.nodes + h * g.normals)
    dn = eta.eval(g.nodes - h * g.normals)
    normal_deriv = np.einsum("mi,mi->m", (up - dn) / (2 * h), g.normals)
    assert np.max(np.abs(normal_deriv)) <= 1e-10


def test_normal_extension_flat_patch():
    g = G.flat_patch(2)
    xi = F.polynomial_scalar_field(2, [(1.0, (0, 1))])
    eta = G.normal_extension(g, xi, 0.5)
    np.testing.assert_allclose(eta.eval(g.nodes)[:, 0], g.nodes[:, 1], atol=1e-13)
    np.testing.assert_allclose(eta.eval(g.nodes)[:, 1], 0.0, atol=1e-13)
    far = np.array([[0.9, 0.3]])  # beyond the cutoff the extension vanishes
    np.testing.assert_allclose(eta.eval(far), 0.0, atol=1e-15)


def test_normal_extension_tube_too_narrow():
    g = G.sphere(1.0)
    xi = F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
    with pytest.raises(TubeTooNarrow):
        G.normal_extension(g, xi, 1.5)


# ---------------------------------------------------------------------------
# shape configs
# ---------------------------------------------------------------------------


def test_shape_from_config_rejects_bad_descriptors():
    g = G.shape_from_config({"type": "sphere", "radius": 1.0, "n_polar": 8, "n_azimuth": 16})
    assert g.dim == 3 and g.n_nodes == 8 * 16
    from innervar.errors import ConfigError

    with pytest.raises(ConfigError):
        G.shape_from_config({"type": "sphere", "radius": 1.0, "bogus": 2})
    with pytest.raises(ConfigError, match="radius"):
        G.shape_from_config({"type": "sphere"})


# ---------------------------------------------------------------------------
# distance and transverse jets against finite differences
# ---------------------------------------------------------------------------


def _fd_jacobian(fn, x, h=1e-5):
    """Central differences of a batched map fn: (M, N) -> (M, ...), derivative axis last."""
    cols = []
    for j in range(x.shape[1]):
        dx = np.zeros_like(x)
        dx[:, j] = h
        cols.append((fn(x + dx) - fn(x - dx)) / (2 * h))
    return np.stack(cols, axis=-1)


def _check_jet_against_fd(jet_fn, x):
    """Jets are component-major, grad (N, M) and hess (N, N, M); derivative axis last here."""
    jet = jet_fn(x)
    grad_fd = _fd_jacobian(lambda y: jet_fn(y).val, x)
    hess_fd = _fd_jacobian(lambda y: jet_fn(y).grad.T, x)
    np.testing.assert_allclose(jet.grad.T, grad_fd, atol=1e-8)
    np.testing.assert_allclose(jet.hess.transpose(2, 0, 1), hess_fd, atol=1e-7)
    return jet


@pytest.mark.parametrize("g, distance", [
    (G.circle(0.7, n_nodes=32), lambda x: np.linalg.norm(x, axis=1) - 0.7),
    (G.sphere(1.3, n_polar=6, n_azimuth=12), lambda x: np.linalg.norm(x, axis=1) - 1.3),
    (G.flat_patch(3, n_per_axis=4), lambda x: x[:, 0]),
], ids=["circle", "sphere", "flat_patch"])
def test_distance_jet_matches_fd_oracle(g, distance):
    rng = np.random.default_rng(5)
    off = g.nodes + rng.uniform(-0.3, 0.3, size=(1, 1)) * g.normals \
        + rng.uniform(-0.05, 0.05, size=g.nodes.shape)
    jet = _check_jet_against_fd(g.distance_jet, off)
    np.testing.assert_allclose(jet.val, distance(off), atol=1e-14)
    on = g.distance_jet(g.nodes)
    np.testing.assert_allclose(on.val, 0.0, atol=1e-14)
    np.testing.assert_allclose(on.grad.T, g.normals, atol=1e-14)  # the normal on Gamma


@pytest.mark.parametrize("g, chart", [
    # chart: (s, a, b) -> point at arc length s and transverse offsets (a, b)
    (G.straight_filament(8), lambda s, a, b: np.stack([s, a, b], axis=1)),
    (G.circular_filament(0.8, 16),
     lambda s, a, b: np.stack([(0.8 + a) * np.cos(s / 0.8), (0.8 + a) * np.sin(s / 0.8), b],
                              axis=1)),
], ids=["straight_filament", "circular_filament"])
def test_transverse_jets_and_tube_jacobian_match_fd_oracle(g, chart):
    rng = np.random.default_rng(6)
    sab = np.stack([rng.uniform(0.0, 1.0, 40), rng.uniform(-0.3, 0.3, 40),
                    rng.uniform(-0.3, 0.3, 40)], axis=1)
    x = chart(*sab.T)
    ab = g.transverse_jets(x)  # one jet, its two components (a, b) on a component axis
    assert ab.val.shape == (2, 40) and ab.grad.shape == (2, 3, 40)
    assert ab.hess.shape == (2, 3, 3, 40) and g.transverse_jets(x, 1).hess is None
    np.testing.assert_allclose(ab.val[0], sab[:, 1], atol=1e-14)
    np.testing.assert_allclose(ab.val[1], sab[:, 2], atol=1e-14)
    _check_jet_against_fd(lambda y: g.transverse_jets(y)[0], x)
    _check_jet_against_fd(lambda y: g.transverse_jets(y)[1], x)
    # volume element of the chart, by finite differences of the chart itself
    jac_fd = np.linalg.det(_fd_jacobian(lambda t: chart(*t.T), sab))
    np.testing.assert_allclose(g.tube_jacobian(sab[:, 1], sab[:, 2]), np.abs(jac_fd),
                               atol=1e-9)


@pytest.mark.parametrize("shape", [lambda: G.circle(0.8, n_nodes=32),
                                   lambda: G.sphere(1.0, n_polar=6, n_azimuth=12)])
def test_the_enclosed_rule_is_built_once_and_read_only(shape):
    g = shape()
    nodes, weights = G.enclosed_region_quadrature(g)
    again = G.enclosed_region_quadrature(g)
    assert again[0] is nodes and again[1] is weights
    assert not nodes.flags.writeable and not weights.flags.writeable
    fresh = G.enclosed_region_quadrature(shape())  # another shape builds its own, equal rule
    assert fresh[0] is not nodes and fresh[0].tobytes() == nodes.tobytes()
    assert fresh[1].tobytes() == weights.tobytes()
