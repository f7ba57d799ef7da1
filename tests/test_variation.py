"""Bulk variations, inner variations, the FD oracle, and the bridge identity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from innervar import fields as F
from innervar import geometry as G
from innervar import profiles as P
from innervar import variation as V
from innervar.errors import DimensionMismatch, EpsilonTooLarge, NonInvertible, UnsupportedBoundary
from innervar.jets import jet_polynomial


def state2_field(px, py):
    """Two-component field from two polynomial component tables."""
    fx = F.polynomial_scalar_field(2, px)
    fy = F.polynomial_scalar_field(2, py)

    def fn(xb):
        return np.stack([fx.eval(xb), fy.eval(xb)], axis=1)

    def grad(xb):
        return np.stack([fx.gradient(xb), fy.gradient(xb)], axis=1)

    def hess(xb):
        return np.stack([fx.hessian(xb), fy.hessian(xb)], axis=1)

    return F.ScalarField(2, fn, grad, hess, state_dim=2)


@pytest.fixture(scope="module")
def box2():
    return V.tensor_grid([[-1.0, 1.0], [-1.0, 1.0]], 40)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_tensor_grid_volume():
    q = V.tensor_grid([[0.0, 1.0], [0.0, 2.0]], 12)
    assert q.volume() == pytest.approx(2.0, abs=1e-10)


def test_tube_volume_matches_shell():
    g = G.sphere(1.0, n_polar=16, n_azimuth=32)
    d, w = G.gauss_rule(-0.3, 0.3, 12)
    quad = V.tube_rule(g, d, w)
    shell = 4.0 / 3.0 * np.pi * (1.3**3 - 0.7**3)
    assert quad.volume() == pytest.approx(shell, abs=1e-10)


def test_filament_tube_volume():
    fil = G.straight_filament(1.0, 8)
    rho, wr = G.gauss_rule(0.0, 0.2, 10)
    quad = V.filament_tube_rule(fil, rho, wr, 16)
    assert quad.volume() == pytest.approx(np.pi * 0.04, abs=1e-12)
    # curved filament picks up the bending Jacobian but keeps exact volume
    ring = G.circular_filament(0.8, 64)
    quad2 = V.filament_tube_rule(ring, rho, wr, 16)
    assert quad2.volume() == pytest.approx(2 * np.pi * 0.8 * np.pi * 0.04, rel=1e-12)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def test_energy_dirichlet_linear():
    quad = V.tensor_grid([[0.0, 1.0], [0.0, 1.0]], 16)
    u = F.polynomial_scalar_field(2, [(1.0, (1, 0))])
    assert V.energy(V.integrand_dirichlet(), u, quad) == pytest.approx(0.5, abs=1e-12)


def test_energy_phase_field_flat_ansatz():
    g = G.flat_patch(2, n_per_axis=32)
    prof = P.optimal_profile(2.0)
    eps = 0.05
    u = P.ansatz_field(g, eps, prof)
    quad = V.tube_rule(g, *P.transverse_rule(prof, eps, 1.0))
    e = V.energy(V.integrand_p_allen_cahn(eps, 2.0), u, quad)
    assert abs(e - (4.0 / 3.0) * 2.0) <= 1e-5


def test_tube_and_tensor_grid_agree_on_ansatz_energy():
    # the tensor grid is the independent cross-check integrator for tube rules
    g = G.flat_patch(2, n_per_axis=32)
    prof = P.optimal_profile(2.0)
    eps = 0.1
    u = P.ansatz_field(g, eps, prof)
    f = V.integrand_p_allen_cahn(eps, 2.0)
    e_tube = V.energy(f, u, V.tube_rule(g, *P.transverse_rule(prof, eps, 1.0)))
    e_grid = V.energy(f, u, V.tensor_grid([[-1.0, 1.0], [-1.0, 1.0]], 96))
    assert abs(e_tube - e_grid) <= 1e-7 * max(1.0, abs(e_grid))


def test_energy_gl_pure_phase_is_zero():
    u1 = F.ScalarField(
        3,
        lambda xb: np.stack([np.ones(len(xb)), np.zeros(len(xb))], axis=1),
        lambda xb: np.zeros((len(xb), 2, 3)),
        lambda xb: np.zeros((len(xb), 2, 3, 3)),
        state_dim=2,
    )
    quad = V.tensor_grid([[0.0, 1.0]] * 3, 6)
    assert V.energy(V.integrand_ginzburg_landau(0.1), u1, quad) == 0.0


def test_energy_state_mismatch():
    u = F.polynomial_scalar_field(2, [(1.0, (1, 0))])
    with pytest.raises(DimensionMismatch):
        V.energy(V.integrand_ginzburg_landau(0.1), u, V.tensor_grid([[0, 1]] * 2, 4))


# ---------------------------------------------------------------------------
# first and second variations
# ---------------------------------------------------------------------------


def test_first_variation_vanishes_at_harmonic(box2):
    u = F.polynomial_scalar_field(2, [(1.0, (1, 1))])
    phi = F.bump_scalar_field([0.1, -0.2], 0.6, 1.3)
    assert abs(V.first_variation(V.integrand_dirichlet(), u, phi, box2)) <= 1e-8


def test_first_variation_zero_direction(box2):
    u = F.polynomial_scalar_field(2, [(0.4, (2, 0)), (0.3, (0, 1))])
    phi = F.polynomial_scalar_field(2, [])
    assert V.first_variation(V.integrand_dirichlet(), u, phi, box2) == 0.0


def test_first_variation_matches_fd(box2):
    eps, p = 0.4, 2.0
    f = V.integrand_p_allen_cahn(eps, p)
    g = G.flat_patch(2, n_per_axis=32)
    prof = P.optimal_profile(2.0)
    u = P.ansatz_field(g, 0.1, prof)
    phi = F.bump_scalar_field([0.0, 0.0], 0.7, 0.8)
    quad = V.tensor_grid([[-1.0, 1.0], [-1.0, 1.0]], 60)
    h = 1e-4

    def energy_shifted(t):
        shifted = F.ScalarField(
            2,
            lambda xb: u.eval(xb) + t * phi.eval(xb),
            lambda xb: u.gradient(xb) + t * phi.gradient(xb),
        )
        return V.energy(f, shifted, quad)

    fd = (energy_shifted(h) - energy_shifted(-h)) / (2 * h)
    assert V.first_variation(f, u, phi, quad) == pytest.approx(fd, abs=1e-6)


def test_second_variation_dirichlet_is_gradient_energy(box2):
    u = F.polynomial_scalar_field(2, [(1.0, (1, 1))])
    phi = F.bump_scalar_field([0.1, -0.2], 0.6, 1.3)
    d2 = V.second_variation(V.integrand_dirichlet(), u, phi, box2)
    grad_sq = box2.integrate(lambda x: np.einsum("mi,mi->m", phi.gradient(x), phi.gradient(x)))
    assert d2 == pytest.approx(grad_sq, rel=1e-12)


def test_second_variation_phase_field_closed_form():
    # d2 E_eps(u, phi) = int eps |grad phi|^2 + 2 eps^{-1} (3u^2 - 1) phi^2
    eps = 0.3
    f = V.integrand_p_allen_cahn(eps, 2.0)
    g = G.flat_patch(2, n_per_axis=24)
    u = P.ansatz_field(g, eps, P.optimal_profile(2.0))
    phi = F.bump_scalar_field([0.0, 0.0], 0.7, 1.1)
    quad = V.tensor_grid([[-1.0, 1.0], [-1.0, 1.0]], 48)
    d2 = V.second_variation(f, u, phi, quad)

    def direct(x):
        pv = phi.eval(x)
        pg = phi.gradient(x)
        uv = u.eval(x)
        return eps * np.einsum("mi,mi->m", pg, pg) + 2.0 / eps * (3 * uv**2 - 1) * pv**2

    assert d2 == pytest.approx(quad.integrate(direct), rel=1e-12)


def test_second_variation_matches_fd():
    eps = 0.35
    f = V.integrand_p_allen_cahn(eps, 2.0)
    g = G.flat_patch(2, n_per_axis=24)
    u = P.ansatz_field(g, eps, P.optimal_profile(2.0))
    phi = F.bump_scalar_field([0.0, 0.0], 0.7, 0.9)
    quad = V.tensor_grid([[-1.0, 1.0], [-1.0, 1.0]], 48)
    h = 1e-3
    vals = []
    for t in (-2 * h, -h, 0.0, h, 2 * h):
        shifted = F.ScalarField(
            2,
            lambda xb, tt=t: u.eval(xb) + tt * phi.eval(xb),
            lambda xb, tt=t: u.gradient(xb) + tt * phi.gradient(xb),
        )
        vals.append(V.energy(f, shifted, quad))
    fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    d2 = V.second_variation(f, u, phi, quad)
    assert abs(d2 - fd) <= 1e-6 * max(1.0, abs(d2))


# ---------------------------------------------------------------------------
# inner variations
# ---------------------------------------------------------------------------


def test_first_inner_variation_bridge(box2):
    rng = np.random.default_rng(5)
    u = F.polynomial_scalar_field(2, [(0.3, (2, 0)), (0.5, (1, 1)), (-0.2, (0, 3)), (0.4, (1, 0))])
    eta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    fv_inner = V.first_inner_variation(V.integrand_dirichlet(), u, eta, box2)
    fv_outer = V.first_variation(
        V.integrand_dirichlet(), u, V.composite_test_function(u, eta), box2
    )
    assert abs(fv_inner - fv_outer) <= 1e-8


def test_first_inner_variation_constant_u(box2):
    rng = np.random.default_rng(6)
    u = F.polynomial_scalar_field(2, [(0.7, (0, 0))])
    eta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    # F(const, 0) = const density; int F div eta = 0 for compactly supported eta
    v = V.first_inner_variation(V.integrand_p_allen_cahn(0.5, 2.0), u, eta, box2)
    assert abs(v) <= 1e-10


def test_first_inner_variation_independent_of_zeta(box2):
    rng = np.random.default_rng(7)
    u = F.random_polynomial_scalar_field(rng, 2, degree=3)
    eta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    # signature has no zeta at all; cross-check against the oracle's first output
    zeta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    d1a, _ = V.inner_variation_oracle(V.integrand_dirichlet(), u, eta, zeta, box2)
    d1b, _ = V.inner_variation_oracle(
        V.integrand_dirichlet(), u, eta, F.constant_field([0.0, 0.0]), box2
    )
    closed = V.first_inner_variation(V.integrand_dirichlet(), u, eta, box2)
    assert closed == pytest.approx(d1a, abs=1e-8)
    assert closed == pytest.approx(d1b, abs=1e-8)


def test_second_inner_variation_zero_velocity(box2):
    # with eta = 0: delta2 A = int F div zeta - (F_P, grad u . grad zeta);
    # the direction-dependent term survives (it only integrates away by parts)
    rng = np.random.default_rng(8)
    u = F.polynomial_scalar_field(2, [(0.3, (2, 0)), (0.5, (1, 1)), (-0.2, (0, 3)), (0.4, (1, 0))])
    zeta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    zero = F.constant_field([0.0, 0.0])
    f = V.integrand_dirichlet()
    d2 = V.second_inner_variation(f, u, zero, zeta, box2)

    def direct(x):  # component-major parts, as the integrand takes them
        z, p = u.evaluate(x, 1)
        _, jz = zeta.evaluate(x, 1)
        divz = np.einsum("iim->m", jz)
        pjz = np.einsum("djm,jim->dim", p, jz)
        return f.f(z, p) * divz - np.einsum("dim,dim->m", f.f_p(z, p), pjz)

    assert d2 == pytest.approx(box2.integrate(direct), rel=1e-12)
    _, d2_fd = V.inner_variation_oracle(f, u, zero, zeta, box2)
    assert abs(d2 - d2_fd) <= max(1e-6, 1e-4 * abs(d2))


def test_second_inner_variation_dirichlet_oracle(box2):
    rng = np.random.default_rng(9)
    u = F.polynomial_scalar_field(2, [(1.0, (1, 1))])
    eta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    zeta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    f = V.integrand_dirichlet()
    d2 = V.second_inner_variation(f, u, eta, zeta, box2)
    _, d2_fd = V.inner_variation_oracle(f, u, eta, zeta, box2)
    assert abs(d2 - d2_fd) <= max(1e-6, 1e-4 * abs(d2))


def test_second_inner_variation_rank_four_term_matters():
    # p = 3: dropping the (p-2) tensor term must disagree with the oracle
    rng = np.random.default_rng(10)
    g = G.flat_patch(2, n_per_axis=32)
    prof = P.optimal_profile(3.0)
    eps = 0.1
    u = P.ansatz_field(g, eps, prof)
    eta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    zeta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    quad = V.tube_rule(g, *P.transverse_rule(prof, eps, 1.0))
    f3 = V.integrand_p_allen_cahn(eps, 3.0)
    d2 = V.second_inner_variation(f3, u, eta, zeta, quad)
    _, d2_fd = V.inner_variation_oracle(f3, u, eta, zeta, quad)
    assert abs(d2 - d2_fd) <= max(1e-6, 1e-4 * abs(d2))

    # rank-four contribution isolated: replace F_PP by its p = 2 form
    z, p_arr = u._values(quad.nodes), u._gradients(quad.nodes)
    je = eta.jacobian(quad.nodes)
    p_je = np.einsum("mdj,mji->mdi", p_arr, je)
    m2 = np.einsum("mdi,mdi->m", p_arr, p_arr)
    dot = np.einsum("mdi,mdi->m", p_arr, p_je)
    fac4 = eps**2 * (3.0 - 2.0) * m2 ** ((3.0 - 4.0) / 2.0)
    rank4 = float(np.sum(quad.weights * fac4 * dot**2))
    assert abs(rank4) > 1e-3
    assert d2 - rank4 != pytest.approx(d2_fd, abs=1e-6)


def test_sv_relation_identity_generic(box2):
    # the bridge holds for arbitrary u (not only critical points), as long as
    # the deformation fields are compactly supported as required; a linear
    # velocity that reaches the boundary leaves a genuine flux residual, so the
    # report, which takes dA(u, X0) by parts, refuses it
    u = F.polynomial_scalar_field(2, [(0.7, (2, 0)), (-0.4, (1, 1)), (0.3, (0, 2))])
    eta = F.bump_polynomial_field(
        2, [[(0.2, (1, 0)), (-0.3, (0, 1))], [(0.1, (1, 0)), (0.4, (0, 1))]], [0, 0], 0.9
    )
    zero = F.constant_field([0.0, 0.0])
    f = V.integrand_dirichlet()
    res = V.variation_report(f, u, eta, zero, box2).sv_relation_residual
    assert abs(res) <= 1e-8
    eta_lin = F.linear_field([[0.2, -0.3], [0.1, 0.4]])
    with pytest.raises(UnsupportedBoundary):
        V.variation_report(f, u, eta_lin, zero, box2)
    # the flux residual, from the kernels with X0's gradient by central differences
    x0 = F.x0_field(u, eta_lin, zero)
    res_lin = (V.second_inner_variation(f, u, eta_lin, zero, box2)
               - V.second_variation(f, u, V.composite_test_function(u, eta_lin), box2)
               - V.first_variation(f, u, x0, box2))
    assert abs(res_lin) > 1e-2  # precondition violation is visible, not masked


_X0_INTEGRANDS = {
    "dirichlet": V.integrand_dirichlet(),
    "p2": V.integrand_p_allen_cahn(0.7, 2.0),
    "p3": V.integrand_p_allen_cahn(0.7, 3.0),  # the rank-four term of F_PP
    "gl": V.integrand_ginzburg_landau(0.6),
}


@pytest.mark.parametrize("dim, n, bound", [(2, 40, 1e-8), (3, 24, 3e-7)])
@pytest.mark.parametrize("name", list(_X0_INTEGRANDS))
def test_x0_variation_by_parts_matches_the_fd_gradient_form(dim, n, bound, name):
    # u, eta and zeta drawn as the identities runner draws them; the oracle is dA(u, X0)
    # with X0's gradient from central differences.  Measured at this seed: at most 7.5e-10
    # of int |F_z X0 + F_P : grad X0| in 2-D and 2.1e-8 in 3-D
    f = _X0_INTEGRANDS[name]
    rng = np.random.default_rng(0)
    quad = V.tensor_grid([[-1.0, 1.0]] * dim, n)
    if f.state_dim == 1:
        u = F.random_polynomial_scalar_field(rng, dim, degree=3)
    else:
        tables = [F._random_terms(rng, dim, 3, 1.0) for _ in range(2)]
        u = F.ScalarField.from_jet(dim, lambda xb, order: jet_polynomial(xb, tables, order),
                                   state_dim=2)
    eta, zeta = (F.random_compact_vector_field(rng, dim, degree=2, radius=0.85)
                 for _ in range(2))
    u = F.pinned(u, quad.nodes, 2)
    x0 = F.x0_field(u, eta, zeta)
    by_parts = V._x0_variation(f, u, x0, quad)
    oracle = V.first_variation(f, u, x0, quad)
    z, p = u.evaluate(quad.nodes, 1)
    xv, xg = x0.evaluate(quad.nodes, 1)
    scale = quad.weights @ np.abs(np.einsum("dm,dm->m", f.f_z(z, p), xv)
                                  + np.einsum("dim,dim->m", f.f_p(z, p), xg))
    assert abs(by_parts - oracle) <= bound * scale


def test_sv_relation_critical_point(box2):
    # at a harmonic u the first-variation term itself vanishes
    rng = np.random.default_rng(12)
    u = F.polynomial_scalar_field(2, [(1.0, (1, 1))])
    eta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    zeta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    f = V.integrand_dirichlet()
    x0 = F.x0_field(u, eta, zeta)
    assert abs(V.first_variation(f, u, x0, box2)) <= 1e-8
    d2_inner = V.second_inner_variation(f, u, eta, zeta, box2)
    d2_outer = V.second_variation(f, u, V.composite_test_function(u, eta), box2)
    assert abs(d2_inner - d2_outer) <= 1e-6 * (1 + abs(d2_inner))


def test_sv_relation_zero_velocity_instance(box2):
    rng = np.random.default_rng(13)
    u = F.random_polynomial_scalar_field(rng, 2, degree=3)
    zeta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    res = V.variation_report(V.integrand_dirichlet(), u, F.constant_field([0.0, 0.0]), zeta,
                             box2).sv_relation_residual
    assert abs(res) <= 1e-8


def test_oracle_dilation_closed_form():
    # Dirichlet energy under dilation: A(t) = (1+t)^(N-2) A(0); flat in 2-D
    u = F.polynomial_scalar_field(2, [(1.0, (1, 1)), (0.5, (1, 0))])
    quad = V.tensor_grid([[-1.0, 1.0], [-1.0, 1.0]], 24)
    eta = F.dilation_field(2, 1.0)
    zero = F.constant_field([0.0, 0.0])
    d1, d2 = V.inner_variation_oracle(V.integrand_dirichlet(), u, eta, zero, quad)
    assert abs(d1) <= 1e-9 and abs(d2) <= 1e-6
    # in 3-D the same data gives (1+t) A: first derivative A, second 0
    u3 = F.polynomial_scalar_field(3, [(1.0, (1, 1, 0))])
    quad3 = V.tensor_grid([[-1.0, 1.0]] * 3, 12)
    a0 = V.energy(V.integrand_dirichlet(), u3, quad3)
    d1, d2 = V.inner_variation_oracle(
        V.integrand_dirichlet(), u3, F.dilation_field(3, 1.0), F.constant_field([0.0] * 3), quad3
    )
    assert d1 == pytest.approx(a0, rel=1e-9)
    assert abs(d2) <= 1e-5


def test_oracle_zero_fields(box2):
    # A(t) is constant; stencil cancellation leaves only rounding over h^2
    u = F.polynomial_scalar_field(2, [(0.3, (2, 1))])
    zero = F.constant_field([0.0, 0.0])
    d1, d2 = V.inner_variation_oracle(V.integrand_dirichlet(), u, zero, zero, box2)
    assert abs(d1) <= 1e-12 and abs(d2) <= 1e-9


# ---------------------------------------------------------------------------
# integrand partials
# ---------------------------------------------------------------------------


def _check_partials(f, d, n, rng, tol=1e-6):
    # component-major batches, as the kernels pass them: z (d, M), P (d, N, M)
    m = 100
    z = rng.uniform(-0.9, 0.9, size=(d, m))
    p = rng.uniform(-1.0, 1.0, size=(d, n, m))
    h = 1e-5
    # F_z
    for a in range(d):
        dz = np.zeros((d, m))
        dz[a] = h
        fd = (f.f(z + dz, p) - f.f(z - dz, p)) / (2 * h)
        assert np.max(np.abs(f.f_z(z, p)[a] - fd)) <= tol
    # F_P
    fp = f.f_p(z, p)
    for a in range(d):
        for i in range(n):
            dp = np.zeros((d, n, m))
            dp[a, i] = h
            fd = (f.f(z, p + dp) - f.f(z, p - dp)) / (2 * h)
            assert np.max(np.abs(fp[a, i] - fd)) <= tol
    # F_zz
    fzz = f.f_zz(z, p)
    for a in range(d):
        dz = np.zeros((d, m))
        dz[a] = h
        fd = (f.f_z(z + dz, p) - f.f_z(z - dz, p)) / (2 * h)
        assert np.max(np.abs(fzz[:, a] - fd)) <= tol
    # F_PP as a directional map, plus symmetry of the bilinear form
    q1 = rng.uniform(-1, 1, size=(d, n, m))
    q2 = rng.uniform(-1, 1, size=(d, n, m))
    fd = (f.f_p(z, p + h * q1) - f.f_p(z, p - h * q1)) / (2 * h)
    assert np.max(np.abs(f.f_pp_dot(z, p, q1) - fd)) <= tol
    b12 = f.pp_bilinear(z, p, q1, q2)
    b21 = f.pp_bilinear(z, p, q2, q1)
    assert np.max(np.abs(b12 - b21)) <= 1e-10


def test_integrand_partials_match_fd():
    rng = np.random.default_rng(21)
    _check_partials(V.integrand_dirichlet(), 1, 2, rng)
    _check_partials(V.integrand_p_allen_cahn(0.7, 2.0), 1, 2, rng)
    _check_partials(V.integrand_p_allen_cahn(0.6, 3.0), 1, 3, rng)
    _check_partials(V.integrand_p_allen_cahn(0.8, 1.5), 1, 2, rng)
    _check_partials(V.integrand_ginzburg_landau(0.5), 2, 3, rng)


def test_phase_field_p2_has_no_rank_four_term():
    # at p = 2 the second P-derivative acts as eps times the identity
    f = V.integrand_p_allen_cahn(0.42, 2.0)
    rng = np.random.default_rng(22)
    z = rng.uniform(-1, 1, size=(1, 10))
    p = rng.uniform(-1, 1, size=(1, 2, 10))
    q = rng.uniform(-1, 1, size=(1, 2, 10))
    np.testing.assert_allclose(f.f_pp_dot(z, p, q), 0.42 * q, rtol=1e-12)


def test_integrand_rejects_other_layouts():
    # point-major batches of 10 points, (M, d) and (M, d, N), broadcast in the contractions,
    # so only the layout check stops them from returning a wrong F_PP.Q
    f = V.integrand_p_allen_cahn(0.42, 2.0)
    rng = np.random.default_rng(22)
    z, p, q = (rng.uniform(-1, 1, size=shape) for shape in ((10, 1), (10, 1, 2), (10, 1, 2)))
    calls = (lambda: f.f(z, p), lambda: f.f_z(z, p), lambda: f.f_p(z, p), lambda: f.f_zz(z, p),
             lambda: f.f_pp_dot(z, p, q), lambda: f.pp_bilinear(z, p, q, q))
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()
    z, p = z.T, np.moveaxis(p, 0, -1)  # component-major (1, 10) and (1, 2, 10)
    assert f.f_pp_dot(z, p, p).shape == (1, 2, 10)
    for args in ((z[:, :9], p, p), (z, p, p[:, :, :9]), (z, p, p[:, :1]), (z, p[0], p[0])):
        with pytest.raises(DimensionMismatch):
            f.f_pp_dot(*args)
    with pytest.raises(DimensionMismatch):  # a real state handed to the complex density
        V.integrand_ginzburg_landau(0.2).f(z, p)


def _batch(rng, shape):
    """Uniform entries with about one in five replaced by a zero of either sign."""
    a = rng.uniform(-1.5, 1.5, size=shape)
    return np.where(rng.random(shape) < 0.2, rng.choice([0.0, -0.0], size=shape), a)


def _within(got, want, scale, rel=1e-15):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * scale)


@settings(max_examples=60, deadline=None)
@given(pw=st.one_of(st.just(2.0), st.floats(1.0, 4.0, exclude_min=True)),
       eps=st.floats(0.01, 1.0), m=st.integers(2, 5000), n=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1))
@example(pw=2.0, eps=0.42, m=2, n=2, seed=0)
@example(pw=1.0000001, eps=0.05, m=5000, n=3, seed=1)
@example(pw=2.0, eps=1.0, m=2, n=1, seed=0)
def test_radial_partials_match_the_written_out_densities(pw, eps, m, n, seed):
    rng = np.random.default_rng(seed)
    reg = 1e-12
    # p-Allen-Cahn, d = 1: F, F_P and F_PP.Q byte for byte against the closed forms written here
    z, p, q = _batch(rng, (1, m)), _batch(rng, (1, n, m)), _batch(rng, (1, n, m))
    f = V.integrand_p_allen_cahn(eps, pw)
    ee, cw = eps ** (pw - 1.0), (pw - 1.0) / (pw * eps)
    m2 = np.einsum("dim,dim->m", p, p) + reg * reg
    want_f = ee * m2 ** (pw / 2.0) / pw + cw * (1.0 - z[0] ** 2) ** 2
    want_pp = ee * m2 ** ((pw - 2.0) / 2.0) * q
    if pw != 2.0:
        fac4 = np.where(m2 > 1e-18, ee * (pw - 2.0) * m2 ** ((pw - 4.0) / 2.0), 0.0)
        want_pp = want_pp + fac4 * np.einsum("dim,dim->m", p, q) * p
    else:  # no rank-four term: F_PP.Q = 2G' Q = eps Q exactly
        assert f.f_pp_dot(z, p, q).tobytes() == (eps * q).tobytes()
    assert f.f(z, p).tobytes() == want_f.tobytes()
    assert f.f_p(z, p).tobytes() == (ee * m2 ** ((pw - 2.0) / 2.0) * p).tobytes()
    assert f.f_pp_dot(z, p, q).tobytes() == want_pp.tobytes()
    w = 1.0 - z[0] ** 2
    _within(f.f_z(z, p), (cw * (-4.0) * z[0] * w)[None], np.abs(4.0 * cw * z * w))
    _within(f.f_zz(z, p), (cw * (12.0 * z[0] ** 2 - 4.0))[None, None],
            cw * (12.0 * z[None] ** 2 + 4.0))
    # the Dirichlet density, d = 1, and Ginzburg-Landau, d = 2
    z, p, q = _batch(rng, (2, m)), _batch(rng, (2, n, m)), _batch(rng, (2, n, m))
    z1, p1, q1 = z[:1], p[:1], q[:1]
    f = V.integrand_dirichlet()
    assert f.f(z1, p1).tobytes() == (0.5 * np.einsum("dim,dim->m", p1, p1)).tobytes()
    assert not np.any(f.f_z(z1, p1)) and f.f_z(z1, p1).shape == z1.shape
    assert not np.any(f.f_zz(z1, p1)) and f.f_zz(z1, p1).shape == (1, 1, m)
    assert f.f_p(z1, p1).tobytes() == p1.tobytes()
    assert f.f_pp_dot(z1, p1, q1).tobytes() == q1.tobytes()
    m2 = np.einsum("dim,dim->m", p, p)
    if eps == 1.0:  # |log eps| = 0: the GL energy is undefined there
        with pytest.raises(EpsilonTooLarge):
            V.integrand_ginzburg_landau(eps)
        return
    f = V.integrand_ginzburg_landau(eps)
    el = abs(np.log(eps))
    w = 1.0 - np.einsum("dm,dm->m", z, z)
    want_f = (0.5 * m2 + w ** 2 / (4.0 * eps * eps)) / el
    _within(f.f(z, p), want_f, want_f)
    _within(f.f_z(z, p), -w / (eps * eps) * z / el, np.abs(w * z) / (eps * eps * el))
    _within(f.f_p(z, p), p / el, np.abs(p) / el)
    zz = z[:, None] * z[None, :]
    eye = np.eye(2)[:, :, None]
    _within(f.f_zz(z, p), (-w * eye + 2.0 * zz) / (eps * eps * el),
            (np.abs(w) * eye + 2.0 * np.abs(zz)) / (eps * eps * el))
    assert f.f_pp_dot(z, p, q).tobytes() == ((1.0 / el) * q).tobytes()


def _squared(a):
    return np.einsum("dm,dm->m", a, a) if a.ndim == 2 else np.einsum("dim,dim->m", a, a)


def _times(factor, a):
    return np.zeros(a.shape) if factor is None else factor * a


class _KSwitchIntegrand:
    """The reference density: callbacks ``g(m2, k)`` and ``h(z2, k)`` return G, 2G' and 4G''
    (and the same factors of H) for k = 0, 1, 2, or None, and every partial forms the squared
    norms it might read whether or not the factor depends on them."""

    def __init__(self, state_dim, g, h):
        self.state_dim, self.g, self.h = state_dim, g, h

    def f(self, z, p):
        terms = [t for t in (self.g(_squared(p), 0), self.h(_squared(z), 0)) if t is not None]
        return sum(terms[1:], terms[0])

    def f_z(self, z, p):
        return _times(self.h(_squared(z), 1), z)

    def f_p(self, z, p):
        return _times(self.g(_squared(p), 1), p)

    def f_zz(self, z, p):
        z2, d = _squared(z), self.state_dim
        h1, h2 = self.h(z2, 1), self.h(z2, 2)
        out = np.zeros((d, d, z.shape[1])) if h2 is None else h2 * z[:, None] * z[None, :]
        if h1 is not None:
            out[range(d), range(d)] += h1
        return out

    def f_pp_dot(self, z, p, q):
        m2 = _squared(p)
        out, g2 = _times(self.g(m2, 1), q), self.g(m2, 2)
        return out if g2 is None else out + g2 * np.einsum("dim,dim->m", p, q) * p

    def pp_bilinear(self, z, p, q1, q2):
        return np.einsum("dim,dim->m", q1, self.f_pp_dot(z, p, q2))


def _reference_dirichlet(state_dim):
    def g(m2, k):
        if k == 0:
            return 0.5 * m2
        return 1.0 if k == 1 else None

    return _KSwitchIntegrand(state_dim, g, lambda z2, k: None)


def _reference_p_allen_cahn(eps, pw, reg=1e-12):
    ee = eps ** (pw - 1.0)
    cw = (pw - 1.0) / (pw * eps)

    def g(m2, k):
        x = m2 + reg * reg
        if k == 0:
            return ee * x ** (pw / 2.0) / pw
        if k == 1:
            return ee * x ** ((pw - 2.0) / 2.0)
        if pw == 2.0:
            return None
        fac4 = ee * (pw - 2.0) * x ** ((pw - 4.0) / 2.0)
        return np.where(x > 1e-18, fac4, 0.0)

    def h(z2, k):
        if k == 0:
            return cw * (1.0 - z2) ** 2
        return -4.0 * cw * (1.0 - z2) if k == 1 else 8.0 * cw

    return _KSwitchIntegrand(1, g, h)


def _reference_ginzburg_landau(eps):
    el = abs(np.log(eps))
    c = 1.0 / (eps * eps * el)

    def g(m2, k):
        if k == 0:
            return 0.5 * m2 / el
        return 1.0 / el if k == 1 else None

    def h(z2, k):
        if k == 0:
            return 0.25 * c * (1.0 - z2) ** 2
        return -c * (1.0 - z2) if k == 1 else 2.0 * c

    return _KSwitchIntegrand(2, g, h)


_DENSITIES = {
    "p_allen_cahn_p1.5": (lambda: V.integrand_p_allen_cahn(0.3, 1.5),
                          lambda: _reference_p_allen_cahn(0.3, 1.5)),
    "p_allen_cahn_p2": (lambda: V.integrand_p_allen_cahn(0.3, 2.0),
                        lambda: _reference_p_allen_cahn(0.3, 2.0)),
    "p_allen_cahn_p3": (lambda: V.integrand_p_allen_cahn(0.3, 3.0),
                        lambda: _reference_p_allen_cahn(0.3, 3.0)),
    "ginzburg_landau": (lambda: V.integrand_ginzburg_landau(0.05),
                        lambda: _reference_ginzburg_landau(0.05)),
    "dirichlet_d1": (lambda: V.integrand_dirichlet(), lambda: _reference_dirichlet(1)),
    # the Dirichlet factors on a two-component state, built as the class takes them
    "dirichlet_d2": (lambda: V.Integrand(2, (lambda m2: 0.5 * m2, 1.0, None), (None, None, None),
                                         "dirichlet"), lambda: _reference_dirichlet(2)),
}


def _density_batch(d, n, m, seed):
    """z (d, M), P, Q1, Q2 (d, N, M) with signed zeros, and |P| below 1e-9 at a fifth of the
    points (exactly zero at one), so the regularized power and the rank-four mask both run."""
    rng = np.random.default_rng(seed)
    z, p, q1, q2 = _batch(rng, (d, m)), *(_batch(rng, (d, n, m)) for _ in range(3))
    p[..., : m // 5] *= 1e-10
    p[..., 0] = -0.0
    return z, p, q1, q2


@pytest.mark.parametrize("case", list(_DENSITIES))
@pytest.mark.parametrize("n,m", [(1, 2), (2, 37), (3, 500)])
def test_factor_tuples_reproduce_the_k_switch_callbacks(case, n, m):
    # every partial, byte for byte, against the callback form of the same density
    build, reference = _DENSITIES[case]
    f, ref = build(), reference()
    z, p, q1, q2 = _density_batch(f.state_dim, n, m, seed=n * m)
    for got, want in ((f.f(z, p), ref.f(z, p)), (f.f_z(z, p), ref.f_z(z, p)),
                      (f.f_p(z, p), ref.f_p(z, p)), (f.f_zz(z, p), ref.f_zz(z, p)),
                      (f.f_pp_dot(z, p, q1), ref.f_pp_dot(z, p, q1)),
                      (f.pp_bilinear(z, p, q1, q2), ref.pp_bilinear(z, p, q1, q2))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["p_allen_cahn_p2", "ginzburg_landau", "dirichlet_d2"])
def test_a_constant_first_factor_forms_no_squared_norm(monkeypatch, case):
    # 2G' is a number at p = 2, for Ginzburg-Landau and for Dirichlet, and 4G'' is absent,
    # so F_P and F_PP.Q are scalings of their argument with no |P|^2 over the batch
    f = _DENSITIES[case][0]()
    z, p, q1, _ = _density_batch(f.state_dim, 3, 40, seed=5)
    calls, einsum = [], np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or einsum(*a, **k))
    f.f_p(z, p)
    f.f_pp_dot(z, p, q1)
    assert calls == []


def test_gl_reductions():
    f = V.integrand_ginzburg_landau(0.2)
    z = np.array([[0.6], [0.8]])  # |z| = 1 at one point
    p = np.zeros((2, 3, 1))
    assert f.f(z, p)[0] == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(f.f_z(z, p), 0.0, atol=1e-15)


def test_state2_inner_variation_oracle(box2):
    rng = np.random.default_rng(23)
    u = state2_field([(0.5, (1, 0)), (0.3, (1, 1))], [(0.4, (0, 1)), (-0.2, (2, 0))])
    eta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    zeta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    f = V.integrand_ginzburg_landau(0.6)
    d1 = V.first_inner_variation(f, u, eta, box2)
    d2 = V.second_inner_variation(f, u, eta, zeta, box2)
    o1, o2 = V.inner_variation_oracle(f, u, eta, zeta, box2)
    assert abs(d1 - o1) <= max(1e-8, 1e-4 * abs(o1))
    assert abs(d2 - o2) <= max(1e-6, 1e-4 * abs(o2))
    assert abs(V.variation_report(f, u, eta, zeta, box2).sv_relation_residual) <= \
        1e-6 * (1 + abs(d2))


def test_variation_report_roundtrip(box2):
    rng = np.random.default_rng(24)
    u = F.random_polynomial_scalar_field(rng, 2, degree=3)
    eta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    zeta = F.random_compact_vector_field(rng, 2, degree=2, radius=0.8)
    rep = V.variation_report(V.integrand_dirichlet(), u, eta, zeta, box2)
    assert rep.label == "dirichlet"
    assert abs(rep.fv_bridge_residual) <= 1e-8
    assert abs(rep.sv_relation_residual) <= 1e-6 * (1 + abs(rep.delta2_a))
    assert abs(rep.delta_a - rep.oracle_delta) <= max(1e-8, 1e-4 * abs(rep.delta_a))


# ---------------------------------------------------------------------------
# the oracle's stencil solve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [1, 2])
def test_stencil_elimination_matches_linalg(n, d):
    # near-identity stacks, as the oracle's steps make them; np.linalg is the reference here only
    rng = np.random.default_rng(10 * n + d)
    m = 500
    mat = np.eye(n)[:, :, None] + rng.uniform(-2e-3, 2e-3, size=(n, n, m))
    p = rng.standard_normal((d, n, m))
    want_det = np.linalg.det(np.moveaxis(mat, -1, 0))
    want = np.einsum("djm,jim->dim", p, np.moveaxis(np.linalg.inv(np.moveaxis(mat, -1, 0)), 0, -1))
    p_bytes = p.tobytes()
    det, got = V._det_and_solve(mat.copy(), p)
    assert p.tobytes() == p_bytes
    ulp = np.finfo(float).eps
    assert np.all(np.abs(det - want_det) <= 4 * n * ulp * np.abs(want_det))
    scale = np.linalg.norm(p, axis=1, keepdims=True)  # a row of p . M^{-1} has about |p| length
    assert np.all(np.abs(got - want) <= 4 * n * ulp * scale)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stencil_elimination_is_exact_at_t0(n):
    # the t = 0 stencil I + 0 grad eta + 0 grad zeta: det exactly 1 and p . I exactly p
    rng = np.random.default_rng(n)
    je, jz = rng.standard_normal((2, n, n, 64))
    mat = 0.0 * je
    mat += np.eye(n)[:, :, None]
    mat += 0.5 * 0.0 * 0.0 * jz
    p = rng.standard_normal((2, n, 64))
    det, got = V._det_and_solve(mat, p)
    assert np.all(det == 1.0)
    np.testing.assert_array_equal(got, p)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # 0 * inf at h = 0
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_oracle_rejects_a_non_finite_jacobian(box2, bad):
    # one node's Jacobian is non-finite: its stencil matrices are NaN, and NaN det <= 0 is False
    u = F.polynomial_scalar_field(2, [(0.3, (2, 1))])
    smooth = F.dilation_field(2, 0.5)

    def jacobian(xb):
        jac = smooth.jacobian(xb)
        jac[len(xb) // 2, 0, 1] = bad
        return jac

    eta = F.VectorField(2, smooth.eval, jacobian)
    zero = F.constant_field([0.0, 0.0])
    with pytest.raises(NonInvertible):
        V.inner_variation_oracle(V.integrand_dirichlet(), u, eta, zero, box2)


def _recording(field, nodes, held):
    """``field`` whose evaluations at ``nodes`` keep their parts, with their bytes, in ``held``."""
    evaluate = field.evaluate

    def recording(xb, order):
        parts = evaluate(xb, order)
        if xb is nodes:
            held.extend((part, part.tobytes()) for part in parts)
        return parts

    field.evaluate = recording
    return field


@pytest.mark.parametrize("state_dim", [1, 2])
def test_variation_report_never_writes_into_held_parts(box2, state_dim):
    rng = np.random.default_rng(30 + state_dim)
    held = []
    if state_dim == 1:
        f = V.integrand_dirichlet()
        u = F.random_polynomial_scalar_field(rng, 2, degree=3)
    else:
        f = V.integrand_ginzburg_landau(0.6)
        u = state2_field([(0.5, (1, 0)), (0.3, (1, 1))], [(0.4, (0, 1)), (-0.2, (2, 0))])
    u = _recording(u, box2.nodes, held)
    eta, zeta = (_recording(F.random_compact_vector_field(rng, 2, degree=2, radius=0.8),
                            box2.nodes, held) for _ in range(2))
    V.variation_report(f, u, eta, zeta, box2)
    assert len(held) == 3 + 2 + 2  # u at order 2, eta and zeta at order 1, each pinned once
    for part, born in held:
        assert part.tobytes() == born


def test_oracle_peak_memory_stays_within_the_linalg_solve():
    # N = 3, M = 13824 with pinned fields: the LAPACK inv/det path peaked at 3.10 MB, the
    # elimination at 1.99 MB
    quad = V.tensor_grid([[-1.0, 1.0]] * 3, 24)
    rng = np.random.default_rng(7)
    u, eta, zeta = (F.pinned(field, quad.nodes, 1) for field in (
        F.random_polynomial_scalar_field(rng, 3, degree=3),
        F.random_compact_vector_field(rng, 3, degree=2, radius=0.85),
        F.random_compact_vector_field(rng, 3, degree=2, radius=0.85)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        V.inner_variation_oracle(V.integrand_dirichlet(), u, eta, zeta, quad)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.10e6
