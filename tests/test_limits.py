"""Interface-width sweeps, extrapolation, and the volume-constraint machinery."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from innervar import fields as F
from innervar import geometry as G
from innervar import limits as L
from innervar import profiles as P
from innervar import variation as V
from innervar.errors import DegenerateReference
from innervar.jets import Jet


@pytest.fixture(scope="module")
def flat():
    return G.flat_patch(2, n_per_axis=32)


@pytest.fixture(scope="module")
def unit_sphere():
    return G.sphere(1.0, n_polar=24, n_azimuth=48)


@pytest.fixture(scope="module")
def eta_normal():
    return F.bump_polynomial_field(
        2,
        [[(0.4, (0, 0)), (0.8, (1, 0)), (-0.3, (0, 2))], [(0.2, (0, 0)), (0.5, (0, 1))]],
        [0.0, 0.0],
        0.85,
    )


@pytest.fixture(scope="module")
def zeta_flat():
    return F.bump_polynomial_field(
        2, [[(0.3, (0, 1))], [(0.25, (1, 0)), (0.1, (0, 0))]], [0.0, 0.0], 0.85
    )


def test_schedule_validation():
    with pytest.raises(ValueError):
        L.EpsilonSchedule([0.1, 0.2])
    with pytest.raises(ValueError):
        L.EpsilonSchedule([0.1])  # a two-parameter fit needs two widths
    s = L.EpsilonSchedule.geometric(0.1, 4)
    assert s.epsilons == [0.1, 0.05, 0.025, 0.0125]


def test_extrapolate_linear_and_log():
    eps = [0.1, 0.05, 0.025, 0.0125]
    vals = [3.0 + 2.0 * e for e in eps]
    a, b = L.extrapolate(eps, vals, "linear_eps")
    assert a == pytest.approx(3.0, abs=1e-12)
    assert b == pytest.approx(2.0, abs=1e-10)
    vals = [1.0 + 0.5 / abs(np.log(e)) for e in eps]
    a, _ = L.extrapolate(eps, vals, "log_inverse")
    assert a == pytest.approx(1.0, abs=1e-12)


def test_fitted_rate_recovers_power():
    eps = [0.1 * 2.0**-k for k in range(6)]
    vals = [2.0 + 0.7 * e**2 for e in eps]
    assert L.fitted_rate(eps, vals) == pytest.approx(2.0, abs=1e-6)
    # converged-flat sweeps report no rate
    assert L.fitted_rate(eps, [1.0] * 6) is None


def test_record_gap_definition():
    rec = L.ConvergenceRecord("r", L.EpsilonSchedule([0.1, 0.05, 0.025, 0.0125]),
                              [1.0, 1.0, 1.0, 1.0], 2.0)
    assert rec.gap == pytest.approx(abs(rec.extrapolated - 2.0) / 3.0)
    rows = rec.rows()
    assert set(rows[0]) == {"epsilon", "value", "target", "gap", "residual_1", "residual_2"}


def test_record_rows_write_the_residuals_they_name(flat):
    rec = L.equipartition_residuals(flat, 2.0, L.EpsilonSchedule.geometric(0.1, 3))
    rows = rec.rows()
    assert [r["residual_1"] for r in rows] == rec.extras["energy_gap"]
    assert [r["residual_2"] for r in rows] == rec.extras["residual_phi"]
    rec.extras["a_new_key"] = [9.0] * len(rec.epsilons)  # sorts before both
    assert rec.rows() == rows


# ---------------------------------------------------------------------------
# scalar family
# ---------------------------------------------------------------------------


def test_ac_limit_flat_p2(flat, eta_normal, zeta_flat):
    sched = L.EpsilonSchedule.geometric(0.1, 6)
    rec = L.ac_limit_experiment(flat, eta_normal, zeta_flat, 2.0, sched)
    assert rec.gap <= 0.01
    assert not rec.rate_binds() or rec.rate >= 0.9
    # target structure: c_2 (surface second variation + (p-1) defect)
    sv = G.area_second_inner_variation(flat, eta_normal, zeta_flat)
    disc = G.ac_discrepancy(flat, eta_normal)
    assert rec.target == pytest.approx((4.0 / 3.0) * (sv + disc), rel=1e-12)
    assert disc > 1e-3  # the normal-gradient pair really excites the defect


def test_ac_limit_tangential_pair(flat, zeta_flat):
    eta_t = F.bump_polynomial_field(
        2, [[], [(0.5, (0, 0)), (0.4, (0, 1)), (-0.3, (1, 1))]], [0.0, 0.0], 0.85
    )
    assert G.ac_discrepancy(flat, eta_t) == pytest.approx(0.0, abs=1e-14)
    sched = L.EpsilonSchedule.geometric(0.1, 6)
    rec = L.ac_limit_experiment(flat, eta_t, zeta_flat, 2.0, sched)
    sv = G.area_second_inner_variation(flat, eta_t, zeta_flat)
    assert rec.target == pytest.approx((4.0 / 3.0) * sv, rel=1e-12)
    assert rec.gap <= 0.01


def test_ac_limit_curved_interface(unit_sphere):
    rng = np.random.default_rng(4)
    eta = F.random_compact_vector_field(rng, 3, degree=2, radius=1.5)
    zeta = F.random_compact_vector_field(rng, 3, degree=1, radius=1.5)
    sched = L.EpsilonSchedule.geometric(0.08, 5)
    rec = L.ac_limit_experiment(unit_sphere, eta, zeta, 2.0, sched)
    assert rec.gap <= 0.01
    assert not rec.rate_binds() or rec.rate >= 0.9


def test_equipartition_flat_truncation_level(flat):
    sched = L.EpsilonSchedule.geometric(0.1, 6)
    rec = L.equipartition_residuals(flat, 2.0, sched)
    assert max(rec.values) <= 1e-7
    assert max(rec.extras["residual_phi"]) <= 1e-7


def test_equipartition_sphere_and_energy_rate(unit_sphere):
    sched = L.EpsilonSchedule.geometric(0.08, 6)
    rec = L.equipartition_residuals(unit_sphere, 2.0, sched)
    # pointwise energy split is exact for the optimal profile: residuals sit at
    # quadrature noise, far below the flat-case bound, so any rate bound holds
    assert max(rec.values) <= 1e-7
    assert max(rec.extras["residual_phi"]) <= 1e-7
    # the energy gap is the resolvable curvature signal; second-order decay
    e_rate = L.fitted_rate(sched.epsilons, rec.extras["energy_gap"])
    assert e_rate is not None and e_rate >= 0.9
    assert rec.extras["energy_gap"][0] > 1e-3  # genuinely resolvable at eps0


@pytest.mark.parametrize("p", [1.5, 1.708, 2.0, 2.9])
@pytest.mark.parametrize("shape", ["circle", "sphere", "flat"])
def test_equipartition_gap_is_its_closed_form_prediction(shape, p, flat, unit_sphere):
    # E - c_p area = eps^2 (int sigma_2) m2(s_end) - 2 area tail_energy(s_end): on the circle
    # and the flat patch only the truncation term is left, on the sphere int sigma_2 = 4 pi
    g = {"circle": G.circle(1.0, n_nodes=256), "sphere": unit_sphere, "flat": flat}[shape]
    sched = L.EpsilonSchedule.geometric(0.05 if p < 1.6 else 0.08, 6)
    rec = L.equipartition_residuals(g, p, sched)
    gaps, predicted = rec.extras["energy_gap"], rec.extras["predicted_gap"]
    assert max(abs(gap - abs(pred)) for gap, pred in zip(gaps, predicted)) <= 1e-10
    if shape == "sphere":
        assert min(predicted) > 1e-5  # the curvature term is far above the agreement


def test_equipartition_negative_control(unit_sphere):
    # mistuned profile tanh(2 s): the 1-D composition oracle gives
    # 3 * int (1 - tanh^2(2s))^2 ds * area = 2 * 4 pi = 8 pi
    sched = L.EpsilonSchedule.geometric(0.08, 4)
    rec = L.equipartition_residuals(
        unit_sphere, 2.0, sched, profile=lambda g, e: P.tanh_profile_field(g, e, 2.0)
    )
    oracle = 8.0 * np.pi
    assert min(rec.values) > 1.0
    assert rec.values[-1] == pytest.approx(oracle, rel=0.02)


def test_tensor_pairing_flat(flat):
    phi = F.bump_scalar_field([0.0, 0.0], 0.8, 1.0)
    sched = L.EpsilonSchedule.geometric(0.1, 6)
    rec = L.tensor_pairing_experiment(flat, 2.0, phi, (0, 0), sched)
    target = (4.0 / 3.0) * G.surface_integral(flat, phi)
    assert rec.target == pytest.approx(target, rel=1e-12)
    assert rec.gap <= 0.01
    rec_off = L.tensor_pairing_experiment(flat, 2.0, phi, (0, 1), sched)
    assert rec_off.target == 0.0
    assert max(abs(v) for v in rec_off.values) <= 1e-6


def test_tensor_pairing_sphere_rank_four(unit_sphere):
    phi = F.bump_scalar_field([0.0, 0.0, 0.0], 1.8, 1.0)
    sched = L.EpsilonSchedule.geometric(0.04, 5)
    rec = L.tensor_pairing_experiment(unit_sphere, 3.0, phi, (0, 0, 1, 1), sched)
    assert rec.gap <= 0.02
    # symmetry under index permutation: identical values, not just close
    rec_perm = L.tensor_pairing_experiment(unit_sphere, 3.0, phi, (1, 0, 1, 0), sched)
    assert max(abs(a - b) for a, b in zip(rec.values, rec_perm.values)) <= 1e-10


def test_tensor_pairing_index_validation(unit_sphere):
    phi = F.bump_scalar_field([0.0, 0.0, 0.0], 1.8, 1.0)
    sched = L.EpsilonSchedule.geometric(0.04, 4)
    from innervar.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        L.tensor_pairing_experiment(unit_sphere, 2.0, phi, (0, 0, 1), sched)


# ---------------------------------------------------------------------------
# vortex family
# ---------------------------------------------------------------------------


def test_gl_zero_fields_give_zero():
    fil = G.straight_filament(1.0, 8)
    zero = F.constant_field([0.0, 0.0, 0.0])
    sched = L.EpsilonSchedule([0.05, 0.025])
    rec = L.gl_limit_experiment(fil, zero, zero, sched, n_theta=24)
    assert max(abs(v) for v in rec.values) <= 1e-12
    assert rec.target == 0.0


def test_gl_bend_mode_quick():
    fil = G.straight_filament(1.0, 12)
    eta = F.filament_test_field("bend", amplitude=0.6, frequency=1, radius=0.45)
    zero = F.constant_field([0.0, 0.0, 0.0])
    sv = G.area_second_inner_variation(fil, eta, zero)
    assert sv == pytest.approx((0.6 * 2 * np.pi) ** 2 / 2.0, rel=1e-9)
    real, dbar = G.gl_discrepancy(fil, eta)
    assert abs(real) <= 1e-14 and abs(dbar) <= 1e-14
    sched = L.EpsilonSchedule.geometric(0.05, 7)
    rec = L.gl_limit_experiment(fil, eta, zero, sched, n_theta=40)
    assert rec.model == "log_inverse"
    assert rec.target == pytest.approx(np.pi * sv, rel=1e-9)
    assert rec.gap <= 0.1
    e_extr, _ = L.extrapolate(sched.epsilons, rec.extras["energy"], "log_inverse")
    assert abs(e_extr - np.pi) / np.pi <= 0.05
    # the two discrepancy target forms coincide before any sweep runs
    assert rec.meta["discrepancy_real"] == pytest.approx(rec.meta["discrepancy_dbar"], abs=1e-12)


def test_gl_antiholomorphic_mode_quick():
    fil = G.straight_filament(1.0, 12)
    eta = F.filament_test_field("antiholomorphic", amplitude=1.0, radius=0.45)
    zero = F.constant_field([0.0, 0.0, 0.0])
    real, _ = G.gl_discrepancy(fil, eta)
    assert real == pytest.approx(4.0, rel=1e-12)
    sched = L.EpsilonSchedule.geometric(0.05, 7)
    rec = L.gl_limit_experiment(fil, eta, zero, sched, n_theta=40)
    assert rec.target == pytest.approx(4.0 * np.pi, rel=1e-9)
    assert rec.gap <= 0.1


# ---------------------------------------------------------------------------
# volume constraint machinery
# ---------------------------------------------------------------------------


def test_volume_admissibility_dilation(unit_sphere):
    a = 0.5
    c1, _ = L.volume_admissibility(unit_sphere, F.dilation_field(3, a))
    assert c1 == pytest.approx(3 * a * (4.0 / 3.0) * np.pi, rel=1e-10)


def test_volume_admissibility_rotation(unit_sphere):
    rot = F.rotation_field([0.3, -0.2, 0.7])
    c1, c2 = L.volume_admissibility(unit_sphere, rot)
    assert abs(c1) <= 1e-12 and abs(c2) <= 1e-12


def test_volume_admissibility_random_fields(unit_sphere):
    rng = np.random.default_rng(11)
    for _ in range(10):
        eta = F.random_compact_vector_field(rng, 3, degree=2, radius=1.4)
        c1, c2 = L.volume_admissibility(unit_sphere, eta)
        assert abs(c2) <= 1e-10
        assert abs(c1 - L.boundary_flux(unit_sphere, eta)) <= 1e-8


def test_volume_admissibility_disk():
    disk = G.circle(0.8, n_nodes=128)
    rng = np.random.default_rng(12)
    eta = F.random_compact_vector_field(rng, 2, degree=2, radius=1.2)
    c1, c2 = L.volume_admissibility(disk, eta)
    assert abs(c2) <= 1e-10
    assert abs(c1 - L.boundary_flux(disk, eta)) <= 1e-8


def test_poincare_identity_degree_one(unit_sphere):
    xi = F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
    lhs, rhs = L.constrained_poincare_check(unit_sphere, xi)
    assert abs(lhs) <= 1e-6 and abs(rhs) <= 1e-6
    assert abs(lhs - rhs) <= 1e-6


def test_poincare_identity_degree_two(unit_sphere):
    xi = F.polynomial_scalar_field(3, [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))])
    lhs, rhs = L.constrained_poincare_check(unit_sphere, xi)
    norm_sq = G.surface_integral(unit_sphere, lambda x: (x[:, 0] ** 2 - x[:, 1] ** 2) ** 2)
    assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))
    assert rhs == pytest.approx(4.0 * norm_sq, rel=1e-10)
    assert lhs >= 0.0


def test_poincare_requires_mean_zero(unit_sphere):
    xi = F.polynomial_scalar_field(3, [(1.0, (0, 0, 0))])
    with pytest.raises(ValueError):
        L.constrained_poincare_check(unit_sphere, xi)


def _tube_quad(g, prof, eps):
    return V.tube_rule(g, *P.transverse_rule(prof, eps, 0.9 * g.focal_width))


def test_perturbed_field_balanced_is_untouched(unit_sphere):
    prof = P.optimal_profile(2.0)
    eps = 0.05
    u = P.ansatz_field(unit_sphere, eps, prof)
    quad = _tube_quad(unit_sphere, prof, eps)
    xi = F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
    eta = G.normal_extension(unit_sphere, xi, 0.9)  # mean-zero flux
    phi_ref = F.bump_polynomial_field(
        3, [[(1.0, (1, 0, 0))], [(1.0, (0, 1, 0))], [(1.0, (0, 0, 1))]], [0, 0, 0], 1.8
    )
    eta_eps, h = L.perturbed_field(u, eta, phi_ref, unit_sphere, quad)
    assert abs(h) <= 1e-12
    grad = u._gradients(quad.nodes)[:, 0]
    mass = float(np.sum(quad.weights * np.einsum("mi,mi->m", eta_eps.eval(quad.nodes), grad)))
    assert abs(mass) <= 1e-9


def test_perturbed_field_h_is_order_eps(unit_sphere):
    prof = P.optimal_profile(2.0)
    xi = F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
    eta = G.normal_extension(unit_sphere, xi, 0.9)
    phi_ref = F.bump_polynomial_field(
        3, [[(1.0, (1, 0, 0))], [(1.0, (0, 1, 0))], [(1.0, (0, 0, 1))]], [0, 0, 0], 1.8
    )
    for eps in (0.08, 0.04, 0.02):
        u = P.ansatz_field(unit_sphere, eps, prof)
        quad = _tube_quad(unit_sphere, prof, eps)
        _, h = L.perturbed_field(u, eta, phi_ref, unit_sphere, quad)
        assert abs(h) <= eps  # literal O(eps) bound with constant 1


def test_perturbed_field_corrects_unbalanced(unit_sphere):
    # an eta with nonzero interface flux needs a genuine correction
    prof = P.optimal_profile(2.0)
    eps = 0.05
    u = P.ansatz_field(unit_sphere, eps, prof)
    quad = _tube_quad(unit_sphere, prof, eps)
    eta = F.bump_polynomial_field(
        3, [[(0.5, (1, 0, 0))], [(0.5, (0, 1, 0))], [(0.5, (0, 0, 1))]], [0, 0, 0], 1.5
    )
    assert abs(L.boundary_flux(unit_sphere, eta)) > 1e-3
    phi_ref = F.bump_polynomial_field(
        3, [[(1.0, (1, 0, 0))], [(1.0, (0, 1, 0))], [(1.0, (0, 0, 1))]], [0, 0, 0], 1.8
    )
    eta_eps, h = L.perturbed_field(u, eta, phi_ref, unit_sphere, quad)
    assert abs(h) > 1e-6
    grad = u._gradients(quad.nodes)[:, 0]
    mass = float(np.sum(quad.weights * np.einsum("mi,mi->m", eta_eps.eval(quad.nodes), grad)))
    assert abs(mass) <= 1e-9


def test_perturbed_field_degenerate_reference(unit_sphere):
    prof = P.optimal_profile(2.0)
    eps = 0.05
    u = P.ansatz_field(unit_sphere, eps, prof)
    quad = _tube_quad(unit_sphere, prof, eps)
    xi = F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
    eta = G.normal_extension(unit_sphere, xi, 0.9)
    tangent_ref = F.rotation_field([0.0, 0.0, 1.0])  # zero flux through the sphere
    with pytest.raises(DegenerateReference):
        L.perturbed_field(u, eta, tangent_ref, unit_sphere, quad)


def test_quadratic_forms_degree_one_and_two():
    g = G.sphere(1.0, n_polar=16, n_azimuth=32)
    sched = L.EpsilonSchedule.geometric(0.08, 5)
    xi1 = F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
    rec1 = L.quadratic_forms(g, xi1, sched)
    norm1 = G.surface_integral(g, lambda x: x[:, 2] ** 2)
    assert rec1.target == pytest.approx(0.0, abs=1e-10)
    assert abs(rec1.extrapolated) <= 0.02 * norm1
    # the raw form keeps the non-minimality defect (about 4/R^2 per unit norm)
    raw_limit = rec1.extras["raw_form"][-1]
    assert raw_limit == pytest.approx(4.0 * norm1, rel=0.05)
    assert max(abs(v) for v in rec1.extras["lagrange_term"]) > 1.0

    xi2 = F.polynomial_scalar_field(3, [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))])
    rec2 = L.quadratic_forms(g, xi2, sched)
    assert rec2.gap <= 0.02
    assert rec2.target == pytest.approx((4.0 / 3.0) * G.jacobi_form(g, xi2), rel=1e-12)


def test_quadratic_forms_zero_mode():
    g = G.sphere(1.0, n_polar=12, n_azimuth=24)
    sched = L.EpsilonSchedule([0.08, 0.04])
    xi0 = F.polynomial_scalar_field(3, [(0.0, (0, 0, 1))])
    rec = L.quadratic_forms(g, xi0, sched)
    assert rec.target == 0.0
    assert max(abs(v) for v in rec.values) <= 1e-12
    assert max(abs(v) for v in rec.extras["raw_form"]) <= 1e-12


def test_concurrent_first_use_solves_the_vortex_profile_once(monkeypatch):
    solves = []
    threads = 4  # more than the cores of a small host
    all_in = threading.Barrier(threads, timeout=10)

    def counting_solve():
        solves.append("gl")
        time.sleep(0.2)  # a real solve takes longer; the other threads reach the cache meanwhile
        return P.gl_radial_profile()

    monkeypatch.setattr(L, "_PROFILES", {})
    monkeypatch.setattr(L, "gl_radial_profile", counting_solve)
    got = []

    def first_use():
        all_in.wait()
        got.append(L._profile("gl"))

    workers = [threading.Thread(target=first_use) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert solves == ["gl"]
    assert len(got) == threads and all(prof is got[0] for prof in got)


# ---------------------------------------------------------------------------
# working set of one width
# ---------------------------------------------------------------------------


def _peak_bytes_per_node(run, nodes):
    """tracemalloc's peak during ``run()``, numpy's buffers included, per quadrature node."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / len(nodes)


def test_jet_products_allocate_their_outputs_and_one_scratch_row():
    # an order-2 product and chain rule at N = 3, M = 12288: 1.57 MB and 1.48 MB peaks, the
    # new arrays they return plus one (N, M) row; (N, N, M) temporaries of the Hessian
    # cross term peaked 1.77 MB and 1.67 MB above the returned arrays
    n, m = 3, 12288
    rng = np.random.default_rng(0)
    a, b = (Jet(rng.standard_normal(m), rng.standard_normal((n, m)),
                rng.standard_normal((n, n, m))) for _ in range(2))
    g = [rng.standard_normal(m) for _ in range(3)]
    inputs = [a.val, a.grad, a.hess, b.val, b.grad, b.hess, *g]
    for run in (lambda: a * b, lambda: a.lift(*g)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        new = sum(x.nbytes for x in (out.val, out.grad, out.hess)
                  if not any(np.shares_memory(x, y) for y in inputs))
        assert peak <= new + 8 * n * m + 4096  # 4 KiB of slack for the array headers


def test_normal_extension_frees_each_jet_at_its_last_use():
    # V = xi o pi chi n at order 2 on a forms sweep's halved-grid sphere tube: the result is
    # 312 B per node, and holding every intermediate jet until the end peaked at 2041 B
    g = G.sphere(1.0, n_polar=8, n_azimuth=16)
    xi = F.polynomial_scalar_field(3, [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))])
    v_ext = G.normal_extension(g, xi, 0.9 * g.focal_width)
    nodes = L._ac_tube(g, L._profile(2.0), 0.0025)[0].nodes
    assert _peak_bytes_per_node(lambda: v_ext.evaluate(nodes, 2), nodes) < 1100


def test_second_inner_variation_frees_each_part_at_its_last_use():
    # one gl-converge width with eta unpinned, so zeta evaluates eta at order 2 inside the
    # kernel: evaluating zeta first and dropping each Jacobian after its products keeps the
    # peak below 720 B per node (867 B when every part lived to the end of the kernel)
    g = G.straight_filament(1.0, 8)
    eta = F.filament_test_field("antiholomorphic")
    eps = 0.05 * 0.5**9
    rho, wr = V.vortex_radial_rule(eps, 0.5)
    quad = V.filament_tube_rule(g, rho, wr, 12)
    u = F.pinned(P.gl_vortex_field(g, eps, L._profile("gl")), quad.nodes, 1)
    f = V.integrand_ginzburg_landau(eps)
    zeta = F.zeta_eta(eta)
    run = lambda: V.second_inner_variation(f, u, eta, zeta, quad)  # noqa: E731
    assert _peak_bytes_per_node(run, quad.nodes) < 720
