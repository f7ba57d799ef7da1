"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import time

import numpy as np
import pytest
from scipy.special import gamma

from innervar import fields as F
from innervar import geometry as G
from innervar import limits as L
from innervar import profiles as P
from innervar import variation as V
from innervar.cli import builtin_configs, main


def report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} [{label}]: {status} {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. surface-tension constants
# ---------------------------------------------------------------------------


def test_criterion_01_constants():
    t0 = time.perf_counter()
    e2 = abs(P.c_p(2.0) - 4.0 / 3.0)
    e1 = abs(P.c_p(1.0) - 2.0)
    a = 4.0 / 3.0
    oracle = np.sqrt(np.pi) * gamma(a + 1.0) / gamma(a + 1.5)
    e3 = abs(P.c_p(3.0) - oracle)
    dt = time.perf_counter() - t0
    ok = e2 <= 1e-12 and e1 <= 1e-12 and e3 <= 1e-10 and dt < 1.0
    report(1, "surface tension constants", ok,
           f"|c2-4/3|={e2:.2e} |c1-2|={e1:.2e} |c3-oracle|={e3:.2e} ({dt:.2f}s)")


# ---------------------------------------------------------------------------
# 2. variation bridges on random smooth data
# ---------------------------------------------------------------------------


def _state2_field(rng):
    fx = F.random_polynomial_scalar_field(rng, 2)
    fy = F.random_polynomial_scalar_field(rng, 2)
    return F.ScalarField(
        2,
        lambda xb: np.stack([fx.eval(xb), fy.eval(xb)], axis=1),
        lambda xb: np.stack([fx.gradient(xb), fy.gradient(xb)], axis=1),
        lambda xb: np.stack([fx.hessian(xb), fy.hessian(xb)], axis=1),
        state_dim=2,
    )


def _state2_field_3d(rng):
    fs = [F.polynomial_scalar_field(3, F._random_terms(rng, 3, 2)) for _ in range(2)]
    return F.ScalarField(
        3,
        lambda xb: np.stack([f.eval(xb) for f in fs], axis=1),
        lambda xb: np.stack([f.gradient(xb) for f in fs], axis=1),
        lambda xb: np.stack([f.hessian(xb) for f in fs], axis=1),
        state_dim=2,
    )


def _gradient_bounded_field(rng, dim):
    """Random smooth u with |grad u| bounded below on the box.

    Fractional-p densities are smooth only away from critical points of u, so
    the 'smooth random case' for them carries a dominant linear part.
    """
    pert = F.polynomial_scalar_field(dim, [(0.25 * c, p) for c, p in F._random_terms(rng, dim, 3)])
    lin = F.polynomial_scalar_field(dim, [(1.0, tuple([1] + [0] * (dim - 1)))])
    return F.ScalarField(
        dim,
        lambda xb: lin.eval(xb) + pert.eval(xb),
        lambda xb: lin.gradient(xb) + pert.gradient(xb),
        lambda xb: lin.hessian(xb) + pert.hessian(xb),
    )


def test_criterion_02_variation_bridges():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240715)
    cases = [
        (2, V.integrand_dirichlet(), "poly"),
        (2, V.integrand_p_allen_cahn(0.7, 2.0), "poly"),
        (2, V.integrand_p_allen_cahn(0.6, 3.0), "graded"),
        (2, V.integrand_p_allen_cahn(0.8, 1.5), "graded"),
        (2, V.integrand_ginzburg_landau(0.5), "state2"),
        (2, V.integrand_p_allen_cahn(0.9, 2.5), "graded"),
        (2, V.integrand_dirichlet(), "poly"),
        (3, V.integrand_dirichlet(), "poly"),
        (3, V.integrand_p_allen_cahn(0.7, 2.0), "poly"),
        (3, V.integrand_ginzburg_landau(0.6), "state2"),
    ]
    quad2 = V.tensor_grid([[-1.0, 1.0]] * 2, 40)
    quad3 = V.tensor_grid([[-1.0, 1.0]] * 3, 28)
    worst_fv = worst_sv = worst_or1 = worst_or2 = 0.0
    for dim, f, style in cases:
        quad = quad2 if dim == 2 else quad3
        if style == "state2":
            u = _state2_field(rng) if dim == 2 else _state2_field_3d(rng)
        elif style == "graded":
            u = _gradient_bounded_field(rng, dim)
        else:
            u = F.random_polynomial_scalar_field(rng, dim)
        eta = F.random_compact_vector_field(rng, dim, F.bump_scalar_field(np.zeros(dim), 0.85))
        zeta = F.random_compact_vector_field(rng, dim, F.bump_scalar_field(np.zeros(dim), 0.85))
        rep = V.variation_report(f, u, eta, zeta, quad)
        worst_fv = max(worst_fv, abs(rep.fv_bridge_residual))
        worst_sv = max(worst_sv,
                       abs(rep.sv_relation_residual) / (1e-6 * (1 + abs(rep.delta2_a))))
        worst_or1 = max(worst_or1, abs(rep.delta_a - rep.oracle_delta)
                        / max(1e-6, 1e-4 * abs(rep.delta_a)))
        worst_or2 = max(worst_or2, abs(rep.delta2_a - rep.oracle_delta2)
                        / max(1e-6, 1e-4 * abs(rep.delta2_a)))
    dt = time.perf_counter() - t0
    ok = worst_fv <= 1e-8 and worst_sv <= 1.0 and worst_or1 <= 1.0 and worst_or2 <= 1.0 and dt < 30.0
    report(2, "variation bridge suite (10 random cases)", ok,
           f"max|deltaA-dA|={worst_fv:.2e} sv/tol={worst_sv:.3f} "
           f"oracle1/tol={worst_or1:.3f} oracle2/tol={worst_or2:.3f} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 3. pointwise identities
# ---------------------------------------------------------------------------


def test_criterion_03_pointwise_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_div = 0.0
    pts2 = rng.uniform(-1, 1, size=(500, 2))
    pts3 = rng.uniform(-1, 1, size=(500, 3))
    for dim, pts in ((2, pts2), (3, pts3)):
        for _ in range(2):
            eta = F.random_polynomial_vector_field(rng, dim, degree=3)
            worst_div = max(worst_div, float(np.max(np.abs(
                F.good_identity_residual(eta, pts)))))
    worst_dbar = 0.0
    for fil in (G.straight_filament(1000), G.circular_filament(0.8, 1000)):
        eta = F.random_polynomial_vector_field(rng, 3, degree=3)
        r1, r2 = G.gl_discrepancy_densities(fil, eta)
        worst_dbar = max(worst_dbar, float(np.max(np.abs(r1 - r2))))
    dt = time.perf_counter() - t0
    ok = worst_div <= 1e-9 and worst_dbar <= 1e-10 and dt < 5.0
    report(3, "pointwise identities (1000+ samples)", ok,
           f"divergence-identity={worst_div:.2e} dbar-vs-real={worst_dbar:.2e} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 4 + 5. flat-interface limit across p, and (p-1)-linearity of the defect
# ---------------------------------------------------------------------------


P_VALUES = (1.25, 1.5, 2.0, 3.0)


@pytest.fixture(scope="module")
def flat_sweep():
    flat = G.flat_patch(2, n_per_axis=32)
    eta_n = F.bump_polynomial_field(
        2,
        [[(0.4, (0, 0)), (0.8, (1, 0)), (-0.3, (0, 2))], [(0.2, (0, 0)), (0.5, (0, 1))]],
        F.bump_scalar_field([0.0, 0.0], 0.85)
    )
    eta_t = F.bump_polynomial_field(
        2, [[], [(0.5, (0, 0)), (0.4, (0, 1)), (-0.3, (1, 1))]],
        F.bump_scalar_field([0.0, 0.0], 0.85)
    )
    zeta = F.bump_polynomial_field(
        2, [[(0.3, (0, 1))], [(0.25, (1, 0)), (0.1, (0, 0))]], F.bump_scalar_field([0.0, 0.0], 0.85)
    )
    sched = L.EpsilonSchedule.geometric(0.1, 6)
    t0 = time.perf_counter()
    records = {}
    for p in P_VALUES:
        records[("normal", p)] = L.ac_limit_experiment(flat, eta_n, zeta, p, sched)
        records[("tangential", p)] = L.ac_limit_experiment(flat, eta_t, zeta, p, sched)
    runtime = time.perf_counter() - t0
    surface = {
        "normal": G.area_second_inner_variation(flat, eta_n, zeta),
        "tangential": G.area_second_inner_variation(flat, eta_t, zeta),
        "disc_normal": G.ac_discrepancy(flat, eta_n),
        "disc_tangential": G.ac_discrepancy(flat, eta_t),
    }
    return records, surface, runtime


def test_criterion_04_flat_interface_limits(flat_sweep):
    records, surface, runtime = flat_sweep
    worst_gap, worst_rate_ok = 0.0, True
    for key, rec in records.items():
        worst_gap = max(worst_gap, rec.gap)
        worst_rate_ok = worst_rate_ok and (not rec.rate_binds() or rec.rate >= 0.9)
    ok = worst_gap <= 0.01 and worst_rate_ok and runtime < 120.0
    rates = [r.rate for r in records.values() if r.rate is not None]
    report(4, "flat-interface limit, p x {pairs}", ok,
           f"max gap={worst_gap:.2e} rates={min(rates):.2f}..{max(rates):.2f} "
           f"({runtime:.1f}s for 8 sweeps)")


def test_criterion_05_defect_linearity(flat_sweep):
    records, surface, _ = flat_sweep
    disc = surface["disc_normal"]
    sv = surface["normal"]
    x = np.array([p - 1.0 for p in P_VALUES])
    y = np.array([records[("normal", p)].extrapolated / P.c_p(p) - sv for p in P_VALUES])
    design = np.stack([np.ones_like(x), x], axis=1)
    (intercept, slope), *_ = np.linalg.lstsq(design, y, rcond=None)
    scale = float(np.max(np.abs(y)))
    slope_ok = abs(slope - disc) <= 0.02 * abs(disc)
    intercept_ok = abs(intercept) <= 0.01 * scale
    report(5, "defect linear in (p-1)", slope_ok and intercept_ok,
           f"slope={slope:.6f} vs disc={disc:.6f} (rel {abs(slope-disc)/disc:.2e}), "
           f"intercept={intercept:.2e} vs scale={scale:.3f}")


# ---------------------------------------------------------------------------
# 6. closed-form sphere values
# ---------------------------------------------------------------------------


def test_criterion_06_sphere_exact_values():
    r, a = 1.3, 0.37
    g = G.sphere(r)
    zero = F.constant_field([0.0, 0.0, 0.0])
    sv = G.area_second_inner_variation(g, F.linear_field(a * np.eye(3)), zero)
    sv_exact = 8 * np.pi * r * r * a * a
    e_sv = abs(sv - sv_exact) / sv_exact
    disc = G.ac_discrepancy(g, F.linear_field(a * np.eye(3)))
    disc_exact = 4 * np.pi * r * r * a * a
    e_disc = abs(disc - disc_exact) / disc_exact
    rot = F.rotation_field([0.2, -0.5, 0.7])
    e_rot = abs(G.area_second_inner_variation(g, rot, F.zeta_eta(rot)))
    ok = e_sv <= 1e-8 and e_disc <= 1e-8 and e_rot <= 1e-8
    report(6, "sphere closed forms", ok,
           f"dilation sv rel={e_sv:.2e} defect rel={e_disc:.2e} rotation={e_rot:.2e}")


# ---------------------------------------------------------------------------
# 7. equi-partition and tensor pairings
# ---------------------------------------------------------------------------


def test_criterion_07_equipartition_and_tensors():
    t0 = time.perf_counter()
    sphere = G.sphere(1.0, n_polar=24, n_azimuth=48)
    sched = L.EpsilonSchedule.geometric(0.08, 6)
    rec = L.equipartition_residuals(sphere, 2.0, sched)
    res_max = max(max(rec.values), max(rec.extras["residual_phi"]))
    rate = L.fitted_rate(sched.epsilons, rec.values)
    # O(eps) with slope >= 0.9 where resolvable; the optimal profile is exact
    # pointwise, so the floor (the flat-case bound 1e-7) applies instead
    equi_ok = res_max <= 1e-7 or (rate is not None and rate >= 0.9)
    e_rate = L.fitted_rate(sched.epsilons, rec.extras["energy_gap"])
    energy_ok = e_rate is not None and e_rate >= 0.9

    phi3 = F.bump_scalar_field([0.0, 0.0, 0.0], 1.8)
    rec2 = L.tensor_pairing_experiment(sphere, 2.0, phi3, (0, 0),
                                       L.EpsilonSchedule.geometric(0.08, 6))
    rec4 = L.tensor_pairing_experiment(sphere, 3.0, phi3, (0, 0, 1, 1),
                                       L.EpsilonSchedule.geometric(0.04, 6))
    flat = G.flat_patch(2, n_per_axis=32)
    phi2 = F.bump_scalar_field([0.0, 0.0], 0.8)
    rec_off = L.tensor_pairing_experiment(flat, 2.0, phi2, (0, 1),
                                          L.EpsilonSchedule.geometric(0.1, 6))
    off_max = max(abs(v) for v in rec_off.values)
    tensors_ok = rec2.gap <= 0.02 and rec4.gap <= 0.02 and off_max <= 1e-6
    dt = time.perf_counter() - t0
    ok = equi_ok and energy_ok and tensors_ok
    report(7, "equi-partition + tensor pairings", ok,
           f"residual_max={res_max:.2e} (floor), energy-rate={e_rate:.2f}, "
           f"2t gap={rec2.gap:.2e}, 4t gap={rec4.gap:.2e}, off-normal={off_max:.2e} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 8. volume constraint, stability identity, mass-preserving correction
# ---------------------------------------------------------------------------


def test_criterion_08_volume_constraint_machinery():
    t0 = time.perf_counter()
    sphere = G.sphere(1.0, n_polar=24, n_azimuth=48)
    rng = np.random.default_rng(20240716)
    worst_c2 = 0.0
    for _ in range(10):
        eta = F.random_compact_vector_field(rng, 3, F.bump_scalar_field(np.zeros(3), 1.4))
        _, c2 = L.volume_admissibility(sphere, eta)
        worst_c2 = max(worst_c2, abs(c2))
    c2_ok = worst_c2 <= 1e-10

    xi1 = F.polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
    lhs1, rhs1 = L.constrained_poincare_check(sphere, xi1)
    deg1_ok = abs(lhs1 - rhs1) <= 1e-6 * (1 + abs(rhs1)) and abs(lhs1) <= 1e-6

    xi2 = F.polynomial_scalar_field(3, [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))])
    lhs2, rhs2 = L.constrained_poincare_check(sphere, xi2)
    norm2 = G.surface_integral(sphere, lambda x: (x[:, 0] ** 2 - x[:, 1] ** 2) ** 2)
    deg2_ok = (abs(lhs2 - rhs2) <= 1e-6 * (1 + abs(rhs2))
               and rhs2 >= 0.0
               and abs(rhs2 - 4.0 * norm2) <= 1e-6 * (1 + 4.0 * norm2))

    prof = P.optimal_profile(2.0)
    eta_ext = G.normal_extension(sphere, xi1, 0.9)
    phi_ref = F.bump_polynomial_field(
        3, [[(1.0, (1, 0, 0))], [(1.0, (0, 1, 0))], [(1.0, (0, 0, 1))]],
        F.bump_scalar_field([0, 0, 0], 1.8)
    )
    h_ok = True
    h_values = []
    for eps in (0.08, 0.04, 0.02):
        u = P.ansatz_field(sphere, eps, prof)
        quad = V.tube_rule(sphere, *P.transverse_rule(prof, eps, 0.9))
        _, h = L.perturbed_field(u, eta_ext, phi_ref, sphere, quad)
        h_values.append(h)
        h_ok = h_ok and abs(h) <= eps  # literal O(eps) bound, constant 1
    dt = time.perf_counter() - t0
    ok = c2_ok and deg1_ok and deg2_ok and h_ok
    report(8, "volume constraint + stability identity", ok,
           f"max|c2|={worst_c2:.2e}, deg1 |lhs-rhs|={abs(lhs1-rhs1):.2e}, "
           f"deg2 rel={abs(lhs2-rhs2)/(1+abs(rhs2)):.2e} value={rhs2:.4f}, "
           f"max|h|={max(abs(h) for h in h_values):.2e} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 9. vortex filament limits (logarithmic convergence, property-based)
# ---------------------------------------------------------------------------


def test_criterion_09_vortex_limits():
    # full-rate reproduction is out of reach at desk scale: convergence is
    # 1/|log eps|, so extrapolation in that variable carries the verdict
    t0 = time.perf_counter()
    fil = G.straight_filament(16)
    zero = F.constant_field([0.0, 0.0, 0.0])
    sched = L.EpsilonSchedule.geometric(0.05, 10)

    eta_b = F.filament_test_field("bend", amplitude=0.6)
    rec_b = L.gl_limit_experiment(fil, eta_b, zero, sched, n_theta=48)
    e_extr, _ = L.extrapolate(sched.epsilons, rec_b.extras["energy"], "log_inverse")
    energy_gap = abs(e_extr - np.pi) / np.pi
    disc_b = rec_b.meta["discrepancy_real"]

    eta_z = F.filament_test_field("antiholomorphic", amplitude=1.0)
    rec_z = L.gl_limit_experiment(fil, eta_z, zero, sched, n_theta=48)
    disc_z = rec_z.meta["discrepancy_real"]

    dt = time.perf_counter() - t0
    ok = (energy_gap <= 0.05 and abs(disc_b) <= 1e-12
          and rec_b.gap <= 0.10 and rec_z.gap <= 0.10
          and abs(disc_z - 4.0) <= 1e-9 and dt < 180.0)
    report(9, "vortex filament limits", ok,
           f"energy gap={energy_gap:.2e}, bend gap={rec_b.gap:.2e} (disc 0), "
           f"conj gap={rec_z.gap:.2e} (disc=4*length), ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 10. determinism of the full suite
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    names = [name for name, _ in builtin_configs()]
    for out in (out1, out2):
        for name in names:
            rc = main(["run", name, "--out", str(out), "--seed", "1234"])
            assert rc == 0, f"built-in config {name} failed"
    csv1 = sorted(p.name for p in out1.glob("*.csv"))
    csv2 = sorted(p.name for p in out2.glob("*.csv"))
    same_listing = csv1 == csv2 and len(csv1) > 0
    mismatched = [
        name for name in csv1
        if (out1 / name).read_bytes() != (out2 / name).read_bytes()
    ]
    dt = time.perf_counter() - t0
    ok = same_listing and not mismatched
    report(10, "bit-identical CSV across reruns", ok,
           f"{len(csv1)} files compared, mismatches={mismatched} ({dt:.1f}s)")
