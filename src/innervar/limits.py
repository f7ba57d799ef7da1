"""Interface-width sweeps reproducing the sharp-interface limit statements.

Each experiment evaluates a phase-field quantity along a decreasing schedule
of interface widths, extrapolates (linearly in eps for the scalar family,
linearly in 1/|log eps| for the vortex family), and compares against the
closed-form surface target computed by quadrature on the interface itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .errors import DegenerateReference, DimensionMismatch
from .fields import ScalarField, VectorField, pinned, zeta_eta
from .profiles import (
    GLRadialProfile,
    ProfileTable,
    ansatz_field,
    c_p,
    gl_radial_profile,
    gl_vortex_field,
    optimal_profile,
    transverse_rule,
)
from .sums import pairwise_dot
from .variation import (
    BulkQuadrature,
    composite_test_function,
    energy,
    filament_tube_rule,
    integrand_ginzburg_landau,
    integrand_p_allen_cahn,
    second_inner_variation,
    second_variation,
    tube_rule,
    vortex_radial_rule,
)

_PROFILES: dict[float | str, ProfileTable | GLRadialProfile] = {}
# held across check-and-fill, so experiments on the CLI thread pool solve each profile once
_PROFILE_LOCK = threading.Lock()


def _profile(p: float | str) -> ProfileTable | GLRadialProfile:
    """The optimal profile at exponent p, or the vortex profile for p = "gl", solved once."""
    key = p if p == "gl" else round(float(p), 12)
    with _PROFILE_LOCK:
        if key not in _PROFILES:
            _PROFILES[key] = gl_radial_profile() if key == "gl" else optimal_profile(key)
        return _PROFILES[key]


# ---------------------------------------------------------------------------
# schedules, extrapolation, records
# ---------------------------------------------------------------------------


@dataclass
class EpsilonSchedule:
    """Decreasing interface widths plus the extrapolation model for the sweep."""

    epsilons: list[float]
    model: str = "linear_eps"  # or "log_inverse"
    fit_points: int | None = None  # None: the last min(4, len(epsilons)) widths

    def __post_init__(self):
        eps = [float(e) for e in self.epsilons]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("schedule must be strictly decreasing")
        if self.model not in ("linear_eps", "log_inverse"):
            raise ValueError(f"unknown extrapolation model {self.model!r}")
        if self.model == "log_inverse" and any(e >= 1.0 for e in eps):
            # 1/|log eps| is infinite at eps = 1 and no longer shrinks with eps above it
            raise ValueError(f"a log_inverse schedule needs widths below 1, got {max(eps):g}")
        if self.fit_points is None:
            self.fit_points = min(4, len(eps))
        if not 2 <= self.fit_points <= len(eps):
            # the extrapolation fits two parameters, so fewer points would be underdetermined
            raise ValueError(f"fit_points must be between 2 and the number of widths "
                             f"({len(eps)}), got {self.fit_points}")
        self.epsilons = eps

    @staticmethod
    def geometric(eps0: float, count: int, ratio: float = 0.5, model: str = "linear_eps",
                  fit_points: int | None = None) -> "EpsilonSchedule":
        return EpsilonSchedule([eps0 * ratio**k for k in range(count)], model, fit_points)


def extrapolate(epsilons, values, model: str = "linear_eps", fit_points: int = 4):
    """Least-squares fit of value = a + b*x on the last fit_points, x model-dependent."""
    eps = np.asarray(epsilons, dtype=float)[-fit_points:]
    val = np.asarray(values, dtype=float)[-fit_points:]
    x = eps if model == "linear_eps" else 1.0 / np.abs(np.log(eps))
    design = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(design, val, rcond=None)
    return float(coef[0]), float(coef[1])


def fitted_rate(epsilons, values, noise_floor: float = 1e-12):
    """Median rate r from successive differences of a geometric sweep.

    Returns None when the differences sit at the noise floor (the sequence is
    already converged; any power-law bound holds vacuously).
    """
    eps = np.asarray(epsilons, dtype=float)
    val = np.asarray(values, dtype=float)
    scale = max(1.0, float(np.max(np.abs(val))))
    rates = []
    for k in range(len(val) - 2):
        d1 = abs(val[k] - val[k + 1])
        d2 = abs(val[k + 1] - val[k + 2])
        if d1 < noise_floor * scale or d2 < noise_floor * scale:
            continue
        rates.append(np.log(d1 / d2) / np.log(eps[k] / eps[k + 1]))
    if not rates:
        return None
    # np.median, bit for bit, without its NaN check, which would load numpy.ma mid-run
    rates = np.sort(rates)
    mid = len(rates) // 2
    median = rates[mid] if len(rates) % 2 else (rates[mid - 1] + rates[mid]) / 2
    return float(np.nan if np.isnan(rates[-1]) else median)


@dataclass
class ConvergenceRecord:
    """One sweep over a schedule: measured values, extrapolated limit, fitted rate, target, gap."""

    name: str
    schedule: EpsilonSchedule
    values: list[float]
    target: float
    extras: dict[str, list[float]] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    csv_residuals: tuple[str, ...] = ()  # the extras written as residual_1 and residual_2

    def __post_init__(self):
        self.extrapolated, self.fit_slope = self.extrapolate(self.values)
        self.rate = fitted_rate(self.epsilons, self.values)

    @property
    def epsilons(self) -> list[float]:
        return self.schedule.epsilons

    def extrapolate(self, values) -> tuple[float, float]:
        """(limit, slope) of ``values`` per width, fitted as the schedule's model prescribes."""
        return extrapolate(self.epsilons, values, self.schedule.model, self.schedule.fit_points)

    @property
    def gap(self) -> float:
        return abs(self.extrapolated - self.target) / (1.0 + abs(self.target))

    def rate_at_least(self, min_rate: float, floor: float = 1e-9) -> bool:
        """Rate bound, vacuous when the sweep sits at/below the resolution floor."""
        if self.rate is None:
            return True
        if max(abs(v - self.extrapolated) for v in self.values) <= floor * (1.0 + abs(self.target)):
            return True
        return self.rate >= min_rate

    def rows(self) -> list[dict]:
        out = []
        named = [self.extras[k] for k in self.csv_residuals]
        for i, (e, v) in enumerate(zip(self.epsilons, self.values)):
            row = {
                "epsilon": e,
                "value": v,
                "target": self.target,
                "gap": abs(v - self.target) / (1.0 + abs(self.target)),
                "residual_1": named[0][i] if len(named) > 0 else 0.0,
                "residual_2": named[1][i] if len(named) > 1 else 0.0,
            }
            out.append(row)
        return out

    def summary(self) -> dict:
        return {
            "name": self.name,
            "model": self.schedule.model,
            "epsilons": list(self.epsilons),
            "values": list(self.values),
            "extras": {k: list(v) for k, v in self.extras.items()},
            "target": self.target,
            "extrapolated": self.extrapolated,
            "gap": self.gap,
            "rate": self.rate,
            "meta": self.meta,
        }


# ---------------------------------------------------------------------------
# tube quadrature assembly
# ---------------------------------------------------------------------------


def _ac_tube(g, prof: ProfileTable, eps: float, half_width: float | None) -> BulkQuadrature:
    if half_width is None:
        cap = default_half_width(g)
    else:
        cap = min(0.9 * g.focal_width, float(half_width))
    d, w = transverse_rule(prof, eps, cap)
    return tube_rule(g, d, w)


def default_half_width(g) -> float:
    """Transverse extent of the computational slab around the interface."""
    if np.isfinite(g.focal_width):
        return 0.9 * g.focal_width
    return 1.0  # flat shapes: the shipped domains extend one unit off the patch


# ---------------------------------------------------------------------------
# scalar (p-phase-field) experiments
# ---------------------------------------------------------------------------


def ac_limit_experiment(g, eta: VectorField, zeta: VectorField, p: float,
                        sched: EpsilonSchedule, half_width: float | None = None,
                        name: str | None = None) -> ConvergenceRecord:
    """Sweep of the second inner variation of the p-phase-field energy.

    Target: c_p * (second inner variation of the surface measure plus (p-1)
    times the squared-normal-gradient defect).
    """
    prof = _profile(p)
    sv_surface = geo.area_second_inner_variation(g, eta, zeta)
    disc = geo.ac_discrepancy(g, eta)
    cp = c_p(p)
    target = cp * (sv_surface + (p - 1.0) * disc)
    values, energies = [], []
    for eps in sched.epsilons:
        u = ansatz_field(g, eps, prof)
        quad = _ac_tube(g, prof, eps, half_width)
        u = pinned(u, quad.nodes, 1)
        f = integrand_p_allen_cahn(eps, p)
        values.append(second_inner_variation(f, u, eta, zeta, quad))
        energies.append(energy(f, u, quad))
    rec = ConvergenceRecord(
        name=name or f"ac_limit[p={p:g}]",
        schedule=sched,
        values=values,
        target=target,
        extras={"energy": energies},
        csv_residuals=("energy",),
        meta={
            "p": p,
            "c_p": cp,
            "surface_second_variation": sv_surface,
            "discrepancy": disc,
            "energy_target": cp * g.measure,
        },
    )
    return rec


def equipartition_residuals(g, p: float, sched: EpsilonSchedule, profile=None,
                            half_width: float | None = None,
                            name: str | None = None) -> ConvergenceRecord:
    """L1 equi-partition defects of the ansatz energy split, per width.

    values: int |eps^(p-1)|grad u|^p - W(u)/eps|; extras carry the second
    residual int |eps^(p-1)|grad u|^p - |grad Phi(u)|| (Phi the primitive of
    W^((p-1)/p)) and the energy gap |E - c_p area|.  ``profile``, if given,
    is a builder ``(surface, eps) -> field`` for control cases; the tube is
    always that of the optimal profile.
    """
    prof = _profile(p)
    cp = c_p(p)
    res_ab, res_phi, e_gap = [], [], []
    for eps in sched.epsilons:
        u = ansatz_field(g, eps, prof) if profile is None else profile(g, eps)
        quad = _ac_tube(g, prof, eps, half_width)
        zs, grads = u.evaluate(quad.nodes, 1)
        z = zs[0]
        gnorm = np.sqrt(np.einsum("im,im->m", grads[0], grads[0]))
        a_p = eps ** (p - 1.0) * gnorm**p
        b_q = (1.0 - z**2) ** 2 / eps
        phi_grad = np.abs(1.0 - z**2) ** (2.0 * (p - 1.0) / p) * gnorm
        res_ab.append(pairwise_dot(quad.weights, np.abs(a_p - b_q)))
        res_phi.append(pairwise_dot(quad.weights, np.abs(a_p - phi_grad)))
        f = integrand_p_allen_cahn(eps, p)
        e_gap.append(abs(pairwise_dot(quad.weights, f.f(zs, grads)) - cp * g.measure))
    return ConvergenceRecord(
        name=name or f"equipartition[p={p:g}]",
        schedule=sched,
        values=res_ab,
        target=0.0,
        extras={"residual_phi": res_phi, "energy_gap": e_gap},
        meta={"p": p, "c_p": cp, "area": g.measure},
        csv_residuals=("energy_gap", "residual_phi"),
    )


def tensor_pairing_experiment(g, p: float, phi: ScalarField, indices,
                              sched: EpsilonSchedule, half_width: float | None = None,
                              name: str | None = None) -> ConvergenceRecord:
    """Pairing of the weighted gradient 2- or 4-tensor against phi.

    Bulk: int eps^(p-1) prod_k (grad u)_{i_k} |grad u|^(p-#idx) phi;
    target: c_p int_Gamma prod_k n_{i_k} phi.
    """
    idx = tuple(int(i) for i in indices)
    if len(idx) not in (2, 4):
        raise DimensionMismatch("tensor pairings take 2 or 4 indices")
    prof = _profile(p)
    cp = c_p(p)
    n_prod = np.ones(g.n_nodes)
    for i in idx:
        n_prod = n_prod * g.normals[:, i]
    target = cp * pairwise_dot(g.weights, n_prod * phi.eval(g.nodes))
    values = []
    for eps in sched.epsilons:
        u = ansatz_field(g, eps, prof)
        quad = _ac_tube(g, prof, eps, half_width)
        grad = u.evaluate(quad.nodes, 1)[1][0]
        gnorm2 = np.einsum("im,im->m", grad, grad) + 1e-300
        dens = eps ** (p - 1.0) * gnorm2 ** ((p - len(idx)) / 2.0)
        for i in idx:
            dens = dens * grad[i]
        values.append(pairwise_dot(quad.weights, dens * phi.eval(quad.nodes)))
    return ConvergenceRecord(
        name=name or f"tensor[{idx},p={p:g}]",
        schedule=sched,
        values=values,
        target=target,
        meta={"indices": list(idx), "p": p, "c_p": cp},
    )


# ---------------------------------------------------------------------------
# vortex (complex order parameter) experiments
# ---------------------------------------------------------------------------


def gl_limit_experiment(g, eta: VectorField, zeta: VectorField, sched: EpsilonSchedule,
                        rho_max: float = 0.5, n_theta: int = 48,
                        name: str | None = None) -> ConvergenceRecord:
    """Sweep of the second inner variation of the vortex energy on a filament.

    Target: pi * (second inner variation of the filament length plus the
    transverse discrepancy); extras carry the normalized energy, whose target
    is pi times the filament length.  Convergence is logarithmic, so the
    schedule should use the 1/|log eps| model.
    """
    if g.codim != 2:
        raise DimensionMismatch("gl_limit_experiment needs a filament")
    prof = _profile("gl")
    sv_surface = geo.area_second_inner_variation(g, eta, zeta)
    disc_real, disc_dbar = geo.gl_discrepancy(g, eta)
    target = np.pi * (sv_surface + disc_real)
    values, energies = [], []
    for eps in sched.epsilons:
        u = gl_vortex_field(g, eps, prof)
        rho, wr = vortex_radial_rule(eps, rho_max)
        quad = filament_tube_rule(g, rho, wr, n_theta)
        u = pinned(u, quad.nodes, 1)
        f = integrand_ginzburg_landau(eps)
        values.append(second_inner_variation(f, u, eta, zeta, quad))
        energies.append(energy(f, u, quad))
    return ConvergenceRecord(
        name=name or "gl_limit",
        schedule=sched,
        values=values,
        target=target,
        extras={"energy": energies},
        csv_residuals=("energy",),
        meta={
            "surface_second_variation": sv_surface,
            "discrepancy_real": disc_real,
            "discrepancy_dbar": disc_dbar,
            "energy_target": np.pi * g.measure,
            "rho_max": rho_max,
        },
    )


# ---------------------------------------------------------------------------
# volume-constraint machinery
# ---------------------------------------------------------------------------


def volume_admissibility(g, eta: VectorField, zeta: VectorField | None = None,
                         n_radial: int = 48) -> tuple[float, float]:
    """First and second t-derivatives of the enclosed volume along the deformation.

    c1 = int_E div eta; c2 = int_E [div zeta + (div eta)^2 - trace((grad eta)^2)].
    With zeta = zeta_eta(eta) the integrand of c2 cancels pointwise, so the
    family preserves volume to second order for any velocity field.
    ``zeta=None`` selects that acceleration, built on one order-2 evaluation
    of eta.
    """
    nodes, weights = geo.enclosed_region_quadrature(g, n_radial)
    if zeta is None:
        eta = pinned(eta, nodes, 2)
        zeta = zeta_eta(eta)
    _, je = eta.evaluate(nodes, 1)
    _, jz = zeta.evaluate(nodes, 1)
    div_e = np.einsum("iim->m", je)
    div_z = np.einsum("iim->m", jz)
    c1 = pairwise_dot(weights, div_e)
    c2 = pairwise_dot(weights, div_z + div_e**2 - np.einsum("ijm,jim->m", je, je))
    return c1, c2


def boundary_flux(g, eta: VectorField) -> float:
    """int_Gamma eta . n, the divergence-theorem route to c1."""
    vals = np.einsum("mi,mi->m", eta.eval(g.nodes), g.normals)
    return pairwise_dot(g.weights, vals)


def require_zero_mean(g, xi: ScalarField) -> None:
    """Raise ValueError unless the real field xi has zero mean on g."""
    vals = xi.eval(g.nodes)
    mean = pairwise_dot(g.weights, vals)
    scale = pairwise_dot(g.weights, np.abs(vals)) + 1e-30
    if abs(mean) > 1e-10 * max(1.0, scale):
        raise ValueError(f"xi must have zero interface mean (got {mean:g})")


def constrained_poincare_check(g, xi, cutoff_width: float | None = None) -> tuple[float, float]:
    """Volume-preserving second variation vs the stability form of xi.

    lhs: second inner variation of the surface measure along the normal
    extension of xi with the volume-compensating acceleration; rhs: the
    stability form J(xi).  Requires mean-zero xi on a closed interface.
    """
    require_zero_mean(g, xi)
    w = 0.9 * g.focal_width if cutoff_width is None else float(cutoff_width)
    eta = geo.normal_extension(g, xi, w)
    lhs = geo.area_second_inner_variation(g, eta, zeta_eta(eta))
    rhs = geo.jacobi_form(g, xi)
    return lhs, rhs


def perturbed_field(u_eps: ScalarField, eta: VectorField, phi_ref: VectorField,
                    g, quad: BulkQuadrature) -> tuple[VectorField, float]:
    """Correct eta so the deformation preserves the mass of u_eps to first order.

    h = -int u div eta / int u div phi, evaluated through the equivalent
    concentrated form int grad u . (.) on the tube rule; returns
    (eta + h phi, h).  Degenerate reference fields (no interface flux) raise.
    """
    flux = boundary_flux(g, phi_ref)
    if abs(flux) < 1e-6:
        raise DegenerateReference(
            f"reference field has vanishing interface flux ({flux:.3e})"
        )
    grad = u_eps.evaluate(quad.nodes, 1)[1][0]

    def t_of(v: VectorField) -> float:
        vals = np.einsum("im,im->m", v.evaluate(quad.nodes, 0)[0], grad)
        return pairwise_dot(quad.weights, vals)

    denom = t_of(phi_ref)
    if abs(denom) < 1e-8:
        raise DegenerateReference(f"denominator integral too small ({denom:.3e})")
    h = -t_of(eta) / denom
    return eta + h * phi_ref, h


def _forms_at_width(g, v_ext: VectorField, eps: float, prof: ProfileTable,
                    half_width: float | None) -> tuple[float, float]:
    """Q_eps(-grad u . V) and the second inner variation along (V, zeta^V) at one width.

    u and V are evaluated once each, at order 2, on the tube nodes; zeta^V,
    evaluated once, reads V's held parts.  The held parts die with the width.
    V is evaluated first: its jets are the largest working set of the width,
    and nothing else is held while they are built.
    """
    u = ansatz_field(g, eps, prof)
    quad = _ac_tube(g, prof, eps, half_width)
    v = pinned(v_ext, quad.nodes, 2)
    u = pinned(u, quad.nodes, 2)
    f = integrand_p_allen_cahn(eps, 2.0)
    q_raw = second_variation(f, u, composite_test_function(u, v), quad)
    return q_raw, second_inner_variation(f, u, v, zeta_eta(v), quad)


def quadratic_forms(g, xi, sched: EpsilonSchedule, cutoff_width: float | None = None,
                    half_width: float | None = None,
                    name: str | None = None) -> ConvergenceRecord:
    """Phase-field Hessian form on transported normal modes vs its surface limit.

    Per width: Q_eps(-grad u . V) with V the normal extension of xi (via the
    Hessian form), the second inner variation along (V, zeta^V), and the
    first-variation correction dE(u, X0) = delta2 - Q_eps, the
    Lagrange-multiplier term that vanishes for constrained minimizers but not
    for ansatz fields.  values = the corrected sum (= the second inner
    variation, which converges to c_2 * J(xi)); extras keep the raw form and
    the correction so the non-minimality defect stays visible rather than
    suppressed.
    """
    p = 2.0
    prof = _profile(p)
    w = 0.9 * g.focal_width if cutoff_width is None else float(cutoff_width)
    v_ext = geo.normal_extension(g, xi, w)
    target = c_p(2.0) * geo.quadratic_form_limit(g, xi)
    raw, lagrange, corrected = [], [], []
    for eps in sched.epsilons:
        q_raw, d2_inner = _forms_at_width(g, v_ext, eps, prof, half_width)
        raw.append(q_raw)
        lagrange.append(d2_inner - q_raw)
        corrected.append(d2_inner)
    return ConvergenceRecord(
        name=name or "quadratic_forms",
        schedule=sched,
        values=corrected,
        target=target,
        extras={"lagrange_term": lagrange, "raw_form": raw},
        meta={"surface_form": target / c_p(2.0), "c_2": c_p(2.0)},
        csv_residuals=("lagrange_term", "raw_form"),
    )
