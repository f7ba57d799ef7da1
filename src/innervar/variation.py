"""Bulk functionals A(u) = int F(u, grad u) and their four variations.

Closed forms implemented here, for state dimension 1 or 2 (complex order
parameters stored componentwise, with the real inner product):

* first variation        dA(u, phi)   = int F_z phi + F_P : grad phi
* second variation       d2A(u, phi)  = int F_zz phi^2 + F_PP(grad phi, grad phi)
  (every density here splits as G(P) + H(z), so the mixed term 2 F_zP phi grad phi
  is zero and not formed)
* first inner variation  deltaA       = int F div eta - F_P : (grad u . grad eta)
* second inner variation delta2A      = int F X - 2 (F_P, grad u . grad eta) div eta
                                              - 2 (F_P, Y) + F_PP(. , .)
  with X = div zeta + (div eta)^2 - trace((grad eta)^2) and
       Y = 1/2 grad u . grad zeta - grad u . (grad eta)^2,
  where (grad u . M)_ai = sum_j u^a_j M_ji.

The kernels read the fields' component-major parts (:mod:`innervar.fields`)
and contract them with ``np.einsum`` over the trailing point axis, so every
sum over a component or derivative index adds its terms into zeros in index
order (for batches of at least two points).  The finite-difference oracle
evaluates t -> A(u o Phi_t^{-1}) without inverting the map, through
grad Phi_t^{-1}(Phi_t(x)) = [grad Phi_t(x)]^{-1}, and applies 5-point
stencils at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonInvertible
from .fields import ScalarField, VectorField, pinned, x0_field
from .geometry import doubling_rule, gauss_rule
from .sums import pairwise_dot


class Integrand:
    """Bulk density F(z, P) = G(P) + H(z) with its partials, batched callbacks.

    The callbacks take component-major batches: z is (d, M) and P is
    (d, N, M).  ``F_PP_dot(z, P, Q)`` applies the second P-derivative as a
    linear map to a direction Q of shape (d, N, M); the bilinear form is
    recovered by contracting against another direction, and is symmetric in
    the two slots.
    """

    def __init__(self, state_dim, f, f_z, f_p, f_zz, f_pp_dot, label=""):
        self.state_dim = int(state_dim)
        self.f = f
        self.f_z = f_z
        self.f_p = f_p
        self.f_zz = f_zz
        self.f_pp_dot = f_pp_dot
        self.label = label

    def pp_bilinear(self, z, p, q1, q2):
        return np.einsum("dim,dim->m", q1, self.f_pp_dot(z, p, q2))


@dataclass
class BulkQuadrature:
    """Nodes/weights for bulk integrals, tensor-grid or tube mode."""

    nodes: np.ndarray
    weights: np.ndarray
    mode: str = "tensor_grid"
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    def integrate(self, fn) -> float:
        return pairwise_dot(self.weights, np.asarray(fn(self.nodes), dtype=float))

    def volume(self) -> float:
        return self.integrate(lambda x: np.ones(x.shape[0]))


def tensor_grid(box, n_per_axis: int) -> BulkQuadrature:
    """Product Gauss-Legendre rule over a box [[lo, hi], ...]."""
    box = [tuple(map(float, b)) for b in box]
    rules = [gauss_rule(lo, hi, n_per_axis) for lo, hi in box]
    grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    w = rules[0][1]
    for r in rules[1:]:
        w = np.multiply.outer(w, r[1])
    return BulkQuadrature(nodes, w.ravel(), "tensor_grid", {"box": box, "n": n_per_axis})


def tube_rule(surface, d_nodes, d_weights) -> BulkQuadrature:
    """Level-set tube rule around a hypersurface.

    Nodes are y + d n(y); weights carry the level-set Jacobian
    prod_i (1 + d kappa_i(y)), exact for the supported shapes.  Offsets must
    stay inside the focal width (positivity of the Jacobian).
    """
    d = np.asarray(d_nodes, dtype=float)
    wd = np.asarray(d_weights, dtype=float)
    if surface.focal_width < np.inf and np.max(np.abs(d)) >= surface.focal_width:
        raise ValueError("tube offsets reach the focal distance; Jacobian degenerates")
    y = surface.nodes
    n = surface.normals
    kap = surface.curvatures
    nodes = (y[None, :, :] + d[:, None, None] * n[None, :, :]).reshape(-1, surface.dim)
    jac = np.prod(1.0 + d[:, None, None] * kap[None, :, :], axis=2)  # (nd, M)
    w = (wd[:, None] * surface.weights[None, :] * jac).reshape(-1)
    return BulkQuadrature(nodes, w, "tube", {"shape": surface.config})


def filament_tube_rule(filament, rho_nodes, rho_weights, n_theta: int = 32) -> BulkQuadrature:
    """Solid tube rule around a filament, transverse polar coordinates."""
    rho = np.asarray(rho_nodes, dtype=float)
    wr = np.asarray(rho_weights, dtype=float)
    theta = 2.0 * np.pi * (np.arange(n_theta) + 0.5) / n_theta
    wt = np.full(n_theta, 2.0 * np.pi / n_theta)
    y = filament.nodes
    p, q = filament.frame_p, filament.frame_q
    ct, st = np.cos(theta), np.sin(theta)
    a = rho[:, None] * ct[None, :]  # (nr, nt) offsets along p
    b = rho[:, None] * st[None, :]
    nodes = (
        y[None, None, :, :]
        + a[:, :, None, None] * p[None, None, :, :]
        + b[:, :, None, None] * q[None, None, :, :]
    ).reshape(-1, filament.dim)
    jac = filament.tube_jacobian(
        np.broadcast_to(a[:, :, None], (len(rho), n_theta, len(y))),
        np.broadcast_to(b[:, :, None], (len(rho), n_theta, len(y))),
    )
    w = (
        (wr * rho)[:, None, None]
        * wt[None, :, None]
        * filament.weights[None, None, :]
        * jac
    ).reshape(-1)
    return BulkQuadrature(nodes, w, "filament_tube", {"shape": filament.config})


def vortex_radial_rule(eps: float, rho_max: float, nodes_per_panel: int = 10):
    """Radial rule resolving an eps-core: panels double from 2*eps to rho_max."""
    return doubling_rule(min(2.0 * eps, rho_max), rho_max, nodes_per_panel)


# ---------------------------------------------------------------------------
# built-in integrands
# ---------------------------------------------------------------------------


def integrand_dirichlet(state_dim: int = 1) -> Integrand:
    """F = |P|^2 / 2."""

    def f(z, p):
        return 0.5 * np.einsum("dim,dim->m", p, p)

    def f_z(z, p):
        return np.zeros(z.shape)

    def f_p(z, p):
        return p.copy()

    def f_zz(z, p):
        d, m = z.shape
        return np.zeros((d, d, m))

    def f_pp_dot(z, p, q):
        return q.copy()

    return Integrand(state_dim, f, f_z, f_p, f_zz, f_pp_dot, "dirichlet")


def integrand_p_allen_cahn(eps: float, p: float, reg: float = 1e-12) -> Integrand:
    """F = eps^(p-1)|P|^p / p + (p-1)(1-z^2)^2 / (p eps).

    For p < 2 the |P|^(p-2) factor is regularized as (|P|^2 + reg^2)^((p-2)/2)
    and the rank-four term is switched off where |P| < 1e-9; ansatz profiles
    keep |grad u| bounded below on the tube so this only touches nodes that
    contribute nothing.
    """
    eps = float(eps)
    pw = float(p)
    ee = eps ** (pw - 1.0)
    cw = (pw - 1.0) / (pw * eps)

    def _m2(pmat):
        return np.einsum("dim,dim->m", pmat, pmat) + reg * reg

    def f(z, pm):
        return ee * _m2(pm) ** (pw / 2.0) / pw + cw * (1.0 - z[0] ** 2) ** 2

    def f_z(z, pm):
        out = np.zeros_like(z)
        out[0] = cw * (-4.0) * z[0] * (1.0 - z[0] ** 2)
        return out

    def f_p(z, pm):
        return ee * _m2(pm) ** ((pw - 2.0) / 2.0) * pm

    def f_zz(z, pm):
        d, m = z.shape
        out = np.zeros((d, d, m))
        out[0, 0] = cw * (12.0 * z[0] ** 2 - 4.0)
        return out

    def f_pp_dot(z, pm, q):
        m2 = _m2(pm)
        out = ee * m2 ** ((pw - 2.0) / 2.0) * q
        if pw != 2.0:
            dot = np.einsum("dim,dim->m", pm, q)
            fac4 = ee * (pw - 2.0) * m2 ** ((pw - 4.0) / 2.0)
            fac4 = np.where(m2 > 1e-18, fac4, 0.0)  # skip degenerate-gradient nodes
            out = out + fac4 * dot * pm
        return out

    return Integrand(1, f, f_z, f_p, f_zz, f_pp_dot, f"p_allen_cahn[p={pw:g},eps={eps:g}]")


def integrand_ginzburg_landau(eps: float) -> Integrand:
    """F = (|P|^2/2 + (1-|z|^2)^2/(4 eps^2)) / |log eps|, complex state as R^2."""
    eps = float(eps)
    el = abs(np.log(eps))

    def f(z, pm):
        z2 = np.einsum("dm,dm->m", z, z)
        return (0.5 * np.einsum("dim,dim->m", pm, pm) + (1.0 - z2) ** 2 / (4.0 * eps * eps)) / el

    def f_z(z, pm):
        z2 = np.einsum("dm,dm->m", z, z)
        return -(1.0 - z2) / (eps * eps) * z / el

    def f_p(z, pm):
        return pm / el

    def f_zz(z, pm):
        d, m = z.shape
        z2 = np.einsum("dm,dm->m", z, z)
        eye = np.eye(d)[:, :, None]
        return (-(1.0 - z2) * eye + 2.0 * z[:, None] * z[None, :]) / (eps * eps * el)

    def f_pp_dot(z, pm, q):
        return q / el

    return Integrand(2, f, f_z, f_p, f_zz, f_pp_dot, f"ginzburg_landau[eps={eps:g}]")


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def _check_state(fn_state, u):
    if fn_state != u.state_dim:
        raise DimensionMismatch(
            f"integrand state_dim {fn_state} does not match field state_dim {u.state_dim}"
        )


def composite_test_function(u: ScalarField, eta: VectorField) -> ScalarField:
    """phi = -grad u . eta with analytic gradient (consumes u's Hessian)."""

    def evaluator(xb, order):
        _, gu, *hu = u.evaluate(xb, order + 1)
        ev, *je = eta.evaluate(xb, order)
        val = -np.einsum("djm,jm->dm", gu, ev)
        if order == 0:
            return [val]
        hu_eta = np.einsum("djim,jm->dim", hu.pop(), ev)  # u's Hessian dies here
        return [val, -(hu_eta + np.einsum("djm,jim->dim", gu, je[0]))]

    return ScalarField.from_evaluator(u.dim, evaluator, 1, state_dim=u.state_dim,
                                      label=f"-grad({u.label}).({eta.label})")


def energy(f: Integrand, u: ScalarField, quad: BulkQuadrature) -> float:
    _check_state(f.state_dim, u)
    z, p = u.evaluate(quad.nodes, 1)
    return pairwise_dot(quad.weights, f.f(z, p))


def first_variation(f: Integrand, u: ScalarField, phi: ScalarField, quad: BulkQuadrature) -> float:
    _check_state(f.state_dim, u)
    _check_state(f.state_dim, phi)
    z, p = u.evaluate(quad.nodes, 1)
    pv, pg = phi.evaluate(quad.nodes, 1)
    dens = np.einsum("dm,dm->m", f.f_z(z, p), pv) + np.einsum("dim,dim->m", f.f_p(z, p), pg)
    return pairwise_dot(quad.weights, dens)


def second_variation(f: Integrand, u: ScalarField, phi: ScalarField, quad: BulkQuadrature) -> float:
    _check_state(f.state_dim, u)
    z, p = u.evaluate(quad.nodes, 1)
    pv, pg = phi.evaluate(quad.nodes, 1)
    dens = np.einsum("abm,am,bm->m", f.f_zz(z, p), pv, pv)
    dens += f.pp_bilinear(z, p, pg, pg)
    return pairwise_dot(quad.weights, dens)


def first_inner_variation(f: Integrand, u: ScalarField, eta: VectorField,
                          quad: BulkQuadrature) -> float:
    """int F div eta - F_P : (grad u . grad eta); independent of zeta."""
    _check_state(f.state_dim, u)
    z, p = u.evaluate(quad.nodes, 1)
    _, je = eta.evaluate(quad.nodes, 1)
    div_e = np.einsum("iim->m", je)
    p_je = np.einsum("djm,jim->dim", p, je)
    del je
    dens = f.f(z, p) * div_e
    dens -= np.einsum("dim,dim->m", f.f_p(z, p), p_je)
    return pairwise_dot(quad.weights, dens)


def second_inner_variation(f: Integrand, u: ScalarField, eta: VectorField,
                           zeta: VectorField, quad: BulkQuadrature) -> float:
    _check_state(f.state_dim, u)
    xb = quad.nodes
    # zeta first: unpinned, it is the largest evaluation (eta at order 2), so nothing else
    # is held while it runs; each Jacobian dies once its products are formed
    _, jz = zeta.evaluate(xb, 1)
    div_z = np.einsum("iim->m", jz)
    z, p = u.evaluate(xb, 1)
    p_jz = np.einsum("djm,jim->dim", p, jz)
    del jz
    _, je = eta.evaluate(xb, 1)
    div_e = np.einsum("iim->m", je)
    x_fac = div_z + div_e**2 - np.einsum("ijm,jim->m", je, je)
    p_je = np.einsum("djm,jim->dim", p, je)
    y_fac = 0.5 * p_jz - np.einsum("djm,jim->dim", p_je, je)
    del je, p_jz
    fp = f.f_p(z, p)
    dens = f.f(z, p) * x_fac
    dens -= 2.0 * np.einsum("dim,dim->m", fp, p_je) * div_e
    dens -= 2.0 * np.einsum("dim,dim->m", fp, y_fac)
    dens += f.pp_bilinear(z, p, p_je, p_je)
    return pairwise_dot(quad.weights, dens)


def inner_variation_oracle(f: Integrand, u: ScalarField, eta: VectorField,
                           zeta: VectorField, quad: BulkQuadrature,
                           h: float | None = None) -> tuple[float, float]:
    """5-point finite differences of t -> A(u o Phi_t^{-1}) at t = 0.

    Uses the change-of-variables form: the integrand at the original nodes is
    F(u, grad u . [grad Phi_t]^{-1}) |det grad Phi_t|, so no map inversion is
    needed.  Step defaults to 1e-3 / (1 + max |grad eta|).
    """
    _check_state(f.state_dim, u)
    xb = quad.nodes
    z, p = u.evaluate(xb, 1)
    _, je = eta.evaluate(xb, 1)
    _, jz = zeta.evaluate(xb, 1)
    if h is None:
        scale = max(float(np.max(np.abs(je))), float(np.max(np.abs(jz))))
        h = 1e-3 / (1.0 + scale)
    eye = np.eye(quad.dim)[:, :, None]

    def a_of_t(t: float) -> float:
        mat = np.moveaxis(eye + t * je + 0.5 * t * t * jz, -1, 0)  # (M, N, N) for linalg
        det = np.linalg.det(mat)
        if np.any(det <= 0.0):
            raise NonInvertible("deformation Jacobian lost positivity at oracle stencil")
        minv = np.ascontiguousarray(np.moveaxis(np.linalg.inv(mat), 0, -1))
        pt = np.einsum("djm,jim->dim", p, minv)
        return pairwise_dot(quad.weights, f.f(z, pt) * np.abs(det))

    a_m2, a_m1, a_0, a_p1, a_p2 = (a_of_t(t) for t in (-2 * h, -h, 0.0, h, 2 * h))
    d1 = (a_m2 - 8.0 * a_m1 + 8.0 * a_p1 - a_p2) / (12.0 * h)
    d2 = (-a_m2 + 16.0 * a_m1 - 30.0 * a_0 + 16.0 * a_p1 - a_p2) / (12.0 * h * h)
    return d1, d2


def sv_relation_residual(f: Integrand, u: ScalarField, eta: VectorField,
                         zeta: VectorField, quad: BulkQuadrature) -> float:
    """delta2 A - d2A(u, -grad u . eta) - dA(u, X0); an identity in u, ~0 always."""
    phi = composite_test_function(u, eta)
    x0 = x0_field(u, eta, zeta)
    d2a = second_variation(f, u, phi, quad)
    da_x0 = first_variation(f, u, x0, quad)
    d2inner = second_inner_variation(f, u, eta, zeta, quad)
    return d2inner - d2a - da_x0


@dataclass
class VariationReport:
    """All variations of one (F, u, eta, zeta, phi) configuration plus residuals."""

    label: str
    value: float
    d_a: float
    d2_a: float
    delta_a: float
    delta2_a: float
    oracle_delta: float
    oracle_delta2: float
    fv_bridge_residual: float
    sv_relation_residual: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "value": self.value,
            "dA": self.d_a,
            "d2A": self.d2_a,
            "deltaA": self.delta_a,
            "delta2A": self.delta2_a,
            "oracle_deltaA": self.oracle_delta,
            "oracle_delta2A": self.oracle_delta2,
            "fv_bridge_residual": self.fv_bridge_residual,
            "sv_relation_residual": self.sv_relation_residual,
        }


def variation_report(f: Integrand, u: ScalarField, eta: VectorField,
                     zeta: VectorField, quad: BulkQuadrature, label="") -> VariationReport:
    """Every variation on ``quad``, each field evaluated once on its nodes.

    u is held at order 2 (phi and X0 read its Hessian), eta, zeta and
    phi = -grad u . eta at order 1.
    """
    xb = quad.nodes
    u = pinned(u, xb, 2)
    eta, zeta = pinned(eta, xb, 1), pinned(zeta, xb, 1)
    phi = pinned(composite_test_function(u, eta), xb, 1)
    x0 = x0_field(u, eta, zeta)
    val = energy(f, u, quad)
    da = first_variation(f, u, phi, quad)
    d2a = second_variation(f, u, phi, quad)
    delta = first_inner_variation(f, u, eta, quad)
    delta2 = second_inner_variation(f, u, eta, zeta, quad)
    od1, od2 = inner_variation_oracle(f, u, eta, zeta, quad)
    return VariationReport(
        label=label or f.label,
        value=val,
        d_a=da,
        d2_a=d2a,
        delta_a=delta,
        delta2_a=delta2,
        oracle_delta=od1,
        oracle_delta2=od2,
        fv_bridge_residual=delta - da,
        sv_relation_residual=delta2 - d2a - first_variation(f, u, x0, quad),
    )
