"""Bulk functionals A(u) = int F(u, grad u) and their four variations.

Closed forms implemented here, for state dimension 1 or 2 (complex order
parameters stored componentwise, with the real inner product):

* first variation        dA(u, phi)   = int F_z phi + F_P : grad phi
* second variation       d2A(u, phi)  = int F_zz phi^2 + F_PP(grad phi, grad phi)
  (every density here is radial, F = G(|P|^2) + H(|z|^2), so the mixed term
  2 F_zP phi grad phi is zero and not formed; :class:`Integrand` derives the
  partials from the factors of G and H)
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

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EpsilonTooLarge, NonInvertible
from .fields import ScalarField, VectorField, pinned, x0_field
from .geometry import doubling_rule, gauss_rule, product_rule
from .sums import pairwise_dot


class Integrand:
    """Radial bulk density F(z, P) = G(|P|^2) + H(|z|^2) and all its partials.

    ``g`` is the factor tuple (G, 2G', 4G'') and ``h`` the tuple (H, 2H', 4H'');
    each factor is a function of the squared norm, m2 = |P|^2 or z2 = |z|^2, a
    number where it is constant, or None where it is identically zero.  Each
    partial forms a squared norm at most once, and only when a factor it reads
    is a function:

        F_z = 2H' z,  F_P = 2G' P,  F_zz = 2H' I + 4H'' z (x) z,
        F_PP . Q = 2G' Q + 4G'' (P . Q) P,

    whose last, rank-four term is skipped where 4G'' is None (p = 2 and
    Ginzburg-Landau).  Batches are component-major, z (d, M) and P, Q
    (d, N, M); any other layout raises DimensionMismatch.
    """

    def __init__(self, state_dim, g, h, label):
        self.state_dim, self.g, self.h, self.label = int(state_dim), g, h, label

    def _layout(self, z, *ps):
        d, m = self.state_dim, z.shape[-1]  # P fixes N for every Q
        if z.shape != (d, m) or any(q.shape != (d, *ps[0].shape[1:2], m) for q in ps):
            raise DimensionMismatch(f"integrand {self.label} with d = {d} takes z (d, M) and "
                                    f"P (d, N, M), not {z.shape} and {ps[-1].shape}")

    def f(self, z, p):
        self._layout(z, p)
        terms = [t for t in _factors(self.g, p, 0) + _factors(self.h, z, 0) if t is not None]
        return sum(terms[1:], terms[0])

    def f_z(self, z, p):
        self._layout(z, p)
        return _scaled(*_factors(self.h, z, 1), z)

    def f_p(self, z, p):
        self._layout(z, p)
        return _scaled(*_factors(self.g, p, 1), p)

    def f_zz(self, z, p):
        self._layout(z, p)
        h1, h2 = _factors(self.h, z, 1, 2)
        d = self.state_dim
        out = np.zeros((d, d, z.shape[1])) if h2 is None else h2 * z[:, None] * z[None, :]
        if h1 is not None:
            out[range(d), range(d)] += h1
        return out

    def f_pp_dot(self, z, p, q):
        self._layout(z, p, q)
        g1, g2 = _factors(self.g, p, 1, 2)
        out = _scaled(g1, q)
        return out if g2 is None else out + g2 * np.einsum("dim,dim->m", p, q) * p

    def pp_bilinear(self, z, p, q1, q2):
        self._layout(z, p, q1)
        return np.einsum("dim,dim->m", q1, self.f_pp_dot(z, p, q2))


def _factors(factors, a, *ks):
    """The factors ``ks`` of a tuple at the squared norm of ``a``, formed only if one reads it."""
    picked = [factors[k] for k in ks]
    if not any(callable(c) for c in picked):
        return picked
    a2 = np.einsum("dm,dm->m", a, a) if a.ndim == 2 else np.einsum("dim,dim->m", a, a)
    return [c(a2) if callable(c) else c for c in picked]


def _scaled(factor, a):
    return np.zeros(a.shape) if factor is None else factor * a


@dataclass
class BulkQuadrature:
    """Nodes/weights for bulk integrals: a tensor grid or a tube around a shape."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    def integrate(self, fn) -> float:
        return pairwise_dot(self.weights, np.asarray(fn(self.nodes), dtype=float))

    def volume(self) -> float:
        return self.integrate(lambda x: np.ones(x.shape[0]))


def tensor_grid(box, n_per_axis: int) -> BulkQuadrature:
    """Product Gauss-Legendre rule over a box [[lo, hi], ...]."""
    nodes, w = product_rule([gauss_rule(float(lo), float(hi), n_per_axis) for lo, hi in box])
    return BulkQuadrature(nodes, w)


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
    return BulkQuadrature(nodes, w)


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
    return BulkQuadrature(nodes, w)


def vortex_radial_rule(eps: float, rho_max: float):
    """Radial rule resolving an eps-core: 10-node panels double from 2*eps to rho_max."""
    return doubling_rule(min(2.0 * eps, rho_max), rho_max, 10)


# ---------------------------------------------------------------------------
# built-in integrands
# ---------------------------------------------------------------------------


def integrand_dirichlet(state_dim: int = 1) -> Integrand:
    """F = |P|^2 / 2."""
    return Integrand(state_dim, (lambda m2: 0.5 * m2, 1.0, None), (None, None, None), "dirichlet")


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
    r2 = reg * reg

    def g4(m2):
        x = m2 + r2
        fac4 = ee * (pw - 2.0) * x ** ((pw - 4.0) / 2.0)
        return np.where(x > 1e-18, fac4, 0.0)  # skip degenerate-gradient nodes

    g = (lambda m2: ee * (m2 + r2) ** (pw / 2.0) / pw,
         ee if pw == 2.0 else lambda m2: ee * (m2 + r2) ** ((pw - 2.0) / 2.0),
         None if pw == 2.0 else g4)
    h = (lambda z2: cw * (1.0 - z2) ** 2, lambda z2: -4.0 * cw * (1.0 - z2), 8.0 * cw)
    return Integrand(1, g, h, f"p_allen_cahn[p={pw:g},eps={eps:g}]")


def integrand_ginzburg_landau(eps: float) -> Integrand:
    """F = (|P|^2/2 + (1-|z|^2)^2/(4 eps^2)) / |log eps|, complex state as R^2; eps < 1."""
    eps = float(eps)
    if not eps < 1.0:
        raise EpsilonTooLarge(f"the Ginzburg-Landau energy divides by |log eps|, so eps must be "
                              f"below 1, got {eps:g}")
    el = abs(np.log(eps))
    c = 1.0 / (eps * eps * el)
    return Integrand(2, (lambda m2: 0.5 * m2 / el, 1.0 / el, None),
                     (lambda z2: 0.25 * c * (1.0 - z2) ** 2, lambda z2: -c * (1.0 - z2), 2.0 * c),
                     f"ginzburg_landau[eps={eps:g}]")


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

    return ScalarField.from_evaluator(u.dim, evaluator, 1, state_dim=u.state_dim)


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
                           zeta: VectorField, quad: BulkQuadrature) -> tuple[float, float]:
    """5-point finite differences of t -> A(u o Phi_t^{-1}) at t = 0.

    Uses the change-of-variables form: the integrand at the original nodes is
    F(u, grad u . [grad Phi_t]^{-1}) det grad Phi_t, so no map inversion is
    needed.  The step is h = 1e-3 / (1 + max(|grad eta|, |grad zeta|)), and
    each stencil matrix grad Phi_t = I + t grad eta + t^2/2 grad zeta, |t| <= 2h,
    is solved by :func:`_det_and_solve`, elimination without pivoting: every
    entry off the identity is below about 2e-3, so the matrix is strictly
    diagonally dominant and the elimination backward stable.  A determinant
    that is not positive (NaN included) raises NonInvertible.
    """
    _check_state(f.state_dim, u)
    xb = quad.nodes
    z, p = u.evaluate(xb, 1)
    _, je = eta.evaluate(xb, 1)
    _, jz = zeta.evaluate(xb, 1)
    h = 1e-3 / (1.0 + max(float(np.max(np.abs(je))), float(np.max(np.abs(jz)))))
    eye = np.eye(quad.dim)[:, :, None]

    def a_of_t(t: float) -> float:
        mat = t * je
        mat += eye
        mat += 0.5 * t * t * jz
        det, pt = _det_and_solve(mat, p)
        del mat
        if not np.all(det > 0.0):
            raise NonInvertible("deformation Jacobian lost positivity at oracle stencil")
        return pairwise_dot(quad.weights, f.f(z, pt) * det)

    a_m2, a_m1, a_0, a_p1, a_p2 = (a_of_t(t) for t in (-2 * h, -h, 0.0, h, 2 * h))
    d1 = (a_m2 - 8.0 * a_m1 + 8.0 * a_p1 - a_p2) / (12.0 * h)
    d2 = (-a_m2 + 16.0 * a_m1 - 30.0 * a_0 + 16.0 * a_p1 - a_p2) / (12.0 * h * h)
    return d1, d2


def _det_and_solve(mat: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det M and p . M^{-1} for a component-major stack M (N, N, M) and p (d, N, M).

    Gaussian elimination without pivoting on M^T, with p^T as right-hand side:
    the determinant is the product of the pivots.  Every row operation works
    on length-M rows, for any N.  ``mat`` is overwritten; ``p`` is copied
    first, since it may be a held part of a pinned field.  Only safe for
    matrices whose pivots stay away from zero, like the oracle's near-identity
    stencils.
    """
    n = mat.shape[0]
    a = mat.transpose(1, 0, 2)  # a[i, j] is M[j, i], a contiguous row of mat
    x = p.copy()  # x[:, i] is unknown i of every right-hand side
    det = np.ones(mat.shape[-1])
    for k in range(n):
        det *= a[k, k]
        for i in range(k + 1, n):
            r = a[i, k] / a[k, k]
            for j in range(k + 1, n):
                a[i, j] -= r * a[k, j]
            x[:, i] -= r * x[:, k]
    for k in reversed(range(n)):
        for j in range(k + 1, n):
            x[:, k] -= a[k, j] * x[:, j]
        x[:, k] /= a[k, k]
    return det, x


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
