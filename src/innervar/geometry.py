"""Parametrized interfaces, surface quadrature, and surface functionals.

Supported shapes (all with analytic frames, curvatures and distance jets):
the flat periodic patch {x_0 = 0} over [-1, 1]^(dim-1) in R^2/R^3, a circle
in R^2 and a sphere in R^3 around the origin, the straight filament segment
along e1 of length 1 in R^3 (periodic), and a circular filament in R^3.  Each
shape is a small subclass of ``Hypersurface`` or ``Filament``; the functions
``circle``, ``sphere``, ``flat_patch``, ``straight_filament`` and
``circular_filament`` build them, and configs reach the sphere, the flat
patch and the straight filament through ``_SHAPES``.  A shape owns the
geometric decisions about itself: its tube widths (``tube_limit``, 0.9 focal
widths, and ``default_half_width``, the tube limit or 1 on flat shapes), its
distance jets and, on a hypersurface, ``normal_coordinates``, the jets of
(signed distance, foot point, unit normal) that normal extensions are built
from.

Quadrature is product Gauss-Legendre in non-periodic chart directions and
uniform (trapezoidal) in periodic ones; the sphere uses a latitude-longitude
Gauss grid whose nodes avoid the poles.  :func:`product_rule` builds every
tensor-product grid.  All reductions run through the deterministic pairwise
summation.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .config import REQUIRED, build, count, integer, positive
from .errors import DimensionMismatch, TubeTooNarrow
from .fields import ScalarField, VectorField
from .jets import Jet, jet_exp, jet_norm
from .sums import pairwise_dot


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], computed once per n and read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_rule(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [lo, hi]."""
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def doubling_rule(first: float, end: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss panels on [0, first], then on intervals doubling their right edge up to end."""
    edges = [0.0, first]
    while edges[-1] < end:
        edges.append(min(2.0 * edges[-1], end))
    nodes, weights = zip(*(gauss_rule(lo, hi, n) for lo, hi in zip(edges[:-1], edges[1:])))
    return np.concatenate(nodes), np.concatenate(weights)


def uniform_rule(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint rule on [lo, hi]; spectrally accurate for periodic integrands."""
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), np.full(n, h)


def product_rule(rules) -> tuple[np.ndarray, np.ndarray]:
    """Tensor product of 1-D (nodes, weights) rules: nodes (M, k), weights (M,), first axis slowest."""
    grids = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    w = rules[0][1]
    for _, wk in rules[1:]:
        w = np.multiply.outer(w, wk)
    return np.stack([g.ravel() for g in grids], axis=1), w.ravel()


class _Interface:
    """Shared storage for parametrized interfaces of any codimension; every one is closed."""

    codim = 1

    type_name: str  # the shape's "type" in a config descriptor

    def __init__(self, dim, nodes, weights, tangents, curvatures, measure, focal_width):
        self.dim = int(dim)
        self.nodes = nodes
        self.weights = weights
        self.tangents = tangents  # (M, dim - codim, dim)
        self.curvatures = curvatures  # (M, dim - codim)
        self.measure = float(measure)  # closed-form H^{dim-codim}(Gamma)
        self.focal_width = float(focal_width)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def tube_limit(self) -> float:
        """Widest tube around the interface that rules and fields may use (inf when flat)."""
        return 0.9 * self.focal_width

    @property
    def default_half_width(self) -> float:
        """Tube and cutoff width when none is given: the tube limit, or 1 on flat shapes."""
        return self.tube_limit if np.isfinite(self.tube_limit) else 1.0


class Hypersurface(_Interface):
    """Codimension-one interface with outward unit normal.

    Subclasses provide ``distance_jet(xb, order)``, the jet of the signed
    distance truncated to ``order``, and ``normal_coordinates(xb, order)``,
    the jets of (signed distance, foot point, unit normal).
    """

    codim = 1

    def __init__(self, dim, nodes, weights, normals, tangents, curvatures, measure, focal_width):
        super().__init__(dim, nodes, weights, tangents, curvatures, measure, focal_width)
        self.normals = normals


class RoundSurface(Hypersurface):
    """Circle in R^2 or sphere in R^3 around the origin.

    A sphere keeps its ``grid`` (n_polar, n_azimuth) for the enclosed ball's rule.
    """

    def __init__(self, radius, nodes, weights, normals, tangents, measure, grid=None):
        dim = nodes.shape[1]
        super().__init__(dim, nodes, weights, normals, tangents,
                         np.full((nodes.shape[0], dim - 1), 1.0 / radius), measure, radius)
        self.type_name = "circle" if dim == 2 else "sphere"
        self.radius = radius
        self.grid = grid

    @cached_property
    def enclosed_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """The rule :func:`enclosed_region_quadrature` hands out, built on first use."""
        r, wr = gauss_rule(0.0, self.radius, 48)
        if self.dim == 2:
            chart, weights = product_rule(
                [(r, wr * r), uniform_rule(0.0, 2.0 * np.pi, max(64, self.n_nodes // 2))])
            rr, tt = chart.T
            nodes = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=1)
        else:
            n_polar, n_azimuth = self.grid
            chart, weights = product_rule([(r, wr * r * r), _leggauss(n_polar),
                                           uniform_rule(0.0, 2.0 * np.pi, n_azimuth)])
            rr, mm, pp = chart.T
            sin_t = np.sqrt(1.0 - mm**2)
            nodes = np.stack([rr * sin_t * np.cos(pp), rr * sin_t * np.sin(pp), rr * mm], axis=1)
        nodes.flags.writeable = weights.flags.writeable = False
        return nodes, weights

    def distance_jet(self, xb, order=2) -> Jet:
        return jet_norm(xb, order) - self.radius

    def normal_coordinates(self, xb, order=2) -> tuple[Jet, Jet, Jet]:
        r = jet_norm(xb, order)
        d, inv_r = r - self.radius, r.reciprocal()
        del r
        hat = Jet.variables(xb, order) * inv_r
        del inv_r
        return d, hat * self.radius, hat


class FlatPatch(Hypersurface):
    """Flat interface {x_0 = 0}."""

    type_name = "flat_patch"

    def distance_jet(self, xb, order=2) -> Jet:
        return Jet.coordinate(xb, 0, order)

    def normal_coordinates(self, xb, order=2) -> tuple[Jet, Jet, Jet]:
        foot = [Jet.constant(0.0, xb, order), *range(1, self.dim)]
        normal = [Jet.constant(1.0, xb, order)] + [None] * (self.dim - 1)
        return (self.distance_jet(xb, order), Jet.coordinate(xb, foot, order),
                Jet.coordinate(xb, normal, order))


class Filament(_Interface):
    """Codimension-two interface (curve in R^3) with orthonormal normal pair.

    Subclasses provide ``transverse_jets(xb, order)``, the two-component jet of
    the signed transverse coordinates in the (p, q) frame, and ``tube_jacobian(a, b)``,
    the volume element of the normal exponential map at offsets (a, b).
    """

    codim = 2

    def __init__(self, dim, nodes, weights, frame_p, frame_q, tangents, curvatures, measure,
                 focal_width):
        super().__init__(dim, nodes, weights, tangents, curvatures, measure, focal_width)
        self.frame_p = frame_p
        self.frame_q = frame_q


class StraightFilament(Filament):
    """Straight filament along e1, with normal frame (e2, e3)."""

    type_name = "straight_filament"

    def transverse_jets(self, xb, order=2) -> Jet:
        return Jet.coordinate(xb, (1, 2), order)

    def tube_jacobian(self, a, b):
        return np.ones_like(a)


class CircularFilament(Filament):
    """Circle of ``radius`` in the x1-x2 plane, with normal frame (radial, e3)."""

    type_name = "circular_filament"

    def __init__(self, *args, radius):
        super().__init__(*args)
        self.radius = radius

    def transverse_jets(self, xb, order=2) -> Jet:
        return Jet.coordinate(xb, (jet_norm(xb, order, axes=(0, 1)) - self.radius, 2), order)

    def tube_jacobian(self, a, b):
        return 1.0 + a / self.radius


# ---------------------------------------------------------------------------
# shape constructors
# ---------------------------------------------------------------------------


def circle(radius: float, n_nodes: int = 256) -> Hypersurface:
    r = float(radius)
    theta, w = uniform_rule(0.0, 2.0 * np.pi, n_nodes)
    ct, st = np.cos(theta), np.sin(theta)
    normals = np.stack([ct, st], axis=1)
    tangents = np.stack([-st, ct], axis=1)[:, None, :]
    return RoundSurface(r, r * normals, r * w, normals, tangents, 2.0 * np.pi * r)


def sphere(radius: float, n_polar: int = 32, n_azimuth: int = 64) -> Hypersurface:
    r = float(radius)
    # mu = cos(polar angle): Gauss nodes, which avoid the poles
    chart, w_g = product_rule([_leggauss(n_polar), uniform_rule(0.0, 2.0 * np.pi, n_azimuth)])
    mu_f, phi_f = chart.T
    sin_t = np.sqrt(1.0 - mu_f**2)
    nx = sin_t * np.cos(phi_f)
    ny = sin_t * np.sin(phi_f)
    nz = mu_f
    normals = np.stack([nx, ny, nz], axis=1)
    tau_phi = np.stack([-np.sin(phi_f), np.cos(phi_f), np.zeros_like(phi_f)], axis=1)
    tau_theta = np.stack([mu_f * np.cos(phi_f), mu_f * np.sin(phi_f), -sin_t], axis=1)
    tangents = np.stack([tau_theta, tau_phi], axis=1)
    return RoundSurface(r, r * normals, r * r * w_g, normals, tangents, 4.0 * np.pi * r * r,
                        (n_polar, n_azimuth))


def flat_patch(dim: int, n_per_axis: int = 48) -> Hypersurface:
    """Flat interface {x_0 = 0} over the patch [-1, 1]^(dim-1), periodically identified.

    The patch has no boundary: test fields either vanish near its edges or
    are periodic across them.
    """
    dim = int(dim)
    if dim not in (2, 3):
        raise DimensionMismatch("flat_patch supports ambient dimension 2 or 3")
    chart, w = product_rule([gauss_rule(-1.0, 1.0, n_per_axis)] * (dim - 1))
    m = chart.shape[0]
    nodes = np.zeros((m, dim))
    nodes[:, 1:] = chart
    normals = np.zeros((m, dim))
    normals[:, 0] = 1.0
    tangents = np.zeros((m, dim - 1, dim))
    tangents[:, range(dim - 1), range(1, dim)] = 1.0
    curvatures = np.zeros((m, dim - 1))
    return FlatPatch(dim, nodes, w, normals, tangents, curvatures, 2.0 ** (dim - 1), np.inf)


def straight_filament(n_nodes: int = 24) -> Filament:
    """Periodic straight filament along e1 from the origin, of length 1, in R^3.

    Longitudinal quadrature is Gauss-Legendre: exact for polynomial densities
    and spectral for the periodic ones the vortex experiments use.
    """
    s, w = gauss_rule(0.0, 1.0, n_nodes)
    nodes = np.stack([s, np.zeros_like(s), np.zeros_like(s)], axis=1)
    tangents = np.zeros((n_nodes, 1, 3))
    tangents[:, 0, 0] = 1.0
    p = np.zeros((n_nodes, 3))
    p[:, 1] = 1.0
    q = np.zeros((n_nodes, 3))
    q[:, 2] = 1.0
    curvatures = np.zeros((n_nodes, 1))
    return StraightFilament(3, nodes, w, p, q, tangents, curvatures, 1.0, np.inf)


def circular_filament(radius: float, n_nodes: int = 128) -> Filament:
    """Circle of the given radius in the x1-x2 plane of R^3.

    The normal frame (radial direction, e3) is parallel with respect to the
    normal connection, so the dbar form is computed in a smooth frame.
    """
    r = float(radius)
    alpha, w = uniform_rule(0.0, 2.0 * np.pi, n_nodes)
    ca, sa = np.cos(alpha), np.sin(alpha)
    nodes = np.stack([r * ca, r * sa, np.zeros_like(ca)], axis=1)
    tangents = np.stack([-sa, ca, np.zeros_like(ca)], axis=1)[:, None, :]
    p = np.stack([ca, sa, np.zeros_like(ca)], axis=1)
    q = np.zeros((n_nodes, 3))
    q[:, 2] = 1.0
    curvatures = np.full((n_nodes, 1), 1.0 / r)
    return CircularFilament(3, nodes, r * w, p, q, tangents, curvatures, 2.0 * np.pi * r, r,
                            radius=r)


# a config's "nodes" is the builder's n_nodes
_SHAPES = {
    "sphere": (sphere, {"radius": (positive, REQUIRED), "n_polar": (count, 32),
                        "n_azimuth": (count, 64)}),
    "flat_patch": (flat_patch, {"dim": (integer, REQUIRED), "n_per_axis": (count, 48)}),
    "straight_filament": (lambda nodes: straight_filament(nodes), {"nodes": (count, 24)}),
}


def shape_from_config(spec: dict):
    """Build a shape from a JSON-style descriptor; ``_SHAPES`` declares each type's keys."""
    return build(spec, _SHAPES, "shape")


# ---------------------------------------------------------------------------
# surface functionals
# ---------------------------------------------------------------------------


def surface_integral(g, f) -> float:
    """Quadrature over the interface of f, a ScalarField or a callable of the nodes."""
    values = f.eval(g.nodes) if isinstance(f, ScalarField) else np.asarray(f(g.nodes), dtype=float)
    return pairwise_dot(g.weights, values)


def area_second_inner_variation(g, eta: VectorField, zeta: VectorField) -> float:
    """Second derivative of the deformed surface measure at t = 0.

    Integrand: div_G zeta + (div_G eta)^2 + sum_i |(D_tau_i eta)^perp|^2
               - sum_ij (tau_i . D_tau_j eta)(tau_j . D_tau_i eta).
    """
    x = g.nodes
    taus = g.tangents
    je = eta.jacobian(x)
    jz = zeta.jacobian(x)
    d_eta = np.einsum("mij,mkj->mki", je, taus)  # D_{tau_k} eta
    d_zeta = np.einsum("mij,mkj->mki", jz, taus)
    a = np.einsum("mji,mki->mjk", taus, d_eta)  # a[j,k] = tau_j . D_{tau_k} eta
    div_eta = np.einsum("mkk->m", a)
    div_zeta = np.einsum("mki,mki->m", taus, d_zeta)
    perp = d_eta - np.einsum("mjk,mji->mki", a, taus)
    term_perp = np.einsum("mki,mki->m", perp, perp)
    term_mix = np.einsum("mjk,mkj->m", a, a)
    integrand = div_zeta + div_eta**2 + term_perp - term_mix
    return pairwise_dot(g.weights, integrand)


def pushforward_area(g, eta: VectorField, zeta: VectorField, t: float) -> float:
    """Surface measure of Phi_t(Gamma) via the tangential Gram determinant."""
    x = g.nodes
    m = x.shape[0]
    mat = np.eye(g.dim)[None] + t * eta.jacobian(x) + 0.5 * t * t * zeta.jacobian(x)
    v = np.einsum("mij,mkj->mki", mat, g.tangents)
    gram = np.einsum("mki,mli->mkl", v, v)
    if gram.shape[1] == 1:
        factor = np.sqrt(gram[:, 0, 0])
    else:
        factor = np.sqrt(np.linalg.det(gram))
    return pairwise_dot(g.weights, factor)


def ac_discrepancy(g: Hypersurface, eta: VectorField) -> float:
    """Integral of (n, n . grad eta)^2 over Gamma (without any p-dependent factor)."""
    x = g.nodes
    je = eta.jacobian(x)
    n = g.normals
    val = np.einsum("mi,mij,mj->m", n, je, n)
    return pairwise_dot(g.weights, val**2)


def gl_discrepancy_densities(g: Filament, eta: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise discrepancy densities at the filament nodes, two routes.

    First: |D_perp eta_perp|^2 - 2 Jac_perp(eta_perp) from the transverse
    derivative matrix in the (p, q) frame; second: 4 |dbar f|^2 for the
    complexified transverse component f, via complex arithmetic.  The two are
    the same quantity and must agree to rounding.
    """
    if g.codim != 2:
        raise DimensionMismatch("gl_discrepancy needs a codimension-two interface")
    x = g.nodes
    je = eta.jacobian(x)
    p, q = g.frame_p, g.frame_q
    a = np.einsum("mi,mij,mj->m", p, je, p)
    b = np.einsum("mi,mij,mj->m", p, je, q)
    c = np.einsum("mi,mij,mj->m", q, je, p)
    d = np.einsum("mi,mij,mj->m", q, je, q)
    real_density = a * a + b * b + c * c + d * d - 2.0 * (a * d - b * c)
    dbar = 0.5 * ((a + 1j * c) + 1j * (b + 1j * d))
    dbar_density = 4.0 * np.abs(dbar) ** 2
    return real_density, dbar_density


def gl_discrepancy(g: Filament, eta: VectorField) -> tuple[float, float]:
    """Transverse discrepancy integrals of a filament deformation, both routes."""
    real_density, dbar_density = gl_discrepancy_densities(g, eta)
    return pairwise_dot(g.weights, real_density), pairwise_dot(g.weights, dbar_density)


def _real(xi: ScalarField) -> ScalarField:
    """xi itself, once checked to be real valued (a function on the interface)."""
    if xi.state_dim != 1:
        raise DimensionMismatch("xi must be a real scalar field")
    return xi


def jacobi_form(g: Hypersurface, xi: ScalarField) -> float:
    """Stability form J(xi) = int_G (|grad_G xi|^2 - |A_G|^2 xi^2).

    grad_G xi is xi's ambient gradient projected onto the tangent plane.  Every
    shape is closed; the boundary contribution that would appear for
    interfaces meeting the container wall is out of scope.
    """
    if g.codim != 1:
        raise DimensionMismatch("jacobi_form is defined on hypersurfaces")
    vals = _real(xi).eval(g.nodes)
    grad = xi.gradient(g.nodes)
    grad = grad - np.einsum("mi,mi->m", grad, g.normals)[:, None] * g.normals
    a2 = np.einsum("mk,mk->m", g.curvatures, g.curvatures)
    density = np.einsum("mi,mi->m", grad, grad) - a2 * vals**2
    return pairwise_dot(g.weights, density)


def quadratic_form_limit(g: Hypersurface, xi: ScalarField) -> float:
    """Limit quadratic form of the rescaled phase-field Hessians (same as jacobi_form
    on closed interfaces)."""
    return jacobi_form(g, xi)


def _smooth_step_jet(s: Jet, s0: float, s1: float) -> Jet:
    """C-infinity transition 1 -> 0 as s goes from s0 to s1 (jets, masked).

    The masks are placed where exp(-1/t) already underflows, so the clipped
    pieces are exactly the double-precision values of the smooth function.
    """
    margin = (s1 - s0) / 700.0
    ones = s.val <= s0 + margin
    mid = (s.val > s0 + margin) & (s.val < s1 - margin)

    def step(sub: Jet) -> Jet:
        g1 = jet_exp(-((s1 - sub).reciprocal()))
        g2 = jet_exp(-((sub - s0).reciprocal()))
        return g1 * (g1 + g2).reciprocal()

    return s.piecewise(mid, step, ones)


def normal_extension(g: Hypersurface, xi: ScalarField, cutoff_width: float) -> VectorField:
    """Extend xi * n off Gamma, constant along normal lines, with a smooth cutoff.

    The resulting field satisfies (n, n . grad eta) = 0 on Gamma because both
    the transported value and the transported normal are constant in the
    normal direction and the cutoff has vanishing slope on Gamma.
    """
    if g.codim != 1:
        raise DimensionMismatch("normal_extension is defined for hypersurfaces")
    w = float(cutoff_width)
    if w > g.focal_width:
        raise TubeTooNarrow(
            f"cutoff width {w:g} exceeds the focal distance {g.focal_width:g}"
        )
    ambient = _real(xi)
    s0, s1 = (0.5 * w) ** 2, w * w

    def compose_ambient(pj: Jet, order: int) -> Jet:
        """xi at the projection ``pj`` (a jet with a component axis), by the chain rule."""
        # xi at the projected points, once
        parts = ambient.evaluate(pj.val.T, order)
        v, gr = parts[0][0], parts[1][0]
        grad = np.einsum("km,knm->nm", gr, pj.grad)
        if order == 1:
            return Jet(v, grad, None)
        hs = parts[2][0]
        del parts
        curv = np.einsum("klm,knm,lom->nom", hs, pj.grad, pj.grad)
        del hs
        curv += sum(gr[k] * hk for k, hk in enumerate(pj.hess))
        return Jet(v, grad, curv)

    def jet_fn(xb, order):
        d, foot, normal = g.normal_coordinates(xb, order)
        amp = compose_ambient(foot, order)
        del foot  # the foot point's jet dies before the cutoff's is built
        amp = amp * _smooth_step_jet(d * d, s0, s1)
        return amp * normal

    return VectorField.from_jet(g.dim, jet_fn)


# ---------------------------------------------------------------------------
# enclosed-region quadrature for volume functionals
# ---------------------------------------------------------------------------


def require_enclosed_region(g: Hypersurface) -> None:
    """Raise unless :func:`enclosed_region_quadrature` has a rule for the region ``g`` bounds."""
    if not isinstance(g, RoundSurface):
        raise DimensionMismatch(f"no enclosed region rule for shape {g.type_name!r}")


def enclosed_region_quadrature(g: Hypersurface):
    """Nodes/weights over the region enclosed by a circle or a sphere, 48 Gauss radii.

    The rule is built once per shape: every call returns the same read-only
    arrays, so a field pinned on the nodes (:func:`~innervar.fields.pinned`)
    serves every experiment step that integrates over the region.
    """
    require_enclosed_region(g)
    return g.enclosed_rule
