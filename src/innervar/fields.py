"""Scalar/vector fields on R^N and the quadratic deformation map.

Conventions used throughout the package:

* a vector field ``V`` has Jacobian ``J[i, j] = dV^i/dx_j``;
* the second-derivative tensor is ``S[i, j, k] = d^2 V^i / dx_j dx_k``,
  symmetrized in its last two indices;
* scalar fields may carry ``state_dim = 2`` (complex order parameters stored
  as two real components), in which case gradients have shape ``(2, N)``.

Every field is evaluated through one method, ``evaluate(xb, order)``: one
call returns the values and, up to ``order``, the derivatives at a batch of
points ``xb`` (M, N), computing nothing beyond that order, component-major
as jets are: (C, M), (C, N, M) and (C, N, N, M) for C components.  Fields
built through the constructors in this module evaluate a jet function once
per call (assembled with :mod:`innervar.jets`, truncated to the order asked
for) that returns one jet, its parts already in this layout (a vector or
complex jet has the component axis); fields built from bare point-major
callables fall back to central finite differences with step
``eps_machine**(1/3) * max(1, |x|)``, which keeps every operation total.
``eval``, ``gradient``, ``hessian`` and ``jacobian`` hand out point-major
arrays (M, C, ...).  Fields hold no evaluated state between calls;
:func:`pinned` returns a copy of a field that holds one evaluation, for a
sweep that reads it many times.

One class, ``_Field``, implements all of this; ``ScalarField`` and
``VectorField`` remain as names because the benchmark's tracer wraps their
point-major views by class and name (see ``_Field``).
"""

from __future__ import annotations

import copy
import itertools

import numpy as np

from .config import REQUIRED, as_is, build, bump_radius, count, integer, natural
from .errors import DimensionMismatch, NonInvertible
from .jets import Jet, jet_cos, jet_exp, jet_polynomial, jet_sin, jet_squared_norm

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _as_batch(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape[0] != dim:
            raise DimensionMismatch(f"point has dim {x.shape[0]}, field has dim {dim}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimensionMismatch(f"expected points of shape (M, {dim}), got {x.shape}")
    return x, False


def _fd_steps(x: np.ndarray) -> np.ndarray:
    return _FD_STEP * np.maximum(1.0, np.max(np.abs(x), axis=1))


def _fd_derivatives(xb: np.ndarray, values, order: int = 1, first=None) -> np.ndarray:
    """Central-difference fallback for a batched map of the points ``xb`` (M, N).

    ``values`` returns component-major parts (..., M).  ``order=1`` differences
    it once and inserts one derivative axis before the point axis.  ``order=2``
    inserts two, symmetrized: it differences the analytic first derivative
    ``first`` when one is given (O(h^2) with tiny constants) and takes second
    differences of ``values`` otherwise.
    """
    m, n = xb.shape
    h = _fd_steps(xb)

    def shift(j):
        dx = np.zeros((m, n))
        dx[:, j] = h
        return dx

    if order == 1 or first is not None:
        f = values if order == 1 else first
        out = None
        for j in range(n):
            dx = shift(j)
            diff = f(xb + dx) - f(xb - dx)
            if out is None:
                out = np.empty(diff.shape[:-1] + (n, m))
            out[..., j, :] = diff / (2.0 * h)
        if order == 1:
            return out
    else:
        f0 = values(xb)
        out = np.empty(f0.shape[:-1] + (n, n, m))
        for i in range(n):
            dxi = shift(i)
            out[..., i, i, :] = (values(xb + dxi) - 2.0 * f0 + values(xb - dxi)) / (h * h)
            for j in range(i + 1, n):
                dxj = shift(j)
                cross = (
                    values(xb + dxi + dxj)
                    - values(xb + dxi - dxj)
                    - values(xb - dxi + dxj)
                    + values(xb - dxi - dxj)
                ) / (4.0 * h * h)
                out[..., i, j, :] = cross
                out[..., j, i, :] = cross
    return 0.5 * (out + np.swapaxes(out, -2, -3))


class _Field:
    """The one field implementation: an evaluator, its exactness and its component count.

    A field is an evaluator ``(xb, order) -> [values, first, second][:order + 1]``
    that is exact up to order ``exact``; central differences of the exact parts
    supply any higher derivative that is asked for.  Nothing evaluated is kept
    on the field: each ``evaluate`` call builds its arrays and hands them over.

    ``ScalarField`` and ``VectorField`` only name this class: the benchmark's
    span tracer (``perfbench/tracer.py``) wraps their point-major views
    (``_values``, ``_gradients``, ``_hessians``; ``_values``, ``_jacobians``,
    ``_seconds``) by class and name.  Once the tracer wraps ``evaluate``
    instead, the two names fold into this class (ROADMAP items 1 and 5).
    """

    _vector_field = False  # a vector field: dim components, symmetrized second derivatives

    def __init__(self, dim, fn, first=None, second=None, state_dim=1):
        """A field from plain callables of a batch, exact to the order of the last one given.

        The callables return point-major (M, C, ...) arrays, C absent for one
        component; each becomes a contiguous component-major part.
        """
        if second is not None and first is None:
            raise ValueError("a second-derivative callback needs a first-derivative callback")
        parts = [c for c in (fn, first, second) if c is not None]

        def evaluate(xb, order):
            m, n = xb.shape
            return [np.ascontiguousarray(np.moveaxis(
                np.asarray(c(xb), dtype=float).reshape((m, comps) + (n,) * k), 0, -1))
                for k, c in enumerate(parts[: order + 1])]

        self._init(dim, evaluate, len(parts) - 1, state_dim)
        comps = self.state_dim  # read by evaluate when it is called

    def _init(self, dim, evaluator, exact, state_dim):
        """The one place that fixes C: ``state_dim``, or ``dim`` for a vector field."""
        self.dim = int(dim)
        self.state_dim = self.dim if self._vector_field else int(state_dim)
        self._evaluator = evaluator
        self._exact = int(exact)

    @classmethod
    def from_evaluator(cls, dim, evaluator, exact, state_dim=1):
        """Build a field from ``evaluator(xb, order)``, exact up to order ``exact``.

        The evaluator returns contiguous component-major parts, as ``evaluate``
        hands them out; ``state_dim`` is a scalar field's component count.
        """
        field = cls.__new__(cls)
        field._init(dim, evaluator, exact, state_dim)
        return field

    @classmethod
    def from_jet(cls, dim, jet_fn, state_dim=1):
        """Build a field from a jet function ``jet_fn(xb, order)``, called once per evaluation.

        Its parts are handed out as views, with a component axis of length 1
        added to a jet that has none; order 0 builds a first-order jet.
        """

        def evaluate(xb, order):
            jet = jet_fn(xb, max(order, 1))
            parts = (jet.val, jet.grad, jet.hess)[: order + 1]
            return list(parts) if jet.val.ndim == 2 else [part[None] for part in parts]

        return cls.from_evaluator(dim, evaluate, 2, state_dim)

    def evaluate(self, xb: np.ndarray, order: int) -> tuple:
        """Values, then first (order >= 1) and second (order 2) derivatives at ``xb`` (M, N).

        Shapes are (C, M), (C, N, M) and (C, N, N, M), with C the number of
        components; the tuple holds ``order + 1`` arrays.
        """
        exact = min(order, self._exact)
        parts = self._exact_parts(xb, exact)
        if order > exact:
            values = lambda y: self._exact_parts(y, 0)[0]
            if exact == 0:
                parts.append(_fd_derivatives(xb, values))
            if order == 2:
                first = (lambda y: self._exact_parts(y, 1)[1]) if self._exact >= 1 else None
                parts.append(_fd_derivatives(xb, values, 2, first))
        return tuple(parts)

    def _exact_parts(self, xb, order):
        parts = list(self._evaluator(xb, order)[: order + 1])
        if order == 2 and self._vector_field:
            parts[2] = 0.5 * (parts[2] + np.swapaxes(parts[2], 1, 2))
        return parts


def _view(k):
    """A view: the order-``k`` part at a batch ``xb``, as a contiguous point-major (M, C, ...)."""
    return lambda self, xb: np.ascontiguousarray(np.moveaxis(self.evaluate(xb, k)[k], -1, 0))


def _point_major(view):
    """A public method: the view named ``view`` at one point (N,) or a batch (M, N).

    The view is looked up by name at each call, so a wrapped view sees every
    call; a scalar field of one component drops the component axis.
    """

    def method(self, x):
        xb, single = _as_batch(x, self.dim)
        out = getattr(self, view)(xb)
        if self.state_dim == 1 and not self._vector_field:
            out = out[:, 0]
        return out[0] if single else out

    return method


def pinned(field: _Field, xb: np.ndarray, order: int) -> _Field:
    """``field``, with one evaluation at the node set ``xb`` (up to ``order``) held.

    Returns a shallow copy whose ``evaluate(y, k)`` hands out the held parts
    when ``y is xb`` and ``k <= order``, and asks ``field`` otherwise.  Fields
    derived from the copy (``zeta_eta``, ``composite_test_function``, ...)
    reuse the held parts through it.  ``field`` itself is untouched, so a
    sweep pins per node set and drops the copy with it.
    """
    parts = field.evaluate(xb, order)
    view = copy.copy(field)
    view.evaluate = lambda y, k: parts[: k + 1] if y is xb and k <= order else field.evaluate(y, k)
    return view


class ScalarField(_Field):
    """Smooth map R^N -> R^state_dim with derivatives up to second order.

    Built from plain callables of a batch (``grad``/``hess`` optional, finite
    differences otherwise), from a jet function (:meth:`from_jet`) or from an
    evaluator (:meth:`from_evaluator`).
    """

    def __init__(self, dim, fn, grad=None, hess=None, state_dim=1):
        super().__init__(dim, fn, grad, hess, state_dim)

    # point-major views: values (M, d), gradients (M, d, N), hessians (M, d, N, N)
    _values, _gradients, _hessians = _view(0), _view(1), _view(2)

    # public API accepts single points or batches
    eval = _point_major("_values")
    gradient = _point_major("_gradients")
    hessian = _point_major("_hessians")


class VectorField(_Field):
    """Smooth map R^N -> R^N with Jacobian and second derivatives."""

    _vector_field = True

    def __init__(self, dim, fn, jacobian=None, second=None):
        super().__init__(dim, fn, jacobian, second)

    _values, _jacobians, _seconds = _view(0), _view(1), _view(2)

    eval = _point_major("_values")
    jacobian = _point_major("_jacobians")

    # small field algebra, enough for eta + h*phi style combinations

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.dim != other.dim:
            raise DimensionMismatch("cannot add fields of different dimension")
        a, b = self, other
        return VectorField.from_evaluator(
            self.dim,
            lambda xb, order: [x + y for x, y in zip(a.evaluate(xb, order), b.evaluate(xb, order))],
            2,
        )

    def __mul__(self, c: float) -> "VectorField":
        c = float(c)
        return VectorField.from_evaluator(
            self.dim, lambda xb, order: [c * x for x in self.evaluate(xb, order)], 2)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# built-in constructors
# ---------------------------------------------------------------------------


def _vector(value, dim=None) -> np.ndarray:
    """``value`` as a vector of floats: of ``dim`` entries, or of at least one when None."""
    v = np.asarray(value, dtype=float)
    if v.ndim != 1 or v.size == 0 or dim not in (None, v.size):
        raise ValueError(f"{value!r} is not a vector of {dim or 'at least 1'} numbers")
    return v


def _table(terms, dim) -> list[tuple[float, tuple[int, ...]]]:
    """A coefficient table: (coefficient, exponents) terms with ``dim`` non-negative exponents."""
    table = [(float(c), tuple(natural(e) for e in p)) for c, p in terms]
    if any(len(p) != dim for _c, p in table):
        raise ValueError(f"each monomial needs {dim} exponents, got {terms!r}")
    return table


def linear_field(matrix, offset=None) -> VectorField:
    """V(x) = A x + b."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"the matrix of a linear field must be square, got {matrix!r}")
    n = a.shape[0]
    b = np.zeros(n) if offset is None else _vector(offset, n)

    return VectorField(
        n,
        lambda xb: xb @ a.T + b,
        lambda xb: np.broadcast_to(a, (xb.shape[0], n, n)).copy(),
        lambda xb: np.zeros((xb.shape[0], n, n, n)),
    )


def dilation_field(dim: int, rate: float = 1.0) -> VectorField:
    return linear_field(rate * np.eye(dim))


def constant_field(vector) -> VectorField:
    v = _vector(vector)
    return linear_field(np.zeros((v.size, v.size)), v)


def rotation_field(omega) -> VectorField:
    """V(x) = omega x x in R^3, or rate * (x2, -x1) in R^2 for scalar input."""
    if np.ndim(omega) == 0:
        a = float(omega)
        mat = np.array([[0.0, a], [-a, 0.0]])
        return linear_field(mat)
    w = _vector(omega, 3)
    mat = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    return linear_field(mat)


def rotation_exp(mat) -> np.ndarray:
    """exp(K) of a 3x3 skew matrix K, by Rodrigues' formula.

    K x = omega x x and theta = |omega| give exp(K) = I + (sin theta/theta) K +
    ((1 - cos theta)/theta^2) K^2, with 1 - cos theta taken as 2 sin^2(theta/2).
    """
    k = np.asarray(mat, dtype=float)
    theta = float(np.hypot(np.hypot(k[2, 1], k[0, 2]), k[1, 0]))
    if theta == 0.0:
        return np.eye(3)
    half = np.sin(0.5 * theta) / theta
    return np.eye(3) + (np.sin(theta) / theta) * k + (2.0 * half * half) * (k @ k)


def polynomial_scalar_field(dim, terms) -> ScalarField:
    """Scalar field sum_k c_k prod x_i^e_i from a coefficient table."""
    tables = [_table(terms, dim)]
    return ScalarField.from_jet(dim, lambda xb, order: jet_polynomial(xb, tables, order))


def _tables(dim, components) -> list:
    """One coefficient table per coordinate of R^dim."""
    tables = [_table(comp, dim) for comp in components]
    if len(tables) != dim:
        raise DimensionMismatch("need one component table per coordinate")
    return tables


def polynomial_vector_field(dim, components) -> VectorField:
    """Vector field whose components are monomial sums (coefficient tables)."""
    tables = _tables(dim, components)
    return VectorField.from_jet(dim, lambda xb, order: jet_polynomial(xb, tables, order))


def trig_scalar_field(dim, terms) -> ScalarField:
    """Scalar field sum_k a_k * sin/cos(k . x + phase), analytic derivatives."""
    parsed = [(float(a), _vector(k, dim), float(ph), kind) for a, k, ph, kind in terms]
    if any(kind not in ("sin", "cos") for *_rest, kind in parsed):
        raise ValueError(f"each trig term is a 'sin' or a 'cos', got {terms!r}")

    def build(xb, order):
        coords = Jet.variables(xb, order)
        total = Jet.constant(0.0, xb, order)
        for amp, kvec, phase, kind in parsed:
            arg = Jet.constant(phase, xb, order)
            for i, ki in enumerate(kvec):
                if ki != 0.0:
                    arg = arg + coords[i] * ki
            wave = jet_sin(arg) if kind == "sin" else jet_cos(arg)
            total = total + wave * amp
        return total

    return ScalarField.from_jet(dim, build)


def _squared_radius_jet(xb: np.ndarray, center: np.ndarray, radius: float,
                        jet_order: int) -> Jet:
    """Jet of s^2 = sum_i (x_i - c_i)^2 / r^2, assembled in closed form.

    With d_i = x_i - c_i and k = 1/r^2 it performs the operations that
    ``Jet.constant(0) + sum_i d_i * d_i * k`` over coordinate jets performs, so
    it is that sum bit for bit, signed zeros included: the value is
    ((0 + (d_0 d_0) k) + (d_1 d_1) k) + ..., gradient row i is
    (d_i + d_i) k + 0.0, and the Hessian is 2k I with +0.0 elsewhere.
    """
    m, n = xb.shape
    k = 1.0 / radius**2
    val, grad = np.zeros(m), np.empty((n, m))
    for i in range(n):
        d = xb[:, i] - center[i]
        val += d * d * k
        grad[i] = (d + d) * k + 0.0
    hess = None
    if jet_order == 2:
        hess = np.zeros((n, n, m))
        hess[range(n), range(n)] = 2.0 * k
    return Jet(val, grad, hess)


def _bump_jet(xb: np.ndarray, center: np.ndarray, radius: float, order: int = 8,
              jet_order: int = 2) -> Jet:
    """Radial bump (1 - s^2)^order, s = |x-c|/r, zero outside; as a jet of ``jet_order``.

    A polynomial bump (C^{order-1} at the support edge) keeps Gauss quadrature
    of bump-weighted integrands accurate to ~n^{-order+1}, which the identity
    suites need; an exp-type mollifier would slow convergence to
    sub-geometric.  ``order=None`` selects the classical C-infinity shape
    exp(1 - 1/(1 - s^2)) instead.  The jet of s^2 comes in closed form from
    :func:`_squared_radius_jet`, bit for bit the generic jet sum, so the bump
    is bit for bit the one built from coordinate jets.
    """
    return _bump_shape(_squared_radius_jet(xb, center, radius, jet_order), order)


def _bump_shape(s2: Jet, order) -> Jet:
    """(1 - s^2)^order where s^2 < 1, zero elsewhere; ``order=None``: exp(1 - 1/(1 - s^2))."""
    if order is None:
        inside = s2.val < 1.0 - 1.0 / 700.0  # exp(1 - 1/(1-t)) underflows past this
        return Jet.where(inside, jet_exp(1.0 - (1.0 - s2.masked(inside)).reciprocal()), 0.0)
    inside = s2.val < 1.0
    return Jet.where(inside, (1.0 - s2.masked(inside)) ** int(order), 0.0)


def bump_scalar_field(center, radius, amplitude=1.0, order=8) -> ScalarField:
    """Radial bump supported on |x - center| < radius (polynomial by default)."""
    c = _vector(center)
    return ScalarField.from_jet(
        c.shape[0],
        lambda xb, jet_order: _bump_jet(xb, c, float(radius), order, jet_order) * float(amplitude),
    )


def bump_polynomial_field(dim, components, center, radius, order=8) -> VectorField:
    """Compactly supported field: polynomial components times a radial bump."""
    c = _vector(center, dim)
    tables = _tables(dim, components)

    def build(xb, jet_order):
        return jet_polynomial(xb, tables, jet_order) * _bump_jet(xb, c, float(radius), order,
                                                                 jet_order)

    return VectorField.from_jet(dim, build)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def zeta_eta(eta: VectorField) -> VectorField:
    """Acceleration field -(div eta) eta + (eta . grad) eta.

    Pairing this with velocity eta makes the quadratic deformation preserve
    enclosed volume to second order.  The Jacobian is exact; it consumes
    eta's second derivatives, so eta is evaluated one order higher.
    """

    def evaluator(xb, order):
        v, j, *second = eta.evaluate(xb, order + 1)
        div = np.einsum("iim->m", j)
        val = -div * v + np.einsum("ijm,jm->im", j, v)
        if order == 0:
            return [val]
        s = second.pop()
        ddiv = np.einsum("jjkm->km", s)  # gradient of div eta
        s_v = np.einsum("ijkm,jm->ikm", s, v)
        del s  # eta's second derivatives die here, before the Jacobian's terms are built
        jac = -np.einsum("km,im->ikm", ddiv, v) - div * j + s_v + np.einsum("ijm,jkm->ikm", j, j)
        return [val, jac]

    return VectorField.from_evaluator(eta.dim, evaluator, 1)


def x0_field(u: ScalarField, eta: VectorField, zeta: VectorField) -> ScalarField:
    """Second-order term of u(Phi_t^{-1}(y)): (D^2u eta, eta) + (grad u, 2(grad eta)eta - zeta).

    The value is analytic in the supplied derivatives; the gradient falls back
    to finite differences (it would need third derivatives of u).
    """
    if u.dim != eta.dim or u.dim != zeta.dim:
        raise DimensionMismatch("field dimensions disagree")

    def evaluator(xb, _order):
        _, gu, hu = u.evaluate(xb, 2)  # (d, N, M), (d, N, N, M)
        ev, jv = eta.evaluate(xb, 1)
        (zv,) = zeta.evaluate(xb, 0)
        drift = 2.0 * np.einsum("ijm,jm->im", jv, ev) - zv
        val = np.einsum("dijm,im,jm->dm", hu, ev, ev) + np.einsum("dim,im->dm", gu, drift)
        return [val]

    return ScalarField.from_evaluator(u.dim, evaluator, 0, state_dim=u.state_dim)


def det_expansion(eta: VectorField, zeta: VectorField, x):
    """Coefficients (c0, c1, c2) with det(grad Phi_t) = c0 + t c1 + (t^2/2) c2 + O(t^3).

    c0 = 1, c1 = div eta, c2 = div zeta + (div eta)^2 - trace((grad eta)^2).
    """
    xb, single = _as_batch(x, eta.dim)
    je = eta._jacobians(xb)
    jz = zeta._jacobians(xb)
    div_e = np.trace(je, axis1=1, axis2=2)
    div_z = np.trace(jz, axis1=1, axis2=2)
    tr_je2 = np.einsum("mij,mji->m", je, je)
    c0 = np.ones_like(div_e)
    c2 = div_z + div_e**2 - tr_je2
    if single:
        return float(c0[0]), float(div_e[0]), float(c2[0])
    return c0, div_e, c2


def good_identity_residual(eta: VectorField, x):
    """LHS - RHS of (div eta)^2 - trace((grad eta)^2) = div{(div eta)eta - (eta.grad)eta}.

    Both sides are evaluated independently (the right side consumes second
    derivatives), so the residual measures derivative consistency: ~1e-13 for
    analytic fields, <=1e-7 for finite-difference fallbacks.
    """
    xb, single = _as_batch(x, eta.dim)
    v, j, s = eta.evaluate(xb, 2)
    div = np.einsum("iim->m", j)
    lhs = div**2 - np.einsum("ijm,jim->m", j, j)
    ddiv = np.einsum("jjkm->km", s)
    # div{(div eta) eta} = grad(div eta).eta + (div eta)^2
    t1 = np.einsum("km,km->m", ddiv, v) + div**2
    # div{(eta.grad) eta} = sum_i d_i [ J_ij eta^j ] = S[i,j,i] eta^j + J_ij J_ji
    t2 = np.einsum("ijim,jm->m", s, v) + np.einsum("ijm,jim->m", j, j)
    res = lhs - (t1 - t2)
    return float(res[0]) if single else res


class DeformationMap:
    """Phi_t(x) = x + t eta(x) + (t^2/2) zeta(x) for a fixed parameter t."""

    def __init__(self, velocity: VectorField, acceleration: VectorField, t: float):
        if velocity.dim != acceleration.dim:
            raise DimensionMismatch("velocity/acceleration dimensions disagree")
        self.velocity = velocity
        self.acceleration = acceleration
        self.t = float(t)
        self.dim = velocity.dim

    def apply(self, x):
        xb, single = _as_batch(x, self.dim)
        y = xb + self.t * self.velocity._values(xb) + 0.5 * self.t**2 * self.acceleration._values(xb)
        return y[0] if single else y

    def jacobian(self, x):
        xb, single = _as_batch(x, self.dim)
        eye = np.eye(self.dim)[None, :, :]
        j = eye + self.t * self.velocity._jacobians(xb) + 0.5 * self.t**2 * self.acceleration._jacobians(xb)
        return j[0] if single else j

    def det(self, x):
        xb, single = _as_batch(x, self.dim)
        d = np.linalg.det(self.jacobian(xb))
        return float(d[0]) if single else d

    def invert(self, y):
        """Newton inversion of Phi_t to 1e-13 in 50 steps, with exact Jacobian and 1/2 damping."""
        yb, single = _as_batch(y, self.dim)
        x = yb - self.t * self.velocity._values(yb)
        res = self.apply(x) - yb
        rnorm = np.linalg.norm(res, axis=1)
        for _ in range(50):
            if np.all(rnorm <= 1e-13):
                break
            jac = self.jacobian(x)
            try:
                step = np.linalg.solve(jac, res[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError as exc:
                raise NonInvertible("singular Jacobian during Newton inversion") from exc
            x_new = x - step
            res_new = self.apply(x_new) - yb
            rnorm_new = np.linalg.norm(res_new, axis=1)
            worse = rnorm_new >= rnorm
            if np.any(worse):
                x_half = x - 0.5 * step
                res_half = self.apply(x_half) - yb
                x_new[worse] = x_half[worse]
                res_new[worse] = res_half[worse]
                rnorm_new = np.linalg.norm(res_new, axis=1)
            x, res, rnorm = x_new, res_new, rnorm_new
        else:
            raise NonInvertible(
                f"Newton did not reach 1e-13 in 50 iterations (t={self.t:g} too large?)"
            )
        return x[0] if single else x


# ---------------------------------------------------------------------------
# seeded random fields (identity suites) and JSON descriptors
# ---------------------------------------------------------------------------


def _random_terms(rng, dim, degree, scale):
    """One random coefficient per monomial of degree at most ``degree``, in lexicographic order."""
    return [(scale * rng.uniform(-1.0, 1.0) / (1.0 + sum(p)), p)
            for p in itertools.product(range(degree + 1), repeat=dim) if sum(p) <= degree]


def random_polynomial_vector_field(rng, dim, degree=3, scale=1.0) -> VectorField:
    comps = [_random_terms(rng, dim, degree, scale) for _ in range(dim)]
    return polynomial_vector_field(dim, comps)


def random_compact_vector_field(rng, dim, degree=2, scale=1.0, center=None, radius=0.8,
                                order=8) -> VectorField:
    c = np.zeros(dim) if center is None else _vector(center, dim)
    comps = [_random_terms(rng, dim, degree, scale) for _ in range(dim)]
    return bump_polynomial_field(dim, comps, c, radius, order=order)


def random_polynomial_scalar_field(rng, dim, degree=3, scale=1.0) -> ScalarField:
    return polynomial_scalar_field(dim, _random_terms(rng, dim, degree, scale))


def _cylindrical_bump_jet(xb, radius, order, jet_order):
    """Bump (1 - rho^2/r^2)^order in the transverse radius rho = |(x2, x3)|."""
    return _bump_shape(jet_squared_norm(xb, jet_order, axes=(1, 2)) * (1.0 / radius**2), order)


def filament_test_field(preset: str, amplitude: float = 1.0, frequency: int = 1,
                        radius: float = 0.45, order: int = 8) -> VectorField:
    """Deformation fields adapted to a periodic filament along e1 in R^3.

    Presets (all cut off smoothly at transverse radius ``radius``):
      * ``bend``            (0, A sin(2 pi k x1), 0): bends the filament, zero
                            transverse discrepancy (constant in the normal plane);
      * ``antiholomorphic`` A (0, x2, -x3): the conjugate-coordinate mode with
                            discrepancy density 4 A^2 on the filament;
      * ``dilation``        A (0, x2, x3): transverse dilation, holomorphic, no
                            discrepancy and no length change.
    """
    if preset not in ("bend", "antiholomorphic", "dilation"):
        raise ValueError(f"unknown filament field preset {preset!r}")
    amp = float(amplitude)

    def build(xb, jet_order):
        chi = _cylindrical_bump_jet(xb, float(radius), order, jet_order)
        if preset == "bend":
            wave = jet_sin(Jet.coordinate(xb, 0, jet_order) * (2.0 * np.pi * int(frequency))) * amp
            rows = (None, wave * chi, None)
        else:
            sign = -amp if preset == "antiholomorphic" else amp
            rows = (None, *(Jet.coordinate(xb, (1, 2), jet_order) * chi * np.array([amp, sign])))
        del chi  # the bump's jet dies before the field's is built from its rows
        return Jet.coordinate(xb, rows, jet_order)

    return VectorField.from_jet(3, build)


def _seeded_compact_field(dim, degree, scale, center, radius, seed) -> VectorField:
    return random_compact_vector_field(np.random.default_rng(seed), dim, degree, scale, center,
                                       radius)


_VECTOR_FIELDS = {
    "linear": (linear_field, {"matrix": (as_is, REQUIRED), "offset": (as_is, None)}),
    "rotation": (lambda omega, rate: rotation_field(rate if omega is None else omega),
                 {"omega": (as_is, None), "rate": (float, 1.0)}),
    "constant": (constant_field, {"vector": (as_is, REQUIRED)}),
    "polynomial": (polynomial_vector_field, {"dim": (count, REQUIRED),
                                             "components": (as_is, REQUIRED)}),
    "bump_polynomial": (bump_polynomial_field, {
        "dim": (count, REQUIRED), "components": (as_is, REQUIRED), "center": (as_is, REQUIRED),
        "radius": (bump_radius, REQUIRED), "order": (count, 8)}),
    "random_bump_polynomial": (_seeded_compact_field, {
        "dim": (count, REQUIRED), "degree": (natural, 2), "scale": (float, 1.0),
        "center": (as_is, None), "radius": (bump_radius, 0.8), "seed": (natural, 0)}),
    "filament_preset": (filament_test_field, {
        "preset": (str, REQUIRED), "amplitude": (float, 1.0), "frequency": (integer, 1),
        "radius": (bump_radius, 0.45), "order": (count, 8)}),
}


def vector_field_from_config(spec: dict) -> VectorField:
    """Build a vector field from a JSON-style descriptor; ``_VECTOR_FIELDS`` declares the keys."""
    return build(spec, _VECTOR_FIELDS, "vector field")


_SCALAR_FIELDS = {
    "polynomial": (polynomial_scalar_field, {"dim": (count, REQUIRED), "terms": (as_is, REQUIRED)}),
    "radial_bump": (bump_scalar_field, {
        "center": (as_is, REQUIRED), "radius": (bump_radius, REQUIRED), "amplitude": (float, 1.0),
        "order": (lambda order: None if order is None else count(order), 8)}),  # None: C-infinity
    "trig": (trig_scalar_field, {"dim": (count, REQUIRED), "terms": (as_is, REQUIRED)}),
}


def scalar_field_from_config(spec: dict) -> ScalarField:
    """Build a scalar field from a JSON-style descriptor; ``_SCALAR_FIELDS`` declares the keys."""
    return build(spec, _SCALAR_FIELDS, "scalar field")
