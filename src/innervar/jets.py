"""Truncated Taylor arithmetic of order one or two over batches of points.

A :class:`Jet` carries value, gradient and Hessian arrays for a scalar
quantity evaluated at ``M`` points of ``R^N``.  Arithmetic on jets propagates
derivatives exactly (chain/product rule), which is how the built-in field
constructors (bumps, profile compositions, normal extensions, vortex fields)
obtain analytic first and second derivatives without symbolic algebra.

Jets are stored component-major: ``val`` is (M,), ``grad`` is (N, M) and
``hess`` is (N, N, M), so every product and chain rule works on contiguous
length-M rows, and a per-point factor of shape (M,) broadcasts against them
directly.  A vector or complex quantity is one jet with a leading axis of C
components, (C, M), (C, N, M) and (C, N, N, M), the layout fields hand to the
kernels.  Operations insert the derivative axes explicitly, so a scalar jet
broadcasts over C, each component bit for bit the scalar result; ``jet[k]``
is component k, and ``jet * c`` takes a number or one per component.

A jet with ``hess=None`` is a first-order jet: every operation then skips its
Hessian work, and computes values and gradients exactly as at second order,
so truncation never changes a value or gradient bit.  An operation on jets
of different orders returns a jet of the lower order.

Every operation allocates only the arrays it returns, plus at most one
(C, N, M) scratch row: a Hessian product is added row by row into its output,
never through (C, N, N, M) temporaries, so large batches do not fault in fresh
pages for each intermediate.  A product with a component axis assembles its
Hessian one component at a time, with one (N, M) scratch row (the first
component of that scratch), so each step streams rows that stay in cache.
Jets are never written after construction (:meth:`Jet.where` and
:meth:`Jet.piecewise` build piecewise jets), so arrays are shared wherever the
bytes are already there: a scalar shift ``jet + c`` shares its operand's
``grad`` and ``hess``, a mask that selects every point shares the operand
(``masked`` returns it, ``where`` returns the inside), and a piecewise rule
whose mask selects no point is never evaluated.

This is an internal utility for the package's fixed expression set, not a
general autodiff facility.
"""

from __future__ import annotations

import numpy as np


class Jet:
    __slots__ = ("val", "grad", "hess")
    __array_ufunc__ = None  # ``array * jet`` is ``jet.__rmul__(array)``, not an array of jets

    def __init__(self, val: np.ndarray, grad: np.ndarray, hess: np.ndarray | None):
        self.val = val
        self.grad = grad
        self.hess = hess

    @property
    def order(self) -> int:
        return 1 if self.hess is None else 2

    def __getitem__(self, k) -> "Jet":
        """Component k (or the components a slice selects) of a jet with a component axis."""
        return Jet(self.val[k], self.grad[k], None if self.hess is None else self.hess[k])

    # ---- constructors -------------------------------------------------

    @staticmethod
    def coordinate(x: np.ndarray, i, order: int = 2) -> "Jet":
        """Jet of the coordinate function x_i on a batch x of shape (M, N).

        A sequence ``i`` gives one jet with a component axis: component k is
        x_{i[k]}, the jet ``i[k]`` (one without a component axis), or zero for None.
        """
        if not isinstance(i, (list, tuple, range)):
            return Jet.coordinate(x, [i], order)[0]
        m, n = x.shape
        val, grad, hess = np.zeros((len(i), m)), np.zeros((len(i), n, m)), None
        if order == 2:  # a zero Hessian is a read-only view of one zero, unless jets fill rows
            shape = (len(i), n, n, m)
            jets = any(isinstance(row, Jet) for row in i)
            hess = np.zeros(shape) if jets else np.broadcast_to(0.0, shape)
        for k, row in enumerate(i):
            if isinstance(row, Jet):
                val[k], grad[k] = row.val, row.grad
                if hess is not None:
                    hess[k] = row.hess
            elif row is not None:
                val[k], grad[k, row] = x[:, row], 1.0
        return Jet(val, grad, hess)

    @staticmethod
    def constant(c: float, x: np.ndarray, order: int = 2) -> "Jet":
        m, n = x.shape
        return Jet(np.full(m, float(c)), np.zeros((n, m)),
                   np.zeros((n, n, m)) if order == 2 else None)

    @staticmethod
    def variables(x: np.ndarray, order: int = 2) -> "Jet":
        return Jet.coordinate(x, range(x.shape[1]), order)

    def masked(self, mask: np.ndarray) -> "Jet":
        """The jet restricted to the points ``mask`` selects; itself when it selects all."""
        if mask.all():
            return self
        return Jet(self.val[..., mask], self.grad[..., mask],
                   None if self.hess is None else self.hess[..., mask])

    @staticmethod
    def where(mask: np.ndarray, inside: "Jet", outside) -> "Jet":
        """The jet equal to ``inside`` at the points ``mask`` selects and to ``outside`` elsewhere.

        ``inside`` holds the selected points only, with the components of the
        result; it is the result itself when ``mask`` selects every point.
        ``outside`` is a jet on all points, or a value per point (a scalar or
        an (M,) array) with zero derivatives.  The result has the order of
        ``inside``.
        """
        if mask.all():
            return inside
        if isinstance(outside, Jet):
            val, grad = outside.val.copy(), outside.grad.copy()
            hess = None if inside.hess is None else outside.hess.copy()
        else:
            val = np.full(inside.val.shape[:-1] + mask.shape, outside, dtype=float)
            grad = np.zeros(inside.grad.shape[:-1] + mask.shape)
            hess = None if inside.hess is None else np.zeros(inside.hess.shape[:-1] + mask.shape)
        val[..., mask] = inside.val
        grad[..., mask] = inside.grad
        if hess is not None:
            hess[..., mask] = inside.hess
        return Jet(val, grad, hess)

    def piecewise(self, mask: np.ndarray, inside, outside) -> "Jet":
        """The jet equal to ``inside(self)`` where ``mask`` holds and to ``outside`` elsewhere.

        ``inside`` maps a jet pointwise to one of the same components and
        order.  It sees the selected points only (all of them, unmasked, when
        ``mask`` selects every point), and it is not called when ``mask``
        selects none: the selected empty jet then stands in for its result.
        ``outside`` is as for :meth:`where`.
        """
        sub = self.masked(mask)
        return Jet.where(mask, inside(sub) if mask.any() else sub, outside)

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            hess = None if self.hess is None or other.hess is None else self.hess + other.hess
            return Jet(self.val + other.val, self.grad + other.grad, hess)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, None if self.hess is None else -self.hess)

    def __sub__(self, other):
        # a - b is a + (-b) bit for bit, without the negated operand
        if isinstance(other, Jet):
            hess = None if self.hess is None or other.hess is None else self.hess - other.hess
            return Jet(self.val - other.val, self.grad - other.grad, hess)
        return Jet(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return Jet(other - self.val, -self.grad, None if self.hess is None else -self.hess)

    def __mul__(self, other):
        if isinstance(other, Jet):
            val = self.val * other.val
            grad = self.val[..., None, :] * other.grad
            row = other.val[..., None, :] * self.grad  # the one scratch row
            grad += row
            if self.hess is None or other.hess is None:
                return Jet(val, grad, None)
            hess = np.empty(grad.shape[:-1] + grad.shape[-2:])
            # one component at a time, so each step streams (N, M) rows, not (C, N, M) ones
            blocks = [(hess, row)] if hess.ndim == 3 else [(out, row[0]) for out in hess]
            for c, (out, scratch) in enumerate(blocks):
                _hessian_product(_component(self, c), _component(other, c), out, scratch)
            return Jet(val, grad, hess)
        c = np.asarray(other, dtype=float)[..., None]
        return Jet(self.val * c, self.grad * c[..., None],
                   None if self.hess is None else self.hess * c[..., None, None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return self * (1.0 / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self) -> "Jet":
        inv = 1.0 / self.val
        return self.lift(inv, -inv * inv, None if self.hess is None else 2.0 * inv * inv * inv)

    def __pow__(self, expo: float) -> "Jet":
        p = float(expo)
        v = self.val
        g2 = None if self.hess is None else p * (p - 1.0) * v ** (p - 2.0)
        return self.lift(v**p, p * v ** (p - 1.0), g2)

    # ---- composition ---------------------------------------------------

    def lift(self, g0: np.ndarray, g1: np.ndarray, g2: np.ndarray | None) -> "Jet":
        """Compose with a scalar C^2 function given by (g, g', g'') at self.val.

        ``g2`` is read only for a second-order jet and may be None otherwise.
        """
        grad = g1[..., None, :] * self.grad
        if self.hess is None:
            return Jet(np.asarray(g0, dtype=float), grad, None)
        # g1 h + g2 g g^T, one row at a time
        hess = g1[..., None, None, :] * self.hess
        row = np.empty_like(grad)
        for i, out in enumerate(np.moveaxis(hess, -3, 0)):
            np.multiply(self.grad[..., i, None, :], self.grad, out=row)
            row *= g2[..., None, :]
            out += row
        return Jet(np.asarray(g0, dtype=float), grad, hess)

    def compose(self, derivatives) -> "Jet":
        """Compose with a scalar function whose ``derivatives(v, order)`` returns
        (g, g', g'') at v, with g'' None when ``order`` is 1."""
        g0, g1, g2 = derivatives(self.val, self.order)
        return self.lift(np.asarray(g0, dtype=float), np.asarray(g1, dtype=float),
                         None if g2 is None else np.asarray(g2, dtype=float))


def _component(jet: Jet, c: int) -> tuple:
    """(val, grad, hess) of component ``c``, or of the whole jet if it has no component axis."""
    if jet.val.ndim == 1:
        return jet.val, jet.grad, jet.hess
    c = min(c, len(jet.val) - 1)  # a component axis of length 1 broadcasts
    return jet.val[c], jet.grad[c], jet.hess[c]


def _hessian_product(a, b, out: np.ndarray, row: np.ndarray) -> None:
    """a h_b + b h_a + g_a g_b^T + g_b g_a^T into ``out``, summed in that order, one row at a time.

    ``a`` and ``b`` are one component's (val, grad, hess), (M,), (N, M) and
    (N, N, M); ``row`` is (N, M) scratch.
    """
    (av, ag, ah), (bv, bg, bh) = a, b
    np.multiply(av, bh, out=out)
    for i, o in enumerate(out):
        np.multiply(bv, ah[i], out=row)
        o += row
        np.multiply(ag[i], bg, out=row)
        o += row
        np.multiply(bg[i], ag, out=row)
        o += row


def jet_sqrt(a: Jet) -> Jet:
    r = np.sqrt(a.val)
    return a.lift(r, 0.5 / r, None if a.hess is None else -0.25 / (r * a.val))


def jet_exp(a: Jet) -> Jet:
    e = np.exp(a.val)
    return a.lift(e, e, e)


def jet_sin(a: Jet) -> Jet:
    s, c = np.sin(a.val), np.cos(a.val)
    return a.lift(s, c, -s)


def jet_cos(a: Jet) -> Jet:
    s, c = np.sin(a.val), np.cos(a.val)
    return a.lift(c, -s, -c)


def jet_squared_norm(x: np.ndarray, order: int = 2, axes=None) -> Jet:
    """Jet of sum_{i in axes} x_i^2 (all axes by default) on a batch (M, N), in all N rows.

    Assembled from the columns x_i with the operations that summing the
    squares of coordinate jets performs, so for finite x it is bit for bit
    that sum: gradient row k adds up x_k + x_k and the signed zeros
    x_i * 0.0 + x_i * 0.0 of the other squares, and the Hessian is exactly 2
    on the diagonal of ``axes`` and +0.0 elsewhere.
    """
    m, n = x.shape
    axes = range(n) if axes is None else axes
    cols = [x[:, i] for i in axes]
    val = sum((c * c for c in cols[1:]), cols[0] * cols[0])
    zeros = [c * 0.0 + c * 0.0 for c in cols]
    grad = np.empty((n, m))
    for k in range(n):
        terms = [c + c if i == k else z for i, c, z in zip(axes, cols, zeros)]
        grad[k] = sum(terms[1:], terms[0])
    hess = None
    if order == 2:
        hess = np.zeros((n, n, m))
        hess[axes, axes] = 2.0
    return Jet(val, grad, hess)


def jet_norm(x: np.ndarray, order: int = 2, axes=None) -> Jet:
    """Jet of the root of :func:`jet_squared_norm`; a zero norm is the caller's problem."""
    return jet_sqrt(jet_squared_norm(x, order, axes))


def jet_polynomial(x: np.ndarray, tables, order: int = 2) -> Jet:
    """Jet with one component per coefficient table: component k is sum_j c_j prod_i x_i^(e_ji)
    over the terms (c_j, e_j) of ``tables[k]``, with analytic derivatives.

    Derivatives are assembled directly from the monomial exponents instead of
    chained jet products, so high-degree terms stay exact.  Each power
    ``x_i ** e`` is computed once per call and shared by every component,
    monomial, derivative and factor that uses it; factors ``x_i ** 0`` are
    skipped, since multiplying by exactly 1.0 changes no bit.
    """
    m, n = x.shape
    val = np.zeros((len(tables), m))
    grad = np.zeros((len(tables), n, m))
    hess = np.zeros((len(tables), n, n, m)) if order == 2 else None
    powers_of: dict[tuple[int, int], np.ndarray] = {}

    def _pow(i: int, e: int) -> np.ndarray:
        if (i, e) not in powers_of:
            powers_of[i, e] = x[:, i] ** e
        return powers_of[i, e]

    def _product(c: float, exps) -> np.ndarray:
        out = None
        for i, e in enumerate(exps):
            if e:
                out = c * _pow(i, e) if out is None else out * _pow(i, e)
        return np.full(m, float(c)) if out is None else out

    for k, terms in enumerate(tables):
        for coef, powers in terms:
            if len(powers) != n:
                raise ValueError("monomial exponent tuple does not match dimension")
            val[k] += _product(coef, powers)
            for i, ei in enumerate(powers):
                if ei == 0:
                    continue
                grad[k, i] += _product(coef * ei, [e - (q == i) for q, e in enumerate(powers)])
                for j, ej in enumerate(powers if hess is not None else ()):
                    if ej - (i == j):  # d_j d_i x^e = e_i (e_j - [i = j]) x^(e - 1_i - 1_j)
                        hess[k, i, j] += _product(coef * ei * (ej - (i == j)), [
                            e - (q == i) - (q == j) for q, e in enumerate(powers)])
    return Jet(val, grad, hess)
