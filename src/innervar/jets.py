"""Truncated Taylor arithmetic of order one or two over batches of points.

A :class:`Jet` carries value, gradient and Hessian arrays for a scalar
quantity evaluated at ``M`` points of ``R^N``.  Arithmetic on jets propagates
derivatives exactly (chain/product rule), which is how the built-in field
constructors (bumps, profile compositions, normal extensions, vortex fields)
obtain analytic first and second derivatives without symbolic algebra.

Jets are stored component-major: ``val`` is (M,), ``grad`` is (N, M) and
``hess`` is (N, N, M), so every product and chain rule works on contiguous
length-M rows, and a per-point factor of shape (M,) broadcasts against them
directly.  Field evaluations stack C component jets into the same layout,
(C, M), (C, N, M) and (C, N, N, M), and the kernels contract those parts
over the trailing point axis.

A jet with ``hess=None`` is a first-order jet: every operation then skips its
Hessian work, and computes values and gradients exactly as at second order,
so truncation never changes a value or gradient bit.  An operation on jets
of different orders returns a jet of the lower order.

Every operation allocates only the arrays it returns, plus at most one
(N, M) scratch row: a Hessian product is added row by row into its output,
never through (N, N, M) temporaries, so large batches do not fault in fresh
pages for each intermediate.  Jets are never written after construction
(:meth:`Jet.where` builds a piecewise jet), so a scalar shift ``jet + c``
shares its operand's ``grad`` and ``hess`` arrays instead of copying them.

This is an internal utility for the package's fixed expression set, not a
general autodiff facility.
"""

from __future__ import annotations

import numpy as np


class Jet:
    __slots__ = ("val", "grad", "hess")

    def __init__(self, val: np.ndarray, grad: np.ndarray, hess: np.ndarray | None):
        self.val = val
        self.grad = grad
        self.hess = hess

    @property
    def order(self) -> int:
        return 1 if self.hess is None else 2

    # ---- constructors -------------------------------------------------

    @staticmethod
    def coordinate(x: np.ndarray, i: int, order: int = 2) -> "Jet":
        """Jet of the coordinate function x_i on a batch x of shape (M, N)."""
        m, n = x.shape
        grad = np.zeros((n, m))
        grad[i] = 1.0
        return Jet(x[:, i].copy(), grad, np.zeros((n, n, m)) if order == 2 else None)

    @staticmethod
    def constant(c: float, x: np.ndarray, order: int = 2) -> "Jet":
        m, n = x.shape
        return Jet(np.full(m, float(c)), np.zeros((n, m)),
                   np.zeros((n, n, m)) if order == 2 else None)

    @staticmethod
    def variables(x: np.ndarray, order: int = 2) -> list["Jet"]:
        return [Jet.coordinate(x, i, order) for i in range(x.shape[1])]

    def masked(self, mask: np.ndarray) -> "Jet":
        """The jet restricted to the points selected by ``mask``."""
        return Jet(self.val[mask], self.grad[:, mask],
                   None if self.hess is None else self.hess[:, :, mask])

    @staticmethod
    def where(mask: np.ndarray, inside: "Jet", outside) -> "Jet":
        """The jet equal to ``inside`` at the points ``mask`` selects and to ``outside`` elsewhere.

        ``inside`` holds the selected points only.  ``outside`` is a jet on
        all points, or a value per point (a scalar or an (M,) array) with zero
        derivatives.  The result has the order of ``inside``.
        """
        if isinstance(outside, Jet):
            val, grad = outside.val.copy(), outside.grad.copy()
            hess = None if inside.hess is None else outside.hess.copy()
        else:
            n, m = inside.grad.shape[0], mask.shape[0]
            val, grad = np.full(m, outside, dtype=float), np.zeros((n, m))
            hess = None if inside.hess is None else np.zeros((n, n, m))
        val[mask] = inside.val
        grad[:, mask] = inside.grad
        if hess is not None:
            hess[:, :, mask] = inside.hess
        return Jet(val, grad, hess)

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
            grad = self.val * other.grad
            row = other.val * self.grad  # the one scratch row
            grad += row
            if self.hess is None or other.hess is None:
                return Jet(val, grad, None)
            # (a h_b + b h_a + g_a g_b^T + g_b g_a^T), summed in that order, one row at a time
            hess = self.val * other.hess
            for i, out in enumerate(hess):
                np.multiply(other.val, self.hess[i], out=row)
                out += row
                np.multiply(self.grad[i], other.grad, out=row)
                out += row
                np.multiply(other.grad[i], self.grad, out=row)
                out += row
            return Jet(val, grad, hess)
        c = float(other)
        return Jet(self.val * c, self.grad * c, None if self.hess is None else self.hess * c)

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
        grad = g1 * self.grad
        if self.hess is None:
            return Jet(np.asarray(g0, dtype=float), grad, None)
        # g1 h + g2 g g^T, one row at a time
        hess = g1 * self.hess
        row = np.empty_like(grad)
        for i, out in enumerate(hess):
            np.multiply(self.grad[i], self.grad, out=row)
            row *= g2
            out += row
        return Jet(np.asarray(g0, dtype=float), grad, hess)

    def compose(self, derivatives) -> "Jet":
        """Compose with a scalar function whose ``derivatives(v, order)`` returns
        (g, g', g'') at v, with g'' None when ``order`` is 1."""
        g0, g1, g2 = derivatives(self.val, self.order)
        return self.lift(np.asarray(g0, dtype=float), np.asarray(g1, dtype=float),
                         None if g2 is None else np.asarray(g2, dtype=float))


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


def jet_polynomial(x: np.ndarray, terms: list[tuple[float, tuple[int, ...]]],
                   order: int = 2) -> Jet:
    """Jet of sum_k c_k * prod_i x_i^(e_ki) with analytic derivatives.

    Derivatives are assembled directly from the monomial exponents instead of
    chained jet products, so high-degree terms stay exact.  Each power
    ``x_i ** e`` is computed once per call and shared by every monomial,
    derivative and factor that uses it; factors ``x_i ** 0`` are skipped,
    since multiplying by exactly 1.0 changes no bit.
    """
    m, n = x.shape
    val = np.zeros(m)
    grad = np.zeros((n, m))
    hess = np.zeros((n, n, m)) if order == 2 else None
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

    for coef, powers in terms:
        if len(powers) != n:
            raise ValueError("monomial exponent tuple does not match dimension")
        val += _product(coef, powers)
        for i, ei in enumerate(powers):
            if ei == 0:
                continue
            grad[i] += _product(coef * ei, [e - (k == i) for k, e in enumerate(powers)])
        if hess is None:
            continue
        for i, ei in enumerate(powers):
            for j, ej in enumerate(powers):
                if i == j:
                    if ei < 2:
                        continue
                    hterm = _product(coef * ei * (ei - 1),
                                     [e - 2 * (k == i) for k, e in enumerate(powers)])
                else:
                    if ei == 0 or ej == 0:
                        continue
                    hterm = _product(coef * ei * ej,
                                     [e - (k == i) - (k == j) for k, e in enumerate(powers)])
                hess[i, j] += hterm
    return Jet(val, grad, hess)
