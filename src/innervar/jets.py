"""Truncated Taylor arithmetic of order one or two over batches of points.

A :class:`Jet` carries value, gradient and Hessian arrays for a scalar
quantity evaluated at ``M`` points of ``R^N``.  Arithmetic on jets propagates
derivatives exactly (chain/product rule), which is how the built-in field
constructors (bumps, profile compositions, normal extensions, vortex fields)
obtain analytic first and second derivatives without symbolic algebra.

A jet with ``hess=None`` is a first-order jet: every operation then skips its
Hessian work, and computes values and gradients exactly as at second order,
so truncation never changes a value or gradient bit.  An operation on jets
of different orders returns a jet of the lower order.

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
        grad = np.zeros((m, n))
        grad[:, i] = 1.0
        return Jet(x[:, i].copy(), grad, np.zeros((m, n, n)) if order == 2 else None)

    @staticmethod
    def constant(c: float, x: np.ndarray, order: int = 2) -> "Jet":
        m, n = x.shape
        return Jet(np.full(m, float(c)), np.zeros((m, n)),
                   np.zeros((m, n, n)) if order == 2 else None)

    @staticmethod
    def variables(x: np.ndarray, order: int = 2) -> list["Jet"]:
        return [Jet.coordinate(x, i, order) for i in range(x.shape[1])]

    def masked(self, mask: np.ndarray) -> "Jet":
        """The jet restricted to the points selected by ``mask``."""
        return Jet(self.val[mask], self.grad[mask], None if self.hess is None else self.hess[mask])

    def put(self, mask: np.ndarray, other: "Jet") -> None:
        """Overwrite the points selected by ``mask`` with ``other`` (in place)."""
        self.val[mask] = other.val
        self.grad[mask] = other.grad
        if self.hess is not None:
            self.hess[mask] = other.hess

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            hess = None if self.hess is None or other.hess is None else self.hess + other.hess
            return Jet(self.val + other.val, self.grad + other.grad, hess)
        return Jet(self.val + other, self.grad.copy(), None if self.hess is None else self.hess.copy())

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, None if self.hess is None else -self.hess)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other, dtype=float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            val = self.val * other.val
            grad = self.val[:, None] * other.grad + other.val[:, None] * self.grad
            if self.hess is None or other.hess is None:
                return Jet(val, grad, None)
            cross = self.grad[:, :, None] * other.grad[:, None, :]
            hess = (
                self.val[:, None, None] * other.hess
                + other.val[:, None, None] * self.hess
                + cross
                + np.swapaxes(cross, 1, 2)
            )
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
        grad = g1[:, None] * self.grad
        if self.hess is None:
            return Jet(np.asarray(g0, dtype=float), grad, None)
        hess = g1[:, None, None] * self.hess + g2[:, None, None] * (
            self.grad[:, :, None] * self.grad[:, None, :]
        )
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


def jet_norm(x: np.ndarray, order: int = 2) -> Jet:
    """Jet of |x| on a batch (M, N); points at the origin are the caller's problem."""
    coords = Jet.variables(x, order)
    sq = coords[0] * coords[0]
    for c in coords[1:]:
        sq = sq + c * c
    return jet_sqrt(sq)


def jet_polynomial(x: np.ndarray, terms: list[tuple[float, tuple[int, ...]]],
                   order: int = 2) -> Jet:
    """Jet of sum_k c_k * prod_i x_i^(e_ki) with analytic derivatives.

    Derivatives are assembled directly from the monomial exponents instead of
    chained jet products, so high-degree terms stay exact.
    """
    m, n = x.shape
    val = np.zeros(m)
    grad = np.zeros((m, n))
    hess = np.zeros((m, n, n)) if order == 2 else None

    def _pow(col: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            return np.zeros_like(col)
        return col**e

    for coef, powers in terms:
        if len(powers) != n:
            raise ValueError("monomial exponent tuple does not match dimension")
        base = coef * np.ones(m)
        for i, e in enumerate(powers):
            base = base * _pow(x[:, i], e)
        val += base
        for i, ei in enumerate(powers):
            if ei == 0:
                continue
            gterm = coef * ei * np.ones(m)
            for j, ej in enumerate(powers):
                gterm = gterm * _pow(x[:, j], ej - 1 if j == i else ej)
            grad[:, i] += gterm
        if hess is None:
            continue
        for i, ei in enumerate(powers):
            for j, ej in enumerate(powers):
                if i == j:
                    if ei < 2:
                        continue
                    hterm = coef * ei * (ei - 1) * np.ones(m)
                    for k, ek in enumerate(powers):
                        hterm = hterm * _pow(x[:, k], ek - 2 if k == i else ek)
                else:
                    if ei == 0 or ej == 0:
                        continue
                    hterm = coef * ei * ej * np.ones(m)
                    for k, ek in enumerate(powers):
                        e = ek
                        if k == i:
                            e -= 1
                        if k == j:
                            e -= 1
                        hterm = hterm * _pow(x[:, k], e)
                hess[:, i, j] += hterm
    return Jet(val, grad, hess)
