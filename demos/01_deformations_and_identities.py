"""Quadratic deformations of the domain and the pointwise identities behind them.

The map Phi_t(x) = x + t eta(x) + (t^2/2) zeta(x) deforms the domain with a
velocity and an acceleration field.  This script builds such maps, checks the
determinant expansion det(grad Phi_t) = 1 + t div eta + (t^2/2)[div zeta +
(div eta)^2 - tr((grad eta)^2)] + O(t^3), inverts the map with Newton's
method, and verifies that the nonlinear combination (div eta)^2 -
tr((grad eta)^2) is itself a divergence -- the fact that makes a canonical
volume-preserving acceleration possible.
"""

import numpy as np

from innervar import (
    DeformationMap,
    det_expansion,
    good_identity_residual,
    random_polynomial_vector_field,
    rotation_exp,
    rotation_field,
    zeta_eta,
)

rng = np.random.default_rng(7)

print("== determinant expansion ==")
eta = random_polynomial_vector_field(rng, 3, degree=3)
zeta = random_polynomial_vector_field(rng, 3, degree=2)
x = np.array([0.2, -0.1, 0.4])
c0, c1, c2 = det_expansion(eta, zeta, x)
h = 1e-3
dets = [DeformationMap(eta, zeta, t).det(x) for t in (-2 * h, -h, 0.0, h, 2 * h)]
c1_fd = (dets[0] - 8 * dets[1] + 8 * dets[3] - dets[4]) / (12 * h)
c2_fd = (-dets[0] + 16 * dets[1] - 30 * dets[2] + 16 * dets[3] - dets[4]) / (12 * h * h)
print(f"  coefficients (1, div eta, second order): ({c0:.0f}, {c1:+.6f}, {c2:+.6f})")
print(f"  vs finite differences in t:              |d1|={abs(c1-c1_fd):.1e}, |d2|={abs(c2-c2_fd):.1e}")

print("\n== the divergence identity ==")
pts = rng.uniform(-1, 1, size=(1000, 3))
res = good_identity_residual(eta, pts)
print(f"  (div eta)^2 - tr((grad eta)^2) = div{{(div eta)eta - (eta.grad)eta}}")
print(f"  max residual over 1000 points: {np.max(np.abs(res)):.2e}")

print("\n== volume-compensating acceleration reproduces rigid rotations ==")
omega = np.array([0.3, -0.2, 0.9])
rot = rotation_field(omega)
zr = zeta_eta(rot)
gen = rot.jacobian(np.zeros(3))
for t in (0.1, 0.05, 0.025):
    dm = DeformationMap(rot, zr, t)
    err = np.linalg.norm(dm.apply(x) - rotation_exp(t * gen) @ x)
    print(f"  t={t:<6} |Phi_t(x) - exp(t Omega) x| = {err:.3e}   (~ t^3: {err/t**3:.3f})")

print("\n== Newton inversion ==")
dm = DeformationMap(eta, zeta, 0.01)
y = rng.uniform(-0.5, 0.5, size=(5, 3))
x_inv = dm.invert(y)
print(f"  round-trip residual: {np.max(np.linalg.norm(dm.apply(x_inv) - y, axis=1)):.2e}")

print("\n== a dilation is never volume-admissible ==")
a = 0.5
print(f"  div(a x) = {3*a}; the enclosed volume changes at first order in t.")
print(f"  zeta_eta(a x) = a^2 (1-N) x; with it the SECOND-order volume change cancels.")
