"""Surface measures under deformation: second variations and defect integrals.

The second derivative of t -> H(Phi_t(Gamma)) at t = 0 has a closed surface
form (tangential divergences and frame derivatives).  We evaluate it on the
supported shapes, cross-check against a finite-difference second derivative
of the pushed-forward area, and compute the two defect integrals that appear
in the sharp-interface limits: the squared normal gradient (n, n.grad eta)^2
for scalar phase fields, and the transverse dbar modulus for filaments.
"""

import numpy as np

from innervar import (
    ac_discrepancy,
    area_second_inner_variation,
    bump_scalar_field,
    circle,
    constant_field,
    filament_test_field,
    gl_discrepancy,
    jacobi_form,
    linear_field,
    polynomial_scalar_field,
    pushforward_area,
    random_compact_vector_field,
    rotation_field,
    sphere,
    straight_filament,
    zeta_eta,
)

rng = np.random.default_rng(12)
zero3 = constant_field([0.0, 0.0, 0.0])

print("== closed forms on spheres and circles ==")
s = sphere(1.0)
a = 0.37
print(f"  sphere, dilation a x: d2 Area = {area_second_inner_variation(s, linear_field(a * np.eye(3)), zero3):.10f}")
print(f"                        8 pi a^2 = {8*np.pi*a*a:.10f}")
c = circle(1.2)
print(f"  circle, dilation: d2 Length = {area_second_inner_variation(c, linear_field(a * np.eye(2)), constant_field([0.0,0.0])):.2e}  (length is linear in t)")
rot = rotation_field([0.2, -0.5, 0.7])
print(f"  sphere, rotation with volume-compensating acceleration: {area_second_inner_variation(s, rot, zeta_eta(rot)):.2e}")

print("\n== formula vs pushforward oracle ==")
eta = random_compact_vector_field(rng, 3, bump_scalar_field(np.zeros(3), 1.6))
zeta = random_compact_vector_field(rng, 3, bump_scalar_field(np.zeros(3), 1.6))
closed_form = area_second_inner_variation(s, eta, zeta)
h = 1e-3
vals = [pushforward_area(s, eta, zeta, t) for t in (-2 * h, -h, 0, h, 2 * h)]
fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
print(f"  closed form {closed_form:+.8f}   5-point FD {fd:+.8f}   diff {abs(closed_form-fd):.1e}")

print("\n== scalar defect integral ==")
print(f"  sphere, dilation: (n, n.grad eta)^2 integrates to a^2 4 pi = {ac_discrepancy(s, linear_field(a * np.eye(3))):.8f}")

print("\n== filament defect: two routes to the same density ==")
fil = straight_filament(24)
for preset, label in (("dilation", "holomorphic transverse dilation"),
                      ("antiholomorphic", "conjugate-coordinate mode"),
                      ("bend", "bending mode")):
    eta_f = filament_test_field(preset, amplitude=1.0)
    real, dbar = gl_discrepancy(fil, eta_f)
    print(f"  {label:<34} |D_perp|^2 - 2 Jac form: {real:.6f}   4|dbar|^2 form: {dbar:.6f}")

print("\n== stability form on the unit sphere ==")
xi1 = polynomial_scalar_field(3, [(1.0, (0, 0, 1))])
xi2 = polynomial_scalar_field(3, [(1.0, (2, 0, 0)), (-1.0, (0, 2, 0))])
print(f"  translation mode x3:      J = {jacobi_form(s, xi1):+.2e}  (marginally stable)")
print(f"  degree-two mode x1^2-x2^2: J = {jacobi_form(s, xi2):+.6f}  (> 0)")
