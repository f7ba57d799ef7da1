"""Four variations of a bulk energy and the bridge identity connecting them.

For A(u) = int F(u, grad u) there are additive variations (u + t phi) and
inner variations (u composed with the inverse deformation).  They are linked:
the first inner variation equals the first variation in the direction
-grad u . eta, and the second inner variation equals the second variation in
that direction plus a first-variation term in the second-order expansion
coefficient X0.  Both hold for every u, critical or not, provided the fields
are compactly supported.  Then dA(u, X0) can also be taken by parts, as
int (F_z - div F_P) . X0, which needs X0's values and u's Hessian only; that
is how variation_report computes it.
"""

import numpy as np

from innervar import (
    composite_test_function,
    first_inner_variation,
    first_variation,
    inner_variation_oracle,
    integrand_dirichlet,
    integrand_p_allen_cahn,
    polynomial_scalar_field,
    random_compact_vector_field,
    random_polynomial_scalar_field,
    second_inner_variation,
    second_variation,
    tensor_grid,
    variation_report,
    x0_field,
)

rng = np.random.default_rng(3)
quad = tensor_grid([[-1.0, 1.0], [-1.0, 1.0]], 40)
f = integrand_dirichlet()
u = random_polynomial_scalar_field(rng, 2, degree=3)
eta = random_compact_vector_field(rng, 2, degree=2, radius=0.85)
zeta = random_compact_vector_field(rng, 2, degree=2, radius=0.85)

print("== first-order bridge ==")
lhs = first_inner_variation(f, u, eta, quad)
rhs = first_variation(f, u, composite_test_function(u, eta), quad)
print(f"  delta A            = {lhs:+.10f}")
print(f"  dA(u, -grad u.eta) = {rhs:+.10f}    diff {abs(lhs-rhs):.1e}")

print("\n== second-order bridge ==")
d2_inner = second_inner_variation(f, u, eta, zeta, quad)
d2_outer = second_variation(f, u, composite_test_function(u, eta), quad)
da_x0 = first_variation(f, u, x0_field(u, eta, zeta), quad)
print(f"  delta2 A                    = {d2_inner:+.10f}")
print(f"  d2A(-grad u.eta) + dA(X0)   = {d2_outer + da_x0:+.10f}")
report = variation_report(f, u, eta, zeta, quad)
print(f"  residual                    = {report.sv_relation_residual:+.1e}")
print(f"  (the dA(X0) part alone      = {da_x0:+.6f}; it vanishes only at critical points)")

print("\n== dA(u, X0) two ways ==")
z, p, hu = u.evaluate(quad.nodes, 2)
(x0v,) = x0_field(u, eta, zeta).evaluate(quad.nodes, 0)
div_fp = sum(f.f_pp_dot(z, p, hu[:, :, k])[:, k] for k in range(quad.dim))  # F_Pz = 0
da_x0_parts = quad.weights @ np.einsum("dm,dm->m", f.f_z(z, p) - div_fp, x0v)
print(f"  int F_z X0 + F_P : grad X0    = {da_x0:+.12f}  (grad X0 by central differences)")
print(f"  int (F_z - div F_P) X0        = {da_x0_parts:+.12f}  (by parts, X0 = 0 near the box)")
print(f"  difference                    = {abs(da_x0 - da_x0_parts):.1e}")

print("\n== harmonic (critical) state ==")
uh = polynomial_scalar_field(2, [(1.0, (1, 1))])
da_x0_h = first_variation(f, uh, x0_field(uh, eta, zeta), quad)
print(f"  u = x1 x2: dA(X0) = {da_x0_h:+.1e}; inner and additive second variations coincide")

print("\n== finite-difference oracle ==")
d1_fd, d2_fd = inner_variation_oracle(f, u, eta, zeta, quad)
print(f"  5-point stencil of t -> A(u o Phi_t^{{-1}}): d1 diff {abs(lhs-d1_fd):.1e}, d2 diff {abs(d2_inner-d2_fd):.1e}")

print("\n== the rank-four structure appears only away from p = 2 ==")
f3 = integrand_p_allen_cahn(0.5, 3.0)
z = rng.uniform(-0.5, 0.5, size=(1, 1))  # component-major batches of one point: (d, M)
pmat = rng.uniform(-1, 1, size=(1, 2, 1))  # (d, N, M)
q1 = rng.uniform(-1, 1, size=(1, 2, 1))
f2 = integrand_p_allen_cahn(0.5, 2.0)
iso = f2.f_pp_dot(z, pmat, q1) / 0.5  # p = 2: exactly the identity map
print(f"  p=2: F_PP(Q)/eps - Q = {np.max(np.abs(iso - q1)):.1e}")
aniso = f3.f_pp_dot(z, pmat, q1)
print(f"  p=3: F_PP(Q) has a gradient-aligned part of size "
      f"{np.max(np.abs(aniso - 0.25 * np.linalg.norm(pmat) * q1)):.3f} (nonzero)")
