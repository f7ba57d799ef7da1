"""Optimal 1-D transition profiles and the surface-tension constants.

The equality case of the Young split of the scalar phase-field energy forces
q' = W(q)^(1/p); solving that flow gives the profile whose interface energy
per unit area is c_p = int_{-1}^{1} W^((p-1)/p).  For p = 2 the profile is
tanh; for p < 2 it saturates only algebraically, which is why the tables
reach very large radii while the energy-carrying core stays small.
"""

import numpy as np

from innervar import c_p, c_p_beta_oracle, gl_radial_profile, optimal_profile

print("== surface-tension constants ==")
print(f"  {'p':>5} {'c_p':>18} {'Gamma-fn oracle':>18}")
for p in (1.0, 1.25, 1.5, 2.0, 3.0, 4.0):
    oracle = c_p_beta_oracle(p) if p > 1 else 2.0
    print(f"  {p:>5} {c_p(p):>18.15f} {oracle:>18.15f}")
print("  c_2 = 4/3 exactly; c_p decreases from the sharp-interface value 2 at p = 1.")

print("\n== profiles across p ==")
print(f"  {'p':>5} {'table radius':>14} {'energy core':>12} {'transition zone':>16}")
for p in (1.25, 1.5, 2.0, 3.0):
    prof = optimal_profile(p)
    print(f"  {p:>5} {prof.s_max:>14.4g} {prof.s_core:>12.4g} {prof.s_transition:>16.4g}")
print("  (energy core: tail energy below 1e-10 c_p; for p < 2 the field tail is")
print("   power-law but the energy it carries dies quickly)")

prof2 = optimal_profile(2.0)
s = np.linspace(-6, 6, 13)
print("\n== p = 2 against the closed form ==")
print("  s:      ", "  ".join(f"{v:+.1f}" for v in s))
print("  q(s):   ", "  ".join(f"{v:+.2f}" for v in prof2.q(s)))
print(f"  max |q - tanh| on [-8, 8]: {np.max(np.abs(prof2.q(np.linspace(-8, 8, 801)) - np.tanh(np.linspace(-8, 8, 801)))):.2e}")

print("\n== pointwise equi-partition |q'|^p = W(q) ==")
for p in (1.5, 2.0, 3.0):
    prof = optimal_profile(p)
    ss = np.linspace(0.0, min(prof.s_max * 0.9, 20.0), 300)
    h = 1e-6
    dq_fd = (prof.q(ss + h) - prof.q(ss - h)) / (2 * h)
    res = np.max(np.abs(np.abs(dq_fd) ** p - (1 - prof.q(ss) ** 2) ** 2))
    print(f"  p={p}: max residual (finite-difference derivative) {res:.2e}")

print("\n== vortex modulus profile ==")
glp = gl_radial_profile()
print(f"  core slope f'(0) = {glp.slope0:.6f} (shooting against the 1 - 1/(2 r^2) tail)")
r = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
print("  r:    ", "  ".join(f"{v:5.1f}" for v in r))
print("  f(r): ", "  ".join(f"{v:5.3f}" for v in glp.f(r)))
