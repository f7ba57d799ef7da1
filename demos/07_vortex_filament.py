"""Vortex filaments: logarithmic energy concentration and its second variation.

A degree-one vortex around a straight filament carries energy
pi |log eps| per unit length; normalized by |log eps| it concentrates on the
filament.  Its second inner variation converges to pi times the second
variation of the filament length PLUS a transverse defect, which vanishes for
deformations that are holomorphic in the transverse complex coordinate and
equals 4 pi per unit length for the conjugate-coordinate mode.  Convergence
is logarithmically slow, so the extrapolation runs in 1/|log eps|.
"""

import numpy as np

from innervar import (
    EpsilonSchedule,
    area_second_inner_variation,
    constant_field,
    extrapolate,
    filament_test_field,
    gl_discrepancy,
    gl_limit_experiment,
    straight_filament,
)

fil = straight_filament(16)
zero = constant_field([0.0, 0.0, 0.0])
sched = EpsilonSchedule.geometric(0.05, 10)
print("widths:", ", ".join(f"{e:.2e}" for e in sched.epsilons))

for preset, amp in (("bend", 0.6), ("antiholomorphic", 1.0)):
    eta = filament_test_field(preset, amplitude=amp)
    sv = area_second_inner_variation(fil, eta, zero)
    disc, _ = gl_discrepancy(fil, eta)
    rec = gl_limit_experiment(fil, eta, zero, sched, n_theta=48)
    print(f"\n== {preset} mode ==")
    print(f"  filament-length second variation {sv:.6f}, transverse defect {disc:.6f}")
    print(f"  target pi (sv + defect) = {rec.target:.6f}")
    print("  measured:", ", ".join(f"{v:.3f}" for v in rec.values[::3]), "...")
    print(f"  extrapolated in 1/|log eps|: {rec.extrapolated:.6f}   gap {rec.gap:.2e}")
    e_extr, _ = extrapolate(sched.epsilons, rec.extras["energy"], "log_inverse")
    print(f"  normalized energy -> {e_extr:.8f}  (pi = {np.pi:.8f})")
