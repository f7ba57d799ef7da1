"""Desk-scale numerics for inner variations of phase-field energies.

The package computes first/second variations and inner variations of bulk
energies A(u) = int F(u, grad u), the corresponding surface functionals on
parametrized interfaces, optimal transition profiles, and interface-width
sweeps that verify the sharp-interface limits of the scalar p-phase-field
family and of the complex vortex energy, including their discrepancy terms
and the volume-constrained stability identity.
"""

from .errors import (
    ConfigError,
    DegenerateReference,
    DimensionMismatch,
    EpsilonTooLarge,
    InnervarError,
    NonInvertible,
    StiffTail,
    TubeTooNarrow,
    UnsupportedBoundary,
)
from .fields import (
    DeformationMap,
    ScalarField,
    VectorField,
    bump_polynomial_field,
    bump_scalar_field,
    constant_field,
    det_expansion,
    filament_test_field,
    good_identity_residual,
    linear_field,
    polynomial_scalar_field,
    polynomial_vector_field,
    random_compact_vector_field,
    random_polynomial_scalar_field,
    random_polynomial_vector_field,
    rotation_exp,
    rotation_field,
    scalar_field_from_config,
    vector_field_from_config,
    x0_field,
    zeta_eta,
)
from .geometry import (
    Filament,
    Hypersurface,
    ac_discrepancy,
    area_second_inner_variation,
    circle,
    circular_filament,
    enclosed_region_quadrature,
    flat_patch,
    gl_discrepancy,
    gl_discrepancy_densities,
    jacobi_form,
    normal_extension,
    pushforward_area,
    quadratic_form_limit,
    shape_from_config,
    sphere,
    straight_filament,
    surface_integral,
)
from .limits import (
    ConvergenceRecord,
    EpsilonSchedule,
    ac_limit_experiment,
    boundary_flux,
    constrained_poincare_check,
    equipartition_residuals,
    extrapolate,
    fitted_rate,
    gl_limit_experiment,
    perturbed_field,
    quadratic_forms,
    tensor_pairing_experiment,
    volume_admissibility,
)
from .profiles import (
    GLRadialProfile,
    ProfileTable,
    ansatz_field,
    c_p,
    c_p_beta_oracle,
    gl_radial_profile,
    gl_vortex_field,
    optimal_profile,
    profile_field,
    tanh_profile_field,
    transverse_rule,
)
from .sums import pairwise_dot, pairwise_sum
from .variation import (
    BulkQuadrature,
    Integrand,
    VariationReport,
    composite_test_function,
    energy,
    filament_tube_rule,
    first_inner_variation,
    first_variation,
    inner_variation_oracle,
    integrand_dirichlet,
    integrand_ginzburg_landau,
    integrand_p_allen_cahn,
    second_inner_variation,
    second_variation,
    tensor_grid,
    tube_rule,
    variation_report,
    vortex_radial_rule,
)

__version__ = "0.1.0"
