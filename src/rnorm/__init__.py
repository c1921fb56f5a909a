"""Representational cost of functions as infinite-width two-layer ReLU networks.

The central quantity is the R-norm: the minimal total-variation norm of the
even measure representing a function as a continuous-width two-layer ReLU
network.  The package provides exact radial calculators, a Radon/fractional-
Laplacian grid pipeline for d=2, minimum-norm measure fitting, and analysis
demos (infinite-norm certificates, the parallelogram-law failure, the
linear-unit gap).
"""

from .constants import constants, sphere_area
from .grids import GridFunction2D, sample_grid
from .piecewise import (
    DistributionalProfile,
    PiecewisePolynomial,
    profile_derivative,
    profile_l1,
)
from .radon import (
    RadialFunction,
    Sinogram,
    UnsupportedDimensionError,
    bump_poly,
    dual_radon_2d,
    fbp_inverse_2d,
    grid_radon_2d,
    offset_power_derivative,
    radial_radon_profile,
)
from .spectral import (
    PwlCurvatureMeasure2D,
    RayDecaySample,
    frac_laplacian_2d,
    pwl_fourier_ray,
)
from .engine import (
    AtomicMeasure,
    FiniteReluNet,
    RNormReport,
    even_part,
    grad_at_infinity,
    laplacian_lower_bound,
    rbar_bounds,
    rnorm_finite_net,
    rnorm_grid_2d,
    rnorm_radial_odd,
    sobolev_upper_bound_2d,
)
from .fitting import (
    FitProblem,
    build_dictionary,
    lp_oracle,
    min_norm_fit,
    refinement_levels,
)
from .analysis import (
    bump_finiteness_sweep,
    parallelogram_check,
    pwl_infinite_certificate,
    pyramid_geometry,
    pyramid_pwl,
    pyramid_threelayer,
    rbar_gap_demo,
)

__all__ = [
    "AtomicMeasure",
    "DistributionalProfile",
    "FiniteReluNet",
    "FitProblem",
    "GridFunction2D",
    "PiecewisePolynomial",
    "PwlCurvatureMeasure2D",
    "RNormReport",
    "RadialFunction",
    "RayDecaySample",
    "Sinogram",
    "UnsupportedDimensionError",
    "bump_finiteness_sweep",
    "bump_poly",
    "build_dictionary",
    "constants",
    "dual_radon_2d",
    "even_part",
    "fbp_inverse_2d",
    "frac_laplacian_2d",
    "grad_at_infinity",
    "grid_radon_2d",
    "laplacian_lower_bound",
    "lp_oracle",
    "min_norm_fit",
    "offset_power_derivative",
    "parallelogram_check",
    "profile_derivative",
    "profile_l1",
    "pwl_fourier_ray",
    "pwl_infinite_certificate",
    "pyramid_geometry",
    "pyramid_pwl",
    "pyramid_threelayer",
    "radial_radon_profile",
    "rbar_bounds",
    "rbar_gap_demo",
    "refinement_levels",
    "rnorm_finite_net",
    "rnorm_grid_2d",
    "rnorm_radial_odd",
    "sample_grid",
    "sobolev_upper_bound_2d",
    "sphere_area",
]
