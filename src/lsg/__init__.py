"""Spherical analysis and exact Schrödinger propagation on complex
semi-simple Lie groups, with a Hardy-type uniqueness certifier, dispersive
and space-time estimate verification, and a Heisenberg-group explorer.
"""

from .config import InitData
from .errors import LsgError
from .estimates import (NormReport, decay_exponent_fit,
                        strichartz_inhomogeneous_check, strichartz_norm,
                        strichartz_pair, weighted_norm)
from .grids import (BiInvariantField, GridMode, Method, RadialGrid,
                    Representation, SpectralField)
from .hardy import (Classification, GaussianEnvelope, HardyVerdict,
                    fit_envelope_report, hardy_product, uniqueness_experiment)
from .heisenberg import (cutlocus_distance, heat_integrand, heat_kernel,
                         projection_residual, schrodinger_integrand,
                         singularities)
from .propagator import (PropagationResult, duhamel_solve,
                         euclidean_propagate, gaussian_profile,
                         group_propagate_closed_form, group_propagate_spectral,
                         suggest_spectral_grid)
from .rootsystem import (RootSystemSpec, WeylElement, build_root_system,
                         dominant_representative)
from .spherical import (c_function, density, inverse_spherical_transform,
                        plancherel_constant, radial_laplacian,
                        roundtrip_error, spectral_to_plain,
                        spherical_function, spherical_transform,
                        weyl_denominator)

__version__ = "0.1.0"
