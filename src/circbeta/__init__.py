"""Numerics for the circular beta ensembles: finite-N and bulk-scaled
correlations, gap and spacing generating functions, structure functions, and
the 1/N^2 correction identities connecting them."""

from .numerics import (gauss_legendre, sine_integral, chebyshev_points, chebyshev_diff_matrix,
                       spectral_derivative, chebyshev_interpolate, correction_factor,
                       correction_residual)
from .kernels import KernelSpec
from .correlations import (rho_n_cue, rho_n_pfaffian, pfaffian,
                           rho2_bulk_term, rho2_bulk_finite)
from .gap import (AccuracyWarning, fredholm_det, fredholm_trace_correction, e_bulk, e_pm,
                  e_finite_cue, extract_correction)
from .painleve import IntegrationFailure, solve_sigma0, sigma1_from_sigma0, e_tau
from .spacing import (E_CUE_SMALL_S, P0_BETA2, P1_BETA2, P2_BETA2, P0_BETA1, P1_BETA1, p_bulk,
                      spacing_series_residual, wigner_surmise, surmise_correction)
from .sff import (sff_exact, sff_bulk_scaled, sff_bulk_term, sff_series,
                  series_coefficient, verify_x6, cbe_trace_moment, oracle_series_coefficients)
from .beta_even import (selberg, selberg_log, morris, evenness_factor, rho2_even_beta,
                        moment_integral, verify_moment_recurrence,
                        leading_xi_coefficient_exact, rho2_correction_limit)

__version__ = "0.1.0"
