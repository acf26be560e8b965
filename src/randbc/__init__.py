"""Elliptic PDE lab: random boundary data, non-vanishing constraints,
quantitative interior approximation, and hybrid imaging on the unit square."""

import os as _os

# One BLAS thread, set before numpy loads: a multithreaded BLAS splits long
# dot products across threads, so their last bits would follow the core count.
# The worker pool (--threads) is the one parallel knob.
_os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS"), "1"))

from .boundary import (BoundaryBasis, CovarianceSummary, RandomBoundaryModel,
                       empirical_covariance, sample_coeffs, sigma_norm,
                       surrogate_h12_norm)
from .constraints import (ConstraintMap, CoverLabeling, extract_cover,
                          holder_seminorm, restrict, save_cover_csv,
                          witness_check, witness_fields, zeta_eval)
from .errors import ConfigError, DomainError, RandbcError, SolverError
from .experiments import (ConcentrationReport, SuccessCurveResult, TailReport,
                          TrialConfig, concentration_check, success_curve,
                          tail_check, trial_fields, variance_identity_check,
                          wilson_interval)
from .grid import (Grid2D, SubdomainMask, build_grid, default_window,
                   disk_mask, rect_mask)
from .inverse import (ConductivityData, ConductivityResult, QpatData,
                      QpatMultiResult, conductivity_forward,
                      conductivity_reconstruct, qpat_forward,
                      qpat_reconstruct_multi)
from .runge import (Dictionary, LocalTarget, RungeResult, approximate,
                    build_dictionary, make_target, tradeoff_curve)
from .solver import (CoefficientField, DiscreteOperator, FieldNorms, OnDemand,
                     ScalarField, SolveInfo, assemble, gradient, laplacian,
                     load_field_csv, norms, save_field_csv, solve_dirichlet,
                     solve_poisson)
from .streams import derive_rng

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
