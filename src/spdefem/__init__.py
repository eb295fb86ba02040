"""Tamed linearly implicit FEM solver and study harness for a semilinear
stochastic PDE with additive spectral noise on an interval.

Layers, bottom up: fem1d (P1 elements, tridiagonal algebra, discrete
spectrum), drift (polynomial nonlinearity and its taming), noise (spectral
increments and reproducible path tapes), scheme (the time stepper),
smoothing_lab (deterministic propagator error bench), harness (Monte Carlo
studies), cli (config documents and serialized reports).
"""

__version__ = "0.1.0"

from .errors import (CapacityError, ConfigError, ConstraintError,
                     InvalidArgumentError, NumericalBlowupError,
                     SingularMatrixError, SpdefemError)
from .fem1d import (FemOperators, Mesh1D, TriDiagSym, assemble_mass,
                    assemble_operators, assemble_stiffness, build_mesh,
                    discrete_spectrum, lp_norm)
from .drift import (DriftPolynomial, TamingParams, eval_f, eval_f_tamed,
                    one_sided_constant, taming_inequality_suite,
                    validate_params)
from .noise import NoiseModel, RngStream, make_noise_model
from .scheme import (SchemeConfig, SchemeState, drift_load, make_scheme_config,
                     run, shifted_operator)
from .smoothing_lab import (SpectralFunction, discrete_propagator,
                            exact_semigroup, rate_fit, smoothing_error)
from .harness import (Resolution, StudyConfig, equilibration_study,
                      moment_study, smoothing_study, strong_rate_study,
                      weak_rate_study)

__all__ = [name for name in dir() if not name.startswith("_")]
