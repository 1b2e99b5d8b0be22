"""Sharp spectral-gap lower bounds through a one-dimensional model.

The model eigenvalue lambda_1(n, K, D), the first Neumann eigenvalue of
w'' - T w' + lambda w  on an interval of length D with the
curvature-matched drift T (computed by power iteration on the Green
operator of its flux mu w', folded onto half the interval), dominates
the classical Lichnerowicz, Zhong-Yang, Shi-Zhang, and Yang bounds and
is attained by round spheres.  Supporting machinery: perturbed parameter
selection, maximum matching within the drift family, auxiliary
multipliers built from curvature deficit profiles, closed-form bound
comparisons, and a verification harness over spaces with known spectra.
"""

from .auxfunc import (CurvatureProfile, Geometry, JReport, JSolution,
                      check_lemma_J, j_equation_residual, k_bar, rho_K,
                      solve_J)
from .bounds import (BoundReport, aubry, bound_report, lichnerowicz,
                     main_bound, shi_zhang, shi_zhang_maximizer, yang,
                     zhong_yang)
from .eigen import (EigenQuery, lambda1_model, neumann_eigenvalue_shooting,
                    symmetric_interval_length)
from .errors import (BracketFailure, CertifiedInfinite, DomainError,
                     HorizonReached, InfeasibleDelta, InputError,
                     IntegrationFailure, MeshTooCoarse,
                     NonPositiveEigenfunction, NumericalError,
                     ProfileFormatError, SingularWeight, SpecgapError,
                     TargetBelowMinimum)
from .harness import (ChainReport, GradientReport, MainInequalityReport,
                      ModelManifold, catalog, check_main_inequality,
                      circle, diameter_chain_check, flat_torus,
                      gradient_comparison_sphere, sphere)
from .matching import (MatchResult, ReflectionReport, constant_drift_limit,
                       m_min, match_maximum, r_epsilon, reflection_check)
from .model import (Branch, Domain, ModelParams, ModelSolution,
                    branch_for_curvature, drift_eval, riccati_residual,
                    solve_ivp, weight_mu)
from .perturbation import (ConditionReport, PerturbedParams, check_term_III,
                           choose_K_bar, choose_N, choose_alpha_beta,
                           choose_lambda_bar, cond1_margin, cond2_margin,
                           cond3_margin, perturbed_params, verify_conditions,
                           y_window)

__version__ = "0.1.0"

__all__ = [
    "Branch", "Domain", "ModelParams", "ModelSolution",
    "branch_for_curvature", "drift_eval", "riccati_residual", "weight_mu",
    "solve_ivp",
    "EigenQuery", "neumann_eigenvalue_shooting", "lambda1_model",
    "symmetric_interval_length",
    "lichnerowicz", "zhong_yang", "shi_zhang", "shi_zhang_maximizer",
    "yang", "aubry", "main_bound", "BoundReport", "bound_report",
    "PerturbedParams", "ConditionReport", "choose_lambda_bar", "choose_N",
    "choose_alpha_beta", "choose_K_bar", "perturbed_params", "y_window",
    "cond1_margin", "cond2_margin", "cond3_margin", "verify_conditions",
    "check_term_III",
    "MatchResult", "ReflectionReport", "constant_drift_limit", "m_min",
    "match_maximum", "reflection_check", "r_epsilon",
    "Geometry", "CurvatureProfile", "JSolution", "JReport", "rho_K",
    "k_bar", "solve_J", "j_equation_residual", "check_lemma_J",
    "ModelManifold", "sphere", "flat_torus", "circle", "catalog",
    "MainInequalityReport", "check_main_inequality", "GradientReport",
    "gradient_comparison_sphere", "ChainReport", "diameter_chain_check",
    "SpecgapError", "InputError", "NumericalError", "DomainError",
    "InfeasibleDelta", "TargetBelowMinimum", "MeshTooCoarse",
    "SingularWeight", "ProfileFormatError", "IntegrationFailure",
    "HorizonReached", "BracketFailure", "CertifiedInfinite",
    "NonPositiveEigenfunction",
    "__version__",
]
