"""Randomized certification of the Golden-Thompson trace inequality.

The package verifies, over seeded random matrix ensembles, that
log tr exp(A + B) <= log tr exp(A) + log tr exp(B) for Hermitian A and B, and
independently certifies the convexity structure behind that inequality: the
midpoint convexity of log tr exp, the positive semidefinite Hessian of
log-sum-exp (a weighted complete-graph Laplacian), and the unitary invariance
of spectrally lifted symmetric functions.
"""

from .checks import CheckResult
from .errors import (
    CampaignTrialError,
    ConvergenceFailure,
    DimensionMismatch,
    Error,
    HermiticityViolation,
    MatrixParseError,
    NonFiniteInput,
    NonFiniteResult,
    NotSquareError,
    UnitarityViolation,
)
from .gt import (
    CampaignConfig,
    CampaignReport,
    convexity_check,
    derive_seed,
    gt_strong_check,
    gt_weak_check,
    log_trace_exp,
    log_trace_exp_product,
    replay,
    run_campaign,
    trial_inputs,
)
from .hermitian import (
    GENERATOR_ID,
    EnsembleSpec,
    HermitianMatrix,
    UnitaryMatrix,
    random_hermitian,
    random_unitary,
    random_vector,
    validate_hermitian,
)
from .logsumexp import (
    PsdCertificate,
    SoftmaxWeights,
    complete_graph_laplacian,
    dkd_product,
    hessian_fd,
    lse,
    lse_hessian_analytic,
    psd_certify,
    softmax,
)
from .matrixio import dumps_matrix, load_matrix, loads_matrix, save_matrix
from .spectral import (
    SymmetricScalarFunction,
    builtin,
    builtin_names,
    check_davis_restriction,
    check_symmetry,
    check_unitary_invariance,
    lift,
    lift_eval,
    midpoint_convexity_residual,
    segment_convexity_residual,
)

__version__ = "0.1.0"
