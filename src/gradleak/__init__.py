"""gradleak: gradient-leakage attacks, defenses and error bounds on
two-layer random networks.

The package treats the gradient a training client shares as the output of
a known forward map applied to the unknown batch, and studies how well the
batch can be recovered: a moment-based reconstruction attack, an
optimization-based gradient-matching attack, six defense transforms, the
Cramer-Rao limits each defense implies, a Gaussian-mechanism privacy
calculator, and a reproducible sweep harness tying them together.
"""
# before the imports: the harness writes it into every sweep manifest
__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .activations import Activation, HermiteMoments, hermite_moments
from .bounds import (
    BoundReport,
    bound_for_observation,
    cramer_rao_gram,
    dp_delta,
    dp_lambda_star,
    estimate_sensitivity,
    required_sigma,
)
from .defenses import (
    ClipDefense,
    DefenseRecord,
    DropoutDefense,
    LocalAggregationDefense,
    NoiseDefense,
    PruneRatioDefense,
    PruneThresholdDefense,
    SecureAggregationDefense,
    compose,
    dp_sgd_preset,
    local_aggregation,
    secure_aggregate,
)
from .gradmatch import GradMatchConfig, OptimizerConfig, feature_regularizer, grad_match_attack, grad_match_loss
from .harness import (
    ExperimentConfig,
    TrialRecord,
    UtilityConfig,
    aggregate_rows,
    run_trial,
    sweep,
    utility_loss,
)
from .metrics import min_perm_distance
from .network import (
    DataBatch,
    GradientObservation,
    NetworkParams,
    forward,
    gradient,
    input_gram,
    sample_batch,
    sample_params,
)
from .tensor_attack import (
    ReconstructionResult,
    TensorAttackConfig,
    build_moment_matrix,
    build_projected_tensor,
    decompose_tensor,
    estimate_subspace,
    score_reconstruction,
    tensor_attack,
)

# the public surface is exactly the names imported above
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
)
