"""RBM likelihoods, mean-field CD-1, and Rademacher complexity estimation.

The library computes exact RBM quantities by enumeration at desk scale,
runs the deterministic mean-field CD-1 pipeline, estimates the empirical
Rademacher complexity of the associated hypothesis classes by Monte Carlo,
and evaluates the matching closed-form bounds so that estimates and bounds
can be compared directly.
"""

import types

from .bounds import (
    bound_corollary1,
    bound_lemma1,
    bound_lemma4_finite,
    bound_remark2,
    bound_theorem1,
    sauer_shelah_ln_card,
)
from .cd1 import (
    TrainingTrace,
    cd1_approx_log_likelihood,
    cd1_gradient_step,
    cd1_log_partition,
    meanfield_hidden,
    meanfield_visible,
    train_cd1,
)
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .rademacher import (
    ConstraintSpec,
    EstimateReport,
    OptimizerSettings,
    RademacherBatch,
    count_quantized_behaviors,
    estimate_R_cd1_logZ,
    estimate_R_F,
    estimate_R_finite_T,
    estimate_R_G,
    estimate_R_H,
    estimate_R_loglik_part1,
    estimate_R_T,
    generate_members,
    project_l1,
    sample_sigma_batch,
    t_value,
)
from .rbm import (
    BinaryDataset,
    EnumerationLimitError,
    ExactDistribution,
    RbmParams,
    dataset_log_likelihoods,
    energy,
    enumerate_configs,
    exact_distribution,
    exact_log_likelihood,
    free_energy_part1,
    log_partition_bruteforce,
    log_partition_factorized,
    part1_bruteforce,
    sample_dataset,
    sigmoid,
    softplus,
)

__version__ = "0.1.0"

# Every public name imported above, and no submodule.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
