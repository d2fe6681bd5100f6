"""Federated optimization of compositional pairwise risks.

A library plus CLI for round-based federated optimization of objectives of
the form  mean over positives of f(mean over negatives of a pairwise loss),
with exact brute-force oracles, AUC / partial-AUC metrics, baselines, and a
deterministic simulation harness.
"""

from .algorithms import (
    HyperParams,
    RunTrace,
    UTable,
    fedx_estimate,
    momentum_update,
    simulate,
    theory_schedule,
)
from .data import (
    DataConfig,
    FederatedDataset,
    apply_heterogeneity,
    build_dataset,
    flip_labels,
    generate,
)
from .federation import (
    RoundDownload,
    RoundUpload,
    comm_cost,
    server_aggregate,
)
from .harness import ConfigError, RunConfig, parse_config, parse_config_file, run, sweep
from .losses import (
    OuterFnSpec,
    PairwiseLossSpec,
    exact_grad,
    exact_objective,
    exact_oracle,
    loss,
    loss_and_slope,
    outer_deriv,
    outer_value,
)
from .metrics import auc, auc_and_partial_aucs, partial_auc
from .model import ScorerSpec, finite_diff_grad, score_grad_many, score_many
from .rng import substream

__version__ = "0.1.0"
