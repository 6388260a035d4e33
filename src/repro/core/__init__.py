"""The paper's primary contribution: SAO, CFO, HAG, and its training loop."""

from .cfo import CFOLayer
from .hag import HAG, prepare_aggregators
from .influence import (
    influence_distribution,
    influence_scores,
    influence_scores_batch,
)
from .lambda_infer import HAGState, materialize
from .sao import SAOLayer, neighbor_mean_matrix
from .trainer import TrainConfig, TrainResult, train_node_classifier

__all__ = [
    "SAOLayer",
    "neighbor_mean_matrix",
    "CFOLayer",
    "HAG",
    "prepare_aggregators",
    "HAGState",
    "materialize",
    "TrainConfig",
    "TrainResult",
    "train_node_classifier",
    "influence_scores",
    "influence_scores_batch",
    "influence_distribution",
]
