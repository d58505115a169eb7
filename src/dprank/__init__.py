"""Differentially private graph synthesis via deep PageRank embeddings."""

__version__ = "0.1.0"

from .graph import (Graph, WalkBatch, from_edges, generate_walk_batch,
                    load_edge_list, write_edge_list)
from .model import (AdamState, Theta, adam_step, batch_gradients, edge_loss,
                    forward, full_objective, init_params, spectral_norm,
                    weight_normalize)
from .privacy import (PrivacyLedger, PrivacyOverdraftError, PrivacySpec,
                      compute_m, min_layers, noise_sigma, perturb_gradient)
from .synthesis import default_target_edges, sample_graph
from .metrics import (GraphStats, build_report, compute_stats, degree_ks,
                      link_prediction_auc, micro_f1, mre,
                      node_classification_f1)
from .training import (ScoreMatrix, TrainConfig, TrainResult, accumulate_scores,
                       train)

__all__ = [
    "__version__",
    "Graph", "WalkBatch", "from_edges", "generate_walk_batch",
    "load_edge_list", "write_edge_list",
    "AdamState", "Theta", "adam_step", "batch_gradients", "edge_loss",
    "forward", "full_objective", "init_params", "spectral_norm",
    "weight_normalize",
    "PrivacyLedger", "PrivacyOverdraftError", "PrivacySpec",
    "compute_m", "min_layers", "noise_sigma", "perturb_gradient",
    "default_target_edges", "sample_graph",
    "GraphStats", "build_report", "compute_stats", "degree_ks",
    "link_prediction_auc", "micro_f1", "mre", "node_classification_f1",
    "ScoreMatrix", "TrainConfig", "TrainResult", "accumulate_scores", "train",
]
