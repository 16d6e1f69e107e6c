"""Differential-privacy laboratory for GCNs on population graphs.

Builds k-NN or synthetic homophily-controlled graphs, trains GCN/MLP models
with node-level DP-SGD under a hypergeometric Renyi accountant, and audits
trained models with a shadow-model likelihood-ratio membership attack
checked against the analytic supremum-power bound.
"""

from .accounting import (AccountantState, CalibrationError, PrivacySpec,
                         SubgraphSpec, calibrate_sigma, clip, compose_and_convert,
                         make_accountant, noisy_batch_gradient, recommend_delta,
                         supremum_power)
from .attacks import (AttackReport, AuditSetupError, ShadowEnsemble, audit,
                      lira_score, roc, scaled_confidence, train_shadows)
from .graphs import (CsvParseError, IngestionError, MetricUndefinedError,
                     PopulationGraph, SplitSpec, assign_splits,
                     build_knn_graph, edge_homophily, edgeless_graph,
                     graph_stats, load_csv, node_homophily, write_edge_list)
from .nn import (ForwardContext, LayerSpec, ModelParams, ShapeError,
                 gcn_forward, init_gcn, init_mlp, loss_and_grad,
                 normalize_adjacency)
from .sampling import SampledSubgraph, SubgraphStore, sample_training_subgraphs
from .synthetic import SyntheticSpec, generate_synthetic
from .training import TrainConfig, evaluate, train, write_training_log

__all__ = [
    "AccountantState", "AttackReport", "AuditSetupError", "CalibrationError",
    "CsvParseError", "ForwardContext", "IngestionError", "LayerSpec",
    "MetricUndefinedError", "ModelParams", "PopulationGraph", "PrivacySpec",
    "SampledSubgraph", "ShadowEnsemble", "ShapeError", "SplitSpec",
    "SubgraphSpec", "SubgraphStore", "SyntheticSpec", "TrainConfig",
    "assign_splits", "audit", "build_knn_graph", "calibrate_sigma", "clip",
    "compose_and_convert", "edge_homophily", "edgeless_graph", "evaluate",
    "gcn_forward", "generate_synthetic", "graph_stats", "init_gcn", "init_mlp",
    "lira_score", "load_csv", "loss_and_grad", "make_accountant",
    "node_homophily", "noisy_batch_gradient", "normalize_adjacency",
    "recommend_delta", "roc", "sample_training_subgraphs", "scaled_confidence",
    "supremum_power", "train", "train_shadows", "write_edge_list",
    "write_training_log",
]

__version__ = "0.1.0"
