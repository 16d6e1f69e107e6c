"""The package's public API: the exact set of names ``dpgraphlab`` exports."""

import dpgraphlab as dg

PUBLIC_API = [
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


def test_public_api_is_pinned():
    # growing or shrinking the API takes an edit of this list
    assert len(PUBLIC_API) == 50
    assert sorted(dg.__all__) == PUBLIC_API
    for name in dg.__all__:
        assert getattr(dg, name) is not None, name
