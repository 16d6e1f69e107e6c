"""The package's public API: the exact set of names ``dpgraphlab`` exports,
and the modules that loading it and its light CLI commands pull in."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _fresh_interpreter(code: str, cwd=None):
    """Run ``code`` in a new interpreter that imports this checkout's package
    and return what it prints last, parsed as JSON."""
    src = str(Path(dg.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True, cwd=cwd)
    return json.loads(done.stdout.strip().splitlines()[-1])


LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_scipy():
    # scipy.sparse is loaded by the first normalize_adjacency, not by the import
    code = f"import json, sys, dpgraphlab; print(json.dumps({LOADED_SCIPY}))"
    assert _fresh_interpreter(code) == []


@pytest.mark.parametrize("argv", [
    ["calibrate", "--epsilon", "5", "--steps", "1000", "--n-train", "560", "-T", "6", "-m", "64"],
    ["accountant", "--sigma", "30", "--n-train", "560", "-T", "6", "--fpr", "0.001,0.01"],
    ["gen-synthetic", "--nodes", "40", "--out", "g"],
], ids=["calibrate", "accountant", "gen-synthetic"])
def test_cli_commands_that_build_no_adjacency_load_no_scipy(tmp_path, argv):
    code = ("import json, sys; from dpgraphlab import cli\n"
            f"code = cli.main({argv!r})\n"
            f"print(json.dumps([code, {LOADED_SCIPY}]))")
    assert _fresh_interpreter(code, cwd=tmp_path) == [0, []]


def test_normalize_adjacency_loads_scipy_sparse():
    code = ("import json, sys, numpy as np, dpgraphlab as dg\n"
            "before = 'scipy.sparse' in sys.modules\n"
            "dg.normalize_adjacency(dg.edgeless_graph(np.ones((3, 2)), [0, 1, 0]))\n"
            "print(json.dumps([before, 'scipy.sparse' in sys.modules]))")
    assert _fresh_interpreter(code) == [False, True]
