"""Manifest-driven grids, aggregation, reporting, and the CLI surface."""

import dataclasses
import json

import numpy as np
import pytest

import dpgraphlab as dg
from dpgraphlab.cli import main as cli_main
from dpgraphlab.experiments import (ExperimentManifest, ManifestError, aggregate, grid_cells,
                                    report, run, run_cell, spearman, sweep_homophily)


def tiny_manifest(out, variants=("non_dp", "subgraphing"), seeds=(0, 1), privacy=None):
    return ExperimentManifest.from_dict({
        "dataset": {"synthetic": {"num_nodes": 60, "target_homophily": 0.8,
                                  "neighbors_per_node": 3, "feat_dim": 4}},
        "split": {"train": 0.5, "val": 0.2, "test": 0.3, "seed": 0},
        "model": {"epochs": 5, "steps": 8, "hidden_dim": 8, "batch_size": 8,
                  "max_degree": 3, "eval_every": 4},
        "privacy": privacy,
        "variants": list(variants),
        "seeds": list(seeds),
        "output_dir": str(out),
    })


# ---------------------------------------------------------------- manifest validation

def test_manifest_requires_one_source():
    with pytest.raises(ManifestError):
        ExperimentManifest.from_dict({"dataset": {}, "seeds": [0]})
    with pytest.raises(ManifestError):
        ExperimentManifest.from_dict({
            "dataset": {"synthetic": {}, "csv": {"features": "x", "labels": "y"}},
            "seeds": [0],
        })


def test_manifest_requires_seeds():
    with pytest.raises(ManifestError):
        ExperimentManifest.from_dict({"dataset": {"synthetic": {}}, "seeds": []})


def test_manifest_dp_needs_epsilons():
    with pytest.raises(ManifestError):
        ExperimentManifest.from_dict({
            "dataset": {"synthetic": {}}, "seeds": [0], "variants": ["dp"],
        })


def test_manifest_rejects_unknown_keys():
    with pytest.raises(ManifestError):
        ExperimentManifest.from_dict({"dataset": {"synthetic": {}}, "seeds": [0],
                                      "noise_level": 3})


def test_manifest_hash_stable():
    a = ExperimentManifest.from_dict({"dataset": {"synthetic": {}}, "seeds": [0]})
    b = ExperimentManifest.from_dict({"dataset": {"synthetic": {}}, "seeds": [0]})
    assert a.hash() == b.hash()
    c = ExperimentManifest.from_dict({"dataset": {"synthetic": {}}, "seeds": [1]})
    assert a.hash() != c.hash()


def test_manifest_to_dict_is_a_copy(tmp_path):
    manifest = tiny_manifest(tmp_path)
    before = manifest.hash()
    d = manifest.to_dict()
    d["model"]["epochs"] = 10
    d["dataset"]["synthetic"]["num_nodes"] = 20
    assert manifest.model["epochs"] == 5
    assert manifest.dataset["synthetic"]["num_nodes"] == 60
    assert manifest.hash() == before


def test_manifest_from_dict_copies_nested_dicts():
    raw = {"dataset": {"synthetic": {"num_nodes": 60}}, "model": {"epochs": 5}, "seeds": [0]}
    manifest = ExperimentManifest.from_dict(raw)
    before = manifest.hash()
    raw["model"]["epochs"] = 10
    raw["dataset"]["synthetic"]["num_nodes"] = 20
    assert manifest.model == {"epochs": 5}
    assert manifest.dataset == {"synthetic": {"num_nodes": 60}}
    assert manifest.hash() == before


# ---------------------------------------------------------------- run

def test_run_writes_cells_and_aggregate(tmp_path):
    manifest = tiny_manifest(tmp_path / "res")
    summary = run(manifest)
    assert summary["n_failures"] == 0
    cells = sorted((tmp_path / "res" / "cells").glob("*.json"))
    assert len(cells) == 4  # 2 variants x 2 seeds
    record = json.loads(cells[0].read_text())
    assert record["manifest_hash"] == manifest.hash()
    agg = (tmp_path / "res" / "aggregate.csv").read_text().strip().split("\n")
    assert agg[0] == "variant,epsilon,mean_acc,std_acc,n_seeds"
    assert len(agg) == 3


def test_run_rerun_byte_identical(tmp_path):
    m1 = tiny_manifest(tmp_path / "a")
    m2 = tiny_manifest(tmp_path / "b")
    run(m1)
    run(m2)
    assert (tmp_path / "a" / "aggregate.csv").read_bytes() == \
        (tmp_path / "b" / "aggregate.csv").read_bytes()


def test_run_worker_count_independent(tmp_path):
    m1 = tiny_manifest(tmp_path / "a")
    m2 = tiny_manifest(tmp_path / "b")
    run(m1, threads=1)
    run(m2, threads=2)
    assert (tmp_path / "a" / "aggregate.csv").read_bytes() == \
        (tmp_path / "b" / "aggregate.csv").read_bytes()


def test_run_isolates_cell_failures(tmp_path):
    # epsilon far below what any sigma in range can reach at this step count
    manifest = tiny_manifest(
        tmp_path / "res", variants=("non_dp", "dp"), seeds=(0,),
        privacy={"epsilons": [1e-4], "batch_size": 8, "steps": 500,
                 "max_degree": 3, "occurrence_bound": 7},
    )
    summary = run(manifest)
    assert summary["n_failures"] == 1
    assert summary["failed_cells"] == ["dp_eps0.0001_seed0"]
    ok = [c for c in summary["cells"] if "error" not in c]
    assert len(ok) == 1
    failed = json.loads((tmp_path / "res" / "cells" / "dp_eps0.0001_seed0.json").read_text())
    assert "CalibrationError" in failed["error"]


def count_graph_builds(monkeypatch, log_path, fail_seed=None):
    """Record every build_graph_for_cell call in a file (so builds made in a
    worker process count too); the build for ``fail_seed`` raises an
    exception that cannot be unpickled."""
    from dpgraphlab import experiments

    build = experiments.build_graph_for_cell

    def counting(manifest, seed):
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(f"{seed}\n")
        if seed == fail_seed:
            raise dg.CsvParseError("features.csv", 3, 2, "x")
        return build(manifest, seed)

    monkeypatch.setattr(experiments, "build_graph_for_cell", counting)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_builds_one_graph_per_seed(tmp_path, monkeypatch, threads):
    privacy = {"epsilons": [10.0], "batch_size": 8, "steps": 8, "max_degree": 3,
               "occurrence_bound": 7}
    manifest = tiny_manifest(tmp_path / "res", variants=("non_dp", "subgraphing", "dp"),
                             privacy=privacy)
    # oracle: each cell on a graph of its own
    want = [run_cell(manifest, v, e, s) for v, e, s in grid_cells(manifest)]
    log = tmp_path / "builds.txt"
    count_graph_builds(monkeypatch, log)
    got = run(manifest, threads=threads)
    assert sorted(log.read_text().split()) == ["0", "1"]
    assert got["n_cells"] == 6 and got["n_failures"] == 0
    for a, b in zip(want, got["cells"]):
        assert {**a, "runtime_sec": None} == {**b, "runtime_sec": None}


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_graph_build_fails_only_its_seed(tmp_path, monkeypatch, threads):
    log = tmp_path / "builds.txt"
    count_graph_builds(monkeypatch, log, fail_seed=1)
    summary = run(tiny_manifest(tmp_path / "res"), threads=threads)
    assert sorted(log.read_text().split()) == ["0", "1"]
    assert summary["failed_cells"] == ["non_dp_seed1", "subgraphing_seed1"]
    for cell in summary["cells"]:
        if cell["seed"] == 1:
            assert cell["error"] == ("CsvParseError: features.csv: non-numeric value 'x' "
                                     "at row 3, column 2")
        else:
            assert "error" not in cell and 0.0 <= cell["test_acc"] <= 1.0
    assert [row["n_seeds"] for row in summary["aggregate"]] == [1, 1]


def test_run_cell_evaluates_with_one_forward(tmp_path, monkeypatch):
    from dpgraphlab import experiments, training

    calls = {"normalize_adjacency": 0, "gcn_forward": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(training, name, counting(name, getattr(training, name)))

    manifest = tiny_manifest(tmp_path / "res", variants=("non_dp", "dp"),
                             privacy={"epsilons": [10.0], "batch_size": 8, "steps": 8,
                                      "max_degree": 3, "occurrence_bound": 7})
    for variant, epsilon in (("non_dp", None), ("dp", 10.0)):
        graph = experiments.build_graph_for_cell(manifest, 0)
        config = experiments.config_for_variant(manifest, variant, 0)
        spec = experiments.spec_for_cell(manifest, variant, epsilon,
                                         int(graph.train_mask.sum()), config.num_layers)
        calls.update(normalize_adjacency=0, gcn_forward=0)
        params, _ = dg.train(graph, config, spec)
        in_train = dict(calls)
        calls.update(normalize_adjacency=0, gcn_forward=0)
        cell = experiments.run_cell(manifest, variant, epsilon, 0)
        assert calls == {name: count + 1 for name, count in in_train.items()}
        assert cell["test_acc"] == dg.evaluate(graph, params, graph.test_mask)
        assert cell["train_acc"] == dg.evaluate(graph, params, graph.train_mask)
        assert cell["val_acc"] == dg.evaluate(graph, params, graph.val_mask)


def test_spec_for_cell_reads_the_manifest_keys(tmp_path):
    from dpgraphlab.experiments import config_for_variant, spec_for_cell

    model = {"num_layers": 3, "hidden_dim": 8, "steps": 12, "batch_size": 4, "max_degree": 2,
             "occurrence_bound": 5, "clip_norm": 0.5}
    privacy = {"epsilons": [5.0], "clip_norm": 2.0, "max_degree": 3, "hops": 1,
               "occurrence_bound": 4, "batch_size": 8, "steps": 30, "delta": 1e-4}
    from_model = dg.SubgraphSpec(clip_norm=0.5, max_degree=2, hops=3, occurrence_bound=5,
                                 batch_size=4, total_steps=12)

    def spec(variant, privacy, epsilon=None):
        manifest = ExperimentManifest.from_dict({"dataset": {"synthetic": {}}, "model": model,
                                                 "privacy": privacy, "seeds": [0],
                                                 "output_dir": str(tmp_path)})
        config = config_for_variant(manifest, variant, 0)
        assert config.num_layers == 3
        return spec_for_cell(manifest, variant, epsilon, 100, config.num_layers)

    no_norm = {k: v for k, v in privacy.items() if k != "clip_norm"}
    for variant in ("non_dp", "subgraphing"):  # the privacy block's norm is for clipping cells
        assert spec(variant, privacy) == from_model
    for variant in ("clipping", "subgraph_clip"):
        assert spec(variant, None) == from_model
        assert spec(variant, no_norm) == from_model
        assert spec(variant, privacy) == dataclasses.replace(from_model, clip_norm=2.0)
    assert spec("dp", privacy, 5.0) == dg.PrivacySpec(
        5.0, 1e-4, clip_norm=2.0, max_degree=3, hops=1, occurrence_bound=4, batch_size=8,
        total_steps=30)
    # a privacy block without the knobs gets the defaults, hops from the model
    assert spec("dp", {"epsilons": [5.0]}, 5.0) == dg.PrivacySpec(5.0, 1e-3, hops=3)


def test_run_cell_without_val_or_test_nodes(tmp_path):
    from dpgraphlab.experiments import run_cell

    manifest = tiny_manifest(tmp_path / "res", seeds=(0,))
    no_val = ExperimentManifest.from_dict(
        {**manifest.to_dict(), "split": {"train": 0.6, "val": 0.0, "test": 0.4, "seed": 0}})
    assert run_cell(no_val, "non_dp", None, 0)["val_acc"] is None
    no_test = ExperimentManifest.from_dict(
        {**manifest.to_dict(), "split": {"train": 0.6, "val": 0.4, "test": 0.0, "seed": 0}})
    with pytest.raises(ValueError, match="mask selects no nodes"):
        run_cell(no_test, "non_dp", None, 0)


def test_aggregate_matches_recomputation(tmp_path):
    manifest = tiny_manifest(tmp_path / "res", seeds=(0, 1, 2))
    summary = run(manifest)
    by_variant = {}
    for cell in summary["cells"]:
        by_variant.setdefault(cell["variant"], []).append(cell["test_acc"])
    for row in summary["aggregate"]:
        accs = np.asarray(by_variant[row["variant"]])
        assert row["mean_acc"] == pytest.approx(accs.mean(), abs=1e-9)
        assert row["std_acc"] == pytest.approx(accs.std(), abs=1e-9)


def test_dp_cell_logs_epsilon(tmp_path):
    manifest = tiny_manifest(
        tmp_path / "res", variants=("dp",), seeds=(0,),
        privacy={"epsilons": [10.0], "batch_size": 8, "steps": 8,
                 "max_degree": 3, "occurrence_bound": 7},
    )
    summary = run(manifest)
    assert summary["n_failures"] == 0
    cell = summary["cells"][0]
    assert cell["final_log"]["epsilon_spent"] <= 10.0


# ---------------------------------------------------------------- sweep / report

def test_spearman_hand_values():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3, 4], [1, 1, 2, 2]) == pytest.approx(spearman([1, 2, 3, 4], [0, 0, 5, 5]))
    assert spearman([0.5, 0.7, 0.9], [0.8, 0.8, 0.8]) == 0.0  # constant input


def test_sweep_homophily_outputs(tmp_path):
    manifest = tiny_manifest(tmp_path / "res", variants=("non_dp",), seeds=(0,))
    out = sweep_homophily(manifest, [0.6, 0.9])
    sweep_csv = (tmp_path / "res" / "sweep.csv").read_text().strip().split("\n")
    assert sweep_csv[0] == "homophily,variant,epsilon,mean_acc,std_acc"
    assert len(sweep_csv) == 3
    trend = json.loads((tmp_path / "res" / "trend.json").read_text())
    assert trend["homophilies"] == [0.6, 0.9]
    assert len(out["trends"]) == 1


def test_report_empty_dir(tmp_path):
    out = report(tmp_path)
    assert "no result cells" in out["text"]


def test_report_merges_cells(tmp_path):
    manifest = tiny_manifest(tmp_path / "res")
    run(manifest)
    out = report(tmp_path / "res")
    assert len(out["aggregate"]) == 2
    assert (tmp_path / "res" / "report.txt").exists()
    assert (tmp_path / "res" / "report.csv").exists()
    assert out["corrupt"] == []


def test_report_lists_corrupt_cells(tmp_path):
    manifest = tiny_manifest(tmp_path / "res")
    run(manifest)
    bad = tmp_path / "res" / "cells" / "broken.json"
    bad.write_text("{not json")
    out = report(tmp_path / "res")
    assert len(out["corrupt"]) == 1
    assert len(out["aggregate"]) == 2  # partial report still produced


# ---------------------------------------------------------------- cli

def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_accountant_json(capsys):
    code, out = run_cli(capsys, "accountant", "--sigma", "4.0", "--steps", "1",
                        "--n-train", "50", "-T", "1", "-m", "50", "--delta", "1e-5")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["epsilon_spent"] == pytest.approx(1.23089, abs=1e-4)
    assert payload["T"] == 1


def test_cli_accountant_supremum_power(capsys):
    code, out = run_cli(capsys, "accountant", "--sigma", "10", "--steps", "0",
                        "--n-train", "763", "-T", "6", "--epsilon", "5",
                        "--delta", "1.31e-4", "--fpr", "0.001,0.005,0.01")
    payload = json.loads(out)
    power = payload["supremum_power"]
    assert power["0.001"] == pytest.approx(0.1485, abs=5e-4)
    assert power["0.005"] == pytest.approx(0.7422, abs=5e-4)
    assert power["0.01"] == 1.0


def test_cli_accountant_rejects_zero_batch_size(capsys):
    with pytest.raises(ValueError, match="m must be >= 1"):
        run_cli(capsys, "accountant", "--sigma", "1", "--n-train", "100", "-T", "6", "-m", "0")


def test_cli_calibrate_json(capsys):
    code, out = run_cli(capsys, "calibrate", "--epsilon", "5", "--steps", "1000",
                        "--n-train", "560", "-T", "6", "-m", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == pytest.approx(30.94, abs=0.05)
    assert payload["epsilon_spent"] <= 5.0
    assert payload["delta"] == pytest.approx(1.79e-4, abs=1e-6)


def test_cli_gen_synthetic_and_build_graph(tmp_path, capsys):
    code, out = run_cli(capsys, "--seed", "3", "gen-synthetic", "--nodes", "60",
                        "--homophily", "0.8", "--k", "3", "--out", str(tmp_path / "g"))
    assert code == 0
    stats = json.loads(out)
    assert stats["num_nodes"] == 60
    assert (tmp_path / "g" / "features.csv").exists()
    assert (tmp_path / "g" / "edges.txt.json").exists()

    code, out = run_cli(capsys, "build-graph",
                        "--features", str(tmp_path / "g" / "features.csv"),
                        "--labels", str(tmp_path / "g" / "labels.csv"),
                        "--k", "3", "--out", str(tmp_path / "kg"))
    assert code == 0
    stats = json.loads(out)
    assert stats["num_nodes"] == 60
    assert (tmp_path / "kg" / "edges.txt").exists()


def test_cli_gen_synthetic_default_separation(tmp_path, capsys):
    code, _ = run_cli(capsys, "gen-synthetic", "--out", str(tmp_path / "d"))
    assert code == 0
    meta = json.loads((tmp_path / "d" / "edges.txt.json").read_text())
    assert meta["provenance"]["class_separation"] == dg.SyntheticSpec.class_separation == 1.6


def test_cli_train_and_report(tmp_path, capsys):
    manifest = tiny_manifest(tmp_path / "res").to_dict()
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    code, out = run_cli(capsys, "--manifest", str(mpath), "train")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_failures"] == 0
    code, out = run_cli(capsys, "report", "--results", str(tmp_path / "res"))
    assert code == 0
    assert "non_dp" in out


def test_cli_audit_subcommand(tmp_path, capsys):
    manifest = tiny_manifest(tmp_path / "res", variants=("non_dp",), seeds=(0,)).to_dict()
    manifest["model"]["epochs"] = 10
    manifest["audit"] = {"n_shadows": 24, "fpr_grid": [0.001, 0.005, 0.01]}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    code, out = run_cli(capsys, "audit", "--manifest", str(mpath))
    assert code == 0
    cell = json.loads((tmp_path / "res" / "cells" / "non_dp_seed0.json").read_text())
    assert cell["audit"]["n_shadows"] == 24
    assert "auc" in cell["audit"]
    assert (tmp_path / "res" / "roc_non_dp_seed0.csv").exists()


def test_cli_sweep_subcommand(tmp_path, capsys):
    manifest = tiny_manifest(tmp_path / "res", variants=("non_dp",), seeds=(0,)).to_dict()
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    code, out = run_cli(capsys, "sweep", "--manifest", str(mpath),
                        "--homophilies", "0.6,0.9")
    assert code == 0
    payload = json.loads(out)
    assert payload["homophilies"] == [0.6, 0.9]
    assert (tmp_path / "res" / "sweep.csv").exists()


def test_cli_train_nonzero_exit_on_failure(tmp_path, capsys):
    manifest = tiny_manifest(
        tmp_path / "res", variants=("dp",), seeds=(0,),
        privacy={"epsilons": [1e-4], "batch_size": 8, "steps": 500,
                 "max_degree": 3, "occurrence_bound": 7},
    ).to_dict()
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    code, _ = run_cli(capsys, "--manifest", str(mpath), "train")
    assert code == 1
