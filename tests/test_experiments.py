"""Manifest-driven grids, aggregation, reporting, and the CLI surface."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import dpgraphlab as dg
from dpgraphlab.attacks import AuditSpec
from dpgraphlab.cli import _print_json
from dpgraphlab.cli import main as cli_main
from dpgraphlab.experiments import (ExperimentManifest, ManifestError, aggregate,
                                    build_graph_for_cell, config_for_variant, grid_cells, report,
                                    run, run_cell, spearman, spec_for_cell, sweep_homophily,
                                    synthetic_benchmark_manifest)


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


@pytest.mark.parametrize("block,raw", [
    ("dataset", {"dataset": {"synthetic": {}, "note": "x"}}),
    ("synthetic", {"dataset": {"synthetic": {"seed": 3}}}),
    ("csv", {"dataset": {"csv": {"features": "x.csv", "labels": "y.csv", "delimiter": ";"}}}),
    ("split", {"split": {"train": 0.5, "val": 0.2, "test": 0.3, "shuffle": True}}),
    ("graph", {"graph": {"k": 5, "metric": "euclidean", "weighted": True}}),
    ("model", {"model": {"epochs": 5, "seed": 1}}),
    ("privacy", {"variants": ["dp"], "privacy": {"epsilons": [5], "clipnorm": 0.1}}),
    ("audit", {"audit": {"n_shadow": 16}}),
])
def test_manifest_rejects_keys_a_block_does_not_take(block, raw):
    # a misspelt or unread key fails at load instead of leaving its default in force
    with pytest.raises(ManifestError, match=f"unknown {block} keys"):
        ExperimentManifest.from_dict({"dataset": {"synthetic": {}}, "seeds": [0], **raw})


@pytest.mark.parametrize("block", ["split", "graph", "model", "privacy", "audit"])
@pytest.mark.parametrize("value", [[], "x", 3])
def test_manifest_block_that_is_not_an_object_is_a_usage_error(tmp_path, capsys, block, value):
    # a block must be a JSON object (privacy and audit may be null): a list
    # in its place exits 2 with the message, not with a traceback or silently
    raw = tiny_manifest(tmp_path / "res").to_dict()
    raw[block] = value
    with pytest.raises(ManifestError, match=f"^{block} must be a JSON object, not "):
        ExperimentManifest.from_dict(raw)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "train", "--manifest", str(path), "--out", str(tmp_path / "res"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {block} must be a JSON object" in err and "Traceback" not in err
    assert not (tmp_path / "res").exists()


def test_manifest_hash_stable():
    a = ExperimentManifest.from_dict({"dataset": {"synthetic": {}}, "seeds": [0]})
    b = ExperimentManifest.from_dict({"dataset": {"synthetic": {}}, "seeds": [0]})
    assert a.hash() == b.hash()
    c = ExperimentManifest.from_dict({"dataset": {"synthetic": {}}, "seeds": [1]})
    assert a.hash() != c.hash()


def test_benchmark_manifest_hash_is_pinned():
    # the manifest hash names a grid's outputs; the canonical grid has no
    # audit block, so its hash stays as it was
    assert synthetic_benchmark_manifest().hash() == "ebab7396e4a9d182"


def test_manifest_builds_its_audit_block_with_the_defaults_filled_in(tmp_path):
    manifest = dataclasses.replace(tiny_manifest(tmp_path), audit={"fpr_grid": [0.01]})
    assert manifest.audit == AuditSpec(n_shadows=128, seed_offset=10_000, fpr_grid=(0.01,))
    assert manifest.to_dict()["audit"] == {"n_shadows": 128, "seed_offset": 10_000,
                                           "fpr_grid": (0.01,)}
    # a manifest built from a loaded one (as a sweep's levels are) keeps the spec
    assert dataclasses.replace(manifest, seeds=(3,)).audit == manifest.audit
    assert ExperimentManifest.from_dict(manifest.to_dict()).hash() == manifest.hash()


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


def count_graph_builds(monkeypatch, log_path):
    """Record every build_graph_for_cell call in a file (so builds made in a
    worker process count too)."""
    from dpgraphlab import experiments

    build = experiments.build_graph_for_cell

    def counting(manifest, seed):
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(f"{seed}\n")
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


def unpaired_dp_audit_manifest(out):
    """The 60-node benchmark grid with one audited DP cell at m=28: its 34
    train nodes fit m, but its 18 test nodes are fewer, so its shadows'
    halves of the pool cannot hold the target's N."""
    raw = synthetic_benchmark_manifest(variants=("dp",), seeds=(0,), output_dir=str(out),
                                       audit={"n_shadows": 16}).to_dict()
    raw["dataset"]["synthetic"]["num_nodes"] = 60
    raw["privacy"]["batch_size"] = 28
    return ExperimentManifest.from_dict(raw)


UNPAIRED_DP_AUDIT = ("a DP audit needs n_test == n_train, so that each shadow trains on the "
                     "target's N: n_train=34, n_test=18")


def test_unpaired_dp_audit_trains_nothing_and_writes_nothing(tmp_path, monkeypatch):
    # run() checks each seed's DP audit split, n_test == n_train, before it
    # writes anything or trains a model
    from dpgraphlab import attacks, experiments

    trained = []

    def counting(train):
        def counted(*args, **kwargs):
            trained.append(args)
            return train(*args, **kwargs)
        return counted

    monkeypatch.setattr(experiments, "train", counting(experiments.train))
    monkeypatch.setattr(attacks, "_train_models", counting(attacks._train_models))
    with pytest.raises(dg.AuditSetupError) as exc:
        run(unpaired_dp_audit_manifest(tmp_path / "res"), do_audit=True)
    assert str(exc.value) == UNPAIRED_DP_AUDIT
    assert trained == []
    assert not (tmp_path / "res").exists()


def test_audited_cells_equal_the_target_first_order(tmp_path):
    # an audited cell trains its shadows before its target; each training
    # draws only from its own seeded streams, so every audit block equals the
    # one of the target trained first and the shadows after it.  The split
    # has n_test == n_train, as a DP audit needs.
    manifest = dataclasses.replace(
        tiny_manifest(tmp_path / "res", variants=("non_dp", "dp"), seeds=(0,),
                      privacy={"epsilons": [10.0], "batch_size": 8, "steps": 8,
                               "max_degree": 3, "occurrence_bound": 7}),
        audit={"n_shadows": 16}, split={"train": 0.4, "val": 0.2, "test": 0.4, "seed": 0})
    summary = run(manifest, do_audit=True)
    assert summary["n_failures"] == 0
    for cell, (variant, epsilon, seed) in zip(summary["cells"], grid_cells(manifest)):
        graph = build_graph_for_cell(manifest, seed)
        config = config_for_variant(manifest, variant, seed)
        spec = spec_for_cell(manifest, variant, epsilon, int(graph.train_mask.sum()),
                             config.num_layers)
        params, log = dg.train(graph, config, spec)
        ensemble = dg.train_shadows(graph, config, spec, 16, seed + 10_000)
        expected = dg.audit(params, graph, config, 16, seed + 10_000, spec,
                            model_variant=cell["cell"], ensemble=ensemble)
        assert cell["final_log"] == log[-1]
        assert cell["audit"] == expected.to_json()


# ---------------------------------------------------------------- sweep / report

def test_spearman_hand_values():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3, 4], [1, 1, 2, 2]) == pytest.approx(spearman([1, 2, 3, 4], [0, 0, 5, 5]))
    assert spearman([0.5, 0.7, 0.9], [0.8, 0.8, 0.8]) == 0.0  # constant input


def test_sweep_homophily_outputs(tmp_path):
    manifest = tiny_manifest(tmp_path / "res", variants=("non_dp",), seeds=(0,))
    out = sweep_homophily(manifest, (h for h in (0.6, 0.9)))  # any iterable of levels
    sweep_csv = (tmp_path / "res" / "sweep.csv").read_text().strip().split("\n")
    assert sweep_csv[0] == "homophily,variant,epsilon,mean_acc,std_acc"
    assert len(sweep_csv) == 3
    trend = json.loads((tmp_path / "res" / "trend.json").read_text())
    assert trend["homophilies"] == [0.6, 0.9]
    assert len(out["trends"]) == 1


def test_run_on_a_csv_dataset(tmp_path):
    # a csv source: load_csv, then the graph block's k-NN build, then the split
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1], 20)
    features = rng.normal(size=(40, 3)) + 2.0 * labels[:, None]
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, features, delimiter=",", header="a,b,c", comments="")
    np.savetxt(y, labels, fmt="%d", header="label", comments="")
    manifest = ExperimentManifest.from_dict({
        "dataset": {"csv": {"features": str(x), "labels": str(y), "skip_header": True}},
        "graph": {"k": 3, "metric": "cosine"},
        "split": {"train": 0.5, "val": 0.2, "test": 0.3, "seed": 4},
        "model": {"epochs": 5, "hidden_dim": 8},
        "seeds": [1],
        "output_dir": str(tmp_path / "res"),
    })
    # a partial graph or split block takes the defaults for the keys it leaves out
    partial = ExperimentManifest.from_dict({**manifest.to_dict(), "graph": {"k": 3},
                                            "split": {"seed": 4}})
    for m, metric, split in ((partial, "euclidean", dg.SplitSpec(0.56, 0.14, 0.30, seed=5)),
                             (manifest, "cosine", dg.SplitSpec(0.5, 0.2, 0.3, seed=5))):
        want = dg.assign_splits(
            dg.build_knn_graph(dg.load_csv(x, y, skip_header=True), 3, metric), split)
        graph = build_graph_for_cell(m, 1)
        for name in ("features", "labels", "indptr", "indices", "train_mask", "val_mask",
                     "test_mask"):
            np.testing.assert_array_equal(getattr(graph, name), getattr(want, name))
    summary = run(manifest)
    assert summary["n_failures"] == 0
    cell = summary["cells"][0]
    assert cell["cell"] == "non_dp_seed1"
    assert cell["graph"] == {"num_nodes": 40, "n_train": int(want.train_mask.sum()),
                             "edge_homophily": dg.edge_homophily(want)}


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


def test_report_bound_vs_empirical_table(tmp_path):
    # an audited DP cell's TPR against its power bound, one row per FPR budget
    # in FPR order; an audited non-DP cell has no bound and no row
    cells = tmp_path / "res" / "cells"
    cells.mkdir(parents=True)
    dp_cell = {"cell": "dp_eps5_seed0", "variant": "dp", "epsilon": 5, "seed": 0,
               "test_acc": 0.75, "audit": {"tpr": {"0.01": 0.05, "0.001": 0.0125},
                                           "supremum_power": {"0.01": 1.0, "0.001": 0.14851}}}
    non_dp_cell = {"cell": "non_dp_seed0", "variant": "non_dp", "epsilon": None, "seed": 0,
                   "test_acc": 0.5, "audit": {"tpr": {"0.01": 0.5}}}
    (cells / "dp_eps5_seed0.json").write_text(json.dumps(dp_cell))
    (cells / "non_dp_seed0.json").write_text(json.dumps(non_dp_cell))
    out = report(tmp_path / "res")
    assert out["bound_rows"] == [
        {"cell": "dp_eps5_seed0", "epsilon": 5, "fpr": 0.001, "tpr": 0.0125,
         "supremum_power": 0.14851},
        {"cell": "dp_eps5_seed0", "epsilon": 5, "fpr": 0.01, "tpr": 0.05, "supremum_power": 1.0},
    ]
    assert (tmp_path / "res" / "bound_vs_empirical.csv").read_text() == (
        "cell,epsilon,fpr,tpr,supremum_power\n"
        "dp_eps5_seed0,5,0.001,0.012500,0.148510\n"
        "dp_eps5_seed0,5,0.01,0.050000,1.000000\n")
    table = out["text"].split("\n\n")[1].splitlines()
    assert table == ["cell".ljust(24) + "fpr".rjust(8) + "tpr".rjust(10) + "power bound".rjust(13),
                     "dp_eps5_seed0".ljust(24) + "0.001".rjust(8) + "0.0125".rjust(10)
                     + "0.1485".rjust(13),
                     "dp_eps5_seed0".ljust(24) + "0.01".rjust(8) + "0.0500".rjust(10)
                     + "1.0000".rjust(13)]
    assert (tmp_path / "res" / "report.csv").read_text() == (
        "variant,epsilon,mean_acc,std_acc,n_seeds\n"
        "dp,5,0.750000,0.000000,1\n"
        "non_dp,,0.500000,0.000000,1\n")


def test_report_lists_corrupt_cells(tmp_path):
    manifest = tiny_manifest(tmp_path / "res")
    run(manifest)
    cells = tmp_path / "res" / "cells"
    (cells / "broken.json").write_text("{not json")
    # JSON that is not a cell: not an object, an object without test_acc,
    # a test_acc that is no number, and a power bound without its TPRs
    (cells / "list.json").write_text("[]")
    (cells / "no_acc.json").write_text('{"variant": "dp", "epsilon": 5.0}')
    head = {"cell": "dp_eps5_seed9", "variant": "dp", "epsilon": 5.0}
    (cells / "high.json").write_text(json.dumps({**head, "test_acc": "high"}))
    (cells / "no_tpr.json").write_text(json.dumps(
        {**head, "test_acc": 0.5, "audit": {"supremum_power": {"0.01": 0.2}}}))
    out = report(tmp_path / "res")
    errors = {Path(c["file"]).name: c["error"] for c in out["corrupt"]}
    assert list(errors) == ["broken.json", "high.json", "list.json", "no_acc.json",
                            "no_tpr.json"]
    assert errors["high.json"] == "not a cell: test_acc is 'high', not a number"
    assert errors["list.json"] == "not a cell: a JSON list, not an object"
    assert errors["no_acc.json"] == "not a cell: no cell, test_acc"
    assert errors["no_tpr.json"] == ("not a cell: the audit has supremum_power but no tpr at "
                                     "fpr 0.01")
    assert len(out["aggregate"]) == 2 and out["bound_rows"] == []  # partial report still produced
    text = (tmp_path / "res" / "report.txt").read_text()
    assert "unreadable cell files: 5" in text and "list.json: not a cell" in text


def test_report_of_unreadable_cells_alone_starts_with_them(tmp_path):
    cells = tmp_path / "res" / "cells"
    cells.mkdir(parents=True)
    (cells / "a.json").write_text("[]")
    out = report(tmp_path / "res")
    assert out["text"] == (f"unreadable cell files: 1\n  {cells / 'a.json'}: "
                           "not a cell: a JSON list, not an object\n")
    assert (tmp_path / "res" / "report.txt").read_text() == out["text"]


def test_report_keeps_each_grid_of_a_sweep_apart(tmp_path):
    # a sweep's levels are two grids on two graphs; a report over the sweep
    # directory pools neither their rows nor their bound rows, and names the grid
    manifest = tiny_manifest(tmp_path / "res", variants=("non_dp",))
    sweep_homophily(manifest, [0.5, 0.9])
    single = report(tmp_path / "res" / "h0.5")  # one grid: no grid column
    out = report(tmp_path / "res")
    assert [(r["grid"], r["variant"], r["n_seeds"]) for r in out["aggregate"]] == [
        ("h0.5", "non_dp", 2), ("h0.9", "non_dp", 2)]
    assert out["aggregate"][0] == {"grid": "h0.5", **single["aggregate"][0]}
    csv_lines = (tmp_path / "res" / "report.csv").read_text().splitlines()
    assert csv_lines[0] == "grid,variant,epsilon,mean_acc,std_acc,n_seeds"
    assert [line.split(",")[0] for line in csv_lines[1:]] == ["h0.5", "h0.9"]
    text = out["text"].splitlines()
    assert text[0].startswith("grid  variant") and text[1].startswith("h0.5  non_dp")
    assert text[1][len("h0.5  "):] == single["text"].splitlines()[1]
    for level in ("h0.5", "h0.9"):  # the same bound row at each level stays two rows
        cell = tmp_path / "res" / level / "cells" / "non_dp_seed0.json"
        blob = json.loads(cell.read_text())
        blob["audit"] = {"tpr": {"0.01": 0.5}, "supremum_power": {"0.01": 1.0}}
        cell.write_text(json.dumps(blob))
    out = report(tmp_path / "res")
    assert [(r["grid"], r["cell"]) for r in out["bound_rows"]] == [
        ("h0.5", "non_dp_seed0"), ("h0.9", "non_dp_seed0")]
    assert (tmp_path / "res" / "bound_vs_empirical.csv").read_text().splitlines()[0] == (
        "grid,cell,epsilon,fpr,tpr,supremum_power")


def test_report_names_a_missing_results_directory(tmp_path):
    with pytest.raises(FileNotFoundError, match="no results directory .*missing"):
        report(tmp_path / "missing")
    assert not (tmp_path / "missing").exists()


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
    # the power is read at the epsilon this sigma spends (about 947 here)
    code, out = run_cli(capsys, "accountant", "--sigma", "1", "--n-train", "560",
                        "-T", "6", "-m", "64", "--fpr", "0,0.01")
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon_target"] is None
    assert payload["supremum_power"] == {"0": 1 / 5600, "0.01": 1.0}
    assert payload["supremum_power"]["0"] == payload["delta"]
    assert capsys.readouterr().err == ""


def test_one_claim_read_by_training_calibrate_and_accountant(capsys):
    # the DP log, calibrate and accountant read one claim record: the
    # calibrated sigma and epsilon spent of one spec and n_train agree to the bit
    g = dg.assign_splits(dg.generate_synthetic(dg.SyntheticSpec(num_nodes=80, seed=0)),
                         dg.SplitSpec(0.5, 0.2, 0.3, seed=1))
    n_train = int(g.train_mask.sum())
    dp = dg.PrivacySpec(epsilon_target=3.0, delta=1e-3, clip_norm=0.5, max_degree=3,
                        occurrence_bound=4, batch_size=8, total_steps=30)
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True, hidden_dim=8,
                         eval_every=10)
    _, log = dg.train(g, cfg, dp)
    spec_args = ("--steps", "30", "--n-train", str(n_train), "-T", "4", "-m", "8", "-K", "3",
                 "--clip-norm", "0.5", "--delta", "1e-3")
    _, out = run_cli(capsys, "calibrate", "--epsilon", "3", *spec_args)
    calibrated = json.loads(out)
    assert (calibrated["sigma"], calibrated["epsilon_spent"]) == (
        log[-1]["sigma"], log[-1]["epsilon_spent"])
    _, out = run_cli(capsys, "accountant", "--sigma", repr(calibrated["sigma"]), *spec_args)
    at_sigma = json.loads(out)
    assert (at_sigma["epsilon_spent"], at_sigma["order_argmin"]) == (
        calibrated["epsilon_spent"], calibrated["order_argmin"])


def test_cli_accountant_rejects_zero_batch_size(capsys):
    # a usage error: exit code 2 and the accountant's message, no traceback
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "accountant", "--sigma", "1", "--n-train", "100", "-T", "6", "-m", "0")
    assert exc.value.code == 2
    assert "batch_size must be an integer >= 1, not 0" in capsys.readouterr().err


def test_cli_calibrate_rejects_zero_occurrence_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "calibrate", "--epsilon", "5", "--n-train", "100", "-T", "0")
    assert exc.value.code == 2
    assert "occurrence_bound must be an integer >= 1, not 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (("accountant", "--sigma", "1", "--n-train", "100", "-T", "6", "--delta", "2"),
     "delta must lie in (0, 1)"),
    (("accountant", "--sigma", "-1", "--n-train", "100", "-T", "6"), "sigma must be positive"),
    (("accountant", "--sigma", "1", "--n-train", "100", "-T", "6", "--steps", "-1"),
     "total_steps must be an integer >= 0, not -1"),
    (("accountant", "--sigma", "1", "--n-train", "100", "-T", "200"),
     "T=200 and m=64 must not exceed N=100"),
    (("accountant", "--sigma", "1", "--n-train", "100", "-T", "6", "--fpr", "2"),
     "fpr must lie in [0, 1]"),
    (("calibrate", "--epsilon", "5", "--n-train", "100", "-T", "6", "--delta", "0"),
     "delta must lie in (0, 1)"),
])
def test_cli_accountant_out_of_range_is_usage_error(capsys, argv, message):
    # the accountant's own range checks, reported as a usage error: exit code 2
    # and the message on stderr, no traceback
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("train",), ("accountant", "--n-train", "100", "-T", "6"),
                                  ("calibrate", "--n-train", "100", "-T", "6")])
def test_cli_missing_required_value_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    expected = {"train": "--manifest", "accountant": "--sigma", "calibrate": "--epsilon"}[argv[0]]
    err = capsys.readouterr().err
    assert expected in err and "required" in err


@pytest.mark.parametrize("argv,message", [
    (("accountant", "--sigma", "nan", "--n-train", "100", "-T", "6"), "sigma must be positive"),
    (("calibrate", "--epsilon", "nan", "--n-train", "100", "-T", "6"),
     "epsilon_target must be positive"),
    (("calibrate", "--epsilon", "5", "--sigma", "123", "--n-train", "100", "-T", "6"),
     "unrecognized arguments: --sigma 123"),
    (("accountant", "--sigma", "1", "--n-train", "100", "-T", "6", "--clip-norm", "-1"),
     "clip_norm must be positive"),
    (("accountant", "--sigma", "1", "--n-train", "100", "-T", "6", "-K", "0"),
     "max_degree must be an integer >= 1, not 0"),
    (("calibrate", "--epsilon", "5", "--n-train", "100", "-T", "6", "--clip-norm", "inf"),
     "clip_norm must be finite"),
])
def test_cli_rejects_nan_unknown_flags_and_unchecked_settings(capsys, argv, message):
    # NaN, a flag the command does not take, and C or K that SubgraphSpec
    # rejects are usage errors: exit code 2 and the message on stderr
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("accountant", "--sigma", "1", "--n-train", "100", "-T", "6", "--manifest", "m.json"),
    ("calibrate", "--epsilon", "5", "--n-train", "100", "-T", "6", "--seed", "3"),
    ("build-graph", "--features", "x.csv", "--labels", "y.csv", "--threads", "2"),
    ("report", "--results", "res", "--out", "o"),
])
def test_cli_rejects_flags_the_subcommand_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _bad_csv(tmp_path):
    """A features CSV with a non-numeric value at row 2, column 1, and its labels."""
    (tmp_path / "x.csv").write_text("1,2\nx,3\n")
    (tmp_path / "y.csv").write_text("0\n1\n")
    return {"features": str(tmp_path / "x.csv"), "labels": str(tmp_path / "y.csv")}


def _small_csv(tmp_path):
    """A valid 10-row, two-class features CSV and its labels."""
    rows = np.arange(20.0).reshape(10, 2) % 7
    np.savetxt(tmp_path / "x10.csv", rows, delimiter=",")
    np.savetxt(tmp_path / "y10.csv", np.arange(10) % 2, fmt="%d")
    return {"features": str(tmp_path / "x10.csv"), "labels": str(tmp_path / "y10.csv")}


def _csv_rows(tmp_path, n):
    """A valid ``n``-row, two-class features CSV and its labels."""
    rows = np.random.default_rng(0).normal(size=(n, 3))
    np.savetxt(tmp_path / f"x{n}.csv", rows, delimiter=",")
    np.savetxt(tmp_path / f"y{n}.csv", np.arange(n) % 2, fmt="%d")
    return {"features": str(tmp_path / f"x{n}.csv"), "labels": str(tmp_path / f"y{n}.csv")}


def _two_column_labels_csv(tmp_path):
    """The 10-row CSV of ``_small_csv``, whose labels rows read ``0,7``."""
    csv = _small_csv(tmp_path)
    with open(csv["labels"], "w", encoding="utf-8") as fh:
        fh.writelines(f"{i % 2},7\n" for i in range(10))
    return csv


def _manifest_file(tmp_path, edit=lambda manifest: None):
    """A 60-node, two-seed non_dp + dp grid writing to tmp_path / "res", as a
    JSON file, after ``edit`` has changed its dict in place."""
    manifest = tiny_manifest(tmp_path / "res", variants=("non_dp", "dp"),
                             privacy={"epsilons": [10.0], "batch_size": 8, "steps": 8,
                                      "max_degree": 3, "occurrence_bound": 7}).to_dict()
    edit(manifest)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    return str(tmp_path / "m.json")


def _csv_knn_manifest(tmp_path, k):
    """``_manifest_file`` on a 60-row CSV dataset whose kNN graph has ``k``."""
    return _manifest_file(tmp_path, lambda m: m.update(dataset={"csv": _csv_rows(tmp_path, 60)},
                                                       graph={"k": k}))


@pytest.mark.parametrize("make_argv,message", [
    (lambda t: ("--manifest", _manifest_file(t), "train"),
     "--manifest is given before the subcommand; flags go after the subcommand's name"),
    (lambda t: ("--seed=3", "gen-synthetic", "--out", str(t / "res")),
     "--seed is given before the subcommand"),
    (lambda t: ("gen-synthetic", "--nodes", "7", "--out", str(t / "g")),
     "num_nodes must be even"),
    (lambda t: ("gen-synthetic", "--nodes", "-2", "--out", str(t / "res")),
     "num_nodes must be an integer >= 2, not -2"),
    (lambda t: ("gen-synthetic", "--nodes", "0", "--out", str(t / "res")),
     "num_nodes must be an integer >= 2, not 0"),
    (lambda t: ("train", "--manifest", str(t / "missing.json")), "missing.json"),
    (lambda t: ("build-graph", "--features", _bad_csv(t)["features"], "--labels", str(t / "y.csv")),
     "non-numeric value 'x' at row 2, column 1"),
    (lambda t: ("report", "--results", str(t / "missing")), "no results directory"),
    (lambda t: ("train", "--manifest",
                _manifest_file(t, lambda m: m.update(audit={"n_shadow": 16}))),
     "unknown audit keys ['n_shadow']"),
    (lambda t: ("audit", "--manifest", _manifest_file(t)), "manifest has no audit block"),
    # the power line is read at the epsilon spent, so accountant takes no
    # epsilon and no second form of the line
    (lambda t: ("accountant", "--sigma", "30", "--n-train", "560", "-T", "6",
                "--epsilon", "nan"), "unrecognized arguments: --epsilon nan"),
    (lambda t: ("accountant", "--sigma", "30", "--n-train", "560", "-T", "6",
                "--epsilon", "-3", "--fpr", "0.01"), "unrecognized arguments: --epsilon -3"),
    (lambda t: ("accountant", "--sigma", "30", "--n-train", "560", "-T", "6",
                "--fpr", "0.01", "--tight"), "unrecognized arguments: --tight"),
    # a grid's input is checked whole before its first cell runs
    (lambda t: ("train", "--manifest",
                _manifest_file(t, lambda m: m["dataset"]["synthetic"].update(num_nodes=61))),
     "num_nodes must be even"),
    (lambda t: ("sweep", "--manifest", _manifest_file(t), "--homophilies", "0.5,1.5"),
     "target_homophily must lie in [0, 1]"),
    (lambda t: ("train", "--manifest", _manifest_file(t, lambda m: m.update(seeds=[0, -1]))),
     "seed must be an integer >= 0, not -1"),
    (lambda t: ("train", "--manifest", _manifest_file(t, lambda m: m.update(seeds=[0, 1.5]))),
     "seed must be an integer >= 0, not 1.5"),
    (lambda t: ("train", "--manifest", _manifest_file(t, lambda m: m["split"].update(seed="x"))),
     "split seed must be an integer >= 0, not 'x'"),
    (lambda t: ("train", "--manifest",
                _manifest_file(t, lambda m: m["privacy"].update(epsilons=[0]))),
     "epsilon_target must be positive"),
    (lambda t: ("train", "--manifest", _manifest_file(t, lambda m: m["privacy"].update(delta=0))),
     "delta must lie in (0, 1)"),
    (lambda t: ("train", "--manifest",
                _manifest_file(t, lambda m: m.update(dataset={"csv": _bad_csv(t)}))),
     "non-numeric value 'x' at row 2, column 1"),
    # a DP cell's batch and occurrence bound must fit n_train: 30 of the
    # 60-node synthetic graph and 5 of a 10-row CSV, checked once the grid's
    # graphs are built
    (lambda t: ("train", "--manifest",
                _manifest_file(t, lambda m: m["privacy"].update(batch_size=64))),
     "DP cells train on n_train=30 subgraphs: T=7 and m=64 must not exceed N=30"),
    (lambda t: ("sweep", "--manifest",
                _manifest_file(t, lambda m: m["privacy"].update(occurrence_bound=31))),
     "DP cells train on n_train=30 subgraphs: T=31 and m=8 must not exceed N=30"),
    (lambda t: ("train", "--manifest",
                _manifest_file(t, lambda m: m.update(dataset={"csv": _small_csv(t)}))),
     "DP cells train on n_train=5 subgraphs: T=7 and m=8 must not exceed N=5"),
    (lambda t: ("audit", "--manifest",
                _manifest_file(t, lambda m: m.update(audit={"n_shadows": 8}))),
     "audit n_shadows must be an integer >= 16, not 8"),
    (lambda t: ("audit", "--manifest",
                _manifest_file(t, lambda m: m.update(audit={"n_shadows": None}))),
     "audit n_shadows must be an integer >= 16, not None"),
    (lambda t: ("audit", "--manifest",
                _manifest_file(t, lambda m: m.update(audit={"seed_offset": 0.5}))),
     "audit seed_offset must be an integer >= 0, not 0.5"),
    (lambda t: ("audit", "--manifest",
                _manifest_file(t, lambda m: m.update(audit={"seed_offset": "x"}))),
     "audit seed_offset must be an integer >= 0, not 'x'"),
    (lambda t: ("audit", "--manifest",
                _manifest_file(t, lambda m: m.update(audit={"seed_offset": True}))),
     "audit seed_offset must be an integer >= 0, not True"),
    (lambda t: ("audit", "--manifest",
                _manifest_file(t, lambda m: m.update(audit={"fpr_grid": [2.0]}))),
     "audit fpr_grid must be a nonempty list of numbers in [0, 1], not [2.0]"),
    (lambda t: ("audit", "--manifest",
                _manifest_file(t, lambda m: m.update(audit={"fpr_grid": []}))),
     "audit fpr_grid must be a nonempty list of numbers in [0, 1], not []"),
    (lambda t: ("audit", "--manifest",
                _manifest_file(t, lambda m: m.update(audit={"fpr_grid": ["0.01"]}))),
     "audit fpr_grid must be a nonempty list of numbers in [0, 1], not ['0.01']"),
    # the checks that need a seed's graph run once its graphs are built, for
    # a synthetic and a CSV dataset alike, before anything is written
    (lambda t: ("audit", "--manifest", _manifest_file(
        t, lambda m: m.update(unpaired_dp_audit_manifest(t / "res").to_dict()))),
     UNPAIRED_DP_AUDIT),
    (lambda t: ("audit", "--manifest", _manifest_file(
        t, lambda m: m.update(unpaired_dp_audit_manifest(t / "res").to_dict(),
                              dataset={"csv": _csv_rows(t, 60)}))),
     UNPAIRED_DP_AUDIT),
    (lambda t: ("train", "--manifest", _manifest_file(
        t, lambda m: m.update(split={"train": 0.7, "val": 0.3, "test": 0.0, "seed": 0}))),
     "seed 0's graph has no test nodes"),
    (lambda t: ("train", "--manifest", _manifest_file(
        t, lambda m: m.update(variants=["non_dp"],
                              split={"train": 0.0, "val": 0.5, "test": 0.5, "seed": 0}))),
     "seed 0's graph has no train nodes"),
    (lambda t: ("train", "--manifest", _manifest_file(t), "--threads", "0"),
     "threads must be an integer >= 1, not 0"),
    (lambda t: ("sweep", "--manifest", _manifest_file(t), "--threads", "-3"),
     "threads must be an integer >= 1, not -3"),
    (lambda t: ("build-graph", *(f"--{k}={v}" for k, v in _two_column_labels_csv(t).items())),
     "y10.csv: row 1 has 2 columns, expected 1"),
    (lambda t: ("train", "--manifest", _manifest_file(
        t, lambda m: m.update(dataset={"csv": _two_column_labels_csv(t)}))),
     "y10.csv: row 1 has 2 columns, expected 1"),
    # a dataset or split value of the wrong kind is rejected at load
    (lambda t: ("train", "--manifest",
                _manifest_file(t, lambda m: m["dataset"]["synthetic"].update(num_nodes=60.0))),
     "num_nodes must be an integer >= 2, not 60.0"),
    (lambda t: ("train", "--manifest",
                _manifest_file(t, lambda m: m["dataset"]["synthetic"].update(feat_dim=2.5))),
     "feat_dim must be an integer >= 1, not 2.5"),
    (lambda t: ("train", "--manifest", _manifest_file(
        t, lambda m: m["dataset"]["synthetic"].update(target_homophily="0.8"))),
     "target_homophily must be a number, not '0.8'"),
    (lambda t: ("train", "--manifest",
                _manifest_file(t, lambda m: m["split"].update(train="0.5"))),
     "split train_fraction must be a number, not '0.5'"),
    # a CSV dataset's kNN k is checked when its graph is built, before any write
    (lambda t: ("train", "--manifest", _csv_knn_manifest(t, 2.5)),
     "k must be an integer >= 1, not 2.5"),
    (lambda t: ("train", "--manifest", _csv_knn_manifest(t, "5")),
     "k must be an integer >= 1, not '5'"),
    (lambda t: ("train", "--manifest", _csv_knn_manifest(t, True)),
     "k must be an integer >= 1, not True"),
], ids=["prefix-flag", "prefix-flag-with-value", "odd-nodes", "negative-nodes", "zero-nodes",
        "missing-manifest", "bad-csv", "missing-results",
        "unknown-block-key", "no-audit-block", "epsilon-nan", "epsilon-negative", "tight",
        "grid-odd-nodes", "sweep-homophily-out-of-range", "grid-negative-seed",
        "grid-fractional-seed", "grid-string-split-seed", "grid-zero-epsilon", "grid-zero-delta", "grid-bad-csv",
        "grid-dp-batch-above-n-train", "sweep-dp-occurrence-bound-above-n-train",
        "grid-csv-dp-batch-above-n-train", "audit-too-few-shadows", "audit-null-shadows",
        "audit-fractional-seed-offset", "audit-string-seed-offset", "audit-bool-seed-offset",
        "audit-fpr-above-one", "audit-empty-fpr-grid", "audit-string-fpr",
        "audit-unpaired-dp", "audit-csv-unpaired-dp",
        "grid-empty-test-split", "grid-non-dp-empty-train-split", "grid-zero-threads",
        "sweep-negative-threads", "two-column-labels", "grid-two-column-labels",
        "grid-fractional-num-nodes", "grid-fractional-feat-dim", "grid-string-homophily",
        "grid-string-train-split", "grid-csv-fractional-k", "grid-csv-string-k",
        "grid-csv-bool-k"])
def test_cli_rejected_input_is_usage_error(tmp_path, capsys, make_argv, message):
    # every subcommand reports a rejected flag, value, file or manifest the
    # same way: exit code 2 and the message on stderr, no traceback, and
    # nothing written
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *make_argv(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err and "Traceback" not in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("block, key, value, message", [
    ("model", "max_degree", 2.5, "max_degree must be an integer >= 1, not 2.5"),
    ("model", "eval_every", 2.5, "eval_every must be an integer >= 1, not 2.5"),
    ("model", "hidden_dim", 0, "hidden_dim must be an integer >= 1, not 0"),
    ("model", "hidden_dim", 2.5, "hidden_dim must be an integer >= 1, not 2.5"),
    ("model", "epochs", 1.5, "epochs must be an integer >= 0, not 1.5"),
    ("model", "num_layers", 2.5, "num_layers must be an integer >= 1, not 2.5"),
    ("model", "learning_rate", "0.1", "learning_rate must be a number, not '0.1'"),
    ("model", "learning_rate", float("inf"), "learning_rate must be finite and nonnegative"),
    ("model", "clip_norm", "1", "clip_norm must be a number, not '1'"),
    ("privacy", "steps", 2.5, "total_steps must be an integer >= 0, not 2.5"),
    ("privacy", "batch_size", 2.5, "batch_size must be an integer >= 1, not 2.5"),
    ("privacy", "occurrence_bound", 2.5, "occurrence_bound must be an integer >= 1, not 2.5"),
    ("privacy", "hops", 2.5, "hops must be an integer >= 1, not 2.5"),
    ("privacy", "clip_norm", "1", "clip_norm must be a number, not '1'"),
])
def test_grid_setting_of_the_wrong_kind_is_usage_error(tmp_path, capsys, block, key, value,
                                                       message):
    # a fraction where a count goes, a string where a number goes, or an
    # infinite learning rate fails the manifest's load: exit code 2, the
    # message on stderr and nothing written, not a failure of every cell
    manifest = _manifest_file(tmp_path, lambda m: m[block].update({key: value}))
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "train", "--manifest", manifest)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "res").exists()


def test_size_rule_reads_the_same_from_every_caller(tmp_path, capsys):
    # max(m, T) <= N has one home, the accountant's: the accountant command
    # and a grid's run() each put their own context before its message (a DP
    # audit's shadows train on the target's N, so its rule is the target's)
    with pytest.raises(SystemExit):
        run_cli(capsys, "accountant", "--sigma", "1", "--n-train", "30", "-T", "7", "-m", "40")
    assert capsys.readouterr().err.endswith(
        "dpgraphlab: error: T=7 and m=40 must not exceed N=30\n")
    with pytest.raises(ManifestError) as exc:
        run(ExperimentManifest.from_file(
            _manifest_file(tmp_path, lambda m: m["privacy"].update(batch_size=40))))
    assert str(exc.value) == ("DP cells train on n_train=30 subgraphs: "
                              "T=7 and m=40 must not exceed N=30")


@pytest.mark.parametrize("argv, parts", [
    (("calibrate", "--epsilon", "0.0001", "--steps", "1000", "--n-train", "560", "-T", "6",
      "-m", "64"), ("error: epsilon target ", "unreachable")),
    (("calibrate", "--epsilon", "5", "--steps", "1000", "--n-train", "560", "-T", "6", "-m", "64",
      "--delta", "1e-320"),
     ("error: delta=1e-320 is too small: 1/delta overflows, so no epsilon is finite\n",)),
], ids=["tiny-epsilon", "subnormal-delta"])
def test_cli_calibrate_unreachable_target_is_usage_error(capsys, argv, parts):
    # no sigma in the search range meets the target, or a delta admits no
    # finite epsilon at any sigma, which names the delta: a usage error, exit
    # code 2 and the message on stderr, not a traceback and exit code 1
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert all(part in err for part in parts) and "Traceback" not in err


ACCOUNTANT_SETUP = ("--n-train", "560", "-T", "6", "-m", "64")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (("--sigma", "1", "--delta", "1e-320"),
     "delta=1e-320 is too small: 1/delta overflows, so no epsilon is finite"),
    (("--sigma", "1", "--delta", "1e-320", "--fpr", "0.01"),
     "delta=1e-320 is too small: 1/delta overflows, so no epsilon is finite"),
    (("--sigma", "1e-160"), "sigma=1e-160 is too small: the per-step cost overflows at "
                            "every order"),
    (("--sigma", "1e-200"), "sigma=1e-200 is too small: 2 sigma**2 underflows to 0"),
    (("--sigma", "1e-153"), "epsilon overflows at steps=1000: the accountant's sigma is too "
                            "small for this many steps"),
], ids=["subnormal-delta", "subnormal-delta-fpr", "sigma-cost-overflow", "sigma-underflow",
        "steps-overflow"])
def test_cli_accountant_never_prints_a_non_finite_epsilon(capsys, argv, message):
    # a sigma or delta whose epsilon is not finite is a usage error that
    # names its cause: exit code 2, nothing on stdout and no numpy warning
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "accountant", *argv, *ACCOUNTANT_SETUP)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: {message}\n")


@pytest.mark.filterwarnings("error")
def test_cli_accountant_prints_a_finite_epsilon_at_an_extreme_sigma(capsys):
    # at sigma 1e-153 the cost overflows at the high orders only: one step
    # spends a finite epsilon, read at the lowest order, with no warning
    code, out = run_cli(capsys, "accountant", "--sigma", "1e-153", "--steps", "1",
                        *ACCOUNTANT_SETUP)
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon_spent"] == 2.25e307 and payload["order_argmin"] == 1.25


def test_cli_json_is_strict(capsys):
    # NaN and infinity are not JSON: the record raises before a byte is written
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^Out of range float values are not JSON "):
            _print_json({"epsilon_spent": value})
        assert capsys.readouterr().out == ""


def test_cli_calibrate_json(capsys):
    code, out = run_cli(capsys, "calibrate", "--epsilon", "5", "--steps", "1000",
                        "--n-train", "560", "-T", "6", "-m", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"] == pytest.approx(30.94, abs=0.05)
    assert payload["epsilon_spent"] <= 5.0
    assert payload["delta"] == pytest.approx(1.79e-4, abs=1e-6)


def test_cli_gen_synthetic_and_build_graph(tmp_path, capsys):
    code, out = run_cli(capsys, "gen-synthetic", "--seed", "3", "--nodes", "60",
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
    # every default the CLI passes on is the spec's own
    from dpgraphlab.cli import build_parser
    args = build_parser().parse_args(["gen-synthetic"])
    names = [f.name for f in dataclasses.fields(dg.SyntheticSpec)]
    assert dg.SyntheticSpec(**{name: getattr(args, name) for name in names}) == dg.SyntheticSpec()
    args = build_parser().parse_args(["build-graph", "--features", "x", "--labels", "y"])
    assert {"k": args.k, "metric": args.metric} == ExperimentManifest(dataset={"csv": {}}).graph
    spec = dg.SubgraphSpec()
    for command in (("accountant", "--sigma", "1"), ("calibrate", "--epsilon", "5")):
        args = build_parser().parse_args([*command, "--n-train", "100", "-T", "6"])
        assert (args.steps, args.batch_size, args.max_degree, args.clip_norm) == (
            spec.total_steps, spec.batch_size, spec.max_degree, spec.clip_norm)


def test_cli_gen_synthetic_rejects_a_negative_seed(tmp_path, capsys):
    # a usage error that names the seed, not numpy's SeedSequence, and writes nothing
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "gen-synthetic", "--seed", "-1", "--out", str(tmp_path / "g"))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: seed must be an integer >= 0, not -1" in err and "Traceback" not in err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("levels,directory", [("0.5,0.5", "h0.5"), ("0.5,0.50", "h0.5"),
                                              ("0.6,0.5,0.6000001", "h0.6")])
def test_cli_sweep_rejects_levels_sharing_a_directory(tmp_path, capsys, levels, directory):
    # two levels that write one h{h:g} directory are a usage error: exit 2,
    # nothing written
    manifest = tiny_manifest(tmp_path / "res", variants=("non_dp",), seeds=(0,)).to_dict()
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "sweep", "--manifest", str(tmp_path / "m.json"),
                "--homophilies", levels)
    assert exc.value.code == 2
    assert f"share the level directory {directory}" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_cli_train_and_report(tmp_path, capsys):
    manifest = tiny_manifest(tmp_path / "res").to_dict()
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    code, out = run_cli(capsys, "train", "--manifest", str(mpath))
    assert code == 0
    payload = json.loads(out)
    assert payload["n_failures"] == 0
    code, out = run_cli(capsys, "report", "--results", str(tmp_path / "res"))
    assert code == 0
    assert "non_dp" in out


def test_cli_audit_subcommand(tmp_path, capsys, monkeypatch):
    from dpgraphlab import experiments

    reports = []  # the cell's AttackReport, caught on its way to the grid's writer
    run_audit = experiments.run_audit

    def recording_audit(*args, **kwargs):
        reports.append(run_audit(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(experiments, "run_audit", recording_audit)
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
    lines = (tmp_path / "res" / "roc_non_dp_seed0.csv").read_text().strip().split("\n")
    assert lines[0] == "fpr,tpr"
    assert len(reports) == 1 and len(lines) == reports[0].roc_points.shape[0] + 1
    points = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    np.testing.assert_allclose(points, reports[0].roc_points, rtol=1e-9, atol=0)


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


def test_readme_cli_examples_parse():
    import shlex
    from pathlib import Path

    from dpgraphlab.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("dpgraphlab ")]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on a flag the subcommand does not take


def test_cli_train_fails_only_the_dp_cells_whose_sigma_overspends(tmp_path, capsys):
    # a manifest's noise_multiplier is checked against its epsilon target
    # when each DP cell trains; the non-DP cells of the grid still run
    mpath = _manifest_file(tmp_path, lambda m: m["privacy"].update(
        epsilons=[1.0], noise_multiplier=0.5, steps=50))
    code, out = run_cli(capsys, "train", "--manifest", mpath)
    assert code == 1
    assert json.loads(out)["failed_cells"] == ["dp_eps1_seed0", "dp_eps1_seed1"]
    for seed in (0, 1):
        dp = json.loads((tmp_path / "res" / "cells" / f"dp_eps1_seed{seed}.json").read_text())
        assert dp["error"].startswith("CalibrationError: epsilon budget infeasible: sigma=0.5 ")
        non_dp = json.loads((tmp_path / "res" / "cells" / f"non_dp_seed{seed}.json").read_text())
        assert "error" not in non_dp


def test_cli_train_nonzero_exit_on_failure(tmp_path, capsys):
    manifest = tiny_manifest(
        tmp_path / "res", variants=("dp",), seeds=(0,),
        privacy={"epsilons": [1e-4], "batch_size": 8, "steps": 500,
                 "max_degree": 3, "occurrence_bound": 7},
    ).to_dict()
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    code, _ = run_cli(capsys, "train", "--manifest", str(mpath))
    assert code == 1
