"""Config-driven experiment grids: variants x epsilons x seeds, with
aggregate tables, ROC exports, and provenance hashes.

A manifest (JSON) declares one dataset source, a split, model settings, an
optional privacy block (epsilon list plus DP-SGD hyperparameters), an
optional audit block, and the seed list.  The grid builds one graph per
seed (the seed drives both the synthetic generator and the split shuffle)
and hands it to every cell of that seed; each cell trains, evaluates, and
optionally audits.  The manifest checks the values its cells read, and the
graphs are built and checked before anything is written; a cell that raises
is recorded.  Output files are written atomically and embed the manifest hash.
"""

from __future__ import annotations

import copy
import hashlib
import json
import numbers
import os
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .accounting import PrivacySpec, SubgraphSpec, _check_sizes, recommend_delta
from .attacks import AuditSpec, _check_parity, train_shadows
from .attacks import audit as run_audit
from .graphs import (PopulationGraph, SplitSpec, _check_integer, assign_splits, build_knn_graph,
                     edge_homophily, load_csv)
from .synthetic import SyntheticSpec, generate_synthetic
from .training import TrainConfig, _evaluate, train

SCHEMA_VERSION = 1

# each training regime of the grid: variant -> (mode, clipping, noise)
VARIANTS = {
    "non_dp": ("full_graph", False, False),
    "clipping": ("full_graph", True, False),
    "subgraphing": ("subgraph_batch", False, False),
    "subgraph_clip": ("subgraph_batch", True, False),
    "dp": ("subgraph_batch", True, True),
}

# DP cells default to plain momentum SGD: adaptive per-coordinate scaling
# (adam) renormalizes the calibrated Gaussian noise away, which erases the
# epsilon/utility trade-off the grid is meant to expose.
DEFAULT_DP_OPTIMIZER = {"optimizer": "sgd", "learning_rate": 1e-4}

# manifest key -> SubgraphSpec field, read from the model block by non-DP
# cells and from the privacy block by DP cells
SPEC_KEYS = {"steps": "total_steps", "batch_size": "batch_size", "max_degree": "max_degree",
             "occurrence_bound": "occurrence_bound", "clip_norm": "clip_norm"}

# the keys each manifest block takes: those its reader reads (the cell seed
# is the generator's seed, and the variant sets mode, clipping and noise)
BLOCK_KEYS = {
    "dataset": ("synthetic", "csv"),
    "synthetic": tuple(f.name for f in fields(SyntheticSpec) if f.name != "seed"),
    "csv": ("features", "labels", "standardize", "skip_header"),
    "split": ("train", "val", "test", "seed"),
    "graph": ("k", "metric"),
    "model": (*(f.name for f in fields(TrainConfig)
                if f.name not in ("seed", "mode", "clipping", "noise")), *SPEC_KEYS),
    "privacy": ("epsilons", "hops", "delta", "noise_multiplier", *SPEC_KEYS,
                *DEFAULT_DP_OPTIMIZER),
    "audit": tuple(f.name for f in fields(AuditSpec)),
}

# the graph and split blocks' defaults, for a block or a key a manifest leaves out
GRAPH_DEFAULTS = {"k": 5, "metric": "euclidean"}
SPLIT_DEFAULTS = {"train": 0.56, "val": 0.14, "test": 0.30, "seed": 0}


class ManifestError(Exception):
    """Raised when an experiment manifest fails validation."""


def synthetic_benchmark_manifest(variants=("non_dp", "dp"), epsilons=(5.0,),
                                 seeds=(0, 1, 2, 3, 4), homophily: float = 0.8,
                                 output_dir: str = "results",
                                 audit: dict | None = None) -> "ExperimentManifest":
    """Canonical synthetic-benchmark settings: 1000 nodes, k=5 wiring,
    0.56/0.14/0.30 split, 2-layer/32-hidden GCN, and the DP-SGD recipe
    (T=6, m=64, 1000 steps, clip 1.0, momentum SGD at 1e-4)."""
    return ExperimentManifest.from_dict({
        "dataset": {"synthetic": {"num_nodes": 1000, "target_homophily": homophily,
                                  "neighbors_per_node": 5, "feat_dim": 10}},
        "split": {"train": 0.56, "val": 0.14, "test": 0.30, "seed": 0},
        "model": {"num_layers": 2, "hidden_dim": 32, "learning_rate": 1e-2,
                  "optimizer": "adam", "epochs": 200, "steps": 1000,
                  "batch_size": 64, "max_degree": 5},
        "privacy": {"epsilons": list(epsilons), "clip_norm": 1.0, "max_degree": 5,
                    "hops": 2, "occurrence_bound": 6, "batch_size": 64,
                    "steps": 1000, "optimizer": "sgd", "learning_rate": 1e-4},
        "audit": audit,
        "variants": list(variants),
        "seeds": list(seeds),
        "output_dir": output_dir,
    })


@dataclass(frozen=True)
class ExperimentManifest:
    dataset: dict
    split: dict = field(default_factory=SPLIT_DEFAULTS.copy)
    graph: dict = field(default_factory=GRAPH_DEFAULTS.copy)
    model: dict = field(default_factory=dict)
    privacy: dict | None = None
    audit: AuditSpec | None = None  # a dict at load, built after its keys are checked
    variants: tuple = ("non_dp",)
    seeds: tuple = (0,)
    output_dir: str = "results"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ManifestError(f"unsupported schema_version {self.schema_version}")
        sources = [k for k in ("synthetic", "csv") if k in self.dataset]
        if len(sources) != 1:
            raise ManifestError("dataset must name exactly one source: 'synthetic' or 'csv'")
        # replace() hands a loaded manifest's AuditSpec back in; it is checked again as a dict
        audit = asdict(self.audit) if isinstance(self.audit, AuditSpec) else self.audit
        for name, block in (("dataset", self.dataset), (sources[0], self.dataset[sources[0]]),
                            ("split", self.split), ("graph", self.graph), ("model", self.model),
                            ("privacy", self.privacy), ("audit", audit)):
            if not isinstance(block, dict) and not (block is None and name in ("privacy", "audit")):
                raise ManifestError(f"{name} must be a JSON object, not {block!r}")
            unknown = set(block or ()) - set(BLOCK_KEYS[name])
            if unknown:
                raise ManifestError(f"unknown {name} keys {sorted(unknown)}; "
                                    f"expected from {BLOCK_KEYS[name]}")
        if not self.seeds:
            raise ManifestError("seeds list must be nonempty")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ManifestError(f"unknown variants {sorted(unknown)}; "
                                f"expected from {tuple(VARIANTS)}")
        if "dp" in self.variants:
            if not self.privacy or not self.privacy.get("epsilons"):
                raise ManifestError("'dp' variant requires a privacy block with a nonempty epsilon list")
        # the values a cell reads fail the load; the checks that need a graph are run()'s
        if "synthetic" in self.dataset:
            SyntheticSpec(**self.dataset["synthetic"])
        if audit is not None:
            object.__setattr__(self, "audit", AuditSpec(**audit))
        for seed in self.seeds:  # a seed reaches only default_rng, which takes an int >= 0
            _check_integer(seed, "seed", 0, ManifestError)
        _split_spec(self, 0)
        for variant, epsilon, seed in grid_cells(self):
            config = config_for_variant(self, variant, seed)
            # n_train (1 here) sets only an absent delta, whose default is in range
            spec_for_cell(self, variant, epsilon, 1, config.num_layers)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentManifest":
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ManifestError(f"unknown manifest keys {sorted(unknown)}")
        raw = copy.deepcopy(raw)  # the frozen manifest must not share the caller's dicts
        for key in ("variants", "seeds"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)

    @classmethod
    def from_file(cls, path) -> "ExperimentManifest":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, columns: str, rows) -> None:
    """Write the dict ``rows`` atomically as CSV.  ``columns`` names each
    field with its format spec (``"epsilon:g"``); None is an empty field."""
    fields = [column.partition(":")[::2] for column in columns.split(",")]
    lines = [",".join(name for name, _ in fields)]
    lines += [",".join("" if row[name] is None else format(row[name], spec)
                       for name, spec in fields) for row in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


AGGREGATE_COLUMNS = "variant,epsilon:g,mean_acc:.6f,std_acc:.6f,n_seeds"


def _split_spec(manifest: ExperimentManifest, seed: int) -> SplitSpec:
    """The split block's SplitSpec; its seed is checked before the cell seed offsets it."""
    sp = {**SPLIT_DEFAULTS, **manifest.split}
    spec = SplitSpec(sp["train"], sp["val"], sp["test"], seed=sp["seed"])
    return replace(spec, seed=spec.seed + seed)


def build_graph_for_cell(manifest: ExperimentManifest, seed: int):
    """Cell seed drives the generator (synthetic) and offsets the split shuffle."""
    if "synthetic" in manifest.dataset:
        graph = generate_synthetic(SyntheticSpec(**manifest.dataset["synthetic"], seed=seed))
    else:
        csv = manifest.dataset["csv"]
        graph = load_csv(csv["features"], csv["labels"],
                         standardize=csv.get("standardize", True),
                         skip_header=csv.get("skip_header", False))
        knn = {**GRAPH_DEFAULTS, **manifest.graph}
        graph = build_knn_graph(graph, knn["k"], knn["metric"])
    return assign_splits(graph, _split_spec(manifest, seed))


def config_for_variant(manifest: ExperimentManifest, variant: str, seed: int) -> TrainConfig:
    base = {k: v for k, v in manifest.model.items() if k not in SPEC_KEYS}
    mode, clipping, noise = VARIANTS[variant]
    base.update(seed=seed, mode=mode, clipping=clipping, noise=noise)
    if variant == "dp":
        privacy = manifest.privacy or {}
        base.update({k: privacy.get(k, v) for k, v in DEFAULT_DP_OPTIMIZER.items()})
    return TrainConfig(**base)


def spec_for_cell(manifest: ExperimentManifest, variant: str, epsilon, n_train: int,
                  num_layers: int) -> SubgraphSpec:
    """The cell's sampling and clipping knobs.  A DP cell reads the privacy
    block into a PrivacySpec; every other cell reads the model block, and a
    clipping cell takes the privacy block's clip_norm over it."""
    privacy = manifest.privacy or {}
    if variant == "dp":
        knobs = {SPEC_KEYS[k]: v for k, v in privacy.items() if k in SPEC_KEYS}
        delta = privacy.get("delta")  # absent or null takes the default; 0 is rejected
        return PrivacySpec(epsilon, recommend_delta(n_train) if delta is None else delta,
                           noise_multiplier=privacy.get("noise_multiplier"),
                           hops=privacy.get("hops", num_layers), **knobs)
    knobs = {SPEC_KEYS[k]: v for k, v in manifest.model.items() if k in SPEC_KEYS}
    if variant in ("clipping", "subgraph_clip") and "clip_norm" in privacy:
        knobs["clip_norm"] = privacy["clip_norm"]
    return SubgraphSpec(hops=num_layers, **knobs)


def _check_graphs(manifest: ExperimentManifest, graphs: dict, audit: AuditSpec | None) -> None:
    """Every check that needs a seed's graph; run() calls it before its first write."""
    for seed, graph in graphs.items():
        n_train = int(graph.train_mask.sum())
        for name, count in (("train", n_train), ("test", graph.test_mask.sum())):
            if not count:
                raise ManifestError(f"seed {seed}'s graph has no {name} nodes")
        if "dp" in manifest.variants:  # every DP cell has the same m and T
            layers = config_for_variant(manifest, "dp", seed).num_layers
            spec = spec_for_cell(manifest, "dp", manifest.privacy["epsilons"][0], n_train, layers)
            _check_sizes(spec.effective_occurrence_bound, spec.batch_size, n_train, ManifestError,
                         f"DP cells train on n_train={n_train} subgraphs: ")
            if audit is not None:  # only a DP audit has a rule that needs the graph
                _check_parity(graph, spec)


def _cell_head(manifest: ExperimentManifest, variant: str, epsilon, seed: int) -> dict:
    """The fields of a cell's JSON that name it, whether it ran or failed."""
    eps_part = f"_eps{epsilon:g}" if epsilon is not None else ""
    return {"schema_version": SCHEMA_VERSION, "manifest_hash": manifest.hash(),
            "cell": f"{variant}{eps_part}_seed{seed}", "variant": variant, "epsilon": epsilon,
            "seed": seed}


def run_cell(manifest: ExperimentManifest, variant: str, epsilon, seed: int,
             do_audit: bool = False, *, graph: PopulationGraph | None = None) -> dict:
    """Train, evaluate, and optionally audit one grid cell on ``graph``, the
    seed's graph, which is built here when not given.  An audited cell trains
    its shadows first, so a failed audit setup costs no training at all.
    ``runtime_sec`` times the cell from the moment it has its graph."""
    if graph is None:
        graph = build_graph_for_cell(manifest, seed)
    t0 = time.time()
    config = config_for_variant(manifest, variant, seed)
    spec = spec_for_cell(manifest, variant, epsilon, int(graph.train_mask.sum()),
                         config.num_layers)
    audit = manifest.audit if do_audit else None
    if audit is not None:
        audit_seed = seed + audit.seed_offset
        ensemble = train_shadows(graph, config, spec, audit.n_shadows, audit_seed)
    params, log = train(graph, config, spec)
    # one forward serves every split; an empty test split raises, as it must
    masks = [graph.test_mask, graph.train_mask]
    if graph.val_mask.any():
        masks.append(graph.val_mask)
    accs = _evaluate(graph, params, masks)
    cell = {
        **_cell_head(manifest, variant, epsilon, seed),
        "test_acc": accs[0],
        "train_acc": accs[1],
        "val_acc": accs[2] if len(accs) > 2 else None,
        "final_log": log[-1] if log else None,
        "graph": {
            "num_nodes": graph.num_nodes,
            "edge_homophily": edge_homophily(graph) if graph.num_undirected_edges else None,
            "n_train": int(graph.train_mask.sum()),
        },
        "runtime_sec": None,
    }
    if audit is not None:
        report = run_audit(params, graph, config, seed=audit_seed, dp=spec,
                           fpr_grid=audit.fpr_grid, model_variant=cell["cell"], ensemble=ensemble)
        cell["audit"] = report.to_json()
        cell["_roc_points"] = report.roc_points.tolist()
    cell["runtime_sec"] = round(time.time() - t0, 3)
    return cell


def _run_cell_packed(args):
    manifest, variant, epsilon, seed, do_audit, graph = args
    try:
        return run_cell(manifest, variant, epsilon, seed, do_audit, graph=graph)
    except Exception as exc:  # cell failures must not kill the grid
        trace = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
        return {**_cell_head(manifest, variant, epsilon, seed),
                "error": f"{type(exc).__name__}: {exc}", "traceback": trace}


def grid_cells(manifest: ExperimentManifest) -> list[tuple]:
    return [(variant, eps, seed) for variant in manifest.variants
            for eps in (manifest.privacy["epsilons"] if variant == "dp" else [None])
            for seed in manifest.seeds]


def aggregate(cells: list[dict]) -> list[dict]:
    """Mean +/- population std of test accuracy per (variant, epsilon) group."""
    groups: dict[tuple, list[float]] = {}
    for cell in cells:
        if "error" in cell:
            continue
        groups.setdefault((cell["variant"], cell["epsilon"]), []).append(cell["test_acc"])
    return [{"variant": variant, "epsilon": eps, "mean_acc": float(np.mean(accs)),
             "std_acc": float(np.std(accs)),  # population std over seeds
             "n_seeds": len(accs)}
            for (variant, eps), accs in sorted(groups.items(),
                                               key=lambda kv: (kv[0][0], kv[0][1] or 0))]


def run(manifest: ExperimentManifest, out_dir=None, threads: int = 1,
        do_audit: bool = False) -> dict:
    """Execute the whole grid; write per-cell JSON, aggregate CSV, and ROC CSVs.

    Returns a summary with cell results and failure list; failed cells do not
    stop the rest of the grid.  Every seed's graph is built and checked before
    anything is written, and a build or check error propagates.
    """
    _check_integer(threads, "threads", 1)
    graphs = {seed: build_graph_for_cell(manifest, seed) for seed in dict.fromkeys(manifest.seeds)}
    _check_graphs(manifest, graphs, manifest.audit if do_audit else None)
    out = Path(out_dir if out_dir is not None else manifest.output_dir)
    (out / "cells").mkdir(parents=True, exist_ok=True)
    packed = [(manifest, v, e, s, do_audit, graphs[s]) for v, e, s in grid_cells(manifest)]
    if threads > 1:
        # imported here: the process pool loads multiprocessing, which only a
        # threaded grid needs, and every CLI command imports this module
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_cell_packed, packed))
    else:
        results = [_run_cell_packed(p) for p in packed]

    for cell in results:
        roc_points = cell.pop("_roc_points", None)
        _atomic_write(out / "cells" / f"{cell['cell']}.json",
                      json.dumps(cell, indent=2, sort_keys=True) + "\n")
        if roc_points is not None:
            _write_csv(out / f"roc_{cell['cell']}.csv", "fpr:.10g,tpr:.10g",
                       ({"fpr": f, "tpr": t} for f, t in roc_points))

    rows = aggregate(results)
    _write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS, rows)
    failures = [c for c in results if "error" in c]
    unsound = [c["cell"] for c in results
               if c.get("audit") and c["audit"].get("sound") is False]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "manifest_hash": manifest.hash(),
        "n_cells": len(results),
        "n_failures": len(failures),
        "failed_cells": [c["cell"] for c in failures],
        "unsound_audits": unsound,
        "aggregate": rows,
    }
    _atomic_write(out / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    summary["cells"] = results
    return summary


def sweep_homophily(manifest: ExperimentManifest, homophilies, out_dir=None,
                    threads: int = 1) -> dict:
    """Expand a synthetic manifest over homophily levels; emit a long-form table.

    Output CSV rows: homophily, variant, epsilon, mean_acc, std_acc.  A trend
    summary reports the per-seed Spearman correlation between homophily and
    DP accuracy for each epsilon.  Every level is checked before the first
    runs; two levels whose ``h{h:g}`` directories coincide are rejected.
    """
    if "synthetic" not in manifest.dataset:
        raise ManifestError("sweep_homophily requires a synthetic dataset source")
    out = Path(out_dir if out_dir is not None else manifest.output_dir)
    homophilies = list(homophilies)  # any iterable; trend.json lists it again
    synth = manifest.dataset["synthetic"]
    levels = [(h, replace(manifest, dataset={"synthetic": {**synth, "target_homophily": h}},
                          output_dir=str(out / f"h{h:g}"))) for h in homophilies]
    dirs = [Path(sub.output_dir).name for _, sub in levels]
    twice = [name for i, name in enumerate(dirs) if name in dirs[:i]]
    if twice:
        raise ValueError(f"homophily levels {homophilies} share the level directory {twice[0]}")
    long_rows = []
    per_seed_acc: dict[tuple, dict[float, float]] = {}
    all_results = {}
    for h, sub in levels:
        summary = run(sub, threads=threads)
        all_results[h] = summary
        for row in summary["aggregate"]:
            long_rows.append({"homophily": h, **row})
        for cell in summary["cells"]:
            if "error" in cell:
                continue
            key = (cell["variant"], cell["epsilon"], cell["seed"])
            per_seed_acc.setdefault(key, {})[h] = cell["test_acc"]

    out.mkdir(parents=True, exist_ok=True)  # after the levels: a rejected one writes nothing
    _write_csv(out / "sweep.csv", "homophily:g,variant,epsilon:g,mean_acc:.6f,std_acc:.6f",
               long_rows)

    trends = [{"variant": variant, "epsilon": eps, "seed": seed,
               "spearman": spearman(sorted(by_h), [by_h[h] for h in sorted(by_h)])}
              for (variant, eps, seed), by_h in sorted(
                  per_seed_acc.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0, kv[0][2]))
              if len(by_h) >= 2]
    trend_summary = {
        "schema_version": SCHEMA_VERSION,
        "manifest_hash": manifest.hash(),
        "homophilies": list(homophilies),
        "per_seed_spearman": trends,
    }
    _atomic_write(out / "trend.json", json.dumps(trend_summary, indent=2, sort_keys=True) + "\n")
    n_failures = sum(s["n_failures"] for s in all_results.values())
    return {"long_rows": long_rows, "trends": trends, "n_failures": n_failures,
            "results": all_results}


def spearman(x, y) -> float:
    """Spearman rank correlation (average ranks on ties); 0.0 if either input is constant."""
    # imported here: scipy.stats takes longer to import than the rest of the
    # package, and every CLI command imports this module
    from scipy.stats import spearmanr

    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return 0.0
    return float(spearmanr(x, y).statistic)


def _check_cell(cell) -> None:
    """Raise ValueError unless a cell file's JSON holds what :func:`report`
    reads: an object with string ``cell`` and ``variant``, a numeric (or
    null) ``epsilon`` and, unless it holds an ``error``, a numeric
    ``test_acc``; an audit block with a power bound needs a TPR at each of
    the bound's FPRs."""
    def fail(why):
        raise ValueError(f"not a cell: {why}")

    def number(value, name):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            fail(f"{name} is {value!r}, not a number")

    if not isinstance(cell, dict):
        fail(f"a JSON {type(cell).__name__}, not an object")
    missing = ({"cell", "variant", "epsilon", "error" if "error" in cell else "test_acc"}
               - cell.keys())
    if missing:
        fail(f"no {', '.join(sorted(missing))}")
    for key in ("cell", "variant"):
        if not isinstance(cell[key], str):
            fail(f"{key} is {cell[key]!r}, not a string")
    if cell["epsilon"] is not None:
        number(cell["epsilon"], "epsilon")
    if "error" not in cell:
        number(cell["test_acc"], "test_acc")
    audit = cell.get("audit")
    if audit and not isinstance(audit, dict):
        fail(f"audit is {audit!r}, not an object")
    if not audit or "supremum_power" not in audit:
        return
    bound, tpr = audit["supremum_power"], audit.get("tpr", {})
    if not isinstance(bound, dict) or not isinstance(tpr, dict):
        fail("the audit's supremum_power and tpr are not both objects")
    for fpr, power in bound.items():
        if fpr not in tpr:
            fail(f"the audit has supremum_power but no tpr at fpr {fpr}")
        try:
            float(fpr)
        except ValueError:
            fail(f"the audit's fpr {fpr!r} is not a number")
        number(power, f"supremum_power at fpr {fpr}")
        number(tpr[fpr], f"tpr at fpr {fpr}")


def report(results_dir) -> dict:
    """Merge cell JSONs under a results directory into tables.

    Produces a plain-text rendering plus aggregate rows, and a
    bound-vs-empirical TPR comparison for audited DP cells.  A grid is a
    directory holding ``cells/``; no row pools two grids, and when the cells
    come from more than one (a sweep's levels), each row and table starts
    with its grid's path under ``results_dir``.  Corrupt or unreadable cell
    files are listed in ``corrupt``, and the cells of a grid whose readable
    ``summary.json`` names another ``manifest_hash`` in ``stale``, each
    under its own heading; the report is still produced.
    """
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise FileNotFoundError(f"no results directory {str(results_dir)!r}")
    cell_files = sorted(results_dir.glob("**/cells/*.json"))
    hashes = {}  # a grid's directory -> the manifest_hash of its readable summary.json
    for grid in {path.parent.parent for path in cell_files}:
        try:
            hashes[grid] = json.loads((grid / "summary.json").read_bytes())["manifest_hash"]
        except (OSError, ValueError, KeyError, TypeError):
            pass
    grids, corrupt, stale = {}, [], []  # grids: a grid's path -> its cells
    for path in cell_files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cell = json.load(fh)
            _check_cell(cell)
        except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            corrupt.append({"file": str(path), "error": str(exc)})
            continue
        want = hashes.get(path.parent.parent, cell.get("manifest_hash"))
        if cell.get("manifest_hash") != want:
            stale.append({"file": str(path),
                          "error": f"a cell of manifest_hash {cell.get('manifest_hash')!r}, not "
                                   f"{want!r} as the grid's summary.json names"})
            continue
        grids.setdefault(path.parent.parent.relative_to(results_dir).as_posix(), []).append(cell)
    # rows name their grid, in a leading column, only when there are several
    width = max(map(len, grids)) + 2 if len(grids) > 1 else 0
    grid_col, grid_field = f"{'grid' if width else '':<{width}}", "grid," if width else ""
    rows, bound_rows = [], []
    for grid in sorted(grids):
        tag = {"grid": grid} if width else {}
        rows += [{**tag, **row} for row in aggregate(grids[grid])]
        for cell in grids[grid]:
            audit_block = cell.get("audit")
            if not audit_block or "supremum_power" not in audit_block:
                continue
            for fpr, power in sorted(audit_block["supremum_power"].items(),
                                     key=lambda kv: float(kv[0])):
                bound_rows.append({**tag, "cell": cell["cell"], "epsilon": cell["epsilon"],
                                   "fpr": float(fpr), "tpr": audit_block["tpr"][fpr],
                                   "supremum_power": power})

    lines = []
    if not grids and not corrupt and not stale:
        lines.append("no result cells found")
    if rows:
        lines.append(f"{grid_col}{'variant':<14}{'epsilon':>8}  "
                     f"{'test acc (mean +/- std)':<26}{'seeds':>5}")
        for r in rows:
            eps = "-" if r["epsilon"] is None else f"{r['epsilon']:g}"
            lines.append(f"{r.get('grid', ''):<{width}}{r['variant']:<14}{eps:>8}  "
                         f"{100 * r['mean_acc']:.2f} +/- {100 * r['std_acc']:.2f}"
                         f"{'':<8}{r['n_seeds']:>5}")
    if bound_rows:
        if lines:  # a blank line between sections, none before the first
            lines.append("")
        lines.append(f"{grid_col}{'cell':<24}{'fpr':>8}{'tpr':>10}{'power bound':>13}")
        for r in bound_rows:
            lines.append(f"{r.get('grid', ''):<{width}}{r['cell']:<24}{r['fpr']:>8g}"
                         f"{r['tpr']:>10.4f}{r['supremum_power']:>13.4f}")
    for heading, files in (("unreadable cell files", corrupt),
                           ("cells of another manifest", stale)):
        if not files:
            continue
        if lines:
            lines.append("")
        lines.append(f"{heading}: {len(files)}")
        for c in files:
            lines.append(f"  {c['file']}: {c['error']}")

    text = "\n".join(lines) + "\n"
    _atomic_write(results_dir / "report.txt", text)
    _write_csv(results_dir / "report.csv", grid_field + AGGREGATE_COLUMNS, rows)
    if bound_rows:
        _write_csv(results_dir / "bound_vs_empirical.csv",
                   grid_field + "cell,epsilon:g,fpr:g,tpr:.6f,supremum_power:.6f", bound_rows)
    return {"text": text, "aggregate": rows, "bound_rows": bound_rows, "corrupt": corrupt,
            "stale": stale}
