"""Batch command-line front end.

Subcommands: gen-synthetic, build-graph, train, audit, accountant,
calibrate, sweep, report; each takes only the flags it reads, after its
name, with the default of the spec that owns each value.  All JSON written
carries a schema_version field.  Exit status is 2 for a usage error (the
message goes to stderr) and 1 if a grid cell failed or an audit was unsound.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .accounting import (CalibrationError, SubgraphSpec, _privacy_claim, recommend_delta,
                         supremum_power)
from .experiments import (GRAPH_DEFAULTS, SCHEMA_VERSION, ExperimentManifest, ManifestError,
                          report, run, sweep_homophily)
from .graphs import (CsvParseError, IngestionError, build_knn_graph, graph_stats, load_csv,
                     write_edge_list)
from .synthetic import SyntheticSpec, generate_synthetic


def _print_json(payload: dict) -> None:
    """Write ``payload`` as strict JSON: a NaN or infinity raises ValueError
    (a usage error) before anything is written."""
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def cmd_gen_synthetic(args) -> int:
    graph = generate_synthetic(SyntheticSpec(**{f.name: getattr(args, f.name)
                                                for f in fields(SyntheticSpec)}))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "features.csv", graph.features, fmt="%.10g", delimiter=",")
    np.savetxt(out / "labels.csv", graph.labels, fmt="%d")
    write_edge_list(graph, out / "edges.txt")
    _print_json({"output_dir": str(out), **graph_stats(graph)})
    return 0


def cmd_build_graph(args) -> int:
    graph = load_csv(args.features, args.labels, standardize=args.standardize,
                     skip_header=args.skip_header)
    graph = build_knn_graph(graph, args.k, args.metric)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_edge_list(graph, out / "edges.txt")
    _print_json(graph_stats(graph))
    return 0


def cmd_grid(args) -> int:
    """``train`` runs the manifest's grid; ``audit`` also audits every cell."""
    manifest = ExperimentManifest.from_file(args.manifest)
    do_audit = args.command == "audit"
    if do_audit and manifest.audit is None:
        raise ManifestError("manifest has no audit block")
    summary = run(manifest, out_dir=args.out, threads=args.threads, do_audit=do_audit)
    del summary["cells"]
    _print_json(summary)
    return 0 if summary["n_failures"] == 0 and not summary["unsound_audits"] else 1


def cmd_sweep(args) -> int:
    manifest = ExperimentManifest.from_file(args.manifest)
    homophilies = [float(h) for h in args.homophilies.split(",")]
    result = sweep_homophily(manifest, homophilies, out_dir=args.out, threads=args.threads)
    _print_json({
        "homophilies": homophilies,
        "n_failures": result["n_failures"],
        "per_seed_spearman": result["trends"],
    })
    return 0 if result["n_failures"] == 0 else 1


def cmd_accountant(args) -> int:
    """Print the claim record that DP training logs from: ``accountant`` at
    a given sigma, ``calibrate`` at the sigma it solves for."""
    spec = SubgraphSpec(clip_norm=args.clip_norm, max_degree=args.max_degree,
                        occurrence_bound=args.occurrence_bound, batch_size=args.batch_size,
                        total_steps=args.steps)
    delta = args.delta if args.delta is not None else recommend_delta(args.n_train)
    payload, _ = _privacy_claim(spec, args.n_train, delta, args.sigma, args.epsilon)
    if args.command == "accountant" and args.fpr:
        payload["supremum_power"] = {
            f"{f:g}": supremum_power(payload["epsilon_spent"], delta, f)
            for f in (float(x) for x in args.fpr.split(","))
        }
    _print_json(payload)
    return 0


def cmd_report(args) -> int:
    result = report(args.results)
    sys.stdout.write(result["text"])
    return 0


def _add_accountant_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=None,
                   help="failure probability (default: 1/(10 n_train))")
    p.add_argument("--steps", type=int, default=SubgraphSpec.total_steps)
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--occurrence-bound", "-T", type=int, required=True)
    p.add_argument("--batch-size", "-m", type=int, default=SubgraphSpec.batch_size)
    p.add_argument("--max-degree", "-K", type=int, default=SubgraphSpec.max_degree)
    p.add_argument("--clip-norm", type=float, default=SubgraphSpec.clip_norm)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpgraphlab",
                                     description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a homophily-controlled synthetic graph")
    # one flag per SyntheticSpec field, whose default the flag takes
    for flag, name, kind in (("--nodes", "num_nodes", int),
                             ("--homophily", "target_homophily", float),
                             ("--k", "neighbors_per_node", int), ("--feat-dim", "feat_dim", int),
                             ("--separation", "class_separation", float),
                             ("--noise-std", "feature_noise_std", float), ("--seed", "seed", int)):
        p.add_argument(flag, dest=name, type=kind, default=getattr(SyntheticSpec, name))
    p.add_argument("--out", default="synthetic", help="output directory")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("build-graph", help="k-NN graph from feature/label CSVs")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--k", type=int, default=GRAPH_DEFAULTS["k"])
    p.add_argument("--metric", choices=("euclidean", "cosine"), default=GRAPH_DEFAULTS["metric"])
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--skip-header", action="store_true")
    p.add_argument("--out", default=None, help="directory for edges.txt (default: none)")
    p.set_defaults(func=cmd_build_graph)

    for name, func, about in (
            ("train", cmd_grid, "run a manifest's training grid"),
            ("audit", cmd_grid, "run a manifest's grid with membership-inference audits"),
            ("sweep", cmd_sweep, "expand a synthetic manifest over homophily levels")):
        p = sub.add_parser(name, help=about)
        p.add_argument("--manifest", required=True, help="experiment manifest JSON")
        p.add_argument("--out", default=None, help="output directory (default: the manifest's)")
        p.add_argument("--threads", type=int, default=1,
                       help="cell worker processes; each trains its shadows serially")
        p.set_defaults(func=func)
    sub.choices["sweep"].add_argument("--homophilies", default="0.5,0.6,0.7,0.8,0.9")

    p = sub.add_parser("accountant", help="epsilon spent for a given sigma")
    p.add_argument("--sigma", type=float, required=True, help="noise multiplier")
    _add_accountant_args(p)
    p.add_argument("--fpr", default=None,
                   help="comma list of FPR budgets to report supremum power at, "
                        "at the epsilon spent")
    p.set_defaults(func=cmd_accountant, epsilon=None)

    p = sub.add_parser("calibrate", help="solve for the noise multiplier at an epsilon target")
    p.add_argument("--epsilon", type=float, required=True, help="epsilon target")
    _add_accountant_args(p)
    p.set_defaults(func=cmd_accountant, sigma=None)

    p = sub.add_parser("report", help="merge result cells into tables")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help", "--"):
        # argparse would name the flag's value as an invalid subcommand
        flag = argv[0].partition("=")[0]
        parser.error(f"{flag} is given before the subcommand; flags go after the "
                     f"subcommand's name, as in 'dpgraphlab COMMAND {flag} ...'")
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CalibrationError, ManifestError, IngestionError, CsvParseError,
            FileNotFoundError) as exc:
        parser.error(str(exc))  # a usage error: the message on stderr, exit code 2


if __name__ == "__main__":
    sys.exit(main())
