"""Batch command-line front end.

Subcommands: gen-synthetic, build-graph, train, audit, accountant,
calibrate, sweep, report.  All JSON written to stdout or disk carries a
schema_version field; exit status is nonzero if any grid cell failed or an
audit soundness check was violated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .accounting import (SubgraphSpec, calibrate_sigma, compose_and_convert, make_accountant,
                         recommend_delta, supremum_power)
from .experiments import SCHEMA_VERSION, ExperimentManifest, report, run, sweep_homophily
from .graphs import build_knn_graph, graph_stats, load_csv, write_edge_list
from .synthetic import SyntheticSpec, generate_synthetic


def _print_json(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _write_csv_graph(graph, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    np.savetxt(out / "features.csv", graph.features, fmt="%.10g", delimiter=",")
    np.savetxt(out / "labels.csv", graph.labels, fmt="%d")
    write_edge_list(graph, out / "edges.txt")


def cmd_gen_synthetic(args) -> int:
    spec = SyntheticSpec(
        num_nodes=args.nodes,
        target_homophily=args.homophily,
        neighbors_per_node=args.k,
        feat_dim=args.feat_dim,
        class_separation=args.separation,
        feature_noise_std=args.noise_std,
        seed=args.seed,
    )
    graph = generate_synthetic(spec)
    out = Path(args.out or "synthetic")
    _write_csv_graph(graph, out)
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
        raise SystemExit("manifest has no audit block")
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


def _accountant_payload(args) -> dict:
    """The JSON record of ``accountant`` and ``calibrate``, which solves for sigma."""
    spec = SubgraphSpec(clip_norm=args.clip_norm, max_degree=args.max_degree)  # checks C and K
    delta = args.delta if args.delta is not None else recommend_delta(args.n_train)
    if args.command == "calibrate":
        sigma = calibrate_sigma(args.epsilon, delta, args.steps, args.n_train,
                                args.occurrence_bound, args.batch_size)
    else:
        sigma = args.sigma
    state = make_accountant(sigma, args.n_train, args.occurrence_bound, args.batch_size)
    eps, order = compose_and_convert(state, args.steps, delta, return_order=True)
    return {
        "epsilon_target": args.epsilon,
        "delta": delta,
        "sigma": sigma,
        "clip_norm": spec.clip_norm,
        "K": spec.max_degree,
        "T": args.occurrence_bound,
        "m": args.batch_size,
        "steps": args.steps,
        "epsilon_spent": eps,
        "order_argmin": order,
    }


def cmd_accountant(args) -> int:
    payload = _accountant_payload(args)
    if args.command == "accountant" and args.fpr:
        eps_for_power = args.epsilon if args.epsilon is not None else payload["epsilon_spent"]
        payload["supremum_power"] = {
            f"{f:g}": supremum_power(eps_for_power, payload["delta"], f, tight=args.tight)
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
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--n-train", type=int, required=True, dest="n_train")
    p.add_argument("--occurrence-bound", "-T", type=int, required=True, dest="occurrence_bound")
    p.add_argument("--batch-size", "-m", type=int, default=64, dest="batch_size")
    p.add_argument("--max-degree", "-K", type=int, default=5, dest="max_degree")
    p.add_argument("--clip-norm", type=float, default=1.0, dest="clip_norm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpgraphlab",
                                     description=__doc__.strip().splitlines()[0])
    # global flags are accepted both before and after the subcommand; the
    # SUPPRESS defaults keep the subparser from clobbering a prefix value
    parser.add_argument("--seed", type=int, default=0, help="generator seed (gen-synthetic only)")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="cell worker processes")
    parser.add_argument("--manifest", type=str, default=None, help="experiment manifest JSON")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", type=str, default=argparse.SUPPRESS)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    common.add_argument("--manifest", type=str, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    p = add_parser("gen-synthetic", "generate a homophily-controlled synthetic graph")
    p.add_argument("--nodes", type=int, default=1000)
    p.add_argument("--homophily", type=float, default=0.8)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--feat-dim", type=int, default=10, dest="feat_dim")
    p.add_argument("--separation", type=float, default=SyntheticSpec.class_separation)
    p.add_argument("--noise-std", type=float, default=1.0, dest="noise_std")
    p.set_defaults(func=cmd_gen_synthetic)

    p = add_parser("build-graph", "k-NN graph from feature/label CSVs")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--metric", choices=("euclidean", "cosine"), default="euclidean")
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--skip-header", action="store_true", dest="skip_header")
    p.set_defaults(func=cmd_build_graph)

    p = add_parser("train", "run a manifest's training grid")
    p.set_defaults(func=cmd_grid)

    p = add_parser("audit", "run a manifest's grid with membership-inference audits")
    p.set_defaults(func=cmd_grid)

    p = add_parser("sweep", "expand a synthetic manifest over homophily levels")
    p.add_argument("--homophilies", default="0.5,0.6,0.7,0.8,0.9")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("accountant", "epsilon spent for a given sigma")
    p.add_argument("--sigma", type=float, required=True, help="noise multiplier")
    p.add_argument("--epsilon", type=float, default=None,
                   help="epsilon target, echoed and used for --fpr (default: epsilon spent)")
    _add_accountant_args(p)
    p.add_argument("--fpr", default=None,
                   help="comma list of FPR budgets to report supremum power at")
    p.add_argument("--tight", action="store_true",
                   help="use the two-sided power bound")
    p.set_defaults(func=cmd_accountant)

    p = add_parser("calibrate", "solve for the noise multiplier at an epsilon target")
    p.add_argument("--epsilon", type=float, required=True, help="epsilon target")
    _add_accountant_args(p)
    p.set_defaults(func=cmd_accountant)

    p = add_parser("report", "merge result cells into tables")
    p.add_argument("--results", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def _usage_error(args) -> str | None:
    """The global --manifest flag when a grid command lacks it, or None;
    argparse checks every other required value."""
    if args.command in ("train", "audit", "sweep") and not args.manifest:
        return "--manifest is required for this subcommand"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    error = _usage_error(args)
    if error is not None:
        parser.error(error)
    if args.command not in ("accountant", "calibrate"):
        return args.func(args)
    try:
        return args.func(args)
    except ValueError as exc:  # the accountant's range checks: a usage error, exit code 2
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
