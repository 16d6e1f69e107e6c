"""Output checks made apart from the program.

Each check recomputes a released number from its definition, or tests a
property the method must have; none compares against a stored copy of an
earlier output.  A check returns a list of failure messages, empty when
the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import hypergeom, norm, rankdata, spearmanr

# orders at which the per-step RDP is recomputed by direct summation
CHECK_ORDERS = (1.5, 2.0, 8.0, 32.0, 128.0)
# the conversion grid the accountant documents: 1.25 to 64 by 0.25, then
# integers to 512
CONVERSION_ORDERS = np.concatenate([np.arange(1.25, 64.001, 0.25), np.arange(65.0, 513.0)])
REL_TOL = 1e-9


def direct_rdp(orders, sigma: float, n: int, t: int, m: int) -> np.ndarray:
    """Per-step Renyi cost at each order: the log of the hypergeometric moment
    sum_rho pmf(rho) exp(alpha (alpha-1) rho^2 / (2 sigma^2)), over alpha - 1."""
    rho = np.arange(0, min(t, m) + 1)
    pmf = hypergeom.pmf(rho, n, t, m)
    keep = pmf > 0
    alpha = np.asarray(orders, dtype=np.float64)[:, None]
    log_terms = np.log(pmf[keep]) + alpha * (alpha - 1.0) * rho[keep] ** 2 / (2.0 * sigma ** 2)
    top = log_terms.max(axis=1, keepdims=True)
    log_moment = top + np.log(np.exp(log_terms - top).sum(axis=1, keepdims=True))
    return (log_moment / (alpha - 1.0))[:, 0]


def standard_epsilon(sigma: float, steps: int, delta: float, n: int, t: int, m: int) -> float:
    """RDP-to-(epsilon, delta) conversion minimised over CONVERSION_ORDERS."""
    costs = direct_rdp(CONVERSION_ORDERS, sigma, n, t, m)
    return float(np.min(steps * costs + math.log(1.0 / delta) / (CONVERSION_ORDERS - 1.0)))


def check_accounting(dg, log: list[dict], epsilon_target: float, delta: float,
                     n_train: int, t: int, m: int, label: str) -> list[str]:
    """RDP at the logged sigma, and the logged epsilon against target and time."""
    errors = []
    records = [r for r in log if "epsilon_spent" in r]
    if not records:
        return [f"{label}: DP log has no epsilon_spent"]
    sigma = records[-1]["sigma"]
    if not sigma > 0:
        return [f"{label}: logged sigma {sigma} is not positive"]
    program = dg.make_accountant(sigma, n_train, t, m, orders=np.asarray(CHECK_ORDERS))
    direct = direct_rdp(CHECK_ORDERS, sigma, n_train, t, m)
    for alpha, got, want in zip(CHECK_ORDERS, program.per_step_costs, direct):
        if abs(got - want) > REL_TOL * max(abs(want), 1e-300):
            errors.append(f"{label}: RDP at order {alpha} is {float(got)!r}, "
                          f"direct sum gives {float(want)!r}")
    spent = [r["epsilon_spent"] for r in records]
    if any(b < a for a, b in zip(spent, spent[1:])):
        errors.append(f"{label}: logged epsilon decreases over the log: {spent}")
    if spent[-1] > epsilon_target * (1.0 + REL_TOL):
        errors.append(f"{label}: final epsilon {spent[-1]} exceeds target {epsilon_target}")
    # any valid conversion is at least as tight as the standard one
    bound = standard_epsilon(sigma, records[-1]["step"], delta, n_train, t, m)
    if spent[-1] > bound * (1.0 + REL_TOL):
        errors.append(f"{label}: final epsilon {spent[-1]} exceeds the standard "
                      f"conversion {bound} at sigma {sigma}")
    return errors


def mann_whitney_auc(scores: np.ndarray, member: np.ndarray) -> float:
    """AUC as the Mann-Whitney statistic, ties at average rank."""
    ranks = rankdata(scores, method="average")
    n_pos = int(member.sum())
    n_neg = member.size - n_pos
    u = ranks[member].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def scaled_confidence(logits: np.ndarray, labels: np.ndarray, clamp: float) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(z[np.arange(labels.size), labels]) / np.exp(z).sum(axis=1)
    p = np.clip(p, clamp, 1.0 - clamp)
    return np.log(p) - np.log1p(-p)


def check_audit(dg, graph, target_params, ensemble, report, n_shadows: int,
                min_each_side: int, dp, label: str) -> list[str]:
    """Coverage, LiRA scores, AUC and (for DP targets) the soundness verdict."""
    from dpgraphlab import attacks

    errors = []
    membership = np.asarray(ensemble.membership, dtype=bool)
    if membership.shape[0] != n_shadows or report.n_shadows != n_shadows:
        errors.append(f"{label}: expected {n_shadows} shadows, got {membership.shape[0]}")
    in_counts = membership.sum(axis=0)
    coverage = int(min(in_counts.min(), (n_shadows - in_counts).min()))
    if coverage < min_each_side:
        errors.append(f"{label}: IN/OUT coverage {coverage} below {min_each_side}")

    pool = np.asarray(ensemble.pool)
    logits = dg.gcn_forward(dg.normalize_adjacency(graph), target_params)
    x = scaled_confidence(logits[pool], graph.labels[pool], attacks.CONFIDENCE_CLAMP)
    phi = np.asarray(ensemble.phi)
    want = np.empty(pool.size)
    for j in range(pool.size):
        ins, outs = phi[membership[:, j], j], phi[~membership[:, j], j]
        var_in = max(ins.var(), attacks.VARIANCE_FLOOR)
        var_out = max(outs.var(), attacks.VARIANCE_FLOOR)
        want[j] = (norm.logpdf(x[j], ins.mean(), math.sqrt(var_in))
                   - norm.logpdf(x[j], outs.mean(), math.sqrt(var_out)))
    got = np.asarray(report.scores)
    if not np.allclose(got, want, rtol=1e-7, atol=1e-7, equal_nan=False):
        worst = float(np.nanmax(np.abs(got - want)))
        errors.append(f"{label}: LiRA scores differ from the recomputation by up to {worst}")

    member = np.asarray(report.member, dtype=bool)
    if not np.array_equal(member, graph.train_mask[pool]):
        errors.append(f"{label}: audit membership labels are not the target's train mask")
    valid = ~np.isnan(got)
    auc = mann_whitney_auc(got[valid], member[valid])
    if abs(auc - report.auc) > 1e-9:
        errors.append(f"{label}: AUC {report.auc} but Mann-Whitney gives {auc}")
    if dp is not None:
        for f, power in report.supremum.items():
            bound = min(1.0, math.exp(dp.epsilon_target) * f + dp.delta)
            if abs(power - bound) > 1e-12:
                errors.append(f"{label}: supremum power at {f} is {power}, expected {bound}")
        if not report.sound:
            errors.append(f"{label}: DP audit is not sound: TPR {report.tpr_at} "
                          f"against bound {report.supremum}")
    return errors


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_sweep(dg, out: Path, homophilies, privacy: dict, label: str) -> list[str]:
    """Aggregates and trends recomputed from the cell JSONs the sweep wrote."""
    errors = []
    by_key: dict[tuple, dict[float, float]] = {}
    long_rows = {}
    for h in homophilies:
        hdir = out / f"h{h:g}"
        cells = [json.loads(p.read_text(encoding="utf-8"))
                 for p in sorted((hdir / "cells").glob("*.json"))]
        # failed cells are counted by the caller; the aggregates leave them out
        cells = [c for c in cells if "error" not in c]
        groups: dict[tuple, list[float]] = {}
        for c in cells:
            key = (c["variant"], "" if c["epsilon"] is None else f"{c['epsilon']:g}")
            groups.setdefault(key, []).append(c["test_acc"])
            by_key.setdefault((*key, c["seed"]), {})[h] = c["test_acc"]
            if c["variant"] == "dp":
                m = privacy["batch_size"]
                n_train = c["graph"]["n_train"]
                delta = privacy.get("delta") or 1.0 / (10.0 * n_train)
                errors += check_accounting(dg, [c["final_log"]], c["epsilon"], delta,
                                           n_train, privacy["occurrence_bound"], m,
                                           f"{label}: {c['cell']} at h={h:g}")
        rows = {(r["variant"], r["epsilon"]): r for r in _read_csv(hdir / "aggregate.csv")}
        if set(rows) != set(groups):
            errors.append(f"{label}: h={h:g} aggregate groups {sorted(rows)} "
                          f"but cells give {sorted(groups)}")
        for key, accs in groups.items():
            long_rows[(f"{h:g}", *key)] = float(np.mean(accs))
            row = rows.get(key)
            if row is None:
                continue
            for col, want in (("mean_acc", np.mean(accs)), ("std_acc", np.std(accs))):
                if abs(float(row[col]) - want) > 5e-7 + 1e-12:
                    errors.append(f"{label}: h={h:g} {key} {col} {row[col]}, cells give {want:.6f}")
            if int(row["n_seeds"]) != len(accs):
                errors.append(f"{label}: h={h:g} {key} n_seeds {row['n_seeds']} != {len(accs)}")

    for r in _read_csv(out / "sweep.csv"):
        want = long_rows.get((r["homophily"], r["variant"], r["epsilon"]))
        if want is None or abs(float(r["mean_acc"]) - want) > 5e-7 + 1e-12:
            errors.append(f"{label}: sweep.csv row {r} does not match the cells ({want})")

    trend = json.loads((out / "trend.json").read_text(encoding="utf-8"))
    got = {(t["variant"], "" if t["epsilon"] is None else f"{t['epsilon']:g}", t["seed"]):
           t["spearman"] for t in trend["per_seed_spearman"]}
    by_key = {k: v for k, v in by_key.items() if len(v) >= 2}
    if set(got) != set(by_key):
        errors.append(f"{label}: trend.json covers {sorted(got)}, cells give {sorted(by_key)}")
    for key, accs in by_key.items():
        hs = sorted(accs)
        rho = spearmanr(hs, [accs[h] for h in hs]).statistic if len(set(accs.values())) > 1 else 0.0
        if key in got and abs(got[key] - rho) > 1e-12:
            errors.append(f"{label}: Spearman for {key} is {got[key]}, scipy gives {rho}")
    return errors


def recount_subgraphs(subgraphs, degrees: np.ndarray, max_degree: int,
                      occurrence_bound: int, label: str) -> tuple[list[str], int, int]:
    """Recount one sampled collection from its output alone.

    Returns (failures, max occurrence, starved roots): occurrences must stay
    within T and children per expansion within K; a starved root has
    neighbours in the graph but a root-only subgraph.
    """
    errors = []
    occurrence = np.zeros(degrees.size, dtype=np.int64)
    worst_children = starved = 0
    for sg in subgraphs:
        nodes = np.asarray(sg.nodes)
        if nodes[0] != sg.root or np.unique(nodes).size != nodes.size:
            errors.append(f"{label}: subgraph of root {sg.root} is malformed")
        occurrence[nodes] += 1
        edges = np.asarray(sg.edges).reshape(-1, 2)
        if edges.size:
            worst_children = max(worst_children, int(np.bincount(edges[:, 0]).max()))
        elif degrees[sg.root] > 0:
            starved += 1
    max_occurrence = int(occurrence.max())
    if max_occurrence > occurrence_bound:
        errors.append(f"{label}: a node occurs in {max_occurrence} subgraphs, bound {occurrence_bound}")
    if worst_children > max_degree:
        errors.append(f"{label}: an expansion kept {worst_children} children, bound {max_degree}")
    return errors, max_occurrence, starved
