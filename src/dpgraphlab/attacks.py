"""Likelihood-ratio membership inference (shadow-model LiRA) and ROC analysis.

The audit pool is the union of the target's train and test nodes.  Each
shadow model retrains the target's exact pipeline on one of a complementary
pair of random halves of the pool (a DP audit needs n_test == n_train, so
each half holds the target's N); per-node Gaussians fitted to the shadows'
scaled confidences give a likelihood-ratio score for the target's
confidence, evaluated at low false positive rates and compared against the
analytic supremum-power bound when the target was trained with DP.  Shadows
train in stacks of models that share each step, full-graph and DP alike,
each with the bits of its own training, two stacks at once.  The audit
reads only each shadow's params, so the stacks keep no logs: a non-DP
shadow scores only the val rows, to select its checkpoint, and a DP shadow
composes no epsilon.
"""

from __future__ import annotations

import logging
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .accounting import PrivacySpec, SubgraphSpec, supremum_power
from .graphs import PopulationGraph, _check_integer
from .nn import ModelParams, gcn_forward, normalize_adjacency
from .training import TrainConfig, _train_models

logger = logging.getLogger(__name__)

CONFIDENCE_CLAMP = 1e-7
VARIANCE_FLOOR = 1e-3
MIN_SHADOWS_EACH_SIDE = 8
DEFAULT_N_SHADOWS = 128
FPR_GRID = (0.001, 0.005, 0.01)
# shadows per stack: 1 MB of full-graph activations at 500 nodes x 32, and a
# 1.7 MB (8 m, n_params) DP batch gradient at m = 64 on the dp_audit model
_SHADOW_STACK = 8
# stacks trained at once, each holding its working set: 2 paid off, more was never measured
_SHADOW_THREADS = 2


class AuditSetupError(ValueError):
    """Raised when an audit setting is out of range, or when a DP audit's
    pool cannot give each shadow the target's N."""


@dataclass(frozen=True)
class AuditSpec:
    """A grid's shadow audit: the shadow count (paired halves put each audited
    node IN and OUT of MIN_SHADOWS_EACH_SIDE shadows at least), the offset
    from a cell's seed to its audit seed, and the FPR budgets of its ROC."""

    n_shadows: int = DEFAULT_N_SHADOWS
    seed_offset: int = 10_000
    fpr_grid: tuple = FPR_GRID

    def __post_init__(self):
        _check_integer(self.n_shadows, "audit n_shadows", 2 * MIN_SHADOWS_EACH_SIDE,
                       AuditSetupError)
        _check_integer(self.seed_offset, "audit seed_offset", 0, AuditSetupError)
        grid = self.fpr_grid
        if not (isinstance(grid, (list, tuple)) and grid and all(
                isinstance(f, numbers.Real) and not isinstance(f, bool) and 0 <= f <= 1
                for f in grid)):
            raise AuditSetupError(f"audit fpr_grid must be a nonempty list of numbers in [0, 1], "
                                  f"not {grid!r}")
        object.__setattr__(self, "fpr_grid", tuple(grid))


def scaled_confidence(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Logit-scaled true-class confidence: ln(p / (1 - p)), p clamped away from {0, 1}."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    p = exp[np.arange(labels.size), labels] / exp.sum(axis=1)
    p = np.clip(p, CONFIDENCE_CLAMP, 1.0 - CONFIDENCE_CLAMP)
    return np.log(p / (1.0 - p))


@dataclass(frozen=True)
class ShadowEnsemble:
    pool: np.ndarray  # audited node ids (target train + test)
    membership: np.ndarray  # (n_shadows, n_pool) bool, True = IN that shadow's train set
    phi: np.ndarray  # (n_shadows, n_pool) scaled confidences

    @property
    def n_shadows(self) -> int:
        return self.membership.shape[0]


def _check_parity(graph: PopulationGraph, spec) -> None:
    """A DP audit's rule: n_test == n_train, so each shadow's half has the target's N."""
    n_train, n_test = int(graph.train_mask.sum()), int(graph.test_mask.sum())
    if isinstance(spec, PrivacySpec) and n_test != n_train:
        raise AuditSetupError(f"a DP audit needs n_test == n_train, so that each shadow trains "
                              f"on the target's N: n_train={n_train}, n_test={n_test}")


def _shadow_membership(graph: PopulationGraph, spec, n_shadows: int, seed: int) -> tuple:
    """The audit pool and each shadow's IN set, once the audit's rules hold:
    complementary pairs, in which shadow 2k takes a random floor(P/2) of the
    P pool nodes and shadow 2k+1 the rest, so each node is IN in floor(S/2)
    or ceil(S/2) shadows; an odd count keeps the first ``n_shadows`` rows."""
    AuditSpec(n_shadows)  # checks the count
    _check_parity(graph, spec)
    pool = np.flatnonzero(graph.train_mask | graph.test_mask)
    if pool.size == 0:
        raise AuditSetupError("graph has no train/test nodes to audit")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    half = np.arange(pool.size) < pool.size // 2
    first = rng.permuted(np.broadcast_to(half, (-(-n_shadows // 2), pool.size)), axis=1)
    return pool, np.stack([first, ~first], axis=1).reshape(-1, pool.size)[:n_shadows]


def train_shadows(graph: PopulationGraph, config: TrainConfig,
                  spec: SubgraphSpec | None, n_shadows: int, seed: int) -> ShadowEnsemble:
    """Train shadow models on complementary pairs of halves of the audit pool.

    Each shadow re-masks the graph (IN nodes become the train set) and runs
    the same training pipeline as the target, with the target's ``spec``,
    including DP noise and the final-iterate release when auditing a DP
    model, whose n_test must equal n_train: each shadow then has the
    target's N and claim.  The original validation mask is kept; only non-DP
    shadows read it, to select their checkpoint.  Shadows of either source
    train _SHADOW_STACK at a time, one step over all; subgraph-source
    shadows whose stores resolve different rows or batch sizes split their
    stack.  Each keeps its own seed, sampler and streams, and each phi has
    the bits of its own ``train``.  The stacks keep no logs: no loss, train
    accuracy or epsilon is computed, and a non-DP shadow's checkpoint is
    selected on the val rows alone.  The stacks share nothing mutable and
    train _SHADOW_THREADS at once, all joined before phi is computed.
    """
    pool, membership = _shadow_membership(graph, spec, n_shadows, seed)
    seeds = np.random.SeedSequence(seed, spawn_key=(1,)).generate_state(n_shadows)
    train_masks = np.zeros((n_shadows, graph.num_nodes), dtype=bool)
    train_masks[:, pool] = membership

    def train_stack(start):  # the audit reads params only: the stacks keep no logs
        return _train_models(graph, config, spec, train_masks[start:start + _SHADOW_STACK],
                             seeds[start:start + _SHADOW_STACK], logs=False)

    starts = range(0, n_shadows, _SHADOW_STACK)
    workers = _shadow_workers(len(starts))
    if workers == 1:  # starts no thread, so Ctrl-C stops the stack at once
        stacks = [train_stack(start) for start in starts]
    else:
        from concurrent.futures import ThreadPoolExecutor  # so import dpgraphlab skips it
        executor = ThreadPoolExecutor(workers)
        try:  # in stack order, so the first failure raised is a serial run's
            stacks = list(executor.map(train_stack, starts))
        finally:  # cancels the stacks not started, and joins every thread
            executor.shutdown(cancel_futures=True)
    ctx = normalize_adjacency(graph)  # shadows re-mask the graph but keep its edges
    phi = [scaled_confidence(gcn_forward(ctx, params)[pool], graph.labels[pool])
           for stack in stacks for params, _ in stack]
    return ShadowEnsemble(pool=pool, membership=membership, phi=np.array(phi))


def _shadow_workers(n_stacks: int) -> int:
    """min(stacks, _SHADOW_THREADS, usable cores) threads; 1 in a multiprocessing child."""
    import multiprocessing
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return 1 if multiprocessing.parent_process() else min(n_stacks, _SHADOW_THREADS, cores or 1)


def lira_score(ensemble: ShadowEnsemble, target_phi: np.ndarray) -> np.ndarray:
    """Per-node log-likelihood ratio of the target confidence under IN vs OUT Gaussians.

    Nodes with fewer than two IN or OUT shadow observations are excluded
    (NaN score) with a warning; train_shadows' coverage is exact by construction.
    """
    n_pool = ensemble.pool.size
    if target_phi.shape != (n_pool,):
        raise ValueError("target_phi must align with the ensemble pool")
    membership, phi = ensemble.membership, ensemble.phi
    n_in = membership.sum(axis=0)
    n_out = membership.shape[0] - n_in

    def log_density(side, count):
        # Gaussian fitted to each node's shadows on one side, at the target
        # confidence; a count of 0 only occurs on excluded (NaN) nodes
        count = np.maximum(count, 1)
        mu = np.where(side, phi, 0.0).sum(axis=0) / count
        var = np.maximum((np.where(side, phi - mu, 0.0) ** 2).sum(axis=0) / count,
                         VARIANCE_FLOOR)
        return -0.5 * np.log(2.0 * np.pi * var) - (target_phi - mu) ** 2 / (2.0 * var)

    scores = log_density(membership, n_in) - log_density(~membership, n_out)
    excluded = (n_in < 2) | (n_out < 2)
    scores[excluded] = np.nan
    if excluded.any():
        logger.warning("lira_score: excluded %d nodes with insufficient IN/OUT coverage",
                       int(excluded.sum()))
    return scores


@dataclass(frozen=True)
class RocResult:
    points: np.ndarray  # (k, 2) of (fpr, tpr), nondecreasing
    auc: float
    tpr_at: dict  # fpr budget -> best TPR with FPR <= budget


def roc(scores: np.ndarray, member: np.ndarray,
        fpr_grid=FPR_GRID) -> RocResult:
    """Threshold sweep (descending scores, ties grouped) with trapezoid AUC.

    TPR at budget f is the best TPR among sweep points with FPR <= f.
    """
    scores = np.asarray(scores, dtype=np.float64)
    member = np.asarray(member, dtype=bool)
    if scores.shape != member.shape:
        raise ValueError("scores and membership labels must align")
    n_pos = int(member.sum())
    n_neg = int((~member).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both members and non-members")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    m_sorted = member[order]
    # group equal scores: keep only the last index of each tie block
    boundary = np.flatnonzero(np.diff(s_sorted) != 0)
    ends = np.concatenate([boundary, [scores.size - 1]])
    cum_tp = np.cumsum(m_sorted)[ends]
    cum_fp = np.cumsum(~m_sorted)[ends]
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    auc = float(np.trapezoid(tpr, fpr))
    tpr_at = {f: float(tpr[fpr <= f + 1e-12].max(initial=0.0)) for f in fpr_grid}
    return RocResult(points=np.column_stack([fpr, tpr]), auc=auc, tpr_at=tpr_at)


@dataclass(frozen=True)
class AttackReport:
    scores: np.ndarray
    member: np.ndarray
    roc_points: np.ndarray
    auc: float
    tpr_at: dict
    supremum: dict | None  # fpr -> analytic power bound (DP targets only)
    bound_ok: dict | None  # fpr -> empirical TPR within bound + binomial half-width
    n_members: int
    n_nonmembers: int
    n_shadows: int
    seed: int
    epsilon: float | None = None
    delta: float | None = None
    model_variant: str = ""

    @property
    def sound(self) -> bool:
        return self.bound_ok is None or all(self.bound_ok.values())

    def to_json(self) -> dict:
        out = {
            "model_variant": self.model_variant,
            "n_shadows": self.n_shadows,
            "auc": self.auc,
            "tpr": {str(k): v for k, v in self.tpr_at.items()},
            "n_members": self.n_members,
            "n_nonmembers": self.n_nonmembers,
            "seed": self.seed,
        }
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
            out["delta"] = self.delta
            out["supremum_power"] = {str(k): v for k, v in self.supremum.items()}
            out["bound_ok"] = {str(k): bool(v) for k, v in self.bound_ok.items()}
            out["sound"] = self.sound
        return out


def binomial_half_width(p: float, n: int) -> float:
    """95% normal-approximation half-width for a proportion estimated from n trials."""
    p = min(max(p, 0.0), 1.0)
    return 1.96 * np.sqrt(p * (1.0 - p) / max(n, 1))


def audit(target_params: ModelParams, graph: PopulationGraph, config: TrainConfig,
          n_shadows: int = DEFAULT_N_SHADOWS, seed: int = 0, dp: SubgraphSpec | None = None,
          fpr_grid=FPR_GRID, model_variant: str = "",
          ensemble: ShadowEnsemble | None = None) -> AttackReport:
    """Full LiRA audit of a trained model: shadows, scores, ROC, and bound check.

    Members are the target's training nodes, non-members its test nodes.
    ``dp`` is the target's spec, which the shadows train with.  For DP
    targets (a PrivacySpec) the report carries the supremum power at each
    FPR budget and a soundness flag (empirical TPR must not exceed the bound
    by more than the 95% binomial half-width for the member count).
    """
    fpr_grid = AuditSpec(fpr_grid=fpr_grid).fpr_grid  # checked before any shadow trains
    if ensemble is None:
        ensemble = train_shadows(graph, config, dp, n_shadows, seed)
    logits = gcn_forward(normalize_adjacency(graph), target_params)
    target_phi = scaled_confidence(logits[ensemble.pool], graph.labels[ensemble.pool])
    scores = lira_score(ensemble, target_phi)
    member = graph.train_mask[ensemble.pool]
    valid = ~np.isnan(scores)
    result = roc(scores[valid], member[valid], fpr_grid)
    n_members = int(member[valid].sum())
    supremum = bound_ok = epsilon = delta = None
    if isinstance(dp, PrivacySpec):
        epsilon, delta = dp.epsilon_target, dp.delta
        supremum = {f: supremum_power(epsilon, delta, f) for f in fpr_grid}
        bound_ok = {
            f: result.tpr_at[f] <= supremum[f] + binomial_half_width(supremum[f], n_members)
            for f in fpr_grid
        }
    return AttackReport(
        scores=scores,
        member=member,
        roc_points=result.points,
        auc=result.auc,
        tpr_at=result.tpr_at,
        supremum=supremum,
        bound_ok=bound_ok,
        n_members=n_members,
        n_nonmembers=int((~member[valid]).sum()),
        n_shadows=ensemble.n_shadows,
        seed=seed,
        epsilon=epsilon,
        delta=delta,
        model_variant=model_variant,
    )

