"""Homophily-controlled synthetic binary-classification graphs.

Features are class-conditional isotropic Gaussians around two centers; each
node wires ``neighbors_per_node`` slots, choosing a same-class partner with
probability ``target_homophily`` and a different-class partner otherwise.
The default feature geometry is calibrated so a feature-only linear
classifier lands near 65% accuracy, keeping the edge structure the dominant
signal when homophily is high.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .graphs import PopulationGraph, _check_integer, _check_number, csr_from_edges, edgeless_graph

_RETRY_CAP = 20


@dataclass(frozen=True)
class SyntheticSpec:
    num_nodes: int = 1000
    target_homophily: float = 0.8
    neighbors_per_node: int = 5
    feat_dim: int = 10
    class_separation: float = 1.6
    feature_noise_std: float = 1.0
    seed: int = 0

    num_classes: ClassVar[int] = 2  # binary task; even split between the two classes

    def __post_init__(self):
        # num_nodes holds a node per class at least
        for name, least in (("num_nodes", 2), ("neighbors_per_node", 1), ("feat_dim", 1)):
            _check_integer(getattr(self, name), name, least)
        for name in ("target_homophily", "class_separation", "feature_noise_std"):
            _check_number(getattr(self, name), name)
        if not 0.0 <= self.target_homophily <= 1.0:
            raise ValueError("target_homophily must lie in [0, 1]")
        if self.num_nodes % 2 != 0:
            raise ValueError("num_nodes must be even (balanced classes)")
        if not (math.isfinite(self.class_separation) and math.isfinite(self.feature_noise_std)):
            raise ValueError("class_separation and feature_noise_std must be finite")


def generate_synthetic(spec: SyntheticSpec) -> PopulationGraph:
    """Generate a seeded graph whose measured edge homophily tracks the target.

    Same seed gives bit-identical features and edge lists.  Union
    symmetrization perturbs the same-label edge rate slightly, so the target
    is matched approximately (within a couple of points at n=1000, k=5).
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.num_nodes
    half = n // 2
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])

    centers = np.zeros((2, spec.feat_dim))
    centers[0, 0] = -spec.class_separation / 2.0
    centers[1, 0] = +spec.class_separation / 2.0
    features = centers[labels] + spec.feature_noise_std * rng.standard_normal((n, spec.feat_dim))

    # the wiring loop runs on Python ints, with the same RNG calls in the same order
    class_members = [np.flatnonzero(labels == c).tolist() for c in (0, 1)]
    random, integers = rng.random, rng.integers
    edge_set: set[tuple[int, int]] = set()
    h = spec.target_homophily
    skipped = 0
    total_slots = n * spec.neighbors_per_node
    for v, label in enumerate(labels.tolist()):
        same, other = class_members[label], class_members[1 - label]
        for _ in range(spec.neighbors_per_node):
            placed = False
            for _ in range(_RETRY_CAP):
                pool = same if random() < h else other
                u = pool[integers(len(pool))]
                if u == v:
                    continue
                key = (v, u) if v < u else (u, v)
                if key in edge_set:
                    continue
                edge_set.add(key)
                placed = True
                break
            if not placed:
                skipped += 1

    meta = {
        "generator": "synthetic",
        "seed": spec.seed,
        "target_homophily": spec.target_homophily,
        "neighbors_per_node": spec.neighbors_per_node,
        "class_separation": spec.class_separation,
        "skipped_slots": skipped,
    }
    if skipped > 0.01 * total_slots:
        meta["generation_warning"] = (
            f"retry cap exhausted on {skipped}/{total_slots} neighbor slots"
        )

    graph = edgeless_graph(features, labels, num_classes=spec.num_classes, meta=meta)
    indptr, indices = csr_from_edges(n, sorted(edge_set))
    return graph.with_edges(indptr, indices)
