"""Occurrence-bounded neighborhood sampling for node-level DP training.

Every training node roots one subgraph: a BFS over at most ``hops`` levels
keeping at most ``max_degree`` freshly sampled neighbors per expanded node.
A global occurrence counter caps how many subgraphs any node may join
(``occurrence_bound``, counting the node's own root subgraph), which is what
bounds the per-node sensitivity of a batch gradient.  Roots reserve their
own slot up front, so the cap holds over the whole collection by
construction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graphs import PopulationGraph
from .nn import dense_normalized_adjacency

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SampledSubgraph:
    """BFS neighborhood rooted at one training node; loss attaches to the root only.

    ``nodes`` are global ids with the root first; ``edges`` are local-index
    pairs (parent, child) of the sampled BFS tree; ``hop`` is each node's
    BFS depth.
    """

    root: int
    nodes: np.ndarray
    edges: np.ndarray  # (E, 2) local indices
    hop: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.size


def sample_training_subgraphs(graph: PopulationGraph, max_degree: int, hops: int,
                              occurrence_bound: int, seed) -> list[SampledSubgraph]:
    """One occurrence-bounded subgraph per training node, in seeded random order.

    Starved roots (no admissible neighbors) yield root-only subgraphs and are
    logged.  The returned list is sorted by root id; the RNG order only
    affects which nodes win contested occurrence slots.
    """
    if occurrence_bound < 1:
        raise ValueError("occurrence_bound must be >= 1")
    if max_degree < 1 or hops < 1:
        raise ValueError("max_degree and hops must be >= 1")
    roots = np.flatnonzero(graph.train_mask)
    if roots.size == 0:
        raise ValueError("graph has no training nodes; assign splits first")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    occurrence = np.zeros(graph.num_nodes, dtype=np.int64)
    occurrence[roots] = 1  # each root's own subgraph claims one slot
    order = rng.permutation(roots)
    out: dict[int, SampledSubgraph] = {}
    starved = 0
    for root in order:
        nodes = [int(root)]
        local = {int(root): 0}
        edges: list[tuple[int, int]] = []
        hop = [0]
        frontier = [int(root)]
        for depth in range(1, hops + 1):
            next_frontier: list[int] = []
            for u in frontier:
                nbrs = graph.neighbors(u)
                if nbrs.size == 0:
                    continue
                taken = 0
                for w in rng.permutation(nbrs):
                    if taken == max_degree:
                        break
                    w = int(w)
                    if w in local:
                        continue
                    if occurrence[w] >= occurrence_bound:
                        continue
                    occurrence[w] += 1
                    local[w] = len(nodes)
                    nodes.append(w)
                    hop.append(depth)
                    edges.append((local[u], local[w]))
                    next_frontier.append(w)
                    taken += 1
            frontier = next_frontier
        if len(nodes) == 1 and graph.neighbors(int(root)).size > 0:
            starved += 1
        out[int(root)] = SampledSubgraph(
            root=int(root),
            nodes=np.asarray(nodes, dtype=np.int64),
            edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
            hop=np.asarray(hop, dtype=np.int64),
        )
    if starved:
        logger.info("subgraph sampler: %d/%d roots starved to root-only subgraphs",
                    starved, roots.size)
    return [out[int(r)] for r in np.sort(roots)]


class SubgraphStore:
    """Per-subgraph dense arrays prepared for batched gradient computation.

    Holds every subgraph's normalized adjacency and feature block in one
    zero-padded (N, s_max, s_max) and one (N, s_max, d) tensor, built once;
    a batch is a slice of them cut to its largest subgraph.  Padding rows are
    disconnected so they contribute nothing to root losses or gradients, and
    the gradient reads only the prefix of each padded block that lies in the
    root's receptive field (see :func:`dpgraphlab.nn.subgraph_batch_gradients`).
    """

    def __init__(self, graph: PopulationGraph, subgraphs: list[SampledSubgraph]):
        self.subgraphs = subgraphs
        self.root_labels = np.asarray([graph.labels[sg.root] for sg in subgraphs])
        self.sizes = np.asarray([sg.size for sg in subgraphs])
        s_max = int(self.sizes.max())
        self.adj = np.zeros((len(subgraphs), s_max, s_max))
        self.features = np.zeros((len(subgraphs), s_max, graph.feat_dim))
        for i, sg in enumerate(subgraphs):
            self.adj[i, :sg.size, :sg.size] = dense_normalized_adjacency(sg.size, sg.edges)
            self.features[i, :sg.size] = graph.features[sg.nodes]

    def __len__(self) -> int:
        return len(self.subgraphs)

    def batch(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded (adj, features, root_labels) stacks for the given subgraph indices."""
        idx = np.asarray(idx)
        s = int(self.sizes[idx].max())
        return self.adj[idx, :s, :s], self.features[idx, :s], self.root_labels[idx]
