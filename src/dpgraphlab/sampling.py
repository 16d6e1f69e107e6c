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
from .nn import ForwardContext, dense_normalized_adjacency, receptive_rows

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
    """Per-subgraph dense arrays of one model's batched gradient computation.

    Built once for the model's layers, zero-padded to the largest subgraph:

    - ``adj``: each subgraph's normalized adjacency, (N, s_max, s_max);
    - ``inputs``: each subgraph's first-layer input, (N, s_max, d): A @ X
      for a ``gcn_conv`` first layer, X for a ``dense`` one;
    - ``reach``: (N, s_max + 1) ints, [i, k] is 1 + the last nonzero column
      in the first k rows of subgraph i's adjacency.

    A batch takes its receptive rows from ``reach``
    (:func:`dpgraphlab.nn.receptive_rows`) and copies only the first
    ``rows[0]`` rows and columns of each drawn block, all that the root
    losses read.  Padding rows are disconnected and contribute nothing.
    """

    def __init__(self, graph: PopulationGraph, subgraphs: list[SampledSubgraph], layers):
        self.subgraphs = subgraphs
        self.layers = tuple(layers)
        self.root_labels = np.asarray([graph.labels[sg.root] for sg in subgraphs])
        self.sizes = np.asarray([sg.size for sg in subgraphs])
        n, s_max = len(subgraphs), int(self.sizes.max())
        self.adj = np.zeros((n, s_max, s_max))
        features = np.zeros((n, s_max, graph.feat_dim))
        for i, sg in enumerate(subgraphs):
            self.adj[i, :sg.size, :sg.size] = dense_normalized_adjacency(sg.size, sg.edges)
            features[i, :sg.size] = graph.features[sg.nodes]
        self.inputs = ForwardContext(self.adj, features).first_layer_input(self.layers)
        nonzero = self.adj != 0.0
        ends = np.where(nonzero.any(axis=2), s_max - np.argmax(nonzero[:, :, ::-1], axis=2), 0)
        self.reach = np.zeros((n, s_max + 1), dtype=np.int64)
        np.maximum.accumulate(ends, axis=1, out=self.reach[:, 1:])

    def __len__(self) -> int:
        return len(self.subgraphs)

    def batch(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """(adj, inputs, root_labels, rows) for the given subgraph indices: the
        blocks cut to the batch's ``rows[0]`` receptive rows, and the row
        counts :func:`dpgraphlab.nn.subgraph_batch_gradients` takes."""
        idx = np.asarray(idx)
        rows = receptive_rows(self.reach[idx], self.layers)
        r = rows[0]
        return self.adj[idx, :r, :r], self.inputs[idx, :r], self.root_labels[idx], rows
