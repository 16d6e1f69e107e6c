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
from .nn import ForwardContext, receptive_rows

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

    The arrays are built for all subgraphs at once, in O(nodes + edges)
    array operations: each local node's degree (plus its self-loop) is a
    ``bincount`` over the concatenated tree edges, an edge (u, v) scatters
    ``inv_sqrt[u] * inv_sqrt[v]`` to [u, v] and [v, u], the diagonal gets
    ``inv_sqrt * inv_sqrt``, and the features are gathered through a padded
    (N, s_max) node-index matrix.  Each entry equals the one of
    D^{-1/2}(A+I)D^{-1/2} built per subgraph, bit for bit: the degrees are
    exact integers and the per-subgraph product only adds a factor 1.0.
    A row's last nonzero column is the largest of its own index and its
    neighbours', so ``reach`` too comes from the edges alone.
    """

    def __init__(self, graph: PopulationGraph, subgraphs: list[SampledSubgraph], layers):
        self.subgraphs = subgraphs
        self.layers = tuple(layers)
        self.sizes = np.asarray([sg.size for sg in subgraphs])
        self.root_labels = graph.labels[[sg.root for sg in subgraphs]]
        n, s_max = len(subgraphs), int(self.sizes.max())
        # every node and tree edge of the collection: its subgraph, its local
        # indices, and (gu, gv) its endpoints' positions in the concatenation
        offsets = np.cumsum(self.sizes) - self.sizes
        node_sub = np.repeat(np.arange(n), self.sizes)
        node_local = np.arange(node_sub.size) - offsets[node_sub]
        edge_sub = np.repeat(np.arange(n), [sg.edges.shape[0] for sg in subgraphs])
        u, v = np.concatenate([sg.edges for sg in subgraphs]).reshape(-1, 2).T
        gu, gv = offsets[edge_sub] + u, offsets[edge_sub] + v

        inv_sqrt = 1.0 / np.sqrt(np.bincount(np.concatenate([gu, gv]),
                                             minlength=node_sub.size) + 1)
        self.adj = np.zeros((n, s_max, s_max))
        self.adj[node_sub, node_local, node_local] = inv_sqrt * inv_sqrt
        self.adj[edge_sub, u, v] = self.adj[edge_sub, v, u] = inv_sqrt[gu] * inv_sqrt[gv]

        nodes = np.zeros((n, s_max), dtype=np.int64)
        nodes[node_sub, node_local] = np.concatenate([sg.nodes for sg in subgraphs])
        features = graph.features[nodes]
        features[np.arange(s_max) >= self.sizes[:, None]] = 0.0
        self.inputs = ForwardContext(self.adj, features).first_layer_input(self.layers)

        ends = np.zeros((n, s_max), dtype=np.int64)
        ends[node_sub, node_local] = node_local + 1
        np.maximum.at(ends, (edge_sub, u), v + 1)
        np.maximum.at(ends, (edge_sub, v), u + 1)
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
