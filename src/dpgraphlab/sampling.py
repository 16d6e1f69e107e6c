"""Occurrence-bounded neighborhood sampling for node-level DP training.

Every training node roots one subgraph: a BFS over at most ``hops`` levels
keeping at most ``max_degree`` freshly sampled neighbors per expanded node:
the first admissible ids of its neighbor list in a uniformly random order.
The loop runs on Python ints and shuffles each expansion's slice of one
neighbor-id list with ``rng.shuffle``, which makes the Fisher-Yates draws
of ``rng.permutation`` on the same ids.
A global occurrence counter caps how many subgraphs any node may join
(``occurrence_bound``, counting the node's own root subgraph), which is what
bounds the per-node sensitivity of a batch gradient.  Roots reserve their
own slot up front, so the cap holds over the whole collection by
construction.

:class:`SubgraphStore` keeps only the rows of each subgraph that its root
loss reads, resolved once per build: on the 1000-node benchmark graph at 3
hops the largest subgraph has 156 nodes, yet a 2-layer GCN reads 6 input
rows of each and 1 adjacency row (0.31 MB in all; 31 input rows, 6
adjacency rows and 2.3 MB for a 3-layer GCN).  It fills them a bounded
block of subgraphs at a time, so a build peaks near what the store keeps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graphs import PopulationGraph, _check_integer
from .nn import _propagated_side

logger = logging.getLogger(__name__)

# The most bytes a SubgraphStore build block's slab and features take.  The
# sweep's peak RSS was 2.0 MB below one whole slab's with 128 or 256 KiB
# blocks, 1.8 MB with 512 KiB and 1.1 MB with 1 MiB: larger blocks stay in
# the heap.
_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class SampledSubgraph:
    """BFS neighborhood rooted at one training node; loss attaches to the root only.

    ``nodes`` are global ids with the root first; ``edges`` are local-index
    pairs (parent, child) of the sampled BFS tree.
    """

    root: int
    nodes: np.ndarray
    edges: np.ndarray  # (E, 2) local indices

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
    for value, name in ((max_degree, "max_degree"), (hops, "hops"),
                        (occurrence_bound, "occurrence_bound")):
        _check_integer(value, name, 1)
    roots = np.flatnonzero(graph.train_mask)
    if roots.size == 0:
        raise ValueError("graph has no training nodes; assign splits first")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    # the loop runs on Python ints: CSR bounds, neighbor ids and counts
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    shuffle = rng.shuffle
    occurrence = [0] * graph.num_nodes
    for root in roots.tolist():
        occurrence[root] = 1  # each root's own subgraph claims one slot
    out: dict[int, SampledSubgraph] = {}
    starved = 0
    for root in rng.permutation(roots).tolist():
        nodes = [root]
        local = {root: 0}
        edges: list[tuple[int, int]] = []
        frontier = [root]
        for _ in range(hops):
            next_frontier: list[int] = []
            for u in frontier:
                lo, hi = indptr[u], indptr[u + 1]
                if lo == hi:
                    continue
                taken = 0
                neighbors = indices[lo:hi]
                shuffle(neighbors)
                for w in neighbors:
                    if taken == max_degree:
                        break
                    if w in local:
                        continue
                    if occurrence[w] >= occurrence_bound:
                        continue
                    occurrence[w] += 1
                    local[w] = len(nodes)
                    nodes.append(w)
                    edges.append((local[u], local[w]))
                    next_frontier.append(w)
                    taken += 1
            frontier = next_frontier
        if len(nodes) == 1 and indptr[root + 1] > indptr[root]:
            starved += 1
        out[root] = SampledSubgraph(
            root=root,
            nodes=np.asarray(nodes, dtype=np.int64),
            edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        )
    if starved:
        logger.info("subgraph sampler: %d/%d roots starved to root-only subgraphs",
                    starved, roots.size)
    return [out[r] for r in roots.tolist()]  # flatnonzero's roots are sorted


class SubgraphStore:
    """Per-subgraph dense arrays of one model's batched gradient computation,
    cut to the rows the root losses read.

    The build resolves, once over the whole store, ``rows``: the row prefix
    each layer reads, going back from the root row (see :mod:`dpgraphlab.nn`).
    With R = ``rows[0]`` and a the largest ``rows[l + 1]`` over the layers
    that propagate (0 for an MLP) the store keeps

    - ``adj``: each subgraph's normalized adjacency cut to the a rows those
      layers read and R columns, (N, a, R): (N, 1, 6) for the benchmark's
      2-layer GCN, whose one propagating layer reads the root row alone;
    - ``inputs``: each subgraph's first-layer input with a trailing ones
      column (see :mod:`dpgraphlab.nn`), (N, R, d + 1): A @ X for a
      ``gcn_conv`` first layer, X for a ``dense`` one;

    and a batch is a plain gather of both.  Rows past a subgraph's size are
    zero and contribute nothing.

    The nonzeros of all subgraphs are found at once, in O(nodes + edges)
    array operations: the diagonal and each tree edge both ways.  A row's
    count of them is its degree plus the self-loop, a ``bincount``, and the
    nonzero (u, v) is ``inv_sqrt[u] * inv_sqrt[v]``.  Each entry equals the
    one of D^{-1/2}(A+I)D^{-1/2} built per subgraph, bit for bit: the degrees
    are exact integers and the per-subgraph product only adds a factor 1.0.
    A row's last nonzero column, and so ``rows`` and ``cols`` (the last
    column those R rows touch), come from the nonzeros alone.

    The arrays are then filled a block of B subgraphs at a time, from the
    block's (B, R, cols) slab of adjacency rows and (B, cols, d) features,
    which together take at most ``_BLOCK_BYTES`` (B >= 1) and are reused
    from block to block.  ``adj`` is the slab's first a rows and R columns,
    and A @ X the slab times the features, written straight into
    ``inputs``.  numpy's stacked matmul makes one BLAS call per subgraph, so
    the blocks give the bits of one whole product.  On the benchmark graph
    the 3-layer build peaks at 3.7 MiB for the 2.3 MiB it keeps, where a
    build of all subgraphs in one block peaks at 31.9 MiB.
    """

    def __init__(self, graph: PopulationGraph, subgraphs: list[SampledSubgraph], layers):
        self.sizes = np.asarray([sg.size for sg in subgraphs])
        self.root_labels = graph.labels[[sg.root for sg in subgraphs]]
        n = len(subgraphs)
        offsets = np.cumsum(self.sizes) - self.sizes
        node_sub = np.repeat(np.arange(n), self.sizes)
        node_local = np.arange(node_sub.size) - offsets[node_sub]
        edge_sub = np.repeat(np.arange(n), [sg.edges.shape[0] for sg in subgraphs])
        u, v = np.concatenate([sg.edges for sg in subgraphs]).reshape(-1, 2).T
        # every nonzero of the collection's adjacencies (the diagonal, then each
        # tree edge both ways): its subgraph, its local row and column, and
        # (grow, gcol) their positions in the concatenation of all nodes
        sub = np.concatenate([node_sub, edge_sub, edge_sub])
        row, col = np.concatenate([node_local, u, v]), np.concatenate([node_local, v, u])
        grow, gcol = offsets[sub] + row, offsets[sub] + col

        ends = np.zeros(node_sub.size, dtype=np.int64)  # 1 + each row's last nonzero column
        np.maximum.at(ends, grow, col + 1)
        self.rows = [1]
        reach = 0  # the most adjacency rows a layer that propagates reads
        for l in range(len(layers) - 1, -1, -1):
            r = self.rows[0]
            if _propagated_side(l, layers[l]) is not None:
                reach = max(reach, r)
                r = int(ends[node_local < r].max())
            self.rows.insert(0, r)
        r = self.rows[0]
        cols = int(ends[node_local < r].max())

        inv_sqrt = 1.0 / np.sqrt(np.bincount(grow))  # a row's nonzeros: degree + self-loop
        d = graph.feat_dim
        block = min(n, max(1, _BLOCK_BYTES // (8 * cols * (r + d))))  # subgraphs per block
        # the nonzeros of the R rows in subgraph order (the diagonal's and each
        # edge direction's are three runs sorted by subgraph, which one stable
        # sort merges) and the feature rows of the cols columns, each with its
        # place in its block's flat slab or feature block
        keep = np.flatnonzero(row < r)
        keep = keep[np.argsort(sub[keep], kind="stable")]
        value = inv_sqrt[grow[keep]] * inv_sqrt[gcol[keep]]
        sub = sub[keep]
        place = (sub % block * r + row[keep]) * cols + col[keep]
        keep = np.flatnonzero(node_local < cols)
        node_ids = np.concatenate([sg.nodes for sg in subgraphs])[keep]
        node_sub = node_sub[keep]
        node_place = node_sub % block * cols + node_local[keep]

        self.adj = np.empty((n, reach, r))
        self.inputs = np.empty((n, r, d + 1))
        self.inputs[..., d] = 1.0  # layer 0's ones column (see nn._with_ones)
        slab, features = np.zeros((block, r, cols)), np.zeros((block, cols, d))
        flat_slab, flat_features = slab.reshape(-1), features.reshape(-1, d)
        starts = [*range(0, n, block), n]
        nz, fz = np.searchsorted(sub, starts).tolist(), np.searchsorted(node_sub, starts).tolist()
        for i, lo in enumerate(starts[:-1]):
            hi = starts[i + 1]
            j, k = slice(nz[i], nz[i + 1]), slice(fz[i], fz[i + 1])
            flat_slab[place[j]] = value[j]
            flat_features[node_place[k]] = graph.features[node_ids[k]]
            a, x = slab[:hi - lo], features[:hi - lo]
            self.adj[lo:hi] = a[:, :reach, :r]
            if layers[0].kind == "gcn_conv":
                np.matmul(a, x, out=self.inputs[lo:hi, :, :d])
            else:
                self.inputs[lo:hi, :, :d] = x[:, :r]
            flat_slab[place[j]], flat_features[node_place[k]] = 0.0, 0.0  # zero for the next block

    def __len__(self) -> int:
        return self.sizes.size

    def batch(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """(adj, inputs, root_labels, rows) for the given subgraph indices: the
        arguments of :func:`dpgraphlab.nn.subgraph_batch_gradients`."""
        return self.adj[idx], self.inputs[idx], self.root_labels[idx], self.rows


def _stack_stores(stores: list[SubgraphStore]) -> SubgraphStore:
    """One store of the subgraphs of ``stores``, store by store, which must
    resolve the same ``rows``: one batch of it gathers several models'
    batches.  The stack takes the stores' arrays over, so the subgraphs are
    not held twice; a single store is returned as it is."""
    if len(stores) == 1:
        return stores[0]
    stack = object.__new__(SubgraphStore)
    stack.rows = stores[0].rows
    for name in ("sizes", "root_labels", "adj", "inputs"):
        setattr(stack, name, np.concatenate([getattr(store, name) for store in stores]))
        for store in stores:
            delattr(store, name)
    return stack
