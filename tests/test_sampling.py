"""Occurrence-bounded subgraph sampling and its sensitivity guarantees."""

import dataclasses
import functools
import logging
import re
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

import dpgraphlab as dg
from dpgraphlab import sampling
from dpgraphlab.experiments import build_graph_for_cell, synthetic_benchmark_manifest
from dpgraphlab.sampling import SampledSubgraph, SubgraphStore
from dpgraphlab.training import subgraph_batch_gradients
from tests.test_graphs import make_graph
from tests.test_nn import assert_grad_close, finite_difference


def bfs_depths(sg) -> np.ndarray:
    """Each local node's BFS depth from the root (local index 0), read off
    the subgraph's edges alone: its hop distance in the sampled tree (inf
    for a node the edges do not reach)."""
    u, v = sg.edges.T
    tree = coo_matrix((np.ones(u.size), (u, v)), shape=(sg.size, sg.size))
    return shortest_path(tree, directed=False, unweighted=True, indices=0)


def dense_normalized_adjacency(n: int, edges: np.ndarray) -> np.ndarray:
    """Oracle of one subgraph's normalized adjacency: dense D^{-1/2}(A+I)D^{-1/2}
    of a small node set (edges are local (u, v) pairs)."""
    a = np.zeros((n, n))
    if edges.size:
        a[edges[:, 0], edges[:, 1]] = 1.0
        a[edges[:, 1], edges[:, 0]] = 1.0
    a[np.arange(n), np.arange(n)] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def audit_subgraphs(subgraphs, num_nodes):
    """Exhaustive recount of the sampler's guarantees from its output alone:
    per-node occurrence counts, their max, and the max number of sampled
    children any node contributed in one expansion."""
    occurrence = np.zeros(num_nodes, dtype=np.int64)
    max_children = 0
    for sg in subgraphs:
        occurrence[sg.nodes] += 1
        if sg.edges.size:
            max_children = max(max_children, int(np.bincount(sg.edges[:, 0]).max()))
    return {
        "occurrence": occurrence,
        "max_occurrence": int(occurrence.max()) if num_nodes else 0,
        "max_children_per_expansion": max_children,
    }


def shuffle_local_order(sg, rng):
    """The same subgraph with its non-root local nodes out of BFS order."""
    perm = np.concatenate([[0], 1 + rng.permutation(sg.size - 1)])  # perm[new] = old
    new_of_old = np.argsort(perm)
    return SampledSubgraph(root=sg.root, nodes=sg.nodes[perm], edges=new_of_old[sg.edges])


def star_graph(leaves=10):
    n = leaves + 1
    feats = np.zeros((n, 2))
    labels = np.zeros(n, dtype=int)
    edges = [(0, i) for i in range(1, n)]
    g = make_graph(feats, labels, edges, num_classes=1)
    train = np.zeros(n, bool)
    train[0] = True
    return g.with_masks(train, np.zeros(n, bool), np.zeros(n, bool))


def random_split_graph(rng, n=60, h=0.7):
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=n, target_homophily=h,
                                               seed=int(rng.integers(1 << 30))))
    return dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=int(rng.integers(1 << 30))))


def test_star_graph_cap_binds():
    g = star_graph(leaves=10)
    subs = dg.sample_training_subgraphs(g, max_degree=3, hops=1, occurrence_bound=4, seed=0)
    assert len(subs) == 1
    assert subs[0].size == 4  # center plus exactly K=3 leaves
    assert subs[0].root == 0
    assert np.all(bfs_depths(subs[0]) == np.array([0, 1, 1, 1]))


def test_occurrence_bound_one_gives_disjoint_subgraphs():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = random_split_graph(rng)
        subs = dg.sample_training_subgraphs(g, 3, 2, occurrence_bound=1, seed=1)
        seen = set()
        for sg in subs:
            nodes = set(sg.nodes.tolist())
            assert not (nodes & seen)
            seen |= nodes


def sampler_oracle(graph, max_degree, hops, occurrence_bound, seed):
    """sample_training_subgraphs' collection as (root, nodes, edges, hop) and
    its count of starved roots, by a numpy loop over the same RNG draws: one
    ``rng.permutation`` of the roots, then one of each expanded node's
    neighbor array (the sampler shuffles a list slice instead)."""
    roots = np.flatnonzero(graph.train_mask)
    rng = np.random.default_rng(seed)
    occurrence = np.zeros(graph.num_nodes, dtype=np.int64)
    occurrence[roots] = 1
    out = {}
    starved = 0
    for root in rng.permutation(roots):
        root = int(root)
        nodes, local, edges, hop, frontier = [root], {root: 0}, [], [0], [root]
        for depth in range(1, hops + 1):
            next_frontier = []
            for u in frontier:
                nbrs = graph.indices[graph.indptr[u]:graph.indptr[u + 1]]
                if nbrs.size == 0:
                    continue
                taken = 0
                for w in rng.permutation(nbrs):
                    if taken == max_degree:
                        break
                    w = int(w)
                    if w in local or occurrence[w] >= occurrence_bound:
                        continue
                    occurrence[w] += 1
                    local[w] = len(nodes)
                    nodes.append(w)
                    hop.append(depth)
                    edges.append((local[u], local[w]))
                    next_frontier.append(w)
                    taken += 1
            frontier = next_frontier
        out[root] = (nodes, edges, hop)
        starved += len(nodes) == 1 and graph.indptr[root + 1] > graph.indptr[root]
    return [(r, *out[r]) for r in sorted(out)], starved


def test_sampler_equals_numpy_loop_oracle(caplog):
    rng = np.random.default_rng(23)
    dense = dg.assign_splits(  # most nodes are roots: T=1 starves many of them
        dg.generate_synthetic(dg.SyntheticSpec(num_nodes=40, neighbors_per_node=2, seed=4)),
        dg.SplitSpec(0.9, 0.1, 0.0, seed=4))
    isolated = make_graph(np.zeros((6, 1)), np.zeros(6, dtype=int), [(0, 1), (1, 2)], 1)
    isolated = isolated.with_masks(np.ones(6, bool), np.zeros(6, bool), np.zeros(6, bool))
    cases = [(star_graph(), 3, 1, 4, 0), (dense, 5, 2, 1, 1), (dense, 2, 3, 2, 2),
             (isolated, 2, 2, 1, 3), (random_split_graph(rng, n=300), 5, 2, 6, 4)]
    cases += [(random_split_graph(rng), int(rng.integers(1, 6)), int(rng.integers(1, 4)),
               int(rng.integers(1, 8)), seed) for seed in range(5, 15)]
    # one neighbor per expansion, three hops deep
    cases += [(dense, 1, 3, 3, 15), (isolated, 1, 3, 2, 16),
              (random_split_graph(rng, n=200), 1, 3, 6, 17), (star_graph(), 1, 3, 1, 18)]
    total_starved = 0
    for g, K, r, T, seed in cases:
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="dpgraphlab.sampling"):
            subs = dg.sample_training_subgraphs(g, K, r, T, seed)
        want, starved = sampler_oracle(g, K, r, T, seed)
        assert [rec.getMessage() for rec in caplog.records] == (
            [f"subgraph sampler: {starved}/{len(want)} roots starved to root-only subgraphs"]
            if starved else [])
        total_starved += starved
        assert len(subs) == len(want)
        for sg, (root, nodes, edges, hop) in zip(subs, want):
            assert sg.root == root
            assert sg.nodes.dtype == sg.edges.dtype == np.int64
            assert np.array_equal(sg.nodes, nodes) and np.array_equal(bfs_depths(sg), hop)
            assert np.array_equal(sg.edges, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    assert total_starved > 0


def test_recount_on_random_graphs():
    rng = np.random.default_rng(1)
    for trial in range(20):
        g = random_split_graph(rng, n=50)
        K = int(rng.integers(1, 5))
        r = int(rng.integers(1, 4))
        T = int(rng.integers(1, 8))
        subs = dg.sample_training_subgraphs(g, K, r, T, seed=trial)
        assert len(subs) == int(g.train_mask.sum())
        out = audit_subgraphs(subs, g.num_nodes)
        assert out["max_occurrence"] <= T
        assert out["max_children_per_expansion"] <= K


def test_recount_on_synthetic_1000():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=1000, target_homophily=0.8, seed=3))
    g = dg.assign_splits(g, dg.SplitSpec(0.56, 0.14, 0.30, seed=4))
    subs = dg.sample_training_subgraphs(g, 5, 2, occurrence_bound=6, seed=5)
    out = audit_subgraphs(subs, g.num_nodes)
    assert out["max_occurrence"] <= 6
    assert out["max_children_per_expansion"] <= 5
    # the cap is actually contested on a graph this dense
    assert out["max_occurrence"] == 6


def test_roots_always_present():
    rng = np.random.default_rng(2)
    g = random_split_graph(rng)
    subs = dg.sample_training_subgraphs(g, 3, 2, 4, seed=0)
    roots = np.flatnonzero(g.train_mask)
    assert [sg.root for sg in subs] == roots.tolist()
    for sg in subs:
        assert sg.nodes[0] == sg.root


def test_sampler_deterministic():
    rng = np.random.default_rng(3)
    g = random_split_graph(rng)
    a = dg.sample_training_subgraphs(g, 3, 2, 4, seed=9)
    b = dg.sample_training_subgraphs(g, 3, 2, 4, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.nodes, y.nodes)
        assert np.array_equal(x.edges, y.edges)


def test_bfs_depths_within_radius():
    rng = np.random.default_rng(4)
    g = random_split_graph(rng)
    for r in (1, 2, 3):
        subs = dg.sample_training_subgraphs(g, 3, r, 6, seed=0)
        assert max(bfs_depths(sg).max() for sg in subs) <= r


def test_empirical_sensitivity_bound():
    # removing one node's subgraphs shifts the clipped sum by at most occ * C
    rng = np.random.default_rng(5)
    g = random_split_graph(rng, n=80)
    subs = dg.sample_training_subgraphs(g, 4, 2, 5, seed=0)
    params = dg.init_gcn(g.feat_dim, 8, 2, 2, seed=0)
    store = SubgraphStore(g, subs, params.layers)
    C = 0.5
    for trial in range(100):
        m = min(16, len(store))
        idx = rng.choice(len(store), size=m, replace=False)
        _, grads = subgraph_batch_gradients(*store.batch(idx), params)
        clipped = np.stack([dg.clip(gr, C) for gr in grads])
        v = int(rng.integers(g.num_nodes))
        contains = np.array([v in set(subs[i].nodes.tolist()) for i in idx])
        occ = int(contains.sum())
        shift = np.linalg.norm(clipped[contains].sum(axis=0)) if occ else 0.0
        assert shift <= occ * C + 1e-9


def padded_adjacency(subgraphs, dtype=np.float64):
    """Every subgraph's own dense normalized adjacency, zero-padded to the
    largest; with ``dtype=bool``, only where its nonzeros lie."""
    n, s = len(subgraphs), max(sg.size for sg in subgraphs)
    adj = np.zeros((n, s, s), dtype=dtype)
    for i, sg in enumerate(subgraphs):
        adj[i, :sg.size, :sg.size] = dense_normalized_adjacency(sg.size, sg.edges)
    return adj


def adjacency_reach(rows, layers):
    """How many adjacency rows a store keeps: the most that a ``gcn_conv``
    layer above the first reads, rows[l + 1] (0 for an MLP)."""
    return max([rows[l + 1] for l in range(1, len(layers)) if layers[l].kind == "gcn_conv"],
               default=0)


def slab_cols(adj, r):
    """How many columns the first r rows of a padded adjacency stack touch:
    the width of the store build's slab."""
    return int(np.flatnonzero(adj[:, :r].any(axis=(0, 1))).max()) + 1


def block_budget(graph, subgraphs, layers, block):
    """A ``sampling._BLOCK_BYTES`` that builds a store ``block`` subgraphs at a
    time: each takes an (R, cols) slab and (cols, d) features of float64."""
    pattern = padded_adjacency(subgraphs, dtype=bool)
    r = padded_receptive_rows(pattern, layers)[0]
    return block * 8 * slab_cols(pattern, r) * (r + graph.feat_dim)


def store_oracle(graph, subgraphs, layers):
    """(adj, inputs, rows) of a store, built one subgraph at a time: each block
    is the subgraph's own dense normalized adjacency and features, zero-padded,
    then cut to the receptive rows R = rows[0] of the whole padded stack; A @ X
    multiplies the first R rows into the first ``cols`` columns, the last that
    any of those rows touches.  ``adj`` is the square (R, R) cut."""
    adj = padded_adjacency(subgraphs)
    features = np.zeros((*adj.shape[:2], graph.feat_dim))
    for i, sg in enumerate(subgraphs):
        features[i, :sg.size] = graph.features[sg.nodes]
    rows = padded_receptive_rows(adj, layers)
    r = rows[0]
    cols = slab_cols(adj, r)
    if layers[0].kind == "gcn_conv":
        inputs = adj[:, :r, :cols] @ features[:, :cols]
    else:
        inputs = features[:, :r]
    return adj[:, :r, :r], inputs, rows


def root_only(roots):
    return [SampledSubgraph(root=int(r), nodes=np.array([r]),
                            edges=np.zeros((0, 2), dtype=np.int64)) for r in roots]


def init_dense_gcn(in_dim, hidden_dim, out_dim, num_layers, seed):
    """A GCN whose first layer is ``dense``: it reads the first R rows of X,
    and a root-only subgraph's rows past its root must stay zero."""
    gcn = dg.init_gcn(in_dim, hidden_dim, out_dim, num_layers, seed)
    return dg.ModelParams(flat=gcn.flat, layers=(
        dataclasses.replace(gcn.layers[0], kind="dense"), *gcn.layers[1:]))


def test_store_arrays_equal_per_subgraph_oracle(monkeypatch):
    # a build of all subgraphs in one block gives the per-subgraph construction's
    # arrays, cut to the store's receptive rows, bit for bit, also with local
    # indices out of BFS order; a build a block of 1 or 7 subgraphs at a time (7
    # does not divide the 30 roots) gives the one-block build's arrays bit for bit
    rng = np.random.default_rng(21)
    g = random_split_graph(rng, n=60)
    roots = np.flatnonzero(g.train_mask)
    mixed = dg.sample_training_subgraphs(g, 3, 2, 5, seed=3)
    mixed[::4] = root_only(roots[::4])
    cases = [(dg.init_gcn, hops, dg.sample_training_subgraphs(g, 3, hops, 5, seed=hops))
             for hops in (1, 2, 3)]
    cases += [(dg.init_mlp, 2, dg.sample_training_subgraphs(g, 3, 2, 5, seed=7)),
              (dg.init_gcn, 3, [shuffle_local_order(sg, rng) for sg in cases[2][2]]),
              (dg.init_gcn, 2, mixed),
              (init_dense_gcn, 2, mixed),
              (dg.init_gcn, 2, root_only(roots)),
              (dg.init_mlp, 2, root_only(roots))]
    assert roots.size % 7 != 0
    for init, num_layers, subs in cases:
        params = init(g.feat_dim, 8, g.num_classes, num_layers, seed=0)
        monkeypatch.setattr(sampling, "_BLOCK_BYTES", block_budget(g, subs, params.layers,
                                                                   len(subs)))
        store = SubgraphStore(g, subs, params.layers)
        adj, inputs, rows = store_oracle(g, subs, params.layers)
        assert np.array_equal(store.adj, adj[:, :adjacency_reach(rows, params.layers)])
        assert np.array_equal(store.inputs, np.concatenate(  # layer 0's ones column
            [inputs, np.ones((*inputs.shape[:2], 1))], axis=2))
        assert np.array_equal(store.rows, rows)
        assert np.array_equal(store.sizes, [sg.size for sg in subs])
        assert np.array_equal(store.root_labels, g.labels[[sg.root for sg in subs]])
        for block in (1, 7):
            monkeypatch.setattr(sampling, "_BLOCK_BYTES", block_budget(g, subs, params.layers,
                                                                       block))
            blocked = SubgraphStore(g, subs, params.layers)
            for name in ("adj", "inputs", "sizes", "root_labels"):
                assert np.array_equal(getattr(blocked, name), getattr(store, name))
            assert blocked.rows == store.rows
    assert store.adj.shape[1:] == (0, 1)


def test_store_batch_matches_singletons():
    rng = np.random.default_rng(6)
    g = random_split_graph(rng, n=60)
    subs = dg.sample_training_subgraphs(g, 3, 2, 5, seed=1)
    params = dg.init_gcn(g.feat_dim, 8, 2, 2, seed=2)
    store = SubgraphStore(g, subs, params.layers)
    idx = np.arange(min(6, len(store)))
    losses, grads = subgraph_batch_gradients(*store.batch(idx), params)
    for j, i in enumerate(idx):
        loss_1, grad_1 = subgraph_batch_gradients(*store.batch(np.array([i])), params)
        assert losses[j] == pytest.approx(loss_1[0], rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grads[j], grad_1[0], atol=1e-12)


def padded_receptive_rows(adj, layers):
    """Oracle of a batch's receptive rows, from its full padded adjacency:
    going back from the root row, a ``gcn_conv`` layer above the first reads
    every column with a nonzero in the rows the next layer reads; layer 0
    reads the rows of A @ X (or X) that it outputs."""
    rows = [1]
    for l in range(len(layers) - 1, -1, -1):
        r = rows[0]
        if l > 0 and layers[l].kind == "gcn_conv":
            r = int(np.flatnonzero(adj[:, :r].any(axis=(0, 1))).max()) + 1
        rows.insert(0, r)
    return rows


def test_store_batch_equals_padded_blocks():
    # oracle: the batch is each subgraph's own normalized adjacency and
    # first-layer input (A @ X for a GCN, X for an MLP), zero-padded to the
    # largest subgraph and cut to the store's receptive rows, which cover the
    # batch's own
    rng = np.random.default_rng(10)
    g = random_split_graph(rng, n=60)
    subs = dg.sample_training_subgraphs(g, 3, 2, 5, seed=4)
    s = max(sg.size for sg in subs)
    for params in (dg.init_gcn(g.feat_dim, 8, 2, 2, seed=0),
                   dg.init_gcn(g.feat_dim, 8, 2, 3, seed=0),
                   dg.init_mlp(g.feat_dim, 8, 2, 2, seed=0)):
        gcn = params.layers[0].kind == "gcn_conv"
        store = SubgraphStore(g, subs, params.layers)
        by_size = np.argsort(store.sizes, kind="stable")
        for idx in (by_size[:4], by_size[-4:], rng.permutation(by_size)[:10], by_size[[0, 0]]):
            want_adj = np.zeros((idx.size, s, s))
            want_inputs = np.zeros((idx.size, s, g.feat_dim + 1))
            want_inputs[..., -1] = 1.0  # layer 0's ones column
            for j, i in enumerate(idx):
                k = subs[i].size
                a = dense_normalized_adjacency(k, subs[i].edges)
                x = g.features[subs[i].nodes]
                want_adj[j, :k, :k] = a
                want_inputs[j, :k, :-1] = a @ x if gcn else x
            adj, inputs, labels, rows = store.batch(idx)
            r, reach = rows[0], adjacency_reach(rows, params.layers)
            assert rows == store.rows
            assert all(a >= b for a, b in zip(rows, padded_receptive_rows(want_adj,
                                                                          params.layers)))
            assert (adj.shape == (idx.size, reach, r)
                    and inputs.shape == (idx.size, r, g.feat_dim + 1))
            assert np.array_equal(adj, want_adj[:, :reach, :r])
            if gcn:
                np.testing.assert_allclose(inputs, want_inputs[:, :r], rtol=1e-12, atol=1e-15)
            else:
                assert np.array_equal(inputs, want_inputs[:, :r])
            assert np.array_equal(labels, g.labels[[subs[i].root for i in idx]])
    assert store.sizes.min() < store.sizes.max()


# Cases of the cross-path oracle: BFS order with depth == hops, non-root
# nodes shuffled out of BFS order, depth != hops, and an MLP.
ORACLE_CASES = [("gcn", 2, 2, False), ("gcn", 3, 3, False),
                ("gcn", 2, 2, True), ("gcn", 3, 2, True),
                ("gcn", 1, 2, False), ("gcn", 3, 2, False),
                ("mlp", 2, 2, False)]


def oracle_case_stores(rng):
    """(graph, subgraphs, params, store, batch indices) for each oracle case;
    the batch mixes the three largest and three smallest subgraphs."""
    for kind, num_layers, hops, shuffled in ORACLE_CASES:
        g = random_split_graph(rng, n=60)
        subs = dg.sample_training_subgraphs(g, 3, hops, 5, seed=num_layers)
        if shuffled:
            subs = [shuffle_local_order(sg, rng) for sg in subs]
        init = dg.init_gcn if kind == "gcn" else dg.init_mlp
        params = init(g.feat_dim, 8, g.num_classes, num_layers, seed=1)
        store = SubgraphStore(g, subs, params.layers)
        by_size = np.argsort(store.sizes, kind="stable")
        idx = np.concatenate([by_size[-3:], by_size[:3]])  # the small ones get padded
        assert store.sizes[idx].min() < store.sizes[idx].max()
        yield g, subs, params, store, idx


def test_batch_rows_match_loss_and_grad_on_own_graph():
    # cross-path oracle: a row of the batched core equals the full-graph path
    # run on that subgraph as its own graph, with only the root masked
    for g, subs, params, store, idx in oracle_case_stores(np.random.default_rng(9)):
        losses, grads = subgraph_batch_gradients(*store.batch(idx), params)
        for j, i in enumerate(idx):
            sg = subs[i]
            own = make_graph(g.features[sg.nodes], g.labels[sg.nodes], sg.edges, g.num_classes)
            root_only = np.arange(sg.size) == 0
            loss, grad = dg.loss_and_grad(dg.normalize_adjacency(own), params, own.labels,
                                          root_only)
            assert losses[j] == pytest.approx(loss, rel=1e-12)
            np.testing.assert_allclose(grads[j], grad, rtol=1e-12, atol=1e-15)


def test_store_rows_equal_receptive_rows_of_padded_adjacency():
    # the rows the store resolves at build equal the receptive rows of the
    # whole padded stack, cover every batch's own, and cut every batch
    rng = np.random.default_rng(19)
    for g, subs, params, store, idx in oracle_case_stores(np.random.default_rng(9)):
        full = padded_adjacency(subs)
        assert store.rows == padded_receptive_rows(full, params.layers)
        for batch in (idx, rng.permutation(len(store))[:8], idx[[0, 0]]):
            adj, inputs, _, rows = store.batch(batch)
            assert rows == store.rows
            assert all(a >= b for a, b in zip(rows, padded_receptive_rows(full[batch],
                                                                          params.layers)))
            assert adj.shape[1:] == (adjacency_reach(rows, params.layers), rows[0])
            assert inputs.shape[1] == rows[0]


def test_store_rows_independent_of_largest_subgraph():
    # on the 1000-node benchmark graph at 3 hops (K=5, T=6) the largest
    # subgraph has 156 nodes; the store keeps each one's receptive rows only,
    # and of its adjacency the rows a layer that propagates reads
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=1000, target_homophily=0.8,
                                               neighbors_per_node=5, feat_dim=10, seed=0))
    g = dg.assign_splits(g, dg.SplitSpec(0.56, 0.14, 0.30, seed=0))
    subs = dg.sample_training_subgraphs(g, 5, 3, 6, seed=0)
    pattern = padded_adjacency(subs, dtype=bool)
    n, s_max = len(subs), pattern.shape[1]
    assert s_max == 156
    for num_layers, a in ((2, 1), (3, 6)):
        params = dg.init_gcn(g.feat_dim, 32, g.num_classes, num_layers, seed=0)
        store = SubgraphStore(g, subs, params.layers)
        r = store.rows[0]
        assert store.rows == padded_receptive_rows(pattern, params.layers)
        assert store.adj.shape == (n, a, r) and store.inputs.shape == (n, r, g.feat_dim + 1)
        assert r < s_max
        if num_layers == 2:
            assert store.adj.nbytes + store.inputs.nbytes < 1e6


def test_store_build_peaks_near_what_it_keeps():
    # the build's transient is a block of subgraphs, not the whole (N, R, cols)
    # slab: at 3 layers on the 1000-node benchmark graph (3 hops, K=5, T=6) a
    # whole slab and its features would take 31.9 MiB for a 2.3 MiB store
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=1000, target_homophily=0.8,
                                               neighbors_per_node=5, feat_dim=10, seed=0))
    g = dg.assign_splits(g, dg.SplitSpec(0.56, 0.14, 0.30, seed=0))
    subs = dg.sample_training_subgraphs(g, 5, 3, 6, seed=0)
    params = dg.init_gcn(g.feat_dim, 32, g.num_classes, 3, seed=0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        store = SubgraphStore(g, subs, params.layers)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    kept = sum(getattr(store, name).nbytes for name in ("adj", "inputs", "sizes", "root_labels"))
    assert store.rows[0] == 31 and kept > 2 * 2**20
    assert peak <= 2 * kept


def test_batch_rows_independent_of_padding():
    # a batch cut to the store's receptive rows, the same batch zero-padded to
    # the store's s_max, with the rows of its padded adjacency, and the batch's
    # full square (s_max, s_max) adjacency blocks, with their own receptive
    # rows, give bit-identical losses and gradient rows
    rng = np.random.default_rng(11)
    g = random_split_graph(rng, n=60)
    subs = dg.sample_training_subgraphs(g, 3, 2, 5, seed=2)
    full = padded_adjacency(subs)
    for params in (dg.init_gcn(g.feat_dim, 8, 2, 2, seed=3), dg.init_gcn(g.feat_dim, 8, 2, 3, seed=4),
                   dg.init_mlp(g.feat_dim, 8, 2, 2, seed=5)):
        store = SubgraphStore(g, subs, params.layers)
        s = int(store.sizes.max())
        small = np.flatnonzero(store.sizes < s)
        assert small.size >= 8
        for idx in (rng.choice(small, size=8, replace=False), rng.permutation(len(store))[:8]):
            adj, inputs, labels, rows = store.batch(idx)
            r = rows[0]
            padded_adj = np.zeros((idx.size, s, s))
            padded_adj[:, :adj.shape[1], :r] = adj
            padded_inputs = np.zeros((idx.size, s, g.feat_dim + 1))
            padded_inputs[:, :r] = inputs
            cut = subgraph_batch_gradients(adj, inputs, labels, rows, params)
            padded = subgraph_batch_gradients(padded_adj, padded_inputs, labels,
                                              padded_receptive_rows(padded_adj, params.layers),
                                              params)
            square = subgraph_batch_gradients(full[idx], padded_inputs, labels,
                                              padded_receptive_rows(full[idx], params.layers),
                                              params)
            for got in (padded, square):
                assert np.array_equal(cut[0], got[0])
                assert np.array_equal(cut[1], got[1])


def test_batch_gradients_match_finite_differences():
    # each row against central differences of that subgraph's own root loss
    rng = np.random.default_rng(8)
    for num_layers in (2, 3):
        for trial in range(3):
            g = random_split_graph(rng, n=40)
            subs = dg.sample_training_subgraphs(g, 3, num_layers, 4, seed=trial)
            params = dg.init_gcn(g.feat_dim, 4, 2, num_layers, seed=trial)
            store = SubgraphStore(g, subs, params.layers)
            idx = rng.choice(len(store), size=min(4, len(store)), replace=False)
            batch = store.batch(idx)
            _, grads = subgraph_batch_gradients(*batch, params)
            for j, row in enumerate(grads):
                fd = finite_difference(
                    lambda: subgraph_batch_gradients(*batch, params)[0][j],
                    params.flat)
                assert_grad_close(row, fd, rel=1e-4)


def test_sampler_requires_masks():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=50, target_homophily=0.8, seed=0))
    with pytest.raises(ValueError):
        dg.sample_training_subgraphs(g, 3, 2, 4, seed=0)


@pytest.mark.parametrize("counts, message", [
    ((2.5, 1, 50), "max_degree must be an integer >= 1, not 2.5"),
    ((True, 1, 50), "max_degree must be an integer >= 1, not True"),
    ((2, 1, 2.5), "occurrence_bound must be an integer >= 1, not 2.5"),
    ((2, 1, True), "occurrence_bound must be an integer >= 1, not True"),
], ids=["float-K", "bool-K", "float-T", "bool-T"])
def test_sampler_rejects_a_count_that_is_not_an_integer(counts, message):
    # a float K never equals the count of children taken, so it dropped the
    # cap: at K = 2.5 the star's root kept all 14 leaves
    g = star_graph(leaves=14)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dg.sample_training_subgraphs(g, *counts, seed=0)


# ---------------------------------------------------------------- neighbour coupling

def without_node(graph, v):
    """``graph`` with node v removed: its features, label, masks and edges
    go, and every id above v shifts down by one."""
    keep = np.arange(graph.num_nodes) != v
    edges = graph.edge_array()
    edges = edges[(edges != v).all(axis=1)]
    edges -= edges > v
    g = make_graph(graph.features[keep], graph.labels[keep], edges, graph.num_classes)
    return g.with_masks(graph.train_mask[keep], graph.val_mask[keep], graph.test_mask[keep])


def audit_neighbor_coupling(graph, v, K, r, T, seed, sampler):
    """How many roots other than v have a subgraph that changes when v is
    removed and ``sampler`` runs again with the same seed, though it did not
    hold v.  A subgraph is its node list in original ids and its edges.  The
    accountant's sensitivity argument needs 0: removing v may change only
    the subgraphs that hold it, at most T of them."""
    before = {sg.root: sg for sg in sampler(graph, K, r, T, seed)}
    changed = 0
    for sg in sampler(without_node(graph, v), K, r, T, seed):
        nodes = sg.nodes + (sg.nodes >= v)  # back to original ids
        old = before[int(nodes[0])]
        if v not in old.nodes and not (np.array_equal(old.nodes, nodes)
                                       and np.array_equal(old.edges, sg.edges)):
            changed += 1
    return changed


def lowest_id_sampler(graph, max_degree, hops, occurrence_bound, seed):
    """A control that is local by construction: each train root and its K
    lowest-id neighbours, as a one-hop star."""
    out = []
    for root in np.flatnonzero(graph.train_mask).tolist():
        kept = np.sort(graph.indices[graph.indptr[root]:graph.indptr[root + 1]])[:max_degree]
        out.append(SampledSubgraph(root=root, nodes=np.concatenate([[root], kept]),
                                   edges=np.column_stack([np.zeros(kept.size, dtype=np.int64),
                                                          np.arange(1, kept.size + 1)])))
    return out


# the seed-0 benchmark graph (1000 nodes, h = 0.8, 560 train nodes), the
# benchmark's K, r and T, and ten removals of train and other nodes alike
REMOVALS = range(0, 1000, 100)


@functools.cache
def benchmark_graph():
    return build_graph_for_cell(synthetic_benchmark_manifest(), 0)


def coupling_counts(sampler):
    return [audit_neighbor_coupling(benchmark_graph(), v, 5, 2, 6, 0, sampler) for v in REMOVALS]


def test_local_control_sampler_keeps_every_subgraph_without_v():
    assert coupling_counts(lowest_id_sampler) == [0] * len(REMOVALS)


@pytest.mark.xfail(strict=True, reason="the greedy occurrence counter is global: removing "
                                       "a node moves subgraphs that never held it "
                                       "(ROADMAP item 1)")
def test_sampler_keeps_every_subgraph_without_v():
    assert coupling_counts(dg.sample_training_subgraphs) == [0] * len(REMOVALS)
