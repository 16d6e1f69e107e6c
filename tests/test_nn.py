"""GCN/MLP numeric core: normalization, forward passes, gradients."""

import dataclasses
import re
from functools import partial

import numpy as np
import pytest
from scipy.special import softmax

import dpgraphlab as dg
from dpgraphlab import nn, training
from dpgraphlab.graphs import csr_from_edges
from dpgraphlab.nn import LayerSpec, ModelParams, _cross_entropy_rows, _StepWorkspace
from dpgraphlab.sampling import SampledSubgraph, SubgraphStore
from dpgraphlab.training import subgraph_batch_gradients
from tests.test_graphs import make_graph


def random_graph(rng, n=8, d=3, num_classes=2, n_edges=10):
    feats = rng.standard_normal((n, d))
    labels = rng.integers(0, num_classes, n)
    edges = set()
    while len(edges) < n_edges:
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return make_graph(feats, labels, sorted(edges), num_classes)


def finite_difference(fn, flat, step=1e-4):
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = fn()
        flat[i] = orig - step
        down = fn()
        flat[i] = orig
        grad[i] = (up - down) / (2 * step)
    return grad


def assert_grad_close(analytic, numeric, rel=1e-4):
    big = np.abs(analytic) > 1e-6
    assert big.any()
    err = np.abs(analytic[big] - numeric[big]) / np.abs(analytic[big])
    assert err.max() <= rel


# ---------------------------------------------------------------- normalization

def test_normalize_isolated_node():
    g = dg.edgeless_graph(np.array([[2.0]]), np.array([0]), 1)
    ctx = dg.normalize_adjacency(g)
    np.testing.assert_allclose(ctx.adj_norm.toarray(), [[1.0]])


def test_normalize_two_clique():
    g = make_graph([[1.0], [3.0]], [0, 1], [(0, 1)])
    ctx = dg.normalize_adjacency(g)
    np.testing.assert_allclose(ctx.adj_norm.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


def test_normalize_path3_hand_values():
    # degrees with self-loops (2, 3, 2); row sums 1/2 + 1/sqrt(6) and 2/sqrt(6) + 1/3
    g = make_graph([[0.0], [0.0], [0.0]], [0, 0, 0], [(0, 1), (1, 2)], num_classes=1)
    ah = dg.normalize_adjacency(g).adj_norm.toarray()
    np.testing.assert_allclose(ah, ah.T, atol=1e-15)
    outer = 0.5 + 1 / np.sqrt(6)
    center = 2 / np.sqrt(6) + 1 / 3
    np.testing.assert_allclose(ah.sum(axis=1), [outer, center, outer], atol=1e-12)
    assert ah.sum(axis=1).max() <= 1.15


# ---------------------------------------------------------------- forward passes

def test_gcn_forward_isolated_identity():
    g = dg.edgeless_graph(np.array([[1.5, -2.0]]), np.array([0]), 2)
    params = ModelParams(flat=np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
                         layers=(LayerSpec(2, 2, "gcn_conv"),))
    logits = dg.gcn_forward(dg.normalize_adjacency(g), params)
    np.testing.assert_allclose(logits, [[1.5, -2.0]])


def test_gcn_forward_zero_weights_uniform_softmax():
    g = random_graph(np.random.default_rng(0))
    params = dg.init_gcn(3, 4, 2, 2, seed=0)
    params.flat[:] = 0.0
    logits = dg.gcn_forward(dg.normalize_adjacency(g), params)
    np.testing.assert_allclose(logits, 0.0)
    np.testing.assert_allclose(softmax(logits, axis=1), 0.5)


def test_gcn_forward_two_clique_average():
    # Ahat all 0.5; X = [[1], [3]]; W = [[1]]: every logit 0.5*1 + 0.5*3 = 2
    g = make_graph([[1.0], [3.0]], [0, 1], [(0, 1)])
    params = ModelParams(flat=np.array([1.0, 0.0]), layers=(LayerSpec(1, 1, "gcn_conv"),))
    logits = dg.gcn_forward(dg.normalize_adjacency(g), params)
    np.testing.assert_allclose(logits, [[2.0], [2.0]], atol=1e-12)


def test_gcn_forward_matches_dense_layer_by_layer():
    # oracle: (A @ H) @ W + b per layer with a dense adjacency, whichever side
    # of W the package propagates
    rng = np.random.default_rng(12)
    for dims in ((6, 3, 2, 3), (3, 8, 2, 2), (6, 16, 2, 3), (6, 4, 2, 1), (10, 4, 2, 2)):
        g = random_graph(rng, n=9, d=dims[0])
        params = dg.init_gcn(*dims, seed=int(rng.integers(100)))
        params.flat[:] += 0.1 * rng.standard_normal(params.flat.size)  # nonzero biases
        ctx = dg.normalize_adjacency(g)
        a = ctx.adj_norm.toarray()
        h = g.features
        for l in range(len(params.layers)):
            w, b = nn._weight_bias_views(params.flat, params.layers, l)
            h = (a @ h) @ w + b
            if l < len(params.layers) - 1:
                h = np.maximum(h, 0.0)
        got = dg.gcn_forward(ctx, params)
        np.testing.assert_allclose(got, h, rtol=1e-12, atol=1e-12 * np.abs(h).max())


def test_shape_error():
    g = random_graph(np.random.default_rng(2))
    params = dg.init_gcn(5, 4, 2, 2, seed=0)  # wrong in_dim
    with pytest.raises(dg.ShapeError):
        dg.gcn_forward(dg.normalize_adjacency(g), params)


# ---------------------------------------------------------------- loss

def test_loss_uniform_prediction_ln2():
    g = random_graph(np.random.default_rng(3))
    params = dg.init_gcn(3, 4, 2, 2, seed=0)
    params.flat[:] = 0.0
    loss, _ = dg.loss_and_grad(dg.normalize_adjacency(g), params, g.labels,
                               np.ones(g.num_nodes, bool))
    assert loss == pytest.approx(np.log(2), abs=1e-12)


def test_loss_saturated_softmax_near_zero():
    labels = np.array([0, 1, 0])
    logits = np.eye(2)[labels] * 1000.0
    losses, d_rows = _cross_entropy_rows(logits, labels, np.arange(3) * 2)
    assert np.all(losses < 1e-6)
    assert np.all(np.isfinite(d_rows))


def fancy_cross_entropy_rows(logits, labels):
    """Oracle of ``_cross_entropy_rows``: the same shifted log-softmax, with
    each row's label entry read and written by [rows, labels] indexing."""
    rows = np.arange(labels.size)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    losses = np.log(total[:, 0]) - shifted[rows, labels]
    exp /= total
    exp[rows, labels] -= 1.0
    return losses, exp


def test_cross_entropy_rows_equals_fancy_index_oracle():
    rng = np.random.default_rng(31)
    for rows, classes in ((1, 2), (1, 7), (2, 2), (9, 2), (9, 7), (64, 7)):
        for scale in (1.0, 30.0):
            logits = scale * rng.standard_normal((rows, classes))
            for labels in (rng.integers(classes, size=rows), np.zeros(rows, dtype=np.int64),
                           np.full(rows, classes - 1)):  # repeated labels
                got = _cross_entropy_rows(logits, labels, np.arange(rows) * classes)
                want = fancy_cross_entropy_rows(logits, labels)
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert g.tobytes() == w.tobytes()


def test_loss_empty_mask_error():
    g = random_graph(np.random.default_rng(4))
    params = dg.init_gcn(3, 4, 2, 2, seed=0)
    with pytest.raises(ValueError):
        dg.loss_and_grad(dg.normalize_adjacency(g), params, g.labels,
                         np.zeros(g.num_nodes, bool))


# ---------------------------------------------------------------- gradients

def test_gcn_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for trial in range(5):
        g = random_graph(rng, n=8)
        mask = np.zeros(8, bool)
        mask[rng.choice(8, 4, replace=False)] = True
        ctx = dg.normalize_adjacency(g)
        params = dg.init_gcn(3, 4, 2, 2, seed=trial)
        _, grad = dg.loss_and_grad(ctx, params, g.labels, mask)
        fd = finite_difference(lambda: dg.loss_and_grad(ctx, params, g.labels, mask)[0],
                               params.flat)
        assert_grad_close(grad, fd)
    for trial in range(3):  # a narrowing first layer, 10 -> 4, on the precomputed A @ X
        g = random_graph(rng, n=8, d=10)
        mask = np.zeros(8, bool)
        mask[rng.choice(8, 4, replace=False)] = True
        ctx = dg.normalize_adjacency(g)
        params = dg.init_gcn(10, 4, 2, 2, seed=trial)
        params.flat[:] += 0.1 * rng.standard_normal(params.flat.size)
        _, grad = dg.loss_and_grad(ctx, params, g.labels, mask)
        fd = finite_difference(lambda: dg.loss_and_grad(ctx, params, g.labels, mask)[0],
                               params.flat)
        assert_grad_close(grad, fd)


def test_narrowing_gcn_gradient_matches_finite_differences():
    # 6 -> 3 -> 3 -> 2: the first and last layers propagate their output, the
    # middle one its input
    rng = np.random.default_rng(13)
    for trial in range(3):
        g = random_graph(rng, n=9, d=6)
        mask = np.zeros(9, bool)
        mask[rng.choice(9, 5, replace=False)] = True
        ctx = dg.normalize_adjacency(g)
        params = dg.init_gcn(6, 3, 2, 3, seed=trial)
        params.flat[:] += 0.1 * rng.standard_normal(params.flat.size)
        _, grad = dg.loss_and_grad(ctx, params, g.labels, mask)
        fd = finite_difference(lambda: dg.loss_and_grad(ctx, params, g.labels, mask)[0],
                               params.flat)
        assert_grad_close(grad, fd)


def test_narrowing_gcn_batch_gradients_match_finite_differences():
    # a zero-padded batch of subgraphs of 2, 5 and 3 nodes, root at index 0
    rng = np.random.default_rng(14)
    sizes = (2, 5, 3)
    feats = np.zeros((sum(sizes), 6))
    labels = np.zeros(sum(sizes), dtype=int)
    subs = []
    for root, k, label in zip(np.cumsum((0,) + sizes[:-1]), sizes, (0, 1, 1)):
        edges = np.array([(0, v) for v in range(1, k)] + [(v, v + 1) for v in range(1, k - 1)])
        subs.append(SampledSubgraph(root=int(root), nodes=root + np.arange(k),
                                    edges=edges.reshape(-1, 2)))
        feats[root:root + k] = rng.standard_normal((k, 6))
        labels[root] = label
    params = dg.init_gcn(6, 3, 2, 3, seed=4)
    params.flat[:] += 0.1 * rng.standard_normal(params.flat.size)
    store = SubgraphStore(dg.edgeless_graph(feats, labels, 2), subs, params.layers)
    batch = store.batch(np.arange(len(sizes)))
    _, grads = subgraph_batch_gradients(*batch, params)
    for j in range(len(sizes)):
        fd = finite_difference(lambda: subgraph_batch_gradients(*batch, params)[0][j],
                               params.flat)
        assert_grad_close(grads[j], fd)


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    for trial in range(3):
        feats = rng.standard_normal((10, 4))
        labels = rng.integers(0, 3, 10)
        mask = np.ones(10, bool)
        params = dg.init_mlp(4, 5, 3, 2, seed=trial)
        ctx = dg.ForwardContext(adj_norm=None, features=feats)  # dense layers skip adj
        _, grad = dg.loss_and_grad(ctx, params, labels, mask)
        fd = finite_difference(lambda: dg.loss_and_grad(ctx, params, labels, mask)[0],
                               params.flat)
        assert_grad_close(grad, fd)


def test_single_layer_mlp_is_logistic_regression():
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((6, 3))
    labels = rng.integers(0, 2, 6)
    params = dg.init_mlp(3, 0, 2, 1, seed=0)  # hidden unused for one layer
    w, b = nn._weight_bias_views(params.flat, params.layers, 0)
    logits = dg.gcn_forward(dg.ForwardContext(adj_norm=None, features=feats), params)
    np.testing.assert_allclose(logits, feats @ w + b, atol=1e-12)


def test_mlp_ignores_edges():
    rng = np.random.default_rng(8)
    g1 = random_graph(rng, n=12, n_edges=8)
    g2 = g1.with_edges(*csr_from_edges(12, [(0, 1)]))
    cfg = dg.TrainConfig(model_kind="mlp", epochs=30, seed=3, mode="full_graph")
    g1 = dg.assign_splits(g1, dg.SplitSpec(0.5, 0.25, 0.25, seed=1))
    g2 = g2.with_masks(g1.train_mask, g1.val_mask, g1.test_mask)
    p1, log1 = dg.train(g1, cfg)
    p2, log2 = dg.train(g2, cfg)
    assert [r["loss"] for r in log1] == [r["loss"] for r in log2]
    np.testing.assert_array_equal(p1.flat, p2.flat)


def unfolded_gradients(adj, x, params, labels, loss_rows=None, rows=None):
    """Oracle of the core with layer 0 unfolded: each layer computes p @ w + b
    and sums dz over rows for its bias gradient, in the package's layer order.

    ``x`` is layer 0's input without the ones column.  A sparse ``adj`` is the
    full graph, whose mean loss over ``loss_rows`` is differentiated; a dense
    (m, s, s) stack with ``rows`` is a batch of root losses, one gradient row
    each.  Returns (losses, logits, gradient)."""
    layers = params.layers
    h = x if rows is None else x[:, :rows[0]]
    cache = []
    for l, spec in enumerate(layers):
        w, b = nn._weight_bias_views(params.flat, params.layers, l)
        a = adj if rows is None else adj[:, :rows[l + 1], :rows[l]]
        side = None
        if l > 0 and spec.kind == "gcn_conv":
            side = "output" if spec.out_dim < spec.in_dim else "input"
        p = a @ h if side == "input" else h
        z = p @ w
        if side == "output":
            z = a @ z
        z = z + b
        cache.append((h, p, side))
        h = np.maximum(z, 0.0) if l < len(layers) - 1 else z
    logits = h
    if rows is None:
        losses, d = fancy_cross_entropy_rows(logits[loss_rows], labels)
        dz = np.zeros_like(logits)
        dz[loss_rows] = d / loss_rows.size
    else:
        losses, d = fancy_cross_entropy_rows(logits[:, 0, :], labels)
        dz = d[:, None, :]
    grads = []
    for l in range(len(layers) - 1, -1, -1):
        w, _ = nn._weight_bias_views(params.flat, params.layers, l)
        h, p, side = cache[l]
        a = adj if rows is None else adj[:, :rows[l], :rows[l + 1]]
        db = np.einsum("...rk->...k", dz)
        if side == "output":
            dz = a @ dz
        dw = np.swapaxes(p, -1, -2) @ dz
        grads[:0] = [dw.reshape(*dw.shape[:-2], -1), db]
        if l > 0:
            dh = dz @ w.T
            if side == "input":
                dh = a @ dh
            dz = dh * (h > 0.0)
    return losses, logits, np.concatenate(grads, axis=-1)


def test_layer0_fold_matches_unfolded_oracle():
    # layer 0 multiplies its input, with a ones column, by the [w; b] block; the
    # oracle adds b and sums its gradient.  How the BLAS kernel orders the
    # extra term varies by CPU, so the check is rtol 1e-14 rather than equality
    g = workspace_graph()
    ctx = dg.normalize_adjacency(g)
    loss_rows = np.flatnonzero(g.train_mask)
    rng = np.random.default_rng(17)

    def close(got, want):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())

    for init, num_layers, hidden in ((dg.init_gcn, 1, 8), (dg.init_gcn, 2, 6),
                                     (dg.init_gcn, 3, 16), (dg.init_gcn, 2, 1),
                                     (dg.init_mlp, 2, 6)):
        params = init(g.feat_dim, hidden, g.num_classes, num_layers, seed=num_layers)
        params.flat[:] += 0.1 * rng.standard_normal(params.flat.size)  # nonzero biases
        gcn = params.layers[0].kind == "gcn_conv"
        x = ctx.adj_norm @ g.features if gcn else g.features
        assert np.array_equal(ctx.first_layer_input(params.layers)[:, :-1], x)
        assert np.all(ctx.first_layer_input(params.layers)[:, -1] == 1.0)
        losses, logits, grad = unfolded_gradients(ctx.adj_norm, x, params,
                                                  g.labels[loss_rows], loss_rows)
        loss, got = dg.loss_and_grad(ctx, params, g.labels, g.train_mask)
        close(loss, losses.mean())
        close(got, grad)
        close(dg.gcn_forward(ctx, params), logits)

        subgraphs = dg.sample_training_subgraphs(g, 3, num_layers, 5, seed=num_layers)
        store = SubgraphStore(g, subgraphs, params.layers)
        adj, inputs, labels, rows = store.batch(rng.choice(len(store), 8, replace=False))
        assert np.all(inputs[..., -1] == 1.0)
        losses, _, grads = unfolded_gradients(adj, inputs[..., :-1], params, labels, rows=rows)
        got_losses, got_grads = subgraph_batch_gradients(adj, inputs, labels, rows, params)
        close(got_losses, losses)
        close(got_grads, grads)


def per_slice_batch_gradients(adj, inputs, labels, rows, params):
    """Oracle of ``subgraph_batch_gradients`` that runs each subgraph alone in
    2-D arrays: the package's layer order and [w; b] fold, with every weight
    product taken over one subgraph's rows.  Returns (losses, gradients)."""
    layers = params.layers
    block = params.flat[:layers[0].size].reshape(layers[0].in_dim + 1, layers[0].out_dim)
    weights = [(block, None)] + [nn._weight_bias_views(params.flat, layers, l)
                                 for l in range(1, len(layers))]
    sides = [None] + [None if s.kind != "gcn_conv" else "output" if s.out_dim < s.in_dim
                      else "input" for s in layers[1:]]
    last = len(layers) - 1
    all_losses, all_grads = [], []
    for i in range(labels.size):
        h, cache = inputs[i, :rows[0]], []
        for l, ((w, b), side) in enumerate(zip(weights, sides)):
            a = adj[i, :rows[l + 1], :rows[l]]
            p = a @ h if side == "input" else h
            z = p @ w
            if side == "output":
                z = a @ z
            if b is not None:
                z = z + b
            cache.append((h, p))
            h = np.maximum(z, 0.0) if l < last else z
        losses, dz = fancy_cross_entropy_rows(h[:1], labels[i:i + 1])
        grads = []
        for l in range(last, -1, -1):
            (w, b), side = weights[l], sides[l]
            h, p = cache[l]
            a = adj[i, :rows[l], :rows[l + 1]]
            db = dz.sum(axis=0)
            if side == "output":
                dz = a @ dz
            dw = p.T @ dz
            grads[:0] = [dw.ravel()] + ([] if b is None else [db])
            if l > 0:
                dh = dz @ w.T
                if side == "input":
                    dh = a @ dh
                dz = dh * (h > 0.0)
        all_losses.append(losses[0])
        all_grads.append(np.concatenate(grads))
    return np.array(all_losses), np.stack(all_grads)


def test_stacked_row_products_match_per_slice_products():
    # a batch takes each shared-weight product (p @ w, dz @ w.T) as one 2-D
    # product over all its subgraphs' rows; the BLAS kernel may order a row's
    # sum differently from a per-subgraph product, so the check is rtol 1e-14
    # plus 1e-14 of the largest entry, not equality
    g = workspace_graph()
    rng = np.random.default_rng(41)
    for init, num_layers, hidden in ((dg.init_gcn, 2, 32), (dg.init_gcn, 3, 32),
                                     (dg.init_gcn, 2, 1), (dg.init_mlp, 2, 32),
                                     (dg.init_mlp, 3, 16)):
        params = init(g.feat_dim, hidden, g.num_classes, num_layers, seed=num_layers)
        params.flat[:] += 0.1 * rng.standard_normal(params.flat.size)  # nonzero biases
        subgraphs = dg.sample_training_subgraphs(g, 5, num_layers, 6, seed=num_layers)
        store = SubgraphStore(g, subgraphs, params.layers)
        batch = store.batch(rng.choice(len(store), 24, replace=False))
        want_losses, want = per_slice_batch_gradients(*batch, params)
        losses, got = subgraph_batch_gradients(*batch, params)
        np.testing.assert_allclose(losses, want_losses, rtol=1e-14,
                                   atol=1e-14 * np.abs(want_losses).max())
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


def test_weights_make_each_models_2d_product():
    # each model's block of a stacked (S * m, r, k) batch makes the call of
    # p @ w over its m * r rows, so the bits of a one-model batch, for a
    # transposed w too (the backward pass's w.T); rows cut from longer
    # subgraphs are copied, not misread; a full-graph stack's shared input
    # is each model's p @ w
    rng = np.random.default_rng(43)
    w = rng.standard_normal((2, 7, 3))
    stack = rng.standard_normal((2 * 5, 9, 7))
    for p in (stack, stack[:, :4]):
        got = nn._weights(p, w)
        assert got.shape == (*p.shape[:-1], 3)
        for s, rows in enumerate(np.split(p, 2)):
            flat = np.ascontiguousarray(rows).reshape(-1, 7)
            assert got[5 * s:5 * (s + 1)].tobytes() == (flat @ w[s]).tobytes()
    q = rng.standard_normal((2 * 5, 1, 3))
    got = nn._weights(q, w.swapaxes(-1, -2))
    for s in range(2):
        assert got[5 * s:5 * (s + 1)].tobytes() == (q[5 * s:5 * (s + 1), 0] @ w[s].T).tobytes()
    x = rng.standard_normal((40, 7))
    got = nn._weights(x, w)
    assert all(got[s].tobytes() == (x @ w[s]).tobytes() for s in range(2))


# ---------------------------------------------------------------- model invariances

def test_permutation_equivariance():
    rng = np.random.default_rng(9)
    g = random_graph(rng, n=10, n_edges=14)
    g = dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=0))
    params = dg.init_gcn(3, 4, 2, 2, seed=1)
    loss, _ = dg.loss_and_grad(dg.normalize_adjacency(g), params, g.labels, g.train_mask)
    acc = dg.evaluate(g, params, g.test_mask)

    perm = rng.permutation(10)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(10)
    edges = [(min(inv[u], inv[v]), max(inv[u], inv[v])) for u, v in g.edge_array()]
    pg = make_graph(g.features[perm], g.labels[perm], edges)
    pg = pg.with_masks(g.train_mask[perm], g.val_mask[perm], g.test_mask[perm])
    loss_p, _ = dg.loss_and_grad(dg.normalize_adjacency(pg), params, pg.labels, pg.train_mask)
    assert loss_p == pytest.approx(loss, abs=1e-9)
    assert dg.evaluate(pg, params, pg.test_mask) == pytest.approx(acc, abs=1e-9)


def test_r_hop_locality():
    # an r-layer GCN's logits at v depend only on features within r hops
    rng = np.random.default_rng(10)
    for trial in range(3):
        g = random_graph(rng, n=14, n_edges=16)
        params = dg.init_gcn(3, 4, 2, 2, seed=trial)
        logits = dg.gcn_forward(dg.normalize_adjacency(g), params)
        v = int(rng.integers(14))
        ball = {v}
        for _ in range(2):
            ball |= {int(w) for u in list(ball) for w in g.indices[g.indptr[u]:g.indptr[u + 1]]}
        feats = g.features.copy()
        feats[[u for u in range(14) if u not in ball]] = 0.0
        g_zeroed = make_graph(feats, g.labels, [tuple(e) for e in g.edge_array()])
        logits_zeroed = dg.gcn_forward(dg.normalize_adjacency(g_zeroed), params)
        np.testing.assert_allclose(logits_zeroed[v], logits[v], atol=1e-12)


def test_full_graph_training_deterministic():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=120, target_homophily=0.8, seed=0))
    g = dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=1))
    cfg = dg.TrainConfig(epochs=40, seed=5)
    p1, _ = dg.train(g, cfg)
    p2, _ = dg.train(g, cfg)
    np.testing.assert_array_equal(p1.flat, p2.flat)


def test_full_graph_log_loss_is_interval_mean():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=80, target_homophily=0.8, seed=0))
    g = dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=1))
    _, every_step = dg.train(g, dg.TrainConfig(epochs=10, seed=4, eval_every=1))
    _, log = dg.train(g, dg.TrainConfig(epochs=10, seed=4, eval_every=3))
    losses = [r["loss"] for r in every_step]
    assert [r["step"] for r in log] == [3, 6, 9, 10]
    for record, lo in zip(log, (0, 3, 6, 9)):
        assert record["loss"] == pytest.approx(np.mean(losses[lo:record["step"]]), rel=1e-12)


def checkpoint_graph():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=200, target_homophily=0.6,
                                               class_separation=0.8, seed=3))
    return dg.assign_splits(g, dg.SplitSpec(0.3, 0.3, 0.4, seed=3))


def train_dp(g, eval_every):
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True, eval_every=eval_every,
                         optimizer="sgd", learning_rate=0.05, seed=7)
    return dg.train(g, cfg, dg.PrivacySpec(epsilon_target=10.0, delta=1e-3, batch_size=16,
                                           total_steps=60))


def test_checkpoint_matches_its_log_record():
    # a record's accuracies come from the params after its step's update, the
    # params a checkpoint saves: the returned model reproduces the best record
    g = checkpoint_graph()
    for every in (1, 3):
        params, log = dg.train(g, dg.TrainConfig(epochs=60, eval_every=every, seed=13))
        best = max(r["val_acc"] for r in log)
        chosen = [r for r in log if r["val_acc"] == best][-1]  # ties keep the latest
        assert dg.evaluate(g, params, g.val_mask) == best
        assert dg.evaluate(g, params, g.train_mask) == chosen["train_acc"]


def test_dp_releases_the_final_iterate():
    # no checkpoint is selected on private labels, so the evaluation interval
    # cannot change what a DP run releases
    g = checkpoint_graph()
    released = [train_dp(g, every)[0].flat for every in (1, 5, 60)]
    assert [r.tobytes() == released[0].tobytes() for r in released[1:]] == [True, True]


def test_dp_log_records_hold_only_accounted_fields():
    g = checkpoint_graph()
    for every in (1, 5, 60):
        _, log = train_dp(g, every)
        assert [r["step"] for r in log] == list(range(every, 61, every))
        for record in log:
            assert set(record) == {"step", "loss", "epsilon_spent", "sigma"}


def test_dp_train_runs_no_full_graph_pass(monkeypatch):
    g = checkpoint_graph()
    expected = train_dp(g, 5)

    def refuse(*args, **kwargs):
        raise AssertionError("DP training ran a full-graph pass")

    monkeypatch.setattr(training, "normalize_adjacency", refuse)
    monkeypatch.setattr(training, "gcn_forward", refuse)
    params, log = train_dp(g, 5)
    np.testing.assert_array_equal(params.flat, expected[0].flat)
    assert log == expected[1]


# ---------------------------------------------------------------- the DP mechanism

def test_dp_step_noise_std_is_sigma_times_2c_over_m():
    # one momentum-SGD step at learning rate 1 releases init - update.
    # Removing a node moves a batch's clipped sum by up to Delta = 2C, so the
    # sum's noise has std sigma * 2C and the update's sigma * 2C / m per
    # coordinate; at this sigma the clipped mean (norm <= C) is lost in it
    g = checkpoint_graph()
    sigma, C, m = 1000.0, 0.5, 16
    spec = dg.PrivacySpec(1.0, 1e-3, clip_norm=C, noise_multiplier=sigma, batch_size=m,
                          total_steps=1)
    updates = []
    for seed in range(4):
        cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True, optimizer="sgd",
                             learning_rate=1.0, seed=seed)
        params, _ = dg.train(g, cfg, spec)
        init = dg.init_gcn(g.feat_dim, cfg.hidden_dim, g.num_classes, cfg.num_layers, seed)
        updates.append(init.flat - params.flat)
    assert np.concatenate(updates).std() == pytest.approx(sigma * 2 * C / m, rel=0.04)


def test_one_dp_step_equals_an_oracle_built_from_public_pieces(monkeypatch):
    # An oracle of the claim, not of the code: one DP step recomputed from the
    # public pieces alone and compared with the update train() hands its
    # optimizer.  The model's sampler, batch and noise streams are keys 1, 2
    # and 3 of its seed; each batch subgraph's gradient is loss_and_grad on
    # that subgraph as its own graph (its tree edges, its root the one loss
    # row), clipped to C; the clipped sum takes noise at std sigma * Delta,
    # with Delta = 2C because a subgraph that survives a node's removal moves
    # by up to 2C (the accounting module docstring), and is divided by m.
    # The gradients take another path than training's batched store, so the
    # match is to 1e-12 of the update's scale, not bit for bit.
    g = dp_stack_graph()
    epsilon, delta, C, K, r, T, m, seed = 5.0, 1e-3, 0.5, 3, 2, 4, 16, 5
    spec = dg.PrivacySpec(epsilon, delta, clip_norm=C, max_degree=K, hops=r, occurrence_bound=T,
                          batch_size=m, total_steps=1)
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True, optimizer="sgd",
                         learning_rate=1.0, seed=seed)
    applied, sgd_step = [], training._Sgd.step

    def spied_step(optimizer, flat, grad):
        applied.append(grad.copy())
        return sgd_step(optimizer, flat, grad)

    monkeypatch.setattr(training._Sgd, "step", spied_step)
    dg.train(g, cfg, spec)
    (update,) = applied

    def stream(key):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))

    params = dg.init_gcn(g.feat_dim, cfg.hidden_dim, g.num_classes, cfg.num_layers, seed)
    subgraphs = dg.sample_training_subgraphs(g, K, r, T, stream(1))
    N = len(subgraphs)
    total = np.zeros(params.flat.size)
    for i in stream(2).choice(N, size=m, replace=False):
        sg = subgraphs[i]
        own = make_graph(g.features[sg.nodes], g.labels[sg.nodes], sg.edges, g.num_classes)
        _, grad = dg.loss_and_grad(dg.normalize_adjacency(own), params, own.labels,
                                   np.arange(sg.size) == 0)
        total += dg.clip(grad, C)
    sigma = dg.calibrate_sigma(epsilon, delta, 1, N, T, m)
    want = (total + stream(3).normal(0.0, sigma * 2 * C, size=total.size)) / m
    assert update.shape == (1, want.size)
    np.testing.assert_allclose(update[0], want, rtol=0, atol=1e-12 * np.abs(want).max())


def spy_subgraph_runs(monkeypatch):
    """Lists that fill as subgraph-source runs train: each model's feed and
    store size, in stack order, each step's gathered indices, and each
    clipping step's (S, n) noise (or None)."""
    feeds, sizes, rows, noises = [], [], [], []
    batch, noisy_means = SubgraphStore.batch, training._noisy_batch_means

    class Feed(training._SubgraphFeed):
        def __init__(self, *args):
            super().__init__(*args)
            feeds.append(self)
            sizes.append(len(self.store))

    def spied_batch(store, idx):
        rows.append(np.array(idx))
        return batch(store, idx)

    def spied_means(grads, clip_norm, noise, out):
        noises.append(None if noise is None else noise.copy())
        return noisy_means(grads, clip_norm, noise, out)

    monkeypatch.setattr(training, "_SubgraphFeed", Feed)
    monkeypatch.setattr(SubgraphStore, "batch", spied_batch)
    monkeypatch.setattr(training, "_noisy_batch_means", spied_means)
    return feeds, sizes, rows, noises


def dp_stack_graph():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=120, target_homophily=0.7, seed=4))
    return dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=4))


@pytest.mark.parametrize("models", [1, 3])
def test_every_dp_step_gathers_m_distinct_subgraphs_of_each_model(monkeypatch, models):
    # the accountant's hypergeometric batch rate: each step holds m distinct
    # subgraphs of each model's own store (its block of the stacked store)
    g = dp_stack_graph()
    feeds, sizes, rows, _ = spy_subgraph_runs(monkeypatch)
    m, steps = 16, 30
    spec = dg.PrivacySpec(10.0, 1e-3, batch_size=m, total_steps=steps)
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True, optimizer="sgd",
                         learning_rate=0.05, seed=2)
    if models == 1:
        dg.train(g, cfg, spec)
    else:
        training._train_models(g, cfg, spec, np.repeat(g.train_mask[None], models, axis=0),
                               [2, 3, 4])
    assert len(feeds) == models and len(rows) == steps
    starts = np.cumsum([0] + sizes)
    for row in rows:
        assert row.shape == (models * m,)
        for start, end, part in zip(starts, starts[1:], row.reshape(models, m)):
            assert np.unique(part).size == m
            assert start <= part.min() and part.max() < end


def test_a_bulk_normal_fill_equals_one_draw_per_step():
    # the subgraph source's windowed noise: one (W, n) draw is the W draws of n
    W = training._WINDOW
    for n in (1, 7, 418):
        bulk, per_step = np.random.default_rng(n), np.random.default_rng(n)
        got = bulk.normal(0.0, 2.5, size=(W, n))
        want = np.stack([per_step.normal(0.0, 2.5, size=n) for _ in range(W)])
        assert got.tobytes() == want.tobytes()
        assert bulk.bit_generator.state == per_step.bit_generator.state


@pytest.mark.parametrize("variant", ["dp", "subgraph_clip", "subgraphing"])
def test_windowed_draws_equal_a_per_step_replay(monkeypatch, variant):
    # a stack of 3 draws its batches and noise a window at a time: each step
    # gathers the batches of a per-step replay of each model's batch stream
    # and, in DP, adds the rows of a per-step replay of its noise stream at
    # std sigma * 2C; each stream ends where its replay leaves it, so a short
    # last window draws no step too many
    W = training._WINDOW
    g = dp_stack_graph()
    seeds, m = [5, 6, 7], 8
    masks = np.repeat(g.train_mask[None], len(seeds), axis=0)
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=variant != "subgraphing",
                         noise=variant == "dp", optimizer="sgd", learning_rate=0.05,
                         eval_every=10, seed=0)
    n = training._init_model(g, cfg).flat.size
    spied = spy_subgraph_runs(monkeypatch)
    feeds, sizes, rows, noises = spied
    for steps in (W - 1, W, 2 * W + 3):
        knobs = dict(max_degree=3, occurrence_bound=4, batch_size=m, total_steps=steps)
        spec = (dg.PrivacySpec(5.0, 1e-3, **knobs) if variant == "dp"
                else dg.SubgraphSpec(clip_norm=0.05, **knobs))
        for spied_list in spied:
            spied_list.clear()
        training._train_models(g, cfg, spec, masks, seeds, logs=False)
        assert len(feeds) == len(seeds) and len(rows) == steps
        starts = np.cumsum([0] + sizes[:-1])
        want = np.empty((steps, len(seeds) * m), dtype=np.intp)
        want_noise = np.empty((steps, len(seeds), n))
        if variant == "dp":
            std = dg.calibrate_sigma(5.0, 1e-3, steps, int(g.train_mask.sum()),
                                     spec.effective_occurrence_bound, m) * 2 * spec.clip_norm
        for s, (feed, seed, size, start) in enumerate(zip(feeds, seeds, sizes, starts)):
            batch_rng, noise_rng = training._stream(seed, 2), training._stream(seed, 3)
            for step in range(steps):
                want[step, s * m:(s + 1) * m] = batch_rng.choice(size, size=m,
                                                                 replace=False) + start
                if variant == "dp":
                    want_noise[step, s] = noise_rng.normal(0.0, std, size=n)
            assert feed.batch_rng.bit_generator.state == batch_rng.bit_generator.state
            assert feed.noise_rng.bit_generator.state == noise_rng.bit_generator.state
        np.testing.assert_array_equal(np.stack(rows), want)
        if variant == "dp":
            np.testing.assert_array_equal(np.stack(noises), want_noise)
        else:
            assert noises == ([None] * steps if variant == "subgraph_clip" else [])


def test_zero_learning_rate_is_null_update():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=80, target_homophily=0.8, seed=0))
    g = dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=1))
    cfg = dg.TrainConfig(epochs=10, learning_rate=0.0, seed=2)
    init = dg.init_gcn(g.feat_dim, cfg.hidden_dim, 2, 2, seed=2)
    params, log = dg.train(g, cfg)
    np.testing.assert_array_equal(params.flat, init.flat)
    losses = [r["loss"] for r in log]
    assert max(losses) - min(losses) < 1e-12


# ---------------------------------------------------------------- reused step buffers

def workspace_graph():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=90, target_homophily=0.7, seed=2))
    return dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=2))


def test_full_graph_workspace_matches_fresh_calls():
    g = workspace_graph()
    for model_kind in ("gcn", "mlp"):
        cfg = dg.TrainConfig(num_layers=3, hidden_dim=6, model_kind=model_kind, seed=1)
        params = training._init_model(g, cfg)
        ctx = dg.normalize_adjacency(g)
        adj, x = ctx.adj_norm, ctx.first_layer_input(params.layers)
        ws = _StepWorkspace(params.flat[None], params.layers, adj=adj, labels=g.labels,
                            masks=g.train_mask[None], val_mask=g.val_mask)
        _, _, source = training._full_graph_source(cfg, dg.SubgraphSpec(), ws, adj, x)
        # the source's logits are the train rows, then the val rows
        rows = np.concatenate([np.flatnonzero(g.train_mask), np.flatnonzero(g.val_mask)])
        adam = training._Adam(cfg.learning_rate)
        for _ in range(20):
            (loss,), (grad,), logits = next(source)  # a stack of one model
            fresh = dg.loss_and_grad(ctx, params, g.labels, g.train_mask)
            assert loss == fresh[0]
            np.testing.assert_array_equal(grad, fresh[1])
            want = dg.gcn_forward(ctx, params)[rows]
            np.testing.assert_array_equal(logits[0], want)
            # a record's own forward pass over the workspace's rows
            np.testing.assert_array_equal(nn._forward(ws, adj, x, keep_cache=False)[0][0], want)
            adam.step(params.flat, grad)


def full_row_loss_grad_and_logits(params, adj, x, labels, mask):
    """Oracle of the full-graph step that computes every row: the full-row
    forward pass, the loss gradient scattered into an (n, C) d_logits whose
    other rows are zero, and the full-row backward pass."""
    ws = _StepWorkspace(params.flat[None], params.layers)
    logits, cache = nn._forward(ws, adj, x, keep_cache=True)
    logits = logits[0]  # a stack of one model
    idx = np.flatnonzero(mask)
    losses, d_rows = fancy_cross_entropy_rows(logits[idx], labels[idx])
    d_rows /= idx.size
    d_logits = np.zeros_like(logits)
    d_logits[idx] = d_rows
    grad = nn._backward(ws, adj, cache, d_logits[None])[0].copy()
    return float(losses.sum() / idx.size), grad, logits


def cut_step(params, ctx, labels, mask, val_mask):
    """The training step's loss, gradient and E-row logits, and E."""
    adj, x = ctx.adj_norm, ctx.first_layer_input(params.layers)
    ws = _StepWorkspace(params.flat[None], params.layers, adj=adj, labels=labels,
                        masks=mask[None], val_mask=val_mask)
    (loss,), (grad,), logits = nn._masked_loss_grad_and_logits(ws, adj, x)
    return loss, grad, logits[0], ws.rows


def row_cut_masks(g):
    """(train, val) pairs: the graph's own, no val rows, val overlapping
    train (E repeats rows), and a single loss row."""
    n = g.num_nodes
    one = np.zeros(n, dtype=bool)
    one[np.flatnonzero(g.train_mask)[3]] = True
    overlap = g.val_mask.copy()
    overlap[np.flatnonzero(g.train_mask)[::2]] = True
    return [(g.train_mask, g.val_mask), (g.train_mask, np.zeros(n, dtype=bool)),
            (g.train_mask, overlap), (one, g.val_mask)]


def relabeled(g, num_classes, seed):
    labels = np.random.default_rng(seed).integers(0, num_classes, g.num_nodes)
    return dataclasses.replace(g, labels=labels, num_classes=num_classes)


def test_row_cut_step_equals_full_row_oracle_for_narrowing_outputs():
    # a narrowing last layer (classes < hidden) propagates its output: the
    # kept logits are the same CSR row sums and the backward pass drops only
    # +0.0 terms, so the cut step is bit-identical to the full-row step
    g = workspace_graph()
    ctx = dg.normalize_adjacency(g)
    rng = np.random.default_rng(23)
    for num_layers, hidden in ((2, 32), (2, 6), (3, 32), (3, 48)):
        params = dg.init_gcn(g.feat_dim, hidden, 2, num_layers, seed=hidden)
        params.flat[:] += 0.1 * rng.standard_normal(params.flat.size)  # nonzero biases
        x = ctx.first_layer_input(params.layers)
        for mask, val_mask in row_cut_masks(g):
            loss, grad, logits, rows = cut_step(params, ctx, g.labels, mask, val_mask)
            want = full_row_loss_grad_and_logits(params, ctx.adj_norm, x, g.labels, mask)
            assert rows.size == mask.sum() + val_mask.sum()
            np.testing.assert_array_equal(rows[:mask.sum()], np.flatnonzero(mask))
            assert loss == want[0]
            np.testing.assert_array_equal(grad, want[1])
            np.testing.assert_array_equal(logits, want[2][rows])


@pytest.mark.parametrize("hidden", [32, 48])
def test_row_cut_chaotic_adam_clipping_run_equals_full_row_oracle(hidden):
    # full-graph adam with clipping amplifies any last-bit difference, so 60
    # equal steps show that no step differs at all
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=200, target_homophily=0.7,
                                               feat_dim=40, seed=11))
    g = dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=11))
    ctx = dg.normalize_adjacency(g)
    params = dg.init_gcn(g.feat_dim, hidden, 2, 3, seed=12)
    oracle = dg.ModelParams(flat=params.flat.copy(), layers=params.layers)
    x = ctx.first_layer_input(params.layers)
    cfg = dg.TrainConfig(num_layers=3, hidden_dim=hidden, clipping=True, seed=12)
    ws = _StepWorkspace(params.flat[None], params.layers, adj=ctx.adj_norm, labels=g.labels,
                        masks=g.train_mask[None], val_mask=g.val_mask)
    _, _, source = training._full_graph_source(cfg, dg.SubgraphSpec(clip_norm=0.5), ws,
                                               ctx.adj_norm, x)
    adam, oracle_adam = training._Adam(1e-2), training._Adam(1e-2)
    for _ in range(60):
        _, (update,), _ = next(source)
        adam.step(params.flat, update)
        _, grad, _ = full_row_loss_grad_and_logits(oracle, ctx.adj_norm, x, g.labels,
                                                   g.train_mask)
        oracle_adam.step(oracle.flat, dg.clip(grad, 0.5))
        np.testing.assert_array_equal(params.flat, oracle.flat)


def test_row_cut_step_equals_full_row_oracle_for_other_last_layers():
    # a last layer that does not narrow (an MLP, a 1-layer GCN, classes >=
    # hidden, hidden_dim=1) computes every row and returns the E rows, and
    # its backward pass starts from the every-row gradient: the oracle's step
    g = workspace_graph()
    g4 = relabeled(g, 4, 5)
    rng = np.random.default_rng(29)
    for graph, init, num_layers, hidden in ((g, dg.init_mlp, 2, 6), (g, dg.init_mlp, 1, 6),
                                            (g, dg.init_mlp, 3, 6), (g, dg.init_gcn, 1, 6),
                                            (g4, dg.init_gcn, 2, 3), (g4, dg.init_gcn, 3, 4),
                                            (g, dg.init_gcn, 2, 1)):
        ctx = dg.normalize_adjacency(graph)
        params = init(graph.feat_dim, hidden, graph.num_classes, num_layers, seed=hidden)
        params.flat[:] += 0.1 * rng.standard_normal(params.flat.size)
        x = ctx.first_layer_input(params.layers)
        for mask, val_mask in row_cut_masks(graph):
            loss, grad, logits, rows = cut_step(params, ctx, graph.labels, mask, val_mask)
            want = full_row_loss_grad_and_logits(params, ctx.adj_norm, x, graph.labels, mask)
            assert loss == want[0]
            np.testing.assert_array_equal(grad, want[1])
            np.testing.assert_array_equal(logits, want[2][rows])


@pytest.mark.parametrize("init, num_layers, hidden", [(dg.init_mlp, 2, 6), (dg.init_gcn, 1, 6),
                                                      (dg.init_gcn, 2, 1)])
def test_every_row_last_layer_gradient_stays_zero_outside_loss_rows(init, num_layers, hidden):
    # a stack's (S, n, C) logit gradient is written on each model's own loss
    # rows only, so every other row stays zero from one SGD step to the next
    g = workspace_graph()
    ctx = dg.normalize_adjacency(g)
    rng = np.random.default_rng(3)
    masks = np.stack([g.train_mask & (rng.random(g.num_nodes) < 0.5) for _ in range(3)])
    flat = np.stack([init(g.feat_dim, hidden, 2, num_layers, seed=s).flat for s in range(3)])
    layers = init(g.feat_dim, hidden, 2, num_layers, seed=0).layers
    adj, x = ctx.adj_norm, ctx.first_layer_input(layers)
    ws = _StepWorkspace(flat, layers, adj=adj, labels=g.labels, masks=masks,
                        val_mask=g.val_mask)
    assert ws.d_logits.shape == (3, g.num_nodes, 2)
    sgd = training._Sgd(0.5)
    for _ in range(4):
        nn._masked_loss_grad_and_logits(ws, adj, x)
        assert not ws.d_logits[~masks].any()
        assert ws.d_logits[masks].any(axis=-1).all()
        sgd.step(flat, ws.grad)


@pytest.mark.parametrize("init, num_layers, hidden, classes, sides", [
    (dg.init_gcn, 2, 6, 2, [None, "output"]),
    (dg.init_gcn, 3, 6, 2, [None, "input", "output"]),
    (dg.init_gcn, 3, 3, 4, [None, "input", "input"]),
    (dg.init_gcn, 2, 1, 2, [None, "input"]),
    (dg.init_gcn, 3, 1, 2, [None, "input", "input"]),
    (dg.init_mlp, 3, 6, 2, [None, None, None]),
], ids=["2 layers", "3 layers", "3 layers, classes >= hidden", "hidden_dim=1",
        "3 layers, hidden_dim=1", "3-layer mlp"])
def test_full_graph_step_writes_dh_over_h(init, num_layers, hidden, classes, sides):
    # a stack's backward pass writes each hidden layer's dh over that
    # layer's input h once the ReLU mask and the weight gradient have read
    # it, so its workspace keeps activations and masks but no dh buffer, and
    # each model's gradient keeps the bits of its own loss_and_grad (which
    # writes dh over h too, so the unfolded oracle checks the values)
    g = workspace_graph()
    g = g if classes == 2 else relabeled(g, classes, 5)
    ctx = dg.normalize_adjacency(g)
    rng = np.random.default_rng(37)
    masks = np.stack([g.train_mask & (rng.random(g.num_nodes) < 0.6) for _ in range(3)])
    flat = np.stack([init(g.feat_dim, hidden, classes, num_layers, seed=s).flat
                     for s in range(3)])
    flat += 0.1 * rng.standard_normal(flat.shape)  # nonzero biases
    layers = init(g.feat_dim, hidden, classes, num_layers, seed=0).layers
    assert [nn._propagated_side(l, spec) for l, spec in enumerate(layers)] == sides
    adj, x = ctx.adj_norm, ctx.first_layer_input(layers)
    ws = _StepWorkspace(flat, layers, adj=adj, labels=g.labels, masks=masks,
                        val_mask=g.val_mask)
    sgd = training._Sgd(0.5)
    for _ in range(3):
        _, grad, _ = nn._masked_loss_grad_and_logits(ws, adj, x)
        assert set(ws.buffers) == ({("z", l) for l in range(num_layers - 1)}
                                   | {("live", l) for l in range(1, num_layers)})
        for s, mask in enumerate(masks):
            model = ModelParams(flat[s].copy(), layers)
            np.testing.assert_array_equal(grad[s],
                                          dg.loss_and_grad(ctx, model, g.labels, mask)[1])
            loss_rows = np.flatnonzero(mask)
            want = unfolded_gradients(adj, x[:, :-1], model, g.labels[loss_rows], loss_rows)[2]
            np.testing.assert_allclose(grad[s], want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())
        sgd.step(flat, grad)


def test_adam_step_equals_textbook_expression():
    # the buffered step keeps the textbook operations in their order
    rng = np.random.default_rng(31)
    flat = rng.standard_normal(418)
    want = flat.copy()
    adam = training._Adam(1e-2)
    m, v = np.zeros_like(want), np.zeros_like(want)
    for t in range(1, 301):
        grad = rng.standard_normal(418) * rng.choice([1e-8, 1.0, 1e3])
        adam.step(flat, grad)
        m *= 0.9
        m += (1 - 0.9) * grad
        v *= 0.999
        v += (1 - 0.999) * grad * grad
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        want -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_array_equal(flat, want)


def test_records_score_the_e_row_logits():
    # each record's accuracies are those of a full forward pass at the
    # record's params, whether the next step's forward or the final one
    g = workspace_graph()
    cfg = dg.TrainConfig(epochs=7, eval_every=3, seed=4)
    params, log = dg.train(g, cfg)
    assert [r["step"] for r in log] == [3, 6, 7]
    ctx = dg.normalize_adjacency(g)
    replay = training._init_model(g, cfg)
    adam = training._Adam(cfg.learning_rate)
    for step in range(1, 8):
        _, grad = dg.loss_and_grad(ctx, replay, g.labels, g.train_mask)
        adam.step(replay.flat, grad)
        if step in (3, 6, 7):
            record = log[[3, 6, 7].index(step)]
            assert record["train_acc"] == dg.evaluate(g, replay, g.train_mask)
            assert record["val_acc"] == dg.evaluate(g, replay, g.val_mask)


def test_subgraph_workspace_matches_fresh_calls():
    g = workspace_graph()
    rng = np.random.default_rng(3)
    for params in (dg.init_gcn(g.feat_dim, 6, 2, 3, seed=1),
                   dg.init_mlp(g.feat_dim, 6, 2, 2, seed=1)):
        subgraphs = dg.sample_training_subgraphs(g, 3, 3, 10, rng)
        store = SubgraphStore(g, subgraphs, params.layers)
        ws = _StepWorkspace(params.flat[None], params.layers, batch=(8,))
        sgd = training._Sgd(0.5)
        for _ in range(20):
            batch = store.batch(rng.choice(len(store), size=8, replace=False))
            losses, grads = subgraph_batch_gradients(*batch, ws)
            assert grads is ws.grad  # the buffer is reused, not reallocated
            fresh = subgraph_batch_gradients(*batch, params)
            np.testing.assert_array_equal(losses, fresh[0])
            np.testing.assert_array_equal(grads, fresh[1])
            sgd.step(params.flat, grads.mean(axis=0))


def test_public_gradients_are_fresh_arrays():
    g = workspace_graph()
    ctx = dg.normalize_adjacency(g)
    p1 = dg.init_gcn(g.feat_dim, 6, 2, 2, seed=1)
    p2 = dg.init_gcn(g.feat_dim, 6, 2, 2, seed=2)
    loss, grad = dg.loss_and_grad(ctx, p1, g.labels, g.train_mask)
    kept = grad.copy()
    dg.loss_and_grad(ctx, p2, g.labels, g.train_mask)
    np.testing.assert_array_equal(grad, kept)

    store = SubgraphStore(g, dg.sample_training_subgraphs(g, 3, 2, 7, np.random.default_rng(0)),
                          p1.layers)
    losses, grads = subgraph_batch_gradients(*store.batch(np.arange(8)), p1)
    kept = losses.copy(), grads.copy()
    subgraph_batch_gradients(*store.batch(np.arange(8, 16)), p2)
    np.testing.assert_array_equal(losses, kept[0])
    np.testing.assert_array_equal(grads, kept[1])


def test_second_train_leaves_first_result_alone():
    g = workspace_graph()
    no_val = dg.assign_splits(g, dg.SplitSpec(0.6, 0.0, 0.4, seed=2))
    for graph, cfg, spec in ((g, dg.TrainConfig(epochs=15, seed=1), None),  # checkpoint buffer
                             (no_val, dg.TrainConfig(epochs=15, seed=1), None),  # final iterate
                             (g, dg.TrainConfig(mode="subgraph_batch", seed=1),
                              dg.SubgraphSpec(batch_size=8, total_steps=15))):
        first, _ = dg.train(graph, cfg, spec)
        kept = first.flat.copy()
        dg.train(graph, dataclasses.replace(cfg, seed=2), spec)
        np.testing.assert_array_equal(first.flat, kept)


# ---------------------------------------------------------------- evaluate

def test_evaluate_perfect_logits():
    g = random_graph(np.random.default_rng(11), n=6)
    # one-layer "model" that reproduces one-hot labels exactly is hard to build;
    # check via an isolated-node graph whose features are the one-hot labels
    onehot = np.eye(2)[np.array([0, 1, 1, 0])]
    iso = dg.edgeless_graph(onehot, np.array([0, 1, 1, 0]), 2)
    params = ModelParams(flat=np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
                         layers=(LayerSpec(2, 2, "gcn_conv"),))
    assert dg.evaluate(iso, params, np.ones(4, bool)) == 1.0


def test_evaluate_tie_breaks_to_class_zero():
    # zero logits on balanced binary labels: every prediction is class 0
    onehot = np.zeros((4, 2))
    g = dg.edgeless_graph(onehot, np.array([0, 1, 0, 1]), 2)
    params = ModelParams(flat=np.zeros(6), layers=(LayerSpec(2, 2, "gcn_conv"),))
    assert dg.evaluate(g, params, np.ones(4, bool)) == 0.5


def test_evaluate_empty_mask_error():
    g = random_graph(np.random.default_rng(12))
    params = dg.init_gcn(3, 4, 2, 2, seed=0)
    with pytest.raises(ValueError):
        dg.evaluate(g, params, np.zeros(g.num_nodes, bool))


def test_train_config_validation():
    with pytest.raises(ValueError):
        dg.TrainConfig(noise=True)  # noise without clipping/subgraph mode
    with pytest.raises(ValueError):
        dg.TrainConfig(noise=True, clipping=True, mode="full_graph")
    with pytest.raises(ValueError):
        dg.TrainConfig(num_layers=0)
    with pytest.raises(ValueError):
        dg.TrainConfig(learning_rate=-1e-3)
    with pytest.raises(ValueError):
        dg.TrainConfig(optimizer="rmsprop")
    for bad in (0, -3):  # None selects the default interval; 0 is an error, not a default
        with pytest.raises(ValueError, match="eval_every"):
            dg.TrainConfig(eval_every=bad)
    with pytest.raises(ValueError, match="epochs"):
        dg.TrainConfig(epochs=-3)


@pytest.mark.parametrize("field", ["steps", "batch_size", "clip_norm", "max_degree",
                                   "occurrence_bound"])
def test_train_config_has_no_spec_fields(field):
    # the run's SubgraphSpec holds these; a TrainConfig copy could be ignored
    with pytest.raises(TypeError, match=field):
        dg.TrainConfig(**{field: 1})


def test_subgraph_spec_validation():
    for field, bad in (("total_steps", -1), ("batch_size", 0), ("max_degree", 0), ("hops", 0),
                       ("occurrence_bound", 0), ("occurrence_bound", -2), ("clip_norm", 0.0),
                       ("clip_norm", -1.0)):
        with pytest.raises(ValueError, match=field):
            dg.SubgraphSpec(**{field: bad})
        with pytest.raises(ValueError, match=field):  # the same checks, inherited
            dg.PrivacySpec(5.0, 1e-4, **{field: bad})
    spec = dg.SubgraphSpec(max_degree=4, hops=3)
    assert spec.effective_occurrence_bound == 13  # K * r + 1
    assert dg.SubgraphSpec(occurrence_bound=2).effective_occurrence_bound == 2
    with pytest.raises(TypeError):
        dg.SubgraphSpec(1.0)  # every field is keyword-only


@pytest.mark.parametrize("make, field, bad, message", [
    (dg.TrainConfig, "num_layers", 2.5, "num_layers must be an integer >= 1, not 2.5"),
    (dg.TrainConfig, "num_layers", True, "num_layers must be an integer >= 1, not True"),
    (dg.TrainConfig, "hidden_dim", 0, "hidden_dim must be an integer >= 1, not 0"),
    (dg.TrainConfig, "hidden_dim", 2.5, "hidden_dim must be an integer >= 1, not 2.5"),
    (dg.TrainConfig, "epochs", 1.5, "epochs must be an integer >= 0, not 1.5"),
    (dg.TrainConfig, "eval_every", 2.5, "eval_every must be an integer >= 1, not 2.5"),
    (dg.TrainConfig, "learning_rate", "0.1", "learning_rate must be a number, not '0.1'"),
    (dg.TrainConfig, "learning_rate", float("inf"), "learning_rate must be finite"),
    (dg.TrainConfig, "learning_rate", float("nan"), "learning_rate must be finite"),
    (dg.SubgraphSpec, "max_degree", 2.5, "max_degree must be an integer >= 1, not 2.5"),
    (dg.SubgraphSpec, "hops", 2.5, "hops must be an integer >= 1, not 2.5"),
    (dg.SubgraphSpec, "occurrence_bound", 2.5,
     "occurrence_bound must be an integer >= 1, not 2.5"),
    (dg.SubgraphSpec, "batch_size", 2.5, "batch_size must be an integer >= 1, not 2.5"),
    (dg.SubgraphSpec, "total_steps", 2.5, "total_steps must be an integer >= 0, not 2.5"),
    (dg.SubgraphSpec, "max_degree", "5", "max_degree must be an integer >= 1, not '5'"),
    (dg.SubgraphSpec, "clip_norm", "1", "clip_norm must be a number, not '1'"),
    (partial(dg.PrivacySpec, 5.0), "delta", "0.1", "delta must be a number, not '0.1'"),
    (partial(dg.PrivacySpec, 5.0, 1e-4), "noise_multiplier", "1",
     "noise_multiplier must be a number, not '1'"),
    (partial(dg.PrivacySpec, 5.0, 1e-4), "total_steps", 2.5,
     "total_steps must be an integer >= 0, not 2.5"),
    # a float num_layers of 2.0 once raised a bare TypeError, and 1.0 built
    # a one-layer model
    (partial(dg.init_gcn, 3, 4, 2, seed=0), "num_layers", 2.0,
     "num_layers must be an integer >= 1, not 2.0"),
    (partial(dg.init_gcn, 3, 4, 2, seed=0), "num_layers", 1.0,
     "num_layers must be an integer >= 1, not 1.0"),
    (partial(dg.init_mlp, 3, 4, 2, seed=0), "num_layers", True,
     "num_layers must be an integer >= 1, not True"),
    (partial(dg.init_gcn, 3, out_dim=2, num_layers=2, seed=0), "hidden_dim", 4.0,
     "out_dim must be an integer >= 1, not 4.0"),
    (partial(LayerSpec, out_dim=2, kind="dense"), "in_dim", 0,
     "in_dim must be an integer >= 1, not 0"),
])
def test_integer_and_number_settings_reject_other_values(make, field, bad, message):
    # a fraction where a count goes, or a string where a number goes, is a
    # ValueError when the config is built, not a failure of every step
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        make(**{field: bad})


def test_privacy_spec_validation():
    with pytest.raises(ValueError):
        dg.PrivacySpec(epsilon_target=-1.0, delta=1e-4)
    with pytest.raises(ValueError):
        dg.PrivacySpec(epsilon_target=5.0, delta=1.5)
    with pytest.raises(ValueError):
        dg.PrivacySpec(epsilon_target=5.0, delta=1e-4, clip_norm=0.0)
    with pytest.raises(ValueError):
        dg.PrivacySpec(epsilon_target=5.0, delta=1e-4, noise_multiplier=0.0)
    spec = dg.PrivacySpec(epsilon_target=5.0, delta=1e-4, max_degree=4, hops=3)
    assert spec.effective_occurrence_bound == 13  # K * r + 1
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=80, seed=0))
    g = dg.assign_splits(g, dg.SplitSpec(0.4, 0.2, 0.4, seed=1))  # 32 train nodes
    cfg = dg.TrainConfig(num_layers=3, mode="subgraph_batch", clipping=True, noise=True)
    with pytest.raises(ValueError, match="m=64 must not exceed N=32"):
        dg.train(g, cfg, spec)  # batch larger than train set


def test_dp_train_rejects_a_noise_multiplier_that_overspends(monkeypatch):
    # a given sigma is checked against the epsilon target before any
    # subgraph is sampled: sigma=0.5 spends far more than 1 over 50 steps
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=200, seed=0))
    g = dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=1))
    spec = dg.PrivacySpec(1.0, 1e-3, noise_multiplier=0.5, batch_size=16, total_steps=50)
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True)
    sampled = []
    monkeypatch.setattr(training, "sample_training_subgraphs",
                        lambda *args, **kwargs: sampled.append(args))
    with pytest.raises(dg.CalibrationError, match=r"epsilon budget infeasible: sigma=0\.5 "
                                                  r"spends \S+ over 50 steps, target 1\.0$"):
        dg.train(g, cfg, spec)
    assert sampled == []


def test_dp_train_requires_noise_flags():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=80, target_homophily=0.8, seed=0))
    g = dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=1))
    dp = dg.PrivacySpec(epsilon_target=10.0, delta=1e-3, batch_size=8, total_steps=5)
    with pytest.raises(ValueError):
        dg.train(g, dg.TrainConfig(mode="full_graph"), dp)
    with pytest.raises(ValueError):  # noise without a PrivacySpec has no sigma to add
        dg.train(g, dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True),
                 dg.SubgraphSpec(batch_size=8, total_steps=5))
    with pytest.raises(ValueError):
        dg.train(g, dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True))


def test_privacy_spec_positional_fields():
    spec = dg.PrivacySpec(5.0, 1e-3)
    assert (spec.epsilon_target, spec.delta, spec.clip_norm) == (5.0, 1e-3, 1.0)
    with pytest.raises(TypeError):
        dg.PrivacySpec(5.0, 1e-3, 1.0)  # read neither as clip_norm nor as noise_multiplier
    assert isinstance(spec, dg.SubgraphSpec)


# each SubgraphSpec field moved alone to a value that binds on spec_field_graph()
BASE_SPEC = dg.SubgraphSpec(clip_norm=1.0, max_degree=3, hops=2, occurrence_bound=None,
                            batch_size=8, total_steps=20)
BINDING = {"clip_norm": 0.01, "max_degree": 1, "hops": 1, "occurrence_bound": 2,
           "batch_size": 4, "total_steps": 10}


def spec_field_graph():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=80, target_homophily=0.8, seed=0))
    return dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=1))


def train_with_spec(g, spec, dp):
    """The released params' bytes and the log of one subgraph-clip or DP run."""
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=dp, eval_every=10, seed=3)
    if dp:
        spec = dg.PrivacySpec(10.0, 1e-3, **dataclasses.asdict(spec))
    params, log = dg.train(g, cfg, spec)
    return params.flat.tobytes(), log


def test_binding_values_cover_every_spec_field():
    assert set(BINDING) == {f.name for f in dataclasses.fields(dg.SubgraphSpec)}


@pytest.mark.parametrize("dp", [False, True], ids=["subgraph_clip", "dp"])
@pytest.mark.parametrize("field", sorted(BINDING))
def test_every_spec_field_reaches_the_run(field, dp):
    # no knob of the run's spec is silently ignored, in a DP run or not; a
    # non-DP run may release the same checkpoint after fewer steps, so the
    # log counts too
    g = spec_field_graph()
    base = train_with_spec(g, BASE_SPEC, dp)
    assert train_with_spec(g, BASE_SPEC, dp) == base
    moved = train_with_spec(g, dataclasses.replace(BASE_SPEC, **{field: BINDING[field]}), dp)
    assert moved != base


def test_spec_less_run_is_the_default_spec_at_the_layer_count():
    g = spec_field_graph()
    for cfg in (dg.TrainConfig(clipping=True, epochs=10, seed=3),
                dg.TrainConfig(mode="subgraph_batch", num_layers=3, eval_every=10, seed=3)):
        spec_less = dg.train(g, cfg)[0].flat
        default = dg.train(g, cfg, dg.SubgraphSpec(hops=cfg.num_layers))[0].flat
        np.testing.assert_array_equal(spec_less, default)


def test_full_graph_clipping_reads_the_spec_norm():
    g = spec_field_graph()
    cfg = dg.TrainConfig(clipping=True, epochs=10, seed=3)
    loose, _ = dg.train(g, cfg, dg.SubgraphSpec(clip_norm=1e3))
    tight, _ = dg.train(g, cfg, dg.SubgraphSpec(clip_norm=0.01))
    unclipped, _ = dg.train(g, dataclasses.replace(cfg, clipping=False))
    np.testing.assert_array_equal(loose.flat, unclipped.flat)
    assert not np.array_equal(loose.flat, tight.flat)


def test_training_log_jsonl(tmp_path):
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=80, target_homophily=0.8, seed=0))
    g = dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=1))
    _, log = dg.train(g, dg.TrainConfig(epochs=5, seed=0))
    path = tmp_path / "log.jsonl"
    dg.write_training_log(log, path)
    import json
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(log)
    first = json.loads(lines[0])
    assert {"step", "loss", "train_acc", "val_acc"} <= set(first)
