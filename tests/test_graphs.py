"""Graph construction, homophily, splits, and I/O."""

import json
from pathlib import Path

import numpy as np
import pytest

import dpgraphlab as dg
from dpgraphlab.graphs import csr_from_edges


def make_graph(features, labels, edges, num_classes=None):
    g = dg.edgeless_graph(np.asarray(features, float), np.asarray(labels), num_classes)
    indptr, indices = csr_from_edges(g.num_nodes, edges)
    return g.with_edges(indptr, indices)


@pytest.fixture
def triangle():
    # labels (0, 0, 1): one same-label edge out of three
    return make_graph([[0.0], [1.0], [2.0]], [0, 0, 1], [(0, 1), (1, 2), (0, 2)])


# ---------------------------------------------------------------- load_csv

def write_csv(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text("\n".join(rows) + "\n")
    return path


def test_load_csv_basic(tmp_path):
    f = write_csv(tmp_path, "x.csv", ["0,0", "1,0", "2,0"])
    y = write_csv(tmp_path, "y.csv", ["0", "0", "1"])
    g = dg.load_csv(f, y, standardize=False)
    assert g.num_nodes == 3
    assert g.feat_dim == 2
    assert g.num_undirected_edges == 0
    assert g.num_classes == 2


def test_load_csv_standardize_population_std(tmp_path):
    f = write_csv(tmp_path, "x.csv", ["1", "2", "3"])
    y = write_csv(tmp_path, "y.csv", ["0", "0", "1"])
    g = dg.load_csv(f, y, standardize=True)
    # (1,2,3) with population std sqrt(2/3)
    np.testing.assert_allclose(g.features[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)


def test_load_csv_constant_column_left_zero(tmp_path):
    f = write_csv(tmp_path, "x.csv", ["5,1", "5,2", "5,3"])
    y = write_csv(tmp_path, "y.csv", ["0", "0", "1"])
    g = dg.load_csv(f, y, standardize=True)
    assert np.all(g.features[:, 0] == 0.0)


def test_load_csv_infers_num_classes(tmp_path):
    f = write_csv(tmp_path, "x.csv", ["0", "1", "2"])
    y = write_csv(tmp_path, "y.csv", ["0", "5", "2"])
    g = dg.load_csv(f, y)
    assert g.num_classes == 6


def test_load_csv_row_mismatch(tmp_path):
    f = write_csv(tmp_path, "x.csv", ["0", "1", "2"])
    y = write_csv(tmp_path, "y.csv", ["0", "1"])
    with pytest.raises(dg.IngestionError):
        dg.load_csv(f, y)


def test_load_csv_parse_error_location(tmp_path):
    f = write_csv(tmp_path, "x.csv", ["0,0", "1,oops", "2,0"])
    y = write_csv(tmp_path, "y.csv", ["0", "0", "1"])
    with pytest.raises(dg.CsvParseError) as err:
        dg.load_csv(f, y)
    assert err.value.row == 2
    assert err.value.col == 2


def test_load_csv_skip_header(tmp_path):
    f = write_csv(tmp_path, "x.csv", ["a,b", "0,0", "1,1"])
    y = write_csv(tmp_path, "y.csv", ["label", "0", "1"])
    g = dg.load_csv(f, y, standardize=False, skip_header=True)
    assert g.num_nodes == 2


# ---------------------------------------------------------------- build_knn_graph

def test_knn_collinear_hand_enumeration():
    # x = 0, 1, 3: candidates 0->1, 1->0, 2->1; union gives {(0,1), (1,2)}
    g = make_graph([[0.0], [1.0], [3.0]], [0, 0, 1], [])
    kg = dg.build_knn_graph(g, 1)
    assert kg.edge_array().tolist() == [[0, 1], [1, 2]]


def test_knn_complete_graph():
    g = make_graph([[0.0], [1.0], [2.0], [4.0]], [0, 0, 1, 1], [])
    kg = dg.build_knn_graph(g, 3)
    assert kg.num_undirected_edges == 6


def test_knn_tie_breaks_to_lower_index():
    # duplicates at x=0 link mutually; node 2 ties between them, picks index 0
    g = make_graph([[0.0], [0.0], [5.0]], [0, 0, 1], [])
    kg = dg.build_knn_graph(g, 1)
    assert kg.edge_array().tolist() == [[0, 1], [0, 2]]


def knn_by_stable_sort(graph, k, metric):
    """Oracle: the k nearest by a full stable argsort of each distance row,
    symmetrized by union (the distances as build_knn_graph computes them)."""
    x = graph.features
    n = graph.num_nodes
    if metric == "euclidean":
        sq = np.einsum("ij,ij->i", x, x)
        dist = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        np.maximum(dist, 0.0, out=dist)
    else:
        norms = np.linalg.norm(x, axis=1)
        norms[norms == 0] = 1.0
        xn = x / norms[:, None]
        dist = 1.0 - xn @ xn.T
    np.fill_diagonal(dist, np.inf)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    src = np.repeat(np.arange(n), k)
    dst = nearest.ravel()
    pairs = np.unique(np.column_stack([np.minimum(src, dst), np.maximum(src, dst)]), axis=0)
    return csr_from_edges(n, pairs)


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_knn_partial_selection_equals_stable_sort_oracle(metric):
    # tie-heavy small-integer features (zero rows among them), duplicated rows
    rng = np.random.default_rng(5)
    ints = rng.integers(0, 3, size=(40, 3)).astype(float)
    dup = np.repeat(rng.standard_normal((10, 2)), 4, axis=0)
    for x in (ints, dup, rng.standard_normal((30, 4))):
        g = dg.edgeless_graph(x, np.zeros(len(x), dtype=np.int64), 2)
        for k in (1, 2, 5, len(x) - 1):
            kg = dg.build_knn_graph(g, k, metric)
            indptr, indices = knn_by_stable_sort(g, k, metric)
            np.testing.assert_array_equal(kg.indptr, indptr)
            np.testing.assert_array_equal(kg.indices, indices)


def test_knn_k_too_large():
    g = make_graph([[0.0], [1.0]], [0, 1], [])
    with pytest.raises(ValueError):
        dg.build_knn_graph(g, 2)


def test_knn_scale_invariance_euclidean():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((40, 4))
    g1 = make_graph(feats, np.zeros(40, int), [])
    g2 = make_graph(feats * 7.5, np.zeros(40, int), [])
    e1 = dg.build_knn_graph(g1, 5).edge_array()
    e2 = dg.build_knn_graph(g2, 5).edge_array()
    assert np.array_equal(e1, e2)


def test_knn_cosine_metric():
    # direction matters, magnitude does not
    g = make_graph([[1.0, 0.0], [10.0, 0.1], [0.0, 1.0]], [0, 0, 1], [])
    kg = dg.build_knn_graph(g, 1, metric="cosine")
    assert [0, 1] in kg.edge_array().tolist()


def test_knn_symmetric_no_self_loops():
    rng = np.random.default_rng(5)
    g = make_graph(rng.standard_normal((30, 3)), np.zeros(30, int), [])
    dg.build_knn_graph(g, 4).check_adjacency()


# ---------------------------------------------------------------- homophily

def test_homophily_all_same_label():
    g = make_graph([[0.0]] * 3, [1, 1, 1], [(0, 1), (1, 2)], num_classes=2)
    assert dg.edge_homophily(g) == 1.0


def test_homophily_triangle(triangle):
    assert dg.edge_homophily(triangle) == pytest.approx(1 / 3, abs=1e-4)


def test_homophily_edgeless_error():
    g = dg.edgeless_graph(np.zeros((3, 1)), np.array([0, 0, 1]))
    with pytest.raises(dg.MetricUndefinedError):
        dg.edge_homophily(g)


def test_homophily_label_flip_invariance():
    rng = np.random.default_rng(11)
    for trial in range(5):
        g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=100, target_homophily=0.7,
                                                   seed=trial))
        flipped = dg.PopulationGraph(
            features=g.features, labels=1 - g.labels, indptr=g.indptr, indices=g.indices,
            num_classes=2, train_mask=g.train_mask, val_mask=g.val_mask,
            test_mask=g.test_mask)
        assert dg.edge_homophily(flipped) == pytest.approx(dg.edge_homophily(g), abs=1e-12)


def test_homophily_permutation_invariance():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=80, target_homophily=0.8, seed=4))
    rng = np.random.default_rng(0)
    perm = rng.permutation(g.num_nodes)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(g.num_nodes)
    edges = g.edge_array()
    permuted = make_graph(g.features[perm], g.labels[perm],
                          [(min(inv[u], inv[v]), max(inv[u], inv[v])) for u, v in edges])
    assert dg.edge_homophily(permuted) == pytest.approx(dg.edge_homophily(g), abs=1e-12)


# ---------------------------------------------------------------- synthetic generator

def test_synthetic_h1_exact():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=200, target_homophily=1.0, seed=0))
    assert dg.edge_homophily(g) == 1.0


def test_synthetic_h05_measured():
    accs = []
    for seed in range(5):
        g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=1000, target_homophily=0.5,
                                                   seed=seed))
        accs.append(dg.edge_homophily(g))
    assert all(0.48 <= h <= 0.52 for h in accs)


def test_synthetic_h09_measured():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=1000, target_homophily=0.9,
                                               neighbors_per_node=5, seed=1))
    assert 0.88 <= dg.edge_homophily(g) <= 0.92


def test_synthetic_determinism():
    a = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=300, target_homophily=0.7, seed=9))
    b = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=300, target_homophily=0.7, seed=9))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.indptr, b.indptr)


def test_synthetic_adjacency_clean():
    for seed in range(3):
        g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=150, target_homophily=0.6,
                                                   seed=seed))
        g.check_adjacency()


def test_synthetic_balanced_classes():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=400, target_homophily=0.8, seed=2))
    assert np.bincount(g.labels).tolist() == [200, 200]


def synthetic_oracle(spec):
    """generate_synthetic's graph, wired by a numpy loop over the same RNG calls
    (one ``random`` and one ``integers`` per try) and built as CSR by
    :func:`csr_oracle`."""
    rng = np.random.default_rng(spec.seed)
    n, half = spec.num_nodes, spec.num_nodes // 2
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    centers = np.zeros((2, spec.feat_dim))
    centers[0, 0] = -spec.class_separation / 2.0
    centers[1, 0] = +spec.class_separation / 2.0
    features = centers[labels] + spec.feature_noise_std * rng.standard_normal((n, spec.feat_dim))
    class_members = [np.flatnonzero(labels == c) for c in (0, 1)]
    edge_set = set()
    skipped = 0
    for v in range(n):
        for _ in range(spec.neighbors_per_node):
            for _ in range(20):
                same_class = rng.random() < spec.target_homophily
                pool = class_members[labels[v]] if same_class else class_members[1 - labels[v]]
                u = int(pool[rng.integers(pool.size)])
                key = (min(u, v), max(u, v))
                if u != v and key not in edge_set:
                    edge_set.add(key)
                    break
            else:
                skipped += 1
    return features, labels, *csr_oracle(n, sorted(edge_set)), skipped


def test_synthetic_equals_numpy_loop_oracle():
    specs = [dg.SyntheticSpec(num_nodes=n, target_homophily=h, neighbors_per_node=k,
                              feat_dim=d, seed=seed)
             for seed, (n, h, k, d) in enumerate([
                 (2, 0.5, 1, 1), (4, 1.0, 5, 2),  # tiny pools: slots skipped
                 (40, 0.0, 3, 3), (40, 1.0, 3, 3), (60, 0.5, 1, 4), (100, 0.8, 5, 10),
                 (200, 0.3, 2, 5), (300, 0.9, 7, 10), (500, 0.7, 5, 10), (1000, 0.5, 5, 10)])]
    specs.append(dg.SyntheticSpec(num_nodes=80, class_separation=0.6,
                                  feature_noise_std=2.0, seed=99))
    skips = []
    for spec in specs:
        g = dg.generate_synthetic(spec)
        features, labels, indptr, indices, skipped = synthetic_oracle(spec)
        assert np.array_equal(g.features, features)
        assert np.array_equal(g.labels, labels)
        assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
        assert g.meta["skipped_slots"] == skipped
        skips.append(skipped)
    assert skips[1] > 0  # 4 nodes cannot fill 5 slots each


# ---------------------------------------------------------------- CSR

def csr_oracle(num_nodes, edges):
    """csr_from_edges by a row dedupe: np.unique over the (u, v) rows of both
    orientations, which sorts them lexicographically."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    both = np.unique(np.concatenate([edges, edges[:, ::-1]]), axis=0)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(both[:, 0], minlength=num_nodes), out=indptr[1:])
    return indptr, both[:, 1].copy()


def test_csr_from_edges_equals_row_dedupe_oracle():
    rng = np.random.default_rng(31)
    cases = [(5, []), (5, np.zeros((0, 2), dtype=np.int64)), (2, [(1, 0)]),
             (100_000, [(99_999, 0), (3, 70_000), (0, 99_999)])]
    for _ in range(20):
        n = int(rng.integers(2, 80))
        active = int(rng.integers(2, n + 1))  # nodes past it stay isolated
        pairs = rng.integers(0, active, (int(rng.integers(1, 3 * n)), 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        dup = pairs[rng.random(pairs.shape[0]) < 0.3]  # repeated pairs, some reversed
        flip = rng.random(dup.shape[0]) < 0.5
        dup[flip] = dup[flip, ::-1]
        pairs = rng.permutation(np.concatenate([pairs, dup]))  # unsorted
        cases.append((n, pairs))
        cases.append((n, [tuple(p) for p in pairs.tolist()]))
    for n, edges in cases:
        indptr, indices = csr_from_edges(n, edges)
        want_indptr, want_indices = csr_oracle(n, edges)
        assert indptr.dtype == indices.dtype == np.int64
        assert np.array_equal(indptr, want_indptr) and np.array_equal(indices, want_indices)


@pytest.mark.parametrize("bad", [-1, -7, 5, 6, 12])
def test_csr_from_edges_rejects_ids_out_of_range(bad):
    # the scalar key u * n + v would otherwise wrap id 5 at n = 5 into row 1
    with pytest.raises(ValueError, match=f"node id {bad} outside"):
        csr_from_edges(5, [(0, 1), (1, bad)])
    with pytest.raises(ValueError, match=f"node id {bad} outside"):
        csr_from_edges(5, np.array([[bad, 2]]))


# ---------------------------------------------------------------- splits

def test_splits_exact_fractions():
    g = dg.edgeless_graph(np.zeros((10, 1)), np.zeros(10, int), 1)
    g = dg.assign_splits(g, dg.SplitSpec(0.5, 0.2, 0.3, seed=0))
    assert (g.train_mask.sum(), g.val_mask.sum(), g.test_mask.sum()) == (5, 2, 3)


def test_splits_largest_remainder():
    # n=3 with (0.34, 0.33, 0.33): floors (1, 0, 0), remainders promote val and test
    g = dg.edgeless_graph(np.zeros((3, 1)), np.zeros(3, int), 1)
    g = dg.assign_splits(g, dg.SplitSpec(0.34, 0.33, 0.33, seed=0))
    assert (g.train_mask.sum(), g.val_mask.sum(), g.test_mask.sum()) == (1, 1, 1)


def test_splits_deterministic():
    g = dg.edgeless_graph(np.zeros((50, 1)), np.zeros(50, int), 1)
    a = dg.assign_splits(g, dg.SplitSpec(0.6, 0.2, 0.2, seed=7))
    b = dg.assign_splits(g, dg.SplitSpec(0.6, 0.2, 0.2, seed=7))
    assert np.array_equal(a.train_mask, b.train_mask)
    assert np.array_equal(a.val_mask, b.val_mask)


def test_splits_disjoint_cover():
    g = dg.edgeless_graph(np.zeros((37, 1)), np.zeros(37, int), 1)
    g = dg.assign_splits(g, dg.SplitSpec(0.5, 0.25, 0.25, seed=3))
    total = g.train_mask.astype(int) + g.val_mask.astype(int) + g.test_mask.astype(int)
    assert np.all(total == 1)


def test_split_spec_validation():
    with pytest.raises(ValueError):
        dg.SplitSpec(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        dg.SplitSpec(-0.1, 0.6, 0.5)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_split_spec_seed_is_an_integer_at_least_zero(seed):
    with pytest.raises(ValueError, match=f"^split seed must be an integer >= 0, not {seed!r}$"):
        dg.SplitSpec(0.5, 0.2, 0.3, seed=seed)
    assert dg.SplitSpec(0.5, 0.2, 0.3, seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None])
def test_synthetic_spec_seed_is_an_integer_at_least_zero(seed):
    # numpy's SeedSequence raised a bare TypeError for 1.5 at generation time
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, not {seed!r}$"):
        dg.SyntheticSpec(num_nodes=20, seed=seed)
    assert dg.SyntheticSpec(num_nodes=20, seed=np.int64(3)).seed == 3


# ---------------------------------------------------------------- stats and I/O

def test_graph_stats_triangle(triangle):
    s = dg.graph_stats(triangle)
    assert s["num_nodes"] == 3
    assert s["num_undirected_edges"] == 3
    assert s["edge_homophily"] == pytest.approx(1 / 3, abs=1e-4)


def test_graph_stats_edgeless():
    g = dg.edgeless_graph(np.zeros((4, 1)), np.array([0, 1, 0, 1]))
    s = dg.graph_stats(g)
    assert s["edge_homophily"] is None
    assert s["num_nodes"] == 4


def test_graph_stats_delta_synthetic_split():
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=1000, target_homophily=0.8, seed=0))
    g = dg.assign_splits(g, dg.SplitSpec(0.56, 0.14, 0.30, seed=0))
    s = dg.graph_stats(g)
    assert s["n_train"] == 560
    assert abs(s["recommended_delta"] - 1.79e-4) <= 1e-6


def test_edge_list_round_trip(tmp_path, triangle):
    path = tmp_path / "edges.txt"
    dg.write_edge_list(triangle, path)
    edges = np.loadtxt(path, dtype=np.int64, ndmin=2)
    sidecar = json.loads(Path(f"{path}.json").read_text())
    assert edges.tolist() == triangle.edge_array().tolist()
    assert sidecar["num_nodes"] == 3
    assert sidecar["homophily"] == pytest.approx(1 / 3)
