"""Population graphs: construction, homophily statistics, splits, and I/O.

A population graph is one large undirected graph whose nodes carry a feature
vector and a class label.  Edges are built from feature similarity (k-NN) or
produced by the synthetic generator; training code consumes the graph
transductively through boolean train/val/test masks.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace

import numpy as np


class IngestionError(Exception):
    """Raised when feature/label files disagree (e.g. row-count mismatch)."""


class CsvParseError(Exception):
    """Raised on a malformed CSV cell; carries 1-based row/column location."""

    def __init__(self, path, row, col, cell):
        self.path, self.row, self.col, self.cell = path, row, col, cell
        super().__init__(f"{path}: non-numeric value {cell!r} at row {row}, column {col}")


class MetricUndefinedError(Exception):
    """Raised when a graph statistic is undefined (e.g. homophily of an edgeless graph)."""


@dataclass(frozen=True)
class PopulationGraph:
    """Undirected graph with node features, labels, and split masks.

    Adjacency is CSR (``indptr``/``indices``) with every edge stored in both
    directions and no self-loops.  Instances are immutable; derived graphs are
    produced with :meth:`with_edges` / :meth:`with_masks`.
    """

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, num_classes)
    indptr: np.ndarray  # (n+1,) int64
    indices: np.ndarray  # (2 * undirected edges,) int64
    num_classes: int
    train_mask: np.ndarray  # (n,) bool
    val_mask: np.ndarray
    test_mask: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.features.shape[0]
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError("features must be a (num_nodes, feat_dim>=1) matrix")
        if self.labels.shape != (n,):
            raise ValueError("labels length must equal num_nodes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")
        if self.indptr.shape != (n + 1,):
            raise ValueError("indptr length must be num_nodes + 1")
        for name in ("train_mask", "val_mask", "test_mask"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} length must equal num_nodes")
        overlap = (self.train_mask & self.val_mask) | (self.train_mask & self.test_mask) | (
            self.val_mask & self.test_mask
        )
        if overlap.any():
            raise ValueError("train/val/test masks must be disjoint")

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_undirected_edges(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_array(self) -> np.ndarray:
        """Undirected edges as a (E, 2) array with u < v, sorted."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees())
        mask = rows < self.indices
        return np.column_stack([rows[mask], self.indices[mask]])

    def with_edges(self, indptr: np.ndarray, indices: np.ndarray, meta: dict | None = None):
        return replace(self, indptr=indptr, indices=indices, meta={**self.meta, **(meta or {})})

    def with_masks(self, train_mask: np.ndarray, val_mask: np.ndarray, test_mask: np.ndarray):
        return replace(self, train_mask=np.asarray(train_mask, dtype=bool),
                       val_mask=np.asarray(val_mask, dtype=bool),
                       test_mask=np.asarray(test_mask, dtype=bool))

    def check_adjacency(self) -> None:
        """Full-scan check that adjacency is symmetric and self-loop free."""
        rows = np.repeat(np.arange(self.num_nodes), self.degrees())
        if np.any(rows == self.indices):
            raise AssertionError("self-loop stored in adjacency")
        fwd = set(zip(rows.tolist(), self.indices.tolist()))
        for u, v in fwd:
            if (v, u) not in fwd:
                raise AssertionError(f"edge ({u},{v}) missing its reverse")


def _check_integer(value, name: str, least: int | None = None, error: type = ValueError) -> None:
    """Reject a value that is not an integer (>= ``least`` when given); a bool is not one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an integer{bound}, not {value!r}")


def _check_number(value, name: str) -> None:
    """Reject a value that is not a real number (NaN and inf pass); a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, not {value!r}")


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test fractions (must sum to 1) plus a shuffle seed."""

    train_fraction: float
    val_fraction: float
    test_fraction: float
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        for name, f in zip(("train_fraction", "val_fraction", "test_fraction"), fracs):
            _check_number(f, f"split {name}")
        if not all(f >= 0 for f in fracs):
            raise ValueError("split fractions must be nonnegative")
        if not abs(sum(fracs) - 1.0) <= 1e-9:
            raise ValueError("split fractions must sum to 1")
        _check_integer(self.seed, "split seed", 0)


def csr_from_edges(num_nodes: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Build CSR (indptr, indices) from an iterable of undirected (u, v) pairs.

    Each pair is stored in both directions; neighbor lists come out sorted.
    Node ids must lie in [0, num_nodes).
    """
    edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if edges.size == 0:
        return np.zeros(num_nodes + 1, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be (E, 2)")
    outside = (edges < 0) | (edges >= num_nodes)
    if outside.any():
        raise ValueError(f"node id {edges[outside][0]} outside [0, {num_nodes})")
    if np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError("self-loops are not stored")
    u, v = edges.T
    # each directed pair as the key u * n + v, which sorts as (u, v) does;
    # unique drops a pair that appears twice
    keys = np.unique(np.concatenate([u * num_nodes + v, v * num_nodes + u]))
    src, dst = np.divmod(keys, num_nodes)
    counts = np.bincount(src, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst


def edgeless_graph(features: np.ndarray, labels: np.ndarray, num_classes: int | None = None,
                   meta: dict | None = None) -> PopulationGraph:
    features = np.ascontiguousarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if labels.size else 0
    empty = np.zeros(n, dtype=bool)
    indptr, indices = csr_from_edges(n, [])
    return PopulationGraph(
        features=features,
        labels=labels,
        indptr=indptr,
        indices=indices,
        num_classes=num_classes,
        train_mask=empty,
        val_mask=empty.copy(),
        test_mask=empty.copy(),
        meta=meta or {},
    )


def _parse_numeric_csv(path, skip_header: bool, columns=None) -> list[list[float]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            parsed = []
            for colno, cell in enumerate(line.split(","), start=1):
                try:
                    parsed.append(float(cell.strip()))
                except ValueError:
                    raise CsvParseError(path, lineno, colno, cell.strip()) from None
            if columns is not None and len(parsed) != columns:
                raise IngestionError(f"{path}: row {lineno} has {len(parsed)} columns, "
                                     f"expected {columns}")
            rows.append(parsed)
    return rows


def load_csv(features_path, labels_path, standardize: bool = True,
             skip_header: bool = False) -> PopulationGraph:
    """Load a tabular dataset into an edgeless PopulationGraph.

    Features CSV: one node per row, comma-separated numbers, no header unless
    ``skip_header``.  Labels CSV: one integer per row, same node order.  With
    ``standardize``, each feature column is shifted/scaled to zero mean and
    unit variance (population std; constant columns are left at zero).
    """
    feat_rows = _parse_numeric_csv(features_path, skip_header)
    label_rows = _parse_numeric_csv(labels_path, skip_header, columns=1)
    if len(feat_rows) != len(label_rows):
        raise IngestionError(
            f"row-count mismatch: {len(feat_rows)} feature rows vs {len(label_rows)} label rows"
        )
    widths = {len(r) for r in feat_rows}
    if len(widths) > 1:
        raise IngestionError(f"inconsistent feature column counts: {sorted(widths)}")
    features = np.asarray(feat_rows, dtype=np.float64)
    labels_f = np.asarray([r[0] for r in label_rows], dtype=np.float64)
    if np.any(labels_f != np.round(labels_f)):
        raise IngestionError("labels must be integer-coded")
    labels = labels_f.astype(np.int64)
    if labels.size and labels.min() < 0:
        raise IngestionError("labels must be nonnegative")
    if standardize:
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        features = features - mean
        nz = std > 0
        features[:, nz] /= std[nz]
    return edgeless_graph(features, labels, meta={"source": "csv", "standardized": bool(standardize)})


def build_knn_graph(graph: PopulationGraph, k: int, metric: str = "euclidean") -> PopulationGraph:
    """Connect each node to its k most similar nodes; symmetrize by union.

    Ties in distance break toward the lower node index; the result is
    deterministic in the inputs.
    """
    n = graph.num_nodes
    _check_integer(k, "k", 1)
    if k >= n:
        raise ValueError(f"k={k} must be smaller than num_nodes={n}")
    x = graph.features
    if metric == "euclidean":
        sq = np.einsum("ij,ij->i", x, x)
        dist = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        np.maximum(dist, 0.0, out=dist)
    elif metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        norms[norms == 0] = 1.0
        xn = x / norms[:, None]
        dist = 1.0 - xn @ xn.T
    else:
        raise ValueError(f"unknown metric {metric!r}; expected 'euclidean' or 'cosine'")
    np.fill_diagonal(dist, np.inf)
    # each row keeps every node closer than its k-th smallest distance, then
    # the lowest-index nodes tied at that distance: the first k of a stable sort
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    closer = dist < kth
    tied = dist == kth
    need = k - np.count_nonzero(closer, axis=1)
    keep = closer | (tied & (np.cumsum(tied, axis=1) <= need[:, None]))
    src, dst = np.nonzero(keep)
    indptr, indices = csr_from_edges(n, np.column_stack([src, dst]))
    return graph.with_edges(indptr, indices, meta={"knn_k": int(k), "knn_metric": metric})


def edge_homophily(graph: PopulationGraph) -> float:
    """Fraction of undirected edges whose endpoints share a label."""
    if graph.num_undirected_edges == 0:
        raise MetricUndefinedError("homophily is undefined for an edgeless graph")
    edges = graph.edge_array()
    same = graph.labels[edges[:, 0]] == graph.labels[edges[:, 1]]
    return float(same.mean())


def node_homophily(graph: PopulationGraph) -> float:
    """Mean over non-isolated nodes of the same-label fraction of their neighborhoods."""
    deg = graph.degrees()
    if not np.any(deg > 0):
        raise MetricUndefinedError("homophily is undefined for an edgeless graph")
    rows = np.repeat(np.arange(graph.num_nodes), deg)
    same = (graph.labels[rows] == graph.labels[graph.indices]).astype(np.float64)
    per_node = np.bincount(rows, weights=same, minlength=graph.num_nodes)
    active = deg > 0
    return float((per_node[active] / deg[active]).mean())


def assign_splits(graph: PopulationGraph, spec: SplitSpec) -> PopulationGraph:
    """Seeded uniform shuffle partitioned by fractions (largest-remainder rounding)."""
    n = graph.num_nodes
    fracs = np.array([spec.train_fraction, spec.val_fraction, spec.test_fraction])
    exact = fracs * n
    counts = np.floor(exact).astype(int)
    remainder = n - counts.sum()
    if remainder:
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:remainder]] += 1
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)
    masks = []
    start = 0
    for c in counts:
        m = np.zeros(n, dtype=bool)
        m[perm[start : start + c]] = True
        masks.append(m)
        start += c
    return graph.with_masks(*masks)


def graph_stats(graph: PopulationGraph) -> dict:
    """Summary record: counts, degrees, homophily, class histogram, recommended delta."""
    from .accounting import recommend_delta

    deg = graph.degrees()
    n_train = int(graph.train_mask.sum())
    stats = {
        "num_nodes": graph.num_nodes,
        "num_undirected_edges": graph.num_undirected_edges,
        "mean_degree": float(deg.mean()) if graph.num_nodes else 0.0,
        "max_degree": int(deg.max()) if graph.num_nodes else 0,
        "edge_homophily": edge_homophily(graph) if graph.num_undirected_edges else None,
        "node_homophily": node_homophily(graph) if graph.num_undirected_edges else None,
        "class_histogram": np.bincount(graph.labels, minlength=graph.num_classes).tolist(),
        "n_train": n_train,
        "recommended_delta": recommend_delta(n_train) if n_train else None,
    }
    return stats


def write_edge_list(graph: PopulationGraph, path) -> None:
    """Export edges as "u v" lines (u < v, one line per undirected edge) plus a JSON sidecar."""
    np.savetxt(path, graph.edge_array(), fmt="%d")
    sidecar = {
        "num_nodes": graph.num_nodes,
        "num_classes": graph.num_classes,
        "homophily": edge_homophily(graph) if graph.num_undirected_edges else None,
        "seed": graph.meta.get("seed"),
        "provenance": {k: v for k, v in graph.meta.items() if k != "seed"},
    }
    with open(f"{path}.json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")

