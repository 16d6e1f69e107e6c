"""GCN and MLP numeric core: parameter packing, symmetric-normalized
propagation, and hand-rolled reverse-mode gradients.

Models are a stack of layers acting on a node-feature matrix.  A
``gcn_conv`` layer propagates through the normalized adjacency before the
affine map; a ``dense`` layer skips propagation.  Hidden layers use ReLU,
the output layer is linear, and the loss is mean softmax cross-entropy over
a node mask.  Gradients are exact (checked against finite differences) and
are returned flat, matching the parameter vector.

Layer 0 never touches the adjacency: A @ X does not depend on the
parameters, so a ``gcn_conv`` first layer is a dense layer on A @ X, which
is computed once, per graph by :class:`ForwardContext` and per subgraph by
:class:`dpgraphlab.sampling.SubgraphStore`.  A ``dense`` first layer reads X.
Either input carries a trailing ones column, added once per training.
``params.flat`` stores each layer as w (in x out) followed by b (out), so
layer 0's w and b form one contiguous (in + 1, out) block [w; b]: its
forward pass is one product against the block, and its backward pass one
product that writes the weight and bias gradients together.

The same forward and backward pass serves the whole graph (sparse
adjacency) and a zero-padded stack of sampled subgraphs (dense (m, s, s)
adjacency), where :func:`subgraph_batch_gradients` takes each subgraph's
root loss and returns one gradient row per subgraph.  That loss sits on
row 0 only, so the batch computes only the root's receptive field, given
as ``rows``, the row prefix each layer reads.  Going back from the output,
the last layer yields 1 row, a layer above the first that propagates reads
the rows up to the last column with a nonzero in the adjacency rows the
next layer reads, and any other layer reads the rows the next layer reads.
The store resolves these rows once, over all its subgraphs, when it is
built, and keeps only the first ``rows[0]`` rows and columns of each
subgraph.

A stacked (m, rows, k) batch takes each product with a weight that every
subgraph shares, ``p @ w`` forward and ``dz @ w.T`` backward, as one 2-D
product over its m * rows rows, through reshape views
(:func:`_matmul_rows`); the products that differ per subgraph stay
batched: the adjacency products and the per-sample weight gradient
``p.T @ dz``.  On the full graph these products are 2-D already, and the
same call.  The BLAS kernel may order a row's sum differently in one large
product than in m small ones, so a batch's gradients can differ in the
last bits from per-subgraph products.

A full-graph training step reads the logits of the loss (train) rows and,
for its log record, of the val rows, so its last layer computes only those
rows, E (the loss rows, then the val rows): it propagates through A[E], or
gathers the E rows when it does not propagate, and its backward pass
starts from the loss rows alone, through A[:, loss rows] (the transpose of
A's loss rows, as A is symmetric).  The layers below compute every row.
For a narrowing last layer (classes < hidden) every kept logit and every
gradient entry has the bits of the every-row computation: each kept row
sum is the same CSR row sum, and the backward pass drops only +0.0 terms.
:func:`gcn_forward` computes every row.

Layer order: a ``gcn_conv`` layer above the first multiplies the
adjacency into the narrower side of its weight, as (A @ h) @ w + b when it
widens or keeps the width and as A @ (h @ w) + b when it narrows, so the
32 -> 2 output layer propagates 2 columns forward and backward.  The
forward cache holds, per layer, the post-activation input h and the matrix
multiplied into w (A @ h or h itself); the backward pass masks with h > 0,
which is the ReLU mask of the pre-activation.  Each step allocates only the
arrays the loss needs: the biases above layer 0 are added and ReLUs applied
in place, and the backward pass writes each layer's weight and bias
gradient straight into its slice of the flat gradient.

A training run resolves the layout once, in a ``_StepWorkspace``: the
views of each layer's weight and bias in ``params.flat`` (which the
optimizer updates in place; layer 0's [w; b] block and no separate bias),
each layer's propagated side, the per-layer views of one flat gradient
buffer, and the start of each loss row in the flattened logits, through
which the cross-entropy reads and writes each row's label entry; for the
full graph it also holds the loss rows, their labels, E and the sparse row
and column blocks the last layer reads.  Every step
reuses these, and its gradient overwrites the previous step's, which the
optimizer has consumed by then.
The public functions (:func:`gcn_forward`, :func:`loss_and_grad`,
:func:`subgraph_batch_gradients`) build a workspace per call, so what they
return is never overwritten by a later call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .graphs import PopulationGraph


class ShapeError(Exception):
    """Raised when features, parameters, or adjacency disagree on dimensions."""


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    kind: str  # "gcn_conv" | "dense"

    def __post_init__(self):
        if self.kind not in ("gcn_conv", "dense"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dims must be positive")

    @property
    def size(self) -> int:
        return self.in_dim * self.out_dim + self.out_dim


@dataclass
class ModelParams:
    """Flat float64 parameter vector plus per-layer shape metadata."""

    flat: np.ndarray
    layers: tuple[LayerSpec, ...]
    seed: int = 0

    def __post_init__(self):
        expected = sum(l.size for l in self.layers)
        if self.flat.shape != (expected,):
            raise ValueError(f"flat length {self.flat.shape} != layer total {expected}")
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("parameters must be finite")

    def weight_bias(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of layer l's weight matrix and bias vector into the flat array."""
        return _weight_bias_views(self.flat, self.layers, l)

    def clone(self) -> "ModelParams":
        return ModelParams(flat=self.flat.copy(), layers=self.layers, seed=self.seed)


def _weight_bias_views(flat: np.ndarray, layers, l: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of layer l's weight matrix and bias vector into the last axis of ``flat``."""
    off = sum(s.size for s in layers[:l])
    spec = layers[l]
    k = off + spec.in_dim * spec.out_dim
    w = flat[..., off:k].reshape(*flat.shape[:-1], spec.in_dim, spec.out_dim)
    return w, flat[..., k:off + spec.size]


def _step_views(flat: np.ndarray, layers) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per layer, the (weight, bias) views of a step into the last axis of
    ``flat``: layer 0's [w; b] block, (in_dim + 1, out_dim), and no bias,
    since its input carries a ones column; every other layer's w and b."""
    spec = layers[0]
    block = flat[..., :spec.size].reshape(*flat.shape[:-1], spec.in_dim + 1, spec.out_dim)
    return [(block, None)] + [_weight_bias_views(flat, layers, l) for l in range(1, len(layers))]


def _with_ones(x: np.ndarray) -> np.ndarray:
    """A copy of ``x`` with a trailing ones column: layer 0's input, whose
    product with the [w; b] block adds the bias."""
    out = np.empty((*x.shape[:-1], x.shape[-1] + 1))
    out[..., :-1] = x
    out[..., -1] = 1.0
    return out


def _matmul_rows(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``p @ w`` for a weight ``w`` shared by every row of ``p``, as one 2-D
    product over all of p's rows: (..., r, k) -> (..., r, o) through reshape
    views (a stacked ``p`` is copied only when its rows are not contiguous)."""
    return (p.reshape(-1, p.shape[-1]) @ w).reshape(*p.shape[:-1], w.shape[-1])


def layer_dims(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int) -> list[tuple[int, int]]:
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if num_layers == 1:
        return [(in_dim, out_dim)]
    dims = [(in_dim, hidden_dim)]
    dims += [(hidden_dim, hidden_dim)] * (num_layers - 2)
    dims.append((hidden_dim, out_dim))
    return dims


def init_params(dims, kind: str, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, one RNG stream per model."""
    layers = tuple(LayerSpec(i, o, kind) for i, o in dims)
    rng = np.random.default_rng(seed)
    chunks = []
    for spec in layers:
        limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
        chunks.append(rng.uniform(-limit, limit, spec.in_dim * spec.out_dim))
        chunks.append(np.zeros(spec.out_dim))
    return ModelParams(flat=np.concatenate(chunks), layers=layers, seed=seed)


def init_gcn(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int, seed: int) -> ModelParams:
    return init_params(layer_dims(in_dim, hidden_dim, out_dim, num_layers), "gcn_conv", seed)


def init_mlp(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int, seed: int) -> ModelParams:
    return init_params(layer_dims(in_dim, hidden_dim, out_dim, num_layers), "dense", seed)


@dataclass(frozen=True)
class ForwardContext:
    """Normalized adjacency plus the feature matrix it propagates."""

    adj_norm: object  # scipy CSR for full graphs, dense ndarray for small subgraphs
    features: np.ndarray

    @property
    def propagated_features(self) -> np.ndarray:
        """A @ X, computed on first use and kept for the life of the context
        (a view of layer 0's input without its ones column)."""
        return self._propagated_input[:, :-1]

    @cached_property
    def _propagated_input(self) -> np.ndarray:
        return _with_ones(self.adj_norm @ self.features)

    @cached_property
    def _feature_input(self) -> np.ndarray:
        return _with_ones(self.features)

    def first_layer_input(self, layers) -> np.ndarray:
        """What layer 0 reads, with a trailing ones column and kept for the
        life of the context: A @ X for a ``gcn_conv`` first layer, X for a
        ``dense`` one."""
        return self._propagated_input if layers[0].kind == "gcn_conv" else self._feature_input


def normalize_adjacency(graph: PopulationGraph) -> ForwardContext:
    """Symmetric normalization with self-loops: D^{-1/2} (A + I) D^{-1/2}."""
    n = graph.num_nodes
    deg = graph.degrees() + 1.0  # self-loop guarantees positive degree
    inv_sqrt = 1.0 / np.sqrt(deg)
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    vals = inv_sqrt[rows] * inv_sqrt[graph.indices]
    adj = sp.csr_matrix((vals, graph.indices.astype(np.int64), graph.indptr), shape=(n, n))
    adj = adj + sp.diags(inv_sqrt * inv_sqrt, format="csr")
    return ForwardContext(adj_norm=adj.tocsr(), features=graph.features)


def _propagated_side(l: int, spec: LayerSpec) -> str | None:
    """Which side of layer l's weight the adjacency multiplies: the narrower one.

    A ``gcn_conv`` layer above the first computes adj @ h @ w + b; it
    propagates its output (adj @ (h @ w)) when that is narrower than its
    input, and its input ((adj @ h) @ w) otherwise.  Layer 0 reads the
    precomputed A @ X and ``dense`` layers do not propagate.
    """
    if l == 0 or spec.kind != "gcn_conv":
        return None
    return "output" if spec.out_dim < spec.in_dim else "input"


class _StepWorkspace:
    """One model's layer layout, resolved once, and the buffers its steps reuse.

    ``batch`` is () for the whole graph and (m,) for a stack of m subgraphs.
    The weight and bias views read ``params.flat``, so in-place optimizer
    updates reach the next step; each step overwrites ``grad``.

    A full-graph training workspace (given ``adj``, ``labels``, the loss
    ``mask`` and the ``val_mask``) resolves ``rows``, E (see the module
    docstring), and what its last layer reads: ``adj_rows`` = A[E] and
    ``adj_loss_cols`` = A[:, loss rows] when it propagates, else
    ``d_hidden``, an input-gradient buffer whose non-loss rows stay zero.
    Without a mask ``rows`` is None, and every row is computed.
    """

    def __init__(self, params: ModelParams, batch: tuple[int, ...] = (), adj=None, labels=None,
                 mask=None, val_mask=None):
        layers = params.layers
        self.layers = layers
        self.sides = [_propagated_side(l, spec) for l, spec in enumerate(layers)]
        self.weights = _step_views(params.flat, layers)
        self.grad = np.empty((*batch, params.flat.size))
        self.grad_views = _step_views(self.grad, layers)
        self.rows = None
        classes = layers[-1].out_dim
        if batch:
            self.label_starts = np.arange(batch[0]) * classes
        if mask is not None:
            self.loss_rows = np.flatnonzero(mask)
            if self.loss_rows.size == 0:
                raise ValueError("mask selects no nodes")
            self.loss_labels = labels[self.loss_rows]
            self.label_starts = np.arange(self.loss_rows.size) * classes
            self.rows = (self.loss_rows if val_mask is None
                         else np.concatenate([self.loss_rows, np.flatnonzero(val_mask)]))
            if self.sides[-1] is not None:
                # CSR row and column selection keep each row's entries in order
                self.adj_rows = adj[self.rows]
                self.adj_loss_cols = adj[:, self.loss_rows]
            elif len(layers) > 1:
                self.d_hidden = np.zeros((mask.shape[0], layers[-1].in_dim))


def _forward(ws: _StepWorkspace, adj, x: np.ndarray, keep_cache: bool, rows=None):
    """Shared forward pass; returns (logits, cache of (layer input, matrix times w)).

    ``x`` is layer 0's input (A @ X or X with a ones column, see the module
    docstring).  ``adj`` is sparse (n, n) with ``x`` (n, d + 1), or a dense
    (m, s, s) stack with ``x`` (m, s, d + 1).
    With ``rows`` (see the module docstring), layer l maps the first
    ``rows[l]`` rows to the first ``rows[l + 1]``.  A full-graph training
    workspace's last layer maps every row to its E rows (``ws.rows``).
    """
    in_dim = ws.layers[0].in_dim
    if x.shape[-1] != in_dim + 1:
        raise ShapeError(f"feature dim {x.shape[-1] - 1} != first-layer in_dim {in_dim}")
    h = x if rows is None else x[:, :rows[0]]
    cache = []
    last = len(ws.layers) - 1
    for l, ((w, b), side) in enumerate(zip(ws.weights, ws.sides)):
        a = adj if rows is None else adj[:, :rows[l + 1], :rows[l]]
        p = h
        if l == last and ws.rows is not None:  # the full graph's E rows only
            if side is None:
                p = h[ws.rows]
            else:
                a = ws.adj_rows
        if side == "input":
            p = a @ h
        z = _matmul_rows(p, w)
        if side == "output":
            z = a @ z
        if b is not None:
            z += b
        if keep_cache:
            cache.append((h, p))
        if l < last:
            np.maximum(z, 0.0, out=z)
        h = z
    return h, cache


def gcn_forward(ctx: ForwardContext, params: ModelParams) -> np.ndarray:
    """Per-node class logits over the whole (transductive) graph; MLP models
    (``dense`` layers only) ignore the adjacency."""
    logits, _ = _forward(_StepWorkspace(params), ctx.adj_norm,
                         ctx.first_layer_input(params.layers), keep_cache=False)
    return logits


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray,
                        starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row softmax cross-entropy and its gradient with respect to the rows,
    both from one shifted log-softmax.

    ``starts`` holds each row's offset in the flattened (rows, classes)
    array, ``np.arange(rows) * classes`` (a workspace's ``label_starts``), so
    each row's label entry is read and written through one flat index."""
    flat = starts + labels
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    losses = np.log(total[:, 0]) - shifted.take(flat)
    exp /= total
    exp.reshape(-1)[flat] -= 1.0
    return losses, exp


def _backward(ws: _StepWorkspace, adj, cache, d_logits: np.ndarray, rows=None) -> np.ndarray:
    """Reverse-mode sweep from an output-logit gradient into ``ws.grad``, the
    flat parameter gradient (one row per batch entry when the forward pass
    ran over an (m, s, s) stack).

    The normalized adjacency is symmetric, so A^T g == A g; with ``rows``,
    layer l's transposed block is ``adj[:, :rows[l], :rows[l + 1]]``.  A
    full-graph training workspace's ``d_logits`` holds the loss rows only,
    and its last layer's transposed block is ``ws.adj_loss_cols``.
    """
    dz = d_logits
    last = len(ws.layers) - 1
    for l in range(last, -1, -1):
        w, _ = ws.weights[l]
        dw, db = ws.grad_views[l]
        h, p = cache[l]
        side = ws.sides[l]
        a = adj if rows is None else adj[:, :rows[l], :rows[l + 1]]
        cut = l == last and ws.rows is not None  # dz holds the loss rows only
        if cut:
            if side is not None:
                a = ws.adj_loss_cols
            if side != "output":
                p = p[:dz.shape[0]]  # the loss rows, E's prefix
        if db is not None:
            np.einsum("...rk->...k", dz, out=db)
        if side == "output":
            dz = a @ dz
        np.matmul(np.swapaxes(p, -1, -2), dz, out=dw)
        if l > 0:
            dh = _matmul_rows(dz, w.T)
            if side == "input":
                dh = a @ dh
            elif cut and side is None:
                ws.d_hidden[ws.loss_rows] = dh
                dh = ws.d_hidden
            dh *= h > 0.0  # h is post-ReLU, so h > 0 exactly where its pre-activation is
            dz = dh
    return ws.grad


def subgraph_batch_gradients(adj: np.ndarray, inputs: np.ndarray, root_labels: np.ndarray,
                             rows: list[int], params: ModelParams | _StepWorkspace
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-subgraph root losses and flat gradients, vectorized over the batch.

    ``adj`` is a zero-padded (m, s, s) stack of normalized adjacencies with
    the root at local index 0, ``inputs`` the (m, s, d + 1) stack of layer
    0's inputs (A @ X or X) with a trailing ones column (see the module
    docstring), and ``rows`` the row prefix each layer reads (see
    the module docstring), with ``rows[0] <= s``;
    :meth:`dpgraphlab.sampling.SubgraphStore.batch` returns all four, cut to
    ``rows[0]``.  Gradients come back as an (m, n_params) matrix in the same
    layout as ``params.flat``.

    The workspace form of ``params`` is internal: the training loop passes
    its :class:`_StepWorkspace`, and the gradient matrix is then that
    workspace's buffer, overwritten by the next call.  Given a
    :class:`ModelParams`, the arrays are fresh.
    """
    ws = (params if isinstance(params, _StepWorkspace)
          else _StepWorkspace(params, batch=(root_labels.size,)))
    logits, cache = _forward(ws, adj, inputs, keep_cache=True, rows=rows)
    losses, d_roots = _cross_entropy_rows(logits[:, 0, :], root_labels, ws.label_starts)
    return losses, _backward(ws, adj, cache, d_roots[:, None, :], rows=rows)


def _masked_loss_grad_and_logits(ws: _StepWorkspace, adj, x: np.ndarray):
    """Mean cross-entropy over ``ws``'s loss rows, its gradient (``ws.grad``)
    and the logits of ``ws.rows``: the loss rows, then the val rows."""
    logits, cache = _forward(ws, adj, x, keep_cache=True)
    size = ws.loss_rows.size
    losses, d_rows = _cross_entropy_rows(logits[:size], ws.loss_labels, ws.label_starts)
    d_rows /= size
    # sum / size is the bits of losses.mean() without its per-call overhead
    return float(losses.sum() / size), _backward(ws, adj, cache, d_rows), logits


def loss_and_grad(ctx: ForwardContext, params: ModelParams, labels: np.ndarray,
                  mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean masked cross-entropy and its exact gradient through all layers."""
    ws = _StepWorkspace(params, adj=ctx.adj_norm, labels=labels, mask=mask)
    loss, grad, _ = _masked_loss_grad_and_logits(ws, ctx.adj_norm,
                                                 ctx.first_layer_input(params.layers))
    return loss, grad


def save_params(params: ModelParams, path) -> None:
    """Write a one-line JSON shape header followed by the flat little-endian float64 array."""
    import json

    header = {
        "layers": [[s.in_dim, s.out_dim, s.kind] for s in params.layers],
        "seed": params.seed,
        "dtype": "<f8",
        "length": int(params.flat.size),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.flat.astype("<f8").tobytes())


def load_params(path) -> ModelParams:
    import json

    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    layers = tuple(LayerSpec(i, o, k) for i, o, k in header["layers"])
    if flat.size != header["length"]:
        raise ValueError(f"parameter payload length {flat.size} != header length {header['length']}")
    return ModelParams(flat=flat, layers=layers, seed=header.get("seed", 0))
