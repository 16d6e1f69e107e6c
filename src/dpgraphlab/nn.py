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

Every step runs a stack of S models (S = 1 for one model) with
(S, n_params) parameters.  A batch of subgraphs holds m of each model's,
model by model, as one (S * m, rows, k) stack.  It takes each product
with a weight that a model's subgraphs share, ``p @ w`` forward and
``dz @ w.T`` backward, as one broadcast matmul over the (S, m * rows, k)
view of the batch (:func:`_model_rows`): one product over each model's
m * rows rows, so each model's BLAS call is that of its one-model batch.
The products that differ per subgraph, the adjacency products and the
per-sample weight gradient ``p.T @ dz``, the loss and the gradient rows
run once over the whole stack, so each model's losses and gradient rows
have the bits of its one-model batch.  The BLAS kernel may order a row's
sum differently in one large product than in m small ones, so a batch's
gradients can differ in the last bits from per-subgraph products.

On the full graph a stack has (S, rows, k) activations: each weight
product is one broadcast matmul, each model's own BLAS call, and each
adjacency product one CSR product over all S * k columns, so each model's
step has the bits of a one-model step.  The CSR product returns the stack
node-major, (rows, S, k) seen as (S, rows, k); a layer that propagates its
input copies it model-major, so each model's weight-product operands are
laid out as in a one-model step (with hidden_dim=1 a layout change alone
moves a product's last bits).
A training step reads the logits of the loss (train) rows and, for its
log record, of the val rows: E, the union of the models' loss rows, then
the val rows.  A last layer that propagates its output (a narrowing one,
classes < hidden) cuts its adjacency products to those rows: it
propagates through A[E], and its backward pass starts from the loss rows,
zero outside each model's own, through A[:, loss rows] (the transpose of
A's loss rows, as A is symmetric).  Every kept logit and every gradient
entry has the bits of the every-row computation: each kept row sum is the
same CSR row sum, and the backward pass drops only +0.0 terms.  Every other
product computes every row, so each model's weight products have n rows in
a stack as alone: any other last layer computes every row, returns its E
rows, and its backward pass starts from a model-major (S, n, C) gradient
that is zero outside each model's loss rows.  :func:`gcn_forward` computes
every row.

Layer order: a ``gcn_conv`` layer above the first multiplies the
adjacency into the narrower side of its weight, as (A @ h) @ w + b when it
widens or keeps the width and as A @ (h @ w) + b when it narrows, so the
32 -> 2 output layer propagates 2 columns forward and backward.  The
forward cache holds, per layer, the post-activation input h and the matrix
multiplied into w (A @ h or h itself); the backward pass masks with h > 0,
which is the ReLU mask of the pre-activation.  Each step allocates only the
arrays the loss needs: the biases above layer 0 are added and ReLUs applied
in place, and the backward pass writes each layer's weight and bias
gradient straight into its slice of the flat gradient.  On the full graph
it also writes each hidden layer's gradient dh = dz @ w.T over that layer's
input h, once the ReLU mask and the weight gradient have read h (which no
lower layer reads), so a step keeps no dh buffer.  A batch does not: its
dh has the rows of the layer above, not h's.

A training run resolves the layout once, in a ``_StepWorkspace``: the
views of each layer's weight and bias in ``params.flat`` (which the
optimizer updates in place; layer 0's [w; b] block and no separate bias),
each layer's propagated side, the per-layer views of one flat gradient
buffer, and the start of each loss row in the flattened logits, through
which the cross-entropy reads and writes each row's label entry; for the
full graph it also holds a stack's activation buffers and, in training,
the one layout of its rows: E, ``member``, the loss rows' labels and the
sparse row and column blocks the last layer reads.  Every step and every
forward pass over E reuse these, and a step's gradient overwrites the
previous step's, which the optimizer has consumed by then.
The public functions (:func:`gcn_forward`, :func:`loss_and_grad`,
:func:`subgraph_batch_gradients`) build a workspace per call, so what they
return is never overwritten by a later call.

``scipy.sparse`` is imported inside :func:`normalize_adjacency`, the one
place that builds a sparse matrix; every later product and slice goes
through the CSR object's own methods.  The import is most of what loading
the package would otherwise cost, so ``import dpgraphlab`` and the CLI
commands that build no adjacency load numpy only, and the first adjacency
build pays for scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .graphs import PopulationGraph, _check_integer


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
        _check_integer(self.in_dim, "in_dim", 1)
        _check_integer(self.out_dim, "out_dim", 1)

    @property
    def size(self) -> int:
        return self.in_dim * self.out_dim + self.out_dim


@dataclass
class ModelParams:
    """Flat float64 parameter vector plus per-layer shape metadata."""

    flat: np.ndarray
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        expected = sum(l.size for l in self.layers)
        if self.flat.shape != (expected,):
            raise ValueError(f"flat length {self.flat.shape} != layer total {expected}")
        if not np.all(np.isfinite(self.flat)):
            raise ValueError("parameters must be finite")


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


def layer_dims(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int) -> list[tuple[int, int]]:
    _check_integer(num_layers, "num_layers", 1)
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
    return ModelParams(flat=np.concatenate(chunks), layers=layers)


def init_gcn(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int, seed: int) -> ModelParams:
    return init_params(layer_dims(in_dim, hidden_dim, out_dim, num_layers), "gcn_conv", seed)


def init_mlp(in_dim: int, hidden_dim: int, out_dim: int, num_layers: int, seed: int) -> ModelParams:
    return init_params(layer_dims(in_dim, hidden_dim, out_dim, num_layers), "dense", seed)


@dataclass(frozen=True)
class ForwardContext:
    """Normalized adjacency plus the feature matrix it propagates."""

    adj_norm: object  # scipy CSR; only SubgraphStore batches hold dense adjacencies
    features: np.ndarray

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
    import scipy.sparse as sp  # imported here: see the module docstring

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
    """A step's layer layout, resolved once, and the buffers its steps reuse.

    ``flat`` is an (S, n_params) stack of models, for a batch of B
    subgraphs (``batch`` = (B,): m per model, model by model, and ``grad``
    (B, n_params)) or for the whole graph (``grad`` (S, n_params)).  The
    weight and bias views read ``flat``, so in-place optimizer updates reach
    the next step; each step overwrites ``grad``.

    A full-graph training workspace (given ``adj``, ``labels``, the (S, n)
    loss ``masks`` and the ``val_mask``) is the one layout of a stack's rows:
    E (``rows``, see the module docstring), the union's U ``loss_rows`` and
    their labels, ``member`` (S, U): which of them each model trains on, and
    the zeroed logit gradient ``d_logits`` that each step's loss gradient is
    scattered into: (S, loss rows, C) beside A[E] and A[:, loss rows] when the
    last layer propagates its output, else (S, n, C).  Its rows outside each
    model's loss rows stay zero.  An empty mask raises ValueError; without
    masks ``rows`` is None.
    """

    def __init__(self, flat: np.ndarray, layers, batch: tuple[int, ...] = (), adj=None,
                 labels=None, masks=None, val_mask=None):
        self.layers = layers
        self.sides = [_propagated_side(l, spec) for l, spec in enumerate(layers)]
        self.weights = _step_views(flat, layers)
        self.grad = np.empty((*batch, flat.shape[1]) if batch else flat.shape)
        self.grad_views = _step_views(self.grad, layers)
        self.buffers = None if batch else {}
        self.rows = None
        classes = layers[-1].out_dim
        if batch:
            self.label_starts = np.arange(batch[0]) * classes
        if masks is not None:
            if not masks.any(axis=1).all():
                raise ValueError("mask selects no nodes")
            union = masks.any(axis=0)
            self.member, self.loss_rows = masks[:, union], np.flatnonzero(union)
            self.rows = (self.loss_rows if val_mask is None
                         else np.concatenate([self.loss_rows, np.flatnonzero(val_mask)]))
            models, pos = np.nonzero(self.member)  # model by model, rows ascending
            sizes = self.member.sum(axis=1)
            self.loss_slices = [slice(e - n, e) for n, e in zip(sizes, np.cumsum(sizes))]
            self.loss_index = pos * len(masks) + models  # rows of the node-major logits
            self.loss_labels = labels[self.loss_rows[pos]]
            self.label_starts = np.arange(pos.size) * classes
            self.loss_sizes = np.repeat(sizes, sizes)[:, None]
            if self.sides[-1] == "output":  # the loss rows, see the module docstring
                # CSR row and column selection keep each row's entries in order
                self.adj_rows = adj[self.rows]
                self.adj_loss_cols = adj[:, self.loss_rows]
                # node-major, as the adjacency product reads it (see _propagate)
                self.d_index = self.loss_index
                self.d_loss = np.zeros((self.loss_rows.size * len(masks), classes))
                self.d_logits = self.d_loss.reshape(-1, len(masks), classes).swapaxes(0, 1)
            else:  # every row, each model's laid out as in a one-model step
                self.d_index = models * masks.shape[1] + self.loss_rows[pos]
                self.d_loss = np.zeros((len(masks) * masks.shape[1], classes))
                self.d_logits = self.d_loss.reshape(len(masks), -1, classes)

    def buffer(self, key, shape: tuple[int, ...], dtype=float) -> np.ndarray | None:
        """The array a stack's steps reuse for ``key`` (None in a batch): malloc
        returns freed stack activations to the OS, and refaulting costs a step."""
        if self.buffers is None:
            return None
        buf = self.buffers.get(key)
        if buf is None or buf.shape != shape:
            buf = self.buffers[key] = np.empty(shape, dtype)
        return buf


def _model_rows(a: np.ndarray, models: int) -> np.ndarray:
    """``a`` as each model's block of rows: an (S * m, r, k) stacked batch as
    (S, m * r, k), a view of its rows (a copy when they are cut from longer
    subgraphs); a full-graph stack's (S, rows, k) as it is."""
    return a if len(a) == models else a.reshape(models, -1, a.shape[-1])


def _weights(p: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``p @ w`` for S models' (S, k, o) weights, one product per model: on
    a full-graph stack's shared (rows, k) input or (S, rows, k) rows, or on
    each model's block of a stacked batch (:func:`_model_rows`), as one
    product over all of its rows."""
    if p.ndim == 2 or len(p) == len(w):
        return np.matmul(p, w, out=out)
    return np.matmul(_model_rows(p, len(w)), w).reshape(*p.shape[:-1], w.shape[-1])


def _propagate(a, h: np.ndarray) -> np.ndarray:
    """``a @ h``: a dense (m, r, s) adjacency stack on its (m, s, k) batch, or
    the graph's adjacency on a stack's (S, n, k) activations, one product on
    their (n, S * k) node-major copy, returned as an (S, rows, k) view of the
    node-major result."""
    if a.ndim == 3:
        return a @ h
    models, rows, k = h.shape
    return (a @ h.swapaxes(0, 1).reshape(rows, -1)).reshape(-1, models, k).swapaxes(0, 1)


def _forward(ws: _StepWorkspace, adj, x: np.ndarray, keep_cache: bool, rows=None):
    """Shared forward pass; returns (logits, cache of (layer input, matrix times w)).

    ``x`` is layer 0's input (A @ X or X with a ones column, see the module
    docstring).  ``adj`` is sparse (n, n) with ``x`` (n, d + 1) and logits
    (S, n, C) for a stack of S models, or a dense (m, s, s) stack with ``x``
    (m, s, d + 1).
    With ``rows`` (see the module docstring), layer l maps the first
    ``rows[l]`` rows to the first ``rows[l + 1]``.  A full-graph training
    workspace returns the logits of its E rows (``ws.rows``).
    """
    in_dim = ws.layers[0].in_dim
    if x.shape[-1] != in_dim + 1:
        raise ShapeError(f"feature dim {x.shape[-1] - 1} != first-layer in_dim {in_dim}")
    h = x if rows is None else x[:, :rows[0]]
    cache = []
    last = len(ws.layers) - 1
    for l, ((w, b), side) in enumerate(zip(ws.weights, ws.sides)):
        a = adj if rows is None else adj[:, :rows[l + 1], :rows[l]]
        if l == last and side == "output" and ws.rows is not None:
            a = ws.adj_rows  # the E rows only, see the module docstring
        # an input-side product feeds the weight products, so each model's
        # rows are laid out as in a one-model step (a copy only in a stack)
        p = np.ascontiguousarray(_propagate(a, h)) if side == "input" else h
        z = _weights(p, w, ws.buffer(("z", l), (len(w), p.shape[-2], w.shape[-1]))
                     if l < last else None)  # the logits are returned, not reused
        if side == "output":
            z = _propagate(a, z)
        if b is not None:  # (S, o): each model's bias on its rows
            model_z = _model_rows(z, len(b))
            model_z += b[:, None, :]
        if keep_cache:
            cache.append((h, p))
        if l < last:
            np.maximum(z, 0.0, out=z)
        h = z
    if ws.rows is not None and side != "output":  # node-major, as the cut layer's logits
        h = h.swapaxes(0, 1)[ws.rows].swapaxes(0, 1)
    return h, cache


def gcn_forward(ctx: ForwardContext, params: ModelParams) -> np.ndarray:
    """Per-node class logits over the whole (transductive) graph; MLP models
    (``dense`` layers only) ignore the adjacency."""
    logits, _ = _forward(_StepWorkspace(params.flat[None], params.layers), ctx.adj_norm,
                         ctx.first_layer_input(params.layers), keep_cache=False)
    return logits[0]


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray,
                        starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row softmax cross-entropy and its gradient with respect to the rows,
    both from one shifted log-softmax.

    ``starts`` holds each row's offset in the flattened (rows, classes)
    array, ``np.arange(rows) * classes`` (a workspace's ``label_starts``), so
    each row's label entry is read and written through one flat index."""
    flat = starts + labels
    # class by class: a row max's and (below 8 classes) row sum's ops, in order
    shifted = logits - reduce(np.maximum, logits.T)[:, None]
    exp = np.exp(shifted)
    total = (reduce(np.add, exp.T) if exp.shape[1] < 8 else exp.sum(axis=1))[:, None]
    losses = np.log(total[:, 0]) - shifted.take(flat)
    exp /= total
    exp.reshape(-1)[flat] -= 1.0
    return losses, exp


def _backward(ws: _StepWorkspace, adj, cache, d_logits: np.ndarray, rows=None) -> np.ndarray:
    """Reverse-mode sweep from an output-logit gradient into ``ws.grad``, the
    flat parameter gradient (one row per batch entry when the forward pass
    ran over an (m, s, s) stack, one per model on the full graph).

    The normalized adjacency is symmetric, so A^T g == A g; with ``rows``,
    layer l's transposed block is ``adj[:, :rows[l], :rows[l + 1]]``.  A
    full-graph training workspace's ``d_logits`` is its ``ws.d_logits``,
    and a last layer that propagates its output reads ``ws.adj_loss_cols``.
    """
    dz = d_logits
    last = len(ws.layers) - 1
    for l in range(last, -1, -1):
        w, _ = ws.weights[l]
        dw, db = ws.grad_views[l]
        h, p = cache[l]
        side = ws.sides[l]
        a = adj if rows is None else adj[:, :rows[l], :rows[l + 1]]
        if l == last and side == "output" and ws.rows is not None:
            a = ws.adj_loss_cols  # dz holds the loss rows only
        if db is not None:
            np.einsum("...rk->...k", dz, out=db)
        if side == "output":
            dz = _propagate(a, dz)
        np.matmul(np.swapaxes(p, -1, -2), dz, out=dw)
        if l > 0:
            # h is post-ReLU, so h > 0 exactly where its pre-activation is
            live = np.greater(h, 0.0, out=ws.buffer(("live", l), h.shape, bool))
            # dw has read p, so a full-graph step writes dh over h, which no
            # later layer reads; a batch's dh has rows[l + 1] rows, not h's rows[l]
            dh = _weights(dz, np.swapaxes(w, -1, -2), None if ws.buffers is None else h)
            if side == "input":  # laid out as p is in _forward
                dh = np.ascontiguousarray(_propagate(a, dh))
            dh *= live
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
          else _StepWorkspace(params.flat[None], params.layers, batch=(root_labels.size,)))
    logits, cache = _forward(ws, adj, inputs, keep_cache=True, rows=rows)
    losses, d_roots = _cross_entropy_rows(logits[:, 0, :], root_labels, ws.label_starts)
    return losses, _backward(ws, adj, cache, d_roots[:, None, :], rows=rows)


def _masked_loss_grad_and_logits(ws: _StepWorkspace, adj, x: np.ndarray, means: bool = True):
    """Each model's mean cross-entropy over its loss rows (None without
    ``means``), the (S, n_params) gradient (``ws.grad``) and the (S, E, C)
    logits of ``ws.rows``."""
    logits, cache = _forward(ws, adj, x, keep_cache=True)
    node_rows = logits.swapaxes(0, 1).reshape(-1, logits.shape[-1])  # a view, see _forward
    losses, d_rows = _cross_entropy_rows(node_rows.take(ws.loss_index, axis=0), ws.loss_labels,
                                         ws.label_starts)
    d_rows /= ws.loss_sizes
    ws.d_loss[ws.d_index] = d_rows
    # sum / size is the bits of losses.mean() without its per-call overhead
    loss_means = ([float(losses[cut].sum() / (cut.stop - cut.start)) for cut in ws.loss_slices]
                  if means else None)
    return loss_means, _backward(ws, adj, cache, ws.d_logits), logits


def loss_and_grad(ctx: ForwardContext, params: ModelParams, labels: np.ndarray,
                  mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean masked cross-entropy and its exact gradient through all layers."""
    ws = _StepWorkspace(params.flat[None], params.layers, adj=ctx.adj_norm, labels=labels,
                        masks=mask[None])
    losses, grad, _ = _masked_loss_grad_and_logits(ws, ctx.adj_norm,
                                                   ctx.first_layer_input(params.layers))
    return losses[0], grad[0]
