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
adjacency) and a zero-padded stack of sampled subgraphs (dense (m, a, s)
adjacency), where :func:`subgraph_batch_gradients` takes each subgraph's
root loss and returns one gradient row per subgraph.  That loss sits on
row 0 only, so the batch computes only the root's receptive field, given
as ``rows``, the row prefix each layer reads.  Going back from the output,
the last layer yields 1 row, a layer above the first that propagates reads
the rows up to the last column with a nonzero in the adjacency rows the
next layer reads, and any other layer reads the rows the next layer reads.
Layer l maps ``rows[l]`` rows to ``rows[l + 1]``: one that propagates
reads the block ``adj[:, :rows[l + 1], :rows[l]]`` forward and its
transpose backward, so a batch reads a stack's first a rows only, a being
the largest such ``rows[l + 1]`` (0 for an MLP), and never leans on the
adjacency's symmetry.  The store resolves these rows once, over all its
subgraphs, when it is built, and keeps only the first ``rows[0]`` rows of
each subgraph's input and the first a rows and ``rows[0]`` columns of its
adjacency.

Every step runs a stack of S models (S = 1 for one model) with
(S, n_params) parameters.  A batch of subgraphs holds m of each model's,
model by model, as one (S * m, rows, k) stack.  It takes each product
with a weight that a model's subgraphs share, ``p @ w`` forward and
``dz @ w.T`` backward, as one broadcast matmul over the (S, m * rows, k)
view of the batch: one product over each model's m * rows rows, so each
model's BLAS call is that of its one-model batch.
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
backward pass reads, per layer, the post-activation input h and the matrix
multiplied into w (A @ h or h itself), both as the forward pass left them,
and masks with h > 0, which is the ReLU mask of the pre-activation.  The
biases above layer 0 are added and ReLUs applied in place, and the
backward pass writes each layer's weight and bias gradient straight into
its slice of the flat gradient.  It also writes
each hidden layer's input gradient dh over that layer's input h, on either
source, once the ReLU mask and the weight gradient have read h (which no
lower layer reads), so a step keeps no dh buffer: a layer that does not
propagate its input writes dz @ w.T into h, and one that does propagates
dz @ w.T, which has the rows of the layer above, into h, in one product
on a batch and as the model-major copy of the CSR product on the graph.

A training run resolves every operand of its step once, in a
``_StepWorkspace`` built on the arrays the step reads: the graph's
adjacency and layer-0 input, or the batch buffers that each step's batch
is gathered into.  Per layer it holds the adjacency block and its
transpose, the views of the weight, the transposed weight and the bias in
``params.flat`` (which the optimizer updates in place; layer 0's [w; b]
block and no separate bias), the views of the weight and bias gradient in
one flat gradient buffer, the activation, product and ReLU-mask buffers,
and a batch's per-model row views of them.  It also holds the start of
each loss row in the flattened logits, through which the cross-entropy
reads and writes each row's label entry, and, in full-graph training, the
one layout of the stack's rows: E, ``member``, the loss rows' labels and
the sparse row and column blocks the last layer reads.  A forward or
backward pass is then a fixed sequence of numpy calls, each writing into
a resolved operand (``out=``); the graph's CSR products are the
exception, as scipy returns a fresh array.  One forward and one backward
pass serve both sources, and every step and every forward pass over E
reuse the buffers: a step's gradient overwrites the previous step's,
which the optimizer has consumed by then.  The public functions
(:func:`gcn_forward`, :func:`loss_and_grad`,
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
from functools import cached_property, partial, reduce

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


def _csr_product(adj, h: np.ndarray) -> np.ndarray:
    """``adj @ h`` for the graph's sparse adjacency (or a row or column block
    of it) on a stack's (S, rows, k) activations: one CSR product on their
    (rows, S * k) node-major copy (no copy when ``h`` is a node-major view),
    returned as an (S, rows', k) view of the node-major result."""
    models, rows, k = h.shape
    return (adj @ h.swapaxes(0, 1).reshape(rows, -1)).reshape(-1, models, k).swapaxes(0, 1)


def _csr_into(out: np.ndarray, adj, h: np.ndarray, b: np.ndarray | None = None) -> None:
    """Writes ``adj @ h`` (:func:`_csr_product`), plus the (S, 1, k) bias ``b``
    when given, into ``out``."""
    if b is None:
        np.copyto(out, _csr_product(adj, h))
    else:
        np.add(_csr_product(adj, h), b, out=out)


class _Layer:
    """One layer's step operands, resolved by :class:`_StepWorkspace`; a step
    that a layer does not take is None.

    Forward: ``prop_in`` writes p = a @ h, ``p_rows @ w`` goes into
    ``q_rows``, ``prop_out`` writes z = a @ q, ``b`` is added to ``z_rows``,
    and ``relu`` (z, None on the last layer) is clipped at 0.  Backward from
    ``dz``: ``db`` receives its row sum, ``back_out`` writes dq = a.T @ dz
    into ``dq`` (else ``dq`` is dz; on the graph it returns a fresh dq, and
    ``dq`` is None), ``p_t @ dq`` goes into ``dw``, and a layer above the
    first writes ``live`` = h > 0, then ``dq_rows @ w_t`` into ``dh_rows``:
    h's own rows, or a buffer that ``back_in`` propagates into h.  Last, h
    is multiplied by ``live``, so h holds dz of the layer below."""

    __slots__ = ("prop_in", "p_rows", "w", "q_rows", "prop_out", "z_rows", "b", "relu", "dz",
                 "db", "back_out", "p_t", "dq", "dw", "h", "live", "dq_rows", "w_t", "dh_rows",
                 "back_in")


class _StepWorkspace:
    """A step's operands, resolved once, and the buffers its steps reuse.

    ``flat`` is an (S, n_params) stack of models; ``adj`` and ``x`` are the
    graph's sparse (n, n) adjacency and shared (n, d + 1) layer-0 input or,
    given a batch's ``rows`` (see the module docstring), a dense (B, a, s)
    adjacency stack and its (B, s, d + 1) inputs, m subgraphs per model,
    model by model, with ``labels`` their (B,) root labels.  ``grad`` is
    (S, n_params) on the graph and (B, n_params) on a batch.  ``plan`` holds
    one :class:`_Layer` per layer, whose operands are views of ``flat``
    (which the optimizer updates in place), ``grad``, ``adj`` and ``x`` and
    of the arrays in ``buffers``; a batch's (S, m * rows, k) model-row views
    of a contiguous stack are views, so every step rereads them in place.
    Each step overwrites ``grad`` and the buffers, and :func:`_forward`
    returns ``logits``, a buffer too.

    A full-graph training workspace (given ``labels``, the (S, n) loss
    ``masks`` and the ``val_mask``) is the one layout of a stack's rows: E
    (``rows``, see the module docstring), the union's U ``loss_rows`` and
    their labels, ``member`` (S, U): which of them each model trains on, and
    the zeroed logit gradient ``d_logits`` that each step's loss gradient is
    scattered into: (S, loss rows, C) beside A[E] and A[:, loss rows] when
    the last layer propagates its output, else (S, n, C).  Its rows outside
    each model's loss rows stay zero.  An empty mask raises ValueError.
    Without masks ``rows`` is None and ``d_logits`` is an every-row (S, n, C)
    buffer of zeros; on a batch it is the (B, 1, C) view of ``d_roots``, into
    which the root losses' gradient is written.
    """

    def __init__(self, flat: np.ndarray, layers, adj, x: np.ndarray, labels=None, rows=None,
                 masks=None, val_mask=None):
        in_dim = layers[0].in_dim
        if x.shape[-1] != in_dim + 1:
            raise ShapeError(f"feature dim {x.shape[-1] - 1} != first-layer in_dim {in_dim}")
        models, classes, last = len(flat), layers[-1].out_dim, len(layers) - 1
        batch = rows is not None
        self.adj, self.x, self.labels = adj, x, labels
        self.buffers: dict = {}
        self.grad = np.empty((len(x), flat.shape[1]) if batch else flat.shape)
        self.rows = self.take_logits = None
        sides = [_propagated_side(l, spec) for l, spec in enumerate(layers)]
        if masks is not None:
            if not masks.any(axis=1).all():
                raise ValueError("mask selects no nodes")
            union = masks.any(axis=0)
            self.member, self.loss_rows = masks[:, union], np.flatnonzero(union)
            self.rows = (self.loss_rows if val_mask is None
                         else np.concatenate([self.loss_rows, np.flatnonzero(val_mask)]))
            ms, pos = np.nonzero(self.member)  # model by model, rows ascending
            sizes = self.member.sum(axis=1)
            self.loss_slices = [slice(e - n, e) for n, e in zip(sizes, np.cumsum(sizes))]
            self.loss_index = pos * models + ms  # rows of the node-major logits
            self.loss_labels = labels[self.loss_rows[pos]]
            self.label_starts = np.arange(pos.size) * classes
            self.loss_sizes = np.repeat(sizes, sizes)[:, None]
            if sides[-1] == "output":  # the loss rows, see the module docstring
                # CSR row and column selection keep each row's entries in order
                self.adj_rows = adj[self.rows]
                self.adj_loss_cols = adj[:, self.loss_rows]
                # node-major, as the adjacency product reads it (see _csr_product)
                self.d_index = self.loss_index
                self.d_loss = np.zeros((self.loss_rows.size * models, classes))
                self.d_logits = self.d_loss.reshape(-1, models, classes).swapaxes(0, 1)
            else:  # every row, each model's laid out as in a one-model step
                self.d_index = ms * masks.shape[1] + self.loss_rows[pos]
                self.d_loss = np.zeros((models * masks.shape[1], classes))
                self.d_logits = self.d_loss.reshape(models, -1, classes)
        elif batch:
            self.label_starts = np.arange(len(x)) * classes
            self.d_roots = self.buffer("d_roots", (len(x), classes))
            self.d_logits = self.d_roots[:, None, :]
        else:
            self.d_logits = np.zeros((models, len(x), classes))

        def model_rows(a):  # each model's rows of a batch stack, a view of a contiguous one
            return a if a.ndim == 2 or len(a) == models else a.reshape(models, -1, a.shape[-1])

        lead = len(x) if batch else models
        h = x[:, :rows[0]] if batch else x
        self.plan = []
        for l, (spec, side, (w, b), (dw, db)) in enumerate(zip(
                layers, sides, _step_views(flat, layers), _step_views(self.grad, layers))):
            L = _Layer()
            cut = not batch and l == last and side == "output" and self.rows is not None
            n_in = rows[l] if batch else len(x)
            n_out = rows[l + 1] if batch else len(self.rows) if cut else len(x)
            a = a_t = None
            if batch and side is not None:
                a = adj[:, :rows[l + 1], :rows[l]]
                a_t = a.swapaxes(1, 2)
            elif side is not None:  # the E rows, and from the loss rows, when cut
                a, a_t = (self.adj_rows, self.adj_loss_cols) if cut else (adj, adj)
            L.prop_in = L.prop_out = L.back_out = L.back_in = None
            p = h
            if side == "input":  # copied model-major, as each model's weight product reads it
                p = self.buffer(("p", l), (lead, n_out, spec.in_dim))
                L.prop_in = (partial(np.matmul, a, h, out=p) if batch
                             else partial(_csr_into, p, adj, h))
            if side == "output":
                q = self.buffer(("q", l), (lead, n_in, spec.out_dim))
                if batch:
                    z = self.buffer(("z", l), (lead, n_out, spec.out_dim))
                    L.prop_out = partial(np.matmul, a, q, out=z)
                else:  # node-major, as the CSR product returns it, with the bias added
                    z = self.buffer(("z", l), (n_out, models, spec.out_dim)).swapaxes(0, 1)
                    L.prop_out = partial(_csr_into, z, a, q, b[:, None, :])
            else:
                q = z = self.buffer(("z", l), (lead, n_out, spec.out_dim))
            L.p_rows, L.w, L.q_rows, L.z_rows = model_rows(p), w, model_rows(q), model_rows(z)
            L.b = None if b is None or (side == "output" and not batch) else b[:, None, :]
            L.relu = z if l < last else None
            L.dz = z if l < last else self.d_logits  # the layer above writes dz over its h
            L.db, L.p_t, L.dw, L.h, L.w_t = db, np.swapaxes(p, -1, -2), dw, h, w.swapaxes(-1, -2)
            L.dq = L.dz
            if side == "output" and batch:
                L.dq = self.buffer(("dq", l), (lead, n_in, spec.out_dim))
                L.back_out = partial(np.matmul, a_t, L.dz, out=L.dq)
            elif side == "output":
                L.back_out, L.dq = partial(_csr_product, a_t, L.dz), None
            L.dq_rows = None if L.dq is None else model_rows(L.dq)
            L.live = L.dh_rows = None
            if l > 0:
                L.live, L.dh_rows = self.buffer(("live", l), h.shape, bool), model_rows(h)
            if l > 0 and side == "input" and batch:  # rows[l + 1] rows, propagated into h
                t = self.buffer(("dz_wt", l), (lead, n_out, spec.in_dim))
                L.dh_rows, L.back_in = model_rows(t), partial(np.matmul, a_t, t, out=h)
            elif l > 0 and side == "input":  # the CSR product, back model-major into h
                L.back_in = partial(_csr_into, h, adj, h)
            self.plan.append(L)
            h = z
        self.backward_plan = self.plan[::-1]
        if batch:
            self.logits, self.root_logits = z, z[:, 0, :]
        elif self.rows is not None and sides[-1] != "output":
            # the E rows of every row's logits, node-major as a cut layer's
            e_rows = self.buffer("logits", (len(self.rows), models, classes))
            index = (self.rows[:, None] + np.arange(models) * len(x)).ravel()
            self.take_logits = partial(z.reshape(-1, classes).take, index, axis=0,
                                       out=e_rows.reshape(-1, classes), mode="clip")
            self.logits = e_rows.swapaxes(0, 1)
        else:
            self.logits = z
        if self.rows is not None:
            self.node_logits = self.logits.swapaxes(0, 1).reshape(-1, classes)  # a view

    def buffer(self, key, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """A new array that every step reuses for ``key``, kept in ``buffers``."""
        buf = self.buffers[key] = np.empty(shape, dtype)
        return buf


def _forward(ws: _StepWorkspace) -> np.ndarray:
    """The forward pass over ``ws.plan``; returns ``ws.logits``: (S, n, C) on
    the graph, (S, E, C) on a full-graph training workspace (the E rows, see
    the module docstring) and (B, 1, C) on a batch."""
    for L in ws.plan:
        if L.prop_in is not None:
            L.prop_in()
        np.matmul(L.p_rows, L.w, out=L.q_rows)
        if L.prop_out is not None:
            L.prop_out()
        if L.b is not None:  # (S, 1, o): each model's bias on its rows
            np.add(L.z_rows, L.b, out=L.z_rows)
        if L.relu is not None:
            np.maximum(L.relu, 0.0, out=L.relu)
    if ws.take_logits is not None:
        ws.take_logits()
    return ws.logits


def gcn_forward(ctx: ForwardContext, params: ModelParams) -> np.ndarray:
    """Per-node class logits over the whole (transductive) graph; MLP models
    (``dense`` layers only) ignore the adjacency."""
    return _forward(_StepWorkspace(params.flat[None], params.layers, ctx.adj_norm,
                                   ctx.first_layer_input(params.layers)))[0]


def _cross_entropy_rows(logits: np.ndarray, labels: np.ndarray, starts: np.ndarray,
                        out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-row softmax cross-entropy and its gradient with respect to the rows,
    both from one shifted log-softmax; the gradient is written into ``out``
    (a C-contiguous array of the logits' shape) when given.

    ``starts`` holds each row's offset in the flattened (rows, classes)
    array, ``np.arange(rows) * classes`` (a workspace's ``label_starts``), so
    each row's label entry is read and written through one flat index."""
    flat = starts + labels
    # class by class: a row max's and (below 8 classes) row sum's ops, in order
    shifted = logits - reduce(np.maximum, logits.T)[:, None]
    exp = np.exp(shifted, out=out)
    total = (reduce(np.add, exp.T) if exp.shape[1] < 8 else exp.sum(axis=1))[:, None]
    losses = np.log(total[:, 0]) - shifted.take(flat)
    exp /= total
    exp.reshape(-1)[flat] -= 1.0
    return losses, exp


def _backward(ws: _StepWorkspace) -> np.ndarray:
    """The reverse-mode sweep over ``ws.plan`` from ``ws.d_logits`` into
    ``ws.grad``, the flat parameter gradient (one row per batch entry on a
    batch, one per model on the graph).

    A layer that propagates reads the transpose of the block its forward
    pass read: on a batch ``adj[:, :rows[l + 1], :rows[l]].swapaxes(1, 2)``;
    on the graph the normalized adjacency, which is symmetric, so A^T g ==
    A g, or, on a last layer that propagates its output in a training
    workspace, ``ws.adj_loss_cols``.  Each hidden layer's dh goes over its h,
    once the ReLU mask and the weight gradient have read it.
    """
    for L in ws.backward_plan:
        if L.db is not None:
            np.einsum("...rk->...k", L.dz, out=L.db)
        dq, dq_rows = L.dq, L.dq_rows
        if L.back_out is not None:
            fresh = L.back_out()
            if dq is None:  # the graph's CSR product
                dq = dq_rows = fresh
        np.matmul(L.p_t, dq, out=L.dw)
        if L.live is not None:
            # h is post-ReLU, so h > 0 exactly where its pre-activation is
            np.greater(L.h, 0.0, out=L.live)
            np.matmul(dq_rows, L.w_t, out=L.dh_rows)
            if L.back_in is not None:
                L.back_in()
            np.multiply(L.h, L.live, out=L.h)
    return ws.grad


def subgraph_batch_gradients(adj: np.ndarray, inputs: np.ndarray, root_labels: np.ndarray,
                             rows: list[int], params: ModelParams | _StepWorkspace
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-subgraph root losses and flat gradients, vectorized over the batch.

    ``adj`` is a zero-padded (m, a, s) stack of normalized adjacencies with
    the root at local index 0, ``inputs`` the (m, s, d + 1) stack of layer
    0's inputs (A @ X or X) with a trailing ones column (see the module
    docstring), and ``rows`` the row prefix each layer reads (see the
    module docstring), with ``rows[0] <= s`` and ``rows[l + 1] <= a`` for
    each layer l that propagates, so the store's cut stack and a full
    (m, s, s) one serve alike; :meth:`dpgraphlab.sampling.SubgraphStore.batch`
    returns all four.  Gradients come back as an (m, n_params) matrix in the
    same layout as ``params.flat``.

    The workspace form of ``params`` is internal: the training loop passes
    its :class:`_StepWorkspace`, built on the batch buffers that the store
    gathers each step's batch into, and these must be the arrays given; the
    gradient matrix is then that workspace's buffer, overwritten by the next
    call.  Given a :class:`ModelParams`, the arrays are fresh.
    """
    if isinstance(params, _StepWorkspace):
        ws = params
        if adj is not ws.adj or inputs is not ws.x or root_labels is not ws.labels:
            raise ValueError("a step workspace steps on the batch buffers it was built on")
    else:
        ws = _StepWorkspace(params.flat[None], params.layers, adj, inputs, root_labels, rows)
    _forward(ws)
    losses, _ = _cross_entropy_rows(ws.root_logits, ws.labels, ws.label_starts, ws.d_roots)
    return losses, _backward(ws)


def _masked_loss_grad_and_logits(ws: _StepWorkspace, means: bool = True):
    """Each model's mean cross-entropy over its loss rows (None without
    ``means``), the (S, n_params) gradient (``ws.grad``) and the (S, E, C)
    logits of ``ws.rows``."""
    logits = _forward(ws)
    losses, d_rows = _cross_entropy_rows(ws.node_logits.take(ws.loss_index, axis=0),
                                         ws.loss_labels, ws.label_starts)
    d_rows /= ws.loss_sizes
    ws.d_loss[ws.d_index] = d_rows
    # sum / size is the bits of losses.mean() without its per-call overhead
    loss_means = ([float(losses[cut].sum() / (cut.stop - cut.start)) for cut in ws.loss_slices]
                  if means else None)
    return loss_means, _backward(ws), logits


def loss_and_grad(ctx: ForwardContext, params: ModelParams, labels: np.ndarray,
                  mask: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean masked cross-entropy and its exact gradient through all layers."""
    ws = _StepWorkspace(params.flat[None], params.layers, ctx.adj_norm,
                        ctx.first_layer_input(params.layers), labels=labels, masks=mask[None])
    losses, grad, _ = _masked_loss_grad_and_logits(ws)
    return losses[0], grad[0]
