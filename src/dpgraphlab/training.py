"""One training loop over two gradient sources: transductive full-graph
descent and per-subgraph batches with optional clipping and Gaussian noise
(DP-SGD).

Five regimes map onto the config flags and the run's spec (C, K, r, T, m
and steps; ``SubgraphSpec(hops=config.num_layers)`` when none is given):

    non-DP          full_graph, no clipping
    clipping        full_graph, clipping to the spec's C
    sub-graphing    subgraph_batch, no clipping, a SubgraphSpec
    subg. + clip    subgraph_batch, clipping, a SubgraphSpec
    DP              subgraph_batch, clipping, noise, a PrivacySpec

A source returns (steps, eval interval, iterator of per-step (loss,
update, logits)); :func:`train` owns the optimizer, evaluation, log and
checkpoint.  A DP run first builds its claim, which solves sigma or checks
a given one against the epsilon target, runs the subgraph source at its
sigma, logs the accountant's epsilon and sigma in place of accuracy, and
releases the final iterate, not a checkpoint chosen on private labels.

An audit's shadows train in stacks of S models that share each step
(:func:`_train_models`; :func:`train` is the S = 1 case), and DP models
share their N and so one claim.  Each model keeps its own seed and train
mask, and for the subgraph source its own sampler, store, batch and noise
streams and log, so it has the bits of its own :func:`train` run.
A model's batches and noise are drawn a window of steps at a time, each
stream's draws those of one draw per step, so a window moves no bit.
The subgraph source stacks only models that share a batch size and store
``rows``, as their batches gather into one array.  A shadow stack keeps no
logs (the audit reads params only): it computes no loss, no train accuracy
and no epsilon, and its records, non-DP only, select each model's
checkpoint from E's val rows alone, with the bits of a logging run.

A non-DP stack's full-graph step workspace (:mod:`dpgraphlab.nn`) lays out
E, its loss rows and then its val rows: the full-graph source steps on it,
and a record without the step's logits runs the stack's forward over E on
it.  The subgraph source builds a batch workspace and a window's (W, S * m)
batch indices and (W, S, n_params) noise, which each window refills.  A
step's gradient is a buffer that the next step overwrites (clipping scales
it in place); the optimizer updates the stack's (S, n_params) parameters in
place, which the workspaces' weight views read.  The checkpoint is one
buffer, allocated before the first step and copied into whenever val
accuracy ties or improves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .accounting import (OCCURRENCE_SENSITIVITY, PrivacySpec, SubgraphSpec, _clip_scale,
                         _privacy_claim, compose_and_convert, noisy_batch_gradient)
from .graphs import PopulationGraph, _check_integer, _check_number
from .nn import (ModelParams, _forward, _masked_loss_grad_and_logits, _StepWorkspace,
                 gcn_forward, init_gcn, init_mlp, normalize_adjacency, subgraph_batch_gradients)
from .sampling import SubgraphStore, _stack_stores, sample_training_subgraphs


@dataclass(frozen=True)
class TrainConfig:
    num_layers: int = 2
    hidden_dim: int = 32
    learning_rate: float = 1e-2
    optimizer: str = "adam"  # or "sgd" (with momentum)
    epochs: int = 200  # full-graph budget; the spec holds the subgraph-batch one
    seed: int = 0
    mode: str = "full_graph"  # or "subgraph_batch"
    clipping: bool = False  # to the spec's clip_norm
    noise: bool = False
    model_kind: str = "gcn"  # or "mlp"
    eval_every: int | None = None  # None -> every epoch / every 50 steps

    def __post_init__(self):
        _check_integer(self.num_layers, "num_layers", 1)
        _check_integer(self.hidden_dim, "hidden_dim", 1)
        _check_integer(self.epochs, "epochs", 0)
        _check_integer(self.seed, "seed", 0)
        if self.eval_every is not None:
            _check_integer(self.eval_every, "eval_every", 1)
        _check_number(self.learning_rate, "learning_rate")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and nonnegative")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if self.mode not in ("full_graph", "subgraph_batch"):
            raise ValueError("mode must be 'full_graph' or 'subgraph_batch'")
        if self.model_kind not in ("gcn", "mlp"):
            raise ValueError("model_kind must be 'gcn' or 'mlp'")
        if self.noise and not (self.clipping and self.mode == "subgraph_batch"):
            raise ValueError("noise requires clipping and subgraph_batch mode")


class _Sgd:
    def __init__(self, lr, momentum=0.9):
        self.lr, self.momentum, self.buf = lr, momentum, None

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        if self.buf is None:
            self.buf = np.zeros_like(flat)
        self.buf *= self.momentum
        self.buf += grad
        flat -= self.lr * self.buf


class _Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = self.v = None
        self.t = 0

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        if self.m is None:
            self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
        self.t += 1
        self.m *= self.beta1
        self.m += (1 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.t)
        v_hat = self.v / (1 - self.beta2 ** self.t)
        flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _stream(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _evaluate(graph: PopulationGraph, params: ModelParams, masks) -> list[float]:
    """Argmax accuracy over each mask's nodes, from one transductive forward;
    a mask that selects no nodes raises ValueError."""
    if not all(mask.any() for mask in masks):
        raise ValueError("mask selects no nodes")
    # argmax ties resolve to the lower class id
    hits = np.argmax(gcn_forward(normalize_adjacency(graph), params), axis=1) == graph.labels
    return [np.count_nonzero(hits[mask]) / np.count_nonzero(mask) for mask in masks]


def evaluate(graph: PopulationGraph, params: ModelParams, mask: np.ndarray) -> float:
    """Argmax accuracy of the model over the masked nodes (transductive forward)."""
    return _evaluate(graph, params, [mask])[0]


def _init_model(graph: PopulationGraph, config: TrainConfig) -> ModelParams:
    maker = init_gcn if config.model_kind == "gcn" else init_mlp
    return maker(graph.feat_dim, config.hidden_dim, graph.num_classes,
                 config.num_layers, config.seed)


def train(graph: PopulationGraph, config: TrainConfig,
          spec: SubgraphSpec | None = None) -> tuple[ModelParams, list[dict]]:
    """Train under the configured regime; returns (params, log).

    A PrivacySpec ``spec`` makes the run a DP run.  DP runs release the
    final iterate, and each log record holds only what the accountant
    covers (step, epsilon_spent, sigma) plus the interval's mean batch loss:
    a DP run reads labels only through its sampled subgraphs' roots.  Other
    runs release the params of their best validation accuracy (the final
    iterate without validation nodes), and each record holds step, mean
    loss over the interval, train_acc and val_acc.  DP runs fail with
    CalibrationError before the first step if the epsilon target cannot be
    met at the requested step count.
    """
    return _train_models(graph, config, spec, graph.train_mask[None], [config.seed])[0]


def _train_models(graph: PopulationGraph, config: TrainConfig, spec: SubgraphSpec | None,
                  train_masks: np.ndarray, seeds,
                  logs: bool = True) -> list[tuple[ModelParams, list[dict]]]:
    """Each model's (params, log) of :func:`train` on ``graph`` with train mask
    ``train_masks[s]`` and seed ``seeds[s]``, trained in stacks of models that
    share each step: the full-graph source steps all S models as one stack,
    the subgraph source one stack per batch size and store ``rows``.  DP
    masks must share their count, the N of the models' one claim.

    Without ``logs`` every log is empty and the params keep their bits: no
    loss, accuracy or epsilon is computed, and a record only selects the
    checkpoint, from the val rows alone."""
    if not train_masks.any(axis=1).all():
        raise ValueError("graph has no training nodes; assign splits first")
    if spec is None:
        spec = SubgraphSpec(hops=config.num_layers)
    # TrainConfig only allows noise with clipping in subgraph_batch mode
    dp = isinstance(spec, PrivacySpec)
    if dp != config.noise:
        raise ValueError("DP training requires subgraph_batch mode with clipping and noise, "
                         "and noise requires a PrivacySpec")
    # the DP models' one claim (its record and accountant) settles sigma and
    # checks the budget before any sampling
    counts = np.unique(train_masks.sum(axis=1))
    if dp and counts.size > 1:
        raise ValueError(f"DP models share one claim, so one train count, not {counts.tolist()}")
    claim = (_privacy_claim(spec, int(counts[0]), spec.delta, spec.noise_multiplier,
                            spec.epsilon_target) if dp else None)
    models = [_init_model(graph, replace(config, seed=int(seed))) for seed in seeds]
    if config.mode == "full_graph":
        return _train_stack(graph, config, spec, train_masks, models, None, None, logs)

    # each model samples its own train mask; a shadow's IN nodes may be the
    # target's test nodes, and no training reads a test mask
    no_test = np.zeros(graph.num_nodes, dtype=bool)
    feeds = [_SubgraphFeed(graph.with_masks(mask, graph.val_mask, no_test), spec, int(seed),
                           models[0].layers) for mask, seed in zip(train_masks, seeds)]
    # a stack's batches gather into one array: its models share m and rows
    stacks: dict[tuple, list[int]] = {}
    for s, feed in enumerate(feeds):
        stacks.setdefault((feed.batch_size, tuple(feed.store.rows)), []).append(s)
    results = {}
    for members in stacks.values():
        results.update(zip(members, _train_stack(
            graph, config, spec, train_masks[members], [models[s] for s in members], claim,
            [feeds[s] for s in members], logs)))
    return [results[s] for s in range(len(feeds))]


def _train_stack(graph, config, spec, train_masks, models, claim, feeds, logs):
    """One stack's (params, log) per model: the full-graph source when
    ``feeds`` is None, else the subgraph source over ``feeds``, at the DP
    ``claim``, its record and accountant (None outside DP); without
    ``logs``, empty logs (see :func:`_train_models`)."""
    S = len(models)
    layers, flat = models[0].layers, np.stack([model.flat for model in models])  # (S, n_params)
    best = None  # (each model's params of its best val accuracy so far, those accuracies)
    dp = claim is not None
    if not dp:
        ctx = normalize_adjacency(graph)
        has_val = bool(graph.val_mask.any())
        if has_val:
            best = (flat.copy(), [-1.0] * S)
        # E and each model's loss rows: every record's logits are E's rows
        ws = _StepWorkspace(flat, layers, ctx.adj_norm, ctx.first_layer_input(layers),
                            labels=graph.labels, masks=train_masks, val_mask=graph.val_mask)
        u = ws.member.shape[1]
        # the rows a record scores: E, or its val rows alone without logs
        # (argmax works row by row, so each val hit keeps its bits)
        first = 0 if logs else u
        eval_labels = graph.labels[ws.rows[first:]]
        train_pos, n_val = [np.flatnonzero(row) for row in ws.member], ws.rows.size - u
    # a record logs, or selects the checkpoint
    records = logs or best is not None
    if feeds is None:
        steps, every, gradients = _full_graph_source(config, spec, ws, logs)
    else:
        steps, every, gradients = _subgraph_source(config, spec, feeds, flat, layers, claim, logs)

    lr = config.learning_rate
    optimizer = _Adam(lr) if config.optimizer == "adam" else _Sgd(lr)
    model_logs: list[list[dict]] = [[] for _ in range(S)]

    def record(step, window, logits):
        # each model's mean loss over the interval (a one-loss window is its
        # own mean, to the bit); without logs the window is empty
        losses = (window[0] if len(window) == 1
                  else [float(np.mean(model_losses)) for model_losses in zip(*window)])
        if dp:  # the accountant's fields; no evaluation, no selection
            sigma, accountant = claim[0]["sigma"], claim[1]
            spent = compose_and_convert(accountant, step, spec.delta)
            for log, loss in zip(model_logs, losses):
                log.append({"step": step, "loss": loss, "epsilon_spent": spent, "sigma": sigma})
            return
        logits = _forward(ws) if logits is None else logits
        hits = np.argmax(logits[:, first:], axis=-1) == eval_labels  # ties resolve to class 0
        val_acc = ([np.count_nonzero(row[u - first:]) / n_val for row in hits] if has_val
                   else [None] * S)
        if logs:
            train_acc = [np.count_nonzero(row[pos]) / pos.size
                         for row, pos in zip(hits, train_pos)]
            for log, loss, t, v in zip(model_logs, losses, train_acc, val_acc):
                log.append({"step": step, "loss": loss, "train_acc": t, "val_acc": v})
        for s, v in enumerate(val_acc if has_val else ()):
            # >= keeps the most-trained params among ties (val accuracy
            # saturates early on easy splits and carries no signal between them)
            if v >= best[1][s]:
                best[0][s], best[1][s] = flat[s], v

    # A record is due after an evaluation step's update and, outside DP,
    # takes the logits at the updated params: those of the next step's
    # forward when the source has them, else its own forward.
    due = None
    loss_window: list[list[float]] = []
    for step in range(1, steps + 1):
        losses, update, logits = next(gradients)
        if due is not None:
            record(*due, logits)
            due = None
        if logs:
            loss_window.append(losses)
        optimizer.step(flat, update)
        if records and (step % every == 0 or step == steps):
            due, loss_window = (step, loss_window), []
    if due is not None:  # no steps, no record
        record(*due, None)
    final = flat if best is None else best[0]
    return [(ModelParams(row, layers), log) for row, log in zip(final, model_logs)]


# A gradient source returns (steps, eval interval, iterator of at least
# ``steps`` per-step (per-model losses, None without logs, (S, n_params) update,
# logits) at the current params).  The full-graph source's logits are those
# of the forward pass its gradient ran, which returns the last layer's train
# rows (the loss) and then its val rows only, so one forward serves both the
# step's gradient and the previous record's evaluation; the subgraph source
# has no full-graph logits and yields None.
# Each source steps on its workspace's buffers (the subgraph source gathers
# each batch into the buffers its workspace was built on), so a step frees
# no large array: malloc would hand a freed batch back to the OS and fault
# it in again on the next step (about 1.5x slower DP training on dp_audit).

def _full_graph_source(config, spec, ws: _StepWorkspace, logs=True):
    def gradients():
        while True:
            losses, grad, logits = _masked_loss_grad_and_logits(ws, logs)
            if config.clipping:  # each model's gradient by its own norm, in place
                grad *= _clip_scale(np.sqrt(np.vecdot(grad, grad)), spec.clip_norm)[:, None]
            yield losses, grad, logits

    return config.epochs, config.eval_every or 1, gradients()


class _SubgraphFeed:
    """One model's subgraph batches: its store, batch size m, and batch and
    noise streams."""

    def __init__(self, graph: PopulationGraph, spec: SubgraphSpec, seed: int, layers):
        sampler_rng = _stream(seed, 1)
        self.batch_rng, self.noise_rng = _stream(seed, 2), _stream(seed, 3)
        subgraphs = sample_training_subgraphs(graph, spec.max_degree, spec.hops,
                                              spec.effective_occurrence_bound, sampler_rng)
        self.store = SubgraphStore(graph, subgraphs, layers)
        self.batch_size = min(spec.batch_size, len(self.store))


# the steps whose batches and noise the subgraph source draws at once
_WINDOW = 25


def _subgraph_source(config, spec: SubgraphSpec, feeds: list[_SubgraphFeed], flat, layers,
                     claim, logs=True):
    """Batches of ``spec`` for a stack of models that share their batch size
    m and store ``rows``, for ``spec.total_steps`` steps, drawn a window of
    W = ``_WINDOW`` steps at a time (the last window draws the steps left).
    Each model fills its (W, m) block of a (W, S * m) index array with one
    draw of m subgraphs per step from its own store and stream, and row k
    gathers step k's (S * m, R, .) batch from the stacked stores.  In a DP
    run each model draws its (W, n) noise at the ``claim``'s sigma from its
    own stream in one call, and step k adds the (S, n) row k to the clipped
    sums.  Each stream makes the draws of one draw per step in the same
    order, so every step keeps their bits.

    The source owns the batch: the (S * m, a, R) adjacency, (S * m, R,
    d + 1) inputs and (S * m,) root labels that each step gathers into, on
    which the step workspace resolves every operand once (see
    :class:`dpgraphlab.nn._StepWorkspace`), and the (S, m, n) view of its
    gradient rows that the clip-and-noise step reads.  The gather clips its
    indices, so each window checks its indices' range once."""
    S, m, steps, n = len(feeds), feeds[0].batch_size, spec.total_steps, flat.shape[1]
    sizes = [len(feed.store) for feed in feeds]
    store = _stack_stores([feed.store for feed in feeds])  # takes the stores' arrays over
    idx = np.empty((_WINDOW, S * m), dtype=np.intp)  # each step's stacked batch, model by model
    # the accountant's sigma is in units of Delta = OCCURRENCE_SENSITIVITY * C
    std = 0.0 if claim is None else claim[0]["sigma"] * OCCURRENCE_SENSITIVITY * spec.clip_norm
    noise = np.empty((_WINDOW, S, n)) if std > 0 else None  # each step's (S, n) noise
    # each model's feed, store size, offset in the stacked store, and (W, m)
    # and (W, n) blocks of idx and noise
    draws = list(zip(feeds, sizes, np.cumsum([0] + sizes[:-1]),
                     idx.reshape(_WINDOW, S, m).transpose(1, 0, 2),
                     [None] * S if noise is None else noise.transpose(1, 0, 2)))
    batch = tuple(np.empty((S * m, *a.shape[1:]), a.dtype)
                  for a in (store.adj, store.inputs, store.root_labels))
    ws = _StepWorkspace(flat, layers, *batch, rows=store.rows)
    grads = ws.grad.reshape(S, m, n)  # each model's gradient rows
    update = np.empty_like(flat)

    def gradients():
        for first in range(0, steps, _WINDOW):
            w = min(_WINDOW, steps - first)  # the last window draws only the steps left
            for feed, size, start, block, noise_block in draws:
                block[:w] = [feed.batch_rng.choice(size, size=m, replace=False)
                             for _ in range(w)]
                block[:w] += start
                if noise is not None:
                    noise_block[:w] = feed.noise_rng.normal(0.0, std, size=(w, n))
            if idx[:w].max() >= len(store):  # the gather would clip it silently
                raise IndexError(f"batch index {idx[:w].max()} out of a store of {len(store)}")
            for row, noise_row in zip(idx[:w], [None] * w if noise is None else noise):
                losses, _ = subgraph_batch_gradients(*store.batch(row, out=batch), ws)
                if config.clipping:  # no noise outside DP runs
                    noisy_batch_gradient(grads, spec.clip_norm, noise_row, update)
                else:
                    np.mean(grads, axis=1, out=update)
                yield ((losses.reshape(S, m).sum(axis=1) / m).tolist() if logs else None,
                       update, None)

    return steps, config.eval_every or 50, gradients()


def write_training_log(log: list[dict], path) -> None:
    """JSON-lines export, one record per evaluation interval."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in log:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
