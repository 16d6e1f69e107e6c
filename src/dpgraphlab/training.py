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
checkpoint.  A DP run first builds its claim (sigma and its accountant),
runs the subgraph source at that sigma, logs the accountant's epsilon and
sigma in place of accuracy, and releases the final iterate, not a
checkpoint chosen on private labels.

Each source builds one step workspace (:mod:`dpgraphlab.nn`) per training,
so a step's gradient is a buffer that the next step overwrites; the
optimizer updates ``params.flat`` in place, which the workspace's weight
views read.  The checkpoint is one buffer, allocated before the first step
and copied into whenever validation accuracy ties or improves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .accounting import (OCCURRENCE_SENSITIVITY, CalibrationError, PrivacySpec, SubgraphSpec,
                         _privacy_claim, clip, compose_and_convert, noisy_batch_gradient)
from .graphs import PopulationGraph, _check_integer, _check_number
from .nn import (ModelParams, _masked_loss_grad_and_logits, _stack_rows, _StepWorkspace,
                 gcn_forward, init_gcn, init_mlp, normalize_adjacency, subgraph_batch_gradients)
from .sampling import SubgraphStore, sample_training_subgraphs


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
        """(lr * m_hat) / (sqrt(v_hat) + eps) in two reused buffers, with the
        textbook expression's operations in its order."""
        if self.m is None:
            self.m, self.v = np.zeros_like(flat), np.zeros_like(flat)
            self._num, self._den = np.empty_like(flat), np.empty_like(flat)
        self.t += 1
        m, v, num, den = self.m, self.v, self._num, self._den
        beta1, beta2 = self.beta1, self.beta2
        m *= beta1
        # out passed by position: a keyword out costs more than the work here
        np.multiply(1 - beta1, grad, num)
        m += num
        v *= beta2
        np.multiply(1 - beta2, grad, num)
        num *= grad
        v += num
        np.divide(m, 1 - beta1 ** self.t, num)  # m_hat
        num *= self.lr
        np.divide(v, 1 - beta2 ** self.t, den)  # v_hat
        np.sqrt(den, den)
        den += self.eps
        num /= den
        flat -= num


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
                  train_masks: np.ndarray, seeds) -> list[tuple[ModelParams, list[dict]]]:
    """Each model's (params, log) of :func:`train` on ``graph`` with train mask
    ``train_masks[s]`` and seed ``seeds[s]``.  The full-graph source steps the
    S models as one stack; the subgraph source takes one model, on the
    graph's own train mask."""
    if not train_masks.any(axis=1).all():
        raise ValueError("graph has no training nodes; assign splits first")
    if spec is None:
        spec = SubgraphSpec(hops=config.num_layers)
    # TrainConfig only allows noise with clipping in subgraph_batch mode
    dp = isinstance(spec, PrivacySpec)
    if dp != config.noise:
        raise ValueError("DP training requires subgraph_batch mode with clipping and noise, "
                         "and noise requires a PrivacySpec")
    if config.mode != "full_graph" and len(seeds) != 1:
        raise ValueError("the subgraph source trains one model at a time")

    S = len(seeds)
    models = [_init_model(graph, replace(config, seed=int(seed))) for seed in seeds]
    layers, flat = models[0].layers, np.stack([model.flat for model in models])  # (S, n_params)
    best = None  # (each model's params of its best val accuracy so far, those accuracies)
    sigma = 0.0  # the accountant's noise multiplier; 0.0 outside DP
    if dp:  # the claim settles sigma and the budget before any sampling
        claim, accountant = _privacy_claim(spec, int(graph.train_mask.sum()), spec.delta,
                                           spec.noise_multiplier, spec.epsilon_target)
        sigma, spent = claim["sigma"], claim["epsilon_spent"]
        if spent > spec.epsilon_target * (1.0 + 1e-9):
            raise CalibrationError(f"epsilon budget infeasible: sigma={sigma} spends {spent:.4g} "
                                   f"over {spec.total_steps} steps, target {spec.epsilon_target}")
    else:
        ctx = normalize_adjacency(graph)
        has_val = bool(graph.val_mask.any())
        # each model's train rows among the union of them, and E: that union,
        # then the val rows: the rows of the full-graph source's logits
        member, eval_rows = _stack_rows(train_masks, graph.val_mask)
        eval_labels, u = graph.labels[eval_rows], member.shape[1]
        train_pos, n_val = [np.flatnonzero(row) for row in member], eval_rows.size - u
        if has_val:
            best = (flat.copy(), [-1.0] * S)
    if config.mode == "full_graph":
        steps, every, gradients = _full_graph_source(graph, config, spec, ctx, flat, layers,
                                                     train_masks)
    else:
        steps, every, gradients = _subgraph_source(graph, config, spec, sigma,
                                                   ModelParams(flat[0], layers))

    lr = config.learning_rate
    optimizer = _Adam(lr) if config.optimizer == "adam" else _Sgd(lr)
    logs: list[list[dict]] = [[] for _ in range(S)]

    def record(step, losses, logits):
        if dp:  # the accountant's fields; no evaluation, no selection
            logs[0].append({"step": step, "loss": losses[0],
                            "epsilon_spent": compose_and_convert(accountant, step, spec.delta),
                            "sigma": sigma})
            return
        if logits is None:
            logits = np.stack([gcn_forward(ctx, ModelParams(row, layers))[eval_rows]
                               for row in flat])
        hits = np.argmax(logits, axis=-1) == eval_labels  # argmax ties resolve to class 0
        train_acc = [np.count_nonzero(row[pos]) / pos.size for row, pos in zip(hits, train_pos)]
        val_acc = [np.count_nonzero(row[u:]) / n_val for row in hits] if has_val else [None] * S
        for log, loss, t, v in zip(logs, losses, train_acc, val_acc):
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
        loss_window.append(losses)
        optimizer.step(flat, update)
        if step % every == 0 or step == steps:
            # a one-loss window is its own mean, to the bit
            due = (step, loss_window[0] if len(loss_window) == 1
                   else [float(np.mean(window)) for window in zip(*loss_window)])
            loss_window = []
    if due is not None:  # no steps, no record
        record(*due, None)
    final = flat if best is None else best[0]
    return [(ModelParams(row, layers), log) for row, log in zip(final, logs)]


# A gradient source returns (steps, eval interval, endless iterator of
# per-step (per-model losses, update, logits) at the current params).  The
# full-graph source's logits are those of the forward pass its gradient
# ran, which returns the last layer's train rows (the loss) and then its
# val rows only, so one forward serves both the step's gradient and the
# previous record's evaluation; the subgraph source has no full-graph
# logits and yields None.
# The iterators are generators, so one step's batch arrays stay alive until
# the next step has allocated its own, as in an inline loop.  A function
# call per step frees the whole batch at once on return; malloc then hands
# the heap top back to the OS and faults it in again on the next step, which
# made DP training about 1.5x slower on the dp_audit benchmark.

def _full_graph_source(graph, config, spec, ctx, flat, layers, train_masks):
    adj, x = ctx.adj_norm, ctx.first_layer_input(layers)
    ws = _StepWorkspace(flat, layers, adj=adj, labels=graph.labels, masks=train_masks,
                        val_mask=graph.val_mask)

    def gradients():
        while True:
            losses, grad, logits = _masked_loss_grad_and_logits(ws, adj, x)
            if config.clipping:  # each model's gradient by its own norm
                grad = np.stack([clip(g, spec.clip_norm) for g in grad])
            yield losses, grad, logits

    return config.epochs, config.eval_every or 1, gradients()


def _subgraph_source(graph, config, spec: SubgraphSpec, sigma: float, params):
    """Batches of ``spec``, with noise of the accountant's ``sigma`` (0.0
    outside DP) when clipping."""
    sampler_rng = _stream(config.seed, 1)
    batch_rng = _stream(config.seed, 2)
    noise_rng = _stream(config.seed, 3)
    subgraphs = sample_training_subgraphs(graph, spec.max_degree, spec.hops,
                                          spec.effective_occurrence_bound, sampler_rng)
    store = SubgraphStore(graph, subgraphs, params.layers)
    batch_size = min(spec.batch_size, len(store))
    ws = _StepWorkspace(params.flat, params.layers, batch=(batch_size,))
    # the accountant's sigma is in units of Delta = OCCURRENCE_SENSITIVITY * C
    noise_multiplier = sigma * OCCURRENCE_SENSITIVITY

    def gradients():
        while True:
            idx = batch_rng.choice(len(store), size=batch_size, replace=False)
            batch = store.batch(idx)
            losses, grads = subgraph_batch_gradients(*batch, ws)
            if config.clipping:  # sigma is 0.0 outside DP runs
                update = noisy_batch_gradient(grads, spec.clip_norm, noise_multiplier,
                                              noise_rng)
            else:
                update = grads.mean(axis=0)
            yield [float(losses.sum() / losses.size)], update, None

    return spec.total_steps, config.eval_every or 50, gradients()


def write_training_log(log: list[dict], path) -> None:
    """JSON-lines export, one record per evaluation interval."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in log:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
