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

Each source returns one (loss, update, logits) per step; :func:`train`
owns the optimizer, evaluation, log and checkpoint.  DP runs calibrate (or
validate) the noise multiplier against the accountant before the first
step, log spent epsilon and sigma in place of accuracy, and release the
final iterate rather than a checkpoint selected on private labels.

Each source builds one step workspace (:mod:`dpgraphlab.nn`) per training,
so a step's gradient is a buffer that the next step overwrites; the
optimizer updates ``params.flat`` in place, which the workspace's weight
views read.  The checkpoint is one buffer, allocated before the first step
and copied into whenever validation accuracy ties or improves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .accounting import (OCCURRENCE_SENSITIVITY, CalibrationError, PrivacySpec, SubgraphSpec,
                         calibrate_sigma, clip, compose_and_convert, make_accountant,
                         noisy_batch_gradient)
from .graphs import PopulationGraph
from .nn import (ModelParams, _masked_loss_grad_and_logits, _StepWorkspace, gcn_forward,
                 init_gcn, init_mlp, normalize_adjacency, subgraph_batch_gradients)
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
        if self.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError("optimizer must be 'sgd' or 'adam'")
        if self.mode not in ("full_graph", "subgraph_batch"):
            raise ValueError("mode must be 'full_graph' or 'subgraph_batch'")
        if self.model_kind not in ("gcn", "mlp"):
            raise ValueError("model_kind must be 'gcn' or 'mlp'")
        if self.noise and not (self.clipping and self.mode == "subgraph_batch"):
            raise ValueError("noise requires clipping and subgraph_batch mode")
        if self.eval_every is not None and self.eval_every < 1:
            raise ValueError("eval_every must be >= 1 when set")


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


def _eval_rows(labels: np.ndarray, masks) -> tuple[np.ndarray, list[np.ndarray]]:
    """The nodes each mask selects, concatenated in mask order, and each
    mask's labels: the rows and blocks :func:`_accuracy` scores.  A mask
    that selects no nodes raises ValueError."""
    idx = [np.flatnonzero(mask) for mask in masks]
    if any(i.size == 0 for i in idx):
        raise ValueError("mask selects no nodes")
    return np.concatenate(idx), [labels[i] for i in idx]


def _accuracy(logits: np.ndarray, blocks) -> list[float]:
    """Argmax accuracy of consecutive row blocks of ``logits`` against each
    labels array in ``blocks``, from one argmax."""
    pred = np.argmax(logits, axis=1)  # argmax ties resolve to the lower class id
    accs, start = [], 0
    for labels in blocks:
        stop = start + labels.size
        accs.append(np.count_nonzero(pred[start:stop] == labels) / labels.size)
        start = stop
    return accs


def _evaluate(graph: PopulationGraph, params: ModelParams, masks) -> list[float]:
    """Argmax accuracy over each mask's nodes, from one transductive forward;
    a mask that selects no nodes raises ValueError."""
    rows, blocks = _eval_rows(graph.labels, masks)
    return _accuracy(gcn_forward(normalize_adjacency(graph), params)[rows], blocks)


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
    if not graph.train_mask.any():
        raise ValueError("graph has no training nodes; assign splits first")
    if spec is None:
        spec = SubgraphSpec(hops=config.num_layers)
    # TrainConfig only allows noise with clipping in subgraph_batch mode
    dp = isinstance(spec, PrivacySpec)
    if dp != config.noise:
        raise ValueError("DP training requires subgraph_batch mode with clipping and noise, "
                         "and noise requires a PrivacySpec")

    params = _init_model(graph, config)
    best = None  # (params of the best validation accuracy so far, that accuracy)
    if not dp:
        ctx = normalize_adjacency(graph)
        has_val = bool(graph.val_mask.any())
        # the train rows, then the val rows: the rows of the full-graph
        # source's logits
        eval_rows, eval_blocks = _eval_rows(
            graph.labels, [graph.train_mask, graph.val_mask] if has_val else [graph.train_mask])
        if has_val:
            best = (params.clone(), -1.0)
    if config.mode == "full_graph":
        steps, every, gradients, privacy = _full_graph_source(graph, config, spec, ctx, params)
    else:
        steps, every, gradients, privacy = _subgraph_source(graph, config, spec, params)

    lr = config.learning_rate
    optimizer = _Adam(lr) if config.optimizer == "adam" else _Sgd(lr)
    log: list[dict] = []

    def record(step, loss, logits):
        nonlocal best
        entry = {"step": step, "loss": loss}
        if dp:  # the accountant's fields; no evaluation, no selection
            entry.update(privacy(step))
        else:
            if logits is None:
                logits = gcn_forward(ctx, params)[eval_rows]
            acc = _accuracy(logits, eval_blocks)
            entry.update(train_acc=acc[0], val_acc=acc[1] if has_val else None)
            if has_val:
                best = _checkpoint(best, params, entry["val_acc"])
        log.append(entry)

    # A record is due after an evaluation step's update and, outside DP,
    # takes the logits at the updated params: those of the next step's
    # forward when the source has them, else its own forward.
    due = None
    loss_window: list[float] = []
    for step in range(1, steps + 1):
        loss, update, logits = next(gradients)
        if due is not None:
            record(*due, logits)
            due = None
        loss_window.append(loss)
        optimizer.step(params.flat, update)
        if step % every == 0 or step == steps:
            # a one-loss window is its own mean, to the bit
            due = (step, loss_window[0] if len(loss_window) == 1
                   else float(np.mean(loss_window)))
            loss_window = []
    if due is not None:  # no steps, no record
        record(*due, None)
    return params if best is None else best[0], log


def _checkpoint(best, params, val_acc):
    """Copy ``params`` into the checkpoint buffer ``best[0]`` when ``val_acc``
    ties or beats ``best[1]``."""
    # >= keeps the most-trained params among ties (val accuracy saturates early
    # on easy splits and carries no signal between tied checkpoints)
    best_params, best_acc = best
    if val_acc >= best_acc:
        np.copyto(best_params.flat, params.flat)
        return (best_params, val_acc)
    return best


# A gradient source returns (steps, eval interval, endless iterator of
# per-step (loss, update, logits) at the current params, a DP run's
# accountant fields for a step or None outside DP).  The full-graph
# source's logits are those of the forward pass its gradient ran, which
# computes the last layer on the train rows (the loss) and then the val
# rows only, so one forward serves both the step's gradient and the
# previous record's evaluation; the subgraph source has no full-graph
# logits and yields None.
# The iterators are generators, so one step's batch arrays stay alive until
# the next step has allocated its own, as in an inline loop.  A function
# call per step frees the whole batch at once on return; malloc then hands
# the heap top back to the OS and faults it in again on the next step, which
# made DP training about 1.5x slower on the dp_audit benchmark.

def _full_graph_source(graph, config, spec, ctx, params):
    adj, x = ctx.adj_norm, ctx.first_layer_input(params.layers)
    ws = _StepWorkspace(params, adj=adj, labels=graph.labels, mask=graph.train_mask,
                        val_mask=graph.val_mask)

    def gradients():
        while True:
            loss, grad, logits = _masked_loss_grad_and_logits(ws, adj, x)
            yield loss, clip(grad, spec.clip_norm) if config.clipping else grad, logits

    return config.epochs, config.eval_every or 1, gradients(), None


def _subgraph_source(graph, config, spec: SubgraphSpec, params):
    """DP runs calibrate sigma if unset and check the budget before any sampling."""
    steps, batch_size = spec.total_steps, spec.batch_size
    occurrence_bound = spec.effective_occurrence_bound
    sigma, privacy = 0.0, None
    if isinstance(spec, PrivacySpec):
        n_train = int(graph.train_mask.sum())
        if batch_size > n_train:
            raise ValueError(f"batch_size={batch_size} exceeds n_train={n_train}")
        sigma = spec.noise_multiplier
        if sigma is None:
            sigma = calibrate_sigma(spec.epsilon_target, spec.delta, steps, n_train,
                                    occurrence_bound, batch_size)
        accountant = make_accountant(sigma, n_train, occurrence_bound, batch_size)
        total_eps = compose_and_convert(accountant, steps, spec.delta)
        if total_eps > spec.epsilon_target * (1.0 + 1e-9):
            raise CalibrationError(
                f"epsilon budget infeasible: sigma={sigma} spends {total_eps:.4g} "
                f"over {steps} steps, target {spec.epsilon_target}"
            )

        def privacy(step):
            return {"epsilon_spent": compose_and_convert(accountant, step, spec.delta),
                    "sigma": sigma}

    sampler_rng = _stream(config.seed, 1)
    batch_rng = _stream(config.seed, 2)
    noise_rng = _stream(config.seed, 3)
    subgraphs = sample_training_subgraphs(graph, spec.max_degree, spec.hops, occurrence_bound,
                                          sampler_rng)
    store = SubgraphStore(graph, subgraphs, params.layers)
    batch_size = min(batch_size, len(store))
    ws = _StepWorkspace(params, batch=(batch_size,))
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
            yield float(losses.sum() / losses.size), update, None

    return steps, config.eval_every or 50, gradients(), privacy


def write_training_log(log: list[dict], path) -> None:
    """JSON-lines export, one record per evaluation interval."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in log:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
