"""LiRA scoring, ROC analysis, and the audit pipeline."""

import dataclasses
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

import dpgraphlab as dg
from dpgraphlab import attacks, training
from dpgraphlab.attacks import ShadowEnsemble, binomial_half_width, scaled_confidence
from dpgraphlab.training import _init_model


def small_graph(seed=0, n=80):
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=n, target_homophily=0.7, seed=seed))
    return dg.assign_splits(g, dg.SplitSpec(0.4, 0.2, 0.4, seed=seed + 1))


def quick_config(seed=0):
    return dg.TrainConfig(epochs=30, hidden_dim=8, seed=seed)


# ---------------------------------------------------------------- confidences

def test_scaled_confidence_half_is_zero():
    logits = np.zeros((3, 2))
    phi = scaled_confidence(logits, np.array([0, 1, 0]))
    np.testing.assert_allclose(phi, 0.0, atol=1e-12)


def test_scaled_confidence_point_nine():
    # softmax([ln 9, 0]) puts 0.9 on class 0
    logits = np.array([[np.log(9.0), 0.0]])
    phi = scaled_confidence(logits, np.array([0]))
    assert phi[0] == pytest.approx(np.log(9.0), abs=1e-9)


def test_scaled_confidence_clamped_finite():
    logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    phi = scaled_confidence(logits, np.array([0, 0]))
    assert np.all(np.isfinite(phi))


# ---------------------------------------------------------------- lira scores

def ensemble_from_phi(phi, membership):
    pool = np.arange(phi.shape[1])
    return ShadowEnsemble(pool=pool, membership=membership, phi=phi)


def test_lira_identical_hypotheses_zero():
    rng = np.random.default_rng(0)
    membership = rng.random((32, 4)) < 0.5
    phi = np.ones((32, 4)) * 3.7  # identical IN and OUT populations
    ens = ensemble_from_phi(phi, membership)
    scores = dg.lira_score(ens, np.array([0.0, 1.0, -5.0, 3.7]))
    np.testing.assert_allclose(scores, 0.0, atol=1e-9)


def test_lira_hand_value():
    # mu_in 2, mu_out 0, unit variances, observation 2: score is 2.0
    membership = np.zeros((40, 1), dtype=bool)
    membership[:20] = True
    rng = np.random.default_rng(1)
    base = rng.standard_normal(20)
    base = (base - base.mean()) / base.std()  # exactly mean 0, var 1
    phi = np.concatenate([base + 2.0, base]).reshape(40, 1)
    ens = ensemble_from_phi(phi, membership)
    scores = dg.lira_score(ens, np.array([2.0]))
    assert scores[0] == pytest.approx(2.0, abs=1e-9)


def test_lira_translation_invariance():
    rng = np.random.default_rng(2)
    membership = rng.random((64, 10)) < 0.5
    phi = rng.standard_normal((64, 10))
    target = rng.standard_normal(10)
    base = dg.lira_score(ensemble_from_phi(phi, membership), target)
    shifted = dg.lira_score(ensemble_from_phi(phi + 13.5, membership), target + 13.5)
    np.testing.assert_allclose(shifted, base, atol=1e-9)


def test_lira_matches_per_node_logpdf(caplog):
    # oracle: per-node Gaussian fits recomputed one node at a time with scipy
    from scipy.stats import norm

    from dpgraphlab.attacks import VARIANCE_FLOOR
    rng = np.random.default_rng(3)
    membership = rng.random((48, 40)) < 0.5
    phi = 2.0 * rng.standard_normal((48, 40)) + rng.uniform(-6.0, 6.0, 40)
    membership[:, 0] = False
    membership[5, 0] = True  # one IN shadow: excluded
    phi[:, 1] = np.where(membership[:, 1], 1.5, -0.5)  # constant sides: variance floor
    target = rng.uniform(-8.0, 8.0, 40)
    scores = dg.lira_score(ensemble_from_phi(phi, membership), target)
    want = np.full(40, np.nan)
    for j in range(1, 40):
        ins, outs = phi[membership[:, j], j], phi[~membership[:, j], j]
        want[j] = (norm.logpdf(target[j], ins.mean(), np.sqrt(max(ins.var(), VARIANCE_FLOOR)))
                   - norm.logpdf(target[j], outs.mean(),
                                 np.sqrt(max(outs.var(), VARIANCE_FLOOR))))
    # a score near zero is a difference of much larger log-densities, so the
    # absolute term covers its rounding
    np.testing.assert_allclose(scores, want, rtol=1e-12, atol=1e-12)
    assert np.isnan(scores[0]) and not np.isnan(scores[1:]).any()
    assert "excluded 1 nodes" in caplog.text


# ---------------------------------------------------------------- roc

def test_roc_perfect_separation():
    scores = np.array([5.0, 4.0, 1.0, 0.0])
    member = np.array([True, True, False, False])
    r = dg.roc(scores, member)
    assert r.auc == pytest.approx(1.0)
    assert r.tpr_at[0.001] == 1.0


def test_roc_anti_classifier():
    scores = np.array([0.0, 1.0, 0.1, 0.9])
    member = np.array([True, False, True, False])
    assert dg.roc(scores, member).auc == pytest.approx(0.0)


def test_roc_hand_sweep():
    scores = np.array([0.9, 0.8, 0.7, 0.6])
    member = np.array([True, False, True, False])
    r = dg.roc(scores, member, fpr_grid=(0.4,))
    assert r.auc == pytest.approx(0.75)
    assert r.tpr_at[0.4] == pytest.approx(0.5)


def test_roc_invariant_under_monotone_transform():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(200)
    member = rng.random(200) < 0.5
    a = dg.roc(scores, member)
    b = dg.roc(np.exp(scores) * 3 + 7, member)
    assert a.auc == pytest.approx(b.auc, abs=1e-12)
    np.testing.assert_allclose(a.points, b.points, atol=1e-12)


def test_roc_tpr_nondecreasing_in_budget():
    rng = np.random.default_rng(4)
    scores = rng.standard_normal(500)
    member = rng.random(500) < 0.5
    r = dg.roc(scores, member)
    assert r.tpr_at[0.001] <= r.tpr_at[0.005] <= r.tpr_at[0.01]


def test_roc_single_class_error():
    with pytest.raises(ValueError):
        dg.roc(np.array([1.0, 2.0]), np.array([True, True]))


def test_roc_ties_grouped():
    scores = np.array([1.0, 1.0, 0.0, 0.0])
    member = np.array([True, False, True, False])
    r = dg.roc(scores, member)
    # thresholds cannot split ties: sweep hits (0.5, 0.5) then (1, 1)
    assert r.auc == pytest.approx(0.5)


# ---------------------------------------------------------------- shadows

def test_membership_needs_enough_shadows():
    with pytest.raises(dg.AuditSetupError):
        dg.train_shadows(small_graph(), quick_config(), None, n_shadows=8, seed=0)


def test_shadow_coverage_invariant():
    g = small_graph()
    ens = dg.train_shadows(g, quick_config(), None, n_shadows=24, seed=0)
    in_counts = ens.membership.sum(axis=0)
    assert in_counts.min() >= 8
    assert (ens.n_shadows - in_counts).min() >= 8


def odd_pool(g):
    """``g`` with its first test node moved to val: an audit pool of odd size."""
    node = np.flatnonzero(g.test_mask)[0]
    test, val = g.test_mask.copy(), g.val_mask.copy()
    test[node], val[node] = False, True
    return g.with_masks(g.train_mask, val, test)


@pytest.mark.parametrize("n_shadows", [16, 17])
@pytest.mark.parametrize("graph_of", [small_graph, lambda: odd_pool(small_graph())],
                         ids=["even pool", "odd pool"])
def test_membership_is_complementary_pairs(graph_of, n_shadows):
    # shadow 2k takes a random floor(P/2) of the pool and shadow 2k+1 the
    # rest, so coverage is exact by construction; the draw is its seed's
    g = graph_of()
    pool, membership = attacks._shadow_membership(g, None, n_shadows, seed=3)
    P, S = pool.size, n_shadows
    assert P % 2 == (graph_of is not small_graph)
    np.testing.assert_array_equal(pool, np.flatnonzero(g.train_mask | g.test_mask))
    assert membership.shape == (S, P)
    for k in range(S // 2):
        np.testing.assert_array_equal(membership[2 * k + 1], ~membership[2 * k])
    assert set(membership.sum(axis=0)) <= {S // 2, -(-S // 2)}
    assert set(membership.sum(axis=1)) == {P // 2, -(-P // 2)}
    assert (membership[::2].sum(axis=1) == P // 2).all()
    again = attacks._shadow_membership(g, None, n_shadows, seed=3)[1]
    np.testing.assert_array_equal(again, membership)
    assert not np.array_equal(attacks._shadow_membership(g, None, n_shadows, seed=4)[1],
                              membership)


DP = dict(mode="subgraph_batch", clipping=True, noise=True, optimizer="sgd", learning_rate=0.05,
          eval_every=5)


def dp_spec(**kwargs):
    return dg.PrivacySpec(epsilon_target=5.0, delta=1e-3, **{
        "max_degree": 3, "occurrence_bound": 4, "batch_size": 8, "total_steps": 12, **kwargs})


def subgraph_spec(**kwargs):
    return dg.SubgraphSpec(**{"max_degree": 3, "occurrence_bound": 4, "batch_size": 8,
                              "total_steps": 12, **kwargs})


def test_shadow_determinism():
    g = small_graph()
    for config, spec in ((dict(), None), (DP, dp_spec())):  # full-graph and DP shadows
        cfg = dataclasses.replace(quick_config(), **config)
        e1 = dg.train_shadows(g, cfg, spec, n_shadows=24, seed=5)
        e2 = dg.train_shadows(g, cfg, spec, n_shadows=24, seed=5)
        np.testing.assert_array_equal(e1.membership, e2.membership)
        np.testing.assert_array_equal(e1.phi, e2.phi)


def shadow_masks(graph, spec, n_shadows, seed):
    """``train_shadows``'s pool, and each shadow's train mask and seed."""
    pool, membership = attacks._shadow_membership(graph, spec, n_shadows, seed)
    seeds = np.random.SeedSequence(seed, spawn_key=(1,)).generate_state(n_shadows)
    masks = np.zeros((n_shadows, graph.num_nodes), dtype=bool)
    masks[:, pool] = membership
    return pool, masks, seeds


def stack_sizes(n_shadows, mode, workers):
    """``train_shadows``'s stack sizes, in shadow order: max(workers, ceil(n /
    cap)) contiguous stacks, at a cap of 16 full-graph or 8 subgraph-source
    shadows, whose sizes differ by at most one."""
    count = max(workers, -(-n_shadows // {"full_graph": 16, "subgraph_batch": 8}[mode]))
    return np.diff([n_shadows * i // count for i in range(count + 1)]).tolist()


def in_stack_order(by_seeds, seeds):
    """The shadows of stacks keyed by their seeds, in shadow order, once the
    stacks are checked to be contiguous runs of ``seeds`` that cover each
    shadow once: concurrent stacks may finish in any order."""
    position = {seed: i for i, seed in enumerate(seeds.tolist())}
    stacks = sorted(by_seeds.items(), key=lambda item: position[int(item[0][0])])
    assert [int(seed) for key, _ in stacks for seed in key] == seeds.tolist()
    return [shadow for _, stack in stacks for shadow in stack]


def shadow_runs_by_train(graph, config, spec, n_shadows, seed):
    """Oracle of ``train_shadows``'s trainings: the pool and each shadow's
    (params, log) of ``train`` on its re-masked graph."""
    pool, masks, seeds = shadow_masks(graph, spec, n_shadows, seed)
    no_test = np.zeros(graph.num_nodes, dtype=bool)
    return pool, [dg.train(graph.with_masks(mask, graph.val_mask, no_test),
                           dataclasses.replace(config, seed=int(shadow_seed)), spec)
                  for mask, shadow_seed in zip(masks, seeds)]


def shadow_phi_by_train(graph, config, spec, n_shadows, seed, trained=None):
    """Oracle of ``train_shadows``: ``train`` on each shadow's re-masked graph
    (or ``trained``, a ``shadow_runs_by_train`` result)."""
    pool, runs = trained or shadow_runs_by_train(graph, config, spec, n_shadows, seed)
    ctx = dg.normalize_adjacency(graph)
    return np.array([scaled_confidence(dg.gcn_forward(ctx, params)[pool], graph.labels[pool])
                     for params, _ in runs])


def four_classes(g):
    labels = np.random.default_rng(7).integers(0, 4, g.num_nodes)
    return dataclasses.replace(g, labels=labels, num_classes=4)


def no_val(g):
    return g.with_masks(g.train_mask, np.zeros(g.num_nodes, bool), g.test_mask)


# (case, graph, config, spec) of the stacked-training oracles
STACK_CASES = [
    ("adam", small_graph, dict(), None),
    ("sgd", small_graph, dict(optimizer="sgd", learning_rate=0.1), None),
    ("clipping", small_graph, dict(clipping=True), dg.SubgraphSpec(clip_norm=0.05)),
    ("mlp", small_graph, dict(model_kind="mlp"), None),
    ("1 layer", small_graph, dict(num_layers=1), None),
    ("3 layers", small_graph, dict(num_layers=3), None),
    ("3-layer mlp", small_graph, dict(num_layers=3, model_kind="mlp"), None),
    ("classes >= hidden", lambda: four_classes(small_graph()), dict(hidden_dim=3), None),
    ("eval_every", small_graph, dict(eval_every=7), None),
    ("no val nodes", lambda: no_val(small_graph()), dict(), None),
    ("larger graph", lambda: small_graph(n=700), dict(hidden_dim=32, epochs=12), None),
    ("larger mlp", lambda: small_graph(n=700), dict(hidden_dim=32, epochs=12,
                                                    model_kind="mlp"), None),
    ("dp", small_graph, DP, dp_spec()),
    ("dp adam", small_graph, dict(DP, optimizer="adam", learning_rate=0.01), dp_spec()),
    ("dp 3 layers", small_graph, dict(DP, num_layers=3), dp_spec(hops=3)),
    ("dp mlp", small_graph, dict(DP, model_kind="mlp"), dp_spec()),
    ("dp hidden_dim=1", small_graph, dict(DP, hidden_dim=1), dp_spec()),
    ("dp 3 layers, hidden_dim=1", small_graph, dict(DP, num_layers=3, hidden_dim=1),
     dp_spec(hops=3)),
    ("subgraphing", small_graph, dict(mode="subgraph_batch", eval_every=5), subgraph_spec()),
    ("subgraph_clip", small_graph, dict(mode="subgraph_batch", clipping=True, eval_every=5),
     subgraph_spec(clip_norm=0.05)),
    ("subgraph_clip, no val nodes", lambda: no_val(small_graph()),
     dict(mode="subgraph_batch", clipping=True, eval_every=5), subgraph_spec(clip_norm=0.05)),
]


@pytest.mark.parametrize("case, graph_of, config, spec", STACK_CASES)
def test_stacked_shadows_equal_a_train_per_shadow(monkeypatch, case, graph_of, config, spec):
    # shadows train in stacks, from either source; each shadow's params and
    # phi keep the bits of its own train() run.  17 shadows make stacks of
    # unequal sizes.
    g = graph_of()
    cfg = dataclasses.replace(quick_config(), **config)
    by_seeds = {}  # each stack's (params, log) per shadow, by the stack's seeds
    train_models = training._train_models

    def train_stack(*args, **kwargs):
        by_seeds[tuple(args[4])] = stack = train_models(*args, **kwargs)
        return stack

    sigmas = []  # each stack's one claim's sigma
    privacy_claim = training._privacy_claim

    def recorded_claim(*args):
        claim = privacy_claim(*args)
        sigmas.append(claim[0]["sigma"])
        return claim

    monkeypatch.setattr(training, "_privacy_claim", recorded_claim)
    monkeypatch.setattr(attacks, "_train_models", train_stack)
    got = dg.train_shadows(g, cfg, spec, n_shadows=17, seed=4)
    stacked = in_stack_order(by_seeds, shadow_masks(g, spec, 17, 4)[2])
    sizes = stack_sizes(17, cfg.mode, attacks._shadow_workers())
    assert len(by_seeds) == len(sizes) and len(set(sizes)) == 2
    if isinstance(spec, dg.PrivacySpec):  # every shadow's sigma is the target's
        n_train = int(g.train_mask.sum())
        assert (got.membership.sum(axis=1) == n_train).all()
        assert len(sigmas) == len(sizes) and set(sigmas) == {dg.calibrate_sigma(
            spec.epsilon_target, spec.delta, spec.total_steps, n_train,
            spec.effective_occurrence_bound, spec.batch_size)}
    else:
        assert sigmas == []
    trained = shadow_runs_by_train(g, cfg, spec, 17, 4)
    np.testing.assert_array_equal(got.phi, shadow_phi_by_train(g, cfg, spec, 17, 4, trained))
    assert len(stacked) == 17
    for (params, _), (want_params, _) in zip(stacked, trained[1]):
        np.testing.assert_array_equal(params.flat, want_params.flat)


@pytest.mark.parametrize("case, graph_of, config, spec", STACK_CASES)
def test_logging_stacks_equal_a_train_per_model(case, graph_of, config, spec):
    # a stack that keeps its logs, as train() does, gives each model the
    # params and log of its own train() run: here over train_shadows' 17
    # masks in one call (one stack per batch size and store rows)
    g = graph_of()
    cfg = dataclasses.replace(quick_config(), **config)
    _, masks, seeds = shadow_masks(g, spec, 17, 4)
    got = training._train_models(g, cfg, spec, masks, seeds)
    _, trained = shadow_runs_by_train(g, cfg, spec, 17, 4)
    assert len(got) == 17
    for (params, log), (want_params, want_log) in zip(got, trained):
        np.testing.assert_array_equal(params.flat, want_params.flat)
        assert log and log == want_log


def test_shadow_stacks_keep_no_logs(monkeypatch):
    # the audit reads each shadow's params alone: a full-graph stack
    # computes no loss means and scores only its val rows, to select its
    # checkpoint, and a DP stack composes no epsilon; no stack keeps a log
    g = small_graph()
    by_seeds, means, scored, composed = {}, [], [], []
    train_models, loss_grad, argmax = (training._train_models,
                                       training._masked_loss_grad_and_logits, np.argmax)
    seeds = shadow_masks(g, None, 17, 4)[2]

    def train_stack(*args, **kwargs):
        by_seeds[tuple(args[4])] = stack = train_models(*args, **kwargs)
        return stack

    def counted_loss_grad(*args):
        out = loss_grad(*args)
        means.append(out[0])
        return out

    monkeypatch.setattr(attacks, "_train_models", train_stack)
    monkeypatch.setattr(training, "_masked_loss_grad_and_logits", counted_loss_grad)
    monkeypatch.setattr(np, "argmax", lambda a, *args, **kwargs: scored.append(a.shape)
                        or argmax(a, *args, **kwargs))
    monkeypatch.setattr(training, "compose_and_convert",
                        lambda *args: composed.append(args) or 1.0)
    dg.train_shadows(g, quick_config(), None, n_shadows=17, seed=4)
    stacked = in_stack_order(by_seeds, seeds)
    assert len(stacked) == 17 and all(log == [] for _, log in stacked)
    epochs = 30 * len(stack_sizes(17, "full_graph", attacks._shadow_workers()))  # per stack
    assert len(means) == epochs and all(m is None for m in means)
    n_val = int(g.val_mask.sum())
    assert len(scored) == epochs and {shape[1:] for shape in scored} == {(n_val, 2)}
    by_seeds.clear()
    dp = dataclasses.replace(quick_config(), **DP)
    dg.train_shadows(g, dp, dp_spec(), n_shadows=17, seed=4)
    stacked = in_stack_order(by_seeds, seeds)
    assert len(stacked) == 17 and all(log == [] for _, log in stacked)
    assert composed == []
    dg.train(g, dp, dp_spec())  # the probe sees a logging DP run's records
    assert len(composed) == 12 // 5 + 1


def one_neighbor_slot_graph():
    # degrees up to 5, so at max_degree 5 the shadows' roots reach different
    # child counts, and their stores resolve different rows
    g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=80, target_homophily=0.7,
                                               neighbors_per_node=1, seed=0))
    return dg.assign_splits(g, dg.SplitSpec(0.4, 0.2, 0.4, seed=1))


@pytest.mark.parametrize("graph_of, config, spec", [
    (one_neighbor_slot_graph, DP, dp_spec(max_degree=5)),
    # an odd pool of 63 at m = 32: the shadows of 31 IN nodes take their
    # whole store, those of 32 a batch of 32
    (lambda: odd_pool(one_neighbor_slot_graph()), dict(mode="subgraph_batch", eval_every=5),
     subgraph_spec(batch_size=32)),
], ids=["rows", "batch size"])
def test_shadows_whose_stores_differ_train_in_separate_stacks(monkeypatch, graph_of, config,
                                                              spec):
    # one stacked batch needs one batch size and one set of rows; models that
    # differ in either split a stack, and each still matches its own train()
    g = graph_of()
    cfg = dataclasses.replace(quick_config(), **config)
    stacks = []
    stack = training._train_stack
    monkeypatch.setattr(training, "_train_stack",
                        lambda *args: stacks.append(len(args[4])) or stack(*args))
    got = dg.train_shadows(g, cfg, spec, n_shadows=17, seed=4)
    assert sum(stacks) == 17
    assert len(stacks) > len(stack_sizes(17, cfg.mode, attacks._shadow_workers()))
    np.testing.assert_array_equal(got.phi, shadow_phi_by_train(g, cfg, spec, 17, 4))


@pytest.mark.parametrize("num_layers", [2, 3])
def test_stacked_hidden_dim_one_shadows_equal_a_train_per_shadow(num_layers):
    # at hidden_dim=1 a product with a unit dimension takes a BLAS path
    # whose bits follow its operands' layout: a stack lays each model's
    # operands out as a one-model step does
    g = small_graph(n=300)
    cfg = dg.TrainConfig(num_layers=num_layers, hidden_dim=1, epochs=40, seed=0)
    got = dg.train_shadows(g, cfg, None, n_shadows=16, seed=4)
    np.testing.assert_array_equal(got.phi, shadow_phi_by_train(g, cfg, None, 16, 4))


def forced_workers(monkeypatch, workers):
    monkeypatch.setattr(attacks, "_shadow_workers", lambda: workers)


# the stack sizes that the rule gives the benchmark audits, at two threads
TWO_THREAD_LAYOUTS = {("adam", 32): [16, 16], ("adam", 17): [8, 9], ("adam", 128): [16] * 8,
                      ("dp", 16): [8, 8], ("dp", 128): [8] * 16}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("case", ["adam", "dp"])
def test_shadow_stacks_are_balanced_contiguous_runs(monkeypatch, case, workers):
    # the workers are decided first, then max(workers, ceil(n / cap)) stacks
    # of consecutive shadows, at a cap of 16 full-graph or 8 DP shadows,
    # whose sizes differ by at most one
    _, graph_of, config, spec = next(c for c in STACK_CASES if c[0] == case)
    g = graph_of()
    cfg = dataclasses.replace(quick_config(), **config)
    cap = 16 if case == "adam" else 8
    params = _init_model(g, cfg)
    stacks = []  # each stack's seeds, in the order the stacks start
    monkeypatch.setattr(attacks, "_train_models", lambda *args, **kwargs: (
        stacks.append(args[4].tolist()) or [(params, [])] * len(args[4])))
    forced_workers(monkeypatch, workers)
    for n in (16, 17, 32, 128):
        stacks.clear()
        dg.train_shadows(g, cfg, spec, n_shadows=n, seed=4)
        seeds = shadow_masks(g, spec, n, 4)[2].tolist()
        stacks.sort(key=lambda stack: seeds.index(stack[0]))  # threads start in any order
        assert [seed for stack in stacks for seed in stack] == seeds
        sizes = [len(stack) for stack in stacks]
        assert len(sizes) == max(workers, -(-n // cap))
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= cap
        if workers == 2 and (case, n) in TWO_THREAD_LAYOUTS:
            assert sizes == TWO_THREAD_LAYOUTS[case, n]


@pytest.mark.parametrize("case", ["adam", "dp"])
def test_concurrent_stacks_equal_serial_stacks(monkeypatch, case):
    # stacks share nothing mutable and their results are taken in stack
    # order, so 1, 2 or 3 threads, over the stacks each count lays out, give
    # the same bits; every thread is joined before train_shadows returns
    _, graph_of, config, spec = next(c for c in STACK_CASES if c[0] == case)
    g = graph_of()
    cfg = dataclasses.replace(quick_config(), **config)
    train_models = training._train_models
    threads = []  # (thread, stack size) of each stack

    def train_stack(*args, **kwargs):
        threads.append((threading.current_thread(), len(args[4])))
        return train_models(*args, **kwargs)

    monkeypatch.setattr(attacks, "_train_models", train_stack)
    got = []
    for workers in (1, 2, 3):
        forced_workers(monkeypatch, workers)
        threads.clear()
        before = threading.active_count()
        got.append(dg.train_shadows(g, cfg, spec, n_shadows=17, seed=4))
        assert threading.active_count() == before
        want = sorted(stack_sizes(17, cfg.mode, workers))
        assert sorted(size for _, size in threads) == want
        in_main = {thread is threading.main_thread() for thread, _ in threads}
        assert in_main == {workers == 1}
        assert len({thread for thread, _ in threads}) <= workers
    for ensemble in got[1:]:
        assert ensemble.membership.tobytes() == got[0].membership.tobytes()
        assert ensemble.phi.tobytes() == got[0].phi.tobytes()


class StackFailed(RuntimeError):
    pass


def test_a_failing_stack_raises_its_error_and_leaves_no_thread(monkeypatch):
    # the first failure in stack order is raised, with its own type, as a
    # serial run raises it, even when a later stack fails first; every
    # thread is joined.  33 shadows make three stacks at 1, 2 or 3 threads.
    g = small_graph()
    seeds = shadow_masks(g, None, 33, 4)[2]
    train_models = training._train_models

    def failing(*args, **kwargs):
        if args[4][0] == seeds[second]:
            time.sleep(0.2)
            raise StackFailed("the second stack")
        if args[4][0] == seeds[third]:
            raise ValueError("the third stack")
        return train_models(*args, **kwargs)

    monkeypatch.setattr(attacks, "_train_models", failing)
    for workers in (1, 2, 3):
        forced_workers(monkeypatch, workers)
        sizes = stack_sizes(33, "full_graph", workers)
        assert len(sizes) == 3
        second, third = np.cumsum(sizes[:2])
        before = threading.active_count()
        with pytest.raises(StackFailed, match="^the second stack$"):
            dg.train_shadows(g, quick_config(), None, n_shadows=33, seed=4)
        assert threading.active_count() == before


def test_shadow_workers_are_at_most_two_and_one_in_a_child(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1) as pool:  # as run(threads > 1) starts its cells
        assert pool.submit(attacks._shadow_workers).result() == 1
    starts = []
    thread_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: starts.append(self) or thread_start(self))
    # at most _SHADOW_THREADS (2, the count measured), however many cores
    assert attacks._SHADOW_THREADS == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert attacks._shadow_workers() == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    assert attacks._shadow_workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # where it does not exist
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert attacks._shadow_workers() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert attacks._shadow_workers() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert attacks._shadow_workers() == 1
    # a multiprocessing child, such as a run(threads > 1) cell worker,
    # trains its stacks serially and starts no thread
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
    assert attacks._shadow_workers() == 1
    g = small_graph()
    got = dg.train_shadows(g, quick_config(), None, n_shadows=17, seed=4)
    assert starts == []
    np.testing.assert_array_equal(got.phi, shadow_phi_by_train(g, quick_config(), None, 17, 4))


# ---------------------------------------------------------------- audit

def test_audit_report_fields_and_export():
    g = small_graph()
    cfg = quick_config()
    target, _ = dg.train(g, cfg)
    report = dg.audit(target, g, cfg, n_shadows=24, seed=1)
    assert set(report.tpr_at) == {0.001, 0.005, 0.01}
    assert 0.0 <= report.auc <= 1.0
    assert report.supremum is None
    assert report.sound
    blob = report.to_json()
    assert blob["n_shadows"] == 24
    assert "supremum_power" not in blob


def test_audit_dp_report_carries_bound():
    g = small_graph(n=120)
    dp = dg.PrivacySpec(epsilon_target=5.0, delta=1e-3, clip_norm=1.0, max_degree=3,
                        hops=2, occurrence_bound=4, batch_size=8, total_steps=20)
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True,
                         optimizer="sgd", learning_rate=2e-4, hidden_dim=8, seed=0,
                         eval_every=10)
    target, _ = dg.train(g, cfg, dp)
    report = dg.audit(target, g, cfg, n_shadows=24, seed=2, dp=dp)
    assert set(report.supremum) == {0.001, 0.005, 0.01}
    assert report.supremum[0.001] == pytest.approx(np.exp(5.0) * 0.001 + 1e-3, abs=1e-9)
    assert report.to_json()["epsilon"] == 5.0
    assert isinstance(report.sound, bool)


def test_audit_forwards_a_subgraph_spec_without_a_bound():
    # a non-DP spec reaches every shadow, and only a PrivacySpec has a bound
    g = small_graph(n=120)
    spec = dg.SubgraphSpec(clip_norm=0.05, max_degree=3, occurrence_bound=4, batch_size=8,
                           total_steps=20)
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, hidden_dim=8, seed=0,
                         eval_every=10)
    target, _ = dg.train(g, cfg, spec)
    report = dg.audit(target, g, cfg, n_shadows=16, seed=2, dp=spec)
    assert report.supremum is None and report.epsilon is None and report.sound
    assert "epsilon" not in report.to_json()
    ensemble = dg.train_shadows(g, cfg, spec, n_shadows=16, seed=2)
    np.testing.assert_array_equal(report.scores,
                                  dg.audit(target, g, cfg, seed=2, ensemble=ensemble).scores)
    default = dg.train_shadows(g, cfg, None, n_shadows=16, seed=2)
    assert not np.array_equal(ensemble.phi, default.phi)


def test_audit_determinism():
    g = small_graph()
    cfg = quick_config()
    target, _ = dg.train(g, cfg)
    r1 = dg.audit(target, g, cfg, n_shadows=24, seed=7)
    r2 = dg.audit(target, g, cfg, n_shadows=24, seed=7)
    np.testing.assert_array_equal(r1.scores, r2.scores)
    assert r1.auc == r2.auc
    assert r1.tpr_at == r2.tpr_at


def test_audit_excluding_one_shadow_bounded_effect():
    g = small_graph()
    cfg = quick_config()
    target, _ = dg.train(g, cfg)
    ens = dg.train_shadows(g, cfg, None, n_shadows=32, seed=3)
    logits = dg.gcn_forward(dg.normalize_adjacency(g), target)
    target_phi = scaled_confidence(logits[ens.pool], g.labels[ens.pool])
    full = dg.lira_score(ens, target_phi)
    dropped = ShadowEnsemble(pool=ens.pool, membership=ens.membership[:-1],
                             phi=ens.phi[:-1])
    partial = dg.lira_score(dropped, target_phi)
    # one shadow of 32 moves per-node Gaussian fits only so far
    assert np.nanmax(np.abs(full - partial)) < 3.0


def test_binomial_half_width():
    assert binomial_half_width(0.5, 100) == pytest.approx(1.96 * 0.05)
    assert binomial_half_width(0.0, 100) == 0.0
    assert binomial_half_width(1.0, 50) == 0.0


def count_trainings(monkeypatch):
    """Record every call of the stacked ``_train_models`` that ``attacks``
    makes, in place of the training."""
    trained = []
    monkeypatch.setattr(attacks, "_train_models",
                        lambda *args, **kwargs: trained.append(args) or [])
    return trained


def test_full_graph_shadows_below_the_count_fail_before_any_shadow_trains(monkeypatch):
    trained = count_trainings(monkeypatch)
    with pytest.raises(dg.AuditSetupError, match="^audit n_shadows must be an integer >= 16"):
        dg.train_shadows(small_graph(), quick_config(), None, n_shadows=15, seed=0)
    assert trained == []


@pytest.mark.parametrize("fpr_grid", [(), [], (2.0,), (-0.01,), (float("nan"),), ("0.01",),
                                      (True,), "0.01", None])
def test_audit_rejects_an_fpr_grid_before_any_shadow_trains(monkeypatch, fpr_grid):
    # the audit reads its FPR budgets by AuditSpec's rule, so an empty grid
    # cannot leave a DP audit's bound check empty, and so vacuously sound
    g = small_graph(n=60)
    dp = dg.PrivacySpec(epsilon_target=10.0, delta=1e-3, max_degree=3, occurrence_bound=4,
                        batch_size=8, total_steps=8)
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True, hidden_dim=8)
    trained = count_trainings(monkeypatch)
    with pytest.raises(dg.AuditSetupError, match="^audit fpr_grid must be a nonempty list of "
                                                 r"numbers in \[0, 1\], not "):
        dg.audit(_init_model(g, cfg), g, cfg, n_shadows=16, seed=0, dp=dp, fpr_grid=fpr_grid)
    assert trained == []


@pytest.mark.parametrize("n_shadows", [15, 16.0, True, "16", None])
def test_train_shadows_reads_the_count_by_the_audit_rule(n_shadows):
    with pytest.raises(dg.AuditSetupError,
                       match=f"^audit n_shadows must be an integer >= 16, not {n_shadows!r}$"):
        dg.train_shadows(small_graph(), quick_config(), None, n_shadows=n_shadows, seed=0)


def test_dp_audit_without_parity_fails_before_any_shadow_trains(monkeypatch):
    # each DP shadow trains on half the pool, so n_test must equal n_train
    # for its N to be the target's; a DP audit on another split fails its
    # setup, from train_shadows and audit alike, and a non-DP audit does not
    g = odd_pool(small_graph(n=60))
    dp = dg.PrivacySpec(epsilon_target=10.0, delta=1e-3, max_degree=3, occurrence_bound=7,
                        batch_size=8, total_steps=8)
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True, hidden_dim=8)
    message = ("^a DP audit needs n_test == n_train, so that each shadow trains on the "
               "target's N: n_train=24, n_test=23$")
    trained = count_trainings(monkeypatch)
    with pytest.raises(dg.AuditSetupError, match=message):
        dg.train_shadows(g, cfg, dp, n_shadows=16, seed=3)
    with pytest.raises(dg.AuditSetupError, match=message):
        dg.audit(_init_model(g, cfg), g, cfg, n_shadows=16, seed=3, dp=dp)
    assert trained == []
    dg.train_shadows(g, dataclasses.replace(cfg, noise=False), None, n_shadows=16, seed=3)
    assert len(trained) == 2


def test_dp_models_of_one_call_need_one_train_count():
    # a DP call's models share one claim, whose N is their train count
    g = small_graph()
    cfg = dataclasses.replace(quick_config(), **DP)
    masks = np.stack([g.train_mask, g.train_mask | g.test_mask])
    with pytest.raises(ValueError, match=r"^DP models share one claim, so one train count, "
                                         r"not \[32, 64\]$"):
        training._train_models(g, cfg, dp_spec(), masks, [0, 1])
