"""Training regimes side by side: full-graph descent, sub-graphing, and DP-SGD.

DP training replaces full-graph gradients with per-root-subgraph gradients,
clips each one, and adds Gaussian noise calibrated so the whole run spends
at most the epsilon target.  Takes about ten seconds on two cores.
"""

import dpgraphlab as dg

graph = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=1000, target_homophily=0.8, seed=0))
graph = dg.assign_splits(graph, dg.SplitSpec(0.56, 0.14, 0.30, seed=0))
n_train = int(graph.train_mask.sum())
delta = dg.recommend_delta(n_train)
print(f"graph: homophily {dg.edge_homophily(graph):.3f}, {n_train} training nodes, "
      f"delta {delta:.3g}\n")

# --- non-private baselines ----------------------------------------------

nondp, _ = dg.train(graph, dg.TrainConfig(mode="full_graph", epochs=200, seed=0))
print(f"non-DP full graph      : test acc {dg.evaluate(graph, nondp, graph.test_mask):.4f}")

subg_cfg = dg.TrainConfig(mode="subgraph_batch", seed=0)
subg_spec = dg.SubgraphSpec(max_degree=5, batch_size=64, total_steps=1000)
subg, _ = dg.train(graph, subg_cfg, subg_spec)
print(f"sub-graphing (no noise): test acc {dg.evaluate(graph, subg, graph.test_mask):.4f}")

# --- DP at a few budgets -------------------------------------------------

for epsilon in (20.0, 5.0):
    dp = dg.PrivacySpec(epsilon_target=epsilon, delta=delta, clip_norm=1.0,
                        max_degree=5, hops=2, occurrence_bound=6,
                        batch_size=64, total_steps=1000)
    cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True,
                         optimizer="sgd", learning_rate=1e-4, seed=0, eval_every=100)
    params, log = dg.train(graph, cfg, dp)
    acc = dg.evaluate(graph, params, graph.test_mask)
    last = log[-1]
    print(f"DP eps={epsilon:<4g}          : test acc {acc:.4f}  "
          f"(sigma {last['sigma']:.2f}, eps spent {last['epsilon_spent']:.3f})")

# the log is JSON-lines friendly
dg.write_training_log(log, "dp_training_log.jsonl")
print("\nwrote the eps=5 training log to dp_training_log.jsonl")
