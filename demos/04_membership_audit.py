"""Auditing a trained model with the shadow-model likelihood-ratio attack.

Shadow models retrain the target's pipeline on complementary pairs of
random halves of the audit pool (train + test nodes); per-node Gaussians
over their confidences turn the target's confidence into a membership
score.  A small shadow count keeps this demo quick; the acceptance suite
runs the full 128.
"""

import numpy as np

import dpgraphlab as dg

# an overfit-prone setup: few training nodes, weak features, long training
graph = dg.generate_synthetic(dg.SyntheticSpec(
    num_nodes=400, target_homophily=0.5, class_separation=0.6, seed=7))
graph = dg.assign_splits(graph, dg.SplitSpec(0.2, 0.1, 0.7, seed=7))
config = dg.TrainConfig(mode="full_graph", epochs=400, seed=7)

target, log = dg.train(graph, config)
print(f"target: train acc {log[-1]['train_acc']:.3f}, "
      f"test acc {dg.evaluate(graph, target, graph.test_mask):.3f} (memorization gap)")

report = dg.audit(target, graph, config, n_shadows=32, seed=1)
print(f"\nattack on the overfit model ({report.n_shadows} shadows, "
      f"{report.n_members} members / {report.n_nonmembers} non-members):")
print(f"  AUC {report.auc:.4f}")
for f in (0.001, 0.005, 0.01):
    print(f"  TPR at FPR<={f}: {report.tpr_at[f]:.4f}")

np.savetxt("audit_roc.csv", report.roc_points, fmt="%.10g", delimiter=",",
           header="fpr,tpr", comments="")
print("full ROC sweep written to audit_roc.csv (fpr,tpr rows, log-log plottable)")

# against a DP-trained target the same attack is blunted, and the report
# carries the analytic ceiling on any attacker's power.  A DP audit needs
# n_test == n_train, so that each shadow's half of the pool holds the
# target's N: it runs on a 0.4/0.2/0.4 split of the same graph.
graph = dg.assign_splits(graph, dg.SplitSpec(0.4, 0.2, 0.4, seed=7))
n_train = int(graph.train_mask.sum())
dp = dg.PrivacySpec(epsilon_target=5.0, delta=dg.recommend_delta(n_train),
                    clip_norm=1.0, max_degree=5, hops=2, occurrence_bound=6,
                    batch_size=32, total_steps=200)
dp_config = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True,
                           optimizer="sgd", learning_rate=1e-4, seed=7, eval_every=50)
dp_target, _ = dg.train(graph, dp_config, dp)
dp_report = dg.audit(dp_target, graph, dp_config, n_shadows=32, seed=2, dp=dp)
print(f"\nattack on the DP eps=5 model: AUC {dp_report.auc:.4f}")
for f in (0.001, 0.005, 0.01):
    print(f"  TPR at FPR<={f}: {dp_report.tpr_at[f]:.4f}  "
          f"(supremum power {dp_report.supremum[f]:.4f})")
print("soundness (empirical power below the bound):", dp_report.sound)
