"""A reduced homophily sweep: how graph structure moderates the DP penalty.

The full benchmark grid (five homophily levels x eight variants x five
seeds) runs through the same manifest machinery; this demo shrinks the grid
to finish in about fifteen seconds on two cores and prints the long-form
table plus the per-seed homophily/accuracy trend.
"""

import json
from pathlib import Path

from dpgraphlab.experiments import (ExperimentManifest, report,
                                    sweep_homophily, synthetic_benchmark_manifest)

out = Path("sweep_demo")
base = synthetic_benchmark_manifest(variants=("non_dp", "dp"), epsilons=(10.0,),
                                    seeds=(0, 1), output_dir=str(out))
# fewer non-DP epochs for demo runtime; the DP recipe stays canonical
base = ExperimentManifest.from_dict({
    **base.to_dict(),
    "model": {**base.model, "epochs": 100},
})

result = sweep_homophily(base, [0.5, 0.7, 0.9], threads=2)

print("\nlong-form sweep table (also at sweep_demo/sweep.csv):")
print(f"{'h':>4} {'variant':<10} {'eps':>5} {'mean acc':>9} {'std':>7}")
for row in result["long_rows"]:
    eps = "-" if row["epsilon"] is None else f"{row['epsilon']:g}"
    print(f"{row['homophily']:>4} {row['variant']:<10} {eps:>5} "
          f"{row['mean_acc']:>9.4f} {row['std_acc']:>7.4f}")

print("\nper-seed Spearman(homophily, accuracy):")
for t in result["trends"]:
    eps = "-" if t["epsilon"] is None else f"{t['epsilon']:g}"
    print(f"  {t['variant']:<10} eps {eps:>4} seed {t['seed']}: {t['spearman']:+.3f}")

# each per-homophily run left cells on disk; merge them into one report
for h in (0.5, 0.7, 0.9):
    merged = report(out / f"h{h:g}")
print("\nper-level reports rendered; trend summary at sweep_demo/trend.json")
print(json.dumps(json.loads((out / "trend.json").read_text())["per_seed_spearman"][:2],
                 indent=2))
