"""Mutation gate: each known failure mode of the DP claim must fail the DP tests.

    python .github/mutation_gate.py            # every mutant
    python .github/mutation_gate.py m3 n2      # the named ones

Each entry of MUTANTS plants one fault (file, exact old text, new text, and
why it breaks the claim).  For each, ``src`` and ``tests`` are copied to a
temporary directory, the old text is replaced (it must occur exactly once),
and tests/test_nn.py, tests/test_accounting.py and tests/test_sampling.py run
on the copy.  An unmutated copy must pass first.  The script exits 1 if any
mutant survives (the tests pass) or any entry does not match exactly once, so
a refactor that moves a mutated line fails here until its entry is updated.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_nn.py", "tests/test_accounting.py", "tests/test_sampling.py"]

# (id, file, old text, new text, why)
MUTANTS = [
    ("m1", "src/dpgraphlab/accounting.py",
     "OCCURRENCE_SENSITIVITY = 2.0",
     "OCCURRENCE_SENSITIVITY = 1.0",
     "a subgraph that survives a removal moves by up to 2C, so noise at Delta = C is half"),
    ("m2", "src/dpgraphlab/sampling.py",
     "occurrence[root] = 1  # each root's own subgraph claims one slot",
     "occurrence[root] = 0",
     "a root's own subgraph no longer counts, so a node can occur in T + 1 subgraphs"),
    ("m3", "src/dpgraphlab/training.py",
     "feed.batch_rng.choice(size, size=m, replace=False)",
     "feed.batch_rng.choice(size, size=m, replace=True)",
     "batches drawn with replacement are not the accountant's hypergeometric draw"),
    ("m4", "src/dpgraphlab/accounting.py",
     "        out += noise\n",
     "        out += noise / m\n",
     "the noise is divided by m twice, so its std is m times below the claim's"),
    ("m6", "src/dpgraphlab/training.py",
     "feeds[0].batch_size, spec.total_steps, flat.shape[1]",
     "feeds[0].batch_size, spec.total_steps + 100, flat.shape[1]",
     "the run takes 100 steps the accountant never composed"),
    ("m7", "src/dpgraphlab/training.py",
     "claim = (_privacy_claim(spec, int(counts[0]),",
     "claim = (_privacy_claim(spec, 2 * int(counts[0]),",
     "the claim's N is twice the subgraphs sampled, so its batch rate is half the real one"),
    ("m8", "src/dpgraphlab/training.py",
     'claim[0]["sigma"] * OCCURRENCE_SENSITIVITY * spec.clip_norm',
     'claim[0]["sigma"] * spec.clip_norm',
     "the noise std lacks the factor 2 of Delta = 2C"),
    ("m10", "src/dpgraphlab/accounting.py",
     "    scale = _clip_scale(np.sqrt(np.vecdot(gradients, gradients)), clip_norm)",
     "    scale = np.ones((models, m))",
     "the rows are summed unclipped, so one subgraph's gradient is unbounded"),
    ("n1", "src/dpgraphlab/accounting.py",
     "T, m, steps = spec.effective_occurrence_bound, spec.batch_size, spec.total_steps",
     "T, m, steps = spec.effective_occurrence_bound - 1, spec.batch_size, spec.total_steps",
     "the claim charges T - 1 occurrences for a node that can occur in T"),
    ("n2", "src/dpgraphlab/accounting.py",
     "    scale = _clip_scale(np.sqrt(np.vecdot(gradients, gradients)), clip_norm)",
     "    scale = _clip_scale(np.sqrt(np.vecdot(gradients, gradients)), 2 * clip_norm)",
     "rows clipped to 2C move the sum by up to 4C, twice the noise's Delta"),
    ("n3", "src/dpgraphlab/accounting.py",
     "np.log(1.0 / delta) / (orders - 1.0)",
     "np.log(1.0 / delta) / orders",
     "the RDP conversion divides log(1/delta) by alpha, not alpha - 1, and under-reports"),
    ("n4", "src/dpgraphlab/accounting.py",
     "alpha * (alpha - 1.0) * r * r",
     "alpha * (alpha - 1.0) * r",
     "the per-step cost charges rho, not rho**2, for rho occurrences"),
    ("n5", "src/dpgraphlab/accounting.py",
     "if epsilon_target is not None and eps > epsilon_target * (1.0 + 1e-9):",
     "if False:",
     "a given sigma that overspends the epsilon target trains anyway"),
]


def run_tests(tree: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *TESTS], cwd=tree, env=env, capture_output=True, text=True)


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def main(argv: list[str]) -> int:
    unknown = set(argv) - {mutant[0] for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}")
        return 2
    chosen = [mutant for mutant in MUTANTS if not argv or mutant[0] in argv]
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "unmutated"
        copy_tree(base)
        done = run_tests(base)
        if done.returncode != 0:
            print(done.stdout[-3000:])
            print("the unmutated copy fails its tests, so no mutant can be judged")
            return 1
        for ident, file, old, new, why in chosen:
            tree = Path(tmp) / ident
            copy_tree(tree)
            path = tree / file
            text = path.read_text(encoding="utf-8")
            count = text.count(old)
            if count != 1:
                print(f"{ident}: its old text occurs {count} times in {file}, not once")
                bad.append(ident)
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            t0 = time.perf_counter()
            done = run_tests(tree)
            elapsed = time.perf_counter() - t0
            failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
            if done.returncode == 0:
                print(f"{ident}: SURVIVED ({why}) in {elapsed:.1f} s")
                bad.append(ident)
            else:
                print(f"{ident}: killed by {failed[0][7:] if failed else done.stdout[-300:]} "
                      f"in {elapsed:.1f} s")
            shutil.rmtree(tree)
    if bad:
        print(f"mutation gate failed: {' '.join(bad)}")
        return 1
    print(f"mutation gate passed: {len(chosen)} mutants, each killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
