"""Benchmark of dpgraphlab: one workload per invocation.

    python3 perfbench/run.py --workload dp_audit --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports ``dpgraphlab`` from
``src/`` and calls only the package's public functions.  With ``--trace 0``
it repeats whole rounds of the workload until ``--seconds`` have passed,
checks every round's outputs, and reports the end-to-end metrics.  With
``--trace 1`` it runs one plain round and one round with the per-layer
tracer installed, and reports the per-layer metrics of the traced round.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os

# One BLAS thread: the workloads are many small matrix products, and the
# figures must not depend on how many cores the machine lends the run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import inspect
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import speed
import tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"  # git-ignored; emptied after each run
IMPORT_REPEATS = 3
BUILD_REPEATS = 3
MIN_EACH_SIDE = 8  # IN/OUT shadow coverage every audited node must reach
SELF_TIMED = ("train",)  # spans whose self time is reported besides calls and total time


@dataclass
class Round:
    span: tuple  # (start, elapsed) of the whole round
    trainings: list  # (start, elapsed) of each training the round times
    attempted: int
    failed: int
    check: Callable[[], list]  # output checks, run after the round's timing


class HomophilySweep:
    """``experiments.sweep_homophily`` at h=0.5, 0.7 and 0.9: a non-DP and a DP
    (eps=5) cell at each, 6 cells of 1000 nodes, T=6, m=64, 1000 DP steps.
    The timed trainings are the DP cells."""

    homophilies = (0.5, 0.7, 0.9)

    def __init__(self, dg, seed: int):
        from dpgraphlab.experiments import synthetic_benchmark_manifest

        self.dg = dg
        self.manifest = synthetic_benchmark_manifest(
            variants=("non_dp", "dp"), epsilons=(5.0,), seeds=(seed,))

    def run(self, out: Path) -> Round:
        from dpgraphlab import experiments

        variants = []
        clock = tracer.Tracer({"run_cell": lambda args, kwargs, _: variants.append(args[1])},
                              only={"run_cell"})
        t0 = time.perf_counter()
        with clock:
            result = experiments.sweep_homophily(self.manifest, self.homophilies, out_dir=out,
                                                 threads=1)
        span = (t0, time.perf_counter() - t0)
        cells = [c for summary in result["results"].values() for c in summary["cells"]]
        failed = [c for c in cells if "error" in c]
        for c in failed:
            print(c["traceback"], file=sys.stderr)
        dp_cells = [s for s, v in zip(clock.stats["run_cell"].spans, variants) if v == "dp"]
        return Round(span, dp_cells, len(cells), len(failed),
                     lambda: checks.check_sweep(self.dg, out, self.homophilies,
                                                self.manifest.privacy, "homophily_sweep"))


class Audit:
    """Train a target, then shadow-train and LiRA-audit it.  The timed
    trainings are the target's and every shadow's: the same pipeline."""

    n_shadows: int

    def graph_and_config(self, dg, seed: int):
        raise NotImplementedError

    def __init__(self, dg, seed: int):
        self.dg = dg
        self.audit_seed = seed + 10_000
        self.graph, self.config, self.dp = self.graph_and_config(dg, seed)

    def run(self, out: Path) -> Round:
        dg = self.dg
        attempted = self.n_shadows + 1  # shadow trainings plus the verdict
        clock = tracer.Tracer(only={"train"})
        t0 = time.perf_counter()
        try:
            with clock:
                params, log = dg.train(self.graph, self.config, self.dp)
                ensemble = dg.train_shadows(self.graph, self.config, self.dp, self.n_shadows,
                                            self.audit_seed)
                report = dg.audit(params, self.graph, self.config, seed=self.audit_seed,
                                  dp=self.dp, ensemble=ensemble)
        except Exception:  # a failed round is counted, not fatal
            traceback.print_exc()
            return Round((t0, time.perf_counter() - t0), [], attempted, attempted, lambda: [])
        span = (t0, time.perf_counter() - t0)

        def check():
            errors = checks.check_audit(dg, self.graph, params, ensemble, report,
                                        self.n_shadows, MIN_EACH_SIDE, self.dp, self.name)
            if self.dp is not None:
                dp = self.dp
                errors += checks.check_accounting(
                    dg, log, dp.epsilon_target, dp.delta, int(self.graph.train_mask.sum()),
                    dp.effective_occurrence_bound, dp.batch_size, f"{self.name} target")
            return errors

        return Round(span, clock.stats["train"].spans, attempted, 0, check)


class DpAudit(Audit):
    """Criterion-8b setup: DP eps=5 target on 500 nodes at h=0.8, 300 steps, 16 shadows."""

    name = "dp_audit"
    n_shadows = 16  # the smallest count the IN/OUT coverage invariant accepts

    def graph_and_config(self, dg, seed):
        g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=500, target_homophily=0.8,
                                                   seed=seed))
        g = dg.assign_splits(g, dg.SplitSpec(0.4, 0.2, 0.4, seed=seed))
        dp = dg.PrivacySpec(epsilon_target=5.0, delta=dg.recommend_delta(int(g.train_mask.sum())),
                            clip_norm=1.0, max_degree=5, hops=2, occurrence_bound=6,
                            batch_size=64, total_steps=300)
        cfg = dg.TrainConfig(mode="subgraph_batch", clipping=True, noise=True, optimizer="sgd",
                             learning_rate=1e-4, seed=seed, eval_every=50)
        return g, cfg, dp


class OverfitAudit(Audit):
    """Criterion-8a setup: non-DP full-graph target on 500 nodes at h=0.5 with class
    separation 0.6, 800 adam epochs, 32 shadows."""

    name = "overfit_audit"
    n_shadows = 32

    def graph_and_config(self, dg, seed):
        g = dg.generate_synthetic(dg.SyntheticSpec(num_nodes=500, target_homophily=0.5,
                                                   class_separation=0.6, seed=seed))
        g = dg.assign_splits(g, dg.SplitSpec(0.2, 0.1, 0.7, seed=seed))
        cfg = dg.TrainConfig(mode="full_graph", epochs=800, hidden_dim=32, seed=seed)
        return g, cfg, None


WORKLOADS = {"homophily_sweep": HomophilySweep, "dp_audit": DpAudit,
             "overfit_audit": OverfitAudit}


def import_times() -> list:
    """Full-speed times of importing dpgraphlab in fresh interpreters, each
    running its own probe."""
    code = ("import json, sys, time; sys.path[:0] = sys.argv[1:3]; import speed\n"
            "with speed.SpeedProbe() as p:\n"
            "    t = time.perf_counter(); import dpgraphlab; e = time.perf_counter() - t\n"
            "print(json.dumps(p.full_speed(t, e)))")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(HERE), str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout))
    return times


def end_to_end(make_workload, seconds: float, scratch: Path):
    rounds, builds, errors = [], [], []
    with speed.SpeedProbe() as probe:
        for _ in range(BUILD_REPEATS):
            t0 = time.perf_counter()
            workload = make_workload()
            builds.append((t0, time.perf_counter() - t0))
        start = time.perf_counter()
        while True:
            rounds.append(workload.run(scratch / f"round{len(rounds)}"))
            if time.perf_counter() - start >= seconds:
                break
    imports = import_times()
    for r in rounds:
        errors += r.check()
    done = [r for r in rounds if r.trainings]
    if not done:
        raise RuntimeError("no round completed a timed training; no timings to report")
    print(f"wall clock: round {statistics.median(r.span[1] for r in done):.6g} s, "
          f"training {statistics.median(e for r in done for _, e in r.trainings):.6g} s; "
          f"probe fastest {min(probe.durations):.3g} s, mean {statistics.fmean(probe.durations):.3g} s")
    setup_s = (statistics.median(imports)
               + statistics.median(probe.full_speed(*b) for b in builds))
    metrics = {
        "setup_s": (setup_s, "s"),
        "round_s": (statistics.median(probe.full_speed(*r.span) for r in done), "s"),
        "train_s": (statistics.median(probe.full_speed(*t)
                                      for r in done for t in r.trainings), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return rounds, errors, metrics


def per_layer(make_workload, scratch: Path):
    from dpgraphlab import sampling

    workload = make_workload()
    sampled = []
    fill = np.zeros(4)  # real nodes, padded slots, real adjacency entries, padded entries
    bind = inspect.signature(sampling.sample_training_subgraphs).bind

    def on_sample(args, kwargs, out):
        a = bind(*args, **kwargs).arguments
        sampled.append((a["graph"], a["max_degree"], a["occurrence_bound"], out))

    def on_batch(args, kwargs, out):
        store, idx = args[0], (args[1] if len(args) > 1 else kwargs["idx"])
        k = store.sizes[np.asarray(idx)]
        m, s = out[0].shape[:2]
        fill[:] += (k.sum(), m * s, (k * k).sum(), m * s * s)

    with speed.SpeedProbe() as probe:
        plain = workload.run(scratch / "plain")
        with tracer.Tracer({"sample_training_subgraphs": on_sample,
                            "SubgraphStore.batch": on_batch}) as tr:
            traced = workload.run(scratch / "traced")

    errors = plain.check() + traced.check()
    starved = max_occurrence = 0
    for i, (graph, max_degree, bound, subgraphs) in enumerate(sampled):
        errs, occ, starv = checks.recount_subgraphs(subgraphs, graph.degrees(), max_degree,
                                                    bound, f"sampler call {i}")
        errors += errs
        starved += starv
        max_occurrence = max(max_occurrence, occ)

    metrics = {}
    for name, st in tr.stats.items():
        metrics[f"{name}.calls"] = (st.calls, "count")
        metrics[f"{name}.total_s"] = (st.total_s, "s")
        if name in SELF_TIMED:
            metrics[f"{name}.self_s"] = (st.self_s, "s")
    if "sweep_homophily" in tr.stats and "run_cell" in tr.stats:
        metrics["experiments.io_s"] = (tr.stats["sweep_homophily"].total_s
                                       - tr.stats["run_cell"].total_s, "s")
    if "sample_training_subgraphs" in tr.stats:
        metrics["sampling.starved_roots"] = (starved, "count")
        metrics["sampling.max_occurrence"] = (max_occurrence, "count")
    if "SubgraphStore.batch" in tr.stats:
        metrics["sampling.batch.useful_ratio"] = (fill[0] / fill[1] if fill[1] else 0.0, "ratio")
        metrics["sampling.batch.adj_useful_ratio"] = (fill[2] / fill[3] if fill[3] else 0.0,
                                                      "ratio")
    metrics["trace.spans"] = (sum(st.calls for st in tr.stats.values()), "count")
    metrics["trace.overhead_s"] = (probe.full_speed(*traced.span) - probe.full_speed(*plain.span),
                                   "s")
    return [plain, traced], errors, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dpgraphlab" / "__init__.py").is_file():
        print(f"perfbench: no dpgraphlab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import dpgraphlab as dg

    def make_workload():
        return WORKLOADS[args.workload](dg, args.seed)

    OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            rounds, errors, metrics = per_layer(make_workload, scratch)
        else:
            rounds, errors, metrics = end_to_end(make_workload, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for message in errors:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {failed} failed, "
          f"checks {'passed' if not errors else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
