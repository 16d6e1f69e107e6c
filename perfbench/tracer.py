"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of ``dpgraphlab`` with
timing wrappers for the duration of a ``with`` block, then puts the
originals back.  Modules import each other's functions by name
(``from .accounting import calibrate_sigma``), so a function is replaced
under every name that refers to it in every loaded ``dpgraphlab`` module.

Each wrapped call is a span.  Spans nest on a stack, so a span's self time
is its duration minus the time of the wrapped calls made inside it.
Observers look at a call's arguments and result after the span has been
timed; their cost is charged to the tracer, not to the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (module, attribute path, span name).  A function missing after a refactor
# is skipped and its metrics are reported as absent.
TRACED = (
    ("accounting", "calibrate_sigma", "calibrate_sigma"),
    ("accounting", "make_accountant", "make_accountant"),
    ("accounting", "noisy_batch_gradient", "noisy_batch_gradient"),
    ("sampling", "sample_training_subgraphs", "sample_training_subgraphs"),
    ("sampling", "SubgraphStore.__init__", "SubgraphStore.build"),
    ("sampling", "SubgraphStore.batch", "SubgraphStore.batch"),
    ("training", "subgraph_batch_gradients", "subgraph_batch_gradients"),
    ("training", "train", "train"),
    ("nn", "loss_and_grad", "loss_and_grad"),
    ("nn", "gcn_forward", "gcn_forward"),
    ("attacks", "train_shadows", "train_shadows"),
    ("attacks", "lira_score", "lira_score"),
    ("attacks", "roc", "roc"),
    ("attacks", "audit", "audit"),
    ("experiments", "run_cell", "run_cell"),
    ("experiments", "sweep_homophily", "sweep_homophily"),
    ("synthetic", "generate_synthetic", "generate_synthetic"),
)


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    spans: list = field(default_factory=list)  # (start, elapsed) of each call


class Tracer:
    """Context manager that installs the wrappers and collects span statistics.

    ``observers`` maps a span name to ``f(args, kwargs, result)``; ``only``
    limits the wrapped functions to the named spans.
    """

    def __init__(self, observers: dict | None = None, only=None):
        self.observers = observers or {}
        self.only = only
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        observe = self.observers.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
                stats.spans.append((t0, elapsed))
            if observe is not None:
                observe(args, kwargs, out)
            if stack:
                # the whole wrapper, observer included, is a child of the caller
                stack[-1] += time.perf_counter() - t0
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "dpgraphlab" or key.startswith("dpgraphlab."))]
        for mod_name, path, span in TRACED:
            if self.only is not None and span not in self.only:
                continue
            try:
                owner = importlib.import_module(f"dpgraphlab.{mod_name}")
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self._wrap(span, original)
            if parents:  # a method: replace it on its class
                self._replace(owner, attr, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, original, wrapped)
        return self

    def _replace(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._stack.clear()
