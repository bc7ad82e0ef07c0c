"""Per-layer tracing of the package from outside it.

:func:`install` wraps each layer's public entry point under the name its
caller looks it up by (a module global for functions imported by name, the
class attribute for methods).  Every wrapper opens a span; a layer's self
time is its spans' duration minus the time of the spans nested inside
them.  A hook whose target no longer exists is recorded in
:attr:`Tracer.absent` and its layer reads zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute path, self-time metric, call-count metric)
SPANS = (
    ("repro.queueing.lcfs", "LCFSQueue.loss_beyond_deadline",
     "queueing.lcfs_s", "queueing.lcfs_calls"),
    ("repro.experiments.figure7", "loss_curve",
     "queueing.eq47_s", "queueing.eq47_calls"),
    ("repro.queueing.mg1", "MG1.loss_beyond_deadline",
     "queueing.fcfs_s", "queueing.fcfs_calls"),
    ("repro.crp.scheduling_time", "ExactSchedulingModel.service_pmf",
     "crp.service_pmf_s", "crp.service_pmf_calls"),
    ("repro.crp.scheduling_time", "GeometricSchedulingModel.service_pmf",
     "crp.service_pmf_s", "crp.service_pmf_calls"),
    ("repro.experiments.sweep", "run_spec", "kernel.s", "kernel.calls"),
    ("repro.experiments.sweep", "run_spec_with_metrics",
     "kernel.s", "kernel.calls"),
    ("repro.experiments.sweep", "run_batch", "kernel.s", "kernel.calls"),
    ("repro.experiments.sweep", "run_batch_with_metrics",
     "kernel.s", "kernel.calls"),
    ("repro.experiments.sweep", "SweepExecutor.run_specs", "sweep.s", None),
    ("repro.experiments.sweep", "decide_wave",
     "stats.decide_s", "stats.decide_calls"),
    ("repro.resilience.journal", "RunJournal.record",
     "journal.write_s", "journal.records_written"),
    ("repro.resilience.journal", "RunJournal.get",
     "journal.read_s", "journal.records_read"),
)


class Tracer:
    """Span stack plus per-layer self time and counters."""

    def __init__(self):
        self.stack = []           # [metric, start, child seconds]
        self.top_s = 0.0          # total time inside outermost spans
        self.values = defaultdict(float)
        self.absent = []

    def enter(self, metric: str) -> None:
        self.stack.append([metric, time.perf_counter(), 0.0])

    def exit(self) -> None:
        metric, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.values[metric] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.top_s += duration

    def count(self, metric: str, amount: float = 1) -> None:
        self.values[metric] += amount

    def inside(self, metric: str) -> bool:
        return bool(self.stack) and self.stack[-1][0] == metric

    def _resolve(self, module: str, path: str):
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            return owner, attr, getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}:{path}")
            return None

    def wrap(self, module, path, time_metric=None, count_metric=None,
             after=None, adapt=None):
        """Replace ``module:path`` with a spanned, counted wrapper.

        ``adapt(args, kwargs)`` may return ``(args, kwargs, finish)`` to
        rewrite the call's arguments; ``finish()`` and ``after(args,
        result)`` run after the span closes, outside the layer's self
        time.
        """
        target = self._resolve(module, path)
        if target is None:
            return
        owner, attr, original = target
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            adapted = adapt(args, kwargs) if adapt is not None else None
            finish = None
            if adapted is not None:
                args, kwargs, finish = adapted
            if time_metric is not None:
                tracer.enter(time_metric)
            try:
                result = original(*args, **kwargs)
            finally:
                if time_metric is not None:
                    tracer.exit()
            if count_metric is not None:
                tracer.count(count_metric)
            if after is not None:
                after(args, result)
            if finish is not None:
                finish()
            return result

        setattr(owner, attr, wrapper)


def _lanes(args):
    specs = args[0]
    return specs if isinstance(specs, (list, tuple)) else [specs]


def install() -> Tracer:
    """Hook every layer; returns the tracer that accumulates into."""
    tracer = Tracer()

    def count_lanes(args, result):
        specs = _lanes(args)
        tracer.count("kernel.lanes", len(specs))
        tracer.count("kernel.slots", sum(s.horizon + s.warmup for s in specs))

    extra = {
        "kernel.s": count_lanes,
        "sweep.s": lambda args, result: tracer.count(
            "sweep.quarantined",
            len(getattr(args[0].last_outcome, "quarantined", ()) or ())),
        "journal.write_s": lambda args, result: tracer.count(
            "journal.bytes_written", args[0].record_path(args[1]).stat().st_size),
        "journal.read_s": lambda args, result: tracer.count(
            "journal.hits", 1 if result[0] else 0),
    }
    for module, path, time_metric, count_metric in SPANS:
        tracer.wrap(module, path, time_metric, count_metric,
                    after=extra.get(time_metric))

    def count_cache_misses(args, kwargs):
        # figure7 calls get_or_compute(namespace, key, compute); a miss
        # is a call of compute.
        namespace, key, compute = args
        missed = []

        def counted():
            missed.append(True)
            return compute()

        return (namespace, key, counted), kwargs, lambda: tracer.count(
            "cache.misses" if missed else "cache.hits")

    tracer.wrap("repro.experiments.figure7", "get_or_compute", "cache.s",
                adapt=count_cache_misses)
    tracer.wrap("repro.resilience.supervisor", "SupervisedExecutor.run",
                after=lambda args, result: tracer.count(
                    "sweep.tasks", len(result.results)))

    def count_lcfs_convolve(args, kwargs):
        if tracer.inside("queueing.lcfs_s"):
            tracer.count("queueing.lcfs_convolve_calls")

    # The LCFS busy-period solver calls ``np.convolve`` through the numpy
    # module, so the module attribute is where its calls can be counted.
    tracer.wrap("numpy", "convolve", adapt=count_lcfs_convolve)
    return tracer
