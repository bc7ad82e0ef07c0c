"""Sweep batching: how a grid is cut into ``run_specs`` calls.

A caller may hand the executor a whole grid at once, or cut it into
batches (as sequential waves and service shards do), inline or across
workers.  That is a scheduling decision only: results, metrics,
journal fingerprints and resume semantics are identical for any cut
and any worker count.
"""

import pytest

from repro.core import ControlPolicy
from repro.experiments import (
    MACRunSpec,
    ResilienceOptions,
    SweepExecutor,
    derive_seeds,
    plan_shards,
)
from repro.experiments import sweep as sweep_mod
from repro.obs.metrics import MetricsRegistry

M = 25
LAM = 0.5 / M


def _spec(seed, arm="optimal", **overrides):
    policy = (
        ControlPolicy.optimal(3.0 * M, LAM)
        if arm == "optimal"
        else ControlPolicy.uncontrolled_fcfs(LAM)
    )
    kwargs = dict(
        policy=policy,
        arrival_rate=LAM,
        transmission_slots=M,
        horizon=3_000.0,
        warmup=500.0,
        n_stations=25,
        deadline=3.0 * M,
        seed=seed,
    )
    kwargs.update(overrides)
    return MACRunSpec(**kwargs)


def _grid():
    # Two arms x four seeds plus one reference-loop cell, so every
    # engine path appears in one sweep.
    specs = [_spec(s) for s in derive_seeds(1, 4)]
    specs += [_spec(s, arm="fcfs") for s in derive_seeds(9, 4)]
    specs.append(_spec(77, fast=False))
    return specs


def _in_batches(executor_for, specs, size):
    """Run ``specs`` as consecutive ``run_specs`` calls of ``size``."""
    results, outcomes = [], []
    for start in range(0, len(specs), size):
        executor = executor_for()
        results += executor.run_specs(specs[start : start + size])
        outcomes.append(executor.last_outcome)
    return results, outcomes


class TestSchedulingInvariance:
    def test_results_invariant_to_batching_chunks_and_workers(self):
        specs = _grid()
        baseline = SweepExecutor(None).run_specs(specs)
        chunked, _ = _in_batches(lambda: SweepExecutor(None), specs, 3)
        assert chunked == baseline
        assert SweepExecutor(2).run_specs(specs) == baseline
        chunked, _ = _in_batches(lambda: SweepExecutor(2), specs, 2)
        assert chunked == baseline

    def test_chunks_group_same_arm_replications(self):
        # Interleaved arms regroup into per-arm seed cohorts (first
        # appearance order) before slicing into shards.
        specs = [
            _spec(1),
            _spec(1, arm="fcfs"),
            _spec(2),
            _spec(2, arm="fcfs"),
        ]
        assert plan_shards(specs, 64) == [[0, 2, 1, 3]]
        assert plan_shards(specs, 2) == [[0, 2], [1, 3]]

    def test_metrics_merge_invariant_across_batching(self):
        specs = _grid()
        whole = MetricsRegistry()
        SweepExecutor(None, metrics=whole).run_specs(specs)
        parallel = MetricsRegistry()
        SweepExecutor(2, metrics=parallel).run_specs(specs)
        batched = MetricsRegistry()
        _in_batches(lambda: SweepExecutor(None, metrics=batched), specs, 3)

        # Every scored metric is identical; only volatile telemetry
        # (per-task wall clocks) may differ between schedules.
        def scored(registry):
            return {
                name: metric
                for name, metric in registry.to_dict().items()
                if not metric.get("volatile")
            }

        assert scored(parallel) == scored(whole)
        # Cutting the grid regroups the float additions of histogram
        # sums, so those agree to rounding; every count stays exact.
        cut, ref = scored(batched), scored(whole)
        assert cut.keys() == ref.keys()
        for name, metric in ref.items():
            if "sum" in metric:
                assert cut[name]["sum"] == pytest.approx(metric["sum"], rel=1e-12)
                cut[name] = {**cut[name], "sum": metric["sum"]}
            assert cut[name] == metric
        for registry in (batched, whole):
            assert registry.to_dict()["sweep.cells.executed"]["value"] == len(
                specs
            )


class TestJournalInterop:
    def test_batched_journal_resumes_unbatched_and_vice_versa(self, tmp_path):
        specs = _grid()
        baseline = SweepExecutor(None).run_specs(specs)

        # Journal written in batches of three, resumed in one call.
        j1 = str(tmp_path / "j-batched")
        _in_batches(
            lambda: SweepExecutor(None, ResilienceOptions(checkpoint=j1)),
            specs, 3,
        )
        resumer = SweepExecutor(
            None, ResilienceOptions(checkpoint=j1, resume=True)
        )
        assert resumer.run_specs(specs) == baseline
        assert resumer.last_outcome.replayed == len(specs)
        assert resumer.last_outcome.executed == 0

        # Journal written in one call, resumed in batches of three.
        j2 = str(tmp_path / "j-plain")
        SweepExecutor(None, ResilienceOptions(checkpoint=j2)).run_specs(specs)
        resumed, outcomes = _in_batches(
            lambda: SweepExecutor(
                None, ResilienceOptions(checkpoint=j2, resume=True)
            ),
            specs, 3,
        )
        assert resumed == baseline
        assert sum(o.replayed for o in outcomes) == len(specs)
        assert sum(o.executed for o in outcomes) == 0

    def test_killed_batched_sweep_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        # A sweep dies with one cell poisoned (stand-in for a crash
        # mid-grid): completed cells are journaled per spec, so a fresh
        # invocation replays them and re-runs only the hole — and the
        # final grid is bit-identical to an undisturbed run.
        specs = [_spec(s) for s in derive_seeds(1, 6)]
        baseline = SweepExecutor(None).run_specs(specs)
        journal = str(tmp_path / "j-killed")
        poison_seed = specs[4].seed
        real = sweep_mod.run_spec

        def poisoned(spec):
            if spec.seed == poison_seed:
                raise RuntimeError("injected cell poison")
            return real(spec)

        monkeypatch.setattr(sweep_mod, "run_spec", poisoned)
        first = SweepExecutor(
            None,
            ResilienceOptions(
                max_retries=1, backoff_base=0.0, checkpoint=journal
            ),
        )
        partial = first.run_specs(specs)
        assert partial[:4] == baseline[:4]
        assert partial[4] is None
        assert partial[5] == baseline[5]
        assert first.last_outcome.holes() == [4]

        monkeypatch.setattr(sweep_mod, "run_spec", real)
        resumer = SweepExecutor(
            None, ResilienceOptions(checkpoint=journal, resume=True)
        )
        resumed = resumer.run_specs(specs)
        assert resumed == baseline
        assert resumer.last_outcome.replayed == 5
        assert resumer.last_outcome.executed == 1
