"""Engine selection: ``auto`` is the compiled backend, stepping down silently.

``backend=None``/``"auto"`` runs an eligible run on the compiled backend.
A run the compiled gate refuses steps down the compiled → fast →
reference chain *without* counting a fallback: ``kernel.fallbacks``
counts only backends a caller asked for by name, so an instrumented
``auto`` run's registry carries no trace of the engine choice.
"""

from dataclasses import replace

import pytest

from repro.core import ControlPolicy
from repro.core.policy import OldestFirstPosition
from repro.faults import FeedbackFaultModel
from repro.mac import WindowMACSimulator
from repro.mac.kernels import compiled
from repro.obs.metrics import MetricsRegistry
from repro.resilience import invariants

M = 25
LAM = 0.5 / M
DEADLINE = 3.0 * M
HORIZON = 3_000.0
WARMUP = 400.0


class _ShiftedOldest(OldestFirstPosition):
    """Oldest-first under another class: a position rule the compiled
    engine's flat window selection does not recognise."""


def _simulator(backend, metrics=None, policy=None, **kwargs):
    return WindowMACSimulator(
        policy or ControlPolicy.optimal(DEADLINE, LAM),
        arrival_rate=LAM,
        transmission_slots=M,
        n_stations=20,
        deadline=DEADLINE,
        seed=4,
        backend=backend,
        metrics=metrics,
        **kwargs,
    )


def _scaled(backend, metrics=None):
    sim = _simulator(backend, metrics)
    for station in range(10, 20):
        sim.registry.set_window_scale(station, 0.5)
    return sim


def _faulted(backend, metrics=None):
    noise = FeedbackFaultModel.noise(0.02)
    return _simulator(backend, metrics, feedback_faults=noise)


def _exotic(backend, metrics=None):
    base = ControlPolicy.optimal(DEADLINE, LAM)
    return _simulator(
        backend, metrics, policy=replace(base, position=_ShiftedOldest())
    )


REFUSED = {
    "scaled-stations": _scaled,
    "feedback-faults": _faulted,
    "exotic-position": _exotic,
    "invariant-mode": _simulator,
}


@pytest.fixture
def compiled_calls(monkeypatch):
    calls = []
    real = compiled.run_compiled

    def spy(sim, total_time, warmup_slots):
        calls.append(sim)
        return real(sim, total_time, warmup_slots)

    monkeypatch.setattr(compiled, "run_compiled", spy)
    return calls


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_auto_steps_down_silently(case, monkeypatch, compiled_calls):
    if case == "invariant-mode":
        monkeypatch.setenv(invariants.INVARIANTS_ENV, "1")
    build = REFUSED[case]
    assert not compiled.compiled_eligible(build(None))

    metrics = MetricsRegistry()
    result = build(None, metrics).run(HORIZON, warmup_slots=WARMUP)
    reference = build("reference").run(HORIZON, warmup_slots=WARMUP)
    assert result == reference
    assert metrics.value("kernel.fallbacks") == 0
    assert compiled_calls == []

    # Asking for the compiled backend by name is what gets counted.
    named = MetricsRegistry()
    assert build("compiled", named).run(HORIZON, warmup_slots=WARMUP) == reference
    assert named.value("kernel.fallbacks") >= 1


@pytest.mark.parametrize("backend", [None, "auto"])
def test_eligible_auto_run_executes_compiled(backend, compiled_calls):
    sim = _simulator(backend)
    result = sim.run(HORIZON, warmup_slots=WARMUP)
    assert compiled_calls == [sim]
    assert result == _simulator("reference").run(HORIZON, warmup_slots=WARMUP)


def test_fast_false_keeps_the_reference_loop(compiled_calls):
    sim = _simulator(None, fast=False)
    assert sim.run(HORIZON, warmup_slots=WARMUP) == _simulator(
        "reference"
    ).run(HORIZON, warmup_slots=WARMUP)
    assert compiled_calls == []
