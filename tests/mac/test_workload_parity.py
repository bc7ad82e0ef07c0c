"""Cross-backend parity for the nonstationary workloads.

The acceptance criterion of ISSUE 9's engine: every nonstationary
workload — heavy-tailed (both interarrival families), diurnal,
flash-crowd, adversarial — produces **bit-identical** results on the
reference loop, the fast kernel and the compiled backend (named, or as
the default engine of a sweep), across all four protocol disciplines.  Metrics registries must
be equal among the kernel paths (the reference loop legitimately differs
on epoch-granularity series — the idle fast-forward elides empty epochs
— exactly as ``tests/mac/test_obs_parity.py`` documents, so reference
instrumentation is compared through the slot/message counters instead).
"""

import dataclasses

import pytest

from repro.core import ControlPolicy
from repro.experiments.sweep import (
    MACRunSpec,
    SweepExecutor,
    run_spec,
    run_spec_with_metrics,
)
from repro.workloads import (
    AdversarialWorkload,
    DiurnalWorkload,
    FlashCrowdWorkload,
    HeavyTailedWorkload,
)

M = 25
LAM = 0.5 / M
DEADLINE = 3.0 * M
HORIZON = 2_500.0
WARMUP = 400.0

WORKLOADS = {
    "pareto": HeavyTailedWorkload(rate=LAM, shape=1.5, family="pareto"),
    "weibull": HeavyTailedWorkload(rate=LAM, shape=0.6, family="weibull"),
    "diurnal": DiurnalWorkload(rate=LAM, period=800.0, amplitude=0.9),
    "flash-crowd": FlashCrowdWorkload(
        base_rate=LAM / 1.4,
        peak_ratio=6.0,
        ramp=60.0,
        hold=150.0,
        period=1_500.0,
        onset=300.0,
    ),
    "adversarial": AdversarialWorkload(
        burst_size=6, interval=600.0, background_rate=LAM / 2.0
    ),
}

PROTOCOLS = ("optimal", "uncontrolled_fcfs", "uncontrolled_lcfs", "uncontrolled_random")

# Counters every execution path must agree on exactly (the
# epoch-granularity histograms are kernel-path-only series).
SLOT_AND_MESSAGE_COUNTERS = (
    "mac.slots.idle",
    "mac.slots.collision",
    "mac.slots.transmission",
    "mac.slots.wait",
    "mac.messages.arrivals",
    "mac.messages.on_time",
    "mac.messages.late",
    "mac.messages.discarded",
    "mac.messages.unresolved",
)


def _policy(name: str) -> ControlPolicy:
    if name == "optimal":
        return ControlPolicy.optimal(DEADLINE, LAM)
    return getattr(ControlPolicy, name)(LAM)


def _spec(workload, protocol, backend=None, seed=3) -> MACRunSpec:
    return MACRunSpec(
        policy=_policy(protocol),
        arrival_rate=LAM,
        transmission_slots=M,
        horizon=HORIZON,
        warmup=WARMUP,
        n_stations=25,
        deadline=DEADLINE,
        seed=seed,
        workload=workload,
        backend=backend,
    )


def _counters(state: dict) -> dict:
    return {
        name: state.get(name, {}).get("value")
        for name in SLOT_AND_MESSAGE_COUNTERS
    }


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_all_backends_bit_identical(workload_name, protocol):
    workload = WORKLOADS[workload_name]
    reference = run_spec(_spec(workload, protocol, backend="reference"))
    fast = run_spec(_spec(workload, protocol, backend="fast"))
    compiled = run_spec(_spec(workload, protocol, backend="compiled"))
    (engine,) = SweepExecutor(None).run_specs([_spec(workload, protocol)])
    for field in dataclasses.fields(reference):
        name = field.name
        assert getattr(fast, name) == getattr(reference, name), f"fast.{name}"
        assert getattr(compiled, name) == getattr(reference, name), (
            f"compiled.{name}"
        )
        assert getattr(engine, name) == getattr(reference, name), (
            f"engine.{name}"
        )


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_kernel_registries_equal(workload_name, protocol):
    workload = WORKLOADS[workload_name]
    fast_result, fast_state = run_spec_with_metrics(
        _spec(workload, protocol, backend="fast")
    )
    compiled_result, compiled_state = run_spec_with_metrics(
        _spec(workload, protocol, backend="compiled")
    )
    engine_result, engine_state = run_spec_with_metrics(
        _spec(workload, protocol)
    )
    reference_result, reference_state = run_spec_with_metrics(
        _spec(workload, protocol, backend="reference")
    )
    assert fast_result == compiled_result == engine_result == reference_result
    assert compiled_state == fast_state
    assert engine_state == fast_state
    # The reference loop walks every epoch individually, so its
    # epoch-granularity series differ by design; the physical slot and
    # message accounting must still agree to the last count.
    assert _counters(reference_state) == _counters(fast_state)


def test_heterogeneous_batch_matches_per_spec_runs():
    # One sweep batch mixing every workload family (distinct arrival
    # shapes and seeds) must equal the spec-at-a-time reference runs.
    specs = [
        _spec(workload, "optimal", seed=11 + i)
        for i, (_, workload) in enumerate(sorted(WORKLOADS.items()))
    ]
    batched = SweepExecutor(None).run_specs(specs)
    individual = [
        run_spec(dataclasses.replace(spec, backend="reference"))
        for spec in specs
    ]
    assert batched == individual
