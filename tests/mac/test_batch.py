"""Bit-parity of seed cohorts run as one batch on the default engine.

A sweep hands its whole spec list to :meth:`SweepExecutor.run_specs`,
which runs every member on the simulator's default engine (the compiled
backend, stepping down for runs it cannot reproduce).  The contract
under test: each member of such a batch is **field-for-field identical**
to the fast kernel and to the reference loop run on that spec alone, in
spec order, for eligible and ineligible specs alike.  Grids are tiny:
the property is exact equality, not statistics.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ControlPolicy
from repro.experiments.sweep import (
    MACRunSpec,
    SweepExecutor,
    derive_seeds,
    run_spec,
    run_spec_with_metrics,
)
from repro.mac.kernels import compiled
from repro.resilience import invariants

M = 25
LAM = 0.5 / M

PROTOCOLS = ("optimal", "uncontrolled_fcfs", "uncontrolled_lcfs", "uncontrolled_random")


def _policy(name: str, deadline: float) -> ControlPolicy:
    if name == "optimal":
        return ControlPolicy.optimal(deadline, LAM)
    return getattr(ControlPolicy, name)(LAM)


def _spec(name: str, seed: int, **overrides) -> MACRunSpec:
    kwargs = dict(
        policy=_policy(name, 3.0 * M),
        arrival_rate=LAM,
        transmission_slots=M,
        horizon=4_000.0,
        warmup=500.0,
        n_stations=25,
        deadline=3.0 * M,
        seed=seed,
    )
    kwargs.update(overrides)
    return MACRunSpec(**kwargs)


def run_cohort(specs):
    """The cohort as a sweep runs it: one ``run_specs`` call."""
    return SweepExecutor(None).run_specs(specs)


def on(backend, specs):
    """Each spec run alone on the named backend."""
    return [run_spec(replace(s, backend=backend)) for s in specs]


@pytest.fixture
def compiled_calls(monkeypatch):
    """Count the runs that reach the compiled backend."""
    calls = []
    real = compiled.run_compiled

    def spy(sim, total_time, warmup_slots):
        calls.append(sim)
        return real(sim, total_time, warmup_slots)

    monkeypatch.setattr(compiled, "run_compiled", spy)
    return calls


class TestBitParity:
    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_batched_equals_sequential_fast_and_reference(self, name):
        # All four disciplines, three seeds each: batch == fast ==
        # reference loop, field for field (the acceptance criterion).
        specs = [_spec(name, seed) for seed in (1, 7, 42)]
        batched = run_cohort(specs)
        assert batched == on("fast", specs)
        assert batched == on("reference", specs)

    def test_mixed_arms_in_one_cohort(self):
        # Heterogeneous members (different arms, deadlines, horizons,
        # loss definitions) in a single call keep spec order.
        specs = [
            _spec("optimal", 3),
            _spec("uncontrolled_lcfs", 5, horizon=2_500.0),
            _spec("optimal", 3, deadline=1.0 * M, policy=_policy("optimal", 1.0 * M)),
            _spec("uncontrolled_fcfs", 9, loss_definition="paper"),
            _spec("uncontrolled_random", 2, transmission_slots=1),
        ]
        assert run_cohort(specs) == on("reference", specs)

    def test_replicated_seeds_match_derive_seeds_loop(self):
        specs = [_spec("optimal", s) for s in derive_seeds(1, 8)]
        assert run_cohort(specs) == on("fast", specs)

    def test_instrumented_parity_and_registry_equality(self):
        # Instrumented runs reproduce both the results and the exact
        # per-run registry state of the fast kernel — this is what
        # makes sweep metrics independent of the engine.
        specs = [_spec(name, 11) for name in PROTOCOLS]
        engine = [run_spec_with_metrics(s) for s in specs]
        fast = [
            run_spec_with_metrics(replace(s, backend="fast")) for s in specs
        ]
        for (res_a, reg_a), (res_b, reg_b) in zip(engine, fast):
            assert res_a == res_b
            assert reg_a == reg_b


class TestEligibilityAndFallback:
    def test_fast_false_is_ineligible_but_still_served(self, compiled_calls):
        spec = _spec("optimal", 1, fast=False)
        assert run_cohort([spec, spec]) == on("reference", [spec]) * 2
        assert compiled_calls == []

    def test_invariant_mode_disables_batching(self, monkeypatch, compiled_calls):
        # Invariant mode keeps every member on the guarded reference
        # loop; the engine steps aside without changing a result.
        spec = _spec("optimal", 1)
        expected = on("reference", [spec])
        monkeypatch.setenv(invariants.INVARIANTS_ENV, "1")
        assert run_cohort([spec, spec]) == expected * 2
        assert compiled_calls == []

    def test_mixed_eligibility_preserves_order(self, compiled_calls):
        specs = [
            _spec("optimal", 1),
            _spec("optimal", 2, fast=False),
            _spec("uncontrolled_fcfs", 3),
        ]
        assert run_cohort(specs) == on("reference", specs)
        assert len(compiled_calls) == 2


# Ragged lane lifetimes: lanes with very different horizons (some dying
# many rounds before others), warmups, and sub-slot deadline fractions.
_spec_strategy = st.builds(
    lambda name, seed, horizon, warm_frac, dl_mult, m, loss: MACRunSpec(
        policy=_policy(name, dl_mult * m),
        arrival_rate=0.5 / m,
        transmission_slots=m,
        horizon=float(horizon),
        warmup=math.floor(horizon * warm_frac),
        n_stations=25,
        deadline=dl_mult * m,
        loss_definition=loss,
        seed=seed,
    ),
    name=st.sampled_from(PROTOCOLS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    horizon=st.integers(min_value=200, max_value=3_000),
    warm_frac=st.sampled_from([0.0, 0.1, 0.25]),
    dl_mult=st.sampled_from([0.5, 1.0, 3.0, 8.0]),
    m=st.sampled_from([1, 2, 25]),
    loss=st.sampled_from(["true", "paper"]),
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(specs=st.lists(_spec_strategy, min_size=1, max_size=6))
def test_property_random_cohorts_are_bit_identical(specs):
    assert run_cohort(specs) == on("reference", specs)
