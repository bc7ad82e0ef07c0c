"""Bit-parity and fallback behaviour of the compiled MAC backend.

The contract under test (the tentpole of ISSUE 7): running with
``backend="compiled"`` is **field-for-field identical** to the fast
kernel and to the reference loop for all four protocol disciplines —
seeded RANDOM included — with equal metrics registries when
instrumentation is on.  On top of parity: the numba-less fallback must
be a logged notice and a pure-NumPy run, never a crash; ineligible runs
must fall back through the fast-kernel chain; and the backend must hold
across ragged station counts (the 1e5–1e6 scaling axis is exercised at
its small end here — the perf budgets live in the perf smoke).
"""

import dataclasses
import logging

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ControlPolicy
from repro.des.rng import RandomStreams
from repro.mac.kernels import compiled
from repro.mac.simulator import WindowMACSimulator
from repro.obs.metrics import MetricsRegistry

M = 25
LAM = 0.5 / M
DEADLINE = 3.0 * M

PROTOCOLS = ("optimal", "uncontrolled_fcfs", "uncontrolled_lcfs", "uncontrolled_random")


def _policy(name: str) -> ControlPolicy:
    if name == "optimal":
        return ControlPolicy.optimal(DEADLINE, LAM)
    return getattr(ControlPolicy, name)(LAM)


def _run(name: str, backend: str, seed=1, n_stations=25, metrics=None, **kwargs):
    simulator = WindowMACSimulator(
        _policy(name),
        arrival_rate=LAM,
        transmission_slots=M,
        n_stations=n_stations,
        deadline=DEADLINE,
        seed=seed,
        backend=backend,
        metrics=metrics,
        **kwargs,
    )
    return simulator.run(4_000.0, warmup_slots=500.0)


class TestBitParity:
    @pytest.mark.parametrize("name", PROTOCOLS)
    @pytest.mark.parametrize("seed", (1, 7, 42))
    def test_compiled_equals_fast_and_reference(self, name, seed):
        # The acceptance criterion: all four disciplines, three seeds,
        # compiled == fast == reference, field for field.
        reference = _run(name, "reference", seed=seed)
        fast = _run(name, "fast", seed=seed)
        result = _run(name, "compiled", seed=seed)
        assert result == fast
        for field in dataclasses.fields(reference):
            assert getattr(result, field.name) == getattr(
                reference, field.name
            ), field.name

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_metrics_registries_equal(self, name):
        # Instrumented runs: the compiled backend produces the same
        # registry state as the fast kernel (the instrumented-kernel
        # contract), and identical results.
        fast_registry = MetricsRegistry(enabled=True)
        fast = _run(name, "fast", metrics=fast_registry)
        compiled_registry = MetricsRegistry(enabled=True)
        result = _run(name, "compiled", metrics=compiled_registry)
        assert result == fast
        assert compiled_registry.to_dict() == fast_registry.to_dict()

    @pytest.mark.parametrize("name", PROTOCOLS)
    def test_stream_seeded_runs_match(self, name):
        # The compiled backend drives the simulator's own generator —
        # RandomStreams construction stays bit-identical too.
        reference = _run(name, "reference", seed=None, streams=RandomStreams(11))
        result = _run(name, "compiled", seed=None, streams=RandomStreams(11))
        assert result == reference

    @settings(
        deadline=None,
        max_examples=12,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_stations=st.one_of(
            st.integers(min_value=1, max_value=400),
            st.sampled_from([1_000, 10_000, 100_000]),
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_parity_over_ragged_station_counts(self, n_stations, seed):
        # Property: parity is population-independent — from a single
        # station to the 1e5 scaling arm, same fields either way.
        fast = _run("optimal", "fast", seed=seed, n_stations=n_stations)
        result = _run("optimal", "compiled", seed=seed, n_stations=n_stations)
        assert result == fast


class TestFallbackAndEligibility:
    def test_numpy_fallback_runs_with_logged_notice(self, caplog, monkeypatch):
        # With numba absent the backend must run the NumPy path and say
        # so once — never crash.  The probe is re-armed and the import
        # is forced to fail so the test is meaningful even when numba
        # happens to be installed.
        import builtins

        real_import = builtins.__import__

        def no_numba(name, *args, **kwargs):
            if name == "numba":
                raise ImportError("No module named 'numba'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_numba)
        monkeypatch.setattr(compiled, "_PROBED", False)
        monkeypatch.setattr(compiled, "_JIT_WALK", None)
        with caplog.at_level(logging.INFO, logger=compiled.__name__):
            assert compiled.numba_available() is False
            result = _run("optimal", "compiled")
        assert "pure-NumPy" in caplog.text
        assert result == _run("optimal", "fast")

    def test_fallback_notice_logged_once(self, caplog, monkeypatch):
        monkeypatch.setattr(compiled, "_PROBED", False)
        monkeypatch.setattr(compiled, "_JIT_WALK", None)
        compiled._probe()
        with caplog.at_level(logging.INFO, logger=compiled.__name__):
            compiled._probe()
        assert "pure-NumPy" not in caplog.text

    def test_ineligible_run_falls_back_to_fast_chain(self):
        # A fault model makes the run ineligible for the compiled
        # backend; the dispatch must still complete via the fallback
        # chain with the same result the default path produces.
        from repro.faults import FaultModel

        fault = FaultModel.feedback_noise(0.05)
        via_compiled = _run("optimal", "compiled", fault_model=fault)
        default = _run("optimal", "auto", fault_model=fault)
        assert via_compiled == default

    def test_eligibility_gate(self):
        simulator = WindowMACSimulator(
            _policy("optimal"),
            arrival_rate=LAM,
            transmission_slots=M,
            deadline=DEADLINE,
            seed=1,
        )
        assert compiled.compiled_eligible(simulator)
        # The §5 priority extension is reference-loop territory.
        simulator.registry.set_window_scale(0, 0.5)
        assert not compiled.compiled_eligible(simulator)


@pytest.mark.compiled
class TestJittedWalk:
    """Run by the compiled-parity CI job (numba installed)."""

    def test_jitted_walk_matches_interpreted(self):
        pytest.importorskip("numba")
        assert compiled.numba_available()
        for name in PROTOCOLS:
            fast = _run(name, "fast", seed=3)
            result = _run(name, "compiled", seed=3)
            assert result == fast
