"""Perf smoke (CI): kernel microbenchmark + perf-regression gates.

Asserts, on a tiny grid:

* the fast path is bit-identical while being timed and its speedup over
  the reference loop stays above a pinned floor (the regression gate —
  a change that quietly loses the fast-forward or closed-form shortcuts
  fails CI, not just a local benchmark run);
* a 16-seed cohort run as one sweep on the default engine matches the
  fast kernel bit for bit on the full-size acceptance arm (parity is
  re-checked on every timed round) and beats it by the pinned floor;
* the compiled backend matches the fast kernel bit for bit on the
  full-size Figure-7 arm and holds the ISSUE 7 ≥10x floor — with or
  without numba (the pure-NumPy fallback carries the same gate, so the
  floor is meaningful on the default numba-free CI job);
* the ``stations_1e5`` scaling arm completes inside the perf-smoke
  budget with O(1) simulator construction;
* the faulted fast kernel (ISSUE 8) matches the faulted reference loop
  bit for bit — result and fault telemetry, per timed round — on the
  full-size Figure-7 arm under 2% feedback noise, and holds the ≥5x
  acceptance floor over the reference-loop fallback it replaced;
* the sequential replication engine (ISSUE 10) certifies the Figure-7
  CI target with ≥2.5x fewer lanes than the fixed budget on the
  acceptance arm, and CRN keeps paired arm-delta variance measurably
  below independent seeding;
* the observability contracts hold: a disabled registry is free (≤3%,
  pure noise allowance) and an enabled one stays under the ISSUE 5
  budget (≤8%).

Writes the smoke entry into the append-style ``BENCH_mac.json`` history
and refreshes ``perf_kernel.txt`` so CI can upload them as artifacts.
Excluded from the tier-1 suite (pytest ``testpaths`` covers ``tests/``
only).
"""

from .harness import PerfConfig, run_benchmarks, write_artifacts

#: Pinned regression floors.  The fast kernel measures >20x on the smoke
#: cell and the default engine ~5.8x over the fast kernel on the 16-seed
#: acceptance arm, so these floors keep margin for CI-runner noise while
#: still catching a lost optimisation (losing the sprint or a closed
#: form costs integer factors, not percents).
KERNEL_SPEEDUP_FLOOR = 15.0
COHORT_SPEEDUP_FLOOR = 4.5
#: ISSUE 7 acceptance: the compiled backend measures ~12.5x over the
#: fast kernel on the full Figure-7 arm even on the interpreted NumPy
#: fallback (the jitted walk only widens the gap), so 10x is the
#: contractual floor with realistic CI-noise margin.
COMPILED_SPEEDUP_FLOOR = 10.0
#: ISSUE 8 acceptance: faulted runs ride the fast kernel instead of
#: falling back to the reference loop.  The 2%-noise Figure-7 arm
#: measures ~10x (scan-gated idle fast-forward + the scalar phantom
#: descent executor), so 5x is the contractual floor with margin for
#: CI-runner noise.
ROBUSTNESS_FAULTED_SPEEDUP_FLOOR = 5.0
#: perf-smoke budgets for the 1e5-station scaling arm: the lazy
#: struct-of-arrays registry makes construction population-independent
#: (sub-millisecond; 100ms allows for cold-import noise), and the run
#: itself is arrival-bound, not station-bound.
STATIONS_1E5_CONSTRUCT_BUDGET_S = 0.1
STATIONS_1E5_RUN_BUDGET_S = 2.0
#: ISSUE 10 acceptance: the sequential engine stops the acceptance arm
#: at 8 lanes against the 32-lane fixed budget (4.0x); 2.5x is the
#: smoke floor (lane counts are deterministic given the seed, but the
#: floor leaves room for retuning wave sizes without breaking CI).
SEQUENTIAL_LANE_REDUCTION_FLOOR = 2.5
#: CRN gate: paired (fcfs − controlled) deltas on shared seeds measure
#: a ~0.17 variance ratio against independent seeding; 0.9 just asserts
#: "measurably below independent" with wide noise margin.
CRN_VARIANCE_RATIO_CEILING = 0.9


def test_fast_kernel_and_cohort_gates():
    config = PerfConfig().scaled(1 / 25)  # 6k + 0.8k slots: seconds, not minutes
    payload = run_benchmarks(config, mode="smoke", end_to_end=False)
    write_artifacts(payload)

    # run_benchmarks already asserted kernel bit-identity and per-round
    # cohort parity; these are the speed gates on top.
    kernel = payload["kernel"]
    assert kernel["speedup"] >= KERNEL_SPEEDUP_FLOOR, (
        f"fast-kernel speedup regressed: {kernel['speedup']:.1f}x "
        f"(floor {KERNEL_SPEEDUP_FLOOR:g}x)"
    )
    assert kernel["fast"]["slots_per_s"] > kernel["slow"]["slots_per_s"]

    cohort = payload["cohort_16seed"]
    assert cohort["speedup"] >= COHORT_SPEEDUP_FLOOR, (
        f"default-engine cohort speedup regressed: {cohort['speedup']:.1f}x "
        f"over the fast kernel on the {cohort['replications']}-seed arm "
        f"(floor {COHORT_SPEEDUP_FLOOR:g}x)"
    )

    # Compiled backend: parity was asserted per timed round inside
    # measure_compiled; this is the ISSUE 7 speed floor on top.
    comp = payload["compiled"]
    assert comp["speedup"] >= COMPILED_SPEEDUP_FLOOR, (
        f"compiled-backend speedup regressed: {comp['speedup']:.1f}x "
        f"over the fast kernel (floor {COMPILED_SPEEDUP_FLOOR:g}x, "
        f"numba={'yes' if comp['numba'] else 'no'})"
    )

    # Faulted kernel: parity (result + telemetry) was asserted per
    # timed round inside measure_robustness_faulted; this is the
    # ISSUE 8 speed floor on top.
    rob = payload["robustness_faulted"]
    assert rob["speedup"] >= ROBUSTNESS_FAULTED_SPEEDUP_FLOOR, (
        f"faulted fast-kernel speedup regressed: {rob['speedup']:.1f}x "
        f"over the reference loop at {rob['noise_rate']:g} feedback noise "
        f"(floor {ROBUSTNESS_FAULTED_SPEEDUP_FLOOR:g}x)"
    )

    # 1e5-station scaling arm: O(1) construction and a bounded run.
    st = payload["stations_1e5"]
    assert st["construct_s"] <= STATIONS_1E5_CONSTRUCT_BUDGET_S, (
        f"constructing a {st['n_stations']:,}-station simulator took "
        f"{st['construct_s']:.3f}s (budget "
        f"{STATIONS_1E5_CONSTRUCT_BUDGET_S:g}s) — per-station work crept "
        f"back into startup"
    )
    assert st["compiled_s"] <= STATIONS_1E5_RUN_BUDGET_S, (
        f"the {st['n_stations']:,}-station compiled run took "
        f"{st['compiled_s']:.2f}s (budget {STATIONS_1E5_RUN_BUDGET_S:g}s)"
    )

    # Sequential replication (ISSUE 10): both deliveries certified the
    # CI target inside measure_sequential_figure7; these are the
    # lane-economy and variance-reduction gates on top.
    seq = payload["sequential_figure7"]
    assert seq["lane_reduction"] >= SEQUENTIAL_LANE_REDUCTION_FLOOR, (
        f"sequential lane reduction regressed: {seq['lane_reduction']:.1f}x "
        f"on the acceptance arm against the "
        f"{seq['fixed_lanes_per_arm']}-lane fixed budget "
        f"(floor {SEQUENTIAL_LANE_REDUCTION_FLOOR:g}x)"
    )
    assert seq["crn"]["variance_ratio"] <= CRN_VARIANCE_RATIO_CEILING, (
        f"CRN paired-delta variance ratio is "
        f"{seq['crn']['variance_ratio']:.2f} of independent seeding "
        f"(ceiling {CRN_VARIANCE_RATIO_CEILING:g}) — the arms no longer "
        f"share sample paths"
    )

    # Observability contracts: disabled is free; enabled stays within
    # the ISSUE 5 budget now that per-epoch observes are buffered and
    # flushed in bulk.  The disabled arm IS the uninstrumented path
    # (the simulator normalises it to None), so its limit is pure
    # timer-noise allowance on the ratio of per-arm minima.
    obs = payload["instrumentation"]
    assert obs["disabled_overhead"] <= 0.03, (
        f"disabled metrics registry costs "
        f"{obs['disabled_overhead']:.1%} on the fast kernel (limit 3%)"
    )
    assert obs["enabled_overhead"] <= 0.08, (
        f"enabled metrics registry costs "
        f"{obs['enabled_overhead']:.1%} on the fast kernel (limit 8%)"
    )
