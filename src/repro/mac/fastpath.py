"""Fast-path kernel for the shared-controller MAC simulation.

The reference loop in :meth:`~repro.mac.simulator.WindowMACSimulator._run_shared`
walks every slot of the horizon through the full object stack — one
:class:`~repro.core.window.WindowingProcess`, one channel examination and
one registry scan per slot, even when the network is provably silent.  At
the paper's light-load operating points that is almost every slot
(ρ′ = 0.25 spends ~85% of its slots idle), so the per-slot Python
overhead — not statistics — dominates sweep wall-clock.

This kernel removes that ceiling with three techniques, none of which is
allowed to change a single bit of the result:

**Idle-period fast-forward.**  At a decision epoch where (a) no message
is pending, (b) the initial window would cover the *entire* unresolved
set, and (c) policy element 4 cannot clip a one-slot backlog (K ≥ 1),
every slot until the next arrival is a full-window idle examination that
resolves everything and enrolls exactly one new slot of time.  The
controller state after ``n`` such slots is known in closed form (empty
unresolved set, frontier one slot behind the clock), so the kernel jumps
straight to the first epoch at which the next arrival is visible.  The
jump is draw-free even for the RANDOM discipline: when the window covers
the whole backlog the placement slack is zero and
:class:`~repro.core.policy.RandomPosition` draws nothing.

**Struct-of-arrays bookkeeping.**  Arrival instants, stations, fates and
transmission timestamps live in parallel arrays indexed by generation
order; the pending backlog is a pair of parallel lists (sorted arrival
time, array index).  No :class:`~repro.mac.messages.Message` object is
touched on the hot path — they are materialised once at the end for
``scored_messages`` compatibility.

**Per-process arrival bins.**  A windowing process only ever examines
sub-spans of its initial window, and the backlog cannot change while the
process runs, so the messages of the initial window are snapshotted once
and every split decision binary-searches that snapshot instead of
rescanning the global backlog.

The decision-epoch body, the fast-forward shortcut, the policy traits
and the accumulators live in :mod:`repro.mac.kernels.primitives`, shared
with the compiled backend (:mod:`repro.mac.kernels.compiled`), so the
kernels execute the same protocol code.  Instrumentation is buffered per
run (:class:`~repro.mac.kernels.primitives.ObsBuffers`) and flushed into
the registry once at the end — the hot loop never touches a metric
object.

Bit-identity contract: for any run the fast kernel accepts (see
:func:`fast_path_available`), the returned :class:`MACSimResult` equals
the slow path's field for field — identical RNG draw order, identical
float arithmetic on every recorded quantity.  This is enforced by the
golden-seed regression tests in ``tests/mac/test_fastpath.py``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List

import numpy as np

from ..resilience.invariants import invariants_enabled, require
from .channel import ChannelStats
from .kernels.primitives import (
    FATE_OF_CODE,
    EpochContext,
    KernelTraits,
    ObsBuffers,
    WaitStats,
    execute_epoch,
    kernel_traits,
    try_fast_forward,
)
from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simulator import MACSimResult, WindowMACSimulator

__all__ = [
    "KernelTraits",
    "fast_path_available",
    "kernel_traits",
    "run_fast",
]

# Backward-compatible private aliases: the canonical implementations
# moved to repro.mac.kernels.primitives when the compiled backend became
# the third consumer.
_PENDING = 0
_ON_TIME = 1
_LATE = 2
_DISCARDED = 3
_FATE_OF_CODE = FATE_OF_CODE
_ObsBuffers = ObsBuffers
_EpochContext = EpochContext
_execute_epoch = execute_epoch
_try_fast_forward = try_fast_forward


def fast_path_available(sim: "WindowMACSimulator") -> bool:
    """Whether the fast kernel reproduces this run bit-for-bit.

    The kernel disables itself (falling back to the reference loop or
    the replica loop) when:

    * a :class:`~repro.faults.FaultModel` drives the run — *per-station*
      fault injection needs the replica machinery, and
    * any station carries a §5 priority window scale below 1 — per-process
      eligibility restricts participation in ways the snapshot bins do
      not model.

    A :class:`~repro.faults.FeedbackFaultModel` does **not** disable the
    kernel: common-mode feedback errors keep one shared protocol state,
    and :func:`run_fast` routes such runs to the faulted kernel
    (:mod:`repro.mac.kernels.faults`) at full speed.
    """
    return sim.fault_model is None and not sim.registry.has_scaled_stations


def run_fast(
    sim: "WindowMACSimulator", total_time: float, warmup_slots: float
) -> "MACSimResult":
    """Run the fast kernel; same contract as ``_run_shared``."""
    if sim.feedback_faults is not None:
        from .kernels.faults import run_fast_faulted  # deferred: import cycle

        return run_fast_faulted(sim, total_time, warmup_slots)
    from .simulator import MACSimResult, flush_result_metrics  # deferred: import cycle

    policy = sim.policy
    controller = sim.controller
    rng = sim.rng
    m_slots = sim.transmission_slots
    discard_deadline = policy.discard_deadline
    score_deadline = sim.deadline
    true_definition = sim.loss_definition == "true"

    # -- arrival generation: identical draws to _generate_arrivals ----------
    arrival_rng = sim._arrival_rng
    if sim.workload is not None:
        gen_times, gen_stations = sim.workload.generate(
            total_time, sim.registry.n_stations, arrival_rng
        )
    else:
        n = arrival_rng.poisson(sim.arrival_rate * total_time)
        gen_times = np.sort(arrival_rng.uniform(0.0, total_time, size=n))
        gen_stations = arrival_rng.integers(0, sim.registry.n_stations, size=n)
    arr_t: List[float] = [float(t) for t in gen_times]
    arr_s: List[int] = [int(s) for s in gen_stations]
    n_arrivals = len(arr_t)
    fate = np.zeros(n_arrivals, dtype=np.int8)
    tx_start = np.full(n_arrivals, np.nan)
    process_start_of = np.full(n_arrivals, np.nan)

    traits = kernel_traits(policy)
    entry_discard_ok = traits.entry_discard_ok

    # -- state ---------------------------------------------------------------
    now = 0.0
    idle_slots = 0.0
    collision_slots = 0.0
    transmission_slots = 0.0
    wait_slots = 0.0

    backlog_t: List[float] = []  # sorted pending arrival instants
    backlog_i: List[int] = []  # parallel array indices
    next_arrival = 0  # generation pointer
    # Messages that can never transmit again: a SUCCESS resolves the whole
    # examined span but transmits only the station's oldest in-span
    # message, so further same-station messages inside that span stay
    # pending while their arrival instants leave the unresolved set —
    # windows are carved from the unresolved set, so no future window can
    # enable them.  Without element 4 they would otherwise pin the backlog
    # non-empty forever and keep the idle fast-forward gate shut.  They
    # are moved here (fate stays PENDING, counted as unresolved at the
    # end), which changes nothing observable.  With a discard deadline
    # they stay in the backlog instead: the reference loop discards them
    # like any other aged message, and the fast path must match.
    stuck_i: List[int] = []

    n_measured = 0
    delivered_on_time = 0
    delivered_late = 0
    discarded = 0
    waits = WaitStats()

    # REPRO_CHECK_INVARIANTS: the fast kernel re-derives controller state
    # in closed form, so its guards watch exactly the quantities the
    # shortcuts touch — the jumped clock and the emptied unresolved set.
    check = invariants_enabled()
    last_now = -math.inf
    # Per-epoch instrumentation is buffered (plain appends on the hot
    # path) and flushed into the registry once at the end.  Epoch
    # histograms cover *executed* epochs only: the idle fast-forward
    # elides full-window idle examinations, which the dedicated
    # mac.fastforward.* counters account for instead.
    obs = sim.metrics
    ob = ObsBuffers() if obs is not None else None

    ctx = EpochContext(
        controller,
        m_slots,
        discard_deadline,
        score_deadline,
        true_definition,
        warmup_slots,
        arr_t,
        arr_s,
        backlog_t,
        backlog_i,
        stuck_i,
        fate,
        tx_start,
        process_start_of,
        waits,
        ob,
    )

    while now < total_time:
        if check:
            require(now > last_now, f"fast-path clock stalled at slot {now}")
            last_now = now
        # Ingest arrivals that have occurred.
        while next_arrival < n_arrivals and arr_t[next_arrival] <= now:
            backlog_t.append(arr_t[next_arrival])
            backlog_i.append(next_arrival)
            if arr_t[next_arrival] >= warmup_slots:
                n_measured += 1
            next_arrival += 1

        # -- idle-period fast-forward ---------------------------------------
        if not backlog_t and entry_discard_ok:
            upcoming = (
                arr_t[next_arrival] if next_arrival < n_arrivals else math.inf
            )
            skipped = try_fast_forward(
                controller, policy, traits, now, upcoming, total_time, check
            )
            if skipped:
                idle_slots += skipped
                now += skipped
                if ob is not None:
                    ob.ff_skips.append(skipped)
                continue

        # -- reference epoch (same call sequence as the slow path) -----------
        if ob is not None:
            ob.epochs += 1
            ob.backlog_sizes.append(len(backlog_t))
        (
            now,
            idle_d,
            collision_d,
            transmission_d,
            wait_d,
            on_time_d,
            late_d,
            discarded_d,
        ) = execute_epoch(ctx, now)
        idle_slots += idle_d
        collision_slots += collision_d
        transmission_slots += transmission_d
        wait_slots += wait_d
        delivered_on_time += on_time_d
        delivered_late += late_d
        discarded += discarded_d

    unresolved_count = sum(
        1 for index in backlog_i if arr_t[index] >= warmup_slots
    ) + sum(1 for index in stuck_i if arr_t[index] >= warmup_slots)
    if check:
        accounted = (
            delivered_on_time + delivered_late + discarded + unresolved_count
        )
        require(
            accounted == n_measured,
            f"message conservation violated (fast path): {n_measured} "
            f"measured arrivals but {accounted} accounted for",
        )

    # Materialise Message records for the measured interval so callers of
    # scored_messages see the same view as the slow path.
    scored: List[Message] = []
    for index in range(n_arrivals):
        arrival = arr_t[index]
        if arrival < warmup_slots:
            continue
        message = Message(arrival=arrival, station=arr_s[index], uid=index)
        message.fate = FATE_OF_CODE[int(fate[index])]
        if not math.isnan(tx_start[index]):
            message.tx_start = float(tx_start[index])
            message.process_start = float(process_start_of[index])
        scored.append(message)
    sim.scored_messages = scored

    stats = ChannelStats(
        idle_slots=idle_slots,
        collision_slots=collision_slots,
        transmission_slots=transmission_slots,
        wait_slots=wait_slots,
    )
    sim.channel.now = now
    sim.channel.stats = stats
    result = MACSimResult(
        arrivals=n_measured,
        delivered_on_time=delivered_on_time,
        delivered_late=delivered_late,
        discarded=discarded,
        unresolved=unresolved_count,
        mean_true_wait=waits.mean_true,
        mean_paper_wait=waits.mean_paper,
        channel=stats,
        deadline=score_deadline,
    )
    if obs is not None:
        ob.flush(obs)
        flush_result_metrics(obs, result)
    return result
