"""The lane state machine: one independent run advanced in fused rounds.

A *lane* is one simulator run reduced to plain Python scalars plus
NumPy tables on the long axes (arrival generation, the steady-state
sprint tables).  The compiled backend (:mod:`repro.mac.kernels.compiled`)
drives one lane per run through :class:`~repro.mac.kernels.engine.FlatLane`,
the subclass that supplies the GEN mode below (``_materialize``,
``gen_step``, ``_gen_epoch``).

How a lane runs
---------------
A lane is in one of two modes:

**VEC** — the lane's unresolved pseudo-time set is *empty*, so its
controller state is fully described by one scalar (the frontier F).
Everything the reference kernel would do from that state has a provable
closed form that consumes **zero RNG draws**:

* the idle fast-forward jump (same arithmetic as the sequential
  kernel's);
* a decision epoch whose initial window covers the whole unresolved
  span ``[max(F, now−K), now)`` — the window then admits the lane's
  in-window backlog verbatim (no placement slack, so even RANDOM draws
  nothing), and a 0- or 1-message backlog resolves in a single idle or
  success examination whose state/score updates are explicit.

**GEN** — any other situation (≥2 in-window messages, a window shorter
than the span, an exotic length rule).  The lane enters GEN at
``(∅, F)`` — exactly the reference kernel's state at that point — and
runs the reference epoch with the lane's own generator until the
unresolved set empties again, when it snaps back to VEC.

Because the VEC closed forms replicate the reference kernel's float
arithmetic operation for operation (clamp = ``max``, measure = one
subtraction, the same Welford mean update per event) and consume no
randomness, and GEN epochs reproduce the reference epoch, a lane's
:class:`~repro.mac.simulator.MACSimResult` is **bit-identical** to the
reference loop's.

:class:`LaneState` takes its run description as explicit parameters
(policy, generator, arrival arrays, horizon), so a caller may hand it a
generator that already produced the arrival draws — exactly what the
compiled backend does with the simulator's own ``rng``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Optional

import numpy as np

from ...core.controller import ProtocolController
from ...obs.metrics import MetricsRegistry
from ..channel import ChannelStats
from ..simulator import MACSimResult, flush_result_metrics
from .primitives import (
    DISCARDED,
    LATE,
    ON_TIME,
    EpochContext,
    ObsBuffers,
    kernel_traits,
)

__all__ = ["LaneState", "LaneWaits"]

_EPS = 1e-12


class LaneWaits:
    """Per-lane adapter giving GEN epochs the lane's Welford state.

    Same arithmetic as :class:`~repro.mac.kernels.primitives.WaitStats`,
    applied to this lane's accumulators — so a lane that mixes VEC
    (closed-form update) and GEN (this adapter) epochs still produces
    one uninterrupted Welford stream.
    """

    __slots__ = ("lane",)

    def __init__(self, lane: "LaneState"):
        self.lane = lane

    def observe(self, true_value: float, paper_value: float) -> None:
        lane = self.lane
        count = lane.wcount + 1
        lane.wcount = count
        delta = true_value - lane.wtrue
        lane.wtrue += delta / count
        delta = paper_value - lane.wpaper
        lane.wpaper += delta / count


class LaneState:
    """One run: its arm scalars, backlog, RNG, and the per-round hot
    state the round loop reads (plain Python floats/ints: a scalar
    attribute update is far cheaper than a NumPy per-op dispatch).

    Subclasses supply the GEN mode: ``_materialize(frontier)``,
    ``gen_step(now)`` and ``_gen_epoch(now)``."""

    __slots__ = (
        "policy",
        "traits",
        "controller",
        "m_slots",
        "m_f",
        "discard_deadline",
        "k_f",
        "score_deadline",
        "sdl_f",
        "warmup",
        "arr_t",
        "arr_s",
        "n_arrivals",
        "total_time",
        "ceil_t",
        "true_t",
        "iso",
        "backlog_t",
        "backlog_i",
        "stuck_i",
        "ob",
        "registry",
        "ctx",
        # hot per-round state (was the struct-of-arrays cells)
        "now",
        "frontier",
        "idle",
        "coll",
        "tx",
        "wait",
        "upcoming",
        "const",
        "covers",
        "steady",
        "entry_ok",
        "vec",
        "wcount",
        "wtrue",
        "wpaper",
        "on_time",
        "late",
        "disc",
        "n_meas",
        "ptr",
    )

    def __init__(
        self,
        policy,
        rng: np.random.Generator,
        m_slots: int,
        score_deadline: Optional[float],
        loss_definition: str,
        warmup: float,
        total_time: float,
        arr_t: List[float],
        arr_s: List[int],
        instrumented: bool,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.policy = policy
        traits = kernel_traits(policy)
        self.traits = traits
        self.m_slots = m_slots
        self.m_f = float(m_slots)
        self.discard_deadline = policy.discard_deadline
        self.k_f = (
            float(policy.discard_deadline)
            if policy.discard_deadline is not None
            else math.inf
        )
        self.score_deadline = score_deadline
        self.sdl_f = float(score_deadline) if score_deadline is not None else math.inf
        self.warmup = float(warmup)

        # The generator that produced the arrival draws keeps driving
        # the controller, in the same draw order as the reference loop.
        self.controller = ProtocolController(policy, rng=rng)

        self.arr_t = arr_t
        self.arr_s = arr_s
        self.n_arrivals = len(arr_t)
        self.total_time = float(total_time)
        self.backlog_t: List[float] = []
        self.backlog_i: List[int] = []
        self.stuck_i: List[int] = []
        self._prepare_sprint(self.total_time, traits)

        if instrumented:
            self.registry = registry if registry is not None else MetricsRegistry()
            self.ob = ObsBuffers()
        else:
            self.registry = None
            self.ob = None
        fate = np.zeros(self.n_arrivals, dtype=np.int8)
        tx_start = np.full(self.n_arrivals, np.nan)
        process_start_of = np.full(self.n_arrivals, np.nan)
        self.ctx = EpochContext(
            self.controller,
            self.m_slots,
            self.discard_deadline,
            self.score_deadline,
            loss_definition == "true",
            self.warmup,
            self.arr_t,
            self.arr_s,
            self.backlog_t,
            self.backlog_i,
            self.stuck_i,
            fate,
            tx_start,
            process_start_of,
            LaneWaits(self),
            self.ob,
        )

        # Seed the hot state.
        self.now = 0.0
        self.frontier = 0.0
        self.idle = 0.0
        self.coll = 0.0
        self.tx = 0.0
        self.wait = 0.0
        self.upcoming = self.arr_t[0] if self.arr_t else math.inf
        self.const = traits.const_length
        self.covers = traits.covers_backlog
        self.steady = traits.steady_skippable
        self.entry_ok = traits.entry_discard_ok
        # Lanes whose length rule has no closed form drive the real
        # controller from slot zero (its fresh state is already (∅, 0)).
        self.vec = traits.closed_form
        self.wcount = 0
        self.wtrue = 0.0
        self.wpaper = 0.0
        self.on_time = 0
        self.late = 0
        self.disc = 0
        self.n_meas = 0
        self.ptr = 0

    # -- steady-state sprint -------------------------------------------------

    def _prepare_sprint(self, total_time: float, traits) -> None:
        """Precompute the arrival-axis tables the sprint loop walks.

        In the happy steady state every event is *jump to the next
        arrival, deliver it on one slot*.  With an integer transmission
        length the clock only ever advances by integers, and for an
        integer-valued float ``prev`` with ``0 <= prev <= u`` the
        subtraction ``u - prev`` is exact (the difference's bits span at
        most 53 positions), so the kernel's ``prev + ceil(u - prev)``
        equals ``ceil(u)`` *bitwise* — the jump recurrence decouples and
        every landing instant, wait value, and isolation predicate can
        be precomputed on the arrival axis in one NumPy pass.  Arrival
        ``p`` is *isolated* when the lane was ready before it
        (``u_p > ceil(u_{p-1}) + m``), it is alone in its landing slot
        (``u_{p+1} > ceil(u_p)``), and the landing is inside the
        horizon.  The window checks reduce to per-lane constants: the
        pre-jump span is ``min(m, K)`` and the landing span exactly
        ``1.0`` (the clamp ``max(c-1, c-K)`` returns the representable
        bound ``c-1`` for any ``K >= 1``), so coverability folds into
        the one-time gate below.  Lanes with fractional transmission
        lengths or awkward sub-``m`` fractional deadlines simply skip
        the sprint and stay on the phased rounds.
        """
        m_f = float(self.m_slots)
        kk = self.discard_deadline
        axis = (
            traits.closed_form
            and traits.steady_skippable
            and traits.entry_discard_ok
            and self.n_arrivals > 0
            and m_f.is_integer()
            and (
                kk is None
                or kk >= m_f
                or (kk >= 1.0 and float(kk).is_integer())
            )
        )
        if axis:
            meas_jump = m_f if (kk is None or kk >= m_f) else float(kk)
            covers = traits.covers_backlog
            const = traits.const_length
            axis = (covers or (const is not None and const >= meas_jump)) and (
                covers or (const is not None and const >= 1.0)
            )
        if not axis:
            self.ceil_t = None
            self.true_t = None
            self.iso = None
            return
        arr = np.asarray(self.arr_t, dtype=np.float64)
        c = np.ceil(arr)
        self.ceil_t = c.tolist()
        self.true_t = (c - arr).tolist()
        n = self.n_arrivals
        iso = np.empty(n, dtype=bool)
        iso[0] = False  # the run's first event is validated dynamically
        if n > 1:
            iso[1:] = arr[1:] > c[:-1] + m_f  # lane ready before arrival
            iso[:-1] &= arr[1:] > c[:-1]  # alone in its landing slot
        iso &= c < total_time  # landing inside the horizon
        self.iso = iso.tolist()

    def sprint(self) -> None:
        """Drain this lane's run of isolated arrivals in pure Python.

        The caller (:meth:`advance_round`) has already established the
        jump preconditions — VEC mode, empty backlog, positive-measure
        coverable window — so this validates only the parts of the
        first jump+success pair the precomputed tables cannot know
        (any failed condition defers the lane, untouched, to the
        phased round), then walks the precomputed isolation mask:
        per event only the Welford updates are inherently sequential,
        and plain float arithmetic beats NumPy's per-op dispatch by a
        wide margin.  Every accumulator update is
        an exact integer-valued float sum, so batching them locally and
        storing once is bit-identical to the per-event stores.
        """
        iso = self.iso
        if iso is None:
            return
        arrl = self.arr_t
        n = self.n_arrivals
        p = self.ptr
        if p >= n:
            return
        now = self.now
        u = arrl[p]
        if u <= now:
            return  # due arrival: the phased ingest must run first
        tot = self.total_time
        kf = self.k_f
        covers = self.covers
        const = self.const
        stop = u if u < tot else tot
        sk0 = math.ceil(stop - now)
        new_now = now + sk0
        if new_now >= tot:
            return  # dying jump: the phased round applies it
        nxt = arrl[p + 1] if p + 1 < n else math.inf
        if nxt <= new_now:
            return  # arrival cluster at the landing slot
        new_fr = new_now - 1.0
        lo2 = max(new_fr, new_now - kf)
        meas2 = new_now - lo2
        if not (
            meas2 > _EPS
            and (covers or (const is not None and const >= meas2))
            and u >= lo2
        ):
            return
        warmup = self.warmup
        sdl_f = self.sdl_f
        m = self.m_f
        cl = self.ceil_t
        tl = self.true_t
        ob = self.ob
        wc = self.wcount
        wt = self.wtrue
        wp = self.wpaper
        ot = 0
        lt = 0
        nm = 0
        idle_acc = 0.0
        tx_acc = 0.0
        # The entry event (dynamic state; new_now == ceil(u) by the
        # decoupling argument, keeping the iso mask's premises true).
        idle_acc += sk0
        tv = new_now - u
        # tx and process start coincide at the epoch instant and
        # tv >= 0, so both loss definitions observe the same value.
        if u >= warmup:
            wc += 1
            d = tv - wt
            wt += d / wc
            d = tv - wp
            wp += d / wc
            if tv > sdl_f:
                lt += 1
            else:
                ot += 1
            nm += 1
        tx_acc += m
        if ob is not None:
            ob.ff_skips.append(sk0)
            ob.epochs += 1
            ob.backlog_sizes.append(1)
            ob.window_sizes.append(meas2)
        last_fr = new_now
        prev_now = new_now + m
        p += 1
        if ob is None:
            # The tight loop, with the instrumentation branch hoisted
            # out entirely — this is where steady-state runs spend their time.
            p, prev_now, last_fr, idle_d, tx_d, wc, wt, wp, ot_d, lt_d, nm_d = (
                self._sprint_walk(
                    arrl, cl, tl, iso, p, n, prev_now, last_fr,
                    warmup, sdl_f, m, kf, tot, wc, wt, wp,
                )
            )
            idle_acc += idle_d
            tx_acc += tx_d
            ot += ot_d
            lt += lt_d
            nm += nm_d
        else:
            while p < n and iso[p]:
                u = arrl[p]
                c = cl[p]
                skf = c - prev_now
                idle_acc += skf
                tv = tl[p]
                if u >= warmup:
                    wc += 1
                    d = tv - wt
                    wt += d / wc
                    d = tv - wp
                    wp += d / wc
                    if tv > sdl_f:
                        lt += 1
                    else:
                        ot += 1
                    nm += 1
                tx_acc += m
                ob.ff_skips.append(int(skf))
                ob.epochs += 1
                ob.backlog_sizes.append(1)
                ob.window_sizes.append(1.0)
                last_fr = c
                prev_now = c + m
                p += 1
        self.now = prev_now
        self.frontier = last_fr
        self.ptr = p
        self.upcoming = arrl[p] if p < n else math.inf
        self.idle += idle_acc
        self.tx += tx_acc
        self.wcount = wc
        self.wtrue = wt
        self.wpaper = wp
        if ot:
            self.on_time += ot
        if lt:
            self.late += lt
        if nm:
            self.n_meas += nm

    @staticmethod
    def _sprint_walk(
        arrl, cl, tl, iso, p, n, prev_now, last_fr, warmup, sdl_f, m,
        kf, tot, wc, wt, wp,
    ):
        """The uninstrumented mask walk, one epoch per event.

        A staticmethod over plain scalars and sequences so the compiled
        backend can swap in an ``@njit`` twin operating on the NumPy
        views of the same tables — the float operation sequence is
        identical either way, so the results are bit-equal.

        Two event shapes run inline; anything else exits to the rounds:

        * an *isolated* arrival (``iso[p]``): jump to its landing slot,
          deliver on one slot — the precomputed tables' case.  The
          static ready-before premise is replaced by the dynamic
          ``u > prev_now`` so the walk stays valid after busy events
          (``prev_now`` remains integer-valued, so the ceil decoupling
          argument of :meth:`_prepare_sprint` is unchanged).
        * a *busy* arrival (``u <= prev_now``: it landed during the
          predecessor's transmission and is due the instant the lane
          is ready): the inlined single-success epoch, exactly
          :meth:`advance_round`'s ``succ_epoch`` path.  Its window
          preconditions are static under the sprint gate — the span is
          ``prev_now − last_fr = m`` clamped to ``min(m, K)``, the
          measure the gate already proved coverable — leaving only the
          dynamic checks: it is the *only* due arrival, the horizon is
          not reached, and the message is inside the clamped window
          (``u >= lo``, which also makes the element-4 cut a no-op).
        """
        ot = 0
        lt = 0
        nm = 0
        idle_acc = 0.0
        tx_acc = 0.0
        while p < n:
            u = arrl[p]
            if u > prev_now:
                if not iso[p]:
                    break
                c = cl[p]
                idle_acc += c - prev_now
                tv = tl[p]
                if u >= warmup:
                    wc += 1
                    d = tv - wt
                    wt += d / wc
                    d = tv - wp
                    wp += d / wc
                    if tv > sdl_f:
                        lt += 1
                    else:
                        ot += 1
                    nm += 1
                tx_acc += m
                last_fr = c
                prev_now = c + m
                p += 1
            else:
                if p + 1 < n and arrl[p + 1] <= prev_now:
                    break  # >= 2 due arrivals: the general epoch
                if prev_now >= tot:
                    break  # the horizon check belongs to the rounds
                pk = prev_now - kf
                lo = last_fr if last_fr >= pk else pk
                if u < lo:
                    break  # outside the clamped window: discard path
                tv = prev_now - u
                if u >= warmup:
                    wc += 1
                    d = tv - wt
                    wt += d / wc
                    d = tv - wp
                    wp += d / wc
                    if tv > sdl_f:
                        lt += 1
                    else:
                        ot += 1
                    nm += 1
                tx_acc += m
                last_fr = prev_now
                prev_now = prev_now + m
                p += 1
        return p, prev_now, last_fr, idle_acc, tx_acc, wc, wt, wp, ot, lt, nm

    # -- scalar helpers (the uncommon paths) --------------------------------

    def ingest(self, now_f: float) -> None:
        arr_t = self.arr_t
        n = self.n_arrivals
        p = self.ptr
        backlog_t = self.backlog_t
        backlog_i = self.backlog_i
        warmup = self.warmup
        measured = 0
        while p < n and arr_t[p] <= now_f:
            t = arr_t[p]
            backlog_t.append(t)
            backlog_i.append(p)
            if t >= warmup:
                measured += 1
            p += 1
        self.ptr = p
        if measured:
            self.n_meas += measured
        self.upcoming = arr_t[p] if p < n else math.inf

    def _cut(self, now_f: float) -> None:
        """Element-4 discard of over-age backlog (same as execute_epoch)."""
        deadline = self.discard_deadline
        if deadline is None:
            return
        backlog_t = self.backlog_t
        cut = bisect_left(backlog_t, now_f - deadline)
        if cut:
            backlog_i = self.backlog_i
            arr_t = self.arr_t
            warmup = self.warmup
            fate = self.ctx.fate
            dropped = 0
            for index in backlog_i[:cut]:
                fate[index] = DISCARDED
                if arr_t[index] >= warmup:
                    dropped += 1
            if dropped:
                self.disc += dropped
            del backlog_t[:cut]
            del backlog_i[:cut]

    def vec_epoch(self, now_f: float) -> None:
        """One decision epoch from the closed-form state (∅, F).

        Replicates the reference epoch's float arithmetic exactly:
        the clamp is ``max``, the measure one subtraction (the same op
        ``IntervalSet.measure`` performs on a single interval), and a
        whole-window selection returns the interval verbatim with no
        RNG draw for any position rule.
        """
        frontier = self.frontier
        deadline = self.discard_deadline
        if deadline is None:
            lo = frontier
        else:
            horizon = now_f - deadline
            lo = horizon if frontier < horizon else frontier
        meas = now_f - lo
        ob = self.ob
        if ob is not None:
            ob.epochs += 1
            ob.backlog_sizes.append(len(self.backlog_t))
        if meas <= _EPS:
            # begin_process would return None (measure zero ⇔ now == F,
            # so advance_time was a no-op and the set stays empty); the
            # element-4 cut still runs before the None branch.
            self._cut(now_f)
            self.wait += 1.0
            self.now = now_f + 1.0
            return
        if not (
            self.covers or (self.const is not None and self.const >= meas)
        ):
            # Window shorter than the span: the real split machinery.
            self._materialize(frontier)
            self._gen_epoch(now_f)
            return
        # The window is the whole span [lo, now); membership is t >= lo.
        # The cut removes t < now−K ≤ lo only, so the in-window count is
        # cut-invariant and can gate the closed form before any mutation.
        backlog_t = self.backlog_t
        n_in = len(backlog_t) - bisect_left(backlog_t, lo)
        if n_in >= 2:
            self._materialize(frontier)
            self._gen_epoch(now_f)
            return
        self._cut(now_f)
        if ob is not None:
            ob.window_sizes.append(meas)
        if n_in == 0:
            # One full-window idle examination resolves everything.
            self.idle += 1.0
            self.frontier = now_f
            self.now = now_f + 1.0
            return
        # Exactly one in-window message: SUCCESS on the first slot.
        backlog_i = self.backlog_i
        pos = len(backlog_t) - 1  # in-window ⇒ newest of the sorted backlog
        index = backlog_i[pos]
        t0 = backlog_t[pos]
        del backlog_t[pos]
        del backlog_i[pos]
        m = self.m_slots
        self.tx += m
        self.frontier = now_f
        self.now = now_f + m
        ctx = self.ctx
        true_value = now_f - t0
        paper_value = max(0.0, now_f - t0)
        wait = true_value if ctx.true_definition else paper_value
        sdl = self.score_deadline
        late = sdl is not None and wait > sdl
        ctx.fate[index] = LATE if late else ON_TIME
        ctx.tx_start[index] = now_f
        ctx.process_start_of[index] = now_f
        if t0 >= self.warmup:
            if late:
                self.late += 1
            else:
                self.on_time += 1
            ctx.waits.observe(true_value, paper_value)

    def succ_epoch(self, now_f: float, meas: float) -> None:
        """Single-message SUCCESS epoch, the steady state of the rounds.

        Same arithmetic as :meth:`vec_epoch`'s one-in-window branch with
        the preconditions (VEC, backlog of exactly one in-window
        message, full-cover window, head not over-age so the element-4
        cut is a no-op) already established by the caller.  The fate /
        tx-start buffers are not written here: they are diagnostic
        arrays that no scored quantity reads back, exactly as in the
        reference kernel's own fast-forward shortcuts.
        """
        backlog_t = self.backlog_t
        t0 = backlog_t[0]
        true_value = now_f - t0
        m = self.m_f
        self.tx += m
        self.frontier = now_f
        self.now = now_f + m
        if t0 >= self.warmup:
            wc = self.wcount + 1
            self.wcount = wc
            delta = true_value - self.wtrue
            self.wtrue += delta / wc
            paper_value = max(0.0, true_value)
            delta = paper_value - self.wpaper
            self.wpaper += delta / wc
            if true_value > self.sdl_f:
                self.late += 1
            else:
                self.on_time += 1
        backlog_t.clear()
        self.backlog_i.clear()
        ob = self.ob
        if ob is not None:
            ob.epochs += 1
            ob.backlog_sizes.append(1)
            ob.window_sizes.append(meas)

    def step(self) -> None:
        now_f = self.now
        if self.vec:
            self.vec_epoch(now_f)
        else:
            self.gen_step(now_f)

    def advance_round(self) -> bool:
        """One fused round of this lane; returns whether it stays live.

        Executes, in order: ingest of due arrivals; a steady-state
        sprint when eligible (zero or more jump+success events drained,
        see :meth:`sprint`); the idle fast-forward jump; a second ingest
        if the jump landed on an arrival; then one decision epoch (the
        inlined single-success form when its preconditions hold, else
        the general dispatch).  That is one or more iterations of the
        sequential kernel's loop, in the same event order.
        """
        now = self.now
        tot = self.total_time
        if self.upcoming <= now:
            self.ingest(now)

        # -- steady-state sprint + idle fast-forward jump ----------------
        if self.vec and not self.backlog_t and self.entry_ok:
            lo = max(self.frontier, now - self.k_f)
            meas = now - lo
            jump = meas > _EPS and (
                self.covers or (self.const is not None and self.const >= meas)
            )
            if jump and self.steady:
                self.sprint()
                now = self.now
                if now >= tot:
                    return False
                # Sprint exits may have landed on (or past) due arrivals.
                if self.upcoming <= now:
                    self.ingest(now)
                if self.vec and not self.backlog_t and self.entry_ok:
                    lo = max(self.frontier, now - self.k_f)
                    meas = now - lo
                    jump = meas > _EPS and (
                        self.covers
                        or (self.const is not None and self.const >= meas)
                    )
                else:
                    jump = False
            if jump:
                # Closed form of try_fast_forward: clamp, measure,
                # full-window test, ceil to the next arrival — identical
                # arithmetic, no controller objects touched.
                stop = min(self.upcoming, tot)
                skipped = math.ceil(stop - now) if self.steady else 1.0
                new_now = now + skipped
                self.idle += skipped
                self.frontier = new_now - 1.0
                self.now = new_now
                if self.ob is not None:
                    self.ob.ff_skips.append(int(skipped))
                now = new_now
                # A jump lands at (or past) the next arrival: ingest it
                # and fall through to this round's epoch, fusing the two
                # sequential iterations into one pass.
                if now < tot and self.upcoming <= now:
                    self.ingest(now)

        # -- decision epoch ----------------------------------------------
        if now >= tot:
            return False
        # Inlined single-message SUCCESS epoch: VEC lane, backlog of
        # exactly one in-window message, full-cover window.  This is the
        # steady state at the paper's operating points.
        backlog_t = self.backlog_t
        if self.vec and len(backlog_t) == 1:
            lo = max(self.frontier, now - self.k_f)
            meas = now - lo
            if (
                meas > _EPS
                and (self.covers or (self.const is not None and self.const >= meas))
                and backlog_t[0] >= lo
            ):
                self.succ_epoch(now, meas)
                return self.now < tot
        self.step()
        return self.now < tot

    def finalize(self) -> MACSimResult:
        arr_t = self.arr_t
        warmup = self.warmup
        unresolved_count = sum(
            1 for index in self.backlog_i if arr_t[index] >= warmup
        ) + sum(1 for index in self.stuck_i if arr_t[index] >= warmup)
        stats = ChannelStats(
            idle_slots=float(self.idle),
            collision_slots=float(self.coll),
            transmission_slots=float(self.tx),
            wait_slots=float(self.wait),
        )
        wcount = self.wcount
        result = MACSimResult(
            arrivals=int(self.n_meas),
            delivered_on_time=int(self.on_time),
            delivered_late=int(self.late),
            discarded=int(self.disc),
            unresolved=unresolved_count,
            mean_true_wait=float(self.wtrue) if wcount else math.nan,
            mean_paper_wait=float(self.wpaper) if wcount else math.nan,
            channel=stats,
            deadline=self.score_deadline,
        )
        if self.registry is not None:
            self.ob.flush(self.registry)
            flush_result_metrics(self.registry, result)
        return result

