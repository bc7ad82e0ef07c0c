"""The four benchmark workloads: inputs, the timed public call, outputs.

Each workload is a user command against the package's public entry
points.  :func:`prepare` does what is paid once per set-up (imports and
input construction) and returns ``make(journal)``; ``make`` does what is
paid once per repetition before the timed region (the journal copy of
the replay audit) and returns a zero-argument callable.  Calling it is
the timed region, rendering included.  The callable returns ``(text,
outputs, slots)``: the rendered report, the outputs the reference check
compares, and the simulated slots (warm-up included) the command ran.

Seeds: on the Figure-7 panels the benchmark seed picks one of
:data:`VARIANTS` pre-recorded simulation seeds.  The sequential workloads
take no input from it.  Their seed root stays fixed, because the stopping
rule makes the lane count (and so the work) depend on it; and so does the
order of the arms, because it decides which arms share a batched chunk,
which made one order 10–15% slower than the others.
"""

from __future__ import annotations

import shutil
import time

#: Number of distinct input variants; ``--seed n`` selects ``n % VARIANTS``.
VARIANTS = 4

#: Figure-7 panels (ρ′ = 0.75).  ``multipliers`` scales the deadline grid
#: by M; the package's default grid is (0.5, 1, 1.5, 2, 3, 4, 6, 8, 12).
PANELS = {
    # LCFS analytic baseline dominant: its cost grows steeply with the
    # deadline, so the grid stops at 3·M and the simulation runs at half
    # the CLI horizon, to keep a repetition short.
    "figure7_m100": dict(rho=0.75, m=100, multipliers=(0.5, 1, 1.5, 2, 3),
                         horizon=40_000.0),
    # Kernel dominant: the same grid at M = 25, where the LCFS curve is
    # cheap and the simulation is busy.
    "figure7_m25": dict(rho=0.75, m=25, multipliers=(0.5, 1, 1.5, 2, 3),
                        horizon=40_000.0),
}

#: The sequential cell: ρ′ = 0.75, M = 25, K ∈ {M, 2M, 4M} × 3 protocols.
SEQUENTIAL = dict(rho=0.75, m=25, deadline_multipliers=(1, 2, 4),
                  lane_horizon=1_000.0, ci_target=0.04, max_replications=64,
                  base_seed=1)

NAMES = ("figure7_m100", "figure7_m25", "sequential_ci", "replay_audit")


def variant(seed: int) -> int:
    return seed % VARIANTS


def _import_program():
    """Import every module a workload touches (timed as start-up)."""
    from repro.core.policy import ControlPolicy
    from repro.experiments.figure7 import PanelConfig, generate_panel
    from repro.experiments.sweep import (
        MACRunSpec,
        SequentialOptions,
        SweepExecutor,
        run_sequential,
    )
    from repro.resilience import JournalMismatchError, ResilienceOptions

    return dict(
        ControlPolicy=ControlPolicy, PanelConfig=PanelConfig,
        generate_panel=generate_panel, MACRunSpec=MACRunSpec,
        SequentialOptions=SequentialOptions, SweepExecutor=SweepExecutor,
        run_sequential=run_sequential,
        JournalMismatchError=JournalMismatchError,
        ResilienceOptions=ResilienceOptions,
    )


def prepare(name: str, seed: int, journal_source=None):
    """Set up workload ``name``; returns ``(make, import_s)``.

    ``make(journal)`` takes the repetition's private, not yet existing
    journal directory and returns the timed callable.  For
    ``replay_audit``, ``journal_source`` is the journal a sequential run
    wrote; ``make`` copies it to ``journal``, so every audit starts from
    an untouched copy.
    """
    start = time.perf_counter()
    api = _import_program()
    import_s = time.perf_counter() - start
    if name in PANELS:
        call = _panel_call(api, PANELS[name], seed)
        return (lambda journal: call), import_s
    if name == "sequential_ci":
        return (lambda journal: _sequential_call(api, journal, False)), import_s
    if name == "replay_audit":
        def make(journal):
            shutil.copytree(journal_source, journal)
            return _sequential_call(api, journal, True)

        return make, import_s
    raise ValueError(f"unknown workload {name!r}")


def _panel_call(api, panel: dict, seed: int):
    m = panel["m"]
    config = api["PanelConfig"](rho_prime=panel["rho"], message_length=m)
    deadlines = [m * mult for mult in panel["multipliers"]]
    horizon = panel["horizon"]
    sim_seed = 1 + variant(seed)
    executor_cls = api["SweepExecutor"]

    def call():
        # Capture the simulation results on their way back to the panel,
        # so the check can compare loss counts rather than rounded rates.
        captured = []
        run_specs = executor_cls.run_specs

        def capturing(self, specs):
            results = run_specs(self, specs)
            captured.append((list(specs), results))
            return results

        executor_cls.run_specs = capturing
        try:
            result = api["generate_panel"](
                config,
                deadlines=deadlines,
                include_simulation=True,
                sim_horizon=horizon,
                sim_warmup=horizon * 0.125,
                sim_seed=sim_seed,
                workers=None,
            )
            text = result.to_table()
        finally:
            executor_cls.run_specs = run_specs
        analytic = {
            name: [[p.deadline, p.loss] for p in result.series[name].points]
            for name in ("controlled_analytic", "fcfs_analytic", "lcfs_analytic")
        }
        counts = []
        slots = 0.0
        for specs, results in captured:
            for spec, run in zip(specs, results):
                slots += spec.horizon + spec.warmup
                counts.append(None if run is None else [
                    run.arrivals, run.delivered_on_time, run.delivered_late,
                    run.discarded, run.unresolved,
                ])
        outputs = {"analytic": analytic, "sim_counts": counts,
                   "notes": list(result.notes)}
        return text, outputs, slots

    return call


def sequential_arms(api):
    """The nine labelled arms, protocol by protocol."""
    cell = SEQUENTIAL
    m = cell["m"]
    lam = cell["rho"] / m
    policy = api["ControlPolicy"]
    protocols = (
        ("controlled", lambda k: policy.optimal(k, lam, None)),
        ("fcfs", lambda k: policy.uncontrolled_fcfs(lam)),
        ("lcfs", lambda k: policy.uncontrolled_lcfs(lam)),
    )
    horizon = cell["lane_horizon"]
    arms = [
        (f"{name}.k{m * mult}", api["MACRunSpec"](
            policy=factory(m * mult), arrival_rate=lam, transmission_slots=m,
            horizon=horizon, warmup=horizon * 0.125, deadline=m * mult,
            seed=cell["base_seed"],
        ))
        for name, factory in protocols
        for mult in cell["deadline_multipliers"]
    ]
    return arms


def _sequential_call(api, journal: str, audit: bool):
    """``run_sequential`` checkpointed to ``journal``; ``audit`` resumes
    it with ``verify_replay`` (every lane recomputed and compared)."""
    cell = SEQUENTIAL
    arms = sequential_arms(api)
    options = api["SequentialOptions"](
        ci_target=cell["ci_target"], max_replications=cell["max_replications"],
        method="wilson", spending="obf", crn=True,
    )
    resilience = api["ResilienceOptions"](
        checkpoint=journal, resume=audit, verify_replay=audit, max_retries=2,
    )
    lane_slots = cell["lane_horizon"] * 1.125

    def call():
        executor = api["SweepExecutor"](None, resilience)
        mismatch = None
        try:
            estimates = api["run_sequential"](
                arms, options, executor, base_seed=cell["base_seed"]
            )
        except api["JournalMismatchError"] as error:
            mismatch, estimates = str(error), []
        lines = [f"{'arm':<16} {'lanes':>5} {'waves':>5} {'mean':>8} "
                 f"{'half-width':>10}  reason"]
        lines += [
            f"{e.label:<16} {e.lanes:>5} {e.waves:>5} {e.mean:>8.4f} "
            f"{e.half_width:>10.4f}  {e.reason}"
            for e in estimates
        ]
        arms_out = {
            e.label: [e.lanes, e.waves, e.mean, e.reason, e.quarantined]
            for e in estimates
        }
        outputs = {"arms": arms_out, "mismatch": mismatch}
        slots = sum(e.lanes for e in estimates) * lane_slots
        return "\n".join(lines), outputs, slots

    return call
