"""Benchmark driver: run one workload for a fixed time and check it.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload figure7_m100 --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --trace 1

A run is :data:`SETUPS` set-ups in a row.  Each set-up is a fresh
interpreter (``zygote.py``) that imports the package once and then forks
repetitions of the timed call, one at a time, each with a private, empty
``REPRO_CACHE_DIR`` and journal directory under ``.perfbench_work/``
(removed afterwards), until its share of ``--seconds`` is used.  A fixed
host probe is timed between each two repetitions on the same CPU; the
``adj_*`` metrics and ``setup_s`` scale the measured times by it, so
that they follow the code rather than the load other tenants put on a
shared host.
With ``--trace 1`` every second repetition is traced and the per-layer
metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the noise record (every sample, its quartiles and the host probe).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # stdlib only; the package is imported by zygote.py

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters per run; ``setup_s`` is the median over them.
SETUPS = 6
#: A run, its set-up included, must end well inside this many seconds.
RUN_LIMIT_S = 170.0
REL_TOL = 1e-9      # the golden Figure-7 pins' tolerance
ABS_TOL = 1e-15
#: About the host probe's median on a quiet stretch of the host the
#: benchmark was built on (s).  The ``adj_*`` metrics and ``setup_s``
#: scale a time by this over the probe measured next to it, raised to
#: :data:`PROBE_ELASTICITY` (see README.md, "Noise").
PROBE_REF_S = 0.035
#: Over twenty 60-second runs of the two gated workloads on that host,
#: the run median of the package's time rose as the 0.73-0.83 power of
#: the probe's (correlation 0.95-0.98): the probe slows a little more.
PROBE_ELASTICITY = 0.8


def tail(values):
    """(percentile, value): the highest percentile with ten samples above it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4, method="inclusive")


#: Printed next to the scaled metrics: the same medians, not scaled.
UNADJUSTED = {"wall_s": "s", "cpu_s": "s", "sim_slots_per_s": "slots/s",
              "raw_setup_s": "s"}


def adjusted(record: dict, key: str, probe_s: float = None) -> float:
    """``record[key]`` scaled to the reference host speed by the probe
    around the repetition, or by ``probe_s``."""
    probe_s = record["probe_s"] if probe_s is None else probe_s
    return record[key] * (PROBE_REF_S / probe_s) ** PROBE_ELASTICITY


def child_env(work: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_NO_CACHE", None)
    env.update(
        # Inside the run's work directory; each repetition sets its own.
        REPRO_CACHE_DIR=os.path.join(work, "cache"),
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def stop_group(proc: subprocess.Popen) -> None:
    """Kill the set-up's process group and wait until all of it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(job: dict, timeout: float):
    """Run one set-up; returns (its repetition records, exit status)."""
    job = dict(job, launched=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "zygote.py"), json.dumps(job)],
        env=child_env(job["work"]), cwd=str(ROOT), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 5.0))
    except subprocess.TimeoutExpired:
        stop_group(proc)
        out, err = proc.communicate()
        print(f"{job.get('workload')}: set-up timed out", file=sys.stderr)
    stop_group(proc)
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            pass  # a half-written line from a killed set-up
    for record in records:
        if "error" in record:
            sys.stderr.write(record["error"][-4000:])
    return records, proc.returncode


# -- correctness ---------------------------------------------------------------


def check(name: str, seed: int, outputs: dict, reference: dict):
    """Compare one repetition's outputs with the reference; (ops, failed)."""
    if name in workloads.PANELS:
        ref = reference[name]
        ops = failed = 0
        for series, points in ref["analytic"].items():
            got = outputs["analytic"].get(series, [])
            ops += len(points)
            failed += abs(len(got) - len(points))
            for (k, value), (k_got, value_got) in zip(points, got):
                if k != k_got or not math.isclose(
                    value, value_got, rel_tol=REL_TOL, abs_tol=ABS_TOL
                ):
                    failed += 1
        expected = ref["sim_counts"][str(workloads.variant(seed))]
        got = outputs["sim_counts"]
        ops += len(expected)
        failed += abs(len(got) - len(expected))
        failed += sum(1 for a, b in zip(expected, got) if a != b)
        ops += 1  # no quarantine hole or replay note on the panel
        failed += 1 if outputs["notes"] else 0
        return ops, failed
    expected = reference["sequential"]["arms"]
    got = outputs["arms"]
    ops = len(expected) + 1  # every arm, plus the replay audit's verdict
    failed = sum(1 for label, arm in expected.items() if got.get(label) != arm)
    failed += 1 if outputs["mismatch"] else 0
    return ops, failed


def expected_ops(name: str, reference: dict) -> int:
    if name in workloads.PANELS:
        ref = reference[name]
        return (sum(len(p) for p in ref["analytic"].values())
                + len(ref["sim_counts"]["0"]) + 1)
    return len(reference["sequential"]["arms"]) + 1


# -- one workload ------------------------------------------------------------------


def sequential_stats(outputs: dict) -> dict:
    arms = list(outputs.get("arms", {}).values())
    if not arms:
        return {"stats.waves": 0, "stats.lanes_spent": 0,
                "stats.certified_arms_frac": 0.0}
    return {
        "stats.waves": max(arm[1] for arm in arms),
        "stats.lanes_spent": sum(arm[0] for arm in arms),
        "stats.certified_arms_frac":
            sum(1 for arm in arms if arm[3] == "ci-target") / len(arms),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path,
            reference: dict):
    """Run the set-ups; returns (repetition records, attempted, failed)."""
    started = time.monotonic()
    base = {"workload": name, "seed": seed, "trace": trace,
            "work": str(work), "min_repetitions": 2 if trace else 1}
    if name == "replay_audit":
        # The journal under audit, written untimed by the same code.
        source = work / "journal-source"
        _, status = spawn(dict(base, mode="journal", journal_source=str(source)),
                          RUN_LIMIT_S)
        if status != 0:
            raise RuntimeError("could not write the journal to audit")
        base["journal_source"] = str(source)
    reps = []
    attempted = failed = 0
    for setup in range(SETUPS):
        now = time.monotonic()
        share = (started + seconds - now) / (SETUPS - setup)
        records, status = spawn(
            dict(base, setup=setup, until=now + share),
            RUN_LIMIT_S - (now - started),
        )
        if status != 0 and not records:
            records = [{"error": "set-up failed"}]
        for record in records:
            if "error" in record:  # crashed: every op of it failed
                attempted += expected_ops(name, reference)
                failed += expected_ops(name, reference)
                continue
            # The host probe around the repetition, all parts together.
            record["probe_s"] = sum(map(sum, record["probe"])) / 2
            ops, bad = check(name, seed, record["outputs"], reference)
            attempted += ops
            failed += bad
            record.update(setup=setup, failed=bad > 0)
            reps.append(record)
    return reps, attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reference: dict, spec: dict):
    """Run ``name`` for ``seconds``; returns (attempted, failed, metrics, noise)."""
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reps, attempted, failed = measure(name, seed, seconds, trace, work,
                                          reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it never existed

    # Wrong outputs still time the program; they show as failed ops.
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if not plain or (trace and not traced_reps):
        raise RuntimeError(f"{name}: no repetition completed")

    first = [r for r in reps if "setup_s" in r]  # each set-up's first
    samples = {
        "adj_wall_s": [adjusted(r, "wall_s") for r in plain],
        "adj_cpu_s": [adjusted(r, "cpu_s") for r in plain],
        "adj_sim_slots_per_s": [r["slots"] / adjusted(r, "wall_s")
                                for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "sim_slots_per_s": [r["slots"] / r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        # Scaled by the probe taken right after the set-up.
        "setup_s": [adjusted(r, "setup_s", sum(r["probe"][0])) for r in first],
        "raw_setup_s": [r["setup_s"] for r in first],
        "startup.import_s": [r["import_s"] for r in first],
    }
    values = {m: statistics.median(v) for m, v in samples.items()}
    values["error_rate"] = failed / attempted
    probes = [r["probe_s"] for r in reps]
    if trace:
        layers = per_layer(spec, traced_reps, values["adj_wall_s"])
        layers["host.probe_s"] = statistics.median(probes)
        layers["startup.import_s"] = statistics.median(samples["startup.import_s"])
        values = {**layers, "error_rate": values["error_rate"]}
        samples = {"startup.import_s": samples["startup.import_s"]} | {
            metric: [r["layers"].get(metric, 0.0) for r in traced_reps]
            for metric in sorted(traced_reps[0]["layers"])
        }
        samples["traced.wall_s"] = [r["wall_s"] for r in traced_reps]
        samples["untraced.wall_s"] = [r["wall_s"] for r in plain]
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    noise = {
        "workload": name,
        "seed": seed,
        "variant": workloads.variant(seed),
        "trace": int(trace),
        "setups": SETUPS,
        "repetitions": len(reps),
        "failed_repetitions": sum(1 for r in reps if r["failed"]),
        "host.probe_s": statistics.median(probes),
        "host.probe_min_s": min(probes),
        "host.probe_ref_s": PROBE_REF_S,
        "host.probe_elasticity": PROBE_ELASTICITY,
        "host.probe_samples": probes,
        "host.probe_parts": [r["probe"] for r in reps],
        "samples": samples,
        "quartiles": {m: quartiles(v) for m, v in samples.items()},
        "tails": {m: tail(v) for m, v in samples.items()},
        "absent_layers": traced_reps[0].get("absent", []) if trace else [],
        "error_rate": values["error_rate"],
    }
    if not trace:
        noise["unadjusted"] = {
            m: {"value": values[m], "unit": unit} for m, unit in UNADJUSTED.items()
        }
    return attempted, failed, metrics, noise


def per_layer(spec: dict, traced_reps, untraced_wall: float) -> dict:
    """Median per-layer values over the traced repetitions."""
    rows = []
    for rep in traced_reps:
        row = dict(rep["layers"])
        row.update(sequential_stats(rep["outputs"]))
        kernel_s = row.get("kernel.s", 0.0)
        row["kernel.slots_per_s"] = (
            row.get("kernel.slots", 0.0) / kernel_s if kernel_s else 0.0
        )
        reads = row.get("journal.records_read", 0.0)
        row["journal.hit_frac"] = row.get("journal.hits", 0.0) / reads if reads else 0.0
        rows.append(row)
    values = {
        m["name"]: statistics.median(row.get(m["name"], 0.0) for row in rows)
        for m in spec["per_layer"]
    }
    traced_wall = statistics.median(adjusted(r, "wall_s") for r in traced_reps)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values


def print_table(name: str, metrics: dict, noise: dict) -> None:
    print(f"== {name}  seed {noise['seed']} (variant {noise['variant']})  "
          f"{noise['repetitions']} repetitions in {noise['setups']} set-ups  "
          f"host probe {noise['host.probe_s']:.4f} s")
    rows = dict(metrics) | noise.get("unadjusted", {})
    rows["error_rate"] = {"value": noise["error_rate"], "unit": "fraction"}
    for metric, entry in rows.items():
        spread = noise["quartiles"].get(metric)
        extra = ""
        if spread:
            high = noise["tails"][metric]
            high = f", p{high[0]:.0f} {high[1]:.6g}" if high else ""
            extra = (f"   [n={len(noise['samples'][metric])}: q1 {spread[0]:.6g}, "
                     f"median {spread[1]:.6g}, q3 {spread[2]:.6g}{high}]")
        print(f"  {metric:<30} {entry['value']:>16.6g} {entry['unit']:<9}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        ran, bad, values, noise = run_workload(
            name, args.seed, seconds, bool(args.trace), reference, spec)
        attempted += ran
        failed += bad
        print_table(name, values, noise)
        print(json.dumps({"noise": noise}))
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + m: v for m, v in values.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
