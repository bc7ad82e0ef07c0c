"""Record the reference outputs every benchmark run is checked against.

Run from the root of a checkout whose outputs are known good::

    python3 perfbench/record.py

Writes ``perfbench/reference.json``: the analytic series of both
Figure-7 panels, every simulation point's loss counts for each input
variant, and the per-arm results of the sequential cell.  The replay
audit of the sequential journal must pass and reproduce them.
"""

import json
import shutil
import sys

import run
import workloads


def record_one(name: str, seed: int, work, **extra) -> dict:
    job = {"workload": name, "seed": seed, "trace": False, "work": str(work),
           "min_repetitions": 1, "until": 0.0, "setup": 0, **extra}
    records, status = run.spawn(job, run.RUN_LIMIT_S)
    if status != 0 or len(records) != 1 or "error" in records[0]:
        raise SystemExit(f"{name} (seed {seed}) failed")
    return records[0]["outputs"]


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = {}
    try:
        for name in workloads.PANELS:
            entry = {"sim_counts": {}}
            for v in range(workloads.VARIANTS):
                outputs = record_one(name, v, work)
                if outputs["notes"]:
                    raise SystemExit(f"{name}: unexpected notes {outputs['notes']}")
                entry["analytic"] = outputs["analytic"]
                entry["sim_counts"][str(v)] = outputs["sim_counts"]
            reference[name] = entry
        arms = record_one("sequential_ci", 0, work)["arms"]
        reference["sequential"] = {"arms": arms}
        source = work / "journal-source"
        _, status = run.spawn({"mode": "journal", "seed": 0, "work": str(work),
                               "journal_source": str(source)}, run.RUN_LIMIT_S)
        audit = record_one("replay_audit", 1, work, journal_source=str(source))
        if status != 0 or audit["mismatch"] or audit["arms"] != arms:
            raise SystemExit(f"the replay audit failed: {audit['mismatch']}")
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.HERE / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
