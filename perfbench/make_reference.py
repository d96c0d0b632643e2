"""Regenerate the stored reference values of one workload.

    python3 perfbench/make_reference.py --workload bound-d32 --seeds 24

runs every unit of the workload's pool (each trial index, or the whole
sweep) for workload seeds 0 .. N-1, checks the invariants, and writes
``perfbench/reference/<workload>.json`` with each record's checked values
and ``record_hash``.  Regenerate only when a change is meant to alter the
program's numbers, and say so: the benchmark's output check compares every
later run against this file.
"""
from __future__ import annotations

import argparse
import json
import sys

import run  # pins BLAS threads before numpy is imported
from check import invariant_problems, record_key, record_values
from workloads import NAMES, make_workload


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seeds", type=int, default=24)
    args = ap.parse_args(argv)
    gl = run.import_package()
    out_dir = run.OUT / f"reference-{args.workload}"
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = {}
    for seed in range(args.seeds):
        spec = make_workload(args.workload, seed)
        work = run.Workload(gl, spec, out_dir)
        units = range(spec["pool"]) if spec["kind"] == "trial" else range(1)
        entries = {}
        for k in units:
            for rec in work.unit(k):
                problems = invariant_problems(rec, work.expect_bound, work.expect_utility)
                if problems:
                    sys.exit(f"seed {seed} {record_key(rec)}: {problems}")
                entries[record_key(rec)] = {
                    "values": record_values(rec),
                    "record_hash": rec["record_hash"],
                }
        seeds[str(seed)] = entries
        print(f"{args.workload} seed {seed}: {len(entries)} records", file=sys.stderr)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    path = run.REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps({
        "workload": args.workload,
        "machine": run.machine_record(),
        "seeds": seeds,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
