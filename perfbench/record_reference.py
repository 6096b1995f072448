"""Record the reference outputs that ``check.py`` compares runs against.

    python3 perfbench/record_reference.py

Runs every workload at every size once per reference seed, through the same
single-threaded child process as the benchmark, and writes
``reference/<workload>-<size>.json``. Record only at a commit whose outputs
are known to be right: the benchmark counts every later run that differs by
more than ``check.RTOL`` as failed.
"""

from __future__ import annotations

import json
import shutil
import sys

import check
from run import WORK_DIR, launch
from workloads import REFERENCE_SEEDS, SIZES, WORKLOADS, make_config


def record(workload: str, size: str) -> None:
    work = WORK_DIR / f"record-{workload}-{size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    seeds = {}
    try:
        for seed in range(REFERENCE_SEEDS):
            cfg = make_config(workload, size, seed)
            config = work / f"config{seed}.json"
            config.write_text(json.dumps(cfg), encoding="utf-8")
            out = work / f"out{seed}"
            result = launch(config, out, work / f"result{seed}.json")
            if not result or result["rc"] != 0:
                raise SystemExit(f"{workload} {size} seed {seed}: run failed")
            rows, report = check.read_outputs(out)
            problems = check.invariant_problems(rows, report, cfg)
            if problems:
                raise SystemExit(f"{workload} {size} seed {seed}: {problems}")
            seeds[str(seed)] = check.make_reference_entry(rows, report)
            print(f"{workload} {size} seed {seed}: {result['wall_s']:.2f} s",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(check.reference_path(workload, size), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "size": size, "rtol": check.RTOL,
                   "seeds": seeds}, fh, separators=(",", ":"))
        fh.write("\n")


def main() -> None:
    for workload in sorted(WORKLOADS):
        for size in SIZES:
            record(workload, size)


if __name__ == "__main__":
    main()
