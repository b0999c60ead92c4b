"""Record the reference verdict rows of every workload input.

    python3 bench/record_reference.py [WORKLOAD ...]

Run it from the root of a checkout whose verdicts are known to be right;
the benchmark then counts every row that differs from these as failed.
Each workload gets one file in bench/reference/, holding, for each argument
list a seed can produce, the exit status, the report summary and one
digest per verdict row.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run
import verdicts


def record(workload: str) -> None:
    table = {}
    for seed in range(len(run.LARGE_PRIME_WINDOWS)):
        argv = run.WORKLOADS[workload](seed)
        key = " ".join(argv)
        if key in table:
            continue
        child = run.spawn(run.cli_cmd(argv), perf_counter() + 600)
        rows = verdicts.report_digests(child.stdout)
        table[key] = {"exit": child.exit,
                      "summary": json.loads(child.stdout)[-1]["summary"],
                      "rows": rows}
        print(f"{workload}: congrlab {key}: exit {child.exit}, {len(rows)} rows, "
              f"{child.wall_s:.1f} s")
    verdicts.reference_path(workload).write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or run.WORKLOADS:
        record(name)
