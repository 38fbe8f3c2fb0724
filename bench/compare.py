"""Compare two benchmark records job by job.

    python3 bench/compare.py A.json B.json

A and B are records that run.py wrote under ``.bench_out/results/``, made
with the same workload and seed (for instance on two commits).  Prints
every job whose stdout digest differs, or that only one record has, then
the metrics of both.  Exits with 1 when any digest differs: the CLI
promises byte-identical output for identical invocations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def differing_jobs(a: dict, b: dict) -> list[str]:
    lines = []
    for job in sorted(set(a["jobs"]) | set(b["jobs"])):
        if job not in a["jobs"]:
            lines.append(f"only in B: {job}")
        elif job not in b["jobs"]:
            lines.append(f"only in A: {job}")
        elif a["jobs"][job]["digest"] != b["jobs"][job]["digest"]:
            lines.append(f"digest differs: {job}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print("warning: the records come from different workloads or seeds", file=sys.stderr)
    lines = differing_jobs(a, b)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(set(a['jobs']) | set(b['jobs']))} jobs differ")
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        print(f"{name:45} {a['metrics'].get(name)!s:>22} {b['metrics'].get(name)!s:>22}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
