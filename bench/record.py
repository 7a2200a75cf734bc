#!/usr/bin/env python3
"""Record the job pool of every workload and the output each job produces.

    python3 bench/record.py

Writes ``bench/reference.json``: for each workload and template, the pool of
argv lists drawn by ``workloads.make_pool`` and the stdout the program gave
for each.  Run it only when the pool definition changes; benchmark runs
compare every job's output with this file.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    cli = run.import_program()
    reference = {}
    for workload in workloads.WORKLOADS.values():
        reference[workload.name] = {}
        for template, argvs in workloads.make_pool(workload).items():
            entries = []
            for argv in argvs:
                code, seconds, out, err = run.run_job(cli, argv)
                if code != 0:
                    print(f"{' '.join(argv)} exited {code}: {err}", file=sys.stderr)
                    return 1
                print(f"{seconds * 1e3:8.1f} ms  {' '.join(argv)}", file=sys.stderr)
                entries.append({"argv": argv, "stdout": out})
            reference[workload.name][template] = entries
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
