#!/usr/bin/env python3
"""Record the stdout digests of the default seed into ``golden.json``.

    python3 perfbench/record_golden.py

Runs the CLI once on every case of every workload at the default seed,
at both scales, and refuses to record an output the checker rejects.
Re-record only when an output change is intended: the digests are what
holds the CLI to byte-identical output, tie-breaks included.
"""

from __future__ import annotations

import json
import shutil
import sys

import checker
import families
from harness import DEFAULT_SEED, GOLDEN, OUT, Spawner, digest, require_source, write_case


def main() -> int:
    require_source()
    golden: dict = {"seed": DEFAULT_SEED}
    for scale in families.SCALES:
        golden[scale] = {}
        for workload in families.WORKLOADS:
            work = OUT / "golden" / f"{scale}-{workload}"
            if work.exists():
                shutil.rmtree(work)
            work.mkdir(parents=True)
            digests = []
            with Spawner(work) as spawner:
                for index, case in enumerate(families.build_pool(workload, DEFAULT_SEED, scale)):
                    argv, _ = write_case(case, work, index)
                    call = spawner.run(argv)
                    if call.failure():
                        raise SystemExit(f"{workload} {case.label}: {call.failure()}")
                    checker.check(case, call.stdout)
                    digests.append(digest(call.stdout))
            golden[scale][workload] = digests
            print(f"{scale} {workload}: {len(digests)} digests")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
