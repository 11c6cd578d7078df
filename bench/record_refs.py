#!/usr/bin/env python3
"""Record the reference outputs of every op any workload seed can draw.

    python3 bench/record_refs.py [workload ...]

Runs each pool op once through the same harness as the benchmark and writes
``bench/refs/<workload>.json.gz``.  References are recorded once, from the
commit that defined the benchmark; later commits are checked against them.
Any op that exits nonzero aborts the recording, since workloads must be made
of ops that succeed.
"""

import sys
import tempfile
import time
from pathlib import Path

import check
import run


def record(workload: str) -> dict:
    from amdp_lab import cli

    with tempfile.TemporaryDirectory(dir=run.RUN_DIR) as tmp:
        ops, replacements = run.prepare(workload, None, Path(tmp))
        refs = {}
        start = time.perf_counter()
        for i, op in enumerate(ops):
            _, got, _ = run.run_op(cli, op, replacements)
            if got["rc"] != 0:
                raise run.BenchError(f"{op.key} exited {got['rc']}: {got['stdout'][-300:]}")
            refs[op.key] = got
            if i % 50 == 0:
                print(f"{workload}: {i + 1}/{len(ops)} ops, "
                      f"{time.perf_counter() - start:.1f}s", file=sys.stderr)
    check.save_refs(run.REFS_DIR / f"{workload}.json.gz",
                    {"host": run.host_record(), "ops": refs})
    return refs


def main(argv) -> int:
    run.import_program()
    import workloads

    run.RUN_DIR.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        refs = record(workload)
        print(f"{workload}: {len(refs)} references", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
