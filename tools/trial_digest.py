#!/usr/bin/env python3
"""The byte-identity digests: every reduce_sweep pool trial's exact gap,
and the files of ``amdp-lab certify --count 1000``.

Runs ``empirical_error`` as the reduce_sweep ops do (hard M1 at each of
bench/workloads.py's shapes, D = 32, eps = 1/32, ``--epsilon 0.25 --H
oracle --trials 10``) at every N and every seed of the pool: 2 shapes x
3 N x 16 seeds x 10 trials = 960 gaps.  Prints the sha256 of their
``float.hex`` spellings, one per line in that loop order (shape, N, seed,
trial), each line ending in a newline, and the number of gaps.  Then runs
``certify --count 1000`` (its default corpus spec) into a temporary
directory and prints the sha256 of its certificates.csv and
certificates.json.  Two trees whose sampling, planning and certificates
give the same bits print the same three digests:

    python tools/trial_digest.py
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def gaps() -> list[float]:
    import workloads
    from amdp_lab import GenerativeModel, amdp_optimal, empirical_error, reduction_params

    out = []
    for S, A in workloads.REDUCE_SHAPES:
        truth = workloads.hard_m1(S, A, 32.0).mdp
        opt = amdp_optimal(truth)
        H = max(opt.H, 1.0)  # --H oracle
        for N in workloads.REDUCE_NS:
            params = reduction_params(0.25, 0.1, H, S, A, n_override=N)
            for seed in workloads.REDUCE_SEED_POOL:
                out.extend(rec.gap for rec in
                           empirical_error(GenerativeModel(truth, seed), params, 10, opt))
    return out


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as bench/run.py runs the ops, before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    values = gaps()
    text = "".join(float.hex(gap) + "\n" for gap in values)
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  {len(values)} gaps")
    from amdp_lab.cli import main as cli_main

    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["certify", "--count", "1000", "--out", out])
        for name in ("certificates.csv", "certificates.json"):
            digest = hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
            print(f"{digest}  certify --count 1000 {name}")
    return code


if __name__ == "__main__":
    sys.exit(main())
