#!/usr/bin/env python3
"""One digest of every reduce_sweep pool trial's exact gap.

Runs ``empirical_error`` as the reduce_sweep ops do (hard M1 at each of
bench/workloads.py's shapes, D = 32, eps = 1/32, ``--epsilon 0.25 --H
oracle --trials 10``) at every N and every seed of the pool: 2 shapes x
3 N x 16 seeds x 10 trials = 960 gaps.  Prints the sha256 of their
``float.hex`` spellings, one per line in that loop order (shape, N, seed,
trial), each line ending in a newline, and the number of gaps.  Two trees
whose sampling and planning give the same bits print the same digest:

    python tools/trial_digest.py
"""

import hashlib
import os
import sys
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
