#!/usr/bin/env python3
"""The byte-identity digests: every reduce_sweep pool trial's exact gap,
empirical counts and planned policy, the gaps of a regime where they are
not zero, and the files of ``amdp-lab certify --count 1000``.

Runs ``empirical_error`` as the reduce_sweep ops do (hard M1 at each of
bench/workloads.py's shapes, D = 32, eps = 1/32, ``--epsilon 0.25 --H
oracle --trials 10``) at every N and every seed of the pool: 2 shapes x
3 N x 16 seeds x 10 trials = 960 trials, in loop order (shape, N, seed,
trial).  Prints three sha256 lines for them:

* their gaps, as the ``float.hex`` spellings, one per line, each line
  ending in a newline.  Every one of these gaps is 0, so this line cannot
  see the sampler: a change to the counts that keeps every plan optimal
  leaves it as it is;
* their empirical counts, each trial's (S, A, S) int64 counts as
  little-endian bytes;
* their planned policies, each trial's (S,) actions as little-endian int64.

Then the nonzero-gap regime: hard M1 S6A3 at D = 1e3 and eps = 1/32, run
as ``experiment --epsilon 0.03125 --H oracle --trials 10`` at N = 100 and
1000 on each of ``REGIME_SEEDS``; it prints the sha256 of its gaps,
spelled as above, and how many of them exceed eps.  Then it runs
``certify --count 1000`` (its default corpus spec) into a temporary
directory and prints the sha256 of its certificates.csv and
certificates.json.  Last it prints the sha256 of the worst-case mixing
times of ``TMIX_RANDOM`` and of the certify_corpus pool's S6A4 cell,
spelled as the gaps are: inputs of 4096 to 65536 policies, which
``mixing_time`` walks in 5 to 181 chunks.  Every one of those mixes
within 4 steps, so an eighth line, spelled the same way, pins the t_mix of
the tau = 0.99 lazy transforms of corpus-7-0001, -0002, -0004 and -0005
(master seed 7), which mix in 151 to 333 steps: the loop that steps the
policies not yet mixed runs hundreds of times there.  Two trees whose
sampling, planning, certificates and t_mix give the same bits print the
same lines:

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

#: the nonzero-gap regime: instance and reduce eps, D, N values and seeds
REGIME_EPS = 1 / 32
REGIME_D = 1e3
REGIME_NS = (100, 1000)
REGIME_SEEDS = tuple(range(1, 9))

#: (S, A, seed) of the random_mdp inputs of the t_mix line
TMIX_RANDOM = ((8, 3, 1), (8, 3, 2), (8, 3, 3), (8, 3, 4), (8, 4, 1), (10, 3, 1))


def hex_digest(gaps: list[float]) -> str:
    return hashlib.sha256("".join(float.hex(g) + "\n" for g in gaps).encode()).hexdigest()


def recorded_plans(counts, policies):
    """Have reduction._plan, through which every sampled trial is planned,
    append each trial's int64 counts and planned actions as bytes."""
    import numpy as np
    from amdp_lab import reduction

    plan = reduction._plan

    def recording(emps, gamma):
        actions = plan(emps, gamma)
        for emp, pi in zip(emps, actions):
            n = emp.metadata["empirical_n"]
            counts.update(np.rint(emp.transitions * n).astype("<i8").tobytes())
            policies.update(pi.astype("<i8").tobytes())
        return actions

    reduction._plan = recording


def pool_gaps() -> list[float]:
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


def regime_gaps() -> list[float]:
    from amdp_lab import (GenerativeModel, HardInstanceSpec, amdp_optimal,
                          empirical_error, hard_instance, reduction_params)

    truth = hard_instance(HardInstanceSpec(S=6, A=3, D=REGIME_D, epsilon=REGIME_EPS,
                                           variant="M1"))
    opt = amdp_optimal(truth)
    out = []
    for N in REGIME_NS:
        params = reduction_params(REGIME_EPS, 0.1, max(opt.H, 1.0), 6, 3, n_override=N)
        for seed in REGIME_SEEDS:
            out.extend(rec.gap for rec in
                       empirical_error(GenerativeModel(truth, seed), params, 10, opt))
    return out


def mixing_times() -> list[float]:
    import workloads
    from amdp_lab import mixing_time
    from amdp_lab.corpus import random_mdp

    ms = [random_mdp(S, A, seed) for S, A, seed in TMIX_RANDOM]
    ms += [inst.mdp for inst in workloads.corpus_pool()[(6, 4)]]
    return [mixing_time(m) for m in ms]


def lazy_mixing_times() -> list[float]:
    from amdp_lab import aperiodicity_transform, mixing_time, standard_corpus

    wanted = ("corpus-7-0001", "corpus-7-0002", "corpus-7-0004", "corpus-7-0005")
    return [mixing_time(aperiodicity_transform(m, 0.99))
            for instance_id, m in standard_corpus(count=6, master_seed=7)
            if instance_id in wanted]


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as bench/run.py runs the ops, before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    counts, policies = hashlib.sha256(), hashlib.sha256()
    recorded_plans(counts, policies)
    gaps = pool_gaps()
    zero = "all zero" if not any(gaps) else "not all zero"
    print(f"{hex_digest(gaps)}  {len(gaps)} gaps ({zero})")
    print(f"{counts.hexdigest()}  {len(gaps)} trials' empirical counts")
    print(f"{policies.hexdigest()}  {len(gaps)} trials' planned policies")
    gaps = regime_gaps()
    failed = sum(gap > REGIME_EPS for gap in gaps)
    print(f"{hex_digest(gaps)}  {len(gaps)} gaps at D = 1e3, eps = 1/32, "
          f"N in {REGIME_NS}; {failed} exceed eps")
    from amdp_lab.cli import main as cli_main

    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["certify", "--count", "1000", "--out", out])
        for name in ("certificates.csv", "certificates.json"):
            digest = hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
            print(f"{digest}  certify --count 1000 {name}")
    t_mix = mixing_times()
    print(f"{hex_digest(t_mix)}  {len(t_mix)} t_mix values (max {max(t_mix):g})")
    t_mix = lazy_mixing_times()
    print(f"{hex_digest(t_mix)}  {len(t_mix)} lazy t_mix values (max {max(t_mix):g})")
    return code


if __name__ == "__main__":
    sys.exit(main())
