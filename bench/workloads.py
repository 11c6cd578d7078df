"""The benchmark's workloads: fixed op lists of `amdp-lab` CLI invocations.

Every op is one ``amdp_lab.cli.main(argv)`` call.  Each workload draws its
inputs from a fixed pool whose outputs were recorded as references
(``refs/<workload>.json.gz``, written by ``record_refs.py``); the workload
seed only chooses which pool members a run uses, so any seed has references
and the same seed always gives the same inputs.

* ``certify_corpus``: ``certify --mdp <file>`` on 200 instances of the
  standard corpus (master seed 7, S 2..6, A 1..4).  The pool is the first
  POOL_PER_CELL corpus instances of each of the 20 (S, A) cells; a run takes
  10 per cell, so every seed gets the same size mix and only the instance
  contents vary.
* ``reduce_sweep``: ``experiment`` on hard M1 at (S6, A3) and (S14, A4), D=32,
  eps=1/32, with --epsilon 0.25 --H oracle --trials 10, N in {1e3, 1e4, 1e5}
  and two experiment seeds drawn from a pool of 16: 12 ops.
* ``large_instance``: ``params``, ``solve amdp --method relative_vi`` and
  ``solve dmdp --gamma 0.999`` on M1_S14 at D in {32, 1e3, 1e4} and on one
  random MDP each at (S50, A3), (S100, A2), (S200, A2) drawn from a pool of
  8; ``params`` is skipped at S200 (its diameter alone takes tens of
  seconds): 17 ops.  A pass takes about 14 s, too long for enough passes
  per run within the benchmark's time budget, so it is not in
  BENCHMARK.json; run it by name to check a change at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from amdp_lab import corpus, hard_instances, mdp
from amdp_lab.generative import derive_seed

WORKLOADS = ("certify_corpus", "reduce_sweep", "large_instance")

#: seconds one pass over the op list took when the benchmark was defined
#: (2-core x86_64 VM, numpy 2.4 with OpenBLAS on one thread); a run makes
#: round(--seconds / this) passes, at least 2
NOMINAL_PASS_S = {"certify_corpus": 8.0, "reduce_sweep": 8.5, "large_instance": 14.0}

#: workloads whose ops run on one thread (``experiment`` runs a thread pool)
SINGLE_THREADED = ("certify_corpus", "large_instance")

#: seeds to use while writing a change, and seeds held out to confirm a
#: claimed gain on inputs the change was not tuned on
DEV_SEEDS = tuple(range(1, 11))
CONFIRM_SEEDS = tuple(range(101, 111))
DEFAULT_SEED = 7

CORPUS_SEED = 7
CORPUS_SMAX, CORPUS_AMAX = 6, 4
POOL_PER_CELL = 20
PER_CELL = 10

HARD_EPS = 1.0 / 32.0
REDUCE_SHAPES = ((6, 3), (14, 4))
REDUCE_NS = (1_000, 10_000, 100_000)
REDUCE_SEED_POOL = tuple(range(1, 17))
REDUCE_SEEDS_PER_RUN = 2

LARGE_DS = (32.0, 1e3, 1e4)
LARGE_RANDOM = ((50, 3), (100, 2), (200, 2))
LARGE_POOL = 8
LARGE_POOL_TAG = 0x6C61_7267_6500_0001
PARAMS_MAX_STATES = 100


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``key`` names its reference; ``outputs`` are the
    files it writes under ``out_dir`` (which the harness clears first)."""

    key: str
    argv: tuple[str, ...]
    out_dir: str | None = None
    outputs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Instance:
    name: str
    mdp: mdp.TabularMdp


# ---------------------------------------------------------------------------
# pools: every input a run can draw, for any seed


def corpus_pool() -> dict[tuple[int, int], list[Instance]]:
    """First POOL_PER_CELL standard-corpus instances of every (S, A) cell."""
    cells = {(S, A): [] for S in range(2, CORPUS_SMAX + 1)
             for A in range(1, CORPUS_AMAX + 1)}
    for instance_id, m in corpus.standard_corpus(
            count=10**6, max_states=CORPUS_SMAX, max_actions=CORPUS_AMAX,
            master_seed=CORPUS_SEED):
        cell = cells[(m.num_states, m.num_actions)]
        if len(cell) < POOL_PER_CELL:
            cell.append(Instance(instance_id, m))
            if all(len(c) == POOL_PER_CELL for c in cells.values()):
                return cells
    raise AssertionError("corpus stream ended before every cell filled")


def hard_m1(S: int, A: int, D: float) -> Instance:
    spec = hard_instances.HardInstanceSpec(S=S, A=A, D=D, epsilon=HARD_EPS,
                                           variant="M1")
    return Instance(f"M1_S{S}_A{A}_D{D:g}", hard_instances.hard_instance(spec))


def large_random(S: int, A: int, k: int) -> Instance:
    seed = derive_seed(CORPUS_SEED, LARGE_POOL_TAG, S, A, k)
    return Instance(f"random_S{S}_A{A}_k{k}", corpus.random_mdp(S, A, seed))


# ---------------------------------------------------------------------------
# op lists


def _certify_op(inst: Instance, inst_dir: Path, out_root: Path) -> Op:
    out = str(out_root / "certify")
    return Op(f"certify/{inst.name}",
              ("certify", "--mdp", str(inst_dir / f"{inst.name}.json"), "--out", out),
              out, ("certificates.csv", "certificates.json"))


def _experiment_op(inst: Instance, N: int, seed: int, inst_dir: Path,
                   out_root: Path) -> Op:
    out = str(out_root / "experiment")
    return Op(f"experiment/{inst.name}/N{N}/seed{seed}",
              ("experiment", "--mdp", str(inst_dir / f"{inst.name}.json"),
               "--epsilon", "0.25", "--H", "oracle", "--trials", "10",
               "--N", str(N), "--seed", str(seed), "--out", out),
              out, ("experiment.csv",))


def _large_ops(inst: Instance, inst_dir: Path) -> list[Op]:
    path = str(inst_dir / f"{inst.name}.json")
    ops = []
    if inst.mdp.num_states <= PARAMS_MAX_STATES:
        ops.append(Op(f"params/{inst.name}", ("params", "--mdp", path)))
    ops.append(Op(f"solve_amdp/{inst.name}",
                  ("solve", "amdp", "--mdp", path, "--method", "relative_vi")))
    ops.append(Op(f"solve_dmdp/{inst.name}",
                  ("solve", "dmdp", "--mdp", path, "--gamma", "0.999")))
    return ops


def instances(workload: str, seed: int | None) -> list[Instance]:
    """The instances a run with this seed uses; seed None gives the whole
    pool (what ``record_refs.py`` records)."""
    rng = None if seed is None else np.random.default_rng(seed)
    if workload == "certify_corpus":
        chosen = []
        for cell in corpus_pool().values():
            if rng is None:
                chosen.extend(cell)
            else:
                picks = np.sort(rng.choice(len(cell), PER_CELL, replace=False))
                chosen.extend(cell[i] for i in picks)
        return chosen
    if workload == "reduce_sweep":
        return [hard_m1(S, A, 32.0) for S, A in REDUCE_SHAPES]
    if workload == "large_instance":
        chosen = [hard_m1(14, 4, D) for D in LARGE_DS]
        for S, A in LARGE_RANDOM:
            ks = range(LARGE_POOL) if rng is None else [int(rng.integers(LARGE_POOL))]
            chosen.extend(large_random(S, A, k) for k in ks)
        return chosen
    raise ValueError(f"unknown workload {workload!r}")


def ops(workload: str, seed: int | None, chosen: list[Instance], inst_dir: Path,
        out_root: Path) -> list[Op]:
    """The fixed op list for the chosen instances, in run order."""
    if workload == "certify_corpus":
        return [_certify_op(inst, inst_dir, out_root) for inst in chosen]
    if workload == "reduce_sweep":
        if seed is None:
            exp_seeds = list(REDUCE_SEED_POOL)
        else:
            rng = np.random.default_rng(seed)
            exp_seeds = sorted(int(s) for s in rng.choice(
                REDUCE_SEED_POOL, REDUCE_SEEDS_PER_RUN, replace=False))
        return [_experiment_op(inst, N, s, inst_dir, out_root)
                for inst in chosen for N in REDUCE_NS for s in exp_seeds]
    if workload == "large_instance":
        return [op for inst in chosen for op in _large_ops(inst, inst_dir)]
    raise ValueError(f"unknown workload {workload!r}")


def write_instances(chosen: list[Instance], inst_dir: Path) -> None:
    inst_dir.mkdir(parents=True, exist_ok=True)
    for inst in chosen:
        mdp.write_mdp(inst.mdp, inst_dir / f"{inst.name}.json")
