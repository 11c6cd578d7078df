"""Canonical laboratory instances and the seeded random test corpus."""

from __future__ import annotations

import numpy as np

from .generative import derive_seed
from .mdp import TabularMdp

_TAG_CORPUS = 0x9A3F_52C1_7E88_0004


def two_state_cycle() -> TabularMdp:
    """Deterministic two-state cycle with a single action and rewards (1, 0);
    the canonical periodic chain (gain 1/2, bias (1/4, -1/4))."""
    P = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
    r = np.array([[1.0], [0.0]])
    return TabularMdp(2, 1, P, r, metadata={"name": "two_state_cycle"})


def two_state_slow_chain(D: float) -> TabularMdp:
    """Single-action chain leaving the reward state only with probability
    1/D and returning immediately: diameter D, but fast mixing."""
    if D < 1.0:
        raise ValueError("D must be at least 1")
    P = np.array([[[1.0 - 1.0 / D, 1.0 / D]], [[1.0, 0.0]]])
    r = np.array([[1.0], [0.0]])
    return TabularMdp(2, 1, P, r, metadata={"name": f"two_state_slow_chain_D{D:g}"})


def random_mdp(num_states: int, num_actions: int, seed: int) -> TabularMdp:
    """Random dense MDP with strictly positive transition rows (hence
    communicating, hence weakly communicating) and uniform rewards."""
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.random((num_states, num_actions, num_states)) ** 2 + 0.02
    P = raw / raw.sum(axis=2, keepdims=True)
    r = rng.random((num_states, num_actions))
    return TabularMdp(num_states, num_actions, P, r,
                      metadata={"name": f"random-{seed:#x}"})


def standard_corpus(count: int = 1000, max_states: int = 6, max_actions: int = 4,
                    master_seed: int = 7):
    """Yield (instance_id, TabularMdp) pairs for the seeded random corpus.

    Sizes vary with the instance stream: 2..max_states states and
    1..max_actions actions.  Fully reproducible from master_seed.
    """
    for name, value, least in (("count", count, 1), ("max_states", max_states, 2),
                               ("max_actions", max_actions, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    for i in range(count):
        seed = derive_seed(master_seed, _TAG_CORPUS, i)
        rng = np.random.Generator(np.random.PCG64(seed))
        S = int(rng.integers(2, max_states + 1))
        A = int(rng.integers(1, max_actions + 1))
        instance_id = f"corpus-{master_seed}-{i:04d}"
        m = random_mdp(S, A, derive_seed(seed, 1))
        yield instance_id, TabularMdp(S, A, m.transitions, m.rewards, {"name": instance_id})
