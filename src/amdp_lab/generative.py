"""Seeded generative-model access to a ground-truth MDP.

The sampler hides the true transition tensor behind next-state draws.  A
pair with two or more next states owns an independent RNG stream, built on
its first draw from a seed derived from the master seed and (s, a) with a
splitmix64-style mixer, so the sample sequence at one pair never depends on
how calls interleave across pairs, and batched draws equal the same number
of single draws.  A pair with one next state takes no uniforms and has no
stream: every draw lands on that state.  The empirical build needs only
counts, so it tallies the uniforms at the support boundaries of each pair
instead of drawing states; the counts equal the bincount of the draws those
uniforms give.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .mdp import TabularMdp

_MASK64 = (1 << 64) - 1

# domain separation tags for derived streams
_TAG_TRANSITION = 0x9A3F_52C1_7E88_0001
_TAG_REWARD = 0x9A3F_52C1_7E88_0002
_TAG_TRIAL = 0x9A3F_52C1_7E88_0003


def splitmix64(z: int) -> int:
    """One step of the splitmix64 mixer; the fixed stream-derivation hash."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, *words: int) -> int:
    """Mix a master seed with integer words into a new 64-bit seed.  Any
    integer type is taken at its Python int value (so a NumPy int64 gives
    what the equal int gives); a float raises TypeError."""
    x = splitmix64(operator.index(master_seed) & _MASK64)
    for w in words:
        x = splitmix64(x ^ (operator.index(w) & _MASK64))
    return x


@dataclass(frozen=True)
class RngSeedSpec:
    """Master seed plus the fixed per-(s, a) stream derivation rule."""

    master_seed: int

    def transition_seed(self, s: int, a: int) -> int:
        return derive_seed(self.master_seed, _TAG_TRANSITION, s, a)

    def reward_seed(self) -> int:
        return derive_seed(self.master_seed, _TAG_REWARD)

    def trial_seed(self, trial: int) -> int:
        return derive_seed(self.master_seed, _TAG_TRIAL, trial)


class GenerativeModel:
    """Sampling-only view of a ground-truth MDP.

    Exposes sizes, the (known) reward table, next-state draws, and an exact
    per-pair sample tally.  The true transition tensor is deliberately kept
    off the public surface.
    """

    def __init__(self, truth: TabularMdp, seed_spec: RngSeedSpec | int):
        if not isinstance(seed_spec, RngSeedSpec):
            seed_spec = RngSeedSpec(operator.index(seed_spec))
        self._truth = truth
        self.seed_spec = seed_spec
        self.num_states = truth.num_states
        self.num_actions = truth.num_actions
        self.rewards = truth.rewards
        self.sample_counter = np.zeros((truth.num_states, truth.num_actions),
                                       dtype=np.int64)
        # inverse-CDF tables in state-index order
        self._cum = np.cumsum(truth.transitions, axis=2)
        self._multi = np.count_nonzero(truth.transitions > 0, axis=2) > 1
        # every pair's transition_seed(s, a) at once, splitmix64 on uint64 arrays
        x = np.uint64(derive_seed(seed_spec.master_seed, _TAG_TRANSITION))
        x = splitmix64(x ^ np.arange(self.num_states, dtype=np.uint64)[:, None])
        self._seeds = splitmix64(x ^ np.arange(self.num_actions, dtype=np.uint64))
        self._streams: dict[tuple[int, int], np.random.Generator] = {}

    def _draw(self, s: int, a: int, n: int):
        """n uniforms from the pair's stream, the states with positive mass
        and the CDF at all but the last of them: a draw lands on the first
        support state whose boundary exceeds it, and on the last one past
        every boundary (which absorbs the u >= cum[-1] float corner).  With
        one such state the uniforms are None and no stream is built."""
        if not (0 <= s < self.num_states and 0 <= a < self.num_actions):
            raise IndexError(f"state-action pair ({s}, {a}) out of range")
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"cannot draw {n} samples")
        support = np.flatnonzero(self._truth.transitions[s, a] > 0)
        u = None
        if len(support) > 1:
            gen = self._streams.get((s, a))
            if gen is None:
                gen = self._streams[s, a] = np.random.Generator(
                    np.random.PCG64(int(self._seeds[s, a])))
            u = gen.random(n)
        self.sample_counter[s, a] += n
        return u, support, self._cum[s, a, support[:-1]]

    def sample_batch(self, s: int, a: int, n: int) -> np.ndarray:
        """Draw n next states from P(.|s, a) by inverse CDF."""
        u, support, bounds = self._draw(s, a, n)
        if u is None:
            return np.full(n, support[0])
        return support[np.searchsorted(bounds, u, side="right")]

    def sample_counts(self, s: int, a: int, n: int) -> np.ndarray:
        """Next-state counts of n draws from P(.|s, a), as an int64 vector of
        length num_states: the bincount of what sample_batch(s, a, n) would
        return, from the same uniforms, with one tally per support boundary."""
        u, support, bounds = self._draw(s, a, n)
        beyond = np.array([n] + [np.count_nonzero(u >= b) for b in bounds] + [0])
        counts = np.zeros(self.num_states, dtype=np.int64)
        counts[support] = beyond[:-1] - beyond[1:]
        return counts


def build_empirical(gm: GenerativeModel, n_per_pair: int,
                    perturbed_rewards: np.ndarray) -> TabularMdp:
    """The empirical MDP of n_per_pair draws at every (s, a), with the given
    (possibly perturbed) rewards and metadata["empirical_n"] = n_per_pair.
    Pairs with one next state are filled in one assignment; only the others
    draw.  Every pair's sample_counter rises by n_per_pair."""
    if n_per_pair < 1:
        raise ValueError("n_per_pair must be at least 1")
    counts = (gm._truth.transitions > 0) * n_per_pair
    for s, a in zip(*np.nonzero(gm._multi)):
        counts[s, a] = gm.sample_counts(s, a, n_per_pair)
    gm.sample_counter[~gm._multi] += n_per_pair
    return TabularMdp(gm.num_states, gm.num_actions, counts / float(n_per_pair),
                      np.asarray(perturbed_rewards, dtype=float),
                      metadata={"empirical_n": n_per_pair})


def perturb_rewards(rewards: np.ndarray, xi: float, seed: int) -> np.ndarray:
    """Add i.i.d. Unif(0, xi) noise to every reward entry.

    Zero draws are rejected and redrawn so the perturbation is strictly
    positive, matching the open interval; the result is a new array.
    """
    if xi < 0.0:
        raise ValueError("xi must be nonnegative")
    rewards = np.asarray(rewards, dtype=float)
    gen = np.random.Generator(np.random.PCG64(seed))
    u = gen.random(rewards.shape)
    while np.any(u == 0.0):  # probability 2^-53 per entry, but stay exact
        redraw = u == 0.0
        u[redraw] = gen.random(int(redraw.sum()))
    return rewards + xi * u
