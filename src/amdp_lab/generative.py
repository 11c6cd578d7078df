"""Seeded generative-model access to a ground-truth MDP.

The sampler hides the true transition tensor behind next-state draws.  A
pair with two or more next states owns an independent RNG stream: a PCG64
Generator seeded, as ``PCG64(seed)`` would seed it, from a seed derived from
the master seed and (s, a) with a splitmix64-style mixer, so the sample
sequence at one pair never depends on how calls interleave across pairs, and
batched draws equal the same number of single draws.  The stream is built
on the pair's first draw, from state words that NumPy's SeedSequence hash
gives its seed; ``_seed_words`` runs that hash once over the seeds of every
pair of every model in a batch.  A pair with one next state takes no
uniforms and has no stream: every draw lands on that state.  The empirical
build needs only counts, so it tallies the uniforms at the support
boundaries of each pair instead of drawing states; the counts equal the
bincount of the draws those uniforms give.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .mdp import TabularMdp

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

#: uniforms build_empirical draws at a time (256 KB), the one draw array a
#: sampling worker holds whatever N is.  On a 2-vCPU host this took the
#: reduce_sweep benchmark's peak RSS from 44.8 MB (one fill of N) to 42.8
#: MB; 2**14 gave 42.2 MB but made N = 1e5 trials 6-14% slower, as two
#: workers trade the interpreter lock at every fill.  Each uniform takes
#: one 64-bit output, so chunks leave the stream as one fill of N would.
_DRAW_CHUNK = 1 << 15

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


def _hash_constants(init: int, mult: int, steps: int):
    """The (xor, multiply) constants of SeedSequence's successive hashmix
    steps, as (steps, 1) uint32 columns: step i XORs the running constant
    and multiplies by the next one."""
    chain = [init]
    for _ in range(steps):
        chain.append(chain[-1] * mult & _MASK32)
    return (np.array(chain[:-1], np.uint32)[:, None],
            np.array(chain[1:], np.uint32)[:, None])


# SeedSequence's pool mixing (4 entropy words, then 4 x 3 cross mixes) and
# its output hash (8 uint32 words for 4 uint64 ones)
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult
    return v ^ (v >> np.uint32(16))


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(int(s)).generate_state(4, np.uint64)`` for
    every s of a uint64 array, as C-contiguous (..., 4) words: NumPy's
    documented, stream-stable SeedSequence hash run on uint32 arrays.  A
    64-bit seed's entropy is its low and high 32-bit words, and the pool of
    4 pads it with zeros, so seeds below 2**32 (0 included) take the same
    path."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    flat = seeds.reshape(-1)
    pool = np.zeros((4, flat.size), dtype=np.uint32)
    pool[0] = flat & np.uint64(_MASK32)
    pool[1] = flat >> np.uint64(32)
    xor, mult = _POOL_HASH
    pool = _hashmix(pool, xor[:4], mult[:4])
    for src in range(4):  # mix every word into every other, in order
        dst = [d for d in range(4) if d != src]
        step = slice(4 + 3 * src, 7 + 3 * src)
        mixed = (np.uint32(0xCA01F9DD) * pool[dst]
                 - np.uint32(0x4973F715) * _hashmix(pool[src], xor[step], mult[step]))
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], *_OUT_HASH)
    low, high = state[0::2].astype(np.uint64), state[1::2].astype(np.uint64)
    words = low | (high << np.uint64(32))
    return np.ascontiguousarray(words.T).reshape(*seeds.shape, 4)


@functools.cache
def _state_words_type() -> type:
    """_StateWords, the seed a pair's PCG64 is built from: it hands over the
    (4,) uint64 state words that SeedSequence would generate from the pair's
    seed, as _seed_words worked them out.  Made on first use, because its
    base class loads numpy.random (10 ms and 6 MB), which commands that
    never sample do not otherwise load."""
    from numpy.random.bit_generator import ISeedSequence

    class _StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _StateWords


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


class _PairTables:
    """What every model of one truth shares, worked out once: the states
    with positive mass, the first of them at every pair, and for each pair
    with two or more (in (s, a) order) its index among them, its support
    states and the CDF at all but the last of them."""

    def __init__(self, P: np.ndarray):
        self.positive = P > 0
        self.first = np.argmax(self.positive, axis=2)
        self.multi = np.count_nonzero(self.positive, axis=2) > 1
        cum = np.cumsum(P, axis=2)
        self.rows = {}
        for i, (s, a) in enumerate(zip(*np.nonzero(self.multi))):
            support = np.flatnonzero(self.positive[s, a])
            self.rows[int(s), int(a)] = (i, tuple(support.tolist()),
                                         tuple(cum[s, a, support[:-1]].tolist()))

    def derive(self, specs: list[RngSeedSpec]):
        """transition_seed(s, a) of every pair under every spec, (K, S, A),
        from splitmix64 on uint64 arrays, and the (K, M, 4) state words of
        the M multi-state pairs' seeds from one _seed_words call."""
        S, A = self.multi.shape
        x = np.array([derive_seed(spec.master_seed, _TAG_TRANSITION) for spec in specs],
                     dtype=np.uint64)[:, None, None]
        x = splitmix64(x ^ np.arange(S, dtype=np.uint64)[:, None])
        seeds = splitmix64(x ^ np.arange(A, dtype=np.uint64))
        return seeds, _seed_words(seeds[:, self.multi])


class GenerativeModel:
    """Sampling-only view of a ground-truth MDP.

    Exposes sizes, the (known) reward table, next-state draws, and an exact
    per-pair sample tally.  The true transition tensor is deliberately kept
    off the public surface.  Each multi-state pair's stream is
    ``Generator(PCG64(transition_seed(s, a)))``, built on its first draw
    from state words that one vectorized SeedSequence pass gave; models of
    one truth made by ``_models`` share its per-pair tables and that pass.
    """

    def __init__(self, truth: TabularMdp, seed_spec: RngSeedSpec | int):
        if not isinstance(seed_spec, RngSeedSpec):
            seed_spec = RngSeedSpec(operator.index(seed_spec))
        tables = _PairTables(truth.transitions)
        (seeds,), (words,) = tables.derive([seed_spec])
        self._bind(truth, seed_spec, tables, seeds, words)

    def _bind(self, truth, seed_spec, tables, seeds, words) -> None:
        self._truth = truth
        self.seed_spec = seed_spec
        self.num_states = truth.num_states
        self.num_actions = truth.num_actions
        self.rewards = truth.rewards
        self.sample_counter = np.zeros((truth.num_states, truth.num_actions),
                                       dtype=np.int64)
        self._tables = tables
        self._seeds = seeds  # (S, A) transition seeds
        self._words = words  # (M, 4) state words of the multi-state pairs
        self._streams: dict[tuple[int, int], np.random.Generator] = {}

    def _stream(self, s: int, a: int, index: int) -> np.random.Generator:
        gen = self._streams.get((s, a))
        if gen is None:
            gen = self._streams[s, a] = np.random.Generator(
                np.random.PCG64(_state_words_type()(self._words[index])))
        return gen

    def _draw(self, s: int, a: int, n: int):
        """n uniforms from the pair's stream, its support states and the
        CDF at all but the last of them.  With one such state the uniforms
        are None and no stream is built."""
        if not (0 <= s < self.num_states and 0 <= a < self.num_actions):
            raise IndexError(f"state-action pair ({s}, {a}) out of range")
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"cannot draw {n} samples")
        self.sample_counter[s, a] += n
        row = self._tables.rows.get((s, a))
        if row is None:
            return None, (int(self._tables.first[s, a]),), ()
        index, support, bounds = row
        return self._stream(s, a, index).random(n), support, bounds

    def sample_batch(self, s: int, a: int, n: int) -> np.ndarray:
        """Draw n next states from P(.|s, a) by inverse CDF."""
        u, support, bounds = self._draw(s, a, n)
        if u is None:
            return np.full(n, support[0])
        return np.array(support)[np.searchsorted(bounds, u, side="right")]

    def sample_counts(self, s: int, a: int, n: int) -> np.ndarray:
        """Next-state counts of n draws from P(.|s, a), as an int64 vector of
        length num_states: the bincount of what sample_batch(s, a, n) would
        return, from the same uniforms, with one tally per support boundary."""
        u, support, bounds = self._draw(s, a, n)
        counts = np.zeros(self.num_states, dtype=np.int64)
        _tally(counts, n, (u,), support, bounds)
        return counts


def _tally(counts: np.ndarray, n: int, fills, support: tuple, bounds: tuple) -> None:
    """Write the next-state counts of n draws into counts at the support
    states, from fills, uniform arrays that together hold the n draws: a
    draw lands on the first support state whose boundary exceeds its
    uniform, and on the last one past every boundary (which absorbs the
    u >= cum[-1] float corner).  With one support state no fill is read."""
    beyond = [0] * len(bounds)
    for u in fills:
        for j, bound in enumerate(bounds):
            beyond[j] += int(np.count_nonzero(u >= bound))
    left = n
    for state, past in zip(support, beyond):
        counts[state] = left - past
        left = past
    counts[support[-1]] = left


def _models(gm: GenerativeModel, seeds: list[int]) -> Iterator[GenerativeModel]:
    """A model of gm's truth at each master seed, in order, each made when
    it is asked for: they share gm's per-pair tables, and the state words of
    all of them come from one _seed_words call, the batch of which
    GenerativeModel(truth, seed) is the one-seed case."""
    specs = [RngSeedSpec(operator.index(seed)) for seed in seeds]
    all_seeds, all_words = gm._tables.derive(specs)
    for spec, pair_seeds, words in zip(specs, all_seeds, all_words):
        model = GenerativeModel.__new__(GenerativeModel)
        model._bind(gm._truth, spec, gm._tables, pair_seeds, words)
        yield model


def build_empirical(gm: GenerativeModel, n_per_pair: int,
                    perturbed_rewards: np.ndarray) -> TabularMdp:
    """The empirical MDP of n_per_pair draws at every (s, a), with the given
    (possibly perturbed) rewards and metadata["empirical_n"] = n_per_pair.
    Pairs with one next state are filled in one assignment; the others draw
    their uniforms _DRAW_CHUNK at a time into one reused buffer and tally
    them as sample_counts does.  Every pair's sample_counter rises by
    n_per_pair."""
    if n_per_pair < 1:
        raise ValueError("n_per_pair must be at least 1")
    tables = gm._tables
    counts = tables.positive * n_per_pair
    buf = np.empty(min(n_per_pair, _DRAW_CHUNK))
    for (s, a), (index, support, bounds) in tables.rows.items():
        stream = gm._stream(s, a, index)
        fills = (stream.random(out=buf[:n_per_pair - start])
                 for start in range(0, n_per_pair, len(buf)))
        _tally(counts[s, a], n_per_pair, fills, support, bounds)
    gm.sample_counter += n_per_pair
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
