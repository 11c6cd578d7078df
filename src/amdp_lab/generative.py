"""Seeded generative-model access to a ground-truth MDP.

The sampler hides the true transition tensor behind next-state draws.  A
pair with two or more next states owns an independent RNG stream: a PCG64
Generator seeded, as ``PCG64(seed)`` would seed it, from a seed derived from
the master seed and (s, a) with a splitmix64-style mixer, so the sample
sequence at one pair never depends on how calls interleave across pairs, and
batched draws equal the same number of single draws.  The stream is built
on the pair's first draw, from state words that NumPy's SeedSequence hash
gives its seed.  A pair with one next state takes no uniforms and has no
stream: every draw lands on that state.

The empirical build needs only counts, and the counts of n independent
draws at a pair are Multinomial(n, P(.|s, a)) over its support: the build
draws them as one ``Generator.multinomial`` on the pair's stream, at a cost
that does not grow with n.  ``_sample_trials`` samples an experiment's
trials as arrays, with no model per trial, from one ``_seed_words`` pass
over every trial's streams.  After a build a pair's stream is not where
``sample_counter[s, a]`` uniform draws would leave it, and the bits of the
counts follow NumPy's stream-compatibility policy for ``Generator``
methods, not only the PCG64 bit stream.
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass

import numpy as np

from .mdp import TabularMdp

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

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
    4 pads it with zeros, so seeds below 2**32 (0 included) take the
    same path.  One call serves every stream of a batch of trials."""
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
    """_StateWords, the seed a stream's PCG64 is built from: it hands over
    the (4,) uint64 state words that SeedSequence would generate from the
    stream's seed, as _seed_words worked them out.  Made on first use, because its
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
    with positive mass, and for each pair with two or more (in (s, a)
    order) its index among them, its support states, the CDF at all but
    the last of them, and its probabilities scaled to sum to 1 (summed over
    the support alone, rows of one support size at once), so that a row
    within mdp.PROB_TOL of 1 passes multinomial's check that
    sum(pvals[:-1]) <= 1; and flat, those support states' positions in a
    flattened (S, A, S) array, pair after pair."""

    def __init__(self, P: np.ndarray):
        self.positive = P > 0
        size = np.count_nonzero(self.positive, axis=2)
        self.multi = size > 1
        positive, P, cum, size = (x[self.multi] for x in (
            self.positive, P, np.cumsum(P, axis=2), size))
        pair, state = np.nonzero(positive)
        self.flat = np.flatnonzero(self.multi)[pair] * P.shape[-1] + state
        rows = [None] * len(size)
        for k in np.flatnonzero(np.bincount(size)):  # the support sizes present
            index = np.flatnonzero(size == k)
            support = np.nonzero(positive[index])[1].reshape(-1, k)
            p = np.take_along_axis(P[index], support, axis=1)
            bounds = np.take_along_axis(cum[index], support[:, :-1], axis=1)
            for i, *row in zip(index.tolist(), support, bounds, p / p.sum(axis=1)[:, None]):
                rows[i] = (i, *row)
        self.rows = dict(zip(zip(*(x.tolist() for x in np.nonzero(self.multi))), rows))

    def derive(self, masters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The state words of the streams of masters (K,) uint64, from one
        _seed_words pass: (K, M, 4) at the M multi-state pairs, (K, 4) reward."""
        S, A = self.multi.shape
        x = splitmix64(masters)[:, None]
        pairs = splitmix64(splitmix64(x ^ _TAG_TRANSITION)[:, :, None]
                           ^ np.arange(S, dtype=np.uint64)[:, None])
        pairs = splitmix64(pairs ^ np.arange(A, dtype=np.uint64))
        words = _seed_words(np.concatenate(
            [pairs[:, self.multi], splitmix64(x ^ _TAG_REWARD)], axis=1))
        return words[:, :-1], words[:, -1]


class GenerativeModel:
    """Sampling-only view of a ground-truth MDP.

    Exposes sizes, the (known) reward table and next-state draws.  The true
    transition tensor is deliberately kept off the public surface.  Each
    multi-state pair's stream is ``Generator(PCG64(transition_seed(s, a)))``,
    built on its first draw from the state words of one _PairTables.derive.
    """

    def __init__(self, truth: TabularMdp, seed_spec: RngSeedSpec | int):
        if not isinstance(seed_spec, RngSeedSpec):
            seed_spec = RngSeedSpec(operator.index(seed_spec))
        self._truth = truth
        self.seed_spec = seed_spec
        self.num_states = truth.num_states
        self.num_actions = truth.num_actions
        self.rewards = truth.rewards
        self.sample_counter = np.zeros(truth.rewards.shape, dtype=np.int64)
        self._tables = _PairTables(truth.transitions)
        self._words = None  # (M, 4) multi-state pairs' state words; None until a draw
        self._streams: dict[tuple[int, int], np.random.Generator] = {}

    def _stream(self, s: int, a: int, index: int) -> np.random.Generator:
        gen = self._streams.get((s, a))
        if gen is None:
            if self._words is None:
                master = operator.index(self.seed_spec.master_seed) & _MASK64
                self._words = self._tables.derive(np.array([master], np.uint64))[0][0]
            gen = self._streams[s, a] = _generator(self._words[index])
        return gen

    def sample_batch(self, s: int, a: int, n: int) -> np.ndarray:
        """Draw n next states from P(.|s, a) by inverse CDF.  A pair with
        one next state takes no uniforms and builds no stream."""
        if not (0 <= s < self.num_states and 0 <= a < self.num_actions):
            raise IndexError(f"state-action pair ({s}, {a}) out of range")
        n = operator.index(n)
        if n < 0:
            raise ValueError(f"cannot draw {n} samples")
        self.sample_counter[s, a] += n
        row = self._tables.rows.get((s, a))
        if row is None:
            return np.full(n, int(np.argmax(self._tables.positive[s, a])))
        index, support, bounds, _ = row
        u = self._stream(s, a, index).random(n)
        return support[np.searchsorted(bounds, u, side="right")]


def _generator(words: np.ndarray) -> np.random.Generator:
    """``Generator(PCG64(seed))`` from the seed's (4,) state words."""
    return np.random.Generator(np.random.PCG64(_state_words_type()(words)))


def _draw(tables: _PairTables, n: int, stream, counts: np.ndarray) -> None:
    """The per-pair draw loop of every build: write into counts (S, A, S) one
    multinomial(n, p) at each multi-state pair, on stream(s, a, index)."""
    if tables.rows:
        np.put(counts, tables.flat, np.concatenate([
            stream(s, a, index).multinomial(n, p)
            for (s, a), (index, _, _, p) in tables.rows.items()]))


def build_empirical(gm: GenerativeModel, n_per_pair: int,
                    perturbed_rewards: np.ndarray) -> TabularMdp:
    """The empirical MDP of n_per_pair draws at every (s, a) on gm's
    streams (_draw), with the given (possibly perturbed) rewards and
    metadata["empirical_n"] = n_per_pair.  Every pair's sample_counter
    rises by n_per_pair."""
    if n_per_pair < 1:
        raise ValueError("n_per_pair must be at least 1")
    counts = gm._tables.positive * n_per_pair
    _draw(gm._tables, n_per_pair, gm._stream, counts)
    gm.sample_counter += n_per_pair
    return TabularMdp(gm.num_states, gm.num_actions, counts / float(n_per_pair),
                      np.asarray(perturbed_rewards, dtype=float),
                      metadata={"empirical_n": n_per_pair})


def perturb_rewards(rewards: np.ndarray, xi: float, seed) -> np.ndarray:
    """Add i.i.d. Unif(0, xi) noise to every reward entry, drawn on
    ``Generator(PCG64(seed))``, seed an int or a seed sequence.

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


def _sample_trials(gm: GenerativeModel, n_per_pair: int, xi: float, trials: int):
    """Algorithm 1's sampling half at gm's first K trial seeds: seeds (K,),
    counts (K, S, A, S), rewards (K, S, A) and each trial's own seconds
    (K,); trial k has the bits of build_empirical and perturb_rewards on
    GenerativeModel(truth, seeds[k]), and gm draws nothing."""
    seeds = splitmix64(np.uint64(derive_seed(gm.seed_spec.master_seed, _TAG_TRIAL))
                       ^ np.arange(trials, dtype=np.uint64))
    words, reward_words = gm._tables.derive(seeds)
    counts = np.repeat((gm._tables.positive * n_per_pair)[None], trials, axis=0)
    rewards, seconds = np.empty((trials, *gm.rewards.shape)), np.empty(trials)
    for k, (w, reward) in enumerate(zip(words, reward_words)):
        start = time.perf_counter()
        _draw(gm._tables, n_per_pair, lambda s, a, i: _generator(w[i]), counts[k])
        rewards[k] = perturb_rewards(gm.rewards, xi, _state_words_type()(reward))
        seconds[k] = time.perf_counter() - start
    return seeds, counts, rewards, seconds
