import hashlib
import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from amdp_lab import (
    GenerativeModel,
    HardInstanceSpec,
    RngSeedSpec,
    TabularMdp,
    algorithm1,
    amdp_optimal,
    build_empirical,
    derive_seed,
    dmdp_value_iteration,
    hard_instance,
    perturb_rewards,
    two_state_slow_chain,
    validate_mdp,
)
from amdp_lab.corpus import random_mdp, standard_corpus
from amdp_lab.mdp import PROB_TOL
from amdp_lab.reduction import reduction_params
from amdp_lab import generative
from oracles import (
    drawn_counts,
    int_seeded_counts,
    int_seeded_multinomial_counts,
    multinomial_pmf,
    per_pair_empirical,
    searchsorted_draws,
    uniform_tally_empirical,
)


def hard_m1(S, A):
    """M1 at D = 32, epsilon = 1/32: every pair has one or two next states."""
    return hard_instance(HardInstanceSpec(S=S, A=A, D=32, epsilon=1 / 32,
                                          variant="M1"))


def make_deterministic_truth():
    P = np.zeros((3, 2, 3))
    P[0, 0, 1] = 1.0
    P[0, 1, 2] = 1.0
    P[1, :, 2] = 1.0
    P[2, :, 0] = 1.0
    return TabularMdp(3, 2, P, np.full((3, 2), 0.5))


class TestSampling:
    def test_deterministic_row_always_hits(self):
        gm = GenerativeModel(make_deterministic_truth(), 1)
        assert all(gm.sample_batch(0, 0, 1)[0] == 1 for _ in range(20))
        assert all(gm.sample_batch(0, 1, 1)[0] == 2 for _ in range(20))

    def test_same_seed_same_outputs(self):
        truth = random_mdp(4, 2, seed=3)
        a = GenerativeModel(truth, 99)
        b = GenerativeModel(truth, 99)
        draws_a = [a.sample_batch(s, 0, 1)[0] for s in (0, 1, 2, 3) for _ in range(10)]
        draws_b = [b.sample_batch(s, 0, 1)[0] for s in (0, 1, 2, 3) for _ in range(10)]
        assert draws_a == draws_b

    def test_interleaving_does_not_change_streams(self):
        truth = random_mdp(3, 2, seed=5)
        a = GenerativeModel(truth, 42)
        b = GenerativeModel(truth, 42)
        seq_a = [a.sample_batch(0, 0, 1)[0] for _ in range(50)]
        # consume other pairs in between on b
        seq_b = []
        for i in range(50):
            b.sample_batch(1, 1, 1)
            seq_b.append(b.sample_batch(0, 0, 1)[0])
            b.sample_batch(2, 0, 1)
        assert seq_a == seq_b

    def test_batch_equals_singles(self):
        truth = random_mdp(3, 2, seed=8)
        a = GenerativeModel(truth, 5)
        b = GenerativeModel(truth, 5)
        batch = a.sample_batch(1, 0, 40)
        singles = np.array([b.sample_batch(1, 0, 1)[0] for _ in range(40)])
        assert np.array_equal(batch, singles)

    def test_counter_exact(self):
        truth = random_mdp(3, 2, seed=8)
        gm = GenerativeModel(truth, 5)
        gm.sample_batch(0, 0, 7)
        gm.sample_batch(0, 0, 1)
        gm.sample_batch(2, 1, 3)
        assert gm.sample_counter[0, 0] == 8
        assert gm.sample_counter[2, 1] == 3
        assert gm.sample_counter.sum() == 11

    def test_frequency_three_sigma(self):
        P = np.array([[[0.25, 0.75]], [[1.0, 0.0]]])
        truth = TabularMdp(2, 1, P, np.zeros((2, 1)))
        gm = GenerativeModel(truth, 314159)
        draws = gm.sample_batch(0, 0, 10**6)
        freq0 = np.mean(draws == 0)
        assert abs(freq0 - 0.25) <= 0.002  # three-sigma is 0.0013

    def test_out_of_range(self):
        gm = GenerativeModel(random_mdp(2, 1, seed=0), 1)
        with pytest.raises(IndexError):
            gm.sample_batch(2, 0, 1)
        with pytest.raises(IndexError):
            gm.sample_batch(0, 1, 1)

    def test_truth_not_exposed(self):
        gm = GenerativeModel(random_mdp(2, 1, seed=0), 1)
        assert not hasattr(gm, "transitions")
        assert not hasattr(gm, "truth")


def random_support_truth(S, A, seed):
    """Random rows over random supports of every size, one of them a tiny
    mass after a large one (its CDF step rounds away)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    P = np.zeros((S, A, S))
    for s in range(S):
        for a in range(A):
            support = rng.choice(S, int(rng.integers(1, S + 1)), replace=False)
            P[s, a, support] = rng.dirichlet(np.ones(len(support)))
    P[0, 0] = 0.0
    P[0, 0, [1, S - 2]] = [1.0, 1e-17]
    return TabularMdp(S, A, P, np.zeros((S, A)))


def ten_tenths_truth():
    """One row of ten 0.1s, whose CDF ends at 0.9999999999999999 < 1."""
    return TabularMdp(10, 1, np.full((10, 1, 10), 0.1), np.zeros((10, 1)))


class FixedUniforms:
    """Stand-in stream that hands out preset uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        u, self.u = self.u[:n], self.u[n:]
        return u


def build_counts(gm, n, build=build_empirical):
    """The (S, A, S) next-state counts of build(gm, n, ...), build_empirical
    or the per-draw oracle uniform_tally_empirical."""
    emp = build(gm, n, gm.rewards)
    return np.rint(emp.transitions * n).astype(np.int64)


class TestSampleCounts:
    def test_batch_matches_searchsorted_oracle(self):
        for seed in range(20):
            truth = random_support_truth(7, 3, seed)
            gm = GenerativeModel(truth, seed)
            for s in range(7):
                for a in range(3):
                    u = np.random.Generator(np.random.PCG64(
                        gm.seed_spec.transition_seed(s, a))).random(500)
                    assert np.array_equal(
                        gm.sample_batch(s, a, 500),
                        searchsorted_draws(truth.transitions[s, a], u))

    def test_counts_equal_bincount_of_batch(self):
        # the per-draw oracle build tallies exactly the draws sample_batch
        # makes, and leaves every stream where they leave it
        for seed, n in itertools.product(range(20), (1, 37, 2000)):
            truth = random_support_truth(7, 3, seed)
            by_counts = GenerativeModel(truth, seed)
            by_batch = GenerativeModel(truth, seed)
            counts = build_counts(by_counts, n, uniform_tally_empirical)
            for s, a in itertools.product(range(7), range(3)):
                assert np.array_equal(counts[s, a], np.bincount(
                    by_batch.sample_batch(s, a, n), minlength=7))
            assert np.array_equal(by_counts.sample_counter, by_batch.sample_counter)
            assert_same_streams(by_counts, by_batch)

    def test_float_corner_row(self):
        truth = ten_tenths_truth()
        cum = np.cumsum(truth.transitions[0, 0])
        # the largest uniform a stream can return is exactly that CDF end
        assert cum[-1] == 0.9999999999999999 == np.nextafter(1.0, 0.0)
        u = np.concatenate([[0.0, cum[-1]], cum, np.nextafter(cum, 0.0),
                            np.nextafter(cum[:-1], 1.0),
                            np.random.Generator(np.random.PCG64(3)).random(200)])
        expected = searchsorted_draws(truth.transitions[0, 0], u)
        assert expected[1] == 9  # the corner draw goes to the last state
        by_counts = GenerativeModel(truth, 1)
        by_batch = GenerativeModel(truth, 1)
        by_counts._streams[(0, 0)] = FixedUniforms(u)
        by_batch._streams[(0, 0)] = FixedUniforms(u)
        batch = by_batch.sample_batch(0, 0, len(u))
        assert np.array_equal(batch, expected)
        assert np.array_equal(
            build_counts(by_counts, len(u), uniform_tally_empirical)[0, 0],
            np.bincount(batch, minlength=10))
        assert not by_counts._streams[(0, 0)].u.size  # every uniform was read
        counts = build_counts(GenerativeModel(truth, 5), 10**5)
        assert np.all(counts.sum(axis=2) == 10**5) and np.all(counts > 0)

    def test_interleaving_counts_and_batches_keeps_streams(self):
        # a build between single-pair batches draws each pair's multinomial
        # where the batches left its stream, and later batches go on from
        # where that multinomial left it
        truth = random_support_truth(5, 2, 4)
        mixed = GenerativeModel(truth, 77)
        reference = GenerativeModel(truth, 77)
        plan = [(0, 0, 30), 5, (3, 1, 5), (0, 0, 12), 1, (4, 0, 1), 300,
                (3, 1, 300), (0, 0, 7), (2, 1, 64), 64]
        for step in plan:
            if isinstance(step, int):  # a build of `step` draws at every pair
                counts = build_counts(mixed, step)
                for s, a in itertools.product(range(5), range(2)):
                    assert np.array_equal(counts[s, a], int_seeded_multinomial_counts(
                        reference, s, a, step))
            else:
                s, a, n = step
                assert np.array_equal(mixed.sample_batch(s, a, n),
                                      reference.sample_batch(s, a, n))
        assert np.array_equal(mixed.sample_counter, reference.sample_counter)
        assert_same_streams(mixed, reference)
        for s in range(5):
            for a in range(2):
                assert np.array_equal(mixed.sample_batch(s, a, 50),
                                      reference.sample_batch(s, a, 50))


class TestOneStatePairs:
    def test_point_mass_counts_and_no_stream(self):
        truth = make_deterministic_truth()
        for n in (1, 7, 1000, 10**5):
            gm = GenerativeModel(truth, 3)
            for calls in (1, 2):
                assert np.array_equal(build_counts(gm, n), truth.transitions * n)
                assert np.all(gm.sample_counter == calls * n)
                assert not gm._streams
            for m in (0, n):
                assert np.array_equal(gm.sample_batch(0, 0, m), np.ones(m))
            assert gm.sample_counter[0, 0] == 3 * n
            assert gm.sample_counter.sum() == 13 * n
            assert not gm._streams and gm._words is None

    def test_negative_n_raises_and_leaves_counter(self):
        one_state = GenerativeModel(make_deterministic_truth(), 3)
        dense = GenerativeModel(random_mdp(3, 2, seed=8), 3)
        for gm in (one_state, dense):
            with pytest.raises(ValueError):
                gm.sample_batch(0, 0, -1)
            assert not gm.sample_counter.any()

    def test_algorithm1_accounts_every_pair(self):
        truth = hard_m1(6, 3)
        one_state = np.count_nonzero(truth.transitions > 0, axis=2) == 1
        assert one_state.any() and not one_state.all()
        params = reduction_params(0.25, 0.1, 2.0, 6, 3, n_override=1000)
        gm = GenerativeModel(truth, 11)
        algorithm1(gm, params)
        assert np.all(gm.sample_counter == params.n_per_pair)

    def test_build_empirical_matches_drawing_every_pair(self):
        for S, A in ((6, 3), (14, 4)):
            truth = hard_m1(S, A)
            multi = np.count_nonzero(truth.transitions > 0, axis=2) > 1
            seeds = [RngSeedSpec(master).trial_seed(trial)
                     for master in range(1, 5) for trial in range(10)]
            for N, seed in itertools.product((10**3, 10**4), seeds):
                fast = GenerativeModel(truth, seed)
                slow = GenerativeModel(truth, seed)
                emp = build_empirical(fast, N, truth.rewards)
                # the oracle draws a multinomial at one-state pairs too
                ref = per_pair_empirical(slow, N, truth.rewards, drawn_counts)
                assert np.array_equal(emp.transitions, ref.transitions)
                assert np.array_equal(fast.sample_counter, slow.sample_counter)
                assert sorted(fast._streams) == [
                    tuple(pair) for pair in np.argwhere(multi)]
                for pair, gen in fast._streams.items():
                    assert (gen.bit_generator.state
                            == slow._streams[pair].bit_generator.state)
                for s, a in itertools.product(range(S), range(A)):
                    assert np.array_equal(fast.sample_batch(s, a, 50),
                                          slow.sample_batch(s, a, 50))


class TestBuildEmpirical:
    def test_single_draw_rows_are_point_masses(self):
        truth = random_mdp(3, 2, seed=11)
        emp = build_empirical(GenerativeModel(truth, 7), 1, truth.rewards)
        assert np.array_equal(np.sort(np.unique(emp.transitions)), [0.0, 1.0])
        assert validate_mdp(emp) == []

    def test_deterministic_truth_recovered_exactly(self):
        truth = make_deterministic_truth()
        emp = build_empirical(GenerativeModel(truth, 123), 5, truth.rewards)
        assert np.array_equal(emp.transitions, truth.transitions)

    def test_counts_sum_to_n(self):
        truth = random_mdp(4, 3, seed=2)
        gm = GenerativeModel(truth, 9)
        emp = build_empirical(gm, 250, truth.rewards)
        assert np.all(np.rint(emp.transitions * 250).sum(axis=2) == 250)
        assert emp.metadata["empirical_n"] == 250
        assert np.all(gm.sample_counter == 250)
        assert validate_mdp(emp) == []

    def test_slow_chain_concentration_with_recorded_seed(self):
        truth = two_state_slow_chain(4)
        emp = build_empirical(GenerativeModel(truth, 2024), 10**5, truth.rewards)
        err = np.max(np.abs(emp.transitions - truth.transitions))
        assert err <= 0.01

    def test_consistency_median_error_non_increasing(self):
        truth = two_state_slow_chain(4)
        medians = []
        for n in (100, 1000, 10000):
            errors = []
            for seed in range(30):
                emp = build_empirical(GenerativeModel(truth, seed), n, truth.rewards)
                errors.append(np.max(np.abs(emp.transitions - truth.transitions)))
            medians.append(float(np.median(errors)))
        assert medians[0] >= medians[1] >= medians[2]

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            build_empirical(GenerativeModel(random_mdp(2, 1, seed=0), 1), 0,
                            np.zeros((2, 1)))


def chi_square(tally: Counter, pmf: dict, trials: int) -> tuple[float, int]:
    """Pearson's statistic of observed outcome counts against an exact pmf
    and its degrees of freedom: the cells expected fewer than 5 times are
    pooled into one, with the next smallest cell if the pool still is."""
    cells = sorted(pmf, key=pmf.get)
    small = [k for k in cells if trials * pmf[k] < 5]
    rest = cells[len(small):]
    if small and trials * sum(pmf[k] for k in small) < 5:
        small.append(rest.pop(0))
    groups = [[k] for k in rest] + ([small] if small else [])
    stat = 0.0
    for group in groups:
        expected = trials * float(sum(pmf[k] for k in group))
        stat += (sum(tally[k] for k in group) - expected) ** 2 / expected
    return stat, len(groups) - 1


def law_truth():
    """Two pairs with streams, of 2 and 3 support states, and two with one
    next state."""
    P = np.zeros((4, 1, 4))
    P[0, 0, [1, 3]] = [0.3, 0.7]
    P[1, 0, [0, 2, 3]] = [0.2, 0.5, 0.3]
    P[2, 0, 2] = P[3, 0, 0] = 1.0
    return TabularMdp(4, 1, P, np.zeros((4, 1)))


class TestCountLaw:
    # fixed before the test was first run: N, the trials, their seeds (the
    # trial seeds of master 2024) and a threshold of df + 6 sqrt(2 df) on
    # the pooled chi-square, which a correct law exceeds with probability
    # below 3e-4 at the 5 and 25 degrees of freedom of these two pairs
    N = 6
    TRIALS = 6000
    MASTER = 2024

    @pytest.mark.parametrize("build", [build_empirical, uniform_tally_empirical],
                             ids=["multinomial", "uniform_tally_oracle"])
    def test_counts_follow_exact_multinomial_pmf(self, build):
        truth = law_truth()
        P = truth.transitions
        seeds = [RngSeedSpec(self.MASTER).trial_seed(t) for t in range(self.TRIALS)]
        tallies = {(0, 0): Counter(), (1, 0): Counter()}
        for model in generative._models(GenerativeModel(truth, 0), seeds):
            counts = build_counts(model, self.N, build)
            assert np.array_equal(counts[2:], P[2:] * self.N)
            for (s, a), tally in tallies.items():
                support = P[s, a] > 0
                assert not counts[s, a, ~support].any()
                tally[tuple(counts[s, a, support].tolist())] += 1
        for (s, a), tally in tallies.items():
            pmf = multinomial_pmf(self.N, P[s, a][P[s, a] > 0])
            assert sum(pmf.values()) == 1 and set(tally) <= set(pmf)
            stat, df = chi_square(tally, pmf, self.TRIALS)
            assert df >= 4
            assert stat <= df + 6 * math.sqrt(2 * df), (s, a, stat, df)

    def test_rows_within_prob_tol_of_one(self):
        # rows whose sums miss 1 by up to PROB_TOL, one of them with an
        # entry above 1, which multinomial rejects as given
        rows = [[1 + 0.9 * PROB_TOL, 1e-300, 0.0], [0.3, 0.7 - 0.9 * PROB_TOL, 0.0],
                [0.5 + 0.45 * PROB_TOL, 0.5 + 0.45 * PROB_TOL, 1e-300],
                [0.1, 0.2, 0.7 - 0.9 * PROB_TOL]]
        P = np.zeros((3, 4, 3))
        P[:, :] = rows
        truth = TabularMdp(3, 4, P, np.zeros((3, 4)))
        assert validate_mdp(truth) == []
        with pytest.raises(ValueError):
            np.random.Generator(np.random.PCG64(0)).multinomial(10, rows[0][:2])
        for N in (1, 1000, 10**5):
            counts = build_counts(GenerativeModel(truth, N), N)
            assert np.all(counts.sum(axis=2) == N)
            assert not counts[P == 0].any()

    def test_theory_n_counts_are_exact(self):
        # the paper's sample size on M1 S6A3 at D = 1e4, eps = 1/128 is
        # above 2**32 per pair: the counts are int64 and sum to it exactly
        truth = hard_instance(HardInstanceSpec(S=6, A=3, D=1e4, epsilon=1 / 128,
                                               variant="M1"))
        params = reduction_params(1 / 128, 0.1, amdp_optimal(truth).H, 6, 3)
        N = params.n_per_pair
        assert N > 2**33
        fast, slow = GenerativeModel(truth, 3), GenerativeModel(truth, 3)
        emp = build_empirical(fast, N, truth.rewards)
        counts = np.array([[int_seeded_multinomial_counts(slow, s, a, N)
                            for a in range(3)] for s in range(6)])
        assert counts.dtype == np.int64 and np.all(counts.sum(axis=2) == N)
        assert np.array_equal(emp.transitions, counts / float(N))
        assert np.all(fast.sample_counter == N)


def uniform_truth(S, A):
    """Every pair spread evenly over all S states: with S >= 2 every pair
    has a stream."""
    return TabularMdp(S, A, np.full((S, A, S), 1.0 / S), np.zeros((S, A)))


def assert_same_streams(fast, slow):
    assert sorted(fast._streams) == sorted(slow._streams)
    for pair, gen in fast._streams.items():
        assert gen.bit_generator.state == slow._streams[pair].bit_generator.state


class TestStreamWords:
    def test_seed_words_match_seed_sequence(self):
        # the vectorized hash gives SeedSequence's own words, seeds below
        # 2**32 (zero-padded entropy) and the 64-bit extremes included
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        drawn = np.random.Generator(np.random.PCG64(20241)).integers(
            0, 2**64, 10_000, dtype=np.uint64, endpoint=False)
        seeds = np.concatenate([np.array(edges, dtype=np.uint64), drawn])
        words = generative._seed_words(seeds)
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        expected = np.array([np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                             for s in seeds])
        assert (words == expected).all()
        grid = generative._seed_words(seeds[:6].reshape(2, 3))
        assert grid.shape == (2, 3, 4) and (grid.reshape(6, 4) == expected[:6]).all()

    @pytest.mark.parametrize("master", [0, 2**64 - 1])
    def test_stream_states_match_int_seeded_pcg64(self, master):
        # every pair's stream, from one model or from a batch of models,
        # starts where PCG64(transition_seed(s, a)) starts
        spec = RngSeedSpec(master)
        for S, A in ((2, 1), (7, 3), (200, 3)):
            gm = GenerativeModel(uniform_truth(S, A), master)
            batch = list(generative._models(gm, [1, master]))
            assert [model.seed_spec for model in batch] == [RngSeedSpec(1), spec]
            for s, a in itertools.product(range(S), range(A)):
                expected = np.random.PCG64(spec.transition_seed(s, a)).state
                for model in (gm, batch[1]):
                    model.sample_batch(s, a, 0)
                    assert model._streams[s, a].bit_generator.state == expected

    def test_build_and_counts_match_int_seeded_oracle(self):
        # a build's counts and stream states equal those of one multinomial
        # per multi-state pair on streams seeded through PCG64(int(seed)),
        # for one model and for a batch, and sample_batch's draws equal
        # uniforms tallied on such streams
        truths = [hard_m1(6, 3), hard_m1(14, 4), make_deterministic_truth(),
                  *(random_support_truth(7, 3, seed) for seed in range(5))]
        masters = [0, 9, 2**64 - 1]
        for truth, N in itertools.product(truths, (1, 37, 5000)):
            S, A = truth.num_states, truth.num_actions
            rewards = perturb_rewards(truth.rewards, 1e-3, N)
            batch = generative._models(GenerativeModel(truth, 1), masters)
            for master, member in zip(masters, batch):
                for fast in (GenerativeModel(truth, master), member):
                    slow = GenerativeModel(truth, master)
                    emp = build_empirical(fast, N, rewards)
                    ref = per_pair_empirical(slow, N, rewards,
                                             int_seeded_multinomial_counts)
                    assert np.array_equal(emp.transitions, ref.transitions)
                    assert np.array_equal(emp.rewards, ref.rewards)
                    assert emp.metadata == ref.metadata
                    assert np.array_equal(fast.sample_counter, slow.sample_counter)
                    assert_same_streams(fast, slow)
                fast = GenerativeModel(truth, master)
                slow = GenerativeModel(truth, master)
                for s, a, n in itertools.product(range(S), range(A), (N, 13)):
                    assert np.array_equal(
                        np.bincount(fast.sample_batch(s, a, n), minlength=S),
                        int_seeded_counts(slow, s, a, n))
                assert np.array_equal(fast.sample_counter, slow.sample_counter)
                assert_same_streams(fast, slow)

    def test_words_derived_at_first_draw(self):
        # a model works out its pairs' state words at its first draw, as the
        # one-seed case of the batch pass; _models hands every member the
        # words of the batch's pass, and the model it is given draws nothing
        truth = hard_m1(6, 3)
        gm = GenerativeModel(truth, 5)
        (member,) = generative._models(gm, [5])
        (expected,) = gm._tables.derive([RngSeedSpec(5)])
        assert gm._words is None and np.array_equal(member._words, expected)
        emp = build_empirical(gm, 10, truth.rewards)
        assert np.array_equal(gm._words, expected)
        assert np.array_equal(build_empirical(member, 10, truth.rewards).transitions,
                              emp.transitions)
        assert_same_streams(gm, member)
        one_state = GenerativeModel(make_deterministic_truth(), 5)
        build_empirical(one_state, 10, one_state.rewards)
        assert one_state._words is None

    def test_pinned_counts_digest(self):
        # a change to NumPy's SeedSequence, PCG64 or Generator.multinomial
        # streams, or to the seed derivation or the count law, changes every
        # count below
        digest = hashlib.sha256()
        for truth in (hard_m1(6, 3), hard_m1(14, 4), random_support_truth(7, 3, 0)):
            for master in (1, 2, 3):
                counts = build_counts(GenerativeModel(truth, master), 1000)
                digest.update(counts.astype("<i8").tobytes())
        assert digest.hexdigest() == (
            "7f2c1b52380d0085d8d920edc4551b512e5bc7c0314b1dbd120a294c15bbc5b9")


class TestPerturbRewards:
    def test_zero_xi_identity(self):
        r = random_mdp(3, 2, seed=4).rewards
        assert np.array_equal(perturb_rewards(r, 0.0, 1), r)

    def test_strictly_inside_open_interval(self):
        r = np.zeros((20, 20))
        out = perturb_rewards(r, 0.5, 77)
        assert np.all(out > 0.0) and np.all(out < 0.5)

    def test_deterministic_in_seed(self):
        r = np.zeros((4, 4))
        assert np.array_equal(perturb_rewards(r, 0.1, 5), perturb_rewards(r, 0.1, 5))
        assert not np.array_equal(perturb_rewards(r, 0.1, 5),
                                  perturb_rewards(r, 0.1, 6))

    def test_perturbation_barely_moves_optimal_values(self):
        # xi from the schedule is so small that optimal values move by at
        # most xi / (1 - gamma)
        m = random_mdp(6, 3, seed=15)
        params = reduction_params(0.5, 0.1, 2.0, 6, 3, n_override=1)
        assert params.xi < 1e-6
        r_p = perturb_rewards(m.rewards, params.xi, 31)
        _, V_base, _ = dmdp_value_iteration(m, params.gamma, 1e-10)
        _, V_pert, _ = dmdp_value_iteration(replace(m, rewards=r_p), params.gamma, 1e-10)
        assert np.max(np.abs(V_pert - V_base)) <= params.xi / (1 - params.gamma) + 1e-9

    def test_negative_xi_rejected(self):
        with pytest.raises(ValueError):
            perturb_rewards(np.zeros((1, 1)), -0.1, 0)


class TestSeedSpec:
    def test_numpy_integer_seed_gives_the_same_streams(self):
        truth = random_support_truth(5, 2, 4)
        by_numpy = GenerativeModel(truth, np.int64(5))
        by_int = GenerativeModel(truth, 5)
        assert by_numpy.seed_spec == by_int.seed_spec
        for s in range(5):
            for a in range(2):
                assert np.array_equal(by_numpy.sample_batch(s, a, 3),
                                      by_int.sample_batch(s, a, 3))

    def test_float_seed_rejected(self):
        with pytest.raises(TypeError):
            GenerativeModel(random_mdp(2, 1, seed=0), 5.0)

    def test_numpy_integers_derive_like_python_ints(self):
        assert (RngSeedSpec(np.int64(5)).transition_seed(0, 0)
                == RngSeedSpec(5).transition_seed(0, 0))
        assert (RngSeedSpec(np.int64(-5)).trial_seed(np.uint8(3))
                == RngSeedSpec(-5).trial_seed(3))
        truth = random_mdp(3, 2, 1)
        assert np.array_equal(GenerativeModel(truth, 5).sample_batch(np.int64(0), 0, 3),
                              GenerativeModel(truth, 5).sample_batch(0, 0, 3))
        name_np, m_np = next(standard_corpus(count=1, master_seed=np.int64(7)))
        name, m = next(standard_corpus(count=1, master_seed=7))
        assert name_np == name
        assert np.array_equal(m_np.transitions, m.transitions)
        assert np.array_equal(m_np.rewards, m.rewards)

    def test_float_seed_rejected_by_every_derivation(self):
        with pytest.raises(TypeError):
            derive_seed(5.0, 1)
        with pytest.raises(TypeError):
            derive_seed(5, 1.0)
        with pytest.raises(TypeError):
            RngSeedSpec(5.0).transition_seed(0, 0)
        with pytest.raises(TypeError):
            next(standard_corpus(count=1, master_seed=7.0))

    @pytest.mark.parametrize("master", [0, 1, 123, 2**63, 2**64 - 1, -1])
    def test_seed_pass_matches_transition_seed(self, master):
        # the state words of every multi-state pair at once, from splitmix64
        # on uint64 arrays, are those of the per-pair derivation, in (s, a)
        # order
        spec = RngSeedSpec(master)
        for truth in (uniform_truth(1, 1), random_support_truth(7, 3, 0),
                      uniform_truth(200, 3)):
            tables = generative._PairTables(truth.transitions)
            (words,) = tables.derive([spec])
            S, A = truth.num_states, truth.num_actions
            seeds = np.array([[spec.transition_seed(s, a) for a in range(A)]
                              for s in range(S)], dtype=np.uint64)
            assert words.shape == (np.count_nonzero(tables.multi), 4)
            assert np.array_equal(words, generative._seed_words(seeds)[tables.multi])

    def test_streams_distinct_across_pairs(self):
        spec = RngSeedSpec(123)
        seeds = {spec.transition_seed(s, a) for s in range(10) for a in range(10)}
        assert len(seeds) == 100

    def test_trial_seeds_distinct(self):
        spec = RngSeedSpec(123)
        seeds = [spec.trial_seed(i) for i in range(1000)]
        assert len(set(seeds)) == 1000
