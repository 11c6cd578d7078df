import functools
import itertools
from dataclasses import replace

import numpy as np
import pytest

from amdp_lab import (
    GenerativeModel,
    HardInstanceSpec,
    RngSeedSpec,
    TabularMdp,
    algorithm1,
    build_empirical,
    derive_seed,
    dmdp_value_iteration,
    hard_instance,
    perturb_rewards,
    two_state_slow_chain,
    validate_mdp,
)
from amdp_lab.corpus import random_mdp, standard_corpus
from amdp_lab.reduction import reduction_params
from oracles import drawn_counts, per_pair_empirical, searchsorted_draws


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
        out, self.u = self.u[:n], self.u[n:]
        return out


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
        for seed in range(20):
            truth = random_support_truth(7, 3, seed)
            by_counts = GenerativeModel(truth, seed)
            by_batch = GenerativeModel(truth, seed)
            for s in range(7):
                for a in range(3):
                    for n in (0, 1, 37, 2000):
                        counts = by_counts.sample_counts(s, a, n)
                        assert counts.dtype == np.int64
                        assert np.array_equal(counts, np.bincount(
                            by_batch.sample_batch(s, a, n), minlength=7))
            assert np.array_equal(by_counts.sample_counter, by_batch.sample_counter)

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
        assert np.array_equal(by_counts.sample_counts(0, 0, len(u)),
                              np.bincount(batch, minlength=10))
        gm = GenerativeModel(truth, 5)
        assert np.array_equal(gm.sample_counts(0, 0, 10**5), np.bincount(
            GenerativeModel(truth, 5).sample_batch(0, 0, 10**5), minlength=10))

    def test_interleaving_counts_and_batches_keeps_streams(self):
        truth = random_support_truth(5, 2, 4)
        mixed = GenerativeModel(truth, 77)
        batches = GenerativeModel(truth, 77)
        plan = [(0, 0, 30), (3, 1, 5), (0, 0, 12), (4, 0, 1), (3, 1, 300),
                (0, 0, 7), (2, 1, 64)]
        for i, (s, a, n) in enumerate(plan):
            draws = batches.sample_batch(s, a, n)
            if i % 2 == 0:
                assert np.array_equal(mixed.sample_counts(s, a, n),
                                      np.bincount(draws, minlength=5))
            else:
                assert np.array_equal(mixed.sample_batch(s, a, n), draws)
        assert np.array_equal(mixed.sample_counter, batches.sample_counter)
        for s in range(5):
            for a in range(2):
                assert np.array_equal(mixed.sample_batch(s, a, 50),
                                      batches.sample_batch(s, a, 50))


class TestOneStatePairs:
    def test_point_mass_counts_and_no_stream(self):
        truth = make_deterministic_truth()
        for n in (0, 1, 7, 1000, 10**5):
            gm = GenerativeModel(truth, 3)
            for calls in (1, 2):
                assert np.array_equal(gm.sample_counts(0, 0, n), [0, n, 0])
                assert gm.sample_counter[0, 0] == calls * n
                assert not gm._streams
            assert gm.sample_counter.sum() == 2 * n

    def test_negative_n_raises_and_leaves_counter(self):
        one_state = GenerativeModel(make_deterministic_truth(), 3)
        dense = GenerativeModel(random_mdp(3, 2, seed=8), 3)
        for gm in (one_state, dense):
            for draw in (gm.sample_counts, gm.sample_batch):
                with pytest.raises(ValueError):
                    draw(0, 0, -1)
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
                slow.sample_counts = functools.partial(drawn_counts, slow)
                emp = build_empirical(fast, N, truth.rewards)
                ref = per_pair_empirical(slow, N, truth.rewards)
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
    def test_matches_per_pair_sample_counts(self):
        # one assignment for the one-state pairs and draws at the others
        # give the counts, the tallies and the streams of one sample_counts
        # call per pair
        truths = [hard_m1(6, 3), hard_m1(14, 4), make_deterministic_truth(),
                  *(random_support_truth(7, 3, seed) for seed in range(5))]
        for truth, master, N in itertools.product(truths, (0, 9), (1, 37, 5000)):
            fast = GenerativeModel(truth, master)
            slow = GenerativeModel(truth, master)
            rewards = perturb_rewards(truth.rewards, 1e-3, master)
            emp = build_empirical(fast, N, rewards)
            ref = per_pair_empirical(slow, N, rewards)
            assert np.array_equal(emp.transitions, ref.transitions)
            assert np.array_equal(emp.rewards, ref.rewards)
            assert emp.metadata == ref.metadata
            assert np.array_equal(fast.sample_counter, slow.sample_counter)
            assert sorted(fast._streams) == sorted(slow._streams)
            for pair, gen in fast._streams.items():
                assert gen.bit_generator.state == slow._streams[pair].bit_generator.state

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
                assert np.array_equal(by_numpy.sample_counts(s, a, 3),
                                      by_int.sample_counts(s, a, 3))

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
        # the model's seeds for every pair at once, from splitmix64 on
        # uint64 arrays, equal the per-pair derivation
        spec = RngSeedSpec(master)
        for S, A in ((1, 1), (7, 3), (200, 3)):
            gm = GenerativeModel(TabularMdp(S, A, np.full((S, A, S), 1.0 / S),
                                            np.zeros((S, A))), master)
            assert gm._seeds.shape == (S, A)
            assert [[int(x) for x in row] for row in gm._seeds] == [
                [spec.transition_seed(s, a) for a in range(A)] for s in range(S)]

    def test_streams_distinct_across_pairs(self):
        spec = RngSeedSpec(123)
        seeds = {spec.transition_seed(s, a) for s in range(10) for a in range(10)}
        assert len(seeds) == 100

    def test_trial_seeds_distinct(self):
        spec = RngSeedSpec(123)
        seeds = [spec.trial_seed(i) for i in range(1000)]
        assert len(set(seeds)) == 1000
