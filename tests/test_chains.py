import math
from itertools import product

import numpy as np
import pytest

from amdp_lab import (
    DeterministicPolicy,
    EnumerationBudgetError,
    GenerativeModel,
    HardInstanceSpec,
    SolverConvergenceError,
    aperiodicity_transform,
    amdp_gain_bias,
    amdp_optimal,
    build_empirical,
    decompose_chain,
    diameter,
    dmdp_policy_iteration,
    hard_instance,
    induce_chain,
    is_weakly_communicating,
    min_expected_hitting_times,
    mixing_time,
    perturb_rewards,
    span,
    two_state_slow_chain,
)
from amdp_lab.chains import (
    _cesaro_limit,
    _class_periods,
    _stationary,
    _structure_masks,
    all_deterministic_policies,
)
from amdp_lab.corpus import random_mdp, standard_corpus
from amdp_lab.solvers import horizon_iterates
from conftest import make_stay_or_cycle, make_transient_funnel, make_two_absorbing
from oracles import (
    bfs_communicating,
    bfs_periods,
    hitting_time_single_chain,
    masked_dmdp_policy_iteration,
    masked_hitting_times,
    set_loop_weakly_communicating,
    value_iteration_hitting_times,
    full_stack_mixing_time,
    normal_equation_stationary,
    per_class_limiting_matrix,
    power_loop_mixing_time,
    product_policies,
    whole_batch_mixing_time,
    whole_policy_batch,
)


def single_action_chain(m):
    return induce_chain(m, DeterministicPolicy(np.zeros(m.num_states, dtype=int)))


def chain_mixing_time(P) -> float:
    """Mixing time of one chain: mixing_time of its one-action MDP."""
    from amdp_lab import TabularMdp
    P = np.asarray(P, dtype=float)
    return mixing_time(TabularMdp(len(P), 1, P[:, None, :], np.zeros((len(P), 1))))


class TestDecompose:
    def test_cycle(self, cycle):
        st = decompose_chain(single_action_chain(cycle))
        assert len(st.recurrent_classes) == 1
        assert np.array_equal(st.recurrent_classes[0], [0, 1])
        np.testing.assert_allclose(st.stationary[0], [0.5, 0.5], atol=1e-12)
        assert st.period == (2,)
        np.testing.assert_allclose(st.limiting_matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_slow_chain(self, slow4):
        st = decompose_chain(single_action_chain(slow4))
        assert len(st.recurrent_classes) == 1
        np.testing.assert_allclose(st.stationary[0], [0.8, 0.2], atol=1e-12)
        assert st.period == (1,)

    def test_identity_matrix(self):
        st = decompose_chain(np.eye(3))
        assert len(st.recurrent_classes) == 3
        assert all(len(c) == 1 for c in st.recurrent_classes)
        np.testing.assert_allclose(st.limiting_matrix, np.eye(3), atol=1e-15)
        assert st.period == (1, 1, 1)

    def test_transient_absorption(self):
        # coin flip into two absorbing states
        P = np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        st = decompose_chain(P)
        assert np.array_equal(st.transient_states, [0])
        assert len(st.recurrent_classes) == 2
        np.testing.assert_allclose(st.limiting_matrix[0], [0.0, 0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_limiting_matrix_identities(self, seed):
        m = random_mdp(5, 1, seed=seed)
        P = single_action_chain(m).matrix
        P_star = decompose_chain(P).limiting_matrix
        np.testing.assert_allclose(P_star @ P, P_star, atol=1e-9)
        np.testing.assert_allclose(P @ P_star, P_star, atol=1e-9)
        np.testing.assert_allclose(P_star @ P_star, P_star, atol=1e-9)

    def test_partition_and_stationarity_on_structured_chain(self):
        # one 2-cycle, one absorbing state, one transient feeder
        P = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.1, 0.2, 0.3, 0.4],
        ])
        st = decompose_chain(P)
        members = sorted(int(s) for c in st.recurrent_classes for s in c)
        assert members + list(st.transient_states) == [0, 1, 2, 3]
        for c, nu in zip(st.recurrent_classes, st.stationary):
            sub = P[np.ix_(c, c)]
            np.testing.assert_allclose(nu @ sub, nu, atol=1e-10)
            assert nu.sum() == pytest.approx(1.0, abs=1e-12)


def _multichain_chains(rng, S: int, count: int) -> np.ndarray:
    """Seeded stochastic matrices on S states: 0..S-1 transient states and
    up to three closed classes on the rest (each a relabelled cycle, left
    periodic or given extra edges).  Each transient state has an edge into
    a class or to an earlier transient state, so no transient set closes."""
    out = np.zeros((count, S, S))
    for P in out:
        perm = rng.permutation(S)
        n_rec = S - int(rng.integers(S))  # states in closed classes
        k = int(rng.integers(1, min(n_rec, 3) + 1))
        cuts = np.sort(rng.choice(np.arange(1, n_rec), size=k - 1, replace=False))
        start = 0
        for end in [*cuts, n_rec]:
            cls = perm[start:end]
            P[cls, np.roll(cls, -1)] = 1.0
            if rng.random() < 0.7:  # extra edges inside the class
                P[np.ix_(cls, cls)] += rng.random((len(cls),) * 2) < 0.4
            start = end
        closed = list(perm[:start])
        for i, s in enumerate(perm[start:]):
            P[s] = rng.random(S) < 0.3
            P[s, rng.choice(closed + list(perm[start:start + i]))] = 1.0
        P *= rng.random((S, S)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
    return out


class TestCesaroLimit:
    @pytest.mark.parametrize("S", range(1, 8))
    def test_matches_per_class_oracle(self, S):
        chains = _multichain_chains(np.random.default_rng(2000 + S), S, 300)
        oracle = np.array([per_class_limiting_matrix(P) for P in chains])
        batched = _cesaro_limit(chains, *_structure_masks(chains > 0))
        np.testing.assert_allclose(batched, oracle, rtol=0, atol=1e-12)
        for P, P_star in zip(chains, oracle):
            st = decompose_chain(P)
            np.testing.assert_allclose(st.limiting_matrix, P_star, rtol=0, atol=1e-12)
            for c, nu in zip(st.recurrent_classes, st.stationary):
                np.testing.assert_allclose(nu, P_star[c[0], c], rtol=0, atol=1e-12)
        _, recurrent = _structure_masks(chains > 0)
        if S > 2:  # the batch covers multichain chains with transient states
            assert np.any(~recurrent.all(axis=1) & (np.trace(oracle, axis1=1, axis2=2) > 1.5))

    def test_stationary_matches_normal_equations(self):
        # every policy of dense corpus-style MDPs, where the normal equations
        # served the enumeration and mixing_time
        for seed in range(40):
            m = random_mdp(2 + seed % 5, 3, seed=seed)
            batch = whole_policy_batch(m)
            np.testing.assert_allclose(batch.nu, normal_equation_stationary(batch.P_all),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("S", range(1, 8))
    def test_stationary_on_unichain_with_transients(self, S):
        # the normal equations square the condition number: on these sparse
        # chains the two differ by up to 1.6e-11 (S=5), where the balance
        # residual is 3.6e-14 for the normal equations and 0 for _stationary
        rng = np.random.default_rng(3000 + S)
        P = _unichain_supports(rng, S, 300) * (rng.random((300, S, S)) + 0.05)
        P /= P.sum(axis=2, keepdims=True)
        comm, recurrent = _structure_masks(P > 0)
        nu = _stationary(P, comm, recurrent)
        np.testing.assert_allclose(nu, normal_equation_stationary(P), rtol=0, atol=1e-9)
        np.testing.assert_allclose(nu[~recurrent], 0.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(nu.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class TestDiameter:
    def test_cycle(self, cycle):
        assert diameter(cycle) == pytest.approx(1.0, abs=1e-9)

    def test_slow_chain_matches_linear_solve(self, slow4):
        # oracle: direct hitting-time solves give E_x[tau_y] = 4, E_y[tau_x] = 1
        P = single_action_chain(slow4).matrix
        assert hitting_time_single_chain(P, 1)[0] == pytest.approx(4.0)
        assert hitting_time_single_chain(P, 0)[1] == pytest.approx(1.0)
        assert diameter(slow4) == pytest.approx(4.0, abs=1e-6)

    def test_min_over_actions(self):
        # second action reaches the target directly; diameter uses the best
        from amdp_lab import TabularMdp
        P = np.zeros((2, 2, 2))
        P[0, 0, 0] = 1.0   # bad action: self-loop
        P[0, 1, 1] = 1.0   # good action: straight there
        P[1, :, 0] = 1.0
        m = TabularMdp(2, 2, P, np.zeros((2, 2)))
        assert diameter(m) == pytest.approx(1.0, abs=1e-9)

    def test_unreachable_is_infinite(self):
        from amdp_lab import TabularMdp
        P = np.zeros((2, 1, 2))
        P[0, 0, 0] = 1.0
        P[1, 0, 1] = 1.0
        m = TabularMdp(2, 1, P, np.zeros((2, 1)))
        assert math.isinf(diameter(m))

    def test_not_communicating_is_inf_at_200_states(self):
        # a large MDP with one absorbing state: no other state is reachable
        # from it, so the all-target solve is +inf there
        from amdp_lab import TabularMdp

        m = random_mdp(200, 2, seed=200)
        P = m.transitions.copy()
        P[0] = np.eye(200)[0]
        m = TabularMdp(200, 2, P, m.rewards)
        assert not bfs_communicating(m)
        assert diameter(m) == math.inf

    def test_hitting_times_infinite_exactly_when_not_communicating(self):
        # the all-target solve has an infinite entry iff the closure says
        # the MDP is not communicating, so diameter needs no closure of its own
        from amdp_lab import chains

        ms = _sparse_mdps()
        infinite = [bool(np.isinf(chains._hitting_times(m, np.arange(m.num_states))).any())
                    for m in ms]
        assert sum(infinite) == 110
        assert infinite == [not bfs_communicating(m) for m in ms]
        assert [math.isinf(diameter(m)) for m in ms] == infinite

    def test_hitting_times_vector(self, slow4):
        T = min_expected_hitting_times(slow4, 1)
        assert T[1] == 0.0
        assert T[0] == pytest.approx(4.0, abs=1e-6)

    @pytest.mark.parametrize("target", [-1, 2])
    def test_target_out_of_range_raises(self, slow4, target):
        # numpy would wrap -1 to the last state and answer for target 1
        with pytest.raises(IndexError, match="out of range"):
            min_expected_hitting_times(slow4, target)

    def test_iteration_cap_raises(self, monkeypatch):
        # the reach-layer start takes action 0 at state 0 (T = 10); one
        # improvement to action 1 (T = 1) makes two evaluations in all
        from amdp_lab import TabularMdp, chains
        P = np.zeros((2, 2, 2))
        P[0, 0] = [0.9, 0.1]
        P[0, 1, 1] = 1.0
        P[1, :, 0] = 1.0
        m = TabularMdp(2, 2, P, np.zeros((2, 2)))
        monkeypatch.setattr(chains, "PI_MAX_ITERATIONS", 1)
        with pytest.raises(SolverConvergenceError):
            diameter(m)
        with pytest.raises(SolverConvergenceError):
            min_expected_hitting_times(m, 1)
        monkeypatch.setattr(chains, "PI_MAX_ITERATIONS", 2)
        assert diameter(m) == 1.0
        assert np.array_equal(min_expected_hitting_times(m, 1), [1.0, 0.0])

    @pytest.mark.parametrize("variant", ["M0", "M1"])
    @pytest.mark.parametrize("D,expected", [(32, 9.4), (1e3, 203.0), (1e4, 2003.0)])
    def test_exact_on_hard_family(self, variant, D, expected):
        # value iteration stopped about 1e-9 short here (2002.99999896 at 1e4)
        m = hard_instance(HardInstanceSpec(S=6, A=3, D=D, epsilon=1.0 / 32.0,
                                           variant=variant))
        d = diameter(m)
        assert d == pytest.approx(expected, rel=1e-12, abs=0)
        assert amdp_optimal(m).H <= d

    def test_matches_value_iteration_on_corpus(self):
        _assert_hitting_times_match_oracle(
            m for _, m in standard_corpus(count=1000, max_states=6,
                                          max_actions=4, master_seed=7))

    def test_matches_value_iteration_on_sparse_mdps(self):
        ms = _sparse_mdps()
        assert sum(math.isinf(diameter(m)) for m in ms) > 100
        _assert_hitting_times_match_oracle(ms)

    def test_matches_masked_policy_iteration_bit_for_bit(self):
        # terminal states and forbidden actions as data give the same bits
        # as the masked loop they replaced, for both exact solves; and one
        # solve over a stack of same-shape MDPs, each with its own P, gives
        # every one of them the bits of its own K = 1 solve
        from amdp_lab.solvers import _dmdp_optimal_q

        ms = [m for _, m in standard_corpus(count=1000, max_states=6,
                                            max_actions=4, master_seed=7)]
        ms += _sparse_mdps() + _hard_family()
        for truth in _hard_family():
            if truth.metadata["variant"] != "M1" or truth.metadata["D"] != 32:
                continue
            ms += [build_empirical(GenerativeModel(truth, seed), 1000,
                                   perturb_rewards(truth.rewards, 1e-6, seed))
                   for seed in range(4)]
            assert len({m.transitions.tobytes() for m in ms[-4:]}) == 4
        stacks = {}
        for m in ms:
            T = masked_hitting_times(m)
            for t in range(m.num_states):
                assert np.array_equal(min_expected_hitting_times(m, t), T[t])
            assert diameter(m) == float(T.max())
            for gamma in (0.5, 0.99, 1 - 1e-6):
                Q, V, pi = dmdp_policy_iteration(m, gamma)
                Q_old, V_old, actions = masked_dmdp_policy_iteration(m, gamma)
                assert np.array_equal(Q, Q_old)
                assert np.array_equal(V, V_old)
                assert np.array_equal(pi.actions, actions)
                stacks.setdefault((m.transitions.shape, gamma), []).append((m, Q))
        for ((S, A, _), gamma), group in stacks.items():
            Q_stack = _dmdp_optimal_q(np.stack([m.transitions for m, _ in group]),
                                      np.stack([m.rewards for m, _ in group]), gamma)
            assert np.array_equal(Q_stack, np.stack([Q for _, Q in group]))
        assert min(len(stacks[(6, 3, 6), 0.5]), len(stacks[(14, 4, 14), 0.5])) >= 6 + 4

    def test_hitting_time_chunks_change_no_bits(self, monkeypatch):
        # one target per chunk against one chunk for every target
        from amdp_lab import chains

        ms = [m for m in _hard_family() if m.num_states == 14] + _sparse_mdps()
        whole = [(diameter(m), chains._hitting_times(m, np.arange(m.num_states)))
                 for m in ms]
        monkeypatch.setattr(chains, "_CHUNK_BYTES", 1)
        for m, (D, T) in zip(ms, whole):
            assert diameter(m) == D
            assert np.array_equal(chains._hitting_times(m, np.arange(m.num_states)), T)


def _hard_family() -> list:
    """M0 and M1 at S6A3 and S14A4, D in {32, 1e3, 1e4}, epsilon = 1/32."""
    return [hard_instance(HardInstanceSpec(S=S, A=A, D=D, epsilon=1 / 32,
                                           variant=variant))
            for S, A in ((6, 3), (14, 4)) for D in (32, 1e3, 1e4)
            for variant in ("M0", "M1")]


def _sparse_mdps(count: int = 600) -> list:
    """Seeded MDPs with S in 1..7, A in 1..3 and supports of size 1-3, many
    of them with pairs that no policy connects."""
    from amdp_lab import TabularMdp
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(count):
        S, A = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        P = np.zeros((S, A, S))
        for s, a in product(range(S), range(A)):
            k = int(rng.integers(1, min(3, S) + 1))
            P[s, a, rng.choice(S, k, replace=False)] = rng.random(k) + 0.05
        P /= P.sum(axis=2, keepdims=True)
        out.append(TabularMdp(S, A, P, rng.random((S, A))))
    return out


def _assert_hitting_times_match_oracle(ms) -> None:
    """diameter and every min_expected_hitting_times vector agree with
    per-target value iteration within 1e-9 relative, with the same +inf
    entries."""
    for m in ms:
        vectors = value_iteration_hitting_times(m, tol=1e-11)
        T = np.array([min_expected_hitting_times(m, t) for t in range(m.num_states)])
        assert np.array_equal(np.isinf(T), np.isinf(vectors))
        np.testing.assert_allclose(T[np.isfinite(T)], vectors[np.isfinite(T)],
                                   rtol=1e-9, atol=0)
        worst = max(float(np.delete(v, t).max(initial=0.0))
                    for t, v in enumerate(vectors))
        if math.isinf(worst):
            assert math.isinf(diameter(m))
        else:
            assert diameter(m) == pytest.approx(worst, rel=1e-9, abs=0)


class TestPolicyEnumeration:
    def test_matches_product_oracle(self):
        # every (S, A) with A^S <= 4096, up to S = 12 and A = 64
        # and one-action MDPs past numpy's limit on array dimensions
        sizes = [(S, A) for S in range(1, 13) for A in range(1, 65) if A**S <= 4096]
        assert len(sizes) > 150
        sizes += [(64, 1), (100, 1), (2, 300)]
        for S, A in sizes:
            policies = all_deterministic_policies(S, A)
            assert np.array_equal(policies, product_policies(S, A))
            assert policies.dtype == np.min_scalar_type(A - 1)


class TestMixingTime:
    def test_cycle_is_periodic(self, cycle):
        assert math.isinf(mixing_time(cycle))

    @pytest.mark.parametrize("D,expected", [(4, 1.0), (100, 1.0)])
    def test_slow_chain(self, D, expected):
        assert mixing_time(two_state_slow_chain(D)) == expected

    def test_slow_chain_needs_D_at_least_one(self):
        with pytest.raises(ValueError, match="at least 1"):
            two_state_slow_chain(0.5)

    def test_lazy_cycle_sequence(self, cycle):
        # frozen oracle: l1 distance decays as |1-2 tau|^t, thresholds at 1/2
        expected = {0.25: 1.0, 0.1: 4.0, 0.01: 35.0}
        values = []
        for tau in (0.25, 0.1, 0.01):
            lazy = aperiodicity_transform(cycle, tau)
            t_mix = mixing_time(lazy)
            assert t_mix == expected[tau]
            assert diameter(lazy) <= 2.0 + 1e-9
            values.append(t_mix)
        assert values[0] < values[1] < values[2]

    def test_t_cap_raises_instead_of_inf(self, cycle, monkeypatch):
        # t_mix = 35 on this lazy cycle: a cap below it is an error, not inf
        from amdp_lab import chains
        lazy = aperiodicity_transform(cycle, 0.01)
        monkeypatch.setattr(chains, "MIXING_MAX_STEPS", 10)
        with pytest.raises(SolverConvergenceError):
            mixing_time(lazy)
        monkeypatch.setattr(chains, "MIXING_MAX_STEPS", 35)
        assert mixing_time(lazy) == 35.0

    def test_periodic_policy_found_among_aperiodic_ones(self):
        # only the policies moving at state 0 leave the 2-cycle periodic
        m = make_stay_or_cycle()
        P_all, comm, recurrent, multi, _ = whole_policy_batch(m)
        assert not multi.any()
        periods = _class_periods(P_all > 0, comm, recurrent)
        policies = all_deterministic_policies(m.num_states, m.num_actions)
        np.testing.assert_array_equal(periods.max(axis=1) > 1, policies[:, 0] == 0)
        assert math.isinf(mixing_time(m))

    def test_multichain_policy_infinite(self):
        st = make_two_absorbing()
        assert math.isinf(mixing_time(st))

    def test_chain_variant_matches_power_loop_oracle(self):
        # corpus policies' chains plus multichain and periodic ones
        rng = np.random.default_rng(77)
        matrices = [single_action_chain(m).matrix
                   for _, m in standard_corpus(count=40, master_seed=3)
                   if m.num_actions == 1]
        matrices += [induce_chain(m, DeterministicPolicy(actions)).matrix
                    for _, m in standard_corpus(count=10, master_seed=3)
                    for actions in all_deterministic_policies(
                        m.num_states, m.num_actions)[:16]]
        matrices += [P for S in range(1, 7) for P in _multichain_chains(rng, S, 30)]
        values = [chain_mixing_time(P) for P in matrices]
        assert values == [power_loop_mixing_time(P) for P in matrices]
        assert sum(math.isinf(v) for v in values) > 50
        assert sum(v > 1 for v in values if math.isfinite(v)) > 20

    def test_chain_of_100_states(self):
        # a lazy 100-cycle with a uniform jump: its one-action MDP has more
        # states than numpy allows array dimensions
        S = 100
        P = 0.5 * np.eye(S) + 0.3 * np.roll(np.eye(S), 1, axis=1) + 0.2 / S
        t_mix = chain_mixing_time(P)
        assert t_mix == power_loop_mixing_time(P)
        assert t_mix > 1

    def test_matches_full_stack_oracle(self):
        # stepping only the unmixed policies changes no t_mix: the corpus,
        # then lazy transforms of a few corpus MDPs, where t_mix is long
        corpus = [m for _, m in standard_corpus(count=200, master_seed=7)]
        values = [mixing_time(m) for m in corpus]
        assert values == [full_stack_mixing_time(m) for m in corpus]
        assert sum(math.isfinite(v) for v in values) > 100
        slow = [aperiodicity_transform(m, tau) for tau in (0.9, 0.99)
                for m in corpus if m.num_states >= 4 and m.num_actions >= 2][::20]
        values = [mixing_time(m) for m in slow]
        assert values == [full_stack_mixing_time(m) for m in slow]
        assert sum(v > 100 for v in values if math.isfinite(v)) >= 2

    @pytest.mark.parametrize("per_chunk,margin", [
        pytest.param(1, None, id="1"), pytest.param(5, None, id="5"),
        pytest.param(None, None, id="None"), pytest.param(1, 1.0, id="1-exact"),
        pytest.param(5, 1.0, id="5-exact"), pytest.param(None, 1.0, id="None-exact")])
    def test_chunks_match_whole_batch_oracle(self, per_chunk, margin, monkeypatch):
        # chunks of 1 and 5 policies, and one chunk of every policy, against
        # one batch of every policy's chain; a margin of 1.0 settles no
        # chain, so every policy takes the exact path
        from amdp_lab import chains
        if margin is not None:
            monkeypatch.setattr(chains, "_MARGIN", margin)
        corpus = [m for _, m in standard_corpus(count=200, master_seed=7)]
        slow = [aperiodicity_transform(m, tau) for tau in (0.9, 0.99)
                for m in corpus if m.num_states >= 4 and m.num_actions >= 2][::20]
        ms = corpus + slow + [make_stay_or_cycle(), make_two_absorbing()] + _sparse_mdps()
        expected = [whole_batch_mixing_time(m) for m in ms]
        values = []
        for m in ms:
            count = per_chunk or m.num_actions**m.num_states
            monkeypatch.setattr(chains, "_CHUNK_BYTES", 64 * m.num_states**2 * count)
            values.append(mixing_time(m))
        assert values == expected
        assert sum(math.isinf(v) for v in values) > 100
        assert sum(v > 100 for v in values if math.isfinite(v)) >= 2

    @pytest.mark.parametrize("order", ["stuck_first", "periodic_first"])
    def test_infinite_chunk_outranks_stuck_chunk(self, order, monkeypatch):
        # one policy per chunk: policy (0, 0) mixes in 35 steps, past the
        # patched cap, and policy (1, 1) is a 2-cycle; swapping the actions
        # puts the cycle in the first chunk and the slow policy in the last
        from amdp_lab import TabularMdp, chains
        P = np.zeros((2, 2, 2))
        P[0, 0], P[0, 1] = [0.99, 0.01], [0.0, 1.0]
        P[1, 0], P[1, 1] = [0.01, 0.99], [1.0, 0.0]
        if order == "periodic_first":
            P = P[:, ::-1]
        m = TabularMdp(2, 2, P, np.zeros((2, 2)))
        assert mixing_time(m) == math.inf
        monkeypatch.setattr(chains, "MIXING_MAX_STEPS", 10)
        monkeypatch.setattr(chains, "_CHUNK_BYTES", 1)
        with pytest.raises(SolverConvergenceError):
            chain_mixing_time(P[np.arange(2), [0, 0] if order == "stuck_first" else [1, 1]])
        assert whole_batch_mixing_time(m) == math.inf
        assert mixing_time(m) == math.inf

    def test_memory_flat_at_65536_policies(self):
        # the whole (65536, 8, 8) float64 stack alone takes 32 MiB
        import tracemalloc
        m = random_mdp(8, 4, seed=0)
        tracemalloc.start()
        try:
            t_mix = mixing_time(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(t_mix)
        assert peak <= 4_000_000

    def test_budget_guard(self, monkeypatch):
        from amdp_lab import chains
        m = random_mdp(6, 4, seed=0)
        monkeypatch.setattr(chains, "ENUMERATION_BUDGET", 10)
        with pytest.raises(EnumerationBudgetError):
            mixing_time(m)

    def test_distance_non_increasing(self):
        # d(t) is non-increasing for an aperiodic unichain policy
        m = random_mdp(5, 1, seed=2)
        chain = single_action_chain(m)
        st = decompose_chain(chain.matrix)
        nu = st.limiting_matrix[0]
        X = chain.matrix.copy()
        dists = []
        for _ in range(25):
            dists.append(np.max(np.abs(X - nu).sum(axis=1)))
            X = X @ chain.matrix
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def _power_bound(P: np.ndarray):
    """(L, err) of mixing_time's bound for a stack of chains: L = P^64 by
    numpy's own powering, err = max_u ||L[u] - L[0]||_1."""
    from amdp_lab import chains
    L = np.linalg.matrix_power(P, 2**chains._SQUARINGS)
    return L, np.abs(L - L[:, :1]).sum(axis=2).max(axis=1)


class TestMixingBound:
    def test_stationary_within_err_of_first_row(self):
        # nu = nu L mixes L's rows, so ||nu - L[0]||_1 <= err, up to the
        # rounding of 64 steps and of the solve (1e-12 at S <= 6)
        corpus = [m for _, m in standard_corpus(count=200, master_seed=7)]
        ms = corpus + [aperiodicity_transform(m, tau) for tau in (0.5, 0.9, 0.99)
                       for m in corpus[:40]]
        settled = 0
        for m in ms:
            batch = whole_policy_batch(m)
            P_all, comm, recurrent = (x[~batch.multi] for x in batch[:3])
            nu = _stationary(P_all, comm, recurrent)
            L, err = _power_bound(P_all)
            assert np.all(np.abs(nu - L[:, 0]).sum(axis=1) <= err + 1e-12)
            settled += int(np.sum(err < 0.5))
        assert settled > 100_000

    def test_periodic_and_multichain_chains_stay_pending(self, cycle):
        # two closed classes, or two cyclic subclasses, give disjoint rows
        # of L, so err >= 1/2 and _settle leaves the chain to the exact path
        from amdp_lab.chains import _settle
        ms = [make_stay_or_cycle(), make_two_absorbing(), cycle] + _sparse_mdps()
        checked = 0
        for m in ms:
            batch = whole_policy_batch(m)
            periods = bfs_periods(batch.P_all > 0, batch.comm, batch.recurrent)
            bad = batch.multi | (periods.max(axis=1) > 1)
            if bad.any():
                assert np.all(_power_bound(batch.P_all[bad])[1] >= 0.5)
                assert np.all(_settle(batch.P_all[bad], 0)[1])
                checked += int(bad.sum())
        assert checked > 1000

    @pytest.mark.parametrize("P,expected", [
        ([[0.5, 0.5], [0.0, 1.0]], 2.0),
        ([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]], 3.0)])
    def test_distance_exactly_half_takes_exact_path(self, P, expected):
        # the distance is exactly 1/2 at t = expected, inside any band, so
        # the chain is left pending and gets the exact path's t
        from amdp_lab.chains import _settle
        P = np.array(P)
        assert _power_bound(P[None])[1][0] < 1e-15
        assert _settle(P[None], 0)[1][0]
        assert chain_mixing_time(P) == expected == power_loop_mixing_time(P)

    def test_zero_squarings_match_whole_batch_oracle(self, monkeypatch):
        # with L = P the bound settles fewer chains, and t_mix is unchanged
        from amdp_lab import chains
        corpus = [m for _, m in standard_corpus(count=200, master_seed=7)]
        slow = [aperiodicity_transform(m, tau) for tau in (0.9, 0.99)
                for m in corpus if m.num_states >= 4 and m.num_actions >= 2][::20]
        ms = corpus + slow + [make_stay_or_cycle(), make_two_absorbing()] + _sparse_mdps()
        expected = [whole_batch_mixing_time(m) for m in ms]
        monkeypatch.setattr(chains, "_SQUARINGS", 0)
        exact, batch_of = [], chains._policy_batch
        monkeypatch.setattr(chains, "_policy_batch",
                            lambda m, p: exact.append(len(p)) or batch_of(m, p))
        assert [mixing_time(m) for m in ms] == expected
        # both paths ran: some policies settled, others were solved
        assert 0 < sum(exact) < sum(m.num_actions**m.num_states for m in ms)


def _unichain_supports(rng, S: int, count: int) -> np.ndarray:
    """Seeded stochastic supports on S states with exactly one closed class:
    sparse random digraphs, and relabelled cycles with and without a chord,
    bipartite classes and singleton absorbing classes, these three with
    random transient feeders."""
    out = []
    while len(out) < count:
        kind = rng.integers(4)
        A = np.zeros((S, S), dtype=bool)
        perm = rng.permutation(S)
        k = int(rng.integers(1, S + 1))  # class size
        cls = perm[:k]
        if kind == 0:
            A = rng.random((S, S)) < rng.choice([0.1, 0.25, 0.5])
        elif kind == 1:  # cycle, optionally with a chord making it aperiodic
            A[cls, np.roll(cls, -1)] = True
            if k > 2 and rng.random() < 0.5:
                A[cls[0], cls[int(rng.integers(2, k))]] = True
        elif kind == 2:  # bipartite class: every edge crosses the cut
            cut = int(rng.integers(1, k)) if k > 1 else 1
            left, right = cls[:cut], cls[cut:]
            A[np.ix_(left, right)] = rng.random((len(left), len(right))) < 0.7
            A[np.ix_(right, left)] = rng.random((len(right), len(left))) < 0.7
        else:  # singleton absorbing class
            A[cls[0], cls[0]] = True
        rest = perm[k:] if kind else np.arange(0)
        for s in rest:  # transient feeders point anywhere
            A[s] |= rng.random(S) < 0.3
        empty = ~A.any(axis=1)
        A[empty, rng.integers(S, size=int(empty.sum()))] = True
        comm, recurrent = _structure_masks(A)
        rec = np.flatnonzero(recurrent)
        if comm[np.ix_(rec, rec)].all():
            out.append(A)
    return np.array(out)


def _assert_periods_match_bfs(support: np.ndarray) -> np.ndarray:
    """_class_periods of a batch of supports, checked against the BFS
    oracle state by state."""
    comm, recurrent = _structure_masks(support)
    periods = _class_periods(support, comm, recurrent)
    np.testing.assert_array_equal(periods, bfs_periods(support, comm, recurrent))
    return periods


class TestBatchAperiodic:
    """chains._class_periods, the one period routine, against the per-class
    BFS of tests/oracles.py: integer periods, 0 on transient states."""

    @pytest.mark.parametrize("S", range(1, 8))
    def test_matches_period_loop(self, S):
        rng = np.random.default_rng(1000 + S)
        support = np.concatenate([_unichain_supports(rng, S, 400),
                                  _multichain_chains(rng, S, 200) > 0])
        periods = _assert_periods_match_bfs(support)
        if S > 1:
            assert periods.max() > 1  # periodic classes were generated
            _, recurrent = _structure_masks(support)
            loops = np.diagonal(support, axis1=1, axis2=2) & recurrent
            # some aperiodic classes had to be settled by the BFS
            bfs = np.any(recurrent & ~loops, axis=1)
            assert np.any(bfs[:, None] & (periods == 1)) or S < 3

    @pytest.mark.parametrize("edges, expected", [
        # classes {0, 1} of period 2 and {2, 3, 4} of period 3, 5 transient
        ([(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (5, 0), (5, 2)],
         [2, 2, 3, 3, 3, 0]),
        # a 3-cycle where only state 1 has a self-loop
        ([(0, 1), (1, 2), (2, 0), (1, 1)], [1, 1, 1]),
        # a transient 2-cycle {0, 1} feeding a closed 2-cycle {2, 3}
        ([(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)], [0, 0, 2, 2]),
        ([(0, 0)], [1]),
    ])
    def test_hand_built(self, edges, expected):
        support = np.zeros((1, len(expected), len(expected)), dtype=bool)
        support[0][tuple(zip(*edges))] = True
        periods = _assert_periods_match_bfs(support)
        np.testing.assert_array_equal(periods[0], expected)

    def test_cycle_of_200_states(self):
        # levels and gaps reach 200, past what int8 holds
        st = decompose_chain(np.roll(np.eye(200), 1, axis=1))
        assert st.period == (200,)
        assert isinstance(st.period[0], int)

    def test_policy_chains_of_corpus_and_hard_family(self):
        ms = [m for _, m in standard_corpus(count=200, master_seed=7)]
        ms += [hard_instance(HardInstanceSpec(S=6, A=3, D=32, epsilon=1 / 32,
                                              variant=variant, **kl))
               for variant, kl in (("M0", {}), ("M1", {}),
                                   ("MKL", {"k": 2, "l": 2}))]
        for m in ms:
            _assert_periods_match_bfs(whole_policy_batch(m).P_all > 0)


class TestAperiodicityTransform:
    def test_half_on_cycle(self, cycle):
        lazy = aperiodicity_transform(cycle, 0.5)
        np.testing.assert_allclose(lazy.transitions[:, 0, :], np.full((2, 2), 0.5),
                                   atol=1e-15)

    def test_composition_identity(self):
        m = random_mdp(4, 2, seed=8)
        twice = aperiodicity_transform(aperiodicity_transform(m, 0.3), 0.2)
        once = aperiodicity_transform(m, 1.0 - (1.0 - 0.3) * (1.0 - 0.2))
        np.testing.assert_allclose(twice.transitions, once.transitions, atol=1e-14)

    def test_gain_invariance(self):
        m = random_mdp(5, 3, seed=4)
        lazy = aperiodicity_transform(m, 0.37)
        for a in range(3):
            pi = DeterministicPolicy(np.full(5, a))
            np.testing.assert_allclose(amdp_gain_bias(m, pi).gain,
                                       amdp_gain_bias(lazy, pi).gain, atol=1e-10)

    def test_range_check(self, cycle):
        with pytest.raises(ValueError):
            aperiodicity_transform(cycle, 0.0)
        with pytest.raises(ValueError):
            aperiodicity_transform(cycle, 1.0)


class TestConnectivity:
    def test_dense_positive_is_communicating(self):
        m = random_mdp(4, 2, seed=1)
        assert bfs_communicating(m)
        assert is_weakly_communicating(m)

    def test_transient_funnel_weakly_only(self):
        m = make_transient_funnel()
        assert not bfs_communicating(m)
        assert is_weakly_communicating(m)

    def test_two_absorbing_not_weakly(self):
        assert not is_weakly_communicating(make_two_absorbing())

    def test_escapable_self_loop_breaks_weakness(self):
        # a policy can close {0}, and 0 is unreachable from 1
        from amdp_lab import TabularMdp
        P = np.zeros((2, 2, 2))
        P[0, 0, 0] = 1.0
        P[0, 1, 1] = 1.0
        P[1, :, 1] = 1.0
        m = TabularMdp(2, 2, P, np.zeros((2, 2)))
        assert not is_weakly_communicating(m)


    def test_stays_inside_matches_set_loop(self):
        escapable = np.zeros((2, 2, 2))
        escapable[0, 0, 0] = escapable[0, 1, 1] = 1.0
        escapable[1, :, 1] = 1.0
        from amdp_lab import TabularMdp
        fixtures = [random_mdp(4, 2, seed=1), make_transient_funnel(),
                    make_two_absorbing(), TabularMdp(2, 2, escapable, np.zeros((2, 2)))]
        corpus = [m for _, m in standard_corpus(count=1000, max_states=6,
                                                 max_actions=4, master_seed=7)]
        for m in fixtures + corpus + _sparse_mdps():
            assert is_weakly_communicating(m) == set_loop_weakly_communicating(m)


class TestStructuralParameters:
    def test_cycle_bundle(self, cycle):
        assert diameter(cycle) == pytest.approx(1.0, abs=1e-9)
        assert math.isinf(mixing_time(cycle))
        assert amdp_optimal(cycle).H == pytest.approx(0.5, abs=1e-9)

    def test_order_relations_on_sample(self):
        for _, m in standard_corpus(count=25, master_seed=99):
            D, t_mix, H = diameter(m), mixing_time(m), amdp_optimal(m).H
            assert H <= D + 1e-6
            if math.isfinite(t_mix):
                assert H <= 8.0 * t_mix + 1e-6

    def test_matches_separate_calls(self):
        # solvers' one analysis gives the same numbers, bit for bit
        from amdp_lab import solvers

        for _, m in standard_corpus(count=100, master_seed=7):
            D, t_mix, opt = solvers._analysis(m)
            assert (D, t_mix, opt.H) == (diameter(m), mixing_time(m), amdp_optimal(m).H)


class TestBlockSpanBound:
    def test_finite_horizon_span_bounded_by_mixing(self):
        # for aperiodic unichain policies, the recurrent-class restriction of
        # V_T has span at most 4 t_mix(policy), for any horizon
        checked = 0
        for _, m in standard_corpus(count=10, master_seed=3):
            for actions in all_deterministic_policies(m.num_states,
                                                      m.num_actions)[:32]:
                pi = DeterministicPolicy(actions)
                chain = induce_chain(m, pi)
                t_mix = chain_mixing_time(chain.matrix)
                if not math.isfinite(t_mix):
                    continue
                members = decompose_chain(chain.matrix).recurrent_classes[0]
                for T in (1, 10, 100):
                    V = horizon_iterates(chain.matrix, chain.reward, T)[-1]
                    assert span(V[members]) <= 4.0 * t_mix + 1e-6
                checked += 1
        assert checked > 50
