import math

import numpy as np
import pytest

from amdp_lab import (
    DeterministicPolicy,
    EnumerationBudgetError,
    SolverConvergenceError,
    aperiodicity_transform,
    amdp_gain_bias,
    chain_mixing_time,
    decompose_chain,
    diameter,
    finite_horizon_value,
    induce_chain,
    is_communicating,
    is_weakly_communicating,
    min_expected_hitting_times,
    mixing_time,
    span,
    structural_parameters,
    two_state_slow_chain,
)
from amdp_lab.chains import (
    _batch_aperiodic,
    _policy_batch,
    _structure_masks,
    all_deterministic_policies,
)
from amdp_lab.corpus import random_mdp, standard_corpus
from conftest import make_stay_or_cycle, make_transient_funnel, make_two_absorbing
from oracles import hitting_time_single_chain, policy_loop_aperiodic


def single_action_chain(m):
    return induce_chain(m, DeterministicPolicy(np.zeros(m.num_states, dtype=int)))


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

    def test_hitting_times_vector(self, slow4):
        T = min_expected_hitting_times(slow4, 1)
        assert T[1] == 0.0
        assert T[0] == pytest.approx(4.0, abs=1e-6)

    def test_sweep_cap_raises(self, slow4):
        with pytest.raises(SolverConvergenceError):
            min_expected_hitting_times(slow4, 1, max_sweeps=1)


class TestMixingTime:
    def test_cycle_is_periodic(self, cycle):
        assert math.isinf(mixing_time(cycle))

    @pytest.mark.parametrize("D,expected", [(4, 1.0), (100, 1.0)])
    def test_slow_chain(self, D, expected):
        assert mixing_time(two_state_slow_chain(D)) == expected

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

    def test_t_cap_raises_instead_of_inf(self, cycle):
        # t_mix = 35 on this lazy cycle: a cap below it is an error, not inf
        lazy = aperiodicity_transform(cycle, 0.01)
        chain = single_action_chain(lazy)
        for fn, arg in ((mixing_time, lazy), (chain_mixing_time, chain)):
            with pytest.raises(SolverConvergenceError):
                fn(arg, t_cap=10)
            assert fn(arg, t_cap=35) == 35.0

    def test_periodic_policy_found_among_aperiodic_ones(self):
        # only the policies moving at state 0 leave the 2-cycle periodic
        m = make_stay_or_cycle()
        policies, P_all, _, recurrent, multi = _policy_batch(m, budget=10**6)
        assert not multi.any()
        aperiodic = _batch_aperiodic(P_all > 0, recurrent)
        np.testing.assert_array_equal(~aperiodic, policies[:, 0] == 0)
        assert math.isinf(mixing_time(m))

    def test_multichain_policy_infinite(self):
        st = make_two_absorbing()
        assert math.isinf(mixing_time(st))

    def test_chain_variant_agrees_with_mdp_variant(self):
        for seed in range(5):
            m = random_mdp(4, 1, seed=seed)
            assert chain_mixing_time(single_action_chain(m)) == mixing_time(m)

    def test_budget_guard(self):
        m = random_mdp(6, 4, seed=0)
        with pytest.raises(EnumerationBudgetError):
            mixing_time(m, budget=10)

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


class TestBatchAperiodic:
    @pytest.mark.parametrize("S", range(1, 8))
    def test_matches_period_loop(self, S):
        rng = np.random.default_rng(1000 + S)
        support = _unichain_supports(rng, S, 400)
        _, recurrent = _structure_masks(support)
        batched = _batch_aperiodic(support, recurrent)
        np.testing.assert_array_equal(batched, policy_loop_aperiodic(support, recurrent))
        if S > 1:
            assert not batched.all()  # periodic classes were generated
            no_loop = ~np.any(np.diagonal(support & recurrent[:, None, :],
                                          axis1=1, axis2=2), axis=1)
            # some aperiodic classes had to be settled by the squaring
            assert (batched & no_loop).any() or S < 3


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
        assert is_communicating(m)
        assert is_weakly_communicating(m)

    def test_transient_funnel_weakly_only(self):
        m = make_transient_funnel()
        assert not is_communicating(m)
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


class TestStructuralParameters:
    def test_cycle_bundle(self, cycle):
        params = structural_parameters(cycle)
        assert params.diameter == pytest.approx(1.0, abs=1e-9)
        assert math.isinf(params.t_mix)
        assert params.H == pytest.approx(0.5, abs=1e-9)

    def test_invariant_assertion_is_exercised(self):
        # the bundle recomputes and revalidates on every call
        m = two_state_slow_chain(7)
        params = structural_parameters(m)
        assert params.H <= params.diameter + 1e-6

    def test_order_relations_on_sample(self):
        for _, m in standard_corpus(count=25, master_seed=99):
            params = structural_parameters(m)
            assert params.H <= params.diameter + 1e-6
            if math.isfinite(params.t_mix):
                assert params.H <= 8.0 * params.t_mix + 1e-6


class TestBlockSpanBound:
    def test_finite_horizon_span_bounded_by_mixing(self):
        # for aperiodic unichain policies, the recurrent-class restriction of
        # V_T has span at most 4 t_mix(policy), for any horizon
        checked = 0
        for _, m in standard_corpus(count=10, master_seed=3):
            for actions in all_deterministic_policies(m.num_states, m.num_actions,
                                                      budget=10**4)[:32]:
                pi = DeterministicPolicy(actions)
                chain = induce_chain(m, pi)
                t_mix = chain_mixing_time(chain)
                if not math.isfinite(t_mix):
                    continue
                members = decompose_chain(chain.matrix).recurrent_classes[0]
                for T in (1, 10, 100):
                    V = finite_horizon_value(m, pi, T)
                    assert span(V[members]) <= 4.0 * t_mix + 1e-6
                checked += 1
        assert checked > 50
