from dataclasses import replace

import numpy as np
import pytest

from amdp_lab import (
    DeterministicPolicy,
    TabularMdp,
    amdp_gain_bias,
    amdp_optimal,
    bellman_optimality_residual,
    decompose_chain,
    dmdp_policy_iteration,
    dmdp_policy_value,
    dmdp_value_iteration,
    h_gamma_star,
    induce_chain,
    is_weakly_communicating,
    relative_value_iteration,
    span,
)
from amdp_lab.hard_instances import HardInstanceSpec, hard_instance
from amdp_lab.corpus import random_mdp, standard_corpus
from amdp_lab.solvers import _power_iterates, horizon_iterates
from conftest import make_stay_or_cycle, make_transient_funnel
from oracles import (
    bellman_evaluation,
    cesaro_bias,
    cesaro_gain,
    enumerated_optimum,
    finite_values,
    first_tie_optimum,
    per_class_limiting_matrix,
    policies_and_rewards,
    policy_gains,
    slow_path_best_gain,
    stepped_power_iterates,
    whole_policy_batch,
)

GAMMAS = (0.5, 0.9, 0.99)


class TestDmdpPolicyValue:
    def test_self_loop_geometric(self, self_loop, ):
        pi = DeterministicPolicy(np.array([0]))
        m = replace(self_loop, rewards=np.array([[1.0]]))
        assert dmdp_policy_value(m, pi, 0.9)[0] == pytest.approx(10.0, abs=1e-10)

    def test_cycle_closed_form_and_oracle(self, cycle, cycle_policy):
        V = dmdp_policy_value(cycle, cycle_policy, 0.9)
        np.testing.assert_allclose(V, [1 / (1 - 0.81), 0.9 / (1 - 0.81)], atol=1e-10)
        chain = induce_chain(cycle, cycle_policy)
        oracle = bellman_evaluation(chain.matrix, chain.reward, 0.9, tol=1e-13)
        np.testing.assert_allclose(V, oracle, atol=1e-12)

    def test_zero_rewards(self):
        m = replace(random_mdp(4, 2, seed=0), rewards=np.zeros((4, 2)))
        V = dmdp_policy_value(m, DeterministicPolicy(np.zeros(4, dtype=int)), 0.7)
        np.testing.assert_allclose(V, 0.0, atol=1e-14)

    def test_gamma_range(self, cycle, cycle_policy):
        with pytest.raises(ValueError):
            dmdp_policy_value(cycle, cycle_policy, 1.0)


class TestDmdpValueIteration:
    def test_single_state_two_actions(self):
        m = TabularMdp(1, 2, np.ones((1, 2, 1)), np.array([[0.2, 0.8]]))
        Q, V, pi = dmdp_value_iteration(m, 0.5, 1e-10)
        assert pi.actions[0] == 1
        assert V[0] == pytest.approx(1.6, abs=1e-9)

    def test_zero_rewards_tie_break(self):
        m = replace(random_mdp(3, 3, seed=2), rewards=np.zeros((3, 3)))
        Q, V, pi = dmdp_value_iteration(m, 0.9, 1e-8)
        assert np.array_equal(Q, np.zeros((3, 3)))
        assert np.array_equal(pi.actions, np.zeros(3, dtype=int))

    def test_stay_beats_cycle_at_high_gamma(self):
        # frozen policy-evaluation oracle: stay = 60.0, cycle = 50.25125628...
        m = make_stay_or_cycle()
        stay = DeterministicPolicy(np.array([1, 0]))
        move = DeterministicPolicy(np.array([0, 0]))
        v_stay = dmdp_policy_value(m, stay, 0.99)
        v_move = dmdp_policy_value(m, move, 0.99)
        assert v_stay[0] == pytest.approx(60.0, abs=1e-8)
        assert v_move[0] == pytest.approx(50.25125628140704, abs=1e-8)
        _, V, pi = dmdp_value_iteration(m, 0.99, 1e-6)
        assert pi.actions[0] == 1
        assert V[0] == pytest.approx(60.0, abs=1e-5)

    def test_accuracy_guarantee(self):
        # the greedy policy from VI at accuracy eps is eps-optimal
        for seed in range(5):
            m = random_mdp(5, 3, seed=seed)
            eps = 0.05
            Q, V, pi = dmdp_value_iteration(m, 0.9, eps)
            assert np.all(V >= 0.0) and np.all(V <= 1.0 / (1 - 0.9) + 1e-9)
            assert np.array_equal(V, Q.max(axis=1))
            v_pi = dmdp_policy_value(m, pi, 0.9)
            _, V_tight, _ = dmdp_value_iteration(m, 0.9, 1e-10)
            assert np.max(V_tight - v_pi) <= eps + 1e-9

    def test_argument_checks(self, cycle):
        for gamma in (0.0, 1.0):
            with pytest.raises(ValueError, match="gamma"):
                dmdp_value_iteration(cycle, gamma, 1e-6)
        with pytest.raises(ValueError, match="target_accuracy"):
            dmdp_value_iteration(cycle, 0.9, 0.0)

    def test_iteration_cap(self, cycle, monkeypatch):
        from amdp_lab import SolverConvergenceError, solvers
        monkeypatch.setattr(solvers, "VI_MAX_SWEEPS", 5)
        with pytest.raises(SolverConvergenceError):
            dmdp_value_iteration(cycle, 0.999999, 1e-12)


class TestDmdpPolicyIteration:
    def test_zero_rewards_tie_break(self):
        m = replace(random_mdp(3, 3, seed=2), rewards=np.zeros((3, 3)))
        Q, V, pi = dmdp_policy_iteration(m, 0.9)
        assert np.array_equal(Q, np.zeros((3, 3)))
        assert np.array_equal(pi.actions, np.zeros(3, dtype=int))

    def test_exact_ties_go_to_lowest_action(self):
        # at state 0, action 1 (reward 0, on to state 1 worth 2) and action 2
        # (reward 1/2, on to state 2 worth 1) tie exactly at Q = 1 when
        # gamma = 1/2; the reward-greedy start takes action 2
        P = np.zeros((3, 3, 3))
        P[0, 0, 0] = P[0, 1, 1] = P[0, 2, 2] = 1.0
        P[1, :, 1] = P[2, :, 2] = 1.0
        r = np.array([[0.0, 0.0, 0.5], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]])
        Q, V, pi = dmdp_policy_iteration(TabularMdp(3, 3, P, r), 0.5)
        assert Q[0, 1] == Q[0, 2] == 1.0
        assert np.array_equal(pi.actions, [1, 0, 0])
        assert np.array_equal(V, [1.0, 2.0, 1.0])
        assert np.array_equal(V, Q.max(axis=1))

    def test_stay_beats_cycle_at_high_gamma(self):
        # the reward-greedy start moves; the optimum at gamma 0.99 stays
        _, V, pi = dmdp_policy_iteration(make_stay_or_cycle(), 0.99)
        assert pi.actions[0] == 1
        assert V[0] == pytest.approx(60.0, abs=1e-10)

    def test_iteration_cap_raises(self, monkeypatch):
        from amdp_lab import SolverConvergenceError, chains
        m = make_stay_or_cycle()
        monkeypatch.setattr(chains, "PI_MAX_ITERATIONS", 2)
        assert dmdp_policy_iteration(m, 0.99)[2].actions[0] == 1
        monkeypatch.setattr(chains, "PI_MAX_ITERATIONS", 1)
        with pytest.raises(SolverConvergenceError):
            dmdp_policy_iteration(m, 0.99)

    def test_one_cap_binding_serves_both_solvers(self, monkeypatch):
        # the discounted optimum and the diameter run the same loop, so the
        # one binding in chains caps both; solvers keeps no copy of it
        from amdp_lab import SolverConvergenceError, chains, diameter, solvers
        P = np.zeros((2, 2, 2))  # the two-state fixture of TestDiameter
        P[0, 0] = [0.9, 0.1]
        P[0, 1, 1] = 1.0
        P[1, :, 0] = 1.0
        two_state = TabularMdp(2, 2, P, np.zeros((2, 2)))
        monkeypatch.setattr(chains, "PI_MAX_ITERATIONS", 1)
        with pytest.raises(SolverConvergenceError):
            dmdp_policy_iteration(make_stay_or_cycle(), 0.99)
        with pytest.raises(SolverConvergenceError):
            diameter(two_state)
        assert not hasattr(solvers, "PI_MAX_ITERATIONS")

    def test_matches_value_iteration_on_corpus(self):
        for _, m in standard_corpus(count=200, max_states=6, max_actions=4,
                                    master_seed=7):
            for gamma in GAMMAS:
                _, V_vi, pi_vi = dmdp_value_iteration(m, gamma, 1e-10)
                _, V, pi = dmdp_policy_iteration(m, gamma)
                assert np.array_equal(pi.actions, pi_vi.actions)
                np.testing.assert_allclose(V, V_vi, rtol=1e-9)
                np.testing.assert_allclose(V, dmdp_policy_value(m, pi, gamma),
                                           rtol=1e-12)

    def test_gamma_range(self, cycle):
        with pytest.raises(ValueError):
            dmdp_policy_iteration(cycle, 1.0)


class TestGainBias:
    def test_self_loop(self, self_loop):
        gb = amdp_gain_bias(self_loop, DeterministicPolicy(np.array([0])))
        assert gb.gain[0] == pytest.approx(0.7, abs=1e-12)
        assert gb.bias[0] == pytest.approx(0.0, abs=1e-12)

    def test_cycle_against_cesaro_oracle(self, cycle, cycle_policy):
        gb = amdp_gain_bias(cycle, cycle_policy)
        np.testing.assert_allclose(gb.gain, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(gb.bias, [0.25, -0.25], atol=1e-12)
        chain = induce_chain(cycle, cycle_policy)
        np.testing.assert_allclose(cesaro_gain(chain.matrix, chain.reward, 100_000),
                                   gb.gain, atol=1e-4)
        oracle = cesaro_bias(chain.matrix, chain.reward, 0.5, 100_000)
        np.testing.assert_allclose(oracle, gb.bias, atol=1e-4)

    def test_slow_chain_stationary_gain(self, slow4):
        gb = amdp_gain_bias(slow4, DeterministicPolicy(np.array([0, 0])))
        np.testing.assert_allclose(gb.gain, [0.8, 0.8], atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_evaluation_identities(self, seed):
        m = random_mdp(5, 3, seed=seed)
        pi = DeterministicPolicy(np.array([seed % 3, 0, 1, 2, (seed + 1) % 3]))
        chain = induce_chain(m, pi)
        gb = amdp_gain_bias(m, pi)
        P = chain.matrix
        np.testing.assert_allclose(P @ gb.gain, gb.gain, atol=1e-9)
        np.testing.assert_allclose(gb.gain + gb.bias, chain.reward + P @ gb.bias,
                                   atol=1e-9)
        # stationary-weighted bias is zero on each recurrent class
        st = decompose_chain(P)
        for members, nu in zip(st.recurrent_classes, st.stationary):
            assert abs(nu @ gb.bias[members]) < 1e-9

    def test_multichain_policy_with_transients(self):
        # two absorbing halves plus a transient feeder: per-state gains mix
        P = np.zeros((3, 1, 3))
        P[0, 0, 1] = 0.25
        P[0, 0, 2] = 0.75
        P[1, 0, 1] = 1.0
        P[2, 0, 2] = 1.0
        m = TabularMdp(3, 1, P, np.array([[0.0], [0.2], [1.0]]))
        gb = amdp_gain_bias(m, DeterministicPolicy(np.zeros(3, dtype=int)))
        np.testing.assert_allclose(gb.gain, [0.25 * 0.2 + 0.75 * 1.0, 0.2, 1.0],
                                   atol=1e-12)
        # Cesaro oracle also matches on this multichain case
        chain = induce_chain(m, DeterministicPolicy(np.zeros(3, dtype=int)))
        oracle = cesaro_bias(chain.matrix, chain.reward, gb.gain, 20_000)
        np.testing.assert_allclose(oracle, gb.bias, atol=1e-3)

    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_gain_is_averaged_discounted_value(self, gamma):
        for seed in range(4):
            m = random_mdp(5, 2, seed=seed)
            pi = DeterministicPolicy(np.array([0, 1, 0, 1, 0]))
            chain = induce_chain(m, pi)
            P_star = decompose_chain(chain.matrix).limiting_matrix
            V = dmdp_policy_value(m, pi, gamma)
            gain = amdp_gain_bias(m, pi).gain
            np.testing.assert_allclose(P_star @ ((1 - gamma) * V), gain, atol=1e-8)
            # limiting-matrix resolvent identity
            A = np.eye(5) - gamma * chain.matrix
            np.testing.assert_allclose(P_star @ A, (1 - gamma) * P_star, atol=1e-10)


class TestAmdpOptimal:
    def test_unknown_method(self, slow4):
        with pytest.raises(ValueError, match="unknown method 'x'"):
            amdp_optimal(slow4, method="x")

    def test_single_action_equals_gain_bias(self, slow4):
        opt = amdp_optimal(slow4)
        gb = amdp_gain_bias(slow4, DeterministicPolicy(np.array([0, 0])))
        np.testing.assert_allclose(opt.gain, gb.gain, atol=1e-12)
        assert opt.H == pytest.approx(span(gb.bias), abs=1e-9)

    def test_one_action_mdp_of_100_states(self):
        # the single policy, whatever the number of states
        m = random_mdp(100, 1, seed=5)
        opt = amdp_optimal(m)
        gb = amdp_gain_bias(m, DeterministicPolicy(np.zeros(100, dtype=int)))
        assert np.array_equal(opt.policy.actions, np.zeros(100, dtype=int))
        np.testing.assert_allclose(opt.gain, gb.gain, rtol=0, atol=1e-12)
        np.testing.assert_allclose(opt.policy_bias, gb.bias, rtol=0, atol=1e-9)

    def test_m1_optimal_gain_and_policy(self):
        spec = HardInstanceSpec(S=6, A=3, D=32, epsilon=1 / 32, variant="M1")
        m = hard_instance(spec)
        opt = amdp_optimal(m)
        np.testing.assert_allclose(opt.gain, 5.0 / 9.0, atol=1e-10)
        for x in m.metadata["x_states"]:
            assert opt.policy.actions[x] == 0

    def test_batched_enumeration_matches_slow_path(self):
        for seed in (0, 5, 9):
            m = random_mdp(4, 3, seed=seed)
            actions, score = slow_path_best_gain(m)
            opt = amdp_optimal(m)
            assert np.array_equal(opt.policy.actions, actions)
            assert float(np.min(opt.gain)) == pytest.approx(score, abs=1e-9)

    @pytest.mark.parametrize("D", [32, 1e3, 1e4])
    def test_enumerated_gains_match_per_class_oracle(self, D):
        # 685 of the 729 policies on M1 S6A3 are multichain
        m = hard_instance(HardInstanceSpec(S=6, A=3, D=D, epsilon=1 / 32, variant="M1"))
        batch = whole_policy_batch(m)
        gains = policy_gains(m, batch)
        idx = np.arange(6)
        oracle = np.array([per_class_limiting_matrix(m.transitions[idx, a])
                           @ m.rewards[idx, a] for a in policies_and_rewards(m)[0]])
        # some policies earn exactly zero, where only an absolute bound applies
        np.testing.assert_allclose(gains, oracle, rtol=1e-9, atol=1e-14)

    def test_ties_resolve_to_first_policy(self):
        # 20 policies tie for the optimal gain here; rounding noise in the
        # gains must not pick among them in the enumeration oracle, and
        # policy iteration returns a bias-optimal one of them
        m = hard_instance(HardInstanceSpec(S=6, A=3, D=1e3, epsilon=1 / 32, variant="M1"))
        batch = whole_policy_batch(m)
        worst = policy_gains(m, batch).min(axis=1)
        assert np.sum(worst >= worst.max() - 1e-9) == 20
        enum = enumerated_optimum(m, batch)
        assert np.array_equal(enum.policy.actions, np.zeros(6, dtype=int))
        assert np.array_equal(enum.policy.actions, slow_path_best_gain(m)[0])
        opt = amdp_optimal(m)
        index = int(opt.policy.actions @ 3 ** np.arange(5, -1, -1))
        assert worst[index] >= worst.max() - 1e-9
        assert np.array_equal(opt.policy_bias, opt.bias)
        for H in (enum.H, opt.H):
            assert H == pytest.approx(500 / 9, rel=1e-12, abs=0)

    def test_methods_agree(self):
        for _, m in standard_corpus(count=40, master_seed=17):
            o1 = amdp_optimal(m)
            o2 = amdp_optimal(m, method="relative_vi")
            assert float(np.max(o1.gain)) == pytest.approx(float(np.max(o2.gain)),
                                                           abs=1e-8)
            assert o1.H == pytest.approx(o2.H, abs=1e-6)

    def test_optimality_residual_holds(self):
        for _, m in standard_corpus(count=25, master_seed=23):
            opt = amdp_optimal(m)
            assert bellman_optimality_residual(m, opt.gain, opt.bias) <= 1e-8
            assert span(opt.gain) <= 1e-9  # constant gain when weakly communicating
            assert is_weakly_communicating(m)

    def test_optimality_equation_on_transient_funnel(self):
        # the funnel's state 0 is transient under its only policy
        m = make_transient_funnel()
        opt = amdp_optimal(m)
        assert bellman_optimality_residual(m, opt.gain, opt.bias) <= 1e-8

    def test_dominance_over_all_policies(self):
        from amdp_lab.chains import all_deterministic_policies
        gamma = 0.9
        for _, m in standard_corpus(count=5, master_seed=13):
            opt = amdp_optimal(m)
            V_star = dmdp_value_iteration(m, gamma, 1e-10)[1]
            for actions in all_deterministic_policies(m.num_states, m.num_actions):
                v = dmdp_policy_value(m, DeterministicPolicy(actions), gamma)
                assert np.max(v - V_star) <= 1e-7
                gain = amdp_gain_bias(m, DeterministicPolicy(actions)).gain
                assert np.min(gain) <= float(np.max(opt.gain)) + 1e-9

    def test_auto_enumerates_under_budget(self):
        # where one policy is optimal, policy iteration gives the
        # enumeration's bits
        for _, m in standard_corpus(count=25, master_seed=29):
            auto = amdp_optimal(m)
            enum = enumerated_optimum(m, whole_policy_batch(m))
            assert np.array_equal(auto.policy.actions, enum.policy.actions)
            assert np.array_equal(auto.gain, enum.gain)
            assert np.array_equal(auto.bias, enum.bias)

    def test_auto_ignores_the_budget(self, monkeypatch):
        # the budget binds only t_mix: auto's policy iteration gives the
        # same bits over it, and agrees with relative VI
        from amdp_lab import chains
        m = random_mdp(5, 4, seed=1)
        under = amdp_optimal(m)
        monkeypatch.setattr(chains, "ENUMERATION_BUDGET", 100)
        auto = amdp_optimal(m)
        rvi = amdp_optimal(m, method="relative_vi")
        assert np.array_equal(auto.policy.actions, under.policy.actions)
        assert np.array_equal(auto.gain, under.gain)
        assert np.array_equal(auto.bias, under.bias)
        assert np.array_equal(auto.policy.actions, rvi.policy.actions)
        assert float(np.max(auto.gain)) == pytest.approx(float(np.max(rvi.gain)),
                                                         abs=1e-8)
        assert auto.H == pytest.approx(rvi.H, abs=1e-6)

    def test_one_budget_binding_serves_every_enumeration(self, monkeypatch):
        # one patch of the budget in chains moves mixing_time and the
        # analysis's t_mix, and leaves the optimum's bits; solvers keeps no
        # copy of it
        from amdp_lab import EnumerationBudgetError, chains, mixing_time, solvers
        m = random_mdp(4, 3, seed=0)  # 81 policies
        under = solvers._analysis(m)
        assert under[1] is not None
        monkeypatch.setattr(chains, "ENUMERATION_BUDGET", 80)
        with pytest.raises(EnumerationBudgetError):
            mixing_time(m)
        D, t_mix, auto = solvers._analysis(m)
        assert (D, t_mix) == (under[0], None)
        assert np.array_equal(auto.policy.actions, under[2].policy.actions)
        assert np.array_equal(auto.gain, under[2].gain)
        assert np.array_equal(auto.bias, under[2].bias)
        assert not hasattr(solvers, "ENUMERATION_BUDGET")

    def test_relative_vi_flags_non_weakly_communicating(self, monkeypatch):
        # gains differ across absorbing halves, so the span of differences
        # never settles and the iteration cap fires
        from amdp_lab import SolverConvergenceError, solvers
        from conftest import make_two_absorbing
        monkeypatch.setattr(solvers, "RVI_MAX_SWEEPS", 20_000)
        with pytest.raises(SolverConvergenceError):
            relative_value_iteration(make_two_absorbing())

    def test_enumerate_reports_non_weakly_communicating(self):
        from conftest import make_two_absorbing
        m = make_two_absorbing()
        opt = amdp_optimal(m)
        assert not is_weakly_communicating(m)
        np.testing.assert_allclose(opt.gain, [0.6, 0.3, 0.9], atol=1e-12)

    def test_relative_vi_gain_scaling(self, monkeypatch):
        # the lazy solve reports the gain on the original scale
        from amdp_lab import solvers
        m = random_mdp(5, 2, seed=21)
        monkeypatch.setattr(solvers, "RVI_TAU", 0.25)
        gain, bias, policy = relative_value_iteration(m)
        opt = amdp_optimal(m)
        assert gain == pytest.approx(float(np.max(opt.gain)), abs=1e-8)

    def test_optimum_does_not_classify_its_input(self, monkeypatch):
        # whether the input is weakly communicating is the caller's question
        # (solve amdp's note); neither method asks it, on the bench inputs
        from amdp_lab import chains, solvers

        def no_classification(m):
            raise AssertionError("amdp_optimal ran is_weakly_communicating")

        monkeypatch.setattr(chains, "is_weakly_communicating", no_classification)
        monkeypatch.setattr(solvers, "is_weakly_communicating", no_classification,
                            raising=False)
        ms = [m for _, m in standard_corpus(count=200, master_seed=7)]
        ms += [hard_instance(HardInstanceSpec(S=S, A=A, D=32, epsilon=1 / 32,
                                              variant="M1"))
               for S, A in ((6, 3), (14, 4))]
        for m in ms:
            for method in ("auto", "relative_vi"):
                opt = amdp_optimal(m, method=method)
                assert bellman_optimality_residual(m, opt.gain, opt.bias) <= 1e-8


def _tied_bias_fixture() -> TabularMdp:
    """S2A3 whose optimal gain 1 several policies reach: the first of them,
    [0, 0], leaves state 1 for state 0 and has bias -1.5 there, while
    [0, 2] stays put earning 1 in both states, bias 0, so H = 0."""
    P = np.zeros((2, 3, 2))
    P[0] = [[1, 0], [0.5, 0.5], [0, 1]]
    P[1] = [[2 / 3, 1 / 3], [1 / 3, 2 / 3], [0, 1]]
    return TabularMdp(2, 3, P, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))


def _enumeration_cases():
    """The first 200 seed-7 corpus instances and the S6A3 hard family."""
    ms = [m for _, m in standard_corpus(count=200, master_seed=7)]
    for D in (32, 1e3, 1e4):
        for variant, kl in (("M0", {}), ("M1", {}), ("MKL", {"k": 2, "l": 2})):
            ms.append(hard_instance(HardInstanceSpec(
                S=6, A=3, D=D, epsilon=1 / 32, variant=variant, **kl)))
    return ms


class TestBiasOptimalH:
    """amdp_optimal returns a bias-optimal policy, whose own bias is the
    optimal bias, so H is exact and canonical.  On a weakly communicating
    input the enumeration oracle's bias is the elementwise max of the tied
    policies' biases, the same vector."""

    def test_policy_and_gain_match_first_tie_oracle(self):
        lone = 0
        for m in _enumeration_cases():
            actions, gain, policy_bias, bias = first_tie_optimum(m)
            batch = whole_policy_batch(m)
            enum = enumerated_optimum(m, batch)
            assert np.array_equal(enum.policy.actions, actions)
            assert np.array_equal(enum.gain, gain)
            assert np.array_equal(enum.policy_bias, policy_bias)
            assert np.all(enum.bias >= policy_bias - 1e-9)
            opt = amdp_optimal(m)
            assert np.array_equal(opt.gain, gain)
            assert np.all(opt.bias >= policy_bias - 1e-9)
            # a lone gain-optimal policy: policy iteration returns it, and
            # both keep the old bias bit for bit
            worst = policy_gains(m, batch).min(axis=1)
            if np.sum(worst >= worst.max() - 1e-9) == 1:
                assert np.array_equal(opt.policy.actions, actions)
                assert np.array_equal(enum.bias, bias)
                assert np.array_equal(opt.bias, bias)
                lone += 1
        assert lone == 200  # the corpus instances; every hard instance ties

    def test_bias_is_blackwell_policy_bias(self):
        # discounted PI at gamma = 1 - 1e-6 returns a Blackwell-optimal
        # policy here, and a Blackwell-optimal policy is bias-optimal; the
        # S12A3 input has 531441 policies
        for m in _enumeration_cases() + [_tied_bias_fixture(), random_mdp(12, 3, seed=0)]:
            opt = amdp_optimal(m)
            _, _, pi = dmdp_policy_iteration(m, 1 - 1e-6)
            np.testing.assert_allclose(
                opt.bias, amdp_gain_bias(m, pi).bias,
                rtol=0, atol=1e-10 * max(1.0, opt.H))

    @pytest.mark.parametrize("D", [32, 1e3, 1e4])
    @pytest.mark.parametrize("variant", ["M0", "M1"])
    def test_hard_family_H_closed_form(self, variant, D):
        # H = 2D'/5 on M0 and 4D'/9 on M1, D' = D/8
        spec = HardInstanceSpec(S=6, A=3, D=D, epsilon=1 / 32, variant=variant)
        ratio = {"M0": 2 / 5, "M1": 4 / 9}[variant]
        opt = amdp_optimal(hard_instance(spec))
        assert opt.H == pytest.approx(ratio * spec.D_prime, rel=1e-12, abs=0)

    def test_tied_policies_bias_max_gives_zero_span(self):
        # the oracle's first tie [0, 0] leaves state 1; policy iteration
        # moves state 1 to the bias-optimal stay action on the next term w
        m = _tied_bias_fixture()
        enum = enumerated_optimum(m, whole_policy_batch(m))
        assert np.array_equal(enum.policy.actions, [0, 0])
        np.testing.assert_allclose(enum.policy_bias, [0.0, -1.5], rtol=0, atol=1e-12)
        opt = amdp_optimal(m)
        assert np.array_equal(opt.policy.actions, [0, 2])
        assert np.array_equal(opt.policy_bias, opt.bias)
        for bias_optimal in (enum, opt):
            np.testing.assert_allclose(bias_optimal.bias, [0.0, 0.0], rtol=0,
                                       atol=1e-12)
            assert bias_optimal.H == pytest.approx(0.0, abs=1e-12)

    def test_tie_set_chunks_change_no_bits(self, monkeypatch):
        # one policy per chunk against one chunk for the oracle's whole tie
        # set: on the hard family and on an input where all 256 policies tie
        from amdp_lab import chains

        ms = _enumeration_cases()[200:]
        ms.append(replace(random_mdp(4, 4, seed=3), rewards=np.full((4, 4), 0.5)))
        whole = [enumerated_optimum(m, whole_policy_batch(m)) for m in ms]
        monkeypatch.setattr(chains, "_CHUNK_BYTES", 1)
        for m, expected in zip(ms, whole):
            opt = enumerated_optimum(m, whole_policy_batch(m))
            for name in ("policy_bias", "bias", "gain"):
                assert np.array_equal(getattr(opt, name), getattr(expected, name))
            assert np.array_equal(opt.policy.actions, expected.policy.actions)

    def test_enumeration_runs_no_relative_vi(self, monkeypatch):
        from amdp_lab import solvers

        def no_relative_vi(m):
            raise AssertionError("the default method ran relative VI")

        monkeypatch.setattr(solvers, "relative_value_iteration", no_relative_vi)
        spec = HardInstanceSpec(S=6, A=3, D=1e4, epsilon=1 / 32, variant="M1")
        for m in (hard_instance(spec), _tied_bias_fixture(), make_transient_funnel()):
            opt = amdp_optimal(m)
            assert bellman_optimality_residual(m, opt.gain, opt.bias) <= 1e-10


class TestBiasOptimalPolicyIteration:
    """The default method against the enumeration oracle and the closed
    forms, without enumerating or iterating values."""

    def test_matches_enumeration_oracle(self):
        from test_chains import _sparse_mdps
        checked = 0
        for m in _enumeration_cases() + _sparse_mdps():
            opt = amdp_optimal(m)
            if not is_weakly_communicating(m):
                continue
            enum = enumerated_optimum(m, whole_policy_batch(m))
            atol = 1e-12 * max(1.0, enum.H)
            np.testing.assert_allclose(opt.gain, enum.gain, rtol=0, atol=1e-12)
            np.testing.assert_allclose(opt.bias, enum.bias, rtol=0, atol=atol)
            # the returned policy is bias-optimal: its own bias is the max
            np.testing.assert_allclose(opt.policy_bias, enum.bias, rtol=0, atol=atol)
            checked += 1
        assert checked == 797

    def test_gain_is_per_state_max_over_policies(self):
        # every policy of the split fixture ties at worst-state gain 0.3,
        # and the first of them earns 0.3 at state 0, not 0.9
        from test_chains import _sparse_mdps
        P = np.zeros((3, 2, 3))
        P[0, 0, 1] = P[0, 1, 2] = 1.0
        P[1, :, 1] = P[2, :, 2] = 1.0
        split = TabularMdp(3, 2, P, np.array([[0.0, 0.0], [0.3, 0.3], [0.5, 0.9]]))
        multichain = 0
        for m in _sparse_mdps() + [split]:
            opt = amdp_optimal(m)
            best = policy_gains(m, whole_policy_batch(m)).max(axis=0)
            np.testing.assert_allclose(opt.gain, best, rtol=0, atol=1e-12)
            multichain += not is_weakly_communicating(m)
        assert multichain == 13

    @pytest.mark.parametrize("S, A", [(50, 3), (100, 2)])
    def test_random_over_budget_matches_relative_vi(self, S, A):
        # dense random MDPs far over the enumeration budget: the optimality
        # equation holds to rounding, and relative VI agrees within
        # criterion 9's tolerances
        for seed in range(4):
            m = random_mdp(S, A, seed=seed)
            opt = amdp_optimal(m)
            rvi = amdp_optimal(m, method="relative_vi")
            assert bellman_optimality_residual(m, opt.gain, opt.bias) <= 1e-12
            assert np.array_equal(opt.policy_bias, opt.bias)
            assert np.array_equal(opt.policy.actions, rvi.policy.actions)
            np.testing.assert_allclose(opt.gain, rvi.gain, rtol=0, atol=1e-8)
            assert opt.H == pytest.approx(rvi.H, rel=0, abs=1e-6)

    @pytest.mark.parametrize("D", [32, 1e3, 1e4])
    def test_m1_s14a4_H_closed_form(self, D):
        # 4^14 policies: H = 4D'/9 as on S6A3
        spec = HardInstanceSpec(S=14, A=4, D=D, epsilon=1 / 32, variant="M1")
        opt = amdp_optimal(hard_instance(spec))
        assert opt.H == pytest.approx(4 / 9 * spec.D_prime, rel=1e-12, abs=0)

    def test_runs_no_enumeration_and_no_relative_vi(self, monkeypatch):
        from amdp_lab import chains, solvers

        def refuse(*a, **kw):
            raise AssertionError("amdp_optimal enumerated or ran relative VI")

        monkeypatch.setattr(chains, "_policy_batch", refuse)
        monkeypatch.setattr(chains, "all_deterministic_policies", refuse)
        monkeypatch.setattr(solvers, "relative_value_iteration", refuse)
        ms = [m for _, m in standard_corpus(count=200, master_seed=7)]
        ms += [hard_instance(HardInstanceSpec(S=S, A=A, D=1e3, epsilon=1 / 32,
                                              variant="M1"))
               for S, A in ((6, 3), (14, 4))]
        for m in ms:
            opt = amdp_optimal(m)
            assert bellman_optimality_residual(m, opt.gain, opt.bias) <= 1e-8

    def test_iteration_cap_raises(self, monkeypatch):
        # two rounds: the reward-greedy policy, then the optimum
        from amdp_lab import SolverConvergenceError, chains
        m = make_stay_or_cycle()
        monkeypatch.setattr(chains, "PI_MAX_ITERATIONS", 2)
        assert np.array_equal(amdp_optimal(m).policy.actions, [1, 0])
        monkeypatch.setattr(chains, "PI_MAX_ITERATIONS", 1)
        with pytest.raises(SolverConvergenceError):
            amdp_optimal(m)

    def test_next_term_solved_only_for_a_bias_level_tie(self, monkeypatch):
        # one _gain_bias per round (one _stationary each) when no state keeps
        # two candidates after the bias level; two when one does
        from amdp_lab import solvers
        calls = {"_gain_bias": 0, "_stationary": 0}
        for name in calls:
            def counting(*a, _original=getattr(solvers, name), _name=name):
                calls[_name] += 1
                return _original(*a)
            monkeypatch.setattr(solvers, name, counting)
        tie_free = random_mdp(6, 3, seed=6)
        amdp_optimal(tie_free)
        assert calls["_gain_bias"] == calls["_stationary"] >= 2
        P, r = tie_free.transitions.copy(), tie_free.rewards.copy()
        P[:, 1], r[:, 1] = P[:, 0], r[:, 0]  # action 1 copies action 0
        calls.update(dict.fromkeys(calls, 0))
        amdp_optimal(TabularMdp(6, 3, P, r))
        assert calls["_gain_bias"] == 2 * calls["_stationary"] >= 2


class TestHGammaStar:
    def test_self_loop_is_zero(self, self_loop):
        opt = amdp_optimal(self_loop)
        for gamma in GAMMAS:
            h = h_gamma_star(self_loop, gamma, opt)
            assert abs(h[0]) < 1e-8

    def test_cycle_closed_form(self, cycle):
        opt = amdp_optimal(cycle)
        h = h_gamma_star(cycle, 0.9, opt)
        expected = np.array([1 / (1 - 0.81), 0.9 / (1 - 0.81)]) - 0.5 / 0.1
        np.testing.assert_allclose(h, expected, atol=1e-7)

    def test_rewritten_optimality_equation(self):
        for seed in range(4):
            m = random_mdp(5, 3, seed=seed)
            opt = amdp_optimal(m)
            for gamma in (0.9, 0.99):
                h = h_gamma_star(m, gamma, opt)
                lookahead = m.rewards + gamma * np.einsum(
                    "sat,t->sa", m.transitions, h)
                resid = np.max(np.abs(opt.gain + h - lookahead.max(axis=1)))
                assert resid <= 1e-7

    def test_bias_distance_bound(self):
        # || h* - h*_gamma ||_inf <= || h* ||_inf
        for _, m in standard_corpus(count=20, master_seed=31):
            opt = amdp_optimal(m)
            for gamma in (0.9, 0.99):
                h = h_gamma_star(m, gamma, opt)
                assert (np.max(np.abs(opt.bias - h))
                        <= np.max(np.abs(opt.bias)) + 1e-7)


class TestFiniteHorizon:
    def test_one_step_is_reward(self, cycle, cycle_policy):
        chain = induce_chain(cycle, cycle_policy)
        V = horizon_iterates(chain.matrix, chain.reward, 1)[-1]
        np.testing.assert_allclose(V, [1.0, 0.0], atol=1e-15)

    def test_cycle_five_steps(self, cycle, cycle_policy):
        chain = induce_chain(cycle, cycle_policy)
        np.testing.assert_allclose(
            horizon_iterates(chain.matrix, chain.reward, 5)[-1], [3.0, 2.0], atol=1e-12)

    def test_matches_oracle_recursion(self):
        m = random_mdp(4, 2, seed=6)
        pi = DeterministicPolicy(np.array([1, 0, 1, 0]))
        chain = induce_chain(m, pi)
        for T in (1, 7, 33):
            np.testing.assert_allclose(
                horizon_iterates(chain.matrix, chain.reward, T)[-1],
                finite_values(chain.matrix, chain.reward, T), atol=1e-12)

    def test_iterates_stack_every_horizon(self):
        m = random_mdp(4, 2, seed=6)
        chain = induce_chain(m, DeterministicPolicy(np.array([1, 0, 1, 0])))
        stack = horizon_iterates(chain.matrix, chain.reward, 33)
        assert stack.shape == (33, 4)
        for T in (1, 7, 33):
            assert np.array_equal(stack[T - 1],
                                  finite_values(chain.matrix, chain.reward, T))
        start = np.arange(4.0)
        pushed = _power_iterates(chain.matrix, start, 3)
        np.testing.assert_allclose(
            pushed[2], np.linalg.matrix_power(chain.matrix, 3) @ start,
            atol=1e-12)

    def test_power_iterates_match_stepped_oracle(self):
        # doubling against one matrix-vector step per power, on every corpus
        # optimum's bias and the hard family's, whose entries reach 309 at
        # D = 1e4: the bound is 1e-12 per unit of ||bias||_inf (the two
        # routes differ by 1.6e-12 on M0 there, 6e-15 relative)
        ms = [m for _, m in standard_corpus(count=100, master_seed=7)]
        ms += [hard_instance(HardInstanceSpec(S=6, A=3, D=D, epsilon=1 / 32,
                                              variant=variant))
               for variant in ("M0", "M1") for D in (32, 1e3, 1e4)]
        for m in ms:
            opt = amdp_optimal(m)
            P, h = induce_chain(m, opt.policy).matrix, opt.policy_bias
            for T in (1, 2, 3, 7, 64, 200):
                np.testing.assert_allclose(
                    _power_iterates(P, h, T), stepped_power_iterates(P, h, T),
                    rtol=0, atol=1e-12 * max(1.0, float(np.max(np.abs(h)))))

    def test_identity_with_gain_and_bias(self):
        # V_T = T rho + h - P^T h, for any policy, any T
        for seed in range(4):
            m = random_mdp(5, 2, seed=seed)
            pi = DeterministicPolicy(np.array([0, 1, 1, 0, 1]))
            chain = induce_chain(m, pi)
            gb = amdp_gain_bias(m, pi)
            V = np.zeros(5)
            propagated = gb.bias.copy()
            for T in range(1, 201):
                V = chain.reward + chain.matrix @ V
                propagated = chain.matrix @ propagated
                np.testing.assert_allclose(V, T * gb.gain + gb.bias - propagated,
                                           atol=1e-8)

    def test_rejects_bad_horizon(self, cycle, cycle_policy):
        chain = induce_chain(cycle, cycle_policy)
        with pytest.raises(ValueError):
            horizon_iterates(chain.matrix, chain.reward, 0)
