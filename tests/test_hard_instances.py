import re
from dataclasses import replace

import numpy as np
import pytest

from amdp_lab import (
    DeterministicPolicy,
    InfeasibleInstanceError,
    amdp_gain_bias,
    amdp_optimal,
    closed_form_component_gain,
    diameter,
    hard_instance,
    is_communicating,
    validate_mdp,
    write_mdp,
)
from amdp_lab.hard_instances import HardInstanceSpec, _plan_tree
from oracles import multipass_hard_instance, scan_plan_tree

EPS = 1.0 / 32.0
SPEC6 = HardInstanceSpec(S=6, A=3, D=32, epsilon=EPS, variant="M0")
SPEC14 = HardInstanceSpec(S=14, A=4, D=32, epsilon=EPS, variant="M0")


def two_state_chain(q_xy, q_yx):
    from amdp_lab import TabularMdp
    P = np.array([[[1 - q_xy, q_xy]], [[q_yx, 1 - q_yx]]])
    return TabularMdp(2, 1, P, np.array([[1.0], [0.0]]))


class TestSpecAdmissibility:
    def test_derived_quantities(self):
        assert SPEC14.A_prime == 3
        assert SPEC14.D_prime == 4.0
        assert SPEC14.K == 5
        assert SPEC14.num_internal == 4
        assert SPEC6.K == 2 and SPEC6.num_internal == 2

    def test_small_A_rejected(self):
        with pytest.raises(InfeasibleInstanceError):
            HardInstanceSpec(S=6, A=2, D=32, epsilon=EPS)

    def test_small_D_rejected(self):
        with pytest.raises(InfeasibleInstanceError, match="D >= max"):
            HardInstanceSpec(S=14, A=4, D=8, epsilon=EPS)

    def test_epsilon_cap(self):
        with pytest.raises(InfeasibleInstanceError):
            HardInstanceSpec(S=6, A=3, D=32, epsilon=1 / 16)

    def test_infeasible_tree_shapes(self):
        # S = 4 leaves no internal node; S = 7, A = 3 cannot host 3 leaves
        # on a single binary root
        with pytest.raises(InfeasibleInstanceError):
            HardInstanceSpec(S=4, A=3, D=32, epsilon=EPS)
        with pytest.raises(InfeasibleInstanceError):
            HardInstanceSpec(S=7, A=3, D=48, epsilon=EPS)

    def test_mkl_index_ranges(self):
        with pytest.raises(InfeasibleInstanceError):
            HardInstanceSpec(S=6, A=3, D=32, epsilon=EPS, variant="MKL", k=3, l=2)
        with pytest.raises(InfeasibleInstanceError):
            HardInstanceSpec(S=6, A=3, D=32, epsilon=EPS, variant="MKL", k=1, l=3)
        with pytest.raises(InfeasibleInstanceError):
            replace(SPEC6, variant="MKL", k=1, l=1)
        with pytest.raises(InfeasibleInstanceError, match="needs both k and l"):
            replace(SPEC6, variant="MKL", k=1)
        with pytest.raises(InfeasibleInstanceError, match="unknown variant 'M2'"):
            replace(SPEC6, variant="M2")


class TestComponent:
    # the components of M0 at D' = 4 with A' = 2 component actions
    M0 = hard_instance(SPEC6)
    X, Y = M0.metadata["x_states"], M0.metadata["y_states"]

    def test_swap_probability_value(self):
        for a in range(SPEC6.A_prime):
            assert self.M0.transitions[self.X, a, self.Y] == pytest.approx(0.3125)
            assert self.M0.transitions[self.Y, a, self.X] == pytest.approx(0.3125)
        assert validate_mdp(self.M0) == []

    def test_every_policy_has_gain_half(self):
        # component actions keep x_j and y_j inside their component
        for a0 in range(SPEC6.A_prime):
            for a1 in range(SPEC6.A_prime):
                actions = np.zeros(SPEC6.S, dtype=int)
                actions[self.X], actions[self.Y] = a0, a1
                gb = amdp_gain_bias(self.M0, DeterministicPolicy(actions))
                np.testing.assert_allclose(gb.gain[self.X + self.Y], 0.5, atol=1e-12)

    def test_closed_form_symmetry(self):
        assert closed_form_component_gain(0.3, 0.3) == pytest.approx(0.5)

    def test_closed_form_frozen_values(self):
        assert closed_form_component_gain(1 / 4, 1.25 / 4) == pytest.approx(
            5 / 9, abs=1e-15)
        assert closed_form_component_gain(0.75 / 4, 1.25 / 4) == pytest.approx(
            0.625, abs=1e-15)

    def test_closed_form_matches_exact_solver(self):
        for q_xy, q_yx in ((0.25, 0.3125), (0.1875, 0.3125), (0.5, 0.125)):
            gb = amdp_gain_bias(two_state_chain(q_xy, q_yx),
                                DeterministicPolicy(np.array([0, 0])))
            assert gb.gain[0] == pytest.approx(
                closed_form_component_gain(q_xy, q_yx), abs=1e-12)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            closed_form_component_gain(0.0, 0.5)


class TestM0:
    def test_counts_match_figure_shape(self):
        m = hard_instance(SPEC14)
        assert m.num_states == 14 and m.num_actions == 4
        assert len(m.metadata["x_states"]) == 5
        assert len(m.metadata["y_states"]) == 5
        assert len(m.metadata["internal_states"]) == 4
        assert validate_mdp(m) == []

    def test_diameter_within_bound(self):
        assert diameter(hard_instance(SPEC14)) <= 32.0 + 1e-9
        assert diameter(hard_instance(SPEC6)) <= 32.0 + 1e-9

    def test_communicating(self):
        assert is_communicating(hard_instance(SPEC14))
        assert is_communicating(hard_instance(SPEC6))

    def test_all_rows_valid_and_deterministic_outside_components(self):
        m = hard_instance(SPEC6)
        internal = m.metadata["internal_states"]
        for s in internal:
            for a in range(m.num_actions):
                assert set(np.unique(m.transitions[s, a])) <= {0.0, 1.0}
                assert m.rewards[s, a] == 0.0


class TestM1AndMkl:
    def test_m1_gain_five_ninths(self):
        m = hard_instance(replace(SPEC6, variant="M1"))
        opt = amdp_optimal(m)
        np.testing.assert_allclose(opt.gain, 5 / 9, atol=1e-10)
        for x in m.metadata["x_states"]:
            assert opt.policy.actions[x] == 0

    def test_m1_unique_component_action_margin(self):
        # second-best component action trails by 4 eps / (2 + 8 eps) > eps
        margin = 4 * EPS / (2 + 8 * EPS)
        assert margin > EPS
        assert closed_form_component_gain(1 / 4, 1.25 / 4) - \
            closed_form_component_gain(1.25 / 4, 1.25 / 4) == pytest.approx(
                margin, abs=1e-15)

    def test_m1_deviating_component_action_costs_gain(self):
        m = hard_instance(replace(SPEC6, variant="M1"))
        opt = amdp_optimal(m)
        for x in m.metadata["x_states"]:
            for other in range(1, SPEC6.A_prime):
                actions = opt.policy.actions.copy()
                actions[x] = other
                gain = amdp_gain_bias(m, DeterministicPolicy(actions)).gain
                assert float(np.min(gain)) <= 5 / 9 - EPS

    def test_mkl_gain_and_action(self):
        m = hard_instance(replace(SPEC6, variant="MKL", k=2, l=2))
        opt = amdp_optimal(m)
        np.testing.assert_allclose(opt.gain, 0.625, atol=1e-10)
        x = m.metadata["x_states"][1]
        assert opt.policy.actions[x] == 1  # action index l - 1

    def test_mkl_nondistinguished_components_keep_first_action(self):
        # away from component k, the first action still dominates locally
        m = hard_instance(replace(SPEC6, variant="MKL", k=2, l=2))
        x_other = m.metadata["x_states"][0]
        y_other = m.metadata["y_states"][0]
        p_first = m.transitions[x_other, 0, y_other]
        p_back = m.transitions[y_other, 0, x_other]
        gains = [closed_form_component_gain(m.transitions[x_other, a, y_other],
                                            p_back)
                 for a in range(SPEC6.A_prime)]
        assert np.argmax(gains) == 0
        assert gains[0] - max(gains[1:]) > EPS
        assert p_first == pytest.approx(1 / SPEC6.D_prime)

    def test_mkl_differs_from_m1_in_one_row(self):
        m1 = hard_instance(replace(SPEC14, variant="M1"))
        for k in (1, 3, 5):
            for l in (2, 3):
                mkl = hard_instance(replace(SPEC14, variant="MKL", k=k, l=l))
                diff = np.argwhere(np.any(mkl.transitions != m1.transitions, axis=2))
                assert diff.shape == (1, 2)
                s, a = diff[0]
                assert s == m1.metadata["x_states"][k - 1]
                assert a == l - 1

    def test_variants_keep_diameter_bound(self):
        for spec in (replace(SPEC14, variant="M1"),
                     replace(SPEC14, variant="MKL", k=2, l=3),
                     replace(SPEC6, variant="M1")):
            m = hard_instance(spec)
            assert diameter(m) <= 32.0 + 1e-9
            assert validate_mdp(m) == []

    def test_dispatch(self):
        spec = HardInstanceSpec(S=6, A=3, D=32, epsilon=EPS, variant="MKL", k=1, l=2)
        m = hard_instance(spec)
        assert m.metadata["variant"] == "MKL"


def _grid_specs():
    """Every variant and admissible (k, l) over five shapes, four D and two
    eps, skipping the (shape, D) pairs below the spec's D floor."""
    for S, A in ((6, 3), (14, 4), (9, 3), (20, 5), (30, 4)):
        for D in (32, 64, 1e3, 1e4):
            for eps in (1 / 32, 0.01):
                try:
                    base = HardInstanceSpec(S=S, A=A, D=D, epsilon=eps)
                except InfeasibleInstanceError:
                    continue
                yield base
                yield replace(base, variant="M1")
                for k in range(1, base.K + 1):
                    for l in range(2, base.A_prime + 1):
                        yield replace(base, variant="MKL", k=k, l=l)


class TestOnePassBuilder:
    """hard_instance fills one leak table; the files it writes equal those of
    the multi-pass oracle."""

    def test_written_bytes_match_multipass_oracle(self, tmp_path):
        path = tmp_path / "m.json"

        def written(m) -> bytes:
            write_mdp(m, path)
            return path.read_bytes()

        variants = {"M0": 0, "M1": 0, "MKL": 0}
        for spec in _grid_specs():
            expected = written(multipass_hard_instance(spec))
            assert written(hard_instance(spec)) == expected, spec
            variants[spec.variant] += 1
        assert variants == {"M0": 38, "M1": 38, "MKL": 408}

    @pytest.mark.parametrize("k, l, message", [
        (0, 2, "k must lie in [1, 5], got 0"),
        (6, 2, "k must lie in [1, 5], got 6"),
        (1, 1, "l must lie in [2, 3], got 1"),
        (1, 4, "l must lie in [2, 3], got 4"),
    ])
    def test_build_mkl_range_errors(self, k, l, message):
        with pytest.raises(InfeasibleInstanceError, match=re.escape(message)):
            replace(SPEC14, variant="MKL", k=k, l=l)


class TestPlanTree:
    """_plan_tree's closed form lays out the same tree as the scan that
    attached each node to the first parent with room."""

    def test_matches_scan_oracle_on_small_shapes(self):
        # every (n_internal, n_leaves, arity) the scan accepts with
        # n_leaves >= n_internal, which K = ceil(S / 3) >= S - 2K guarantees
        checked = 0
        for n_int in range(1, 30):
            for n_leaves in range(n_int, 45):
                for arity in range(2, 10):
                    try:
                        expected = scan_plan_tree(n_int, n_leaves, arity)
                    except InfeasibleInstanceError:
                        with pytest.raises(InfeasibleInstanceError):
                            _plan_tree(n_int, n_leaves, arity)
                        continue
                    assert _plan_tree(n_int, n_leaves, arity) == expected
                    checked += 1
        assert checked > 3000

    def test_matches_scan_oracle_on_admissible_specs(self):
        checked = 0
        for S in range(5, 80):
            for A in range(3, 12):
                try:
                    spec = HardInstanceSpec(S=S, A=A, D=1e4, epsilon=EPS)
                except InfeasibleInstanceError:
                    continue
                args = (spec.num_internal, spec.K, spec.A_prime)
                assert _plan_tree(*args) == scan_plan_tree(*args), args
                checked += 1
        assert checked > 500
