import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from amdp_lab import (
    DeterministicPolicy,
    MdpFormatError,
    TabularMdp,
    induce_chain,
    read_mdp,
    read_policy,
    span,
    two_state_cycle,
    validate_mdp,
    write_mdp,
    write_policy,
)
from amdp_lab.cli import main
from amdp_lab.corpus import random_mdp


class TestValidate:
    def test_identity_case(self):
        m = TabularMdp(1, 1, np.array([[[1.0]]]), np.array([[0.5]]))
        assert validate_mdp(m) == []

    def test_row_sum_violation_names_pair(self):
        P = np.array([[[0.4, 0.5]], [[1.0, 0.0]]])
        m = TabularMdp(2, 1, P, np.zeros((2, 1)))
        problems = validate_mdp(m)
        assert len(problems) == 1
        assert "P[0][0]" in problems[0]

    def test_reward_range_violation(self):
        m = TabularMdp(1, 1, np.array([[[1.0]]]), np.array([[1.5]]))
        problems = validate_mdp(m)
        assert len(problems) == 1 and "r[0][0]" in problems[0]

    def test_negative_probability(self):
        P = np.array([[[1.2, -0.2]], [[1.0, 0.0]]])
        m = TabularMdp(2, 1, P, np.zeros((2, 1)))
        assert any("negative" in v for v in validate_mdp(m))


class TestConstruction:
    def test_mdp_shapes_must_match(self):
        with pytest.raises(ValueError, match="transitions shape"):
            TabularMdp(2, 1, np.ones((2, 1, 1)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="rewards shape"):
            TabularMdp(1, 1, np.ones((1, 1, 1)), np.zeros((1, 2)))

    def test_policy_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            DeterministicPolicy(np.zeros((2, 2), dtype=int))


class TestSpan:
    def test_direct(self):
        assert span(np.array([3.0, 1.0, 2.0])) == 2.0

    def test_constant_vector(self):
        assert span(np.full(5, 1.3)) == 0.0

    def test_cycle_bias_span(self):
        # Cesaro oracle on the 2-state cycle gives bias (1/4, -1/4)
        from oracles import cesaro_bias
        cyc = two_state_cycle()
        chain = induce_chain(cyc, DeterministicPolicy(np.array([0, 0])))
        bias = cesaro_bias(chain.matrix, chain.reward, 0.5, N=100_000)
        assert span(bias) == pytest.approx(0.5, abs=1e-4)
        assert span(np.array([0.25, -0.25])) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            span(np.array([]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.floats(-1e6, 1e6))
    def test_shift_invariance(self, values, c):
        v = np.array(values)
        assert span(v + c) == pytest.approx(span(v), rel=1e-12, abs=1e-6)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_bounded_by_twice_max_abs(self, values):
        v = np.array(values)
        assert 0.0 <= span(v) <= 2.0 * np.max(np.abs(v)) + 1e-12


class TestInduceChain:
    def test_deterministic_is_row_selection(self):
        m = random_mdp(4, 3, seed=11)
        pi = DeterministicPolicy(np.array([2, 0, 1, 2]))
        chain = induce_chain(m, pi)
        for s, a in enumerate(pi.actions):
            assert np.array_equal(chain.matrix[s], m.transitions[s, a])
            assert chain.reward[s] == m.rewards[s, a]

    def test_cycle_single_action(self):
        chain = induce_chain(two_state_cycle(), DeterministicPolicy(np.array([0, 0])))
        assert np.array_equal(chain.matrix, [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(chain.reward, [1.0, 0.0])

    def test_dimension_mismatch(self):
        m = random_mdp(3, 2, seed=1)
        with pytest.raises(ValueError):
            induce_chain(m, DeterministicPolicy(np.array([0, 1])))
        with pytest.raises(ValueError):
            induce_chain(m, DeterministicPolicy(np.array([0, 1, 2])))

    def test_not_a_policy(self):
        with pytest.raises(TypeError, match="not a policy"):
            induce_chain(two_state_cycle(), np.array([0, 0]))


class TestFileFormat:
    def test_round_trip_bitwise(self, tmp_path):
        m = random_mdp(5, 3, seed=9)
        # awkward but finite values survive exactly
        r = m.rewards.copy()
        r[0, 0] = 1.0 / 3.0
        r[1, 0] = np.nextafter(1.0, 0.0)
        r[2, 1] = 1e-300
        m = replace(m, rewards=r)
        path = tmp_path / "m.json"
        write_mdp(m, path)
        back = read_mdp(path)
        assert np.array_equal(back.transitions, m.transitions)
        assert np.array_equal(back.rewards, m.rewards)
        assert back.metadata == m.metadata

    def test_negative_probability_names_entry(self, tmp_path):
        doc = {
            "num_states": 2, "num_actions": 1,
            "transitions": [[[1.2, -0.2]], [[1.0, 0.0]]],
            "rewards": [[0.0], [0.0]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MdpFormatError, match=r"P\[0\]\[0\]"):
            read_mdp(path)

    @pytest.mark.parametrize("transitions, rewards, message", [
        ("[[[NaN]]]", "[[0.5]]", "non-finite"),
        ("[[[1.0]]]", "[[NaN]]", "non-finite"),
        ("[[[0.5, 0.5]]]", "[[0.5]]", "transitions shape"),
        ("[[[1.0]]]", "[0.5]", "rewards shape"),
    ])
    def test_nan_or_misshapen_arrays_rejected(self, tmp_path, transitions,
                                              rewards, message):
        # json reads NaN as a float
        path = tmp_path / "bad.json"
        path.write_text('{"num_states": 1, "num_actions": 1, "transitions": %s, '
                        '"rewards": %s}' % (transitions, rewards))
        with pytest.raises(MdpFormatError, match=message):
            read_mdp(path)

    def test_missing_rewards_is_schema_error(self, tmp_path):
        doc = {"num_states": 1, "num_actions": 1, "transitions": [[[1.0]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MdpFormatError, match="rewards"):
            read_mdp(path)

    @pytest.mark.parametrize("field,value", [
        ("metadata", [1, 2]), ("num_states", True), ("num_actions", True)])
    def test_malformed_header_is_format_error(self, tmp_path, field, value):
        # JSON true is a bool, an int subclass: one state and one action
        # would match the array shapes
        doc = {"num_states": 1, "num_actions": 1, "transitions": [[[1.0]]],
               "rewards": [[0.5]], field: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MdpFormatError, match=field):
            read_mdp(path)
        assert main(["certify", "--mdp", str(path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "certificates.csv").exists()

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(MdpFormatError):
            read_mdp(path)

    def test_policy_round_trip(self, tmp_path):
        det = DeterministicPolicy(np.array([1, 0, 2]))
        write_policy(det, tmp_path / "p.json")
        assert np.array_equal(read_policy(tmp_path / "p.json").actions, det.actions)

    def test_policy_schema_error(self, tmp_path):
        (tmp_path / "p.json").write_text("{}")
        with pytest.raises(MdpFormatError):
            read_policy(tmp_path / "p.json")

    def test_policy_number_is_format_error(self, tmp_path):
        (tmp_path / "p.json").write_text("5")
        with pytest.raises(MdpFormatError, match="object"):
            read_policy(tmp_path / "p.json")

    def test_policy_not_json(self, tmp_path):
        (tmp_path / "p.json").write_text('{"actions": [0, 1')
        with pytest.raises(MdpFormatError, match="JSON"):
            read_policy(tmp_path / "p.json")

    def test_policy_float_actions_not_truncated(self, tmp_path):
        # np.asarray(..., dtype=int) would read these as [0, 1]
        (tmp_path / "p.json").write_text('{"actions": [0.7, 1.9]}')
        with pytest.raises(MdpFormatError, match="actions"):
            read_policy(tmp_path / "p.json")

    def test_policy_nested_actions_is_format_error(self, tmp_path):
        (tmp_path / "p.json").write_text('{"actions": [[0, 1]]}')
        with pytest.raises(MdpFormatError, match="actions"):
            read_policy(tmp_path / "p.json")

    @pytest.mark.parametrize("actions", ["[true, 0]", "[-1, 0]", '"01"', "3"])
    def test_policy_actions_must_be_index_list(self, tmp_path, actions):
        (tmp_path / "p.json").write_text('{"actions": %s}' % actions)
        with pytest.raises(MdpFormatError, match="actions"):
            read_policy(tmp_path / "p.json")

    def test_policy_probs_file_is_format_error(self, tmp_path):
        # stochastic policies are not read: a valid action-probability table
        # is an error like any other file without an 'actions' field
        (tmp_path / "p.json").write_text('{"probs": [[0.25, 0.75], [0.5, 0.5]]}')
        with pytest.raises(MdpFormatError, match="'actions' field"):
            read_policy(tmp_path / "p.json")

    @pytest.mark.parametrize("probs", ['{"a": 1}', "[[0.5, 0.5], [1.0]]", "[1.0]"])
    def test_policy_bad_probs_is_format_error(self, tmp_path, probs):
        (tmp_path / "p.json").write_text('{"probs": %s}' % probs)
        with pytest.raises(MdpFormatError):
            read_policy(tmp_path / "p.json")
