from dataclasses import replace

import numpy as np
import pytest

from amdp_lab import (
    DeterministicPolicy,
    GenerativeModel,
    RngSeedSpec,
    algorithm1,
    amdp_gain_bias,
    amdp_optimal,
    certify_finite_horizon_identity,
    certify_gain_discount_gap,
    certify_reduction_bound,
    certify_span_bounds,
    build_empirical,
    dmdp_policy_iteration,
    dmdp_value_iteration,
    empirical_error,
    gamma_for_accuracy,
    induce_chain,
    perturb_rewards,
    reduction,
    reduction_chain_certificates,
    reduction_params,
    two_state_slow_chain,
    write_certificates_csv,
)
from amdp_lab.corpus import standard_corpus
from amdp_lab.hard_instances import HardInstanceSpec, hard_instance
from oracles import (
    _spelled_float,
    finite_horizon_identity_loop,
    finite_horizon_span_loop,
    serial_empirical_error,
    spelled_certificates_report,
)
from test_generative import make_deterministic_truth


class TestReductionParams:
    def test_unit_inputs(self):
        p = reduction_params(1.0, 0.1, 1.0, 2, 1)
        assert p.gamma == pytest.approx(11 / 12, abs=1e-15)
        assert p.eps_gamma == pytest.approx(1.0, abs=1e-12)

    def test_quarter_accuracy(self):
        p = reduction_params(0.25, 0.1, 2.0, 2, 1)
        assert p.gamma == pytest.approx(1 - 0.25 / 24, abs=1e-15)
        assert p.eps_gamma == pytest.approx(2.0, abs=1e-12)

    def test_eps_gamma_within_discounted_range(self):
        for eps in (1.0, 0.5, 0.1):
            for H in (1.0, 3.0, 10.0):
                p = reduction_params(eps, 0.5, H, 4, 3)
                assert 0.0 < p.gamma < 1.0
                assert 0.0 < p.eps_gamma <= 1.0 / (1.0 - p.gamma) + 1e-9

    def test_xi_formula(self, monkeypatch):
        monkeypatch.setattr(reduction, "C_P", 2.0)
        p = reduction_params(0.5, 0.1, 2.0, 6, 3)
        expected = 2.0 * (1 - p.gamma) * p.eps_gamma / (6**5 * 3**5)
        assert p.xi == pytest.approx(expected, rel=1e-12)

    def test_sample_size_formula_and_override(self, monkeypatch):
        import math
        monkeypatch.setattr(reduction, "C_TILDE", 1.5)
        p = reduction_params(0.5, 0.1, 2.0, 6, 3)
        expected = math.ceil(1.5 * 2.0 * 0.5**-3 * math.log(18 / (0.5 * 0.1)))
        assert p.n_per_pair == expected
        assert reduction_params(0.5, 0.1, 2.0, 6, 3, n_override=77).n_per_pair == 77

    def test_input_validation(self):
        with pytest.raises(ValueError):
            reduction_params(0.0, 0.1, 1.0, 2, 1)
        with pytest.raises(ValueError):
            reduction_params(0.5, 1.5, 1.0, 2, 1)
        with pytest.raises(ValueError):
            reduction_params(0.5, 0.1, 0.5, 2, 1)
        with pytest.raises(ValueError):
            reduction_params(0.5, 0.1, 1.0, 2, 1, n_override=0)


class TestGammaGuard:
    def test_normal_case(self):
        assert gamma_for_accuracy(0.25, 0.5) == pytest.approx(0.5)
        assert gamma_for_accuracy(0.1, 2.0) == pytest.approx(0.95)

    def test_tiny_span_falls_back(self):
        assert gamma_for_accuracy(0.5, 0.0) == 0.5
        assert gamma_for_accuracy(0.5, 0.4) == 0.5


class TestAlgorithm1:
    def test_single_action_truth_returns_unique_policy(self):
        truth = two_state_slow_chain(8)
        params = reduction_params(0.5, 0.1, 1.0, 2, 1, n_override=3)
        policy = algorithm1(GenerativeModel(truth, 4), params)
        assert np.array_equal(policy.actions, [0, 0])

    def test_deterministic_truth_matches_exact_plan(self):
        # empirical model equals the truth, so the learned policy equals the
        # exact discounted-optimal policy of the perturbed truth
        truth = make_deterministic_truth()
        params = reduction_params(0.5, 0.1, 1.0, 3, 2, n_override=1)
        gm = GenerativeModel(truth, 11)
        learned = algorithm1(gm, params)
        r_p = perturb_rewards(truth.rewards, params.xi, gm.seed_spec.reward_seed())
        accuracy = min(1e-9 / (1 - params.gamma), params.eps_gamma / 10.0)
        _, _, exact = dmdp_value_iteration(replace(truth, rewards=r_p), params.gamma,
                                           accuracy)
        assert np.array_equal(learned.actions, exact.actions)

    def test_policy_iteration_matches_value_iteration_on_sweep_trials(self):
        # the N=1e3 experiment cells of the benchmark's reduce_sweep (M1 at
        # D=32, eps=1/32, --epsilon 0.25 --H oracle) for experiment seeds 1
        # and 2: the exact solve returns the policy of the value iteration
        # that algorithm1 ran before, whose values are accuracy/2-close
        for S, A in ((6, 3), (14, 4)):
            truth = hard_instance(HardInstanceSpec(S=S, A=A, D=32, epsilon=1 / 32,
                                                   variant="M1"))
            H = max(amdp_optimal(truth).H, 1.0)
            params = reduction_params(0.25, 0.05, H, S, A, n_override=1000)
            accuracy = min(1e-9 / (1 - params.gamma), params.eps_gamma / 10.0)
            for seed in (1, 2):
                for trial in range(10):
                    trial_seed = RngSeedSpec(seed).trial_seed(trial)
                    gm = GenerativeModel(truth, trial_seed)
                    r_p = perturb_rewards(truth.rewards, params.xi,
                                          gm.seed_spec.reward_seed())
                    emp = build_empirical(gm, params.n_per_pair, r_p)
                    _, V_vi, pi_vi = dmdp_value_iteration(emp, params.gamma,
                                                          accuracy)
                    _, V, pi = dmdp_policy_iteration(emp, params.gamma)
                    assert np.array_equal(pi.actions, pi_vi.actions)
                    assert np.max(np.abs(V - V_vi)) <= accuracy
                    learned = algorithm1(GenerativeModel(truth, trial_seed), params)
                    assert np.array_equal(learned.actions, pi.actions)

    def test_deterministic_in_seed(self):
        spec = HardInstanceSpec(S=6, A=3, D=32, epsilon=1 / 32, variant="M1")
        truth = hard_instance(spec)
        params = reduction_params(0.25, 0.1, 2.0, 6, 3, n_override=500)
        p1 = algorithm1(GenerativeModel(truth, 21), params)
        p2 = algorithm1(GenerativeModel(truth, 21), params)
        assert np.array_equal(p1.actions, p2.actions)


class TestCertificates:
    def test_gain_discount_gap_cycle_frozen(self, cycle, cycle_policy):
        cert = certify_gain_discount_gap(cycle, cycle_policy, 0.9, "cycle")
        # lhs = |1/2 - 1/(1+gamma)|, rhs = (1-gamma)/(1+gamma)
        assert cert.lhs == pytest.approx(1 / 1.9 - 0.5, abs=1e-12)
        assert cert.rhs == pytest.approx(0.1 / 1.9, abs=1e-12)
        assert cert.passed

    def test_gain_discount_gap_constant_value_equality_case(self, self_loop):
        pi = DeterministicPolicy(np.array([0]))
        cert = certify_gain_discount_gap(self_loop, pi, 0.7)
        assert cert.lhs == pytest.approx(0.0, abs=1e-12)
        assert cert.rhs == pytest.approx(0.0, abs=1e-12)
        assert cert.passed

    def test_gain_discount_gap_random_triples(self):
        rng = np.random.Generator(np.random.PCG64(1))
        for _, m in standard_corpus(count=40, master_seed=5):
            pi = DeterministicPolicy(rng.integers(0, m.num_actions, m.num_states))
            gamma = float(rng.choice([0.5, 0.9, 0.99]))
            assert certify_gain_discount_gap(m, pi, gamma).passed

    def test_span_bounds_one_state(self, self_loop):
        for cert in certify_span_bounds(self_loop, 0.5):
            assert cert.lhs == pytest.approx(0.0, abs=1e-9)
            assert cert.passed

    def test_span_bounds_cycle_frozen(self, cycle):
        certs = certify_span_bounds(cycle, 0.25)
        by_name = {c.name: c for c in certs}
        # H = 1/2 makes gamma = 1/2; values (4/3, 2/3) scale to span 1/3
        assert by_name["optimal_value_span"].lhs == pytest.approx(1 / 3, abs=1e-7)
        assert by_name["optimal_value_span"].rhs == 1.0
        assert by_name["optimal_policy_value_span"].lhs == pytest.approx(1 / 3,
                                                                         abs=1e-9)
        assert by_name["finite_horizon_span"].lhs == pytest.approx(1.0, abs=1e-12)
        assert by_name["finite_horizon_span"].rhs == pytest.approx(1.0, abs=1e-9)
        assert all(c.passed for c in certs)

    def test_span_bounds_constant_bias_fallback(self):
        # constant rewards give a zero bias span; the guard pins gamma = 1/2
        # and the bounds hold trivially
        m = standard_corpus(count=1, master_seed=3).__next__()[1]
        m = replace(m, rewards=np.full_like(m.rewards, 0.5))
        opt = amdp_optimal(m)
        assert opt.H <= 1e-10
        certs = certify_span_bounds(m, 0.5, opt=opt)
        assert all(c.passed for c in certs)
        assert all(c.lhs <= 1e-7 for c in certs)

    def test_span_bounds_hard_instances(self):
        spec = HardInstanceSpec(S=6, A=3, D=32, epsilon=1 / 32, variant="M1")
        m = hard_instance(spec)
        for eps in (0.5, 0.1):
            assert all(c.passed for c in certify_span_bounds(m, eps))

    def test_finite_horizon_identity(self, cycle, cycle_policy):
        cert = certify_finite_horizon_identity(cycle, cycle_policy)
        assert cert.lhs <= 1e-12
        assert cert.passed

    def test_finite_horizon_certificates_match_step_loops(self):
        # the stacked recursion must reproduce the per-step loops bit for bit
        # on the first 100 instances of the acceptance corpus
        for _, m in standard_corpus(count=100, master_seed=7):
            opt = amdp_optimal(m)
            chain = induce_chain(m, opt.policy)
            span_cert = certify_span_bounds(m, 0.5, opt=opt)[2]
            assert span_cert.lhs == finite_horizon_span_loop(
                chain.matrix, chain.reward, 200)
            gb = amdp_gain_bias(m, opt.policy)
            ident = certify_finite_horizon_identity(m, opt.policy)
            assert ident.lhs == finite_horizon_identity_loop(
                chain.matrix, chain.reward, gb.gain, gb.bias, 200)

    def test_reduction_chain_cycle(self, cycle):
        opt = amdp_optimal(cycle)
        for eps_gamma in (0.0, opt.H):
            certs = reduction_chain_certificates(cycle, 0.25, eps_gamma, "cycle",
                                                 opt=opt)
            assert len(certs) == 8
            assert all(c.passed for c in certs)
        final = certify_reduction_bound(cycle, 0.25, 0.0, "cycle", opt=opt)
        assert final.name == "reduction_bound"
        assert final.lhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, 2.0])
    def test_reduction_chain_rejects_epsilon_outside_unit_interval(self, cycle,
                                                                   epsilon):
        with pytest.raises(ValueError, match="epsilon"):
            reduction_chain_certificates(cycle, epsilon, 0.0, "cycle")

    def test_reduction_chain_m1_exact_solve_recovers_optimal(self):
        spec = HardInstanceSpec(S=6, A=3, D=32, epsilon=1 / 32, variant="M1")
        m = hard_instance(spec)
        cert = certify_reduction_bound(m, 0.1, 0.0, "m1")
        assert cert.lhs == pytest.approx(0.0, abs=1e-9)
        assert cert.passed

    def test_reduction_chain_random_sample(self):
        for _, m in standard_corpus(count=15, master_seed=41):
            opt = amdp_optimal(m)
            for eps in (0.5, 0.1):
                for eps_gamma in (0.0, opt.H):
                    certs = reduction_chain_certificates(m, eps, eps_gamma, opt=opt)
                    assert all(c.passed for c in certs), [
                        (c.name, c.lhs, c.rhs) for c in certs if not c.passed]


class TestEmpiricalError:
    def test_deterministic_truth_zero_gap(self):
        truth = make_deterministic_truth()
        params = reduction_params(0.5, 0.1, 1.0, 3, 2, n_override=1)
        records = empirical_error(GenerativeModel(truth, 3), params, 5)
        assert all(rec.gap == pytest.approx(0.0, abs=1e-9) for rec in records)
        assert empirical_error(GenerativeModel(truth, 3), params, 0) == []

    def test_single_action_truth_zero_gap(self):
        truth = two_state_slow_chain(4)
        params = reduction_params(0.5, 0.1, 1.0, 2, 1, n_override=10)
        records = empirical_error(GenerativeModel(truth, 3), params, 4)
        assert all(rec.gap == 0.0 for rec in records)

    def test_rerun_identical(self):
        spec = HardInstanceSpec(S=6, A=3, D=32, epsilon=1 / 32, variant="M1")
        truth = hard_instance(spec)
        params = reduction_params(0.25, 0.1, 2.0, 6, 3, n_override=300)
        a = empirical_error(GenerativeModel(truth, 5), params, 6)
        b = empirical_error(GenerativeModel(truth, 5), params, 6)
        assert a == b

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_pool_matches_serial_oracle(self, workers):
        # the trials sampled one after another, with one batched solve and
        # one batched evaluation after them, give the serial loop's seeds, in
        # trial order, and bit-identical gaps; so do `workers` calls run at
        # once on a pool of threads, each on its own model of the same truth
        import concurrent.futures

        for S, A in ((6, 3), (14, 4)):
            truth = hard_instance(HardInstanceSpec(S=S, A=A, D=32, epsilon=1 / 32,
                                                   variant="M1"))
            params = reduction_params(0.25, 0.1, 2.0, S, A, n_override=30)
            expected = serial_empirical_error(GenerativeModel(truth, 7), params, 12)
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                runs = list(pool.map(
                    lambda _: empirical_error(GenerativeModel(truth, 7), params, 12),
                    range(workers)))
            for records in runs:
                assert [(rec.seed, rec.gap) for rec in records] == expected
                assert all(isinstance(rec.wallclock_ms, int) and rec.wallclock_ms >= 0
                           for rec in records)
            assert len({gap for _, gap in expected}) > 1


class TestCsv:
    def test_certificates_report_json(self, tmp_path, cycle, cycle_policy):
        import json
        from amdp_lab import write_certificates_report
        certs = [certify_gain_discount_gap(cycle, cycle_policy, 0.9, "cycle")]
        path = tmp_path / "report.json"
        write_certificates_report(certs, path)
        assert json.loads(path.read_text()) == {"total": 1, "passed": 1, "failed": []}

    def test_certificates_report_matches_json_dumps(self, tmp_path):
        # _write_json spells every finite float as the spelled-out oracle
        # does, on every spelling format_number can lead to, and refuses a
        # non-finite one; the report it writes is byte for byte the spelled
        # summary, on failed entries, on strings json must escape, and on no
        # certificates at all
        from amdp_lab import Certificate, write_certificates_report

        rng = np.random.Generator(np.random.PCG64(5))
        values = [0.0, -0.0, 1.0, -3.0, 0.5, 1e-4, 1e-5, 5e-324, 123456789012.0,
                  1e11, 1e12, 1e15, 1e16, 1e22, -2.5e13, 1.7976931348623157e308,
                  0.1 + 0.2, 2.0 / 3.0, float("inf"), float("-inf"), float("nan"),
                  *(rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200))]
        path = tmp_path / "value.json"
        for x in map(float, values):
            if np.isfinite(x):
                reduction._write_json(path, x)
                assert path.read_text() == _spelled_float(x) + "\n"
            else:
                with pytest.raises(ValueError):
                    reduction._write_json(path, x)
        certs = [Certificate(name=f"check_{i % 7}", lhs=float(x),
                             rhs=float(values[(i * 7 + 3) % len(values)]),
                             tolerance=[1e-8, 0.0, 1e-6][i % 3], passed=i % 5 != 0,
                             instance_id=["corpus-001", 'q"uote\\', "tab\t", "\u00e9",
                                          ""][i % 5])
                 for i, x in enumerate(values)]
        for subset in (certs, [c for c in certs if c.passed], certs[:1], []):
            write_certificates_report(subset, tmp_path / "report.json")
            spelled_certificates_report(subset, tmp_path / "spelled.json")
            assert ((tmp_path / "report.json").read_bytes()
                    == (tmp_path / "spelled.json").read_bytes())

    def test_certificates_csv_layout(self, tmp_path, cycle, cycle_policy):
        certs = [certify_gain_discount_gap(cycle, cycle_policy, 0.9, "cycle")]
        path = tmp_path / "certs.csv"
        write_certificates_csv(certs, path)
        text = path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "instance_id,name,lhs,rhs,tolerance,passed"
        assert lines[1].startswith("cycle,gain_discount_gap,")
        assert lines[1].endswith(",true")
        assert "\r" not in text
