import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from amdp_lab import (
    HardInstanceSpec,
    hard_instance,
    read_mdp,
    two_state_cycle,
    two_state_slow_chain,
    write_mdp,
)
from amdp_lab.cli import main
from amdp_lab.corpus import standard_corpus
from amdp_lab.reduction import certify_instance
from conftest import make_transient_funnel
from oracles import separate_instance_certificates


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.json"
    write_mdp(two_state_cycle(), path)
    return str(path)


@pytest.fixture
def m1_file(tmp_path):
    code = main(["hardgen", "--S", "6", "--A", "3", "--D", "32",
                 "--epsilon", "0.03125", "--variant", "M1",
                 "--out", str(tmp_path)])
    assert code == 0
    return str(tmp_path / "M1_S6_A3_D32_eps0.03125.json")


@pytest.fixture
def m1_s14_file(tmp_path):
    # 4^14 policies: over the enumeration budget, so params skips t_mix
    code = main(["hardgen", "--S", "14", "--A", "4", "--D", "32",
                 "--epsilon", "0.03125", "--variant", "M1",
                 "--out", str(tmp_path)])
    assert code == 0
    return str(tmp_path / "M1_S14_A4_D32_eps0.03125.json")


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def run_fresh(args, **kwargs):
    """Run python with args in a fresh interpreter that imports this
    checkout's amdp_lab."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


class TestParser:
    def test_built_once_and_handlers_looked_up_per_call(self, monkeypatch):
        from amdp_lab import cli
        assert cli.build_parser() is cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_params", lambda args: seen.append(args.mdp) or 0)
        assert main(["params", "--mdp", "x.json"]) == 0
        assert seen == ["x.json"]

    def test_runs_as_module(self, cycle_file):
        proc = run_fresh(["-m", "amdp_lab.cli", "params", "--mdp", cycle_file])
        assert proc.returncode == 0, proc.stderr
        assert "H = 0.500000" in proc.stdout


class TestSolve:
    def test_dmdp_prints_six_decimals(self, cycle_file, capsys):
        assert main(["solve", "dmdp", "--mdp", cycle_file, "--gamma", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "V = (5.263158, 4.736842)" in out

    @pytest.mark.parametrize("instance", ["cycle", "m1"])
    def test_dmdp_is_the_exact_optimum(self, instance, cycle_file, m1_file,
                                       tmp_path, capsys):
        from amdp_lab import dmdp_policy_iteration, dmdp_value_iteration
        from amdp_lab.reduction import format_number
        path = cycle_file if instance == "cycle" else m1_file
        m = read_mdp(path)
        assert main(["solve", "dmdp", "--mdp", path, "--gamma", "0.9",
                     "--out", str(tmp_path / "solved")]) == 0
        written = json.loads((tmp_path / "solved" / "values.json").read_text())
        _, V, policy = dmdp_policy_iteration(m, 0.9)
        assert written["values"] == [float(format_number(x)) for x in V]
        _, V_vi, _ = dmdp_value_iteration(m, 0.9, 1e-10)
        assert np.max(np.abs(V - V_vi)) <= 1e-8
        out = capsys.readouterr().out
        assert f"policy = {list(map(int, policy.actions))}" in out

    def test_dmdp_has_no_accuracy_flag(self, cycle_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "dmdp", "--mdp", cycle_file, "--gamma", "0.9",
                  "--accuracy", "1e-6"])
        assert exc.value.code == 2
        assert "--accuracy" in capsys.readouterr().err

    def test_amdp_self_loop(self, tmp_path, capsys):
        from amdp_lab import TabularMdp
        path = tmp_path / "loop.json"
        write_mdp(TabularMdp(1, 1, np.array([[[1.0]]]), np.array([[0.7]])), path)
        assert main(["solve", "amdp", "--mdp", str(path)]) == 0
        assert "rho = (0.700000)" in capsys.readouterr().out

    def test_writes_machine_readable_outputs(self, cycle_file, tmp_path, capsys):
        out = tmp_path / "solved"
        assert main(["solve", "amdp", "--mdp", cycle_file, "--out", str(out)]) == 0
        gain = json.loads((out / "gain.json").read_text())
        assert gain["gain"] == [0.5, 0.5]
        policy = json.loads((out / "policy.json").read_text())
        assert policy["actions"] == [0, 0]

    def test_amdp_relative_vi_method(self, cycle_file, tmp_path, capsys):
        # every printed line and file is relative VI's iterate bias and
        # greedy policy, with that policy's exact gain
        from amdp_lab import amdp_gain_bias, relative_value_iteration, span
        from amdp_lab.corpus import random_mdp
        from amdp_lab.reduction import format_number

        def six(v):
            return "(" + ", ".join(f"{x:.6f}" for x in v) + ")"

        def file_floats(v):
            return [float(format_number(x)) for x in v]

        m1 = hard_instance(HardInstanceSpec(S=6, A=3, D=1e3, epsilon=1 / 32,
                                            variant="M1"))
        paths = [cycle_file]
        for name, m in (("m1", m1), ("random", random_mdp(50, 3, 0))):
            paths.append(str(tmp_path / f"{name}.json"))
            write_mdp(m, paths[-1])
        for k, path in enumerate(paths):
            out = tmp_path / f"solved{k}"
            assert main(["solve", "amdp", "--mdp", path, "--method", "relative_vi",
                         "--out", str(out)]) == 0
            m = read_mdp(path)
            _, bias, policy = relative_value_iteration(m)
            gain, H = amdp_gain_bias(m, policy).gain, span(bias)
            assert capsys.readouterr().out.splitlines() == [
                f"rho = {six(gain)}", f"h = {six(bias)}", f"H = {H:.6f}",
                f"policy = {policy.actions.tolist()}"]
            written = {name: json.loads((out / f"{name}.json").read_text())
                       for name in ("gain", "bias", "policy")}
            assert written == {
                "gain": {"gain": file_floats(gain)},
                "bias": {"bias": file_floats(bias), "H": float(format_number(H))},
                "policy": {"actions": policy.actions.tolist()}}
            if path == cycle_file:
                assert f"rho = {six(gain)}" == "rho = (0.500000, 0.500000)"

    def test_amdp_over_enumeration_budget_matches_params(self, m1_s14_file,
                                                         capsys):
        # 4^14 policies exceed the enumeration budget, which binds only
        # t_mix: solve and params' analysis run the same policy iteration
        capsys.readouterr()
        assert main(["solve", "amdp", "--mdp", m1_s14_file]) == 0
        solved = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("H = ")]
        assert main(["params", "--mdp", m1_s14_file]) == 0
        assert solved == [line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("H = ")]
        assert solved == ["H = 1.777778"]

    def test_invalid_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = {"num_states": 2, "num_actions": 1,
               "transitions": [[[0.4, 0.5]], [[1.0, 0.0]]],
               "rewards": [[0.0], [0.0]]}
        path.write_text(json.dumps(doc))
        assert main(["solve", "dmdp", "--mdp", str(path), "--gamma", "0.9"]) == 2
        assert "P[0][0]" in capsys.readouterr().err

    def test_missing_gamma_exits_2(self, cycle_file, capsys):
        assert main(["solve", "dmdp", "--mdp", cycle_file]) == 2

    def test_amdp_not_weakly_communicating_prints_note(self, tmp_path, capsys):
        from conftest import make_two_absorbing
        path = tmp_path / "two_absorbing.json"
        write_mdp(make_two_absorbing(), path)
        assert main(["solve", "amdp", "--mdp", str(path)]) == 0
        assert "note: input is not weakly communicating" in capsys.readouterr().out

    def test_solver_failure_exits_3(self, cycle_file, monkeypatch, capsys):
        from amdp_lab import chains
        monkeypatch.setattr(chains, "PI_MAX_ITERATIONS", 0)
        assert main(["solve", "dmdp", "--mdp", cycle_file, "--gamma", "0.9"]) == 3
        assert "solver error: policy iteration" in capsys.readouterr().err


class TestParams:
    def test_cycle(self, cycle_file, capsys):
        assert main(["params", "--mdp", cycle_file]) == 0
        out = capsys.readouterr().out
        assert "D = 1.000000" in out
        assert "t_mix = inf" in out
        assert "H = 0.500000" in out
        assert "H <= D: pass" in out
        assert "H <= 8 t_mix: vacuous (t_mix = inf)" in out

    def test_over_budget_skips_mixing(self, m1_s14_file, capsys):
        assert main(["params", "--mdp", m1_s14_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "t_mix = not computed (enumeration budget exceeded)" in out
        assert "H <= 8 t_mix: skipped" in out

    def test_m1_reports_order_relation(self, m1_file, capsys):
        assert main(["params", "--mdp", m1_file]) == 0
        out = capsys.readouterr().out
        assert "H <= D: pass" in out

    def test_directory_mdp_exits_2(self, tmp_path, capsys):
        # reading a directory raises IsADirectoryError, an OSError
        assert main(["params", "--mdp", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_slow_chain_tmix_one(self, tmp_path, capsys):
        path = tmp_path / "slow.json"
        write_mdp(two_state_slow_chain(100), path)
        assert main(["params", "--mdp", str(path)]) == 0
        out = capsys.readouterr().out
        assert "t_mix = 1.000000" in out
        assert "H <= 8 t_mix: pass" in out

    @pytest.mark.parametrize("D, t_mix, H, failing", [
        (2.0, math.inf, 3.0, "H <= D: FAIL"),
        (math.inf, 0.25, 3.0, "H <= 8 t_mix: FAIL"),
    ])
    def test_failed_order_relation_prints_fail(self, monkeypatch, cycle_file, capsys,
                                               D, t_mix, H, failing):
        # params reports a failed order relation and exits 1, as certify
        # does for a failed certificate
        from types import SimpleNamespace

        from amdp_lab import solvers

        monkeypatch.setattr(solvers, "_analysis",
                            lambda m: (D, t_mix, SimpleNamespace(H=H)))
        assert main(["params", "--mdp", cycle_file]) == 1
        assert failing in capsys.readouterr().out.splitlines()


class TestHardgen:
    def test_writes_valid_file(self, tmp_path, capsys):
        assert main(["hardgen", "--S", "14", "--A", "4", "--D", "32",
                     "--epsilon", "0.03125", "--variant", "M0",
                     "--out", str(tmp_path)]) == 0
        m = read_mdp(tmp_path / "M0_S14_A4_D32_eps0.03125.json")
        assert m.num_states == 14
        assert m.metadata["variant"] == "M0"

    def test_mkl_differs_from_m1_in_one_row(self, tmp_path):
        for variant, extra in (("M1", []), ("MKL", ["--k", "2", "--l", "2"])):
            assert main(["hardgen", "--S", "6", "--A", "3", "--D", "32",
                         "--epsilon", "0.03125", "--variant", variant,
                         "--out", str(tmp_path)] + extra) == 0
        m1 = read_mdp(tmp_path / "M1_S6_A3_D32_eps0.03125.json")
        mkl = read_mdp(tmp_path / "MKL_S6_A3_D32_eps0.03125_k2_l2.json")
        diff = np.argwhere(np.any(m1.transitions != mkl.transitions, axis=2))
        assert diff.shape == (1, 2)

    @pytest.mark.parametrize("variant", ["M0", "M1"])
    @pytest.mark.parametrize("extra", [["--k", "99", "--l", "-4"], ["--k", "1"],
                                       ["--l", "1"]])
    def test_k_l_only_with_mkl(self, variant, extra, tmp_path, capsys):
        assert main(["hardgen", "--S", "6", "--A", "3", "--D", "32",
                     "--epsilon", "0.03125", "--variant", variant,
                     "--out", str(tmp_path)] + extra) == 2
        assert "--variant MKL" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_inadmissible_D_exits_2(self, tmp_path, capsys):
        # nan and inf used to pass the D floor: nan wrote a file read_mdp
        # rejects, inf one whose y states absorb
        for D in ("8", "nan", "inf"):
            assert main(["hardgen", "--S", "14", "--A", "4", "--D", D,
                         "--epsilon", "0.03125", "--out", str(tmp_path)]) == 2
            assert "D >= max(16*ceil(log_A S), 16)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCertify:
    def test_cycle_file_seven_certificates(self, cycle_file, tmp_path, capsys):
        assert main(["certify", "--mdp", cycle_file, "--out", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "certificates.csv")
        assert len(rows) == 7
        assert all(row["passed"] == "true" for row in rows)
        report = json.loads((tmp_path / "certificates.json").read_text())
        assert report["total"] == 7 and report["failed"] == []

    def test_corrupted_file_exits_2_before_certifying(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"num_states": 2, "num_actions": 1,
               "transitions": [[[0.4, 0.5]], [[1.0, 0.0]]],
               "rewards": [[0.0], [0.0]]}
        path.write_text(json.dumps(doc))
        assert main(["certify", "--mdp", str(path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "certificates.csv").exists()

    def test_small_corpus_passes(self, tmp_path, capsys):
        assert main(["certify", "--count", "12", "--smax", "5", "--amax", "3",
                     "--seed", "7", "--out", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "certificates.csv")
        assert len({row["instance_id"] for row in rows}) == 12
        assert all(row["passed"] == "true" for row in rows)

    def test_out_under_a_file_exits_2(self, tmp_path, capsys):
        # mkdir under a regular file raises NotADirectoryError, an OSError
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["certify", "--count", "1", "--out", str(blocker / "sub")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_infinite_certificate_side_is_strict_json(self, tmp_path, capsys):
        # the funnel has D = inf, so a certificate side is infinite; the CSV
        # writes it and the report, a summary, stays strict JSON
        path = tmp_path / "funnel.json"
        write_mdp(make_transient_funnel(), path)
        assert main(["certify", "--mdp", str(path), "--out", str(tmp_path)]) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        rows = read_csv_rows(tmp_path / "certificates.csv")
        assert "inf" in [row["rhs"] for row in rows]
        json.loads((tmp_path / "certificates.json").read_text(), parse_constant=reject)

    def test_needs_input(self, tmp_path, capsys):
        assert main(["certify", "--out", str(tmp_path)]) == 2

    def test_failed_certificate_exits_1(self, cycle_file, tmp_path, monkeypatch,
                                        capsys):
        from amdp_lab import reduction

        def one_failing(m, epsilon, instance_id):
            certs = certify_instance(m, epsilon, instance_id)
            return [replace(certs[0], rhs=-1.0, passed=False), *certs[1:]]

        monkeypatch.setattr(reduction, "certify_instance", one_failing)
        assert main(["certify", "--mdp", cycle_file, "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL two_state_cycle gain_discount_gap: lhs=" in out
        assert out.endswith("1 failed\n")
        report = json.loads((tmp_path / "certificates.json").read_text())
        assert report["failed"] == [{"instance_id": "two_state_cycle",
                                     "name": "gain_discount_gap"}]

    def test_report_is_the_csv_summary(self, cycle_file, tmp_path, monkeypatch,
                                       capsys):
        from amdp_lab import reduction

        def first_and_last_failing(m, epsilon, instance_id):
            first, *middle, last = certify_instance(m, epsilon, instance_id)
            return [replace(first, rhs=-1.0, passed=False), *middle,
                    replace(last, rhs=-1.0, passed=False)]

        assert main(["certify", "--count", "12", "--smax", "5", "--amax", "3",
                     "--seed", "7", "--out", str(tmp_path / "corpus")]) == 0
        monkeypatch.setattr(reduction, "certify_instance", first_and_last_failing)
        assert main(["certify", "--mdp", cycle_file,
                     "--out", str(tmp_path / "failing")]) == 1
        for name in ("corpus", "failing"):
            rows = read_csv_rows(tmp_path / name / "certificates.csv")
            report = json.loads((tmp_path / name / "certificates.json").read_text())
            assert report == {
                "total": len(rows),
                "passed": sum(row["passed"] == "true" for row in rows),
                "failed": [{"instance_id": row["instance_id"], "name": row["name"]}
                           for row in rows if row["passed"] == "false"]}
        assert len(report["failed"]) == 2

    def test_mdp_and_count_exit_2(self, cycle_file, tmp_path, capsys):
        # --count used to be ignored silently when --mdp named files
        out = tmp_path / "out"
        assert main(["certify", "--mdp", cycle_file, "--count", "3",
                     "--out", str(out)]) == 2
        assert "--mdp files or --count, not both" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--count", "-5"], "count must be at least 1, got -5"),
        (["--count", "0"], "count must be at least 1, got 0"),
        (["--count", "3", "--smax", "1"], "max_states must be at least 2, got 1"),
        (["--count", "3", "--amax", "0"], "max_actions must be at least 1, got 0"),
    ])
    def test_bad_corpus_spec_exits_2(self, tmp_path, capsys, flags, message):
        assert main(["certify", *flags, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestReduce:
    def test_single_action_gap_zero(self, tmp_path, capsys):
        path = tmp_path / "slow.json"
        write_mdp(two_state_slow_chain(4), path)
        assert main(["reduce", "--mdp", str(path), "--epsilon", "0.5",
                     "--seed", "3", "--N", "10"]) == 0
        assert "gap = 0.000000" in capsys.readouterr().out

    def test_rerun_identical(self, m1_file, capsys):
        args = ["reduce", "--mdp", m1_file, "--epsilon", "0.25", "--H", "oracle",
                "--N", "2000", "--seed", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_numeric_H_bound(self, m1_file, capsys):
        assert main(["reduce", "--mdp", m1_file, "--epsilon", "0.25",
                     "--H", "3.0", "--N", "500", "--seed", "2"]) == 0
        assert "gap = " in capsys.readouterr().out

    def test_sub_one_H_exits_2(self, m1_file, capsys):
        assert main(["reduce", "--mdp", m1_file, "--epsilon", "0.25",
                     "--H", "0.5", "--N", "10", "--seed", "2"]) == 2

    def test_smoke_n_equals_one(self, m1_file, capsys):
        assert main(["reduce", "--mdp", m1_file, "--epsilon", "0.25",
                     "--N", "1", "--seed", "9"]) == 0
        assert "gap = " in capsys.readouterr().out


SAMPLING_COMMANDS = [["reduce", "--N", "100"],
                     ["experiment", "--N", "100", "--trials", "2"]]


@pytest.mark.parametrize("command", [["reduce"], ["experiment", "--trials", "2"]])
def test_zero_N_exits_2_naming_N(command, m1_file, tmp_path, capsys):
    assert main(command + ["--mdp", m1_file, "--epsilon", "0.25", "--N", "0",
                           "--seed", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: N (samples per pair) must be at least 1, got 0\n"


class TestOptimumSolvedOnce:
    @pytest.mark.parametrize("command", SAMPLING_COMMANDS)
    def test_oracle_H_reuses_the_optimum(self, command, m1_file, tmp_path,
                                         monkeypatch, capsys):
        from amdp_lab import solvers
        calls = []
        original = solvers.amdp_optimal

        def counting(*a, **kw):
            calls.append(1)
            return original(*a, **kw)

        monkeypatch.setattr(solvers, "amdp_optimal", counting)
        assert main(command + ["--mdp", m1_file, "--epsilon", "0.25",
                               "--H", "oracle", "--seed", "5",
                               "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", SAMPLING_COMMANDS)
    @pytest.mark.parametrize("H", ["0.5", "big"])
    def test_bad_H_exits_2_before_sampling(self, command, H, m1_file, tmp_path,
                                           monkeypatch, capsys):
        from amdp_lab import generative

        def no_sampling(*a, **kw):
            raise AssertionError("sampled before --H was checked")

        # the per-pair draw loop, which reduce (through algorithm1 and
        # build_empirical) and experiment (through _sample_trials) both run
        monkeypatch.setattr(generative, "_draw", no_sampling)
        assert main(command + ["--mdp", m1_file, "--epsilon", "0.25", "--H", H,
                               "--seed", "5", "--out", str(tmp_path)]) == 2
        assert "--H" in capsys.readouterr().err


class TestPoliciesEnumeratedOnce:
    """params and certify enumerate the policies once, for t_mix alone."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        from amdp_lab import chains
        calls = []
        original = chains.all_deterministic_policies

        def counting(*a, **kw):
            calls.append(a)
            return original(*a, **kw)

        monkeypatch.setattr(chains, "all_deterministic_policies", counting)
        return calls

    @pytest.mark.parametrize("command", [["certify", "--out"], ["params"]])
    def test_m1_s6a3_enumerates_once(self, command, enumerations, m1_file,
                                     tmp_path, capsys):
        args = command + [str(tmp_path)] if command[0] == "certify" else command
        assert main(args + ["--mdp", m1_file]) == 0
        assert enumerations == [(6, 3)]

    def test_over_budget_params_enumerates_nothing(self, enumerations,
                                                   m1_s14_file, capsys):
        assert main(["params", "--mdp", m1_s14_file]) == 0
        assert enumerations == []


class TestOneAnalysisMatchesSeparatePath:
    """certify_instance's certificates equal those of the path that solved,
    enumerated and measured each quantity separately."""

    def test_corpus(self):
        mixing = 0
        for instance_id, m in standard_corpus(count=200, master_seed=7):
            certs = certify_instance(m, 0.25, instance_id)
            assert certs == separate_instance_certificates(m, instance_id, 0.25)
            mixing += certs[-1].name == "bias_span_le_mixing"
        assert mixing > 100  # the finite-t_mix branch is exercised

    @pytest.mark.parametrize("variant", ["M0", "M1"])
    @pytest.mark.parametrize("D", [32, 1e3, 1e4])
    def test_hard_family(self, variant, D):
        m = hard_instance(HardInstanceSpec(S=6, A=3, D=D, epsilon=1 / 32,
                                           variant=variant))
        assert (certify_instance(m, 0.25, variant)
                == separate_instance_certificates(m, variant, 0.25))


class TestCertifySharesQuantities:
    """One certify op solves the calibrated discounted problem once, runs the
    optimal policy's horizon recursion once (P^T bias comes from doubling),
    and evaluates each chain once per use (_gain_bias, which chain_gain_bias
    and the optimum's policy iteration call): once per round of the
    optimum for the gain/bias, once more for the next term w in a round
    that leaves a tie at the bias level, and the discounted optimum
    pi_hat's only where it differs from pi*."""

    @pytest.fixture
    def certify_calls(self, tmp_path, monkeypatch):
        """Run certify on one file; return the call counts and the number of
        distinct chains whose gain/bias was evaluated."""
        from amdp_lab import reduction, solvers
        names = ("horizon_iterates", "dmdp_policy_iteration", "dmdp_policy_value",
                 "_gain_bias", "amdp_gain_bias")
        calls = dict.fromkeys(names, 0)
        chains = set()
        for name in names:
            def counting(*a, _original=getattr(solvers, name), _name=name, **kw):
                calls[_name] += 1
                if _name == "_gain_bias":
                    chains.add(a[0].tobytes())
                return _original(*a, **kw)

            for module in (solvers, reduction):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)

        def run(path):
            assert main(["certify", "--mdp", path, "--out", str(tmp_path)]) == 0
            return calls, len(chains)
        return run

    def test_m1_s6a3_call_counts(self, certify_calls, m1_file, capsys):
        # two rounds from the reward-greedy policy to the bias-optimal
        # pi* = pi_hat = [1,0,0,0,0,0]: two chains, two evaluations each
        assert certify_calls(m1_file) == (
            {"horizon_iterates": 1, "dmdp_policy_iteration": 1,
             "dmdp_policy_value": 2, "_gain_bias": 4, "amdp_gain_bias": 0}, 2)

    @pytest.mark.parametrize("fixture", [
        "cycle_file",   # one action, so no tie and no w: pi_hat = pi*
        "m1_s14_file",  # 4^14 policies, one round with a tie: pi_hat = pi*
    ])
    def test_optimal_discounted_policy_reuses_gain(self, fixture, certify_calls,
                                                   request, capsys):
        gain_bias = {"cycle_file": 1, "m1_s14_file": 2}[fixture]
        assert certify_calls(request.getfixturevalue(fixture)) == (
            {"horizon_iterates": 1, "dmdp_policy_iteration": 1,
             "dmdp_policy_value": 2, "_gain_bias": gain_bias, "amdp_gain_bias": 0}, 1)


class TestReductionInputs:
    @pytest.mark.parametrize("command", SAMPLING_COMMANDS)
    @pytest.mark.parametrize("H", ["inf", "nan"])
    def test_non_finite_H_exits_2_before_sampling(self, command, H, m1_file,
                                                  tmp_path, monkeypatch, capsys):
        # gamma = 1 - eps / (12 H) would be 1 (or nan) at such an H
        from amdp_lab import generative

        def no_sampling(*a, **kw):
            raise AssertionError("sampled with a non-finite H bound")

        monkeypatch.setattr(generative, "_draw", no_sampling)
        assert main(command + ["--mdp", m1_file, "--epsilon", "0.25", "--H", H,
                               "--seed", "5", "--out", str(tmp_path)]) == 2
        assert "H_bound must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("N", ["100,200", ","])
    def test_reduce_takes_one_N(self, N, m1_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--mdp", m1_file, "--epsilon", "0.25", "--N", N,
                  "--seed", "1"])
        assert exc.value.code == 2
        assert "--N" in capsys.readouterr().err


class TestExperiment:
    def test_rows_and_determinism(self, m1_file, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["experiment", "--mdp", m1_file, "--epsilon", "0.25",
                "--H", "oracle", "--N", "100,1000", "--seed", "42",
                "--trials", "4"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        rows1 = read_csv_rows(out1 / "experiment.csv")
        rows2 = read_csv_rows(out2 / "experiment.csv")
        assert len(rows1) == 8  # |N list| x trials
        for r1, r2 in zip(rows1, rows2):
            for key in ("instance_id", "N", "seed", "gap", "success",
                        "total_samples"):
                assert r1[key] == r2[key]
        assert rows1[0]["total_samples"] == str(100 * 6 * 3)
        ns = [row["N"] for row in rows1]
        assert ns == sorted(ns, key=int)

    def test_thread_count_does_not_change_output(self, m1_file, tmp_path,
                                                 monkeypatch, capsys):
        # experiment samples on one thread: the CPUs the process sees change
        # no row, also at an N whose draws once filled a pool of workers
        args = ["experiment", "--mdp", m1_file, "--epsilon", "0.25",
                "--N", "100,100000", "--seed", "11", "--trials", "6"]
        for cpus, out in ((1, "one"), (3, "three")):
            monkeypatch.setattr(os, "cpu_count", lambda n=cpus: n)
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cpus: set(range(n)), raising=False)
            assert main(args + ["--out", str(tmp_path / out)]) == 0
        rows_1 = read_csv_rows(tmp_path / "one" / "experiment.csv")
        rows_3 = read_csv_rows(tmp_path / "three" / "experiment.csv")
        assert len(rows_1) == len(rows_3) == 12
        for r1, r3 in zip(rows_1, rows_3):
            for key in ("instance_id", "N", "seed", "gap", "success",
                        "total_samples"):
                assert r1[key] == r3[key]

    def test_empty_seeds_rejected(self, m1_file, tmp_path, capsys):
        assert main(["experiment", "--mdp", m1_file, "--epsilon", "0.25",
                     "--N", "100", "--seed", "1", "--trials", "0",
                     "--out", str(tmp_path)]) == 2

    def test_malformed_N_exits_2(self, m1_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--mdp", m1_file, "--epsilon", "0.25",
                  "--N", "1,x", "--seed", "1", "--trials", "2",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "not a comma-separated int list: '1,x'" in capsys.readouterr().err

    def test_empty_N_rejected(self, m1_file, tmp_path, capsys):
        assert main(["experiment", "--mdp", m1_file, "--epsilon", "0.25",
                     "--N", ",", "--seed", "1", "--trials", "2",
                     "--out", str(tmp_path)]) == 2


class TestLazyImports:
    # numpy.random (about 6 MB) loads only where a command samples, and
    # experiment samples on one thread whatever N is, so it never loads
    # concurrent.futures
    PROBE = ("import sys\n"
             "from amdp_lab.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print(code, *(name for name in ('numpy.random', 'concurrent.futures')\n"
             "              if name in sys.modules))\n")

    @pytest.mark.parametrize("command, loaded", [
        (["certify"], []),
        (["params"], []),
        (["solve", "amdp"], []),
        (["experiment", "--epsilon", "0.25", "--N", "100", "--seed", "3",
          "--trials", "4"], ["numpy.random"]),
        (["experiment", "--epsilon", "0.25", "--N", "100000", "--seed", "3",
          "--trials", "10"], ["numpy.random"]),
    ], ids=["certify", "params", "solve", "experiment", "experiment-1e5"])
    def test_command_leaves_modules_unloaded(self, command, loaded, m1_file,
                                             tmp_path):
        out = ["--out", str(tmp_path / "out")] if command[0] != "params" else []
        proc = run_fresh(["-c", self.PROBE, *command, "--mdp", m1_file, *out])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split() == ["0", *loaded]
