import csv
import json

import numpy as np
import pytest

from amdp_lab import read_mdp, two_state_cycle, two_state_slow_chain, write_mdp
from amdp_lab.cli import main


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


def read_csv_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestParser:
    def test_built_once_and_handlers_looked_up_per_call(self, monkeypatch):
        from amdp_lab import cli
        assert cli.build_parser() is cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_params", lambda args: seen.append(args.mdp) or 0)
        assert main(["params", "--mdp", "x.json"]) == 0
        assert seen == ["x.json"]


class TestSolve:
    def test_dmdp_prints_six_decimals(self, cycle_file, capsys):
        assert main(["solve", "dmdp", "--mdp", cycle_file, "--gamma", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "V = (5.263158, 4.736842)" in out

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

    def test_amdp_relative_vi_method(self, cycle_file, capsys):
        assert main(["solve", "amdp", "--mdp", cycle_file,
                     "--method", "relative_vi"]) == 0
        assert "rho = (0.500000, 0.500000)" in capsys.readouterr().out

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


class TestParams:
    def test_cycle(self, cycle_file, capsys):
        assert main(["params", "--mdp", cycle_file]) == 0
        out = capsys.readouterr().out
        assert "D = 1.000000" in out
        assert "t_mix = inf" in out
        assert "H = 0.500000" in out
        assert "H <= D: pass" in out

    def test_m1_reports_order_relation(self, m1_file, capsys):
        assert main(["params", "--mdp", m1_file]) == 0
        out = capsys.readouterr().out
        assert "H <= D: pass" in out

    def test_slow_chain_tmix_one(self, tmp_path, capsys):
        path = tmp_path / "slow.json"
        write_mdp(two_state_slow_chain(100), path)
        assert main(["params", "--mdp", str(path)]) == 0
        out = capsys.readouterr().out
        assert "t_mix = 1.000000" in out
        assert "H <= 8 t_mix: pass" in out


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

    def test_inadmissible_D_exits_2(self, tmp_path, capsys):
        assert main(["hardgen", "--S", "14", "--A", "4", "--D", "8",
                     "--epsilon", "0.03125", "--out", str(tmp_path)]) == 2
        assert "D >= max(16*ceil(log_A S), 16)" in capsys.readouterr().err


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

    def test_needs_input(self, tmp_path, capsys):
        assert main(["certify", "--out", str(tmp_path)]) == 2


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
        from amdp_lab import reduction

        def no_sampling(*a, **kw):
            raise AssertionError("sampled before --H was checked")

        monkeypatch.setattr(reduction, "algorithm1", no_sampling)
        assert main(command + ["--mdp", m1_file, "--epsilon", "0.25", "--H", H,
                               "--seed", "5", "--out", str(tmp_path)]) == 2
        assert "--H" in capsys.readouterr().err


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
        args = ["experiment", "--mdp", m1_file, "--epsilon", "0.25",
                "--N", "100", "--seed", "11", "--trials", "6"]
        monkeypatch.setenv("AMDP_LAB_THREADS", "1")
        assert main(args + ["--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setenv("AMDP_LAB_THREADS", "3")
        assert main(args + ["--out", str(tmp_path / "threaded")]) == 0
        rows_s = read_csv_rows(tmp_path / "serial" / "experiment.csv")
        rows_t = read_csv_rows(tmp_path / "threaded" / "experiment.csv")
        for r1, r2 in zip(rows_s, rows_t):
            for key in ("instance_id", "N", "seed", "gap", "success",
                        "total_samples"):
                assert r1[key] == r2[key]

    def test_empty_seeds_rejected(self, m1_file, tmp_path, capsys):
        assert main(["experiment", "--mdp", m1_file, "--epsilon", "0.25",
                     "--N", "100", "--seed", "1", "--trials", "0",
                     "--out", str(tmp_path)]) == 2

    def test_empty_N_rejected(self, m1_file, tmp_path, capsys):
        assert main(["experiment", "--mdp", m1_file, "--epsilon", "0.25",
                     "--N", ",", "--seed", "1", "--trials", "2",
                     "--out", str(tmp_path)]) == 2
