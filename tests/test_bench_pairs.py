import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("seeds", ["101", "110-101"])
def test_fewer_than_two_seeds_rejected_before_any_run(seeds, tmp_path,
                                                      monkeypatch, capsys):
    def no_run(*a, **kw):
        raise AssertionError("a benchmark ran before the seeds were checked")

    monkeypatch.setattr(bench_pairs, "run_side", no_run)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--seeds", seeds, "--out", str(out)])
    assert exc.value.code == 2
    assert "at least two" in capsys.readouterr().err
    assert not out.exists()


def test_seed_range():
    assert bench_pairs.seed_range("101-103") == [101, 102, 103]


@pytest.mark.parametrize("bad", [None, "parent", "change"])
def test_incorrect_run_recorded_then_exit_1(bad, tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}))

    def fake_run(checkout, workload, seed, seconds):
        side = "change" if "change" in str(checkout) else "parent"
        failed = 3 if side == bad and seed == 102 else 0
        return {"correct": failed == 0, "attempted": 10, "failed": failed,
                "metrics": {"ops_per_s": {"value": float(seed), "unit": "1/s"}}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    monkeypatch.setattr(bench_pairs, "head_commit", lambda path: path.name)
    out = tmp_path / "pairs.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--seeds", "101-103", "--out", str(out)])
    summary = json.loads(out.read_text())["summary"]["reduce_sweep"]
    assert summary["attempted"] == {"parent": 30, "change": 30}
    failed = {"parent": 0, "change": 0}
    if bad:
        failed[bad] = 3
    assert summary["failed"] == failed
    assert code == (1 if bad else 0)
    assert ("incorrect" in capsys.readouterr().err) == bool(bad)


def test_warm_up_run_of_each_workload_not_recorded(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]}))
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append(workload)  # each run's metric is its call number
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"ops_per_s": {"value": float(len(calls)), "unit": "1/s"}}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    monkeypatch.setattr(bench_pairs, "head_commit", lambda path: path.name)
    out = tmp_path / "pairs.json"
    workloads = ["reduce_sweep", "certify_corpus"]
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--seeds", "101-103", "--workloads", *workloads,
                             "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert len(record["runs"]) == 2 * 3 * 2
    assert len(calls) == 2 * 3 * 2 + 2
    warm_ups = {calls.index(w) + 1 for w in workloads}
    recorded = [r["result"]["metrics"]["ops_per_s"]["value"] for r in record["runs"]]
    assert sorted(recorded) == sorted(set(range(1, len(calls) + 1)) - warm_ups)
    for w in workloads:
        assert record["summary"][w]["attempted"] == {"parent": 30, "change": 30}
        assert record["summary"][w]["failed"] == {"parent": 0, "change": 0}


SPREAD = [100.0, 104.0, 98.0, 102.0, 97.0, 103.0, 99.0, 101.0, 96.0, 105.0]


@pytest.mark.parametrize("better, change, expected", [
    # every pair won, medians 20 apart against a parent IQR of about 5
    ("higher", [p + 20.0 for p in SPREAD], "gain"),
    ("lower", [p - 20.0 for p in SPREAD], "gain"),
    # 8 of 10 pairs won: no gain, however far apart the medians
    ("higher", [p + (20.0 if i < 8 else -1.0) for i, p in enumerate(SPREAD)],
     "no change"),
    # every pair won but by less than the parent's IQR
    ("higher", [p + 1.0 for p in SPREAD], "no change"),
    # median 30% worse, past the 25% bound
    ("higher", [0.7 * p for p in SPREAD], "regression"),
    ("lower", [1.3 * p for p in SPREAD], "regression"),
    # the change's runs spread past 25% of the parent's median
    ("higher", [p + (40.0 if i % 2 else -40.0) for i, p in enumerate(SPREAD)],
     "unresolved"),
    # as wide, but every change run beats every parent run
    ("higher", [p + 200.0 + (40.0 if i % 2 else -40.0) for i, p in enumerate(SPREAD)],
     "gain"),
])
def test_verdict_per_metric(better, change, expected, tmp_path, monkeypatch,
                            capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "m", "better": better, "bound": 0.25}]}))
    values = {"parent": SPREAD, "change": change}

    def fake_run(checkout, workload, seed, seconds):
        side = "change" if "change" in str(checkout) else "parent"
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"m": {"value": values[side][seed - 101], "unit": "1"}}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    monkeypatch.setattr(bench_pairs, "head_commit", lambda path: path.name)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"),
                             "--change", str(tmp_path / "change"),
                             "--seeds", "101-110", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]["reduce_sweep"]["m"]
    assert summary["verdict"] == expected
    assert f"reduce_sweep m: {expected} " in capsys.readouterr().err
