"""Checks of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Each traced check runs a short prefix of a workload's op list so the file
finishes in well under a minute.
"""

import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import check  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from amdp_lab import cli  # noqa: E402

# cheap ops only: the first corpus instances, N=1e3 sweeps, the small
# large_instance inputs
PREFIX = {
    "certify_corpus": lambda ops: ops[:30],
    "reduce_sweep": lambda ops: [op for op in ops if "/N1000/" in op.key],
    "large_instance": lambda ops: [op for op in ops if "D32" in op.key or "S50" in op.key],
}


def traced_prefix(workload, tmp_path, seed=3):
    ops, refs, replacements = run.setup(workload, seed, tmp_path)
    ops = PREFIX[workload](ops)
    checker = run.Checker(refs)
    tracer = tracing.Tracer()
    walls, written, _ = run.traced_pass(cli, ops, replacements, checker, tracer)
    assert checker.failed == 0, checker.first_failures
    return tracer, walls, written


def exact_counts(tracer, walls, written, with_bytes):
    calls = {}
    for _, name, *_ in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
    out = {"calls": calls, "counters": dict(tracer.counters),
           "repeats": dict(tracer.repeats)}
    if with_bytes:
        out["bytes"] = written
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload, tmp_path):
    # experiment CSVs carry a measured wallclock_ms column, so their byte
    # count is the one figure allowed to move between runs
    with_bytes = workload != "reduce_sweep"
    first = traced_prefix(workload, tmp_path / "a")
    second = traced_prefix(workload, tmp_path / "b")
    counts = exact_counts(*first, with_bytes)
    assert counts == exact_counts(*second, with_bytes)
    assert counts["calls"]["cli.main"] == len(first[1])


@pytest.mark.parametrize("workload", ["certify_corpus", "reduce_sweep"])
def test_self_times_account_for_op_wall_time(workload, tmp_path):
    tracer, walls, _ = traced_prefix(workload, tmp_path)
    selfs = tracing.self_times(tracer.spans)
    assert min(selfs.values()) >= -1e-12
    for i, wall in walls.items():
        spans = [s for s in tracer.spans if s[5] == i]
        roots = [s for s in spans if s[4] == 0]
        assert [r[1] for r in roots] == ["cli.main"]
        root_s = roots[0][3] - roots[0][2]
        self_sum = sum(selfs[s[0]] for s in spans)
        assert 0.0 <= wall - root_s < 0.05 * wall + 1e-3
        if workload == "certify_corpus":  # one thread: self times tile the op
            assert self_sum == pytest.approx(root_s, rel=1e-9, abs=1e-9)
        else:  # experiment worker threads overlap, so self time can exceed it
            assert self_sum >= root_s * (1 - 1e-9)


def test_self_times_subtract_the_union_of_children():
    spans = [
        (1, "root", 0.0, 10.0, 0, 0),
        (2, "a", 1.0, 4.0, 1, 0),
        (3, "b", 3.0, 6.0, 1, 0),   # overlaps a (another thread)
        (4, "c", 3.5, 4.5, 3, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 5.0, 2: 3.0, 3: 2.0, 4: 1.0})


def test_repeat_tracking_sees_equal_arguments():
    from amdp_lab import corpus, solvers

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        m = corpus.random_mdp(3, 2, 1)
        solvers.dmdp_value_iteration(m, 0.9, 1e-9)
        solvers.dmdp_value_iteration(m, 0.9, target_accuracy=1e-9)
        solvers.dmdp_value_iteration(m, 0.5, 1e-9)
        tracer.begin_op(1)
        solvers.dmdp_value_iteration(m, 0.9, 1e-9)
    finally:
        tracer.uninstall()
    assert tracer.repeats["solvers.dmdp_value_iteration"] == 1
    assert not hasattr(solvers.dmdp_value_iteration, "__wrapped__")


def test_tracer_binds_every_namespace():
    from amdp_lab import reduction, solvers

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert reduction.amdp_optimal is solvers.amdp_optimal
        assert hasattr(reduction.amdp_optimal, "__wrapped__")
    finally:
        tracer.uninstall()
    assert reduction.amdp_optimal is solvers.amdp_optimal


def test_spec_metrics_are_all_computed(tmp_path):
    spec = run.load_spec()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    tracer, walls, _ = traced_prefix("certify_corpus", tmp_path)
    computed, _ = run.layer_metrics(tracer, walls, list(walls.values()))
    computed.update({"cli.bytes_written": 0.0, "host.calib_py_ms": 0.0,
                     "host.calib_matmul_ms": 0.0})
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in computed]
    assert not missing


@pytest.mark.parametrize("got, ok", [
    ("V = (5.263158, 4.736842)\npolicy = [0, 1]\n", True),
    ("V = (5.263159, 4.736842)\npolicy = [0, 1]\n", True),   # print resolution
    ("V = (5.263358, 4.736842)\npolicy = [0, 1]\n", False),
    ("V = (5.263158, 4.736842)\npolicy = [0, 0]\n", False),  # integers exact
    ("V = (5.263158, 4.736842)\npolicy = [0, 1, 0]\n", False),
    ("V = (5.263158, 4.736842)\npolicy: [0, 1]\n", False),
])
def test_text_comparison(got, ok):
    want = "V = (5.263158, 4.736842)\npolicy = [0, 1]\n"
    assert (check.text_mismatch(got, want) is None) == ok


def test_experiment_wallclock_is_not_compared(tmp_path):
    header = "instance_id,N,seed,gap,success,wallclock_ms,total_samples\n"
    (tmp_path / "experiment.csv").write_text(header + "M1,1000,5,0,true,41,18000\n")
    a = check.capture(0, "", str(tmp_path), ("experiment.csv",), [])
    (tmp_path / "experiment.csv").write_text(header + "M1,1000,5,0,true,97,18000\n")
    b = check.capture(0, "", str(tmp_path), ("experiment.csv",), [])
    assert check.mismatch(a, b) is None
    (tmp_path / "experiment.csv").write_text(header + "M1,1000,5,0,false,97,18000\n")
    c = check.capture(0, "", str(tmp_path), ("experiment.csv",), [])
    assert check.mismatch(a, c) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "no program source" in proc.stderr
