#!/usr/bin/env python3
"""amdp-lab benchmark: closed-loop CLI workloads with reference-checked outputs.

One client runs the workload's fixed op list in order, each op one
``amdp_lab.cli.main(argv)`` call made in-process, the way a researcher waits
on each command.  A run makes a fixed number of whole passes over the list,
sized to take about ``--seconds``.  Every op's outputs are checked against
the references in ``refs/``.

    python3 bench/run.py --workload certify_corpus --seed 7 --seconds 48 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 48   # every workload's metrics

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it runs every op once untraced and once traced and reports the
per-layer metrics named in BENCHMARK.json.  Host details, calibration timings
and (traced) the full per-function table and spans go to ``.bench_run/``
and stderr.  Run from the repository root; the program is imported from
``src/``.
"""

import os

# BLAS gets one thread, so the experiment pool's threads never exceed nproc;
# this must happen before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import check  # noqa: E402
import tracer as tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
REFS_DIR = BENCH_DIR / "refs"

SETUP_REPS = 7
MAX_OVERRUN = 1.25
SETUP_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here (missing program, references or spec)."""


def import_program() -> None:
    """Import amdp_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "amdp_lab" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'amdp_lab'}")
    sys.path.insert(0, str(SRC))
    import amdp_lab

    if Path(amdp_lab.__file__).resolve().parent != (SRC / "amdp_lab").resolve():
        raise BenchError(f"amdp_lab imported from {amdp_lab.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# host record and calibration (diagnosis only; never used to scale metrics)


def host_record() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the pinned variable."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def calibrate() -> dict:
    """A fixed pure-Python loop and a fixed numpy matmul, timed."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    py_ms = 1000.0 * (time.perf_counter() - start)
    a = np.random.default_rng(0).random((256, 256))
    start = time.perf_counter()
    for _ in range(20):
        a = a @ a
        a /= a.max()
    mm_ms = 1000.0 * (time.perf_counter() - start)
    return {"py_ms": py_ms, "matmul_ms": mm_ms}


# ---------------------------------------------------------------------------
# set-up and one op


def prepare(workload: str, seed: int | None, work_dir: Path):
    """Generate the instances (seed None: the whole pool), write them as
    JSON and build the op list; returns (ops, path placeholders)."""
    import workloads

    inst_dir, out_root = work_dir / "instances", work_dir / "out"
    chosen = workloads.instances(workload, seed)
    workloads.write_instances(chosen, inst_dir)
    ops = workloads.ops(workload, seed, chosen, inst_dir, out_root)
    return ops, [(str(out_root), "<out>"), (str(inst_dir), "<inst>")]


def setup(workload: str, seed: int, work_dir: Path):
    """Prepare the run's ops and load their references; returns (ops, refs,
    path placeholders)."""
    ops, replacements = prepare(workload, seed, work_dir)
    refs_path = REFS_DIR / f"{workload}.json.gz"
    if not refs_path.is_file():
        raise BenchError(f"no references at {refs_path}")
    all_refs = check.load_refs(refs_path)["ops"]
    missing = [op.key for op in ops if op.key not in all_refs]
    if missing:
        raise BenchError(f"{len(missing)} ops lack references, e.g. {missing[0]}")
    return ops, {op.key: all_refs[op.key] for op in ops}, replacements


def run_op(cli, op, replacements):
    """Run one op; returns (wall seconds, captured result, bytes written)."""
    if op.out_dir:
        for name in op.outputs:
            (Path(op.out_dir) / name).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the arguments
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    got = check.capture(rc, stdout.getvalue(), op.out_dir, op.outputs, replacements)
    written = len(stdout.getvalue().encode())
    for name in op.outputs:
        path = Path(op.out_dir) / name
        if path.exists():
            written += path.stat().st_size
    return wall, got, written


class Checker:
    """Counts attempted and failed ops; an op fails on a nonzero or
    unexpected exit code, an exception, or output unlike its reference."""

    def __init__(self, refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def check(self, op, got) -> None:
        self.attempted += 1
        problem = check.mismatch(got, self.refs[op.key])
        if problem:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(f"{op.key}: {problem}")


def timed_pass(cli, ops, replacements, checker) -> list[float]:
    walls = []
    gc.collect()
    for op in ops:
        wall, got, _ = run_op(cli, op, replacements)
        walls.append(wall)
        checker.check(op, got)
    return walls


# ---------------------------------------------------------------------------
# measurement modes


def measure_setup(workload: str, seed: int, run_id: str) -> list[float]:
    """Wall time of fresh processes that import amdp_lab, generate the
    instances, write them and load the references."""
    times = []
    for rep in range(SETUP_REPS):
        work = RUN_DIR / f"{run_id}-setup{rep}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed), "--work-dir", str(work)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return times


def run_untraced(cli, workload, seed, seconds, work_dir, run_id, record):
    import workloads

    setup_times = measure_setup(workload, seed, run_id)
    ops, refs, replacements = setup(workload, seed, work_dir)
    checker = Checker(refs)
    # warm-up: first-call costs (argparse, numpy dispatch) are not per-op work
    _, got, _ = run_op(cli, ops[0], replacements)
    checker.check(ops[0], got)

    per_op = defaultdict(list)
    calibrations = [calibrate()]
    # A fixed pass count per --seconds, sized from this workload's pass time
    # at the commit that defined the benchmark: a count that followed the
    # host's speed would change the best-of-passes statistic below.  Only a
    # host so slow that the next pass would end past MAX_OVERRUN x --seconds
    # cuts the run short.
    planned = max(2, round(seconds / workloads.NOMINAL_PASS_S[workload]))
    # Each CPU of a shared host is slowed down by its neighbours on its own
    # schedule, so a single-threaded workload moves to the next CPU every
    # pass: one contended core cannot then hold a whole run.  The experiment
    # pool keeps every CPU, as its thread count is os.cpu_count().
    cpus = sorted(os.sched_getaffinity(0))
    rotate = workload in workloads.SINGLE_THREADED and len(cpus) > 1
    passes, measured, last = 0, 0.0, 0.0
    try:
        while passes < planned and (passes == 0 or measured + last <= MAX_OVERRUN * seconds):
            if rotate:
                os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            walls = timed_pass(cli, ops, replacements, checker)
            for i, wall in enumerate(walls):
                per_op[i].append(wall)
            last = sum(walls)
            measured += last
            passes += 1
            calibrations.append(calibrate())
    finally:
        os.sched_setaffinity(0, cpus)

    # On a shared host a CPU's speed swings by up to ~1.7x for seconds to
    # minutes at a time; interference from outside this process only ever
    # adds time, so each op's best time across passes is its steady cost.
    op_best = [min(per_op[i]) for i in range(len(ops))]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(ops) / sum(op_best),
        "op_p50_ms": 1000.0 * statistics.median(op_best),
        "op_p90_ms": 1000.0 * statistics.quantiles(op_best, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record.update({
        "passes": passes, "planned_passes": planned, "ops_per_pass": len(ops),
        "cpus_rotated": cpus if rotate else None,
        "measured_s": measured,
        "setup_times_s": setup_times, "calibration": calibrations,
        "op_walls_ms": {op.key: [1000.0 * w for w in per_op[i]]
                        for i, op in enumerate(ops)},
    })
    return metrics, checker


def run_traced(cli, workload, seed, work_dir, record):
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_op(-1)  # set-up spans: instance generation and writing
    try:
        ops, refs, replacements = setup(workload, seed, work_dir)
    finally:
        tracer.end_op()
        tracer.uninstall()

    checker = Checker(refs)
    _, got, _ = run_op(cli, ops[0], replacements)
    checker.check(ops[0], got)
    calibrations = [calibrate()]
    walls, written, untraced = traced_pass(cli, ops, replacements, checker, tracer,
                                           paired=True)
    calibrations.append(calibrate())

    metrics, table = layer_metrics(tracer, walls, untraced)
    metrics["cli.bytes_written"] = float(sum(written))
    metrics["host.calib_py_ms"] = statistics.median(c["py_ms"] for c in calibrations)
    metrics["host.calib_matmul_ms"] = statistics.median(c["matmul_ms"] for c in calibrations)
    record.update({"calibration": calibrations, "functions": table,
                   "ops_per_pass": len(ops)})
    spans_path = RUN_DIR / f"{workload}-seed{seed}-spans.csv"
    with open(spans_path, "w") as fh:
        fh.write("span_id,name,start_s,end_s,parent_id,op\n")
        for span_id, name, start, end, parent, op in tracer.spans:
            fh.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent},{op}\n")
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, checker


def traced_pass(cli, ops, replacements, checker, tracer, paired=False):
    """One pass with every public amdp_lab function traced.  With ``paired``
    each op first runs untraced, right before its traced run, so host drift
    hits both sides of the overhead estimate alike.  Returns each op's
    traced wall time, the bytes each op wrote and the untraced wall times."""
    walls, written, untraced = {}, [], []
    gc.collect()
    for i, op in enumerate(ops):
        if paired:
            wall, got, _ = run_op(cli, op, replacements)
            checker.check(op, got)
            untraced.append(wall)
        tracer.install()
        tracer.begin_op(i)
        try:
            wall, got, nbytes = run_op(cli, op, replacements)
        finally:
            tracer.end_op()
            tracer.uninstall()
        checker.check(op, got)
        walls[i] = wall
        written.append(nbytes)
    return walls, written, untraced


def layer_metrics(tracer, walls, untraced_walls):
    """Per-function self time and calls over the traced pass, per-module and
    set-up self time, counters, repeat ratios and the tracing overhead."""
    selfs = tracing.self_times(tracer.spans)
    self_s, calls = defaultdict(float), defaultdict(int)
    setup_self = defaultdict(float)
    op_self, op_root = defaultdict(float), defaultdict(float)
    for span_id, name, start, end, parent, op in tracer.spans:
        if op == -1:
            setup_self[name] += selfs[span_id]
            continue
        self_s[name] += selfs[span_id]
        calls[name] += 1
        op_self[op] += selfs[span_id]
        if parent == 0:
            op_root[op] += end - start
    total_wall = sum(walls.values())
    remainder = sum(walls[i] - op_root[i] for i in walls)
    concurrent = sum(op_self[i] - op_root[i] for i in walls)

    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = float(calls[name])
    for module in tracing.MODULES:
        prefix = module + "."
        metrics[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(prefix))
        metrics[f"setup.{module}.self_s"] = sum(
            v for k, v in setup_self.items() if k.startswith(prefix))
    for name in tracing.REPEAT_TRACKED:
        metrics[f"{name}.repeat_frac"] = (tracer.repeats[name] / calls[name]
                                          if calls[name] else 0.0)
    for name in ("chains.policies_enumerated", "generative.samples_drawn",
                 "reduction.certificates_evaluated", "reduction.certificates_failed"):
        metrics[name] = float(tracer.counters[name])
    untraced_rate = len(untraced_walls) / sum(untraced_walls)
    traced_rate = len(walls) / total_wall
    metrics.update({
        "trace.ops_per_s_untraced": untraced_rate,
        "trace.ops_per_s_traced": traced_rate,
        "trace.overhead_frac": untraced_rate / traced_rate - 1.0,
        "trace.remainder_frac": remainder / total_wall,
        "trace.concurrent_frac": concurrent / total_wall,
    })
    table = {name: {"self_s": self_s[name], "calls": calls[name],
                    "setup_self_s": setup_self[name]}
             for name in sorted(tracer.names) if calls[name] or setup_self[name]}
    return metrics, table


# ---------------------------------------------------------------------------
# reporting


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no benchmark spec at {path}")
    return json.loads(path.read_text())


def select(spec_metrics, computed: dict) -> dict:
    """The spec's metrics, in its order and units.  A function that no op
    reached reads 0; any other metric the run cannot compute is an error."""
    out = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name in computed:
            value = computed[name]
        elif name.endswith((".self_s", ".calls", ".repeat_frac")):
            value = 0.0
        else:
            raise BenchError(f"metric {name} is not computed by this run")
        out[name] = {"value": value, "unit": entry["unit"]}
    return out


def run_all(args) -> int:
    """Every workload, BENCHMARK.json's and large_instance, each in its own
    process; prints each end-to-end metric and fail_frac."""
    import workloads

    print(f"{'workload':<16} {'metric':<14} {'value':>12}  unit")
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload:<16} run failed (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:<16} {name:<14} {m['value']:>12.4f}  {m['unit']}")
        fail_frac = result["failed"] / result["attempted"]
        print(f"{workload:<16} {'fail_frac':<14} {fail_frac:>12.4f}  "
              f"ratio ({result['failed']}/{result['attempted']} ops)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default 7)")
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_program()
        import workloads

        if args.seed is None:
            args.seed = workloads.DEFAULT_SEED
        if args.workload == "all":
            return run_all(args)
        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.setup_only:
            setup(args.workload, args.seed, Path(args.work_dir))
            return 0
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    from amdp_lab import cli

    spec = load_spec()
    RUN_DIR.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work_dir = RUN_DIR / run_id
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "host": host_record()}
    print("host: " + json.dumps(record["host"]), file=sys.stderr)
    try:
        if args.trace:
            computed, checker = run_traced(cli, args.workload, args.seed, work_dir, record)
            metrics = select(spec["per_layer"], computed)
        else:
            computed, checker = run_untraced(cli, args.workload, args.seed,
                                             args.seconds, work_dir, run_id, record)
            metrics = select(spec["end_to_end"], computed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record.update({"metrics": computed, "attempted": checker.attempted,
                   "failed": checker.failed, "failures": checker.first_failures})
    (RUN_DIR / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in checker.first_failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload}: {checker.attempted} ops, {checker.failed} failed, "
          f"calibration {json.dumps(record['calibration'][-1])}", file=sys.stderr)
    print(json.dumps({"correct": checker.failed == 0 and checker.attempted > 0,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
