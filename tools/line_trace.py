"""Line trace of src/amdp_lab: which executable lines no command, bench op,
demo or test reaches, which the demos reach first, and which only the
tests reach.

Run from the repository root:

    python tools/line_trace.py

A ``sys.settrace`` hook, installed before ``amdp_lab`` is imported,
records every line event in a frame whose file lies under src/amdp_lab.
The inputs are, in order: every CLI subcommand once (and ``python -m
amdp_lab.cli`` through runpy), ``params`` on the tau = 0.99 lazy
transform of corpus-7-0010 (S6A4, whose chains mixing_time's P^64 bound
cannot decide) and on the periodic two-state cycle, the seed-7 op lists
of the certify_corpus, reduce_sweep and large_instance workloads from
``bench/run.py``'s ``prepare``, the demos, and pytest over tests/ and
bench/test_bench.py.  Executable lines are the line numbers of every code
object compiled from each file.  Prints each
unreached line and their count, then each line first reached by the demos
(after the commands and bench ops ran) and their count, then each line
first reached under pytest (after every other input ran) and their count;
takes a few minutes.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "amdp_lab"
hits: set[tuple[str, int]] = set()
before_demos: set[tuple[str, int]] = set()
before_tests: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(str(PACKAGE)) else None


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return fn(*args)
        except SystemExit as exc:
            return exc.code


def _run_inputs(work: Path) -> None:
    from amdp_lab import (aperiodicity_transform, cli, standard_corpus,
                          two_state_cycle, write_mdp)

    _quiet(cli.main, ["hardgen", "--S", "6", "--A", "3", "--D", "32", "--epsilon",
                      "0.03125", "--variant", "M1", "--out", str(work)])
    mdp = str(work / "M1_S6_A3_D32_eps0.03125.json")
    *_, (_, s6a4) = standard_corpus(count=11, master_seed=7)
    write_mdp(aperiodicity_transform(s6a4, 0.99), work / "lazy.json")
    write_mdp(two_state_cycle(), work / "cycle.json")
    for argv in (["solve", "dmdp", "--mdp", mdp, "--gamma", "0.9", "--out", str(work)],
                 ["solve", "amdp", "--mdp", mdp, "--out", str(work)],
                 ["params", "--mdp", mdp],
                 ["params", "--mdp", str(work / "lazy.json")],
                 ["params", "--mdp", str(work / "cycle.json")],
                 ["certify", "--count", "5", "--out", str(work)],
                 ["reduce", "--mdp", mdp, "--epsilon", "0.25", "--N", "100",
                  "--seed", "1", "--out", str(work)],
                 ["experiment", "--mdp", mdp, "--epsilon", "0.25", "--N", "100,200",
                  "--seed", "1", "--trials", "2", "--out", str(work)]):
        _quiet(cli.main, argv)
    sys.argv = ["amdp-lab", "params", "--mdp", mdp]
    _quiet(runpy.run_module, "amdp_lab.cli", {}, "__main__")

    import run as bench_run
    for workload in ("certify_corpus", "reduce_sweep", "large_instance"):
        ops, _ = bench_run.prepare(workload, 7, work / workload)
        for op in ops:
            _quiet(cli.main, list(op.argv))

    before_demos.update(hits)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        os.chdir(work)
        _quiet(runpy.run_path, str(demo), {}, "__main__")
        os.chdir(ROOT)

    import pytest
    before_tests.update(hits)
    pytest.main(["-q", "-p", "no:cacheprovider", "tests", "bench/test_bench.py"])


def _executable(path: Path) -> set[int]:
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    sys.settrace(_global)
    try:
        with tempfile.TemporaryDirectory() as work:
            _run_inputs(Path(work))
    finally:
        sys.settrace(None)
    unreached, demos_first, tests_only = [], [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = _executable(path)
        reached = {n for f, n in hits if f == str(path)}
        earlier = {n for f, n in before_tests if f == str(path)}
        before = {n for f, n in before_demos if f == str(path)}
        unreached += [(path.name, n, source[n - 1].strip()) for n in sorted(lines - reached)]
        demos_first += [(path.name, n, source[n - 1].strip())
                        for n in sorted((lines & earlier) - before)]
        tests_only += [(path.name, n, source[n - 1].strip())
                       for n in sorted((lines & reached) - earlier)]
    for label, found in (("unreached", unreached), ("reached first by demos", demos_first),
                         ("reached only by tests", tests_only)):
        for name, line, text in found:
            print(f"{name}:{line}: {text}")
        print(f"{len(found)} executable lines {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
