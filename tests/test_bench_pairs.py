import importlib.util
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
