"""Argument checks of the benchmark tools, run without a benchmark."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture
def bench_pairs(monkeypatch):
    """tools/bench_pairs.py as a module, with commit exports that fail."""
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def export(rev, into):
        raise AssertionError(f"exported {rev} before the arguments were checked")

    monkeypatch.setattr(module, "export", export)
    return module


@pytest.mark.parametrize("workload", ["chebotarev:two", "chebotarev:0", "chebotarev:-1"])
def test_bench_pairs_rejects_a_bad_pair_count(bench_pairs, workload, capsys):
    argv = ["--parent", "HEAD", "--change", "HEAD", "--label", "x", "--workload", workload]
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(argv)
    assert exit_.value.code == 2
    assert "not a positive integer" in capsys.readouterr().err
