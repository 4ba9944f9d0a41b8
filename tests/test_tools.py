"""Argument checks of the benchmark tools, run without a benchmark, and the
reference-count tool on a small bound."""

import importlib.util
import json
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


def test_reference_counts_at_a_small_bound(tmp_path):
    # the tool's five specs, in order, at 10^5: counts and the checkpoints at
    # each power of 10 equal those of separate scans
    from orddensity.empirical import scan_many
    from test_acceptance import FIVE_CONFIGS

    spec = importlib.util.spec_from_file_location("reference_counts", TOOLS / "reference_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "ref.json"
    assert module.main(["--x", "100000", "--out", str(out)]) == 0
    ref = json.loads(out.read_text())
    assert ref["x"] == 10**5 and len(ref["src_sha256"]) == 64
    specs = [make() for _, make, _, _, _ in FIVE_CONFIGS]
    for x in (10, 100, 1000, 10**4, 10**5):
        want = [(s.matched, s.considered) for s in scan_many(specs, x)]
        got = [{c[0]: tuple(c[1:]) for c in s["checkpoints"]}[x] for s in ref["specs"]]
        assert got == want, x
    assert [(s["matched"], s["considered"]) for s in ref["specs"]] == want
