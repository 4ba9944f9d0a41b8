"""Argument checks and the summary of the benchmark tools, run without a
benchmark, and the reference-count tool on a small bound."""

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


def test_bench_pairs_summarises_the_declared_metrics(bench_pairs, monkeypatch, tmp_path):
    # the summary covers exactly BENCHMARK.json's end-to-end metrics, read
    # from the file: here its list loses its last metric and gains another,
    # and a metric a run reports beyond the list is left out
    bench = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    real = [m["name"] for m in bench["end_to_end"]]
    declared = real[:-1] + ["extra_s"]
    bench["end_to_end"] = [{"name": m} for m in declared]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: into.mkdir(parents=True) or rev)
    reported = real + ["extra_s", "unlisted_s"]
    result = {"failed": 0, "metrics": {m: {"value": 1.0} for m in reported}}
    monkeypatch.setattr(bench_pairs, "run_once", lambda *_: ({"src_sha256": "0" * 64}, result))
    argv = ["--parent", "a", "--change", "b", "--label", "t", "--workload", "chebotarev:2"]
    assert bench_pairs.main(argv) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(out["summary"]["chebotarev"]) == declared
    assert all(set(p["parent"]) == set(declared) | {"failed"} for p in out["pairs"]["chebotarev"])
