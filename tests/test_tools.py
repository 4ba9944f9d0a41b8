"""Argument checks and the summary of the benchmark tools, run without a
benchmark, and the reference-count tool on a small bound."""

import importlib.util
import json
from pathlib import Path

import pytest

from orddensity.arith import SCAN_X_CAP

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


def reference_counts():
    """tools/reference_counts.py as a module."""
    spec = importlib.util.spec_from_file_location("reference_counts", TOOLS / "reference_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--x", "1"], "need --x >= 2"),
        (["--x", str(SCAN_X_CAP + 1)], f"exceeds cap {SCAN_X_CAP}"),
        (["--workers", "0"], "--workers >= 1"),
        # 128 processes of about 42 MB each pass the walk's 4 GB cap at 10^9
        (["--workers", "128"], "over the cap"),
    ],
    ids=["x-1", "x-past-cap", "workers-0", "workers-past-memory-cap"],
)
def test_reference_counts_rejects_bad_arguments(monkeypatch, tmp_path, capsys, argv, message):
    module = reference_counts()

    def never(*args, **kwargs):
        raise AssertionError("scanned before the arguments were checked")

    monkeypatch.setattr(module, "scan_many", never)
    out = tmp_path / "ref.json"
    with pytest.raises(SystemExit) as exit_:
        module.main(argv + ["--out", str(out)])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_reference_counts_at_a_small_bound(tmp_path):
    # the tool's five specs, in order, at 10^5: counts and the checkpoints at
    # each power of 10 equal those of separate scans
    from orddensity.empirical import scan_many
    from test_acceptance import FIVE_CONFIGS

    out = tmp_path / "ref.json"
    assert reference_counts().main(["--x", "100000", "--out", str(out)]) == 0
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
