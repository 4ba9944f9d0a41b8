import json
import multiprocessing
import re
import time

import pytest

from orddensity import density as dens
from orddensity import cli, empirical, eulerseries, kummer
from orddensity.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def strip_volatile(text: str) -> str:
    text = re.sub(r'^\s*"timestamp": "[^"]*",?\n', "", text, flags=re.M)
    text = re.sub(r'^\s*"runtime_ms": \d+,?\n', "", text, flags=re.M)
    return text


def test_density_command(tmp_path):
    code, doc = run(
        tmp_path, "density", "--mode", "index", "--alpha", "2", "--t", "1",
        "--nmax", "100",
    )
    assert code == 0
    assert doc["schema"] == "density-result/1"
    assert abs(doc["value"] - 0.3739) < 2e-3
    assert doc["caps"] == {"nmax": 100, "tmax": 0}
    assert doc["terms_evaluated"] == 61
    assert doc["tail_estimate"] > 0
    assert isinstance(doc["runtime_ms"], int)


def test_density_order_command(tmp_path):
    code, doc = run(
        tmp_path, "density", "--mode", "order", "--alpha", "2", "--a", "0",
        "--d", "2", "--nmax", "48", "--tmax", "48",
    )
    assert code == 0
    assert abs(doc["value"] - 17 / 24) < 2e-2


def test_scan_command(tmp_path):
    code, doc = run(
        tmp_path, "scan", "--mode", "index", "--alpha", "2", "--t", "1",
        "--x", "100",
    )
    assert code == 0
    assert doc["schema"] == "scan-result/1"
    assert doc["matched"] == 12
    assert doc["considered"] == 24
    assert doc["excluded"] == [2]
    assert doc["x"] == 100


def test_scan_tiny_bound(tmp_path):
    code, doc = run(
        tmp_path, "scan", "--mode", "index", "--alpha", "2", "--t", "1", "--x", "2"
    )
    assert code == 0
    assert doc["considered"] == 0


def test_scan_frobenius_level_past_int64(tmp_path):
    # the primes 3 and 5 are the scanned primes in the classes 3, 5 and
    # 2^64 - 1 mod 2^64, and 2 is a primitive root mod both
    code, doc = run(
        tmp_path, *SCAN_INDEX_ONE, "--x", "1000", "--f", str(2**64),
        "--c", "3", "--c", "5", "--c", str(2**64 - 1),
    )
    assert code == 0
    assert (doc["matched"], doc["considered"], doc["excluded"]) == (2, 167, [2])


def test_invalid_alpha_exits_2(tmp_path):
    code, _ = run(tmp_path, "density", "--mode", "index", "--alpha", "0", "--t", "1")
    assert code == 2
    code, _ = run(tmp_path, "density", "--mode", "index", "--alpha", "1", "--t", "1")
    assert code == 2


def test_dependent_alphas_exit_2(tmp_path):
    code, _ = run(
        tmp_path, "scan", "--mode", "index", "--alpha", "2", "--alpha", "4",
        "--t", "1", "--t", "1", "--x", "100",
    )
    assert code == 2


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_missing_mode_arguments_exit_2(tmp_path):
    code, _ = run(tmp_path, "density", "--mode", "order", "--alpha", "2")
    assert code == 2


SCAN_INDEX_ONE = ["scan", "--mode", "index", "--alpha", "2", "--t", "1"]
DENSITY_INDEX_ONE = ["density", "--mode", "index", "--alpha", "2", "--t", "1"]
DENSITY_ORDER_EVEN = ["density", "--mode", "order", "--alpha", "2", "--a", "0", "--d", "2"]
COMPARE_INDEX_ONE = ["compare", "--mode", "index", "--alpha", "2", "--t", "1", "--x", "100"]


@pytest.mark.parametrize(
    "argv",
    [
        SCAN_INDEX_ONE + ["--x", "1"],
        SCAN_INDEX_ONE + ["--x", "0"],
        SCAN_INDEX_ONE + ["--x", "100", "--workers", "0"],
        SCAN_INDEX_ONE + ["--x", "100", "--workers", "-3"],
        ["verify", "chebotarev", "--x", "1"],
        DENSITY_INDEX_ONE + ["--nmax", "0"],
        ["density", "--mode", "order", "--alpha", "2", "--a", "0", "--d", "2", "--tmax", "0"],
        ["density", "--mode", "indexset", "--alpha", "2", "--s", "ap:0:0"],
        DENSITY_INDEX_ONE + ["--f", "0", "--c", "1"],
        ["verify", "euler", "--r", "5"],
        ["verify", "euler", "--cap", "8"],
        SCAN_INDEX_ONE + ["--config", "{tmp}/missing.conf"],
        SCAN_INDEX_ONE + ["--config", "{tmp}"],
        SCAN_INDEX_ONE + ["--config", "{tmp}/latin1.conf"],
        SCAN_INDEX_ONE + ["--x", "100", "--csv", "{tmp}/missing/ck.csv"],
        DENSITY_INDEX_ONE + ["--nmax", "8", "--term-log", "{tmp}/missing/terms.csv"],
        # spec flags the mode ignores are parsed all the same
        DENSITY_INDEX_ONE + ["--c", "abc"],
        DENSITY_ORDER_EVEN + ["--t", "x"],
        SCAN_INDEX_ONE + ["--x", "100", "--a", "1.5"],
        DENSITY_INDEX_ONE + ["--s", "ap:0:0"],
        COMPARE_INDEX_ONE + ["--d", "q"],
        SCAN_INDEX_ONE + ["--config", "{tmp}/bad_c.conf"],
        # a config key that is no subcommand's flag
        ["density", "--mode", "index", "--config", "{tmp}/typo.conf"],
        # two outputs on the file of --out
        DENSITY_INDEX_ONE + ["--term-log", "{tmp}/out.json"],
        SCAN_INDEX_ONE + ["--x", "100", "--csv", "{tmp}/out.json"],
        # argparse's own conversions and bounds, from the command line and a file
        DENSITY_INDEX_ONE + ["--nmax", "abc"],
        SCAN_INDEX_ONE + ["--x", "100", "--workers", "x"],
        DENSITY_INDEX_ONE + ["--config", "{tmp}/nmax0.conf"],
        SCAN_INDEX_ONE + ["--config", "{tmp}/x1.conf"],
        SCAN_INDEX_ONE + ["--x", "100", "--config", "{tmp}/workers_abc.conf"],
        # a class set with no level
        DENSITY_INDEX_ONE + ["--c", "3"],
        SCAN_INDEX_ONE + ["--x", "100", "--config", "{tmp}/c_only.conf"],
        # a config line with no `=`, a spec with no alpha, and fewer index
        # sets than alphas
        SCAN_INDEX_ONE + ["--x", "100", "--config", "{tmp}/no_equals.conf"],
        ["density", "--mode", "index", "--t", "1"],
        ["density", "--mode", "indexset", "--alpha", "2", "--alpha", "3", "--s", "1"],
    ],
)
def test_malformed_scan_inputs_exit_2(tmp_path, capsys, monkeypatch, argv):
    def never(*args, **kwargs):
        raise AssertionError("computed before the inputs were checked")

    monkeypatch.setattr(empirical, "scan", never)
    monkeypatch.setattr(dens, "evaluate", never)
    (tmp_path / "latin1.conf").write_bytes(b"x = 100 # caf\xe9\n")
    (tmp_path / "bad_c.conf").write_text("x = 100\nc = abc\n")
    (tmp_path / "c_only.conf").write_text("c = 1 3\n")
    (tmp_path / "typo.conf").write_text("alpha = 2\nt = 1\nnmx = 5\n")
    (tmp_path / "nmax0.conf").write_text("nmax = 0\n")
    (tmp_path / "x1.conf").write_text("x = 1\n")
    (tmp_path / "workers_abc.conf").write_text("workers = abc\n")
    (tmp_path / "no_equals.conf").write_text("alpha 2\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [SCAN_INDEX_ONE, COMPARE_INDEX_ONE[:-2]])
def test_scan_and_compare_without_x_exit_2(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {argv[0]} needs --x" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_unwritable_out_path_exits_2(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("computed before the output paths were checked")

    monkeypatch.setattr(empirical, "scan", never)
    monkeypatch.setattr(dens, "evaluate", never)
    bad = str(tmp_path / "missing" / "out.json")
    good = tmp_path / "out.json"
    for argv in [
        SCAN_INDEX_ONE + ["--x", "100", "--out", bad],
        SCAN_INDEX_ONE + ["--x", "100", "--out", str(good), "--csv", bad],
        DENSITY_INDEX_ONE + ["--out", str(good), "--term-log", bad],
        COMPARE_INDEX_ONE + ["--out", bad],
        ["verify", "euler", "--out", bad],
    ]:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not good.exists()  # a path the check creates is removed again


# an order or progression modulus past int64 reduces nothing: ord_p(2) = 1
# at no prime, and ind_p(2) = 1 at the primes with 2 as a primitive root
@pytest.mark.parametrize("command", ["scan", "compare"])
@pytest.mark.parametrize(
    "spec, matched",
    [
        (["--mode", "order", "--a", "1", "--d", str(2**63)], 0),
        (["--mode", "indexset", "--s", f"ap:1:{2**63}"], 67),
    ],
    ids=["order", "indexset"],
)
def test_moduli_past_int64_exit_0(tmp_path, capsys, command, spec, matched):
    code, doc = run(tmp_path, command, "--alpha", "2", *spec, "--x", "1000")
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    assert (doc if command == "scan" else doc["scan"])["matched"] == matched


X_PAST_CAP = str(empirical.SCAN_X_CAP + 1)
NMAX_PAST_CAP = "5000001"  # its tail grid 4 * nmax passes phi_lcm_tail's rank-1 cap


@pytest.mark.parametrize(
    "argv, patched",
    [
        pytest.param(
            SCAN_INDEX_ONE + ["--x", X_PAST_CAP], [(empirical, "segmented_primes")],
            id="scan-x",
        ),
        pytest.param(
            # 239 segments at x = 10^9, one process each, pass the walk's memory cap
            SCAN_INDEX_ONE + ["--x", str(empirical.SCAN_X_CAP), "--workers", "1000"],
            [(multiprocessing, "get_context"), (empirical, "segmented_primes")],
            id="scan-workers",
        ),
        pytest.param(
            COMPARE_INDEX_ONE[:-2] + ["--x", X_PAST_CAP], [(dens, "evaluate")],
            id="compare-x",
        ),
        pytest.param(
            # the scan's memory cap, before the series runs
            COMPARE_INDEX_ONE[:-2] + ["--x", str(empirical.SCAN_X_CAP), "--workers", "1000"],
            [(dens, "evaluate"), (empirical, "segmented_primes")],
            id="compare-workers",
        ),
        pytest.param(
            DENSITY_INDEX_ONE + ["--nmax", NMAX_PAST_CAP],
            [(dens, "moebius"), (dens, "_chunks"), (kummer.AlphaBoxes, "field")],
            id="density-nmax",
        ),
        pytest.param(
            COMPARE_INDEX_ONE[:-2] + ["--x", "1000", "--nmax", NMAX_PAST_CAP],
            [(empirical, "scan"), (dens, "moebius")],
            id="compare-nmax",
        ),
        pytest.param(
            ["verify", "euler", "--r", "2", "--cap", "8192"],
            [(eulerseries, "phi_sieve")],
            id="verify-euler-cap",
        ),
        pytest.param(
            ["verify", "chebotarev", "--x", X_PAST_CAP], [(empirical, "segmented_primes")],
            id="verify-chebotarev-x",
        ),
    ],
)
def test_resource_cap_exits_3(tmp_path, capsys, monkeypatch, argv, patched):
    def never(*args, **kwargs):
        raise AssertionError("computed before the caps were checked")

    for module, name in patched:
        monkeypatch.setattr(module, name, never)
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 3
    err = capsys.readouterr().err
    assert "resource cap" in err and "Traceback" not in err


def test_alpha_with_a_prime_factor_past_the_trial_division_cap_exits_3(tmp_path, capsys):
    # 2^61 - 1 is prime: factoring it stops at the cap, not at its square root
    argv = ["density", "--mode", "index", "--alpha", str(2**61 - 1), "--t", "1"]
    start = time.monotonic()
    assert main(argv + ["--out", str(tmp_path / "out.json")]) == 3
    assert time.monotonic() - start < 2
    err = capsys.readouterr().err
    assert "resource cap" in err and "Traceback" not in err


def test_density_deterministic_output(tmp_path):
    args = [
        "density", "--mode", "order", "--alpha", "2", "--a", "1", "--d", "2",
        "--nmax", "16", "--tmax", "16",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert strip_volatile(out1.read_text()) == strip_volatile(out2.read_text())


def test_scan_deterministic_output(tmp_path):
    args = ["scan", "--mode", "index", "--alpha", "3", "--t", "2", "--x", "5000"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert strip_volatile(out1.read_text()) == strip_volatile(out2.read_text())


def test_scan_checkpoint_csv(tmp_path):
    out = tmp_path / "scan.json"
    csv_path = tmp_path / "scan.csv"
    code = main(
        ["scan", "--mode", "index", "--alpha", "2", "--t", "1", "--x", "4096",
         "--out", str(out), "--csv", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,matched,considered"
    assert len(lines) > 5
    last = lines[-1].split(",")
    assert last[0] == "4096"


def test_density_term_log_csv(tmp_path):
    out = tmp_path / "out.json"
    log = tmp_path / "terms.csv"
    code = main(
        ["density", "--mode", "index", "--alpha", "2", "--t", "1",
         "--nmax", "10", "--out", str(out), "--term-log", str(log)]
    )
    assert code == 0
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "N,T,mu,c,degree"
    assert len(lines) == 1 + 7  # squarefree n <= 10: 1,2,3,5,6,7,10


def test_density_indexset_command(tmp_path):
    code, doc = run(
        tmp_path, "density", "--mode", "indexset", "--alpha", "2",
        "--s", "ap:1:2", "--nmax", "24", "--tmax", "24",
    )
    assert code == 0
    assert 0.0 < doc["value"] < 1.0
    code, doc = run(
        tmp_path, "scan", "--mode", "indexset", "--alpha", "2",
        "--s", "1,3", "--x", "1000",
    )
    assert code == 0
    assert 0 < doc["matched"] < doc["considered"]
    code, _ = run(
        tmp_path, "density", "--mode", "indexset", "--alpha", "2", "--s", "bogus"
    )
    assert code == 2


def test_density_rejects_degree_cache_flag(tmp_path, capsys):
    # degrees are memoised per process; there is no degree file to pass
    code, _ = run(
        tmp_path, "density", "--mode", "index", "--alpha", "2", "--t", "1",
        "--degree-cache", str(tmp_path / "degrees.tsv"),
    )
    assert code == 2
    assert "unrecognized arguments: --degree-cache" in capsys.readouterr().err
    assert not (tmp_path / "degrees.tsv").exists()


def test_compare_command(tmp_path):
    code, doc = run(
        tmp_path, "compare", "--mode", "index", "--alpha", "2", "--t", "1",
        "--nmax", "64", "--x", "20000",
    )
    assert code == 0
    assert doc["schema"] == "compare-report/2"
    assert abs(doc["report"]["empirical"] - doc["report"]["theory"]) < 0.05
    assert doc["scan"]["matched"] > 0
    report, scan = doc["report"], doc["scan"]
    assert report["sigma"] > 0
    assert report["z"] == pytest.approx(
        (scan["ratios"]["matched_over_considered"] - report["theory"]) / report["sigma"]
    )


def test_compare_json_is_strict(tmp_path):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    # an index set above tmax makes the series value 0
    code = main(
        ["compare", "--mode", "indexset", "--alpha", "2", "--s", "100", "--tmax", "4",
         "--nmax", "4", "--x", "1000", "--out", str(tmp_path / "c.json")]
    )
    assert code == 0
    doc = json.loads((tmp_path / "c.json").read_text(), parse_constant=reject)
    assert doc["value"] == 0.0
    assert doc["report"]["rel_gap"] is None
    # and leaves sigma 0 and the z-score undefined
    assert doc["report"]["sigma"] == 0.0 and doc["report"]["z"] is None


def test_params_echo_order_frobenius_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 3/5\nf = 3\nc = 1 2\n")
    code, doc = run(
        tmp_path, *DENSITY_ORDER_EVEN[:3], "--config", str(cfg), "--a", "1", "--d", "4",
        "--nmax", "8", "--tmax", "8",
    )
    assert code == 0
    assert doc["params"] == {
        "mode": "order", "alphas": ["3/5"], "a": [1], "d": [4], "t": None, "s": None,
        "f": 3, "c": [1, 2],
    }
    assert doc["mode"] == "order" and doc["alphas"] == ["3/5"]


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "run.cfg"
    # x is a flag of scan and compare only: a density run leaves it unread
    cfg.write_text("alpha = 2\nt = 1\nnmax = 50\nx = 1000\n")
    out = tmp_path / "o.json"
    code = main(["density", "--mode", "index", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["caps"]["nmax"] == 50
    # explicit flag wins over the file value
    out2 = tmp_path / "o2.json"
    code = main(
        ["density", "--mode", "index", "--config", str(cfg), "--nmax", "20",
         "--out", str(out2)]
    )
    doc2 = json.loads(out2.read_text())
    assert doc2["caps"]["nmax"] == 20


@pytest.mark.parametrize(
    "lines, argv, same_as",
    [
        pytest.param(
            "alpha = 2\nalpha = 3\nt = 1 1\nnmax = 16\n", [],
            ["--alpha", "2", "--alpha", "3", "--t", "1", "--t", "1", "--nmax", "16"],
            id="repeatable-key-accumulates",
        ),
        pytest.param(
            "alpha = 2\nt = 1\nnmax = 8\nnmax = 9\n", [],
            ["--alpha", "2", "--t", "1", "--nmax", "8", "--nmax", "9"],
            id="scalar-key-keeps-its-last-line",
        ),
        pytest.param(
            "alpha = 2\nalpha = 3\nt = 1\nnmax = 16\n", ["--alpha", "5"],
            ["--alpha", "5", "--t", "1", "--nmax", "16"],
            id="argv-replaces-the-file's-repeatable-key",
        ),
    ],
)
def test_config_lines_mean_the_flags_they_name(tmp_path, lines, argv, same_as):
    # each line of the file is one --flag=value ahead of argv's flags
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    code, filed = run(tmp_path, "density", "--mode", "index", "--config", str(cfg), *argv)
    assert code == 0
    code, flagged = run(tmp_path, "density", "--mode", "index", *same_as)
    assert code == 0
    for doc in (filed, flagged):
        del doc["timestamp"], doc["runtime_ms"]
    assert filed == flagged
    alphas = [v for flag, v in zip(same_as, same_as[1:]) if flag == "--alpha"]
    nmax = [int(v) for flag, v in zip(same_as, same_as[1:]) if flag == "--nmax"][-1]
    assert (filed["params"]["alphas"], filed["caps"]["nmax"]) == (alphas, nmax)


def test_config_comment_and_blank_lines_are_skipped(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# index 1 for alpha 2\n\nalpha = 2\n   \nt = 1\n  # nmax = 0\nnmax = 8\n")
    code, doc = run(tmp_path, "density", "--mode", "index", "--config", str(cfg))
    assert code == 0
    assert (doc["params"]["alphas"], doc["params"]["t"], doc["caps"]["nmax"]) == (["2"], [1], 8)


@pytest.mark.parametrize(
    "argv, schema",
    [
        (DENSITY_INDEX_ONE + ["--nmax", "8"], "density-result/1"),
        (["verify", "euler", "--cap", "64"], None),
    ],
    ids=["density", "verify"],
)
def test_json_goes_to_stdout_without_out(capsys, argv, schema):
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("schema") == schema
    assert isinstance(doc["timestamp"], str)


def test_density_help_exits_0(capsys):
    assert main(["density", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage:") and "--term-log" in captured.out
    assert "Traceback" not in captured.err


def test_config_key_in_a_config_file_exits_2(tmp_path, capsys):
    # argv's own --config names the file; a file naming another one, found
    # or not, is refused rather than left unread
    good = tmp_path / "good.cfg"
    good.write_text("nmax = 8\n")
    for target in (good, tmp_path / "missing.cfg"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha = 2\nt = 1\nconfig = {target}\n")
        argv = ["density", "--mode", "index", "--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "config error: unknown config key(s): config" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.json").exists()


def test_verify_euler(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "euler", "--r", "2", "--cap", "512", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert [r["x"] for r in doc["rows"]] == [4, 8, 16, 32, 64]
    assert all(set(r) == {"r", "x", "tail", "scaled", "cap"} for r in doc["rows"])


def test_verify_kummer(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "kummer", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    # README's schema: both bounds on every run, and no grid key
    assert set(doc) == {
        "target", "B_observed", "B_observed_doubled", "grid_description", "passed", "timestamp"
    }
    assert doc["passed"] is True
    assert doc["B_observed"] >= 1


def test_verify_kummer_fails_when_the_bounds_differ(tmp_path, monkeypatch):
    # every run compares the bound at M | 240 with the one at M | 480
    monkeypatch.setattr(cli, "failure_bound", lambda M_divisor: M_divisor)
    out = tmp_path / "v.json"
    assert main(["verify", "kummer", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert (doc["B_observed"], doc["B_observed_doubled"], doc["passed"]) == (240, 480, False)


def test_verify_kummer_has_no_grid_flag(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["verify", "kummer", "--grid", "small", "--out", str(out)]) == 2
    assert "unrecognized arguments: --grid small" in capsys.readouterr().err
    assert not out.exists()


def test_verify_kummer_double_golden(tmp_path):
    # pinned: a change to the failure-ratio grid or to a failure ratio moves them
    out = tmp_path / "v.json"
    code = main(["verify", "kummer", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert (doc["B_observed"], doc["B_observed_doubled"]) == (24, 24)
    assert doc["grid_description"] == (
        "alphas in [2, 3, 5, -2, 8, 12], ranks [1, 2], m | 12, M | 240"
    )
    assert doc["passed"] is True


def test_verify_chebotarev(tmp_path):
    out = tmp_path / "v.json"
    code = main(["verify", "chebotarev", "--x", str(10**5), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert len(doc["rows"]) == 10
