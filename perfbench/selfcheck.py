"""Self-check of the benchmark; run from the root of a checkout.

    python3 perfbench/selfcheck.py   # about three minutes

It checks that
  1. a quick run of every workload emits exactly the metrics BENCHMARK.json
     names, each with its unit, untraced and traced;
  2. the traced counters (every per-layer metric not in seconds) repeat
     exactly across two runs;
  3. corrupted outputs (a perturbed count, fraction or density, a wrong
     order on the seed's sample, a call that raised) are counted as failed;
  4. the pinned counts in oracles.py match a prime-by-prime recount with the
     brute-force orders.
It exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        sys.exit(1)


def bench_run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_and_counters() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        name = w["name"]
        traced = []
        for trace in (0, 1, 1):
            out = bench_run(name, trace)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(out["correct"] and out["failed"] == 0, f"{name} trace {trace}: passes its gate")
            if trace == 0 or not traced:
                expect(got == want[trace], f"{name} trace {trace}: emits every metric with its unit")
            if trace:
                traced.append({k: v["value"] for k, v in out["metrics"].items() if v["unit"] != "s"})
        expect(traced[0] == traced[1], f"{name}: counters repeat exactly across two runs")


def check_corruption() -> None:
    import workloads
    from orddensity import arith

    wl = workloads.ScanAcceptance(seed=7)
    wl.run()
    expect(wl.check()["failed"] == 0, "scan-acceptance passes unperturbed")
    good = wl.results
    wl.results = [dataclasses.replace(good[0], matched=good[0].matched + 1)] + good[1:]
    expect(wl.check()["failed"] == 1, "scan-acceptance: a perturbed matched count fails")
    wl.results = good
    real_order = arith.multiplicative_order
    arith.multiplicative_order = lambda a, p: real_order(a, p) * (1 + (a == 5 % p))
    try:
        expect(wl.check()["failed"] == 1, "scan-acceptance: a wrong order of 5 on the sample fails")
    finally:
        arith.multiplicative_order = real_order
    wl.results = None
    expect(wl.check()["failed"] == 5, "scan-acceptance: a scan that raised fails every spec")

    wl = workloads.Chebotarev(seed=7)
    wl.run()
    expect(wl.check()["failed"] == 0, "chebotarev passes unperturbed")
    good = wl.fractions[3]
    wl.fractions[3] = good * (1 + 1e-12)
    expect(wl.check()["failed"] == 1, "chebotarev: a fraction off in the 12th digit fails")
    wl.fractions[3] = good
    wl.degrees[0] = None
    expect(wl.check()["failed"] == 1, "chebotarev: a degree call that raised fails")

    for cls, key in ((workloads.SeriesRank2, "idx25"), (workloads.SeriesRank1, "artin")):
        wl = cls(seed=7)
        wl.run()
        expect(wl.check()["failed"] == 0, f"{wl.name} passes unperturbed")
        good = wl.values[key]
        wl.values[key] = dataclasses.replace(good, value=good.value * 1.2)
        expect(wl.check()["failed"] >= 1, f"{wl.name}: a density 20% off fails")
        wl.values[key] = None
        expect(wl.check()["failed"] >= 1, f"{wl.name}: an evaluation that raised fails")
        wl.values[key] = good
    keys = [(3, 5, a) for a in range(5)]
    good = wl.values[keys[1]]
    shift = 1.0 + sum(wl.tail(k) for k in keys) + 0.01 - sum(map(wl.value, keys))
    wl.values[keys[1]] = dataclasses.replace(good, value=good.value + shift)
    expect(
        wl.check()["failed"] == 5,
        "series-rank1: a progression breaking the sum over a fails its whole modulus",
    )


def check_pins() -> None:
    """Recount every pinned count prime by prime with brute-force orders."""
    from orddensity.cli import CHEBOTAREV_FIELDS

    x = 10**6
    scan = [[0, 0] for _ in oracles.SCAN_COUNTS_1E6]
    split = [[0, 0] for _ in oracles.SPLIT_COUNTS_1E6]
    split_excl = [
        {q for n in (*alphas, M) for q in oracles.divisors(abs(n)) if oracles.divisors(q) == [1, q]}
        for alphas, _, M in CHEBOTAREV_FIELDS
    ]
    for p in oracles.primes_upto(x):
        divs = oracles.divisors(p - 1)
        ind = {}
        for a in (2, 3, 5, -2, 8, 12):
            if a % p:
                ind[a] = (p - 1) // oracles.brute_order(a % p, p, divs)
        # the five acceptance specs, in order; alphas 2, 3, 5 are excluded
        # at their own primes and the Frobenius level 4 excludes 2
        rows = [
            ((2,), lambda: ind[2] == 1),
            ((2,), lambda: (p - 1) // ind[2] % 2 == 0),
            ((2, 3), lambda: ind[2] == 1 and ind[3] == 1),
            ((2,), lambda: p % 4 == 3 and (p - 1) // ind[2] % 2 == 1),
            ((2, 5), lambda: ind[2] % 2 == 0 and ind[5] % 2 == 0),
        ]
        for counts, (support, matches) in zip(scan, rows):
            if p not in support:
                counts[1] += 1
                counts[0] += matches()
        for counts, (alphas, m, M), excl in zip(split, CHEBOTAREV_FIELDS, split_excl):
            if p in excl:
                continue
            counts[1] += 1
            counts[0] += (p - 1) % M == 0 and all(ind[a] % mi == 0 for a, mi in zip(alphas, m))
    expect([tuple(c) for c in scan] == oracles.SCAN_COUNTS_1E6, "pinned scan counts recounted")
    expect(
        [tuple(c) for c in split] == [(m, c) for m, c, _ in oracles.SPLIT_COUNTS_1E6],
        "pinned splitting counts recounted",
    )


def main() -> int:
    check_pins()
    check_corruption()
    check_metrics_and_counters()
    return 0


if __name__ == "__main__":
    sys.exit(main())
