"""Paired benchmark runs of two commits, written to BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent 3206583 --change HEAD --label pr26 \
        --workload chebotarev --workload scan-acceptance:6

Run from the root of a git checkout.  Each commit is exported with
`git archive` into its own directory, and `perfbench/run.py` runs from each
export in turn: pair i runs both sides one after the other, the parent first
in even pairs and the change first in odd ones, so a drift in machine speed
falls on both sides alike.  Every run lasts BENCHMARK.json's `run_seconds`.
A workload given as NAME:N runs N >= 1 pairs and a bare NAME runs PAIRS = 10, the
fewest that can back a claimed gain; with no --workload every workload of
BENCHMARK.json runs.

The file holds the command, a note, one stamp per side (the commit's sha,
the sha256 of its src/ and the machine, from perfbench's stamp line), each
side's `final_json` (the result line of its first run of every workload),
every pair in order, and a summary of each side's quartiles per metric
(statistics.quantiles, inclusive method) with the pairs the change wins on
each metric.  The metrics are BENCHMARK.json's `end_to_end` list, each of
them better lower.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def export(rev: str, into: Path) -> str:
    """The full sha of rev, after writing its tree to `into`."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", sha], capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(stamp, result) of one `perfbench/run.py` run from an exported tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    stamp = next(json.loads(line[6:]) for line in lines if line.startswith("stamp "))
    return stamp, json.loads(lines[-1])


def row(result: dict, metrics: list[str]) -> dict:
    out = {k: round(result["metrics"][k]["value"], 6) for k in metrics}
    out["failed"] = result["failed"]
    return out


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [round(values[0], 4)] * 3
    return [round(v, 4) for v in statistics.quantiles(values, n=4, method="inclusive")]


def summary(pairs: dict, metrics: list[str]) -> dict:
    out = {}
    for workload, runs in pairs.items():
        out[workload] = {}
        for metric in metrics:
            entry = {f"{side}_q1_median_q3": quartiles([p[side][metric] for p in runs])
                     for side in SIDES}
            wins = sum(p["change"][metric] < p["parent"][metric] for p in runs)
            entry["change_wins"] = f"{wins}/{len(runs)}"
            out[workload][metric] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the commit measured against")
    ap.add_argument("--change", required=True, help="the commit measured")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json at the root")
    ap.add_argument("--workload", action="append", default=[], metavar="NAME[:PAIRS]")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--note", default="", help="appended to the file's note")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    seconds = bench["run_seconds"]
    plan = {}
    for spec in args.workload or declared:
        name, _, n = spec.partition(":")
        if name not in declared:
            ap.error(f"unknown workload {name!r}; BENCHMARK.json declares {declared}")
        if n and not (n.isdecimal() and int(n) >= 1):
            ap.error(f"pair count {n!r} of {name!r} is not a positive integer")
        plan[name] = int(n) if n else PAIRS

    command = (f"python3 perfbench/run.py --workload W --seed {args.seed}"
               f" --seconds {seconds:g}")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        stamps = {side: {"git_sha": export(rev, trees[side])}
                  for side, rev in zip(SIDES, (args.parent, args.change))}
        pairs: dict = {name: [] for name in plan}
        for name, n in plan.items():
            for i in range(n):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair: dict = {"first": order[0]}
                for side in order:
                    stamp, result = run_once(trees[side], name, args.seed, seconds)
                    pair[side] = row(result, metrics)
                    st = stamps[side]
                    st.setdefault("src_sha256", stamp["src_sha256"])
                    st.setdefault("machine", {k: stamp.get(k) for k in
                                              ("nproc", "cpu_model", "python", "numpy")})
                    st.setdefault("final_json", {}).setdefault(name, result)
                pairs[name].append(pair)
                print(f"{name} pair {i + 1}/{n}: parent {pair['parent']['wall_norm_s']:.4f} s,"
                      f" change {pair['change']['wall_norm_s']:.4f} s", file=sys.stderr)

    note = ("parent and change ran alternately, each from a git archive of its commit"
            " (so perfbench stamps src_sha256 rather than a git sha), the pair's first side"
            " alternating; 'final_json' is the result line of the first run of each side,"
            " 'pairs' lists every paired run in order, and 'summary' gives each side's"
            " quartiles and median (statistics.quantiles, inclusive method)")
    if args.note:
        note += "; " + args.note
    out = {"command": command, "note": note, **stamps,
           "summary": summary(pairs, metrics), "pairs": pairs}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
