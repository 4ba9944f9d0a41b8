"""orddensity benchmark: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload scan-acceptance --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
Repetitions run one after another, each in a fresh interpreter
(`perfbench/rep.py`), until `--seconds` have passed; at least one runs.
With `--trace 1` untraced and traced repetitions alternate, at least one of
each, and the report gives the per-layer metrics of the traced ones and the
tracing overhead.  Set-up is sampled at least SETUP_SAMPLES times per run.

The bounded times are given at a reference speed: the parent pins itself,
and so each child, to one CPU and times a fixed pure-Python slice there
every PROBE_PERIOD_S, and a time measured while slices took r seconds is
scaled by REFERENCE_SLICE_S / r.  Other tenants' load swings this machine's
speed by 20-35%; README.md has the measurements.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it give
every metric by name and unit, `primes_per_s` and `failed_ratio` included,
and a stamp of the machine, versions and sizes.  The exit code is not 0,
with no result printed, when the package cannot be imported from the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan-acceptance", "chebotarev", "series-rank1", "series-rank2")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, so it exits within 180 s
PRIMES_UP_TO_X = 78498  # pi(10^6), both scan workloads scan p <= 10^6
PROBE_PERIOD_S = 0.05
REFERENCE_SLICE_S = 0.001  # the reference_slice() time that defines the reference speed

END_TO_END_UNITS = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "max_rel_err": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "orders_per_prime")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


class PackageMissing(RuntimeError):
    """The checkout has no importable package."""


def reference_slice() -> float:
    """Thread CPU seconds of a fixed pure-Python loop: how fast the
    interpreter runs on this CPU right now."""
    start = time.thread_time()
    total, seen = 0, {}
    for i in range(1, 400):
        total += pow(i, i * 7919 % 1000003, 1000003)
        seen[i % 97] = total
    return time.thread_time() - start


def at_reference_speed(seconds: float, slices: list[float]) -> float:
    """Rescale seconds measured while reference slices took `slices`."""
    return seconds * REFERENCE_SLICE_S / statistics.median(slices or [reference_slice()])


def run_rep(workload: str, seed: int, mode: str, timeout: float):
    """One repetition on the parent's CPU, probing that CPU's speed with a
    reference slice every PROBE_PERIOD_S while it runs.

    Returns the child's report, or None if it crashed or timed out.  The
    report gains `setup_raw_s` (spawn to ready), `setup_s` (the same at
    reference speed) and, unless mode is `setup`, `wall_norm_s` (wall_s at
    the reference speed probed during the package calls).
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), workload, str(seed), mode],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    slices = []
    while True:
        try:
            stdout, _ = proc.communicate(timeout=PROBE_PERIOD_S)
            break
        except subprocess.TimeoutExpired:
            pass
        if time.monotonic() - spawned > timeout:
            proc.kill()
            proc.communicate()
            print(f"{workload} {mode} repetition timed out", file=sys.stderr)
            return None
        slices.append((time.monotonic(), reference_slice()))
    if proc.returncode == 3:
        raise PackageMissing(f"no orddensity package under {ROOT / 'src'}")
    if proc.returncode != 0:
        print(f"{workload} {mode} repetition exited {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(stdout.strip().splitlines()[-1])
    ready = report["ready"]
    report["setup_raw_s"] = ready - spawned
    report["setup_s"] = at_reference_speed(
        ready - spawned, [took for at, took in slices if at <= ready]
    )
    if mode != "setup":
        calls = report["calls"]
        inside = [took for at, took in slices if any(a <= at <= b for a, b in calls)]
        report["wall_norm_s"] = at_reference_speed(report["wall_s"], inside)
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    modes = ("run", "trace") if trace else ("run",)
    reps: dict[str, list[dict]] = {m: [] for m in modes}
    setups: list[dict] = []
    crashed = 0
    i = 0
    while True:
        mode = modes[i % len(modes)]
        i += 1
        report = run_rep(workload, seed, mode, deadline - time.monotonic())
        if report is None:
            crashed += 1
        else:
            setups.append(report)
            reps[mode].append(report)
        now = time.monotonic()
        every_mode = i >= len(modes)
        if now >= deadline or (every_mode and now - started >= seconds):
            break
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline - 5:
        report = run_rep(workload, seed, "setup", deadline - time.monotonic())
        if report is not None:
            setups.append(report)
    done = [r for m in modes for r in reps[m]]
    ops = done[0]["attempted"] if done else 1
    return {
        "reps": reps,
        "setups": setups,
        "attempted": sum(r["attempted"] for r in done) + crashed * ops,
        "failed": sum(r["failed"] for r in done) + crashed * ops,
        "stamp": (done[0]["versions"], done[0]["params"]) if done else ({}, {}),
    }


def end_to_end(run: dict) -> dict[str, float]:
    reps = run["reps"]["run"]
    if not reps:
        return {}
    return {
        "wall_norm_s": statistics.median(r["wall_norm_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in run["setups"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "max_rel_err": max(r["max_rel_err"] for r in reps),
    }


def per_layer(run: dict) -> dict[str, float]:
    traced = run["reps"].get("trace", [])
    if not traced or not run["reps"]["run"]:
        return {}
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    traced_wall = statistics.median(r["wall_norm_s"] for r in traced)
    out["trace.wall_norm_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - end_to_end(run)["wall_norm_s"]
    return out


def stamp(workload: str, seed: int, run: dict) -> dict:
    versions, params = run["stamp"]
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "llc_bytes": llc_bytes(),
        "python": platform.python_version(),
        **versions,
    }


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def llc_bytes() -> int:
    """Size of cpu0's highest-level cache, 0 when the kernel does not say."""
    best = (0, 0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KM")) * scale))
    return best[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # the child inherits the pin, so the probe and the package share a CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    e2e = end_to_end(run)
    if not e2e:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    attempted, failed = run["attempted"], run["failed"]
    runs, setups = len(run["reps"]["run"]), len(run["setups"])
    print(f"{args.workload} seed {args.seed}: {runs} untraced runs, {setups} set-ups")
    wall_s = statistics.median(r["wall_s"] for r in run["reps"]["run"])
    setup_raw_s = statistics.median(r["setup_raw_s"] for r in run["setups"])
    rows = {"wall_s": (wall_s, "s"), "setup_raw_s": (setup_raw_s, "s")}
    rows.update((k, (v, END_TO_END_UNITS[k])) for k, v in e2e.items())
    for name, (value, unit) in rows.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    if args.workload in ("scan-acceptance", "chebotarev"):
        print(f"  {'primes_per_s':<14} {PRIMES_UP_TO_X / wall_s:.6g} 1/s")
    else:
        print(f"  {'primes_per_s':<14} n/a (no prime scan)")
    print(f"  {'failed_ratio':<14} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer(run).items()}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print("stamp " + json.dumps(stamp(args.workload, args.seed, run)))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
