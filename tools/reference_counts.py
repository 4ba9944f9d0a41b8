"""Scan counts of the five acceptance specs to x = 10^9, written to
REFERENCE_1e9.json at the root.

    python3 tools/reference_counts.py --workers 2

Run from the root of a checkout.  The five specs run in one scan_many, so
every count comes from the one walk that tier-1's scans test.  The file
holds, per spec, `matched`, `considered` and the running counts at the
dyadic checkpoints x // 2^k and at every power of 10 below x, with the
commit and the sha256 of src/ (perfbench's digest) it came from.  Counts do
not depend on the worker count.  Wall time and peak RSS (this process and
the largest forked worker) go to stderr, not into the file.  An --x below 2
or past the scan cap, a --workers below 1, or more workers than the scan's
memory cap allows exits 2 before any scan.  Scans are
deterministic, so the file is never re-generated to make a check pass: a
changed count is a scan bug or a spec change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orddensity.density import (  # noqa: E402
    ConditionSpec,
    IndexFixed,
    IndexSet,
    OrderAP,
    SetDescriptor,
)
from orddensity.arith import ResourceCapError  # noqa: E402
from orddensity.empirical import check_scan_bound, scan_many  # noqa: E402

X = 10**9


def acceptance_specs() -> list[tuple[str, ConditionSpec]]:
    """(label, spec) of the five acceptance specs, in tier-1's order."""
    both_even = IndexSet((SetDescriptor.progression(0, 2),) * 2)
    return [
        ("2, index 1", ConditionSpec.make([2], IndexFixed((1,)))),
        ("2, order even", ConditionSpec.make([2], OrderAP((0,), (2,)))),
        ("(2,3), index (1,1)", ConditionSpec.make([2, 3], IndexFixed((1, 1)))),
        ("2, order odd, p = 3 mod 4",
         ConditionSpec.make([2], OrderAP((1,), (2,)), frobenius=(4, {3}))),
        ("(2,5), both indices even", ConditionSpec.make([2, 5], both_even)),
    ]


def src_digest() -> str:
    """sha256 over the package sources, as perfbench/run.py stamps it."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git on the path
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def reference(x: int, workers: int) -> list[dict]:
    """Per spec, its label, counts and checkpoints from one scan_many to x."""
    labels, specs = zip(*acceptance_specs())
    powers = [10**k for k in range(1, len(str(x)))]
    results = scan_many(specs, x, workers=workers, checkpoints=powers)
    return [
        {
            "label": label,
            "matched": res.matched,
            "considered": res.considered,
            "checkpoints": [list(c) for c in res.checkpoints],
        }
        for label, res in zip(labels, results)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--x", type=int, default=X, help="the scan bound (default 10^9)")
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", type=Path, default=ROOT / "REFERENCE_1e9.json")
    args = ap.parse_args(argv)
    if args.x < 2 or args.workers < 1:
        ap.error(f"need --x >= 2 and --workers >= 1, got {args.x} and {args.workers}")
    try:  # x past SCAN_X_CAP, or more workers than the walk's memory cap allows
        check_scan_bound(args.x, args.workers)
    except ResourceCapError as exc:
        ap.error(str(exc))

    started = time.perf_counter()
    specs = reference(args.x, args.workers)
    wall = time.perf_counter() - started
    # read before git runs, so the children's peak is the forked workers'
    self_rss, worker_rss = (resource.getrusage(who).ru_maxrss / 1024
                            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    out = {"x": args.x, "commit": commit(), "src_sha256": src_digest(), "specs": specs}
    # one line per checkpoint [x_k, matched, considered]
    text = re.sub(r"\[[\d,\s]+\]", lambda m: json.dumps(json.loads(m[0])),
                  json.dumps(out, indent=1))
    args.out.write_text(text + "\n")
    forked = f", largest worker {worker_rss:.1f} MB" if args.workers > 1 else ""
    print(f"{args.out}: x = {args.x}, {args.workers} workers, {wall:.1f} s,"
          f" peak RSS {self_rss:.1f} MB{forked}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
