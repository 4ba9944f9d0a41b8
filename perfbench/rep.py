"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py <workload> <seed> <run|trace|setup>

The package's degree cache, relation-group cache and SPF table are
process-global, so every repetition gets its own process and starts cold.
It imports the package from the checkout's `src`, builds the inputs, stamps
`ready` (CLOCK_MONOTONIC, comparable with the parent's clock), and then,
unless the mode is `setup`, makes the timed calls, reads its peak RSS and
checks the outputs.  It prints one JSON line.  Exit code 3 means the
package could not be imported from the checkout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    try:
        import orddensity
    except ImportError as exc:
        print(f"cannot import orddensity from {SRC}: {exc}", file=sys.stderr)
        return 3
    if Path(orddensity.__file__).resolve().parent != SRC / "orddensity":
        print(f"orddensity imported from {orddensity.__file__}, not {SRC}", file=sys.stderr)
        return 3
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    out: dict = {"ready": time.monotonic()}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracing import Tracer

            tracer = workload.tracer = Tracer().install()
        workload.run()
        if tracer is not None:
            tracer.uninstall()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["wall_s"] = workload.wall_s
        out["calls"] = workload.calls
        out.update(workload.check())
        if tracer is not None:
            out["layers"] = tracer.layers(workloads.EVALUATE_SPANS) | workload.layer_counts()
        import numpy
        import scipy

        out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        out["params"] = workload.params
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
