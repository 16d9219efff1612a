"""One pass of one workload in a fresh process; prints one JSON line.

    python3 benchmarks/worker.py --workload NAME --seed N --trace 0|1 \
        --spawned-at MONOTONIC_SECONDS [--setup-only]

Set-up time is the CPU time of the process up to the first timed call:
interpreter start, `import dessins` and the seeded input generation, scaled
to reference seconds by speed probes taken right after set-up (see
workloads.py).  The controller (run.py) passes the `time.monotonic()`
reading taken just before the start, for the set-up wall time it prints.
The library is imported from the `src` directory next to this one, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import dessins
    if Path(dessins.__file__).resolve().parent != SRC / "dessins":
        print(f"error: imported dessins from {dessins.__file__}, not {SRC}", file=sys.stderr)
        return 1
    import spans
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    inputs = setup(random.Random(args.seed))
    setup_wall = time.monotonic() - args.spawned_at
    usage = resource.getrusage(resource.RUSAGE_SELF)
    probe = statistics.median(workloads.probe_seconds() for _ in range(15))
    out = {"setup_s": (usage.ru_utime + usage.ru_stime) * workloads.REFERENCE_PROBE_S / probe,
           "setup_wall_s": setup_wall}
    if not args.setup_only:
        tracer = spans.Tracer().install() if args.trace else None
        runner = workloads.Runner(tracer)
        start = time.perf_counter()
        runner.probe()
        run(runner, inputs)
        runner.probe()
        wall = time.perf_counter() - start
        solve, solve_cpu, latency = runner.reference_times()
        out.update({
            "solve_s": solve,
            "solve_cpu_s": solve_cpu,
            "solve_wall_s": wall,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "stages": runner.stages,
            "latency_s": latency,
            "case_stage": runner.case_stage.tolist(),
            "probes": len(runner.probe_s),
            "gc_pause_s": runner.gc_pause_s,
            "trace": None if tracer is None else
            tracer.summary(outside=zip(runner.probe_start, runner.probe_s)),
        })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
