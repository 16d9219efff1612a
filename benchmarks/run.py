"""Benchmark of the dessins library: four workloads, one closed-loop caller.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: strata-census, hopf-identities, qsm-galois, flags-export (see
workloads.py, and workloads.json for why each was chosen and what it loads).
Every pass runs in a fresh single-threaded worker process, so library caches
start cold as in every command-line run; passes run one at a time.

With --trace 0, passes repeat while the next one is predicted to end within
--seconds (there is always one), and set-up is sampled at least
SETUP_SAMPLES times, by set-up-only workers where passes are too few.  The
end-to-end metrics are medians over passes, and case percentiles are taken
over the cases of all passes.  Times are in reference seconds: CPU time of
the single-threaded worker scaled by in-process speed probes, which cancels
the drift of a shared machine's speed (workloads.py); the tables also print
the unscaled times.

With --trace 1, one untraced and one traced pass give the per-layer metrics
and the tracing overhead; per-layer self times are unscaled CPU times.

Human-readable tables go to stdout first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  Exit status is 1,
with no result line, if the library sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SRC_PACKAGE = HERE.parent / "src" / "dessins" / "__init__.py"
WORKLOAD_NAMES = ("strata-census", "hopf-identities", "qsm-galois", "flags-export")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0        # every worker of one workload ends within this

END_TO_END = (
    ("solve_s", "s"),
    ("case_p50_us", "us"),
    ("case_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "ratio"),
)

# Self time and call count of the metric groups that spans.py records.
_TIMED = (
    "graphs.validate", "graphs.structure_report", "graphs.find_isomorphism",
    "operads.graft", "operads.magma",
    "strata.canonical_key", "strata.project", "strata.substratum", "strata.contract",
    "strata.compose", "strata.export",
    "hopf.cuts", "hopf.coassociativity", "hopf.counit", "hopf.antipode_identity",
    "hopf.coproduct", "hopf.antipode", "hopf.polynomial", "hopf.relabel",
    "hopf.balanced_cuts",
    "galois.mul", "galois.add", "galois.inverse", "galois.act", "galois.char",
    "galois.embed",
    "qsm.window", "qsm.compose",
)
_SELF_ONLY = (
    "strata.enumerate", "qsm.relations", "qsm.evolution", "qsm.gibbs.closed",
    "qsm.gibbs.series", "qsm.gibbs.trace", "qsm.intertwining", "qsm.ground_state",
    "qsm.partition",
)
LAYERS = ("graphs", "operads", "strata", "hopf", "galois", "qsm")
PER_LAYER = (
    [(f"{g}.calls", "count") for g in _TIMED]
    + [(f"{g}.self_s", "s") for g in _TIMED + _SELF_ONLY]
    + [(f"{layer}.other.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [
        ("strata.enumerate.items", "count"),
        ("strata.stree.calls", "count"),
        ("strata.enumerate.dedup_ratio", "ratio"),
        ("strata.substratum.contractions_per_call", "count/call"),
        ("hopf.balanced_cuts.cuts_rebuilt_per_call", "count/call"),
        ("qsm.relations.checks", "count"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.coverage", "ratio"),
    ]
)


class BenchmarkError(RuntimeError):
    pass


def spawn(workload, seed, trace=False, setup_only=False, deadline=None) -> dict:
    """Run one worker to completion and return its JSON result."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--spawned-at", repr(spawned_at)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise BenchmarkError(f"{workload} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def tally(passes):
    """Attempted, unexpected failures and known-defect failures over passes."""
    attempted = failed = known = 0
    for p in passes:
        for stage in p["stages"]:
            attempted += stage["attempted"]
            if stage["known_defect"]:
                known += stage["failed"]
            else:
                failed += stage["failed"]
    return attempted, failed, known


def end_to_end(passes, setups) -> tuple[dict, list[str]]:
    attempted, failed, known = tally(passes)
    cases = sorted((lat, i, p_index) for p_index, p in enumerate(passes)
                   for lat, i in zip(p["latency_s"], p["case_stage"]))
    stage_names = [s["name"] for s in passes[0]["stages"]]
    p50, p99 = percentile(cases, 50), percentile(cases, 99)
    values = {
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "case_p50_us": p50[0] * 1e6,
        "case_p99_us": p99[0] * 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "pass_ratio": (attempted - failed - known) / attempted,
    }
    notes = [
        f"passes {len(passes)}, set-up samples {len(setups)}, cases per pass "
        f"{len(passes[0]['latency_s'])}, speed probes per pass {passes[0]['probes']}, "
        f"GC pauses left out of case latencies {passes[0]['gc_pause_s']:.3f} s",
        f"solve, unscaled: CPU {statistics.median(p['solve_cpu_s'] for p in passes):.3f} s, "
        f"wall with probes {statistics.median(p['solve_wall_s'] for p in passes):.3f} s; "
        f"set-up wall {statistics.median(p['setup_wall_s'] for p in passes):.3f} s",
        f"case_p50_us falls in stage {stage_names[p50[1]]!r}, "
        f"case_p99_us in {stage_names[p99[1]]!r}",
        f"failed_ratio {(failed + known) / attempted:.6f} = ({failed} failed + {known} "
        f"known-defect failures) / {attempted} attempted",
    ]
    return values, notes


def per_layer(base, traced) -> dict:
    t = traced["trace"]
    calls, self_s, inside, items = t["calls"], t["self_s"], t["inside"], t["items"]

    def ratio(num, den):
        return num / den if den else 0.0

    values = {f"{g}.calls": calls.get(g, 0) for g in _TIMED}
    values.update({f"{g}.self_s": self_s.get(g, 0.0) for g in _TIMED + _SELF_ONLY})
    values.update({f"{layer}.other.self_s": self_s.get(f"{layer}.other", 0.0)
                   for layer in LAYERS})
    values.update({f"{layer}.errors": t["errors"][layer] for layer in LAYERS})
    values.update({
        "strata.enumerate.items": items.get("strata.enumerate", 0),
        "strata.stree.calls": calls.get("strata.stree", 0),
        "strata.enumerate.dedup_ratio": ratio(items.get("strata.enumerate", 0),
                                              inside.get("strata.stree", 0)),
        "strata.substratum.contractions_per_call": ratio(inside.get("strata.contract", 0),
                                                         calls.get("strata.substratum", 0)),
        "hopf.balanced_cuts.cuts_rebuilt_per_call": ratio(inside.get("hopf.cuts", 0),
                                                          calls.get("hopf.balanced_cuts", 0)),
        "qsm.relations.checks": items.get("qsm.relations", 0),
        "trace.overhead_ratio": traced["solve_s"] / base["solve_s"],
        "trace.coverage": sum(v for g, v in self_s.items() if g.split(".")[0] in LAYERS)
        / traced["solve_cpu_s"],
    })
    return values


def layer_notes(workload, traced) -> list[str]:
    """Bypass predictions against the traced calls, and the hot-spot shares."""
    t = traced["trace"]
    spec = json.loads((HERE / "workloads.json").read_text())["workloads"][workload]
    notes = []
    for layer in spec["bypass"]:
        n = sum(c for g, c in t["calls"].items() if g.startswith(layer + "."))
        verdict = "as predicted" if n == 0 else "MISMATCH with the bypass prediction"
        notes.append(f"bypass {layer}: {n} calls, {verdict}")
    solve, self_s = traced["solve_cpu_s"], t["self_s"]
    hot = {
        "hopf.relabel": self_s.get("hopf.relabel", 0.0),
        "galois.mul+galois.add": self_s.get("galois.mul", 0.0) + self_s.get("galois.add", 0.0),
        "graphs.validate+graphs.structure_report": self_s.get("graphs.validate", 0.0)
        + self_s.get("graphs.structure_report", 0.0),
    }
    notes += [f"hot spot {name}: {s / solve:.1%} of traced solve_s" for name, s in hot.items()]
    notes.append(f"spans recorded: {t['spans']}")
    return notes


def run_workload(workload, seed, seconds, trace) -> tuple[dict, int, int, list[str]]:
    """Returns (metrics, attempted, failed, notes) for one workload."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    if trace:
        base = spawn(workload, seed, deadline=deadline)
        traced = spawn(workload, seed, trace=True, deadline=deadline)
        attempted, failed, _ = tally([base, traced])
        return (per_layer(base, traced), attempted, failed,
                layer_notes(workload, traced))
    passes = []
    while True:
        passes.append(spawn(workload, seed, deadline=deadline))
        elapsed = time.monotonic() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, setup_only=True, deadline=deadline)["setup_s"])
    attempted, failed, _ = tally(passes)
    values, notes = end_to_end(passes, setups)
    return values, attempted, failed, notes


def print_table(workload, metrics, units, attempted, failed, notes):
    print(f"== {workload}: {attempted} cases attempted, {failed} failed")
    for name, unit in units:
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")
    for note in notes:
        print(f"  {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SRC_PACKAGE.is_file():
        print(f"error: library sources not found at {SRC_PACKAGE.parent}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined, total_attempted, total_failed = {}, 0, 0
    for workload in names:
        try:
            metrics, attempted, failed, notes = run_workload(
                workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_table(workload, metrics, units, attempted, failed, notes)
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, unit in units:
            combined[prefix + name] = {"value": metrics[name], "unit": unit}
        total_attempted += attempted
        total_failed += failed
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
