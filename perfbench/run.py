"""The repository benchmark: figure sweeps and a served campaign.

Usage (from the repository root)::

    python3 perfbench/run.py --workload coloring-sweep --seed 0 \\
        --seconds 20 --trace 0

Every pass runs in a fresh child process with a hermetic environment, so
each one pays what a ``repro figN`` invocation pays and nothing one pass
memoises reaches the next.  The untraced run (``--trace 0``) starts
children until ``--seconds`` are spent (at least two) and reports the
end-to-end metrics as medians over them.  The traced run (``--trace 1``)
starts one untraced child and two traced ones, and reports per-layer
metrics, the tracing overhead and whether the exact work counts of the two
traced passes agree.  Pass and set-up times are in nominal seconds,
host seconds corrected for the host's speed (``perfbench/speed.py``).
Every pass is checked against the golden digest of its input seed; the
last line of standard output is the JSON result.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")

#: Per-workload pins; every other REPRO_* variable is cleared.
WORKLOADS = {
    "coloring-sweep": {"REPRO_GRAPHS": "auto,pwtk", "REPRO_THREADS": "1,31"},
    "irregular-sweep": {"REPRO_GRAPHS": "auto,pwtk",
                        "REPRO_THREADS": "1,11,31"},
    "bfs-sweep": {"REPRO_GRAPHS": "auto,pwtk", "REPRO_THREADS": "1,31"},
    "served-campaign": {"REPRO_GRAPHS": "auto,pwtk",
                        "REPRO_THREADS": "1,11,31"},
}
#: The workload seed selects one of this many input seeds (seed mod N),
#: each with a committed golden digest.
INPUT_SEEDS = 8
MIN_CHILDREN = 2
#: Hard limit for a whole run; a benchmark run must end within 180 s.
RUN_DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "sweep_s": "s", "sweep_cpu_s": "s",
              "peak_rss_mb": "MB"}
#: Per-layer metric -> unit.  Counts and simulated cycles must repeat
#: exactly between the two traced passes (see EXACT).
PER_LAYER = {
    "sim.events": "count", "sim.run_self_s": "s", "sim.us_per_event": "us",
    "dram.service_calls": "count", "dram.service_s": "s",
    "dram.transfers": "count", "dram.wait_cycles": "cycles",
    "machine.execute_calls": "count", "machine.execute_s": "s",
    "machine.range_cost_s": "s", "machine.profile_calls": "count",
    "machine.profile_s": "s",
    "runtime.loops": "count", "runtime.chunks": "count",
    "runtime.loop_setup_s": "s", "runtime.parallel_for_self_s": "s",
    "runtime.steals": "count", "runtime.atomic_ops": "count",
    "runtime.sched_cycles": "cycles",
    "kernels.greedy_calls": "count", "kernels.greedy_s": "s",
    "kernels.gather_calls": "count", "kernels.gather_s": "s",
    "kernels.coloring.replay_s": "s", "kernels.bfs.replay_s": "s",
    "kernels.irregular.self_s": "s", "kernels.coloring.rounds": "count",
    "kernels.coloring.conflicts": "count", "kernels.bfs.levels": "count",
    "harness.cells": "count", "harness.self_s": "s", "campaign.cell_s": "s",
    "graph.build_s": "s",
    "serve.submit_ms": "ms", "serve.results_ms": "ms",
    "journal.appends": "count", "journal.append_s": "s",
    "store.puts": "count", "store.put_s": "s",
    "store.gets": "count", "store.get_s": "s", "store.hit_ratio": "ratio",
    "warm_job_p50_ms": "ms", "warm_job_p90_ms": "ms",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    "fail_frac": "ratio",
    "sweep_wall_s": "s", "setup_wall_s": "s", "host.ref_ms": "ms",
}
EXACT = [name for name, unit in PER_LAYER.items()
         if unit in ("count", "cycles")]


def child_env(workload: str) -> dict:
    """The environment a child sees: no inherited REPRO_* knob, pins only."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in ("PYTHONPATH",)}
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", REPRO_FAST="1", REPRO_JOBS="1",
               REPRO_SERVE_JOBS="1", REPRO_RETRIES="1",
               **WORKLOADS[workload])
    return env


def spawn_child(workload: str, seed: int, workdir: str, trace: bool,
                timeout: float) -> dict:
    """Run one pass in a fresh interpreter; returns its measurements
    (``{"error": ...}`` when the child crashed or timed out)."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed), "--t0", repr(t0),
           "--workdir", workdir, "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(workload),
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f}s",
                "wall_s": time.monotonic() - t0}
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"child exited {proc.returncode}: "
                         + " | ".join(tail), "wall_s": wall}
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    return out


def load_golden(workload: str, input_seed: int) -> str:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[workload][str(input_seed)]


def score(children: list[dict], expected: str) -> tuple[int, int]:
    """(attempted, failed) operations: a child's cold pass and its warm
    resubmissions.  A cold pass whose digest is not the golden one fails
    with every warm result served from it."""
    attempted = failed = 0
    for child in children:
        warm = len(child.get("warm_ms", []))
        attempted += 1 + warm
        if "error" in child:
            failed += 1 + warm
        elif child.get("digest") != expected:
            failed += 1 + warm
        else:
            failed += child.get("warm_failed", 0)
    return attempted, failed


def _metric(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def end_to_end(children: list[dict]) -> dict | None:
    """Medians over the children that completed."""
    done = [c for c in children if "peak_rss_mb" in c]
    if not done:
        return None
    return _metric({name: statistics.median(c[name] for c in done)
                    for name in END_TO_END}, END_TO_END)


def layer_values(child: dict) -> dict:
    """Per-layer values of one traced child, from its span snapshots."""
    from perfbench.tracing import KERNEL_ENTRIES, delta
    marks = child["marks"]
    setup = marks["setup"]
    run = delta(marks["cold"], setup)        # the cold pass
    after = delta(marks["end"], setup)       # cold pass + warm ops

    def ratio(a, b):
        return a / b if b else 0.0

    cells = run["campaign.cell.calls"]
    gets = after["store.get.calls"]
    return {
        "sim.events": run["sim.events"],
        "sim.run_self_s": run["sim.run.self"],
        "dram.service_calls": run["dram.service.calls"],
        "dram.service_s": run["dram.service.self"],
        "dram.transfers": run["dram.transfers"],
        "dram.wait_cycles": run["dram.wait_cycles"],
        "machine.execute_calls": run["machine.execute.calls"],
        "machine.execute_s": run["machine.execute.self"],
        "machine.range_cost_s": run["machine.range_cost.self"],
        "machine.profile_calls": run["machine.profile.calls"],
        "machine.profile_s": run["machine.profile.self"],
        "runtime.loops": run["runtime.parallel_for.calls"],
        "runtime.chunks": run["runtime.chunks"],
        "runtime.loop_setup_s": run["runtime.loop_setup.self"],
        "runtime.parallel_for_self_s": run["runtime.parallel_for.self"],
        "runtime.steals": run["runtime.steals"],
        "runtime.atomic_ops": run["runtime.atomic_ops"],
        "runtime.sched_cycles": run["runtime.sched_cycles"],
        "kernels.greedy_calls": run["kernels.greedy.calls"],
        "kernels.greedy_s": run["kernels.greedy.self"],
        "kernels.gather_calls": run["kernels.gather.calls"],
        "kernels.gather_s": run["kernels.gather.self"],
        "kernels.coloring.replay_s": run["kernels.coloring.self"],
        "kernels.bfs.replay_s": run["kernels.bfs.self"],
        "kernels.irregular.self_s": run["kernels.irregular.self"],
        "kernels.coloring.rounds": run["kernels.coloring.rounds"],
        "kernels.coloring.conflicts": run["kernels.coloring.conflicts"],
        "kernels.bfs.levels": run["kernels.bfs.levels"],
        "harness.cells": cells,
        "harness.self_s": child["sweep_wall_s"]
        - sum(run[s + ".total"] for s in KERNEL_ENTRIES),
        "campaign.cell_s": ratio(run["campaign.cell.total"], cells),
        "graph.build_s": setup.get("graph.build.total", 0.0),
        "serve.submit_ms": run["serve.submit.total"] * 1e3,
        "serve.results_ms": run["serve.results.total"] * 1e3,
        "journal.appends": after["journal.append.calls"],
        "journal.append_s": after["journal.append.total"],
        "store.puts": after["store.put.calls"],
        "store.put_s": after["store.put.total"],
        "store.gets": gets,
        "store.get_s": after["store.get.total"],
        "store.hit_ratio": ratio(after["store.hits"], gets),
    }


def per_layer(base: dict, traced: list[dict], attempted: int,
              failed: int) -> dict | None:
    """Per-layer metrics: medians of the traced children's values, plus
    the warm latencies of the untraced child and the tracing overhead;
    ``failed`` counts one more when the exact counts do not repeat."""
    rows = [layer_values(c) for c in traced if "marks" in c]
    if "peak_rss_mb" not in base or not rows:
        return None
    if len(rows) < len(traced) or any(row[name] != rows[0][name]
                                      for row in rows for name in EXACT):
        failed += 1
        print("perfbench: exact counts differ between traced passes",
              file=sys.stderr)
    values = {name: statistics.median(r[name] for r in rows)
              for name in rows[0]}
    for name in EXACT:
        values[name] = rows[0][name]
    traced_s = statistics.median(c["sweep_s"] for c in traced
                                 if "marks" in c)
    values["sim.us_per_event"] = base["sweep_s"] / values["sim.events"] \
        * 1e6 if values["sim.events"] else 0.0
    values["warm_job_p50_ms"] = statistics.median(base["warm_ms"])
    values["warm_job_p90_ms"] = statistics.quantiles(base["warm_ms"], n=10)[8]
    values["trace.overhead_s"] = traced_s - base["sweep_s"]
    values["trace.overhead_frac"] = values["trace.overhead_s"] \
        / base["sweep_s"]
    values["fail_frac"] = failed / attempted
    values["sweep_wall_s"] = base["sweep_wall_s"]
    values["setup_wall_s"] = base["setup_wall_s"]
    values["host.ref_ms"] = base["ref_ms"]
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": _metric(values, PER_LAYER)}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: str) -> dict | None:
    """Run the children of one benchmark run and build its result."""
    input_seed = seed % INPUT_SEEDS
    expected = load_golden(workload, input_seed)
    start = time.monotonic()

    def remaining() -> float:
        return RUN_DEADLINE_S - (time.monotonic() - start)

    def child(traced: bool) -> dict:
        out = spawn_child(workload, input_seed, workdir, traced, remaining())
        if "error" in out:
            print(f"perfbench: {workload}: {out['error']}", file=sys.stderr)
        return out

    if trace:
        base = child(False)
        traced = [child(True), child(True)]
        attempted, failed = score([base] + traced, expected)
        # One more operation: the exact counts of the traced passes agree.
        return per_layer(base, traced, attempted + 1, failed)
    children: list[dict] = []
    while len(children) < MIN_CHILDREN or (
            time.monotonic() - start
            + statistics.median(c["wall_s"] for c in children) <= seconds):
        children.append(child(False))
        if remaining() <= 0:
            break
    print(f"perfbench: {workload} seed {seed} (input seed {input_seed}): "
          f"{len(children)} passes, sweep_s (host s) "
          + ", ".join(f"{c.get('sweep_s', float('nan')):.3f} "
                      f"({c.get('sweep_wall_s', float('nan')):.3f})"
                      for c in children), file=sys.stderr)
    attempted, failed = score(children, expected)
    metrics = end_to_end(children)
    if metrics is None:
        return None
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _child_main(args) -> int:
    sys.path.insert(0, ROOT)
    from perfbench.workloads import run_child
    out = run_child(args.workload, args.seed, args.t0, args.workdir,
                    bool(args.trace))
    print(json.dumps(out))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return _child_main(args)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under src/", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    if result is None:
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
