"""Regenerate ``golden.json``: the simulated-output digest of every
workload at every input seed.

    python3 perfbench/record_golden.py [--workload NAME ...]

Run it only for a change that is meant to move simulated outputs, and
name that model change in CHANGES.md; a speed-only change keeps every
digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.run import (GOLDEN, INPUT_SEEDS, ROOT, WORKLOADS,  # noqa: E402
                           spawn_child)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    workdir = os.path.join(ROOT, ".perfbench-work", "golden")
    os.makedirs(workdir, exist_ok=True)
    try:
        for workload in args.workload or list(WORKLOADS):
            for seed in range(INPUT_SEEDS):
                out = spawn_child(workload, seed, workdir, False, 600)
                if "digest" not in out or out.get("warm_failed"):
                    print(f"{workload} seed {seed}: {out}", file=sys.stderr)
                    return 1
                golden.setdefault(workload, {})[str(seed)] = out["digest"]
                print(f"{workload} seed {seed}: {out['digest']} "
                      f"({out['sweep_s']:.2f}s)", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
