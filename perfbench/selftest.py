"""Determinism self-test of the benchmark.

For each workload: two traced runs with one seed must report the same
count metrics (certificate, repair and sharding counters, event and call
counts, the final slot count), and a run with a held-out seed must pass
every correctness check.  Each run is a fresh process::

    python3 perfbench/selftest.py                # seconds=8, seeds 0 and 97
    python3 perfbench/selftest.py --seconds 20 --seed 3 --held-out 11

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: Per-layer metrics that count work and must repeat exactly.
COUNTS = (
    "cells.far_field_calls", "cells.query_pairs", "affectance_sparse.nnz",
    "affectance_sparse.radius", "affectance_sparse.doublings",
    "context.links_added", "context.links_removed", "dynamics.feed_calls",
    "repair.apply_calls", "repair.placements", "repair.opened",
    "repair.evictions", "sharding.materialize_calls",
    "sharding.merge_displaced", "daemon.failed",
)


def _run(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    # "# final_slots=N mean_slots=X ..." — both must repeat exactly.
    slots = next(
        (l.split()[1:3] for l in lines if l.startswith("# final_slots=")),
        None,
    )
    return proc.returncode, result, slots, proc.stdout + proc.stderr


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--held-out", type=int, default=97)
    args = parser.parse_args(argv)
    failures = []
    for name in WORKLOADS:
        runs = [_run(name, args.seed, args.seconds, 1) for _ in range(2)]
        broken = [
            out for code, result, _, out in runs
            if code != 0 or not result["correct"]
        ]
        if broken:
            failures.append(f"{name} seed {args.seed}: run failed\n{broken[0]}")
        else:
            (_, a, slots_a, _), (_, b, slots_b, _) = runs
            before = len(failures)
            for key in COUNTS:
                va = a["metrics"][key]["value"]
                vb = b["metrics"][key]["value"]
                if va != vb:
                    failures.append(f"{name}: {key} {va} != {vb}")
            if slots_a != slots_b:
                failures.append(f"{name}: slot counts {slots_a} != {slots_b}")
            if len(failures) == before:
                print(f"{name}: counts repeat across two seed-{args.seed} runs")
        code, result, _, out = _run(name, args.held_out, args.seconds, 0)
        if code != 0 or not result["correct"]:
            failures.append(f"{name} seed {args.held_out}: checks failed\n{out}")
        else:
            print(f"{name}: held-out seed {args.held_out} passes every check")
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
