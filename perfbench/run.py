"""Benchmark of the decay-space scheduler service.

Run one workload (the metric names, units and bounds live in
``BENCHMARK.json`` at the repository root)::

    python3 perfbench/run.py --workload churn_batched --seed 0 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
session with span tracing around each layer's entry points and prints
the per-layer metrics, writing the spans to ``perfbench/out/``.
``--workload all`` runs every workload, each in a fresh process.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run whose outputs
fail a correctness check prints the failure, reports no numbers and
exits with status 1.  The library is imported from ``src/`` of the
checkout this file sits in; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))


def _layer_report(s, tracer, import_s: float) -> dict[str, float]:
    import tracing

    m = tracing.layer_metrics(tracer.spans)
    m.update(s.daemon_breakdown())
    stats = s.final_repair
    m["repair.placements"] = stats.placements
    m["repair.opened"] = stats.opened
    m["repair.evictions"] = stats.evictions
    m["repair.opened_per_placement"] = stats.opened / max(stats.placements, 1)
    m["repair.slot_count"] = s.maintained_slots
    m["sharding.merge_displaced"] = s.merge_displaced
    m["io.checkpoint_bytes"] = s.checkpoint_bytes
    m["daemon.failed"] = s.events_failed
    m["import_s"] = import_s
    m["trace.overhead_s"] = (
        s.layer["trace.setup_overhead_s"] + s.layer["trace.drain_overhead_s"]
    )
    m["trace.spans"] = len(tracer.spans)
    # The run's phases end to end: what the layers' self times split.
    m["trace.wall_s"] = sum(s.phase_s.values())
    return m


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    t = time.perf_counter()
    import numpy
    import scipy

    import repro.io  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.service.daemon  # noqa: F401

    import_s = time.perf_counter() - t
    import session
    import tracing
    from workloads import WORKLOADS

    spec = _spec()
    workload = WORKLOADS[args.workload]
    print(
        f"# workload={workload.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__}"
    )
    print(f"# import_s={import_s:.3f} (not part of setup_s)")
    work_dir = OUT / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    s = session.Session(workload, args.seed, args.seconds, tracer, work_dir)
    try:
        if tracer is None:
            s.run()
        else:
            with tracing.installed(tracer):
                s.run()
    except session.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}")
        _emit(False, max(s.attempted, 1), s.failed, {})
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for step in s.ladder:
        print(
            f"# ladder {step['rate']:7.0f} ev/s  n={step['n']:5d}  "
            f"p50={step['p50_ms']:8.2f} ms  p99={step['p99_ms']:8.2f} ms  "
            f"{'pass' if step['passed'] else 'fail'} "
            f"(limit {workload.p99_limit_ms:g} ms)  windows p99: "
            + " ".join(f"{v:.1f}" for v in step["windows_p99_ms"])
        )
    print(
        f"# final_slots={s.final_slots} "
        f"maintained_slots={s.maintained_slots!r} "
        f"static_slots={s.metrics['slot_count']:g} reads={len(s.reads)} "
        f"events={s.events_sent} failed={s.events_failed}"
    )
    print("# phase wall s: " + " ".join(
        f"{name}={sec:.2f}" for name, sec in s.phase_s.items()
    ))
    print("# peak rss MB after phase: " + " ".join(
        f"{name}={mb:.0f}" for name, mb in s.rss_mb.items()
    ))
    for name, values in s.rounds.items():
        print(f"# {name} s per round (@slowdown): " + " ".join(
            f"{sec:.4g}@{slow:.3f}" for sec, slow in values
        ))
    print("# unscaled: " + " ".join(
        f"{key}={value:.6g}" for key, value in s.raw.items()
    ))
    if tracer is None:
        wanted, values = spec["end_to_end"], s.metrics
    else:
        wanted = spec["per_layer"]
        values = _layer_report(s, tracer, import_s)
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"# {len(tracer.spans)} spans written to {trace_path}")
    metrics = {}
    for entry in wanted:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:34s} {value:14.6g} {entry['unit']}")
    _emit(True, s.attempted, s.failed, metrics)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so nothing leaks between them."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"workload {name} exited with status {proc.returncode}")
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}/{key}"] = value
    _emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no library source at {ROOT / 'src' / 'repro'}; run "
            "from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
