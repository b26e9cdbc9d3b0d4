"""Workload definitions for the scheduler benchmark.

Both workloads run the same session (see ``session.py``) over the same
substrate: a ``poisson_churn`` trace over ``planar_uniform`` links,
m = 10^4, eps = 0.2 with the sparse interaction radius pinned to 12 —
the operating point ``benchmarks/bench_service.py`` documents.  The
instance is fixed; the seed draws the trace and the arrival times.  They
differ in how the daemon is wired, which decides the layers that carry
the per-event work:

* ``churn_batched`` — serial repairer, ``DaemonConfig(batch=64)``.
  Per-event work lands in ``dynamics`` (``ChurnDriver.feed``),
  ``DynamicContext`` mutation, ``repair.apply`` and the daemon's chunk
  linger; its open-loop ladder brackets the batch=64 knee (about
  3500 ev/s in reference time for the short windows it runs).
* ``churn_sharded_mixed`` — ``DaemonConfig(shards=4, batch=64)``.
  Sharded apply versus merge-on-read, and checkpoints, under a closed
  loop whose reads force the merge.  It batches like ``churn_batched``
  so the two differ in sharding alone: per event (batch=1) the sharded
  daemon starts a thread pool for every event, and its throughput fell
  to half whenever the shared 2-vCPU machine was contended, which no
  regression bound could absorb.

Every phase is sized from ``--seconds`` and the constants below, never
from a measurement, so two runs with one seed apply the same event
sequence and the count metrics repeat exactly.  Rates are in reference
time (see ``speed.py``): on a slowed machine the open loop stretches its
arrivals by the slowdown, so the daemon sees the same load.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Substrate shared by both workloads: a ``planar_uniform`` pool of
#: ``POOL_FACTOR * N_LINKS`` links, the first ``N_LINKS`` live, built from
#: a fixed seed.  The run's seed drives the churn trace and the arrival
#: times; the instance stays the same, so its fixed costs (schedule
#: length, shard balance, merge cost) do not vary from seed to seed.
N_LINKS = 10_000
POOL_FACTOR = 2
SUBSTRATE = "planar_uniform"
SUBSTRATE_SEED = 0
EPS = 0.2
RADIUS = 12.0

#: Independent builds per run; ``setup_s`` is their median.
SETUPS = 3
#: The measured phases run in this many interleaved rounds.  The shared
#: machine's speed drifts over seconds, so each timing metric pools short
#: samples spread over the whole run rather than a few long ones.
ROUNDS = 12
#: The static first-fit (``schedule_s``) runs in the even rounds, a
#: reference-rate window (``admit_*``) in the odd ones.
#: Passes over the open-loop ladder; their steps are spread over the
#: rounds in order, so each round runs a few consecutive steps.
LADDER_ROUNDS = 3
#: Rounds (0-based) closed by a checkpoint and a timed restore.
RESTORE_ROUNDS = (3, 7, 11)
#: Share of ``--seconds`` given to each measured phase (all rounds).
DRAIN_SHARE = 0.12
LADDER_SHARE = 0.12
CLOSED_SHARE = 0.20
#: Measured arrivals at the reference rate, split evenly over the odd
#: rounds: each of them has its own reference window.
REFERENCE_SAMPLES = 900


@dataclass(frozen=True)
class Workload:
    """One daemon wiring plus the load shapes its session applies."""

    name: str
    why: str
    shards: int
    batch: int
    #: Open-loop ladder rates (events/s), ascending.
    ladder: tuple[float, ...]
    #: Ladder rate whose latencies are reported as ``admit_p50/p99_ms``.
    reference_rate: float
    #: p99 admission latency limit (ms) a ladder step must meet.
    p99_limit_ms: float
    #: Expected as-fast-as-drained rate; sizes the drain pass only.
    drain_hint: float
    #: Expected closed-loop event rate; sizes the closed loop only.
    closed_hint: float
    #: Each closed-loop client calls snapshot() and stats() every N events.
    read_every: int
    #: A client drains and checkpoints every N of its closed-loop events.
    checkpoint_every: int = 200

    def __post_init__(self) -> None:
        if self.reference_rate not in self.ladder:
            raise ValueError(f"{self.name}: reference rate not on the ladder")

    def drain_events(self, seconds: float) -> int:
        """Events in one round's as-fast-as-drained pass."""
        return max(64, round(self.drain_hint * DRAIN_SHARE * seconds / ROUNDS))

    def steps(self) -> tuple[float, ...]:
        """Ladder rates other than the reference rate."""
        return tuple(r for r in self.ladder if r != self.reference_rate)

    def step_seconds(self, seconds: float) -> float:
        """Measured arrival window of one ladder pass's step."""
        return LADDER_SHARE * seconds / LADDER_ROUNDS / len(self.steps())

    def reference_seconds(self) -> float:
        """Measured arrival window of each reference-rate window."""
        return REFERENCE_SAMPLES / self.reference_rate / (ROUNDS // 2)

    def closed_events(self, seconds: float) -> int:
        """Events the two closed-loop clients submit in one round."""
        per_round = self.closed_hint * CLOSED_SHARE * seconds / ROUNDS
        return max(64, round(per_round))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="churn_batched",
            why=(
                "serial daemon, batch=64: open loop, 1 generator, Poisson "
                "arrivals on a 600-4800 ev/s ladder, p99 limit 200 ms, "
                "reference 600 ev/s; mutation, repair.apply, chunk linger"
            ),
            shards=0,
            batch=64,
            ladder=(600.0, 2400.0, 3200.0, 4000.0, 4800.0),
            reference_rate=600.0,
            p99_limit_ms=200.0,
            drain_hint=1400.0,
            closed_hint=250.0,
            read_every=8,
        ),
        Workload(
            name="churn_sharded_mixed",
            why=(
                "4 shards, batch=64: closed loop of 2 clients (submit+place, "
                "snapshot+stats every 24, checkpoints) plus a 600-4400 ev/s "
                "ladder, p99 limit 200 ms at 600; merge-on-read, io"
            ),
            shards=4,
            batch=64,
            ladder=(600.0, 2000.0, 2800.0, 3600.0, 4400.0),
            reference_rate=600.0,
            p99_limit_ms=200.0,
            drain_hint=1400.0,
            closed_hint=170.0,
            read_every=24,
        ),
    )
}
