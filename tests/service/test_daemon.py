"""Scheduler daemon: lifecycle, live queries, checkpoint byte-identity.

The acceptance property of the service layer: a daemon is a *shell* —
every placement is made by the repair scheduler it wraps, so feeding a
churn trace through :meth:`SchedulerDaemon.submit` and killing the
daemon mid-trace (drain → checkpoint → discard → restore → resume)
must land on a final scheduler state **byte-identical** to the
uninterrupted run's.  Hypothesis drives the kill point; the comparison
covers every checkpointable array down to the float bit pattern.
"""

from __future__ import annotations

import asyncio
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics import ChurnEvent
from repro.errors import SimulationError
from repro.io import load_scheduler_state, save_scheduler_state
from repro.scenarios import build_dynamic_scenario
from repro.service.daemon import DaemonConfig, SchedulerDaemon, build_daemon
from tests.conftest import CHURN_EXAMPLES

pytestmark = pytest.mark.service


def _scn(seed=0, n_links=24, horizon=40, churn_rate=0.5):
    """A small planar churn scenario (vectorised substrate: fast)."""
    return build_dynamic_scenario(
        "poisson_churn",
        n_links=n_links,
        seed=seed,
        horizon=horizon,
        churn_rate=churn_rate,
        substrate="planar_uniform",
    )


def _state_bytes(daemon: SchedulerDaemon) -> dict[str, tuple]:
    """Every checkpointable array, down to the bit pattern."""
    state = dict(daemon.config.as_arrays())
    state.update(daemon._context_payload())
    state.update(daemon.driver.export_state())
    state.update(daemon.repairer.export_state())
    return {
        k: (v.dtype.str, v.shape, v.tobytes()) for k, v in state.items()
    }


def _drive(coro):
    return asyncio.run(coro)


async def _replay(daemon: SchedulerDaemon, events) -> list[dict]:
    """Enqueue the whole stream, drain, then collect every result.

    Awaiting each submission before the next would deadlock a batching
    daemon: a chunk's futures only resolve when the chunk flushes.
    """
    futures = [daemon._enqueue(ev) for ev in events]
    await daemon.drain()
    return [await f for f in futures]


class TestLifecycle:
    def test_start_ingest_query_drain_stop(self):
        scn = _scn()

        async def run():
            daemon = build_daemon(scn)
            assert not daemon.running
            await daemon.start()
            await daemon.start()  # idempotent
            assert daemon.running
            # Live admission: the result carries id, slot and placement.
            res = await daemon.admit(0, scn.space.n // 2)
            assert res["id"] == daemon.driver.next_id - 1
            assert daemon.place(res["id"]) == res["scheduled_slot"]
            assert res["scheduled_slot"] is not None
            # Concurrent admissions serialise through the worker queue.
            got = await asyncio.gather(
                *(daemon.admit(i, scn.space.n - 1 - i) for i in range(4))
            )
            assert len({r["id"] for r in got}) == 4
            assert all(r["latency_s"] >= 0.0 for r in got)
            # Departures by id; the slot disappears from reads.
            await daemon.depart(res["id"])
            assert daemon.place(res["id"]) is None
            # Trace events stream through the same path.
            await _replay(daemon, scn.events)
            await daemon.drain()
            stats = daemon.stats()
            assert stats["queue_depth"] == 0
            assert stats["processed"] == 6 + len(scn.events)
            assert stats["admissions"] > 0
            assert stats["admit_p99_s"] >= stats["admit_p50_s"] >= 0.0
            snap = daemon.snapshot()
            assert len(snap["ids"]) == stats["m"]
            assert sorted(snap["ids"]) == sorted(
                daemon.driver.ids_of(snap["slots"])
            )
            placed = [s for s in snap["scheduled"] if s is not None]
            assert placed and max(placed) < snap["slot_count"]
            await daemon.stop()
            assert not daemon.running

        _drive(run())

    def test_submit_refused_unless_running(self):
        scn = _scn()

        async def run():
            daemon = build_daemon(scn)
            with pytest.raises(SimulationError, match="not running"):
                await daemon.admit(0, 1)
            await daemon.start()
            await daemon.stop()
            with pytest.raises(SimulationError, match="not running"):
                await daemon.depart(0)

        _drive(run())

    def test_per_admit_power_rejected(self):
        scn = _scn()

        async def run():
            daemon = build_daemon(scn)
            await daemon.start()
            try:
                with pytest.raises(SimulationError, match="power"):
                    await daemon.admit(0, 1, power=2.0)
            finally:
                await daemon.stop()

        _drive(run())

    def test_unknown_departure_surfaces_but_daemon_keeps_serving(self):
        scn = _scn()

        async def run():
            daemon = build_daemon(scn)
            await daemon.start()
            try:
                with pytest.raises(SimulationError, match="departs unknown"):
                    await daemon.depart(10_000)
                # The worker survived the failed event.
                res = await daemon.admit(0, 1)
                assert res["slot"] is not None
            finally:
                await daemon.stop()

        _drive(run())


class TestConfig:
    def test_validation(self):
        with pytest.raises(SimulationError, match="batch must be >= 1"):
            DaemonConfig(batch=0)
        with pytest.raises(SimulationError, match="unknown repair kind"):
            DaemonConfig(kind="bogus")
        with pytest.raises(SimulationError, match="compaction_every"):
            DaemonConfig(kind="first_fit", compaction_every=4)
        with pytest.raises(SimulationError, match="shards must be >= 0"):
            DaemonConfig(shards=-1)

    def test_array_roundtrip(self):
        config = DaemonConfig(
            kind="capacity",
            shards=0,
            cascade=2,
            max_slots=9,
            admission="general",
            compaction_every=5,
            batch=16,
        )
        assert DaemonConfig.from_arrays(config.as_arrays()) == config

    def test_legacy_six_int_archives_default_to_batch_one(self):
        config = DaemonConfig(kind="first_fit", cascade=3)
        state = config.as_arrays()
        state["cfg_ints"] = state["cfg_ints"][:6]  # pre-batch layout
        assert DaemonConfig.from_arrays(state) == config


class TestCheckpointByteIdentity:
    @given(seed=st.integers(0, 2**10), cut_pct=st.integers(1, 99))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_kill_mid_trace_resumes_byte_identical(self, seed, cut_pct):
        """The acceptance property: checkpoint at a hypothesis-chosen
        kill point, restore into a fresh daemon, finish the trace —
        every scheduler-state array matches the uninterrupted run bit
        for bit (per-event daemons flush at every event, so any kill
        point is a chunk boundary)."""
        scn = _scn(seed=seed)
        events = list(scn.events)
        k = max(1, (len(events) * cut_pct) // 100)

        async def uninterrupted():
            daemon = build_daemon(scn)
            await daemon.start()
            await _replay(daemon, events)
            await daemon.stop()
            return _state_bytes(daemon)

        async def killed():
            daemon = build_daemon(scn)
            await daemon.start()
            await _replay(daemon, events[:k])
            await daemon.drain()
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
                await daemon.stop()  # the "kill": this daemon is gone
                resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            await resumed.start()
            await _replay(resumed, events[k:])
            await resumed.stop()
            return resumed

        want = _drive(uninterrupted())
        resumed = _drive(killed())
        got = _state_bytes(resumed)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == want[key], key

    def test_restore_rebuilds_config_and_serves(self):
        scn = _scn(seed=3)

        async def run():
            config = DaemonConfig(kind="capacity", batch=2)
            daemon = build_daemon(scn, config=config)
            await daemon.start()
            await _replay(daemon, scn.events[:6])
            await daemon.drain()
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
                await daemon.stop()
                resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            assert resumed.config == config
            await resumed.start()
            # One admission fills only half a batch=2 chunk; the drain
            # sentinel flushes it (awaiting it directly would deadlock).
            admit = asyncio.ensure_future(resumed.admit(0, 1))
            for _ in range(10):
                await asyncio.sleep(0)
            await resumed.drain()
            res = await admit
            assert res["id"] == resumed.driver.next_id - 1
            await resumed.stop()

        _drive(run())

    def test_checkpoint_refuses_open_chunk(self):
        scn = _scn(seed=4)

        async def run():
            daemon = build_daemon(scn, config=DaemonConfig(batch=8))
            await daemon.start()
            future = daemon.submit(scn.events[0])
            task = asyncio.ensure_future(future)
            # Let the worker collect the event into its open chunk.
            for _ in range(10):
                await asyncio.sleep(0)
            assert daemon._held == 1
            with pytest.raises(SimulationError, match="open batch chunk"):
                daemon.checkpoint("unused")
            # Drain flushes the partial chunk; checkpointing is legal now.
            await daemon.drain()
            await task
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
            await daemon.stop()

        _drive(run())


class TestBatching:
    def test_batched_replay_is_reproducible(self):
        """Chunk boundaries are a pure function of the event stream, so
        two batched replays land on identical state."""
        scn = _scn(seed=5)

        async def run():
            daemon = build_daemon(scn, config=DaemonConfig(batch=4))
            await daemon.start()
            await _replay(daemon, scn.events)
            await daemon.stop()
            return _state_bytes(daemon)

        assert _drive(run()) == _drive(run())

    def test_batched_checkpoint_at_drain_resumes_identically(self):
        """Under batching a drain is a chunk boundary; a checkpoint
        taken there resumes byte-identically to the run that drained at
        the same point without the checkpoint/restore detour."""
        scn = _scn(seed=6)
        events = list(scn.events)
        k = len(events) // 2

        async def reference():
            daemon = build_daemon(scn, config=DaemonConfig(batch=3))
            await daemon.start()
            await _replay(daemon, events[:k])
            await daemon.drain()  # same boundary as the checkpoint run
            await _replay(daemon, events[k:])
            await daemon.stop()
            return _state_bytes(daemon)

        async def detour():
            daemon = build_daemon(scn, config=DaemonConfig(batch=3))
            await daemon.start()
            await _replay(daemon, events[:k])
            await daemon.drain()
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
                await daemon.stop()
                resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            await resumed.start()
            await _replay(resumed, events[k:])
            await resumed.stop()
            return _state_bytes(resumed)

        assert _drive(reference()) == _drive(detour())

    def test_in_chunk_departure_closes_the_chunk(self):
        """A departure of an id that arrived inside the open chunk
        flushes first — the merged event would otherwise depart a link
        its own departures-first ordering has not admitted yet."""
        scn = _scn(seed=7)

        async def run():
            daemon = build_daemon(scn, config=DaemonConfig(batch=16))
            await daemon.start()
            first = daemon.driver.next_id
            admit = asyncio.ensure_future(daemon.admit(0, 1))
            for _ in range(10):
                await asyncio.sleep(0)
            # The arrival is held in the open chunk, unresolved.
            assert not admit.done()
            assert daemon._held == 1
            # A departure referencing the held id forces the flush...
            depart = asyncio.ensure_future(daemon.depart(first))
            for _ in range(10):
                await asyncio.sleep(0)
            res = await admit
            assert res["id"] == first
            # ...and itself starts a fresh open chunk behind it.
            assert daemon._held == 1
            await daemon.drain()
            await depart
            assert daemon.place(first) is None
            await daemon.stop()

        _drive(run())


class TestShardedDaemon:
    def test_sharded_lifecycle_and_checkpoint_roundtrip(self):
        scn = _scn(seed=8, n_links=48, horizon=20)

        async def run():
            config = DaemonConfig(shards=2)
            daemon = build_daemon(scn, config=config, backend="sparse")
            await daemon.start()
            await _replay(daemon, scn.events)
            await daemon.drain()
            want = _state_bytes(daemon)
            with tempfile.TemporaryDirectory() as tmp:
                daemon.checkpoint(f"{tmp}/ckpt")
                # The shard layout rides as a sidecar next to the archive.
                assert daemon.layout_path(f"{tmp}/ckpt").is_file()
                await daemon.stop()
                resumed = SchedulerDaemon.restore(f"{tmp}/ckpt", scn.space)
            assert _state_bytes(resumed) == want
            await resumed.start()
            res = await resumed.admit(0, 1)
            assert res["slot"] is not None
            await resumed.stop()

        _drive(run())

    def test_restore_ignores_legacy_owner_table(self):
        """Archives written while sharded daemons persisted a per-slot
        owner table carry a ``ctx_owner`` array.  Restore ignores it,
        lands on the live daemon's state bit for bit, and routes the
        next admission to its receiver cell's shard."""
        scn = _scn(seed=8, n_links=48, horizon=20)

        async def run():
            daemon = build_daemon(
                scn, config=DaemonConfig(shards=2), backend="sparse"
            )
            await daemon.start()
            await _replay(daemon, scn.events)
            await daemon.drain()
            want = _state_bytes(daemon)
            layout = daemon.repairer.layout
            assert layout.n_shards == 2
            dyn = daemon.target
            points = dyn.space.geometry.points
            with tempfile.TemporaryDirectory() as tmp:
                path = f"{tmp}/ckpt"
                daemon.checkpoint(path)
                await daemon.stop()
                kind, state = load_scheduler_state(path)
                assert "ctx_owner" not in state
                owner = np.full(dyn.capacity, -1, dtype=np.int64)
                act = dyn.active_slots
                owner[act] = layout.partition.shard_of_points(
                    points[dyn.receivers[act]]
                )
                state["ctx_owner"] = owner
                save_scheduler_state(path, state, kind=kind)
                resumed = SchedulerDaemon.restore(path, scn.space)
            assert _state_bytes(resumed) == want
            # Admit a copy of a shard-1 link: the arrival must be routed
            # to shard 1, the shard of its receiver's cell.
            v = int(layout.interior[1][0])
            links = scn.initial_links()
            sender, receiver = int(links.senders[v]), int(links.receivers[v])
            await resumed.start()
            res = await resumed.admit(sender, receiver)
            await resumed.stop()
            home = int(
                layout.partition.shard_of_points(points[[receiver]])[0]
            )
            assert home == 1
            assert int(resumed.repairer._home[res["slot"]]) == home
            assert res["slot"] in resumed.repairer.repairers[1].universe
            assert resumed.repairer.check()

        _drive(run())

    def test_sharded_daemon_needs_sparse_backend(self):
        scn = _scn(seed=9)
        with pytest.raises(SimulationError, match="sparse"):
            build_daemon(scn, config=DaemonConfig(shards=2), backend="dense")
