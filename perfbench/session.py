"""One benchmark session: build the daemon, drive it, check it, report.

A session runs these phases over one workload (``workloads.py``) and
one seed:

1. **setup** — ``SETUPS`` independent ``build_daemon`` calls, each over
   a freshly generated copy of the substrate (no cache is shared between
   builds): cell index, far-field certificate, CSR, repair anchor,
   daemon.  ``setup_s`` is their median; the last daemon serves.  The
   initial population is then frozen into a static context.
2. ``ROUNDS`` rounds, each of:

   * **schedule** (even rounds) — a static first-fit over the frozen
     initial context (``schedule_s``), checked to partition the links
     into feasible slots;
   * **drain** — a batch of events submitted at once and drained as fast
     as the daemon applies them (``drain_eps``);
   * **open loop** — one generator, Poisson arrivals, each event sent at
     its due time and timed from that due time to applied.  Odd rounds
     run a window at the reference rate (``admit_p50/p99_ms``); every
     round runs a few windows of the ladder's passes, in order
     (``sustained_eps``: where the p99 crosses the limit);
   * **closed loop** — two clients, each submitting its next event only
     after the previous one was applied, then ``place(id)``; every
     ``read_every`` events ``snapshot()`` and ``stats()``; every
     ``checkpoint_every`` events a drain and a checkpoint
     (``ops_per_s``, ``read_p50/p99_ms``);
   * **restore** (``RESTORE_ROUNDS``) — a checkpoint of the drained
     daemon restored into a started daemon (``restore_s``), its snapshot
     equal to the live one.

3. **checks** — invariants on the drained daemon.

Every timed sample is bracketed by the speed probe (``speed.py``) and
reported in reference seconds; the rounds are pooled, so each timing
averages over the whole run.  In a traced run the first two builds and
the even rounds' drains run with tracing off; their traced twins give
the tracing overhead.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import pathlib
import resource
import statistics
import time

import numpy as np

import tracing
from speed import SpeedProbe
from workloads import (
    EPS, LADDER_ROUNDS, N_LINKS, POOL_FACTOR, RADIUS, RESTORE_ROUNDS,
    ROUNDS, SETUPS, SUBSTRATE, SUBSTRATE_SEED, Workload,
)

from repro.dynamics import ChurnEvent, DynamicScenario
from repro.errors import ReproError
from repro.scenarios import build_scenario
from repro.service.daemon import DaemonConfig, SchedulerDaemon, build_daemon


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports no numbers."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _quantiles_ms(seconds) -> tuple[float, float]:
    arr = np.asarray(seconds, dtype=float) * 1e3
    if arr.size == 0:
        return 0.0, 0.0
    return float(np.percentile(arr, 50)), float(np.percentile(arr, 99))


def _window(rng, rate: float, window: float, batch: int):
    """Poisson arrival offsets (s) of one open-loop window, and how many
    of them are measured.

    Arrivals due inside ``window`` are measured.  Unmeasured arrivals
    keep coming for ``1.5 * batch / rate`` seconds more, so the chunk
    holding the last measured arrival fills as it would in a steady
    stream instead of being flushed early by the closing drain.
    """
    tail = 1.5 * batch / rate if batch > 1 else 0.0
    size = int(rate * (window + tail) * 1.5) + 64
    gaps = rng.exponential(1.0 / rate, size=size)
    due = np.cumsum(gaps)
    return due[due < window + tail], int(np.count_nonzero(due < window))


def _ladder_due(workload: Workload, seconds: float, seed: int):
    """Open-loop arrival windows, from the seed.

    Returns ``(passes, reference)``: ``passes[p][k]`` for the ``k``-th
    rate of ``workload.steps()`` in ladder pass ``p``, and the windows at
    the reference rate, one for each round without a static schedule.
    """
    rng = np.random.default_rng([seed, 1])
    passes = [
        [_window(rng, rate, workload.step_seconds(seconds), workload.batch)
         for rate in workload.steps()]
        for _ in range(LADDER_ROUNDS)
    ]
    reference = [
        _window(rng, workload.reference_rate, workload.reference_seconds(),
                workload.batch)
        for _ in range(ROUNDS // 2)
    ]
    return passes, reference


def _crossing(steps, limit: float) -> float:
    """Rate at which the ladder's p99 crosses ``limit``.

    The first failing step caps it: a rate above one the daemon cannot
    hold is not sustained, even if a short window there happens to pass.
    Between that step and the one below, the crossing is interpolated
    linearly in 1/p99 (for a queue, 1/p99 falls roughly linearly as the
    rate nears capacity).  If every step passes it is the ladder's top.
    """
    failing = [i for i, s in enumerate(steps) if not s["passed"]]
    if not failing:
        return steps[-1]["rate"]
    i = failing[0]
    if i == 0:
        return steps[0]["rate"] * min(1.0, limit / steps[0]["p99_ms"])
    lo, hi = steps[i - 1], steps[i]
    inv_lo, inv_hi = 1.0 / lo["p99_ms"], 1.0 / hi["p99_ms"]
    frac = (inv_lo - 1.0 / limit) / (inv_lo - inv_hi) if inv_lo > inv_hi else 0.0
    return lo["rate"] + (hi["rate"] - lo["rate"]) * min(max(frac, 0.0), 1.0)


class EventStream:
    """A ``poisson_churn`` trace over the substrate pool, kept as arrays.

    The replacement process of ``repro.scenarios.poisson_churn`` at
    churn_rate 1, burst 1, drawn from the run's seed: each event retires
    a uniform live link and admits a uniform idle pool link; ids follow
    birth order.  (With the substrate's own seed it reproduces that
    builder's trace draw for draw.)  Events are built as they are sent:
    the whole trace as Python objects would be tens of thousands of
    objects for every full garbage collection of the daemon's process to
    walk, a cost the service itself does not carry.
    """

    def __init__(self, pool_pairs, n_events: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        active = [(i, i) for i in range(N_LINKS)]
        idle = list(range(N_LINKS, len(pool_pairs)))
        self.pairs = np.empty((n_events, 2), dtype=np.int64)
        self.departs = np.empty(n_events, dtype=np.int64)
        for t in range(n_events):
            rng.random()  # poisson_churn's firing draw (always fires at 1.0)
            vid, vpool = active.pop(int(rng.integers(len(active))))
            npool = idle.pop(int(rng.integers(len(idle))))
            idle.append(vpool)
            self.departs[t] = vid
            self.pairs[t] = pool_pairs[npool]
            active.append((N_LINKS + t, npool))
        self.cursor = 0

    def __len__(self) -> int:
        return len(self.departs)

    def take(self, n: int) -> range:
        """Indices of the next ``n`` events of the trace."""
        lo, hi = self.cursor, min(self.cursor + n, len(self))
        self.cursor = hi
        return range(lo, hi)

    def event(self, i: int) -> ChurnEvent:
        """Event ``i``, built when it is about to be sent."""
        s, r = self.pairs[i].tolist()
        return ChurnEvent(
            slot=0, arrivals=((s, r),), departures=(int(self.departs[i]),)
        )


class Session:
    """State and measurements of one run."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 tracer: tracing.Tracer | None, work_dir: pathlib.Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work_dir = work_dir
        self.metrics: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        #: Client operations attempted / failed over the whole run.
        self.attempted = 0
        self.failed = 0
        #: Churn events submitted / failed (the daemon's own ledger).
        self.events_sent = 0
        self.events_failed = 0
        self._closed_done = [0, 0]
        #: Wall seconds spent per phase, over the whole run.
        self.phase_s: dict[str, float] = {}
        #: Peak resident memory (MB) of the process at each phase's end.
        self.rss_mb: dict[str, float] = {}
        self.probe = SpeedProbe()
        #: The end-to-end timings before scaling by the slowdown.
        self.raw: dict[str, float] = {}

    @contextlib.contextmanager
    def _phase(self, name: str):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.phase_s[name] = (
                self.phase_s.get(name, 0.0) + time.perf_counter() - t
            )
            self.rss_mb[name] = _peak_rss_mb()

    # ------------------------------------------------------------------
    def _trace(self, on: bool, request: str = "") -> None:
        """Switch tracing (a no-op in an untraced run) and set the request."""
        if self.tracer is not None:
            self.tracer.enabled = on
            self.tracer.request = request

    def _request(self, request: str) -> None:
        if self.tracer is not None:
            self.tracer.request = request

    # ------------------------------------------------------------------
    def run(self) -> None:
        w, seconds = self.w, self.seconds
        due = _ladder_due(w, seconds, self.seed)
        passes, reference = due
        n_events = (
            ROUNDS * (w.drain_events(seconds) + w.closed_events(seconds))
            + sum(len(d) for steps in passes for d, _ in steps)
            + sum(len(d) for d, _ in reference)
        )
        stream = EventStream(_substrate()[1], n_events, self.seed)
        builds = []
        daemon = scn = None
        t_setup = time.perf_counter()
        for i in range(SETUPS):
            del daemon, scn
            gc.collect()
            # A fresh substrate per build, so no cache carries over; the
            # daemon streams its events, so no trace is bound to it.
            space, pairs = _substrate()
            scn = DynamicScenario(
                name="poisson_churn", space=space,
                initial=tuple(pairs[:N_LINKS]),
            )
            self._trace(i == SETUPS - 1, "setup")
            t0 = self.probe.start()
            daemon = build_daemon(
                scn, config=DaemonConfig(shards=w.shards, batch=w.batch),
                backend="sparse", eps=EPS, radius=RADIUS,
            )
            builds.append(self.probe.stop(t0))
            self._trace(False)
        self.samples = {"setup": builds}
        if self.tracer is not None:
            raw = [t1 - t0 for t0, t1 in builds]
            self.layer["trace.setup_overhead_s"] = (
                raw[-1] - statistics.median(raw[:-1])
            )
        self.phase_s["setup"] = time.perf_counter() - t_setup
        self.rss_mb["setup"] = _peak_rss_mb()
        self.scn = scn
        self._trace(True, "schedule")
        with self._phase("freeze"):
            self.static = daemon.target.freeze()
            self.static.sparse_affectance  # built outside the timed calls
        self._trace(False)
        asyncio.run(self._serve(daemon, stream, due))
        self.metrics["peak_rss_mb"] = _peak_rss_mb()

    # ------------------------------------------------------------------
    async def _serve(self, daemon, stream, due) -> None:
        w, seconds = self.w, self.seconds
        await daemon.start()
        n_drain = w.drain_events(seconds)
        #: Per-round samples of every timed phase, each with its slowdown.
        self.samples.update(
            {"schedule": [], "drain": [], "closed": [], "restore": []}
        )
        passes, reference = due
        per_rate = {rate: [] for rate in w.ladder}
        # The ladder passes' steps, in order, spread over the rounds.
        plan = [(p, k) for p in range(LADDER_ROUNDS)
                for k in range(len(w.steps()))]
        shares = np.array_split(np.arange(len(plan)), ROUNDS)
        self.reads: list[float] = []
        #: Schedule length each closed-loop ``stats()`` read returned.
        self.slot_reads: list[int] = []
        for r in range(ROUNDS):
            if r % 2 == 0:
                self._trace(True, "schedule")
                with self._phase("schedule"):
                    self.samples["schedule"].append(
                        self._schedule(check=r == 0)
                    )
            # Odd rounds drain traced, even ones untraced: equal work on
            # both sides of the tracing overhead.
            self._trace(r % 2 == 1, "drain")
            chunk = [stream.event(i) for i in stream.take(n_drain)]
            with self._phase("drain"):
                self.samples["drain"].append(
                    await self._drain_pass(daemon, chunk)
                )
            del chunk
            self._trace(True)
            with self._phase("ladder"):
                if r % 2 == 1:
                    rate = w.reference_rate
                    self._request(f"ladder:{rate:g}")
                    per_rate[rate].append(await self._open_loop(
                        daemon, stream, reference[r // 2], rate,
                    ))
                for p, k in (plan[j] for j in shares[r]):
                    rate = w.steps()[k]
                    self._request(f"ladder:{rate:g}")
                    per_rate[rate].append(await self._open_loop(
                        daemon, stream, passes[p][k], rate,
                    ))
            with self._phase("closed"):
                self.samples["closed"].append(await self._closed_loop(
                    daemon, stream, stream.take(w.closed_events(seconds))
                ))
            if r in RESTORE_ROUNDS:
                with self._phase("restore"):
                    self.samples["restore"].append(
                        await self._restore(daemon, r)
                    )
        self._summarize(n_drain)
        self._ladder_report(per_rate)
        await self._final_checks(daemon)

    def _summarize(self, n_drain: int) -> None:
        """End-to-end timings from the per-round samples.

        Each sample's seconds are divided by its slowdown (see
        ``speed.py``), then the rounds are pooled: total work over total
        scaled time.  ``self.raw`` keeps the same figures unscaled.
        """
        slowdown = self.probe.slowdown
        #: ``(seconds, slowdown)`` of every sample, for the report.
        self.rounds = {
            name: [(t1 - t0, slowdown(t0, t1)) for *_, t0, t1 in samples]
            for name, samples in self.samples.items()
        }
        rounds = self.rounds

        def pooled(name, scaled=True):
            return statistics.fmean(
                sec / slow if scaled else sec for sec, slow in rounds[name]
            )

        ops = sum(sample[0] for sample in self.samples["closed"])
        for out, scaled in ((self.metrics, True), (self.raw, False)):
            out["setup_s"] = statistics.median(
                sec / slow if scaled else sec for sec, slow in rounds["setup"]
            )
            out["schedule_s"] = pooled("schedule", scaled)
            out["restore_s"] = pooled("restore", scaled)
            out["drain_eps"] = n_drain / pooled("drain", scaled)
            out["ops_per_s"] = ops / (
                len(rounds["closed"]) * pooled("closed", scaled)
            )
            # Each read is scaled by the slowdown of its closed loop.
            reads = []
            for (*_, r0, r1, _, _), (_, slow) in zip(
                self.samples["closed"], rounds["closed"]
            ):
                reads.extend(
                    sec / slow if scaled else sec for sec in self.reads[r0:r1]
                )
            out["read_p50_ms"], out["read_p99_ms"] = _quantiles_ms(reads)
        if self.tracer is not None:
            drains = [sec for sec, _ in rounds["drain"]]
            self.layer["trace.drain_overhead_s"] = (
                sum(drains[1::2]) - sum(drains[0::2])
            )

    async def _restore(self, daemon, r: int) -> tuple[float, float]:
        """Checkpoint the drained daemon; time a restore to serving.

        Returns the restore's interval (see ``SpeedProbe.stop``).
        """
        await daemon.drain()
        path = self.work_dir / f"round{r}.npz"
        self._request("restore")
        self._checkpoint(daemon, path)
        live = daemon.snapshot()
        self.checkpoint_bytes = sum(
            p.stat().st_size for p in self.work_dir.glob(f"round{r}*.npz")
        )
        self.attempted += 1
        gc.collect()
        t0 = self.probe.start()
        restored = SchedulerDaemon.restore(path, self.scn.space)
        await restored.start()
        interval = self.probe.stop(t0)
        _check(
            restored.snapshot() == live,
            "restored daemon's snapshot differs from the live one",
        )
        await restored.stop()
        return interval

    async def _final_checks(self, daemon) -> None:
        await daemon.drain()
        self._request("check")
        _check(daemon.repairer.check(), "repairer.check() failed")
        stats = daemon.stats()
        live = daemon.snapshot()
        placed = sum(1 for s in live["scheduled"] if s is not None)
        _check(
            placed + len(live["deferred_slots"]) == stats["m"],
            f"placed {placed} + deferred {len(live['deferred_slots'])} "
            f"!= m {stats['m']}",
        )
        _check(
            stats["processed"] == self.events_sent - self.events_failed,
            f"daemon applied {stats['processed']} events, sent "
            f"{self.events_sent} with {self.events_failed} failed",
        )
        # The maintained schedule length the clients read through stats()
        # (the certified merged schedule on the sharded daemon).
        self.maintained_slots = float(np.mean(self.slot_reads))
        self.final_slots = stats["slot_count"]
        self.final_repair = daemon.repairer.stats
        self.merge_displaced = getattr(daemon.repairer, "merge_displaced", 0)
        await daemon.stop()

    def _checkpoint(self, daemon, path) -> None:
        self.attempted += 1
        daemon.checkpoint(path)

    # ------------------------------------------------------------------
    def _schedule(self, check: bool) -> tuple[float, float]:
        """Time a static first-fit over the frozen initial population.

        Returns the first-fit's interval.
        """
        t0 = self.probe.start()
        slots = self.static.first_fit()
        sample = self.probe.stop(t0)
        if not check:
            return sample
        members = np.sort(np.concatenate([np.asarray(s) for s in slots]))
        _check(
            np.array_equal(members, np.arange(self.static.m)),
            "static first-fit slots do not partition the links",
        )
        _check(
            all(self.static.is_feasible(s) for s in slots),
            "a static first-fit slot is infeasible",
        )
        self.metrics["slot_count"] = float(len(slots))
        return sample

    async def _drain_pass(self, daemon, events) -> tuple[float, float]:
        """Submit ``events`` at once and drain them; the interval."""
        t0 = self.probe.start()
        tasks = [asyncio.ensure_future(daemon.submit(ev)) for ev in events]
        # One yield lets every task enqueue, in order, before the drain.
        await asyncio.sleep(0)
        await daemon.drain()
        results = await asyncio.gather(*tasks, return_exceptions=True)
        interval = self.probe.stop(t0)
        bad = sum(isinstance(r, BaseException) for r in results)
        self.events_sent += len(events)
        self.events_failed += bad
        self.attempted += len(events)
        self.failed += bad
        return interval

    async def _open_loop(self, daemon, stream, window, rate) -> dict:
        """Send each event at its due time; time it from due to applied.

        ``window`` is ``(due offsets, measured)``: only the first
        ``measured`` arrivals are reported.  The window runs in reference
        time: its offsets are stretched by the slowdown the last few
        probes read (their median), and its latencies shrunk by the same
        factor, so a slow spell of the machine keeps the load on the
        daemon what it is at reference speed.
        """
        slowdown = self.probe.recent()
        due = window[0] * slowdown
        measured = window[1]
        n = len(due)
        indices = stream.take(n)
        t_sub = np.full(n, np.nan)
        applied = np.full(n, np.nan)
        ids = np.full(n, -1, dtype=np.int64)
        backlog = np.zeros(n, dtype=np.int64)
        # Only in-flight requests are held, so a step keeps no per-event
        # objects alive beyond its own arrays.
        pending: set[asyncio.Task] = set()

        async def request(i: int) -> None:
            t0 = time.perf_counter()
            t_sub[i] = t0
            try:
                result = await daemon.submit(stream.event(indices[i]))
            except ReproError:
                pass  # counted below: a failed event misses the limit
            else:
                applied[i] = t0 + result["latency_s"]
                ids[i] = result["arrived_ids"][0]

        start = time.perf_counter() + 0.002
        for i in range(n):
            delay = start + due[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            task = asyncio.ensure_future(request(i))
            pending.add(task)
            task.add_done_callback(pending.discard)
            backlog[i] = len(pending)
        await asyncio.sleep(0)
        await daemon.drain()
        await asyncio.gather(*pending)
        end = time.perf_counter()
        due_abs = start + np.asarray(due)
        ok = ~np.isnan(applied)
        bad = int(n - ok.sum())
        self.events_sent += n
        self.events_failed += bad
        self.attempted += n
        self.failed += bad
        m = measured
        # The backlog grew if, over the step, it rose by more than one
        # chunk plus the arrivals the latency limit allows to queue.
        q = max(1, m // 4)
        allowed = self.w.batch + rate * self.w.p99_limit_ms / 1e3
        return {
            "latency": np.where(ok, applied - due_abs, np.inf)[:m] / slowdown,
            "growing": bool(
                backlog[m - q:m].mean() - backlog[:q].mean() > allowed
            ),
            "t_sub": t_sub[:m],
            "due": due_abs[:m],
            "ids": ids[:m],
            "backlog_max": int(backlog[:m].max()) if m else 0,
            "window_ns": (int(start * 1e9), int(end * 1e9)),
        }

    def _ladder_report(self, per_rate) -> None:
        """Per ladder rate: the median over its windows of each one's p50/p99.

        A collector pause inflates the tail of the window it lands in;
        the median over windows keeps one such window from deciding a
        step.  (The windows already run in reference time, so a slow
        spell of the machine does not shift them all one way.)
        """
        limit = self.w.p99_limit_ms
        steps = []
        for rate, parts in per_rate.items():
            p50 = statistics.median(
                float(np.percentile(p["latency"], 50)) * 1e3 for p in parts
            )
            p99 = statistics.median(
                float(np.percentile(p["latency"], 99)) * 1e3 for p in parts
            )
            growing = sum(p["growing"] for p in parts) * 2 > len(parts)
            steps.append({
                "rate": rate,
                "windows_p99_ms": [
                    float(np.percentile(p["latency"], 99)) * 1e3
                    for p in parts
                ],
                "n": sum(p["latency"].size for p in parts),
                "p50_ms": p50,
                "p99_ms": p99,
                "passed": bool(
                    p99 <= limit
                    and all(np.isfinite(p["latency"]).all() for p in parts)
                    and not growing
                ),
            })
        ref = next(s for s in steps if s["rate"] == self.w.reference_rate)
        self.metrics["admit_p50_ms"] = ref["p50_ms"]
        self.metrics["admit_p99_ms"] = ref["p99_ms"]
        self.metrics["sustained_eps"] = _crossing(steps, limit)
        self.ladder = steps
        self.reference_parts = per_rate[self.w.reference_rate]

    async def _closed_loop(self, daemon, stream, indices) -> float:
        """Two clients; each waits for its event before the next call.

        Returns the completed client operations, the span of
        ``self.reads`` they added and the loop's interval.
        """
        w = self.w
        it = iter(indices)
        lock = asyncio.Lock()
        ops = 0
        sent = 0
        reads = 0

        def read(fn, *args):
            nonlocal ops, reads
            self._request(f"read:{len(self.reads)}")
            t = time.perf_counter()
            value = fn(*args)
            self.reads.append(time.perf_counter() - t)
            ops += 1
            reads += 1
            return value

        async def client(k: int) -> None:
            nonlocal ops, sent
            while True:
                # The lock orders enqueues and keeps checkpoints quiesced.
                async with lock:
                    i = next(it, None)
                    if i is None:
                        return
                    task = asyncio.ensure_future(
                        daemon.submit(stream.event(i))
                    )
                    await asyncio.sleep(0)
                sent += 1
                if w.batch > 1:
                    # A batching daemon applies a part-filled chunk only
                    # on drain; a waiting client has to flush it.
                    await daemon.drain()
                try:
                    result = await task
                except ReproError:
                    self.failed += 1
                    self.events_failed += 1
                    continue
                ops += 1
                self._closed_done[k] += 1
                done = self._closed_done[k]
                read(daemon.place, result["arrived_ids"][0])
                if done % w.read_every == 0:
                    read(daemon.snapshot)
                    self.slot_reads.append(read(daemon.stats)["slot_count"])
                if done % w.checkpoint_every == 0:
                    async with lock:
                        await daemon.drain()
                        self._request("checkpoint")
                        self._checkpoint(daemon, self.work_dir / "closed.npz")
                        ops += 1

        r0 = len(self.reads)
        t0 = self.probe.start()
        await asyncio.gather(client(0), client(1))
        interval = self.probe.stop(t0)
        self.events_sent += sent
        self.attempted += sent + reads
        return (ops, r0, len(self.reads), *interval)

    # ------------------------------------------------------------------
    def daemon_breakdown(self) -> dict[str, float]:
        """Split the reference rate's latency into its daemon parts.

        Per event: generator lateness (due to sent), linger (sent until
        the event that closed its chunk was sent), queue wait (chunk
        closed until the worker fed it) and service (feed start until
        the chunk's repair ended).  Chunks come from the trace; only
        traced rounds count.
        """
        parts = {"queue_wait": [], "linger": [], "service": [], "lag": []}
        backlog = 0
        for ref in self.reference_parts:
            first, start, end = tracing.chunk_table(
                self.tracer.spans, *ref["window_ns"]
            )
            ok = ref["ids"] >= 0
            if first.size == 0 or not ok.any():
                continue
            ids, t_sub = ref["ids"][ok], ref["t_sub"][ok]
            chunk = np.searchsorted(first, ids, side="right") - 1
            closed = np.zeros(first.size)
            np.maximum.at(closed, chunk, t_sub)
            parts["linger"].append(closed[chunk] - t_sub)
            parts["queue_wait"].append(
                np.maximum(start[chunk] - closed[chunk], 0.0)
            )
            parts["service"].append(end[chunk] - start[chunk])
            parts["lag"].append(ref["t_sub"] - ref["due"])
            backlog = max(backlog, ref["backlog_max"])
        m = {}
        for name in ("queue_wait", "linger", "service"):
            values = np.concatenate(parts[name]) if parts[name] else []
            m[f"daemon.{name}_ms.p50"], m[f"daemon.{name}_ms.p99"] = (
                _quantiles_ms(values)
            )
        lag = np.concatenate(parts["lag"]) if parts["lag"] else []
        m["daemon.gen_lag_ms.p99"] = _quantiles_ms(lag)[1]
        m["daemon.backlog_max"] = backlog
        return m


def _substrate():
    """The fixed link pool: its decay space and ``(sender, receiver)`` pairs."""
    pool = build_scenario(
        SUBSTRATE, n_links=POOL_FACTOR * N_LINKS, seed=SUBSTRATE_SEED
    )
    return pool.space, list(
        zip(pool.senders.tolist(), pool.receivers.tolist())
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

