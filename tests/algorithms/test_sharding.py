"""Sharded scheduling: layout exactness, merge certification, routing.

Three oracles pin the shard-by-cell stack
(:mod:`repro.algorithms.sharding`):

* **shards=1 byte-identity** — one shard is the unsharded path, slot for
  slot, both statically and across whole churn traces (the merge is the
  identity and certification is skipped);
* **per-slot exactness** — for k >= 2 every merged slot must pass the
  exact certified feasibility rule on a *from-scratch* context over the
  surviving links after every single churn event, and dense feasibility
  within the certified per-link tails.  (A complete pattern — where the
  sparse sums are bytewise the dense ones — forces the interaction
  radius past the instance diameter, which collapses the cell grid to a
  single shard; so the multi-shard suites necessarily run on thresholded
  patterns, where the certified rule *is* the backend's exactness
  contract and the dense gap is bounded by the stored tails.);
* **brute-force halos** — the layout's halo sets are recomputed from raw
  pairwise endpoint distances against the certified interaction radius,
  with no cell index involved.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.context import SchedulingContext
from repro.algorithms.repair import (
    CapacityRepairScheduler,
    OnlineRepairScheduler,
)
from repro.algorithms.sharding import (
    ShardedContext,
    ShardedRepairScheduler,
    build_shard_layout,
)
from repro.core.affectance import in_affectances_within
from repro.distributed.stability import run_queue_simulation
from repro.dynamics import ChurnDriver
from repro.errors import LinkError, SimulationError
from repro.scenarios import build_dynamic_scenario, build_scenario
from tests.algorithms.repair_helpers import fresh_context
from tests.conftest import CHURN_EXAMPLES

pytestmark = pytest.mark.shards

#: Substrates the sharded sweeps run over: geometric and hotspot-dense
#: (both carry the node positions the sparse backend needs).
SHARD_SCENARIOS = ("planar_uniform", "clustered")


def _sparse_ctx(scenario="planar_uniform", n_links=24, seed=4, eps=1e-3):
    """A sparse-backend context; the default eps yields a complete
    pattern at this size, making sparse sums the dense floats."""
    links = build_scenario(scenario, n_links=n_links, seed=seed)
    return SchedulingContext(links, backend="sparse", eps=eps)


def _assert_partition_of(slots, m):
    """The slots are a partition of links 0..m-1."""
    flat = sorted(v for s in slots for v in s)
    assert flat == list(range(m))


class TestShardLayout:
    def test_owner_is_receiver_cell_shard(self):
        ctx = _sparse_ctx(n_links=30)
        layout = build_shard_layout(ctx, shards=3)
        geo = ctx.links.space.geometry
        expected = layout.partition.shard_of_points(
            geo.points[ctx.links.receivers]
        )
        assert np.array_equal(layout.owner, expected)
        # Interiors partition the links by owner; halos never overlap
        # their own interior.
        seen = np.zeros(ctx.m, dtype=bool)
        for k in range(layout.n_shards):
            assert np.array_equal(
                layout.interior[k], np.flatnonzero(layout.owner == k)
            )
            assert not np.intersect1d(
                layout.interior[k], layout.halo[k]
            ).size
            seen[layout.interior[k]] = True
        assert seen.all()

    @pytest.mark.parametrize(
        "n_links,eps", ((20, 1e-3), (48, 0.4), (96, 0.5))
    )
    def test_halo_matches_bruteforce_pairwise_radii(self, n_links, eps):
        """halo(k) recomputed from raw endpoint distances vs the
        certified radius — no cell index, no CSR."""
        ctx = _sparse_ctx(n_links=n_links, eps=eps)
        layout = build_shard_layout(ctx, shards=3)
        links = ctx.links
        pts = links.space.geometry.points
        spts, rpts = pts[links.senders], pts[links.receivers]
        # Stored pattern criterion: (w, v) kept iff d(s_w, r_v) <= R.
        d = np.linalg.norm(spts[:, None, :] - rpts[None, :, :], axis=-1)
        stored = d <= layout.radius
        np.fill_diagonal(stored, False)
        owner = layout.owner
        for k in range(layout.n_shards):
            with_k = stored[:, owner == k].any(axis=1) | stored[
                owner == k, :
            ].any(axis=0)
            expected = np.flatnonzero(with_k & (owner != k))
            assert np.array_equal(layout.halo[k], expected)

    def test_target_links_per_shard_sizing(self):
        ctx = _sparse_ctx(n_links=96, eps=0.5)
        layout = build_shard_layout(ctx, target_links_per_shard=30)
        assert layout.n_shards >= 2
        # The greedy cut accumulates at least the target before opening
        # a new shard, so every shard but the last carries >= 30 links.
        for k in range(layout.n_shards - 1):
            assert layout.interior[k].size >= 30

    def test_single_shard_owns_everything(self):
        ctx = _sparse_ctx()
        layout = build_shard_layout(ctx, shards=1)
        assert layout.n_shards == 1
        assert np.array_equal(layout.interior[0], np.arange(ctx.m))
        assert layout.halo[0].size == 0

    def test_rejects_dense_backend(self):
        links = build_scenario("planar_uniform", n_links=10, seed=1)
        ctx = SchedulingContext(links)
        with pytest.raises(LinkError, match="sparse"):
            build_shard_layout(ctx, shards=2)
        with pytest.raises(LinkError, match="sparse"):
            ShardedContext(ctx, shards=2)

    def test_rejects_ambiguous_sizing(self):
        ctx = _sparse_ctx()
        with pytest.raises(LinkError, match="exactly one"):
            build_shard_layout(ctx)
        with pytest.raises(LinkError, match="exactly one"):
            build_shard_layout(ctx, shards=2, target_links_per_shard=5)
        layout = build_shard_layout(ctx, shards=2)
        with pytest.raises(LinkError, match="not both"):
            ShardedContext(ctx, shards=2, layout=layout)


class TestShardedStatic:
    @pytest.mark.parametrize("scenario", SHARD_SCENARIOS)
    def test_single_shard_first_fit_byte_identity(self, scenario):
        ctx = _sparse_ctx(scenario, n_links=28, eps=0.3)
        sharded = ShardedContext(ctx, shards=1)
        assert sharded.first_fit() == ctx.first_fit()
        assert sharded.last_displaced == 0

    @pytest.mark.parametrize("scenario", SHARD_SCENARIOS)
    def test_single_shard_capacity_byte_identity(self, scenario):
        ctx = _sparse_ctx(scenario, n_links=28, eps=0.3)
        sharded = ShardedContext(ctx, shards=1)
        assert sharded.repeated_capacity() == ctx.repeated_capacity(
            admission="adaptive"
        )

    #: Instances whose cell grids genuinely split under the certified
    #: radius (the realized shard counts are asserted below): small-eps
    #: builds complete the pattern, which forces radius >= diameter and
    #: collapses every link into one cell — so multi-shard merges can
    #: only be exercised on thresholded patterns.
    MULTI_SHARD = (
        ("planar_uniform", 2, 48, 0.4),
        ("planar_uniform", 4, 96, 0.5),
        ("clustered", 2, 48, 0.4),
        ("clustered", 4, 64, 0.5),
    )

    @staticmethod
    def _assert_two_part_oracle(ctx, slots):
        """Merged slots pass the exact certified rule on the stored
        entries AND dense feasibility within the certified tails."""
        sp = ctx.sparse_affectance
        dense = SchedulingContext(ctx.links)
        a = dense.raw_affectance
        for slot in slots:
            idx = list(slot)
            assert np.all(in_affectances_within(sp.raw, idx) <= 1.0)
            # Dense in-affectance exceeds the stored sum by at most the
            # certified dropped in-mass of each member.
            bound = 1.0 + sp.tail_in[idx] + 1e-9
            assert np.all(in_affectances_within(a, idx) <= bound)

    @pytest.mark.parametrize("scenario,k,n,eps", MULTI_SHARD)
    def test_merged_first_fit_slots_exactly_feasible(
        self, scenario, k, n, eps
    ):
        ctx = _sparse_ctx(scenario, n_links=n, eps=eps)
        sharded = ShardedContext(ctx, shards=k)
        assert sharded.n_shards >= 2  # vacuous otherwise
        assert not ctx.sparse_affectance.complete
        slots = sharded.first_fit()
        _assert_partition_of(slots, ctx.m)
        self._assert_two_part_oracle(ctx, slots)

    @pytest.mark.parametrize("scenario,k,n,eps", MULTI_SHARD)
    def test_merged_capacity_slots_exactly_feasible(
        self, scenario, k, n, eps
    ):
        ctx = _sparse_ctx(scenario, n_links=n, eps=eps)
        sharded = ShardedContext(ctx, shards=k)
        assert sharded.n_shards >= 2
        slots = sharded.repeated_capacity()
        _assert_partition_of(slots, ctx.m)
        self._assert_two_part_oracle(ctx, slots)

    def test_certified_feasibility_on_truly_sparse_pattern(self):
        """At loose eps the pattern is thresholded: merged slots must
        still pass the certified rule on the stored entries."""
        ctx = _sparse_ctx(n_links=60, eps=0.5)
        sp = ctx.sparse_affectance
        assert not sp.complete  # the test is vacuous otherwise
        sharded = ShardedContext(ctx, shards=3)
        slots = sharded.first_fit()
        _assert_partition_of(slots, ctx.m)
        for slot in slots:
            assert np.all(
                in_affectances_within(sp.raw, list(slot)) <= 1.0
            )

    def test_sequential_matches_threaded(self):
        """max_workers=1 (serial loop) and the thread pool agree."""
        ctx = _sparse_ctx(n_links=32)
        serial = ShardedContext(ctx, shards=3, max_workers=1)
        threaded = ShardedContext(ctx, shards=3, max_workers=3)
        assert serial.first_fit() == threaded.first_fit()


class TestShardedDynamic:
    def _trace(self, seed, scenario="planar_uniform", n_links=20):
        return build_dynamic_scenario(
            "poisson_churn",
            n_links=n_links,
            seed=seed,
            substrate=scenario,
            horizon=30,
            churn_rate=0.25,
        )

    @pytest.mark.parametrize("kind", ("first_fit", "capacity"))
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_single_shard_trace_byte_identity(self, kind, seed):
        """After every event the merged schedule equals the serial
        repairer's, array for array."""
        scn = self._trace(seed)
        serial_cls = (
            CapacityRepairScheduler
            if kind == "capacity"
            else OnlineRepairScheduler
        )
        ctx = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=1e-3
        )
        dyn = ctx.dynamic()
        driver = ChurnDriver(dyn, scn)
        rep = ShardedRepairScheduler(
            dyn, build_shard_layout(ctx, shards=1), kind=kind
        )
        dyn2 = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=1e-3
        ).dynamic()
        driver2 = ChurnDriver(dyn2, scn)
        rep2 = serial_cls(dyn2)
        for ev in scn.events:
            rep.apply(*driver.step(ev.slot))
            rep2.apply(*driver2.step(ev.slot))
            got = [s.tolist() for s in rep.active_schedule]
            want = [s.tolist() for s in rep2.active_schedule]
            assert got == want

    @pytest.mark.parametrize("k", (2, 4))
    @pytest.mark.parametrize("scenario", SHARD_SCENARIOS)
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_merged_schedule_exact_after_every_event(
        self, scenario, k, seed
    ):
        """k-shard repair: after *every* churn event the merged slots
        pass the exact certified rule on a *from-scratch* sparse context
        at the pinned radius, stay dense-feasible within its certified
        tails, and cover exactly the undeferred active links."""
        scn = self._trace(seed, scenario, n_links=48)
        ctx = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=0.5
        )
        sharded = ShardedContext(ctx, shards=k)
        assume(sharded.n_shards >= 2)  # vacuous as a merge test otherwise
        dyn = ctx.dynamic()
        driver = ChurnDriver(dyn, scn)
        rep = ShardedRepairScheduler(dyn, sharded.layout, kind="first_fit")
        for ev in scn.events:
            rep.apply(*driver.step(ev.slot))
            fresh, remap = fresh_context(dyn)
            fsp = SchedulingContext(
                fresh.links,
                fresh.powers,
                noise=fresh.noise,
                beta=fresh.beta,
                backend="sparse",
                eps=0.5,
                radius=dyn.radius,
            ).sparse_affectance
            a = fresh.raw_affectance
            for slot in rep.active_schedule:
                idx = [remap[int(v)] for v in slot]
                assert np.all(
                    in_affectances_within(fsp.raw, idx) <= 1.0
                )
                bound = 1.0 + fsp.tail_in[idx] + 1e-9
                assert np.all(in_affectances_within(a, idx) <= bound)
            covered = {
                int(v) for s in rep.active_schedule for v in s
            } | set(rep.deferred)
            assert covered == set(map(int, dyn.active_slots))

    def test_slot_reuse_migrates_universe_across_shards(self):
        """A context slot freed by one shard and reused by an arrival
        owned by another must move between the repairers' universes."""
        ctx = _sparse_ctx(n_links=32, eps=0.3)
        layout = build_shard_layout(ctx, shards=2)
        assert layout.n_shards == 2
        dyn = ctx.dynamic()
        rep = ShardedRepairScheduler(dyn, layout, kind="first_fit")
        # Depart a shard-0 interior link, then arrive a link whose
        # receiver cell is owned by shard 1: the context reuses the
        # freed slot (lowest free slot first is not guaranteed here, so
        # read the assigned slot back).
        victim = int(layout.interior[0][0])
        other = int(layout.interior[1][0])
        pair = (
            int(ctx.links.senders[other]),
            int(ctx.links.receivers[other]),
        )
        dyn.remove_links([victim])
        rep.apply([], [victim])
        [slot] = dyn.add_links([pair])
        rep.apply([slot], [])
        # Routed by the receiver cell, read off the layout's partition.
        point = ctx.links.space.geometry.points[[pair[1]]]
        assert int(layout.partition.shard_of_points(point)[0]) == 1
        assert int(rep._home[slot]) == 1
        assert slot in (rep.repairers[1].universe or ())
        if slot == victim:
            assert slot not in (rep.repairers[0].universe or ())
        assert rep.check()

    @pytest.mark.parametrize("k", (2, 4))
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_home_is_receiver_cell_shard_after_every_event(self, k, seed):
        """The coordinator's routing table needs no second copy: after
        every event each active slot's home is the layout partition's
        shard of its receiver point, and that shard's repairer holds the
        slot in its universe."""
        scn = self._trace(seed, n_links=48)
        ctx = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=0.5
        )
        layout = build_shard_layout(ctx, shards=k)
        assume(layout.n_shards >= 2)
        dyn = ctx.dynamic()
        driver = ChurnDriver(dyn, scn)
        rep = ShardedRepairScheduler(dyn, layout, kind="first_fit")
        points = dyn.space.geometry.points

        def check_routing():
            act = dyn.active_slots
            want = layout.partition.shard_of_points(
                points[dyn.receivers[act]]
            )
            assert np.array_equal(rep._home[act], want)
            for s, home in zip(act.tolist(), want.tolist()):
                assert s in rep.repairers[home].universe

        check_routing()
        for ev in scn.events:
            departed, arrived = driver.feed(ev)
            rep.apply(arrived, departed)
            check_routing()

    def test_rejects_layout_larger_than_context(self):
        big = _sparse_ctx(n_links=32, eps=0.3)
        small = _sparse_ctx(n_links=8, eps=0.3)
        layout = build_shard_layout(big, shards=2)
        with pytest.raises(LinkError, match="layout covers 32 links"):
            ShardedRepairScheduler(small.dynamic(), layout)

    def test_stats_aggregate_and_trajectory(self):
        scn = self._trace(9)
        ctx = SchedulingContext(
            scn.initial_links(), backend="sparse", eps=1e-3
        )
        dyn = ctx.dynamic()
        driver = ChurnDriver(dyn, scn)
        rep = ShardedRepairScheduler(
            dyn, build_shard_layout(ctx, shards=2), kind="first_fit"
        )
        events = 0
        for ev in scn.events:
            rep.apply(*driver.step(ev.slot))
            events += 1
        assert rep.stats.events == events
        assert len(rep.slot_trajectory) == events + 1
        assert rep.competitive_ratio() >= 0.5


class TestCellIndexReuse:
    def test_dynamic_and_partition_share_geometry_node_index(self):
        """Regression (PR 9 satellite): the sparse dynamic context and
        the shard partition must reuse the geometry's cached node index
        instead of each building their own."""
        ctx = _sparse_ctx(n_links=20)
        radius = ctx.sparse_affectance.radius
        geo = ctx.links.space.geometry
        dyn = ctx.dynamic()
        pair = (
            int(ctx.links.senders[0]),
            int(ctx.links.receivers[1]),
        )
        dyn.add_links([pair])  # triggers the node-index build
        layout = build_shard_layout(ctx, shards=2)
        index = geo.node_index(radius)
        assert dyn._node_index is index
        assert layout.partition.index is index


class TestSimulationWiring:
    def _scn(self):
        return build_dynamic_scenario(
            "poisson_churn",
            n_links=24,
            seed=5,
            substrate="planar_uniform",
            horizon=40,
            churn_rate=0.2,
        )

    def test_shards_one_matches_unsharded_run(self):
        scn = self._scn()
        links = scn.initial_links()
        ctx = SchedulingContext(links, backend="sparse", eps=1e-3)
        kw = dict(
            context=ctx, churn=scn, scheduler="repair", seed=11
        )
        sharded = run_queue_simulation(links, 0.1, 80, shards=1, **kw)
        plain = run_queue_simulation(links, 0.1, 80, **kw)
        assert sharded.delivered == plain.delivered
        assert sharded.schedule_slots == plain.schedule_slots
        assert np.array_equal(sharded.final_queues, plain.final_queues)

    @pytest.mark.parametrize(
        "scheduler", ("repair", "capacity_repair")
    )
    def test_sharded_run_delivers(self, scheduler):
        scn = self._scn()
        links = scn.initial_links()
        ctx = SchedulingContext(links, backend="sparse", eps=1e-3)
        res = run_queue_simulation(
            links, 0.1, 80, context=ctx, churn=scn,
            scheduler=scheduler, seed=11, shards=2,
        )
        assert res.schedule_slots >= 1
        assert res.repair_ratio >= 0.5

    def test_prebuilt_sharded_context_adopted(self):
        scn = self._scn()
        links = scn.initial_links()
        ctx = SchedulingContext(links, backend="sparse", eps=1e-3)
        sharded = ShardedContext(ctx, shards=2)
        res = run_queue_simulation(
            links, 0.1, 40, churn=scn, scheduler="repair", seed=3,
            shards=sharded,
        )
        assert res.schedule_slots >= 1

    def test_rejects_non_repair_schedulers(self):
        scn = self._scn()
        links = scn.initial_links()
        ctx = SchedulingContext(links, backend="sparse", eps=1e-3)
        for scheduler in ("policy", "rebuild", "capacity_rebuild"):
            with pytest.raises(SimulationError, match="shards"):
                run_queue_simulation(
                    links, 0.1, 10, context=ctx, churn=scn,
                    scheduler=scheduler, shards=2,
                )

    def test_rejects_dense_context(self):
        scn = self._scn()
        links = scn.initial_links()
        with pytest.raises(SimulationError, match="sparse"):
            run_queue_simulation(
                links, 0.1, 10, churn=scn, scheduler="repair", shards=2
            )
