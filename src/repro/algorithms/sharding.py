"""Shard-by-cell scheduling: per-cell shard contexts with halo links.

The sparse backend (PR 6) made the *matrices* scale to m=10^5; this
module makes the *schedulers* scale, by cutting the link universe into
spatial shards and running the scheduling and repair kernels per shard,
in parallel, against link-subset views.

The decomposition rides entirely on the certified interaction radius
``R`` of the thresholded affectance pattern: two links interact (hold a
stored affectance entry, in either direction) only when
``d(sender, receiver) <= R``.  Grouping the *cells* of the pattern's own
:class:`~repro.geometry.cells.CellIndex` into contiguous shards
(:meth:`CellIndex.partition <repro.geometry.cells.CellIndex.partition>`)
therefore classifies every link exactly:

* a link is **owned** by the shard of its receiver's cell;
* a link is **interior** to its owning shard;
* a link is in the **halo** of shard ``k`` when it is owned elsewhere
  but holds a stored pair with some link owned by ``k``.

No new certificates are needed — the halo is read off the pattern's own
triplets, so a link outside ``interior(k) + halo(k)`` provably
contributes at most the already-certified tail mass to any member of
``k``.

Two coordination layers share that layout:

:class:`ShardedContext`
    The static side.  One :class:`~repro.algorithms.context
    .SchedulingContext` per shard over ``links.subset(interior + halo)``,
    with its CSR pattern *sliced* from the global one (identical floats,
    identical certificate semantics — the subset's dropped mass is a
    subset of the globally certified tails), scheduled concurrently via
    a thread pool (the kernels spend their time in numpy, which releases
    the GIL), restricted to interior links via the ``active=`` subset
    views grown for this purpose.  Per-shard slots are merged by slot
    index and every merged slot is **re-certified**: members are
    re-admitted in the paper's precedence order under the exact
    feasibility rule (plus the Algorithm-1 threshold in capacity mode),
    and the displaced minority is re-placed first-fit.  With one shard
    the merge is the identity and certification is skipped — the output
    is byte-identical to the unsharded context, which the test suite
    pins.

:class:`ShardedRepairScheduler`
    The dynamic side.  Churn is absorbed once, by a single shared
    :class:`~repro.algorithms.context.DynamicContext` (adjacency updates
    are O(degree) and already cheap); what sharding buys is the *repair*
    work: one repair scheduler per shard, restricted to its interior
    links through the ``universe=`` subset view, so every placement
    probe scans slots that are ~k times smaller, and independent shards
    repair concurrently.  The coordinator takes the plain shared context
    and the :class:`ShardLayout`; a :class:`~repro.dynamics.ChurnDriver`
    drives that context exactly as in the serial case, and each arrival
    is routed to the shard of its receiver's cell, read off the layout's
    partition when the batch is applied.  The merged, certified global
    schedule is materialized lazily and cached between events.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.algorithms.context import (
    DynamicContext,
    Schedule,
    SchedulingContext,
    combined_affectance_within,
    slot_admission_sums,
)
from repro.algorithms.repair import (
    CapacityRepairScheduler,
    OnlineRepairScheduler,
    RepairStats,
)
from repro.core.affectance import in_affectances_within
from repro.core.affectance_sparse import (
    SparseAffectance,
    SparseLinkDistances,
    affectance_view,
)
from repro.errors import LinkError

__all__ = [
    "ShardLayout",
    "ShardedContext",
    "ShardedRepairScheduler",
    "build_shard_layout",
]

#: Algorithm-1 admission threshold, mirrored from ``repeated_capacity``:
#: a merged slot in capacity mode keeps the same per-member guarantee.
_CAPACITY_THRESHOLD = 0.5


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class ShardLayout:
    """A shard decomposition of a link universe, derived from its pattern.

    ``owner[v]`` is the shard of link ``v``'s receiver cell;
    ``interior[k]`` / ``halo[k]`` are sorted link-index arrays.  The halo
    is exact with respect to the stored pattern: a link appears in
    ``halo[k]`` iff it is owned elsewhere and holds a stored affectance
    pair (either orientation) with some link owned by ``k``.
    """

    partition: object  # CellPartition; typed loosely to avoid a cycle
    radius: float
    owner: np.ndarray
    interior: tuple[np.ndarray, ...]
    halo: tuple[np.ndarray, ...]

    @property
    def n_shards(self) -> int:
        """Number of shards in the partition."""
        return len(self.interior)

    @property
    def m(self) -> int:
        """Number of links the layout covers."""
        return int(self.owner.size)

    def members(self, k: int) -> np.ndarray:
        """Sorted link ids shard ``k`` schedules against: interior + halo."""
        return np.union1d(self.interior[k], self.halo[k])


def build_shard_layout(
    context: SchedulingContext,
    *,
    shards: int | None = None,
    target_links_per_shard: int | None = None,
) -> ShardLayout:
    """Partition a sparse context's links into cell shards with halos.

    Exactly one of ``shards`` (a shard-count target) and
    ``target_links_per_shard`` must be given.  The partition reuses the
    geometry's cached node index at the certified interaction radius —
    the same index the dynamic context maintains its pattern with — and
    weights cells by how many links *receive* there, so shards balance
    scheduling work rather than raw node counts.  The greedy cut
    guarantees at most ``shards`` weight-bearing shards; the realised
    count is ``layout.n_shards``.
    """
    if (shards is None) == (target_links_per_shard is None):
        raise LinkError(
            "pass exactly one of shards= and target_links_per_shard="
        )
    if context.backend != "sparse":
        raise LinkError(
            "sharding rides on the certified interaction radius; build "
            "the context with backend='sparse'"
        )
    links = context.links
    m = links.m
    if shards is not None:
        if int(shards) < 1:
            raise LinkError(f"shards must be >= 1, got {shards}")
        target = m / int(shards)
    else:
        if int(target_links_per_shard) < 1:
            raise LinkError(
                f"target_links_per_shard must be >= 1, "
                f"got {target_links_per_shard}"
            )
        target = float(target_links_per_shard)
    sp = context.sparse_affectance
    geo = links.space.geometry
    node_index = geo.node_index(sp.radius)
    weights = np.bincount(
        links.receivers, minlength=geo.points.shape[0]
    ).astype(float)
    partition = node_index.partition(max(target, 1.0), weights=weights)
    owner = partition.shard_of_points(geo.points[links.receivers])
    rows, cols, _ = sp.triplets()
    ow, ov = owner[rows], owner[cols]
    cross = ow != ov
    rows_x, cols_x = rows[cross], cols[cross]
    ow_x, ov_x = ow[cross], ov[cross]
    interior: list[np.ndarray] = []
    halo: list[np.ndarray] = []
    for k in range(partition.n_shards):
        interior.append(np.flatnonzero(owner == k))
        halo.append(
            np.unique(
                np.concatenate([rows_x[ov_x == k], cols_x[ow_x == k]])
            )
        )
    return ShardLayout(
        partition=partition,
        radius=float(sp.radius),
        owner=owner,
        interior=tuple(interior),
        halo=tuple(halo),
    )


# ----------------------------------------------------------------------
# Pattern slicing
# ----------------------------------------------------------------------
def _slice_sparse(
    sp: SparseAffectance,
    ids: np.ndarray,
    triplets: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> SparseAffectance:
    """The pattern restricted to ``ids`` (sorted), reindexed to 0..n-1.

    Affectance values are pair-local, so the sliced entries are the
    global floats verbatim.  The inherited per-link tails stay sound:
    pairs inside the subset but outside the pattern were dropped by the
    global build too, so their mass is dominated by the same bounds.
    ``triplets`` lets callers slicing many shards share one
    ``sp.triplets()`` materialization (the arrays are only read).
    """
    rows, cols, vals = triplets if triplets is not None else sp.triplets()
    inset = np.zeros(sp.m, dtype=bool)
    inset[ids] = True
    keep = inset[rows] & inset[cols]
    return SparseAffectance(
        ids.size,
        np.searchsorted(ids, rows[keep]),
        np.searchsorted(ids, cols[keep]),
        vals[keep],
        eps=sp.eps,
        radius=sp.radius,
        cell_size=sp.cell_size,
        tail_in=sp.tail_in[ids],
        tail_out=sp.tail_out[ids],
    )


def _slice_distances(
    sd: SparseLinkDistances, ids: np.ndarray
) -> SparseLinkDistances:
    """The link quasi-distances restricted to ``ids``, reindexed."""
    cols = np.repeat(np.arange(sd.m, dtype=np.int64), np.diff(sd.ptr))
    rows = sd.idx
    inset = np.zeros(sd.m, dtype=bool)
    inset[ids] = True
    keep = inset[rows] & inset[cols]
    return SparseLinkDistances(
        ids.size,
        np.searchsorted(ids, rows[keep]),
        np.searchsorted(ids, cols[keep]),
        sd.val[keep],
        sd.qlen[ids],
        sd.radius,
    )


# ----------------------------------------------------------------------
# Halo-aware slot merging
# ----------------------------------------------------------------------
def _merged_by_index(
    slots_by_shard: Sequence[Sequence[np.ndarray | Sequence[int]]],
) -> list[list[int]]:
    """Align per-shard schedules by slot index and concatenate members."""
    depth = max((len(s) for s in slots_by_shard), default=0)
    merged: list[list[int]] = []
    for j in range(depth):
        cur: list[int] = []
        for shard_slots in slots_by_shard:
            if j < len(shard_slots):
                cur.extend(int(v) for v in shard_slots[j])
        if cur:
            merged.append(cur)
    return merged


def _certify_merge(
    a,
    size: int,
    lengths: np.ndarray,
    merged: list[list[int]],
    *,
    clip=None,
    threshold: float | None = None,
) -> tuple[list[list[int]], int]:
    """Re-certify merged slots; first-fit the displaced remainder.

    Each merged slot must satisfy the exact feasibility rule — every
    member's in-affectance from its slot at most 1 — plus, when
    ``threshold`` is given, the Algorithm-1 clipped in+out admission
    bound per member.  Both quantities are monotone in the member set
    (affectance is non-negative), which yields a vectorized certification:
    one block-sum over the slot checks everyone at once, and when a slot
    fails, evicting its lowest-precedence violator can only lower the
    remaining members' loads, so repeating check-and-evict converges to
    a certified sub-slot without ever re-admitting member by member.
    Evicted links are re-placed first-fit over the certified slots (same
    admission rule), opening fresh slots only when every one rejects
    them, so the output is a partition of exactly the input links into
    certified slots.

    Returns the certified slots (members sorted) and how many links the
    certification displaced from their shard-assigned slot.
    """
    a = affectance_view(a)
    if clip is not None:
        clip = affectance_view(clip)
    bufs: list[np.ndarray] = []
    sizes: list[int] = []
    # Per-slot running in-affectance over the full universe; built
    # lazily (``None``) for fast-path slots, which only need it if the
    # leftover pass later probes them.
    sums: list[np.ndarray | None] = []

    def _ensure_sums(t: int) -> np.ndarray:
        if sums[t] is None:
            fresh = np.zeros(size)
            for u in bufs[t][: sizes[t]]:
                a.add_row_to(fresh, int(u))
            sums[t] = fresh
        return sums[t]

    def _fits(t: int, v: int) -> bool:
        in_aff = _ensure_sums(t)
        if in_aff[v] > 1.0:
            return False
        mem = bufs[t][: sizes[t]]
        if np.any(in_aff[mem] + a.gather_row(v, mem) > 1.0):
            return False
        if threshold is not None:
            if combined_affectance_within(clip, mem, v) > threshold:
                return False
        return True

    def _admit(t: int, v: int) -> None:
        if sizes[t] == bufs[t].size:
            grown = np.empty(2 * bufs[t].size, dtype=np.int64)
            grown[: sizes[t]] = bufs[t][: sizes[t]]
            bufs[t] = grown
        bufs[t][sizes[t]] = v
        sizes[t] += 1
        a.add_row_to(sums[t], v)

    def _open(v: int) -> None:
        buf = np.empty(4, dtype=np.int64)
        buf[0] = v
        bufs.append(buf)
        sizes.append(1)
        fresh = np.zeros(size)
        a.add_row_to(fresh, v)
        sums.append(fresh)

    def _precedence(members: Sequence[int]) -> np.ndarray:
        arr = np.asarray(members, dtype=int)
        return arr[np.lexsort((arr, lengths[arr]))]

    leftovers: list[int] = []
    for slot in merged:
        kept = _precedence(slot)
        # Check-and-evict with incrementally maintained per-member sums:
        # the full-slot pass is O(nnz of the slot) and runs once per
        # outer round, each eviction only subtracts the dropped member's
        # row (and column, under the threshold rule) — O(degree).  The
        # incremental sums can drift by ulps from a fresh block sum, so
        # once the inner loop is clean the outer round recomputes from
        # scratch and only a fully fresh all-clear certifies the slot.
        while kept.size:
            in_aff = in_affectances_within(a, kept)
            adm = (
                slot_admission_sums(clip, kept)
                if threshold is not None
                else None
            )
            bad = in_aff > 1.0
            if threshold is not None:
                bad |= adm > threshold
            if not bad.any():
                break
            while bad.any() and kept.size:
                drop = int(np.flatnonzero(bad)[-1])
                u = int(kept[drop])
                leftovers.append(u)
                kept = np.delete(kept, drop)
                in_aff = np.delete(in_aff, drop)
                in_aff -= a.gather_row(u, kept)
                bad = in_aff > 1.0
                if threshold is not None:
                    adm = np.delete(adm, drop)
                    adm -= clip.gather_row(u, kept)
                    adm -= clip.gather_col(kept, u)
                    bad |= adm > threshold
        if kept.size:
            bufs.append(kept.astype(np.int64))
            sizes.append(kept.size)
            sums.append(None)
    displaced = len(leftovers)
    if leftovers:
        for v in _precedence(leftovers):
            v = int(v)
            for t in range(len(bufs)):
                if _fits(t, v):
                    _admit(t, v)
                    break
            else:
                _open(v)
    return (
        [sorted(int(u) for u in bufs[t][: sizes[t]]) for t in range(len(bufs))],
        displaced,
    )


def _resolve_workers(n_shards: int, max_workers: int | None) -> int:
    if max_workers is not None:
        if int(max_workers) < 1:
            raise LinkError(f"max_workers must be >= 1, got {max_workers}")
        return int(max_workers)
    return max(1, min(n_shards, os.cpu_count() or 1))


def _fanout(
    fn: Callable[[int], object], keys: Sequence[int], workers: int
) -> dict[int, object]:
    """Run ``fn`` over ``keys`` — threaded when there is real fan-out."""
    if len(keys) <= 1 or workers <= 1:
        return {k: fn(k) for k in keys}
    with ThreadPoolExecutor(max_workers=min(workers, len(keys))) as ex:
        futures = {k: ex.submit(fn, k) for k in keys}
        return {k: f.result() for k, f in futures.items()}


# ----------------------------------------------------------------------
# Static sharded scheduling
# ----------------------------------------------------------------------
class ShardedContext:
    """Per-shard scheduling contexts behind a thin merge coordinator.

    Parameters
    ----------
    context:
        The global sparse-backend :class:`SchedulingContext`.  Its CSR
        pattern is sliced into the shard contexts — never rebuilt — so
        constructing the sharded view costs O(nnz) per shard, not a
        pattern search.
    shards, target_links_per_shard:
        Shard sizing, forwarded to :func:`build_shard_layout`.  Mutually
        exclusive with ``layout``.
    layout:
        A prebuilt :class:`ShardLayout` (e.g. loaded via
        :func:`repro.io.load_shard_layout`) to reuse instead of
        partitioning afresh.
    max_workers:
        Thread-pool width for the per-shard kernels (default: one per
        shard, capped at the CPU count).

    ``first_fit`` and ``repeated_capacity`` mirror the unsharded
    methods: each shard schedules its *interior* links against its
    interior+halo subset context, the per-shard schedules are aligned by
    slot index, and every merged slot is re-certified
    (:func:`_certify_merge`).  With one shard the output is
    byte-identical to the unsharded context.
    """

    def __init__(
        self,
        context: SchedulingContext,
        *,
        shards: int | None = None,
        target_links_per_shard: int | None = None,
        layout: ShardLayout | None = None,
        max_workers: int | None = None,
    ) -> None:
        if context.backend != "sparse":
            raise LinkError(
                "ShardedContext needs the sparse backend; build the "
                "context with backend='sparse'"
            )
        if layout is None:
            layout = build_shard_layout(
                context,
                shards=shards,
                target_links_per_shard=target_links_per_shard,
            )
        elif shards is not None or target_links_per_shard is not None:
            raise LinkError(
                "pass either a prebuilt layout or a shard target, not both"
            )
        if layout.m != context.m:
            raise LinkError(
                f"layout covers {layout.m} links, the context holds "
                f"{context.m}"
            )
        self.context = context
        self.layout = layout
        self.max_workers = _resolve_workers(layout.n_shards, max_workers)
        #: Links displaced from their shard-assigned slot by the last
        #: merge certification (0 for single-shard runs).
        self.last_displaced = 0
        sp = context.sparse_affectance
        triplets = sp.triplets()
        self._ids: list[np.ndarray] = []
        self._ctxs: list[SchedulingContext | None] = []
        self._interior_pos: list[np.ndarray] = []
        for k in range(layout.n_shards):
            ids = layout.members(k)
            self._ids.append(ids)
            if ids.size == 0:
                # A shard whose cells hold no receivers (and no halo):
                # nothing to schedule, nothing to slice.
                self._ctxs.append(None)
                self._interior_pos.append(np.empty(0, dtype=int))
                continue
            sub = SchedulingContext(
                context.links.subset(ids),
                context.powers[ids],
                noise=context.noise,
                beta=context.beta,
                backend="sparse",
                eps=context.eps,
                radius=sp.radius,
            )
            sub._cache["sparse"] = _slice_sparse(sp, ids, triplets)
            self._ctxs.append(sub)
            self._interior_pos.append(np.searchsorted(ids, layout.interior[k]))

    @property
    def n_shards(self) -> int:
        """Number of shards (= ``layout.n_shards``)."""
        return self.layout.n_shards

    # ------------------------------------------------------------------
    def _run_shards(self, fn: Callable[[int], object]) -> list[list[np.ndarray]]:
        """Run a per-shard kernel, mapping local slots to global ids."""
        live = [
            k
            for k in range(self.n_shards)
            if self._ctxs[k] is not None and self._interior_pos[k].size
        ]
        results = _fanout(fn, live, self.max_workers)
        out: list[list[np.ndarray]] = []
        for k in range(self.n_shards):
            if k in results:
                ids = self._ids[k]
                out.append(
                    [ids[np.asarray(slot, dtype=int)] for slot in results[k]]
                )
            else:
                out.append([])
        return out

    def _merge(
        self,
        per_shard: list[list[np.ndarray]],
        *,
        threshold: float | None,
    ) -> tuple[tuple[int, ...], ...]:
        merged = _merged_by_index(per_shard)
        if self.n_shards == 1:
            # The merge is the identity; skipping certification keeps
            # the single-shard output byte-identical to the unsharded
            # path (capacity slots satisfy the threshold only at their
            # own admission time, so re-checking would evict).
            self.last_displaced = 0
            return tuple(tuple(sorted(s)) for s in merged)
        sp = self.context.sparse_affectance
        slots, displaced = _certify_merge(
            sp.raw,
            self.context.m,
            self.context.links.lengths,
            merged,
            clip=sp.clip if threshold is not None else None,
            threshold=threshold,
        )
        self.last_displaced = displaced
        return tuple(tuple(s) for s in slots)

    # ------------------------------------------------------------------
    def first_fit(self) -> tuple[tuple[int, ...], ...]:
        """Sharded first-fit: per-shard interior schedules, certified merge."""
        per_shard = self._run_shards(
            lambda k: self._ctxs[k].first_fit(active=self._interior_pos[k])
        )
        return self._merge(per_shard, threshold=None)

    def repeated_capacity(
        self,
        *,
        admission: str = "adaptive",
        max_slots: int | None = None,
    ) -> tuple[tuple[int, ...], ...]:
        """Sharded capacity peeling; merged slots re-pass the threshold.

        Shared derived state (the space metricity, the sliced
        quasi-distances the separation kernels scan) is seeded serially
        before the fan-out so the worker threads only ever read.
        """
        zeta = self.context.zeta
        for k, sub in enumerate(self._ctxs):
            if sub is None:
                continue
            sub._cache.setdefault("zeta", zeta)
            if admission != "general" and "sparse_dist" not in sub._cache:
                sub._cache["sparse_dist"] = _slice_distances(
                    self.context.sparse_link_distances, self._ids[k]
                )
        per_shard = self._run_shards(
            lambda k: self._ctxs[k].repeated_capacity(
                admission=admission,
                max_slots=max_slots,
                active=self._interior_pos[k],
            )
        )
        return self._merge(per_shard, threshold=_CAPACITY_THRESHOLD)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedContext(m={self.context.m}, "
            f"n_shards={self.n_shards}, workers={self.max_workers})"
        )


# ----------------------------------------------------------------------
# Parallel repair coordinator
# ----------------------------------------------------------------------
class ShardedRepairScheduler:
    """Per-shard repair schedulers behind the repairer interface.

    One :class:`OnlineRepairScheduler` (``kind="first_fit"``) or
    :class:`CapacityRepairScheduler` (``kind="capacity"``) per shard,
    each restricted to its shard's interior links via ``universe=`` over
    the **shared** dynamic context.  Churn events are routed by slot
    ownership (departures to the shard that held the link, arrivals to
    the receiver cell's shard, with universe membership migrated when a
    context slot is reused across shards) and the per-shard repairs of
    one batch run concurrently — each repairer mutates only its own
    state and reads the context's maintained arrays.

    The consumer-facing schedule (:attr:`active_schedule` and friends)
    is the per-shard schedules aligned by slot index and re-certified
    (:func:`_certify_merge`), materialized lazily and cached until the
    next applied event.  With one shard the merge is the identity.

    ``dyn`` is the shared :class:`~repro.algorithms.context
    .DynamicContext` (its slots ``0 .. layout.m-1`` hold the links the
    layout was built over) and ``layout`` the :class:`ShardLayout` that
    assigns them; a churn driver mutates ``dyn`` directly and passes the
    applied slots to :meth:`apply`.
    """

    def __init__(
        self,
        dyn: DynamicContext,
        layout: ShardLayout,
        *,
        kind: str = "first_fit",
        cascade: int = 1,
        rebuild_every: int | None = None,
        max_slots: int | None = None,
        max_evictions: int | None = None,
        admission: str = "adaptive",
        compaction_every: int | None = None,
        max_workers: int | None = None,
        anchor: bool = True,
    ) -> None:
        if kind not in ("first_fit", "capacity"):
            raise LinkError(
                f"unknown repair kind {kind!r}; "
                "expected 'first_fit' or 'capacity'"
            )
        if compaction_every is not None and kind != "capacity":
            # Silently dropping the option would let a caller believe
            # the first-fit shards compact when nothing ever merges.
            raise LinkError(
                "compaction_every only applies to kind='capacity'; "
                "first-fit shard repairers never compact"
            )
        if layout.m > dyn.capacity:
            raise LinkError(
                f"layout covers {layout.m} links, the context only holds "
                f"{dyn.capacity} slots"
            )
        self.dyn = dyn
        self.layout = layout
        self.kind = kind
        self.admission = admission
        self.max_workers = _resolve_workers(layout.n_shards, max_workers)
        #: Links the merge certification displaced from their
        #: shard-assigned slot, cumulative over materializations.
        self.merge_displaced = 0
        self._events = 0
        self._compiled: tuple[np.ndarray, ...] | None = None
        # Which repairer's universe currently holds each context slot
        # (-1: none) — the routing table universe migration keeps in
        # sync when churn reuses slots across shards.
        self._home = np.full(self.dyn.capacity, -1, dtype=np.int64)
        self._home[: layout.m] = layout.owner

        def _make(k: int):
            universe = layout.interior[k]
            if kind == "capacity":
                return CapacityRepairScheduler(
                    self.dyn,
                    admission=admission,
                    cascade=cascade,
                    rebuild_every=rebuild_every,
                    compaction_every=compaction_every,
                    max_slots=max_slots,
                    max_evictions=max_evictions,
                    universe=universe,
                    anchor=anchor,
                )
            return OnlineRepairScheduler(
                self.dyn,
                cascade=cascade,
                rebuild_every=rebuild_every,
                max_slots=max_slots,
                max_evictions=max_evictions,
                universe=universe,
                anchor=anchor,
            )

        built = _fanout(_make, list(range(layout.n_shards)), self.max_workers)
        self.repairers = tuple(built[k] for k in range(layout.n_shards))
        #: Aligned slot-count after construction and after every event.
        #: Tracks :attr:`aligned_slot_count` — the pre-certification
        #: alignment depth — so recording it per event stays O(shards)
        #: instead of forcing a full merge certification each time; the
        #: certified count is :attr:`slot_count`.
        self.slot_trajectory: list[int] = (
            [self.aligned_slot_count] if anchor else []
        )

    # ------------------------------------------------------------------
    # Checkpoint state (the repro.io scheduler-state format's payload)
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, np.ndarray]:
        """Coordinator + per-shard repairer state as flat arrays.

        Each shard repairer's :meth:`~repro.algorithms.repair
        .OnlineRepairScheduler.export_state` payload is namespaced under
        ``s{k}_``; the coordinator adds its routing table (``_home`` —
        which repairer's universe holds each context slot, the thing
        universe migration keeps in sync), the event counter, the
        cumulative merge-displacement count and the aligned-slot
        trajectory.
        """
        state: dict[str, np.ndarray] = {
            "shard_count": np.array(
                [len(self.repairers)], dtype=np.int64
            ),
            "shard_kind": np.array([self.kind], dtype=np.str_),
            "shard_events": np.array([self._events], dtype=np.int64),
            "shard_home": self._home.copy(),
            "shard_displaced": np.array(
                [self.merge_displaced], dtype=np.int64
            ),
            "shard_trajectory": np.array(
                self.slot_trajectory, dtype=np.int64
            ),
        }
        for k, rep in enumerate(self.repairers):
            for key, val in rep.export_state().items():
                state[f"s{k}_{key}"] = val
        return state

    def restore_state(self, state: dict[str, np.ndarray]) -> None:
        """Install a coordinator state exported by :meth:`export_state`.

        The shard repairers must have been constructed over the same
        layout (``anchor=False`` skips their throwaway initial anchors);
        a checkpoint written with a different shard count or repair kind
        fails loudly.
        """
        count = int(np.asarray(state["shard_count"])[0])
        if count != len(self.repairers):
            raise LinkError(
                f"checkpoint holds {count} shard repairers, this "
                f"coordinator runs {len(self.repairers)}"
            )
        kind = str(np.asarray(state["shard_kind"])[0])
        if kind != self.kind:
            raise LinkError(
                f"checkpoint holds a {kind!r} sharded scheduler state; "
                f"this coordinator is {self.kind!r}"
            )
        home = np.asarray(state["shard_home"], dtype=np.int64)
        if home.size > self.dyn.capacity:
            raise LinkError(
                f"checkpointed routing table covers {home.size} slots, "
                f"the context only holds {self.dyn.capacity}"
            )
        for k, rep in enumerate(self.repairers):
            prefix = f"s{k}_"
            rep.restore_state(
                {
                    key[len(prefix):]: val
                    for key, val in state.items()
                    if key.startswith(prefix)
                }
            )
        self._home = np.full(self.dyn.capacity, -1, dtype=np.int64)
        self._home[: home.size] = home
        self._events = int(np.asarray(state["shard_events"])[0])
        self.merge_displaced = int(np.asarray(state["shard_displaced"])[0])
        self.slot_trajectory = [
            int(v) for v in state["shard_trajectory"]
        ]
        self._compiled = None

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def set_priorities(self, weights: np.ndarray | None) -> None:
        """Forward eviction costs to every shard repairer."""
        for rep in self.repairers:
            rep.set_priorities(weights)

    def apply(
        self, arrived: Sequence[int], departed: Sequence[int]
    ) -> None:
        """Route one applied churn batch to the owning shards and repair."""
        arr = [int(s) for s in arrived]
        dep = [int(s) for s in departed]
        per_arr: dict[int, list[int]] = {}
        per_dep: dict[int, list[int]] = {}
        for s in dep:
            k = int(self._home[s])
            if k >= 0:
                per_dep.setdefault(k, []).append(s)
        if self.dyn.capacity > self._home.size:
            grown = np.full(self.dyn.capacity, -1, dtype=np.int64)
            grown[: self._home.size] = self._home
            self._home = grown
        if arr:
            # An arrival belongs to the shard of its receiver's cell; the
            # partition is total, so cells empty at layout time resolve too.
            points = self.dyn.space.geometry.points
            owners = self.layout.partition.shard_of_points(
                points[self.dyn.receivers[np.asarray(arr, dtype=np.int64)]]
            )
            for s, k in zip(arr, owners):
                k = int(k)
                prev = int(self._home[s])
                if prev != k:
                    if prev >= 0:
                        self.repairers[prev].universe_discard(s)
                    self.repairers[k].universe_add(s)
                    self._home[s] = k
                per_arr.setdefault(k, []).append(s)
        touched = set(per_arr) | set(per_dep)
        # Shards holding deferred links get an empty-batch poke so
        # departures elsewhere can free room for them.
        touched |= {
            k for k, rep in enumerate(self.repairers) if rep.deferred
        }
        shards = sorted(touched)
        _fanout(
            lambda k: self.repairers[k].apply(
                per_arr.get(k, ()), per_dep.get(k, ())
            ),
            shards,
            self.max_workers,
        )
        self._events += 1
        self._compiled = None
        self.slot_trajectory.append(self.aligned_slot_count)

    # ------------------------------------------------------------------
    # Read side (the repairer interface the simulator consumes)
    # ------------------------------------------------------------------
    def _materialize(self) -> tuple[np.ndarray, ...]:
        per_shard = [rep.active_schedule for rep in self.repairers]
        merged = _merged_by_index(per_shard)
        if len(self.repairers) == 1:
            slots = [list(s) for s in merged]
        else:
            slots, displaced = _certify_merge(
                self.dyn.raw_affectance,
                self.dyn.capacity,
                self.dyn.lengths,
                merged,
                clip=(
                    self.dyn.affectance if self.kind == "capacity" else None
                ),
                threshold=(
                    _CAPACITY_THRESHOLD if self.kind == "capacity" else None
                ),
            )
            self.merge_displaced += displaced
        return tuple(
            np.asarray(sorted(s), dtype=int) for s in slots if len(s)
        )

    @property
    def active_schedule(self) -> tuple[np.ndarray, ...]:
        """The merged, certified global schedule (cached between events)."""
        if self._compiled is None:
            self._compiled = self._materialize()
        return self._compiled

    @property
    def aligned_slot_count(self) -> int:
        """Alignment depth of the per-shard schedules (no certification).

        The slot count the by-index merge starts from — the deepest
        shard schedule — read straight off the repairers, so the
        per-event trajectory does not pay a certification pass.  The
        certified count (:attr:`slot_count`) can differ when the
        leftover pass opens fresh slots; with one shard both equal the
        serial repairer's count.
        """
        return max((rep.slot_count for rep in self.repairers), default=0)

    @property
    def slot_count(self) -> int:
        """Number of non-empty merged slots."""
        return len(self.active_schedule)

    @property
    def schedule(self) -> Schedule:
        """The merged schedule as a :class:`Schedule` value object."""
        return Schedule(
            tuple(tuple(int(v) for v in s) for s in self.active_schedule)
        )

    @property
    def deferred(self) -> tuple[int, ...]:
        """Context slots any shard is still deferring."""
        out: list[int] = []
        for rep in self.repairers:
            out.extend(rep.deferred)
        return tuple(sorted(out))

    def slot_of(self, s: int) -> int | None:
        """Schedule slot of a context slot in its owning shard's schedule.

        The per-link query interface the serial repairers expose, routed
        through the home table; ``None`` for a slot no shard schedules
        (free, deferred, or never owned).  The answer is the shard-local
        aligned index — the same index the merged schedule places the
        link at unless certification displaced it.
        """
        s = int(s)
        k = int(self._home[s]) if s < self._home.size else -1
        return self.repairers[k].slot_of(s) if k >= 0 else None

    @property
    def stats(self) -> RepairStats:
        """Aggregated counters: events are batches routed through *this*
        coordinator; everything else sums over the shard repairers."""
        out = RepairStats()
        out.events = self._events
        for rep in self.repairers:
            out.placements += rep.stats.placements
            out.departures += rep.stats.departures
            out.opened += rep.stats.opened
            out.evictions += rep.stats.evictions
            out.rebuilds += rep.stats.rebuilds
            out.deferred += rep.stats.deferred
            out.compactions += rep.stats.compactions
            out.merged += rep.stats.merged
        return out

    def competitive_ratio(self) -> float:
        """Merged slots over a *global* from-scratch schedule's slots."""
        if self.kind == "capacity":
            reference = CapacityRepairScheduler(
                self.dyn, admission=self.admission, cascade=0
            )
        else:
            reference = OnlineRepairScheduler(self.dyn, cascade=0)
        return self.slot_count / max(reference.slot_count, 1)

    def check(self) -> bool:
        """Exact feasibility of every merged slot."""
        a = self.dyn.raw_affectance
        return all(
            bool(np.all(in_affectances_within(a, slot) <= 1.0))
            for slot in self.active_schedule
        )

    def compact(self) -> int:
        """Run a compaction pass on every capacity shard repairer."""
        merged = 0
        for rep in self.repairers:
            if isinstance(rep, CapacityRepairScheduler):
                merged += rep.compact()
        if merged:
            self._compiled = None
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedRepairScheduler(kind={self.kind!r}, "
            f"n_shards={len(self.repairers)}, slots={self.slot_count}, "
            f"events={self._events})"
        )
