"""Identity pins for the single first-fit kernel.

:func:`repro.algorithms.context.first_fit_slots` replaced three loops:
the dense ``SchedulingContext.first_fit`` scan, the sparse
``SchedulingContext._first_fit_sparse`` searchsorted scan, and the
``OnlineRepairScheduler._first_fit`` repair anchor.  Those loops are kept
below verbatim (``self`` turned into arguments, the dense loop's slot
ledger inlined), and the kernel must reproduce each of them exactly:
same slots, same members, and for the repair anchor the same placement
order.  Any float-level deviation in the owner-array probe — a skipped
member that was not really at ``+0.0``, a reordered ledger addition —
shows up as a differing slot list.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.context import (
    DynamicContext,
    SchedulingContext,
    first_fit_slots,
)
from repro.algorithms.repair import OnlineRepairScheduler
from repro.core.decay import DecaySpace
from repro.core.links import LinkSet
from repro.scenarios import build_scenario, scenario_names
from tests.conftest import CHURN_EXAMPLES

#: Sparse tolerance small enough that the certified radius reaches the
#: instance diameter: the stored pattern is complete.
TINY_EPS = 1e-300

#: A moderate tolerance: the pattern drops far pairs, so the sparse
#: loops see rows with a genuinely partial support.
MODERATE_EPS = 0.2


# ----------------------------------------------------------------------
# The replaced loops (kept verbatim, on purpose)
# ----------------------------------------------------------------------
class _SlotLedger:
    """The dense loop's per-slot in-affectance ledger, inlined."""

    def __init__(self, a: np.ndarray) -> None:
        self.a = a
        self.in_sum = np.zeros(a.shape[0])

    def add(self, v: int) -> None:
        self.in_sum += self.a[v]


def old_dense_first_fit(
    a: np.ndarray, sequence: list[int]
) -> tuple[tuple[int, ...], ...]:
    """``SchedulingContext.first_fit``'s dense loop."""
    slots: list[list[int]] = []
    ledgers: list[_SlotLedger] = []  # per-slot a_slot(v), all v
    for v in sequence:
        av = a[v]
        placed = False
        for t, slot in enumerate(slots):
            in_aff = ledgers[t].in_sum
            if in_aff[v] > 1.0:
                continue
            if np.all(in_aff[slot] + av[slot] <= 1.0):
                slot.append(v)
                ledgers[t].add(v)
                placed = True
                break
        if not placed:
            slots.append([v])
            ledger = _SlotLedger(a)
            ledger.add(v)
            ledgers.append(ledger)
    return tuple(tuple(sorted(s)) for s in slots)


def old_sparse_first_fit(
    a, sequence: list[int], m: int
) -> tuple[tuple[int, ...], ...]:
    """``SchedulingContext._first_fit_sparse``."""
    slots: list[list[int]] = []
    members: list[np.ndarray] = []  # sorted member arrays per slot
    sums: list[np.ndarray] = []  # per-slot a_slot(v) ledgers
    for v in sequence:
        idx, val = a.row(v)
        placed = False
        for t in range(len(slots)):
            in_aff = sums[t]
            if in_aff[v] > 1.0:
                continue
            mem = members[t]
            if idx.size:
                pos = np.searchsorted(idx, mem)
                pos_c = np.minimum(pos, idx.size - 1)
                hit = idx[pos_c] == mem
                if np.any(in_aff[mem[hit]] + val[pos_c[hit]] > 1.0):
                    continue
            slots[t].append(v)
            members[t] = np.insert(mem, np.searchsorted(mem, v), v)
            in_aff[idx] += val
            placed = True
            break
        if not placed:
            slots.append([v])
            members.append(np.array([v], dtype=int))
            fresh = np.zeros(m)
            fresh[idx] = val
            sums.append(fresh)
    return tuple(tuple(sorted(s)) for s in slots)


def old_repair_first_fit(
    dyn: DynamicContext, universe: set[int] | None = None
) -> list[list[int]]:
    """``OnlineRepairScheduler._first_fit`` (the repair anchor)."""
    act = dyn.active_slots
    if universe is not None and act.size:
        act = act[np.array([int(s) in universe for s in act], dtype=bool)]
    a = dyn.raw_affectance
    order = act[np.lexsort((act, dyn.lengths[act]))]
    bufs: list[np.ndarray] = []
    sizes: list[int] = []
    sums: list[np.ndarray] = []
    dense_a = isinstance(a, np.ndarray)
    scratch: np.ndarray | None = None
    prev_idx: np.ndarray | None = None
    for v in order:
        v = int(v)
        if dense_a:
            av = a[v]
        else:
            if scratch is None:
                scratch = np.zeros(a.n)
            elif prev_idx is not None and prev_idx.size:
                scratch[prev_idx] = 0.0
            prev_idx, rval = a.row(v)
            scratch[prev_idx] = rval
            av = scratch
        for t in range(len(bufs)):
            in_aff = sums[t]
            if in_aff[v] > 1.0:
                continue
            mem = bufs[t][: sizes[t]]
            if np.all(in_aff[mem] + av[mem] <= 1.0):
                if sizes[t] == bufs[t].size:
                    grown = np.empty(2 * bufs[t].size, dtype=np.int64)
                    grown[: sizes[t]] = bufs[t]
                    bufs[t] = grown
                bufs[t][sizes[t]] = v
                sizes[t] += 1
                in_aff += av
                break
        else:
            buf = np.empty(4, dtype=np.int64)
            buf[0] = v
            bufs.append(buf)
            sizes.append(1)
            sums.append(av.copy())
    return [
        [int(u) for u in bufs[t][: sizes[t]]] for t in range(len(bufs))
    ]


def _sorted(slots: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(s)) for s in slots)


def _sequence(ctx: SchedulingContext, active=None) -> list[int]:
    return [int(v) for v in ctx._active_order(active)]


# ----------------------------------------------------------------------
# Static first-fit: dense and sparse backends
# ----------------------------------------------------------------------
class TestStaticFirstFit:
    @given(
        scenario=st.sampled_from(scenario_names()),
        seed=st.integers(0, 2**16),
        m=st.integers(2, 40),
    )
    def test_dense_registry_matches_old_loop(self, scenario, seed, m):
        links = build_scenario(scenario, n_links=m, seed=seed)
        ctx = SchedulingContext(links)
        expected = old_dense_first_fit(ctx.raw_affectance, _sequence(ctx))
        assert ctx.first_fit() == expected
        assert _sorted(
            first_fit_slots(ctx.raw_affectance, ctx.order, ctx.m)
        ) == expected

    @given(
        scenario=st.sampled_from(scenario_names()),
        seed=st.integers(0, 2**16),
        m=st.integers(2, 40),
    )
    def test_sparse_complete_matches_both_old_loops(self, scenario, seed, m):
        links = build_scenario(scenario, n_links=m, seed=seed)
        ctx = SchedulingContext(links, backend="sparse", eps=TINY_EPS)
        assert ctx.sparse_affectance.complete
        seq = _sequence(ctx)
        expected = old_sparse_first_fit(ctx.raw_affectance, seq, ctx.m)
        assert ctx.first_fit() == expected
        dense = SchedulingContext(links)
        assert expected == old_dense_first_fit(dense.raw_affectance, seq)

    @given(seed=st.integers(0, 2**16), m=st.integers(20, 200))
    def test_sparse_moderate_eps_matches_old_loop(self, seed, m):
        links = build_scenario("planar_uniform", n_links=m, seed=seed)
        ctx = SchedulingContext(
            links, backend="sparse", eps=MODERATE_EPS, radius=4.0
        )
        expected = old_sparse_first_fit(
            ctx.raw_affectance, _sequence(ctx), ctx.m
        )
        assert ctx.first_fit() == expected

    def test_sparse_moderate_eps_drops_pairs(self):
        """The moderate-eps sweep really runs on partial row supports."""
        links = build_scenario("planar_uniform", n_links=200, seed=0)
        ctx = SchedulingContext(
            links, backend="sparse", eps=MODERATE_EPS, radius=4.0
        )
        assert not ctx.sparse_affectance.complete

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @given(
        scenario=st.sampled_from(scenario_names()),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_active_subset_matches_old_loop(
        self, backend, scenario, seed, data
    ):
        links = build_scenario(scenario, n_links=30, seed=seed)
        ctx = SchedulingContext(links, backend=backend, eps=MODERATE_EPS)
        active = data.draw(
            st.lists(st.integers(0, links.m - 1), max_size=30)
        )
        seq = _sequence(ctx, active)
        if backend == "dense":
            expected = old_dense_first_fit(ctx.raw_affectance, seq)
        else:
            expected = old_sparse_first_fit(ctx.raw_affectance, seq, ctx.m)
        assert ctx.first_fit(active=active) == expected

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_explicit_order_matches_old_loop(self, backend, seed, data):
        links = build_scenario("clustered", n_links=30, seed=seed)
        ctx = SchedulingContext(links, backend=backend, eps=MODERATE_EPS)
        order = data.draw(st.permutations(range(links.m)))
        if backend == "dense":
            expected = old_dense_first_fit(ctx.raw_affectance, order)
        else:
            expected = old_sparse_first_fit(
                ctx.raw_affectance, order, ctx.m
            )
        assert ctx.first_fit(order=order) == expected


# ----------------------------------------------------------------------
# The repair anchor over a padded dynamic context
# ----------------------------------------------------------------------
def _churned(backend: str, seed: int) -> DynamicContext:
    """A dynamic context after a random churn trace: departures leave
    holes in the padded slot space, arrivals reuse some of them."""
    links = build_scenario("clustered", n_links=40, seed=seed % 7)
    pairs = [(l.sender, l.receiver) for l in links]
    dyn = DynamicContext(
        links.space, pairs[:24], backend=backend, eps=MODERATE_EPS
    )
    rng = np.random.default_rng(seed)
    nxt = 24
    for _ in range(10):
        if rng.random() < 0.5:
            gone = rng.choice(
                dyn.active_slots, size=min(3, dyn.m - 2), replace=False
            )
            dyn.remove_links([int(s) for s in gone])
        else:
            dyn.add_links(pairs[nxt % len(pairs) : nxt % len(pairs) + 2])
            nxt += 2
    return dyn


class TestRepairAnchor:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_anchor_after_churn_matches_old_loop(self, backend, seed):
        dyn = _churned(backend, seed)
        expected = old_repair_first_fit(dyn)
        rs = OnlineRepairScheduler(dyn, anchor=False)
        assert rs._first_fit() == expected
        assert OnlineRepairScheduler(dyn).schedule.slots == tuple(
            tuple(sorted(s)) for s in expected
        )

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @given(seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=CHURN_EXAMPLES, deadline=None)
    def test_anchor_under_universe_matches_old_loop(
        self, backend, seed, data
    ):
        dyn = _churned(backend, seed)
        universe = set(
            data.draw(
                st.lists(st.sampled_from(dyn.active_slots.tolist()))
            )
        )
        rs = OnlineRepairScheduler(dyn, universe=universe, anchor=False)
        assert rs._first_fit() == old_repair_first_fit(dyn, universe)

    def test_churn_leaves_holes(self):
        dyn = _churned("sparse", 3)
        assert dyn.m < dyn.capacity


# ----------------------------------------------------------------------
# Infinite affectance: a sender sitting on another link's receiver
# ----------------------------------------------------------------------
def _zero_decay_links() -> LinkSet:
    """Links (0, 1), (1, 2), (3, 4), (5, 6) on a line: link 1's sender is
    link 0's receiver, so the decay between them is zero and the raw
    affectance ``a_1(0)`` is infinite."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.2, 0.0],
                    [7.0, 0.0], [8.0, 0.0], [20.0, 0.0], [21.5, 0.0]])
    return LinkSet(
        DecaySpace.from_points(pts, 3.0), [(0, 1), (1, 2), (3, 4), (5, 6)]
    )


class TestZeroDecayPair:
    def test_dense_and_sparse_match_old_loops(self):
        links = _zero_decay_links()
        dense = SchedulingContext(links)
        assert np.isinf(dense.raw_affectance[1, 0])
        seq = _sequence(dense)
        expected = old_dense_first_fit(dense.raw_affectance, seq)
        assert dense.first_fit() == expected
        assert all(not {0, 1} <= set(s) for s in expected)
        sparse = SchedulingContext(links, backend="sparse", eps=TINY_EPS)
        assert sparse.first_fit() == old_sparse_first_fit(
            sparse.raw_affectance, seq, sparse.m
        ) == expected

    def test_repair_anchor_matches_old_loop(self):
        links = _zero_decay_links()
        dyn = SchedulingContext(links).dynamic()
        rs = OnlineRepairScheduler(dyn, anchor=False)
        assert rs._first_fit() == old_repair_first_fit(dyn)
