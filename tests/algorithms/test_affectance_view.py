"""One affectance-access protocol: every view returns the dense floats.

The scheduling kernels read affectance only through the
:class:`~repro.core.affectance_sparse.AffectanceView` protocol, so the
dense↔sparse schedule identities rest on one fact pinned here: on a
pattern that holds every nonzero entry, each protocol method of the CSR
view and of a churned :class:`DynamicContext`'s live view returns
``array_equal`` floats to the dense view's numpy expression.  The sparse
sums are sequential scatters in member order; the dense ones are numpy's
axis-0 reduction of a C-ordered block and axis-1 reduction of an
F-ordered one, which add in that same order.  Values span many decades
so any other association order shows in the last bits.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.context import DynamicContext
from repro.core.affectance_sparse import (
    _DENSE_BLOCK_LIMIT,
    SparseAffectance,
    _DenseView,
    affectance_view,
)
from tests.conftest import CHURN_EXAMPLES, make_planar_links

#: Sparse tolerance small enough that the certified radius reaches the
#: instance diameter: the stored pattern is complete.
TINY_EPS = 1e-300


def _random_matrix(n: int, seed: int, zeros: float) -> np.ndarray:
    """Zero diagonal, a ``zeros`` share of exact zeros, and values over
    ten decades (so rounding depends on the summation order)."""
    gen = np.random.default_rng(seed)
    a = gen.random((n, n)) * 10.0 ** gen.uniform(-8.0, 2.0, size=(n, n))
    a[gen.random((n, n)) < zeros] = 0.0
    np.fill_diagonal(a, 0.0)
    return a


def _csr(a: np.ndarray, *, complete: bool) -> SparseAffectance:
    """``a`` as a sparse pattern: every off-diagonal pair (zeros stored
    too) when ``complete``, else the nonzero entries only."""
    n = a.shape[0]
    keep = ~np.eye(n, dtype=bool) if complete else a != 0.0
    rows, cols = np.nonzero(keep)
    zero = np.zeros(n)
    return SparseAffectance(
        n, rows, cols, a[rows, cols],
        eps=1.0, radius=1.0, cell_size=1.0, tail_in=zero, tail_out=zero,
    )


def _line(n: int, pair: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    idx, val = pair
    out = np.zeros(n)
    out[idx] = val
    return out


def assert_same_floats(view, dense: np.ndarray, members, *, pairwise=True):
    """Every protocol method of ``view`` equals the dense view's floats.

    ``pairwise=False`` skips ``sum_axis1``, whose block-budget twin is
    the only realisation that depends on the matrix size.
    """
    ref = _DenseView(dense)
    n = dense.shape[0]
    members = np.asarray(members, dtype=int)
    assert view.n == ref.n == n
    eq = np.testing.assert_array_equal
    probes = sorted({0, n - 1, *members[:3].tolist()})
    for v in probes:
        eq(_line(n, view.row(v)), _line(n, ref.row(v)))
        eq(_line(n, view.col(v)), _line(n, ref.col(v)))
        eq(view.gather_row(v, members), ref.gather_row(v, members))
        eq(view.gather_col(members, v), ref.gather_col(members, v))
        eq(view.dense_row(v), ref.dense_row(v))
        base = np.random.default_rng(v).random(n)
        got, want = base.copy(), base.copy()
        view.add_row_to(got, v)
        ref.add_row_to(want, v)
        eq(got, want)
        got, want = base.copy(), base.copy()
        view.add_col_to(got, v)
        ref.add_col_to(want, v)
        eq(got, want)
    eq(view.block(members, members[::-1]), ref.block(members, members[::-1]))
    eq(view.rows_sum(members), ref.rows_sum(members))
    eq(view.cols_sum(members), ref.cols_sum(members))
    eq(view.in_affectances_within(members), ref.in_affectances_within(members))
    eq(view.sum_axis0(), ref.sum_axis0())
    if pairwise:
        eq(view.sum_axis1(), ref.sum_axis1())


def _members(n: int):
    """Unsorted member lists over ``0 .. n-1``, with repeats, possibly
    empty."""
    return st.lists(st.integers(0, n - 1), max_size=3 * n)


class TestCsrView:
    @given(data=st.data())
    @settings(max_examples=4 * CHURN_EXAMPLES)
    def test_complete_pattern_matches_dense(self, data):
        n = data.draw(st.integers(2, 24), label="n")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        zeros = data.draw(st.sampled_from([0.0, 0.3, 0.9]), label="zeros")
        members = data.draw(_members(n), label="members")
        a = _random_matrix(n, seed, zeros)
        sp = _csr(a, complete=True)
        assert sp.complete
        assert_same_floats(sp.raw, a, members)
        assert_same_floats(sp.clip, np.minimum(a, 1.0), members)

    def test_beyond_the_block_budget(self):
        """Sums over more than 2**22 entries: numpy's dense reductions
        still add in member order, as the scatter does.  Only the
        nonzeros are stored (a complete n=2200 pattern costs ~0.2 GB);
        the unstored entries are exact zeros in the dense matrix."""
        n = 2200
        a = _random_matrix(n, 7, zeros=0.9)
        gen = np.random.default_rng(8)
        members = gen.permutation(n)[:2100]
        members = np.concatenate([members, members[:5], members[-3:]])
        assert members.size**2 > _DENSE_BLOCK_LIMIT
        assert members.size * n > _DENSE_BLOCK_LIMIT
        sp = _csr(a, complete=False)
        assert_same_floats(sp.raw, a, members, pairwise=False)


class TestDynamicView:
    @given(seed=st.integers(0, 2**16), members=_members(40))
    @settings(max_examples=CHURN_EXAMPLES)
    def test_churned_view_matches_dense_context(self, seed, members):
        """A sparse and a dense :class:`DynamicContext` through the same
        churn (departures, slot reuse, capacity growth) hold the same
        padded matrix; their views agree on it."""
        links = make_planar_links(20, 3.0, seed=seed % 97)
        pairs = [(l.sender, l.receiver) for l in links]
        ctxs = [
            DynamicContext(links.space, pairs),
            DynamicContext(links.space, pairs, backend="sparse", eps=TINY_EPS),
        ]
        gen = np.random.default_rng(seed)
        gone = gen.choice(20, size=6, replace=False).tolist()
        # Arrivals reuse the departed node pairs (plus a few repeats), so
        # every pair stays within the radius pinned at construction.
        back = [pairs[g] for g in gone] + pairs[:3]
        for dyn in ctxs:
            dyn.remove_links(gone)
            arrived = dyn.add_links(back)
            dyn.remove_links(arrived[-2:])  # leave empty padded slots
        dense, sparse = ctxs
        assert dense.capacity == sparse.capacity > 20
        assert sparse.freeze().sparse_affectance.complete
        members = [v % dense.capacity for v in members]
        for layer in ("raw_affectance", "affectance"):
            mat = getattr(dense, layer)
            assert isinstance(mat, np.ndarray)
            view = getattr(sparse, layer)
            assert affectance_view(view) is view
            assert_same_floats(view, mat, members)

