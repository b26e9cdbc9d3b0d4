"""Tests for repro.geometry.cells: the uniform cell index.

The far-field certificate table is pinned bit-for-bit (``np.array_equal``)
against two references: a naive double loop over the docstring formula,
and the per-pair vectorized evaluation the table replaced.  The fixed-
radius neighbour query is pinned against brute-force pairs.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.affectance_sparse import build_sparse_affectance
from repro.errors import GeometryError
from repro.geometry.cells import CellIndex
from repro.scenarios import build_scenario


def _naive_far_field(index, query_cells, radius, alpha):
    """``W`` by a double loop over (query cell, occupied cell) pairs.

    The loop derives the occupied cells, their key order, the per-axis
    gaps and ``d_min`` by hand.  The power and the row sum use the same
    numpy kernels as the index (an elementwise array power and a
    row-wise ``sum``), because a bit-exact pin needs the same
    transcendental and the same summation order.
    """
    counts = Counter(map(tuple, index.cell_of(index.points).tolist()))
    occupied = sorted(counts)  # lexicographic == the index's key order
    d_min = np.zeros((len(query_cells), len(occupied)))
    for i, q in enumerate(np.asarray(query_cells).tolist()):
        for j, c in enumerate(occupied):
            gaps = [max(abs(a - b) - 1, 0) * index.h for a, b in zip(q, c)]
            d_min[i, j] = math.sqrt(sum(g * g for g in gaps))
    weights = np.array([counts[c] for c in occupied], dtype=float)
    return (weights / np.maximum(d_min, radius) ** alpha).sum(axis=1)


def _per_pair_far_field(self, query_cells, radius, alpha, chunk=512):
    """The per-pair evaluation: one (query, occupied cell) row per query."""
    qc = np.asarray(query_cells, dtype=np.int64)
    coords, counts = self._uniq_coords, self._sizes
    out = np.empty(qc.shape[0], dtype=float)
    weights = counts.astype(float)
    for lo in range(0, qc.shape[0], chunk):
        block = qc[lo : lo + chunk]
        delta = np.abs(block[:, None, :] - coords[None, :, :])
        gap = np.maximum(delta - 1, 0) * self.h
        d_min = np.sqrt((gap.astype(float) ** 2).sum(axis=-1))
        denom = np.maximum(d_min, radius) ** alpha
        out[lo : lo + chunk] = (weights[None, :] / denom).sum(axis=1)
    return out


@st.composite
def _far_field_cases(draw):
    dim = draw(st.integers(1, 3))
    h = draw(st.sampled_from([1.0, 2.5, 7.0]))
    cell = st.lists(st.integers(0, 5), min_size=dim, max_size=dim)
    cells = draw(st.lists(cell, min_size=1, max_size=25))
    frac = draw(
        st.lists(
            st.floats(0.05, 0.95), min_size=len(cells) * dim,
            max_size=len(cells) * dim,
        )
    )
    points = (np.array(cells, float) + np.reshape(frac, (-1, dim))) * h
    # Query cells reach past the occupied box on both sides (one step
    # and far out) and hit unoccupied cells inside it; some repeat.
    qcell = st.lists(
        st.one_of(st.integers(-3, 8), st.sampled_from([-40, 60])),
        min_size=dim, max_size=dim,
    )
    query = draw(st.lists(qcell, min_size=1, max_size=20))
    query = query + draw(st.lists(st.sampled_from(query), max_size=10))
    radius = draw(st.sampled_from([1.0, 0.5, 0.2])) * h  # R = h and R < h
    alpha = draw(st.sampled_from([2.0, 3.0, 4.37]))
    chunk = draw(st.sampled_from([1, 3, 512]))
    return points, h, np.array(query, dtype=np.int64), radius, alpha, chunk


class TestFarFieldSums:
    @given(_far_field_cases())
    def test_matches_naive_double_loop(self, case):
        points, h, query, radius, alpha, chunk = case
        index = CellIndex(points, h, origin=np.zeros(points.shape[1]))
        got = index.far_field_sums(query, radius, alpha, chunk=chunk)
        assert np.array_equal(got, _naive_far_field(index, query, radius, alpha))
        assert np.array_equal(
            got, _per_pair_far_field(index, query, radius, alpha, chunk)
        )

    def test_sparse_grid_matches_naive(self):
        # Two clusters far apart: the offsets' bounding box is much larger
        # than one block of pairs, so each block evaluates its own offsets.
        rng = np.random.default_rng(3)
        points = np.concatenate(
            [rng.uniform(0, 5, (20, 2)), rng.uniform(5e4, 5e4 + 5, (20, 2))]
        )
        index = CellIndex(points, 1.0)
        query = index.cell_of(points[::3])
        got = index.far_field_sums(query, 1.0, 3.0)
        assert np.array_equal(got, _naive_far_field(index, query, 1.0, 3.0))

    def test_duplicates_scatter_back_in_query_order(self):
        index = CellIndex(np.array([[0.5, 0.5], [3.5, 0.5], [3.6, 4.2]]), 1.0)
        query = np.array([[3, 4], [0, 0], [3, 4], [9, 9], [0, 0]])
        got = index.far_field_sums(query, 1.0, 3.0)
        assert got[0] == got[2] and got[1] == got[4]
        assert np.array_equal(got, _naive_far_field(index, query, 1.0, 3.0))

    def test_empty_query(self):
        index = CellIndex(np.array([[0.5, 0.5], [3.5, 0.5]]), 1.0)
        got = index.far_field_sums(np.empty((0, 2), dtype=np.int64), 1.0, 3.0)
        assert got.shape == (0,) and got.dtype == float

    def test_rejects_bad_radius_and_shape(self):
        index = CellIndex(np.array([[0.5, 0.5], [3.5, 0.5]]), 1.0)
        with pytest.raises(GeometryError, match="radius must be positive"):
            index.far_field_sums(np.zeros((1, 2)), 0.0, 3.0)
        with pytest.raises(GeometryError, match="shape"):
            index.far_field_sums(np.zeros((1, 3)), 1.0, 3.0)

    @pytest.mark.parametrize("radius", [6.0, 12.0, 24.0])
    def test_certified_tails_match_per_pair_evaluation(self, radius, monkeypatch):
        links = build_scenario("planar_uniform", n_links=2000, seed=0)
        powers = np.ones(links.m)
        got = build_sparse_affectance(links, powers, eps=0.2, radius=radius)
        monkeypatch.setattr(CellIndex, "far_field_sums", _per_pair_far_field)
        ref = build_sparse_affectance(links, powers, eps=0.2, radius=radius)
        assert np.array_equal(got.tail_in, ref.tail_in)
        assert np.array_equal(got.tail_out, ref.tail_out)


def _brute_pairs(qpoints, points, radius):
    diff = qpoints[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    q_idx, p_idx = np.nonzero(dist <= radius)
    return q_idx, p_idx, dist[q_idx, p_idx]


def _sorted_pairs(q_idx, p_idx, dist):
    order = np.lexsort((p_idx, q_idx))
    return q_idx[order], p_idx[order], dist[order]


class TestQuery:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_query", [5, 600])  # batched / per-offset
    def test_matches_brute_force_pairs(self, dim, n_query):
        rng = np.random.default_rng(dim * 100 + n_query)
        points = rng.uniform(0, 10, (300, dim))
        qpoints = rng.uniform(-1, 11, (n_query, dim))
        h = 1.5
        index = CellIndex(points, h, origin=np.full(dim, -2.0))
        for radius in (h, 0.6 * h):
            got = _sorted_pairs(*index.query(qpoints, radius, chunk=97))
            want = _brute_pairs(qpoints, points, radius)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    def test_no_matches_and_radius_guard(self):
        index = CellIndex(np.array([[0.5, 0.5]]), 1.0)
        q_idx, p_idx, dist = index.query(np.array([[9.0, 9.0]]), 1.0)
        assert q_idx.size == p_idx.size == dist.size == 0
        with pytest.raises(GeometryError, match="exceeds the cell size"):
            index.query(np.array([[0.0, 0.0]]), 1.5)
