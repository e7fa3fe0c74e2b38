"""Canonical kNN tie-breaking: per-row ``(distance, index)`` selection.

:func:`repro.core.features.canonical_neighbors` sorts each query's padded
candidate row independently.  The oracle below is the earlier formulation
— one global three-key sort over every candidate of every query — kept
here as the reference the per-row sort must reproduce exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.core.features import TIE_BREAK_PAD, FeatureExtractor, canonical_neighbors
from repro.grid import UniformGrid
from repro.sampling.base import SampledField


def global_sort_oracle(dist: np.ndarray, idx: np.ndarray, k: int) -> np.ndarray:
    """One lexsort by (row, distance, index) over all Q * kq candidates."""
    n, kq = idx.shape
    if kq <= 1:
        return idx[:, :k]
    rows = np.repeat(np.arange(n), kq)
    perm = np.lexsort((idx.ravel(), dist.ravel(), rows)).reshape(n, kq)
    perm -= np.arange(n)[:, None] * kq
    return np.take_along_axis(idx, perm[:, :k], axis=1)


def _lattice(side: int) -> np.ndarray:
    axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * 3, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, 3)


@st.composite
def lattice_queries(draw):
    """Samples on an integer lattice, queries on the lattice and half-steps:
    equal distances (ties) everywhere, including at the k-th cut."""
    side = draw(st.integers(2, 5))
    lattice = _lattice(side)
    num_samples = draw(st.integers(1, len(lattice)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    samples = lattice[rng.choice(len(lattice), size=num_samples, replace=False)]
    queries = lattice + 0.5 * rng.integers(0, 2, size=lattice.shape)
    k = draw(st.integers(1, 8))
    return samples, queries, k


@given(case=lattice_queries())
@settings(max_examples=80, deadline=None)
def test_per_row_sort_matches_global_sort_on_lattice_ties(case):
    samples, queries, k = case
    k = min(k, len(samples))
    kq = min(k + TIE_BREAK_PAD, len(samples))
    dist, idx = cKDTree(samples).query(queries, k=kq)
    if kq == 1:
        dist, idx = dist[:, None], idx[:, None]
    got = canonical_neighbors(dist, idx, k)
    assert np.array_equal(got, global_sort_oracle(dist, idx, k))
    # the selection is the k smallest candidates by (distance, index)
    for row in range(len(queries)):
        ranked = sorted(zip(dist[row], idx[row]))[:k]
        assert list(got[row]) == [i for _, i in ranked]


def test_tie_at_the_cut_keeps_the_lowest_indices():
    # Six samples all at distance 1 from the query; the candidate order is
    # scrambled the way two differently built kd-trees would return it.
    idx = np.array([[4, 0, 5, 2, 1, 3]])
    dist = np.ones_like(idx, dtype=np.float64)
    assert canonical_neighbors(dist, idx, 3).tolist() == [[0, 1, 2]]
    assert np.array_equal(canonical_neighbors(dist, idx, 3), global_sort_oracle(dist, idx, 3))


def test_nearer_candidates_win_over_lower_indices():
    idx = np.array([[0, 7, 3], [9, 1, 2]])
    dist = np.array([[2.0, 1.0, 1.0], [0.5, 0.5, 3.0]])
    assert canonical_neighbors(dist, idx, 2).tolist() == [[3, 7], [1, 9]]


def test_single_candidate_column_passes_through():
    idx = np.array([[3], [1], [4]])
    dist = np.zeros((3, 1))
    assert np.array_equal(canonical_neighbors(dist, idx, 1), idx)
    assert np.array_equal(canonical_neighbors(dist, idx, 5), idx)
    assert np.array_equal(canonical_neighbors(dist[:, :0], idx[:, :0], 2), idx[:, :0])


def test_more_neighbors_than_samples_pads_with_the_farthest():
    grid = UniformGrid((4, 4, 2))
    flat = np.array([0, 5, 31])  # three samples for a five-neighbor extractor
    sample = SampledField(
        grid=grid, indices=flat, values=np.array([1.0, 2.0, 3.0]), fraction=0.1
    )
    queries = grid.index_to_position(grid.flat_to_multi(np.array([1, 10, 30])))
    extractor = FeatureExtractor(num_neighbors=5, cache_geometry=False)
    idx = extractor._neighbor_indices(sample, queries)
    assert idx.shape == (3, 5)
    dist, cand = cKDTree(sample.points).query(queries, k=3)
    expected = global_sort_oracle(dist, cand, 3)
    assert np.array_equal(idx[:, :3], expected)
    assert np.array_equal(idx[:, 3:], np.repeat(expected[:, -1:], 2, axis=1))
