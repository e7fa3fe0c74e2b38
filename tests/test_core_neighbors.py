"""kNN selection: each query's nearest samples, with lattice ties left to the kd-tree.

:func:`repro.core.features.nearest_samples` keeps the kd-tree's own order
among equidistant samples, so these tests compare what a tie cannot
change: each row's neighbor *distances*, against a brute-force oracle
over every sample.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.core.features import FeatureExtractor, nearest_samples
from repro.grid import UniformGrid
from repro.sampling.base import SampledField


def _lattice(side: int) -> np.ndarray:
    axes = np.meshgrid(*[np.arange(side, dtype=np.float64)] * 3, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, 3)


def _brute_distances(samples: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` smallest query-to-sample distances per row, ascending."""
    d = np.sqrt(((queries[:, None, :] - samples[None, :, :]) ** 2).sum(axis=2))
    return np.sort(d, axis=1)[:, :k]


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
def test_rows_hold_the_k_nearest_distances_on_lattice_ties(case):
    samples, queries, k = case
    idx = nearest_samples(cKDTree(samples), queries, k)
    assert idx.shape == (len(queries), k)
    kk = min(k, len(samples))
    got = np.linalg.norm(samples[idx[:, :kk]] - queries[:, None, :], axis=2)
    np.testing.assert_allclose(got, _brute_distances(samples, queries, kk), rtol=0, atol=1e-12)
    # each row names distinct samples, nearest first
    assert all(len(set(row)) == kk for row in idx[:, :kk].tolist())


def test_trees_over_the_same_points_agree_on_ties():
    # The pool worker's tree and the extractor's are built separately over
    # the same point array: tied neighbors come back in the same order.
    samples = _lattice(4)
    queries = _lattice(4) + 0.5
    a = nearest_samples(cKDTree(samples), queries, 5)
    b = nearest_samples(cKDTree(samples.copy()), queries[::-1], 5)[::-1]
    assert np.array_equal(a, b)


def test_more_neighbors_than_samples_pads_with_the_farthest():
    grid = UniformGrid((4, 4, 2))
    flat = np.array([0, 5, 31])  # three samples for a five-neighbor extractor
    sample = SampledField(
        grid=grid, indices=flat, values=np.array([1.0, 2.0, 3.0]), fraction=0.1
    )
    queries = grid.index_to_position(grid.flat_to_multi(np.array([1, 10, 30])))
    extractor = FeatureExtractor(num_neighbors=5)
    idx = extractor._neighbor_indices(sample, queries)
    assert idx.shape == (3, 5)
    got = np.linalg.norm(sample.points[idx[:, :3]] - queries[:, None, :], axis=2)
    np.testing.assert_allclose(got, _brute_distances(sample.points, queries, 3), rtol=0, atol=1e-12)
    assert np.array_equal(idx[:, 3:], np.repeat(idx[:, 2:3], 2, axis=1))
