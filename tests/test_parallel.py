"""Unit tests for domain decomposition and parallel reconstruction."""

import os

import numpy as np
import pytest

from repro.grid import UniformGrid
from repro.interpolation import DelaunayLinearInterpolator, NearestNeighborInterpolator
from repro.parallel import (
    ParallelExecutor,
    chunk_indices,
    parallel_reconstruct,
    split_grid,
    usable_cpus,
)


class TestChunkIndices:
    def test_covers_range(self):
        chunks = chunk_indices(100, 7)
        joined = np.concatenate(chunks)
        np.testing.assert_array_equal(joined, np.arange(100))

    def test_balanced(self):
        chunks = chunk_indices(100, 7)
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        chunks = chunk_indices(3, 10)
        assert sum(len(c) for c in chunks) == 3
        assert all(len(c) > 0 for c in chunks)

    def test_empty(self):
        assert chunk_indices(0, 4) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_indices(10, 0)
        with pytest.raises(ValueError):
            chunk_indices(-1, 2)


class TestSplitGrid:
    def test_partitions_all_points(self, grid):
        chunks = split_grid(grid, 4)
        joined = np.sort(np.concatenate([c.flat_indices for c in chunks]))
        np.testing.assert_array_equal(joined, np.arange(grid.num_points))

    def test_default_axis_is_longest(self, grid):
        chunks = split_grid(grid, 2)
        assert chunks[0].axis == int(np.argmax(grid.dims))

    def test_explicit_axis(self, grid):
        chunks = split_grid(grid, 2, axis=2)
        assert all(c.axis == 2 for c in chunks)

    def test_slabs_are_contiguous(self, grid):
        chunks = split_grid(grid, 3, axis=0)
        stops = [c.stop for c in chunks]
        starts = [c.start for c in chunks]
        assert starts[0] == 0 and stops[-1] == grid.dims[0]
        assert starts[1:] == stops[:-1]

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            split_grid(grid, 0)
        with pytest.raises(ValueError):
            split_grid(grid, 2, axis=5)


class TestParallelExecutor:
    def test_serial_map(self):
        ex = ParallelExecutor(max_workers=1)
        assert ex.map(lambda v: v * 2, [1, 2, 3]) == [2, 4, 6]

    def test_empty(self):
        assert ParallelExecutor().map(len, []) == []

    def test_order_preserved(self):
        ex = ParallelExecutor(max_workers=2)
        out = ex.map(_square, list(range(20)))
        assert out == [v * v for v in range(20)]

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(max_workers=0)

    def test_default_width_counts_usable_cpus(self, monkeypatch):
        # Pinned to one CPU of a two-CPU machine (taskset -c 0).
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert ParallelExecutor().max_workers == 1


class TestUsableCpus:
    def test_affinity_set_wins_over_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 7}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        assert usable_cpus() == 3

    def test_without_affinity_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert usable_cpus() == 1


def _square(v):
    return v * v


class TestParallelReconstruct:
    def test_matches_serial(self, sample):
        interp = DelaunayLinearInterpolator()
        serial = interp.reconstruct(sample)
        chunked = parallel_reconstruct(
            interp, sample, executor=ParallelExecutor(max_workers=1), num_chunks=4
        )
        np.testing.assert_allclose(chunked, serial)

    def test_nearest_matches_serial_multichunk(self, sample):
        interp = NearestNeighborInterpolator()
        serial = interp.reconstruct(sample)
        chunked = parallel_reconstruct(
            interp, sample, executor=ParallelExecutor(max_workers=1), num_chunks=7
        )
        np.testing.assert_allclose(chunked, serial)

    def test_target_grid(self, sample):
        target = sample.grid.with_resolution((6, 6, 4))
        out = parallel_reconstruct(
            NearestNeighborInterpolator(),
            sample,
            target_grid=target,
            executor=ParallelExecutor(max_workers=1),
        )
        assert out.shape == (6, 6, 4)
        assert np.isfinite(out).all()

    def test_sampled_points_exact(self, sample):
        out = parallel_reconstruct(
            NearestNeighborInterpolator(), sample, executor=ParallelExecutor(max_workers=1)
        ).ravel()
        np.testing.assert_allclose(out[sample.indices], sample.values)
