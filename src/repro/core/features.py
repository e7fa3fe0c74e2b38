"""k-nearest-neighbor feature engineering (paper Sec III-D, Fig 4).

For each void location the five nearest *sampled* points are found with a
kd-tree; the input feature vector concatenates, in nearest-first order, each
neighbor's normalized (x, y, z) and standardized scalar value (5 x 4 = 20
entries) with the void's own normalized (x, y, z) — 23 features total.
Targets are the standardized scalar plus the three standardized gradient
components (4 outputs), or just the scalar for the no-gradient ablation
(Fig 8).
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.core.normalization import Normalizer
from repro.datasets.base import TimestepField
from repro.grid import UniformGrid, field_gradients
from repro.sampling.base import SampledField

__all__ = [
    "FeatureExtractor",
    "NeighborMemo",
    "TRAINING_BLOCK",
    "nearest_samples",
]

#: Rows per block of a training-set build (:meth:`FeatureExtractor.training_rows`)
#: and of a prediction block's coordinate columns: the block's temporaries
#: stay near 1 MB while the per-block overhead is a few dozen NumPy calls.
TRAINING_BLOCK = 4096


def nearest_samples(
    tree: cKDTree, query_points: np.ndarray, num_neighbors: int, workers: int = -1
) -> np.ndarray:
    """``(Q, num_neighbors)`` indices of each query's nearest tree points, nearest first.

    Distance ties (common between lattice points) keep the kd-tree's own
    order, which depends only on the tree's points and on the query
    point, so every tree built over the same point array answers alike.
    A tree with fewer than ``num_neighbors`` points repeats the farthest.
    """
    k = min(num_neighbors, tree.n)
    _, idx = tree.query(query_points, k=k, workers=workers)
    if k == 1:
        idx = idx[:, None]
    if k < num_neighbors:
        pad = np.repeat(idx[:, -1:], num_neighbors - k, axis=1)
        idx = np.concatenate([idx, pad], axis=1)
    return idx


class NeighborMemo:
    """What the prediction path derives from one ``(sample, query array)`` pair.

    ``idx`` holds the ``(Q, num_neighbors)`` nearest-sample indices.
    ``block`` is the ``(Q, feature_size)`` prediction input built over
    them by :meth:`FeatureExtractor.prediction_block`, or ``None`` until
    first use; ``block_key`` names the coordinate normalization and dtype
    it was built for.  Warm campaign workers keep one memo per chunk and
    install it in their extractor before predicting.
    """

    __slots__ = ("sample", "query", "idx", "block", "block_key")

    def __init__(self, sample: SampledField, query: np.ndarray, idx: np.ndarray) -> None:
        self.sample = sample
        self.query = query
        self.idx = idx
        self.block: np.ndarray | None = None
        self.block_key: tuple | None = None


class FeatureExtractor:
    """Builds FCNN inputs/targets from a sampled field.

    Parameters
    ----------
    num_neighbors:
        Sampled points per feature vector; the paper uses 5.
    include_gradients:
        Whether targets carry the x/y/z gradients alongside the scalar
        (the paper's design; ``False`` reproduces the Fig 8 ablation).
    workers:
        kd-tree query parallelism (-1 = all cores).
    cache_geometry:
        Reuse the sampled point cloud's kd-tree — and the last query's
        neighbor indices and prediction block (a :class:`NeighborMemo`) —
        across calls for the same ``(SampledField, query array)`` objects.
        Chunked inference queries the same sample hundreds of times and
        per-timestep reconstruction repeats the identical void-point query;
        rebuilding the tree and re-running the neighbor search per call
        dominated warm reconstruction time.
        Keyed on object identity — mutating a sample's ``points`` or a
        cached query array in place after a query will go unnoticed.
    """

    def __init__(
        self,
        num_neighbors: int = 5,
        include_gradients: bool = True,
        workers: int = -1,
        cache_geometry: bool = True,
    ) -> None:
        if num_neighbors < 1:
            raise ValueError(f"num_neighbors must be >= 1, got {num_neighbors}")
        self.num_neighbors = int(num_neighbors)
        self.include_gradients = bool(include_gradients)
        self.workers = int(workers)
        self.cache_geometry = bool(cache_geometry)
        self._cached_sample: SampledField | None = None
        self._cached_tree: cKDTree | None = None
        self._memo: NeighborMemo | None = None

    def __getstate__(self) -> dict:
        # A copy starts with a cold memo: it is keyed on object identity,
        # which no copy keeps, and pickling the prediction block into every
        # worker payload would cost more than rebuilding it.
        state = self.__dict__.copy()
        state.update(_cached_sample=None, _cached_tree=None, _memo=None)
        return state

    def clear_cache(self) -> None:
        """Drop the memoized kd-tree, neighbor indices and prediction block."""
        self._cached_sample = self._cached_tree = self._memo = None

    def _tree(self, sample: SampledField) -> cKDTree:
        """The sample's kd-tree, cached per sample object when enabled."""
        if not self.cache_geometry:
            return cKDTree(sample.points)
        if self._cached_sample is not sample:
            self._cached_tree = cKDTree(sample.points)
            self._cached_sample = sample
        return self._cached_tree

    # --------------------------------------------------------------- sizes
    @property
    def feature_size(self) -> int:
        """Input width: k * (x, y, z, value) + void (x, y, z)."""
        return self.num_neighbors * 4 + 3

    @property
    def target_size(self) -> int:
        """Output width: scalar (+ 3 gradients when enabled)."""
        return 4 if self.include_gradients else 1

    # ------------------------------------------------------------ features
    def features(
        self,
        sample: SampledField,
        query_points: np.ndarray,
        normalizer: Normalizer,
    ) -> np.ndarray:
        """Assemble ``(Q, feature_size)`` inputs for arbitrary query points."""
        query_points = np.atleast_2d(np.asarray(query_points, dtype=np.float64))
        idx = self._memo_indices(sample, query_points)

        neighbor_xyz = normalizer.normalize_coords(sample.points[idx.ravel()]).reshape(
            len(query_points), self.num_neighbors, 3
        )
        neighbor_val = normalizer.normalize_values(sample.values[idx])[..., None]
        neighbor_feat = np.concatenate([neighbor_xyz, neighbor_val], axis=2).reshape(
            len(query_points), self.num_neighbors * 4
        )
        query_feat = normalizer.normalize_coords(query_points)
        return np.concatenate([neighbor_feat, query_feat], axis=1)

    def _neighbor_indices(self, sample: SampledField, query_points: np.ndarray) -> np.ndarray:
        """``(Q, num_neighbors)`` nearest-sample indices, nearest first.

        The one kd-tree query of the extractor (:func:`nearest_samples`
        over the sample's cached tree).  Training calls it directly: a
        training set is built once per sample, so its query is never
        memoized and never displaces the prediction memo.
        """
        return nearest_samples(
            self._tree(sample), query_points, self.num_neighbors, self.workers
        )

    def _memo_indices(self, sample: SampledField, query_points: np.ndarray) -> np.ndarray:
        """:meth:`_neighbor_indices`, memoized for the last ``(sample, query)`` pair.

        With ``cache_geometry`` the result is kept in a
        :class:`NeighborMemo` for the last ``(sample, query_points)``
        *object* pair: reconstructing every timestep of a campaign
        re-queries the identical void positions
        (:meth:`SampledField.void_points` returns a cached array), so the
        kd-tree query — the dominant cost of warm reconstruction — runs
        once per geometry instead of once per call.
        """
        memo = self._memo
        if (
            self.cache_geometry
            and memo is not None
            and memo.sample is sample
            and memo.query is query_points
            and memo.idx.shape[1] == self.num_neighbors
        ):
            return memo.idx
        idx = self._neighbor_indices(sample, query_points)
        if self.cache_geometry:
            self._memo = NeighborMemo(sample, query_points, idx)
        return idx

    def features_into(
        self,
        sample: SampledField,
        query_points: np.ndarray,
        normalizer: Normalizer,
        out: np.ndarray,
        workspace=None,
        neighbor_idx: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`features` writing into a preallocated ``(Q, feature_size)`` block.

        Per-neighbor columns are filled with strided ufunc ``out=`` writes,
        and the kd-tree gathers land in ``workspace`` buffers (a
        :class:`repro.perf.Workspace`) when given.  ``neighbor_idx`` lets a
        caller that has already resolved (or cached) the ``(Q,
        num_neighbors)`` nearest-sample indices for this block skip the
        kd-tree query.  The arithmetic sequence (gather, subtract origin,
        divide by span; subtract mean, divide by std) matches
        :meth:`features`, so the block is bit-identical to the
        corresponding slice of the allocating result.  Every element is
        computed in float64 and rounded once as it is written, so a
        float32 ``out`` equals the float64 block cast to float32, bit for
        bit.
        """
        query_points = np.atleast_2d(np.asarray(query_points, dtype=np.float64))
        nq = len(query_points)
        kk = self.num_neighbors
        if out.shape != (nq, self.feature_size):
            raise ValueError(
                f"out has shape {out.shape}, expected {(nq, self.feature_size)}"
            )
        idx = (
            neighbor_idx
            if neighbor_idx is not None
            else self._memo_indices(sample, query_points)
        )

        if workspace is not None:
            pbuf = workspace.buffer(("feat", "pts"), (nq * kk, 3), dtype=np.float64)
            if sample.points.dtype == np.float64:
                np.take(sample.points, idx.ravel(), axis=0, out=pbuf)
            else:
                pbuf[...] = sample.points[idx.ravel()]
        else:
            pbuf = np.asarray(sample.points, dtype=np.float64)[idx.ravel()]

        # Neighbor coordinates: (pts - origin) / span per neighbor column,
        # the difference held in float64 and the quotient rounded into out.
        pts3 = pbuf.reshape(nq, kk, 3)
        for j in range(kk):  # k is 5: a handful of strided block writes
            diff = np.subtract(pts3[:, j, :], normalizer.origin)
            np.divide(diff, normalizer.span, out=out[:, 4 * j : 4 * j + 3])
        # The query's own normalized coordinates fill the last three columns.
        diff = np.subtract(query_points, normalizer.origin)
        np.divide(diff, normalizer.span, out=out[:, 4 * kk :])
        return self.values_into(sample, normalizer, out, idx, workspace=workspace)

    def values_into(
        self,
        sample: SampledField,
        normalizer: Normalizer,
        out: np.ndarray,
        neighbor_idx: np.ndarray,
        workspace=None,
    ) -> np.ndarray:
        """Fill only the neighbor-value columns of a ``(Q, feature_size)`` block.

        The value half of :meth:`features_into` — gather, subtract mean,
        divide by std — with the same ops, so a block whose coordinate
        columns are already in place comes out bit-identical to a fresh
        :meth:`features_into` block.
        """
        nq, kk = neighbor_idx.shape
        if workspace is not None:
            vbuf = workspace.buffer(("feat", "vals"), (nq, kk), dtype=np.float64)
            if sample.values.dtype == np.float64:
                np.take(sample.values, neighbor_idx, out=vbuf)
            else:
                vbuf[...] = sample.values[neighbor_idx]
        else:
            vbuf = sample.values[neighbor_idx].astype(np.float64)
        vbuf -= normalizer.value_mean
        vbuf /= normalizer.value_std
        out[:, 3 : 4 * kk : 4] = vbuf
        return out

    def prediction_block(
        self,
        sample: SampledField,
        query_points: np.ndarray,
        normalizer: Normalizer,
        dtype=np.float64,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(block, idx)``: prediction inputs whose coordinate columns are built.

        Of the ``feature_size`` columns, all but the ``num_neighbors``
        value columns — each neighbor's normalized (x, y, z) and the
        query's own — depend only on where the samples and queries are
        and on the coordinate normalization, never on sample values.
        They are built once per geometry by :meth:`features_into`,
        ``TRAINING_BLOCK`` rows at a time, into a ``(Q, feature_size)``
        block of the compute ``dtype`` (each element rounded once) and
        kept in the :class:`NeighborMemo` beside the neighbor indices.
        Callers refill the value columns with :meth:`values_into` before
        each use; the block is the memo's, shared with every later caller
        of the same geometry.  A new sample, query array, normalization
        origin/span or dtype rebuilds it.
        """
        idx = self._memo_indices(sample, query_points)
        memo = self._memo
        if memo is None or memo.idx is not idx:
            # Geometry memo off: the block lives for this call only.
            memo = NeighborMemo(sample, query_points, idx)
        key = (normalizer.origin.tobytes(), normalizer.span.tobytes(), np.dtype(dtype).str)
        if memo.block is None or memo.block_key != key:
            block = np.empty((len(idx), self.feature_size), dtype=dtype)
            for start in range(0, len(idx), TRAINING_BLOCK):
                rows = slice(start, start + TRAINING_BLOCK)
                self.features_into(
                    sample, query_points[rows], normalizer, block[rows], neighbor_idx=idx[rows]
                )
            memo.block, memo.block_key = block, key
        return memo.block, idx

    # ------------------------------------------------------------- targets
    def targets(
        self,
        field: TimestepField,
        flat_indices: np.ndarray,
        normalizer: Normalizer,
        gradients: np.ndarray | None = None,
    ) -> np.ndarray:
        """Assemble ``(Q, target_size)`` targets from the full field.

        ``gradients`` is the field's ``(P, 3)`` :func:`field_gradients`
        when the caller already has it (a training-set build computes it
        once per timestep); otherwise it is computed here.
        """
        flat_indices = np.asarray(flat_indices, dtype=np.int64)
        scalar = normalizer.normalize_values(field.flat[flat_indices])[:, None]
        if not self.include_gradients:
            return scalar
        if gradients is None:
            gradients = field_gradients(field.grid, field.values)
        grads = gradients[flat_indices]
        return np.concatenate([scalar, normalizer.normalize_gradients(grads)], axis=1)

    def training_gradients(self, field: TimestepField) -> np.ndarray | None:
        """The field gradients a training-set build needs, or ``None`` without a gradient head."""
        return field_gradients(field.grid, field.values) if self.include_gradients else None

    # ------------------------------------------------------- training sets
    def training_rows(
        self,
        field: TimestepField,
        sample: SampledField,
        normalizer: Normalizer,
        block: int,
        gradients: np.ndarray | None,
        rows: np.ndarray | None = None,
        out: tuple[np.ndarray, np.ndarray] | None = None,
        dtype=np.float64,
    ):
        """Write the training rows over ``sample``'s voids, ``block`` rows at a time.

        ``rows`` picks void locations by position in
        :meth:`SampledField.void_indices` (all of them, in order, by
        default).  One kd-tree query finds their neighbors; each block then
        gets its inputs from :meth:`features_into` and its targets from
        :meth:`targets` over ``gradients`` (:meth:`training_gradients`).
        With ``out=(x, y)`` the blocks land in place in consecutive rows of
        ``x`` and ``y``; otherwise one ``dtype`` pair is refilled for every
        block, so a block is valid until the next one is requested.
        Yields each ``(x, y)`` block once written, so peak memory is the
        caller's arrays plus one block and the query's neighbor indices.

        The rows equal the allocating :meth:`features` and :meth:`targets`
        over the same points, bit for bit; float32 rows equal them cast to
        float32 (each element is rounded once).  Every row is computed
        independently, so the block height changes no bit.
        """
        if field.grid != sample.grid:
            raise ValueError("field and sample must live on the same grid")
        void = sample.void_indices()
        if rows is not None:
            void = void[rows]
        points = field.grid.index_to_position(field.grid.flat_to_multi(void))
        idx = self._neighbor_indices(sample, points)
        if out is None:
            height = min(block, len(void))
            spare = (
                np.empty((height, self.feature_size), dtype=dtype),
                np.empty((height, self.target_size), dtype=dtype),
            )
        for start in range(0, len(void), block):
            stop = min(start + block, len(void))
            if out is None:
                x, y = spare[0][: stop - start], spare[1][: stop - start]
            else:
                x, y = out[0][start:stop], out[1][start:stop]
            self.features_into(
                sample, points[start:stop], normalizer, x, neighbor_idx=idx[start:stop]
            )
            y[...] = self.targets(field, void[start:stop], normalizer, gradients)
            yield x, y

    def training_data(
        self,
        field: TimestepField,
        sample: SampledField,
        normalizer: Normalizer,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Inputs/targets over the sample's void locations (Fig 4 workflow).

        Built in place by :meth:`training_rows`, ``TRAINING_BLOCK`` rows
        at a time.
        """
        n = len(sample.void_indices())
        x = np.empty((n, self.feature_size))
        y = np.empty((n, self.target_size))
        gradients = self.training_gradients(field)
        for _ in self.training_rows(
            field, sample, normalizer, TRAINING_BLOCK, gradients, out=(x, y)
        ):
            pass  # each block is already in place
        return x, y

    def fit_normalizer(
        self,
        sample: SampledField,
        field: TimestepField | None = None,
        grid: UniformGrid | None = None,
    ) -> Normalizer:
        """Fit normalization statistics.

        At training time pass ``field`` so gradient scales come from real
        gradients; at inference time the sample alone suffices.
        """
        g = grid if grid is not None else sample.grid
        gradients = None
        if field is not None and self.include_gradients:
            gradients = field_gradients(field.grid, field.values)
        return Normalizer.fit(g, sample.values, gradients)
