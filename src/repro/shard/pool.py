"""Shard-parallel reconstruction over the shared-memory transport.

:class:`ShardReconstructionPool` speaks the same sink protocol as
:class:`repro.perf.campaign.WarmReconstructionPool` (``bind`` once, then
``publish``/``reconstruct`` per timestep) but decomposes each timestep's
void prediction **spatially**: every task covers a chunk of one shard's
owned (interior) voids, reconstructed from only the samples inside that
shard's halo-extended box.

Halo exchange rides the existing :class:`~repro.perf.shm.SharedArrayBundle`:
the parent publishes the *global* sample values once per timestep, and each
shard worker gathers its extended-box subset — interior-owned samples plus
the halo samples owned by neighboring shards — through a precomputed
selection (``sample_order``).  No point-to-point messages, no duplicated
value segments; a sample sitting in ``h`` halos is read ``h + 1`` times
from the one shared row.

The stitcher is the ``void_order`` permutation: workers write their chunk's
predictions into the shard-grouped ``out`` segment contiguously, and the
parent scatters it back to global void order (the permutation was proven a
partition of unity at bind time), overlays the exact sample values and
applies the serial path's non-finite fallback — so a seam defect can only
come from neighbor selection, which the canonical kNN tie-break plus an
adequate halo makes bit-identical to the unsharded path (see
:meth:`repro.shard.ShardedCampaignGeometry.seam_check`).

:class:`LocalShardSink` executes the identical per-shard compute in-process
— the fallback when shared memory is unavailable and the reference the pool
is tested bit-identical against.
"""

from __future__ import annotations

import uuid

import numpy as np

from repro.core.features import TIE_BREAK_PAD, NeighborMemo, canonical_neighbors
from repro.obs import counter as obs_counter
from repro.obs import record_event, span
from repro.parallel.chunking import aligned_chunks
from repro.parallel.executor import ParallelExecutor
from repro.perf import shm as _shm
from repro.perf.campaign import CampaignGeometry, _nonfinite_fallback, _predict_block
from repro.perf.shm import SharedArrayBundle
from repro.perf.weights import apply_weight_delta, restore_weights, snapshot_weights, weight_delta
from repro.resilience.report import ReconstructionReport
from repro.sampling.base import SampledField
from repro.shard.geometry import ShardedCampaignGeometry
from repro.shard.plan import ShardPlan

__all__ = [
    "ShardReconstructionPool",
    "LocalShardSink",
    "make_shard_sink",
    "SHARD_SCOPES",
]

#: Fine-tune scopes a shard sink understands.  ``"global"``: one model per
#: timestep reconstructs every shard (bit-identical to unsharded when the
#: halo holds the kNN stencil).  ``"local"``: one model per (timestep,
#: shard), trained on the shard's own extended box with a shard-local
#: normalizer (SNR-parity, not bit-identity, vs unsharded).
SHARD_SCOPES = ("global", "local")

#: Per-process cap on cached shard worker states.
_SHARD_STATE_MAX = 4


def _shard_chunks(length: int, num_chunks: int, block: int) -> list[tuple[int, int]]:
    """Chunk one shard's void segment, never leaving a 1-row matmul block.

    Within a shard the query rows are a gathered subset of the global void
    order, so chunk boundaries need no *global* alignment for bit-identity:
    the network's wide hidden gemms are row-subset deterministic for blocks
    of two or more rows, and the skinny output head — where BLAS kernels
    *do* vary their accumulation order with the row count — runs a
    fixed-order einsum at inference (``_DETERMINISTIC_N`` in
    :mod:`repro.nn.layers`).  Single-row blocks would route the hidden
    gemms through gemv, whose accumulation order differs, so any chunk
    whose trailing predict block would be one row is reshaped (split or
    merged) to avoid it.
    """
    chunks = [list(c) for c in aligned_chunks(length, num_chunks, block)]
    if not chunks:
        return []
    start, stop = chunks[-1]
    if (stop - start) % block == 1 and length > 1:
        # Rewrite the tail so the final chunk is exactly two rows.  The
        # chunk before it ends at size ≡ block-1 (mod block): for any
        # block >= 3 (production uses >= 16384) neither part's trailing
        # predict block is a single row.
        if stop - start == 1:
            prev = chunks.pop()
            start = chunks[-1][0]
            assert prev[1] == stop
        chunks[-1] = [start, stop - 2]
        if chunks[-1][0] == chunks[-1][1]:
            chunks.pop()
        chunks.append([stop - 2, stop])
    return [tuple(c) for c in chunks]


# --------------------------------------------------------------------------
# worker-side compute state


class _ShardContext:
    """One shard's warm reconstruction inputs inside a worker process."""

    def __init__(self, state: "_ShardState", s: int) -> None:
        from scipy.spatial import cKDTree

        init = state.init
        geometry = state.geometry
        shard = state.plan.shards[s]
        soff = init["sample_offsets"]
        self.sel = state.sample_order[soff[s] : soff[s + 1]]
        global_sample = geometry.indices[self.sel]
        if init["scope"] == "local":
            self.norm_grid = shard.local_grid
            self.shell = SampledField(
                grid=shard.local_grid,
                indices=shard.global_to_local(global_sample),
                values=np.zeros(self.sel.size, dtype=np.float64),
                fraction=geometry.fraction,
            )
        else:
            # Global scope keeps the shell on the *global* grid so sample
            # positions (and therefore features) are bitwise the unsharded
            # ones; only the candidate set shrinks to the extended box.
            self.norm_grid = geometry.grid
            self.shell = SampledField(
                grid=geometry.grid,
                indices=global_sample,
                values=np.zeros(self.sel.size, dtype=np.float64),
                fraction=geometry.fraction,
            )
        self.tree = cKDTree(self.shell.points)
        self.shard = shard
        self._slabs: dict[tuple[int, int, int], NeighborMemo] = {}

    def slab(
        self, state: "_ShardState", start: int, stop: int, num_neighbors: int, workers: int
    ) -> NeighborMemo:
        """Cached neighbor memo (positions, canonical indices, columns) per chunk."""
        key = (start, stop, num_neighbors)
        cached = self._slabs.get(key)
        if cached is not None:
            return cached
        voff = state.init["void_offsets"]
        owned = state.void_order[voff[self.shard.index] + start : voff[self.shard.index] + stop]
        if state.init["scope"] == "local":
            lg = self.shard.local_grid
            local = self.shard.global_to_local(state.geometry.void_indices[owned])
            points = lg.index_to_position(lg.flat_to_multi(local))
        else:
            points = state.geometry.void_points[owned]
        k = min(num_neighbors, self.shell.num_samples)
        kq = min(k + TIE_BREAK_PAD, self.shell.num_samples)
        dist, idx = self.tree.query(points, k=kq, workers=workers)
        if kq == 1:
            dist, idx = dist[:, None], idx[:, None]
        idx = canonical_neighbors(dist, idx, k)
        if k < num_neighbors:
            pad = np.repeat(idx[:, -1:], num_neighbors - k, axis=1)
            idx = np.concatenate([idx, pad], axis=1)
        memo = self._slabs[key] = NeighborMemo(self.shell, points, idx)
        return memo


class _ShardState:
    """Warm per-process state for one bound shard campaign.

    Works over any mapping of the bundle's arrays — shared-memory views in
    pool workers, plain arrays inside :class:`LocalShardSink` — so both
    sinks run the exact same compute.
    """

    def __init__(self, arrays: dict, init: dict, handles: list | None = None) -> None:
        from repro.core.normalization import Normalizer
        from repro.core.reconstructor import FCNNReconstructor
        from repro.nn.network import from_spec

        self.arrays = arrays
        self.handles = handles if handles is not None else []
        self.init = init
        self.plan = ShardPlan.create(init["grid"], init["counts"], init["halo"])
        indices = np.array(arrays["indices"], dtype=np.int64, copy=True)
        self.geometry = CampaignGeometry(init["grid"], indices, init["fraction"])
        self.sample_order = np.array(arrays["sample_order"], dtype=np.int64, copy=True)
        self.void_order = np.array(arrays["void_order"], dtype=np.int64, copy=True)
        self.models: dict[str, FCNNReconstructor] = {}
        self.num_weights: dict[str, int] = {}
        self.scratch: dict[str, np.ndarray] = {}
        for tag in init["tags"]:
            meta = init["models"][tag]
            recon = FCNNReconstructor(**meta["ctor"])
            recon.model = from_spec(meta["spec"])
            recon.dtype_policy.cast_model(recon.model)
            recon.normalizer = Normalizer.from_dict(meta["normalizer"])
            self.models[tag] = recon
            self.num_weights[tag] = int(meta["num_weights"])
            self.scratch[tag] = np.empty(meta["num_weights"], dtype=np.float64)
        self._contexts: dict[int, _ShardContext] = {}

    def context(self, s: int) -> _ShardContext:
        ctx = self._contexts.get(s)
        if ctx is None:
            ctx = self._contexts[s] = _ShardContext(self, s)
        return ctx

    def run(self, payload: dict) -> int:
        """Reconstruct one (slot, tag, shard, chunk) into the ``out`` segment."""
        slot = int(payload["slot"])
        tag = payload["tag"]
        ti = int(payload["tag_index"])
        s = int(payload["shard"])
        start, stop = int(payload["start"]), int(payload["stop"])
        recon = self.models[tag]
        w = self.num_weights[tag]
        ctx = self.context(s)

        flat = apply_weight_delta(
            self.arrays["weights_base"][ti, :w],
            self.arrays["weights_delta"][slot, ti, s, :w],
            out=self.scratch[tag],
        )
        restore_weights(recon.model, flat)
        np.take(self.arrays["values"][slot], ctx.sel, out=ctx.shell.values)

        extractor = recon.extractor
        memo = ctx.slab(self, start, stop, extractor.num_neighbors, extractor.workers)
        if extractor.cache_geometry:
            extractor._memo = memo
        base = int(self.init["void_offsets"][s])
        self.arrays["out"][slot, ti, base + start : base + stop] = recon.predict_values(
            ctx.shell, memo.query, ctx.norm_grid
        )
        return stop - start

    def close(self) -> None:
        self.arrays = {}
        self._contexts.clear()
        for shm in self.handles:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view still referenced
                pass
        self.handles = []


#: (campaign id, epoch) -> warm shard state, module-level so pool workers
#: (and the in-process serial fallback) keep attachments across tasks.
_SHARD_STATE: dict[tuple[str, int], _ShardState] = {}


def _evict_shard_state(campaign: str, keep_epoch: int | None = None) -> None:
    for key in [k for k in _SHARD_STATE if k[0] == campaign and k[1] != keep_epoch]:
        _SHARD_STATE.pop(key).close()


def _shard_state(payload: dict) -> _ShardState:
    key = (payload["campaign"], payload["epoch"])
    state = _SHARD_STATE.get(key)
    if state is not None:
        return state
    _evict_shard_state(payload["campaign"], keep_epoch=payload["epoch"])
    while len(_SHARD_STATE) >= _SHARD_STATE_MAX:
        _SHARD_STATE.pop(next(iter(_SHARD_STATE))).close()
    init = payload["init"]
    handles: list = []
    arrays: dict[str, np.ndarray] = {}
    for name, spec in init["specs"].items():
        shm = _shm._attach(spec.shm_name)
        handles.append(shm)
        arrays[name] = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    state = _ShardState(arrays, init, handles)
    _SHARD_STATE[key] = state
    return state


def _shard_worker(payload: dict) -> int:
    """Pool task: attach (once), then reconstruct one shard chunk."""
    return _shard_state(payload).run(payload)


# --------------------------------------------------------------------------
# shared bind/publish plumbing


def _model_metas(models: dict) -> tuple[dict, dict]:
    """Per-tag rebuild metadata + base flat weights (WarmReconstructionPool's)."""
    metas, base = {}, {}
    for tag, model in models.items():
        network, normalizer = model._require_trained()
        flat = snapshot_weights(network).data
        base[tag] = np.array(flat, dtype=np.float64, copy=True)
        metas[tag] = {
            "ctor": {
                "hidden_layers": model.hidden_layers,
                "num_neighbors": model.extractor.num_neighbors,
                "include_gradients": model.extractor.include_gradients,
                "learning_rate": model.learning_rate,
                "batch_size": model.batch_size,
                "gradient_loss_weight": model.gradient_loss_weight,
                "seed": model.seed,
                "fast_path": model.fast_path,
                "dtype_policy": model.dtype_policy.compute,
            },
            "spec": network.spec(),
            "normalizer": normalizer.as_dict(),
            "num_weights": int(flat.size),
        }
    return metas, base


def _write_deltas(
    delta_view: np.ndarray,
    slot: int,
    tags: tuple[str, ...],
    base: dict[str, np.ndarray],
    num_shards: int,
    weights: dict,
) -> None:
    """Encode per-tag weights into per-shard XOR deltas for one slot.

    A flat ``(W,)`` vector (global scope: one model for every shard) is
    encoded once and broadcast; an ``(S, W)`` stack (local scope) gets one
    delta row per shard.
    """
    for ti, tag in enumerate(tags):
        flat = np.asarray(weights[tag], dtype=np.float64)
        if flat.ndim == 1:
            delta = weight_delta(base[tag], flat)
            delta_view[slot, ti, :, : flat.size] = delta[None, :]
        else:
            if flat.shape[0] != num_shards:
                raise ValueError(
                    f"per-shard weights for {tag!r} must have {num_shards} rows, "
                    f"got {flat.shape[0]}"
                )
            for s in range(num_shards):
                delta_view[slot, ti, s, : flat.shape[1]] = weight_delta(
                    base[tag], flat[s]
                )


def _chunk_payloads(
    sharded: ShardedCampaignGeometry, chunks_per_shard: int, block: int
) -> list[dict]:
    """Static (shard, chunk) task templates covering every owned void."""
    payloads = []
    for s, sg in enumerate(sharded.shards):
        for start, stop in _shard_chunks(sg.num_voids, chunks_per_shard, block):
            payloads.append({"shard": s, "start": start, "stop": stop})
    return payloads


def _assemble(
    geometry: CampaignGeometry,
    void_order: np.ndarray,
    grouped_pred: np.ndarray,
    values: np.ndarray,
    on_nonfinite: str,
    report: ReconstructionReport,
) -> np.ndarray:
    """Stitch shard-grouped predictions into the global field.

    ``void_order`` is a proven permutation of the void range, so the
    scatter writes every void exactly once; sample locations keep their
    exact published values; the non-finite fallback is the serial path's
    (global tree, global counters) — bit-identical to the unsharded sinks.
    """
    pred = np.empty(geometry.num_voids, dtype=np.float64)
    pred[void_order] = grouped_pred
    if not np.isfinite(pred).all():
        if on_nonfinite == "raise":
            from repro.resilience.health import NumericalHealthError

            count = int((~np.isfinite(pred)).sum())
            raise NumericalHealthError(
                f"FCNN produced {count}/{pred.size} non-finite predictions; "
                "the model state is numerically poisoned"
            )
        pred = _nonfinite_fallback(
            pred, geometry.points, values, geometry.void_points, report
        )
    out = geometry.grid.empty_field().ravel()
    out[geometry.indices] = values
    out[geometry.void_indices] = pred
    return out.reshape(geometry.grid.dims)


# --------------------------------------------------------------------------
# sinks


class LocalShardSink:
    """In-process shard sink — the pool's serial twin and shm-less fallback.

    Runs the identical per-shard compute (:class:`_ShardState`) over plain
    arrays, one chunk at a time, so it is bit-identical to the pool by
    construction and keeps working when shared memory is unavailable.
    """

    def __init__(self, slots: int = 2, scope: str = "global") -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if scope not in SHARD_SCOPES:
            raise ValueError(f"scope must be one of {SHARD_SCOPES}, got {scope!r}")
        self.slots = int(slots)
        self.scope = scope
        self.geometry: CampaignGeometry | None = None
        self.sharded: ShardedCampaignGeometry | None = None
        self._state: _ShardState | None = None
        self._tags: tuple[str, ...] = ()
        self._base: dict[str, np.ndarray] = {}
        self._payloads: dict[str, list[dict]] = {}
        self._timesteps: list[int | None] = []
        self._seq = 0

    @property
    def tags(self) -> tuple[str, ...]:
        return self._tags

    def bind(self, sharded: ShardedCampaignGeometry, models: dict) -> None:
        self.close()
        tags = tuple(models)
        if not tags:
            raise ValueError("bind needs at least one tagged model")
        geometry = sharded.geometry
        metas, base = _model_metas(models)
        width = max(meta["num_weights"] for meta in metas.values())
        num_shards = sharded.num_shards
        arrays = {
            "indices": np.array(geometry.indices, copy=True),
            "values": np.zeros((self.slots, geometry.num_samples), dtype=np.float64),
            "weights_base": np.zeros((len(tags), width), dtype=np.float64),
            "weights_delta": np.zeros(
                (self.slots, len(tags), num_shards, width), dtype=np.uint64
            ),
            "out": np.zeros((self.slots, len(tags), geometry.num_voids), dtype=np.float64),
            "sample_order": np.array(sharded.sample_order, copy=True),
            "void_order": np.array(sharded.void_order, copy=True),
        }
        for ti, tag in enumerate(tags):
            arrays["weights_base"][ti, : base[tag].size] = base[tag]
        init = {
            "grid": geometry.grid,
            "fraction": geometry.fraction,
            "counts": sharded.plan.counts,
            "halo": sharded.plan.halo,
            "scope": self.scope,
            "tags": tags,
            "models": metas,
            "sample_offsets": tuple(int(v) for v in sharded.sample_offsets),
            "void_offsets": tuple(int(v) for v in sharded.void_offsets),
        }
        self._state = _ShardState(arrays, init)
        self._payloads = {
            tag: _chunk_payloads(sharded, 1, _predict_block(models[tag])) for tag in tags
        }
        self.geometry = geometry
        self.sharded = sharded
        self._tags = tags
        self._base = base
        self._timesteps = [None] * self.slots
        self._seq = 0

    def publish(self, timestep: int, values: np.ndarray, weights: dict) -> int:
        if self._state is None or self.sharded is None:
            raise RuntimeError("sink is not bound; call bind() first")
        if set(weights) != set(self._tags):
            raise ValueError(
                f"publish needs weights for every bound tag {sorted(self._tags)}, "
                f"got {sorted(weights)}"
            )
        slot = self._seq % self.slots
        self._seq += 1
        self._state.arrays["values"][slot][...] = values
        _write_deltas(
            self._state.arrays["weights_delta"],
            slot,
            self._tags,
            self._base,
            self.sharded.num_shards,
            weights,
        )
        self._timesteps[slot] = int(timestep)
        return slot

    def reconstruct(
        self, slot: int, tag: str, on_nonfinite: str = "fallback"
    ) -> tuple[np.ndarray, ReconstructionReport]:
        if self._state is None or self.geometry is None or self.sharded is None:
            raise RuntimeError("sink is not bound; call bind() first")
        if on_nonfinite not in ("fallback", "raise"):
            raise ValueError(
                f"on_nonfinite must be 'fallback' or 'raise', got {on_nonfinite!r}"
            )
        ti = self._tags.index(tag)
        with span(
            "campaign.shard.reconstruct",
            tag=tag,
            shards=self.sharded.num_shards,
            chunks=len(self._payloads[tag]),
            timestep=self._timesteps[slot],
        ):
            for template in self._payloads[tag]:
                self._state.run(
                    {"slot": int(slot), "tag": tag, "tag_index": ti, **template}
                )
            report = ReconstructionReport(
                total_points=int(self.geometry.grid.num_points),
                fallback_method="nearest",
            )
            values = self._state.arrays["values"][slot]
            grouped = np.array(self._state.arrays["out"][slot, ti], copy=True)
            return (
                _assemble(
                    self.geometry,
                    self._state.void_order,
                    grouped,
                    values,
                    on_nonfinite,
                    report,
                ),
                report,
            )

    def close(self) -> None:
        if self._state is not None:
            self._state.close()
        self._state = None
        self.geometry = None
        self.sharded = None
        self._tags = ()
        self._base = {}
        self._payloads = {}

    def __enter__(self) -> "LocalShardSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class ShardReconstructionPool:
    """Persistent shard workers reconstructing timesteps via shared memory.

    One :class:`SharedArrayBundle` per campaign carries

    ========================  ===================================================
    ``indices``               ``(M,)`` global sampled flat indices — shipped once
    ``values``                ``(slots, M)`` global per-slot sample values
    ``weights_base``          ``(T, W)`` base flat weights per tag — shipped once
    ``weights_delta``         ``(slots, T, S, W)`` per-shard XOR deltas
    ``out``                   ``(slots, T, K)`` predictions, grouped by shard
    ``sample_order``          halo-exchange selections (all shards, concatenated)
    ``void_order``            the stitching permutation (partition of unity)
    ========================  ===================================================

    After :meth:`bind`, task payloads carry only ``(campaign id, epoch,
    slot, tag, shard, chunk bounds)`` plus the static init block; workers
    attach once and keep per-shard kd-trees, neighbor slabs and rebuilt
    models warm across every timestep.  Crashed workers get the executor's
    recovery semantics (serial in-process re-run, pool recycle), identical
    to :class:`~repro.perf.campaign.WarmReconstructionPool`.
    """

    def __init__(
        self,
        executor: ParallelExecutor | None = None,
        max_workers: int | None = None,
        num_chunks: int | None = None,
        slots: int = 2,
        scope: str = "global",
        worker_fn=None,
    ) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if scope not in SHARD_SCOPES:
            raise ValueError(f"scope must be one of {SHARD_SCOPES}, got {scope!r}")
        self.slots = int(slots)
        self.scope = scope
        self._owns_executor = executor is None
        self.executor = executor if executor is not None else ParallelExecutor(
            max_workers=max_workers, retries=1, persistent=True
        )
        self.num_chunks = num_chunks
        self.worker_fn = worker_fn if worker_fn is not None else _shard_worker
        self.campaign_id = uuid.uuid4().hex
        self.epoch = -1
        self.geometry: CampaignGeometry | None = None
        self.sharded: ShardedCampaignGeometry | None = None
        self._bundle: SharedArrayBundle | None = None
        self._tags: tuple[str, ...] = ()
        self._base: dict[str, np.ndarray] = {}
        self._payloads: dict[str, list[dict]] = {}
        self._init: dict = {}
        self._timesteps: list[int | None] = []
        self._seq = 0

    @property
    def tags(self) -> tuple[str, ...]:
        return self._tags

    # ----------------------------------------------------------------- bind
    def bind(self, sharded: ShardedCampaignGeometry, models: dict) -> None:
        """Ship geometry, shard selections + base weights to shared memory.

        Raises ``OSError`` when shared memory is unavailable — callers
        degrade to :class:`LocalShardSink` (see :func:`make_shard_sink`).
        """
        self.unbind()
        tags = tuple(models)
        if not tags:
            raise ValueError("bind needs at least one tagged model")
        geometry = sharded.geometry
        metas, base = _model_metas(models)
        width = max(meta["num_weights"] for meta in metas.values())
        num_shards = sharded.num_shards
        base_matrix = np.zeros((len(tags), width), dtype=np.float64)
        for ti, tag in enumerate(tags):
            base_matrix[ti, : base[tag].size] = base[tag]
        chunks_per_shard = max(1, -(-self._target_chunks() // num_shards))
        self._bundle = SharedArrayBundle.create(
            {
                "indices": geometry.indices,
                "values": np.zeros((self.slots, geometry.num_samples), dtype=np.float64),
                "weights_base": base_matrix,
                "weights_delta": np.zeros(
                    (self.slots, len(tags), num_shards, width), dtype=np.uint64
                ),
                "out": np.zeros(
                    (self.slots, len(tags), geometry.num_voids), dtype=np.float64
                ),
                "sample_order": np.asarray(sharded.sample_order, dtype=np.int64),
                "void_order": np.asarray(sharded.void_order, dtype=np.int64),
            }
        )
        obs_counter("campaign.shm_bundles_created").inc()
        record_event(
            "campaign.shard.bound",
            shards=num_shards,
            counts=list(sharded.plan.counts),
            halo=sharded.plan.halo,
            scope=self.scope,
            halo_samples=int(sum(sharded.halo_imports())),
        )
        self.epoch += 1
        self.geometry = geometry
        self.sharded = sharded
        self._tags = tags
        self._base = base
        self._payloads = {
            tag: _chunk_payloads(sharded, chunks_per_shard, _predict_block(models[tag]))
            for tag in tags
        }
        self._timesteps = [None] * self.slots
        self._seq = 0
        self._init = {
            "specs": self._bundle.specs,
            "grid": geometry.grid,
            "fraction": geometry.fraction,
            "counts": sharded.plan.counts,
            "halo": sharded.plan.halo,
            "scope": self.scope,
            "tags": tags,
            "models": metas,
            "sample_offsets": tuple(int(v) for v in sharded.sample_offsets),
            "void_offsets": tuple(int(v) for v in sharded.void_offsets),
        }

    def _target_chunks(self) -> int:
        if self.num_chunks is not None:
            return int(self.num_chunks)
        return max(1, self.executor.max_workers)

    # -------------------------------------------------------------- publish
    def publish(self, timestep: int, values: np.ndarray, weights: dict) -> int:
        """Write global sample values + per-shard weight deltas to a slot.

        ``weights`` maps each tag to either a flat ``(W,)`` vector (global
        scope: every shard reconstructs with the same model) or an
        ``(S, W)`` stack (local scope: one fine-tuned model per shard).
        Publishing the *global* values row once is the halo exchange:
        workers gather their extended-box subsets — neighbors' halo
        samples included — via the shared ``sample_order`` selections.
        """
        if self._bundle is None or self.sharded is None:
            raise RuntimeError("pool is not bound; call bind() first")
        if set(weights) != set(self._tags):
            raise ValueError(
                f"publish needs weights for every bound tag {sorted(self._tags)}, "
                f"got {sorted(weights)}"
            )
        slot = self._seq % self.slots
        self._seq += 1
        self._bundle.view("values")[slot][...] = values
        _write_deltas(
            self._bundle.view("weights_delta"),
            slot,
            self._tags,
            self._base,
            self.sharded.num_shards,
            weights,
        )
        self._timesteps[slot] = int(timestep)
        return slot

    # ---------------------------------------------------------- reconstruct
    def reconstruct(
        self, slot: int, tag: str, on_nonfinite: str = "fallback"
    ) -> tuple[np.ndarray, ReconstructionReport]:
        """Reconstruct one published slot: shard chunks fan out, parent stitches."""
        if self._bundle is None or self.geometry is None or self.sharded is None:
            raise RuntimeError("pool is not bound; call bind() first")
        if on_nonfinite not in ("fallback", "raise"):
            raise ValueError(
                f"on_nonfinite must be 'fallback' or 'raise', got {on_nonfinite!r}"
            )
        geometry = self.geometry
        ti = self._tags.index(tag)
        payloads = [
            {
                "campaign": self.campaign_id,
                "epoch": self.epoch,
                "init": self._init,
                "slot": int(slot),
                "tag": tag,
                "tag_index": ti,
                **template,
            }
            for template in self._payloads[tag]
        ]
        report = ReconstructionReport(
            total_points=int(geometry.grid.num_points), fallback_method="nearest"
        )
        with span(
            "campaign.shard.reconstruct",
            tag=tag,
            shards=self.sharded.num_shards,
            chunks=len(payloads),
            timestep=self._timesteps[slot],
        ):
            outcomes = self.executor.map_outcomes(self.worker_fn, payloads)
            obs_counter("campaign.shard.chunks").inc(len(payloads))
            for outcome in outcomes:
                if outcome.recovered is not None:
                    obs_counter("campaign.pool.recovered").inc()
                    record_event(
                        "campaign.chunk_recovered",
                        tag=tag,
                        chunk=outcome.index,
                        how=outcome.recovered,
                    )
                if not outcome.ok:
                    if outcome.exception is not None:
                        raise outcome.exception
                    raise RuntimeError(
                        f"shard chunk {outcome.index} ({tag}) failed: {outcome.error}"
                    )
            values = self._bundle.view("values")[slot]
            grouped = np.array(self._bundle.view("out")[slot, ti], copy=True)
            return (
                _assemble(
                    geometry,
                    self.sharded.void_order,
                    grouped,
                    values,
                    on_nonfinite,
                    report,
                ),
                report,
            )

    # ------------------------------------------------------------- teardown
    def unbind(self) -> None:
        """Release the current campaign's shared segments (keeps the executor)."""
        bundle, self._bundle = self._bundle, None
        if bundle is not None:
            bundle.close()
        _evict_shard_state(self.campaign_id)
        self.geometry = None
        self.sharded = None
        self._tags = ()
        self._base = {}
        self._payloads = {}
        self._init = {}

    def close(self) -> None:
        self.unbind()
        if self._owns_executor:
            self.executor.close()

    def __enter__(self) -> "ShardReconstructionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def make_shard_sink(
    sharded: ShardedCampaignGeometry,
    models: dict,
    *,
    executor: ParallelExecutor | None = None,
    max_workers: int | None = None,
    num_chunks: int | None = None,
    slots: int = 2,
    scope: str = "global",
    warm_pool: bool = True,
):
    """Bind the best available shard sink for this environment.

    Mirrors :func:`repro.perf.campaign.make_reconstruction_sink`: the
    shared-memory pool when available, the in-process
    :class:`LocalShardSink` otherwise — both speak the standard sink
    protocol and produce bit-identical fields.
    """
    if warm_pool:
        pool = ShardReconstructionPool(
            executor=executor,
            max_workers=max_workers,
            num_chunks=num_chunks,
            slots=slots,
            scope=scope,
        )
        try:
            pool.bind(sharded, models)
            return pool
        except OSError:
            pool.close()
            record_event("campaign.pool_unavailable", fallback="local")
        except BaseException:
            pool.close()
            raise
    sink = LocalShardSink(slots=slots, scope=scope)
    sink.bind(sharded, models)
    return sink
