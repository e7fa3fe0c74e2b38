# hot-path
"""Fused stacked inference: K served models' void predictions in one pass.

The serving layer's evaluation kernel.  K requests for distinct timesteps
of one namespace become one :class:`repro.nn.batched.ModelStack` forward —
every hidden layer advances all K members per batched BLAS call, and the
skinny output head runs the serial predict path's fixed-accumulation-order
einsum per member — so fused results are **bit-identical, per member, to
the serial** :meth:`repro.core.FCNNReconstructor.predict_values` path for
the same weights (the acceptance contract of ``repro.serve``):

* features per member are filled by the same
  :meth:`~repro.core.FeatureExtractor.features_into` over the same cached
  void positions and memoized neighbor indices;
* block boundaries equal the serial predict blocks
  (``max(batch_size, 16384)``), so every matmul sees the same row count;
* denormalization and the non-finite nearest-neighbor fallback reuse the
  serial path's exact op sequences.

Stacks are LRU-cached by member count: a warm (K) stack's weight tensors
are overwritten in place (:meth:`ModelStack.set_member_weights`) instead
of re-allocated, and all arena buffers live in one reused
:class:`repro.perf.Workspace` — steady-state serving allocates only the
output rows.  The arena keys buffers by tag, not shape, so its memory
follows the largest stack evaluated (bounded by the server's
``max_batch``), not every stack size seen; :meth:`StackEvaluator.close`
releases it.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import numpy as np

from repro.nn.batched import ModelStack
from repro.obs import counter as obs_counter
from repro.obs import gauge as obs_gauge
from repro.obs import span
from repro.perf import Workspace
from repro.perf.campaign import CampaignGeometry, _nonfinite_fallback
from repro.resilience.health import NumericalHealthError
from repro.resilience.report import ReconstructionReport

__all__ = ["StackEvaluator"]


class StackEvaluator:
    """Evaluate K weight sets over one namespace's void geometry, fused."""

    def __init__(
        self,
        base,
        geometry: CampaignGeometry,
        max_stacks: int = 4,
    ) -> None:
        network, normalizer = base._require_trained()
        if base.dtype_policy.compute != "float64":
            raise ValueError(
                "StackEvaluator serves float64 models only (the fused stacked "
                f"engine is float64); base has dtype_policy={base.dtype_policy.compute!r}"
            )
        if max_stacks < 1:
            raise ValueError(f"max_stacks must be >= 1, got {max_stacks}")
        self.base = base
        self.geometry = geometry
        self.max_stacks = int(max_stacks)
        self.block = max(base.batch_size, 16384)
        # The serial predict path's per-grid coordinate renormalization.
        self.local = dataclasses.replace(
            normalizer,
            origin=np.asarray(geometry.grid.origin, dtype=np.float64),
            span=_grid_span(geometry.grid),
        )
        # One stable shell + the geometry's cached void positions keep the
        # extractor's canonical neighbor memo hot across every evaluation.
        self._shell = geometry.shell()
        self._ws = Workspace(dtype=np.float64)
        self._stacks: OrderedDict[int, ModelStack] = OrderedDict()
        self._idx: np.ndarray | None = None

    # ------------------------------------------------------------ geometry
    @property
    def num_voids(self) -> int:
        return self.geometry.num_voids

    def num_chunks(self) -> int:
        """How many aligned predict blocks one full response streams as."""
        return max(1, -(-self.geometry.num_voids // self.block))

    def chunk_bounds(self, chunk: int) -> tuple[int, int]:
        """Void-index bounds of one predict-block chunk."""
        n = self.num_chunks()
        if not (0 <= chunk < n):
            raise IndexError(f"chunk {chunk} out of range for {n} predict block(s)")
        start = chunk * self.block
        return start, min(start + self.block, self.geometry.num_voids)

    def _neighbor_idx(self) -> np.ndarray:
        if self._idx is None:
            self._idx = self.base.extractor._neighbor_indices(
                self._shell, self.geometry.void_points
            )
        return self._idx

    # -------------------------------------------------------------- stacks
    def _stack(self, k: int) -> ModelStack:
        """The warm K-member stack (LRU by K; weights overwritten per call)."""
        stack = self._stacks.get(k)
        if stack is not None:
            self._stacks.move_to_end(k)
            obs_counter("serve.engine.stack_hits").inc()
            return stack
        obs_counter("serve.engine.stack_misses").inc()
        stack = ModelStack.from_network(self.base.model, k=k)
        while len(self._stacks) >= self.max_stacks:
            self._stacks.popitem(last=False)
        self._stacks[k] = stack
        return stack

    # ------------------------------------------------------------ evaluate
    def evaluate(
        self,
        weight_rows: list[np.ndarray],
        value_rows: list[np.ndarray],
        on_nonfinite: str = "fallback",
    ) -> tuple[np.ndarray, list[ReconstructionReport]]:
        """Predict every void for K (weights, sample values) pairs, fused.

        Returns ``(pred, reports)`` where ``pred`` is ``(K, num_voids)``
        and ``reports[m]`` records member ``m``'s degradation (non-finite
        predictions replaced by nearest-neighbor sample values, exactly as
        the serial reconstruct path does).  Each row of ``pred`` is
        bit-identical to the serial
        :meth:`~repro.core.FCNNReconstructor.predict_values` over the
        same geometry with the same weights.
        """
        if on_nonfinite not in ("fallback", "raise"):
            raise ValueError(
                f"on_nonfinite must be 'fallback' or 'raise', got {on_nonfinite!r}"
            )
        k = len(weight_rows)
        if k == 0 or len(value_rows) != k:
            raise ValueError(
                f"need matching weight/value rows, got {k}/{len(value_rows)}"
            )
        geometry = self.geometry
        extractor = self.base.extractor
        nv = geometry.num_voids
        width = extractor.feature_size
        idx = self._neighbor_idx()
        stack = self._stack(k)
        for member, flat in enumerate(weight_rows):
            stack.set_member_weights(member, flat)
        pred = np.empty((k, nv), dtype=np.float64)
        ws = self._ws
        stack.attach_workspace(ws)
        stack.set_training(False)
        with span("serve.eval", members=k, voids=nv):
            try:
                for start in range(0, nv, self.block):
                    stop = min(start + self.block, nv)
                    feat = ws.buffer(("serve", "feat"), (k, stop - start, width))
                    for member in range(k):
                        self._shell.values[...] = value_rows[member]
                        extractor.features_into(
                            self._shell,
                            geometry.void_points[start:stop],
                            self.local,
                            feat[member],
                            workspace=ws,
                            neighbor_idx=idx[start:stop],
                        )
                    out = stack.forward(feat)
                    for member in range(k):
                        self.local.denormalize_values_into(
                            out[member, :, 0], pred[member, start:stop]
                        )
            finally:
                stack.set_training(True)
                stack.detach_workspace()
                obs_gauge("serve.engine.workspace.bytes").set(float(ws.nbytes))
        reports = []
        for member in range(k):
            report = ReconstructionReport(
                total_points=int(geometry.grid.num_points), fallback_method="nearest"
            )
            row = pred[member]
            if not np.isfinite(row).all():
                if on_nonfinite == "raise":
                    count = int((~np.isfinite(row)).sum())
                    raise NumericalHealthError(
                        f"FCNN produced {count}/{row.size} non-finite predictions; "
                        "the model state is numerically poisoned"
                    )
                pred[member] = _nonfinite_fallback(
                    row,
                    geometry.points,
                    np.asarray(value_rows[member], dtype=np.float64),
                    geometry.void_points,
                    report,
                )
            reports.append(report)
        return pred, reports

    def close(self) -> None:
        """Release the arena and the warm stacks.

        Results already returned stay valid (they never live in the
        arena), and a closed evaluator still works: the next
        :meth:`evaluate` rebuilds what it needs.
        """
        self._ws.clear()
        self._stacks.clear()

    def assemble(self, values: np.ndarray, pred: np.ndarray) -> np.ndarray:
        """Full-grid materialization: sample overlay + void fill (serial ops)."""
        geometry = self.geometry
        out = geometry.grid.empty_field().ravel()
        out[geometry.indices] = values
        out[geometry.void_indices] = pred
        return out.reshape(geometry.grid.dims)


def _grid_span(grid) -> np.ndarray:
    span_ = (np.asarray(grid.dims, dtype=np.float64) - 1.0) * np.asarray(grid.spacing)
    return np.where(span_ <= 0, 1.0, span_)
