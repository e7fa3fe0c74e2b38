# hot-path
"""Served inference: K models' void predictions over one namespace.

The serving layer's evaluation kernel is the offline one.  K requests for
distinct timesteps of one namespace are answered one member at a time:
each member's flat weights are restored into one private clone of the
namespace base, whose :meth:`repro.core.FCNNReconstructor.predict_values`
then predicts every void over the evaluator's stable sample shell.  Served
rows are therefore **bit-identical, per member, to the serial**
``predict_values`` path for the same weights (the acceptance contract of
``repro.serve``), and non-finite predictions degrade through the serial
path's :func:`repro.resilience.health.fill_nonfinite`.

Stacking K members into one ``(K, n, m)`` pass saved no per-member time
at inference (37–47 ms per member for 22,162 voids at K = 1…4 on a
2-vCPU Xeon; see ``docs/PERFORMANCE.md``), while the per-member kernel
reuses the clone's per-geometry coordinate columns
(:meth:`repro.core.FeatureExtractor.prediction_block`) across every
member and evaluation.  The clone's :class:`repro.perf.Workspace` holds
one member's activations per predict block, whatever K is;
:meth:`StackEvaluator.close` releases it and the coordinate columns.
"""

from __future__ import annotations

import numpy as np

from repro.obs import gauge as obs_gauge
from repro.obs import span
from repro.perf.campaign import CampaignGeometry
from repro.perf.weights import restore_weights
from repro.resilience.health import check_on_nonfinite, fill_nonfinite
from repro.resilience.report import ReconstructionReport

__all__ = ["StackEvaluator"]


class StackEvaluator:
    """Evaluate K weight sets over one namespace's void geometry."""

    def __init__(self, base, geometry: CampaignGeometry) -> None:
        base._require_trained()
        self.base = base
        self.geometry = geometry
        self.block = base.predict_block
        # Member weights are restored into a private clone, never the base;
        # one stable shell + the geometry's cached void positions keep the
        # clone's neighbor and coordinate-column memo hot.
        self._model = base.clone()
        self._shell = geometry.shell()
        self._ws = self._model._get_workspace()

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

    # ------------------------------------------------------------ evaluate
    def evaluate(
        self,
        weight_rows: list[np.ndarray],
        value_rows: list[np.ndarray],
        on_nonfinite: str = "fallback",
    ) -> tuple[np.ndarray, list[ReconstructionReport]]:
        """Predict every void for K (weights, sample values) pairs.

        Returns ``(pred, reports)`` where ``pred`` is ``(K, num_voids)``
        and ``reports[m]`` records member ``m``'s degradation (non-finite
        predictions replaced by nearest-neighbor sample values, exactly as
        the serial reconstruct path does).  Each row of ``pred`` is
        bit-identical to the serial
        :meth:`~repro.core.FCNNReconstructor.predict_values` over the
        same geometry with the same weights.
        """
        check_on_nonfinite(on_nonfinite)
        k = len(weight_rows)
        if k == 0 or len(value_rows) != k:
            raise ValueError(
                f"need matching weight/value rows, got {k}/{len(value_rows)}"
            )
        geometry = self.geometry
        nv = geometry.num_voids
        pred = np.empty((k, nv), dtype=np.float64)
        with span("serve.eval", members=k, voids=nv):
            try:
                for member in range(k):
                    restore_weights(self._model.model, weight_rows[member])
                    self._shell.values[...] = value_rows[member]
                    pred[member] = self._model.predict_values(
                        self._shell, geometry.void_points
                    )
            finally:
                obs_gauge("serve.engine.workspace.bytes").set(float(self._ws.nbytes))
        reports = []
        for member in range(k):
            report = ReconstructionReport(
                total_points=int(geometry.grid.num_points), fallback_method="nearest"
            )
            pred[member] = fill_nonfinite(
                pred[member],
                geometry,
                np.asarray(value_rows[member], dtype=np.float64),
                geometry.void_points,
                report,
                on_nonfinite,
            )
            reports.append(report)
        return pred, reports

    def close(self) -> None:
        """Release the arena and the coordinate columns.

        Results already returned stay valid (they never live in the
        arena), and a closed evaluator still works: the next
        :meth:`evaluate` rebuilds what it needs.
        """
        self._ws.clear()
        self._model.extractor.clear_cache()

    def assemble(self, values: np.ndarray, pred: np.ndarray) -> np.ndarray:
        """Full-grid materialization: sample overlay + void fill (serial ops)."""
        geometry = self.geometry
        out = geometry.grid.empty_field().ravel()
        out[geometry.indices] = values
        out[geometry.void_indices] = pred
        return out.reshape(geometry.grid.dims)
