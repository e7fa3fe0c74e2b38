"""End-to-end reconstruction pipeline (Fig 1 workflow).

``ReconstructionPipeline`` wires a dataset, a sampler and any set of
reconstructors together: materialize a timestep, sample it, train the FCNN
(once), reconstruct with every method, and score against the original.
Examples and the experiment harness are thin layers over this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from functools import partial

import numpy as np

from repro.core.reconstructor import FCNNReconstructor
from repro.datasets.base import AnalyticDataset, TimestepField
from repro.grid import UniformGrid
from repro.interpolation.base import GridInterpolator
from repro.metrics import ReconstructionScore, score_reconstruction
from repro.obs import counter as obs_counter
from repro.perf.campaign import (
    CampaignStats,
    GeometryCache,
    fine_tune_step,
    make_reconstruction_sink,
    run_journaled,
)
from repro.perf.weights import restore_weights, snapshot_weights
from repro.resilience.journal import content_hash
from repro.resilience.report import ReconstructionReport
from repro.resilience.supervise import (
    QuarantineRecord,
    SupervisionPolicy,
    WorkerSupervisor,
)
from repro.sampling.base import SampledField, Sampler
from repro.sampling.importance import MultiCriteriaSampler

__all__ = ["PipelineResult", "CampaignResult", "ReconstructionPipeline"]


@dataclass(frozen=True)
class PipelineResult:
    """One (method, sample) reconstruction with its metrics and timing."""

    method: str
    fraction: float
    timestep: int
    score: ReconstructionScore
    reconstruct_seconds: float
    num_samples: int
    reconstruction: np.ndarray | None = None

    def as_row(self) -> dict:
        """Flat dict for tabular reporting."""
        row = {
            "method": self.method,
            "fraction": self.fraction,
            "timestep": self.timestep,
            "seconds": self.reconstruct_seconds,
            "num_samples": self.num_samples,
        }
        row.update(self.score.as_dict())
        return row


@dataclass(frozen=True)
class CampaignResult:
    """A multi-timestep campaign run (:meth:`ReconstructionPipeline.run_campaign`)."""

    rows: list[dict]                     # per-timestep metrics, in timestep order
    stats: CampaignStats                 # stage occupancy / wall accounting
    reconstructions: list[np.ndarray] | None = None
    #: poison timesteps completed in degraded form (supervision enabled)
    quarantined: tuple[QuarantineRecord, ...] = ()
    #: timesteps skipped because the journal proved them already emitted
    resumed: int = 0

    @property
    def finetune_seconds(self) -> float:
        """Total epoch time spent fine-tuning (the irreducible sequential core)."""
        return sum(row["finetune_seconds"] for row in self.rows)


@dataclass
class ReconstructionPipeline:
    """Sample → (train) → reconstruct → score, for one dataset.

    Parameters
    ----------
    dataset:
        Field generator.
    sampler:
        Defaults to the paper's multi-criteria sampler.
    train_fractions:
        Sampling percentages whose union forms the FCNN's training set
        (paper: 1% + 5%, Fig 7).
    keep_reconstructions:
        Retain the reconstructed volumes in results (memory-hungry; off by
        default).
    """

    dataset: AnalyticDataset
    sampler: Sampler = dataclass_field(default_factory=MultiCriteriaSampler)
    train_fractions: tuple[float, ...] = (0.01, 0.05)
    keep_reconstructions: bool = False
    geometry_cache: GeometryCache = dataclass_field(default_factory=GeometryCache)

    # ------------------------------------------------------------- sampling
    def field(self, timestep: int = 0, grid: UniformGrid | None = None) -> TimestepField:
        return self.dataset.field(t=timestep, grid=grid)

    def sample(self, field: TimestepField, fraction: float, seed: int | None = None) -> SampledField:
        """Draw a sample; pass ``seed`` for an independent (e.g. test) draw."""
        return self.sampler.sample(field, fraction, seed=seed)

    # ------------------------------------------------------------- training
    def train_fcnn(
        self,
        reconstructor: FCNNReconstructor | None = None,
        timestep: int = 0,
        epochs: int = 500,
        train_fraction: float = 1.0,
        grid: UniformGrid | None = None,
        checkpoint=None,
        resume_from=None,
        health=None,
    ) -> FCNNReconstructor:
        """Train (or retrain) an FCNN on this dataset's training samples.

        ``checkpoint``/``resume_from``/``health`` are forwarded to
        :meth:`FCNNReconstructor.train` (see :mod:`repro.resilience`).
        """
        recon = reconstructor if reconstructor is not None else FCNNReconstructor()
        fld = self.field(timestep, grid=grid)
        samples = [self.sample(fld, f) for f in self.train_fractions]
        recon.train(
            fld,
            samples,
            epochs=epochs,
            train_fraction=train_fraction,
            checkpoint=checkpoint,
            resume_from=resume_from,
            health=health,
        )
        return recon

    # --------------------------------------------------------- reconstruction
    def run_method(
        self,
        method: GridInterpolator | FCNNReconstructor,
        sample: SampledField,
        original: TimestepField,
        target_grid: UniformGrid | None = None,
    ) -> PipelineResult:
        """Reconstruct one sample with one method and score it."""
        t0 = time.perf_counter()
        volume = method.reconstruct(sample, target_grid=target_grid)
        seconds = time.perf_counter() - t0
        return PipelineResult(
            method=method.name,
            fraction=sample.fraction,
            timestep=sample.timestep,
            score=score_reconstruction(original.values, volume),
            reconstruct_seconds=seconds,
            num_samples=sample.num_samples,
            reconstruction=volume if self.keep_reconstructions else None,
        )

    def compare(
        self,
        methods,
        fractions,
        timestep: int = 0,
        grid: UniformGrid | None = None,
    ) -> list[PipelineResult]:
        """Cross product of methods × sampling fractions on one timestep."""
        fld = self.field(timestep, grid=grid)
        results: list[PipelineResult] = []
        for fraction in fractions:
            sample = self.sample(fld, fraction)
            for method in methods:
                results.append(self.run_method(method, sample, fld))
        return results

    # -------------------------------------------------------------- campaign
    def run_campaign(
        self,
        reconstructor: FCNNReconstructor,
        timesteps,
        fraction: float,
        *,
        finetune_epochs: int = 10,
        finetune_strategy: str = "full",
        batched_finetune: bool = False,
        pipeline: bool = True,
        warm_pool: bool = True,
        max_workers: int | None = None,
        num_chunks: int | None = None,
        journal=None,
        resume: bool = False,
        supervision: SupervisionPolicy | WorkerSupervisor | None = None,
        interrupt=None,
        on_stage=None,
    ) -> CampaignResult:
        """Fine-tune, reconstruct and score over a stream of timesteps (Fig 11).

        Reconstruction locations are drawn **once** at the first timestep
        (``fraction`` of the grid) and their values refreshed per timestep
        — so all timesteps share one :class:`~repro.perf.CampaignGeometry`
        and the warm pool ships the geometry exactly once.
        ``reconstructor`` must already be (pre)trained (see
        :meth:`train_fcnn`); per timestep it is fine-tuned on fresh
        ``train_fractions`` draws, its weights published to the sink, and
        the timestep reconstructed and scored against the original field.

        The timesteps run on :func:`repro.perf.campaign.run_journaled`:
        ``pipeline=True`` overlaps the stages (fine-tuning stays strictly
        sequential) and ``warm_pool=True`` reconstructs on a
        :class:`~repro.perf.WarmReconstructionPool` (falling back to the
        in-process sink when shared memory is unavailable).  Every
        ``(pipeline, warm_pool)`` combination produces **bit-identical**
        reconstructions and scores.

        ``batched_finetune=True`` fine-tunes every timestep **from the
        pretrained base** (the paper's transfer setup) instead of rolling
        the weights forward, so its rows differ from rolling rows by
        design; both schedules are
        :func:`~repro.perf.campaign.fine_tune_step`, one timestep at a
        time, and the reconstruction of ``t-1`` overlaps the fine-tune of
        ``t``.

        Crash safety (see :mod:`repro.resilience` and docs/RESILIENCE.md):
        ``journal`` (a path), ``resume``, ``interrupt`` and ``on_stage``
        follow the loop's journal protocol.  A resume replays the skipped
        rows from the journal (they contribute ``None`` to
        ``reconstructions``) and, rolling, restores the weights of the last
        skipped timestep.  ``supervision`` (a
        :class:`~repro.resilience.supervise.SupervisionPolicy` or prepared
        :class:`~repro.resilience.supervise.WorkerSupervisor`) adds
        per-stage deadlines that recycle a hung pool, and quarantines a
        "poison" timestep whose reconstruct keeps failing as degraded
        nearest-neighbor output instead of aborting the campaign.  A
        timestep whose fine-tune raises is reconstructed with the weights
        it entered with (the previous timestep's when rolling, the base's
        when from base) and flagged; only that timestep is quarantined.
        """
        if not reconstructor.is_trained:
            raise RuntimeError(
                "run_campaign needs a (pre)trained reconstructor; call train_fcnn() first"
            )
        steps = [int(t) for t in timesteps]
        if not steps:
            return CampaignResult(rows=[], stats=CampaignStats(0, pipeline, 0.0, 0.0, 0.0, 0.0))

        field0 = self.field(steps[0])
        geometry = self.geometry_cache.get(
            self.sample(field0, fraction), dtype=reconstructor.dtype_policy.compute
        )
        sink = make_reconstruction_sink(
            geometry,
            {"fcnn": reconstructor},
            max_workers=max_workers,
            num_chunks=num_chunks,
            warm_pool=warm_pool,
        )
        train_shell = geometry.shell()

        sup: WorkerSupervisor | None = None
        if supervision is not None:
            sup = (
                supervision
                if isinstance(supervision, WorkerSupervisor)
                else WorkerSupervisor(supervision)
            )
            pool_executor = getattr(sink, "executor", None)
            if pool_executor is not None:
                if sup.policy.max_respawns is not None:
                    pool_executor.max_respawns = sup.policy.max_respawns
                if sup.on_stall is None:
                    # A stalled reconstruct means a wedged worker: replace
                    # the pool (bounded by the respawn budget above).
                    sup.on_stall = lambda stage, t, elapsed: pool_executor.recycle("stall")
            sup.start()

        fallback = (
            "the pretrained base weights" if batched_finetune
            else "the previous timestep's weights"
        )
        skipped_rows: list[dict] = []

        def restore(plan, weights) -> None:
            skipped_rows.extend(dict(p["row"]) for p in plan.payloads)
            if weights is not None:
                restore_weights(reconstructor.model, weights())

        def materialize(t: int):
            fld = field0 if t == steps[0] else self.field(t)
            train = [self.sample(fld, f) for f in self.train_fractions]
            return (fld, train), lambda: {"sampled": {"field_sha": content_hash(fld.values)}}

        fine_tune = partial(
            fine_tune_step, reconstructor, from_base=batched_finetune,
            epochs=finetune_epochs, strategy=finetune_strategy,
        )

        def process(t: int, item):
            fld, train = item
            stale: str | None = None
            if sup is None:
                flat, finetune_seconds = fine_tune(fld, train)
            else:
                # Fine-tuning is deterministic, so retrying a failure is
                # futile — reconstruct this timestep with the weights it
                # entered with and carry on (bounded degradation, never a
                # dead campaign).
                before = snapshot_weights(reconstructor.model).data
                with sup.stage("process", t):
                    try:
                        flat, finetune_seconds = fine_tune(fld, train)
                    except Exception as exc:
                        if not sup.policy.quarantine:
                            raise
                        restore_weights(reconstructor.model, before)
                        sup.quarantine(t, "fine-tune", exc, attempts=1)
                        stale = f"{type(exc).__name__}: {exc}"
                        flat, finetune_seconds = before, 0.0
            geometry.refresh(train_shell, fld)
            slot = sink.publish(t, train_shell.values, {"fcnn": flat})
            return (slot, fld, finetune_seconds, stale), flat

        def emit(t: int, payload):
            slot, fld, finetune_seconds, stale = payload
            if sup is None:
                volume, report = sink.reconstruct(slot, "fcnn")
            else:
                ok, value, attempts = sup.attempt(
                    lambda: sink.reconstruct(slot, "fcnn"), stage="reconstruct", timestep=t
                )
                if ok:
                    volume, report = value
                elif sup.policy.quarantine:
                    sup.quarantine(t, "reconstruct", value, attempts)
                    volume, report = _quarantine_reconstruction(
                        geometry, fld, f"reconstruct quarantined after {attempts} attempt(s)"
                    )
                else:
                    raise value
                if stale is not None:
                    report.flag(
                        len(report.degraded),
                        geometry.num_voids,
                        f"fine-tune quarantined ({stale}); reconstructed with {fallback}",
                        "stale-weights",
                    )
            row = {
                "timestep": t,
                "finetune_seconds": finetune_seconds,
                "degraded_points": report.degraded_points,
            }
            row.update(score_reconstruction(fld.values, volume).as_dict())
            return (row, volume if self.keep_reconstructions else None), lambda: {
                "reconstructed": {"volume_sha": content_hash(volume)},
                "emitted": {"row": _jsonable(row)},
            }

        config = {
            "kind": "run_campaign",
            "dataset": getattr(self.dataset, "name", type(self.dataset).__name__),
            "fraction": float(fraction),
            "timesteps": steps,
            "train_fractions": [float(f) for f in self.train_fractions],
            "finetune_epochs": int(finetune_epochs),
            "finetune_strategy": str(finetune_strategy),
        }
        try:
            emitted, stats = run_journaled(
                steps, materialize, process, emit, restore,
                journal=journal, config=config, from_base=batched_finetune, resume=resume,
                pipeline=pipeline, interrupt=interrupt, on_stage=on_stage,
            )
        finally:
            sink.close()
            if sup is not None:
                sup.stop()
        rows = skipped_rows + [row for row, _ in emitted]
        volumes = None
        if self.keep_reconstructions:
            volumes = [None] * len(skipped_rows) + [vol for _, vol in emitted]
        return CampaignResult(
            rows=rows,
            stats=stats,
            reconstructions=volumes,
            quarantined=tuple(sup.quarantined) if sup is not None else (),
            resumed=len(skipped_rows),
        )


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays to JSON-safe Python values.

    Floats survive bit-exactly: ``json`` serializes doubles with
    shortest-round-trip repr, so a journal-replayed row compares equal to
    the row the uninterrupted run would have produced.
    """
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _quarantine_reconstruction(geometry, fld: TimestepField, reason: str):
    """Degraded full-grid output for a poison timestep: samples kept,
    voids filled by nearest-neighbor from the timestep's own samples.

    Deterministic and sink-independent, so a quarantined campaign still
    emits a complete, finite, honestly-reported volume.
    """
    from scipy.spatial import cKDTree

    values = np.ascontiguousarray(fld.values.ravel()[geometry.indices])
    out = geometry.grid.empty_field().ravel()
    out[geometry.indices] = values
    _, nearest = cKDTree(geometry.points).query(geometry.void_points, k=1)
    out[geometry.void_indices] = values[nearest]
    report = ReconstructionReport(total_points=int(geometry.grid.num_points))
    report.fallback_method = "nearest"
    report.flag(0, int(geometry.num_voids), reason, "nearest")
    obs_counter("supervise.quarantine_points").inc(int(geometry.num_voids))
    return out.reshape(geometry.grid.dims), report
