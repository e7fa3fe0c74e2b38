"""In situ campaign writer/reader.

A *campaign* is the on-disk artifact of a reduced simulation run::

    campaign_dir/
      manifest.json            # grid, dataset, fractions, file index
      t0000.vtp  t0008.vtp ... # sampled point clouds, one per stored step
      model_t0000.npz          # (optional) in-situ-trained FCNN
      model_t0008.npz ...      # (optional) Case-2 partial checkpoints
      model_t0008_s00.npz ...  # (optional) per-shard Case-2 checkpoints

The writer owns the in situ side (time loop, sampling, optional training);
the reader owns the post hoc side (load a timestep's cloud, reconstruct it
with any method, restore the matching model).

Sharded campaigns (``shards=``/``halo=``) split the grid into axis-aligned
subdomains (:mod:`repro.shard`) and fine-tune one model per (timestep,
shard) on its halo-extended box; the reader stitches the per-shard
reconstructions back into the global field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from repro.core.reconstructor import FCNNReconstructor
from repro.datasets.base import AnalyticDataset
from repro.grid import UniformGrid
from repro.obs import counter as obs_counter, record_event, span
from repro.perf.campaign import CampaignScheduler
from repro.perf.weights import restore_weights, snapshot_weights
from repro.resilience.journal import CampaignJournal, content_hash
from repro.resilience.supervise import CampaignInterrupted
from repro.sampling.base import SampledField, Sampler

__all__ = ["CampaignManifest", "InSituWriter", "CampaignReader"]

_MANIFEST_NAME = "manifest.json"
#: journal + model-state sidecars live here, outside the campaign artifact
WAL_DIRNAME = ".wal"


def _file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class CampaignManifest:
    """Everything the post hoc side needs to interpret a campaign."""

    dataset: str
    attribute: str
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    fraction: float
    timesteps: list[int] = dataclass_field(default_factory=list)
    cloud_files: dict[str, str] = dataclass_field(default_factory=dict)  # str(t) -> filename
    model_files: dict[str, str] = dataclass_field(default_factory=dict)
    base_model_file: str | None = None
    shards: tuple[int, int, int] | None = None
    halo: int | None = None
    # str(t) -> per-shard checkpoint filenames, in plan shard order
    shard_model_files: dict[str, list[str]] = dataclass_field(default_factory=dict)

    @property
    def grid(self) -> UniformGrid:
        return UniformGrid(tuple(self.dims), tuple(self.spacing), tuple(self.origin))

    def to_json(self) -> str:
        payload = {
            "dataset": self.dataset,
            "attribute": self.attribute,
            "dims": list(self.dims),
            "spacing": list(self.spacing),
            "origin": list(self.origin),
            "fraction": self.fraction,
            "timesteps": self.timesteps,
            "cloud_files": self.cloud_files,
            "model_files": self.model_files,
            "base_model_file": self.base_model_file,
        }
        if self.shards is not None:
            payload["shards"] = list(self.shards)
            payload["halo"] = self.halo
            payload["shard_model_files"] = self.shard_model_files
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CampaignManifest":
        d = json.loads(text)
        shards = d.get("shards")
        return cls(
            dataset=d["dataset"],
            attribute=d["attribute"],
            dims=tuple(d["dims"]),
            spacing=tuple(d["spacing"]),
            origin=tuple(d["origin"]),
            fraction=float(d["fraction"]),
            timesteps=list(d["timesteps"]),
            cloud_files=dict(d["cloud_files"]),
            model_files=dict(d["model_files"]),
            base_model_file=d.get("base_model_file"),
            shards=tuple(shards) if shards is not None else None,
            halo=d.get("halo"),
            shard_model_files={
                k: list(v) for k, v in d.get("shard_model_files", {}).items()
            },
        )


class InSituWriter:
    """Runs the reduced time loop and writes the campaign directory.

    Parameters
    ----------
    dataset:
        The simulation (any :class:`AnalyticDataset`).
    sampler:
        The in situ reduction strategy.
    fraction:
        Storage budget per timestep.
    train_model:
        When True, a :class:`FCNNReconstructor` is trained in situ at the
        first stored timestep and Case-2 fine-tuned (``finetune_epochs``
        of the last two layers) at each subsequent one; the base model and
        per-timestep Case-2 partial checkpoints are written alongside the
        clouds.
    batched_finetune:
        When True (with ``train_model``), every timestep after the first
        is fine-tuned **from the pretrained base** with one
        :meth:`~repro.core.FCNNReconstructor.fine_tune_batch` call instead
        of rolling the weights forward; the on-disk campaign differs from
        the rolling one by design.
    shards / halo:
        Spatial domain decomposition (requires ``train_model``).  The
        first stored timestep still trains the global base model, but
        every later timestep is fine-tuned from it per shard on its
        halo-extended box (one batched submission per timestep) and emits
        one Case-2 partial checkpoint per (timestep, shard) —
        ``model_tXXXX_sXX.npz``.  ``halo`` defaults to
        :func:`repro.shard.suggest_halo` for the model's kNN stencil.
    """

    def __init__(
        self,
        dataset: AnalyticDataset,
        sampler: Sampler,
        fraction: float,
        train_model: bool = False,
        train_fractions: tuple[float, ...] = (0.01, 0.05),
        epochs: int = 100,
        finetune_epochs: int = 10,
        model_kwargs: dict | None = None,
        batched_finetune: bool = False,
        shards=None,
        halo: int | None = None,
    ) -> None:
        if not (0.0 < fraction <= 1.0):
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.dataset = dataset
        self.sampler = sampler
        self.fraction = float(fraction)
        self.train_model = bool(train_model)
        self.train_fractions = tuple(train_fractions)
        self.epochs = int(epochs)
        self.finetune_epochs = int(finetune_epochs)
        self.model_kwargs = dict(model_kwargs or {})
        self.batched_finetune = bool(batched_finetune)
        if shards is not None:
            from repro.shard import parse_shards, suggest_halo

            if not self.train_model:
                raise ValueError(
                    "shards only affect in situ training; pass train_model=True"
                )
            self.shard_counts = parse_shards(shards)
            self.halo = (
                int(halo)
                if halo is not None
                else suggest_halo(
                    self.model_kwargs.get("num_neighbors", 5), self.fraction
                )
            )
            if self.halo < 0:
                raise ValueError(f"halo must be >= 0, got {self.halo}")
        else:
            if halo is not None:
                raise ValueError("halo requires shards")
            self.shard_counts = None
            self.halo = None

    def run(
        self,
        directory: str | Path,
        timesteps,
        pipeline: bool = True,
        *,
        journal: bool = False,
        resume: bool = False,
        interrupt=None,
        on_stage=None,
    ) -> CampaignManifest:
        """Execute the campaign; returns the written manifest.

        With ``pipeline=True`` (default) the time loop runs on the
        streaming :class:`~repro.perf.CampaignScheduler`: timesteps ``t+1``
        and ``t+2`` are simulated and sampled on two prefetch threads while
        ``t`` trains on the calling thread and ``t-1``'s cloud/checkpoint
        files are written by the emit thread.  Training stays strictly
        sequential and checkpoints are written from published weight
        snapshots, so the on-disk campaign is byte-identical to
        ``pipeline=False`` (files and manifest entries land in timestep
        order either way).

        Crash safety: ``journal=True`` keeps a durable write-ahead journal
        (plus per-timestep model-state sidecars) under
        ``<directory>/.wal/``; ``resume=True`` (implies ``journal``)
        verifies every already-emitted file against the journal's content
        hashes, skips that prefix, restores the training model
        bit-exactly, and continues — the finished directory is
        byte-identical to an uninterrupted run (the ``.wal/`` bookkeeping
        aside).  ``interrupt`` (a
        :class:`~repro.resilience.supervise.GracefulInterrupt`) turns
        SIGTERM/SIGINT into a drained stop: a partial (readable) manifest
        and a resume manifest are written, then
        :class:`~repro.resilience.supervise.CampaignInterrupted` is
        raised.  ``on_stage`` (``fn(stage, timestep)``) is the chaos
        harness's injection hook.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        timesteps = [int(t) for t in timesteps]
        if not timesteps:
            raise ValueError("a campaign needs at least one timestep")
        journal = journal or resume

        grid = self.dataset.grid
        plan = None
        if self.shard_counts is not None:
            from repro.shard import ShardPlan

            plan = ShardPlan.create(grid, self.shard_counts, self.halo)
        shard_coords = {"shards": plan.num_shards} if plan is not None else {}
        manifest = CampaignManifest(
            dataset=self.dataset.name,
            attribute=self.dataset.attribute,
            dims=grid.dims,
            spacing=grid.spacing,
            origin=grid.origin,
            fraction=self.fraction,
            shards=plan.counts if plan is not None else None,
            halo=self.halo,
        )

        wal: CampaignJournal | None = None
        if journal:
            config = {
                "kind": "insitu",
                "dataset": self.dataset.name,
                "fraction": self.fraction,
                "timesteps": timesteps,
                "train_model": self.train_model,
                "train_fractions": list(self.train_fractions),
                "epochs": self.epochs,
                "finetune_epochs": self.finetune_epochs,
            }
            if self.batched_finetune:
                # Recorded only for batched campaigns so old serial
                # journals stay valid; a serial<->batched resume (different
                # trajectories) is rejected as a config mismatch.
                config["batched_finetune"] = True
            if plan is not None:
                # Same conditional-key pattern: a sharded<->unsharded
                # resume (different models, different files) is refused.
                config["shards"] = list(plan.counts)
                config["halo"] = self.halo
            wal = CampaignJournal(
                directory / WAL_DIRNAME / "journal.jsonl",
                config=config,
                resume=resume,
            )

        # Training state lives on the calling thread (process stage); the
        # emit thread writes checkpoints from its own clone restored per
        # published weight snapshot, never from the live training model.
        model: FCNNReconstructor | None = None
        emit_model: FCNNReconstructor | None = None

        steps_to_run = timesteps
        skipped: list[int] = []
        if wal is not None:

            def verify(t: int, payload: dict) -> bool:
                for name, sha in payload.get("files", {}).items():
                    path = directory / name
                    if not path.exists() or _file_sha(path) != sha:
                        return False
                return True

            with span("campaign.resume.plan"):
                resume_plan = (
                    wal.plan(timesteps, verify=verify) if resume else wal.plan(timesteps)
                )
            record_event(
                "campaign.resume.planned",
                resume=bool(resume),
                skipped=len(resume_plan.completed) if resume else 0,
                remaining=len(resume_plan.remaining) if resume else len(timesteps),
            )
            if resume and resume_plan.completed:
                skipped = list(resume_plan.completed)
                steps_to_run = list(resume_plan.remaining)
                obs_counter("campaign.resume.skipped").inc(len(skipped))
                # Replay the completed prefix into the manifest.
                for t, payload in zip(skipped, resume_plan.payloads):
                    manifest.timesteps.append(t)
                    manifest.cloud_files[str(t)] = payload["cloud"]
                    emitted_model = payload.get("model")
                    if isinstance(emitted_model, list):
                        manifest.shard_model_files[str(t)] = list(emitted_model)
                    elif emitted_model is not None:
                        manifest.model_files[str(t)] = emitted_model
                    if payload.get("base") is not None:
                        manifest.base_model_file = payload["base"]
                if self.train_model and manifest.base_model_file is not None:
                    # Architecture + normalization from the base checkpoint,
                    # exact weights from the last completed timestep's WAL
                    # state — fine-tuning re-enters bit-identically.
                    model = FCNNReconstructor.load(directory / manifest.base_model_file)
                    if not self.batched_finetune and plan is None:
                        # Serial fine-tunes roll forward; batched and
                        # sharded ones derive every timestep from the
                        # unchanged base, which *is* the checkpoint just
                        # loaded.
                        restore_weights(model.model, wal.load_state(skipped[-1]))
                    emit_model = model.clone()

        def materialize(t: int):
            if on_stage is not None:
                on_stage("materialize", t)
            field = self.dataset.field(t=t)
            sample = self.sampler.sample(field, self.fraction)
            if wal is not None:
                wal.record(t, "sampled", sample_sha=content_hash(sample.values))
            train = (
                [self.sampler.sample(field, f) for f in self.train_fractions]
                if self.train_model
                else None
            )
            return field, sample, train

        def process(t: int, item):
            nonlocal model, emit_model
            if on_stage is not None:
                on_stage("process", t)
            field, sample, train = item
            if not self.train_model:
                return sample, None, False
            first = model is None
            if first:
                model = FCNNReconstructor(**self.model_kwargs)
                model.train(field, train, epochs=self.epochs)
                emit_model = model.clone()
                flat = snapshot_weights(model.model).data
            elif plan is not None:
                # One (num_shards, W) weight stack for this timestep; the
                # base model is never mutated (fine_tune_batch semantics).
                from repro.shard import fine_tune_shards

                stacks, _ = fine_tune_shards(
                    model, [field], [train], plan,
                    epochs=self.finetune_epochs, strategy="last",
                )
                flat = stacks[0]
            elif self.batched_finetune:
                (flat,), _ = model.fine_tune_batch(
                    [field], [train], epochs=self.finetune_epochs, strategy="last"
                )
            else:
                model.fine_tune(field, train, epochs=self.finetune_epochs, strategy="last")
                flat = snapshot_weights(model.model).data
            if wal is not None:
                wal.save_state(t, flat)
                wal.record(
                    t, "fine-tuned", weights_sha=content_hash(flat), **shard_coords
                )
            return sample, flat, first

        def emit(t: int, payload):
            if on_stage is not None:
                on_stage("emit", t)
            sample, flat, first = payload
            cloud_name = f"t{t:04d}.vtp"
            sample.to_vtp(directory / cloud_name)
            manifest.timesteps.append(t)
            manifest.cloud_files[str(t)] = cloud_name
            model_name = None
            base_name = None
            shard_names: list[str] | None = None
            if flat is not None and np.ndim(flat) == 2:
                # Sharded timestep: one Case-2 partial checkpoint per
                # shard, grafted onto the (global) base by the reader.
                shard_names = []
                for s in range(flat.shape[0]):
                    restore_weights(emit_model.model, flat[s])
                    name = f"model_t{t:04d}_s{s:02d}.npz"
                    emit_model.save_partial(directory / name, num_layers=2)
                    shard_names.append(name)
                manifest.shard_model_files[str(t)] = shard_names
            elif flat is not None:
                restore_weights(emit_model.model, flat)
                if first:
                    base_name = manifest.base_model_file = "model_base.npz"
                    emit_model.save(directory / manifest.base_model_file)
                # Case-2 storage: only the last two layers per timestep.
                model_name = f"model_t{t:04d}.npz"
                emit_model.save_partial(directory / model_name, num_layers=2)
                manifest.model_files[str(t)] = model_name
            if wal is not None:
                written = [cloud_name] + [n for n in (base_name, model_name) if n]
                written += shard_names or []
                wal.record(
                    t,
                    "emitted",
                    cloud=cloud_name,
                    model=shard_names if shard_names is not None else model_name,
                    base=base_name,
                    files={n: _file_sha(directory / n) for n in written},
                )
            return t

        scheduler = CampaignScheduler(
            materialize, process, emit, pipeline=pipeline, name="insitu", interrupt=interrupt
        )
        try:
            scheduler.run(steps_to_run)
        except CampaignInterrupted as exc:
            # Flush a *readable* partial campaign (post hoc tools work on
            # the completed prefix) plus the resume manifest, then let the
            # interruption propagate.
            self._write_index(directory, manifest)
            if wal is not None:
                done = skipped + list(exc.completed)
                wal.write_manifest(
                    reason="interrupted",
                    completed=done,
                    remaining=timesteps[len(done):],
                )
                wal.close()
            raise exc
        self._write_index(directory, manifest)
        if wal is not None:
            wal.close()
        return manifest

    @staticmethod
    def _write_index(directory: Path, manifest: CampaignManifest) -> None:
        (directory / _MANIFEST_NAME).write_text(manifest.to_json())
        # ParaView animation index over the stored point clouds.
        from repro.io import write_pvd

        write_pvd(
            directory / "campaign.pvd",
            [(float(t), manifest.cloud_files[str(t)]) for t in manifest.timesteps],
        )


class CampaignReader:
    """Post hoc access to a written campaign."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        manifest_path = self.directory / _MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"{manifest_path}: no campaign manifest")
        self.manifest = CampaignManifest.from_json(manifest_path.read_text())

    @property
    def timesteps(self) -> list[int]:
        return list(self.manifest.timesteps)

    @property
    def shard_plan(self):
        """The campaign's :class:`~repro.shard.ShardPlan` (None if unsharded)."""
        if self.manifest.shards is None:
            return None
        from repro.shard import ShardPlan

        return ShardPlan.create(
            self.manifest.grid, self.manifest.shards, self.manifest.halo
        )

    def load_sample(self, timestep: int) -> SampledField:
        """The stored point cloud for one timestep."""
        key = str(int(timestep))
        if key not in self.manifest.cloud_files:
            raise KeyError(f"timestep {timestep} not in campaign {sorted(self.manifest.cloud_files)}")
        path = self.directory / self.manifest.cloud_files[key]
        return SampledField.from_vtp(
            path, self.manifest.grid, fraction=self.manifest.fraction, timestep=int(timestep)
        )

    def load_model(
        self, timestep: int | None = None, shard: int | None = None
    ) -> FCNNReconstructor:
        """The in-situ-trained FCNN, optionally specialized to a timestep.

        Loads the base model and, when ``timestep`` has a Case-2 partial
        checkpoint, grafts it on.  Sharded campaigns keep one checkpoint
        per (timestep, shard); pass ``shard`` (the plan's shard index) to
        pick one.
        """
        if self.manifest.base_model_file is None:
            raise ValueError("campaign was written without in situ training")
        model = FCNNReconstructor.load(self.directory / self.manifest.base_model_file)
        if timestep is not None:
            key = str(int(timestep))
            if shard is not None:
                names = self.manifest.shard_model_files.get(key)
                if names is None:
                    raise KeyError(
                        f"no per-shard checkpoints for timestep {timestep}"
                    )
                if not 0 <= int(shard) < len(names):
                    raise IndexError(
                        f"shard {shard} out of range for timestep {timestep} "
                        f"({len(names)} shards)"
                    )
                model.load_partial(self.directory / names[int(shard)])
            elif key in self.manifest.model_files:
                model.load_partial(self.directory / self.manifest.model_files[key])
            elif key in self.manifest.shard_model_files:
                raise KeyError(
                    f"timestep {timestep} has per-shard checkpoints only; "
                    "pass shard=<index> (or use reconstruct() to stitch)"
                )
            else:
                raise KeyError(f"no model checkpoint for timestep {timestep}")
        return model

    def reconstruct(self, timestep: int, method=None) -> np.ndarray:
        """Reconstruct one stored timestep.

        ``method`` defaults to the campaign's own FCNN (specialized to the
        timestep); pass any :class:`GridInterpolator` to use a rule-based
        method instead.  For sharded timesteps the default method
        reconstructs every shard with its own model over its halo-extended
        box and stitches the interiors back into the global field.
        """
        sample = self.load_sample(timestep)
        key = str(int(timestep))
        if method is None and key in self.manifest.shard_model_files:
            return self._reconstruct_sharded(sample, key)
        if method is None:
            method = self.load_model(timestep)
        return method.reconstruct(sample)

    def _reconstruct_sharded(self, sample: SampledField, key: str) -> np.ndarray:
        """Stitch one sharded timestep through the local shard sink."""
        from repro.perf.campaign import CampaignGeometry
        from repro.shard import LocalShardSink, ShardedCampaignGeometry

        plan = self.shard_plan
        model = FCNNReconstructor.load(self.directory / self.manifest.base_model_file)
        flats = []
        for name in self.manifest.shard_model_files[key]:
            model.load_partial(self.directory / name)
            flats.append(np.array(snapshot_weights(model.model).data, copy=True))
        geometry = CampaignGeometry(
            self.manifest.grid, sample.indices, self.manifest.fraction
        )
        sharded = ShardedCampaignGeometry(plan, geometry)
        with LocalShardSink(slots=1, scope="local") as sink:
            sink.bind(sharded, {"fcnn": model})
            slot = sink.publish(int(key), sample.values, {"fcnn": np.stack(flats)})
            volume, _report = sink.reconstruct(slot, "fcnn")
        return volume
