"""In situ campaign writer/reader.

A *campaign* is the on-disk artifact of a reduced simulation run::

    campaign_dir/
      manifest.json            # grid, dataset, fractions, file index
      t0000.vtp  t0008.vtp ... # sampled point clouds, one per stored step
      model_t0000.npz          # (optional) in-situ-trained FCNN
      model_t0008.npz ...      # (optional) Case-2 partial checkpoints

The writer owns the in situ side (time loop, sampling, optional training);
the reader owns the post hoc side (load a timestep's cloud, reconstruct it
with any method, restore the matching model).
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
from repro.perf.campaign import fine_tune_step, run_journaled
from repro.perf.weights import restore_weights, snapshot_weights
from repro.resilience.journal import content_hash
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
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CampaignManifest":
        """Parse a manifest; keys this version does not know are ignored."""
        d = json.loads(text)
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

        The time loop is :func:`repro.perf.campaign.run_journaled`.  With
        ``pipeline=True`` (default) timesteps ``t+1`` and ``t+2`` are
        simulated and sampled on two prefetch threads while ``t`` trains on
        the calling thread and ``t-1``'s cloud/checkpoint files are written
        by the emit thread.  Training stays strictly sequential and
        checkpoints are written from published weight snapshots, so the
        on-disk campaign is byte-identical to ``pipeline=False`` (files and
        manifest entries land in timestep order either way).

        Crash safety: ``journal=True`` keeps the loop's journal (see its
        journal protocol) and weight sidecars under ``<directory>/.wal/``.
        ``resume=True`` (implies ``journal``) also re-hashes every emitted
        file against the journal, so a tampered file ends the skipped
        prefix; the skipped timesteps are replayed into the manifest and
        the training model is rebuilt from the base file (plus, rolling,
        the last sidecar).  The finished directory is byte-identical to an
        uninterrupted run, the ``.wal/`` bookkeeping aside.  When
        ``interrupt`` stops the run, a partial (readable) manifest is
        written as well.
        """
        directory = Path(directory)
        timesteps = [int(t) for t in timesteps]
        if not timesteps:
            raise ValueError("a campaign needs at least one timestep")

        grid = self.dataset.grid
        manifest = CampaignManifest(
            dataset=self.dataset.name,
            attribute=self.dataset.attribute,
            dims=grid.dims,
            spacing=grid.spacing,
            origin=grid.origin,
            fraction=self.fraction,
        )

        # Training state lives on the calling thread (process stage); the
        # emit thread writes checkpoints from its own clone restored per
        # published weight snapshot, never from the live training model.
        model: FCNNReconstructor | None = None
        emit_model: FCNNReconstructor | None = None

        def verify(t: int, payload: dict) -> bool:
            return all(
                (directory / name).exists() and _file_sha(directory / name) == sha
                for name, sha in payload.get("files", {}).items()
            )

        def restore(plan, weights) -> None:
            nonlocal model, emit_model
            directory.mkdir(parents=True, exist_ok=True)
            # Replay the skipped prefix into the manifest.
            for t, payload in zip(plan.completed, plan.payloads):
                manifest.timesteps.append(t)
                manifest.cloud_files[str(t)] = payload["cloud"]
                if payload.get("model") is not None:
                    manifest.model_files[str(t)] = payload["model"]
                if payload.get("base") is not None:
                    manifest.base_model_file = payload["base"]
            if self.train_model and manifest.base_model_file is not None:
                # Architecture + normalization from the base checkpoint;
                # rolling, exact weights from the last skipped timestep.
                model = FCNNReconstructor.load(directory / manifest.base_model_file)
                if weights is not None:
                    restore_weights(model.model, weights())
                emit_model = model.clone()

        def materialize(t: int):
            field = self.dataset.field(t=t)
            sample = self.sampler.sample(field, self.fraction)
            train = (
                [self.sampler.sample(field, f) for f in self.train_fractions]
                if self.train_model
                else None
            )
            return (field, sample, train), lambda: {
                "sampled": {"sample_sha": content_hash(sample.values)}
            }

        def process(t: int, item):
            nonlocal model, emit_model
            field, sample, train = item
            if not self.train_model:
                return (sample, None, False), None
            first = model is None
            if first:
                model = FCNNReconstructor(**self.model_kwargs)
                model.train(field, train, epochs=self.epochs)
                emit_model = model.clone()
                flat = snapshot_weights(model.model).data
            else:
                flat, _ = fine_tune_step(
                    model, field, train, from_base=self.batched_finetune,
                    epochs=self.finetune_epochs, strategy="last",
                )
            return (sample, flat, first), flat

        def emit(t: int, payload):
            sample, flat, first = payload
            cloud_name = f"t{t:04d}.vtp"
            sample.to_vtp(directory / cloud_name)
            manifest.timesteps.append(t)
            manifest.cloud_files[str(t)] = cloud_name
            model_name = base_name = None
            if flat is not None:
                restore_weights(emit_model.model, flat)
                if first:
                    base_name = manifest.base_model_file = "model_base.npz"
                    emit_model.save(directory / manifest.base_model_file)
                # Case-2 storage: only the last two layers per timestep.
                model_name = f"model_t{t:04d}.npz"
                emit_model.save_partial(directory / model_name, num_layers=2)
                manifest.model_files[str(t)] = model_name
            written = [cloud_name] + [n for n in (base_name, model_name) if n]
            return t, lambda: {
                "emitted": {
                    "cloud": cloud_name,
                    "model": model_name,
                    "base": base_name,
                    "files": {n: _file_sha(directory / n) for n in written},
                }
            }

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
        try:
            run_journaled(
                timesteps, materialize, process, emit, restore,
                journal=directory / WAL_DIRNAME / "journal.jsonl" if journal or resume else None,
                config=config, from_base=self.batched_finetune, resume=resume, verify=verify,
                pipeline=pipeline, name="insitu", interrupt=interrupt, on_stage=on_stage,
            )
        except CampaignInterrupted:
            # Post hoc tools work on the completed prefix.
            self._write_index(directory, manifest)
            raise
        self._write_index(directory, manifest)
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

    def load_sample(self, timestep: int) -> SampledField:
        """The stored point cloud for one timestep."""
        key = str(int(timestep))
        if key not in self.manifest.cloud_files:
            raise KeyError(f"timestep {timestep} not in campaign {sorted(self.manifest.cloud_files)}")
        path = self.directory / self.manifest.cloud_files[key]
        return SampledField.from_vtp(
            path, self.manifest.grid, fraction=self.manifest.fraction, timestep=int(timestep)
        )

    def load_model(self, timestep: int | None = None) -> FCNNReconstructor:
        """The in-situ-trained FCNN, optionally specialized to a timestep.

        Loads the base model and, when ``timestep`` has a Case-2 partial
        checkpoint, grafts it on.
        """
        if self.manifest.base_model_file is None:
            raise ValueError("campaign was written without in situ training")
        model = FCNNReconstructor.load(self.directory / self.manifest.base_model_file)
        if timestep is not None:
            key = str(int(timestep))
            if key not in self.manifest.model_files:
                raise KeyError(f"no model checkpoint for timestep {timestep}")
            model.load_partial(self.directory / self.manifest.model_files[key])
        return model

    def reconstruct(self, timestep: int, method=None) -> np.ndarray:
        """Reconstruct one stored timestep.

        ``method`` defaults to the campaign's own FCNN (specialized to the
        timestep); pass any :class:`GridInterpolator` to use a rule-based
        method instead.
        """
        sample = self.load_sample(timestep)
        if method is None:
            method = self.load_model(timestep)
        return method.reconstruct(sample)
