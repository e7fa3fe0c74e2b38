"""File-based workflow commands behind the CLI.

Each function implements one ``repro <command>`` operating on VTK XML
files, making the library usable as a standalone tool on real data:

* ``generate``    — materialize a synthetic dataset timestep as ``.vti``;
* ``sample``      — reduce a ``.vti`` to a sampled ``.vtp`` point cloud;
* ``train``       — train an FCNN from a ``.vti`` + its ``.vtp`` samples;
* ``reconstruct`` — rebuild a full ``.vti`` from a ``.vtp`` with any method;
* ``evaluate``    — score a reconstruction against the original;
* ``render``      — project a ``.vti`` to a PGM image for quick inspection;
* ``campaign``    — run a multi-timestep in situ campaign to a directory
  (optionally pipelined; see :mod:`repro.perf.campaign`).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core import FCNNReconstructor
from repro.datasets import make_dataset
from repro.datasets.base import TimestepField
from repro.grid import UniformGrid
from repro.interpolation import make_interpolator
from repro.io import read_vti, write_vti
from repro.metrics import score_reconstruction
from repro.sampling import (
    GradientImportanceSampler,
    HistogramImportanceSampler,
    MultiCriteriaSampler,
    RandomSampler,
    SampledField,
    StratifiedSampler,
)

__all__ = [
    "cmd_generate",
    "cmd_sample",
    "cmd_train",
    "cmd_reconstruct",
    "cmd_evaluate",
    "cmd_render",
    "cmd_campaign",
    "SAMPLERS",
]

SAMPLERS = {
    "multicriteria": MultiCriteriaSampler,
    "random": RandomSampler,
    "stratified": StratifiedSampler,
    "histogram": HistogramImportanceSampler,
    "gradient": GradientImportanceSampler,
}


def _load_field(path: str | Path, array: str | None = None) -> tuple[UniformGrid, str, np.ndarray]:
    grid, data = read_vti(path)
    if not data:
        raise ValueError(f"{path}: no point-data arrays")
    name = array if array is not None else next(iter(data))
    if name not in data:
        raise ValueError(f"{path}: no array {name!r}; available: {sorted(data)}")
    values = data[name]
    if values.ndim != 3:
        raise ValueError(f"{path}: array {name!r} is not a scalar volume")
    return grid, name, values


def cmd_generate(dataset: str, output: str, dims=None, timestep: int = 0, seed: int = 0) -> str:
    """Write one timestep of a synthetic dataset as ``.vti``."""
    data = make_dataset(dataset, dims=tuple(dims) if dims else None, seed=seed)
    field = data.field(t=timestep)
    write_vti(output, field.grid, {data.attribute: field.values})
    return f"wrote {output}: {data.attribute} on {field.grid.describe()} (t={timestep})"


def cmd_sample(
    input_vti: str,
    output_vtp: str,
    fraction: float,
    sampler: str = "multicriteria",
    array: str | None = None,
    seed: int = 0,
) -> str:
    """Reduce a ``.vti`` volume to a sampled ``.vtp`` point cloud."""
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; available: {sorted(SAMPLERS)}")
    grid, name, values = _load_field(input_vti, array)
    field = TimestepField(grid, values, timestep=0, name=name)
    sampled = SAMPLERS[sampler](seed=seed).sample(field, fraction)
    sampled.to_vtp(output_vtp)
    return (
        f"wrote {output_vtp}: {sampled.num_samples} points "
        f"({sampled.achieved_fraction:.2%} of {grid.num_points})"
    )


def cmd_train(
    input_vti: str,
    model_out: str,
    fractions: tuple[float, ...] = (0.01, 0.05),
    sampler: str = "multicriteria",
    array: str | None = None,
    epochs: int = 150,
    hidden: tuple[int, ...] = (128, 64, 32, 16),
    seed: int = 0,
    checkpoint: str | None = None,
    checkpoint_every: int = 25,
    resume: bool = False,
    health_policy: str = "rollback",
) -> str:
    """Train an FCNN on samples drawn from a full-resolution ``.vti``.

    With ``checkpoint`` a training checkpoint is written there every
    ``checkpoint_every`` epochs; ``resume=True`` continues a previously
    interrupted run from that checkpoint bit-exactly.  ``health_policy``
    guards each epoch against NaN/Inf (empty string disables the guard).
    """
    from repro.resilience import CheckpointConfig, HealthGuard
    from repro.resilience.checkpoint import normalize_npz_path

    grid, name, values = _load_field(input_vti, array)
    field = TimestepField(grid, values, timestep=0, name=name)
    s = SAMPLERS[sampler](seed=seed)
    train = [s.sample(field, f) for f in fractions]

    ckpt_config = resume_from = None
    if checkpoint is not None:
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        ckpt_config = CheckpointConfig(path=checkpoint, every=checkpoint_every)
        if resume:
            resume_from = str(normalize_npz_path(checkpoint))
            if not Path(resume_from).exists():
                raise FileNotFoundError(f"--resume: no checkpoint at {resume_from}")
    elif resume:
        raise ValueError("--resume needs --checkpoint <path> to resume from")

    health = HealthGuard(health_policy) if health_policy else None
    model = FCNNReconstructor(hidden_layers=tuple(hidden), seed=seed)
    t0 = time.perf_counter()
    model.train(
        field,
        train,
        epochs=epochs,
        checkpoint=ckpt_config,
        resume_from=resume_from,
        health=health,
    )
    seconds = time.perf_counter() - t0
    model.save(model_out)
    resumed = f" (resumed from {resume_from})" if resume_from else ""
    return (
        f"wrote {model_out}: trained {epochs} epochs in {seconds:.1f}s{resumed}, "
        f"final loss {model.history.train_loss[-1]:.5f}"
    )


def cmd_reconstruct(
    input_vtp: str,
    reference_vti: str,
    output_vti: str,
    method: str = "linear",
    model: str | None = None,
    array: str = "scalar",
) -> str:
    """Rebuild a full volume from a ``.vtp`` cloud.

    ``reference_vti`` supplies the target grid geometry (its data is not
    consulted).  ``method`` is an interpolator name, or ``"fcnn"`` with
    ``model`` pointing at a trained checkpoint.
    """
    grid = read_vti(reference_vti)[0]
    sample = SampledField.from_vtp(input_vtp, grid)

    if method == "fcnn":
        if model is None:
            raise ValueError("method 'fcnn' needs --model <checkpoint.npz>")
        reconstructor = FCNNReconstructor.load(model)
    else:
        reconstructor = make_interpolator(method)

    t0 = time.perf_counter()
    volume = reconstructor.reconstruct(sample)
    seconds = time.perf_counter() - t0
    write_vti(output_vti, grid, {array: volume})
    return f"wrote {output_vti}: reconstructed with {method} in {seconds:.2f}s"


def cmd_evaluate(original_vti: str, reconstructed_vti: str, array: str | None = None) -> str:
    """Score a reconstruction against the original volume."""
    grid_a, name, original = _load_field(original_vti, array)
    grid_b, _, recon = _load_field(reconstructed_vti, None)
    if grid_a != grid_b:
        raise ValueError("original and reconstruction live on different grids")
    score = score_reconstruction(original, recon)
    parts = [f"{k}={v:.4f}" for k, v in score.as_dict().items()]
    return f"{reconstructed_vti} vs {original_vti} [{name}]: " + ", ".join(parts)


def cmd_render(
    input_vti: str,
    output_pgm: str,
    mode: str = "mip",
    axis: int = 2,
    array: str | None = None,
) -> str:
    """Project a volume to a PGM image (mip / mean / slice)."""
    from repro.vis import average_projection, max_intensity_projection, slice_field, write_pgm

    grid, name, values = _load_field(input_vti, array)
    if mode == "mip":
        image = max_intensity_projection(grid, values, axis=axis)
    elif mode == "mean":
        image = average_projection(grid, values, axis=axis)
    elif mode == "slice":
        image = slice_field(grid, values, axis=axis)
    else:
        raise ValueError(f"unknown render mode {mode!r} (mip, mean, slice)")
    write_pgm(output_pgm, image)
    return f"wrote {output_pgm}: {mode} of {name} along axis {axis} ({image.shape[0]}x{image.shape[1]})"


def cmd_campaign(
    output_dir: str,
    dataset: str = "combustion",
    dims=None,
    timesteps=(0, 4, 8, 12),
    fraction: float = 0.03,
    sampler: str = "multicriteria",
    train: bool = False,
    fractions=(0.01, 0.05),
    epochs: int = 100,
    finetune_epochs: int = 10,
    seed: int = 0,
    pipeline: bool = True,
    batched_finetune: bool = False,
    journal: bool = False,
    resume: bool = False,
) -> str:
    """Run a multi-timestep in situ campaign into ``output_dir``.

    Writes one sampled ``.vtp`` per timestep (plus FCNN checkpoints when
    ``train``) under a ``manifest.json`` + ``campaign.pvd`` index.  With
    ``pipeline`` the simulate/sample, train and write stages overlap on
    the :class:`repro.perf.CampaignScheduler`; the on-disk campaign is
    identical either way.

    ``journal`` keeps a durable write-ahead journal under
    ``output_dir/.wal/``; ``resume`` (implies ``journal``) skips the
    journal-verified completed prefix and finishes the campaign
    byte-identically to an uninterrupted run.  SIGTERM/SIGINT interrupt
    the run gracefully: in-flight timesteps drain, the journal flushes a
    resume manifest, and the exit reports how to continue.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}; available: {sorted(SAMPLERS)}")
    from repro.insitu import InSituWriter
    from repro.resilience.supervise import CampaignInterrupted, GracefulInterrupt

    data = make_dataset(dataset, dims=tuple(dims) if dims else None, seed=seed)
    writer = InSituWriter(
        data,
        SAMPLERS[sampler](seed=seed),
        fraction,
        train_model=train,
        train_fractions=tuple(fractions),
        epochs=epochs,
        finetune_epochs=finetune_epochs,
        batched_finetune=batched_finetune,
    )
    t0 = time.perf_counter()
    journal = journal or resume
    try:
        if journal:
            with GracefulInterrupt() as interrupt:
                manifest = writer.run(
                    output_dir, timesteps, pipeline=pipeline,
                    journal=True, resume=resume, interrupt=interrupt,
                )
        else:
            manifest = writer.run(output_dir, timesteps, pipeline=pipeline)
    except CampaignInterrupted as exc:
        return (
            f"campaign {output_dir} interrupted: {len(exc.completed)} further "
            f"timestep(s) completed and journaled; "
            f"re-run with --resume to continue from timestep {exc.next_timestep}"
        )
    seconds = time.perf_counter() - t0
    trained = f", {len(manifest.model_files)} model checkpoint(s)" if train else ""
    batched = ", batched fine-tune" if batched_finetune else ""
    resumed = " (resumed)" if resume else ""
    return (
        f"wrote campaign {output_dir}: {len(manifest.timesteps)} timestep(s) "
        f"at {fraction:.2%}{trained} in {seconds:.2f}s "
        f"(pipeline {'on' if pipeline else 'off'}{batched}){resumed}"
    )
