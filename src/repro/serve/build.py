"""Registry builders: train + fine-tune a campaign into a registry.

The serving layer consumes what the campaign produces — per-timestep
fine-tuned flat weight vectors over one frozen sample geometry.
:func:`build_registry` runs that production path end to end (pretrain a
base at the first timestep, fine-tune every timestep from the base with
one :meth:`~repro.core.FCNNReconstructor.fine_tune_batch` call each — the
``run_campaign(batched_finetune=True)`` trajectory) and lands the
results in a durable :class:`~repro.serve.ModelRegistry`, one key per
timestep.  Used by ``repro serve build`` and the replay benches.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs import span
from repro.serve.registry import ModelKey, ModelRegistry

__all__ = ["build_registry"]


def build_registry(
    root: str | Path,
    dataset: str = "combustion",
    dims: tuple[int, int, int] | None = (16, 16, 8),
    fraction: float = 0.05,
    timesteps=(0, 1, 2, 3),
    epochs: int = 40,
    finetune_epochs: int = 4,
    hidden: tuple[int, ...] = (32, 16),
    train_fractions: tuple[float, ...] = (0.01, 0.05),
    seed: int = 0,
    hot_capacity: int = 16,
) -> ModelRegistry:
    """Train, fine-tune from the base and register one (dataset, fraction) family.

    Returns the populated registry; its ``geometry_cache`` is primed with
    the namespace geometry, so a server over it reuses the builder's void
    enumeration and kd-tree instead of recomputing them.
    """
    from repro.core.pipeline import ReconstructionPipeline
    from repro.core.reconstructor import FCNNReconstructor
    from repro.datasets.registry import make_dataset
    from repro.sampling import MultiCriteriaSampler

    steps = [int(t) for t in timesteps]
    if not steps:
        raise ValueError("need at least one timestep to build a registry")
    data = make_dataset(dataset, dims=tuple(dims) if dims else None, seed=seed)
    pipe = ReconstructionPipeline(
        dataset=data,
        sampler=MultiCriteriaSampler(seed=seed),
        train_fractions=tuple(float(f) for f in train_fractions),
    )
    recon = FCNNReconstructor(hidden_layers=tuple(hidden), seed=seed)
    with span("serve.build.train", dataset=data.name, epochs=epochs):
        pipe.train_fcnn(recon, timestep=steps[0], epochs=epochs)

    field0 = pipe.field(steps[0])
    geometry = pipe.geometry_cache.get(
        pipe.sample(field0, fraction), dtype=recon.dtype_policy.compute
    )
    registry = ModelRegistry(
        root, hot_capacity=hot_capacity, geometry_cache=pipe.geometry_cache
    )
    registry.create_namespace(data.name, fraction, recon, geometry.grid, geometry.indices)

    with span("serve.build.finetune", steps=len(steps)):
        # One timestep at a time: only its field and training samples are
        # alive while it fine-tunes, and it is registered before the next.
        for t in steps:
            fld = field0 if t == steps[0] else pipe.field(t)
            train = [pipe.sample(fld, f) for f in pipe.train_fractions]
            (flat,), _ = recon.fine_tune_batch([fld], [train], epochs=finetune_epochs)
            values = fld.values.ravel()[geometry.indices]
            registry.put(ModelKey(data.name, float(fraction), t), flat, values)
    return registry
