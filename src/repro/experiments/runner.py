"""Shared experiment plumbing: results, builders, timing."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import FCNNReconstructor
from repro.core.pipeline import ReconstructionPipeline
from repro.datasets import make_dataset
from repro.experiments.config import ExperimentConfig
from repro.obs import NullRecorder, RunRecorder
from repro.resilience import CheckpointConfig, HealthGuard
from repro.sampling import MultiCriteriaSampler

__all__ = [
    "ExperimentResult",
    "build_pipeline",
    "build_reconstructor",
    "build_health_guard",
    "build_checkpoint_config",
    "build_recorder",
    "timed",
]


@dataclass
class ExperimentResult:
    """Structured output of one experiment runner.

    ``rows`` are flat records (one per measured point, ready for tabular
    printing); ``series`` groups the same numbers the way the paper's figure
    draws its curves; ``notes`` records provenance (profile, sizes, seeds).
    """

    experiment: str
    rows: list[dict] = field(default_factory=list)
    series: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def format(self) -> str:
        """ASCII rendering: notes, then the rows as an aligned table."""
        from repro.experiments.reporting import format_table

        lines = [f"== {self.experiment} =="]
        for k, v in self.notes.items():
            lines.append(f"   {k}: {v}")
        if self.rows:
            lines.append(format_table(self.rows))
        return "\n".join(lines)


def build_pipeline(config: ExperimentConfig, dataset: str | None = None) -> ReconstructionPipeline:
    """Dataset + paper sampler + training fractions from a config."""
    data = make_dataset(dataset or config.dataset, dims=config.dims, seed=config.seed)
    sampler = MultiCriteriaSampler(seed=config.seed)
    return ReconstructionPipeline(
        dataset=data,
        sampler=sampler,
        train_fractions=config.train_fractions,
    )


def build_reconstructor(config: ExperimentConfig, **overrides) -> FCNNReconstructor:
    """FCNN configured from an :class:`ExperimentConfig`."""
    kwargs = dict(
        hidden_layers=config.hidden_layers,
        num_neighbors=config.num_neighbors,
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        gradient_loss_weight=config.gradient_loss_weight,
        seed=config.seed,
        dtype_policy=config.dtype_policy,
    )
    kwargs.update(overrides)
    return FCNNReconstructor(**kwargs)


def build_health_guard(config: ExperimentConfig) -> HealthGuard | None:
    """Numerical health guard from a config; ``health_policy=""`` disables it."""
    if not config.health_policy:
        return None
    return HealthGuard(config.health_policy, max_retries=config.health_max_retries)


def build_checkpoint_config(
    config: ExperimentConfig, name: str = "train"
) -> CheckpointConfig | None:
    """Training-checkpoint config, or ``None`` when checkpointing is off.

    Checkpoints land at ``<checkpoint_dir>/<name>.npz`` every
    ``checkpoint_every`` epochs; both fields must be set to enable them.
    """
    if config.checkpoint_every <= 0 or not config.checkpoint_dir:
        return None
    path = Path(config.checkpoint_dir) / f"{name}.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    return CheckpointConfig(path=path, every=config.checkpoint_every)


def build_recorder(config: ExperimentConfig, name: str) -> RunRecorder | NullRecorder:
    """Run recorder for one experiment, or a no-op when ``config.obs`` is unset.

    The recorder lands at ``<config.obs>/<name>`` (JSONL events +
    ``run.json`` manifest) and its metadata captures the config fields that
    determine the run (profile, dataset, dims, seed, epochs) so two runs'
    ``config_hash`` match exactly when their setups do.  Use as a context
    manager around the runner call::

        with build_recorder(config, "fig10"):
            result = exp_sampling_time.run(config)
    """
    if not config.obs:
        return NullRecorder()
    meta = {
        "experiment": name,
        "profile": config.profile,
        "dataset": config.dataset,
        "dims": list(config.dims),
        "epochs": config.epochs,
        "hidden_layers": list(config.hidden_layers),
        "seed": config.seed,
    }
    return RunRecorder(Path(config.obs) / name, meta=meta)


def test_samples(pipeline, field, fractions, config: ExperimentConfig) -> dict:
    """Independent test-time sample draws, one per fraction.

    Test draws use a seed offset from the training sampler's so a model is
    never scored on the very voids it trained on.
    """
    seed = config.seed + config.test_seed_offset
    return {f: pipeline.sample(field, f, seed=seed) for f in fractions}


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of calling ``fn``."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0
