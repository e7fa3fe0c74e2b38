"""Shared experiment configuration and CPU/paper profiles.

The paper ran on a 64-core/2xA100 node at full dataset resolutions; this
reproduction runs anywhere, so experiment scale is a profile:

* ``quick``  — seconds-scale; used by the test suite.
* ``bench``  — minutes-scale; the default for ``benchmarks/`` and the CLI,
  small grids but enough training for the paper's qualitative shape.
* ``paper``  — the paper's architecture (512-16 hidden ladder), 500 epochs,
  larger grids and all 48 Isabel timesteps; hours-scale on one CPU.

All profiles exercise identical code paths; only sizes change.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = ["ExperimentConfig", "PROFILES", "get_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment runner."""

    profile: str = "bench"
    dataset: str = "hurricane"
    #: grid resolution the dataset is materialized at
    dims: tuple[int, int, int] = (40, 40, 12)
    #: sampling percentages whose union trains the FCNN (paper: 1% + 5%)
    train_fractions: tuple[float, ...] = (0.01, 0.05)
    #: sampling percentages reconstructed at test time (paper: 0.1%..5%)
    test_fractions: tuple[float, ...] = (0.001, 0.005, 0.01, 0.02, 0.03, 0.05)
    #: FCNN hidden-layer widths
    hidden_layers: tuple[int, ...] = (128, 64, 32, 16)
    #: full-training epoch budget (paper: 500)
    epochs: int = 150
    #: Case-1 fine-tuning epochs (paper: ~10)
    finetune_epochs: int = 10
    #: Case-2 (last-two-layer) fine-tuning epochs (paper: 300-500)
    case2_epochs: int = 300
    batch_size: int = 4096
    learning_rate: float = 1e-3
    gradient_loss_weight: float = 0.1
    #: seed offset for test-time sample draws (independent of training draws)
    test_seed_offset: int = 1000
    num_neighbors: int = 5
    #: timesteps evaluated by the multi-timestep experiment (Fig 11)
    timesteps: tuple[int, ...] = tuple(range(0, 48, 4))
    #: sampling percentage used by the multi-timestep experiment (paper: 3%)
    timestep_fraction: float = 0.03
    #: per-axis upscale factor of the Fig 13 experiment
    upscale_factor: int = 2
    #: fractional domain shift of the upscaled grid (Fig 13)
    upscale_shift: tuple[float, float, float] = (0.15, 0.15, 0.0)
    #: numerical health-guard policy for FCNN training runs
    #: (see :class:`repro.resilience.HealthGuard`); "rollback" restores the
    #: last good epoch and halves the learning rate on NaN/Inf
    health_policy: str = "rollback"
    #: rollback retry budget before a run is declared unrecoverable
    health_max_retries: int = 3
    #: epochs between training checkpoints (0 disables checkpointing)
    checkpoint_every: int = 0
    #: directory for training checkpoints (None disables on-disk checkpoints)
    checkpoint_dir: str | None = None
    #: root directory for run telemetry (``repro.obs``); each experiment
    #: records JSONL events + a run.json manifest under ``<obs>/<name>``.
    #: None (the default) disables observability — instrumented code paths
    #: then cost a no-op call (see docs/OBSERVABILITY.md)
    obs: str | None = None
    #: route training/inference through the repro.perf workspace fast path
    #: (bit-identical to the slow path while ``dtype_policy`` is float64)
    fast_path: bool = True
    #: network compute dtype ("float64" keeps seed numerics; "float32"
    #: halves bandwidth at ~1e-7 relative error — see repro.perf.DtypePolicy)
    dtype_policy: str = "float64"
    #: overlap materialize/fine-tune/reconstruct across timesteps on the
    #: streaming CampaignScheduler (bit-identical to the serial schedule;
    #: False forces the serial loop — see docs/PERFORMANCE.md)
    campaign_pipeline: bool = True
    #: fine-tune every campaign timestep from the pretrained base
    #: (FCNNReconstructor.fine_tune_batch, one timestep per call) instead
    #: of rolling weights forward (changes the trajectory by design — see
    #: docs/TRAINING.md)
    batched_finetune: bool = False
    #: spatial domain decomposition for campaigns: an ``AxBxC`` spec, a
    #: plain shard count, or None (unsharded) — see repro.shard and
    #: docs/PERFORMANCE.md ("Shard-parallel campaigns")
    shards: str | tuple[int, int, int] | None = None
    #: halo/ghost-zone width in grid cells around each shard (None sizes
    #: it to the kNN stencil via repro.shard.suggest_halo)
    halo: int | None = None
    #: "global" reconstructs every shard with the timestep's one model
    #: (bit-identical to unsharded); "local" fine-tunes one model per
    #: (timestep, shard) on its halo-extended box (SNR parity)
    shard_scope: str = "global"
    seed: int = 7

    def scaled(self, **overrides) -> "ExperimentConfig":
        """Copy with overridden fields."""
        return replace(self, **overrides)


PROFILES: dict[str, ExperimentConfig] = {
    "quick": ExperimentConfig(
        profile="quick",
        dims=(24, 24, 8),
        test_fractions=(0.01, 0.03),
        hidden_layers=(48, 24, 12),
        epochs=25,
        case2_epochs=40,
        timesteps=(0, 12, 24, 36),
        batch_size=2048,
    ),
    # The bench profile evaluates the timestep experiment at 1.5% rather
    # than the paper's 3%: the scaled-down FCNN's quality ceiling moves the
    # FCNN-vs-linear crossover to ~2% sampling (see EXPERIMENTS.md), and
    # the experiment's qualitative claims are probed below it.
    "bench": ExperimentConfig(timestep_fraction=0.015),
    "paper": ExperimentConfig(
        profile="paper",
        dims=(100, 100, 28),
        hidden_layers=(512, 256, 128, 64, 16),
        epochs=500,
        case2_epochs=400,
        timesteps=tuple(range(48)),
        test_fractions=(0.001, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05),
    ),
}


def get_config(profile: str = "bench", **overrides) -> ExperimentConfig:
    """Look up a profile and apply overrides."""
    try:
        cfg = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; available: {sorted(PROFILES)}") from None
    return cfg.scaled(**overrides) if overrides else cfg
