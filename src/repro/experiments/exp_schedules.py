"""Extension experiment — learning-rate-schedule ablation.

The paper trains with a constant Adam lr of 0.001.  This ablation checks
whether the repo's schedules (step decay, exponential, cosine, warmup)
change the quality/epoch trade-off at a fixed epoch budget — the relevant
question for the paper-profile 500-epoch runs, where a decayed tail is the
cheapest way to raise the FCNN's SNR ceiling.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import ExperimentConfig, get_config
from repro.experiments.runner import ExperimentResult, build_pipeline, build_reconstructor, test_samples
from repro.metrics import snr
from repro.nn import (
    Adam,
    ConstantSchedule,
    CosineAnnealingSchedule,
    ExponentialDecaySchedule,
    StepDecaySchedule,
    Trainer,
    WarmupSchedule,
    apply_schedule,
)

__all__ = ["run"]


def _schedules(lr: float, epochs: int) -> dict:
    return {
        "constant": ConstantSchedule(lr),
        "step/2@40%": StepDecaySchedule(lr, step_size=max(1, int(0.4 * epochs)), factor=0.5),
        "exponential": ExponentialDecaySchedule(lr, decay=0.99),
        "cosine": CosineAnnealingSchedule(lr, total_epochs=epochs, lr_min=lr / 100),
        "warmup+cosine": WarmupSchedule(
            CosineAnnealingSchedule(lr, total_epochs=epochs, lr_min=lr / 100),
            warmup_epochs=max(1, epochs // 20),
        ),
    }


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Train the same FCNN under each schedule and compare SNR."""
    config = config or get_config()
    result = ExperimentResult(
        experiment="ext-lr-schedules",
        notes={"profile": config.profile, "dims": config.dims, "epochs": config.epochs},
    )

    pipeline = build_pipeline(config)
    field = pipeline.field(0)
    train = [pipeline.sample(field, f) for f in config.train_fractions]
    samples = test_samples(pipeline, field, config.test_fractions, config)

    for label, schedule in _schedules(config.learning_rate, config.epochs).items():
        fcnn = build_reconstructor(config)
        # Assemble training data through the public train() path once to
        # build model + normalizer, then continue with a scheduled Trainer.
        fcnn.train(field, train, epochs=0)
        normalizer = fcnn.normalizer
        rng = np.random.default_rng(config.seed)
        x, y = fcnn._training_matrix(field, train, normalizer, 1.0, rng)

        optimizer = Adam(fcnn.model.parameters(), lr=schedule(0))
        trainer = Trainer(
            fcnn.model,
            loss=fcnn._loss(),
            optimizer=optimizer,
            batch_size=config.batch_size,
            seed=config.seed,
            workspace=fcnn._get_workspace(),
        )
        history = trainer.fit(
            x, y, epochs=config.epochs, callback=apply_schedule(optimizer, schedule)
        )

        snrs = [snr(field.values, fcnn.reconstruct(s)) for s in samples.values()]
        record = {
            "schedule": label,
            "avg_snr": float(np.mean(snrs)),
            "final_loss": history.train_loss[-1],
            "final_lr": optimizer.lr,
        }
        result.rows.append(record)
        result.series.setdefault("avg_snr", []).append((label, record["avg_snr"]))
    return result


if __name__ == "__main__":
    print(run().format())
