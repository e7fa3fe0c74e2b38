"""Fig 11 — reconstruction quality across timesteps.

Hurricane dataset at the paper's 3% sampling rate.  Five curves:

* ``linear`` — Delaunay reconstruction from scratch at every timestep;
* ``fcnn-pre@A`` / ``fcnn-pre@B`` — FCNNs pretrained on the first and the
  middle evaluated timestep, applied to every timestep *without*
  fine-tuning (quality degrades away from the training timestep);
* ``fcnn-ft@A`` / ``fcnn-ft@B`` — the same pretrained models rolled across
  the timesteps with ~10 epochs of Case-1 fine-tuning at each, which the
  paper shows recovers quality and beats linear everywhere.

The timestep loop runs on the streaming
:class:`~repro.perf.CampaignScheduler`: timesteps ``t+1`` and ``t+2`` are
materialized and sampled on two prefetch threads while ``t`` fine-tunes on
the main thread and ``t-1`` reconstructs/scores on the emit thread.
Fine-tuning stays strictly sequential (model state rolls forward in time) and the
emit stage works on published weight snapshots restored into dedicated
clones — results are bit-identical to the serial loop
(``config.campaign_pipeline = False``).

With ``config.batched_finetune`` the ``fcnn-ft`` curves fine-tune every
timestep **from the pretrained base** (the paper's transfer setup) — a
different trajectory from the rolling curves by design; both schedules are
:func:`~repro.perf.campaign.fine_tune_step`, as in the two campaigns;
see docs/TRAINING.md.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig, get_config
from repro.experiments.runner import ExperimentResult, build_pipeline, build_reconstructor, test_samples
from repro.metrics import snr
from repro.perf.campaign import CampaignScheduler, fine_tune_step
from repro.perf.weights import restore_weights

__all__ = ["run"]


def run(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Regenerate Fig 11."""
    config = config or get_config()
    timesteps = tuple(config.timesteps)
    if len(timesteps) < 2:
        raise ValueError("need at least two timesteps for the timestep experiment")
    t_a = timesteps[0]
    t_b = timesteps[len(timesteps) // 2]

    result = ExperimentResult(
        experiment="fig11-timesteps",
        notes={
            "profile": config.profile,
            "dims": config.dims,
            "fraction": config.timestep_fraction,
            "pretrain_timesteps": (t_a, t_b),
            "finetune_epochs": config.finetune_epochs,
            "pipeline": config.campaign_pipeline,
            "batched_finetune": config.batched_finetune,
        },
    )

    pipeline = build_pipeline(config)
    from repro.interpolation import make_interpolator

    linear = make_interpolator("linear")

    # Pretrain the two base models.
    pretrained = {}
    for tag, t in (("A", t_a), ("B", t_b)):
        fcnn = build_reconstructor(config)
        pipeline.train_fcnn(fcnn, timestep=t, epochs=config.epochs)
        pretrained[tag] = fcnn

    # Caller-side copies to fine-tune (rolling ones carry model state
    # forward in time) and emit-side twins the published per-timestep
    # weights are restored into; the emit thread reconstructs with
    # ``pretrained``, so the caller never touches it.
    # clone() copies only the learned state — not deepcopy's arenas/caches.
    finetuned = {tag: model.clone() for tag, model in pretrained.items()}
    emitters = {tag: model.clone() for tag, model in pretrained.items()}

    def materialize(t: int):
        field = pipeline.field(t)
        sample = test_samples(pipeline, field, (config.timestep_fraction,), config)[
            config.timestep_fraction
        ]
        train = [pipeline.sample(field, f) for f in config.train_fractions]
        return field, sample, train

    def process(t: int, item):
        field, sample, train = item
        # Both models fine-tune on the same (deterministic) draws.
        flats = {
            tag: fine_tune_step(
                model, field, train, from_base=config.batched_finetune,
                epochs=config.finetune_epochs, strategy="full",
            )[0]
            for tag, model in finetuned.items()
        }
        return field, sample, flats

    def emit(t: int, payload):
        field, sample, flats = payload
        record = {"timestep": t}
        record["linear"] = snr(field.values, linear.reconstruct(sample))
        for tag, model in pretrained.items():
            record[f"fcnn-pre@{tag}"] = snr(field.values, model.reconstruct(sample))
        for tag, model in emitters.items():
            restore_weights(model.model, flats[tag])
            record[f"fcnn-ft@{tag}"] = snr(field.values, model.reconstruct(sample))
        return record

    scheduler = CampaignScheduler(materialize, process, emit, pipeline=config.campaign_pipeline)
    records = scheduler.run(timesteps)
    for record in records:
        result.rows.append(record)
        for key, value in record.items():
            if key != "timestep":
                result.series.setdefault(key, []).append((record["timestep"], value))
    return result


if __name__ == "__main__":
    print(run().format())
