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

With ``config.batched_finetune`` the ``fcnn-ft`` curves switch to the
fused :mod:`repro.nn.batched` engine: every timestep fine-tunes **from
the pretrained base** (the paper's transfer setup) and timesteps advance
together in blocks of ``config.finetune_batch`` — a different (but
block-size-invariant) trajectory from the rolling curves by design; see
docs/TRAINING.md.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig, get_config
from repro.experiments.runner import ExperimentResult, build_pipeline, build_reconstructor, test_samples
from repro.metrics import snr
from repro.perf.campaign import CampaignScheduler
from repro.perf.weights import restore_weights, snapshot_weights

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

    # Rolling fine-tuned copies (model state carries forward in time) and
    # emit-side twins the published per-timestep weights are restored into.
    # clone() copies only the learned state — not deepcopy's arenas/caches.
    finetuned = {tag: model.clone() for tag, model in pretrained.items()}
    emitters = {tag: model.clone() for tag, model in pretrained.items()}

    def materialize(t: int):
        field = pipeline.field(t)
        sample = test_samples(pipeline, field, (config.timestep_fraction,), config)[
            config.timestep_fraction
        ]
        return field, sample

    def process(t: int, item):
        field, sample = item
        # Both rolling models fine-tune on the same (deterministic) draws.
        train = [pipeline.sample(field, f) for f in config.train_fractions]
        flats = {}
        for tag, model in finetuned.items():
            model.fine_tune(field, train, epochs=config.finetune_epochs, strategy="full")
            flats[tag] = snapshot_weights(model.model).data
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

    # Batched variant: scheduler items become block indices, every block's
    # fcnn-ft members fine-tune together from the pretrained base.
    blocks: list[tuple[int, ...]] = []
    if config.batched_finetune:
        size = config.finetune_batch if config.finetune_batch > 0 else len(timesteps)
        blocks = [timesteps[i : i + size] for i in range(0, len(timesteps), size)]

    def materialize_block(block_index: int):
        return [materialize(t) for t in blocks[block_index]]

    def process_block(block_index: int, items):
        fields = [field for field, _ in items]
        trains = [
            [pipeline.sample(field, f) for f in config.train_fractions] for field in fields
        ]
        flats_per_t = [{} for _ in items]
        for tag, model in pretrained.items():
            flats, _histories = model.fine_tune_batch(
                fields, trains, epochs=config.finetune_epochs, strategy="full"
            )
            for slot, flat in zip(flats_per_t, flats):
                slot[tag] = flat
        return [
            (field, sample, flats) for (field, sample), flats in zip(items, flats_per_t)
        ]

    def emit_block(block_index: int, payloads):
        return [emit(t, payload) for t, payload in zip(blocks[block_index], payloads)]

    if config.batched_finetune:
        scheduler = CampaignScheduler(
            materialize_block, process_block, emit_block, pipeline=config.campaign_pipeline
        )
        records = (
            record for block in scheduler.run(range(len(blocks))) for record in block
        )
    else:
        scheduler = CampaignScheduler(
            materialize, process, emit, pipeline=config.campaign_pipeline
        )
        records = iter(scheduler.run(timesteps))
    for record in records:
        result.rows.append(record)
        for key, value in record.items():
            if key != "timestep":
                result.series.setdefault(key, []).append((record["timestep"], value))
    return result


if __name__ == "__main__":
    print(run().format())
