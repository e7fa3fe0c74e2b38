"""From-base fine-tuning holds one timestep's training data at a time.

Every from-base fine-tune (``run_campaign(batched_finetune=True)``,
``InSituWriter(batched_finetune=True)`` and ``build_registry``) trains one
timestep per :meth:`~repro.core.FCNNReconstructor.fine_tune_batch` call,
so the traced NumPy peak must not grow with the number of timesteps.
Stacking every timestep into one ``(K, N, ·)`` slab made the peak over 8
timesteps about 1.6× the peak over 4.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core import FCNNReconstructor, ReconstructionPipeline
from repro.datasets import make_dataset
from repro.insitu import InSituWriter
from repro.sampling import MultiCriteriaSampler
from repro.serve import build_registry

DIMS = (32, 32, 16)
HIDDEN = (32, 16)
#: allowed growth of the peak from 4 to 8 timesteps
SLACK = 1.1


def _peak_mb(job) -> float:
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _assert_flat(job) -> None:
    four, eight = _peak_mb(lambda: job(4)), _peak_mb(lambda: job(8))
    assert eight <= SLACK * four, f"peak {four:.1f} MB at 4 timesteps, {eight:.1f} MB at 8"


@pytest.fixture(scope="module")
def dataset():
    return make_dataset("combustion", dims=DIMS, seed=0)


def test_from_base_run_campaign_peak_does_not_grow_with_timesteps(dataset):
    pipe = ReconstructionPipeline(dataset, train_fractions=(0.02, 0.05))
    base = FCNNReconstructor(hidden_layers=HIDDEN, batch_size=1024, seed=7)
    pipe.train_fcnn(base, timestep=0, epochs=1)

    def job(n: int) -> None:
        pipe.run_campaign(
            base.clone(),
            range(0, 2 * n, 2),
            0.05,
            finetune_epochs=1,
            finetune_strategy="last",
            batched_finetune=True,
            warm_pool=False,
            pipeline=False,
        )

    _assert_flat(job)


def test_batched_insitu_writer_peak_does_not_grow_with_timesteps(dataset, tmp_path):
    def job(n: int) -> None:
        InSituWriter(
            dataset,
            MultiCriteriaSampler(seed=0),
            0.05,
            train_model=True,
            train_fractions=(0.02, 0.05),
            epochs=1,
            finetune_epochs=1,
            model_kwargs={"hidden_layers": HIDDEN, "batch_size": 1024, "seed": 7},
            batched_finetune=True,
        ).run(tmp_path / f"t{n}", range(0, 2 * n + 2, 2), pipeline=False)

    _assert_flat(job)


def test_build_registry_peak_does_not_grow_with_timesteps(tmp_path):
    def job(n: int) -> None:
        build_registry(
            tmp_path / f"t{n}",
            dims=DIMS,
            timesteps=range(n),
            epochs=1,
            finetune_epochs=1,
            hidden=HIDDEN,
        )

    _assert_flat(job)
