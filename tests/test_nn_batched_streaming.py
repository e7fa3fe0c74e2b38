"""Batched Case-2 fine-tuning streams its members: bounded memory, same bits.

``FCNNReconstructor.fine_tune_batch(strategy="last")`` builds each
member's training rows block by block and pushes every block through the
frozen prefix straight into the ``(K, N, width)`` activation slab, so no
member's ``(N, features)`` matrix is ever built.  Peak memory is therefore
the slabs plus one block, and the weights equal those of the earlier
formulation that stacked every member's ``(N, features)`` matrix first —
reimplemented below from public pieces as the reference.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core import FCNNReconstructor, ReconstructionPipeline
from repro.core.reconstructor import _grid_span
from repro.datasets import make_dataset
from repro.nn.batched import BatchedAdam, BatchedTrainer, ModelStack
from repro.perf import Workspace

DIMS = (24, 24, 12)
FRACTIONS = (0.02, 0.05)
STEPS = (2, 4, 6, 8)
EPOCHS = 2

#: sha256 of the four members' concatenated flat weights for this fixture,
#: recorded before fine-tuning streamed its members (numpy 2.4.6 with
#: OpenBLAS 0.3.31, x86-64).  Other BLAS builds may round differently, so
#: the digest is only compared on that build; the stacked reference below
#: carries the bit-identity check everywhere.
RECORDED_NUMPY = "2.4.6"
RECORDED_BLAS = "0.3.31.188.0"
RECORDED_SHA256 = "f131e10da76c94d8ff0b56430f9150e32bb20410e3daad1f97eff6374dbde89f"


@pytest.fixture(scope="module")
def case():
    data = make_dataset("combustion", dims=DIMS, seed=0)
    pipe = ReconstructionPipeline(data, train_fractions=FRACTIONS)
    # float64 end to end: the recorded digest was made with a float64 base.
    base = FCNNReconstructor(
        hidden_layers=(16, 8), batch_size=1024, seed=7, dtype_policy="float64"
    )
    pipe.train_fcnn(base, timestep=0, epochs=2)
    fields = [pipe.field(t) for t in STEPS]
    trains = [[pipe.sample(f, fr) for fr in FRACTIONS] for f in fields]
    return base, fields, trains


def _rows(trains) -> int:
    rows = {sum(len(s.void_indices()) for s in train) for train in trains}
    assert len(rows) == 1, "the fixture must stack all steps into one group"
    return rows.pop()


def _case2_stack(base, k: int) -> tuple[ModelStack, int]:
    stack = ModelStack.from_network(base.model, k=k)
    stack.freeze_all_but_last(2)
    return stack, stack.trainable_cut()


def _stacked_reference(base, fields, trains) -> list[np.ndarray]:
    """Every member's matrix built up front, stacked, and pushed through the
    K-wide frozen prefix in one call; then the suffix trains on the cached
    activations.  Rows round the same at any block height, so the
    reference's single block matches the trainer's mini-batch-sized ones."""
    model = base.clone()
    xs, ys = [], []
    for field, train in zip(fields, trains):
        tuned = dataclasses.replace(
            model.normalizer,
            origin=np.asarray(field.grid.origin, dtype=np.float64),
            span=_grid_span(field.grid),
        )
        rng = np.random.default_rng(model.seed + 1)
        x, y = model._training_matrix(field, train, tuned, 1.0, rng)
        xs.append(x)
        ys.append(y)
    x, y = np.stack(xs), np.stack(ys)
    k, n = x.shape[:2]
    stack, cut = _case2_stack(model, k)
    stack.attach_workspace(Workspace())
    z = stack.forward(x, stop=cut).copy()
    assert z.shape == (k, n, stack.prefix_width(cut))
    stack.detach_workspace()
    suffix = ModelStack(stack.layers[cut:], k)  # shares the stack's layers
    trainer = BatchedTrainer(
        suffix,
        loss=model._loss(),
        optimizer=BatchedAdam(suffix.parameters(), lr=model.learning_rate),
        batch_size=model.batch_size,
        seed=model.seed + 1,
        workspace=Workspace(),
    )
    trainer.fit(z, y, epochs=EPOCHS)
    return [stack.member_weights(m) for m in range(k)]


def test_flats_equal_the_stacked_formulation(case):
    base, fields, trains = case
    flats, _ = base.clone().fine_tune_batch(fields, trains, epochs=EPOCHS, strategy="last")
    reference = _stacked_reference(base, fields, trains)
    for got, want in zip(flats, reference):
        assert got.tobytes() == want.tobytes()


def test_peak_memory_holds_one_members_features(case):
    base, fields, trains = case
    k, n = len(fields), _rows(trains)
    stack, cut = _case2_stack(base, 1)
    width = stack.prefix_width(cut)
    targets = base.extractor.target_size
    features = base.extractor.feature_size
    bound = 2 * (k * n * (width + targets) + 3 * n * features) * 8
    model = base.clone()
    gc.collect()
    tracemalloc.start()
    try:
        model.fine_tune_batch(fields, trains, epochs=EPOCHS, strategy="last")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB exceeds {bound / 1e6:.1f} MB"


def _blas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        return None


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY or _blas_version() != RECORDED_BLAS,
    reason="digest recorded on another numpy/BLAS build",
)
def test_flats_digest_matches_the_recorded_one(case):
    base, fields, trains = case
    flats, _ = base.clone().fine_tune_batch(fields, trains, epochs=EPOCHS, strategy="last")
    digest = hashlib.sha256(b"".join(flat.tobytes() for flat in flats)).hexdigest()
    assert digest == RECORDED_SHA256
