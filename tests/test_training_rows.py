"""Training sets are built in place, block by block, with the same bits.

``FCNNReconstructor._training_matrix`` preallocates the ``(N, features)`` /
``(N, targets)`` pair and fills it block by block; ``fine_tune_batch``
streams the same blocks through the frozen prefix without building the
matrix at all.  The identity property compares both, and
``FeatureExtractor.training_data``, with a reference written from the
allocating pieces: ``features()``, ``targets()``, ``np.concatenate`` and
``rng.choice``.  Under ``dtype_policy="float64"`` the rows equal the
reference; under float32 they equal it cast to float32.  The memory tests
bound what the builds hold at their peak.
"""

from __future__ import annotations

import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.features as features_mod
import repro.core.reconstructor as reconstructor_mod
from repro.core import FCNNReconstructor, FeatureExtractor, Normalizer, ReconstructionPipeline
from repro.datasets import make_dataset
from repro.nn.batched import ModelStack
from repro.perf import DtypePolicy
from repro.sampling import RandomSampler


def _reference(extractor, field, samples, normalizer, train_fraction, rng):
    fresh = FeatureExtractor(extractor.num_neighbors, extractor.include_gradients)
    xs, ys = [], []
    for sample in samples:
        void = sample.void_indices()
        points = field.grid.index_to_position(field.grid.flat_to_multi(void))
        xs.append(fresh.features(sample, points, normalizer))
        ys.append(extractor.targets(field, void, normalizer))
    x, y = np.concatenate(xs), np.concatenate(ys)
    if train_fraction < 1.0:
        keep = max(1, int(round(train_fraction * len(x))))
        idx = rng.choice(len(x), size=keep, replace=False)
        x, y = x[idx], y[idx]
    return x, y


def _per_sample(x, y, samples):
    start = 0
    for sample in samples:
        stop = start + len(sample.void_indices())
        yield x[start:stop], y[start:stop]
        start = stop


@st.composite
def _cases(draw):
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    points = dims[0] * dims[1] * dims[2]
    counts = draw(st.lists(st.integers(1, points), min_size=1, max_size=3))
    num_neighbors = draw(st.integers(1, 6))
    gradients = draw(st.booleans())
    train_fraction = draw(st.sampled_from([1.0, 1.0, 0.6, 0.25]))
    # Block heights that split samples, and one that never does.
    block = draw(st.sampled_from([1, 3, 7, 4096]))
    seed = draw(st.integers(0, 2**16))
    return dims, counts, num_neighbors, gradients, train_fraction, block, seed


@settings(max_examples=60, deadline=None)
@given(_cases())
# A flat axis, a sample with no voids and one smaller than num_neighbors.
@example(((4, 1, 3), [12, 2], 5, True, 1.0, 3, 11))
@example(((3, 4, 2), [1, 5, 24], 6, False, 0.25, 7, 12))
def test_training_rows_equal_the_allocating_reference(case):
    dims, counts, num_neighbors, gradients, train_fraction, block, seed = case
    points = dims[0] * dims[1] * dims[2]
    field = make_dataset("combustion", dims=dims, seed=0).field(0)
    samples = [
        RandomSampler(seed=seed + i).sample(field, count / points)
        for i, count in enumerate(counts)
    ]
    if train_fraction < 1.0 and not sum(len(s.void_indices()) for s in samples):
        return  # nothing to draw from: both paths raise in rng.choice
    recon = FCNNReconstructor(
        hidden_layers=(8,), num_neighbors=num_neighbors, include_gradients=gradients,
        dtype_policy="float64",
    )
    recon32 = FCNNReconstructor(
        hidden_layers=(8,), num_neighbors=num_neighbors, include_gradients=gradients,
        dtype_policy="float32",
    )
    extractor = recon.extractor
    normalizer = Normalizer.fit(
        field.grid,
        np.concatenate([s.values for s in samples]),
        extractor.training_gradients(field),
    )
    want_x, want_y = _reference(
        extractor, field, samples, normalizer, train_fraction, np.random.default_rng(seed)
    )
    with mock.patch.object(features_mod, "TRAINING_BLOCK", block), mock.patch.object(
        reconstructor_mod, "TRAINING_BLOCK", block
    ):
        x, y = recon._training_matrix(
            field, samples, normalizer, train_fraction, np.random.default_rng(seed)
        )
        x32, y32 = recon32._training_matrix(
            field, samples, normalizer, train_fraction, np.random.default_rng(seed)
        )
        # The streamed build yields the same rows; a block is only valid
        # until the next one is requested, as the trainer consumes it.
        streamed = [
            (xb.copy(), yb.copy())
            for xb, yb in recon._training_blocks(
                field, samples, normalizer, train_fraction, np.random.default_rng(seed)
            )
        ]
        streamed32 = [
            (xb.copy(), yb.copy())
            for xb, yb in recon32._training_blocks(
                field, samples, normalizer, train_fraction, np.random.default_rng(seed)
            )
        ]
        if train_fraction == 1.0:
            per_sample = _per_sample(want_x, want_y, samples)
            for sample, (want_xs, want_ys) in zip(samples, per_sample):
                got_xs, got_ys = extractor.training_data(field, sample, normalizer)
                assert got_xs.tobytes() == want_xs.tobytes()
                assert got_ys.tobytes() == want_ys.tobytes()
    assert x.shape == want_x.shape and y.shape == want_y.shape
    assert x.tobytes() == want_x.tobytes()
    assert y.tobytes() == want_y.tobytes()
    assert all(len(xb) <= block for xb, _ in streamed)
    stream_x = np.concatenate([xb for xb, _ in streamed] or [x[:0]])
    stream_y = np.concatenate([yb for _, yb in streamed] or [y[:0]])
    assert stream_x.tobytes() == want_x.tobytes()
    assert stream_y.tobytes() == want_y.tobytes()
    # float32 rows: each element rounded once from the float64 row
    assert x32.dtype == y32.dtype == np.float32
    assert x32.tobytes() == want_x.astype(np.float32).tobytes()
    assert y32.tobytes() == want_y.astype(np.float32).tobytes()
    stream_x32 = np.concatenate([xb for xb, _ in streamed32] or [x32[:0]])
    stream_y32 = np.concatenate([yb for _, yb in streamed32] or [y32[:0]])
    assert stream_x32.tobytes() == x32.tobytes()
    assert stream_y32.tobytes() == y32.tobytes()


# --------------------------------------------------------------------- memory
DIMS = (32, 32, 16)
FRACTIONS = (0.01, 0.05)
HIDDEN = (32, 16)
BATCH = 512


@pytest.fixture(scope="module")
def case():
    data = make_dataset("combustion", dims=DIMS, seed=0)
    pipe = ReconstructionPipeline(data, train_fractions=FRACTIONS)
    base = FCNNReconstructor(
        hidden_layers=HIDDEN, batch_size=BATCH, seed=7, dtype_policy="float64"
    )
    pipe.train_fcnn(base, timestep=0, epochs=1)
    field = pipe.field(4)
    train = [pipe.sample(field, fr) for fr in FRACTIONS]
    for sample in train:
        sample.void_indices()  # cached before tracing, as campaigns do
    return base, field, train


def _traced_peak(job):
    gc.collect()
    tracemalloc.start()
    try:
        result = job()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_matrix_peak_is_its_result_plus_a_block(case):
    base, field, train = case
    (x, y), peak = _traced_peak(
        lambda: base._training_matrix(
            field, train, base.normalizer, 1.0, np.random.default_rng(0)
        )
    )
    result = x.nbytes + y.nbytes
    assert peak <= 1.5 * result, f"peak {peak / 1e6:.1f} MB for a {result / 1e6:.1f} MB result"


def test_float32_training_matrix_peak_is_its_result_plus_a_block(case):
    """Float32 rows: half the result, and the same block allowance on top.

    The float64 bound above allows its result plus half of it; half the
    float64 result is the float32 result, so the float32 build may hold
    twice its own result.  A float64 copy of the rows beside them would
    alone break it.
    """
    base, field, train = case
    base32 = base.clone()
    base32.dtype_policy = DtypePolicy("float32")
    (x, y), peak = _traced_peak(
        lambda: base32._training_matrix(
            field, train, base.normalizer, 1.0, np.random.default_rng(0)
        )
    )
    assert x.dtype == y.dtype == np.float32
    result = x.nbytes + y.nbytes
    assert peak <= 2 * result, f"peak {peak / 1e6:.1f} MB for a {result / 1e6:.1f} MB result"


@pytest.mark.parametrize("strategy", ["last", "full"])
def test_fine_tune_batch_never_holds_a_feature_matrix(case, strategy):
    """Staging holds the slabs plus one block, never a whole ``(N, 23)`` matrix.

    Case 2 stages ``(N, width)`` prefix activations, Case 1 the
    ``(N, features)`` inputs themselves; either way a second copy of the
    feature matrix alive next to the slabs breaks the bound.
    """
    base, field, train = case
    n = sum(len(s.void_indices()) for s in train)
    features = base.extractor.feature_size
    targets = base.extractor.target_size
    stack = ModelStack.from_network(base.model, k=1)
    stack.freeze_all_but_last(2)
    width = stack.prefix_width(stack.trainable_cut()) if strategy == "last" else features
    assert BATCH * 8 < n
    bound = 8 * n * (width + targets) + 8 * n * features
    model = base.clone()
    _, peak = _traced_peak(
        lambda: model.fine_tune_batch([field], [train], epochs=1, strategy=strategy)
    )
    assert peak < bound, f"peak {peak / 1e6:.1f} MB exceeds {bound / 1e6:.1f} MB"
