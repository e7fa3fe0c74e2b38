"""The engine against a plain-numpy oracle (``tests/oracle.py``), on tiny grids.

The oracle is written from the paper's description and shares no code
with ``repro``.  Two things are taken from the engine on purpose: the
seeded initial weights and shuffle order (the oracle would need the same
random draws anyway) and the kd-tree's neighbor indices, because on a
lattice several samples often lie at the same distance and their order
is the tree's to choose.  The neighbor test checks those indices against
the oracle's brute-force distances, so every choice the engine makes is
still checked.

Tolerances.  Under ``dtype_policy="float64"`` the engine and the oracle
differ only in summation order: weights, predictions and features agree
to ``FLOAT64``, a few thousand float64 ulps (the largest gap seen is
1e-15 relative).  Under the float32 default the engine rounds its rows,
weights and activations to float32 (2**-24 relative), while the oracle
stays in float64.  The stated float32 tolerance is about 100 times the
largest gap seen on these cases: weights after one epoch agree to
``FLOAT32_WEIGHTS`` (gap 8e-8), predictions to ``FLOAT32_VALUES`` times
the sample's standard deviation (gap 3.3e-7) and the epoch loss to
``FLOAT32_LOSS`` relative (gap 1.1e-7).  ``fine_tune_batch`` runs
``fine_tune`` from the base in the policy's dtype and is held to the same
tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import cKDTree

import oracle
from repro.core import FCNNReconstructor, FeatureExtractor, Normalizer
from repro.datasets import make_dataset
from repro.nn import Adam, WeightedMSELoss, mlp
from repro.nn.layers import Dense
from repro.sampling import RandomSampler

DIMS = (9, 8, 5)
HIDDEN = (16, 8)
BATCH = 64
SEED = 3
#: the reconstructor's default gradient_loss_weight on the three gradient columns
COLUMN_WEIGHTS = np.array([1.0, 0.1, 0.1, 0.1])

FLOAT64 = {"rtol": 1e-12, "atol": 1e-15}
FLOAT32_WEIGHTS = {"rtol": 0.0, "atol": 1e-5}
FLOAT32_VALUES = 3e-5
FLOAT32_LOSS = 1e-5
POLICIES = ["float64", "float32"]


class Case:
    """One tiny field, a training sample and a later timestep's sample."""

    def __init__(self) -> None:
        data = make_dataset("combustion", dims=DIMS, seed=0)
        self.field = data.field(0)
        self.field2 = data.field(6)
        self.sample = RandomSampler(seed=1).sample(self.field, 0.12)
        self.sample2 = RandomSampler(seed=2).sample(self.field2, 0.12)
        grid = self.field.grid
        self.geometry = (grid.dims, grid.spacing, grid.origin)
        self.positions = oracle.grid_positions(*self.geometry)
        self.gradients = oracle.field_gradients(self.field.values, grid.spacing)
        self.stats = oracle.fit_stats(*self.geometry, self.sample.values, self.gradients)


@pytest.fixture(scope="module")
def case() -> Case:
    return Case()


def _layers(model) -> list:
    """The model's Dense ``(W, b)`` pairs, widened to float64."""
    return [
        (layer.weight.value.astype(np.float64), layer.bias.value.astype(np.float64))
        for layer in model.layers
        if isinstance(layer, Dense)
    ]


def _unflatten(flat, like) -> list:
    out, offset = [], 0
    for w, b in like:
        pair = []
        for p in (w, b):
            pair.append(flat[offset : offset + p.size].reshape(p.shape))
            offset += p.size
        out.append(tuple(pair))
    return out


def _assert_layers(got, want, tol) -> None:
    for (gw, gb), (ww, wb) in zip(got, want, strict=True):
        np.testing.assert_allclose(gw, ww, **tol)
        np.testing.assert_allclose(gb, wb, **tol)


def _assert_values(got, want, policy, scale) -> None:
    if policy == "float64":
        np.testing.assert_allclose(got, want, **FLOAT64)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=FLOAT32_VALUES * scale)


def _rows(case, extractor, field, sample, stats):
    """The oracle's training rows over ``sample``'s voids, in the engine's row order."""
    void = sample.void_indices()
    queries = case.positions[void]
    idx = extractor._neighbor_indices(sample, queries)
    x = oracle.features(sample.points, sample.values, queries, idx, stats)
    gradients = oracle.field_gradients(field.values, field.grid.spacing)
    return x, oracle.targets(field.flat, void, gradients, stats)


def _fresh(policy):
    """An untrained reconstructor and the weights its ``train`` starts from."""
    recon = FCNNReconstructor(
        hidden_layers=HIDDEN, batch_size=BATCH, seed=SEED, dtype_policy=policy
    )
    model = recon._build_model()
    recon.dtype_policy.cast_model(model)  # the seeded start, in the compute dtype
    return recon, _layers(model)


# --------------------------------------------------------------------------
# pieces


def test_oracle_grid_is_the_engines(case):
    np.testing.assert_array_equal(case.positions, case.field.grid.points())


def test_neighbors_are_the_k_nearest(case):
    queries = case.positions[case.sample.void_indices()]
    idx = FeatureExtractor()._neighbor_indices(case.sample, queries)
    got = np.linalg.norm(case.sample.points[idx] - queries[:, None, :], axis=2)
    np.testing.assert_allclose(
        got, oracle.nearest_distances(case.sample.points, queries, 5), rtol=0, atol=1e-12
    )


def test_features_and_targets(case):
    extractor = FeatureExtractor()
    gradients = extractor.training_gradients(case.field)
    normalizer = Normalizer.fit(case.field.grid, case.sample.values, gradients)
    void = case.sample.void_indices()
    queries = case.positions[void]
    x = extractor.features(case.sample, queries, normalizer)
    y = extractor.targets(case.field, void, normalizer, gradients)
    want_x, want_y = _rows(case, extractor, case.field, case.sample, case.stats)
    np.testing.assert_allclose(x, want_x, **FLOAT64)
    np.testing.assert_allclose(y, want_y, **FLOAT64)


def test_mlp_forward_backward_and_adam_step():
    rng = np.random.default_rng(0)
    model = mlp(5, [7, 6], 4, seed=2)
    x, y = rng.normal(size=(33, 5)), rng.normal(size=(33, 4))
    layers = _layers(model)
    loss = WeightedMSELoss(COLUMN_WEIGHTS)
    pred = model.forward(x)
    want_pred, inputs = oracle.forward(layers, x)
    np.testing.assert_allclose(pred, want_pred, **FLOAT64)
    value, grad = oracle.weighted_mse(want_pred, y, COLUMN_WEIGHTS)
    assert loss.value(pred, y) == pytest.approx(value, rel=1e-12)
    optimizer = Adam(model.parameters(), lr=1e-2)
    optimizer.zero_grad()
    model.backward(loss.gradient(pred, y))
    grads = oracle.backward(layers, inputs, grad)
    engine_grads = [
        (layer.weight.grad, layer.bias.grad) for layer in model.layers if isinstance(layer, Dense)
    ]
    _assert_layers(engine_grads, grads, FLOAT64)
    optimizer.step()
    stepped = oracle.Adam(layers, lr=1e-2).step(layers, grads, [True] * len(layers))
    _assert_layers(_layers(model), stepped, FLOAT64)


# --------------------------------------------------------------------------
# the engine's entry points


@pytest.mark.parametrize("policy", POLICIES)
def test_train_one_epoch(case, policy):
    recon, start = _fresh(policy)
    history = recon.train(case.field, case.sample, epochs=1)
    x, y = _rows(case, recon.extractor, case.field, case.sample, case.stats)
    order = np.random.default_rng(SEED).permutation(len(x))
    adam = oracle.Adam(start, lr=recon.learning_rate)
    want, loss = oracle.train_epoch(
        start, x, y, order, BATCH, COLUMN_WEIGHTS, adam, [True] * len(start)
    )
    _assert_layers(_layers(recon.model), want, FLOAT64 if policy == "float64" else FLOAT32_WEIGHTS)
    rel = FLOAT64["rtol"] if policy == "float64" else FLOAT32_LOSS
    assert history.train_loss[0] == pytest.approx(loss, rel=rel)


@pytest.fixture(scope="module", params=POLICIES)
def base(case, request):
    """A reconstructor trained for one epoch, and its policy."""
    recon, _ = _fresh(request.param)
    recon.train(case.field, case.sample, epochs=1)
    return recon, request.param


def _fine_tune_oracle(case, base_recon, strategy):
    """One fine-tune epoch from ``base_recon``'s weights, value scaling retained."""
    start = _layers(base_recon.model)
    x, y = _rows(case, base_recon.extractor, case.field2, case.sample2, case.stats)
    order = np.random.default_rng(SEED + 1).permutation(len(x))
    trainable = [True] * len(start) if strategy == "full" else [False] * (len(start) - 2) + [True] * 2
    want, _ = oracle.train_epoch(
        start, x, y, order, BATCH, COLUMN_WEIGHTS, oracle.Adam(start), trainable
    )
    return want


@pytest.mark.parametrize("strategy", ["full", "last"])
def test_fine_tune_one_epoch(case, base, strategy):
    recon, policy = base
    tuned = recon.clone()
    tuned.fine_tune(case.field2, case.sample2, epochs=1, strategy=strategy)
    want = _fine_tune_oracle(case, recon, strategy)
    _assert_layers(_layers(tuned.model), want, FLOAT64 if policy == "float64" else FLOAT32_WEIGHTS)


@pytest.mark.parametrize("strategy", ["full", "last"])
def test_fine_tune_batch(case, base, strategy):
    """From-base fine-tunes compute in the policy's dtype, as fine_tune does."""
    recon, policy = base
    (flat,), _ = recon.clone().fine_tune_batch(
        [case.field2], [[case.sample2]], epochs=1, strategy=strategy
    )
    want = _fine_tune_oracle(case, recon, strategy)
    _assert_layers(
        _unflatten(flat, want), want, FLOAT64 if policy == "float64" else FLOAT32_WEIGHTS
    )


def test_predict_values_and_reconstruct(case, base):
    recon, policy = base
    sample = case.sample2
    void = sample.void_indices()
    queries = case.positions[void]
    idx = recon.extractor._neighbor_indices(sample, queries)
    x = oracle.features(sample.points, sample.values, queries, idx, case.stats)
    want = oracle.predict(_layers(recon.model), x, case.stats)
    scale = case.stats["std"]
    _assert_values(recon.clone().predict_values(sample, queries), want, policy, scale)
    field = recon.clone().reconstruct(sample).ravel()
    filled = oracle.fill_voids(field.size, sample.indices, sample.values, void, want)
    assert field[sample.indices].tobytes() == sample.values.tobytes()
    _assert_values(field[void], filled[void], policy, scale)


# --------------------------------------------------------------------------
# the nearest-sample (Voronoi) fallback


def _lattice_case():
    rng = np.random.default_rng(4)
    lattice = oracle.grid_positions((6, 5, 4), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    pick = rng.choice(len(lattice), size=17, replace=False)
    return lattice[pick], rng.normal(size=17), lattice + 0.5 * rng.integers(0, 2, lattice.shape)


def _assert_nearest(points, values, queries, got) -> None:
    """``got[q]`` is the value of a sample at the minimal distance from query ``q``."""
    want, nearest = oracle.nearest_fill(points, values, queries)
    d = np.linalg.norm(queries[:, None, :] - points[None, :, :], axis=2)
    for q in range(len(queries)):
        tied = np.abs(d[q] - nearest[q]) <= 1e-12
        assert got[q] == want[q] or got[q] in values[tied]


def test_oracle_nearest_fill_matches_a_kdtree_query():
    points, values, queries = _lattice_case()
    dist, idx = cKDTree(points).query(queries, k=1)
    _, nearest = oracle.nearest_fill(points, values, queries)
    np.testing.assert_allclose(dist, nearest, rtol=0, atol=1e-12)
    _assert_nearest(points, values, queries, values[idx])


def test_nonfinite_predictions_fall_back_to_the_nearest_sample(case, base):
    recon, _ = base
    poisoned = recon.clone()
    for p in poisoned.model.parameters():
        p.value[...] = np.nan
    sample = case.sample2
    field, report = poisoned.reconstruct(sample, return_report=True)
    void = sample.void_indices()
    assert report.degraded_points == len(void)
    got = field.ravel()[void]
    _assert_nearest(sample.points, sample.values, case.positions[void], got)
