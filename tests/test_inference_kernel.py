"""The one FCNN inference kernel: memoized coordinate columns, in-place ReLU, copies.

``FCNNReconstructor.predict_values`` builds a geometry's coordinate
feature columns once and refills only the value columns per call; the
reference here is the per-block :meth:`FeatureExtractor.features_into`
path it replaced, run on a cold extractor.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import weakref

import numpy as np
import pytest

from repro.core import FCNNReconstructor, FeatureExtractor
from repro.core.reconstructor import _grid_span
from repro.datasets import HurricaneDataset
from repro.grid import UniformGrid
from repro.nn import Sequential, mlp
from repro.nn.layers import Dense, ReLU
from repro.perf import Workspace
from repro.perf.campaign import CampaignGeometry
from repro.perf.weights import snapshot_weights
from repro.sampling import MultiCriteriaSampler
from repro.serve import StackEvaluator

#: 26^3 points at 5 % leave more voids than one 16,384-row predict block.
DIMS = (26, 26, 26)


def _train(dtype_policy: str) -> tuple:
    grid = HurricaneDataset.default_grid().with_resolution(DIMS)
    data = HurricaneDataset(grid=grid, seed=0)
    field = data.field(t=0)
    sample = MultiCriteriaSampler(seed=3).sample(field, 0.05)
    model = FCNNReconstructor(
        hidden_layers=(16, 8), batch_size=1024, seed=0, dtype_policy=dtype_policy
    )
    model.train(field, sample, epochs=1)
    return data, sample, model


@pytest.fixture(scope="module")
def trained():
    return _train("float64")


@pytest.fixture(scope="module")
def trained32():
    return _train("float32")


def _reference(model, sample, points, grid=None) -> np.ndarray:
    """Predictions from fresh per-block ``features_into`` blocks (cold extractor)."""
    g = grid if grid is not None else sample.grid
    local = dataclasses.replace(
        model.normalizer, origin=np.asarray(g.origin, dtype=np.float64), span=_grid_span(g)
    )
    extractor = FeatureExtractor(num_neighbors=model.extractor.num_neighbors)
    ws = Workspace(dtype=model.dtype_policy.compute_dtype)
    net = model.model
    out = np.empty(len(points), dtype=np.float64)
    block = max(model.batch_size, 16384)
    net.attach_workspace(ws)
    net.set_training(False)
    try:
        for start in range(0, len(points), block):
            stop = min(start + block, len(points))
            feat = ws.buffer("feat", (stop - start, extractor.feature_size))
            extractor.features_into(sample, points[start:stop], local, feat)
            local.denormalize_values_into(net.forward(feat)[:, 0], out[start:stop])
    finally:
        net.set_training(True)
        net.detach_workspace()
    return out


def _with_values(sample, values):
    """A sample over ``sample``'s locations carrying ``values``."""
    return CampaignGeometry.from_sample(sample).shell(values)


class TestColumnReuse:
    def test_new_values_match_a_fresh_block(self, trained):
        data, sample, model = trained
        model = model.clone()
        shell = _with_values(sample, sample.values)
        points = shell.void_points()
        assert len(points) > 16384  # two predict blocks
        first = model.predict_values(shell, points)
        block = model.extractor._memo.block
        shell.values[...] = data.field(t=20).flat[shell.indices]
        second = model.predict_values(shell, points)
        assert model.extractor._memo.block is block  # columns reused
        assert second.tobytes() == _reference(model, shell, points).tobytes()
        assert not np.array_equal(first, second)

    def test_refilled_block_equals_features_into(self, trained):
        data, sample, model = trained
        extractor = FeatureExtractor()
        normalizer = model.normalizer
        shell = _with_values(sample, sample.values)
        points = shell.void_points()
        extractor.prediction_block(shell, points, normalizer)
        shell.values[...] = data.field(t=20).flat[shell.indices]
        block, idx = extractor.prediction_block(shell, points, normalizer)
        extractor.values_into(shell, normalizer, block, idx)
        fresh = np.empty_like(block)
        FeatureExtractor().features_into(shell, points, normalizer, fresh)
        assert block.tobytes() == fresh.tobytes()


class TestNoStaleColumns:
    def test_target_grid_rebuilds(self, trained):
        _, sample, model = trained
        model = model.clone()
        points = sample.void_points()
        model.predict_values(sample, points)
        shifted = UniformGrid(
            sample.grid.dims,
            spacing=tuple(2.0 * s for s in sample.grid.spacing),
            origin=tuple(o - 1.0 for o in sample.grid.origin),
        )
        got = model.predict_values(sample, points, shifted)
        assert got.tobytes() == _reference(model, sample, points, shifted).tobytes()

    def test_fig13_target_grid_rebuilds(self, trained):
        _, sample, model = trained
        warm = model.clone()
        warm.reconstruct(sample)
        finer = sample.grid.with_resolution(tuple(d + 4 for d in sample.grid.dims))
        got = warm.reconstruct(sample, target_grid=finer)
        cold = model.clone().reconstruct(sample, target_grid=finer)
        assert got.tobytes() == cold.tobytes()

    def test_query_array_rebuilds(self, trained):
        _, sample, model = trained
        model = model.clone()
        points = sample.void_points()
        model.predict_values(sample, points)
        other = points[::-1].copy()
        got = model.predict_values(sample, other)
        assert got.tobytes() == _reference(model, sample, other).tobytes()

    def test_sample_rebuilds(self, trained):
        data, sample, model = trained
        model = model.clone()
        model.predict_values(sample, sample.void_points())
        other = MultiCriteriaSampler(seed=11).sample(data.field(t=0), 0.08)
        points = other.void_points()
        got = model.predict_values(other, points)
        assert got.tobytes() == _reference(model, other, points).tobytes()


class TestFloat32:
    def test_float32_predictions_keep_their_bits(self, trained32):
        data, sample, model = trained32
        model = model.clone()
        shell = _with_values(sample, sample.values)
        points = shell.void_points()
        model.predict_values(shell, points)
        assert model.extractor._memo.block.dtype == np.float32
        shell.values[...] = data.field(t=20).flat[shell.indices]
        got = model.predict_values(shell, points)
        assert got.tobytes() == _reference(model, shell, points).tobytes()

    def test_float32_block_is_the_float64_block_rounded_once(self, trained32):
        _, sample, model = trained32
        points = sample.void_points()
        blocks = {}
        for dtype in (np.float64, np.float32):
            extractor = FeatureExtractor(num_neighbors=model.extractor.num_neighbors)
            block, idx = extractor.prediction_block(sample, points, model.normalizer, dtype)
            extractor.values_into(sample, model.normalizer, block, idx)
            blocks[dtype] = block
        assert blocks[np.float32].dtype == np.float32
        assert blocks[np.float32].tobytes() == blocks[np.float64].astype(np.float32).tobytes()


class TestZeroVoids:
    def test_predict_values_without_query_rows(self, trained):
        _, sample, model = trained
        pred = model.clone().predict_values(sample, np.empty((0, 3)))
        assert pred.shape == (0,)

    def test_evaluate_on_a_zero_void_geometry(self, trained):
        data, sample, model = trained
        grid = sample.grid
        geometry = CampaignGeometry(grid, np.arange(grid.num_points), 1.0)
        assert geometry.num_voids == 0
        evaluator = StackEvaluator(model, geometry)
        weights = snapshot_weights(model.model).data
        pred, reports = evaluator.evaluate([weights], [data.field(t=0).flat.copy()])
        assert pred.shape == (1, 0)
        assert reports[0].degraded_points == 0


class TestInferenceDense:
    @pytest.mark.parametrize("workspace", [False, True])
    def test_inference_forward_keeps_no_input(self, workspace):
        """A frozen prefix run in eval mode must not pin the caller's block."""
        layer = Dense(4, 2, rng=np.random.default_rng(0))
        if workspace:
            Sequential([layer]).attach_workspace(Workspace())
        layer.training = False
        x = np.ones((3, 4))
        alive = weakref.ref(x)
        layer.forward(x)
        del x
        assert alive() is None
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.ones((3, 2)))


class TestInferenceReLU:
    @pytest.mark.parametrize("workspace", [False, True])
    def test_backward_after_inference_forward_raises(self, workspace):
        net = mlp(4, [8], 2, seed=0)
        if workspace:
            net.attach_workspace(Workspace())
        x = np.random.default_rng(0).normal(size=(16, 4))
        out = net.forward(x)
        net.predict(x)
        with pytest.raises(RuntimeError, match="before forward"):
            net.backward(np.ones_like(out))

    def test_rectifies_arena_buffer_in_place(self):
        ws = Workspace()
        relu = ReLU()
        relu._ws = ws
        relu.training = False
        x = ws.buffer("act", (64, 8))
        x[...] = np.random.default_rng(1).normal(size=x.shape)
        expected = np.where(x > 0, x, 0.0)
        out = relu.forward(x)
        assert out is x
        assert out.tobytes() == expected.tobytes()  # +0.0 where x < 0
        assert relu._mask is None


class TestWorkspaceCopies:
    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copy_starts_empty_and_grows(self, how):
        ws = Workspace()
        ws.buffer("a", (4, 3))
        dup = copy.deepcopy(ws) if how == "deepcopy" else pickle.loads(pickle.dumps(ws))
        assert dup.nbytes == 0
        view = dup.buffer("a", (40, 3))
        assert dup.owns(view)

    @pytest.mark.parametrize("how", ["deepcopy", "pickle"])
    def test_copied_reconstructor_grows_its_arena(self, trained, how):
        _, sample, model = trained
        dup = copy.deepcopy(model) if how == "deepcopy" else pickle.loads(pickle.dumps(model))
        ws = dup._get_workspace()
        # Predict blocks are larger than any training batch the arena saw.
        got = dup.reconstruct(sample)
        assert got.tobytes() == model.clone().reconstruct(sample).tobytes()
        hidden = dup.hidden_layers[0]
        assert ws.owns(ws.buffer((0, "fwd"), (16384, hidden)))
