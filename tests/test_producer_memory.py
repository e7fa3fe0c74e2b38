"""The in situ producer's memory: slab field evaluation, gradient magnitude, imports.

``AnalyticDataset.field`` evaluates its grid in slabs of whole x-planes
and ``gradient_magnitude`` adds squared per-axis gradients into one
buffer.  Both must keep every byte of the plain expressions they replace
(kept here as the references) while holding far less transient memory,
because the pipelined scheduler runs two producers at once.

The producer never builds a kd-tree, a triangulation or an RBF, so it
must never import scipy: ``scipy.spatial`` alone adds about 32 MiB.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import available_datasets, make_dataset
from repro.datasets import base as datasets_base
from repro.grid import UniformGrid, field_gradients, gradient_magnitude, upscaled_grid
from repro.sampling import MultiCriteriaSampler

#: The end-to-end benchmark's grid; one float64 field is 1.5 MB.
BENCH_DIMS = (72, 72, 36)


def _reference_field(dataset, t, grid, attribute):
    return dataset.evaluate(grid.points(), t=t, attribute=attribute).reshape(grid.dims)


def _reference_magnitude(grid, values):
    return np.linalg.norm(field_gradients(grid, values), axis=1)


def _slab_planes(grid) -> int:
    """x-planes per slab in ``field()`` (mirrors its sizing rule)."""
    return max(1, datasets_base._FIELD_BLOCK_POINTS // (grid.dims[1] * grid.dims[2]))


# ---------------------------------------------------------------- field()


class TestSlabField:
    GRIDS = {
        # 50 x-planes of 1,200 points: slabs of 13 planes, the last one short.
        "ragged-slabs": (50, 40, 30),
        # An axis of length 1, still split into two slabs.
        "flat-axis": (600, 30, 1),
    }

    @pytest.mark.parametrize("shape", sorted(GRIDS))
    @pytest.mark.parametrize("name", available_datasets())
    def test_bytes_equal_whole_grid_evaluation(self, name, shape):
        dataset = make_dataset(name, dims=self.GRIDS[shape], seed=3)
        grid = dataset.grid
        step = _slab_planes(grid)
        assert grid.dims[0] > step and grid.dims[0] % step  # several slabs, last one short
        for attribute in dataset.attributes:
            for t in (0, 5):
                got = dataset.field(t, attribute=attribute)
                want = _reference_field(dataset, t, grid, attribute)
                assert got.values.dtype == want.dtype
                assert got.values.shape == grid.dims
                assert got.values.tobytes() == want.tobytes(), (name, shape, attribute, t)

    @pytest.mark.parametrize("name", available_datasets())
    def test_bytes_equal_on_fig13_shifted_upscaled_grid(self, name):
        dataset = make_dataset(name, dims=(12, 10, 6), seed=1)
        target = upscaled_grid(dataset.grid, factor=(8, 4, 4), shift_fraction=(0.3, -0.2, 0.1))
        assert target.dims[0] > _slab_planes(target)
        for attribute in dataset.attributes:
            got = dataset.field(4, grid=target, attribute=attribute)
            assert got.grid is target
            want = _reference_field(dataset, 4, target, attribute)
            assert got.values.tobytes() == want.tobytes(), (name, attribute)

    def test_single_point_grid(self):
        dataset = make_dataset("hurricane", dims=(1, 1, 1))
        got = dataset.field(2)
        assert got.values.tobytes() == _reference_field(
            dataset, 2, dataset.grid, dataset.attribute
        ).tobytes()


# ------------------------------------------------------ gradient magnitude


class TestGradientMagnitude:
    @pytest.mark.parametrize(
        "dims, spacing",
        [
            ((12, 10, 8), (1.0, 2.0, 0.5)),
            ((9, 1, 7), (0.3, 1.0, 3.0)),
            ((1, 6, 5), (1.0, 1.0, 1.0)),
            ((4, 5, 1), (2.0, 0.25, 1.0)),
        ],
    )
    def test_bytes_equal_norm_of_stacked_gradients(self, dims, spacing):
        grid = UniformGrid(dims, spacing=spacing, origin=(-1.0, 3.0, 0.0))
        rng = np.random.default_rng(11)
        # Wide dynamic range, so any other order of the adds shows.
        values = rng.standard_normal(grid.num_points) * np.exp(
            rng.uniform(-8.0, 8.0, grid.num_points)
        )
        got = gradient_magnitude(grid, values)
        want = _reference_magnitude(grid, values)
        assert got.shape == (grid.num_points,)
        assert got.tobytes() == want.tobytes()
        assert gradient_magnitude(grid, values.reshape(dims)).tobytes() == want.tobytes()

    def test_bytes_equal_on_dataset_field(self):
        field = make_dataset("combustion", dims=(30, 20, 10)).field(7)
        got = gradient_magnitude(field.grid, field.values)
        assert got.tobytes() == _reference_magnitude(field.grid, field.values).tobytes()

    def test_non_finite_values_propagate_alike(self):
        grid = UniformGrid((5, 4, 3))
        values = np.arange(grid.num_points, dtype=np.float64)
        values[7] = np.nan
        values[20] = np.inf
        got = gradient_magnitude(grid, values)
        assert got.tobytes() == _reference_magnitude(grid, values).tobytes()


# ------------------------------------------------------ transient memory


def _traced_peak(fn) -> float:
    """Peak bytes ``fn()`` allocates above the heap it starts from, in MB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


class TestTransientMemory:
    """Bounds at the benchmark grid; whole-grid evaluation exceeds both."""

    @pytest.fixture(scope="class")
    def dataset(self):
        dataset = make_dataset("combustion", dims=BENCH_DIMS, seed=0)
        dataset.field(0)  # lazy set-up outside the measurement
        return dataset

    def test_field_peak(self, dataset):
        # Whole-grid evaluation peaked near 16 MB (its (N, 3) coordinates
        # and grid-sized temporaries); the field itself is 1.5 MB.
        assert _traced_peak(lambda: dataset.field(3)) <= 5.0

    def test_sampler_peak(self, dataset):
        field = dataset.field(3)
        sampler = MultiCriteriaSampler(seed=1)
        sampler.sample(field, 0.05)
        # Stacking (N, 3) gradients and squaring them peaked near 13 MB.
        assert _traced_peak(lambda: sampler.sample(field, 0.05)) <= 10.0


# ------------------------------------------------------------ import footprint

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Runs in a fresh interpreter: imports what the end-to-end workloads and
#: the CLI import, runs a journaled two-timestep producer under a
#: ``RunRecorder``, then builds one kd-tree.  Prints the scipy modules
#: loaded after each phase as JSON.
_PRODUCER_SCRIPT = """
import ast, importlib, json, sys
from pathlib import Path

bench, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(bench))
imported = []
for node in ast.parse((bench / "workloads.py").read_text()).body:
    if isinstance(node, ast.Import):
        imported += [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
        imported.append(node.module)
for name in imported + ["repro.cli"]:
    importlib.import_module(name)

from repro.core.features import FeatureExtractor
from repro.datasets.registry import make_dataset
from repro.insitu.campaign import InSituWriter
from repro.obs import RunRecorder
from repro.sampling import MultiCriteriaSampler

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

data = make_dataset("combustion", dims=(12, 12, 6), seed=0)
with RunRecorder(out / "run"):
    writer = InSituWriter(data, MultiCriteriaSampler(seed=1), 0.05, train_model=False)
    writer.run(out / "insitu", [0, 1], journal=True)
after_producer = scipy_modules()

field = data.field(0)
sample = MultiCriteriaSampler(seed=1).sample(field, 0.05)
extractor = FeatureExtractor()
extractor.training_data(field, sample, extractor.fit_normalizer(sample, field))
print(json.dumps({
    "imported": imported,
    "manifest": (out / "run" / "run.json").is_file(),
    "after_producer": after_producer,
    "after_tree": scipy_modules(),
}))
"""


def test_producer_never_imports_scipy(tmp_path):
    bench = REPO_ROOT / "benchmarks" / "e2e"
    proc = subprocess.run(
        [sys.executable, "-c", _PRODUCER_SCRIPT, str(bench), str(tmp_path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.insitu.campaign" in got["imported"]
    assert got["manifest"]
    assert got["after_producer"] == []
    assert "scipy.spatial" in got["after_tree"]
    assert "scipy.interpolate" not in got["after_tree"]
