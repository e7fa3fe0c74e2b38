"""Integration tests for the in situ campaign writer/reader."""

import json

import numpy as np
import pytest

from repro.datasets import HurricaneDataset
from repro.insitu import CampaignManifest, CampaignReader, InSituWriter
from repro.interpolation import NearestNeighborInterpolator
from repro.metrics import snr
from repro.sampling import MultiCriteriaSampler


@pytest.fixture
def dataset():
    grid = HurricaneDataset.default_grid().with_resolution((12, 12, 6))
    return HurricaneDataset(grid=grid, seed=0)


@pytest.fixture
def writer(dataset):
    return InSituWriter(
        dataset=dataset,
        sampler=MultiCriteriaSampler(seed=5),
        fraction=0.05,
    )


class TestManifest:
    def test_json_roundtrip(self):
        m = CampaignManifest(
            dataset="hurricane",
            attribute="pressure",
            dims=(4, 4, 4),
            spacing=(1, 1, 1),
            origin=(0, 0, 0),
            fraction=0.05,
            timesteps=[0, 8],
            cloud_files={"0": "t0000.vtp", "8": "t0008.vtp"},
        )
        m2 = CampaignManifest.from_json(m.to_json())
        assert m2 == m

    def test_grid_property(self):
        m = CampaignManifest("d", "a", (3, 4, 5), (1, 2, 3), (0, 0, 0), 0.1)
        assert m.grid.dims == (3, 4, 5)


class TestWriterReader:
    def test_writes_clouds_and_manifest(self, writer, tmp_path):
        manifest = writer.run(tmp_path / "camp", timesteps=[0, 10, 20])
        assert manifest.timesteps == [0, 10, 20]
        assert (tmp_path / "camp" / "manifest.json").exists()
        for t in (0, 10, 20):
            assert (tmp_path / "camp" / f"t{t:04d}.vtp").exists()

    def test_reader_loads_samples(self, writer, dataset, tmp_path):
        writer.run(tmp_path / "camp", timesteps=[0, 10])
        reader = CampaignReader(tmp_path / "camp")
        assert reader.timesteps == [0, 10]
        sample = reader.load_sample(10)
        field = dataset.field(t=10)
        np.testing.assert_allclose(sample.values, field.flat[sample.indices])
        assert sample.timestep == 10

    def test_reader_reconstructs_with_method(self, writer, dataset, tmp_path):
        writer.run(tmp_path / "camp", timesteps=[0])
        reader = CampaignReader(tmp_path / "camp")
        volume = reader.reconstruct(0, method=NearestNeighborInterpolator())
        field = dataset.field(t=0)
        assert volume.shape == field.grid.dims
        assert snr(field.values, volume) > 0

    def test_reader_missing_timestep(self, writer, tmp_path):
        writer.run(tmp_path / "camp", timesteps=[0])
        reader = CampaignReader(tmp_path / "camp")
        with pytest.raises(KeyError):
            reader.load_sample(99)

    def test_reader_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignReader(tmp_path)

    def test_validation(self, dataset, writer, tmp_path):
        with pytest.raises(ValueError):
            InSituWriter(dataset, MultiCriteriaSampler(), fraction=0.0)
        with pytest.raises(ValueError):
            writer.run(tmp_path / "c", timesteps=[])


class TestInSituTraining:
    def test_trained_campaign(self, dataset, tmp_path):
        writer = InSituWriter(
            dataset=dataset,
            sampler=MultiCriteriaSampler(seed=5),
            fraction=0.05,
            train_model=True,
            train_fractions=(0.03, 0.10),
            epochs=15,
            finetune_epochs=4,
            model_kwargs={"hidden_layers": (24, 12, 8), "batch_size": 512},
        )
        manifest = writer.run(tmp_path / "camp", timesteps=[0, 16, 32])
        assert manifest.base_model_file is not None
        assert set(manifest.model_files) == {"0", "16", "32"}

        reader = CampaignReader(tmp_path / "camp")
        # Reconstruct with the timestep-specialized model.
        field = dataset.field(t=32)
        volume = reader.reconstruct(32)
        assert snr(field.values, volume) > 0

        # Partial checkpoints are much smaller than the base model.
        base_size = (tmp_path / "camp" / manifest.base_model_file).stat().st_size
        part_size = (tmp_path / "camp" / manifest.model_files["32"]).stat().st_size
        assert part_size < base_size

    def test_load_model_without_training_raises(self, writer, tmp_path):
        writer.run(tmp_path / "camp", timesteps=[0])
        reader = CampaignReader(tmp_path / "camp")
        with pytest.raises(ValueError):
            reader.load_model()

    def test_specialized_vs_base_model_differ(self, dataset, tmp_path):
        writer = InSituWriter(
            dataset=dataset,
            sampler=MultiCriteriaSampler(seed=5),
            fraction=0.05,
            train_model=True,
            train_fractions=(0.05,),
            epochs=10,
            finetune_epochs=4,
            model_kwargs={"hidden_layers": (16, 8), "batch_size": 512},
        )
        writer.run(tmp_path / "camp", timesteps=[0, 24])
        reader = CampaignReader(tmp_path / "camp")
        base = reader.load_model()
        spec = reader.load_model(24)
        w_base = base.model.dense_layers()[-1].weight.value
        w_spec = spec.model.dense_layers()[-1].weight.value
        assert not np.array_equal(w_base, w_spec)

    @pytest.mark.parametrize("ahead", [0, 2])
    def test_batched_campaign_counts_timesteps(self, dataset, tmp_path, ahead):
        """One count per timestep, with none (serial) or two (pipelined)
        timesteps prefetched ahead of the one training."""
        from repro.obs import counter
        from repro.obs.metrics import MetricsRegistry, activate, deactivate

        writer = InSituWriter(
            dataset=dataset,
            sampler=MultiCriteriaSampler(seed=5),
            fraction=0.05,
            train_model=True,
            train_fractions=(0.05,),
            epochs=2,
            finetune_epochs=1,
            model_kwargs={"hidden_layers": (8,), "batch_size": 512},
            batched_finetune=True,
        )
        previous = activate(MetricsRegistry())
        try:
            writer.run(tmp_path / "camp", timesteps=[0, 8, 16, 24], pipeline=ahead > 0)
            assert counter("campaign.timesteps").value == 4
        finally:
            deactivate(previous)
