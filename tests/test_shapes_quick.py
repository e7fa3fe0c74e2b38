"""Fast qualitative-shape regressions (CI-speed cousins of benchmarks/).

The benchmark suite asserts the paper's shapes at bench scale (minutes);
these tests pin the most robust of those shapes at quick scale (seconds)
so a regression is caught by ``pytest tests/`` alone.
"""

import time

import numpy as np
import pytest

from repro.experiments.config import get_config
from repro.experiments.runner import build_pipeline, build_reconstructor
from repro.experiments.runner import test_samples as draw_test_samples
from repro.interpolation import make_interpolator
from repro.metrics import snr

CFG = get_config(
    "quick",
    dims=(20, 20, 8),
    epochs=40,
    hidden_layers=(48, 24, 12),
    test_fractions=(0.01, 0.05),
    batch_size=2048,
)


@pytest.fixture(scope="module")
def trained_world():
    pipeline = build_pipeline(CFG)
    fcnn = build_reconstructor(CFG)
    pipeline.train_fcnn(fcnn, epochs=CFG.epochs)
    field = pipeline.field(0)
    samples = draw_test_samples(pipeline, field, CFG.test_fractions, CFG)
    return pipeline, fcnn, field, samples


class TestFig9Shape:
    def test_fcnn_beats_weak_baselines_when_sparse(self, trained_world):
        _, fcnn, field, samples = trained_world
        sparse = samples[0.01]
        fcnn_snr = snr(field.values, fcnn.reconstruct(sparse))
        for name in ("nearest", "shepard"):
            baseline = snr(field.values, make_interpolator(name).reconstruct(sparse))
            assert fcnn_snr > baseline, f"fcnn {fcnn_snr:.2f} vs {name} {baseline:.2f}"

    def test_quality_rises_with_sampling_rate(self, trained_world):
        _, fcnn, field, samples = trained_world
        assert snr(field.values, fcnn.reconstruct(samples[0.05])) > snr(
            field.values, fcnn.reconstruct(samples[0.01])
        )

    def test_nearest_is_worst(self, trained_world):
        _, _, field, samples = trained_world
        sparse = samples[0.01]
        scores = {
            name: snr(field.values, make_interpolator(name).reconstruct(sparse))
            for name in ("linear", "natural", "shepard", "nearest")
        }
        assert min(scores, key=scores.get) == "nearest"


def _fastest(fn, repeats: int = 5) -> float:
    """Fastest of ``repeats`` timed calls: a cold first call or a stall in
    one run (scipy's Delaunay step has shown 34-273 ms ones) cannot decide
    a comparison."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestFig10Shape:
    def test_naive_linear_slower_than_vectorized(self, trained_world):
        _, _, field, samples = trained_world
        sample = samples[0.05]
        fast = _fastest(lambda: make_interpolator("linear").reconstruct(sample))
        slow = _fastest(lambda: make_interpolator("linear-naive").reconstruct(sample))
        assert slow > 2.0 * fast, f"naive {slow:.3f}s vs vectorized {fast:.3f}s"


class TestFig7Shape:
    def test_union_model_wins_both_ends(self):
        pipeline = build_pipeline(CFG)
        field = pipeline.field(0)
        samples = draw_test_samples(pipeline, field, (0.01, 0.05), CFG)

        def trained_on(fractions):
            m = build_reconstructor(CFG)
            m.train(field, [pipeline.sample(field, f) for f in fractions], epochs=CFG.epochs)
            return m

        m_lo = trained_on((0.01,))
        m_hi = trained_on((0.05,))
        m_mix = trained_on((0.01, 0.05))

        # The union model is at least competitive with each specialist on
        # the specialist's home turf, and strictly better on its away turf.
        assert snr(field.values, m_mix.reconstruct(samples[0.01])) > snr(
            field.values, m_hi.reconstruct(samples[0.01])
        )
        assert snr(field.values, m_mix.reconstruct(samples[0.05])) > snr(
            field.values, m_lo.reconstruct(samples[0.05])
        )


class TestFig11Shape:
    def test_pretrained_degrades_and_finetune_recovers(self):
        import copy

        pipeline = build_pipeline(CFG)
        fcnn = build_reconstructor(CFG)
        pipeline.train_fcnn(fcnn, timestep=0, epochs=CFG.epochs)

        # t=24: far enough for clear degradation, and the quick-scale model
        # recovers within a modest budget (10 paper epochs assume a fully
        # converged pretrain; 25 is this scale's equivalent — the strict
        # 10-epoch claim is asserted at bench scale).
        far = pipeline.field(24)
        test = draw_test_samples(pipeline, far, (0.03,), CFG)[0.03]
        before = snr(far.values, fcnn.reconstruct(test))

        tuned = copy.deepcopy(fcnn)
        train = [pipeline.sample(far, f) for f in CFG.train_fractions]
        tuned.fine_tune(far, train, epochs=25, strategy="full")
        after = snr(far.values, tuned.reconstruct(test))
        assert after > before

    @pytest.mark.parametrize("from_base", [False, True], ids=["rolling", "from-base"])
    def test_campaign_finetune_recovers(self, from_base):
        # The same shape on the campaign driver, Case 1, in both schedules.
        pipeline = build_pipeline(CFG)
        fcnn = build_reconstructor(CFG)
        pipeline.train_fcnn(fcnn, timestep=0, epochs=CFG.epochs)
        pretrained = fcnn.clone()
        result = pipeline.run_campaign(
            fcnn, (0, 24), 0.03, finetune_epochs=25, finetune_strategy="full",
            batched_finetune=from_base, warm_pool=False,
        )
        row = result.rows[-1]
        assert row["timestep"] == 24

        # The pretrained model on the campaign's own locations, refreshed at t=24.
        far = pipeline.field(24)
        hits = pipeline.geometry_cache.hits
        geometry = pipeline.geometry_cache.get(
            pipeline.sample(pipeline.field(0), 0.03), dtype=pretrained.dtype_policy.compute
        )
        assert pipeline.geometry_cache.hits == hits + 1
        shell = geometry.refresh(geometry.shell(), far)
        before = snr(far.values, pretrained.reconstruct(shell))
        assert row["snr"] > before
