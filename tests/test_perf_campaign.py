"""Streaming campaign scheduler: bit-identity, caches, and fault tolerance.

The contract under test is the PR 5 tentpole: every combination of
``pipeline`` x ``warm_pool`` — and every injected worker failure — must
produce reconstructions **bit-identical** to the plain serial loop, ship
campaign geometry at most once, and never silently drop a
timestep.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import FCNNReconstructor, ReconstructionPipeline
from repro.core.reconstructor import _grid_span
from repro.datasets import make_dataset
from repro.nn import Adam, Trainer
from repro.obs.metrics import MetricsRegistry, activate, deactivate
from repro.parallel.chunking import aligned_chunks
from repro.perf import Workspace
from repro.perf.campaign import (
    _GEOMETRY_CACHE_ENTRIES,
    CampaignGeometry,
    CampaignScheduler,
    GeometryCache,
    LocalReconstructionSink,
    WarmReconstructionPool,
    geometry_key,
)
from repro.perf.weights import restore_weights, snapshot_weights

DIMS = (12, 12, 6)
TIMESTEPS = (0, 8, 16)


@pytest.fixture
def metrics():
    previous = activate(MetricsRegistry())
    try:
        yield
    finally:
        deactivate(previous)


@pytest.fixture(scope="module")
def campaign_pipeline():
    data = make_dataset("combustion", dims=DIMS, seed=0)
    return ReconstructionPipeline(
        data, train_fractions=(0.02, 0.05), keep_reconstructions=True
    )


@pytest.fixture(scope="module")
def base_model(campaign_pipeline):
    """A small pretrained FCNN; tests must clone() it, never mutate it."""
    model = FCNNReconstructor(hidden_layers=(16, 8), batch_size=1024, seed=7)
    campaign_pipeline.train_fcnn(model, timestep=TIMESTEPS[0], epochs=3)
    return model


@pytest.fixture(scope="module")
def base_model64(campaign_pipeline):
    """``base_model`` in float64: the ladders that compare the cached Case 2
    with the uncached fit bit for bit start here."""
    model = FCNNReconstructor(
        hidden_layers=(16, 8), batch_size=1024, seed=7, dtype_policy="float64"
    )
    campaign_pipeline.train_fcnn(model, timestep=TIMESTEPS[0], epochs=3)
    return model


# ---------------------------------------------------------------------------
# weight snapshots


class TestWeights:
    def test_snapshot_restore_roundtrip_bitwise(self, base_model):
        model = base_model.clone()
        snap = snapshot_weights(model.model)
        for p in model.model.parameters():
            p.value += 0.125  # perturb every weight
        restore_weights(model.model, snap)
        assert snapshot_weights(model.model).data.tobytes() == snap.data.tobytes()

    def test_bare_vector_restore(self, base_model):
        model = base_model.clone()
        flat = snapshot_weights(model.model).data.copy()
        for p in model.model.parameters():
            p.value *= -1.0
        restore_weights(model.model, flat)
        assert snapshot_weights(model.model).data.tobytes() == flat.tobytes()

    def test_restore_rejects_size_mismatch(self, base_model):
        model = base_model.clone()
        with pytest.raises(ValueError, match="weights"):
            restore_weights(model.model, np.zeros(3))

    def test_clone_is_bitwise_equal_and_independent(self, campaign_pipeline, base_model):
        clone = base_model.clone()
        sample = campaign_pipeline.sample(campaign_pipeline.field(TIMESTEPS[0]), 0.05)
        ref = base_model.reconstruct(sample)
        assert clone.reconstruct(sample).tobytes() == ref.tobytes()
        # fine-tuning the clone must not leak into the base model
        field = campaign_pipeline.field(TIMESTEPS[1])
        train = [campaign_pipeline.sample(field, f) for f in (0.02, 0.05)]
        clone.fine_tune(field, train, epochs=1)
        assert base_model.reconstruct(sample).tobytes() == ref.tobytes()

    def test_reconstructor_snapshot_restore_across_finetune(
        self, campaign_pipeline, base_model
    ):
        model = base_model.clone()
        snap = model.snapshot()
        sample = campaign_pipeline.sample(campaign_pipeline.field(TIMESTEPS[0]), 0.05)
        ref = model.reconstruct(sample)
        field = campaign_pipeline.field(TIMESTEPS[1])
        train = [campaign_pipeline.sample(field, f) for f in (0.02, 0.05)]
        model.fine_tune(field, train, epochs=2, strategy="last")
        model.restore(snap)
        assert model.reconstruct(sample).tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# chunk alignment (bit-identity depends on block-aligned boundaries)


class TestAlignedChunks:
    def test_covers_range_contiguously(self):
        chunks = aligned_chunks(100_000, 4, 16384)
        assert chunks[0][0] == 0 and chunks[-1][1] == 100_000
        for (_, stop), (start, _) in zip(chunks, chunks[1:]):
            assert stop == start

    def test_boundaries_are_block_multiples(self):
        for total, n, align in ((100_000, 4, 16384), (50_000, 3, 4096), (16385, 2, 16384)):
            for start, stop in aligned_chunks(total, n, align)[:-1]:
                assert start % align == 0
                assert stop % align == 0

    def test_small_totals_collapse_to_one_chunk(self):
        assert aligned_chunks(820, 4, 16384) == [(0, 820)]

    def test_empty_total(self):
        assert aligned_chunks(0, 4, 16384) == []


# ---------------------------------------------------------------------------
# geometry + cross-timestep caches


class TestGeometry:
    def test_shell_shares_void_caches(self, campaign_pipeline):
        sample = campaign_pipeline.sample(campaign_pipeline.field(0), 0.05)
        geometry = CampaignGeometry.from_sample(sample)
        shell = geometry.shell()
        assert shell.void_indices() is geometry.void_indices
        np.testing.assert_array_equal(shell.indices, np.sort(sample.indices))

    def test_refresh_rewrites_values_in_place(self, campaign_pipeline):
        geometry = CampaignGeometry.from_sample(
            campaign_pipeline.sample(campaign_pipeline.field(0), 0.05)
        )
        shell = geometry.shell()
        buf = shell.values
        field = campaign_pipeline.field(8)
        geometry.refresh(shell, field)
        assert shell.values is buf
        np.testing.assert_array_equal(shell.values, field.values.ravel()[shell.indices])

    def test_geometry_key_discriminates(self, campaign_pipeline):
        field = campaign_pipeline.field(0)
        a = campaign_pipeline.sample(field, 0.05)
        b = campaign_pipeline.sample(field, 0.10)
        assert geometry_key(a.grid, a.indices) == geometry_key(a.grid, a.indices)
        assert geometry_key(a.grid, a.indices) != geometry_key(b.grid, b.indices)

    def test_cache_hits_same_sample_sites(self, campaign_pipeline, metrics):
        from repro.obs import counter

        cache = GeometryCache()
        field = campaign_pipeline.field(0)
        sample = campaign_pipeline.sample(field, 0.05)
        first = cache.get(sample)
        # a later timestep sampled at the same sites reuses the geometry
        again = cache.get(campaign_pipeline.sample(field, 0.05))
        assert again is first
        assert counter("campaign.geometry.hits").value == 1
        assert counter("campaign.geometry.misses").value == 1

    def test_cache_evicts_lru_not_fifo(self, campaign_pipeline):
        cache = GeometryCache()
        field = campaign_pipeline.field(0)
        # One distinct sample per slot, then one more past the capacity.
        fractions = [0.02 + 0.01 * i for i in range(_GEOMETRY_CACHE_ENTRIES + 1)]
        first = cache.get(campaign_pipeline.sample(field, fractions[0]))
        for fraction in fractions[1:-1]:
            cache.get(campaign_pipeline.sample(field, fraction))
        assert len(cache) == _GEOMETRY_CACHE_ENTRIES
        # Touch the oldest entry: under LRU it survives the next insert,
        # under FIFO it would be the one evicted.
        assert cache.get(campaign_pipeline.sample(field, fractions[0])) is first
        cache.get(campaign_pipeline.sample(field, fractions[-1]))
        assert len(cache) == _GEOMETRY_CACHE_ENTRIES
        assert cache.get(campaign_pipeline.sample(field, fractions[0])) is first
        # The second sample was least recently used and evicted: re-get is a rebuild
        misses_before = cache.misses
        cache.get(campaign_pipeline.sample(field, fractions[1]))
        assert cache.misses == misses_before + 1
        with pytest.raises(TypeError):
            GeometryCache(max_entries=2)

    def test_cache_key_includes_dtype_policy(self, campaign_pipeline):
        cache = GeometryCache()
        field = campaign_pipeline.field(0)
        sample = campaign_pipeline.sample(field, 0.05)
        g64 = cache.get(sample, dtype="float64")
        g32 = cache.get(sample, dtype="float32")
        # same sites, different compute dtype: distinct entries, no aliasing
        assert g32 is not g64
        assert len(cache) == 2
        assert cache.get(sample, dtype="float64") is g64
        assert cache.get(sample, dtype="float32") is g32

    def test_cache_hit_miss_gauges(self, campaign_pipeline, metrics):
        from repro.obs import gauge

        cache = GeometryCache()
        field = campaign_pipeline.field(0)
        sample = campaign_pipeline.sample(field, 0.05)
        cache.get(sample)
        cache.get(sample)
        cache.get(sample)
        assert cache.hits == 2
        assert cache.misses == 1
        assert gauge("campaign.geometry.hit_count").value == 2
        assert gauge("campaign.geometry.miss_count").value == 1


# ---------------------------------------------------------------------------
# scheduler semantics (toy stages — no models involved)


class TestScheduler:
    @staticmethod
    def _stages(calls):
        def materialize(t):
            calls.append(("materialize", t))
            return t * 10

        def process(t, item):
            calls.append(("process", t))
            return item + 1

        def emit(t, item):
            calls.append(("emit", t))
            return item * 2

        return materialize, process, emit

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_results_in_timestep_order(self, pipeline):
        calls = []
        scheduler = CampaignScheduler(*self._stages(calls), pipeline=pipeline)
        results = scheduler.run([0, 3, 7, 9])
        assert results == [2, 62, 142, 182]
        # every timestep reaches every stage exactly once, emits in order
        emits = [t for stage, t in calls if stage == "emit"]
        assert emits == [0, 3, 7, 9]
        assert scheduler.stats.pipeline is pipeline
        assert scheduler.stats.timesteps == 4

    def test_process_runs_in_timestep_order_on_caller_thread(self):
        import threading

        seen = []
        main = threading.get_ident()

        def process(t, item):
            seen.append((t, threading.get_ident()))
            return item

        scheduler = CampaignScheduler(lambda t: t, process, pipeline=True)
        scheduler.run([1, 2, 3])
        assert [t for t, _ in seen] == [1, 2, 3]
        assert all(tid == main for _, tid in seen)  # fine-tune never leaves the caller

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_process_error_propagates_original(self, pipeline):
        def process(t, item):
            if t == 2:
                raise ValueError("injected process failure")
            return item

        scheduler = CampaignScheduler(lambda t: t, process, pipeline=pipeline)
        with pytest.raises(ValueError, match="injected process failure"):
            scheduler.run([1, 2, 3])

    def test_materialize_error_propagates(self):
        def materialize(t):
            if t == 5:
                raise RuntimeError("injected materialize failure")
            return t

        scheduler = CampaignScheduler(materialize, lambda t, i: i, pipeline=True)
        with pytest.raises(RuntimeError, match="injected materialize failure"):
            scheduler.run([4, 5, 6])

    def test_emit_error_propagates(self):
        def emit(t, item):
            raise KeyError("injected emit failure")

        scheduler = CampaignScheduler(lambda t: t, lambda t, i: i, emit, pipeline=True)
        with pytest.raises(KeyError, match="injected emit failure"):
            scheduler.run([1, 2])

    def test_stats_and_occupancy_gauges(self, metrics):
        from repro.obs import counter, gauge

        scheduler = CampaignScheduler(lambda t: t, lambda t, i: i, pipeline=True)
        scheduler.run([1, 2, 3])
        stats = scheduler.stats
        assert stats.wall_seconds >= 0.0
        for stage in ("prefetch", "process", "emit"):
            assert 0.0 <= stats.occupancy(stage) <= 1.0
        assert counter("campaign.timesteps").value == 3
        assert gauge("campaign.occupancy.finetune").value is not None

    def test_empty_run(self):
        scheduler = CampaignScheduler(lambda t: t, lambda t, i: i)
        assert scheduler.run([]) == []


# ---------------------------------------------------------------------------
# the prefetch window: two items materialize ahead of process, in order


def _prefetch_threads(name: str) -> list:
    return [th for th in threading.enumerate() if th.name.startswith(f"{name}-prefetch")]


class TestPrefetchWindow:
    def test_slow_early_items_arrive_in_item_order(self, two_cpus):
        steps = [3, 1, 4, 0, 5, 9, 2, 6]

        def materialize(t):
            # Earlier items take longer, so later ones finish first.
            time.sleep(0.005 * (len(steps) - steps.index(t)))
            return t * 10

        calls = []

        def process(t, item):
            calls.append(t)
            return item + 1

        def emit(t, payload):
            return (t, payload * 2)

        got = CampaignScheduler(materialize, process, emit, name="window").run(steps)
        assert calls == steps
        want = CampaignScheduler(
            materialize, lambda t, item: item + 1, emit, pipeline=False
        ).run(steps)
        assert got == want

    def test_at_most_two_items_ahead_of_process(self, two_cpus):
        lock = threading.Lock()
        started: set = set()
        ahead = []

        def materialize(t):
            with lock:
                started.add(t)
            time.sleep(0.002)
            return t

        def beyond(t) -> int:
            with lock:
                return sum(1 for j in started if j > t)

        def process(t, item):
            ahead.append(beyond(t))
            time.sleep(0.02)  # a slow trainer: an unbounded prefetch would run away
            ahead.append(beyond(t))
            return item

        CampaignScheduler(materialize, process, name="window").run(range(12))
        assert max(ahead) == 2

    def test_two_materialize_calls_in_flight_at_once(self, two_cpus):
        barrier = threading.Barrier(2, timeout=10)
        names = set()

        def materialize(t):
            names.add(threading.current_thread().name)
            if t < 2:
                barrier.wait()  # passes only if items 0 and 1 materialize together
            return t

        assert CampaignScheduler(materialize, lambda t, i: i, name="window").run(
            range(5)
        ) == [0, 1, 2, 3, 4]
        assert names == {"window-prefetch_0", "window-prefetch_1"}

    def test_one_usable_cpu_runs_one_prefetch_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        names = set()

        def materialize(t):
            names.add(threading.current_thread().name)
            return t

        CampaignScheduler(materialize, lambda t, i: i, name="window").run(range(6))
        assert names == {"window-prefetch_0"}

    def test_materialize_failure_during_process_is_reraised(self, two_cpus):
        failed = threading.Event()
        seen = []

        def materialize(t):
            if t == 1:
                failed.set()
                raise RuntimeError("injected materialize failure at 1")
            return t

        def process(t, item):
            seen.append(t)
            if t == 0:
                assert failed.wait(timeout=10)  # item 1 fails while item 0 trains
            return item

        scheduler = CampaignScheduler(materialize, process, name="window")
        with pytest.raises(RuntimeError, match="injected materialize failure at 1"):
            scheduler.run([0, 1, 2, 3])
        assert seen == [0]

    def test_emit_failure_stops_caller_before_next_process(self, two_cpus):
        emit_failed = threading.Event()
        seen = []

        def process(t, item):
            seen.append(t)
            if t == 1:
                assert emit_failed.wait(timeout=10)  # item 2 is materialized by now
            return item

        def emit(t, payload):
            if t == 0:
                emit_failed.set()
                raise KeyError("injected emit failure at 0")
            return payload

        scheduler = CampaignScheduler(lambda t: t, process, emit, name="window")
        with pytest.raises(KeyError, match="injected emit failure at 0"):
            scheduler.run([0, 1, 2, 3])
        assert seen == [0, 1]

    @pytest.mark.parametrize("failing", [None, "materialize", "process", "emit"])
    def test_no_prefetch_thread_outlives_run(self, two_cpus, failing):
        def stage(name):
            def fn(t, *rest):
                if name == failing and t == 2:
                    raise RuntimeError(f"injected {name} failure")
                return rest[-1] if rest else t

            return fn

        scheduler = CampaignScheduler(
            stage("materialize"), stage("process"), stage("emit"), name="window"
        )
        if failing is None:
            assert scheduler.run(range(6)) == list(range(6))
        else:
            with pytest.raises(RuntimeError, match=f"injected {failing} failure"):
                scheduler.run(range(6))
        leftover = _prefetch_threads("window")
        for thread in leftover:
            thread.join(timeout=5)
        assert not [thread.name for thread in leftover if thread.is_alive()]

    def test_interrupt_names_completed_prefix(self, two_cpus):
        from repro.resilience.supervise import CampaignInterrupted

        class Flag:
            triggered = False

        flag = Flag()
        emitted = []

        def process(t, item):
            if t == 2:
                flag.triggered = True
            return item

        scheduler = CampaignScheduler(
            lambda t: t, process, lambda t, p: emitted.append(t), name="window",
            interrupt=flag,
        )
        with pytest.raises(CampaignInterrupted) as excinfo:
            scheduler.run([0, 1, 2, 3, 4])
        assert excinfo.value.completed == (0, 1, 2)
        assert excinfo.value.next_timestep == 3
        assert emitted == [0, 1, 2]
        assert not _prefetch_threads("window")

    def test_stress_matches_serial_schedule(self, two_cpus):
        lock = threading.Lock()
        materialized = []

        def materialize(t):
            values = np.random.default_rng(t).standard_normal(4096)
            total = float(np.sort(values)[::7].sum()) + sum(range(50 * t))
            with lock:
                materialized.append(t)
            return total

        def stages():
            state = {"acc": 0.0}

            def process(t, item):
                state["acc"] = state["acc"] * 1.000001 + item  # order-dependent
                return (t, state["acc"])

            return process, lambda t, payload: payload

        steps = list(range(50))
        want = CampaignScheduler(materialize, *stages(), pipeline=False).run(steps)
        materialized.clear()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            t0 = time.perf_counter()
            got = CampaignScheduler(materialize, *stages(), name="window").run(steps)
            elapsed = time.perf_counter() - t0
        finally:
            sys.setswitchinterval(previous)
        assert got == want
        assert sorted(materialized) == steps  # each item materialized exactly once
        assert elapsed < 60.0
        assert not _prefetch_threads("window")


# ---------------------------------------------------------------------------
# end-to-end: run_campaign bit-identity across every pipeline x pool combo


@pytest.fixture(scope="module")
def campaign_results(campaign_pipeline, base_model):
    results = {}
    for pipeline in (False, True):
        for warm_pool in (False, True):
            results[(pipeline, warm_pool)] = campaign_pipeline.run_campaign(
                base_model.clone(),
                TIMESTEPS,
                0.05,
                finetune_epochs=2,
                pipeline=pipeline,
                warm_pool=warm_pool,
                max_workers=2,
            )
    return results


class TestRunCampaign:
    def test_serial_reference_is_complete(self, campaign_results):
        ref = campaign_results[(False, False)]
        assert [row["timestep"] for row in ref.rows] == list(TIMESTEPS)
        assert len(ref.reconstructions) == len(TIMESTEPS)
        assert all(np.isfinite(v).all() for v in ref.reconstructions)
        assert all(row["snr"] > 0 for row in ref.rows)
        assert ref.finetune_seconds > 0.0

    @pytest.mark.parametrize("combo", [(False, True), (True, False), (True, True)])
    def test_bit_identical_to_serial(self, campaign_results, combo):
        def scores(result):  # drop the only wall-clock (non-deterministic) column
            return [{k: v for k, v in row.items() if k != "finetune_seconds"} for row in result.rows]

        ref = campaign_results[(False, False)]
        got = campaign_results[combo]
        assert scores(got) == scores(ref)  # scores are floats: equality means bit-equal
        for mine, theirs in zip(got.reconstructions, ref.reconstructions):
            assert mine.tobytes() == theirs.tobytes()

    def test_stats_reflect_mode(self, campaign_results):
        assert campaign_results[(True, True)].stats.pipeline is True
        assert campaign_results[(False, False)].stats.pipeline is False

    def test_requires_trained_model(self, campaign_pipeline):
        with pytest.raises(RuntimeError, match="train"):
            campaign_pipeline.run_campaign(
                FCNNReconstructor(hidden_layers=(8,)), TIMESTEPS, 0.05
            )

    def test_empty_timesteps(self, campaign_pipeline, base_model):
        result = campaign_pipeline.run_campaign(base_model.clone(), [], 0.05)
        assert result.rows == [] and result.stats.timesteps == 0

    def test_warm_pool_ships_geometry_and_weights_once(
        self, campaign_pipeline, base_model, metrics
    ):
        from repro.obs import counter

        campaign_pipeline.run_campaign(
            base_model.clone(),
            TIMESTEPS,
            0.05,
            finetune_epochs=1,
            pipeline=True,
            warm_pool=True,
            max_workers=2,
        )
        created = counter("campaign.shm_bundles_created").value
        if created == 0:  # host without usable shared memory: local fallback
            pytest.skip("shared memory unavailable; warm pool degraded to local sink")
        assert created == 1


# ---------------------------------------------------------------------------
# from-base fine-tunes: FCNNReconstructor.fine_tune_batch


def _uncached_case2(base, field, train, epochs):
    """Case 2 without the prefix cache: a Trainer over the whole frozen model
    on ``_training_matrix`` rows, so every batch goes through the frozen
    layers."""
    ref = base.clone()
    model = ref.model
    model.freeze_all_but_last(2)
    tuned = dataclasses.replace(
        ref.normalizer,
        origin=np.asarray(field.grid.origin, dtype=np.float64),
        span=_grid_span(field.grid),
    )
    x, y = ref._training_matrix(field, train, tuned, 1.0, np.random.default_rng(ref.seed + 1))
    Trainer(
        model,
        loss=ref._loss(),
        optimizer=Adam(model.parameters(), lr=ref.learning_rate),
        batch_size=ref.batch_size,
        seed=ref.seed + 1,
        workspace=Workspace(dtype=ref.dtype_policy.compute_dtype),
    ).fit(x, y, epochs=epochs)
    model.set_all_trainable(True)
    return snapshot_weights(model).data


class TestFineTuneBatch:
    """FCNNReconstructor.fine_tune_batch: single-model fits from a restored base."""

    @pytest.fixture(scope="class")
    def step_data(self, campaign_pipeline):
        fields = [campaign_pipeline.field(t) for t in TIMESTEPS]
        trains = [
            [campaign_pipeline.sample(f, fr) for fr in (0.02, 0.05)] for f in fields
        ]
        return fields, trains

    @pytest.mark.parametrize(
        "strategy", ["full", "last"], ids=["case1-full", "case2-no-cache"]
    )
    def test_bit_identical_to_serial_fine_tune_from_base(
        self, campaign_pipeline, base_model64, step_data, strategy
    ):
        """Under float64 each step equals a serial fine_tune from the base,
        and Case 2 also equals the uncached fit."""
        fields, trains = step_data
        flats, histories = base_model64.clone().fine_tune_batch(
            fields, trains, epochs=2, strategy=strategy
        )
        assert len(flats) == len(histories) == len(TIMESTEPS)
        for field, train, flat in zip(fields, trains, flats):
            ref = base_model64.clone()
            ref.fine_tune(field, train, epochs=2, strategy=strategy)
            assert flat.tobytes() == snapshot_weights(ref.model).data.tobytes()
            if strategy == "last":
                uncached = _uncached_case2(base_model64, field, train, epochs=2)
                assert flat.tobytes() == uncached.tobytes()

    def test_case2_prefix_cache_close_to_exact(self, base_model, step_data):
        """Under float32 the cached Case 2 stays within float64-level
        tolerance of the uncached fit."""
        fields, trains = step_data
        fast, _ = base_model.clone().fine_tune_batch(
            fields, trains, epochs=2, strategy="last"
        )
        for field, train, b in zip(fields, trains, fast):
            a = _uncached_case2(base_model, field, train, epochs=2)
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["full", "last"])
    def test_float32_step_equals_fine_tune_from_restored_base(
        self, base_model, step_data, strategy
    ):
        fields, trains = step_data
        model = base_model.clone()
        base = model.snapshot()
        (flat,), _ = model.fine_tune_batch(
            [fields[1]], [trains[1]], epochs=2, strategy=strategy
        )
        model.restore(base)
        model.fine_tune(fields[1], trains[1], epochs=2, strategy=strategy)
        assert flat.dtype == np.float64
        assert flat.tobytes() == snapshot_weights(model.model).data.tobytes()

    def test_base_model_stays_pristine(self, base_model, step_data):
        fields, trains = step_data
        model = base_model.clone()
        before = snapshot_weights(model.model).data.copy()
        model.fine_tune_batch(fields[:2], trains[:2], epochs=1)
        assert snapshot_weights(model.model).data.tobytes() == before.tobytes()

    def test_a_raising_step_leaves_the_base_as_it_was(
        self, base_model, step_data, monkeypatch
    ):
        fields, trains = step_data
        model = base_model.clone()
        before = model.model.snapshot()
        history = model.history.epochs
        run_epoch = Trainer._run_epoch
        calls = []

        def second_epoch_raises(trainer, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # the suffix has taken a step by now
                raise RuntimeError("injected")
            return run_epoch(trainer, *args, **kwargs)

        monkeypatch.setattr(Trainer, "_run_epoch", second_epoch_raises)
        with pytest.raises(RuntimeError, match="injected"):
            model.fine_tune_batch(fields, trains, epochs=2, strategy="last")
        after = model.model.snapshot()
        assert [v.tobytes() for v, _ in after] == [v.tobytes() for v, _ in before]
        assert [t for _, t in after] == [t for _, t in before]
        assert all(t for _, t in after)
        assert model.history.epochs == history

    def test_validation(self, base_model, step_data):
        fields, trains = step_data
        with pytest.raises(ValueError, match="strategy"):
            base_model.clone().fine_tune_batch(fields, trains, strategy="most")
        with pytest.raises(ValueError, match="sample groups"):
            base_model.clone().fine_tune_batch(fields, trains[:1])
        with pytest.raises(ValueError, match="at least one"):
            base_model.clone().fine_tune_batch([], [])
        with pytest.raises(TypeError, match="prefix_cache"):
            base_model.clone().fine_tune_batch(fields, trains, prefix_cache=False)

    def test_no_library_module_imports_the_batched_engine(self):
        import ast
        import pathlib

        import repro

        def imported(tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    yield from (alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    yield node.module
                    yield from (f"{node.module}.{alias.name}" for alias in node.names)

        root = pathlib.Path(repro.__file__).parent
        importers = [
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if path.relative_to(root).parts[:2] != ("nn", "batched")
            and any(
                name.startswith("repro.nn.batched")
                for name in imported(ast.parse(path.read_text()))
            )
        ]
        assert importers == []


@pytest.fixture(scope="module")
def batched_results(campaign_pipeline, base_model):
    results = {}
    for name, pipeline in {"serial": False, "pipelined": True}.items():
        results[name] = campaign_pipeline.run_campaign(
            base_model.clone(),
            TIMESTEPS,
            0.05,
            finetune_epochs=2,
            batched_finetune=True,
            warm_pool=False,
            pipeline=pipeline,
        )
    return results


class TestBatchedCampaign:
    @staticmethod
    def _scores(result):
        return [
            {k: v for k, v in row.items() if k != "finetune_seconds"}
            for row in result.rows
        ]

    def test_complete_and_finite(self, batched_results):
        ref = batched_results["serial"]
        assert [row["timestep"] for row in ref.rows] == list(TIMESTEPS)
        assert all(np.isfinite(v).all() for v in ref.reconstructions)

    def test_stats_count_timesteps_not_blocks(self, batched_results):
        for result in batched_results.values():
            assert result.stats.timesteps == len(TIMESTEPS)

    @pytest.mark.parametrize("variant", ["blocks-of-1", "pipelined-blocks-of-2"])
    def test_block_size_and_pipeline_invariant(
        self, campaign_pipeline, base_model, batched_results, variant
    ):
        """Serial or pipelined, each volume equals the one reconstructed from
        the weights fine_tune_batch gives when fed blocks of 1 or 2 timesteps:
        no member depends on the block it is trained in."""
        block = int(variant.rsplit("-", 1)[1])
        ref = batched_results["serial"]
        got = batched_results["pipelined" if variant.startswith("pipelined") else "serial"]
        assert self._scores(got) == self._scores(ref)
        for mine, theirs in zip(got.reconstructions, ref.reconstructions):
            assert mine.tobytes() == theirs.tobytes()

        geometry = campaign_pipeline.geometry_cache.get(
            campaign_pipeline.sample(campaign_pipeline.field(TIMESTEPS[0]), 0.05)
        )
        for start in range(0, len(TIMESTEPS), block):
            fields = [campaign_pipeline.field(t) for t in TIMESTEPS[start : start + block]]
            trains = [
                [campaign_pipeline.sample(f, fr) for fr in (0.02, 0.05)] for f in fields
            ]
            flats, _ = base_model.clone().fine_tune_batch(
                fields, trains, epochs=2, strategy="full"
            )
            for i, (field, flat) in enumerate(zip(fields, flats), start):
                model = base_model.clone()
                restore_weights(model.model, flat)
                want = model.reconstruct(
                    geometry.refresh(geometry.shell(timestep=field.timestep), field)
                )
                assert got.reconstructions[i].tobytes() == want.tobytes()

    def test_from_base_semantics_differ_from_rolling(
        self, campaign_pipeline, base_model64
    ):
        # float64: the batched engine and the rolling trainer then run the
        # same arithmetic on the first timestep.
        rolling, batched = (
            campaign_pipeline.run_campaign(
                base_model64.clone(), TIMESTEPS, 0.05, finetune_epochs=2,
                batched_finetune=from_base, warm_pool=False, pipeline=False,
            )
            for from_base in (False, True)
        )
        # The first timestep fine-tunes from the base either way...
        assert self._scores(batched)[0] == self._scores(rolling)[0]
        # ...but later ones roll forward serially vs. derive from the base.
        assert self._scores(batched)[1:] != self._scores(rolling)[1:]

    def test_journal_keeps_per_timestep_states_from_base(
        self, campaign_pipeline, base_model, tmp_path
    ):
        from repro.resilience.journal import CampaignJournal

        wal = tmp_path / "journal.jsonl"
        campaign_pipeline.run_campaign(
            base_model.clone(),
            TIMESTEPS,
            0.05,
            finetune_epochs=2,
            batched_finetune=True,
            warm_pool=False,
            journal=wal,
        )
        fields = [campaign_pipeline.field(t) for t in TIMESTEPS]
        trains = [
            [campaign_pipeline.sample(f, fr) for fr in (0.02, 0.05)] for f in fields
        ]
        expected, _ = base_model.clone().fine_tune_batch(
            fields, trains, epochs=2, strategy="full"
        )
        journal = CampaignJournal(wal, resume=True)
        try:
            for t, flat in zip(TIMESTEPS, expected):
                assert journal.load_state(t).tobytes() == flat.tobytes()
        finally:
            journal.close()

    def test_quarantined_block_degrades_to_base_weights(
        self, campaign_pipeline, base_model
    ):
        """Every timestep's fine-tune raises: each one degrades on its own."""
        from repro.resilience import SupervisionPolicy

        model = base_model.clone()

        def exploding_fine_tune_batch(*args, **kwargs):
            raise RuntimeError("optimizer exploded")

        model.fine_tune_batch = exploding_fine_tune_batch
        result = campaign_pipeline.run_campaign(
            model,
            TIMESTEPS,
            0.05,
            finetune_epochs=2,
            batched_finetune=True,
            warm_pool=False,
            supervision=SupervisionPolicy(),
        )
        assert [row["timestep"] for row in result.rows] == list(TIMESTEPS)
        assert len(result.quarantined) == len(TIMESTEPS)
        assert all(rec.stage == "fine-tune" for rec in result.quarantined)
        assert all(row["degraded_points"] > 0 for row in result.rows)
        assert all(row["finetune_seconds"] == 0.0 for row in result.rows)

    @pytest.mark.parametrize("pipeline", [False, True], ids=["serial", "pipelined"])
    def test_matches_plain_per_timestep_loop(
        self, campaign_pipeline, base_model, tmp_path, pipeline
    ):
        """Rows, volumes and sidecars equal fine_tune_batch([f], [t]) from a
        clone of the base followed by a plain reconstruct, one timestep at
        a time."""
        from repro.metrics import score_reconstruction
        from repro.resilience.journal import CampaignJournal

        wal = tmp_path / "journal.jsonl"
        result = campaign_pipeline.run_campaign(
            base_model.clone(),
            TIMESTEPS,
            0.05,
            finetune_epochs=2,
            batched_finetune=True,
            warm_pool=False,
            pipeline=pipeline,
            journal=wal,
        )
        field0 = campaign_pipeline.field(TIMESTEPS[0])
        geometry = campaign_pipeline.geometry_cache.get(
            campaign_pipeline.sample(field0, 0.05)
        )
        journal = CampaignJournal(wal, resume=True)
        try:
            for i, t in enumerate(TIMESTEPS):
                field = campaign_pipeline.field(t)
                train = [campaign_pipeline.sample(field, f) for f in (0.02, 0.05)]
                (flat,), _ = base_model.clone().fine_tune_batch(
                    [field], [train], epochs=2, strategy="full"
                )
                assert journal.load_state(t).tobytes() == flat.tobytes()
                model = base_model.clone()
                restore_weights(model.model, flat)
                want = model.reconstruct(geometry.refresh(geometry.shell(timestep=t), field))
                assert result.reconstructions[i].tobytes() == want.tobytes()
                assert self._scores(result)[i] == {
                    "timestep": t,
                    "degraded_points": 0,
                    **score_reconstruction(field.values, want).as_dict(),
                }
        finally:
            journal.close()

    def test_fine_tune_failure_quarantines_only_its_timestep(
        self, campaign_pipeline, base_model, batched_results
    ):
        from repro.resilience import SupervisionPolicy

        poison = TIMESTEPS[1]
        model = base_model.clone()
        fine_tune_batch = model.fine_tune_batch

        def poisoned(fields, trains, **kwargs):
            if any(f.timestep == poison for f in fields):
                raise RuntimeError("optimizer exploded")
            return fine_tune_batch(fields, trains, **kwargs)

        model.fine_tune_batch = poisoned
        result = campaign_pipeline.run_campaign(
            model,
            TIMESTEPS,
            0.05,
            finetune_epochs=2,
            batched_finetune=True,
            warm_pool=False,
            supervision=SupervisionPolicy(),
        )
        assert [(rec.timestep, rec.stage) for rec in result.quarantined] == [
            (poison, "fine-tune")
        ]
        ref = batched_results["serial"]
        for i, t in enumerate(TIMESTEPS):
            if t == poison:
                row = result.rows[i]
                assert row["degraded_points"] > 0 and row["finetune_seconds"] == 0.0
                # Reconstructed with the pretrained base weights.
                geometry = campaign_pipeline.geometry_cache.get(
                    campaign_pipeline.sample(campaign_pipeline.field(TIMESTEPS[0]), 0.05)
                )
                field = campaign_pipeline.field(t)
                want = base_model.clone().reconstruct(
                    geometry.refresh(geometry.shell(timestep=t), field)
                )
                assert result.reconstructions[i].tobytes() == want.tobytes()
                continue
            assert self._scores(result)[i] == self._scores(ref)[i]
            assert result.reconstructions[i].tobytes() == ref.reconstructions[i].tobytes()


# ---------------------------------------------------------------------------
# warm pool vs local sink, including worker-kill fault injection


class _KillOnceWorker:
    """Picklable campaign worker that kills its process exactly once.

    The marker file makes the "already crashed?" decision deterministic
    across processes, so the executor's serial re-run (and any retry)
    succeeds — modelling a transient worker loss mid-campaign.
    """

    def __init__(self, state_dir) -> None:
        self.state_dir = str(state_dir)
        self.parent_pid = os.getpid()

    def __call__(self, payload):
        from repro.perf.campaign import _campaign_worker

        marker = os.path.join(self.state_dir, "campaign-worker-kill.tripped")
        # only ever kill a *worker* process — on hosts where the executor
        # degraded to in-process serial execution there is nothing to kill
        if os.getpid() != self.parent_pid and not os.path.exists(marker):
            with open(marker, "w", encoding="ascii") as fh:
                fh.write("tripped\n")
            os._exit(23)
        return _campaign_worker(payload)


def _drive_sink(sink, geometry, campaign_pipeline, model, timesteps):
    """Publish + reconstruct each timestep; returns the emitted volumes."""
    shell = geometry.shell()
    volumes = []
    for t in timesteps:
        field = campaign_pipeline.field(t)
        geometry.refresh(shell, field)
        train = [campaign_pipeline.sample(field, f) for f in (0.02, 0.05)]
        model.fine_tune(field, train, epochs=1)
        flat = snapshot_weights(model.model).data
        slot = sink.publish(t, shell.values, {"fcnn": flat})
        volume, report = sink.reconstruct(slot, "fcnn")
        volumes.append(volume)
    return volumes


class TestWarmPool:
    @pytest.fixture
    def geometry(self, campaign_pipeline):
        return CampaignGeometry.from_sample(
            campaign_pipeline.sample(campaign_pipeline.field(TIMESTEPS[0]), 0.05)
        )

    def _local_reference(self, geometry, campaign_pipeline, base_model):
        with LocalReconstructionSink() as sink:
            sink.bind(geometry, {"fcnn": base_model.clone()})
            return _drive_sink(
                sink, geometry, campaign_pipeline, base_model.clone(), TIMESTEPS
            )

    def _bound_pool(self, geometry, base_model, **kwargs):
        pool = WarmReconstructionPool(max_workers=2, **kwargs)
        try:
            pool.bind(geometry, {"fcnn": base_model.clone()})
        except OSError:
            pool.close()
            pytest.skip("shared memory unavailable on this host")
        return pool

    def test_pool_matches_local_sink_bitwise(
        self, geometry, campaign_pipeline, base_model
    ):
        ref = self._local_reference(geometry, campaign_pipeline, base_model)
        with self._bound_pool(geometry, base_model) as pool:
            got = _drive_sink(
                pool, geometry, campaign_pipeline, base_model.clone(), TIMESTEPS
            )
        assert [v.tobytes() for v in got] == [v.tobytes() for v in ref]

    def test_worker_kill_degrades_gracefully(
        self, geometry, campaign_pipeline, base_model, tmp_path, metrics
    ):
        from repro.obs import counter

        ref = self._local_reference(geometry, campaign_pipeline, base_model)
        pool = self._bound_pool(
            geometry, base_model, worker_fn=_KillOnceWorker(tmp_path)
        )
        with pool:
            got = _drive_sink(
                pool, geometry, campaign_pipeline, base_model.clone(), TIMESTEPS
            )
        # no timestep dropped, every volume still bit-identical to serial
        assert len(got) == len(TIMESTEPS)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in ref]
        if (tmp_path / "campaign-worker-kill.tripped").exists():
            assert counter("campaign.pool.recovered").value >= 1

    def test_publish_rejects_unknown_tag(self, geometry, base_model):
        with self._bound_pool(geometry, base_model) as pool:
            flat = snapshot_weights(base_model.model).data
            with pytest.raises((KeyError, ValueError)):
                pool.publish(0, np.zeros(geometry.num_samples), {"nope": flat})

    def test_sink_factory_closes_pool_on_unexpected_bind_failure(self, monkeypatch):
        # Regression (THR002-family fix): a non-OSError escaping bind() used
        # to leak the half-bound pool (shm segments + worker pool) because
        # only the OSError fallback path called close().
        from repro.perf import campaign as campaign_mod

        closed = []

        def bad_bind(self, geometry, models):
            raise RuntimeError("bind exploded mid-way")

        def spy_close(self):
            closed.append(self)

        monkeypatch.setattr(campaign_mod.WarmReconstructionPool, "bind", bad_bind)
        monkeypatch.setattr(campaign_mod.WarmReconstructionPool, "close", spy_close)
        with pytest.raises(RuntimeError, match="bind exploded"):
            campaign_mod.make_reconstruction_sink(object(), {"fcnn": object()})
        assert len(closed) == 1

    def test_sink_factory_falls_back_to_local_on_oserror(self, monkeypatch):
        from repro.perf import campaign as campaign_mod

        closed = []

        def no_shm_bind(self, geometry, models):
            raise OSError("no /dev/shm here")

        monkeypatch.setattr(campaign_mod.WarmReconstructionPool, "bind", no_shm_bind)
        monkeypatch.setattr(
            campaign_mod.WarmReconstructionPool,
            "close",
            lambda self: closed.append(self),
        )
        bound = []
        monkeypatch.setattr(
            campaign_mod.LocalReconstructionSink,
            "bind",
            lambda self, geometry, models: bound.append(geometry),
        )
        sink = campaign_mod.make_reconstruction_sink(object(), {"fcnn": object()})
        assert isinstance(sink, campaign_mod.LocalReconstructionSink)
        assert len(closed) == 1 and len(bound) == 1


# ---------------------------------------------------------------------------
# natural-neighbor offset-ball memoization (satellite 3)


class TestOffsetMemo:
    def test_memo_hits_and_results_unchanged(self, dense_sample, metrics):
        from repro.interpolation.natural_neighbor import (
            _OFFSET_CACHE,
            NaturalNeighborInterpolator,
        )
        from repro.obs import counter

        _OFFSET_CACHE.clear()
        interp = NaturalNeighborInterpolator()
        cold = interp.reconstruct(dense_sample)
        misses = counter("interp.natural.offsets.miss").value
        assert misses >= 1
        warm = interp.reconstruct(dense_sample)
        assert counter("interp.natural.offsets.miss").value == misses  # no new misses
        assert counter("interp.natural.offsets.hit").value >= 1
        assert warm.tobytes() == cold.tobytes()


# ---------------------------------------------------------------------------
# in situ campaign writer stays byte-identical when pipelined


class TestInSituPipelined:
    def test_campaign_directories_byte_identical(self, tmp_path):
        import filecmp

        from repro.insitu import InSituWriter
        from repro.sampling import MultiCriteriaSampler

        data = make_dataset("combustion", dims=DIMS, seed=0)
        dirs = {}
        for mode in ("serial", "pipelined"):
            writer = InSituWriter(
                data,
                MultiCriteriaSampler(seed=0),
                0.05,
                train_model=True,
                train_fractions=(0.02,),
                epochs=2,
                finetune_epochs=1,
                model_kwargs={"hidden_layers": (8,), "batch_size": 1024, "seed": 7},
            )
            out = tmp_path / mode
            writer.run(out, TIMESTEPS, pipeline=mode == "pipelined")
            dirs[mode] = out
        names = sorted(p.name for p in dirs["serial"].iterdir())
        assert names == sorted(p.name for p in dirs["pipelined"].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            dirs["serial"], dirs["pipelined"], names, shallow=False
        )
        assert mismatch == [] and errors == []
        assert sorted(match) == names

    def test_batched_campaign_block_size_invariant_on_disk(self, tmp_path):
        """One fine-tune per timestep writes the checkpoints one fused call
        over every later timestep produces, pipelined or not."""
        import filecmp

        from repro.insitu import CampaignReader, InSituWriter
        from repro.sampling import MultiCriteriaSampler

        data = make_dataset("combustion", dims=DIMS, seed=0)
        # float64, the batched engine's dtype: a float32 model would store
        # the fused weights rounded.
        model_kwargs = {
            "hidden_layers": (8,), "batch_size": 1024, "seed": 7, "dtype_policy": "float64",
        }
        dirs = {}
        for name in ("serial", "pipelined"):
            writer = InSituWriter(
                data,
                MultiCriteriaSampler(seed=0),
                0.05,
                train_model=True,
                train_fractions=(0.02,),
                epochs=2,
                finetune_epochs=1,
                model_kwargs=model_kwargs,
                batched_finetune=True,
            )
            out = tmp_path / name
            writer.run(out, TIMESTEPS, pipeline=name == "pipelined")
            dirs[name] = out
        names = sorted(p.name for p in dirs["serial"].iterdir())
        assert names == sorted(p.name for p in dirs["pipelined"].iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            dirs["serial"], dirs["pipelined"], names, shallow=False
        )
        assert mismatch == [] and errors == []
        assert sorted(match) == names

        sampler = MultiCriteriaSampler(seed=0)
        fields = [data.field(t=t) for t in TIMESTEPS]
        trains = [[sampler.sample(f, 0.02)] for f in fields]
        base = FCNNReconstructor(**model_kwargs)
        base.train(fields[0], trains[0], epochs=2)
        fused, _ = base.fine_tune_batch(fields[1:], trains[1:], epochs=1, strategy="last")
        reader = CampaignReader(dirs["serial"])
        for t, flat in zip(TIMESTEPS[1:], fused):
            on_disk = snapshot_weights(reader.load_model(t).model).data
            assert on_disk.tobytes() == flat.tobytes()
