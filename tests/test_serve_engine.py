"""StackEvaluator: bit-identity to the serial path, arena bounds, chunks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.campaign import LocalReconstructionSink
from repro.perf.weights import restore_weights
from repro.resilience.health import NumericalHealthError
from repro.serve import StackEvaluator


@pytest.fixture
def namespace(serve_registry):
    return serve_registry.namespace("combustion", 0.06)


@pytest.fixture
def serial_rows(serve_registry, namespace):
    """Per-key serial (predict_values, reconstruct) references."""
    base = namespace.base.clone()
    shell = namespace.geometry.shell()
    out = {}
    for key in serve_registry.keys():
        weights, values = serve_registry.hot(key)
        restore_weights(base.model, weights)
        shell.values[...] = values
        out[key] = (
            base.predict_values(shell, namespace.geometry.void_points).copy(),
            base.reconstruct(shell).copy(),
        )
    return out


class TestBitIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fused_rows_match_serial_predict_bitwise(
        self, serve_registry, namespace, serial_rows, k
    ):
        evaluator = StackEvaluator(namespace.base, namespace.geometry)
        keys = serve_registry.keys()[:k]
        rows = [serve_registry.hot(key) for key in keys]
        pred, reports = evaluator.evaluate([w for w, _ in rows], [v for _, v in rows])
        assert pred.shape == (k, namespace.geometry.num_voids)
        assert len(reports) == k
        for member, key in enumerate(keys):
            assert pred[member].tobytes() == serial_rows[key][0].tobytes()

    def test_repeated_evaluations_are_stable(self, serve_registry, namespace):
        evaluator = StackEvaluator(namespace.base, namespace.geometry)
        keys = serve_registry.keys()
        rows = [serve_registry.hot(key) for key in keys]
        first, _ = evaluator.evaluate([w for w, _ in rows], [v for _, v in rows])
        # reversed member order through the (reused) warm stack
        second, _ = evaluator.evaluate(
            [w for w, _ in reversed(rows)], [v for _, v in reversed(rows)]
        )
        assert first.tobytes() == second[::-1].copy().tobytes()

    def test_assemble_matches_serial_reconstruct(
        self, serve_registry, namespace, serial_rows
    ):
        evaluator = StackEvaluator(namespace.base, namespace.geometry)
        key = serve_registry.keys()[0]
        weights, values = serve_registry.hot(key)
        pred, _ = evaluator.evaluate([weights], [values])
        volume = evaluator.assemble(values, pred[0])
        assert volume.tobytes() == serial_rows[key][1].tobytes()

    def test_float32_served_bytes_equal_offline(self, serve_registry, namespace):
        """A float32 base, the default, serves what an offline campaign writes."""
        assert namespace.base.dtype_policy.compute == "float32"
        evaluator = StackEvaluator(namespace.base, namespace.geometry)
        for key in serve_registry.keys():
            weights, values = serve_registry.hot(key)
            pred, _ = evaluator.evaluate([weights], [values])
            served = evaluator.assemble(values, pred[0])
            with LocalReconstructionSink() as sink:
                sink.bind(namespace.geometry, {"fcnn": namespace.base})
                slot = sink.publish(0, np.array(values), {"fcnn": np.array(weights)})
                offline, _ = sink.reconstruct(slot, "fcnn")
            assert served.tobytes() == offline.tobytes()


class TestStacks:
    def test_mismatched_rows_rejected(self, serve_registry, namespace):
        evaluator = StackEvaluator(namespace.base, namespace.geometry)
        weights, values = serve_registry.hot(serve_registry.keys()[0])
        with pytest.raises(ValueError, match="matching"):
            evaluator.evaluate([weights], [values, values])
        with pytest.raises(ValueError, match="matching"):
            evaluator.evaluate([], [])


class TestChunks:
    def test_chunk_bounds_tile_the_voids(self, namespace):
        evaluator = StackEvaluator(namespace.base, namespace.geometry)
        bounds = [evaluator.chunk_bounds(c) for c in range(evaluator.num_chunks())]
        assert bounds[0][0] == 0
        assert bounds[-1][1] == namespace.geometry.num_voids
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_chunk_out_of_range(self, namespace):
        evaluator = StackEvaluator(namespace.base, namespace.geometry)
        with pytest.raises(IndexError, match="chunk"):
            evaluator.chunk_bounds(evaluator.num_chunks())
        with pytest.raises(IndexError, match="chunk"):
            evaluator.chunk_bounds(-1)


class TestGuards:
    def test_nonfinite_fallback_and_raise(self, serve_registry, namespace):
        evaluator = StackEvaluator(namespace.base, namespace.geometry)
        weights, values = serve_registry.hot(serve_registry.keys()[0])
        poisoned = np.array(weights, copy=True)
        poisoned[:] = np.nan
        pred, reports = evaluator.evaluate([poisoned], [values], on_nonfinite="fallback")
        assert np.isfinite(pred).all()  # degraded to nearest-neighbor values
        assert reports[0].degraded_points > 0
        with pytest.raises(NumericalHealthError):
            evaluator.evaluate([poisoned], [values], on_nonfinite="raise")

    def test_invalid_on_nonfinite(self, serve_registry, namespace):
        evaluator = StackEvaluator(namespace.base, namespace.geometry)
        weights, values = serve_registry.hot(serve_registry.keys()[0])
        with pytest.raises(ValueError, match="on_nonfinite"):
            evaluator.evaluate([weights], [values], on_nonfinite="shrug")


class TestArena:
    """The arena follows the largest live stack, not the stack sizes seen."""

    @staticmethod
    def _rows(serve_registry, k):
        keys = serve_registry.keys()
        rows = [serve_registry.hot(keys[m % len(keys)]) for m in range(k)]
        return [w for w, _ in rows], [v for _, v in rows]

    def test_memory_is_bounded_by_the_largest_stack(self, serve_registry, namespace):
        swept = StackEvaluator(namespace.base, namespace.geometry)
        for k in range(1, 9):
            swept.evaluate(*self._rows(serve_registry, k))
        direct = StackEvaluator(namespace.base, namespace.geometry)
        pred, _ = direct.evaluate(*self._rows(serve_registry, 8))
        assert swept._ws.nbytes == direct._ws.nbytes
        # ... and the history of stack sizes does not change a single bit.
        again, _ = swept.evaluate(*self._rows(serve_registry, 8))
        assert again.tobytes() == pred.tobytes()

    def test_close_releases_arena_and_columns(self, serve_registry, namespace):
        evaluator = StackEvaluator(namespace.base, namespace.geometry)
        first, _ = evaluator.evaluate(*self._rows(serve_registry, 2))
        assert evaluator._ws.nbytes > 0
        assert evaluator._model.extractor._memo.block is not None
        evaluator.close()
        assert evaluator._ws.nbytes == 0
        assert evaluator._model.extractor._memo is None
        # a closed evaluator rebuilds what it needs, bit for bit
        second, _ = evaluator.evaluate(*self._rows(serve_registry, 2))
        assert second.tobytes() == first.tobytes()

    def test_workspace_gauge_tracks_arena_bytes(self, serve_registry, namespace):
        from repro.obs.metrics import MetricsRegistry, activate, deactivate

        registry = MetricsRegistry()
        previous = activate(registry)
        try:
            evaluator = StackEvaluator(namespace.base, namespace.geometry)
            evaluator.evaluate(*self._rows(serve_registry, 3))
        finally:
            deactivate(previous)
        gauges = registry.snapshot()["gauges"]
        assert gauges["serve.engine.workspace.bytes"] == evaluator._ws.nbytes
