"""A poisoned model degrades the same way on every reconstruction route.

Offline ``reconstruct``, the campaign sinks (in process and the warm pool)
and the serving evaluator send non-finite predictions through one
nearest-sample fallback: the same volume, the same degraded points, the
same ``reconstruct.fcnn.fallback`` increment and the same errors.
"""

from __future__ import annotations

import pytest

from repro.core import FCNNReconstructor
from repro.datasets import HurricaneDataset
from repro.grid import UniformGrid
from repro.obs import counter
from repro.obs.metrics import MetricsRegistry, activate, deactivate
from repro.perf.campaign import CampaignGeometry, LocalReconstructionSink, WarmReconstructionPool
from repro.perf.weights import snapshot_weights
from repro.resilience import NumericalHealthError
from repro.resilience.faults import poison_parameters
from repro.sampling import MultiCriteriaSampler
from repro.serve import StackEvaluator

ROUTES = ("offline", "local", "pool", "serve")


@pytest.fixture(scope="module")
def poisoned():
    grid = UniformGrid((12, 10, 8), spacing=(1.0, 2.0, 0.5), origin=(-1.0, 3.0, 0.0))
    field = HurricaneDataset(grid=grid, seed=0).field(t=0)
    sample = MultiCriteriaSampler(seed=3).sample(field, 0.05)
    model = FCNNReconstructor(hidden_layers=(8,), batch_size=256, seed=0)
    model.train(field, sample, epochs=1)
    poison_parameters(model.model, target="head")  # every prediction is NaN
    return sample, model


def _reconstruct(route: str, sample, model, on_nonfinite: str):
    """``(volume, report)`` of ``sample`` through one route."""
    if route == "offline":
        return model.reconstruct(sample, on_nonfinite=on_nonfinite, return_report=True)
    geometry = CampaignGeometry.from_sample(sample)
    flat = snapshot_weights(model.model).data
    if route == "serve":
        evaluator = StackEvaluator(model, geometry)
        pred, reports = evaluator.evaluate([flat], [sample.values], on_nonfinite=on_nonfinite)
        return evaluator.assemble(sample.values, pred[0]), reports[0]
    sink = LocalReconstructionSink() if route == "local" else WarmReconstructionPool(max_workers=1)
    with sink:
        try:
            sink.bind(geometry, {"fcnn": model})
        except OSError:
            pytest.skip("shared memory unavailable on this host")
        slot = sink.publish(0, sample.values, {"fcnn": flat})
        return sink.reconstruct(slot, "fcnn", on_nonfinite=on_nonfinite)


def _degrade(route: str, sample, model):
    """Volume bytes, degraded points and fallback-counter increment of one route."""
    previous = activate(MetricsRegistry())
    try:
        volume, report = _reconstruct(route, sample, model, "fallback")
        return volume.tobytes(), report.degraded_points, counter("reconstruct.fcnn.fallback").value
    finally:
        deactivate(previous)


@pytest.mark.parametrize("route", ROUTES[1:])
def test_fallback_matches_offline(poisoned, route):
    sample, model = poisoned
    voids = len(sample.void_indices())
    offline = _degrade("offline", sample, model)
    assert offline[1:] == (voids, voids)
    assert _degrade(route, sample, model) == offline


@pytest.mark.parametrize("route", ROUTES)
def test_raise_gives_the_same_error(poisoned, route):
    sample, model = poisoned
    voids = len(sample.void_indices())
    with pytest.raises(NumericalHealthError) as excinfo:
        _reconstruct(route, sample, model, "raise")
    assert str(excinfo.value) == (
        f"FCNN produced {voids}/{voids} non-finite predictions; "
        "the model state is numerically poisoned"
    )


@pytest.mark.parametrize("route", ROUTES)
def test_invalid_on_nonfinite_is_a_value_error(poisoned, route):
    with pytest.raises(ValueError, match="on_nonfinite must be 'fallback' or 'raise', got 'skip'"):
        _reconstruct(route, *poisoned, "skip")
