"""Which library calls the tracer wraps, and how their tables become metrics.

Every wrapped call is a public entry into one ``repro`` module, named
``<layer>.<call>`` after that module; the per-layer table reports its
``.calls`` and ``.self_s``.  Dense layers are named per weight shape
(``nn.dense.23x128.fwd``), which is where a kernel change would show.
``features.knn`` wraps ``FeatureExtractor._neighbor_indices``, the only
kd-tree query entry.  ``metrics.score`` wraps ``score_reconstruction`` as
bound in ``repro.core.pipeline``, the name the campaign calls.
"""

from __future__ import annotations

import importlib
import os

__all__ = ["DENSE_SHAPES", "delta", "install", "layer_metrics"]

#: Weight shapes of the benchmark's network: 23 kNN features -> hidden
#: (128, 64, 32, 16) -> 4 outputs (value + gradient).
DENSE_SHAPES = ("23x128", "128x64", "64x32", "32x16", "16x4")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _dense(prefix: str, direction: str):
    def name(args):
        layer = args[0]
        return f"{prefix}.{layer.in_features}x{layer.out_features}.{direction}"

    return name


def _knn_rows(args, kwargs, result):
    yield "features.knn.rows", len(_arg(args, kwargs, 2, "query_points"))


def _trainer_rows(args, kwargs, result):
    x = _arg(args, kwargs, 1, "x")
    yield "nn.trainer.rows", len(x) * int(_arg(args, kwargs, 3, "epochs"))


def _stack_members(args, kwargs, result):
    yield "nn.batched.trainer.members", len(_arg(args, kwargs, 1, "x"))


def _bytes_written(args, kwargs, result):
    yield "io.bytes", os.path.getsize(_arg(args, kwargs, 1, "path"))


#: (module, class or None for a module function, attribute, name, counter)
TARGETS = (
    ("repro.datasets.base", "AnalyticDataset", "field", "datasets.field", None),
    ("repro.sampling.base", "Sampler", "sample", "sampling.sample", None),
    ("repro.core.features", "FeatureExtractor", "_neighbor_indices", "features.knn", _knn_rows),
    ("repro.core.features", "FeatureExtractor", "features", "features.features", None),
    ("repro.core.features", "FeatureExtractor", "features_into", "features.features_into", None),
    ("repro.core.features", "FeatureExtractor", "targets", "features.targets", None),
    ("repro.nn.layers", "Dense", "forward", _dense("nn.dense", "fwd"), None),
    ("repro.nn.layers", "Dense", "backward", _dense("nn.dense", "bwd"), None),
    ("repro.nn.layers", "ReLU", "forward", "nn.relu.fwd", None),
    ("repro.nn.layers", "ReLU", "backward", "nn.relu.bwd", None),
    ("repro.nn.optimizers", "Adam", "step", "nn.adam.step", None),
    ("repro.nn.training", "Trainer", "fit", "nn.trainer.fit", _trainer_rows),
    ("repro.nn.batched.stack", "StackedDense", "forward", _dense("nn.batched.dense", "fwd"), None),
    ("repro.nn.batched.stack", "StackedDense", "backward", _dense("nn.batched.dense", "bwd"), None),
    ("repro.nn.batched.stack", "StackedReLU", "forward", "nn.batched.relu.fwd", None),
    ("repro.nn.batched.stack", "StackedReLU", "backward", "nn.batched.relu.bwd", None),
    ("repro.nn.batched.stack", "ModelStack", "forward", "nn.batched.stack.forward", None),
    ("repro.nn.batched.optimizers", "BatchedAdam", "step", "nn.batched.adam.step", None),
    ("repro.nn.batched.trainer", "BatchedTrainer", "fit", "nn.batched.trainer.fit", _stack_members),
    ("repro.core.reconstructor", "FCNNReconstructor", "train", "reconstructor.train", None),
    ("repro.core.reconstructor", "FCNNReconstructor", "fine_tune", "reconstructor.fine_tune", None),
    ("repro.core.reconstructor", "FCNNReconstructor", "fine_tune_batch", "reconstructor.fine_tune_batch", None),
    ("repro.core.reconstructor", "FCNNReconstructor", "reconstruct", "reconstructor.reconstruct", None),
    ("repro.core.reconstructor", "FCNNReconstructor", "predict_values", "reconstructor.predict_values", None),
    ("repro.perf.campaign", "GeometryCache", "get", "campaign.geometry.get", None),
    ("repro.perf.campaign", "WarmReconstructionPool", "publish", "campaign.pool.publish", None),
    ("repro.perf.campaign", "WarmReconstructionPool", "reconstruct", "campaign.pool.reconstruct", None),
    ("repro.perf.campaign", "LocalReconstructionSink", "publish", "campaign.local.publish", None),
    ("repro.perf.campaign", "LocalReconstructionSink", "reconstruct", "campaign.local.reconstruct", None),
    ("repro.core.pipeline", None, "score_reconstruction", "metrics.score", None),
    ("repro.resilience.journal", "CampaignJournal", "record", "journal.record", None),
    ("repro.resilience.journal", "CampaignJournal", "save_state", "journal.save_state", None),
    ("repro.sampling.base", "SampledField", "to_vtp", "io.to_vtp", _bytes_written),
    ("repro.serve.service", "ReconstructionServer", "submit", "serve.submit", None),
    ("repro.serve.registry", "ModelRegistry", "hot", "serve.registry.hot", None),
    ("repro.serve.engine", "StackEvaluator", "evaluate", "serve.evaluate", None),
)

#: Wrapped names reported as ``.calls`` + ``.self_s`` (per-shape Dense
#: names are folded into ``.fwd``/``.bwd`` call counts instead).
_CALL_NAMES = tuple(t[3] for t in TARGETS if isinstance(t[3], str))
#: Wrapped names whose call count is implied by a sibling (ReLU runs once
#: per Dense) and that report self time only.
_SELF_ONLY = ("nn.relu.fwd", "nn.relu.bwd", "nn.batched.relu.fwd", "nn.batched.relu.bwd")
_COUNTS = ("features.knn.rows", "nn.trainer.rows", "nn.batched.trainer.members", "io.bytes")


def install(tracer) -> None:
    """Wrap every target (call once per process, before the measured job)."""
    for module_name, owner_name, attr, name, count in TARGETS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        tracer.wrap(owner, attr, name, count)


def layer_metrics(merged: dict, units: int) -> dict[str, float]:
    """Per-unit layer metrics from a tracer's merged tables."""
    calls, self_s, counts = merged["calls"], merged["self_s"], merged["counts"]
    out: dict[str, float] = {}
    for name in _CALL_NAMES:
        if name not in _SELF_ONLY:
            out[f"{name}.calls"] = calls.get(name, 0) / units
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / units
    for prefix in ("nn.dense", "nn.batched.dense"):
        for direction in ("fwd", "bwd"):
            total = 0
            for shape in DENSE_SHAPES:
                key = f"{prefix}.{shape}.{direction}"
                total += calls.get(key, 0)
                out[f"{key}.self_s"] = self_s.get(key, 0.0) / units
            out[f"{prefix}.{direction}.calls"] = total / units
    for name in _COUNTS:
        out[name] = counts.get(name, 0) / units
    return out


def delta(before: dict, after: dict) -> dict:
    """``after - before`` for every table of :meth:`Tracer.merged`."""
    return {
        field: {key: value - before[field].get(key, 0) for key, value in table.items()}
        for field, table in after.items()
    }
