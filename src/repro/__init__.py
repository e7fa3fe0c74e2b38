"""repro — reproduction of "Filling the Void" (Biswas et al., SC 2024).

Data-driven machine-learning reconstruction of aggressively sampled
spatiotemporal scientific simulation data, plus every substrate the paper
depends on: synthetic simulation datasets, multi-criteria importance
sampling, classical point-cloud interpolators, a numpy neural-network
engine, VTK XML I/O, metrics, a parallel-execution layer and an experiment
harness regenerating every table and figure in the paper's evaluation.

Beyond the paper's surface, the repo carries its own production substrate:
``repro.resilience`` (checkpoint/resume, health guards, fault injection),
``repro.obs`` (span timers, metrics, JSONL run records — see
``docs/OBSERVABILITY.md``), ``repro.checks`` (AST static analysis of the
numerical invariants), plus ``repro.vis``/``repro.analysis`` evaluation
consumers, ``repro.compression`` (the competing reduction path) and
``repro.insitu`` campaign simulation.  ``docs/API.md`` tours every package
with a runnable example.

Quickstart::

    from repro.datasets import HurricaneDataset
    from repro.sampling import MultiCriteriaSampler
    from repro.core import FCNNReconstructor
    from repro.metrics import snr

    data = HurricaneDataset(grid=HurricaneDataset.default_grid().with_resolution((60, 60, 16)))
    field = data.field(t=0)
    sampler = MultiCriteriaSampler(seed=7)
    train = [sampler.sample(field, 0.01), sampler.sample(field, 0.05)]

    model = FCNNReconstructor(hidden_layers=(64, 32, 16))
    model.train(field, train, epochs=40)

    test = sampler.sample(field, 0.02)
    volume = model.reconstruct(test)
    print("SNR:", snr(field.values, volume))
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "checks",
    "compression",
    "core",
    "datasets",
    "experiments",
    "grid",
    "insitu",
    "interpolation",
    "io",
    "metrics",
    "nn",
    "obs",
    "parallel",
    "resilience",
    "sampling",
    "serve",
    "vis",
]
