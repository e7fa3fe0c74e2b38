"""Streaming campaign benchmark — batched fine-tune vs serial loops (``BENCH_campaign``).

Five implementations of the same Fig 11-style campaign (pretrained FCNN,
per-timestep fine-tune + full reconstruction) run over identical
timesteps:

* ``legacy``    — the pre-PR per-timestep loop: ``copy.deepcopy`` of the
  model, a fresh :class:`SampledField` every step (kd-tree, neighbor
  indices and void geometry recomputed from scratch), in-process serial
  reconstruction, Case-1 rolling fine-tune.
* ``serial``    — :meth:`ReconstructionPipeline.run_campaign` with
  ``pipeline=False, warm_pool=False``: shared campaign geometry and
  snapshot/restore instead of deepcopy, but no stage overlap and no
  worker pool.
* ``pipelined`` — ``pipeline=True, warm_pool=True``: the full streaming
  scheduler (prefetch / fine-tune / reconstruct overlapped) on the
  persistent shared-memory worker pool.
* ``batched-serial`` / ``batched`` — ``batched_finetune=True``: every
  timestep fine-tunes from the pretrained base with the Case-2 fast path
  (``finetune_strategy="last"``: the frozen prefix runs once per fit —
  see docs/TRAINING.md).
  The ``-serial`` variant pins ``pipeline=False, warm_pool=False``; the
  headline config adds the streaming scheduler + warm pool on top.

Bit-identity is asserted strictly on every profile along two seams:

* ``legacy`` == ``serial`` == ``pipelined`` (the rolling trajectory);
* ``batched-serial`` == ``batched`` (the from-base trajectory is
  invariant to pipelining, the warm pool and fine-tune block size).

Measured quantities:

* ``end_to_end_speedup``   — legacy wall / batched wall (the ISSUE's
  headline: >= 2x on the bench profile, **single core included** — the
  win comes from the from-base Case-2 schedule and its frozen-prefix
  cache, not from overlap);
* ``pipelined_speedup``    — legacy wall / pipelined wall (the PR 5
  headline, still gated >= 2x on multi-core hosts);
* ``overhead_speedup``     — legacy/pipelined after subtracting
  fine-tune time (what the scheduler + caches alone optimize);
* stage occupancies from :class:`repro.perf.CampaignStats`.

``publish()`` writes ``results/BENCH_campaign.json`` and a copy lands at
the repo root (``BENCH_campaign.json``) as the commit's perf baseline.
Campaign runs leave :mod:`repro.obs` run records under
``results/obs_campaign/{serial,pipelined,batched-serial,batched}`` so CI
can gate with::

    repro obs report benchmarks/results/obs_campaign/batched-serial \
        --diff benchmarks/results/obs_campaign/batched --fail-on-regression

(pipelining the from-base fine-tunes must never be a >20% span regression
over their serial schedule; same contract as the serial/pipelined pair).

Speed assertions are hardware-honest where they must be: the pipelined
>= 2x gate still needs >= 2 effective cores (a single core cannot
overlap anything), but the batched >= 2x gate holds on any host off the
``quick`` profile — running the frozen prefix once per fit and skipping
its backprop is cheaper arithmetic, not parallelism.
"""

import copy
import shutil
import time
from pathlib import Path

import numpy as np

from conftest import RESULTS_DIR, publish
from repro.core import FCNNReconstructor, ReconstructionPipeline
from repro.datasets import make_dataset
from repro.experiments.runner import ExperimentResult
from repro.metrics import score_reconstruction
from repro.obs import RunRecorder
from repro.parallel import usable_cpus
from repro.sampling import SampledField

#: grid dims per --bench-profile
SIZES = {"quick": (16, 16, 8), "bench": (36, 36, 18), "paper": (64, 64, 32)}
#: pretraining epochs (campaign fine-tuning always uses FINETUNE_EPOCHS)
EPOCHS = {"quick": 3, "bench": 8, "paper": 20}
#: the Fig 11-style timestep stream (>= 4 stored steps on every profile)
TIMESTEPS = {
    "quick": (0, 2, 4, 6),
    "bench": (0, 3, 6, 9, 12),
    "paper": (0, 2, 4, 6, 8, 10, 12, 14),
}
HIDDEN = {"quick": (32, 16), "bench": (64, 32, 16), "paper": (128, 64, 32, 16)}

FRACTION = 0.05
#: per-timestep fine-tune budget.  2 epochs (the pre-batched value) is so
#: small that fixed per-campaign costs dominate every config; 6 keeps the
#: bench minutes-scale while weighting fine-tune realistically (the paper
#: runs Case 1 at ~10 epochs and Case 2 at 300-500).
FINETUNE_EPOCHS = 6
CONFIGS = ("legacy", "serial", "pipelined", "batched-serial", "batched")
OBS_DIRS = {
    name: RESULTS_DIR / "obs_campaign" / name for name in CONFIGS if name != "legacy"
}
REPO_ROOT = Path(__file__).resolve().parent.parent


def _legacy_campaign(pipeline, base, timesteps):
    """The pre-PR per-timestep loop (deepcopy + cold geometry every step)."""
    model = copy.deepcopy(base)
    sample0 = pipeline.sample(pipeline.field(timesteps[0]), FRACTION)
    rows, volumes, finetune_s = [], [], 0.0
    for t in timesteps:
        fld = pipeline.field(t)
        train = [pipeline.sample(fld, f) for f in pipeline.train_fractions]
        history = model.fine_tune(fld, train, epochs=FINETUNE_EPOCHS, strategy="full")
        finetune_s += history.total_seconds
        # fresh SampledField per step: void geometry, kd-tree and neighbor
        # indices all recomputed — exactly what CampaignGeometry now amortizes
        sample = SampledField(
            grid=fld.grid,
            indices=sample0.indices.copy(),
            values=fld.values.ravel()[sample0.indices],
            fraction=FRACTION,
            timestep=t,
        )
        volume = model.reconstruct(sample)
        rows.append({"timestep": t, **score_reconstruction(fld.values, volume).as_dict()})
        volumes.append(volume)
    return {"rows": rows, "volumes": volumes, "finetune_s": finetune_s}


def _run_campaign(pipeline, base, timesteps, *, name, obs_dir, profile):
    shutil.rmtree(obs_dir, ignore_errors=True)
    batched = name.startswith("batched")
    overlapped = name in ("pipelined", "batched")
    with RunRecorder(obs_dir, meta={"config": name, "profile": profile}):
        result = pipeline.run_campaign(
            base.clone(),
            timesteps,
            FRACTION,
            finetune_epochs=FINETUNE_EPOCHS,
            # Batched configs run the documented Case-2 fast path (frozen
            # prefix + activation cache); the rolling trio keeps Case 1.
            finetune_strategy="last" if batched else "full",
            batched_finetune=batched,
            pipeline=overlapped,
            warm_pool=overlapped,
        )
    # keep only the deterministic score columns (the legacy loop has no
    # wall-clock column, and bit-identity implies zero degraded points)
    assert all(row["degraded_points"] == 0 for row in result.rows)
    drop = ("finetune_seconds", "degraded_points")
    rows = [{k: v for k, v in row.items() if k not in drop} for row in result.rows]
    return {
        "rows": rows,
        "volumes": result.reconstructions,
        "finetune_s": result.finetune_seconds,
        "stats": result.stats,
    }


def test_campaign_pipeline(benchmark, bench_profile):
    profile = bench_profile
    timesteps = TIMESTEPS[profile]
    data = make_dataset("combustion", dims=SIZES[profile], seed=0)
    pipeline = ReconstructionPipeline(
        data, train_fractions=(0.01, 0.05), keep_reconstructions=True
    )
    base = FCNNReconstructor(hidden_layers=HIDDEN[profile], batch_size=4096, seed=0)
    pipeline.train_fcnn(base, timestep=timesteps[0], epochs=EPOCHS[profile])

    def run():
        out = {}
        for name in CONFIGS:
            t0 = time.perf_counter()
            if name == "legacy":
                out[name] = _legacy_campaign(pipeline, base, timesteps)
            else:
                out[name] = _run_campaign(
                    pipeline,
                    base,
                    timesteps,
                    name=name,
                    obs_dir=OBS_DIRS[name],
                    profile=profile,
                )
            out[name]["wall_s"] = time.perf_counter() - t0
        return out

    # One warmup round: the first batched fine-tune pays one-time allocator
    # and BLAS warmup for its (K, N, width) slabs, which would otherwise be
    # billed to whichever config happens to run first.
    runs = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)
    legacy, pipelined, batched = runs["legacy"], runs["pipelined"], runs["batched"]

    # --- bit-exactness (strict on every profile) --------------------------
    # Scores are floats, so dict equality means bit-equal; volumes are
    # compared on raw bytes.  Two seams: the rolling trajectory must be
    # untouched by this PR, and the from-base trajectory must be invariant
    # to the scheduler, the warm pool and the fine-tune block size.
    scores = [{k: v for k, v in row.items() if k != "timestep"} for row in legacy["rows"]]
    for name in ("serial", "pipelined"):
        assert runs[name]["rows"] == legacy["rows"], f"{name} scores drifted from legacy"
        for t, mine, theirs in zip(timesteps, runs[name]["volumes"], legacy["volumes"]):
            assert mine.tobytes() == theirs.tobytes(), f"{name} t={t} not bit-identical"
    assert batched["rows"] == runs["batched-serial"]["rows"], (
        "batched scores drifted from the batched-serial schedule"
    )
    for t, mine, theirs in zip(
        timesteps, batched["volumes"], runs["batched-serial"]["volumes"]
    ):
        assert mine.tobytes() == theirs.tobytes(), f"batched t={t} not bit-identical"
    # From-base Case 2 is a *different* trajectory than rolling Case 1 —
    # same stream, same scoring, finite output everywhere.
    assert [r["timestep"] for r in batched["rows"]] == list(timesteps)
    assert len(legacy["volumes"]) == len(timesteps) >= 4
    for name in ("legacy", "batched"):
        assert all(np.isfinite(v).all() for v in runs[name]["volumes"])

    # --- speedups ---------------------------------------------------------
    end_to_end = legacy["wall_s"] / batched["wall_s"]
    pipelined_speedup = legacy["wall_s"] / pipelined["wall_s"]
    serial_vs_pipelined = runs["serial"]["wall_s"] / pipelined["wall_s"]
    overhead = {n: runs[n]["wall_s"] - runs[n]["finetune_s"] for n in runs}
    overhead_speedup = overhead["legacy"] / max(overhead["pipelined"], 1e-9)
    stats = batched["stats"]

    rows = []
    for name in CONFIGS:
        rows.append(
            {
                "config": name,
                "wall_s": round(runs[name]["wall_s"], 4),
                "finetune_s": round(runs[name]["finetune_s"], 4),
                "overhead_s": round(overhead[name], 4),
                "speedup_vs_legacy": round(legacy["wall_s"] / runs[name]["wall_s"], 2),
                "bit_identical": True,
                "mean_snr": round(
                    float(np.mean([r["snr"] for r in runs[name]["rows"]])), 4
                ),
            }
        )
    result = ExperimentResult(
        experiment="campaign",
        rows=rows,
        series={"wall_s": {r["config"]: r["wall_s"] for r in rows}},
        notes={
            "profile": profile,
            "dims": "x".join(str(d) for d in SIZES[profile]),
            "timesteps": list(timesteps),
            "fraction": FRACTION,
            "finetune_epochs": FINETUNE_EPOCHS,
            "hidden_layers": HIDDEN[profile],
            "effective_cores": usable_cpus(),
            "end_to_end_speedup": round(end_to_end, 3),
            "pipelined_speedup": round(pipelined_speedup, 3),
            "serial_vs_pipelined_speedup": round(serial_vs_pipelined, 3),
            "overhead_speedup": round(overhead_speedup, 3),
            "occupancy": {
                "prefetch": round(stats.occupancy("prefetch"), 3),
                "finetune": round(stats.occupancy("process"), 3),
                "reconstruct": round(stats.occupancy("emit"), 3),
            },
            "batched": {
                "strategy": "last",
                "identical_to": "batched-serial",
                "mean_snr_legacy": round(float(np.mean([r["snr"] for r in scores])), 4),
            },
            "target": "end_to_end_speedup (legacy/batched) >= 2x on bench profile, any core count",
        },
    )
    publish(result)
    # the commit's campaign perf baseline lives at the repo root
    shutil.copyfile(RESULTS_DIR / "BENCH_campaign.json", REPO_ROOT / "BENCH_campaign.json")

    # --- speed (hardware-honest gates) ------------------------------------
    # quick-profile sizes measure harness noise, so gates apply off-quick
    # only.  The batched gate has no core-count condition: the from-base
    # Case-2 schedule and its prefix cache are cheaper arithmetic, not
    # parallelism.  The pipelined overlap gate still needs real cores.
    if profile != "quick":
        assert end_to_end >= 2.0, (
            f"end-to-end campaign speedup {end_to_end:.2f}x < 2x "
            f"(legacy {legacy['wall_s']:.2f}s vs batched {batched['wall_s']:.2f}s)"
        )
        # On one core the scheduler threads have nothing to overlap into,
        # so pipelined == legacy work + handoff noise; allow that noise.
        floor = 1.0 if usable_cpus() >= 2 else 0.9
        assert pipelined_speedup >= floor, (
            f"pipelined slower than legacy ({pipelined_speedup:.2f}x < {floor}x)"
        )
        if usable_cpus() >= 2:
            assert pipelined_speedup >= 2.0, (
                f"pipelined campaign speedup {pipelined_speedup:.2f}x < 2x "
                f"on {usable_cpus()} cores"
            )
