"""Shard-parallel campaign benchmark — domain decomposition (``BENCH_shard``).

Five runs of the same Fig 11-style campaign (pretrained FCNN, per-timestep
fine-tune + full reconstruction) over identical timesteps:

* ``pipelined``       — the unsharded PR 5 baseline: rolling Case-1
  fine-tune on the streaming scheduler + warm shm pool.  This is the
  gate's denominator ("the unsharded pipelined path").
* ``batched``         — unsharded ``batched_finetune=True`` with the
  documented Case-2 fast path (the PR 8 headline config): the bit-identity
  reference that isolates what sharding itself adds or costs.
* ``sharded-2`` / ``sharded-4`` — the tentpole: ``shards=2`` / ``4`` with
  ``shard_scope="global"`` on top of ``batched``.  Reconstruction fans out
  one task per shard chunk over the shm transport (per-shard kd-trees and
  geometry caches, halo exchange via the shared sample segment) and the
  stitcher scatters interior regions through the partition-of-unity
  permutation.  The halo is sized so ``seam_check()`` *proves* every kNN
  query resolves inside its shard — both configs must be **bit-identical**
  to ``batched``.
* ``sharded-local-4`` — ``shard_scope="local"``: one model per
  (timestep, shard), fine-tuned on its halo-extended box through one
  fused :mod:`repro.nn.batched` submission (shards x timesteps members).
  A different trajectory by design: gated on SNR parity, not bits.

Measured quantities:

* ``sharded_speedup``  — pipelined wall / sharded-4 wall (the ISSUE's
  headline: >= 1.8x on the bench profile).  Like the batched >= 2x gate
  in ``test_bench_campaign.py`` this holds on any host off ``quick``:
  the campaign rides the fused Case-2 engine (cheaper arithmetic), and
  shard fan-out must not eat that win even on one core — on multi-core
  hosts the per-shard tasks additionally run in parallel workers.
* ``shard_overhead``   — sharded-4 wall / batched wall (what the
  decomposition itself costs when it cannot parallelize).
* per-config wall clock, mean SNR, and the local-scope SNR delta.

``publish()`` writes ``results/BENCH_shard.json`` and a copy lands at the
repo root (``BENCH_shard.json``) as the commit's perf baseline.  Runs
leave :mod:`repro.obs` records under ``results/obs_shard/<config>`` so CI
can gate with::

    repro obs report benchmarks/results/obs_shard/batched \
        --diff benchmarks/results/obs_shard/sharded-4 \
        --only 'train.*' --fail-on-regression

(scope="global" sharding touches reconstruction only — the training
kernels must not dilate when the reconstruct stage fans out per shard).
"""

import shutil
import time
from pathlib import Path

import numpy as np

from conftest import RESULTS_DIR, publish
from repro.core import FCNNReconstructor, ReconstructionPipeline
from repro.datasets import make_dataset
from repro.experiments.runner import ExperimentResult
from repro.obs import RunRecorder
from repro.parallel import usable_cpus
from repro.perf.campaign import CampaignGeometry
from repro.shard import ShardPlan, ShardedCampaignGeometry, parse_shards, suggest_halo

#: grid dims per --bench-profile (mirrors test_bench_campaign.py)
SIZES = {"quick": (16, 16, 8), "bench": (36, 36, 18), "paper": (64, 64, 32)}
EPOCHS = {"quick": 3, "bench": 8, "paper": 20}
TIMESTEPS = {
    "quick": (0, 2, 4, 6),
    "bench": (0, 3, 6, 9, 12),
    "paper": (0, 2, 4, 6, 8, 10, 12, 14),
}
HIDDEN = {"quick": (32, 16), "bench": (64, 32, 16), "paper": (128, 64, 32, 16)}

FRACTION = 0.05
FINETUNE_EPOCHS = 6
CONFIGS = ("pipelined", "batched", "sharded-2", "sharded-4", "sharded-local-4")
OBS_DIRS = {name: RESULTS_DIR / "obs_shard" / name for name in CONFIGS}
REPO_ROOT = Path(__file__).resolve().parent.parent


def _exact_halo(pipeline, timestep, counts, num_neighbors):
    """The smallest stencil-suggested halo whose seams provably resolve.

    Starts at :func:`suggest_halo` (safety-padded kNN ball) and widens
    until ``seam_check`` certifies that every shard's candidate list is
    deep enough and no canonical neighbor can cross an open face — the
    precondition for the bit-identity assertions below.
    """
    geometry = CampaignGeometry.from_sample(
        pipeline.sample(pipeline.field(timestep), FRACTION)
    )
    halo = suggest_halo(num_neighbors, FRACTION)
    while halo < max(geometry.grid.dims):
        plan = ShardPlan.create(geometry.grid, counts, halo)
        if ShardedCampaignGeometry(plan, geometry).seam_check(num_neighbors).exact:
            return halo
        halo += 2
    return max(geometry.grid.dims)  # every ext box spans the grid: trivially exact


def _run(pipeline, base, timesteps, *, name, profile, halo):
    obs_dir = OBS_DIRS[name]
    shutil.rmtree(obs_dir, ignore_errors=True)
    sharded = name.startswith("sharded")
    kwargs = {}
    if sharded:
        kwargs = dict(
            shards=int(name.rsplit("-", 1)[1]),
            halo=halo,
            shard_scope="local" if "-local-" in name else "global",
        )
    batched = name != "pipelined"
    with RunRecorder(obs_dir, meta={"config": name, "profile": profile}):
        result = pipeline.run_campaign(
            base.clone(),
            timesteps,
            FRACTION,
            finetune_epochs=FINETUNE_EPOCHS,
            finetune_strategy="last" if batched else "full",
            batched_finetune=batched,
            pipeline=True,
            warm_pool=True,
            **kwargs,
        )
    assert all(row["degraded_points"] == 0 for row in result.rows)
    drop = ("finetune_seconds", "degraded_points")
    rows = [{k: v for k, v in row.items() if k not in drop} for row in result.rows]
    return {
        "rows": rows,
        "volumes": result.reconstructions,
        "finetune_s": result.finetune_seconds,
    }


def test_shard_campaign(benchmark, bench_profile):
    profile = bench_profile
    timesteps = TIMESTEPS[profile]
    data = make_dataset("combustion", dims=SIZES[profile], seed=0)
    pipeline = ReconstructionPipeline(
        data, train_fractions=(0.01, 0.05), keep_reconstructions=True
    )
    base = FCNNReconstructor(hidden_layers=HIDDEN[profile], batch_size=4096, seed=0)
    pipeline.train_fcnn(base, timestep=timesteps[0], epochs=EPOCHS[profile])
    # One proven-exact halo sized for the finest decomposition (4 shards);
    # coarser decompositions of the same grid can only have fewer seams.
    halo = _exact_halo(pipeline, timesteps[0], parse_shards(4), base.extractor.num_neighbors)

    def run():
        out = {}
        for name in CONFIGS:
            t0 = time.perf_counter()
            out[name] = _run(
                pipeline, base, timesteps, name=name, profile=profile, halo=halo
            )
            out[name]["wall_s"] = time.perf_counter() - t0
        # Second timing sweep, keeping the per-config minimum: every config
        # is deterministic (the bit-identity asserts below depend on it), so
        # the only thing a repeat measures is host noise — and the speedup
        # gates sit close enough to it that a single ordered sweep can tip
        # them either way on a busy box.  min-of-two also debiases slow
        # drift that penalizes whichever config happens to run last.
        for name in CONFIGS:
            t0 = time.perf_counter()
            _run(pipeline, base, timesteps, name=name, profile=profile, halo=halo)
            out[name]["wall_s"] = min(out[name]["wall_s"], time.perf_counter() - t0)
        return out

    # One warmup round: first-touch shm segments, per-shard kd-trees and
    # the batched engine's slab allocations would otherwise be billed to
    # whichever config runs first.
    runs = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=1)
    pipelined, batched = runs["pipelined"], runs["batched"]
    sharded4, local4 = runs["sharded-4"], runs["sharded-local-4"]

    # --- bit-exactness (strict on every profile) --------------------------
    # scope="global" sharding is a pure reconstruction-transport change:
    # with a seam-proven halo, any shard count is bit-identical to the
    # unsharded batched campaign (scores are floats, so dict equality
    # means bit-equal; volumes compare raw bytes).
    for name in ("sharded-2", "sharded-4"):
        assert runs[name]["rows"] == batched["rows"], f"{name} scores drifted"
        for t, mine, theirs in zip(timesteps, runs[name]["volumes"], batched["volumes"]):
            assert mine.tobytes() == theirs.tobytes(), f"{name} t={t} not bit-identical"
    # scope="local" is a different trajectory: finite everywhere, SNR parity.
    assert all(np.isfinite(v).all() for v in local4["volumes"])
    snr_deltas = [
        abs(mine["snr"] - theirs["snr"])
        for mine, theirs in zip(local4["rows"], batched["rows"])
    ]
    assert [r["timestep"] for r in sharded4["rows"]] == list(timesteps)
    assert len(pipelined["volumes"]) == len(timesteps) >= 4

    # --- speedups ---------------------------------------------------------
    sharded_speedup = pipelined["wall_s"] / sharded4["wall_s"]
    sharded2_speedup = pipelined["wall_s"] / runs["sharded-2"]["wall_s"]
    shard_overhead = sharded4["wall_s"] / batched["wall_s"]

    rows = []
    for name in CONFIGS:
        rows.append(
            {
                "config": name,
                "wall_s": round(runs[name]["wall_s"], 4),
                "finetune_s": round(runs[name]["finetune_s"], 4),
                "speedup_vs_pipelined": round(
                    pipelined["wall_s"] / runs[name]["wall_s"], 2
                ),
                "bit_identical_to_batched": name in ("batched", "sharded-2", "sharded-4"),
                "mean_snr": round(
                    float(np.mean([r["snr"] for r in runs[name]["rows"]])), 4
                ),
            }
        )
    result = ExperimentResult(
        experiment="shard",
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
            "halo": halo,
            "seam_proven_exact": True,
            "sharded_speedup": round(sharded_speedup, 3),
            "sharded2_speedup": round(sharded2_speedup, 3),
            "shard_overhead_vs_batched": round(shard_overhead, 3),
            "local_scope_max_snr_delta_db": round(max(snr_deltas), 4),
            "target": "sharded_speedup (pipelined/sharded-4) >= 1.8x on bench profile",
        },
    )
    publish(result)
    # the commit's shard perf baseline lives at the repo root
    shutil.copyfile(RESULTS_DIR / "BENCH_shard.json", REPO_ROOT / "BENCH_shard.json")

    # --- gates (off-quick: quick sizes measure harness noise) -------------
    if profile != "quick":
        assert sharded_speedup >= 1.8, (
            f"sharded campaign speedup {sharded_speedup:.2f}x < 1.8x "
            f"(pipelined {pipelined['wall_s']:.2f}s vs sharded-4 "
            f"{sharded4['wall_s']:.2f}s on {usable_cpus()} core(s))"
        )
        # The decomposition must stay cheap even where it cannot overlap:
        # per-shard trees + chunk fan-out may cost at most 50% over the
        # unsharded batched run on any host.
        assert shard_overhead <= 1.5, (
            f"shard fan-out overhead {shard_overhead:.2f}x over batched"
        )
        # Local scope holds SNR parity with the from-base trajectory.
        assert max(snr_deltas) <= 0.25, (
            f"local-scope SNR drifted {max(snr_deltas):.3f} dB from unsharded"
        )
