"""Command-line entry point.

Two command families (``repro ...`` or ``python -m repro ...``):

**Experiments** — regenerate any table/figure of the paper::

    repro list
    repro fig9 --profile bench
    repro all --profile quick

**Data tools** — the paper's file workflow on VTK XML volumes::

    repro generate hurricane out.vti --dims 40 40 12
    repro sample out.vti cloud.vtp --fraction 0.01
    repro train out.vti model.npz --epochs 150 --checkpoint ckpt.npz
    repro train out.vti model.npz --epochs 150 --checkpoint ckpt.npz --resume
    repro reconstruct cloud.vtp out.vti recon.vti --method fcnn --model model.npz
    repro evaluate out.vti recon.vti
    repro render recon.vti view.pgm --mode mip

**Static analysis** — enforce the repo's numerical-correctness invariants::

    repro check src/repro
    repro check src/repro --format json --baseline .repro-checks-baseline.json

**Serving** — registry-backed reconstruction-as-a-service (``repro.serve``)::

    repro serve build registry/ --dataset combustion --timesteps 0 1 2 3
    repro serve ls registry/
    repro replay registry/ --requests 10000 --report stats.json

**Observability** — record and inspect run telemetry (``repro.obs``)::

    repro fig10 --profile quick --obs runs/          # instrumented experiment
    repro train vol.vti m.npz --obs runs/train       # instrumented tool run
    repro obs report runs/fig10                      # span tree + metrics
    repro obs report runs/fig10 --diff runs/fig10-b  # regression diff
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.config import PROFILES, get_config
from repro.resilience import CheckpointCorruptionError

__all__ = ["main"]

_TOOL_COMMANDS = ("generate", "sample", "train", "reconstruct", "evaluate", "render", "campaign")


def _runners() -> dict[str, tuple[str, callable]]:
    from repro.experiments import (
        exp_compression,
        exp_feature_preservation,
        exp_finetune_cases,
        exp_gradient_ablation,
        exp_layers,
        exp_loss_curves,
        exp_samplers,
        exp_sampling_quality,
        exp_schedules,
        exp_sampling_time,
        exp_timesteps,
        exp_train_mix,
        exp_training_subset,
        exp_training_time,
        exp_uncertainty,
        exp_upscaling,
    )

    return {
        "fig5": ("Case 1 vs Case 2 fine-tuning", exp_finetune_cases.run),
        "fig6": ("SNR vs hidden-layer count", exp_layers.run),
        "fig7": ("training sampling-percentage mix", exp_train_mix.run),
        "fig8": ("gradient-output ablation", exp_gradient_ablation.run),
        "fig9": ("SNR vs sampling percentage, all methods", exp_sampling_quality.run),
        "fig10": ("reconstruction time vs sampling percentage", exp_sampling_time.run),
        "fig11": ("quality across timesteps", exp_timesteps.run),
        "fig12": ("loss curves: full training vs fine-tuning", exp_loss_curves.run),
        "fig13": ("volume upscaling across domains", exp_upscaling.run),
        "fig14": ("training-set sub-sampling (also Table II)", exp_training_subset.run),
        "tab1": ("training time per dataset/resolution", exp_training_time.run),
        "tab2": ("alias of fig14", exp_training_subset.run),
        "ext-features": ("extension: isosurface/feature preservation", exp_feature_preservation.run),
        "ext-uncertainty": ("extension: deep-ensemble uncertainty", exp_uncertainty.run),
        "ext-samplers": ("extension: sampling-strategy ablation", exp_samplers.run),
        "ext-compression": ("extension: sampling vs lossy compression at equal storage", exp_compression.run),
        "ext-schedules": ("extension: learning-rate-schedule ablation", exp_schedules.run),
    }


def _tool_main(argv: list[str]) -> int:
    """Dispatcher for the file-based data tools."""
    from repro import tools

    parser = argparse.ArgumentParser(prog="repro", description="VTK-file workflow tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset timestep as .vti")
    p.add_argument("dataset")
    p.add_argument("output")
    p.add_argument("--dims", type=int, nargs=3, default=None)
    p.add_argument("--timestep", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sample", help="reduce a .vti to a sampled .vtp point cloud")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--sampler", default="multicriteria", choices=sorted(tools.SAMPLERS))
    p.add_argument("--array", default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train an FCNN from a full-resolution .vti")
    p.add_argument("input")
    p.add_argument("model_out")
    p.add_argument("--fractions", type=float, nargs="+", default=[0.01, 0.05])
    p.add_argument("--sampler", default="multicriteria", choices=sorted(tools.SAMPLERS))
    p.add_argument("--array", default=None)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--hidden", type=int, nargs="+", default=[128, 64, 32, 16])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None,
                   help="write training checkpoints here (.npz)")
    p.add_argument("--checkpoint-every", type=int, default=25,
                   help="epochs between checkpoints (default 25)")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted run from --checkpoint")
    p.add_argument("--health-policy", default="rollback",
                   choices=["raise", "skip_batch", "rollback", ""],
                   help="NaN/Inf guard policy ('' disables; default rollback)")
    p.add_argument("--obs", default=None, metavar="DIR",
                   help="record run telemetry under DIR (repro obs report DIR)")

    p = sub.add_parser("reconstruct", help="rebuild a .vti from a .vtp cloud")
    p.add_argument("input")
    p.add_argument("reference")
    p.add_argument("output")
    p.add_argument("--method", default="linear")
    p.add_argument("--model", default=None)
    p.add_argument("--array", default="scalar")
    p.add_argument("--obs", default=None, metavar="DIR",
                   help="record run telemetry under DIR (repro obs report DIR)")

    p = sub.add_parser("evaluate", help="score a reconstruction against the original")
    p.add_argument("original")
    p.add_argument("reconstruction")
    p.add_argument("--array", default=None)

    p = sub.add_parser("render", help="project a .vti to a PGM image")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--mode", default="mip", choices=["mip", "mean", "slice"])
    p.add_argument("--axis", type=int, default=2)
    p.add_argument("--array", default=None)

    p = sub.add_parser("campaign", help="run a multi-timestep in situ campaign to a directory")
    p.add_argument("output_dir")
    p.add_argument("--dataset", default="combustion")
    p.add_argument("--dims", type=int, nargs=3, default=None)
    p.add_argument("--timesteps", type=int, nargs="+", default=[0, 4, 8, 12])
    p.add_argument("--fraction", type=float, default=0.03)
    p.add_argument("--sampler", default="multicriteria", choices=sorted(tools.SAMPLERS))
    p.add_argument("--train", action="store_true",
                   help="train an FCNN in situ (fine-tuned per timestep)")
    p.add_argument("--fractions", type=float, nargs="+", default=[0.01, 0.05],
                   help="training sampling fractions (with --train)")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--finetune-epochs", type=int, default=10)
    p.add_argument("--batched-finetune", action="store_true",
                   help="fine-tune every timestep from the pretrained base "
                        "instead of rolling the weights forward "
                        "(see docs/TRAINING.md)")
    p.add_argument("--shards", default=None, metavar="AxBxC",
                   help="spatial domain decomposition for in situ training "
                        "(e.g. 2x2x1, or a shard count like 4): one model "
                        "per (timestep, shard), stitched by the reader "
                        "(requires --train; see docs/PERFORMANCE.md)")
    p.add_argument("--halo", type=int, default=None, metavar="N",
                   help="halo/ghost-zone width in grid cells around each "
                        "shard (default: sized to the kNN stencil via "
                        "repro.shard.suggest_halo; requires --shards)")
    p.add_argument("--pipeline", default="on", choices=["on", "off"],
                   help="overlap simulate/train/write across timesteps "
                        "(bit-identical output either way; default on)")
    p.add_argument("--journal", action="store_true",
                   help="keep a durable write-ahead journal under "
                        "OUTPUT_DIR/.wal/ so a killed campaign can --resume")
    p.add_argument("--resume", action="store_true",
                   help="skip timesteps the journal proves already emitted "
                        "(verified by content hash) and continue bit-identically; "
                        "implies --journal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--obs", default=None, metavar="DIR",
                   help="record run telemetry under DIR (repro obs report DIR)")

    args = parser.parse_args(argv)
    if getattr(args, "obs", None):
        from repro.obs import RunRecorder

        recorder = RunRecorder(
            args.obs, meta={"command": args.command, "seed": getattr(args, "seed", None)}
        )
    else:
        from repro.obs import NullRecorder

        recorder = NullRecorder()
    try:
        with recorder:
            msg = _tool_dispatch(args)
    except (ValueError, FileNotFoundError, KeyError, CheckpointCorruptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(msg)
    if recorder.run_dir is not None:
        print(f"telemetry: repro obs report {recorder.run_dir}")
    return 0


def _tool_dispatch(args) -> str:
    """Execute one parsed tool command, returning its status message."""
    from repro import tools

    if args.command == "generate":
        return tools.cmd_generate(args.dataset, args.output, dims=args.dims,
                                  timestep=args.timestep, seed=args.seed)
    if args.command == "sample":
        return tools.cmd_sample(args.input, args.output, args.fraction,
                                sampler=args.sampler, array=args.array, seed=args.seed)
    if args.command == "train":
        return tools.cmd_train(args.input, args.model_out, fractions=tuple(args.fractions),
                               sampler=args.sampler, array=args.array, epochs=args.epochs,
                               hidden=tuple(args.hidden), seed=args.seed,
                               checkpoint=args.checkpoint,
                               checkpoint_every=args.checkpoint_every,
                               resume=args.resume, health_policy=args.health_policy)
    if args.command == "reconstruct":
        return tools.cmd_reconstruct(args.input, args.reference, args.output,
                                     method=args.method, model=args.model, array=args.array)
    if args.command == "evaluate":
        return tools.cmd_evaluate(args.original, args.reconstruction, array=args.array)
    if args.command == "campaign":
        return tools.cmd_campaign(args.output_dir, dataset=args.dataset, dims=args.dims,
                                  timesteps=args.timesteps, fraction=args.fraction,
                                  sampler=args.sampler, train=args.train,
                                  fractions=tuple(args.fractions), epochs=args.epochs,
                                  finetune_epochs=args.finetune_epochs, seed=args.seed,
                                  pipeline=args.pipeline == "on",
                                  batched_finetune=args.batched_finetune,
                                  shards=args.shards, halo=args.halo,
                                  journal=args.journal, resume=args.resume)
    return tools.cmd_render(args.input, args.output, mode=args.mode,
                            axis=args.axis, array=args.array)


def main(argv: list[str] | None = None) -> int:
    """CLI dispatcher; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "check":
        from repro.checks.cli import main as checks_main

        return checks_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "replay":
        from repro.serve.cli import replay_main

        return replay_main(argv[1:])
    if argv and argv[0] in _TOOL_COMMANDS:
        return _tool_main(argv)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of 'Filling the Void' (SC 2024).",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (fig5..fig14, tab1, tab2), 'all', or 'list'",
    )
    parser.add_argument(
        "--profile",
        default="bench",
        choices=sorted(PROFILES),
        help="scale profile (default: bench)",
    )
    parser.add_argument("--dataset", default=None, help="override the config's dataset")
    parser.add_argument("--epochs", type=int, default=None, help="override epoch budget")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument(
        "--obs",
        default=None,
        metavar="DIR",
        help="record run telemetry under DIR/<experiment> (JSONL events + "
        "run.json; inspect with 'repro obs report')",
    )
    args = parser.parse_args(argv)

    runners = _runners()
    if args.experiment == "list":
        for key, (desc, _) in runners.items():
            print(f"{key:7s} {desc}")
        return 0

    overrides = {}
    if args.dataset:
        overrides["dataset"] = args.dataset
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.obs is not None:
        overrides["obs"] = args.obs
    config = get_config(args.profile, **overrides)

    if args.experiment == "all":
        names = [k for k in runners if k != "tab2"]
    elif args.experiment in runners:
        names = [args.experiment]
    else:
        print(f"unknown experiment {args.experiment!r}; try 'repro list'", file=sys.stderr)
        return 2

    from repro.experiments.runner import build_recorder

    for name in names:
        _, runner = runners[name]
        with build_recorder(config, name) as recorder:
            result = runner(config)
        print(result.format())
        if recorder.run_dir is not None:
            print(f"   telemetry: repro obs report {recorder.run_dir}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
