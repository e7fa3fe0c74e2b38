"""CLI for the serving layer: ``repro serve ...`` and ``repro replay ...``.

::

    repro serve build registry/ --dataset combustion --timesteps 0 1 2 3
    repro serve ls registry/
    repro replay registry/ --requests 10000 --report stats.json --obs runs/serve

``repro replay`` plays a synthetic (or recorded ``--trace``) request
stream against an in-process :class:`~repro.serve.ReconstructionServer`
over the registry and prints :class:`~repro.serve.ReplayStats` as JSON.
``--cache-slots 1`` shrinks each namespace's result ring to one slot —
the configuration CI diffs the default run against
(``repro obs report A --diff B --only 'serve.*'``).
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["serve_main", "replay_main"]


def serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="repro serve", description="model-registry tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="train + batched fine-tune a campaign into a registry")
    p.add_argument("registry", help="registry directory to create/extend")
    p.add_argument("--dataset", default="combustion")
    p.add_argument("--dims", type=int, nargs=3, default=[16, 16, 8])
    p.add_argument("--fraction", type=float, default=0.05)
    p.add_argument("--timesteps", type=int, nargs="+", default=[0, 1, 2, 3])
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--finetune-epochs", type=int, default=4)
    p.add_argument("--hidden", type=int, nargs="+", default=[32, 16])
    p.add_argument("--fractions", type=float, nargs="+", default=[0.01, 0.05],
                   help="training sampling fractions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--obs", default=None, metavar="DIR",
                   help="record run telemetry under DIR (repro obs report DIR)")

    p = sub.add_parser("ls", help="list a registry's namespaces and keys")
    p.add_argument("registry")

    args = parser.parse_args(argv)
    try:
        if args.command == "build":
            msg = _cmd_build(args)
        else:
            msg = _cmd_ls(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(msg)
    return 0


def _recorder(obs_dir, meta):
    if obs_dir:
        from repro.obs import RunRecorder

        return RunRecorder(obs_dir, meta=meta)
    from repro.obs import NullRecorder

    return NullRecorder()


def _cmd_build(args) -> str:
    from repro.serve.build import build_registry

    with _recorder(args.obs, {"command": "serve build", "seed": args.seed}):
        registry = build_registry(
            args.registry,
            dataset=args.dataset,
            dims=tuple(args.dims),
            fraction=args.fraction,
            timesteps=args.timesteps,
            epochs=args.epochs,
            finetune_epochs=args.finetune_epochs,
            hidden=tuple(args.hidden),
            train_fractions=tuple(args.fractions),
            seed=args.seed,
        )
    return (
        f"registry {args.registry}: {len(registry)} key(s) across "
        f"{len(registry.namespaces())} namespace(s)"
    )


def _cmd_ls(args) -> str:
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(args.registry)
    lines = []
    for ns in registry.namespaces():
        dims = "x".join(str(d) for d in ns.grid.dims)
        lines.append(
            f"{ns.ns_id}: dataset={ns.dataset} fraction={ns.fraction:g} "
            f"grid={dims} timesteps={ns.timesteps}"
        )
    if not lines:
        return f"registry {args.registry}: empty"
    return "\n".join(lines)


def replay_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro replay", description="replay a request trace against a registry"
    )
    parser.add_argument("registry", help="registry directory (see 'repro serve build')")
    parser.add_argument("--requests", type=int, default=10_000)
    parser.add_argument("--trace", default=None, metavar="NPZ",
                        help="replay a recorded trace instead of a synthetic one")
    parser.add_argument("--record", default=None, metavar="NPZ",
                        help="save the (synthetic) trace for later replays")
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--skew", type=float, default=1.1,
                        help="Zipf exponent of the synthetic key popularity")
    parser.add_argument("--chunk-fraction", type=float, default=0.0,
                        help="fraction of requests asking for one streamed chunk")
    parser.add_argument("--cache-slots", type=int, default=16)
    parser.add_argument("--max-in-flight", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", default=None, metavar="JSON",
                        help="also write the stats to this file")
    parser.add_argument("--obs", default=None, metavar="DIR",
                        help="record run telemetry under DIR (repro obs report DIR)")
    args = parser.parse_args(argv)

    from repro.serve import (
        ModelRegistry,
        ReconstructionServer,
        RequestTrace,
        ServerConfig,
        replay,
        synthetic_trace,
    )

    try:
        registry = ModelRegistry(args.registry)
        keys = registry.keys()
        if not keys:
            raise ValueError(f"registry {args.registry} has no keys; run 'repro serve build'")
        if args.trace:
            trace = RequestTrace.load(args.trace)
        else:
            trace = synthetic_trace(
                keys,
                args.requests,
                tenants=tuple(f"tenant-{i}" for i in range(max(1, args.tenants))),
                seed=args.seed,
                skew=args.skew,
                chunk_fraction=args.chunk_fraction,
            )
        if args.record:
            trace.save(args.record)
        config = ServerConfig(cache_slots=args.cache_slots)
        meta = {
            "command": "replay",
            "seed": args.seed,
            "requests": trace.num_requests,
            "cache_slots": args.cache_slots,
        }
        with _recorder(args.obs, meta) as recorder:
            with ReconstructionServer(registry, config) as server:
                stats = replay(server, trace, max_in_flight=args.max_in_flight)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = stats.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    if recorder.run_dir is not None:
        print(f"telemetry: repro obs report {recorder.run_dir}", file=sys.stderr)
    return 0
