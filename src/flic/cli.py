"""Command-line entry point.

Subcommands: ``datagen`` (write a toy dataset), ``run`` (flic / local /
theory experiment), ``eval`` (score a checkpoint on a dataset),
``onboard`` (fit a new client against a trained checkpoint).

Exit codes: 0 success, 2 configuration error, 3 runtime divergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import MODES, ConfigError, build_config, parse_config
from .datagen import load_clients
from .experiment import run_command, write_dataset
from .federation import DivergenceError, GlobalState, client_accuracy, onboard_new_client
from .reporting import load_checkpoint

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a flat JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--mode", choices=MODES, help="override the run mode")


def _load_config(args: argparse.Namespace):
    flags = {"seed": args.seed, "out_dir": args.out, "mode": args.mode}
    overrides = {key: value for key, value in flags.items() if value is not None}
    if args.config is not None:
        return parse_config(args.config, overrides=overrides)
    return build_config({}, overrides=overrides)


def _cmd_datagen(args) -> int:
    cfg = _load_config(args)
    return write_dataset(cfg)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    return run_command(cfg)


def _cmd_eval(args) -> int:
    alpha, _, models = load_checkpoint(args.checkpoint)
    datasets, _ = load_clients(args.data)
    by_id = {ds.client_id: ds for ds in datasets}
    accs = {}
    for cid in sorted(models):
        if cid not in by_id:
            raise ConfigError(f"checkpoint client {cid} missing from dataset")
        phi, head, classes = models[cid]
        data = by_id[cid]
        if data.classes.tolist() != classes:
            raise ConfigError(
                f"client {cid}: dataset holds classes {data.classes.tolist()}, "
                f"the checkpoint was trained on {classes}"
            )
        if data.dim != phi.input_dim:
            raise ConfigError(
                f"client {cid}: dataset features have dimension {data.dim}, "
                f"the checkpoint's embedding takes {phi.input_dim}"
            )
        accs[cid] = client_accuracy(phi, head, alpha, data)
    for cid, acc in accs.items():
        print(f"client {cid}: accuracy {acc:.4f}")
    print(f"mean_accuracy {float(np.mean(list(accs.values()))):.4f}")
    return EXIT_OK


def _cmd_onboard(args) -> int:
    cfg = _load_config(args)
    if args.rounds is not None and args.rounds < 0:
        raise ConfigError(f"--rounds: must be >= 0, got {args.rounds}")
    alpha, anchors, _ = load_checkpoint(args.checkpoint)
    datasets, _ = load_clients(args.data)
    by_id = {ds.client_id: ds for ds in datasets}
    if args.client_id not in by_id:
        raise ConfigError(f"client {args.client_id} not present in dataset")
    data = by_id[args.client_id]
    n_classes = anchors.n_classes
    if data.classes[-1] >= n_classes:
        raise ConfigError(
            f"client {args.client_id} holds classes {data.classes.tolist()}, "
            f"outside the checkpoint's {n_classes} anchor classes"
        )
    client = onboard_new_client(data, GlobalState(alpha, anchors), cfg.training, cfg.hidden_dim,
                                rounds=args.rounds)
    acc = client_accuracy(client.phi, client.head, alpha, data)
    print(f"onboarded client {args.client_id}: accuracy {acc:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flic",
        description="Personalized federated learning over heterogeneous feature spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a toy multi-client dataset")
    _add_common(p)

    p = sub.add_parser("run", help="run a federated / local / theory experiment")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("onboard", help="fit a new client against a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--client-id", type=int, required=True)
    p.add_argument("--rounds", type=int, help="local rounds for the new client")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"datagen": _cmd_datagen, "run": _cmd_run, "eval": _cmd_eval,
                "onboard": _cmd_onboard}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
