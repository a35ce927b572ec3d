"""Command line interface.

Subcommands: gen, train, eval, ablate, viz-attn. Exit codes: 0 ok,
2 configuration error, 3 data error, 4 numeric abort (a non-finite
training loss or a degenerate forward pass).
"""

from __future__ import annotations

import argparse
import sys

from . import harness, scenegen
from .errors import ConfigError, DataError, NumericAbort, ParameterError


def _build_parser():
    parser = argparse.ArgumentParser(prog="hoitg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic scene dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--num", type=int, required=True, help="number of scenes")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--templates", default="box,chair,tube", help="comma-separated template ids")
    gen.add_argument("--res", type=int, default=64, help="image resolution")

    tr = sub.add_parser("train", help="train a model on a dataset")
    tr.add_argument("--data", required=True, help="dataset directory")
    tr.add_argument("--config", default=None, help="JSON config file (TrainConfig fields)")
    tr.add_argument("--out", required=True, help="checkpoint output path")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--data", required=True)
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--report", required=True, help="report output path (JSON; .txt twin added)")

    ab = sub.add_parser("ablate", help="run graph-placement or KNN ablations")
    ab.add_argument("--variant", required=True,
                    help="none|h|h+o1|h+o2|h+o3|h+o-all|placement|knn-sweep")
    ab.add_argument("--data", required=True)
    ab.add_argument("--out", required=True, help="output directory for the comparison table")
    ab.add_argument("--epochs", type=int, default=2)
    ab.add_argument("--steps", type=int, default=16)
    ab.add_argument("--seed", type=int, default=0)

    vz = sub.add_parser("viz-attn", help="export human-to-object attention for one sample")
    vz.add_argument("--ckpt", required=True)
    vz.add_argument("--data", required=True)
    vz.add_argument("--sample", type=int, required=True)
    vz.add_argument("--layer", type=int, required=True)
    vz.add_argument("--block", type=int, required=True)
    vz.add_argument("--out", required=True, help="output prefix for .csv and .pgm")
    return parser


def _cmd_gen(args):
    templates = tuple(t.strip() for t in args.templates.split(",") if t.strip())
    config = scenegen.SceneConfig(res=args.res, templates=templates)
    manifest = scenegen.generate_dataset(args.out, args.num, args.seed, config)
    print(f"wrote {manifest['num']} samples to {args.out}")


def _cmd_train(args):
    if args.config:
        cfg = harness.TrainConfig.from_json_file(args.config)
    else:
        cfg = harness.TrainConfig()
    cfg.data_dir = args.data
    cfg.checkpoint_path = args.out
    result = harness.train(cfg)
    print(f"done: {result.steps} steps, loss {result.first_loss:.5f} -> {result.final_loss:.5f}")
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"loss log:   {result.log_path}")


def _cmd_eval(args):
    report = harness.evaluate(args.ckpt, args.data, report_path=args.report)
    print(report.to_text())


def _cmd_ablate(args):
    harness.run_ablation(
        args.variant, args.data, args.out,
        epochs=args.epochs, steps_per_epoch=args.steps, seed=args.seed,
    )
    print(f"comparison table: {args.out}/ablation.txt")


def _cmd_viz(args):
    vector = harness.export_attention(
        args.ckpt, args.data, args.sample, args.layer, args.block, args.out
    )
    print(f"wrote {args.out}.csv and {args.out}.pgm ({len(vector)} vertices)")


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "viz-attn": _cmd_viz,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
