"""Command-line entry point.

Subcommands share one config file; later pipeline stages are ignored where
not applicable:

    miselect validate --config cfg.json
    miselect score    --config cfg.json --out outdir [--seed S]
    miselect select   --config cfg.json --out outdir [--seed S]
    miselect train    --config cfg.json --out outdir [--seed S] [--threads N]
    miselect run      --config cfg.json --out outdir [--seed S] [--threads N]

Exit codes: 0 on success, 2 on config violations, 1 on a stage failure
(diagnostics are tagged with the failing stage).
"""

from __future__ import annotations

import argparse
import sys

from .errors import MiselectError, StageError
from .experiment import load_config, run_experiment, validate_config


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="miselect",
        description="Mutual-information sample scoring and data curation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, needs_out=True, needs_threads=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the experiment config JSON")
        if needs_out:
            p.add_argument("--out", default=None,
                           help="output directory (default: the config's output_dir)")
            p.add_argument("--seed", type=int, default=None,
                           help="master seed override (non-negative integer)")
        if needs_threads:
            p.add_argument("--threads", type=int, default=1,
                           help="forked worker processes for the grid cells; serial at 1 "
                                "or where fork is unavailable (output-invariant)")
        return p

    add("validate", "check a config file and report violations", needs_out=False)
    add("score", "run the pipeline through MI scoring")
    add("select", "run through subset selection, exporting index files")
    add("train", "run through classifier training, writing the accuracy grid",
        needs_threads=True)
    add("run", "run the full experiment grid and write the report",
        needs_threads=True)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)

    if args.command == "validate":
        violations = validate_config(args.config)
        if violations:
            for v in violations:
                print(f"invalid: {v}", file=sys.stderr)
            return 2
        print("config ok")
        return 0

    through = {"score": "score", "select": "select", "train": "train", "run": "full"}[
        args.command
    ]
    try:
        config = load_config(args.config)
        out_dir = args.out if args.out is not None else config.get("output_dir")
        if out_dir is None:
            print("error: no output directory (pass --out or set output_dir in the config)",
                  file=sys.stderr)
            return 2
        report = run_experiment(
            config,
            out_dir=out_dir,
            seed_override=args.seed,
            threads=getattr(args, "threads", 1),
            through=through,
        )
    except StageError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    except MiselectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for entry in report.data.get("mi_by_stage", []):
        print(f"stage {entry['stage']}: global MI = {entry['global_mi']:.4f} nats")
    if report.accuracy:
        for (strategy, ratio), acc in sorted(report.accuracy.items()):
            print(f"{strategy} @ {ratio:g}: accuracy {acc:.4f}")
    print(f"wrote {len(report.out_files)} files to {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
