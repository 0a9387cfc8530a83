"""Command-line front end.

Subcommands run the pipeline chain up to a stage (ingest, annotate, mine,
shape, all) or generate a synthetic fixture world (synth). Flag values
override config-file values, which override built-in defaults; the
defaults reproduce the standard methodology (250 m join radius, 240 m/s
speed cap, 30-day residency, 6-slot active days, 0.5% census cutoff,
6-node motif cap).
"""

import argparse
import sys
from dataclasses import fields

from . import pipeline


def _add_pipeline_args(p: argparse.ArgumentParser):
    """`--config` and a flag for each `RunConfig` field that declares one."""
    p.add_argument("--config", help="key=value config file")
    for f in fields(pipeline.RunConfig):
        if f.metadata["flag"] is None:  # config-file-only
            continue
        kwargs = {"dest": f.name, "help": f.metadata["help"]}
        if f.type is bool:  # the flag sets the field to the other value
            kwargs.update(action="store_false" if f.default else "store_true", default=None)
        elif f.type in (int, float):
            kwargs["type"] = f.type
        if f.name == "delimiter":  # a config file may give any one character
            kwargs["choices"] = [",", "tab"]
        elif "choices" in f.metadata:
            kwargs["choices"] = f.metadata["choices"]
        p.add_argument(f.metadata["flag"], **kwargs)


def _pipeline_config(args) -> pipeline.RunConfig:
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("command", "config", "func") and v is not None
    }
    return pipeline.make_config(args.config, overrides)


def _run_stage(args) -> int:
    cfg = _pipeline_config(args)
    result = pipeline.run(cfg, args.command)
    manifest = result["manifest"]
    print(f"stage={args.command} out={cfg.out_dir}")
    print(f"  parse: {manifest['parse']}")
    print(f"  users: {manifest['users']}")
    if "days" in manifest:
        print(f"  days: {manifest['days']}")
    return 0


def _run_synth(args) -> int:
    from . import synth  # imported here: no pipeline stage needs the generator

    cfg = synth.SynthConfig()
    for owner, names in ((cfg, ("seed", "num_users", "days", "tourist_count")),
                         (cfg.bots, ("stationary", "teleporter"))):
        for name in names:
            if getattr(args, name) is not None:
                setattr(owner, name, getattr(args, name))
    result = synth.generate(cfg, args.out_dir)
    print(f"synthetic world written to {args.out_dir}")
    for name, path in result["paths"].items():
        print(f"  {name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motifmine",
        description="Mine daily mobility motifs from geo-located point records "
                    "anchored to land-use parcels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ingest", "parse and filter records; write filtered stream + manifest"),
        ("annotate", "ingest + parcel join, bot filter, homes, day splitting"),
        ("mine", "annotate + daily networks and the motif census"),
        ("shape", "mine + trajectory shape, density, distance statistics"),
        ("all", "full pipeline, equivalent to shape"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_pipeline_args(p)
        p.set_defaults(func=_run_stage)

    p = sub.add_parser("synth", help="generate a deterministic synthetic fixture world")
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--users", dest="num_users", type=int)
    p.add_argument("--days", type=int)
    p.add_argument("--tourists", dest="tourist_count", type=int)
    p.add_argument("--stationary-bots", dest="stationary", type=int)
    p.add_argument("--teleporters", dest="teleporter", type=int)
    p.set_defaults(func=_run_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a file that cannot be read or written, a bad value
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
