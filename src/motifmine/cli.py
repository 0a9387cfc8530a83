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

from . import pipeline


def _add_pipeline_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--records", help="delimited point-record file")
    p.add_argument("--parcels", help="GeoJSON parcel polygons (required from annotate on)")
    p.add_argument("--boundary", help="GeoJSON study-region polygon")
    p.add_argument("--scheme", help="category->code scheme file")
    p.add_argument("--zones", help="GeoJSON zones with population attribute")
    p.add_argument("--blocklist", help="keyword blocklist file, one per line")
    p.add_argument("--out", dest="out_dir", help="output directory (default: out)")
    p.add_argument("--category-attr", dest="category_attr")
    p.add_argument("--zone-pop-attr", dest="zone_pop_attr")
    p.add_argument("--delimiter", choices=[",", "tab"], help="input field delimiter")
    p.add_argument("--columns", help='record schema override, e.g. "user_id=0,timestamp=1,..."')
    p.add_argument("--radius", dest="radius_m", type=float, help="parcel join radius, m")
    p.add_argument("--max-speed", dest="max_speed_mps", type=float, help="speed cap, m/s")
    p.add_argument("--min-days", dest="min_residency_days", type=float)
    p.add_argument("--residency-mode", dest="residency_mode",
                   choices=pipeline.CONFIG_CHOICES["residency_mode"])
    p.add_argument("--utc-offset", dest="utc_offset_minutes", type=int,
                   help="dataset-local offset from UTC in minutes")
    p.add_argument("--min-slots", dest="min_slots", type=int)
    p.add_argument("--include-weekends", dest="weekdays_only", action="store_false",
                   default=None)
    p.add_argument("--active-scope", dest="active_scope",
                   choices=pipeline.CONFIG_CHOICES["active_scope"])
    p.add_argument("--cutoff", dest="cutoff", type=float, help="census frequency cutoff")
    p.add_argument("--max-nodes", dest="max_nodes", type=int)
    p.add_argument("--no-pin-home", dest="pin_home", action="store_false", default=None)
    p.add_argument("--density-bins", dest="density_bins", type=int)
    p.add_argument("--density-bound", dest="density_bound", type=float)
    p.add_argument("--density-weight", dest="density_weight",
                   choices=pipeline.CONFIG_CHOICES["density_weight"])
    p.add_argument("--workers", dest="workers", type=int)
    p.add_argument("--no-hash-ids", dest="hash_ids", action="store_false", default=None)
    p.add_argument("--dump-annotations", dest="dump_annotations", action="store_true",
                   default=None)


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
