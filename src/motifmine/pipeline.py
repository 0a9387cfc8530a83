"""Stage orchestration: configuration, per-user processing, reports.

Stages build on each other (ingest -> annotate -> mine -> shape); each run
executes the chain up to the requested stage and writes its artifacts plus
a run manifest of per-stage counts. Every input is read and checked before
any record is processed, and so is every artifact name the run will take in
the output directory. Once every stage has succeeded, the artifacts are
published all-or-nothing (see `publish`), the manifest last.
Users pass the user filters in `ingest`; from annotate on they are processed
independently and may fan out over worker processes. Every reduction
happens in sorted user order, so output bytes never depend on the worker count.

`run` pauses the cyclic garbage collector from the first input read to the
last artifact written. Its premise: the records, parcels, points, networks
and outcomes a run builds form no reference cycles, so reference counting
frees them and a collector pass over them finds nothing. The few cycles a
run does make (`json.dump`'s encoder closures) are a fixed handful per
artifact; they are collected once the collector is back on.
"""

import csv
import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from operator import attrgetter
from pathlib import Path

# The interpreter's builtin SHA-256, as stdlib `random` takes its SHA-512:
# `import hashlib` loads OpenSSL, 3.6 MiB of RSS for this one digest.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import annotate as ann
from . import ingest as ing
from . import motifs as mot
from . import shape as shp
from .geo import geojson_features, geojson_polygon, point_in_polygon
from .parcels import (
    ActivityScheme,
    LoadReport,
    SpatialIndex,
    gc_paused,
    load_parcels,
)
from .publish import check_targets, write_outputs

STAGE_LEVELS = {"ingest": 1, "annotate": 2, "mine": 3, "shape": 4, "all": 4}


def _option(default, flag=None, help=None, echo=True, **check):
    """A `RunConfig` field, the one declaration of its option: its default,
    CLI flag and --help text (no flag: config-file-only) and the check each
    value must pass, from flag, file or default: `choices=(...)`, inclusive
    `bounds=(low, high)` (`high=None`: no upper bound), or `positive=True`,
    with `finite=True` if infinity is refused too. `echo=False` keeps a path
    or a setting that changes no result out of the manifest's config block."""
    return field(default=default, metadata=dict(flag=flag, help=help, echo=echo, **check))


def _violation(check, value):
    """What a value must be but is not, by its field's check; None if it passes."""
    if "choices" in check and value not in check["choices"]:
        return "one of " + ", ".join(check["choices"])
    if "bounds" in check:
        low, high = check["bounds"]
        if value < low or (high is not None and value > high):
            return f"in [{low}, {high}]" if high is not None else f">= {low}"
    # NaN is not > 0; an infinite speed cap means no cap
    if check.get("positive") and (not value > 0 or check.get("finite") and math.isinf(value)):
        return "finite and > 0" if check.get("finite") else "> 0"
    return None


@dataclass
class RunConfig:
    records: str = _option("", "--records", "delimited point-record file", echo=False)
    parcels: str = _option("", "--parcels", "GeoJSON parcel polygons (required from annotate on)",
                           echo=False)
    boundary: str = _option("", "--boundary", "GeoJSON study-region polygon", echo=False)
    scheme: str = _option("", "--scheme", "category->code scheme file", echo=False)
    zones: str = _option("", "--zones", "GeoJSON zones with population attribute", echo=False)
    blocklist: str = _option("", "--blocklist", "keyword blocklist file, one per line",
                             echo=False)
    out_dir: str = _option("out", "--out", "output directory (default: out)", echo=False)
    category_attr: str = _option("category", "--category-attr")
    zone_pop_attr: str = _option("population", "--zone-pop-attr")
    delimiter: str = _option(",", "--delimiter", "input field delimiter")  # or "tab"
    columns: str = _option("", "--columns",
                           'record schema override, e.g. "user_id=0,timestamp=1,..."')
    radius_m: float = _option(250.0, "--radius", "parcel join radius, m",
                              positive=True, finite=True)
    max_speed_mps: float = _option(240.0, "--max-speed", "speed cap, m/s", positive=True)
    min_residency_days: float = _option(30.0, "--min-days", positive=True, finite=True)
    residency_mode: str = _option("span", "--residency-mode", choices=ing.RESIDENCY_MODES)
    utc_offset_minutes: int = _option(  # ingest.parse_timestamp leaves a day's margin
        0, "--utc-offset", "dataset-local offset from UTC in minutes", bounds=(-1440, 1440))
    night_start_hour: int = _option(21, bounds=(0, 23))
    night_end_hour: int = _option(6, bounds=(0, 23))
    min_slots: int = _option(6, "--min-slots", bounds=(1, 48))  # half-hour slots in a day
    weekdays_only: bool = _option(True, "--include-weekends")
    active_scope: str = _option("day", "--active-scope", choices=ann.ACTIVE_SCOPES)
    cutoff: float = _option(0.005, "--cutoff", "census frequency cutoff")
    max_nodes: int = _option(6, "--max-nodes", bounds=(1, mot.SIGNATURE_NODE_CAP))
    pin_home: bool = _option(True, "--no-pin-home")
    density_bins: int = _option(80, "--density-bins", bounds=(1, None))
    density_bound: float = _option(4.0, "--density-bound", positive=True, finite=True)
    density_weight: str = _option("point", "--density-weight", choices=shp.DENSITY_WEIGHTS)
    workers: int = _option(1, "--workers", bounds=(1, None), echo=False)
    hash_ids: bool = _option(True, "--no-hash-ids")
    dump_annotations: bool = _option(False, "--dump-annotations")

    def __post_init__(self):
        if self.delimiter == "tab":
            self.delimiter = "\t"
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character or tab, not {self.delimiter!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            bound = _violation(f.metadata, value)
            if bound is not None:
                raise ValueError(f"{f.name} must be {bound}, not {value!r}")
        if not 0.0 <= self.cutoff < 1.0:
            raise ValueError(f"cutoff must be in [0, 1), not {self.cutoff!r}")
        if self.night_start_hour == self.night_end_hour:  # the half-open window is empty
            raise ValueError(f"night_start_hour and night_end_hour must differ, not both "
                             f"{self.night_start_hour!r}")

    def thresholds_echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.metadata["echo"]}


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def load_config_file(path) -> dict:
    """key=value config lines; '#' starts a comment."""
    out = {}
    typed = {f.name: f.type for f in fields(RunConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in typed:
                raise ValueError(f"unknown config key: {key}")
            out[key] = _coerce(key, typed[key], value)
    return out


def _coerce(key, kind: type, value: str):
    if kind is bool:
        if value.lower() not in _BOOL_VALUES:
            raise ValueError(f"bad boolean for {key}: {value}")
        return _BOOL_VALUES[value.lower()]
    return kind(value)  # int, float or str


def make_config(file_path=None, overrides=None) -> RunConfig:
    """Precedence: explicit overrides > config file > defaults."""
    values = {}
    if file_path:
        if not Path(file_path).is_file():
            raise FileNotFoundError(f"--config is not a file: {file_path}")
        values.update(load_config_file(file_path))
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    return RunConfig(**values)


def pseudonymize(user_id: str) -> str:
    return sha256(user_id.encode("utf-8")).hexdigest()[:16]


def load_boundary_ring(path) -> tuple:
    """The ring, as (lat, lon), of the first polygon in a GeoJSON file; it may have no holes."""
    features = geojson_features(path)
    rings = geojson_polygon(features[0].get("geometry")) if features else None
    if rings is None:
        raise ValueError(f"boundary file {path} does not start with a valid polygon")
    if rings[1]:  # the prefilter tests one ring
        raise ValueError(f"boundary file {path} has a polygon with holes; use one ring")
    return rings[0]


def load_blocklist(path) -> tuple:
    words = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word = line.strip()
            if word and not word.startswith("#"):
                words.append(word)
    return tuple(words)


def load_zones(path, pop_attr: str) -> list:
    """Polygon zones with their population; a correlation needs two or more,
    not all of one population."""
    zones = []
    for i, feat in enumerate(geojson_features(path)):
        rings = geojson_polygon(feat.get("geometry"))
        if rings is None:
            raise ValueError(f"zone {i} in {path} is not a valid polygon")
        raw = (feat.get("properties") or {}).get(pop_attr)
        try:
            pop = float(raw)
        except (TypeError, ValueError):
            pop = math.nan
        if not math.isfinite(pop):
            raise ValueError(f"zone {i} in {path} has no finite {pop_attr!r}: {raw!r}")
        zones.append({"exterior": rings[0], "holes": rings[1], "population": pop})
    if len(zones) < 2:
        raise ValueError(f"need at least two polygon zones in {path}, found {len(zones)}")
    if len({z["population"] for z in zones}) == 1:  # no variance to correlate with
        raise ValueError(f"every zone in {path} has the same {pop_attr!r}")
    return zones


@dataclass(slots=True)
class Inputs:
    """Every input except the record stream, read and checked."""

    index: SpatialIndex | None  # the parcels are read only for the stages that join
    parcels: LoadReport | None  # their load report, likewise
    schema: ing.RecordSchema
    filters: ing.FilterConfig
    zones: list | None  # only read for the shape stage


def load_inputs(cfg: RunConfig, level: int) -> Inputs:
    """Read and check every input file; the records are parsed by `ingest`.

    Every given path, the output directory and the artifact names the run
    will take in it are checked before any file is read. An input is read
    only by a stage that uses it: the parcels and the scheme from annotate
    on (level 2), the zones for the shape stage (level 4).
    """
    for name in ("records", "parcels", "scheme", "boundary", "zones", "blocklist"):
        value = getattr(cfg, name)  # each is set by the flag of its name
        if value and not Path(value).is_file():
            raise FileNotFoundError(f"--{name} is not a file: {value}")
        if not value and (name == "records" or (name == "parcels" and level >= 2)):
            raise FileNotFoundError(f"--{name} is required")
    check_targets(cfg.out_dir, artifact_writers(cfg, level))
    schema = ing.RecordSchema(delimiter=cfg.delimiter)
    if cfg.columns:
        schema.columns = ing.parse_schema_columns(cfg.columns)
    index = load_report = None
    if level >= 2:
        scheme = ActivityScheme.from_file(cfg.scheme) if cfg.scheme else ActivityScheme()
        index, load_report = load_parcels(cfg.parcels, scheme, cfg.category_attr)
    filters = ing.FilterConfig(
        boundary=load_boundary_ring(cfg.boundary) if cfg.boundary else None,
        keyword_blocklist=load_blocklist(cfg.blocklist) if cfg.blocklist else ing.DEFAULT_BLOCKLIST,
        max_speed_mps=cfg.max_speed_mps,
        min_residency_days=cfg.min_residency_days,
        residency_mode=cfg.residency_mode,
    )
    zones = load_zones(cfg.zones, cfg.zone_pop_attr) if cfg.zones and level >= 4 else None
    return Inputs(index, load_report, schema, filters, zones)


@dataclass(slots=True)
class Ingested:
    parse: ing.ParseReport
    prefiltered: int  # records kept by the prefilter, of every user
    users: dict  # total, after_speed, after_residency: the first funnel counts
    tracks: list  # UserTrack of each user both user filters keep, sorted by user id


def ingest(cfg: RunConfig, inputs: Inputs) -> Ingested:
    """Parse the records, pseudonymize users, and keep each user's
    prefiltered records as a track if the speed and residency filters pass.

    The records are grouped by user in input order and each group is
    prefiltered on its own. The dedup key holds the user id, so this finds
    the duplicates a prefilter of the whole stream would, for any record
    order, while the dedup set holds one user's keys at a time. Each user's
    kept records are stably sorted by time (ties keep input order); a user
    with none kept gets no track and is not counted.
    """
    records, parse_report = ing.parse_records_path(cfg.records, inputs.schema)
    pseudonym = functools.cache(pseudonymize) if cfg.hash_ids else None  # one hash per user
    by_user: dict[str, list] = {}
    for rec in records:
        if pseudonym:
            rec.user_id = pseudonym(rec.user_id)
        by_user.setdefault(rec.user_id, []).append(rec)
    del records
    tracks = []
    prefiltered = total = after_speed = 0
    for user_id in sorted(by_user):
        points = ing.prefilter(by_user.pop(user_id), inputs.filters)
        if not points:
            continue
        points.sort(key=attrgetter("ts"))
        prefiltered += len(points)
        total += 1
        track = ing.UserTrack(user_id, points)
        if ing.speed_filter(track, inputs.filters).keep:
            after_speed += 1
            if ing.residency_filter(track, inputs.filters):
                tracks.append(track)
    users = {"total": total, "after_speed": after_speed, "after_residency": len(tracks)}
    return Ingested(parse_report, prefiltered, users, tracks)


@dataclass(slots=True)
class UserOutcome:
    user_id: str
    drop: str | None = None  # bot | no_home (`ingest` drops the others)
    history: list | None = None  # AnnotatedPoints, kept only for the annotation dump
    n_days: int = 0
    n_active_days: int = 0
    rejected_open_walk: int = 0
    days: list = field(default_factory=list)  # shape.DayMetrics
    home_anchor: tuple | None = None
    density_cells: tuple | None = None  # shape.density_cells of the aligned points
    align_skip: str | None = None


def _day_outcome(day, home_parcel_id, shapes) -> shp.DayMetrics | None:
    """The day's metrics and census signatures, or None when its walk is open."""
    net = mot.build_daily_network(day, home_parcel_id)
    if net is None:
        return None
    lbm_sig, reduced, abm_sig = shapes.view(net)
    anchors = shp.day_anchors(net)
    trips = shp.day_trips_km(net.walk, anchors)
    # the walk starts at home, so node 0 is home
    gyr = shp.gyradius_from_home(net.walk, anchors, anchors[0])
    return shp.day_metrics(net, reduced, trips, gyr, lbm_sig, abm_sig)


def process_user(track, index, cfg: RunConfig, level: int,
                 shapes: mot.DayShapes) -> UserOutcome:
    """The stages from annotate up to `level` (2 or more) on one kept user's
    track; `shapes` holds the census views of the day shapes met so far."""
    out = UserOutcome(track.user_id)
    history = ann.annotate_history(track, index, cfg.utc_offset_minutes, cfg.radius_m)
    if cfg.dump_annotations:
        out.history = history
    if not ann.stationary_bot_filter(history):
        out.drop = "bot"
        return out

    home = ann.infer_home(history, cfg.night_start_hour, cfg.night_end_hour)

    days = ann.split_days(history)
    out.n_days = len(days)
    active_days = ann.select_active_days(days, cfg.min_slots, cfg.weekdays_only, cfg.active_scope)
    out.n_active_days = len(active_days)

    if home.home_parcel_id is None:
        out.drop = "no_home"
        return out

    out.home_anchor = home.anchor

    if level < 3:
        return out

    for day in active_days:
        day_out = _day_outcome(day, home.home_parcel_id, shapes)
        if day_out is None:
            out.rejected_open_walk += 1
        else:
            out.days.append(day_out)

    if level < 4:
        return out

    try:
        aligned = shp.align_trajectory([(p.lat, p.lon) for p in history], home=out.home_anchor)
    except shp.DegenerateTrajectory as exc:
        out.align_skip = exc.reason
    else:  # binned now, so no outcome holds its points until the density is pooled
        out.density_cells = shp.density_cells(aligned.points, cfg.density_bins,
                                              cfg.density_bound)
    return out


_G_ARGS = None

_POOL_CHUNK = 16  # tracks sent to a worker at a time


def _pool_init(*args):
    global _G_ARGS
    _G_ARGS = args


def _pool_task(track):
    return process_user(track, *_G_ARGS)


def process_users(tracks, index, cfg: RunConfig, level: int) -> list:
    """Run the per-user stage chain, serial or in a process pool; the
    outcomes come back sorted by user id.

    The pool has no more workers than there are chunks of tracks to send:
    with the `fork` start method it starts all of them at once. Each
    process keeps its own `DayShapes` for the run.
    """
    shapes = mot.DayShapes(cfg.max_nodes, cfg.pin_home)
    if cfg.workers <= 1:
        outcomes = [process_user(t, index, cfg, level, shapes) for t in tracks]
    else:
        # imported here: no default run uses the pool, and the import costs ~30 ms
        from concurrent.futures import ProcessPoolExecutor

        n_chunks = math.ceil(len(tracks) / _POOL_CHUNK)
        with ProcessPoolExecutor(
            max_workers=max(1, min(cfg.workers, n_chunks)), initializer=_pool_init,
            initargs=(index, cfg, level, shapes),
        ) as pool:
            outcomes = list(pool.map(_pool_task, tracks, chunksize=_POOL_CHUNK))
    return sorted(outcomes, key=attrgetter("user_id"))


@dataclass(slots=True)
class Mined:
    days: list  # shape.DayMetrics of every built network, in user order
    lbm: mot.MotifCensus
    abm: mot.MotifCensus


def mine(users, cfg: RunConfig) -> Mined:
    """Census the daily networks of every user."""
    days = [d for o in users for d in o.days]
    lbm = mot.census_from_signatures(
        [(d.lbm_nodes, d.lbm_sig) for d in days], mot.LBM, cfg.cutoff, cfg.max_nodes
    )
    abm = mot.census_from_signatures(
        [(d.abm_nodes, d.abm_sig) for d in days], mot.ABM, cfg.cutoff, cfg.max_nodes
    )
    return Mined(days, lbm, abm)


@dataclass(slots=True)
class Shaped:
    stats: list  # shape.DistanceStats
    density: shp.ReferenceFrameDensity
    summary: dict
    correlation: dict | None  # only with zones


def _zone_correlation(zones, users):
    anchors = [o.home_anchor for o in users if o.home_anchor is not None]
    counts = []
    pops = []
    for zone in zones:
        n = sum(
            1 for a in anchors if point_in_polygon(a[0], a[1], zone["exterior"], zone["holes"])
        )
        counts.append(n)
        pops.append(zone["population"])
    return shp.correlation_report(pops, counts)


def shape(users, days, zones, cfg: RunConfig) -> Shaped:
    """Distance statistics, the reference-frame density and the zone correlation."""
    stats = shp.distance_stats(days, cfg.max_nodes)
    cells = [o.density_cells for o in users if o.density_cells is not None]
    density = shp.density_histogram(cells, cfg.density_bins, cfg.density_bound, cfg.density_weight)
    skip_counts = {}
    for o in users:
        if o.align_skip:
            skip_counts[o.align_skip] = skip_counts.get(o.align_skip, 0) + 1
    gyr_values = [d.gyradius_km for d in days]
    summary = {
        "aligned_users": len(cells),
        "skipped_users": skip_counts,
        "points_total": int(density.total),
        "points_in_range": int(density.in_range),
        "out_of_range_mass": density.out_of_range_mass(),
        "mean_daily_gyradius_km": (sum(gyr_values) / len(gyr_values)) if gyr_values else 0.0,
    }
    correlation = _zone_correlation(zones, users) if zones else None
    return Shaped(stats, density, summary, correlation)


def build_manifest(cfg: RunConfig, stage: str, inputs: Inputs, ingested: Ingested, users,
                   mined: Mined | None) -> dict:
    """Per-stage counts: where the records, users and days went."""
    funnel = dict(ingested.users)
    remaining = funnel["after_residency"]
    for drop, key in (("bot", "after_bot_filter"), ("no_home", "with_home")):
        remaining -= sum(1 for o in users if o.drop == drop)
        funnel[key] = remaining
    manifest = {
        "config": cfg.thresholds_echo(),
        "stage": stage,
        "parse": asdict(ingested.parse),
        "prefilter": {"records": ingested.prefiltered},
        "users": funnel,
    }
    if STAGE_LEVELS[stage] >= 2:
        load_report = inputs.parcels
        manifest["parcels"] = {
            "features": load_report.total_features,
            "loaded": load_report.loaded,
            "skipped_invalid": load_report.skipped_invalid,
            "per_code": {str(k): v for k, v in sorted(load_report.per_code.items())},
        }
        manifest["days"] = {
            "total": sum(o.n_days for o in users),
            "active": sum(o.n_active_days for o in users),
        }
    if mined is not None:
        manifest["days"]["rejected_open_walk"] = sum(o.rejected_open_walk for o in users)
        manifest["days"]["rejected_no_home"] = sum(
            o.n_active_days for o in users if o.drop == "no_home")
        manifest["days"]["networks"] = len(mined.days)
        manifest["census"] = {
            c.kind: {
                "total": c.total,
                "one_node": c.one_node_count,
                "motifs": len(c.motifs),
                "size_groups": dict(c.size_groups),
            }
            for c in (mined.lbm, mined.abm)
        }
    return manifest


_CSV_CHUNK = 1024  # rows


class _Lines(list):
    """A file whose writes collect in a list, one `csv.writer` line each."""

    write = list.append


def _write_csv(path, header, rows):
    """Write `header` and `rows` (tuples of str) as `csv.writer` would, with
    minimal quoting and "\n" line ends, except that a field holding "\r" is
    quoted too: csv leaves a bare "\r" unquoted, and `ingest` reads one
    outside quotes as a malformed line.

    A row is plain when it has the header's width, which is at least 2 (csv
    quotes a row of one empty field), and its fields hold no ',', '"', "\r"
    or "\n": csv writes such a row as its fields joined by ",". The rows go
    out in chunks of `_CSV_CHUNK`. A chunk is written as one joined text when
    every row has the header's width and that text holds exactly (width - 1)
    commas and one newline per row, and no '"' or "\r", so every row is
    plain. In any other chunk the plain rows are still written joined, one at
    a time and in order, and only the others go through `csv.writer`, the
    reference for these bytes. A chunk after one in which more than half the
    rows went out quoted (a '"' in their line) goes through `csv.writer`
    whole, with "\n" line ends, without trying the join; if a field of it
    holds "\r", it goes through row by row as above instead. Streamed: the
    write step runs after every stage, so whatever a writer holds at once
    adds to the run's peak memory.
    """
    # csv quotes a field holding any character of the line terminator, so
    # "\r\n" quotes "\r" and "\n"; the line then ends in "\n" instead
    lines = _Lines()
    quoting = csv.writer(lines, lineterminator="\r\n")
    plain = csv.writer(lines, lineterminator="\n")

    def csv_line(row):
        quoting.writerow(row)
        return lines.pop()[:-2] + "\n"

    width = len(header)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_line(header))
        if width < 2:
            fh.writelines(map(csv_line, rows))
            return
        rows = iter(rows)
        quoted = previous = 0  # quoted rows of the previous chunk, and its rows
        while chunk := list(itertools.islice(rows, _CSV_CHUNK)):
            if 2 * quoted > previous:  # the join would mostly be thrown away
                plain.writerows(chunk)
                quoted = sum('"' in line for line in lines)
                text = "".join(lines)
                lines.clear()
                # with no "\r" in any field, "\n" quotes what "\r\n" quotes
                fh.write(text if "\r" not in text else "".join(map(csv_line, chunk)))
            else:
                quoted = _write_joined(fh, chunk, width, csv_line)
            previous = len(chunk)


def _write_joined(fh, chunk, width, csv_line) -> int:
    """Write a chunk of `_write_csv` rows, the plain ones joined; returns how
    many rows went out quoted."""
    lines = [",".join(row) for row in chunk]
    text = "\n".join(lines) + "\n"
    if (all(len(row) == width for row in chunk)
            and text.count(",") == (width - 1) * len(chunk)
            and text.count("\n") == len(chunk)
            and '"' not in text and "\r" not in text):
        fh.write(text)
        return 0
    quoted = 0
    for row, line in zip(chunk, lines):
        if (len(row) == width and line.count(",") == width - 1
                and '"' not in line and "\r" not in line and "\n" not in line):
            fh.write(line + "\n")
        else:
            line = csv_line(row)
            quoted += '"' in line
            fh.write(line)
    return quoted


def write_json(path, doc: dict):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_filtered_records(path, tracks):
    rows = (
        (t.user_id, ing.format_timestamp(p.ts), f"{p.lat:.7f}", f"{p.lon:.7f}", ing.GPS, p.text)
        for t in tracks for p in t.points
    )
    _write_csv(path, ing.SCHEMA_FIELDS, rows)


def write_annotation_dump(path, users):
    rows = (
        (o.user_id, ing.format_timestamp(p.ts), ing.format_timestamp(p.local_ts, zone=""),
         f"{p.lat:.7f}", f"{p.lon:.7f}", "" if p.parcel_id is None else str(p.parcel_id),
         str(p.activity_code))
        for o in users for p in o.history or ()
    )
    _write_csv(path, ("user_id", "ts_utc", "local_ts", "lat", "lon", "parcel_id",
                      "activity_code"), rows)


def write_census_csv(path, census: mot.MotifCensus):
    rows = [
        (census.kind, str(m.rank), m.signature, str(m.node_count), str(m.count),
         f"{m.percentage:.6f}")
        for m in census.motifs
    ]
    _write_csv(path, ("kind", "rank", "signature", "node_count", "count", "percentage"), rows)


def write_size_groups_csv(path, censuses):
    rows = []
    for census in censuses:
        pct = census.size_group_percentages()
        for group, count in census.size_groups.items():
            rows.append((census.kind, group, str(count), f"{pct[group]:.6f}"))
    _write_csv(path, ("kind", "size_group", "count", "percentage"), rows)


def write_motif_edges(path, censuses):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        sep = ""
        for census in censuses:
            for m in census.motifs:
                n, edges, labels = mot.decode_signature(m.signature)
                head = f"kind={census.kind} rank={m.rank} nodes={n} signature={m.signature}"
                if labels:
                    head += " labels=" + ",".join(labels)
                fh.write(sep + head + "\n")
                fh.writelines(f"{u} -> {v}\n" for u, v in sorted(edges))
                sep = "\n"


def write_distance_stats_csv(path, stats):
    rows = [
        (
            s.kind, s.group, str(s.n_days), str(s.n_trips),
            f"{s.d_hat:.6f}", f"{s.D_hat:.6f}", f"{s.gyradius_home:.6f}",
        )
        for s in stats
    ]
    _write_csv(path, ("kind", "group", "n_days", "n_trips", "d_hat_km", "D_hat_km",
                      "gyradius_home_km"), rows)


def write_density_csv(path, density: shp.ReferenceFrameDensity):
    centers = density.centers()
    mass = density.mass()
    rows = (
        (f"{centers[i]:.6f}", f"{centers[j]:.6f}", f"{mass[i][j]:.10g}")
        for i in range(density.bins) for j in range(density.bins)
    )
    _write_csv(path, ("bin_x_center", "bin_y_center", "mass"), rows)


def artifact_writers(cfg: RunConfig, level: int, tracks=(), users=(),
                     manifest: dict | None = None, mined: Mined | None = None,
                     shaped: Shaped | None = None) -> dict:
    """File name -> writer(path) of every artifact a run up to `level`
    publishes, in publication order: the manifest last.

    The names follow from the stage and the flags alone, so `load_inputs`
    checks them before anything is computed; a writer reads `tracks`,
    `users`, `manifest`, `mined` or `shaped` only when `write_outputs` calls it.
    """
    writers = {"filtered_records.csv": lambda path: write_filtered_records(path, tracks)}
    if cfg.dump_annotations and level >= 2:
        writers["annotations.csv"] = lambda path: write_annotation_dump(path, users)
    if level >= 3:
        writers["census_lbm.csv"] = lambda path: write_census_csv(path, mined.lbm)
        writers["census_abm.csv"] = lambda path: write_census_csv(path, mined.abm)
        writers["size_groups.csv"] = lambda path: write_size_groups_csv(
            path, [mined.lbm, mined.abm])
        writers["motif_edges.txt"] = lambda path: write_motif_edges(path, [mined.lbm, mined.abm])
    if level >= 4:
        writers["distance_stats.csv"] = lambda path: write_distance_stats_csv(path, shaped.stats)
        writers["density.csv"] = lambda path: write_density_csv(path, shaped.density)
        writers["shape_summary.json"] = lambda path: write_json(path, shaped.summary)
        if cfg.zones:
            writers["correlation.json"] = lambda path: write_json(path, shaped.correlation)
    writers["manifest.json"] = lambda path: write_json(path, manifest)
    return writers


def run(cfg: RunConfig, stage: str = "all") -> dict:
    """Execute the chain up to `stage`; returns {"manifest":..., "paths":...}.

    The cyclic collector is paused for the whole run (see the module
    docstring) and its previous state restored, also when a stage raises.
    The stages run in `_run_stages`, so what they built is freed before the
    collector is back on, and its first pass walks only what the run returns.
    """
    if stage not in STAGE_LEVELS:
        raise ValueError(f"unknown stage {stage!r}")
    with gc_paused():
        return _run_stages(cfg, stage)


def _run_stages(cfg: RunConfig, stage: str) -> dict:
    level = STAGE_LEVELS[stage]
    inputs = load_inputs(cfg, level)
    ingested = ingest(cfg, inputs)
    users = process_users(ingested.tracks, inputs.index, cfg, level) if level >= 2 else []
    mined = mine(users, cfg) if level >= 3 else None
    shaped = shape(users, mined.days, inputs.zones, cfg) if level >= 4 else None
    manifest = build_manifest(cfg, stage, inputs, ingested, users, mined)
    writers = artifact_writers(cfg, level, ingested.tracks, users, manifest, mined, shaped)
    paths = write_outputs(Path(cfg.out_dir), writers)
    return {"manifest": manifest, "paths": paths}
