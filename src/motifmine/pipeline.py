"""Stage orchestration: configuration, per-user processing, reports.

Stages build on each other (ingest -> annotate -> mine -> shape); each run
executes the chain up to the requested stage and writes its artifacts plus
a run manifest of per-stage counts. Users are processed independently and
may fan out over worker processes; every reduction happens in sorted user
order, so output bytes never depend on the worker count.
"""

import csv
import hashlib
import io
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import annotate as ann
from . import ingest as ing
from . import motifs as mot
from . import shape as shp
from .geo import normalize_ring, point_in_polygon
from .parcels import ActivityScheme, load_parcels

STAGE_LEVELS = {"ingest": 1, "annotate": 2, "mine": 3, "shape": 4, "all": 4}

# Canonicalizing an n-node network tries up to (n-1)! orderings: 5,040 at 8
# nodes, 11! at motifs.SIGNATURE_NODE_CAP, which still bounds direct calls.
MAX_CENSUS_NODES = 8

CONFIG_CHOICES = {
    "residency_mode": ("span", "active-days"),
    "active_scope": ("day", "user"),
    "density_weight": ("point", "user"),
}

# field -> inclusive (low, high); None leaves that side open
_CONFIG_RANGES = {
    "min_slots": (1, 48),  # half-hour slots in a day
    "night_start_hour": (0, 23),
    "night_end_hour": (0, 23),
    "max_nodes": (1, MAX_CENSUS_NODES),
    "workers": (1, None),
}


@dataclass
class RunConfig:
    records: str = ""
    parcels: str = ""
    boundary: str = ""
    scheme: str = ""
    zones: str = ""
    blocklist: str = ""
    out_dir: str = "out"
    category_attr: str = "category"
    zone_pop_attr: str = "population"
    delimiter: str = ","
    columns: str = ""  # "field=index,..." override of the record schema
    radius_m: float = 250.0
    max_speed_mps: float = 240.0
    min_residency_days: float = 30.0
    residency_mode: str = "span"
    utc_offset_minutes: int = 0
    night_start_hour: int = 21
    night_end_hour: int = 6
    min_slots: int = 6
    weekdays_only: bool = True
    active_scope: str = "day"
    cutoff: float = 0.005
    max_nodes: int = 6
    pin_home: bool = True
    density_bins: int = 80
    density_bound: float = 4.0
    density_weight: str = "point"  # or "user"
    workers: int = 1
    hash_ids: bool = True
    dump_annotations: bool = False

    def __post_init__(self):
        for name, allowed in CONFIG_CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, not {value!r}")
        if not 0.0 <= self.cutoff < 1.0:
            raise ValueError(f"cutoff must be in [0, 1), not {self.cutoff!r}")
        for name, (low, high) in _CONFIG_RANGES.items():
            value = getattr(self, name)
            if value < low or (high is not None and value > high):
                bound = f"in [{low}, {high}]" if high is not None else f">= {low}"
                raise ValueError(f"{name} must be {bound}, not {value!r}")

    def thresholds_echo(self) -> dict:
        skip = {"records", "parcels", "boundary", "scheme", "zones", "blocklist",
                "out_dir", "workers"}
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in skip
        }


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
            out[key] = _coerce(key, value)
    return out


def _coerce(key, value: str):
    proto = getattr(RunConfig(), key)
    if isinstance(proto, bool):
        if value.lower() not in _BOOL_VALUES:
            raise ValueError(f"bad boolean for {key}: {value}")
        return _BOOL_VALUES[value.lower()]
    if isinstance(proto, int):
        return int(value)
    if isinstance(proto, float):
        return float(value)
    return value


def make_config(file_path=None, overrides=None) -> RunConfig:
    """Precedence: explicit overrides > config file > defaults."""
    values = {}
    if file_path:
        values.update(load_config_file(file_path))
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    return RunConfig(**values)


def pseudonymize(user_id: str) -> str:
    return hashlib.sha256(user_id.encode("utf-8")).hexdigest()[:16]


def write_atomic(path, text: str):
    """Write-then-rename so a crashed run never leaves a truncated file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_boundary_ring(path) -> tuple:
    """Exterior ring of the first polygon in a GeoJSON file, as (lat, lon)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("type") == "FeatureCollection":
        doc = doc["features"][0]
    geom = doc.get("geometry", doc)
    if geom.get("type") != "Polygon":
        raise ValueError(f"boundary file {path} does not hold a polygon")
    return normalize_ring((lat, lon) for lon, lat in geom["coordinates"][0])


def load_blocklist(path) -> tuple:
    words = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word = line.strip().lower()
            if word and not word.startswith("#"):
                words.append(word)
    return tuple(words)


def load_zones(path, pop_attr: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    zones = []
    for feat in doc.get("features", []):
        geom = feat.get("geometry") or {}
        if geom.get("type") != "Polygon":
            continue
        rings = [normalize_ring((lat, lon) for lon, lat in ring) for ring in geom["coordinates"]]
        pop = float((feat.get("properties") or {}).get(pop_attr, 0.0))
        zones.append({"exterior": rings[0], "holes": tuple(rings[1:]), "population": pop})
    if not zones:
        raise ValueError(f"no polygon zones in {path}")
    return zones


@dataclass(slots=True)
class DayOutcome:
    date_iso: str
    lbm_nodes: int
    lbm_sig: str | None
    abm_nodes: int
    abm_sig: str | None
    abm_pair: str | None
    trips_km: tuple
    total_km: float
    gyradius_km: float


@dataclass(slots=True)
class UserOutcome:
    user_id: str
    drop: str | None = None  # speed | residency | bot | no_home
    points: list | None = None  # PointRecords for ingest-stage survivors
    annotated_rows: list | None = None
    n_days: int = 0
    n_active_days: int = 0
    rejected_open_walk: int = 0
    rejected_no_home: int = 0
    days: list = field(default_factory=list)  # DayOutcome
    home_parcel_id: int | None = None
    home_rule: str = ""
    home_anchor: tuple | None = None
    normalized: object = None  # (n, 2) array of aligned coordinates
    align_skip: str | None = None


def _day_outcome(day, home, home_anchor, cfg) -> tuple:
    net, reason = mot.build_daily_network(day, home)
    if net is None:
        return None, reason
    reduced = mot.abm_reduce(net)
    max_n = cfg.max_nodes
    lbm_sig = None
    if 1 < net.node_count <= max_n:
        lbm_sig = mot.canonical_signature(net, mot.LBM, cfg.pin_home).signature_string
    abm_sig = None
    if 1 < reduced.node_count <= max_n:
        abm_sig = mot.canonical_signature(reduced, mot.ABM, cfg.pin_home).signature_string
    abm_pair = None
    if reduced.node_count == 2:
        abm_pair = next(lab for lab in reduced.labels if lab != mot.HOME_LABEL)
    trips = tuple(shp.day_trips_km(day))
    anchors = shp.day_anchors(day)
    day_home_anchor = anchors.get(home.home_parcel_id, home_anchor)
    gyr = shp.gyradius_from_home(day, day_home_anchor)
    return (
        DayOutcome(
            day.local_date.isoformat(),
            net.node_count,
            lbm_sig,
            reduced.node_count,
            abm_sig,
            abm_pair,
            trips,
            sum(trips),
            gyr,
        ),
        None,
    )


def process_user(track, index, cfg: RunConfig, level: int) -> UserOutcome:
    out = UserOutcome(track.user_id)
    fcfg = ing.FilterConfig(
        boundary=None,
        keyword_blocklist=(),
        max_speed_mps=cfg.max_speed_mps,
        min_residency_days=cfg.min_residency_days,
        residency_mode=cfg.residency_mode,
    )
    if not ing.speed_filter(track, fcfg).keep:
        out.drop = "speed"
        return out
    if not ing.residency_filter(track, fcfg):
        out.drop = "residency"
        return out
    out.points = track.points
    if level < 2:
        return out

    history = ann.annotate_history(track, index, cfg.utc_offset_minutes, cfg.radius_m)
    if cfg.dump_annotations:
        out.annotated_rows = [
            (p.user_id, p.ts, p.local_ts, p.lat, p.lon, p.parcel_id, p.activity_code)
            for p in history
        ]
    if not ann.stationary_bot_filter(history):
        out.drop = "bot"
        return out

    actives = ann.active_locations(history)
    home = ann.infer_home(history, actives, cfg.night_start_hour, cfg.night_end_hour)
    out.home_parcel_id = home.home_parcel_id
    out.home_rule = home.rule_used

    days = ann.split_days(history)
    out.n_days = len(days)
    active_days = ann.select_active_days(days, cfg.min_slots, cfg.weekdays_only, cfg.active_scope)
    out.n_active_days = len(active_days)

    if home.home_parcel_id is None:
        out.drop = "no_home"
        out.rejected_no_home = len(active_days)
        return out

    home_pts = [(p.lat, p.lon) for p in history if p.parcel_id == home.home_parcel_id]
    out.home_anchor = (
        sum(p[0] for p in home_pts) / len(home_pts),
        sum(p[1] for p in home_pts) / len(home_pts),
    )

    if level < 3:
        return out

    for day in active_days:
        day_out, reason = _day_outcome(day, home, out.home_anchor, cfg)
        if day_out is None:
            if reason == "open_walk":
                out.rejected_open_walk += 1
            else:
                out.rejected_no_home += 1
            continue
        out.days.append(day_out)

    if level < 4:
        return out

    try:
        aligned = shp.align_trajectory([(p.lat, p.lon) for p in history], home=out.home_anchor)
        out.normalized = aligned.points
    except shp.DegenerateTrajectory as exc:
        out.align_skip = exc.reason
    return out


_G_INDEX = None
_G_CFG = None
_G_LEVEL = None


def _pool_init(index, cfg, level):
    global _G_INDEX, _G_CFG, _G_LEVEL
    _G_INDEX = index
    _G_CFG = cfg
    _G_LEVEL = level


def _pool_task(track):
    return process_user(track, _G_INDEX, _G_CFG, _G_LEVEL)


def process_users(tracks, index, cfg: RunConfig, level: int) -> dict:
    """Run the per-user stage chain, serial or in a process pool."""
    if cfg.workers <= 1:
        outcomes = [process_user(t, index, cfg, level) for t in tracks]
    else:
        with ProcessPoolExecutor(
            max_workers=cfg.workers, initializer=_pool_init, initargs=(index, cfg, level)
        ) as pool:
            outcomes = list(pool.map(_pool_task, tracks, chunksize=16))
    return {o.user_id: o for o in outcomes}


def _iso_utc(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _iso_naive(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_filtered_records(path, outcomes_by_user):
    rows = []
    for uid in sorted(outcomes_by_user):
        o = outcomes_by_user[uid]
        if o.points is None:
            continue
        for p in o.points:
            rows.append((uid, _iso_utc(p.ts), f"{p.lat:.7f}", f"{p.lon:.7f}", p.source, p.text))
    write_atomic(path, _csv_text(
        ("user_id", "timestamp", "lat", "lon", "location_source", "text"), rows))


def write_annotation_dump(path, outcomes_by_user):
    rows = []
    for uid in sorted(outcomes_by_user):
        o = outcomes_by_user[uid]
        for r in o.annotated_rows or ():
            rows.append((
                uid, _iso_utc(r[1]), _iso_naive(r[2]), f"{r[3]:.7f}", f"{r[4]:.7f}",
                "" if r[5] is None else r[5], r[6],
            ))
    write_atomic(path, _csv_text(
        ("user_id", "ts_utc", "local_ts", "lat", "lon", "parcel_id", "activity_code"), rows))


def write_census_csv(path, census: mot.MotifCensus):
    rows = [
        (census.kind, m.rank, m.signature, m.node_count, m.count, f"{m.percentage:.6f}")
        for m in census.motifs
    ]
    write_atomic(path, _csv_text(
        ("kind", "rank", "signature", "node_count", "count", "percentage"), rows))


def write_size_groups_csv(path, censuses):
    rows = []
    for census in censuses:
        pct = census.size_group_percentages()
        for group, count in census.size_groups.items():
            rows.append((census.kind, group, count, f"{pct[group]:.6f}"))
    write_atomic(path, _csv_text(("kind", "size_group", "count", "percentage"), rows))


def write_motif_edges(path, censuses):
    blocks = []
    for census in censuses:
        for m in census.motifs:
            n, edges, labels = mot.decode_signature(m.signature)
            head = f"kind={census.kind} rank={m.rank} nodes={n} signature={m.signature}"
            if labels:
                head += " labels=" + ",".join(labels)
            lines = [head] + [f"{u} -> {v}" for u, v in sorted(edges)]
            blocks.append("\n".join(lines))
    write_atomic(path, "\n\n".join(blocks) + ("\n" if blocks else ""))


def write_distance_stats_csv(path, stats):
    rows = [
        (
            s.kind, s.group, s.n_days, s.n_trips,
            f"{s.d_hat:.6f}", f"{s.D_hat:.6f}", f"{s.gyradius_home:.6f}",
        )
        for s in stats
    ]
    write_atomic(path, _csv_text(
        ("kind", "group", "n_days", "n_trips", "d_hat_km", "D_hat_km", "gyradius_home_km"), rows))


def write_density_csv(path, density: shp.ReferenceFrameDensity):
    centers = density.centers()
    mass = density.mass()
    rows = []
    for i in range(density.bins):
        for j in range(density.bins):
            rows.append((f"{centers[i]:.6f}", f"{centers[j]:.6f}", f"{mass[i, j]:.10g}"))
    write_atomic(path, _csv_text(("bin_x_center", "bin_y_center", "mass"), rows))


def _zone_correlation(zones, outcomes_by_user):
    anchors = [
        o.home_anchor
        for uid, o in sorted(outcomes_by_user.items())
        if o.home_anchor is not None and o.drop is None
    ]
    counts = []
    pops = []
    for zone in zones:
        n = sum(
            1 for a in anchors if point_in_polygon(a[0], a[1], zone["exterior"], zone["holes"])
        )
        counts.append(n)
        pops.append(zone["population"])
    return shp.correlation_report(pops, counts)


def run(cfg: RunConfig, stage: str = "all") -> dict:
    """Execute the chain up to `stage`; returns {"manifest":..., "paths":...}."""
    if stage not in STAGE_LEVELS:
        raise ValueError(f"unknown stage {stage!r}")
    level = STAGE_LEVELS[stage]
    out_dir = Path(cfg.out_dir)
    for path_field in ("records", "parcels"):
        value = getattr(cfg, path_field)
        if not value or not Path(value).exists():
            raise FileNotFoundError(f"missing {path_field} file: {value or '(unset)'}")

    scheme = ActivityScheme.from_file(cfg.scheme) if cfg.scheme else ActivityScheme()
    index, load_report = load_parcels(cfg.parcels, scheme, cfg.category_attr)

    boundary = load_boundary_ring(cfg.boundary) if cfg.boundary else None
    blocklist = load_blocklist(cfg.blocklist) if cfg.blocklist else ing.DEFAULT_BLOCKLIST

    schema = ing.RecordSchema(delimiter=cfg.delimiter)
    if cfg.columns:
        schema.columns = ing.parse_schema_columns(cfg.columns)
    records, parse_report = ing.parse_records_path(cfg.records, schema)
    if cfg.hash_ids:
        for rec in records:
            rec.user_id = pseudonymize(rec.user_id)

    fcfg = ing.FilterConfig(
        boundary=boundary,
        keyword_blocklist=blocklist,
        max_speed_mps=cfg.max_speed_mps,
        min_residency_days=cfg.min_residency_days,
        residency_mode=cfg.residency_mode,
    )
    filtered = ing.prefilter(records, fcfg)
    tracks = ing.group_tracks(filtered)

    outcomes = process_users(tracks, index, cfg, level)
    ordered = [outcomes[uid] for uid in sorted(outcomes)]

    drops = {"speed": 0, "residency": 0, "bot": 0, "no_home": 0}
    for o in ordered:
        if o.drop:
            drops[o.drop] += 1
    users_total = len(ordered)
    users_after_speed = users_total - drops["speed"]
    users_after_residency = users_after_speed - drops["residency"]
    users_after_bot = users_after_residency - drops["bot"]
    users_with_home = users_after_bot - drops["no_home"]

    manifest = {
        "config": cfg.thresholds_echo(),
        "stage": stage,
        "parse": {
            "lines": parse_report.lines,
            "records": parse_report.records,
            "malformed": parse_report.malformed,
            "bad_coord": parse_report.bad_coord,
            "geocoded": parse_report.geocoded,
        },
        "prefilter": {"records": len(filtered)},
        "parcels": {
            "features": load_report.total_features,
            "loaded": load_report.loaded,
            "skipped_invalid": load_report.skipped_invalid,
            "per_code": {str(k): v for k, v in sorted(load_report.per_code.items())},
        },
        "users": {
            "total": users_total,
            "after_speed": users_after_speed,
            "after_residency": users_after_residency,
            "after_bot_filter": users_after_bot,
            "with_home": users_with_home,
        },
    }

    paths = {}
    paths["filtered_records"] = out_dir / "filtered_records.csv"
    write_filtered_records(paths["filtered_records"], outcomes)

    if level >= 2:
        manifest["days"] = {
            "total": sum(o.n_days for o in ordered),
            "active": sum(o.n_active_days for o in ordered),
        }
        if cfg.dump_annotations:
            paths["annotations"] = out_dir / "annotations.csv"
            write_annotation_dump(paths["annotations"], outcomes)

    censuses = []
    day_list = []
    if level >= 3:
        day_list = [d for o in ordered for d in o.days]
        lbm_census = mot.census_from_signatures(
            [(d.lbm_nodes, d.lbm_sig) for d in day_list], mot.LBM, cfg.cutoff, cfg.max_nodes
        )
        abm_census = mot.census_from_signatures(
            [(d.abm_nodes, d.abm_sig) for d in day_list], mot.ABM, cfg.cutoff, cfg.max_nodes
        )
        censuses = [lbm_census, abm_census]
        manifest["days"]["rejected_open_walk"] = sum(o.rejected_open_walk for o in ordered)
        manifest["days"]["rejected_no_home"] = sum(o.rejected_no_home for o in ordered)
        manifest["days"]["networks"] = len(day_list)
        manifest["census"] = {
            c.kind: {
                "total": c.total,
                "one_node": c.one_node_count,
                "motifs": len(c.motifs),
                "size_groups": dict(c.size_groups),
            }
            for c in censuses
        }
        paths["census_lbm"] = out_dir / "census_lbm.csv"
        paths["census_abm"] = out_dir / "census_abm.csv"
        write_census_csv(paths["census_lbm"], lbm_census)
        write_census_csv(paths["census_abm"], abm_census)
        paths["size_groups"] = out_dir / "size_groups.csv"
        write_size_groups_csv(paths["size_groups"], censuses)
        paths["motif_edges"] = out_dir / "motif_edges.txt"
        write_motif_edges(paths["motif_edges"], censuses)

    if level >= 4:
        metrics = [
            shp.DayMetrics(d.lbm_nodes, d.abm_nodes, d.abm_pair, d.trips_km, d.total_km,
                           d.gyradius_km)
            for d in day_list
        ]
        stats = shp.distance_stats(metrics, cfg.max_nodes)
        paths["distance_stats"] = out_dir / "distance_stats.csv"
        write_distance_stats_csv(paths["distance_stats"], stats)

        streams = [o.normalized for o in ordered if o.normalized is not None]
        if cfg.density_weight == "user":
            density = _user_weighted_density(streams, cfg.density_bins, cfg.density_bound)
        else:
            density = shp.density_histogram(streams, cfg.density_bins, cfg.density_bound)
        paths["density"] = out_dir / "density.csv"
        write_density_csv(paths["density"], density)

        skip_counts = {}
        for o in ordered:
            if o.align_skip:
                skip_counts[o.align_skip] = skip_counts.get(o.align_skip, 0) + 1
        gyr_values = [d.gyradius_km for d in day_list]
        summary = {
            "aligned_users": len(streams),
            "skipped_users": skip_counts,
            "points_total": int(density.total),
            "points_in_range": int(density.in_range),
            "out_of_range_mass": density.out_of_range_mass(),
            "mean_daily_gyradius_km": (sum(gyr_values) / len(gyr_values)) if gyr_values else 0.0,
        }
        paths["shape_summary"] = out_dir / "shape_summary.json"
        write_atomic(paths["shape_summary"], json.dumps(summary, indent=2, sort_keys=True) + "\n")

        if cfg.zones:
            zones = load_zones(cfg.zones, cfg.zone_pop_attr)
            report = _zone_correlation(zones, outcomes)
            paths["correlation"] = out_dir / "correlation.json"
            write_atomic(paths["correlation"], json.dumps(report, indent=2, sort_keys=True) + "\n")

    paths["manifest"] = out_dir / "manifest.json"
    write_atomic(paths["manifest"], json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return {"manifest": manifest, "paths": paths}


class _UserWeightedDensity:
    """Density where each user's trajectory contributes equal mass."""

    def __init__(self, bins, bound, mass_grid, in_range, out_range):
        self.bins = bins
        self.bound = bound
        self._mass = mass_grid
        self.in_range = in_range
        self.out_range = out_range

    @property
    def total(self):
        return self.in_range + self.out_range

    def mass(self):
        return self._mass

    def out_of_range_mass(self) -> float:
        return self.out_range / self.total if self.total else 0.0

    def centers(self):
        cell = 2.0 * self.bound / self.bins
        return -self.bound + cell * (np.arange(self.bins) + 0.5)


def _user_weighted_density(streams, bins, bound):
    mass = np.zeros((bins, bins), dtype=float)
    total_in = 0
    total = 0
    n_users = 0
    cell = 2.0 * bound / bins
    for arr in streams:
        arr = np.asarray(arr, dtype=float).reshape(-1, 2)
        total += len(arr)
        if not len(arr):
            continue
        n_users += 1
        x, y = arr[:, 0], arr[:, 1]
        mask = (x >= -bound) & (x < bound) & (y >= -bound) & (y < bound)
        total_in += int(mask.sum())
        ix = np.clip(np.floor((x[mask] + bound) / cell).astype(np.int64), 0, bins - 1)
        iy = np.clip(np.floor((y[mask] + bound) / cell).astype(np.int64), 0, bins - 1)
        grid = np.zeros((bins, bins), dtype=float)
        np.add.at(grid, (ix, iy), 1.0)
        mass += grid / len(arr)
    if n_users:
        mass /= n_users
    return _UserWeightedDensity(bins, bound, mass, total_in, total - total_in)
