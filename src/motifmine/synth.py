"""Deterministic synthetic city and population generator.

Builds a rectangular parcel grid, plants users whose weekday routines
follow configured stop templates at exact spacings from home, and emits
the same file formats the pipeline consumes, together with a ground-truth
file holding the census and distance statistics the pipeline must
recover. Non-human actors (stationary broadcasters, teleporters) and
short-stay visitors are generated so that each fails exactly one filter.

All randomness derives from per-entity generators seeded from the run
seed, so output is byte-identical for identical configs and legitimate
users' records do not change when noise actors are added. A world is built
in memory and then published all-or-nothing (see `publish`), the ground
truth last, so a bad config or a failed write leaves the previous world as
it was.
"""

import json
import math
import random
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .geo import METERS_PER_DEGREE
from .ingest import format_timestamp
from .motifs import (
    ABM,
    ACTIVITY_LABELS,
    LBM,
    SIGNATURE_NODE_CAP,
    abm_reduce,
    canonical_signature,
    network_from_label_walk,
)
from .parcels import CODE_NAMES
from .publish import check_targets, write_outputs
from .shape import day_metrics, distance_stats

# Monday 00:00 UTC anchor so weekday filtering is predictable
EPOCH = int(datetime(2014, 6, 2, tzinfo=timezone.utc).timestamp())

# stop-token label -> land-use category written to the parcel file; the
# shared "Se" label takes the last of its codes, Civic/Religious
LABEL_CATEGORIES = {lab: CODE_NAMES[code] for code, lab in ACTIVITY_LABELS.items()}

# grid fill fractions per activity code (urban mix heavy on residential)
DEFAULT_ACTIVITY_MIX = {
    1: 0.7415, 2: 0.0012, 3: 0.1236, 4: 0.0079, 5: 0.0015, 6: 0.0271,
    7: 0.0050, 8: 0.0191, 9: 0.0007, 10: 0.0085, 11: 0.0349, 12: 0.0290,
}


@dataclass(slots=True)
class TemplateSpec:
    """A daily routine: a walk of stop tokens and the home-to-stop spacing.

    Tokens are stop identities, read by `motifs.network_from_label_walk`: the alphabetic
    prefix is the label, so ("H", "R1", "H", "R2", "H") visits two distinct residences.
    """

    walk: tuple
    weight: float
    spacing_km: float = 3.0


@dataclass(slots=True)
class BotSpec:
    stationary: int = 0
    teleporter: int = 0


@dataclass(slots=True)
class SynthConfig:
    seed: int = 42
    grid_side: int = 140
    cell_m: float = 60.0
    origin: tuple = (41.40, -88.10)  # grid southwest corner
    activity_mix: dict = field(default_factory=lambda: dict(DEFAULT_ACTIVITY_MIX))
    num_users: int = 300
    templates: tuple = (
        TemplateSpec(("H", "W", "H"), 0.50),
        TemplateSpec(("H", "W", "Sh", "H"), 0.25),
        TemplateSpec(("H", "R1", "H", "R2", "H"), 0.15),
        TemplateSpec(("H",), 0.10),
    )
    tweets_per_day: tuple = (8, 14)
    bots: BotSpec = field(default_factory=BotSpec)
    tourist_count: int = 0
    days: int = 20  # active weekdays per resident

    def validate(self) -> list:
        """Raise ValueError for a config no world fits; return each template's network."""
        for flag, value, low in (("users", self.num_users, 1), ("days", self.days, 1),
                                 ("tourists", self.tourist_count, 0),
                                 ("stationary-bots", self.bots.stationary, 0),
                                 ("teleporters", self.bots.teleporter, 0)):
            if value < low:
                raise ValueError(f"--{flag} must be at least {low}, got {value}")
        if self.bots.stationary > self.grid_side - 2:  # they share one grid row
            raise ValueError(f"--stationary-bots must be at most {self.grid_side - 2}")
        if abs(sum(t.weight for t in self.templates) - 1.0) > 1e-9:
            raise ValueError("template weights must sum to 1")
        nets = []
        for t in self.templates:
            if not (t.spacing_km > 0 and math.isfinite(t.spacing_km)):
                raise ValueError(f"template spacing_km must be finite and > 0, "
                                 f"got {t.spacing_km}: {t.walk}")
            if not t.weight >= 0:
                raise ValueError(f"template weight must not be negative, got {t.weight}: {t.walk}")
            net = network_from_label_walk(t.walk)
            if net.node_count > SIGNATURE_NODE_CAP:
                raise ValueError(f"template walk has {net.node_count} nodes, above the "
                                 f"signature cap {SIGNATURE_NODE_CAP}: {t.walk}")
            for tok, label in zip(net.node_keys[1:], net.labels[1:]):
                if label not in LABEL_CATEGORIES:
                    raise ValueError(f"template stop {tok!r} has no activity label: {t.walk}")
            nets.append(net)
        if self.tweets_per_day[0] > self.tweets_per_day[1]:
            raise ValueError(f"tweets_per_day low end exceeds its high end: {self.tweets_per_day}")
        longest = max(len(t.walk) for t in self.templates)
        if self.tweets_per_day[1] < 2 * longest + 2:
            raise ValueError(
                f"template with {longest} visits does not fit in "
                f"tweets_per_day budget {self.tweets_per_day}"
            )
        return nets


@dataclass(slots=True)
class GroundTruth:
    num_users: int
    days: int
    users: dict  # raw user id -> {template, home_cell, home_parcel_id}
    templates: list  # per template: walk, users, signatures
    expected_census: dict  # kind -> {"one_node_pct": x, "motifs": {sig: pct}}
    expected_distance_stats: list  # dicts mirroring DistanceStats fields

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _weekday_calendar_day(k: int) -> int:
    """Calendar-day offset of the k-th active weekday from the Monday epoch."""
    return (k // 5) * 7 + (k % 5)


class _World:
    """Grid bookkeeping: cell geometry, reserved categories, parcel ids."""

    def __init__(self, cfg: SynthConfig):
        self.cfg = cfg
        side = cfg.grid_side
        self.side = side
        self.dlat = cfg.cell_m / METERS_PER_DEGREE
        center_lat = cfg.origin[0] + side / 2.0 * self.dlat
        self.coslat = math.cos(math.radians(center_lat))
        self.dlon = cfg.cell_m / (METERS_PER_DEGREE * self.coslat)
        self.assigned: dict = {}  # (r, c) -> category name

    def reserve(self, cell, category):
        prev = self.assigned.get(cell)
        if prev is not None and prev != category:
            raise ValueError(f"cell {cell} demanded as both {prev!r} and {category!r}")
        self.assigned[cell] = category

    def parcel_id(self, cell) -> int:
        r, c = cell
        return r * self.side + c + 1  # ids are assigned row-major at load

    def cell_bounds(self, cell):
        r, c = cell
        olat, olon = self.cfg.origin
        return (olat + r * self.dlat, olon + c * self.dlon,
                olat + (r + 1) * self.dlat, olon + (c + 1) * self.dlon)

    def point_in_cell(self, cell, rng: random.Random):
        lat0, lon0, lat1, lon1 = self.cell_bounds(cell)
        u = 0.05 + 0.90 * rng.random()
        v = 0.05 + 0.90 * rng.random()
        return lat0 + u * (lat1 - lat0), lon0 + v * (lon1 - lon0)

    def cell_center(self, cell):
        lat0, lon0, lat1, lon1 = self.cell_bounds(cell)
        return (lat0 + lat1) / 2.0, (lon0 + lon1) / 2.0

    def category_for(self, cell) -> str:
        if cell in self.assigned:
            return self.assigned[cell]
        rng = random.Random(f"{self.cfg.seed}/cell/{cell[0]}/{cell[1]}")
        codes = sorted(self.cfg.activity_mix)
        weights = [self.cfg.activity_mix[c] for c in codes]
        return CODE_NAMES[rng.choices(codes, weights=weights, k=1)[0]]


def _home_slots(cfg: SynthConfig, spacing_cells: int):
    margin = spacing_cells + 2
    lo, hi = margin, cfg.grid_side - 1 - margin
    if hi <= lo:
        raise ValueError("grid too small for the configured spacing")
    slots = []
    for r in range(2, cfg.grid_side - 5, 4):
        for c in range(lo, hi + 1, 2):
            slots.append((r, c))
    return slots


def _spacing_cells(template: TemplateSpec, cfg: SynthConfig) -> int:
    return round(template.spacing_km * 1000.0 / cfg.cell_m)


def _stop_cell(home, stop_index: int, spacing_cells: int):
    r, c = home
    direction = 1 if stop_index % 2 == 0 else -1
    return (r + stop_index // 2, c + direction * spacing_cells)


def _settle(world, template: TemplateSpec, net, home) -> list:
    """Reserve a home and its stops' cells (net's nodes after home); return each visit's cell."""
    world.reserve(home, "Residential")
    spacing_cells = _spacing_cells(template, world.cfg)
    cells = {"H": home}
    for i, (tok, label) in enumerate(zip(net.node_keys[1:], net.labels[1:])):
        cells[tok] = _stop_cell(home, i, spacing_cells)
        world.reserve(cells[tok], LABEL_CATEGORIES[label])
    return [cells[tok] for tok in template.walk]


def _template_counts(cfg: SynthConfig, total: int) -> list:
    """Largest-remainder apportionment of users over template weights."""
    raw = [t.weight * total for t in cfg.templates]
    counts = [int(x) for x in raw]
    short = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - int(raw[i])), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def _record(user_id, ts, lat, lon) -> str:
    """One records.csv line: a GPS fix with no message text."""
    return f"{user_id},{format_timestamp(ts)},{lat:.7f},{lon:.7f},gps,"


def _visit_schedule(n_visits: int):
    """Minute-of-day tweet times per visit; >= 6 distinct half-hour slots."""
    if n_visits == 1:
        return [[7 * 60, 7 * 60 + 40, 12 * 60, 19 * 60, 21 * 60 + 10, 21 * 60 + 50, 22 * 60 + 30]]
    windows = [[7 * 60, 7 * 60 + 40]]
    for j in range(n_visits - 2):
        start = 9 * 60 + j * 75
        windows.append([start, start + 35])
    windows.append([19 * 60, 21 * 60 + 10, 21 * 60 + 50, 22 * 60 + 30])
    return windows


def _day_records(world, rng, user_id, day_ts, visit_cells, tweets_target):
    """Emit one active day: each visit in order, extras folded into visits."""
    windows = _visit_schedule(len(visit_cells))
    base = sum(len(w) for w in windows)
    extras = max(0, tweets_target - base)
    extra_per_visit = [0] * len(visit_cells)
    for k in range(extras):
        i = k % len(visit_cells)
        if extra_per_visit[i] < 4:
            extra_per_visit[i] += 1
    rows = []
    for i, cell in enumerate(visit_cells):
        minutes = list(windows[i])
        minutes += [windows[i][0] + 7 * (k + 1) for k in range(extra_per_visit[i])]
        for m in sorted(minutes):
            lat, lon = world.point_in_cell(cell, rng)
            rows.append((day_ts + m * 60, lat, lon))
    return [_record(user_id, ts, lat, lon) for ts, lat, lon in sorted(rows)]


def _anchor_day_records(world, rng, user_id, cal_day, cell):
    """Sparse presence day: extends the observation span past the residency
    minimum without adding an active (six-slot) day."""
    day_ts = EPOCH + cal_day * 86400
    rows = []
    for m in (12 * 60, 12 * 60 + 10):
        lat, lon = world.point_in_cell(cell, rng)
        rows.append(_record(user_id, day_ts + m * 60, lat, lon))
    return rows


def _resident_records(world, cfg, rng, user_id, visit_cells, active_days, anchor: bool):
    lines = []
    last_cal = 0
    for k in range(active_days):
        cal = _weekday_calendar_day(k)
        last_cal = cal
        target = rng.randint(*cfg.tweets_per_day)
        lines.extend(_day_records(world, rng, user_id, EPOCH + cal * 86400, visit_cells, target))
    if anchor:
        anchor_cal = max(35, ((last_cal // 7) + 1) * 7)
        lines.extend(_anchor_day_records(world, rng, user_id, anchor_cal, visit_cells[0]))
    return lines


def _expected_truth(cfg: SynthConfig, nets, counts, assignments, world):
    """Census and distance expectations from the config and its template networks."""
    total_days = cfg.num_users * cfg.days
    census = {LBM: {"one_node_pct": 0.0, "motifs": {}}, ABM: {"one_node_pct": 0.0, "motifs": {}}}
    templates_doc = []
    metrics = []
    for idx, (template, net) in enumerate(zip(cfg.templates, nets)):
        reduced = abm_reduce(net)
        lbm_sig = canonical_signature(net)
        abm_sig = canonical_signature(reduced)
        pct = 100.0 * counts[idx] * cfg.days / total_days
        for kind, n, sig in ((LBM, net.node_count, lbm_sig), (ABM, reduced.node_count, abm_sig)):
            if n == 1:
                census[kind]["one_node_pct"] += pct
            else:
                census[kind]["motifs"][sig] = census[kind]["motifs"].get(sig, 0.0) + pct
        templates_doc.append(
            {
                "walk": list(template.walk),
                "weight": template.weight,
                "spacing_km": template.spacing_km,
                "users": counts[idx],
                "lbm_signature": lbm_sig,
                "abm_signature": abm_sig,
                "lbm_nodes": net.node_count,
                "abm_nodes": reduced.node_count,
            }
        )
        # ideal geometry: (east, north) cell-center offsets in m of each visit
        # from a home at cell (0, 0)
        spacing_cells = _spacing_cells(template, cfg)
        offsets = {"H": (0.0, 0.0)}
        for i, tok in enumerate(net.node_keys[1:]):
            row, col = _stop_cell((0, 0), i, spacing_cells)
            offsets[tok] = (col * cfg.cell_m, row * cfg.cell_m)
        pos = [offsets[tok] for tok in template.walk]
        trips = tuple(
            math.hypot(b[0] - a[0], b[1] - a[1]) / 1000.0 for a, b in zip(pos, pos[1:])
        )
        gyr = math.sqrt(sum(p[0] ** 2 + p[1] ** 2 for p in pos) / len(pos)) / 1000.0
        metrics.extend([day_metrics(net, reduced, trips, gyr)] * (counts[idx] * cfg.days))
    expected_stats = [
        {
            "kind": s.kind,
            "group": s.group,
            "d_hat": s.d_hat,
            "D_hat": s.D_hat,
            "gyradius_home": s.gyradius_home,
        }
        for s in distance_stats(metrics)
    ]
    users_doc = {
        uid: {
            "template": t_idx,
            "home_cell": list(home),
            "home_parcel_id": world.parcel_id(home),
        }
        for uid, (t_idx, home) in assignments.items()
    }
    return GroundTruth(cfg.num_users, cfg.days, users_doc, templates_doc, census, expected_stats)


def _rect_feature(lat0, lon0, lat1, lon1, properties) -> dict:
    """A GeoJSON Feature of the closed ring of a lat/lon rectangle."""
    ring = [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1], [lon0, lat0]]
    geometry = {"type": "Polygon", "coordinates": [ring]}
    return {"type": "Feature", "properties": properties, "geometry": geometry}


def _parcels_json(world) -> str:
    features = [
        _rect_feature(*world.cell_bounds((r, c)), {"category": world.category_for((r, c))})
        for r in range(world.side) for c in range(world.side)
    ]
    return json.dumps({"type": "FeatureCollection", "features": features})


def _boundary_json(world) -> str:
    """The grid's extent padded by 0.02 degrees on every side."""
    olat, olon = world.cfg.origin
    pad = 0.02
    return json.dumps(_rect_feature(olat - pad, olon - pad, olat + world.side * world.dlat + pad,
                                    olon + world.side * world.dlon + pad, {}))


def _scheme_tsv() -> str:
    return "".join(f"{name}\t{code}\n" for code, name in sorted(CODE_NAMES.items()))


def _world_writers(world=None, lines=(), truth=None) -> dict:
    """File name -> writer(path) of each world file, in publication order:
    the ground truth last. The names are fixed, so `generate` checks them
    before the world is built; a writer builds its text only when called."""
    return {
        "parcels.geojson": lambda path: path.write_text(_parcels_json(world), encoding="utf-8"),
        "records.csv": lambda path: path.write_text("\n".join(lines) + "\n", encoding="utf-8"),
        "boundary.geojson": lambda path: path.write_text(_boundary_json(world), encoding="utf-8"),
        "scheme.tsv": lambda path: path.write_text(_scheme_tsv(), encoding="utf-8"),
        "ground_truth.json": lambda path: path.write_text(truth.to_json(), encoding="utf-8"),
    }


def generate(cfg: SynthConfig, out_dir) -> dict:
    """Generate the synthetic world under out_dir.

    Writes parcels.geojson, records.csv, boundary.geojson, scheme.tsv and
    ground_truth.json; returns their paths, keyed by file stem, plus the
    GroundTruth object. A bad config or out_dir raises ValueError before
    anything is written.
    """
    nets = cfg.validate()
    check_targets(out_dir, _world_writers())
    world = _World(cfg)

    max_spacing_cells = max(_spacing_cells(t, cfg) for t in cfg.templates)
    slots = _home_slots(cfg, max_spacing_cells)
    needed = cfg.num_users + cfg.tourist_count
    if needed > len(slots):
        raise ValueError(f"{needed} homes requested, grid fits {len(slots)}")

    counts = _template_counts(cfg, cfg.num_users)
    template_of_user = [i for i, n in enumerate(counts) for _ in range(n)]

    # reserve home and stop categories; records.csv holds the residents,
    # then the tourists, then the bots
    assignments = {}
    slot_iter = iter(slots)
    lines = []
    for u, t_idx in enumerate(template_of_user):
        uid = f"u{u:04d}"
        home = next(slot_iter)
        assignments[uid] = (t_idx, home)
        visit_cells = _settle(world, cfg.templates[t_idx], nets[t_idx], home)
        rng = random.Random(f"{cfg.seed}/user/{u}")
        lines.extend(
            _resident_records(world, cfg, rng, uid, visit_cells, cfg.days, anchor=True)
        )

    for k in range(cfg.tourist_count):
        uid = f"tour{k:04d}"
        t_idx = k % len(cfg.templates)
        visit_cells = _settle(world, cfg.templates[t_idx], nets[t_idx], next(slot_iter))
        rng = random.Random(f"{cfg.seed}/tourist/{k}")
        lines.extend(
            _resident_records(world, cfg, rng, uid, visit_cells, min(5, cfg.days), anchor=False)
        )

    anchor_ts = EPOCH + 42 * 86400 + 12 * 3600  # each bot's last record
    for k in range(cfg.bots.stationary):
        uid = f"bot{k:04d}"
        cell = (cfg.grid_side - 2, 2 + k)
        world.reserve(cell, "Office/Workplace")
        center = world.cell_center(cell)
        for d in range(30):
            day_ts = EPOCH + _weekday_calendar_day(d) * 86400
            for hour in range(9, 17):
                lines.append(_record(uid, day_ts + hour * 3600, *center))
        lines.append(_record(uid, anchor_ts, *center))

    corner_a, corner_b = (0, 0), (0, cfg.grid_side - 1)
    for cell in (corner_a, corner_b):
        world.reserve(cell, "Office/Workplace")
    pa, pb = world.cell_center(corner_a), world.cell_center(corner_b)
    for k in range(cfg.bots.teleporter):
        uid = f"tp{k:04d}"
        for d in range(30):
            day_ts = EPOCH + _weekday_calendar_day(d) * 86400 + 9 * 3600
            for j, point in enumerate((pa, pb, pa, pb)):
                lines.append(_record(uid, day_ts + j * 20, *point))
        lines.append(_record(uid, anchor_ts, *pa))

    truth = _expected_truth(cfg, nets, counts, assignments, world)
    paths = write_outputs(Path(out_dir), _world_writers(world, lines, truth))
    return {"paths": paths, "ground_truth": truth}
