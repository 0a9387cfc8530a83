"""Parsing and context-free filtering of raw point-record streams.

The filter chain is fixed: parse -> prefilter (dedup, boundary clip,
keyword blocklist) -> per-user speed filter -> per-user residency filter.
The dedup key holds the user id, so the pipeline prefilters each user's
records on their own and finds the same duplicates for any record order,
users interleaved or not. Land-use dependent filtering lives in
:mod:`motifmine.annotate`.
"""

import csv
import functools
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timezone

from .geo import METERS_PER_DEGREE, haversine_m, point_in_ring, ring_self_intersects

DEFAULT_BLOCKLIST = ("job", "jobs", "hiring", "recruiting", "traffic", "weather alert")

RESIDENCY_MODES = ("span", "active-days")

GPS = "gps"
GEOCODED = "geocoded"


@dataclass(slots=True)
class PointRecord:
    """One timestamped GPS fix of one user; `parse_records` keeps no other."""

    user_id: str
    ts: int  # UTC epoch seconds
    lat: float
    lon: float
    text: str = ""


@dataclass(slots=True)
class UserTrack:
    user_id: str
    points: list  # PointRecord, non-decreasing ts


SCHEMA_FIELDS = ("user_id", "timestamp", "lat", "lon", "location_source", "text")


@dataclass(slots=True)
class RecordSchema:
    """Column layout of the delimited input stream."""

    delimiter: str = ","
    columns: dict = field(default_factory=lambda: {f: i for i, f in enumerate(SCHEMA_FIELDS)})


def parse_schema_columns(spec: str) -> dict:
    """Column map from a "field=index,..." string; text is optional."""
    columns = {}
    for part in spec.split(","):
        name, sep, idx = (s.strip() for s in part.partition("="))
        if not sep or name not in SCHEMA_FIELDS or not idx.isdigit():
            raise ValueError(f"bad schema column entry: {part!r}")
        if name in columns:
            raise ValueError(f"schema column {name!r} given twice")
        for other, other_idx in columns.items():
            if other_idx == int(idx):
                raise ValueError(f"schema columns {other!r} and {name!r} share column {idx}")
        columns[name] = int(idx)
    missing = [f for f in SCHEMA_FIELDS if f != "text" and f not in columns]
    if missing:
        raise ValueError(f"schema columns missing fields: {missing}")
    return columns


@dataclass(slots=True)
class ParseReport:
    lines: int = 0
    records: int = 0
    malformed: int = 0
    bad_coord: int = 0
    geocoded: int = 0


@dataclass(slots=True)
class FilterConfig:
    boundary: tuple | None = None  # (lat, lon) ring without repeated last vertex
    keyword_blocklist: tuple = DEFAULT_BLOCKLIST
    max_speed_mps: float = 240.0
    min_residency_days: float = 30.0
    residency_mode: str = "span"  # or "active-days"

    def __post_init__(self):
        if not self.max_speed_mps > 0:
            raise ValueError("max_speed_mps must be positive")
        if not 0 < self.min_residency_days < float("inf"):
            raise ValueError("min_residency_days must be positive and finite")
        if self.residency_mode not in RESIDENCY_MODES:
            raise ValueError(f"unknown residency_mode {self.residency_mode!r}")
        if self.boundary is not None:
            if len(self.boundary) < 3 or ring_self_intersects(self.boundary):
                raise ValueError("boundary must be a simple polygon ring")
        self.keyword_blocklist = tuple(k.lower() for k in self.keyword_blocklist)


@dataclass(slots=True)
class SpeedDecision:
    keep: bool
    offender: tuple | None = None  # (PointRecord, PointRecord) of the violating pair
    speed_mps: float | None = None


# A record's UTC date must lie strictly between the first and the last date
# datetime can hold, so that its local date under any UTC offset of up to a
# day (RunConfig.utc_offset_minutes) exists too.
_MIN_TS = int(datetime(1, 1, 2, tzinfo=timezone.utc).timestamp())
_END_TS = int(datetime(9999, 12, 31, tzinfo=timezone.utc).timestamp())


def parse_timestamp(raw: str) -> int:
    """ISO-8601 string to UTC epoch seconds. Naive timestamps are taken as UTC.

    Raises ValueError for a timestamp whose UTC date is the first or the
    last representable one, or outside them.
    """
    s = raw.strip()
    if s.endswith(("Z", "z")):
        s = s[:-1] + "+00:00"
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    ts = int(dt.timestamp())
    if not _MIN_TS <= ts < _END_TS:
        raise ValueError(f"timestamp out of range: {raw!r}")
    return ts


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_HH_MM = tuple(f"{h:02d}:{m:02d}:" for h in range(24) for m in range(60))
_SS = tuple(f"{s:02d}" for s in range(60))


@functools.lru_cache(maxsize=4096)
def _iso_day(day: int) -> str:
    """The ISO date "YYYY-MM-DD" of epoch day `day`, followed by "T"."""
    return date.fromordinal(day + _EPOCH_ORDINAL).isoformat() + "T"


def format_timestamp(ts: int, zone: str = "Z") -> str:
    """Epoch seconds to the ISO-8601 form "YYYY-MM-DDTHH:MM:SS" + zone.

    The year always has four digits. zone="" gives the naive form that local
    times are written in. Records are written user by user in time order,
    so consecutive calls mostly share a day and the date part comes from a
    cache; the time part is two table lookups.
    """
    return _iso_day(ts // 86400) + _HH_MM[ts % 86400 // 60] + _SS[ts % 60] + zone


# what errors="surrogateescape" decodes a byte that is not UTF-8 to
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _line_rows(lines, delimiter):
    """One row per physical line: its fields, or None for a line that cannot
    be split, such as one holding a field longer than csv.field_size_limit()
    or one whose quoted field is still open at its end. A line that is not
    UTF-8 is handed to the reader as an empty line, which yields no fields.

    A quoted field ends at the end of its line: when the reader asks for
    more of an open row, it is handed a closing quote instead of the next
    line, and that row is reported as None.
    """
    in_row = False  # a line was handed out and its row is not yet returned
    open_quote = False

    def feed():
        nonlocal in_row, open_quote
        for line in lines:
            in_row = True
            yield "\n" if not line.isascii() and _ESCAPED_BYTE.search(line) else line
            if in_row:  # the reader wants the next line for this one's open quote
                open_quote = True
                yield '"\n'

    reader = csv.reader(feed(), delimiter=delimiter)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error:
            row = None
        in_row = False
        if open_quote:
            open_quote = False
            row = None
        yield row


def parse_records(lines, schema: RecordSchema | None = None):
    """Parse a newline-delimited record stream.

    Malformed lines are skipped and counted, never fatal; a line that is
    not UTF-8 is malformed. A quoted field ends at the end of its line, so
    a line whose quote is still open there is malformed and the next line
    parses on its own. Only GPS fixes are kept: records whose location
    source is the geocoder are dropped and counted separately.

    Returns (records, ParseReport).
    """
    schema = schema or RecordSchema()
    cols = schema.columns
    text_col = cols.get("text")
    report = ParseReport()
    records = []
    user_ids = {}  # one string per distinct user id, shared by its records
    for row in _line_rows(lines, schema.delimiter):
        report.lines += 1
        if not row:
            report.malformed += 1
            continue
        try:
            user_id = row[cols["user_id"]].strip()
            ts = parse_timestamp(row[cols["timestamp"]])
            lat = float(row[cols["lat"]])
            lon = float(row[cols["lon"]])
            source = row[cols["location_source"]].strip().lower()
        except (IndexError, KeyError, ValueError):
            report.malformed += 1
            continue
        if not user_id or source not in (GPS, GEOCODED):
            report.malformed += 1
            continue
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            report.bad_coord += 1
            continue
        if source == GEOCODED:
            report.geocoded += 1
            continue
        text = ""
        if text_col is not None and text_col < len(row):
            text = row[text_col]
        # every record of a user shares the user's first id string
        user_id = user_ids.setdefault(user_id, user_id)
        records.append(PointRecord(user_id, ts, lat, lon, text))
    report.records = len(records)
    return records, report


def parse_records_path(path, schema: RecordSchema | None = None):
    # A byte that is not UTF-8 makes its line malformed instead of raising.
    # Lines end at "\n" alone, so a bare "\r" stays inside its line: in an
    # unquoted field it makes the line malformed, and a quoted one keeps it.
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        return parse_records(fh, schema)


def prefilter(records, cfg: FilterConfig):
    """Dedup, boundary clip and keyword blocklist, preserving record order.

    Duplicates share the full (user, ts, lat, lon) key; the first occurrence
    wins. The keyword match is a case-insensitive substring test against the
    message text.
    """
    seen = set()
    out = []
    boundary = cfg.boundary
    blocklist = cfg.keyword_blocklist
    for rec in records:
        key = (rec.user_id, rec.ts, rec.lat, rec.lon)
        if key in seen:
            continue
        seen.add(key)
        if boundary is not None and not point_in_ring(rec.lat, rec.lon, boundary):
            continue
        if blocklist and rec.text:
            low = rec.text.lower()
            for k in blocklist:
                if k in low:
                    break
            else:
                out.append(rec)
        else:
            out.append(rec)
    return out


# haversine_m gives at most this many meters per degree of |dlat| + |dlon|:
# a path along a meridian and then a parallel is no shorter than the great
# circle, and 1e-6 covers its rounding, up to 7e-9 relative near antipodes.
_SPEED_BOUND_M_PER_DEG = METERS_PER_DEGREE * (1.0 + 1e-6)
# Below ~1e-150 m its squared sines are subnormal and it can read 41 % above
# the bound, so a pair is skipped only when the cap leaves this much room.
_SPEED_BOUND_FLOOR_M = 1e-100


def speed_filter(track: UserTrack, cfg: FilterConfig) -> SpeedDecision:
    """Drop the whole user when any consecutive relocation exceeds the speed cap.

    A zero time gap with nonzero displacement also drops the user; a zero
    gap with zero displacement is ignored (duplicates are removed upstream).
    The threshold is strict: exactly max_speed_mps is kept. A pair whose
    degree-space bound stays below the cap cannot trip it, so its haversine
    distance is not computed.
    """
    pts = track.points
    cap = cfg.max_speed_mps
    for a, b in zip(pts, pts[1:]):
        dt = b.ts - a.ts
        if dt > 0 and (_SPEED_BOUND_M_PER_DEG * (abs(b.lat - a.lat) + abs(b.lon - a.lon))
                       + _SPEED_BOUND_FLOOR_M < cap * dt):
            continue
        dist = haversine_m(a.lat, a.lon, b.lat, b.lon)
        if dt <= 0:
            if dist > 0.0:
                return SpeedDecision(False, (a, b), float("inf"))
            continue
        speed = dist / dt
        if speed > cap:
            return SpeedDecision(False, (a, b), speed)
    return SpeedDecision(True)


def residency_filter(track: UserTrack, cfg: FilterConfig) -> bool:
    """Keep only users observed in the region for more than the residency minimum.

    In "span" mode the criterion is last-minus-first observation time; in
    "active-days" mode it is the count of distinct UTC days with a record.
    Both comparisons are strict.
    """
    if not track.points:
        return False
    if cfg.residency_mode == "active-days":
        days = {p.ts // 86400 for p in track.points}
        return len(days) > cfg.min_residency_days
    span_s = track.points[-1].ts - track.points[0].ts
    return span_s > cfg.min_residency_days * 86400.0
