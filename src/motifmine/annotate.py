"""Geographic-context annotation and land-use dependent user selection.

Each point is joined to its nearest parcel (code 12 when nothing lies
within the search radius), timestamps are shifted to dataset-local time by
a fixed offset, and users/days are selected: stationary broadcasters on
non-residential parcels are dropped, homes are inferred from night-time
activity, and only sufficiently observed local days survive. The passes
over a user's history do no per-point work they can skip: the night window
is tested in integer seconds of the local day, and the day split looks up
a day's list only where the day changes.
"""

from dataclasses import dataclass
from datetime import date, timedelta

from .ingest import UserTrack
from .parcels import OTHERS_CODE, RESIDENTIAL_CODE, SpatialIndex, nearest_parcel

EPOCH_DATE = date(1970, 1, 1)

SLOT_SECONDS = 1800  # 48 half-hour slots per day

ACTIVE_SCOPES = ("day", "user")

# Parcels a user's join tries before `nearest_parcel`: 99 % of the points of
# the benchmark's city and coarse-long worlds fall in one of their user's
# last 8 distinct parcels. A point none of them takes pays one guess test
# per listed parcel, most of them a bbox test, on top of the probe.
RECENT_PARCELS = 8


@dataclass(slots=True)
class AnnotatedPoint:
    ts: int
    lat: float
    lon: float
    parcel_id: int | None
    activity_code: int
    local_ts: int


@dataclass(slots=True)
class HomeAssignment:
    home_parcel_id: int | None
    rule_used: str  # night_mode | top_residential | unknown
    anchor: tuple | None  # (lat, lon) mean of the home parcel's points; None without a home


@dataclass(slots=True)
class UserDay:
    local_date: date
    points: list  # chronological AnnotatedPoint
    slot_count: int


def annotate_history(track: UserTrack, index: SpatialIndex, utc_offset_minutes: int,
                     radius_m: float = 250.0) -> list:
    """Attach parcel context and local time to every point, order preserved.

    A point is joined as `nearest_parcel` joins it. A user keeps returning
    to a few places, so the join first tries the user's last
    `RECENT_PARCELS` distinct listed parcels, most recent first, and takes
    the first whose `ProbeGuess` says the containment probe would return it.
    Every other point asks `nearest_parcel`. A parcel that two probes in a
    row return at distance 0 goes to the list's front, joining the list if
    it is not on it: a place left after one point, as in a track with no
    recurring places, costs no guess. The index builds each parcel's guess
    once, for every track.
    """
    offset_s = utc_offset_minutes * 60
    out = []
    recent = []  # ProbeGuess of the listed parcels, the most recent hit first
    last = None  # the parcel of the previous probe's distance-0 hit
    for p in track.points:
        lat, lon = p.lat, p.lon
        for guess in recent:
            if guess.returns(lat, lon):
                if guess is not recent[0]:
                    recent.remove(guess)
                    recent.insert(0, guess)
                parcel = guess.parcel
                parcel_id, code = parcel.parcel_id, parcel.activity_code
                break
        else:
            hit = nearest_parcel(lat, lon, index, radius_m)
            if hit is None:
                parcel_id, code, parcel = None, OTHERS_CODE, None
            else:
                parcel_id, code = hit.parcel_id, hit.activity_code
                parcel = hit.parcel if hit.distance_m == 0.0 else None
                if parcel is last and parcel is not None:
                    _put_first(recent, parcel, index)
            last = parcel
        out.append(AnnotatedPoint(p.ts, lat, lon, parcel_id, code, p.ts + offset_s))
    return out


def _put_first(recent, parcel, index):
    """Move `parcel`'s guess to the front of a user's recent list, or put a
    new one there, dropping the least recent beyond `RECENT_PARCELS`."""
    for guess in recent:
        if guess.parcel is parcel:
            recent.remove(guess)
            break
    else:
        guess = index.guess(parcel)
    recent.insert(0, guess)
    del recent[RECENT_PARCELS:]


def stationary_bot_filter(history) -> bool:
    """Keep/drop decision for stationary broadcasters.

    Returns False (drop) only when every point maps to one identical parcel
    whose activity code is not residential. Single-parcel residential users
    are legitimate homebodies and are kept.
    """
    parcel_ids = {p.parcel_id for p in history}
    if len(parcel_ids) != 1:
        return True
    only = next(iter(parcel_ids))
    if only is None:
        return True
    return history[0].activity_code == RESIDENTIAL_CODE


def active_locations(history) -> list:
    """Ids of the parcels visited strictly more often than the user's
    per-parcel mean, in rank order.

    Unanchored points (no parcel within the radius) carry no location
    identity and are excluded from the counting. Ranking is by descending
    count, ties by smaller parcel id.
    """
    counts: dict[int, int] = {}
    for p in history:
        if p.parcel_id is None or p.activity_code == OTHERS_CODE:
            continue
        counts[p.parcel_id] = counts.get(p.parcel_id, 0) + 1
    if not counts:
        return []
    mean = sum(counts.values()) / len(counts)
    return sorted((pid for pid, n in counts.items() if n > mean),
                  key=lambda pid: (-counts[pid], pid))


def infer_home(history, night_start_hour: int = 21, night_end_hour: int = 6) -> HomeAssignment:
    """Home = residential parcel with the most night-window points.

    Falls back to the highest-ranked residential active location (ranked by
    `active_locations`, which runs only then), then to unknown (the caller
    excludes such users). The night window is half-open at its end and may
    wrap midnight; a point's hour is tested as its second of the local day
    against whole hours in seconds, which is exact for integer hours. The
    anchor is the mean (lat, lon) of the home parcel's points, summed in
    history order.
    """
    night_counts: dict[int, int] = {}
    total_counts: dict[int, int] = {}
    lo, hi = night_start_hour * 3600, night_end_hour * 3600
    wraps = lo > hi
    for p in history:
        if p.parcel_id is None or p.activity_code != RESIDENTIAL_CODE:
            continue
        total_counts[p.parcel_id] = total_counts.get(p.parcel_id, 0) + 1
        second = p.local_ts % 86400
        if (lo <= second or second < hi) if wraps else lo <= second < hi:
            night_counts[p.parcel_id] = night_counts.get(p.parcel_id, 0) + 1
    if night_counts:
        home = min(night_counts, key=lambda pid: (-night_counts[pid], -total_counts[pid], pid))
        rule = "night_mode"
    else:  # actives come rank-ordered; total_counts holds the residential parcels
        home = next((pid for pid in active_locations(history) if pid in total_counts), None)
        if home is None:
            return HomeAssignment(None, "unknown", None)
        rule = "top_residential"
    pts = [(p.lat, p.lon) for p in history if p.parcel_id == home]
    return HomeAssignment(home, rule, (sum(p[0] for p in pts) / len(pts),
                                       sum(p[1] for p in pts) / len(pts)))


def split_days(history) -> list:
    """Partition an annotated history at local midnight.

    The partition is exhaustive and disjoint; slot_count is the number of
    distinct half-hour slots occupied within the day. A history is mostly
    in time order, so the day's list is looked up only when the day changes
    from one point to the next; any order partitions alike.
    """
    days: dict[int, list] = {}  # epoch day -> its points
    day = pts = None
    for p in history:
        k = p.local_ts // 86400
        if k != day:
            day = k
            pts = days.get(k)
            if pts is None:
                pts = days[k] = []
        pts.append(p)
    # a day is a whole number of slots, so within one day the distinct
    # local_ts // SLOT_SECONDS are the distinct slots of the day
    return [
        UserDay(EPOCH_DATE + timedelta(days=k), pts,
                len({p.local_ts // SLOT_SECONDS for p in pts}))
        for k, pts in sorted(days.items())
    ]


def select_active_days(days, min_slots: int = 6, weekdays_only: bool = True,
                       scope: str = "day") -> list:
    """Keep days observed in at least min_slots half-hour slots.

    scope="day" tests every day individually; scope="user" keeps all of a
    user's (weekday-filtered) days as soon as one day qualifies. The
    weekday filter always applies when weekdays_only is set.
    """
    if scope not in ACTIVE_SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    candidates = [d for d in days if not weekdays_only or d.local_date.weekday() < 5]
    if scope == "user":
        if any(d.slot_count >= min_slots for d in candidates):
            return candidates
        return []
    return [d for d in candidates if d.slot_count >= min_slots]
