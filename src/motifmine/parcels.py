"""Land-use parcels: activity scheme, loading, and nearest-parcel queries.

Parcels are simple polygons (holes treated as outside) carrying a land-use
category that maps to one of twelve activity codes. Nearest-parcel lookups
run against a uniform grid of parcel bounding boxes, plus an oversize list
of the few parcels too large to grid, whose results are, by construction,
identical to a linear scan; the grid is purely an accelerator. A bbox
query returns its parcels in id order. A box inside one grid cell, which
every point is, is answered from that cell's list, kept in id order, and
the oversize list, with no deduplication.

A lookup first asks the grid only for the parcels whose bbox holds the
point and returns the first, so smallest-id, one that contains it. Those
parcels are exactly the ones the full radius search would probe first
(distance lower bound 0, in id order), and a containing parcel there is its
final answer, so the probe returns the same hit. Only a point that no
parcel contains pays for the radius search.

Loading is a bulk build: tens of thousands of parcels, each a few tuples.
The decoded GeoJSON is released a chunk of features at a time as the
parcels are built, so the build peaks no higher than the decoding did.
`read_parcels` is the one reader of a parcel file, and only the stages
that join (annotate on) read one. None of the objects refers back to
another, so the cyclic garbage collector's passes over them during the
build find nothing to free; `load_parcels` turns those passes off with
`gc_paused`, and `pipeline.run` for a whole run. Reference counting frees
memory as usual.
"""

import gc
import math
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter

from .geo import (
    METERS_PER_DEGREE,
    geojson_features,
    geojson_polygon,
    haversine_m,
    point_polygon_distance_m,
    ring_bbox,
)

# canonical activity codes
CODE_NAMES = {
    1: "Residential",
    2: "Hotel/Resort",
    3: "Mixed-Use",
    4: "K-12 Schools",
    5: "University/College",
    6: "Office/Workplace",
    7: "Services",
    8: "Civic/Religious",
    9: "Shopping/Retail",
    10: "Recreation/Entertainment",
    11: "Transportation",
    12: "Others",
}

OTHERS_CODE = 12
RESIDENTIAL_CODE = 1

DEFAULT_RADIUS_M = 250.0


class ActivityScheme:
    """Mapping from land-use category strings to activity codes 1..12.

    Categories are matched case-insensitively; anything unmapped falls back
    to code 12 ("Others").
    """

    def __init__(self, mapping: dict | None = None):
        base = {name.lower(): code for code, name in CODE_NAMES.items()}
        if mapping:
            for cat, code in mapping.items():
                code = int(code)
                if not 1 <= code <= 12:
                    raise ValueError(f"activity code out of range for {cat!r}: {code}")
                base[cat.strip().lower()] = code
        self._map = base

    def code_for(self, category: str) -> int:
        return self._map.get(category.strip().lower(), OTHERS_CODE)

    @classmethod
    def from_file(cls, path) -> "ActivityScheme":
        """Two-column text file: category <TAB> code. '#' starts a comment."""
        mapping = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t") if "\t" in line else line.rsplit(None, 1)
                if len(parts) != 2:
                    raise ValueError(f"bad scheme line: {line!r}")
                mapping[parts[0]] = int(parts[1])
        return cls(mapping)


@dataclass(slots=True)
class Parcel:
    parcel_id: int
    exterior: tuple  # (lat, lon) ring, no repeated last vertex
    holes: tuple
    activity_code: int
    bbox: tuple = field(default=None)  # (minlat, minlon, maxlat, maxlon)

    def __post_init__(self):
        if self.bbox is None:
            self.bbox = ring_bbox(self.exterior)


@dataclass(slots=True)
class LoadReport:
    total_features: int = 0
    loaded: int = 0
    skipped_invalid: int = 0
    per_code: dict = field(default_factory=dict)


# A parcel whose bbox meets more cells than this goes on the oversize list
# instead: one 30 km polygon would fill ~250k cells of a 60 m grid.
OVERSIZE_CELLS = 4096

_MIN_CELL_DEG = 1e-9  # ~0.1 mm: degenerate parcels must not make a cell size 0

_BY_ID = attrgetter("parcel_id")


class SpatialIndex:
    """Uniform grid over parcel bounding boxes.

    A cell is the upper median parcel bbox height x width (`cell_size`,
    degrees); any cell size gives the same query results.
    Cell (row, col) lists, in id order, the parcels whose bbox meets it,
    where a coordinate's row or column is floor(coordinate / cell size).
    That is monotone in the coordinate, so a query box and a parcel bbox
    that share a point share a cell: the grid misses nothing, even on a
    shared edge or vertex. A parcel object passed twice is placed once, so
    no cell lists a parcel twice.
    """

    def __init__(self, parcels):
        self.parcels = list({id(p): p for p in parcels}.values())
        cells = self.cells = defaultdict(list)
        self.oversize = []
        boxes = [p.bbox for p in self.parcels] or [(0.0, 0.0, 0.0, 0.0)]  # empty: any size
        mid = len(boxes) // 2
        self.cell_size = (max(_MIN_CELL_DEG, sorted(b[2] - b[0] for b in boxes)[mid]),
                          max(_MIN_CELL_DEG, sorted(b[3] - b[1] for b in boxes)[mid]))
        for parcel in sorted(self.parcels, key=_BY_ID):
            r0, c0, r1, c1, n_cells = self._cell_span(parcel.bbox)
            if n_cells > OVERSIZE_CELLS:
                self.oversize.append(parcel)
                continue
            for r in range(r0, r1 + 1):
                for c in range(c0, c1 + 1):
                    cells[r, c].append(parcel)

    def _cell_span(self, bbox) -> tuple:
        """(row0, col0, row1, col1, cell count) of the cells a box meets; the
        count is infinite when a bound is infinite, NaN or too large to index.
        An axis of zero extent takes one floor."""
        dlat, dlon = self.cell_size
        lat0, lon0, lat1, lon1 = bbox
        try:
            r0 = math.floor(lat0 / dlat)
            r1 = r0 if lat1 == lat0 else math.floor(lat1 / dlat)
            c0 = math.floor(lon0 / dlon)
            c1 = c0 if lon1 == lon0 else math.floor(lon1 / dlon)
        except (OverflowError, ValueError):
            return 0, 0, 0, 0, math.inf
        return r0, c0, r1, c1, (r1 - r0 + 1) * (c1 - c0 + 1)

    def query_bbox(self, bbox) -> list:
        """All parcels whose bounding box intersects the query box, each once,
        in id order.

        A box inside one cell is answered from that cell's list, which holds
        each parcel once and in id order, and the oversize list. Otherwise
        the oversize list is scanned with the query's cells, and a query
        that covers more cells than the grid holds reads every cell once
        instead, so a huge box costs one pass over the grid.
        """
        r0, c0, r1, c1, n_cells = self._cell_span(bbox)
        cells = self.cells
        if n_cells == 1:
            buckets = (cells.get((r0, c0), ()),)
        elif n_cells > len(cells):
            buckets = cells.values()
        else:
            buckets = [cells.get((r, c), ()) for r in range(r0, r1 + 1) for c in range(c0, c1 + 1)]
        qlat0, qlon0, qlat1, qlon1 = bbox
        found = []
        for bucket in (self.oversize, *buckets):
            for p in bucket:
                b = p.bbox
                if b[0] <= qlat1 and qlat0 <= b[2] and b[1] <= qlon1 and qlon0 <= b[3]:
                    found.append(p)
        if n_cells == 1:
            return sorted(found, key=_BY_ID) if self.oversize else found
        return sorted({id(p): p for p in found}.values(), key=_BY_ID)


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for a bulk build that makes no
    reference cycles, and restore its previous state on the way out."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# Decoded features freed at a time while parcels are built. Freeing each one
# as soon as it was read peaked higher and ran slower: a run of stage all on
# the benchmark's city world (19,600 parcels, seed 311, a 2-vCPU x86 guest)
# peaked at 64.3 MiB RSS against 60.7 at 256 or 1024 a time and 61.3 at
# 4096, and a fresh process loading the parcels took 0.45-0.46 s against
# 0.42-0.44 s (0.43-0.44 s when no feature is freed before the end).
_RELEASE_CHUNK = 1024


def read_parcels(path, scheme: ActivityScheme | None = None, category_attr: str = "category"):
    """Read a GeoJSON polygon feature file into parcels, without an index.

    Parcel ids are re-assigned as sequential integers in file order, so the
    source identifiers never leave this function. Invalid geometries are
    skipped and counted. Raises ValueError when no valid parcel remains.

    The decoded features are read `_RELEASE_CHUNK` at a time, and their
    slots in the decoded list are cleared as each chunk is taken, so a chunk
    is freed once it is read and the parcels built from it take the place of
    the decoded document instead of adding to it.

    Returns (list of Parcel, LoadReport).
    """
    scheme = scheme or ActivityScheme()
    report = LoadReport()
    parcels = []
    features = geojson_features(path)
    report.total_features = len(features)
    for start in range(0, len(features), _RELEASE_CHUNK):
        chunk = features[start:start + _RELEASE_CHUNK]
        features[start:start + _RELEASE_CHUNK] = [None] * len(chunk)
        for feat in chunk:
            rings = geojson_polygon(feat.get("geometry"))
            if rings is None:
                report.skipped_invalid += 1
                continue
            code = scheme.code_for(str((feat.get("properties") or {}).get(category_attr, "")))
            report.loaded += 1
            report.per_code[code] = report.per_code.get(code, 0) + 1
            parcels.append(Parcel(report.loaded, rings[0], rings[1], code))
    if not parcels:
        raise ValueError(f"no valid parcels in {path}")
    return parcels, report


def load_parcels(path, scheme: ActivityScheme | None = None, category_attr: str = "category"):
    """`read_parcels` plus the spatial index over them.

    Returns (SpatialIndex, LoadReport).
    """
    with gc_paused():
        parcels, report = read_parcels(path, scheme, category_attr)
        return SpatialIndex(parcels), report


@dataclass(slots=True)
class NearestHit:
    parcel_id: int
    activity_code: int
    distance_m: float


def _bbox_lower_bound_m(lat, lon, bbox) -> float:
    """Distance lower bound from a point to a bbox, safe for pruning only."""
    clat = min(max(lat, bbox[0]), bbox[2])
    clon = min(max(lon, bbox[1]), bbox[3])
    if clat == lat and clon == lon:
        return 0.0
    # shave a hair so degree-space clamping never over-prunes at city scale
    return haversine_m(lat, lon, clat, clon) * (1.0 - 1e-6)


def _best_parcel(lat, lon, candidates, radius_m=math.inf, known=None):
    """Exact (distance, id)-minimal parcel over candidates.

    Candidates are probed in increasing bbox lower-bound order so the scan
    can stop once no remaining parcel can beat (or tie) the current best;
    pruning uses strict inequality, so exact ties still reach the id
    tie-break. `known` maps id(parcel) to a distance already computed for
    this point; those parcels are not evaluated again.
    """
    scored = sorted(
        ((_bbox_lower_bound_m(lat, lon, p.bbox), p) for p in candidates),
        key=lambda t: (t[0], t[1].parcel_id),
    )
    best = None
    for bound, parcel in scored:
        if bound > radius_m:
            break
        if best is not None and bound > best[0][0]:
            break
        d = known.get(id(parcel)) if known else None
        if d is None:
            d = point_polygon_distance_m(lat, lon, parcel.exterior, parcel.holes)
        key = (d, parcel.parcel_id)
        if best is None or key < best[0]:
            best = (key, parcel)
    return best


# Closer to 0 degrees than this, two distinct coordinates can differ by so
# little that the haversine bound between them underflows to 0.0.
_PROBE_MIN_ABS_DEG = 1e-100


def _radius_bbox(lat, lon, radius_m):
    # conservative degree box: any point within radius_m falls inside it
    dlat = radius_m / METERS_PER_DEGREE * 1.001
    band = min(89.9, abs(lat) + dlat)
    cosb = max(math.cos(math.radians(band)), 1e-9)
    dlon = radius_m / (METERS_PER_DEGREE * cosb) * 1.001
    return (lat - dlat, lon - dlon, lat + dlat, lon + dlon)


def nearest_parcel(lat: float, lon: float, index: SpatialIndex,
                   radius_m: float = DEFAULT_RADIUS_M) -> NearestHit | None:
    """Nearest parcel within radius_m of the point, or None.

    Containment counts as distance zero. Ties on distance resolve to the
    smallest parcel id. Callers map a None result to activity code 12.
    """
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    # Containment first. The parcels whose bbox holds the point are exactly
    # the candidates whose bound is 0 in _best_parcel: a bbox that excludes
    # the point gives a positive haversine bound. _best_parcel probes those
    # first, in id order, and nothing after a distance-0 hit can beat
    # (0, its id), so the first contained one in id order is its answer too.
    # Within _PROBE_MIN_ABS_DEG of 0 degrees that bound can underflow to 0,
    # so there the full query alone decides. A probed parcel that does not
    # contain the point (a hole, a concave gap) keeps its distance for
    # _best_parcel, so no polygon is evaluated twice.
    probed = {}
    if abs(lat) >= _PROBE_MIN_ABS_DEG and abs(lon) >= _PROBE_MIN_ABS_DEG:
        for parcel in index.query_bbox((lat, lon, lat, lon)):
            d = point_polygon_distance_m(lat, lon, parcel.exterior, parcel.holes)
            if d == 0.0:
                return NearestHit(parcel.parcel_id, parcel.activity_code, 0.0)
            probed[id(parcel)] = d
    candidates = index.query_bbox(_radius_bbox(lat, lon, radius_m))
    best = _best_parcel(lat, lon, candidates, radius_m, probed)
    if best is None or best[0][0] > radius_m:
        return None
    (dist, _), parcel = best
    return NearestHit(parcel.parcel_id, parcel.activity_code, dist)

