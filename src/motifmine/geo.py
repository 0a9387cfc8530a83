"""Great-circle and local planar geometry primitives.

All coordinates are WGS84 decimal degrees, latitude first. Distances are
meters on a sphere of mean radius 6,371 km. Planar work (nearest point on
a polygon, trajectory projection) uses an equirectangular frame centered
on the point of interest, which is accurate at the sub-kilometer scales
this pipeline operates on. GeoJSON input, whose positions are longitude
first, is read and converted here. The readers build plain tuples, lists
and dicts that hold no reference cycles, which is what lets the bulk
loaders pause the cyclic garbage collector while they run
(`parcels.gc_paused`).
"""

import json
import math

EARTH_RADIUS_M = 6_371_000.0

# meters per degree of latitude (and of longitude at the equator)
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two lat/lon points."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def geojson_features(path) -> list:
    """The features of a GeoJSON file; a lone Feature or geometry is one feature.

    Raises ValueError unless every feature is an object whose "properties"
    is absent, null or an object.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} is not a GeoJSON object")
    if doc.get("type") == "FeatureCollection":
        features = doc.get("features")
        if not isinstance(features, list) or not all(isinstance(f, dict) for f in features):
            raise ValueError(f"{path} holds no list of GeoJSON features")
    else:
        features = [doc if doc.get("type") == "Feature" else {"geometry": doc}]
    for i, feat in enumerate(features):
        if not isinstance(feat.get("properties"), (dict, type(None))):
            raise ValueError(f"feature {i} in {path} has properties that are not an object")
    return features


def geojson_polygon(geometry):
    """A GeoJSON Polygon geometry as (exterior, holes) rings of (lat, lon),
    or None when it is not a valid polygon.

    Positions are [lon, lat] with an optional altitude, which is dropped,
    and a ring's last vertex is dropped when it repeats the first. Valid
    means: the first two values of every position convert to float, every
    ring holds at least three distinct vertices and the exterior ring does
    not cross itself. Area is not checked: three distinct collinear
    vertices make a valid ring.
    """
    if not isinstance(geometry, dict) or geometry.get("type") != "Polygon":
        return None
    rings = geometry.get("coordinates")
    if not isinstance(rings, list) or not rings:
        return None
    converted = []
    for coords in rings:
        try:
            ring = [(float(pos[1]), float(pos[0])) for pos in coords]
        except (IndexError, KeyError, OverflowError, TypeError, ValueError):
            return None
        if len(ring) > 1 and ring[0] == ring[-1]:
            del ring[-1]
        if len(set(ring)) < 3:
            return None
        converted.append(tuple(ring))
    if ring_self_intersects(converted[0]):
        return None
    return converted[0], tuple(converted[1:])


def ring_bbox(ring) -> tuple[float, float, float, float]:
    lats, lons = zip(*ring)
    return min(lats), min(lons), max(lats), max(lons)


def _orient(ax, ay, bx, by, cx, cy) -> int:
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if v > 0.0:
        return 1
    if v < 0.0:
        return -1
    return 0


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_intersect(p1, p2, p3, p4) -> bool:
    """True when segment p1-p2 intersects p3-p4 (including touching)."""
    d1 = _orient(*p3, *p4, *p1)
    d2 = _orient(*p3, *p4, *p2)
    d3 = _orient(*p1, *p2, *p3)
    d4 = _orient(*p1, *p2, *p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    if d1 == 0 and _on_segment(*p3, *p4, *p1):
        return True
    if d2 == 0 and _on_segment(*p3, *p4, *p2):
        return True
    if d3 == 0 and _on_segment(*p1, *p2, *p3):
        return True
    if d4 == 0 and _on_segment(*p1, *p2, *p4):
        return True
    return False


def ring_self_intersects(ring) -> bool:
    """Check a closed ring for self-intersection between non-adjacent edges.

    Edges whose bounding boxes are disjoint can neither cross nor touch, so
    such a pair is passed over without the orientation tests. Each
    disjointness test is a chain of strict comparisons, which a NaN makes
    false, so a pair with a NaN vertex still gets the full test.
    """
    n = len(ring)
    if n < 3:
        return True
    for i in range(n - 2):
        a, b = ring[i], ring[i + 1]
        alat, alon = a
        blat, blon = b
        for j in range(i + 2, n if i else n - 1):  # edge 0 meets edge n-1
            c, d = ring[j], ring[(j + 1) % n]
            clat, clon = c
            dlat, dlon = d
            if ((alat < clat and alat < dlat and blat < clat and blat < dlat)
                    or (clat < alat and clat < blat and dlat < alat and dlat < blat)
                    or (alon < clon and alon < dlon and blon < clon and blon < dlon)
                    or (clon < alon and clon < blon and dlon < alon and dlon < blon)):
                continue
            if segments_intersect(a, b, c, d):
                return True
    return False


def point_in_ring(lat: float, lon: float, ring) -> bool:
    """Even-odd crossing test. Ring vertices are (lat, lon) without repeat.

    Each edge runs from the previous vertex to the current one, starting
    with the closing edge from the last vertex to the first.
    """
    if not ring:
        return False
    inside = False
    alat, alon = ring[-1]
    for blat, blon in ring:
        if (alat > lat) != (blat > lat):
            t = (lat - alat) / (blat - alat)
            if alon + t * (blon - alon) > lon:
                inside = not inside
        alat, alon = blat, blon
    return inside


def point_in_polygon(lat: float, lon: float, exterior, holes=()) -> bool:
    """Containment with interior rings treated as outside."""
    if not point_in_ring(lat, lon, exterior):
        return False
    for hole in holes:
        if point_in_ring(lat, lon, hole):
            return False
    return True


def _nearest_on_segment(px, py, ax, ay, bx, by) -> tuple[float, float]:
    """The point of segment ab nearest to p, stepped off from the end nearer
    to it: from the far end, a + t (b - a) can round a point a hair from b
    onto p itself, and a distance of 0 would mean containment."""
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return ax, ay
    t = ((px - ax) * dx + (py - ay) * dy) / denom
    if t <= 0.5:
        t = max(0.0, t)
        return ax + t * dx, ay + t * dy
    s = max(0.0, ((bx - px) * dx + (by - py) * dy) / denom)  # 1 - t, unrounded
    return bx - s * dx, by - s * dy


def point_polygon_distance_m(lat: float, lon: float, exterior, holes=()) -> float:
    """Great-circle meters from a point to a polygon (0 when contained).

    The nearest boundary point is found in a local planar frame centered on
    the query point and the returned distance is the great-circle distance
    to it, which is the convention used for the nearest-parcel radius cap.
    """
    if point_in_polygon(lat, lon, exterior, holes):
        return 0.0
    # equirectangular frame in meters centered on the query point
    coslat = math.cos(math.radians(lat))
    best = None
    best_xy = None
    for ring in (exterior, *holes):
        n = len(ring)
        proj = [((p[1] - lon) * METERS_PER_DEGREE * coslat, (p[0] - lat) * METERS_PER_DEGREE)
                for p in ring]
        for i in range(n):
            ax, ay = proj[i]
            bx, by = proj[(i + 1) % n]
            nx, ny = _nearest_on_segment(0.0, 0.0, ax, ay, bx, by)
            d2 = nx * nx + ny * ny
            if best is None or d2 < best:
                best = d2
                best_xy = (nx, ny)
    if best is None:
        return math.inf
    nlat = lat + best_xy[1] / METERS_PER_DEGREE
    nlon = lon + best_xy[0] / (METERS_PER_DEGREE * coslat)
    return haversine_m(lat, lon, nlat, nlon)
