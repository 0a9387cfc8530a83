"""Independent reference implementations backing the test suite.

Everything here is deliberately brute force or otherwise independent of
the package, and shares no code with it: permutation-search isomorphism, a
refinement-based isomorphism matcher, closed-walk enumeration over a small
node budget, label-sequence collapsing, walk-to-network construction,
analytic Gaussian cell integrals, and the all-pairs ring check and
two-pass GeoJSON polygon reader that `geo` replaced, timestamps formatted
through `datetime.isoformat`, local dates and half-hour slots read from a
`datetime`, a brute-force prefilter, per-user tracks from one stable sort
(as the package's `UserTrack`), the modulo-indexed crossing test that
`geo.point_in_ring` replaced, the numpy trajectory alignment
(`np.linalg.eigh` of the gyration tensor) and density histogram
(`np.add.at`) that `shape` replaced with the standard library, and the
plain `csv.writer` whose bytes the pipeline's chunked CSV writer must
reproduce. The exceptions are the linear parcel scan, which reuses the
package's point-to-polygon distance and hit type, because what it checks
is the grid search and its pruning, not the distance, and the speed
filter without its bound, which reuses the package's haversine distance and
decision type, because what it checks is which pairs may skip the distance,
`density_of_streams`, the package's binning and pooling composed over
whole point streams, which the numpy histogram then checks, and
`day_outcome_by_key`, a day's outcome composed as the pipeline once
composed it (a key and a label per point, the walk built from them, and
anchors, trips and gyradius looked up by parcel key), which reuses the
package's signatures, haversine distance and metrics type, because what it
checks is the one-pass network and the per-run shape cache, not the
canonicalization. Beside it stand the `setdefault` day split and the
float-hour night window that `annotate` replaced.
Production code is checked against these, never the reverse.
"""

import csv
import itertools
import math
import sys
from datetime import datetime, timedelta

import numpy as np

from motifmine.annotate import EPOCH_DATE, UserDay
from motifmine.geo import haversine_m, point_polygon_distance_m
from motifmine.ingest import SpeedDecision, UserTrack
from motifmine.motifs import ACTIVITY_LABELS, HOME_LABEL, UNKNOWN_PARCEL, graph_signature
from motifmine.parcels import DEFAULT_RADIUS_M, NearestHit
from motifmine.shape import DayMetrics, density_cells, density_histogram

MAX_NODES = 6


def brute_force_isomorphic(n1, edges1, n2, edges2, labels1=None, labels2=None,
                           pin_home=True) -> bool:
    """Try every admissible bijection explicitly."""
    if n1 != n2:
        return False
    e1, e2 = set(edges1), set(edges2)
    if len(e1) != len(e2):
        return False
    lab1 = list(labels1) if labels1 is not None else None
    lab2 = list(labels2) if labels2 is not None else None
    nodes = list(range(n1))
    free = nodes[1:] if pin_home else nodes
    for perm in itertools.permutations(free):
        mapping = dict(zip(free, perm))
        if pin_home:
            mapping[0] = 0
        if lab1 is not None and any(lab1[u] != lab2[mapping[u]] for u in nodes):
            continue
        if {(mapping[u], mapping[v]) for u, v in e1} == e2:
            return True
    return False


def _degree_profile(n, edges, labels):
    indeg = [0] * n
    outdeg = [0] * n
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    labs = labels if labels is not None else [""] * n
    return indeg, outdeg, labs


def graphs_isomorphic(n1, edges1, n2, edges2, labels1=None, labels2=None,
                      pin_home: bool = True) -> bool:
    """Refinement-based matcher for home-pinned digraph isomorphism.

    Candidate pairs are pruned by label and exact in/out degree before a
    backtracking extension checks edge consistency against the partial
    mapping in both directions, mirroring the classic matcher strategy for
    directed graphs.
    """
    e1, e2 = set(edges1), set(edges2)
    if n1 != n2 or len(e1) != len(e2):
        return False
    in1, out1, lab1 = _degree_profile(n1, e1, labels1)
    in2, out2, lab2 = _degree_profile(n2, e2, labels2)
    if sorted(zip(lab1, in1, out1)) != sorted(zip(lab2, in2, out2)):
        return False
    if pin_home and (lab1[0], in1[0], out1[0]) != (lab2[0], in2[0], out2[0]):
        return False

    # visit order: breadth-first over the underlying adjacency for locality
    neighbors = [set() for _ in range(n1)]
    for u, v in e1:
        neighbors[u].add(v)
        neighbors[v].add(u)
    order = []
    seen = set()
    queue = [0] if pin_home else []
    for start in queue + [i for i in range(n1)]:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        while stack:
            node = stack.pop(0)
            order.append(node)
            for nb in sorted(neighbors[node]):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)

    mapping: dict[int, int] = {}
    used = set()
    if pin_home:
        mapping[0] = 0
        used.add(0)

    def extend(k: int) -> bool:
        if k == n1:
            return True
        u = order[k]
        if u in mapping:
            return extend(k + 1)
        for v in range(n2):
            if v in used or lab1[u] != lab2[v]:
                continue
            if in1[u] != in2[v] or out1[u] != out2[v]:
                continue
            consistent = True
            for w, mw in mapping.items():
                if ((u, w) in e1) != ((v, mw) in e2) or ((w, u) in e1) != ((mw, v) in e2):
                    consistent = False
                    break
            if consistent:
                mapping[u] = v
                used.add(v)
                if extend(k + 1):
                    return True
                del mapping[u]
                used.remove(v)
        return False

    return extend(0)


def isomorphic(g1, g2, kind: str | None = None, pin_home: bool = True) -> bool:
    """True when a home-pinning (and for ABM label-preserving) bijection
    maps the edges of one daily network onto the other's exactly."""
    kind = kind or g1.kind
    labels1 = g1.labels if kind == "abm" else None  # "abm" is motifs.ABM
    labels2 = g2.labels if kind == "abm" else None
    return graphs_isomorphic(
        g1.node_count, g1.edges, g2.node_count, g2.edges, labels1, labels2, pin_home
    )


def edge_bit(u: int, v: int) -> int:
    return u * MAX_NODES + v


def mask_from_edges(edges) -> int:
    m = 0
    for u, v in edges:
        m |= 1 << edge_bit(u, v)
    return m


def edges_from_mask(mask: int):
    edges = set()
    b = 0
    while mask >> b:
        if (mask >> b) & 1:
            edges.add((b // MAX_NODES, b % MAX_NODES))
        b += 1
    return edges


def mask_nodes(mask: int) -> int:
    """Node count of a closed-walk mask built with canonical node growth."""
    if mask == 0:
        return 1
    return max(max(u, v) for u, v in edges_from_mask(mask)) + 1


_PERM_TABLES: dict = {}


def _perm_tables(n: int):
    """For each permutation of nodes 1..n-1 (home fixed), a bit-relabeling map."""
    if n not in _PERM_TABLES:
        tables = []
        for perm in itertools.permutations(range(1, n)):
            relabel = {0: 0, **{old: new for old, new in zip(range(1, n), perm)}}
            table = {
                edge_bit(u, v): edge_bit(relabel[u], relabel[v])
                for u in range(n)
                for v in range(n)
                if u != v
            }
            tables.append(table)
        _PERM_TABLES[n] = tables
    return _PERM_TABLES[n]


def canonical_mask(mask: int, n: int) -> int:
    """Home-pinned canonical form of an edge mask: min over relabelings."""
    best = None
    for table in _perm_tables(n):
        m = 0
        rest = mask
        b = 0
        while rest:
            if rest & 1:
                m |= 1 << table[b]
            rest >>= 1
            b += 1
        if best is None or m < best:
            best = m
    return best


def enumerate_closed_walk_masks(max_steps: int = 10, max_nodes: int = 6):
    """All edge sets realizable as closed walks from home.

    Walks move freely between up to max_nodes nodes (new nodes introduced
    in canonical order), take at most max_steps steps, and must return to
    node 0. States (edge mask, position, node count) are deduplicated on
    their first (shortest) visit, which is safe: anything reachable from a
    later visit is reachable from the earlier one within the same budget.

    Returns {mask: node_count}, including the trivial one-node walk.
    """
    closed = {0: 1}
    seen = {(0, 0, 1): 0}
    frontier = [(0, 0, 1)]
    for step in range(1, max_steps + 1):
        nxt = []
        for mask, cur, used in frontier:
            targets = [t for t in range(used) if t != cur]
            if used < max_nodes:
                targets.append(used)
            for t in targets:
                new_used = max(used, t + 1)
                new_mask = mask | (1 << edge_bit(cur, t))
                state = (new_mask, t, new_used)
                if state in seen:
                    continue
                seen[state] = step
                nxt.append(state)
                if t == 0:
                    nodes = mask_nodes(new_mask)
                    if new_mask not in closed:
                        closed[new_mask] = nodes
        frontier = nxt
    return closed


def count_walk_classes(max_steps: int = 6, max_nodes: int = 6):
    """Walk-frequency proxy: how many distinct short closed walks generate
    each canonical class. Used only to rank classes by plausibility."""
    counts: dict = {}

    def visit(cur, used, mask, steps):
        if cur == 0 and steps > 0:
            key = (mask_nodes(mask), canonical_mask(mask, max(mask_nodes(mask), 1)))
            counts[key] = counts.get(key, 0) + 1
        if steps == max_steps:
            return
        targets = [t for t in range(used) if t != cur]
        if used < max_nodes:
            targets.append(used)
        for t in targets:
            visit(t, max(used, t + 1), mask | (1 << edge_bit(cur, t)), steps + 1)

    visit(0, 1, 0, 0)
    counts[(1, 0)] = counts.get((1, 0), 0) + 1  # the stay-home walk
    return counts


def collapse_label_sequence(labels):
    """Reference consecutive-duplicate collapse."""
    out = []
    for lab in labels:
        if not out or out[-1] != lab:
            out.append(lab)
    return out


def walk_network(keys, labels):
    """Reference walk-to-network build: collapse consecutive repeats into
    visits, then number nodes by first visit and label each from it.

    Returns (node_keys, labels, edges, walk), each node by index.
    """
    visits = []
    for key, label in zip(keys, labels):
        if visits and visits[-1][0] == key:
            continue
        visits.append((key, label))
    node_index = {}
    node_labels = []
    walk = []
    for key, label in visits:
        if key not in node_index:
            node_index[key] = len(node_index)
            node_labels.append(label)
        walk.append(node_index[key])
    node_keys = tuple(sorted(node_index, key=node_index.get))
    return node_keys, tuple(node_labels), frozenset(zip(walk, walk[1:])), tuple(walk)


def day_keys(day) -> list:
    """The location key of each of a day's points: its parcel id, or
    UNKNOWN_PARCEL without one."""
    return [UNKNOWN_PARCEL if p.parcel_id is None else p.parcel_id for p in day.points]


def day_anchors_by_key(day) -> dict:
    """Per-parcel-key anchor for one day: the centroid of the key's points,
    summed in point order."""
    sums: dict = {}
    for key, p in zip(day_keys(day), day.points):
        lat_s, lon_s, n = sums.get(key, (0.0, 0.0, 0))
        sums[key] = (lat_s + p.lat, lon_s + p.lon, n + 1)
    return {k: (lat_s / n, lon_s / n) for k, (lat_s, lon_s, n) in sums.items()}


def day_trips_km_by_key(visits, anchors) -> list:
    """Trip lengths in km between consecutive visits, given each visit's
    parcel key and the `day_anchors_by_key`."""
    return [haversine_m(*anchors[a], *anchors[b]) / 1000.0 for a, b in zip(visits, visits[1:])]


def gyradius_by_key(visits, anchors, home_latlon) -> float:
    """RMS distance (km) from home of a day's visits, each at its parcel
    key's anchor."""
    sq_sum = 0.0
    for key in visits:
        d_km = haversine_m(*anchors[key], *home_latlon) / 1000.0
        sq_sum += d_km * d_km
    return math.sqrt(sq_sum / len(visits))


def _census_sig(n, walk, labels, max_nodes, pin_home):
    if 1 < n <= max_nodes:
        return graph_signature(n, zip(walk, walk[1:]), labels, pin_home)
    return None


def day_outcome_by_key(day, home_parcel_id, max_nodes=MAX_NODES, pin_home=True):
    """The DayMetrics of one day, census signatures included, None for an
    open walk: a key and a label per point, the LBM network from
    `walk_network`, its ABM view from the collapsed label walk, and
    anchors, trips and gyradius by parcel key."""
    keys = day_keys(day)
    if keys[0] != home_parcel_id or keys[-1] != home_parcel_id:
        return None
    labels = [HOME_LABEL if k == home_parcel_id else ACTIVITY_LABELS[p.activity_code]
              for k, p in zip(keys, day.points)]
    node_keys, node_labels, _, walk = walk_network(keys, labels)
    label_walk = collapse_label_sequence([node_labels[i] for i in walk])
    _, abm_labels, _, abm_walk = walk_network(label_walk, label_walk)
    visits = [node_keys[i] for i in walk]
    anchors = day_anchors_by_key(day)
    trips = day_trips_km_by_key(visits, anchors)
    gyr = gyradius_by_key(visits, anchors, anchors[home_parcel_id])
    pair = None
    if len(abm_labels) == 2:
        pair = next(lab for lab in abm_labels if lab != HOME_LABEL)
    return DayMetrics(len(node_keys), len(abm_labels), pair, len(trips), sum(trips), gyr,
                      _census_sig(len(node_keys), walk, None, max_nodes, pin_home),
                      _census_sig(len(abm_labels), abm_walk, abm_labels, max_nodes, pin_home))


def split_days_setdefault(history) -> list:
    """Reference local-day partition: one `setdefault` per point."""
    days: dict = {}
    for p in history:
        days.setdefault(p.local_ts // 86400, []).append(p)
    return [UserDay(EPOCH_DATE + timedelta(days=k), pts, len({p.local_ts // 1800 for p in pts}))
            for k, pts in sorted(days.items())]


def in_night_window_float(local_ts: int, night_start_hour: int, night_end_hour: int) -> bool:
    """Reference night window: the local hour as a float, half-open at its
    end, wrapping midnight when the start is after the end."""
    hour = (local_ts % 86400) / 3600.0
    if night_start_hour <= night_end_hour:
        return night_start_hour <= hour < night_end_hour
    return hour >= night_start_hour or hour < night_end_hour


def pearson_r_plain(xs, ys):
    """The product-moment r as `shape.pearson_r` computed it before it
    rescaled: the centered sums as given. None where they fail, that is
    raise, or leave the product of the variances infinite or below the
    normal floats (subnormal or zero)."""
    n = len(xs)
    try:
        mx = sum(xs) / n
        my = sum(ys) / n
        sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
        sxx = sum((a - mx) ** 2 for a in xs)
        syy = sum((b - my) ** 2 for b in ys)
    except OverflowError:
        return None
    if not sys.float_info.min <= sxx * syy < math.inf:
        return None
    return sxy / math.sqrt(sxx * syy)


def gaussian_cell_mass(x0, x1, y0, y1) -> float:
    """Mass of the standard bivariate normal inside a rectangle."""

    def phi(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    return (phi(x1) - phi(x0)) * (phi(y1) - phi(y0))


def nearest_parcel_scan(lat: float, lon: float, parcels, radius_m: float = DEFAULT_RADIUS_M):
    """Prune-free linear scan for `parcels.nearest_parcel`: evaluate every
    parcel, minimize (distance, id), and keep the winner within radius_m."""
    best = None
    for parcel in parcels:
        d = point_polygon_distance_m(lat, lon, parcel.exterior, parcel.holes)
        key = (d, parcel.parcel_id)
        if best is None or key < best[0]:
            best = (key, parcel)
    if best is None or best[0][0] > radius_m:
        return None
    (dist, _), parcel = best
    return NearestHit(parcel.parcel_id, parcel.activity_code, dist)


def iso_timestamp(ts: int, zone: str = "Z") -> str:
    """Epoch seconds to "YYYY-MM-DDTHH:MM:SS" + zone by `datetime.isoformat`."""
    return (datetime(1970, 1, 1) + timedelta(seconds=ts)).isoformat() + zone


def local_date_of(local_ts: int):
    """The calendar date of local epoch seconds, by `datetime` arithmetic."""
    return (datetime(1970, 1, 1) + timedelta(seconds=local_ts)).date()


def slot_of(local_ts: int) -> int:
    """The half-hour slot (0-47) of local epoch seconds within their day."""
    t = datetime(1970, 1, 1) + timedelta(seconds=local_ts)
    return 2 * t.hour + t.minute // 30


def point_in_ring_modulo(lat: float, lon: float, ring) -> bool:
    """Even-odd crossing test over the edges ring[i] -> ring[(i + 1) % n]."""
    inside = False
    n = len(ring)
    for i in range(n):
        alat, alon = ring[i]
        blat, blon = ring[(i + 1) % n]
        if (alat > lat) != (blat > lat):
            t = (lat - alat) / (blat - alat)
            lon_cross = alon + t * (blon - alon)
            if lon_cross > lon:
                inside = not inside
    return inside


def speed_filter_unbounded(points, max_speed_mps: float):
    """`ingest.speed_filter` that computes the haversine distance of every
    consecutive pair: the first pair that moves in no time, or faster than
    the cap, drops the user."""
    for a, b in zip(points, points[1:]):
        dt = b.ts - a.ts
        dist = haversine_m(a.lat, a.lon, b.lat, b.lon)
        if dt <= 0:
            if dist > 0.0:
                return SpeedDecision(False, (a, b), float("inf"))
            continue
        speed = dist / dt
        if speed > max_speed_mps:
            return SpeedDecision(False, (a, b), speed)
    return SpeedDecision(True)


def prefilter_brute_force(records, boundary, blocklist):
    """Records whose (user, ts, lat, lon) key no earlier record has, that lie
    inside `boundary` (None: everywhere) and whose lowered text contains no
    lowered keyword of `blocklist`, in input order."""
    out = []
    for i, r in enumerate(records):
        key = (r.user_id, r.ts, r.lat, r.lon)
        if any((q.user_id, q.ts, q.lat, q.lon) == key for q in records[:i]):
            continue
        if boundary is not None and not point_in_ring_modulo(r.lat, r.lon, boundary):
            continue
        if any(k.lower() in r.text.lower() for k in blocklist):
            continue
        out.append(r)
    return out


def group_tracks(records):
    """Per-user tracks in user id order, each user's records in time order
    with ties in input order: one stable sort by (user, ts)."""
    ordered = sorted(records, key=lambda r: (r.user_id, r.ts))
    return [UserTrack(user_id, list(group))
            for user_id, group in itertools.groupby(ordered, key=lambda r: r.user_id)]


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


def ring_self_intersects_all_pairs(ring) -> bool:
    """`geo.ring_self_intersects` without its bbox skip: every pair of
    non-adjacent edges goes through the orientation tests."""
    n = len(ring)
    if n < 3:
        return True
    segs = [(ring[i], ring[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share a vertex by construction
            if segments_intersect(segs[i][0][::-1], segs[i][1][::-1],
                                  segs[j][0][::-1], segs[j][1][::-1]):
                return True
    return False


def _normalize_ring(ring) -> tuple:
    pts = [(float(a), float(b)) for a, b in ring]
    if len(pts) > 1 and pts[0] == pts[-1]:
        pts = pts[:-1]
    return tuple(pts)


def geojson_polygon_two_pass(geometry):
    """`geo.geojson_polygon` as a swap pass then a float-and-close pass over
    each ring, checked with the all-pairs ring test."""
    if not isinstance(geometry, dict) or geometry.get("type") != "Polygon":
        return None
    rings = geometry.get("coordinates")
    if not isinstance(rings, list) or not rings:
        return None
    converted = []
    for ring in rings:
        try:
            pts = _normalize_ring([(pos[1], pos[0]) for pos in ring])
        except (IndexError, KeyError, OverflowError, TypeError, ValueError):
            return None
        if len(set(pts)) < 3:  # at least three distinct vertices
            return None
        converted.append(pts)
    if ring_self_intersects_all_pairs(converted[0]):
        return None
    return converted[0], tuple(converted[1:])


M_PER_DEG = 6_371_000.0 * math.pi / 180.0


class OracleDegenerate(ValueError):
    """A trajectory the numpy alignment cannot normalize, and why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def gyration_tensor(xy: np.ndarray) -> np.ndarray:
    """Second-moment matrix [[Sxx, Sxy], [Sxy, Syy]] / n of centered coords."""
    x = xy[:, 0]
    y = xy[:, 1]
    n = len(xy)
    return np.array([[np.dot(x, x) / n, np.dot(x, y) / n],
                     [np.dot(x, y) / n, np.dot(y, y) / n]])


def tensor_eigen(tensor: np.ndarray):
    """Eigenvalues (descending) and matching unit eigenvectors as columns."""
    evals, evecs = np.linalg.eigh(tensor)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order]


def align_trajectory_numpy(latlon_points, home=None):
    """`shape.align_trajectory` with numpy: (points as an (n, 2) array,
    sigma_x, sigma_y, axis). Identical points are told from the input
    coordinates, as the package does."""
    latlon = np.asarray(latlon_points, dtype=float).reshape(-1, 2)
    if len(latlon) < 3:
        raise OracleDegenerate("too_few")
    if np.all(latlon == latlon[0]):
        raise OracleDegenerate("identical")
    lat0 = float(latlon[:, 0].mean())
    lon0 = float(latlon[:, 1].mean())
    coslat = math.cos(math.radians(lat0))
    x = (latlon[:, 1] - lon0) * M_PER_DEG * coslat
    y = (latlon[:, 0] - lat0) * M_PER_DEG
    mx, my = float(x.mean()), float(y.mean())
    x, y = x - mx, y - my

    _, evecs = tensor_eigen(gyration_tensor(np.column_stack([x, y])))
    ax, ay = float(evecs[0, 0]), float(evecs[1, 0])
    proj = x * ax + y * ay
    pmax = float(proj.max())
    pmin = float(proj.min())
    if home is not None and pmax == -pmin:
        hx = (home[1] - lon0) * M_PER_DEG * coslat - mx
        hy = (home[0] - lat0) * M_PER_DEG - my
        flip = hx * ax + hy * ay > 0.0
    else:
        flip = proj[int(np.argmax(np.abs(proj)))] > 0.0
    if flip:
        ax, ay = -ax, -ay

    xr = -(ax * x + ay * y)
    yr = ay * x - ax * y
    sigma_x = float(xr.std())
    sigma_y = float(yr.std())
    if sigma_y < 1e-9:
        raise OracleDegenerate("collinear")
    return np.column_stack([xr / sigma_x, yr / sigma_y]), sigma_x, sigma_y, (ax, ay)


def density_of_streams(streams, bins: int = 80, bound: float = 4.0, weight: str = "point"):
    """Pool streams of normalized (x, y) points into one 2-D histogram:
    `shape.density_cells` of each stream, then `shape.density_histogram`."""
    return density_histogram([density_cells(points, bins, bound) for points in streams], bins,
                             bound, weight)


def density_histogram_numpy(streams, bins: int, bound: float, weight: str = "point"):
    """`density_of_streams` with numpy: (counts, in_range, out_range,
    mass), counts and mass as (bins, bins) arrays indexed [x_bin, y_bin]."""
    cell = 2.0 * bound / bins
    counts = np.zeros((bins, bins), dtype=np.int64)
    user_mass = np.zeros((bins, bins), dtype=float)
    users = in_range = total = 0
    for arr in streams:
        arr = np.asarray(arr, dtype=float).reshape(-1, 2)
        total += len(arr)
        if not len(arr):
            continue
        x, y = arr[:, 0], arr[:, 1]
        mask = (x >= -bound) & (x < bound) & (y >= -bound) & (y < bound)
        in_range += int(mask.sum())
        ix = np.clip(np.floor((x[mask] + bound) / cell).astype(np.int64), 0, bins - 1)
        iy = np.clip(np.floor((y[mask] + bound) / cell).astype(np.int64), 0, bins - 1)
        grid = np.zeros((bins, bins), dtype=np.int64)
        np.add.at(grid, (ix, iy), 1)
        counts += grid
        user_mass += grid / len(arr)
        users += 1
    if weight == "user":
        mass = user_mass / users if users else user_mass
    else:
        mass = counts / total if total else np.zeros((bins, bins))
    return counts, in_range, total - in_range, mass


def write_csv_reference(path, header, rows):
    """A header and rows through one plain `csv.writer`, with "\n" line ends,
    except a row with a field holding "\r": csv leaves that "\r" bare, so
    such a row is written by hand, each field that holds ',', '"', "\r" or
    "\n" quoted and its quotes doubled."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in (header, *rows):
            if not any("\r" in f for f in row):
                writer.writerow(row)
                continue
            fh.write(",".join('"' + f.replace('"', '""') + '"'
                              if any(c in f for c in ',"\r\n') else f for f in row) + "\n")
