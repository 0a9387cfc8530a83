import gc
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifmine import parcels as parcels_mod
from motifmine import synth
from motifmine.geo import METERS_PER_DEGREE, geojson_features
from motifmine.parcels import (
    ActivityScheme,
    NearestHit,
    Parcel,
    SpatialIndex,
    load_parcels,
    nearest_parcel,
    read_parcels,
)

from conftest import (
    GRID_LAT0,
    GRID_LON0,
    GRID_STEP,
    geojson_polygon_feature,
    grid_ring,
    make_index,
    make_parcel,
    square_ring,
    write_geojson,
)
from oracles import nearest_parcel_scan


class TestActivityScheme:
    def test_canonical_names_map_to_their_codes(self):
        scheme = ActivityScheme()
        assert scheme.code_for("Residential") == 1
        assert scheme.code_for("Office/Workplace") == 6
        assert scheme.code_for("Transportation") == 11

    def test_unknown_category_falls_back_to_12(self):
        assert ActivityScheme().code_for("volcano lair") == 12

    def test_case_insensitive_and_custom(self):
        scheme = ActivityScheme({"single family": 1, "URBAN MIX": 3})
        assert scheme.code_for("Single Family") == 1
        assert scheme.code_for("urban mix") == 3

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError):
            ActivityScheme({"weird": 13})

    def test_from_file(self, tmp_path):
        p = tmp_path / "scheme.tsv"
        p.write_text("# comment\nsingle family\t1\nstrip mall\t9\n")
        scheme = ActivityScheme.from_file(p)
        assert scheme.code_for("strip mall") == 9


class TestLoadParcels:
    def test_categories_map_and_ids_are_sequential(self, tmp_path):
        feats = [
            geojson_polygon_feature(square_ring(41.90, -87.60, 50), "Residential"),
            geojson_polygon_feature(square_ring(41.92, -87.60, 50), "Office/Workplace"),
            geojson_polygon_feature(square_ring(41.94, -87.60, 50), "mystery meat"),
        ]
        path = write_geojson(tmp_path / "p.geojson", feats)
        index, report = load_parcels(path)
        assert [p.parcel_id for p in index.parcels] == [1, 2, 3]
        assert [p.activity_code for p in index.parcels] == [1, 6, 12]
        assert report.loaded == 3
        assert report.per_code == {1: 1, 6: 1, 12: 1}

    def test_self_intersecting_polygon_skipped_and_counted(self, tmp_path):
        bowtie = ((41.90, -87.60), (41.91, -87.59), (41.90, -87.59), (41.91, -87.60))
        feats = [
            geojson_polygon_feature(bowtie, "Residential"),
            geojson_polygon_feature(square_ring(41.92, -87.60, 50), "Residential"),
        ]
        path = write_geojson(tmp_path / "p.geojson", feats)
        index, report = load_parcels(path)
        assert report.skipped_invalid == 1
        assert report.loaded == 1

    def test_zero_valid_parcels_is_fatal(self, tmp_path):
        path = write_geojson(tmp_path / "p.geojson", [])
        with pytest.raises(ValueError):
            load_parcels(path)

    def test_ring_of_one_repeated_vertex_is_skipped_and_later_ids_renumbered(self, tmp_path):
        feats = [
            geojson_polygon_feature(square_ring(41.90, -87.60, 50), "Residential"),
            geojson_polygon_feature(((41.92, -87.60),) * 4, "Office/Workplace"),
            geojson_polygon_feature(square_ring(41.94, -87.60, 50), "Services"),
        ]
        path = write_geojson(tmp_path / "p.geojson", feats)
        index, report = load_parcels(path)
        assert (report.total_features, report.loaded, report.skipped_invalid) == (3, 2, 1)
        assert [(p.parcel_id, p.activity_code) for p in index.parcels] == [(1, 1), (2, 7)]
        assert index.parcels[1].exterior == square_ring(41.94, -87.60, 50)
        assert report.per_code == {1: 1, 7: 1}

    def test_read_parcels_is_load_parcels_without_the_index(self, tmp_path):
        feats = [geojson_polygon_feature(square_ring(41.90 + i * 0.01, -87.60, 50), cat)
                 for i, cat in enumerate(["Residential", "Services", "Residential"])]
        path = write_geojson(tmp_path / "p.geojson", feats)
        index, report = load_parcels(path)
        parcels, read_report = read_parcels(path)
        assert parcels == index.parcels
        assert read_report == report
        with pytest.raises(ValueError, match="no valid parcels"):
            read_parcels(write_geojson(tmp_path / "e.geojson", []))

    def test_read_parcels_reports_invalid_features_and_odd_categories(self, tmp_path):
        # a category of 1, null or missing reads as "1", "None" or ""
        feats = [geojson_polygon_feature(square_ring(41.90 + i * 0.01, -87.60, 50), cat)
                 for i, cat in enumerate(["Residential", 1, None, "Services"])]
        feats.insert(2, geojson_polygon_feature(((41.9, -87.6),) * 3))  # invalid
        del feats[-1]["properties"]["category"]
        feats.append({"type": "Feature", "geometry": None})
        path = write_geojson(tmp_path / "p.geojson", feats)
        parcels, report = read_parcels(path)
        assert (report.total_features, report.loaded, report.skipped_invalid) == (6, 4, 2)
        assert report.per_code == {1: 1, 12: 3}
        assert [(p.parcel_id, p.activity_code) for p in parcels] == [(1, 1), (2, 12), (3, 12),
                                                                     (4, 12)]
        scheme = ActivityScheme({"1": 3, "None": 5, "": 9})
        parcels, report = read_parcels(path, scheme)
        assert (report.total_features, report.loaded, report.skipped_invalid) == (6, 4, 2)
        assert report.per_code == {1: 1, 3: 1, 5: 1, 9: 1}
        assert [p.activity_code for p in parcels] == [1, 3, 5, 9]
        with pytest.raises(ValueError, match="no valid parcels"):
            read_parcels(write_geojson(tmp_path / "bad.geojson", feats[2:3]))

    def test_load_report_percentages(self, tmp_path):
        feats = [
            geojson_polygon_feature(square_ring(41.90 + i * 0.02, -87.60, 50), cat)
            for i, cat in enumerate(["Residential", "Residential", "Residential", "Services"])
        ]
        path = write_geojson(tmp_path / "p.geojson", feats)
        _, report = load_parcels(path)
        assert report.per_code == {1: 3, 7: 1}


def test_the_parcel_read_peaks_no_higher_than_the_decoding(tmp_path):
    # the decoded features are released as the parcels are built, so the
    # build never holds the whole document and every parcel at once
    world = synth.generate(synth.SynthConfig(num_users=10, days=4, seed=3), tmp_path / "w")
    path = world["paths"]["parcels"]
    peaks = {}
    for read in (geojson_features, load_parcels):
        tracemalloc.start()
        try:
            read(path)
            peaks[read.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["load_parcels"] <= 1.01 * peaks["geojson_features"], peaks


@pytest.mark.parametrize("enabled", [True, False])
def test_load_parcels_pauses_the_collector_and_restores_its_state(tmp_path, monkeypatch,
                                                                  enabled):
    seen = []

    def geojson_polygon(geometry):
        seen.append(gc.isenabled())
        return real(geometry)

    real = parcels_mod.geojson_polygon
    monkeypatch.setattr(parcels_mod, "geojson_polygon", geojson_polygon)
    good = write_geojson(tmp_path / "p.geojson",
                         [geojson_polygon_feature(square_ring(41.90, -87.60, 50))])
    bad = write_geojson(tmp_path / "b.geojson",
                        [geojson_polygon_feature(((41.9, -87.6),) * 3)])
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_parcels(good)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="no valid parcels"):
            load_parcels(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False]


class TestNearestParcel:
    def test_containment_wins_with_zero_distance(self):
        idx = make_index([make_parcel(7, 41.90, -87.60, half_m=100)])
        hit = nearest_parcel(41.90, -87.60, idx)
        assert hit == NearestHit(7, 1, 0.0)

    def test_beyond_radius_returns_none(self):
        idx = make_index([make_parcel(1, 41.90, -87.60, half_m=50)])
        lat = 41.90 + 350.0 / METERS_PER_DEGREE  # 300 m from the north edge
        assert nearest_parcel(lat, -87.60, idx) is None

    def test_distance_is_to_nearest_boundary_point(self):
        idx = make_index([make_parcel(1, 41.90, -87.60, half_m=50)])
        lat = 41.90 + 150.0 / METERS_PER_DEGREE
        hit = nearest_parcel(lat, -87.60, idx)
        assert hit is not None
        assert hit.distance_m == pytest.approx(100.0, abs=0.5)

    def test_equidistant_tie_breaks_to_smaller_id(self):
        # parcels 2 and 9 sit symmetrically 100 m east/west of the query
        center_off = (100.0 + 50.0) / (METERS_PER_DEGREE * math.cos(math.radians(41.90)))
        parcels = [make_parcel(1, 41.95, -87.60)]  # far filler so ids 2 and 9 exist
        parcels.append(make_parcel(2, 41.90, -87.60 + center_off, half_m=50))
        parcels.extend(make_parcel(i, 41.99, -87.60 + 0.01 * i) for i in range(3, 9))
        parcels.append(make_parcel(9, 41.90, -87.60 - center_off, half_m=50))
        idx = make_index(parcels)
        d2 = nearest_parcel_scan(41.90, -87.60, [parcels[1]], radius_m=1e9).distance_m
        d9 = nearest_parcel_scan(41.90, -87.60, [parcels[-1]], radius_m=1e9).distance_m
        assert d2 == d9  # the tie is real, not approximate
        hit = nearest_parcel(41.90, -87.60, idx)
        assert hit.parcel_id == 2

    def test_radius_must_be_positive(self):
        idx = make_index([make_parcel(1, 41.90, -87.60)])
        with pytest.raises(ValueError):
            nearest_parcel(41.90, -87.60, idx, radius_m=0)


def random_world(rng, n_parcels, lat0=41.5, lon0=-88.0, span=0.08):
    parcels = []
    for i in range(1, n_parcels + 1):
        lat = lat0 + rng.random() * span
        lon = lon0 + rng.random() * span
        parcels.append(make_parcel(i, lat, lon, half_m=rng.uniform(20, 120)))
    return parcels


class TestIndexEquivalence:
    def test_index_equals_linear_scan(self):
        rng = random.Random(2024)
        parcels = random_world(rng, 300)
        idx = SpatialIndex(parcels)
        for _ in range(300):
            lat = 41.5 + rng.random() * 0.08
            lon = -88.0 + rng.random() * 0.08
            a = nearest_parcel(lat, lon, idx)
            b = nearest_parcel_scan(lat, lon, parcels)
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert a.parcel_id == b.parcel_id
                assert abs(a.distance_m - b.distance_m) < 1e-6

    def test_shrinking_radius_never_changes_the_parcel(self):
        rng = random.Random(55)
        parcels = random_world(rng, 120)
        idx = SpatialIndex(parcels)
        for _ in range(150):
            lat = 41.5 + rng.random() * 0.08
            lon = -88.0 + rng.random() * 0.08
            wide = nearest_parcel(lat, lon, idx, radius_m=400.0)
            narrow = nearest_parcel(lat, lon, idx, radius_m=150.0)
            if narrow is not None:
                assert wide is not None
                assert narrow.parcel_id == wide.parcel_id
                assert narrow.distance_m == wide.distance_m
            elif wide is not None:
                assert wide.distance_m > 150.0


def test_query_bbox_matches_brute_force():
    # ids in shuffled input order; each box in id order, on one or more
    # cells, with and without a parcel on the oversize list
    rng = random.Random(3)
    parcels = random_world(rng, 200)
    rng.shuffle(parcels)
    for oversize in (False, True):
        if oversize:
            parcels.insert(100, make_parcel(201, 41.54, -87.96, half_m=60_000.0))
        idx = SpatialIndex(parcels)
        assert len(idx.oversize) == oversize
        dlat, dlon = idx.cell_size
        for _ in range(100):
            lat = 41.5 + rng.random() * 0.08
            lon = -88.0 + rng.random() * 0.08
            r, c = math.floor(lat / dlat), math.floor(lon / dlon)
            u = sorted(rng.uniform(0.01, 0.99) for _ in range(2))
            v = sorted(rng.uniform(0.01, 0.99) for _ in range(2))
            one_cell = ((r + u[0]) * dlat, (c + v[0]) * dlon, (r + u[1]) * dlat, (c + v[1]) * dlon)
            assert idx._cell_span(one_cell)[4] == 1
            for box in [(lat, lon, lat, lon), one_cell,
                        (lat - 0.004, lon - 0.004, lat + 0.004, lon + 0.004)]:
                assert [p.parcel_id for p in idx.query_bbox(box)] == \
                    brute_force_bbox(parcels, box)


def grid_parcel(parcel_id, row, col, code=1, holes=()):
    return Parcel(parcel_id, grid_ring(row, col, row + 1, col + 1), tuple(holes), code)


def query_counter(index):
    """Count the index's bbox queries: 1 when the containment probe answers,
    2 when the join falls through to the radius query."""
    calls = []
    query = index.query_bbox

    def counted(bbox):
        calls.append(bbox)
        return query(bbox)

    index.query_bbox = counted
    return calls


def assert_join_matches_scan(lat, lon, parcels, index=None):
    index = index or SpatialIndex(parcels)
    hit = nearest_parcel(lat, lon, index)
    assert hit == nearest_parcel_scan(lat, lon, parcels)
    return hit


class TestContainmentProbe:
    def test_overlapping_parcels_smaller_id_wins(self):
        big = Parcel(5, grid_ring(0, 0, 3, 3), (), 6)
        small = Parcel(3, grid_ring(1, 1, 2, 2), (), 9)
        parcels = [big, small]
        index = SpatialIndex(parcels)
        calls = query_counter(index)
        lat, lon = GRID_LAT0 + 1.5 * GRID_STEP, GRID_LON0 + 1.5 * GRID_STEP
        hit = assert_join_matches_scan(lat, lon, parcels, index)
        assert hit == NearestHit(3, 9, 0.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("row, col", [(1, 1.5), (1.5, 1), (1, 1), (2, 2), (0, 1)])
    def test_point_on_shared_edge_or_vertex(self, row, col):
        parcels = [grid_parcel(10 - 3 * r - c, r, c, code=1 + r * 3 + c)
                   for r in range(3) for c in range(3)]
        lat, lon = GRID_LAT0 + row * GRID_STEP, GRID_LON0 + col * GRID_STEP
        hit = assert_join_matches_scan(lat, lon, parcels)
        assert hit.distance_m == 0.0

    def test_point_in_hole_of_one_parcel_inside_another(self):
        hole = grid_ring(1, 1, 2, 2)
        outer = Parcel(1, grid_ring(0, 0, 3, 3), (hole,), 6)
        inner = Parcel(2, grid_ring(1.25, 1.25, 1.75, 1.75), (), 9)
        parcels = [outer, inner]
        lat, lon = GRID_LAT0 + 1.5 * GRID_STEP, GRID_LON0 + 1.5 * GRID_STEP
        assert assert_join_matches_scan(lat, lon, parcels) == NearestHit(2, 9, 0.0)
        # in the hole but outside the inner parcel: both bboxes hold the
        # point, neither polygon does, so the radius query decides
        lat = GRID_LAT0 + 1.1 * GRID_STEP
        index = SpatialIndex(parcels)
        calls = query_counter(index)
        hit = assert_join_matches_scan(lat, lon, parcels, index)
        assert hit.parcel_id == 1 and hit.distance_m > 0.0
        assert len(calls) == 2

    @pytest.mark.parametrize("shape", ["hole", "concave"])
    def test_probed_parcel_is_evaluated_once(self, shape, monkeypatch):
        # the point lies in the parcel's bbox but outside its polygon, so the
        # probe's distance must carry over to the radius query's ranking
        if shape == "hole":
            parcel = grid_parcel(1, 0, 0, holes=(grid_ring(0.25, 0.25, 0.75, 0.75),))
        else:  # an L whose notch is the upper right quarter of its bbox
            ring = grid_ring(0, 0, 1, 1)
            mid = (GRID_LAT0 + 0.5 * GRID_STEP, GRID_LON0 + 0.5 * GRID_STEP)
            ring = (ring[0], ring[1], (mid[0], ring[1][1]), mid, (ring[2][0], mid[1]), ring[3])
            parcel = Parcel(1, ring, (), 1)
        index = SpatialIndex([parcel])
        evals = []
        real = parcels_mod.point_polygon_distance_m

        def counted(*args):
            evals.append(args)
            return real(*args)

        monkeypatch.setattr(parcels_mod, "point_polygon_distance_m", counted)
        lat, lon = GRID_LAT0 + 0.6 * GRID_STEP, GRID_LON0 + 0.6 * GRID_STEP
        hit = nearest_parcel(lat, lon, index)
        assert len(evals) == 1
        assert hit.parcel_id == 1 and hit.distance_m > 0.0
        assert hit == nearest_parcel_scan(lat, lon, [parcel])

    def test_point_in_gap_takes_the_radius_query(self):
        parcels = [grid_parcel(1, 0, 0), grid_parcel(2, 0, 2), grid_parcel(3, 1, 1)]
        index = SpatialIndex(parcels)
        calls = query_counter(index)
        lat, lon = GRID_LAT0 + 0.3 * GRID_STEP, GRID_LON0 + 1.6 * GRID_STEP
        hit = assert_join_matches_scan(lat, lon, parcels, index)
        assert hit.parcel_id == 2 and hit.distance_m > 0.0
        assert len(calls) == 2

    def test_underflowing_bound_near_zero_degrees(self):
        # parcel 1's bbox excludes the point by 1e-200 degrees, which the
        # haversine bound and the polygon distance both round to 0 m; the
        # scan then picks parcel 1 over the containing parcel 2
        outside = Parcel(1, ((0.4, 1e-200), (0.4, 0.001), (0.6, 0.001), (0.6, 1e-200)),
                         (), 3)
        containing = Parcel(2, ((0.4, -0.001), (0.4, 0.001), (0.6, 0.001), (0.6, -0.001)),
                            (), 5)
        hit = assert_join_matches_scan(0.5, 0.0, [outside, containing])
        assert hit == NearestHit(1, 3, 0.0)


def probe_world():
    """A 6x6 grid with gaps, a holed parcel, an overlapping parcel and ids
    that do not follow the tree's order."""
    rng = random.Random(9)
    cells = [(r, c) for r in range(6) for c in range(6) if (r + 2 * c) % 7 != 3]
    ids = list(range(1, len(cells) + 1))
    rng.shuffle(ids)
    parcels = []
    for pid, (r, c) in zip(ids, cells):
        holes = (grid_ring(r + 0.25, c + 0.25, r + 0.75, c + 0.75),) if (r, c) == (2, 2) else ()
        parcels.append(grid_parcel(pid, r, c, code=pid % 12 + 1, holes=holes))
    parcels.append(Parcel(len(cells) + 1, grid_ring(3, 3, 5, 5), (), 4))
    return parcels


PROBE_WORLD = probe_world()
PROBE_INDEX = SpatialIndex(PROBE_WORLD)

grid_coord = st.one_of(
    st.integers(-3, 9).map(float),  # on a grid line
    st.integers(-12, 36).map(lambda q: q / 4.0),  # on a grid line or a hole edge
    st.floats(-3.0, 9.0, allow_nan=False),  # anywhere
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(row=grid_coord, col=grid_coord)
def test_join_matches_scan_on_edges_vertices_and_random_points(row, col):
    lat, lon = GRID_LAT0 + row * GRID_STEP, GRID_LON0 + col * GRID_STEP
    assert_join_matches_scan(lat, lon, PROBE_WORLD, PROBE_INDEX)


# A world of mixed sizes on both sides of 0 degrees longitude: ~54 m x 68 m
# lots whose edges are exact binary fractions (so they fall on cell edges),
# odd lots of 15-150 m, a 2 km park that stays in the grid, and a 20 km
# holed parcel that goes on the oversize list.
LOT_LAT0, LOT_DLAT, LOT_DLON = 51.5, 2.0 ** -11, 2.0 ** -10


def rect(lat0, lon0, lat1, lon1):
    return ((lat0, lon0), (lat0, lon1), (lat1, lon1), (lat1, lon0))


def mixed_world():
    rng = random.Random(12)
    rings = [rect(LOT_LAT0 + r * LOT_DLAT, c * LOT_DLON,
                  LOT_LAT0 + (r + 1) * LOT_DLAT, (c + 1) * LOT_DLON)
             for r in range(10) for c in range(-6, 6) if rng.random() > 0.15]
    for _ in range(15):
        lat, lon = rng.uniform(51.490, 51.499), rng.uniform(-0.006, 0.006)
        rings.append(square_ring(lat, lon, rng.uniform(7.5, 75.0)))
    park = square_ring(51.5, 0.022, 1000.0)
    huge = square_ring(51.5, -0.147, 10_000.0)
    ids = list(range(1, len(rings) + 3))
    rng.shuffle(ids)
    parcels = [Parcel(pid, ring, (), pid % 12 + 1) for pid, ring in zip(ids, rings)]
    parcels.append(Parcel(ids[-2], park, (), 10))
    parcels.append(Parcel(ids[-1], huge, (rect(51.45, -0.2, 51.55, -0.1),), 12))
    return parcels


MIXED_WORLD = mixed_world()
MIXED_INDEX = SpatialIndex(MIXED_WORLD)
CELL_LAT, CELL_LON = MIXED_INDEX.cell_size

mixed_lat = st.one_of(
    st.integers(51_450, 51_550).map(lambda k: k / 1000.0),
    st.integers(round(51.48 / CELL_LAT), round(51.52 / CELL_LAT)).map(lambda k: k * CELL_LAT),
    st.floats(51.45, 51.55, allow_nan=False),
)
mixed_lon = st.one_of(
    st.integers(-300, 60).map(lambda k: k / 1000.0),
    st.integers(round(-0.02 / CELL_LON), round(0.04 / CELL_LON)).map(lambda k: k * CELL_LON),
    st.floats(-0.01, 0.01, allow_nan=False),
    st.floats(-0.35, 0.05, allow_nan=False),
)


def brute_force_bbox(parcels, box):
    return sorted(p.parcel_id for p in parcels
                  if p.bbox[0] <= box[2] and box[0] <= p.bbox[2]
                  and p.bbox[1] <= box[3] and box[1] <= p.bbox[3])


class TestGrid:
    def test_mixed_world_shape(self):
        park, huge = MIXED_WORLD[-2:]
        assert MIXED_INDEX.oversize == [huge]
        assert sum(park in bucket for bucket in MIXED_INDEX.cells.values()) > 1000
        assert CELL_LAT == LOT_DLAT and CELL_LON == LOT_DLON

    def test_oversize_parcel_adds_no_cells(self):
        without = SpatialIndex(MIXED_WORLD[:-1])
        assert without.cell_size == MIXED_INDEX.cell_size
        assert without.oversize == []
        assert without.cells.keys() == MIXED_INDEX.cells.keys()

    def test_degenerate_and_unindexable_parcels(self):
        # zero-height bboxes make the median cell height 0; a coordinate of
        # 1e308 or NaN has no cell at all
        flat = [Parcel(i, tuple((51.5, 0.001 * i + step) for step in (0.0, 0.0005, 0.001)),
                       (), 1) for i in range(1, 4)]
        far = Parcel(4, rect(51.5, 1e308, 51.6, 1.5e308), (), 2)
        nan = Parcel(5, rect(math.nan, 0.0, 51.6, 0.1), (), 3)
        parcels = flat + [far, nan]
        index = SpatialIndex(parcels)
        assert index.oversize == [far, nan]
        for box in [(51.5, 0.0015, 51.5, 0.0015), (51.0, 0.0, 52.0, 2e308), (-90, -180, 90, 180)]:
            assert [p.parcel_id for p in index.query_bbox(box)] == \
                brute_force_bbox(parcels, box)
        assert_join_matches_scan(51.5, 0.0015, parcels, index)

    def test_a_parcel_passed_twice_is_placed_once(self):
        lot, huge = MIXED_WORLD[0], MIXED_WORLD[-1]  # huge: on the oversize list
        index = SpatialIndex([lot, *MIXED_WORLD, huge])
        assert [id(p) for p in index.parcels] == [id(p) for p in MIXED_WORLD]
        assert index.cell_size == MIXED_INDEX.cell_size and index.oversize == [huge]
        assert all(len({id(p) for p in bucket}) == len(bucket)
                   for bucket in index.cells.values())
        lat0, lon0, lat1, lon1 = lot.bbox
        mid = ((lat0 + lat1) / 2, (lon0 + lon1) / 2)
        for box in [(*mid, *mid), lot.bbox]:  # one cell, four cells
            assert [p.parcel_id for p in index.query_bbox(box)] == \
                brute_force_bbox(MIXED_WORLD, box)

    def test_empty_index(self):
        assert SpatialIndex([]).query_bbox((-90.0, -180.0, 90.0, 180.0)) == []
        assert nearest_parcel(51.5, 0.0, SpatialIndex([])) is None

    @pytest.mark.parametrize("box", [
        (-90.0, -180.0, 90.0, 180.0),  # more cells than the grid holds
        (-math.inf, -math.inf, math.inf, math.inf),
        (51.5, -1e-9, 51.5, 1e-9),  # across 0 degrees
        (math.nan, 0.0, math.nan, 0.0),
    ])
    def test_extreme_boxes(self, box):
        assert [p.parcel_id for p in MIXED_INDEX.query_bbox(box)] == \
            brute_force_bbox(MIXED_WORLD, box)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lat=st.tuples(mixed_lat, mixed_lat), lon=st.tuples(mixed_lon, mixed_lon))
    def test_query_bbox_matches_brute_force(self, lat, lon):
        for box in ((min(lat), min(lon), max(lat), max(lon)), (lat[0], lon[0], lat[0], lon[0])):
            assert [p.parcel_id for p in MIXED_INDEX.query_bbox(box)] == \
                brute_force_bbox(MIXED_WORLD, box)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lat=mixed_lat, lon=mixed_lon)
    def test_join_matches_scan(self, lat, lon):
        assert_join_matches_scan(lat, lon, MIXED_WORLD, MIXED_INDEX)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(lat=mixed_lat, lon=mixed_lon)
    def test_radius_larger_than_the_world(self, lat, lon):
        # 100 km reaches every parcel from anywhere the strategies go
        hit = nearest_parcel(lat, lon, MIXED_INDEX, radius_m=100_000.0)
        assert hit == nearest_parcel_scan(lat, lon, MIXED_WORLD, radius_m=100_000.0)
        assert hit is not None
