import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifmine.geo import (
    geojson_features,
    geojson_polygon,
    haversine_m,
    point_in_polygon,
    point_in_ring,
    point_polygon_distance_m,
    ring_self_intersects,
)

from conftest import square_ring
from oracles import geojson_polygon_two_pass, point_in_ring_modulo, ring_self_intersects_all_pairs

R = 6_371_000.0  # oracle constant, independent of the package's


def test_haversine_zero_for_identical_points():
    assert haversine_m(41.88, -87.63, 41.88, -87.63) == 0.0


def test_haversine_one_degree_equator():
    # spherical arc oracle: one degree along the equator is R * pi / 180
    expected = R * math.pi / 180.0
    assert abs(haversine_m(0.0, 0.0, 0.0, 1.0) - expected) < 1.0
    assert abs(expected - 111195.0) < 1.0


def test_haversine_antipodal():
    expected = math.pi * R
    assert abs(haversine_m(0.0, 0.0, 0.0, 180.0) - expected) < 10.0


def test_haversine_symmetry_and_triangle_inequality():
    rng = random.Random(4021)
    for _ in range(300):
        pts = [(rng.uniform(-80, 80), rng.uniform(-179, 179)) for _ in range(3)]
        a, b, c = pts
        dab = haversine_m(*a, *b)
        dba = haversine_m(*b, *a)
        assert abs(dab - dba) < 1e-6
        dbc = haversine_m(*b, *c)
        dac = haversine_m(*a, *c)
        assert dac <= dab + dbc + 1e-6


def test_point_in_ring_square():
    ring = square_ring(41.9, -87.6, 100.0)
    assert point_in_ring(41.9, -87.6, ring)
    assert not point_in_ring(41.91, -87.6, ring)


def test_point_in_polygon_hole_counts_as_outside():
    outer = square_ring(41.9, -87.6, 200.0)
    hole = square_ring(41.9, -87.6, 50.0)
    assert point_in_polygon(41.9, -87.6, outer) is True
    assert point_in_polygon(41.9, -87.6, outer, (hole,)) is False
    # between hole edge and outer edge: still inside
    lat_mid = 41.9 + 100.0 / 111194.9266
    assert point_in_polygon(lat_mid, -87.6, outer, (hole,)) is True


def test_ring_self_intersection_detects_bowtie():
    bowtie = ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0))
    square = ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0))
    assert ring_self_intersects(bowtie)
    assert not ring_self_intersects(square)


def test_polygon_distance_zero_inside_and_positive_outside():
    ring = square_ring(41.9, -87.6, 50.0)
    assert point_polygon_distance_m(41.9, -87.6, ring) == 0.0
    # a point 150 m north of center is 100 m from the north edge
    lat = 41.9 + 150.0 / 111194.9266
    d = point_polygon_distance_m(lat, -87.6, ring)
    assert abs(d - 100.0) < 0.5


class TestGeojsonPolygon:
    SQUARE = [[-87.6, 41.9], [-87.5, 41.9], [-87.5, 42.0], [-87.6, 42.0], [-87.6, 41.9]]
    HOLE = [[-87.57, 41.93], [-87.53, 41.93], [-87.53, 41.97], [-87.57, 41.93]]

    def test_rings_in_lat_lon_order_without_closing_vertex(self):
        geometry = {"type": "Polygon", "coordinates": [self.SQUARE, self.HOLE]}
        exterior, holes = geojson_polygon(geometry)
        assert exterior == ((41.9, -87.6), (41.9, -87.5), (42.0, -87.5), (42.0, -87.6))
        assert holes == (((41.93, -87.57), (41.93, -87.53), (41.97, -87.53)),)

    def test_altitude_is_dropped(self):
        flat = {"type": "Polygon", "coordinates": [self.SQUARE, self.HOLE]}
        rings = [[[*pos, 180.0] for pos in ring] for ring in (self.SQUARE, self.HOLE)]
        lifted = {"type": "Polygon", "coordinates": rings}
        assert geojson_polygon(lifted) == geojson_polygon(flat)

    @pytest.mark.parametrize("geometry", [
        None,
        [],
        {"type": "MultiPolygon", "coordinates": [[SQUARE]]},
        {"type": "Polygon"},
        {"type": "Polygon", "coordinates": []},
        {"type": "Polygon", "coordinates": [[SQUARE[0], SQUARE[1], SQUARE[0]]]},  # two vertices
        {"type": "Polygon", "coordinates": [[[-87.6], [-87.5], [-87.4], [-87.3]]]},
        {"type": "Polygon", "coordinates": [[[-87.6, "north"], *SQUARE[1:]]]},
        {"type": "Polygon", "coordinates": [[None, *SQUARE[1:]]]},
        {"type": "Polygon", "coordinates": [SQUARE, HOLE[:2]]},
        {"type": "Polygon",  # bow tie
         "coordinates": [[[-87.6, 41.9], [-87.5, 42.0], [-87.5, 41.9], [-87.6, 42.0]]]},
        {"type": "Polygon", "coordinates": [[[1, 2], [1, 2], [1, 2], [1, 2]]]},  # one vertex
        {"type": "Polygon", "coordinates": [[[1, 2], [3, 4], [1, 2], [3, 4], [1, 2]]]},  # two
        {"type": "Polygon", "coordinates": [SQUARE, [HOLE[0], HOLE[1], HOLE[0], HOLE[0]]]},
        {"type": "Polygon", "coordinates": [[[10 ** 400, 41.9], *SQUARE[1:]]]},  # no float
    ])
    def test_invalid_polygons_give_none(self, geometry):
        assert geojson_polygon(geometry) is None

    def test_collinear_ring_with_three_distinct_vertices_is_valid(self):
        # zero area is not checked; only too few distinct vertices are
        geometry = {"type": "Polygon", "coordinates": [[[0, 0], [1, 1], [2, 2], [0, 0]]]}
        assert geojson_polygon(geometry) == (((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)), ())


# Rings on a 4 x 4 lattice with half steps, so that collinear, touching and
# repeated vertices are common, plus the odd values a JSON file can hold.
LATTICE = st.integers(0, 3)
NUMBER = st.one_of(LATTICE, LATTICE.map(float), LATTICE.map(lambda v: v + 0.5), st.booleans())
ODD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, "1", "2.5", "-0", "nan", "inf",
                     "north", None, [1]]),
    st.builds(float, st.just("nan")),  # a NaN object of its own, unlike json's shared one
)
CLEAN_POSITION = st.lists(NUMBER, min_size=2, max_size=3)  # a third number is an altitude
ODD_POSITION = st.one_of(
    st.lists(st.one_of(NUMBER, ODD), max_size=3),  # short, long and odd-valued positions
    st.none(), LATTICE, st.text("0123", max_size=3),
    st.dictionaries(st.sampled_from(["0", "1"]), LATTICE),
)


@st.composite
def polygon_geometries(draw, position):
    rings = []
    for _ in range(draw(st.integers(1, 3))):
        ring = draw(st.lists(position, min_size=3, max_size=8))
        if draw(st.booleans()):
            ring.append(ring[0])  # closed, as GeoJSON writes it
        rings.append(ring)
    return {"type": "Polygon", "coordinates": rings}


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.one_of(polygon_geometries(CLEAN_POSITION),
                 polygon_geometries(st.one_of(CLEAN_POSITION, ODD_POSITION))))
def test_geojson_polygon_matches_two_pass_reader(geometry):
    # repr: a NaN compares unequal to itself, and -0.0 equal to 0.0
    assert repr(geojson_polygon(geometry)) == repr(geojson_polygon_two_pass(geometry))


RING_COORD = st.one_of(LATTICE.map(float), LATTICE.map(lambda v: v + 0.5),
                       st.sampled_from([math.nan, math.inf, -math.inf]),
                       st.floats(-4.0, 4.0))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(RING_COORD, RING_COORD), min_size=3, max_size=8))
def test_ring_check_matches_all_pairs(ring):
    ring = tuple(ring)
    assert ring_self_intersects(ring) == ring_self_intersects_all_pairs(ring)


@st.composite
def ring_probes(draw):
    """A ring and a point on a vertex, on a chord between two vertices (an
    edge when they are adjacent), a hair above or below one (next to a
    horizontal edge when the lattice makes one), level with one, or free."""
    ring = tuple(draw(st.lists(st.tuples(RING_COORD, RING_COORD), min_size=1, max_size=8)))
    a, b = draw(st.sampled_from(ring)), draw(st.sampled_from(ring))
    s = draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)))
    lat, lon = a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])
    kind = draw(st.sampled_from(["chord", "hair", "level", "free"]))
    if kind == "hair":
        lat = math.nextafter(lat, draw(st.sampled_from([-math.inf, math.inf])))
    elif kind == "level":
        lon = draw(RING_COORD)
    elif kind == "free":
        lat, lon = draw(RING_COORD), draw(RING_COORD)
    return ring, lat, lon


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(ring_probes())
def test_point_in_ring_matches_the_modulo_walk(probe):
    ring, lat, lon = probe
    assert point_in_ring(lat, lon, ring) is point_in_ring_modulo(lat, lon, ring)
    assert point_in_ring(lat, lon, list(ring)) is point_in_ring_modulo(lat, lon, ring)


def test_point_in_empty_ring_is_outside():
    assert point_in_ring(0.0, 0.0, ()) is False
    assert point_in_ring_modulo(0.0, 0.0, ()) is False


@pytest.mark.parametrize("properties, ok", [
    ({}, True), (None, True), ({"category": "Residential"}, True),
    ([1], False), ("Residential", False), (0, False), (False, False),
])
@pytest.mark.parametrize("collection", [True, False])
def test_geojson_feature_properties_must_be_an_object(tmp_path, properties, ok, collection):
    feature = {"type": "Feature", "properties": properties,
               "geometry": {"type": "Polygon", "coordinates": [TestGeojsonPolygon.SQUARE]}}
    doc = {"type": "FeatureCollection", "features": [feature]} if collection else feature
    path = tmp_path / "f.geojson"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if ok:
        assert geojson_features(path) == [feature]
    else:
        with pytest.raises(ValueError, match="properties that are not an object"):
            geojson_features(path)
    feature.pop("properties")  # absent is fine too
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert geojson_features(path) == [feature]


@pytest.mark.parametrize("lon", [-1.2e-88, -1e-30, -1e-19, -1e-16])
def test_polygon_distance_a_hair_outside_a_vertex(lon):
    # the nearest point is the vertex at lon 0; stepped off from the far end
    # of the ~68 m edge, it used to round onto the query point: distance 0
    lat = 51.50439453125
    ring = ((51.50390625, 0.0), (51.50390625, 2.0 ** -10), (lat, 2.0 ** -10), (lat, 0.0))
    d = point_polygon_distance_m(lat, lon, ring)
    assert d > 0.0
    assert d == pytest.approx(haversine_m(lat, lon, lat, 0.0), rel=1e-9)
