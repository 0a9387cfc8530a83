import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from motifmine.annotate import AnnotatedPoint
from motifmine.ingest import PointRecord
from motifmine.parcels import Parcel, SpatialIndex


def square_ring(lat: float, lon: float, half_m: float):
    """Axis-aligned square ring centered at (lat, lon), half-width in meters."""
    from motifmine.geo import METERS_PER_DEGREE
    import math

    dlat = half_m / METERS_PER_DEGREE
    dlon = half_m / (METERS_PER_DEGREE * math.cos(math.radians(lat)))
    return (
        (lat - dlat, lon - dlon),
        (lat - dlat, lon + dlon),
        (lat + dlat, lon + dlon),
        (lat + dlat, lon - dlon),
    )


def make_parcel(parcel_id, lat, lon, half_m=50.0, code=1, holes=()):
    return Parcel(parcel_id, square_ring(lat, lon, half_m), tuple(holes), code)


def make_index(parcels):
    return SpatialIndex(list(parcels))


def rec(user="u1", ts=0, lat=41.88, lon=-87.63, text=""):
    return PointRecord(user, ts, lat, lon, text)


def apoint(ts=0, lat=41.88, lon=-87.63, parcel=1, code=1, local=None):
    return AnnotatedPoint(ts, lat, lon, parcel, code, ts if local is None else local)


def geojson_polygon_feature(ring_latlon, category="Residential", extra_props=None):
    props = {"category": category}
    props.update(extra_props or {})
    coords = [[lon, lat] for lat, lon in ring_latlon]
    coords.append(coords[0])
    return {
        "type": "Feature",
        "properties": props,
        "geometry": {"type": "Polygon", "coordinates": [coords]},
    }


def strict_json_loads(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def write_geojson(path, features):
    Path(path).write_text(
        json.dumps({"type": "FeatureCollection", "features": features}), encoding="utf-8"
    )
    return path


@pytest.fixture
def chicago_ring():
    return ((41.20, -88.70), (41.20, -87.52), (42.49, -87.52), (42.49, -88.70))
