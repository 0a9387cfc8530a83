import math
import random
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from motifmine import ingest, pipeline
from motifmine.geo import haversine_m
from motifmine.ingest import (
    _END_TS,
    _MIN_TS,
    DEFAULT_BLOCKLIST,
    FilterConfig,
    ParseReport,
    RecordSchema,
    SpeedDecision,
    UserTrack,
    format_timestamp,
    parse_records,
    parse_records_path,
    parse_timestamp,
    prefilter,
    residency_filter,
    speed_filter,
)

from conftest import rec
from oracles import (
    group_tracks,
    iso_timestamp,
    local_date_of,
    prefilter_brute_force,
    speed_filter_unbounded,
)

R = 6_371_000.0


def lines(*rows):
    return list(rows)


def epoch(*fields):
    return int(datetime(*fields, tzinfo=timezone.utc).timestamp())


class TestParse:
    def test_well_formed_line(self):
        recs, report = parse_records(lines("u1,2014-03-01T12:00:00Z,41.88,-87.63,gps,hello"))
        assert len(recs) == 1
        r = recs[0]
        assert r.user_id == "u1"
        assert r.lat == 41.88 and r.lon == -87.63
        assert r.text == "hello"
        assert report.records == 1 and report.lines == 1

    def test_timestamp_parses_to_utc_epoch(self):
        recs, _ = parse_records(lines("u1,1970-01-01T00:01:00Z,0,0,gps,"))
        assert recs[0].ts == 60
        recs, _ = parse_records(lines("u1,1970-01-01T01:00:00+01:00,0,0,gps,"))
        assert recs[0].ts == 0

    def test_format_timestamp_round_trips(self):
        assert format_timestamp(0) == "1970-01-01T00:00:00Z"
        assert format_timestamp(1401667260) == "2014-06-02T00:01:00Z"
        assert format_timestamp(_MIN_TS) == "0001-01-02T00:00:00Z"
        assert format_timestamp(_END_TS - 1) == "9999-12-30T23:59:59Z"
        rng = random.Random(8)
        fixed = [_MIN_TS, _END_TS - 1, -1, 0, 86399, 86400,
                 epoch(2000, 2, 29), epoch(1900, 3, 1), epoch(999, 3, 1, 12)]
        for ts in fixed + [rng.randrange(0, 4_000_000_000) for _ in range(200)]:
            assert format_timestamp(ts) == iso_timestamp(ts)
            assert parse_timestamp(format_timestamp(ts)) == ts
            assert format_timestamp(ts, zone="") == iso_timestamp(ts, zone="")

    def test_out_of_bounds_latitude_counted(self):
        recs, report = parse_records(lines("u1,2014-03-01T12:00:00Z,99.0,-87.63,gps,"))
        assert not recs
        assert report.bad_coord == 1

    def test_geocoded_source_dropped_and_counted(self):
        recs, report = parse_records(lines("u1,2014-03-01T12:00:00Z,41.88,-87.63,geocoded,"))
        assert not recs
        assert report.geocoded == 1

    def test_malformed_lines_skipped_never_fatal(self):
        recs, report = parse_records(
            lines(
                "garbage",
                "u1,not-a-time,41.88,-87.63,gps,",
                "u1,2014-03-01T12:00:00Z,not-a-lat,-87.63,gps,",
                ",2014-03-01T12:00:00Z,41.88,-87.63,gps,",
                "u1,2014-03-01T12:00:00Z,41.88,-87.63,carrier-pigeon,",
                "u1,2014-03-01T12:00:00Z,41.88,-87.63,gps,ok",
            )
        )
        assert len(recs) == 1
        assert report.malformed == 5
        assert report.lines == 6

    def test_quoted_text_with_delimiter(self):
        recs, _ = parse_records(lines('u1,2014-03-01T12:00:00Z,41.88,-87.63,gps,"a, b"'))
        assert recs[0].text == "a, b"
        recs, report = parse_records(lines(
            'u1,2014-03-01T12:00:00Z,41.88,-87.63,gps,"say ""hi"", then go"\n',
            'u2,2014-03-01T12:00:00Z,41.88,-87.63,"gps","x"\n',
        ))
        assert [(r.user_id, r.text) for r in recs] == [("u1", 'say "hi", then go'), ("u2", "x")]
        assert (report.lines, report.malformed) == (2, 0)

    @pytest.mark.parametrize("end", ["\n", "\r\n", ""])
    def test_unbalanced_quote_ends_at_its_line(self, end):
        recs, report = parse_records(lines(
            f'u1,2014-03-01T12:00:00Z,41.88,-87.63,gps,"so it begins{end}',
            f"u2,2014-03-01T12:00:00Z,41.88,-87.63,gps,ok{end}",
            f"u3,2014-03-01T12:00:00Z,41.88,-87.63,gps,{end}",
        ))
        assert [(r.user_id, r.text) for r in recs] == [("u2", "ok"), ("u3", "")]
        assert (report.lines, report.malformed, report.records) == (3, 1, 2)

    @pytest.mark.parametrize("stamp, ok", [
        ("0001-01-01T23:59:59Z", False),
        ("0001-01-02T00:00:00Z", True),
        ("0001-01-02T00:30:00+01:00", False),
        ("9999-12-30T23:59:59Z", True),
        ("9999-12-31T00:00:00Z", False),
        ("9999-12-30T23:59:59-23:59", False),
        ("9999-12-31T23:59:59-23:59", False),
    ])
    def test_timestamp_keeps_a_day_inside_the_date_range(self, stamp, ok):
        recs, report = parse_records(lines(f"u1,{stamp},41.88,-87.63,gps,"))
        assert (len(recs), report.malformed) == ((1, 0) if ok else (0, 1))
        for r in recs:  # local dates under the widest offsets exist
            assert local_date_of(r.ts - 1440 * 60) < local_date_of(r.ts + 1440 * 60)

    def test_unsplittable_line_counted_and_parsing_resumes(self):
        huge = "x" * 200_000  # over csv.field_size_limit()
        recs, report = parse_records(lines(
            f"u1,2014-03-01T12:00:00Z,41.88,-87.63,gps,{huge}\n",
            "u1,2014-03-01T12:00:00Z,41.88,-87.63,gps,ok\n",
            "u1,2014-03-01T12:00:00Z,41.88,-87.63,gps,a\rb\n",  # bare CR inside a field
            "u2,2014-03-01T12:00:00Z,41.88,-87.63,gps,ok\n",
        ))
        assert [r.user_id for r in recs] == ["u1", "u2"]
        assert (report.lines, report.malformed) == (4, 2)

    def test_a_line_that_is_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(
            b"u1,2014-03-01T12:00:00Z,41.88,-87.63,gps,caf\xc3\xa9\n"  # UTF-8 e-acute
            b"u2,2014-03-01T12:00:00Z,41.88,-87.63,gps,caf\xe9\n"  # Latin-1 e-acute
            b"u3,2014-03-01T12:00:00Z,41.88,-87.63,gps,\"open \xff\n"
            b"u4,2014-03-01T12:00:00Z,41.88,-87.63,gps,ok"
        )
        recs, report = parse_records_path(path)
        assert [(r.user_id, r.text) for r in recs] == [("u1", "caf\u00e9"), ("u4", "ok")]
        assert (report.lines, report.malformed) == (4, 2)


    def test_a_bare_cr_stays_inside_its_line(self, tmp_path):
        # only "\n" ends a line of the file: an unquoted "\r" makes its line
        # malformed, and a quoted one is kept in its field
        path = tmp_path / "records.csv"
        path.write_bytes(
            b"u1,2014-03-01T12:00:00Z,41.88,-87.63,gps,x\ry\n"
            b'u2,2014-03-01T12:00:00Z,41.88,-87.63,gps,"p\rq"\n'
            b"u3,2014-03-01T12:00:00Z,41.88,-87.63,gps,ok\r\n"
            b"u4,2014-03-01T12:00:00Z,41.88,-87.63,gps,ok"
        )
        recs, report = parse_records_path(path)
        assert [(r.user_id, r.text) for r in recs] == [("u2", "p\rq"), ("u3", "ok"), ("u4", "ok")]
        assert (report.lines, report.malformed) == (4, 1)

    def test_kept_records_share_one_source_string(self):
        recs, _ = parse_records(lines("u1,2014-03-01T12:00:00Z,41.88,-87.63, GPS ,a\n",
                                      "u2,2014-03-01T12:00:00Z,41.88,-87.63,gps,b\n"))
        assert [(r.user_id, r.text) for r in recs] == [("u1", "a"), ("u2", "b")]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers(_MIN_TS, _END_TS - 1))
def test_format_timestamp_matches_isoformat_over_the_parsed_range(ts):
    out = format_timestamp(ts)
    assert out == iso_timestamp(ts)
    assert parse_timestamp(out) == ts


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.integers(_MIN_TS - 86400, _END_TS + 86400 - 1))
def test_naive_format_covers_every_local_time(ts):
    # a local time is a parsed UTC time shifted by up to a day either way
    assert format_timestamp(ts, zone="") == iso_timestamp(ts, zone="")


record_field = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["u1", "gps", "GPS ", "geocoded", "41.88", "-87.63", "91", "nan", "1e999",
                     "2014-03-01T12:00:00Z", "9999-12-31T23:59:59-23:59", "0001-01-01T00:00:00",
                     '"a, b"', '"open', "\r", "\x00"]),
)
record_line = st.one_of(st.text(), st.lists(record_field, min_size=4, max_size=7).map(",".join))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(record_line, max_size=12))
def test_parse_records_never_raises_and_counts_add_up(raw_lines):
    recs, report = parse_records([line + "\n" for line in raw_lines])
    assert report.records == len(recs)
    assert report.records + report.malformed + report.bad_coord + report.geocoded == report.lines
    assert report.lines == len(raw_lines)


class TestPrefilter:
    def test_exact_duplicates_keep_first(self):
        a = rec(text="first")
        b = rec(text="second")  # same (user, ts, lat, lon) key
        out = prefilter([a, b], FilterConfig())
        assert out == [a]

    def test_outside_boundary_removed(self, chicago_ring):
        inside = rec(lat=41.88, lon=-87.63)
        outside = rec(lat=0.0, lon=0.0, ts=1)
        out = prefilter([inside, outside], FilterConfig(boundary=chicago_ring))
        assert out == [inside]

    def test_blocklist_substring_case_insensitive(self):
        spam = rec(text="We are hiring! Apply now")
        ham = rec(ts=1, text="lunch time")
        out = prefilter([spam, ham], FilterConfig(keyword_blocklist=("hiring", "job")))
        assert out == [ham]

    def test_default_blocklist_contents(self):
        assert "hiring" in DEFAULT_BLOCKLIST and "weather alert" in DEFAULT_BLOCKLIST

    def test_order_preserved_and_idempotent(self, chicago_ring):
        rng = random.Random(99)
        records = []
        for i in range(400):
            records.append(
                rec(
                    user=f"u{rng.randrange(5)}",
                    ts=rng.randrange(1000),
                    lat=rng.uniform(40.0, 43.0),
                    lon=rng.uniform(-89.0, -87.0),
                    text=rng.choice(["", "hello", "now hiring", "traffic jam"]),
                )
            )
        cfg = FilterConfig(boundary=chicago_ring)
        once = prefilter(records, cfg)
        twice = prefilter(once, cfg)
        assert once == twice
        positions = {id(r): i for i, r in enumerate(records)}
        assert [positions[id(r)] for r in once] == sorted(positions[id(r)] for r in once)


# (lat, lon) ring with a reflex vertex at (2, 2) and two edges along the
# crossing test's ray (lat 0 and lat 4). The sampled points lie on its
# vertices and edges, inside it, outside it and in its notch.
NOTCHED_RING = ((0.0, 0.0), (0.0, 4.0), (2.0, 2.0), (4.0, 4.0), (4.0, 0.0))
ring_points = st.sampled_from([
    *NOTCHED_RING,
    (0.0, 2.0), (1.0, 3.0), (3.0, 3.0), (4.0, 2.0), (2.0, 0.0),  # on an edge
    (1.0, 1.0), (2.0, 3.0), (5.0, 5.0), (-1.0, 2.0), (2.0, 2.5),
])
points = st.one_of(ring_points, st.tuples(st.floats(-1.0, 5.0), st.floats(-1.0, 5.0)))
texts = st.lists(
    st.sampled_from(["", "job", "JOB", "Hiring", "hir", "ing", " ", "x", "weather alert",
                     "é", "ß"]),
    max_size=4,
).map("".join)
keywords = st.lists(st.one_of(st.sampled_from(["job", "hiring", "weather alert", "x", "JoB"]),
                              st.text(min_size=1, max_size=3)), max_size=4)
prefilter_records = st.lists(
    st.builds(lambda user, ts, point, text: rec(user, ts, *point, text=text),
              st.sampled_from(["u1", "u2"]), st.integers(0, 2), points, texts),
    max_size=25,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(prefilter_records, st.one_of(st.none(), st.just(NOTCHED_RING)), keywords)
def test_prefilter_matches_brute_force(records, boundary, blocklist):
    cfg = FilterConfig(boundary=boundary, keyword_blocklist=tuple(blocklist))
    expected = prefilter_brute_force(records, boundary, blocklist)
    assert [id(r) for r in prefilter(records, cfg)] == [id(r) for r in expected]


@st.composite
def interleaved_streams(draw):
    """2-4 users whose records interleave and share a few (ts, lat, lon)
    keys, so keys repeat within one user and across users."""
    users = [f"u{i}" for i in range(draw(st.integers(2, 4)))]
    keys = draw(st.lists(st.tuples(st.integers(0, 2), points), min_size=1, max_size=4))
    picks = st.tuples(st.sampled_from(users), st.sampled_from(keys), texts)
    return [rec(user, ts, *point, text=text)
            for user, (ts, point), text in draw(st.lists(picks, max_size=30))]


def ingest_in_memory(records, boundary, blocklist) -> pipeline.Ingested:
    """`pipeline.ingest` on records already parsed, with user ids kept and
    user filters that keep every user."""
    cfg = pipeline.RunConfig(records="records.csv", hash_ids=False)
    filters = FilterConfig(boundary=boundary, keyword_blocklist=tuple(blocklist))
    inputs = pipeline.Inputs(None, None, RecordSchema(), filters, None)
    with mock.patch.object(ingest, "parse_records_path", return_value=(records, ParseReport())), \
            mock.patch.object(ingest, "speed_filter", return_value=SpeedDecision(True)), \
            mock.patch.object(ingest, "residency_filter", return_value=True):
        return pipeline.ingest(cfg, inputs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(interleaved_streams(), st.one_of(st.none(), st.just(NOTCHED_RING)), keywords)
# a blocked first occurrence: its later duplicate is dropped too, and another
# user's record with the same key is kept
@example([rec("u1", 0, 1.0, 1.0, text="job"), rec("u2", 0, 1.0, 1.0),
          rec("u1", 0, 1.0, 1.0)], None, ["job"])
# equal times at different places: the tie keeps input order, users interleaved
@example([rec("u1", 1, 1.0, 1.0), rec("u2", 0, 1.0, 1.0), rec("u1", 1, 3.0, 3.0),
          rec("u1", 0, 2.0, 3.0), rec("u1", 1, 1.0, 3.0)], None, [])
# every record of u2 is dropped (outside, blocked or a duplicate): u2 gets no track
@example([rec("u2", 0, 5.0, 5.0), rec("u1", 0, 1.0, 1.0), rec("u2", 1, 1.0, 1.0, text="x"),
          rec("u2", 0, 5.0, 5.0)], NOTCHED_RING, ["x"])
def test_per_user_ingest_matches_one_prefilter_of_the_stream(records, boundary, blocklist):
    got = ingest_in_memory(records, boundary, blocklist)
    kept = prefilter_brute_force(records, boundary, blocklist)
    expected = group_tracks(kept)
    assert [(t.user_id, [id(p) for p in t.points]) for t in got.tracks] == \
        [(t.user_id, [id(p) for p in t.points]) for t in expected]
    assert got.prefiltered == len(kept)


def equator_point_at_m(meters: float):
    """Oracle: along the equator, arc length = R * radians(dlon)."""
    return 0.0, math.degrees(meters / R)


class TestSpeedFilter:
    def test_fast_pair_drops_user(self):
        # 1000 km in one hour is ~277.8 m/s, above the 240 m/s cap
        lat2, lon2 = equator_point_at_m(1_000_000.0)
        track = UserTrack("u1", [rec(lat=0.0, lon=0.0, ts=0), rec(lat=lat2, lon=lon2, ts=3600)])
        decision = speed_filter(track, FilterConfig())
        assert not decision.keep
        assert decision.speed_mps == pytest.approx(1_000_000.0 / 3600.0, rel=1e-4)
        assert decision.offender == (track.points[0], track.points[1])

    def test_boundary_is_strict_keep_at_238_9(self):
        # 860 km in 3600 s is ~238.9 m/s, inside the cap
        lat2, lon2 = equator_point_at_m(860_000.0)
        track = UserTrack("u1", [rec(lat=0.0, lon=0.0, ts=0), rec(lat=lat2, lon=lon2, ts=3600)])
        assert speed_filter(track, FilterConfig()).keep

    def test_zero_distance_any_dt_keeps(self):
        track = UserTrack("u1", [rec(ts=0), rec(ts=0), rec(ts=1000)])
        assert speed_filter(track, FilterConfig()).keep

    def test_zero_dt_nonzero_distance_drops(self):
        track = UserTrack("u1", [rec(ts=0, lon=-87.63), rec(ts=0, lon=-87.0)])
        decision = speed_filter(track, FilterConfig())
        assert not decision.keep
        assert decision.speed_mps == math.inf

    def test_decision_invariant_under_appending_slow_point(self):
        rng = random.Random(7)
        cfg = FilterConfig()
        for _ in range(50):
            pts = []
            ts = 0
            lat, lon = 41.9, -87.6
            for _ in range(rng.randrange(2, 8)):
                ts += rng.randrange(60, 3600)
                lat += rng.uniform(-0.01, 0.01)
                lon += rng.uniform(-0.01, 0.01)
                pts.append(rec(ts=ts, lat=lat, lon=lon))
            track = UserTrack("u1", pts)
            before = speed_filter(track, cfg).keep
            if not before:
                continue
            # append a point whose implied speed is well under the cap
            slow = rec(ts=pts[-1].ts + 3600, lat=pts[-1].lat + 0.001, lon=pts[-1].lon)
            assert speed_filter(UserTrack("u1", pts + [slow]), cfg).keep == before

    # Each cap lies just above R * (|dlat| + |dlon|) in radians, the bound
    # below which a pair may skip the haversine distance, yet below that
    # distance: near antipodes haversine_m exceeds the bound by up to ~7e-9
    # relative, and below ~1e-150 m, where its squared sines are subnormal,
    # by 41 %. A margin of 1e-9, or one without a floor, would keep the user.
    @pytest.mark.parametrize("a, b, dt, slack", [
        ((0.0, -45.83882204988214), (0.0, 134.16117674282194), 100_000, 2e-9),
        ((0.0, 0.0), (1.802e-160, 0.0), 1, 0.1),
    ])
    def test_a_cap_just_above_the_degree_bound_still_drops(self, a, b, dt, slack):
        bound = R * math.radians(abs(b[0] - a[0]) + abs(b[1] - a[1]))
        cap = bound * (1 + slack) / dt
        pts = [rec(ts=0, lat=a[0], lon=a[1]), rec(ts=dt, lat=b[0], lon=b[1])]
        decision = speed_filter(UserTrack("u1", pts), FilterConfig(max_speed_mps=cap))
        assert not decision.keep
        assert decision == speed_filter_unbounded(pts, cap)


LATS = st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, -0.0, 0.0, 90.0]),
                 st.floats(89.999, 90.0), st.floats(-90.0, -89.999))
LONS = st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 0.0, 180.0]),
                 st.floats(179.999, 180.0), st.floats(-180.0, -179.999))
TINY = st.floats(-1e-150, 1e-150)


@st.composite
def speed_tracks(draw):
    """Points that step a little, anywhere, to near the antipode, across
    the antimeridian, to within 1e-150 degrees of (0, 0) or nowhere, with
    time steps that may be zero or negative, and a cap: within 1e-8
    relative of one pair's haversine speed, infinite, or any."""
    lat, lon = draw(LATS), draw(LONS)
    ts = draw(st.integers(0, 10 ** 9))
    pts = [rec(ts=ts, lat=lat, lon=lon)]
    for _ in range(draw(st.integers(1, 4))):
        step = draw(st.sampled_from(["near", "any", "antipode", "antimeridian", "tiny", "stay"]))
        if step == "near":
            lat = min(90.0, max(-90.0, lat + draw(st.floats(-0.01, 0.01))))
            lon = min(180.0, max(-180.0, lon + draw(st.floats(-0.01, 0.01))))
        elif step == "any":
            lat, lon = draw(LATS), draw(LONS)
        elif step == "antipode":
            lat = min(90.0, max(-90.0, -lat + draw(st.floats(-1e-6, 1e-6))))
            lon = lon - math.copysign(180.0, lon) + draw(st.floats(-1e-6, 1e-6))
        elif step == "antimeridian":
            lon = math.copysign(180.0, -lon) - math.copysign(draw(st.floats(0.0, 1e-3)), -lon)
        elif step == "tiny":
            lat, lon = draw(TINY), draw(TINY)
        ts += draw(st.one_of(st.integers(-60, 0), st.integers(1, 10 ** 6)))
        pts.append(rec(ts=ts, lat=lat, lon=lon))
    k = draw(st.integers(0, len(pts) - 2))
    a, b = pts[k], pts[k + 1]
    dist, dt = haversine_m(a.lat, a.lon, b.lat, b.lon), b.ts - a.ts
    kind = draw(st.sampled_from(["near", "inf", "any"]))
    if kind == "near" and dt > 0 and dist > 0.0:
        cap = dist * (1.0 + draw(st.floats(-1e-8, 1e-8))) / dt
    elif kind == "inf":
        cap = math.inf
    else:
        cap = draw(st.floats(1e-3, 1e4))
    assume(cap > 0.0)
    return pts, cap


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(speed_tracks())
def test_speed_filter_matches_the_unbounded_filter(case):
    pts, cap = case
    decision = speed_filter(UserTrack("u1", pts), FilterConfig(max_speed_mps=cap))
    assert decision == speed_filter_unbounded(pts, cap)


class TestResidencyFilter:
    def test_long_span_keeps(self):
        track = UserTrack("u1", [rec(ts=0), rec(ts=45 * 86400)])
        assert residency_filter(track, FilterConfig())

    def test_exactly_30_days_drops(self):
        track = UserTrack("u1", [rec(ts=0), rec(ts=30 * 86400)])
        assert not residency_filter(track, FilterConfig())

    def test_single_record_drops(self):
        assert not residency_filter(UserTrack("u1", [rec(ts=0)]), FilterConfig())

    def test_active_days_mode(self):
        cfg = FilterConfig(residency_mode="active-days", min_residency_days=3)
        pts = [rec(ts=d * 86400) for d in range(4)]
        assert residency_filter(UserTrack("u1", pts), cfg)  # 4 distinct days > 3
        assert not residency_filter(UserTrack("u1", pts[:3]), cfg)


def test_group_tracks_sorted_and_chronological():
    records = [rec(user="b", ts=5), rec(user="a", ts=9), rec(user="a", ts=1)]
    tracks = group_tracks(records)
    assert [t.user_id for t in tracks] == ["a", "b"]
    assert [p.ts for p in tracks[0].points] == [1, 9]


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(max_speed_mps=0)
    with pytest.raises(ValueError):
        FilterConfig(residency_mode="sometimes")
    with pytest.raises(ValueError, match="min_residency_days must be positive and finite"):
        FilterConfig(min_residency_days=math.inf)  # no span or day count would reach it
    bowtie = ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        FilterConfig(boundary=bowtie)


@pytest.mark.parametrize("field, message", [
    ("max_speed_mps", "max_speed_mps must be positive"),
    ("min_residency_days", "min_residency_days must be positive"),
])
def test_filter_config_refuses_a_nan_threshold(field, message):
    with pytest.raises(ValueError, match=message):
        FilterConfig(**{field: math.nan})


def test_an_infinite_speed_cap_means_no_cap():
    pts = [rec(ts=0, lat=0.0, lon=0.0), rec(ts=1, lat=1.0, lon=0.0)]  # 111 km in 1 s
    assert speed_filter(UserTrack("u1", pts), FilterConfig(max_speed_mps=math.inf)).keep


def test_schema_columns_reorder():
    from motifmine.ingest import RecordSchema, parse_schema_columns

    columns = parse_schema_columns("lat=0,lon=1,user_id=2,timestamp=3,location_source=4")
    schema = RecordSchema(columns=columns)
    recs, report = parse_records(["41.88,-87.63,u1,2014-03-01T12:00:00Z,gps"], schema)
    assert report.malformed == 0
    assert recs[0].user_id == "u1" and recs[0].lat == 41.88
    with pytest.raises(ValueError):
        parse_schema_columns("lat=0")
    with pytest.raises(ValueError):
        parse_schema_columns("lat=zero,lon=1,user_id=2,timestamp=3,location_source=4")


@pytest.mark.parametrize("spec, message", [
    ("user_id=0,timestamp=1,lat=2,lon=2,location_source=4", "'lat' and 'lon' share column 2"),
    ("user_id=0,timestamp=1,lat=2,lon=3,location_source=4,lat=2", "'lat' given twice"),
    ("user_id=0,timestamp=1,lat=2,lon=3,location_source=4,lat=5", "'lat' given twice"),
    ("user_id=0,timestamp=1,lat=2,lon=3,location_source=4,text=1", "'timestamp' and 'text'"),
])
def test_schema_columns_reject_a_repeated_field_or_column(spec, message):
    from motifmine.ingest import parse_schema_columns

    with pytest.raises(ValueError, match=message):
        parse_schema_columns(spec)
