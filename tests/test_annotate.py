import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifmine import annotate
from motifmine import parcels as parcels_mod
from motifmine.annotate import (
    active_locations,
    annotate_history,
    infer_home,
    select_active_days,
    split_days,
    stationary_bot_filter,
)
from motifmine.ingest import UserTrack
from motifmine.parcels import NearestHit, Parcel, SpatialIndex, nearest_parcel

from conftest import (
    GRID_LAT0,
    GRID_LON0,
    GRID_STEP,
    apoint,
    grid_ring,
    make_index,
    make_parcel,
    rec,
)
from oracles import (
    in_night_window_float,
    local_date_of,
    nearest_parcel_scan,
    slot_of,
    split_days_setdefault,
)

HOUR = 3600
DAY = 86400


def at(day, hour, minute=0):
    return day * DAY + hour * HOUR + minute * 60


class TestAnnotateHistory:
    def test_parcel_join_and_code_12_fallback(self):
        idx = make_index(
            [
                make_parcel(1, 41.90, -87.60, half_m=100, code=1),
                make_parcel(2, 41.95, -87.60, half_m=100, code=6),
            ]
        )
        track = UserTrack(
            "u1",
            [
                rec(ts=0, lat=41.90, lon=-87.60),  # inside residential
                rec(ts=1, lat=41.97, lon=-87.60),  # ~2 km from everything
            ],
        )
        history = annotate_history(track, idx, utc_offset_minutes=0)
        assert (history[0].parcel_id, history[0].activity_code) == (1, 1)
        assert (history[1].parcel_id, history[1].activity_code) == (None, 12)

    def test_local_time_shift_crosses_midnight(self):
        idx = make_index([make_parcel(1, 41.90, -87.60)])
        # 2014-06-02T03:30:00Z is epoch 1401679800
        ts = 1401679800
        track = UserTrack("u1", [rec(ts=ts, lat=41.90, lon=-87.60)])
        history = annotate_history(track, idx, utc_offset_minutes=-300)
        p = history[0]
        assert p.local_ts == ts - 300 * 60
        assert local_date_of(p.local_ts) == date(2014, 6, 1)
        assert (p.local_ts % DAY) // HOUR == 22
        assert (p.local_ts % HOUR) // 60 == 30

    def test_count_and_order_preserved(self):
        idx = make_index([make_parcel(1, 41.90, -87.60)])
        pts = [rec(ts=i, lat=41.90 + i * 1e-5, lon=-87.60) for i in range(20)]
        history = annotate_history(UserTrack("u1", pts), idx, 0)
        assert len(history) == 20
        assert [p.ts for p in history] == [p.ts for p in pts]


def track_at(*cells):
    """A track with one fix per (row, col) grid position, a minute apart."""
    return UserTrack("u1", [rec(ts=60 * i, lat=GRID_LAT0 + r * GRID_STEP,
                                lon=GRID_LON0 + c * GRID_STEP)
                            for i, (r, c) in enumerate(cells)])


@pytest.fixture
def probes(monkeypatch):
    """The fixes `annotate_history` asks `nearest_parcel`, as (lat, lon)."""
    asked = []
    real = annotate.nearest_parcel

    def counted(lat, lon, index, radius_m):
        asked.append((lat, lon))
        return real(lat, lon, index, radius_m)

    monkeypatch.setattr(annotate, "nearest_parcel", counted)
    return asked


def joins(history):
    return [(p.parcel_id, p.activity_code) for p in history]


class TestRecentParcels:
    def test_revisits_skip_the_probe(self, probes):
        parcels = [Parcel(1, grid_ring(0, 0, 1, 1), (), 1), Parcel(2, grid_ring(0, 1, 1, 2), (), 6)]
        track = track_at((0.5, 0.5), (0.4, 0.4), (0.5, 1.5), (0.6, 1.6),
                         (0.4, 0.6), (0.6, 1.2), (0.3, 0.3))
        history = annotate_history(track, make_index(parcels), 0)
        assert joins(history) == [(1, 1), (1, 1), (2, 6), (2, 6), (1, 1), (2, 6), (1, 1)]
        assert len(probes) == 4  # each parcel is listed by its second probe in a row

    def test_a_place_left_after_one_point_is_not_guessed(self, probes):
        parcels = [Parcel(1, grid_ring(0, 0, 1, 1), (), 1), Parcel(2, grid_ring(0, 1, 1, 2), (), 6)]
        index = make_index(parcels)
        history = annotate_history(track_at(*[(0.5, 0.5), (0.5, 1.5)] * 4), index, 0)
        assert joins(history) == [(1, 1), (2, 6)] * 4
        assert len(probes) == 8
        assert index._guesses == {}

    def test_the_list_keeps_the_most_recent_distinct_parcels(self, probes):
        n = annotate.RECENT_PARCELS
        parcels = [Parcel(i + 1, grid_ring(0, i, 1, i + 1), (), 1) for i in range(n + 1)]
        index = make_index(parcels)
        stays = [(0.5, i + 0.5) for i in range(n) for _ in (0, 1)]
        annotate_history(track_at(*stays * 3), index, 0)
        assert len(probes) == 2 * n
        probes.clear()
        stays = [(0.5, i + 0.5) for i in range(n + 1) for _ in (0, 1)]
        annotate_history(track_at(*stays * 3), index, 0)
        # each stay's parcel left the list n + 1 parcels ago
        assert len(probes) == 3 * 2 * (n + 1)

    def test_an_index_builds_a_parcels_guess_once(self):
        index = make_index([Parcel(1, grid_ring(0, 0, 1, 1), (), 1)])
        track = track_at((0.5, 0.5), (0.4, 0.4), (0.6, 0.6))
        annotate_history(track, index, 0)
        guess = index.guess(index.parcels[0])
        annotate_history(track, index, 0)
        assert index.guess(index.parcels[0]) is guess

    def test_an_overlapping_smaller_id_wins_over_a_listed_parcel(self, probes):
        big = Parcel(5, grid_ring(0, 0, 3, 3), (), 6)
        small = Parcel(3, grid_ring(1, 1, 2, 2), (), 9)
        track = track_at((0.5, 0.5), (0.6, 0.6), (1.5, 1.5))
        history = annotate_history(track, make_index([big, small]), 0)
        # big is listed after the second fix and contains the third, as small does
        assert joins(history) == [(5, 6), (5, 6), (3, 9)]
        assert len(probes) == 3

    def test_a_fix_in_or_on_a_listed_parcels_hole_takes_the_probe(self, probes):
        outer = Parcel(4, grid_ring(0, 0, 3, 3), (grid_ring(1, 1, 2, 2),), 6)
        inner = Parcel(2, grid_ring(1, 1, 2, 2), (), 9)
        parcels = [outer, inner]
        # in outer twice, in the hole and so in inner, then on the hole's top
        # edge: the even-odd test puts that edge in outer, yet inner is at
        # distance 0
        track = track_at((0.5, 0.5), (0.6, 0.6), (1.5, 1.5), (2, 1.5))
        history = annotate_history(track, make_index(parcels), 0)
        edge = track.points[3]
        assert nearest_parcel_scan(edge.lat, edge.lon, parcels) == NearestHit(2, 9, 0.0)
        assert joins(history) == [(4, 6), (4, 6), (2, 9), (2, 9)]
        assert len(probes) == 4

    def test_a_fix_near_0_degrees_takes_the_probe(self, probes):
        # parcel 1's bbox misses (0.5, 0.0) by 1e-200 degrees, a distance that
        # rounds to 0 m, so the radius search takes it, the smaller id, over the
        # containing parcel 2, which is listed by then
        outside = Parcel(1, ((0.4, 1e-200), (0.4, 0.001), (0.6, 0.001), (0.6, 1e-200)), (), 3)
        containing = Parcel(2, ((0.4, -0.001), (0.4, 0.001), (0.6, 0.001), (0.6, -0.001)), (), 5)
        track = UserTrack("u1", [rec(ts=0, lat=0.5, lon=-0.0005), rec(ts=60, lat=0.5, lon=-0.0004),
                                 rec(ts=120, lat=0.5, lon=0.0)])
        history = annotate_history(track, make_index([outside, containing]), 0)
        assert joins(history) == [(2, 5), (2, 5), (1, 3)]
        assert len(probes) == 3

    def test_a_high_id_oversize_parcel_is_never_guessed(self, probes):
        # a 2 x 2 grid with one gap, under an "Others" parcel of the top id
        # that meets more than OVERSIZE_CELLS cells; its only rivals would be
        # every other parcel, so its points keep the probe's cost
        parcels = [Parcel(i + 1, grid_ring(r, c, r + 1, c + 1), (), 1)
                   for i, (r, c) in enumerate([(0, 0), (0, 1), (1, 0)])]
        others = Parcel(4, grid_ring(-200, -200, 200, 200), (), 12)
        index = make_index(parcels + [others])
        assert others in index.oversize
        gap, street = [(1.5, 1.5)] * 3, [(1.6, 1.4), (1.5, 2.5), (-0.5, 0.5)]
        history = annotate_history(track_at(*gap, (0.5, 0.5), (0.6, 0.6), *street,
                                            (0.4, 0.4)), index, 0)
        assert joins(history) == [(4, 12)] * 3 + [(1, 1)] * 2 + [(4, 12)] * 3 + [(1, 1)]
        assert len(probes) == 8  # all but the last, which parcel 1's guess takes

    def test_a_parcel_with_many_rivals_is_never_guessed(self, probes):
        # a parcel of the top id over 2 x 2 grid units holds more small
        # parcels than GUESS_MAX_RIVALS; unit parcels elsewhere keep the cells
        # about a unit, so only the rivals bound turns its guess down
        n = parcels_mod.GUESS_MAX_RIVALS + 1
        units = [Parcel(i + 1, grid_ring(10, i, 11, i + 1), (), 1) for i in range(2 * n)]
        small = [Parcel(2 * n + i + 1, grid_ring(0.05, 0.1 * i, 0.1, 0.1 * i + 0.05), (), 3)
                 for i in range(n)]
        crowded = Parcel(3 * n + 1, grid_ring(0, 0, 2, 2), (), 6)
        index = make_index(units + small + [crowded])
        assert index._cell_span(crowded.bbox)[4] <= parcels_mod.GUESS_MAX_CELLS
        history = annotate_history(track_at(*[(1.5, 1.5)] * 4), index, 0)
        assert joins(history) == [(3 * n + 1, 6)] * 4
        assert len(probes) == 4
        assert not index.guess(crowded).returns(GRID_LAT0 + 1.5 * GRID_STEP,
                                                GRID_LON0 + 1.5 * GRID_STEP)


def grid_coord(n):
    return st.one_of(
        st.integers(-2, n + 2).map(float),  # on a grid line
        st.integers(-8, 4 * n + 8).map(lambda q: q / 4.0),  # on a hole, notch or overlap edge
        st.floats(-2.0, n + 2.0, allow_nan=False),
    )


@st.composite
def join_worlds(draw):
    """An n x n grid of unit cells, each a square, a gap, a holed square or an
    L (concave), plus rectangles that overlap the grid and perhaps an oversize
    holed parcel around it; ids are shuffled. Then a track that keeps
    returning to a few fixes, many on an edge or vertex, and staying for up
    to three fixes in a row."""
    n = draw(st.integers(2, 4))
    rings = []
    for r in range(n):
        for c in range(n):
            kind = draw(st.sampled_from(["square", "square", "gap", "hole", "notch"]))
            if kind == "gap":
                continue
            ring = grid_ring(r, c, r + 1, c + 1)
            if kind == "hole":
                rings.append((ring, (grid_ring(r + 0.25, c + 0.25, r + 0.75, c + 0.75),)))
            elif kind == "notch":  # an L whose notch is the upper right quarter
                mid = grid_ring(r, c, r + 0.5, c + 0.5)[2]
                rings.append(((ring[0], ring[1], (mid[0], ring[1][1]), mid,
                               (ring[2][0], mid[1]), ring[3]), ()))
            else:
                rings.append((ring, ()))
    quarter = st.integers(0, 4 * n).map(lambda q: q / 4.0)
    for _ in range(draw(st.integers(1, 3))):
        rows = sorted(draw(st.lists(quarter, min_size=2, max_size=2, unique=True)))
        cols = sorted(draw(st.lists(quarter, min_size=2, max_size=2, unique=True)))
        rings.append((grid_ring(rows[0], cols[0], rows[1], cols[1]), ()))
    if draw(st.booleans()):  # over OVERSIZE_CELLS grid cells even when cells are 4 x 4
        rings.append((grid_ring(-200, -200, 200, 200), (grid_ring(-1, -1, n + 1, n + 1),)))
    ids = draw(st.permutations(range(1, len(rings) + 1)))
    parcels = [Parcel(pid, ring, holes, pid % 12 + 1) for pid, (ring, holes) in zip(ids, rings)]
    places = draw(st.lists(st.tuples(grid_coord(n), grid_coord(n)), min_size=2, max_size=8))
    stays = draw(st.lists(st.tuples(st.sampled_from(places), st.integers(1, 3)),
                          min_size=4, max_size=20))
    return parcels, [place for place, k in stays for _ in range(k)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(join_worlds())
def test_annotate_history_joins_as_nearest_parcel_and_the_scan(world):
    parcels, visits = world
    index = SpatialIndex(parcels)
    track = track_at(*visits)
    for p, fix in zip(annotate_history(track, index, 0), track.points):
        hit = nearest_parcel(fix.lat, fix.lon, index)
        assert hit == nearest_parcel_scan(fix.lat, fix.lon, parcels)
        assert (p.parcel_id, p.activity_code) == \
            ((None, annotate.OTHERS_CODE) if hit is None else (hit.parcel_id, hit.activity_code))


class TestStationaryBotFilter:
    def test_single_nonresidential_parcel_drops(self):
        history = [apoint(ts=i, parcel=12, code=6) for i in range(500)]
        assert stationary_bot_filter(history) is False

    def test_single_residential_parcel_keeps(self):
        history = [apoint(ts=i, parcel=3, code=1) for i in range(500)]
        assert stationary_bot_filter(history) is True

    def test_two_parcels_keep(self):
        history = [apoint(ts=0, parcel=1, code=6), apoint(ts=1, parcel=2, code=6)]
        assert stationary_bot_filter(history) is True

    def test_all_unanchored_keeps(self):
        history = [apoint(ts=i, parcel=None, code=12) for i in range(10)]
        assert stationary_bot_filter(history) is True


def history_with_counts(counts, code=6, start_ts=0):
    """counts: {parcel_id: n}; builds daytime points at hour 12."""
    history = []
    ts = start_ts
    for pid in sorted(counts):
        for _ in range(counts[pid]):
            history.append(apoint(ts=ts, parcel=pid, code=code, local=at(0, 12) + ts))
            ts += 1
    return history


class TestActiveLocations:
    def test_strictly_above_mean(self):
        # counts {A:10, B:2, C:3}: mean 5, only A qualifies
        assert active_locations(history_with_counts({1: 10, 2: 2, 3: 3})) == [1]
        # counts {A:6, B:10, C:2, D:2}: mean 5, B then A by count
        assert active_locations(history_with_counts({1: 6, 2: 10, 3: 2, 4: 2})) == [2, 1]

    def test_boundary_mean_excluded(self):
        history = history_with_counts({1: 4, 2: 4})
        assert active_locations(history) == []

    def test_tie_breaks_by_parcel_id(self):
        # counts {A:9, B:9, C:3}: mean 7, A and B tie and rank by id
        history = history_with_counts({2: 9, 1: 9, 3: 3})
        assert active_locations(history) == [1, 2]

    def test_code_12_points_do_not_count(self):
        # counts {A:2, B:1}: mean 1.5; the 50 code-12 points at parcel 9 are not counted
        history = history_with_counts({1: 2, 2: 1})
        history += [apoint(ts=100 + i, parcel=None, code=12) for i in range(50)]
        history += [apoint(ts=200 + i, parcel=9, code=12) for i in range(50)]
        assert active_locations(history) == [1]


def night_point(parcel, ts, hour=22):
    return apoint(ts=ts, parcel=parcel, code=1, local=at(0, hour) + ts)


class TestInferHome:
    def test_night_mode_picks_most_night_tweets(self):
        history = [night_point(1, i) for i in range(5)] + [night_point(2, 100 + i) for i in range(2)]
        home = infer_home(history)
        assert (home.home_parcel_id, home.rule_used) == (1, "night_mode")

    def test_night_mode_wins_over_top_residential(self):
        # parcel 2 is the top active residential, but parcel 1 has night tweets
        history = [night_point(1, 0)] + history_with_counts({2: 30, 3: 1}, code=1)
        actives = active_locations(history)
        assert actives == [2]
        home = infer_home(history)
        assert (home.home_parcel_id, home.rule_used) == (1, "night_mode")

    def test_top_residential_fallback(self):
        # no night tweets anywhere; highest-ranked residential active wins
        history = history_with_counts({5: 30}, code=6) + history_with_counts(
            {7: 20, 8: 1}, code=1, start_ts=1000
        )
        actives = active_locations(history)
        assert actives == [5, 7]
        home = infer_home(history)
        assert (home.home_parcel_id, home.rule_used) == (7, "top_residential")

    def test_no_residential_parcel_is_unknown(self):
        history = history_with_counts({5: 30, 6: 2}, code=6)
        home = infer_home(history)
        assert home.home_parcel_id is None
        assert home.rule_used == "unknown"

    def test_anchor_is_the_mean_of_the_home_parcels_points(self):
        history = [night_point(1, 0)] + history_with_counts({2: 3}, code=1, start_ts=10)
        history += [apoint(ts=20 + i, lat=41.9 + i / 7, lon=-87.6 - i / 3, parcel=1)
                    for i in range(3)]
        home = infer_home(history)
        pts = [(p.lat, p.lon) for p in history if p.parcel_id == 1]
        assert (home.home_parcel_id, home.rule_used) == (1, "night_mode")
        assert home.anchor == (sum(p[0] for p in pts) / 4, sum(p[1] for p in pts) / 4)
        fallback = infer_home(history_with_counts({7: 20, 8: 1}, code=1))
        assert fallback.rule_used == "top_residential"
        assert fallback.anchor == pytest.approx((41.88, -87.63))
        assert infer_home(history_with_counts({5: 3}, code=6)).anchor is None

    def test_actives_are_ranked_only_for_the_fallback(self, monkeypatch):
        calls = []
        monkeypatch.setattr(annotate, "active_locations",
                            lambda history: calls.append(history) or [7])
        assert infer_home([night_point(1, 0)]).rule_used == "night_mode"
        assert calls == []
        history = history_with_counts({7: 2}, code=1)
        assert infer_home(history).home_parcel_id == 7
        assert calls == [history]

    def test_night_window_wraps_midnight(self):
        early = night_point(1, 0, hour=5)  # 05:00 counts
        late_morning = night_point(2, 1, hour=6)  # 06:00 excluded (half-open)
        home = infer_home([early, late_morning])
        assert home.home_parcel_id == 1

    def test_integer_window_matches_the_float_hours_for_every_pair(self):
        # one residential point per history: it is in the window exactly
        # when the night rule finds a home; the probes sit on and around
        # every hour's first second, before and after the epoch
        probes = [d * DAY + h * HOUR + e for d in (-1, 0, 9) for h in range(24) for e in (-1, 0, 1)]
        probes += random.Random(3).sample(range(-2 * DAY, 2 * DAY), 200)
        for start in range(24):
            for end in range(24):
                if start == end:
                    continue
                for t in probes:
                    rule = infer_home([apoint(ts=t, parcel=1, code=1, local=t)], start, end).rule_used
                    assert (rule == "night_mode") == in_night_window_float(t, start, end)


class TestSplitDays:
    def test_same_slot_counts_once(self):
        pts = [apoint(ts=at(0, 8, 10), local=at(0, 8, 10)), apoint(ts=at(0, 8, 20), local=at(0, 8, 20))]
        days = split_days(pts)
        assert len(days) == 1 and days[0].slot_count == 1

    def test_three_slots(self):
        minutes = [(8, 10), (8, 40), (21, 0)]
        pts = [apoint(ts=at(0, h, m), local=at(0, h, m)) for h, m in minutes]
        assert split_days(pts)[0].slot_count == 3

    def test_midnight_splits_days(self):
        pts = [
            apoint(ts=at(0, 23, 59), local=at(0, 23, 59)),
            apoint(ts=at(1, 0, 1), local=at(1, 0, 1)),
        ]
        days = split_days(pts)
        assert len(days) == 2
        assert [d.local_date for d in days] == [date(1970, 1, 1), date(1970, 1, 2)]

    def test_partition_is_exhaustive_and_disjoint(self):
        rng = random.Random(11)
        pts = [apoint(ts=i, local=rng.randrange(0, 5 * DAY)) for i in range(300)]
        pts.sort(key=lambda p: p.local_ts)
        days = split_days(pts)
        assert sum(len(d.points) for d in days) == len(pts)
        seen = set()
        for d in days:
            for p in d.points:
                assert id(p) not in seen
                seen.add(id(p))
                assert local_date_of(p.local_ts) == d.local_date

    def test_dates_and_slot_counts_match_the_reference(self):
        rng = random.Random(5)
        for _ in range(50):  # before and after the epoch, sparse and dense days
            span = rng.choice([HOUR, DAY, 4 * DAY])
            start = rng.randrange(-3 * DAY, 3 * DAY)
            local = sorted(rng.randrange(start, start + span) for _ in range(rng.randrange(1, 60)))
            days = split_days([apoint(ts=t, local=t) for t in local])
            expected = {}
            for t in local:
                expected.setdefault(local_date_of(t), set()).add(slot_of(t))
            assert [(d.local_date, d.slot_count) for d in days] == [
                (k, len(v)) for k, v in sorted(expected.items())]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(local=st.lists(st.integers(-3 * DAY, 5 * DAY), max_size=80), seed=st.integers(0, 2**16))
def test_split_days_matches_the_reference_on_shuffled_histories(local, seed):
    pts = [apoint(ts=i, local=t) for i, t in enumerate(sorted(local))]
    random.Random(seed).shuffle(pts)  # the day changes at random points
    got = split_days(pts)
    want = split_days_setdefault(pts)
    assert [(d.local_date, d.slot_count) for d in got] == [
        (d.local_date, d.slot_count) for d in want]
    assert [[id(p) for p in d.points] for d in got] == [[id(p) for p in d.points] for d in want]


class TestSelectActiveDays:
    def make_day(self, weekday_index, n_slots):
        # 1970-01-05 was a Monday; weekday_index 0 is Monday
        day = 4 + weekday_index
        pts = [apoint(ts=at(day, 8 + s // 2, 30 * (s % 2)), local=at(day, 8 + s // 2, 30 * (s % 2)))
               for s in range(n_slots)]
        return split_days(pts)[0]

    def test_six_slots_kept_five_dropped(self):
        six = self.make_day(0, 6)
        five = self.make_day(1, 5)
        kept = select_active_days([six, five], min_slots=6)
        assert kept == [six]
        assert six.slot_count == 6 and five.slot_count == 5

    def test_saturday_dropped_when_weekdays_only(self):
        saturday = self.make_day(5, 10)
        assert saturday.local_date.weekday() == 5
        assert select_active_days([saturday], weekdays_only=True) == []
        assert select_active_days([saturday], weekdays_only=False) == [saturday]

    def test_idempotent(self):
        days = [self.make_day(i % 5, 4 + i) for i in range(6)]
        once = select_active_days(days)
        assert select_active_days(once) == once

    def test_user_scope_keeps_all_weekday_days(self):
        qualifying = self.make_day(0, 8)
        sparse = self.make_day(1, 2)
        kept = select_active_days([qualifying, sparse], scope="user")
        assert kept == [qualifying, sparse]
        kept_none = select_active_days([sparse], scope="user")
        assert kept_none == []


def test_slot_of_covers_48_slots():
    assert slot_of(0) == 0
    assert slot_of(at(0, 23, 59)) == 47
    assert slot_of(at(0, 12, 0)) == 24
