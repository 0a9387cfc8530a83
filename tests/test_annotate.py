import random
from datetime import date

import pytest

from motifmine import annotate
from motifmine.annotate import (
    active_locations,
    annotate_history,
    infer_home,
    select_active_days,
    split_days,
    stationary_bot_filter,
)
from motifmine.ingest import UserTrack

from conftest import apoint, make_index, make_parcel, rec
from oracles import local_date_of, slot_of

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
