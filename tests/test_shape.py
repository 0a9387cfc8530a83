import math
import random
import warnings
from datetime import date

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from motifmine import shape
from motifmine.annotate import UserDay
from motifmine.motifs import parcel_key
from motifmine.shape import (
    DayMetrics,
    DegenerateTrajectory,
    align_trajectory,
    correlation_p_value,
    correlation_report,
    day_anchors,
    day_trips_km,
    density_cells,
    density_histogram,
    distance_stats,
    gyradius_from_home,
    pearson_r,
)

from motifmine.pipeline import write_json

from conftest import apoint, strict_json_loads
from oracles import (
    M_PER_DEG,
    OracleDegenerate,
    align_trajectory_numpy,
    collapse_label_sequence,
    density_histogram_numpy,
    density_of_streams,
    gaussian_cell_mass,
    gyration_tensor,
    tensor_eigen,
)


def latlon_from_xy(xy, lat0=41.9, lon0=-87.6):
    """Plant planar meter offsets on the globe around a reference point."""
    xy = np.asarray(xy, dtype=float)
    lat = lat0 + xy[:, 1] / M_PER_DEG
    lon = lon0 + xy[:, 0] / (M_PER_DEG * math.cos(math.radians(lat0)))
    return [(float(a), float(b)) for a, b in zip(lat, lon)]


def cell_sum(grid):
    return sum(map(sum, grid))


class TestAlignTrajectory:
    def test_too_few_points_degenerate(self):
        with pytest.raises(DegenerateTrajectory) as err:
            align_trajectory([(41.9, -87.6), (41.91, -87.6)])
        assert err.value.reason == "too_few"

    def test_collinear_degenerate(self):
        pts = latlon_from_xy([(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(DegenerateTrajectory) as err:
            align_trajectory(pts)
        assert err.value.reason == "collinear"

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateTrajectory) as err:
            align_trajectory([(41.9, -87.6)] * 5)
        assert err.value.reason == "identical"

    def test_anisotropic_cloud_recovers_axis_and_unit_variance(self):
        rng = np.random.default_rng(2)
        xy = np.column_stack([rng.normal(0, 2.0, 4000), rng.normal(0, 1.0, 4000)])
        aligned = align_trajectory(latlon_from_xy(xy * 100.0))
        ax, ay = aligned.axis
        # principal axis along +-x, unit length
        assert abs(ay) < 0.05
        assert ax * ax + ay * ay == pytest.approx(1.0, abs=1e-12)
        # normalized output has exactly unit variance on both axes
        points = np.asarray(aligned.points)
        assert points[:, 0].var() == pytest.approx(1.0, abs=1e-9)
        assert points[:, 1].var() == pytest.approx(1.0, abs=1e-9)
        assert aligned.sigma_x > aligned.sigma_y

    def test_rotation_equivariance(self):
        # rotate the cloud about its center of mass in the local planar frame
        rng = np.random.default_rng(3)
        xy = np.column_stack([rng.normal(0, 300.0, 500), rng.normal(0, 120.0, 500)])
        xy -= xy.mean(axis=0)
        theta = math.radians(37.0)
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        base = np.asarray(align_trajectory(latlon_from_xy(xy)).points)
        turned = np.asarray(align_trajectory(latlon_from_xy(xy @ rot.T)).points)
        assert np.max(np.abs(base - turned)) < 1e-6

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        xy = np.column_stack([rng.normal(0, 300.0, 400), rng.normal(0, 120.0, 400)])
        xy -= xy.mean(axis=0)
        base = np.asarray(align_trajectory(latlon_from_xy(xy)).points)
        shifted = np.asarray(align_trajectory(latlon_from_xy(xy, lon0=-87.55)).points)
        assert np.max(np.abs(base - shifted)) < 1e-6

    def test_orientation_puts_most_distant_point_at_positive_x(self):
        # one decisive outlier to the east
        xy = [(-50.0, 3.0), (-40.0, -4.0), (0.0, 2.0), (500.0, 0.0), (10.0, -2.0)]
        points = np.asarray(align_trajectory(latlon_from_xy(xy)).points)
        idx = int(np.argmax(np.abs(points[:, 0])))
        assert idx == 3
        assert points[idx, 0] > 0

    def test_center_of_mass_is_origin(self):
        rng = np.random.default_rng(8)
        xy = rng.normal(0, 50.0, size=(200, 2))
        points = np.asarray(align_trajectory(latlon_from_xy(xy)).points)
        # normalized coordinates are centered
        assert abs(points[:, 0].mean()) < 1e-9
        assert abs(points[:, 1].mean()) < 1e-9


LAT = st.floats(-90.0, 90.0, allow_nan=False)
LON = st.floats(-180.0, 180.0, allow_nan=False)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(LAT, LON, st.integers(3, 39))
def test_copies_of_one_point_are_identical(lat, lon, n):
    # the mean of n equal floats need not equal them: the reason is read from
    # the input coordinates, not from the centered projection
    with pytest.raises(DegenerateTrajectory) as err:
        align_trajectory([(lat, lon)] * n)
    assert err.value.reason == "identical"


def aligned_or_reason(align, pts, home=None):
    try:
        return align(pts, home)
    except (DegenerateTrajectory, OracleDegenerate) as exc:
        return exc.reason


def assert_matches_oracle(pts, home=None):
    """The package's alignment equals the numpy oracle's: the same degenerate
    reason, or normalized points within 1e-9 and the same oriented axis."""
    got = aligned_or_reason(align_trajectory, pts, home)
    want = aligned_or_reason(align_trajectory_numpy, pts, home)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    points, sigma_x, sigma_y, axis = want
    assert len(got.points) == len(points)
    assert np.max(np.abs(np.asarray(got.points) - points)) < 1e-9
    assert got.sigma_x == pytest.approx(sigma_x, rel=1e-9)
    assert got.sigma_y == pytest.approx(sigma_y, rel=1e-9)
    assert got.axis == pytest.approx(axis, abs=1e-12)


def well_conditioned(pts):
    """The oracle's tensor has distinct eigenvalues and the extreme
    projections are no near tie, so both implementations round alike."""
    try:
        points, sigma_x, sigma_y, _ = align_trajectory_numpy(pts)
    except OracleDegenerate:
        return True
    if sigma_y > 0.99 * sigma_x or sigma_y < 1e-4 * sigma_x:
        return False
    proj = points[:, 0] * sigma_x
    return abs(proj.max() + proj.min()) > 1e-6 * (proj.max() - proj.min())


CENTER = st.tuples(st.floats(-60.0, 60.0), st.floats(-179.0, 179.0))
OFFSET_M = st.floats(-5000.0, 5000.0, allow_nan=False)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(CENTER, st.lists(st.tuples(OFFSET_M, OFFSET_M), min_size=3, max_size=60))
def test_alignment_matches_numpy_oracle(center, offsets):
    pts = latlon_from_xy(offsets, *center)
    assume(well_conditioned(pts))
    assert_matches_oracle(pts)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)),
       st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=30))
def test_collinear_points_match_oracle(origin, step, ts):
    # points on one line in (lat, lon), which is a line in the local frame;
    # below |coordinate| 60 their rounding leaves them < 1e-9 m off it
    pts = [(origin[0] + t * step[0], origin[1] + t * step[1]) for t in ts]
    got = aligned_or_reason(align_trajectory, pts)
    assert got in ("collinear", "identical")
    assert got == aligned_or_reason(align_trajectory_numpy, pts)


DYADIC = st.integers(-400, 400).map(lambda k: k / 4096.0)  # exact sums and means


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(-960, 960), st.integers(-2800, 2800)),
       st.lists(st.tuples(DYADIC, DYADIC), min_size=1, max_size=3),
       st.booleans(), st.sampled_from([None, "first", "last"]))
def test_exact_ties_match_oracle(center16, pairs, with_center, home_at):
    # mirrored pairs about a center: the two extreme projections tie exactly
    # in both implementations, so the home or the first extreme point decides
    lat0, lon0 = center16[0] / 16.0, center16[1] / 16.0
    pts = []
    for dlat, dlon in pairs:
        pts += [(lat0 + dlat, lon0 + dlon), (lat0 - dlat, lon0 - dlon)]
    if with_center:
        pts.append((lat0, lon0))
    home = {None: None, "first": pts[0], "last": pts[-2]}[home_at]
    assume(well_conditioned_for_ties(pts, home))
    assert_matches_oracle(pts, home)


def well_conditioned_for_ties(pts, home):
    try:
        _, sigma_x, sigma_y, axis = align_trajectory_numpy(pts)
    except OracleDegenerate:
        return True
    if sigma_y > 0.99 * sigma_x:
        return False
    if home is None:
        return True
    # the home must project off the perpendicular through the center
    lat0 = sum(p[0] for p in pts) / len(pts)
    lon0 = sum(p[1] for p in pts) / len(pts)
    hx = (home[1] - lon0) * math.cos(math.radians(lat0))
    hy = home[0] - lat0
    return abs(hx * axis[0] + hy * axis[1]) > 1e-6


def test_symmetric_tie_orientation_by_hand():
    # a cross, longer east-west, mirrored about its center: the projections tie
    lat0, lon0 = 41.875, -87.625
    pts = [(lat0, lon0 - 0.015625), (lat0 + 0.0078125, lon0), (lat0, lon0 + 0.015625),
           (lat0 - 0.0078125, lon0)]
    # without a home the first point is the most distant one: it lands on +x
    assert align_trajectory(pts).points[0][0] > 0
    # with a home, the home's side lands on +x
    east = align_trajectory(pts, home=(lat0, lon0 + 0.001))
    assert east.points[2][0] > 0 and east.points[0][0] < 0
    west = align_trajectory(pts, home=(lat0, lon0 - 0.001))
    assert west.points[0][0] > 0
    for home in (None, (lat0, lon0 + 0.001), (lat0, lon0 - 0.001)):
        assert_matches_oracle(pts, home)


def test_isotropic_cross_takes_the_oracle_axis():
    # on the equator a degree spans the same meters both ways, so the tensor
    # is exactly isotropic and any axis is a principal one: numpy's eigh picks
    # north, and so does the package
    pts = [(0.0, 0.5), (0.5, 0.0), (0.0, -0.5), (-0.5, 0.0)]
    assert align_trajectory(pts).axis == (-0.0, -1.0)
    assert_matches_oracle(pts)


class TestGyrationTensor:
    """The numpy oracle's tensor and eigen-decomposition."""

    def test_axis_aligned_moments(self):
        xy = np.array([(-2.0, 0.0), (2.0, 0.0), (0.0, -1.0), (0.0, 1.0)])
        t = gyration_tensor(xy)
        assert t[0, 0] == pytest.approx(2.0)
        assert t[1, 1] == pytest.approx(0.5)
        assert t[0, 1] == pytest.approx(0.0)

    def test_eigen_matches_closed_form_on_random_matrices(self):
        rng = random.Random(31)
        for _ in range(300):
            a = rng.uniform(0.1, 5.0)
            c = rng.uniform(0.1, 5.0)
            b = rng.uniform(-math.sqrt(a * c), math.sqrt(a * c))
            t = np.array([[a, b], [b, c]])
            evals, evecs = tensor_eigen(t)
            tr, det = a + c, a * c - b * b
            lam_hi = (tr + math.sqrt(tr * tr - 4 * det)) / 2.0
            lam_lo = (tr - math.sqrt(tr * tr - 4 * det)) / 2.0
            assert evals[0] == pytest.approx(lam_hi, abs=1e-12)
            assert evals[1] == pytest.approx(lam_lo, abs=1e-12)
            for k in range(2):
                residual = t @ evecs[:, k] - evals[k] * evecs[:, k]
                assert np.max(np.abs(residual)) < 1e-10
            # the package's closed-form axis is the leading eigenvector
            ax, ay = shape._principal_axis(a, b, c)
            assert abs(ax * evecs[1, 0] - ay * evecs[0, 0]) < 1e-10

    def test_eigen_oracle_diagonal(self):
        evals, evecs = tensor_eigen(np.array([[4.0, 0.0], [0.0, 1.0]]))
        assert list(evals) == [4.0, 1.0]
        assert abs(abs(evecs[0, 0]) - 1.0) < 1e-12
        assert shape._principal_axis(4.0, 0.0, 1.0) == (1.0, 0.0)
        assert shape._principal_axis(1.0, 0.0, 4.0) == (0.0, 1.0)


class TestDensityHistogram:
    def test_all_mass_at_origin(self):
        d = density_of_streams([[(0.0, 0.0)] * 100], bins=80, bound=4.0)
        assert d.mass()[40][40] == pytest.approx(1.0)
        assert cell_sum(d.counts) == 100

    def test_two_equal_clusters(self):
        pts = [(-1.0, 0.0)] * 50 + [(1.0, 0.0)] * 50
        d = density_of_streams([pts], bins=8, bound=4.0)
        assert sorted(v for row in d.mass() for v in row)[-2:] == [pytest.approx(0.5),
                                                                  pytest.approx(0.5)]

    def test_mass_conservation_is_exact_in_counts(self):
        rng = np.random.default_rng(9)
        streams = [rng.normal(0, 2.5, size=(1000, 2)).tolist() for _ in range(5)]
        d = density_of_streams(streams, bins=40, bound=3.0)
        assert d.in_range + d.out_range == d.total == 5000
        assert cell_sum(d.counts) == d.in_range
        assert d.out_range > 0  # sigma 2.5 against bound 3 spills over

    def test_half_open_cells_lower_edge_inclusive(self):
        d = density_of_streams([[(-4.0, 0.0), (4.0, 0.0), (0.0, 4.0)]], bins=8, bound=4.0)
        assert d.in_range == 1  # only the lower edge is inside
        assert d.counts[0][4] == 1

    def test_user_weighting_by_hand(self):
        # bins=2 over [-1, 1): cells split at 0. Stream a has 2 points, stream
        # b has 4 with one out of range; the empty stream carries no weight.
        a = [(-0.5, -0.5), (0.5, 0.5)]
        b = [(-0.5, -0.5), (-0.5, -0.5), (0.5, -0.5), (2.0, 0.0)]
        d = density_of_streams([a, b, []], bins=2, bound=1.0, weight="user")
        # a: 1/2 in (0,0) and (1,1); b: 2/4 in (0,0), 1/4 in (1,0); then averaged
        assert d.mass() == [[0.5, 0.0], [0.125, 0.25]]
        assert d.counts == [[3, 0], [1, 1]]
        assert (d.in_range, d.out_range) == (5, 1)
        assert d.out_of_range_mass() == 1 / 6  # counted per point in both weightings
        point = density_of_streams([a, b], bins=2, bound=1.0)
        assert point.mass() == [[0.5, 0.0], [1 / 6, 1 / 6]]

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            density_of_streams([[(0.0, 0.0)] * 3], bins=2, bound=1.0, weight="day")

    def test_empty_input_warns(self):
        with pytest.warns(UserWarning):
            d = density_of_streams([], bins=8, bound=4.0)
        assert d.total == 0
        assert cell_sum(d.mass()) == 0.0

    def test_density_cells_of_one_stream(self):
        # bins=8 over [-4, 4): the lower edge is in, +4 is out, and a coordinate
        # just below +4 rounds to bin 8 and is clipped into bin 7
        top = math.nextafter(4.0, 0.0)
        n, hits = density_cells([(top, top), (-4.0, 0.0), (4.0, 0.0), (0.0, 4.0), (top, top)],
                                bins=8, bound=4.0)
        assert n == 5
        assert list(hits.items()) == [(7 * 8 + 7, 2), (0 * 8 + 4, 1)]
        assert density_cells([], bins=8, bound=4.0) == (0, {})

    def test_unknown_weight_rejected_when_pooling(self):
        with pytest.raises(ValueError, match="weight"):
            density_histogram([density_cells([(0.0, 0.0)], 2, 1.0)], 2, 1.0, weight="day")

    def test_standard_normal_matches_analytic_cell_integrals(self):
        rng = np.random.default_rng(12345)
        n = 1_000_000
        pts = rng.standard_normal((n, 2)).tolist()
        bins, bound = 80, 4.0
        d = density_of_streams([pts], bins=bins, bound=bound)
        edges = np.linspace(-bound, bound, bins + 1)
        z_high = 0.0
        beyond3 = 0
        cells = 0
        for i in range(bins):
            for j in range(bins):
                p = gaussian_cell_mass(edges[i], edges[i + 1], edges[j], edges[j + 1])
                sigma = math.sqrt(n * p * (1.0 - p))
                if sigma < 1.0:
                    continue
                z = abs(d.counts[i][j] - n * p) / sigma
                cells += 1
                z_high = max(z_high, z)
                beyond3 += z > 3.0
        # multinomial noise: a few cells in a thousand may pass 3 sigma, none far
        assert cells > 1000
        assert beyond3 / cells < 0.01
        assert z_high < 4.5


def grid_coordinate(bins, bound):
    """A coordinate on a cell edge, at or past +-bound, or anywhere near the grid."""
    cell = 2.0 * bound / bins
    return st.one_of(
        st.integers(-1, bins + 1).map(lambda k: -bound + k * cell),
        st.sampled_from([-bound, bound, math.nextafter(bound, 0.0),
                         math.nextafter(-bound, -math.inf)]),
        st.floats(-1.5 * bound, 1.5 * bound),
    )


@st.composite
def histogram_inputs(draw):
    bins = draw(st.integers(1, 12))
    bound = draw(st.sampled_from([1.0, 2.5, 3.0, 4.0, 0.7]))
    coord = grid_coordinate(bins, bound)
    streams = draw(st.lists(st.lists(st.tuples(coord, coord), max_size=25), max_size=5))
    return bins, bound, streams


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(histogram_inputs(), st.sampled_from(shape.DENSITY_WEIGHTS))
def test_density_matches_numpy_oracle(inputs, weight):
    bins, bound, streams = inputs
    counts, in_range, out_range, mass = density_histogram_numpy(streams, bins, bound, weight)
    if in_range == 0:
        with pytest.warns(UserWarning):
            d = density_of_streams(streams, bins, bound, weight)
    else:
        d = density_of_streams(streams, bins, bound, weight)
    assert d.counts == counts.tolist()
    assert (d.in_range, d.out_range) == (in_range, out_range)
    assert d.mass() == mass.tolist()  # the same float operations, so the same bits


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(histogram_inputs(), st.sampled_from(shape.DENSITY_WEIGHTS))
def test_pooled_cells_match_the_histogram_of_the_streams(inputs, weight):
    # the pipeline bins each user's points on their own and pools the pairs later
    bins, bound, streams = inputs
    cells = [density_cells(points, bins, bound) for points in streams]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pooled = density_histogram(cells, bins, bound, weight)
        direct = density_of_streams(streams, bins, bound, weight)
    assert [n for n, _ in cells] == [len(points) for points in streams]
    assert pooled.counts == direct.counts
    assert (pooled.in_range, pooled.out_range) == (direct.in_range, direct.out_range)
    assert pooled.mass() == direct.mass()
    counts, in_range, _, mass = density_histogram_numpy(streams, bins, bound, weight)
    assert (pooled.counts, pooled.in_range) == (counts.tolist(), in_range)
    assert pooled.mass() == mass.tolist()


def make_day(latlon_parcels):
    pts = [
        apoint(ts=i * 60, lat=lat, lon=lon, parcel=pid, code=1, local=i * 60)
        for i, (lat, lon, pid) in enumerate(latlon_parcels)
    ]
    return UserDay(date(2014, 6, 2), pts, slot_count=48)


def day_visits(day):
    """The parcel key of each visit: consecutive points on one key are one visit."""
    return collapse_label_sequence([parcel_key(p) for p in day.points])


class TestGyradiusFromHome:
    def test_all_visits_at_home(self):
        day = make_day([(41.9, -87.6, 1), (41.9, -87.6, 1)])
        assert gyradius_from_home(day_visits(day), day_anchors(day), (41.9, -87.6)) == 0.0

    def test_home_and_two_km_away(self):
        lat2 = 41.9 + 2000.0 / M_PER_DEG
        day = make_day([(41.9, -87.6, 1), (lat2, -87.6, 2)])
        rms = gyradius_from_home(day_visits(day), day_anchors(day), (41.9, -87.6))
        assert rms == pytest.approx(math.sqrt(2.0), abs=2e-3)  # sqrt((0 + 4)/2)

    def test_burstiness_does_not_weight_visits(self):
        lat2 = 41.9 + 2000.0 / M_PER_DEG
        single = make_day([(41.9, -87.6, 1), (lat2, -87.6, 2)])
        bursty = make_day([(41.9, -87.6, 1)] + [(lat2, -87.6, 2)] * 10)
        a = gyradius_from_home(day_visits(single), day_anchors(single), (41.9, -87.6))
        b = gyradius_from_home(day_visits(bursty), day_anchors(bursty), (41.9, -87.6))
        assert a == pytest.approx(b, abs=1e-9)


class TestDistanceStats:
    def test_single_day_pendulum(self):
        lat2 = 41.9 + 5000.0 / M_PER_DEG
        day = make_day([(41.9, -87.6, 1), (lat2, -87.6, 2), (41.9, -87.6, 1)])
        trips = day_trips_km(day_visits(day), day_anchors(day))
        assert len(trips) == 2
        assert trips[0] == pytest.approx(5.0, abs=5e-3)
        dm = DayMetrics(2, 2, "W", len(trips), sum(trips), 0.0)
        rows = {(s.kind, s.group): s for s in distance_stats([dm])}
        assert rows[("lbm", "2")].d_hat == pytest.approx(5.0, abs=5e-3)
        assert rows[("lbm", "2")].D_hat == pytest.approx(10.0, abs=1e-2)
        assert rows[("abm", "H-W")].n_days == 1

    def test_group_mean_of_daily_totals(self):
        a = DayMetrics(2, 2, "W", 2, 10.0, 1.0)
        b = DayMetrics(2, 2, "W", 2, 14.0, 2.0)
        rows = {(s.kind, s.group): s for s in distance_stats([a, b])}
        assert rows[("lbm", "2")].D_hat == pytest.approx(12.0)
        assert rows[("lbm", "2")].d_hat == pytest.approx(6.0)
        assert rows[("lbm", "2")].gyradius_home == pytest.approx(1.5)

    def test_one_node_days_and_empty_groups_omitted(self):
        home_only = DayMetrics(1, 1, None, 0, 0.0, 0.0)
        rows = distance_stats([home_only])
        assert rows == []

    def test_seven_plus_grouping(self):
        dm = DayMetrics(9, 3, None, 9, 9.0, 2.0)
        rows = {(s.kind, s.group) for s in distance_stats([dm])}
        assert ("lbm", "7+") in rows
        assert ("abm", "3") in rows

    def test_dhat_le_Dhat_for_multi_trip_groups(self):
        rng = random.Random(6)
        metrics = []
        for _ in range(200):
            n_trips = rng.randrange(2, 7)
            trips = tuple(rng.uniform(0.5, 8.0) for _ in range(n_trips))
            metrics.append(DayMetrics(n_trips, max(2, n_trips - 1), None, len(trips), sum(trips),
                                      1.0))
        for s in distance_stats(metrics):
            assert s.D_hat >= s.d_hat


class TestPearson:
    def test_hand_computed_case(self):
        # cov = 3, var_x = var_y = 5, r = 3/5
        assert pearson_r([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)

    def test_perfect_linear(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson_r(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)
        assert pearson_r(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_degenerate_inputs_raise(self):
        with pytest.raises(ValueError):
            pearson_r([1.0], [2.0])
        with pytest.raises(ValueError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson_r([1.0, 2.0], [3.0])

    def test_matches_scipy_on_random_data(self):
        from scipy import stats

        rng = random.Random(21)
        for _ in range(20):
            n = rng.randrange(5, 40)
            xs = [rng.gauss(0, 1) for _ in range(n)]
            ys = [0.4 * x + rng.gauss(0, 1) for x in xs]
            expected = stats.pearsonr(xs, ys)
            report = correlation_report(xs, ys)
            assert report["r"] == pytest.approx(expected.statistic, abs=1e-12)
            assert report["p_value"] == pytest.approx(expected.pvalue, rel=1e-9)
            assert report["n"] == n

    def test_perfect_correlation_p_zero(self):
        report = correlation_report([1, 2, 3], [2, 4, 6])
        assert report["r"] == pytest.approx(1.0)
        assert report["p_value"] == 0.0

    def test_two_observations_write_null_p_value(self, tmp_path):
        # r lands a hair inside -1, where a Student t with 0 degrees of
        # freedom has no p-value; the report must still be valid JSON
        report = correlation_report([805.904964, 453.345603], [15, 18])
        assert report["r"] == -0.9999999999999998
        write_json(tmp_path / "correlation.json", report)
        parsed = strict_json_loads((tmp_path / "correlation.json").read_text())
        assert parsed["n"] == 2 and parsed["p_value"] is None


def scipy_two_sided_p(r, n):
    from scipy.special import stdtr

    t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    return 2.0 * float(stdtr(n - 2, -t))


class TestCorrelationPValue:
    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(min_value=3, max_value=2000),
        st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    @example(21, 0.9999999999999998)  # drawn only when this file runs alone; pinned for every run
    def test_matches_scipy_stdtr(self, n, r):
        want = scipy_two_sided_p(r, n)
        got = correlation_p_value(r, n)
        floor = shape.P_VALUE_FLOOR
        if want < floor / 2:
            assert got == 0.0
        elif want > 2 * floor:
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_zero_r_is_exactly_one(self):
        assert correlation_p_value(0.0, 3) == 1.0
        assert correlation_p_value(-0.0, 1000) == 1.0

    @pytest.mark.parametrize("r", [1.0, -1.0, 1.0000000000000002])
    def test_perfect_r_is_zero(self, r):
        assert correlation_p_value(r, 10) == 0.0

    def test_rounded_to_twelve_significant_digits(self):
        p = correlation_p_value(0.3, 50)
        assert p == float(f"{p:.12g}") != scipy_two_sided_p(0.3, 50)

    def test_large_n_converges(self):
        n, r = 10**6, 1e-3
        assert correlation_p_value(r, n) == pytest.approx(scipy_two_sided_p(r, n), rel=1e-9)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(shape, "_BETA_CF_MAX_ITER", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            correlation_p_value(0.3, 500)
