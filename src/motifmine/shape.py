"""Trajectory-shape analysis and distance statistics.

Each user's location history is projected to meters about its center of
mass, rotated so the principal axis of the second-moment (gyration)
tensor points due west, and scaled by the per-axis standard deviations.
Pooled normalized points form a binned density over the shared intrinsic
reference frame. Distance statistics aggregate trip lengths, daily
totals, and the gyradius about home over motif groups. A day's distances
read the visit sequence its network holds, each visit placed at its
parcel's per-day anchor; `day_metrics` condenses one day for the pipeline
and the synthetic ground truth alike. The zone correlation's two-sided
p-value is a Student-t tail written as a regularized incomplete beta and
evaluated with `math` alone, so no run imports scipy.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .annotate import UserDay
from .geo import METERS_PER_DEGREE, haversine_m
from .motifs import HOME_LABEL, parcel_key, size_group_label

DENSITY_WEIGHTS = ("point", "user")


class DegenerateTrajectory(ValueError):
    """Trajectory unusable for shape analysis (too few / identical / collinear)."""

    def __init__(self, reason: str):
        super().__init__(f"degenerate trajectory: {reason}")
        self.reason = reason


@dataclass(slots=True)
class AlignedTrajectory:
    points: np.ndarray  # (n, 2) sigma-normalized coordinates
    sigma_x: float
    sigma_y: float
    axis: tuple  # oriented principal axis in the local east/north frame


def gyration_tensor(xy: np.ndarray) -> np.ndarray:
    """Second-moment matrix [[Sxx, Sxy], [Sxy, Syy]] / n of centered coords."""
    x = xy[:, 0]
    y = xy[:, 1]
    n = len(xy)
    return np.array(
        [
            [np.dot(x, x) / n, np.dot(x, y) / n],
            [np.dot(x, y) / n, np.dot(y, y) / n],
        ]
    )


def tensor_eigen(tensor: np.ndarray):
    """Eigenvalues (descending) and matching unit eigenvectors as columns."""
    evals, evecs = np.linalg.eigh(tensor)
    order = np.argsort(evals)[::-1]
    return evals[order], evecs[:, order]


def _project_local(latlon: np.ndarray):
    lat0 = float(latlon[:, 0].mean())
    lon0 = float(latlon[:, 1].mean())
    coslat = math.cos(math.radians(lat0))
    x = (latlon[:, 1] - lon0) * METERS_PER_DEGREE * coslat
    y = (latlon[:, 0] - lat0) * METERS_PER_DEGREE
    return x - x.mean(), y - y.mean(), (lat0, lon0, coslat, float(x.mean()), float(y.mean()))


def align_trajectory(latlon_points, home=None) -> AlignedTrajectory:
    """Normalize a trajectory into the intrinsic reference frame.

    Points are centered on the trajectory's center of mass, the principal
    axis (largest-eigenvalue eigenvector of the gyration tensor) is
    oriented so the most distant point projects negative (ties resolved
    toward the home location projecting negative when given), everything
    is rotated so that axis lies along -x, and coordinates are divided by
    the per-axis standard deviations.

    Raises DegenerateTrajectory for fewer than three points, identical
    points, or collinear input (sigma_y = 0).
    """
    latlon = np.asarray(latlon_points, dtype=float).reshape(-1, 2)
    if len(latlon) < 3:
        raise DegenerateTrajectory("too_few")
    x, y, frame = _project_local(latlon)
    if float(np.max(np.abs(x))) == 0.0 and float(np.max(np.abs(y))) == 0.0:
        raise DegenerateTrajectory("identical")

    evals, evecs = tensor_eigen(gyration_tensor(np.column_stack([x, y])))
    ax, ay = float(evecs[0, 0]), float(evecs[1, 0])
    proj = x * ax + y * ay

    pmax = float(proj.max())
    pmin = float(proj.min())
    flip = False
    if home is not None and pmax == -pmin:
        lat0, lon0, coslat, mx, my = frame
        hx = (home[1] - lon0) * METERS_PER_DEGREE * coslat - mx
        hy = (home[0] - lat0) * METERS_PER_DEGREE - my
        hproj = hx * ax + hy * ay
        flip = hproj > 0.0
    else:
        flip = proj[int(np.argmax(np.abs(proj)))] > 0.0
    if flip:
        ax, ay = -ax, -ay

    xr = -(ax * x + ay * y)
    yr = ay * x - ax * y
    sigma_x = float(xr.std())
    sigma_y = float(yr.std())
    if sigma_y < 1e-9:
        raise DegenerateTrajectory("collinear")
    normalized = np.column_stack([xr / sigma_x, yr / sigma_y])
    return AlignedTrajectory(normalized, sigma_x, sigma_y, (ax, ay))


@dataclass(slots=True)
class ReferenceFrameDensity:
    """Binned point counts over the normalized frame.

    Counts are kept as integers so mass bookkeeping is exact:
    counts.sum() == in_range and in_range + out_range == total.
    """

    bins: int
    bound: float
    counts: np.ndarray  # (bins, bins) int64, [x_bin, y_bin]
    in_range: int
    out_range: int
    user_mass: np.ndarray | None = None  # the mass when each user weighs the same

    @property
    def total(self) -> int:
        return self.in_range + self.out_range

    def mass(self) -> np.ndarray:
        if self.user_mass is not None:
            return self.user_mass
        if self.total == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / self.total

    def out_of_range_mass(self) -> float:
        return self.out_range / self.total if self.total else 0.0

    def centers(self) -> np.ndarray:
        cell = 2.0 * self.bound / self.bins
        return -self.bound + cell * (np.arange(self.bins) + 0.5)


def density_histogram(streams, bins: int = 80, bound: float = 4.0,
                      weight: str = "point") -> ReferenceFrameDensity:
    """Pool normalized point arrays into one 2-D histogram.

    Cells are half-open (lower edge inclusive); points at or beyond +bound
    fall out of range and only lower the total mass inside the grid. With
    weight="user" every non-empty stream carries equal mass: its cell
    counts over its own length, averaged over the streams.
    """
    if weight not in DENSITY_WEIGHTS:
        raise ValueError(f"weight must be one of {', '.join(DENSITY_WEIGHTS)}, not {weight!r}")
    cell = 2.0 * bound / bins
    counts = np.zeros((bins, bins), dtype=np.int64)
    user_mass = np.zeros((bins, bins), dtype=float) if weight == "user" else None
    users = 0
    in_range = 0
    total = 0
    for arr in streams:
        arr = np.asarray(arr, dtype=float).reshape(-1, 2)
        total += len(arr)
        if not len(arr):
            continue
        x = arr[:, 0]
        y = arr[:, 1]
        mask = (x >= -bound) & (x < bound) & (y >= -bound) & (y < bound)
        xs = x[mask]
        ys = y[mask]
        in_range += int(mask.sum())
        ix = np.clip(np.floor((xs + bound) / cell).astype(np.int64), 0, bins - 1)
        iy = np.clip(np.floor((ys + bound) / cell).astype(np.int64), 0, bins - 1)
        if user_mass is None:
            np.add.at(counts, (ix, iy), 1)
        else:
            grid = np.zeros((bins, bins), dtype=np.int64)
            np.add.at(grid, (ix, iy), 1)
            counts += grid
            user_mass += grid / len(arr)
            users += 1
    if in_range == 0:
        warnings.warn("density_histogram: no points fell inside the grid", stacklevel=2)
    if users:
        user_mass /= users
    return ReferenceFrameDensity(bins, bound, counts, in_range, total - in_range, user_mass)


def day_anchors(day: UserDay) -> dict:
    """Per-parcel anchor for one day: centroid of that parcel's points."""
    sums: dict = {}
    for p in day.points:
        key = parcel_key(p)
        lat_s, lon_s, n = sums.get(key, (0.0, 0.0, 0))
        sums[key] = (lat_s + p.lat, lon_s + p.lon, n + 1)
    return {k: (lat_s / n, lon_s / n) for k, (lat_s, lon_s, n) in sums.items()}


def day_trips_km(keys, anchors) -> list:
    """Trip lengths in km between consecutive visits, given the parcel key
    of each of a day's visits and its `day_anchors`."""
    trips = []
    for a, b in zip(keys, keys[1:]):
        pa, pb = anchors[a], anchors[b]
        trips.append(haversine_m(pa[0], pa[1], pb[0], pb[1]) / 1000.0)
    return trips


def gyradius_from_home(keys, anchors, home_latlon) -> float:
    """RMS distance (km) from home of a day's visits, given the parcel key
    of each visit and the day's `day_anchors`.

    One sample per collapsed visit, each evaluated at its parcel's per-day
    anchor, so bursts of points at one stop do not weight the measure.
    """
    sq_sum = 0.0
    for key in keys:
        a = anchors[key]
        d_km = haversine_m(a[0], a[1], home_latlon[0], home_latlon[1]) / 1000.0
        sq_sum += d_km * d_km
    return math.sqrt(sq_sum / len(keys))


@dataclass(slots=True)
class DayMetrics:
    """Per-day inputs to the distance statistics."""

    lbm_nodes: int
    abm_nodes: int
    abm_pair: str | None  # non-home label for two-node activity networks
    n_trips: int
    total_km: float  # sum of the day's trip lengths
    gyradius_km: float


def day_metrics(net, reduced, trips_km, gyradius_km: float) -> DayMetrics:
    """A day's metrics from its LBM network, that network's ABM reduction,
    its trip lengths (km) and its gyradius about home (km)."""
    pair = None
    if reduced.node_count == 2:
        pair = next(lab for lab in reduced.labels if lab != HOME_LABEL)
    return DayMetrics(net.node_count, reduced.node_count, pair, len(trips_km), sum(trips_km),
                      gyradius_km)


@dataclass(slots=True)
class DistanceStats:
    kind: str
    group: str
    n_days: int
    n_trips: int
    d_hat: float  # mean trip distance, km
    D_hat: float  # mean total daily distance, km
    gyradius_home: float  # mean per-day RMS distance from home, km


def distance_stats(metrics, max_nodes: int = 6) -> list:
    """Aggregate distance statistics per motif group.

    Groups are node-size buckets per kind plus named two-node activity
    classes ("H-W", "H-Sh", ...). One-node days have no trips and are
    omitted. Empty groups never appear in the output.
    """
    buckets: dict = {}

    def add(kind, group, dm):
        key = (kind, group)
        if key not in buckets:
            buckets[key] = {"days": 0, "trips": 0, "total_sum": 0.0, "gyr_sum": 0.0}
        b = buckets[key]
        b["days"] += 1
        b["trips"] += dm.n_trips
        b["total_sum"] += dm.total_km
        b["gyr_sum"] += dm.gyradius_km

    for dm in metrics:
        if dm.lbm_nodes >= 2:
            add("lbm", size_group_label(dm.lbm_nodes, max_nodes), dm)
        if dm.abm_nodes >= 2:
            add("abm", size_group_label(dm.abm_nodes, max_nodes), dm)
            if dm.abm_nodes == 2 and dm.abm_pair:
                add("abm", f"H-{dm.abm_pair}", dm)

    out = []
    for (kind, group), b in sorted(buckets.items()):
        out.append(
            DistanceStats(
                kind,
                group,
                b["days"],
                b["trips"],
                b["total_sum"] / b["trips"] if b["trips"] else 0.0,
                b["total_sum"] / b["days"],
                b["gyr_sum"] / b["days"],
            )
        )
    return out


def pearson_r(xs, ys) -> float:
    """Product-moment correlation; raises ValueError on degenerate input."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("length mismatch")
    if n < 2:
        raise ValueError("need at least two observations")
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = sum((a - mx) ** 2 for a in xs)
    syy = sum((b - my) ** 2 for b in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ValueError("zero variance makes the correlation undefined")
    return sxy / math.sqrt(sxx * syy)


P_VALUE_FLOOR = 1e-300  # a smaller p-value is reported as 0.0
_BETA_CF_MAX_ITER = 300  # the fraction needs at most ~65 for b = 1/2, any a
_BETA_CF_EPS = 1e-15
_BETA_CF_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta I_x(a, b), by the
    modified Lentz method (Numerical Recipes §6.4); it converges quickly for
    x < (a + 1) / (a + b + 2). Raises RuntimeError rather than return an
    unconverged value."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _BETA_CF_TINY else _BETA_CF_TINY)
    h = d
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _BETA_CF_TINY else _BETA_CF_TINY)
            c = 1.0 + aa / c
            if abs(c) < _BETA_CF_TINY:
                c = _BETA_CF_TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_CF_EPS:
            return h
    raise RuntimeError(
        f"incomplete beta I_{x}({a}, {b}) did not converge in {_BETA_CF_MAX_ITER} iterations"
    )


def correlation_p_value(r: float, n: int) -> float | None:
    """Two-sided p-value of a Pearson r over n observations under the
    no-correlation null: Student t with n - 2 degrees of freedom.

    p = I_x(df/2, 1/2) with df = n - 2 and x = df / (df + t^2), the
    regularized incomplete beta. It is rounded to 12 significant digits
    and reported as 0.0 below P_VALUE_FLOOR. Its relative error is ~1e-10
    for n up to 10^5 and grows with the rounding of lgamma(df/2) beyond
    that: ~2e-9 at n = 10^6. None for n < 3, which leaves no degree of
    freedom.
    """
    if n < 3:
        return None
    if abs(r) >= 1.0:
        return 0.0
    df = n - 2
    tt = r * r * df / (1.0 - r * r)  # t^2
    y = tt / (df + tt)  # 1 - x, computed without cancellation
    if y == 0.0:
        return 1.0
    a, b = df / 2.0, 0.5
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log1p(-y) + b * math.log(y)
    )
    x = df / (df + tt)
    if x < (a + 1.0) / (a + b + 2.0):
        p = math.exp(log_front) * _beta_cf(a, b, x) / a
    else:
        p = 1.0 - math.exp(log_front) * _beta_cf(b, a, y) / b
    if p < P_VALUE_FLOOR:
        return 0.0
    return float(f"{p:.12g}")


def correlation_report(xs, ys) -> dict:
    """n, r, and the two-sided p-value of the no-correlation null (None for n = 2)."""
    r = pearson_r(xs, ys)
    n = len(xs)
    return {"n": n, "r": r, "p_value": correlation_p_value(r, n)}
