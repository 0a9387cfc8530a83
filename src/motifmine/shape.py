"""Trajectory-shape analysis and distance statistics.

Each user's location history is projected to meters about its center of
mass, rotated so the principal axis of the second-moment (gyration)
tensor points due west, and scaled by the per-axis standard deviations;
the axis comes from the 2x2 tensor in closed form. Each user's normalized
points are binned as soon as they are made (`density_cells`), and only
those per-user cell counts are pooled (`density_histogram`) into the
density over the shared intrinsic reference frame, held in nested lists.
Distance statistics aggregate trip lengths, daily totals, and the
gyradius about home over motif groups. A day's distances read the visit
sequence its network holds, each visit placed at its parcel's per-day
anchor; `day_metrics` condenses one day for the pipeline and the
synthetic ground truth alike. The zone correlation's two-sided p-value is
a Student-t tail written as a regularized incomplete beta and evaluated
with `math` alone. The module needs only the standard library, so a run
imports no third-party package.
"""

import math
import warnings
from collections import Counter
from dataclasses import dataclass

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
    points: list  # (x, y) sigma-normalized coordinates, one pair per input point
    sigma_x: float
    sigma_y: float
    axis: tuple  # oriented principal axis in the local east/north frame


def _principal_axis(sxx: float, sxy: float, syy: float) -> tuple:
    """Unit eigenvector of the larger eigenvalue of [[sxx, sxy], [sxy, syy]],
    from whichever closed form keeps its larger component free of
    cancellation. An isotropic tensor gives (0, 1)."""
    r = math.hypot((sxx - syy) / 2.0, sxy)
    if r == 0.0:
        return 0.0, 1.0
    if sxx >= syy:
        vx, vy = (sxx - syy) / 2.0 + r, sxy
    else:
        vx, vy = sxy, (syy - sxx) / 2.0 + r
    norm = math.hypot(vx, vy)
    return vx / norm, vy / norm


def align_trajectory(latlon_points, home=None) -> AlignedTrajectory:
    """Normalize a trajectory, a sequence of (lat, lon) pairs, into the
    intrinsic reference frame.

    Points are projected to local meters about their center of mass, the
    principal axis (largest-eigenvalue eigenvector of the gyration tensor)
    is oriented so the point of largest |projection| projects negative (on
    a tie between the two ends, the home location when given, else the
    first point at either end), everything is rotated so that axis lies
    along -x, and coordinates are divided by the per-axis standard
    deviations.

    Raises DegenerateTrajectory for fewer than three points, identical
    points, or collinear input (sigma_y < 1e-9 m).
    """
    pts = latlon_points
    n = len(pts)
    if n < 3:
        raise DegenerateTrajectory("too_few")
    lat_r, lon_r = pts[0]
    if all(lat == lat_r and lon == lon_r for lat, lon in pts):
        raise DegenerateTrajectory("identical")

    # Offsets from the first point keep the second moments free of cancellation.
    su = sv = suu = svv = suv = 0.0
    for lat, lon in pts:
        u = lon - lon_r
        v = lat - lat_r
        su += u
        sv += v
        suu += u * u
        svv += v * v
        suv += u * v
    mu, mv = su / n, sv / n
    kx = METERS_PER_DEGREE * math.cos(math.radians(lat_r + mv))
    ky = METERS_PER_DEGREE
    ax, ay = _principal_axis((suu / n - mu * mu) * kx * kx, (suv / n - mu * mv) * kx * ky,
                             (svv / n - mv * mv) * ky * ky)

    # Projections along (p) and across (q) the axis are centered, so their
    # RMS are the spreads.
    pu, pv, qu, qv = kx * ax, ky * ay, kx * ay, -ky * ax
    spp = sqq = 0.0
    pmax, pmin = -math.inf, math.inf
    imax = imin = 0
    for i, (lat, lon) in enumerate(pts):
        u = lon - lon_r - mu
        v = lat - lat_r - mv
        p = u * pu + v * pv
        q = u * qu + v * qv
        spp += p * p
        sqq += q * q
        if p > pmax:
            pmax, imax = p, i
        if p < pmin:
            pmin, imin = p, i
    sigma_x = math.sqrt(spp / n)
    sigma_y = math.sqrt(sqq / n)
    if sigma_y < 1e-9:
        raise DegenerateTrajectory("collinear")

    if pmax != -pmin:
        flip = pmax > -pmin
    elif home is not None:
        flip = (home[1] - lon_r - mu) * pu + (home[0] - lat_r - mv) * pv > 0.0
    else:
        flip = imax < imin and pmax > 0.0
    if flip:
        ax, ay = -ax, -ay
    # the rotated point is (-p, q) with the oriented axis, over the spreads
    xu, xv = -kx * ax / sigma_x, -ky * ay / sigma_x
    yu, yv = kx * ay / sigma_y, -ky * ax / sigma_y
    out = [((lon - lon_r - mu) * xu + (lat - lat_r - mv) * xv,
            (lon - lon_r - mu) * yu + (lat - lat_r - mv) * yv) for lat, lon in pts]
    return AlignedTrajectory(out, sigma_x, sigma_y, (ax, ay))


@dataclass(slots=True)
class ReferenceFrameDensity:
    """Binned point counts over the normalized frame, counts[x_bin][y_bin].

    Counts are integers, so the mass bookkeeping is exact:
    sum(map(sum, counts)) == in_range and in_range + out_range == total.
    """

    bins: int
    bound: float
    counts: list  # bins lists of bins ints
    in_range: int
    out_range: int
    user_mass: list | None = None  # the mass when each user weighs the same

    @property
    def total(self) -> int:
        return self.in_range + self.out_range

    def mass(self) -> list:
        if self.user_mass is not None:
            return self.user_mass
        total = self.total
        return [[c / total if total else 0.0 for c in row] for row in self.counts]

    def out_of_range_mass(self) -> float:
        return self.out_range / self.total if self.total else 0.0

    def centers(self) -> list:
        cell = 2.0 * self.bound / self.bins
        return [-self.bound + cell * (k + 0.5) for k in range(self.bins)]


def density_cells(points, bins: int = 80, bound: float = 4.0) -> tuple:
    """One stream of normalized (x, y) points binned: (its point count, a
    Counter of the in-range cells it hits, keyed x_bin * bins + y_bin, in
    the order of each cell's first hit).

    Cells are half-open (lower edge inclusive); points at or beyond +bound
    fall out of range, so they count only in the point count.
    """
    cell = 2.0 * bound / bins
    clip = [*range(bins), bins - 1]  # a coordinate just below +bound can round to `bins`
    floor = math.floor
    return len(points), Counter([clip[floor((x + bound) / cell)] * bins
                                 + clip[floor((y + bound) / cell)]
                                 for x, y in points if -bound <= x < bound and -bound <= y < bound])


def density_histogram(cells, bins: int = 80, bound: float = 4.0,
                      weight: str = "point") -> ReferenceFrameDensity:
    """Pool the `density_cells` pairs of several streams, binned with the
    same `bins` and `bound`, into one 2-D histogram.

    Out-of-range points only lower the total mass inside the grid. With
    weight="user" every non-empty stream carries equal mass: its cell
    counts over its own length, averaged over the streams.
    """
    if weight not in DENSITY_WEIGHTS:
        raise ValueError(f"weight must be one of {', '.join(DENSITY_WEIGHTS)}, not {weight!r}")
    counts = [[0] * bins for _ in range(bins)]
    user_mass = [[0.0] * bins for _ in range(bins)] if weight == "user" else None
    users = 0
    in_range = 0
    total = 0
    for n, hits in cells:
        total += n
        for key, k in hits.items():
            i, j = divmod(key, bins)
            counts[i][j] += k
            in_range += k
            if user_mass is not None:
                user_mass[i][j] += k / n
        users += n > 0
    if in_range == 0:
        warnings.warn("no points fell inside the density grid", stacklevel=2)
    if user_mass is not None and users:
        user_mass = [[m / users for m in row] for row in user_mass]
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
    x = df / (df + tt)
    a, b = df / 2.0, 0.5
    # log(x) from whichever of x and y is the smaller: 1 - y loses the digits
    # of a small x, and a * log(x) multiplies that error by a
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * log_x + b * math.log(y)
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
