"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Expected values come from independent oracles
(brute-force permutation search, walk enumeration, closed-form arithmetic)
or from synthetic ground truth planted by the generator.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from motifmine import annotate, synth
from motifmine.annotate import select_active_days, split_days
from motifmine.ingest import FilterConfig, UserTrack, residency_filter, speed_filter
from motifmine.motifs import census_from_signatures, graph_signature
from motifmine.parcels import SpatialIndex, nearest_parcel
from motifmine.pipeline import RunConfig, run
from motifmine.shape import DegenerateTrajectory, align_trajectory

from conftest import apoint, make_index, make_parcel, rec
from fixtures.lbm_structures import LBM_STRUCTURES
from oracles import (
    brute_force_isomorphic,
    canonical_mask,
    edges_from_mask,
    enumerate_closed_walk_masks,
    graphs_isomorphic,
    mask_from_edges,
    mask_nodes,
    nearest_parcel_scan,
)
from test_shape import latlon_from_xy

R = 6_371_000.0


def ok(line: str):
    print(f"ACCEPTANCE PASS: {line}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def mixture_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("mixture")
    cfg = synth.SynthConfig(num_users=300, days=20, seed=42)
    return synth.generate(cfg, out)


@pytest.fixture(scope="module")
def noisy_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("noisy")
    cfg = synth.SynthConfig(
        num_users=300,
        days=20,
        seed=42,
        bots=synth.BotSpec(stationary=30, teleporter=10),
        tourist_count=20,
    )
    return synth.generate(cfg, out)


def world_config(world, out_dir, **kw):
    return RunConfig(
        records=str(world["paths"]["records"]),
        parcels=str(world["paths"]["parcels"]),
        boundary=str(world["paths"]["boundary"]),
        out_dir=str(out_dir),
        **kw,
    )


@pytest.fixture(scope="module")
def mixture_run(mixture_world, tmp_path_factory):
    out = tmp_path_factory.mktemp("mixture_run")
    started = time.monotonic()
    result = run(world_config(mixture_world, out, workers=1), "all")
    result["elapsed"] = time.monotonic() - started
    result["out_dir"] = out
    return result


# ------------------------------------------------- 1. canonicalization

def all_digraph_edge_sets(n):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for mask in range(1 << len(pairs)):
        yield frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)


def test_criterion_1_signature_matches_brute_force_isomorphism():
    started = time.monotonic()
    rng = random.Random(10_001)

    for n in range(1, 5):
        by_signature = {}
        by_oracle = {}
        graphs = []
        for edges in all_digraph_edge_sets(n):
            graphs.append(edges)
            by_signature.setdefault(graph_signature(n, edges), []).append(edges)
            okey = canonical_mask(mask_from_edges(edges), n)
            by_oracle.setdefault(okey, []).append(edges)
        # identical partitions: signature equality <=> orbit (isomorphism) equality
        part_sig = {frozenset(g) for g in by_signature.values()}
        part_orc = {frozenset(g) for g in by_oracle.values()}
        assert part_sig == part_orc, f"partition mismatch at {n} nodes"

        # direct permutation-search evidence on sampled pairs
        groups = list(by_signature.values())
        for _ in range(200):
            g = rng.choice(groups)
            a, b = rng.choice(g), rng.choice(g)
            assert brute_force_isomorphic(n, a, n, b)
        for _ in range(200):
            ga, gb = rng.sample(groups, 2) if len(groups) > 1 else (groups[0], groups[0])
            if ga is gb:
                continue
            assert not brute_force_isomorphic(n, rng.choice(ga), n, rng.choice(gb))

    # 10,000 random 5-node pairs: signature equality == brute force == matcher
    n = 5
    pairs5 = [(u, v) for u in range(n) for v in range(n) if u != v]
    for _ in range(10_000):
        e1 = {p for p in pairs5 if rng.random() < 0.35}
        if rng.random() < 0.5:
            perm = list(range(1, n))
            rng.shuffle(perm)
            mapping = {0: 0, **dict(zip(range(1, n), perm))}
            e2 = {(mapping[u], mapping[v]) for u, v in e1}
        else:
            e2 = {p for p in pairs5 if rng.random() < 0.35}
        want = brute_force_isomorphic(n, e1, n, e2)
        assert (graph_signature(n, e1) == graph_signature(n, e2)) == want
        assert graphs_isomorphic(n, e1, n, e2) == want

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"canonicalization check took {elapsed:.1f}s"
    ok(f"criterion 1: signature == brute-force isomorphism, exhaustive <=4 nodes "
       f"+ 10k 5-node pairs in {elapsed:.1f}s")


# ------------------------------------------------- 2. closed-walk classes

def test_criterion_2_closed_walk_enumeration_covers_fixture_structures():
    closed = enumerate_closed_walk_masks(max_steps=10, max_nodes=6)

    violations = 0
    for mask, n in closed.items():
        if n == 1:
            continue
        indeg = [0] * n
        outdeg = [0] * n
        for u, v in edges_from_mask(mask):
            outdeg[u] += 1
            indeg[v] += 1
        if not all(indeg[i] >= 1 and outdeg[i] >= 1 for i in range(n)):
            violations += 1
    assert violations == 0

    # canonical classes via the production signature (computed per oracle class)
    reps = {}
    for mask, n in closed.items():
        reps.setdefault((n, canonical_mask(mask, n)), mask)
    class_signatures = {
        graph_signature(mask_nodes(mask), edges_from_mask(mask))
        for mask in reps.values()
    }

    missing = []
    for n, edges in LBM_STRUCTURES:
        sig = graph_signature(n, set(edges))
        if sig not in class_signatures:
            missing.append((n, edges))
    assert not missing, f"structures not enumerable from closed walks: {missing}"
    assert len(LBM_STRUCTURES) == 16
    ok(f"criterion 2: 0 constraint violations over {len(closed)} closed walk sets; "
       f"all 16 fixture structures enumerated ({len(class_signatures)} classes)")


# ------------------------------------------------- 3. planted census

def parse_census(path):
    """signature -> percentage; signatures may contain commas and are quoted."""
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[2]: float(row[5]) for row in reader}


def test_criterion_3_planted_census_recovery(mixture_world, noisy_world, mixture_run,
                                             tmp_path):
    truth = mixture_world["ground_truth"]
    manifest = mixture_run["manifest"]
    assert manifest["users"]["with_home"] == 300

    for kind, csv_name in (("lbm", "census_lbm"), ("abm", "census_abm")):
        got = parse_census(mixture_run["paths"][csv_name])
        expected = truth.expected_census[kind]["motifs"]
        assert set(got) == set(expected)
        for sig, pct in expected.items():
            assert abs(got[sig] - pct) <= 0.1, (kind, sig, got[sig], pct)
        one_node_pct = 100.0 * manifest["census"][kind]["one_node"] / manifest["census"][kind]["total"]
        assert abs(one_node_pct - truth.expected_census[kind]["one_node_pct"]) <= 0.1

    started = time.monotonic()
    noisy_out = tmp_path / "noisy_run"
    noisy_result = run(world_config(noisy_world, noisy_out, workers=1), "all")
    noisy_elapsed = time.monotonic() - started

    nm = noisy_result["manifest"]
    assert nm["users"]["total"] == 360
    assert nm["users"]["after_bot_filter"] == 300

    for name in ("census_lbm", "census_abm", "size_groups"):
        clean_bytes = Path(mixture_run["paths"][name]).read_bytes()
        noisy_bytes = Path(noisy_result["paths"][name]).read_bytes()
        assert clean_bytes == noisy_bytes, f"{name} differs once noise actors are added"

    total_elapsed = mixture_run["elapsed"] + noisy_elapsed
    assert total_elapsed < 120.0, f"census runs took {total_elapsed:.1f}s"
    ok(f"criterion 3: planted census recovered within 0.1pp and byte-identical "
       f"under noise actors ({total_elapsed:.1f}s for both runs)")


# ------------------------------------------------- 4. threshold boundaries

def test_criterion_4_threshold_boundaries():
    cfg = FilterConfig()

    def equator_track(meters, dt):
        lon2 = math.degrees(meters / R)
        return UserTrack("u", [rec(lat=0.0, lon=0.0, ts=0), rec(lat=0.0, lon=lon2, ts=dt)])

    # 860 km / 3600 s ~ 238.9 m/s kept; 1000 km / 3600 s ~ 277.8 m/s dropped
    assert speed_filter(equator_track(860_000.0, 3600), cfg).keep
    assert not speed_filter(equator_track(1_000_000.0, 3600), cfg).keep

    exactly_30 = UserTrack("u", [rec(ts=0), rec(ts=30 * 86400)])
    assert not residency_filter(exactly_30, cfg)
    assert residency_filter(UserTrack("u", [rec(ts=0), rec(ts=30 * 86400 + 1)]), cfg)

    def day_with_slots(k):
        pts = [apoint(ts=i, local=4 * 86400 + i * 1800) for i in range(k)]  # a Monday
        return split_days(pts)[0]

    assert select_active_days([day_with_slots(6)], min_slots=6)
    assert not select_active_days([day_with_slots(5)], min_slots=6)

    sig2 = graph_signature(2, {(0, 1), (1, 0)})
    sig3 = graph_signature(3, {(0, 1), (1, 2), (2, 0)})
    at_cutoff = census_from_signatures([(2, sig2)] * 995 + [(3, sig3)] * 5, "lbm")
    assert [m.signature for m in at_cutoff.motifs] == [sig2]
    above = census_from_signatures([(2, sig2)] * 994 + [(3, sig3)] * 6, "lbm")
    assert {m.signature for m in above.motifs} == {sig2, sig3}

    ok("criterion 4: speed 238.9 kept / 277.8 dropped; 30-day span dropped; "
       "6 slots kept / 5 dropped; 0.5% class excluded / above included")


# ------------------------------------------------- 5. spatial join

def test_criterion_5_spatial_join_exactness():
    rng = random.Random(88)
    parcels = []
    for i in range(1, 1001):
        lat = 41.5 + rng.random() * 0.15
        lon = -88.0 + rng.random() * 0.15
        parcels.append(make_parcel(i, lat, lon, half_m=rng.uniform(15, 110)))
    index = SpatialIndex(parcels)

    mismatches = 0
    none_count = 0
    for _ in range(1000):
        lat = 41.5 + rng.random() * 0.15
        lon = -88.0 + rng.random() * 0.15
        a = nearest_parcel(lat, lon, index, 250.0)
        b = nearest_parcel_scan(lat, lon, parcels, 250.0)
        if (a is None) != (b is None):
            mismatches += 1
        elif a is not None and (a.parcel_id != b.parcel_id or a.distance_m != b.distance_m):
            mismatches += 1
        if a is None:
            none_count += 1
    assert mismatches == 0

    # points beyond 250 m of everything receive activity code 12
    far_index = make_index([make_parcel(1, 41.90, -87.60, half_m=50)])
    far_lat = 41.90 + 400.0 / (R * math.pi / 180.0)
    track = UserTrack("u", [rec(lat=far_lat, lon=-87.60, ts=0)])
    history = annotate.annotate_history(track, far_index, 0)
    assert history[0].activity_code == 12 and history[0].parcel_id is None

    ok(f"criterion 5: 1000 queries over 1000 parcels, index == scan exactly "
       f"({none_count} beyond-radius); out-of-radius points coded 12")


# ------------------------------------------------- 6. shape analysis

def test_criterion_6_shape_analysis():
    rng = np.random.default_rng(606)

    xy = np.column_stack([rng.normal(0, 250.0, 800), rng.normal(0, 90.0, 800)])
    xy -= xy.mean(axis=0)
    theta = math.radians(73.0)
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    base = align_trajectory(latlon_from_xy(xy))
    turned = align_trajectory(latlon_from_xy(xy @ rot.T))
    base_points = np.asarray(base.points)
    assert np.max(np.abs(base_points - np.asarray(turned.points))) < 1e-6

    assert base_points[:, 0].var() == pytest.approx(1.0, abs=1e-9)
    assert base_points[:, 1].var() == pytest.approx(1.0, abs=1e-9)

    # 2:1 anisotropic cloud of 10^4 points: principal axis within one degree
    cloud = np.column_stack([rng.normal(0, 2.0, 10_000), rng.normal(0, 1.0, 10_000)])
    aligned = align_trajectory(latlon_from_xy(cloud * 150.0))
    ax, ay = aligned.axis
    angle_off = math.degrees(math.atan2(abs(ay), abs(ax)))
    assert angle_off < 1.0

    with pytest.raises(DegenerateTrajectory) as err:
        align_trajectory(latlon_from_xy([(-500.0, 0.0), (0.0, 0.0), (500.0, 0.0)]))
    assert err.value.reason == "collinear"

    ok(f"criterion 6: rotation equivariance <1e-6, unit variance <1e-9, "
       f"axis recovered within {angle_off:.2f} degree, collinear reported degenerate")


# ------------------------------------------------- 7. planted distances

@pytest.fixture(scope="module")
def pendulum_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pendulum")
    cfg = synth.SynthConfig(
        num_users=100,
        days=10,
        seed=9,
        templates=(synth.TemplateSpec(("H", "W", "H"), 1.0, spacing_km=3.0),),
    )
    world = synth.generate(cfg, out / "world")
    return run(world_config(world, out / "run", workers=1), "all")


def parse_distance_stats(path):
    rows = {}
    for line in Path(path).read_text().splitlines()[1:]:
        kind, group, n_days, n_trips, d_hat, d_cap, gyr = line.split(",")
        rows[(kind, group)] = {
            "n_days": int(n_days),
            "n_trips": int(n_trips),
            "d_hat": float(d_hat),
            "D_hat": float(d_cap),
            "gyradius": float(gyr),
        }
    return rows


def test_criterion_7_planted_distance_statistics(pendulum_run, mixture_run):
    rows = parse_distance_stats(pendulum_run["paths"]["distance_stats"])
    hw = rows[("abm", "H-W")]
    assert abs(hw["d_hat"] - 3.0) <= 0.01
    two_lbm = rows[("lbm", "2")]
    two_abm = rows[("abm", "2")]
    assert abs(two_lbm["D_hat"] - 6.0) <= 0.02
    assert abs(two_abm["D_hat"] - 6.0) <= 0.02

    for run_result in (pendulum_run, mixture_run):
        for (kind, group), row in parse_distance_stats(
            run_result["paths"]["distance_stats"]
        ).items():
            assert row["D_hat"] >= row["d_hat"] - 1e-12, (kind, group)

    ok(f"criterion 7: H-W d_hat {hw['d_hat']:.4f} km (3.0 +- 0.01), two-node D_hat "
       f"{two_lbm['D_hat']:.4f} km (6.0 +- 0.02); D_hat >= d_hat in every group")


# ------------------------------------------------- 8. correlation

def test_criterion_8_pearson_exact_cases():
    from motifmine.shape import pearson_r

    assert pearson_r([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)
    xs = [3.0, 5.0, 9.0, 11.0]
    assert pearson_r(xs, [2.0 * x + 1.0 for x in xs]) == 1.0
    assert pearson_r(xs, [-x for x in xs]) == -1.0
    ok("criterion 8: pearson r = 0.6 exact on the hand case; perfect linear = +-1")


# ------------------------------------------------- 9. determinism

def artifact_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def test_criterion_9_full_run_determinism(mixture_world, mixture_run, tmp_path):
    repeat = run(world_config(mixture_world, tmp_path / "repeat", workers=1), "all")
    fanout = run(world_config(mixture_world, tmp_path / "fanout", workers=8), "all")

    base = artifact_bytes(mixture_run["out_dir"])
    again = artifact_bytes(tmp_path / "repeat")
    wide = artifact_bytes(tmp_path / "fanout")
    assert base == again, "repeat run differs"
    assert base == wide, "worker count changed output bytes"
    ok(f"criterion 9: {len(base)} artifacts byte-identical across repeat runs "
       f"and workers 1 vs 8")
