"""Correctness gate: checks one run's artifacts against what the world planted.

Every check returns a list of failure messages; an empty list passes. The
expected values come from the synth ground truth, the synth config and the
benchmark's own noise injection, never from another pipeline run.
"""

import csv
import hashlib
import json
import statistics
from pathlib import Path

# Acceptance criterion 3: census shares within 0.1 percentage points.
CENSUS_TOL_PP = 0.1
# Acceptance criterion 7: d_hat within 0.01 km and D_hat within 0.02 km of a
# 3 km / 6 km plan, i.e. 1/300 of the planted value. Longer planted distances
# keep that relative tolerance.
TRIP_TOL_KM = 0.01
DAY_TOL_KM = 0.02
REL_TOL = 1.0 / 300.0


def artifact_digests(out_dir) -> dict:
    """sha256 of every file a run wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
        if p.is_file()
    }


def check_identical(reference: dict, digests: dict, label: str) -> list:
    if digests == reference:
        return []
    differ = sorted(k for k in set(reference) | set(digests) if reference.get(k) != digests.get(k))
    return [f"{label}: artifacts differ from the first repeat: {differ}"]


def check_run(world, out_dir) -> list:
    """All checks that apply to one finished run of the world's stage."""
    try:
        return _check_run(world, Path(out_dir))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"artifacts missing or malformed: {exc!r}"]


def _check_run(world, out: Path) -> list:
    expect = world.expect
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    failures = check_funnel(manifest, expect)
    if world.stage == "ingest":
        failures += check_filtered_rows(out, expect["filtered_rows"])
        return failures
    truth = json.loads((world.dir / "ground_truth.json").read_text(encoding="utf-8"))
    failures += check_census(out, manifest, truth, expect)
    failures += check_distance_stats(out, truth)
    if "zones" in expect:
        failures += check_correlation(out, expect["zones"])
    return failures


def _diff(label, got, want) -> list:
    return [] if got == want else [f"{label}: got {got}, want {want}"]


def check_funnel(manifest: dict, expect: dict) -> list:
    """Parse, prefilter and user counts, exactly."""
    inj = expect["injected"]
    kept = inj["base_lines"] + inj["duplicate"] + inj["outside"] + inj["blocked"]
    want_parse = {
        "lines": kept + inj["geocoded"] + inj["malformed"] + inj["bad_coord"],
        "records": kept,
        "malformed": inj["malformed"],
        "bad_coord": inj["bad_coord"],
        "geocoded": inj["geocoded"],
    }
    failures = []
    for key, want in want_parse.items():
        failures += _diff(f"parse.{key}", manifest.get("parse", {}).get(key), want)
    failures += _diff("prefilter.records", manifest.get("prefilter", {}).get("records"),
                      inj["base_lines"])
    for key, want in expect["users"].items():
        failures += _diff(f"users.{key}", manifest.get("users", {}).get(key), want)
    return failures


def check_filtered_rows(out: Path, want: int) -> list:
    with open(out / "filtered_records.csv", newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    return _diff("filtered_records rows", rows, want)


def read_census(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {row[2]: float(row[5]) for row in reader}


def check_census(out: Path, manifest: dict, truth: dict, expect: dict) -> list:
    """Acceptance criterion 3 on both census kinds; every resident-day is a network."""
    failures = _diff("days.networks", manifest.get("days", {}).get("networks"),
                     expect["residents"] * expect["days"])
    for kind in ("lbm", "abm"):
        planted = truth["expected_census"][kind]
        got = read_census(out / f"census_{kind}.csv")
        if set(got) != set(planted["motifs"]):
            failures.append(f"census_{kind}: motif set {sorted(got)} != planted "
                            f"{sorted(planted['motifs'])}")
            continue
        for sig, pct in planted["motifs"].items():
            if abs(got[sig] - pct) > CENSUS_TOL_PP:
                failures.append(f"census_{kind} {sig}: {got[sig]} vs planted {pct}")
        census = manifest["census"][kind]
        one_node = 100.0 * census["one_node"] / census["total"]
        if abs(one_node - planted["one_node_pct"]) > CENSUS_TOL_PP:
            failures.append(f"census_{kind} one-node: {one_node} vs {planted['one_node_pct']}")
    return failures


def check_distance_stats(out: Path, truth: dict) -> list:
    """Acceptance criterion 7's tolerances on every planted group."""
    got = {}
    with open(out / "distance_stats.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            got[(row["kind"], row["group"])] = row
    planted = {(s["kind"], s["group"]): s for s in truth["expected_distance_stats"]}
    if set(got) != set(planted):
        return [f"distance_stats groups {sorted(got)} != planted {sorted(planted)}"]
    failures = []
    for key, want in planted.items():
        for column, field, tol in (("d_hat_km", "d_hat", TRIP_TOL_KM),
                                   ("D_hat_km", "D_hat", DAY_TOL_KM),
                                   ("gyradius_home_km", "gyradius_home", TRIP_TOL_KM)):
            value = float(got[key][column])
            if abs(value - want[field]) > max(tol, REL_TOL * want[field]):
                failures.append(f"distance_stats {key} {column}: {value} vs planted "
                                f"{want[field]:.6f}")
    return failures


def check_correlation(out: Path, zones: dict) -> list:
    """Pearson r of zone populations and planted home counts, recomputed here."""
    report = json.loads((out / "correlation.json").read_text(encoding="utf-8"))
    want_r = statistics.correlation(zones["populations"], zones["home_counts"])
    failures = _diff("correlation.n", report.get("n"), len(zones["populations"]))
    if not abs(report.get("r", float("nan")) - want_r) <= 1e-9:
        failures.append(f"correlation.r: got {report.get('r')}, want {want_r}")
    return failures
