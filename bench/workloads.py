"""The benchmark's workloads: synthetic worlds built from a seed.

Each workload is a `synth` world plus what the benchmark adds on top of it
(a zones file, injected noise) and the expectations the correctness gate
checks. World generation is the load generator, not the system under test:
it runs in the harness process, outside every timed region, and its output
is cached per (workload, seed) under bench/_work/worlds.
"""

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from motifmine import synth

WORK_DIR = Path(__file__).resolve().parent / "_work"

# Words for the message text the noisy-ingest stream carries. None contains
# a blocklist keyword, alone or joined with a space.
BENIGN_WORDS = ("coffee", "sunny", "lunch", "park", "reading", "music", "friends",
                "dinner", "morning", "walk", "game", "beach")
BLOCKLIST = ("hiring", "jobs", "traffic", "recruiting", "weather alert")
BLOCKED_TEXTS = ("now HIRING baristas", "new jobs posted", "traffic jam on the bridge",
                 "recruiting couriers today", "Weather Alert tonight")

# Zones for the correlation report: a ZONES_PER_SIDE x ZONES_PER_SIDE grid of
# whole parcel cells, so every home anchor falls inside exactly one zone.
ZONES_PER_SIDE = 10


# workload -> the CLI stage it runs; BENCHMARK.json says why each exists
WORKLOADS = {"city": "all", "coarse-long": "all", "noisy-ingest": "ingest"}


def synth_config(name: str, seed: int) -> synth.SynthConfig:
    """The synth world under a workload, before the benchmark's additions."""
    if name == "city":
        return synth.SynthConfig(
            seed=seed, num_users=150, days=20, tourist_count=10,
            bots=synth.BotSpec(stationary=15, teleporter=5),
        )
    if name == "coarse-long":
        spec = synth.TemplateSpec
        return synth.SynthConfig(
            seed=seed, grid_side=64, cell_m=150.0, num_users=140, days=20,
            tweets_per_day=(18, 24),
            templates=(
                spec(("H", "R1", "R2", "R3", "R4", "R5", "H"), 0.2),
                spec(("H", "W", "Sh", "E", "T", "H"), 0.2),
                spec(("H", "W", "H", "Sh", "E", "H"), 0.2),
                spec(("H", "S", "W", "Sh", "E", "T", "H"), 0.2),
                spec(("H", "W", "Se", "H", "Sh", "T", "H"), 0.2),
            ),
        )
    if name == "noisy-ingest":
        return synth.SynthConfig(
            seed=seed, num_users=300, days=20, tourist_count=20,
            bots=synth.BotSpec(stationary=30, teleporter=10),
        )
    raise ValueError(f"unknown workload {name!r}")


@dataclass(frozen=True)
class World:
    """Paths of one generated world and the gate's expectations for it."""

    name: str
    seed: int
    dir: Path

    @property
    def stage(self) -> str:
        return WORKLOADS[self.name]

    @property
    def records(self) -> Path:
        return self.dir / "records.csv"

    @property
    def parcels(self) -> Path:
        return self.dir / "parcels.geojson"

    @property
    def expect(self) -> dict:
        return json.loads((self.dir / "expect.json").read_text(encoding="utf-8"))

    def cli_args(self, out_dir) -> list:
        """Arguments of `motifmine <stage>` on this world, pinned to one worker."""
        args = [self.stage, "--records", str(self.records),
                "--parcels", str(self.parcels),
                "--boundary", str(self.dir / "boundary.geojson")]
        if (self.dir / "zones.geojson").exists():
            args += ["--zones", str(self.dir / "zones.geojson")]
        if (self.dir / "blocklist.txt").exists():
            args += ["--blocklist", str(self.dir / "blocklist.txt")]
        return args + ["--out", str(out_dir), "--workers", "1"]


def ensure_world(name: str, seed: int) -> World:
    """Generate the world for (workload, seed) unless it is already cached."""
    final = WORK_DIR / "worlds" / f"{name}-seed{seed}"
    if not (final / "expect.json").exists():
        staging = final.with_name(final.name + ".partial")
        shutil.rmtree(staging, ignore_errors=True)
        build_world(name, synth_config(name, seed), staging)
        shutil.rmtree(final, ignore_errors=True)
        staging.rename(final)
    return World(name, seed, final)


def build_world(name: str, cfg: synth.SynthConfig, out_dir: Path):
    """Write the world files and expect.json for workload `name` into out_dir."""
    synth.generate(cfg, out_dir)
    lines = (out_dir / "records.csv").read_text(encoding="utf-8").splitlines()
    expect = {
        "residents": cfg.num_users,
        "days": cfg.days,
        "users": expected_users(cfg, annotated=WORKLOADS[name] != "ingest"),
    }
    if name == "city":
        expect["zones"] = write_zones(cfg, out_dir, random.Random(f"{cfg.seed}/zones"))
    if name == "noisy-ingest":
        counts, lines = inject_noise(lines, random.Random(f"{cfg.seed}/noise"))
        (out_dir / "records.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out_dir / "blocklist.txt").write_text("\n".join(BLOCKLIST) + "\n", encoding="utf-8")
        expect["injected"] = counts
        expect["filtered_rows"] = counts["base_lines"] - counts["dropped_user_lines"]
    else:
        expect["injected"] = {"base_lines": len(lines), "duplicate": 0, "geocoded": 0,
                              "malformed": 0, "bad_coord": 0, "outside": 0, "blocked": 0}
    (out_dir / "expect.json").write_text(json.dumps(expect, indent=2, sort_keys=True),
                                         encoding="utf-8")


def expected_users(cfg: synth.SynthConfig, annotated: bool) -> dict:
    """Manifest user funnel implied by the synth config: teleporters fail the
    speed filter, tourists the residency filter, and (from annotate on)
    stationary broadcasters the bot filter."""
    total = cfg.num_users + cfg.bots.stationary + cfg.bots.teleporter + cfg.tourist_count
    after_speed = total - cfg.bots.teleporter
    after_residency = after_speed - cfg.tourist_count
    after_bot = after_residency - cfg.bots.stationary if annotated else after_residency
    return {
        "total": total,
        "after_speed": after_speed,
        "after_residency": after_residency,
        "after_bot_filter": after_bot,
        "with_home": cfg.num_users if annotated else after_residency,
    }


def write_zones(cfg: synth.SynthConfig, out_dir: Path, rng: random.Random) -> dict:
    """Zones of whole parcel cells with seed-chosen populations that track the
    planted home counts. Returns the zone home counts and populations."""
    doc = json.loads((out_dir / "parcels.geojson").read_text(encoding="utf-8"))
    side = cfg.grid_side
    step = side // ZONES_PER_SIDE

    def cell_box(r, c):  # parcels are written row-major, one per grid cell
        ring = doc["features"][r * side + c]["geometry"]["coordinates"][0]
        lons = [p[0] for p in ring]
        lats = [p[1] for p in ring]
        return min(lats), min(lons), max(lats), max(lons)

    truth = json.loads((out_dir / "ground_truth.json").read_text(encoding="utf-8"))
    homes = [tuple(u["home_cell"]) for u in truth["users"].values()]
    features, home_counts, populations = [], [], []
    for zr in range(ZONES_PER_SIDE):
        for zc in range(ZONES_PER_SIDE):
            r0, c0 = zr * step, zc * step
            r1 = side - 1 if zr == ZONES_PER_SIDE - 1 else r0 + step - 1
            c1 = side - 1 if zc == ZONES_PER_SIDE - 1 else c0 + step - 1
            lat0, lon0 = cell_box(r0, c0)[:2]
            lat1, lon1 = cell_box(r1, c1)[2:]
            n = sum(1 for r, c in homes if r0 <= r <= r1 and c0 <= c <= c1)
            pop = round(2000 + 800 * n + rng.gauss(0.0, 400.0))
            home_counts.append(n)
            populations.append(pop)
            ring = [[lon0, lat0], [lon1, lat0], [lon1, lat1], [lon0, lat1], [lon0, lat0]]
            features.append({
                "type": "Feature",
                "properties": {"population": pop},
                "geometry": {"type": "Polygon", "coordinates": [ring]},
            })
    (out_dir / "zones.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features}), encoding="utf-8")
    return {"home_counts": home_counts, "populations": populations}


def inject_noise(lines: list, rng: random.Random):
    """Give every synth line benign text and add seed-chosen counts of noise.

    Every injected line is dropped by exactly one known step: duplicates by
    dedup, geocoded / malformed / out-of-range lines by the parser, and
    out-of-boundary or blocklisted lines by the prefilter. No injected line
    survives to a user track, so the user funnel is the synth world's.
    Returns (counts, new lines).
    """
    base = []
    for line in lines:
        if not line.endswith(","):
            raise ValueError(f"unexpected synth record layout: {line!r}")
        words = rng.sample(BENIGN_WORDS, rng.randint(1, 3))
        base.append(line + " ".join(words))
    # each kind of noise is 0.25-1% of the stream
    low, high = max(1, len(base) // 400), max(1, len(base) // 100)
    counts = {name: rng.randint(low, high)
              for name in ("duplicate", "geocoded", "malformed", "bad_coord", "outside", "blocked")}
    picks = rng.sample(range(len(base)), sum(counts.values()))
    donors = iter(base[i].split(",") for i in picks)

    def shifted(ts, by):  # synth seconds are 00, 20 or 40: shifted keys stay unique
        return f"{ts[:-3]}{int(ts[-3:-1]) + by:02d}Z"

    injected = []
    for _ in range(counts["duplicate"]):
        injected.append(",".join(next(donors)))
    for _ in range(counts["geocoded"]):
        uid, ts, lat, lon, _src, text = next(donors)
        injected.append(",".join((uid, ts, lat, lon, "geocoded", text)))
    for k in range(counts["malformed"]):
        uid, ts, lat, lon, _src, text = next(donors)
        injected.append((
            "",
            "garbage line without fields",
            f"{uid},not-a-time,{lat},{lon},gps,{text}",
            f"{uid},{ts},{lat}",
            f"{uid},{ts},{lat},{lon},wifi,{text}",
            f",{ts},{lat},{lon},gps,{text}",
            f"{uid},{ts},north,{lon},gps,{text}",
        )[k % 7])
    for k in range(counts["bad_coord"]):
        uid, ts, lat, lon, _src, text = next(donors)
        if k % 2:
            injected.append(f"{uid},{ts},{float(lat) + 95.0:.7f},{lon},gps,{text}")
        else:
            injected.append(f"{uid},{ts},{lat},{float(lon) - 200.0:.7f},gps,{text}")
    for _ in range(counts["outside"]):
        uid, ts, lat, lon, _src, text = next(donors)
        injected.append(f"{uid},{shifted(ts, 17)},{float(lat) - 1.0:.7f},{lon},gps,{text}")
    for _ in range(counts["blocked"]):
        uid, ts, lat, lon, _src, _text = next(donors)
        injected.append(f"{uid},{shifted(ts, 3)},{lat},{lon},gps,"
                        f"{rng.choice(BLOCKED_TEXTS)}")

    slots = sorted(rng.randrange(len(base) + 1) for _ in injected)
    rng.shuffle(injected)
    out = []
    j = 0
    for i, line in enumerate(base):
        while j < len(slots) and slots[j] == i:
            out.append(injected[j])
            j += 1
        out.append(line)
    out.extend(injected[j:])

    counts["base_lines"] = len(base)
    # teleporters ("tp...") fail the speed filter and tourists ("tour...") the
    # residency filter, so their lines never reach filtered_records.csv
    counts["dropped_user_lines"] = sum(1 for line in base if line.startswith(("tp", "tour")))
    return counts, out
