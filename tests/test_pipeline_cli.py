import concurrent.futures
import csv
import gc
import json
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import motifmine
from motifmine import annotate as ann
from motifmine import ingest as ing
from motifmine import motifs as mot
from motifmine import parcels as parcels_mod
from motifmine import pipeline, synth
from motifmine.cli import main
from motifmine.geo import geojson_polygon, point_in_polygon, point_in_ring
from motifmine.parcels import OTHERS_CODE, ActivityScheme, read_parcels
from motifmine.pipeline import (
    STAGE_LEVELS,
    RunConfig,
    ingest,
    load_config_file,
    load_inputs,
    make_config,
    pseudonymize,
    run,
)

from conftest import geojson_polygon_feature, square_ring, strict_json_loads, write_geojson
from oracles import iso_timestamp, nearest_parcel_scan, write_csv_reference


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("world")
    cfg = synth.SynthConfig(num_users=10, days=4, seed=3)
    return synth.generate(cfg, out)


def world_config(world, out_dir, **kw):
    return RunConfig(
        records=str(world["paths"]["records"]),
        parcels=str(world["paths"]["parcels"]),
        boundary=str(world["paths"]["boundary"]),
        scheme=str(world["paths"]["scheme"]),
        out_dir=str(out_dir),
        **kw,
    )


def output_bytes(out_dir):
    return {
        p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir()) if p.is_file()
    }


def run_garbage(cfg):
    """What the cyclic collector finds unreachable after `run(cfg, "all")`."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run(cfg, "all")
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _from_package(obj) -> bool:
    module = obj.__module__ if isinstance(obj, types.FunctionType) else type(obj).__module__
    return str(module).split(".")[0] == "motifmine"


class TestPipelineRun:
    def test_manifest_counts_are_non_increasing(self, world, tmp_path):
        result = run(world_config(world, tmp_path / "out"), "all")
        m = result["manifest"]
        assert m["parse"]["lines"] >= m["parse"]["records"] >= m["prefilter"]["records"]
        u = m["users"]
        assert (
            u["total"] >= u["after_speed"] >= u["after_residency"]
            >= u["after_bot_filter"] >= u["with_home"]
        )
        d = m["days"]
        assert d["total"] >= d["active"] >= d["networks"]
        assert d["networks"] + d["rejected_open_walk"] + d["rejected_no_home"] == d["active"]

    def test_all_artifacts_written(self, world, tmp_path):
        result = run(world_config(world, tmp_path / "out"), "all")
        for name in (
            "manifest",
            "filtered_records",
            "census_lbm",
            "census_abm",
            "size_groups",
            "motif_edges",
            "distance_stats",
            "density",
            "shape_summary",
        ):
            assert result["paths"][name].exists(), name

    def test_census_csv_headers(self, world, tmp_path):
        result = run(world_config(world, tmp_path / "out"), "mine")
        header = result["paths"]["census_lbm"].read_text().splitlines()[0]
        assert header == "kind,rank,signature,node_count,count,percentage"
        header = result["paths"]["size_groups"].read_text().splitlines()[0]
        assert header == "kind,size_group,count,percentage"

    def test_user_ids_hashed(self, world, tmp_path):
        result = run(world_config(world, tmp_path / "out"), "ingest")
        body = result["paths"]["filtered_records"].read_text().splitlines()[1:]
        users = {line.split(",")[0] for line in body}
        assert users
        for uid in users:
            assert len(uid) == 16 and all(c in "0123456789abcdef" for c in uid)
        assert pseudonymize("u0000") in users

    def test_every_hashed_id_is_the_pseudonym_of_its_raw_id(self, world, tmp_path):
        inputs = load_inputs(world_config(world, tmp_path), STAGE_LEVELS["ingest"])
        raw = ingest(world_config(world, tmp_path, hash_ids=False), inputs).tracks
        hashed = ingest(world_config(world, tmp_path), inputs).tracks
        assert len(raw) > 1

        def rows(track):
            return [(p.user_id, p.ts, p.lat, p.lon, p.text) for p in track.points]

        expected = sorted(
            (pseudonymize(t.user_id),
             [(pseudonymize(uid), *rest) for uid, *rest in rows(t)]) for t in raw
        )
        assert [(t.user_id, rows(t)) for t in hashed] == expected

    def test_stage_ingest_reads_no_parcels_and_no_scheme(self, world, tmp_path, monkeypatch):
        def unread(*args):
            raise AssertionError("a parcel or scheme file was read")

        bare = world_config(world, tmp_path / "bare")
        bare.parcels = bare.scheme = ""
        run(bare, "ingest")
        monkeypatch.setattr(parcels_mod, "geojson_features", unread)
        monkeypatch.setattr(ActivityScheme, "from_file", unread)
        manifest = run(world_config(world, tmp_path / "given"), "ingest")["manifest"]
        assert "parcels" not in manifest
        # the echoed config leaves out the input paths, so the manifests match too
        assert output_bytes(tmp_path / "given") == output_bytes(tmp_path / "bare")
        with pytest.raises(AssertionError, match="was read"):  # the stages that join read it
            run(world_config(world, tmp_path / "annotated"), "annotate")

    def test_ingest_reads_its_own_output(self, world, tmp_path):
        # quoted fields send their chunk of filtered_records.csv through csv.writer
        text = Path(world["paths"]["records"]).read_text(encoding="utf-8")
        user, _, lat, lon, *_ = text.splitlines()[0].split(",")
        extra = [
            f"{user},0999-03-01T12:00:00Z,{lat},{lon},gps,x",
            f'{user},0999-03-02T12:00:00Z,{lat},{lon},gps,"a, ""quoted"" text"',
            f'"{user},x",0999-03-01T12:00:00Z,{lat},{lon},gps,"one, two"',
            f'"{user},x",0999-05-01T12:00:00Z,{lat},{lon},gps,plain',
            f'{user},0999-03-03T12:00:00Z,{lat},{lon},gps,"p\rq"',
        ]
        records = tmp_path / "records.csv"
        records.write_text(text + "\n".join(extra) + "\n", encoding="utf-8")
        cfg = world_config(world, tmp_path / "first", hash_ids=False)
        cfg.records = str(records)
        written = run(cfg, "ingest")["paths"]["filtered_records"]
        body = written.read_bytes().decode("utf-8")
        for line in extra:  # the input lines are already in csv's minimal quoting
            assert f"\n{line}\n" in body
        cfg = world_config(world, tmp_path / "second", hash_ids=False)
        cfg.records = str(written)
        second = run(cfg, "ingest")
        assert second["manifest"]["parse"]["malformed"] == 1  # the header line
        assert second["paths"]["filtered_records"].read_bytes() == written.read_bytes()

    def test_loaders_make_no_reference_cycles(self, world, tmp_path):
        # the premise of pausing the cyclic collector while they run
        cfg = world_config(world, tmp_path)
        gc.collect()
        inputs = load_inputs(cfg, STAGE_LEVELS["all"])
        ingested = ingest(cfg, inputs)
        assert gc.collect() == 0
        assert inputs.index.parcels and ingested.tracks

    def test_a_run_makes_no_reference_cycles_of_its_own(self, world, tmp_path):
        # the premise of pausing the cyclic collector for the whole run: what
        # it would collect is a fixed handful of objects, none of the package's
        bigger = synth.generate(synth.SynthConfig(num_users=40, days=4, seed=3),
                                tmp_path / "world40")
        counts = []
        for w, out in ((world, "w10"), (bigger, "w40")):
            garbage = run_garbage(world_config(w, tmp_path / out))
            assert [o for o in garbage if _from_package(o)] == []
            counts.append(len(garbage))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_pauses_the_collector_and_restores_its_state(self, world, tmp_path,
                                                             monkeypatch, enabled):
        seen = {}

        def spy(owner, name):
            real = getattr(owner, name)

            def hook(*args, **kwargs):
                seen.setdefault(name, set()).add(gc.isenabled())
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, hook)

        stages = ((ing, "prefilter"), (ann, "annotate_history"),
                  (mot, "census_from_signatures"), (pipeline, "write_filtered_records"))
        for owner, name in stages:
            spy(owner, name)

        def broken(*args, **kwargs):
            raise RuntimeError("census failed")

        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            run(world_config(world, tmp_path / "ok"), "all")
            assert gc.isenabled() is enabled
            monkeypatch.setattr(mot, "census_from_signatures", broken)
            with pytest.raises(RuntimeError, match="census failed"):
                run(world_config(world, tmp_path / "failed"), "all")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == {name: {False} for _, name in stages}

    def test_repeat_run_byte_identical(self, world, tmp_path):
        run(world_config(world, tmp_path / "a"), "all")
        run(world_config(world, tmp_path / "b"), "all")
        assert output_bytes(tmp_path / "a") == output_bytes(tmp_path / "b")

    def test_worker_count_does_not_change_output(self, world, tmp_path):
        run(world_config(world, tmp_path / "w1", workers=1), "all")
        run(world_config(world, tmp_path / "w2", workers=2), "all")
        assert output_bytes(tmp_path / "w1") == output_bytes(tmp_path / "w2")

    @pytest.mark.parametrize("workers", [2, 4096])
    def test_the_pool_has_no_more_workers_than_chunks(self, world, tmp_path, monkeypatch,
                                                      workers):
        sizes = []

        class InProcessPool:  # starts no process: maps in this one
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize):
                assert chunksize == pipeline._POOL_CHUNK
                return map(fn, iterable)

        def no_fork():
            raise AssertionError("a process was started")

        monkeypatch.setattr(pipeline, "_G_ARGS", None)  # restored after the test
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "fork", no_fork)
        serial = run(world_config(world, tmp_path / "serial"), "all")
        run(world_config(world, tmp_path / "pooled", workers=workers), "all")
        n_tracks = serial["manifest"]["users"]["total"]
        assert 0 < n_tracks <= pipeline._POOL_CHUNK
        assert sizes == [1]  # one chunk of tracks, through the pool all the same
        assert output_bytes(tmp_path / "pooled") == output_bytes(tmp_path / "serial")
        cfg = world_config(world, tmp_path, workers=workers)
        inputs = load_inputs(cfg, STAGE_LEVELS["all"])
        tracks = ingest(cfg, inputs).tracks * 3  # more than one chunk
        outcomes = pipeline.process_users(tracks, inputs.index, cfg, 4)
        assert sizes[1:] == [min(workers, -(-len(tracks) // pipeline._POOL_CHUNK))]
        cfg.workers = 1
        assert outcomes == pipeline.process_users(tracks, inputs.index, cfg, 4)

    def test_stage_ingest_starts_no_pool(self, world, tmp_path, monkeypatch):
        # the user filters run in `ingest`, so stage ingest has no per-user
        # work to fan out, whatever --workers says
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        run(world_config(world, tmp_path / "w1", workers=1), "ingest")
        run(world_config(world, tmp_path / "w2", workers=2), "ingest")
        assert output_bytes(tmp_path / "w2") == output_bytes(tmp_path / "w1")

    def test_annotation_dump(self, world, tmp_path):
        cfg = world_config(world, tmp_path / "out", dump_annotations=True)
        result = run(cfg, "annotate")
        lines = result["paths"]["annotations"].read_text().splitlines()
        assert lines[0] == "user_id,ts_utc,local_ts,lat,lon,parcel_id,activity_code"
        assert len(lines) > 1
        first = lines[1].split(",")
        assert first[6].isdigit()

    def test_missing_input_is_fatal_and_leaves_no_census(self, world, tmp_path):
        out = tmp_path / "out"
        cfg = world_config(world, out)
        cfg.parcels = str(tmp_path / "nope.geojson")
        with pytest.raises(FileNotFoundError, match="nope.geojson"):
            run(cfg, "mine")
        assert not (out / "census_lbm.csv").exists()

    def test_zone_correlation_report(self, world, tmp_path):
        # two zones splitting the grid, populations proportional to homes
        zones = [
            geojson_polygon_feature(
                square_ring(41.43, -88.05, 4000), extra_props={"population": 900}
            ),
            geojson_polygon_feature(
                square_ring(41.47, -88.05, 4000), extra_props={"population": 500}
            ),
        ]
        zone_path = write_geojson(tmp_path / "zones.geojson", zones)
        cfg = world_config(world, tmp_path / "out", zones=str(zone_path))
        result = run(cfg, "shape")
        report = json.loads(result["paths"]["correlation"].read_text())
        assert set(report) == {"n", "r", "p_value"}
        assert report["n"] == 2


@pytest.mark.parametrize("hash_ids", [True, False])
def test_ingest_peaks_little_above_what_it_keeps(tmp_path, hash_ids):
    """No structure of the whole stream outlives its pass: duplicates are
    found per user, and each user id is one string shared by its records."""
    world = synth.generate(synth.SynthConfig(num_users=40, days=10, seed=5), tmp_path / "w")
    cfg = RunConfig(records=str(world["paths"]["records"]),
                    boundary=str(world["paths"]["boundary"]),
                    out_dir=str(tmp_path / "out"), hash_ids=hash_ids)
    inputs = load_inputs(cfg, STAGE_LEVELS["ingest"])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ingested = ingest(cfg, inputs)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = after - before
    assert ingested.prefiltered > 4000
    assert peak - after < 0.15 * kept
    for track in ingested.tracks:
        assert all(p.user_id is track.user_id for p in track.points)


def run_all_with_zones_in_child(world, tmp_path, prelude=""):
    """Run `motifmine all --zones` in a fresh interpreter after `prelude`;
    the child prints main's return code and the sorted scipy modules loaded."""
    zones = [
        geojson_polygon_feature(square_ring(41.43, -88.05, 4000), extra_props={"population": 900}),
        geojson_polygon_feature(square_ring(41.47, -88.05, 4000), extra_props={"population": 500}),
    ]
    zone_path = write_geojson(tmp_path / "zones.geojson", zones)
    paths = world["paths"]
    argv = ["all", "--records", str(paths["records"]), "--parcels", str(paths["parcels"]),
            "--boundary", str(paths["boundary"]), "--scheme", str(paths["scheme"]),
            "--zones", str(zone_path), "--out", str(tmp_path / "out")]
    script = (prelude + "import sys\n"
              "from motifmine.cli import main\n"
              f"code = main({argv!r})\n"
              "print(code, sorted(m for m in sys.modules\n"
              "                   if m.split('.')[0] in ('numpy', 'scipy')))\n")
    src = str(Path(motifmine.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1], tmp_path / "out" / "correlation.json"


def assert_import_skips(module, skipped):
    """`import module` in a fresh interpreter loads no `skipped`."""
    src = str(Path(motifmine.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}, sys; assert {skipped!r} not in sys.modules"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_numpy():
    # the package runs on the standard library: importing numpy would cost
    # every stage, ingest included, ~0.2 s and ~14 MiB
    assert_import_skips("motifmine.cli", "numpy")


@pytest.mark.parametrize("module", ["motifmine", "motifmine.parcels"])
@pytest.mark.parametrize("skipped", ["motifmine.pipeline", "motifmine.synth"])
def test_package_import_loads_only_what_it_uses(module, skipped):
    # the package re-exports nothing, so a caller that needs only the parcels
    # (the benchmark's setup child) pays for no other module
    assert_import_skips(module, skipped)


def test_cli_import_loads_no_synth():
    # only `motifmine synth` needs the generator, so no stage compiles or runs it
    assert_import_skips("motifmine.cli", "motifmine.synth")


def test_cli_import_loads_no_statistics():
    # the parcel grid takes its medians by sorting; `statistics` would also
    # load `fractions` and `decimal`, ~0.6 MiB on every run
    assert_import_skips("motifmine.cli", "statistics")


def test_import_loads_no_process_pool():
    # only a run with workers > 1 needs the pool; the import costs ~30 ms
    assert_import_skips("motifmine.pipeline", "concurrent.futures")


def test_full_run_with_zones_does_not_import_scipy_stats(world, tmp_path):
    # the correlation p-value is computed with math alone and the alignment
    # and density with lists: importing scipy or numpy would cost a fifth of
    # a second and ~14 MiB per run
    last, correlation = run_all_with_zones_in_child(world, tmp_path)
    assert correlation.exists()
    assert last == "0 []"


def test_full_run_with_zones_passes_with_scipy_blocked(world, tmp_path):
    block = ("import sys\n"
             "class NoScipy:\n"
             "    def find_spec(self, name, path=None, target=None):\n"
             "        if name.split('.')[0] == 'scipy':\n"
             "            raise ImportError(f'{name} is blocked')\n"
             "sys.meta_path.insert(0, NoScipy())\n")
    last, correlation = run_all_with_zones_in_child(world, tmp_path, prelude=block)
    assert last == "0 []"
    report = strict_json_loads(correlation.read_text(encoding="utf-8"))
    assert set(report) == {"n", "r", "p_value"} and report["n"] == 2


class TestConfigPrecedence:
    def test_file_then_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("max_speed_mps = 100\nmin_slots = 4  # inline comment\n")
        values = load_config_file(cfg_file)
        assert values == {"max_speed_mps": 100.0, "min_slots": 4}
        cfg = make_config(cfg_file, {"min_slots": 9, "records": "r.csv"})
        assert cfg.max_speed_mps == 100.0  # from file
        assert cfg.min_slots == 9  # flag wins
        assert cfg.weekdays_only is True  # default

    def test_bad_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("warp_speed = 9\n")
        with pytest.raises(ValueError, match="warp_speed"):
            load_config_file(cfg_file)

    def test_bool_coercion(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("weekdays_only = false\npin_home = true\n")
        values = load_config_file(cfg_file)
        assert values == {"weekdays_only": False, "pin_home": True}


class TestConfigValidation:
    @pytest.mark.parametrize("name, value", [
        ("density_weight", "bogus"),
        ("residency_mode", "sometimes"),
        ("active_scope", "week"),
        ("cutoff", 1.0),
        ("cutoff", -0.01),
        ("cutoff", float("nan")),
        ("min_slots", 0),
        ("min_slots", 49),
        ("night_start_hour", 24),
        ("night_end_hour", -1),
        ("workers", 0),
        ("max_nodes", 0),
        ("max_nodes", 9),
        ("density_bins", 0),
        ("density_bound", -1.0),
        ("density_bound", 0.0),
        ("density_bound", float("inf")),
        ("density_bound", float("nan")),
        ("radius_m", float("nan")),
        ("radius_m", 0.0),
        ("radius_m", float("inf")),
        ("max_speed_mps", 0.0),
        ("max_speed_mps", float("nan")),
        ("min_residency_days", 0.0),
        ("min_residency_days", -1.0),
        ("min_residency_days", float("inf")),
    ])
    def test_out_of_range_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: value})

    def test_range_ends_accepted(self):
        RunConfig(density_weight="user", residency_mode="active-days", active_scope="user",
                  cutoff=0.0, min_slots=48, night_start_hour=0, night_end_hour=23,
                  workers=1, max_nodes=8)
        RunConfig(min_slots=1, night_start_hour=23, night_end_hour=0, max_nodes=1)
        # an infinite speed cap is no cap
        RunConfig(density_bins=1, density_bound=1e-9, radius_m=1e-9, max_speed_mps=float("inf"),
                  min_residency_days=1e-9)

    def test_config_file_value_rejected_with_exit_2(self, tmp_path, capsys):
        # the config file is the one path that argparse choices never see
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("density_weight = bogus\n")
        with pytest.raises(ValueError, match="density_weight"):
            make_config(cfg_file)
        out_dir = tmp_path / "out"
        rc = main(["mine", "--config", str(cfg_file), "--records", "r.csv",
                   "--parcels", "p.geojson", "--out", str(out_dir)])
        assert rc == 2
        assert "density_weight" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_max_nodes_flag_rejected_with_exit_2(self, tmp_path, capsys):
        rc = main(["mine", "--max-nodes", "11", "--records", "r.csv",
                   "--parcels", "p.geojson", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "max_nodes" in capsys.readouterr().err

    def test_infinite_min_days_exits_2_and_writes_nothing(self, world, tmp_path, capsys):
        # no span or day count reaches it: the run would keep no user and exit 0
        out_dir = tmp_path / "out"
        assert main(["all", "--min-days", "inf", *world_args(world, out_dir)]) == 2
        assert "min_residency_days" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_equal_night_hours_are_rejected(self, world, tmp_path, capsys):
        # the half-open window [5, 5) is empty, so the night rule would never fire
        with pytest.raises(ValueError, match="night_start_hour and night_end_hour"):
            RunConfig(night_start_hour=5, night_end_hour=5)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("night_start_hour = 5\nnight_end_hour = 5\n")
        out_dir = tmp_path / "out"
        assert main(["all", "--config", str(cfg_file), *world_args(world, out_dir)]) == 2
        err = capsys.readouterr().err
        assert "night_start_hour" in err and "night_end_hour" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("minutes", [-1441, 1441])
    def test_utc_offset_beyond_a_day_exits_2(self, tmp_path, capsys, minutes):
        RunConfig(utc_offset_minutes=1440 if minutes > 0 else -1440)  # a day is accepted
        out_dir = tmp_path / "out"
        rc = main(["all", "--utc-offset", str(minutes), "--records", "r.csv",
                   "--parcels", "p.geojson", "--out", str(out_dir)])
        assert rc == 2
        assert "utc_offset_minutes" in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("utc_offset", [-1440, 1440])
def test_timestamp_at_the_end_of_time_is_malformed(world, tmp_path, utc_offset):
    # a real user's record, so that it passes the user filters and reaches annotate
    text = Path(world["paths"]["records"]).read_text(encoding="utf-8")
    user, _, lat, lon, *_ = text.splitlines()[0].split(",")
    records = tmp_path / "records.csv"
    records.write_text(text + f"{user},9999-12-31T23:59:59-23:59,{lat},{lon},gps,x\n",
                       encoding="utf-8")
    base = run(world_config(world, tmp_path / "base", utc_offset_minutes=utc_offset), "all")
    cfg = world_config(world, tmp_path / "out", utc_offset_minutes=utc_offset)
    cfg.records = str(records)
    manifest = run(cfg, "all")["manifest"]
    assert manifest["parse"]["malformed"] == base["manifest"]["parse"]["malformed"] + 1
    assert output_bytes(tmp_path / "out").keys() == output_bytes(tmp_path / "base").keys()


class TestZoneFailures:
    @pytest.mark.parametrize("centers, message", [
        ([(41.43, -88.05)], "at least two polygon zones"),
        ([(10.0, 10.0), (10.5, 10.0)], "zero variance"),  # far from every home
    ])
    def test_zone_failure_exits_2_and_writes_nothing(self, world, tmp_path, capsys,
                                                     centers, message):
        zones = [geojson_polygon_feature(square_ring(lat, lon, 4000),
                                         extra_props={"population": 100 * (i + 1)})
                 for i, (lat, lon) in enumerate(centers)]
        zone_path = write_geojson(tmp_path / "zones.geojson", zones)
        paths = world["paths"]
        out_dir = tmp_path / "out"
        rc = main(["all", "--records", str(paths["records"]), "--parcels", str(paths["parcels"]),
                   "--boundary", str(paths["boundary"]), "--scheme", str(paths["scheme"]),
                   "--zones", str(zone_path), "--out", str(out_dir)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_zones_of_one_population_exit_2_before_any_record_is_read(
            self, world, tmp_path, capsys, no_parse):
        zones = [geojson_polygon_feature(square_ring(lat, -88.05, 4000),
                                         extra_props={"population": 700})
                 for lat in (41.43, 41.47)]
        zone_path = write_geojson(tmp_path / "zones.geojson", zones)
        out_dir = tmp_path / "out"
        assert main(["all", "--zones", str(zone_path), *world_args(world, out_dir)]) == 2
        assert f"every zone in {zone_path} has the same 'population'" in capsys.readouterr().err
        assert not out_dir.exists()


def two_zones():
    return [geojson_polygon_feature(square_ring(lat, -88.05, 4000),
                                    extra_props={"population": pop})
            for lat, pop in ((41.43, 900), (41.47, 500))]


def with_altitude(doc):
    """A GeoJSON document with an altitude appended to every position."""
    if isinstance(doc, dict):
        return {k: with_altitude(v) for k, v in doc.items()}
    if isinstance(doc, list):
        if len(doc) == 2 and all(isinstance(x, float) for x in doc):
            return [*doc, 12.5]
        return [with_altitude(x) for x in doc]
    return doc


def zones_doc(edit):
    zones = two_zones()
    edit(zones)
    return {"type": "FeatureCollection", "features": zones}


class TestGeojsonInputs:
    @pytest.mark.parametrize("flag, make_doc, message", [
        pytest.param("--boundary", lambda: {"type": "FeatureCollection", "features": []},
                     "does not start with a valid polygon", id="empty-boundary"),
        pytest.param("--boundary", lambda: {"type": "Feature", "properties": {}, "geometry": None},
                     "does not start with a valid polygon", id="null-boundary-geometry"),
        pytest.param("--zones",
                     lambda: zones_doc(lambda z: z[1]["properties"].update(population=None)),
                     "has no finite 'population': None", id="null-population"),
        pytest.param("--zones", lambda: zones_doc(lambda z: z[0]["geometry"].pop("coordinates")),
                     "is not a valid polygon", id="no-coordinates"),
        pytest.param("--boundary",
                     lambda: {"type": "Polygon", "coordinates": [[[-88.0, 41.4]] * 4]},
                     "does not start with a valid polygon", id="one-vertex-boundary"),
        pytest.param("--zones", lambda: zones_doc(
            lambda z: z[1]["geometry"].update(coordinates=[[[-88.0, 41.4]] * 4])),
                     "is not a valid polygon", id="one-vertex-zone"),
        pytest.param("--zones", lambda: zones_doc(
            lambda z: z[0]["geometry"]["coordinates"][0][1].__setitem__(0, 10 ** 400)),
                     "is not a valid polygon", id="zone-coordinate-beyond-float"),
        pytest.param("--parcels", lambda: [1, 2], "is not a GeoJSON object", id="parcels-list"),
        pytest.param("--parcels", lambda: {"type": "FeatureCollection", "features": [3]},
                     "holds no list of GeoJSON features", id="parcels-non-dict-feature"),
    ])
    def test_malformed_file_exits_2_and_writes_nothing(self, world, tmp_path, capsys,
                                                       flag, make_doc, message):
        paths = world["paths"]
        args = {"--records": paths["records"], "--parcels": paths["parcels"],
                "--boundary": paths["boundary"], "--scheme": paths["scheme"],
                "--zones": write_geojson(tmp_path / "zones.geojson", two_zones())}
        args[flag] = tmp_path / "bad.geojson"
        args[flag].write_text(json.dumps(make_doc()), encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = ["all", "--out", str(out_dir)]
        for name, path in args.items():
            argv += [name, str(path)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_altitude_positions_load_like_2d(self, world, tmp_path):
        paths = {name: world["paths"][name] for name in ("parcels", "boundary")}
        paths["zones"] = write_geojson(tmp_path / "zones.geojson", two_zones())
        flat = world_config(world, tmp_path / "flat", zones=str(paths["zones"]))
        run(flat, "all")
        for name, path in paths.items():
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            lifted = tmp_path / f"{name}_3d.geojson"
            lifted.write_text(json.dumps(with_altitude(doc)), encoding="utf-8")
            paths[name] = lifted
        assert '12.5]' in paths["parcels"].read_text(encoding="utf-8")
        cfg = world_config(world, tmp_path / "3d", zones=str(paths["zones"]))
        cfg.parcels, cfg.boundary = str(paths["parcels"]), str(paths["boundary"])
        run(cfg, "all")
        assert output_bytes(tmp_path / "3d") == output_bytes(tmp_path / "flat")
        assert (tmp_path / "3d" / "correlation.json").exists()


    @pytest.mark.parametrize("flag", ["--parcels", "--zones"])
    def test_non_object_properties_exit_2(self, world, tmp_path, capsys, flag):
        def make_doc():
            if flag == "--zones":
                return zones_doc(lambda z: z[1].update(properties=[1]))
            doc = json.loads(Path(world["paths"]["parcels"]).read_text(encoding="utf-8"))
            doc["features"][1]["properties"] = [1]
            return doc

        self.test_malformed_file_exits_2_and_writes_nothing(
            world, tmp_path, capsys, flag, make_doc,
            "feature 1 in %s has properties that are not an object" % (tmp_path / "bad.geojson"))

    def test_boundary_with_a_hole_exits_2_before_any_record_is_read(
            self, world, tmp_path, capsys, no_parse):
        # a 1-degree square with a 0.2-degree hole; the prefilter tests one
        # ring, so it would keep a record that lies inside the hole
        square = ((41.0, -88.5), (41.0, -87.5), (42.0, -87.5), (42.0, -88.5))
        hole = [[-88.1, 41.4], [-87.9, 41.4], [-87.9, 41.6], [-88.1, 41.6], [-88.1, 41.4]]
        feature = geojson_polygon_feature(square)
        feature["geometry"]["coordinates"].append(hole)
        boundary = write_geojson(tmp_path / "holed.geojson", [feature])
        ring, holes = geojson_polygon(feature["geometry"])
        assert point_in_ring(41.5, -88.0, ring) and not point_in_polygon(41.5, -88.0, ring, holes)
        out_dir = tmp_path / "out"
        assert main(["ingest", "--records", str(world["paths"]["records"]),
                     "--boundary", str(boundary), "--out", str(out_dir)]) == 2
        assert f"boundary file {boundary} has a polygon with holes" in capsys.readouterr().err
        assert not out_dir.exists()


def rename_property(src, dest, old, new):
    """Copy a GeoJSON FeatureCollection with property `old` renamed `new` in every feature."""
    doc = json.loads(Path(src).read_text(encoding="utf-8"))
    for feat in doc["features"]:
        feat["properties"][new] = feat["properties"].pop(old)
    Path(dest).write_text(json.dumps(doc), encoding="utf-8")
    return dest


class TestAttributeNames:
    def test_category_attr_reads_a_renamed_category(self, world, tmp_path):
        parcels = rename_property(world["paths"]["parcels"], tmp_path / "parcels.geojson",
                                  "category", "landuse")
        assert main(["all", *world_args(world, tmp_path / "base")]) == 0
        assert main(["all", *world_args(world, tmp_path / "renamed"), "--parcels", str(parcels),
                     "--category-attr", "landuse"]) == 0
        base, renamed = output_bytes(tmp_path / "base"), output_bytes(tmp_path / "renamed")
        manifests = [json.loads(out.pop("manifest.json")) for out in (base, renamed)]
        assert renamed == base
        assert manifests[1]["config"].pop("category_attr") == "landuse"
        assert manifests[0]["config"].pop("category_attr") == "category"
        assert manifests[1] == manifests[0]

    def test_zone_pop_attr_reads_a_renamed_population(self, world, tmp_path):
        zones = write_geojson(tmp_path / "zones.geojson", two_zones())
        renamed = rename_property(zones, tmp_path / "renamed.geojson", "population", "residents")
        assert main(["all", *world_args(world, tmp_path / "base"), "--zones", str(zones)]) == 0
        assert main(["all", *world_args(world, tmp_path / "renamed"), "--zones", str(renamed),
                     "--zone-pop-attr", "residents"]) == 0
        base = (tmp_path / "base" / "correlation.json").read_bytes()
        assert (tmp_path / "renamed" / "correlation.json").read_bytes() == base


class TestCli:
    def test_synth_then_mine(self, tmp_path, capsys):
        world_dir = tmp_path / "world"
        rc = main(["synth", "--out", str(world_dir), "--users", "5", "--days", "3", "--seed", "2"])
        assert rc == 0
        out_dir = tmp_path / "out"
        rc = main(
            [
                "mine",
                "--records", str(world_dir / "records.csv"),
                "--parcels", str(world_dir / "parcels.geojson"),
                "--boundary", str(world_dir / "boundary.geojson"),
                "--out", str(out_dir),
            ]
        )
        assert rc == 0
        assert (out_dir / "census_lbm.csv").exists()
        captured = capsys.readouterr()
        assert "users" in captured.out

    def test_synth_writes_the_noise_actors_asked_for(self, tmp_path):
        world_dir = tmp_path / "world"
        rc = main(["synth", "--out", str(world_dir), "--users", "3", "--days", "2",
                   "--stationary-bots", "1", "--teleporters", "1", "--tourists", "1"])
        assert rc == 0
        with open(world_dir / "records.csv", encoding="utf-8", newline="") as fh:
            users = {row[0] for row in csv.reader(fh)}
        assert users == {"u0000", "u0001", "u0002", "bot0000", "tp0000", "tour0000"}

    @pytest.mark.parametrize("argv, message", [
        (["--users", "0"], "--users must be at least 1, got 0"),
        (["--days", "0"], "--days must be at least 1, got 0"),
        (["--users", "-3"], "--users must be at least 1, got -3"),
        (["--tourists", "-1"], "--tourists must be at least 0, got -1"),
        (["--stationary-bots", "-1"], "--stationary-bots must be at least 0, got -1"),
        (["--teleporters", "-2"], "--teleporters must be at least 0, got -2"),
        (["--stationary-bots", "139"], "--stationary-bots must be at most 138"),
        (["--out", "taken"], "--out is not a directory"),
        (["--out", "taken/world"], "--out is not a directory"),
    ])
    def test_bad_synth_argument_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                            argv, message):
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("kept\n", encoding="utf-8")
        rc = main(["synth", "--out", "world", "--users", "2", "--days", "2", *argv])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
        assert Path("taken").read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("name", ["parcels.geojson", "records.csv", "ground_truth.json"])
    def test_synth_world_name_taken_by_a_directory_exits_2_and_writes_nothing(
            self, tmp_path, capsys, name):
        world_dir = tmp_path / "world"
        (world_dir / name).mkdir(parents=True)
        rc = main(["synth", "--out", str(world_dir), "--users", "2", "--days", "2"])
        assert rc == 2
        assert f"cannot replace {world_dir / name}: it is not a regular file" in \
            capsys.readouterr().err
        assert [p.name for p in world_dir.iterdir()] == [name]

    def test_missing_records_nonzero_exit_names_path(self, tmp_path, capsys):
        rc = main(
            [
                "mine",
                "--records", str(tmp_path / "absent.csv"),
                "--parcels", str(tmp_path / "absent.geojson"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err


@pytest.fixture
def no_parse(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("records parsed before the paths were checked")
    monkeypatch.setattr(ing, "parse_records_path", fail)


def test_failed_write_keeps_the_previous_run(world, tmp_path, monkeypatch):
    out = tmp_path / "out"
    run(world_config(world, out), "all")
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    before = output_bytes(out)

    def full_disk(path, density):  # writes part of its file, then fails
        Path(path).write_text("bin_x_center,bin_", encoding="utf-8")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pipeline, "write_density_csv", full_disk)
    # unhashed ids change filtered_records.csv, which is written before the density
    with pytest.raises(OSError, match="No space"):
        run(world_config(world, out, hash_ids=False), "all")
    assert output_bytes(out) == before
    assert sorted(p.name for p in out.iterdir()) == sorted(before)  # no .staging-*


def test_an_artifact_name_taken_by_a_directory_exits_2_and_keeps_the_previous_run(
        world, tmp_path, capsys, request):
    out = tmp_path / "out"
    args = world_args(world, out)
    assert main(["all", *args]) == 0
    (out / "density.csv").unlink()
    (out / "density.csv").mkdir()
    before = output_bytes(out)
    capsys.readouterr()
    request.getfixturevalue("no_parse")  # the names are checked before any record is read
    # unhashed ids change filtered_records.csv, which is renamed before the density
    assert main(["all", "--no-hash-ids", *args]) == 2
    assert str(out / "density.csv") in capsys.readouterr().err
    assert output_bytes(out) == before
    assert sorted(p.name for p in out.iterdir()) == sorted([*before, "density.csv"])


def test_publication_keeps_unrelated_files_and_follows_the_umask(world, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n", encoding="utf-8")
    old_mask = os.umask(0o022)
    try:
        paths = run(world_config(world, out), "all")["paths"]
    finally:
        os.umask(old_mask)
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["notes.txt", *(p.name for p in paths.values())])
    for path in paths.values():
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o022


def world_args(world, out_dir):
    paths = world["paths"]
    return ["--records", str(paths["records"]), "--parcels", str(paths["parcels"]),
            "--boundary", str(paths["boundary"]), "--scheme", str(paths["scheme"]),
            "--out", str(out_dir)]


class TestDelimiter:
    def test_tab_in_a_config_file_reads_like_the_flag(self, world, tmp_path):
        tsv = tmp_path / "records.tsv"
        text = Path(world["paths"]["records"]).read_text(encoding="utf-8")
        assert "\t" not in text
        tsv.write_text(text.replace(",", "\t"), encoding="utf-8")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("delimiter = tab\n")
        args = world_args(world, tmp_path / "flag")
        args[1] = str(tsv)
        assert main(["mine", "--delimiter", "tab", *args]) == 0
        args[-1] = str(tmp_path / "file")
        assert main(["mine", "--config", str(cfg_file), *args]) == 0
        flag, file = output_bytes(tmp_path / "flag"), output_bytes(tmp_path / "file")
        assert flag == file
        assert strict_json_loads(flag["manifest.json"])["parse"]["records"] > 0

    # a raw tab is stripped with the rest of the value's whitespace
    @pytest.mark.parametrize("value", [";;", "\t", ""])
    def test_a_value_that_is_not_one_character_exits_2(self, world, tmp_path, capsys, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"delimiter = {value}\n")
        out_dir = tmp_path / "out"
        assert main(["mine", "--config", str(cfg_file), *world_args(world, out_dir)]) == 2
        assert "delimiter" in capsys.readouterr().err
        assert not out_dir.exists()


class TestBadPaths:
    @pytest.mark.parametrize("flag", ["--records", "--parcels", "--scheme", "--boundary",
                                      "--zones", "--blocklist", "--config"])
    def test_a_directory_as_input_exits_2(self, world, tmp_path, capsys, no_parse, flag):
        out_dir = tmp_path / "out"
        args = world_args(world, out_dir)
        if flag in args:
            args[args.index(flag) + 1] = str(tmp_path)
        else:
            args += [flag, str(tmp_path)]
        assert main(["all", *args]) == 2
        err = capsys.readouterr().err
        assert flag in err and str(tmp_path) in err
        assert not out_dir.exists()

    def test_annotate_without_parcels_exits_2(self, world, tmp_path, capsys, no_parse):
        out_dir = tmp_path / "out"
        args = world_args(world, out_dir)
        del args[args.index("--parcels"):args.index("--parcels") + 2]
        assert main(["annotate", *args]) == 2
        assert "--parcels is required" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("columns, message", [
        ("user_id=0,timestamp=1,lat=2,lon=2,location_source=4", "share column 2"),
        ("user_id=0,timestamp=1,lat=2,lon=3,location_source=4,lat=5", "'lat' given twice"),
        ("user_id=0,timestamp=1,lat=2,lon=3,location_source=4,text=0", "share column 0"),
    ])
    def test_a_columns_spec_that_misreads_records_exits_2(self, world, tmp_path, capsys,
                                                          monkeypatch, no_parse, columns,
                                                          message):
        def unread(*args):
            raise AssertionError("parcels read before the schema was checked")

        monkeypatch.setattr(pipeline, "load_parcels", unread)
        out_dir = tmp_path / "out"
        assert main(["all", "--columns", columns, *world_args(world, out_dir)]) == 2
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("below", [False, True])
    def test_an_out_that_names_a_file_exits_2(self, world, tmp_path, capsys, no_parse, below):
        target = tmp_path / "taken"
        target.write_text("keep")
        out_dir = target / "out" if below else target
        assert main(["all", *world_args(world, out_dir)]) == 2
        assert "--out" in capsys.readouterr().err
        assert target.read_text() == "keep"


def test_a_line_that_is_not_utf8_is_one_malformed_line(world, tmp_path):
    lines = Path(world["paths"]["records"]).read_bytes().splitlines(keepends=True)
    bad = tmp_path / "records.csv"
    bad.write_bytes(b"".join(lines[:5] + [lines[5].rstrip(b"\n") + b"\xe9\n"] + lines[5:]))
    clean = output_bytes(run(world_config(world, tmp_path / "clean"), "all")["paths"]["manifest"]
                         .parent)
    cfg = world_config(world, tmp_path / "bad")
    cfg.records = str(bad)
    dirty = output_bytes(run(cfg, "all")["paths"]["manifest"].parent)
    clean_manifest = strict_json_loads(clean.pop("manifest.json"))
    dirty_manifest = strict_json_loads(dirty.pop("manifest.json"))
    assert dirty == clean
    clean_manifest["parse"]["lines"] += 1
    clean_manifest["parse"]["malformed"] += 1
    assert dirty_manifest == clean_manifest


def test_annotation_dump_rows_match_the_oracles(tmp_path):
    """Each dumped row is its filtered record, joined by the linear scan and
    shifted by the UTC offset; the bytes do not depend on the worker count."""
    cfg = synth.SynthConfig(num_users=4, days=3, grid_side=24, seed=5,
                            templates=(synth.TemplateSpec(("H", "W", "Sh", "H"), 1.0, 0.3),),
                            bots=synth.BotSpec(stationary=1))
    world = synth.generate(cfg, tmp_path / "world")
    offset = -330
    dumps = {}
    for workers in (1, 2):
        run_cfg = world_config(world, tmp_path / f"w{workers}", utc_offset_minutes=offset,
                               dump_annotations=True, workers=workers)
        dumps[workers] = run(run_cfg, "annotate")["paths"]["annotations"].read_bytes()
    assert dumps[1] == dumps[2]

    parcels, _ = read_parcels(world["paths"]["parcels"],
                              ActivityScheme.from_file(world["paths"]["scheme"]))
    with open(tmp_path / "w1" / "filtered_records.csv", encoding="utf-8", newline="") as fh:
        records = list(csv.DictReader(fh))
    rows = list(csv.DictReader(dumps[1].decode("utf-8").splitlines()))
    assert len(rows) == len(records) > 0
    assert len({r["user_id"] for r in rows}) == 5  # the residents and the broadcaster
    for rec, row in zip(records, rows):
        assert (row["user_id"], row["lat"], row["lon"]) == (rec["user_id"], rec["lat"], rec["lon"])
        ts = ing.parse_timestamp(rec["timestamp"])
        assert row["ts_utc"] == iso_timestamp(ts)
        assert row["local_ts"] == iso_timestamp(ts + offset * 60, zone="")
        hit = nearest_parcel_scan(float(row["lat"]), float(row["lon"]), parcels,
                                  run_cfg.radius_m)
        want = ("", OTHERS_CODE) if hit is None else (str(hit.parcel_id), hit.activity_code)
        assert (row["parcel_id"], int(row["activity_code"])) == want


_PLAIN_FIELDS = st.text(st.sampled_from("aZ0 .-é日"), max_size=3)
_EDGE_COUNTS = (0, 1, pipeline._CSV_CHUNK - 1, pipeline._CSV_CHUNK, pipeline._CSV_CHUNK + 1)


@st.composite
def csv_tables(draw):
    """A header of 1-7 columns and rows cycled from a few plain ones, with
    one to three odd rows at chunk edges or mid-chunk: each of any width
    near the header's, holding up to two characters from one of `,`, `"`,
    `\r` or `\n` alone, or from all four, so that each check is at times
    the only one a chunk fails."""
    width = draw(st.integers(1, 7))
    plain = draw(st.lists(st.tuples(*[_PLAIN_FIELDS] * width), min_size=1, max_size=4))
    n_rows = draw(st.sampled_from(_EDGE_COUNTS))
    rows = [plain[i % len(plain)] for i in range(n_rows)]
    dirt = draw(st.sampled_from([",", '"', "\r", "\n", ',"\r\n']))
    chunk = pipeline._CSV_CHUNK
    spots = sorted({i for i in (0, 1, n_rows // 2, chunk - 1, chunk, n_rows - 1)
                    if 0 <= i < n_rows})
    for at in draw(st.lists(st.sampled_from(spots), min_size=1, max_size=3,
                            unique=True)) if spots else ():
        odd_width = draw(st.sampled_from([width, width, width - 1, width + 1]))
        odd = list(draw(st.tuples(*[_PLAIN_FIELDS] * odd_width)))
        for char in draw(st.lists(st.sampled_from(dirt), max_size=2)) if odd else ():
            i = draw(st.integers(0, len(odd) - 1))
            j = draw(st.integers(0, len(odd[i])))
            odd[i] = odd[i][:j] + char + odd[i][j:]
        rows[at] = tuple(odd)
    return tuple(f"h{i}" for i in range(width)), rows


def _needs_quoting_care(row, width) -> bool:
    return width < 2 or len(row) != width or any(c in f for f in row for c in ',"\r\n')


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(csv_tables())
@example((("a",), [("",)]))  # csv quotes a row of one empty field
@example((("a", "b"), [("x,y",)]))  # a short row whose comma makes up the width
@example((("a", "b"), [("x", "y,z")]))
@example((("a", "b"), [("x", "y\nz")]))
@example((("a", "b"), [("x", 'y"z')]))
@example((("a", "b"), [("x", "y\rz")]))
@example((("a", "b"), [("p", "q"), ("x", "y,z"), ("p", "q"), ('"',), ("p", "q")]))
def test_write_csv_matches_csv_writer(table):
    """`_write_csv` writes the bytes of one plain csv.writer, and hands
    csv.writer the header and exactly the rows that need its care."""
    header, rows = table
    real_writer = csv.writer
    routed = []

    class Spy:
        def __init__(self, fh, **kwargs):
            self.inner = real_writer(fh, **kwargs)

        def writerow(self, row):
            routed.append(row)
            return self.inner.writerow(row)

        def writerows(self, rows):
            for row in rows:
                self.writerow(row)

    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(pipeline.csv, "writer", Spy):
            pipeline._write_csv(got, header, iter(rows))
        write_csv_reference(want, header, rows)
        assert got.read_bytes() == want.read_bytes()
    assert routed == [header] + [r for r in rows if _needs_quoting_care(r, len(header))]


def test_an_upper_case_blocklist_word_drops_a_lower_case_text(world, tmp_path):
    blocklist = tmp_path / "blocklist.txt"
    blocklist.write_text("# comment\nHIRING\n", encoding="utf-8")
    filters = load_inputs(world_config(world, tmp_path / "out", blocklist=str(blocklist)),
                          STAGE_LEVELS["ingest"]).filters
    kept = ing.PointRecord("u1", 1, 41.4, -88.0, "lunch")
    assert ing.prefilter([ing.PointRecord("u1", 0, 41.4, -88.0, "now hiring"), kept],
                         filters) == [kept]
