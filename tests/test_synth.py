import hashlib
import json
import math

import pytest

from motifmine import annotate, ingest, parcels, synth
from motifmine.pipeline import RunConfig, run

from oracles import group_tracks


def small_cfg(**kw):
    defaults = dict(num_users=6, days=3, seed=5)
    defaults.update(kw)
    return synth.SynthConfig(**defaults)


def read(path):
    return path.read_bytes()


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        a = synth.generate(small_cfg(), tmp_path / "a")
        b = synth.generate(small_cfg(), tmp_path / "b")
        for name in a["paths"]:
            assert read(a["paths"][name]) == read(b["paths"][name]), name

    def test_different_seed_differs(self, tmp_path):
        a = synth.generate(small_cfg(seed=5), tmp_path / "a")
        b = synth.generate(small_cfg(seed=6), tmp_path / "b")
        assert read(a["paths"]["records"]) != read(b["paths"]["records"])

    def test_noise_actors_leave_resident_records_unchanged(self, tmp_path):
        clean = synth.generate(small_cfg(), tmp_path / "clean")
        noisy = synth.generate(
            small_cfg(bots=synth.BotSpec(stationary=2, teleporter=1), tourist_count=2),
            tmp_path / "noisy",
        )
        clean_lines = read(clean["paths"]["records"]).decode().splitlines()
        noisy_lines = read(noisy["paths"]["records"]).decode().splitlines()
        resident = [l for l in noisy_lines if l.startswith("u")]
        assert resident == clean_lines


# SHA-256 of each file of PINNED_CFG's world; any change to the generated
# bytes, deliberate or not, must update these (benchmark worlds are cached
# per workload and seed, so they would silently go stale otherwise)
PINNED_DIGESTS = {
    "parcels": "5f6be97d41eb4fe2926e1aca0800960da5bc4ad8c8d2baeda7a67bf4d6bc840e",
    "records": "983da8e17deb6886b9e20055813c0aaf6248cbd906be4165e3e7b1dffa6f46b1",
    "boundary": "8ba7da8cfa283fdbef30277cbbd80fbcd6c4f66be01e9dcfe397c534c2d33af4",
    "scheme": "1ecef496ff0bb59449b04a5bc46bff03a4b44eef6a376a633866725c0274fcc5",
    "ground_truth": "7a0052303855a2a6365f480ccc711c8e4ca97fb59cffcfa56cd0ea67eab7f000",
}


def pinned_cfg():
    """Tourists, both bot kinds, and multi-stop templates at three spacings."""
    return synth.SynthConfig(
        seed=11, grid_side=80, cell_m=150.0, num_users=8, days=3, tourist_count=2,
        bots=synth.BotSpec(stationary=1, teleporter=1),
        templates=(
            synth.TemplateSpec(("H", "W", "Sh", "H"), 0.4, 2.0),
            synth.TemplateSpec(("H", "R1", "H", "R2", "H"), 0.3),
            synth.TemplateSpec(("H", "S", "W", "E", "H"), 0.2, 4.5),
            synth.TemplateSpec(("H",), 0.1),
        ),
    )


def test_world_bytes_are_pinned(tmp_path):
    res = synth.generate(pinned_cfg(), tmp_path / "w")
    digests = {name: hashlib.sha256(read(path)).hexdigest() for name, path in res["paths"].items()}
    assert digests == PINNED_DIGESTS


class TestMinimalWorld:
    def test_one_user_one_day_forms_one_closed_pendulum(self, tmp_path):
        cfg = synth.SynthConfig(
            num_users=1,
            days=1,
            seed=1,
            templates=(synth.TemplateSpec(("H", "W", "H"), 1.0),),
        )
        res = synth.generate(cfg, tmp_path / "w")
        records, report = ingest.parse_records_path(res["paths"]["records"])
        assert report.malformed == 0
        # one active day plus the sparse residency-anchor day
        index, _ = parcels.load_parcels(res["paths"]["parcels"])
        track = group_tracks(records)[0]
        history = annotate.annotate_history(track, index, 0)
        days = annotate.split_days(history)
        assert len(days) == 2
        active = annotate.select_active_days(days)
        assert len(active) == 1
        truth = res["ground_truth"]
        home_pid = truth.users["u0000"]["home_parcel_id"]
        keys = []
        for p in active[0].points:
            if not keys or keys[-1] != p.parcel_id:
                keys.append(p.parcel_id)
        assert keys[0] == home_pid and keys[-1] == home_pid
        assert len(set(keys)) == 2

    def test_ground_truth_signatures_match_template_walks(self, tmp_path):
        res = synth.generate(small_cfg(), tmp_path / "w")
        truth = res["ground_truth"]
        assert truth.expected_census["lbm"]["one_node_pct"] == pytest.approx(
            100.0 * truth.templates[-1]["users"] / truth.num_users
        )
        total_pct = truth.expected_census["lbm"]["one_node_pct"] + sum(
            truth.expected_census["lbm"]["motifs"].values()
        )
        assert total_pct == pytest.approx(100.0)


class TestFailureModes:
    def test_tweets_budget_too_small_is_fatal(self):
        cfg = small_cfg(tweets_per_day=(4, 6))
        with pytest.raises(ValueError, match="tweets_per_day"):
            cfg.validate()

    def test_weights_must_sum_to_one(self):
        cfg = small_cfg(
            templates=(
                synth.TemplateSpec(("H", "W", "H"), 0.5),
                synth.TemplateSpec(("H",), 0.4),
            )
        )
        with pytest.raises(ValueError, match="weights"):
            cfg.validate()

    def test_open_walk_template_rejected(self):
        cfg = small_cfg(templates=(synth.TemplateSpec(("H", "W"), 1.0),))
        with pytest.raises(ValueError, match="start and end at home"):
            cfg.validate()

    def test_grid_capacity_enforced(self, tmp_path):
        cfg = small_cfg(num_users=5000)
        with pytest.raises(ValueError, match="homes"):
            synth.generate(cfg, tmp_path / "w")


@pytest.fixture(scope="module")
def noisy_world(tmp_path_factory):
    out = tmp_path_factory.mktemp("noisy")
    cfg = small_cfg(bots=synth.BotSpec(stationary=1, teleporter=1), tourist_count=1)
    res = synth.generate(cfg, out)
    records, _ = ingest.parse_records_path(res["paths"]["records"])
    tracks = {t.user_id: t for t in group_tracks(records)}
    index, _ = parcels.load_parcels(res["paths"]["parcels"])
    return res, tracks, index


class TestNoiseActorsFailExactlyTheirFilter:
    def test_stationary_bot_passes_speed_and_residency_fails_bot_filter(self, noisy_world):
        _, tracks, index = noisy_world
        track = tracks["bot0000"]
        fcfg = ingest.FilterConfig()
        assert ingest.speed_filter(track, fcfg).keep
        assert ingest.residency_filter(track, fcfg)
        history = annotate.annotate_history(track, index, 0)
        assert annotate.stationary_bot_filter(history) is False

    def test_teleporter_fails_only_speed(self, noisy_world):
        _, tracks, index = noisy_world
        track = tracks["tp0000"]
        fcfg = ingest.FilterConfig()
        assert not ingest.speed_filter(track, fcfg).keep
        assert ingest.residency_filter(track, fcfg)
        history = annotate.annotate_history(track, index, 0)
        assert annotate.stationary_bot_filter(history) is True

    def test_tourist_fails_only_residency(self, noisy_world):
        _, tracks, index = noisy_world
        track = tracks["tour0000"]
        fcfg = ingest.FilterConfig()
        assert ingest.speed_filter(track, fcfg).keep
        assert not ingest.residency_filter(track, fcfg)
        history = annotate.annotate_history(track, index, 0)
        assert annotate.stationary_bot_filter(history) is True

    def test_pipeline_recovers_exactly_the_residents(self, noisy_world, tmp_path):
        res, _, _ = noisy_world
        rc = RunConfig(
            records=str(res["paths"]["records"]),
            parcels=str(res["paths"]["parcels"]),
            boundary=str(res["paths"]["boundary"]),
            out_dir=str(tmp_path / "out"),
        )
        result = run(rc, "annotate")
        users = result["manifest"]["users"]
        assert users["total"] == 6 + 1 + 1 + 1
        assert users["after_speed"] == users["total"] - 1
        assert users["after_residency"] == users["after_speed"] - 1
        assert users["after_bot_filter"] == 6
        assert users["with_home"] == 6


def test_residents_pass_every_filter_by_construction(tmp_path):
    res = synth.generate(small_cfg(), tmp_path / "w")
    records, _ = ingest.parse_records_path(res["paths"]["records"])
    index, _ = parcels.load_parcels(res["paths"]["parcels"])
    fcfg = ingest.FilterConfig()
    truth = res["ground_truth"]
    for track in group_tracks(records):
        assert ingest.speed_filter(track, fcfg).keep
        assert ingest.residency_filter(track, fcfg)
        history = annotate.annotate_history(track, index, 0)
        assert annotate.stationary_bot_filter(history)
        home = annotate.infer_home(history)
        assert home.rule_used == "night_mode"
        assert home.home_parcel_id == truth.users[track.user_id]["home_parcel_id"]
        days = annotate.split_days(history)
        active_days = annotate.select_active_days(days)
        assert len(active_days) == truth.days


def test_ground_truth_json_round_trips(tmp_path):
    res = synth.generate(small_cfg(), tmp_path / "w")
    doc = json.loads(res["paths"]["ground_truth"].read_text())
    assert doc["num_users"] == 6
    assert set(doc["expected_census"]) == {"lbm", "abm"}


# nine distinct stops, home included: one above motifs.SIGNATURE_NODE_CAP
NINE_NODE_WALK = ("H", "W", "Sh", "E", "S", "C", "T", "O", "R1", "H")


@pytest.mark.parametrize("walk", [NINE_NODE_WALK, ("H", "X1", "H"), ("H", "H2", "H")])
def test_unplantable_template_is_rejected_before_out_is_created(walk, tmp_path):
    cfg = small_cfg(templates=(synth.TemplateSpec(walk, 1.0),), tweets_per_day=(8, 22))
    with pytest.raises(ValueError, match="template") as err:
        synth.generate(cfg, tmp_path / "w")
    assert str(walk) in str(err.value)
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("bad, named", [
    (dict(templates=(synth.TemplateSpec((), 1.0),)), "()"),
    (dict(templates=(synth.TemplateSpec(("H", "W", "H"), 1.5), synth.TemplateSpec(("H",), -0.5))),
     "('H',)"),
    (dict(tweets_per_day=(30, 20)), "tweets_per_day"),
], ids=["empty-walk", "negative-weight", "reversed-tweets-per-day"])
def test_bad_template_or_budget_is_a_value_error_before_out_is_created(bad, named, tmp_path):
    cfg = small_cfg(**bad)
    with pytest.raises(ValueError) as err:
        synth.generate(cfg, tmp_path / "w")
    assert named in str(err.value)
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("spacing", [math.inf, math.nan])
def test_non_finite_spacing_is_rejected_before_out_is_created(spacing, tmp_path):
    walk = ("H", "W", "H")
    cfg = small_cfg(templates=(synth.TemplateSpec(walk, 1.0, spacing_km=spacing),))
    with pytest.raises(ValueError, match="spacing_km") as err:
        synth.generate(cfg, tmp_path / "w")
    assert str(walk) in str(err.value)
    assert not (tmp_path / "w").exists()


def world_bytes(out):
    names = sorted(p.name for p in out.iterdir())  # a .staging-* directory shows here
    return names, [(out / name).read_bytes() for name in names]


@pytest.mark.parametrize("bad", [
    dict(templates=(synth.TemplateSpec(NINE_NODE_WALK, 1.0),), tweets_per_day=(8, 22)),
    dict(num_users=5000),  # found only once the grid is laid out
])
def test_failed_generate_keeps_the_previous_world(bad, tmp_path):
    out = tmp_path / "w"
    synth.generate(small_cfg(), out)
    before = world_bytes(out)
    with pytest.raises(ValueError):
        synth.generate(small_cfg(seed=6, **bad), out)
    assert world_bytes(out) == before


def test_failed_world_write_keeps_the_previous_world(tmp_path, monkeypatch):
    out = tmp_path / "w"
    synth.generate(small_cfg(), out)
    before = world_bytes(out)
    world_writers = synth._world_writers

    def full_disk_boundary(*args):
        writers = world_writers(*args)

        def full_disk(path):  # writes part of its file, then fails
            path.write_text('{"type": "Fea', encoding="utf-8")
            raise OSError(28, "No space left on device")

        writers["boundary.geojson"] = full_disk
        return writers

    monkeypatch.setattr(synth, "_world_writers", full_disk_boundary)
    # another seed changes parcels.geojson and records.csv, written before the boundary
    with pytest.raises(OSError, match="No space"):
        synth.generate(small_cfg(seed=6), out)
    assert world_bytes(out) == before
