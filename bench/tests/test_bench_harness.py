"""Tests of the benchmark's own machinery: hook table, span arithmetic,
noise injection and the correctness gate.

    python -m pytest bench/tests
"""

import dataclasses
import random
import time
import types

import pytest

import gate
import run_bench
import tracing
import workloads
from motifmine import cli, ingest
from motifmine.pipeline import load_boundary_ring


def test_hook_table_resolves_against_current_code():
    metric_spans, targets, notes = tracing.resolve_table()
    assert notes == []
    assert set(metric_spans) == set(tracing.HOOK_TABLE)
    assert all(metric_spans.values())
    # the writer pattern picks up every public writer, not just one
    assert len(metric_spans["pipeline.write_s"]) >= 7


def test_unresolved_name_drops_only_its_metric():
    table = {
        "ok_s": ("s", "inclusive", [("motifmine.ingest", "prefilter")], None),
        "gone_s": ("s", "inclusive", [("motifmine.ingest", "prefilter"),
                                      ("motifmine.ingest", "no_such_function")], None),
        "gone_module_s": ("s", "inclusive", [("motifmine.no_such_module", "f")], None),
    }
    metric_spans, _targets, notes = tracing.resolve_table(table)
    assert set(metric_spans) == {"ok_s"}
    assert len(notes) == 2 and all("does not resolve" in n for n in notes)


class FakeClock:
    """Advances by a fixed step per reading, so every span length is known."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def nested_calls():
    """outer() calls inner() twice; inner() calls leaf() once."""
    tracer = tracing.Tracer(clock=FakeClock())
    mod = types.SimpleNamespace()
    mod.leaf = tracer.wrap(lambda: None, "leaf", {})

    def inner():
        mod.leaf()
        return [1, 2, 3]

    mod.inner = tracer.wrap(inner, "inner", {"inner.items": lambda args, result: len(result)})

    def outer():
        mod.inner()
        mod.inner()

    mod.outer = tracer.wrap(outer, "outer", {})
    mod.outer()
    return tracer


def test_self_time_subtracts_child_spans_on_nested_calls():
    tracer = nested_calls()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    # clock readings: outer 1..10, inner 2..5 and 6..9, leaf 3..4 and 7..8
    (outer,) = by_name["outer"]
    assert outer.duration == 9.0
    assert [s.duration for s in by_name["inner"]] == [3.0, 3.0]
    assert [s.duration for s in by_name["leaf"]] == [1.0, 1.0]
    assert outer.self_s == 9.0 - 3.0 - 3.0
    assert [s.self_s for s in by_name["inner"]] == [2.0, 2.0]
    assert sum(s.self_s for s in tracer.spans) == outer.duration
    assert tracing.covered_time(tracer.spans) == 9.0

    summary = tracing.summarize(tracer.spans)
    assert summary["inner"] == {"calls": 2, "inclusive_s": 6.0, "self_s": 4.0}
    assert summary["outer"] == {"calls": 1, "inclusive_s": 9.0, "self_s": 3.0}


def test_reducers_on_nested_calls():
    tracer = nested_calls()
    table = {
        "outer_inner_s": ("s", "inclusive", [], None),
        "inner_self_s": ("s", "self", [], None),
        "inner_calls": ("count", "calls", [], None),
        "inner.items": ("count", "sum", [], None),
        "inner_p50_ms": ("ms", "p50_ms", [], None),
        tracing.JOIN_METRIC: ("count", "calls", [], None),
        "leaf_per_join": ("count", "per_join", [], None),
    }
    metric_spans = {
        "outer_inner_s": ["outer", "inner"],  # inner nests in outer: counted once
        "inner_self_s": ["inner"],
        "inner_calls": ["inner"],
        "inner.items": ["inner"],
        "inner_p50_ms": ["inner"],
        tracing.JOIN_METRIC: ["outer"],
        "leaf_per_join": ["leaf"],
    }
    metrics, notes = tracing.reduce_metrics(tracer, metric_spans, table)
    assert notes == []
    assert metrics == {
        "outer_inner_s": 9.0,
        "inner_self_s": 4.0,
        "inner_calls": 2,
        "inner.items": 6,
        "inner_p50_ms": 3000.0,
        tracing.JOIN_METRIC: 1,
        "leaf_per_join": 2.0,
    }
    # without the join count, per-join metrics are absent, not divided by zero
    del metric_spans[tracing.JOIN_METRIC]
    metrics, notes = tracing.reduce_metrics(tracer, metric_spans, table)
    assert "leaf_per_join" not in metrics and len(notes) == 1


def small_config(name: str, seed: int):
    """A few-user instance of a workload's synth world on the smallest grid
    that fits its 3 km stop spacing."""
    cfg = workloads.synth_config(name, seed)
    return dataclasses.replace(
        cfg, grid_side=2 * (round(3000.0 / cfg.cell_m) + 2) + 6, num_users=8, days=5,
        bots=workloads.synth.BotSpec(stationary=2, teleporter=1), tourist_count=2,
    )


def test_injected_counts_match_parser_and_prefilter(tmp_path):
    cfg = small_config("noisy-ingest", 5)
    workloads.synth.generate(cfg, tmp_path)
    lines = (tmp_path / "records.csv").read_text(encoding="utf-8").splitlines()
    counts, noisy = workloads.inject_noise(lines, random.Random("5/noise"))

    records, report = ingest.parse_records(noisy)
    assert report.malformed == counts["malformed"]
    assert report.bad_coord == counts["bad_coord"]
    assert report.geocoded == counts["geocoded"]
    kept = counts["base_lines"] + counts["duplicate"] + counts["outside"] + counts["blocked"]
    assert report.records == kept
    assert report.lines == kept + counts["malformed"] + counts["bad_coord"] + counts["geocoded"]

    fcfg = ingest.FilterConfig(boundary=load_boundary_ring(tmp_path / "boundary.geojson"),
                               keyword_blocklist=workloads.BLOCKLIST)
    assert len(ingest.prefilter(records, fcfg)) == counts["base_lines"]
    # each drop step alone removes exactly its injected lines
    no_blocklist = dataclasses.replace(fcfg, keyword_blocklist=())
    assert len(ingest.prefilter(records, no_blocklist)) == counts["base_lines"] + counts["blocked"]


def test_benign_text_never_matches_the_blocklist():
    for a in workloads.BENIGN_WORDS:
        for b in workloads.BENIGN_WORDS:
            text = f"{a} {b}"
            assert not any(k in text for k in workloads.BLOCKLIST), text
    for text in workloads.BLOCKED_TEXTS:
        assert any(k in text.lower() for k in workloads.BLOCKLIST), text


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_second_seed_changes_inputs_not_the_verdict(name, tmp_path):
    verdicts, inputs = [], []
    for seed in (42, 7):
        world_dir = tmp_path / f"world{seed}"
        workloads.build_world(name, small_config(name, seed), world_dir)
        world = workloads.World(name, seed, world_dir)
        out = tmp_path / f"out{seed}"
        assert cli.main(world.cli_args(out)) == 0
        verdicts.append(gate.check_run(world, out))
        inputs.append(world.records.read_bytes())
    assert inputs[0] != inputs[1]
    assert verdicts == [[], []]


def test_gate_rejects_a_wrong_census(tmp_path):
    world_dir = tmp_path / "world"
    workloads.build_world("coarse-long", small_config("coarse-long", 3), world_dir)
    world = workloads.World("coarse-long", 3, world_dir)
    out = tmp_path / "out"
    assert cli.main(world.cli_args(out)) == 0
    path = out / "census_lbm.csv"
    rows = path.read_text(encoding="utf-8").splitlines()
    head, first = rows[0], rows[1].rsplit(",", 1)
    rows[1] = f"{first[0]},{float(first[1]) + 0.5:.6f}"
    path.write_text("\n".join([head] + rows[1:]) + "\n", encoding="utf-8")
    failures = gate.check_run(world, out)
    assert len(failures) == 1 and failures[0].startswith("census_lbm")


def test_reference_time_scales_wall_by_probe_speed():
    slow = run_bench.Child("run", 10.0, 0, 1.0, probe_s=2 * run_bench.REF_PROBE_S)
    assert slow.ref_s == 5.0
    fast = run_bench.Child("run", 10.0, 0, 1.0, probe_s=run_bench.REF_PROBE_S / 2)
    assert fast.ref_s == 20.0


def test_speed_probe_samples_until_closed():
    with run_bench.SpeedProbe() as probe:
        time.sleep(10 * run_bench.PROBE_PERIOD_S)
    count = len(probe.samples)
    assert count >= 2 and probe.mean_s > 0
    time.sleep(3 * run_bench.PROBE_PERIOD_S)
    assert len(probe.samples) == count
