"""The benchmark's per-layer tracing must keep finding the pipeline's names.

`bench/tracing.py` wraps public functions by (module, name) from outside
the package. A name that stops resolving, or that a caller reaches through
a reference taken at import time instead of a module-attribute lookup,
makes its metric silently absent; these tests catch both.
"""

import sys
from pathlib import Path

from motifmine import synth
from motifmine.pipeline import RunConfig, run

from conftest import geojson_polygon_feature, square_ring, write_geojson

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def test_hook_table_resolves():
    metric_spans, _, notes = tracing.resolve_table()
    assert notes == []
    assert set(metric_spans) == set(tracing.HOOK_TABLE)


def test_every_hooked_name_is_reached(tmp_path, monkeypatch):
    world = synth.generate(synth.SynthConfig(num_users=10, days=4, seed=3), tmp_path / "world")
    paths = world["paths"]
    zones = [
        geojson_polygon_feature(square_ring(41.43, -88.05, 4000), extra_props={"population": 900}),
        geojson_polygon_feature(square_ring(41.47, -88.05, 4000), extra_props={"population": 500}),
    ]
    cfg = RunConfig(records=str(paths["records"]), parcels=str(paths["parcels"]),
                    boundary=str(paths["boundary"]), scheme=str(paths["scheme"]),
                    zones=str(write_geojson(tmp_path / "zones.geojson", zones)),
                    out_dir=str(tmp_path / "out"), workers=1)
    _, targets, _ = tracing.resolve_table()
    for owner, attr in targets:  # monkeypatch restores the unwrapped functions
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = tracing.Tracer()
    metric_spans, notes = tracing.install(tracer)
    run(cfg, "all")
    metrics, reduce_notes = tracing.reduce_metrics(tracer, metric_spans)
    assert notes + reduce_notes == []
    reached = {span.name for span in tracer.spans}
    unreached = {m: names for m, names in metric_spans.items() if reached.isdisjoint(names)}
    assert unreached == {}
    assert metrics["parcels.join_calls"] > 0
    assert metrics["motifs.signature_calls"] > 0
