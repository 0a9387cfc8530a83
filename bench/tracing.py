"""Outside-in tracing of the pipeline's layers.

HOOK_TABLE is the one place that maps a per-layer metric to the public
names it wraps, as (module, name) pairs looked up where `pipeline.run`
reaches them (`motifmine.annotate.nearest_parcel`, not the definition in
`parcels`). A name ending in "*" matches every public function of the
module with that prefix; "Class.method" wraps a method. A name that no
longer resolves makes its metric absent with a note instead of failing
the run, so later changes to the package cannot crash the benchmark.

Each wrapped call records a span (name, parent span, start, end) and the
values its metrics measure from the call's arguments and result. Spans
stay in memory; the reduction to metrics happens when the run ends.

Run as a script, this module is the traced child process:

    python bench/tracing.py SUMMARY.json -- <motifmine CLI arguments>

It installs the hooks, runs the CLI pinned to one worker, and writes the
per-layer metrics and a per-name span summary to SUMMARY.json.
"""

import fnmatch
import functools
import importlib
import json
import statistics
import sys
import time
import types

ANNOTATE_CALLS = [("motifmine.annotate", n) for n in (
    "annotate_history", "stationary_bot_filter", "active_locations", "infer_home",
    "split_days", "select_active_days")]


def _result_len(args, result):
    return len(result)


def _kept_ratio(args, result):
    return len(result) / len(args[0]) if len(args[0]) else 0.0


def _input_lines(args, result):
    return result[1].lines


# metric -> (unit, reducer, [(module, public name)], measure or None)
#
# Reducers: "inclusive" sums the spans of the listed names that have no
# ancestor among them; "self" subtracts every child span from each span;
# "calls" counts spans; "sum" and "mean" reduce the measure over calls;
# "per_join" divides the measure's sum (or the call count) by the number of
# parcel joins; "p50_ms"/"p90_ms" are percentiles of span durations.
HOOK_TABLE = {
    "ingest.parse_s": ("s", "inclusive", [("motifmine.ingest", "parse_records_path")], None),
    "ingest.prefilter_s": ("s", "inclusive", [("motifmine.ingest", "prefilter")], None),
    "ingest.user_filters_s": ("s", "inclusive", [("motifmine.ingest", "speed_filter"),
                                                 ("motifmine.ingest", "residency_filter")], None),
    "ingest.records_in": ("count", "sum", [("motifmine.ingest", "parse_records_path")],
                          _input_lines),
    "ingest.prefilter_kept_ratio": ("ratio", "mean", [("motifmine.ingest", "prefilter")],
                                    _kept_ratio),
    "parcels.load_s": ("s", "inclusive", [("motifmine.pipeline", "load_parcels")], None),
    "parcels.join_s": ("s", "inclusive", [("motifmine.annotate", "nearest_parcel")], None),
    "parcels.query_s": ("s", "inclusive", [("motifmine.parcels", "SpatialIndex.query_bbox")],
                        None),
    "parcels.join_calls": ("count", "calls", [("motifmine.annotate", "nearest_parcel")], None),
    "parcels.candidates_per_join": ("count", "per_join",
                                    [("motifmine.parcels", "SpatialIndex.query_bbox")],
                                    _result_len),
    "parcels.polygon_evals_per_join": ("count", "per_join",
                                       [("motifmine.parcels", "point_polygon_distance_m")], None),
    "annotate.self_s": ("s", "self", ANNOTATE_CALLS, None),
    "annotate.days_active": ("count", "sum", [("motifmine.annotate", "select_active_days")],
                             _result_len),
    "motifs.network_s": ("s", "inclusive", [("motifmine.motifs", "build_daily_network"),
                                            ("motifmine.motifs", "abm_reduce")], None),
    "motifs.signature_s": ("s", "inclusive", [("motifmine.motifs", "canonical_signature")],
                           None),
    "motifs.signature_calls": ("count", "calls", [("motifmine.motifs", "canonical_signature")],
                               None),
    "motifs.census_s": ("s", "inclusive", [("motifmine.motifs", "census_from_signatures")],
                        None),
    "shape.day_metrics_s": ("s", "inclusive", [("motifmine.shape", "day_trips_km"),
                                               ("motifmine.shape", "day_anchors"),
                                               ("motifmine.shape", "gyradius_from_home")], None),
    "shape.align_s": ("s", "inclusive", [("motifmine.shape", "align_trajectory")], None),
    "shape.aggregate_s": ("s", "inclusive", [("motifmine.shape", "density_histogram"),
                                             ("motifmine.shape", "distance_stats"),
                                             ("motifmine.shape", "correlation_report")], None),
    "pipeline.user_ms_p50": ("ms", "p50_ms", [("motifmine.pipeline", "process_user")], None),
    "pipeline.user_ms_p90": ("ms", "p90_ms", [("motifmine.pipeline", "process_user")], None),
    "pipeline.write_s": ("s", "inclusive", [("motifmine.pipeline", "write_*")], None),
}

JOIN_METRIC = "parcels.join_calls"  # the denominator of every "per_join" metric


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "values")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0  # summed duration of direct child spans
        self.values = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.broken = {}  # metric -> why its measure failed
        self._stack = []

    def wrap(self, fn, name: str, measures: dict):
        """Return fn wrapped so each call records a span named `name`."""

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent, self.clock())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            for metric, measure in measures.items():
                try:
                    span.values[metric] = measure(args, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    self.broken.setdefault(metric, f"{name}: {exc!r}")
            return result

        return hooked


def _resolve(module_name: str, name: str):
    """[(owner, attribute, function)] for one table entry; [] if it does not resolve."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return []
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    if attr.endswith("*"):
        names = sorted(n for n in vars(owner) if fnmatch.fnmatch(n, attr) and not n.startswith("_"))
    else:
        names = [attr] if attr in vars(owner) else []
    return [(owner, n, getattr(owner, n)) for n in names if callable(getattr(owner, n))]


def span_name(owner, attr: str) -> str:
    prefix = owner.__name__ if isinstance(owner, types.ModuleType) else (
        f"{owner.__module__}.{owner.__qualname__}")
    return f"{prefix}.{attr}"


def resolve_table(table=None):
    """Map each metric to its span names; metrics with an unresolved name are
    dropped and explained in the returned notes.

    Returns (metric -> [span names], {(owner, attr): (function, span name)}, notes).
    """
    table = HOOK_TABLE if table is None else table
    metric_spans, targets, notes = {}, {}, []
    for metric, (_unit, _reducer, entries, _measure) in table.items():
        names, missing = [], []
        for module_name, name in entries:
            found = _resolve(module_name, name)
            if not found:
                missing.append(f"{module_name}.{name}")
            for owner, attr, fn in found:
                full = span_name(owner, attr)
                targets[(owner, attr)] = (fn, full)
                names.append(full)
        if missing:
            notes.append(f"{metric} absent: {', '.join(missing)} does not resolve")
        else:
            metric_spans[metric] = names
    return metric_spans, targets, notes


def install(tracer: Tracer, table=None):
    """Wrap every resolved name; returns (metric -> span names, notes)."""
    table = HOOK_TABLE if table is None else table
    metric_spans, targets, notes = resolve_table(table)
    measures = {}
    for metric, names in metric_spans.items():
        measure = table[metric][3]
        if measure is not None:
            for name in names:
                measures.setdefault(name, {})[metric] = measure
    for (owner, attr), (fn, full) in targets.items():
        setattr(owner, attr, tracer.wrap(fn, full, measures.get(full, {})))
    return metric_spans, notes


def _by_name(spans) -> dict:
    out = {}
    for s in spans:
        out.setdefault(s.name, []).append(s)
    return out


def _outermost(span, names) -> bool:
    p = span.parent
    while p is not None and p.name not in names:
        p = p.parent
    return p is None


def inclusive_time(by_name: dict, names) -> float:
    """Summed duration of the named spans that have no named ancestor, so a
    named call nested in another is not counted twice."""
    names = set(names)
    return sum(s.duration for n in names for s in by_name.get(n, ()) if _outermost(s, names))


def covered_time(spans) -> float:
    """Time inside any span: the summed duration of the root spans."""
    return sum(s.duration for s in spans if s.parent is None)


def _percentile_ms(durations, q: int) -> float:
    if len(durations) < 2:
        return 1000.0 * durations[0] if durations else 0.0
    return 1000.0 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def reduce_metrics(tracer: Tracer, metric_spans: dict, table=None):
    """Per-layer metric values from the recorded spans; returns (metrics, notes)."""
    table = HOOK_TABLE if table is None else table
    by_name = _by_name(tracer.spans)
    join_names = metric_spans.get(JOIN_METRIC)
    joins = sum(len(by_name.get(n, ())) for n in join_names or ())
    out, notes = {}, []
    for metric, names in metric_spans.items():
        reducer = table[metric][1]
        if metric in tracer.broken:
            notes.append(f"{metric} absent: measure failed at {tracer.broken[metric]}")
            continue
        if reducer == "per_join" and join_names is None:
            notes.append(f"{metric} absent: {JOIN_METRIC} is absent")
            continue
        mine = [s for n in dict.fromkeys(names) for s in by_name.get(n, ())]
        values = [s.values[metric] for s in mine if metric in s.values]
        if reducer == "inclusive":
            out[metric] = inclusive_time(by_name, names)
        elif reducer == "self":
            out[metric] = sum(s.self_s for s in mine)
        elif reducer == "calls":
            out[metric] = len(mine)
        elif reducer == "sum":
            out[metric] = sum(values)
        elif reducer == "mean":
            out[metric] = sum(values) / len(values) if values else 0.0
        elif reducer == "per_join":
            work = sum(values) if table[metric][3] is not None else len(mine)
            out[metric] = work / joins if joins else 0.0
        elif reducer in ("p50_ms", "p90_ms"):
            out[metric] = _percentile_ms([s.duration for s in mine], int(reducer[1:3]))
        else:
            raise ValueError(f"unknown reducer {reducer!r} for {metric}")
    return out, notes


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    out = {}
    for name, group in _by_name(spans).items():
        out[name] = {
            "calls": len(group),
            "inclusive_s": inclusive_time({name: group}, {name}),
            "self_s": sum(s.self_s for s in group),
        }
    return out


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py SUMMARY.json -- <motifmine CLI arguments>", file=sys.stderr)
        return 2
    summary_path, cli_args = argv[0], argv[2:] + ["--workers", "1"]
    tracer = Tracer()
    metric_spans, notes = install(tracer)
    from motifmine import cli

    rc = cli.main(cli_args)
    metrics, reduce_notes = reduce_metrics(tracer, metric_spans)
    doc = {
        "rc": rc,
        "notes": notes + reduce_notes,
        "metrics": metrics,
        "covered_s": covered_time(tracer.spans),
        "spans": summarize(tracer.spans),
    }
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
