#!/usr/bin/env python3
"""motifmine benchmark: one workload, end-to-end metrics or a traced run.

    python3 bench/run_bench.py --workload city --seed 42 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is taken from the
checkout's `src/` (nothing needs installing). Workloads are defined in
`workloads.py`; the world for (workload, seed) is generated once and cached
under bench/_work/worlds, outside every timed region.

--trace 0 times child processes of the real CLI (`python -m motifmine.cli
<stage> ... --workers 1`) for `wall_s`, in turn with fresh children that
import the package and load the parcels for `setup_s`, until --seconds is
spent (at least MIN_REPEATS stage runs and SETUP_SAMPLES setups). The
harness and its children are pinned to one CPU, and each child's wall time
is scaled by the speed a probe measures on that CPU while the child runs
(SpeedProbe), so that a shared host's contention drops out of the timings.
--trace 1 alternates untraced CLI children with traced ones (tracing.py)
and reports the per-layer metrics. Every child's artifacts go through the
correctness gate (gate.py) and must be byte-identical across repeats,
traced or not.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. The lines before it give each metric with its sample count and
quartiles, the failure ratio, notes and the run context; the same report is
written to bench/_work/results/BENCH_<workload>_seed<seed>_trace<0|1>.json.
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

SETUP_SAMPLES = 3
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 150.0

# The speed probe: PROBE_LOOPS turns of a dict loop every PROBE_PERIOD_S,
# about 3% of the pinned CPU. REF_PROBE_S is the probe's reference CPU time:
# a child's reference time is its wall time x REF_PROBE_S / the probe's mean
# CPU time while it ran. On a 2-vCPU KVM guest (Xeon, AVX-512) the probe
# takes 0.25-0.45 ms, by how busy other tenants keep the host core.
PROBE_PERIOD_S = 0.01
PROBE_LOOPS = 1500
REF_PROBE_S = 3.0e-4

SETUP_CODE = (
    "import sys, motifmine\n"
    "from motifmine import parcels\n"
    "parcels.load_parcels(sys.argv[1])\n"
    "print(motifmine.__file__)\n"
)


@dataclass
class Child:
    """One child process: what it was, how long it took, what went wrong."""

    kind: str  # setup | run | traced
    wall_s: float
    rc: int
    maxrss_mib: float
    probe_s: float  # mean probe CPU time while the child ran
    failures: list = field(default_factory=list)

    @property
    def ref_s(self) -> float:
        """Wall time at the probe's reference speed."""
        return self.wall_s * REF_PROBE_S / self.probe_s


def probe_work(loops: int = PROBE_LOOPS) -> int:
    """A fixed piece of interpreter work: small-int dict stores and lookups,
    the kind of work the package's pure-Python inner loops do."""
    table = {}
    acc = 0
    for i in range(loops):
        table[i & 255] = i * 3
        acc += table.get((i * 7) & 255, 1) % 13
    return acc


class SpeedProbe:
    """Times probe_work on this thread's CPU while a child runs.

    On a shared host the CPU's speed flips between states within a second,
    as other tenants load the physical core, and the share of slow time
    drifts over minutes; the program's CPU time moves with it. The child and
    the probe share one pinned CPU, so the probe's mean CPU time per sample
    tracks the slowdown the child saw over the same interval. CPU time (not
    wall time) is used so that the child taking the CPU from the probe does
    not count as a slower CPU.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            start = time.thread_time()
            probe_work()
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(kind: str, argv: list, log_path: Path) -> Child:
    """Run argv to completion; wall time, the probe's speed over that time and
    the child's own peak RSS."""
    with open(log_path, "wb") as log, SpeedProbe() as probe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        exited = False
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = bool(select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0])
            finally:
                os.close(pidfd)
        finally:
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(kind, wall, proc.returncode, usage.ru_maxrss / 1024.0, probe.mean_s)
    if not exited:
        child.failures.append(f"{kind}: killed after {CHILD_TIMEOUT_S:.0f} s")
    elif proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-400:]
        child.failures.append(f"{kind}: exit {proc.returncode}: {tail.strip()}")
    return child


def quartiles(values) -> dict:
    values = list(values)
    out = {"n": len(values), "median": statistics.median(values) if values else None}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


class Session:
    """One benchmark run over one world, with its children and run directory."""

    def __init__(self, world, gate, seconds: int, run_dir: Path):
        self.world = world
        self.gate = gate
        self.deadline = time.perf_counter() + seconds
        self.run_dir = run_dir
        self.children = []
        self.reference = None  # artifact digests of the first successful run
        self.bytes_out = None

    def _next(self, kind: str) -> Path:
        return self.run_dir / f"{len(self.children):03d}-{kind}"

    def setup(self) -> Child:
        base = self._next("setup")
        child = run_child("setup", [sys.executable, "-c", SETUP_CODE, str(self.world.parcels)],
                          base.with_suffix(".log"))
        if child.rc == 0:
            imported = Path(base.with_suffix(".log").read_text(encoding="utf-8").strip())
            if SRC.resolve() not in imported.resolve().parents:
                child.failures.append(f"setup imported motifmine from {imported}, not {SRC}")
        self.children.append(child)
        return child

    def stage(self, traced: bool) -> tuple:
        """One CLI run of the workload's stage; returns (child, trace summary or None)."""
        kind = "traced" if traced else "run"
        base = self._next(kind)
        out = base / "out"
        cli_args = self.world.cli_args(out)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(base / "trace.json"), "--"]
        else:
            argv = [sys.executable, "-m", "motifmine.cli"]
        base.mkdir(parents=True)
        child = run_child(kind, argv + cli_args, base / "log.txt")
        summary = None
        if child.rc == 0:
            child.failures += [f"{kind}: {f}" for f in self.gate.check_run(self.world, out)]
            digests = self.gate.artifact_digests(out)
            if self.reference is None and not child.failures:
                self.reference = digests
                self.bytes_out = output_bytes(out)
            elif self.reference is not None:
                child.failures += self.gate.check_identical(self.reference, digests, kind)
            if traced:
                summary = json.loads((base / "trace.json").read_text(encoding="utf-8"))
        shutil.rmtree(base, ignore_errors=True)
        self.children.append(child)
        return child, summary

    def time_left(self, next_cost: float) -> bool:
        return time.perf_counter() + next_cost <= self.deadline


def measure_end_to_end(session: Session, lines: int) -> tuple:
    """A setup sample and a stage repeat in turn until the time is spent;
    returns (metrics, sample statistics). Times are reference times
    (Child.ref_s); the raw wall times are kept in the statistics."""
    setups, runs = [], []
    while True:
        setups.append(session.setup())
        child, _ = session.stage(traced=False)
        runs.append(child)
        if len(runs) >= MIN_REPEATS and not session.time_left(setups[-1].wall_s + child.wall_s):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(session.setup())
    ok = [c for c in runs if not c.failures] or runs
    stats = {
        "setup_s": quartiles(c.ref_s for c in setups),
        "wall_s": quartiles(c.ref_s for c in ok),
        "peak_rss_mb": quartiles(c.maxrss_mib for c in ok),
        "raw_setup_s": quartiles(c.wall_s for c in setups),
        "raw_wall_s": quartiles(c.wall_s for c in ok),
        "probe_ms": quartiles(1e3 * c.probe_s for c in setups + ok),
    }
    stats["records_per_s"] = quartiles(lines / c.ref_s for c in ok)
    metrics = {
        "wall_s": (stats["wall_s"]["median"], "s"),
        "records_per_s": (lines / stats["wall_s"]["median"], "records/s"),
        "setup_s": (stats["setup_s"]["median"], "s"),
        "peak_rss_mb": (stats["peak_rss_mb"]["median"], "MiB"),
    }
    return metrics, stats


def measure_per_layer(session: Session, units: dict) -> tuple:
    """Untraced and traced stage runs in turn until the time is spent;
    returns (metrics, sample statistics, notes)."""
    plain, traced, summaries = [], [], []
    while True:
        child, _ = session.stage(traced=False)
        plain.append(child)
        child, summary = session.stage(traced=True)
        traced.append(child)
        if summary is not None:
            summaries.append((child, summary))
        if not session.time_left(plain[-1].wall_s + traced[-1].wall_s):
            break
    notes = sorted({n for _, s in summaries for n in s["notes"]})
    metrics, stats = {}, {}
    if not summaries:
        return metrics, stats, notes + ["no traced run finished; per-layer metrics absent"]
    for name in summaries[0][1]["metrics"]:
        values = [s["metrics"][name] for _, s in summaries if name in s["metrics"]]
        stats[name] = quartiles(values)
        metrics[name] = (stats[name]["median"], units[name])
        if units[name] == "count" and len(set(values)) > 1:  # counts must repeat exactly
            summaries[-1][0].failures.append(f"{name} differs between traced runs: {values}")
    untraced = statistics.median(c.ref_s for c in plain)
    traced_wall = statistics.median(c.ref_s for c, _ in summaries)
    uncovered = [c.wall_s - s["covered_s"] for c, s in summaries]
    stats["pipeline.unattributed_s"] = quartiles(uncovered)
    stats["traced_wall_s"] = quartiles(c.wall_s for c, _ in summaries)
    stats["untraced_wall_s"] = quartiles(c.wall_s for c in plain)
    metrics["pipeline.trace_overhead_s"] = (traced_wall - untraced, "s")
    metrics["pipeline.unattributed_s"] = (statistics.median(uncovered), "s")
    if session.bytes_out is not None:
        metrics["pipeline.output_bytes"] = (session.bytes_out, "bytes")
    else:
        notes.append("pipeline.output_bytes absent: no run passed the gate")
    stats["spans"] = summaries[-1][1]["spans"]
    return metrics, stats, notes


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "motifmine").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def version_of(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_context(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": version_of("numpy"),
        "scipy": version_of("scipy"),
        "workers": 1,
        "cpu": sorted(os.sched_getaffinity(0)),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so `finally` blocks kill and reap the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "motifmine" / "__init__.py").is_file():
        print(f"error: no motifmine package under {SRC}; run from a motifmine checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gate
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # one CPU for the harness, its probe thread and every child: the probe
    # must see the CPU the child runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    context = run_context(args)
    world = workloads.ensure_world(args.workload, args.seed)
    lines = world.records.read_bytes().count(b"\n")

    run_dir = WORK_DIR / "runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    session = Session(world, gate, args.seconds, run_dir)
    try:
        if args.trace:
            units = {name: row[0] for name, row in tracing.HOOK_TABLE.items()}
            metrics, stats, notes = measure_per_layer(session, units)
        else:
            metrics, stats = measure_end_to_end(session, lines)
            notes = []
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    children = session.children
    failed = sum(1 for c in children if c.failures)
    context["samples"] = {kind: sum(1 for c in children if c.kind == kind)
                          for kind in ("setup", "run", "traced")}
    context["input_lines"] = lines
    report = {
        "context": context,
        "fail_ratio": {"value": failed / len(children), "unit": "ratio",
                       "failed": failed, "attempted": len(children)},
        "samples": stats,
        "failures": [f for c in children for f in c.failures],
        "notes": notes,
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    report_path = results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} stage={world.stage} "
          f"trace={args.trace} report={report_path}")
    print(f"context {json.dumps(context, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        s = stats.get(name, {})
        spread = f" n={s['n']} q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
        print(f"  {name:32s} {value:.6g} {unit}{spread}")
    for name, unit in (("raw_wall_s", "s"), ("raw_setup_s", "s"), ("probe_ms", "ms")):
        if name in stats:
            s = stats[name]
            spread = f" q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
            print(f"  {name:32s} {s['median']:.6g} {unit} n={s['n']}{spread} (not a metric)")
    print(f"  {'fail_ratio':32s} {report['fail_ratio']['value']:.6g} ratio "
          f"({failed}/{len(children)})")
    for line in report["failures"] + notes:
        print(f"  ! {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(children),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
