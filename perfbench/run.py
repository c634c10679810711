#!/usr/bin/env python3
"""End-to-end walk benchmark for the `fmwalk` CLI.

Runs one workload in a closed loop -- one client, one job at a time,
each job a fresh `fmwalk walk` process -- checks every job's output,
and prints each metric by name with its unit.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones declared in
BENCHMARK.json; with `--trace 1` they are the per-layer ones, taken from
outside the program: `fmprobe` (perfbench/probe) times the public calls
into each layer and reads the counters the library returns, and the
traced jobs add `fmwalk walk --metrics` stage totals.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload deepwalk-paths --seed 1 --seconds 20 --trace 0

`--seed` sets the walk seed of every job.  The graphs are generated
once per scale from a fixed generator seed into .bench_cache/, so the
spread between seeds measures the program rather than the graph
instance.  `--scale test` runs the same workloads on test-size graphs
in seconds (the smoke mode perfbench/test_bench.py uses).  The binaries
are built into $CARGO_TARGET_DIR (default .bench_build/).
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".bench_cache"
MIB = 1 << 20

# Analog recipe after fm_graph::presets (PaperGraph::YahooWeb): vertex
# count, target mean degree, degree range.
GRAPHS = {
    "yh": {"n": 3_000_000, "avg": 9.2, "dmin": 1, "dmax": 12_000},
}

# Generator seed of the analog, at every scale.
GRAPH_SEED = 1

# Vertex and walker factor of `--scale test` (fm_graph's AnalogScale::Test).
TEST_FACTOR = 0.004

WORKLOADS = {
    "deepwalk-paths": {
        "graph": "yh", "disk": False, "node2vec": None,
        "walkers": 500_000, "steps": 20, "threads": 2, "output": "paths",
    },
    "oocore-deepwalk": {
        "graph": "yh", "disk": True, "node2vec": None, "budget": 32 * MIB,
        "walkers": 500_000, "steps": 10, "threads": 1, "output": "visits",
    },
    "oocore-node2vec": {
        "graph": "yh", "disk": True, "node2vec": (2.0, 0.5), "budget": 32 * MIB,
        "walkers": 150_000, "steps": 8, "threads": 1, "output": "visits",
    },
}

SETUP_REPS = 7  # probe set-ups per run; setup_s is their median
MIN_JOBS = 3  # timed jobs per loop, however long they take
JOB_TIMEOUT_S = 120
PATH_SAMPLE = 8  # hops are checked on one path line in this many


def log(msg):
    print(msg, flush=True)


# ---------------------------------------------------------------- build


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    """Builds `fmwalk` and `fmprobe` from source (release)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for extra in (["-p", "fm-cli", "--bin", "fmwalk"],
                  ["--manifest-path", "perfbench/probe/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "fmwalk", release / "fmprobe"


# ---------------------------------------------------------------- inputs


def zipf_mean(dmin, dmax, alpha):
    num = den = 0.0
    for d in range(dmin, dmax + 1):
        w = d ** -alpha
        num += d * w
        den += w
    return num / den


def solve_alpha(dmin, dmax, target):
    """The zipf exponent whose truncated mean is `target` (bisection, as
    in fm_graph::presets)."""
    lo, hi = 0.2, 4.5
    target = min(max(target, dmin + 1e-6), dmax - 1e-6)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if zipf_mean(dmin, dmax, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def scaled(value, scale):
    return value if scale == "bench" else max(100, int(value * TEST_FACTOR))


def graph_inputs(fmwalk, name, disk, scale):
    """The workload's graph file, generated once per scale into the
    cache (FMG1, plus its FMDISK1 conversion for disk workloads)."""
    graph_dir = CACHE / scale / f"graphs-seed{GRAPH_SEED}"
    graph_dir.mkdir(parents=True, exist_ok=True)
    binary = graph_dir / f"{name}.bin"
    if not binary.exists():
        r = GRAPHS[name]
        n = scaled(r["n"], scale)
        dmax = max(min(r["dmax"], n // 4), r["dmin"] + 1)
        alpha = solve_alpha(r["dmin"], dmax, r["avg"])
        tmp = binary.with_suffix(".tmp")
        run_quiet([fmwalk, "synth", "power-law", tmp, "--n", n, "--alpha", repr(alpha),
                   "--min-degree", r["dmin"], "--max-degree", dmax, "--seed", GRAPH_SEED])
        tmp.rename(binary)
    if not disk:
        return binary
    fmdisk = graph_dir / f"{name}.fmdisk"
    if not fmdisk.exists():
        tmp = fmdisk.with_suffix(".tmp")
        run_quiet([fmwalk, "disk", binary, tmp])
        tmp.rename(fmdisk)
    return fmdisk


def run_quiet(cmd):
    cmd = [str(c) for c in cmd]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}: {p.stderr.strip()}")
    return p.stdout


def probe(fmprobe, *args):
    """Runs one `fmprobe` subcommand and returns its JSON object."""
    return json.loads(run_quiet([fmprobe, *args]).strip().splitlines()[-1])


def llc_bytes():
    """Size of the host's last-level cache as sysfs reports it (0 if
    unknown)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = 0
    for idx in sorted(base.glob("index*")):
        try:
            text = (idx / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * mult)
    return best


# ---------------------------------------------------------------- jobs


class Workload:
    def __init__(self, name, seed, scale, fmwalk, fmprobe):
        spec = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.spec = spec
        self.fmwalk = fmwalk
        self.fmprobe = fmprobe
        self.walkers = scaled(spec["walkers"], scale)
        self.steps = spec["steps"]
        self.budget = scaled(spec.get("budget", 0), scale)
        self.graph = graph_inputs(fmwalk, spec["graph"], spec["disk"], scale)
        # The in-memory twin of a disk graph, for checks and probes.
        self.source = self.graph.with_suffix(".bin")
        out_dir = CACHE / scale / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "paths.txt" if spec["output"] == "paths" else "visits.txt"
        self.out = out_dir / f"{name}.{suffix}"
        self.stdout = out_dir / f"{name}.stdout"
        self.metrics_file = out_dir / f"{name}.metrics.jsonl"
        self.reference = None  # digest of the first checked output

    def walk_flags(self):
        s = self.spec
        flags = ["--walkers", self.walkers, "--steps", self.steps, "--seed", self.seed,
                 "--threads", s["threads"]]
        if s["node2vec"]:
            flags += ["--node2vec", *s["node2vec"]]
        if s["output"] == "paths":
            flags.append("--paths")
        return [str(f) for f in flags]

    def job_cmd(self, traced):
        s = self.spec
        cmd = [self.fmwalk, "walk", self.graph, "--walkers", self.walkers,
               "--steps", self.steps, "--seed", self.seed, "--threads", s["threads"]]
        if s["node2vec"]:
            p, q = s["node2vec"]
            cmd += ["--algo", "node2vec", "--p", p, "--q", q]
        if s["disk"]:
            cmd += ["--oocore-budget", self.budget]
        cmd += ["--output" if s["output"] == "paths" else "--visits", self.out]
        if traced:
            cmd += ["--metrics", self.metrics_file]
        return [str(c) for c in cmd]

    def run_job(self, traced=False):
        """One closed-loop job: wall time from process start until it has
        exited with its output written, and its peak RSS."""
        for f in (self.out, self.metrics_file):
            f.unlink(missing_ok=True)
        with open(self.stdout, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(self.job_cmd(traced), stdout=sink, stderr=sink)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the job before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        job = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "exit": proc.returncode,
               "steps": None, "ns_per_step": None}
        for line in self.stdout.read_text(errors="replace").splitlines():
            parts = line.split()
            if line.startswith("walked ") and len(parts) >= 6:
                job["steps"] = int(parts[1])
                job["ns_per_step"] = float(parts[4])
        job["error"] = self.check(job)
        if traced and job["error"] is None:
            job["stages"] = read_stage_totals(self.metrics_file)
        return job

    def check(self, job):
        """Why the job's output is wrong, or None.  The first output is
        checked in full; every later one must be byte-identical to it,
        since all jobs of a run share the seed."""
        if job["exit"] != 0:
            return f"exit code {job['exit']}"
        expected = self.walkers * self.steps
        if job["steps"] != expected:
            return f"walked {job['steps']} walker-steps, expected {expected}"
        if not self.out.exists():
            return "no output file"
        if self.reference is None:
            error = check_output(self.fmprobe, self.spec["output"], self.source, self.out,
                                 self.walkers, self.steps, expected, PATH_SAMPLE, self.seed)
            if error:
                return error
            self.reference = digest(self.out)
            return None
        if digest(self.out) != self.reference:
            return "output differs from the first job's output for the same seed"
        return None

    def loop(self, seconds, traced=False):
        """Closed loop: jobs back to back for `seconds` (at least MIN_JOBS)."""
        jobs = []
        start = time.perf_counter()
        while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
            jobs.append(self.run_job(traced))
            if jobs[-1]["error"]:
                log(f"  job failed: {jobs[-1]['error']}")
        return jobs

    def setups(self, layers):
        """SETUP_REPS fresh-process set-ups; with `layers`, each also
        times relabel, plan and walker init on their own."""
        extra = ["--layers"] if layers else []
        return [probe(self.fmprobe, "setup", self.graph, *self.walk_flags(), *extra)
                for _ in range(SETUP_REPS)]

    def in_process_run(self):
        extra = ["--oocore-budget", str(self.budget)] if self.spec["disk"] else []
        return probe(self.fmprobe, "run", self.graph, *self.walk_flags(), *extra)

    def cleanup(self):
        for f in (self.out, self.stdout, self.metrics_file):
            f.unlink(missing_ok=True)


def digest(path):
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def check_output(fmprobe, kind, graph, out, walkers, steps, total, sample=1, seed=0):
    """Validates one output file with fmprobe; returns the error or None.
    Path files are checked line by line, hops on every `sample`th line."""
    if kind == "paths":
        res = probe(fmprobe, "check-paths", graph, out, "--walkers", str(walkers),
                    "--steps", str(steps), "--sample", str(sample), "--seed", str(seed))
    else:
        res = probe(fmprobe, "check-visits", graph, out, "--total", str(total))
    return None if res["ok"] else res["error"]


def read_stage_totals(path):
    """Per-stage nanosecond totals from a `fmwalk walk --metrics` file."""
    totals = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("kind") == "stage":
            totals[rec["stage"]] = rec["total_ns"]
    return totals


# ---------------------------------------------------------------- metrics


def med(values):
    return statistics.median(values)


def summary(values):
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def end_to_end(setups, jobs):
    ok = [j for j in jobs if not j["error"]]
    if not ok:
        return {}, {}
    samples = {
        "steps_per_s": [j["steps"] / j["wall_s"] for j in ok],
        "walk_ns_per_step": [j["ns_per_step"] for j in ok],
        "setup_s": [setup_seconds(s) for s in setups],
        "peak_rss_mb": [j["rss_mb"] for j in ok],
    }
    units = {"steps_per_s": "1/s", "walk_ns_per_step": "ns", "setup_s": "s",
             "peak_rss_mb": "MiB"}
    return {k: (med(v), units[k]) for k, v in samples.items()}, samples


def setup_seconds(s):
    return s["open_s"] if s["kind"] == "disk" else s["load_s"] + s["new_s"]


def per_layer(w, setups, untraced, traced, counters):
    """Per-layer metrics and the span tree they come from.  Layers a
    workload does not call report 0."""
    spec = w.spec
    mem = not spec["disk"]
    steps = w.walkers * w.steps
    sm = {k: med([s[k] for s in setups]) for k in setups[0] if k != "kind"}
    job_s = med([j["wall_s"] for j in traced])
    job_run_s = med([j["steps"] * j["ns_per_step"] * 1e-9 for j in traced])
    # Span totals of the traced jobs: busy time, summed over worker threads.
    busy = {k: med([j["stages"].get(k, 0) for j in traced]) * 1e-9
            for k in ("sample", "shuffle")}
    # The in-process walk's own wall-clock split, which nests.
    run_s = counters["wall_s"]
    walk = {"sample": counters["sample_s"], "shuffle": counters["shuffle_s"],
            "io": counters.get("read_s", 0.0)}
    untraced_job_s = med([j["wall_s"] for j in untraced])
    setup_s = sm["load_s"] + sm["new_s"] if mem else sm["open_s"]
    paths_s = counters.get("paths_s", 0.0)
    output_s = job_s - setup_s - job_run_s
    write_s = output_s - paths_s
    out_bytes = w.out.stat().st_size if w.out.exists() else 0
    # The path rows a run keeps resident (computed: walkers x (steps+1) x 4 B);
    # the out-of-core CLI records them even for visit counts.
    resident = w.walkers * (w.steps + 1) * 4 if spec["output"] == "paths" or spec["disk"] else 0

    def ooc(key):
        return counters.get(key, 0)

    pairs = ooc("pairs_scheduled") + ooc("pairs_skipped")
    m = {
        "graph.io.load_s": (sm["load_s"] if mem else 0.0, "s"),
        "graph.io.mb_per_s": (sm["file_bytes"] / MIB / sm["load_s"] if mem else 0.0, "MB/s"),
        "graph.relabel_s": (sm["relabel_s"] if mem else 0.0, "s"),
        "plan.s": (sm["plan_s"] if mem else 0.0, "s"),
        "plan.partitions": (sm["partitions"] if mem else 0, "count"),
        "plan.ps_edge_share": (sm["ps_edge_share"] if mem else 0.0, "ratio"),
        "plan.predicted_sample_ns": (sm["predicted_sample_ns"] if mem else 0.0, "ns"),
        "plan.sample_error_ratio": (
            busy["sample"] * 1e9 / steps / sm["predicted_sample_ns"] if mem else 0.0, "ratio"),
        "engine.new_s": (sm["new_s"] if mem else 0.0, "s"),
        "engine.prep_s": (sm["new_s"] - sm["relabel_s"] - sm["plan_s"] if mem else 0.0, "s"),
        "walker.init_s": (sm["init_s"] if mem else 0.0, "s"),
        "run.s": (run_s, "s"),
        "run.self_s": (run_s - sum(walk.values()), "s"),
        "shuffle.ns_per_step": (busy["shuffle"] * 1e9 / steps, "ns"),
        "shuffle.share": (walk["shuffle"] / run_s, "ratio"),
        "sample.ns_per_step": (busy["sample"] * 1e9 / steps, "ns"),
        "sample.ring_prefetches_per_step": (counters.get("prefetches", 0) / steps, "count"),
        "sample.ps_step_share": (counters.get("ps_steps", 0) / steps, "ratio"),
        "pool.idle_ratio": (counters.get("pool_idle_ratio", 0.0), "ratio"),
        "pool.epochs": (counters.get("pool_epochs", 0), "count"),
        "output.paths_s": (paths_s, "s"),
        "output.write_s": (write_s, "s"),
        "output.write_mb_per_s": (out_bytes / MIB / write_s if write_s > 0 else 0.0, "MB/s"),
        "output.bytes": (out_bytes, "B"),
        "output.resident_mb": (resident / MIB, "MiB"),
        "oocore.open_s": (0.0 if mem else sm["open_s"], "s"),
        "oocore.read_s": (walk["io"], "s"),
        "oocore.compute_s": (0.0 if mem else run_s - walk["io"], "s"),
        "trace.overhead_ratio": (job_s / untraced_job_s - 1.0, "ratio"),
        "trace.job_s": (job_s, "s"),
        "input.csr_bytes": (sm["csr_bytes"] if mem else sm["file_bytes"], "B"),
        "input.walker_bytes": (w.walkers * 4, "B"),
        "input.llc_bytes": (llc_bytes(), "B"),
        "oocore.bytes_per_step": (ooc("bytes_read") / steps, "B"),
        "oocore.partitions_read": (ooc("partitions_read"), "count"),
        "oocore.partitions_skipped": (ooc("partitions_skipped"), "count"),
        "oocore.blocks_streamed": (ooc("blocks_streamed"), "count"),
        "oocore.pair_useful_ratio": (ooc("pairs_scheduled") / pairs if pairs else 0.0, "ratio"),
        "oocore.parked_per_step": (ooc("walkers_parked") / steps, "count"),
        "oocore.peak_parked": (ooc("peak_parked"), "count"),
        "oocore.io_retries": (ooc("io_retries"), "count"),
    }

    # The span tree: the traced job, the probe's set-up (same inputs,
    # separate process), the in-process walk and the output residual.
    # Self time = span minus its children; the job's own self time is the
    # gap between its walk and the in-process one.
    spans = [
        ("job", None, job_s),
        ("setup", "job", setup_s),
        ("graph.io", "setup", m["graph.io.load_s"][0]),
        ("engine.new", "setup", m["engine.new_s"][0]),
        ("graph.relabel", "engine.new", m["graph.relabel_s"][0]),
        ("plan", "engine.new", m["plan.s"][0]),
        ("oocore.open", "setup", m["oocore.open_s"][0]),
        ("run", "job", run_s),
        ("sample", "run", walk["sample"]),
        ("shuffle", "run", walk["shuffle"]),
        ("io", "run", walk["io"]),
        ("output", "job", output_s),
        ("output.paths", "output", paths_s),
    ]
    return m, spans


def self_times(spans):
    child = {}
    for name, parent, dur in spans:
        if parent:
            child[parent] = child.get(parent, 0.0) + dur
    return {name: dur - child.get(name, 0.0) for name, _, dur in spans}


def write_trace(w, spans):
    """The composed span tree as a Chrome trace (durations in us)."""
    events, cursor = [], {}
    for name, parent, dur in spans:
        start = cursor.get(parent, 0.0)
        cursor[parent] = start + dur
        cursor[name] = start
        events.append({"name": name, "ph": "X", "pid": 1, "tid": 1,
                       "ts": start * 1e6, "dur": dur * 1e6, "args": {"parent": parent}})
    path = CACHE / f"trace-{w.name}-seed{w.seed}.json"
    path.write_text(json.dumps({"traceEvents": events}, indent=1))
    return path


# ---------------------------------------------------------------- main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "test"), default="bench")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    fmwalk, fmprobe = build()
    w = Workload(args.workload, args.seed, args.scale, fmwalk, fmprobe)
    log(f"{w.name}: {w.graph.name} ({args.scale} scale, seed {w.seed}), "
        f"{w.walkers} walkers x {w.steps} steps, {w.spec['threads']} thread(s)")

    # The set-ups also fill the page cache before the first job.
    setups = w.setups(layers=args.trace == 1)
    s = setups[0]
    log(f"  input: {s['vertices']} vertices, {s['edges']} edges, "
        f"{s.get('csr_bytes', s['file_bytes'])} B CSR, {w.walkers * 4} B walker array, "
        f"{llc_bytes()} B host LLC")
    # One untimed warm-up job: its output gets the full check and becomes
    # the reference the timed jobs must match, and it warms the page cache
    # for the output file.  It counts in `attempted` and `failed` only.
    warmup = w.run_job()
    if warmup["error"]:
        log(f"  warm-up job failed: {warmup['error']}")
    if args.trace == 0:
        jobs = w.loop(args.seconds)
        metrics, samples = end_to_end(setups, jobs)
        for name, values in samples.items():
            log(f"  {name}: {metrics[name][0]:.6g} {metrics[name][1]} ({summary(values)})")
    else:
        untraced = w.loop(args.seconds / 2)
        traced = w.loop(args.seconds / 2, traced=True)
        jobs = untraced + traced
        counters = w.in_process_run()
        ok_untraced = [j for j in untraced if not j["error"]]
        ok_traced = [j for j in traced if not j["error"]]
        metrics = {}
        if ok_untraced and ok_traced:
            metrics, spans = per_layer(w, setups, ok_untraced, ok_traced, counters)
            for name, value in self_times(spans).items():
                log(f"  self {name}: {value:.6g} s")
            log(f"  spans written to {write_trace(w, spans).relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            log(f"  {name}: {value:.6g} {unit}")
    w.cleanup()
    jobs = [warmup, *jobs]

    failed = sum(1 for j in jobs if j["error"])
    log(f"  failed_ratio: {failed / len(jobs):.6g} ({failed} of {len(jobs)} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
