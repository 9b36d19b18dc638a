#!/usr/bin/env python3
"""Repo benchmark: builds the workload driver, runs a workload, checks it and
prints its metrics (perfbench/README.md).

One workload, as the benchmark contract runs it (the last stdout line is the
result object):

    python3 perfbench/run.py --workload tower-converge --seed 7 --seconds 38 --trace 0

Every workload, untraced and traced, with the full metric tables:

    python3 perfbench/run.py --all --seed 7 --seconds 38

Run from the repository root or anywhere else; the build goes to
.bench_build/perfbench under the repository root.
"""

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "perfbench-traces")
RECORDED = os.path.join(HERE, "recorded.json")

# Per-process wall limit the benchmark promises; the build is excluded.
PROCESS_LIMIT_S = 170.0

# BENCHMARK.json lists all but blob-giant: four workloads do not fit the
# benchmark's time limit at its run length, and blob-giant's run time swung
# the most after tower-converge's (README.md). It stays runnable by name and
# in --all.
WORKLOADS = ["tower-converge", "blob-giant", "sweep-mixed", "shard-blob"]

# Spans the driver opens around its calls into each layer. The shard engine
# adds its own per-window spans on every worker thread.
LAYER_SPANS = ["lattice.generate", "lattice.validate", "motion.rule_library",
               "core.session_build", "core.start"]
REQUIRED_SPANS = {
    "tower-converge": LAYER_SPANS + ["sim.slice"],
    "blob-giant": LAYER_SPANS + ["sim.slice"],
    "sweep-mixed": LAYER_SPANS + ["runner.grid"],
    "shard-blob": ["window", "fold", "integrate", "decide", "drain"],
}
# Spans checked on the driver's own thread for shard-blob.
SHARD_DRIVER_SPANS = LAYER_SPANS + ["sim.run"]

MESSAGE_KINDS = ["Activate", "Ack", "SonNotify", "Select", "ElectedAck",
                 "MoveDone"]

# Counts that must repeat exactly for a seed (and equal recorded.json).
RECORDED_FIELDS = ["hops", "messages_sent", "sim_ticks", "events"]
# Counts compared between every cycle of one process, traced or not.
COMPARED_FIELDS = RECORDED_FIELDS + [
    "complete", "blocked", "repositioning_hops", "elementary_moves",
    "distance_computations",
    "elections_completed", "iterations", "election_restarts",
    "messages_delivered", "messages_dropped", "conn_fast_hits",
    "conn_slow_floods", "messages_by_kind", "events_by_kind", "shard_events"]

SWEEP_RUNS = 80  # 5 scenarios x 16 seeds (driver.cpp)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    """Configures (once) and builds the driver; returns its directory."""
    for needed in ("src/CMakeLists.txt", "tools/trace_check.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise RuntimeError(f"{needed} is missing: run from a full checkout")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake is not on PATH")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return BUILD


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with at least 10 samples beyond it, as
    (label, value); None when there are fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return f"p{100.0 * (n - 10) / n:.1f}", ordered[n - 11]


def percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)  # shard-blob traces are read twice
def span_durations(trace_path):
    """{span name: [duration seconds, ...]} and {name: set(tids)} from a
    Chrome trace of B/E pairs."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    open_spans = {}
    durations = {}
    threads = {}
    for e in events:
        key = (e["pid"], e["tid"])
        if e["ph"] == "B":
            open_spans.setdefault(key, []).append((e["name"], e["ts"]))
            threads.setdefault(e["name"], set()).add(key)
        elif e["ph"] == "E":
            name, ts = open_spans[key].pop()
            durations.setdefault(name, []).append((e["ts"] - ts) * 1e-6)
    return durations, threads


def check_trace(tools, workload, cycle):
    """Runs tools/trace_check on the cycle's trace; returns a failure string
    or ''."""
    path = cycle["trace_file"]
    if cycle.get("trace_dropped", 0) != 0:
        return f"{path}: {cycle['trace_dropped']} trace events dropped"
    proc = subprocess.run(
        [os.path.join(tools, "trace_check"), path, "--require-spans",
         ",".join(REQUIRED_SPANS[workload])],
        capture_output=True, text=True)
    log(proc.stdout.strip() or proc.stderr.strip())
    if proc.returncode != 0:
        return f"trace_check failed on {path}: {proc.stderr.strip()}"
    if workload == "shard-blob":
        _, threads = span_durations(path)
        missing = [s for s in SHARD_DRIVER_SPANS if s not in threads]
        if missing:
            return f"{path}: driver spans missing: {missing}"
    return ""


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def load_recorded(workload, seed):
    with open(RECORDED) as f:
        recorded = json.load(f)[workload]
    if "all_seeds" in recorded:
        return recorded["all_seeds"]
    return recorded["seeds"].get(str(seed))


def sweep_keys(cycle):
    # hops, messages_sent, sim_ticks, events of every run (wall dropped).
    return [run[:4] for run in cycle["runs"]]


def judge(workload, seed, result, tools):
    """Returns (attempted, failed, messages). A session workload attempts
    one run per cycle; sweep-mixed attempts SWEEP_RUNS per cycle, and a
    problem with one of its runs fails that run only."""
    cycles = result["cycles"]
    recorded = load_recorded(workload, seed)
    reference = cycles[0]
    runs_per_cycle = SWEEP_RUNS if workload == "sweep-mixed" else 1
    attempted = failed = 0
    messages = []
    for k, cycle in enumerate(cycles):
        whole = list(cycle["failures"])  # problems that fail the whole cycle
        counters = cycle["counters"]
        for field in COMPARED_FIELDS:
            if counters.get(field) != reference["counters"].get(field):
                whole.append(f"{field} differs from cycle 0")
        if workload != "sweep-mixed" and recorded is not None:
            for field in RECORDED_FIELDS:
                if counters[field] != recorded[field]:
                    whole.append(f"{field} {counters[field]} != recorded "
                                 f"{recorded[field]}")
        if cycle["kind"] == "traced":
            failure = check_trace(tools, workload, cycle)
            if failure:
                whole.append(failure)

        slices = len(cycle.get("slice_s", []))
        if cycle["kind"] == "plain" and slices != len(reference.get(
                "slice_s", [])):
            whole.append(f"{slices} timing slices, cycle 0 had "
                         f"{len(reference['slice_s'])}")

        bad_runs = {}  # sweep run index -> message
        for index, message in cycle.get("run_failures", []):
            bad_runs[index] = message
        if workload == "sweep-mixed":
            keys = sweep_keys(cycle)
            for i, (got, first) in enumerate(zip(keys,
                                                 sweep_keys(reference))):
                if got != first:
                    bad_runs[i] = f"counts {got} differ from cycle 0 {first}"
            if recorded is not None:
                for i, (got, want) in enumerate(zip(keys, recorded["runs"])):
                    if got != want:
                        bad_runs[i] = f"counts {got} != recorded {want}"

        attempted += runs_per_cycle
        failed += runs_per_cycle if whole else len(bad_runs)
        messages += [f"cycle {k}: {m}" for m in whole]
        messages += [f"cycle {k} run {i}: {m}" for i, m in bad_runs.items()]
    return attempted, failed, messages


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class Metrics:
    """Ordered metric table: name -> (unit, samples, reported value)."""

    def __init__(self):
        self.rows = {}

    def add(self, name, unit, samples, value=None):
        samples = [float(s) for s in samples]
        if value is None:
            value = median(samples)
        self.rows[name] = (unit, samples, float(value))

    def result(self):
        return {name: {"value": value, "unit": unit}
                for name, (unit, _, value) in self.rows.items()}

    def print_table(self, title):
        print(f"== {title}")
        print(f"{'metric':42} {'unit':>6} {'n':>4} {'value':>14} "
              f"{'tail':>22}")
        for name, (unit, samples, value) in self.rows.items():
            t = tail(samples)
            tail_text = f"{t[0]}={t[1]:.6g}" if t else "-"
            print(f"{name:42} {unit:>6} {len(samples):>4} {value:>14.6g} "
                  f"{tail_text:>22}")


def of_kind(cycles, kind):
    return [c for c in cycles if c["kind"] == kind and not c["warmup"]]


def sliced_total(cycles, key):
    """Sum over a run's timing slices of each slice's median over the
    cycles. The host's other guests slow a cycle down for stretches shorter
    than the cycle; a per-slice median drops such a stretch unless it hit
    most cycles at the same slice."""
    return sum(median(times) for times in zip(*(c[key] for c in cycles)))


def end_to_end(workload, result):
    cycles = of_kind(result["cycles"], "plain")
    m = Metrics()
    m.add("setup_s", "s", [s for c in cycles for s in c["setup_samples"]])
    if workload == "sweep-mixed":
        # Mean over the grid's runs of each run's median wall over the
        # grids; runs per second of run_grid.
        walls = [[r[4] for r in c["runs"]] for c in cycles]
        m.add("run_s", "s", [sum(w) / len(w) for w in walls],
              sum(median(w) for w in zip(*walls)) / len(walls[0]))
        m.add("cpu_s", "s", [c["cpu_s"] for c in cycles])
        m.add("runs_per_s", "1/s", [len(c["runs"]) / c["grid_s"]
                                    for c in cycles])
    elif cycles[0].get("slice_s"):
        run_s = sliced_total(cycles, "slice_s")
        m.add("run_s", "s", [c["run_s"] for c in cycles], run_s)
        m.add("cpu_s", "s", [c["cpu_s"] for c in cycles],
              sliced_total(cycles, "slice_cpu_s"))
        m.add("runs_per_s", "1/s", [1.0 / (c["setup_s"] + c["run_s"])
                                    for c in cycles],
              1.0 / (median([c["setup_s"] for c in cycles]) + run_s))
    else:
        m.add("run_s", "s", [c["run_s"] for c in cycles])
        m.add("cpu_s", "s", [c["cpu_s"] for c in cycles])
        m.add("runs_per_s", "1/s", [1.0 / (c["setup_s"] + c["run_s"])
                                    for c in cycles])
    m.add("peak_rss_mb", "MB", [result["peak_rss_mb"]])
    m.add("messages_sent", "count",
          [c["counters"]["messages_sent"] for c in cycles])
    return m


def per_layer(workload, result):
    cycles = result["cycles"]
    traced = of_kind(cycles, "traced")
    plain = of_kind(cycles, "plain")
    parallel = of_kind(cycles, "parallel")
    spans = [span_durations(c["trace_file"])[0] for c in traced]

    def span_mean(name):
        # Mean seconds per call in each traced cycle, median over cycles.
        return [sum(s[name]) / len(s[name]) for s in spans if s.get(name)]

    def counter(field):
        return [c["counters"][field] for c in traced]

    m = Metrics()
    m.add("lattice.generate_s", "s", span_mean("lattice.generate"))
    m.add("lattice.validate_s", "s", span_mean("lattice.validate"))
    m.add("lattice.conn_fast_hits", "count", counter("conn_fast_hits"))
    m.add("lattice.conn_slow_floods", "count", counter("conn_slow_floods"))
    m.add("lattice.conn_fast_rate", "ratio", [
        c["counters"]["conn_fast_hits"] /
        max(1, c["counters"]["conn_fast_hits"] +
            c["counters"]["conn_slow_floods"]) for c in traced])
    m.add("motion.rule_library_s", "s", span_mean("motion.rule_library"))
    m.add("core.session_build_s", "s", span_mean("core.session_build"))
    m.add("core.start_s", "s", span_mean("core.start"))
    for field in ["distance_computations", "elections_completed",
                  "iterations", "hops", "repositioning_hops",
                  "election_restarts"]:
        m.add(f"core.{field}", "count", counter(field))

    # Simulated work and its rate over the traced run phase.
    m.add("sim.events", "count", counter("events"))
    m.add("sim.ticks", "ticks", counter("sim_ticks"))
    if workload == "sweep-mixed":
        rates = [c["counters"]["events"] / sum(r[4] for r in c["runs"])
                 for c in traced]
    else:
        rates = [c["counters"]["events"] /
                 sum(s.get("sim.slice", []) + s.get("sim.run", []))
                 for c, s in zip(traced, spans)]
    m.add("sim.events_per_s", "1/s", rates)
    slices = []
    for c, s in zip(traced, spans):
        counts = c.get("slice_events", [])
        full = max(counts, default=0)
        slices += [d * 1e3 for d, n in zip(s.get("sim.slice", []), counts)
                   if n == full]
    m.add("sim.slice_ms_p50", "ms", slices, percentile(slices, 50))
    m.add("sim.slice_ms_p95", "ms", slices, percentile(slices, 95))

    # Shard-engine phase totals (zero off the shard engine).
    phases = [c.get("phases", {}) for c in traced]
    for phase in ["fold", "integrate", "decide", "drain", "barrier_wait"]:
        m.add(f"sim.shard.{phase}_s", "s",
              [p.get(f"{phase}_s", 0.0) for p in phases])
    m.add("sim.shard.barrier_wait_fraction", "ratio",
          [p.get("barrier_wait_fraction", 0.0) for p in phases])
    imbalance = []
    for c in traced:
        shard_events = c["counters"]["shard_events"]
        total = sum(shard_events)
        imbalance.append(max(shard_events) * len(shard_events) / total
                         if total else 0.0)
    m.add("sim.shard.imbalance", "ratio", imbalance)
    # The same run on min(4, nproc) shard threads (untraced): its speed-up
    # over the one-thread plain cycles and its barrier share.
    par_run = [c["run_s"] for c in parallel]
    m.add("sim.shard.parallel_run_s", "s", par_run)
    m.add("sim.shard.parallel_speedup", "ratio", par_run,
          median([c["run_s"] for c in plain]) / median(par_run)
          if par_run else 0.0)
    m.add("sim.shard.parallel_barrier_wait_fraction", "ratio",
          [c["phases"]["barrier_wait_fraction"] for c in parallel])

    m.add("msg.sent", "count", counter("messages_sent"))
    m.add("msg.delivered", "count", counter("messages_delivered"))
    m.add("msg.dropped", "count", counter("messages_dropped"))
    m.add("msg.sent_per_event", "ratio",
          [c["counters"]["messages_sent"] / c["counters"]["events"]
           for c in traced])
    for kind in MESSAGE_KINDS:
        m.add(f"msg.kind.{kind}", "count",
              [c["counters"]["messages_by_kind"].get(kind, 0)
               for c in traced])

    grid_s, wall_p50, wall_tail, busy = [], [], [], []
    if workload == "sweep-mixed":
        for c, s in zip(traced, spans):
            walls = [r[4] for r in c["runs"]]
            grid_s += s["runner.grid"]
            wall_p50.append(median(walls))
            wall_tail.append(tail(walls)[1])
            busy.append(sum(walls) / (c["threads"] * s["runner.grid"][0]))
    m.add("runner.grid_s", "s", grid_s)
    m.add("runner.run_wall_p50", "s", wall_p50)
    m.add("runner.run_wall_tail", "s", wall_tail)
    m.add("runner.pool_busy_fraction", "ratio", busy)

    m.add("proc.cpu_s", "s", [c["cpu_s"] for c in traced])
    m.add("proc.peak_rss_mb", "MB", [result["peak_rss_mb"]])
    run_key = "grid_s" if workload == "sweep-mixed" else "run_s"
    overhead = (median([c[run_key] for c in traced]) /
                median([c[run_key] for c in plain]) - 1.0)
    m.add("trace.overhead_frac", "ratio", [overhead])
    return m


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_workload(tools, workload, seed, seconds, trace, deadline):
    command = [os.path.join(tools, "perfbench_driver"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        trace_dir = os.path.join(TRACES, workload)
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        command += ["--trace-dir", trace_dir]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(tools, workload, seed, seconds, trace, deadline):
    """Runs one workload; returns (Metrics, attempted, failed)."""
    result = run_workload(tools, workload, seed, seconds, trace, deadline)
    attempted, failed, messages = judge(workload, seed, result, tools)
    for message in messages:
        log(f"FAILED {workload}: {message}")
    metrics = (per_layer if trace else end_to_end)(workload, result)
    counts = result["cycles"][0]["counters"]
    log(f"{workload} seed {seed}: " + ", ".join(
        f"{field}={counts[field]}" for field in RECORDED_FIELDS))
    return metrics, attempted, failed


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0x5eed)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    seed = args.seed % (1 << 63)

    try:
        tools = build()
    except (RuntimeError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 1

    print(f"cpu: {cpu_model()}  nproc: {os.cpu_count()}  seed: {seed}")
    jobs = ([(w, t) for w in WORKLOADS for t in (False, True)] if args.all
            else [(args.workload, bool(args.trace))])
    deadline = time.monotonic() + PROCESS_LIMIT_S * len(jobs)
    attempted = failed = 0
    metrics = {}
    try:
        for workload, trace in jobs:
            table, a, f = measure(tools, workload, seed, args.seconds, trace,
                                  deadline)
            attempted += a
            failed += f
            mode = "traced, per layer" if trace else "end to end"
            table.print_table(f"{workload} ({mode})")
            prefix = f"{workload}/" if args.all else ""
            for name, value in table.result().items():
                metrics[prefix + name] = value
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        return 1

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
