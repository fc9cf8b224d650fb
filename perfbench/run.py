#!/usr/bin/env python3
"""End-to-end benchmark of the Paldia simulator.

Builds perfbench/ (the library from src/ plus the harness) into .bench_build,
checks the simulated outputs, then runs one workload for --seconds and prints
its metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload fleet-poisson --seed 0 --seconds 20 --trace 0

--trace 0 times untraced processes and reports the end-to-end metrics.
--trace 1 alternates traced and untraced processes and reports the per-layer
metrics. Every workload run is its own process with one thread. The workload
seeds are --poisson-seed, --azure-seed and --base-seed; --seed picks a panel
of seed sets from them (panel_seeds), and the first set of --seed 0 is the
bench programs' default run. See perfbench/README.md.

Exit codes: 0 when every check passed, 1 when a check failed (the result
line says correct: false), 2 when the build or the arguments failed (no
result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("fleet-poisson", "fleet-poisson-obs", "table2-azure")
SCHEMES = ("paldia", "infless-cost", "infless-perf", "molecule-cost",
           "molecule-perf")
STREAMS = ("metrics", "decisions", "rollup", "alerts", "report")

E2E_UNITS = {
    "wall_s": "s",
    "requests_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "slo_attainment": "fraction",
    "sim_p50_ms": "sim_ms",
    "sim_p99_ms": "sim_ms",
    "usd_per_m_slo_requests": "USD",
}

# Spans named after a layer call; "<name>_s" is their summed host time.
SPAN_LAYERS = ("trace.generate", "hw.catalog", "core.build", "core.route",
               "core.arm", "core.finish", "sim.drain", "exp.extract",
               "core.teardown", "core.policy.select", "core.policy.dispatch",
               "obs.report_extract", "obs.report_analyze") + tuple(
                   "obs.export." + stream for stream in STREAMS)

LAYER_UNITS = {name + "_s": "s" for name in SPAN_LAYERS}
LAYER_UNITS.update({"core.policy.dispatch_s." + scheme: "s"
                    for scheme in SCHEMES})
LAYER_UNITS.update({"obs.bytes." + stream: "bytes" for stream in STREAMS})
LAYER_UNITS.update({
    "core.routed_requests": "count",
    "core.policy.select_calls": "count",
    "core.policy.dispatch_calls": "count",
    "sim.events": "count",
    "sim.events_per_request": "ratio",
    "sim.ns_per_event": "ns",
    "sim.drain_other_s": "s",
    "obs.capture_s": "s",
    "obs.tracer.dropped": "count",
    "perfmodel.tmax_cache_hits": "count",
    "perfmodel.tmax_cache_misses": "count",
    "perfmodel.tmax_cache_hit_rate": "fraction",
    "core.hardware_switches": "count",
    "cluster.cold_starts": "count",
    "core.unserved": "count",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_s": "s",
})

# Seed sets simulated per run. Timed processes take them in turn, and the
# simulated metrics are their medians: on these overloaded workloads one
# seed's p99 latency differs from the next seed's by up to a fifth.
PANEL = {"fleet-poisson": 12, "fleet-poisson-obs": 6, "table2-azure": 8}
PROCESS_TIMEOUT_S = 120  # one harness process; a run must end within 180 s


def log(message):
    print(message, file=sys.stderr, flush=True)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the panel of seed sets (panel_seeds)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host time to spend on timed processes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--poisson-seed", type=int, default=4,
                        help="fleet Poisson trace seed (fleet_sim default 4)")
    parser.add_argument("--azure-seed", type=int, default=1,
                        help="Azure trace seed (AzureOptions default 1)")
    parser.add_argument("--base-seed", type=int, default=0x9a1d1a,
                        help="route and run seed (Scenario default 0x9a1d1a)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed wants a non-negative integer, --seconds a "
                     "positive number")
    return args


def build(root, build_dir):
    """Configure once, then build the harness; None on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_harness", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"perfbench: {' '.join(step)}: {error}")
            return None
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return None
    harness = build_dir / "perfbench_harness"
    return harness if harness.exists() else None


class Process:
    """One finished harness process: its result line and host costs."""

    def __init__(self, result, wall_s, rss_mb, error):
        self.result = result
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.error = error
        self.ok = False  # set once Checks has seen it


def run_harness(harness, workload, mode, seeds, work_dir, spans=None):
    """Run the harness once, timing it from spawn to exit from outside."""
    work_dir.mkdir(parents=True, exist_ok=True)
    stdout_path = work_dir / "result.json"
    command = [str(harness), f"--workload={workload}", f"--mode={mode}",
               f"--poisson-seed={seeds['poisson']}",
               f"--azure-seed={seeds['azure']}",
               f"--base-seed={seeds['base']}", f"--out-dir={work_dir}"]
    if spans is not None:
        command.append(f"--spans={spans}")
    with open(stdout_path, "w", encoding="utf-8") as stdout:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(command, stdout=stdout)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        exit_ns = time.monotonic_ns()
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    error = None
    result = None
    if proc.returncode != 0:
        error = f"{workload} {mode}: harness exited with {proc.returncode}"
    else:
        try:
            lines = stdout_path.read_text(encoding="utf-8").splitlines()
            result = json.loads(lines[-1])
        except (OSError, ValueError, IndexError) as problem:
            error = f"{workload} {mode}: unreadable result: {problem}"
    return Process(result, (exit_ns - spawn_ns) * 1e-9,
                   usage.ru_maxrss / 1024.0, error)


class Checks:
    """Correctness checks over every harness process; failures are kept.

    The first process of a (workload, seed set) fixes its rows digest: the
    reference process for seed set 0, so the timed processes must reproduce
    the bench programs' rows; traced and untraced processes must agree with
    it too.
    """

    def __init__(self):
        self.failures = []
        self.digests = {}  # (workload, member) -> rows digest
        self.results = {}  # (workload, member) -> first timed result

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)

    def process(self, proc, workload, member):
        """Check one process; False when it crashed or failed a check."""
        before = len(self.failures)
        if proc.error is not None:
            self.failures.append(proc.error)
            return False
        result = proc.result
        where = f"{workload} {result['mode']} (seed set {member})"
        for failure in result["failures"]:
            self.failures.append(f"{where}: {failure}")
        key = (workload, member)
        digest = self.digests.setdefault(key, result["rows_digest"])
        self.expect(result["rows_digest"] == digest,
                    f"{where}: rows digest {result['rows_digest']} != {digest}")
        if result["mode"] == "reference":
            return len(self.failures) == before
        first = self.results.setdefault(key, result)
        self.expect(result["events"] == first["events"],
                    f"{where}: {result['events']} events, {first['events']} "
                    "in an earlier process")
        self.expect(result["samples_beyond_p99"] > 10,
                    f"{where}: only {result['samples_beyond_p99']} latency "
                    "samples beyond p99")
        return len(self.failures) == before

    def first_results(self, workload):
        return {member: result for (name, member), result in
                self.results.items() if name == workload}


def median(values):
    return statistics.median(values) if values else 0.0


def span_totals(path):
    """Per-layer host time of one traced process, from its span file."""
    spans = [json.loads(line) for line in
             path.read_text(encoding="utf-8").splitlines() if line]
    by_id = {span["id"]: span for span in spans}
    totals = {name: 0.0 for name in SPAN_LAYERS}
    totals.update({"core.policy.dispatch." + s: 0.0 for s in SCHEMES})
    calls = {"core.policy.select": 0, "core.policy.dispatch": 0}
    roots = 0.0
    drain_policy = 0.0
    for span in spans:
        seconds = span["total_ns"] * 1e-9
        name = span["name"]
        totals[name] = totals.get(name, 0.0) + seconds
        if span["parent"] < 0:
            roots += seconds
        if name in calls:
            calls[name] += span["calls"]
            if by_id[span["parent"]]["name"] == "sim.drain":
                drain_policy += seconds
        if name == "core.policy.dispatch":
            key = "core.policy.dispatch." + span["scheme"]
            totals[key] = totals.get(key, 0.0) + seconds
    return totals, calls, roots, drain_policy


def layer_metrics(traced, plain, fleet_traced, spans_dir):
    """Median per-layer metrics over the traced processes."""
    samples = {}

    def add(name, value):
        samples.setdefault(name, []).append(value)

    for index, proc in enumerate(traced):
        result = proc.result
        totals, calls, roots, drain_policy = span_totals(
            spans_dir / f"traced-{index}.spans.jsonl")
        for name in SPAN_LAYERS:
            add(name + "_s", totals[name])
        for scheme in SCHEMES:
            add("core.policy.dispatch_s." + scheme,
                totals["core.policy.dispatch." + scheme])
        add("core.policy.select_calls", calls["core.policy.select"])
        add("core.policy.dispatch_calls", calls["core.policy.dispatch"])
        add("sim.drain_other_s", totals["sim.drain"] - drain_policy)
        events = result["events"]
        add("sim.events", events)
        add("sim.events_per_request", events / max(1, result["arrivals"]))
        add("sim.ns_per_event", totals["sim.drain"] * 1e9 / max(1, events))
        add("core.routed_requests", result["arrivals"])
        add("core.hardware_switches", result["hardware_switches"])
        add("cluster.cold_starts", result["cold_starts"])
        add("core.unserved", result["unserved"])
        hits, misses = result["tmax_cache_hits"], result["tmax_cache_misses"]
        add("perfmodel.tmax_cache_hits", hits)
        add("perfmodel.tmax_cache_misses", misses)
        add("perfmodel.tmax_cache_hit_rate", hits / max(1.0, hits + misses))
        for stream in STREAMS:
            add("obs.bytes." + stream, result["stream_bytes"].get(stream, 0))
        add("obs.tracer.dropped", result["tracer_dropped"])
        add("bench.unattributed_s",
            proc.wall_s - roots - result["spans_write_s"])
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["bench.trace_overhead_s"] = (
        median([p.wall_s for p in traced]) - median([p.wall_s for p in plain]))
    # Streams on minus streams off, drain against drain of the same seeds.
    metrics["obs.capture_s"] = median([
        span_totals(spans_dir / f"traced-{i}.spans.jsonl")[0]["sim.drain"] -
        span_totals(spans_dir / f"fleet-{i}.spans.jsonl")[0]["sim.drain"]
        for i in range(len(fleet_traced))])
    return metrics


def fast_quartile(values, higher_is_faster=False):
    """The quartile of the faster processes. Interference from other tenants
    of a shared host only ever slows a process, so the faster processes
    track the program and the slower ones its neighbours."""
    if len(values) < 2:
        return values[0]
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] if higher_is_faster else quartiles[0]


def e2e_metrics(plain, members):
    """Host times: the faster quartile over the untraced processes. Memory:
    their median. Simulated metrics: medians over the seed sets, each
    simulated exactly once."""
    simulated = list(members.values())
    return {
        "wall_s": fast_quartile([p.wall_s for p in plain]),
        "requests_per_s": fast_quartile(
            [p.result["completed"] / p.wall_s for p in plain],
            higher_is_faster=True),
        "setup_s": fast_quartile([p.result["setup_s"] for p in plain]),
        "peak_rss_mb": median([p.rss_mb for p in plain]),
        "slo_attainment": median([r["paldia_compliant"] /
                                  max(1, r["paldia_routed"])
                                  for r in simulated]),
        "sim_p50_ms": median([r["sim_p50_ms"] for r in simulated]),
        "sim_p99_ms": median([r["sim_p99_ms"] for r in simulated]),
        "usd_per_m_slo_requests": median([
            r["paldia_cost_usd"] / max(1, r["paldia_compliant"]) * 1e6
            for r in simulated]),
    }


def source_digest(root):
    """sha256 over the benchmarked sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def host_descriptor(root, harness_result):
    """Identity of the host and build; results are compared only when
    every field matches."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": harness_result["compiler"],
        "build_type": harness_result["build_type"],
        "threads": 1,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def panel_seeds(args, index):
    """Workload seeds of panel member `index` for --seed. Panels of
    different --seed values are disjoint; --seed 0 starts at the defaults.

    --seed moves the seed that reshuffles a run without changing its traffic
    shape: the Poisson arrivals on the fleet (whose rate is the shape), the
    run seed on table2-azure (whose Azure trace's surges are the shape). The
    other seeds keep their given values.
    """
    offset = args.seed * PANEL[args.workload] + index
    fleet = args.workload != "table2-azure"
    return {"poisson": args.poisson_seed + (offset if fleet else 0),
            "azure": args.azure_seed,
            "base": args.base_seed + (0 if fleet else offset)}


def timed_loop(seconds, min_steps, step):
    """Call step(i) for i = 0, 1, ... until --seconds of host time are
    spent, at least min_steps times; stop before a call that would
    overrun."""
    start = time.monotonic()
    calls = 0
    while True:
        step(calls)
        calls += 1
        elapsed = time.monotonic() - start
        if calls >= min_steps and elapsed * (calls + 1) / calls > seconds:
            return


def main():
    args = parse_args()
    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build"
    harness = build(root, build_dir)
    if harness is None:
        return 2
    panel = [panel_seeds(args, i) for i in range(PANEL[args.workload])]
    work = build_dir / "runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()

    def run(workload, mode, name, member, spans=None):
        proc = run_harness(harness, workload, mode, panel[member], work / name,
                           spans)
        proc.ok = checks.process(proc, workload, member)
        # The harness measured the stream exports' sizes; drop the files.
        for stream in work.joinpath(name).glob("*.json*"):
            if stream.name != "result.json":
                stream.unlink()
        return proc

    # The bench programs' own path (exp::FleetSim::run, exp::Runner::run_once)
    # on the first panel member's inputs. Every later process of that member
    # must reproduce its rows.
    reference = run(args.workload, "reference", "reference", 0)
    fleet_reference = None
    if args.workload == "fleet-poisson-obs":
        fleet_reference = run("fleet-poisson", "reference",
                              "fleet-reference", 0)
        if reference.result and fleet_reference.result:
            checks.expect(
                reference.result["serving_digest"] ==
                fleet_reference.result["serving_digest"],
                "fleet-poisson-obs serving row differs from fleet-poisson's")

    plain, traced, fleet_traced = [], [], []

    def step(index):
        member = index % len(panel)
        plain.append(run(args.workload, "plain", f"plain-{index}", member))
        if args.trace:
            traced.append(run(args.workload, "traced", f"traced-{index}",
                              member, work / f"traced-{index}.spans.jsonl"))
        if args.trace and fleet_reference is not None:
            fleet_traced.append(run("fleet-poisson", "traced",
                                    f"fleet-{index}", member,
                                    work / f"fleet-{index}.spans.jsonl"))

    if not checks.failures:
        timed_loop(args.seconds, 2 if args.trace else len(panel), step)

    # A process that crashed or failed a check fails all of its arrivals.
    timed = plain + traced
    ok_runs = [p for p in timed if p.error is None]
    arrivals = next((p.result["arrivals"] for p in ok_runs), 1)
    attempted = sum(p.result["arrivals"] if p.error is None else arrivals
                    for p in timed) or 1
    failed = sum(p.result["unserved"] if p.ok else
                 p.result["arrivals"] if p.error is None else arrivals
                 for p in timed)
    correct = not checks.failures and bool(plain)

    for failure in checks.failures:
        log(f"CHECK FAILED: {failure}")
    print(f"workload {args.workload}: {len(plain)} untraced + {len(traced)} "
          f"traced processes over {len(panel)} seed sets")
    for member, result in sorted(checks.first_results(args.workload).items()):
        attainment = (result["paldia_compliant"] /
                      max(1, result["paldia_routed"]))
        print(f"  seeds {panel[member]}: Paldia attainment {attainment:.4%}, "
              f"p50 {result['sim_p50_ms']:.1f} ms, "
              f"p99 {result['sim_p99_ms']:.1f} ms, "
              f"cost ${result['paldia_cost_usd']:.4f}, "
              f"{result['events']} events, scheme digests "
              + json.dumps(result["scheme_digests"], sort_keys=True))
    if ok_runs:
        print("host: " + json.dumps(host_descriptor(root, ok_runs[0].result),
                                    sort_keys=True))

    metrics = {}
    if correct and args.trace:
        values = layer_metrics(traced, plain, fleet_traced, work)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        shutil.copy(work / "traced-0.spans.jsonl",
                    build_dir / "runs" / f"{args.workload}.spans.jsonl")
    elif correct:
        values = e2e_metrics(plain, checks.first_results(args.workload))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:>18.6f} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
