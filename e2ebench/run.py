#!/usr/bin/env python3
"""End-to-end benchmark of cgra-flow: compile time and mapping quality
measured together, end to end and per layer.

usage:
  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --probe          # rebuild e2ebench/pools.json

Workloads (README.md in this directory says why each exists):
  heuristic_mix  closed loop, 4 workers, heuristic and meta-heuristic jobs
  exact_mix      closed loop, 4 workers, exact ILP / B&B / CSP jobs
  serve_mix      open loop over HTTP against the shipped cgra_serve daemon

The benchmark builds the program from source (CMakeLists.txt here) into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root, draws the
workload's requests from --seed, runs them, checks every output (mapping
validation, bit-exact simulation, digests against the probe and between
runs), prints every metric by name with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics with tracing off; --trace 1 runs traced and reports the
per-layer metrics. Any failed check makes the exit code nonzero.
"""

import argparse
import concurrent.futures
import http.client
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "e2ebench")
POOLS = os.path.join(HERE, "pools.json")
NPROC = min(4, os.cpu_count() or 1)

HEURISTIC_MAPPERS = [
    "greedy-spatial", "graph-drawing", "ims", "crimson", "ultrafast", "ems",
    "ramp", "epimap", "bwd-beam", "himap", "dresc-sa", "spr-sa", "sa-spatial",
    "ga-spatial", "qea-bind"]
EXACT_MAPPERS = ["ilp-spatial", "ilp-temporal", "ilp-bind", "ilp-sched", "bnb",
                 "cp", "sat", "smt"]
CATALOG_KERNELS = [
    "dot_product", "vecadd", "saxpy", "fir4", "iir1", "mavg3", "sobel_gx",
    "sad", "butterfly", "matvec_row", "gemm_mac", "histogram8", "relu_scale",
    "maxpool_run", "mac2", "complex_mul", "alpha_blend", "dct4", "wide_dot_4",
    "wide_dot_8", "wide_dot_16"]
TINY_KERNELS = ["dot_product", "vecadd", "saxpy", "mac2", "relu_scale", "iir1",
                "mavg3", "fir4"]
# CSP instances on larger kernels that keep the CDCL/CP engines busy.
EXACT_EXTRAS = [("sat", k, "big8x8") for k in ("sobel_gx", "wide_dot_4",
                                                "alpha_blend")]
EXACT_EXTRAS += [("smt", "dct4", f) for f in ("small2x2", "adres4x4",
                                              "hetero4x4", "torus4x4",
                                              "big8x8")]
EXACT_EXTRAS += [("cp", "complex_mul", "big8x8")]
HEURISTIC_FABRICS = ["adres4x4", "hetero4x4", "torus4x4", "big8x8", "mega16x16"]
EXACT_FABRICS = ["small2x2", "adres4x4", "hetero4x4", "torus4x4", "big8x8"]
CELLS = {"small2x2": 4, "adres4x4": 16, "hetero4x4": 16, "torus4x4": 16,
         "big8x8": 64, "mega16x16": 256}
BUDGET_S = {"heuristic_mix": 2.0, "exact_mix": 5.0}
KILL_S = {"heuristic_mix": 8.0, "exact_mix": 12.0}
REQUEST_SEED = 42           # mapper seed of every pool job (probed value)
DEAD_SHARE = 0.3            # heuristic_mix jobs drawn with their dead cells
ITERATIONS = [28, 32, 36]   # kernel trip counts drawn per job
SERVE_FABRIC = "adres4x4"   # see README.md: MrrgCache keys on Architecture*
SERVE_RATE = 2000.0         # offered requests/s (about half of saturation)
SERVE_FRESH_SHARE = 0.1     # requests with a fresh seed (cache misses)
SERVE_WINDOW_MS = 50.0      # latency tail window (by due time)
SERVE_SEGMENTS = 5          # latency is reported for the calmest segment
SETUP_REPS = 9              # set-ups measured per run; the median is reported
SERVE_TRACE_REQUESTS = 10000  # per traced daemon run: keeps the span rings whole

SPANS = [
    "bench.job", "bench.parse", "bench.validate_request", "bench.fabric",
    "bench.kernel", "bench.with_faults", "bench.mrrg_build", "bench.engine",
    "bench.validate_mapping", "bench.compile", "bench.reference",
    "bench.simulate", "bench.build_response", "bench.serialize", "engine.run",
    "engine.cache_probe", "mapper", "attempt", "phase.place_route",
    "phase.schedule", "phase.bind", "solver.search", "cache.probe",
    "serve.request"]
MAPPER_CLASSES = ["heuristic", "meta_local", "meta_pop", "exact_ilp",
                  "exact_csp"]
SOLVER_OF = {"sat": "sat", "cp": "cp", "smt": "smt", "bnb": "ilp",
             "ilp-spatial": "ilp", "ilp-temporal": "ilp", "ilp-bind": "ilp",
             "ilp-sched": "ilp"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build -----------------------------------------------------------------

def build():
    """Configures and builds the runner, daemon and trace tool; returns a
    dict of binary paths. Exits nonzero when the program sources are
    missing (a checkout holding only the benchmark)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("e2ebench: no program sources next to the benchmark "
            f"({ROOT}/src); nothing to measure")
        sys.exit(3)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
                    "e2e_runner", "cgra_serve", "cgra_trace"],
                   stdout=sys.stderr, check=True)
    return {name: os.path.join(BUILD, name)
            for name in ("e2e_runner", "cgra_serve", "cgra_trace")}


# ---- statistics ------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile (p in 0..100) of a non-empty list."""
    xs = sorted(values)
    k = max(0, min(len(xs) - 1, math.ceil(p / 100.0 * len(xs)) - 1))
    return xs[k]


def tail_percentile(n):
    """Highest percentile of a fixed ladder with at least ten of `n`
    samples beyond it. The ladder stops at p99: on a shared 4-vCPU
    machine p99.9 of a sub-millisecond service measures host stalls."""
    for p in (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def windowed_tail(windows):
    """The tail of each window (its highest percentile with at least ten
    samples beyond it), then the median over windows, so that a host
    stall in a few windows does not decide the run. Returns (value,
    percentile)."""
    p = tail_percentile(min(len(w) for w in windows))
    return statistics.median(percentile(w, p) for w in windows), p


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---- requests --------------------------------------------------------------

def request(name, mapper, kernel, fabric, deadline, seed=REQUEST_SEED,
            iterations=16, dead_cells=()):
    r = {"name": name, "fabric": fabric, "kernel": kernel,
         "mappers": [mapper], "deadline_seconds": deadline, "seed": seed,
         "iterations": iterations}
    if dead_cells:
        r["dead_cells"] = list(dead_cells)
    return r


def dead_cells_for(mapper, kernel, fabric):
    """The 1-2 dead cells of a triple's faulted variant (fixed per triple,
    so the probe and every run agree)."""
    rng = random.Random(f"{mapper}/{kernel}/{fabric}")
    return sorted(rng.sample(range(CELLS[fabric]), rng.choice([1, 2])))


def write_lines(path, objects):
    with open(path, "w") as f:
        for o in objects:
            f.write(json.dumps(o, separators=(",", ":")) + "\n")


def load_pools():
    with open(POOLS) as f:
        return json.load(f)


def batch_jobs(workload, seed, pools):
    """Seeded draw over the probed pool: every eligible triple once per
    cycle, in a seeded order, each with a drawn trip count and (on
    heuristic_mix) a seeded share carrying its 1-2 dead cells. Returns
    (requests, expected verdict/digest per request)."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for i, e in enumerate(pools["pools"][workload]):
        variant = e
        if e.get("dead") and rng.random() < DEAD_SHARE:
            variant = e["dead"]
        r = request(f"{workload}-{i}", e["mapper"], e["kernel"], e["fabric"],
                    e["deadline_s"], iterations=rng.choice(ITERATIONS),
                    dead_cells=variant.get("cells", ()))
        jobs.append((r, {"verdict": variant["verdict"],
                         "digest": variant["digest"]}))
    rng.shuffle(jobs)
    return [j[0] for j in jobs], [j[1] for j in jobs]


# ---- processes -------------------------------------------------------------

def timed_ready(cmd):
    """Starts `cmd`, returns (process, seconds until it printed "ready")."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        p.kill()
        p.wait()
        raise RuntimeError(f"{cmd[0]} did not become ready")
    return p, ready


def run_runner(bins, work, requests, seconds, trace, setups=SETUP_REPS):
    """Runs the closed-loop runner; returns (output document, seconds
    until ready of each of `setups` launches, the last being the run)."""
    req_path = os.path.join(work, "requests.jsonl")
    out_path = os.path.join(work, "runner.json")
    write_lines(req_path, requests)
    base = [bins["e2e_runner"], "run", "--requests", req_path, "--workers",
            str(NPROC)]
    ready_s = []
    for _ in range(setups - 1):
        p, ready = timed_ready(base + ["--setup-only"])
        p.wait()
        ready_s.append(ready)
    cmd = base + ["--out", out_path, "--min-seconds", str(seconds)]
    if trace:
        cmd += ["--trace", os.path.join(work, "trace.json")]
    p, ready = timed_ready(cmd)
    ready_s.append(ready)
    p.stdout.read()
    if p.wait() != 0:
        raise RuntimeError(f"e2e_runner exited {p.returncode}")
    with open(out_path) as f:
        return json.load(f), ready_s


def trace_table(bins, path):
    """Per-span-name {count, total_ms, self_ms} from the built cgra_trace
    (the repository's own self-time aggregator)."""
    out = subprocess.run([bins["cgra_trace"], path], capture_output=True,
                         text=True, check=True).stdout
    table = {}
    for line in out.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 8:
            table[parts[0]] = {"count": int(parts[1]),
                               "total_ms": float(parts[2]),
                               "self_ms": float(parts[3])}
    return table


# ---- metrics ---------------------------------------------------------------

def quality(jobs):
    """mapped_frac, ii_over_mii, kernel_cycles, config_bits over job
    records (each an e2e_runner record)."""
    mapped = [j for j in jobs if j["verdict"] == "mapped"]
    with_mapping = [j for j in jobs if j["verdict"] in ("mapped",
                                                        "undeployable")]
    return {
        "mapped_frac": len(mapped) / len(jobs),
        "ii_over_mii": geomean([j["ii"] / j["mii"] for j in with_mapping])
        if with_mapping else 1.0,
        "kernel_cycles": float(sum(j["cycles"] for j in mapped)),
        "config_bits": float(sum(j["config_bits"] for j in mapped)),
    }


def span_mean(table, name, scale):
    s = table.get(name)
    return s["total_ms"] / s["count"] * scale if s and s["count"] else 0.0


def layer_metrics(jobs, table, serve_table=None):
    """Per-layer metrics from the traced cycle's records and span table.
    On serve_mix `table` is the in-process verification run (api, arch,
    sim layers) and `serve_table` the daemon's own trace (trace.*)."""
    m = {
        "api.parse_us": span_mean(table, "bench.parse", 1e3),
        "api.validate_us": span_mean(table, "bench.validate_request", 1e3),
        "api.serialize_us": span_mean(table, "bench.serialize", 1e3),
        "arch.mrrg_build_ms": span_mean(table, "bench.mrrg_build", 1.0),
        "arch.with_faults_us": span_mean(table, "bench.with_faults", 1e3),
        "ir.kernel_build_us": span_mean(table, "bench.kernel", 1e3),
        "mapping.validate_us": span_mean(table, "bench.validate_mapping", 1e3),
        "sim.compile_us": span_mean(table, "bench.compile", 1e3),
        "sim.simulate_ms": span_mean(table, "bench.simulate", 1.0),
        "sim.reference_ms": span_mean(table, "bench.reference", 1.0),
    }
    for fabric in CELLS:
        nodes = [j["mrrg_nodes"] for j in jobs
                 if j["fabric"] == fabric and j["dead_cells"] == 0]
        m[f"arch.mrrg_nodes.{fabric}"] = float(max(nodes, default=0))
    m["engine.overhead_ms"] = statistics.fmean(
        j["engine_ms"] - j["attempts_ms"] for j in jobs)
    for cls in MAPPER_CLASSES:
        of_class = [j["map_ms"] for j in jobs if j["class"] == cls]
        m[f"mappers.map_ms.{cls}"] = (statistics.fmean(of_class)
                                      if of_class else 0.0)
    m["mappers.attempts_per_job"] = statistics.fmean(j["attempts"]
                                                     for j in jobs)
    with_mapping = [j for j in jobs if j["verdict"] in ("mapped",
                                                        "undeployable")]
    m["mappers.first_ii_frac"] = (
        sum(j["first_ii_ok"] for j in with_mapping) / len(with_mapping)
        if with_mapping else 0.0)
    perf = {k: sum(j["perf"][k] for j in jobs) for k in jobs[0]["perf"]}
    queries = perf["router_queries"]
    m["mapping.router_queries"] = float(queries)
    m["mapping.routed_frac"] = perf["router_routed"] / queries if queries else 0.0
    m["mapping.pushes_per_query"] = (perf["router_pushes"] / queries
                                     if queries else 0.0)
    m["mapping.expansions_per_query"] = (perf["router_expansions"] / queries
                                         if queries else 0.0)
    m["mapping.fanout_batches"] = float(perf["fanout_batches"])
    m["mapping.tracker_checks"] = float(perf["tracker_checks"])
    m["mapping.tracker_hit_frac"] = (
        perf["tracker_check_hits"] / perf["tracker_checks"]
        if perf["tracker_checks"] else 0.0)
    steps = {s: 0 for s in ("ilp", "sat", "cp", "smt")}
    for j in jobs:
        if j["mapper"] in SOLVER_OF:
            steps[SOLVER_OF[j["mapper"]]] += j["solver_steps"]
    for s, v in steps.items():
        m[f"solver.steps.{s}"] = float(v)
    search = table.get("solver.search", {"self_ms": 0.0, "total_ms": 0.0})
    m["solver.search_self_ms"] = search["self_ms"]
    m["solver.steps_per_s"] = (sum(steps.values()) / (search["total_ms"] / 1e3)
                               if search["total_ms"] else 0.0)
    sim_ms = table.get("bench.simulate", {"total_ms": 0.0})["total_ms"]
    cycles = sum(j["cycles"] for j in jobs)
    m["sim.cycles_per_s"] = cycles / (sim_ms / 1e3) if sim_ms else 0.0
    spans = serve_table if serve_table is not None else table
    total_self = sum(s["self_ms"] for s in spans.values()) or 1.0
    for name in SPANS:
        self_ms = spans.get(name, {"self_ms": 0.0})["self_ms"]
        m[f"trace.self_ms.{name}"] = self_ms
        m[f"trace.share.{name}"] = self_ms / total_self
    return m


def check_jobs(jobs, expected):
    """Correctness gate for first-cycle records against the probe's
    verdicts and digests; returns (record, failure) pairs."""
    failures = []
    for j, e in zip(jobs, expected):
        if j["verdict"] != e["verdict"] or j["digest"] != e["digest"]:
            failures.append((j, f"{j['name']}: {j['verdict']} {j['digest']} "
                                f"but the probe recorded {e['verdict']} "
                                f"{e['digest']}"))
    return failures


# ---- batch workloads -------------------------------------------------------

def run_batch(bins, work, workload, seed, seconds, trace):
    pools = load_pools()
    requests, expected = batch_jobs(workload, seed, pools)
    doc, setups = run_runner(bins, work, requests, seconds, trace)
    jobs = doc["jobs"]
    # Errors of any job in the run, then first-cycle disagreements with
    # the probe's verdicts and digests.
    failures = [f"{e['name']}: {e['what']}" for seg in doc["segments"]
                for e in seg["errors"]]
    failures += [f for j, f in check_jobs(jobs, expected)
                 if j["verdict"] != "error"]
    attempted = sum(len(seg["job_ms"]) for seg in doc["segments"])
    result = {"attempted": attempted, "failed": len(failures),
              "failures": failures}
    if trace:
        untraced, traced = doc["segments"]
        table = trace_table(bins, os.path.join(work, "trace.json"))
        m = layer_metrics(jobs, table)
        m.update(zero_serve_layers())
        m["telemetry.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
        m["telemetry.dropped_spans"] = float(doc["dropped_spans"])
        result["metrics"] = m
        return result
    seg = doc["segments"][0]
    in_window = sum(e <= seg["stop_s"] for e in seg["end_s"])
    tail_p = tail_percentile(len(jobs))
    m = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": in_window / seg["stop_s"],
        "job_p50_ms": statistics.median(seg["job_ms"]),
        "job_tail_ms": percentile(seg["job_ms"], tail_p),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }
    m.update(quality(jobs))
    result["metrics"] = m
    result["notes"] = [
        f"{len(seg['job_ms'])} jobs ({len(seg['job_ms']) / len(jobs):.2f} "
        f"cycles of {len(jobs)}); jobs_per_s counts the {in_window} done "
        f"by {seg['stop_s']:.2f} s; job_tail_ms is p{tail_p:g}",
        f"error_frac {len(failures) / attempted:.4f} "
        f"({len(failures)} of {attempted})",
        "verdicts: " + ", ".join(
            f"{v}={sum(j['verdict'] == v for j in jobs)}"
            for v in ("mapped", "undeployable", "unmappable", "error"))]
    return result


def zero_serve_layers():
    """Serving-only layers read zero on the in-process batch workloads
    (no HTTP, mapping cache off)."""
    return {"http.overhead_ms": 0.0, "http.rejects": 0.0,
            "cache.hit_frac": 0.0, "cache.hit_ms": 0.0, "cache.miss_ms": 0.0,
            "cache.puts": 0.0, "cache.evictions": 0.0,
            "cache.validate_failures": 0.0, "loadgen.lateness_ms": 0.0,
            "loadgen.latency_p50_ms": 0.0, "loadgen.latency_tail_ms": 0.0}


# ---- serve workload --------------------------------------------------------

def serve_requests(seed, pools, count):
    """Seeded open-loop request list over the kernels ims maps on the
    serve fabric: most requests repeat the hot set (one fixed request per
    kernel: cache reads); the rest carry fresh seeds (misses that map with
    ims and Put). Returns (timed requests, hot set, fresh requests)."""
    rng = random.Random(f"serve_mix:{seed}")
    kernels = sorted({e["kernel"] for e in pools["pools"]["heuristic_mix"]
                      if e["mapper"] == "ims" and e["fabric"] == SERVE_FABRIC})
    hot = [request(f"hot-{k}", "ims", k, SERVE_FABRIC, 2.0, iterations=32)
           for k in kernels]
    timed, fresh = [], []
    used = {REQUEST_SEED}
    for i in range(count):
        if rng.random() < SERVE_FRESH_SHARE:
            s = rng.randrange(1, 2**31)
            while s in used:
                s = rng.randrange(1, 2**31)
            used.add(s)
            r = request(f"fresh-{i}", "ims", rng.choice(kernels),
                        SERVE_FABRIC, 2.0, seed=s,
                        iterations=rng.choice(ITERATIONS))
            fresh.append(r)
            timed.append(r)
        else:
            timed.append(rng.choice(hot))
    return timed, hot, fresh


def cpu_halves():
    """Disjoint CPU sets for the daemon and the load generator, so the
    two do not migrate onto each other's CPUs; None below 4 CPUs."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None
    return set(cpus[:len(cpus) // 2]), set(cpus[len(cpus) // 2:])


def pinned(cpus):
    """preexec_fn that pins the child to `cpus` (no-op for None)."""
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


def http_get(port, path):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request("GET", path)
        r = conn.getresponse()
        return r.status, r.read()
    except (http.client.HTTPException, OSError):
        return None, b""
    finally:
        conn.close()


class Daemon:
    """The shipped cgra_serve with default flags on an ephemeral port."""

    def __init__(self, bins, work, trace_path=None):
        port_file = os.path.join(work, "port")
        if os.path.exists(port_file):
            os.unlink(port_file)
        cmd = [bins["cgra_serve"], "--port", "0", "--port-file", port_file]
        if trace_path:
            cmd += ["--trace", trace_path]
        t0 = time.perf_counter()
        halves = cpu_halves()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     preexec_fn=pinned(halves and halves[0]))
        self.port = None
        deadline = t0 + 30
        while time.perf_counter() < deadline:
            if self.port is None and os.path.exists(port_file):
                with open(port_file) as f:
                    text = f.read().strip()
                self.port = int(text) if text else None
            if self.port and http_get(self.port, "/healthz")[0] == 200:
                break
            if self.proc.poll() is not None:
                break
            time.sleep(0.0002)
        else:
            self.stop()
            raise RuntimeError("cgra_serve did not become healthy")
        if self.proc.poll() is not None:
            raise RuntimeError("cgra_serve exited during start-up")
        self.setup_s = time.perf_counter() - t0

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        """SIGTERM drain; returns the daemon's final cache counters."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=60)
        for line in out.splitlines():
            if line.startswith("cache: "):
                return json.loads(line[len("cache: "):])
        return {}


def serve_daemon_run(bins, work, timed, hot, seconds, trace_path=None):
    """One daemon life: start, warm the hot set, run the open loop, stop.
    Returns (load samples, daemon cache counters, peak RSS MB, setup s)."""
    daemon = Daemon(bins, work, trace_path)
    halves = cpu_halves()
    try:
        for r in hot:  # let the cache fill before timing
            body = json.dumps(r).encode()
            req = urllib.request.Request(
                f"http://127.0.0.1:{daemon.port}/v1/map", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=30) as resp:
                resp.read()
        req_path = os.path.join(work, "serve_requests.jsonl")
        out_path = os.path.join(work, "load.json")
        write_lines(req_path, timed)
        subprocess.run([bins["e2e_runner"], "load", "--port", str(daemon.port),
                        "--requests", req_path, "--rate", str(SERVE_RATE),
                        "--threads", str(NPROC), "--out", out_path],
                       check=True, timeout=seconds * 3 + 60,
                       preexec_fn=pinned(halves and halves[1]))
        rss = daemon.peak_rss_mb()
    finally:
        cache = daemon.stop()
    with open(out_path) as f:
        samples = json.load(f)["requests"]
    return samples, cache, rss, daemon.setup_s


def serve_latency(samples, seconds, key):
    """Per segment of the run: the median of `key`, and the median over
    windows of each window's tail. Host interference on a shared machine
    only ever adds time, so the least-disturbed segment is reported.
    Returns (p50, tail, tail percentile, window size)."""
    full = int(SERVE_RATE * SERVE_WINDOW_MS / 1e3)
    segment_ms = seconds * 1e3 / SERVE_SEGMENTS
    segments = [[] for _ in range(SERVE_SEGMENTS)]
    for s in samples:
        segments[min(int(s["due_ms"] // segment_ms),
                     SERVE_SEGMENTS - 1)].append(s)
    p50s, tails = [], []
    for seg in segments:
        windows = {}
        for s in seg:
            windows.setdefault(int(s["due_ms"] // SERVE_WINDOW_MS),
                               []).append(s[key])
        tail, tail_p = windowed_tail([w for w in windows.values()
                                      if len(w) >= full])
        p50s.append(statistics.median(s[key] for s in seg))
        tails.append(tail)
    return min(p50s), min(tails), tail_p, full


def run_serve(bins, work, seed, seconds, trace):
    pools = load_pools()
    count = int(SERVE_RATE * seconds)
    timed, hot, fresh = serve_requests(seed, pools, count)
    if trace:
        # An untraced and a traced daemon run over two halves of the list
        # (each capped so no daemon span ring overflows); the latency
        # ratio is the tracing overhead.
        half = min(len(timed) // 2, SERVE_TRACE_REQUESTS)
        base, _, _, _ = serve_daemon_run(bins, work, timed[:half], hot,
                                      half / SERVE_RATE)
        trace_path = os.path.join(work, "serve_trace.json")
        timed = timed[half:2 * half]
        names = {r["name"] for r in timed}
        fresh = [r for r in fresh if r["name"] in names]
        samples, cache, rss, _ = serve_daemon_run(bins, work, timed, hot,
                                               half / SERVE_RATE, trace_path)
    else:
        setups = []
        for _ in range(SETUP_REPS - 1):
            d = Daemon(bins, work)
            d.stop()
            setups.append(d.setup_s)
        samples, cache, rss, setup = serve_daemon_run(bins, work, timed, hot,
                                                   seconds)
        setups.append(setup)

    # In-process batch path over every distinct request: the reference
    # digests, and the validation / simulation of each mapping.
    doc, _ = run_runner(bins, work, hot + fresh, 0, trace, setups=1)
    by_name = {j["name"]: j for j in doc["jobs"]}
    failures = [f"{e['name']}: {e['what']}" for seg in doc["segments"]
                for e in seg["errors"]]
    rows = []
    for r, s in zip(timed, samples):
        ref = by_name[r["name"]]
        rows.append((r, s, ref))
        if s["status"] != 200 or "digest" not in s:
            failures.append(f"{r['name']}: HTTP {s['status']} "
                            f"{s.get('error', '')}")
        elif s["digest"] != ref["digest"] or s["ok"] != (ref["digest"] != ""):
            failures.append(f"{r['name']}: served digest {s['digest']} != "
                            f"in-process {ref['digest']}")
    lateness = [s["lateness_ms"] for s in samples]
    late_p99 = percentile(lateness, 99)
    late_end = statistics.median(lateness[-max(1, len(lateness) // 100):])
    # The generator fell behind when its backlog grew to the end of the
    # run: then the offered rate was not offered. (A host stall delays
    # sends too, but the backlog drains afterwards.)
    if late_end > 10.0:
        failures.append(f"load generator fell behind ({late_end:.1f} ms "
                        f"late at the end of the run); run invalid")
    result = {"attempted": len(samples), "failed": len(failures),
              "failures": failures}
    latencies = [s["latency_ms"] for s in samples]
    if trace:
        table = trace_table(bins, os.path.join(work, "trace.json"))
        serve_table = trace_table(bins, trace_path)
        m = layer_metrics(doc["jobs"], table, serve_table)
        ok = [s for s in samples if s["status"] == 200 and "wall_ms" in s]
        hits = [s["wall_ms"] for s in ok if s["cache_hit"]]
        misses = [s["wall_ms"] for s in ok if not s["cache_hit"]]
        m["http.overhead_ms"] = statistics.fmean(s["client_ms"] - s["wall_ms"]
                                                 for s in ok)
        m["http.rejects"] = float(sum(s["status"] != 200 for s in samples))
        m["cache.hit_frac"] = len(hits) / len(samples)
        m["cache.hit_ms"] = statistics.fmean(hits) if hits else 0.0
        m["cache.miss_ms"] = statistics.fmean(misses) if misses else 0.0
        m["cache.puts"] = float(cache.get("puts", 0))
        m["cache.evictions"] = float(cache.get("evictions", 0))
        m["cache.validate_failures"] = float(cache.get("validate_failures", 0))
        m["loadgen.lateness_ms"] = late_p99
        (m["loadgen.latency_p50_ms"], m["loadgen.latency_tail_ms"], _,
         _) = serve_latency(samples, len(samples) / SERVE_RATE, "latency_ms")
        m["telemetry.overhead_frac"] = (
            statistics.median(latencies) /
            statistics.median(s["latency_ms"] for s in base) - 1)
        with open(trace_path) as f:
            dropped = json.load(f).get("otherData", {}).get("dropped_spans", 0)
        m["telemetry.dropped_spans"] = float(dropped + doc["dropped_spans"])
        result["metrics"] = m
        return result

    p50, tail, tail_p, full = serve_latency(samples, seconds, "wall_ms")
    wall_s = (max(s["due_ms"] + s["latency_ms"] for s in samples) / 1e3)
    mapped = [ref for _, s, ref in rows if ref["verdict"] == "mapped"
              and s.get("digest") == ref["digest"]]
    with_mapping = [(s, ref) for _, s, ref in rows
                    if s.get("ok") and s.get("digest") == ref["digest"]]
    m = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(samples) / wall_s,
        "job_p50_ms": p50,
        "job_tail_ms": tail,
        "mapped_frac": len(mapped) / len(samples),
        "ii_over_mii": geomean([s["ii"] / ref["mii"] for s, ref in with_mapping])
        if with_mapping else 1.0,
        "kernel_cycles": float(sum(ref["cycles"] for ref in mapped)),
        "config_bits": float(sum(ref["config_bits"] for ref in mapped)),
        "peak_rss_mb": rss,
    }
    result["metrics"] = m
    result["notes"] = [
        f"open loop at {SERVE_RATE:g} req/s, {NPROC} client threads, "
        f"{len(samples)} requests; job times are the daemon's answer "
        f"times (wall_ms) in the least-disturbed of {SERVE_SEGMENTS} "
        f"segments; job_tail_ms is the median over {SERVE_WINDOW_MS:g} ms "
        f"windows of each window's p{tail_p:g} of {full} requests",
        "latency from the due time: p50 {:.4f} ms, tail {:.4f} ms".format(
            *serve_latency(samples, seconds, "latency_ms")[:2]),
        f"generator lateness p99 {late_p99:.3f} ms",
        f"cache: {json.dumps(cache)}",
        f"error_frac {len(failures) / len(samples):.4f}"]
    return result


# ---- pool probe ------------------------------------------------------------

def probe_once(bins, work, r, kill_s):
    """Runs one request in its own runner process under a wall-clock kill.
    Returns (verdict, digest, job seconds, detail)."""
    fd, path = tempfile.mkstemp(dir=work, suffix=".jsonl")
    os.close(fd)
    out = path + ".out"
    write_lines(path, [r])
    try:
        p = subprocess.run([bins["e2e_runner"], "run", "--requests", path,
                            "--out", out], stdout=subprocess.DEVNULL,
                           timeout=kill_s)
        if p.returncode != 0:
            return "crashed", "", 0.0, f"exit {p.returncode}"
        with open(out) as f:
            j = json.load(f)["jobs"][0]
        return j["verdict"], j["digest"], j["job_ms"] / 1e3, j["detail"]
    except subprocess.TimeoutExpired:
        return "killed", "", kill_s, f"still running at {kill_s:g} s"
    finally:
        for x in (path, out):
            if os.path.exists(x):
                os.unlink(x)


def probe_candidate(bins, work, workload, mapper, kernel, fabric, dead):
    budget, kill = BUDGET_S[workload], KILL_S[workload]
    r = request("probe", mapper, kernel, fabric, budget, dead_cells=dead)
    verdict, digest, wall, detail = probe_once(bins, work, r, kill)
    row = {"mapper": mapper, "kernel": kernel, "fabric": fabric,
           "cells": dead, "verdict": verdict, "digest": digest,
           "wall_s": round(wall, 4), "budget_s": budget}
    if verdict in ("killed", "crashed", "error"):
        row["why"] = f"{verdict}: {detail}"
    elif wall >= budget / 4:
        row["why"] = f"took {wall:.2f} s of a {budget:g} s budget"
    else:
        v2, d2, _, _ = probe_once(bins, work, r, kill)
        if (v2, d2) != (verdict, digest):
            row["why"] = f"second run gave {v2} {d2}"
    return row


def dump_one_per_line(doc):
    """JSON with every list element on its own line (diff-friendly)."""
    def dump(v, indent):
        pad = " " * indent
        if isinstance(v, dict) and indent < 2:
            items = [f'{pad} {json.dumps(k)}: {dump(x, indent + 1)}'
                     for k, x in v.items()]
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        if isinstance(v, list) and v:
            items = [f"{pad}  {json.dumps(x, separators=(',', ':'))}"
                     for x in v]
            return "[\n" + ",\n".join(items) + f"\n{pad}]"
        return json.dumps(v, separators=(",", ":"))
    return dump(doc, 0)


def probe(bins):
    work = os.path.join(BUILD, "probe")
    os.makedirs(work, exist_ok=True)
    tasks = []
    for m in HEURISTIC_MAPPERS:
        for k in CATALOG_KERNELS:
            for f in HEURISTIC_FABRICS:
                tasks.append(("heuristic_mix", m, k, f, []))
                tasks.append(("heuristic_mix", m, k, f, dead_cells_for(m, k, f)))
    exact = [(m, k, f) for m in EXACT_MAPPERS for k in TINY_KERNELS
             for f in EXACT_FABRICS] + EXACT_EXTRAS
    tasks += [("exact_mix", m, k, f, []) for m, k, f in exact]
    log(f"probing {len(tasks)} candidates with {NPROC} processes")
    rows = []
    with concurrent.futures.ThreadPoolExecutor(NPROC) as ex:
        futures = [ex.submit(probe_candidate, bins, work, *t) for t in tasks]
        for i, fut in enumerate(futures):
            rows.append((tasks[i][0], fut.result()))
            if (i + 1) % 200 == 0:
                log(f"  {i + 1}/{len(tasks)}")

    pools = {"heuristic_mix": [], "exact_mix": []}
    rejected, overrun = [], {}
    healthy = {}
    for workload, row in rows:
        o = overrun.setdefault(row["mapper"], {"worst_ratio": 0.0,
                                               "killed": 0, "probed": 0})
        o["probed"] += 1
        o["worst_ratio"] = round(max(o["worst_ratio"],
                                     row["wall_s"] / row["budget_s"]), 3)
        o["killed"] += row["verdict"] == "killed"
        if "why" in row:
            rejected.append(row)
            continue
        key = (workload, row["mapper"], row["kernel"], row["fabric"])
        if not row["cells"]:
            healthy[key] = {"mapper": row["mapper"], "kernel": row["kernel"],
                            "fabric": row["fabric"],
                            "deadline_s": row["budget_s"],
                            "verdict": row["verdict"], "digest": row["digest"],
                            "wall_s": row["wall_s"], "dead": None}
    for workload, row in rows:
        key = (workload, row["mapper"], row["kernel"], row["fabric"])
        if row["cells"] and "why" not in row and key in healthy:
            healthy[key]["dead"] = {"cells": row["cells"],
                                    "verdict": row["verdict"],
                                    "digest": row["digest"],
                                    "wall_s": row["wall_s"]}
    for key, entry in healthy.items():
        pools[key[0]].append(entry)
    doc = {
        "about": "Eligible job pools of the e2ebench workloads, rebuilt by "
                 "'python3 e2ebench/run.py --probe'. Each candidate triple "
                 "ran in its own process under a wall-clock kill; it is kept "
                 "when it finished in under a quarter of its budget and gave "
                 "the same verdict and mapping digest in a second process. "
                 "wall_s is the probed job time, the reason it is in its "
                 "workload. 'overrun' is each mapper's worst wall/budget "
                 "ratio (killed runs count at the kill time).",
        "budget_s": BUDGET_S,
        "kill_s": KILL_S,
        "request_seed": REQUEST_SEED,
        "overrun": dict(sorted(overrun.items())),
        "pools": pools,
        "rejected": rejected,
    }
    with open(POOLS, "w") as f:
        f.write(dump_one_per_line(doc) + "\n")
    for w, pool in pools.items():
        log(f"{w}: {len(pool)} jobs, {sum(e['wall_s'] for e in pool):.1f} s "
            f"of probed job time")
    log(f"rejected {len(rejected)}; wrote {POOLS}")


# ---- main ------------------------------------------------------------------

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
                    "job_tail_ms": "ms", "mapped_frac": "frac",
                    "ii_over_mii": "ratio", "kernel_cycles": "cycles",
                    "config_bits": "bits", "peak_rss_mb": "MB"}


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.startswith(("trace.self_ms.", "mappers.map_ms.")):
        return "ms"
    if name.startswith("trace.share."):
        return "frac"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_frac", "frac"),
                         ("_per_s", "1/s")):
        if name.endswith(suffix):
            return unit
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["heuristic_mix", "exact_mix",
                                           "serve_mix"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true",
                    help="rebuild the eligible job pools (pools.json)")
    args = ap.parse_args()
    if not args.probe and not args.workload:
        ap.error("--workload or --probe is required")

    bins = build()
    if args.probe:
        probe(bins)
        return 0
    work = os.path.join(BUILD, f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.workload == "serve_mix":
            result = run_serve(bins, work, args.seed, args.seconds,
                               args.trace)
        else:
            result = run_batch(bins, work, args.workload, args.seed,
                               args.seconds, args.trace)
    finally:
        for name in os.listdir(work):
            os.unlink(os.path.join(work, name))
        os.rmdir(work)

    metrics = {k: {"value": v, "unit": unit_of(k)}
               for k, v in result["metrics"].items()}
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'})")
    for k, v in metrics.items():
        print(f"  {k:40s} {v['value']:>16.6g} {v['unit']}")
    for note in result.get("notes", []):
        print(f"  note: {note}")
    for f in result["failures"][:20]:
        print(f"  FAIL {f}")
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
