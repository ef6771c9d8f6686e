#!/usr/bin/env python3
"""mergescale benchmark: sweep, resumed search and socket serving.

    python3 perfbench/run.py --workload sweep|search|serve|all \
        --seed N --seconds S --trace 0|1

Builds explore_cli, serve_cli and perfbench_tool from this checkout (into
.bench_build/), drives the shipped binaries the way a user does, checks
their outputs, and prints a human-readable report followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (tracing off); with --trace 1 they are the
per-layer ones from perfbench_tool's traced in-process replay.  See
perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import pty
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
HISTORY = os.path.join(WORK, "history.ndjson")
SWEEP_THREADS = 2     # explore_cli --threads for sweep
# explore_cli --threads for search.  Anneal submits one small batch per
# round, so a second worker thread hands work across cores every round;
# on a shared host that hand-off made search throughput swing by +-15%
# between identical runs, against +-3% with one thread.
SEARCH_THREADS = 1
SERVE_THREADS = 1     # serve_cli --threads
POINT_CLIENTS = 2     # plus one analytic client
GRID_POINTS = 2 * 3 * 3 * 32 * 2048
SEARCH_PREP_BUDGET = 150000
SEARCH_BUDGET = 300000
# Timed resumes per search run, at least.  One resume is ~5 s and single
# resumes swing by +-10% or more on a shared host (the anneal's cache
# probes are memory-latency bound), so the median needs more than the two
# that fit in 10 s.
SEARCH_MIN_RESUMES = 6
SWEEP_SETUP_PROBES = 32
# Timed sweeps per sweep run, at least: one takes ~20 s, and two average
# over more of a shared host's drift than one.
SWEEP_MIN_ITERATIONS = 2
SERVE_STARTS = 2
SERVE_DISK_EVALS = 10000  # serve disk_mb is log growth per this many live evals
STEP_TIMEOUT = 120

E2E = [("setup_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB"),
       ("disk_mb", "MB")]
# The layer metrics every workload's traced run measures and none reports
# as 0; the others are printed only.
PER_LAYER = [
    ("search.log.load_s", "s"), ("explore.rank.self_s", "s"),
    ("util.io.write_s", "s"), ("util.io.read_s", "s"),
    ("core.eval.points", "count"), ("explore.cache.entries", "count"),
    ("search.log.records", "count"), ("search.log.bytes", "bytes"),
    ("search.log.load_records", "count"), ("util.io.appends", "count"),
    ("util.io.write_bytes", "bytes"), ("util.io.flushes", "count"),
    ("util.io.read_bytes", "bytes"),
]
UNITS = {
    "query_p50_ms": "ms", "query_p99_ms": "ms", "scan_p50_ms": "ms",
    "error_rate": "ratio", "serve.rtt_overhead_ms": "ms",
}


class BenchError(Exception):
    pass


def log(text=""):
    print(text, flush=True)


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def require_checkout():
    for rel in ("CMakeLists.txt", "src", "examples/explore_cli.cpp",
                "examples/serve_cli.cpp"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            sys.stderr.write("run.py: %s is missing; run from a full mergescale "
                             "checkout\n" % rel)
            sys.exit(2)


def configured_source():
    """Source directory the existing build tree was configured for."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build():
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    build_log = os.path.join(WORK, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    source = configured_source()
    if source is None or os.path.realpath(source) != os.path.realpath(HERE):
        # A tree configured for another checkout location cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "explore_cli", "serve_cli", "perfbench_tool"])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp)
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=env, timeout=840).returncode != 0:
                with open(build_log) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                raise BenchError("build failed (see %s)" % build_log)
    return {
        "explore": os.path.join(BUILD, "mergescale", "explore_cli"),
        "serve": os.path.join(BUILD, "mergescale", "serve_cli"),
        "tool": os.path.join(BUILD, "perfbench_tool"),
    }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

def reap(proc):
    """Waits for `proc`, returning (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_cli(argv, marker=None, stop_at_marker=False, timeout=STEP_TIMEOUT):
    """Runs a CLI with stdout on a pseudo-terminal, so progress lines arrive
    as the program writes them (a pipe would block-buffer std::cout).
    Returns lines, time to the first line starting with `marker`, wall
    time, exit code and peak RSS."""
    master, slave = pty.openpty()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=slave,
                            stderr=subprocess.PIPE, cwd=ROOT)
    os.close(slave)
    lines, pending, marker_s = [], b"", None
    deadline = start + timeout
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError("timed out: %s" % " ".join(argv[:3]))
            ready, _, _ = select.select([master], [], [], left)
            if not ready:
                continue
            try:
                chunk = os.read(master, 65536)
            except OSError:
                chunk = b""
            if not chunk:
                break
            now = time.perf_counter()
            pending += chunk
            *complete, pending = pending.split(b"\n")
            for raw in complete:
                line = raw.decode(errors="replace").rstrip("\r")
                lines.append(line)
                if marker_s is None and marker and line.startswith(marker):
                    marker_s = now - start
                    if stop_at_marker:
                        proc.kill()
            if stop_at_marker and marker_s is not None:
                break
    except BaseException:
        proc.kill()
        raise
    finally:
        os.close(master)
        code, rss = reap(proc)
        err = proc.stderr.read().decode(errors="replace")
        proc.stderr.close()
    wall = time.perf_counter() - start
    if not stop_at_marker and code != 0:
        raise BenchError("%s exited %d: %s" % (os.path.basename(argv[0]), code,
                                               err.strip()[-500:]))
    return {"lines": lines, "marker_s": marker_s, "wall_s": wall,
            "rss_mb": rss, "code": code}


def run_tool(argv, timeout=STEP_TIMEOUT):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          cwd=ROOT, timeout=timeout, text=True)
    out = proc.stdout.strip().splitlines()
    if not out:
        raise BenchError("%s %s failed: %s" % (os.path.basename(argv[0]),
                                               argv[1], proc.stderr[-500:]))
    return proc.returncode, json.loads(out[-1])


def find_line(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line
    return None


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def file_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def filesystem_of(path):
    """fstype of the mount holding `path` (longest mount-point prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for entry in mounts:
                fields = entry.split()
                if len(fields) < 3:
                    continue
                point = fields[1]
                inside = path == point or path.startswith(point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, fstype = point, fields[2]
    except OSError:
        pass
    return fstype


class Checks:
    """Output checks: each counts as one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def grid_args(bins):
    proc = subprocess.run([bins["tool"], "grid"], stdout=subprocess.PIPE,
                          text=True, check=True)
    return proc.stdout.split()


# ---------------------------------------------------------------------------
# Workloads (tracing off)
# ---------------------------------------------------------------------------

def sweep_iteration(bins, grid, run_root, tag, checks):
    """One persisted exhaustive sweep plus --archive on its run directory."""
    base = os.path.join(run_root, tag)
    run_dir = os.path.join(base, "run")
    report = os.path.join(base, "report")
    os.makedirs(base)
    sweep = run_cli([bins["explore"], *grid, "--threads", str(SWEEP_THREADS),
                     "--run-dir", run_dir, "--log-format", "binary",
                     "--out", report, "--quiet"], marker="scenario:")
    archive = run_cli([bins["explore"], "--archive", "--run-dir", run_dir])
    best = find_line(sweep["lines"], "best: ")
    checks.expect(find_line(sweep["lines"], "scenario: %d jobs" % GRID_POINTS)
                  is not None, "sweep: scenario line")
    checks.expect(find_line(sweep["lines"], "run 1: %d points" % GRID_POINTS)
                  is not None, "sweep: run line")
    checks.expect(find_line(archive["lines"], "archive: %d unique design points"
                            % GRID_POINTS) is not None, "sweep: archive line")
    with open(report + ".csv", "rb") as csv:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: csv.read(1 << 20), b""))
    checks.expect(rows == GRID_POINTS + 1, "sweep: csv has %d lines" % rows)
    checks.expect(best is not None and sweep["marker_s"] is not None,
                  "sweep: best and scenario lines present")
    disk = dir_bytes(base)
    return {"sweep": sweep, "archive": archive, "best": best, "run_dir": run_dir,
            "disk_bytes": disk}


def workload_sweep(bins, grid, run_root, seconds, checks, env):
    samples = {name: [] for name, _ in E2E}
    begin = time.perf_counter()
    i = 0
    while i < SWEEP_MIN_ITERATIONS or time.perf_counter() - begin < seconds:
        it = sweep_iteration(bins, grid, run_root, "sweep-%d" % i, checks)
        code, answer = run_tool([bins["tool"], "archive-best", "--dir",
                                 it["run_dir"]])
        checks.expect(code == 0 and answer.get("best") == it["best"],
                      "sweep: archive best equals the sweep's best: line")
        setup = it["sweep"]["marker_s"]
        wall = it["sweep"]["wall_s"] + it["archive"]["wall_s"]
        samples["setup_s"].append(setup)
        samples["work_per_s"].append(GRID_POINTS / (wall - setup))
        samples["peak_rss_mb"].append(max(it["sweep"]["rss_mb"],
                                          it["archive"]["rss_mb"]))
        samples["disk_mb"].append(it["disk_bytes"] / 1e6)
        shutil.rmtree(os.path.join(run_root, "sweep-%d" % i))
        i += 1
    # Extra set-up samples: start the same sweep and stop it once it
    # reports its scenario line.
    for p in range(SWEEP_SETUP_PROBES):
        probe_dir = os.path.join(run_root, "probe-%d" % p)
        probe = run_cli([bins["explore"], *grid, "--threads",
                         str(SWEEP_THREADS), "--run-dir",
                         os.path.join(probe_dir, "run"),
                         "--log-format", "binary", "--out",
                         os.path.join(probe_dir, "report"), "--quiet"],
                        marker="scenario:", stop_at_marker=True)
        if probe["marker_s"] is not None:
            samples["setup_s"].append(probe["marker_s"])
        shutil.rmtree(probe_dir, ignore_errors=True)
    env["threads"] = SWEEP_THREADS
    env["iterations"] = i
    return samples, {}


def search_argv(bins, grid, seed, budget):
    return [bins["explore"], *grid, "--threads", str(SEARCH_THREADS),
            "--log-format", "binary", "--strategy", "anneal", "--seed",
            str(seed), "--budget", str(budget)]


def search_prep(bins, grid, run_root, seed):
    prep = os.path.join(run_root, "prep")
    run_cli(search_argv(bins, grid, seed, SEARCH_PREP_BUDGET) + ["--run-dir", prep])
    ref = run_cli(search_argv(bins, grid, seed, SEARCH_BUDGET) +
                  ["--run-dir", os.path.join(run_root, "reference")])
    return prep, find_line(ref["lines"], "best: ")


def search_resume(bins, grid, run_root, prep, seed, tag):
    work = os.path.join(run_root, tag)
    shutil.copytree(prep, work)
    log_path = os.path.join(work, "results.msbin")
    before = file_bytes(log_path)
    res = run_cli(search_argv(bins, grid, seed, SEARCH_BUDGET) +
                  ["--resume", work], marker="search:")
    res["growth_bytes"] = file_bytes(log_path) - before
    appended = find_line(res["lines"], "log: ")
    res["fresh"] = int(appended.split()[1]) if appended else 0
    res["best"] = find_line(res["lines"], "best: ")
    res["dir"] = work
    return res


def workload_search(bins, grid, run_root, seconds, seed, checks, env):
    prep, reference = search_prep(bins, grid, run_root, seed)
    checks.expect(reference is not None, "search: reference best line")
    samples = {name: [] for name, _ in E2E}
    begin = time.perf_counter()
    i = 0
    while i < SEARCH_MIN_RESUMES or time.perf_counter() - begin < seconds:
        res = search_resume(bins, grid, run_root, prep, seed, "resume-%d" % i)
        checks.expect(res["marker_s"] is not None, "search: search line")
        checks.expect(res["best"] == reference,
                      "search: resumed best equals the uninterrupted run's")
        checks.expect(res["fresh"] == SEARCH_BUDGET - SEARCH_PREP_BUDGET,
                      "search: %d fresh evaluations" % res["fresh"])
        setup = res["marker_s"] or 0.0
        samples["setup_s"].append(setup)
        samples["work_per_s"].append(res["fresh"] / (res["wall_s"] - setup))
        samples["peak_rss_mb"].append(res["rss_mb"])
        samples["disk_mb"].append(res["growth_bytes"] / 1e6)
        shutil.rmtree(res["dir"])
        i += 1
    env["threads"] = SEARCH_THREADS
    env["iterations"] = i
    return samples, {}


def sweep_prep(bins, grid, run_root, checks):
    it = sweep_iteration(bins, grid, run_root, "prep", checks)
    for name in ("report.csv", "report.ndjson"):
        os.remove(os.path.join(run_root, "prep", name))
    return it["run_dir"], it["best"]


def read_reply(sock_file):
    header = sock_file.readline().decode()
    lines = []
    if header.startswith("OK"):
        count = int(header.split("lines=")[1])
        lines = [sock_file.readline().decode().rstrip("\n")
                 for _ in range(count)]
        sock_file.readline()
    return header.rstrip("\n"), lines


def start_server(bins, served_dir):
    """Starts serve_cli on `served_dir`; returns (proc, port, seconds until
    the first `best` reply arrived, that reply's line)."""
    port_file = os.path.join(served_dir, "port")
    out = open(os.path.join(served_dir, "serve.out"), "w")
    start = time.perf_counter()
    proc = subprocess.Popen([bins["serve"], "--run-dir", served_dir, "--threads",
                             str(SERVE_THREADS), "--port-file", port_file,
                             "--live-budget", "100000000", "--log-format",
                             "binary"], stdin=subprocess.DEVNULL, stdout=out,
                            stderr=subprocess.STDOUT, cwd=ROOT)
    out.close()
    try:
        while not os.path.exists(port_file):
            if proc.poll() is not None:
                raise BenchError("serve_cli exited %d during start-up"
                                 % proc.returncode)
            if time.perf_counter() - start > STEP_TIMEOUT:
                raise BenchError("serve_cli did not start")
            time.sleep(0.001)
        with open(port_file) as f:
            port = int(f.read())
        with socket.create_connection(("127.0.0.1", port)) as conn:
            sock_file = conn.makefile("rb")
            conn.sendall(b"best\n")
            header, lines = read_reply(sock_file)
            setup = time.perf_counter() - start
            conn.sendall(b"quit\n")
            read_reply(sock_file)
    except BaseException:
        stop_server(proc)
        raise
    return proc, port, setup, (lines[0] if header.startswith("OK") and lines else header)


def stop_server(proc):
    if proc.returncode is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def serve_rss(proc):
    try:
        with open("/proc/%d/status" % proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def serve_copy(bins, prep_dir, run_root, tag, best_line, checks):
    served = os.path.join(run_root, tag)
    shutil.copytree(prep_dir, served)
    proc, port, setup, reply = start_server(bins, served)
    checks.expect(reply == best_line,
                  "serve: first best reply equals the sweep's best: line")
    return proc, port, setup, served


def workload_serve(bins, grid, run_root, seconds, seed, checks, env,
                   loop_seconds=None, starts=SERVE_STARTS):
    prep_dir, best_line = sweep_prep(bins, grid, run_root, checks)
    samples = {name: [] for name, _ in E2E}
    rss = []
    for k in range(starts - 1):
        proc, _, setup, served = serve_copy(bins, prep_dir, run_root,
                                            "start-%d" % k, best_line, checks)
        try:
            samples["setup_s"].append(setup)
            rss.append(serve_rss(proc))
        finally:
            stop_server(proc)
        checks.expect(proc.returncode == 0, "serve: clean exit")
        shutil.rmtree(served)
    proc, port, setup, served = serve_copy(bins, prep_dir, run_root, "loop",
                                           best_line, checks)
    try:
        samples["setup_s"].append(setup)
        code, load = run_tool([bins["tool"], "load", "--port", str(port),
                               "--seed", str(seed), "--seconds",
                               str(loop_seconds or seconds)],
                              timeout=STEP_TIMEOUT)
        rss.append(serve_rss(proc))
    finally:
        stop_server(proc)
    checks.expect(proc.returncode == 0, "serve: clean exit")
    checks.attempted += int(load["attempted"])
    checks.failed += int(load["failed"])
    if load["failed"]:
        checks.failures.append("serve: %d failed queries (first: %s)"
                               % (load["failed"], load["first_failure"]))
    stats = load["stats"]
    # Each live evaluation appends one record, so the log's growth per
    # live evaluation does not depend on how many the loop got through.
    live = int(stats.get("live_evals", 0))
    checks.expect(live > 0, "serve: the loop made live evaluations")
    growth = file_bytes(os.path.join(served, "results.msbin"))
    samples["work_per_s"].append(load["point_answered"] / load["wall_s"])
    samples["peak_rss_mb"].append(max(rss))
    samples["disk_mb"].append(growth / max(1, live) * SERVE_DISK_EVALS / 1e6)
    env.update({"threads": SERVE_THREADS,
                "connections": "%d point + 1 analytic" % POINT_CLIENTS,
                "probe_limit": int(stats.get("concurrency_limit", 0)),
                "probe_windows": int(stats.get("probe_windows", 0))})
    extra = {
        "query_p50_ms": (load["point"]["p50_ms"], int(load["point"]["n"])),
        "query_p99_ms": (load["point"]["p99_ms"], int(load["point"]["n"])),
        "scan_p50_ms": (load["scan"]["p50_ms"], int(load["scan"]["n"])),
    }
    return samples, {"extra": extra, "load": load, "prep_dir": prep_dir}


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------

def traced_sweep(bins, grid, run_root, seed, seconds, checks, env):
    it = sweep_iteration(bins, grid, run_root, "untraced", checks)
    untraced = it["sweep"]["wall_s"] + it["archive"]["wall_s"]
    shutil.rmtree(os.path.join(run_root, "untraced"))
    replay = os.path.join(run_root, "replay")
    os.makedirs(replay)
    code, out = run_tool([bins["tool"], "trace-sweep", "--dir",
                          os.path.join(replay, "run"), "--report",
                          os.path.join(replay, "report"), "--spans",
                          os.path.join(run_root, "spans.ndjson")])
    checks.expect(code == 0, "trace: replay archive best equals replay best")
    checks.expect(out["extra"]["best"] == it["best"],
                  "trace: replay best equals the CLI's best: line")
    env["threads"] = "CLI %d, replay 1" % SWEEP_THREADS
    return out, untraced, out["traced_wall_s"]


def traced_search(bins, grid, run_root, seed, seconds, checks, env):
    prep, _ = search_prep(bins, grid, run_root, seed)
    res = search_resume(bins, grid, run_root, prep, seed, "untraced")
    code, out = run_tool([bins["tool"], "trace-search", "--dir",
                          os.path.join(run_root, "replay"), "--seed", str(seed),
                          "--prep-budget", str(SEARCH_PREP_BUDGET), "--budget",
                          str(SEARCH_BUDGET), "--spans",
                          os.path.join(run_root, "spans.ndjson")])
    checks.expect(code == 0 and out["extra"]["best"] == res["best"],
                  "trace: replay best equals the CLI's resumed best: line")
    env["threads"] = SEARCH_THREADS
    return out, res["wall_s"], out["traced_wall_s"]


def traced_serve(bins, grid, run_root, seed, seconds, checks, env):
    samples, info = workload_serve(bins, grid, run_root, seconds, seed, checks,
                                   env, loop_seconds=min(seconds, 5), starts=1)
    replay = os.path.join(run_root, "replay")
    shutil.copytree(info["prep_dir"], replay)
    code, out = run_tool([bins["tool"], "trace-serve", "--dir", replay,
                          "--seed", str(seed), "--spans",
                          os.path.join(run_root, "spans.ndjson")])
    checks.expect(code == 0, "trace: replay eval sources and replies")
    load, extra = info["load"], out["extra"]
    layers = out["layers"]
    layers["serve.rtt_overhead_ms"] = load["point"]["p50_ms"] - extra["point_p50_ms"]
    stats = load["stats"]
    layers["serve.gate.limit"] = float(stats.get("concurrency_limit", 0))
    layers["serve.probe.windows"] = float(stats.get("probe_windows", 0))
    layers["serve.live_evals"] = float(stats.get("live_evals", 0))
    layers["serve.shed"] = float(stats.get("shed_busy", 0)) + \
        float(stats.get("shed_degraded", 0))
    log("rtt by kind (socket p50 ms vs in-process p50 ms):")
    for kind, socket_kind in load["kinds"].items():
        local = extra["kinds"].get(kind, {})
        log("  %-13s socket %10.4f (n=%d)  in-process %10.4f (n=%d)" % (
            kind, socket_kind["p50_ms"], socket_kind["n"],
            local.get("p50_ms", 0.0), local.get("n", 0)))
    return out, extra["untraced_queries_s"], extra["traced_queries_s"]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def load_history(workload, trace):
    runs = []
    if os.path.exists(HISTORY):
        with open(HISTORY) as f:
            for line in f:
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if entry.get("workload") == workload and entry.get("trace") == trace:
                    runs.append(entry)
    return runs


def print_metric(name, unit, value, samples, history):
    past = [run["metrics"][name] for run in history if name in run.get("metrics", {})]
    line = "  %-28s %14.6g %-6s (n=%d" % (name, value, unit, samples)
    if len(past) >= 2:
        q1, med, q3 = statistics.quantiles(past + [value], n=4)
        line += "; over %d runs: median %.6g, q1 %.6g, q3 %.6g, iqr/median %.1f%%" % (
            len(past) + 1, med, q1, q3, 100 * (q3 - q1) / med if med else 0.0)
    log(line + ")")


def report_probe_split(history, current):
    split = {}
    for run in history + [current]:
        limit = run.get("env", {}).get("probe_limit")
        metrics = run.get("metrics", {})
        if limit is None or "query_p99_ms" not in metrics:
            continue
        split.setdefault(limit, []).append(metrics)
    if len(split) > 1 or (split and len(history) >= 2):
        log("serve runs by final probe limit:")
        for limit in sorted(split):
            runs = split[limit]
            log("  limit %-3s runs %-3d median work_per_s %.6g, query_p99_ms %.6g"
                % (limit, len(runs),
                   statistics.median(r["work_per_s"] for r in runs),
                   statistics.median(r["query_p99_ms"] for r in runs)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "search", "serve", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated run still stops its child processes and removes its run
    # directory: SystemExit unwinds through every cleanup block.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    require_checkout()
    seed = max(1, args.seed)
    workloads = ["sweep", "search", "serve"] if args.workload == "all" else [args.workload]
    try:
        bins = build()
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 1
    grid = grid_args(bins)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(bins, grid, workload, seed, args.seconds, args.trace)
        if result is None:
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            key = name if len(workloads) == 1 else workload + "." + name
            combined["metrics"][key] = metric
    log(json.dumps(combined))
    return 0 if combined["correct"] else 1


def run_workload(bins, grid, workload, seed, seconds, trace):
    run_root = os.path.join(WORK, "runs", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_root, ignore_errors=True)
    os.makedirs(run_root)
    env = {"nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0],
           "run_dir_fs": filesystem_of(run_root), "seed": seed,
           "seconds": seconds}
    checks = Checks()
    log("== %s (seed %d, %s) ==" % (workload, seed, "traced" if trace else "untraced"))
    try:
        if trace:
            traced = {"sweep": traced_sweep, "search": traced_search,
                      "serve": traced_serve}[workload]
            out, untraced_s, traced_s = traced(bins, grid, run_root, seed,
                                               seconds, checks, env)
            metrics, recorded = report_traced(workload, out, untraced_s,
                                              traced_s, env)
        else:
            if workload == "sweep":
                samples, info = workload_sweep(bins, grid, run_root, seconds,
                                               checks, env)
            elif workload == "search":
                samples, info = workload_search(bins, grid, run_root, seconds,
                                                seed, checks, env)
            else:
                samples, info = workload_serve(bins, grid, run_root, seconds,
                                               seed, checks, env)
            metrics, recorded = report_e2e(workload, samples, info, env)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        sys.stderr.write("run.py: %s: %s\n" % (workload, e))
        return None
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    for failure in checks.failures:
        log("CHECK FAILED: " + failure)
    attempted = max(1, checks.attempted)
    log("error_rate %.6g %s (%d failed of %d attempted)" % (
        checks.failed / attempted, UNITS["error_rate"], checks.failed, attempted))
    entry = {"workload": workload, "trace": trace, "time": time.time(),
             "env": env, "metrics": recorded}
    with open(HISTORY, "a") as f:
        f.write(json.dumps(entry) + "\n")
    return {"correct": checks.failed == 0, "attempted": attempted,
            "failed": checks.failed, "metrics": metrics}


def report_e2e(workload, samples, info, env):
    log("env: " + json.dumps(env, sort_keys=True))
    history = load_history(workload, 0)
    metrics = {}
    for name, unit in E2E:
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    recorded = {k: v["value"] for k, v in metrics.items()}
    log("end-to-end metrics (median over this run's samples; tracing off):")
    for name, unit in E2E:
        print_metric(name, unit, recorded[name], len(samples[name]), history)
    for name, (value, count) in info.get("extra", {}).items():
        print_metric(name, UNITS[name], value, count, history)
        recorded[name] = value
    if "load" in info:
        log("round trip by query kind (ms):")
        for kind, stats in info["load"]["kinds"].items():
            log("  %-13s n=%-7d p25 %.4f  p50 %.4f  p75 %.4f  p99 %.4f" % (
                kind, stats["n"], stats["p25_ms"], stats["p50_ms"],
                stats["p75_ms"], stats["p99_ms"]))
    if workload == "serve":
        report_probe_split(history, {"env": env, "metrics": recorded})
    return metrics, recorded


def report_traced(workload, out, untraced_s, traced_s, env):
    log("env: " + json.dumps(env, sort_keys=True))
    layers = out["layers"]
    log("per-layer metrics (traced in-process replay):")
    for name in sorted(layers):
        log("  %-32s %.6g" % (name, layers[name]))
    log("spans (count, total s, self s):")
    for name, span in sorted(out["spans"].items()):
        log("  %-26s %8d %12.6f %12.6f" % (name, span["count"], span["total_s"],
                                           span["self_s"]))
    wall = out["traced_wall_s"]
    log("tracing overhead: traced %.4f s vs untraced %.4f s (%+.1f%%, tracing plus "
        "replay gap)" % (traced_s, untraced_s, 100 * (traced_s / untraced_s - 1)))
    log("unattributed: %.4f s of %.4f s traced wall (%.2f%%) in no layer's self time"
        % (out["unattributed_s"], wall, 100 * out["unattributed_s"] / wall))
    missing = [name for name, _ in PER_LAYER if name not in layers]
    if missing:
        raise BenchError("the %s replay did not measure %s"
                         % (workload, ", ".join(missing)))
    metrics = {name: {"value": float(layers[name]), "unit": unit}
               for name, unit in PER_LAYER}
    return metrics, layers


if __name__ == "__main__":
    sys.exit(main())
