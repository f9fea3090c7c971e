#!/usr/bin/env python3
"""Benchmark for the IRP reproduction: the study pipeline and the RouteOracle
wire path, measured from outside through the shipped run_study_cli binary.

Run one workload (from the root of the repository checkout):

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 8 --trace 0

Run every workload once (one result line each):

    python3 perfbench/run.py --workload all --seed 1

`--trace 1` makes the traced run that reports the per-layer metrics instead
of the end-to-end ones. `--selftest` checks the benchmark's own gates (a
stalling stub server, a corrupted expected answer, a corrupted study CSV).
`--record-digests` re-records the study CSV digests in study_digests.json.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the full record of a run
(machine, phases, spans) goes to .bench_out/. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import pty
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
OUT = ROOT / ".bench_out"
BUILD_TYPE = "RelWithDebInfo"

# The study: scale 2 is where the serial measurement-epoch convergence and
# memory growth start to dominate, and its ~10 s run rides out the host's
# short stalls (a 4 s scale-1 study spread twice as much from run to run).
# Two runs per benchmark run, one before serving and one after, so they
# sample the host further apart; wall_s is their mean.
STUDY_SCALE = 2
STUDY_RUNS = 2
STUDY_THREADS = 2
SERVER_STARTS = 3     # Serve start-to-first-reply is the median of these.
STUDY_STARTS = 5      # Study start-to-first-pipeline-call: median of these.

# Study seeds with recorded CSV digests (study_digests.json). Each workload
# runs its study, and builds its snapshot images, on fixed seeds, so the
# run-to-run spread of wall_s and serve_peak_rss_mb is noise, not a
# different Internet per --seed (the study's wall time ranges 8.8-10.5 s
# across these seeds; a scale-1 image's serve RSS ranges 75-108
# MB across image seeds). --seed varies the key pools and every query
# stream. HOLDOUT_SEED is run by no workload: --holdout puts it in place of
# the study seed and adds it to the image seeds, to check a claimed gain on
# inputs nobody tuned against.
STUDY_SEEDS = [7, 42, 1001, 31337, 2015]
HOLDOUT_SEED = 4242

WORKLOADS = {
    # One scale-1 snapshot, cache-hot classify + rel traffic in version-1
    # frames, plus the paper's full pipeline with active probing.
    "serve-hot": {"mix": "hot", "images": [1001], "study_seed": 7},
    # Three scale-1 snapshots behind one endpoint, 70/20/10 traffic in
    # version-2 frames over more keys than the shared cache holds, plus the
    # full pipeline on another seed.
    "serve-multistudy": {"mix": "multi", "images": [1001, 1002, 1003],
                         "study_seed": 42},
}

# The end-to-end metrics BENCHMARK.json bounds: the ones that hold steady
# from run to run on a shared, unpinned host.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("study_peak_rss_mb", "MB"),
    ("serve_peak_rss_mb", "MB"),
    ("p50_us_low", "us"),
    ("closed_p50_us", "us"),
]
# Serving metrics printed and recorded by every run, and reported as
# tail.* among the per-layer metrics of the traced run, but without a
# bound: on a shared, unpinned host their run-to-run spread (IQR/median
# 0.09-7 in sizing) follows the host's load, not the program.
TAIL = [
    ("p50_us_mid", "us"),
    ("p99_us_low", "us"),
    ("p99_us_mid", "us"),
    ("p50_us_high", "us"),
    ("p99_us_high", "us"),
    ("max_qps_slo", "1/s"),
    ("closed_qps", "1/s"),
]

QUERY_TYPES = ["classify", "alternate_routes", "psp_visibility", "relationship"]
STUDY_NAMES = ["s0", "s1", "s2"]
# Query-type weights of each mix (see Mix in src/loadgen.cpp).
MIX_WEIGHTS = {
    "hot": {"classify": 50, "relationship": 50},
    "multi": {"alternate_routes": 40, "psp_visibility": 30, "classify": 30},
}
# The fixed serving rates (500/s, 20 000/s, 80 000/s; kFixedRates in
# src/loadgen.cpp).
RATE_NAMES = ["low", "mid", "high"]
STUDY_SPANS = ["topo.generate", "core.passive_study", "core.classifier",
               "core.precompute", "core.analyses", "core.active_select",
               "core.active_alternate", "core.active_magnet",
               "bgp.measurement_converge", "inference.infer_snapshot",
               "inference.aggregate"]
STUDY_RSS_SPANS = ["topo.generate", "core.passive_study", "core.classifier",
                   "core.precompute", "core.analyses", "core.active_alternate",
                   "core.active_magnet", "bgp.measurement_converge"]


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"tail.{name}", unit) for name, unit in TAIL]
    names += [(f"{s}_s", "s") for s in STUDY_SPANS]
    names += [("core.analyses.self_s", "s"), ("study.self_s", "s"),
              ("bgp.selections_run", "count"), ("bgp.rib_routes_scanned", "count"),
              ("bgp.paths_interned", "count"), ("bgp.intern_hit_rate", "ratio"),
              ("core.classifier_cache_misses", "count")]
    names += [(f"{s}.rss_mb", "MB") for s in STUDY_RSS_SPANS]
    names += [("trace.study_wall_s", "s"), ("trace.overhead_s", "s"),
              ("study.startup_ms", "ms"),
              ("serve.snapshot_build_s", "s"), ("serve.snapshot_bytes", "bytes"),
              ("serve.snapshot_load_s", "s"), ("serve.catalog_load_s", "s"),
              ("serve.start_s", "s")]
    names += [(f"serve.server.turnaround_us.{r}", "us") for r in RATE_NAMES]
    names += [("serve.service.peak_queue", "count"),
              ("serve.server.shed_frac", "ratio"),
              ("serve.server.decode_errors", "count")]
    for kind, unit in (("codec_ns", "ns"), ("resp_bytes", "bytes")):
        names += [(f"serve.wire.{kind}.{t}", unit) for t in QUERY_TYPES]
    names += [(f"serve.index.answer_ns.{t}", "ns") for t in QUERY_TYPES]
    names += [(f"serve.catalog.hit_rate.{s}", "ratio") for s in STUDY_NAMES]
    names += [(f"serve.catalog.quota.{s}", "count") for s in STUDY_NAMES]
    names += [(f"gen.lag_ms.{r}", "ms") for r in RATE_NAMES]
    return names


class BenchError(Exception):
    """The benchmark cannot produce a result (build or harness failure)."""


def log(message):
    print(f"# {message}", flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configures and builds the benchmark package from the checkout's own
    sources; a no-op rebuild when nothing changed."""
    for needed in ("src/CMakeLists.txt", "examples/run_study_cli.cpp"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{needed} is missing: run from a repository checkout")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD / "CMakeCache.txt").is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                   f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], 600)
    run_quiet(["cmake", "--build", str(BUILD), "-j", "4"], 880)
    return {name: BUILD / name for name in
            ("run_study_cli", "bench_loadgen", "bench_study_trace")}


def run_quiet(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
        raise BenchError(f"command failed: {' '.join(cmd)}")


# -------------------------------------------------------------- processes

def wait_child(proc, timeout):
    """wait4()s `proc`; returns (exit status, peak RSS in MB of the child)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"{proc.args[0]} timed out")
        time.sleep(0.005)


def timed_child(cmd, timeout, stdout=subprocess.DEVNULL):
    """Runs `cmd`; returns (wall seconds, peak RSS MB). Fails on nonzero exit."""
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.PIPE, cwd=ROOT)
    code, rss = wait_child(proc, timeout)
    wall = time.monotonic() - t0
    err = proc.stderr.read().decode(errors="replace")
    proc.stderr.close()
    if code != 0:
        sys.stderr.write(err[-4000:])
        raise BenchError(f"{Path(cmd[0]).name} {cmd[1] if len(cmd) > 1 else ''} "
                         f"exited with {code}")
    return wall, rss


def read_until(fd, pattern, timeout):
    """Reads `fd` until `pattern` (bytes regex) matches; returns the match."""
    data = b""
    deadline = time.monotonic() + timeout
    while True:
        match = re.search(pattern, data)
        if match:
            return match
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"timed out waiting for {pattern!r}")
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            try:
                chunk = os.read(fd, 4096)
            except OSError:
                chunk = b""
            if not chunk:
                raise BenchError(f"stream closed before {pattern!r}")
            data += chunk


class Server:
    """A `run_study_cli serve --listen 0` child with default flags."""

    def __init__(self, bins, images):
        cmd = [str(bins["run_study_cli"]), "serve"]
        for name, path in images:
            cmd += ["--snapshot", f"{name}={path}"]
        cmd += ["--listen", "0"]
        self.t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, cwd=ROOT)
        try:
            match = read_until(self.proc.stdout.fileno(),
                               rb"on 127\.0\.0\.1:(\d+)", 60)
        except BenchError:
            self.kill()
            raise
        self.port = int(match.group(1))

    def first_reply(self, bins):
        """Seconds from process start to the first answered request."""
        subprocess.run([str(bins["bench_loadgen"]), "probe", "--port",
                        str(self.port)], check=True, stdout=subprocess.DEVNULL,
                       timeout=30)
        return time.monotonic() - self.t0

    def stop(self):
        """Drains with SIGTERM; returns (drain stats text, peak RSS MB)."""
        if self.proc.returncode is not None:
            return "", 0.0
        self.proc.send_signal(signal.SIGTERM)
        text = b""
        deadline = time.monotonic() + 30
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                text += chunk
        _, rss = wait_child(self.proc, 30)
        self.proc.stdout.close()
        return text.decode(errors="replace"), rss

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            wait_child(self.proc, 30)
        self.proc.stdout.close()


def study_startup(bins, seed, scale):
    """Seconds from exec of a full-study run_study_cli to its first pipeline
    call (the line it prints just before run_full_study), read through a
    pseudo-terminal so the line is not held in a stdio buffer."""
    master, slave = pty.openpty()
    try:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [str(bins["run_study_cli"]), "--seed", str(seed), "--scale",
             str(scale), "--threads", str(STUDY_THREADS)],
            stdout=slave, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
            cwd=ROOT)
        os.close(slave)
        slave = None
        try:
            read_until(master, rb"Running study", 30)
            elapsed = time.monotonic() - t0
        finally:
            proc.kill()
            wait_child(proc, 30)
        return elapsed
    finally:
        if slave is not None:
            os.close(slave)
        os.close(master)


# ------------------------------------------------------------------ study

def csv_digest(directory):
    h = hashlib.sha256()
    files = sorted(Path(directory).glob("*.csv"))
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest(), len(files)


def recorded_digests():
    return json.loads((HERE / "study_digests.json").read_text())["digests"]


def study_cmd(bins, seed, scale, out_dir):
    return [str(bins["run_study_cli"]), "--seed", str(seed), "--scale",
            str(scale), "--threads", str(STUDY_THREADS), "--out", str(out_dir)]


def run_study(bins, work, seed, scale, corrupt):
    """One run_study_cli study as a child; returns (wall s, peak RSS MB,
    CSVs match the recorded digest)."""
    study_dir = work / "study_csv"
    shutil.rmtree(study_dir, ignore_errors=True)
    with open(work / "study_stdout.txt", "wb") as out:
        wall, rss = timed_child(study_cmd(bins, seed, scale, study_dir), 170,
                                stdout=out)
    return wall, rss, check_digest(study_dir, seed, scale, corrupt=corrupt)


def check_digest(out_dir, seed, scale, corrupt=False):
    """True when the study CSVs match the digest recorded for (seed, scale)."""
    if corrupt:
        victim = sorted(Path(out_dir).glob("*.csv"))[0]
        victim.write_bytes(victim.read_bytes() + b"corrupted\n")
    digest, files = csv_digest(out_dir)
    want = recorded_digests().get(f"{seed}/{scale}")
    ok = want is not None and digest == want and files > 0
    if not ok:
        log(f"study CSV digest mismatch for seed {seed} scale {scale}: "
            f"{digest} vs recorded {want}")
    return ok


# ---------------------------------------------------------------- serving

def parse_drain_stats(text):
    """Counters the server prints after its SIGTERM drain."""
    stats = {"studies": {}}
    wire = re.search(r"# wire: .*?frames_in=(\d+).*?shed=(\d+).*?"
                     r"decode_errors=(\d+)", text)
    service = re.search(r"# served=(\d+).*?peak_queue=(\d+) "
                        r"cache_hit_rate=([\d.]+)", text)
    if not wire or not service:
        raise BenchError("server printed no drain statistics")
    stats["frames_in"] = int(wire.group(1))
    stats["shed"] = int(wire.group(2))
    stats["decode_errors"] = int(wire.group(3))
    stats["peak_queue"] = int(service.group(2))
    stats["cache_hit_rate"] = float(service.group(3))
    for m in re.finditer(r"study (\S+): .*?cache_quota=(\d+) "
                         r"cache_hit_rate=([\d.]+)", text):
        stats["studies"][m.group(1)] = (int(m.group(2)), float(m.group(3)))
    return stats


def median(values):
    return statistics.median(values) if values else 0.0


def max_qps_slo(phases):
    """Highest ladder rate that met the latency limit with no backlog."""
    best = 0.0
    for p in phases:
        if p["kind"] == "ladder" and p["slo_ok"]:
            best = max(best, p["rate"])
    return best


# --------------------------------------------------------------- workload

def run_workload(bins, name, seed, seconds, trace, work, holdout=False,
                 corrupt=False):
    """Runs one workload; returns (metrics, layers, attempted, failed, gates,
    record)."""
    spec = WORKLOADS[name]
    mix, scale = spec["mix"], STUDY_SCALE
    study_seed = HOLDOUT_SEED if holdout else spec["study_seed"]
    image_seeds = [s + (HOLDOUT_SEED if holdout else 0) for s in spec["images"]]
    layers, gates, record = {}, {}, {"study_seed": study_seed,
                                     "image_seeds": image_seeds,
                                     "stage_end_s": {}}
    t_run = time.monotonic()

    def mark(stage):
        record["stage_end_s"][stage] = time.monotonic() - t_run

    # -- Set-up: snapshot images, server start to first reply, study start.
    images, build_s = [], 0.0
    for i, s in enumerate(image_seeds):
        path = work / f"s{i}.img"
        wall, _ = timed_child([str(bins["run_study_cli"]), "snapshot", "--out",
                               str(path), "--seed", str(s), "--scale", "1",
                               "--threads", str(STUDY_THREADS)], 170)
        build_s += wall
        images.append((STUDY_NAMES[i], path))
    layers["serve.snapshot_build_s"] = build_s
    mark("images")

    starts, server = [], None
    try:
        for i in range(SERVER_STARTS):
            server = Server(bins, images)
            starts.append(server.first_reply(bins))
            if i + 1 < SERVER_STARTS:
                server.kill()
        layers["serve.start_s"] = median(starts)
        startups = [study_startup(bins, study_seed, scale)
                    for _ in range(STUDY_STARTS)]
        layers["study.startup_ms"] = median(startups) * 1e3
        setup_s = build_s + median(starts) + median(startups)

        # Key pools and their expected answers from the shipped binary.
        prepare = [str(bins["bench_loadgen"]), "prepare", "--mix", mix,
                   "--seed", str(seed), "--dir", str(work)]
        for n, p in images:
            prepare += ["--image", f"{n}={p}"]
        if trace:
            prepare += ["--trace", str(work / "prepare_trace.json")]
        timed_child(prepare, 120)
        for n, p in images:
            with open(work / f"expected_{n}.txt", "wb") as out:
                timed_child([str(bins["run_study_cli"]), "query", "--snapshot",
                             f"{n}={p}", "--queries",
                             str(work / f"keys_{n}.txt")], 120, stdout=out)
        if corrupt:
            lines = (work / "expected_s0.txt").read_text().splitlines(True)
            lines[0] = lines[0].rstrip("\n") + " corrupted\n"
            (work / "expected_s0.txt").write_text("".join(lines))

        # -- Measurement: one study run, serving, the other study runs.
        mark("setup")
        studies = [run_study(bins, work, study_seed, scale, corrupt)]
        mark("study_before")
        run = [str(bins["bench_loadgen"]), "run", "--port", str(server.port),
               "--mix", mix, "--seed", str(seed), "--dir", str(work),
               "--out", str(work / "serve.json"),
               "--server-pid", str(server.proc.pid), "--seconds", str(seconds)]
        for n, _ in images:
            run += ["--study", n]
        timed_child(run, 170)
        mark("serving")
        drain_text, serve_rss = server.stop()
    finally:
        if server is not None:
            server.kill()
    serve = json.loads((work / "serve.json").read_text())
    drain = parse_drain_stats(drain_text)
    gates["no_wrong_answers"] = serve["wrong"] == 0
    stall = subprocess.run([str(bins["bench_loadgen"]), "stall-selftest"],
                           stdout=subprocess.PIPE, timeout=60, cwd=ROOT)
    gates["stall_selftest"] = stall.returncode == 0
    record["stall_selftest"] = json.loads(stall.stdout.decode() or "{}")

    mark("stall_selftest")
    while len(studies) < STUDY_RUNS:
        studies.append(run_study(bins, work, study_seed, scale, corrupt))
    mark("studies")
    wall_s = statistics.fmean([wall for wall, _, _ in studies])
    study_rss = max(rss for _, rss, _ in studies)
    study_ok = all(ok for _, _, ok in studies)
    record["study_walls_s"] = [wall for wall, _, _ in studies]
    gates["study_csv_digest"] = study_ok
    if trace:
        trace_dir = work / "traced_csv"
        traced_wall, _ = timed_child(
            [str(bins["bench_study_trace"]), "--seed", str(study_seed),
             "--scale", str(scale), "--threads", str(STUDY_THREADS),
             "--out", str(trace_dir), "--trace", str(work / "study_trace.json")],
            170)
        study_ok = study_ok and check_digest(trace_dir, study_seed, scale)
        gates["study_csv_digest"] = study_ok

    phases = {p["name"]: p for p in serve["phases"]}
    attempted = serve["attempted"] + 1
    failed = serve["failed"] + (0 if study_ok else 1)
    record["phases"] = serve["phases"]
    record["ladder_overload"] = serve["ladder_overload"]
    record["serve_peak_rss_mb_lifetime"] = serve_rss
    record["drain"] = drain
    med = {name: p["window_median"] for name, p in phases.items()}
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "study_peak_rss_mb": study_rss,
        "serve_peak_rss_mb": serve["server_peak_rss_mb_before_ladder"],
        "p50_us_low": med["low"]["p50_us"],
        "p50_us_mid": med["mid"]["p50_us"],
        "closed_p50_us": med["closed"]["p50_us"],
        "closed_qps": med["closed"]["qps"],
        "p99_us_low": med["low"]["p99_us"],
        "p99_us_mid": med["mid"]["p99_us"],
        "p50_us_high": med["high"]["p50_us"],
        "p99_us_high": med["high"]["p99_us"],
        "max_qps_slo": max_qps_slo(serve["phases"]),
    }
    for name, _ in TAIL:
        layers[f"tail.{name}"] = metrics[name]
    if trace:
        layers.update(trace_layers(work, mix, drain, phases, traced_wall, wall_s))
    return metrics, layers, attempted, failed, gates, record


def trace_layers(work, mix, drain, phases, traced_process_s, untraced_wall_s):
    """Per-layer metrics from the traced study, the prepare trace, the
    server's drain counters and the loadgen phases. `traced_process_s` is
    the bench_study_trace child's wall time, `untraced_wall_s` the mean
    run_study_cli wall time of the same run."""
    layers = {}
    study = json.loads((work / "study_trace.json").read_text())
    spans = study["spans"]
    by_name = {s["name"]: s for s in spans}

    def dur(s):
        return s["end_s"] - s["start_s"]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in spans if c["parent"] == s["id"])

    for name in STUDY_SPANS:
        span = by_name.get(name)
        layers[f"{name}_s"] = dur(span) if span else 0.0
    layers["core.analyses.self_s"] = self_time(by_name["core.analyses"])
    layers["study.self_s"] = self_time(by_name["study"])
    for name in STUDY_RSS_SPANS:
        span = by_name.get(name)
        layers[f"{name}.rss_mb"] = span["rss_mb"] if span else 0.0
    c = study["counters"]
    for key in ("bgp.selections_run", "bgp.rib_routes_scanned",
                "bgp.paths_interned", "core.classifier_cache_misses"):
        layers[key] = c[key]
    interns = c["bgp.intern_hits"] + c["bgp.paths_interned"]
    layers["bgp.intern_hit_rate"] = c["bgp.intern_hits"] / interns if interns else 0.0
    # Both sides time a whole process: exec, the study, the CSV reports and
    # the exit. The traced side also re-runs layers after the study, in the
    # "remeasure" span, which is taken out.
    traced_wall_s = traced_process_s - dur(by_name["remeasure"])
    layers["trace.study_wall_s"] = traced_wall_s
    layers["trace.overhead_s"] = traced_wall_s - untraced_wall_s

    prep = json.loads((work / "prepare_trace.json").read_text())
    pc = prep["counters"]
    layers["serve.snapshot_bytes"] = pc["serve.snapshot_bytes"]
    layers["serve.snapshot_load_s"] = sum(
        dur(s) for s in prep["spans"] if s["name"] == "serve.snapshot_load")
    layers["serve.catalog_load_s"] = sum(
        dur(s) for s in prep["spans"] if s["name"] == "serve.catalog_load")
    for t in QUERY_TYPES:
        layers[f"serve.wire.codec_ns.{t}"] = pc[f"serve.wire.codec_ns.{t}"]
        layers[f"serve.wire.resp_bytes.{t}"] = pc[f"serve.wire.resp_bytes.{t}"]
        layers[f"serve.index.answer_ns.{t}"] = pc[f"serve.index.answer_ns.{t}"]
    weights = MIX_WEIGHTS[mix]
    inline_ns = sum(w * (pc[f"serve.index.answer_ns.{t}"] +
                         pc[f"serve.wire.codec_ns.{t}"])
                    for t, w in weights.items()) / sum(weights.values())
    for rate in RATE_NAMES:
        layers[f"serve.server.turnaround_us.{rate}"] = (
            phases[rate]["window_median"]["rtt_p50_us"] - inline_ns / 1e3)
        layers[f"gen.lag_ms.{rate}"] = phases[rate]["window_median"]["lag_p99_ms"]
    layers["serve.service.peak_queue"] = drain["peak_queue"]
    layers["serve.server.shed_frac"] = (drain["shed"] / drain["frames_in"]
                                        if drain["frames_in"] else 0.0)
    layers["serve.server.decode_errors"] = drain["decode_errors"]
    for s in STUDY_NAMES:
        quota, hit = drain["studies"].get(s, (0, 0.0))
        if not drain["studies"] and s == "s0":
            # A one-study server prints no per-study lines: its study holds
            # the whole budget and the global hit rate.
            quota = pc.get("serve.catalog.quota_at_load.s0", 0)
            hit = drain["cache_hit_rate"]
        layers[f"serve.catalog.hit_rate.{s}"] = hit
        layers[f"serve.catalog.quota.{s}"] = quota
    return layers


# ---------------------------------------------------------------- records

def machine_record():
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if proc.returncode == 0:
            commit = proc.stdout.decode().strip()
    h = hashlib.sha256()
    for base in ("src", "examples", "perfbench/src"):
        for f in sorted((ROOT / base).rglob("*")):
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode() + f.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_allowed": len(os.sched_getaffinity(0)),
        "pinning": "unpinned",
        "network": "loopback",
        "build_type": BUILD_TYPE,
        "commit": commit,
        "source_sha256": h.hexdigest(),
    }


def print_result(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }), flush=True)


def one_workload(bins, args, name):
    work = OUT / f"{name}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    metrics, layers, attempted, failed, gates, record = run_workload(
        bins, name, args.seed, args.seconds, args.trace, work, args.holdout)
    # Correct means every output checked was right and every self-test
    # caught its planted fault; `failed` also counts shed and unanswered
    # requests at the fixed rates, which are failures but not wrong output.
    correct = all(gates.values())
    if args.trace:
        units = dict(per_layer_names())
        shown = {k: layers.get(k, 0.0) for k in units}
    else:
        units = dict(END_TO_END)
        shown = {k: metrics[k] for k in units}
    log(f"workload {name} seed {args.seed}: attempted={attempted} "
        f"failed={failed} failed_frac={failed / attempted:.6g} gates={gates}")
    log(f"machine: {machine_record()}")
    for p in record["phases"]:
        pooled = p["pooled"]["latency_us"]
        log(f"phase {p['name']}: rate={p['rate']:.6g}/s n={pooled['n']} "
            f"p50={pooled['p50']:.1f}us p99={pooled['p99']:.1f}us "
            f"p{100 * pooled['top_q']:.2f}={pooled['top']:.1f}us "
            f"slo_ok={p['slo_ok']} failed={p['unanswered'] + p['error_frames'] + p['wrong']}")
    for k, unit in END_TO_END + TAIL:
        log(f"{k} = {metrics[k]:.6g} {unit}")
    if args.trace:
        for k, v in shown.items():
            log(f"{k} = {v:.6g} {units[k]}")
    record.update({"workload": name, "seed": args.seed, "trace": args.trace,
                   "machine": machine_record(), "metrics": metrics,
                   "layers": layers, "gates": gates, "attempted": attempted,
                   "failed": failed, "failed_frac": failed / attempted})
    (OUT / f"result-{work.name}.json").write_text(json.dumps(record, indent=1))
    return correct, attempted, failed, shown, units


def selftest(bins, args):
    """The benchmark's gates must fail on purpose-made faults."""
    work = OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _, _, attempted, failed, gates, record = run_workload(
        bins, "serve-hot", args.seed, 3, False, work, corrupt=True)
    ok = (failed >= 2 and not gates["no_wrong_answers"]
          and not gates["study_csv_digest"] and gates["stall_selftest"])
    log(f"selftest: corrupted expected answer + corrupted CSV gave "
        f"failed={failed} of {attempted}; stall selftest "
        f"{record['stall_selftest']}")
    log("selftest " + ("passed" if ok else "FAILED"))
    return ok


def record_digests(bins):
    digests = {}
    for seed in STUDY_SEEDS + [HOLDOUT_SEED]:
        out = OUT / "digests" / f"{seed}-{STUDY_SCALE}"
        shutil.rmtree(out, ignore_errors=True)
        wall, rss = timed_child(study_cmd(bins, seed, STUDY_SCALE, out), 600)
        digests[f"{seed}/{STUDY_SCALE}"] = csv_digest(out)[0]
        log(f"seed {seed} scale {STUDY_SCALE}: {wall:.2f} s, {rss:.0f} MB")
    (HERE / "study_digests.json").write_text(json.dumps(
        {"note": "sha256 over the sorted study CSVs (name, NUL, bytes, NUL) "
                 "of run_study_cli --seed S --scale N --out DIR; key S/N",
         "digests": digests}, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout", action="store_true",
                    help="run the study on the held-out seed")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    try:
        bins = build()
        OUT.mkdir(exist_ok=True)
        if args.record_digests:
            record_digests(bins)
            return 0
        if args.selftest:
            return 0 if selftest(bins, args) else 1
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            print_result(*one_workload(bins, args, name))
        return 0
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
