#!/usr/bin/env python3
"""Serving benchmark for `matchbounds serve`.

    python3 perfbench/run.py --workload cold-bound --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark

  1. builds `matchbounds` and `perfbench_driver` (Release) into .bench_build;
  2. makes the workload's inputs from --seed: a streamed collection written
     as .xsd files plus its index snapshot, the queries, and the request
     plan (arrival schedule from eval::GenerateTrace);
  3. starts `matchbounds serve --listen=127.0.0.1:0` from the snapshot
     several times (set-up time), and drives the last one over the wire
     protocol for --seconds, closed or open loop;
  4. checks every response: ok, `complete=` >= `target=`, `answers=` equal
     to the written file's `#count=`, sampled answer files byte-identical to
     an in-process BatchMatchEngine::Run, the client's totals reconciled
     with the server's `stats` line, and the workload's cache expectation;
  5. with --trace 1, replays the same requests in-process through the calls
     MatchService::Execute makes, timing each call (perfbench_driver
     replay --spans), and checks the trace against the served answers.

It prints a report and, as its last line, one JSON object: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer ones with --trace 1.
It exits non-zero when any check fails. A full record of each run is kept
under .bench_build/results/.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
SERVER = BUILD / "smb" / "tools" / "matchbounds"
DRIVER = BUILD / "perfbench_driver"
BENCH_JSON = ROOT / "BENCHMARK.json"

# Interactive latency limit for slo_met_fraction.
SLO_MS = 500.0
# Server starts per run; setup_s is their median.
SETUP_SPAWNS = 11
# An open-loop run whose generator sent requests later than this (p99) is
# not trusted.
MAX_GENERATOR_LATE_MS = 50.0
# Requests whose answer files are compared against the in-process engine.
ORACLE_SAMPLES = 2
# Wall-clock budget of the traced replay.
TRACE_SECONDS = 6.0
# Per-request tolerance of the trace: layer self-times must cover this
# share of the request span.
TRACE_COVERAGE = 0.95


@dataclass
class Workload:
    name: str
    schemas: int
    loop: str                     # "closed" or "open"
    connections: int
    server: list
    tail_q: float                 # the tail percentile reported as tail_ms
    queries: int = 0              # 0: as many as the window can use
    zipf: float = 0.0             # > 0: Zipf repetition over `queries`
    hot_set: int = 0              # > 0: Zipf over this many of `queries`,
    volume_target: int = 0        # those whose answer count is nearest
    rate_qps: float = 0.0         # open loop arrival rate
    classes: str = ""
    target_mix: str = ""
    warm_seconds: float = 0.0     # open loop: untimed lead-in
    expect: str = ""              # "no_hits" | "no_timed_misses" | "causes"


BOUND_SERVER = ["--target-bound=0.9", "--min-target-bound=0.9",
                "--workers=2", "--threads=2", "--cache-size=128"]

WORKLOADS = {
    w.name: w for w in (
        Workload("cold-bound", schemas=2000, loop="closed", connections=2,
                 server=BOUND_SERVER, tail_q=0.75, expect="no_hits"),
        Workload("warm-zipf", schemas=2000, loop="closed", connections=4,
                 server=BOUND_SERVER, tail_q=0.95, queries=96, zipf=1.0,
                 hot_set=16, volume_target=2000,
                 expect="no_timed_misses"),
        Workload("interactive-mix", schemas=500, loop="open", connections=4,
                 server=["--target-bound=0.9", "--min-target-bound=0.8",
                         "--workers=2", "--threads=1", "--top=10",
                         "--cache-size=64"],
                 tail_q=0.90, queries=512, zipf=1.0, rate_qps=6.0,
                 classes="interactive:3:300,batch:1:0",
                 target_mix="0,0.85,0.95", warm_seconds=10.0,
                 expect="causes"),
    )
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, what, **kwargs):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True, **kwargs)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.stdout


# ---------------------------------------------------------------- build


def build():
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            rc = subprocess.call(
                ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out)
            if rc != 0:
                raise BenchError(f"cmake configure failed, see {build_log}")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        rc = subprocess.call(
            ["cmake", "--build", str(BUILD), "--target", "matchbounds",
             "perfbench_driver", "-j", jobs], stdout=out, stderr=out)
        if rc != 0:
            raise BenchError(f"build failed, see {build_log}")
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = ""
    for line in cache.splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing an unoptimised build ({build_type!r})")
    info = dict(kv.split("=", 1) for kv in
                run_checked([DRIVER, "info"], "driver info").split())
    return {"cores": os.cpu_count(), "build_type": info["build_type"],
            "simd": info["simd"]}


# --------------------------------------------------------------- inputs


def prepare(workload, seed, seconds, work):
    if work.exists():
        shutil.rmtree(work)
    col, qdir = work / "col", work / "q"
    run_checked([DRIVER, "collection", f"--schemas={workload.schemas}",
                 f"--seed={seed}", f"--out={col}"], "collection")
    cmd = [DRIVER, "requests", f"--schemas={workload.schemas}",
           f"--seed={seed}", f"--out={qdir}"]
    if workload.zipf > 0:
        requests = (int(workload.rate_qps * (seconds + workload.warm_seconds))
                    if workload.loop == "open" else 20000)
        cmd += [f"--queries={workload.queries}", f"--requests={requests}",
                f"--zipf={workload.zipf}",
                f"--rate-qps={workload.rate_qps or 100}"]
        if workload.classes:
            cmd.append(f"--classes={workload.classes}")
        if workload.target_mix:
            cmd.append(f"--target-mix={workload.target_mix}")
        if workload.hot_set:
            cmd.append(f"--trace-queries={workload.hot_set}")
    else:
        # Every request a query never sent before: more than any window
        # can use.
        cmd.append(f"--queries={max(400, int(seconds * 100))}")
    run_checked(cmd, "requests")
    plan = []
    for line in (qdir / "plan.tsv").read_text().splitlines():
        query, arrival_us, cls, deadline_ms, target = line.split("\t")
        plan.append({"query": str(qdir / query), "arrival": int(arrival_us) / 1e6,
                     "class": cls, "deadline_ms": float(deadline_ms),
                     "target": float(target)})
    if workload.loop == "open":
        # Rescale the Poisson schedule so the lead-in and the timed window
        # each offer exactly the nominal rate: run-to-run variation then
        # comes from the server, not from how many arrivals the draw put in
        # the window.
        n_warm = round(workload.rate_qps * workload.warm_seconds)
        for part, start in ((plan[:n_warm], 0.0),
                            (plan[n_warm:], workload.warm_seconds)):
            first, last = part[0]["arrival"], part[-1]["arrival"]
            scale = (len(part) - 1) / workload.rate_qps / (last - first)
            for entry in part:
                entry["arrival"] = start + (entry["arrival"] - first) * scale
    return col, plan


# --------------------------------------------------------------- server


class Server:
    """One `matchbounds serve --listen` child process."""

    def __init__(self, workload, col, log_path):
        cmd = [str(SERVER), "serve", f"--repo={col / 'repo'}",
               f"--snapshot={col / 'index.snap'}", "--listen=127.0.0.1:0"]
        cmd += workload.server
        self.log = open(log_path, "a")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        self.port = None
        self.simd = None
        for line in self.proc.stdout:
            if line.startswith("listening="):
                self.setup_s = time.perf_counter() - start
                fields = dict(kv.split("=", 1) for kv in line.split())
                self.port = int(fields["listening"].rsplit(":", 1)[1])
                self.simd = fields.get("simd")
                break
        if self.port is None:
            self.stop()
            raise BenchError(f"server exited before listening, see {log_path}")

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        """SIGTERM, then wait for the graceful drain; returns its last line."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rest = self.proc.communicate(timeout=30)[0] or ""
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest = self.proc.communicate()[0] or ""
        self.log.close()
        lines = [l for l in rest.splitlines() if l.strip()]
        return lines[-1] if lines else ""


def stats_line(port):
    """The server's `stats` response."""
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.sendall(b"stats\nquit\n")
        reader = sock.makefile("rb")
        line = reader.readline().decode().rstrip("\n")
        reader.readline()
    if not line.startswith("stats "):
        raise BenchError(f"unexpected stats reply {line!r}")
    return line


def parse_fields(tokens):
    return dict(t.split("=", 1) for t in tokens if "=" in t)


# ----------------------------------------------------------------- load


def distinct_queries(plan):
    """The workload's distinct query files (qNNNN.txt beside the plan)."""
    qdir = Path(plan[0]["query"]).parent
    return sorted(str(p) for p in qdir.glob("q*.txt"))


def hot_set(workload, plan, warm_records):
    """Remaps the plan so popularity rank k (query qNNNN, NNNN = k) goes to
    the lead-in query whose answer count is k-th nearest the workload's
    volume target. A hit's cost is mostly writing its answers, so this
    keeps the hot keys' volume, and with it the hit path's cost, from
    depending on which random queries a seed drew."""
    counts = {r["entry"]["query"]: int(r["fields"]["answers"])
              for r in warm_records if r["ok"]}
    target = math.log(workload.volume_target)
    ranked = sorted(counts, key=lambda q: (
        abs(math.log(max(counts[q], 1)) - target), q))
    rank_of = {q: k for k, q in enumerate(distinct_queries(plan))}
    return [dict(e, query=ranked[rank_of[e["query"]]]) for e in plan]


def request_suffix(entry):
    suffix = ""
    if entry["class"] != "default":
        suffix += f" class={entry['class']}"
    if entry["deadline_ms"] > 0:
        suffix += f" deadline_ms={entry['deadline_ms']:g}"
    if entry["target"] > 0:
        suffix += f" target={entry['target']:g}"
    return suffix


def run_load(workload, port, entries, seconds, work, samples, first=0):
    """Drives the server with perfbench_driver load over (phase, entry)
    pairs; returns one record per request, in send order, numbered from
    `first`. The `samples` keep their answer files."""
    plan_path, out_path = work / "load.tsv", work / "load-records.tsv"
    with open(plan_path, "w") as f:
        for phase, e in entries:
            f.write(f"{phase}\t{round(e['arrival'] * 1e6)}\t{e['query']}\t"
                    f"{request_suffix(e)}\n")
    cmd = [DRIVER, "load", f"--port={port}", f"--plan={plan_path}",
           f"--answers-dir={work / 'answers'}", f"--out={out_path}",
           f"--loop={workload.loop}", f"--connections={workload.connections}",
           f"--seconds={seconds}", f"--first-index={first}",
           "--samples=" + ",".join(str(i) for i in sorted(samples))]
    if workload.zipf > 0:
        cmd.append("--cycle")
    run_checked(cmd, "load")
    records = []
    for line in out_path.read_text().splitlines():
        (idx, entry, phase, conn, scheduled, sent, recv, count,
         reply) = line.split("\t", 8)
        tokens = reply.split()
        ok = bool(tokens) and tokens[0] == "ok"
        fields = parse_fields(tokens[2:]) if ok else {}
        records.append({
            "idx": int(idx), "entry": entries[int(entry)][1],
            "phase": phase,
            "conn": int(conn), "scheduled": int(scheduled) / 1e9,
            "sent": int(sent) / 1e9,
            "recv": int(recv) / 1e9, "ok": ok, "reply": reply,
            "fields": fields, "hit": fields.get("cache") == "hit" if ok else None,
            "file_count": int(count) if int(count) >= 0 else None})
    return records


# ------------------------------------------------------------- analysis


def effective_target(rec):
    return float(rec["fields"]["target"])


def key_of(rec):
    return (rec["entry"]["query"], rec["fields"].get("target"))


def check_outputs(records, workload):
    problems = []
    for rec in records:
        if not rec["ok"]:
            problems.append(f"request {rec['idx']} failed: {rec['reply']}")
            continue
        f = rec["fields"]
        complete = float(f["complete"].rstrip("%")) / 100.0
        # complete= carries one decimal of a percentage.
        if complete + 0.0005 < effective_target(rec):
            problems.append(f"request {rec['idx']}: complete={f['complete']} "
                            f"below target={f['target']}")
        if rec["file_count"] != int(f["answers"]):
            problems.append(f"request {rec['idx']}: answers={f['answers']} but "
                            f"file #count={rec['file_count']}")
    timed = [r for r in records if r["phase"] == "timed" and r["ok"]]
    if workload.expect == "no_hits" and any(r["hit"] for r in records if r["ok"]):
        problems.append("cold-bound served a cache hit")
    if workload.expect == "no_timed_misses" and any(not r["hit"] for r in timed):
        problems.append("warm-zipf missed the cache in the timed window")
    return problems


def summarize(values, q=None):
    if not values:
        return None
    return benchlib.nearest_rank(values, 0.5 if q is None else q)


def end_to_end(workload, records, setups, peak_rss):
    timed = [r for r in records if r["phase"] == "timed"]
    ok = [r for r in timed if r["ok"]]
    first = min(r["scheduled"] for r in timed)
    last = max(r["recv"] for r in timed)
    lat = [(r["recv"] - r["scheduled"]) * 1e3 for r in ok]
    hits = [(r["recv"] - r["scheduled"]) * 1e3 for r in ok if r["hit"]]
    misses = [(r["recv"] - r["scheduled"]) * 1e3 for r in ok if not r["hit"]]
    shed = sum(1 for r in ok if r["fields"].get("shed") == "yes")
    m = {
        "setup_s": statistics.median(setups),
        "throughput_qps": len(ok) / (last - first),
        "p50_ms": summarize(lat),
        "tail_ms": summarize(lat, workload.tail_q),
        "miss_p50_ms": summarize(misses),
        "miss_p90_ms": summarize(misses, 0.90),
        "hit_p50_ms": summarize(hits),
        "hit_p99_ms": summarize(hits, 0.99),
        "p99_ms": summarize(lat, 0.99),
        "slo_met_fraction": sum(1 for x in lat if x <= SLO_MS) / len(timed),
        "error_fraction": (len(timed) - len(ok)) / len(timed),
        "shed_fraction": shed / len(ok) if ok else None,
        "certified_mean": statistics.mean(
            float(r["fields"]["complete"].rstrip("%")) / 100.0 for r in ok),
        "peak_rss_mb": peak_rss,
    }
    counts = {"requests": len(timed), "ok": len(ok), "hits": len(hits),
              "misses": len(misses), "window_s": last - first}
    return m, counts


E2E_UNITS = {
    "setup_s": "s", "throughput_qps": "1/s", "p50_ms": "ms", "tail_ms": "ms",
    "miss_p50_ms": "ms", "miss_p90_ms": "ms", "hit_p50_ms": "ms",
    "hit_p99_ms": "ms", "p99_ms": "ms", "slo_met_fraction": "fraction",
    "error_fraction": "fraction", "shed_fraction": "fraction",
    "certified_mean": "fraction", "peak_rss_mb": "MB",
}


def serve_layers(records, stats, causes):
    timed = [r for r in records if r["phase"] == "timed" and r["ok"]]
    queue = [float(r["fields"]["queue_ms"]) for r in timed]
    service = [float(r["fields"]["latency_ms"]) for r in timed]
    wire = [(r["recv"] - r["sent"]) * 1e3 - float(r["fields"]["latency_ms"])
            - float(r["fields"]["queue_ms"]) for r in timed]
    ok = [r for r in records if r["ok"]]
    hits = sum(1 for r in ok if r["hit"])
    return {
        "serve.queue_ms.p50": (summarize(queue), "ms"),
        "serve.queue_ms.p99": (summarize(queue, 0.99), "ms"),
        "serve.service_ms.p50": (summarize(service), "ms"),
        "serve.wire_ms.p50": (summarize(wire), "ms"),
        "serve.shed": (sum(1 for r in timed if r["fields"].get("shed") == "yes"),
                       "count"),
        "engine.cache.hit_rate": (hits / len(ok), "fraction"),
        "engine.cache.evictions": (int(stats["cache_evictions"]), "count"),
        "engine.cache.miss.first_sight": (causes.count("first_sight"), "count"),
        "engine.cache.miss.eviction": (causes.count("eviction"), "count"),
        "engine.cache.miss.duplicate": (causes.count("duplicate"), "count"),
    }


def replay(workload, col, records, samples, out_dir, cache_size, extra=()):
    """Runs perfbench_driver replay over served records at their effective
    targets; the samples' answers are kept in out_dir."""
    plan_path = out_dir / "replay.tsv"
    with open(plan_path, "w") as f:
        for rec in records:
            f.write(f"{rec['idx']}\t{rec['entry']['query']}\t"
                    f"{rec['fields']['target']}\t"
                    f"{int(rec['idx'] in samples)}\n")
    flags = [a for a in workload.server
             if a.split("=")[0] in ("--target-bound", "--min-target-bound",
                                    "--threads", "--top")]
    flags.append(f"--cache-size={cache_size}")
    cmd = [DRIVER, "replay", f"--repo={col / 'repo'}",
           f"--snapshot={col / 'index.snap'}", f"--plan={plan_path}",
           f"--answers-dir={out_dir}"]
    return run_checked(cmd + flags + list(extra), "replay")


def server_cache_size(workload):
    for a in workload.server:
        if a.startswith("--cache-size="):
            return int(a.split("=", 1)[1])
    return 64


def same_bytes(a, b):
    return Path(a).read_bytes() == Path(b).read_bytes()


def traced_layers(spans_path, records):
    spans, reqs = {}, {}
    for line in Path(spans_path).read_text().splitlines():
        obj = json.loads(line)
        if obj["kind"] == "span":
            spans[obj["id"]] = {"name": obj["name"], "parent": obj["parent"],
                                "req": obj["req"], "start": obj["start_ns"],
                                "end": obj["end_ns"]}
        else:
            reqs[obj["req"]] = obj
    selfs = benchlib.self_times(spans)
    by_name = {}
    for sid, s in spans.items():
        by_name.setdefault(s["name"], []).append((s["end"] - s["start"]) / 1e6)

    problems = []
    fidelity = []
    for sid, s in spans.items():
        if s["name"] != "request":
            continue
        total = s["end"] - s["start"]
        covered = total - selfs[sid]
        if total > 0 and covered < TRACE_COVERAGE * total:
            problems.append(f"trace: request {s['req']} layers cover "
                            f"{covered / total:.1%} of its span")
        rec = records[s["req"]]
        served = float(rec["fields"]["latency_ms"])
        if served > 0:
            fidelity.append(total / 1e6 / served)

    def ms(name, q=0.5):
        return summarize(by_name.get(name, []), q)

    def us(name):
        v = ms(name)
        return None if v is None else v * 1e3

    def seconds(name):
        v = ms(name)
        return None if v is None else v / 1e3

    misses = [r for r in reqs.values() if not r["hit"]]

    def mean(key):
        vals = [r[key] for r in misses]
        return statistics.mean(vals) if vals else None

    def miss_ms(key):
        vals = [r[key] * 1e3 for r in misses]
        return summarize(vals)

    run_ms = {s["req"]: (s["end"] - s["start"]) / 1e6 for s in spans.values()
              if s["name"] == "engine.run"}
    merge = [run_ms[r["req"]]
             - (r["index_s"] + r["precompute_s"] + r["match_s"]) * 1e3
             for r in misses]
    round0 = by_name.get("index.round0", [])
    adaptive = by_name.get("index.adaptive", [])
    escalation = [a - b for a, b in zip(adaptive, round0)]
    write_ms = by_name.get("eval.write", [])
    write_bytes = [r["bytes"] for r in reqs.values()]
    scored = sum(r["scored"] for r in misses)
    kept = sum(r["kept"] for r in misses)
    emitted = sum(r["mappings_emitted"] for r in misses)
    cells = sum(r["cells_total"] for r in misses)
    layers = {
        "io.read_us.p50": (us("io.read"), "us"),
        "schema.parse_us.p50": (us("schema.parse"), "us"),
        "match.fingerprint_us.p50": (us("match.fingerprint"), "us"),
        "engine.cache.lookup_us.p50": (us("engine.cache.lookup"), "us"),
        "engine.cache.insert_us.p50": (us("engine.cache.insert"), "us"),
        "eval.write_ms.p50": (ms("eval.write"), "ms"),
        "eval.write_bytes.mean": (statistics.mean(write_bytes), "B"),
        "eval.write_mb_per_s": (sum(write_bytes) / 1e6 / (sum(write_ms) / 1e3)
                                if sum(write_ms) > 0 else None, "MB/s"),
        "engine.run_ms.p50": (ms("engine.run"), "ms"),
        "engine.index_ms.p50": (miss_ms("index_s"), "ms"),
        "engine.precompute_ms.p50": (miss_ms("precompute_s"), "ms"),
        "engine.match_ms.p50": (miss_ms("match_s"), "ms"),
        "engine.merge_ms.p50": (summarize(merge), "ms"),
        "engine.shard_skew": (summarize([r["shard_skew"] for r in misses]),
                              "ratio"),
        "index.round0_ms.p50": (summarize(round0), "ms"),
        "index.adaptive_ms.p50": (summarize(adaptive), "ms"),
        "index.escalation_ms.p50": (summarize(escalation), "ms"),
        "index.scored": (mean("scored"), "count"),
        "index.kept": (mean("kept"), "count"),
        "index.kept_per_scored": (kept / scored if scored else None, "ratio"),
        "index.rounds.mean": (mean("rounds"), "count"),
        "index.cells_escalated_fraction": (
            sum(r["cells_escalated"] for r in misses) / cells if cells else None,
            "fraction"),
        "index.achieved_completeness": (mean("achieved"), "fraction"),
        "match.states_explored": (mean("states_explored"), "count"),
        "match.states_pruned": (mean("states_pruned"), "count"),
        "match.mappings_emitted": (mean("mappings_emitted"), "count"),
        "match.served_per_emitted": (
            sum(r["answers"] for r in misses) / emitted if emitted else None,
            "ratio"),
        "schema.load_dir_s": (seconds("schema.load_dir"), "s"),
        "index.build_s": (seconds("index.build"), "s"),
        "index.snapshot_load_s": (seconds("index.snapshot_load"), "s"),
        "trace.fidelity": (summarize(fidelity), "ratio"),
        "trace.requests": (len(reqs), "count"),
        "trace.misses": (len(misses), "count"),
    }
    return layers, problems


# ----------------------------------------------------------------- main


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def phase(name, since):
    now = time.perf_counter()
    log(f"perfbench: {name} {now - since:.2f}s")
    return now


def run(args):
    workload = WORKLOADS[args.workload]
    t = time.perf_counter()
    stamp = build()
    stamp["seed"] = args.seed
    t = phase("build", t)
    work = BUILD / "work" / args.workload
    col, plan = prepare(workload, args.seed, args.seconds, work)
    t = phase("inputs", t)
    ans_dir = work / "answers"
    ans_dir.mkdir()
    server_log = work / "server.log"

    setups = []
    server = None
    try:
        for i in range(SETUP_SPAWNS):
            server = Server(workload, col, server_log)
            setups.append(server.setup_s)
            if i + 1 < SETUP_SPAWNS:
                server.stop()
                server = None
        stamp["simd_server"] = server.simd
        t = phase("setup", t)
        # The oracle samples are the first timed requests.
        if workload.loop == "open":
            entries = [("warm" if e["arrival"] < workload.warm_seconds
                        else "timed", e) for e in plan]
            warm = sum(1 for p, _ in entries if p == "warm")
            samples = set(range(warm, warm + ORACLE_SAMPLES))
            records = run_load(workload, server.port, entries, 0, work,
                               samples)
        else:
            # Untimed lead-in: every distinct query once when the workload
            # repeats them (this fills the cache), else a few fresh ones.
            if workload.zipf > 0:
                lead = [dict(plan[0], query=q) for q in distinct_queries(plan)]
                timed = plan
            else:
                lead, timed = plan[:4], plan[4:]
            records = run_load(workload, server.port,
                               [("warm", e) for e in lead], 0, work, set())
            if workload.hot_set:
                timed = hot_set(workload, plan, records)
                # The cache is striped, so the lead-in may have evicted a
                # hot key. One more untimed pass over the hot keys makes
                # them all resident; the timed window then inserts nothing.
                hot = sorted({e["query"] for e in timed})
                records += run_load(
                    workload, server.port,
                    [("warm", dict(plan[0], query=q)) for q in hot], 0,
                    work, set(), first=len(records))
            samples = set(range(len(records), len(records) + ORACLE_SAMPLES))
            records += run_load(workload, server.port,
                                [("timed", e) for e in timed], args.seconds,
                                work, samples, first=len(records))
        stats = stats_line(server.port)
        peak_rss = server.peak_rss_mb()
    finally:
        drained = server.stop() if server is not None else ""

    t = phase("load", t)
    problems = check_outputs(records, workload)
    if "dropped=0" not in drained:
        problems.append(f"server did not drain cleanly: {drained!r}")
    stats_text, stats = stats, parse_fields(stats.split()[1:])

    ok_records = [r for r in records if r["ok"]]
    causes = benchlib.classify_misses([
        {"key": key_of(r) if r["ok"] else None, "sent": r["sent"],
         "recv": r["recv"], "ok": r["ok"], "hit": r["hit"]} for r in records])
    client = {
        "ok": len(ok_records), "failed": len(records) - len(ok_records),
        "hits": sum(1 for r in ok_records if r["hit"]),
        "misses": sum(1 for r in ok_records if not r["hit"]),
        "duplicate_misses": causes.count("duplicate"),
        "eviction_misses": causes.count("eviction"),
    }
    problems += [f"reconcile {p}" for p in benchlib.reconcile(client, stats)]
    if workload.expect == "causes":
        seen = {c for c in causes if c}
        if len(seen) < 2:
            problems.append(f"interactive-mix saw miss causes {sorted(seen)}, "
                            "expected at least two")

    e2e, counts = end_to_end(workload, records, setups, peak_rss)
    timed = [r for r in records if r["phase"] == "timed"]
    if workload.loop == "open":
        # Lateness counts waiting for a free connection too: a request sent
        # late reaches the server's queue late, whatever held it back.
        late = [(r["sent"] - r["scheduled"]) * 1e3 for r in timed]
        e2e["generator_late_p99_ms"] = benchlib.nearest_rank(late, 0.99)
        if e2e["generator_late_p99_ms"] > MAX_GENERATOR_LATE_MS:
            problems.append(f"generator ran {e2e['generator_late_p99_ms']:.1f} ms "
                            "late at p99: the schedule was not kept")

    sample_recs = [records[i] for i in sorted(samples)
                   if i < len(records) and records[i]["ok"]]
    layers = {}
    oracle_dir = work / "oracle"
    oracle_dir.mkdir()
    t = phase("analysis", t)
    if args.trace:
        # Replay the served sequence through the samples, and on for the
        # time budget. Lead-in queries that the timed requests never ask
        # for are left out.
        asked = {r["entry"]["query"] for r in records if r["phase"] == "timed"}
        replayed = [r for r in records
                    if r["ok"] and r["entry"]["query"] in asked]
        need = max((i + 1 for i, r in enumerate(replayed)
                    if r["idx"] in samples), default=1)
        spans_path = work / "spans.jsonl"
        replay(workload, col, replayed, samples, oracle_dir,
               server_cache_size(workload),
               [f"--spans={spans_path}", f"--max-seconds={TRACE_SECONDS}",
                f"--min-requests={need}"])
        layers, trace_problems = traced_layers(spans_path, records)
        problems += trace_problems
        layers.update(serve_layers(records, stats, causes))
    else:
        replay(workload, col, sample_recs, samples, oracle_dir, 0)
    if len(sample_recs) < ORACLE_SAMPLES:
        problems.append("too few sampled requests for the answer check")
    for r in sample_recs:
        if not same_bytes(ans_dir / f"sample-{r['idx']}.csv",
                          oracle_dir / f"sample-{r['idx']}.csv"):
            problems.append(f"request {r['idx']}: served answers differ from "
                            "the in-process engine")

    t = phase("replay", t)
    # Report.
    print(f"stamp workload={args.workload} seed={args.seed} "
          f"cores={stamp['cores']} build_type={stamp['build_type']} "
          f"simd={stamp['simd']} trace={args.trace}")
    print(f"load loop={workload.loop} connections={workload.connections} "
          f"window_s={counts['window_s']:.2f} requests={counts['requests']} "
          f"ok={counts['ok']} hits={counts['hits']} misses={counts['misses']} "
          f"session_requests={len(records)}")
    n = counts["ok"]
    tail_note = (f"{benchlib.percentile_label(workload.tail_q)} of {n}, "
                 f"{benchlib.beyond(n, workload.tail_q)} beyond; highest "
                 f"supported: {fmt(benchlib.highest_supported_percentile(n))}")
    for name, value in e2e.items():
        unit = E2E_UNITS.get(name, "ms")
        note = f"  ({tail_note})" if name == "tail_ms" else ""
        print(f"e2e {name} = {fmt(value)} {unit}{note}")
    print(f"reconcile client={client} server_stats={stats_text!r}")
    for name, (value, unit) in layers.items():
        print(f"layer {name} = {fmt(value)} {unit}")

    with open(BENCH_JSON) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = (layers.get(m["name"], (None,))[0] if args.trace
                 else e2e.get(m["name"]))
        if value is None:
            problems.append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for p in problems:
        print(f"FAIL {p}")
    result = {"correct": not problems, "attempted": counts["requests"],
              "failed": counts["requests"] - counts["ok"], "metrics": metrics}
    results_dir = BUILD / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"stamp": stamp, "e2e": e2e, "counts": counts,
                              "layers": layers, "problems": problems,
                              "result": result}, indent=1, default=str))
    print(json.dumps(result))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
