#!/usr/bin/env python3
"""End-to-end smoke test of the `matchbounds` command-line wiring.

Usage: cli_smoke_test.py PATH/TO/matchbounds

In a temporary directory it generates a 60-schema collection, then checks
that every front end serves the same S2:

* `serve --requests` twice: the first run builds and saves the snapshot,
  the second loads it, hits the cache and hot-reloads it;
* the served answers are byte-identical to `match --candidates=8`;
* `serve --listen` (bound-driven, target 0.9) answers `client
  --connections=4` byte-identically to `match --target-bound=0.9`;
* `loadtest --trace` in-process and against the live server write
  byte-identical answer files, and the in-process run saves the snapshot
  it had to build;
* `serve` without `--listen` or `--requests`, and a shed floor without a
  target, are rejected.

Exit status 0 on success, 1 with a diagnostic on the first failure.
"""

import filecmp
import os
import shutil
import signal
import subprocess
import sys
import tempfile


def run(binary, *args, expect_ok=True):
    proc = subprocess.run([binary, *args], capture_output=True, text=True,
                          timeout=300)
    if (proc.returncode == 0) != expect_ok:
        raise AssertionError(
            f"matchbounds {' '.join(args)} exited {proc.returncode}:\n"
            f"{proc.stdout}{proc.stderr}")
    return proc.stdout + proc.stderr


def expect(condition, what, output=""):
    if not condition:
        raise AssertionError(f"{what}\n{output}")


def same_file(a, b):
    expect(filecmp.cmp(a, b, shallow=False), f"{a} and {b} differ")


def write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def offline_serve(binary, tmp, col, snapshot):
    first = os.path.join(tmp, "requests1.txt")
    write(first, f"match {col}/query.txt {tmp}/serve-build.csv\nstats\nquit\n")
    out = run(binary, "serve", f"--repo={col}", f"--snapshot={snapshot}",
              "--candidates=8", f"--requests={first}")
    expect("index=built" in out, "first serve run did not build", out)
    expect(os.path.exists(snapshot), "first serve run saved no snapshot")

    second = os.path.join(tmp, "requests2.txt")
    write(second,
          f"match {col}/query.txt {tmp}/serve-load.csv\n"
          f"match {col}/query.txt {tmp}/serve-cached.csv\n"
          f"reload {snapshot}\n"
          f"match {col}/query.txt {tmp}/serve-reload.csv\n"
          "stats\nquit\n")
    out = run(binary, "serve", f"--repo={col}", f"--snapshot={snapshot}",
              "--candidates=8", f"--requests={second}")
    for needle in ("index=snapshot", "cache=hit",
                   "reloaded generation=2 source=snapshot schemas=60 load_ms=",
                   "stats generation=2", "bye served=3 failed=0"):
        expect(needle in out, f"second serve run lacks '{needle}'", out)

    run(binary, "match", f"--repo={col}", f"--query={col}/query.txt",
        "--candidates=8", f"--out={tmp}/inmem.csv")
    for name in ("build", "load", "cached", "reload"):
        same_file(f"{tmp}/serve-{name}.csv", f"{tmp}/inmem.csv")


def start_server(binary, tmp, col):
    log = open(os.path.join(tmp, "serve-net.log"), "w+", encoding="utf-8")
    server = subprocess.Popen(
        [binary, "serve", f"--repo={col}", "--listen=127.0.0.1:0",
         "--workers=2", "--queue-depth=16", "--target-bound=0.9",
         "--min-target-bound=0.5"],
        stdout=subprocess.PIPE, stderr=log, text=True)
    for line in server.stdout:
        if line.startswith("listening="):
            return server, int(line.split()[0].rsplit(":", 1)[1])
    server.wait(timeout=30)
    log.seek(0)
    raise AssertionError("server exited before listening:\n" + log.read())


def network_serve(binary, tmp, col, port):
    requests = os.path.join(tmp, "net-requests.txt")
    write(requests, "".join(f"match {col}/query.txt {tmp}/net-{tag}.csv\n"
                            for tag in "abcd"))
    out = run(binary, "client", f"--connect=127.0.0.1:{port}",
              f"--requests={requests}", "--connections=4")
    expect("ok=4 err=0" in out, "client replay failed", out)
    run(binary, "match", f"--repo={col}", f"--query={col}/query.txt",
        "--target-bound=0.9", f"--out={tmp}/net-direct.csv")
    for tag in "abcd":
        same_file(f"{tmp}/net-{tag}.csv", f"{tmp}/net-direct.csv")


def trace_replay(binary, tmp, col, port):
    trace_dir = os.path.join(tmp, "trace")
    run(binary, "trace", f"--out={trace_dir}", "--queries=3",
        "--requests=24", "--target-mix=0,0.85,0.95")
    # Point the trace's first query at the collection's own query, so the
    # compared answer files are not all empty.
    shutil.copy(os.path.join(col, "query.txt"),
                os.path.join(trace_dir, "q0.txt"))
    trace = os.path.join(trace_dir, "trace.smbtrace")
    snapshot = os.path.join(tmp, "trace.snap")
    offline = os.path.join(tmp, "answers-offline")
    live = os.path.join(tmp, "answers-live")
    run(binary, "loadtest", f"--trace={trace}", f"--repo={col}",
        f"--snapshot={snapshot}", "--target-bound=0.9",
        "--min-target-bound=0.5", f"--answers-dir={offline}")
    expect(os.path.exists(snapshot),
           "in-process loadtest --trace saved no snapshot")
    run(binary, "loadtest", f"--trace={trace}",
        f"--connect=127.0.0.1:{port}", f"--answers-dir={live}")
    names = sorted(os.listdir(offline))
    expect(len(names) == 24, f"expected 24 answer files, got {len(names)}")
    expect(names == sorted(os.listdir(live)), "answer file sets differ")
    nonempty = 0
    for name in names:
        same_file(os.path.join(offline, name), os.path.join(live, name))
        nonempty += os.path.getsize(os.path.join(offline, name)) > 64
    expect(nonempty > 0, "every replayed answer file is empty")


def rejections(binary, tmp, col):
    out = run(binary, "serve", f"--repo={col}", expect_ok=False)
    expect("INVALID_ARGUMENT" in out and "--requests" in out,
           "serve without --listen/--requests was not rejected", out)
    out = run(binary, "loadtest", f"--trace={tmp}/trace/trace.smbtrace",
              f"--repo={col}", "--min-target-bound=0.5", expect_ok=False)
    expect("INVALID_ARGUMENT" in out and "--min-target-bound" in out,
           "loadtest --trace accepted a floor without a target", out)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory(prefix="smb_cli_smoke_") as tmp:
        col = os.path.join(tmp, "col")
        run(binary, "generate", f"--out={col}", "--schemas=60", "--seed=7")
        offline_serve(binary, tmp, col, os.path.join(tmp, "col.snap"))
        server, port = start_server(binary, tmp, col)
        try:
            network_serve(binary, tmp, col, port)
            trace_replay(binary, tmp, col, port)
        finally:
            server.send_signal(signal.SIGTERM)
            rest = server.communicate(timeout=60)[0]
        expect("dropped=0" in rest, "server drain dropped requests", rest)
        rejections(binary, tmp, col)
    print("cli smoke ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        sys.exit(1)
