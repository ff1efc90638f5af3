"""Pure helpers of the serving benchmark: percentiles, span self-times,
miss-cause attribution and the client/server reconciliation.

Kept free of I/O so that perfbench/selftest.py can check each rule on
scripted inputs.
"""

import math
import statistics

# Percentiles considered when choosing "the highest percentile with at least
# ten samples beyond it".
TAIL_CANDIDATES = (0.50, 0.75, 0.90, 0.95, 0.99, 0.999)
MIN_BEYOND = 10


def nearest_rank(samples, q):
    """The q-quantile by the nearest-rank rule: the ceil(q * n)-th smallest
    sample (1-based), the same rule as smb::NearestRankQuantile. None when
    there are no samples."""
    if not samples:
        return None
    ordered = sorted(samples)
    q = min(max(q, 0.0), 1.0)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - max(1, math.ceil(q * n))


def highest_supported_percentile(n, candidates=TAIL_CANDIDATES,
                                 min_beyond=MIN_BEYOND):
    """The highest candidate percentile with at least `min_beyond` samples
    beyond it, or None when even the median has fewer."""
    best = None
    for q in candidates:
        if beyond(n, q) >= min_beyond:
            best = q
    return best


def percentile_label(q):
    text = f"{q * 100:.1f}".rstrip("0").rstrip(".")
    return "p" + text


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children (overlapping children counted once).

    `spans` maps span id -> dict with start, end, parent (-1 for roots).
    Returns span id -> self time in the spans' time unit."""
    children = {}
    for sid, span in spans.items():
        children.setdefault(span["parent"], []).append(sid)
    result = {}
    for sid, span in spans.items():
        lo, hi = span["start"], span["end"]
        covered = 0
        cursor = lo
        intervals = sorted((max(lo, spans[c]["start"]), min(hi, spans[c]["end"]))
                           for c in children.get(sid, []))
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[sid] = (hi - lo) - covered
    return result


def classify_misses(records):
    """Attributes every cache miss to a cause, from the client's own view.

    `records`: dicts with key, sent, recv, ok, hit (hit is None for failed
    requests). A miss is
      * "duplicate" when another miss on the same key was in flight when it
        was sent (sent earlier, answered later);
      * "eviction" when the key was served before it was sent (an earlier
        response arrived, or a hit on it was still in flight), so the entry
        must have been evicted in between;
      * "first_sight" otherwise.
    Returns a list parallel to `records`: the cause, or None for hits and
    failures."""
    by_key = {}
    for i, r in enumerate(records):
        if r["ok"]:
            by_key.setdefault(r["key"], []).append(i)
    causes = [None] * len(records)
    for i, r in enumerate(records):
        if not r["ok"] or r["hit"]:
            continue
        cause = "first_sight"
        for j in by_key[r["key"]]:
            o = records[j]
            if j == i or o["sent"] >= r["sent"]:
                continue
            if o["recv"] > r["sent"] and not o["hit"]:
                cause = "duplicate"
                break
            cause = "eviction"
        causes[i] = cause
    return causes


def reconcile(client, server):
    """Checks the client's totals against the server's `stats` fields.

    `client`: ok, failed, hits, misses, duplicate_misses, eviction_misses.
    `server`: the parsed stats line (strings), with cache_entries "n/cap".
    Served, failed, hit and miss totals must match exactly. Every miss
    inserts its answers, so evictions = misses - replaced - resident, where
    only a miss that raced another miss on its key can replace an entry:
    the eviction total is exact when no duplicate miss occurred and lies in
    [misses - duplicates - resident, misses - resident] otherwise, and it
    covers every miss the client attributed to eviction.
    Returns a list of mismatch descriptions (empty when reconciled)."""
    problems = []
    pairs = (("served", client["ok"]), ("failed", client["failed"]),
             ("cache_hits", client["hits"]), ("cache_misses", client["misses"]))
    for name, value in pairs:
        if int(server[name]) != value:
            problems.append(f"{name}: server {server[name]} != client {value}")
    evictions = int(server["cache_evictions"])
    resident = int(server["cache_entries"].split("/")[0])
    high = client["misses"] - resident
    low = high - client["duplicate_misses"]
    if not low <= evictions <= high:
        problems.append(f"cache_evictions: server {evictions} outside "
                        f"client [{low}, {high}]")
    if client["eviction_misses"] > evictions:
        problems.append(f"cache_evictions: server {evictions} < "
                        f"{client['eviction_misses']} eviction misses")
    return problems


def spread(values):
    """Interquartile range over the median, as the acceptance rule takes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
