#!/usr/bin/env python3
"""Checks the BENCH_*.json files the smoke-run benches write.

Usage (from the directory the benches ran in, the repository root in CI):

    python3 bench/check_gates.py

Every file must carry its required keys, report "pass": true and hold at
least one result row, and each bench's own gates are re-checked from its
raw rows. The first failed check raises AssertionError, so the exit code is
nonzero; docs/benchmarks.md describes each gate.
"""

import json
required = {
    "BENCH_multiuser.json": [
        "bench", "fast_mode", "pass", "results"],
    "BENCH_tiered_memory.json": [
        "bench", "fast_mode", "pass", "budget_bytes",
        "resident_ratio", "codec", "results"],
    "BENCH_admission.json": [
        "bench", "fast_mode", "pass", "budget_bytes",
        "victim_hit_ratio", "results"],
    "BENCH_prefetch_dedup.json": [
        "bench", "fast_mode", "pass", "results"],
    "BENCH_batch_fetch.json": [
        "bench", "fast_mode", "pass", "round_trip_reduction_64",
        "results"],
    "BENCH_range_coalesce.json": [
        "bench", "fast_mode", "pass", "chunk_scan_reduction_64",
        "syscall_reduction_64", "results"],
    "BENCH_deadline.json": [
        "bench", "fast_mode", "pass",
        "outvoted_wait_reduction_64", "results"],
    "BENCH_fairness.json": [
        "bench", "fast_mode", "pass", "fairness_share",
        "outvoted_weight", "outvoted_wait_reduction_64",
        "results"],
    "BENCH_stream.json": [
        "bench", "fast_mode", "pass", "channel_bytes_per_ms",
        "progressive_base_step", "ttfu_p99_reduction_64",
        "results"],
}
admission = json.load(open("BENCH_admission.json"))
assert admission["victim_hit_ratio"] >= 2.0, (
    f"victim hit ratio {admission['victim_hit_ratio']} < 2x")
# Cross-session scheduler gate, re-checked from the raw rows: at
# 16 overlapping sessions the shared scheduler must issue strictly
# fewer DBMS fills at an equal-or-better useful-prefetch hit rate
# (1% tolerance for thread-scheduling noise), and the dedup
# accounting must balance with real savings.
dedup = json.load(open("BENCH_prefetch_dedup.json"))
rows16 = {r["scheduling"]: r for r in dedup["results"]
          if r["sessions"] == 16}
assert set(rows16) == {"per_session", "shared"}, rows16.keys()
assert rows16["shared"]["dbms_fetches"] < \
    rows16["per_session"]["dbms_fetches"], (
    "shared scheduler did not reduce DBMS fills at 16 sessions")
assert rows16["shared"]["hit_rate"] + 0.01 >= \
    rows16["per_session"]["hit_rate"], (
    "shared scheduler degraded the useful-prefetch hit rate")
for row in dedup["results"]:
    if row["scheduling"] != "shared":
        continue
    assert row["dedup_saved_fetches"] > 0, row
    assert row["books_balance"] is True, row
# Batched backend I/O gate, re-checked from the raw rows: at 64
# overlapping sessions the batched drain must issue >= 2x fewer
# backend round trips at an equal-or-better hit rate, the
# scheduler's accounting invariant must hold on every row, and the
# batched rows must actually batch.
batch = json.load(open("BENCH_batch_fetch.json"))
assert batch["round_trip_reduction_64"] >= 2.0, (
    f"round-trip reduction {batch['round_trip_reduction_64']} < 2x")
rows64 = {r["mode"]: r for r in batch["results"]
          if r["sessions"] == 64}
assert set(rows64) == {"unbatched", "batched"}, rows64.keys()
assert 2 * rows64["batched"]["round_trips"] <= \
    rows64["unbatched"]["round_trips"], rows64
assert rows64["batched"]["hit_rate"] + 0.01 >= \
    rows64["unbatched"]["hit_rate"], rows64
for row in batch["results"]:
    assert row["books_balance"] is True, row
    assert row["fills_issued"] + row["dedup_saved_fetches"] == \
        row["predictions_published"], row
    if row["mode"] == "batched":
        assert row["fetch_batches"] > 0, row
        assert row["batched_fills"] > 0, row
# Range-coalescing gate, re-checked from the raw rows: at 64
# overlapping sessions the coalesced configurations must cost
# >= 2x fewer DBMS chunk scans AND >= 2x fewer disk read syscalls
# at equal-or-better hit rates, every coalesced row must actually
# plan runs / issue vectored reads, the accounting invariant must
# hold everywhere, and per-key rows must never touch the new
# counters (defaults stay off).
coalesce = json.load(open("BENCH_range_coalesce.json"))
assert coalesce["chunk_scan_reduction_64"] >= 2.0, (
    f"chunk-scan reduction {coalesce['chunk_scan_reduction_64']} < 2x")
assert coalesce["syscall_reduction_64"] >= 2.0, (
    f"syscall reduction {coalesce['syscall_reduction_64']} < 2x")
rows = {(r["backend"], r["sessions"], r["mode"]): r
        for r in coalesce["results"]}
for backend, headline in [("dbms", "chunk_scans"),
                          ("disk", "syscalls")]:
    per_key = rows[(backend, 64, "per-key")]
    merged = rows[(backend, 64, "coalesced")]
    assert 2 * merged[headline] <= per_key[headline], (backend, rows)
    assert merged["hit_rate"] + 0.01 >= per_key["hit_rate"], backend
for row in coalesce["results"]:
    assert row["books_balance"] is True, row
    if row["mode"] == "coalesced":
        if row["backend"] == "dbms":
            assert row["coalesced_runs"] > 0, row
        else:
            assert row["vectored_runs"] > 0, row
    else:
        assert row["coalesced_runs"] == 0, row
        assert row["vectored_runs"] == 0, row
# Deadline-aware scheduling gate, re-checked from the raw rows:
# at 64 sessions the deadline-aware drain must cut the outvoted
# session's max fill wait >= 2x at an equal-or-better useful-fill
# rate, the win must come from actual EDF promotions, the
# accounting invariant must hold on every row, and utility-only
# rows must never touch the deadline counters (defaults stay
# bit-identical).
deadline = json.load(open("BENCH_deadline.json"))
assert deadline["outvoted_wait_reduction_64"] >= 2.0, (
    f"outvoted wait reduction "
    f"{deadline['outvoted_wait_reduction_64']} < 2x")
rows64 = {r["mode"]: r for r in deadline["results"]
          if r["sessions"] == 64}
assert set(rows64) == {"utility", "deadline"}, rows64.keys()
assert 2 * rows64["deadline"]["outvoted_max_wait_ms"] <= \
    rows64["utility"]["outvoted_max_wait_ms"], rows64
assert rows64["deadline"]["useful_fill_rate"] + 0.01 >= \
    rows64["utility"]["useful_fill_rate"], rows64
assert rows64["deadline"]["deadline_promotions"] > 0, rows64
for row in deadline["results"]:
    assert row["books_balance"] is True, row
    assert row["fills_issued"] + row["dedup_saved_fetches"] == \
        row["predictions_published"], row
    if row["mode"] == "utility":
        assert row["deadline_promotions"] == 0, row
        assert row["deadline_misses"] == 0, row
# Fairness-share gate, re-checked from the raw rows: at 64
# sessions the DRR slice must cut the outvoted (below-the-bar)
# session's max fill wait >= 2x vs deadline-only at an
# equal-or-better useful-fill rate, the win must come from
# actual fairness picks, every shares-off row must leave the
# fairness counters at zero, the shares-off control row must be
# drain-for-drain BIT-IDENTICAL to plain deadline mode (weights
# set but never consulted), and the books must balance.
fairness = json.load(open("BENCH_fairness.json"))
assert fairness["outvoted_wait_reduction_64"] >= 2.0, (
    f"fairness wait reduction "
    f"{fairness['outvoted_wait_reduction_64']} < 2x")
by_sessions = {}
for row in fairness["results"]:
    by_sessions.setdefault(row["sessions"], {})[row["mode"]] = row
for sessions, modes in by_sessions.items():
    assert set(modes) == {"utility", "deadline",
                          "deadline_shares_off",
                          "deadline_shares"}, modes.keys()
    assert modes["deadline"]["drain_fingerprint"] == \
        modes["deadline_shares_off"]["drain_fingerprint"], (
        f"shares-off drain diverged at {sessions} sessions")
rows64 = by_sessions[64]
assert 2 * rows64["deadline_shares"]["outvoted_max_wait_ms"] <= \
    rows64["deadline"]["outvoted_max_wait_ms"], rows64
assert rows64["deadline_shares"]["useful_fill_rate"] + 0.01 >= \
    rows64["deadline"]["useful_fill_rate"], rows64
assert rows64["deadline_shares"]["fairness_picks"] > 0, rows64
for row in fairness["results"]:
    assert row["books_balance"] is True, row
    assert row["fills_issued"] + row["dedup_saved_fetches"] == \
        row["predictions_published"], row
    if row["mode"] != "deadline_shares":
        assert row["fairness_picks"] == 0, row
        assert row["fairness_promotions"] == 0, row
# Continuous-push streaming gate, re-checked from the raw rows:
# at 64 sessions the progressive stream must cut p99
# time-to-first-usable >= 2x vs the all-or-nothing push at an
# equal-or-better usable-delivery rate with real split traffic,
# the off-mode control (scheduler constructed, sessions
# registered, nothing submitted) must be delivery-for-delivery
# BIT-IDENTICAL to plain off, every off row must keep the stream
# counters at zero, and the books must balance.
stream = json.load(open("BENCH_stream.json"))
assert stream["ttfu_p99_reduction_64"] >= 2.0, (
    f"stream p99 TTFU reduction "
    f"{stream['ttfu_p99_reduction_64']} < 2x")
by_sessions = {}
for row in stream["results"]:
    by_sessions.setdefault(row["sessions"], {})[row["mode"]] = row
for sessions, modes in by_sessions.items():
    assert set(modes) == {"off", "off_control", "all_or_nothing",
                          "progressive"}, modes.keys()
    assert modes["off"]["drain_fingerprint"] == \
        modes["off_control"]["drain_fingerprint"], (
        f"off_control drain diverged at {sessions} sessions")
rows64 = by_sessions[64]
assert 2 * rows64["progressive"]["p99_ttfu_ms"] <= \
    rows64["all_or_nothing"]["p99_ttfu_ms"], rows64
assert rows64["progressive"]["usable_rate"] + 0.01 >= \
    rows64["all_or_nothing"]["usable_rate"], rows64
assert rows64["progressive"]["base_chunks_pushed"] > 0, rows64
assert rows64["progressive"]["exact_chunks_pushed"] > 0, rows64
for row in stream["results"]:
    assert row["books_balance"] is True, row
    if row["mode"] in ("off", "off_control"):
        assert row["tiles_submitted"] == 0, row
        assert row["chunks_enqueued"] == 0, row
        assert row["chunks_pushed"] == 0, row
# Multi-user latency percentiles now come from the shared
# fc.request.latency_us histogram: every row must report them,
# and they must be ordered (p50 <= p99 <= p999, p99 > 0).
multiuser = json.load(open("BENCH_multiuser.json"))
for row in multiuser["results"]:
    for key in ("p50_us", "p99_us", "p999_us"):
        assert key in row, f"multiuser row missing {key}: {row}"
    assert 0 <= row["p50_us"] <= row["p99_us"] <= row["p999_us"], row
    assert row["p99_us"] > 0, row
# Telemetry overhead gate: with the full registry + trace sink
# wired into 64 sessions, wall-clock overhead must stay under the
# budget (or inside the timing noise floor), the prefetch books
# seen THROUGH the metrics snapshot must balance, and the request
# histogram must have counted every request.
telemetry = json.load(open("BENCH_telemetry.json"))
for key in ("bench", "fast_mode", "sessions", "baseline_sec",
            "telemetry_sec", "overhead_pct", "max_overhead_pct",
            "overhead_ok", "books_ok", "books", "request_latency",
            "pass"):
    assert key in telemetry, f"BENCH_telemetry.json missing {key}"
assert telemetry["overhead_ok"] is True, (
    f"telemetry overhead {telemetry['overhead_pct']:.2f}% over "
    f"{telemetry['max_overhead_pct']}% budget")
assert telemetry["books_ok"] is True, telemetry["books"]
books = telemetry["books"]
assert books["fills_issued"] + books["dedup_saved_fetches"] == \
    books["predictions_published"], books
assert telemetry["request_latency"]["count"] == \
    books["requests_total"], telemetry["request_latency"]
assert telemetry["pass"] is True, "BENCH_telemetry.json: pass != true"
print(f"BENCH_telemetry.json: ok "
      f"(overhead {telemetry['overhead_pct']:.2f}%)")
for path, keys in required.items():
    with open(path) as f:
        data = json.load(f)
    missing = [k for k in keys if k not in data]
    assert not missing, f"{path} missing keys: {missing}"
    assert data["pass"] is True, f"{path}: pass != true"
    assert data["results"], f"{path}: empty results"
    print(f"{path}: ok ({len(data['results'])} result rows)")
