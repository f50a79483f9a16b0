#!/usr/bin/env python3
"""Schema checker for the observability JSON artifacts.

Validates any mix of the four JSON artifact kinds the toolchain emits,
autodetecting each file's kind:

  trace      Chrome trace_event JSON from --trace
             ({"displayTimeUnit", "traceEvents": [...]})
  metrics    MetricsSnapshot JSON from --metrics
             ({"counters", "gauges", "histograms"})
  telemetry  RunTelemetry JSON from --telemetry
             ({"schema": "corrob.telemetry/1", ...})
  bench      BenchReport JSON from the bench binaries
             ({"schema": "corrob.bench/1", ...})
  serving    BENCH_serving.json from corrob-loadgen
             ({"schema": "corrob.serving_bench/3", ...})
  wal_bench  BENCH_wal.json from bench_wal_append
             ({"schema": "corrob.wal_bench/1", ...})
  introspect live-introspection document from corrobd's 0x06 frame
             (e.g. `corrobctl requests --raw`)
             ({"schema": "corrob.introspect/1", ...})

Usage: validate_trace.py FILE [FILE...]
Exit status 0 when every file validates, 1 otherwise. Pure stdlib —
no jsonschema dependency — so it runs anywhere CI does.
"""

import json
import sys


class Invalid(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise Invalid(message)


def expect_keys(obj, keys, where):
    expect(isinstance(obj, dict), f"{where}: expected an object")
    for key in keys:
        expect(key in obj, f"{where}: missing key '{key}'")


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ------------------------------------------------------------------
# Per-kind validators
# ------------------------------------------------------------------


def validate_trace(doc):
    expect_keys(doc, ["displayTimeUnit", "traceEvents"], "trace")
    expect(doc["displayTimeUnit"] == "ms",
           "trace: displayTimeUnit must be 'ms'")
    events = doc["traceEvents"]
    expect(isinstance(events, list), "trace: traceEvents must be an array")
    last_ts = None
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        expect_keys(event, ["name", "ph", "ts", "dur", "pid", "tid"], where)
        expect(isinstance(event["name"], str) and event["name"],
               f"{where}: name must be a non-empty string")
        expect(event["ph"] == "X",
               f"{where}: ph must be 'X' (complete event)")
        expect(is_number(event["ts"]) and event["ts"] >= 0,
               f"{where}: ts must be a non-negative number")
        expect(is_number(event["dur"]) and event["dur"] >= 0,
               f"{where}: dur must be a non-negative number")
        expect(isinstance(event["pid"], int) and isinstance(event["tid"], int),
               f"{where}: pid/tid must be integers")
        if last_ts is not None:
            expect(event["ts"] >= last_ts,
                   f"{where}: events must be sorted by ts")
        last_ts = event["ts"]
    return f"{len(events)} events"


def validate_metrics(doc):
    expect_keys(doc, ["counters", "gauges", "histograms"], "metrics")
    for section in ("counters", "gauges"):
        expect(isinstance(doc[section], dict),
               f"metrics: {section} must be an object")
        for name, value in doc[section].items():
            expect(isinstance(value, int),
                   f"metrics: {section}['{name}'] must be an integer")
    histograms = doc["histograms"]
    expect(isinstance(histograms, dict),
           "metrics: histograms must be an object")
    for name, hist in histograms.items():
        where = f"metrics: histograms['{name}']"
        expect_keys(hist, ["count", "sum", "buckets"], where)
        expect(isinstance(hist["count"], int) and hist["count"] >= 0,
               f"{where}: count must be a non-negative integer")
        expect(isinstance(hist["sum"], int), f"{where}: sum must be an integer")
        expect(isinstance(hist["buckets"], dict),
               f"{where}: buckets must be an object")
        bucket_total = 0
        for bucket, count in hist["buckets"].items():
            expect(bucket.isdigit() and 0 <= int(bucket) < 64,
                   f"{where}: bucket key '{bucket}' must be an index in [0, 64)")
            expect(isinstance(count, int) and count > 0,
                   f"{where}: buckets['{bucket}'] must be a positive integer")
            bucket_total += count
        expect(bucket_total == hist["count"],
               f"{where}: bucket counts sum to {bucket_total}, "
               f"count says {hist['count']}")
    return (f"{len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
            f"{len(histograms)} histograms")


ROUND_KINDS = {"balanced", "greedy", "one_sided_positive",
               "one_sided_negative", "final_ties", "supervised",
               "interrupted"}


def validate_telemetry(doc):
    expect_keys(doc, ["schema", "algorithm", "num_facts", "num_sources",
                      "iterations", "converged", "iteration_stats",
                      "rounds"], "telemetry")
    expect(doc["schema"] == "corrob.telemetry/1",
           f"telemetry: unknown schema '{doc.get('schema')}'")
    expect(isinstance(doc["algorithm"], str) and doc["algorithm"],
           "telemetry: algorithm must be a non-empty string")
    for key in ("num_facts", "num_sources", "iterations"):
        expect(isinstance(doc[key], int) and doc[key] >= 0,
               f"telemetry: {key} must be a non-negative integer")
    expect(isinstance(doc["converged"], bool),
           "telemetry: converged must be a boolean")
    expect(isinstance(doc["iteration_stats"], list),
           "telemetry: iteration_stats must be an array")
    for i, stats in enumerate(doc["iteration_stats"]):
        where = f"telemetry: iteration_stats[{i}]"
        expect_keys(stats, ["iteration", "max_delta", "trust_min",
                            "trust_mean", "trust_max", "facts_committed"],
                    where)
        for key in ("max_delta", "trust_min", "trust_mean", "trust_max"):
            expect(is_number(stats[key]), f"{where}: {key} must be a number")
    expect(isinstance(doc["rounds"], list),
           "telemetry: rounds must be an array")
    for i, event in enumerate(doc["rounds"]):
        where = f"telemetry: rounds[{i}]"
        expect_keys(event, ["round", "kind", "positive_group",
                            "negative_group", "positive_signature",
                            "negative_signature", "fg_positive",
                            "fg_negative", "committed_n",
                            "facts_committed"], where)
        expect(event["kind"] in ROUND_KINDS,
               f"{where}: unknown round kind '{event['kind']}'")
        if event["kind"] == "balanced":
            # --max-facts-per-round can lower n below min(|FG+|, |FG-|)
            # and the file does not carry the cap, so only the bounds
            # that hold for every run are checked here.
            bound = min(event["fg_positive"], event["fg_negative"])
            expect(1 <= event["committed_n"] <= bound,
                   f"{where}: balanced round committed_n "
                   f"{event['committed_n']} outside [1, min(|FG+|, |FG-|) "
                   f"= {bound}]")
            expect(event["facts_committed"] == 2 * event["committed_n"],
                   f"{where}: balanced round facts_committed "
                   f"{event['facts_committed']} != 2 * committed_n")
    return (f"{doc['algorithm']}, {len(doc['rounds'])} rounds, "
            f"{len(doc['iteration_stats'])} iterations")


def validate_bench(doc):
    expect_keys(doc, ["schema", "bench", "config", "rows", "metrics"],
                "bench")
    expect(doc["schema"] == "corrob.bench/1",
           f"bench: unknown schema '{doc.get('schema')}'")
    expect(isinstance(doc["bench"], str) and doc["bench"],
           "bench: bench must be a non-empty string")
    expect(isinstance(doc["config"], dict), "bench: config must be an object")
    expect(isinstance(doc["rows"], list) and doc["rows"],
           "bench: rows must be a non-empty array")
    for i, row in enumerate(doc["rows"]):
        where = f"bench: rows[{i}]"
        expect_keys(row, ["method", "seconds"], where)
        expect(isinstance(row["method"], str) and row["method"],
               f"{where}: method must be a non-empty string")
        expect(is_number(row["seconds"]) and row["seconds"] >= 0,
               f"{where}: seconds must be a non-negative number")
    validate_metrics(doc["metrics"])
    return f"{doc['bench']}, {len(doc['rows'])} rows"


def validate_wal_bench(doc):
    expect_keys(doc, ["schema", "bench", "config", "rows"], "wal_bench")
    expect(doc["schema"] == "corrob.wal_bench/1",
           f"wal_bench: unknown schema '{doc.get('schema')}'")
    expect(doc["bench"] == "wal_append",
           f"wal_bench: unknown bench '{doc.get('bench')}'")
    expect(isinstance(doc["config"], dict),
           "wal_bench: config must be an object")
    rows = doc["rows"]
    expect(isinstance(rows, list) and rows,
           "wal_bench: rows must be a non-empty array")
    policies = []
    for i, row in enumerate(rows):
        where = f"wal_bench: rows[{i}]"
        expect_keys(row, ["policy", "records", "seconds",
                          "records_per_sec"], where)
        expect(row["policy"] in ("always", "interval", "never"),
               f"{where}: policy must be always|interval|never")
        expect(isinstance(row["records"], int) and row["records"] > 0,
               f"{where}: records must be a positive integer")
        expect(is_number(row["seconds"]) and row["seconds"] >= 0,
               f"{where}: seconds must be a non-negative number")
        expect(is_number(row["records_per_sec"])
               and row["records_per_sec"] >= 0,
               f"{where}: records_per_sec must be a non-negative number")
        policies.append(row["policy"])
    expect(len(set(policies)) == len(policies),
           "wal_bench: duplicate policy rows")
    rates = ", ".join(f"{row['policy']}={row['records_per_sec']:.0f}/s"
                      for row in rows)
    return rates


def validate_stream_telemetry(doc):
    expect_keys(doc, ["schema", "facts_observed", "decisions_true",
                      "decisions_false", "deferrals", "num_sources"],
                "stream_telemetry")
    for key in ("facts_observed", "decisions_true", "decisions_false",
                "deferrals", "num_sources"):
        expect(isinstance(doc[key], int) and doc[key] >= 0,
               f"stream_telemetry: {key} must be a non-negative integer")
    expect(doc["decisions_true"] + doc["decisions_false"]
           == doc["facts_observed"],
           "stream_telemetry: decisions_true + decisions_false must "
           "equal facts_observed")
    return f"{doc['facts_observed']} facts observed"


def validate_serving_bench(doc):
    expect_keys(doc, ["schema", "config", "levels", "totals"],
                "serving_bench")
    schema = doc.get("schema")
    expect(schema == "corrob.serving_bench/3",
           f"serving_bench: unknown schema '{schema}'")
    config = doc["config"]
    expect_keys(config, ["socket", "dataset", "algorithm", "priority",
                         "connections", "duration_ms", "unique_keys",
                         "tenants"], "serving_bench: config")
    expect(config["priority"] in ("interactive", "batch", "best_effort"),
           f"serving_bench: unknown priority '{config.get('priority')}'")
    expect(isinstance(config["unique_keys"], int)
           and config["unique_keys"] >= 0,
           "serving_bench: config.unique_keys must be a "
           "non-negative integer")
    expect(isinstance(config["tenants"], list)
           and all(isinstance(t, str) for t in config["tenants"]),
           "serving_bench: config.tenants must be an array of strings")
    levels = doc["levels"]
    expect(isinstance(levels, list) and levels,
           "serving_bench: levels must be a non-empty array")
    counted_responses = 0
    counted_dropped = 0
    for i, level in enumerate(levels):
        where = f"serving_bench: levels[{i}]"
        number_keys = ["offered_qps", "achieved_qps", "shed_rate",
                       "p50_ms", "p90_ms", "p99_ms", "p999_ms", "hit_rate",
                       "cold_p50_ms", "hit_p50_ms", "corr_client_p50_ms",
                       "corr_server_p50_ms"]
        int_keys = ["requests", "results", "shed", "errors", "aborted",
                    "dropped", "quota", "corr_count"]
        # The transport delta is client p50 minus server p50 over the
        # joined sample set: legitimately negative when the two
        # independent medians land on different requests.
        expect_keys(level, ["corr_transport_delta_p50_ms"], where)
        expect(is_number(level["corr_transport_delta_p50_ms"]),
               f"{where}: corr_transport_delta_p50_ms must be a number")
        expect_keys(level, number_keys + int_keys, where)
        for key in number_keys:
            expect(is_number(level[key]) and level[key] >= 0,
                   f"{where}: {key} must be a non-negative number")
        for key in int_keys:
            expect(isinstance(level[key], int) and level[key] >= 0,
                   f"{where}: {key} must be a non-negative integer")
        expect(level["p50_ms"] <= level["p90_ms"] <= level["p99_ms"]
               <= level["p999_ms"],
               f"{where}: percentiles must be non-decreasing "
               "(p50 <= p90 <= p99 <= p999)")
        expect(level["corr_count"] <= level["results"],
               f"{where}: corr_count cannot exceed results")
        accounted = (level["results"] + level["shed"] + level["errors"]
                     + level["quota"] + level["aborted"] + level["dropped"])
        expect(accounted == level["requests"],
               f"{where}: outcome counts sum to {accounted}, "
               f"requests says {level['requests']}")
        expect(0.0 <= level["shed_rate"] <= 1.0,
               f"{where}: shed_rate must be in [0, 1]")
        expect(0.0 <= level["hit_rate"] <= 1.0,
               f"{where}: hit_rate must be in [0, 1]")
        counted_responses += (level["results"] + level["shed"]
                              + level["errors"] + level["quota"])
        counted_dropped += level["dropped"]
    totals = doc["totals"]
    expect_keys(totals, ["responses_received", "dropped"],
                "serving_bench: totals")
    expect(totals["responses_received"] == counted_responses,
           f"serving_bench: totals.responses_received "
           f"{totals['responses_received']} != per-level sum "
           f"{counted_responses}")
    expect(totals["dropped"] == counted_dropped,
           f"serving_bench: totals.dropped {totals['dropped']} != "
           f"per-level sum {counted_dropped}")
    return (f"{len(levels)} levels, "
            f"{totals['responses_received']} responses, "
            f"{totals['dropped']} dropped")


REQUEST_ROLES = {"cold", "cache_hit", "leader", "follower", "promoted",
                 "rejected"}


def validate_latency_split(split, where):
    expect_keys(split, ["count", "sum_nanos", "buckets"], where)
    expect(isinstance(split["count"], int) and split["count"] >= 0,
           f"{where}: count must be a non-negative integer")
    expect(isinstance(split["sum_nanos"], int) and split["sum_nanos"] >= 0,
           f"{where}: sum_nanos must be a non-negative integer")
    expect(isinstance(split["buckets"], dict),
           f"{where}: buckets must be an object")
    bucket_total = 0
    for bucket, count in split["buckets"].items():
        expect(bucket.isdigit() and 0 <= int(bucket) < 64,
               f"{where}: bucket key '{bucket}' must be an index in [0, 64)")
        expect(isinstance(count, int) and count > 0,
               f"{where}: buckets['{bucket}'] must be a positive integer")
        bucket_total += count
    expect(bucket_total == split["count"],
           f"{where}: bucket counts sum to {bucket_total}, "
           f"count says {split['count']}")


def validate_introspect(doc):
    expect_keys(doc, ["schema", "now_nanos", "active", "recorder",
                      "watchdog", "metrics"], "introspect")
    expect(doc["schema"] == "corrob.introspect/1",
           f"introspect: unknown schema '{doc.get('schema')}'")
    expect(isinstance(doc["now_nanos"], int) and doc["now_nanos"] >= 0,
           "introspect: now_nanos must be a non-negative integer")

    active = doc["active"]
    expect(isinstance(active, list), "introspect: active must be an array")
    for i, row in enumerate(active):
        where = f"introspect: active[{i}]"
        expect_keys(row, ["seq", "id", "tenant", "dataset", "method",
                          "priority", "age_nanos", "deadline_nanos",
                          "flagged"], where)
        for key in ("seq", "age_nanos", "deadline_nanos"):
            expect(isinstance(row[key], int) and row[key] >= 0,
                   f"{where}: {key} must be a non-negative integer")
        for key in ("id", "tenant", "dataset", "method", "priority"):
            expect(isinstance(row[key], str),
                   f"{where}: {key} must be a string")
        expect(isinstance(row["flagged"], bool),
               f"{where}: flagged must be a boolean")

    recorder = doc["recorder"]
    expect_keys(recorder, ["capacity", "started", "completed", "dropped",
                           "slow", "recent", "tenants", "latency"],
                "introspect: recorder")
    for key in ("capacity", "started", "completed", "dropped", "slow"):
        expect(isinstance(recorder[key], int) and recorder[key] >= 0,
               f"introspect: recorder.{key} must be a non-negative integer")
    recent = recorder["recent"]
    expect(isinstance(recent, list),
           "introspect: recorder.recent must be an array")
    last_seq = None
    for i, row in enumerate(recent):
        where = f"introspect: recorder.recent[{i}]"
        expect_keys(row, ["seq", "id", "tenant", "dataset", "method",
                          "priority", "role", "termination",
                          "admission_wait_nanos", "service_nanos",
                          "total_nanos", "response_bytes"], where)
        for key in ("seq", "admission_wait_nanos", "service_nanos",
                    "total_nanos", "response_bytes"):
            expect(isinstance(row[key], int) and row[key] >= 0,
                   f"{where}: {key} must be a non-negative integer")
        expect(row["role"] in REQUEST_ROLES,
               f"{where}: unknown role '{row['role']}'")
        expect(isinstance(row["termination"], str) and row["termination"],
               f"{where}: termination must be a non-empty string")
        if last_seq is not None:
            expect(row["seq"] > last_seq,
                   f"{where}: recent must be sorted by ascending seq")
        last_seq = row["seq"]
        if "spans" in row:
            expect(isinstance(row["spans"], list) and row["spans"],
                   f"{where}: spans, when present, must be a non-empty array")
            for j, span in enumerate(row["spans"]):
                expect_keys(span, ["name", "at_nanos"],
                            f"{where}: spans[{j}]")
    tenants = recorder["tenants"]
    expect(isinstance(tenants, list),
           "introspect: recorder.tenants must be an array")
    last_requests = None
    for i, row in enumerate(tenants):
        where = f"introspect: recorder.tenants[{i}]"
        expect_keys(row, ["tenant", "requests", "total_nanos", "max_nanos"],
                    where)
        for key in ("requests", "total_nanos", "max_nanos"):
            expect(isinstance(row[key], int) and row[key] >= 0,
                   f"{where}: {key} must be a non-negative integer")
        if last_requests is not None:
            expect(row["requests"] <= last_requests,
                   f"{where}: tenants must be ranked by descending requests")
        last_requests = row["requests"]
    latency = recorder["latency"]
    expect_keys(latency, ["cold", "hit"], "introspect: recorder.latency")
    validate_latency_split(latency["cold"], "introspect: recorder.latency.cold")
    validate_latency_split(latency["hit"], "introspect: recorder.latency.hit")

    watchdog = doc["watchdog"]
    expect_keys(watchdog, ["scans", "flagged", "stuck"],
                "introspect: watchdog")
    for key in ("scans", "flagged", "stuck"):
        expect(isinstance(watchdog[key], int) and watchdog[key] >= 0,
               f"introspect: watchdog.{key} must be a non-negative integer")

    validate_metrics(doc["metrics"])
    return (f"{len(active)} active, {len(recent)} recent, "
            f"{len(tenants)} tenants")


def detect_kind(doc):
    if not isinstance(doc, dict):
        raise Invalid("top level must be a JSON object")
    schema = doc.get("schema")
    if schema == "corrob.telemetry/1":
        return "telemetry", validate_telemetry
    if schema == "corrob.bench/1":
        return "bench", validate_bench
    if schema == "corrob.wal_bench/1":
        return "wal_bench", validate_wal_bench
    if schema == "corrob.stream_telemetry/1":
        return "stream_telemetry", validate_stream_telemetry
    if schema == "corrob.serving_bench/3":
        return "serving_bench", validate_serving_bench
    if schema == "corrob.introspect/1":
        return "introspect", validate_introspect
    if "traceEvents" in doc:
        return "trace", validate_trace
    if "counters" in doc and "histograms" in doc:
        return "metrics", validate_metrics
    raise Invalid("cannot detect artifact kind (no schema marker, "
                  "traceEvents, or counters/histograms)")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    failures = 0
    for path in argv[1:]:
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            kind, validator = detect_kind(doc)
            summary = validator(doc)
            print(f"{path}: OK ({kind}: {summary})")
        except (OSError, json.JSONDecodeError, Invalid) as error:
            print(f"{path}: FAIL: {error}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
