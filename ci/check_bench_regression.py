#!/usr/bin/env python3
"""Fail CI when a micro-benchmark regresses past the threshold.

Usage:
    python3 ci/check_bench_regression.py CURRENT_JSON... BASELINE_JSON

Compares ns/op per benchmark name against the committed baseline and
exits non-zero if any benchmark is more than THRESHOLD slower (default
30%, override with BENCH_REGRESSION_THRESHOLD, e.g. "0.5" for 50%).
A benchmark present in the baseline but missing from the current run is
also an error: coverage must not silently shrink.  New benchmarks are
reported but do not fail the check until they are added to the baseline.

More than one CURRENT_JSON may be given (e.g. a glob over the bench
output directory): files whose "suite" field is not "micro" — telemetry
summaries, Chrome traces, macro results — are skipped with a note, so
new kinds of run artifacts never break the gate.  Availability and
fastpath files are also skipped, but only after their structure
validates — a malformed one fails the run.

    python3 ci/check_bench_regression.py --validate-availability \
        BENCH_availability.json

validates an availability-suite file (committed-work-over-time series
under a crash schedule at several replication degrees): schema, a
series per degree with strictly increasing sample times and a monotone
non-decreasing committed counter, completed <= submitted, and — the
point of the figure — every replicated (k > 1) series must reach full
completion, while the k = 1 baseline may plateau.  There is no numeric
gate beyond that: the curves are the artifact.

    python3 ci/check_bench_regression.py --validate-fastpath \
        BENCH_fastpath.json

validates a fastpath-suite file (the latency-collapse figure: one
counter-heavy workload with the coordination-free commit lane off and
on): schema, exactly one "off" and one "on" series, sane percentiles
(0 < p50 <= p99), fast-lane commits only in the on series — and the
headline gate, the on-series p50 must be strictly below the off-series
p50.  Both runs are simulated time, so this is a deterministic numeric
gate.

    python3 ci/check_bench_regression.py --validate-timeline \
        TIMELINE.jsonl

validates an epoch-ledger timeline (the append-only JSONL the
`alohadb_cli timeline` subcommand emits; one meta-delimited segment per
run).  It is a language-independent re-statement of the OCaml doctor
(`alohadb_cli doctor` / Obs.Analyze.check): per-line schema by "type"
(meta / epoch / event; any other type is rejected), contiguous closed
epochs per node, monotone watermarks (a crash of that node between two
closes excuses a reset), every crash in a replicated segment followed by a restart or a
promotion, and every promotion with traffic still arriving afterwards
resolving with a first post-failover commit.  The CI obs-smoke lane
runs both checkers over the same file so a bug in one is caught by the
other.

Only the Python standard library is used.
"""

import json
import os
import sys


def validate_availability(path, doc):
    """Exit with an error if an availability-suite document is malformed."""
    def fail(msg):
        sys.exit(f"error: {path}: malformed availability document: {msg}")

    if not isinstance(doc.get("schedule"), str) or not doc["schedule"]:
        fail("schedule must be a non-empty string")
    series = doc.get("series")
    if not isinstance(series, list) or not series:
        fail("series must be a non-empty list")
    degrees_seen = set()
    for s in series:
        if not isinstance(s, dict):
            fail("series entries must be objects")
        k = s.get("replicas")
        if not isinstance(k, int) or k < 1:
            fail("replicas must be a positive integer")
        if k in degrees_seen:
            fail(f"duplicate series for replicas={k}")
        degrees_seen.add(k)
        if not isinstance(s.get("engine"), str) or not s["engine"]:
            fail(f"k={k}: engine must be a non-empty string")
        if not isinstance(s.get("seed"), int):
            fail(f"k={k}: seed must be an integer")
        submitted, completed = s.get("submitted"), s.get("completed")
        if not isinstance(submitted, int) or submitted <= 0:
            fail(f"k={k}: submitted must be a positive integer")
        if not isinstance(completed, int) or completed < 0:
            fail(f"k={k}: completed must be a non-negative integer")
        if completed > submitted:
            fail(f"k={k}: completed {completed} exceeds submitted {submitted}")
        if k > 1 and completed != submitted:
            fail(f"k={k}: a replicated run must complete "
                 f"({completed}/{submitted}) — failover did not mask the "
                 f"crash")
        points = s.get("points")
        if not isinstance(points, list) or not points:
            fail(f"k={k}: points must be a non-empty list")
        prev_t, prev_c = -1, 0
        for p in points:
            if not isinstance(p, dict):
                fail(f"k={k}: points must be objects")
            t, c = p.get("t_us"), p.get("committed")
            if not isinstance(t, int) or t <= prev_t:
                fail(f"k={k}: sample times must be strictly increasing")
            if not isinstance(c, int) or c < prev_c:
                fail(f"k={k}: committed counter regressed at t={t}us "
                     f"({prev_c} -> {c})")
            prev_t, prev_c = t, c
        if prev_c != completed:
            fail(f"k={k}: last sample {prev_c} != completed {completed}")


def validate_fastpath(path, doc):
    """Exit with an error if a fastpath-suite document is malformed."""
    def fail(msg):
        sys.exit(f"error: {path}: malformed fastpath document: {msg}")

    if not isinstance(doc.get("workload"), str) or not doc["workload"]:
        fail("workload must be a non-empty string")
    series = doc.get("series")
    if not isinstance(series, list) or not series:
        fail("series must be a non-empty list")
    by_mode = {}
    for s in series:
        if not isinstance(s, dict):
            fail("series entries must be objects")
        mode = s.get("mode")
        if mode not in ("on", "off"):
            fail(f"mode must be \"on\" or \"off\", got {mode!r}")
        if mode in by_mode:
            fail(f"duplicate series for mode={mode}")
        by_mode[mode] = s
        committed = s.get("committed")
        if not isinstance(committed, int) or committed <= 0:
            fail(f"mode={mode}: committed must be a positive integer")
        tps = s.get("tps")
        if not isinstance(tps, (int, float)) or tps <= 0:
            fail(f"mode={mode}: tps must be positive")
        p50, p99 = s.get("p50_us"), s.get("p99_us")
        if not isinstance(p50, int) or p50 <= 0:
            fail(f"mode={mode}: p50_us must be a positive integer")
        if not isinstance(p99, int) or p99 < p50:
            fail(f"mode={mode}: p99_us must be an integer >= p50_us")
        fast = s.get("fastpath_commits")
        if not isinstance(fast, int) or fast < 0:
            fail(f"mode={mode}: fastpath_commits must be a non-negative "
                 f"integer")
        if mode == "off" and fast != 0:
            fail(f"mode=off: fastpath_commits must be 0, got {fast}")
        if mode == "on" and fast == 0:
            fail("mode=on: no transaction took the fast lane")
    for mode in ("off", "on"):
        if mode not in by_mode:
            fail(f"missing the mode={mode} series")
    on, off = by_mode["on"], by_mode["off"]
    if on["p50_us"] >= off["p50_us"]:
        fail(f"fast-lane p50 ({on['p50_us']}us) must be below the "
             f"slow-lane p50 ({off['p50_us']}us) — the lane did not "
             f"collapse commit latency")


def parse_timeline(path):
    """Split a TIMELINE.jsonl into meta-delimited segments.

    Returns a list of {"meta": dict, "rows": [...], "events": [...]};
    exits on unreadable or schema-violating lines."""
    def fail(lineno, msg):
        sys.exit(f"error: {path}:{lineno}: {msg}")

    def need(lineno, rec, field, typ, kind):
        v = rec.get(field)
        if not isinstance(v, typ) or isinstance(v, bool) and typ is int:
            fail(lineno, f"{kind} line: {field!r} must be {typ.__name__}")
        return v

    try:
        with open(path) as f:
            raw = f.read().splitlines()
    except OSError as exc:
        sys.exit(f"error: cannot read {path}: {exc}")
    segments, seg = [], None
    kinds = ("crash", "restart", "detect", "promote", "first_commit")
    for lineno, line in enumerate(raw, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as exc:
            fail(lineno, f"not JSON: {exc}")
        if not isinstance(rec, dict):
            fail(lineno, "line must be a JSON object")
        typ = rec.get("type")
        if typ == "meta":
            for field in ("cfg_epoch_us", "nodes", "replicas"):
                need(lineno, rec, field, int, "meta")
            seg = {"meta": rec, "rows": [], "events": []}
            segments.append(seg)
        elif typ == "epoch":
            if seg is None:
                fail(lineno, "epoch line before any meta line")
            for field in ("epoch", "node", "open_us", "close_us",
                          "stretch_millis", "assigned", "fast_commits",
                          "fast_merges", "watermark", "watermark_lag_us"):
                need(lineno, rec, field, int, "epoch")
            for field in ("assigned", "fast_commits", "fast_merges"):
                if rec[field] < 0:
                    fail(lineno, f"epoch line: negative {field}")
            if rec["fast_commits"] > rec["assigned"]:
                fail(lineno, "epoch line: fast_commits exceed assigned")
            if (rec["close_us"] >= 0 and rec["open_us"] >= 0
                    and rec["close_us"] < rec["open_us"]):
                fail(lineno, "epoch line: closed before it opened")
            for group in rec.get("groups", []):
                if not isinstance(group, dict):
                    fail(lineno, "epoch line: groups must be objects")
                need(lineno, group, "group", int, "group")
                need(lineno, group, "ships", int, "group")
            seg["rows"].append(rec)
        elif typ == "event":
            if seg is None:
                fail(lineno, "event line before any meta line")
            kind = need(lineno, rec, "kind", str, "event")
            if kind not in kinds:
                fail(lineno, f"unknown event kind {kind!r}")
            if need(lineno, rec, "t_us", int, "event") < 0:
                fail(lineno, "event line: negative t_us")
            need(lineno, rec, "node", int, "event")
            need(lineno, rec, "partition", int, "event")
            seg["events"].append(rec)
        else:
            fail(lineno, f"unknown line type {typ!r}")
    if not segments:
        sys.exit(f"error: {path}: no timeline segments found")
    return segments


def timeline_incidents(seg):
    """Mirror Obs.Analyze.incidents: one incident per promote event."""
    evs = seg["events"]
    out = []
    for ev in evs:
        if ev["kind"] != "promote":
            continue
        crash = None
        for e in evs:
            if (e["kind"] == "crash" and e["t_us"] <= ev["t_us"]
                    and not any(r["kind"] == "restart"
                                and r["node"] == e["node"]
                                and e["t_us"] < r["t_us"] <= ev["t_us"]
                                for r in evs)
                    and (crash is None or e["t_us"] >= crash["t_us"])):
                crash = e
        first = None
        for e in evs:
            if (e["kind"] == "first_commit"
                    and e["partition"] == ev["partition"]
                    and e["t_us"] >= ev["t_us"]
                    and (first is None or e["t_us"] < first["t_us"])):
                first = e
        out.append({"partition": ev["partition"],
                    "promoted_node": ev["node"],
                    "crash": crash, "promote_us": ev["t_us"],
                    "first_commit_us": first["t_us"] if first else -1})
    return out


def validate_timeline_segment(idx, seg, problems):
    """Append doctor-invariant violations for one segment to problems."""
    def viol(msg):
        problems.append(f"segment {idx}: {msg}")

    events = seg["events"]

    def crashed_between(node, t0, t1):
        return any(e["kind"] == "crash" and e["node"] == node
                   and t0 < e["t_us"] <= t1 for e in events)

    by_node = {}
    for r in seg["rows"]:
        if r["close_us"] >= 0:
            by_node.setdefault(r["node"], []).append(r)
    for node, rows in sorted(by_node.items()):
        rows.sort(key=lambda r: r["epoch"])
        for a, b in zip(rows, rows[1:]):
            if b["epoch"] != a["epoch"] + 1:
                viol(f"node {node}: closed epochs not contiguous "
                     f"({a['epoch']} then {b['epoch']})")
            if (a["watermark"] >= 0 and 0 <= b["watermark"] < a["watermark"]
                    and not crashed_between(node, a["close_us"],
                                            b["close_us"])):
                viol(f"node {node}: watermark regressed {a['watermark']} -> "
                     f"{b['watermark']} across epochs {a['epoch']}-"
                     f"{b['epoch']} with no crash")
    if seg["meta"]["replicas"] > 1:
        for e in events:
            if e["kind"] != "crash":
                continue
            handled = any(
                e2["t_us"] >= e["t_us"]
                and ((e2["kind"] == "restart" and e2["node"] == e["node"])
                     or e2["kind"] == "promote")
                for e2 in events)
            if not handled:
                viol(f"node {e['node']} crashed at {e['t_us']}us with no "
                     f"subsequent promotion or restart "
                     f"(k={seg['meta']['replicas']})")
    incidents = timeline_incidents(seg)
    for i in incidents:
        traffic_after = any(r["assigned"] > 0
                            and r["open_us"] >= i["promote_us"]
                            for r in seg["rows"])
        if i["first_commit_us"] < 0 and traffic_after:
            viol(f"incident on partition {i['partition']} (promoted to node "
                 f"{i['promoted_node']} at {i['promote_us']}us) never saw a "
                 f"post-failover commit")
    return incidents


def report_timeline(path, segments):
    print(f"{path}: timeline ok ({len(segments)} segment(s))")
    for idx, seg in enumerate(segments):
        meta = seg["meta"]
        incidents = timeline_incidents(seg)
        resolved = sum(1 for i in incidents if i["first_commit_us"] >= 0)
        print(f"  segment {idx}: nodes={meta['nodes']} "
              f"k={meta['replicas']} epoch={meta['cfg_epoch_us']}us  "
              f"{len(seg['rows'])} epoch rows, {len(seg['events'])} events, "
              f"{len(incidents)} incident(s) ({resolved} resolved)")


def report_fastpath(path, doc):
    print(f"{path}: fastpath suite ok")
    for s in doc["series"]:
        print(f"  {s['mode']:3}: p50 {s['p50_us']}us  p99 {s['p99_us']}us  "
              f"{s['committed']} committed "
              f"({s['fastpath_commits']} via fast lane)")
    on = next(s for s in doc["series"] if s["mode"] == "on")
    off = next(s for s in doc["series"] if s["mode"] == "off")
    print(f"  p50 collapse: {off['p50_us'] / on['p50_us']:.1f}x")


def report_availability(path, doc):
    print(f"{path}: availability suite ok")
    for s in doc["series"]:
        pts = s["points"]
        rise = next((p["t_us"] for p in pts if p["committed"] > 0), None)
        when = f"first commit @ {rise}us" if rise is not None else "flatline"
        print(f"  k={s['replicas']}: {s['completed']}/{s['submitted']} "
              f"committed, {len(pts)} samples, {when}")


def load(path):
    """Parse a micro-suite document; return None for other JSON files."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")
    if isinstance(doc, dict) and doc.get("suite") == "availability":
        validate_availability(path, doc)
        return None
    if isinstance(doc, dict) and doc.get("suite") == "fastpath":
        validate_fastpath(path, doc)
        return None
    if not isinstance(doc, dict) or doc.get("suite") != "micro":
        return None
    try:
        return {r["name"]: float(r["ns_per_op"]) for r in doc["results"]}
    except (KeyError, TypeError) as exc:
        sys.exit(f"error: {path} is not a BENCH_micro.json document: {exc}")


def main(argv):
    if len(argv) >= 2 and argv[1] == "--validate-availability":
        if len(argv) != 3:
            sys.exit(f"usage: {argv[0]} --validate-availability "
                     f"BENCH_availability.json")
        path = argv[2]
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            sys.exit(f"error: cannot read {path}: {exc}")
        if not isinstance(doc, dict) or doc.get("suite") != "availability":
            sys.exit(f"error: {path} is not an availability-suite document")
        validate_availability(path, doc)
        report_availability(path, doc)
        return 0
    if len(argv) >= 2 and argv[1] == "--validate-timeline":
        if len(argv) != 3:
            sys.exit(f"usage: {argv[0]} --validate-timeline TIMELINE.jsonl")
        path = argv[2]
        segments = parse_timeline(path)
        problems = []
        for idx, seg in enumerate(segments):
            validate_timeline_segment(idx, seg, problems)
        if problems:
            print(f"error: {path}: {len(problems)} doctor violation(s):",
                  file=sys.stderr)
            for p in problems:
                print(f"  - {p}", file=sys.stderr)
            return 1
        report_timeline(path, segments)
        return 0
    if len(argv) >= 2 and argv[1] == "--validate-fastpath":
        if len(argv) != 3:
            sys.exit(f"usage: {argv[0]} --validate-fastpath "
                     f"BENCH_fastpath.json")
        path = argv[2]
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            sys.exit(f"error: cannot read {path}: {exc}")
        if not isinstance(doc, dict) or doc.get("suite") != "fastpath":
            sys.exit(f"error: {path} is not a fastpath-suite document")
        validate_fastpath(path, doc)
        report_fastpath(path, doc)
        return 0
    if len(argv) < 3:
        sys.exit(f"usage: {argv[0]} CURRENT_JSON... BASELINE_JSON")
    current_paths, baseline_path = argv[1:-1], argv[-1]
    threshold = float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "0.30"))

    current, current_path = None, None
    for path in current_paths:
        parsed = load(path)
        if parsed is None:
            print(f"note: {path} is not a micro-suite document, skipping")
        elif current is not None:
            sys.exit(f"error: more than one micro-suite file given "
                     f"({current_path}, {path})")
        else:
            current, current_path = parsed, path
    if current is None:
        sys.exit("error: no micro-suite document among the current files")
    baseline = load(baseline_path)
    if baseline is None:
        sys.exit(f"error: {baseline_path} is not a micro-suite document")

    regressions = []
    missing = sorted(set(baseline) - set(current))
    new = sorted(set(current) - set(baseline))

    print(f"{'benchmark':48} {'baseline':>12} {'current':>12} {'delta':>8}")
    for name in sorted(baseline):
        if name not in current:
            continue
        base, cur = baseline[name], current[name]
        delta = (cur - base) / base if base > 0 else 0.0
        flag = "  <-- REGRESSION" if delta > threshold else ""
        print(f"{name:48} {base:10.1f}ns {cur:10.1f}ns {delta:+7.1%}{flag}")
        if delta > threshold:
            regressions.append((name, base, cur, delta))
    for name in new:
        print(f"{name:48} {'(new)':>12} {current[name]:10.1f}ns")

    ok = True
    if missing:
        ok = False
        print(f"\nerror: benchmark(s) missing from {current_path}:", file=sys.stderr)
        for name in missing:
            print(f"  - {name}", file=sys.stderr)
    if regressions:
        ok = False
        print(
            f"\nerror: {len(regressions)} benchmark(s) regressed more than "
            f"{threshold:.0%} vs {baseline_path}:",
            file=sys.stderr,
        )
        for name, base, cur, delta in regressions:
            print(
                f"  - {name}: {base:.1f} -> {cur:.1f} ns/op ({delta:+.1%})",
                file=sys.stderr,
            )
    if not ok:
        print(
            "\nIf this slowdown is intentional (e.g. the primitive now does"
            " more work), refresh the baseline and commit it:\n"
            "    dune exec bench/main.exe -- --json micro\n"
            f"    cp BENCH_micro.json {baseline_path}\n"
            "and explain the regression in the commit message.",
            file=sys.stderr,
        )
        return 1
    print("\nbench regression check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
