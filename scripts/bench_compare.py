#!/usr/bin/env python3
"""Compare two --json bench outputs and flag >10% regressions.

Usage:
    bench_compare.py baseline.json candidate.json [--threshold 0.10]
    bench_compare.py BASELINE RUN [RUN ...] --key F1,F2 --metric M
                     [--threshold 0.10]
    bench_compare.py --validate FILE [FILE ...]
    bench_compare.py metrics.json --counters-max BASELINE.json

Each input is either the shared bench envelope
``{"bench": ..., "schema_version": 1, "results": [...]}`` (emitted by every
bench's --json mode) or, for backward compatibility, a bare JSON array of
flat records. Records are joined on their string/identity fields (e.g.
decoder + distance, or grid + requests); numeric fields are then compared
pairwise.

``--key``/``--metric`` gate runs against a baseline row by row instead:
each ``--key`` row's higher-is-better ``--metric`` is its best over the
runs (the stable estimator on noisy shared machines), and the gate fails
if it fell more than ``--threshold`` below the baseline or if the row
sets differ, so a bench cannot silently shrink its coverage.

``--counters-max`` gates deterministic work counts instead of timings:
every counter named in the baseline document's ``counters`` object must
appear in the single given --metrics-out document and must not exceed the
baseline value. The LP pivot gate uses it on ``lp.iterations``,
``lp.dual_iterations``, ``lp.refactorizations`` and ``lp.solves`` of
``bench_fig6a --trials 40 --threads 1 --metrics-out``, exact sums that
need no tolerance (bench/baselines/lp_pivots_release.json).

``--validate`` checks files structurally instead of comparing: bench
envelopes, observability metrics documents (``{"schema_version": ...,
"counters": ...}`` from --metrics-out), and JSONL event traces (one
``{"ev": ...}`` object per line from --trace-out) are each recognized by
shape and validated against their schema. Exit 0 = all valid.

Whether a change is a regression depends on the field: for time-like
fields (``*_ms``, ``ns_per_decode``, ``*_iterations``, ``iters``) an
*increase* beyond the threshold is a regression; for rate-like fields
(``trials_per_sec``, ``objective``, ``throughput``) a
*decrease* is. Fields matching neither family are reported informationally
but never fail the run.

Exit status: 0 = no regressions, 1 = at least one flagged, 2 = usage or
join error.
"""

import argparse
import json
import sys
from pathlib import Path

# Field-name fragments that decide comparison direction.
LOWER_IS_BETTER = ("_ms", "ns_per_decode", "iterations", "iters", "latency")
HIGHER_IS_BETTER = ("trials_per_sec", "objective", "throughput", "fidelity")


def direction(field):
    """-1 if lower is better, +1 if higher is better, 0 if neutral."""
    for frag in LOWER_IS_BETTER:
        if frag in field:
            return -1
    for frag in HIGHER_IS_BETTER:
        if frag in field:
            return 1
    return 0


def record_key(record):
    """Identity of a record: strings, plus ints that are sweep coordinates
    rather than metrics (judged by field name — an int named like a
    time/rate field is a measurement and must not break the join)."""
    parts = []
    for name in sorted(record):
        value = record[name]
        if isinstance(value, str):
            parts.append((name, value))
        elif isinstance(value, int) and not isinstance(value, bool) \
                and direction(name) == 0:
            parts.append((name, value))
    return tuple(parts)


def unwrap_envelope(data, path):
    """Accept the shared bench envelope or a bare legacy record array."""
    if isinstance(data, dict) and "results" in data:
        results = data["results"]
        if not isinstance(results, list):
            sys.exit(f"bench_compare: {path}: envelope 'results' is not "
                     "an array")
        return results
    return data


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")
    data = unwrap_envelope(data, path)
    if not isinstance(data, list) or not all(
            isinstance(r, dict) for r in data):
        sys.exit(f"bench_compare: {path} is not a JSON array of records")
    return data


# ---------------------------------------------------------------------------
# --validate: structural checks for the three machine-readable outputs.

def load_trace_schema():
    """JSONL keys required per trace event kind.

    bench/trace_schema.json is the single source of truth, shared with
    surfnet-analyze's trace-schema rule (which holds src/obs/trace.cpp to
    the same pin); keep additions there, not here.
    """
    path = Path(__file__).resolve().parent.parent / "bench" / \
        "trace_schema.json"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")
    kinds = doc.get("kinds")
    if not isinstance(kinds, dict) or not all(
            isinstance(keys, list) for keys in kinds.values()):
        sys.exit(f"bench_compare: {path}: 'kinds' must map event kinds "
                 "to key arrays")
    return {kind: set(keys) for kind, keys in kinds.items()}


TRACE_SCHEMA = load_trace_schema()


def validate_envelope(data, path, errors):
    if not isinstance(data.get("bench"), str):
        errors.append(f"{path}: envelope 'bench' missing or not a string")
    if not isinstance(data.get("schema_version"), int):
        errors.append(f"{path}: envelope 'schema_version' missing")
    results = data.get("results")
    if not isinstance(results, list) or not all(
            isinstance(r, dict) for r in results):
        errors.append(f"{path}: envelope 'results' is not an array of "
                      "records")
        return
    for i, record in enumerate(results):
        for name, value in record.items():
            if not isinstance(value, (str, int, float, bool)):
                errors.append(f"{path}: results[{i}].{name} is not a flat "
                              "scalar")


def validate_metrics(data, path, errors):
    if not isinstance(data.get("schema_version"), int):
        errors.append(f"{path}: metrics 'schema_version' missing")
    for section in ("counters", "gauges", "timers", "histograms"):
        if section not in data:
            errors.append(f"{path}: metrics '{section}' section missing")
        elif not isinstance(data[section], dict):
            errors.append(f"{path}: metrics '{section}' is not an object")
    for name, value in data.get("counters", {}).items():
        if not isinstance(value, int):
            errors.append(f"{path}: counter '{name}' is not an integer")
    for name, hist in data.get("histograms", {}).items():
        if not isinstance(hist, dict):
            errors.append(f"{path}: histogram '{name}' is not an object")
            continue
        bounds = hist.get("bounds")
        counts = hist.get("counts")
        if not isinstance(bounds, list) or not isinstance(counts, list):
            errors.append(f"{path}: histogram '{name}' lacks bounds/counts")
        elif len(counts) != len(bounds) + 1:
            errors.append(f"{path}: histogram '{name}' needs "
                          "len(counts) == len(bounds) + 1")
        elif "total" in hist and sum(counts) != hist["total"]:
            errors.append(f"{path}: histogram '{name}' counts do not sum "
                          "to total")


def validate_trace_line(obj, where, errors):
    kind = obj.get("ev")
    if kind not in TRACE_SCHEMA:
        errors.append(f"{where}: unknown event kind {kind!r}")
        return
    required = TRACE_SCHEMA[kind]
    keys = set(obj) - {"ev", "trial"}
    missing = required - keys
    extra = keys - required
    if missing:
        errors.append(f"{where}: '{kind}' event missing keys "
                      f"{sorted(missing)}")
    if extra:
        errors.append(f"{where}: '{kind}' event has unexpected keys "
                      f"{sorted(extra)}")


def validate_file(path, errors):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        errors.append(f"{path}: cannot read: {err}")
        return
    stripped = text.lstrip()
    first_line = stripped.splitlines()[0] if stripped else ""
    # A JSONL trace has one self-contained object per line.
    is_jsonl = False
    if first_line.startswith("{"):
        try:
            json.loads(first_line)
            is_jsonl = "\n" in stripped.rstrip("\n") or \
                '"ev"' in first_line
        except json.JSONDecodeError:
            is_jsonl = False
    if is_jsonl and '"ev"' in first_line:
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                errors.append(f"{path}:{lineno}: invalid JSON: {err}")
                continue
            validate_trace_line(obj, f"{path}:{lineno}", errors)
        return
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        errors.append(f"{path}: invalid JSON: {err}")
        return
    if isinstance(data, dict) and "results" in data:
        validate_envelope(data, path, errors)
    elif isinstance(data, dict) and "counters" in data:
        validate_metrics(data, path, errors)
    elif isinstance(data, list):
        if not all(isinstance(r, dict) for r in data):
            errors.append(f"{path}: not a JSON array of records")
    else:
        errors.append(f"{path}: unrecognized document shape (expected a "
                      "bench envelope, a metrics document, a record array, "
                      "or a JSONL trace)")


def run_validate(paths):
    errors = []
    for path in paths:
        before = len(errors)
        validate_file(path, errors)
        print(f"{path}: {'OK' if len(errors) == before else 'INVALID'}")
    for line in errors:
        print(f"  {line}", file=sys.stderr)
    return 1 if errors else 0


def run_counters_max(path, baseline_path):
    """Assert no baseline counter is exceeded in a metrics document."""
    documents = []
    for name in (baseline_path, path):
        try:
            with open(name, "r", encoding="utf-8") as fh:
                documents.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as err:
            print(f"bench_compare: cannot read {name}: {err}",
                  file=sys.stderr)
            return 2
    limits = documents[0].get("counters")
    counters = documents[1].get("counters")
    if not isinstance(limits, dict) or not limits \
            or not isinstance(counters, dict):
        print(f"bench_compare: {baseline_path} and {path} both need a "
              "'counters' object (the baseline a nonempty one)",
              file=sys.stderr)
        return 2
    failures = 0
    for name, limit in sorted(limits.items()):
        value = counters.get(name)
        ok = isinstance(value, int) and value <= limit
        print(f"{'ok' if ok else 'FAIL'}  {name}: {value} "
              f"(baseline max {limit})")
        failures += not ok
    if failures:
        print(f"bench_compare: {failures}/{len(limits)} counter(s) missing "
              f"or above {baseline_path}", file=sys.stderr)
        return 1
    return 0


def usage_error(message):
    print(f"bench_compare: {message}", file=sys.stderr)
    sys.exit(2)


def run_keyed_gate(baseline_path, run_paths, key_fields, metric, threshold):
    """Gate each keyed row's best metric over the runs against a baseline."""
    def rows(paths):
        best = {}
        for path in paths:
            for record in load(path):
                missing = [f for f in key_fields + [metric]
                           if f not in record]
                if missing:
                    usage_error(f"{path}: record lacks field(s) {missing}")
                key = tuple(record[f] for f in key_fields)
                best[key] = max(record[metric], best.get(key, record[metric]))
        return best

    baseline, best = rows([baseline_path]), rows(run_paths)
    failures = 0
    if set(baseline) != set(best):
        failures += 1
        print(f"bench_compare: row sets differ: baseline-only "
              f"{sorted(set(baseline) - set(best))}, run-only "
              f"{sorted(set(best) - set(baseline))}", file=sys.stderr)
    for key in sorted(set(baseline) & set(best)):
        base, cand = baseline[key], best[key]
        label = " ".join(f"{f}={v}" for f, v in zip(key_fields, key))
        if base <= 0:
            usage_error(f"{baseline_path}: {label}: {metric} {base} is not "
                        "positive")
        drop = (base - cand) / base
        failures += drop > threshold
        print(f"{'FAIL' if drop > threshold else 'ok'}  {label:<40} "
              f"{base:>12.1f} -> {cand:>12.1f} {metric} "
              f"({(cand - base) / base:+.1%})")
    if failures:
        print(f"bench_compare: {failures} failure(s) against {baseline_path} "
              f"(threshold {threshold:.0%})", file=sys.stderr)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff two --json bench outputs, flag regressions; or "
                    "--validate observability outputs structurally.")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("candidate", nargs="*",
                        help="one file; with --key/--metric, one or more runs")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative change that counts as a regression "
                             "(default 0.10 = 10%%)")
    parser.add_argument("--key", metavar="F1,F2",
                        help="record fields naming a row for the keyed gate")
    parser.add_argument("--metric", metavar="M",
                        help="higher-is-better field the keyed gate checks")
    parser.add_argument("--validate", nargs="+", metavar="FILE",
                        help="validate files (bench envelopes, metrics "
                             "documents, JSONL traces) instead of comparing")
    parser.add_argument("--counters-max", metavar="BASELINE",
                        help="assert every counter in BASELINE's 'counters' "
                             "is present and not exceeded in the single "
                             "given metrics document")
    args = parser.parse_args()

    if args.validate:
        if args.baseline or args.candidate:
            parser.error("--validate takes its own file list; do not also "
                         "pass baseline/candidate")
        return run_validate(args.validate)
    if args.counters_max:
        if not args.baseline or args.candidate:
            parser.error("--counters-max takes exactly one metrics file")
        return run_counters_max(args.baseline, args.counters_max)
    if args.key or args.metric:
        if not (args.key and args.metric and args.candidate):
            parser.error("--key and --metric go together and take a "
                         "baseline and at least one run")
        return run_keyed_gate(args.baseline, args.candidate,
                              args.key.split(","), args.metric,
                              args.threshold)
    if not args.baseline or len(args.candidate) != 1:
        parser.error("baseline and candidate are required unless --validate "
                     "is given")

    base = {record_key(r): r for r in load(args.baseline)}
    cand = {record_key(r): r for r in load(args.candidate[0])}

    shared = [k for k in base if k in cand]
    if not shared:
        print("bench_compare: no records join between the two files "
              "(schemas or sweep points differ)", file=sys.stderr)
        return 2
    missing = len(base) - len(shared)
    extra = len(cand) - len(shared)
    if missing:
        print(f"note: {missing} baseline record(s) have no candidate match")
    if extra:
        print(f"note: {extra} candidate record(s) have no baseline match")

    regressions = []
    improvements = []
    for key in shared:
        b, c = base[key], cand[key]
        label = " ".join(f"{n}={v}" for n, v in key)
        key_fields = {n for n, _ in key}
        for field in sorted(set(b) & set(c)):
            if field in key_fields:
                continue
            old, new = b[field], c[field]
            if isinstance(old, bool) or isinstance(new, bool):
                continue
            if not (isinstance(old, (int, float))
                    and isinstance(new, (int, float))):
                continue
            if abs(old) < 1e-12:
                continue
            change = (new - old) / abs(old)
            sign = direction(field)
            if sign == 0:
                continue
            worse = change > args.threshold if sign < 0 \
                else change < -args.threshold
            better = change < -args.threshold if sign < 0 \
                else change > args.threshold
            line = (f"  {label}: {field} {old:g} -> {new:g} "
                    f"({change:+.1%})")
            if worse:
                regressions.append(line)
            elif better:
                improvements.append(line)

    if improvements:
        print(f"improvements (> {args.threshold:.0%}):")
        for line in improvements:
            print(line)
    if regressions:
        print(f"REGRESSIONS (> {args.threshold:.0%}):")
        for line in regressions:
            print(line)
        return 1
    print(f"no regressions beyond {args.threshold:.0%} across "
          f"{len(shared)} joined record(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
