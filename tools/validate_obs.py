#!/usr/bin/env python3
"""Validate lrd::obs run artifacts against the checked-in JSON schema.

Standard library only (CI runners have no jsonschema package): this
implements exactly the JSON-Schema subset schemas/obs_artifacts.schema.json
uses -- type, enum, required, properties, additionalProperties, items,
$ref into #/$defs, minimum, minItems -- plus the semantic checks a shape
schema cannot express:

  * manifest: per-cell solver telemetry brackets must not widen across
    refinement levels (Proposition II.1 made observable), and with
    --require-telemetry at least one cell must carry telemetry;
  * telemetry: the same bracket check on a bare `lrdq_solve
    --telemetry-out` file;
  * trace:    events must be sorted by timestamp, and with
    --require-events at least one complete ("X") span must be present;
  * metrics:  every --require NAME must name a metric in the snapshot;
  * bench:    the artifact is JSONL (BENCH_history.jsonl) -- every
    non-blank line must be a benchRecord whose median lies within the
    span of its samples, and every --require NAME must appear as a key;
  * report:   lrdq_doctor --json / lrdq_bench_check --json output,
    dispatched on the document's "kind"
    (profile / selftime / diff-manifest / diff-metrics / bench-check /
    doctor);
  * bundle:   the artifact is a diagnostics-bundle DIRECTORY (--dump-dir
    output) -- bundle.json must be a valid manifest, every file it lists
    must exist, every flight.jsonl line must be a flightEvent, build.json
    and metrics.json must match their shapes, a crash manifest must carry
    its signal, and every --require NAME must appear among the flight
    event kinds or tags (e.g. --require crash_signal);
  * accesslog: the artifact is --access-log JSONL -- every non-blank
    line must be an accessRecord, and every --require NAME must appear
    among the recorded ops;
  * profile:  the artifact is --profile-out / LRDQ_PROFILE JSONL (also
    profile.jsonl inside a bundle) -- every non-blank line must be a
    profileRecord, and every --require NAME must appear as a substring
    of some folded stack OR equal some record's query_id (so CI can
    assert "this query was profiled": --require 123456789).

Usage:
  validate_obs.py --kind metrics|trace|manifest|telemetry|bench|report
                  |bundle|accesslog|profile
                  [--schema FILE] [--require NAME]... [--require-telemetry]
                  [--require-events] ARTIFACT

Exit code 0 when valid, 1 with one "path: problem" line per violation.
"""

import argparse
import json
import math
import os
import sys


def type_ok(value, name):
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    if name == "string":
        return isinstance(value, str)
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if name == "boolean":
        return isinstance(value, bool)
    if name == "null":
        return value is None
    raise ValueError(f"schema uses unsupported type {name!r}")


def validate(value, schema, root, path, errors):
    if "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/$defs/"):
            raise ValueError(f"unsupported $ref {ref!r}")
        validate(value, root["$defs"][ref[len("#/$defs/"):]], root, path, errors)
        return

    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(type_ok(value, n) for n in names):
            errors.append(f"{path}: expected {' or '.join(names)}, "
                          f"got {type(value).__name__}")
            return

    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']}")

    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        if not (isinstance(value, float) and math.isnan(value)) \
                and value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                validate(sub, props[key], root, f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                validate(sub, extra, root, f"{path}.{key}", errors)

    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(f"{path}: {len(value)} items < minItems {schema['minItems']}")
        if "items" in schema:
            for i, item in enumerate(value):
                validate(item, schema["items"], root, f"{path}[{i}]", errors)


def check_telemetry(telemetry, path, errors):
    """The audit trail of Prop. II.1: refinement must not widen the bracket."""
    widths = [lvl.get("bracket_width") for lvl in telemetry.get("levels", [])]
    finite = [w for w in widths if isinstance(w, (int, float))]
    for earlier, later in zip(finite, finite[1:]):
        if later > earlier * (1 + 1e-9) + 1e-12:
            errors.append(f"{path}: bracket widened across levels "
                          f"({earlier:g} -> {later:g})")
            break


REPORT_KINDS = {
    "profile": "reportProfile",
    "selftime": "reportSelftime",
    "diff-manifest": "reportDiffManifest",
    "diff-metrics": "reportDiffMetrics",
    "bench-check": "benchCheck",
    "doctor": "doctorReport",
}


def validate_bench_history(path, root, args, errors):
    """JSONL store: every non-blank line is one benchRecord."""
    keys = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                errors.append(f"line {lineno}: not valid JSON: {err}")
                continue
            validate(record, root["$defs"]["benchRecord"], root,
                     f"line {lineno}", errors)
            if isinstance(record, dict):
                keys.add(record.get("key"))
                values = record.get("values")
                median = record.get("median")
                if isinstance(values, list) and values and \
                        all(isinstance(v, (int, float)) for v in values) and \
                        isinstance(median, (int, float)) and \
                        not min(values) <= median <= max(values):
                    errors.append(f"line {lineno}: median {median:g} outside "
                                  f"the sample span [{min(values):g}, "
                                  f"{max(values):g}]")
    for name in args.require:
        if name not in keys:
            errors.append(f"$: no record for required key {name!r}")


def validate_jsonl(path, defname, root, errors, per_record=None):
    """JSONL store: every non-blank line must match $defs/<defname>."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                errors.append(f"{os.path.basename(path)} line {lineno}: "
                              f"not valid JSON: {err}")
                continue
            validate(record, root["$defs"][defname], root,
                     f"{os.path.basename(path)} line {lineno}", errors)
            if per_record is not None and isinstance(record, dict):
                per_record(record)


def validate_access_log(path, root, args, errors):
    ops = set()
    validate_jsonl(path, "accessRecord", root, errors,
                   per_record=lambda r: ops.add(r.get("op")))
    for name in args.require:
        if name not in ops:
            errors.append(f"$: no access record with op {name!r}")


def validate_profile(path, root, args, errors):
    """CPU profile JSONL: every line a profileRecord; --require NAME must
    be a substring of some stack or equal some record's query_id."""
    stacks = []
    query_ids = set()

    def collect(record):
        stacks.append(record.get("stack", ""))
        query_ids.add(str(record.get("query_id")))

    validate_jsonl(path, "profileRecord", root, errors, per_record=collect)
    for name in args.require:
        if name in query_ids:
            continue
        if any(isinstance(s, str) and name in s for s in stacks):
            continue
        errors.append(f"$: no sample with query_id {name!r} or a stack "
                      f"containing {name!r}")


def validate_bundle(dirpath, root, args, errors):
    """A diagnostics bundle is a directory; bundle.json names its contents."""
    manifest_path = os.path.join(dirpath, "bundle.json")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as err:
        errors.append(f"bundle.json: cannot read: {err}")
        return
    except json.JSONDecodeError as err:
        errors.append(f"bundle.json: not valid JSON: {err}")
        return
    validate(manifest, root["$defs"]["bundleManifest"], root, "bundle.json",
             errors)
    if not isinstance(manifest, dict):
        return

    for name in manifest.get("files", []):
        if isinstance(name, str) and not os.path.exists(
                os.path.join(dirpath, name)):
            errors.append(f"bundle.json: listed file {name!r} is missing "
                          f"from the bundle")
    if manifest.get("crash") is True and "signal" not in manifest:
        errors.append("bundle.json: crash manifest carries no signal")

    build_path = os.path.join(dirpath, "build.json")
    if os.path.exists(build_path):
        try:
            with open(build_path, encoding="utf-8") as fh:
                validate(json.load(fh), root["$defs"]["buildInfo"], root,
                         "build.json", errors)
        except json.JSONDecodeError as err:
            errors.append(f"build.json: not valid JSON: {err}")

    metrics_path = os.path.join(dirpath, "metrics.json")
    if os.path.exists(metrics_path):
        try:
            with open(metrics_path, encoding="utf-8") as fh:
                validate(json.load(fh), root["$defs"]["metrics"], root,
                         "metrics.json", errors)
        except json.JSONDecodeError as err:
            errors.append(f"metrics.json: not valid JSON: {err}")

    flight_path = os.path.join(dirpath, "flight.jsonl")
    seen = set()
    if os.path.exists(flight_path):
        validate_jsonl(
            flight_path, "flightEvent", root, errors,
            per_record=lambda r: seen.update((r.get("kind"), r.get("tag"))))
    else:
        errors.append("flight.jsonl: missing from the bundle")
    for name in args.require:
        if name not in seen:
            errors.append(f"flight.jsonl: no event with kind or tag {name!r}")

    # Present when the crashed/dumping process had a profiler armed; an
    # empty file is fine, every non-blank line must still be a record.
    profile_path = os.path.join(dirpath, "profile.jsonl")
    if os.path.exists(profile_path):
        validate_jsonl(profile_path, "profileRecord", root, errors)


def semantic_checks(kind, doc, args, errors):
    if kind == "metrics":
        for name in args.require:
            if name not in doc:
                errors.append(f"$.{name}: required metric missing from snapshot")
    elif kind == "trace":
        events = doc.get("traceEvents", [])
        stamps = [e["ts"] for e in events if isinstance(e, dict) and "ts" in e]
        if any(b < a for a, b in zip(stamps, stamps[1:])):
            errors.append("$.traceEvents: events not sorted by ts")
        names = {e.get("name") for e in events if isinstance(e, dict)}
        if args.require_events and not any(
                e.get("ph") == "X" for e in events if isinstance(e, dict)):
            errors.append("$.traceEvents: no complete (ph=X) span recorded")
        for name in args.require:
            if name not in names:
                errors.append(f"$.traceEvents: no event named {name!r}")
    elif kind == "telemetry":
        check_telemetry(doc, "$", errors)
    elif kind == "manifest":
        with_telemetry = 0
        for i, cell in enumerate(doc.get("cell_times", [])):
            if isinstance(cell, dict) and "telemetry" in cell:
                with_telemetry += 1
                check_telemetry(cell["telemetry"], f"$.cell_times[{i}].telemetry",
                                errors)
        if args.require_telemetry and with_telemetry == 0:
            errors.append("$.cell_times: no cell carries solver telemetry")
        for name in args.require:
            if name not in doc.get("metrics", {}):
                errors.append(f"$.metrics.{name}: required metric missing")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True,
                        choices=["metrics", "trace", "manifest", "telemetry",
                                 "bench", "report", "bundle", "accesslog",
                                 "profile"])
    parser.add_argument("--schema",
                        default=os.path.join(os.path.dirname(__file__), os.pardir,
                                             "schemas", "obs_artifacts.schema.json"))
    parser.add_argument("--require", action="append", default=[],
                        help="metric/event name that must be present")
    parser.add_argument("--require-telemetry", action="store_true",
                        help="manifest: at least one cell must carry telemetry")
    parser.add_argument("--require-events", action="store_true",
                        help="trace: at least one complete span must be present")
    parser.add_argument("artifact")
    args = parser.parse_args()

    with open(args.schema, encoding="utf-8") as fh:
        root = json.load(fh)

    errors = []
    if args.kind == "bench":
        validate_bench_history(args.artifact, root, args, errors)
    elif args.kind == "bundle":
        validate_bundle(args.artifact, root, args, errors)
    elif args.kind == "accesslog":
        validate_access_log(args.artifact, root, args, errors)
    elif args.kind == "profile":
        validate_profile(args.artifact, root, args, errors)
    else:
        try:
            with open(args.artifact, encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as err:
            print(f"{args.artifact}: not valid JSON: {err}", file=sys.stderr)
            return 1
        if args.kind == "report":
            name = doc.get("kind") if isinstance(doc, dict) else None
            if name not in REPORT_KINDS:
                print(f"{args.artifact}: $.kind: {name!r} is not a report kind "
                      f"(want one of {sorted(REPORT_KINDS)})", file=sys.stderr)
                return 1
            validate(doc, root["$defs"][REPORT_KINDS[name]], root, "$", errors)
        else:
            validate(doc, root["$defs"][args.kind], root, "$", errors)
            semantic_checks(args.kind, doc, args, errors)

    if errors:
        for err in errors:
            print(f"{args.artifact}: {err}", file=sys.stderr)
        return 1
    print(f"{args.artifact}: valid {args.kind}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
