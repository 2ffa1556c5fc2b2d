"""Report records and deterministic serialization.

A report is a header record, a stream of findings, and a summary record.
JSON-lines is the primary format (one record per line, sorted keys, no
timestamps, so identical runs are byte-identical); CSV is supported for
flat summary tables.
"""

from __future__ import annotations

import csv
import io
import json

REPORT_SCHEMA = "collatz-strings-report"
REPORT_VERSION = 1

FINDING_KINDS = ("violation", "truncation", "mismatch", "measurement")
# Kinds that make a run fail (nonzero exit status).
FAILING_KINDS = frozenset({"violation", "truncation", "mismatch"})


def finding(kind: str, location: str, details: str, data: dict | None = None) -> dict:
    """A finding record; kind must be one of FINDING_KINDS."""
    if kind not in FINDING_KINDS:
        raise ValueError(f"unknown finding kind {kind!r}")
    record = {"record": "finding", "kind": kind, "location": location, "details": details}
    if data is not None:
        record["data"] = data
    return record


def header_record(command: str, config: dict) -> dict:
    return {"record": "header", "schema": REPORT_SCHEMA, "version": REPORT_VERSION,
            "command": command, "config": config}


def summary_record(command: str, summary: dict) -> dict:
    return {"record": "summary", "command": command, **summary}


def render_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


def render_csv(records: list[dict]) -> str:
    """Flatten records into a kind/location/details/payload table."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["record", "kind", "location", "details", "data"])
    for r in records:
        data = r.get("data") or {k: v for k, v in r.items()
                                 if k not in ("record", "kind", "location", "details")}
        writer.writerow([
            r.get("record", ""), r.get("kind", ""), r.get("location", ""),
            r.get("details", ""),
            json.dumps(data, sort_keys=True, separators=(",", ":")) if data else "",
        ])
    return out.getvalue()
