"""Report records and deterministic serialization.

A report is a header record, a stream of findings, and a summary record.
JSON-lines is the primary format (one record per line, sorted keys, no
timestamps, so identical runs are byte-identical); CSV is supported for
flat summary tables.  Both render a report batch by batch to the same
bytes as all at once, the CSV column row going with the first batch only.
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

# One encoder for every record: json.dumps builds a new one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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
    encode = _ENCODER.encode
    return "".join([encode(r) + "\n" for r in records])


def render_csv(records: list[dict], column_row: bool = True) -> str:
    """Flatten records into a kind/location/details/payload table.

    The column row comes first unless column_row is false, as it is for
    every batch of a streamed report after the first.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if column_row:
        writer.writerow(["record", "kind", "location", "details", "data"])
    for r in records:
        data = r.get("data") or {k: v for k, v in r.items()
                                 if k not in ("record", "kind", "location", "details")}
        writer.writerow([
            r.get("record", ""), r.get("kind", ""), r.get("location", ""),
            r.get("details", ""),
            _ENCODER.encode(data) if data else "",
        ])
    return out.getvalue()
