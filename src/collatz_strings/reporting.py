"""Report records and deterministic serialization.

A report is a header record, a stream of findings, and a summary record.
JSON-lines is the primary format (one record per line, sorted keys, no
timestamps, so identical runs are byte-identical); CSV is supported for
flat summary tables.  Both render a report batch by batch to the same
bytes as all at once, the CSV column row going with the first batch only.
The measurement records of evolve's parts, a report's bulk, skip the
encoders: render_parts fills one fixed-shape line per format with the
same bytes.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

REPORT_SCHEMA = "collatz-strings-report"
REPORT_VERSION = 1

FINDING_KINDS = ("violation", "truncation", "mismatch", "measurement")
# Kinds that make a run fail (nonzero exit status).
FAILING_KINDS = frozenset({"violation", "truncation", "mismatch"})

# One encoder for every record: json.dumps builds a new one per call.  Records
# are trees of fresh dicts and lists, so the encoder skips the cycle check.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


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
    return "".join([_ENCODER.encode(r) + "\n" for r in records])


def render_csv(records: list[dict], column_row: bool = True) -> str:
    """Flatten records into a kind/location/details/payload table.

    The column row comes first unless column_row is false, as it is for
    every batch of a streamed report after the first.
    """
    import csv  # here, so that a JSON-lines run does not load it
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if column_row:
        writer.writerow(["record", "kind", "location", "details", "data"])
    for r in records:
        data = r.get("data") or {k: v for k, v in r.items()
                                 if k not in ("record", "kind", "location", "details")}
        writer.writerow([r.get("record", ""), r.get("kind", ""), r.get("location", ""),
                         r.get("details", ""), _ENCODER.encode(data) if data else ""])
    return out.getvalue()


# The measurement record of an evolve part {A+Bt} numbered I, as one
# fixed-shape line per format: the bytes render_jsonl and render_csv (with
# no column row) give finding("measurement", "part[I]", "{A+Bt}",
# {"intercept": A, "interval": B}), filled in by %-formatting.
_PART_JSONL = ('{"data":{"intercept":%d,"interval":%d},"details":"{%d+%dt}",'
               '"kind":"measurement","location":"part[%d]","record":"finding"}\n')
_PART_CSV = 'finding,measurement,part[%d],{%d+%dt},"{""intercept"":%d,""interval"":%d}"\n'


def render_parts(parts: Iterable[tuple[int, int]], start: int, fmt: str) -> str:
    """The measurement lines of parts, pairs (intercept, interval), numbered
    from start, in fmt ("jsonl" or "csv"), at about a fifth of the cost of
    record dicts through the encoders."""
    if fmt == "csv":
        return "".join([_PART_CSV % (i, a, b, a, b) for i, (a, b) in enumerate(parts, start)])
    return "".join([_PART_JSONL % (a, b, a, b, i) for i, (a, b) in enumerate(parts, start)])
