import csv
import io
import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import first_gap_violation

from collatz_strings.cli import (
    finding,
    header_record,
    render_csv,
    render_jsonl,
    render_parts,
)
from collatz_strings.core import MAX_VALUE
from collatz_strings.progressions import Progression
from collatz_strings.recurrence import Signature
from collatz_strings.strings import load_checkpoint, save_checkpoint


def test_checkpoint_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "state.ckpt")
    save_checkpoint(path, {"lo": 2, "hi": 9, "aggregates": {"hits": 8}})
    state = load_checkpoint(path)
    assert state["lo"] == 2 and state["aggregates"]["hits"] == 8
    assert state["format"] == "collatz-strings-checkpoint"


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = os.path.join(tmp_path, "other.json")
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": "collatz-strings-checkpoint", "version": 99}))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    with open(path, "w") as fh:
        fh.write(json.dumps([1]))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    with open(path, "w") as fh:  # nested deeper than the JSON parser's stack
        fh.write("[" * 200_000 + "]" * 200_000)
    with pytest.raises(ValueError, match="is not a collatz-strings-checkpoint file$"):
        load_checkpoint(path)


def test_checkpoint_leaves_no_temp_files(tmp_path):
    path = os.path.join(tmp_path, "state.ckpt")
    save_checkpoint(path, {"lo": 2})
    save_checkpoint(path, {"lo": 3})
    assert sorted(os.listdir(tmp_path)) == ["state.ckpt"]


def test_finding_kind_is_validated():
    with pytest.raises(ValueError):
        finding("surprise", "1", "details")


def test_jsonl_rendering_is_canonical():
    records = [header_record("demo", {"b": 1, "a": 2}),
               finding("measurement", "7", "value", {"z": 1, "a": 2})]
    text = render_jsonl(records)
    assert text == render_jsonl(records)
    lines = text.splitlines()
    assert lines[0].index('"command"') < lines[0].index('"config"')
    assert '"a":2' in lines[1] and lines[1].index('"a":2') < lines[1].index('"z":1')


def test_csv_rendering_flattens_payload():
    records = [finding("violation", "12", "broken", {"count": 3})]
    text = render_csv(records)
    lines = text.splitlines()
    assert lines[0] == "record,kind,location,details,data"
    assert lines[1].startswith("finding,violation,12,broken,")


def _one_at_a_time(records, fmt):
    """Reference rendering: one json.dumps per record or payload."""
    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    if fmt == "jsonl":
        return "".join(dumps(r) + "\n" for r in records)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["record", "kind", "location", "details", "data"])
    for r in records:
        data = r.get("data") or {k: v for k, v in r.items()
                                 if k not in ("record", "kind", "location", "details")}
        writer.writerow([r.get("record", ""), r.get("kind", ""), r.get("location", ""),
                         r.get("details", ""), dumps(data) if data else ""])
    return out.getvalue()


def test_rendering_matches_one_record_at_a_time():
    # a batch renders to the bytes of its records one at a time, also for
    # records holding "},{" in a string or between dicts in a list
    records = [header_record("demo", {"b": 1, "a": 2}),
               finding("measurement", "a},{b", "value", {"z": 1, "a": 2}),
               finding("violation", "7", "pairs", {"cells": [{"a": 1}, {"b": 2}]}),
               finding("mismatch", "8", "no data"),
               {"record": "summary", "command": "demo", "count": 0}]
    for batch in (records, records[1:2], records[2:3], records[3:], records[:1], []):
        assert render_jsonl(batch) == _one_at_a_time(batch, "jsonl")
        assert render_csv(batch) == _one_at_a_time(batch, "csv")


@given(st.integers(1, MAX_VALUE), st.integers(1, MAX_VALUE), st.integers(min_value=0))
def test_part_lines_equal_the_encoders(a, b, i):
    rec = finding("measurement", f"part[{i}]", str(Progression(a, b)),
                  {"intercept": a, "interval": b})
    assert render_parts([Progression(a, b)], i, "jsonl") == render_jsonl([rec])
    assert render_parts([Progression(a, b)], i, "csv") == render_csv([rec], column_row=False)


def test_signature_validation():
    Signature("forward", (1, 2, 4))  # terminal last is fine
    with pytest.raises(ValueError):
        Signature("forward", (4, 1))  # terminal not last
    with pytest.raises(ValueError):
        Signature("backward", (2, 0))  # head not last
    with pytest.raises(ValueError):
        Signature("sideways", (1,))
    with pytest.raises(ValueError):
        Signature("forward", ())


def test_gap_violation_detector():
    # consecutive equal tags must sit exactly `interval` apart
    assert first_gap_violation([0, 1, 2, 0, 1, 2, 0], 3) is None
    assert first_gap_violation([0, 1, 0, 2, 1, 2], 3) == (2, 2)
    assert first_gap_violation([0, 1, 2, 3, 0], 3) == (4, 4)
