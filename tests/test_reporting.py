import json
import os

import pytest

from collatz_strings.checkpoint import load_checkpoint, save_checkpoint
from collatz_strings.progressions import Signature, _first_gap_violation
from collatz_strings.reporting import finding, header_record, render_csv, render_jsonl


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
    assert _first_gap_violation([0, 1, 2, 0, 1, 2, 0], 3) is None
    assert _first_gap_violation([0, 1, 0, 2, 1, 2], 3) == (2, 2)
    assert _first_gap_violation([0, 1, 2, 3, 0], 3) == (4, 4)
