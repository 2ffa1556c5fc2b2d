"""Atomic checkpoint files for long range computations.

A checkpoint is a single line of canonical JSON (sorted keys) so that two
checkpoints with the same state are byte-identical.  The payload always
carries the format name and version plus whatever identity and aggregate
fields the owning command stores.  Writes go through a temporary file in
the same directory followed by os.replace, so a reader never observes a
torn file.
"""

from __future__ import annotations

import json
import os

CHECKPOINT_FORMAT = "collatz-strings-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str, payload: dict) -> None:
    """Atomically write payload (plus format/version header fields) to path."""
    record = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION}
    record.update(payload)
    text = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint, validating format and version."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            record = json.loads(fh.read())
    except RecursionError:  # nested deeper than the parser's stack: no checkpoint
        record = None
    if not isinstance(record, dict) or record.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if record.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {record.get('version')}")
    return record
