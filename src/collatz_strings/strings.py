"""The first-passage sweep, which checks that every trajectory of the
conjugate map passes through 3 mod 4, its checkpoint format and the
`passage` command's handler (cmd_passage, called by cli).

The sweep moves whole residue classes of positions at once, down the
2-adic tree of lower_step (_sweep_classes); the partition audit
(audits.partition_audit) walks its chains forward by the same function.

A checkpoint is a single line of canonical JSON (sorted keys) so that two
checkpoints with the same state are byte-identical.  It carries the format
name and version, the sweep's identity and its aggregates.  Writes go
through a temporary file in the same directory followed by os.replace, so
a reader never observes a torn file.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple

from .core import (DEFAULT_WALK_LIMIT, MAX_VALUE, WidthExceededError, file_target,
                   replace_on_success, require_tree_work)


class SweepReport(namedtuple("SweepReport", "lo hi max_steps processed hits truncated "
                             "total_steps max_steps_observed argmax_position next_position")):
    """Aggregates of a first-passage sweep over [lo, hi].

    next_position is the first position not yet processed, hi+1 when complete.
    """

    __slots__ = ()

    @property
    def complete(self) -> bool:
        return self.next_position > self.hi

    @property
    def mean_steps(self) -> float:
        return self.total_steps / self.hits if self.hits else 0.0


# the checkpoint's aggregate fields of a SweepReport
_CHECKPOINT_AGGREGATES = ("hits", "truncated", "total_steps", "max_steps_observed",
                          "argmax_position")


def _sweep_identity(lo: int, hi: int, max_steps: int) -> dict:
    return {"command": "passage", "direction": "forward", "lo": lo, "hi": hi,
            "max_steps": max_steps}


def _sweep_classes(a: int, m: int, c: int, max_steps: int):
    """(hits, total_steps, max_steps_observed, argmax_position, truncated) of
    the members x = a + m*t, t in [0, c), each walked forward to its first
    3 mod 4 value; truncated is unsorted.

    Until its first 3 mod 4 value a trajectory takes only lower_step's two
    affine branches.  So a class of members whose values after s steps are
    v = b + n*t moves as one while 4 | n (or n = 2 mod 4 and b is even):
    all of it hits 3 mod 4, runs out of steps or takes one branch.
    Otherwise it splits on the parity of t (Terras's parity-vector tree,
    walked depth first).  A class of one member never splits: it steps by
    the same two branches until it hits, truncates or leaves the working
    range.  A tie on the maximum goes to the smallest member.  Members
    whose next step would leave the working range are cut from their
    class, and once the walk is done WidthExceededError names the least of
    them: the first position whose trajectory leaves the range.
    """
    bound = (MAX_VALUE + 2) // 6  # 6v-2 leaves the working range for v > bound
    hits, total_steps, max_seen, argmax, left = 0, 0, 0, a, None
    truncated: list[int] = []
    stack = [(a, m, c, a, m, 0)] if c > 0 else []
    while stack:
        a, m, c, b, n, s = stack.pop()
        while True:
            if c > 1 and n & 3 and (n | b) & 1:  # residues mod 4 differ: split on t
                half = c >> 1
                stack.append((a + m, 2 * m, half, b + n, 2 * n, s))
                m, c, n = 2 * m, c - half, 2 * n
                continue
            elif b & 3 != 3:
                if s >= max_steps:
                    truncated.extend(range(a, a + m * c, m))
                    break
                if b + n * (c - 1) > bound:  # members t >= c leave: cut them
                    c = (bound - b) // n + 1 if b <= bound else 0  # n is 0 for one member
                    left = a + m * c if left is None else min(left, a + m * c)
                    if not c:
                        break
                if b & 1:
                    b, n = (3 * b + 1) >> 2, (3 * n) >> 2
                else:
                    b, n = (3 * b) >> 1, (3 * n) >> 1
                s += 1
                continue
            hits += c
            total_steps += c * s
            if s > max_seen or (s == max_seen and a < argmax):
                max_seen, argmax = s, a
            break
    if left is not None:
        raise WidthExceededError(f"trajectory of {left} left the working range")
    return hits, total_steps, max_seen, argmax, truncated


def _sweep_range(lo: int, hi: int, max_steps: int,
                 done: SweepReport | None = None) -> SweepReport:
    """Complete report of [done.lo, hi]: done, the report of [done.lo, lo-1],
    extended by [lo, hi] swept one residue class at a time by _sweep_classes
    (the report of [lo, hi] when done is None).

    A maximum already in done keeps its position on a tie, as in a position
    loop.  WidthExceededError from _sweep_classes names the first position
    of [lo, hi] whose trajectory leaves the working range.
    """
    hits, total_steps, max_seen, argmax, truncated = _sweep_classes(
        lo, 1, hi - lo + 1, max_steps)
    truncated.sort()
    first, before = lo, ()
    if done is not None:
        first, before = done.lo, done.truncated
        hits += done.hits
        total_steps += done.total_steps
        if max_seen <= done.max_steps_observed:
            max_seen, argmax = done.max_steps_observed, done.argmax_position
    return SweepReport(
        lo=first, hi=hi, max_steps=max_steps, processed=hi - first + 1,
        hits=hits, truncated=before + tuple(truncated), total_steps=total_steps,
        max_steps_observed=max_seen, argmax_position=argmax, next_position=hi + 1,
    )


def passage_sweep(lo: int, hi: int, max_steps: int = DEFAULT_WALK_LIMIT,
                  checkpoint_path: str | None = None,
                  checkpoint_every: int = 1 << 20,
                  resume: bool = False,
                  budget: int | None = None) -> SweepReport:
    """First-passage sweep: every position in [lo, hi] must reach 3 mod 4.

    Records each position's number of conjugate steps to the first 3 mod 4
    value; positions exhausting max_steps are truncation findings.  Each
    chunk is swept by _sweep_range: whole residue classes x = a (mod 2^k)
    move together while they share a branch, down to classes of one member,
    and WidthExceededError names the first position whose trajectory
    leaves the working range.  Each chunk extends the report of the chunks
    before it.  With checkpoint_path set, a chunk is checkpoint_every
    positions and after each one the report of [lo, next_position-1] is
    saved atomically; resume=True extends the saved report (ValueError for
    a malformed or inconsistent checkpoint).  budget caps the positions
    processed in this call (the report is then incomplete); more than
    require_tree_work allows are refused before any is swept.
    """
    if lo < 2 or hi < lo:
        raise ValueError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if hi > MAX_VALUE:
        raise WidthExceededError("sweep bound exceeds the working range")
    if resume and checkpoint_path is None:
        raise ValueError("resume requires a checkpoint path")
    if checkpoint_path is not None:
        file_target(checkpoint_path)  # a bad path is refused before the first chunk

    done = _load_sweep_checkpoint(checkpoint_path, lo, hi, max_steps) if resume else None
    start = lo if done is None else done.next_position
    deadline = hi if budget is None else min(hi, start + budget - 1)
    if deadline >= start:
        require_tree_work("window", deadline - start + 1, 2.8e4, 5)
    chunk = checkpoint_every if checkpoint_path is not None else deadline - start + 1
    for a in range(start, deadline + 1, chunk):
        done = _sweep_range(a, min(a + chunk - 1, deadline), max_steps, done)
        if checkpoint_path is not None:
            _save_sweep_checkpoint(checkpoint_path, done, hi)
    return done._replace(hi=hi, next_position=deadline + 1)


CHECKPOINT_FORMAT = "collatz-strings-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str, payload: dict) -> None:
    """Atomically write payload (plus format/version header fields) to path."""
    record = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION, **payload}
    text = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    with replace_on_success(path) as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


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


def _save_sweep_checkpoint(path: str, done: SweepReport, hi: int) -> None:
    """Save the report of [lo, next_position-1] of the sweep of [lo, hi]."""
    payload = _sweep_identity(done.lo, hi, done.max_steps)
    payload["next_position"] = done.next_position
    payload["last_completed"] = done.hi
    payload["aggregates"] = {k: getattr(done, k) for k in _CHECKPOINT_AGGREGATES}
    save_checkpoint(path, payload)


def _load_sweep_checkpoint(path: str, lo: int, hi: int, max_steps: int) -> SweepReport:
    """The report of [lo, next_position-1] in a checkpoint, validated against the run."""
    state = load_checkpoint(path)
    expect = _sweep_identity(lo, hi, max_steps)
    got = {k: state.get(k) for k in expect}
    if got != expect:
        raise ValueError(f"checkpoint does not match this run: {got} != {expect}")
    start = state.get("next_position")
    if type(start) is not int or not lo <= start <= hi + 1:
        raise ValueError(f"checkpoint next_position {start!r} is outside [{lo}, {hi + 1}]")
    agg = state.get("aggregates")
    if not isinstance(agg, dict):
        raise ValueError("checkpoint aggregates are not an object")
    hits, truncated, total, top, argmax = (agg.get(k) for k in _CHECKPOINT_AGGREGATES)
    if not isinstance(truncated, list) or any(
            type(v) is not int for v in (hits, total, top, argmax, *truncated)):
        raise ValueError("checkpoint aggregates are not integers")
    bounds = [lo - 1, *truncated, start]  # truncated strictly increasing inside the range
    if not (all(a < b for a, b in zip(bounds, bounds[1:]))
            and hits + len(truncated) == start - lo
            and 0 <= top <= min(max_steps, total) and total <= hits * top
            and lo <= argmax <= max(lo, start - 1)):
        raise ValueError(f"checkpoint aggregates are inconsistent with [{lo}, {start - 1}]")
    return SweepReport(lo, start - 1, max_steps, start - lo, hits, tuple(truncated),
                       total, top, argmax, start)


def cmd_passage(args, cli):
    path, env_dir = args.checkpoint, os.environ.get(cli.CHECKPOINT_DIR_ENV)
    if env_dir and path and not os.path.isabs(path) and os.sep not in path:
        path = os.path.join(env_dir, path)  # a bare name joins the checkpoint directory
    report = cli.passage_sweep(
        args.lo, args.hi, max_steps=args.max_steps, checkpoint_path=path,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume, budget=args.budget,
    )
    for x in report.truncated:
        yield cli.finding("truncation", str(x), "no 3 mod 4 passage within the step budget",
                          {"position": x, "max_steps": report.max_steps})
    return {
        "lo": report.lo, "hi": report.hi, "processed": report.processed,
        "hits": report.hits, "truncated": len(report.truncated),
        "max_steps_observed": report.max_steps_observed,
        "argmax_position": report.argmax_position,
        "mean_steps": round(report.mean_steps, 6),
        "complete": report.complete, "next_position": report.next_position,
    }
