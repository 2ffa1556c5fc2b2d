"""Reference reports, computed without the audits the benchmark times.

Each op's expected report is rebuilt record by record and rendered with
this module's own JSON-lines and CSV writers, so a timed run is checked
byte for byte through its digest.  The references use only the step
functions of `core` and `family` and the claims of the paper:

* `passage`: `core.trajectory_report` per position (hits, steps, max, argmax);
* `strings`: one walk per chain with `core` steps, marking members in a bytearray;
* `scan`: memoised forward/backward walks with `family` steps;
* `audit-3n3` and `cycles`: brute-force walks with `family_step`;
* `evolve`: parts rebuilt by stepping two members of each class, checked
  against the published parts of generations 1 and 2;
* `coverage`, `proportionality`, `family-audit`: the closed-form counts,
  the predicted recurrence spacing and the published case-system images.

A reference that would need a finding the paper rules out (a truncated
walk, a conflict, a mismatch) raises `Unsupported`: such an op must not be
in a workload.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from collatz_strings.core import (
    inverse_lower_step,
    lower_step,
    trajectory_report,
)
from collatz_strings.family import (
    CASE_SYSTEMS,
    Family,
    NonpositiveImageError,
    family_step,
    lower_preimages,
)

# Argparse defaults of each command, as echoed in the report header.
CLI_DEFAULTS = {
    "passage": {"max_steps": 100_000, "checkpoint": None, "checkpoint_every": 1 << 20,
                "resume": False, "budget": None},
    "strings": {"max_len": 100_000},
    "evolve": {},
    "coverage": {"window_start": 2, "random_starts": 0, "seed": 0},
    "family-audit": {"value_limit": None, "m_limit": None, "n_limit": 4},
    "cycles": {"seed_limit": 1000, "max_steps": 100_000},
    "audit-3n3": {},
    "scan": {"max_len": 100_000},
    "proportionality": {"direction": "both", "cases": 200, "x_max": 10_000, "n_max": 6,
                        "seed": 1},
}

# Generations 1 and 2 of both evolutions as published.
PUBLISHED_PARTS = {
    ("forward", 1): [(3, 9), (4, 9)],
    ("forward", 2): [(18, 27), (16, 27), (6, 27), (10, 27)],
    ("backward", 1): [(2, 8), (9, 16)],
    ("backward", 2): [(12, 16), (13, 32), (6, 32), (33, 64)],
}

# First-passage probes use a short step budget and retry in full only when
# the passage lies beyond it.
_SHORT_STEPS = 8


class Unsupported(ValueError):
    """The op's reference would need a finding the paper rules out."""


@dataclass(frozen=True)
class Reference:
    exit_code: int
    digest: str       # sha256 of the whole report
    body_digest: str  # sha256 of the report after its first line
    records: int
    positions: int    # positions (or rule instances, or cases) the op verifies


def digests(data: bytes) -> tuple[str, str]:
    """(whole report, report after its first line) sha256 digests."""
    cut = data.find(b"\n") + 1
    return hashlib.sha256(data).hexdigest(), hashlib.sha256(data[cut:]).hexdigest()


def render_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


def render_csv(records: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["record", "kind", "location", "details", "data"])
    fixed = ("record", "kind", "location", "details")
    for r in records:
        data = r.get("data") or {k: v for k, v in r.items() if k not in fixed}
        writer.writerow([r.get(k, "") for k in fixed]
                        + [json.dumps(data, sort_keys=True, separators=(",", ":"))
                           if data else ""])
    return out.getvalue()


def finding(kind: str, location: str, details: str, data: dict) -> dict:
    return {"record": "finding", "kind": kind, "location": location, "details": details,
            "data": data}


def reference(op) -> Reference:
    """Expected exit code, digests and sizes of the op's report."""
    args = {**CLI_DEFAULTS[op.command], **op.args}
    findings, summary, positions = _ORACLES[op.command](args)
    records = [{"record": "header", "schema": "collatz-strings-report", "version": 1,
                "command": op.command, "config": dict(sorted(args.items()))}]
    records += findings
    records.append({"record": "summary", "command": op.command, **summary})
    text = (render_csv if op.fmt == "csv" else render_jsonl)(records)
    data = text.encode("utf-8")
    failing = any(f["kind"] != "measurement" for f in findings)
    return Reference(1 if failing else 0, *digests(data), len(records), positions)


def _passage(a: dict):
    lo, hi, max_steps, budget = a["lo"], a["hi"], a["max_steps"], a["budget"]
    end = hi if budget is None or a["resume"] else min(hi, lo + budget - 1)
    hits = total = best = 0
    argmax = lo
    for x in range(lo, end + 1):
        steps = trajectory_report(x, _SHORT_STEPS).steps_to_first_3mod4
        if steps is None:
            steps = trajectory_report(x, max_steps).steps_to_first_3mod4
        if steps is None:
            raise Unsupported(f"position {x} has no 3 mod 4 passage within {max_steps}")
        hits += 1
        total += steps
        if steps > best:
            best, argmax = steps, x
    summary = {"lo": lo, "hi": hi, "processed": end - lo + 1, "hits": hits, "truncated": 0,
               "max_steps_observed": best, "argmax_position": argmax,
               "mean_steps": round(total / hits, 6), "complete": end >= hi,
               "next_position": end + 1}
    return [], summary, end - lo + 1


def _strings(a: dict):
    limit, max_len = a["limit"], a["max_len"]
    marked = bytearray(limit + 1)
    strings = longest = 0
    for x in range(2, limit + 1):
        if marked[x]:
            continue
        v = x
        while v % 3 != 2:
            v = inverse_lower_step(v)
        length = 1
        while True:
            if v <= limit:
                if marked[v]:
                    raise Unsupported(f"position {v} lies on two chains")
                marked[v] = 1
            if v & 3 == 3:
                break
            v = lower_step(v)
            length += 1
        if length > max_len or not marked[x]:
            raise Unsupported(f"chain through {x} is truncated or misses it")
        strings += 1
        longest = max(longest, length)
    summary = {"limit": limit, "positions_checked": limit - 1, "strings": strings,
               "longest_chain": longest, "truncated": 0, "conflicts": 0}
    return [], summary, limit - 1


def _rotation(cycle: list[int]) -> list[int]:
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


class _Stop(Exception):
    """A walk ended inside a step: at a chain head (reason None) or rejected."""

    def __init__(self, reason: str | None):
        self.reason = reason


def _walk(x: int, memo: dict, step, is_end) -> tuple:
    """Outcome of the walk from x as (reason, cycle, length), memoised per position.

    reason is None when the walk ends normally, else "cycle" or "rejected";
    length counts the positions the walk records before it stops, which is
    what a scan compares with max_len.
    """
    path: list[int] = []
    index: dict[int, int] = {}
    v = x
    while True:
        if is_end(v):
            tail = (None, None, 0)
            break
        if v in memo:
            tail = memo[v]
            break
        if v in index:
            at = index[v]
            cycle = _rotation(path[at:])
            for u in path[at:]:
                memo[u] = ("cycle", cycle, len(path) - at)
            del path[at:]
            tail = memo[v]
            break
        index[v] = len(path)
        path.append(v)
        try:
            v = step(v)
        except _Stop as stop:
            tail = (stop.reason, None, 0)
            break
    reason, cycle, length = tail
    for u in reversed(path):
        length += 1
        memo[u] = (reason, cycle, length)
    return memo.get(x, tail)


def _scan(a: dict):
    p, limit, max_len = a["p"], a["limit"], a["max_len"]
    fam = Family(p)
    q = (p - 3) // 2
    trivial = (abs(p) + 1) // 2

    def forward(v):
        try:
            return family_step(v, fam)
        except NonpositiveImageError:
            raise _Stop("rejected") from None

    def backward(v):
        preds = lower_preimages(v, fam)
        if not preds:
            raise _Stop(None)
        return preds[0]

    walks = [("forward", forward, lambda v: v % 4 == q % 4 and v >= q + 4)]
    if p % 3 != 0:
        walks.append(("backward", backward, lambda v: False))
    memos: dict[str, dict] = {direction: {} for direction, _, _ in walks}
    findings = []
    for x in range(1, limit + 1):
        if x == trivial:
            continue
        for direction, step, is_end in walks:
            reason, cycle, length = _walk(x, memos[direction], step, is_end)
            if length > max_len:
                raise Unsupported(f"{direction} walk from {x} is truncated")
            if reason is not None:
                findings.append(finding(
                    "violation" if reason == "cycle" else "truncation", str(x),
                    f"{direction} walk {reason}",
                    {"position": x, "direction": direction, "cycle": cycle}))
    scanned = limit - (1 if trivial <= limit else 0)
    summary = {"p": p, "limit": limit, "scanned": scanned, "orphans": len(findings)}
    return findings, summary, scanned


def _audit_3n3(a: dict):
    limit = a["limit"]
    fam = Family(3)
    counts = [0] * (limit + 1)
    first = [0] * (limit + 1)
    pairing = []
    # Base-domain images satisfy y >= (3x+2)/4, so larger x cannot land in range.
    for x in range(1, (4 * limit) // 3 + 2):
        if x % 4 == 0:
            continue
        y = family_step(x, fam)
        if y > limit:
            continue
        counts[y] += 1
        if counts[y] == 1:
            first[y] = x
        elif counts[y] == 2 and x != 2 * first[y]:
            pairing.append(finding("violation", str(y),
                                   "predecessors do not pair as half and double",
                                   {"image": y, "first": first[y], "second": x}))
    findings = [finding("violation", str(y), "image position not hit exactly twice",
                        {"position": y, "count": counts[y]})
                for y in range(1, limit + 1) if counts[y] != (2 if y % 3 == 2 else 0)]
    summary = {"limit": limit, "count_violations": len(findings),
               "pairing_violations": len(pairing)}
    return findings + pairing, summary, limit


def _cycles(a: dict):
    p, seed_limit, max_steps = a["p"], a["seed_limit"], a["max_steps"]
    fam = Family(p)
    found: set[tuple[int, ...]] = set()
    for seed in range(1, seed_limit + 1):
        seen: dict[int, int] = {}
        path: list[int] = []
        v = seed
        # A walk below its seed enters ground an earlier seed already covered.
        while v >= seed:
            if v in seen:
                found.add(tuple(_rotation(path[seen[v]:])))
                break
            seen[v] = len(path)
            path.append(v)
            if len(path) > max_steps:
                raise Unsupported(f"walk from {seed} is truncated")
            try:
                v = family_step(v, fam)
            except NonpositiveImageError:
                raise Unsupported(f"walk from {seed} is rejected") from None
    cycles = sorted(found, key=lambda c: (c[0], len(c), c))
    findings = [finding("measurement", str(c[0]), "cycle",
                        {"members": list(c), "length": len(c)}) for c in cycles]
    summary = {"p": p, "seed_limit": seed_limit, "cycles": len(cycles),
               "truncated_seeds": 0, "rejected_seeds": 0}
    return findings, summary, seed_limit


_BRANCHES = {
    "forward": ((2, 3), (lambda m: m % 2 == 0, lambda m: m % 4 == 1), lower_step),
    "backward": ((3, 4), (lambda m: m % 3 == 0, lambda m: m % 3 == 1), inverse_lower_step),
}


@lru_cache(maxsize=None)
def _generation(direction: str, k: int) -> tuple[tuple[int, int], ...]:
    """Parts (intercept, interval) of generation k, child pairs in parent order.

    Each child is the image of a part's members in one branch class, read
    off by stepping the class's first two members: the branches are affine.
    """
    seed, classes, step = _BRANCHES[direction]
    if k == 0:
        return (seed,)
    parts = []
    for a, b in _generation(direction, k - 1):
        for in_class in classes:
            first, second = [step(m) for m in (a + b * t for t in range(12)) if in_class(m)][:2]
            parts.append((first, second - first))
    return tuple(parts)


def _evolve(a: dict):
    direction, k = a["direction"], a["generations"]
    for (d, g), published in PUBLISHED_PARTS.items():
        if d == direction and list(_generation(d, g)) != published:
            raise Unsupported(f"{d} generation {g} differs from the published parts")
    parts = _generation(direction, k)
    children = _generation(direction, k + 1)
    if len(parts) != 2 ** k:
        raise Unsupported(f"generation {k} has {len(parts)} parts")
    if direction == "forward" and any(b != 3 ** (k + 1) for _, b in parts):
        raise Unsupported(f"forward generation {k} has an interval other than 3^{k + 1}")
    if direction == "backward" and sum(Fraction(1, b) for _, b in parts) != Fraction(
            3 ** k, 4 ** (k + 1)):
        raise Unsupported(f"backward generation {k} has the wrong density")
    findings = [finding("measurement", f"part[{i}]", f"{{{a}+{b}t}}",
                        {"intercept": a, "interval": b}) for i, (a, b) in enumerate(parts)]
    for i, (a, b) in enumerate(parts):
        for c, _ in children[2 * i:2 * i + 2]:
            ok = (4 * (c - 1) <= 3 * (a + 3 * b - 1) if direction == "forward"
                  else 3 * (c - 1) <= 4 * (a + 2 * b - 1))
            if a >= b or not ok:
                raise Unsupported(f"part {{{a}+{b}t}} breaks the intercept bounds")
    summary = {"direction": direction, "generation": k, "parts": len(parts),
               "intercepts_ok": True}
    return findings, summary, 0


def _coverage(a: dict):
    direction, m = a["direction"], a["m"]
    base, other = (3, 2) if direction == "forward" else (4, 3)
    included = sum(other ** k * base ** (m - k - 1) for k in range(m))
    rng = random.Random(a["seed"])
    starts = [a["window_start"]] + [rng.randint(2, 10 ** 6) for _ in range(a["random_starts"])]
    findings = [finding("measurement", str(s), "window count matches the closed form",
                        {"included": included, "open": other ** m}) for s in starts]
    summary = {"direction": direction, "m": m, "windows": len(starts),
               "expected_included": included, "expected_open": other ** m, "mismatches": 0}
    return findings, summary, len(starts) * base ** m


def _signature(direction: str, x: int, steps: int) -> list[int]:
    seq = []
    for _ in range(steps):
        if direction == "forward":
            base, depth = x, 0
            while base & 3 == 3:
                base, depth = (base + 1) >> 2, depth + 1
            seq.append(2 * depth + (1 if base % 2 == 0 else 2))
            if seq[-1] > 2:
                break
            x = lower_step(x)
        else:
            seq.append(x % 3)
            if seq[-1] == 2:
                break
            x = inverse_lower_step(x)
    return seq


def _proportionality(a: dict):
    cases = []
    if a["direction"] in ("forward", "both"):
        cases.append(("forward", 2, 2))
    if a["direction"] in ("backward", "both"):
        cases.append(("backward", 7, 4))
    rng = random.Random(a["seed"])
    for direction in (["forward", "backward"] if a["direction"] == "both"
                      else [a["direction"]]):
        for _ in range(a["cases"]):
            cases.append((direction, rng.randint(1, a["x_max"]), rng.randint(1, a["n_max"])))
    findings = []
    for direction, x, steps in cases:
        sig = _signature(direction, x, steps)
        gap = 1 << sum(sig) if direction == "forward" else 3 ** len(sig)
        if _signature(direction, x + gap, steps) != sig:
            raise Unsupported(f"{direction} signature of {x} does not recur at +{gap}")
        findings.append(finding("measurement", str(x), "first recurrence at the predicted spacing",
                                {"x": x, "steps_requested": steps, "signature": sig,
                                 "predicted": x + gap, "found": x + gap,
                                 "direction": direction}))
    summary = {"cases": len(cases), "failures": 0, "seed": a["seed"]}
    return findings, summary, len(cases)


def _family_audit(a: dict):
    p, n_limit, m_limit = a["p"], a["n_limit"], a["m_limit"]
    value_limit = a["value_limit"]
    if value_limit is None and m_limit is None:
        value_limit = 10_000
    q = (p - 3) // 2
    checked = 0
    for d, d_stride, image, i_stride in CASE_SYSTEMS[p]:
        m = 0
        while (value_limit is None or d + d_stride * m <= value_limit) and (
                m_limit is None or m <= m_limit):
            v, expected = d + d_stride * m, image + i_stride * m
            for _ in range(n_limit + 1):
                t = 6 * v - 3 + p
                if ((t >> ((t & -t).bit_length() - 1)) + 1) >> 1 != expected:
                    raise Unsupported(f"p={p}: position {v} does not map to {expected}")
                checked += 1
                v = 4 * v + q
            if d_stride == 0:
                break
            m += 1
    return [], {"p": p, "checked": checked, "mismatches": 0}, checked


_ORACLES = {
    "passage": _passage,
    "strings": _strings,
    "scan": _scan,
    "audit-3n3": _audit_3n3,
    "cycles": _cycles,
    "evolve": _evolve,
    "coverage": _coverage,
    "proportionality": _proportionality,
    "family-audit": _family_audit,
}
