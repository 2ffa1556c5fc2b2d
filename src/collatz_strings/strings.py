"""String formation: progression evolution, counting identities, and sweeps.

Forward process: start from the chain heads {2+3t} and push every part
through both branches of the one-to-one map, dropping the 3 mod 4 class
(chain ends) at each generation.  Backward process: start from the chain
ends {3+4t} and pull back through both inverse branches, dropping heads.
Both evolutions stay exact unions of arithmetic progressions, which makes
the counting identities and intercept bounds directly checkable.

PROCESSES (seeds and branch maps) is the one table that tells the
directions apart: generation k is evolve(*PROCESSES[d], k), audit_part
checks one of its parts, interval_weight is a union's exact density, and
the coverage counts take their window base s, the seed's interval, from it.

The sweeps at the bottom verify that every chain closes: every position
walks back to a head and forward to an end, and every trajectory of the
conjugate map passes through 3 mod 4 (checked a residue class at a time).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from fractions import Fraction

from .checkpoint import load_checkpoint, save_checkpoint
from .core import (
    DEFAULT_WALK_LIMIT,
    MAX_VALUE,
    WidthExceededError,
    _checked,
    inverse_lower_step,
    lower_step,
)
from .family import Family, branch_maps
from .progressions import Progression, children, evolve

FORWARD_SEED = Progression(2, 3)   # chain heads: residue 2 mod 3
BACKWARD_SEED = Progression(3, 4)  # chain ends: residue 3 mod 4

# (domain, image) per branch, even branch first: 2+2m -> 3+3m, 1+4m -> 1+3m
FORWARD_MAPS = branch_maps(Family(1))
BACKWARD_MAPS = tuple((image, domain) for domain, image in FORWARD_MAPS)
# direction -> (seeds, branch maps) of the evolution
PROCESSES = {"forward": ((FORWARD_SEED,), FORWARD_MAPS),
             "backward": ((BACKWARD_SEED,), BACKWARD_MAPS)}


def interval_weight(parts: Iterable[Progression]) -> Fraction:
    """Exact density of a union of parts: the sum of 1/interval."""
    return sum((Fraction(1, p.interval) for p in parts), Fraction(0))


def audit_part(direction: str, part: Progression) -> tuple[bool, list[Progression]]:
    """Whether part's intercept is not below its interval, and its children
    that break the recursion bound.

    The children of a part (a, b) must respect the recursion bound on new
    intercepts: forward children c satisfy c <= 3(a+3b-1)/4 + 1, backward
    children c <= 4(a+2b-1)/3 + 1.  Both are compared in
    cleared-denominator integer form.
    """
    a, b = part.intercept, part.interval
    if direction == "forward":
        scale, bound = 4, 3 * (a + 3 * b - 1)
    else:
        scale, bound = 3, 4 * (a + 2 * b - 1)
    over = [child for child in children(part, PROCESSES[direction][1])
            if scale * (child.intercept - 1) > bound]
    return a >= b, over


@dataclass(frozen=True)
class CoverageCount:
    direction: str
    m: int
    window_start: int
    included: int
    open_count: int


def _window_base(direction: str) -> int:
    """The s of a direction's coverage window s**m: its seed's interval (3
    forward, 4 backward), since generation k has density (s-1)^k/s^(k+1)."""
    if direction not in PROCESSES:
        raise ValueError(f"unknown direction {direction!r}")
    (seed,), _ = PROCESSES[direction]
    return seed.interval


def expected_coverage(direction: str, m: int) -> tuple[int, int]:
    """Closed-form prediction for coverage_count: (included, open)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    s = _window_base(direction)
    included = sum((s - 1) ** k * s ** (m - k - 1) for k in range(m))
    return included, (s - 1) ** m


def coverage_count(direction: str, m: int, window_start: int = 2) -> CoverageCount:
    """Count window members covered by the first m generations.

    The window is [window_start, window_start + s**m), with s the seed's
    interval: 3 forward, 4 backward.  Membership is an explicit union over
    the parts of generations 0..m-1, marked one byte per window position,
    so the count does not presuppose disjointness.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if window_start < 2:
        raise ValueError(f"window_start must be >= 2, got {window_start}")
    window = _window_base(direction) ** m
    parts, maps = PROCESSES[direction]
    _checked(window_start + window)
    covered = bytearray(window)  # covered[i]: window_start + i is a member
    for generation in range(m):
        if generation:
            parts = tuple(evolve(parts, maps, 1))
        for part in parts:
            first = part.intercept - window_start
            if first < 0:
                first %= part.interval
            covered[first::part.interval] = b"\1" * len(range(first, window, part.interval))
    included = covered.count(1)
    return CoverageCount(direction, m, window_start, included, window - included)


@dataclass(frozen=True)
class StringRecord:
    """One chain of the one-to-one map, from head (2 mod 3) to end (3 mod 4).

    elements is None only when a walk truncated; head/tail are None on the
    truncated side.
    """

    head: int | None
    tail: int | None
    length: int
    elements: tuple[int, ...] | None
    truncated_backward: bool
    truncated_forward: bool

    @property
    def complete(self) -> bool:
        return not (self.truncated_backward or self.truncated_forward)


def build_string_containing(x: int, max_len: int = DEFAULT_WALK_LIMIT) -> StringRecord:
    """Walk x back to its chain head, then forward to the chain end.

    Position 1 is excluded: it is the fixed point of the map, not a chain.
    Either walk exceeding max_len marks the record truncated on that side;
    nothing is silently dropped.
    """
    if x < 2:
        raise ValueError(f"chains cover positions >= 2, got {x}")
    v = x
    back_steps = 0
    while v % 3 != 2:
        v = inverse_lower_step(v)
        back_steps += 1
        if back_steps > max_len:
            return StringRecord(None, None, back_steps, None, True, False)
    head = v
    chain = [head]
    v = head
    while v & 3 != 3:
        v = lower_step(v)
        chain.append(v)
        if len(chain) > max_len:
            return StringRecord(head, None, len(chain), None, False, True)
    return StringRecord(head, chain[-1], len(chain), tuple(chain), False, False)


@dataclass(frozen=True)
class PartitionAuditReport:
    limit: int
    heads: set[int]
    truncated: tuple[tuple[int, str], ...]      # (position, direction)
    conflicts: tuple[tuple[int, int, int], ...]  # (element, head_a, head_b)
    longest_chain: int

    @property
    def ok(self) -> bool:
        return not self.truncated and not self.conflicts

    @property
    def positions_checked(self) -> int:
        return self.limit - 1

    @property
    def string_count(self) -> int:
        return len(self.heads)


def partition_audit(limit: int, max_len: int = DEFAULT_WALK_LIMIT) -> PartitionAuditReport:
    """Verify that every position in [2, limit] sits in exactly one chain.

    Each chain is built once, from the first position in range that no
    earlier chain has placed.  Every element met keeps the head of the
    first chain that held it -- in a list slot per position in range, in a
    dict above the range -- and an element later met under a second head
    is a conflict (the one-to-one map should make this impossible).
    Truncated walks record nothing, so every member of a truncated chain
    is walked and reported on its own.  Truncated walks are findings, not
    errors.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    # a list, not array('q'): heads are unbounded, and `heads` holds them anyway
    head_in: list[int] = [0] * (limit + 1)  # 0: no complete chain holds it yet
    head_above: dict[int, int] = {}
    truncated: list[tuple[int, str]] = []
    conflicts: list[tuple[int, int, int]] = []
    heads: set[int] = set()
    longest = 0
    for x in range(2, limit + 1):
        if head_in[x]:
            continue
        record = build_string_containing(x, max_len)
        if record.truncated_backward:
            truncated.append((x, "backward"))
            continue
        head = record.head
        heads.add(head)
        if record.truncated_forward:
            truncated.append((x, "forward"))
            continue
        longest = max(longest, record.length)
        for element in record.elements:
            if element > limit:
                seen = head_above.setdefault(element, head)
            else:
                seen = head_in[element]
                if not seen:
                    head_in[element] = seen = head
            if seen != head:
                conflicts.append((element, seen, head))
    return PartitionAuditReport(
        limit=limit,
        heads=heads,
        truncated=tuple(truncated),
        conflicts=tuple(conflicts),
        longest_chain=longest,
    )


@dataclass(frozen=True)
class SweepReport:
    """Aggregates of a first-passage sweep over [lo, hi]."""

    lo: int
    hi: int
    max_steps: int
    processed: int
    hits: int
    truncated: tuple[int, ...]
    total_steps: int
    max_steps_observed: int
    argmax_position: int
    next_position: int  # first position not yet processed; hi+1 when complete

    @property
    def complete(self) -> bool:
        return self.next_position > self.hi

    @property
    def mean_steps(self) -> float:
        return self.total_steps / self.hits if self.hits else 0.0

    def merge(self, other: "SweepReport") -> "SweepReport":
        """Combine complete sweeps of disjoint ranges (associative, commutative)."""
        if not (self.complete and other.complete):
            raise ValueError("only complete sweeps can be merged")
        if self.max_steps != other.max_steps:
            raise ValueError("sweeps were run with different step budgets")
        # the larger max wins, a tie the first position to reach it (the loop's strict >)
        best = min(self, other, key=lambda r: (-r.max_steps_observed, r.argmax_position))
        if self.hi < other.lo:
            truncated = self.truncated + other.truncated
        elif other.hi < self.lo:
            truncated = other.truncated + self.truncated
        else:  # the spans interleave
            truncated = tuple(sorted(self.truncated + other.truncated))
        return SweepReport(
            lo=min(self.lo, other.lo),
            hi=max(self.hi, other.hi),
            max_steps=self.max_steps,
            processed=self.processed + other.processed,
            hits=self.hits + other.hits,
            truncated=truncated,
            total_steps=self.total_steps + other.total_steps,
            max_steps_observed=best.max_steps_observed,
            argmax_position=best.argmax_position,
            next_position=max(self.hi, other.hi) + 1,
        )

    def aggregates(self) -> dict:
        return {
            "processed": self.processed,
            "hits": self.hits,
            "truncated": list(self.truncated),
            "total_steps": self.total_steps,
            "max_steps_observed": self.max_steps_observed,
            "argmax_position": self.argmax_position,
        }


def _sweep_identity(lo: int, hi: int, max_steps: int) -> dict:
    return {"command": "passage", "direction": "forward", "lo": lo, "hi": hi,
            "max_steps": max_steps}


def _sweep_range(lo: int, hi: int, max_steps: int) -> SweepReport:
    """Complete report of [lo, hi] (empty when hi < lo), one residue class at a time.

    Until its first 3 mod 4 value a trajectory takes only lower_step's two
    affine branches.  So a class of members x = a + m*t, t in [0, c), with
    values v = b + n*t after s steps moves as one while 4 | n (or n = 2 mod 4
    and b is even): all of it hits 3 mod 4, runs out of steps or takes one
    branch.  Otherwise it splits on the parity of t (Terras's parity-vector
    tree, walked depth first).  A class of one member never splits: it steps
    by the same two branches until it hits, truncates or leaves the working
    range.  A tie on the maximum goes to the smallest member, as in a
    position loop.  When a member about to step would leave the working
    range, each position of [lo, hi] is swept again on its own in increasing
    order, so WidthExceededError names the first position to leave it.
    """
    hits = total_steps = max_seen = 0
    argmax = lo
    truncated: list[int] = []
    try:
        stack = [(lo, 1, hi - lo + 1, lo, 1, 0)] if hi >= lo else []
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
                    if 6 * (b + n * (c - 1)) - 2 > MAX_VALUE:
                        raise WidthExceededError(
                            f"trajectory of {a + m * (c - 1)} left the working range")
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
    except WidthExceededError:
        if hi > lo:  # a one-position sweep raises for the first member to leave
            for x in range(lo, hi + 1):
                _sweep_range(x, x, max_steps)
        raise
    truncated.sort()
    return SweepReport(
        lo=lo, hi=hi, max_steps=max_steps, processed=hi - lo + 1,
        hits=hits, truncated=tuple(truncated), total_steps=total_steps,
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
    and a chunk where a step would leave the working range is swept again
    one position at a time, so WidthExceededError names the first position
    to leave it.  The sweep folds chunk reports with SweepReport.merge.
    With checkpoint_path set, a chunk is checkpoint_every positions and
    after each one the report of [lo, next_position-1] is saved atomically;
    resume=True continues from it (ValueError for a malformed or
    inconsistent checkpoint).  budget caps the positions processed in this
    call (the report is then incomplete).
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

    done = (_load_sweep_checkpoint(checkpoint_path, lo, hi, max_steps) if resume
            else _sweep_range(lo, lo - 1, max_steps))
    start = done.next_position
    deadline = hi if budget is None else min(hi, start + budget - 1)
    chunk = checkpoint_every if checkpoint_path is not None else deadline - start + 1
    for a in range(start, deadline + 1, chunk):
        done = done.merge(_sweep_range(a, min(a + chunk - 1, deadline), max_steps))
        if checkpoint_path is not None:
            _save_sweep_checkpoint(checkpoint_path, done, hi)
    return replace(done, hi=hi, next_position=deadline + 1)


def _save_sweep_checkpoint(path: str, done: SweepReport, hi: int) -> None:
    """Save the report of [lo, next_position-1] of the sweep of [lo, hi]."""
    payload = _sweep_identity(done.lo, hi, done.max_steps)
    payload["next_position"] = done.next_position
    payload["last_completed"] = done.hi
    payload["aggregates"] = done.aggregates()
    del payload["aggregates"]["processed"]
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
    hits, truncated, total, top, argmax = (agg.get(k) for k in (
        "hits", "truncated", "total_steps", "max_steps_observed", "argmax_position"))
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
