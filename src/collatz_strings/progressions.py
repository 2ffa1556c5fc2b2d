"""Arithmetic-progression algebra underlying the branch structure of the map.

The objects of study are half-open progressions {a + b*t : t >= 0}.  The
conjugate step and its inverse act on such sets branch by branch: each
branch sends one progression onto another member by member (2+2m -> 3+3m
and 1+4m -> 1+3m forwards), turning an interval b into 3b/2 or 3b/4
forwards and 2b/3 or 4b/3 backwards.  This module provides exact residue
intersection, transport of a progression through one such branch map and
the generation loop built on it, the co-prime sampling check that keeps
the recurrence bookkeeping honest, and the branch-signature recurrence
search.

Generation k of an evolution lists, seed by seed, the transports of the
seed through every sequence of k branch maps, in lexicographic order of
the sequence.  That is the order of a depth-first walk of the branch
tree, so `evolve` yields the parts of generation k one at a time while
it holds one root-to-leaf path: O(k) parts, not 2^k.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd

from .core import (
    _checked,
    inverse_lower_step,
    lower_step,
    restriction_index,
)


@dataclass(frozen=True)
class Progression:
    """The set {intercept + interval*t : t >= 0}."""

    intercept: int
    interval: int

    def __post_init__(self) -> None:
        if self.intercept < 1:
            raise ValueError(f"intercept must be >= 1, got {self.intercept}")
        if self.interval < 1:
            raise ValueError(f"interval must be >= 1, got {self.interval}")

    def element(self, t: int) -> int:
        return self.intercept + self.interval * t

    def contains(self, x: int) -> bool:
        return x >= self.intercept and (x - self.intercept) % self.interval == 0

    def __str__(self) -> str:
        return f"{{{self.intercept}+{self.interval}t}}"


def intersect_residue(p: Progression, residue: int, mod: int) -> Progression | None:
    """Restrict p to its members congruent to residue (mod mod).

    Standard CRT split: solvable iff gcd(interval, mod) divides the offset,
    in which case the result is a progression with interval lcm(interval, mod).
    Returns None when the intersection is empty.
    """
    if mod < 1:
        raise ValueError(f"mod must be >= 1, got {mod}")
    residue %= mod
    a, b = p.intercept, p.interval
    g = gcd(b, mod)
    if (residue - a) % g != 0:
        return None
    m = mod // g
    # solve b*t = residue - a (mod mod); t is fixed mod m
    t0 = ((residue - a) // g * pow(b // g, -1, m)) % m if m > 1 else 0
    return Progression(_checked(a + b * t0), _checked(b * m))


def transport(part: Progression, src: Progression, dst: Progression) -> Progression | None:
    """Members of part that lie in src, mapped src.element(m) -> dst.element(m).

    Returns None when part has no member in src.
    """
    dom = intersect_residue(part, src.intercept, src.interval)
    if dom is None:
        return None
    stride = dom.interval // src.interval  # src indices between members of dom
    m = (dom.intercept - src.intercept) // src.interval
    if m < 0:  # members of the residue class below src's intercept are not in src
        m %= stride
    return Progression(_checked(dst.element(m)), _checked(stride * dst.interval))


def children(part: Progression,
             maps: tuple[tuple[Progression, Progression], ...]) -> list[Progression]:
    """part's transports through every (domain, image) map, in map order.

    A part with no member in some branch domain raises ValueError.
    """
    out = []
    for src, dst in maps:
        child = transport(part, src, dst)
        if child is None:
            raise ValueError(f"part {part} misses branch {src}")
        out.append(child)
    return out


def evolve(seeds: tuple[Progression, ...],
           maps: tuple[tuple[Progression, Progression], ...],
           generation: int) -> Iterator[Progression]:
    """Generation k of seeds under (domain, image) branch maps, as ordered parts.

    Each part is replaced by its children (see `children`), so children
    keep their parent's order and the order of maps.  The parts are
    yielded depth first; a part that misses a branch raises ValueError
    when the walk reaches it.  A negative generation raises at the call.
    """
    if generation < 0:
        raise ValueError(f"generation must be >= 0, got {generation}")
    return _depth_first(tuple(seeds), tuple(maps), generation)


def _depth_first(seeds, maps, generation):
    stack = [(generation, part) for part in reversed(seeds)]  # (generations left, part)
    while stack:
        left, part = stack.pop()
        if not left:
            yield part
        elif left == 1:
            yield from children(part, maps)
        else:
            stack += [(left - 1, child) for child in reversed(children(part, maps))]


@dataclass(frozen=True)
class SamplingVerdict:
    holds: bool
    counterexample: tuple[int, int] | None  # (sample index, observed gap)


def _first_gap_violation(tags, interval: int) -> tuple[int, int] | None:
    """First place where identical tags are not exactly `interval` apart."""
    last_seen: dict[int, int] = {}
    for i, tag in enumerate(tags):
        prev = last_seen.get(tag)
        if prev is not None and i - prev != interval:
            return i, i - prev
        last_seen[tag] = i
    return None


def sampling_lemma_check(base: int, power: int, period: int,
                         probe_len: int | None = None,
                         start: int = 0) -> SamplingVerdict:
    """Check that co-prime sampling preserves a periodic sequence's interval.

    Builds the tag sequence q_k = k mod base**power, whose identical tags sit
    exactly base**power apart, samples every period-th element starting at
    `start`, and verifies that consecutive identical tags in the sampled
    sequence again sit exactly base**power apart.  The sampling period must
    be co-prime with base; probe_len must cover at least two recurrences.
    """
    if base < 2 or power < 1 or period < 1:
        raise ValueError("need base >= 2, power >= 1, period >= 1")
    if gcd(period, base) != 1:
        raise ValueError(f"sampling period {period} is not co-prime with base {base}")
    interval = base ** power
    if probe_len is None:
        probe_len = 3 * interval
    if probe_len < 2 * interval + 1:
        raise ValueError(f"probe_len must be >= {2 * interval + 1} to see two recurrences")
    sampled = ((start + i * period) % interval for i in range(probe_len))
    violation = _first_gap_violation(sampled, interval)
    return SamplingVerdict(violation is None, violation)


# direction -> (tag of a position, least tag that ends a chain, step name,
# tag names).  Walks look the step up by name when they start, so they
# follow a patched `lower_step` or `inverse_lower_step`.
_DIRECTIONS = {
    "forward": (restriction_index, 3, "lower_step", {1: "even", 2: "odd"}),
    "backward": (lambda x: x % 3, 2, "inverse_lower_step", {0: "down", 1: "up", 2: "head"}),
}


@dataclass(frozen=True)
class Signature:
    """Branch record of a walk, one entry per step.

    Forward entries are branch indices (1 = even branch, 2 = branch inside
    1 mod 4, >= 3 = chain end, allowed only in final place).  Backward
    entries are residues mod 3 (0 = step down, 1 = step up, 2 = chain head,
    final place only).
    """

    direction: str  # "forward" | "backward"
    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if not self.steps:
            raise ValueError("a signature needs at least one step")
        if any(s >= _DIRECTIONS[self.direction][1] for s in self.steps[:-1]):
            raise ValueError("a chain end may only appear as the final entry")

    @property
    def truncated(self) -> bool:
        """Whether the walk stopped at a chain end."""
        return self.steps[-1] >= _DIRECTIONS[self.direction][1]

    @property
    def recurrence_gap(self) -> int:
        """Predicted spacing between positions sharing this signature."""
        if self.direction == "forward":
            return _checked(1 << sum(self.steps))
        return _checked(3 ** len(self.steps))

    @property
    def tags(self) -> tuple[str, ...]:
        names = _DIRECTIONS[self.direction][3]
        return tuple(names.get(s, f"terminal[{s}]") for s in self.steps)


def _signature(direction: str, x: int, steps: int) -> Signature:
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    tag, end, name, _ = _DIRECTIONS[direction]
    step = globals()[name]
    seq = []
    for _ in range(steps):
        seq.append(tag(x))
        if seq[-1] >= end:
            break
        x = step(x)
    return Signature(direction, tuple(seq))


def forward_signature(x: int, steps: int) -> Signature:
    """Branch indices of x's first `steps` conjugate-map steps.

    The walk follows lower_step; reaching a position 3 mod 4 records that
    position's branch index as a final terminal entry and stops early.
    """
    return _signature("forward", x, steps)


def backward_signature(x: int, steps: int) -> Signature:
    """Residues of x's first `steps` inverse walk steps.

    Follows inverse_lower_step; a residue-2 position (a chain head) is
    recorded as a final entry and stops the walk early.
    """
    return _signature("backward", x, steps)


def _matches(x: int, steps: tuple[int, ...], tag, end: int, step) -> bool:
    """Whether the walk from x has tags `steps`; exits at the first mismatch."""
    for t in steps:
        if tag(x) != t:
            return False
        if t < end:
            x = step(x)
    return True


# Search cap: the recurrence is predicted at exactly one gap, so a small
# multiple suffices before declaring the prediction refuted.
RECURRENCE_SEARCH_FACTOR = 4


def _first_recurrence(x: int, sig: Signature) -> int | None:
    tag, end, name, _ = _DIRECTIONS[sig.direction]
    step = globals()[name]
    bound = RECURRENCE_SEARCH_FACTOR * sig.recurrence_gap
    for candidate in range(x + 1, _checked(x + bound + 1)):
        if _matches(candidate, sig.steps, tag, end, step):
            return candidate
    return None


def first_recurrence_forward(x: int, steps: int) -> int | None:
    """Least x' > x whose forward signature equals x's, by brute scan.

    Scans up to RECURRENCE_SEARCH_FACTOR times the predicted gap and
    returns None if no recurrence appears in that range (a refutation of
    the predicted spacing).  The scan is independent of the prediction:
    every intermediate position is tested.
    """
    return _first_recurrence(x, forward_signature(x, steps))


def first_recurrence_backward(x: int, steps: int) -> int | None:
    """Least x' > x whose backward signature equals x's, by brute scan."""
    return _first_recurrence(x, backward_signature(x, steps))
