"""The 3n+p generalization of the conjugated map.

For every odd p, the map n -> odd part of 3n+p transports to positions the
same way the p=1 map does, with the equivalence x ~ 4x+q, q=(p-3)/2, in
place of x ~ 4x-1.  The branch layout on positions is derived here from q
alone: one stride-2 residue class, one stride-4 class, the class of
equivalents (chain ends), and finitely many leftover small positions that
get their own one-off rules.

CASE_SYSTEMS transcribes the published position-map systems for each small
p; audit_case_system checks every transcribed rule instance against the
generic step, which is the oracle throughout this module.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable
from dataclasses import dataclass

from .core import DEFAULT_WALK_LIMIT, _checked
from .progressions import Progression, evolve


class NonpositiveImageError(ValueError):
    """3n+p fell below 1, so the family's step is undefined there."""


@dataclass(frozen=True)
class Family:
    """One member of the 3n+p family, for odd p (negative allowed)."""

    p: int

    def __post_init__(self) -> None:
        if self.p % 2 == 0:
            raise ValueError(f"family parameter must be odd, got {self.p}")

    @property
    def q(self) -> int:
        """Offset of the equivalence map x -> 4x+q."""
        return (self.p - 3) // 2

    @property
    def trivial_loop_position(self) -> int:
        """Position of the built-in fixed point (the odd value |p|)."""
        return (abs(self.p) + 1) // 2

    def is_equivalent_position(self, x: int) -> bool:
        """True when x = 4x'+q for some valid position x' < x (x ends a chain).

        x' < x is 3x+q > 0, that is 3(2x-1)+p >= 1, so a position whose
        own step is undefined (1 for p = -3, 2 for p = -9) ends no chain.
        """
        q = self.q
        return x % 4 == q % 4 and x >= q + 4 and 3 * x + q > 0


def family_step(x: int, family: Family) -> int:
    """Position image under the family's accelerated map.

    Sends position x (odd value 2x-1) to the position of the odd part of
    3(2x-1)+p.  Raises NonpositiveImageError when 3(2x-1)+p < 1.
    """
    if x < 1:
        raise ValueError(f"position must be >= 1, got {x}")
    t = 6 * x - 3 + family.p
    if t < 1:
        raise NonpositiveImageError(f"3n+p is {t} at position {x} for p={family.p}")
    _checked(t)
    j = (t & -t).bit_length() - 1
    return ((t >> j) + 1) >> 1


def family_equivalent(x: int, family: Family) -> int:
    """Next position sharing x's image in this family: 4x+q."""
    if x < 1:
        raise ValueError(f"position must be >= 1, got {x}")
    result = _checked(4 * x + family.q)
    if result < 1:
        raise ValueError(f"4x+q is {result}; p={family.p} has no equivalent of {x}")
    return result


def family_equivalent_n(x: int, count: int, family: Family) -> int:
    """count-fold family_equivalent; count=0 returns x."""
    if x < 1:
        raise ValueError(f"position must be >= 1, got {x}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    for _ in range(count):
        x = family_equivalent(x, family)
    return x


def branch_maps(family: Family) -> tuple[tuple[Progression, Progression], ...]:
    """The two lower branches as (domain, image) progression pairs.

    Equivalents occupy the class q mod 4 (from x >= q+4 up).  What remains
    is one full stride-2 class and one stride-4 class, determined by q's
    parity and residue; positions of the equivalent class below q+4 are
    the leftover exceptional positions handled by one-off rules.  Each
    domain starts at its first member whose 3n+p is at least 1 (for
    p <= -5 the smallest members have no image).  On each class the step
    is affine with image interval 3, so the image is pinned by the domain
    intercept and checked once on the domain's second member.
    """
    q4 = family.q % 4
    if family.q % 2 == 0:
        stride2 = Progression(1, 2)
        stride4 = Progression(2, 4) if q4 == 0 else Progression(4, 4)
    else:
        stride2 = Progression(2, 2)
        stride4 = Progression(3, 4) if q4 == 1 else Progression(1, 4)
    lowest = (9 - family.p) // 6  # least position with 3(2x-1)+p >= 1
    maps = []
    for domain in (stride2, stride4):
        skip = -((domain.intercept - lowest) // domain.interval)  # members below lowest
        if skip > 0:
            domain = Progression(domain.element(skip), domain.interval)
        image = Progression(family_step(domain.intercept, family), 3)
        if family_step(domain.element(1), family) != image.element(1):
            raise ValueError(f"step is not affine on {domain} (p={family.p})")
        maps.append((domain, image))
    return tuple(maps)


def exceptional_positions(family: Family) -> tuple[int, ...]:
    """Positions in the equivalent residue class that are too small to be one."""
    q4 = family.q % 4
    first = q4 if q4 >= 1 else 4
    return tuple(range(first, max(family.q + 4, first), 4))


def lower_preimages(x: int, family: Family) -> tuple[int, ...]:
    """All chain predecessors of x: lower-domain positions stepping to x.

    A predecessor x' satisfies 3(2x'-1)+p = (2x-1)*2^j for some j >= 1.
    Valid j values repeat with period 2 and deeper solutions are exactly
    the 4x+q images of shallower ones, so reducing every solution to its
    base yields the distinct predecessors: at most one for p not divisible
    by 3, at most two otherwise.  Every result is verified by stepping it.
    This search is the oracle for the closed form of predecessor_rule,
    which the chain scans use.
    """
    if x < 1:
        raise ValueError(f"position must be >= 1, got {x}")
    target = 2 * x - 1
    bases: list[int] = []
    j_cap = max(8, abs(family.p).bit_length() + 3)
    for j in range(1, j_cap + 1):
        num = (target << j) - family.p
        if num < 3 or num % 3 != 0:
            continue
        m = num // 3
        if m % 2 == 0:
            continue
        candidate = (m + 1) >> 1
        while family.is_equivalent_position(candidate):
            candidate = (candidate - family.q) // 4
        if candidate in bases:
            continue
        try:
            if family_step(candidate, family) == x:
                bases.append(candidate)
        except NonpositiveImageError:
            pass  # a position whose step is undefined precedes nothing
    return tuple(sorted(bases))


def predecessor_rule(family: Family) -> Callable[[int], tuple[int, ...]]:
    """lower_preimages in closed form: a function v -> sorted predecessors of v.

    Derived once from branch_maps: a value v = b + 3m on the image of a
    branch with domain a + s*m has the predecessor a + s*(v-b)/3.  The
    exceptional positions, which no branch covers, form a small table from
    image to positions.  Like lower_preimages, a predecessor whose 3n+p
    leaves the working range raises WidthExceededError.
    """
    p = family.p
    branches = tuple((img.intercept, img.intercept % 3, dom.intercept, dom.interval)
                     for dom, img in branch_maps(family))
    one_off: dict[int, tuple[int, ...]] = {}
    for e in exceptional_positions(family):
        y = family_step(e, family)
        one_off[y] = one_off.get(y, ()) + (e,)

    def predecessors(v: int) -> tuple[int, ...]:
        if v < 1:
            raise ValueError(f"position must be >= 1, got {v}")
        r = v % 3
        found = [a + s * (v - b) // 3 for b, rb, a, s in branches if r == rb and v >= b]
        found += one_off.get(v, ())
        for x in found:
            _checked(6 * x - 3 + p)
        return tuple(sorted(found))

    return predecessors


# Position-map systems for small |p|, transcribed verbatim as published.
# Each rule is (domain_offset, domain_stride, image_offset, image_stride);
# stride 0 marks a one-off rule for a single exceptional position.
_Rule = tuple[int, int, int, int]

CASE_SYSTEMS: dict[int, tuple[_Rule, ...]] = {
    1: ((2, 2, 3, 3), (1, 4, 1, 3)),
    7: ((1, 2, 3, 3), (4, 4, 4, 3), (2, 0, 1, 0)),
    13: ((2, 2, 6, 3), (3, 4, 4, 3), (1, 0, 1, 0), (5, 0, 3, 0)),
    19: ((1, 2, 6, 3), (2, 4, 4, 3), (8, 0, 1, 0), (4, 0, 3, 0)),
    25: ((2, 2, 9, 3), (1, 4, 4, 3), (7, 0, 1, 0), (3, 0, 3, 0), (11, 0, 6, 0)),
    31: ((1, 2, 9, 3), (4, 4, 7, 3), (6, 0, 1, 0), (2, 0, 3, 0), (14, 0, 4, 0),
         (10, 0, 6, 0)),
    37: ((2, 2, 12, 3), (3, 4, 7, 3), (5, 0, 1, 0), (1, 0, 3, 0), (13, 0, 4, 0),
         (9, 0, 6, 0), (17, 0, 9, 0)),
    -1: ((1, 2, 1, 3), (4, 4, 3, 3)),
    5: ((2, 2, 4, 3), (3, 4, 3, 3), (1, 0, 1, 0)),
    11: ((1, 2, 4, 3), (2, 4, 3, 3), (4, 0, 1, 0)),
    17: ((2, 2, 7, 3), (1, 4, 3, 3), (3, 0, 1, 0), (7, 0, 4, 0)),
    23: ((1, 2, 7, 3), (4, 4, 6, 3), (2, 0, 1, 0), (6, 0, 4, 0), (10, 0, 3, 0)),
    3: ((1, 2, 2, 3), (2, 4, 2, 3)),
    9: ((2, 2, 5, 3), (1, 4, 2, 3), (3, 0, 2, 0)),
    15: ((1, 2, 5, 3), (4, 4, 5, 3), (2, 0, 2, 0), (6, 0, 2, 0)),
    21: ((2, 2, 8, 3), (3, 4, 5, 3), (1, 0, 2, 0), (5, 0, 2, 0), (9, 0, 5, 0)),
    27: ((1, 2, 8, 3), (2, 4, 5, 3), (4, 0, 2, 0), (8, 0, 5, 0), (12, 0, 2, 0)),
    33: ((2, 2, 11, 3), (1, 4, 5, 3), (3, 0, 2, 0), (7, 0, 5, 0), (11, 0, 2, 0),
         (15, 0, 8, 0)),
}

CASE_SYSTEM_PARAMS = tuple(sorted(CASE_SYSTEMS))


@dataclass(frozen=True)
class CaseRule:
    """One rule of a published system: a progression or a single position."""

    domain_offset: int
    domain_stride: int  # 0 for a one-off rule
    image_offset: int
    image_stride: int

    def instances(self, value_limit: int | None = None, m_limit: int | None = None):
        """Yield (domain value, expected image), bounded by value and/or index.

        value_limit caps the domain value, m_limit caps the progression
        index m; at least one bound is required (one-off rules yield their
        single instance under either).
        """
        if value_limit is None and m_limit is None:
            raise ValueError("need value_limit or m_limit")
        if self.domain_stride == 0:
            if value_limit is None or self.domain_offset <= value_limit:
                yield self.domain_offset, self.image_offset
            return
        m = 0
        while m_limit is None or m <= m_limit:
            value = self.domain_offset + self.domain_stride * m
            if value_limit is not None and value > value_limit:
                return
            yield value, self.image_offset + self.image_stride * m
            m += 1


def case_system(p: int) -> tuple[CaseRule, ...]:
    """The transcribed rule system for parameter p."""
    if p not in CASE_SYSTEMS:
        raise KeyError(f"no transcribed system for p={p}")
    return tuple(CaseRule(*r) for r in CASE_SYSTEMS[p])


@dataclass(frozen=True)
class CaseAuditReport:
    p: int
    checked: int
    mismatches: tuple[tuple[int, int, int, int], ...]  # (domain, depth, expected, got)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def audit_case_system(family: Family, rules: tuple[CaseRule, ...] | None = None,
                      *, value_limit: int | None = None, m_limit: int | None = None,
                      n_limit: int) -> CaseAuditReport:
    """Check every rule instance against the generic step.

    For each rule instance (d -> i), bounded by domain value and/or index m,
    and each equivalence depth n <= n_limit, asserts
    family_step(equiv^n(d)) == i.  Mismatches are report content, not
    exceptions.
    """
    if n_limit < 0:
        raise ValueError(f"n_limit must be >= 0, got {n_limit}")
    if value_limit is not None and value_limit < 1:
        raise ValueError(f"value_limit must be >= 1, got {value_limit}")
    if m_limit is not None and m_limit < 0:
        raise ValueError(f"m_limit must be >= 0, got {m_limit}")
    if rules is None:
        rules = case_system(family.p)
    mismatches: list[tuple[int, int, int, int]] = []
    checked = 0
    for rule in rules:
        for domain_value, image_value in rule.instances(value_limit, m_limit):
            v = domain_value
            for depth in range(n_limit + 1):
                got = family_step(v, family)
                checked += 1
                if got != image_value:
                    mismatches.append((domain_value, depth, image_value, got))
                if depth < n_limit:
                    v = family_equivalent(v, family)
    return CaseAuditReport(family.p, checked, tuple(mismatches))


def _canonical_rotation(members: tuple[int, ...]) -> tuple[int, ...]:
    pivot = members.index(min(members))
    return members[pivot:] + members[:pivot]


@dataclass(frozen=True)
class CycleSearchReport:
    p: int
    seed_limit: int
    cycles: tuple[tuple[int, ...], ...]
    truncated_seeds: tuple[int, ...]
    rejected_seeds: tuple[int, ...]  # seeds whose walk hit a nonpositive image

    @property
    def cycle_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.cycles)


def find_cycles(family: Family, seed_limit: int,
                max_steps: int = DEFAULT_WALK_LIMIT) -> CycleSearchReport:
    """Collect the cycles reachable from positions 1..seed_limit.

    Each seed is iterated with per-seed visited tracking; walks stop once
    they dip below the seed (that region was classified by an earlier
    seed), so every cycle whose minimum is <= seed_limit is discovered
    exactly once.  Cycles are reported in canonical min-first rotation.
    """
    if seed_limit < 1:
        raise ValueError(f"seed_limit must be >= 1, got {seed_limit}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    found: set[tuple[int, ...]] = set()
    truncated: list[int] = []
    rejected: list[int] = []
    # Not _walk: most seeds dip below themselves within a few steps, and the
    # extra call per step (a bound step, a floor check) made the search up to
    # twice as slow at seed limit 10^5.
    for seed in range(1, seed_limit + 1):
        index: dict[int, int] = {}
        path: list[int] = []
        v = seed
        while True:
            if v < seed:
                break
            at = index.get(v)
            if at is not None:
                found.add(_canonical_rotation(tuple(path[at:])))
                break
            index[v] = len(path)
            path.append(v)
            if len(path) > max_steps:
                truncated.append(seed)
                break
            try:
                v = family_step(v, family)
            except NonpositiveImageError:
                rejected.append(seed)
                break
    cycles = tuple(sorted(found, key=lambda c: (c[0], len(c), c)))
    return CycleSearchReport(family.p, seed_limit, cycles, tuple(truncated), tuple(rejected))


@dataclass(frozen=True)
class TwoToOneReport:
    limit: int
    count_violations: tuple[tuple[int, int], ...]    # (position, observed count)
    pairing_violations: tuple[tuple[int, int, int], ...]  # (image, first, second)

    @property
    def ok(self) -> bool:
        return not self.count_violations and not self.pairing_violations


def two_to_one_audit(limit: int) -> TwoToOneReport:
    """Audit the p=3 map: every image position is hit exactly twice.

    Tallies images of every base-domain position (positions not divisible
    by 4) through the generic step.  Positions 2 mod 3 up to limit must be
    hit exactly twice, everything else zero times, and the two predecessors
    of an image must pair as (x, 2x) -- each chain member's companion is
    exactly half or double.

    On the base domain the image is at least (3x+2)/4, so predecessors of
    images <= limit all lie at or below (4*limit - 2)/3.  Counts are
    tallied in a byte per image, and an image hit more than 255 times
    keeps its exact count in a dict; the first predecessor of each image
    sits in an integer array.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    family = Family(3)
    x_max = (4 * limit - 2) // 3 + 1
    counts = bytearray(limit + 1)
    many: dict[int, int] = {}  # exact counts of images hit more than 255 times
    first_seen = array("q", [0]) * (limit + 1)
    pairing_bad: list[tuple[int, int, int]] = []
    for x in range(1, x_max + 1):
        if x & 3 == 0:
            continue
        y = family_step(x, family)
        if y > limit:
            continue
        c = counts[y]
        if c == 0:
            first_seen[y] = x
        elif c == 1 and x != 2 * first_seen[y]:
            pairing_bad.append((y, first_seen[y], x))
        if c < 255:
            counts[y] = c + 1
        else:
            many[y] = many.get(y, 255) + 1
    count_bad = []
    for y in range(1, limit + 1):
        expected = 2 if y % 3 == 2 else 0
        if counts[y] != expected:
            count_bad.append((y, many.get(y, counts[y])))
    return TwoToOneReport(limit, tuple(count_bad), tuple(pairing_bad))


@dataclass(frozen=True)
class OrphanRecord:
    position: int
    direction: str  # "forward" | "backward"
    reason: str     # "cycle" | "truncated" | "rejected"
    cycle: tuple[int, ...] | None


@dataclass(frozen=True)
class StringScanReport:
    p: int
    limit: int
    scanned: int
    orphans: tuple[OrphanRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.orphans

    @property
    def orphan_positions(self) -> tuple[int, ...]:
        return tuple(sorted({o.position for o in self.orphans}))


def string_scan(family: Family, limit: int,
                max_len: int = DEFAULT_WALK_LIMIT) -> StringScanReport:
    """Scan positions 1..limit for membership in the family's chains.

    Forward, every position should walk to a chain end (an equivalent
    position).  Backward -- only for families with unique predecessors,
    i.e. p not divisible by 3 -- every position should walk to a head
    (a position with no predecessor), one predecessor_rule step at a time.
    A walk that cycles, truncates (records more than max_len positions),
    or hits a nonpositive image makes the start an orphan.  The family's
    built-in fixed point is skipped; it is a loop, not a chain.

    Walks are memoized per direction for positions <= limit (see _walk),
    so each position's walk is followed once however many starts reach
    it; the orphans are those of walking every start on its own.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    trivial = family.trivial_loop_position
    is_end = family.is_equivalent_position

    def forward(v: int) -> int:  # 0 at a chain end, -1 rejected
        try:
            v = family_step(v, family)
        except NonpositiveImageError:
            return -1
        return 0 if is_end(v) else v

    walks = [("forward", forward)]
    if family.p % 3 != 0:
        predecessors = predecessor_rule(family)

        def backward(v: int) -> int:  # the unique predecessor; 0 at a head
            found = predecessors(v)
            return found[0] if found else 0

        walks.append(("backward", backward))
    # memo entries are below 4*(max_len+2): four bytes each unless max_len is huge
    typecode = "I" if max_len < 1 << 29 else "q"
    memos = [(direction, step, array(typecode, [0]) * (limit + 1), {})
             for direction, step in walks]
    orphans: list[OrphanRecord] = []
    for x in range(1, limit + 1):
        if x == trivial:
            continue
        for direction, step, memo, cycles in memos:
            if direction == "forward" and is_end(x):
                continue  # an equivalent position ends its chain
            entry = memo[x] or _walk(x, step, memo, cycles, max_len)
            if entry >> 2 > max_len:
                orphans.append(OrphanRecord(x, direction, "truncated", None))
            elif entry & 3 == _CYCLE:
                orphans.append(OrphanRecord(x, direction, "cycle", cycles[x]))
            elif entry & 3 != _END:
                orphans.append(OrphanRecord(x, direction, "rejected", None))
    scanned = limit - (1 if trivial <= limit else 0)
    return StringScanReport(family.p, limit, scanned, tuple(orphans))


_END, _CYCLE, _REJECTED = 1, 2, 3  # terminal kinds of a memoized walk


def _walk(x: int, step, memo: array, cycles: dict, max_len: int) -> int:
    """Walk from x by step until a known position or a terminal; returns memo[x].

    step gives the next position, 0 at a chain end or -1 when rejected.
    memo[v], for every v <= len(memo)-1 whose walk is known, is 4*n + kind:
    the walk from v records n positions (counted up to max_len+1) before
    its terminal kind, and cycles[v] is the cycle when kind is _CYCLE.  So
    n > max_len is exactly a truncation.  A start that truncates records
    only itself, with kind 0: the rest of its path is not known.
    """
    cap = max_len + 1
    limit = len(memo) - 1
    index: dict[int, int] = {}
    path: list[int] = []
    v = x
    cycle = None
    while True:
        if v <= limit and memo[v]:
            n, kind = memo[v] >> 2, memo[v] & 3
            if kind == _CYCLE:
                cycle = cycles[v]
                # members of this cycle above the limit, walked just before v,
                # are already counted in n: keep only the path's tail
                while path and path[-1] > limit and path[-1] in cycle:
                    path.pop()
            break
        at = index.get(v)
        if at is not None:  # a new cycle: each member walks all of it
            cycle = _canonical_rotation(tuple(path[at:]))
            n, kind = len(path) - at, _CYCLE
            for u in path[at:]:
                if u <= limit:
                    memo[u] = (n if n < cap else cap) << 2 | _CYCLE
                    cycles[u] = cycle
            del path[at:]
            break
        index[v] = len(path)
        path.append(v)
        if len(path) > max_len:
            memo[x] = cap << 2
            return memo[x]
        v = step(v)
        if v < 1:
            n, kind = 0, _END if v == 0 else _REJECTED
            break
    for u in reversed(path):
        n += 1
        if u <= limit:
            memo[u] = (n if n < cap else cap) << 2 | kind
            if cycle is not None:
                cycles[u] = cycle
    return memo[x]


def family_evolve_forward(family: Family, generation: int) -> tuple[Progression, ...]:
    """Forward chain evolution for a generalized family.

    Starts from the family's head classes and pushes every part through
    both lower branches, dropping the equivalent class.  Requires a family
    whose equivalent residue class contains no exceptional positions
    (p in {-1, 1, 3}, among small parameters), so that dropping the class
    drops only true chain ends, and whose branch domains start at their
    residue (for p <= -5 the smallest members have no image); anything
    else would silently misplace those positions.
    """
    if generation < 0:
        raise ValueError(f"generation must be >= 0, got {generation}")
    maps = branch_maps(family)
    if exceptional_positions(family) or any(dom.intercept > dom.interval
                                            for dom, _ in maps):
        raise ValueError(
            f"p={family.p} has exceptional or rejected positions; its evolution is "
            "not a plain two-branch progression process"
        )
    if family.p % 3 == 0:
        seeds: tuple[Progression, ...] = (Progression(1, 3), Progression(3, 3))
    else:
        seeds = (Progression(2, 3),)
    return tuple(evolve(seeds, maps, generation))
