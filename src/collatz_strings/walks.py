"""Residue-class walks and the audits they drive: the 3n+p family's chain
scan (string_scan) and cycle search (find_cycles), the p=1 partition audit
(partition_audit) and, at the end, the p=3 two-to-one audit
(two_to_one_audit), which counts images as classes and walks no tree.
Each audit is one function: it checks its input, caps work that grows
with the limit (core.require_tree_work) and checks its branch premises, if
any, once on the module's tables before it counts anything.

The scan and the cycle search report, for every start x in a range, how
the walk from x ends.  Instead of walking each start, these walks move
whole residue classes of starts x = a + m*t, t in [0, c), whose values
after s steps are b + n*t, Terras's parity-vector tree walked depth
first.  A class moves as one while every member takes the same branch,
splits on t mod 2 (forward) or t mod 3 (backward) when its members
differ, and becomes a class of one member that steps on its own.  So the
work grows with the tree, not with the number of starts.  Backward, the
class step and the one-member step read one predecessor table.

Three rules keep the result exactly that of walking every start on its
own.  Values below a small bound `low`, where the family's one-off
positions lie, go one member at a time: the smallest member is peeled
off the class.  A cycle can close while a member still shares its class,
where it is not seen; such a member truncates, or finds the same cycle a
lap later.  So a walk that truncates in a class is walked again from its
start; a member on its own reads a cycle off its path.  A class step
raises WidthExceededError when any member would leave the working range,
as its own walk would.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import (
    DEFAULT_WALK_LIMIT,
    MAX_VALUE,
    WIDTH_BITS,
    WidthExceededError,
    _checked,
    inverse_lower_step,
    lower_step,
    require_tree_work,
)
from .family import FORWARD_MAPS, Family, branch_maps, exceptional_positions, family_step

def _image_branches(maps) -> dict:
    """Residue mod 3 -> (b, a, s) for the branches of maps, (domain, image)
    Progression pairs with images of interval 3: a value v = b (mod 3),
    v >= b, has the predecessor a + s*(v-b)/3 on the branch onto b."""
    return {img.intercept % 3: (img.intercept, dom.intercept, dom.interval)
            for dom, img in maps}


def _predecessor_table(family) -> tuple:
    """(p, branches, one_off) of a family with at most one predecessor per
    position (3 does not divide p): the _image_branches of its branch maps,
    and its exceptional positions keyed by their images."""
    one_off = {family_step(e, family): e for e in exceptional_positions(family)}
    return family.p, _image_branches(branch_maps(family)), one_off


def _predecessor(v: int, p: int, branches: dict, one_off: dict) -> int | None:
    """The predecessor of v by the _predecessor_table (p, branches, one_off),
    or None when v is a head.  Like lower_preimages, a predecessor whose
    3n+p leaves the working range raises WidthExceededError."""
    x = one_off.get(v)
    if x is None:
        branch = branches.get(v % 3)
        if branch is None or v < branch[0]:
            return None
        b, a, s = branch
        x = a + s * (v - b) // 3
    _checked(6 * x - 3 + p)
    return x


def _cycle_on(path: dict, v: int) -> tuple[int, ...]:
    """The cycle that closes at v on path, a walk's positions in order,
    rotated to start at its minimum."""
    cycle = list(path)[path[v]:]
    pivot = cycle.index(min(cycle))
    return tuple(cycle[pivot:] + cycle[:pivot])


def forward_walk(family, starts, max_steps: int, dip: bool):
    """Yield (x, reason, cycle) for every start x in the (lo, hi) ranges of
    starts whose walk under the family's step cycles, truncates or is
    rejected.

    A walk records positions from x until one ends it: a chain end (an
    equivalent position) or, with dip, a position below x.  Recording a
    repeated position closes a cycle (reason "cycle", with the cycle);
    more than max_steps positions truncate it; a 3n+p below 1 rejects it.
    Other reasons carry None.

    A class whose members are all chain ends ends at once.  Otherwise,
    while v2(6b-3+p) <= v2(n), 6v-3+p has the same number of factors 2 on
    every member, so the step is affine on the class and moves it as one;
    else the class splits on the parity of t.  The dip is linear in t, so
    it cuts the class to an interval.
    """
    p = family.p
    q = (p - 3) >> 1
    q4, low = q & 3, max(q + 4, (9 - p) // 6)  # from low up, ends are v = q mod 4
    stack = [(lo, 1, hi - lo + 1, lo, 1, 0) for lo, hi in starts if hi >= lo]
    while stack:
        a, m, c, b, n, s = stack.pop()
        while c > 1:
            if dip:  # n = m only at s = 0, where b = a and no member dips
                d = n - m
                if d > 0:  # the low members dip: b + n*t < a + m*t for t < (a-b)/d
                    k = min(c, -((b - a) // d)) if a > b else 0
                    a, b, c = a + k * m, b + k * n, c - k
                elif d < 0:  # the high members dip: t > (b-a)/(m-n)
                    c = min(c, (b - a) // -d + 1) if b >= a else 0
                if c < 2:
                    break
            if b < low:
                stack.append((a, m, 1, b, n, s))
                a, b, c = a + m, b + n, c - 1
                continue
            t = 6 * b - 3 + p
            j = (t & -t).bit_length() - 1
            if not dip and b & 3 == q4 and not n & 3:  # every member is a chain end
                c = 0
            elif n & ((1 << j) - 1):  # members differ in v2: split on the parity of t
                half = c >> 1
                stack.append((a + m, 2 * m, half, b + n, 2 * n, s))
                m, c, n = 2 * m, c - half, 2 * n
            elif s >= max_steps:  # each member walks again on its own
                stack.extend((x, 1, 1, x, 1, 0) for x in range(a, a + m * c, m))
                c = 0
            else:
                _checked(t + 6 * n * (c - 1))
                b, n, s = ((t >> j) + 1) >> 1, (3 * n) >> j, s + 1
        if c != 1:
            continue
        x, v, fresh, path = a, b, s == 0, {}
        while not (v < x if dip else v & 3 == q4 and v >= low):
            if v in path:
                yield x, "cycle", _cycle_on(path, v)
                break
            path[v] = len(path)
            if s >= max_steps:
                if fresh:
                    yield x, "truncated", None
                    break
                v, s, fresh, path = x, 0, True, {}
                continue
            t = 6 * v - 3 + p
            if t < 1:
                yield x, "rejected", None
                break
            if t > MAX_VALUE:
                raise WidthExceededError(f"value exceeds the {WIDTH_BITS}-bit working range")
            v = ((t >> ((t & -t).bit_length() - 1)) + 1) >> 1
            s += 1


def backward_walk(family, starts, max_len: int):
    """Yield (x, reason, cycle) for every start x in the (lo, hi) ranges of
    starts whose walk by the family's predecessors cycles or truncates.

    For p not divisible by 3 only, where each position has at most one
    predecessor, read from _predecessor_table.  A walk records positions
    until one has no predecessor (a head); more than max_len recorded
    positions truncate it, so the truncation test comes before the head
    test.  From low up, above every one-off image, a value v = b (mod 3)
    has the predecessor a + s*(v-b)/3 on the branch (b, a, s) of its
    residue, and the other residues have none.  So a class with 3 | n
    takes one branch, or every member is a head; otherwise it splits on
    t mod 3.
    """
    p, branches, one_off = table = _predecessor_table(family)
    low = max([b for b, _, _ in branches.values()] + [y + 1 for y in one_off])
    stack = [(lo, 1, hi - lo + 1, lo, 1, 0) for lo, hi in starts if hi >= lo]
    while stack:
        a, m, c, b, n, s = stack.pop()
        while c > 1:
            if b < low:
                stack.append((a, m, 1, b, n, s))
                a, b, c = a + m, b + n, c - 1
            elif n % 3:  # residues mod 3 differ: split on t mod 3
                stack += [(a + i * m, 3 * m, (c - i + 2) // 3, b + i * n, 3 * n, s)
                          for i in (1, 2) if c > i]
                m, c, n = 3 * m, (c + 2) // 3, 3 * n
            elif s >= max_len:  # each member walks again on its own
                stack.extend((x, 1, 1, x, 1, 0) for x in range(a, a + m * c, m))
                c = 0
            elif b % 3 not in branches:  # every member is a head
                c = 0
            else:
                b0, a0, m0 = branches[b % 3]
                b, n, s = a0 + m0 * (b - b0) // 3, m0 * n // 3, s + 1
                _checked(6 * (b + n * (c - 1)) - 3 + p)
        if c != 1:
            continue
        x, v, fresh, path = a, b, s == 0, {}
        while True:
            if v in path:
                yield x, "cycle", _cycle_on(path, v)
                break
            path[v] = len(path)
            if s >= max_len:
                if fresh:
                    yield x, "truncated", None
                    break
                v, s, fresh, path = x, 0, True, {}
                continue
            v = _predecessor(v, *table)
            if v is None:
                break
            s += 1


# direction: "forward" | "backward"; reason: "cycle" | "truncated" |
# "rejected"; cycle: the cycle's members, or None
OrphanRecord = namedtuple("OrphanRecord", "position direction reason cycle")


StringScanReport = namedtuple("StringScanReport", "p limit scanned orphans")


def string_scan(family: Family, limit: int,
                max_len: int = DEFAULT_WALK_LIMIT) -> StringScanReport:
    """Scan positions 1..limit for membership in the family's chains.

    Forward, every position should walk to a chain end (an equivalent
    position).  Backward -- only for families with unique predecessors,
    i.e. p not divisible by 3 -- every position should walk to a head
    (a position with no predecessor), one predecessor at a time.
    A walk that cycles, truncates (records more than max_len positions),
    or hits a nonpositive image makes the start an orphan.  The family's
    built-in fixed point is skipped; it is a loop, not a chain.

    The starts move as residue classes (forward_walk and backward_walk),
    forward on the 2-adic tree of family_step and backward on the 3-adic
    tree of the branch maps' inverses; the orphans are those of walking
    every start on its own.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    require_tree_work("limit", limit, 3.9e4, 5)
    p, trivial = family.p, family.trivial_loop_position
    starts = ((1, min(limit, trivial - 1)), (trivial + 1, limit))
    orphans = [(x, "forward", reason, cycle) for x, reason, cycle in
               forward_walk(family, starts, max_len, False)]
    if p % 3 != 0:
        orphans += [(x, "backward", reason, cycle) for x, reason, cycle in
                    backward_walk(family, starts, max_len)]
    orphans.sort(key=lambda o: (o[0], o[1] == "backward"))
    scanned = limit - (1 if trivial <= limit else 0)
    return StringScanReport(p, limit, scanned, tuple(OrphanRecord(*o) for o in orphans))


# rejected_seeds: seeds whose walk hit a nonpositive image
CycleSearchReport = namedtuple("CycleSearchReport",
                               "p seed_limit cycles truncated_seeds rejected_seeds")


def find_cycles(family: Family, seed_limit: int,
                max_steps: int = DEFAULT_WALK_LIMIT) -> CycleSearchReport:
    """Collect the cycles reachable from positions 1..seed_limit.

    Each seed walks until it dips below itself (that region was classified
    by an earlier seed), repeats a position, records more than max_steps
    positions (a truncated seed) or reaches 3n+p below 1 (a rejected
    seed).  So every cycle whose minimum is <= seed_limit is discovered.
    The seeds move as residue classes (see forward_walk), and the
    dip is one interval cut per class.  Cycles are reported in canonical
    min-first rotation.
    """
    if seed_limit < 1:
        raise ValueError(f"seed_limit must be >= 1, got {seed_limit}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    require_tree_work("seed_limit", seed_limit, 6.6e4, 8)
    outcomes = sorted(forward_walk(family, ((1, seed_limit),), max_steps, True))  # one per seed
    found = {cycle for _, _, cycle in outcomes if cycle is not None}
    cycles = tuple(sorted(found, key=lambda c: (c[0], len(c), c)))
    return CycleSearchReport(family.p, seed_limit, cycles,
                             tuple(x for x, reason, _ in outcomes if reason == "truncated"),
                             tuple(x for x, reason, _ in outcomes if reason == "rejected"))


def branch_faults(maps) -> tuple:
    """(domain, image, problem) for each branch of maps, lower_step's
    (domain, image) Progression pairs, that breaks a premise of
    partition_audit.

    The premises make lower_step one-to-one on every position, not just up
    to a limit.  Each branch maps domain.element(t) to image.element(t),
    one to one onto a whole class mod 3.  lower_step and
    inverse_lower_step agree with it on two members, so on all of them,
    since both are affine on the branch.  No two images meet: with
    interval 3, that is no two residues mod 3 alike.
    """
    faults, owner = [], {}  # owner: residue mod 3 -> the first branch onto it
    for domain, image in maps:
        if any(lower_step(domain.element(t)) != image.element(t)
               or inverse_lower_step(image.element(t)) != domain.element(t) for t in (0, 1)):
            faults.append((domain, image, "disagrees with lower_step or inverse_lower_step"))
        if domain.interval < 1 or image.interval != 3:
            faults.append((domain, image, "is not one-to-one onto a class mod 3"))
        elif image.intercept % 3 in owner:
            faults.append((domain, image, "meets the image of {}->{}".format(
                *owner[image.intercept % 3])))
        else:
            owner[image.intercept % 3] = domain, image
    return tuple(faults)


# strings: the number of chains; truncated: (position, direction) pairs;
# conflicts: (domain, image, problem) for each faulty branch of FORWARD_MAPS
class PartitionAuditReport(namedtuple("PartitionAuditReport",
                                      "limit strings truncated conflicts longest_chain")):
    __slots__ = ()

    @property
    def positions_checked(self) -> int:
        return self.limit - 1


def partition_audit(limit: int, max_len: int = DEFAULT_WALK_LIMIT) -> PartitionAuditReport:
    """Verify that every position in [2, limit] sits in exactly one chain.

    That holds for every position if lower_step is one-to-one, which
    rests on premises about its two branches (FORWARD_MAPS) that are
    checked once, for all positions, by branch_faults; a broken one is a
    conflict, and then nothing is walked.  Otherwise each position x is
    back(x) steps of inverse_lower_step from its chain's head (2 mod 3),
    and its chain is back(x) + 1 + f(x) long, f(x) being the steps from x
    to the first 3 mod 4 value.  x truncates backward when back(x) >
    max_len, else forward when its chain is longer than max(max_len, 1): a
    truncation finding, not an error.  A chain counts in strings at its
    first member in range, the x whose ancestors all lie above limit,
    unless that truncates backward; longest_chain is the longest chain
    that does not truncate.  truncated lists (x, "backward" | "forward")
    by increasing x.

    The positions move as classes x = a + m*t, t in [0, c), whose values
    after s backward steps are b + n*t: backward_walk's 3-adic tree, which
    splits on t mod 3 unless 3 | n.  Values rise with t, so the members
    with an ancestor in range are a prefix t < k of the class, carried as
    the index k.  At their head the other members walk forward by
    strings._sweep_classes, and each that truncates forward lists the
    members in range of its chain that follow it and do not truncate
    backward (all of them cut).  Memory grows with the depth of the class
    tree, not with limit.  A class step raises WidthExceededError when any
    member would leave the working range.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    require_tree_work("limit", limit, 5.8e4, 5)
    conflicts = branch_faults(FORWARD_MAPS)
    if conflicts:
        return PartitionAuditReport(limit, 0, (), conflicts, 0)
    # imported here, so that the scan, the cycle search and the two-to-one
    # audit do not compile the passage sweep
    from .strings import _sweep_classes

    branches = _image_branches(FORWARD_MAPS)
    reach = max(max_len, 1)  # the longest chain that does not truncate
    strings, longest, truncated = 0, 0, []
    stack = [(2, 1, limit - 1, 2, 1, 0, 0)]
    while stack:
        a, m, c, b, n, s, k = stack.pop()
        while True:
            if c > 1 and n % 3:  # residues mod 3 differ: split on t mod 3
                stack += [(a + i * m, 3 * m, (c - i + 2) // 3, b + i * n, 3 * n, s,
                           (k - i + 2) // 3) for i in (1, 2) if c > i]
                m, c, n, k = 3 * m, (c + 2) // 3, 3 * n, (k + 2) // 3
            elif b % 3 not in branches:  # every member's head, after s steps
                strings += c - k
                over = range(a + m * k, a + m * c, m)  # all truncate when s >= reach
                if c > k and s < reach:
                    hits, _, top, _, over = _sweep_classes(a + m * k, m, c - k,
                                                           reach - s - 1)
                    if hits:
                        longest = max(longest, s + 1 + top)
                # each truncates forward with the later members of its chain
                # in range that do not truncate backward, all of them cut
                for x in over:
                    truncated.append((x, "forward"))
                    for _ in range(max_len - s):
                        x = lower_step(x)
                        if x <= limit:
                            truncated.append((x, "forward"))
                break
            elif s >= max_len:
                truncated += [(x, "backward") for x in range(a, a + m * c, m)]
                break
            else:
                b0, a0, m0 = branches[b % 3]
                b, n, s = a0 + m0 * (b - b0) // 3, m0 * n // 3, s + 1
                _checked(b + n * (c - 1))
                if b <= limit:  # members with this value in range are not first
                    k = max(k, min(c, (limit - b) // n + 1))
    truncated.sort()
    return PartitionAuditReport(limit, strings, tuple(truncated), (), longest)


def _predecessors(branches, y: int) -> list:
    """(x, k) for the predecessor x of y on each branch k, in increasing x."""
    return sorted((a + s * (y - b) // 3, k) for k, (b, _, a, s) in enumerate(branches))


# (domain, image) per branch of the p=3 step: 1+2t -> 2+3t, 2+4t -> 2+3t
TWO_TO_ONE_MAPS = branch_maps(Family(3))


# count_violations: (position, observed count); pairing_violations:
# (image, first, second); conflicts: (domain, image, problem) for each
# broken premise of TWO_TO_ONE_MAPS, (None, None, problem) for a gap
TwoToOneReport = namedtuple("TwoToOneReport",
                            "limit count_violations pairing_violations conflicts")


def two_to_one_audit(limit: int) -> TwoToOneReport:
    """Audit the p=3 map: every image position is hit exactly twice.

    The base domain (positions not divisible by 4) must hit positions
    2 mod 3 up to limit exactly twice and everything else zero times, and
    the two predecessors of an image must pair as (x, 2x) -- each chain
    member's companion is exactly half or double.

    The step's branches (TWO_TO_ONE_MAPS, (domain, image) Progression
    pairs) are checked once, for all positions; conflicts lists (domain,
    image, problem) per broken premise, or (None, None, problem) for
    uncovered positions.  With v2(a) < v2(s) on a domain a+s*t, 6x has one
    power of 2 on every member, so family_step is affine there and agrees
    with the image everywhere once it does at t = 0 and 1.  A branch that
    does not is a conflict, and is still counted.  The count needs the
    domains to partition the positions not divisible by 4, each from its
    least member, and images of interval 3; else nothing is.

    The images are counted as whole classes, in work and memory that do
    not grow with limit.  Each branch hits its image class from the
    intercept up to a cut set by x_max = (4*limit-2)//3+1 and limit, so
    the hit count is constant between cuts.  Predecessors are linear in y:
    a stretch with two or more hits pairs as (x, 2x) throughout when its
    ends do in one branch order.  Any other stretch is checked image by
    image; it pairs at no more than two of them, or has three hits and is
    a count violation throughout, so the work stays within the length of
    the report.  Raises WidthExceededError when 6*x_max leaves the working
    range, that is when a predecessor of an image up to limit would.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    x_max = (4 * limit - 2) // 3 + 1
    _checked(6 * x_max)
    conflicts, seen, shaped, family = [], [], True, Family(3)
    for domain, image in TWO_TO_ONE_MAPS:
        (a, s), (b, i) = domain, image
        if (a & -a) >= (s & -s) or any(family_step(domain.element(t), family)
                                       != image.element(t) for t in (0, 1)):
            conflicts.append((domain, image, "disagrees with family_step"))
        if i != 3:
            conflicts.append((domain, image, "has an image interval other than 3"))
            shaped = False
        if a % math.gcd(s, 4) == 0:
            problem = "reaches positions divisible by 4"
        elif a > s:
            problem = f"starts above its least member {(a - 1) % s + 1}"
        else:
            problem = next(("meets the domain of {}->{}".format(*other) for other in seen
                            if (a - other[0][0]) % math.gcd(s, other[0][1]) == 0), None)
        if problem:
            conflicts.append((domain, image, problem))
            shaped = False
        else:
            seen.append((domain, image))
    if shaped:  # disjoint classes inside the base domain: they cover it at density 3/4
        period = math.lcm(4, *(domain[1] for domain, _ in TWO_TO_ONE_MAPS))
        covered = sum(period // domain[1] for domain, _ in TWO_TO_ONE_MAPS)
        if 4 * covered != 3 * period:
            share = math.gcd(covered, period)
            conflicts.append((None, None, f"domains cover {covered // share}/{period // share} "
                              "of the positions, not the 3/4 that 4 does not divide"))
            shaped = False
    if not shaped:
        return TwoToOneReport(limit, (), (), tuple(conflicts))
    hits: dict[int, list] = {0: [], 1: [], 2: []}  # image residue -> (b, cut, a, s)
    for (a, s), (b, _) in TWO_TO_ONE_MAPS:
        top = min((x_max - a) // s, (limit - b) // 3)
        if top >= 0:
            hits[b % 3].append((b, b + 3 * top, a, s))
    count_bad, pairing_bad = [], []
    for r, branches in hits.items():
        first, last = r or 3, limit - (limit - r) % 3
        cuts = sorted({first} | {b for b, _, _, _ in branches}
                      | {cut + 3 for _, cut, _, _ in branches if cut < last})
        for lo, hi in zip(cuts, [c - 3 for c in cuts[1:]] + [last]):
            active = [h for h in branches if h[0] <= lo <= h[1]]
            if len(active) != (2 if r == 2 else 0):
                count_bad += [(y, len(active)) for y in range(lo, hi + 1, 3)]
            if len(active) < 2:
                continue
            ends = [_predecessors(active, y) for y in (lo, hi)]
            if ([k for _, k in ends[0]] == [k for _, k in ends[1]]
                    and all(e[1][0] == 2 * e[0][0] for e in ends)):
                continue  # one branch order throughout, so second - 2*first is 0 throughout
            for y in range(lo, hi + 1, 3):
                (x1, _), (x2, _), *_ = _predecessors(active, y)
                if x2 != 2 * x1:
                    pairing_bad.append((y, x1, x2))
    count_bad.sort()
    pairing_bad.sort(key=lambda v: v[2])
    return TwoToOneReport(limit, tuple(count_bad), tuple(pairing_bad), tuple(conflicts))
