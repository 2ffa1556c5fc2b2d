"""Residue-class walks of the 3n+p family: the chain scan (string_scan)
and the cycle search (find_cycles), with their commands' handlers, which
cli calls.  Each walk checks its input and caps the work that grows with
the limit (core.require_tree_work) or, for the scan, with p (MAX_ONE_OFF)
before it walks.  Fixed-table audits are in audits.

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

from collections import namedtuple

from .core import (
    DEFAULT_WALK_LIMIT,
    MAX_VALUE,
    WIDTH_BITS,
    WidthExceededError,
    _checked,
    require_tree_work,
)
from .family import Family, _image_branches, branch_maps, exceptional_positions, family_step

# Most exceptional positions, about p/8, for the backward scan's table: building it took
# 0.5 s and 133 MiB peak RSS for 10^6 on a 2-CPU Xeon VM, and 1.3 s and 253 MiB for 2*10^6.
MAX_ONE_OFF = 10 ** 6


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
    if p % 3 and (one_off := (family.q + 3) // 4) > MAX_ONE_OFF:  # counted; len() overflows
        raise ValueError(f"p {p} has {one_off} exceptional positions, above the backward "
                         f"scan's cap of {MAX_ONE_OFF:.0e}")
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
    # folded as they come, so a cycle that many seeds reach is kept once
    found, seeds = set(), {"truncated": [], "rejected": []}
    for x, reason, cycle in forward_walk(family, ((1, seed_limit),), max_steps, True):
        if cycle is None:
            seeds[reason].append(x)
        else:
            found.add(cycle)
    cycles = tuple(sorted(found, key=lambda c: (c[0], len(c), c)))
    return CycleSearchReport(family.p, seed_limit, cycles, tuple(sorted(seeds["truncated"])),
                             tuple(sorted(seeds["rejected"])))


def cmd_scan(args, cli):
    report = cli.string_scan(Family(args.p), args.limit, max_len=args.max_len)
    for orphan in report.orphans:
        yield cli.finding("violation" if orphan.reason == "cycle" else "truncation",
                          str(orphan.position), f"{orphan.direction} walk {orphan.reason}",
                          {"position": orphan.position, "direction": orphan.direction,
                           "cycle": list(orphan.cycle) if orphan.cycle else None})
    return {"p": report.p, "limit": report.limit, "scanned": report.scanned,
            "orphans": len(report.orphans)}


def cmd_cycles(args, cli):
    report = cli.find_cycles(Family(args.p), args.seed_limit, max_steps=args.max_steps)
    for cycle in report.cycles:
        yield cli.finding("measurement", str(cycle[0]), "cycle",
                          {"members": list(cycle), "length": len(cycle)})
    for seed in report.truncated_seeds:
        yield cli.finding("truncation", str(seed),
                          "walk neither cycled nor dipped below its seed", {"seed": seed})
    for seed in report.rejected_seeds:
        yield cli.finding("truncation", str(seed), "walk reached a nonpositive image",
                          {"seed": seed})
    return {
        "p": report.p, "seed_limit": report.seed_limit,
        "cycles": len(report.cycles),
        "truncated_seeds": len(report.truncated_seeds),
        "rejected_seeds": len(report.rejected_seeds),
    }
