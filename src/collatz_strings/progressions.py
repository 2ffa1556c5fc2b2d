"""Arithmetic-progression algebra underlying the branch structure of the map.

The objects of study are half-open progressions {a + b*t : t >= 0}
(core.Progression).  The conjugate step and its inverse act on such sets
branch by branch: each branch sends one progression onto another member
by member (2+2m -> 3+3m and 1+4m -> 1+3m forwards), turning an interval
b into 3b/2 or 3b/4 forwards and 2b/3 or 4b/3 backwards.  This module
provides the generation loop that transports progressions through such
branch maps and the window counts of the p=1 evolutions (family.PROCESSES);
the handlers of `evolve` and `coverage`, which cli calls, report them.

Generation k of an evolution lists, seed by seed, the transports of the
seed through every sequence of k branch maps, in lexicographic order of
the sequence: the order of a depth-first walk of the branch tree.  One
residue formula per branch makes every level from the one before, over
int lists (`_level`); a walk checks its premises once, at its start
(`_branches`).  `_families` walks depth first down to subtrees of at most
512 leaves and yields the parts of each, expanded a level at a time,
holding O(k) parts above it, not 2^k.  `_proved` proves the audit of
every part once per walk; where a premise fails, `_audit` checks a batch.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, repeat
from math import gcd, prod

from .core import MAX_TREE_NODES, WIDTH_BITS, Progression, _checked
from .family import PROCESSES


def evolve(seeds: tuple[Progression, ...],
           maps: tuple[tuple[Progression, Progression], ...],
           generation: int) -> Iterator[Progression]:
    """Generation k of seeds under (domain, image) branch maps, as ordered parts.

    Each part is replaced by its transports through every map, in the
    order of maps, depth first.  A negative generation, one of more than
    MAX_TREE_NODES parts, or seeds and maps that break a premise of the
    residue formula (`_branches`) raise at the call.
    """
    seeds, maps = tuple(seeds), tuple(maps)
    _require_parts(seeds, maps, generation)
    if not generation:
        return iter(seeds)
    return chain.from_iterable(map(tuple.__new__, repeat(Progression), zip(*batch)) for batch
                               in _walk(_branches(seeds, maps, generation - 1), seeds, generation))


def _require_parts(seeds, maps, generation: int) -> None:
    if generation < 0:
        raise ValueError(f"generation must be >= 0, got {generation}")
    if len(seeds) * len(maps) ** min(generation, 64) > MAX_TREE_NODES:
        raise ValueError(f"generation {generation} has {len(seeds)}*{len(maps)}^{generation} "
                         f"parts, above the cap of {MAX_TREE_NODES:.0e}")


def _branches(seeds, maps, generation: int) -> list[tuple]:
    """The maps as rows (r, s, c, d, inverses mod s) of the residue formula,
    checked exact down to the children of generation k.

    Through r + s*m -> c + d*m, a part (a, b) with gcd(b, s) = 1 meets the
    domain first at a + b*t, t = (r - a)*b^-1 mod s, and goes to the part
    (c + d*(a + b*t - r)/s, b*d).  That is exact for every part of a walk
    whose seed and image intervals are prime to the domains' (then every
    part's is), whose domains start at their class's least member (r <= s,
    since a >= 1; s <= 64 for the tables) and whose numbers stay in range:
    each number a level computes (first members, class intervals b*s and
    children) is at most `growth` times the larger of its part's two.
    ValueError names the branch or seed that breaks a premise.
    """
    _require_parts(seeds, maps, generation)
    moduli = prod(s for (_, s), _ in maps)
    growth, branches = 1, []
    for (r, s), (c, d) in maps:
        if not r <= s <= 64:
            raise ValueError(f"branch {Progression(r, s)} is not r + s*m with r <= s <= 64")
        if gcd(d, moduli) > 1:
            raise ValueError(f"image {Progression(c, d)} shares a factor with a domain interval")
        growth = max(growth, s, c + 2 * d)
        branches.append((r, s, c, d, [pow(u, -1, s) if gcd(u, s) == 1 else 0 for u in range(s)]))
    for seed in seeds:
        if gcd(seed[1], moduli) > 1:
            raise ValueError(f"seed {seed} shares a factor with a domain interval")
    _checked(max(map(max, seeds), default=0) * growth ** min(generation + 1, WIDTH_BITS))
    return branches


def _level(branches, intercepts: list[int], intervals: list[int]) -> tuple[list, list]:
    """The children of the parts (intercepts, intervals): part i's, its
    transports through the n branches in order, are kids n*i .. n*i+n-1."""
    n = len(branches)
    kids = [0] * (n * len(intercepts)), [0] * (n * len(intercepts))
    for j, (r, s, c, d, inverse) in enumerate(branches):
        kids[0][j::n] = [c + d * ((a - r + b * ((r - a) * inverse[b % s] % s)) // s)
                         for a, b in zip(intercepts, intervals)]
        kids[1][j::n] = [b * d for b in intervals]
    return kids


# Most leaves of a subtree expanded a level at a time: one batch of the
# walk, which `evolve` on the command line renders as one chunk.
_SUBTREE_LEAVES = 512


def _families(seeds, maps, generation):
    """The parts of generation k, in order, as batches (intercepts, intervals)
    of at most _SUBTREE_LEAVES; `_branches` checked at the call, down to the
    children of generation k, which the per-part audit (`_audit`) makes."""
    return _walk(_branches(seeds, maps, generation), seeds, generation)


def _walk(branches, seeds, generation):
    depth = 0  # of the subtrees; a walk of fewer branches gets the depth of two
    while depth < generation and max(len(branches), 2) ** (depth + 1) <= _SUBTREE_LEAVES:
        depth += 1
    stack = [(generation, *part) for part in reversed(seeds)]  # (generations left, a, b)
    while stack:
        left, a, b = stack.pop()
        level = [a], [b]
        if left > depth:  # above the subtree roots, a part at a time
            stack += reversed([(left - 1, *kid) for kid in zip(*_level(branches, *level))])
            continue
        for _ in range(depth):  # the subtree, a level at a time
            level = _level(branches, *level)
        yield level


def _proved(direction: str, seeds, maps) -> bool:
    """Whether no part of any generation fails the per-part audit (`_audit`),
    by two proofs whose premises are checked here.  A branch (r, s, c, d)
    sends (a, b) to c + d*(a - r + b*t)/s, 0 <= t < s (`_branches`).
    (i) a < b for every part, by induction: for the seeds, and for a child
    wherever s*c < d*(1 + r), as a <= b-1 bounds it by b*d + c - d*(1 + r)/s.
    (ii) The bound for every child: its slack at t = s-1, times s, is linear
    in (a, b), and 1 <= a < b is (1, 2) plus steps (0, 1) and (1, 1)."""
    scale, factor, weight = _BOUNDS[direction]
    for (r, s), (c, d) in maps:
        f = [s * factor * (a + weight * b - 1) - scale * (s * (c - 1) + d * (a - r + b * (s - 1)))
             for a, b in ((1, 2), (1, 3), (2, 3))]
        if not (s * c < d * (1 + r) and 0 <= f[0] <= min(f[1:])):
            return False
    return all(a < b for a, b in seeds)


def _audit(direction: str, maps, batch) -> tuple[list[Progression], list[tuple]]:
    """The per-part audit of a batch of the evolution walk (`_families`)
    under maps: its parts whose intercept is not below their interval, and
    (part, child) for each child (`_level`) over the recursion bound
    (`_BOUNDS`).  In walk order: by part, then by branch."""
    intercepts, intervals = batch
    kid_intercepts, kid_intervals = _level(_branches((), maps, 0), intercepts, intervals)
    scale, factor, weight = _BOUNDS[direction]
    n = len(maps)  # children per part: kid x is of part x // n
    bounds = [factor * (a + weight * b - 1) for a, b in zip(intercepts, intervals)]
    return ([Progression(a, b) for a, b in zip(intercepts, intervals) if a >= b],
            [(Progression(intercepts[x // n], intervals[x // n]), Progression(c, kid_intervals[x]))
             for x, c in enumerate(kid_intercepts) if scale * (c - 1) > bounds[x // n]])


CoverageCount = namedtuple("CoverageCount", "direction m window_start included open_count")


def _window_base(direction: str) -> int:
    """The s of a direction's coverage window s**m: its seed's interval (3
    forward, 4 backward), since generation k has density (s-1)^k/s^(k+1)."""
    if direction not in PROCESSES:
        raise ValueError(f"unknown direction {direction!r}")
    (seed,), _ = PROCESSES[direction]
    return seed.interval


def expected_coverage(direction: str, m: int) -> tuple[int, int]:
    """Closed-form prediction for coverage_count: (included, open).

    Raises WidthExceededError, before the m-term sum, when the window s**m
    leaves the working range.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    s = _window_base(direction)
    _checked(s ** min(m, WIDTH_BITS))  # s >= 3: s**WIDTH_BITS is out of range too
    included = sum((s - 1) ** k * s ** (m - k - 1) for k in range(m))
    return included, (s - 1) ** m


def coverage_count(direction: str, m: int, window_start: int = 2) -> CoverageCount:
    """Count window members covered by the first m generations.

    The window is [window_start, window_start + s**m), with s the seed's
    interval: 3 forward, 4 backward.  Membership is an explicit union over
    the parts of generations 0..m-1, each made from the one before by
    `_level`, marked one byte per window position, so the count does not
    presuppose disjointness.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if window_start < 2:
        raise ValueError(f"window_start must be >= 2, got {window_start}")
    window = _window_base(direction) ** m
    seeds, maps = PROCESSES[direction]
    _checked(window_start + window)
    branches = _branches(seeds, maps, m - 1)
    covered = bytearray(window)  # covered[i]: window_start + i is a member
    for generation in range(m):
        parts = _level(branches, *parts) if generation else [*zip(*seeds)]
        for a, b in zip(*parts):
            first = a - window_start
            if first < 0:
                first %= b
            covered[first::b] = b"\1" * len(range(first, window, b))
    included = covered.count(1)
    return CoverageCount(direction, m, window_start, included, window - included)


# direction -> (scale, factor, weight) of the recursion bound on the intercept c
# of a child of part (a, b), c <= 3(a+3b-1)/4 + 1 forward and c <= 4(a+2b-1)/3 + 1
# backward, in integer form: scale*(c - 1) <= factor*(a + weight*b - 1)
_BOUNDS = {"forward": (4, 3, 3), "backward": (3, 4, 2)}


def cmd_evolve(args, cli):
    """Each batch of the walk, its parts, is yielded as one text chunk of
    measurement lines in args.format.  Where `_proved` fails, each batch is
    audited part by part, and the rare violations follow the measurements."""
    seeds, maps = PROCESSES[args.direction]
    batches = cli._families(seeds, maps, args.generations)
    proved = cli._proved(args.direction, seeds, maps)
    part_bad, bound_bad, count = [], [], 0
    for batch in batches:
        if not proved:
            for found, new in zip((part_bad, bound_bad), cli._audit(args.direction, maps, batch)):
                found += new
        yield cli.render_parts(zip(*batch), count, args.format)
        count += len(batch[0])
    for part in part_bad:
        yield cli.finding("violation", str(part), "intercept not below interval",
                          {"intercept": part.intercept, "interval": part.interval})
    for parent, child in bound_bad:
        yield cli.finding("violation", str(child), "child intercept exceeds recursion bound",
                          {"parent": str(parent), "child": str(child)})
    return {
        "direction": args.direction, "generation": args.generations,
        "parts": count, "intercepts_ok": not part_bad and not bound_bad,
    }


# Positions charged for each coverage window's set-up, about 14 us: -m 1 is
# refused above 2*10^7 windows, about 5 minutes, like the class-tree caps
WINDOW_SETUP = 2


def cmd_coverage(args, cli):
    if args.random_starts < 0:
        raise ValueError(f"random_starts must be >= 0, got {args.random_starts}")
    expected_included, expected_open = expected_coverage(args.direction, args.m)
    windows = 1 + args.random_starts
    positions = windows * (expected_included + expected_open)  # s**m each
    if (work := positions + windows * WINDOW_SETUP) > MAX_TREE_NODES:  # before any window
        raise ValueError(f"-m {args.m} with {args.random_starts} random starts marks "
                         f"{positions} window positions, {work} with {WINDOW_SETUP} for each "
                         f"window's set-up, above the cap of {MAX_TREE_NODES:.0e}")
    import random  # here, so that only the commands that draw cases load it
    rng = random.Random(args.seed)
    mismatches = 0
    for start in chain([args.window_start],  # each random start drawn as its window is made
                       (rng.randint(2, 10 ** 6) for _ in range(args.random_starts))):
        cc = cli.coverage_count(args.direction, args.m, start)
        data = {"included": cc.included, "open": cc.open_count}
        ok = (cc.included, cc.open_count) == (expected_included, expected_open)
        if not ok:
            mismatches += 1
            data |= {"expected_included": expected_included, "expected_open": expected_open}
        yield cli.finding("measurement" if ok else "mismatch", str(start),
                          f"window count {'matches' if ok else 'deviates from'} the closed form",
                          data)
    return {
        "direction": args.direction, "m": args.m, "windows": 1 + args.random_starts,
        "expected_included": expected_included, "expected_open": expected_open,
        "mismatches": mismatches,
    }
