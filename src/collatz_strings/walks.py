"""Residue-class walks for the 3n+p family's chain scan and cycle search.

Both report, for every start x in a range, how the walk from x ends.
Instead of walking each start, these walks move whole residue classes of
starts x = a + m*t, t in [0, c), whose values after s steps are b + n*t,
Terras's parity-vector tree walked depth first.  A class moves as one
while every member takes the same branch, splits on t mod 2 (forward) or
t mod 3 (backward) when its members differ, and becomes a class of one
member that steps on its own.  So the work grows with the tree, not with
the number of starts.

Three rules keep the result exactly that of walking every start on its
own.  Values below a small bound `low`, where the family's one-off
positions lie, go one member at a time: the smallest member is peeled
off the class.  A cycle can close while a member still shares its class,
where it is not seen; such a member truncates, or finds the same cycle a
lap later.  So a walk that truncates after s > 0 steps in a class is
walked again from its start.  A class step raises WidthExceededError
when any member would leave the working range, as its own walk would.
"""

from __future__ import annotations

import math

from .core import MAX_VALUE, WIDTH_BITS, WidthExceededError, _checked

# Tree nodes measured for p=5: scan 56 k at 10^6 and 1.3 M at 10^8, about 5x
# per decade; cycles 66 k at 10^6 and 3.8 M at 10^8, about 8x.  A node costs
# 2-6 us, so the cap refuses runs of more than about 4-10 minutes.
MAX_TREE_NODES = 10 ** 8


def require_tree_work(name: str, limit: int, growth: int) -> None:
    """ValueError when a walk of 1..limit needs more than MAX_TREE_NODES nodes.

    growth is the measured factor per decade of limit, from about 6e4
    nodes at 10^6.
    """
    nodes = 6e4 * growth ** (math.log10(limit) - 6)
    if nodes > MAX_TREE_NODES:
        raise ValueError(f"{name} {limit} needs about {nodes:.2g} class-tree nodes, "
                         f"above the cap of {MAX_TREE_NODES:.0e}")


def _cycle_from(v: int, step) -> tuple[int, ...]:
    """The cycle through v under step, rotated to start at its minimum."""
    members = [v]
    while (u := step(members[-1])) != v:
        members.append(u)
    pivot = members.index(min(members))
    return tuple(members[pivot:] + members[:pivot])


def forward_walk(p: int, starts, max_steps: int, dip: bool, step):
    """Yield (x, reason, cycle) for every start x in the (lo, hi) ranges of
    starts whose walk under step, the family's step for p, cycles,
    truncates or is rejected.

    A walk records positions from x until one ends it: a chain end (an
    equivalent position) or, with dip, a position below x.  Recording a
    repeated position closes a cycle (reason "cycle", with the cycle);
    more than max_steps positions truncate it; a 3n+p below 1 rejects it.
    Other reasons carry None.

    While v2(6b-3+p) <= v2(n), 6v-3+p has the same number of factors 2
    on every member, so the step is affine on the class and moves it as
    one; otherwise the class splits on the parity of t.  The dip is
    linear in t, so it cuts the class to an interval.
    """
    q = (p - 3) >> 1
    q4, low = q & 3, max(q + 4, (9 - p) // 6)  # from low up, ends are v = q mod 4
    stack = [(lo, 1, hi - lo + 1, lo, 1, 0) for lo, hi in starts if hi >= lo]
    while stack:
        a, m, c, b, n, s = stack.pop()
        while c > 1:
            if dip:
                d = n - m
                if d > 0:  # the low members dip: b + n*t < a + m*t for t < (a-b)/d
                    k = min(c, -((b - a) // d)) if a > b else 0
                    a, b, c = a + k * m, b + k * n, c - k
                elif d < 0:  # the high members dip: t > (b-a)/(m-n)
                    c = min(c, (b - a) // -d + 1) if b >= a else 0
                elif b < a:
                    c = 0
                if c < 2:
                    break
            if b < low:
                stack.append((a, m, 1, b, n, s))
                a, b, c = a + m, b + n, c - 1
                continue
            t = 6 * b - 3 + p
            j = (t & -t).bit_length() - 1
            if n & ((1 << j) - 1):  # members differ in v2: split on the parity of t
                half = c >> 1
                stack.append((a + m, 2 * m, half, b + n, 2 * n, s))
                m, c, n = 2 * m, c - half, 2 * n
            elif not dip and b & 3 == q4:  # every member is a chain end
                c = 0
            elif s >= max_steps:
                members = range(a, a + m * c, m)
                if s:
                    stack.extend((x, 1, 1, x, 1, 0) for x in members)
                else:
                    yield from ((x, "truncated", None) for x in members)
                c = 0
            else:
                _checked(t + 6 * n * (c - 1))
                b, n, s = ((t >> j) + 1) >> 1, (3 * n) >> j, s + 1
        if c != 1:
            continue
        x, v, fresh, seen = a, b, s == 0, set()
        while not (v < x if dip else v & 3 == q4 and v >= low):
            if v in seen:
                yield x, "cycle", _cycle_from(v, step)
                break
            seen.add(v)
            if s >= max_steps:
                if fresh:
                    yield x, "truncated", None
                    break
                v, s, fresh, seen = x, 0, True, set()
                continue
            t = 6 * v - 3 + p
            if t < 1:
                yield x, "rejected", None
                break
            if t > MAX_VALUE:
                raise WidthExceededError(f"value exceeds the {WIDTH_BITS}-bit working range")
            v = ((t >> ((t & -t).bit_length() - 1)) + 1) >> 1
            s += 1


def backward_walk(p: int, starts, max_len: int, predecessors, branches: dict, low: int):
    """Yield (x, reason, cycle) for every start x in the (lo, hi) ranges of
    starts whose walk by predecessors, the family's predecessor_rule,
    cycles or truncates.

    For p not divisible by 3 only, where each position has at most one
    predecessor.  A walk records positions until one has no predecessor
    (a head); more than max_len recorded positions truncate it, so the
    truncation test comes before the head test.  branches maps a residue
    mod 3 to its branch (b, a, s): a value v = b (mod 3), v >= low, has
    the predecessor a + s*(v-b)/3; the other residues have none.  So a
    class with 3 | n takes one branch, or every member is a head;
    otherwise it splits on t mod 3.
    """
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
            elif s >= max_len:
                members = range(a, a + m * c, m)
                if s:
                    stack.extend((x, 1, 1, x, 1, 0) for x in members)
                else:
                    yield from ((x, "truncated", None) for x in members)
                c = 0
            elif b % 3 not in branches:  # every member is a head
                c = 0
            else:
                b0, a0, m0 = branches[b % 3]
                b, n, s = a0 + m0 * (b - b0) // 3, m0 * n // 3, s + 1
                _checked(6 * (b + n * (c - 1)) - 3 + p)
        if c != 1:
            continue
        x, v, fresh, seen = a, b, s == 0, set()
        while True:
            if v in seen:
                yield x, "cycle", _cycle_from(v, lambda u: predecessors(u)[0])
                break
            seen.add(v)
            if s >= max_len:
                if fresh:
                    yield x, "truncated", None
                    break
                v, s, fresh, seen = x, 0, True, set()
                continue
            found = predecessors(v)
            if not found:
                break
            v, s = found[0], s + 1
