"""Recurrence of branch signatures: positions that share a forward
signature recur 2^(sum of its tags) apart, those that share a backward one
3^(its length) apart (Terras 1976).  `signature_class` walks x's residue
class to x's signature and first recurrence; the handler of
`proportionality`, which cli calls, checks it against the predicted spacing.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .core import MAX_TREE_NODES, _checked, _require_position

# direction -> the least tag that ends a chain
_DIRECTIONS = {"forward": 3, "backward": 2}


class Signature(namedtuple("Signature", "direction steps")):
    """Branch record of a walk, one entry per step.

    direction is "forward" or "backward", steps a tuple of ints.  Forward
    entries are branch indices (1 = even branch, 2 = branch inside
    1 mod 4, >= 3 = chain end, allowed only in final place).  Backward
    entries are residues mod 3 (0 = step down, 1 = step up, 2 = chain head,
    final place only).
    """

    __slots__ = ()

    def __new__(cls, direction: str, steps: tuple[int, ...]):
        if direction not in _DIRECTIONS:
            raise ValueError(f"unknown direction {direction!r}")
        if not steps:
            raise ValueError("a signature needs at least one step")
        if any(s >= _DIRECTIONS[direction] for s in steps[:-1]):
            raise ValueError("a chain end may only appear as the final entry")
        return super().__new__(cls, direction, steps)

    @property
    def truncated(self) -> bool:
        """Whether the walk stopped at a chain end."""
        return self.steps[-1] >= _DIRECTIONS[self.direction]

    @property
    def recurrence_gap(self) -> int:
        """Predicted spacing between positions sharing this signature."""
        if self.direction == "forward":
            return _checked(1 << sum(self.steps))
        return _checked(3 ** len(self.steps))


def signature_class(direction: str, x: int, steps: int) -> tuple[Signature, int]:
    """x's signature of `steps` steps, ended early by a chain end or head,
    and the modulus M such that the positions from x sharing it are exactly
    x + M*t, t >= 0: x first recurs at x + M.

    The walk follows x's class x + M*t, whose values after the steps so far
    are v + n*t, by the branch arithmetic (as strings._sweep_classes does).
    Where the members' residues would decide the next tag differently, it
    keeps x's half (forward: mod 2, or mod 4 if odd) or third (backward:
    mod 3), scaling M and n.  Each part cut off takes another tag, so it
    leaves x's signature, and all of x's part keeps it (Terras 1976).  It
    raises where the per-position walk does: `_require_position` on the
    value before a forward tag or backward step, `_checked` on each step up.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    seq, v, n, modulus = [], x, 1, 1
    for _ in range(steps):
        if direction == "forward":
            _require_position(v)
            b, k, depth = v, n, 0  # the values with lower equivalents stripped: b + k*t
            while True:
                if k & 3 and (k | b) & 1:  # members differ mod 2, or mod 4 if odd: halve
                    modulus, n, k = 2 * modulus, 2 * n, 2 * k
                elif b & 3 == 3:
                    b, k, depth = (b + 1) >> 2, k >> 2, depth + 1
                else:
                    break
            seq.append(2 * depth + (2 if b & 1 else 1))
            if depth:
                break
            v, n = ((3 * v + 1) >> 2, 3 * n >> 2) if v & 1 else (_checked(3 * v >> 1), 3 * n >> 1)
        else:
            if n % 3:
                modulus, n = 3 * modulus, 3 * n
            seq.append(v % 3)
            if seq[-1] == 2:
                break
            _require_position(v)
            v, n = ((_checked((4 * v - 1) // 3), 4 * n // 3) if seq[-1]
                    else (2 * v // 3, 2 * n // 3))
    return Signature(direction, tuple(seq)), modulus


def _check_recurrence(direction: str, x: int, steps: int, walk) -> tuple[bool, dict]:
    """Whether x's first recurrence, by one class walk (`walk`, as
    signature_class), is where its signature predicts, and the data."""
    sig, modulus = walk(direction, x, steps)
    found = _checked(x + modulus)  # the first recurrence
    predicted = x + sig.recurrence_gap
    data = {"x": x, "steps_requested": steps, "signature": list(sig.steps),
            "predicted": predicted, "found": found, "direction": direction}
    return found == predicted, data


def cmd_proportionality(args, cli):
    if args.cases < 0:
        raise ValueError(f"cases must be >= 0, got {args.cases}")
    if args.cases > MAX_TREE_NODES:  # refused before any case is checked
        raise ValueError(f"cases {args.cases} is above the cap of {MAX_TREE_NODES:.0e}")
    if args.x_max < 1 or args.n_max < 1:
        raise ValueError(f"x_max and n_max must be >= 1, got {args.x_max}, {args.n_max}")
    directions = (["forward", "backward"] if args.direction == "both"
                  else [args.direction])
    steps = len(directions) * (1 + args.cases) * args.n_max  # each class walk's at most
    if steps > MAX_TREE_NODES:
        raise ValueError(f"cases {args.cases} at n_max {args.n_max} need up to {steps} "
                         f"class-walk steps, above the cap of {MAX_TREE_NODES:.0e}")
    anchors = {"forward": (2, 2), "backward": (7, 4)}  # recurrences at 34 and 88
    import random
    rng = random.Random(args.seed)
    failures = 0
    # the anchors, then the random cases, each drawn as it is checked
    for direction, x, steps in chain(
            ((direction, *anchors[direction]) for direction in directions),
            ((direction, rng.randint(1, args.x_max), rng.randint(1, args.n_max))
             for direction in directions for _ in range(args.cases))):
        ok, data = _check_recurrence(direction, x, steps, cli.signature_class)
        failures += not ok
        yield cli.finding("measurement" if ok else "violation", str(x),
                          f"first recurrence {'at' if ok else 'off'} the predicted spacing",
                          data)
    return {"cases": len(directions) * (1 + args.cases), "failures": failures,
            "seed": args.seed}
