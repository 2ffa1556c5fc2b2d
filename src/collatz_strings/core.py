"""Exact dynamics of the accelerated Collatz map on enumerated odd integers.

Every odd positive integer 2x-1 is indexed by its position x = 1, 2, 3, ...
Transported to positions, the accelerated Collatz step (apply 3n+1, then
divide out every factor of two) becomes a total self-map with a rigid
residue structure:

* positions x and 4x-1 always share an image ("equivalents"),
* positions sharing a branch of the map recur at power-of-two intervals,
* restricted to positions with no lower equivalent, the map is one-to-one
  and chains positions into runs that appear to stretch from one residue
  class (2 mod 3) to another (3 mod 4).

Each branch acts on a residue class as a whole; the layers above name such
classes as progressions {a + b*t : t >= 0} (Progression).

Everything is integer-exact.  Arithmetic is guarded at 128 bits: a result
beyond that range raises WidthExceededError instead of proceeding, so a
sweep can never silently outgrow the precision it started with.  Work is
capped before it starts: require_tree_work refuses a class walk whose
estimated tree exceeds MAX_TREE_NODES nodes.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
from collections import namedtuple

WIDTH_BITS = 128
MAX_VALUE = (1 << WIDTH_BITS) - 1

DEFAULT_WALK_LIMIT = 100_000  # step and chain-length budget of every walk
MAX_TREE_NODES = 10 ** 8  # work cap: class-tree nodes of a walk, parts of a generation


class WidthExceededError(OverflowError):
    """A computed value left the 128-bit working range."""


def _checked(value: int) -> int:
    if value > MAX_VALUE:
        raise WidthExceededError(f"value exceeds the {WIDTH_BITS}-bit working range")
    return value


def _require_position(x: int) -> None:
    if x < 1:
        raise ValueError(f"position must be a positive integer, got {x}")
    if x > MAX_VALUE:
        raise WidthExceededError(f"position exceeds the {WIDTH_BITS}-bit working range")


# Tree nodes measured, which the callers pass: for p=5, scan 39 k at 10^6 and
# 0.89 M at 10^8 (5x per decade), cycles 66 k and 3.8 M (8x), at 2-6 us a node,
# so the cap refuses runs of more than about 4-10 minutes; the partition audit
# (backward and forward classes) 58 k and 1.33 M (5x), at about 1 us a node;
# the passage sweep of a window 10^6 wide 28 k and of 10^7 136 k (5x), at any lo.
def require_tree_work(name: str, limit: int, nodes: float, growth: int) -> None:
    """ValueError when a walk of 1..limit needs more than MAX_TREE_NODES nodes:
    its measured count at 10^6, times its measured growth per decade.  The
    estimate is kept as its logarithm, because for huge limits it leaves the
    range of a float."""
    digits = math.log10(nodes) + (math.log10(limit) - 6) * math.log10(growth)
    if digits > math.log10(MAX_TREE_NODES):
        raise ValueError(f"{name} {limit} needs about {_about(digits)} "
                         f"class-tree nodes, above the cap of {MAX_TREE_NODES:.0e}")


def _about(digits: float) -> str:
    """The count 10 ** digits as a cap's error writes it: 2.6e+38, 1e+08."""
    exponent, fraction = divmod(digits, 1)
    mantissa = round(10 ** fraction, 1)
    if mantissa == 10:
        exponent, mantissa = exponent + 1, 1
    return f"{mantissa:.2g}e+{int(exponent):02d}"


def file_target(path: str) -> str:
    """The file `path` names, through symlinks; refused, with an error naming
    `path`, if it has no file name, names a directory or is in a missing one."""
    if not os.path.basename(path):
        raise ValueError(f"no file name: {path!r}")
    target = os.path.realpath(path)
    if os.path.isdir(target) or not os.path.isdir(os.path.dirname(target)):
        code = errno.EISDIR if os.path.isdir(target) else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    return target


@contextlib.contextmanager
def replace_on_success(path: str):
    """A text file beside `file_target(path)` that replaces it once the block
    ends without error; a failure removes it, and its errors name `path`."""
    target = file_target(path)
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # from open or os.replace
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def conjugate_step(x: int) -> int:
    """Accelerated step transported to positions.

    The position (n+1)/2 of the odd part n of 3(2x-1)+1, the accelerated
    step of the odd value 2x-1 at position x, in plain integer arithmetic.
    """
    _require_position(x)
    t = _checked(6 * x - 2)  # = 3*(2x-1) + 1
    j = (t & -t).bit_length() - 1
    return ((t >> j) + 1) >> 1


def higher_equivalent(x: int) -> int:
    """The next position sharing x's image under the conjugate step: 4x-1."""
    _require_position(x)
    return _checked(4 * x - 1)


def base_equivalent(x: int) -> tuple[int, int]:
    """Strip lower equivalents from x until none remain.

    Returns (base, depth) with base either even or 1 mod 4, and x the
    depth-fold higher_equivalent of base.  Terminates because
    each strip strictly decreases the position.
    """
    _require_position(x)
    depth = 0
    while x & 3 == 3:
        x = (x + 1) >> 2
        depth += 1
    return x, depth


def restriction_index(x: int) -> int:
    """Index of the branch that maps x: 2*depth + 1 for an even base, +2 else.

    Positions mapped through branch index z recur at intervals of 2**z.
    """
    base, depth = base_equivalent(x)
    return 2 * depth + (1 if base & 1 == 0 else 2)


def lower_step(x: int) -> int | None:
    """The one-to-one part of the conjugate step.

    Defined exactly on positions without a lower equivalent:
    even x = 2+2m -> 3+3m, x = 1+4m -> 1+3m.  Positions 3 mod 4 (which do
    have a lower equivalent) return None; they end a chain.
    """
    _require_position(x)
    if x & 1 == 0:
        return _checked(3 * x // 2)
    if x & 3 == 1:
        return _checked((3 * x + 1) // 4)
    return None


def inverse_lower_step(x: int) -> int | None:
    """Inverse of lower_step.

    Residue 0 mod 3 (x = 3+3m) steps down to the even position 2+2m,
    residue 1 (x = 1+3m) steps up to 1+4m, residue 2 has no preimage and
    starts a chain.  Returns None in the residue-2 case.
    """
    _require_position(x)
    r = x % 3
    if r == 0:
        return 2 * x // 3
    if r == 1:
        return _checked((4 * x - 1) // 3)
    return None


class Progression(namedtuple("Progression", "intercept interval")):
    """The set {intercept + interval*t : t >= 0}."""

    __slots__ = ()

    def __new__(cls, intercept: int, interval: int):
        if intercept < 1:
            raise ValueError(f"intercept must be >= 1, got {intercept}")
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        return super().__new__(cls, intercept, interval)

    def element(self, t: int) -> int:
        return self.intercept + self.interval * t

    def contains(self, x: int) -> bool:
        return x >= self.intercept and (x - self.intercept) % self.interval == 0

    def __str__(self) -> str:
        return f"{{{self.intercept}+{self.interval}t}}"


# First-passage data for one position iterated under the conjugate step; the
# steps and the value are None where the walk never got there.
TrajectoryReport = namedtuple("TrajectoryReport", "start steps_to_first_3mod4 "
                              "first_3mod4_value steps_to_one truncated")


def trajectory_report(x: int, max_steps: int = DEFAULT_WALK_LIMIT) -> TrajectoryReport:
    """Iterate the conjugate step from x, recording two first passages.

    Records the first index (counting x itself as index 0) at which the
    trajectory sits in the 3 mod 4 class, and the first arrival at
    position 1.  Iteration stops at position 1 -- it is a fixed point, so
    nothing later can change either answer -- or once max_steps steps have
    been taken, in which case the report is marked truncated.
    """
    _require_position(x)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    steps_3mod4: int | None = None
    value_3mod4: int | None = None
    steps_one: int | None = None
    v = x
    step = 0
    while True:
        if steps_3mod4 is None and v & 3 == 3:
            steps_3mod4 = step
            value_3mod4 = v
        if v == 1:
            steps_one = step
            return TrajectoryReport(x, steps_3mod4, value_3mod4, steps_one, False)
        if step >= max_steps:
            return TrajectoryReport(x, steps_3mod4, value_3mod4, steps_one, True)
        t = _checked(6 * v - 2)
        j = (t & -t).bit_length() - 1
        v = ((t >> j) + 1) >> 1
        step += 1
