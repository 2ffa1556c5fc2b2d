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

Everything is integer-exact.  Arithmetic is guarded at 128 bits: a result
beyond that range raises WidthExceededError instead of proceeding, so a
sweep can never silently outgrow the precision it started with.
"""

from __future__ import annotations

from dataclasses import dataclass

WIDTH_BITS = 128
MAX_VALUE = (1 << WIDTH_BITS) - 1

DEFAULT_WALK_LIMIT = 100_000  # step and chain-length budget of every walk


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


def _require_odd(n: int) -> None:
    if n < 1 or n & 1 == 0:
        raise ValueError(f"expected a positive odd integer, got {n}")
    if n > MAX_VALUE:
        raise WidthExceededError(f"value exceeds the {WIDTH_BITS}-bit working range")


def collatz_step(n: int) -> int:
    """One step of the classic map: n/2 for even n, 3n+1 for odd n."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    if n > MAX_VALUE:
        raise WidthExceededError(f"value exceeds the {WIDTH_BITS}-bit working range")
    if n & 1 == 0:
        return n >> 1
    return _checked(3 * n + 1)


def accelerated_step(n: int) -> tuple[int, int]:
    """Map odd n to the odd part of 3n+1.  Returns (result, halvings)."""
    _require_odd(n)
    t = _checked(3 * n + 1)
    j = (t & -t).bit_length() - 1
    return t >> j, j


def position_of(n: int) -> int:
    """Position of an odd integer in the odd enumeration: (n+1)/2."""
    _require_odd(n)
    return (n + 1) >> 1


def odd_of(x: int) -> int:
    """Odd integer sitting at position x: 2x-1.  Inverse of position_of."""
    _require_position(x)
    return _checked(2 * x - 1)


def conjugate_step(x: int) -> int:
    """Accelerated step transported to positions.

    Computed by the defining composition position_of(accelerated(odd_of(x))),
    folded into plain integer arithmetic on x.
    """
    _require_position(x)
    t = _checked(6 * x - 2)  # = 3*(2x-1) + 1
    j = (t & -t).bit_length() - 1
    return ((t >> j) + 1) >> 1


def conjugate_step_casewise(x: int) -> int:
    """Conjugate step evaluated through its closed branch forms.

    Reduces x to its base equivalent, then applies the affine branch for
    that base (even base 2+2m -> 3+3m, base 1+4m -> 1+3m).  Must agree
    with conjugate_step everywhere; tests cross-assert the two routes.
    """
    base, _ = base_equivalent(x)
    if base & 1 == 0:
        return _checked(3 * base // 2)
    return _checked((3 * base + 1) // 4)


def higher_equivalent(x: int) -> int:
    """The next position sharing x's image under the conjugate step: 4x-1."""
    _require_position(x)
    return _checked(4 * x - 1)


def base_equivalent(x: int) -> tuple[int, int]:
    """Strip lower equivalents from x until none remain.

    Returns (base, depth) with base either even or 1 mod 4, and
    family_equivalent_n(base, depth, Family(1)) == x.  Terminates because
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


@dataclass(frozen=True)
class TrajectoryReport:
    """First-passage data for one position iterated under the conjugate step."""

    start: int
    steps_to_first_3mod4: int | None
    first_3mod4_value: int | None
    steps_to_one: int | None
    truncated: bool

    @property
    def hit_3mod4(self) -> bool:
        return self.steps_to_first_3mod4 is not None


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
