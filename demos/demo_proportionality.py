"""Recurrence spacing of branch signatures, forward and backward.

The branch pattern a position follows pins it inside one residue class:
the next position with the same forward pattern sits exactly 2^(sum of
branch indices) later, and the next with the same backward pattern sits
exactly 3^(pattern length) later.  The walks below find each first
recurrence as x + M, with x mod M the residue class of the positions
sharing x's pattern: they split x's class only where its members would
take different branches, and never read the predicted spacing.
"""

import random

from collatz_strings import (
    backward_signature,
    first_recurrence_backward,
    first_recurrence_forward,
    forward_signature,
)


def show_forward(x, steps):
    sig = forward_signature(x, steps)
    found = first_recurrence_forward(x, steps)
    print(f"  forward from {x:>5}: tags {sig.tags} -> next at {found} "
          f"(= {x} + 2^{sum(sig.steps)})")
    assert found == x + sig.recurrence_gap


def show_backward(x, steps):
    sig = backward_signature(x, steps)
    found = first_recurrence_backward(x, steps)
    print(f"  backward from {x:>4}: tags {sig.tags} -> next at {found} "
          f"(= {x} + 3^{len(sig.steps)})")
    assert found == x + sig.recurrence_gap


def main():
    print("forward signatures and their first recurrences:")
    show_forward(2, 2)    # lands on a chain end, recurs at 34
    show_forward(5, 3)
    show_forward(1, 1)

    print("\nbackward signatures and their first recurrences:")
    show_backward(7, 4)   # four inverse steps, recurs at 88
    show_backward(3, 1)
    show_backward(10, 3)  # walk hits a head early; the head counts

    print("\n400 seeded random spot checks:")
    rng = random.Random(1)
    for recur, build in ((first_recurrence_forward, forward_signature),
                         (first_recurrence_backward, backward_signature)):
        for _ in range(200):
            x, n = rng.randint(1, 10 ** 4), rng.randint(1, 6)
            assert recur(x, n) == x + build(x, n).recurrence_gap
    print("  every first recurrence landed exactly on the predicted spacing")


if __name__ == "__main__":
    main()
