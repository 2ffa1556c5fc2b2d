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

from collatz_strings import signature_class


def show(direction, x, steps):
    sig, modulus = signature_class(direction, x, steps)
    spacing = f"2^{sum(sig.steps)}" if direction == "forward" else f"3^{len(sig.steps)}"
    print(f"  {direction + ' from':<13}{x:>5}: steps {sig.steps} -> next at {x + modulus} "
          f"(= {x} + {spacing})")
    assert modulus == sig.recurrence_gap


def main():
    print("forward signatures and their first recurrences:")
    show("forward", 2, 2)  # lands on a chain end, recurs at 34
    show("forward", 5, 3)
    show("forward", 1, 1)

    print("\nbackward signatures and their first recurrences:")
    show("backward", 7, 4)  # four inverse steps, recurs at 88
    show("backward", 3, 1)
    show("backward", 10, 3)  # walk hits a head early; the head counts

    print("\n400 seeded random spot checks:")
    rng = random.Random(1)
    for direction in ("forward", "backward"):
        for _ in range(200):
            x, n = rng.randint(1, 10 ** 4), rng.randint(1, 6)
            sig, modulus = signature_class(direction, x, n)
            assert modulus == sig.recurrence_gap
    print("  every first recurrence landed exactly on the predicted spacing")


if __name__ == "__main__":
    main()
