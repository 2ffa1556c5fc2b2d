"""Progression evolution in both directions and the exact window counts.

Pushing the head class {2+3t} forward doubles the number of parts each
generation while the intervals grow as powers of 3; pulling the end class
{3+4t} backward does the same with mixed powers of 2.  Because every
intercept stays below its interval, any window of the right length meets
each generation in exactly the predicted number of positions.
"""

from fractions import Fraction

from collatz_strings import coverage_count, expected_coverage
from collatz_strings.progressions import evolve
from collatz_strings.strings import PROCESSES, audit_part, interval_weight


def generation(direction, k):
    return tuple(evolve(*PROCESSES[direction], k))


def show(direction, k):
    parts = " u ".join(str(p) for p in generation(direction, k))
    print(f"  generation {k}: {parts}")


def main():
    print("forward evolution (from the heads):")
    for k in range(4):
        show("forward", k)

    print("\nbackward evolution (from the ends):")
    for k in range(4):
        show("backward", k)

    print("\nintercepts stay below intervals through generation 12:")
    for k in range(13):
        for direction in PROCESSES:
            for part in generation(direction, k):
                assert audit_part(direction, part) == (False, [])
    print("  audited: all clear")

    print("\nbackward generations keep exact density 3^k/4^(k+1):")
    for k in range(5):
        weight = interval_weight(generation("backward", k))
        assert weight == Fraction(3 ** k, 4 ** (k + 1))
        print(f"  generation {k}: sum of 1/interval = {weight}")

    print("\nwindow counts match the closed forms, for any window start:")
    for direction, m in (("forward", 3), ("backward", 2), ("backward", 3)):
        expected = expected_coverage(direction, m)
        for start in (2, 5, 1000):
            cc = coverage_count(direction, m, start)
            assert (cc.included, cc.open_count) == expected
        window = 3 ** m if direction == "forward" else 4 ** m
        print(f"  {direction} m={m}: {expected[0]} of every {window} consecutive "
              f"positions covered, {expected[1]} left open")


if __name__ == "__main__":
    main()
