"""Walk through the conjugated map and its equivalence structure.

The odd positive integers are indexed by position: position x holds the
odd value 2x-1.  One accelerated step (3n+1, then divide out every two)
becomes a total map on positions, and this script shows its three load
bearing features: the two affine branches, the 4x-1 equivalence, and the
power-of-two recurrence of the branch classes.
"""

from collatz_strings import (
    base_equivalent,
    conjugate_step,
    higher_equivalent,
    lower_step,
    restriction_index,
)


def main():
    print("positions and their odd values:")
    for x in range(1, 7):
        print(f"  position {x} holds odd value {2 * x - 1}")

    print("\none accelerated step, seen from both coordinates:")
    for x in (1, 2, 3, 4, 5, 6, 7):
        n = 2 * x - 1
        t = 3 * n + 1
        halvings = (t & -t).bit_length() - 1  # the factors of two in t
        image = t >> halvings
        assert conjugate_step(x) == (image + 1) // 2
        print(f"  {n} -> 3n+1 = {t} -> /2^{halvings} = {image}"
              f"   i.e. position {x} -> {conjugate_step(x)}")

    print("\nthe same map through its closed branch forms "
          "(even x -> 3x/2, x = 1 mod 4 -> (3x+1)/4):")
    for x in range(1, 20):
        assert conjugate_step(x) == lower_step(base_equivalent(x)[0])
    print("  composition and case form agree on 1..19 (and everywhere else)")

    print("\nequivalents: x and 4x-1 always share an image")
    for x in (2, 5, 9):
        e = higher_equivalent(x)
        print(f"  step({x}) = {conjugate_step(x)} = step({e}) = {conjugate_step(e)}")

    print("\nevery position reduces to an even or 1 mod 4 base:")
    for x in (7, 11, 47, 191):
        base, depth = base_equivalent(x)
        print(f"  {x} = equivalent^{depth}({base})")

    print("\nbranch classes recur at power-of-two intervals:")
    for z in range(1, 7):
        members = [x for x in range(1, 130) if restriction_index(x) == z]
        base, depth = base_equivalent(members[0])
        kind = "even" if base % 2 == 0 else "one-mod-four"
        print(f"  branch {z} ({kind} base, depth {depth}): "
              f"{members[:4]} ... interval {1 << z}")


if __name__ == "__main__":
    main()
