"""The 3n+p generalization of the conjugated map.

For every odd p, the map n -> odd part of 3n+p transports to positions the
same way the p=1 map does, with the equivalence x ~ 4x+q, q=(p-3)/2, in
place of x ~ 4x-1.  The branch layout on positions is derived here from q
alone: one stride-2 residue class, one stride-4 class, the class of
equivalents (chain ends), and finitely many leftover small positions that
get their own one-off rules.  This module holds the step (family_step),
the equivalence, the branch maps and the predecessor search; the chain
scan and the cycle search, which walk residue classes under this step,
are in walks, and the audits of the fixed tables below are in audits.

CASE_SYSTEMS transcribes the published position-map systems for each small
p; audits.audit_case_system checks every transcribed rule instance against
the generic step, which is the oracle throughout this module.

The string formation of the p=1 map is tabled here too.  Forward process:
start from the chain heads {2+3t} and push every part through both
branches of the one-to-one map, dropping the 3 mod 4 class (chain ends)
at each generation.  Backward process: start from the chain ends {3+4t}
and pull back through both inverse branches, dropping heads.  PROCESSES
(seeds and branch maps) is the one table that tells the directions
apart: generation k is progressions.evolve(*PROCESSES[d], k).
"""

from __future__ import annotations

from collections import namedtuple

from .core import MAX_VALUE, WIDTH_BITS, Progression, WidthExceededError, _checked


class NonpositiveImageError(ValueError):
    """3n+p fell below 1, so the family's step is undefined there."""


class Family(namedtuple("Family", "p")):
    """One member of the 3n+p family, for odd p (negative allowed)."""

    __slots__ = ()

    def __new__(cls, p: int):
        if p % 2 == 0:
            raise ValueError(f"family parameter must be odd, got {p}")
        return super().__new__(cls, p)

    @property
    def q(self) -> int:
        """Offset of the equivalence map x -> 4x+q."""
        return (self.p - 3) // 2

    @property
    def trivial_loop_position(self) -> int:
        """Position of the built-in fixed point (the odd value |p|)."""
        return (abs(self.p) + 1) // 2

    def is_equivalent_position(self, x: int) -> bool:
        """True when x = 4x'+q for some valid position x' < x (x ends a chain).

        x' < x is 3x+q > 0, that is 3(2x-1)+p >= 1, so a position whose
        own step is undefined (1 for p = -3, 2 for p = -9) ends no chain.
        """
        q = self.q
        return x % 4 == q % 4 and x >= q + 4 and 3 * x + q > 0


def family_step(x: int, family: Family) -> int:
    """Position image under the family's accelerated map.

    Sends position x (odd value 2x-1) to the position of the odd part of
    3(2x-1)+p.  Raises NonpositiveImageError when 3(2x-1)+p < 1.
    """
    if x < 1:
        raise ValueError(f"position must be >= 1, got {x}")
    t = 6 * x - 3 + family[0]  # family.p through the namedtuple descriptor is slower
    if t < 1:
        raise NonpositiveImageError(f"3n+p is {t} at position {x} for p={family.p}")
    if t > MAX_VALUE:
        raise WidthExceededError(f"value exceeds the {WIDTH_BITS}-bit working range")
    j = (t & -t).bit_length() - 1
    return ((t >> j) + 1) >> 1


def family_equivalent(x: int, family: Family) -> int:
    """Next position sharing x's image in this family: 4x+q."""
    if x < 1:
        raise ValueError(f"position must be >= 1, got {x}")
    result = _checked(4 * x + family.q)
    if result < 1:
        raise ValueError(f"4x+q is {result}; p={family.p} has no equivalent of {x}")
    return result


def branch_maps(family: Family) -> tuple[tuple[Progression, Progression], ...]:
    """The two lower branches as (domain, image) progression pairs.

    Equivalents occupy the class q mod 4 (from x >= q+4 up).  What remains
    is one full stride-2 class and one stride-4 class, determined by q's
    parity and residue; positions of the equivalent class below q+4 are
    the leftover exceptional positions handled by one-off rules.  Each
    domain starts at its first member whose 3n+p is at least 1 (for
    p <= -5 the smallest members have no image).  On each class the step
    is affine with image interval 3, so the image is pinned by the domain
    intercept and checked once on the domain's second member.
    """
    q4 = family.q % 4
    if family.q % 2 == 0:
        stride2 = Progression(1, 2)
        stride4 = Progression(2, 4) if q4 == 0 else Progression(4, 4)
    else:
        stride2 = Progression(2, 2)
        stride4 = Progression(3, 4) if q4 == 1 else Progression(1, 4)
    lowest = (9 - family.p) // 6  # least position with 3(2x-1)+p >= 1
    maps = []
    for domain in (stride2, stride4):
        skip = -((domain.intercept - lowest) // domain.interval)  # members below lowest
        if skip > 0:
            domain = Progression(domain.element(skip), domain.interval)
        image = Progression(family_step(domain.intercept, family), 3)
        if family_step(domain.element(1), family) != image.element(1):
            raise ValueError(f"step is not affine on {domain} (p={family.p})")
        maps.append((domain, image))
    return tuple(maps)


def _image_branches(maps) -> dict:
    """Residue mod 3 -> (b, a, s) for the branches of maps, (domain, image)
    Progression pairs with images of interval 3: a value v = b (mod 3),
    v >= b, has the predecessor a + s*(v-b)/3 on the branch onto b."""
    return {img.intercept % 3: (img.intercept, dom.intercept, dom.interval)
            for dom, img in maps}


def exceptional_positions(family: Family) -> tuple[int, ...]:
    """Positions in the equivalent residue class that are too small to be one."""
    q4 = family.q % 4
    first = q4 if q4 >= 1 else 4
    return tuple(range(first, max(family.q + 4, first), 4))


def lower_preimages(x: int, family: Family) -> tuple[int, ...]:
    """All chain predecessors of x: lower-domain positions stepping to x.

    A predecessor x' satisfies 3(2x'-1)+p = (2x-1)*2^j for some j >= 1.
    Valid j values repeat with period 2 and deeper solutions are exactly
    the 4x+q images of shallower ones, so reducing every solution to its
    base yields the distinct predecessors: at most one for p not divisible
    by 3, at most two otherwise.  Every result is verified by stepping it.
    This search is the oracle for the predecessor table that the backward
    chain scan (walks.backward_walk) reads.
    """
    if x < 1:
        raise ValueError(f"position must be >= 1, got {x}")
    target = 2 * x - 1
    bases: list[int] = []
    j_cap = max(8, abs(family.p).bit_length() + 3)
    for j in range(1, j_cap + 1):
        num = (target << j) - family.p
        if num < 3 or num % 3 != 0:
            continue
        # num/3 is odd, as num is, so it is the odd value 2c-1 of a position c
        # with 3(2c-1)+p = (2x-1)*2^j.  Each stripped equivalent divides that
        # by 4, and it stays even (3 times an odd value plus p), so at least
        # 2: every candidate's step is defined.
        candidate = (num // 3 + 1) >> 1
        while family.is_equivalent_position(candidate):
            candidate = (candidate - family.q) // 4
        if candidate not in bases and family_step(candidate, family) == x:
            bases.append(candidate)
    return tuple(sorted(bases))


# Position-map systems for small |p|, transcribed verbatim as published.
# Each rule is (domain_offset, domain_stride, image_offset, image_stride);
# stride 0 marks a one-off rule for a single exceptional position.
_Rule = tuple[int, int, int, int]

CASE_SYSTEMS: dict[int, tuple[_Rule, ...]] = {
    1: ((2, 2, 3, 3), (1, 4, 1, 3)),
    7: ((1, 2, 3, 3), (4, 4, 4, 3), (2, 0, 1, 0)),
    13: ((2, 2, 6, 3), (3, 4, 4, 3), (1, 0, 1, 0), (5, 0, 3, 0)),
    19: ((1, 2, 6, 3), (2, 4, 4, 3), (8, 0, 1, 0), (4, 0, 3, 0)),
    25: ((2, 2, 9, 3), (1, 4, 4, 3), (7, 0, 1, 0), (3, 0, 3, 0), (11, 0, 6, 0)),
    31: ((1, 2, 9, 3), (4, 4, 7, 3), (6, 0, 1, 0), (2, 0, 3, 0), (14, 0, 4, 0),
         (10, 0, 6, 0)),
    37: ((2, 2, 12, 3), (3, 4, 7, 3), (5, 0, 1, 0), (1, 0, 3, 0), (13, 0, 4, 0),
         (9, 0, 6, 0), (17, 0, 9, 0)),
    -1: ((1, 2, 1, 3), (4, 4, 3, 3)),
    5: ((2, 2, 4, 3), (3, 4, 3, 3), (1, 0, 1, 0)),
    11: ((1, 2, 4, 3), (2, 4, 3, 3), (4, 0, 1, 0)),
    17: ((2, 2, 7, 3), (1, 4, 3, 3), (3, 0, 1, 0), (7, 0, 4, 0)),
    23: ((1, 2, 7, 3), (4, 4, 6, 3), (2, 0, 1, 0), (6, 0, 4, 0), (10, 0, 3, 0)),
    3: ((1, 2, 2, 3), (2, 4, 2, 3)),
    9: ((2, 2, 5, 3), (1, 4, 2, 3), (3, 0, 2, 0)),
    15: ((1, 2, 5, 3), (4, 4, 5, 3), (2, 0, 2, 0), (6, 0, 2, 0)),
    21: ((2, 2, 8, 3), (3, 4, 5, 3), (1, 0, 2, 0), (5, 0, 2, 0), (9, 0, 5, 0)),
    27: ((1, 2, 8, 3), (2, 4, 5, 3), (4, 0, 2, 0), (8, 0, 5, 0), (12, 0, 2, 0)),
    33: ((2, 2, 11, 3), (1, 4, 5, 3), (3, 0, 2, 0), (7, 0, 5, 0), (11, 0, 2, 0),
         (15, 0, 8, 0)),
}

CASE_SYSTEM_PARAMS = tuple(sorted(CASE_SYSTEMS))


FORWARD_SEED = Progression(2, 3)   # chain heads: residue 2 mod 3
BACKWARD_SEED = Progression(3, 4)  # chain ends: residue 3 mod 4

# (domain, image) per branch, even branch first: 2+2m -> 3+3m, 1+4m -> 1+3m
FORWARD_MAPS = branch_maps(Family(1))
BACKWARD_MAPS = tuple((image, domain) for domain, image in FORWARD_MAPS)
# direction -> (seeds, branch maps) of the evolution
PROCESSES = {"forward": ((FORWARD_SEED,), FORWARD_MAPS),
             "backward": ((BACKWARD_SEED,), BACKWARD_MAPS)}
