import os
import re
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    chain_of,
    intersect_residue,
    reference_audit_part,
    reference_evolve,
    reference_families,
    reference_first_recurrence,
    reference_signature,
    reference_transport,
    sampling_lemma_holds,
)

import collatz_strings.progressions as progressions_module
from collatz_strings import (
    Family,
    Progression,
    Signature,
    restriction_index,
    signature_class,
)
from collatz_strings.core import MAX_VALUE, WidthExceededError
from collatz_strings.family import BACKWARD_MAPS, FORWARD_MAPS, PROCESSES, branch_maps
from collatz_strings.progressions import _audit, _families, _proved, evolve
from collatz_strings.recurrence import _check_recurrence

# the Family(1) branch maps, one (domain, image) pair per branch
EVEN, ODD = FORWARD_MAPS
DOWN, UP = BACKWARD_MAPS


def pairs(seeds, maps, generation):
    """(part, children) for each part of generation k, flattened from the
    package walk's batches, each batch's children made by one `_level`."""
    n = len(maps)
    walk = _families(seeds, maps, generation)
    branches = progressions_module._branches(seeds, maps, generation)
    for intercepts, intervals in walk:
        kid_intercepts, kid_intervals = progressions_module._level(branches, intercepts,
                                                                   intervals)
        for i, part in enumerate(zip(intercepts, intervals)):
            kids = zip(kid_intercepts[n * i:n * i + n], kid_intervals[n * i:n * i + n])
            yield Progression(*part), [Progression(*kid) for kid in kids]


def transported(part, src, dst):
    """part's one child through the branch map (src, dst), by the package's walk."""
    return next(pairs((part,), ((src, dst),), 0))[1][0]


def _refusal(seeds, maps, generation):
    """The refusal a walk of seeds through generation k owes, by the premises
    of the residue formula restated here: (ValueError, the branch, image or
    seed it names) when a domain does not start at its class's least member
    mod at most 64, or an image or seed interval shares a factor with a
    domain interval; (WidthExceededError, "") when the largest seed number
    times the most a level can grow a number, to the power k+1, leaves the
    range; None when the premises hold."""
    moduli = [s for (_, s), _ in maps]
    for (r, s), image in maps:
        if not r <= s <= 64:
            return ValueError, f"branch {Progression(r, s)} "
        if any(gcd(image.interval, m) > 1 for m in moduli):
            return ValueError, f"image {image} "
    for seed in seeds:
        if any(gcd(seed.interval, m) > 1 for m in moduli):
            return ValueError, f"seed {seed} "
    growth = max([1] + [max(s, c + 2 * d) for (_, s), (c, d) in maps])
    if max(max(seed) for seed in seeds) * growth ** (generation + 1) > MAX_VALUE:
        return WidthExceededError, ""
    return None


def _exact_or_refused(seeds, maps, generation):
    """The side of the premises a walk is on: "exact" where they hold and
    the walk equals the recursive reference; else the kind of the refusal
    `_refusal` names ("branch", "image", "seed" or "width"), which the walk
    raises when it is called, before it makes a batch."""
    refusal = _refusal(seeds, maps, generation)
    if refusal is None:
        walked = _walked(pairs, seeds, maps, generation)
        assert walked == _walked(reference_families, seeds, maps, generation)
        assert walked[1] is None
        return "exact"
    error, name = refusal
    with pytest.raises(error, match=f"^{re.escape(name)}"):
        _families(seeds, maps, generation)  # the call alone: no batch is drawn
    return name.split()[0] if name else "width"


def test_progression_validation_and_membership():
    p = Progression(5, 12)
    assert p.contains(5) and p.contains(29)
    assert not p.contains(6) and not p.contains(1)
    with pytest.raises(ValueError, match="^intercept must be >= 1, got 0$"):
        Progression(0, 3)
    with pytest.raises(ValueError, match="^interval must be >= 1, got 0$"):
        Progression(1, 0)
    with pytest.raises(ValueError, match="^intercept must be >= 1, got -2$"):
        Progression(-2, -1)  # the intercept is checked first


def test_progression_is_a_value():
    p = Progression(5, 12)
    assert str(p) == "{5+12t}"
    assert repr(p) == "Progression(intercept=5, interval=12)"
    assert p == Progression(5, 12) == Progression(interval=12, intercept=5) == (5, 12)
    assert p != Progression(5, 24) and p != Progression(12, 5)
    assert hash(p) == hash(Progression(5, 12))
    assert len({p, Progression(5, 12), Progression(17, 12)}) == 2
    assert (p.intercept, p.interval) == tuple(p) == (5, 12)
    assert p.element(0) == 5 and p.element(3) == 41
    for name in ("intercept", "interval", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, 7)
    assert p == (5, 12)  # unchanged


def test_signature_is_a_value():
    sig = Signature("forward", (1, 2, 4))
    assert repr(sig) == "Signature(direction='forward', steps=(1, 2, 4))"
    assert str(sig) == repr(sig)
    assert sig == Signature("forward", (1, 2, 4)) == ("forward", (1, 2, 4))
    assert sig != Signature("backward", (1, 0, 1)) and sig != ("backward", (1, 2, 4))
    assert hash(sig) == hash(Signature("forward", (1, 2, 4)))
    assert len({sig, Signature("forward", (1, 2, 4)), Signature("forward", (1,))}) == 2
    for name in ("direction", "steps", "other"):
        with pytest.raises(AttributeError):
            setattr(sig, name, ())
    with pytest.raises(ValueError, match="^unknown direction 'sideways'$"):
        Signature("sideways", (1,))
    with pytest.raises(ValueError, match="^a signature needs at least one step$"):
        Signature("backward", ())
    with pytest.raises(ValueError, match="^a chain end may only appear as the final entry$"):
        Signature("forward", (3, 1))
    with pytest.raises(ValueError, match="^a chain end may only appear as the final entry$"):
        Signature("backward", (2, 0))


def test_transport_matches_the_intersection_reference_on_a_grid():
    # every small part and domain: where the premises hold, the walk's one
    # child equals the intersection reference's; each premise that fails
    # (a domain above its class's least member, an image or a part interval
    # sharing a factor with the domain's) is refused at least once
    seen = {"exact": 0, "branch": 0, "image": 0, "seed": 0}
    dst = Progression(5, 3)
    for a in range(1, 13):
        for b in range(1, 13):
            for r in range(1, 13):
                for s in range(1, 13):
                    part, src = Progression(a, b), Progression(r, s)
                    side = _exact_or_refused((part,), ((src, dst),), 0)
                    if side == "exact":
                        assert transported(part, src, dst) == \
                            reference_transport(part, src, dst) is not None
                    seen[side] += 1
    assert all(seen.values()), seen


_SIZES = st.one_of(st.integers(1, 64), st.integers(1, 1 << 40),
                   st.integers(MAX_VALUE - (1 << 40), MAX_VALUE))


@given(_SIZES, _SIZES, _SIZES, _SIZES, _SIZES, _SIZES)
@settings(max_examples=500)
@example(2, 3, 2, 2, 3, 3)                       # {2+3t} through the even branch
@example((1 << 120) + 5, 3, 1, 4, 1, 3)          # near the edge: exact
@example(2, 6, 1 << 40, 4, 1, 1)                 # refused: the class starts below the domain
@example(2, 6, 3, 4, 1, 1)                       # refused: even members, odd domain
@example(1, 3, 1, 3, 1, 1)                       # refused: the part shares 3 with the domain
@example(1, 1, 1, 2, 1, 4)                       # refused: the image shares 2 with the domain
@example(MAX_VALUE, 1, 1, 3, 1, 1)               # refused: the first member leaves the range
@example(1, (1 << 127) + 1, 1, 4, 1, 1)          # refused: the class interval leaves it
@example(5, 1, 1, 2, MAX_VALUE, 1)               # refused: the image intercept leaves it
@example(1, (1 << 100) + 1, 1, 2, 1, MAX_VALUE)  # refused: the image interval leaves it
def test_transport_matches_the_intersection_reference(a, b, r, s, c, d):
    args = Progression(a, b), Progression(r, s), Progression(c, d)
    if _exact_or_refused(args[:1], (args[1:],), 0) == "exact":
        assert transported(*args) == reference_transport(*args)


def test_intersect_residue_examples():
    assert intersect_residue(Progression(2, 3), 0, 2) == Progression(2, 6)
    assert intersect_residue(Progression(3, 4), 0, 3) == Progression(3, 12)
    assert intersect_residue(Progression(1, 4), 1, 4) == Progression(1, 4)


def test_intersect_residue_empty():
    # even progression cannot meet an odd residue class mod 2
    assert intersect_residue(Progression(2, 2), 1, 2) is None


def test_intersect_residue_elementwise():
    cases = [(Progression(2, 3), 0, 2), (Progression(3, 4), 0, 3),
             (Progression(7, 12), 1, 3), (Progression(5, 6), 3, 4)]
    for p, r, mod in cases:
        q = intersect_residue(p, r, mod)
        want = [x for t in range(400) if (x := p.element(t)) % mod == r % mod][:100]
        if q is None:
            assert not want
        else:
            assert [q.element(t) for t in range(100)] == want


@given(st.integers(1, 50), st.integers(1, 40), st.integers(0, 59), st.integers(1, 60))
@settings(max_examples=300)
def test_intersect_residue_matches_filter(a, b, r, mod):
    p = Progression(a, b)
    q = intersect_residue(p, r, mod)
    want = [x for t in range(6 * mod) if (x := p.element(t)) % mod == r % mod][:30]
    if q is None:
        assert not want
    else:
        assert [q.element(t) for t in range(len(want))] == want


def test_branch_images_match_published_first_generations():
    # the head class {2+3t} through each forward branch, the end class
    # {3+4t} through each backward one: its members {2+6t}, {5+12t}, {3+12t}
    # and {7+12t} in the domains go to the published first generations
    assert transported(Progression(2, 3), *EVEN) == Progression(3, 9)
    assert transported(Progression(2, 3), *ODD) == Progression(4, 9)
    assert transported(Progression(3, 4), *DOWN) == Progression(2, 8)
    assert transported(Progression(3, 4), *UP) == Progression(9, 16)


def test_branch_images_are_elementwise():
    from collatz_strings import inverse_lower_step, lower_step

    # the first-generation parts through every branch of their direction:
    # the image lists the steps of the part's members in the branch domain
    for maps, step, parts in ((FORWARD_MAPS, lower_step, (Progression(3, 9), Progression(4, 9))),
                              (BACKWARD_MAPS, inverse_lower_step,
                               (Progression(2, 8), Progression(9, 16)))):
        for part in parts:
            for src, dst in maps:
                img = transported(part, src, dst)
                inside = [x for t in range(200) if src.contains(x := part.element(t))][:50]
                assert [img.element(t) for t in range(50)] == [step(x) for x in inside]


def test_branch_interval_transport():
    # an interval b goes to lcm(b, s)*d/s, the class interval lcm(b, s)
    # scaled by the branch's factor d/s
    assert transported(Progression(2, 3), *EVEN).interval == 9  # 6 -> 3*6/2
    assert transported(Progression(1, 3), *ODD).interval == 9  # 12 -> 3*12/4
    assert transported(Progression(3, 4), *DOWN).interval == 8  # 12 -> 2*12/3
    assert transported(Progression(1, 4), *UP).interval == 16  # 12 -> 4*12/3


def test_branch_domain_preconditions_are_enforced():
    # a part whose interval shares a factor with a domain's is refused at
    # the call, by name, whether or not it has members in the domain ...
    for part, branch in ((Progression(3, 6), EVEN),  # odd positions only
                         (Progression(3, 4), ODD),  # 3 mod 4 only
                         (Progression(2, 9), UP),  # 2 mod 3 only
                         (Progression(2, 6), EVEN)):  # even positions only
        with pytest.raises(ValueError, match=re.escape(f"seed {part} shares a factor")):
            _families((part,), (branch,), 0)
    # ... and evolution refuses such a seed at the call too
    with pytest.raises(ValueError, match=re.escape("seed {3+6t} shares a factor")):
        evolve((Progression(3, 6),), FORWARD_MAPS, 1)
    with pytest.raises(ValueError, match=re.escape("seed {2+9t} shares a factor")):
        evolve((Progression(2, 9),), BACKWARD_MAPS, 1)


@pytest.mark.parametrize("seeds, maps", [
    ((Progression(2, 3),), FORWARD_MAPS),
    ((Progression(3, 4),), BACKWARD_MAPS),
    ((Progression(2, 3),), branch_maps(Family(-1))),
    ((Progression(1, 3),), branch_maps(Family(3))),
    ((Progression(3, 3),), branch_maps(Family(3))),
    ((Progression(1, 3), Progression(3, 3)), branch_maps(Family(3))),
], ids=["forward", "backward", "p=-1", "p=3 seed 1", "p=3 seed 3", "p=3 both seeds"])
def test_depth_first_evolve_matches_breadth_first_reference(seeds, maps):
    for k in range(11):
        assert tuple(evolve(seeds, maps, k)) == reference_evolve(seeds, maps, k), k


def test_depth_first_evolve_misses_a_branch_where_the_reference_does():
    # every small seed under both processes, alone and after a seed whose
    # subtree the walk yields before it reaches the small one: where the
    # premises hold, the parts of the breadth-first reference; otherwise a
    # refusal at the call; generation 0 transports nothing and is the seeds
    seen = {"exact": 0, "refused": 0}
    for maps, first in ((FORWARD_MAPS, Progression(2, 3)),
                        (BACKWARD_MAPS, Progression(3, 4))):
        for a in range(1, 13):
            for b in range(1, 13):
                for seeds in ((Progression(a, b),), (first, Progression(a, b))):
                    assert tuple(evolve(seeds, maps, 0)) == seeds
                    for k in range(1, 4):
                        refusal = _refusal(seeds, maps, k - 1)
                        if refusal is None:
                            assert tuple(evolve(seeds, maps, k)) == \
                                reference_evolve(seeds, maps, k)
                        else:
                            with pytest.raises(refusal[0], match=re.escape(refusal[1])):
                                evolve(seeds, maps, k)
                        seen["exact" if refusal is None else "refused"] += 1
    assert all(seen.values()), seen
    with pytest.raises(ValueError):
        evolve((Progression(2, 3),), FORWARD_MAPS, -1)  # at the call, not the first part


def _walked(walk, *args):
    """The pairs a walk yields, and the type and message of the ValueError or
    WidthExceededError that ends it."""
    found = []
    try:
        for pair in walk(*args):
            found.append(pair)
    except (ValueError, WidthExceededError) as exc:
        return found, type(exc).__name__, str(exc)
    return found, None, None


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_families_pair_each_part_with_its_transports(direction):
    seeds, maps = PROCESSES[direction]
    for k in range(11):
        found = list(pairs(seeds, maps, k))
        assert found == list(reference_families(seeds, maps, k)), k
        assert [part for part, _ in found] == list(reference_evolve(seeds, maps, k))
        assert [kid for _, kids in found for kid in kids] == \
            list(reference_evolve(seeds, maps, k + 1))


def test_families_miss_a_branch_at_the_part_the_reference_does():
    # every small seed, alone and after a seed whose subtree comes first,
    # under both processes and p=-5, whose domains start above a class's
    # first member: the recursive reference's pairs where the premises
    # hold, and a refusal naming the seed or the branch where they do not
    seen = {"exact": 0, "seed": 0, "branch": 0}
    for maps, first in ((FORWARD_MAPS, Progression(2, 3)),
                        (BACKWARD_MAPS, Progression(3, 4)),
                        (branch_maps(Family(-5)), Progression(1, 3))):
        for a in range(1, 13):
            for b in range(1, 13):
                for seeds in ((Progression(a, b),), (first, Progression(a, b))):
                    for k in range(4):
                        seen[_exact_or_refused(seeds, maps, k)] += 1
    assert all(seen.values()), seen


# log-uniform numbers of 1 to 127 bits: the top ones leave the range within a generation
_NUMBERS = st.integers(0, 126).flatmap(lambda bits: st.integers(1 << bits, (2 << bits) - 1))
_MAPS = [maps for _, maps in PROCESSES.values()] + \
    [branch_maps(Family(p)) for p in range(-41, 42, 2)]


@given(st.lists(st.builds(Progression, _NUMBERS, _NUMBERS), min_size=1, max_size=3),
       st.sampled_from(_MAPS), st.integers(0, 6), st.sampled_from([1, 2, 4, 8]), st.none())
@settings(max_examples=300, deadline=None)
@example([Progression(2, 3)], FORWARD_MAPS, 6, 4, "exact")        # subtrees by the formula
@example([Progression(3, 4), Progression(7, 4)], BACKWARD_MAPS, 5, 2, "exact")
@example([Progression((1 << 100) + 5, 3)], FORWARD_MAPS, 6, 8, "exact")  # near the edge
@example([Progression((1 << 120) + 5, 3)], FORWARD_MAPS, 6, 8, "width")
@example([Progression((1 << 126) + 1, (1 << 126) + 1)], BACKWARD_MAPS, 0, 1, "width")
@example([Progression(2, 3), Progression(2, 6)], FORWARD_MAPS, 3, 2, "seed")  # shares 2
@example([Progression(1, 3)], branch_maps(Family(-5)), 4, 4, "branch")  # below a domain
def test_batched_walk_matches_the_depth_first_reference(seeds, maps, k, leaves, side):
    # small subtrees, so that a walk meets several; side is the outcome an
    # explicit example must reach
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(progressions_module, "_SUBTREE_LEAVES", leaves)
        assert side in (None, _exact_or_refused(seeds, maps, k))


@pytest.mark.skipif(not os.environ.get("COLLATZ_STRINGS_LONG"),
                    reason="set COLLATZ_STRINGS_LONG=1 for the evolve oracle check at k = 16")
def test_long_evolve_matches_reference():
    for direction, (seeds, maps) in PROCESSES.items():
        parts = reference_evolve(seeds, maps, 16)
        kids = reference_evolve(parts, maps, 1)
        assert list(pairs(seeds, maps, 16)) == \
            [(part, list(kids[2 * i:2 * i + 2])) for i, part in enumerate(parts)]
        batches = list(_families(seeds, maps, 16))
        audits = [reference_audit_part(direction, part) for part in parts]
        checked = [_audit(direction, maps, batch) for batch in batches]
        assert [part for bad, _ in checked for part in bad] == \
            [part for part, (bad, _) in zip(parts, audits) if bad]
        assert [pair for _, over in checked for pair in over] == \
            [(part, kid) for part, (_, over) in zip(parts, audits) for kid in over]


def _per_part_audit(direction, seeds, maps, k):
    """(bad parts, (part, child) over the bound) of generation k: by the
    package's per-part audit of each batch, and by the references."""
    found = [], []
    for batch in _families(seeds, maps, k):
        for kept, new in zip(found, _audit(direction, maps, batch)):
            kept += new
    expected = [], []
    for part, kids in reference_families(seeds, maps, k):
        bad, over = reference_audit_part(direction, part, kids)
        expected[0].extend([part] * bad)
        expected[1].extend((part, kid) for kid in over)
    assert found == expected, (direction, seeds, maps, k)
    return found


def test_a_branch_domain_interval_is_at_most_64():
    seeds = (Progression(2, 3),)
    assert progressions_module._branches(seeds, ((Progression(1, 64), Progression(1, 3)),), 0)
    with pytest.raises(ValueError,
                       match=r"^branch \{1\+65t\} is not r \+ s\*m with r <= s <= 64$"):
        progressions_module._branches(seeds, ((Progression(1, 65), Progression(1, 3)),), 0)


def test_intercept_premises_hold_for_the_processes_and_fail_where_the_audit_finds():
    for direction, (seeds, maps) in PROCESSES.items():
        assert _proved(direction, seeds, maps), direction
    # a seed {40+3t} breaks (i) at the seed; {30+3t} as the even branch's
    # image breaks (i) on the branch, s*c = 60 >= d*(1 + r) = 9; {1+5t} as
    # the odd branch's image keeps (i), 4 < 10, and breaks (ii), f(1, 2) = -48.
    # {1+1t} -> {2+1t} from {1+2t} is at the equality of (i), s*c = d*(1 + r)
    # = 2, and keeps (ii), f = 14, 23, 22; its part {2+2t} at generation 1
    # is not below its interval, so (i) needs the strict <.  Each passes the
    # walk's premises, so the per-part audit runs and finds what the
    # references find
    cases = (((Progression(40, 3),), FORWARD_MAPS, 11, True, True),
             ((Progression(2, 3),), ((EVEN[0], Progression(30, 3)), ODD), 2, True, True),
             ((Progression(2, 3),), (EVEN, (ODD[0], Progression(1, 5))), 1, False, True),
             ((Progression(1, 2),), ((Progression(1, 1), Progression(2, 1)),), 1, True, False))
    for seeds, maps, k, parts_bad, children_over in cases:
        assert _refusal(seeds, maps, k) is None
        assert not _proved("forward", seeds, maps), maps
        bad, over = _per_part_audit("forward", seeds, maps, k)
        assert (bool(bad), bool(over)) == (parts_bad, children_over), maps


def test_proved_premises_leave_the_per_part_audit_nothing_to_find():
    # every image c + d*m, c and d up to 12, in place of either branch's,
    # from the process's seed and from a second: wherever _proved holds, the
    # per-part audit (equal to the references) is clean through generation 5
    seen = {}
    for direction, ((seed,), maps) in PROCESSES.items():
        moduli = maps[0][0].interval * maps[1][0].interval
        for j in range(2):
            for c in range(1, 13):
                for d in (d for d in range(1, 13) if gcd(d, moduli) == 1):
                    changed = tuple((domain, Progression(c, d) if i == j else image)
                                    for i, (domain, image) in enumerate(maps))
                    for seeds in ((seed,), (Progression(seed.intercept, 5),)):
                        clean = all(_per_part_audit(direction, seeds, changed, k) == ([], [])
                                    for k in range(6))
                        proved = _proved(direction, seeds, changed)
                        assert clean or not proved, (direction, seeds, changed)
                        seen[proved, clean] = seen.get((proved, clean), 0) + 1
    assert seen.keys() == {(True, True), (False, True), (False, False)}, seen


def test_transport_skips_class_members_below_the_domain():
    # 4 is 0 mod 4 but not in {8+4m}; the first member of {1+t} there is 8.
    # The residue formula would take 4, so the walk refuses a domain that
    # starts above its class's least member, by name, at the call
    for part, src, dst, image in ((Progression(1, 1), Progression(8, 4), Progression(5, 3),
                                   Progression(5, 3)),
                                  # {2+6t} meets 0 mod 4 at 8, 20, 32, ...; from 20 on in {20+4m}
                                  (Progression(2, 6), Progression(20, 4), Progression(1, 1),
                                   Progression(1, 3))):
        assert reference_transport(part, src, dst) == image
        with pytest.raises(ValueError, match=re.escape(f"branch {src} is not")):
            _families((part,), ((src, dst),), 0)
    # a domain from its class's least member, 4 in {4+4m}, is walked exactly
    assert transported(Progression(1, 1), Progression(4, 4), Progression(5, 3)) == \
        reference_transport(Progression(1, 1), Progression(4, 4), Progression(5, 3)) == \
        Progression(5, 3)


def test_sampling_lemma_examples():
    assert sampling_lemma_holds(2, 3, 3)
    assert sampling_lemma_holds(3, 2, 4)


def test_sampling_lemma_grid():
    from math import gcd

    for base in (2, 3):
        for power in range(1, 7):
            for period in range(1, 10):
                if gcd(period, base) != 1:
                    continue
                assert sampling_lemma_holds(base, power, period)


def test_forward_signature_examples():
    sig, modulus = signature_class("forward", 2, 2)
    assert sig.steps == (1, 4) and sig.truncated
    assert sig.recurrence_gap == modulus == 32

    sig, modulus = signature_class("forward", 1, 1)
    assert sig.steps == (2,) and not sig.truncated
    assert sig.recurrence_gap == modulus == 4

    sig, _ = signature_class("forward", 5, 3)
    assert sig.steps == (2, 1, 1) and not sig.truncated


def test_backward_signature_examples():
    sig, modulus = signature_class("backward", 7, 4)
    assert sig.steps == (1, 0, 0, 1) and not sig.truncated
    assert sig.recurrence_gap == modulus == 81

    sig, modulus = signature_class("backward", 10, 3)
    assert sig.steps == (1, 1, 2) and sig.truncated
    assert sig.recurrence_gap == modulus == 27

    sig, _ = signature_class("backward", 3, 1)
    assert sig.steps == (0,)


def test_signature_walks_match_the_chain_builder():
    # the shared walk, run either way, tags exactly the chain positions that
    # the independent builder lists between x and the chain's end or head
    for x in range(2, 3001):
        chain = chain_of(x)
        i = chain.index(x)
        fwd, _ = signature_class("forward", x, len(chain))
        assert fwd.steps == tuple(restriction_index(v) for v in chain[i:]), x
        assert fwd.steps[-1] >= 3 and fwd.truncated
        bwd, _ = signature_class("backward", x, len(chain))
        assert bwd.steps == tuple(v % 3 for v in reversed(chain[:i + 1])), x
        assert bwd.steps[-1] == 2 and bwd.truncated
    assert not Signature("forward", (1, 2)).truncated
    assert Signature("forward", (1, 4)).truncated


def test_first_recurrence_anchors():
    # x's first recurrence is x + M, M the modulus of its signature class
    for direction, x, n, found in (("forward", 2, 2, 34), ("forward", 1, 1, 5),
                                   ("backward", 7, 4, 88), ("backward", 3, 1, 6),
                                   ("backward", 10, 3, 37)):
        assert x + signature_class(direction, x, n)[1] == found, (direction, x, n)


def test_first_recurrence_forward_matches_prediction():
    for x, n in [(5, 3), (2, 4), (11, 2), (17, 3), (100, 5), (37, 1)]:
        sig, modulus = signature_class("forward", x, n)
        assert modulus == sig.recurrence_gap


def test_first_recurrence_backward_matches_prediction():
    for x, n in [(10, 3), (4, 4), (22, 5), (100, 6), (2, 3), (55, 2)]:
        sig, modulus = signature_class("backward", x, n)
        assert modulus == sig.recurrence_gap


def test_recurrent_position_really_shares_the_signature():
    for x, n in [(2, 2), (7, 4), (13, 3), (29, 4)]:
        for direction in ("forward", "backward"):
            sig, modulus = signature_class(direction, x, n)
            at, _ = signature_class(direction, x + modulus, len(sig.steps))
            assert at.steps == sig.steps, (direction, x, n)


def _recurrences_equal_the_scan(x_limit):
    for direction in ("forward", "backward"):
        for x in range(1, x_limit):
            for n in range(1, 8):
                sig, modulus = signature_class(direction, x, n)
                assert sig.steps == reference_signature(direction, x, n), (x, n)
                assert x + modulus == reference_first_recurrence(direction, x, n), (x, n)


def test_first_recurrences_equal_the_scan_of_every_candidate():
    _recurrences_equal_the_scan(300)


@pytest.mark.skipif(not os.environ.get("COLLATZ_STRINGS_LONG"),
                    reason="set COLLATZ_STRINGS_LONG=1 for the recurrence scan check to 5000")
def test_long_first_recurrences_equal_the_scan_of_every_candidate():
    _recurrences_equal_the_scan(5000)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, OverflowError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("direction", ["forward", "backward"])
@given(x=st.integers(0, 119).flatmap(lambda bits: st.integers(1 << bits, (2 << bits) - 1)),
       n=st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_signature_class_matches_the_position_walk(direction, x, n):
    # x up to 2^120 with up to 40 steps: the forward walk may leave the range
    walk = _outcome(signature_class, direction, x, n)
    tags = walk if isinstance(walk[0], type) else walk[0].steps
    assert tags == _outcome(reference_signature, direction, x, n)
    if isinstance(tags[0], type):
        return
    found = x + walk[1]
    if found > MAX_VALUE:  # the recurrence is past the working range, as predicted
        assert x + (2 ** sum(tags) if direction == "forward" else 3 ** len(tags)) > MAX_VALUE
        return
    assert reference_signature(direction, found, len(tags)) == tags
    if found - x <= 1 << 16:  # a scan that short is quick
        assert found == reference_first_recurrence(direction, x, n)


def test_first_recurrence_needs_no_room_beyond_it():
    # 2^128 - 11 is 1 mod 4 and 2^128 - 5 is 2 mod 3: each recurs at the
    # top of the working range, where no window of candidates past it fits.
    # One place further on, the recurrence leaves the range: the class walk
    # still ends, and the recurrence check refuses it (below)
    for direction, x, top, past in (("forward", 2 ** 128 - 11, 2 ** 128 - 7, MAX_VALUE - 2),
                                    ("backward", 2 ** 128 - 5, 2 ** 128 - 2, MAX_VALUE - 1)):
        assert x + signature_class(direction, x, 1)[1] == top
        assert past + signature_class(direction, past, 1)[1] > MAX_VALUE


def test_recurrence_check_refuses_a_recurrence_past_the_range():
    # MAX_VALUE - 2 is 1 mod 4 and MAX_VALUE - 1 is 2 mod 3: each class
    # walk ends, and its next member x + M lies past the working range
    for direction, x in (("forward", MAX_VALUE - 2), ("backward", MAX_VALUE - 1)):
        with pytest.raises(WidthExceededError,
                           match="^value exceeds the 128-bit working range$"):
            _check_recurrence(direction, x, 1, signature_class)


def test_signature_rejects_nonpositive_steps():
    for direction in ("forward", "backward"):
        with pytest.raises(ValueError):
            signature_class(direction, 2, 0)
