import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_strings import (
    Family,
    Progression,
    Signature,
    backward_signature,
    build_string_containing,
    first_recurrence_backward,
    first_recurrence_forward,
    forward_signature,
    intersect_residue,
    restriction_index,
    sampling_lemma_check,
)
from collatz_strings.family import branch_maps
from collatz_strings.progressions import evolve, transport
from collatz_strings.strings import BACKWARD_MAPS, FORWARD_MAPS

# the Family(1) branch maps, one (domain, image) pair per branch
EVEN, ODD = FORWARD_MAPS
DOWN, UP = BACKWARD_MAPS


def test_progression_validation_and_membership():
    p = Progression(5, 12)
    assert p.contains(5) and p.contains(29)
    assert not p.contains(6) and not p.contains(1)
    with pytest.raises(ValueError):
        Progression(0, 3)
    with pytest.raises(ValueError):
        Progression(1, 0)


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
    assert transport(Progression(2, 6), *EVEN) == Progression(3, 9)
    assert transport(Progression(5, 12), *ODD) == Progression(4, 9)
    assert transport(Progression(3, 12), *DOWN) == Progression(2, 8)
    assert transport(Progression(7, 12), *UP) == Progression(9, 16)


def test_branch_images_are_elementwise():
    from collatz_strings import inverse_lower_step, lower_step

    fwd = [(EVEN, Progression(4, 18)), (ODD, Progression(13, 36))]
    for branch, dom in fwd:
        img = transport(dom, *branch)
        for t in range(50):
            assert img.element(t) == lower_step(dom.element(t))
    back = [(DOWN, Progression(9, 48)), (UP, Progression(25, 48))]
    for branch, dom in back:
        img = transport(dom, *branch)
        for t in range(50):
            assert img.element(t) == inverse_lower_step(dom.element(t))


def test_branch_interval_transport():
    assert transport(Progression(2, 6), *EVEN).interval == 9  # 6 -> 3*6/2
    assert transport(Progression(1, 12), *ODD).interval == 9  # 12 -> 3*12/4
    assert transport(Progression(3, 9), *DOWN).interval == 6  # 9 -> 2*9/3
    assert transport(Progression(1, 9), *UP).interval == 12  # 9 -> 4*9/3


def test_branch_domain_preconditions_are_enforced():
    # a part with no member in the branch domain has no image ...
    assert transport(Progression(3, 6), *EVEN) is None  # odd positions only
    assert transport(Progression(3, 4), *ODD) is None  # 3 mod 4 only
    assert transport(Progression(2, 9), *UP) is None  # 2 mod 3 only
    # ... and evolution refuses such a part instead of dropping it
    with pytest.raises(ValueError):
        tuple(evolve((Progression(3, 6),), FORWARD_MAPS, 1))
    with pytest.raises(ValueError):
        tuple(evolve((Progression(2, 9),), BACKWARD_MAPS, 1))


def reference_evolve(seeds, maps, generation):
    """The breadth-first generation loop: every part of a generation at once."""
    if generation < 0:
        raise ValueError(f"generation must be >= 0, got {generation}")
    parts = tuple(seeds)
    for _ in range(generation):
        children = []
        for part in parts:
            for src, dst in maps:
                child = transport(part, src, dst)
                if child is None:
                    raise ValueError(f"part {part} misses branch {src}")
                children.append(child)
        parts = tuple(children)
    return parts


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
    # subtree the walk yields before it reaches the small one: equal parts,
    # or ValueError on both
    raised = 0
    for maps, first in ((FORWARD_MAPS, Progression(2, 3)),
                        (BACKWARD_MAPS, Progression(3, 4))):
        for a in range(1, 13):
            for b in range(1, 13):
                for seeds in ((Progression(a, b),), (first, Progression(a, b))):
                    for k in range(4):
                        try:
                            expected = reference_evolve(seeds, maps, k)
                        except ValueError:
                            raised += 1
                            with pytest.raises(ValueError, match="misses branch"):
                                tuple(evolve(seeds, maps, k))
                        else:
                            assert tuple(evolve(seeds, maps, k)) == expected
    assert raised
    with pytest.raises(ValueError):
        evolve((Progression(2, 3),), FORWARD_MAPS, -1)  # at the call, not the first part


def test_transport_skips_class_members_below_the_domain():
    # 4 is 0 mod 4 but not in {8+4m}; the first member of {1+t} there is 8
    assert transport(Progression(1, 1), Progression(8, 4), Progression(5, 3)) == \
        Progression(5, 3)
    # {2+6t} meets 0 mod 4 at 8, 20, 32, ...; only 20 on lie in {20+4m}
    assert transport(Progression(2, 6), Progression(20, 4), Progression(1, 1)) == \
        Progression(1, 3)


def test_sampling_lemma_examples():
    assert sampling_lemma_check(2, 3, 3).holds
    assert sampling_lemma_check(3, 2, 4).holds
    with pytest.raises(ValueError):
        sampling_lemma_check(2, 1, 2)  # period shares a factor with the base


def test_sampling_lemma_grid():
    from math import gcd

    for base in (2, 3):
        for power in range(1, 7):
            for period in range(1, 10):
                if gcd(period, base) != 1:
                    continue
                assert sampling_lemma_check(base, power, period).holds


def test_sampling_lemma_probe_too_short():
    with pytest.raises(ValueError):
        sampling_lemma_check(2, 3, 3, probe_len=10)


def test_forward_signature_examples():
    sig = forward_signature(2, 2)
    assert sig.steps == (1, 4) and sig.truncated
    assert sig.tags == ("even", "terminal[4]")
    assert sig.recurrence_gap == 32

    sig = forward_signature(1, 1)
    assert sig.steps == (2,) and not sig.truncated
    assert sig.recurrence_gap == 4

    sig = forward_signature(5, 3)
    assert sig.steps == (2, 1, 1) and not sig.truncated


def test_backward_signature_examples():
    sig = backward_signature(7, 4)
    assert sig.steps == (1, 0, 0, 1) and not sig.truncated
    assert sig.tags == ("up", "down", "down", "up")
    assert sig.recurrence_gap == 81

    sig = backward_signature(10, 3)
    assert sig.steps == (1, 1, 2) and sig.truncated
    assert sig.recurrence_gap == 27

    sig = backward_signature(3, 1)
    assert sig.steps == (0,)


def test_signature_walks_match_the_chain_builder():
    # the shared walk, run either way, tags exactly the chain positions that
    # the independent builder lists between x and the chain's end or head
    for x in range(2, 3001):
        chain = build_string_containing(x).elements
        i = chain.index(x)
        fwd = forward_signature(x, len(chain))
        assert fwd.steps == tuple(restriction_index(v) for v in chain[i:]), x
        assert fwd.steps[-1] >= 3 and fwd.truncated
        bwd = backward_signature(x, len(chain))
        assert bwd.steps == tuple(v % 3 for v in reversed(chain[:i + 1])), x
        assert bwd.steps[-1] == 2 and bwd.truncated
    assert not Signature("forward", (1, 2)).truncated
    assert Signature("forward", (1, 4)).truncated


def test_first_recurrence_anchors():
    assert first_recurrence_forward(2, 2) == 2 + 32 == 34
    assert first_recurrence_forward(1, 1) == 5
    assert first_recurrence_backward(7, 4) == 7 + 81 == 88
    assert first_recurrence_backward(3, 1) == 6
    assert first_recurrence_backward(10, 3) == 37


def test_first_recurrence_forward_matches_prediction():
    for x, n in [(5, 3), (2, 4), (11, 2), (17, 3), (100, 5), (37, 1)]:
        sig = forward_signature(x, n)
        assert first_recurrence_forward(x, n) == x + sig.recurrence_gap


def test_first_recurrence_backward_matches_prediction():
    for x, n in [(10, 3), (4, 4), (22, 5), (100, 6), (2, 3), (55, 2)]:
        sig = backward_signature(x, n)
        assert first_recurrence_backward(x, n) == x + sig.recurrence_gap


def test_recurrent_position_really_shares_the_signature():
    for x, n in [(2, 2), (7, 4), (13, 3), (29, 4)]:
        fwd = forward_signature(x, n)
        at = first_recurrence_forward(x, n)
        assert forward_signature(at, len(fwd.steps)).steps == fwd.steps
        bwd = backward_signature(x, n)
        at = first_recurrence_backward(x, n)
        assert backward_signature(at, len(bwd.steps)).steps == bwd.steps


def test_signature_rejects_nonpositive_steps():
    with pytest.raises(ValueError):
        forward_signature(2, 0)
    with pytest.raises(ValueError):
        backward_signature(2, 0)
