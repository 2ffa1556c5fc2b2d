import os
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import family_equivalent_n, family_evolve_forward, reference_case_audit

import collatz_strings.audits as audits_module
import collatz_strings.family as family_module
import collatz_strings.walks as walks_module
from collatz_strings import (
    CASE_SYSTEM_PARAMS,
    Family,
    NonpositiveImageError,
    audit_case_system,
    conjugate_step,
    family_step,
    find_cycles,
    higher_equivalent,
    inverse_lower_step,
    string_scan,
    two_to_one_audit,
)
from collatz_strings.core import DEFAULT_WALK_LIMIT, MAX_VALUE, WidthExceededError
from collatz_strings.audits import CaseRule, case_system
from collatz_strings.family import (PROCESSES, branch_maps, exceptional_positions,
                                    family_equivalent, lower_preimages)
from collatz_strings.progressions import Progression, evolve
from collatz_strings.walks import (OrphanRecord, _predecessor, _predecessor_table, backward_walk,
                                   forward_walk)


def test_family_validation():
    with pytest.raises(ValueError):
        Family(4)
    with pytest.raises(ValueError, match="^4x\\+q is -8; p=-21 has no equivalent of 1$"):
        family_equivalent(1, Family(-21))
    assert Family(-1).q == -2
    assert Family(1).q == -1
    assert Family(3).q == 0
    assert Family(37).q == 17


def test_family_is_a_value():
    for p in (4, 0, -2):
        with pytest.raises(ValueError, match=f"^family parameter must be odd, got {p}$"):
            Family(p)
    fam = Family(-3)
    assert repr(fam) == str(fam) == "Family(p=-3)"
    assert fam == Family(-3) == Family(p=-3) == (-3,)
    assert fam != Family(3)
    assert hash(fam) == hash(Family(-3))
    assert len({fam, Family(-3), Family(5)}) == 2
    for name in ("p", "q", "other"):
        with pytest.raises(AttributeError):
            setattr(fam, name, 5)
    assert fam.p == -3 and fam.q == -3


def test_trivial_loop_positions_are_fixed_points():
    for p in CASE_SYSTEM_PARAMS:
        fam = Family(p)
        x = fam.trivial_loop_position
        assert family_step(x, fam) == x, p


def test_family_step_examples():
    assert family_step(4, Family(7)) == 4
    assert family_step(5, Family(13)) == 3
    assert family_step(2, Family(1)) == 3


def test_family_step_nonpositive_guard():
    with pytest.raises(NonpositiveImageError):
        family_step(1, Family(-5))  # 3*1 - 5 < 1
    with pytest.raises(ValueError, match="^position must be >= 1, got 0$"):
        family_step(0, Family(5))
    x = MAX_VALUE // 6 + 1  # not a chain end for p=5, and its 3n+p leaves the range
    with pytest.raises(WidthExceededError):
        family_step(x, Family(5))
    with pytest.raises(WidthExceededError):
        list(forward_walk(Family(5), [(x, x)], 10, False))


def test_class_steps_raise_when_a_member_leaves_the_range():
    # forward, p=5: B-3 and B+1 (B = MAX_VALUE // 6) are a class mod 4 that
    # steps as one; 6(B+1)-3+5, the 3n+p of position B+1, leaves the range,
    # and the image of B+1 is a chain end, so no later step of B+1 sees it
    # (max_steps=1 stops the other members after one step)
    b = MAX_VALUE // 6
    with pytest.raises(WidthExceededError):
        list(forward_walk(Family(5), [(b - 3, b + 1)], 1, False))
    # backward, p=1: B and B+3 (B = MAX_VALUE // 8) are a class mod 3 whose
    # predecessors (4v-1)/3 the class step computes; 6x-3+1 of the
    # predecessor x of B+3 leaves the range, and the one-member walk from x
    # checks only the predecessors it computes itself
    b = MAX_VALUE // 8
    with pytest.raises(WidthExceededError):
        list(backward_walk(Family(1), [(b, b + 3)], 50))


def test_family_equivalent_examples():
    assert family_equivalent(5, Family(3)) == 20
    assert family_equivalent(1, Family(1)) == 3
    fam7 = Family(7)
    assert family_equivalent(1, fam7) == 6
    assert family_step(6, fam7) == family_step(1, fam7)
    with pytest.raises(ValueError, match="^position must be >= 1, got 0$"):
        family_equivalent(0, Family(5))


def test_family_equivalence_invariance():
    for p in CASE_SYSTEM_PARAMS:
        fam = Family(p)
        for x in range(1, 10 ** 4 + 1):
            assert family_step(family_equivalent(x, fam), fam) == family_step(x, fam)


def test_family_equivalence_invariance_deeper():
    for p in CASE_SYSTEM_PARAMS:
        fam = Family(p)
        for x in range(1, 401):
            fx = family_step(x, fam)
            v = x
            for _ in range(3):
                v = family_equivalent(v, fam)
                assert family_step(v, fam) == fx, (p, x)


def test_family_equivalent_n():
    fam = Family(1)
    assert family_equivalent_n(1, 2, fam) == 11
    assert family_equivalent_n(9, 0, fam) == 9
    for x in range(1, 51):
        for n in range(4):
            v = x
            for _ in range(n):
                v = higher_equivalent(v)
            assert family_equivalent_n(x, n, fam) == v


def test_p1_reduces_to_core_maps():
    fam = Family(1)
    for x in range(1, 5001):
        assert family_step(x, fam) == conjugate_step(x)
        assert family_equivalent(x, fam) == higher_equivalent(x)
        inv = inverse_lower_step(x)
        assert lower_preimages(x, fam) == (() if inv is None else (inv,))


def test_case_rule_tables_align_with_derived_branch_layout():
    # the progressive rules of every published system are exactly the two
    # derived lower branches with their images, and the one-off rules are
    # exactly the positions of the equivalent class too small to be
    # equivalents
    for p in CASE_SYSTEM_PARAMS:
        fam = Family(p)
        rules = case_system(p)
        progressive = {(r.domain_offset, r.domain_stride, r.image_offset, r.image_stride)
                       for r in rules if r.domain_stride}
        derived = {(dom.intercept, dom.interval, img.intercept, img.interval)
                   for dom, img in branch_maps(fam)}
        assert progressive == derived, p
        one_off = {r.domain_offset for r in rules if not r.domain_stride}
        assert one_off == set(exceptional_positions(fam)), p


def test_case_system_spot_values():
    # first instances of a few transcribed rules, recomputed longhand
    assert family_step(2, Family(13)) == 6
    assert family_step(3, Family(13)) == 4
    assert family_step(1, Family(13)) == 1
    assert family_step(8, Family(19)) == 1
    assert family_step(17, Family(37)) == 9
    assert family_step(10, Family(23)) == 3
    assert family_step(15, Family(33)) == 8
    assert family_step(1, Family(3)) == 2
    assert family_step(2, Family(3)) == 2


def test_audit_every_published_system():
    for p in CASE_SYSTEM_PARAMS:
        report = audit_case_system(Family(p), value_limit=2000, n_limit=4)
        assert report.mismatches == (), (p, report.mismatches[:3])
        assert report.checked > 0


def test_audit_detects_a_wrong_rule():
    from collatz_strings import CaseRule

    bad = (CaseRule(1, 2, 4, 3),)  # p=7 maps 1+2m to 3+3m, not 4+3m
    report = audit_case_system(Family(7), bad, value_limit=50, n_limit=1)
    assert report.mismatches


def _case_audit_outcome(audit, family, rules, value_limit, m_limit, n_limit):
    """The audit's report, or the type and message of the error it raised."""
    try:
        return audit(family, rules, value_limit=value_limit, m_limit=m_limit, n_limit=n_limit)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


_case_rules = st.lists(st.builds(CaseRule,
                                 st.integers(-2, 40), st.sampled_from((0, 1, 2, 3, 4, 8)),
                                 st.integers(-2, 40), st.sampled_from((0, 1, 3, 6))),
                       max_size=3)


@st.composite
def _case_audits(draw):
    """(p, rules): a published system with a few generated rules mixed in, or
    generated rules alone, for odd p in -41..41 (p <= -5 has nonpositive images)."""
    extra = draw(_case_rules)
    if draw(st.booleans()):
        p = draw(st.sampled_from(CASE_SYSTEM_PARAMS))
        rules = list(case_system(p))
        for rule in extra:
            rules.insert(draw(st.integers(0, len(rules))), rule)
        return p, tuple(rules)
    return draw(st.integers(-21, 20)) * 2 + 1, tuple(extra)


@settings(max_examples=400, deadline=None)
@given(_case_audits(), st.none() | st.integers(1, 400), st.none() | st.integers(0, 60),
       st.integers(0, 8))
@example((7, case_system(7)), 1, None, 0)  # a one-off rule above value_limit has no instance
@example((7, (CaseRule(0, 4, 1, 3),)), None, 1, 0)  # affine on its class, but from position 0
@example((7, (CaseRule(4, 2, 4, 1),)), None, 1, 0)  # 3n+p = 28 + 12m halves 2 times, then 3
@example((7, (CaseRule(1, 2, 3, 6),)), None, 1, 0)  # the image stride is 3, not 6
@example((-7, (CaseRule(1, 4, 0, 3),)), None, 1, 0)  # 3n+p = -4 + 24m: no image at m = 0
def test_case_audit_matches_reference(case, value_limit, m_limit, n_limit):
    # equal reports, mismatches in the same order, or the same error
    p, rules = case
    if value_limit is None and m_limit is None:
        m_limit = 5
    args = Family(p), rules, value_limit, m_limit, n_limit
    assert (_case_audit_outcome(audit_case_system, *args)
            == _case_audit_outcome(reference_case_audit, *args))


def test_case_audit_falls_back_where_the_step_is_not_affine():
    # on the stride-1 class 1 + m, 3n+p = 10 + 6m halves once at m = 0 but
    # more often at m = 1, so the affine image 3 + m of the first member's
    # halving holds there only
    rules = (CaseRule(1, 1, 3, 1),)
    report = audit_case_system(Family(7), rules, value_limit=4, n_limit=1)
    assert report == reference_case_audit(Family(7), rules, value_limit=4, m_limit=None, n_limit=1)
    assert report.checked == 8
    assert report.mismatches == ((2, 0, 4, 1), (2, 1, 4, 1), (3, 0, 5, 6), (3, 1, 5, 6),
                                 (4, 0, 6, 4), (4, 1, 6, 4))


def test_case_audit_proves_every_published_rule_on_its_class(monkeypatch):
    # a one-off rule is a class of one member; no instance is stepped
    steps = []
    monkeypatch.setattr(audits_module, "family_step",
                        lambda x, family: steps.append(x) or family_step(x, family))
    for p in CASE_SYSTEM_PARAMS:
        report = audit_case_system(Family(p), value_limit=10 ** 4, n_limit=4)
        assert steps == [] and report.mismatches == (), p


@pytest.mark.parametrize("p, a, n_limit", [(-(2 * MAX_VALUE + 7), 2 ** 127 + 1, 0),
                                           (11 - 6 * MAX_VALUE, MAX_VALUE - 1, 1)],
                         ids=["past-the-width-unneeded", "at-MAX_VALUE"])
def test_case_audit_proves_a_one_off_rule_at_the_edge_of_the_width(monkeypatch, p, a, n_limit):
    # the first rule's next equivalent is MAX_VALUE + 1, which n_limit 0 never
    # needs; the second's is MAX_VALUE itself, still in the width; no instance
    # is stepped
    steps = []
    monkeypatch.setattr(audits_module, "family_step",
                        lambda x, family: steps.append(x) or family_step(x, family))
    rule = CaseRule(a, 0, family_step(a, Family(p)), 0)
    report = audit_case_system(Family(p), (rule,), value_limit=a, n_limit=n_limit)
    assert steps == [] and report.mismatches == () and report.checked == n_limit + 1


def test_case_audit_falls_back_on_a_nonpositive_first_image():
    # p=-7 steps 2 + 2m to 1 + 3m, proved on its class; at position 1 of the
    # rule after it 3n+p is -4
    rules = (CaseRule(2, 2, 1, 3), CaseRule(1, 2, 1, 3))
    report = audit_case_system(Family(-7), rules[:1], value_limit=50, n_limit=2)
    assert report.checked == 25 * 3 and report.mismatches == ()
    for audit in (reference_case_audit, audit_case_system):
        with pytest.raises(NonpositiveImageError, match="^3n\\+p is -4 at position 1 for p=-7$"):
            audit(Family(-7), rules, value_limit=50, m_limit=None, n_limit=2)


def test_case_audit_falls_back_where_the_deepest_equivalent_leaves_the_width():
    # p=5 rule 2 + 2m -> 4 + 3m for m <= 3: at depth 62 the largest member's
    # 3n+p passes 2^128 while the smallest one's does not yet
    rules = case_system(5)[:1]
    report = audit_case_system(Family(5), rules, m_limit=3, n_limit=61)
    assert report == reference_case_audit(Family(5), rules, value_limit=None, m_limit=3,
                                          n_limit=61)
    assert report.checked == 4 * 62 and report.mismatches == ()
    assert 6 * family_equivalent_n(2, 62, Family(5)) + 2 <= MAX_VALUE
    for audit in (reference_case_audit, audit_case_system):
        with pytest.raises(WidthExceededError, match="^value exceeds the 128-bit working range$"):
            audit(Family(5), rules, value_limit=None, m_limit=3, n_limit=62)


def test_case_audit_falls_back_where_an_equivalent_leaves_the_width():
    # for p about -5.5 * 2^128, positions near 0.92 * 2^128 have 3n+p in
    # range, and so have their equivalents (3n+p grows 4-fold), but 4x+q
    # itself is past 2^128
    family = Family(-(11 * (MAX_VALUE // 2) | 1))
    a = (MAX_VALUE // 5 - family.p) // 6
    assert 6 * (a + 2) - 3 + family.p <= MAX_VALUE // 4 < MAX_VALUE < 4 * (a + 2) + family.q
    rules = (CaseRule(a, 2, family_step(a, family), 3),)
    report = audit_case_system(family, rules, m_limit=1, n_limit=0)
    assert report.checked == 2 and report.mismatches == ()
    for audit in (reference_case_audit, audit_case_system):
        with pytest.raises(WidthExceededError, match="^value exceeds the 128-bit working range$"):
            audit(family, rules, value_limit=None, m_limit=1, n_limit=1)


@pytest.mark.skipif(not os.environ.get("COLLATZ_STRINGS_LONG"),
                    reason="set COLLATZ_STRINGS_LONG=1 for the case audit oracle check at 10^5")
def test_long_case_audit_matches_reference():
    for p in CASE_SYSTEM_PARAMS:
        rules = case_system(p)
        assert (audit_case_system(Family(p), rules, value_limit=10 ** 5, n_limit=6)
                == reference_case_audit(Family(p), rules, value_limit=10 ** 5, m_limit=None,
                                        n_limit=6)), p


def test_unlisted_system_raises():
    with pytest.raises(KeyError):
        case_system(41)


def test_lower_preimages_counts():
    # at most one predecessor unless p is divisible by 3, then at most two
    for p in (1, 5, 7, -1, 13):
        fam = Family(p)
        for x in range(1, 500):
            assert len(lower_preimages(x, fam)) <= 1, (p, x)
    fam3 = Family(3)
    assert lower_preimages(2, fam3) == (1, 2)
    assert lower_preimages(5, fam3) == (3, 6)
    for x in range(1, 500):
        pre = lower_preimages(x, fam3)
        assert len(pre) in (0, 2), (x, pre)
        if len(pre) == 2:
            assert pre[1] == 2 * pre[0]


def test_lower_preimages_step_back():
    for p in (1, 3, 5, -1, 13):
        fam = Family(p)
        for x in range(1, 300):
            for pre in lower_preimages(x, fam):
                assert family_step(pre, fam) == x
                assert not fam.is_equivalent_position(pre)
    with pytest.raises(ValueError, match="^position must be >= 1, got 0$"):
        lower_preimages(0, Family(5))


def predecessor_rule(family):
    """x -> the sorted predecessors of x in closed form.  For p not divisible
    by 3, the backward walk's predecessor table; for 3 | p, where the scan
    walks no predecessors, one on each branch of branch_maps whose image
    holds x and the exceptional positions stepping to x."""
    if family.p % 3:
        table = _predecessor_table(family)
        return lambda x: tuple(v for v in [_predecessor(x, *table)] if v is not None)
    one_off = [(family_step(e, family), e) for e in exceptional_positions(family)]
    maps = branch_maps(family)
    return lambda x: tuple(sorted(
        [dom.element((x - img.intercept) // 3) for dom, img in maps
         if x >= img.intercept and (x - img.intercept) % 3 == 0]
        + [e for y, e in one_off if y == x]))


def outcome(fn, *args):
    """fn's result, or WidthExceededError when it raised one."""
    try:
        return fn(*args)
    except WidthExceededError:
        return WidthExceededError


@pytest.mark.parametrize("p", range(-41, 42, 2))
def test_predecessor_rule_matches_lower_preimages(p):
    family = Family(p)
    predecessors = predecessor_rule(family)
    for x in range(1, 20_001):
        assert predecessors(x) == lower_preimages(x, family), (p, x)
    if p % 3:  # near the top of the range, the table raises where the search does
        for top in (MAX_VALUE // 8, MAX_VALUE // 4):
            for x in range(top - 30, top + 30):
                assert outcome(predecessors, x) == outcome(lower_preimages, x, family), (p, x)


@given(p=st.integers(-20, 20).map(lambda k: 2 * k + 1), x=st.integers(1, 2 ** 100))
@settings(max_examples=300, deadline=None)
def test_predecessor_rule_matches_lower_preimages_on_large_positions(p, x):
    family = Family(p)
    assert predecessor_rule(family)(x) == lower_preimages(x, family)


@pytest.mark.parametrize("p", range(-41, -3, 2))
def test_branch_maps_of_strongly_negative_families(p):
    # each domain starts at its first member with an image: members below it
    # are rejected, members from it on step affinely onto the image
    family = Family(p)
    for domain, image in branch_maps(family):
        below = domain.intercept - domain.interval
        if below >= 1:
            with pytest.raises(NonpositiveImageError):
                family_step(below, family)
        for t in range(200):
            assert family_step(domain.element(t), family) == image.element(t), (p, t)


def test_branch_maps_refuses_a_step_that_is_not_affine_on_a_domain(monkeypatch):
    # p=5's first domain is 2+2t; a step that is off at its second member, 4
    monkeypatch.setattr(family_module, "family_step",
                        lambda x, family: family_step(x, family) + (x == 4))
    with pytest.raises(ValueError, match=r"^step is not affine on \{2\+2t\} \(p=5\)$"):
        branch_maps(Family(5))


def reference_cycles(family, seed_limit, max_steps):
    """find_cycles written out as one walk per seed."""
    found, truncated, rejected = set(), [], []
    for seed in range(1, seed_limit + 1):
        index, path, v = {}, [], seed
        while v >= seed:
            at = index.get(v)
            if at is not None:
                cycle = tuple(path[at:])
                pivot = cycle.index(min(cycle))
                found.add(cycle[pivot:] + cycle[:pivot])
                break
            index[v] = len(path)
            path.append(v)
            if len(path) > max_steps:
                truncated.append(seed)
                break
            try:
                v = family_step(v, family)
            except NonpositiveImageError:
                rejected.append(seed)
                break
    cycles = tuple(sorted(found, key=lambda c: (c[0], len(c), c)))
    return (family.p, seed_limit, cycles, tuple(truncated), tuple(rejected))


CYCLE_PARAMS = sorted(set(CASE_SYSTEM_PARAMS) | {-3, -11, -25, 39, 81})


@given(p=st.sampled_from(CYCLE_PARAMS), seed_limit=st.integers(1, 3000),
       max_steps=st.sampled_from([0, 1, 2, 3, 5, 8, DEFAULT_WALK_LIMIT]))
@settings(max_examples=60, deadline=None)
@example(p=5, seed_limit=3000, max_steps=0)  # classes truncate at s = 0
@example(p=9, seed_limit=3000, max_steps=0)
def test_find_cycles_matches_reference_walks(p, seed_limit, max_steps):
    family = Family(p)
    assert tuple(find_cycles(family, seed_limit, max_steps)) == \
        reference_cycles(family, seed_limit, max_steps)


def test_find_cycles_sees_a_cycle_close_inside_a_class():
    # p=-11 cycles 28 -> 39 -> 28; seed 28 closes it at its second step,
    # while it still shares a residue class with other seeds
    report = find_cycles(Family(-11), 50, max_steps=2)
    assert tuple(report) == reference_cycles(Family(-11), 50, 2)
    assert (28, 39) in report.cycles
    assert 28 not in report.truncated_seeds


@pytest.mark.skipif(not os.environ.get("COLLATZ_STRINGS_LONG"),
                    reason="set COLLATZ_STRINGS_LONG=1 for the cycles oracle check at 10^6")
def test_long_cycles_match_reference_walks():
    for p in CASE_SYSTEM_PARAMS:
        family = Family(p)
        assert tuple(find_cycles(family, 10 ** 6)) == \
            reference_cycles(family, 10 ** 6, DEFAULT_WALK_LIMIT), p


def test_find_cycles_keeps_a_cycle_once_however_many_seeds_reach_it(monkeypatch):
    # 500 seeds each reach a fresh copy of one 1 000-member cycle; folded as
    # they come, the search holds one copy at a time, not one per seed
    def walk(family, starts, max_steps, dip):
        for x in range(1, 501):
            yield x, "cycle", tuple(range(10 ** 6, 10 ** 6 + 1000))

    monkeypatch.setattr(walks_module, "forward_walk", walk)
    tracemalloc.start()
    try:
        report = find_cycles(Family(5), 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cycles == (tuple(range(10 ** 6, 10 ** 6 + 1000)),)
    assert peak < 2 * 2 ** 20


def test_find_cycles_p1_exactly_the_loop():
    report = find_cycles(Family(1), 1000)
    assert report.cycles == ((1,),)
    assert report.truncated_seeds == ()


def test_find_cycles_3n_minus_1():
    report = find_cycles(Family(-1), 1000)
    assert (3, 4) in report.cycles
    assert (1,) in report.cycles


def test_find_cycles_p5():
    report = find_cycles(Family(5), 1000)
    assert (1,) in report.cycles
    assert (3,) in report.cycles  # the built-in fixed point


def test_cycles_are_canonical_and_closed():
    for p in (1, -1, 5):
        fam = Family(p)
        for cycle in find_cycles(fam, 1000).cycles:
            assert cycle[0] == min(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert family_step(a, fam) == b


def test_two_to_one_examples():
    fam = Family(3)
    assert family_step(1, fam) == 2 and family_step(2, fam) == 2
    assert family_step(3, fam) == 5 and family_step(6, fam) == 5
    report = two_to_one_audit(10 ** 4)
    assert report.count_violations == report.pairing_violations == report.conflicts == ()


def list_two_to_one_audit(limit, step=None):
    """two_to_one_audit as a loop that steps every base-domain position in
    turn, by step or else by family_step, with one count and one first
    predecessor per image."""
    if step is None:
        family = Family(3)
        step = lambda x: family_module.family_step(x, family)  # noqa: E731
    counts = bytearray(limit + 1)
    first_seen = array("q", bytes(8 * (limit + 1)))
    pairing_bad = []
    for x in range(1, (4 * limit - 2) // 3 + 2):
        if x & 3 == 0:
            continue
        y = step(x)
        if y > limit:
            continue
        counts[y] += 1
        if counts[y] == 1:
            first_seen[y] = x
        elif counts[y] == 2 and x != 2 * first_seen[y]:
            pairing_bad.append((y, first_seen[y], x))
    count_bad = tuple((y, counts[y]) for y in range(1, limit + 1)
                      if counts[y] != (2 if y % 3 == 2 else 0))
    return count_bad, tuple(pairing_bad)


def test_two_to_one_matches_list_reference_at_small_limits():
    for limit in range(2, 401):
        assert two_to_one_audit(limit) == (limit, *list_two_to_one_audit(limit), ()), limit


@given(limit=st.integers(2, 30_000))
@settings(max_examples=25, deadline=None)
def test_two_to_one_matches_list_reference(limit):
    report = two_to_one_audit(limit)
    assert report == (limit, *list_two_to_one_audit(limit), ())


@pytest.mark.skipif(not os.environ.get("COLLATZ_STRINGS_LONG"),
                    reason="set COLLATZ_STRINGS_LONG=1 for the two-to-one oracle check at 10^7")
def test_long_two_to_one_matches_list_reference():
    report = two_to_one_audit(10 ** 7)
    assert report == (10 ** 7, *list_two_to_one_audit(10 ** 7), ())
    assert report.count_violations == report.pairing_violations == report.conflicts == ()


def table_step(maps):
    """The p=3 step as maps, (domain, image) branches, say it is."""
    def step(x):
        (image_value,) = [image.element((x - domain.intercept) // domain.interval)
                          for domain, image in maps if domain.contains(x)]
        return image_value
    return step


# Faulty branch tables of the p=3 step.  Each of the counted ones
# partitions the positions not divisible by 4 into classes with image
# interval 3, but some branch disagrees with family_step (which sends 1+2t
# to 2+3t and 2+4t to 2+3t): a wrong image intercept, a branch onto the
# wrong residue, a third branch from splitting 1+2t, a fourth from
# splitting it again, whose stride-8 domains reach x_max before their
# images reach the limit, and ORDER_SWAP.  The audit counts them as they
# stand.  The others break a premise of the count and are not counted.
ODD3, EVEN3 = audits_module.TWO_TO_ONE_MAPS
DISAGREES = "disagrees with family_step"
WRONG_INTERCEPT = (Progression(2, 4), Progression(5, 3))
WRONG_RESIDUE = (Progression(2, 4), Progression(1, 3))
SPLIT_LOW = (Progression(1, 4), Progression(2, 3))
SPLIT_HIGH = (Progression(3, 4), Progression(5, 3))
SPLIT_3 = (Progression(3, 8), Progression(5, 3))
SPLIT_7 = (Progression(7, 8), Progression(2, 3))
# 1+6t, 2+8t and 14+16t hit the images 38 to 47 that are 2 mod 3; the two
# least predecessors pair as (7, 14) at 38 and as (25, 50) at 47 but not
# between, so a stretch is not judged by its ends alone.  The other three
# branches hit no image below 100.
ORDER_SWAP = tuple((Progression(*domain), Progression(b, 3)) for domain, b in (
    ((1, 6), 35), ((3, 6), 100), ((5, 6), 100), ((2, 8), 29), ((6, 16), 100), ((14, 16), 38)))
COUNTED_TABLES = [
    ((ODD3, WRONG_INTERCEPT), ((*WRONG_INTERCEPT, DISAGREES),)),
    ((ODD3, WRONG_RESIDUE), ((*WRONG_RESIDUE, DISAGREES),)),
    ((SPLIT_LOW, SPLIT_HIGH, EVEN3), ((*SPLIT_LOW, DISAGREES), (*SPLIT_HIGH, DISAGREES))),
    ((SPLIT_LOW, SPLIT_3, SPLIT_7, EVEN3),
     ((*SPLIT_LOW, DISAGREES), (*SPLIT_3, DISAGREES), (*SPLIT_7, DISAGREES))),
    (ORDER_SWAP, tuple((*branch, DISAGREES) for branch in ORDER_SWAP)),
]
WIDE = (Progression(2, 4), Progression(2, 6))
FOURS = (Progression(8, 4), Progression(2, 3))  # agrees with family_step at 8 and 12, not 16
OVERLAP = (Progression(3, 4), Progression(5, 3))
LATE = (Progression(6, 4), Progression(5, 3))  # agrees with family_step
UNCOUNTED_TABLES = [
    ((ODD3, WIDE), ((*WIDE, DISAGREES), (*WIDE, "has an image interval other than 3"))),
    ((ODD3, EVEN3, FOURS), ((*FOURS, DISAGREES), (*FOURS, "reaches positions divisible by 4"))),
    ((ODD3, EVEN3, OVERLAP),
     ((*OVERLAP, DISAGREES), (*OVERLAP, "meets the domain of {1+2t}->{2+3t}"))),
    ((ODD3, LATE), ((*LATE, "starts above its least member 2"),)),
    ((ODD3,), ((None, None,
                "domains cover 1/2 of the positions, not the 3/4 that 4 does not divide"),)),
]


def test_two_to_one_violations_match_list_reference(monkeypatch):
    for table, conflicts in COUNTED_TABLES:
        monkeypatch.setattr(audits_module, "TWO_TO_ONE_MAPS", table)
        for limit in [*range(2, 151), 1000, 3001]:
            report = two_to_one_audit(limit)
            assert report.conflicts == conflicts
            assert (report.count_violations, report.pairing_violations) == \
                list_two_to_one_audit(limit, table_step(table)), (table, limit)
            assert report.count_violations or report.pairing_violations or report.conflicts


def test_two_to_one_reports_broken_premises_and_counts_nothing(monkeypatch):
    for table, conflicts in UNCOUNTED_TABLES:
        monkeypatch.setattr(audits_module, "TWO_TO_ONE_MAPS", table)
        report = two_to_one_audit(3000)
        assert report == (3000, (), (), conflicts)
        assert report.count_violations or report.pairing_violations or report.conflicts


def test_two_to_one_checks_the_table_against_family_step(monkeypatch):
    # the table stands, the step it was derived from does not
    step = audits_module.family_step
    monkeypatch.setattr(audits_module, "family_step", lambda x, family: step(x, family) + 3)
    report = two_to_one_audit(3000)
    assert report == (3000, (), (), ((*ODD3, DISAGREES), (*EVEN3, DISAGREES)))
    assert report.count_violations or report.pairing_violations or report.conflicts


def test_string_scan_p1_clean():
    report = string_scan(Family(1), 10 ** 4)
    assert report.orphans == ()
    assert report.scanned == 10 ** 4 - 1  # the fixed point is skipped


def test_string_scan_3n_minus_1_orphans():
    report = string_scan(Family(-1), 10 ** 4)
    assert 3 in {o.position for o in report.orphans}
    assert 4 in {o.position for o in report.orphans}
    cycle_orphans = {o.position: o for o in report.orphans if o.reason == "cycle"}
    assert cycle_orphans[3].cycle == (3, 4)


def test_string_scan_p5_orphans_include_the_loop():
    report = string_scan(Family(5), 10 ** 4)
    assert 1 in {o.position for o in report.orphans}
    assert 3 not in {o.position for o in report.orphans}  # trivial fixed point is skipped
    assert string_scan(Family(5), 3).scanned == 2  # and so at a limit equal to it


def _reference_walk(x, family, direction, max_len):
    """One walk of the scan, written out per direction as a reference."""
    index, path, v = {}, [], x
    while direction == "backward" or not family.is_equivalent_position(v):
        at = index.get(v)
        if at is not None:
            cycle = tuple(path[at:])
            pivot = cycle.index(min(cycle))
            return OrphanRecord(x, direction, "cycle", cycle[pivot:] + cycle[:pivot])
        index[v] = len(path)
        path.append(v)
        if len(path) > max_len:
            return OrphanRecord(x, direction, "truncated", None)
        if direction == "forward":
            try:
                v = family_step(v, family)
            except NonpositiveImageError:
                return OrphanRecord(x, direction, "rejected", None)
        else:
            predecessors = lower_preimages(v, family)
            if not predecessors:
                return None
            v = predecessors[0]
    return None


def reference_scan(family, limit, max_len):
    """Orphans of string_scan, one _reference_walk per start and direction."""
    expected = []
    for x in range(1, limit + 1):
        if x == family.trivial_loop_position:
            continue
        for direction in ("forward", "backward"):
            if direction == "backward" and family.p % 3 == 0:
                continue
            orphan = _reference_walk(x, family, direction, max_len)
            if orphan is not None:
                expected.append(orphan)
    return tuple(expected)


@pytest.mark.parametrize("p", sorted(set(CASE_SYSTEM_PARAMS) | {-5, -7, -9, -11, -13}))
def test_string_scan_matches_per_direction_reference(p):
    family = Family(p)
    for max_len in (0, 1, 2, 3, 4, 5):
        assert string_scan(family, 300, max_len=max_len).orphans == \
            reference_scan(family, 300, max_len)


def test_scan_counts_a_cycle_across_the_limit_once():
    # p=15 cycles 35 -> 56 -> 44 -> 35.  Start 21 memoizes 35; start 27 then
    # walks 27 -> 44 (above the limit) -> 35, four positions in all, and
    # closes the cycle within max_len=4 instead of truncating
    report = string_scan(Family(15), 40, max_len=4)
    assert report.orphans == reference_scan(Family(15), 40, 4)
    assert OrphanRecord(27, "forward", "cycle", (35, 56, 44)) in report.orphans


def test_scan_work_estimate_uses_the_scan_count(monkeypatch):
    # scan walks about 3.9e4 nodes at 10^6, 5x per decade: 5*10^10 needs
    # about 7.5e7 nodes, under the cap, and 10^11 about 1.2e8, over it.
    # The walk is replaced, so only the estimate runs.
    def walk(*args):
        raise LookupError("walked")

    monkeypatch.setattr(walks_module, "forward_walk", walk)
    with pytest.raises(LookupError, match="walked"):
        string_scan(Family(5), 5 * 10 ** 10)
    with pytest.raises(ValueError, match="class-tree nodes, above the cap"):
        string_scan(Family(5), 10 ** 11)


def test_scan_caps_the_exceptional_positions_of_p(monkeypatch):
    # the backward walk's table holds one entry per exceptional position,
    # about p/8 of them, counted without listing them.  With the cap at 2,
    # p = 19 (2 of them) scans; p = 23 (3) is refused before either walk;
    # p = 21 (3) is not, as 3 | 21 walks forward only, with no table
    monkeypatch.setattr(walks_module, "MAX_ONE_OFF", 2)
    for p, count in ((19, 2), (21, 3), (23, 3)):
        assert len(exceptional_positions(Family(p))) == count
    for p in (19, 21):
        assert string_scan(Family(p), 300).orphans == \
            reference_scan(Family(p), 300, DEFAULT_WALK_LIMIT)

    def walk(*args):
        raise LookupError("walked")

    monkeypatch.setattr(walks_module, "forward_walk", walk)
    with pytest.raises(ValueError, match=r"^p 23 has 3 exceptional positions, above the "
                                         r"backward scan's cap of 2e\+00$"):
        string_scan(Family(23), 300)


@given(p=st.sampled_from(sorted(set(CASE_SYSTEM_PARAMS) | {-5, -7, -9, -11, -13})),
       limit=st.integers(1, 3000),
       max_len=st.sampled_from([0, 1, 2, 3, 4, 5, DEFAULT_WALK_LIMIT]))
@settings(max_examples=40, deadline=None)
@example(p=5, limit=3000, max_len=0)  # classes truncate at s = 0
@example(p=9, limit=3000, max_len=0)
def test_memoized_scan_matches_reference_walks(p, limit, max_len):
    family = Family(p)
    assert string_scan(family, limit, max_len).orphans == reference_scan(family, limit, max_len)


@pytest.mark.skipif(not os.environ.get("COLLATZ_STRINGS_LONG"),
                    reason="set COLLATZ_STRINGS_LONG=1 for the scan oracle check at 10^5")
def test_long_scan_matches_reference_walks():
    for p in CASE_SYSTEM_PARAMS:
        family = Family(p)
        assert string_scan(family, 10 ** 5).orphans == \
            reference_scan(family, 10 ** 5, DEFAULT_WALK_LIMIT), p


def test_shift_by_six_realigns_families():
    # 3n+p at position x+1 equals 3n+(p+6) at position x
    for p in (-1, 1, 3, 5, 7, 13, 19, 25, 31):
        fam, fam6 = Family(p), Family(p + 6)
        for x in range(1, 801):
            assert family_step(x, fam6) == family_step(x + 1, fam), (p, x)


# "maps to" columns of the three published family tables, rows 1..10
TABLE_P1 = (1, 3, 1, 6, 4, 9, 3, 12, 7, 15)
TABLE_PM1 = (1, 1, 4, 3, 7, 1, 10, 6, 13, 4)
TABLE_P3 = (2, 2, 5, 2, 8, 5, 11, 2, 14, 8)


@pytest.mark.parametrize("base,column", [(1, TABLE_P1), (-1, TABLE_PM1), (3, TABLE_P3)])
def test_published_tables_regenerate(base, column):
    fam = Family(base)
    got = tuple(family_step(r, fam) for r in range(1, 11))
    assert got == column
    # each column of the table is the base column shifted by one row per
    # +6 in the parameter; cells with nonpositive entries are skipped
    for shift in range(1, 7):
        fam_s = Family(base + 6 * shift)
        for row in range(1, 11):
            cell = row - shift
            if cell >= 1:
                assert family_step(cell, fam_s) == column[row - 1], (base, shift, row)


@pytest.mark.parametrize("p", [-1, 1, 3])
def test_family_evolution_children_are_elementwise_step_images(p):
    # every child is the step image, member by member, of its parent's
    # members inside the child's branch
    fam = Family(p)
    maps = branch_maps(fam)
    for k in range(8):
        parents = family_evolve_forward(fam, k)
        children = family_evolve_forward(fam, k + 1)
        if p == 1:  # the p=1 process is this one
            assert tuple(evolve(*PROCESSES["forward"], k + 1)) == children
        assert len(children) == len(maps) * len(parents)
        for i, child in enumerate(children):
            parent = parents[i // len(maps)]
            domain, _ = maps[i % len(maps)]
            inside = [v for t in range(40 * domain.interval)
                      if domain.contains(v := parent.element(t))][:5]
            assert len(inside) == 5, (p, k, i)
            assert [child.element(t) for t in range(5)] == \
                [family_step(v, fam) for v in inside], (p, k, i)


def test_exceptional_positions_examples():
    assert exceptional_positions(Family(1)) == ()
    assert exceptional_positions(Family(-1)) == ()
    assert exceptional_positions(Family(3)) == ()
    assert exceptional_positions(Family(13)) == (1, 5)
    assert exceptional_positions(Family(37)) == (1, 5, 9, 13, 17)


def test_audit_rejects_a_descending_rule():
    # value_limit bounds a rule from above, so only a rising one is bounded by it
    with pytest.raises(ValueError, match="^domain stride must be >= 0, got -2$"):
        audit_case_system(Family(7), (CaseRule(9, -2, 15, -3),), value_limit=100, n_limit=0)


def test_audit_needs_a_bound():
    with pytest.raises(ValueError, match="^need value_limit or m_limit$"):
        audit_case_system(Family(5), n_limit=1)


def test_audit_accepts_index_bound():
    report = audit_case_system(Family(7), m_limit=1000, n_limit=2)
    assert report.mismatches == ()
    # both bounds together: the tighter one wins per rule
    small = audit_case_system(Family(7), value_limit=100, m_limit=3, n_limit=0)
    assert small.checked == 4 + 4 + 1  # two progressive rules (m<=3) + one-off


def test_string_scan_survives_strongly_negative_families():
    # positions whose step would go nonpositive are findings, not crashes
    report = string_scan(Family(-5), 300)
    assert report.orphans
    assert 1 in {o.position for o in report.orphans}


@pytest.mark.parametrize("p,limit,rejected", [
    (-3, 6, [1]),            # 3*1-3 = 0; 3 and 6 still report their cycles
    (-9, 4, [1, 2, 3, 4]),   # 2: 3*3-9 = 0, and 3 and 4 step to 2
    (-11, 4, [1, 2, 3, 4]),  # 1 and 2 have no image; 3 and 4 walk to 1
    (-19, 4, [1, 2, 3, 4]),  # 1, 2 and 3 have no image; 4 steps to 1
])
def test_scan_rejects_positions_equivalent_only_to_themselves(p, limit, rejected):
    # each rejected position below lies in the class q mod 4 at or above q+4,
    # but its own 3n+p is below 1, so it ends no chain and is walked forward
    family = Family(p)
    report = string_scan(family, limit)
    assert [o for o in report.orphans if o.reason == "rejected"] == [
        OrphanRecord(x, "forward", "rejected", None) for x in rejected]
    assert report.orphans == reference_scan(family, limit, DEFAULT_WALK_LIMIT)
