import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collatz_strings.family as family_module
from collatz_strings import (
    CASE_SYSTEM_PARAMS,
    DEFAULT_WALK_LIMIT,
    Family,
    NonpositiveImageError,
    audit_case_system,
    case_system,
    conjugate_step,
    exceptional_positions,
    family_equivalent,
    family_equivalent_n,
    family_step,
    find_cycles,
    family_evolve_forward,
    higher_equivalent,
    inverse_lower_step,
    lower_preimages,
    string_scan,
    two_to_one_audit,
)
from collatz_strings.family import OrphanRecord, branch_maps, predecessor_rule
from collatz_strings.progressions import evolve
from collatz_strings.strings import PROCESSES


def test_family_validation():
    with pytest.raises(ValueError):
        Family(4)
    assert Family(-1).q == -2
    assert Family(1).q == -1
    assert Family(3).q == 0
    assert Family(37).q == 17


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


def test_family_equivalent_examples():
    assert family_equivalent(5, Family(3)) == 20
    assert family_equivalent(1, Family(1)) == 3
    fam7 = Family(7)
    assert family_equivalent(1, fam7) == 6
    assert family_step(6, fam7) == family_step(1, fam7)


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
    for x in (0, -7):
        for n in (0, 1):
            with pytest.raises(ValueError):
                family_equivalent_n(x, n, fam)


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
        assert report.ok, (p, report.mismatches[:3])
        assert report.checked > 0


def test_audit_detects_a_wrong_rule():
    from collatz_strings import CaseRule

    bad = (CaseRule(1, 2, 4, 3),)  # p=7 maps 1+2m to 3+3m, not 4+3m
    report = audit_case_system(Family(7), bad, value_limit=50, n_limit=1)
    assert not report.ok


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


@pytest.mark.parametrize("p", range(-41, 42, 2))
def test_predecessor_rule_matches_lower_preimages(p):
    family = Family(p)
    predecessors = predecessor_rule(family)
    for x in range(1, 20_001):
        assert predecessors(x) == lower_preimages(x, family), (p, x)


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
    with pytest.raises(ValueError):
        family_evolve_forward(family, 1)


def test_find_cycles_p1_exactly_the_loop():
    report = find_cycles(Family(1), 1000)
    assert report.cycle_set == {(1,)}
    assert report.truncated_seeds == ()


def test_find_cycles_3n_minus_1():
    report = find_cycles(Family(-1), 1000)
    assert (3, 4) in report.cycle_set
    assert (1,) in report.cycle_set


def test_find_cycles_p5():
    report = find_cycles(Family(5), 1000)
    assert (1,) in report.cycle_set
    assert (3,) in report.cycle_set  # the built-in fixed point


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
    assert report.ok


def list_two_to_one_audit(limit):
    """two_to_one_audit as it was with a list of counts and a dict of first hits."""
    family = Family(3)
    counts = [0] * (limit + 1)
    first_seen, pairing_bad = {}, []
    for x in range(1, (4 * limit - 2) // 3 + 2):
        if x & 3 == 0:
            continue
        y = family_module.family_step(x, family)
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


def test_two_to_one_violations_match_list_reference(monkeypatch):
    # 7 -> 5 (not 11) gives image 5 a third hit; 9 -> 11 (not 14) leaves
    # image 14 a single hit and pairs 11's predecessors as (9, 14); every x
    # in [1001, 1600] sent to 29 hits it about 450 times, past what one
    # byte counts
    step = family_module.family_step

    def faulty(x, family):
        if 1000 < x <= 1600:
            return 29
        return {7: 5, 9: 11}.get(x) or step(x, family)

    monkeypatch.setattr(family_module, "family_step", faulty)
    report = two_to_one_audit(3000)
    expected = list_two_to_one_audit(3000)
    assert (report.count_violations, report.pairing_violations) == expected
    counts = dict(expected[0])
    assert counts[5] == 3 and counts[14] == 1 and counts[29] > 255
    assert (11, 9, 14) in expected[1]


def test_string_scan_p1_clean():
    report = string_scan(Family(1), 10 ** 4)
    assert report.ok
    assert report.scanned == 10 ** 4 - 1  # the fixed point is skipped


def test_string_scan_3n_minus_1_orphans():
    report = string_scan(Family(-1), 10 ** 4)
    assert 3 in report.orphan_positions
    assert 4 in report.orphan_positions
    cycle_orphans = {o.position: o for o in report.orphans if o.reason == "cycle"}
    assert cycle_orphans[3].cycle == (3, 4)


def test_string_scan_p5_orphans_include_the_loop():
    report = string_scan(Family(5), 10 ** 4)
    assert 1 in report.orphan_positions
    assert 3 not in report.orphan_positions  # trivial fixed point is skipped


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


@given(p=st.sampled_from(sorted(set(CASE_SYSTEM_PARAMS) | {-5, -7, -9, -11, -13})),
       limit=st.integers(1, 3000),
       max_len=st.sampled_from([0, 1, 2, 3, 4, 5, DEFAULT_WALK_LIMIT]))
@settings(max_examples=40, deadline=None)
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


def test_family_evolution_rejects_families_with_exceptional_positions():
    with pytest.raises(ValueError):
        family_evolve_forward(Family(5), 1)
    # p=3 has none: both head classes evolve
    parts = family_evolve_forward(Family(3), 1)
    assert len(parts) == 4


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


def test_audit_accepts_index_bound():
    report = audit_case_system(Family(7), m_limit=1000, n_limit=2)
    assert report.ok
    # both bounds together: the tighter one wins per rule
    small = audit_case_system(Family(7), value_limit=100, m_limit=3, n_limit=0)
    assert small.checked == 4 + 4 + 1  # two progressive rules (m<=3) + one-off


def test_string_scan_survives_strongly_negative_families():
    # positions whose step would go nonpositive are findings, not crashes
    report = string_scan(Family(-5), 300)
    assert not report.ok
    assert 1 in report.orphan_positions


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
