import json
import os
import time
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collatz_strings.strings as strings_module
from collatz_strings import (
    DEFAULT_WALK_LIMIT,
    MAX_VALUE,
    Family,
    Progression,
    SweepReport,
    WidthExceededError,
    build_string_containing,
    coverage_count,
    expected_coverage,
    family_evolve_forward,
    inverse_lower_step,
    lower_step,
    partition_audit,
    passage_sweep,
    trajectory_report,
)
from collatz_strings.progressions import evolve, transport
from collatz_strings.strings import (
    BACKWARD_MAPS,
    FORWARD_MAPS,
    PROCESSES,
    _sweep_range,
    audit_part,
    interval_weight,
)


def generation(direction, k):
    return tuple(evolve(*PROCESSES[direction], k))


def parts_of(direction, k):
    return [(p.intercept, p.interval) for p in generation(direction, k)]


def test_forward_generations_match_published_displays():
    assert parts_of("forward", 0) == [(2, 3)]
    assert parts_of("forward", 1) == [(3, 9), (4, 9)]
    assert parts_of("forward", 2) == [(18, 27), (16, 27), (6, 27), (10, 27)]


def test_backward_generations_match_published_displays():
    assert parts_of("backward", 0) == [(3, 4)]
    assert parts_of("backward", 1) == [(2, 8), (9, 16)]
    assert parts_of("backward", 2) == [(12, 16), (13, 32), (6, 32), (33, 64)]


def test_forward_structure_through_generation_12():
    for k in range(13):
        parts = generation("forward", k)
        assert len(parts) == 2 ** k
        assert all(p.interval == 3 ** (k + 1) for p in parts)


def test_backward_structure_through_generation_12():
    for k in range(13):
        parts = generation("backward", k)
        assert len(parts) == 2 ** k
        assert interval_weight(parts) == Fraction(3 ** k, 4 ** (k + 1))


def test_generations_are_pairwise_disjoint():
    # exhaustive below the largest interval, both within and across generations
    for kmax, direction, bound in ((6, "forward", 3 ** 7), (5, "backward", 4 ** 6)):
        owner = {}
        for k in range(kmax + 1):
            for i, part in enumerate(generation(direction, k)):
                for x in range(part.intercept, bound, part.interval):
                    assert x not in owner, (x, owner[x], (k, i))
                    owner[x] = (k, i)


def test_membership_equals_walk_depth():
    # x sits in forward generation k iff exactly k inverse steps reach a head;
    # x sits in backward generation k iff exactly k forward steps reach an end
    fwd = [generation("forward", k) for k in range(8)]
    bwd = [generation("backward", k) for k in range(8)]

    def head_depth(x):
        d = 0
        while x % 3 != 2:
            x = inverse_lower_step(x)
            d += 1
            if d > 60:
                return None
        return d

    def end_depth(x):
        d = 0
        while x % 4 != 3:
            x = lower_step(x)
            d += 1
            if d > 60:
                return None
        return d

    for x in range(2, 10001):
        hd = head_depth(x)
        for k in range(8):
            assert any(p.contains(x) for p in fwd[k]) == (hd == k), (x, k)
        ed = end_depth(x)
        for k in range(8):
            assert any(p.contains(x) for p in bwd[k]) == (ed == k), (x, k)


def audit_ok(direction, k):
    return all(audit_part(direction, p) == (False, []) for p in generation(direction, k))


def test_intercept_audit_first_generations():
    assert audit_ok("forward", 1)
    assert audit_ok("backward", 1)
    assert audit_ok("forward", 2)


def test_intercept_audit_all_generations():
    for k in range(13):
        assert audit_ok("forward", k), k
        assert audit_ok("backward", k), k


def test_intercept_audit_flags_violations():
    bad, _ = audit_part("forward", Progression(12, 9))
    assert bad


def reference_audit_part(direction, part):
    """The intercept audit of one part, through a transport per branch."""
    forward = direction == "forward"
    maps = FORWARD_MAPS if forward else BACKWARD_MAPS
    a, b = part.intercept, part.interval
    over = []
    for child in (transport(part, src, dst) for src, dst in maps):
        if forward:
            bad = 4 * (child.intercept - 1) > 3 * (a + 3 * b - 1)
        else:
            bad = 3 * (child.intercept - 1) > 4 * (a + 2 * b - 1)
        if bad:
            over.append(child)
    return a >= b, over


def test_intercept_audit_matches_reference_on_crafted_states():
    # every part with intercept < 80 and interval < 13 that meets both branch
    # domains, many with intercept >= interval; forward, some children break
    # the bound (backward children of such parts never do)
    for direction, maps in (("forward", FORWARD_MAPS), ("backward", BACKWARD_MAPS)):
        parts = tuple(Progression(a, b) for a in range(1, 80) for b in range(1, 13)
                      if all(transport(Progression(a, b), *m) for m in maps))
        results = [audit_part(direction, part) for part in parts]
        assert results == [reference_audit_part(direction, part) for part in parts]
        assert any(bad for bad, _ in results)
        assert any(over for _, over in results) == (direction == "forward")
        for k in range(8):
            for part in generation(direction, k):
                assert audit_part(direction, part) == reference_audit_part(direction, part)


def test_coverage_published_counts():
    cc = coverage_count("forward", 3)
    assert (cc.included, cc.open_count) == (19, 8)
    cc = coverage_count("backward", 2)
    assert (cc.included, cc.open_count) == (7, 9)
    cc = coverage_count("backward", 3)
    assert (cc.included, cc.open_count) == (37, 27)


def test_coverage_matches_closed_form():
    import random

    rng = random.Random(7)
    for direction, mmax in (("forward", 7), ("backward", 6)):
        for m in range(1, mmax + 1):
            expected = expected_coverage(direction, m)
            starts = [2] + [rng.randint(2, 10 ** 6) for _ in range(8)]
            for ws in starts:
                cc = coverage_count(direction, m, ws)
                assert (cc.included, cc.open_count) == expected, (direction, m, ws)


def test_coverage_window_start_independent_exhaustively():
    for direction, m, window in (("forward", 2, 9), ("forward", 3, 27), ("backward", 2, 16)):
        expected = expected_coverage(direction, m)
        for ws in range(2, 2 + window):
            cc = coverage_count(direction, m, ws)
            assert (cc.included, cc.open_count) == expected, (direction, m, ws)


def test_coverage_rejects_bad_windows():
    with pytest.raises(ValueError):
        coverage_count("forward", 0)
    with pytest.raises(ValueError):
        coverage_count("forward", 2, window_start=1)
    with pytest.raises(ValueError):
        coverage_count("sideways", 2)
    with pytest.raises(ValueError):
        expected_coverage("sideways", 2)


def test_coverage_memory_stays_near_one_byte_per_position():
    # the 4^10-position window is 1 MiB of marks; a set of its ~10^6 covered
    # members needs tens of MiB
    tracemalloc.start()
    try:
        cc = coverage_count("backward", 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (cc.included, cc.open_count) == expected_coverage("backward", 10)
    assert peak < 8 * 2 ** 20


def test_worked_strings():
    assert build_string_containing(6).elements == (5, 4, 6, 9, 7)
    assert build_string_containing(12).elements == (8, 12, 18, 27)
    assert build_string_containing(17).elements == (17, 13, 10, 15)


def test_singleton_string():
    record = build_string_containing(11)
    assert record.elements == (11,)
    assert record.head == record.tail == 11


def test_string_record_structure():
    for x in (2, 6, 12, 17, 100, 731):
        record = build_string_containing(x)
        assert record.complete
        assert record.elements[0] == record.head and record.elements[-1] == record.tail
        assert record.head % 3 == 2
        assert record.tail % 4 == 3
        assert x in record.elements
        for a, b in zip(record.elements, record.elements[1:]):
            assert lower_step(a) == b
        for interior in record.elements[:-1]:
            assert interior % 4 != 3


def test_string_excludes_the_fixed_point():
    with pytest.raises(ValueError):
        build_string_containing(1)


def test_string_truncation_is_reported():
    record = build_string_containing(64, max_len=1)
    assert not record.complete
    assert record.truncated_forward or record.truncated_backward


def test_partition_covers_small_range_exactly_once():
    report = partition_audit(27)
    assert report.ok
    owner = {}
    for x in range(2, 28):
        record = build_string_containing(x)
        for e in record.elements:
            if e in owner:
                assert owner[e] == record.head
            owner[e] = record.head
    assert set(range(2, 28)) <= set(owner)


def test_partition_audit_clean_at_10k():
    report = partition_audit(10 ** 4)
    assert report.ok
    assert report.positions_checked == 10 ** 4 - 1
    assert report.string_count > 2000


def test_partition_audit_memory_holds_one_head_set():
    # the report keeps the set of heads it built, not a second frozenset copy
    tracemalloc.start()
    try:
        report = partition_audit(200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 17 * 2 ** 20


def reference_partition_audit(limit, max_len):
    """Per-position partition audit: rebuilds the whole chain from every position."""
    head_of, truncated, conflicts, heads, longest = {}, [], [], set(), 0
    for x in range(2, limit + 1):
        v = x
        steps = 0
        while v % 3 != 2:
            v = inverse_lower_step(v)
            steps += 1
            if steps > max_len:
                truncated.append((x, "backward"))
                break
        else:
            head = v
            heads.add(head)
            chain = [head]
            while v & 3 != 3:
                v = lower_step(v)
                chain.append(v)
                if len(chain) > max_len:
                    truncated.append((x, "forward"))
                    break
            else:
                longest = max(longest, len(chain))
                for element in chain:
                    seen = head_of.get(element)
                    if seen is None:
                        head_of[element] = head
                    elif seen != head:
                        conflicts.append((element, seen, head))
    return frozenset(heads), tuple(truncated), tuple(conflicts), longest


@pytest.mark.parametrize("limit", [2, 700, 1000, 3000])
@pytest.mark.parametrize("max_len", [0, 1, 2, 3, 5, 20, None])
def test_partition_audit_matches_per_position_reference(max_len, limit):
    walk = DEFAULT_WALK_LIMIT if max_len is None else max_len
    report = (partition_audit(limit) if max_len is None
              else partition_audit(limit, max_len=max_len))
    got = (report.heads, report.truncated, report.conflicts, report.longest_chain)
    assert got == reference_partition_audit(limit, walk)
    assert report.positions_checked == limit - 1


def dict_partition_audit(limit, max_len):
    """partition_audit as it was with a head_of dict over every element."""
    head_of, truncated, conflicts, heads, longest = {}, [], [], set(), 0
    for x in range(2, limit + 1):
        if x in head_of:
            continue
        record = build_string_containing(x, max_len)
        if record.truncated_backward:
            truncated.append((x, "backward"))
            continue
        heads.add(record.head)
        if record.truncated_forward:
            truncated.append((x, "forward"))
            continue
        longest = max(longest, record.length)
        for element in record.elements:
            seen = head_of.get(element)
            if seen is None:
                head_of[element] = record.head
            elif seen != record.head:
                conflicts.append((element, seen, record.head))
    return frozenset(heads), tuple(truncated), tuple(conflicts), longest


# Faulty steps that join chains.  30 -> 49 lets the chain of head 20 mark the
# chain of head 65 first, so 49's first head is 20, not the head it walks back
# to.  1653 -> 2184 sends the chain of head 1469 into the chain of head 1022,
# which runs above the limit (3276, 4914, 7371).
CHAIN_JOINS = {30: 49, 1653: 2184}


@pytest.mark.parametrize("max_len", [5, 20, None])
def test_partition_audit_conflicts_match_dict_reference(monkeypatch, max_len):
    step = strings_module.lower_step
    monkeypatch.setattr(strings_module, "lower_step",
                        lambda v: CHAIN_JOINS.get(v) or step(v))
    walk = DEFAULT_WALK_LIMIT if max_len is None else max_len
    expected = dict_partition_audit(3000, walk)
    report = partition_audit(3000, walk)
    assert (report.heads, report.truncated, report.conflicts,
            report.longest_chain) == expected
    if max_len is None:
        conflicts = expected[2]
        assert (49, 20, 65) in conflicts
        assert (2184, 1022, 1469) in conflicts
        assert any(element > 3000 for element, _, _ in conflicts)


def test_partition_audit_many_conflicts_stay_linear(monkeypatch):
    # every position 30 mod 50 joins the chain 49 -> 37 -> 28 -> 42 -> 63, so
    # thousands of conflicts fall in range; each must cost one lookup
    step = strings_module.lower_step
    monkeypatch.setattr(strings_module, "lower_step",
                        lambda v: 49 if v % 50 == 30 else step(v))
    expected = dict_partition_audit(20_000, DEFAULT_WALK_LIMIT)
    started = time.perf_counter()
    report = partition_audit(20_000)
    elapsed = time.perf_counter() - started
    assert (report.heads, report.truncated, report.conflicts,
            report.longest_chain) == expected
    assert len(report.conflicts) > 1000
    assert elapsed < 5.0


def test_three_n_minus_one_contrast():
    # under the 3n-1 analogue the first generation is {6+9t} u {7+9t}, and
    # positions 3 and 4 never enter any generation: they form a cycle instead
    parts1 = family_evolve_forward(Family(-1), 1)
    assert sorted((p.intercept, p.interval) for p in parts1) == [(6, 9), (7, 9)]
    for k in range(9):
        parts = family_evolve_forward(Family(-1), k)
        assert not any(p.contains(3) or p.contains(4) for p in parts), k
    # the p=1 process reaches both within two generations
    assert any(p.contains(3) for p in generation("forward", 1))
    assert any(p.contains(4) for p in generation("forward", 1))


def test_passage_sweep_small_range():
    report = passage_sweep(2, 10 ** 4)
    assert report.complete
    assert report.hits == report.processed == 10 ** 4 - 1
    assert report.truncated == ()
    assert report.max_steps_observed > 0


def _trajectory_sweep(lo, hi, max_steps):
    """(hits, total_steps, max, argmax, truncated) of [lo, hi] by trajectory_report."""
    hits = total = top = 0
    argmax, truncated = lo, []
    for x in range(lo, hi + 1):
        steps = trajectory_report(x, max_steps).steps_to_first_3mod4
        if steps is None:
            truncated.append(x)
            continue
        hits += 1
        total += steps
        if steps > top:
            top, argmax = steps, x
    return hits, total, top, argmax, tuple(truncated)


def test_passage_sweep_agrees_with_trajectory_report():
    report = passage_sweep(2, 500)
    total = 0
    for x in range(2, 501):
        tr = trajectory_report(x)
        assert tr.hit_3mod4
        total += tr.steps_to_first_3mod4
    assert report.total_steps == total
    assert trajectory_report(2).steps_to_first_3mod4 == 1
    # seeded windows near the long-mode bound, where trajectories are long
    import random

    rng = random.Random(15)
    for lo in [rng.randint(140_000_000, 160_000_000) for _ in range(3)]:
        for max_steps in (3, DEFAULT_WALK_LIMIT):
            r = passage_sweep(lo, lo + 300, max_steps=max_steps)
            got = (r.hits, r.total_steps, r.max_steps_observed, r.argmax_position,
                   r.truncated)
            assert got == _trajectory_sweep(lo, lo + 300, max_steps), (lo, max_steps)


def reference_sweep(lo, hi, max_steps):
    """Position-by-position reference for _sweep_range: each position of
    [lo, hi] in increasing order, with trajectory_report's step arithmetic."""
    hits = 0
    truncated = []
    total_steps = 0
    max_seen = 0
    argmax = lo
    for x in range(lo, hi + 1):
        v = x
        steps = 0
        while v & 3 != 3:
            if steps >= max_steps:
                steps = -1
                break
            t = 6 * v - 2
            if t > MAX_VALUE:
                raise WidthExceededError(f"trajectory of {x} left the working range")
            j = (t & -t).bit_length() - 1
            v = ((t >> j) + 1) >> 1
            steps += 1
        if steps < 0:
            truncated.append(x)
        else:
            hits += 1
            total_steps += steps
            if steps > max_seen:
                max_seen = steps
                argmax = x
    return SweepReport(
        lo=lo, hi=hi, max_steps=max_steps, processed=hi - lo + 1,
        hits=hits, truncated=tuple(truncated), total_steps=total_steps,
        max_steps_observed=max_seen, argmax_position=argmax, next_position=hi + 1,
    )


def _sweep_outcome(sweep, lo, hi, max_steps):
    try:
        return sweep(lo, hi, max_steps)
    except WidthExceededError as exc:
        return str(exc)


# windows whose trajectories leave the working range within a few steps
NEAR_WIDTH_LIMIT = [MAX_VALUE // 6, MAX_VALUE // 7, MAX_VALUE // 4]


@given(
    lo=st.one_of(
        st.integers(2, 5000),
        st.integers(140_000_000, 160_000_000),
        st.integers(2, 2 ** 40),
        st.sampled_from(NEAR_WIDTH_LIMIT).flatmap(
            lambda mid: st.integers(mid - 5000, mid + 5000)),
    ),
    width=st.integers(0, 5000),
    max_steps=st.sampled_from([1, 2, 3, 5, 8, DEFAULT_WALK_LIMIT]),
)
@settings(max_examples=300, deadline=None)
def test_sweep_range_matches_position_oracle(lo, width, max_steps):
    hi = lo + width - 1
    assert (_sweep_outcome(_sweep_range, lo, hi, max_steps)
            == _sweep_outcome(reference_sweep, lo, hi, max_steps))


# max_steps=1 near MAX_VALUE//6 stops every trajectory below the limit after
# one step, so only a class straddling the limit at step 0 raises
@pytest.mark.parametrize("mid,max_steps", [
    (MAX_VALUE // 6, 1), (MAX_VALUE // 6, DEFAULT_WALK_LIMIT),
    (MAX_VALUE // 7, 3), (MAX_VALUE // 7, DEFAULT_WALK_LIMIT),
    (MAX_VALUE // 4, 1), (MAX_VALUE // 4, DEFAULT_WALK_LIMIT),
])
def test_sweep_range_width_error_names_first_position(mid, max_steps):
    lo, hi = mid - 2000, mid + 2000
    with pytest.raises(WidthExceededError) as expected:
        reference_sweep(lo, hi, max_steps)
    with pytest.raises(WidthExceededError) as got:
        _sweep_range(lo, hi, max_steps)
    assert str(got.value) == str(expected.value)


def test_sweep_range_width_error_at_the_last_position():
    # with one step allowed, only positions x with 6x-2 > MAX_VALUE that are
    # not already 3 mod 4 leave the range, so `last` is the first to leave
    # both alone and at the end of a window
    last = (MAX_VALUE + 2) // 6 + 1
    if last & 3 == 3:
        last += 1
    message = f"trajectory of {last} left the working range"
    for lo in (last, last - 3):
        with pytest.raises(WidthExceededError, match=message):
            reference_sweep(lo, last, 1)
        with pytest.raises(WidthExceededError, match=message):
            _sweep_range(lo, last, 1)


@pytest.mark.skipif(not os.environ.get("COLLATZ_STRINGS_LONG"),
                    reason="set COLLATZ_STRINGS_LONG=1 for the full-range oracle check")
def test_long_mode_matches_position_oracle():
    assert passage_sweep(2, 159902416) == reference_sweep(2, 159902416, DEFAULT_WALK_LIMIT)


def test_passage_sweep_truncation_finding():
    report = passage_sweep(4, 4, max_steps=1)
    assert report.truncated == (4,)
    assert report.hits == 0


def test_passage_sweep_rejects_position_one():
    with pytest.raises(ValueError):
        passage_sweep(1, 10)


def test_sweep_shard_merge_is_order_independent():
    whole = passage_sweep(2, 20000)
    a = passage_sweep(2, 7000)
    b = passage_sweep(7001, 13000)
    c = passage_sweep(13001, 20000)
    for order in ([a, b, c], [c, a, b], [b, c, a]):
        merged = reduce(SweepReport.merge, order)
        assert merged.aggregates() == whole.aggregates()


def test_sweep_merge_keeps_truncations_sorted_in_any_order():
    parts = [passage_sweep(lo, hi, max_steps=3)
             for lo, hi in ((2, 700), (701, 1300), (1301, 2000))]
    whole = passage_sweep(2, 2000, max_steps=3)
    assert len(whole.truncated) > 10
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0], [0, 2, 1]):
        merged = reduce(SweepReport.merge, [parts[i] for i in order])
        assert merged.aggregates() == whole.aggregates(), order


@pytest.mark.parametrize("max_steps", [3, DEFAULT_WALK_LIMIT])
@pytest.mark.parametrize("every,hi,budget", [
    (1, 1500, 500), (7, 5000, 1750), (1024, 20000, 7000), (10 ** 6, 20000, 7000),
])
def test_sweep_checkpoint_resume_equivalence(tmp_path, every, hi, budget, max_steps):
    # max_steps=3 puts truncations and tied maxima on chunk boundaries; the
    # small ranges keep the per-chunk checkpoint writes few
    ck = os.path.join(tmp_path, "sweep.ckpt")
    one_chunk = os.path.join(tmp_path, "one-chunk.ckpt")
    whole = passage_sweep(2, hi, max_steps=max_steps)
    partial = passage_sweep(2, hi, max_steps=max_steps, checkpoint_path=ck,
                            checkpoint_every=every, budget=budget)
    assert not partial.complete and partial.next_position == budget + 2
    # the checkpoint of a budgeted run does not depend on checkpoint_every
    passage_sweep(2, hi, max_steps=max_steps, checkpoint_path=one_chunk, budget=budget)
    with open(ck, "rb") as fh, open(one_chunk, "rb") as ref:
        assert fh.read() == ref.read()
    resumed = passage_sweep(2, hi, max_steps=max_steps, checkpoint_path=ck,
                            checkpoint_every=every, resume=True)
    assert resumed.complete
    assert resumed == whole


def test_sweep_resume_rejects_mismatched_config(tmp_path):
    ck = os.path.join(tmp_path, "sweep.ckpt")
    passage_sweep(2, 1000, checkpoint_path=ck)
    with pytest.raises(ValueError):
        passage_sweep(2, 2000, checkpoint_path=ck, resume=True)
    # hand-edited checkpoints: a resume position outside [lo, hi+1], or
    # aggregates that are malformed or inconsistent with [lo, next_position-1]
    passage_sweep(2, 1000, max_steps=3, checkpoint_path=ck, budget=600)
    with open(ck, "r", encoding="ascii") as fh:
        good = json.load(fh)
    agg = good["aggregates"]
    t = agg["truncated"]
    assert len(t) > 2 and agg["max_steps_observed"] == 3
    edits = [{"next_position": bad} for bad in (0, 1, 1002, "7", True)]
    edits += [{"aggregates": bad} for bad in ([1], None, "x")]
    edits += [{"aggregates": dict(agg, **bad)} for bad in (
        {"hits": -40}, {"hits": agg["hits"] + 1}, {"hits": True},
        {"truncated": [9999999]}, {"truncated": 5}, {"truncated": t[::-1]},
        {"truncated": [t[0], *t]}, {"truncated": [1, *t[1:]]}, {"truncated": [*t[:-1], 602]},
        {"total_steps": "x"}, {"total_steps": 2}, {"total_steps": 10 ** 9},
        {"max_steps_observed": 4}, {"max_steps_observed": -1}, {"max_steps_observed": 3.0},
        {"argmax_position": 1}, {"argmax_position": 602},
    )]
    edits.append({"aggregates": {k: v for k, v in agg.items() if k != "hits"}})
    for edit in edits:
        with open(ck, "w", encoding="ascii") as fh:
            json.dump(dict(good, **edit), fh)
        with pytest.raises(ValueError):
            passage_sweep(2, 1000, max_steps=3, checkpoint_path=ck, resume=True)
    with open(ck, "w", encoding="ascii") as fh:
        json.dump(good, fh)
    resumed = passage_sweep(2, 1000, max_steps=3, checkpoint_path=ck, resume=True)
    assert resumed == passage_sweep(2, 1000, max_steps=3)


def test_shard_merge_requires_complete_reports(tmp_path):
    import os

    ck = os.path.join(tmp_path, "c.ckpt")
    partial = passage_sweep(2, 1000, checkpoint_path=ck, budget=10)
    whole = passage_sweep(2, 1000)
    with pytest.raises(ValueError):
        partial.merge(whole)
