import json
import os
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    chain_of,
    family_evolve_forward,
    interval_weight,
    reference_audit_part,
    reference_transport,
)

import collatz_strings.audits as audits_module
from collatz_strings import (
    Family,
    Progression,
    SweepReport,
    WidthExceededError,
    coverage_count,
    expected_coverage,
    inverse_lower_step,
    lower_step,
    partition_audit,
    passage_sweep,
)
from collatz_strings.core import DEFAULT_WALK_LIMIT, MAX_VALUE, trajectory_report
from collatz_strings.family import BACKWARD_MAPS, FORWARD_MAPS, PROCESSES
from collatz_strings.progressions import _audit, _families, evolve
from collatz_strings.strings import _sweep_range


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


def audit(direction, part):
    """evolve's audit of one part: (intercept >= interval, children over the bound)."""
    maps = PROCESSES[direction][1]
    bad, over = _audit(direction, maps, next(_families((part,), maps, 0)))
    return bad == [part], [kid for _, kid in over]


def audit_ok(direction, k):
    return all(audit(direction, p) == (False, []) for p in generation(direction, k))


def test_intercept_audit_first_generations():
    assert audit_ok("forward", 1)
    assert audit_ok("backward", 1)
    assert audit_ok("forward", 2)


def test_intercept_audit_all_generations():
    for k in range(13):
        assert audit_ok("forward", k), k
        assert audit_ok("backward", k), k


def test_intercept_audit_flags_violations():
    bad, _ = audit("forward", Progression(12, 9))
    assert bad


def test_intercept_audit_matches_reference_on_crafted_states():
    # every part with intercept < 80 and interval < 13 that meets both branch
    # domains, many with intercept >= interval; forward, some children break
    # the bound (backward children of such parts never do)
    for direction, maps in (("forward", FORWARD_MAPS), ("backward", BACKWARD_MAPS)):
        parts = tuple(Progression(a, b) for a in range(1, 80) for b in range(1, 13)
                      if all(reference_transport(Progression(a, b), *m) for m in maps))
        results = [audit(direction, part) for part in parts]
        assert results == [reference_audit_part(direction, part) for part in parts]
        assert any(bad for bad, _ in results)
        assert any(over for _, over in results) == (direction == "forward")
        for k in range(8):
            for part in generation(direction, k):
                assert audit(direction, part) == reference_audit_part(direction, part)


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
    assert chain_of(6) == (5, 4, 6, 9, 7)
    assert chain_of(12) == (8, 12, 18, 27)
    assert chain_of(17) == (17, 13, 10, 15)


def test_singleton_string():
    assert chain_of(11) == (11,)


def test_string_record_structure():
    for x in (2, 6, 12, 17, 100, 731):
        chain = chain_of(x)
        assert chain[0] % 3 == 2
        assert chain[-1] % 4 == 3
        assert x in chain
        for a, b in zip(chain, chain[1:]):
            assert lower_step(a) == b
        for interior in chain[:-1]:
            assert interior % 4 != 3


def test_partition_covers_small_range_exactly_once():
    report = partition_audit(27)
    assert report.truncated == report.conflicts == ()
    owner = {}
    for x in range(2, 28):
        chain = chain_of(x)
        for e in chain:
            if e in owner:
                assert owner[e] == chain[0]
            owner[e] = chain[0]
    assert set(range(2, 28)) <= set(owner)


def test_partition_audit_clean_at_10k():
    report = partition_audit(10 ** 4)
    assert report.truncated == report.conflicts == ()
    assert report.positions_checked == 10 ** 4 - 1
    assert report.strings > 2000


def test_partition_audit_memory_holds_one_head_set():
    # the class walk holds one root-to-leaf path of the class tree, not a
    # slot per position or a set of heads
    partition_audit(2)  # imports the walk outside the measurement
    tracemalloc.start()
    try:
        report = partition_audit(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.truncated == report.conflicts == ()
    assert peak < 2 ** 20


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


def assert_partition_matches_reference(limit, max_len):
    report = partition_audit(limit, max_len)
    heads, truncated, conflicts, longest = reference_partition_audit(limit, max_len)
    assert conflicts == ()
    assert (report.strings, report.truncated, report.conflicts, report.longest_chain) == (
        len(heads), truncated, (), longest), (limit, max_len)
    assert report.positions_checked == limit - 1


@pytest.mark.parametrize("limit", [2, 700, 1000, 3000])
@pytest.mark.parametrize("max_len", [0, 1, 2, 3, 5, 20, None])
def test_partition_audit_matches_per_position_reference(max_len, limit):
    assert_partition_matches_reference(
        limit, DEFAULT_WALK_LIMIT if max_len is None else max_len)


@given(limit=st.integers(2, 30_000),
       max_len=st.sampled_from([0, 1, 2, 3, 5, 20, DEFAULT_WALK_LIMIT]))
@settings(max_examples=60, deadline=None)
def test_partition_audit_matches_reference_at_random_limits(limit, max_len):
    assert_partition_matches_reference(limit, max_len)


def test_partition_audit_matches_reference_at_every_small_limit():
    for limit in range(2, 401):
        assert_partition_matches_reference(limit, DEFAULT_WALK_LIMIT)


@pytest.mark.skipif(not os.environ.get("COLLATZ_STRINGS_LONG"),
                    reason="set COLLATZ_STRINGS_LONG=1 for the partition oracle check at 10^6")
def test_long_partition_audit_matches_reference():
    assert_partition_matches_reference(10 ** 6, DEFAULT_WALK_LIMIT)


# Faulty branch tables.  4+2t -> 6+3t agrees with lower_step but its image
# meets that of 2+2t -> 3+3t, so two chains could join.  2+2t -> 4+3t is not
# a branch of lower_step, and inverse_lower_step does not undo it; its image
# then meets that of 1+4t -> 1+3t.  2+4t -> 3+6t agrees with lower_step but
# covers half of its class mod 3, so the walk would take 6+6t for heads.
# 1+t -> 2+3t, of interval 1, maps one to one onto the class 2 mod 3, which
# no other image meets, but it is no branch of lower_step.
EVEN, ODD = FORWARD_MAPS
OVERLAP = (Progression(4, 2), Progression(6, 3))
NOT_UNDONE = (Progression(2, 2), Progression(4, 3))
HALF_CLASS = (Progression(2, 4), Progression(3, 6))
EVERY_POSITION = (Progression(1, 1), Progression(2, 3))
FAULTY_TABLES = [
    ((EVEN, ODD, OVERLAP),
     ((*OVERLAP, "meets the image of {2+2t}->{3+3t}"),)),
    ((NOT_UNDONE, ODD),
     ((*NOT_UNDONE, "disagrees with lower_step or inverse_lower_step"),
      (*ODD, "meets the image of {2+2t}->{4+3t}"))),
    ((HALF_CLASS, ODD),
     ((*HALF_CLASS, "is not one-to-one onto a class mod 3"),)),
    ((EVEN, ODD, EVERY_POSITION),
     ((*EVERY_POSITION, "disagrees with lower_step or inverse_lower_step"),)),
]


@pytest.mark.parametrize("max_len", [5, 20, None])
def test_partition_audit_conflicts_match_dict_reference(monkeypatch, max_len):
    walk = DEFAULT_WALK_LIMIT if max_len is None else max_len
    for table, conflicts in FAULTY_TABLES:
        monkeypatch.setattr(audits_module, "FORWARD_MAPS", table)
        report = partition_audit(3000, walk)
        assert report == (3000, 0, (), conflicts, 0)
        assert report.truncated or report.conflicts


def test_partition_audit_many_conflicts_stay_linear(monkeypatch):
    # every copy of the even branch shifted along it agrees with lower_step
    # and meets the image of the first; each must cost one lookup
    copies = tuple((Progression(2 + 2 * j, 2), Progression(3 + 3 * j, 3))
                   for j in range(20_000))
    monkeypatch.setattr(audits_module, "FORWARD_MAPS", copies + (ODD,))
    started = time.perf_counter()
    report = partition_audit(20_000)
    elapsed = time.perf_counter() - started
    assert report.conflicts == tuple((*branch, "meets the image of {2+2t}->{3+3t}")
                                     for branch in copies[1:])
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
        assert tr.steps_to_first_3mod4 is not None
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


def _sweep_outcome(sweep, *args):
    try:
        return sweep(*args)
    except WidthExceededError as exc:
        return str(exc)


def _chunked_sweep(lo, hi, max_steps, cuts):
    """Sweep [lo, hi] in chunks starting at lo and at lo + c mod the width for
    each c in cuts, each chunk extending the report of the chunks before it."""
    starts = sorted({lo, *(lo + c % (hi - lo + 1) for c in cuts if hi > lo)})
    done = None
    for a, b in zip(starts, [*starts[1:], hi + 1]):
        done = _sweep_range(a, b - 1, max_steps, done)
    return done


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
    cuts=st.lists(st.integers(0, 5000), max_size=4),
)
@settings(max_examples=300, deadline=None)
# a one-member class whose stride has shrunk to 0 leaves the range
@example(lo=56_713_727_820_156_410_577_229_101_238_628_034_629, width=1, max_steps=3, cuts=[])
def test_sweep_range_matches_position_oracle(lo, width, max_steps, cuts):
    # small max_steps put truncations and tied maxima on chunk boundaries
    hi = lo + width - 1
    assert (_sweep_outcome(_chunked_sweep, lo, hi, max_steps, cuts)
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


# lo log-uniform below 2^120, so that most windows lie far above a position loop's reach
@given(s=st.integers(2, 8), data=st.data(), lo=st.integers(2, 120).flatmap(
    lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)))
@settings(max_examples=100, deadline=None)
def test_passage_sweep_obeys_the_closed_form_law(s, lo, data):
    # Before its first 3 mod 4 value a trajectory takes lower_step's two
    # branches, each of which leaves the next residue mod 4 uniform.  So in
    # any window of 4^s positions exactly 3^i * 4^(s-i) have no 3 mod 4 value
    # among their first i values (Terras 1976): 3^s truncate at s-1 steps,
    # and 3^i * 4^(s-1-i) first reach 3 mod 4 after i steps.
    hi = lo + 4 ** s - 1
    whole = passage_sweep(lo, hi, max_steps=s - 1)
    assert len(whole.truncated) == 3 ** s and whole.hits == 4 ** s - 3 ** s
    assert whole.total_steps == sum(i * 3 ** i * 4 ** (s - 1 - i) for i in range(s))
    assert whole.max_steps_observed == s - 1
    # s - 1 steps reach the first 3 mod 4 value; a walk on to 1 can leave the range
    assert trajectory_report(whole.argmax_position, s - 1).steps_to_first_3mod4 == s - 1
    cut = data.draw(st.integers(1, 4 ** s - 1), label="cut")
    with tempfile.TemporaryDirectory() as tmp:
        ck = os.path.join(tmp, "law.ckpt")
        passage_sweep(lo, hi, max_steps=s - 1, checkpoint_path=ck, budget=cut)
        assert passage_sweep(lo, hi, max_steps=s - 1, checkpoint_path=ck,
                             resume=True) == whole


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
