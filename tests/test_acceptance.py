"""Acceptance suite: the end-to-end claims this package exists to verify.

Each test prints one pass/fail line.  Run with:  pytest tests/test_acceptance.py -v -s
The long passage mode (hi = 159902416) sweeps residue classes and takes a
few seconds, so it runs with the rest.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import chain_of, family_equivalent_n, interval_weight, sampling_lemma_holds

from collatz_strings import (
    CASE_SYSTEM_PARAMS,
    Family,
    audit_case_system,
    base_equivalent,
    conjugate_step,
    coverage_count,
    expected_coverage,
    find_cycles,
    higher_equivalent,
    partition_audit,
    passage_sweep,
    signature_class,
    two_to_one_audit,
)
from collatz_strings.core import trajectory_report
from collatz_strings.family import PROCESSES
from collatz_strings.progressions import _audit, _families, _proved, evolve


def generation(direction, k):
    return tuple(evolve(*PROCESSES[direction], k))


def audit_clean(direction, k):
    """Whether every part of generation k passes evolve's per-part intercept
    audit, and the premises under which evolve proves it hold."""
    seeds, maps = PROCESSES[direction]
    assert _proved(direction, seeds, maps)
    return all(_audit(direction, maps, batch) == ([], [])
               for batch in _families(seeds, maps, k))


@contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_passage_claim():
    with verdict(1, "passage through 3 mod 4 on [2..10^6]"):
        started = time.monotonic()
        report = passage_sweep(2, 10 ** 6, max_steps=10 ** 5)
        elapsed = time.monotonic() - started
        assert report.complete
        assert report.truncated == ()          # zero tolerance
        assert report.hits == 10 ** 6 - 1      # 100% of positions
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
        # the largest start the original simulation reached, as one trajectory
        anchor = trajectory_report(159902416)
        assert anchor.steps_to_first_3mod4 is not None and anchor.first_3mod4_value % 4 == 3


def test_criterion_1_long_mode():
    with verdict(1, "passage long mode [2..159902416]"):
        report = passage_sweep(2, 159902416, max_steps=10 ** 5)
        assert report.complete and report.truncated == ()
        assert report.hits == 159902416 - 1
        assert report.max_steps_observed == 76
        assert report.argmax_position == 159902416


def test_criterion_2_string_partition():
    with verdict(2, "string partition of [2..10^5]"):
        report = partition_audit(10 ** 5)
        assert report.truncated == ()   # zero truncations
        assert report.conflicts == ()   # every position maps to exactly one head
        assert chain_of(6) == (5, 4, 6, 9, 7)
        assert chain_of(12) == (8, 12, 18, 27)
        assert chain_of(17) == (17, 13, 10, 15)


def test_criterion_3_evolution_structure():
    with verdict(3, "evolution structure through generation 12"):
        for k in range(13):
            fwd = generation("forward", k)
            assert len(fwd) == 2 ** k
            assert all(p.interval == 3 ** (k + 1) for p in fwd)
            assert audit_clean("forward", k)
            bwd = generation("backward", k)
            assert len(bwd) == 2 ** k
            assert interval_weight(bwd) == Fraction(3 ** k, 4 ** (k + 1))
            assert audit_clean("backward", k)
        def parts(direction, k):
            return [(p.intercept, p.interval) for p in generation(direction, k)]
        assert parts("forward", 1) == [(3, 9), (4, 9)]
        assert parts("forward", 2) == [(18, 27), (16, 27), (6, 27), (10, 27)]
        assert parts("backward", 1) == [(2, 8), (9, 16)]
        assert parts("backward", 2) == [(12, 16), (13, 32), (6, 32), (33, 64)]


def test_criterion_4_counting_identities():
    with verdict(4, "window counting identities"):
        assert (coverage_count("forward", 3).included,
                coverage_count("forward", 3).open_count) == (19, 8)
        assert (coverage_count("backward", 2).included,
                coverage_count("backward", 2).open_count) == (7, 9)
        assert (coverage_count("backward", 3).included,
                coverage_count("backward", 3).open_count) == (37, 27)
        rng = random.Random(2024)
        for direction, m_max in (("forward", 7), ("backward", 6)):
            for m in range(1, m_max + 1):
                expected = expected_coverage(direction, m)
                starts = [2] + [rng.randint(2, 10 ** 6) for _ in range(32)]
                for ws in starts:
                    cc = coverage_count(direction, m, ws)
                    assert (cc.included, cc.open_count) == expected, (direction, m, ws)


def test_criterion_5_proportionality_recurrences():
    with verdict(5, "signature recurrence spacings"):
        # anchors: the even->terminal pattern of 2 recurs at 34, the
        # four-step inverse pattern of 7 recurs at 88
        assert 2 + signature_class("forward", 2, 2)[1] == 34
        assert 7 + signature_class("backward", 7, 4)[1] == 88
        rng = random.Random(1)
        failures = 0
        for direction in ("forward", "backward"):
            for _ in range(200):
                x, n = rng.randint(1, 10 ** 4), rng.randint(1, 6)
                sig, modulus = signature_class(direction, x, n)
                if modulus != sig.recurrence_gap:  # the first recurrence is x + modulus
                    failures += 1
        assert failures == 0


def test_criterion_6_generalized_case_systems():
    with verdict(6, "published 3n+p case systems"):
        assert set(CASE_SYSTEM_PARAMS) == {1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21,
                                           23, 25, 27, 31, 33, 37, -1}
        for p in CASE_SYSTEM_PARAMS:
            report = audit_case_system(Family(p), value_limit=10 ** 4, n_limit=4)
            assert report.mismatches == (), (p, report.mismatches[:3])


def test_criterion_7_cycles():
    with verdict(7, "family cycle inventories"):
        assert find_cycles(Family(1), 1000).cycles == ((1,),)
        assert (3, 4) in find_cycles(Family(-1), 1000).cycles
        assert (1,) in find_cycles(Family(5), 1000).cycles


def test_criterion_8_two_to_one():
    with verdict(8, "p=3 map is two-to-one up to 10^6"):
        report = two_to_one_audit(10 ** 6)
        assert report.count_violations == ()
        assert report.pairing_violations == ()


def test_criterion_9_lemma_properties():
    with verdict(9, "image residues, equivalence invariance, base reduction, sampling"):
        from math import gcd

        for x in range(1, 10 ** 5 + 1):
            assert conjugate_step(x) % 3 != 2
        for x in range(1, 10 ** 5 + 1):
            fx = conjugate_step(x)
            v = x
            for _ in range(8):
                v = higher_equivalent(v)
                assert conjugate_step(v) == fx
        seen = set()
        for x in range(1, 10 ** 5 + 1):
            base, depth = base_equivalent(x)
            assert base % 4 != 3
            assert family_equivalent_n(base, depth, Family(1)) == x
            assert (base, depth) not in seen
            seen.add((base, depth))
        for base in (2, 3):
            for power in range(1, 7):
                for period in range(1, 10):
                    if gcd(period, base) == 1:
                        assert sampling_lemma_holds(base, power, period)
