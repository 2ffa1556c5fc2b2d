import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_strings import (
    Family,
    MAX_VALUE,
    WidthExceededError,
    accelerated_step,
    base_equivalent,
    collatz_step,
    conjugate_step,
    conjugate_step_casewise,
    family_equivalent_n,
    higher_equivalent,
    inverse_lower_step,
    lower_step,
    odd_of,
    position_of,
    restriction_index,
    trajectory_report,
)

positions = st.integers(min_value=1, max_value=10 ** 30)


def halvings_oracle(v):
    """Independent oracle: divide out 2 by repeated halving."""
    j = 0
    while v % 2 == 0:
        v //= 2
        j += 1
    return v, j


def test_collatz_step_examples():
    assert collatz_step(1) == 4
    assert collatz_step(22) == 11
    assert collatz_step(7) == 22


def test_collatz_step_rejects_nonpositive():
    with pytest.raises(ValueError):
        collatz_step(0)


def test_accelerated_step_examples():
    assert accelerated_step(5) == (1, 4)
    assert accelerated_step(3) == halvings_oracle(10)
    assert accelerated_step(7) == halvings_oracle(22)


def test_accelerated_step_matches_halving_oracle():
    for n in range(1, 4001, 2):
        assert accelerated_step(n) == halvings_oracle(3 * n + 1)


def test_accelerated_step_requires_odd():
    with pytest.raises(ValueError):
        accelerated_step(4)


def test_enumeration_examples():
    assert position_of(5) == 3
    assert odd_of(1) == 1
    assert position_of(odd_of(12345)) == 12345


@given(positions)
def test_enumeration_roundtrip(x):
    assert position_of(odd_of(x)) == x


def test_conjugate_step_examples():
    assert conjugate_step(1) == 1
    assert conjugate_step(2) == 3
    # composition oracle: from the odd value 5 = odd_of(3), iterate the
    # plain map until odd again: 16, 8, 4, 2, 1
    v = collatz_step(odd_of(3))
    while v % 2 == 0:
        v = collatz_step(v)
    assert conjugate_step(3) == position_of(v) == 1


def test_conjugate_step_matches_plain_map_composition():
    for x in range(1, 3001):
        v = collatz_step(odd_of(x))
        while v % 2 == 0:
            v = collatz_step(v)
        assert conjugate_step(x) == position_of(v)


@given(positions)
@settings(max_examples=300)
def test_conjugate_step_case_form_agrees(x):
    assert conjugate_step(x) == conjugate_step_casewise(x)


def test_equivalent_examples():
    assert higher_equivalent(1) == 3
    assert family_equivalent_n(1, 2, Family(1)) == higher_equivalent(higher_equivalent(1)) == 11
    assert family_equivalent_n(9, 0, Family(1)) == 9
    assert base_equivalent(7) == (2, 1)
    assert base_equivalent(8) == (8, 0)


@given(positions, st.integers(min_value=0, max_value=8))
@settings(max_examples=200)
def test_equivalents_share_an_image(x, k):
    assert conjugate_step(family_equivalent_n(x, k, Family(1))) == conjugate_step(x)


@given(positions)
def test_lower_equivalent_inverts_higher(x):
    base, depth = base_equivalent(x)
    assert base_equivalent(higher_equivalent(x)) == (base, depth + 1)


def test_base_equivalent_examples():
    assert base_equivalent(2) == (2, 0)
    assert base_equivalent(7) == (2, 1)
    assert base_equivalent(11) == (1, 2)


@given(positions)
def test_base_equivalent_roundtrip(x):
    base, depth = base_equivalent(x)
    assert base % 4 != 3
    assert base % 2 == 0 or base % 4 == 1
    assert family_equivalent_n(base, depth, Family(1)) == x


def test_base_chain_strictly_decreases():
    # read from x down to its base, the equivalence chain strictly decreases
    for x in range(1, 20000):
        base, depth = base_equivalent(x)
        chain = [family_equivalent_n(base, d, Family(1)) for d in range(depth + 1)]
        assert chain[-1] == x
        assert all(lo < hi for lo, hi in zip(chain, chain[1:]))


def test_every_position_in_exactly_one_equivalence_class():
    # (base, depth) must be unique per position up to the bound
    seen = {}
    for x in range(1, 50001):
        key = base_equivalent(x)
        assert key not in seen
        seen[key] = x


def test_restriction_examples():
    assert restriction_index(2) == 1 and base_equivalent(2) == (2, 0)
    assert restriction_index(7) == 3
    assert restriction_index(11) == 6 and base_equivalent(11) == (1, 2)


def test_restriction_classes_are_progressions():
    # positions with branch index z recur at interval exactly 2**z
    by_z = {}
    for x in range(1, 1 << 12):
        by_z.setdefault(restriction_index(x), []).append(x)
    for z in range(1, 9):
        xs = by_z[z]
        gaps = {b - a for a, b in zip(xs, xs[1:])}
        assert gaps == {1 << z}, (z, sorted(gaps))


def test_lower_step_worked_chain():
    assert lower_step(5) == 4
    assert lower_step(4) == 6
    assert lower_step(6) == 9
    assert lower_step(9) == 7
    assert lower_step(7) is None
    assert lower_step(1) == 1


def test_lower_step_agrees_with_conjugate_step_on_its_domain():
    for x in range(1, 20000):
        out = lower_step(x)
        if out is not None:
            assert out == conjugate_step(x)


def test_lower_step_image_residues_and_density():
    # the image misses residue 2 mod 3; in any window of 3w consecutive
    # positions inside the covered region, exactly 2w are attained
    limit = 4000
    image = {lower_step(x) for x in range(2, limit + 1)} - {None}
    assert all(y % 3 != 2 for y in image)
    w = 25
    for start in (2, 3, 17, 500, 1000):
        window = range(start, start + 3 * w)
        assert window.stop <= 3 * limit // 4  # stay inside the covered region
        assert sum(1 for y in window if y in image) == 2 * w


def test_inverse_lower_step_worked_chain():
    assert inverse_lower_step(7) == 9
    assert inverse_lower_step(9) == 6
    assert inverse_lower_step(6) == 4
    assert inverse_lower_step(4) == 5
    assert inverse_lower_step(2) is None


def test_inverse_branch_direction():
    # residue 0 steps down, residue 1 steps up (equality only at x=1)
    for x in range(2, 3000):
        out = inverse_lower_step(x)
        if x % 3 == 0:
            assert out < x
        elif x % 3 == 1:
            assert out > x
        else:
            assert out is None


def test_lower_step_roundtrips():
    assert inverse_lower_step(lower_step(8)) == 8
    for x in range(1, 10000):
        out = lower_step(x)
        if out is not None:
            assert inverse_lower_step(out) == x
        back = inverse_lower_step(x)
        if back is not None:
            assert lower_step(back) == x


def test_conjugate_image_never_2_mod_3():
    for x in range(1, 20000):
        assert conjugate_step(x) % 3 != 2


def test_trajectory_report_examples():
    r = trajectory_report(2)
    assert r.steps_to_first_3mod4 == 1 and r.first_3mod4_value == 3
    assert r.steps_to_one == 2 and not r.truncated

    r = trajectory_report(1)
    assert r.steps_to_first_3mod4 is None and r.first_3mod4_value is None
    assert r.steps_to_one == 0 and not r.truncated


def test_trajectory_report_counts_start_as_step_zero():
    r = trajectory_report(3)
    assert r.steps_to_first_3mod4 == 0 and r.first_3mod4_value == 3


def test_trajectory_report_truncation():
    r = trajectory_report(4, max_steps=1)
    assert r.truncated
    assert r.steps_to_first_3mod4 is None and r.steps_to_one is None


def test_trajectory_report_large_anchor():
    # the largest start exercised by the original float-based simulation
    r = trajectory_report(159902416)
    assert r.hit_3mod4
    assert r.first_3mod4_value % 4 == 3


def test_width_guard():
    with pytest.raises(WidthExceededError):
        collatz_step(MAX_VALUE)  # MAX_VALUE is odd, so 3n+1 overflows
    with pytest.raises(WidthExceededError):
        higher_equivalent(MAX_VALUE // 2)
    with pytest.raises(WidthExceededError):
        conjugate_step(MAX_VALUE // 2)
    # even values only halve and stay in range
    assert collatz_step(MAX_VALUE - 1) == (MAX_VALUE - 1) // 2
