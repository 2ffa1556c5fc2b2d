"""Chains ("strings") of the one-to-one lower map, and the partition audit.

Restricted to positions without a lower equivalent, the conjugated map is
one-to-one and chains positions into runs from a head (2 mod 3, nothing
maps there) to an end (3 mod 4, maps nowhere under the restriction).  The
audit below builds each chain once, from the first position up to a limit
that no earlier chain has placed, and confirms the runs tile everything
above the fixed point exactly once.
"""

from collatz_strings import build_string_containing, partition_audit, passage_sweep


def show_chain(x):
    record = build_string_containing(x)
    arrow = " -> ".join(str(e) for e in record.elements)
    print(f"  chain through {x:>3}: {arrow}"
          f"   (head {record.head}, end {record.tail})")


def main():
    print("some chains, including the singleton where head and end coincide:")
    for x in (6, 12, 17, 11, 100):
        show_chain(x)

    limit = 10 ** 5
    report = partition_audit(limit)
    print(f"\npartition audit up to {limit}:")
    print(f"  positions checked : {report.positions_checked}")
    print(f"  distinct chains   : {report.string_count}")
    print(f"  longest chain     : {report.longest_chain} positions")
    print(f"  truncated walks   : {len(report.truncated)}")
    print(f"  head conflicts    : {len(report.conflicts)}")
    assert report.ok

    print("\nfirst-passage sweep (every trajectory must cross 3 mod 4):")
    sweep = passage_sweep(2, 10 ** 6)
    print(f"  range [2..10^6]: {sweep.hits} hits of {sweep.processed} positions")
    print(f"  longest wait: {sweep.max_steps_observed} steps at "
          f"position {sweep.argmax_position}; mean {sweep.mean_steps:.2f}")
    assert sweep.truncated == ()


if __name__ == "__main__":
    main()
