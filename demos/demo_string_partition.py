"""Chains ("strings") of the one-to-one lower map, and the partition audit.

Restricted to positions without a lower equivalent, the conjugated map is
one-to-one and chains positions into runs from a head (2 mod 3, nothing
maps there) to an end (3 mod 4, maps nowhere under the restriction).  The
audit below checks once that the two branches make the map one-to-one,
then counts the chains through a range by walking whole residue classes of
positions back to their heads and forward to their ends, and confirms the
runs tile everything above the fixed point, none of them truncated.
"""

from collatz_strings import inverse_lower_step, lower_step, partition_audit, passage_sweep


def show_chain(x):
    head = x
    while head % 3 != 2:  # back to the head, where nothing maps
        head = inverse_lower_step(head)
    chain = [head]
    while chain[-1] % 4 != 3:  # forward to the end, which maps nowhere
        chain.append(lower_step(chain[-1]))
    assert x in chain
    arrow = " -> ".join(str(e) for e in chain)
    print(f"  chain through {x:>3}: {arrow}   (head {head}, end {chain[-1]})")


def main():
    print("some chains, including the singleton where head and end coincide:")
    for x in (6, 12, 17, 11, 100):
        show_chain(x)

    limit = 10 ** 5
    report = partition_audit(limit)
    print(f"\npartition audit up to {limit}:")
    print(f"  positions checked : {report.positions_checked}")
    print(f"  distinct chains   : {report.strings}")
    print(f"  longest chain     : {report.longest_chain} positions")
    print(f"  truncated walks   : {len(report.truncated)}")
    print(f"  branch conflicts  : {len(report.conflicts)}")
    assert report.truncated == report.conflicts == ()

    print("\nfirst-passage sweep (every trajectory must cross 3 mod 4):")
    sweep = passage_sweep(2, 10 ** 6)
    print(f"  range [2..10^6]: {sweep.hits} hits of {sweep.processed} positions")
    print(f"  longest wait: {sweep.max_steps_observed} steps at "
          f"position {sweep.argmax_position}; mean {sweep.mean_steps:.2f}")
    assert sweep.truncated == ()


if __name__ == "__main__":
    main()
