"""The 3n+p family: case systems, cycles, and where chains break down.

Replacing 3n+1 by 3n+p (p odd) keeps the whole position machinery, with
x ~ 4x+q, q=(p-3)/2, as the equivalence.  The published case systems for
small p are audited against the generic step; the cycle search and the
chain scans then show what distinguishes p=1 and p=3 from the rest.
"""

from collatz_strings import (
    CASE_SYSTEM_PARAMS,
    Family,
    audit_case_system,
    family_step,
    find_cycles,
    string_scan,
    two_to_one_audit,
)


def main():
    print("auditing every transcribed case system against the generic step:")
    for p in CASE_SYSTEM_PARAMS:
        report = audit_case_system(Family(p), value_limit=10 ** 4, n_limit=4)
        status = f"{len(report.mismatches)} mismatches" if report.mismatches else "ok"
        print(f"  p = {p:>3}: {report.checked:>6} instances checked, {status}")
        assert report.mismatches == ()

    print("\ncycles from seeds up to 1000:")
    for p in (1, -1, 5):
        cycles = find_cycles(Family(p), 1000).cycles
        print(f"  p = {p:>2}: {cycles}")

    print("\nthe p=3 map is two-to-one (each image hit by x and 2x):")
    for y in (2, 5, 8):
        pre = [x for x in range(1, 4 * y) if x % 4 != 0
               and family_step(x, Family(3)) == y]
        print(f"  image {y}: predecessors {pre}")
    report = two_to_one_audit(10 ** 5)
    clean = report.count_violations == report.pairing_violations == report.conflicts == ()
    print(f"  audited every image up to 10^5: {'clean' if clean else 'violations found'}")
    assert clean

    print("\nchain membership scans (orphans cycle or escape the chains):")
    for p in (1, 3, -1, 5):
        scan = string_scan(Family(p), 2000)
        orphans = tuple(sorted({o.position for o in scan.orphans}))
        shown = f"orphans {orphans[:6]}" if orphans else "no orphans"
        print(f"  p = {p:>2}: {shown}")
    print("  p=1 partitions cleanly; p=-1 keeps its (3,4) cycle out of the "
          "chains; p=5 strands the non-built-in loop at 1")


if __name__ == "__main__":
    main()
