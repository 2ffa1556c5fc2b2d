"""The audits of fixed branch tables: the p=1 partition audit
(partition_audit), the p=3 two-to-one audit (two_to_one_audit) and the
published case systems' audit (audit_case_system).  Each is one function:
it checks its input, caps work that grows with the limit
(core.require_tree_work), checks its table's premises once, for every
position, and only then counts.  The handlers of `strings`, `audit-3n3` and
`family-audit`, which cli calls, report them.  The tables and the step they
are checked against are in family; the chain scan and the cycle search,
which walk residue classes of starts, are in walks.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import (DEFAULT_WALK_LIMIT, MAX_TREE_NODES, MAX_VALUE, _about, _checked,
                   inverse_lower_step, lower_step, require_tree_work)
from .family import (CASE_SYSTEMS, FORWARD_MAPS, Family, _image_branches, branch_maps,
                     family_equivalent, family_step)


def branch_faults(maps) -> tuple:
    """(domain, image, problem) for each branch of maps, lower_step's
    (domain, image) Progression pairs, that breaks a premise of
    partition_audit.

    The premises make lower_step one-to-one on every position, not just up
    to a limit.  Each branch maps domain.element(t) to image.element(t),
    one to one onto a whole class mod 3.  lower_step and
    inverse_lower_step agree with it on two members, so on all of them,
    since both are affine on the branch.  No two images meet: with
    interval 3, that is no two residues mod 3 alike.
    """
    faults, owner = [], {}  # owner: residue mod 3 -> the first branch onto it
    for domain, image in maps:
        if any(lower_step(domain.element(t)) != image.element(t)
               or inverse_lower_step(image.element(t)) != domain.element(t) for t in (0, 1)):
            faults.append((domain, image, "disagrees with lower_step or inverse_lower_step"))
        if domain.interval < 1 or image.interval != 3:
            faults.append((domain, image, "is not one-to-one onto a class mod 3"))
        elif image.intercept % 3 in owner:
            faults.append((domain, image, "meets the image of {}->{}".format(
                *owner[image.intercept % 3])))
        else:
            owner[image.intercept % 3] = domain, image
    return tuple(faults)


# strings: the number of chains; truncated: (position, direction) pairs;
# conflicts: (domain, image, problem) for each faulty branch of FORWARD_MAPS
class PartitionAuditReport(namedtuple("PartitionAuditReport",
                                      "limit strings truncated conflicts longest_chain")):
    __slots__ = ()

    @property
    def positions_checked(self) -> int:
        return self.limit - 1


def partition_audit(limit: int, max_len: int = DEFAULT_WALK_LIMIT) -> PartitionAuditReport:
    """Verify that every position in [2, limit] sits in exactly one chain.

    That holds for every position if lower_step is one-to-one, which
    rests on premises about its two branches (FORWARD_MAPS) that are
    checked once, for all positions, by branch_faults; a broken one is a
    conflict, and then nothing is walked.  Otherwise each position x is
    back(x) steps of inverse_lower_step from its chain's head (2 mod 3),
    and its chain is back(x) + 1 + f(x) long, f(x) being the steps from x
    to the first 3 mod 4 value.  x truncates backward when back(x) >
    max_len, else forward when its chain is longer than max(max_len, 1): a
    truncation finding, not an error.  A chain counts in strings at its
    first member in range, the x whose ancestors all lie above limit,
    unless that truncates backward; longest_chain is the longest chain
    that does not truncate.  truncated lists (x, "backward" | "forward")
    by increasing x.

    The positions move as classes x = a + m*t, t in [0, c), whose values
    after s backward steps are b + n*t: walks.backward_walk's 3-adic tree,
    which splits on t mod 3 unless 3 | n.  Values rise with t, so the
    members with an ancestor in range are a prefix t < k of the class,
    carried as the index k.  At their head the other members walk forward
    by strings._sweep_classes, and each that truncates forward lists the
    members in range of its chain that follow it and do not truncate
    backward (all of them cut).  Memory grows with the depth of the class
    tree, not with limit.  A class step raises WidthExceededError when any
    member would leave the working range.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    require_tree_work("limit", limit, 5.8e4, 5)
    conflicts = branch_faults(FORWARD_MAPS)
    if conflicts:
        return PartitionAuditReport(limit, 0, (), conflicts, 0)
    # imported here, so that the two-to-one and case audits do not compile
    # the passage sweep
    from .strings import _sweep_classes

    branches = _image_branches(FORWARD_MAPS)
    reach = max(max_len, 1)  # the longest chain that does not truncate
    strings, longest, truncated = 0, 0, []
    stack = [(2, 1, limit - 1, 2, 1, 0, 0)]
    while stack:
        a, m, c, b, n, s, k = stack.pop()
        while True:
            if c > 1 and n % 3:  # residues mod 3 differ: split on t mod 3
                stack += [(a + i * m, 3 * m, (c - i + 2) // 3, b + i * n, 3 * n, s,
                           (k - i + 2) // 3) for i in (1, 2) if c > i]
                m, c, n, k = 3 * m, (c + 2) // 3, 3 * n, (k + 2) // 3
            elif b % 3 not in branches:  # every member's head, after s steps
                strings += c - k
                over = range(a + m * k, a + m * c, m)  # all truncate when s >= reach
                if c > k and s < reach:
                    hits, _, top, _, over = _sweep_classes(a + m * k, m, c - k,
                                                           reach - s - 1)
                    if hits:
                        longest = max(longest, s + 1 + top)
                # each truncates forward with the later members of its chain
                # in range that do not truncate backward, all of them cut
                for x in over:
                    truncated.append((x, "forward"))
                    for _ in range(max_len - s):
                        x = lower_step(x)
                        if x <= limit:
                            truncated.append((x, "forward"))
                break
            elif s >= max_len:
                truncated += [(x, "backward") for x in range(a, a + m * c, m)]
                break
            else:
                b0, a0, m0 = branches[b % 3]
                b, n, s = a0 + m0 * (b - b0) // 3, m0 * n // 3, s + 1
                _checked(b + n * (c - 1))
                if b <= limit:  # members with this value in range are not first
                    k = max(k, min(c, (limit - b) // n + 1))
    truncated.sort()
    return PartitionAuditReport(limit, strings, tuple(truncated), (), longest)


def _predecessors(branches, y: int) -> list:
    """(x, k) for the predecessor x of y on each branch k, in increasing x."""
    return sorted((a + s * (y - b) // 3, k) for k, (b, _, a, s) in enumerate(branches))


# (domain, image) per branch of the p=3 step: 1+2t -> 2+3t, 2+4t -> 2+3t
TWO_TO_ONE_MAPS = branch_maps(Family(3))


# count_violations: (position, observed count); pairing_violations:
# (image, first, second); conflicts: (domain, image, problem) for each
# broken premise of TWO_TO_ONE_MAPS, (None, None, problem) for a gap
TwoToOneReport = namedtuple("TwoToOneReport",
                            "limit count_violations pairing_violations conflicts")


def two_to_one_audit(limit: int) -> TwoToOneReport:
    """Audit the p=3 map: every image position is hit exactly twice.

    The base domain (positions not divisible by 4) must hit positions
    2 mod 3 up to limit exactly twice and everything else zero times, and
    the two predecessors of an image must pair as (x, 2x) -- each chain
    member's companion is exactly half or double.

    The step's branches (TWO_TO_ONE_MAPS, (domain, image) Progression
    pairs) are checked once, for all positions; conflicts lists (domain,
    image, problem) per broken premise, or (None, None, problem) for
    uncovered positions.  With v2(a) < v2(s) on a domain a+s*t, 6x has one
    power of 2 on every member, so family_step is affine there and agrees
    with the image everywhere once it does at t = 0 and 1.  A branch that
    does not is a conflict, and is still counted.  The count needs the
    domains to partition the positions not divisible by 4, each from its
    least member, and images of interval 3; else nothing is.

    The images are counted as whole classes, in work and memory that do
    not grow with limit.  Each branch hits its image class from the
    intercept up to a cut set by x_max = (4*limit-2)//3+1 and limit, so
    the hit count is constant between cuts.  Predecessors are linear in y:
    a stretch with two or more hits pairs as (x, 2x) throughout when its
    ends do in one branch order.  Any other stretch is checked image by
    image; it pairs at no more than two of them, or has three hits and is
    a count violation throughout, so the work stays within the length of
    the report.  Raises WidthExceededError when 6*x_max leaves the working
    range, that is when a predecessor of an image up to limit would.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    x_max = (4 * limit - 2) // 3 + 1
    _checked(6 * x_max)
    conflicts, seen, shaped, family = [], [], True, Family(3)
    for domain, image in TWO_TO_ONE_MAPS:
        (a, s), (b, i) = domain, image
        if (a & -a) >= (s & -s) or any(family_step(domain.element(t), family)
                                       != image.element(t) for t in (0, 1)):
            conflicts.append((domain, image, "disagrees with family_step"))
        if i != 3:
            conflicts.append((domain, image, "has an image interval other than 3"))
            shaped = False
        if a % math.gcd(s, 4) == 0:
            problem = "reaches positions divisible by 4"
        elif a > s:
            problem = f"starts above its least member {(a - 1) % s + 1}"
        else:
            problem = next(("meets the domain of {}->{}".format(*other) for other in seen
                            if (a - other[0][0]) % math.gcd(s, other[0][1]) == 0), None)
        if problem:
            conflicts.append((domain, image, problem))
            shaped = False
        else:
            seen.append((domain, image))
    if shaped:  # disjoint classes inside the base domain: they cover it at density 3/4
        period = math.lcm(4, *(domain[1] for domain, _ in TWO_TO_ONE_MAPS))
        covered = sum(period // domain[1] for domain, _ in TWO_TO_ONE_MAPS)
        if 4 * covered != 3 * period:
            share = math.gcd(covered, period)
            conflicts.append((None, None, f"domains cover {covered // share}/{period // share} "
                              "of the positions, not the 3/4 that 4 does not divide"))
            shaped = False
    if not shaped:
        return TwoToOneReport(limit, (), (), tuple(conflicts))
    hits: dict[int, list] = {0: [], 1: [], 2: []}  # image residue -> (b, cut, a, s)
    for (a, s), (b, _) in TWO_TO_ONE_MAPS:
        top = min((x_max - a) // s, (limit - b) // 3)
        if top >= 0:
            hits[b % 3].append((b, b + 3 * top, a, s))
    count_bad, pairing_bad = [], []
    for r, branches in hits.items():
        first, last = r or 3, limit - (limit - r) % 3
        cuts = sorted({first} | {b for b, _, _, _ in branches}
                      | {cut + 3 for _, cut, _, _ in branches if cut < last})
        for lo, hi in zip(cuts, [c - 3 for c in cuts[1:]] + [last]):
            active = [h for h in branches if h[0] <= lo <= h[1]]
            if len(active) != (2 if r == 2 else 0):
                count_bad += [(y, len(active)) for y in range(lo, hi + 1, 3)]
            if len(active) < 2:
                continue
            ends = [_predecessors(active, y) for y in (lo, hi)]
            if ([k for _, k in ends[0]] == [k for _, k in ends[1]]
                    and all(e[1][0] == 2 * e[0][0] for e in ends)):
                continue  # one branch order throughout, so second - 2*first is 0 throughout
            for y in range(lo, hi + 1, 3):
                (x1, _), (x2, _), *_ = _predecessors(active, y)
                if x2 != 2 * x1:
                    pairing_bad.append((y, x1, x2))
    count_bad.sort()
    pairing_bad.sort(key=lambda v: v[2])
    return TwoToOneReport(limit, tuple(count_bad), tuple(pairing_bad), tuple(conflicts))


# One rule of a published system (family.CASE_SYSTEMS): a progression, or
# a single position where domain_stride is 0 (a one-off rule).
CaseRule = namedtuple("CaseRule", "domain_offset domain_stride image_offset image_stride")


def case_system(p: int) -> tuple[CaseRule, ...]:
    """The transcribed rule system for parameter p."""
    if p not in CASE_SYSTEMS:
        raise KeyError(f"no transcribed system for p={p}")
    return tuple(CaseRule(*r) for r in CASE_SYSTEMS[p])


# mismatches: (domain, depth, expected, got) tuples
CaseAuditReport = namedtuple("CaseAuditReport", "p checked mismatches")


def _holds_on_class(rule: CaseRule, count: int, family: Family, n_limit: int) -> bool:
    """Whether rule d + s*m -> i + r*m (s = 0: one-off) holds for m < count
    at each depth n, proved on the class a + S*m, a = equiv^n(d), S = 4^n*s:
    if t0 = 6a-3+p >= 1 has j < v2(6S) factors of two, every member steps to
    ((t0>>j)+1)/2 + (3S>>j)*m.  False when a premise fails: that one,
    a >= 1, and the largest member's 3n+p and next equivalent in the width."""
    a, s, i, r = rule
    for depth in range(n_limit + 1):
        t0, top = 6 * a - 3 + family.p, a + s * (count - 1)
        j = (t0 & -t0).bit_length() - 1
        if (a < 1 or t0 < 1 or 6 * s % (2 << j)
                or 6 * top - 3 + family.p > MAX_VALUE
                or depth < n_limit and 4 * top + family.q > MAX_VALUE
                or ((t0 >> j) + 1) >> 1 != i or 3 * s >> j != r):
            return False
        a, s = 4 * a + family.q, 4 * s
    return True


def audit_case_system(family: Family, rules: tuple[CaseRule, ...] | None = None,
                      *, value_limit: int | None = None, m_limit: int | None = None,
                      n_limit: int) -> CaseAuditReport:
    """Check every rule instance against the generic step.

    For each rule instance (d -> i), bounded by domain value and/or index m,
    and each equivalence depth n <= n_limit, asserts
    family_step(equiv^n(d)) == i.  A rule not proved on its class
    (_holds_on_class) is stepped instance by instance, so mismatches and
    errors are those of stepping.  Mismatches are report content, not
    exceptions.  Raises ValueError for a negative domain stride, and when
    the checks of the rules not proved, counted before any is stepped, are
    more than MAX_TREE_NODES; checked counts the proved rules' too.
    """
    if n_limit < 0:
        raise ValueError(f"n_limit must be >= 0, got {n_limit}")
    if value_limit is None and m_limit is None:
        raise ValueError("need value_limit or m_limit")
    if value_limit is not None and value_limit < 1:
        raise ValueError(f"value_limit must be >= 1, got {value_limit}")
    if m_limit is not None and m_limit < 0:
        raise ValueError(f"m_limit must be >= 0, got {m_limit}")
    if rules is None:
        rules = case_system(family.p)
    counts = []  # each rule's bounded instances; a one-off rule has 1 or none
    for offset, stride, _, _ in rules:
        if stride < 0:
            raise ValueError(f"domain stride must be >= 0, got {stride}")
        bounds = [1] if not stride else [] if m_limit is None else [m_limit + 1]
        if value_limit is not None:
            bounds.append(max(0, (value_limit - offset) // (stride or 1) + 1))
        counts.append(min(bounds))
    # each proof ends within about 64 depths, where a class member leaves the width
    stepped = [count if count and not _holds_on_class(rule, count, family, n_limit) else 0
               for rule, count in zip(rules, counts)]
    if (steps := sum(stepped) * (n_limit + 1)) > MAX_TREE_NODES:
        raise ValueError(f"the case audit needs about {_about(math.log10(steps))} checks, "
                         f"above the cap of {MAX_TREE_NODES:.0e}")
    mismatches: list[tuple[int, int, int, int]] = []
    for rule, count in zip(rules, stepped):
        offset, stride, image_offset, image_stride = rule
        for m in range(count):
            v = domain_value = offset + stride * m
            image_value = image_offset + image_stride * m
            for depth in range(n_limit + 1):
                got = family_step(v, family)
                if got != image_value:
                    mismatches.append((domain_value, depth, image_value, got))
                if depth < n_limit:
                    v = family_equivalent(v, family)
    return CaseAuditReport(family.p, sum(counts) * (n_limit + 1), tuple(mismatches))


def cmd_strings(args, cli):
    report = cli.partition_audit(args.limit, max_len=args.max_len)
    for x, direction in report.truncated:
        yield cli.finding("truncation", str(x), f"{direction} walk exceeded max_len",
                          {"position": x, "direction": direction})
    for domain, image, problem in report.conflicts:
        yield cli.finding("violation", f"{domain}->{image}", f"lower_step branch {problem}",
                          {"domain": list(domain), "image": list(image)})
    return {
        "limit": report.limit, "positions_checked": report.positions_checked,
        "strings": report.strings, "longest_chain": report.longest_chain,
        "truncated": len(report.truncated), "conflicts": len(report.conflicts),
    }


def cmd_audit_3n3(args, cli):
    report = cli.two_to_one_audit(args.limit)
    for domain, image, problem in report.conflicts:
        if domain is None:  # the branch domains leave positions uncovered
            yield cli.finding("violation", "domains", f"p=3 branch {problem}",
                              {"domain": None, "image": None})
        else:
            yield cli.finding("violation", f"{domain}->{image}", f"p=3 branch {problem}",
                              {"domain": list(domain), "image": list(image)})
    for y, count in report.count_violations:
        yield cli.finding("violation", str(y), "image position not hit exactly twice",
                          {"position": y, "count": count})
    for y, a, b in report.pairing_violations:
        yield cli.finding("violation", str(y), "predecessors do not pair as half and double",
                          {"image": y, "first": a, "second": b})
    return {
        "limit": report.limit,
        "count_violations": len(report.count_violations),
        "pairing_violations": len(report.pairing_violations),
    }


def cmd_family_audit(args, cli):
    value_limit = args.value_limit
    if value_limit is None and args.m_limit is None:
        value_limit = 10_000
    report = cli.audit_case_system(Family(args.p), value_limit=value_limit,
                                   m_limit=args.m_limit, n_limit=args.n_limit)
    for domain, depth, expected, got in report.mismatches:
        yield cli.finding("mismatch", str(domain), "rule image disagrees with the generic step",
                          {"domain": domain, "depth": depth, "expected": expected, "got": got})
    return {"p": report.p, "checked": report.checked,
            "mismatches": len(report.mismatches)}
