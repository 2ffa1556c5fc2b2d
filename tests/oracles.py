"""References the tests check the package against, and claim helpers only
the tests need.  Each reference solves its problem another way than the
package: a transport by an explicit residue intersection, the evolutions
breadth first or by recursion, the audit part by part, the case audit
instance by instance, a signature position by position and its first
recurrence by a scan of every candidate; none calls the package's
residue-solve kernel or its class proofs, and none validates its input."""

from fractions import Fraction
from math import gcd

from collatz_strings.audits import CaseAuditReport
from collatz_strings.core import _checked, inverse_lower_step, lower_step, restriction_index
from collatz_strings.family import PROCESSES, branch_maps, family_equivalent, family_step
from collatz_strings.progressions import Progression, evolve


def collatz_step(n):
    """One step of the classic map: n/2 for even n, 3n+1 for odd n."""
    return n >> 1 if n & 1 == 0 else 3 * n + 1


def accelerated_step(n):
    """Odd n to the odd part of 3n+1: (result, halvings)."""
    t = 3 * n + 1
    j = (t & -t).bit_length() - 1
    return t >> j, j


def position_of(n):
    """Position of an odd integer in the odd enumeration: (n+1)/2."""
    return (n + 1) >> 1


def odd_of(x):
    """Odd integer at position x: 2x-1."""
    return 2 * x - 1


def family_equivalent_n(x, count, family):
    """count-fold family_equivalent; count=0 returns x."""
    for _ in range(count):
        x = family_equivalent(x, family)
    return x


def reference_case_audit(family, rules, *, value_limit, m_limit, n_limit):
    """The case audit instance by instance: every rule instance d + s*m ->
    i + r*m within the bounds, stepped at each equivalence depth up to
    n_limit; the first error of a step or an equivalent propagates."""
    checked, mismatches = 0, []
    for offset, stride, image, image_stride in rules:
        m = 0
        while ((m_limit is None or m <= m_limit)
               and (value_limit is None or offset + stride * m <= value_limit)):
            v = domain = offset + stride * m
            for depth in range(n_limit + 1):
                got = family_step(v, family)
                checked += 1
                if got != image + image_stride * m:
                    mismatches.append((domain, depth, image + image_stride * m, got))
                if depth < n_limit:
                    v = family_equivalent(v, family)
            if not stride:  # a one-off rule has one instance
                break
            m += 1
    return CaseAuditReport(family.p, checked, tuple(mismatches))


def first_gap_violation(tags, interval):
    """First (index, gap) where identical tags are not exactly interval apart."""
    last_seen = {}
    for i, tag in enumerate(tags):
        prev = last_seen.get(tag)
        if prev is not None and i - prev != interval:
            return i, i - prev
        last_seen[tag] = i
    return None


def sampling_lemma_holds(base, power, period):
    """Whether every period-th tag of q_k = k mod base**power, from q_0, again
    repeats exactly base**power apart (period co-prime with base)."""
    interval = base ** power
    return first_gap_violation((i * period % interval for i in range(3 * interval)),
                               interval) is None


def interval_weight(parts):
    """Exact density of a union of parts: the sum of 1/interval."""
    return sum((Fraction(1, p.interval) for p in parts), Fraction(0))


def chain_of(x):
    """The chain through position x >= 2, from its head (2 mod 3) to its end (3 mod 4)."""
    head = x
    while head % 3 != 2:
        head = inverse_lower_step(head)
    chain = [head]
    while chain[-1] % 4 != 3:
        chain.append(lower_step(chain[-1]))
    return tuple(chain)


def reference_signature(direction, x, steps):
    """x's branch tags by the per-position kernel walk: restriction_index
    then lower_step forward, x mod 3 then inverse_lower_step backward, up
    to `steps` tags or through the first chain-ending one."""
    tag, end, step = ((restriction_index, 3, lower_step) if direction == "forward"
                      else (lambda v: v % 3, 2, inverse_lower_step))
    tags = []
    for _ in range(steps):
        tags.append(tag(x))
        if tags[-1] >= end:
            break
        x = step(x)
    return tuple(tags)


def reference_first_recurrence(direction, x, steps):
    """Least x' > x with x's reference signature, by testing every
    candidate from x + 1 on until one matches."""
    tags = reference_signature(direction, x, steps)
    candidate = x + 1
    while reference_signature(direction, candidate, len(tags)) != tags:
        candidate += 1
    return candidate


def family_evolve_forward(family, generation):
    """Generation k of the forward evolution of a family whose branch domains
    start at their residues and whose equivalent class holds no exceptional
    position (p in {-1, 1, 3}): from its head classes, through both branches."""
    heads = ((Progression(1, 3), Progression(3, 3)) if family.p % 3 == 0
             else (Progression(2, 3),))
    return tuple(evolve(heads, branch_maps(family), generation))


def intersect_residue(p, residue, mod):
    """p's members congruent to residue (mod mod), or None.

    Standard CRT split: solvable iff gcd(interval, mod) divides the offset,
    in which case the result is a progression with interval lcm(interval, mod).
    """
    residue %= mod
    a, b = p.intercept, p.interval
    g = gcd(b, mod)
    if (residue - a) % g != 0:
        return None
    m = mod // g
    # solve b*t = residue - a (mod mod); t is fixed mod m
    t0 = ((residue - a) // g * pow(b // g, -1, m)) % m if m > 1 else 0
    return Progression(_checked(a + b * t0), _checked(b * m))


def reference_transport(part, src, dst):
    """Members of part in src, mapped src.element(m) -> dst.element(m), through
    the intersection with src's residue class; None when part misses src."""
    dom = intersect_residue(part, src.intercept, src.interval)
    if dom is None:
        return None
    stride = dom.interval // src.interval  # src indices between members of dom
    m = (dom.intercept - src.intercept) // src.interval
    if m < 0:  # members of the residue class below src's intercept are not in src
        m %= stride
    return Progression(_checked(dst.element(m)), _checked(stride * dst.interval))


def _children(part, maps):
    """part's transports through maps in order; ValueError at the first it misses."""
    kids = []
    for src, dst in maps:
        kid = reference_transport(part, src, dst)
        if kid is None:
            raise ValueError(f"part {part} misses branch {src}")
        kids.append(kid)
    return kids


def reference_evolve(seeds, maps, generation):
    """The breadth-first generation loop: every part of a generation at once."""
    parts = tuple(seeds)
    for _ in range(generation):
        parts = tuple(kid for part in parts for kid in _children(part, maps))
    return parts


def reference_families(seeds, maps, generation):
    """(part, children) for each part of generation k, by recursion over the
    branch tree; a part that misses a branch raises when it is reached."""
    for part in seeds:
        kids = _children(part, maps)
        if generation:
            yield from reference_families(kids, maps, generation - 1)
        else:
            yield part, kids


def reference_audit_part(direction, part, kids=None):
    """The intercept audit of one part: whether its intercept is not below
    its interval, and its children above the recursion bound.  kids are the
    part's children, transported here when not given."""
    a, b = part.intercept, part.interval
    if kids is None:
        kids = [reference_transport(part, src, dst) for src, dst in PROCESSES[direction][1]]
    if direction == "forward":
        over = [kid for kid in kids if 4 * (kid.intercept - 1) > 3 * (a + 3 * b - 1)]
    else:
        over = [kid for kid in kids if 3 * (kid.intercept - 1) > 4 * (a + 2 * b - 1)]
    return a >= b, over
