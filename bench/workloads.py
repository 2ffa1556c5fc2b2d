"""Seeded operation lists for the three benchmark workloads.

An operation is one `python -m collatz_strings ...` invocation.  The same
(workload, seed, scale) always yields the same list.  Sizes are drawn so
that the total work of a list is nearly the same for every seed: seeds
vary where the work lands (window positions, family parameters, report
formats), not how much of it there is, so seed-to-seed spread stays small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Largest start reached by the float-based simulation that the passage
# long mode replaces; windows are sampled across [2, LONG_MODE_BOUND].
LONG_MODE_BOUND = 159_902_416

# Parameters that have a published case system (family.CASE_SYSTEMS).
CASE_SYSTEM_PARAMS = (-1, 1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 31, 33, 37)

WORK_DIR = ".bench_work"


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the command, its flags as argparse dests, a format."""

    command: str
    params: tuple[tuple[str, object], ...]
    fmt: str = "jsonl"

    @property
    def args(self) -> dict:
        return dict(self.params)

    @property
    def argv(self) -> tuple[str, ...]:
        out = [self.command]
        for dest, value in self.params:
            flag = f"-{dest}" if len(dest) == 1 else "--" + dest.replace("_", "-")
            if value is True:
                out.append(flag)
            else:
                out += [flag, str(value)]
        if self.fmt != "jsonl":
            out += ["--format", self.fmt]
        return tuple(out)

    @property
    def span(self) -> tuple[int, int]:
        """Range of positions the op works on, for the kernel microbenchmarks."""
        a = self.args
        if self.command == "passage":
            return a["lo"], a["hi"]
        if self.command == "coverage":
            start = a.get("window_start", 2)
            return start, start + (3 if a["direction"] == "forward" else 4) ** a["m"]
        if self.command == "proportionality":
            return 2, a.get("x_max", 10_000)
        if self.command == "evolve":
            return 2, 3 ** (a["generations"] + 1)
        return 2, max(2, a.get("limit") or a.get("seed_limit") or a["value_limit"])


# The no-work invocation that every op pays for: interpreter start,
# package import, parser construction and a three-record report.
SETUP_OP = Op("evolve", (("direction", "forward"), ("generations", 0)))


def _jitter(rng: random.Random, value: float, scale: float, floor: int) -> int:
    """value * scale, moved by at most 2% so seeds differ without changing the work."""
    return max(floor, round(value * scale * (1 + 0.04 * (rng.random() - 0.5))))


def passage_sweep(rng: random.Random, scale: float) -> list[list[Op]]:
    """Windows `passage --lo L --hi L+W`, plus split budget/resume runs.

    The widths W are a log-uniform grid over 10^4..10^6 (one per tenth of
    the log range, moved by at most 2%) rescaled to a fixed sum.  The starts
    L sample the long-mode range in strata: the window of each width rank
    gets its own tenth of the range, at a seeded place inside it.  Larger
    starts cost more per position (trajectories outgrow one machine word
    sooner), so this keeps the largest windows, which set the latency tail,
    equally costly for every seed.  Two more windows of fixed width are run
    once in one go and once split near the middle: a `--budget` run that
    writes a checkpoint, then a `--resume` run that must finish with the
    same report body as the one-go run.
    """
    n = 10
    widths = [_jitter(rng, 10 ** (4 + 2 * (i + 0.5) / n), 1, 1) for i in range(n)]
    norm = 1_500_000 * scale / sum(widths)
    units = []
    for i, w in enumerate(widths):
        w = max(8, round(w * norm))
        stratum = (LONG_MODE_BOUND - w - 2) / n
        lo = 2 + int(stratum * ((3 * i) % n + rng.random()))
        units.append([Op("passage", (("lo", lo), ("hi", lo + w)))])
    for j in range(2):
        w = max(8, round(40_000 * scale))
        lo = rng.randint(2, LONG_MODE_BOUND - w)
        hi = lo + w
        ckpt = f"{WORK_DIR}/split-{j}.ckpt"
        budget = _jitter(rng, w / 2, 1, 1)
        units.append([Op("passage", (("lo", lo), ("hi", hi)))])
        units.append([
            Op("passage", (("lo", lo), ("hi", hi), ("checkpoint", ckpt), ("budget", budget))),
            Op("passage", (("lo", lo), ("hi", hi), ("checkpoint", ckpt), ("resume", True))),
        ])
    return units


# Cycle searches draw from families with equally many cycles below 10^5
# (one for these 3 | p, two for these others) and searches of similar
# cost, so report sizes and times do not depend on the seed.
_CYCLES_BY3 = (3, 9, 27)
_CYCLES_NOT3 = (7, 19)


def chain_audit(rng: random.Random, scale: float) -> list[list[Op]]:
    """Chain walks: partition audits, family scans, the 3n+3 tally, cycle searches.

    Every case-system family is scanned, those with 3 | p (which skip the
    backward walk) and the others, so the scans' orphan reports are the
    same size for every seed; the seed moves the limits and the order.
    """
    units = [[Op("strings", (("limit", _jitter(rng, n, scale, 20)),))]
             for n in (80_000, 40_000)]
    units += [[Op("scan", (("p", p), ("limit", _jitter(rng, 2_500, scale, 20))))]
              for p in CASE_SYSTEM_PARAMS]
    units += [[Op("audit-3n3", (("limit", _jitter(rng, n, scale, 20)),))]
              for n in (500_000, 250_000)]
    for group in (_CYCLES_BY3, _CYCLES_NOT3):
        units.append([Op("cycles", (("p", rng.choice(group)),
                                    ("seed_limit", _jitter(rng, 100_000, scale, 20))))])
    return units


def progression_report(rng: random.Random, scale: float) -> list[list[Op]]:
    """Progression algebra and recurrence scans with large reports.

    Every generation 10..14 is evolved in both directions, one direction
    in JSON-lines and the other in CSV, so both renderers see about
    63 000 records per list.  Recurrence cases are kept below x = 1000
    and 4 steps: the brute-force scan grows as 2^(sum of branch indices),
    and larger cases make one op's cost swing by seconds between seeds.
    """
    top = 14 if scale >= 1 else max(2, 14 + math.floor(math.log2(scale)))
    units = []
    for k in range(top - 4, top + 1):
        fmts = rng.sample(("jsonl", "csv"), 2)
        units += [[Op("evolve", (("direction", d), ("generations", k)), f)]
                  for d, f in zip(("forward", "backward"), fmts)]
    fmts = ("jsonl", "csv")
    for _ in range(2):
        units.append([Op("proportionality", (("cases", _jitter(rng, 150, scale, 2)),
                                             ("x_max", 1000), ("n_max", 4),
                                             ("seed", rng.randint(0, 10 ** 9))),
                         rng.choice(fmts))])
    for direction, m in (("forward", 9), ("backward", 7)):
        m = max(2, m + min(0, math.floor(math.log(scale, 4))))
        units.append([Op("coverage", (("direction", direction), ("m", m),
                                      ("window_start", rng.randint(2, 10 ** 6)),
                                      ("random_starts", 3),
                                      ("seed", rng.randint(0, 10 ** 9))),
                         rng.choice(fmts))])
    for p in rng.sample(CASE_SYSTEM_PARAMS, 2):
        units.append([Op("family-audit", (("p", p),
                                          ("value_limit", _jitter(rng, 20_000, scale, 40))),
                         rng.choice(fmts))])
    return units


GENERATORS = {
    "passage-sweep": passage_sweep,
    "chain-audit": chain_audit,
    "progression-report": progression_report,
}

# Size of the small ops that give every layer at least one traced call.
PROBE_SCALE = 0.002


def generate(workload: str, seed: int, scale: float = 1.0) -> list[Op]:
    """The workload's op list, in seeded order; split runs stay adjacent."""
    rng = random.Random(f"{workload}:{seed}")
    units = GENERATORS[workload](rng, scale)
    rng.shuffle(units)
    return [op for unit in units for op in unit]


def probes(workload: str, seed: int) -> list[Op]:
    """Tiny ops for every command the workload never runs.

    Added to traced runs only, so that a layer idle on this workload is
    still measured (its figures then describe these probes, not the
    workload).  Passage probes are a budget/resume pair so both
    checkpoint calls are covered.
    """
    ops = generate(workload, seed)
    have = {op.command for op in ops}
    out: list[Op] = []
    for other in GENERATORS:
        if other == workload:
            continue
        for op in generate(other, seed, PROBE_SCALE):
            if op.command in have:
                continue
            if op.command == "passage":
                if "budget" in op.args or "resume" in op.args:
                    out.append(op)
                    if "resume" in op.args:
                        have.add("passage")
                continue
            out.append(op)
            have.add(op.command)
    return out
