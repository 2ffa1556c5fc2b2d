"""Command-line harness for the audits, sweeps, and the graph export.

Every command writes a deterministic report (JSON-lines by default, CSV
for flat tables): a header record with the effective configuration, one
record per finding, and a closing summary.  Exit status 0 means every
checked assertion held, 1 means at least one violation, mismatch, or
truncation was found, and 2 means the run itself could not proceed
(invalid configuration, a value outside the 128-bit working range, or
memory exhausted).

Each command handler is a generator: it checks its arguments, yields its
findings as they are made and returns the summary.  `main` renders the
records in batches of BATCH_RECORDS and writes each batch as it is made,
so a report's size does not bound the memory of a run.  A run that stops
with status 2 after the first batch has left that part of the report on
stdout; `--output` goes through a temporary file beside the target that
replaces it only once the summary is written, so a failed run leaves no
report file.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys
from collections.abc import Generator
from itertools import islice

from .core import (
    DEFAULT_WALK_LIMIT,
    higher_equivalent,
    lower_step,
)
from .family import (
    CASE_SYSTEM_PARAMS,
    Family,
    audit_case_system,
    find_cycles,
    string_scan,
    two_to_one_audit,
)
from .progressions import (
    Progression,
    backward_signature,
    evolve,
    first_recurrence_backward,
    first_recurrence_forward,
    forward_signature,
)
from .reporting import (
    FAILING_KINDS,
    finding,
    header_record,
    render_csv,
    render_jsonl,
    summary_record,
)
from .strings import (
    PROCESSES,
    audit_part,
    coverage_count,
    expected_coverage,
    partition_audit,
    passage_sweep,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

CHECKPOINT_DIR_ENV = "COLLATZ_STRINGS_CHECKPOINT_DIR"
GRAPH_CAP = 10_000
BATCH_RECORDS = 512  # an evolve finding holds about 1 KiB until its batch is written

# A handler yields finding records and returns the summary fields.
Report = Generator[dict, None, dict]


def _resolve_checkpoint(path: str | None) -> str | None:
    if path is None:
        return None
    env_dir = os.environ.get(CHECKPOINT_DIR_ENV)
    if env_dir and not os.path.isabs(path) and os.sep not in path:
        return os.path.join(env_dir, path)
    return path


def cmd_passage(args) -> Report:
    report = passage_sweep(
        args.lo, args.hi, max_steps=args.max_steps,
        checkpoint_path=_resolve_checkpoint(args.checkpoint),
        checkpoint_every=args.checkpoint_every,
        resume=args.resume, budget=args.budget,
    )
    for x in report.truncated:
        yield finding("truncation", str(x), "no 3 mod 4 passage within the step budget",
                      {"position": x, "max_steps": report.max_steps})
    return {
        "lo": report.lo, "hi": report.hi, "processed": report.processed,
        "hits": report.hits, "truncated": len(report.truncated),
        "max_steps_observed": report.max_steps_observed,
        "argmax_position": report.argmax_position,
        "mean_steps": round(report.mean_steps, 6),
        "complete": report.complete, "next_position": report.next_position,
    }


def cmd_strings(args) -> Report:
    report = partition_audit(args.limit, max_len=args.max_len)
    for x, direction in report.truncated:
        yield finding("truncation", str(x), f"{direction} walk exceeded max_len",
                      {"position": x, "direction": direction})
    for element, a, b in report.conflicts:
        yield finding("violation", str(element), "element reached from two distinct heads",
                      {"element": element, "heads": [a, b]})
    return {
        "limit": report.limit, "positions_checked": report.positions_checked,
        "strings": report.string_count, "longest_chain": report.longest_chain,
        "truncated": len(report.truncated), "conflicts": len(report.conflicts),
    }


def cmd_evolve(args) -> Report:
    """One measurement per part as the depth-first walk yields it; the
    audit's rare violations are kept and follow the measurements."""
    parts = evolve(*PROCESSES[args.direction], args.generations)
    part_bad: list[Progression] = []
    bound_bad: list[tuple[Progression, Progression]] = []
    count = 0
    for part in parts:
        yield finding("measurement", f"part[{count}]", str(part),
                      {"intercept": part.intercept, "interval": part.interval})
        count += 1
        bad, over = audit_part(args.direction, part)
        if bad:
            part_bad.append(part)
        bound_bad += [(part, child) for child in over]
    for part in part_bad:
        yield finding("violation", str(part), "intercept not below interval",
                      {"intercept": part.intercept, "interval": part.interval})
    for parent, child in bound_bad:
        yield finding("violation", str(child), "child intercept exceeds recursion bound",
                      {"parent": str(parent), "child": str(child)})
    return {
        "direction": args.direction, "generation": args.generations,
        "parts": count, "intercepts_ok": not part_bad and not bound_bad,
    }


def cmd_coverage(args) -> Report:
    if args.random_starts < 0:
        raise ValueError(f"random_starts must be >= 0, got {args.random_starts}")
    expected_included, expected_open = expected_coverage(args.direction, args.m)
    starts = [args.window_start]
    rng = random.Random(args.seed)
    starts += [rng.randint(2, 10 ** 6) for _ in range(args.random_starts)]
    mismatches = 0
    for start in starts:
        cc = coverage_count(args.direction, args.m, start)
        ok = (cc.included, cc.open_count) == (expected_included, expected_open)
        if not ok:
            mismatches += 1
            yield finding(
                "mismatch", str(start), "window count deviates from the closed form",
                {"included": cc.included, "open": cc.open_count,
                 "expected_included": expected_included, "expected_open": expected_open})
        else:
            yield finding(
                "measurement", str(start), "window count matches the closed form",
                {"included": cc.included, "open": cc.open_count})
    return {
        "direction": args.direction, "m": args.m, "windows": len(starts),
        "expected_included": expected_included, "expected_open": expected_open,
        "mismatches": mismatches,
    }


def cmd_family_audit(args) -> Report:
    value_limit = args.value_limit
    if value_limit is None and args.m_limit is None:
        value_limit = 10_000
    report = audit_case_system(Family(args.p), value_limit=value_limit,
                               m_limit=args.m_limit, n_limit=args.n_limit)
    for domain, depth, expected, got in report.mismatches:
        yield finding("mismatch", str(domain), "rule image disagrees with the generic step",
                      {"domain": domain, "depth": depth, "expected": expected, "got": got})
    return {"p": report.p, "checked": report.checked,
            "mismatches": len(report.mismatches)}


def cmd_cycles(args) -> Report:
    report = find_cycles(Family(args.p), args.seed_limit, max_steps=args.max_steps)
    for cycle in report.cycles:
        yield finding("measurement", str(cycle[0]), "cycle",
                      {"members": list(cycle), "length": len(cycle)})
    for seed in report.truncated_seeds:
        yield finding("truncation", str(seed), "walk neither cycled nor dipped below its seed",
                      {"seed": seed})
    for seed in report.rejected_seeds:
        yield finding("truncation", str(seed), "walk reached a nonpositive image",
                      {"seed": seed})
    return {
        "p": report.p, "seed_limit": report.seed_limit,
        "cycles": len(report.cycles),
        "truncated_seeds": len(report.truncated_seeds),
        "rejected_seeds": len(report.rejected_seeds),
    }


def cmd_audit_3n3(args) -> Report:
    report = two_to_one_audit(args.limit)
    for y, count in report.count_violations:
        yield finding("violation", str(y), "image position not hit exactly twice",
                      {"position": y, "count": count})
    for y, a, b in report.pairing_violations:
        yield finding("violation", str(y), "predecessors do not pair as half and double",
                      {"image": y, "first": a, "second": b})
    return {
        "limit": report.limit,
        "count_violations": len(report.count_violations),
        "pairing_violations": len(report.pairing_violations),
    }


def cmd_scan(args) -> Report:
    report = string_scan(Family(args.p), args.limit, max_len=args.max_len)
    for orphan in report.orphans:
        yield finding("violation" if orphan.reason == "cycle" else "truncation",
                      str(orphan.position), f"{orphan.direction} walk {orphan.reason}",
                      {"position": orphan.position, "direction": orphan.direction,
                       "cycle": list(orphan.cycle) if orphan.cycle else None})
    return {"p": report.p, "limit": report.limit, "scanned": report.scanned,
            "orphans": len(report.orphans)}


def _check_recurrence(direction: str, x: int, steps: int) -> tuple[bool, dict]:
    if direction == "forward":
        sig = forward_signature(x, steps)
        found = first_recurrence_forward(x, steps)
    else:
        sig = backward_signature(x, steps)
        found = first_recurrence_backward(x, steps)
    predicted = x + sig.recurrence_gap
    data = {"x": x, "steps_requested": steps, "signature": list(sig.steps),
            "predicted": predicted, "found": found, "direction": direction}
    return found == predicted, data


def cmd_proportionality(args) -> Report:
    if args.cases < 0:
        raise ValueError(f"cases must be >= 0, got {args.cases}")
    if args.x_max < 1 or args.n_max < 1:
        raise ValueError(f"x_max and n_max must be >= 1, got {args.x_max}, {args.n_max}")
    cases: list[tuple[str, int, int]] = []
    if args.direction in ("forward", "both"):
        cases.append(("forward", 2, 2))  # recurrence anchor at 34
    if args.direction in ("backward", "both"):
        cases.append(("backward", 7, 4))  # recurrence anchor at 88
    rng = random.Random(args.seed)
    directions = (["forward", "backward"] if args.direction == "both"
                  else [args.direction])
    for direction in directions:
        for _ in range(args.cases):
            cases.append((direction, rng.randint(1, args.x_max),
                          rng.randint(1, args.n_max)))
    failures = 0
    for direction, x, steps in cases:
        ok, data = _check_recurrence(direction, x, steps)
        if ok:
            yield finding("measurement", str(x),
                          "first recurrence at the predicted spacing", data)
        else:
            failures += 1
            yield finding("violation", str(x),
                          "first recurrence off the predicted spacing", data)
    return {"cases": len(cases), "failures": failures, "seed": args.seed}


def export_graph(limit: int) -> str:
    """Chain edges (solid) and first-higher-equivalent edges (dashed) as DOT."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > GRAPH_CAP:
        raise ValueError(f"limit {limit} exceeds the graph cap {GRAPH_CAP}")
    lines = ["digraph chains {"]
    for x in range(1, limit + 1):
        nxt = lower_step(x)
        if nxt is not None and nxt <= limit:
            lines.append(f"  {x} -> {nxt};")
    for x in range(1, limit + 1):
        equivalent = higher_equivalent(x)
        if equivalent <= limit:
            lines.append(f"  {x} -> {equivalent} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatz-strings",
        description="Exact verification runs for the conjugated Collatz dynamics.")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write the report here instead of stdout")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("passage", parents=[common],
                       help="first-passage sweep through 3 mod 4")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--max-steps", type=int, default=DEFAULT_WALK_LIMIT)
    p.add_argument("--checkpoint", help="checkpoint file (bare names join "
                                        f"${CHECKPOINT_DIR_ENV})")
    p.add_argument("--checkpoint-every", type=int, default=1 << 20)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--budget", type=int, help="max positions to process this run")
    p.set_defaults(handler=cmd_passage)

    p = sub.add_parser("strings", parents=[common], help="chain partition audit")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--max-len", type=int, default=DEFAULT_WALK_LIMIT)
    p.set_defaults(handler=cmd_strings)

    p = sub.add_parser("evolve", parents=[common], help="progression evolution generations")
    p.add_argument("--direction", choices=("forward", "backward"), required=True)
    p.add_argument("-k", "--generations", type=int, required=True)
    p.set_defaults(handler=cmd_evolve)

    p = sub.add_parser("coverage", parents=[common], help="window counting identities")
    p.add_argument("--direction", choices=("forward", "backward"), required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--window-start", type=int, default=2)
    p.add_argument("--random-starts", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_coverage)

    p = sub.add_parser("family-audit", parents=[common],
                       help="published case system vs generic step")
    p.add_argument("-p", type=int, required=True,
                   help=f"family parameter, one of {sorted(CASE_SYSTEM_PARAMS)}")
    p.add_argument("--value-limit", type=int,
                   help="cap rule instances by domain value (default 10000)")
    p.add_argument("--m-limit", type=int,
                   help="cap rule instances by progression index m")
    p.add_argument("--n-limit", type=int, default=4)
    p.set_defaults(handler=cmd_family_audit)

    p = sub.add_parser("cycles", parents=[common], help="cycle search for a family")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--seed-limit", type=int, default=1000)
    p.add_argument("--max-steps", type=int, default=DEFAULT_WALK_LIMIT)
    p.set_defaults(handler=cmd_cycles)

    p = sub.add_parser("audit-3n3", parents=[common],
                       help="two-predecessor audit of the p=3 map")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=cmd_audit_3n3)

    p = sub.add_parser("scan", parents=[common], help="chain membership scan for a family")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--max-len", type=int, default=DEFAULT_WALK_LIMIT)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("proportionality", parents=[common],
                       help="signature recurrence spacing checks")
    p.add_argument("--direction", choices=("forward", "backward", "both"),
                   default="both")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--x-max", type=int, default=10_000)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(handler=cmd_proportionality)

    p = sub.add_parser("export-graph", parents=[output],
                       help="chains and equivalent links as DOT")
    p.add_argument("--limit", type=int, required=True)
    p.set_defaults(handler=None)

    return parser


def _config_dict(args) -> dict:
    skip = {"handler", "command", "format", "output"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


@contextlib.contextmanager
def _report_stream(path: str | None):
    """Where the report goes: stdout, or `path` once the report is complete.

    A report for a regular file is written to a temporary file in the
    same directory and moved over `path` after the block ends; an error
    removes the temporary file and leaves `path` as it was.  A path that
    exists and is not a regular file (a device or a pipe) is written in
    place.
    """
    if path is None:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(target, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _records(args) -> Generator[dict, None, None]:
    yield header_record(args.command, _config_dict(args))
    summary = yield from args.handler(args)
    yield summary_record(args.command, summary)


def _write_report(args, out) -> bool:
    """Stream the command's report to out; whether any finding failed."""
    records = _records(args)
    failed = False
    column_row = True
    while batch := list(islice(records, BATCH_RECORDS)):
        failed = failed or any(r.get("kind") in FAILING_KINDS for r in batch)
        out.write(render_csv(batch, column_row) if args.format == "csv"
                  else render_jsonl(batch))
        column_row = False
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _report_stream(args.output) as out:
            if args.command == "export-graph":
                out.write(export_graph(args.limit))
                failed = False
            else:
                failed = _write_report(args, out)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR
    except (OverflowError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_FINDINGS if failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
