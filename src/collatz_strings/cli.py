"""Command-line harness for the audits, sweeps, and the graph export.

Every command writes a deterministic report (JSON-lines by default, CSV
for flat tables): a header record with the effective configuration, one
record per finding, and a closing summary.  Exit status 0 means every
checked assertion held, 1 means at least one violation, mismatch, or
truncation was found, and 2 means the run itself could not proceed
(invalid configuration or a value outside the 128-bit working range).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from .core import (
    DEFAULT_WALK_LIMIT,
    WidthExceededError,
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
    backward_signature,
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
    coverage_count,
    evolve_backward,
    evolve_forward,
    expected_coverage,
    intercept_audit,
    partition_audit,
    passage_sweep,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

CHECKPOINT_DIR_ENV = "COLLATZ_STRINGS_CHECKPOINT_DIR"
GRAPH_CAP = 10_000


def _resolve_checkpoint(path: str | None) -> str | None:
    if path is None:
        return None
    env_dir = os.environ.get(CHECKPOINT_DIR_ENV)
    if env_dir and not os.path.isabs(path) and os.sep not in path:
        return os.path.join(env_dir, path)
    return path


def cmd_passage(args) -> tuple[list[dict], dict]:
    report = passage_sweep(
        args.lo, args.hi, max_steps=args.max_steps,
        checkpoint_path=_resolve_checkpoint(args.checkpoint),
        checkpoint_every=args.checkpoint_every,
        resume=args.resume, budget=args.budget,
    )
    findings = [
        finding("truncation", str(x), "no 3 mod 4 passage within the step budget",
                {"position": x, "max_steps": report.max_steps})
        for x in report.truncated
    ]
    summary = {
        "lo": report.lo, "hi": report.hi, "processed": report.processed,
        "hits": report.hits, "truncated": len(report.truncated),
        "max_steps_observed": report.max_steps_observed,
        "argmax_position": report.argmax_position,
        "mean_steps": round(report.mean_steps, 6),
        "complete": report.complete, "next_position": report.next_position,
    }
    return findings, summary


def cmd_strings(args) -> tuple[list[dict], dict]:
    report = partition_audit(args.limit, max_len=args.max_len)
    findings = [
        finding("truncation", str(x), f"{direction} walk exceeded max_len",
                {"position": x, "direction": direction})
        for x, direction in report.truncated
    ]
    findings += [
        finding("violation", str(element), "element reached from two distinct heads",
                {"element": element, "heads": [a, b]})
        for element, a, b in report.conflicts
    ]
    summary = {
        "limit": report.limit, "positions_checked": report.positions_checked,
        "strings": report.string_count, "longest_chain": report.longest_chain,
        "truncated": len(report.truncated), "conflicts": len(report.conflicts),
    }
    return findings, summary


def cmd_evolve(args) -> tuple[list[dict], dict]:
    state = (evolve_forward if args.direction == "forward" else evolve_backward)(
        args.generations)
    findings = [
        finding("measurement", f"part[{i}]", str(part),
                {"intercept": part.intercept, "interval": part.interval})
        for i, part in enumerate(state.parts)
    ]
    audit = intercept_audit(state)
    findings += [
        finding("violation", str(part), "intercept not below interval",
                {"intercept": part.intercept, "interval": part.interval})
        for part in audit.part_violations
    ]
    findings += [
        finding("violation", str(child), "child intercept exceeds recursion bound",
                {"parent": str(parent), "child": str(child)})
        for parent, child in audit.bound_violations
    ]
    summary = {
        "direction": state.direction, "generation": state.generation,
        "parts": len(state.parts), "intercepts_ok": audit.ok,
    }
    return findings, summary


def cmd_coverage(args) -> tuple[list[dict], dict]:
    if args.random_starts < 0:
        raise ValueError(f"random_starts must be >= 0, got {args.random_starts}")
    expected_included, expected_open = expected_coverage(args.direction, args.m)
    starts = [args.window_start]
    rng = random.Random(args.seed)
    starts += [rng.randint(2, 10 ** 6) for _ in range(args.random_starts)]
    findings: list[dict] = []
    mismatches = 0
    for start in starts:
        cc = coverage_count(args.direction, args.m, start)
        ok = (cc.included, cc.open_count) == (expected_included, expected_open)
        if not ok:
            mismatches += 1
            findings.append(finding(
                "mismatch", str(start), "window count deviates from the closed form",
                {"included": cc.included, "open": cc.open_count,
                 "expected_included": expected_included, "expected_open": expected_open}))
        else:
            findings.append(finding(
                "measurement", str(start), "window count matches the closed form",
                {"included": cc.included, "open": cc.open_count}))
    summary = {
        "direction": args.direction, "m": args.m, "windows": len(starts),
        "expected_included": expected_included, "expected_open": expected_open,
        "mismatches": mismatches,
    }
    return findings, summary


def cmd_family_audit(args) -> tuple[list[dict], dict]:
    value_limit = args.value_limit
    if value_limit is None and args.m_limit is None:
        value_limit = 10_000
    report = audit_case_system(Family(args.p), value_limit=value_limit,
                               m_limit=args.m_limit, n_limit=args.n_limit)
    findings = [
        finding("mismatch", str(domain), "rule image disagrees with the generic step",
                {"domain": domain, "depth": depth, "expected": expected, "got": got})
        for domain, depth, expected, got in report.mismatches
    ]
    summary = {"p": report.p, "checked": report.checked,
               "mismatches": len(report.mismatches)}
    return findings, summary


def cmd_cycles(args) -> tuple[list[dict], dict]:
    report = find_cycles(Family(args.p), args.seed_limit, max_steps=args.max_steps)
    findings = [
        finding("measurement", str(cycle[0]), "cycle",
                {"members": list(cycle), "length": len(cycle)})
        for cycle in report.cycles
    ]
    findings += [
        finding("truncation", str(seed), "walk neither cycled nor dipped below its seed",
                {"seed": seed})
        for seed in report.truncated_seeds
    ]
    findings += [
        finding("truncation", str(seed), "walk reached a nonpositive image", {"seed": seed})
        for seed in report.rejected_seeds
    ]
    summary = {
        "p": report.p, "seed_limit": report.seed_limit,
        "cycles": len(report.cycles),
        "truncated_seeds": len(report.truncated_seeds),
        "rejected_seeds": len(report.rejected_seeds),
    }
    return findings, summary


def cmd_audit_3n3(args) -> tuple[list[dict], dict]:
    report = two_to_one_audit(args.limit)
    findings = [
        finding("violation", str(y), "image position not hit exactly twice",
                {"position": y, "count": count})
        for y, count in report.count_violations
    ]
    findings += [
        finding("violation", str(y), "predecessors do not pair as half and double",
                {"image": y, "first": a, "second": b})
        for y, a, b in report.pairing_violations
    ]
    summary = {
        "limit": report.limit,
        "count_violations": len(report.count_violations),
        "pairing_violations": len(report.pairing_violations),
    }
    return findings, summary


def cmd_scan(args) -> tuple[list[dict], dict]:
    report = string_scan(Family(args.p), args.limit, max_len=args.max_len)
    findings = [
        finding("violation" if orphan.reason == "cycle" else "truncation",
                str(orphan.position), f"{orphan.direction} walk {orphan.reason}",
                {"position": orphan.position, "direction": orphan.direction,
                 "cycle": list(orphan.cycle) if orphan.cycle else None})
        for orphan in report.orphans
    ]
    summary = {"p": report.p, "limit": report.limit, "scanned": report.scanned,
               "orphans": len(report.orphans)}
    return findings, summary


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


def cmd_proportionality(args) -> tuple[list[dict], dict]:
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
    findings: list[dict] = []
    failures = 0
    for direction, x, steps in cases:
        ok, data = _check_recurrence(direction, x, steps)
        if ok:
            findings.append(finding("measurement", str(x),
                                    "first recurrence at the predicted spacing", data))
        else:
            failures += 1
            findings.append(finding("violation", str(x),
                                    "first recurrence off the predicted spacing", data))
    summary = {"cases": len(cases), "failures": failures, "seed": args.seed}
    return findings, summary


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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "export-graph":
            text = export_graph(args.limit)
            findings_failed = False
        else:
            findings, summary = args.handler(args)
            records = [header_record(args.command, _config_dict(args))]
            records += findings
            records.append(summary_record(args.command, summary))
            text = render_csv(records) if args.format == "csv" else render_jsonl(records)
            findings_failed = any(r["kind"] in FAILING_KINDS for r in findings)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (WidthExceededError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_FINDINGS if findings_failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
