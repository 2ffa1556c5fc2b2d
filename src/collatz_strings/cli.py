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
so a report's size does not bound the memory of a run.  `evolve` yields
its part measurements as text, a chunk of fixed-shape lines
(`reporting.render_parts`) per batch of the walk, which `main` writes as
they come.  A run that stops with status 2 has left on stdout the whole
records of the batches written before the error, a prefix of its report;
`--output` goes through a temporary file beside the target that replaces
it only once the summary is written, so a failed run leaves no report file.

A well-formed argv is read from the command table, COMMANDS (`_plain_args`);
any other, the help and every error included, goes to argparse
(`build_parser`), which only those runs import.
"""

from __future__ import annotations

import contextlib
import os
import sys
from collections.abc import Generator
from itertools import chain
from types import SimpleNamespace

from . import _PUBLIC, _loader
from .core import (DEFAULT_WALK_LIMIT, MAX_TREE_NODES, _checked, higher_equivalent,
                   lower_step, replace_on_success)
from .reporting import (FAILING_KINDS, finding, header_record, render_csv, render_jsonl,
                        render_parts, summary_record)

# The layer names the handlers use: the package's public names and the
# four below.  Each is imported on its first access as an attribute of this
# module (`_cli.<name>` in a handler, getattr or hasattr from outside) and
# kept in the module's namespace, where a test or a tracer can replace it;
# so a run compiles only the layers its command calls.
__getattr__ = _loader(globals(), _PUBLIC, {"family": ("PROCESSES",),
                                           "progressions": ("_audit", "_families", "_proved")})
_cli = sys.modules[__name__]


EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

CHECKPOINT_DIR_ENV = "COLLATZ_STRINGS_CHECKPOINT_DIR"
GRAPH_CAP = 10_000
# Positions charged for each coverage window's set-up, about 14 us: -m 1 is
# refused above 2*10^7 windows, about 5 minutes, like the class-tree caps
WINDOW_SETUP = 2
BATCH_RECORDS = 512  # dict records rendered and written at a time

# A handler yields finding records, or text chunks of measurement records
# it has rendered itself, and returns the summary fields.
Report = Generator[dict | str, None, dict]


def _resolve_checkpoint(path: str | None) -> str | None:
    env_dir = os.environ.get(CHECKPOINT_DIR_ENV)
    if env_dir and path and not os.path.isabs(path) and os.sep not in path:
        return os.path.join(env_dir, path)
    return path


def cmd_passage(args) -> Report:
    report = _cli.passage_sweep(
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
    report = _cli.partition_audit(args.limit, max_len=args.max_len)
    for x, direction in report.truncated:
        yield finding("truncation", str(x), f"{direction} walk exceeded max_len",
                      {"position": x, "direction": direction})
    for domain, image, problem in report.conflicts:
        yield finding("violation", f"{domain}->{image}", f"lower_step branch {problem}",
                      {"domain": list(domain), "image": list(image)})
    return {
        "limit": report.limit, "positions_checked": report.positions_checked,
        "strings": report.strings, "longest_chain": report.longest_chain,
        "truncated": len(report.truncated), "conflicts": len(report.conflicts),
    }


def cmd_evolve(args) -> Report:
    """Each batch of the walk, its parts, is yielded as one text chunk of
    measurement lines in args.format.  Where `_proved` fails, each batch is
    audited part by part, and the rare violations follow the measurements."""
    seeds, maps = _cli.PROCESSES[args.direction]
    batches = _cli._families(seeds, maps, args.generations)
    proved = _cli._proved(args.direction, seeds, maps)
    part_bad, bound_bad, count = [], [], 0
    for batch in batches:
        if not proved:
            for found, new in zip((part_bad, bound_bad), _cli._audit(args.direction, maps, batch)):
                found += new
        yield render_parts(zip(*batch), count, args.format)
        count += len(batch[0])
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
    expected_included, expected_open = _cli.expected_coverage(args.direction, args.m)
    windows = 1 + args.random_starts
    positions = windows * (expected_included + expected_open)  # s**m each
    if (work := positions + windows * WINDOW_SETUP) > MAX_TREE_NODES:  # before any window
        raise ValueError(f"-m {args.m} with {args.random_starts} random starts marks "
                         f"{positions} window positions, {work} with {WINDOW_SETUP} for each "
                         f"window's set-up, above the cap of {MAX_TREE_NODES:.0e}")
    import random  # here, so that only the commands that draw cases load it
    rng = random.Random(args.seed)
    mismatches = 0
    for start in chain([args.window_start],  # each random start drawn as its window is made
                       (rng.randint(2, 10 ** 6) for _ in range(args.random_starts))):
        cc = _cli.coverage_count(args.direction, args.m, start)
        data = {"included": cc.included, "open": cc.open_count}
        ok = (cc.included, cc.open_count) == (expected_included, expected_open)
        if not ok:
            mismatches += 1
            data |= {"expected_included": expected_included, "expected_open": expected_open}
        yield finding("measurement" if ok else "mismatch", str(start),
                      f"window count {'matches' if ok else 'deviates from'} the closed form",
                      data)
    return {
        "direction": args.direction, "m": args.m, "windows": 1 + args.random_starts,
        "expected_included": expected_included, "expected_open": expected_open,
        "mismatches": mismatches,
    }


def cmd_family_audit(args) -> Report:
    value_limit = args.value_limit
    if value_limit is None and args.m_limit is None:
        value_limit = 10_000
    report = _cli.audit_case_system(_cli.Family(args.p), value_limit=value_limit,
                                    m_limit=args.m_limit, n_limit=args.n_limit)
    for domain, depth, expected, got in report.mismatches:
        yield finding("mismatch", str(domain), "rule image disagrees with the generic step",
                      {"domain": domain, "depth": depth, "expected": expected, "got": got})
    return {"p": report.p, "checked": report.checked,
            "mismatches": len(report.mismatches)}


def cmd_cycles(args) -> Report:
    report = _cli.find_cycles(_cli.Family(args.p), args.seed_limit, max_steps=args.max_steps)
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
    report = _cli.two_to_one_audit(args.limit)
    for domain, image, problem in report.conflicts:
        if domain is None:  # the branch domains leave positions uncovered
            yield finding("violation", "domains", f"p=3 branch {problem}",
                          {"domain": None, "image": None})
        else:
            yield finding("violation", f"{domain}->{image}", f"p=3 branch {problem}",
                          {"domain": list(domain), "image": list(image)})
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
    report = _cli.string_scan(_cli.Family(args.p), args.limit, max_len=args.max_len)
    for orphan in report.orphans:
        yield finding("violation" if orphan.reason == "cycle" else "truncation",
                      str(orphan.position), f"{orphan.direction} walk {orphan.reason}",
                      {"position": orphan.position, "direction": orphan.direction,
                       "cycle": list(orphan.cycle) if orphan.cycle else None})
    return {"p": report.p, "limit": report.limit, "scanned": report.scanned,
            "orphans": len(report.orphans)}


def _check_recurrence(direction: str, x: int, steps: int) -> tuple[bool, dict]:
    sig, modulus = _cli.signature_class(direction, x, steps)  # one class walk
    found = _checked(x + modulus)  # the first recurrence
    predicted = x + sig.recurrence_gap
    data = {"x": x, "steps_requested": steps, "signature": list(sig.steps),
            "predicted": predicted, "found": found, "direction": direction}
    return found == predicted, data


def cmd_proportionality(args) -> Report:
    if args.cases < 0:
        raise ValueError(f"cases must be >= 0, got {args.cases}")
    if args.cases > MAX_TREE_NODES:  # refused before any case is checked
        raise ValueError(f"cases {args.cases} is above the cap of {MAX_TREE_NODES:.0e}")
    if args.x_max < 1 or args.n_max < 1:
        raise ValueError(f"x_max and n_max must be >= 1, got {args.x_max}, {args.n_max}")
    directions = (["forward", "backward"] if args.direction == "both"
                  else [args.direction])
    steps = len(directions) * (1 + args.cases) * args.n_max  # each class walk's at most
    if steps > MAX_TREE_NODES:
        raise ValueError(f"cases {args.cases} at n_max {args.n_max} need up to {steps} "
                         f"class-walk steps, above the cap of {MAX_TREE_NODES:.0e}")
    anchors = {"forward": (2, 2), "backward": (7, 4)}  # recurrences at 34 and 88
    import random
    rng = random.Random(args.seed)
    failures = 0
    # the anchors, then the random cases, each drawn as it is checked
    for direction, x, steps in chain(
            ((direction, *anchors[direction]) for direction in directions),
            ((direction, rng.randint(1, args.x_max), rng.randint(1, args.n_max))
             for direction in directions for _ in range(args.cases))):
        ok, data = _check_recurrence(direction, x, steps)
        failures += not ok
        yield finding("measurement" if ok else "violation", str(x),
                      f"first recurrence {'at' if ok else 'off'} the predicted spacing", data)
    return {"cases": len(directions) * (1 + args.cases), "failures": failures,
            "seed": args.seed}


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


_REQUIRED = {"type": int, "required": True}
_WALK = {"type": int, "default": DEFAULT_WALK_LIMIT}
_DIRECTION = {"choices": ("forward", "backward"), "required": True}

# The subcommands in the order the help lists them, each with its help and its
# options, (flags, help, add_argument keywords).  Each one's handler is cmd_<name>
# (- written _), but GRAPH_COMMAND writes DOT: no report, no handler, no --format.
# The keywords are those _plain_args understands: type (int), required,
# default, choices and action (store_true).
COMMANDS = {
    "passage": ("first-passage sweep through 3 mod 4", (
        ("--lo", None, _REQUIRED),
        ("--hi", None, _REQUIRED),
        ("--max-steps", None, _WALK),
        ("--checkpoint", f"checkpoint file (bare names join ${CHECKPOINT_DIR_ENV})", {}),
        ("--checkpoint-every", None, {"type": int, "default": 1 << 20}),
        ("--resume", None, {"action": "store_true"}),
        ("--budget", "max positions to process this run", {"type": int}))),
    "strings": ("chain partition audit", (
        ("--limit", None, _REQUIRED),
        ("--max-len", None, _WALK))),
    "evolve": ("progression evolution generations", (
        ("--direction", None, _DIRECTION),
        ("-k --generations", None, _REQUIRED))),
    "coverage": ("window counting identities", (
        ("--direction", None, _DIRECTION),
        ("-m", None, _REQUIRED),
        ("--window-start", None, {"type": int, "default": 2}),
        ("--random-starts", None, {"type": int, "default": 0}),
        ("--seed", None, {"type": int, "default": 0}))),
    "family-audit": ("published case system vs generic step", (
        ("-p", "family parameter, one of %(published)s", _REQUIRED),
        ("--value-limit", "cap rule instances by domain value (default 10000)", {"type": int}),
        ("--m-limit", "cap rule instances by progression index m", {"type": int}),
        ("--n-limit", None, {"type": int, "default": 4}))),
    "cycles": ("cycle search for a family", (
        ("-p", None, _REQUIRED),
        ("--seed-limit", None, {"type": int, "default": 1000}),
        ("--max-steps", None, _WALK))),
    "audit-3n3": ("two-predecessor audit of the p=3 map", (("--limit", None, _REQUIRED),)),
    "scan": ("chain membership scan for a family", (
        ("-p", None, _REQUIRED),
        ("--limit", None, _REQUIRED),
        ("--max-len", None, _WALK))),
    "proportionality": ("signature recurrence spacing checks", (
        ("--direction", None, {"choices": ("forward", "backward", "both"), "default": "both"}),
        ("--cases", None, {"type": int, "default": 200}),
        ("--x-max", None, {"type": int, "default": 10_000}),
        ("--n-max", None, {"type": int, "default": 6}),
        ("--seed", None, {"type": int, "default": 1}))),
    "export-graph": ("chains and equivalent links as DOT", (("--limit", None, _REQUIRED),)),
}
GRAPH_COMMAND = "export-graph"
_OUTPUT = ("--output", "write the report here instead of stdout", {})
_FORMAT = ("--format", None, {"choices": ("jsonl", "csv"), "default": "jsonl"})


def _options(command: str) -> tuple:
    """The command's options in the order the help lists them: --output,
    --format (but for GRAPH_COMMAND), then its own."""
    own = COMMANDS[command][1]
    return (_OUTPUT, *own) if command == GRAPH_COMMAND else (_OUTPUT, _FORMAT, *own)


def _handler(command: str):
    return getattr(_cli, f"cmd_{command.replace('-', '_')}")


def build_parser():
    """The argparse parser of every command.  Only a run whose argv is not
    well-formed (_plain_args) builds it, so it imports argparse and `family`."""
    import argparse
    published = str(sorted(_cli.CASE_SYSTEM_PARAMS))
    parser = argparse.ArgumentParser(
        prog="collatz-strings",
        description="Exact verification runs for the conjugated Collatz dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flags, option_help, keywords in _options(name):
            p.add_argument(*flags.split(), **keywords, help=option_help and
                           option_help.replace("%(published)s", published))
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """argv's namespace, equal to build_parser()'s, when argv is well-formed:
    a command, then each option once by an exact flag, with an int of ASCII
    digits (a leading - allowed), one of its choices, or a string that is
    not empty and does not start with -; and every required option.  None
    for any other argv, whose help, usage or error is argparse's."""
    if not argv or argv[0] not in COMMANDS:
        return None
    values = {"command": argv[0]}
    actions = {}  # flag: (dest, keywords)
    for flags, _, keywords in _options(argv[0]):
        flags = flags.split()
        dest = next((f for f in flags if f[1] == "-"), flags[0]).lstrip("-").replace("-", "_")
        values[dest] = keywords.get("default", False if "action" in keywords else None)
        actions |= dict.fromkeys(flags, (dest, keywords))
    given = set()
    words = iter(argv[1:])
    for flag in words:
        if flag not in actions or actions[flag][0] in given:
            return None
        dest, keywords = actions[flag]
        given.add(dest)
        if "action" in keywords:  # store_true
            values[dest] = True
            continue
        value = next(words, "")
        if "type" in keywords:
            if not (value.isascii() and value.removeprefix("-").isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # longer than int() converts
                return None
        elif "choices" in keywords:
            if value not in keywords["choices"]:
                return None
        elif not value or value[0] == "-":
            return None
        values[dest] = value
    if any(keywords.get("required") and dest not in given
           for dest, keywords in actions.values()):
        return None
    return SimpleNamespace(**values)


def _config_dict(args) -> dict:
    skip = {"command", "format", "output"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _report_stream(path: str | None):
    """Where the report goes: stdout, or `path` once the report is complete
    (`core.replace_on_success`).  A path that exists and is not a regular
    file (a device or a pipe, also through a symlink such as /dev/stdout) is
    written in place."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    if os.path.exists(path) and not os.path.isfile(path):  # both follow symlinks
        return open(path, "w", encoding="utf-8")
    return replace_on_success(path)


def _records(args) -> Generator[dict | str, None, None]:
    yield header_record(args.command, _config_dict(args))
    summary = yield from _handler(args.command)(args)
    yield summary_record(args.command, summary)


def _write_report(args, out) -> bool:
    """Stream the command's report to out; whether any finding failed.

    Dict records are rendered in batches of BATCH_RECORDS.  A text chunk,
    records a handler has rendered in args.format itself, is written as it
    is, after the records before it; its records are measurements.
    """
    failed = False
    column_row = True
    batch: list[dict] = []
    for record in chain(_records(args), ("",)):  # the empty chunk ends the last batch
        if isinstance(record, dict):
            batch.append(record)
            if len(batch) < BATCH_RECORDS:
                continue
        if batch:
            failed = failed or any(r.get("kind") in FAILING_KINDS for r in batch)
            out.write(render_csv(batch, column_row) if args.format == "csv"
                      else render_jsonl(batch))
            column_row = False
            batch = []
        if isinstance(record, str):
            out.write(record)
    return failed


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or build_parser().parse_args(argv)
    try:
        with _report_stream(args.output) as out:
            if args.command == GRAPH_COMMAND:
                out.write(export_graph(args.limit))
                failed = False
            else:
                failed = _write_report(args, out)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR
    except (OverflowError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its argument, quotes included
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_FINDINGS if failed else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
