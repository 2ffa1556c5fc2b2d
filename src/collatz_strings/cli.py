"""Command-line harness for the audits, sweeps, and the graph export.

Every command writes a deterministic report (JSON-lines by default, CSV
for flat tables): a header record with the effective configuration, one
record per finding, and a closing summary.  Exit status 0 means every
checked assertion held, 1 means at least one violation, mismatch, or
truncation was found, and 2 means the run itself could not proceed
(invalid configuration, a value outside the 128-bit working range, or
memory exhausted).

Each command's handler, cmd_<name> (- written _), is in the layer module it
reports on, which its row of COMMANDS names, so a run compiles only its own
command's.  It is a generator of the parsed arguments and this module,
whose attributes it calls (a test or a tracer may replace them): it checks
its arguments, yields its findings as they are made and returns the
summary.  `main` renders the records in batches of BATCH_RECORDS and writes
each batch as it is made, so a report's size does not bound the memory of a
run.  `evolve` yields its part measurements as text, a chunk of fixed-shape
lines (`reporting.render_parts`) per batch of the walk, which `main` writes
as they come.  A run that stops with status 2 has left on stdout the whole
records of the batches written before the error, a prefix of its report;
`--output` goes through a temporary file beside the target that replaces it
only once the summary is written, so a failed run leaves no report file.

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
from .core import DEFAULT_WALK_LIMIT, higher_equivalent, lower_step, replace_on_success
# finding and render_parts are for the handlers, as cli.finding and cli.render_parts
from .reporting import (FAILING_KINDS, finding, header_record, render_csv, render_jsonl,
                        render_parts, summary_record)

_cli = sys.modules[__name__]


EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

CHECKPOINT_DIR_ENV = "COLLATZ_STRINGS_CHECKPOINT_DIR"
GRAPH_CAP = 10_000
BATCH_RECORDS = 512  # dict records rendered and written at a time


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

# The subcommands in the order the help lists them, each with the layer module
# that holds its handler, cmd_<name> (- written _), its help and its options,
# (flags, help, add_argument keywords).  GRAPH_COMMAND writes DOT: no report,
# no handler (its layer is None), no --format.  The keywords are those
# _plain_args understands: type (int), required, default, choices and action
# (store_true).
COMMANDS = {
    "passage": ("strings", "first-passage sweep through 3 mod 4", (
        ("--lo", None, _REQUIRED),
        ("--hi", None, _REQUIRED),
        ("--max-steps", None, _WALK),
        ("--checkpoint", f"checkpoint file (bare names join ${CHECKPOINT_DIR_ENV})", {}),
        ("--checkpoint-every", None, {"type": int, "default": 1 << 20}),
        ("--resume", None, {"action": "store_true"}),
        ("--budget", "max positions to process this run", {"type": int}))),
    "strings": ("audits", "chain partition audit", (
        ("--limit", None, _REQUIRED),
        ("--max-len", None, _WALK))),
    "evolve": ("progressions", "progression evolution generations", (
        ("--direction", None, _DIRECTION),
        ("-k --generations", None, _REQUIRED))),
    "coverage": ("progressions", "window counting identities", (
        ("--direction", None, _DIRECTION),
        ("-m", None, _REQUIRED),
        ("--window-start", None, {"type": int, "default": 2}),
        ("--random-starts", None, {"type": int, "default": 0}),
        ("--seed", None, {"type": int, "default": 0}))),
    "family-audit": ("audits", "published case system vs generic step", (
        ("-p", "family parameter, one of %(published)s", _REQUIRED),
        ("--value-limit", "cap rule instances by domain value (default 10000)", {"type": int}),
        ("--m-limit", "cap rule instances by progression index m", {"type": int}),
        ("--n-limit", None, {"type": int, "default": 4}))),
    "cycles": ("walks", "cycle search for a family", (
        ("-p", None, _REQUIRED),
        ("--seed-limit", None, {"type": int, "default": 1000}),
        ("--max-steps", None, _WALK))),
    "audit-3n3": ("audits", "two-predecessor audit of the p=3 map",
                  (("--limit", None, _REQUIRED),)),
    "scan": ("walks", "chain membership scan for a family", (
        ("-p", None, _REQUIRED),
        ("--limit", None, _REQUIRED),
        ("--max-len", None, _WALK))),
    "proportionality": ("progressions", "signature recurrence spacing checks", (
        ("--direction", None, {"choices": ("forward", "backward", "both"), "default": "both"}),
        ("--cases", None, {"type": int, "default": 200}),
        ("--x-max", None, {"type": int, "default": 10_000}),
        ("--n-max", None, {"type": int, "default": 6}),
        ("--seed", None, {"type": int, "default": 1}))),
    "export-graph": (None, "chains and equivalent links as DOT", (("--limit", None, _REQUIRED),)),
}
GRAPH_COMMAND = "export-graph"

# The handlers, each from the layer its row names, the package's public names
# and the three private names the evolve handler calls.  Each is imported from
# its layer on its first access as an attribute of this module (`cli.<name>`
# in a handler, getattr or hasattr from outside) and kept in the module's
# namespace, where a test or a tracer can replace it; so a run compiles only
# the layers its command calls.
__getattr__ = _loader(globals(), _PUBLIC, {"progressions": ("_audit", "_families", "_proved")},
                      *({layer: (f"cmd_{name.replace('-', '_')}",)}
                        for name, (layer, _, _) in COMMANDS.items() if layer))

_OUTPUT = ("--output", "write the report here instead of stdout", {})
_FORMAT = ("--format", None, {"choices": ("jsonl", "csv"), "default": "jsonl"})


def _options(command: str) -> tuple:
    """The command's options in the order the help lists them: --output,
    --format (but for GRAPH_COMMAND), then its own."""
    own = COMMANDS[command][2]
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
    for name, (_, text, _) in COMMANDS.items():
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
    summary = yield from _handler(args.command)(args, _cli)
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
