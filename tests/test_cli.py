import contextlib
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from itertools import chain, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_audit_part, reference_families

import collatz_strings.audits as audits_module
import collatz_strings.cli as cli_module
import collatz_strings.family as family_module
import collatz_strings.progressions as progressions_module
import collatz_strings.recurrence as recurrence_module
import collatz_strings.strings as strings_module
from collatz_strings import Progression
from collatz_strings.cli import (
    BATCH_RECORDS,
    FAILING_KINDS,
    finding,
    header_record,
    main,
    render_csv,
    render_jsonl,
    summary_record,
)
from collatz_strings.core import DEFAULT_WALK_LIMIT, MAX_VALUE, require_tree_work


def run_cli(args, tmp_path, name="out"):
    out = os.path.join(tmp_path, f"{name}.jsonl")
    code = main(args + ["--output", out])
    with open(out, "r", encoding="utf-8") as fh:
        text = fh.read()
    return code, text


def records_of(text):
    return [json.loads(line) for line in text.splitlines()]


def test_report_shape_and_header(tmp_path):
    code, text = run_cli(["passage", "--lo", "2", "--hi", "100"], tmp_path)
    assert code == 0
    records = records_of(text)
    assert records[0]["record"] == "header"
    assert records[0]["schema"] == "collatz-strings-report"
    assert records[0]["version"] == 1
    assert records[0]["config"]["lo"] == 2
    assert records[-1]["record"] == "summary"
    assert records[-1]["hits"] == 99


def test_passage_truncation_exits_nonzero(tmp_path):
    code, text = run_cli(["passage", "--lo", "4", "--hi", "4", "--max-steps", "1"],
                         tmp_path)
    assert code == 1
    kinds = [r.get("kind") for r in records_of(text) if r["record"] == "finding"]
    assert kinds == ["truncation"]


def test_invalid_config_exits_2(tmp_path, capsys):
    assert main(["passage", "--lo", "1", "--hi", "10"]) == 2
    assert main(["family-audit", "-p", "4"]) == 2
    assert main(["export-graph", "--limit", "20000"]) == 2
    ck = os.path.join(tmp_path, "never.ckpt")
    assert main(["passage", "--lo", "5", "--hi", "100", "--budget", "-5",
                 "--checkpoint", ck]) == 2
    assert main(["passage", "--lo", "5", "--hi", "100", "--checkpoint-every", "0",
                 "--checkpoint", ck]) == 2
    assert not os.path.exists(ck)
    capsys.readouterr()
    huge_value = ("family-audit", "-p", "5", "--value-limit", str(MAX_VALUE), "--n-limit", "0")
    nested = os.path.join(tmp_path, "nested.ckpt")  # nested deeper than the JSON parser's stack
    with open(nested, "w") as fh:
        fh.write("[" * 200_000 + "]" * 200_000)
    resume_nested = ("passage", "--lo", "2", "--hi", "100", "--checkpoint", nested, "--resume")
    exact = {("family-audit", "-p", "39"): "error: no transcribed system for p=39\n",
             huge_value: "error: the case audit needs about 2.6e+38 checks, "
                         "above the cap of 1e+08\n",
             ("family-audit", "-p", "7", "--value-limit", "1", "--n-limit", str(10 ** 8)):
                 "error: the case audit needs about 1e+08 checks, above the cap of 1e+08\n",
             resume_nested: f"error: {nested} is not a collatz-strings-checkpoint file\n"}
    for p, count in ((10 ** 8 + 1, 12_500_000), (10 ** 21 + 1, 125 * 10 ** 18)):
        exact[("scan", "-p", str(p), "--limit", "10")] = (
            f"error: p {p} has {count} exceptional positions, above the backward scan's "
            "cap of 1e+06\n")
    seeds, limit = str(10 ** 350), str(10 ** 450)
    nodes = "class-tree nodes, above the cap of 1e+08\n"
    exact.update({  # work estimates beyond the range of a float
        ("cycles", "-p", "5", "--seed-limit", seeds):
            f"error: seed_limit {seeds} needs about 3e+315 {nodes}",
        ("scan", "-p", "5", "--limit", limit):
            f"error: limit {limit} needs about 8.6e+314 {nodes}",
        ("strings", "--limit", limit): f"error: limit {limit} needs about 1.3e+315 {nodes}"})
    wide = ("passage", "--lo", "2", "--hi", str(10 ** 30))  # a window of 10^30 - 1 positions
    exact.update({
        wide: f"error: window {10 ** 30 - 1} needs about 1.7e+21 {nodes}",
        ("proportionality", "--cases", str(10 ** 12)):
            f"error: cases {10 ** 12} is above the cap of 1e+08\n",
        ("proportionality", "--cases", "20000000"):  # 2 directions of 6 steps a case
            "error: cases 20000000 at n_max 6 need up to 240000012 class-walk steps, "
            "above the cap of 1e+08\n",
        ("coverage", "--direction", "backward", "-m", "16"):  # a window of 4^16 positions
            "error: -m 16 with 0 random starts marks 4294967296 window positions, "
            "4294967298 with 2 for each window's set-up, above the cap of 1e+08\n",
        ("coverage", "--direction", "forward", "-m", "1", "--random-starts", "30000000"):
            "error: -m 1 with 30000000 random starts marks 90000003 window positions, "
            "150000005 with 2 for each window's set-up, above the cap of 1e+08\n"})
    for argv in (*map(list, exact),
                 ["strings", "--limit", "30", "--max-len", "-3"],
                 ["scan", "-p", "5", "--limit", "20", "--max-len", "-1"],
                 ["cycles", "-p", "5", "--seed-limit", "5", "--max-steps", "-1"],
                 ["proportionality", "--cases", "-3"],
                 ["proportionality", "--cases", "0", "--x-max", "-5", "--n-max", "0"],
                 ["proportionality", "--cases", "1", "--x-max", "0"],
                 ["strings", "--limit", "1"],
                 ["coverage", "--direction", "forward", "-m", "2", "--random-starts", "-4"],
                 ["coverage", "--direction", "forward", "-m", "100000"],
                 ["coverage", "--direction", "forward", "-m", "2", "--random-starts", str(2 ** 128)],
                 ["family-audit", "-p", "7", "--n-limit", "-1"],
                 ["family-audit", "-p", "7", "--value-limit", "-5"],
                 ["family-audit", "-p", "7", "--m-limit", "-1"],
                 # 10^29 is proved on each rule's class and accepted; at 10^36
                 # each proof fails at the 128-bit premise, so each is stepped
                 ["family-audit", "-p", "5", "--m-limit", str(10 ** 36)],
                 ["strings", "--limit", str(10 ** 29)],
                 ["strings", "--limit", str(10 ** 12)],
                 ["scan", "-p", "5", "--limit", str(10 ** 29)],
                 ["scan", "-p", "5", "--limit", str(10 ** 11)],
                 ["evolve", "--direction", "forward", "-k", "27"],
                 ["evolve", "--direction", "backward", "-k", "27"],
                 ["cycles", "-p", "5", "--seed-limit", str(10 ** 29)],
                 ["audit-3n3", "--limit", str(10 ** 40)],
                 ["coverage", "--direction", "forward", "-m", "40"],
                 ["coverage", "--direction", "backward", "-m", "32"],
                 ["export-graph", "--limit", "0"],
                 ["coverage", "--direction", "forward", "-m", "0"],
                 ["passage", "--lo", "2", "--hi", "10", "--max-steps", "0"],
                 ["passage", "--lo", "2", "--hi", str(2 ** 129)],
                 ["passage", "--lo", "2", "--hi", "10", "--resume"],
                 ["cycles", "-p", "5", "--seed-limit", "0"],
                 ["audit-3n3", "--limit", "1"],
                 ["scan", "-p", "5", "--limit", "0"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)
        assert out == "" and err.count("\n") == 1, (argv, out, err)
        assert exact.get(tuple(argv), err) == err, argv
    # an estimate whose mantissa rounds up to 10 carries into the exponent
    with pytest.raises(ValueError, match=r"^limit 10000000000 needs about 1e\+09 class-tree "):
        require_tree_work("limit", 10 ** 10, 9.96e4, 10)
    os.remove(nested)
    assert main([*wide, "--budget", "1000"]) == 0  # the cap counts the positions of this run
    capsys.readouterr()
    out = os.path.join(tmp_path, "never.jsonl")
    assert main(["evolve", "--direction", "forward", "-k", "-1", "--output", out]) == 2
    assert os.listdir(tmp_path) == []
    capsys.readouterr()


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.jsonl"
    assert main(["strings", "--limit", "27", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("option", [["--output"], ["--budget", "3", "--checkpoint"]],
                         ids=["output", "checkpoint"])
def test_a_missing_directory_is_named_by_the_path_given(tmp_path, monkeypatch, capsys,
                                                        option):
    # not by the temporary file beside it, which the user never named; nor
    # does a failed write leave that file behind, beside a directory given
    # as the target or in the parent of the cwd for an empty path; and the
    # path is refused before any position is swept
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COLLATZ_STRINGS_CHECKPOINT_DIR", raising=False)
    monkeypatch.setattr(strings_module, "_sweep_range", None)
    os.mkdir(tmp_path / "directory")
    parent = sorted(os.listdir(tmp_path.parent))
    directory = "[Errno 21] Is a directory"
    for path, error in ((str(tmp_path / "missing" / "x"), "[Errno 2] No such file or directory"),
                        (str(tmp_path / "directory"), directory), ("directory", directory),
                        (".", directory), ("..", directory), ("directory/.", directory),
                        ("", "no file name")):
        assert main(["passage", "--lo", "2", "--hi", "100", *option, path]) == 2, path
        assert capsys.readouterr().err == f"error: {error}: {path!r}\n"
        assert os.listdir(tmp_path) == ["directory"], path
        assert os.listdir(tmp_path / "directory") == [], path
        assert sorted(os.listdir(tmp_path.parent)) == parent, path
    # an empty checkpoint name is no bare name to join to the checkpoint directory
    monkeypatch.setenv("COLLATZ_STRINGS_CHECKPOINT_DIR", str(tmp_path / "directory"))
    assert main(["passage", "--lo", "2", "--hi", "100", *option, ""]) == 2
    assert capsys.readouterr().err == "error: no file name: ''\n"


def test_a_failure_on_the_temporary_file_is_named_by_the_path_given(tmp_path, monkeypatch,
                                                                     capsys):
    # a directory where the report's temporary file goes: the error names
    # the path given, and no report is left
    monkeypatch.chdir(tmp_path)
    os.mkdir(".r.jsonl.tmp")
    assert main(["strings", "--limit", "10", "--output", "r.jsonl"]) == 2
    assert capsys.readouterr().err == "error: [Errno 21] Is a directory: 'r.jsonl'\n"
    assert os.listdir(tmp_path) == [".r.jsonl.tmp"]


def fake_scan(monkeypatch, findings, error=None):
    """Make `scan` report `findings` numbered measurements, then raise error."""
    def handler(args, cli):
        for i in range(findings):
            yield finding("measurement", str(i), "fake", {"i": i})
        if error is not None:
            raise error
        return {"findings": findings}
    monkeypatch.setattr(cli_module, "cmd_scan", handler)
    records = [header_record("scan", {"limit": 1, "max_len": DEFAULT_WALK_LIMIT, "p": 5})]
    records += [finding("measurement", str(i), "fake", {"i": i}) for i in range(findings)]
    return records + [summary_record("scan", {"findings": findings})]


SCAN = ["scan", "-p", "5", "--limit", "1"]


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_batched_reports_equal_one_shot_rendering(tmp_path, monkeypatch, capsys, fmt):
    render = render_csv if fmt == "csv" else render_jsonl
    for count in (BATCH_RECORDS - 1, BATCH_RECORDS, BATCH_RECORDS + 1):
        records = fake_scan(monkeypatch, count - 2)
        out = tmp_path / f"{count}.{fmt}"
        assert main(SCAN + ["--format", fmt, "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == render(records), count
        assert main(SCAN + ["--format", fmt]) == 0
        assert capsys.readouterr().out == render(records), count


def test_a_run_failing_mid_stream_leaves_no_report(tmp_path, monkeypatch, capsys):
    records = fake_scan(monkeypatch, 2 * BATCH_RECORDS + 500, ValueError("stop"))
    out = tmp_path / "r.jsonl"
    assert main(SCAN + ["--output", str(out)]) == 2
    assert os.listdir(tmp_path) == []
    out.write_text("earlier report\n", encoding="utf-8")
    assert main(SCAN + ["--output", str(out)]) == 2
    assert os.listdir(tmp_path) == ["r.jsonl"]
    assert out.read_text(encoding="utf-8") == "earlier report\n"
    # stdout has had the batches written before the failure
    capsys.readouterr()
    assert main(SCAN) == 2
    captured = capsys.readouterr()
    assert captured.out == render_jsonl(records[:2 * BATCH_RECORDS])
    assert captured.err == "error: stop\n"


def test_memory_error_exits_2(tmp_path, monkeypatch, capsys):
    fake_scan(monkeypatch, 3, MemoryError())
    out = tmp_path / "r.jsonl"
    assert main(SCAN + ["--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: out of memory\n"
    assert os.listdir(tmp_path) == []


def test_output_follows_symlinks_and_writes_pipes_in_place(tmp_path):
    argv = ["evolve", "--direction", "forward", "-k", "2", "--output"]
    expected = run_cli(argv[:-1], tmp_path)[1]
    (tmp_path / "reports").mkdir()
    link = tmp_path / "latest"
    link.symlink_to(tmp_path / "reports" / "r.jsonl")
    assert main(argv + [str(link)]) == 0
    assert link.is_symlink() and link.read_text(encoding="utf-8") == expected
    assert os.listdir(tmp_path / "reports") == ["r.jsonl"]
    # so is a checkpoint: the link stays a link, its target holds the checkpoint
    ckpt = tmp_path / "sweep.ckpt"
    ckpt.symlink_to(tmp_path / "reports" / "c.ckpt")
    base = f"passage --lo 2 --hi 5000 --max-steps 3 --checkpoint {ckpt}".split()
    for extra, (code, _, checkpoint) in PINNED_CHECKPOINT_RUNS.items():
        assert run_cli(base + extra.split(), tmp_path)[0] == code, extra
        assert ckpt.is_symlink() and _sha256_of(ckpt) == checkpoint, extra
    assert sorted(os.listdir(tmp_path / "reports")) == ["c.ckpt", "r.jsonl"]
    # a pipe is not replaced by a file: its reader gets the report
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text("utf-8")),
                              daemon=True)
    reader.start()
    assert main(argv + [str(pipe)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and received == [expected]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_output_to_dev_stdout_through_a_pipe():
    # /dev/stdout is a symlink to the process's standard output, here a pipe
    argv = [sys.executable, "-m", "collatz_strings", "family-audit", "-p", "5"]
    env = dict(os.environ, PYTHONPATH=SRC)
    plain = subprocess.run(argv, capture_output=True, env=env)
    piped = subprocess.run(argv + ["--output", "/dev/stdout"], capture_output=True, env=env)
    assert plain.returncode == 0 and plain.stdout
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, plain.stdout, b"")


def test_evolve_memory_stays_flat(tmp_path):
    # a breadth-first evolve that holds all 4096 parts, their findings and
    # the rendered report peaks at 3.6 MiB here
    out = tmp_path / "r.jsonl"
    tracemalloc.start()
    try:
        assert main(["evolve", "--direction", "forward", "-k", "12", "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert len(records_of(out.read_text(encoding="utf-8"))) == 4096 + 2


def reference_evolve_records(args):
    """The records of an evolve run, a dict each, walked and audited part by
    part by the references: through the encoders, the oracle of evolve's
    fixed-shape lines."""
    direction = args.direction
    yield header_record("evolve", cli_module._config_dict(args))
    part_bad = []
    bound_bad = []
    count = 0
    seeds, maps = family_module.PROCESSES[direction]
    for part, kids in reference_families(seeds, maps, args.generations):
        a, b = part
        yield finding("measurement", f"part[{count}]", str(part),
                      {"intercept": a, "interval": b})
        count += 1
        bad, over = reference_audit_part(direction, part, kids)
        if bad:
            part_bad.append(part)
        bound_bad += [(part, child) for child in over]
    for part in part_bad:
        yield finding("violation", str(part), "intercept not below interval",
                      {"intercept": part.intercept, "interval": part.interval})
    for parent, child in bound_bad:
        yield finding("violation", str(child), "child intercept exceeds recursion bound",
                      {"parent": str(parent), "child": str(child)})
    yield summary_record("evolve", {
        "direction": direction, "generation": args.generations,
        "parts": count, "intercepts_ok": not part_bad and not bound_bad})


def reference_evolve(argv):
    """(exit code, report) of an evolve run, its dict records rendered in one shot."""
    args = cli_module.build_parser().parse_args(argv)
    records = list(reference_evolve_records(args))
    code = 1 if any(r.get("kind") in FAILING_KINDS for r in records) else 0
    return code, (render_csv if args.format == "csv" else render_jsonl)(records)


COLUMN_ROW = "record,kind,location,details,data\n"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_evolve_reports_equal_the_dict_record_oracle(tmp_path, capsys, direction, fmt):
    # k = 9 is exactly one chunk of parts, k = 10 two
    out = tmp_path / "r"
    for k in range(13):
        argv = ["evolve", "--direction", direction, "-k", str(k), "--format", fmt]
        expected = reference_evolve(argv)
        assert (main(argv + ["--output", str(out)]), out.read_text(encoding="utf-8")) \
            == expected, k
        if k in (9, 10):
            assert (main(argv), capsys.readouterr().out) == expected, k
        assert expected[1].count(COLUMN_ROW) == (fmt == "csv"), k


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_evolve_proof_gives_the_per_part_audit_report(tmp_path, monkeypatch, direction, fmt):
    # the proved run never calls the per-part audit; with the premise check
    # made to fail, every batch is audited part by part, to the same bytes
    out = tmp_path / "r"

    def report(argv):
        code = main(argv + ["--output", str(out)])
        return code, out.read_text(encoding="utf-8")

    audit = cli_module._audit
    for k in range(13):
        argv = ["evolve", "--direction", direction, "-k", str(k), "--format", fmt]
        monkeypatch.setattr(cli_module, "_audit", None)
        proved = report(argv)
        monkeypatch.setattr(cli_module, "_audit", audit)
        monkeypatch.setattr(cli_module, "_proved", lambda *premises: False)
        assert report(argv) == proved, k
        monkeypatch.undo()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_evolve_violations_follow_every_chunk(tmp_path, monkeypatch, fmt):
    # from the seed {40+3t}, generation 10 has two parts with intercept >=
    # interval and generation 11 also a child over the recursion bound; from
    # {3+3t}, generation 10 has one part {3^11+3^11t}, intercept = interval
    out = tmp_path / "r"
    for seed, k, violations in (((40, 3), 10, 2), ((40, 3), 11, 3), ((3, 3), 10, 1)):
        monkeypatch.setitem(family_module.PROCESSES, "forward",
                            ((Progression(*seed),), family_module.FORWARD_MAPS))
        argv = ["evolve", "--direction", "forward", "-k", str(k), "--format", fmt]
        code, text = reference_evolve(argv)
        assert main(argv + ["--output", str(out)]) == code == 1
        assert out.read_text(encoding="utf-8") == text
        lines = text.splitlines()
        assert sum("violation" in line for line in lines[-violations - 1:]) == violations
        assert text.count(COLUMN_ROW) == (fmt == "csv")


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_evolve_failing_mid_walk_writes_whole_records(tmp_path, monkeypatch, capsys, fmt):
    argv = ["evolve", "--direction", "forward", "-k", "11", "--format", fmt]
    expected = reference_evolve(argv)[1]
    families = progressions_module._families

    def failing(*walk):  # k = 11 is four batches of BATCH_RECORDS parts
        for i, batch in enumerate(families(*walk)):
            if i == 2:
                raise ValueError("stop")
            yield batch

    monkeypatch.setattr(cli_module, "_families", failing)
    out = tmp_path / "r"
    assert main(argv + ["--output", str(out)]) == 2
    assert os.listdir(tmp_path) == []
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: stop\n"
    # the header (and column row) and the two chunks written before the error
    head = 1 + (fmt == "csv") + 2 * BATCH_RECORDS
    assert captured.out == "".join(expected.splitlines(keepends=True)[:head])


@pytest.mark.skipif(not os.environ.get("COLLATZ_STRINGS_LONG"),
                    reason="set COLLATZ_STRINGS_LONG=1 for the evolve report check at k = 18")
@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_long_evolve_reports_equal_the_dict_record_oracle(tmp_path, direction, fmt):
    # 2^18 dict records would take hundreds of MiB at once, so the oracle's
    # report is rendered in batches, which give the bytes of one shot
    argv = ["evolve", "--direction", direction, "-k", "18", "--format", fmt]
    out = os.path.join(tmp_path, "r")
    code = main(argv + ["--output", out])
    records = reference_evolve_records(cli_module.build_parser().parse_args(argv))
    digest = hashlib.sha256()
    failed = False
    column_row = True
    while batch := list(islice(records, 4096)):
        failed = failed or any(r.get("kind") in FAILING_KINDS for r in batch)
        digest.update((render_csv(batch, column_row) if fmt == "csv"
                       else render_jsonl(batch)).encode("utf-8"))
        column_row = False
    assert (code, _sha256_of(out)) == (int(failed), digest.hexdigest())


def test_export_graph_has_no_format_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["export-graph", "--limit", "5", "--format", "csv"])
    assert exc.value.code == 2
    out = tmp_path / "g.dot"
    assert main(["export-graph", "--limit", "5", "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("digraph chains {")


def parse_outcome(parse, argv):
    """parse(argv)'s Namespace, or the exit code and text of its SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


# per command, a valid argv and one with a value that is not an integer
PARSER_ARGV = {
    "passage": ("--lo 2 --hi 9 --checkpoint c --resume --budget 3", "--lo 2 --hi x"),
    "strings": ("--limit 10 --max-len 5 --format csv", "--limit x"),
    "evolve": ("--direction forward -k 3", "--direction forward -k x"),
    "coverage": ("--direction backward -m 2 --random-starts 1 --seed 4", "-m x"),
    "family-audit": ("-p 7 --m-limit 3 --n-limit 2", "-p x"),
    "cycles": ("-p 5 --seed-limit 10 --output r", "--seed-limit x"),
    "audit-3n3": ("--limit 10", "--limit 1.5"),
    "scan": ("-p 7 --limit 10 --max-len 4", "-p 7 --limit x"),
    "proportionality": ("--direction both --cases 3 --x-max 5", "--n-max x"),
    "export-graph": ("--limit 10 --output g", "--limit x"),
}
PARSER = cli_module.build_parser()


@pytest.mark.parametrize("command", cli_module.COMMANDS)
def test_one_subparser_parses_as_all_of_them(command):
    # _plain_args reads only the named command's own options, like a parser
    # with that one subparser; it parses as the parser of all of them
    valid, not_integer = PARSER_ARGV[command]
    plain = cli_module._plain_args([command, *valid.split()])
    assert vars(plain) == vars(PARSER.parse_args([command, *valid.split()]))
    assert plain.command == command
    # the help, a missing required option (proportionality has none, so it
    # parses), a value that is not an integer, a bad choice (export-graph
    # has no --format, so the whole parser refuses it) and an extra word go
    # to argparse, which a run then uses
    for argv, code in (([command, "--help"], 0),
                       ([command], None if command == "proportionality" else 2),
                       ([command, *not_integer.split()], 2),
                       ([command, *valid.split(), "--format", "xml"], 2),
                       ([command, *valid.split(), "extra"], 2)):
        if code is None:
            assert vars(cli_module._plain_args(argv)) == vars(PARSER.parse_args(argv))
            continue
        assert cli_module._plain_args(argv) is None, argv
        outcome = parse_outcome(main, argv)
        assert outcome == parse_outcome(PARSER.parse_args, argv), argv
        # the help on stdout, an error on stderr
        assert outcome[0] == code and outcome[1 + bool(code)], argv


def option_words(draw, flags, keywords):
    """One option of a well-formed argv: a flag and, but for store_true, a
    value of its kind."""
    flag = draw(st.sampled_from(flags.split()))
    if "action" in keywords:
        return [flag]
    if "type" in keywords:  # ints of up to 40 digits, leading zeros and -0 too
        return [flag, draw(st.from_regex(r"-?[0-9]{1,40}", fullmatch=True))]
    if "choices" in keywords:
        return [flag, draw(st.sampled_from(keywords["choices"]))]
    return [flag, draw(st.text(min_size=1).filter(lambda path: path[0] != "-"))]


@st.composite
def well_formed_argv(draw):
    command = draw(st.sampled_from(list(cli_module.COMMANDS)))
    options = [option_words(draw, flags, keywords)
               for flags, _, keywords in cli_module._options(command)
               if keywords.get("required") or draw(st.booleans())]
    return [command, *chain.from_iterable(draw(st.permutations(options)))]


@given(well_formed_argv())
@settings(max_examples=300, deadline=None)
def test_the_plain_parse_equals_argparse(argv):
    plain = cli_module._plain_args(argv)
    assert plain is not None, argv
    assert vars(plain) == vars(PARSER.parse_args(argv))


# argv that _plain_args leaves to argparse, which prints the help or an error
@pytest.mark.parametrize("argv, code", [
    ([], 2),
    (["-h"], 0),
    (["--help"], 0),
    (["no-such-command"], 2),
    (["--", "scan", "-p", "7", "--limit", "10"], 2),
    (["scan", "-h"], 0),
    (["scan", "-p", "7", "--limit", "ten"], 2),
    (["evolve", "--direction", "sideways", "-k", "1"], 2),
    (["passage", "--lo", "2", "--hi", "9" * 4301], 2),  # longer than int() converts
    (["scan", "-p", "7", "--limit", "10", "extra"], 2),
    (["scan", "-p", "7"], 2),
    (["scan", "-p", "7", "--limit"], 2),
    (["scan", "-p", "7", "--limit", "10", "--format", "xml"], 2),
    (["export-graph", "--limit", "5", "--format", "csv"], 2),
    (["export-graph", "--limit", "5", "--output", "--limit"], 2),
], ids=lambda value: ("_".join(value)[:40] or "none") if isinstance(value, list) else None)
def test_an_argv_that_is_not_well_formed_goes_to_argparse(argv, code):
    assert cli_module._plain_args(argv) is None
    outcome = parse_outcome(main, argv)
    assert outcome == parse_outcome(PARSER.parse_args, argv)
    assert outcome[0] == code and outcome[1 + bool(code)]


# argv that _plain_args leaves to argparse, which reads them as the second
@pytest.mark.parametrize("argv, same", [
    ("scan -p 7 --lim 10", "scan -p 7 --limit 10"),  # an abbreviation
    ("scan -p 7 --limit=10", "scan -p 7 --limit 10"),
    ("scan -p7 --limit 10", "scan -p 7 --limit 10"),
    ("scan -p 5 --limit 10 -p 7", "scan -p 7 --limit 10"),  # the last one counts
    ("evolve --direction forward -k 1 --generations 2", "evolve --direction forward -k 2"),
    # int() takes a sign, underscores and other digits than ASCII
    ("passage --lo +2 --hi 1_\u0660", "passage --lo 2 --hi 10"),
], ids=lambda value: value[:40])
def test_an_argv_that_argparse_alone_reads_runs_as_it_did(tmp_path, argv, same):
    argv, same = argv.split(), same.split()
    assert cli_module._plain_args(argv) is None
    assert vars(PARSER.parse_args(argv)) == vars(cli_module._plain_args(same))
    assert run_cli(argv, tmp_path, "a") == run_cli(same, tmp_path, "b")


def test_every_option_keyword_is_one_the_plain_parse_reads():
    for command in cli_module.COMMANDS:
        for flags, _, keywords in cli_module._options(command):
            assert set(keywords) <= {"type", "required", "default", "choices", "action"}, flags
            assert keywords.get("type", int) is int and \
                keywords.get("action", "store_true") == "store_true", flags
            assert all(flag.startswith("-") and len(flag) > 1 for flag in flags.split())


@pytest.mark.parametrize("argv", [["--help"], [], ["no-such-command"], ["--", "scan"]],
                         ids=["help", "none", "unknown", "dashes"])
def test_a_run_without_a_command_first_builds_every_subparser(argv):
    outcome = parse_outcome(main, argv)
    assert outcome == parse_outcome(cli_module.build_parser().parse_args, argv)
    assert "{%s}" % ",".join(cli_module.COMMANDS) in outcome[1 + bool(outcome[0])]


def test_every_command_but_the_graph_export_has_a_handler():
    # each handler is looked up as cmd_<name>, - written _, a generator
    # function of its layer module, and every cmd_ function of a layer is
    # the handler of a command
    handlers = {command: cli_module._handler(command) for command in cli_module.COMMANDS
                if command != cli_module.GRAPH_COMMAND}
    for command, handler in handlers.items():
        assert handler.__name__ == f"cmd_{command.replace('-', '_')}"
        assert inspect.isgeneratorfunction(handler), command
        assert getattr(sys.modules[handler.__module__], handler.__name__) is handler
    layers = {sys.modules[handler.__module__] for handler in handlers.values()}
    assert sorted(name for layer in layers for name in vars(layer) if name.startswith("cmd_")) \
        == sorted(handler.__name__ for handler in handlers.values())
    with pytest.raises(AttributeError):
        cli_module._handler(cli_module.GRAPH_COMMAND)


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_evolve_emits_published_parts(tmp_path):
    code, text = run_cli(["evolve", "--direction", "forward", "-k", "2"], tmp_path)
    assert code == 0
    parts = [(r["data"]["intercept"], r["data"]["interval"])
             for r in records_of(text) if r["record"] == "finding"]
    assert parts == [(18, 27), (16, 27), (6, 27), (10, 27)]


def test_coverage_command(tmp_path):
    code, text = run_cli(["coverage", "--direction", "forward", "-m", "3",
                          "--random-starts", "5", "--seed", "11"], tmp_path)
    assert code == 0
    summary = records_of(text)[-1]
    assert summary["expected_included"] == 19
    assert summary["mismatches"] == 0


def test_family_audit_command(tmp_path):
    code, text = run_cli(["family-audit", "-p", "23", "--value-limit", "500"], tmp_path)
    assert code == 0
    assert records_of(text)[-1]["mismatches"] == 0


def test_cycles_command(tmp_path):
    code, text = run_cli(["cycles", "-p", "-1", "--seed-limit", "100"], tmp_path)
    assert code == 0
    cycles = [tuple(r["data"]["members"]) for r in records_of(text)
              if r["record"] == "finding"]
    assert (3, 4) in cycles
    # a walk that reaches a nonpositive image is a truncation finding, as in scan
    code, text = run_cli(["cycles", "-p", "-11", "--seed-limit", "20"], tmp_path)
    records = records_of(text)
    rejected = [r for r in records if r["record"] == "finding"
                and r["details"] == "walk reached a nonpositive image"]
    assert code == 1
    assert len(rejected) == records[-1]["rejected_seeds"] > 0
    assert all(r["kind"] == "truncation" for r in rejected)


def test_audit_3n3_command(tmp_path):
    code, text = run_cli(["audit-3n3", "--limit", "3000"], tmp_path)
    assert code == 0
    summary = records_of(text)[-1]
    assert summary["count_violations"] == 0 and summary["pairing_violations"] == 0


def test_audit_3n3_proves_a_huge_limit(tmp_path):
    # the images are counted as classes, so 10^29 costs what 3000 does
    code, text = run_cli(["audit-3n3", "--limit", str(10 ** 29)], tmp_path)
    assert code == 0
    summary = records_of(text)[-1]
    del summary["record"], summary["command"]
    assert summary == {"limit": 10 ** 29, "count_violations": 0, "pairing_violations": 0}


def test_scan_command_reports_orphans(tmp_path):
    code, text = run_cli(["scan", "-p", "-1", "--limit", "100"], tmp_path)
    assert code == 1
    positions = {r["data"]["position"] for r in records_of(text)
                 if r["record"] == "finding"}
    assert {3, 4} <= positions


def test_proportionality_command(tmp_path):
    code, text = run_cli(["proportionality", "--cases", "20", "--seed", "1"], tmp_path)
    assert code == 0
    summary = records_of(text)[-1]
    assert summary["failures"] == 0
    # the two fixed anchor cases ride along with the seeded draws
    anchors = [r for r in records_of(text) if r["record"] == "finding"
               and r["data"]["x"] in (2, 7) and r["data"]["found"] in (34, 88)]
    assert len(anchors) >= 2


def test_strings_command(tmp_path):
    code, text = run_cli(["strings", "--limit", "2000"], tmp_path)
    assert code == 0
    summary = records_of(text)[-1]
    assert summary["truncated"] == 0 and summary["conflicts"] == 0


def test_reports_are_deterministic(tmp_path):
    args = ["coverage", "--direction", "backward", "-m", "3",
            "--random-starts", "8", "--seed", "3"]
    _, first = run_cli(args, tmp_path, "a")
    _, second = run_cli(args, tmp_path, "b")
    assert first == second


def test_determinism_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "collatz_strings", "proportionality",
           "--cases", "10", "--seed", "5"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0 and a.stdout == b.stdout


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_csv_format(tmp_path):
    out = os.path.join(tmp_path, "report.csv")
    code = main(["evolve", "--direction", "backward", "-k", "1",
                 "--format", "csv", "--output", out])
    assert code == 0
    with open(out, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "record,kind,location,details,data"
    assert any("{2+8t}" in line for line in lines)


def test_export_graph_content(capsys):
    assert main(["export-graph", "--limit", "30"]) == 0
    text = capsys.readouterr().out
    for edge in ("5 -> 4;", "4 -> 6;", "6 -> 9;", "9 -> 7;"):
        assert edge in text
    assert "2 -> 7 [style=dashed];" in text
    assert "1 -> 1;" in text  # the fixed point keeps its self-loop


def test_cli_resume_equivalence(tmp_path):
    ck = os.path.join(tmp_path, "sweep.ckpt")
    _, whole = run_cli(["passage", "--lo", "2", "--hi", "5000"], tmp_path, "whole")
    code, partial = run_cli(["passage", "--lo", "2", "--hi", "5000",
                             "--checkpoint", ck, "--budget", "2000"], tmp_path, "part")
    assert code == 0
    assert records_of(partial)[-1]["complete"] is False
    _, resumed = run_cli(["passage", "--lo", "2", "--hi", "5000",
                          "--checkpoint", ck, "--resume"], tmp_path, "resumed")
    whole_summary = records_of(whole)[-1]
    resumed_summary = records_of(resumed)[-1]
    assert resumed_summary == whole_summary
    assert resumed_summary["complete"] is True


def test_checkpoint_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("COLLATZ_STRINGS_CHECKPOINT_DIR", str(tmp_path))
    code, _ = run_cli(["passage", "--lo", "2", "--hi", "100",
                       "--checkpoint", "bare-name.ckpt"], tmp_path)
    assert code == 0
    assert os.path.exists(os.path.join(tmp_path, "bare-name.ckpt"))


def test_checkpoint_file_is_canonical_json(tmp_path):
    ck = os.path.join(tmp_path, "sweep.ckpt")
    run_cli(["passage", "--lo", "2", "--hi", "300", "--checkpoint", ck], tmp_path)
    with open(ck, "r", encoding="ascii") as fh:
        line = fh.read()
    record = json.loads(line)
    assert record["format"] == "collatz-strings-checkpoint"
    assert record["version"] == 1
    assert record["direction"] == "forward"
    assert record["last_completed"] == 300
    assert json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" == line


def test_family_audit_m_limit_flag(tmp_path):
    code, text = run_cli(["family-audit", "-p", "7", "--m-limit", "1000"], tmp_path)
    assert code == 0
    assert records_of(text)[-1]["mismatches"] == 0


def test_family_audit_skips_a_rule_with_no_instance_at_any_depth():
    # at --value-limit 1 most p=5 rules have no instance; were each still
    # proved on its class at every depth, the run would take minutes (the
    # class's numbers grow 4-fold a depth); the one instance steps out of
    # the 128-bit range
    run = subprocess.run([sys.executable, "-m", "collatz_strings", "family-audit", "-p", "5",
                          "--value-limit", "1", "--n-limit", "1000000"],
                         capture_output=True, text=True, timeout=10,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert (run.returncode, run.stdout, run.stderr) == \
        (2, "", "error: value exceeds the 128-bit working range\n")


def findings_of(text):
    return [(r["kind"], r["details"], r["data"])
            for r in records_of(text) if r["record"] == "finding"]


# Failure paths: each command under a fault (or a zero budget) must exit 1
# and name every finding, with its kind, details and data.

def test_cycles_zero_step_budget_truncates_every_seed(tmp_path):
    code, text = run_cli(["cycles", "-p", "5", "--seed-limit", "3", "--max-steps", "0"],
                         tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("truncation", "walk neither cycled nor dipped below its seed", {"seed": seed})
        for seed in (1, 2, 3)]


def test_evolve_reports_part_and_child_bound_violations(tmp_path, monkeypatch):
    # {40+3t} has intercept >= interval, and its even-branch child {60+9t}
    # exceeds 3(40+3*3-1)/4 + 1 = 37; the odd-branch child {37+9t} meets it
    monkeypatch.setitem(family_module.PROCESSES, "forward",
                        ((Progression(40, 3),), family_module.FORWARD_MAPS))
    code, text = run_cli(["evolve", "--direction", "forward", "-k", "0"], tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("measurement", "{40+3t}", {"intercept": 40, "interval": 3}),
        ("violation", "intercept not below interval", {"intercept": 40, "interval": 3}),
        ("violation", "child intercept exceeds recursion bound",
         {"parent": "{40+3t}", "child": "{60+9t}"}),
    ]


def test_evolve_audits_a_branch_at_the_equality_of_the_proof_premise(tmp_path, monkeypatch):
    # 1+2m -> 1+m has s*c = 2 = d*(1 + r), where premise (i) of _proved does
    # not hold: the seed {2+3t}'s child {3+3t} is not below its interval
    monkeypatch.setitem(family_module.PROCESSES, "forward",
                        ((Progression(2, 3),), ((Progression(1, 2), Progression(1, 1)),)))
    code, text = run_cli(["evolve", "--direction", "forward", "-k", "1"], tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("measurement", "{3+3t}", {"intercept": 3, "interval": 3}),
        ("violation", "intercept not below interval", {"intercept": 3, "interval": 3}),
    ]
    assert records_of(text)[-1]["intercepts_ok"] is False


def test_evolve_refuses_a_seed_that_breaks_the_formula_before_any_part(tmp_path, monkeypatch,
                                                                         capsys):
    # {3+3t} shares 3 with the backward domains' interval: the walk refuses it
    # at its start, so no part is written and no report file is left
    monkeypatch.setitem(family_module.PROCESSES, "backward",
                        ((Progression(3, 3),), family_module.BACKWARD_MAPS))
    out = os.path.join(tmp_path, "r.jsonl")
    for k in range(4):
        for argv in (["evolve", "--direction", "backward", "-k", str(k)],
                     ["evolve", "--direction", "backward", "-k", str(k), "--output", out]):
            assert main(argv) == 2, argv
            assert capsys.readouterr() == \
                ("", "error: seed {3+3t} shares a factor with a domain interval\n"), argv
            assert os.listdir(tmp_path) == []


def test_coverage_reports_a_count_mismatch(tmp_path, monkeypatch):
    # dropping the last child of each new level leaves {3+9t} alone in
    # generation 1: window [2, 11) holds 2, 5, 8 and 3, not also 4
    level = progressions_module._level
    monkeypatch.setattr(progressions_module, "_level",
                        lambda *args: [kids[:-1] for kids in level(*args)])
    code, text = run_cli(["coverage", "--direction", "forward", "-m", "2"], tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("mismatch", "window count deviates from the closed form",
         {"included": 4, "open": 5, "expected_included": 5, "expected_open": 4})]


def test_family_audit_reports_rule_mismatches(tmp_path, monkeypatch):
    # p=7 maps 1+2m to 3+3m; a transcription error of 4+3m misses both instances
    rules = family_module.CASE_SYSTEMS[7]
    monkeypatch.setitem(family_module.CASE_SYSTEMS, 7, ((1, 2, 4, 3),) + rules[1:])
    code, text = run_cli(["family-audit", "-p", "7", "--m-limit", "1", "--n-limit", "0"],
                         tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("mismatch", "rule image disagrees with the generic step",
         {"domain": 1, "depth": 0, "expected": 4, "got": 3}),
        ("mismatch", "rule image disagrees with the generic step",
         {"domain": 3, "depth": 0, "expected": 7, "got": 6}),
    ]


def test_audit_3n3_reports_count_and_pairing_violations(tmp_path, monkeypatch):
    # 2+4t -> 5+3t (family_step sends 2+4t to 2+3t) leaves image 2 one hit
    # and pairs the predecessors of 5 as (2, 3) and those of 8 as (5, 6)
    odd, _ = audits_module.TWO_TO_ONE_MAPS
    monkeypatch.setattr(audits_module, "TWO_TO_ONE_MAPS",
                        (odd, (Progression(2, 4), Progression(5, 3))))
    code, text = run_cli(["audit-3n3", "--limit", "8"], tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("violation", "p=3 branch disagrees with family_step",
         {"domain": [2, 4], "image": [5, 3]}),
        ("violation", "image position not hit exactly twice", {"position": 2, "count": 1}),
        ("violation", "predecessors do not pair as half and double",
         {"image": 5, "first": 2, "second": 3}),
        ("violation", "predecessors do not pair as half and double",
         {"image": 8, "first": 5, "second": 6}),
    ]
    # without the even branch the domains leave positions uncovered, and
    # nothing is counted
    monkeypatch.setattr(audits_module, "TWO_TO_ONE_MAPS", (odd,))
    code, text = run_cli(["audit-3n3", "--limit", "8"], tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("violation", "p=3 branch domains cover 1/2 of the positions, "
         "not the 3/4 that 4 does not divide", {"domain": None, "image": None})]
    assert records_of(text)[-1]["count_violations"] == 0


def test_strings_reports_conflicts(tmp_path, monkeypatch):
    # 4+2t -> 6+3t is a piece of lower_step whose image meets that of 2+2t -> 3+3t
    overlap = (Progression(4, 2), Progression(6, 3))
    monkeypatch.setattr(audits_module, "FORWARD_MAPS", (*audits_module.FORWARD_MAPS, overlap))
    code, text = run_cli(["strings", "--limit", "100"], tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("violation", "lower_step branch meets the image of {2+2t}->{3+3t}",
         {"domain": [4, 2], "image": [6, 3]})]
    assert records_of(text)[-1]["conflicts"] == 1


@pytest.mark.parametrize("argv, module, check", [
    (["proportionality", "--cases", "1000", "--direction", "forward"], recurrence_module,
     "_check_recurrence"),
    (["coverage", "--direction", "forward", "-m", "2", "--random-starts", "1000"], cli_module,
     "coverage_count"),
], ids=["proportionality", "coverage"])
def test_random_cases_are_drawn_as_they_are_checked(monkeypatch, capsys, argv, module, check):
    # the first case checked is an anchor, the first window --window-start:
    # a run that fails there has drawn no random case or start
    draws = []
    randint = random.Random.randint

    def counted(rng, a, b):
        draws.append((a, b))
        return randint(rng, a, b)

    def first_check(*args):
        raise ValueError("first check")

    monkeypatch.setattr(random.Random, "randint", counted)
    monkeypatch.setattr(module, check, first_check)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: first check\n"
    assert draws == []


def test_proportionality_reports_off_spacing(tmp_path, monkeypatch):
    # a class walk whose modulus is the base (2 forward, 3 backward) times
    # too large puts each anchor's recurrence one spacing past the prediction
    walk = cli_module.signature_class

    def overshooting(direction, x, steps):
        sig, modulus = walk(direction, x, steps)
        return sig, modulus * (2 if direction == "forward" else 3)

    monkeypatch.setattr(cli_module, "signature_class", overshooting)
    code, text = run_cli(["proportionality", "--cases", "0"], tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("violation", "first recurrence off the predicted spacing",
         {"x": 2, "steps_requested": 2, "signature": [1, 4], "predicted": 34,
          "found": 66, "direction": "forward"}),
        ("violation", "first recurrence off the predicted spacing",
         {"x": 7, "steps_requested": 4, "signature": [1, 0, 0, 1], "predicted": 88,
          "found": 250, "direction": "backward"}),
    ]
    assert records_of(text)[-1]["failures"] == 2


def test_proportionality_finishes_at_any_spacing():
    # x = 1 is a fixed point of lower_step, so 20 steps from x <= 2 recur
    # up to 4^20 positions on: a scan of every candidate would take days,
    # where the class walk takes O(steps) per case
    argv = [sys.executable, "-m", "collatz_strings", "proportionality",
            "--x-max", "2", "--n-max", "20", "--cases", "300"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=20,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode == 0, run.stderr
    records = records_of(run.stdout)
    assert [r["kind"] for r in records if r["record"] == "finding"] == ["measurement"] * 602
    assert records[-1]["failures"] == 0


def _sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# (exit code, sha256 of the report) of fixed runs.  A change that keeps
# reports byte-identical leaves every digest here as it is.
PINNED_REPORTS = {
    "strings --limit 3000 --max-len 0 --format jsonl":
        (1, "956284022aee2059fbc7a6c92fd7fcbe082dd64f29e68362478f049c37f2c3b8"),
    "strings --limit 3000 --max-len 1 --format jsonl":
        (1, "a3459b06b9dd8a069852f089ae2374ee24d74d8d21f78172e6c8ca08afec9b43"),
    "strings --limit 3000 --max-len 3 --format jsonl":
        (1, "46546acf39c0a4d23a78f157f9e26cdffa785903efe7aabb90c3f14f9af56a27"),
    "strings --limit 3000 --max-len 5 --format jsonl":
        (1, "6eb47ecb5e62693feb9a9bd488af3c4d2bd71ce97c7ca899b72a267a52ae4b4b"),
    "strings --limit 3000 --format jsonl":
        (0, "a33e92f0b67776d067d049e51463caf91a522c60b6179baa318209f622edccdb"),
    "strings --limit 3000 --max-len 0 --format csv":
        (1, "3e4ab35d445c92c451b83dac6ff7d1c6beac4a755f7f368efb7141cc0c0e21bb"),
    "strings --limit 3000 --max-len 1 --format csv":
        (1, "74abfbec1bf6cd09de1a79b0e4f438002f9e3c26a78cfaba2030aa4f0d68364a"),
    "strings --limit 3000 --max-len 3 --format csv":
        (1, "a15de6435c2b233f7eccf5243f31dfd9cb1035ba077f61dc64db48cf9cab5b36"),
    "strings --limit 3000 --max-len 5 --format csv":
        (1, "53a238ab3633b3fa5269f1b651d0e2b5fc1d158ba32fdc60160b3f1ebf67538a"),
    "strings --limit 3000 --format csv":
        (0, "11eb23f9fae6e3f729916ee41c0da49d3a7331743bdd3c46d6fd8e1a46c533f7"),
    "passage --lo 2 --hi 3000":
        (0, "d533453bd7098c4f221f03292192683448e140996710c48c9a7d0db7601d882f"),
    "passage --lo 2 --hi 3000 --max-steps 3 --format csv":
        (1, "b4487f3fcc881eef701c87afd2a90f3dbcf0b16f6ce187cb9906911eaf5e76c4"),
    "scan -p 5 --limit 300":
        (1, "a012287d59aa867b32fc6c9e5564532256b311af0a47e556f8aedd17db865259"),
    "scan -p -1 --limit 100 --max-len 50":
        (1, "cd5b23fe9f8d2568e0b03648ab34d56b856e28b3a1d92e8943dd54082586b104"),
    "cycles -p 5 --seed-limit 300":
        (0, "33c59148ae0ccbe13ed1c731ce4f08a6cfd7d00b90c4191ed1281e27d0023741"),
    "cycles -p -11 --seed-limit 20":
        (1, "d02750409e206798b86156845d6f3c9b84b0c72b70b806f225618cf09fb638a4"),
    "audit-3n3 --limit 3000":
        (0, "e3846eb0a9533f301edc761dcfd5b2ac36960f6099c08aead74065d01e5a9e0e"),
    "evolve --direction forward -k 6":
        (0, "bd679a6116bcd3a8f6f9ff66bd799a78c90cf0fe23d8177f7398253c84b451da"),
    "evolve --direction backward -k 5 --format csv":
        (0, "b0488aa2403c123f0678d22a4b356f4504aeb42ce9a44b304c83dfed25ee04d8"),
    "evolve --direction forward -k 11":  # four batches of parts
        (0, "b82f0428649fca5a468a3ee771870f0f94fc1cbef46badaee1f606f44a53591a"),
    "evolve --direction backward -k 10 --format csv":
        (0, "a23a5ad52163dfea8933da6f4db07961166be57d707dd446671ced696ea07fd6"),
    "coverage --direction backward -m 4 --random-starts 3":
        (0, "7cd2f537fda07b5cbd0dbf2693695f1b8a30c2a949ab99d1b5492763291edb30"),
    "family-audit -p 23 --value-limit 500":
        (0, "e482110329b9992c3047bffd058673197c2a60063ad2efb376094d6180b6b971"),
    "proportionality --cases 20 --x-max 1000 --n-max 4":
        (0, "a5d2018f772413b678449c8f83eeeb0e21f17dab7a2b085bcee257cf32211b33"),
    "export-graph --limit 200":
        (0, "cdad1eb3b64e88fec5db129dd4a097203aa72fb5c90154d3ea242a72a818d794"),
}


@pytest.mark.parametrize("argv", sorted(PINNED_REPORTS))
def test_report_bytes_are_pinned(argv, tmp_path):
    out = os.path.join(tmp_path, "report")
    code = main(argv.split() + ["--output", out])
    assert (code, _sha256_of(out)) == PINNED_REPORTS[argv]


# (exit code, report sha256, checkpoint sha256) of a budgeted passage
# sweep and its resume, in order.
PINNED_CHECKPOINT_RUNS = {
    "--budget 2000": (1,
        "35a7dac5932dd721765b34cac25a2a54912dd54128534bedb21d708245b9d770",
        "4802c58d86396b69483a8a525b0a29518af3d75fae5bf247d8b38ae607b46ce6"),
    "--resume": (1,
        "8d267a7eb216165c308d2ed175a6e8251da2f59d194b782c7c39cf746eb5a200",
        "eaa32d5455a48b5d639dc4e073e29f57a3aed91e06b85923c72e21f0a41b181e"),
}


def test_checkpoint_bytes_are_pinned(tmp_path, monkeypatch):
    # a bare checkpoint name keeps the header config free of tmp_path
    monkeypatch.setenv("COLLATZ_STRINGS_CHECKPOINT_DIR", str(tmp_path))
    out = os.path.join(tmp_path, "report")
    base = "passage --lo 2 --hi 5000 --max-steps 3 --checkpoint pin.ckpt".split()
    for extra, expected in PINNED_CHECKPOINT_RUNS.items():
        code = main(base + extra.split() + ["--output", out])
        assert (code, _sha256_of(out), _sha256_of(os.path.join(tmp_path, "pin.ckpt"))) \
            == expected, extra
