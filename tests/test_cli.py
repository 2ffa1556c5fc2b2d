import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

import collatz_strings.cli as cli_module
import collatz_strings.family as family_module
import collatz_strings.progressions as progressions_module
import collatz_strings.strings as strings_module
from collatz_strings import DEFAULT_WALK_LIMIT, Progression
from collatz_strings.cli import BATCH_RECORDS, main
from collatz_strings.reporting import (
    finding,
    header_record,
    render_csv,
    render_jsonl,
    summary_record,
)


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
    for argv in (["strings", "--limit", "30", "--max-len", "-3"],
                 ["scan", "-p", "5", "--limit", "20", "--max-len", "-1"],
                 ["cycles", "-p", "5", "--seed-limit", "5", "--max-steps", "-1"],
                 ["proportionality", "--cases", "-3"],
                 ["proportionality", "--cases", "0", "--x-max", "-5", "--n-max", "0"],
                 ["proportionality", "--cases", "1", "--x-max", "0"],
                 ["strings", "--limit", "1"],
                 ["coverage", "--direction", "forward", "-m", "2", "--random-starts", "-4"],
                 ["family-audit", "-p", "7", "--n-limit", "-1"],
                 ["family-audit", "-p", "7", "--value-limit", "-5"],
                 ["family-audit", "-p", "7", "--m-limit", "-1"],
                 ["strings", "--limit", str(10 ** 29)],
                 ["scan", "-p", "5", "--limit", str(10 ** 29)],
                 ["audit-3n3", "--limit", str(10 ** 29)],
                 ["coverage", "--direction", "forward", "-m", "40"],
                 ["coverage", "--direction", "backward", "-m", "32"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)
    out = os.path.join(tmp_path, "never.jsonl")
    assert main(["evolve", "--direction", "forward", "-k", "-1", "--output", out]) == 2
    assert os.listdir(tmp_path) == []
    capsys.readouterr()


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.jsonl"
    assert main(["strings", "--limit", "27", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def fake_scan(monkeypatch, findings, error=None):
    """Make `scan` report `findings` numbered measurements, then raise error."""
    def handler(args):
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


def test_export_graph_has_no_format_option(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["export-graph", "--limit", "5", "--format", "csv"])
    assert exc.value.code == 2
    out = tmp_path / "g.dot"
    assert main(["export-graph", "--limit", "5", "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("digraph chains {")


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
    monkeypatch.setattr(cli_module, "evolve",
                        lambda seeds, maps, k: iter((Progression(40, 3),)))
    code, text = run_cli(["evolve", "--direction", "forward", "-k", "1"], tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("measurement", "{40+3t}", {"intercept": 40, "interval": 3}),
        ("violation", "intercept not below interval", {"intercept": 40, "interval": 3}),
        ("violation", "child intercept exceeds recursion bound",
         {"parent": "{40+3t}", "child": "{60+9t}"}),
    ]


def test_coverage_reports_a_count_mismatch(tmp_path, monkeypatch):
    # dropping the last part of each new generation leaves {3+9t} alone in
    # generation 1: window [2, 11) holds 2, 5, 8 and 3, not also 4
    evolve = strings_module.evolve
    monkeypatch.setattr(strings_module, "evolve",
                        lambda parts, maps, k: tuple(evolve(parts, maps, k))[:-1])
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
    # 7 -> 5 (not 11) gives 5 a third hit; 9 -> 11 (not 14) leaves 14 one
    # hit and pairs 11's predecessors as (9, 14)
    step = family_module.family_step
    monkeypatch.setattr(family_module, "family_step",
                        lambda x, family: {7: 5, 9: 11}.get(x) or step(x, family))
    code, text = run_cli(["audit-3n3", "--limit", "20"], tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("violation", "image position not hit exactly twice", {"position": 5, "count": 3}),
        ("violation", "image position not hit exactly twice", {"position": 14, "count": 1}),
        ("violation", "predecessors do not pair as half and double",
         {"image": 11, "first": 9, "second": 14}),
    ]


def test_strings_reports_conflicts(tmp_path, monkeypatch):
    # 30 -> 49 runs the chain of head 20 into the chain of head 65
    step = strings_module.lower_step
    monkeypatch.setattr(strings_module, "lower_step", lambda v: 49 if v == 30 else step(v))
    code, text = run_cli(["strings", "--limit", "100"], tmp_path)
    assert code == 1
    assert findings_of(text) == [
        ("violation", "element reached from two distinct heads",
         {"element": element, "heads": [20, 65]})
        for element in (49, 37, 28, 42, 63)]


def test_proportionality_reports_off_spacing(tmp_path, monkeypatch):
    # with no room to search, neither anchor finds a recurrence
    monkeypatch.setattr(progressions_module, "RECURRENCE_SEARCH_FACTOR", 0)
    code, text = run_cli(["proportionality", "--cases", "0"], tmp_path, "none")
    assert code == 1
    assert findings_of(text) == [
        ("violation", "first recurrence off the predicted spacing",
         {"x": 2, "steps_requested": 2, "signature": [1, 4], "predicted": 34,
          "found": None, "direction": "forward"}),
        ("violation", "first recurrence off the predicted spacing",
         {"x": 7, "steps_requested": 4, "signature": [1, 0, 0, 1], "predicted": 88,
          "found": None, "direction": "backward"}),
    ]
    # a matcher that misses 88 finds the next recurrence, 3^4 further on
    monkeypatch.undo()
    matches = progressions_module._matches
    monkeypatch.setattr(progressions_module, "_matches",
                        lambda x, *walk: x != 88 and matches(x, *walk))
    code, text = run_cli(["proportionality", "--cases", "0", "--direction", "backward"],
                         tmp_path, "late")
    assert code == 1
    assert findings_of(text) == [
        ("violation", "first recurrence off the predicted spacing",
         {"x": 7, "steps_requested": 4, "signature": [1, 0, 0, 1], "predicted": 88,
          "found": 169, "direction": "backward"})]


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
