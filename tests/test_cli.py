import json
import os
import subprocess
import sys

import pytest

from collatz_strings.cli import main


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
    for argv in (["strings", "--limit", "30", "--max-len", "-3"],
                 ["scan", "-p", "5", "--limit", "20", "--max-len", "-1"],
                 ["cycles", "-p", "5", "--seed-limit", "5", "--max-steps", "-1"],
                 ["proportionality", "--cases", "-3"],
                 ["coverage", "--direction", "forward", "-m", "2", "--random-starts", "-4"],
                 ["family-audit", "-p", "7", "--n-limit", "-1"],
                 ["family-audit", "-p", "7", "--value-limit", "-5"],
                 ["family-audit", "-p", "7", "--m-limit", "-1"]):
        assert main(argv) == 2, argv
    capsys.readouterr()


def test_unwritable_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.jsonl"
    assert main(["strings", "--limit", "27", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


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
