"""What a run imports: each command loads only the modules it calls, and
the names that tests and the benchmark's tracer replace on `cli` still
resolve there and are the ones the handlers call."""

import inspect
import os
import re
import subprocess
import sys

import pytest

import collatz_strings
import collatz_strings.cli as cli_module

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh(code, *argv):
    """The last line that `code` prints in a new interpreter."""
    run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC))
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


# Runs cli.main(ARGV) with its report discarded and prints the exit code and
# the package's modules the run loaded.
_LOADED = """
import contextlib, io, sys
from collatz_strings import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("collatz_strings.")))
"""


# A small run of each command and the package's modules it calls; the CI
# "Start-up imports" step logs the import times of these runs
RUNS = {
    "passage": (["passage", "--lo", "2", "--hi", "1000"], "cli core strings"),
    "strings": (["strings", "--limit", "100"], "audits cli core family strings"),
    "scan": (["scan", "-p", "7", "--limit", "100"], "cli core family walks"),
    "cycles": (["cycles", "-p", "5", "--seed-limit", "100"], "cli core family walks"),
    "audit-3n3": (["audit-3n3", "--limit", "100"], "audits cli core family"),
    "family-audit": (["family-audit", "-p", "5"], "audits cli core family"),
    "coverage": (["coverage", "--direction", "forward", "-m", "2"],
                 "cli core family progressions"),
    "evolve": (["evolve", "--direction", "forward", "-k", "0"],
               "cli core family progressions"),
    "proportionality": (["proportionality"], "cli core recurrence"),
    "export-graph": (["export-graph", "--limit", "10"], "cli core"),
}


def test_runs_has_one_run_of_each_command():
    assert set(RUNS) == set(cli_module.COMMANDS)


@pytest.mark.parametrize("argv, modules", RUNS.values(), ids=RUNS)
def test_a_run_loads_only_the_modules_its_command_calls(argv, modules):
    code, *loaded = fresh(_LOADED, *argv).split()
    assert code == "0"
    assert loaded == [f"collatz_strings.{m}" for m in modules.split()]


# Runs `python -m collatz_strings ARGV` with its report, help or error
# discarded and prints the exit code and every module the run loaded beyond
# those the bare interpreter had.
_NEW_MODULES = """
import runpy, sys
before = set(sys.modules)
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        runpy.run_module("collatz_strings", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(set(sys.modules) - before))
"""


@pytest.mark.parametrize("argv", [["scan", "-p", "7", "--limit", "100"],
                                  ["evolve", "--direction", "forward", "-k", "0"],
                                  ["strings", "--limit", "100"]],
                         ids=["scan", "evolve", "strings"])
def test_a_json_lines_run_loads_no_csv(argv):
    code, *loaded = fresh(_NEW_MODULES, *argv).split()
    assert code == "0" and "collatz_strings.cli" in loaded
    assert "csv" not in loaded
    code, *loaded = fresh(_NEW_MODULES, *argv, "--format", "csv").split()
    assert code == "0" and "csv" in loaded


# Modules that no run of RUNS loads: a well-formed argv is parsed from
# cli.COMMANDS, so argparse, and the gettext it imports, load only for the
# help and for errors; csv only for --format csv; and no run needs
# dataclasses, fractions or inspect
UNUSED = {"argparse", "gettext", "csv", "dataclasses", "fractions", "inspect"}


@pytest.mark.parametrize("argv", [argv for argv, _ in RUNS.values()], ids=RUNS)
def test_a_plain_run_loads_no_argparse(argv):
    code, *loaded = fresh(_NEW_MODULES, *argv).split()
    assert code == "0" and "collatz_strings.cli" in loaded
    assert not UNUSED & set(loaded)
    for expected, extra in (("0", ["--help"]), ("2", ["--format", "xml"])):
        code, *loaded = fresh(_NEW_MODULES, *argv, *extra).split()
        assert code == expected and {"argparse", "gettext"} <= set(loaded)


def test_every_public_name_resolves_and_star_import_binds_it():
    for name in collatz_strings.__all__:
        assert getattr(collatz_strings, name) is not None, name
    namespace = {}
    exec("from collatz_strings import *", namespace)
    assert set(collatz_strings.__all__) <= set(namespace)
    assert "passage_sweep" in dir(collatz_strings)
    with pytest.raises(AttributeError):
        collatz_strings.no_such_name  # noqa: B018


# the package's public names: each one a demo, a README example or a
# command uses, and each type or error a public function takes, returns or
# raises
ROOT = ("CASE_SYSTEM_PARAMS CaseRule Family NonpositiveImageError Progression Signature "
        "SweepReport WidthExceededError audit_case_system base_equivalent conjugate_step "
        "coverage_count expected_coverage family_step find_cycles higher_equivalent "
        "inverse_lower_step lower_step partition_audit passage_sweep restriction_index "
        "signature_class string_scan two_to_one_audit").split()


def test_the_root_exports_only_its_public_names():
    assert collatz_strings.__all__ == ROOT


def test_cli_loads_by_the_package_loader_and_table():
    assert cli_module.__getattr__.__code__ is collatz_strings.__getattr__.__code__
    for name in collatz_strings.__all__:
        assert getattr(cli_module, name) is getattr(collatz_strings, name), name


# cli names that tests or the benchmark's tracer replace, and those the
# tracer looks for but cli does not have
PATCHED = ("passage_sweep partition_audit coverage_count string_scan find_cycles "
           "two_to_one_audit audit_case_system signature_class render_jsonl "
           "render_csv _families _audit _proved").split()
ABSENT = ("evolve_forward", "evolve_backward", "intercept_audit", "first_recurrence_forward",
          "first_recurrence_backward", "forward_signature", "backward_signature",
          "_signature_class")


def test_patched_cli_names_resolve_in_a_fresh_interpreter():
    code = ("import sys\nimport collatz_strings.cli as cli\n"
            "print(*(hasattr(cli, name) for name in sys.argv[1:]))")
    assert fresh(code, *PATCHED, *ABSENT).split() == \
        ["True"] * len(PATCHED) + ["False"] * len(ABSENT)


# Each command with a handler, and a cli name its handler calls
CALLS = {"passage": "passage_sweep", "strings": "partition_audit", "scan": "string_scan",
         "cycles": "find_cycles", "audit-3n3": "two_to_one_audit",
         "family-audit": "audit_case_system", "coverage": "coverage_count",
         "evolve": "_families", "proportionality": "signature_class"}


def test_calls_has_each_command_whose_row_names_a_layer():
    assert set(CALLS) == {name for name, (layer, _, _) in cli_module.COMMANDS.items() if layer}


def test_a_handler_calls_the_value_set_on_cli(monkeypatch, capsys):
    for command, name in CALLS.items():
        calls = []

        def fake(*args, **kwargs):
            calls.append((args, kwargs))
            raise ValueError("fake layer")

        with monkeypatch.context() as patch:
            patch.setattr(cli_module, name, fake)
            assert cli_module.main(RUNS[command][0]) == 2, command
        assert capsys.readouterr().err == "error: fake layer\n", command
        assert len(calls) == 1, command
        if command == "passage":
            assert calls == [((2, 1000), {"max_steps": 100_000, "checkpoint_path": None,
                                          "checkpoint_every": 1 << 20, "resume": False,
                                          "budget": None})]


def test_cli_defines_no_handler_and_each_handler_is_in_its_commands_layer():
    # cli neither defines nor names a handler: its loader's table of them
    # is made from the layers that COMMANDS names
    with open(cli_module.__file__, encoding="utf-8") as fh:
        assert not re.findall(r"cmd_\w+", fh.read())
    for command in CALLS:
        handler = cli_module._handler(command)
        assert inspect.isgeneratorfunction(handler), command
        layer = cli_module.COMMANDS[command][0]
        assert handler.__module__ == f"collatz_strings.{layer}", command
        assert layer != "cli" and layer in RUNS[command][1].split(), command


@pytest.mark.parametrize("layer, modules", [("strings", "core"), ("progressions", "core family"),
                                            ("recurrence", "core"),
                                            ("walks", "core family"),
                                            ("audits", "core family")])
def test_a_layer_with_its_handlers_loads_no_cli(layer, modules):
    # the handlers reach finding and render_parts through the cli they are given
    code = ("import sys\n__import__('collatz_strings.' + sys.argv[1])\n"
            "print(*sorted(m for m in sys.modules if m.startswith('collatz_strings.')))")
    assert fresh(code, layer).split() == sorted(f"collatz_strings.{m}"
                                                for m in [layer, *modules.split()])


def test_the_published_systems_are_listed_only_for_the_help(capsys):
    with pytest.raises(SystemExit) as stop:
        cli_module.main(["family-audit", "--help"])
    assert stop.value.code == 0
    assert "oneof[-1,1,3,5,7,9,11,13,15,17,19,21,23,25,27,31,33,37]" in \
        "".join(capsys.readouterr().out.split())
