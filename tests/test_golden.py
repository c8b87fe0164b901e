"""Default CLI output, byte for byte, against the benchmark's goldens.

Every `cli` command of the workloads in bench/run.py runs through
fpss.cli.main in this process; its stdout and exit code must equal
bench/golden/<slug>.out and the entry of bench/golden/index.json.  They
must do so also with specseq.verify_turn refused: the certificates of thh
take every turn a default command makes.  Files under bench/ are only read.
"""
import importlib.util
import json
import pathlib

import pytest

from fpss import specseq
from fpss.cli import VERIFY_TARGETS, main
from fpss.thh import bokstedt, tate

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
GOLDEN = BENCH / "golden"

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

COMMANDS = [command for commands in bench_run.WORKLOADS.values()
            for command in commands if command[0] == "cli"]
CODES = json.loads((GOLDEN / "index.json").read_text())


@pytest.mark.parametrize("command", COMMANDS, ids=bench_run.slug)
def test_cli_output_matches_golden(command, capsys):
    name = bench_run.slug(command)
    code = main(list(command[1:]))
    out = capsys.readouterr().out
    assert code == CODES[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


def test_default_commands_never_call_verify_turn(monkeypatch, capsys):
    # every golden command, and every verify target at its defaults at
    # p = 5 and 7, with verify_turn raising wherever it is bound
    def refuse(*args):
        raise AssertionError("verify_turn called")

    for module in (specseq, tate, bokstedt):
        monkeypatch.setattr(module, "verify_turn", refuse)
    for command in COMMANDS:
        name = bench_run.slug(command)
        assert main(list(command[1:])) == CODES[name], name
        out = capsys.readouterr().out
        assert out.encode() == (GOLDEN / f"{name}.out").read_bytes(), name
    for p in (5, 7):
        for target in VERIFY_TARGETS:
            assert main(["verify", target, "--prime", str(p)]) == 0, (target, p)
