"""Default CLI output, byte for byte, against the benchmark's goldens.

Every `cli` command of the workloads in bench/run.py runs through
fpss.cli.main in this process; its stdout and exit code must equal
bench/golden/<slug>.out and the entry of bench/golden/index.json.  Files
under bench/ are only read.
"""
import importlib.util
import json
import pathlib

import pytest

from fpss.cli import main

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
GOLDEN = BENCH / "golden"

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)

COMMANDS = [command for commands in bench_run.WORKLOADS.values()
            for command in commands if command[0] == "cli"]


@pytest.mark.parametrize("command", COMMANDS, ids=bench_run.slug)
def test_cli_output_matches_golden(command, capsys):
    name = bench_run.slug(command)
    code = main(list(command[1:]))
    out = capsys.readouterr().out
    assert code == json.loads((GOLDEN / "index.json").read_text())[name]
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()
