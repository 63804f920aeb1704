"""Every exact CLI output, byte for byte, against a committed golden.

tests/golden/commands.json names the exact commands of the CI's steps (su2
forms, gram and kinematic in both bases, pair, rumin, and op with each of
its names) on the CI's inputs, kept in tests/golden/inputs.  Each runs
through ``cli.main`` in process, in text and with --json, and its stdout
must equal tests/golden/outputs/<name>.txt and <name>.json byte for byte.
Run in one process after the other tests, the commands also check that no
output depends on what the process computed before.  The outputs are
regenerated by tests/regenerate_golden.py, which this test never runs.
"""

import json
from pathlib import Path

import pytest

from valcalc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_exact_output(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    for flags, suffix in (([], "txt"), (["--json"], "json")):
        assert main(COMMANDS[name] + flags) == 0
        out, err = capsys.readouterr()
        assert not err
        want = (GOLDEN / "outputs" / f"{name}.{suffix}").read_bytes()
        assert out.encode() == want, (name, suffix)
