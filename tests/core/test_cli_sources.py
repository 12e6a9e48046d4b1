"""Every CLI subcommand resolves and boots a shipped ``.csaw`` file the
same way ``repro run`` does.

Regressions for two bugs from per-subcommand copies of that plumbing:
``@BACKENDS@`` placeholders were expanded only by some commands, and
``repro trace`` skipped the boot that stubs host bindings and defaults
the main parameters.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

DSL = Path(__file__).resolve().parents[2] / "src" / "repro" / "arch" / "dsl"

PLACEHOLDER_FILES = ("sharding", "parallel_sharding", "broker_sharded")


@pytest.mark.parametrize("name", PLACEHOLDER_FILES)
@pytest.mark.parametrize(
    "command",
    [
        ["explore", "--witness-races", "--budget", "2"],
        ["check"],
        ["topo"],
        ["semantics"],
    ],
    ids=lambda c: c[0] + ("-witness-races" if len(c) > 1 else ""),
)
def test_placeholder_files_resolve(command, name, capsys):
    path = DSL / f"{name}.csaw"
    assert "@BACKENDS@" in path.read_text()
    assert main([command[0], str(path), *command[1:]]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(DSL.glob("*.csaw")), ids=lambda p: p.stem)
def test_trace_boots_every_shipped_file(path, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    assert main(["trace", str(path), "--until", "5", "--out", str(out)]) == 0
    events = [json.loads(line) for line in out.read_text().splitlines()]
    assert events
    capsys.readouterr()
