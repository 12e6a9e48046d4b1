"""Pinned end-to-end CLI runs on the sim engine.

Each test drives ``repro.cli.main`` in-process and checks the exit code
and the exact stdout summary, with wall-clock times masked.  They pin
what the subcommands print so that refactoring the CLI plumbing cannot
change a command's observable behaviour unnoticed.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime.system import System

REPO = Path(__file__).resolve().parents[2]
DSL = REPO / "src" / "repro" / "arch" / "dsl"

_WALL = re.compile(r"(wall=|\()\d+\.\d+s")


def _cli(argv, capsys) -> tuple[int, str]:
    rc = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return rc, _WALL.sub(r"\1<wall>", out)


def test_run_shipped_scenario(capsys):
    assert _cli(["run", "failover"], capsys) == (
        0,
        "failover: engine=sim t=20.000 sent=355 delivered=354 "
        "wall=<wall> failures=0\n",
    )


def test_run_csaw_file(capsys):
    path = DSL / "failover.csaw"
    assert _cli(["run", path, "--until", "5"], capsys) == (
        0,
        f"{path}: engine=sim t=5.000 sent=52 delivered=52 "
        "wall=<wall> failures=0\n",
    )


def test_trace_example_script_chrome(capsys):
    rc = main(["trace", str(REPO / "examples" / "redis_sharding.py"),
               "--format", "chrome"])
    out = capsys.readouterr().out
    assert rc == 0
    assert len(json.loads(out)["traceEvents"]) == 196625
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "458adf25866d7067"


def test_reconfigure_reshard(capsys):
    assert _cli(
        ["reconfigure", "sharding", "sharding",
         "--old-backends", "2", "--new-backends", "4"],
        capsys,
    ) == (
        0,
        "diff: + instance Bck3: Back\n"
        "+ instance Bck4: Back\n"
        "~ junction Front::junction\n"
        "~ main\n"
        "reconfigure: ok in 0.000s (+2 -0 ~1 instances, 0 update(s) "
        "replayed, 2 snapshot byte(s))\n"
        "sharding -> sharding: engine=sim t=7.000 wall=<wall> failures=0\n",
    )


def test_explore_dpor(capsys):
    assert _cli(["explore", "caching", "--budget", "8"], capsys) == (
        0,
        "caching: dpor: 8 run(s), 21 choice point(s), 1 branch(es) pruned, "
        "no violations (budget reached)\n",
    )


def test_workload_sim(capsys):
    assert _cli(["workload", "--engine", "sim", "--max-ops", "200"], capsys) == (
        0,
        "broker_sharded: engine=sim pattern=steady mode=open users=10000\n"
        "  ops: 200 completed, 0 failed, 0 dropped of 200 submitted\n"
        "  throughput: 20.0 ops/sec over 10.0 logical s (<wall> wall)\n"
        "  latency: p50=0.685ms p99=1.380ms\n"
        "  digest: 197e82b399424c367b488183d013e7812560573c98d17cd985561f5ea1904cb1\n",
    )


@pytest.fixture
def built_systems(monkeypatch):
    """Every System constructed while the test runs."""
    built = []
    init = System.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(System, "__init__", record)
    return built


def _junction_codes(system):
    return [
        jr.code
        for inst in system.instances.values()
        for jr in inst.junctions.values()
    ]


#: a script building one System on the ambient engine and one on an
#: explicit SimEngine (the way the arch wrappers' ``sim=`` does)
SCRIPT = '''
from repro.core.compiler import compile_program
from repro.runtime.engine import SimEngine
from repro.runtime.system import System

SRC = """
instance_types { T }
instances { x: T }
def main() = start x()
def T::j() =
  | init prop !P
  skip
"""
for engine in (None, SimEngine()):
    system = System(compile_program(SRC), engine=engine)
    system.start()
    system.run_until(1.0)
'''


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "failover"],
        ["run", DSL / "caching.csaw", "--until", "5"],
        ["trace", DSL / "failover.csaw", "--config", "t=1.0", "--until", "5"],
        ["trace", "<script>"],
        ["reconfigure", "sharding", "sharding",
         "--old-backends", "2", "--new-backends", "3"],
    ],
    ids=["run-arch", "run-csaw", "trace-csaw", "trace-py", "reconfigure"],
)
def test_compiled_off_reaches_every_system(argv, built_systems, capsys, tmp_path):
    script = tmp_path / "two_systems.py"
    script.write_text(SCRIPT)
    argv = [str(script) if a == "<script>" else str(a) for a in argv]
    assert main(argv + ["--engine", "sim,compiled=off"]) == 0
    capsys.readouterr()
    assert built_systems
    for system in built_systems:
        assert system._compiled is False
        assert all(code is None for code in _junction_codes(system))

    # non-vacuity: the same command without the spec compiles junctions
    built_systems.clear()
    assert main(argv) == 0
    capsys.readouterr()
    assert built_systems
    for system in built_systems:
        assert any(code is not None for code in _junction_codes(system))
