"""Percentiles, and the command line's refusal without sources."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

from perfbench.ledger import midquantile
from perfbench.run import sim_ops_per_wall_s

BENCH = Path(__file__).resolve().parents[1]


def test_midquantile_interpolates_tie_free_samples():
    values = [float(v) for v in range(1, 11)]
    assert midquantile(values, 0.5) == 5.5
    assert midquantile(values, 0.0) == 1.0
    assert midquantile(values, 1.0) == 10.0


def test_midquantile_moves_with_the_share_of_tied_values():
    few = [1.0] * 40 + [2.0] * 60
    many = [1.0] * 45 + [2.0] * 55  # more ties at the lower value
    # a nearest-rank median reads 2.0 for both samples
    assert 1.0 < midquantile(many, 0.5) < midquantile(few, 0.5) < 2.0


def test_sim_throughput_times_each_segment_at_its_fastest():
    rounds = [
        {"ok": 600, "segment_s": [1.0, 3.0, 2.0]},
        {"ok": 600, "segment_s": [2.0, 1.0, 2.0]},
    ]
    assert sim_ops_per_wall_s(rounds) == 600 / (1.0 + 1.0 + 2.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "broker-open-sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
