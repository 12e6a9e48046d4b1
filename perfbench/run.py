"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload broker-open-sim --seed 1 --seconds 60 --trace 0

Each round is a fresh interpreter (``perfbench/child.py``) that builds
the architecture, drives the workload's schedule and checks every reply
against a reference replay.  An untraced sim run drives the full
schedule once, for latency, and then spends the rest of ``--seconds`` in
timing repeats of a short schedule, each on a freshly built
architecture, for ``ops_per_wall_s`` (see ``sim_ops_per_wall_s``); the
repeats run in the interpreters that give the set-up samples.
Realtime rounds repeat the full schedule until ``--seconds`` are spent.
Sim rounds of one schedule must produce identical completion digests.
Set-up time is the median over at least ``SETUP_SAMPLES`` fresh
interpreters.  ``--trace 1`` pairs each full round with a traced one and
reports the per-layer ledger instead (realtime rounds then last half of
``--seconds`` each).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench.ledger import metrics_for, midquantile, unit_of  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: fresh-interpreter set-ups per run that ``setup_s`` is the median of
SETUP_SAMPLES = 9
#: wall-clock limit of a whole run; a child still running then is killed
RUN_LIMIT_S = 170
#: latency samples a run needs for a p99 with ten samples beyond it
MIN_LATENCY_SAMPLES = 1100

END_TO_END = (
    ("ops_per_wall_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ops_ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to a failed check)."""


def child(name: str, seed: int, seconds: float, mode: str, trace: bool, timeout: float) -> dict:
    """One round in a fresh interpreter."""
    req = {"workload": name, "seed": seed, "seconds": seconds, "mode": mode, "trace": trace}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.child"],
        input=json.dumps(req), capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{mode} round of {name} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run rounds for ``seconds``; returns the printed result object."""
    wl = WORKLOADS[name]
    # an untraced sim run drives the full schedule once and times the
    # short one over and over; the others time the full schedule
    timed = not (wl.realtime or trace)
    # a realtime round lasts its schedule: halve it when traced, so the
    # untraced and traced pair fit the run
    span = seconds / 2 if trace and wl.realtime else seconds
    start = time.perf_counter()

    def run_child(mode: str, traced: bool, secs: float = span) -> dict:
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        return child(name, seed, secs, mode, traced, timeout=max(left, 1.0))

    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        plain.append(run_child("drive", False))
        if trace:
            traced.append(run_child("drive", True))
        elapsed = time.perf_counter() - start
        if timed or elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    setups = [r["setup_s"] for r in plain]
    timing: list[dict] = []
    if timed:
        # the rest of the run is split over the interpreters that give
        # the remaining set-up samples, so the timing repeats are spread
        # over most of the run and over many interpreters
        n = SETUP_SAMPLES - len(setups)
        for i in range(n):
            left = seconds - (time.perf_counter() - start)
            r = run_child("repeat", False, left / (n - i))
            setups.append(r["setup_s"])
            timing += r["rounds"]
    elif not trace:
        for _ in range(SETUP_SAMPLES - len(setups)):
            setups.append(run_child("setup", False)["setup_s"])

    labelled = (
        [(f"round {i}", r) for i, r in enumerate(plain)]
        + [(f"round {i} (traced)", r) for i, r in enumerate(traced)]
        + [(f"timing repeat {i}", r) for i, r in enumerate(timing)]
    )
    problems, failures = [], []
    for label, r in labelled:
        problems += [f"{label}: {p}" for p in r["problems"]]
        failures += [f"{label}: {f}" for f in r["failures"]]
        if r["crash"]:
            failures.append(f"{label} raised:\n{r['crash']}")
    if not wl.realtime and any(
        len({r["digest"] for r in group}) > 1 for group in (plain + traced, timing)
    ):
        problems.append("sim rounds of one schedule produced different completion digests")

    attempted = sum(r["submitted"] for _, r in labelled)
    failed = attempted - sum(r["ok"] for _, r in labelled)
    if trace:
        metrics = _layer_metrics(metrics_for(wl.realtime), plain, traced)
    else:
        metrics = _end_to_end(plain, timing, setups, attempted, failed)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "failures": failures,
    }


def sim_ops_per_wall_s(rounds: list[dict]) -> float:
    """Ops per wall second of the sim schedule, each segment timed at its
    fastest over the rounds.

    Every timing repeat does the same work in the same order, so segment
    ``k`` of one repeat is segment ``k`` of every other.  A shared host
    slows a process for seconds at a time; the fastest time of each short
    segment over many repeats discards those stalls, where a per-round
    figure carries whichever stalls hit that round.
    """
    fastest = [min(seg) for seg in zip(*(r["segment_s"] for r in rounds))]
    return rounds[0]["ok"] / sum(fastest)


def _end_to_end(rounds: list[dict], timing: list[dict], setups: list[float],
                attempted: int, failed: int) -> dict:
    latencies = [x for r in rounds for x in r["latency_ms"]]
    if len(latencies) < MIN_LATENCY_SAMPLES and not failed:
        raise BenchmarkError(
            f"{len(latencies)} latency samples; latency_p99_ms needs "
            f"{MIN_LATENCY_SAMPLES} (raise --seconds)"
        )
    values = {
        "ops_per_wall_s": (
            sim_ops_per_wall_s(timing) if timing
            else statistics.median(r["ops_per_wall_s"] for r in rounds)
        ),
        "latency_p50_ms": midquantile(latencies, 0.50),
        "latency_p90_ms": midquantile(latencies, 0.90),
        "latency_p99_ms": midquantile(latencies, 0.99),
        "ops_ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}


def _layer_metrics(names: tuple[str, ...], plain: list[dict], traced: list[dict]) -> dict:
    values = {
        k: statistics.median(r["layers"][k] for r in traced)
        for k in names
        if k != "trace.overhead_frac"
    }
    values["trace.overhead_frac"] = (
        statistics.median(r["drive_s"] for r in traced)
        / statistics.median(r["drive_s"] for r in plain)
        - 1.0
    )
    return {k: {"value": values[k], "unit": unit_of(k)} for k in names}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for p in result.pop("problems"):
        print(f"perfbench: wrong output: {p}", file=sys.stderr)
    for f in result.pop("failures"):
        print(f"perfbench: failed ops: {f}", file=sys.stderr)
    verdict = "PASS" if result["correct"] and not result["failed"] else "FAIL"
    print(f"workload {args.workload}  seed {args.seed}  {verdict}: "
          f"correct {result['correct']}  attempted {result['attempted']}  failed {result['failed']}")
    for k, m in result["metrics"].items():
        print(f"  {k:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
