"""One round of a workload in a fresh interpreter.

Reads a JSON request on standard input —
``{"workload", "seed", "seconds", "mode": "drive"|"setup"|"repeat", "trace"}`` —
and prints one JSON result as the last line of standard output.  Set-up
time runs from before ``import repro`` to the architecture built and
started, less workload generation; ``mode="setup"`` stops there.
``mode="repeat"`` drives a sim workload's short timing schedule on a
freshly built architecture again and again for ``seconds``, and times
its first set-up like ``mode="setup"``.

A drive that raises (the realtime engine's off-thread timer race can
corrupt asyncio's timer heap) is caught here: its traceback is kept in
the result, the replies it did produce are still checked, and every op
it left unfinished counts as failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback

from perfbench.check import Capture, verify
from perfbench.ledger import Ledger, midquantile
from perfbench.workloads import WORKLOADS

#: completions per timed segment of a round (see ``run.sim_ops_per_wall_s``)
SEGMENT_OPS = 10


def run_round(wl, seed: int, seconds: float, mode: str, trace: bool, spec=None) -> dict:
    """Build ``wl``'s architecture and, in ``drive`` mode, drive its
    schedule (``spec`` overrides the workload's own)."""
    t0 = time.perf_counter()
    from repro.runtime.engine import default_engine
    from repro.workload import ADAPTERS, materialize
    from repro.workload.driver import drive

    import_s = time.perf_counter() - t0
    # the ledger wraps entry points the System caches while it is built
    ledger = Ledger() if trace else None
    try:
        if ledger is not None:
            ledger.install()
        spec = spec or wl.spec(seed, seconds)
        events = materialize(spec) if mode == "drive" else []
        b0 = time.perf_counter()
        with default_engine(wl.engine):
            adapter = ADAPTERS[wl.arch](spec)
        out = {"setup_s": import_s + time.perf_counter() - b0}
        try:
            if mode == "drive":
                out.update(_drive(wl, adapter, spec, events, drive, ledger))
                if ledger is not None:
                    out["layers"]["setup.import_s"] = import_s
        finally:
            try:
                adapter.system.shutdown()
            except Exception:  # noqa: BLE001 - reported with the round
                out["crash"] = (out.get("crash") or "") + traceback.format_exc()
    finally:
        if ledger is not None:
            ledger.uninstall()
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def run_repeats(wl, seed: int, seconds: float) -> dict:
    """Drive ``wl``'s timing schedule, each time on a freshly built
    architecture, until ``seconds`` would be passed (at least once).

    The first build is timed like ``mode="setup"``, so every timing
    interpreter also gives a set-up sample."""
    t0 = time.perf_counter()
    from repro.runtime.engine import default_engine
    from repro.workload import ADAPTERS, materialize
    from repro.workload.driver import drive

    import_s = time.perf_counter() - t0
    spec = wl.spec(seed, seconds, size=wl.timing_size)
    events = materialize(spec)
    setup_s = None
    rounds: list[dict] = []
    while not rounds or (
        time.perf_counter() - t0) * (len(rounds) + 1) / len(rounds) < seconds:
        b0 = time.perf_counter()
        with default_engine(wl.engine):
            adapter = ADAPTERS[wl.arch](spec)
        if setup_s is None:
            setup_s = import_s + time.perf_counter() - b0
        # the last repeat's garbage is not left for this one's drive
        gc.collect()
        out = _drive(wl, adapter, spec, events, drive, None)
        try:
            adapter.system.shutdown()
        except Exception:  # noqa: BLE001 - reported with the round
            out["crash"] = (out["crash"] or "") + traceback.format_exc()
        del out["latency_ms"]
        rounds.append(out)
    return {"setup_s": setup_s, "rounds": rounds}


def _drive(wl, adapter, spec, events, drive, ledger) -> dict:
    system = adapter.system
    cap = Capture(adapter)
    setup = ledger.begin_drive(adapter) if ledger is not None else {}
    base = system.now
    crash = None
    w0 = time.perf_counter()
    try:
        records = drive(adapter, spec, events)
    except Exception:  # noqa: BLE001 - a crashed round is a result, not a benchmark error
        crash = traceback.format_exc()
        records = cap.records
    drive_s = time.perf_counter() - w0

    ok = [r for r in records if r[1]]
    walls = sorted(w for w in cap.walls if w is not None)
    last = walls[-1] if walls else w0
    # wall time of each run of SEGMENT_OPS completions, the last one
    # ending at the last completion; a sim schedule completes in the
    # same order every round, so segment k of every round is the same work
    marks = [w0] + walls[SEGMENT_OPS - 1:-1:SEGMENT_OPS] + walls[-1:]
    latencies, late = [], []
    for idx, _, start, end in ok:
        t = events[idx].t
        # the due time as the clock computed it, so sim lateness is exactly 0
        due = start if t is None else (base + t) - base
        latencies.append((end - due) * 1e3)
        late.append((start - due) * 1e3)
    digest = hashlib.sha256()
    for rec in records:
        digest.update(repr(rec).encode())
        digest.update(b"\n")
    problems, failures = verify(wl.arch, adapter.service, events, cap)
    out = {
        "submitted": len(events),
        "ok": len(ok),
        "ops_per_wall_s": len(ok) / (last - w0) if last > w0 else 0.0,
        "drive_s": drive_s,
        "segment_s": [b - a for a, b in zip(marks, marks[1:])],
        "latency_ms": latencies,
        "digest": digest.hexdigest(),
        "problems": problems,
        "failures": failures,
        "crash": crash,
    }
    if ledger is not None:
        metrics, calls = ledger.collect(system, len(events), drive_s)
        metrics["workload.arrival_late_ms.p50"] = midquantile(late, 0.50)
        metrics["workload.arrival_late_ms.p99"] = midquantile(late, 0.99)
        metrics["setup.compile_program_s"] = setup.get("setup.compile_program_s", 0.0)
        metrics["setup.codegen_s"] = setup.get("setup.codegen_s", 0.0)
        out["layers"] = metrics
        out["calls"] = calls
    return out


def main() -> None:
    req = json.loads(sys.stdin.read())
    wl = WORKLOADS[req["workload"]]
    if req["mode"] == "repeat":
        out = run_repeats(wl, req["seed"], req["seconds"])
    else:
        out = run_round(wl, req["seed"], req["seconds"], req["mode"], req["trace"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
