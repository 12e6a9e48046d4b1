"""The correctness gate passes real runs and catches wrong state."""

from __future__ import annotations

import pytest

from perfbench.check import Capture, verify
from perfbench.tests.test_ledger import short_spec
from perfbench.workloads import WORKLOADS


def driven(name: str):
    from repro.workload import ADAPTERS, materialize
    from repro.workload.driver import drive

    wl = WORKLOADS[name]
    spec = short_spec(wl)
    adapter = ADAPTERS[wl.arch](spec)
    cap = Capture(adapter)
    events = materialize(spec)
    records = drive(adapter, spec, events)
    return wl, adapter, events, cap, records


@pytest.mark.parametrize("name", ["broker-open-sim", "failover-closed-sim"])
def test_clean_run_passes(name):
    wl, adapter, events, cap, records = driven(name)
    assert verify(wl.arch, adapter.service, events, cap) == ([], [])
    assert sorted(cap.records) == sorted(records)


def test_tampered_partition_log_is_caught():
    wl, adapter, events, cap, _ = driven("broker-open-sim")
    log = adapter.service.server(1).partition(1)
    log.append("intruder", b"x")
    problems, _ = verify(wl.arch, adapter.service, events, cap)
    assert any("partition 1" in p for p in problems)


def test_diverged_replica_is_caught():
    from repro.redislite import Command

    wl, adapter, events, cap, _ = driven("failover-closed-sim")
    adapter.service.backend_app(1).payload.execute(Command("SET", "intruder", b"x"))
    problems, _ = verify(wl.arch, adapter.service, events, cap)
    assert [p.split(":")[0] for p in problems] == ["replica b2"]


def test_wrong_reply_is_caught():
    wl, adapter, events, cap, _ = driven("broker-open-sim")
    i = next(i for i, r in enumerate(cap.requests) if r.op == "PUB")
    reply = cap.replies[i]
    cap.replies[i] = type(reply)(ok=True, offset=reply.offset + 1)
    problems, _ = verify(wl.arch, adapter.service, events, cap)
    assert problems and problems[0].startswith(f"request {i} (PUB")


def test_unsubmitted_op_is_a_failure_not_a_wrong_output():
    wl, adapter, events, cap, _ = driven("broker-open-sim")
    problems, failures = verify(wl.arch, adapter.service, events + [events[-1]], cap)
    assert problems == []
    assert failures == [f"1 ops never submitted (indices [{len(events)}])"]
