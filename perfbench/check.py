"""The correctness gate: every reply and the final substrate state must
equal a reference replay of the same requests through ``brokerlite`` /
``redislite`` alone.

:class:`Capture` records the requests an adapter hands to its service,
in submission order, with each reply and its wall-clock completion
time.  Both architectures serve requests one at a time in front-queue
order, so the reference executes them in exactly that order.
"""

from __future__ import annotations

import time


class Capture:
    """Requests, replies and completion times of one drive."""

    def __init__(self, adapter):
        self.order: list[int] = []
        self.requests: list = []
        self.replies: list = []
        self.walls: list[float | None] = []
        #: ``(index, ok, submitted, completed)`` on the engine clock, in
        #: completion order: the driver's record shape, kept here too
        #: for drives that raise before returning theirs
        self.records: list[tuple] = []
        clock = adapter.system.clock
        base = clock.now

        submit_event = adapter.submit
        svc = adapter.service
        submit_request = svc.submit

        def on_event(event, on_done):
            self.order.append(event.index)
            start = clock.now - base

            def done(ok, idx=event.index):
                self.records.append((idx, bool(ok), start, clock.now - base))
                on_done(ok)

            submit_event(event, done)

        def on_request(req, on_done):
            i = len(self.requests)
            self.requests.append(req)
            self.replies.append(None)
            self.walls.append(None)

            def done(reply):
                self.replies[i] = reply
                self.walls[i] = time.perf_counter()
                on_done(reply)

            submit_request(req, done)

        adapter.submit = on_event
        svc.submit = on_request


def verify(arch: str, service, events, cap: Capture) -> tuple[list[str], list[str]]:
    """``(problems, failures)``: wrong outputs, and ops that did not
    complete ok.  Replies are checked in submission order up to the
    first op that did not complete ok (after it the reference cannot
    know what the architecture applied); the final state is checked
    when every submitted op completed ok."""
    problems: list[str] = []
    failures: list[str] = []
    if len(set(cap.order)) != len(cap.order) or len(cap.requests) != len(cap.order):
        problems.append(f"{len(cap.order)} submissions became {len(cap.requests)} requests")
        return problems, failures
    unsubmitted = len(events) - len(cap.order)
    if unsubmitted:
        late = sorted(set(range(len(events))) - set(cap.order))
        failures.append(f"{unsubmitted} ops never submitted (indices {late[:5]})")
    for idx, req in zip(cap.order, cap.requests):
        ev = events[idx]
        if not _matches(arch, service, req, ev):
            problems.append(f"op {idx}: request {req} for {ev.op} {ev.key!r}")
            return problems, failures
    done = 0
    for reply in cap.replies:
        if reply is None or not reply.ok:
            break
        done += 1
    missing = sum(1 for r in cap.replies if r is None)
    failed = sum(1 for r in cap.replies if r is not None and not r.ok)
    if missing or failed:
        failures.append(f"{missing} submitted ops without a reply, {failed} failed replies")
    if arch == "broker_sharded":
        problems += _verify_broker(service, cap, done)
    elif arch == "failover":
        problems += _verify_failover(service, cap, done)
    else:
        problems.append(f"no reference replay for {arch!r}")
    return problems, failures


def _matches(arch: str, service, req, ev) -> bool:
    """Whether ``req`` is the request the generated event ``ev`` asks for."""
    if arch == "broker_sharded":
        from repro.brokerlite import partition_for

        if ev.op == "write":
            return req.op == "PUB" and req.key == ev.key
        return req.op == "FETCH" and req.partition == partition_for(ev.key, service.n_partitions)
    return req.op == ("SET" if ev.op == "write" else "GET") and req.key == ev.key


def _verify_broker(service, cap: Capture, done: int) -> list[str]:
    from dataclasses import replace

    from repro.brokerlite import BrokerServer, partition_for

    n = service.n_partitions
    ref = BrokerServer(name="reference")
    for i, (req, got) in enumerate(zip(cap.requests[:done], cap.replies)):
        if req.op == "PUB":
            req = replace(req, partition=partition_for(req.key, n))
        want, _ = ref.execute(req)
        if (
            got.offset != want.offset
            or got.high_water != want.high_water
            or _records(got.records) != _records(want.records)
        ):
            return [f"request {i} ({req.op} p{req.partition}): reply {got} != reference {want}"]
    problems: list[str] = []
    if done < len(cap.requests):
        return problems
    for p in range(n):
        server = service.server(p)
        actual = _records(r.as_list() for r in server.partition(p).records)
        expected = _records(r.as_list() for r in ref.partition(p).records)
        if actual != expected:
            problems.append(
                f"partition {p}: log of {len(actual)} records != reference of {len(expected)}"
            )
        stray = sorted(q for q, log in server.partitions.items() if q != p and log.size())
        if stray:
            problems.append(f"back-end of partition {p} holds records of partitions {stray}")
    return problems


def _records(records):
    """Records without their timestamps (which are clock readings)."""
    if records is None:
        return None
    return [[r[0], r[1], bytes(r[2])] for r in records]


def _verify_failover(service, cap: Capture, done: int) -> list[str]:
    from repro.redislite import RedisServer

    ref = RedisServer(name="reference")
    for i, (cmd, got) in enumerate(zip(cap.requests[:done], cap.replies)):
        want, _ = ref.execute(cmd)
        if (got.value, got.hit) != (want.value, want.hit):
            return [f"request {i} ({cmd.op} {cmd.key}): reply {got} != reference {want}"]
    if done < len(cap.requests):
        return []
    expected = ref.store.snapshot()
    problems: list[str] = []
    for b in service.back_instances():
        store = service.system.instance(b).app.payload.store
        if store.snapshot() != expected:
            problems.append(f"replica {b}: {store.size()} keys != reference {ref.store.size()}")
    return problems
