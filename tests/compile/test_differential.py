"""Differential harness: compiled junctions vs the tree-walking
interpreter.

The compiler's correctness bar (ISSUE 7) is *byte-identical telemetry*:
for every shipped architecture, the same seeded workload driven through
a compiled system and an interpreted system must export the same JSONL
trace — same events, same order, same simulated timestamps, same
payloads.  Anything the compiler reorders, skips, or double-emits shows
up as a byte diff here.

The workloads are the exploration scenarios (one per shipped
architecture, deterministic by construction) plus the failover chaos
soak, which layers seeded crash storms and loss bursts on top.  The
explored-schedule differential goes further: DPOR drives both evaluators
through the same interleavings under the schedule controller, and every
schedule must match byte for byte, not only the default one.
"""

import pytest

from repro.compile import compilation
from repro.explore import explore
from repro.explore.scenarios import _ARCH_SCENARIOS, arch_scenario
from tests.arch.test_chaos_soak import _failover_soak


def _junction_codes(system):
    return [
        jr.code
        for inst in system.instances.values()
        for jr in inst.junctions.values()
    ]


def _run(name, compiled):
    with compilation(compiled):
        return arch_scenario(name).run()


@pytest.mark.parametrize("name", sorted(_ARCH_SCENARIOS))
def test_telemetry_byte_identical(name):
    interp = _run(name, compiled=False)
    comp = _run(name, compiled=True)

    # Non-vacuity: the compiled run must actually have compiled
    # junctions (and the interpreted run none), otherwise this test
    # compares the interpreter against itself.
    assert all(c is None for c in _junction_codes(interp))
    n_compiled = sum(c is not None for c in _junction_codes(comp))
    assert n_compiled > 0, f"{name}: no junction was compiled"

    a = interp.telemetry.export("jsonl").encode()
    b = comp.telemetry.export("jsonl").encode()
    assert a == b, f"{name}: compiled telemetry diverges from interpreted"


def test_all_shipped_junctions_compile():
    """Coverage floor: across the shipped architectures every bound
    junction lowers — nothing silently falls back to the interpreter.
    If a future construct lands outside the lowering, shrink this to a
    named allowlist rather than deleting it."""
    fallbacks = []
    for name in sorted(_ARCH_SCENARIOS):
        system = _run(name, compiled=True)
        for inst in system.instances.values():
            for jr in inst.junctions.values():
                if jr.body is not None and jr.code is None:
                    fallbacks.append(f"{name}:{jr.node}")
    assert fallbacks == []


def test_chaos_soak_differential():
    """The full failover chaos digest (reply stream, fault schedule,
    invariant checks, retransmit counts, telemetry bytes) is identical
    under both evaluators — compiled bodies consume the seeded RNG
    streams in exactly the interpreter's order."""
    with compilation(False):
        interp = _failover_soak(2)
    with compilation(True):
        comp = _failover_soak(2)
    assert interp == comp


def _explored(name, compiled):
    """``(schedule id, telemetry JSONL, junction codes)`` for every
    schedule DPOR runs at budget 8."""
    runs = []

    def record(res):
        assert res.system.clock.controller is not None
        runs.append((
            res.schedule.schedule_id,
            res.system.telemetry.export("jsonl").encode(),
            _junction_codes(res.system),
        ))

    with compilation(compiled):
        explore(arch_scenario(name), strategy="dpor", budget=8, on_run=record)
    return runs


@pytest.mark.parametrize("name", sorted(_ARCH_SCENARIOS))
def test_explored_schedules_byte_identical(name):
    interp = _explored(name, compiled=False)
    comp = _explored(name, compiled=True)

    # Non-vacuity: compiled junction code really runs under the
    # schedule controller, and the interpreted side has none.
    assert all(c is None for _, _, codes in interp for c in codes)
    assert all(any(c is not None for c in codes) for _, _, codes in comp)

    assert [sid for sid, _, _ in comp] == [sid for sid, _, _ in interp]
    for (sid, a, _), (_, b, _) in zip(interp, comp):
        assert a == b, f"{name}: compiled telemetry diverges under schedule {sid}"
