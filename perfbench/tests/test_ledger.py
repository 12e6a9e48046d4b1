"""The traced wrappers fire wherever a layer is predicted to work.

Each workload runs in-process on a shortened schedule with the ledger
installed; the tests then check the raw call counts per layer, so a
wrapper that silently stops firing (a renamed entry point, a function
imported by name into another module, an install after the ``System``
was built) fails here rather than reporting a zero cost.

Run:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses

import pytest

from perfbench.child import run_round
from perfbench.ledger import LAYERS, METRICS, Ledger, metrics_for, unit_of
from perfbench.workloads import WORKLOADS

#: counters every workload must move: each names a wrapped entry point
COMMON = {
    "channels.msgs", "channels.dispatches", "delivery.sends",
    "kvtable.receives", "kvtable.set_local", "host.calls",
    "front.submits", "front.begins", "serde.encodes", "serde.decodes",
    "telemetry.emits",
}
#: counters by engine: the layers only one engine exercises
BY_ENGINE = {
    "sim": {"sim.timers", "sim.posts"},
    "realtime-tcp": {"realtime.timers", "host.invokes",
                     "wire.encodes", "wire.decodes", "wire.frames"},
}
#: layers with self time on every workload, and the engine-only ones
BUSY = {"channels", "delivery", "kvtable", "junction", "host", "front", "serde", "telemetry"}
BUSY_BY_ENGINE = {"sim": {"sim"}, "realtime-tcp": {"realtime", "wire"}}


def short_spec(wl, seed: int = 3):
    """A schedule of a few dozen ops with the workload's shape."""
    spec = wl.spec(seed, 1.5)
    if wl.mode == "closed":
        return dataclasses.replace(spec, max_ops=60, duration=1.0)
    if not wl.realtime:
        return dataclasses.replace(spec, duration=0.1)
    return spec


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    wl = WORKLOADS[request.param]
    return wl, run_round(wl, 3, 1.5, "drive", True, spec=short_spec(wl))


def test_every_predicted_wrapper_fires(traced):
    wl, out = traced
    assert out["problems"] == []
    expected = COMMON | BY_ENGINE[wl.engine]
    silent = sorted(k for k in expected if out["calls"].get(k, 0) == 0)
    assert silent == [], f"{wl.name}: wrappers never fired: {silent}"
    others = set().union(*BY_ENGINE.values()) - BY_ENGINE[wl.engine]
    assert all(out["calls"].get(k, 0) == 0 for k in others)


def test_every_busy_layer_has_self_time(traced):
    wl, out = traced
    layers = out["layers"]
    for layer in BUSY | BUSY_BY_ENGINE[wl.engine]:
        assert layers[f"{layer}.self_us_per_op"] > 0, layer
    idle = set(BUSY_BY_ENGINE) - {wl.engine}
    for engine in idle:
        for layer in BUSY_BY_ENGINE[engine]:
            assert layers[f"{layer}.self_us_per_op"] == 0, layer


def test_junction_and_setup_counts(traced):
    wl, out = traced
    layers = out["layers"]
    assert layers["junction.attempts_per_op"] >= layers["junction.runs_per_op"] > 0
    assert 0 < layers["junction.run_ratio"] <= 1
    assert layers["compile.fallback_junctions"] == 0
    assert layers["setup.compile_program_s"] > 0
    assert layers["setup.codegen_s"] > 0
    assert layers["host.modelled_ms_per_op"] > 0
    assert layers["front.queue_depth_peak"] >= 1
    # a traced round reports every metric the benchmark names except
    # the overhead, which compares it with an untraced round
    assert set(METRICS) - set(layers) == {"trace.overhead_frac"}


def test_load_generator_charged_to_workload(traced):
    wl, out = traced
    layers = out["layers"]
    assert layers["workload.self_us_per_op"] > 0
    if wl.engine == "sim":
        # arrivals fire exactly when due on the simulated clock
        assert layers["workload.arrival_late_ms.p99"] == 0.0


def test_functions_imported_by_name_are_patched():
    """The realtime engine binds the wire codec at import, so the
    ledger must replace those bindings, not just ``repro.runtime.wire``'s."""
    from repro.runtime import realtime, wire

    originals = {n: getattr(wire, n) for n in ("encode_message", "decode_message", "frame")}
    ledger = Ledger()
    patched = ledger.install()
    try:
        for name, orig in originals.items():
            assert patched[name] >= 2, name
            assert getattr(realtime, name) is not orig
            assert getattr(realtime, name) is getattr(wire, name)
    finally:
        ledger.uninstall()
    for name, orig in originals.items():
        assert getattr(realtime, name) is orig
        assert getattr(wire, name) is orig


def test_install_after_build_misses_host_blocks():
    """Host blocks are bound while the architecture is built; a ledger
    installed afterwards never sees them — which is why ``run_round``
    installs first."""
    from repro.workload import ADAPTERS, materialize
    from repro.workload.driver import drive

    wl = WORKLOADS["broker-open-sim"]
    spec = short_spec(wl)
    adapter = ADAPTERS[wl.arch](spec)
    ledger = Ledger()
    ledger.install()
    try:
        ledger.begin_drive(adapter)
        events = materialize(spec)
        drive(adapter, spec, events)
        _, calls = ledger.collect(adapter.system, len(events), 1.0)
    finally:
        ledger.uninstall()
    assert calls.get("host.calls", 0) == 0
    assert calls["channels.msgs"] > 0


def test_layers_cover_every_self_time_metric():
    assert {f"{layer}.self_us_per_op" for layer in LAYERS} <= set(METRICS)


def test_sim_workloads_skip_only_wall_clock_layers(traced):
    """What a sim workload leaves out reads 0 there; everything it
    reports that times a layer is non-zero."""
    wl, out = traced
    if wl.engine != "sim":
        return
    layers = out["layers"]
    skipped = set(METRICS) - set(metrics_for(False))
    assert skipped and all(layers[m] == 0 for m in skipped)
    timed = [m for m in metrics_for(False) if unit_of(m) in ("us", "ms", "s")]
    assert [m for m in timed if m in layers and layers[m] == 0] == []
