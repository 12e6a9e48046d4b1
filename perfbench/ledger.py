"""The per-layer cost ledger: spans and counters around each layer's
public entry points, installed from outside ``repro``.

:meth:`Ledger.install` replaces entry points on their classes and, for
functions, on every ``repro`` module that imported them by name (the
realtime engine binds ``encode_message``/``decode_message``/``frame``
at import, so patching :mod:`repro.runtime.wire` alone would count
nothing).  It must run before the ``System`` is built: the runtime
caches bound methods (attempt callbacks, host bindings) at build time.

Every wrapped call is a span: its *self time* is its wall duration
minus the spans it encloses.  Callbacks handed to a clock are wrapped
too and charged to the layer that scheduled them, so the sim loop's
self time is its own heap and dispatch work, not the callbacks' code.
Callbacks scheduled outside any span are charged to ``Ledger.layer``:
``workload`` while driving (the open-loop arrivals), ``core`` while
building (the architecture's own timers, such as failover's
reactivation poll; not reported).  Each thread keeps its own tally;
realtime host blocks run on worker threads, and their spans count
toward the layer totals but not toward the main thread's coverage of
the drive wall.
"""

from __future__ import annotations

import sys
import threading
import time
from bisect import bisect_right
from collections import defaultdict

#: layers whose self time the ledger reports, in report order
LAYERS = (
    "sim", "realtime", "workload", "channels", "delivery", "kvtable",
    "junction", "host", "front", "serde", "wire", "telemetry",
)

#: the per-layer metrics a traced run reports, in order
METRICS = (
    "sim.timers_per_op", "sim.posts_per_op", "sim.self_us_per_op",
    "realtime.timer_late_ms.p50", "realtime.timer_late_ms.p99",
    "realtime.timers_per_op", "realtime.self_us_per_op",
    "workload.arrival_late_ms.p50", "workload.arrival_late_ms.p99",
    "workload.self_us_per_op",
    "channels.msgs_per_op", "channels.self_us_per_op",
    "delivery.sends_per_op", "delivery.self_us_per_op",
    "delivery.retransmits", "delivery.dedup_suppressed",
    "kvtable.receives_per_op", "kvtable.set_local_per_op",
    "kvtable.self_us_per_op", "kvtable.pending_peak",
    "junction.attempts_per_op", "junction.runs_per_op", "junction.run_ratio",
    "junction.self_us_per_op", "compile.fallback_junctions",
    "host.calls_per_op", "host.self_us_per_op", "host.modelled_ms_per_op",
    "front.queue_wait_ms.p50", "front.queue_wait_ms.p99",
    "front.queue_depth_peak", "front.self_us_per_op",
    "serde.encodes_per_op", "serde.bytes_per_op", "serde.self_us_per_op",
    "wire.frames_per_op", "wire.bytes_per_op", "wire.self_us_per_op",
    "telemetry.emits_per_op", "telemetry.self_us_per_op",
    "setup.import_s", "setup.compile_program_s", "setup.codegen_s",
    "trace.overhead_frac", "trace.unattributed_frac", "trace.drive_us_per_op",
)

#: metrics of the layers only a wall-clock engine exercises: always 0
#: on sim, so a sim workload does not report them
WALL_CLOCK_ONLY = frozenset({
    "realtime.timer_late_ms.p50", "realtime.timer_late_ms.p99",
    "realtime.timers_per_op", "realtime.self_us_per_op",
    "workload.arrival_late_ms.p50", "workload.arrival_late_ms.p99",
    "wire.frames_per_op", "wire.bytes_per_op", "wire.self_us_per_op",
})


def metrics_for(realtime: bool) -> tuple[str, ...]:
    """The per-layer metrics a workload on a (non-)wall-clock engine reports."""
    return METRICS if realtime else tuple(m for m in METRICS if m not in WALL_CLOCK_ONLY)


UNITS = {
    "_per_op": "count", "self_us_per_op": "us", "_ms.p50": "ms", "_ms.p99": "ms",
    "bytes_per_op": "bytes", "modelled_ms_per_op": "ms", "_s": "s", "_frac": "ratio",
    "run_ratio": "ratio", "drive_us_per_op": "us",
}


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric (longest matching suffix)."""
    best = ""
    for suffix in UNITS:
        if metric.endswith(suffix) and len(suffix) > len(best):
            best = suffix
    return UNITS[best] if best else "count"


def midquantile(values, q: float) -> float:
    """The ``q`` mid-quantile of ``values`` rounded to 1e-6: linear
    interpolation of the mid-distribution function between distinct
    values.  On tie-free samples this is the usual interpolated
    percentile; on a deterministic simulation's logical latencies,
    which take a few modelled values with many ties, it still moves
    with the share of ops at each value instead of snapping to one."""
    if not values:
        return 0.0
    s = sorted(round(v, 6) for v in values)
    n = len(s)
    xs: list[float] = []
    mids: list[float] = []
    i = 0
    while i < n:
        j = bisect_right(s, s[i], i)
        xs.append(s[i])
        mids.append((i + j) / (2 * n))
        i = j
    if q <= mids[0]:
        return xs[0]
    if q >= mids[-1]:
        return xs[-1]
    k = bisect_right(mids, q)
    w = (q - mids[k - 1]) / (mids[k] - mids[k - 1])
    return xs[k - 1] + w * (xs[k] - xs[k - 1])


class _Tally:
    """One thread's share of the ledger."""

    __slots__ = ("calls", "self_s", "top_s", "stack", "samples", "sums",
                 "peaks", "nested")

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        #: seconds covered by this thread's outermost spans
        self.top_s = 0.0
        #: open spans as [layer, seconds covered by child spans]
        self.stack: list[list] = []
        self.samples = defaultdict(list)
        self.sums = defaultdict(float)
        self.peaks = defaultdict(int)
        #: inside a clock scheduling call (call_after delegating to
        #: call_at must count one timer, not two)
        self.nested = 0

    def clear(self) -> None:
        for d in (self.calls, self.self_s, self.samples, self.sums, self.peaks):
            d.clear()
        self.top_s = 0.0


class Ledger:
    """Spans and counts per layer; see the module docstring."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[_Tally] = []
        self._patches: list[tuple[object, str, object]] = []
        self._front_t0: dict[int, float] = {}
        self._events: dict[str, int] = defaultdict(int)
        self._net0: dict = {}
        self._fallbacks = 0
        #: the layer charged with callbacks scheduled outside any span
        self.layer = "core"

    # -- accounting -------------------------------------------------------

    def tally(self) -> _Tally:
        """The calling thread's tally."""
        t = getattr(self._tls, "t", None)
        if t is None:
            t = self._tls.t = _Tally()
            with self._lock:
                self._tallies.append(t)
        return t

    def span(self, layer: str, fn, count: str | None = None):
        """``fn`` wrapped in a span of ``layer`` (and counted under
        ``count`` when given)."""
        tls, tally = self._tls, self.tally
        perf = time.perf_counter

        def spanned(*args, **kwargs):
            try:
                t = tls.t
            except AttributeError:
                t = tally()
            if count is not None:
                t.calls[count] += 1
            stack = t.stack
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                t.self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    t.top_s += dur

        return spanned

    def _scheduling_layer(self, t: _Tally, clock_layer: str) -> str:
        """The layer that called the clock: the innermost open span
        that is not one of the clock's own scheduling calls."""
        for layer, _ in reversed(t.stack):
            if layer != clock_layer:
                return layer
        return self.layer

    # -- patching ---------------------------------------------------------

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name, _ABSENT)))
        setattr(owner, name, value)

    def _method(self, cls, name: str, layer: str, count: str | None = None) -> None:
        self._set(cls, name, self.span(layer, getattr(cls, name), count))

    def _function(self, module, name: str, wrapper_of) -> int:
        """Replace function ``module.name`` in every loaded ``repro``
        module bound to it; returns how many bindings were replaced."""
        orig = getattr(module, name)
        new = wrapper_of(orig)
        n = 0
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, new)
                    n += 1
        return n

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        while self._patches:
            owner, name, old = self._patches.pop()
            if old is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, old)

    def install(self) -> dict[str, int]:
        """Wrap every layer's entry points.  Returns, per wrapped
        module-level function, how many module bindings were patched."""
        # every module that binds a wrapped function by name must be
        # loaded before the scan in _function
        import repro.arch.broker  # noqa: F401
        import repro.arch.failover  # noqa: F401
        import repro.workload.driver  # noqa: F401
        from repro import compile as rcompile
        from repro.arch import ports
        from repro.core import compiler
        from repro.runtime import (channels, delivery, host, interpreter, kvtable,
                                   realtime, sim, system, wire)
        from repro.serde import framing
        from repro.telemetry import facade

        self._sim_clock(sim.Simulator)
        self._realtime_clock(realtime.RealtimeClock)

        self._method(channels.Network, "send", "channels", "channels.msgs")
        self._method(channels.Network, "dispatch", "channels", "channels.dispatches")

        self._method(delivery.ReliableDelivery, "send", "delivery", "delivery.sends")
        self._method(delivery.ReliableDelivery, "ack", "delivery")
        self._method(delivery.ReliableDelivery, "cancel", "delivery")

        KV = kvtable.KVTable
        self._set(KV, "receive", self.span("kvtable", self._kv_receive(KV.receive),
                                           "kvtable.receives"))
        self._method(KV, "set_local", "kvtable", "kvtable.set_local")
        self._method(KV, "set_slot", "kvtable", "kvtable.set_local")
        self._method(KV, "apply_pending", "kvtable")
        self._method(KV, "apply_pending_for", "kvtable")

        self._method(system.System, "attempt_schedule", "junction")
        JE = interpreter.JunctionExecution
        for name in ("start", "_pump_cb", "on_ack", "on_delivery_failure"):
            self._method(JE, name, "junction")

        self._host(system.System, realtime.ThreadPoolHostExecutor, host.HostContext)
        self._front(ports.FrontApp)

        S = framing.Serializer
        self._set(S, "encode", self.span("serde", self._sized(S.encode, "serde.bytes"),
                                         "serde.encodes"))
        self._method(S, "decode", "serde", "serde.decodes")

        patched = {
            "encode_message": self._function(
                wire, "encode_message", lambda f: self.span("wire", f, "wire.encodes")),
            "decode_message": self._function(
                wire, "decode_message", lambda f: self.span("wire", f, "wire.decodes")),
            "frame": self._function(
                wire, "frame",
                lambda f: self.span("wire", self._sized(f, "wire.bytes"), "wire.frames")),
            "compile_program": self._function(
                compiler, "compile_program", lambda f: self._timed(f, "setup.compile_program_s")),
            "compile_junction_code": self._function(
                rcompile, "compile_junction_code", lambda f: self._timed(f, "setup.codegen_s")),
        }
        self._method(facade.Telemetry, "emit", "telemetry", "telemetry.emits")
        return patched

    # -- layer-specific wrappers -------------------------------------------

    def _sim_clock(self, S) -> None:
        """Simulator: ``call_after`` wraps the callback and counts the
        timer, so a non-zero delay delegating to ``call_at`` passes
        straight through."""
        call_at, call_after, post = S.call_at, S.call_after, S.post
        span, tally = self.span, self.tally

        def at(clock, when, callback, *args, **kw):
            t = tally()
            if t.nested:
                return call_at(clock, when, callback, *args, **kw)
            t.calls["sim.timers"] += 1
            return call_at(clock, when, span(self._scheduling_layer(t, "sim"), callback), *args, **kw)

        def after(clock, delay, callback, *args, **kw):
            t = tally()
            t.calls["sim.timers"] += 1
            cb = span(self._scheduling_layer(t, "sim"), callback)
            t.nested += 1
            try:
                return call_after(clock, delay, cb, *args, **kw)
            finally:
                t.nested -= 1

        def posted(clock, callback, **kw):
            t = tally()
            t.calls["sim.posts"] += 1
            return post(clock, span(self._scheduling_layer(t, "sim"), callback), **kw)

        self._set(S, "call_at", span("sim", at))
        self._set(S, "call_after", span("sim", after))
        self._set(S, "post", span("sim", posted))
        self._method(S, "run_until", "sim")

    def _realtime_clock(self, C) -> None:
        """RealtimeClock: ``call_at`` wraps every callback with its
        lateness (fire time minus due time, on the engine clock);
        ``call_after`` only counts and delegates."""
        call_at, call_after = C.call_at, C.call_after
        span, tally = self.span, self.tally

        def at(clock, when, callback, *args, **kw):
            t = tally()
            if not t.nested:
                t.calls["realtime.timers"] += 1
            inner = span(self._scheduling_layer(t, "realtime"), callback)

            def fire():
                tally().samples["realtime.timer_late_ms"].append((clock.now - when) * 1e3)
                inner()

            return call_at(clock, when, fire, *args, **kw)

        def after(clock, delay, callback, *args, **kw):
            t = tally()
            t.calls["realtime.timers"] += 1
            t.nested += 1
            try:
                return call_after(clock, delay, callback, *args, **kw)
            finally:
                t.nested -= 1

        self._set(C, "call_at", span("realtime", at))
        self._set(C, "call_after", span("realtime", after))

    def _kv_receive(self, receive):
        tally = self.tally

        def received(table, update):
            receive(table, update)
            t = tally()
            n = table.pending_count
            if n > t.peaks["kvtable.pending_peak"]:
                t.peaks["kvtable.pending_peak"] = n

        return received

    def _host(self, System, Executor, HostContext) -> None:
        bind_host, take = System.bind_host, HostContext.take
        tally = self.tally

        def bound(sys_, type_name, fn_name, fn):
            return bind_host(sys_, type_name, fn_name, self.span("host", fn, "host.calls"))

        def took(ctx, dt):
            tally().sums["host.modelled_s"] += dt
            return take(ctx, dt)

        self._set(System, "bind_host", bound)
        self._set(HostContext, "take", took)
        self._method(Executor, "invoke", "host", "host.invokes")

    def _front(self, F) -> None:
        """FrontApp: queue wait from ``submit`` to ``begin_next``, on
        the engine clock, and the peak queue depth."""
        submit, begin_next = F.submit, F.begin_next
        t0s, tally = self._front_t0, self.tally

        def submitted(app, request, on_done):
            t0s[id(request)] = app.system.now
            submit(app, request, on_done)
            t = tally()
            if len(app.queue) > t.peaks["front.queue_depth_peak"]:
                t.peaks["front.queue_depth_peak"] = len(app.queue)

        def began(app):
            req = begin_next(app)
            if req is not None:
                t0 = t0s.pop(id(req), None)
                if t0 is not None:
                    tally().samples["front.queue_wait_ms"].append((app.system.now - t0) * 1e3)
            return req

        self._set(F, "submit", self.span("front", submitted, "front.submits"))
        self._set(F, "begin_next", self.span("front", began, "front.begins"))
        for name in ("respond", "fail_current"):
            self._method(F, name, "front")

    def _sized(self, fn, name: str):
        tally = self.tally

        def sized(*args, **kwargs):
            out = fn(*args, **kwargs)
            tally().sums[name] += len(out)
            return out

        return sized

    def _timed(self, fn, name: str):
        tally, perf = self.tally, time.perf_counter

        def timed(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tally().sums[name] += perf() - t0

        return timed

    # -- the drive phase ----------------------------------------------------

    def begin_drive(self, adapter) -> dict[str, float]:
        """Start counting the drive phase of a built workload adapter:
        charges its submissions to the ``workload`` layer, subscribes to
        its system's telemetry, records compile fallbacks, zeroes every
        tally.  Returns the set-up sums recorded while building."""
        system = adapter.system
        self._set(adapter, "submit", self.span("workload", adapter.submit))
        setup = {}
        with self._lock:
            for t in self._tallies:
                for k, v in t.sums.items():
                    if k.startswith("setup."):
                        setup[k] = setup.get(k, 0.0) + v
                t.clear()
        events = self._events
        events.clear()

        def on_emit(rec: dict) -> None:
            events[rec["kind"]] += 1

        system.telemetry.on_emit(on_emit)
        self._fallbacks = sum(
            1
            for inst in system.instances.values()
            for jr in inst.junctions.values()
            if jr.body is not None and jr.code is None
        )
        self._net0 = dict(system.network.stats)
        self.layer = "workload"
        return setup

    def collect(self, system, ops: int, drive_s: float) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer metrics of the drive phase (without the set-up
        and overhead figures, which the caller adds), and the raw call
        counts behind them."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        samples: dict[str, list] = defaultdict(list)
        sums: dict[str, float] = defaultdict(float)
        peaks: dict[str, int] = defaultdict(int)
        main = self.tally()
        with self._lock:
            for t in self._tallies:
                for k, v in t.calls.items():
                    calls[k] += v
                for k, v in t.self_s.items():
                    self_s[k] += v
                for k, v in t.samples.items():
                    samples[k].extend(v)
                for k, v in t.sums.items():
                    sums[k] += v
                for k, v in t.peaks.items():
                    peaks[k] = max(peaks[k], v)
        net = system.network.stats
        ops = max(ops, 1)
        attempts, runs = self._events["attempt"], self._events["sched"]
        m = {
            "sim.timers_per_op": calls["sim.timers"] / ops,
            "sim.posts_per_op": calls["sim.posts"] / ops,
            "realtime.timer_late_ms.p50": midquantile(samples["realtime.timer_late_ms"], 0.50),
            "realtime.timer_late_ms.p99": midquantile(samples["realtime.timer_late_ms"], 0.99),
            "realtime.timers_per_op": calls["realtime.timers"] / ops,
            "channels.msgs_per_op": calls["channels.msgs"] / ops,
            "delivery.sends_per_op": calls["delivery.sends"] / ops,
            "delivery.retransmits": net.get("retransmits", 0) - self._net0.get("retransmits", 0),
            "delivery.dedup_suppressed":
                net.get("dedup_suppressed", 0) - self._net0.get("dedup_suppressed", 0),
            "kvtable.receives_per_op": calls["kvtable.receives"] / ops,
            "kvtable.set_local_per_op": calls["kvtable.set_local"] / ops,
            "kvtable.pending_peak": peaks["kvtable.pending_peak"],
            "junction.attempts_per_op": attempts / ops,
            "junction.runs_per_op": runs / ops,
            "junction.run_ratio": runs / attempts if attempts else 0.0,
            "compile.fallback_junctions": self._fallbacks,
            "host.calls_per_op": calls["host.calls"] / ops,
            "host.modelled_ms_per_op": sums["host.modelled_s"] * 1e3 / ops,
            "front.queue_wait_ms.p50": midquantile(samples["front.queue_wait_ms"], 0.50),
            "front.queue_wait_ms.p99": midquantile(samples["front.queue_wait_ms"], 0.99),
            "front.queue_depth_peak": peaks["front.queue_depth_peak"],
            "serde.encodes_per_op": calls["serde.encodes"] / ops,
            "serde.bytes_per_op": sums["serde.bytes"] / ops,
            "wire.frames_per_op": calls["wire.frames"] / ops,
            "wire.bytes_per_op": sums["wire.bytes"] / ops,
            "telemetry.emits_per_op": calls["telemetry.emits"] / ops,
            "trace.unattributed_frac": max(0.0, 1.0 - main.top_s / drive_s) if drive_s else 0.0,
            "trace.drive_us_per_op": drive_s * 1e6 / ops,
        }
        for layer in LAYERS:
            m[f"{layer}.self_us_per_op"] = self_s[layer] * 1e6 / ops
        return m, dict(calls)


_ABSENT = object()
