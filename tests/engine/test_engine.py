"""Engine seam unit tests: selection, capability guards, the realtime
clock/executor, and the TCP wire codec."""

import threading

import pytest

from repro.runtime import RealtimeEngine, SimEngine, create_engine, default_engine
from repro.runtime.channels import Message
from repro.runtime.engine import use_controller
from repro.runtime.kvtable import Update
from repro.runtime.realtime import RealtimeClock
from repro.runtime.wire import decode_message, encode_message
from repro.serde.framing import SavedData

from ..runtime.helpers import failures_of, single_junction

# compress logical time hard: these tests run logical seconds in
# milliseconds of wall time
SCALE = 0.002


class TestSelection:
    def test_create_engine_names(self):
        assert create_engine("sim").name == "sim"
        rt = create_engine("realtime", time_scale=SCALE)
        assert rt.name == "realtime" and rt.transport.inproc
        rt.close()
        tcp = create_engine("realtime-tcp", time_scale=SCALE)
        assert tcp.name == "realtime-tcp" and not tcp.transport.inproc
        tcp.close()

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            create_engine("quantum")

    def test_string_spec_on_system(self):
        sys_ = single_junction("skip", engine="sim")
        assert sys_.engine.name == "sim"
        assert isinstance(sys_.engine, SimEngine)

    def test_default_engine_scope(self):
        with default_engine(lambda: RealtimeEngine(time_scale=SCALE)):
            sys_ = single_junction("skip")
        assert sys_.engine.name == "realtime"
        sys_.shutdown()
        # the scope is gone: new systems default to sim again
        assert single_junction("skip").engine.name == "sim"

    def test_controller_requires_sim_engine(self):
        with use_controller(lambda: None):
            with pytest.raises(ValueError, match="controlled scheduling"):
                single_junction("skip", engine=RealtimeEngine(time_scale=SCALE))

    def test_metrics_carry_engine_label(self):
        sys_ = single_junction("skip")
        sys_.start()
        sys_.run_until(1.0)
        snap = sys_.telemetry.metrics.snapshot()
        assert any("engine=sim" in labels for fam in snap.values() for labels in fam)


class TestRealtimeClock:
    def test_timers_fire_in_logical_order(self):
        clock = RealtimeClock(time_scale=SCALE)
        fired = []
        clock.call_after(0.5, lambda: fired.append("late"))
        clock.call_after(0.1, lambda: fired.append("early"))
        assert clock.pending_events() == 2
        clock.run_until(1.0)
        assert fired == ["early", "late"]
        assert clock.pending_events() == 0
        assert clock.now >= 1.0  # run_until floors logical now
        clock.close()

    def test_cancel_removes_pending(self):
        clock = RealtimeClock(time_scale=SCALE)
        fired = []
        h = clock.call_after(0.2, lambda: fired.append("x"))
        assert not h.cancelled and clock.pending_events() == 1
        h.cancel()
        assert h.cancelled and clock.pending_events() == 0
        clock.run_until(1.0)
        assert fired == []
        clock.close()

    def test_past_deadline_fires_immediately(self):
        clock = RealtimeClock(time_scale=SCALE)
        fired = []
        clock.run_until(5.0)
        clock.call_at(1.0, lambda: fired.append("past"))
        clock.run_until(5.1)
        assert fired == ["past"]
        clock.close()

    def test_zero_delay_cascades_settle(self):
        clock = RealtimeClock(time_scale=SCALE)
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                clock.call_after(0.0, lambda: chain(n + 1))

        clock.call_after(0.0, lambda: chain(0))
        clock.run_until(0.5)
        assert fired == [0, 1, 2, 3, 4, 5]
        clock.close()

    def test_bad_time_scale_rejected(self):
        with pytest.raises(ValueError):
            RealtimeClock(time_scale=0.0)


class TestThreadPoolHost:
    def test_host_runs_off_thread_and_writes_apply(self):
        seen = {}

        def h(ctx):
            seen["thread"] = threading.current_thread().name
            ctx.set("P", True)

        sys_ = single_junction(
            "host H {P}", decls="| init prop !P",
            engine=RealtimeEngine(time_scale=SCALE),
        )
        sys_.bind_host("T", "H", h)
        sys_.start()
        sys_.run_until(5.0)
        assert seen["thread"].startswith("csaw-host")
        assert sys_.read_state("x", "P") is True
        assert failures_of(sys_) == []
        sys_.shutdown()

    def test_deferred_writes_read_back_inside_the_block(self):
        seen = []

        def h(ctx):
            ctx.set("P", True)
            seen.append(ctx.get("P"))  # overlay: own write visible

        sys_ = single_junction(
            "host H {P}", decls="| init prop !P",
            engine=RealtimeEngine(time_scale=SCALE),
        )
        sys_.bind_host("T", "H", h)
        sys_.start()
        sys_.run_until(5.0)
        assert seen == [True]
        sys_.shutdown()

    def test_host_exception_surfaces_as_failure(self):
        sys_ = single_junction(
            "host H", engine=RealtimeEngine(time_scale=SCALE)
        )
        sys_.bind_host("T", "H", lambda ctx: 1 / 0)
        sys_.start()
        sys_.run_until(5.0)
        assert "HostError" in failures_of(sys_)
        sys_.shutdown()

    def test_host_take_still_advances_logical_time(self):
        times = []

        def h(ctx):
            ctx.take(0.5)

        sys_ = single_junction(
            "host H; host After", engine=RealtimeEngine(time_scale=SCALE)
        )
        sys_.bind_host("T", "H", h)
        sys_.bind_host("T", "After", lambda ctx: times.append(ctx.now))
        sys_.start()
        sys_.run_until(5.0)
        assert times and times[0] >= 0.5
        sys_.shutdown()


class TestWireCodec:
    def test_update_round_trip(self):
        m = Message(
            src="a::j", dst="b::j", kind="update",
            payload=Update(key="K[i]", value=True, src="a::j"), msg_id=41,
        )
        out = decode_message(encode_message(m))
        assert (out.src, out.dst, out.kind, out.msg_id) == (m.src, m.dst, m.kind, m.msg_id)
        assert isinstance(out.payload, Update)
        assert (out.payload.key, out.payload.value, out.payload.src) == ("K[i]", True, "a::j")

    def test_saved_data_round_trip(self):
        sd = SavedData("Snap", b"\x00\x01 blob \xff")
        m = Message(
            src="a::j", dst="b::j", kind="update",
            payload=Update(key="d", value=sd, src="a::j"), msg_id=7,
        )
        out = decode_message(encode_message(m))
        assert isinstance(out.payload.value, SavedData)
        assert out.payload.value.schema == "Snap"
        assert out.payload.value.blob == sd.blob

    def test_ack_round_trip(self):
        m = Message(src="b::j", dst="a::j", kind="ack", payload=17, msg_id=17)
        out = decode_message(encode_message(m))
        assert out.kind == "ack" and out.payload == 17


class TestQuiescence:
    def test_run_drains_to_quiescence(self):
        fired = []
        eng = RealtimeEngine(time_scale=SCALE)
        eng.clock.call_after(0.3, lambda: fired.append("a"))
        eng.clock.call_after(0.6, lambda: fired.append("b"))
        eng.run()
        assert fired == ["a", "b"]
        assert eng.pending_work() == 0
        eng.close()

    def test_close_is_idempotent(self):
        eng = RealtimeEngine(time_scale=SCALE)
        eng.close()
        eng.close()
