"""The benchmark's workloads: which architecture, engine and traffic.

All three draw keys from a zipf(1.1) over a million users; the seed is
the only input a run varies.  The reasons for each choice are repeated
in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    engine: str
    mode: str
    #: open loop: mean arrivals per engine-clock second
    rate: float
    #: fraction of reads (FETCH on the broker, GET on failover)
    read_fraction: float
    #: sim: engine-clock seconds of arrivals (open) or ops per round
    #: (closed); realtime rounds last ``--seconds`` instead
    size: float
    #: sim: ``size`` of the short schedule that timing repeats drive
    #: over and over for ``ops_per_wall_s``
    timing_size: float
    why: str

    @property
    def realtime(self) -> bool:
        return self.engine != "sim"

    def spec(self, seed: int, seconds: float, size: float | None = None):
        """The ``WorkloadSpec`` of one round (``size`` overrides the
        workload's own)."""
        size = self.size if size is None else size
        from repro.workload import WorkloadSpec

        common = dict(
            seed=seed,
            users=1_000_000,
            pattern="steady",
            zipf_s=1.1,
            read_fraction=self.read_fraction,
        )
        if self.mode == "closed":
            # the driver gives up on ops still open 30 s after
            # ``duration``; 8 ms per op is ample for the ~5.7 ms of
            # modelled time the failover op path takes
            return WorkloadSpec(mode="closed", concurrency=8, duration=0.008 * size,
                                max_ops=int(size), **common)
        duration = float(seconds) if self.realtime else size
        return WorkloadSpec(mode="open", rate=self.rate, duration=duration,
                            max_ops=10_000_000, **common)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="broker-open-sim",
            arch="broker_sharded",
            engine="sim",
            mode="open",
            rate=1000.0,
            read_fraction=0.3,
            size=28.0,
            timing_size=2.0,
            why=(
                "broker_sharded op path (~8 msgs/op) open loop at 1000 ops/s, just under "
                "the ~1200 ops/s knee: serde and pre-pushed heap timers heaviest, "
                "front-queue wait shapes p99"
            ),
        ),
        Workload(
            name="failover-closed-sim",
            arch="failover",
            engine="sim",
            mode="closed",
            rate=0.0,
            read_fraction=0.9,
            size=5000,
            timing_size=1000,
            why=(
                "failover Redis closed loop, 8 clients, 90% GET: ~30 msgs/op, so channels, "
                "delivery and kvtable dominate, serde light, no pre-pushed arrival timers"
            ),
        ),
        Workload(
            name="broker-open-realtime-tcp",
            arch="broker_sharded",
            engine="realtime-tcp",
            mode="open",
            rate=40.0,
            read_fraction=0.3,
            size=0.0,
            timing_size=0.0,
            why=(
                "broker_sharded on wall-clock asyncio over framed loopback TCP at 40 ops/s "
                "(about half of closed-loop saturation): timer resolution and runtime.wire "
                "on the critical path"
            ),
        ),
    )
}
