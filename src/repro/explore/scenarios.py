"""Exploration scenarios: reproducible builds + workloads to explore.

A :class:`Scenario` packages everything the explorer needs to run one
schedule from scratch — reset-replay exploration constructs a *fresh*
system for every schedule, so a scenario must be a pure recipe: same
build, same seeds, same workload every time.  The only thing allowed
to vary between runs is the interleaving the controller picks.

Three scenario sources mirror the CLI targets:

* :func:`arch_scenario` — a shipped architecture name; each of the ten
  architectures gets a small deterministic workload (a few store
  commands, a job burst, a snapshot round) sized for exploration,
  where hundreds of runs must stay cheap;
* :class:`CsawScenario` — a ``.csaw`` source run bare (host blocks
  stubbed), for pure-DSL fixtures such as the racy corpus under
  ``tests/explore``;
* ``.py`` targets are loaded by the CLI via :func:`load_py_scenario`:
  the script must define ``build_scenario() -> Scenario``.
"""

from __future__ import annotations

from pathlib import Path

from ..core.compiler import compile_program
from ..runtime.system import System
from .linearize import Op


class Scenario:
    """A reproducible build + drive recipe."""

    #: invariants checked by default for this scenario
    invariants: tuple[str, ...] = ("no-failures", "convergence", "at-most-once")

    def __init__(self, name: str):
        self.name = name

    def run(self) -> System:
        """Build a fresh system, drive the workload to the horizon and
        return the (finished) system.  Runs under ``use_controller``,
        so every Simulator constructed here is controlled."""
        raise NotImplementedError

    def observe(self, system: System) -> dict:
        """Scenario-level observations for invariants (e.g. the timed
        operation history under ``"history"``)."""
        return {}


class CsawScenario(Scenario):
    """A bare ``.csaw`` program: boot it the way ``repro run`` does
    (stubbed host blocks, unset main parameters at 1.0), run to the
    horizon."""

    def __init__(
        self,
        source: str,
        *,
        name: str = "csaw",
        config: dict | None = None,
        horizon: float = 30.0,
    ):
        super().__init__(name)
        self.source = source
        self.config = config or {}
        self.horizon = horizon
        self.program = compile_program(source, config=self.config)  # fail fast

    def run(self) -> System:
        from ..arch.loader import boot_program

        system = boot_program(compile_program(self.source, config=self.config))
        system.run_until(self.horizon)
        return system


def load_py_scenario(path: Path) -> Scenario:
    """Load a ``.py`` target: the script must define
    ``build_scenario() -> Scenario``."""
    import runpy

    ns = runpy.run_path(str(path))
    build = ns.get("build_scenario")
    if build is None:
        raise SystemExit(
            f"error: {path} defines no build_scenario() — an explorable "
            "script must expose build_scenario() -> repro.explore.Scenario"
        )
    sc = build()
    if not isinstance(sc, Scenario):
        raise SystemExit(f"error: {path}: build_scenario() returned {type(sc).__name__}")
    return sc


# ---------------------------------------------------------------------------
# Shipped-architecture scenarios
# ---------------------------------------------------------------------------


class _RedisArchScenario(Scenario):
    """Common driver for the redis-backed architectures: preload a few
    keys, issue a deterministic GET/SET mix, record a timed history for
    the linearizability invariant."""

    invariants = ("no-failures", "convergence", "at-most-once", "linearizable")

    #: (kind, key, value) — two writers racing on "a" plus reads
    WORKLOAD = (
        ("SET", "a", b"1"),
        ("SET", "b", b"x"),
        ("SET", "a", b"2"),
        ("GET", "a", None),
        ("GET", "b", None),
    )

    def __init__(self, name: str, horizon: float = 20.0):
        super().__init__(name)
        self.horizon = horizon

    def build(self):
        raise NotImplementedError

    def run(self) -> System:
        from ..redislite import Command

        self._svc = svc = self.build()
        history: list[Op] = []
        sim = svc.system.sim

        def submit(kind, key, value):
            start = sim.now
            cmd = Command(kind, key, value) if kind == "SET" else Command(kind, key)

            def done(reply, k=kind, ky=key, v=value, s=start):
                got = v if k == "SET" else reply.value
                history.append(
                    Op(kind=k, key=ky, value=got, start=s, end=sim.now, ok=bool(reply.ok))
                )

            svc.submit(cmd, done)

        # sequential submits with small gaps keep per-step co-enabled
        # sets small; the interesting concurrency is inside the runtime
        for kind, key, value in self.WORKLOAD:
            submit(kind, key, value)
            svc.system.run_until(sim.now + 2.0)
        svc.system.run_until(self.horizon)
        self._history = history
        return svc.system

    def observe(self, system: System) -> dict:
        return {"history": self._history}


class _CachingScenario(_RedisArchScenario):
    def build(self):
        from ..arch.caching import CachedRedis

        return CachedRedis(capacity=8, seed=0)


class _ShardingScenario(_RedisArchScenario):
    def build(self):
        from ..arch.sharding import ShardedRedis

        return ShardedRedis(n_shards=2, seed=0)


class _ParallelShardingScenario(_RedisArchScenario):
    def build(self):
        from ..arch.sharding import ParallelShardedRedis

        return ParallelShardedRedis(n_backends=3, seed=0)


class _FailoverScenario(_RedisArchScenario):
    def build(self):
        from ..arch.failover import FailoverRedis

        return FailoverRedis(timeout=0.5, seed=0)


class _FastFailoverScenario(_RedisArchScenario):
    def build(self):
        from ..arch.failover import FastFailoverRedis

        return FastFailoverRedis(timeout=0.5, seed=0)


class _WatchedScenario(_RedisArchScenario):
    def build(self):
        from ..arch.watched import WatchedRedis

        return WatchedRedis(timeout=0.5, seed=0)


class _MigrationScenario(_RedisArchScenario):
    """Redis workload followed by a live migration."""

    def build(self):
        from ..arch.migration import MigratableRedis

        return MigratableRedis(seed=0)

    def run(self) -> System:
        system = super().run()
        self._svc.migrate("NodeB")
        system.run_until(system.now + 10.0)
        return system


class _BrokerScenarioBase(Scenario):
    """Common driver for the broker architectures: a deterministic
    publish/fetch/commit mix with two keys racing on one partition.
    No ``linearizable`` here — the history invariant speaks GET/SET;
    the broker's ordering guarantee (per-key offset order) is asserted
    directly in :meth:`observe` consumers via the offsets returned."""

    invariants = ("no-failures", "convergence", "at-most-once")

    #: (op, key, value) — publishes followed by a fetch and a commit
    WORKLOAD = (
        ("PUB", "a", b"1"),
        ("PUB", "b", b"x"),
        ("PUB", "a", b"2"),
        ("FETCH", "a", None),
        ("COMMIT", "a", None),
    )

    def __init__(self, name: str, horizon: float = 20.0):
        super().__init__(name)
        self.horizon = horizon

    def build(self):
        raise NotImplementedError

    def run(self) -> System:
        from ..brokerlite import BrokerRequest

        self._svc = svc = self.build()
        results: list[tuple] = []
        sim = svc.system.sim

        def submit(op, key, value):
            p = svc.partition_of({"op": op, "key": key, "partition": 0})
            if op == "PUB":
                req = BrokerRequest(op="PUB", partition=0, key=key, value=value)
            elif op == "FETCH":
                req = BrokerRequest(op="FETCH", partition=p, offset=0, max_records=8)
            else:
                req = BrokerRequest(op="COMMIT", partition=p, group="g", offset=1)

            def done(reply, op=op, key=key):
                results.append(
                    (op, key, bool(reply.ok), reply.offset,
                     len(reply.records) if reply.records is not None else None)
                )

            svc.submit(req, done)

        for op, key, value in self.WORKLOAD:
            submit(op, key, value)
            svc.system.run_until(sim.now + 2.0)
        svc.system.run_until(self.horizon)
        self._results = results
        return svc.system

    def observe(self, system: System) -> dict:
        return {"results": list(self._results)}


class _BrokerShardedScenario(_BrokerScenarioBase):
    def build(self):
        from ..arch.broker import ShardedBroker

        return ShardedBroker(n_partitions=2, seed=0)


class _BrokerFailoverScenario(_BrokerScenarioBase):
    def build(self):
        from ..arch.broker import ReplicatedBroker

        return ReplicatedBroker(timeout=0.5, seed=0)


class BrokerReconfigScenario(Scenario):
    """The broker re-partitioned mid-workload (2 → 3 partitions):
    publishes are scheduled to land inside the quiesce window, so
    exploration drives the transition's races.  Checked by
    ``reconfig-no-drop``.  Like :class:`ReconfigScenario`, deliberately
    NOT in ``_ARCH_SCENARIOS`` (the shipped table is part of the
    differential's byte-compared surface)."""

    invariants = (
        "no-failures",
        "convergence",
        "at-most-once",
        "reconfig-no-drop",
    )

    def __init__(self, name: str = "broker-reconfig", horizon: float = 30.0):
        super().__init__(name)
        self.horizon = horizon

    def run(self) -> System:
        from ..arch.broker import ShardedBroker
        from ..brokerlite import BrokerRequest

        self._svc = svc = ShardedBroker(n_partitions=2, seed=0)
        sys_ = svc.system
        submitted: list[int] = []
        completed: list[int] = []
        failed: list[tuple[int, str]] = []

        def submit(rid: int, key: str, value: bytes):
            submitted.append(rid)

            def done(reply, rid=rid):
                if reply.ok:
                    completed.append(rid)
                else:
                    failed.append((rid, "reply not ok"))

            svc.submit(BrokerRequest(op="PUB", partition=0, key=key, value=value), done)

        submit(0, "a", b"0")
        sys_.run_until(sys_.now + 2.0)
        # these land while the transition quiesces/replays — the race
        # under exploration
        sys_.clock.call_after(0.0, lambda: submit(1, "b", b"1"))
        sys_.clock.call_after(0.002, lambda: submit(2, "c", b"2"))
        report = svc.reconfigure_partitions(3)
        self._report = report
        sys_.run_until(self.horizon)
        self._obs = {
            "submitted": submitted,
            "completed": completed,
            "failed": failed,
            "reconfig_ok": report.ok,
            "reconfig_reason": report.reason,
        }
        return sys_

    def observe(self, system: System) -> dict:
        return dict(self._obs)


def make_broker_reconfig_scenario(horizon: float = 30.0) -> Scenario:
    """The broker live re-partitioning exploration scenario (2 → 3
    partitions with publishes racing the quiesce window)."""
    return BrokerReconfigScenario(horizon=horizon)


class _ElasticScenario(Scenario):
    """Job burst, a scale-out, another burst."""

    def __init__(self, name: str, horizon: float = 30.0):
        super().__init__(name)
        self.horizon = horizon

    def run(self) -> System:
        from ..arch.elastic import ElasticWorkers

        svc = ElasticWorkers(seed=0)
        done = []
        for _ in range(3):
            svc.submit_job(2, done.append)
        svc.system.run_until(svc.system.now + 8.0)
        svc.scale_out()
        svc.system.run_until(svc.system.now + 4.0)
        for _ in range(3):
            svc.submit_job(2, done.append)
        svc.system.run_until(self.horizon)
        self._done = done
        return svc.system

    def observe(self, system: System) -> dict:
        return {"jobs_done": len(self._done)}


class _SnapshotScenario(Scenario):
    """Two audited snapshot rounds over the remote-snapshot arch."""

    def __init__(self, name: str, horizon: float = 30.0):
        super().__init__(name)
        self.horizon = horizon

    def run(self) -> System:
        from ..arch.snapshot import RemoteAuditor

        aud = RemoteAuditor(placement="cross-vm", seed=0)
        released = []
        hook = aud.audit_hook()
        hook({"x": 1}, lambda: released.append(aud.system.now))
        aud.system.run_until(aud.system.now + 8.0)
        hook({"x": 2}, lambda: released.append(aud.system.now))
        aud.system.run_until(self.horizon)
        self._released = released
        return aud.system

    def observe(self, system: System) -> dict:
        return {"snapshots_released": len(self._released)}


class _CheckpointingScenario(Scenario):
    """A store workload with a checkpoint in the middle."""

    def __init__(self, name: str, horizon: float = 30.0):
        super().__init__(name)
        self.horizon = horizon

    def run(self) -> System:
        from ..arch.checkpointing import CheckpointedService
        from ..redislite import Command, DirectPort, RedisServer

        server = RedisServer()
        ref = {}
        svc = CheckpointedService(server, stall=lambda d: ref["p"].stall(d))
        # the stall port shares the service's engine clock instead of
        # deep-importing a Simulator of its own
        ref["p"] = DirectPort(svc.system.clock, server)
        server.execute(Command("SET", "k", b"v"))
        svc.checkpoint_now()
        svc.system.run_until(svc.system.now + 5.0)
        server.execute(Command("SET", "k", b"w"))
        svc.checkpoint_now()
        svc.system.run_until(self.horizon)
        self._svc = svc
        return svc.system

    def observe(self, system: System) -> dict:
        return {"checkpoints": self._svc.checkpoints}


class ReconfigScenario(Scenario):
    """A sharded store resharded mid-workload: client updates are
    scheduled to land *inside* the quiesce window, so exploration
    drives the transition's races (inbound update vs. pause, replay
    vs. new-shard bring-up).  Checked by ``reconfig-no-drop``: every
    submitted request completes exactly once on some interleaving-
    independent shard, and the transition itself must finish.

    Deliberately NOT in ``_ARCH_SCENARIOS`` — the shipped-architecture
    table is part of the byte-compared differential surface; use
    :func:`make_reconfig_scenario`.
    """

    invariants = (
        "no-failures",
        "convergence",
        "at-most-once",
        "reconfig-no-drop",
    )

    def __init__(self, name: str = "reconfig", horizon: float = 30.0):
        super().__init__(name)
        self.horizon = horizon

    def run(self) -> System:
        from ..arch.sharding import ShardedRedis
        from ..redislite import Command

        self._svc = svc = ShardedRedis(n_shards=2, seed=0)
        sys_ = svc.system
        submitted: list[int] = []
        completed: list[int] = []
        failed: list[tuple[int, str]] = []

        def submit(rid: int, kind: str, key: str, value=None):
            submitted.append(rid)
            cmd = Command(kind, key, value) if value is not None else Command(kind, key)

            def done(reply, rid=rid):
                if reply.ok:
                    completed.append(rid)
                else:
                    failed.append((rid, "reply not ok"))

            svc.submit(cmd, done)

        submit(0, "SET", "a", b"0")
        sys_.run_until(sys_.now + 2.0)
        # these land while the transition quiesces/replays — the race
        # under exploration
        sys_.clock.call_after(0.0, lambda: submit(1, "SET", "b", b"1"))
        sys_.clock.call_after(0.002, lambda: submit(2, "GET", "a"))
        report = svc.reconfigure_shards(3)
        self._report = report
        sys_.run_until(self.horizon)
        self._obs = {
            "submitted": submitted,
            "completed": completed,
            "failed": failed,
            "reconfig_ok": report.ok,
            "reconfig_reason": report.reason,
        }
        return sys_

    def observe(self, system: System) -> dict:
        return dict(self._obs)


def make_reconfig_scenario(horizon: float = 30.0) -> Scenario:
    """The live-reconfiguration exploration scenario (reshard 2 → 3
    with client traffic racing the quiesce window)."""
    return ReconfigScenario(horizon=horizon)


_ARCH_SCENARIOS = {
    "caching": _CachingScenario,
    "sharding": _ShardingScenario,
    "parallel_sharding": _ParallelShardingScenario,
    "failover": _FailoverScenario,
    "failover_fast": _FastFailoverScenario,
    "watched_failover": _WatchedScenario,
    "migration": _MigrationScenario,
    "elastic": _ElasticScenario,
    "remote_snapshot": _SnapshotScenario,
    "checkpointing": _CheckpointingScenario,
    "broker_sharded": _BrokerShardedScenario,
    "broker_failover": _BrokerFailoverScenario,
}


def arch_scenario(name: str) -> Scenario:
    """The exploration scenario of a shipped architecture."""
    try:
        cls = _ARCH_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"no exploration scenario for {name!r}; have {sorted(_ARCH_SCENARIOS)}"
        ) from None
    return cls(name)


def resolve_scenario(target: str, *, config: dict | None = None, horizon: float | None = None) -> Scenario:
    """CLI target resolution: architecture name, ``.csaw`` or ``.py``."""
    if target in _ARCH_SCENARIOS:
        sc = arch_scenario(target)
        if horizon is not None:
            sc.horizon = horizon
        return sc
    if target == "reconfig":
        return make_reconfig_scenario(horizon if horizon is not None else 30.0)
    if target == "broker-reconfig":
        return make_broker_reconfig_scenario(horizon if horizon is not None else 30.0)
    path = Path(target)
    if path.suffix == ".py":
        return load_py_scenario(path)
    from ..arch.loader import resolve_source

    return CsawScenario(
        resolve_source(target), name=str(path), config=config, horizon=horizon if horizon is not None else 30.0
    )
