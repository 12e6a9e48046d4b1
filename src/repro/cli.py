"""Command-line interface: ``python -m repro <command> <file.csaw>``.

Commands:

* ``check``     — parse + validate + compile; report errors with positions.
                  ``--strict`` folds in the analyzer's fast (key-flow)
                  checks and fails on unsuppressed errors.
* ``analyze``   — static analysis: KV write-write races, dead junctions
                  and case arms, host write-contract violations, unused
                  keys.  Accepts a ``.csaw`` file, a shipped
                  architecture name, or an example ``.py`` script
                  (analyzes every program its Systems load).
                  ``--fail-on race,dead,contract`` exits 2 when any
                  unsuppressed *error* finding of those checks remains.
* ``fmt``       — pretty-print (normalize) an architecture file.
* ``topo``      — print the communication topology (sec. 8.7's Topo).
* ``semantics`` — print the event-structure semantics per junction
                  (``--dot`` for Graphviz output).
* ``loc``       — count non-blank, non-comment lines.
* ``trace``     — run an architecture (a ``.csaw`` file, a shipped
                  architecture name or an example ``.py`` script) with
                  telemetry on and export the causal trace as JSONL or
                  Chrome trace-event JSON (loadable in
                  ``chrome://tracing`` / Perfetto).
* ``run``       — execute an architecture on a chosen execution engine
                  (``--engine`` takes an EngineSpec string such as
                  ``realtime,time_scale=0.05`` or ``sim,compiled=off``);
                  SIGINT/SIGTERM drain in-flight work before the
                  summary instead of dying mid-write.
* ``cluster``   — deploy across supervised worker processes (one OS
                  process per instance, or N shard groups with
                  ``--engine cluster,workers=N``) with heartbeat
                  liveness probes and restart-with-backoff;
                  ``--kill b1 --kill-at 4`` runs a SIGKILL fault drill
                  and exits non-zero unless the supervisor recovers the
                  worker.
* ``explore``   — controlled-scheduler interleaving search: run a
                  shipped architecture name, a ``.csaw`` file or a
                  ``.py`` scenario script under every reachable
                  schedule (``--strategy dpor|bfs|dfs|random``,
                  ``--budget N``), checking invariants over each final
                  state.  Failing interleavings serialize as replayable
                  JSON (``--replay schedule.json`` reproduces the exact
                  run, byte-identical telemetry); ``--witness-races``
                  attempts a concrete witness schedule for every static
                  race finding.

Every command that takes an architecture resolves it the same way
(:func:`_resolve`): a shipped name, a ``.csaw`` path with its
``@BACKENDS@`` placeholders expanded, or — where the command runs one —
a ``.py`` script.  Commands that run a bare ``.csaw`` program share one
boot (:func:`_boot`).

Configuration values (set contents, parameters) are supplied as
``--config name=value`` pairs; values parse as numbers, comma-separated
lists, or names.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import time
from pathlib import Path

from .core.compiler import compile_program
from .core.emit import emit_program
from .core.errors import CSawError
from .core.parser import parse_program
from .core.topology import topology
from .semantics.program_sem import denote_program
from .semantics.render import to_dot, to_text


def _engine_spec(args, default_time_scale: float | None = None):
    """The subcommand's ``--engine`` value as an
    :class:`~repro.runtime.engine.EngineSpec`.  Wall-clock engines get
    ``default_time_scale`` unless the spec sets one: the CLI compresses
    them by default, while the engine constructors default to real
    time."""
    from .runtime.engine import EngineSpec

    spec = EngineSpec.of(args.engine)
    if default_time_scale is not None and spec.name != "sim" and spec.time_scale is None:
        spec = dataclasses.replace(spec, time_scale=default_time_scale)
    return spec


def _parse_config(pairs: list[str]) -> dict:
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--config expects name=value, got {pair!r}")
        name, _, raw = pair.partition("=")
        if "," in raw:
            out[name] = [_scalar(v) for v in raw.split(",") if v]
        else:
            out[name] = _scalar(raw)
    return out


def _scalar(raw: str) -> object:
    try:
        return float(raw) if "." in raw else int(raw)
    except ValueError:
        return raw


def _resolve(target: str, *, capture=None, n_backends: int | None = None):
    """Resolve an architecture argument.

    A shipped architecture name or a ``.csaw`` path returns its DSL
    source, placeholders expanded.  A ``.py`` script runs as
    ``__main__`` (``sys.argv`` swapped, its stdout sent to stderr so the
    command owns stdout) inside ``capture()``, and the list that
    recorded is returned.  Commands passing no ``capture`` take DSL
    sources only."""
    if Path(target).suffix != ".py":
        from .arch.loader import resolve_source

        return resolve_source(target, n_backends=n_backends)
    if capture is None:
        raise SystemExit(
            f"error: {target}: this command needs a .csaw file or a "
            "shipped architecture name"
        )
    import runpy

    argv, sys.argv = sys.argv, [target]
    try:
        with capture() as captured, contextlib.redirect_stdout(sys.stderr):
            runpy.run_path(target, run_name="__main__")
    finally:
        sys.argv = argv
    if not captured:
        raise SystemExit(f"error: {target} constructed no System")
    return captured


def cmd_check(args) -> int:
    text = _resolve(args.file)
    prog = compile_program(text, config=_parse_config(args.config))
    print(f"OK: {len(prog.source.instance_types)} type(s), "
          f"{len(prog.source.instances)} instance(s), "
          f"{len(prog.junctions)} junction(s), "
          f"{len(prog.source.functions)} function(s)")
    if not args.strict:
        return 0
    from .analysis import fast_checks

    report = fast_checks(
        prog, _parse_config(args.config), source_text=text, label=args.file
    )
    sys.stdout.write(report.render_text())
    errors = [f for f in report.unsuppressed() if f.severity == "error"]
    return 2 if errors else 0


def cmd_analyze(args) -> int:
    import json

    from .analysis import analyze_program, analyze_source
    from .analysis.capture import capture_programs
    from .analysis.model import CHECKS

    fail_on: tuple[str, ...] = ()
    if args.fail_on:
        fail_on = tuple(c.strip() for c in args.fail_on.split(",") if c.strip())
        bad = [c for c in fail_on if c not in CHECKS]
        if bad:
            raise SystemExit(
                f"error: --fail-on accepts {','.join(CHECKS)}; got {','.join(bad)}"
            )

    config = _parse_config(args.config)
    opts = dict(deep=not args.fast, max_unfold=args.max_unfold)
    source = _resolve(args.file, capture=capture_programs)
    if isinstance(source, str):
        reports = [analyze_source(source, config, label=args.file, **opts)]
    else:  # the CompiledPrograms a .py script's Systems loaded
        labels = (
            [args.file]
            if len(source) == 1
            else [f"{args.file}#{i}" for i in range(len(source))]
        )
        reports = [
            analyze_program(prog, config, source_text=None, label=label, **opts)
            for label, prog in zip(labels, source)
        ]

    if args.json:
        payload = (
            reports[0].to_json()
            if len(reports) == 1
            else [r.to_json() for r in reports]
        )
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for r in reports:
            sys.stdout.write(r.render_text())

    if fail_on:
        failing = [
            f
            for r in reports
            for f in r.unsuppressed(fail_on)
            if f.severity == "error"
        ]
        if failing:
            print(
                f"analyze: {len(failing)} failing finding(s) "
                f"(--fail-on {','.join(fail_on)})",
                file=sys.stderr,
            )
            return 2
    return 0


def cmd_fmt(args) -> int:
    text = Path(args.file).read_text()
    out = emit_program(parse_program(text))
    if args.write:
        Path(args.file).write_text(out)
        print(f"formatted {args.file}")
    else:
        sys.stdout.write(out)
    return 0


def cmd_topo(args) -> int:
    prog = compile_program(_resolve(args.file), config=_parse_config(args.config))
    g = topology(prog)
    print(f"# {g.number_of_nodes()} junction(s), {g.number_of_edges()} edge(s)")
    for src, dst in sorted(g.edges()):
        print(f"{src} -> {dst}")
    return 0


def cmd_semantics(args) -> int:
    prog = compile_program(_resolve(args.file), config=_parse_config(args.config))
    sem = denote_program(prog, _parse_config(args.config))
    if args.dot:
        print(to_dot(sem.startup, "startup"))
        for node, es in sorted(sem.junctions.items()):
            print(to_dot(es, node))
    else:
        print("== startup ==")
        print(to_text(sem.startup))
        for node, es in sorted(sem.junctions.items()):
            print(f"\n== {node} ==")
            print(to_text(es))
    return 0


def cmd_loc(args) -> int:
    from .arch.loc import count_loc_text

    text = Path(args.file).read_text()
    print(count_loc_text(text))
    return 0


def _boot(prog, engine, holder: list | None = None):
    """Start a bare ``.csaw`` program (see
    :func:`~repro.arch.loader.boot_program`), noting on stderr what was
    stubbed or defaulted.  The System goes into ``holder`` before it
    starts, so an interrupt during start-up can still drain it."""
    from .arch.loader import boot_program

    def note(system, stubbed, defaulted):
        if holder is not None:
            holder.append(system)
        if stubbed:
            print(f"stubbed host bindings: {', '.join(stubbed)}", file=sys.stderr)
        if defaulted:
            print(f"defaulted main parameter(s) to 1.0: {defaulted}", file=sys.stderr)

    return boot_program(prog, engine, before_start=note)


def cmd_trace(args) -> int:
    from .runtime.engine import default_engine
    from .telemetry.facade import capture_systems
    from .telemetry.sinks import chrome_json, to_jsonl

    spec = _engine_spec(args)
    # the spec reroutes every System a script builds (scripts passing
    # their own engine keep it, but still take its compile mode)
    with default_engine(spec):
        source = _resolve(args.file, capture=capture_systems)
    if isinstance(source, str):
        system = _boot(compile_program(source, config=_parse_config(args.config)), spec)
        system.run_until(args.until)
        system.shutdown()
        telemetries = [system.telemetry]
    else:
        telemetries = source

    labels = (
        ["system"]
        if len(telemetries) == 1
        else [f"system{i}" for i in range(len(telemetries))]
    )
    if args.format == "chrome":
        out = chrome_json(
            [(lbl, tel.events) for lbl, tel in zip(labels, telemetries)]
        )
    else:
        out = "".join(
            to_jsonl(tel.events, system=None if len(telemetries) == 1 else lbl)
            for lbl, tel in zip(labels, telemetries)
        )
    if args.out:
        Path(args.out).write_text(out)
        total = sum(len(tel.events) for tel in telemetries)
        print(f"wrote {total} event(s) to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(out)
    return 0


class _GracefulSignal(Exception):
    """Raised out of a running engine loop by the SIGINT/SIGTERM
    handler so ``run`` / ``cluster`` / ``reconfigure`` can drain
    instead of dying mid-write; the argument is the signal's name."""


@contextlib.contextmanager
def _graceful_signals(enabled: bool):
    """Route SIGINT/SIGTERM into :class:`_GracefulSignal` inside the
    block (wall-clock engines only — the sim engine finishes instantly
    and the default KeyboardInterrupt behaviour is right for it)."""
    import signal

    def handler(signum, frame):  # noqa: ARG001 - signal signature
        raise _GracefulSignal(signal.Signals(signum).name)

    prev = (
        [(signum, signal.signal(signum, handler))
         for signum in (signal.SIGINT, signal.SIGTERM)]
        if enabled
        else []
    )
    try:
        yield
    finally:
        for signum, old in prev:
            signal.signal(signum, old)


def _recover_system(holder):
    """Best-effort: the system under a run that was interrupted
    mid-workload (scenarios stash the service on themselves first)."""
    for obj in holder:
        svc = getattr(obj, "_svc", None)
        if svc is not None:
            return svc.system
        if hasattr(obj, "engine"):
            return obj
    return None


def _interruptible(command: str, spec, body):
    """Run ``body(holder)``, which returns the System it drives and puts
    it (or the scenario building it) into ``holder`` as early as it can.
    On a wall-clock engine SIGINT/SIGTERM stop the run and the system
    drains in-flight messages and host calls, so the summary describes
    a settled system.  Returns ``(system, wall_seconds, drained)``;
    ``system`` is None when the signal came before one existed."""
    holder: list = []
    wall0 = time.perf_counter()
    drained: str | None = None
    try:
        with _graceful_signals(enabled=spec.name != "sim"):
            system = body(holder)
    except _GracefulSignal as sig:
        system = _recover_system(holder)
        if system is None:
            print(f"{command}: {sig} before the system came up", file=sys.stderr)
            return None, 0.0, None
        print(f"{command}: {sig} — draining in-flight work", file=sys.stderr)
        drained = "clean" if system.engine.drain(grace=5.0) else "timeout"
    return system, time.perf_counter() - wall0, drained


def _print_summary(label: str, system, wall: float, drained: str | None, *,
                   traffic: bool = True) -> None:
    """The one-line run summary on stdout, then each failure on stderr."""
    fields = [f"engine={system.engine.name}", f"t={system.now:.3f}"]
    if traffic:
        metrics = system.telemetry.metrics
        fields += [
            f"sent={int(metrics.sum('net_sent'))}",
            f"delivered={int(metrics.sum('net_delivered'))}",
        ]
    fields += [f"wall={wall:.2f}s", f"failures={len(system.failures)}"]
    if drained is not None:
        fields.append(f"drained={drained}")
    print(f"{label}: {' '.join(fields)}")
    for t, node, exc in system.failures:
        print(f"  failure at t={t:.3f} in {node}: {exc!r}", file=sys.stderr)


def _run_workload(args, spec, holder: list):
    """The shared ``run`` / ``cluster`` drive: a shipped scenario name
    runs its exploration workload, anything else boots as a bare
    ``.csaw`` program.  Returns the system."""
    from .explore.scenarios import _ARCH_SCENARIOS, arch_scenario
    from .runtime.engine import default_engine

    if args.file in _ARCH_SCENARIOS:
        # shipped architecture: the exploration scenario provides the
        # host bindings and a deterministic workload
        sc = arch_scenario(args.file)
        if args.until is not None:
            sc.horizon = args.until
        holder.append(sc)
        with default_engine(spec):
            return sc.run()
    prog = compile_program(_resolve(args.file), config=_parse_config(args.config))
    system = _boot(prog, spec, holder)
    system.run_until(args.until if args.until is not None else 30.0)
    return system


def cmd_run(args) -> int:
    spec = _engine_spec(args, default_time_scale=0.05)
    system, wall, drained = _interruptible(
        "run", spec, lambda holder: _run_workload(args, spec, holder)
    )
    if system is None:
        return 130
    _print_summary(args.file, system, wall, drained)
    system.shutdown()
    return 1 if system.failures else 0


def cmd_workload(args) -> int:
    from .workload import ADAPTERS, WorkloadSpec, run_workload

    if args.arch not in ADAPTERS:
        print(
            f"error: no workload adapter for {args.arch!r}; "
            f"have {', '.join(sorted(ADAPTERS))}",
            file=sys.stderr,
        )
        return 1
    spec = WorkloadSpec(
        seed=args.seed,
        users=args.users,
        pattern=args.pattern,
        mode=args.mode,
        rate=args.rate,
        concurrency=args.concurrency,
        duration=args.duration,
        max_ops=args.max_ops,
        value_size=args.value_size,
        read_fraction=args.read_fraction,
    )
    report = run_workload(spec, args.arch, _engine_spec(args, default_time_scale=0.05))
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"{args.arch}: engine={report.engine} pattern={spec.pattern} "
            f"mode={spec.mode} users={spec.users}"
        )
        print(
            f"  ops: {report.ops_completed} completed, {report.ops_failed} failed, "
            f"{report.ops_dropped} dropped of {report.ops_submitted} submitted"
        )
        print(
            f"  throughput: {report.ops_per_sec:.1f} ops/sec over "
            f"{report.logical_seconds:.1f} logical s ({report.wall_seconds:.2f}s wall)"
        )
        print(f"  latency: p50={report.p50_ms:.3f}ms p99={report.p99_ms:.3f}ms")
        print(f"  digest: {report.digest}")
    return 1 if report.ops_dropped else 0


def cmd_cluster(args) -> int:
    from .runtime.cluster import ClusterEngine, reap_orphan_workers
    from .runtime.supervisor import BackoffPolicy

    kills = list(args.kill)
    kill_times = list(args.kill_at)
    if len(kill_times) > len(kills):
        raise SystemExit("error: more --kill-at times than --kill targets")
    # unscheduled kills default to 4s, spaced 2s apart
    while len(kill_times) < len(kills):
        last = kill_times[-1] if kill_times else 2.0
        kill_times.append(last + 2.0)
    drills = tuple(zip(kill_times, kills))

    spec = _engine_spec(args, default_time_scale=0.05)
    if spec.name != "cluster":
        raise SystemExit(
            f"error: repro cluster deploys on the cluster engine, "
            f"got --engine {spec.name}"
        )
    # the supervision flags ride in the spec, under any options it names
    options = {
        "heartbeat_interval": args.heartbeat_interval,
        "heartbeat_timeout": args.heartbeat_timeout,
        "backoff": BackoffPolicy(base=args.backoff_base, cap=args.backoff_cap),
        "drills": drills,
        **dict(spec.options),
    }
    spec = dataclasses.replace(spec, options=tuple(sorted(options.items())))

    def deploy(holder):
        system = _run_workload(args, spec, holder)
        if drills:
            # give supervised restarts room to land after the
            # workload: backoff delay + handshake + stabilization
            system.run_until(system.now + args.settle)
        return system

    system, wall, drained = _interruptible("cluster", spec, deploy)
    if system is None:
        reap_orphan_workers()
        return 130
    _print_summary(args.file, system, wall, drained)
    engine = system.engine
    recovered = True
    if isinstance(engine, ClusterEngine):
        report = engine.supervisor.report()
        print(report.render())
        if drills and drained is None:
            recovered = report.recovered()
            print(f"recovered={recovered}")
    system.shutdown()
    leaked = reap_orphan_workers()
    if leaked:
        print(f"cluster: reaped leaked worker pgids {leaked}", file=sys.stderr)
        return 1
    if system.failures:
        return 1
    return 0 if recovered else 2


def cmd_reconfigure(args) -> int:
    from .reconfig import diff_programs, plan_transition

    config = _parse_config(args.config)
    old = compile_program(_resolve(args.old, n_backends=args.old_backends), config=config)
    new = compile_program(_resolve(args.new, n_backends=args.new_backends), config=config)
    diff = diff_programs(old, new)
    print(f"diff: {diff.summary()}")
    if args.diff_only:
        return 0
    if args.plan_only:
        plan = plan_transition(diff)
        print(plan.render())
        return 0

    spec = _engine_spec(args, default_time_scale=0.05)
    reports: list = []

    def transition(holder):
        system = _boot(old, spec, holder)
        system.run_until(args.at)
        reports.append(system.reconfigure(new, quiesce_grace=args.grace))
        system.run_until(args.until if args.until is not None else system.now + 5.0)
        return system

    system, wall, drained = _interruptible("reconfigure", spec, transition)
    if system is None:
        return 130
    for report in reports:
        print(report.render())
    _print_summary(f"{args.old} -> {args.new}", system, wall, drained, traffic=False)
    system.shutdown()
    if system.failures:
        return 1
    return 0 if reports and reports[0].ok else 2


def _write_trace(result, schedule_id: str, path: str) -> None:
    from .telemetry.sinks import to_jsonl

    out = to_jsonl(result.system.telemetry.events, system=f"schedule:{schedule_id}")
    Path(path).write_text(out)
    print(f"wrote telemetry to {path} (schedule:{schedule_id})", file=sys.stderr)


def _explore_replay(args, scenario) -> int:
    import json

    from .explore import Schedule, ScheduleDivergence, replay

    sched = Schedule.from_json(json.loads(Path(args.replay).read_text()))
    invariants = tuple(args.invariant) if args.invariant else None
    try:
        res = replay(scenario, sched, invariants=invariants)
    except ScheduleDivergence as e:
        print(f"error: replay diverged: {e}", file=sys.stderr)
        return 1
    if args.trace_out:
        _write_trace(res, sched.schedule_id, args.trace_out)
    if res.violations:
        for inv, msg in res.violations:
            print(f"violation [{inv}]: {msg}")
        return 1
    print(f"replayed schedule {sched.schedule_id}: all invariants hold")
    return 0


def _explore_witness_races(args, scenario) -> int:
    import json

    from .analysis import analyze_source
    from .explore import witness_findings

    report = analyze_source(
        _resolve(args.file), _parse_config(args.config), label=args.file, deep=True
    )
    races = [f for f in report.unsuppressed() if f.check == "race"]
    if not races:
        print(f"{args.file}: the analyzer reports no unsuppressed races")
        return 0
    witnesses = witness_findings(
        scenario,
        races,
        strategy=args.strategy,
        budget=args.budget,
        depth=args.depth,
        seed=args.seed,
    )
    for w in witnesses:
        print(w.describe())
    if args.out:
        payload = [w.to_json() for w in witnesses]
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(payload)} witness attempt(s) to {args.out}", file=sys.stderr)
    return 0


def cmd_explore(args) -> int:
    import json

    from .explore import explore, resolve_scenario
    from .runtime.engine import default_engine

    spec = _engine_spec(args)
    if spec.name != "sim":
        raise SystemExit(
            f"error: explore requires the sim engine (controlled "
            f"scheduling), got --engine {spec.name}"
        )
    with default_engine(spec):
        scenario = resolve_scenario(
            args.file, config=_parse_config(args.config), horizon=args.until
        )
        if args.replay:
            return _explore_replay(args, scenario)
        if args.witness_races:
            return _explore_witness_races(args, scenario)
        invariants = tuple(args.invariant) if args.invariant else None
        result = explore(
            scenario,
            strategy=args.strategy,
            budget=args.budget,
            depth=args.depth,
            invariants=invariants,
            seed=args.seed,
        )
    print(f"{scenario.name}: {result.summary()}")
    for v in result.violations:
        print(
            f"violation [{v.invariant}] under schedule "
            f"{v.schedule.schedule_id}: {v.message}"
        )
    if args.out and result.violations:
        payload = [v.to_json() for v in result.violations]
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(
            f"wrote {len(payload)} failing schedule(s) to {args.out}",
            file=sys.stderr,
        )
    return 2 if result.violations else 0


def _add_config(sp) -> None:
    sp.add_argument(
        "--config", action="append", default=[], metavar="NAME=VALUE",
        help="load-time configuration (sets, parameters); repeatable",
    )


def _add_source(sp, help: str) -> None:
    """The positional architecture argument plus ``--config``."""
    sp.add_argument("file", help=help)
    _add_config(sp)


def _add_engine(sp, default: str | None = "sim", *, only: str | None = None) -> None:
    """``--engine SPEC``; ``only`` names the one engine a command accepts."""
    example = {
        None: "realtime,time_scale=0.05 or sim,compiled=off",
        "sim": "sim,compiled=off",
        "cluster": "cluster,workers=4,time_scale=0.05",
    }[only]
    sp.add_argument(
        "--engine", metavar="SPEC", default=default,
        help=f"engine spec: {only or 'sim | realtime | realtime-tcp | cluster'} "
             f"plus key=value options, e.g. {example} "
             f"(default: {default or 'sim'})",
    )


def _add_until(sp, default: float | None = None,
               note: str = "the scenario's own, or 30") -> None:
    sp.add_argument(
        "--until", type=float, default=default,
        help=f"logical-seconds horizon (default: {note})",
    )


_DSL_SOURCE = "a .csaw file or a shipped architecture name"
_RUN_SOURCE = (
    "a shipped architecture name (driven by its exploration workload) "
    "or a .csaw file (unbound host blocks are stubbed)"
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro", description="C-Saw architecture tooling"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="parse, validate and compile")
    _add_source(sp, _DSL_SOURCE)
    sp.add_argument(
        "--strict", action="store_true",
        help="also run the analyzer's fast checks; exit 2 on errors",
    )
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser(
        "analyze", help="static analysis: races, dead code, host contracts"
    )
    _add_source(sp, "a .csaw file, a shipped architecture name, or an example .py script")
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.add_argument(
        "--fail-on", metavar="CHECKS", default="",
        help="comma-separated checks (race,dead,contract,unused); exit 2 "
             "when any unsuppressed error finding of these checks remains",
    )
    sp.add_argument(
        "--fast", action="store_true",
        help="key-flow checks only (skip event-structure denotation)",
    )
    sp.add_argument(
        "--max-unfold", type=int, default=1,
        help="reconsider/retry unfolding depth for the deep pass (default: 1)",
    )
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("fmt", help="pretty-print / normalize")
    sp.add_argument("file")
    sp.add_argument("--write", action="store_true", help="rewrite in place")
    sp.set_defaults(fn=cmd_fmt)

    sp = sub.add_parser("topo", help="print the communication topology")
    _add_source(sp, _DSL_SOURCE)
    sp.set_defaults(fn=cmd_topo)

    sp = sub.add_parser("semantics", help="print event-structure semantics")
    _add_source(sp, _DSL_SOURCE)
    sp.add_argument("--dot", action="store_true", help="Graphviz output")
    sp.set_defaults(fn=cmd_semantics)

    sp = sub.add_parser("loc", help="count effective lines of code")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_loc)

    sp = sub.add_parser(
        "trace", help="run with telemetry and export the causal trace"
    )
    _add_source(sp, "a .csaw file, a shipped architecture name, or an example .py script")
    sp.add_argument(
        "--format", choices=("jsonl", "chrome"), default="jsonl",
        help="export format (default: jsonl)",
    )
    _add_until(sp, 60.0, "60; DSL sources only")
    _add_engine(sp, None)
    sp.add_argument("--out", help="write to this file instead of stdout")
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser(
        "run", help="execute an architecture on a chosen execution engine"
    )
    _add_source(sp, _RUN_SOURCE)
    _add_engine(sp)
    _add_until(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser(
        "workload",
        help="drive a seeded million-user workload through an architecture "
             "and report ops/sec, p50/p99 and drops",
    )
    sp.add_argument(
        "--arch", default="broker_sharded",
        help="architecture adapter: broker_sharded | broker_failover | "
             "sharding | failover (default: broker_sharded)",
    )
    _add_engine(sp)
    sp.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    sp.add_argument(
        "--users", type=int, default=10_000,
        help="distinct-user population keys are drawn from (default: 10000)",
    )
    sp.add_argument(
        "--pattern", choices=("steady", "diurnal", "flash-crowd"),
        default="steady", help="arrival curve (default: steady)",
    )
    sp.add_argument(
        "--mode", choices=("open", "closed"), default="open",
        help="open loop (timed arrivals) or closed loop (fixed "
             "outstanding-op window; default: open)",
    )
    sp.add_argument(
        "--rate", type=float, default=200.0,
        help="mean arrival rate in ops per logical second (open loop; "
             "default: 200)",
    )
    sp.add_argument(
        "--concurrency", type=int, default=8,
        help="outstanding-op window (closed loop; default: 8)",
    )
    sp.add_argument(
        "--duration", type=float, default=10.0,
        help="logical seconds of traffic (default: 10)",
    )
    sp.add_argument(
        "--max-ops", type=int, default=2000,
        help="hard cap on generated operations (default: 2000)",
    )
    sp.add_argument(
        "--value-size", type=int, default=64,
        help="payload bytes per write (default: 64)",
    )
    sp.add_argument(
        "--read-fraction", type=float, default=0.3,
        help="fraction of ops that are reads (default: 0.3)",
    )
    sp.add_argument("--json", action="store_true", help="machine-readable output")
    sp.set_defaults(fn=cmd_workload)

    sp = sub.add_parser(
        "cluster",
        help="deploy across supervised worker processes (one per instance "
             "or shard group), with optional SIGKILL fault drills",
    )
    _add_source(sp, _RUN_SOURCE)
    _add_engine(sp, "cluster", only="cluster")
    _add_until(sp)
    sp.add_argument(
        "--heartbeat-interval", type=float, default=0.5,
        help="logical seconds between liveness pings (default: 0.5)",
    )
    sp.add_argument(
        "--heartbeat-timeout", type=float, default=2.0,
        help="logical seconds without a pong before a worker is declared "
             "crashed (default: 2.0)",
    )
    sp.add_argument(
        "--backoff-base", type=float, default=0.5,
        help="first restart delay in logical seconds (default: 0.5)",
    )
    sp.add_argument(
        "--backoff-cap", type=float, default=8.0,
        help="maximum restart delay in logical seconds (default: 8.0)",
    )
    sp.add_argument(
        "--kill", action="append", default=[], metavar="INSTANCE",
        help="fault drill: SIGKILL the worker hosting INSTANCE mid-run "
             "(repeatable; exits non-zero unless the supervisor recovers it)",
    )
    sp.add_argument(
        "--kill-at", action="append", type=float, default=[], metavar="T",
        help="logical time of the matching --kill (default: 4s, spaced 2s)",
    )
    sp.add_argument(
        "--settle", type=float, default=20.0,
        help="extra logical seconds after the workload for supervised "
             "restarts to land (only with --kill; default: 20)",
    )
    sp.set_defaults(fn=cmd_cluster)

    sp = sub.add_parser(
        "reconfigure",
        help="apply a .csaw architecture diff to a running system "
             "(quiesce, snapshot, cutover, resume — zero dropped requests)",
    )
    sp.add_argument("old", help=f"the running architecture: {_DSL_SOURCE}")
    sp.add_argument("new", help=f"the target architecture: {_DSL_SOURCE}")
    _add_config(sp)
    sp.add_argument(
        "--old-backends", type=int, default=None, metavar="N",
        help="back-end count for a parameterized OLD source (sharding)",
    )
    sp.add_argument(
        "--new-backends", type=int, default=None, metavar="N",
        help="back-end count for a parameterized NEW source (sharding)",
    )
    _add_engine(sp)
    sp.add_argument(
        "--at", type=float, default=2.0,
        help="logical time to trigger the transition (default: 2.0)",
    )
    _add_until(sp, note="trigger time + 5")
    sp.add_argument(
        "--grace", type=float, default=5.0,
        help="quiesce grace in logical seconds before rollback (default: 5.0)",
    )
    sp.add_argument(
        "--diff-only", action="store_true",
        help="print the architecture diff and exit",
    )
    sp.add_argument(
        "--plan-only", action="store_true",
        help="print the transition plan and exit",
    )
    sp.set_defaults(fn=cmd_reconfigure)

    sp = sub.add_parser(
        "explore",
        help="controlled-scheduler interleaving search with invariant checks",
    )
    _add_source(
        sp,
        "a shipped architecture name, a .csaw file, or a .py scenario "
        "script defining build_scenario()",
    )
    sp.add_argument(
        "--strategy", choices=("dpor", "bfs", "dfs", "random"), default="dpor",
        help="search strategy (default: dpor — partial-order-reduced search)",
    )
    sp.add_argument(
        "--budget", type=int, default=200,
        help="maximum schedules to run (default: 200)",
    )
    sp.add_argument(
        "--depth", type=int, default=None,
        help="branch only at the first N choice points (default: unbounded)",
    )
    sp.add_argument(
        "--invariant", action="append", default=[], metavar="NAME",
        help="invariant to check (repeatable; default: the scenario's own "
             "set — no-failures, convergence, at-most-once, ...)",
    )
    sp.add_argument(
        "--seed", type=int, default=0, help="seed for the random strategy"
    )
    _add_engine(sp, None, only="sim")
    _add_until(sp)
    sp.add_argument(
        "--replay", metavar="SCHEDULE_JSON",
        help="replay a serialized schedule exactly instead of searching",
    )
    sp.add_argument(
        "--trace-out", metavar="FILE",
        help="with --replay: export the run's telemetry JSONL (labeled with "
             "the schedule id) to FILE",
    )
    sp.add_argument(
        "--witness-races", action="store_true",
        help="run the static analyzer and attempt a concrete witness "
             "schedule for every unsuppressed race finding",
    )
    sp.add_argument(
        "--out", metavar="FILE",
        help="write failing schedules (or --witness-races results) as JSON",
    )
    sp.set_defaults(fn=cmd_explore)

    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CSawError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
