"""Loading the architecture library's DSL sources.

Architectures live as ``.csaw`` files under ``repro/arch/dsl``.  The
sharding program is parameterized by the number of back-ends (a
compile-time configuration parameter in the paper, sec. 5.2); the
loader expands the ``@BACKENDS@`` / ``@BACKSET@`` / ``@STARTS@``
placeholders before compilation.  :func:`boot_program` starts a bare
program with no embedding application — the one boot behind every CLI
command and exploration scenario that runs a ``.csaw`` file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from ..core.compiler import CompiledProgram, compile_program

_DSL_DIR = Path(__file__).parent / "dsl"

ARCHITECTURES = (
    "remote_snapshot",
    "sharding",
    "parallel_sharding",
    "caching",
    "checkpointing",
    "failover",
    "failover_fast",
    "migration",
    "elastic",
    "watched_failover",
    "broker_sharded",
    "broker_failover",
)


def dsl_path(name: str) -> Path:
    p = _DSL_DIR / f"{name}.csaw"
    if not p.exists():
        raise FileNotFoundError(f"no architecture {name!r}; have {ARCHITECTURES}")
    return p


def expand_placeholders(text: str, n_backends: int = 4) -> str:
    """Instantiate the ``@BACKENDS@`` / ``@BACKSET@`` / ``@STARTS@``
    placeholders of a back-end-parameterized source."""
    names = [f"Bck{i}" for i in range(1, n_backends + 1)]
    text = text.replace("@BACKENDS@", ", ".join(f"{b}: Back" for b in names))
    text = text.replace("@BACKSET@", "{" + ", ".join(names) + "}")
    text = text.replace("@STARTS@", " + ".join(f"start {b}(t)" for b in names))
    return text


def load_source(name: str, *, n_backends: int | None = None) -> str:
    """Read (and, for sharding, instantiate) an architecture source."""
    text = dsl_path(name).read_text()
    if "@BACKENDS@" in text:
        text = expand_placeholders(text, n_backends or 4)
    elif n_backends is not None:
        raise ValueError(f"architecture {name!r} is not parameterized by back-end count")
    return text


def resolve_source(target: str, *, n_backends: int | None = None) -> str:
    """A shipped architecture name or a ``.csaw`` path → DSL source
    with the back-end placeholders expanded."""
    if target in ARCHITECTURES:
        return load_source(target, n_backends=n_backends)
    text = Path(target).read_text()
    if "@BACKENDS@" in text:
        text = expand_placeholders(text, n_backends or 4)
    return text


def load_program(name: str, *, n_backends: int | None = None, config=None) -> CompiledProgram:
    """Load and compile an architecture."""
    return compile_program(load_source(name, n_backends=n_backends), config=config)


def backend_names(n: int) -> list[str]:
    return [f"Bck{i}" for i in range(1, n + 1)]


def _stub_bindings(system) -> list[str]:
    """Bind no-op host functions and empty state providers for every
    unbound ⌊H⌉ block / save schema, so a bare ``.csaw`` architecture
    runs to completion without an embedding application.  Returns the
    stubbed ``Type.block`` names."""
    from ..core import ast as A
    from ..runtime.instance import StateProviders

    stubbed: list[str] = []
    for tname, trt in sorted(system.types.items()):
        declared: set[str] = set()
        for cj in trt.junctions.values():
            for e in A.walk(cj.body):
                if isinstance(e, A.HostBlock):
                    declared.add(e.name)
        for name in sorted(declared - set(trt.host_fns)):
            trt.bind_host(name, lambda ctx: None)
            stubbed.append(f"{tname}.{name}")
        if trt.state.save is None:
            trt.state = StateProviders(
                save=lambda app, inst: {},
                restore=lambda app, inst, obj: None,
            )
    return stubbed


def boot_program(program: CompiledProgram, engine=None, *,
                 before_start: Callable | None = None):
    """Build and start a System for a bare program: unbound host blocks
    are stubbed (:func:`_stub_bindings`) and main parameters the
    configuration leaves unset default to 1.0.  ``before_start(system,
    stubbed, defaulted)`` runs between the two, with the stubbed block
    names and the defaulted parameter names."""
    from ..runtime.system import System

    system = System(program, engine=engine)
    stubbed = _stub_bindings(system)
    main_args = {}
    if program.main is not None:
        env = program.config_env()
        main_args = {p: 1.0 for p in program.main.params if p not in env}
    if before_start is not None:
        before_start(system, stubbed, sorted(main_args))
    system.start(**main_args)
    return system
