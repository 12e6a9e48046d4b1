"""Rendering event structures (the graphical notation of sec. 8.2.1).

* :func:`to_dot` — Graphviz DOT: solid arrows for immediate causality,
  dashed zig-zag-style edges for minimal conflict, boxed scheduling
  events (as in Fig. 18).
* :func:`to_text` — a deterministic topological text listing used in
  tests and docs.

Both render *immediate* causality (``e1 ⪇ e2`` with nothing strictly
between) and *minimal* conflict (conflicts not inherited from smaller
ones), per the paper's definitions.
"""

from __future__ import annotations

from .events import Sched, Unsched
from .structure import EventStructure


def immediate_causality(es: EventStructure) -> set[tuple[int, int]]:
    clo = es.closure_le()
    out = set()
    for a, b in clo:
        if a == b:
            continue
        if any((a, c) in clo and (c, b) in clo and c not in (a, b) for c in es.ids):
            continue
        out.add((a, b))
    return out


def minimal_conflicts(es: EventStructure) -> set[frozenset]:
    """Conflicts ``e1 # e2`` minimal in the sense of sec. 8.2.1."""
    inh = es.inherited_conflicts()
    # every history from one closure (``es.history`` recomputes it per call)
    history = {e.id: {e.id} for e in es.events}
    for a, b in es.closure_le():
        history[b].add(a)
    out = set()
    for pair in inh:
        a, b = tuple(pair)
        minimal = True
        for ea in history[a]:
            for eb in history[b]:
                p = frozenset((ea, eb))
                if len(p) == 2 and p in inh and p != pair:
                    minimal = False
                    break
            if not minimal:
                break
        if minimal:
            out.add(pair)
    return out


def to_dot(es: EventStructure, name: str = "events") -> str:
    lines = [f"digraph {_dot_id(name)} {{", "  rankdir=TB;", "  node [fontsize=10];"]
    for e in sorted(es.events, key=lambda x: x.id):
        shape = "box" if isinstance(e.label, (Sched, Unsched)) else "ellipse"
        style = ' style="dashed"' if not e.outward else ""
        lines.append(f'  e{e.id} [label="{e}" shape={shape}{style}];')
    for a, b in sorted(immediate_causality(es)):
        lines.append(f"  e{a} -> e{b};")
    for pair in sorted(minimal_conflicts(es), key=sorted):
        a, b = sorted(pair)
        lines.append(f'  e{a} -> e{b} [dir=none style=dotted color=red constraint=false];')
    lines.append("}")
    return "\n".join(lines)


def to_text(es: EventStructure) -> str:
    """Deterministic listing: events in a topological order with their
    immediate enablers, followed by minimal conflicts."""
    clo = es.closure_le()
    imm = immediate_causality(es)
    order = _topo_order(es, clo)
    id2e = {e.id: e for e in es.events}
    lines = []
    for eid in order:
        preds = sorted(a for (a, b) in imm if b == eid)
        pred_s = ", ".join(str(id2e[p]) for p in preds)
        arrow = f"  <- [{pred_s}]" if preds else ""
        lines.append(f"{id2e[eid]}{arrow}")
    for pair in sorted(minimal_conflicts(es), key=sorted):
        a, b = sorted(pair)
        lines.append(f"CONFLICT {id2e[a]} ~ {id2e[b]}")
    return "\n".join(lines)


def _topo_order(es: EventStructure, clo) -> list[int]:
    remaining = {e.id for e in es.events}
    preds = {i: {a for (a, b) in clo if b == i and a in remaining} for i in remaining}
    order = []
    while remaining:
        ready = sorted(i for i in remaining if not (preds[i] & remaining))
        if not ready:  # cycle (invalid structure); dump rest
            order.extend(sorted(remaining))
            break
        for i in ready:
            order.append(i)
            remaining.discard(i)
    return order


def _dot_id(name: str) -> str:
    return '"' + name.replace('"', "'") + '"'
