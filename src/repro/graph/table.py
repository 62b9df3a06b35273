"""Per-graph cell table: the static half of the firing rule.

Everything the firing rule needs to know about an instruction cell is
fixed when the graph is built (paper, Section 2): which operand ports
must be full, which of them are constants, the gate, the T/F
destination lists and the unit an operation packet goes to.  A
:class:`CellTable` resolves all of it once per FIFO-lowered graph, so
the engines that fire cells -- the event machine, the shard machines
and the compiled backend's stream evaluator -- spend their inner loops
on operand values only.

A table is immutable and shared: one per graph, handed to every
machine that runs that graph.  It holds scalar functions (lambdas in
``BINARY_OPS``), so it never enters a pickle; machines drop it when
pickled and rebuild it when loaded.

Port slots use one encoding everywhere: ``(port, aid, const)`` where
``aid`` is the driving arc's id, ``None`` for a constant operand
(``const`` holds its value) and ``-1`` for an undriven port (the cell
can never fire).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .cell import GATE_PORT, Arc, Cell
from .graph import DataflowGraph
from .opcodes import (
    ARITY,
    BINARY_OPS,
    MERGE_CONTROL_PORT,
    MERGE_FALSE_PORT,
    MERGE_TRUE_PORT,
    UNARY_OPS,
    UNIT_OF,
    Op,
)

#: kind codes: how a cell fires
SCALAR = 0      # binary/unary operator (ID included)
MERGE = 1       # the paper's merge: control picks the T or F input
SOURCE = 2      # SOURCE / AM_READ: next element of a stream
CONST = 3       # free-running literal
SINK = 4        # SINK / AM_WRITE: absorb and record
INVALID = 5     # not executable on the machine (an unlowered FIFO)

_KIND_OF = {
    Op.MERGE: MERGE,
    Op.SOURCE: SOURCE,
    Op.AM_READ: SOURCE,
    Op.CONST: CONST,
    Op.SINK: SINK,
    Op.AM_WRITE: SINK,
    Op.FIFO: INVALID,
}

#: a port slot: (port, driving arc id | None for const | -1 undriven,
#: constant value)
Slot = tuple[int, Optional[int], Any]


class CellRow:
    """The static facts of one instruction cell."""

    __slots__ = (
        "cid", "cell", "op", "kind", "fn", "unit", "gate",
        "gate_needed", "gate_const", "data", "needed", "acks",
        "merge", "merge_acks", "out_true", "out_false", "outs",
    )

    cid: int
    cell: Cell
    op: Op
    #: one of the kind codes above
    kind: int
    #: scalar implementation (None unless ``kind`` is SCALAR)
    fn: Optional[Callable[..., Any]]
    #: "pe", "fu" or "am": where the operation packet executes
    unit: str
    #: gate slot, or None for an ungated cell
    gate: Optional[Slot]
    #: whether the gate operand must arrive on an arc before firing
    gate_needed: bool
    #: the gate's constant value (None when arc-driven or ungated)
    gate_const: Any
    #: data port slots in port order
    data: tuple[Slot, ...]
    #: data ports that must hold an arrived operand before firing
    needed: tuple[int, ...]
    #: in-arcs of the consumed operands, in acknowledge order (each
    #: frees ``arc.dst_port``); MERGE cells use ``merge_acks`` instead
    acks: tuple[Arc, ...]
    #: MERGE slots (control, true input, false input)
    merge: Optional[tuple[Slot, Slot, Slot]]
    #: MERGE ``acks`` when control is (false, true)
    merge_acks: Optional[tuple[tuple[Arc, ...], tuple[Arc, ...]]]
    #: destination arc ids written when the gate is true / false (an
    #: ungated cell writes ``out_false``: its gate reads as ``None``)
    out_true: tuple[int, ...]
    out_false: tuple[int, ...]
    #: every destination arc, in arc order (the graph's own list)
    outs: list[Arc]


class CellTable:
    """Immutable per-graph table of :class:`CellRow`, keyed by cell id.

    Built once per graph and shared, so it is kept lean: equal small
    tuples are stored once, and arcs are referenced, not copied."""

    __slots__ = ("graph", "rows")

    def __init__(self, graph: DataflowGraph) -> None:
        self.graph = graph
        shared: dict[tuple, tuple] = {}
        self.rows: dict[int, CellRow] = {
            cid: _row(cell, graph.in_arc, graph.out_arcs[cid], shared)
            for cid, cell in graph.cells.items()
        }

    @classmethod
    def of(cls, graph: DataflowGraph,
           table: Optional["CellTable"] = None) -> "CellTable":
        """``table`` when it was built for ``graph``, else a new one."""
        if table is not None and table.graph is graph:
            return table
        return cls(graph)


#: per opcode: (kind code, scalar function, unit class, data ports)
_OP_FACTS = {
    op: (
        _KIND_OF.get(op, SCALAR),
        BINARY_OPS.get(op) or UNARY_OPS.get(op),
        UNIT_OF[op],
        ARITY[op],
    )
    for op in Op
}


def _slot(cell: Cell, port: int, in_arc: dict) -> Slot:
    if port in cell.consts:
        return port, None, cell.consts[port]
    arc = in_arc.get((cell.cid, port))
    return port, (arc.aid if arc is not None else -1), None


def _row(
    cell: Cell, in_arc: dict, out_arcs: list[Arc], shared: dict
) -> CellRow:
    cid = cell.cid
    consts = cell.consts
    row = CellRow()
    row.cid = cid
    row.cell = cell
    row.op = cell.op
    row.kind, row.fn, row.unit, arity = _OP_FACTS[cell.op]

    # acknowledge order: the gate first, then the data ports the
    # firing consumes (constants never are; an undriven port holds no
    # operand and has no producer to acknowledge)
    gate_acks: tuple[Arc, ...] = ()
    row.gate = row.gate_const = None
    row.gate_needed = False
    if cell.gated:
        row.gate = _slot(cell, GATE_PORT, in_arc)
        row.gate_const = consts.get(GATE_PORT)
        row.gate_needed = GATE_PORT not in consts
        arc = in_arc.get((cid, GATE_PORT))
        if row.gate_needed and arc is not None:
            gate_acks = (arc,)
    data = []
    needed = []
    consumed = list(gate_acks)
    for port in range(arity):
        if port in consts:
            data.append((port, None, consts[port]))
            continue
        needed.append(port)
        arc = in_arc.get((cid, port))
        if arc is None:
            data.append((port, -1, None))
        else:
            data.append((port, arc.aid, None))
            consumed.append(arc)
    row.data = tuple(data)
    needed_t = tuple(needed)
    row.needed = shared.setdefault(needed_t, needed_t)

    row.merge = row.merge_acks = None
    if row.kind == MERGE:
        row.acks = gate_acks
        row.merge = (
            data[MERGE_CONTROL_PORT], data[MERGE_TRUE_PORT],
            data[MERGE_FALSE_PORT],
        )
        row.merge_acks = tuple(
            gate_acks + tuple(
                in_arc[(cid, port)]
                for port, aid, _const in (data[MERGE_CONTROL_PORT], data[sel])
                if aid is not None and aid >= 0
            )
            for sel in (MERGE_FALSE_PORT, MERGE_TRUE_PORT)
        )
    elif row.kind in (SOURCE, CONST):
        row.acks = gate_acks
    else:
        row.acks = tuple(consumed)

    out_true = []
    out_false = []
    for arc in out_arcs:
        tag = arc.tag
        if tag is None or tag == True:  # noqa: E712
            out_true.append(arc.aid)
        if tag is None or tag == False:  # noqa: E712
            out_false.append(arc.aid)
    row.out_true = tuple(out_true)
    row.out_false = (
        row.out_true if out_false == out_true else tuple(out_false)
    )
    row.outs = out_arcs
    return row
