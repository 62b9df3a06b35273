"""Steady-state schedule derivation for the compiled backend.

Theorems 1-4 of the paper prove that a balanced graph under the
acknowledge discipline settles into a *static* periodic firing
schedule: a prologue while the pipeline fills, then a period that
repeats every II cycles advancing every stream by a fixed number of
elements, then an epilogue while it drains.  The event machine
rediscovers that schedule one event at a time; this module gives the
compiled backend the two static facts it needs to skip the rediscovery:

* :func:`analyze_schedule` -- decides, from the lowered graph alone,
  whether the steady state is *statically replayable*: every control
  token (gate operands, MERGE control operands) must trace back through
  plain untagged ID chains to a SOURCE/AM_READ cell, so the full
  control decision sequence is known before the run starts; and no
  opcode may fault on operand *values* (DIV).  When the analysis
  passes, the period detected at run time can be replayed J times by
  pure time-shifting, because nothing inside the period depends on
  which window of elements is flowing through.

* :class:`StreamEvaluator` -- computes every sink's output *values* at
  stream level, independent of machine timing, by batched Kahn-network
  evaluation: each cell fires as many times as its queued operands
  allow in one visit, vectorized over the batch (numpy when available
  and safe, pure-Python loops otherwise).  Kahn determinism makes the
  result schedule-independent, so these values are bit-identical to
  what the event machine computes element by element.

The compiled backend (:mod:`repro.backends.compiled`) combines the two:
the machine supplies exact *times* (with whole periods fast-forwarded),
the evaluator supplies exact *values*.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Optional

from ..errors import ReproError
from ..graph.cell import GATE_PORT
from ..graph.graph import DataflowGraph
from ..graph.opcodes import MERGE_CONTROL_PORT, UNARY_OPS, Op
from ..graph.table import (
    MERGE,
    SCALAR,
    SINK,
    SOURCE,
    CellRow,
    CellTable,
    Slot,
)

try:                            # optional acceleration only
    import numpy as _np
except Exception:               # pragma: no cover - numpy is optional
    _np = None


class ScheduleError(ReproError):
    """The graph (or its inputs) defeats static schedule derivation.

    Never fatal to a run: the compiled backend catches it and degrades
    to plain event execution, which is bit-identical by definition.
    """


# ----------------------------------------------------------------------
# static analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ControlArc:
    """One control operand (gate or MERGE control) and the source cell
    whose stream feeds it through a plain untagged ID chain."""

    dst: int                    #: consuming cell id
    port: int                   #: GATE_PORT or MERGE_CONTROL_PORT
    source: int                 #: SOURCE/AM_READ cell id feeding it


@dataclass
class ScheduleAnalysis:
    """Whether (and how) the steady-state schedule can be replayed."""

    replayable: bool
    reason: str = ""
    #: control operands with statically known token sequences
    control_arcs: list[ControlArc] = field(default_factory=list)
    #: SOURCE/AM_READ cell with the longest stream -- the cell whose
    #: firings anchor period detection
    anchor: Optional[int] = None
    #: every SOURCE/AM_READ cell id
    source_cids: list[int] = field(default_factory=list)


def _trace_control_source(
    graph: DataflowGraph, arc: Any
) -> Optional[int]:
    """Walk a control arc back through plain ID cells to its source.

    Returns the SOURCE/AM_READ cell id when every hop is an untagged,
    initial-token-free arc and every intermediate cell is an ungated ID
    (a lowered FIFO stage) -- the conditions under which the control
    port consumes exactly the source's stream, in order.  ``None``
    means the control is computed at run time.
    """
    seen: set[int] = set()
    while True:
        if arc.tag is not None or arc.has_initial:
            return None
        cell = graph.cells[arc.src]
        if cell.cid in seen:
            return None
        seen.add(cell.cid)
        if cell.op in (Op.SOURCE, Op.AM_READ):
            return None if cell.gated else cell.cid
        if cell.op is Op.ID and not cell.gated and 0 not in cell.consts:
            arc = graph.in_arc.get((cell.cid, 0))
            if arc is None:
                return None
            continue
        return None


def analyze_schedule(
    graph: DataflowGraph, inputs: dict[str, list[Any]]
) -> ScheduleAnalysis:
    """Decide whether the graph's steady state is statically
    replayable (see module docstring).  ``graph`` must already be
    FIFO-lowered (the machine lowers on construction)."""

    def refused(reason: str) -> ScheduleAnalysis:
        return ScheduleAnalysis(replayable=False, reason=reason)

    sources: list[int] = []
    control_arcs: list[ControlArc] = []
    for cell in graph:
        op = cell.op
        if op is Op.DIV:
            # a replayed period routes stale placeholder operands into
            # the divider, which could fault on a value the real run
            # never sees
            return refused("graph contains DIV cells")
        if op is Op.CONST:
            return refused("graph contains free-running CONST cells")
        if op is Op.AM_WRITE:
            return refused("graph writes array memory")
        if op in (Op.SOURCE, Op.AM_READ):
            sources.append(cell.cid)
        ctl_ports = []
        if cell.gated and GATE_PORT not in cell.consts:
            ctl_ports.append(GATE_PORT)
        if op is Op.MERGE and MERGE_CONTROL_PORT not in cell.consts:
            ctl_ports.append(MERGE_CONTROL_PORT)
        for port in ctl_ports:
            in_arc = graph.in_arc.get((cell.cid, port))
            if in_arc is None:
                continue        # the cell can never fire; harmless
            src = _trace_control_source(graph, in_arc)
            if src is None:
                return refused(
                    f"control operand of cell {cell.cid} is computed "
                    f"at run time"
                )
            control_arcs.append(
                ControlArc(dst=cell.cid, port=port, source=src)
            )
    if not sources:
        return refused("graph has no stream sources")

    def seq_len(cid: int) -> int:
        cell = graph.cells[cid]
        if "values" in cell.params:
            return len(cell.params["values"])
        return len(inputs.get(cell.params["stream"], ()))

    anchor = max(sources, key=seq_len)
    if seq_len(anchor) == 0:
        return refused("all source streams are empty")
    return ScheduleAnalysis(
        replayable=True,
        control_arcs=control_arcs,
        anchor=anchor,
        source_cids=sources,
    )


# ----------------------------------------------------------------------
# stream-level value evaluation
# ----------------------------------------------------------------------
#: numpy-safe opcodes: IEEE-754 arithmetic/comparisons whose float64
#: results are bit-identical to CPython's (DIV excluded -- numpy does
#: not raise ZeroDivisionError; MIN/MAX excluded -- NaN and signed-zero
#: conventions differ)
_NP_BINOPS = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}
_NP_UNOPS = {Op.NEG: operator.neg, Op.ABS: abs}
_NP_MIN_BATCH = 32

_INF = 1 << 62
_identity = UNARY_OPS[Op.ID]


class StreamEvaluator:
    """Batched Kahn-network evaluation of a lowered graph.

    Buffers on every arc are unbounded, so each visit to a cell fires
    it as many times as its queued operands allow, consuming and
    producing whole batches.  The acknowledge discipline only restricts
    *when* tokens move, never *which* values they become, so the
    resulting sink streams equal the event machine's bit for bit (Kahn
    determinism).

    Everything static about a cell comes from the graph's
    :class:`~repro.graph.table.CellTable` (``table`` shares the one a
    machine already built).  Feedback loops (recurrences) admit one
    element per visit, so a cell may be visited O(stream) times; those
    visits take single-token paths that skip the batch machinery.
    """

    def __init__(
        self,
        graph: DataflowGraph,
        inputs: dict[str, list[Any]],
        table: Optional[CellTable] = None,
    ) -> None:
        for cell in graph:
            if cell.op in (Op.CONST, Op.FIFO):
                raise ScheduleError(
                    f"stream evaluator cannot batch {cell.op.value!r} "
                    f"cells"
                )
        self.graph = graph
        self.inputs = inputs
        self._rows = CellTable.of(graph, table).rows
        #: per-arc token queue
        self._buf: dict[int, deque] = {aid: deque() for aid in graph.arcs}
        for arc in graph.arcs.values():
            if arc.has_initial:
                self._buf[arc.aid].append(arc.initial)
        self.sink_values: dict[int, list[Any]] = {}
        self._source_pos: dict[int, int] = {}
        self._source_seq: dict[int, list[Any]] = {}
        total_tokens = 0
        for cell in graph:
            if cell.op in (Op.SINK, Op.AM_WRITE):
                self.sink_values[cell.cid] = []
            elif cell.op in (Op.SOURCE, Op.AM_READ):
                seq = (
                    cell.params["values"]
                    if "values" in cell.params
                    else self.inputs[cell.params["stream"]]
                )
                self._source_seq[cell.cid] = seq
                self._source_pos[cell.cid] = 0
                total_tokens += len(seq)
        #: firing budget: generous multiple of the work a terminating
        #: run can do, so a seeded recirculation loop cannot spin the
        #: evaluator forever
        self._budget = 10_000 + 64 * max(1, total_tokens)
        self.firings = 0
        # Single-token plans: the cells of recurrence loops, which the
        # driver fires one token at a time inline, without the batch
        # machinery.  Built for the common shapes only; every other
        # cell, and every visit with more than one token, goes
        # through _fire.
        #: operator and sink plans, see _operator_plan
        self._plans: dict[int, tuple] = {}
        #: MERGE plans, see _merge_plan
        self._merge_plans: dict[int, tuple] = {}
        for cid, row in self._rows.items():
            if row.kind == MERGE:
                plan = self._merge_plan(row)
                if plan is not None:
                    self._merge_plans[cid] = plan
            elif row.kind in (SCALAR, SINK):
                plan = self._operator_plan(row)
                if plan is not None:
                    self._plans[cid] = plan

    def _operator_plan(self, row: CellRow) -> Optional[tuple]:
        """``(fn, input queue, second input queue or None, output
        queues, fed cells)`` for an ungated operator or sink whose
        operands all arrive on arcs.  A sink is an identity whose
        output queue is its value list."""
        if row.gate is not None:
            return None
        ins = [self._buf[aid] for _p, aid, _c in row.data
               if aid is not None and aid >= 0]
        if len(ins) != len(row.data):
            return None         # a constant or undriven operand
        if row.kind == SINK:
            return _identity, ins[0], None, (self.sink_values[row.cid],), ()
        return (
            row.fn, ins[0], ins[1] if len(ins) == 2 else None,
            tuple(self._buf[aid] for aid in row.out_false),
            [arc.dst for arc in row.outs if not arc.tag],
        )

    def _merge_plan(self, row: CellRow) -> Optional[tuple]:
        """``(control queue, true input, false input, gate queue or
        None, (output queues, fed cells) for gate true, the same for
        gate false)`` for a MERGE whose control and gate arrive on arcs;
        an input is ``(queue, None)`` or ``(None, constant)``."""
        ctl_slot, true_slot, false_slot = row.merge
        gate = row.gate
        if ctl_slot[1] is None or ctl_slot[1] < 0 or (
            gate is not None and (gate[1] is None or gate[1] < 0)
        ):
            return None
        if true_slot[1] == -1 or false_slot[1] == -1:
            return None         # an undriven input

        def operand(slot: Slot) -> tuple:
            _port, aid, const = slot
            return (None, const) if aid is None else (self._buf[aid], None)

        def routes(aids: tuple[int, ...]) -> tuple:
            return (
                tuple(self._buf[aid] for aid in aids),
                [arc.dst for arc in row.outs if arc.aid in aids],
            )

        return (
            self._buf[ctl_slot[1]], operand(true_slot),
            operand(false_slot),
            None if gate is None else self._buf[gate[1]],
            routes(row.out_true), routes(row.out_false),
        )

    # -- operand plumbing ----------------------------------------------
    def _avail(self, slot: Slot) -> int:
        _port, aid, _const = slot
        if aid is None:
            return _INF
        if aid < 0:
            return 0
        return len(self._buf[aid])

    def _take(self, slot: Slot, n: int) -> list[Any]:
        """Consume and return ``n`` tokens from an operand slot."""
        _port, aid, const = slot
        if aid is None:
            return [const] * n
        buf = self._buf[aid]
        if n == len(buf):
            out = list(buf)
            buf.clear()
            return out
        out = list(islice(buf, n))
        for _ in range(n):
            buf.popleft()
        return out

    def _emit(
        self, row: CellRow, results: list[Any], gates: Optional[list[Any]]
    ) -> list[int]:
        """Route a batch of results to the cell's destination arcs,
        honoring T/F tags exactly like :meth:`Machine._fire`; returns
        the destination cell ids that received tokens."""
        touched: list[int] = []
        for arc in row.outs:
            aid, dst, tag = arc.aid, arc.dst, arc.tag
            if tag is None:
                picked = results
            else:
                gl = gates if gates is not None else [None] * len(results)
                picked = [
                    r for r, g in zip(results, gl) if bool(g) == tag
                ]
            if picked:
                self._buf[aid].extend(picked)
                touched.append(dst)
        return touched

    def _gate_batch(self, row: CellRow, n: int) -> Optional[list[Any]]:
        return None if row.gate is None else self._take(row.gate, n)

    # -- per-opcode firing ---------------------------------------------
    def _fire(self, row: CellRow) -> list[int]:
        """Fire a cell as often as possible; returns dst cells fed.
        Scalar operators and IDs (most cells) are handled inline."""
        gate_avail = _INF if row.gate is None else self._avail(row.gate)
        if gate_avail <= 0:
            return []
        kind = row.kind
        if kind == MERGE:
            return self._fire_merge(row, gate_avail)
        if kind == SOURCE:
            return self._fire_source(row, gate_avail)
        if kind == SINK:
            return self._fire_sink(row, gate_avail)
        data = row.data
        buf_map = self._buf
        n = gate_avail
        for _port, aid, _const in data:
            if aid is None:
                continue
            if aid < 0:
                return []       # unconnected port: can never fire
            avail = len(buf_map[aid])
            if avail < n:
                n = avail
        if n <= 0 or n >= _INF:
            if n >= _INF:
                raise ScheduleError(
                    f"cell {row.cid} has only constant operands"
                )
            return []
        self.firings += n
        cols = [self._take(slot, n) for slot in data]
        results = self._apply_batch(row, cols, n)
        gates = self._gate_batch(row, n)
        return self._emit(row, results, gates)

    def _fire_source(self, row: CellRow, gate_avail: int) -> list[int]:
        """SOURCE / AM_READ: emit the next stream elements."""
        cid = row.cid
        pos = self._source_pos[cid]
        seq = self._source_seq[cid]
        n = min(len(seq) - pos, gate_avail)
        if n <= 0:
            return []
        self.firings += n
        self._source_pos[cid] = pos + n
        results = list(seq[pos:pos + n])
        gates = self._gate_batch(row, n)
        return self._emit(row, results, gates)

    def _fire_sink(self, row: CellRow, gate_avail: int) -> list[int]:
        """SINK / AM_WRITE: record the arrived elements."""
        slot = row.data[0]
        n = min(self._avail(slot), gate_avail)
        if n <= 0:
            return []
        self.firings += n
        self.sink_values[row.cid].extend(self._take(slot, n))
        self._gate_batch(row, n)
        return []

    def _fire_merge(self, row: CellRow, gate_avail: int) -> list[int]:
        """Drain a MERGE cell run by run: each maximal run of equal
        control values selects one input port for the whole run."""
        touched: list[int] = []
        ctl_slot, true_slot, false_slot = row.merge
        _port, ctl_aid, ctl_const = ctl_slot
        gate_slot = row.gate
        buf_map = self._buf
        ctl_buf: deque = deque()
        while True:
            if ctl_aid is None:
                ctl = bool(ctl_const)
                ctl_avail = _INF
            elif ctl_aid < 0:
                return touched
            else:
                ctl_buf = buf_map[ctl_aid]
                ctl_avail = len(ctl_buf)
                if ctl_avail <= 0:
                    return touched
                ctl = bool(ctl_buf[0])
            sel = true_slot if ctl else false_slot
            cap = min(ctl_avail, self._avail(sel), gate_avail)
            if cap <= 0 or cap >= _INF:
                if cap >= _INF:
                    raise ScheduleError(
                        f"MERGE cell {row.cid} has only constant "
                        f"operands"
                    )
                return touched
            if ctl_aid is None or cap == 1:
                n = cap
            else:
                # extend the equal-control run only as far as this
                # visit can consume anyway: scanning the whole run
                # would cost O(stream) per visit
                n = 1
                for value in islice(ctl_buf, 1, cap):
                    if bool(value) != ctl:
                        break
                    n += 1
            self.firings += n
            if ctl_aid is not None:
                self._take(ctl_slot, n)
            results = self._take(sel, n)
            gates = self._gate_batch(row, n)
            touched.extend(self._emit(row, results, gates))
            if gate_slot is not None:
                gate_avail -= n
                if gate_avail <= 0:
                    return touched

    def _apply_batch(
        self, row: CellRow, cols: list[list[Any]], n: int
    ) -> list[Any]:
        op = row.op
        if op is Op.ID:
            return cols[0]
        fn = row.fn
        if (
            _np is not None
            and n >= _NP_MIN_BATCH
            and (op in _NP_BINOPS or op in _NP_UNOPS)
            and all(
                all(type(v) is float for v in col) for col in cols
            )
        ):
            arrays = [_np.asarray(col, dtype=_np.float64) for col in cols]
            npfn = _NP_BINOPS.get(op) or _NP_UNOPS[op]
            return npfn(*arrays).tolist()
        if len(cols) == 2:
            a, b = cols
            return [fn(x, y) for x, y in zip(a, b)]
        return [fn(x) for x in cols[0]]

    def _merge_step(self, plan: tuple, row: CellRow) -> list[int]:
        """Fire a planned MERGE once, then hand any further firings of
        the same visit to :meth:`_fire_merge`."""
        ctl_q, true_in, false_in, gate_q, when_true, when_false = plan
        if not ctl_q or (gate_q is not None and not gate_q):
            return []
        queue, value = true_in if ctl_q[0] else false_in
        if queue is not None:
            if not queue:
                return []
            value = queue.popleft()
        ctl_q.popleft()
        gate = None if gate_q is None else gate_q.popleft()
        outs, fed = when_true if gate else when_false
        for out in outs:
            out.append(value)
        self.firings += 1
        if ctl_q and (gate_q is None or gate_q):
            queue, _const = true_in if ctl_q[0] else false_in
            if queue is None or queue:
                return fed + self._fire(row)
        return fed

    # -- driver --------------------------------------------------------
    def run(self) -> dict[int, list[Any]]:
        """Evaluate to quiescence; returns sink values keyed by cell
        id.  Raises :class:`ScheduleError` when the graph defeats
        batched evaluation (the caller falls back to plain event
        execution)."""
        rows = self._rows
        fire = self._fire
        plans = self._plans
        merge_plans = self._merge_plans
        budget = self._budget
        try:
            pending = list(self.graph.cells)
            queued = set(pending)
            cid: Optional[int] = None
            while cid is not None or pending:
                if cid is None:
                    cid = pending.pop()
                    queued.discard(cid)
                plan = plans.get(cid)
                if plan is None:
                    merge = merge_plans.get(cid)
                    touched = (
                        fire(rows[cid]) if merge is None
                        else self._merge_step(merge, rows[cid])
                    )
                else:
                    fn, a, b, outs, fed = plan
                    n = len(a) if b is None else min(len(a), len(b))
                    if n == 1:
                        result = (
                            fn(a.popleft()) if b is None
                            else fn(a.popleft(), b.popleft())
                        )
                        for q in outs:
                            q.append(result)
                        self.firings += 1
                        touched = fed
                    else:
                        touched = fire(rows[cid]) if n else ()
                if self.firings > budget:
                    raise ScheduleError(
                        f"evaluation exceeded the firing budget "
                        f"({budget}); the graph likely recirculates "
                        f"tokens indefinitely"
                    )
                # worklist order is LIFO, so the last newly fed cell
                # would be popped next anyway: fire it in place, and a
                # one-token feedback loop drains without a worklist
                # round trip per cell
                cid = None
                for dst in touched:
                    if dst not in queued and dst != cid:
                        if cid is not None:
                            queued.add(cid)
                            pending.append(cid)
                        cid = dst
        except ZeroDivisionError as exc:
            raise ScheduleError(
                "division by zero during stream evaluation"
            ) from exc
        return self.sink_values


@dataclass
class SteadySchedule:
    """What the compiled backend's period detector observed in one run
    (attached to the machine as ``engine.schedule``)."""

    #: cell id whose firings anchored period detection
    anchor: Optional[int] = None
    #: cycles of concrete prologue execution before the first jump
    prologue_cycles: Optional[int] = None
    #: detected period length, in cycles (the steady-state II times
    #: the elements advanced per period)
    period_cycles: Optional[int] = None
    #: stream elements consumed by the anchor per period
    period_elements: Optional[int] = None
    #: (at_cycle, periods_skipped, cycles_skipped) per applied jump
    jumps: list[tuple[int, int, int]] = field(default_factory=list)
    #: why the run stayed concrete (empty when jumps were applied or
    #: simply never profitable)
    fallback_reason: str = ""

    @property
    def cycles_skipped(self) -> int:
        return sum(j[2] for j in self.jumps)
