"""Instruction opcodes for the static dataflow machine.

The opcode set follows the machine-code diagrams of the paper (Figures 2,
4-8): arithmetic and relational operators executed by function units,
identity/buffer cells, the MERGE cell, boolean-gated destinations, and the
pseudo-cells (SOURCE/SINK/CONTROL) that model the boundary of a code block
where array values arrive and leave as streams of result packets.
"""

from __future__ import annotations

import enum
import math
import operator
from typing import Any, Callable


class Op(enum.Enum):
    """Operation code held in an instruction cell."""

    # -- arithmetic (executed by function units in the machine model) ------
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    NEG = "neg"
    ABS = "abs"
    MIN = "min"
    MAX = "max"
    # -- relational / boolean ----------------------------------------------
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    AND = "and"
    OR = "or"
    NOT = "not"
    # -- structural ----------------------------------------------------------
    ID = "id"          # identity; with a gate operand it is the paper's
    #                    boolean-controlled cell with T/F-tagged destinations
    FIFO = "fifo"      # depth-n buffer == chain of n identity cells
    MERGE = "merge"    # paper's merge: control M picks input I1 (T) or I2 (F)
    # -- boundary pseudo-cells ------------------------------------------------
    SOURCE = "source"  # emits successive elements of a host-provided stream
    SINK = "sink"      # absorbs and records a stream
    CONST = "const"    # emits the same literal every firing (free-running)
    # -- array memory (machine-level model only; behave like SOURCE/SINK in
    #    the unit-delay simulator) --------------------------------------------
    AM_READ = "am_read"    # reads successive elements of an array in AM
    AM_WRITE = "am_write"  # appends successive elements of an array in AM


#: Opcodes that compute a scalar from 2 operand ports.
BINARY_OPS: dict[Op, Callable[[Any, Any], Any]] = {
    Op.ADD: operator.add,
    Op.SUB: operator.sub,
    Op.MUL: operator.mul,
    Op.DIV: lambda a, b: a / b if isinstance(a, float) or isinstance(b, float) else _int_div(a, b),
    Op.MIN: min,
    Op.MAX: max,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
    Op.EQ: operator.eq,
    Op.NE: operator.ne,
    Op.AND: lambda a, b: bool(a) and bool(b),
    Op.OR: lambda a, b: bool(a) or bool(b),
}

#: Opcodes that compute a scalar from 1 operand port.
UNARY_OPS: dict[Op, Callable[[Any], Any]] = {
    Op.NEG: operator.neg,
    Op.ABS: abs,
    Op.NOT: lambda a: not bool(a),
    Op.ID: lambda a: a,
}

#: Opcodes whose operation packets are dispatched to a function unit in the
#: machine-level model (floating point / relational work).
FUNCTION_UNIT_OPS = frozenset(
    {
        Op.ADD,
        Op.SUB,
        Op.MUL,
        Op.DIV,
        Op.NEG,
        Op.ABS,
        Op.MIN,
        Op.MAX,
        Op.LT,
        Op.LE,
        Op.GT,
        Op.GE,
        Op.EQ,
        Op.NE,
        Op.AND,
        Op.OR,
        Op.NOT,
    }
)

#: Opcodes executed inside the processing element itself (moves/gates).
LOCAL_OPS = frozenset({Op.ID, Op.FIFO, Op.MERGE, Op.CONST, Op.SOURCE, Op.SINK})

#: Opcodes whose operation packets go to an array memory unit.
ARRAY_MEMORY_OPS = frozenset({Op.AM_READ, Op.AM_WRITE})


def _int_div(a: int, b: int) -> int:
    """Truncating integer division (Val semantics for integer '/')."""
    q = a / b
    return math.floor(q) if q >= 0 else -math.floor(-q)


#: Number of *data* operand ports per opcode (gate control excluded).
ARITY: dict[Op, int] = {
    **{op: 2 for op in BINARY_OPS},
    **{op: 1 for op in UNARY_OPS},
    Op.MERGE: 3,
    Op.SOURCE: 0,
    Op.CONST: 0,
    Op.AM_READ: 0,
    Op.SINK: 1,
    Op.FIFO: 1,
    Op.AM_WRITE: 1,
}

#: Where each opcode's operation packet executes: ``"am"`` (an array
#: memory unit), ``"fu"`` (a function unit) or ``"pe"`` (inside the
#: processing element) -- the values of
#: :class:`repro.machine.packets.UnitClass`.
UNIT_OF: dict[Op, str] = {
    op: (
        "am" if op in ARRAY_MEMORY_OPS
        else "fu" if op in FUNCTION_UNIT_OPS
        else "pe"
    )
    for op in Op
}


def arity(op: Op) -> int:
    """Number of *data* operand ports for ``op`` (gate control excluded).

    MERGE reports 3 because its control operand is port 0 by convention;
    SOURCE/CONST report 0; SINK and unary operators report 1.
    """
    try:
        return ARITY[op]
    except KeyError:
        raise ValueError(f"unknown opcode {op!r}") from None


def apply_scalar(op: Op, args: list[Any]) -> Any:
    """Evaluate a scalar opcode on concrete operand values."""
    if op in BINARY_OPS:
        return BINARY_OPS[op](args[0], args[1])
    if op in UNARY_OPS:
        return UNARY_OPS[op](args[0])
    raise ValueError(f"{op!r} is not a scalar operator")


#: Ports of the MERGE cell, by convention.
MERGE_CONTROL_PORT = 0
MERGE_TRUE_PORT = 1   # paper's I1: selected when control is true
MERGE_FALSE_PORT = 2  # paper's I2: selected when control is false
