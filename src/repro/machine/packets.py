"""Packet types of the packet-communication architecture (Section 2).

Two packet kinds flow through the routing networks, plus the
acknowledge packets that implement the single-token-per-arc discipline:

* **operation packets** -- an enabled instruction plus its operand
  values, sent from a processing element to a function unit or array
  memory (local moves/gates execute inside the PE);
* **result packets** -- a value plus the destination instruction's
  address;
* **acknowledge packets** -- a consumer telling a producer that its
  previous result has been absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from ..graph.opcodes import UNIT_OF


class UnitClass(Enum):
    """Where an operation packet executes."""

    LOCAL = "pe"
    FUNCTION_UNIT = "fu"
    ARRAY_MEMORY = "am"


@dataclass(frozen=True)
class OperationPacket:
    cell: int
    op_name: str
    operands: tuple
    unit: UnitClass
    issued_at: int


@dataclass(frozen=True)
class ResultPacket:
    value: Any
    dst_cell: int
    dst_port: int
    arc: int
    #: per-arc sequence number, used by the reliability layer to
    #: suppress duplicates and match retransmissions
    seq: int = 0


@dataclass(frozen=True)
class AckPacket:
    dst_cell: int   # the producer being released
    arc: int
    #: sequence number of the consumed token this ack releases
    seq: int = 0


@dataclass
class PacketCounters:
    """Counts by packet kind, for the Section 2 traffic claim."""

    op_local: int = 0
    op_fu: int = 0
    op_am: int = 0
    results: int = 0
    acks: int = 0

    @property
    def op_total(self) -> int:
        return self.op_local + self.op_fu + self.op_am

    @property
    def am_fraction(self) -> float:
        """Fraction of operation packets sent to array memories."""
        return self.op_am / self.op_total if self.op_total else 0.0

    def count_op(self, unit: UnitClass) -> None:
        if unit is UnitClass.LOCAL:
            self.op_local += 1
        elif unit is UnitClass.FUNCTION_UNIT:
            self.op_fu += 1
        else:
            self.op_am += 1

    def summary(self) -> str:
        return (
            f"op packets: {self.op_total} "
            f"(local {self.op_local}, FU {self.op_fu}, AM {self.op_am}; "
            f"AM fraction {self.am_fraction:.1%}); "
            f"results {self.results}, acks {self.acks}"
        )


#: unit class per opcode name, resolved once at import
_UNIT_BY_NAME: dict[str, UnitClass] = {
    op.value: UnitClass(unit) for op, unit in UNIT_OF.items()
}


def classify_unit(op_name: str, has_fu: bool = True) -> UnitClass:
    """Destination unit class of an opcode, by name."""
    try:
        unit = _UNIT_BY_NAME[op_name]
    except KeyError:
        raise ValueError(f"{op_name!r} is not a valid Op") from None
    if unit is UnitClass.FUNCTION_UNIT and not has_fu:
        return UnitClass.LOCAL
    return unit
