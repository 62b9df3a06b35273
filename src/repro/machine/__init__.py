"""Event-driven model of the static dataflow machine of Figure 1.

Processing elements with instruction-cell memories and bounded dispatch
bandwidth, pipelined function units, array memory units and
packet-switched routing networks, executing the same machine-level
instruction graphs as :mod:`repro.sim` with configurable latencies.
"""

from .assign import (
    POLICIES,
    assign_by_stage,
    assign_round_robin,
    assign_single,
    make_assignment,
)
from .config import DEFAULT_FU_LATENCY, MachineConfig
from .diagnose import (
    BlockedProducer,
    DeadlockDiagnosis,
    StarvedCell,
    diagnose,
)
from .machine import Machine
from .shard_config import (
    RecoveryPolicy,
    ShardConfig,
    TransportConfig,
)
from .sharded import (
    ShardCrashError,
    ShardedRunner,
    ShardHangError,
    ShardMachine,
    ShardRecoveryExhausted,
    merge_shard_stats,
    shutdown_worker_pool,
)
from .packets import (
    AckPacket,
    OperationPacket,
    PacketCounters,
    ResultPacket,
    UnitClass,
    classify_unit,
)
from .stats import (
    CheckpointStats,
    MachineStats,
    RecoveryStats,
    ReliabilityStats,
)

__all__ = [
    "AckPacket",
    "BlockedProducer",
    "CheckpointStats",
    "DEFAULT_FU_LATENCY",
    "DeadlockDiagnosis",
    "Machine",
    "MachineConfig",
    "MachineStats",
    "OperationPacket",
    "POLICIES",
    "PacketCounters",
    "RecoveryPolicy",
    "RecoveryStats",
    "ReliabilityStats",
    "ResultPacket",
    "ShardConfig",
    "TransportConfig",
    "ShardCrashError",
    "ShardHangError",
    "ShardRecoveryExhausted",
    "ShardMachine",
    "ShardedRunner",
    "StarvedCell",
    "UnitClass",
    "assign_by_stage",
    "assign_round_robin",
    "assign_single",
    "classify_unit",
    "diagnose",
    "make_assignment",
    "merge_shard_stats",
    "shutdown_worker_pool",
]
