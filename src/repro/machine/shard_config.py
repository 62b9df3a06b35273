"""Validated configuration for the sharded backend.

:class:`ShardConfig` is the one way to configure a sharded run, on
``repro.run(..., shard_config=)``, ``repro.resume``,
:class:`~repro.machine.sharded.ShardedRunner` and the CLI's
``--shard-config`` JSON (:meth:`ShardConfig.from_json`).  It nests two
policies:

* :class:`RecoveryPolicy` -- the self-healing knobs plus an
  ``enabled`` tri-state ("auto / force on / force off");
* :class:`TransportConfig` -- how cut packets travel between the
  coordinator and the workers (shared-memory rings vs. pipes).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Optional, Union

from ..errors import SimulationError

__all__ = [
    "RecoveryPolicy",
    "ShardConfig",
    "TransportConfig",
]


@dataclass
class RecoveryPolicy:
    """Knobs of the in-process self-healing loop.

    Mirrors the supervisor's escalation policy one level down: per
    shard restart budgets, exponential backoff with seeded jitter, and
    two-strike same-window step-back -- but rollback happens inside
    the running coordinator, from the latest complete coordinated set,
    without tearing the process tree down.

    ``enabled=None`` keeps the runner's auto rule (heal whenever there
    are worker processes *and* coordinated checkpoints); ``True`` and
    ``False`` force it either way.
    """

    #: seconds a worker may take to answer one command before it
    #: counts as hung
    deadline: float = 60.0
    #: poll granularity while waiting (also bounds detection jitter)
    heartbeat: float = 0.05
    #: respawns allowed per shard before escalating
    max_restarts: int = 3
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    #: failures inside the same replay window before the resume set is
    #: barred and recovery steps back one set (supervisor parity)
    strikes: int = 2
    #: on budget exhaustion, fold the shard into the coordinator
    #: process (K-1 worker processes) instead of raising
    degrade: bool = False
    #: injectable for tests; the backoff delays go through this
    sleep: Callable[[float], None] = time.sleep
    #: None = auto, True/False = force healing on/off
    enabled: Optional[bool] = None

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before restart ``attempt`` (1-based), jittered."""
        delay = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        if self.jitter:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)

    def validate(self) -> None:
        if self.deadline <= 0:
            raise SimulationError(
                f"recovery.deadline must be > 0, got {self.deadline}"
            )
        if self.heartbeat <= 0:
            raise SimulationError(
                f"recovery.heartbeat must be > 0, got {self.heartbeat}"
            )
        if self.max_restarts < 0:
            raise SimulationError(
                "recovery.max_restarts must be >= 0, "
                f"got {self.max_restarts}"
            )
        if self.strikes < 1:
            raise SimulationError(
                f"recovery.strikes must be >= 1, got {self.strikes}"
            )


_TRANSPORT_KINDS = ("auto", "shm", "pipe")


@dataclass
class TransportConfig:
    """How cut packets travel between coordinator and workers.

    ``kind="shm"`` moves steady-state cut traffic through
    ``multiprocessing.shared_memory`` rings with a fixed-layout codec
    (no pickle on the hot path); packets the codec cannot represent
    spill to the pipe transparently.  ``"pipe"`` is the classic
    all-pickle path; ``"auto"`` picks rings when the platform supports
    them (fork start method + shared memory available) and falls back
    to pipes otherwise.
    """

    kind: str = "auto"
    #: slots per direction per worker; each slot is one fixed-layout
    #: packet.  Overflow spills to the pipe, so this is a throughput
    #: knob, not a correctness bound.
    ring_slots: int = 512

    def validate(self) -> None:
        if self.kind not in _TRANSPORT_KINDS:
            raise SimulationError(
                f"transport.kind must be one of {_TRANSPORT_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.ring_slots < 1:
            raise SimulationError(
                f"transport.ring_slots must be >= 1, got {self.ring_slots}"
            )


_WINDOW_MODES = ("adaptive", "fixed")
_PARTITION_SCHEMES = ("auto", "levels", "round_robin")


@dataclass
class ShardConfig:
    """Everything the sharded backend needs, in one validated object.

    Construct directly, from a dict, or from the CLI's
    ``--shard-config`` JSON via :meth:`from_json`.
    """

    #: number of shards (K)
    shards: int = 2
    #: partition scheme name, as accepted by
    #: :func:`repro.analysis.partition.partition_graph`
    partition: str = "auto"
    #: real worker processes?  None = auto (processes iff K > 1)
    processes: Optional[bool] = None
    #: lockstep horizon mode: ``"adaptive"`` batches many cycles per
    #: barrier when the cut allows it; ``"fixed"`` is the classic
    #: ``L = max(1, rn_delay)`` cadence
    window: str = "adaptive"
    #: upper bound on cycles batched into one adaptive window
    max_window: int = 4096
    #: keep worker processes warm in a module-level pool across runs
    pool: bool = True
    #: seconds an idle pooled worker may live before being reaped
    pool_idle_timeout: float = 120.0
    #: cut-packet transport
    transport: TransportConfig = field(default_factory=TransportConfig)
    #: self-healing policy; None = runner's auto rule
    recovery: Optional[RecoveryPolicy] = None
    #: hard-kill shard ``crash_shard`` when the horizon reaches this
    #: cycle (crash demonstration, disables healing for the run)
    crash_at: Optional[int] = None
    crash_shard: int = 0

    def validate(self) -> "ShardConfig":
        if self.shards < 1:
            raise SimulationError(
                f"shard count must be >= 1, got {self.shards}"
            )
        if self.partition not in _PARTITION_SCHEMES:
            raise SimulationError(
                f"partition must be one of {_PARTITION_SCHEMES}, "
                f"got {self.partition!r}"
            )
        if self.window not in _WINDOW_MODES:
            raise SimulationError(
                f"window must be one of {_WINDOW_MODES}, "
                f"got {self.window!r}"
            )
        if self.max_window < 1:
            raise SimulationError(
                f"max_window must be >= 1, got {self.max_window}"
            )
        if self.pool_idle_timeout <= 0:
            raise SimulationError(
                "pool_idle_timeout must be > 0, "
                f"got {self.pool_idle_timeout}"
            )
        if self.crash_shard < 0 or self.crash_shard >= self.shards:
            raise SimulationError(
                f"crash_shard {self.crash_shard} out of range for "
                f"{self.shards} shards"
            )
        self.transport.validate()
        if self.recovery is not None:
            self.recovery.validate()
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict (drops the non-serializable sleep hook)."""
        out = asdict(self)
        if out.get("recovery") is not None:
            out["recovery"].pop("sleep", None)
        return out

    @classmethod
    def from_json(cls, doc: Union[str, dict]) -> "ShardConfig":
        """Build from a JSON document / dict; unknown keys are errors
        so a typoed knob never silently does nothing."""
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise SimulationError(
                    f"invalid --shard-config JSON: {exc}"
                ) from None
        if not isinstance(doc, dict):
            raise SimulationError(
                "shard config must be a JSON object, "
                f"got {type(doc).__name__}"
            )
        doc = dict(doc)
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise SimulationError(
                f"unknown shard config keys: {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        if "transport" in doc and not isinstance(
            doc["transport"], TransportConfig
        ):
            t = doc["transport"]
            if not isinstance(t, dict):
                raise SimulationError(
                    "transport must be an object with "
                    "kind/ring_slots keys"
                )
            tkn = {f.name for f in fields(TransportConfig)}
            bad = set(t) - tkn
            if bad:
                raise SimulationError(
                    f"unknown transport keys: {sorted(bad)}"
                )
            doc["transport"] = TransportConfig(**t)
        if "recovery" in doc:
            doc["recovery"] = _coerce_recovery(doc["recovery"])
        return cls(**doc).validate()

    @classmethod
    def coerce(
        cls, value: Union[None, "ShardConfig", dict, str]
    ) -> Optional["ShardConfig"]:
        """Accept a ShardConfig, a dict, or a JSON string."""
        if value is None:
            return None
        if isinstance(value, cls):
            return value.validate()
        if isinstance(value, (dict, str)):
            return cls.from_json(value)
        raise SimulationError(
            "shard_config must be a ShardConfig, dict or JSON string, "
            f"got {type(value).__name__}"
        )


def _coerce_recovery(
    value: Union[None, bool, dict, RecoveryPolicy],
) -> Optional[RecoveryPolicy]:
    """Normalize the JSON spellings of a recovery policy."""
    if value is None:
        return None
    if isinstance(value, RecoveryPolicy):
        return value
    if isinstance(value, bool):
        return RecoveryPolicy(enabled=value)
    if isinstance(value, dict):
        known = {f.name for f in fields(RecoveryPolicy)} - {"sleep"}
        bad = set(value) - known
        if bad:
            raise SimulationError(
                f"unknown recovery keys: {sorted(bad)}"
            )
        return RecoveryPolicy(**value)
    raise SimulationError(
        "recovery must be a RecoveryPolicy, bool, dict or None, "
        f"got {type(value).__name__}"
    )
