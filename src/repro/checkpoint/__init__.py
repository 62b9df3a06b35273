"""Crash-consistent checkpointing, resume, replay and supervision.

The four layers (see DESIGN.md section 8):

* :mod:`repro.checkpoint.snapshot` -- the versioned, checksummed,
  atomically-written on-disk snapshot format (v2: self-describing
  JSON metadata over a restricted-unpickler payload; v3: incremental
  deltas chained on a v2 base, verified link by link before any
  payload is touched; format v1 is refused);
* :mod:`repro.checkpoint.manager` -- periodic snapshot scheduling,
  retention, out-of-band live snapshots, failure diagnosis bundles and
  the record manifest;
* :mod:`repro.checkpoint.replay` -- event-trace digests, bit-exact
  re-execution of recorded runs, and binary search over the digest
  ledger for the first divergent checkpoint window
  (:func:`bisect_divergence`);
* :mod:`repro.checkpoint.supervisor` -- an always-on crash-recovery
  loop (resume on crash with exponential backoff + jitter, restart
  budget, poisoned-snapshot quarantine and step-back).

Quick use::

    import repro
    from repro.checkpoint import CheckpointConfig
    from repro.machine import Machine

    cfg = CheckpointConfig("ckpts/", interval=10_000, record=True)
    repro.run(graph, inputs, checkpoint=cfg)         # dies mid-run...
    m = Machine.resume("ckpts/")                     # ...pick it back up
    m.run()                                          # bit-identical finish
"""

from ..errors import (
    ChainBrokenError,
    ManifestError,
    SnapshotError,
    SupervisorError,
)
from .coordinator import (
    CoordinatedCheckpointManager,
    is_sharded_dir,
    latest_coordinated,
    quarantine_coordinated,
    read_shard_manifest,
    shard_snapshot_name,
)
from .fsck import fsck_directory
from .manager import CheckpointConfig, CheckpointManager
from .replay import (
    DivergenceReport,
    EventTrace,
    ReplayReport,
    bisect_divergence,
    outputs_digest,
    read_manifest,
    replay_bundle,
)
from .snapshot import (
    DELTA_VERSION,
    FORMAT_VERSION,
    chain_descendants,
    chain_status,
    latest_snapshot,
    load_machine,
    read_metadata,
    read_snapshot,
    rebase_snapshot,
    save_snapshot,
    snapshot_cycle,
    verify_chain,
    write_chain_snapshot,
)
from .supervisor import (
    EXIT_SNAPSHOT_UNLOADABLE,
    AttemptRecord,
    BackoffPolicy,
    Supervisor,
    SupervisorConfig,
    SupervisorReport,
)

__all__ = [
    "AttemptRecord",
    "BackoffPolicy",
    "ChainBrokenError",
    "CheckpointConfig",
    "CheckpointManager",
    "CoordinatedCheckpointManager",
    "DELTA_VERSION",
    "DivergenceReport",
    "EXIT_SNAPSHOT_UNLOADABLE",
    "EventTrace",
    "FORMAT_VERSION",
    "ManifestError",
    "ReplayReport",
    "SnapshotError",
    "Supervisor",
    "SupervisorConfig",
    "SupervisorError",
    "SupervisorReport",
    "bisect_divergence",
    "chain_descendants",
    "chain_status",
    "fsck_directory",
    "is_sharded_dir",
    "latest_coordinated",
    "latest_snapshot",
    "load_machine",
    "outputs_digest",
    "quarantine_coordinated",
    "read_manifest",
    "read_metadata",
    "read_shard_manifest",
    "read_snapshot",
    "rebase_snapshot",
    "replay_bundle",
    "save_snapshot",
    "shard_snapshot_name",
    "snapshot_cycle",
    "verify_chain",
    "write_chain_snapshot",
]
