"""Fault tolerance for training, checkpointing, parallel execution and reconstruction.

The paper's headline results rest on long training runs and batch
reconstruction sweeps; at production scale those workloads must survive
killed processes, truncated checkpoints and numerical blow-ups.  This
package provides the recovery building blocks:

* :mod:`repro.resilience.checkpoint` — atomic file commits, checksummed
  ``.npz`` checkpoints and full training-state capture/restore (model,
  optimizer, RNG, loss history) for bit-exact resume;
* :mod:`repro.resilience.health`     — NaN/Inf detection on loss,
  gradients and parameters with ``raise`` / ``skip_batch`` / ``rollback``
  policies;
* :mod:`repro.resilience.report`     — structured degradation metadata for
  reconstructions that fell back to a secondary method;
* :mod:`repro.resilience.faults`     — deterministic fault injectors
  (worker crashes, checkpoint corruption, forced-NaN gradients, slow
  tasks, unavailable shared memory) used by the test suite to prove every
  recovery path recovers;
* :mod:`repro.resilience.journal`    — durable, checksummed write-ahead
  journal + resume plans for crash-safe campaigns (``repro campaign
  --resume``);
* :mod:`repro.resilience.supervise`  — worker supervision (heartbeats,
  stage deadlines, poison-timestep quarantine) and graceful
  SIGTERM/SIGINT interruption;
* :mod:`repro.resilience.chaos`      — the chaos harness: deterministic
  fault schedules driving whole campaigns (imported explicitly as
  ``repro.resilience.chaos``; it reaches into the campaign stack, so the
  package root does not pull it in).

Nothing here imports from ``repro`` beyond :mod:`repro.obs` (which imports
nothing else at import time), so any layer may depend on this package.
"""

from repro.resilience.checkpoint import (
    CheckpointConfig,
    CheckpointCorruptionError,
    TrainingCheckpoint,
    atomic_write,
    atomic_write_npz,
    load_training_checkpoint,
    normalize_npz_path,
    read_verified_npz,
    save_training_checkpoint,
)
from repro.resilience.health import HealthEvent, HealthGuard, NumericalHealthError
from repro.resilience.journal import (
    CampaignJournal,
    JournalCorruptionError,
    JournalEntry,
    ResumePlan,
)
from repro.resilience.report import DegradedRegion, ReconstructionReport
from repro.resilience.supervise import (
    CampaignInterrupted,
    GracefulInterrupt,
    QuarantineRecord,
    SupervisionPolicy,
    WorkerSupervisor,
)

__all__ = [
    "CheckpointConfig",
    "CheckpointCorruptionError",
    "TrainingCheckpoint",
    "atomic_write",
    "atomic_write_npz",
    "read_verified_npz",
    "normalize_npz_path",
    "save_training_checkpoint",
    "load_training_checkpoint",
    "HealthGuard",
    "HealthEvent",
    "NumericalHealthError",
    "DegradedRegion",
    "ReconstructionReport",
    "CampaignJournal",
    "JournalCorruptionError",
    "JournalEntry",
    "ResumePlan",
    "CampaignInterrupted",
    "GracefulInterrupt",
    "QuarantineRecord",
    "SupervisionPolicy",
    "WorkerSupervisor",
]
