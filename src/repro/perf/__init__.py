"""repro.perf — the performance subsystem: arenas, dtype policy, transport, campaigns.

Independent pieces (see ``docs/PERFORMANCE.md`` for design and
measurements):

* :class:`Workspace` — a preallocated buffer arena that makes the
  ``Dense``/``ReLU`` forward-backward loop, the optimizer step and chunked
  FCNN inference allocation-free in steady state, bit-identical to the
  allocating path.  Attach to a network with
  :meth:`repro.nn.Sequential.attach_workspace` or pass ``workspace=`` to
  :class:`repro.nn.Trainer`.
* :class:`DtypePolicy` — explicit float32-compute/float64-accumulate
  selection (the reconstructor computes in float32 by default;
  ``DtypePolicy()`` is the float64 identity).  The only sanctioned
  float32 in the numerics; everything downstream of the network still
  accumulates in float64.
* :class:`SharedArrayBundle` / :func:`attached_arrays` — POSIX
  shared-memory transport that ships sampled points, queries and results
  to ``parallel_reconstruct`` workers as segment names instead of pickled
  arrays.
* :mod:`repro.perf.weights` — flat weight snapshots
  (:func:`snapshot_weights`, :func:`restore_weights`).
* :mod:`repro.perf.campaign` — the streaming campaign scheduler:
  :class:`CampaignScheduler` pipelines sample -> fine-tune -> reconstruct
  across timesteps, :class:`WarmReconstructionPool` keeps reconstruction
  workers warm behind one shared-memory slot ring, and
  :class:`GeometryCache` shares void geometry across timesteps.
  (Imported lazily: :mod:`repro.core` imports this package, and the
  campaign module imports :mod:`repro.core` back.)

Speed is measured end to end by ``benchmarks/e2e``; ``BENCH_campaign.json``
(written by the campaign bench) records the pipelining measurements, and
the CI ``campaign`` job gates its spans via ``repro obs report --diff
--fail-on-regression``.
"""

from repro.perf.policy import DtypePolicy
from repro.perf.shm import SharedArrayBundle, SharedArraySpec, attached_arrays
from repro.perf.weights import WeightSnapshot, restore_weights, snapshot_weights
from repro.perf.workspace import Workspace

__all__ = [
    "Workspace",
    "DtypePolicy",
    "SharedArrayBundle",
    "SharedArraySpec",
    "attached_arrays",
    "WeightSnapshot",
    "snapshot_weights",
    "restore_weights",
    "CampaignGeometry",
    "GeometryCache",
    "CampaignScheduler",
    "CampaignStats",
    "WarmReconstructionPool",
    "LocalReconstructionSink",
    "make_reconstruction_sink",
]

_CAMPAIGN_EXPORTS = frozenset(
    {
        "CampaignGeometry",
        "GeometryCache",
        "CampaignScheduler",
        "CampaignStats",
        "WarmReconstructionPool",
        "LocalReconstructionSink",
        "make_reconstruction_sink",
        "geometry_key",
    }
)


def __getattr__(name: str):
    # Lazy re-export breaking the repro.core <-> repro.perf import cycle.
    if name in _CAMPAIGN_EXPORTS:
        from repro.perf import campaign

        return getattr(campaign, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
