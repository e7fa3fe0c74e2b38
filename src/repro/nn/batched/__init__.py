"""Batched multi-model training: K weight sets per layer, fused matmuls.

K models sharing one architecture stack their per-layer weights into
``(K, n, m)`` tensors and advance together through batched ``np.matmul``
calls — forward, backward and the in-place Adam step all fuse across
members, reusing :class:`repro.perf.Workspace` arenas so steady-state
epochs stay allocation-free.  Fusion saves no time over K=1 and its
memory grows with K, and its Case-2 frozen-prefix cache now lives in
:meth:`repro.core.FCNNReconstructor.fine_tune`, so no module outside this
package calls it.  It stays only because the end-to-end benchmark's
tracer (``benchmarks/e2e/layers.py``) imports its classes by name, and a
missing name breaks every traced run; it goes once the tracer records a
missing target instead (ROADMAP item 1).

Entry points:

* :class:`ModelStack` — K copies of a :class:`repro.nn.Sequential`
  (``ModelStack.from_network(net, k)``), with Case-2 freezing and
  per-member flat-weight extraction (:meth:`ModelStack.member_weights`).
* :class:`BatchedTrainer` — the fused mini-batch loop, with the Case-2
  frozen-prefix activation cache.
* :class:`BatchedAdam` — in-place Adam over parameter stacks.

Training a K-stack is bit-identical to K serial :class:`repro.nn.Trainer`
runs sharing a shuffle seed; see ``docs/TRAINING.md`` for the execution
model and the exact guarantees.
"""

from repro.nn.batched.optimizers import BatchedAdam
from repro.nn.batched.stack import (
    ModelStack,
    StackedDense,
    StackedIdentity,
    StackedParameter,
    StackedReLU,
)
from repro.nn.batched.trainer import BatchedTrainer, batched_loss_gradient

__all__ = [
    "BatchedAdam",
    "BatchedTrainer",
    "ModelStack",
    "StackedDense",
    "StackedIdentity",
    "StackedParameter",
    "StackedReLU",
    "batched_loss_gradient",
]
