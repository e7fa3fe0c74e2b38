"""A from-scratch, numpy-only neural-network engine.

The paper trains its FCNN in a mainstream framework on A100 GPUs; none is
available offline, so this package implements the subset that network
needs: He-initialized Dense+ReLU blocks under an Xavier-initialized linear
head (:func:`mlp`), mean-squared-error loss (plain, or column-weighted over
the scalar and gradient outputs), backprop, the Adam optimizer (lr=0.001,
the paper's setting), mini-batch training with loss history, *layer
freezing* (the Case-2 "last two layers trainable" fine-tuning protocol of
Fig 5) and model (de)serialization including partial, last-k-layer
checkpoints (the Case-2 storage optimization).  Learning-rate schedules
(:func:`apply_schedule` with constant/step/exponential/cosine/warmup) back
the ``ext-schedules`` experiment.  :meth:`Trainer.fit` exposes the
resilience hooks (``checkpoint=``, ``resume_from=``, ``health=`` —
``docs/RESILIENCE.md``) and, under an active ``repro.obs`` recorder,
emits ``train.*`` spans and metrics (``docs/OBSERVABILITY.md``).

Everything is vectorized over the batch dimension; see
``tests/test_nn_gradcheck.py`` for finite-difference verification of every
layer's backward pass.
"""

from repro.nn.parameter import Parameter
from repro.nn.layers import Dense, Layer, ReLU
from repro.nn.network import Sequential, mlp
from repro.nn.losses import Loss, MSELoss
from repro.nn.losses_weighted import WeightedMSELoss
from repro.nn.optimizers import Adam
from repro.nn.initializers import he_normal, xavier_normal
from repro.nn.training import Trainer, TrainingHistory
from repro.nn.schedules import (
    ConstantSchedule,
    CosineAnnealingSchedule,
    ExponentialDecaySchedule,
    StepDecaySchedule,
    WarmupSchedule,
    apply_schedule,
)
from repro.nn.serialization import (
    load_model,
    load_partial,
    save_model,
    save_partial,
)

__all__ = [
    "Parameter",
    "Layer",
    "Dense",
    "ReLU",
    "Sequential",
    "mlp",
    "Loss",
    "MSELoss",
    "WeightedMSELoss",
    "Adam",
    "he_normal",
    "xavier_normal",
    "Trainer",
    "TrainingHistory",
    "save_model",
    "load_model",
    "save_partial",
    "load_partial",
    "ConstantSchedule",
    "StepDecaySchedule",
    "ExponentialDecaySchedule",
    "CosineAnnealingSchedule",
    "WarmupSchedule",
    "apply_schedule",
]
