"""Data-driven in situ sampling (the paper's data-reduction substrate).

The paper samples every dataset with the multi-criteria importance sampler
of Biswas et al. [5]: grid points are kept with probability proportional to
a blend of *value rarity* (histogram-based — rare scalar values mark
features) and *gradient magnitude* (high-gradient regions carry structure),
under a hard storage budget.  Baseline samplers (uniform random, spatially
stratified, single-criterion) are provided for comparison, and all samplers
share the :class:`~repro.sampling.base.Sampler` interface so the
reconstruction pipeline is sampler-agnostic (Sec III-D: "our approach is
sampling method agnostic").
"""

from repro.sampling.base import NonFiniteFieldError, SampledField, Sampler
from repro.sampling.random import RandomSampler
from repro.sampling.stratified import StratifiedSampler
from repro.sampling.importance import (
    GradientImportanceSampler,
    HistogramImportanceSampler,
    MultiCriteriaSampler,
    acceptance_probabilities,
)
from repro.sampling.bluenoise import PoissonDiskSampler

__all__ = [
    "NonFiniteFieldError",
    "Sampler",
    "SampledField",
    "RandomSampler",
    "StratifiedSampler",
    "HistogramImportanceSampler",
    "GradientImportanceSampler",
    "MultiCriteriaSampler",
    "PoissonDiskSampler",
    "acceptance_probabilities",
]
