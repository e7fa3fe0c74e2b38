"""Unit tests for the learning-rate schedules."""

import pytest

from repro.nn import (
    Adam,
    ConstantSchedule,
    CosineAnnealingSchedule,
    ExponentialDecaySchedule,
    StepDecaySchedule,
    Trainer,
    WarmupSchedule,
    apply_schedule,
    mlp,
)


class TestSchedules:
    def test_constant(self):
        s = ConstantSchedule(0.01)
        assert s(0) == s(500) == 0.01

    def test_step_decay(self):
        s = StepDecaySchedule(lr=1.0, step_size=10, factor=0.5)
        assert s(0) == 1.0
        assert s(10) == 0.5
        assert s(25) == 0.25

    def test_exponential(self):
        s = ExponentialDecaySchedule(lr=1.0, decay=0.9)
        assert s(2) == pytest.approx(0.81)

    def test_cosine_endpoints(self):
        s = CosineAnnealingSchedule(lr=1.0, total_epochs=100, lr_min=0.1)
        assert s(0) == pytest.approx(1.0)
        assert s(100) == pytest.approx(0.1)
        assert s(200) == pytest.approx(0.1)  # clamped past the horizon
        assert 0.1 < s(50) < 1.0

    def test_warmup(self):
        s = WarmupSchedule(ConstantSchedule(1.0), warmup_epochs=4)
        assert s(0) == pytest.approx(0.25)
        assert s(3) == pytest.approx(1.0)
        assert s(10) == 1.0

    def test_monotone_decay(self):
        for s in (StepDecaySchedule(), ExponentialDecaySchedule(), CosineAnnealingSchedule()):
            rates = [s(e) for e in range(0, 400, 7)]
            assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0.0)
        with pytest.raises(ValueError):
            StepDecaySchedule(factor=0.0)
        with pytest.raises(ValueError):
            ExponentialDecaySchedule(decay=1.5)
        with pytest.raises(ValueError):
            CosineAnnealingSchedule(lr=1e-3, lr_min=1.0)
        with pytest.raises(ValueError):
            WarmupSchedule(ConstantSchedule(), warmup_epochs=0)

    def test_apply_schedule_updates_optimizer(self, rng):
        model = mlp(2, [4], 1, seed=0)
        opt = Adam(model.parameters(), lr=1.0)
        trainer = Trainer(model, optimizer=opt, seed=0)
        schedule = ExponentialDecaySchedule(lr=1.0, decay=0.5)
        x, y = rng.normal(size=(16, 2)), rng.normal(size=(16, 1))
        trainer.fit(x, y, epochs=3, callback=apply_schedule(opt, schedule))
        assert opt.lr == pytest.approx(schedule(3))
