"""Unit tests for hyperparameters, evaluation, checkpoints and the trainer."""

import numpy as np
import pytest

from repro.graph import collect_tqt_quantizers, prepare_retrain
from repro.graph.transforms import run_default_optimizations
from repro.models import avgpool_channel_hints, build_model
from repro.training import (
    CheckpointKeeper,
    EvaluationResult,
    Evaluator,
    PaperHyperparameters,
    Trainer,
    adam_guidelines,
    topk_accuracy,
)


class TestAdamGuidelines:
    def test_table4_values_8bit(self):
        g = adam_guidelines(8)
        assert g.p == 127
        assert g.max_learning_rate == pytest.approx(0.1 / np.sqrt(127))
        assert g.max_learning_rate == pytest.approx(0.009, abs=1e-3)
        assert g.min_beta2 == pytest.approx(1 - 0.1 / 127)
        assert g.min_beta2 == pytest.approx(0.999, abs=1e-3)
        assert g.min_beta1 == pytest.approx(1 / np.e)
        # Table 4 quotes ~1000 steps for b = 8 (1/alpha + 1/(1-beta2))
        assert g.expected_steps == pytest.approx(1000, rel=0.5)

    def test_table4_values_4bit(self):
        g = adam_guidelines(4)
        assert g.p == 7
        assert g.max_learning_rate == pytest.approx(0.035, abs=3e-3)
        assert g.min_beta2 == pytest.approx(0.99, abs=5e-3)
        assert g.expected_steps == pytest.approx(100, rel=0.4)

    def test_paper_hyperparameters_against_guidelines(self):
        """The paper trains everything with (0.01, 0.9, 0.999).  That satisfies
        the 4-bit guideline outright; for 8 bits the learning rate slightly
        exceeds the exact bound (0.01 vs 0.0089), which the paper absorbs in
        its 10x over-design margin."""
        hp = PaperHyperparameters.paper_exact()
        assert adam_guidelines(4).satisfied_by(hp.threshold_lr, hp.beta1, hp.beta2)
        g8 = adam_guidelines(8)
        assert not g8.satisfied_by(hp.threshold_lr, hp.beta1, hp.beta2)
        assert hp.threshold_lr < 1.2 * g8.max_learning_rate
        assert g8.satisfied_by(g8.max_learning_rate, hp.beta1, hp.beta2)

    def test_violating_learning_rate_detected(self):
        g = adam_guidelines(8)
        assert not g.satisfied_by(0.5, 0.9, 0.999)

    def test_rejects_tiny_bitwidth(self):
        with pytest.raises(ValueError):
            adam_guidelines(1)


class TestPaperHyperparameters:
    def test_schedules_constructed_from_batch_size(self):
        hp = PaperHyperparameters(batch_size=24)
        assert hp.weight_schedule.decay_steps == 3000
        assert hp.threshold_schedule.decay_steps == 1000

    def test_paper_exact_learning_rates(self):
        hp = PaperHyperparameters.paper_exact()
        assert hp.threshold_lr == 1e-2 and hp.weight_lr == 1e-6


class TestTopKAccuracy:
    def test_top1(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert topk_accuracy(logits, np.array([1, 0]), 1) == 1.0
        assert topk_accuracy(logits, np.array([0, 1]), 1) == 0.0

    def test_top5_with_fewer_classes_is_top_all(self):
        logits = np.random.default_rng(0).standard_normal((6, 3))
        assert topk_accuracy(logits, np.zeros(6, dtype=int), 5) == 1.0

    def test_topk_requires_2d(self):
        with pytest.raises(ValueError):
            topk_accuracy(np.zeros(3), np.zeros(3, dtype=int), 1)


class TestEvaluator:
    def test_evaluate_returns_fractions(self, lenet_graph, tiny_loaders):
        _, val_loader = tiny_loaders
        result = Evaluator(val_loader).evaluate(lenet_graph)
        assert 0.0 <= result.top1 <= 1.0
        assert result.top1 <= result.top5
        assert result.samples == val_loader.split.size

    def test_max_batches_limits_samples(self, lenet_graph, tiny_loaders):
        _, val_loader = tiny_loaders
        result = Evaluator(val_loader, max_batches=1).evaluate(lenet_graph)
        assert result.samples == val_loader.batch_size

    def test_model_mode_restored(self, lenet_graph, tiny_loaders):
        _, val_loader = tiny_loaders
        lenet_graph.train()
        Evaluator(val_loader).evaluate(lenet_graph)
        assert lenet_graph.training


class TestCheckpointKeeper:
    def test_best_checkpoint_tracked(self):
        keeper = CheckpointKeeper()
        keeper.update(1, 0.5, EvaluationResult(0.3, 0.6, 10), {"w": np.zeros(2)})
        improved = keeper.update(2, 1.0, EvaluationResult(0.5, 0.8, 10), {"w": np.ones(2)})
        worse = keeper.update(3, 1.5, EvaluationResult(0.4, 0.7, 10), {"w": np.full(2, 9.0)})
        assert improved and not worse
        assert keeper.best_top1 == 0.5
        assert keeper.best_epoch == 1.0
        np.testing.assert_allclose(keeper.best_state["w"], np.ones(2))

    def test_final_epoch_mean(self):
        keeper = CheckpointKeeper()
        for step, top1 in enumerate([0.2, 0.4, 0.6, 0.8], start=1):
            keeper.update(step, step / 2, EvaluationResult(top1, top1, 10), {})
        mean_top1, _ = keeper.final_epoch_mean(last_fraction=0.5)
        assert mean_top1 == pytest.approx(0.7)

    def test_empty_keeper(self):
        keeper = CheckpointKeeper()
        assert keeper.best_top1 == 0.0
        assert keeper.final_epoch_mean() == (0.0, 0.0)


class TestTrainerFP32:
    def test_training_reduces_loss(self, lenet_graph, tiny_loaders):
        train_loader, val_loader = tiny_loaders
        hp = PaperHyperparameters(batch_size=train_loader.batch_size, weight_lr=5e-3,
                                  max_epochs=3, bn_freeze_epochs=10, freeze_thresholds=False)
        trainer = Trainer(lenet_graph, train_loader, val_loader, hparams=hp)
        result = trainer.train(3)
        early = np.mean(result.loss_history[:4])
        late = np.mean(result.loss_history[-4:])
        assert late < early
        assert result.steps == 3 * train_loader.steps_per_epoch
        assert result.checkpoints.best_state is not None

    def test_restore_best(self, lenet_graph, tiny_loaders):
        train_loader, val_loader = tiny_loaders
        hp = PaperHyperparameters(batch_size=train_loader.batch_size, weight_lr=5e-3,
                                  max_epochs=1, bn_freeze_epochs=10, freeze_thresholds=False)
        trainer = Trainer(lenet_graph, train_loader, val_loader, hparams=hp)
        result = trainer.train(1)
        trainer.restore_best(result)   # should not raise

    def test_bn_freeze_epoch_honoured(self, lenet_graph, tiny_loaders):
        from repro.nn import BatchNorm2d
        train_loader, val_loader = tiny_loaders
        hp = PaperHyperparameters(batch_size=train_loader.batch_size, weight_lr=1e-3,
                                  max_epochs=2, bn_freeze_epochs=1, freeze_thresholds=False)
        trainer = Trainer(lenet_graph, train_loader, val_loader, hparams=hp)
        trainer.train(2)
        frozen_flags = [m.frozen for m in lenet_graph.modules() if isinstance(m, BatchNorm2d)]
        assert frozen_flags and all(frozen_flags)


class TestTrainerQuantized:
    @pytest.fixture
    def quantized_model(self, lenet_graph, calibration_batches):
        lenet_graph.eval()
        run_default_optimizations(lenet_graph)
        return prepare_retrain(lenet_graph, calibration_batches, mode="wt,th", copy=False)

    def test_thresholds_receive_updates(self, quantized_model, tiny_loaders):
        train_loader, val_loader = tiny_loaders
        hp = PaperHyperparameters(batch_size=train_loader.batch_size, weight_lr=1e-3,
                                  threshold_lr=5e-2, max_epochs=1, freeze_thresholds=False)
        trainer = Trainer(quantized_model.graph, train_loader, val_loader, hparams=hp,
                          track_thresholds=True)
        result = trainer.train(1)
        deviations = [abs(result.final_thresholds[name] - result.initial_thresholds[name])
                      for name in result.initial_thresholds]
        assert max(deviations) > 0.0
        assert result.threshold_history
        assert all(len(history) == result.steps for history in result.threshold_history.values())

    def test_threshold_deviation_report(self, quantized_model, tiny_loaders):
        train_loader, val_loader = tiny_loaders
        hp = PaperHyperparameters(batch_size=train_loader.batch_size, threshold_lr=5e-2,
                                  max_epochs=1, freeze_thresholds=False)
        trainer = Trainer(quantized_model.graph, train_loader, val_loader, hparams=hp)
        result = trainer.train(1)
        deviations = result.threshold_deviations()
        assert set(deviations) == set(result.initial_thresholds)
        assert all(float(d).is_integer() for d in deviations.values())

    def test_weight_and_threshold_groups_have_different_lr(self, quantized_model, tiny_loaders):
        train_loader, val_loader = tiny_loaders
        trainer = Trainer(quantized_model.graph, train_loader, val_loader,
                          hparams=PaperHyperparameters(batch_size=train_loader.batch_size))
        names = {group.name: group.base_lr for group in trainer.optimizer.groups}
        assert names["thresholds"] > names["weights"]

    def test_freezing_during_training(self, quantized_model, tiny_loaders):
        train_loader, val_loader = tiny_loaders
        hp = PaperHyperparameters(batch_size=train_loader.batch_size, threshold_lr=1e-2,
                                  max_epochs=2, freeze_thresholds=True)
        trainer = Trainer(quantized_model.graph, train_loader, val_loader, hparams=hp)
        # use an aggressive policy so freezing triggers within the short run
        trainer.freezer.policy.start_step = 2
        trainer.freezer.policy.interval = 1
        trainer.train(2)
        assert trainer.freezer.num_frozen > 0


class TestTrainStepOwnsItsMemory:
    """Backward closures own every array they read.  A buffer shared across
    calls or keyed by shape would be overwritten by the same-shaped model
    stepped in between and the two trajectories below would part."""

    @staticmethod
    def trainer(seed, loaders, calibration):
        graph = build_model("mobilenet_v1_nano", num_classes=4, seed=seed)
        graph.eval()
        run_default_optimizations(graph, channel_hints=avgpool_channel_hints(graph))
        quantized = prepare_retrain(graph, calibration, mode="wt,th", copy=False).graph
        return Trainer(quantized, *loaders,
                       hparams=PaperHyperparameters(batch_size=loaders[0].batch_size))

    @staticmethod
    def thresholds(trainer):
        return {name: q.log2_t.data.copy()
                for name, q in collect_tqt_quantizers(trainer.model, trainable_only=True).items()}

    def test_same_seed_same_trajectory_with_a_twin_stepped_in_between(
            self, tiny_loaders, calibration_batches):
        batches = list(tiny_loaders[0])
        alone = self.trainer(3, tiny_loaders, calibration_batches)
        interleaved = self.trainer(3, tiny_loaders, calibration_batches)
        twin = self.trainer(4, tiny_loaders, calibration_batches)
        start = self.thresholds(alone)
        losses_alone, losses_interleaved = [], []
        for step in range(20):
            images, labels = batches[step % len(batches)]
            losses_alone.append(alone.train_step(images, labels))
        for step in range(20):
            images, labels = batches[step % len(batches)]
            twin.train_step(*batches[(step + 1) % len(batches)])
            losses_interleaved.append(interleaved.train_step(images, labels))
        assert losses_alone == losses_interleaved
        after, after_interleaved = self.thresholds(alone), self.thresholds(interleaved)
        assert len(after) > 10
        for name, value in after.items():
            np.testing.assert_array_equal(value, after_interleaved[name])
        assert any(np.any(after[name] != start[name]) for name in after)
