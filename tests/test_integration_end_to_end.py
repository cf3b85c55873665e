"""Integration tests: the full TQT flow on a tiny network and dataset.

These tests exercise the complete pipeline the paper describes — pre-train in
floating point, optimize the graph, calibrate, quantize statically, retrain
with TQT, deploy on the integer engine — and check the paper's qualitative
claims at miniature scale.
"""

import numpy as np
import pytest

from repro import deploy
from repro.data import DataLoader, Preprocessor, SyntheticImageNet, sample_calibration_batches
from repro.engine import check_engine_parity
from repro.graph import prepare_retrain, quantize_static
from repro.graph.transforms import run_default_optimizations
from repro.models import build_model
from repro.quant import INT4_PRECISION
from repro.training import Evaluator, ExperimentConfig, ExperimentRunner, PaperHyperparameters, Trainer


@pytest.fixture(scope="module")
def pipeline():
    """Pre-trained FP32 lenet on a small synthetic task, shared by the tests."""
    dataset = SyntheticImageNet(num_classes=4, image_size=10, train_size=96, val_size=48,
                                noise_level=0.25, seed=21)
    pre = Preprocessor()
    train_loader = DataLoader(dataset, dataset.train, batch_size=16, preprocessor=pre, seed=1)
    val_loader = DataLoader(dataset, dataset.val, batch_size=16, shuffle=False,
                            preprocessor=pre, seed=1)
    calibration = sample_calibration_batches(dataset, num_samples=24, batch_size=8, seed=2)
    graph = build_model("lenet_nano", num_classes=4, seed=13)
    hp = PaperHyperparameters(batch_size=16, weight_lr=5e-3, max_epochs=4,
                              bn_freeze_epochs=3, freeze_thresholds=False)
    trainer = Trainer(graph, train_loader, val_loader, hparams=hp)
    fp32_result = trainer.train(4)
    graph.eval()
    run_default_optimizations(graph)
    return {
        "graph": graph,
        "fp32_top1": fp32_result.best_top1,
        "train_loader": train_loader,
        "val_loader": val_loader,
        "calibration": calibration,
        "evaluator": Evaluator(val_loader),
    }


def _assert_deploys_bit_exact(graph, rng) -> deploy.Deployment:
    """Section 4.2 on a whole graph: the optimized tape is bit-exact with the
    fake-quant simulation and with the int64 steps oracle lowered from the
    same graph."""
    deployment = deploy.compile(graph, image_size=10, batch_size=4)
    oracle = deploy.compile(graph, image_size=10, batch_size=4, optimize=False,
                            accumulate="int", mode="steps")
    batches = [rng.standard_normal((4, 3, 10, 10)) for _ in range(2)]
    for deployed in (deployment, oracle):
        report = check_engine_parity(graph, deployed.engine, batches)
        assert report.bit_exact, report
    for batch in batches:
        np.testing.assert_array_equal(deployment.run(batch).codes, oracle.run(batch).codes)
    return deployment


class TestEndToEndPipeline:
    def test_fp32_pretraining_learned_something(self, pipeline):
        assert pipeline["fp32_top1"] > 0.4   # 4 classes, chance = 0.25

    def test_static_int8_close_to_fp32_on_easy_network(self, pipeline):
        model = quantize_static(pipeline["graph"], pipeline["calibration"])
        static_top1 = pipeline["evaluator"].evaluate(model.graph).top1
        assert static_top1 > pipeline["fp32_top1"] - 0.25

    def test_tqt_retraining_recovers_accuracy(self, pipeline):
        model = prepare_retrain(pipeline["graph"], pipeline["calibration"], mode="wt,th")
        static_top1 = pipeline["evaluator"].evaluate(model.graph).top1
        hp = PaperHyperparameters(batch_size=16, weight_lr=1e-3, threshold_lr=1e-2,
                                  max_epochs=2, freeze_thresholds=False)
        trainer = Trainer(model.graph, pipeline["train_loader"], pipeline["val_loader"],
                          hparams=hp)
        result = trainer.train(2)
        assert result.best_top1 >= static_top1 - 0.05
        assert result.best_top1 > pipeline["fp32_top1"] - 0.2

    def test_thresholds_move_during_tqt_retraining(self, pipeline):
        model = prepare_retrain(pipeline["graph"], pipeline["calibration"], mode="wt,th")
        hp = PaperHyperparameters(batch_size=16, threshold_lr=5e-2, max_epochs=1,
                                  freeze_thresholds=False)
        trainer = Trainer(model.graph, pipeline["train_loader"], pipeline["val_loader"],
                          hparams=hp)
        result = trainer.train(1)
        moved = [name for name, initial in result.initial_thresholds.items()
                 if abs(result.final_thresholds[name] - initial) > 1e-6]
        assert moved

    def test_wt_only_mode_never_updates_thresholds(self, pipeline):
        model = prepare_retrain(pipeline["graph"], pipeline["calibration"], mode="wt")
        hp = PaperHyperparameters(batch_size=16, weight_lr=1e-3, max_epochs=1,
                                  freeze_thresholds=False)
        trainer = Trainer(model.graph, pipeline["train_loader"], pipeline["val_loader"],
                          hparams=hp)
        result = trainer.train(1)
        for name, initial in result.initial_thresholds.items():
            assert result.final_thresholds[name] == pytest.approx(initial)

    def test_quantized_conv_layers_are_bit_accurate_to_integer_execution(self, pipeline, rng):
        """Section 4.2: the inference graph is bit-accurate to the fixed-point
        implementation — the whole static-INT8 graph, conv biases and
        16-bit accumulator quantizers included."""
        model = quantize_static(pipeline["graph"], pipeline["calibration"])
        steps = _assert_deploys_bit_exact(model.graph, rng).plan.manifest()["steps"]
        assert any(step.get("has_bias") for step in steps)
        assert any("acc→q" in step["detail"] for step in steps)

    @pytest.mark.parametrize("mode, precision", [("wt", None), ("wt,th", None),
                                                 ("wt,th", INT4_PRECISION)],
                             ids=["wt", "wt,th", "wt,th-int4"])
    def test_retrained_graph_deploys_bit_exact(self, pipeline, rng, mode, precision):
        """Retrain, then deploy: the retrained graph — with thresholds whose
        power-of-2 scale moved — stays bit-exact on the integer engine."""
        model = prepare_retrain(pipeline["graph"], pipeline["calibration"], mode=mode,
                                precision=precision)
        hp = PaperHyperparameters(batch_size=16, weight_lr=1e-3, threshold_lr=0.2,
                                  max_epochs=1, freeze_thresholds=False)
        trainer = Trainer(model.graph, pipeline["train_loader"], pipeline["val_loader"],
                          hparams=hp)
        result = trainer.train(1)
        if mode == "wt,th":
            assert any(result.threshold_deviations().values()), \
                "no ceil(log2 t) moved: the deploy check would not cover a new scale"
        model.graph.eval()
        _assert_deploys_bit_exact(model.graph, rng)


class TestExperimentRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        config = ExperimentConfig(model="lenet_nano", num_classes=4, image_size=10,
                                  train_size=64, val_size=32, batch_size=16,
                                  pretrain_epochs=3, retrain_epochs=1,
                                  calibration_samples=16, seed=5)
        return ExperimentRunner(config)

    def test_fp32_and_static_trials(self, runner):
        fp32 = runner.evaluate_fp32()
        static = runner.run_static()
        assert fp32.precision == "FP32" and static.precision == "INT8"
        assert 0.0 <= static.top1 <= 1.0
        assert fp32.top1 > 0.3

    def test_retrain_trial_rows(self, runner):
        trial, result = runner.run_retrain("wt,th")
        assert trial.mode == "retrain wt,th"
        assert trial.bit_width == "8/8"
        assert result.steps > 0
        row = trial.as_row()
        assert len(row) == 6

    def test_paper_name(self, runner):
        assert "LeNet" in runner.paper_name
