"""End-to-end experiment driver reproducing the Table 1 / Table 3 protocol.

For a given network the paper reports six trials:

1. FP32 baseline (pre-trained weights, validated as-is);
2. Static INT8 (calibrate-only, no retraining);
3. Retrain ``wt`` FP32 — weights fine-tuned with the same recipe, no
   quantization, the "fair baseline" for the retrain rows;
4. Retrain ``wt`` INT8 — weights fine-tuned with fixed calibrated thresholds;
5. Retrain ``wt,th`` INT8 — TQT: weights and thresholds trained jointly;
6. Retrain ``wt,th`` INT4 — same at 4-bit weights / 8-bit activations.

:class:`ExperimentRunner` performs these trials on the synthetic dataset
with a nano model, starting every quantized run from the same "pre-trained"
FP32 weights, exactly as in the paper (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field


from ..data import DataLoader, Preprocessor, SyntheticImageNet, sample_calibration_batches
from ..graph import GraphIR, clone_graph, prepare_retrain, quantize_static, transforms
from ..models import MODEL_REGISTRY, avgpool_channel_hints, build_model
from ..quant.config import INT8_PRECISION, LayerPrecision
from .evaluator import Evaluator
from .hparams import PaperHyperparameters
from .trainer import Trainer, TrainingResult

__all__ = ["TrialResult", "ExperimentConfig", "ExperimentRunner"]


@dataclass(frozen=True)
class TrialResult:
    """One row of a Table 1 / Table 3 style report."""

    model: str
    mode: str              # "fp32", "static", "retrain wt", "retrain wt,th"
    precision: str         # "FP32", "INT8", "INT4"
    bit_width: str         # "32/32", "8/8", "4/8"
    top1: float
    top5: float
    epochs: float = 0.0

    def as_row(self) -> tuple:
        return (self.mode, self.precision, self.bit_width,
                round(self.top1 * 100, 1), round(self.top5 * 100, 1), round(self.epochs, 1))


@dataclass
class ExperimentConfig:
    """Configuration of an experiment run (scaled-down Section 5 protocol)."""

    model: str = "mobilenet_v1_nano"
    num_classes: int = 10
    image_size: int = 16
    train_size: int = 256
    val_size: int = 96
    batch_size: int = 16
    noise_level: float = 0.35
    pretrain_epochs: int = 6
    retrain_epochs: int = 3
    calibration_samples: int = 50
    quant_method: str = "tqt"
    seed: int = 0
    hparams: PaperHyperparameters | None = None
    model_kwargs: dict = field(default_factory=dict)

    def make_hparams(self) -> PaperHyperparameters:
        if self.hparams is not None:
            return self.hparams
        return PaperHyperparameters(batch_size=self.batch_size, max_epochs=self.retrain_epochs)


class ExperimentRunner:
    """Runs the FP32 / static / retrain trials for one network."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.dataset = SyntheticImageNet(
            num_classes=config.num_classes, image_size=config.image_size,
            train_size=config.train_size, val_size=config.val_size,
            noise_level=config.noise_level, seed=config.seed,
        )
        preprocessor = Preprocessor()
        self.train_loader = DataLoader(self.dataset, self.dataset.train,
                                       batch_size=config.batch_size,
                                       preprocessor=preprocessor, seed=config.seed)
        self.val_loader = DataLoader(self.dataset, self.dataset.val,
                                     batch_size=config.batch_size, shuffle=False,
                                     preprocessor=preprocessor, seed=config.seed)
        self.calibration_batches = sample_calibration_batches(
            self.dataset, num_samples=config.calibration_samples,
            preprocessor=preprocessor, seed=config.seed,
        )
        self.evaluator = Evaluator(self.val_loader)
        self._pretrained: GraphIR | None = None
        # The most recent quantized model (static or retrain), kept so callers
        # can inspect its graph (threshold deviations, exports, ...).
        self.last_quantized_model = None

    # ------------------------------------------------------------------ #
    # FP32 pre-training (stand-in for the TF-Slim model-zoo checkpoints)
    # ------------------------------------------------------------------ #
    def pretrain_fp32(self) -> tuple[GraphIR, TrainingResult]:
        """Train the FP32 network from scratch; this plays the role of the
        pre-trained model-zoo checkpoint the paper starts from."""
        graph = build_model(self.config.model, num_classes=self.config.num_classes,
                            seed=self.config.seed, **self.config.model_kwargs)
        hparams = PaperHyperparameters(
            batch_size=self.config.batch_size, weight_lr=3e-3,
            max_epochs=self.config.pretrain_epochs, freeze_thresholds=False,
            bn_freeze_epochs=self.config.pretrain_epochs,
        )
        trainer = Trainer(graph, self.train_loader, self.val_loader, hparams=hparams)
        result = trainer.train(self.config.pretrain_epochs)
        self._pretrained = graph
        return graph, result

    def pretrained_graph(self) -> GraphIR:
        if self._pretrained is None:
            self.pretrain_fp32()
        return self._pretrained

    def _optimized_copy(self) -> GraphIR:
        """Clone the pre-trained graph and run the Graffitist optimizations."""
        graph = clone_graph(self.pretrained_graph())
        graph.eval()
        hints = avgpool_channel_hints(graph)
        transforms.run_default_optimizations(graph, channel_hints=hints)
        return graph

    # ------------------------------------------------------------------ #
    # Trials
    # ------------------------------------------------------------------ #
    def evaluate_fp32(self) -> TrialResult:
        graph = self.pretrained_graph()
        result = self.evaluator.evaluate(graph)
        return TrialResult(self.config.model, "fp32", "FP32", "32/32",
                           result.top1, result.top5)

    def run_static(self, precision: LayerPrecision = INT8_PRECISION) -> TrialResult:
        graph = self._optimized_copy()
        quantized = quantize_static(graph, self.calibration_batches,
                                    precision=precision, method=self.config.quant_method,
                                    copy=False)
        self.last_quantized_model = quantized
        result = self.evaluator.evaluate(quantized.graph)
        label = "INT8" if precision.weight_bits >= 8 else "INT4"
        return TrialResult(self.config.model, "static", label,
                           f"{precision.weight_bits}/{precision.activation_bits}",
                           result.top1, result.top5)

    def run_retrain_fp32(self) -> TrialResult:
        """Weight-only fine-tuning of the FP32 graph (the fair baseline)."""
        graph = clone_graph(self.pretrained_graph())
        trainer = Trainer(graph, self.train_loader, self.val_loader,
                          hparams=self.config.make_hparams())
        result = trainer.train(self.config.retrain_epochs)
        return TrialResult(self.config.model, "retrain wt", "FP32", "32/32",
                           result.best_top1, result.best_top5, result.best_epoch)

    def run_retrain(self, mode: str, precision: LayerPrecision = INT8_PRECISION,
                    track_thresholds: bool = False) -> tuple[TrialResult, TrainingResult]:
        """Quantized retraining in ``wt`` or ``wt,th`` mode."""
        graph = self._optimized_copy()
        quantized = prepare_retrain(graph, self.calibration_batches, mode=mode,
                                    precision=precision, method=self.config.quant_method,
                                    copy=False)
        self.last_quantized_model = quantized
        trainer = Trainer(quantized.graph, self.train_loader, self.val_loader,
                          hparams=self.config.make_hparams(),
                          track_thresholds=track_thresholds)
        result = trainer.train(self.config.retrain_epochs)
        label = "INT8" if precision.weight_bits >= 8 else "INT4"
        trial = TrialResult(self.config.model, f"retrain {mode}", label,
                            f"{precision.weight_bits}/{precision.activation_bits}",
                            result.best_top1, result.best_top5, result.best_epoch)
        return trial, result

    @property
    def paper_name(self) -> str:
        return MODEL_REGISTRY[self.config.model].paper_name
