"""Unit tests for static and retrain quantization modes."""

import numpy as np
import pytest

from calibration_reference import whole_graph_thresholds
from repro.autograd import Tensor, no_grad
from repro.graph import (
    OpKind,
    calibrate_activations,
    clone_graph,
    collect_activation_quantizers,
    collect_tqt_quantizers,
    prepare_retrain,
    quantize_graph,
    quantize_static,
)
from repro.graph.transforms import run_default_optimizations
from repro.models import available_models, build_model
from repro.models.inception import avgpool_channel_hints
from repro.quant import (
    INT4_PRECISION,
    FakeQuantizer,
    QuantizedConv2d,
    QuantizedLinear,
    QuantScheme,
)


@pytest.fixture
def optimized_lenet(lenet_graph):
    lenet_graph.eval()
    run_default_optimizations(lenet_graph)
    return lenet_graph


class TestCalibration:
    def test_all_activation_quantizers_calibrated(self, optimized_lenet, calibration_batches):
        quantize_graph(optimized_lenet, QuantScheme(train_thresholds=False))
        quantizers = collect_activation_quantizers(optimized_lenet)
        active = {path for path, q in quantizers.items() if q.mode != "bypass"}
        thresholds = calibrate_activations(optimized_lenet, calibration_batches)
        assert set(thresholds) == active
        assert all(t > 0 for t in thresholds.values())
        assert all(quantizers[path].mode == "quantize" for path in active)

    def test_requires_at_least_one_batch(self, optimized_lenet):
        quantize_graph(optimized_lenet, QuantScheme())
        with pytest.raises(ValueError):
            calibrate_activations(optimized_lenet, [])


class TestOneCalibrator:
    """The streaming calibrator reproduces the whole-graph procedure exactly."""

    @pytest.mark.parametrize("name", available_models())
    def test_registry_model_matches_whole_graph_reference(self, name):
        graph = build_model(name, num_classes=4, seed=2)
        graph.eval()
        run_default_optimizations(graph, channel_hints=avgpool_channel_hints(graph))
        rng = np.random.default_rng(7)
        batches = [rng.standard_normal((4, 3, 8, 8)) for _ in range(2)]
        reference = clone_graph(graph)
        streamed = quantize_static(graph, batches)
        quantize_graph(reference, streamed.scheme)
        assert streamed.calibration_thresholds == whole_graph_thresholds(reference, batches)

    def test_calibration_keeps_leaky_relu_producers_bypassed(self):
        """Section 4.3: a compute layer feeding a leaky ReLU has no 8-bit
        output stage, before or after calibration."""
        graph = build_model("darknet_nano", num_classes=4, seed=0)
        graph.eval()
        run_default_optimizations(graph)
        rng = np.random.default_rng(0)
        model = quantize_static(graph, [rng.standard_normal((4, 3, 8, 8))], copy=False)
        producers = [graph.nodes[name] for node in graph.nodes_of_kind(OpKind.QUANT_LEAKY_RELU)
                     for name in node.inputs
                     if graph.nodes[name].op in (OpKind.QUANT_CONV, OpKind.QUANT_LINEAR)]
        assert len(producers) == model.report.leaky_relu_layers
        assert all(p.module.output_quantizer.mode == "bypass" for p in producers)

    @pytest.mark.parametrize("per_channel", [True, False])
    def test_qat_bias_quantizers_cover_their_biases(self, per_channel, calibration_batches):
        """Table 1's QAT baselines: a FakeQuant bias quantizer is initialized
        from its (BN-folded) bias, not left at its [-1, 1] default."""
        graph = build_model("mobilenet_v1_nano", num_classes=4, seed=3)
        graph.eval()
        run_default_optimizations(graph)
        rng = np.random.default_rng(1)
        for name, param in graph.named_parameters():
            if name.endswith("bias"):
                param.data[...] = rng.uniform(-40.0, 40.0, param.data.shape)
        scheme = QuantScheme(method="fake_quant", power_of_2=False, symmetric=per_channel,
                             per_channel_weights=per_channel, weight_init="max")
        quantize_graph(graph, scheme)
        calibrate_activations(graph, calibration_batches)
        layers = [m for m in graph.modules() if isinstance(m, (QuantizedConv2d, QuantizedLinear))]
        biased = [m for m in layers if m.bias_quantizer is not None]
        assert biased
        for layer in biased:
            bias = (layer.conv if isinstance(layer, QuantizedConv2d) else layer.linear).bias.data
            quantizer = layer.bias_quantizer
            assert isinstance(quantizer, FakeQuantizer)
            assert quantizer.min_val.data <= bias.min() and quantizer.max_val.data >= bias.max()


class TestStaticMode:
    def test_static_quantization_end_to_end(self, optimized_lenet, calibration_batches, rng):
        model = quantize_static(optimized_lenet, calibration_batches)
        assert model.mode == "static"
        assert not model.scheme.train_thresholds
        assert model.scheme.weight_init == "max"
        out = model.graph(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape[0] == 2

    def test_static_copy_leaves_original_untouched(self, optimized_lenet, calibration_batches):
        original_nodes = set(optimized_lenet.nodes)
        quantize_static(optimized_lenet, calibration_batches, copy=True)
        assert set(optimized_lenet.nodes) == original_nodes

    def test_static_thresholds_not_trainable(self, optimized_lenet, calibration_batches):
        model = quantize_static(optimized_lenet, calibration_batches)
        trainable = collect_tqt_quantizers(model.graph, trainable_only=True)
        assert len(trainable) == 0

    def test_static_output_close_to_fp32_for_easy_graph(self, optimized_lenet,
                                                        calibration_batches, rng):
        """INT8 static quantization of a benign network is a small perturbation."""
        x = Tensor(rng.standard_normal((4, 3, 8, 8)))
        with no_grad():
            fp32_out = optimized_lenet(x).data
        model = quantize_static(optimized_lenet, calibration_batches)
        with no_grad():
            int8_out = model.graph(x).data
        scale = np.abs(fp32_out).max()
        assert np.abs(int8_out - fp32_out).max() < 0.25 * scale


class TestRetrainMode:
    def test_wt_th_mode_trains_thresholds(self, optimized_lenet, calibration_batches):
        model = prepare_retrain(optimized_lenet, calibration_batches, mode="wt,th")
        trainable = collect_tqt_quantizers(model.graph, trainable_only=True)
        assert len(trainable) > 0
        assert model.scheme.weight_init == "3sd"

    def test_wt_mode_keeps_thresholds_fixed(self, optimized_lenet, calibration_batches):
        model = prepare_retrain(optimized_lenet, calibration_batches, mode="wt")
        trainable = collect_tqt_quantizers(model.graph, trainable_only=True)
        assert len(trainable) == 0
        assert model.scheme.weight_init == "max"

    def test_invalid_mode_rejected(self, optimized_lenet, calibration_batches):
        with pytest.raises(ValueError):
            prepare_retrain(optimized_lenet, calibration_batches, mode="static")

    def test_int4_precision_propagates(self, optimized_lenet, calibration_batches):
        model = prepare_retrain(optimized_lenet, calibration_batches, mode="wt,th",
                                precision=INT4_PRECISION)
        middle = [name for name in model.report.weight_bits
                  if name not in (model.report.first_layer, model.report.last_layer)]
        for name in middle:
            assert model.report.weight_bits[name] == 4

    def test_fake_quant_method(self, optimized_lenet, calibration_batches, rng):
        model = prepare_retrain(optimized_lenet, calibration_batches, mode="wt,th",
                                method="fake_quant")
        out = model.graph(Tensor(rng.standard_normal((2, 3, 8, 8))))
        assert out.shape[0] == 2

    def test_calibration_thresholds_recorded(self, optimized_lenet, calibration_batches):
        model = prepare_retrain(optimized_lenet, calibration_batches, mode="wt,th")
        assert len(model.calibration_thresholds) > 0


class TestMobileNetStaticDegradation:
    def test_per_tensor_static_quantization_degrades_depthwise_network(self, rng,
                                                                        calibration_batches):
        """The paper's headline observation (Table 3): static per-tensor INT8
        quantization hurts depthwise-conv networks far more than plain CNNs.
        Here we check the mechanism at the output level: the quantized/FP32
        output disagreement is much larger for the spread-channel MobileNet
        than for the VGG-style stack."""
        def relative_error(name, **kwargs):
            graph = build_model(name, num_classes=4, seed=3, **kwargs)
            graph.eval()
            run_default_optimizations(graph)
            x = Tensor(rng.standard_normal((4, 3, 16, 16)))
            with no_grad():
                fp32 = graph(x).data
            model = quantize_static(graph, calibration_batches)
            with no_grad():
                quantized = model.graph(x).data
            return float(np.abs(quantized - fp32).mean() / (np.abs(fp32).mean() + 1e-12))

        mobilenet_error = relative_error("mobilenet_v1_nano", channel_range_spread=32.0)
        vgg_error = relative_error("vgg_nano")
        assert mobilenet_error > vgg_error
