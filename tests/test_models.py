"""Unit tests for the model zoo."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.graph import OpKind
from repro.models import (
    MODEL_REGISTRY,
    available_models,
    avgpool_channel_hints,
    build_model,
    mobilenet_v1_nano,
)


class TestRegistry:
    def test_all_models_listed(self):
        assert set(available_models()) == set(MODEL_REGISTRY)
        assert len(MODEL_REGISTRY) == 10

    def test_difficult_flags(self):
        assert MODEL_REGISTRY["mobilenet_v1_nano"].difficult
        assert MODEL_REGISTRY["darknet_nano"].difficult
        assert not MODEL_REGISTRY["vgg_nano"].difficult

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build_model("resnet_9000")

    def test_unknown_model_error_lists_available_models(self):
        with pytest.raises(ValueError) as excinfo:
            build_model("resnet_9000")
        message = str(excinfo.value)
        assert "resnet_9000" in message
        for name in available_models():
            assert name in message

    def test_compile_unknown_model_error_lists_available_models(self):
        from repro import deploy

        with pytest.raises(ValueError) as excinfo:
            deploy.compile("resnet_9000")
        message = str(excinfo.value)
        assert "resnet_9000" in message
        for name in available_models():
            assert name in message

    def test_paper_names_recorded(self):
        assert "MobileNet" in MODEL_REGISTRY["mobilenet_v1_nano"].paper_name
        assert "VGG" in MODEL_REGISTRY["vgg_nano"].paper_name


@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
class TestEveryModel:
    def test_builds_and_forwards(self, name, rng):
        graph = build_model(name, num_classes=6, seed=0)
        graph.validate()
        out = graph(Tensor(rng.standard_normal((2, 3, 16, 16))))
        assert out.shape == (2, 6)

    def test_deterministic_construction(self, name, rng):
        a = build_model(name, num_classes=4, seed=5)
        b = build_model(name, num_classes=4, seed=5)
        x = Tensor(rng.standard_normal((1, 3, 16, 16)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_gradients_flow_to_all_parameters(self, name, rng):
        graph = build_model(name, num_classes=4, seed=0)
        out = graph(Tensor(rng.standard_normal((2, 3, 16, 16))))
        out.sum().backward()
        missing = [param_name for param_name, param in graph.named_parameters()
                   if param.grad is None and param.requires_grad]
        assert missing == []


class TestTopologies:
    def test_mobilenet_has_depthwise_convs(self):
        graph = build_model("mobilenet_v1_nano")
        assert len(graph.nodes_of_kind(OpKind.DEPTHWISE_CONV)) >= 4

    def test_mobilenet_v2_has_residual_adds(self):
        graph = build_model("mobilenet_v2_nano")
        assert len(graph.nodes_of_kind(OpKind.ADD)) >= 1

    def test_resnet_has_adds(self):
        graph = build_model("resnet_nano")
        assert len(graph.nodes_of_kind(OpKind.ADD)) >= 4

    def test_inception_has_concats_and_avgpool(self):
        graph = build_model("inception_nano")
        assert len(graph.nodes_of_kind(OpKind.CONCAT)) >= 2
        assert len(graph.nodes_of_kind(OpKind.AVGPOOL)) >= 2
        hints = avgpool_channel_hints(graph)
        assert len(hints) >= 2

    def test_darknet_uses_leaky_relu(self):
        graph = build_model("darknet_nano")
        assert len(graph.nodes_of_kind(OpKind.LEAKY_RELU)) >= 5

    def test_vgg_has_batchnorms_before_folding(self):
        graph = build_model("vgg_nano")
        assert len(graph.nodes_of_kind(OpKind.BATCHNORM)) >= 6

    def test_all_models_have_batchnorm_except_lenet_fc(self):
        for name in MODEL_REGISTRY:
            graph = build_model(name)
            assert graph.nodes_of_kind(OpKind.BATCHNORM), name


class TestDepthwiseChannelSpread:
    def test_channel_range_spread_widens_weight_ranges(self):
        narrow = mobilenet_v1_nano(channel_range_spread=1.0, seed=0)
        wide = mobilenet_v1_nano(channel_range_spread=32.0, seed=0)

        def per_channel_range_ratio(graph):
            ratios = []
            for node in graph.nodes_of_kind(OpKind.DEPTHWISE_CONV):
                weights = node.module.weight.data
                per_channel = np.abs(weights).reshape(weights.shape[0], -1).max(axis=1)
                ratios.append(per_channel.max() / per_channel.min())
            return float(np.median(ratios))

        assert per_channel_range_ratio(wide) > 5 * per_channel_range_ratio(narrow)

    def test_num_classes_controls_output_width(self, rng):
        graph = build_model("mobilenet_v1_nano", num_classes=17)
        out = graph(Tensor(rng.standard_normal((1, 3, 16, 16))))
        assert out.shape == (1, 17)
