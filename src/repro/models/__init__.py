"""Model zoo: scaled-down, topologically faithful versions of the paper's networks."""

from .lenet import lenet_nano
from .vgg import vgg_nano, vgg_nano_deep
from .resnet import resnet_nano, resnet_nano_deep
from .inception import inception_nano, inception_nano_deep, avgpool_channel_hints
from .mobilenet import mobilenet_v1_nano, mobilenet_v2_nano
from .darknet import darknet_nano
from .registry import ModelSpec, MODEL_REGISTRY, build_model, available_models

__all__ = [
    "lenet_nano",
    "vgg_nano",
    "vgg_nano_deep",
    "resnet_nano",
    "resnet_nano_deep",
    "inception_nano",
    "inception_nano_deep",
    "avgpool_channel_hints",
    "mobilenet_v1_nano",
    "mobilenet_v2_nano",
    "darknet_nano",
    "ModelSpec",
    "MODEL_REGISTRY",
    "build_model",
    "available_models",
]
