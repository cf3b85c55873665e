"""One compile-and-deploy API over the quantize → lower → optimize pipeline.

``repro.deploy`` is the single front door from a model to a served,
persistable integer deployment::

    from repro import deploy

    dep = deploy.compile("mobilenet_v1_nano",
                         deploy.CompileConfig(image_size=8,
                                              runtime=deploy.RuntimeConfig(batch_size=4)))
    out = dep.run(batch)                    # direct engine execution
    report = dep.serve(deploy.ServeConfig(max_wait_s=None)).serve(requests)
    server = dep.serve(deploy.ServeConfig(fleet=("lenet_nano",)))

    dep.save("mobilenet.rpa")               # persistent plan artifact
    warm = deploy.Deployment.load("mobilenet.rpa")   # zero recompilation

Typed config dataclasses (:class:`CompileConfig`, :class:`QuantConfig`,
:class:`RuntimeConfig`, :class:`ServeConfig`) replace the kwarg sprawl of
the legacy entry points; plan artifacts (:mod:`repro.deploy.artifact`)
persist the lowered plan, packed weights and optimizer pass log across
processes, content-addressed by a graph/quant-parameter hash.
"""

from .artifact import (
    ARTIFACT_SUFFIX,
    ARTIFACT_VERSION,
    ArtifactError,
    ArtifactVersionError,
    artifact_path,
    config_key,
    load_artifact,
    plan_fingerprint,
    save_artifact,
)
from .config import CompileConfig, QuantConfig, RuntimeConfig, ServeConfig
from .deployment import Deployment, compile, load

__all__ = [
    "ARTIFACT_SUFFIX",
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactVersionError",
    "artifact_path",
    "config_key",
    "load_artifact",
    "plan_fingerprint",
    "save_artifact",
    "CompileConfig",
    "QuantConfig",
    "RuntimeConfig",
    "ServeConfig",
    "Deployment",
    "compile",
    "load",
]
