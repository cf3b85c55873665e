"""The deployment API: typed configs, compile, artifacts, serving integration.

The acceptance claims under test:

* ``Deployment.save``/``load`` round-trips are **bit-exact** against a fresh
  compile on every registry model;
* a loaded artifact performs **zero** re-lowering / re-optimization /
  re-profiling, asserted through :data:`repro.engine.PIPELINE_COUNTERS`;
* corrupt and stale artifacts raise a clear :class:`ArtifactError` instead
  of quietly recompiling or serving garbage;
* the surface the frozen ``benchmarks/e2e`` harness drives stays in place.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import replace

import numpy as np
import pytest

from repro import deploy, nn
from repro.deploy import (
    ArtifactError,
    CompileConfig,
    Deployment,
    QuantConfig,
    RuntimeConfig,
    ServeConfig,
    config_key,
)
from repro.engine import PIPELINE_COUNTERS
from repro.graph import GraphBuilder, OpKind, quantize_static
from repro.models import MODEL_REGISTRY
from repro.serving import Request

IMAGE_SIZE = 8  # keeps every global-average-pool window a power of two
BATCH = 4

SMALL = CompileConfig(
    image_size=IMAGE_SIZE,
    quant=QuantConfig(calibration_samples=8, calibration_batch_size=4),
    runtime=RuntimeConfig(batch_size=BATCH),
)


def _batches(count: int = 2, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((BATCH, 3, IMAGE_SIZE, IMAGE_SIZE)) for _ in range(count)]


@pytest.fixture(scope="module")
def lenet_deployment():
    return deploy.compile("lenet_nano", SMALL)


@pytest.fixture(scope="module")
def lenet_artifact(lenet_deployment, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "lenet.rpa"
    lenet_deployment.save(path)
    return path


# ---------------------------------------------------------------------- #
# Config objects
# ---------------------------------------------------------------------- #
def test_flat_overrides_route_into_nested_configs():
    config = CompileConfig().with_overrides(
        num_classes=6, image_size=8, batch_size=4, calibration_samples=8,
        accumulate="int", seed=3, base_width=16)
    assert config.num_classes == 6 and config.image_size == 8
    assert config.runtime.batch_size == 4 and config.runtime.accumulate == "int"
    assert config.quant.calibration_samples == 8 and config.quant.seed == 3
    assert config.model_kwargs == {"base_width": 16}   # unknown -> factory kwarg
    # Nested configs can also be replaced wholesale.
    swapped = config.with_overrides(runtime=RuntimeConfig(batch_size=2))
    assert swapped.runtime.batch_size == 2
    assert swapped.quant.calibration_samples == 8
    # An explicit model_kwargs override replaces the mapping (and must not
    # nest itself into model_kwargs['model_kwargs']); loose kwargs merge on.
    explicit = config.with_overrides(model_kwargs={"depth": 2}, width=3)
    assert explicit.model_kwargs == {"depth": 2, "width": 3}


def test_config_validation():
    with pytest.raises(ValueError, match="batch_size"):
        RuntimeConfig(batch_size=0)
    with pytest.raises(ValueError, match="accumulate"):
        RuntimeConfig(accumulate="gpu")
    with pytest.raises(ValueError, match="calibration_samples"):
        QuantConfig(calibration_samples=0)
    with pytest.raises(ValueError, match="num_classes"):
        CompileConfig(num_classes=0)
    with pytest.raises(ValueError, match="workers"):
        ServeConfig(workers=0)


def test_config_dict_round_trip_and_key():
    config = CompileConfig().with_overrides(image_size=8, batch_size=4, seed=7)
    again = CompileConfig.from_dict(config.to_dict())
    assert again == config
    # Older artifact manifests stored since-removed fields (a runtime shard
    # count before v3, the tuning switch before v4); migration parses them.
    stored = config.to_dict()
    stored["runtime"]["workers"] = 2
    stored["autotune"] = True
    assert CompileConfig.from_dict(stored) == config
    assert config_key("lenet_nano", config) == config_key("lenet_nano", again)
    # The key is a content address: any config or model change moves it.
    assert config_key("vgg_nano", config) != config_key("lenet_nano", config)
    assert (config_key("lenet_nano", config.with_overrides(seed=8))
            != config_key("lenet_nano", config))


# ---------------------------------------------------------------------- #
# Artifact round trip: every registry model, bit-exact, zero recompute
# ---------------------------------------------------------------------- #
def test_fresh_compile_runs_each_pipeline_stage_once():
    before = PIPELINE_COUNTERS.snapshot()
    deploy.compile("lenet_nano", SMALL)
    # One lowering, one optimizer run, one tape compile.  Kernels are chosen
    # by rule, so neither tuning counter (kept for the e2e probe) moves.
    assert PIPELINE_COUNTERS.delta(before) == {
        "lowerings": 1, "optimizations": 1, "autotune_runs": 0,
        "tape_compilations": 1, "tape_autotune_runs": 0}


@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_artifact_round_trip_is_bit_exact(model_name, tmp_path):
    fresh = deploy.compile(model_name, SMALL)
    path = fresh.save(tmp_path / f"{model_name}.rpa")
    batches = _batches(2)
    reference = [fresh.run(batch).codes for batch in batches]

    before = PIPELINE_COUNTERS.snapshot()
    loaded = Deployment.load(path)
    outputs = [loaded.run(batch).codes for batch in batches]
    # Zero re-lowering and re-optimization on load + run; the tape
    # recompiles per bind (cheap), its kernels chosen by the same rule.
    assert PIPELINE_COUNTERS.delta(before) == {
        "lowerings": 0, "optimizations": 0, "autotune_runs": 0,
        "tape_compilations": 1, "tape_autotune_runs": 0}

    for ref, out in zip(reference, outputs):
        np.testing.assert_array_equal(ref, out)
    assert loaded.source == "artifact"
    assert loaded.fingerprint == fresh.fingerprint
    assert loaded.input_shape == fresh.input_shape
    assert loaded.output_meta == fresh.output_meta
    assert loaded.kernel_choices == fresh.kernel_choices
    assert loaded.pass_log == fresh.pass_log


def test_loaded_artifact_keeps_autotuned_variants(lenet_deployment, lenet_artifact):
    """A load binds, by rule, the kernels the compile bound."""
    loaded = Deployment.load(lenet_artifact)
    choices = loaded.kernel_choices
    assert choices == lenet_deployment.kernel_choices and choices
    assert loaded.engine.tape.choices() == choices


def test_artifact_manifest_contents(lenet_deployment, lenet_artifact):
    with zipfile.ZipFile(lenet_artifact) as archive:
        manifest = json.loads(archive.read("manifest.json"))
    assert manifest["format"] == "repro-plan-artifact"
    assert manifest["model"] == "lenet_nano"
    assert manifest["fingerprint"] == lenet_deployment.fingerprint
    # Kernels are chosen by rule at every bind: the artifact stores none.
    assert "kernel_choices" not in manifest
    assert "autotune" not in manifest["config"]
    assert manifest["pass_log"] == lenet_deployment.pass_log
    assert manifest["input_shape"] == [BATCH, 3, IMAGE_SIZE, IMAGE_SIZE]
    assert CompileConfig.from_dict(manifest["config"]) == SMALL


# ---------------------------------------------------------------------- #
# Corrupt / stale artifacts fail loudly
# ---------------------------------------------------------------------- #
def _rewrite_entry(src, dst, name: str, data: bytes) -> None:
    with zipfile.ZipFile(src) as archive:
        entries = {n: archive.read(n) for n in archive.namelist()}
    entries[name] = data
    with zipfile.ZipFile(dst, "w") as archive:
        for entry_name, entry_data in entries.items():
            archive.writestr(entry_name, entry_data)


def test_missing_artifact_raises(tmp_path):
    with pytest.raises(ArtifactError, match="does not exist"):
        Deployment.load(tmp_path / "nope.rpa")


def test_non_zip_artifact_raises(tmp_path):
    path = tmp_path / "garbage.rpa"
    path.write_bytes(b"this is not a zip archive at all" * 8)
    with pytest.raises(ArtifactError, match="not a plan artifact"):
        Deployment.load(path)


def test_corrupt_payload_raises(lenet_artifact, tmp_path):
    with zipfile.ZipFile(lenet_artifact) as archive:
        payload = bytearray(archive.read("plan.pkl"))
    payload[len(payload) // 2] ^= 0xFF   # flip a byte mid-payload
    corrupt = tmp_path / "corrupt.rpa"
    _rewrite_entry(lenet_artifact, corrupt, "plan.pkl", bytes(payload))
    with pytest.raises(ArtifactError, match="corrupt"):
        Deployment.load(corrupt)


def test_stale_fingerprint_raises(lenet_artifact, tmp_path):
    with zipfile.ZipFile(lenet_artifact) as archive:
        manifest = json.loads(archive.read("manifest.json"))
    manifest["fingerprint"] = "0" * 64   # the hash of some other graph state
    stale = tmp_path / "stale.rpa"
    _rewrite_entry(lenet_artifact, stale, "manifest.json",
                   json.dumps(manifest).encode())
    with pytest.raises(ArtifactError, match="stale"):
        Deployment.load(stale)


def test_truncated_artifact_raises(lenet_artifact, tmp_path):
    truncated = tmp_path / "truncated.rpa"
    data = lenet_artifact.read_bytes()
    truncated.write_bytes(data[:len(data) // 2])
    with pytest.raises(ArtifactError):
        Deployment.load(truncated)


def test_unsupported_version_raises(lenet_artifact, tmp_path):
    with zipfile.ZipFile(lenet_artifact) as archive:
        manifest = json.loads(archive.read("manifest.json"))
    manifest["version"] = 999
    future = tmp_path / "future.rpa"
    _rewrite_entry(lenet_artifact, future, "manifest.json",
                   json.dumps(manifest).encode())
    with pytest.raises(ArtifactError, match="version"):
        Deployment.load(future)


# ---------------------------------------------------------------------- #
# Deployment surface
# ---------------------------------------------------------------------- #
def test_profile_and_manifest_on_loaded_deployment(lenet_artifact):
    loaded = Deployment.load(lenet_artifact)
    profile = loaded.profile(repeats=1)
    assert profile.total_ms > 0
    manifest = loaded.manifest()
    assert manifest["deployment"]["model"] == "lenet_nano"
    assert manifest["deployment"]["source"] == "artifact"
    assert manifest["deployment"]["fingerprint"] == loaded.fingerprint
    # The simulation graph is not serialized; asking for it must say so.
    with pytest.raises(AttributeError, match="artifact"):
        _ = loaded.graph


def test_compile_accepts_quantized_graph():
    rng = np.random.default_rng(0)
    builder = GraphBuilder("tiny_direct")
    x = builder.input("input")
    x = builder.layer("conv", OpKind.CONV, nn.Conv2d(3, 4, 3, padding=1, rng=rng), x)
    x = builder.layer("relu", OpKind.RELU, nn.ReLU(), x)
    x = builder.layer("gap", OpKind.GLOBAL_AVGPOOL,
                      nn.GlobalAvgPool2d(keepdims=False), x)
    x = builder.layer("fc", OpKind.LINEAR, nn.Linear(4, 3, rng=rng), x)
    graph = builder.build(x)
    graph.eval()
    calibration = [rng.standard_normal((4, 3, IMAGE_SIZE, IMAGE_SIZE))
                   for _ in range(2)]
    quantized = quantize_static(graph, calibration, copy=False)
    deployment = deploy.compile(quantized, replace(SMALL, image_size=IMAGE_SIZE))
    out = deployment.run(calibration[0])
    assert out.codes.shape[0] == BATCH
    assert deployment.model == "tiny_direct"
    # GraphIR compiles need an explicit image size (no registry default).
    with pytest.raises(ValueError, match="image_size"):
        deploy.compile(quantized, CompileConfig())


@pytest.mark.parametrize("model_name", ["resnet_nano", "darknet_nano"])
def test_compile_deploys_the_thresholds_quantize_static_computes(model_name):
    """One calibrator: from the same batches, deploy.compile and the tables'
    quantize_static lock in the same activation thresholds and modes."""
    from repro.data import SyntheticImageNet, sample_calibration_batches
    from repro.graph import collect_activation_quantizers, transforms
    from repro.models.inception import avgpool_channel_hints

    quant = SMALL.quant
    graph = MODEL_REGISTRY[model_name].build(num_classes=SMALL.num_classes, seed=quant.seed)
    graph.eval()
    transforms.run_default_optimizations(graph, channel_hints=avgpool_channel_hints(graph))
    dataset = SyntheticImageNet(num_classes=SMALL.num_classes, image_size=IMAGE_SIZE,
                                train_size=quant.calibration_samples,
                                val_size=quant.calibration_samples, seed=quant.seed)
    calibration = sample_calibration_batches(dataset, num_samples=quant.calibration_samples,
                                             batch_size=quant.calibration_batch_size,
                                             seed=quant.seed)
    static = quantize_static(graph, calibration)

    def locked_in(g):
        return {path: (q.mode, float(q.impl.log2_t.data))
                for path, q in collect_activation_quantizers(g).items()}

    assert locked_in(deploy.compile(model_name, SMALL).graph) == locked_in(static.graph)


def test_compile_rejects_unknown_models_and_types():
    with pytest.raises(ValueError, match="available"):
        deploy.compile("resnet_nano_giant", SMALL)
    with pytest.raises(TypeError, match="registry name"):
        deploy.compile(12345, SMALL)


# ---------------------------------------------------------------------- #
# The surface benchmarks/e2e drives (frozen: that directory may not change)
# ---------------------------------------------------------------------- #
def test_benchmark_frozen_surface_contract(lenet_deployment, lenet_artifact):
    import inspect

    from repro.engine import check_engine_parity, lower_graph, optimize_plan
    from repro.serving import BatchingPolicy, FleetServer, ProcessFleetBackend

    # probes.py indexes all five counter keys; both tuning counters read 0.
    assert set(PIPELINE_COUNTERS.snapshot()) == set(PIPELINE_COUNTERS.delta(
        PIPELINE_COUNTERS.snapshot())) == {
        "lowerings", "optimizations", "autotune_runs", "tape_compilations",
        "tape_autotune_runs"}
    # Staged compile: plan.bind(shape, accumulate=, mode=, fuse=), then both
    # choice attributes read as dicts (len() and .get()).
    runtime = SMALL.runtime
    # optimize_plan(autotune=cfg.autotune): accepted and ignored.
    assert SMALL.autotune is False
    plan = optimize_plan(lower_graph(lenet_deployment.graph), autotune=SMALL.autotune)
    engine = plan.bind(lenet_deployment.input_shape, accumulate=runtime.accumulate,
                       mode=runtime.mode, fuse=runtime.fuse)
    assert isinstance(plan.kernel_choices, dict) and plan.kernel_choices
    assert plan.tape_kernel_choices == plan.kernel_choices
    assert check_engine_parity(lenet_deployment.graph, engine, _batches(1)).bit_exact
    # The oracle configuration.
    oracle = deploy.compile("lenet_nano", replace(
        SMALL, optimize=False,
        runtime=RuntimeConfig(batch_size=BATCH, accumulate="int", mode="steps")))
    (batch,) = _batches(1)
    np.testing.assert_array_equal(oracle.run(batch).codes,
                                  lenet_deployment.run(batch).codes)
    # deploy.load ticks only tape_compilations.
    before = PIPELINE_COUNTERS.snapshot()
    deploy.load(lenet_artifact)
    delta = PIPELINE_COUNTERS.delta(before)
    assert delta.pop("tape_compilations") == 1 and not any(delta.values())
    # Deployment surface.
    assert lenet_deployment.profile(batch, repeats=1, level="tape").steps
    outputs, _ = lenet_deployment.runner().run_partial_groups([batch[:1], batch[1:3]])
    assert [o.codes.shape[0] for o in outputs] == [1, 2]
    server = lenet_deployment.serve(
        ServeConfig(max_batch=BATCH, max_wait_s=5e-3, workers=1, execution="real",
                    backend="thread"), preload=[])
    server.close()
    server = FleetServer(["lenet_nano"], batch_size=BATCH, compile_config=SMALL,
                         policy=BatchingPolicy.dynamic(BATCH, 5e-3), execution="real",
                         backend="thread", workers=1, warm=False)
    server.close()
    assert list(inspect.signature(ProcessFleetBackend).parameters)[:3] == [
        "specs", "artifact_paths", "workers"]
    # probes.py passes quantize_static(sequential=quant.sequential_calibration);
    # both names are accepted (and ignored) until the benchmark PR drops them.
    assert "sequential" in inspect.signature(quantize_static).parameters
    assert QuantConfig().sequential_calibration is False


# ---------------------------------------------------------------------- #
# Serving integration
# ---------------------------------------------------------------------- #
def _requests(count: int, model: str, seed: int = 0) -> list[Request]:
    rng = np.random.default_rng(seed)
    return [Request(i, model, 0.002 * i,
                    rng.standard_normal((3, IMAGE_SIZE, IMAGE_SIZE)))
            for i in range(count)]


def test_serve_preloads_deployment_and_is_bit_exact(lenet_deployment):
    server = lenet_deployment.serve(ServeConfig(),
                                    compute_time_fn=lambda m, f: 1e-3)
    assert server.cache.peek("lenet_nano") is lenet_deployment
    requests = _requests(12, "lenet_nano", seed=4)
    report = server.serve(requests)
    assert report.completed == len(requests)
    assert server.cache.stats()["misses"] == 0, "the deployment must not recompile"
    by_id = {r.request_id: r for r in requests}
    for outcome in report.outcomes:
        direct = lenet_deployment.run_partial(by_id[outcome.request_id].image[None])
        np.testing.assert_array_equal(outcome.codes, direct.codes[0])


def test_serve_artifact_dir_gives_disk_tier_to_fleet(lenet_deployment, tmp_path):
    serve_config = ServeConfig(fleet=("vgg_nano",), artifact_dir=tmp_path,
                               cache_capacity=2)
    first = lenet_deployment.serve(serve_config, compute_time_fn=lambda m, f: 1e-3)
    # Both the compiled-on-miss vgg AND the preloaded deployment persist.
    assert first.cache.stats()["disk_stores"] == 2
    assert len(list(tmp_path.glob("vgg_nano-*.rpa"))) == 1
    assert len(list(tmp_path.glob("lenet_nano-*.rpa"))) == 1

    before = PIPELINE_COUNTERS.snapshot()
    second = lenet_deployment.serve(serve_config, compute_time_fn=lambda m, f: 1e-3)
    stats = second.cache.stats()
    assert stats["disk_hits"] == 1, "second fleet must warm vgg from disk"
    assert stats["recompiles"] == 0, "a disk-tier load is not a recompile"
    delta = PIPELINE_COUNTERS.delta(before)
    assert delta["lowerings"] == 0 and delta["optimizations"] == 0
    assert delta["autotune_runs"] == 0 and delta["tape_autotune_runs"] == 0

    requests = _requests(8, "vgg_nano", seed=5)
    codes_first = [o.codes for o in first.serve(requests).outcomes]
    codes_second = [o.codes for o in second.serve(requests).outcomes]
    for a, b in zip(codes_first, codes_second):
        np.testing.assert_array_equal(a, b)
