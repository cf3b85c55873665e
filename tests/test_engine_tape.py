"""Tape executor: parity vs the oracle, fusion, megabatch, serving.

The tape (:mod:`repro.engine.program`) must be *bit-exact* with the oracle —
the unoptimized plan, step-interpreted with int64 accumulation — on every
registry model, fused chains on and off, and the megabatch packing must
slice outputs identically to serving each fill alone.  Real-execution
serving must reproduce the virtual loop's output codes request for request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import deploy
from repro.deploy import CompileConfig, QuantConfig, RuntimeConfig
from repro.engine import (
    BatchedRunner,
    ElementwiseChain,
    PlanError,
    check_engine_parity,
    pack_partial_fills,
)
from repro.engine.program import TapeProgram, compile_tape
from repro.models import MODEL_REGISTRY
from repro.serving import SCENARIOS, FleetServer, generate_requests
from repro.serving.workload import fleet_input_shapes

IMAGE_SIZE = 8
BATCH = 4

SMALL = CompileConfig(
    image_size=IMAGE_SIZE,
    quant=QuantConfig(calibration_samples=8, calibration_batch_size=4),
    runtime=RuntimeConfig(batch_size=BATCH),
)
#: the one independent reference: no optimizer passes, pure-int64
#: accumulation, the step interpreter instead of the tape
ORACLE = SMALL.with_overrides(optimize=False, accumulate="int", mode="steps")


def _batches(count: int = 2, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((BATCH, 3, IMAGE_SIZE, IMAGE_SIZE))
            for _ in range(count)]


@pytest.fixture(scope="module")
def mobilenet():
    return deploy.compile("mobilenet_v1_nano", SMALL)


@pytest.fixture(scope="module")
def mobilenet_oracle():
    return deploy.compile("mobilenet_v1_nano", ORACLE)


# ---------------------------------------------------------------------- #
# Tape vs oracle parity
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
def test_default_deployment_matches_oracle_on_registry_model(model_name):
    deployment = deploy.compile(model_name, SMALL)
    oracle = deploy.compile(model_name, ORACLE)
    engine = deployment.engine
    assert engine.mode == "tape"
    assert isinstance(engine.tape, TapeProgram)
    assert not any(instr.kind.startswith("legacy") for instr in engine.tape.items)
    # Twice in a row: cross-pass state (shared scratch, zero borders, the
    # stacked buffers' zero fringes) must not corrupt later passes.
    for seed in (0, 9):
        batches = _batches(2, seed=seed)
        for batch in batches:
            np.testing.assert_array_equal(engine.run(batch).codes,
                                          oracle.run(batch).codes)
        parity = check_engine_parity(deployment.graph, engine, batches)
        assert parity.bit_exact, f"{model_name} vs simulation: {parity}"


def test_fused_and_unfused_tapes_are_bit_exact(mobilenet, mobilenet_oracle):
    fused = mobilenet.engine
    unfused = mobilenet.plan.bind(fused.input_shape, mode="tape", fuse=False)
    for batch in _batches(3, seed=3):
        reference = mobilenet_oracle.run(batch).codes
        np.testing.assert_array_equal(fused.run(batch).codes, reference)
        np.testing.assert_array_equal(unfused.run(batch).codes, reference)
    assert fused.tape.report["mode"] == "fused"
    assert unfused.tape.report["mode"] == "unfused"
    # Fusion must not *add* work: the fused tape emits no more chain ops.
    assert (fused.tape.report["chain_ops_emitted"]
            <= unfused.tape.report["chain_ops_emitted"])


def test_steps_mode_engine_compiles_no_tape(mobilenet_oracle):
    engine = mobilenet_oracle.engine
    assert engine.mode == "steps" and engine.tape is None
    engine.run(_batches(1)[0])
    assert engine.tape is None


def test_compiles_choose_the_same_kernels_without_timing(mobilenet, monkeypatch):
    """Kernel choice is a rule: two compiles bind identical kernels, one per
    compute step, and nothing is timed on the way."""
    from repro.engine import PIPELINE_COUNTERS, program

    class Clock:
        reads = 0

        @classmethod
        def perf_counter(cls):
            cls.reads += 1
            return 0.0

    monkeypatch.setattr(program, "time", Clock)
    before = PIPELINE_COUNTERS.snapshot()
    again = deploy.compile("mobilenet_v1_nano", SMALL)
    rebound = mobilenet.plan.bind(mobilenet.engine.input_shape)
    delta = PIPELINE_COUNTERS.delta(before)
    assert Clock.reads == 0
    assert delta["tape_autotune_runs"] == delta["autotune_runs"] == 0
    choices = mobilenet.kernel_choices
    assert again.kernel_choices == rebound.tape.choices() == choices
    assert again.plan.kernel_choices == again.plan.tape_kernel_choices == choices
    compute = {step.name for step in mobilenet.plan.steps if hasattr(step, "packed_weight")}
    assert set(choices) == compute and len(compute) == 10
    for bound in mobilenet.engine.steps:
        if bound.step.name in compute:
            assert choices[bound.step.name].endswith(bound.lane.suffix)


@pytest.mark.parametrize("image_size, einsum_steps", [(8, set()),
                                                      (32, {"ir1_dw", "ir3_dw"})])
def test_depthwise_rule_sides_are_bit_exact(image_size, einsum_steps):
    """Small depthwise convs run the stacked GEMM, large ones the window
    einsum; both match the int64 oracle on a full batch and every fill."""
    config = CompileConfig(image_size=image_size,
                           quant=QuantConfig(calibration_samples=8,
                                             calibration_batch_size=4),
                           runtime=RuntimeConfig(batch_size=8))
    deployment = deploy.compile("mobilenet_v2_nano", config)
    oracle = deploy.compile("mobilenet_v2_nano", config.with_overrides(
        optimize=False, accumulate="int", mode="steps"))
    choices = deployment.kernel_choices
    depthwise = {step.name: choices[step.name] for step in deployment.plan.steps
                 if getattr(step, "is_depthwise", False)}
    assert len(depthwise) == 4
    assert {name for name, kernel in depthwise.items()
            if kernel.startswith("blas")} == einsum_steps
    assert all(kernel.startswith(("blas", "stackgemm")) for kernel in depthwise.values())
    for bucket in deployment.engine._buckets:
        assert bucket.tape.choices() == choices
    images = np.random.default_rng(image_size).standard_normal((8, 3, image_size, image_size))
    expected = oracle.run(images).codes
    np.testing.assert_array_equal(deployment.run(images).codes, expected)
    for fill in range(1, 9):
        np.testing.assert_array_equal(deployment.run_partial(images[:fill]).codes,
                                      expected[:fill], err_msg=f"fill {fill}")


def test_bucket_tapes_size_the_stack_cap_by_the_full_batch(monkeypatch):
    """A stack cap between a bucket's and the full batch's stack size sends
    the full batch to the einsum; its buckets follow it rather than stage
    stacks the full batch's arena lacks, and every fill stays bit-exact."""
    from repro.engine import program

    config = CompileConfig(image_size=IMAGE_SIZE,
                           quant=QuantConfig(calibration_samples=8,
                                             calibration_batch_size=4),
                           runtime=RuntimeConfig(batch_size=8))
    deployment = deploy.compile("resnet_nano", config)
    oracle = deploy.compile("resnet_nano", config.with_overrides(
        optimize=False, accumulate="int", mode="steps"))

    def per_image(bound):
        geometry = bound.lane.geometry
        kh, kw = geometry.kernel
        return kh * kw * geometry.in_channels * geometry.out_height * geometry.out_width

    stacked = [bound for bound in deployment.engine.steps
               if deployment.kernel_choices.get(bound.step.name, "").startswith("stackgemm")]
    largest = max(per_image(bound) for bound in stacked)
    monkeypatch.setattr(program, "STACKGEMM_MAX_ELEMENTS", 4 * largest)
    engine = deployment.plan.bind(deployment.engine.input_shape)
    choices = engine.tape.choices()
    capped = {bound.step.name for bound in stacked if per_image(bound) == largest}
    assert all(not choices[name].startswith("stackgemm") for name in capped)
    assert [bucket.batch_size for bucket in engine._buckets] == [1, 2, 4]
    for bucket in engine._buckets:
        assert bucket.tape.choices() == choices
    images = np.random.default_rng(3).standard_normal(engine.input_shape)
    expected = oracle.run(images).codes
    for fill in range(1, 9):
        np.testing.assert_array_equal(engine.run_partial(images[:fill]).codes,
                                      expected[:fill], err_msg=f"fill {fill}")


def test_a16_activations_bind_only_float64_lanes_bit_exact():
    """16-bit activations leave float32 unproven: every compute step binds
    its float64 lane, and the tape stays bit-exact."""
    from repro.quant import LayerPrecision

    config = SMALL.with_overrides(precision=LayerPrecision(activation_bits=16))
    deployment = deploy.compile("mobilenet_v1_nano", config)
    oracle = deploy.compile("mobilenet_v1_nano", config.with_overrides(
        optimize=False, accumulate="int", mode="steps"))
    assert deployment.kernel_choices
    assert not any(kernel.endswith("32") for kernel in deployment.kernel_choices.values())
    for batch in _batches(2, seed=5):
        np.testing.assert_array_equal(deployment.run(batch).codes, oracle.run(batch).codes)


def test_reference_plan_refuses_the_tape(mobilenet_oracle):
    """One executor per plan: the reference plan runs only on the step
    interpreter, and the error names the fix."""
    with pytest.raises(ValueError, match="optimize=True"):
        mobilenet_oracle.plan.bind(mobilenet_oracle.engine.input_shape, mode="tape")
    with pytest.raises(ValueError, match="optimize=True"):
        deploy.compile("lenet_nano", SMALL.with_overrides(optimize=False, mode="tape"))
    with pytest.raises(PlanError, match="optimize"):
        compile_tape(mobilenet_oracle.engine)


# ---------------------------------------------------------------------- #
# The elementwise-chain compiler
# ---------------------------------------------------------------------- #
def test_chain_eliminates_provable_noops():
    src = np.arange(-8, 8, dtype=np.float64).reshape(4, 4)
    dst = np.empty_like(src)
    chain = ElementwiseChain(src, dst, bound=7.0, integral=True)
    chain.scale(1.0)     # identity scale
    chain.round()        # integral value
    chain.clip(-100, 100)  # bound 7 is inside
    calls, stats = chain.compile()
    assert stats["scale"] == 1 and stats["round"] == 1 and stats["clip"] == 1
    assert stats["copies"] == 1 and len(calls) == 1   # degenerates to a copy
    for fn, args in calls:
        fn(*args)
    np.testing.assert_array_equal(dst, src)


def test_chain_relu_slides_into_final_clip():
    src = np.array([-6.0, -1.0, 0.0, 3.0, 9.0])
    chain = ElementwiseChain(src, np.empty_like(src), bound=float("inf"),
                             integral=True)
    chain.relu()
    chain.scale(0.5)
    chain.round()
    chain.clip(-4, 4)
    calls, stats = chain.compile()
    assert stats["slid_clips"] == 1
    for fn, args in calls:
        fn(*args)
    expected = np.clip(np.rint(np.maximum(src, 0.0) * 0.5), -4, 4)
    np.testing.assert_array_equal(chain.dst, expected)


def test_chain_does_not_slide_off_grid_clip():
    # clip at 1.5 does not commute with rounding — must stay in place.
    src = np.array([1.7, 2.4, -3.0])
    chain = ElementwiseChain(src, np.empty_like(src), bound=float("inf"),
                             integral=False)
    chain.clip(0.0, 1.5)
    chain.scale(2.0)
    chain.round()
    chain.clip(-10, 10)
    calls, stats = chain.compile()
    assert stats["slid_clips"] == 0
    for fn, args in calls:
        fn(*args)
    expected = np.clip(np.rint(np.clip(src, 0.0, 1.5) * 2.0), -10, 10)
    np.testing.assert_array_equal(chain.dst, expected)


def test_chain_unfused_emits_everything():
    src = np.ones((2, 2))
    chain = ElementwiseChain(src, np.empty_like(src), bound=1.0, integral=True,
                             fuse=False)
    chain.scale(1.0)
    chain.round()
    chain.clip(-8, 8)
    calls, stats = chain.compile()
    assert stats["ops_emitted"] == 3 and len(calls) == 3


# ---------------------------------------------------------------------- #
# Megabatch coalescing
# ---------------------------------------------------------------------- #
def test_pack_partial_fills_is_order_preserving():
    assert pack_partial_fills([2, 2, 3, 4, 1], 4) == [[0, 1], [2], [3], [4]]
    assert pack_partial_fills([1, 1, 1, 1], 4) == [[0, 1, 2, 3]]
    assert pack_partial_fills([4], 4) == [[0]]
    with pytest.raises(ValueError):
        pack_partial_fills([5], 4)
    with pytest.raises(ValueError):
        pack_partial_fills([0], 4)


def test_megabatch_slicing_matches_run_partial_at_every_fill(mobilenet):
    engine = mobilenet.engine
    rng = np.random.default_rng(11)
    runner = BatchedRunner(engine)
    for fill in range(1, engine.batch_size + 1):
        groups = [rng.standard_normal((fill, 3, IMAGE_SIZE, IMAGE_SIZE)),
                  rng.standard_normal((max(1, engine.batch_size - fill),
                                       3, IMAGE_SIZE, IMAGE_SIZE))]
        outputs, executions = runner.run_partial_groups(groups)
        assert len(outputs) == 2
        assert 1 <= executions <= 2
        for group, output in zip(groups, outputs):
            direct = engine.run_partial(group)
            np.testing.assert_array_equal(output.codes, direct.codes)
            assert output.fraction == direct.fraction
            assert output.divisor == direct.divisor


def test_megabatch_packs_small_fills_into_one_execution(mobilenet):
    engine = mobilenet.engine
    rng = np.random.default_rng(12)
    groups = [rng.standard_normal((1, 3, IMAGE_SIZE, IMAGE_SIZE))
              for _ in range(engine.batch_size)]
    runner = BatchedRunner(engine)
    outputs, executions = runner.run_partial_groups(groups)
    assert executions == 1     # all fills share one tape pass
    assert len(outputs) == engine.batch_size


# ---------------------------------------------------------------------- #
# Real-execution serving
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def real_scenario_requests():
    scenario = SCENARIOS["sparse_poisson"]
    shapes = fleet_input_shapes(scenario.models, IMAGE_SIZE)
    return scenario, generate_requests(scenario, shapes, seed=4)


def _server(execution: str, **kwargs) -> FleetServer:
    return FleetServer(["lenet_nano", "mobilenet_v1_nano"], batch_size=BATCH,
                       image_size=IMAGE_SIZE,
                       compile_config=SMALL, execution=execution, **kwargs)


def test_real_execution_reports_wall_clock_metrics(real_scenario_requests):
    _, requests = real_scenario_requests
    server = _server("real", workers=2)
    report = server.serve(requests)
    assert report.execution == "real"
    assert report.metrics["execution"] == "real"
    fleet = report.fleet
    assert fleet["completed"] + fleet["shed"] == len(requests)
    assert fleet["completed"] > 0
    assert fleet["goodput_rps"] > 0, "wall-clock throughput must be measured"
    assert report.metrics["makespan_s"] > 0
    assert fleet["latency_ms"]["p99"] > 0
    server.close()


def test_real_execution_results_match_virtual_results(real_scenario_requests):
    """Output codes and the shed set are order-independent and bit-exact."""
    _, requests = real_scenario_requests
    virtual = _server("virtual").serve(requests)
    real = _server("real", workers=2).serve(requests)
    v_outcomes = {o.request_id: o for o in virtual.outcomes}
    r_outcomes = {o.request_id: o for o in real.outcomes}
    assert set(v_outcomes) == set(r_outcomes)
    # Virtual and real admission see different queue dynamics, so the shed
    # *sets* may differ; but every request completed by both must carry
    # identical codes, and the real run must be internally deterministic.
    both_completed = [rid for rid in v_outcomes
                     if v_outcomes[rid].completed and r_outcomes[rid].completed]
    assert both_completed
    for rid in both_completed:
        np.testing.assert_array_equal(v_outcomes[rid].codes,
                                      r_outcomes[rid].codes)
    again = _server("real", workers=2).serve(requests)
    a_outcomes = {o.request_id: o for o in again.outcomes}
    assert {rid for rid, o in a_outcomes.items() if o.status == "shed"} \
        == {rid for rid, o in r_outcomes.items() if o.status == "shed"}
    for rid, outcome in r_outcomes.items():
        if outcome.completed:
            np.testing.assert_array_equal(outcome.codes, a_outcomes[rid].codes)


def test_real_execution_rejects_unknown_mode():
    with pytest.raises(ValueError, match="execution"):
        _server("warp-speed")


def test_real_execution_surfaces_worker_failures_instead_of_hanging():
    """A poisoned request (NaN image) must raise, not deadlock the pool."""
    from repro.serving import Request

    rng = np.random.default_rng(3)
    requests = [Request(i, "lenet_nano", 0.0,
                        rng.standard_normal((3, IMAGE_SIZE, IMAGE_SIZE)),
                        deadline_s=None)
                for i in range(6)]
    poisoned = np.full((3, IMAGE_SIZE, IMAGE_SIZE), np.nan)
    requests.append(Request(6, "lenet_nano", 0.0, poisoned, deadline_s=None))
    server = _server("real", workers=2)
    with pytest.raises(ValueError, match="finite"):
        server.serve(requests)
    server.close()


# ---------------------------------------------------------------------- #
# Disk-tier GC
# ---------------------------------------------------------------------- #
def test_plan_cache_disk_tier_evicts_lru_by_mtime(tmp_path):
    import os
    import time as _time

    from repro.serving import PlanCache

    class FakeEntry:
        def __init__(self, payload: bytes) -> None:
            self.payload = payload

        def save(self, path):
            with open(path, "wb") as fh:
                fh.write(self.payload)

    compiled: list[str] = []

    def compile_fn(name):
        compiled.append(name)
        return FakeEntry(b"x" * 512)

    cache = PlanCache(4, compile_fn=compile_fn, artifact_dir=tmp_path,
                      disk_max_bytes=1100)
    for index, name in enumerate(["a", "b", "c"]):
        cache.get(name)
        # distinct mtimes so LRU order is deterministic
        artifact = cache.artifact_path(name)
        stamp = _time.time() + index
        os.utime(artifact, (stamp, stamp))
        cache._gc_disk()
    names = {p.name.split("-")[0] for p in tmp_path.glob("*.rpa")}
    assert names == {"b", "c"}, "oldest artifact must be evicted"
    assert cache.disk_evictions >= 1
    assert cache.stats()["disk_evictions"] == cache.disk_evictions
    assert cache.stats()["disk_max_bytes"] == 1100


def test_plan_cache_disk_gc_never_evicts_fresh_store(tmp_path):
    from repro.serving import PlanCache

    class BigEntry:
        def save(self, path):
            with open(path, "wb") as fh:
                fh.write(b"y" * 4096)

    cache = PlanCache(2, compile_fn=lambda name: BigEntry(),
                      artifact_dir=tmp_path, disk_max_bytes=1000)
    cache.get("only")
    assert cache.artifact_path("only").exists(), \
        "a store larger than the bound must not evict itself"


# ---------------------------------------------------------------------- #
# Artifact migration from older format versions
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("version", [1, 2])
def test_older_artifact_migrates_by_relowering(version, tmp_path, monkeypatch):
    import json
    import zipfile

    from repro.deploy import ARTIFACT_VERSION, Deployment, artifact
    from repro.engine import PIPELINE_COUNTERS

    fresh = deploy.compile("lenet_nano", SMALL)
    path = tmp_path / "legacy.rpa"
    monkeypatch.setattr(artifact, "ARTIFACT_VERSION", version)
    fresh.save(path)
    monkeypatch.undo()
    # Versions 1 and 2 stored the since-removed shard count in the runtime
    # config; migration re-lowers from that config, so it must still parse.
    with zipfile.ZipFile(path) as archive:
        manifest = json.loads(archive.read("manifest.json"))
        payload = archive.read("plan.pkl")
    manifest["config"]["runtime"]["workers"] = 2
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("manifest.json", json.dumps(manifest))
        archive.writestr("plan.pkl", payload)

    batch = _batches(1)[0]
    reference = fresh.run(batch).codes

    before = PIPELINE_COUNTERS.snapshot()
    with pytest.warns(UserWarning, match=f"format version {version}"):
        migrated = Deployment.load(path)
    delta = PIPELINE_COUNTERS.delta(before)
    assert delta["lowerings"] == 1, "migration re-lowers from the config"
    assert migrated.source == "artifact-migrated"
    np.testing.assert_array_equal(migrated.run(batch).codes, reference)

    # The artifact was rewritten in the current format: the next load is a
    # plain artifact load with zero pipeline work.
    before = PIPELINE_COUNTERS.snapshot()
    reloaded = Deployment.load(path)
    delta = PIPELINE_COUNTERS.delta(before)
    assert delta["lowerings"] == 0 and delta["autotune_runs"] == 0
    assert delta["tape_autotune_runs"] == 0
    assert reloaded.artifact_manifest["version"] == ARTIFACT_VERSION
    np.testing.assert_array_equal(reloaded.run(batch).codes, reference)


def test_v1_artifact_without_migration_raises(tmp_path, monkeypatch):
    from repro.deploy import ArtifactVersionError, Deployment, artifact

    fresh = deploy.compile("lenet_nano", SMALL)
    path = tmp_path / "legacy.rpa"
    monkeypatch.setattr(artifact, "ARTIFACT_VERSION", 1)
    fresh.save(path)
    monkeypatch.undo()
    with pytest.raises(ArtifactVersionError, match="older format version 1"):
        Deployment.load(path, migrate=False)


def test_v1_artifact_for_non_registry_model_raises_clearly(tmp_path, monkeypatch):
    """Migration only re-lowers registry compiles; others get a clear error."""
    import json
    import zipfile

    from repro.deploy import ArtifactVersionError, Deployment, artifact

    fresh = deploy.compile("lenet_nano", SMALL)
    path = tmp_path / "graph.rpa"
    monkeypatch.setattr(artifact, "ARTIFACT_VERSION", 1)
    fresh.save(path)
    monkeypatch.undo()
    # Rewrite the manifest to claim a non-registry (GraphIR-sourced) model.
    with zipfile.ZipFile(path) as archive:
        manifest = json.loads(archive.read("manifest.json"))
        payload = archive.read("plan.pkl")
    manifest["model"] = "custom_graph"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("manifest.json", json.dumps(manifest))
        archive.writestr("plan.pkl", payload)
    with pytest.raises(ArtifactVersionError, match="not a registry model"):
        Deployment.load(path)


def test_future_artifact_version_still_raises(tmp_path, monkeypatch):
    from repro.deploy import ArtifactError, Deployment, artifact

    fresh = deploy.compile("lenet_nano", SMALL)
    path = tmp_path / "future.rpa"
    monkeypatch.setattr(artifact, "ARTIFACT_VERSION", 99)
    fresh.save(path)
    monkeypatch.undo()
    with pytest.raises(ArtifactError):
        Deployment.load(path)


def test_artifact_carries_no_choice_table(tmp_path, mobilenet):
    path = tmp_path / "tape.rpa"
    mobilenet.save(path)
    loaded = deploy.Deployment.load(path)
    manifest = loaded.artifact_manifest
    assert manifest["version"] == deploy.ARTIFACT_VERSION == 4
    assert "kernel_choices" not in manifest and "tape_kernel_choices" not in manifest
    assert loaded.engine.mode == "tape"
    assert loaded.engine.tape.choices() == mobilenet.kernel_choices
