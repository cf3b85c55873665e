"""Persistent plan artifacts: content-addressed serialization of compiled plans.

An artifact is one ``.rpa`` file (a zip container) holding everything a
fresh process needs to serve a compiled model *without re-running any stage
of the compile pipeline*:

* ``plan.pkl`` — the (optimized) execution plan: lowered steps, weight
  codes, prepacked kernel layouts, and the autotuner's cached kernel choices;
* ``manifest.json`` — format version, the plan's content fingerprint, the
  originating :class:`~repro.deploy.CompileConfig`, the optimizer pass log,
  the kernel-choice table, and a SHA-256 of the payload.

Two hashes with two jobs:

* :func:`config_key` — hash of *(model name, compile config)*.  Computable
  before compiling, so the serving cache's disk tier can look up an
  artifact for a model it has never compiled in this process.
* :func:`plan_fingerprint` — hash of the plan *content* (step structure,
  weight codes, quantization stages).  Recomputed at load and compared to
  the manifest; a mismatch means the payload no longer matches what the
  manifest claims (stale or tampered artifact) and loading refuses.

The payload checksum catches bit-rot and truncation before unpickling is
attempted.  Artifacts are trusted local files — the payload is a pickle,
so never load artifacts from untrusted sources.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
import zipfile
from pathlib import Path

import numpy as np

from ..engine.optimizer import OptimizedPlan
from ..engine.plan import ExecutionPlan
from .config import CompileConfig

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "ARTIFACT_SUFFIX",
    "ArtifactError",
    "ArtifactVersionError",
    "plan_fingerprint",
    "config_key",
    "artifact_path",
    "save_artifact",
    "load_artifact",
]

ARTIFACT_FORMAT = "repro-plan-artifact"
#: Version 3: optimized plans execute only as tapes — the pickled steps carry
#: window-einsum weight layouts instead of im2col ones and one
#: ``kernel_choices`` table (the tape autotuner's) instead of two.  Version-1
#: and version-2 artifacts are migrated by re-lowering from their manifest's
#: compile config — see :meth:`repro.deploy.Deployment.load`.
ARTIFACT_VERSION = 3
ARTIFACT_SUFFIX = ".rpa"

#: step attributes derived deterministically from other fingerprinted state
#: (prepacked kernel layouts are recomputed from the weight codes)
_DERIVED_STEP_KEYS = frozenset({"packed"})


class ArtifactError(RuntimeError):
    """The artifact cannot be read: missing, corrupt, stale, or wrong format."""


class ArtifactVersionError(ArtifactError):
    """The artifact is a readable older format version.

    Carries the parsed manifest so callers can migrate (re-lower from the
    stored compile config) instead of failing — see
    :meth:`repro.deploy.Deployment.load`.
    """

    def __init__(self, message: str, manifest: dict) -> None:
        super().__init__(message)
        self.manifest = manifest


# ---------------------------------------------------------------------- #
# Content fingerprinting
# ---------------------------------------------------------------------- #
def _feed(h, obj) -> None:
    """Canonical, recursive hash update over plan-step object graphs."""
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + str(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + repr(float(obj)).encode())
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"S" + str(len(data)).encode() + b":" + data)
    elif isinstance(obj, bytes):
        h.update(b"Y" + str(len(obj)).encode() + b":" + obj)
    elif isinstance(obj, np.dtype):
        h.update(b"D" + obj.str.encode())
    elif isinstance(obj, np.ndarray):
        h.update(b"A" + obj.dtype.str.encode() + repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"L" + str(len(obj)).encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, dict):
        h.update(b"M" + str(len(obj)).encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    elif hasattr(obj, "__dict__"):
        # Plan steps and QuantStage instances: hash the class name plus the
        # instance state, minus derived caches.
        h.update(b"O" + type(obj).__name__.encode())
        state = {k: v for k, v in vars(obj).items() if k not in _DERIVED_STEP_KEYS}
        _feed(h, state)
    else:
        raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}")


def plan_fingerprint(plan: ExecutionPlan) -> str:
    """Content hash of a plan: graph identity, step structure, weight codes.

    Tuning state (autotune kernel choices, the optimizer report) is
    deliberately excluded — two plans that compute the same integer function
    through the same steps fingerprint identically regardless of which
    kernel variants they ended up running.
    """
    h = hashlib.sha256()
    _feed(h, (plan.graph_name, plan.input_name, plan.output_name))
    _feed(h, list(plan.steps))
    return h.hexdigest()


def config_key(model: str, config: CompileConfig) -> str:
    """Content address of *(model, compile config)* — computable pre-compile."""
    payload = json.dumps({"model": model, "config": config.to_dict()},
                         sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def artifact_path(directory: str | Path, model: str, config: CompileConfig) -> Path:
    """Canonical artifact location for a model/config pair in a cache dir."""
    return Path(directory) / f"{model}-{config_key(model, config)}{ARTIFACT_SUFFIX}"


# ---------------------------------------------------------------------- #
# Save / load
# ---------------------------------------------------------------------- #
def save_artifact(path: str | Path, plan: ExecutionPlan, *, model: str,
                  input_shape: tuple[int, ...], accumulate: str = "blas",
                  config: CompileConfig | None = None) -> dict:
    """Write a plan artifact; returns the manifest that was stored.

    The plan is serialized as-is — including prepacked weights and any
    cached autotune choices — so a load skips lowering, optimization and
    micro-profiling entirely.
    """
    path = Path(path)
    payload = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
    optimized = isinstance(plan, OptimizedPlan)
    manifest = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "model": model,
        "graph": plan.graph_name,
        "fingerprint": plan_fingerprint(plan),
        "config": config.to_dict() if config is not None else None,
        "input_shape": [int(s) for s in input_shape],
        "accumulate": accumulate,
        "optimized": optimized,
        "pass_log": (list(plan.report.passes)
                     if optimized and plan.report is not None else []),
        "optimizer_report": (plan.report.to_dict()
                             if optimized and plan.report is not None else None),
        "kernel_choices": (dict(plan.kernel_choices)
                           if optimized and plan.kernel_choices else None),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload_bytes": len(payload),
        "numpy": np.__version__,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("manifest.json", json.dumps(manifest, indent=2, sort_keys=True))
        archive.writestr("plan.pkl", payload)
    # Write-then-rename so a crashed save never leaves a half-written
    # artifact where the cache's disk tier would try to load it.
    temp = path.with_suffix(path.suffix + ".tmp")
    temp.write_bytes(buffer.getvalue())
    temp.replace(path)
    return manifest


def load_artifact(path: str | Path) -> tuple[ExecutionPlan, dict]:
    """Read an artifact back; returns ``(plan, manifest)``.

    Raises :class:`ArtifactError` with a specific reason when the file is
    missing, not an artifact, a different format version, corrupt (payload
    checksum mismatch), or stale (plan content no longer matches the
    manifest's fingerprint).
    """
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"artifact {path} does not exist")
    try:
        archive = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise ArtifactError(f"{path} is not a plan artifact (not a zip "
                            f"container): {exc}") from exc
    with archive:
        names = set(archive.namelist())
        if "manifest.json" not in names or "plan.pkl" not in names:
            raise ArtifactError(
                f"artifact {path} is corrupt: missing "
                f"{sorted({'manifest.json', 'plan.pkl'} - names)}")
        try:
            manifest = json.loads(archive.read("manifest.json"))
        except (json.JSONDecodeError, UnicodeDecodeError,
                zipfile.BadZipFile) as exc:
            raise ArtifactError(f"artifact {path} is corrupt: unreadable "
                                f"manifest ({exc})") from exc
        try:
            payload = archive.read("plan.pkl")
        except zipfile.BadZipFile as exc:
            raise ArtifactError(f"artifact {path} is corrupt: plan payload "
                                f"unreadable ({exc})") from exc
    if manifest.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(f"{path} is not a plan artifact "
                            f"(format {manifest.get('format')!r})")
    version = manifest.get("version")
    if version != ARTIFACT_VERSION:
        if isinstance(version, int) and 0 < version < ARTIFACT_VERSION:
            raise ArtifactVersionError(
                f"artifact {path} has older format version {version}; this "
                f"build writes version {ARTIFACT_VERSION} — migrate by "
                f"re-lowering from the manifest config "
                f"(repro.deploy.Deployment.load does this automatically)",
                manifest)
        raise ArtifactError(f"artifact {path} has format version "
                            f"{version!r}; this build reads "
                            f"version {ARTIFACT_VERSION}")
    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest.get("payload_sha256"):
        raise ArtifactError(f"artifact {path} is corrupt: payload checksum "
                            f"{digest[:12]}… does not match the manifest")
    try:
        plan = pickle.loads(payload)
    except Exception as exc:
        raise ArtifactError(f"artifact {path} is corrupt: plan payload "
                            f"failed to deserialize ({exc})") from exc
    if not isinstance(plan, ExecutionPlan):
        raise ArtifactError(f"artifact {path} is corrupt: payload is a "
                            f"{type(plan).__name__}, not an execution plan")
    fingerprint = plan_fingerprint(plan)
    if fingerprint != manifest.get("fingerprint"):
        raise ArtifactError(
            f"artifact {path} is stale: plan content fingerprint "
            f"{fingerprint[:12]}… does not match the manifest's "
            f"{str(manifest.get('fingerprint'))[:12]}… — the artifact no "
            f"longer matches the graph/quantization state it claims; recompile")
    return plan, manifest
