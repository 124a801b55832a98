"""Durable checkpoints of the streaming network detector.

A checkpoint is a directory holding a small family of files:

* ``state-<sha256 prefix>.npz`` — every numerical array of the detector
  state (per-type moment engines, calibrated snapshots) in float64, which
  round-trips bit-for-bit; the name carries a digest of the file contents;
* ``manifest.json`` — the **current** manifest: format version, the
  :class:`~repro.streaming.config.StreamingConfig`, all scalar state
  (stream positions, weights, aggregator watermark and open event run, the
  report accumulated so far), the expected npz array names, and the name +
  full SHA-256 of the arrays file it was written against;
* ``manifest-<NNNNNN>.json`` — one manifest per retained **generation**
  (the fallback chain): each save appends a new generation and garbage
  collects beyond ``keep_generations``, so a torn or bit-flipped current
  checkpoint can fall back to the newest older generation that still
  verifies (:func:`load_checkpoint` with ``fallback=True``);
* ``quarantine/`` — corrupt manifests/arrays are **moved** here (never
  deleted) by a fallback load, preserving the evidence for post-mortems.

Because the whole numerical trajectory is restored exactly, a detector
restored mid-stream and fed the remaining chunks emits the **identical**
remaining event list an uninterrupted run would have produced — the
restart-parity guarantee enforced by the ``checkpoint_restart`` and
``service_*`` cells of ``tests/test_driver_oracle.py`` (the latter also
through torn-write recovery).

Usage::

    detector.save("ckpt/")                      # between two chunks
    detector = StreamingNetworkDetector.restore("ckpt/")
    for chunk in remaining_chunks:              # e.g. a ChunkedSeriesSource
        detector.process_chunk(chunk)           #     with start_bin=...
    report = detector.finish()
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zipfile
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.streaming.pipeline import StreamingNetworkDetector
from repro.utils.validation import require

__all__ = ["CHECKPOINT_FORMAT_VERSION", "MANIFEST_FILENAME",
           "ARRAYS_FILENAME_PREFIX", "QUARANTINE_DIRNAME",
           "save_checkpoint", "load_checkpoint", "has_checkpoint"]

#: Bumped whenever the on-disk layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 1
MANIFEST_FILENAME = "manifest.json"
ARRAYS_FILENAME_PREFIX = "state-"
QUARANTINE_DIRNAME = "quarantine"

#: How many verified generations a save retains by default.
DEFAULT_KEEP_GENERATIONS = 3

_GENERATION_MANIFEST_RE = re.compile(r"^manifest-(\d{6,})\.json$")


def _sha256_of_file(path: Path) -> str:
    """SHA-256 of a file in fixed-size chunks (O(1) extra memory)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _generation_manifests(path: Path) -> List[Path]:
    """Generation manifests in the directory, oldest first."""
    found = []
    for candidate in path.glob("manifest-*.json"):
        match = _GENERATION_MANIFEST_RE.match(candidate.name)
        if match is not None:
            found.append((int(match.group(1)), candidate))
    return [p for _, p in sorted(found)]


def _generation_number(manifest_path: Path) -> int:
    match = _GENERATION_MANIFEST_RE.match(manifest_path.name)
    return int(match.group(1)) if match else 0


def has_checkpoint(directory: Union[str, Path]) -> bool:
    """Whether *directory* holds a current or fallback-generation manifest."""
    path = Path(directory)
    return (path / MANIFEST_FILENAME).is_file() or \
        bool(_generation_manifests(path))


def save_checkpoint(detector: StreamingNetworkDetector,
                    directory: Union[str, Path],
                    keep_generations: int = DEFAULT_KEEP_GENERATIONS) -> Path:
    """Write *detector*'s complete state into *directory*.

    A :class:`~repro.streaming.hierarchy.HierarchicalNetworkDetector` is a
    network detector whose ``state_dict()`` already holds the merged flat
    state, so every checkpoint on disk — flat or per-PoP — has one format
    and restores through :func:`load_checkpoint` into an ordinary
    single-process detector.

    The directory is created if needed.  Overwriting an existing checkpoint
    is crash-consistent: the arrays land under a content-addressed name
    (``state-<digest>.npz``) that never clobbers the previous save, the
    generation manifest and then the current manifest referencing them are
    moved into place with :func:`os.replace`, and only then are files
    beyond the last *keep_generations* verified generations garbage
    collected.  A crash at any point therefore leaves the previous
    checkpoint loadable (or the new one, once its manifest landed), and a
    manifest paired with the wrong arrays file is rejected at load time by
    the recorded SHA-256 instead of silently resuming from corrupt state.
    """
    require(int(keep_generations) >= 1, "keep_generations must be >= 1")
    _require_same_lineage(Path(directory), getattr(detector, "run_id", None))
    telemetry = getattr(detector, "_telemetry", None)
    if telemetry is None:
        return _save_checkpoint(detector, directory, int(keep_generations))
    # Count first: the registry is serialized inside the save, so the
    # checkpoint (and a run restored from it) includes its own write.
    telemetry.registry.counter(
        "checkpoints", help="Checkpoints written").inc()
    with telemetry.span("checkpoint"):
        path = _save_checkpoint(detector, directory, int(keep_generations))
    return path


def _require_same_lineage(path: Path, run_id) -> None:
    """Refuse to overwrite (and garbage-collect) a foreign checkpoint.

    Two detectors pointed at one directory would otherwise destroy each
    other silently: the stale-GC after a save unlinks every unreferenced
    ``state-*.npz``, including the other run's arrays.  A manifest carrying
    a different lineage ``run_id`` therefore aborts the save with a clear
    error.  Manifests without a ``run_id`` (pre-lineage format) and
    detectors without one (``run_id=None``) stay overwritable for
    compatibility.
    """
    manifest_path = path / MANIFEST_FILENAME
    if run_id is None or not manifest_path.is_file():
        return
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            existing = json.load(handle)
        existing_id = existing.get("meta", {}).get("run_id")
    except (OSError, json.JSONDecodeError, AttributeError):
        # Unreadable manifest: nothing trustworthy to protect — the save
        # replaces it atomically either way.
        return
    require(existing_id is None or existing_id == run_id,
            f"checkpoint directory {path} holds a checkpoint from a "
            f"different detector run ({existing_id!r}); refusing to "
            f"overwrite it — use a separate directory per detector, or "
            f"restore from this checkpoint to continue its run")


def _next_generation(path: Path) -> int:
    """One past the highest generation on disk (current manifest included)."""
    highest = 0
    for manifest_path in _generation_manifests(path):
        highest = max(highest, _generation_number(manifest_path))
    try:
        with open(path / MANIFEST_FILENAME, "r", encoding="utf-8") as handle:
            highest = max(highest, int(json.load(handle).get("generation", 0)))
    except (OSError, json.JSONDecodeError, TypeError, ValueError):
        pass
    return highest + 1


def _write_manifest(text: str, target: Path) -> None:
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def _save_checkpoint(detector: StreamingNetworkDetector,
                     directory: Union[str, Path],
                     keep_generations: int = DEFAULT_KEEP_GENERATIONS) -> Path:
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    state = detector.state_dict()
    arrays = state["arrays"]
    generation = _next_generation(path)

    arrays_tmp = path / (ARRAYS_FILENAME_PREFIX + "incoming.npz.tmp")
    with open(arrays_tmp, "wb") as handle:
        np.savez(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())
    digest = _sha256_of_file(arrays_tmp)
    arrays_name = f"{ARRAYS_FILENAME_PREFIX}{digest[:16]}.npz"
    os.replace(arrays_tmp, path / arrays_name)
    # Make the arrays rename durable before the manifest can reference it:
    # POSIX does not order the two rename metadata updates otherwise.
    _fsync_directory(path)

    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "generation": generation,
        "meta": state["meta"],
        "array_names": sorted(arrays.keys()),
        "arrays_file": arrays_name,
        "arrays_sha256": digest,
    }
    # One encoding (the C encoder: no indent) for both copies.  Generation
    # manifest first, current manifest last: a crash in between leaves the
    # previous current manifest valid and the new generation reachable
    # through the fallback chain.
    text = json.dumps(manifest, sort_keys=True) + "\n"
    _write_manifest(text, path / f"manifest-{generation:06d}.json")
    _fsync_directory(path)
    _write_manifest(text, path / MANIFEST_FILENAME)
    _fsync_directory(path)

    _collect_stale_generations(path, manifest, keep_generations)
    return path


def _collect_stale_generations(path: Path, current: dict,
                               keep_generations: int) -> None:
    """Drop generations beyond the retention window, then orphaned arrays.

    Only runs after the new manifest pair is durable, so a power loss
    before this point leaves the old checkpoint loadable.  Generation
    manifests from a *different* lineage (a legacy same-directory reuse)
    are dropped outright — their arrays would otherwise pin foreign state
    forever.  The quarantine subdirectory is never touched.
    """
    current_run = current.get("meta", {}).get("run_id")
    kept: List[Path] = []
    for manifest_path in reversed(_generation_manifests(path)):
        lineage_ok = True
        if current_run is not None:
            try:
                with open(manifest_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle).get("meta", {})
                recorded = meta.get("run_id")
                lineage_ok = recorded is None or recorded == current_run
            except (OSError, json.JSONDecodeError, AttributeError):
                lineage_ok = False
        if lineage_ok and len(kept) < keep_generations:
            kept.append(manifest_path)
        else:
            manifest_path.unlink(missing_ok=True)

    referenced = {str(current.get("arrays_file"))}
    for manifest_path in kept:
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                referenced.add(str(json.load(handle).get("arrays_file")))
        except (OSError, json.JSONDecodeError):
            pass
    for stale in path.glob(ARRAYS_FILENAME_PREFIX + "*.npz"):
        if stale.name not in referenced:
            stale.unlink(missing_ok=True)


def _fsync_directory(path: Path) -> None:
    """Flush directory metadata (the renames) where the platform allows it."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _verify_and_load(path: Path,
                     manifest_path: Path) -> StreamingNetworkDetector:
    """Strictly verify one manifest + arrays pair and rebuild the detector."""
    require(manifest_path.is_file(),
            f"no checkpoint manifest at {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    require(manifest.get("format_version") == CHECKPOINT_FORMAT_VERSION,
            f"unsupported checkpoint format version "
            f"{manifest.get('format_version')!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})")
    arrays_path = path / str(manifest.get("arrays_file"))
    require(arrays_path.is_file(), f"no checkpoint arrays at {arrays_path}")
    digest = _sha256_of_file(arrays_path)
    require(digest == manifest.get("arrays_sha256"),
            "checkpoint arrays do not match the manifest checksum "
            "(arrays npz and manifest.json are from different saves)")
    with np.load(arrays_path, allow_pickle=False) as stored:
        arrays = {name: stored[name] for name in stored.files}
    require(sorted(arrays.keys()) == list(manifest["array_names"]),
            "checkpoint arrays do not match the manifest "
            "(truncated or mismatched state.npz)")
    return StreamingNetworkDetector.from_state(manifest["meta"], arrays)


def _quarantine(path: Path, victim: Path) -> None:
    """Move a corrupt checkpoint file aside (never delete the evidence)."""
    if not victim.exists():
        return
    pen = path / QUARANTINE_DIRNAME
    pen.mkdir(exist_ok=True)
    target = pen / victim.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = pen / f"{victim.name}.{suffix}"
    os.replace(victim, target)


def _broken_files(path: Path, manifest_path: Path) -> List[Path]:
    """The file(s) a failed verification condemns: always the manifest,
    plus its arrays file when that exists but failed the digest/name
    check (a missing arrays file has nothing to move)."""
    victims = [manifest_path]
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            arrays_file = str(json.load(handle).get("arrays_file"))
        arrays_path = path / arrays_file
        if arrays_path.is_file():
            victims.append(arrays_path)
    except (OSError, json.JSONDecodeError, AttributeError):
        pass
    return victims


def load_checkpoint(directory: Union[str, Path], fallback: bool = False,
                    registry=None) -> StreamingNetworkDetector:
    """Rebuild a :class:`StreamingNetworkDetector` from a checkpoint directory.

    With ``fallback=False`` (the default) only the current manifest is
    considered and any corruption is a hard :class:`ValueError`.  With
    ``fallback=True`` the load walks the generation chain newest-first
    until a pair verifies end to end (manifest parse, format version,
    arrays present, SHA-256, array names); each failing pair is **moved**
    into ``quarantine/`` — preserving the evidence — and counted.  Pass a
    :class:`~repro.telemetry.registry.MetricsRegistry` as *registry* to
    surface ``checkpoint_fallbacks`` (loads that had to skip the newest
    state) and ``checkpoints_quarantined`` (files moved aside).
    """
    path = Path(directory)
    if not fallback:
        return _verify_and_load(path, path / MANIFEST_FILENAME)

    candidates: List[Path] = []
    current = path / MANIFEST_FILENAME
    if current.is_file():
        candidates.append(current)
    generations = list(reversed(_generation_manifests(path)))
    # The current manifest duplicates the newest generation; keep both in
    # the walk (either copy may be the torn one) but load whichever
    # verifies first.
    candidates.extend(generations)
    require(bool(candidates), f"no checkpoint manifest at {current}")

    quarantined = 0
    errors: List[str] = []
    for index, manifest_path in enumerate(candidates):
        try:
            detector = _verify_and_load(path, manifest_path)
        except (ValueError, OSError, KeyError, json.JSONDecodeError,
                zipfile.BadZipFile) as exc:
            errors.append(f"{manifest_path.name}: {exc}")
            for victim in _broken_files(path, manifest_path):
                _quarantine(path, victim)
                quarantined += 1
            continue
        if registry is not None:
            if quarantined:
                registry.counter(
                    "checkpoints_quarantined",
                    help="Corrupt checkpoint files moved to quarantine",
                ).inc(quarantined)
            if index > 0:
                registry.counter(
                    "checkpoint_fallbacks",
                    help="Checkpoint loads that fell back past corrupt "
                         "generations").inc()
        return detector
    if registry is not None and quarantined:
        registry.counter(
            "checkpoints_quarantined",
            help="Corrupt checkpoint files moved to quarantine",
        ).inc(quarantined)
    raise ValueError(
        "no loadable checkpoint generation in "
        f"{path} — every candidate failed verification: "
        + "; ".join(errors))


def newest_generation(directory: Union[str, Path]) -> Optional[int]:
    """The highest generation number on disk, ``None`` when empty."""
    path = Path(directory)
    generations = _generation_manifests(path)
    highest = _generation_number(generations[-1]) if generations else 0
    try:
        with open(path / MANIFEST_FILENAME, "r", encoding="utf-8") as handle:
            highest = max(highest, int(json.load(handle).get("generation", 0)))
    except (OSError, json.JSONDecodeError, TypeError, ValueError):
        pass
    return highest if highest > 0 else None
