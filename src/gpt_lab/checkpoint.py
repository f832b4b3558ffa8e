"""Versioned, fingerprinted parameter blobs.

The container is a deliberately boring binary format: a magic line, a
length-prefixed canonical-JSON header describing the arrays, then the raw
little-endian float64 array bytes in header order. Writing the same state
twice produces byte-identical files, which archive formats with embedded
timestamps would not. Format 2, the one format read or written, stores
a transformer layer's query, key and value weights as one array;
``load_backbone`` checks every array's name and shape against the
stored config's parameters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from gpt_lab.models import Backbone, BackboneConfig
from gpt_lab.tensor import ContractError, ShapeError

__all__ = [
    "CheckpointError",
    "CheckpointMismatchError",
    "FORMAT_VERSION",
    "fingerprint",
    "save_backbone",
    "load_backbone",
    "save_prompt",
    "load_prompt",
]

FORMAT_VERSION = 2
_MAGIC = b"GPTLABCKPT\n"


class CheckpointError(ValueError):
    """Corrupt or wrong-format checkpoint file."""


class CheckpointMismatchError(CheckpointError):
    """Checkpoint does not match the configured backbone."""


def fingerprint(cfg: BackboneConfig) -> str:
    """Stable digest of everything that shapes the backbone's parameters."""
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _write(path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    order = sorted(arrays)
    meta = dict(meta)
    meta["format_version"] = FORMAT_VERSION
    meta["arrays"] = [{"name": name, "shape": list(arrays[name].shape)}
                      for name in order]
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for name in order:
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())


def _entries(path, listed) -> list[tuple[str, tuple[int, ...]]]:
    """The name and shape of each array that a header lists, each entry an
    object with a string ``name`` and a ``shape`` of non-negative ints."""
    if not isinstance(listed, list):
        raise CheckpointError(f"{path}: header field 'arrays' is not a list")
    entries = []
    for entry in listed:
        if not isinstance(entry, dict):
            raise CheckpointError(f"{path}: array entry {entry!r} is not an object")
        name, shape = entry["name"], entry["shape"]
        if not isinstance(name, str):
            raise CheckpointError(f"{path}: array name {name!r} is not a string")
        if not isinstance(shape, list) or not all(type(n) is int for n in shape):
            raise CheckpointError(f"{path}: array {name}: shape {shape!r} is not a list of ints")
        if any(n < 0 for n in shape):
            raise CheckpointError(f"{path}: array {name}: shape {shape} has a negative size")
        entries.append((name, tuple(shape)))
    return entries


def _read(path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    if not raw.startswith(_MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    pos = len(_MAGIC)
    if len(raw) < pos + 8:
        raise CheckpointError(f"{path}: truncated header")
    header_len = int.from_bytes(raw[pos:pos + 8], "little")
    pos += 8
    try:
        meta = json.loads(raw[pos:pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: bad header ({exc})") from None
    pos += header_len
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if meta.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version "
                              f"{meta.get('format_version')!r}")
    try:
        entries = _entries(path, meta["arrays"])
    except KeyError as exc:
        raise CheckpointError(f"{path}: header has no {exc} field") from None
    arrays = {}
    for name, shape in entries:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if pos + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated array data for {name}")
        arrays[name] = np.frombuffer(raw[pos:pos + nbytes], dtype="<f8").reshape(shape).copy()
        pos += nbytes
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes")
    return meta, arrays


def save_backbone(path, cfg: BackboneConfig, state: dict[str, np.ndarray]) -> None:
    meta = {
        "kind": "backbone",
        "fingerprint": fingerprint(cfg),
        "config": dataclasses.asdict(cfg),
    }
    _write(path, meta, state)


def load_backbone(path, expected: BackboneConfig | None = None
                  ) -> tuple[BackboneConfig, dict[str, np.ndarray]]:
    meta, arrays = _read(path)
    if meta.get("kind") != "backbone":
        raise CheckpointError(f"{path}: not a backbone checkpoint")
    try:
        cfg = BackboneConfig(**meta["config"])
    except (KeyError, TypeError, ContractError) as exc:
        raise CheckpointError(f"{path}: bad backbone config ({exc})") from None
    stored = meta.get("fingerprint")
    if stored != fingerprint(cfg):
        raise CheckpointError(f"{path}: fingerprint does not match stored config")
    if expected is not None and stored != fingerprint(expected):
        raise CheckpointMismatchError(
            f"{path}: checkpoint fingerprint {stored[:12]}... does not match the "
            f"configured backbone {fingerprint(expected)[:12]}...")
    try:
        Backbone.from_state(cfg, arrays)   # the names and shapes of cfg's parameters
    except (ContractError, ShapeError) as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return cfg, arrays


def save_prompt(path, *, dim: int, layers: int, mode: str, p_len: int,
                token_stage: str, backbone_fingerprint: str,
                state: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Store the task-specific parameters (prompts + head) for one backbone."""
    meta = {
        "kind": "prompt",
        "dim": int(dim),
        "layers": int(layers),
        "mode": mode,
        "p_len": int(p_len),
        "token_stage": token_stage,
        "backbone_fingerprint": backbone_fingerprint,
    }
    if extra:
        meta.update(extra)
    _write(path, meta, state)


def load_prompt(path, *, dim: int | None = None, layers: int | None = None
                ) -> tuple[dict, dict[str, np.ndarray]]:
    """Load a prompt checkpoint, checking only the (dim, layers) pairing."""
    meta, arrays = _read(path)
    if meta.get("kind") != "prompt":
        raise CheckpointError(f"{path}: not a prompt checkpoint")
    if not {"dim", "layers"} <= meta.keys():
        raise CheckpointError(f"{path}: prompt header has no 'dim' or no 'layers' field")
    if dim is not None and meta["dim"] != dim:
        raise CheckpointMismatchError(f"{path}: prompt width {meta['dim']} "
                                      f"does not match backbone width {dim}")
    if layers is not None and meta["layers"] != layers:
        raise CheckpointMismatchError(f"{path}: prompt layer count {meta['layers']} "
                                      f"does not match backbone depth {layers}")
    return meta, arrays
