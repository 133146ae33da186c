"""Model files: a bit-exact parameter binary plus a JSON sidecar.

``path``: magic "OOMN", u32 version = 1, u32 record count, then per
record: u16 name length, UTF-8 name, u8 rank, rank x u64 dims, raw f64
data; all little-endian. Every record is a parameter, whatever its name.
``path + ".meta.json"``: sorted-key JSON that rebuilds the model; one
top-level key marks its kind (``mode`` for a speech decoder,
``alignment_spec`` for an alignment model). No other module reads or
writes either file. Missing binary: ``FileNotFoundError``; missing or
foreign sidecar: ``KindMismatchError``; unreadable sidecar, truncated or
corrupt binary: ``DataError``. A model loads the names its
``parameters()`` writes, and only those: a record missing, unexpected or
of another shape is ``DataError``.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import is_dataclass
from typing import get_type_hints

import numpy as np

from .errors import ConfigurationError, DataError, KindMismatchError

MAGIC = b"OOMN"
VERSION = 1


def meta_path(path) -> str:
    return str(path) + ".meta.json"


def save_checkpoint(path, params: dict, meta: dict):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for name, value in params.items():
            arr = np.asarray(value.data if hasattr(value, "data") else value,
                             dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)) + nb)
            fh.write(struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape))
            fh.write(arr.tobytes())
    with open(meta_path(path), "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=0)
        fh.write("\n")


def load_checkpoint(path, kind: str):
    """Returns (params, meta); the sidecar object must have key ``kind``."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"checkpoint not found: {path}")
    if not os.path.exists(meta_path(path)):
        raise KindMismatchError(f"{path}: no sidecar {meta_path(path)}")
    try:
        with open(meta_path(path), encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:
        raise DataError(f"{meta_path(path)}: unreadable sidecar ({exc})") from exc
    if not isinstance(meta, dict) or kind not in meta:
        raise KindMismatchError(f"{path}: sidecar has no {kind!r}, wrong "
                                f"checkpoint kind")
    return _read_params(path), meta


def _read_params(path) -> dict:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: bad checkpoint magic")
    try:
        version, count = struct.unpack_from("<II", blob, 4)
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        off, params = 12, {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            name = blob[off + 2:off + 2 + nlen].decode("utf-8")
            off += 2 + nlen
            (rank,) = struct.unpack_from("<B", blob, off)
            dims = struct.unpack_from(f"<{rank}Q", blob, off + 1)
            off += 1 + 8 * rank
            arr = np.frombuffer(blob, "<f8", math.prod(dims), off)
            params[name] = arr.reshape(dims).astype(np.float64)
            off += arr.nbytes
    except (struct.error, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
    if off != len(blob):
        raise DataError(f"{path}: trailing bytes in checkpoint")
    return params


def _fits(value, kind) -> bool:
    if kind is tuple:
        return type(value) in (list, tuple) and all(type(v) is int for v in value)
    if kind is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    return type(value) is kind


def check_types(entry: dict, types, error=ConfigurationError, where="") -> dict:
    """``entry`` if each value whose key ``types`` (a dict, or a dataclass's
    annotations) names fits it: an int or a finite float for a float, a
    list or tuple of ints for a tuple. Otherwise ``error``."""
    types = get_type_hints(types) if is_dataclass(types) else types
    for key, value in entry.items():
        if key in types and not _fits(value, types[key]):
            finite = " and finite" if types[key] is float else ""
            raise error(f"{where}{key!r} must be of type "
                        f"{types[key].__name__}{finite}, got {value!r}")
    return entry


def expect_keys(path, entry, types) -> dict:
    """``entry`` if it has exactly the keys of ``types``, each value typed."""
    types = get_type_hints(types) if is_dataclass(types) else types
    if not isinstance(entry, dict) or set(entry) != set(types):
        raise DataError(f"{meta_path(path)}: expected keys {sorted(types)}, "
                        f"got {entry!r}")
    return check_types(entry, types, DataError, f"{meta_path(path)}: ")


def assign_parameters(params: dict, loaded: dict):
    """Copy loaded arrays into live tensors; shapes must match exactly."""
    missing = set(params) - set(loaded)
    extra = set(loaded) - set(params)
    if missing or extra:
        raise DataError(
            f"checkpoint mismatch: missing={sorted(missing)} extra={sorted(extra)}"
        )
    for name, p in params.items():
        arr = loaded[name]
        if arr.shape != p.data.shape:
            raise DataError(
                f"checkpoint shape mismatch for {name!r}: "
                f"{arr.shape} vs {p.data.shape}"
            )
        p.data = arr.copy()
