"""Cloud and feature-map file formats.

Cloud format (.blrf): magic ``BLRF``, version u16, kind u8 (0 lidar,
1 radar variant a, 2 radar variant b), record count u64, then fixed-width
little-endian float32 records in declared field order. Values that are
float32-representable round-trip bit-exactly.

A JSON twin (same field names) exists for hand-written fixtures, and a raw
importer accepts headerless float32 (x, y, z, intensity, ring) quintuples,
discarding ring.

Feature-map dumps (.blrm): magic ``BLRM``, u32 (C, H, W), little-endian
float32 values.

``parse_json`` reads every JSON input of the package (configs, cloud twins,
detection lines, scenes), so malformed text or a missing or mistyped key
raises ``FormatError`` naming the file.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .cloud import DTYPE_BY_KIND, cloud_kind, make_cloud
from .errors import FormatError, LrbevError
from .grids import BevColumns
from .nn import FeatureMap

MAGIC = b"BLRF"
VERSION = 1
_KIND_CODES = {"lidar": 0, "radar_a": 1, "radar_b": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_HEADER = struct.Struct("<4sHBQ")

MAP_MAGIC = b"BLRM"
_MAP_HEADER = struct.Struct("<4sIII")


def write_cloud(cloud: np.ndarray, path) -> None:
    path = Path(path)
    if path.suffix == ".json":
        _write_cloud_json(cloud, path)
        return
    kind = cloud_kind(cloud)
    fields = cloud.dtype.names
    payload = np.empty((len(cloud), len(fields)), dtype="<f4")
    for j, name in enumerate(fields):
        payload[:, j] = cloud[name]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, _KIND_CODES[kind], len(cloud)))
        fh.write(payload.tobytes())


def read_cloud(path) -> np.ndarray:
    path = Path(path)
    if path.suffix == ".json":
        return parse_json(path.read_bytes(), path, _cloud_from_doc)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"header needs {_HEADER.size} bytes, file has {len(blob)}",
                          offset=len(blob))
    magic, version, kind_code, count = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    if version != VERSION:
        raise FormatError(f"unknown version {version}", offset=4)
    if kind_code not in _KIND_NAMES:
        raise FormatError(f"unknown cloud kind {kind_code}", offset=6)
    kind = _KIND_NAMES[kind_code]
    fields = DTYPE_BY_KIND[kind].names
    record = 4 * len(fields)
    expected = _HEADER.size + count * record
    if len(blob) != expected:
        raise FormatError(
            f"payload for {count} records needs {expected} bytes, file has {len(blob)}",
            offset=min(len(blob), expected))
    flat = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
    table = flat.reshape(count, len(fields)).astype(np.float64)
    return make_cloud(kind, {name: table[:, j] for j, name in enumerate(fields)})


def _write_cloud_json(cloud: np.ndarray, path: Path) -> None:
    kind = cloud_kind(cloud)
    points = [{name: float(rec[name]) for name in cloud.dtype.names} for rec in cloud]
    path.write_text(json.dumps({"kind": kind, "points": points}, indent=1))


def parse_json(blob: bytes, where, build=None, offset: int = 0):
    """``build(doc)``, or ``doc`` itself, of the JSON document ``doc`` in
    ``blob``, which starts at byte ``offset`` of ``where`` (a file, or a
    file and line). Bytes that are not UTF-8 JSON, and a document that
    lacks a key ``build`` reads or holds a value of the wrong type or
    shape, raise ``FormatError`` naming ``where``; the package's own errors
    pass through."""
    try:
        doc = json.loads(blob.decode("utf-8"))
    except json.JSONDecodeError as e:
        raise FormatError(f"{where}: not JSON: {e.msg}",
                          offset + len(e.doc[:e.pos].encode())) from None
    except UnicodeDecodeError as e:
        raise FormatError(f"{where}: not UTF-8 text", offset + e.start) from None
    if build is None:
        return doc
    try:
        return build(doc)
    except LrbevError:
        raise
    except KeyError as e:
        raise FormatError(f"{where}: missing key {e}", offset) from None
    except (AttributeError, IndexError, TypeError, ValueError) as e:
        raise FormatError(f"{where}: malformed document: {e}", offset) from None


def _cloud_from_doc(doc: dict) -> np.ndarray:
    kind = doc["kind"]
    if kind not in DTYPE_BY_KIND:
        raise FormatError(f"unknown cloud kind {kind!r}", offset=0)
    fields = DTYPE_BY_KIND[kind].names
    points = doc["points"]
    return make_cloud(kind, {name: [p[name] for p in points] for name in fields})


def read_raw_lidar(path) -> np.ndarray:
    """Import headerless little-endian float32 (x,y,z,intensity,ring) records."""
    blob = Path(path).read_bytes()
    record = 4 * 5
    if len(blob) % record != 0:
        raise FormatError(
            f"raw lidar payload must be a multiple of {record} bytes",
            offset=len(blob) - len(blob) % record)
    table = np.frombuffer(blob, dtype="<f4").reshape(-1, 5).astype(np.float64)
    return make_cloud("lidar", {"x": table[:, 0], "y": table[:, 1],
                                "z": table[:, 2], "intensity": table[:, 3],
                                "t": np.zeros(len(table))})


def _planes(m):
    """The channel planes of a ``FeatureMap``, or of a ``BevColumns`` map
    built one at a time from its columns, never from its dense map."""
    if not isinstance(m, BevColumns):
        yield from m.data
        return
    plane = np.zeros((m.height, m.width))
    for c in range(m.channels):
        plane.reshape(-1)[m.ids] = m.features[:, c]
        yield plane


def write_feature_map(m, path) -> None:
    """Write the ``FeatureMap`` or ``BevColumns`` map ``m`` one channel
    plane at a time, so no float32 copy of the whole map is made, nor the
    dense map of a ``BevColumns``."""
    with open(path, "wb") as fh:
        fh.write(_MAP_HEADER.pack(MAP_MAGIC, m.channels, m.height, m.width))
        for plane in _planes(m):
            fh.write(plane.astype("<f4", order="C"))


def read_feature_map(path) -> FeatureMap:
    blob = Path(path).read_bytes()
    if len(blob) < _MAP_HEADER.size:
        raise FormatError(f"header needs {_MAP_HEADER.size} bytes", offset=len(blob))
    magic, c, h, w = _MAP_HEADER.unpack_from(blob)
    if magic != MAP_MAGIC:
        raise FormatError(f"bad magic {magic!r}", offset=0)
    expected = _MAP_HEADER.size + 4 * c * h * w
    if len(blob) != expected:
        raise FormatError(f"map {c}x{h}x{w} needs {expected} bytes, file has {len(blob)}",
                          offset=min(len(blob), expected))
    data = np.frombuffer(blob, dtype="<f4", offset=_MAP_HEADER.size)
    return FeatureMap(data.astype(np.float64).reshape(c, h, w))
