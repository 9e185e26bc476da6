"""Point-cloud containers and multi-sweep accumulation.

Clouds are numpy structured arrays (float64 fields in memory). Radar records
never carry a z field; consumers that need a 3D position get the configured
sensor height via :func:`radar_xyz`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LIDAR_FIELDS = ("x", "y", "z", "intensity", "t")
RADAR_FULL_FIELDS = ("x", "y", "rcs", "t", "vx", "vy",
                     "dyn_prop", "invalid_state", "pdh0")
RADAR_BASIC_FIELDS = ("x", "y", "rcs", "t")

LIDAR_DTYPE = np.dtype([(name, "<f8") for name in LIDAR_FIELDS])
# Variant "a": nuScenes-style records with velocity and status codes.
RADAR_FULL_DTYPE = np.dtype([(name, "<f8") for name in RADAR_FULL_FIELDS])
# Variant "b": image-derived records carrying position, reflectivity, time only.
RADAR_BASIC_DTYPE = np.dtype([(name, "<f8") for name in RADAR_BASIC_FIELDS])

_KIND_BY_DTYPE = {LIDAR_DTYPE: "lidar",
                  RADAR_FULL_DTYPE: "radar_a",
                  RADAR_BASIC_DTYPE: "radar_b"}
DTYPE_BY_KIND = {v: k for k, v in _KIND_BY_DTYPE.items()}


def cloud_kind(cloud: np.ndarray) -> str:
    try:
        return _KIND_BY_DTYPE[cloud.dtype]
    except KeyError:
        raise ValueError(f"not a known cloud dtype: {cloud.dtype}") from None


def make_cloud(kind: str, columns: dict) -> np.ndarray:
    """Build a cloud from per-field sequences (missing fields are zero)."""
    dtype = DTYPE_BY_KIND[kind]
    n = len(next(iter(columns.values()))) if columns else 0
    out = np.zeros(n, dtype=dtype)
    for name, values in columns.items():
        if name not in dtype.names:
            raise ValueError(f"field {name!r} not in {kind} record")
        out[name] = np.asarray(values, dtype=np.float64)
    return out


def lidar_xyz(cloud: np.ndarray) -> np.ndarray:
    return np.stack([cloud["x"], cloud["y"], cloud["z"]], axis=1)


def radar_xyz(cloud: np.ndarray, sensor_height: float) -> np.ndarray:
    """3D positions of radar returns; z is exactly the sensor height."""
    z = np.full(len(cloud), float(sensor_height))
    return np.stack([cloud["x"], cloud["y"], z], axis=1)


@dataclass(frozen=True)
class Pose:
    """Rigid transform from a sweep frame into the keyframe: rotation by
    ``yaw`` about z, then translation."""

    tx: float = 0.0
    ty: float = 0.0
    tz: float = 0.0
    yaw: float = 0.0

    def is_identity(self) -> bool:
        return self.tx == 0.0 and self.ty == 0.0 and self.tz == 0.0 and self.yaw == 0.0


def _transform_cloud(cloud: np.ndarray, pose: Pose) -> np.ndarray:
    out = cloud.copy()
    if pose.is_identity():
        return out
    c, s = np.cos(pose.yaw), np.sin(pose.yaw)
    x, y = cloud["x"], cloud["y"]
    if pose.yaw != 0.0:
        out["x"] = c * x - s * y
        out["y"] = s * x + c * y
    out["x"] = out["x"] + pose.tx
    out["y"] = out["y"] + pose.ty
    if "z" in cloud.dtype.names:
        out["z"] = cloud["z"] + pose.tz
    if pose.yaw != 0.0 and "vx" in cloud.dtype.names:
        vx, vy = cloud["vx"], cloud["vy"]
        out["vx"] = c * vx - s * vy
        out["vy"] = s * vx + c * vy
    return out


def accumulate_sweeps(sweeps, poses, n: int | None = None) -> np.ndarray:
    """Merge ``n`` sweeps into keyframe coordinates.

    Every point keeps its attributes (including the relative timestamp t);
    only coordinates (and velocity directions, under rotation) change. Output
    length is the sum of the input lengths.
    """
    sweeps = list(sweeps)
    poses = list(poses)
    if len(sweeps) != len(poses):
        raise ValueError(f"{len(sweeps)} sweeps but {len(poses)} poses")
    if n is None:
        n = len(sweeps)
    if n > len(sweeps):
        raise ValueError(f"asked for {n} sweeps, only {len(sweeps)} available")
    if n == 0:
        raise ValueError("need at least one sweep")
    kind = cloud_kind(sweeps[0])
    parts = []
    for cloud, pose in zip(sweeps[:n], poses[:n]):
        if cloud_kind(cloud) != kind:
            raise ValueError("sweeps mix cloud kinds")
        parts.append(_transform_cloud(cloud, pose))
    return np.concatenate(parts)
