"""Synthetic multi-sensor scenes.

The generator reproduces the data asymmetry the fusion blocks are built for:
dense LiDAR points with full height information versus a handful of
height-less radar returns per object that carry Doppler velocity instead.

Scenes, clouds and sweeps are pure functions of (parameters, seed).
Positions and scalar attributes are quantized to float32-representable
values so they survive the 32-bit file format bit-exactly; velocity
components stay full-precision to keep the Doppler direction exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cloud import Pose, make_cloud
from .errors import PlacementError


def wrap_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    w = math.fmod(a + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def _f4(values):
    """Round through float32 so the value serializes losslessly."""
    return np.asarray(values, dtype=np.float32).astype(np.float64)


@dataclass(frozen=True)
class ObjectClass:
    name: str
    length: tuple
    width: tuple
    height: tuple
    rcs: tuple


# Two regular-height classes and one tall class, so both height groups occur.
DEFAULT_CLASSES = (
    ObjectClass("car", (3.6, 5.0), (1.6, 2.0), (1.4, 1.8), (5.0, 15.0)),
    ObjectClass("truck", (6.0, 9.0), (2.2, 2.8), (2.8, 4.0), (15.0, 30.0)),
    ObjectClass("cyclist", (1.6, 2.2), (1.0, 1.4), (1.2, 1.8), (2.0, 6.0)),
)


@dataclass(frozen=True)
class GroundTruthBox:
    cx: float
    cy: float
    cz: float
    length: float
    width: float
    height: float
    yaw: float
    vx: float
    vy: float
    class_id: int

    @property
    def circumradius(self) -> float:
        return 0.5 * math.hypot(self.length, self.width)

    def to_dict(self) -> dict:
        return {"cx": self.cx, "cy": self.cy, "cz": self.cz,
                "length": self.length, "width": self.width, "height": self.height,
                "yaw": self.yaw, "vx": self.vx, "vy": self.vy,
                "class_id": self.class_id}

    @classmethod
    def from_dict(cls, d: dict) -> "GroundTruthBox":
        return cls(**{k: (int(v) if k == "class_id" else float(v))
                      for k, v in d.items()})


@dataclass(frozen=True)
class SceneSpec:
    extent: float = 16.0          # half-width of the square BEV range, meters
    num_objects: int = 5
    classes: tuple = DEFAULT_CLASSES
    sensor_height: float = 0.5
    ground_z: float = -1.5
    speed_max: float = 8.0
    stationary_fraction: float = 0.4
    min_range: float = 3.0        # clear zone around the sensor
    clearance: float = 0.5        # minimum BEV gap between objects
    max_attempts: int = 2000


@dataclass(frozen=True)
class Scene:
    objects: tuple
    sensor_height: float
    ground_z: float
    extent: float
    rng_seed: int

    def to_dict(self) -> dict:
        return {"sensor_height": self.sensor_height, "ground_z": self.ground_z,
                "extent": self.extent, "rng_seed": self.rng_seed,
                "objects": [b.to_dict() for b in self.objects]}

    @classmethod
    def from_dict(cls, d: dict) -> "Scene":
        return cls(objects=tuple(GroundTruthBox.from_dict(b) for b in d["objects"]),
                   sensor_height=float(d["sensor_height"]),
                   ground_z=float(d["ground_z"]),
                   extent=float(d["extent"]),
                   rng_seed=int(d["rng_seed"]))


def generate_scene(spec: SceneSpec, seed: int) -> Scene:
    """Place ``num_objects`` boxes, pairwise disjoint in BEV, deterministically.

    Disjointness is enforced conservatively through circumscribed circles
    separated by ``clearance``; a placement that keeps failing raises
    :class:`PlacementError`.
    """
    if spec.extent <= 0:
        raise ValueError(f"extent must be positive, got {spec.extent}")
    if spec.num_objects < 0:
        raise ValueError(f"num_objects must be >= 0, got {spec.num_objects}")
    rng = np.random.default_rng(seed)
    placed: list[GroundTruthBox] = []
    attempts = 0
    while len(placed) < spec.num_objects:
        if attempts >= spec.max_attempts:
            raise PlacementError(
                f"placed {len(placed)}/{spec.num_objects} objects "
                f"after {attempts} attempts in extent +/-{spec.extent} m")
        attempts += 1
        cls_id = int(rng.integers(0, len(spec.classes)))
        cls = spec.classes[cls_id]
        length = float(rng.uniform(*cls.length))
        width = float(rng.uniform(*cls.width))
        height = float(rng.uniform(*cls.height))
        yaw = wrap_angle(float(rng.uniform(-math.pi, math.pi)))
        if rng.uniform() < spec.stationary_fraction:
            vx = vy = 0.0
        else:
            speed = float(rng.uniform(0.5, spec.speed_max))
            heading = float(rng.uniform(-math.pi, math.pi))
            vx = speed * math.cos(heading)
            vy = speed * math.sin(heading)
        rad = 0.5 * math.hypot(length, width)
        lo, hi = -spec.extent + rad, spec.extent - rad
        if lo >= hi:
            continue
        cx = float(rng.uniform(lo, hi))
        cy = float(rng.uniform(lo, hi))
        if math.hypot(cx, cy) < spec.min_range + rad:
            continue
        if any(math.hypot(cx - b.cx, cy - b.cy) <= rad + b.circumradius + spec.clearance
               for b in placed):
            continue
        placed.append(GroundTruthBox(cx=cx, cy=cy, cz=spec.ground_z + 0.5 * height,
                                     length=length, width=width, height=height,
                                     yaw=yaw, vx=vx, vy=vy, class_id=cls_id))
    return Scene(objects=tuple(placed), sensor_height=spec.sensor_height,
                 ground_z=spec.ground_z, extent=spec.extent, rng_seed=seed)


def box_surface_area(box: GroundTruthBox) -> float:
    """Sampled surface: the four side walls plus the top face."""
    return (2.0 * (box.length + box.width) * box.height
            + box.length * box.width)


def _sample_on_box(box: GroundTruthBox, ground_z: float, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the walls+top of one box, world coordinates (n,3)."""
    l, w, h = box.length, box.width, box.height
    areas = np.array([l * h, l * h, w * h, w * h, l * w])
    faces = rng.choice(5, size=count, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=count)
    v = rng.uniform(0.0, 1.0, size=count)
    px = np.empty(count)
    py = np.empty(count)
    pz = ground_z + v * h
    for f, sel in [(0, faces == 0), (1, faces == 1)]:
        px[sel] = u[sel] * l
        py[sel] = (0.5 if f == 0 else -0.5) * w
    for f, sel in [(2, faces == 2), (3, faces == 3)]:
        px[sel] = (0.5 if f == 2 else -0.5) * l
        py[sel] = u[sel] * w
    top = faces == 4
    px[top] = u[top] * l
    py[top] = rng.uniform(-0.5, 0.5, size=int(top.sum())) * w
    pz[top] = ground_z + h
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    wx = box.cx + c * px - s * py
    wy = box.cy + s * px + c * py
    return np.stack([wx, wy, pz], axis=1)


def lidar_sample(scene: Scene, density: float, noise_sigma: float, seed: int,
                 ground_density: float = 2.0) -> np.ndarray:
    """Sample a LiDAR cloud: Poisson counts on box surfaces (``density``
    points per square meter) plus a ground plane at ``ground_density``."""
    if density <= 0:
        raise ValueError(f"density must be positive, got {density}")
    rng = np.random.default_rng(seed)
    chunks = []
    for box in scene.objects:
        count = int(rng.poisson(density * box_surface_area(box)))
        if count:
            chunks.append(_sample_on_box(box, scene.ground_z, count, rng))
    if ground_density > 0:
        area = (2.0 * scene.extent) ** 2
        count = int(rng.poisson(ground_density * area))
        if count:
            gx = rng.uniform(-scene.extent, scene.extent, size=count)
            gy = rng.uniform(-scene.extent, scene.extent, size=count)
            gz = np.full(count, scene.ground_z)
            chunks.append(np.stack([gx, gy, gz], axis=1))
    if not chunks:
        return make_cloud("lidar", {})
    xyz = np.concatenate(chunks)
    if noise_sigma > 0:
        xyz = xyz + rng.normal(0.0, noise_sigma, size=xyz.shape)
    intensity = rng.uniform(0.0, 1.0, size=len(xyz))
    return make_cloud("lidar", {
        "x": _f4(xyz[:, 0]), "y": _f4(xyz[:, 1]), "z": _f4(xyz[:, 2]),
        "intensity": _f4(intensity), "t": np.zeros(len(xyz))})


def doppler_velocity(point_xy, velocity_xy) -> tuple:
    """Project an object velocity onto the sensor->point line of sight.

    The sensor sits at the origin of the sweep frame. Returns the radial
    velocity vector, exactly parallel to the line of sight.
    """
    px, py = float(point_xy[0]), float(point_xy[1])
    norm = math.hypot(px, py)
    if norm == 0.0:
        return 0.0, 0.0
    ux, uy = px / norm, py / norm
    c = float(velocity_xy[0]) * ux + float(velocity_xy[1]) * uy
    return c * ux, c * uy


def _perimeter_point(box: GroundTruthBox, frac: float) -> tuple:
    """Point on the BEV rectangle outline at arc-length fraction ``frac``."""
    l, w = box.length, box.width
    per = 2.0 * (l + w)
    d = frac * per
    if d < l:
        px, py = d - 0.5 * l, -0.5 * w
    elif d < l + w:
        px, py = 0.5 * l, (d - l) - 0.5 * w
    elif d < 2 * l + w:
        px, py = 0.5 * l - (d - l - w), 0.5 * w
    else:
        px, py = -0.5 * l, 0.5 * w - (d - 2 * l - w)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return box.cx + c * px - s * py, box.cy + s * px + c * py


def radar_sample(scene: Scene, returns_range: tuple = (1, 3), seed: int = 0,
                 variant: str = "a", classes: tuple = DEFAULT_CLASSES) -> np.ndarray:
    """Sample sparse radar returns: a handful per object on its BEV outline.

    No height is ever emitted. Velocity components are the Doppler
    projection of the true object velocity onto the line of sight, computed
    from the quantized return position so the stored record is consistent.
    """
    lo, hi = int(returns_range[0]), int(returns_range[1])
    if lo < 0 or hi < lo:
        raise ValueError(f"returns_range must be 0 <= lo <= hi, got {returns_range}")
    rng = np.random.default_rng(seed)
    kind = "radar_a" if variant == "a" else "radar_b"
    cols = {name: [] for name in
            ("x", "y", "rcs", "t", "vx", "vy", "dyn_prop", "invalid_state", "pdh0")}
    for box in scene.objects:
        rcs_lo, rcs_hi = classes[box.class_id % len(classes)].rcs
        count = int(rng.integers(lo, hi + 1))
        for _ in range(count):
            wx, wy = _perimeter_point(box, float(rng.uniform()))
            qx = float(_f4(wx))
            qy = float(_f4(wy))
            vx, vy = doppler_velocity((qx, qy), (box.vx, box.vy))
            cols["x"].append(qx)
            cols["y"].append(qy)
            cols["rcs"].append(float(_f4(rng.uniform(rcs_lo, rcs_hi))))
            cols["t"].append(0.0)
            cols["vx"].append(vx)
            cols["vy"].append(vy)
            speed = math.hypot(box.vx, box.vy)
            cols["dyn_prop"].append(0.0 if speed > 0.5 else 1.0)
            cols["invalid_state"].append(0.0)
            cols["pdh0"].append(float(rng.integers(0, 4)))
    if not cols["x"]:
        return make_cloud(kind, {})
    if variant == "b":
        cols = {k: cols[k] for k in ("x", "y", "rcs", "t")}
    return make_cloud(kind, cols)


def _scene_at(scene: Scene, t: float, ego_xy: tuple) -> Scene:
    """Scene as seen from the ego position at time ``t``, in the sweep-local
    frame (objects advanced along their velocities, ego subtracted)."""
    moved = tuple(replace(b,
                          cx=b.cx + b.vx * t - ego_xy[0],
                          cy=b.cy + b.vy * t - ego_xy[1])
                  for b in scene.objects)
    return replace(scene, objects=moved)


def _sweeps(scene: Scene, n: int, dt: float, ego_velocity: tuple, sample):
    """``n`` sweeps at t = -k*dt, ``sample(local_scene, k)`` drawing sweep k
    in its sweep-local frame; returns (clouds, poses) with exact
    constant-velocity ego poses."""
    clouds, poses = [], []
    for k in range(n):
        t = -k * dt
        ego = (ego_velocity[0] * t, ego_velocity[1] * t)
        cloud = sample(_scene_at(scene, t, ego), k)
        cloud["t"] = float(_f4(t))
        clouds.append(cloud)
        poses.append(Pose(tx=ego[0], ty=ego[1]))
    return clouds, poses


def lidar_sweeps(scene: Scene, n: int, dt: float, ego_velocity: tuple,
                 density: float, noise_sigma: float, seed: int,
                 ground_density: float = 2.0):
    """``n`` past LiDAR sweeps with exact constant-velocity ego poses.

    Sweep k is taken at t = -k*dt; returns (clouds, poses) ready for
    :func:`lrbev.cloud.accumulate_sweeps`. ``seed`` must be an integer.
    """
    return _sweeps(scene, n, dt, ego_velocity, lambda local, k: lidar_sample(
        local, density, noise_sigma, seed=[seed, 1, k], ground_density=ground_density))


def radar_sweeps(scene: Scene, n: int, dt: float, ego_velocity: tuple,
                 returns_range: tuple, seed: int, variant: str = "a"):
    """Past radar sweeps, mirroring :func:`lidar_sweeps`."""
    return _sweeps(scene, n, dt, ego_velocity, lambda local, k: radar_sample(
        local, returns_range, seed=[seed, 2, k], variant=variant))
