"""Pipeline configuration: grids, layer widths, fusion settings, seeds.

A config holds free values only: the 32/96/512 channel contract is made of
constants, and the radar grid and class count are derived properties.
Everything round-trips through JSON; ``from_dict`` and ``validate`` reject a
bad key, type or value with a message that names the offending field.
Built-in scales: ``tiny``, ``desk`` (CI-friendly), ``paper`` (slow).
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .cloudio import parse_json
from .errors import ConfigError
from .grids import RADAR_CHANNELS, GridSpec
from .l2r import ENHANCED_CHANNELS
from .synth import DEFAULT_CLASSES, ObjectClass

COMPACT_CLASSES = (
    ObjectClass("crate", (1.2, 1.8), (1.0, 1.4), (1.0, 1.5), (5.0, 15.0)),
    ObjectClass("column", (1.5, 2.0), (1.0, 1.4), (2.5, 3.2), (15.0, 30.0)),
    ObjectClass("bin", (1.0, 1.3), (1.0, 1.2), (1.0, 1.3), (2.0, 6.0)),
)

CLASS_SETS = {"default": DEFAULT_CLASSES, "compact": COMPACT_CLASSES}


@dataclass
class SceneSettings:
    num_objects: int = 5
    class_set: str = "default"
    lidar_density: float = 40.0
    lidar_noise_sigma: float = 0.02
    ground_density: float = 2.0
    radar_returns: tuple[int, int] = (1, 3)
    ego_velocity: tuple[float, float] = (2.0, 0.0)
    sweep_dt: float = 0.1
    sensor_height: float = 0.5
    ground_z: float = -1.5
    min_range: float = 3.0
    speed_max: float = 8.0
    stationary_fraction: float = 0.4


@dataclass
class FusionSettings:
    ball_radius: float = 0.0        # 0 -> half the radar cell
    height_max_group: int = 16
    bev_max_group: int = 16
    bev_window: tuple[int, int] = (2, 2)
    distance_mode: str = "window"
    point_mlp_hidden: tuple[int, ...] = (16,)
    merge_mlp_hidden: tuple[int, ...] = (32,)
    grid_mlp_hidden: tuple[int, ...] = (32,)
    height_feature_dim: int = 32
    bev_feature_dim: int = 32


@dataclass
class ChannelSettings:
    voxel_feature_dim: int = 16
    voxel_mlp_hidden: tuple[int, ...] = (16,)
    zstack_hidden: tuple[int, ...] = (32,)
    lidar_channels: int = 64        # width of the LiDAR BEV map
    pillar_mlp_hidden: tuple[int, ...] = (16,)
    encoder_hidden: tuple[int, ...] = (8, 8)  # intermediate widths of the 3-block encoder
    trunk_channels: tuple[int, ...] = (4, 4)


@dataclass
class HeadSettings:
    score_thresh: float = 0.3
    max_detections: int = 64


@dataclass
class SeedSettings:
    scene: int = 0
    weights: int = 7


@dataclass
class PipelineConfig:
    lidar_grid: GridSpec
    radar_cell: float               # radar pillar edge, a multiple of the LiDAR cell
    lidar_sweeps: int = 3
    radar_sweeps: int = 2
    radar_variant: str = "a"
    max_points_per_voxel: int = 32
    scene: SceneSettings = field(default_factory=SceneSettings)
    fusion: FusionSettings = field(default_factory=FusionSettings)
    channels: ChannelSettings = field(default_factory=ChannelSettings)
    head: HeadSettings = field(default_factory=HeadSettings)
    seeds: SeedSettings = field(default_factory=SeedSettings)

    # -- derived geometry ---------------------------------------------------

    @property
    def radar_grid(self) -> GridSpec:
        """The radar pillar grid: the LiDAR extent in ``radar_cell`` squares,
        one layer spanning the LiDAR z range."""
        lg, r = self.lidar_grid, self.radar_cell
        return GridSpec(origin=lg.origin, cell=(r, r, self.pillar_height),
                        counts=(lg.nx // round(r / lg.cell[0]),
                                lg.ny // round(r / lg.cell[1]), 1))

    @property
    def radar_cell_size(self) -> float:
        """``radar_cell`` under the name perfbench's paper-l2r workload reads."""
        return self.radar_cell

    @property
    def z_min(self) -> float:
        return self.lidar_grid.origin[2]

    @property
    def pillar_height(self) -> float:
        return self.lidar_grid.cell[2] * self.lidar_grid.nz

    @property
    def extent(self) -> float:
        return -self.lidar_grid.origin[0]

    @property
    def classes(self) -> tuple:
        return CLASS_SETS[self.scene.class_set]

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def validate(self) -> None:
        _typed("", self, type(self))
        lg, r = self.lidar_grid, self.radar_cell
        for axis, name in ((0, "x"), (1, "y")):
            ratio = r / lg.cell[axis]
            # NaN, infinite and non-positive cells fail the range test too
            if not 1 <= ratio <= lg.counts[axis] or abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(f"radar_cell: {r} must be a whole multiple, 1 to "
                                  f"{lg.counts[axis]} times, of the LiDAR {name} "
                                  f"cell {lg.cell[axis]}")
            if lg.counts[axis] % round(ratio):
                raise ConfigError(f"radar_cell: {lg.counts[axis]} LiDAR {name} cells "
                                  f"do not split into radar cells of {round(ratio)}")
        ch, fu = self.channels, self.fusion
        fusion_width = ENHANCED_CHANNELS - RADAR_CHANNELS
        if fu.height_feature_dim + fu.bev_feature_dim != fusion_width:
            raise ConfigError(
                "fusion.height_feature_dim: the height and BEV feature widths must "
                f"total {ENHANCED_CHANNELS} - {RADAR_CHANNELS} = {fusion_width}, got "
                f"{fu.height_feature_dim}+{fu.bev_feature_dim}")
        if len(ch.encoder_hidden) != 2:
            raise ConfigError("channels.encoder_hidden: the encoder has 3 blocks, "
                              f"so exactly 2 intermediate widths are needed, "
                              f"got {len(ch.encoder_hidden)}")
        if not ch.trunk_channels:
            raise ConfigError("channels.trunk_channels: the head needs a trunk conv")
        if fu.bev_window[0] < 0 or fu.bev_window[1] < 0:
            raise ConfigError(f"fusion.bev_window: entries must be >= 0, "
                              f"got {fu.bev_window}")
        if fu.height_max_group < 1 or fu.bev_max_group < 1:
            raise ConfigError("fusion.height_max_group/bev_max_group: must be >= 1")
        if fu.distance_mode not in ("window", "scalar"):
            raise ConfigError(f"fusion.distance_mode: unknown mode "
                              f"{fu.distance_mode!r}")
        if fu.ball_radius < 0:
            raise ConfigError(f"fusion.ball_radius: must be >= 0, got {fu.ball_radius}")
        if self.radar_variant not in ("a", "b"):
            raise ConfigError(f"radar_variant: must be 'a' or 'b', "
                              f"got {self.radar_variant!r}")
        if self.lidar_sweeps < 1 or self.radar_sweeps < 1:
            raise ConfigError("lidar_sweeps/radar_sweeps: need at least one sweep")
        if self.max_points_per_voxel < 1:
            raise ConfigError(f"max_points_per_voxel: must be >= 1, "
                              f"got {self.max_points_per_voxel}")
        hd = self.head
        if not (0.0 < hd.score_thresh < 1.0):
            raise ConfigError(f"head.score_thresh: must be in (0,1), "
                              f"got {hd.score_thresh}")
        if hd.max_detections < 1:
            raise ConfigError(f"head.max_detections: must be >= 1, "
                              f"got {hd.max_detections}")
        sc = self.scene
        if sc.num_objects < 0:
            raise ConfigError(f"scene.num_objects: must be >= 0, got {sc.num_objects}")
        if sc.class_set not in CLASS_SETS:
            raise ConfigError(f"scene.class_set: unknown set {sc.class_set!r}")
        if sc.lidar_density <= 0:
            raise ConfigError(f"scene.lidar_density: must be positive, "
                              f"got {sc.lidar_density}")
        if sc.radar_returns[0] < 0 or sc.radar_returns[1] < sc.radar_returns[0]:
            raise ConfigError(f"scene.radar_returns: need 0 <= lo <= hi, "
                              f"got {sc.radar_returns}")
        if self.extent <= 0:
            raise ConfigError("lidar_grid.origin: the grid must start at a negative "
                              f"x (symmetric range), got {lg.origin[0]}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return _typed("", d, cls)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        return cls.from_dict(parse_json(Path(path).read_bytes(), path))


# Python types taken as is for an annotated scalar type; other numbers
# are checked against the abstract number types.
_EXACT = {float: (float, int), int: (int,), str: (str,)}
_NUMBERS = {float: Real, int: Integral}


@functools.cache
def _layout(kind) -> tuple:
    """(type hints, fields) of a dataclass, (item types,) of a tuple type,
    () of a scalar type."""
    if is_dataclass(kind):
        return get_type_hints(kind), fields(kind)
    if get_origin(kind) is tuple:
        return (get_args(kind),)
    return ()


def _show(value) -> str:
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _typed(name: str, value, kind):
    """``value`` read as the annotated type ``kind``, or a ConfigError naming
    ``name``, the dotted field name ("" for the config), for an unknown or
    missing key, a wrong type or list length, or NaN/inf. ``value`` is a
    JSON value, or for a dataclass ``kind`` also an instance, whose fields
    are checked in place."""
    layout = _layout(kind)
    if not layout:
        if type(value) not in _EXACT.get(kind, ()) and (
                isinstance(value, bool)
                or not isinstance(value, _NUMBERS.get(kind, kind))):
            raise ConfigError(f"{name}: expected {kind.__name__}, got {_show(value)}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{name}: expected a finite number, got {value}")
        return float(value) if kind is float else value
    if len(layout) == 1:
        items = layout[0]
        if not isinstance(value, (list, tuple)) or (items[-1] is not Ellipsis
                                                    and len(value) != len(items)):
            size = "" if items[-1] is Ellipsis else f"{len(items)} "
            raise ConfigError(f"{name}: expected a list of {size}{items[0].__name__}s, "
                              f"got {_show(value)}")
        return tuple(_typed(name, v, items[0]) for v in value)
    hints, kind_fields = layout
    prefix = name + "." if name else ""
    if isinstance(value, kind):
        for f in kind_fields:
            _typed(prefix + f.name, getattr(value, f.name), hints[f.name])
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"{name or 'config'}: expected an object, "
                          f"got {_show(value)}")
    for key in value:
        if key not in hints:
            raise ConfigError(f"{prefix}{key}: unknown key")
    for f in kind_fields:
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in value:
            raise ConfigError(f"{prefix}{f.name}: missing")
    typed = {key: _typed(prefix + key, v, hints[key]) for key, v in value.items()}
    try:
        return kind(**typed)
    except ConfigError as e:   # the dataclass's own checks name its own field
        raise ConfigError(prefix + str(e)) from None


def desk_config() -> PipelineConfig:
    """CI-friendly scale: +/-16 m range, 0.25 m LiDAR cells, 1 m radar cells."""
    return PipelineConfig(
        lidar_grid=GridSpec(origin=(-16.0, -16.0, -5.0), cell=(0.25, 0.25, 1.0),
                            counts=(128, 128, 8)),
        radar_cell=1.0)


def paper_config() -> PipelineConfig:
    """Full-resolution scale: +/-54 m range, 0.075 m LiDAR voxels, 0.6 m radar
    pillars, 10/6 accumulated sweeps. Supported but slow."""
    return PipelineConfig(
        lidar_grid=GridSpec(origin=(-54.0, -54.0, -5.0), cell=(0.075, 0.075, 0.2),
                            counts=(1440, 1440, 40)),
        radar_cell=0.6,
        lidar_sweeps=10,
        radar_sweeps=6,
        scene=SceneSettings(num_objects=12))


def tiny_config() -> PipelineConfig:
    """Minimal footprint for property sweeps: +/-4 m range, 16x16 LiDAR grid."""
    return PipelineConfig(
        lidar_grid=GridSpec(origin=(-4.0, -4.0, -5.0), cell=(0.5, 0.5, 2.0),
                            counts=(16, 16, 4)),
        radar_cell=2.0,
        scene=SceneSettings(num_objects=2, class_set="compact", min_range=1.0,
                            lidar_density=25.0, ground_density=1.0,
                            speed_max=4.0),
        channels=ChannelSettings(voxel_feature_dim=8, voxel_mlp_hidden=(8,),
                                 zstack_hidden=(16,), lidar_channels=16,
                                 pillar_mlp_hidden=(8,), encoder_hidden=(2, 2),
                                 trunk_channels=(2, 2)),
        fusion=FusionSettings(point_mlp_hidden=(8,), merge_mlp_hidden=(16,),
                              grid_mlp_hidden=(16,)))


SCALES = {"desk": desk_config, "paper": paper_config, "tiny": tiny_config}


def config_for_scale(scale: str) -> PipelineConfig:
    try:
        return SCALES[scale]()
    except KeyError:
        raise ConfigError(f"scale: unknown scale {scale!r}, "
                          f"expected one of {sorted(SCALES)}") from None
