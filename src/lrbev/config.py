"""Pipeline configuration: grids, channel widths, fusion settings, seeds.

Everything round-trips through JSON. ``validate`` rejects each invariant
violation with a message that names the offending field. Two built-in
scales exist: ``desk`` (CI-friendly) and ``paper`` (full resolution, slow).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import json

from .errors import ConfigError
from .grids import GridSpec
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
    radar_returns: tuple = (1, 3)
    ego_velocity: tuple = (2.0, 0.0)
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
    bev_window: tuple = (2, 2)
    distance_mode: str = "window"
    point_mlp_hidden: tuple = (16,)
    merge_mlp_hidden: tuple = (32,)
    grid_mlp_hidden: tuple = (32,)
    height_feature_dim: int = 32
    bev_feature_dim: int = 32


@dataclass
class ChannelSettings:
    voxel_feature_dim: int = 16
    voxel_mlp_hidden: tuple = (16,)
    zstack_hidden: tuple = (32,)
    lidar_channels: int = 64        # width of the LiDAR BEV map
    radar_channels: int = 32        # width of the radar BEV map
    pillar_mlp_hidden: tuple = (16,)
    encoder_hidden: tuple = (8, 8)  # intermediate widths of the 3-block encoder
    encoder_channels: int = 512
    trunk_channels: tuple = (4, 4)


@dataclass
class HeadSettings:
    num_classes: int = 3
    score_thresh: float = 0.3
    max_detections: int = 64
    loss_weights: dict = field(default_factory=lambda: {
        "heatmap": 1.0, "offset": 1.0, "z": 1.0,
        "size": 1.0, "rot": 1.0, "vel": 1.0})


@dataclass
class SeedSettings:
    scene: int = 0
    weights: int = 7


@dataclass
class PipelineConfig:
    lidar_grid: GridSpec
    radar_grid: GridSpec
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
    def radar_cell_size(self) -> float:
        return self.radar_grid.cell[0]

    @property
    def z_min(self) -> float:
        return self.lidar_grid.origin[2]

    @property
    def pillar_height(self) -> float:
        return self.lidar_grid.cell[2] * self.lidar_grid.nz

    @property
    def grid_ratio(self) -> int:
        return int(round(self.radar_grid.cell[0] / self.lidar_grid.cell[0]))

    @property
    def extent(self) -> float:
        return -self.lidar_grid.origin[0]

    @property
    def classes(self) -> tuple:
        return CLASS_SETS[self.scene.class_set]

    def validate(self) -> None:
        lg, rg = self.lidar_grid, self.radar_grid
        if abs(rg.cell[0] - rg.cell[1]) > 1e-12:
            raise ConfigError(f"radar_grid.cell: dx ({rg.cell[0]}) != dy ({rg.cell[1]}); "
                              "the radar grid must be square")
        if rg.nz != 1:
            raise ConfigError(f"radar_grid.counts: pillar grid needs nz == 1, got {rg.nz}")
        if abs(rg.cell[2] - self.pillar_height) > 1e-9:
            raise ConfigError(f"radar_grid.cell: pillar depth {rg.cell[2]} must span "
                              f"the full z range {self.pillar_height}")
        for axis in (0, 1, 2):
            if abs(lg.origin[axis] - rg.origin[axis]) > 1e-12:
                raise ConfigError(f"radar_grid.origin: axis {axis} differs from "
                                  "lidar_grid.origin; the grids must share a corner")
        ratio = rg.cell[0] / lg.cell[0]
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(f"radar_grid.cell: radar cell {rg.cell[0]} is not an "
                              f"integer multiple of lidar cell {lg.cell[0]}")
        r = int(round(ratio))
        if lg.nx != rg.nx * r or lg.ny != rg.ny * r:
            raise ConfigError(f"radar_grid.counts: {rg.nx}x{rg.ny} cells at ratio {r} "
                              f"do not cover the lidar grid {lg.nx}x{lg.ny}")
        ch, fu = self.channels, self.fusion
        enhanced = ch.radar_channels + fu.height_feature_dim + fu.bev_feature_dim
        if enhanced != 96:
            raise ConfigError(
                "channels.radar_channels: radar width plus the two fusion feature "
                f"widths must total 96, got {ch.radar_channels}+"
                f"{fu.height_feature_dim}+{fu.bev_feature_dim} = {enhanced}")
        if ch.encoder_channels != 512:
            raise ConfigError(f"channels.encoder_channels: fixed at 512, "
                              f"got {ch.encoder_channels}")
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
        if hd.num_classes < 1 or hd.max_detections < 1:
            raise ConfigError("head.num_classes/max_detections: must be >= 1")
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
        d = asdict(self)
        d["lidar_grid"] = self.lidar_grid.to_dict()
        d["radar_grid"] = self.radar_grid.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        kwargs = dict(d)
        kwargs["lidar_grid"] = GridSpec.from_dict(d["lidar_grid"])
        kwargs["radar_grid"] = GridSpec.from_dict(d["radar_grid"])
        for name, sub in (("scene", SceneSettings), ("fusion", FusionSettings),
                          ("channels", ChannelSettings), ("head", HeadSettings),
                          ("seeds", SeedSettings)):
            if name in kwargs and isinstance(kwargs[name], dict):
                kwargs[name] = sub(**{k: (tuple(v) if isinstance(v, list) else v)
                                      for k, v in kwargs[name].items()})
        return cls(**kwargs)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def desk_config() -> PipelineConfig:
    """CI-friendly scale: +/-16 m range, 0.25 m LiDAR cells, 1 m radar cells."""
    return PipelineConfig(
        lidar_grid=GridSpec(origin=(-16.0, -16.0, -5.0), cell=(0.25, 0.25, 1.0),
                            counts=(128, 128, 8)),
        radar_grid=GridSpec(origin=(-16.0, -16.0, -5.0), cell=(1.0, 1.0, 8.0),
                            counts=(32, 32, 1)))


def paper_config() -> PipelineConfig:
    """Full-resolution scale: +/-54 m range, 0.075 m LiDAR voxels, 0.6 m radar
    pillars, 10/6 accumulated sweeps. Supported but slow."""
    return PipelineConfig(
        lidar_grid=GridSpec(origin=(-54.0, -54.0, -5.0), cell=(0.075, 0.075, 0.2),
                            counts=(1440, 1440, 40)),
        radar_grid=GridSpec(origin=(-54.0, -54.0, -5.0), cell=(0.6, 0.6, 8.0),
                            counts=(180, 180, 1)),
        lidar_sweeps=10,
        radar_sweeps=6,
        scene=SceneSettings(num_objects=12))


def tiny_config() -> PipelineConfig:
    """Minimal footprint for property sweeps: +/-4 m range, 16x16 LiDAR grid."""
    return PipelineConfig(
        lidar_grid=GridSpec(origin=(-4.0, -4.0, -5.0), cell=(0.5, 0.5, 2.0),
                            counts=(16, 16, 4)),
        radar_grid=GridSpec(origin=(-4.0, -4.0, -5.0), cell=(2.0, 2.0, 8.0),
                            counts=(4, 4, 1)),
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
