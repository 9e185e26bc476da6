"""End-to-end orchestration: encode both modalities, fuse, detect.

``run_pipeline`` executes the fixed stage order (scene-io -> grid encoding ->
LiDAR-to-Radar fusion -> Radar-to-LiDAR fusion and head) on a pair of clouds,
asserting the channel contract and sparsity bookkeeping at every boundary.
Weights are either drawn from a seeded generator or the hand-set occupancy
probe used for smoke testing.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cloud import accumulate_sweeps
from .config import PipelineConfig
from .errors import PipelineError
from .grids import (LIDAR_POINT_FEATURES, collapse_to_bev_grids, pillarize,
                    voxel_encode, voxelize, zstack_collapse)
from .heads import (DetectionBox, HeadParams, LossWeights, bev_encoder,
                    decode_detections, detect_forward, fuse_bev_maps)
from .l2r import (BevFusionConfig, HeightFusionConfig, compute_cell_features,
                  enhance_radar_map, num_height_segments)
from .nn import Conv2dParams, FeatureMap, MlpParams
from .synth import SceneSpec, generate_scene, lidar_sweeps, radar_sweeps

RADAR_FIELD_COUNT = {"a": 9, "b": 4}


@dataclass
class PipelineWeights:
    voxel_mlp: MlpParams
    zstack_mlp: MlpParams
    pillar_mlp: MlpParams
    point_mlp: MlpParams
    merge_mlp: MlpParams
    grid_mlp: MlpParams
    encoder: list
    head: HeadParams


def _head_params(rng, trunk_channels, in_channels: int, num_classes: int) -> HeadParams:
    trunk = []
    prev = in_channels
    for width in trunk_channels:
        trunk.append(Conv2dParams.init(prev, width, 3, rng, padding=1))
        prev = width
    def head(out):
        return Conv2dParams.init(prev, out, 1, rng)
    return HeadParams(trunk=trunk, heatmap=head(num_classes), offset=head(2),
                      z=head(1), size=head(3), rot=head(2), vel=head(2))


def random_weights(cfg: PipelineConfig, seed: int) -> PipelineWeights:
    """All learnable parameters from one seeded generator, fixed draw order."""
    rng = np.random.default_rng([seed, 424242])
    ch, fu = cfg.channels, cfg.fusion
    m = num_height_segments(cfg.pillar_height, cfg.radar_cell_size)
    voxel = MlpParams.init((LIDAR_POINT_FEATURES, *ch.voxel_mlp_hidden,
                            ch.voxel_feature_dim), rng)
    zstack = MlpParams.init((ch.voxel_feature_dim * cfg.lidar_grid.nz,
                             *ch.zstack_hidden, ch.lidar_channels), rng)
    pillar = MlpParams.init((RADAR_FIELD_COUNT[cfg.radar_variant],
                             *ch.pillar_mlp_hidden, ch.radar_channels), rng)
    point = MlpParams.init((5, *fu.point_mlp_hidden, fu.height_feature_dim), rng)
    merge = MlpParams.init((m * fu.height_feature_dim, *fu.merge_mlp_hidden,
                            fu.height_feature_dim), rng)
    grid = MlpParams.init((ch.voxel_feature_dim + 2, *fu.grid_mlp_hidden,
                           fu.bev_feature_dim), rng)
    fused_channels = ch.lidar_channels + 96
    widths = [fused_channels, *ch.encoder_hidden, ch.encoder_channels]
    encoder = [Conv2dParams.init(widths[k], widths[k + 1], 3, rng, padding=1)
               for k in range(3)]
    head = _head_params(rng, ch.trunk_channels, ch.encoder_channels,
                        cfg.head.num_classes)
    return PipelineWeights(voxel_mlp=voxel, zstack_mlp=zstack, pillar_mlp=pillar,
                           point_mlp=point, merge_mlp=merge, grid_mlp=grid,
                           encoder=encoder, head=head)


def _probe_mlp(dims, first_bias: bool = False, final_bias: bool = False,
               sum_stride: int = 0) -> MlpParams:
    """Hand-set MLP passing a single scalar lane through channel 0.

    ``first_bias`` plants a constant 1 at the entry; ``sum_stride`` makes the
    first layer sum input slots 0, stride, 2*stride, ...; ``final_bias``
    forces output channel 0 to a constant 1 regardless of input.
    """
    layers = []
    for k, (fin, fout) in enumerate(zip(dims[:-1], dims[1:])):
        w = np.zeros((fout, fin))
        b = np.zeros(fout)
        if k == 0 and first_bias:
            b[0] = 1.0
        elif k == 0 and sum_stride:
            w[0, ::sum_stride] = 1.0
        elif k == 0:
            w[0, 0] = 1.0
        else:
            w[0, 0] = 1.0
        if k == len(dims) - 2 and final_bias:
            w[:] = 0.0
            b[:] = 0.0
            b[0] = 1.0
        layers.append((w, b))
    return MlpParams(layers)


def probe_weights(cfg: PipelineConfig) -> PipelineWeights:
    """Identity-like weights that turn the network into an occupancy probe.

    The LiDAR path counts occupied z-levels per cell on channel 0, the first
    encoder block box-blurs that count, every later block passes it through,
    and the class-0 heatmap reads it against a fixed bias. Radar-side blocks
    emit constant-one channel-0 marks so sparsity bookkeeping stays intact.
    """
    ch, fu = cfg.channels, cfg.fusion
    m = num_height_segments(cfg.pillar_height, cfg.radar_cell_size)
    voxel = _probe_mlp((LIDAR_POINT_FEATURES, *ch.voxel_mlp_hidden,
                        ch.voxel_feature_dim), first_bias=True)
    zstack = _probe_mlp((ch.voxel_feature_dim * cfg.lidar_grid.nz,
                         *ch.zstack_hidden, ch.lidar_channels),
                        sum_stride=ch.voxel_feature_dim)
    pillar = _probe_mlp((RADAR_FIELD_COUNT[cfg.radar_variant],
                         *ch.pillar_mlp_hidden, ch.radar_channels),
                        first_bias=True)
    point = _probe_mlp((5, *fu.point_mlp_hidden, fu.height_feature_dim))
    merge = _probe_mlp((m * fu.height_feature_dim, *fu.merge_mlp_hidden,
                        fu.height_feature_dim), final_bias=True)
    grid = _probe_mlp((ch.voxel_feature_dim + 2, *fu.grid_mlp_hidden,
                       fu.bev_feature_dim), final_bias=True)

    fused_channels = ch.lidar_channels + 96
    widths = [fused_channels, *ch.encoder_hidden, ch.encoder_channels]
    encoder = []
    for k in range(3):
        kernel = np.zeros((widths[k + 1], widths[k], 3, 3))
        if k == 0:
            kernel[0, 0, :, :] = 1.0     # 3x3 box blur of the occupancy channel
        else:
            kernel[0, 0, 1, 1] = 1.0
        encoder.append(Conv2dParams(kernel, np.zeros(widths[k + 1]), padding=1))

    trunk = []
    prev = ch.encoder_channels
    for width in ch.trunk_channels:
        kernel = np.zeros((width, prev, 3, 3))
        kernel[0, 0, 1, 1] = 1.0
        trunk.append(Conv2dParams(kernel, np.zeros(width), padding=1))
        prev = width

    def zero_head(out):
        return Conv2dParams(np.zeros((out, prev, 1, 1)), np.zeros(out))

    hm_kernel = np.zeros((cfg.head.num_classes, prev, 1, 1))
    hm_kernel[0, 0, 0, 0] = 1.0
    hm_bias = np.full(cfg.head.num_classes, -8.0)
    head = HeadParams(trunk=trunk,
                      heatmap=Conv2dParams(hm_kernel, hm_bias),
                      offset=zero_head(2), z=zero_head(1), size=zero_head(3),
                      rot=zero_head(2), vel=zero_head(2))
    return PipelineWeights(voxel_mlp=voxel, zstack_mlp=zstack, pillar_mlp=pillar,
                           point_mlp=point, merge_mlp=merge, grid_mlp=grid,
                           encoder=encoder, head=head)


def height_fusion_config(cfg: PipelineConfig, w: PipelineWeights) -> HeightFusionConfig:
    return HeightFusionConfig(
        cell_size=cfg.radar_cell_size, pillar_height=cfg.pillar_height,
        z_min=cfg.z_min, point_mlp=w.point_mlp, merge_mlp=w.merge_mlp,
        ball_radius=cfg.fusion.ball_radius, max_group=cfg.fusion.height_max_group)


def bev_fusion_config(cfg: PipelineConfig, w: PipelineWeights) -> BevFusionConfig:
    return BevFusionConfig(grid_mlp=w.grid_mlp, window=cfg.fusion.bev_window,
                           max_group=cfg.fusion.bev_max_group,
                           distance_mode=cfg.fusion.distance_mode)


@dataclass
class PipelineResult:
    detections: list
    stats: dict
    maps: dict


def _require(cond: bool, stage: str, message: str) -> None:
    if not cond:
        raise PipelineError(f"{stage}: {message}")


def generate_clouds(cfg: PipelineConfig, seed: int):
    """Scene plus accumulated LiDAR/radar clouds for one keyframe."""
    sc = cfg.scene
    spec = SceneSpec(extent=cfg.extent, num_objects=sc.num_objects,
                     classes=cfg.classes, sensor_height=sc.sensor_height,
                     ground_z=sc.ground_z, speed_max=sc.speed_max,
                     stationary_fraction=sc.stationary_fraction,
                     min_range=sc.min_range)
    scene = generate_scene(spec, seed)
    clouds, poses = lidar_sweeps(scene, cfg.lidar_sweeps, sc.sweep_dt,
                                 sc.ego_velocity, sc.lidar_density,
                                 sc.lidar_noise_sigma, seed,
                                 ground_density=sc.ground_density)
    lidar = accumulate_sweeps(clouds, poses)
    clouds, poses = radar_sweeps(scene, cfg.radar_sweeps, sc.sweep_dt,
                                 sc.ego_velocity, sc.radar_returns, seed,
                                 variant=cfg.radar_variant)
    radar = accumulate_sweeps(clouds, poses)
    return scene, lidar, radar


def run_pipeline(cfg: PipelineConfig, lidar: np.ndarray, radar: np.ndarray,
                 weights: PipelineWeights | None = None) -> PipelineResult:
    """Clouds in, detections plus per-stage statistics out.

    Deterministic in (config, clouds, weights); the channel contract
    (32 -> 96 -> C1+96 -> 512) and the sparsity bookkeeping are asserted on
    every run.
    """
    cfg.validate()
    if weights is None:
        weights = random_weights(cfg, cfg.seeds.weights)
    stats: dict = {"scene_io": {"lidar_points": int(len(lidar)),
                                "radar_points": int(len(radar))}}
    stage = "grid-encoding"
    try:
        voxels = voxelize(lidar, cfg.lidar_grid, cfg.max_points_per_voxel)
        voxel_encode(voxels, weights.voxel_mlp)
        m_l = zstack_collapse_safe(voxels, weights.zstack_mlp, cfg)
        pillars = pillarize(radar, cfg.radar_grid, weights.pillar_mlp)
        m_r = pillars.map
        lidar_grids = collapse_to_bev_grids(voxels, cfg.radar_cell_size)
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(f"{stage}: {e}") from e
    _require(m_r.channels == 32, stage, f"radar map has {m_r.channels} channels, "
             "the contract fixes 32")
    _require(m_l.shape == (cfg.channels.lidar_channels, cfg.lidar_grid.ny,
                           cfg.lidar_grid.nx), stage,
             f"LiDAR map shape {m_l.shape} violates the configured grid")
    stats["grid_encoding"] = {
        "occupied_voxels": len(voxels.occupied),
        "dropped_lidar_points": voxels.dropped,
        "truncated_lidar_points": voxels.truncated,
        "ml_shape": list(m_l.shape),
        "radar_pillars": len(pillars.occupied),
        "dropped_radar_points": pillars.dropped,
        "truncated_radar_points": pillars.truncated,
        "mr_shape": list(m_r.shape),
        "coarse_lidar_cells": len(lidar_grids),
    }

    stage = "l2r-fusion"
    try:
        cfg_h = height_fusion_config(cfg, weights)
        cfg_b = bev_fusion_config(cfg, weights)
        features, fstats = compute_cell_features(pillars.occupied, cfg_h, cfg_b,
                                                 lidar, lidar_grids, cfg.radar_grid)
        enhanced = enhance_radar_map(m_r, pillars.occupied, features)
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(f"{stage}: {e}") from e
    _require(enhanced.channels == 96, stage,
             f"enhanced radar map has {enhanced.channels} channels, expected 96")
    _require(len(features) == len(pillars.occupied), stage,
             f"{len(features)} pseudo features for {len(pillars.occupied)} "
             "non-empty cells")
    nonzero_cells = int((np.abs(enhanced.data) > 0).any(axis=0).sum())
    _require(nonzero_cells == len(pillars.occupied), stage,
             f"{nonzero_cells} non-zero enhanced cells for "
             f"{len(pillars.occupied)} non-empty pillars")
    stats["l2r_fusion"] = {
        "pseudo_features": len(features),
        "enhanced_shape": list(enhanced.shape),
        "enhanced_nonzero_cells": nonzero_cells,
        "ball_query_hit_rate": fstats["ball_query_hit_rate"],
        "bev_query_hit_rate": fstats["bev_query_hit_rate"],
    }

    stage = "r2l-fusion-head"
    try:
        fused = fuse_bev_maps(m_l, enhanced)
        encoded = bev_encoder(fused, weights.encoder)
        outputs = detect_forward(encoded, weights.head)
        detections = decode_detections(outputs, cfg.lidar_grid,
                                       cfg.head.score_thresh,
                                       cfg.head.max_detections)
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(f"{stage}: {e}") from e
    _require(fused.channels == cfg.channels.lidar_channels + 96, stage,
             f"fused map has {fused.channels} channels, expected "
             f"{cfg.channels.lidar_channels + 96}")
    _require(encoded.channels == 512, stage,
             f"encoder output has {encoded.channels} channels, expected 512")
    stats["r2l_fusion_head"] = {
        "fused_shape": list(fused.shape),
        "encoded_shape": list(encoded.shape),
        "detections": len(detections),
    }
    maps = {"m_l": m_l, "m_r": m_r, "enhanced": enhanced, "fused": fused,
            "encoded": encoded, "heatmap": FeatureMap(outputs.heatmap)}
    return PipelineResult(detections=detections, stats=stats, maps=maps)


def zstack_collapse_safe(voxels, zstack_mlp, cfg: PipelineConfig):
    """Z-stack collapse that also covers the all-empty cloud (no features,
    thus no feature dim to infer)."""
    if len(voxels.occupied) == 0:
        return FeatureMap.zeros(cfg.channels.lidar_channels, cfg.lidar_grid.ny,
                                cfg.lidar_grid.nx)
    return zstack_collapse(voxels, zstack_mlp)


def loss_weights(cfg: PipelineConfig) -> LossWeights:
    return LossWeights(**cfg.head.loss_weights)


def detections_to_jsonl(detections) -> str:
    return "".join(json.dumps(d.to_dict(), sort_keys=True) + "\n"
                   for d in detections)


def read_detections_jsonl(path) -> list:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(DetectionBox.from_dict(json.loads(line)))
    return out
