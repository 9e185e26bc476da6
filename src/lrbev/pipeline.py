"""End-to-end orchestration: encode both modalities, fuse, detect.

``run_pipeline`` executes the fixed stage order (scene-io -> grid encoding ->
LiDAR-to-Radar fusion -> Radar-to-LiDAR fusion and head) on a pair of clouds,
asserting the channel contract and sparsity bookkeeping at every boundary.
Its stages share the worker threads of ``lrbev.parallel``: the sibling
LiDAR and radar streams run side by side in two phases cut at their data
dependencies (voxel encoding beside height fusion, then the z-stack
collapse beside BEV fusion), and the GEMM blocks, gather chunks and band
items of the stages are maps on the same threads; a frame under two R2L
items high runs inline (see ``run_pipeline``).
Weights are either drawn from a seeded generator or the hand-set occupancy
probe used for smoke testing.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .cloud import DTYPE_BY_KIND, accumulate_sweeps
from .cloudio import parse_json
from .config import PipelineConfig
from .errors import PipelineError
from . import l2r, parallel
from .grids import (LIDAR_POINT_FEATURES, RADAR_CHANNELS, BevColumns, VoxelSet,
                    collapse_to_bev_grids, pillarize, voxel_encode, voxelize,
                    zstack_collapse)
# fuse_bev_maps -> bev_encoder -> detect_forward is the whole-map twin of
# r2l_forward, on the same conv kernels; run_pipeline itself never calls it.
# All three stay names of this module for code that wraps them.
from .heads import (ENCODER_CHANNELS, DetectionBox, HeadParams, bev_encoder,
                    decode_detections, detect_forward, fuse_bev_maps,
                    r2l_forward, workers_for)
# compute_cell_features, both L2R halves at once, stays a name of this
# module for code that runs the stages one by one.
from .l2r import (ENHANCED_CHANNELS, POINT_QUERY_FEATURES, BevFusionConfig,
                  HeightFusionConfig, compute_cell_features, enhance_radar_map,
                  fusion_stats, num_height_segments)
from .nn import Conv2dParams, FeatureMap, MlpParams
from .synth import SceneSpec, generate_scene, lidar_sweeps, radar_sweeps


@dataclass
class PipelineWeights:
    voxel_mlp: MlpParams
    zstack_mlp: MlpParams
    pillar_mlp: MlpParams
    point_mlp: MlpParams
    merge_mlp: MlpParams
    grid_mlp: MlpParams
    encoder: list            # or a tuple, in the shared random_weights
    head: HeadParams


def _layer_dims(cfg: PipelineConfig) -> dict:
    """Every layer shape, in draw order: the dims of each MLP, the encoder
    widths (fused map to 512), the trunk widths (512 on) and the output
    width of each 1x1 head."""
    ch, fu = cfg.channels, cfg.fusion
    m = num_height_segments(cfg.pillar_height, cfg.radar_cell)
    radar_fields = len(DTYPE_BY_KIND[f"radar_{cfg.radar_variant}"].names)
    return {
        "voxel_mlp": (LIDAR_POINT_FEATURES, *ch.voxel_mlp_hidden, ch.voxel_feature_dim),
        "zstack_mlp": (ch.voxel_feature_dim * cfg.lidar_grid.nz, *ch.zstack_hidden,
                       ch.lidar_channels),
        "pillar_mlp": (radar_fields, *ch.pillar_mlp_hidden, RADAR_CHANNELS),
        "point_mlp": (POINT_QUERY_FEATURES, *fu.point_mlp_hidden, fu.height_feature_dim),
        "merge_mlp": (m * fu.height_feature_dim, *fu.merge_mlp_hidden,
                      fu.height_feature_dim),
        # a grid feature plus its (di, dj) offset
        "grid_mlp": (ch.voxel_feature_dim + 2, *fu.grid_mlp_hidden, fu.bev_feature_dim),
        "encoder": (ch.lidar_channels + ENHANCED_CHANNELS, *ch.encoder_hidden,
                    ENCODER_CHANNELS),
        "trunk": (ENCODER_CHANNELS, *ch.trunk_channels),
        "heads": {"heatmap": cfg.num_classes, "offset": 2, "z": 1, "size": 3,
                  "rot": 2, "vel": 2},
    }


# Weight sets drawn so far, by (layer shapes, seed), oldest first; at most
# _WEIGHT_SETS are kept.
_WEIGHTS: dict = {}
_WEIGHT_SETS = 8
_WEIGHTS_LOCK = threading.Lock()


def random_weights(cfg: PipelineConfig, seed: int) -> PipelineWeights:
    """All learnable parameters from one seeded generator, fixed draw order.

    Drawn once per (layer shapes, seed) and shared by every later call with
    the same ones, so every array is read-only."""
    dims = _layer_dims(cfg)
    key = (repr(dims), seed)
    with _WEIGHTS_LOCK:
        weights = _WEIGHTS.get(key)
        if weights is None:
            if len(_WEIGHTS) >= _WEIGHT_SETS:
                del _WEIGHTS[next(iter(_WEIGHTS))]
            weights = _WEIGHTS[key] = _draw_weights(dims, seed)
    return weights


def _draw_weights(dims: dict, seed: int) -> PipelineWeights:
    """The weights of ``random_weights``, frozen: read-only arrays, layer
    tuples."""
    rng = np.random.default_rng([seed, 424242])
    weights = {name: MlpParams.init(d, rng) for name, d in dims.items()
               if name.endswith("_mlp")}

    def convs(widths):
        return tuple(Conv2dParams.init(cin, cout, 3, rng, padding=1)
                     for cin, cout in zip(widths, widths[1:]))

    weights["encoder"] = convs(dims["encoder"])
    trunk = convs(dims["trunk"])     # drawn before the heads
    heads = {name: Conv2dParams.init(dims["trunk"][-1], out, 1, rng)
             for name, out in dims["heads"].items()}
    weights["head"] = HeadParams(trunk=trunk, **heads)
    arrays = [a for name in weights if name.endswith("_mlp")
              for layer in weights[name].layers for a in layer]
    for conv in (*weights["encoder"], *trunk, *heads.values()):
        arrays += [conv.kernel, conv.bias]
    for a in arrays:
        a.flags.writeable = False
    return PipelineWeights(**weights)


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
        if k == 0 and first_bias or k == len(dims) - 2 and final_bias:
            b[0] = 1.0
        elif k == 0 and sum_stride:
            w[0, ::sum_stride] = 1.0
        else:
            w[0, 0] = 1.0
        layers.append((w, b))
    return MlpParams(layers)


def probe_weights(cfg: PipelineConfig) -> PipelineWeights:
    """Identity-like weights that turn the network into an occupancy probe.

    The LiDAR path counts occupied z-levels per cell on channel 0, the first
    encoder block box-blurs that count, every later block passes it through,
    and the class-0 heatmap reads it against a fixed bias. Radar-side blocks
    emit constant-one channel-0 marks so sparsity bookkeeping stays intact.
    """
    dims = _layer_dims(cfg)
    probes = {"voxel_mlp": {"first_bias": True},
              "zstack_mlp": {"sum_stride": cfg.channels.voxel_feature_dim},
              "pillar_mlp": {"first_bias": True},
              "point_mlp": {},
              "merge_mlp": {"final_bias": True},
              "grid_mlp": {"final_bias": True}}
    weights = {name: _probe_mlp(dims[name], **kw) for name, kw in probes.items()}

    def convs(widths, blur_first=False):
        out = []
        for k, (cin, cout) in enumerate(zip(widths, widths[1:])):
            kernel = np.zeros((cout, cin, 3, 3))
            if k == 0 and blur_first:
                kernel[0, 0, :, :] = 1.0     # 3x3 box blur of the occupancy channel
            else:
                kernel[0, 0, 1, 1] = 1.0
            out.append(Conv2dParams(kernel, np.zeros(cout), padding=1))
        return out

    weights["encoder"] = convs(dims["encoder"], blur_first=True)
    heads = {name: Conv2dParams(np.zeros((out, dims["trunk"][-1], 1, 1)), np.zeros(out))
             for name, out in dims["heads"].items()}
    heads["heatmap"].kernel[0, 0, 0, 0] = 1.0
    heads["heatmap"].bias[:] = -8.0
    weights["head"] = HeadParams(trunk=convs(dims["trunk"]), **heads)
    return PipelineWeights(**weights)


def height_fusion_config(cfg: PipelineConfig, w: PipelineWeights) -> HeightFusionConfig:
    return HeightFusionConfig(
        cell_size=cfg.radar_cell, pillar_height=cfg.pillar_height,
        z_min=cfg.z_min, point_mlp=w.point_mlp, merge_mlp=w.merge_mlp,
        ball_radius=cfg.fusion.ball_radius, max_group=cfg.fusion.height_max_group)


def bev_fusion_config(cfg: PipelineConfig, w: PipelineWeights) -> BevFusionConfig:
    return BevFusionConfig(grid_mlp=w.grid_mlp, window=cfg.fusion.bev_window,
                           max_group=cfg.fusion.bev_max_group,
                           distance_mode=cfg.fusion.distance_mode)


@dataclass
class PipelineResult:
    """A run's detections, its ``stats``, and the maps it holds by name:
    ``m_l``, ``m_r`` and ``enhanced`` as ``BevColumns`` (whose dense map is
    built on each read of ``data``) and the ``heatmap`` ``FeatureMap``. The
    fused and encoded maps are never built by a run;
    ``heads.fuse_bev_maps`` and ``heads.bev_encoder`` make them from these."""

    detections: list
    stats: dict
    maps: dict


def _require(cond: bool, stage: str, message: str) -> None:
    if not cond:
        raise PipelineError(f"{stage}: {message}")


@contextmanager
def _stage(stage: str):
    """Re-raise any error but a PipelineError as one naming ``stage``."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(f"{stage}: {e}") from e


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
                 weights: PipelineWeights | None = None, *,
                 workers: int | None = None) -> PipelineResult:
    """Clouds in, detections plus per-stage statistics out.

    Deterministic in (config, clouds, weights), whatever the number of
    worker threads. Every config keeps the channel contract, since its
    widths are constants: radar 32 -> enhanced 96 -> fused lidar_channels +
    96 -> encoded 512. It and the sparsity bookkeeping are asserted on
    every run.

    Threads: the stages share the ``parallel.WORKERS`` threads
    (``workers`` overrides it, for tests), the calling thread among them.
    The sibling LiDAR and radar streams run side by side in two phases, cut
    where their data dependencies lie. Phase A runs ``voxelize`` ->
    ``voxel_encode`` beside ``pillarize`` -> ``l2r.height_fuse``, which
    reads only the raw cloud and the pillar cells. Phase B, which needs the
    encoded voxels, runs ``zstack_collapse`` beside
    ``collapse_to_bev_grids`` -> ``l2r.bev_fuse`` -> ``enhance_radar_map``.
    The GEMM blocks of ``voxel_encode`` and ``zstack_collapse`` are maps
    nested in their stream, and ``r2l_forward`` runs its gather chunks and
    band items on the same threads. A frame whose LiDAR map is under two
    R2L items high (``heads.workers_for``; all of tiny) runs every stage
    inline and never starts the pool: handing so small a frame's work to
    threads costs more than it saves. A failure names its stage. When
    several fail, the first in program order is raised, as a one-worker run
    raises it: phase A before phase B, and within a phase the LiDAR stream
    before the radar stream.
    """
    cfg.validate()
    radar_grid = cfg.radar_grid
    if weights is None:
        weights = random_weights(cfg, cfg.seeds.weights)
    stats: dict = {"scene_io": {"lidar_points": int(len(lidar)),
                                "radar_points": int(len(radar))}}
    workers = workers_for(cfg.lidar_grid.ny, workers)

    def lidar_front() -> VoxelSet:
        with _stage("grid-encoding"):
            voxels = voxelize(lidar, cfg.lidar_grid, cfg.max_points_per_voxel)
            return voxel_encode(voxels, weights.voxel_mlp, workers)

    def radar_front() -> tuple:
        stage = "grid-encoding"
        with _stage(stage):
            pillars = pillarize(radar, radar_grid, weights.pillar_mlp)
        _require(pillars.map.channels == RADAR_CHANNELS, stage,
                 f"radar map has {pillars.map.channels} channels, the contract "
                 f"fixes {RADAR_CHANNELS}")
        with _stage("l2r-fusion"):
            cfg_h = height_fusion_config(cfg, weights)
            # Through the module attribute, where wrappers can time it.
            height, seg_counts = l2r.height_fuse(pillars.occupied.cells, cfg_h,
                                                 lidar, radar_grid)
        return pillars, cfg_h, height, seg_counts

    def lidar_back() -> BevColumns:
        with _stage("grid-encoding"):
            m_l = zstack_collapse(voxels, weights.zstack_mlp, workers)
        _require(m_l.shape == (cfg.channels.lidar_channels, cfg.lidar_grid.ny,
                               cfg.lidar_grid.nx), "grid-encoding",
                 f"LiDAR map shape {m_l.shape} violates the configured grid")
        return m_l

    def radar_back() -> tuple:
        with _stage("grid-encoding"):
            lidar_grids = collapse_to_bev_grids(voxels, cfg.radar_cell)
        with _stage("l2r-fusion"):
            cfg_b = bev_fusion_config(cfg, weights)
            bev, bev_counts = l2r.bev_fuse(pillars.occupied.cells, lidar_grids, cfg_b)
            features = np.concatenate([height, bev], axis=1)
            # Checks one feature row per pillar and the 96-channel contract.
            enhanced = enhance_radar_map(pillars.map, pillars.occupied, features)
        return (lidar_grids, features, enhanced,
                fusion_stats(seg_counts, bev_counts, cfg_h, cfg_b))

    voxels, (pillars, cfg_h, height, seg_counts) = parallel.each(
        lambda stream: stream(), (lidar_front, radar_front), workers)
    m_l, (lidar_grids, features, enhanced, fstats) = parallel.each(
        lambda stream: stream(), (lidar_back, radar_back), workers)
    m_r = pillars.map
    stage = "l2r-fusion"
    nonzero_cells = int(np.count_nonzero(enhanced.features.any(axis=1)))
    _require(nonzero_cells == len(pillars.occupied), stage,
             f"{nonzero_cells} non-zero enhanced cells for "
             f"{len(pillars.occupied)} non-empty pillars")
    stats["grid_encoding"] = {
        "occupied_voxels": len(voxels.occupied),
        "lidar_columns": len(m_l.ids),
        "dropped_lidar_points": voxels.dropped,
        "truncated_lidar_points": voxels.truncated,
        "ml_shape": list(m_l.shape),
        "radar_pillars": len(pillars.occupied),
        "dropped_radar_points": pillars.dropped,
        "truncated_radar_points": pillars.truncated,
        "mr_shape": list(m_r.shape),
        "coarse_lidar_cells": len(lidar_grids),
    }
    stats["l2r_fusion"] = {
        "pseudo_features": len(features),
        "enhanced_shape": list(enhanced.shape),
        "enhanced_nonzero_cells": nonzero_cells,
        "ball_query_hit_rate": fstats["ball_query_hit_rate"],
        "bev_query_hit_rate": fstats["bev_query_hit_rate"],
        "capped_height_groups": fstats["capped_height_groups"],
        "capped_bev_groups": fstats["capped_bev_groups"],
    }

    with _stage("r2l-fusion-head"):
        r2l_counts: dict = {}
        outputs = r2l_forward(m_l, enhanced, weights.encoder, weights.head,
                              workers=workers, counts=r2l_counts)
        detections = decode_detections(outputs, cfg.lidar_grid,
                                       cfg.head.score_thresh,
                                       cfg.head.max_detections)
    # r2l_forward builds none of the LiDAR, fused and encoded maps whole;
    # their shapes follow from the inputs and the encoder weights.
    fused_shape = [m_l.channels + enhanced.channels, m_l.height, m_l.width]
    encoded_shape = [weights.encoder[-1].kernel.shape[0], m_l.height, m_l.width]
    stats["r2l_fusion_head"] = {
        "fused_shape": fused_shape,
        "encoded_shape": encoded_shape,
        "detections": len(detections),
        "gathered_columns": r2l_counts["gathered_columns"],
    }
    maps = {"m_l": m_l, "m_r": m_r, "enhanced": enhanced,
            "heatmap": FeatureMap(outputs.heatmap)}
    return PipelineResult(detections=detections, stats=stats, maps=maps)


def zstack_collapse_safe(voxels, zstack_mlp, cfg: PipelineConfig):
    """``zstack_collapse``, which maps an empty voxel set to no columns
    itself; kept as a stage name for code that calls it."""
    return zstack_collapse(voxels, zstack_mlp)


def _json_float(v: float) -> str:
    """``v`` as ``json.dumps`` writes a float."""
    if v != v:
        return "NaN"
    if v in (math.inf, -math.inf):
        return "Infinity" if v > 0 else "-Infinity"
    return float.__repr__(v)


def detections_to_jsonl(detections) -> str:
    """One ``json.dumps(d.to_dict(), sort_keys=True)`` line per detection,
    formatted directly."""
    f = _json_float
    return "".join(
        f'{{"class_id": {d.class_id}, "height": {f(d.height)}, '
        f'"length": {f(d.length)}, "score": {f(d.score)}, "vx": {f(d.vx)}, '
        f'"vy": {f(d.vy)}, "width": {f(d.width)}, "x": {f(d.x)}, '
        f'"y": {f(d.y)}, "yaw": {f(d.yaw)}, "z": {f(d.z)}}}\n'
        for d in detections)


def read_detections_jsonl(path) -> list:
    out, offset = [], 0
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                out.append(parse_json(line, f"{path}:{number}",
                                      DetectionBox.from_dict, offset))
            offset += len(line)
    return out
