"""Deterministic LiDAR-radar BEV fusion pipeline with property-testable kernels."""

from .cloud import Pose, accumulate_sweeps, lidar_xyz, make_cloud, radar_xyz
from .config import PipelineConfig, desk_config, paper_config, tiny_config
from .errors import (ConfigError, EmptyGroupError, FormatError, LrbevError,
                     PipelineError, PlacementError, ShapeError)
from .evalmetrics import EvalResult, eval_detections
from .grids import (BevColumns, GridSpec, VoxelSet,
                    collapse_to_bev_grids, pillarize, voxel_encode, voxelize,
                    zstack_collapse)
from .heads import (DetectionBox, HeadOutputs, HeadParams, LossBreakdown,
                    LossWeights, bev_encoder, compute_loss, decode_detections,
                    detect_forward, fuse_bev_maps, outputs_from_targets,
                    render_targets)
from .l2r import (BevFusionConfig, HeightFusionConfig, QueryPoint,
                  QueryResult, ball_query, ball_query_brute, bev_fuse,
                  bev_query, bev_query_brute, enhance_radar_map, height_fuse,
                  segment_query_points)
from .nn import (Conv2dParams, FeatureMap, GradReport, MlpParams,
                 conv2d_forward, finite_diff_check, max_reduce, mlp_forward)
from .pipeline import (PipelineResult, PipelineWeights, generate_clouds,
                       probe_weights, random_weights, run_pipeline)
from .synth import (GroundTruthBox, Scene, SceneSpec, generate_scene,
                    lidar_sample, radar_sample)

__version__ = "0.1.0"
