"""End-to-end pipeline: determinism, stage stats, channel contract."""

import dataclasses

import numpy as np
import pytest

from lrbev.cloud import make_cloud
from lrbev.config import tiny_config
from lrbev.errors import PipelineError
from lrbev.pipeline import (detections_to_jsonl, generate_clouds, probe_weights,
                            random_weights, run_pipeline)


@pytest.fixture(scope="module")
def tiny_run():
    cfg = tiny_config()
    scene, lidar, radar = generate_clouds(cfg, 3)
    return cfg, scene, lidar, radar, run_pipeline(cfg, lidar, radar)


def test_empty_scene_zero_radar_detections_possible(tiny_run):
    cfg = tiny_config()
    cfg.scene.num_objects = 0
    scene, lidar, radar = generate_clouds(cfg, 0)
    assert len(radar) == 0
    result = run_pipeline(cfg, lidar, radar)
    st = result.stats
    assert st["grid_encoding"]["radar_pillars"] == 0
    assert st["l2r_fusion"]["pseudo_features"] == 0
    assert st["l2r_fusion"]["enhanced_shape"] == [96, 4, 4]
    assert st["r2l_fusion_head"]["encoded_shape"][0] == 512


def test_fully_empty_clouds():
    cfg = tiny_config()
    result = run_pipeline(cfg, make_cloud("lidar", {}), make_cloud("radar_a", {}))
    assert result.stats["grid_encoding"]["occupied_voxels"] == 0
    assert result.stats["l2r_fusion"]["enhanced_nonzero_cells"] == 0


def test_radar_pillar_truncation_counted():
    cfg = tiny_config()
    n = 33
    radar = make_cloud("radar_a", {"x": np.full(n, 0.5), "y": np.full(n, 0.5),
                                   "rcs": np.arange(n, dtype=float)})
    result = run_pipeline(cfg, make_cloud("lidar", {}), radar)
    st = result.stats["grid_encoding"]
    assert st["radar_pillars"] == 1
    assert st["truncated_radar_points"] == 1


def test_same_inputs_byte_identical_detections(tiny_run):
    cfg, scene, lidar, radar, result = tiny_run
    again = run_pipeline(cfg, lidar, radar)
    assert detections_to_jsonl(result.detections) == \
        detections_to_jsonl(again.detections)
    assert result.stats == again.stats


def test_generate_clouds_deterministic():
    cfg = tiny_config()
    a = generate_clouds(cfg, 9)
    b = generate_clouds(cfg, 9)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


def test_stats_pseudo_features_match_pillars(tiny_run):
    _, _, _, _, result = tiny_run
    st = result.stats
    assert st["l2r_fusion"]["pseudo_features"] == \
        st["grid_encoding"]["radar_pillars"]
    assert st["l2r_fusion"]["enhanced_nonzero_cells"] == \
        st["grid_encoding"]["radar_pillars"]


def test_channel_contract_chain(tiny_run):
    cfg, _, _, _, result = tiny_run
    st = result.stats
    assert st["grid_encoding"]["mr_shape"][0] == 32
    assert st["l2r_fusion"]["enhanced_shape"][0] == 96
    assert st["r2l_fusion_head"]["fused_shape"][0] == cfg.channels.lidar_channels + 96
    assert st["r2l_fusion_head"]["encoded_shape"][0] == 512


def test_maps_exposed_for_dumping(tiny_run):
    _, _, _, _, result = tiny_run
    assert set(result.maps) == {"m_l", "m_r", "enhanced", "fused", "encoded",
                                "heatmap"}
    assert result.maps["heatmap"].data.min() > 0.0
    assert result.maps["heatmap"].data.max() < 1.0


def test_radar_variant_b_runs():
    cfg = dataclasses.replace(tiny_config(), radar_variant="b")
    scene, lidar, radar = generate_clouds(cfg, 1)
    assert radar.dtype.names == ("x", "y", "rcs", "t")
    result = run_pipeline(cfg, lidar, radar)
    assert result.stats["l2r_fusion"]["enhanced_shape"][0] == 96


def test_stage_name_attached_to_errors(tiny_run):
    cfg, _, lidar, radar, _ = tiny_run
    weights = random_weights(cfg, 0)
    bad = dataclasses.replace(weights, pillar_mlp=weights.point_mlp)
    with pytest.raises(PipelineError, match="grid-encoding"):
        run_pipeline(cfg, lidar, radar, weights=bad)


def test_weight_seed_changes_outputs(tiny_run):
    cfg, _, lidar, radar, result = tiny_run
    other = dataclasses.replace(cfg, seeds=dataclasses.replace(cfg.seeds,
                                                               weights=99))
    res2 = run_pipeline(other, lidar, radar)
    assert not np.array_equal(result.maps["m_l"].data, res2.maps["m_l"].data)


class TestProbeWeights:
    def test_probe_marks_radar_cells(self):
        cfg = tiny_config()
        _, lidar, radar = generate_clouds(cfg, 5)
        result = run_pipeline(cfg, lidar, radar, weights=probe_weights(cfg))
        m_r = result.maps["m_r"].data
        occupied = (np.abs(m_r) > 0).any(axis=0)
        assert np.all(m_r[0][occupied] == 1.0)
        # enhanced channel 32 carries the constant height-feature mark
        enhanced = result.maps["enhanced"].data
        assert np.all(enhanced[32][occupied] == 1.0)

    def test_probe_lidar_channel_counts_z_occupancy(self):
        cfg = tiny_config()
        _, lidar, radar = generate_clouds(cfg, 5)
        result = run_pipeline(cfg, lidar, radar, weights=probe_weights(cfg))
        m_l = result.maps["m_l"].data
        assert np.all(m_l[1:] == 0.0)
        counts = m_l[0]
        assert counts.max() <= cfg.lidar_grid.nz
        assert counts.min() >= 0.0
        assert np.all(counts == np.round(counts))
