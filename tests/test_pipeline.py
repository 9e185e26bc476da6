"""End-to-end pipeline: determinism, stage stats, channel contract."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from lrbev import grids, heads, pipeline
from lrbev.cloud import make_cloud
from lrbev.config import config_for_scale, desk_config, tiny_config
from lrbev.errors import ConfigError, PipelineError
from lrbev.grids import GridSpec, voxelize
from lrbev.heads import _replication, fuse_bev_maps
from lrbev.nn import MlpParams
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


def test_jsonl_lines_are_the_json_dumps_lines():
    """Each line is ``json.dumps(d.to_dict(), sort_keys=True)``, non-finite
    values included: a size logit whose ``exp`` overflows decodes to an
    infinite length, written ``Infinity``."""
    grid = tiny_config().lidar_grid
    h, w = grid.ny, grid.nx
    logits = np.full((2, h, w), -8.0)
    logits[0, 7, 5] = logits[1, 2, 3] = 8.0
    maps = {name: np.zeros((c, h, w))
            for name, c in (("offset", 2), ("z", 1), ("size", 3), ("rot", 2), ("vel", 2))}
    maps["size"][:, 7, 5] = (1000.0, -1000.0, 0.5)
    maps["rot"][:, 2, 3] = (-0.0, -1.0)
    maps["vel"][:, 2, 3] = (1e-300, -123456789.125)
    out = heads.HeadOutputs(heatmap=1.0 / (1.0 + np.exp(-logits)),
                            heatmap_logits=logits, **maps)
    with np.errstate(over="ignore"):
        dets = heads.decode_detections(out, grid, 0.5, 10)
    dets.append(dataclasses.replace(dets[0], x=float("nan"), y=-np.inf, z=-0.0,
                                    score=np.float64(0.1)))
    text = detections_to_jsonl(dets)
    assert text == "".join(json.dumps(d.to_dict(), sort_keys=True) + "\n" for d in dets)
    assert '"length": Infinity' in text and '"x": NaN' in text
    assert detections_to_jsonl([]) == ""


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
    assert set(result.maps) == {"m_l", "m_r", "enhanced", "heatmap"}
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


def test_non_finite_r2l_preactivation_names_the_stage(tiny_run):
    cfg, _, lidar, radar, _ = tiny_run
    weights = random_weights(cfg, 0)
    enc = list(weights.encoder)
    enc[0] = dataclasses.replace(enc[0], kernel=np.full_like(enc[0].kernel, 1e308))
    bad = dataclasses.replace(weights, encoder=enc)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PipelineError) as err:
            run_pipeline(cfg, lidar, radar, weights=bad)
    assert str(err.value).startswith("r2l-fusion-head: ")
    assert "non-finite" in str(err.value)


def _huge(mlp):
    """The MLP with every weight 1e308, so its outputs overflow."""
    return MlpParams([(np.full_like(w, 1e308), b) for w, b in mlp.layers])


@pytest.mark.parametrize("layer, stage", [("pillar_mlp", "grid-encoding"),
                                          ("grid_mlp", "l2r-fusion")])
def test_non_finite_radar_columns_name_the_stage(tiny_run, layer, stage):
    """Overflowing radar pillar features, and overflowing BEV features on
    the enhanced radar map, are caught on the column blocks."""
    cfg, _, lidar, radar, _ = tiny_run
    weights = random_weights(cfg, 0)
    bad = dataclasses.replace(weights, **{layer: _huge(getattr(weights, layer))})
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PipelineError) as err:
            run_pipeline(cfg, lidar, radar, weights=bad)
    assert str(err.value).startswith(f"{stage}: ")
    assert "non-finite" in str(err.value)


def test_group_cap_counters(tiny_run):
    cfg, _, lidar, radar, result = tiny_run
    st = result.stats["l2r_fusion"]
    assert st["capped_height_groups"] >= 0 and st["capped_bev_groups"] >= 0
    tight = dataclasses.replace(cfg, fusion=dataclasses.replace(
        cfg.fusion, height_max_group=1, bev_max_group=1))
    st = run_pipeline(tight, lidar, radar).stats["l2r_fusion"]
    assert st["capped_height_groups"] > 0
    assert 0 < st["capped_bev_groups"] <= st["pseudo_features"]


def _weight_digest(weights) -> str:
    """sha256 over the name, dtype, shape and bytes of every array of a
    weight set, and the name and value of every scalar (conv padding and
    stride), in field order."""
    h = hashlib.sha256()

    def walk(obj, name):
        if isinstance(obj, np.ndarray):
            h.update(f"{name}:{obj.dtype.str}:{obj.shape}:".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                walk(getattr(obj, f.name), f"{name}.{f.name}")
        elif isinstance(obj, (list, tuple)):
            for k, v in enumerate(obj):
                walk(v, f"{name}[{k}]")
        else:
            h.update(f"{name}={obj!r};".encode())

    walk(weights, "w")
    return h.hexdigest()


# Digests of the weights as first drawn; a change to any layer shape or to
# the draw order changes them.
PINNED_WEIGHTS = {
    "tiny-a-random": "ad04ced10f5936c642f045833b7921d4c1a8e0b6d507f3f28d5769ffa3fec0e9",
    "tiny-a-probe": "72024978e3288b4d30842ffdfa25f6030cf208d80ce09c3819064efa2ba8ac2e",
    "tiny-b-random": "b8ed2a79dacf09fc8b5847230a6cd1c09dfe27ee4de4f0a444a7137c21808bd5",
    "tiny-b-probe": "b33a71f3070add6df477b63212393d58bb38a5de9c0cbc57f79dd8961df85e19",
    "desk-a-random": "f077f78d091f8115aa7a86558f694e8a6198ee85b6a5e1f64c99dd2c52da8084",
    "desk-a-probe": "70a7ddba8b9daa84e4b3578731b5e1a1457b0a6b5ea277eaaddf53dc9917da64",
    "desk-b-random": "57716327a5ebbc57039bb95ae6a6fdef6fa07c774d5aea4ef89097cf6f8b2026",
    "desk-b-probe": "93496b29ea34258d7042a4ce12e084b580d51e9e528d028b7c47993a0bfaec78",
}


@pytest.mark.parametrize("key", sorted(PINNED_WEIGHTS))
def test_weight_draw_pinned(key):
    scale, variant, kind = key.split("-")
    cfg = dataclasses.replace(config_for_scale(scale), radar_variant=variant)
    weights = (random_weights(cfg, cfg.seeds.weights) if kind == "random"
               else probe_weights(cfg))
    assert _weight_digest(weights) == PINNED_WEIGHTS[key]


def _outside(radar, grid) -> int:
    """Radar returns outside the xy extent of ``grid``."""
    lo = np.asarray(grid.origin[:2])
    hi = lo + np.asarray(grid.cell[:2]) * np.asarray(grid.counts[:2])
    xy = np.stack([radar["x"], radar["y"]], axis=1)
    return int((~((xy >= lo) & (xy < hi)).all(axis=1)).sum())


def _check_runs_on_its_grids(cfg, seed):
    lg, rg = cfg.lidar_grid, cfg.radar_grid
    assert rg.origin == lg.origin and rg.nz == 1
    for a in (0, 1):
        assert np.isclose(rg.cell[a] * rg.counts[a], lg.cell[a] * lg.counts[a])
    _, lidar, radar = generate_clouds(cfg, seed)
    result = run_pipeline(cfg, lidar, radar)
    m_l, enhanced = result.maps["m_l"], result.maps["enhanced"]
    fh, fw = _replication(m_l, enhanced)
    assert (enhanced.height * fh, enhanced.width * fw) == (m_l.height, m_l.width)
    assert (enhanced.width, enhanced.height) == rg.counts[:2]
    st = result.stats["grid_encoding"]
    assert st["dropped_radar_points"] == _outside(radar, lg)
    return st


@pytest.mark.parametrize("lidar_cell", [(0.5, 0.5), (0.25, 0.5), (0.5, 0.25),
                                        (0.25, 0.25), (0.4, 0.4)])
def test_every_valid_radar_cell_runs(lidar_cell):
    """Each radar cell either fails validation naming ``radar_cell`` or
    gives a radar grid over the whole LiDAR extent that the pipeline runs."""
    base = tiny_config()
    counts = tuple(round(2 * base.extent / c) for c in lidar_cell)
    grid = GridSpec(origin=base.lidar_grid.origin, cell=(*lidar_cell, 2.0),
                    counts=(*counts, 4))
    valid = 0
    for radar_cell in (1.0, 2.0, 4.0):
        cfg = dataclasses.replace(base, lidar_grid=grid, radar_cell=radar_cell)
        try:
            cfg.validate()
        except ConfigError as e:
            assert str(e).startswith("radar_cell: ")
            continue
        valid += 1
        _check_runs_on_its_grids(cfg, 3)
    assert valid >= 2


def test_non_square_lidar_cell_keeps_radar_points_at_desk():
    cfg = desk_config()
    cfg = dataclasses.replace(cfg, lidar_grid=GridSpec(
        origin=cfg.lidar_grid.origin, cell=(0.25, 0.5, 1.0), counts=(128, 64, 8)))
    st = _check_runs_on_its_grids(cfg, 0)
    assert st["mr_shape"] == [32, 32, 32]
    assert st["dropped_radar_points"] == 0


def test_run_builds_no_dense_lidar_map_and_no_fused_map(monkeypatch):
    """The LiDAR, radar and enhanced radar maps stay columns and the fused
    map is never built: a dense map is made only when ``data`` is read."""
    def refuse(*args, **kwargs):
        raise RuntimeError("dense map built")

    monkeypatch.setattr(grids.BevColumns, "dense", refuse)
    monkeypatch.setattr(pipeline, "fuse_bev_maps", refuse)
    monkeypatch.setattr(heads, "fuse_bev_maps", refuse)
    monkeypatch.setattr(heads, "upsample_nearest", refuse)
    cfg = desk_config()
    _, lidar, radar = generate_clouds(cfg, 0)
    result = run_pipeline(cfg, lidar, radar)
    assert result.stats["grid_encoding"]["ml_shape"] == [64, 128, 128]
    for name in ("m_l", "m_r", "enhanced"):
        m = result.maps[name]
        with pytest.raises(RuntimeError, match="dense map built"):
            m.data


def test_sparsity_counters(tiny_run):
    cfg, _, lidar, radar, result = tiny_run
    ge, r2l = result.stats["grid_encoding"], result.stats["r2l_fusion_head"]
    voxels = voxelize(lidar, cfg.lidar_grid, cfg.max_points_per_voxel)
    assert ge["lidar_columns"] == len({(ix, iy) for ix, iy, _ in voxels.occupied.tolist()})
    maps = result.maps
    m_l = maps["m_l"].data
    fused = fuse_bev_maps(maps["m_l"].dense(), maps["enhanced"].dense()).data
    assert ge["lidar_columns"] == int(m_l.any(axis=0).sum())
    assert r2l["gathered_columns"] == int(fused.any(axis=0).sum())
    assert ge["lidar_columns"] < r2l["gathered_columns"] < fused[0].size


def test_random_weights_drawn_once_and_read_only():
    cfg = desk_config()
    weights = random_weights(cfg, 11)
    assert random_weights(desk_config(), 11) is weights
    assert random_weights(cfg, 12) is not weights
    with pytest.raises(ValueError, match="read-only"):
        weights.encoder[0].kernel[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        weights.zstack_mlp.layers[0][1][0] = 1.0
    with pytest.raises(TypeError):
        weights.head.trunk[0] = weights.head.trunk[1]
