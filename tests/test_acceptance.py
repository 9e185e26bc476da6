"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside pytest's own verdicts.
"""

import dataclasses
import math
import time

import numpy as np

from lrbev.config import desk_config, paper_config, tiny_config
from lrbev.evalmetrics import eval_detections
from lrbev.grids import GridSpec
from lrbev.heads import DetectionBox, bev_encoder, decode_detections, \
    fuse_bev_maps, outputs_from_targets, render_targets
from lrbev.l2r import (ball_query, ball_query_brute, bev_query,
                       bev_query_brute, BevFusionConfig, segment_query_points)
from lrbev.nn import MlpParams, finite_diff_check
from lrbev.oracles import (_height_cfg, check_height_sensitivity,
                           loss_gradcheck_instance, pack_head_maps,
                           unpack_head_maps)
from lrbev.heads import compute_loss
from lrbev.pipeline import (detections_to_jsonl, generate_clouds,
                            probe_weights, random_weights, run_pipeline)
from lrbev.synth import (GroundTruthBox, Scene, SceneSpec, generate_scene,
                         lidar_sample, radar_sample)


def _report(n: int, text: str) -> None:
    print(f"criterion {n:02d}: PASS  {text}")


def test_acceptance_01_segment_height_equation():
    """Query-point heights equal z_min + r*(2s-1) exactly; the full-scale
    geometry (0.6 m cells over the 8 m pillar) yields six segments."""
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    grid = GridSpec(origin=(-6.0, -6.0, -5.0), cell=(0.6, 0.6, 8.0),
                    counts=(20, 20, 1))
    checked = 0
    while checked < 1000:
        z_min = float(rng.uniform(-8.0, 2.0))
        r = float(rng.uniform(0.1, 2.5))
        h = float(rng.uniform(2.0 * r, 14.0))
        cfg = _height_cfg(rng, cell_size=r, pillar_height=h, z_min=z_min,
                          feature_dim=4)
        for q in segment_query_points((3, 3), cfg, grid):
            assert q.z == z_min + r * (2 * q.segment - 1)
            checked += 1
    default = _height_cfg(rng, cell_size=0.6, pillar_height=8.0, z_min=-5.0,
                          feature_dim=4)
    assert default.num_segments == 6
    zs = [q.z for q in segment_query_points((0, 0), default, grid)]
    assert np.allclose(zs, [-4.4, -3.2, -2.0, -0.8, 0.4, 1.6], atol=1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"{checked} height values exact; full-scale geometry M=6 "
               f"z={zs} ({elapsed:.2f}s)")


def test_acceptance_02_query_oracle_equivalence():
    """Vectorized ball/BEV queries match the brute-force scans (membership
    and order) over 1000 seeded scenes."""
    t0 = time.monotonic()
    mismatches = 0
    psi = MlpParams.init((6, 4), np.random.default_rng(0))
    for s in range(1000):
        rng = np.random.default_rng([1000, s])
        n = int(rng.integers(20, 2001))
        pts = rng.uniform(-10.0, 10.0, size=(n, 3))
        for _ in range(2):
            q = rng.uniform(-8.0, 8.0, size=3)
            radius = float(rng.uniform(0.2, 3.0))
            k = int(rng.integers(1, 33))
            fast = ball_query(q, pts, radius, k)
            brute = ball_query_brute(q, pts, radius, k)
            if not (np.array_equal(fast.indices, brute.indices)
                    and np.array_equal(fast.distances, brute.distances)):
                mismatches += 1
        side = int(rng.integers(5, 41))
        occ = {(int(rng.integers(0, side)), int(rng.integers(0, side))): None
               for _ in range(int(rng.integers(1, 2 * side)))}
        cfg = BevFusionConfig(grid_mlp=psi,
                              window=(int(rng.integers(0, 4)),
                                      int(rng.integers(0, 4))),
                              max_group=int(rng.integers(1, 17)),
                              distance_mode="window" if s % 2 else "scalar")
        for _ in range(2):
            cell = (int(rng.integers(0, side)), int(rng.integers(0, side)))
            fast = bev_query(cell, occ, cfg)
            brute = bev_query_brute(cell, occ, cfg)
            if not (np.array_equal(fast.indices, brute.indices)
                    and np.array_equal(fast.distances, brute.distances)):
                mismatches += 1
    elapsed = time.monotonic() - t0
    assert mismatches == 0
    assert elapsed < 30.0
    _report(2, f"1000 scenes x (2 ball + 2 bev) queries, zero mismatches "
               f"({elapsed:.1f}s)")


def test_acceptance_03_query_balls_disjoint():
    """With radius r/2 the per-segment query balls never overlap, for every
    configured geometry."""
    rng = np.random.default_rng(3)
    geometries = [(desk_config().pillar_height, desk_config().radar_cell_size),
                  (paper_config().pillar_height, paper_config().radar_cell_size),
                  (tiny_config().pillar_height, tiny_config().radar_cell_size)]
    geometries += [(float(rng.uniform(1.0, 14.0)), float(rng.uniform(0.1, 2.5)))
                   for _ in range(200)]
    violations = 0
    for h, r in geometries:
        cfg = _height_cfg(rng, cell_size=r, pillar_height=h, feature_dim=4)
        assert cfg.ball_radius == r / 2
        grid = GridSpec(origin=(-6.0, -6.0, -5.0), cell=(r, r, max(h, r)),
                        counts=(8, 8, 1))
        pts = segment_query_points((2, 2), cfg, grid)
        centers = np.array([(q.x, q.y, q.z) for q in pts])
        for i in range(len(centers)):
            for j in range(i + 1, len(centers)):
                gap = float(np.linalg.norm(centers[i] - centers[j]))
                if not gap > 2.0 * cfg.ball_radius:
                    violations += 1
    assert violations == 0
    _report(3, f"{len(geometries)} geometries, pairwise ball separation "
               "> 2x radius everywhere")


def _contract_runs():
    runs = []
    for cfg_fn in (tiny_config, desk_config):
        cfg = cfg_fn()
        _, lidar, radar = generate_clouds(cfg, 11)
        for weights in (random_weights(cfg, cfg.seeds.weights), probe_weights(cfg)):
            runs.append((cfg, weights, run_pipeline(cfg, lidar, radar,
                                                    weights=weights)))
    return runs


def test_acceptance_04_channel_contract():
    """Radar map 32 channels, enhanced map exactly 96, encoder output exactly
    512, on every pipeline run."""
    for cfg, weights, result in _contract_runs():
        st = result.stats
        assert st["grid_encoding"]["mr_shape"][0] == 32
        assert st["l2r_fusion"]["enhanced_shape"][0] == 96
        assert st["r2l_fusion_head"]["fused_shape"][0] == \
            cfg.channels.lidar_channels + 96
        assert st["r2l_fusion_head"]["encoded_shape"][0] == 512
        assert result.maps["m_r"].channels == 32
        assert result.maps["enhanced"].channels == 96
        maps = result.maps
        encoded = bev_encoder(fuse_bev_maps(maps["m_l"].dense(), maps["enhanced"].dense()),
                              weights.encoder)
        assert encoded.channels == 512
    _report(4, "32 -> 96 -> C1+96 -> 512 held on tiny and desk runs, "
               "random and hand-set weights")


def test_acceptance_05_permutation_invariance():
    """Shuffling input point order (100 shuffles x 20 scenes) leaves the
    LiDAR map, radar map, both pseudo features and the decoded detections
    bit-identical."""
    cfg = tiny_config()
    cfg.max_points_per_voxel = 1_000_000   # truncation would tie outputs to order
    rng = np.random.default_rng(5)
    for scene_seed in range(20):
        _, lidar, radar = generate_clouds(cfg, scene_seed)
        base = run_pipeline(cfg, lidar, radar)
        assert base.stats["grid_encoding"]["truncated_lidar_points"] == 0
        base_jsonl = detections_to_jsonl(base.detections)
        for _ in range(100):
            lsh = rng.permutation(len(lidar))
            rsh = rng.permutation(len(radar))
            result = run_pipeline(cfg, lidar[lsh], radar[rsh])
            assert np.array_equal(result.maps["m_l"].data, base.maps["m_l"].data)
            assert np.array_equal(result.maps["m_r"].data, base.maps["m_r"].data)
            # channels 32:64 are the height features, 64:96 the BEV features
            assert np.array_equal(result.maps["enhanced"].data,
                                  base.maps["enhanced"].data)
            assert detections_to_jsonl(result.detections) == base_jsonl
    _report(5, "20 scenes x 100 shuffles, maps and detections bit-identical")


def test_acceptance_06_sparsity_preservation():
    """Non-zero enhanced cells equal non-empty pillars; pseudo features exist
    exactly at non-empty cells."""
    for cfg_fn, seeds in ((tiny_config, range(8)), (desk_config, range(2))):
        cfg = cfg_fn()
        for s in seeds:
            _, lidar, radar = generate_clouds(cfg, s)
            result = run_pipeline(cfg, lidar, radar)
            st = result.stats
            pillars = st["grid_encoding"]["radar_pillars"]
            assert st["l2r_fusion"]["enhanced_nonzero_cells"] == pillars
            assert st["l2r_fusion"]["pseudo_features"] == pillars
            enhanced = result.maps["enhanced"].data
            m_r = result.maps["m_r"].data
            enhanced_cells = (np.abs(enhanced) > 0).any(axis=0)
            radar_cells = (np.abs(m_r) > 0).any(axis=0)
            assert np.array_equal(enhanced_cells, radar_cells)
    _report(6, "enhanced-map sparsity equals pillar occupancy on all runs")


def test_acceptance_07_loss_gradient_correctness():
    """Finite-difference check of the joint loss at rel tol 1e-3 over 100
    random 8x8 two-class instances, kink-adjacent samples excluded."""
    t0 = time.monotonic()
    order = ("heatmap", "offset", "z", "size", "rot", "vel")
    worst = 0.0
    for s in range(100):
        outputs, targets = loss_gradcheck_instance([7000, s])
        theta = pack_head_maps(outputs)

        def f(v):
            b, _ = compute_loss(unpack_head_maps(v, outputs), targets)
            return b.total

        def grad(v):
            _, g = compute_loss(unpack_head_maps(v, outputs), targets)
            return np.concatenate([g[n].ravel() for n in order])

        rep = finite_diff_check(f, grad, theta, epsilon=1e-3, tol=1e-3)
        worst = max(worst, rep.max_rel_diff)
        assert rep.passed, f"seed {s}: rel diff {rep.max_rel_diff:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(7, f"100 instances, worst rel diff {worst:.2e} ({elapsed:.1f}s)")


def test_acceptance_08_decode_fidelity():
    """Render -> logit-invert -> decode recovers every planted box: centers
    within half a cell, sizes and yaw within 1e-9."""
    grid = desk_config().lidar_grid
    half_cell = 0.5 * grid.cell[0]
    bev_grid = GridSpec(origin=grid.origin, cell=(grid.cell[0], grid.cell[1], 8.0),
                        counts=(grid.nx, grid.ny, 1))
    recovered = 0
    for s in range(100):
        rng = np.random.default_rng([8000, s])
        spec = SceneSpec(extent=16.0, num_objects=int(rng.integers(1, 9)))
        scene = generate_scene(spec, s)
        targets = render_targets(scene.objects, bev_grid, num_classes=3)
        dets = decode_detections(outputs_from_targets(targets), bev_grid, 0.5, 64)
        for box in scene.objects:
            near = [d for d in dets if d.class_id == box.class_id
                    and math.hypot(d.x - box.cx, d.y - box.cy) <= half_cell]
            assert near, f"seed {s}: box at ({box.cx:.2f},{box.cy:.2f}) lost"
            d = near[0]
            assert abs(d.length - box.length) <= 1e-9
            assert abs(d.width - box.width) <= 1e-9
            assert abs(d.height - box.height) <= 1e-9
            dyaw = math.atan2(math.sin(d.yaw - box.yaw), math.cos(d.yaw - box.yaw))
            assert abs(dyaw) <= 1e-9
            recovered += 1
    _report(8, f"{recovered} boxes recovered across 100 scenes")


def test_acceptance_09_height_sensitivity():
    """Two scenes differing only in the z-distribution inside a queried
    pillar give different height features on >= 95 of 100 seeds."""
    result = check_height_sensitivity(100)
    assert result.passed, result.failures
    _report(9, "height feature distinguished z-distributions on >=95/100 seeds")


def test_acceptance_10_end_to_end_smoke_hand_weights():
    """Hand-set occupancy-probe weights plus one planted object give exactly
    one detection within a cell of the truth, stable over five runs."""
    t0 = time.monotonic()
    cfg = desk_config()
    cell = cfg.lidar_grid.cell[0]
    # plant the box dead on a lidar cell center
    cx, cy = cfg.lidar_grid.cell_center_xy(72, 50)
    box = GroundTruthBox(cx=cx, cy=cy, cz=-0.75, length=0.7, width=0.7,
                         height=1.5, yaw=0.0, vx=2.0, vy=0.0, class_id=0)
    scene = Scene(objects=(box,), sensor_height=0.5, ground_z=-1.5,
                  extent=16.0, rng_seed=0)
    lidar = lidar_sample(scene, density=300.0, noise_sigma=0.0, seed=0,
                         ground_density=0.0)
    radar = radar_sample(scene, (2, 3), seed=0)
    weights = probe_weights(cfg)
    outputs = []
    for _ in range(5):
        result = run_pipeline(cfg, lidar, radar, weights=weights)
        outputs.append(detections_to_jsonl(result.detections))
        assert len(result.detections) == 1
        det = result.detections[0]
        assert det.class_id == 0
        assert math.hypot(det.x - box.cx, det.y - box.cy) <= cell
    assert len(set(outputs)) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(10, f"one detection at the planted center, 5 identical runs "
                f"({elapsed:.1f}s)")


def test_acceptance_11_eval_metric_sanity():
    """Perfect copies score AP 1.0 at every threshold with zero velocity
    error; a 3 m shift zeroes AP at 0.5/1/2 m and keeps 1.0 at 4 m."""
    gt = [GroundTruthBox(cx=x, cy=y, cz=0.0, length=4.0, width=2.0, height=1.5,
                         yaw=0.3, vx=1.0, vy=-2.0, class_id=k % 3)
          for k, (x, y) in enumerate([(-20.0, -20.0), (0.0, -20.0),
                                      (20.0, 0.0), (0.0, 20.0), (20.0, 20.0)])]
    perfect = [DetectionBox(x=b.cx, y=b.cy, z=b.cz, length=b.length,
                            width=b.width, height=b.height, yaw=b.yaw,
                            vx=b.vx, vy=b.vy, class_id=b.class_id, score=1.0)
               for b in gt]
    res = eval_detections(perfect, gt)
    for th in res.ap_by_class.values():
        assert all(ap == 1.0 for ap in th.values())
    assert res.mean_velocity_error == 0.0
    shifted = [dataclasses.replace(d, x=d.x + 3.0) for d in perfect]
    res = eval_detections(shifted, gt)
    for th in res.ap_by_class.values():
        assert th[0.5] == 0.0 and th[1.0] == 0.0 and th[2.0] == 0.0
        assert th[4.0] == 1.0
    _report(11, "AP profile exact for perfect and 3 m-shifted detections")
