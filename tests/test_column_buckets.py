"""Ball queries over the radar columns a ball can reach against a scan of
every point."""

import numpy as np
import pytest

from lrbev.cloud import make_cloud
from lrbev.grids import GridSpec
from lrbev.l2r import (BevFusionConfig, HeightFusionConfig, ball_candidates,
                       ball_query, column_buckets, compute_cell_features,
                       height_fuse, num_height_segments, segment_query_points)
from lrbev.nn import MlpParams

GRID = GridSpec(origin=(-4.0, -3.0, -5.0), cell=(0.5, 0.5, 8.0), counts=(16, 12, 1))


def _cloud(rng, n_random):
    """Random points in and around the grid, plus points exactly on cell
    edges and corners and exactly one ball radius from cell centers."""
    ox, oy = GRID.origin[:2]
    cx, cy = GRID.cell[:2]
    xs = [rng.uniform(ox - 2.0, ox + GRID.nx * cx + 2.0, n_random)]
    ys = [rng.uniform(oy - 2.0, oy + GRID.ny * cy + 2.0, n_random)]
    ex = ox + cx * rng.integers(-1, GRID.nx + 2, 300)
    ey = oy + cy * rng.integers(-1, GRID.ny + 2, 300)
    xs += [ex, ex, rng.uniform(ox, ox + GRID.nx * cx, 300)]
    ys += [ey, rng.uniform(oy, oy + GRID.ny * cy, 300), ey]
    x, y = np.concatenate(xs), np.concatenate(ys)
    z = rng.choice([-4.5, -3.5, -1.0, 0.0, 1.5], len(x))
    return x, y, z


def _height_cfg(rng, radius):
    r = GRID.cell[0]
    m = num_height_segments(8.0, r)
    mlp = lambda dims: MlpParams.init(dims, rng)
    return HeightFusionConfig(cell_size=r, pillar_height=8.0, z_min=-5.0,
                              point_mlp=mlp((5, 8, 4)), merge_mlp=mlp((m * 4, 4)),
                              ball_radius=radius, max_group=int(rng.integers(1, 40)))


@pytest.mark.parametrize("seed", range(12))
def test_bucketed_ball_query_matches_full_scan(seed):
    rng = np.random.default_rng([60, seed])
    x, y, z = _cloud(rng, 3000)
    xyz = np.stack([x, y, z], axis=1)
    buckets = column_buckets(xyz, GRID)
    r = GRID.cell[0]
    radii = [0.5 * r, r, 2.0 * r, float(rng.uniform(0.05, 2.0 * r))]
    cells = [(0, 0), (GRID.nx - 1, GRID.ny - 1), (0, GRID.ny - 1),
             (int(rng.integers(0, GRID.nx)), int(rng.integers(0, GRID.ny)))]
    for radius in radii:
        cfg = _height_cfg(rng, radius)
        for cell in cells:
            near = ball_candidates(cell, buckets, GRID, radius)
            assert np.all(np.diff(near) > 0)
            for q in segment_query_points(cell, cfg, GRID):
                full = ball_query((q.x, q.y, q.z), xyz, radius, cfg.max_group)
                part = ball_query((q.x, q.y, q.z), xyz[near], radius, cfg.max_group)
                assert np.array_equal(near[part.indices], full.indices)
                assert np.array_equal(part.distances, full.distances)
                assert part.capped == full.capped


def test_edge_points_at_the_ball_surface_are_found():
    """A point on the shared edge of two columns, exactly one default
    radius (r/2) from the center, lies in the neighbouring column."""
    cell = (5, 4)
    cx, cy = GRID.cell_center_xy(*cell)
    radius = 0.5 * GRID.cell[0]
    xyz = np.array([[cx + radius, cy, 0.0], [cx, cy - radius, 0.0],
                    [cx - radius, cy, 0.0], [cx + radius, cy + radius, 0.0]])
    near = ball_candidates(cell, column_buckets(xyz, GRID), GRID, radius)
    assert near.tolist() == [0, 1, 2, 3]
    hits = ball_query((cx, cy, 0.0), xyz[near], radius, 16)
    assert sorted(near[hits.indices].tolist()) == [0, 1, 2]


def test_compute_cell_features_matches_full_scan_height_fuse():
    rng = np.random.default_rng(61)
    x, y, z = _cloud(rng, 4000)
    n = len(x)
    cloud = make_cloud("lidar", {"x": x, "y": y, "z": z,
                                 "intensity": rng.uniform(0, 1, n),
                                 "t": np.zeros(n)})
    cfg_h = _height_cfg(rng, GRID.cell[0])
    cfg_b = BevFusionConfig(grid_mlp=MlpParams.init((6, 4), rng))
    cells = {(int(i), int(j)) for i, j in zip(rng.integers(0, GRID.nx, 20),
                                              rng.integers(0, GRID.ny, 20))}
    cells |= {(0, 0), (GRID.nx - 1, GRID.ny - 1)}
    features, stats = compute_cell_features(cells, cfg_h, cfg_b, cloud, {}, GRID)
    caps = {"height": 0, "bev": 0}
    for cell in sorted(cells):
        want, _ = height_fuse(cell, cfg_h, cloud, GRID, caps=caps)
        assert features[cell].height_feature.tobytes() == want.tobytes()
    assert stats["capped_height_groups"] == caps["height"]
