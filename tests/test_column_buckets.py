"""The frame path's ball groups, drawn from the radar columns a ball can
reach, against scans of every point."""

import numpy as np
import pytest

from lrbev.cloud import make_cloud
from lrbev.grids import GridSpec
from lrbev.l2r import (BevFusionConfig, HeightFusionConfig, ball_query,
                       ball_query_brute, compute_cell_features,
                       num_height_segments, segment_balls, segment_query_points)
from lrbev.nn import MlpParams
from lrbev.oracles import GRID_RTOL, cell_features_brute, columns_at

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


def _groups(cells, cfg, xyz):
    """Per query of ``segment_balls``: (point indices, distances, capped)."""
    idx, delta, offsets, counts = segment_balls(np.array(cells), cfg, xyz, GRID)
    d2 = delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1] + delta[:, 2] * delta[:, 2]
    return [(idx[a:b], np.sqrt(d2[a:b]), bool(c > cfg.max_group))
            for a, b, c in zip(offsets[:-1], offsets[1:], counts)]


@pytest.mark.parametrize("seed", range(12))
def test_bucketed_ball_query_matches_full_scan(seed):
    rng = np.random.default_rng([60, seed])
    x, y, z = _cloud(rng, 3000)
    xyz = np.stack([x, y, z], axis=1)
    r = GRID.cell[0]
    radii = [0.5 * r, r, 2.0 * r, float(rng.uniform(0.05, 2.0 * r))]
    cells = [(0, 0), (GRID.nx - 1, GRID.ny - 1), (0, GRID.ny - 1),
             (int(rng.integers(0, GRID.nx)), int(rng.integers(0, GRID.ny)))]
    cells = list(dict.fromkeys(cells))
    for radius in radii:
        cfg = _height_cfg(rng, radius)
        groups = iter(_groups(cells, cfg, xyz))
        for cell in cells:
            for q in segment_query_points(cell, cfg, GRID):
                full = ball_query((q.x, q.y, q.z), xyz, radius, cfg.max_group)
                indices, distances, capped = next(groups)
                assert np.array_equal(indices, full.indices)
                assert np.array_equal(distances, full.distances)
                assert capped == full.capped


def test_edge_points_at_the_ball_surface_are_found():
    """A point on the shared edge of two columns, exactly one default
    radius (r/2) from the center, lies in the neighbouring column."""
    cell = (5, 4)
    cx, cy = GRID.cell_center_xy(*cell)
    radius = 0.5 * GRID.cell[0]
    xyz = np.array([[cx + radius, cy, 0.0], [cx, cy - radius, 0.0],
                    [cx - radius, cy, 0.0], [cx + radius, cy + radius, 0.0]])
    # z_min puts the first segment center at z = 0.
    rng = np.random.default_rng(0)
    cfg = HeightFusionConfig(cell_size=GRID.cell[0], pillar_height=8.0,
                             z_min=-GRID.cell[0], point_mlp=MlpParams.init((5, 4), rng),
                             merge_mlp=MlpParams.init((32, 4), rng))
    hits = _groups([cell], cfg, xyz)[0][0]
    assert sorted(hits.tolist()) == [0, 1, 2]
    brute = ball_query_brute((cx, cy, 0.0), xyz, radius, cfg.max_group)
    assert hits.tolist() == brute.indices.tolist()


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
    cells = columns_at(cells, np.zeros((len(cells), 0)), (0, GRID.ny, GRID.nx))
    grids = columns_at([], np.zeros((0, 4)), (4, GRID.ny, GRID.nx))
    features, stats = compute_cell_features(cells, cfg_h, cfg_b, cloud, grids, GRID)
    want, want_stats = cell_features_brute(cells, cfg_h, cfg_b, cloud, grids, GRID)
    assert np.abs(features - want).max() <= GRID_RTOL * np.abs(want).max()
    assert stats == want_stats
