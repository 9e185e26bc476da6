"""Height-profile and BEV-neighborhood fusion: queries, aggregation,
enhancement, and their brute-force oracles."""

import numpy as np
import pytest

from lrbev.cloud import make_cloud
from lrbev.errors import ShapeError
from lrbev.grids import BevGrids, GridSpec, segment_max
from lrbev.l2r import (BevFusionConfig, HeightFusionConfig, ball_query,
                       ball_query_brute, bev_fuse, bev_query, bev_query_brute,
                       compute_cell_features, enhance_radar_map, height_fuse,
                       manhattan_distance, num_height_segments,
                       query_balls_disjoint, segment_query_points)
from lrbev.nn import FeatureMap, MlpParams, mlp_forward
from lrbev.oracles import GRID_RTOL, cell_features_brute


def _mlp(dims, seed=0):
    return MlpParams.init(dims, np.random.default_rng(seed))


def _cfg(cell_size=0.6, pillar_height=8.0, z_min=-5.0, ball_radius=0.0,
         feature_dim=32, max_group=16, seed=0):
    m = num_height_segments(pillar_height, cell_size)
    return HeightFusionConfig(
        cell_size=cell_size, pillar_height=pillar_height, z_min=z_min,
        point_mlp=_mlp((5, 16, feature_dim), seed),
        merge_mlp=_mlp((m * feature_dim, 16, feature_dim), seed + 1),
        ball_radius=ball_radius, max_group=max_group)


RADAR_GRID = GridSpec(origin=(-54.0, -54.0, -5.0), cell=(0.6, 0.6, 8.0),
                      counts=(180, 180, 1))


def _cloud(xyz):
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    return make_cloud("lidar", {"x": xyz[:, 0], "y": xyz[:, 1], "z": xyz[:, 2],
                                "intensity": np.full(len(xyz), 0.5),
                                "t": np.zeros(len(xyz))})


class TestSegmentQueryPoints:
    def test_first_segment_hand_value(self):
        # z_1 = -5.0 + 0.6 * 1 = -4.4
        pts = segment_query_points((0, 0), _cfg(), RADAR_GRID)
        assert pts[0].z == -5.0 + 0.6 * (2 * 1 - 1)
        assert abs(pts[0].z - (-4.4)) < 1e-12

    def test_second_segment_hand_value(self):
        # z_2 = -5.0 + 0.6 * 3 = -3.2
        pts = segment_query_points((0, 0), _cfg(), RADAR_GRID)
        assert abs(pts[1].z - (-3.2)) < 1e-12

    def test_full_scale_geometry_gives_six_segments(self):
        # floor(8.0 / 1.2) = 6
        cfg = _cfg()
        assert cfg.num_segments == 6
        pts = segment_query_points((10, 20), cfg, RADAR_GRID)
        zs = [q.z for q in pts]
        want = [-4.4, -3.2, -2.0, -0.8, 0.4, 1.6]
        assert np.allclose(zs, want, atol=1e-12)

    def test_xy_is_cell_center(self):
        pts = segment_query_points((3, 7), _cfg(), RADAR_GRID)
        x, y = RADAR_GRID.cell_center_xy(3, 7)
        assert all(q.x == x and q.y == y for q in pts)

    def test_segment_count_clamped_to_one(self):
        assert num_height_segments(1.0, 2.0) == 1

    def test_default_ball_radius_is_half_cell(self):
        assert _cfg().ball_radius == 0.3

    def test_radius_override(self):
        # the 0.15 m setting is expressible
        assert _cfg(ball_radius=0.15).ball_radius == 0.15


class TestBallQuery:
    def test_no_points_in_radius(self):
        res = ball_query((0, 0, 0), np.array([[5.0, 5.0, 5.0]]), 1.0, 4)
        assert len(res) == 0

    def test_point_at_query_location(self):
        res = ball_query((1, 2, 3), np.array([[1.0, 2.0, 3.0]]), 0.5, 4)
        assert list(res.indices) == [0] and res.distances[0] == 0.0

    def test_matches_brute_force_500_points(self):
        rng = np.random.default_rng(20)
        pts = rng.uniform(-1.0, 1.0, size=(500, 3))
        for trial in range(50):
            q = rng.uniform(-0.8, 0.8, size=3)
            fast = ball_query(q, pts, 0.3, 16)
            brute = ball_query_brute(q, pts, 0.3, 16)
            assert np.array_equal(fast.indices, brute.indices)
            assert np.array_equal(fast.distances, brute.distances)

    def test_ordering_distance_then_index(self):
        pts = np.array([[0.2, 0.0, 0.0], [0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
        res = ball_query((0, 0, 0), pts, 1.0, 8)
        assert list(res.indices) == [1, 2, 0]

    def test_tie_broken_by_index(self):
        pts = np.array([[0.1, 0.0, 0.0], [-0.1, 0.0, 0.0]])
        res = ball_query((0, 0, 0), pts, 1.0, 8)
        assert list(res.indices) == [0, 1]

    def test_truncation_at_k(self):
        pts = np.zeros((10, 3))
        res = ball_query((0, 0, 0), pts, 1.0, 3)
        assert list(res.indices) == [0, 1, 2]

    @pytest.mark.parametrize("k,capped", [(9, True), (10, False), (11, False)])
    def test_capped_only_when_candidates_exceed_k(self, k, capped):
        pts = np.zeros((10, 3))
        assert ball_query((0, 0, 0), pts, 1.0, k).capped is capped
        assert ball_query_brute((0, 0, 0), pts, 1.0, k).capped is capped

    def test_height_fuse_counts_capped_segments(self):
        cfg = _cfg(max_group=2)
        q1, q2 = segment_query_points((90, 90), cfg, RADAR_GRID)[:2]
        cloud = _cloud([[q1.x, q1.y, q1.z]] * 3 + [[q2.x, q2.y, q2.z]] * 2)
        _, counts = height_fuse(np.array([(90, 90)]), cfg, cloud, RADAR_GRID)
        assert np.count_nonzero(counts > cfg.max_group) == 1


class TestAggregateSegment:
    """``segment_max``, the max-pooled MLP of every L2R group."""

    def test_empty_group_zero_vector(self):
        psi = _mlp((5, 8, 32))
        out = segment_max(np.zeros((0, 5)), np.array([0, 0]), psi)
        assert np.array_equal(out, np.zeros((1, 32)))

    def test_singleton_equals_mlp(self):
        psi = _mlp((5, 8, 32))
        row = np.array([0.1, -0.2, 0.3, 0.5, 0.0])
        assert np.array_equal(segment_max(row[None, :], np.array([0, 1]), psi)[0],
                              mlp_forward(row, psi))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(21)
        psi = _mlp((5, 8, 32))
        rows = rng.normal(size=(7, 5))
        base = segment_max(rows, np.array([0, 7]), psi)
        for _ in range(100):
            assert np.array_equal(
                segment_max(rows[rng.permutation(7)], np.array([0, 7]), psi), base)

    def test_empty_groups_between_full_ones(self):
        psi = _mlp((5, 8, 32))
        rows = np.random.default_rng(27).normal(size=(3, 5))
        out = segment_max(rows, np.array([0, 0, 2, 2, 3, 3]), psi)
        assert not out[[0, 2, 4]].any()
        assert np.array_equal(out[[1, 3]], segment_max(rows, np.array([0, 2, 3]), psi))

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            segment_max(np.zeros((2, 4)), np.array([0, 2]), _mlp((5, 8, 32)))


class TestHeightFuse:
    def test_no_lidar_points_gives_merge_of_zeros(self):
        cfg = _cfg()
        out, counts = height_fuse(np.array([(5, 5)]), cfg, _cloud(np.zeros((0, 3))),
                                  RADAR_GRID)
        want = mlp_forward(np.zeros(cfg.merge_mlp.in_dim), cfg.merge_mlp)
        assert np.array_equal(out[0], want)
        assert np.count_nonzero(counts) == 0

    def test_output_length_32(self):
        cfg = _cfg()
        out, _ = height_fuse(np.array([(5, 5)]), cfg, _cloud([[0.0, 0.0, 0.0]]),
                             RADAR_GRID)
        assert out.shape == (1, 32)

    def test_moving_points_between_segments_changes_feature(self):
        cfg = _cfg()
        cell = (90, 90)
        pts = segment_query_points(cell, cfg, RADAR_GRID)
        x, y = pts[0].x, pts[0].y
        low = _cloud([[x, y, pts[0].z], [x + 0.05, y, pts[0].z + 0.1]])
        high = _cloud([[x, y, pts[1].z], [x + 0.05, y, pts[1].z + 0.1]])
        f_low, _ = height_fuse(np.array([cell]), cfg, low, RADAR_GRID)
        f_high, _ = height_fuse(np.array([cell]), cfg, high, RADAR_GRID)
        assert not np.array_equal(f_low, f_high)

    def test_shuffling_cloud_leaves_feature_bit_identical(self):
        rng = np.random.default_rng(22)
        cfg = _cfg()
        cell = (90, 90)
        x, y = RADAR_GRID.cell_center_xy(*cell)
        xyz = np.column_stack([x + rng.uniform(-0.25, 0.25, 30),
                               y + rng.uniform(-0.25, 0.25, 30),
                               rng.uniform(-5.0, 3.0, 30)])
        cloud = _cloud(xyz)
        base, _ = height_fuse(np.array([cell]), cfg, cloud, RADAR_GRID)
        for _ in range(25):
            sh = rng.permutation(len(cloud))
            out, _ = height_fuse(np.array([cell]), cfg, cloud[sh], RADAR_GRID)
            assert np.array_equal(out, base)


class TestNonOverlap:
    def test_half_cell_radius_disjoint(self):
        for h, r in ((8.0, 0.6), (8.0, 1.0), (7.0, 0.32), (8.0, 2.0)):
            assert query_balls_disjoint(_cfg(cell_size=r, pillar_height=h))

    def test_full_cell_radius_overlaps(self):
        # the negative control the fault injection relies on
        assert not query_balls_disjoint(_cfg(ball_radius=0.6))

    def test_consecutive_spacing_is_two_cells(self):
        cfg = _cfg()
        pts = segment_query_points((0, 0), cfg, RADAR_GRID)
        gaps = [pts[i + 1].z - pts[i].z for i in range(len(pts) - 1)]
        assert all(abs(g - 2 * 0.6) < 1e-12 for g in gaps)


class TestManhattan:
    def test_same_cell(self):
        assert manhattan_distance((4, 9), (4, 9)) == 0

    def test_hand_value(self):
        # |3-1| + |4-7| = 5
        assert manhattan_distance((3, 4), (1, 7)) == 5

    def test_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = tuple(rng.integers(0, 30, 2))
            b = tuple(rng.integers(0, 30, 2))
            assert manhattan_distance(a, b) == manhattan_distance(b, a)


def _bev_cfg(window=(2, 2), max_group=16, mode="window", fdim=16, seed=0):
    return BevFusionConfig(grid_mlp=_mlp((fdim + 2, 16, 32), seed),
                           window=window, max_group=max_group,
                           distance_mode=mode)


class TestBevQuery:
    def test_empty_grids(self):
        assert len(bev_query((3, 3), {}, _bev_cfg())) == 0

    def test_only_self_occupied(self):
        res = bev_query((3, 3), {(3, 3): np.zeros(16)}, _bev_cfg())
        assert res.indices.tolist() == [[3, 3]] and res.distances[0] == 0

    def test_matches_brute_force_random_occupancy(self):
        rng = np.random.default_rng(24)
        for trial in range(40):
            grids = {(int(rng.integers(0, 30)), int(rng.integers(0, 30))): None
                     for _ in range(int(rng.integers(1, 60)))}
            mode = "window" if trial % 2 == 0 else "scalar"
            cfg = _bev_cfg(window=(2, 2), max_group=16, mode=mode)
            cell = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
            fast = bev_query(cell, grids, cfg)
            brute = bev_query_brute(cell, grids, cfg)
            assert np.array_equal(fast.indices, brute.indices)
            assert np.array_equal(fast.distances, brute.distances)

    def test_window_mode_is_per_axis(self):
        grids = {(5, 8): None, (8, 5): None, (6, 6): None}
        res = bev_query((5, 5), grids, _bev_cfg(window=(3, 0)))
        # |di|<=3 and |dj|<=0: only (8,5) qualifies
        assert res.indices.tolist() == [[8, 5]]

    def test_scalar_mode_uses_manhattan_bound(self):
        grids = {(7, 7): None, (5, 8): None}
        res = bev_query((5, 5), grids, _bev_cfg(window=(3, 0), mode="scalar"))
        # D((5,5),(7,7)) = 4 > 3 excluded; D((5,5),(5,8)) = 3 kept
        assert res.indices.tolist() == [[5, 8]]

    def test_ordering_distance_then_row_major(self):
        grids = {(6, 5): None, (5, 6): None, (5, 5): None, (4, 5): None}
        res = bev_query((5, 5), grids, _bev_cfg())
        assert res.indices.tolist() == [[5, 5], [4, 5], [5, 6], [6, 5]]

    def test_capped_flag_matches_brute_force(self):
        grids = {(6, 5): None, (5, 6): None, (5, 5): None, (4, 5): None}
        for k, capped in ((3, True), (4, False)):
            cfg = _bev_cfg(max_group=k)
            assert bev_query((5, 5), grids, cfg).capped is capped
            assert bev_query_brute((5, 5), grids, cfg).capped is capped


def _bev_grids(items, fdim=16):
    """BevGrids from (key, feature) pairs, rows in the given order."""
    keys = np.array([k for k, _ in items], dtype=np.int64).reshape(-1, 2)
    return BevGrids(keys, np.array([f for _, f in items]).reshape(len(keys), fdim))


class TestBevFuse:
    def test_empty_group_zero_vector(self):
        out, counts = bev_fuse(np.array([(3, 3)]), _bev_grids([]), _bev_cfg())
        assert np.array_equal(out, np.zeros((1, 32))) and np.count_nonzero(counts) == 0

    def test_singleton_equals_mlp_of_decorated_feature(self):
        rng = np.random.default_rng(25)
        feat = rng.normal(size=16)
        cfg = _bev_cfg()
        out, _ = bev_fuse(np.array([(3, 3)]), _bev_grids([((5, 2), feat)]), cfg)
        want = mlp_forward(np.concatenate([feat, [2.0, -1.0]]), cfg.grid_mlp)
        assert np.array_equal(out[0], want)

    def test_dict_order_invariant(self):
        rng = np.random.default_rng(26)
        cells = {(int(rng.integers(0, 10)), int(rng.integers(0, 10)))
                 for _ in range(12)}
        items = [(c, rng.normal(size=16)) for c in sorted(cells)]
        cfg = _bev_cfg(window=(4, 4))
        base, _ = bev_fuse(np.array([(5, 5)]), _bev_grids(items), cfg)
        for _ in range(20):
            rng.shuffle(items)
            out, _ = bev_fuse(np.array([(5, 5)]), _bev_grids(items), cfg)
            assert np.array_equal(out, base)


class TestEnhanceRadarMap:
    def _mr(self, cells, h=6, w=6, seed=0):
        rng = np.random.default_rng(seed)
        data = np.zeros((32, h, w))
        for ix, iy in cells:
            data[:, iy, ix] = rng.normal(size=32)
        return FeatureMap(data)

    def _features(self, cells, seed=1):
        """One [height | bev] row per cell, cells in ascending order."""
        return np.random.default_rng(seed).normal(size=(len(cells), 64))

    def test_zero_map_no_features_zero_output(self):
        out = enhance_radar_map(self._mr([]), [], np.zeros((0, 64)))
        assert out.channels == 96
        assert not np.any(out.data)

    def test_one_cell_sparsity_preserved(self):
        cells = [(2, 3)]
        out = enhance_radar_map(self._mr(cells), cells, self._features(cells))
        nonzero = (np.abs(out.data) > 0).any(axis=0)
        assert int(nonzero.sum()) == 1 and nonzero[3, 2]

    def test_channel_layout_32_32_32(self):
        cells = [(1, 1), (4, 2)]
        m_r = self._mr(cells)
        feats = self._features(cells)
        out = enhance_radar_map(m_r, cells, feats)
        assert out.channels == 96
        assert np.array_equal(out.data[:32], m_r.data)
        assert np.array_equal(out.data[32:64, 1, 1], feats[0, :32])
        assert np.array_equal(out.data[64:, 2, 4], feats[1, 32:])

    def test_rows_follow_sorted_cell_order(self):
        cells = [(4, 2), (1, 1)]
        feats = self._features(cells)
        out = enhance_radar_map(self._mr(cells), {c: [] for c in cells}, feats)
        assert np.array_equal(out.data[32:, 1, 1], feats[0])
        assert np.array_equal(out.data[32:, 2, 4], feats[1])

    def test_feature_row_count_mismatch_raises(self):
        cells = [(1, 1)]
        with pytest.raises(ShapeError):
            enhance_radar_map(self._mr(cells), cells, self._features([(0, 0), (1, 1)]))

    def test_wrong_total_width_raises(self):
        cells = [(1, 1)]
        with pytest.raises(ShapeError):
            enhance_radar_map(self._mr(cells), cells, np.zeros((1, 48)))


GRID = GridSpec(origin=(-4.0, -3.0, -5.0), cell=(0.5, 0.5, 8.0), counts=(16, 12, 1))


class TestComputeCellFeatures:
    """Edge cases of the frame path against its per-cell brute-force twin."""

    def _configs(self, seed=0, ball_radius=0.0):
        m = num_height_segments(8.0, 0.5)
        cfg_h = HeightFusionConfig(cell_size=0.5, pillar_height=8.0, z_min=-5.0,
                                   point_mlp=_mlp((5, 8, 32), seed),
                                   merge_mlp=_mlp((m * 32, 8, 32), seed + 1),
                                   ball_radius=ball_radius, max_group=4)
        return cfg_h, _bev_cfg(window=(2, 1), max_group=3, fdim=4, seed=seed + 2)

    def _grids(self, seed=3):
        rng = np.random.default_rng(seed)
        keys = sorted({(int(i), int(j)) for i, j in rng.integers(-1, 17, size=(40, 2))})
        return _bev_grids([(k, rng.normal(size=4)) for k in keys], fdim=4)

    def _check(self, cells, cloud, grids, ball_radius=0.0):
        cfg_h, cfg_b = self._configs(ball_radius=ball_radius)
        got, stats = compute_cell_features(cells, cfg_h, cfg_b, cloud, grids, GRID)
        want, want_stats = cell_features_brute(cells, cfg_h, cfg_b, cloud, grids, GRID)
        assert stats == want_stats
        assert got.shape == want.shape == (len(cells), 64)
        assert np.abs(got - want).max(initial=0.0) <= GRID_RTOL * np.abs(want).max(initial=0.0)
        return got, stats

    def _cloud(self, seed=4, n=400):
        rng = np.random.default_rng(seed)
        return _cloud(np.column_stack([rng.uniform(-5.0, 5.0, n), rng.uniform(-4.0, 4.0, n),
                                       rng.uniform(-5.0, 3.0, n)]))

    def test_no_radar_cells(self):
        got, stats = self._check({}, self._cloud(), self._grids())
        assert stats["cells"] == 0 and stats["ball_query_hit_rate"] == 0.0

    def test_no_lidar_points(self):
        got, stats = self._check([(3, 4), (9, 2)], _cloud(np.zeros((0, 3))), self._grids())
        assert stats["ball_query_hit_rate"] == 0.0
        assert np.array_equal(got[0, :32], got[1, :32])

    def test_empty_bev_grids(self):
        grids = BevGrids(np.zeros((0, 2), np.int64), np.zeros((0, 0)))
        got, stats = self._check([(3, 4), (9, 2)], self._cloud(), grids)
        assert stats["bev_query_hit_rate"] == 0.0 and not got[:, 32:].any()

    @pytest.mark.parametrize("ball_radius", [0.25, 0.5])
    def test_cells_at_the_grid_corners(self, ball_radius):
        """Balls of radius r reach past the grid edge, whose points the
        corner columns hold."""
        corners = [(0, 0), (0, 11), (15, 0), (15, 11)]
        rng = np.random.default_rng(5)
        xyz = []
        for ix, iy in corners:
            x, y = GRID.cell_center_xy(ix, iy)
            z = -4.5 + rng.integers(0, 8, 30) + rng.uniform(-0.2, 0.2, 30)
            xyz.append(np.column_stack([x + rng.uniform(-0.6, 0.6, 30),
                                        y + rng.uniform(-0.6, 0.6, 30), z]))
            xyz.append(np.column_stack([x + rng.uniform(-0.1, 0.1, 6),
                                        y + rng.uniform(-0.1, 0.1, 6), np.full(6, -2.5)]))
        cloud = _cloud(np.concatenate(xyz))
        got, stats = self._check(corners, cloud, self._grids(), ball_radius)
        assert stats["ball_query_hit_rate"] > 0.0 and stats["bev_query_hit_rate"] > 0.0
        assert stats["capped_height_groups"] > 0
