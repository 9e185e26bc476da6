"""Voxelization, pillar encoding, z-stack collapse, coarse rebinning."""

import math

import numpy as np
import pytest

from lrbev import grids
from lrbev.cloud import make_cloud
from lrbev.errors import ConfigError, ShapeError
from lrbev.grids import (GridSpec, collapse_to_bev_grids, pillarize,
                         voxel_encode, voxelize, zstack_collapse)
from lrbev.nn import MlpParams, max_reduce, mlp_forward
from lrbev.oracles import (voxel_encode_brute, voxelize_brute,
                           zstack_collapse_brute)


def _spec(cell=0.5, n=8, nz=4):
    return GridSpec(origin=(-2.0, -2.0, -2.0), cell=(cell, cell, 1.0),
                    counts=(n, n, nz))


def _lidar(xyz, intensity=None, t=None):
    xyz = np.asarray(xyz, dtype=np.float64)
    n = len(xyz)
    return make_cloud("lidar", {
        "x": xyz[:, 0], "y": xyz[:, 1], "z": xyz[:, 2],
        "intensity": intensity if intensity is not None else np.full(n, 0.5),
        "t": t if t is not None else np.zeros(n)})


def _voxel_mlp(seed=0, out=6):
    return MlpParams.init((8, 8, out), np.random.default_rng(seed))


class TestVoxelize:
    def test_point_at_origin_lower_inclusive(self):
        vs = voxelize(_lidar([[-2.0, -2.0, -2.0]]), _spec())
        assert vs.occupied.tolist() == [[0, 0, 0]]

    def test_point_one_cell_up_upper_exclusive(self):
        vs = voxelize(_lidar([[-1.5, -2.0, -2.0]]), _spec())
        assert vs.occupied.tolist() == [[1, 0, 0]]

    def test_out_of_range_dropped_with_count(self):
        pts = [[-2.0, -2.0, -2.0], [100.0, 0.0, 0.0], [0.0, 0.0, 50.0]]
        vs = voxelize(_lidar(pts), _spec())
        assert vs.dropped == 2
        assert sum(len(m) for _, m in vs.voxel_members()) == 1

    def test_random_points_match_floor_recomputation(self):
        rng = np.random.default_rng(1)
        spec = _spec()
        pts = rng.uniform(-3.0, 3.0, size=(10000, 3))
        vs = voxelize(_lidar(pts), spec, max_points_per_voxel=10**9)
        member_of = {}
        for key, members in vs.voxel_members():
            for i in members.tolist():
                member_of[i] = key
        dropped = 0
        for i, (x, y, z) in enumerate(pts):
            ix = math.floor((x - spec.origin[0]) / spec.cell[0])
            iy = math.floor((y - spec.origin[1]) / spec.cell[1])
            iz = math.floor((z - spec.origin[2]) / spec.cell[2])
            if 0 <= ix < spec.nx and 0 <= iy < spec.ny and 0 <= iz < spec.nz:
                assert member_of[i] == (ix, iy, iz)
            else:
                dropped += 1
                assert i not in member_of
        assert dropped == vs.dropped

    def test_truncation_keeps_insertion_order(self):
        pts = [[-2.0 + 0.01 * k, -2.0, -2.0] for k in range(6)]
        vs = voxelize(_lidar(pts), _spec(), max_points_per_voxel=4)
        assert [(k, m.tolist()) for k, m in vs.voxel_members()] == \
            [((0, 0, 0), [0, 1, 2, 3])]
        assert vs.truncated == 2


class TestVoxelEncode:
    def test_single_point_equals_mlp_of_decorated_point(self):
        spec = _spec()
        cloud = _lidar([[0.1, 0.2, -0.3]], intensity=[0.7], t=[-0.05])
        mlp = _voxel_mlp()
        vs = voxel_encode(voxelize(cloud, spec), mlp)
        (key,), (feat,) = vs.occupied, vs.features
        cx, cy, cz = spec.voxel_center(*key)
        want = mlp_forward([0.1, 0.2, -0.3, 0.7, -0.05,
                            0.1 - cx, 0.2 - cy, -0.3 - cz], mlp)
        assert np.array_equal(feat, want)

    def test_duplicate_points_same_as_single(self):
        spec = _spec()
        mlp = _voxel_mlp()
        one = voxel_encode(voxelize(_lidar([[0.1, 0.2, -0.3]]), spec), mlp)
        two = voxel_encode(voxelize(_lidar([[0.1, 0.2, -0.3]] * 2), spec), mlp)
        assert np.array_equal(one.occupied, two.occupied)
        assert np.array_equal(one.features, two.features)

    def test_member_permutation_invariant_100_shuffles(self):
        rng = np.random.default_rng(2)
        spec = _spec()
        pts = rng.uniform(-1.9, 1.9, size=(40, 3))
        pts[:, 2] = rng.uniform(-1.9, 1.9, size=40)
        cloud = _lidar(pts, intensity=rng.uniform(0, 1, 40))
        mlp = _voxel_mlp()
        base = voxel_encode(voxelize(cloud, spec, 10**9), mlp)
        for _ in range(100):
            sh = rng.permutation(len(cloud))
            vs = voxel_encode(voxelize(cloud[sh], spec, 10**9), mlp)
            assert np.array_equal(vs.occupied, base.occupied)
            assert np.array_equal(vs.features, base.features)

    def test_members_ordered_by_record_content(self):
        # Points in one voxel tie on x (and some on y) but differ elsewhere.
        rng = np.random.default_rng(17)
        pts = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.1], [0.1, 0.15, 0.3],
                        [0.05, 0.2, 0.3], [0.1, 0.2, 0.3], [0.1, 0.15, 0.2]])
        cloud = _lidar(pts, intensity=[0.5, 0.5, 0.5, 0.5, 0.2, 0.5])
        want = sorted(cloud.tolist())
        for _ in range(20):
            shuffled = cloud[rng.permutation(len(cloud))]
            vs = voxelize(shuffled, _spec())
            assert shuffled[vs.members].tolist() == want

    def test_dim_mismatch(self):
        bad = MlpParams.init((5, 4), np.random.default_rng(0))
        with pytest.raises(ShapeError):
            voxel_encode(voxelize(_lidar([[0, 0, 0]]), _spec()), bad)


class TestZstackCollapse:
    def test_all_empty_gives_zero_map(self):
        spec = _spec()
        vs = voxelize(make_cloud("lidar", {}), spec)
        mlp = MlpParams.init((6 * spec.nz, 8, 5), np.random.default_rng(3))
        out = zstack_collapse(voxel_encode(vs, _voxel_mlp()), mlp)
        assert np.array_equal(out.data, np.zeros((5, spec.ny, spec.nx)))

    def test_nz_one_reduces_to_per_cell_mlp(self):
        spec = _spec(nz=1)
        spec = GridSpec(origin=(-2.0, -2.0, -2.0), cell=(0.5, 0.5, 4.0),
                        counts=(8, 8, 1))
        cloud = _lidar([[0.1, 0.2, -0.3]])
        vs = voxel_encode(voxelize(cloud, spec), _voxel_mlp())
        mlp = MlpParams.init((6, 8, 5), np.random.default_rng(4))
        out = zstack_collapse(vs, mlp)
        (key,), (feat,) = vs.occupied, vs.features
        want = mlp_forward(feat, mlp)
        assert np.array_equal(out.data[:, key[1], key[0]], want)

    def test_two_z_levels_differ_from_single(self):
        spec = _spec()
        both = _lidar([[0.1, 0.1, -1.5], [0.1, 0.1, 1.5]])
        lower = _lidar([[0.1, 0.1, -1.5]])
        vmlp = _voxel_mlp()
        mlp = MlpParams.init((6 * spec.nz, 8, 5), np.random.default_rng(5))
        out_both = zstack_collapse(voxel_encode(voxelize(both, spec), vmlp), mlp)
        out_lower = zstack_collapse(voxel_encode(voxelize(lower, spec), vmlp), mlp)
        ix = math.floor((0.1 + 2.0) / 0.5)
        assert not np.array_equal(out_both.data[:, ix, ix], out_lower.data[:, ix, ix])

    def test_untouched_cells_exact_zero(self):
        spec = _spec()
        cloud = _lidar([[0.1, 0.2, -0.3]])
        mlp = MlpParams.init((6 * spec.nz, 8, 5), np.random.default_rng(6))
        out = zstack_collapse(voxel_encode(voxelize(cloud, spec), _voxel_mlp()), mlp)
        assert int((np.abs(out.data) > 0).any(axis=0).sum()) == 1


class TestBlocks:
    def test_blocks_cover_whole_segments(self, monkeypatch):
        monkeypatch.setattr(grids, "BLOCK_ROWS", 5)
        offsets = np.array([0, 2, 4, 5, 12, 13, 15, 17])
        blocks = list(grids._blocks(offsets))
        assert blocks == [(0, 3), (3, 4), (4, 7)]

    def test_small_blocks_match_per_key_twins(self, monkeypatch):
        monkeypatch.setattr(grids, "BLOCK_ROWS", 7)
        rng = np.random.default_rng(16)
        spec = _spec()
        pts = rng.uniform(-2.2, 2.2, size=(300, 3))
        pts[:40] = pts[0] + rng.uniform(-1e-3, 1e-3, size=(40, 3))
        cloud = _lidar(pts, intensity=rng.uniform(0, 1, 300))
        vmlp = _voxel_mlp()
        zmlp = MlpParams.init((6 * spec.nz, 8, 5), rng)
        vs = voxel_encode(voxelize(cloud, spec, 16), vmlp)
        occupied, dropped, truncated = voxelize_brute(cloud, spec, 16)
        assert (vs.dropped, vs.truncated) == (dropped, truncated) and truncated > 0
        feats = voxel_encode_brute(cloud, spec, occupied, vmlp)
        want = np.array([feats[k] for k in sorted(feats)])
        assert np.abs(vs.features - want).max() <= 1e-12 * np.abs(want).max()
        got = zstack_collapse(vs, zmlp).data
        want = zstack_collapse_brute(spec, feats, zmlp)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _radar(xy, variant="a"):
    xy = np.asarray(xy, dtype=np.float64)
    n = len(xy)
    cols = {"x": xy[:, 0], "y": xy[:, 1], "rcs": np.full(n, 5.0),
            "t": np.zeros(n)}
    if variant == "a":
        cols.update({"vx": np.zeros(n), "vy": np.zeros(n),
                     "dyn_prop": np.zeros(n), "invalid_state": np.zeros(n),
                     "pdh0": np.zeros(n)})
    return make_cloud("radar_a" if variant == "a" else "radar_b", cols)


def _pillar_spec(cell=1.0, n=4):
    return GridSpec(origin=(-2.0, -2.0, -2.0), cell=(cell, cell, 4.0),
                    counts=(n, n, 1))


class TestPillarize:
    def test_empty_cloud_zero_map(self):
        mlp = MlpParams.init((9, 8, 6), np.random.default_rng(7))
        pm = pillarize(_radar(np.zeros((0, 2))), _pillar_spec(), mlp)
        assert np.array_equal(pm.map.data, np.zeros((6, 4, 4)))
        assert pm.occupied == {}

    def test_one_point_one_nonzero_cell(self):
        mlp = MlpParams.init((9, 8, 6), np.random.default_rng(8))
        pm = pillarize(_radar([[0.3, -1.2]]), _pillar_spec(), mlp)
        nonzero = (np.abs(pm.map.data) > 0).any(axis=0)
        assert int(nonzero.sum()) == 1

    def test_cell_index_matches_floor_oracle(self):
        rng = np.random.default_rng(9)
        spec = _pillar_spec()
        mlp = MlpParams.init((9, 8, 6), rng)
        xy = rng.uniform(-1.99, 1.99, size=(50, 2))
        pm = pillarize(_radar(xy), spec, mlp)
        for (ix, iy), members in pm.occupied.items():
            for i in members:
                assert ix == math.floor((xy[i, 0] - spec.origin[0]) / spec.cell[0])
                assert iy == math.floor((xy[i, 1] - spec.origin[1]) / spec.cell[1])

    def test_sparsity_nonzero_cells_equal_pillar_count(self):
        rng = np.random.default_rng(10)
        mlp = MlpParams.init((9, 8, 6), rng)
        for s in range(20):
            xy = np.random.default_rng(s).uniform(-1.99, 1.99, size=(12, 2))
            pm = pillarize(_radar(xy), _pillar_spec(), mlp)
            nonzero = int((np.abs(pm.map.data) > 0).any(axis=0).sum())
            assert nonzero == len(pm.occupied)

    def test_variant_b_feature_width(self):
        mlp = MlpParams.init((4, 8, 6), np.random.default_rng(11))
        pm = pillarize(_radar([[0.0, 0.0]], variant="b"), _pillar_spec(), mlp)
        assert pm.map.channels == 6

    def test_wrong_mlp_width(self):
        mlp = MlpParams.init((4, 8, 6), np.random.default_rng(12))
        with pytest.raises(ShapeError):
            pillarize(_radar([[0.0, 0.0]]), _pillar_spec(), mlp)

    def test_requires_pillar_grid(self):
        mlp = MlpParams.init((9, 8, 6), np.random.default_rng(13))
        with pytest.raises(ConfigError):
            pillarize(_radar([[0.0, 0.0]]), _spec(), mlp)

    def test_truncation_counted(self):
        mlp = MlpParams.init((9, 8, 6), np.random.default_rng(15))
        pm = pillarize(_radar([[0.3, -1.2]] * 33), _pillar_spec(), mlp)
        assert pm.truncated == 1
        assert [len(m) for m in pm.occupied.values()] == [32]

    def test_point_order_invariant(self):
        rng = np.random.default_rng(14)
        mlp = MlpParams.init((9, 8, 6), rng)
        xy = rng.uniform(-1.99, 1.99, size=(20, 2))
        cloud = _radar(xy)
        base = pillarize(cloud, _pillar_spec(), mlp).map
        for _ in range(20):
            sh = rng.permutation(len(cloud))
            assert np.array_equal(pillarize(cloud[sh], _pillar_spec(), mlp).map.data,
                                  base.data)


class TestCollapseToBevGrids:
    def test_single_voxel_single_entry(self):
        spec = _spec()
        vs = voxel_encode(voxelize(_lidar([[0.1, 0.2, -0.3]]), spec), _voxel_mlp())
        coarse = collapse_to_bev_grids(vs, coarse_cell=1.0)
        (key,), (feat,) = coarse, coarse.features
        (vkey,), (vfeat,) = vs.occupied, vs.features
        assert key == (vkey[0] // 2, vkey[1] // 2)
        assert np.array_equal(feat, vfeat)

    def test_two_voxels_same_coarse_cell_elementwise_max(self):
        spec = _spec()
        cloud = _lidar([[-1.9, -1.9, -1.5], [-1.2, -1.2, 0.5]])
        vs = voxel_encode(voxelize(cloud, spec), _voxel_mlp())
        coarse = collapse_to_bev_grids(vs, coarse_cell=1.0)
        want = max_reduce(list(vs.features))
        assert list(coarse) == [(0, 0)]
        assert np.array_equal(coarse.features[0], want)

    def test_ratio_eight_index_arithmetic(self):
        # full-scale geometry: coarse cell = 8x the fine cell
        spec = GridSpec(origin=(-5.4, -5.4, -5.0), cell=(0.075, 0.075, 0.4),
                        counts=(144, 144, 20))
        rng = np.random.default_rng(15)
        pts = rng.uniform(-5.39, 5.39, size=(100, 3))
        pts[:, 2] = rng.uniform(-4.9, 2.9, size=100)
        vs = voxel_encode(voxelize(_lidar(pts), spec), _voxel_mlp())
        coarse = collapse_to_bev_grids(vs, coarse_cell=0.6)
        expected_keys = {(k[0] // 8, k[1] // 8) for k in vs.occupied.tolist()}
        assert list(coarse) == sorted(expected_keys)
        assert coarse.features.shape == (len(expected_keys), vs.feature_dim)

    def test_non_commensurate_raises(self):
        spec = _spec(cell=0.3)
        vs = voxel_encode(voxelize(_lidar([[0.0, 0.0, 0.0]]), spec), _voxel_mlp())
        with pytest.raises(ConfigError):
            collapse_to_bev_grids(vs, coarse_cell=1.0)

    def test_empty_cells_absent(self):
        spec = _spec()
        vs = voxel_encode(voxelize(_lidar([[0.1, 0.2, -0.3]]), spec), _voxel_mlp())
        coarse = collapse_to_bev_grids(vs, coarse_cell=2.0)
        assert len(coarse) == 1

    def test_empty_voxel_set_gives_empty_grids(self):
        vs = voxel_encode(voxelize(_lidar(np.zeros((0, 3))), _spec()), _voxel_mlp())
        coarse = collapse_to_bev_grids(vs, coarse_cell=1.0)
        assert len(coarse) == 0 and list(coarse) == []
        assert coarse.keys.shape == (0, 2)
