"""Cloud containers, sweep accumulation, radar height convention."""

import math

import numpy as np
import pytest

from lrbev.cloud import Pose, accumulate_sweeps, make_cloud, radar_xyz


def _lidar(n, seed=0):
    rng = np.random.default_rng(seed)
    return make_cloud("lidar", {
        "x": rng.uniform(-5, 5, n), "y": rng.uniform(-5, 5, n),
        "z": rng.uniform(-2, 1, n), "intensity": rng.uniform(0, 1, n),
        "t": np.full(n, -0.1)})


def test_single_sweep_identity_pose_is_noop():
    cloud = _lidar(20)
    merged = accumulate_sweeps([cloud], [Pose()])
    assert np.array_equal(merged, cloud)


def test_translation_shifts_exactly():
    a, b = _lidar(10, 1), _lidar(15, 2)
    merged = accumulate_sweeps([a, b], [Pose(), Pose(tx=1.0)])
    assert np.array_equal(merged[:10], a)
    assert np.array_equal(merged[10:]["x"], b["x"] + 1.0)
    assert np.array_equal(merged[10:]["y"], b["y"])
    assert np.array_equal(merged[10:]["t"], b["t"])


def test_count_conserved_over_ten_sweeps():
    sweeps = [_lidar(100, s) for s in range(10)]
    poses = [Pose(tx=0.5 * k) for k in range(10)]
    merged = accumulate_sweeps(sweeps, poses, n=10)
    assert len(merged) == 1000


def test_rotation_rotates_positions_and_velocities():
    cloud = make_cloud("radar_a", {"x": [1.0], "y": [0.0], "rcs": [5.0],
                                   "t": [0.0], "vx": [2.0], "vy": [0.0],
                                   "dyn_prop": [0.0], "invalid_state": [0.0],
                                   "pdh0": [0.0]})
    merged = accumulate_sweeps([cloud], [Pose(yaw=math.pi / 2)])
    assert abs(merged["x"][0]) < 1e-12 and abs(merged["y"][0] - 1.0) < 1e-12
    assert abs(merged["vx"][0]) < 1e-12 and abs(merged["vy"][0] - 2.0) < 1e-12


def test_pose_count_mismatch():
    with pytest.raises(ValueError):
        accumulate_sweeps([_lidar(5)], [Pose(), Pose()])


def test_requesting_more_sweeps_than_available():
    with pytest.raises(ValueError):
        accumulate_sweeps([_lidar(5)], [Pose()], n=2)


def test_radar_xyz_uses_sensor_height_exactly():
    cloud = make_cloud("radar_b", {"x": [1.0, 2.0], "y": [3.0, 4.0],
                                   "rcs": [0.0, 0.0], "t": [0.0, 0.0]})
    xyz = radar_xyz(cloud, sensor_height=0.5)
    assert np.array_equal(xyz[:, 2], [0.5, 0.5])
    assert "z" not in cloud.dtype.names
