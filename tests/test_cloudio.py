"""Cloud/feature-map file formats: round trips and malformed payloads."""

import struct
import tracemalloc

import numpy as np
import pytest

from lrbev.cloud import make_cloud
from lrbev.cloudio import (read_cloud, read_feature_map, read_raw_lidar,
                           write_cloud, write_feature_map)
from lrbev.errors import FormatError
from lrbev.grids import BevColumns
from lrbev.nn import FeatureMap
from lrbev.synth import SceneSpec, generate_scene, lidar_sample


def _f4(values):
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def _random_cloud(kind, n, seed):
    rng = np.random.default_rng(seed)
    from lrbev.cloud import DTYPE_BY_KIND
    cols = {name: _f4(rng.normal(size=n)) for name in DTYPE_BY_KIND[kind].names}
    return make_cloud(kind, cols)


class TestBinaryRoundTrip:
    @pytest.mark.parametrize("kind", ["lidar", "radar_a", "radar_b"])
    def test_bit_exact_for_f4_values(self, kind, tmp_path):
        for seed in range(5):
            cloud = _random_cloud(kind, 37, seed)
            path = tmp_path / f"{kind}_{seed}.blrf"
            write_cloud(cloud, path)
            back = read_cloud(path)
            assert back.dtype == cloud.dtype
            assert np.array_equal(back, cloud)

    def test_empty_cloud(self, tmp_path):
        cloud = make_cloud("lidar", {})
        path = tmp_path / "empty.blrf"
        write_cloud(cloud, path)
        assert len(read_cloud(path)) == 0

    def test_sampled_lidar_round_trips(self, tmp_path):
        scene = generate_scene(SceneSpec(num_objects=2), 0)
        cloud = lidar_sample(scene, 20.0, 0.02, 0)
        path = tmp_path / "scan.blrf"
        write_cloud(cloud, path)
        assert np.array_equal(read_cloud(path), cloud)

    def test_write_read_idempotent_after_first_cycle(self, tmp_path):
        # arbitrary doubles settle after one quantizing cycle
        rng = np.random.default_rng(1)
        cloud = make_cloud("radar_b", {
            "x": rng.normal(size=9), "y": rng.normal(size=9),
            "rcs": rng.normal(size=9), "t": rng.normal(size=9)})
        p1, p2 = tmp_path / "a.blrf", tmp_path / "b.blrf"
        write_cloud(cloud, p1)
        once = read_cloud(p1)
        write_cloud(once, p2)
        assert np.array_equal(read_cloud(p2), once)


class TestMalformedFiles:
    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.blrf"
        path.write_bytes(b"NOPE" + bytes(11))
        with pytest.raises(FormatError) as e:
            read_cloud(path)
        assert e.value.offset == 0

    def test_unknown_version_offset(self, tmp_path):
        path = tmp_path / "ver.blrf"
        path.write_bytes(struct.pack("<4sHBQ", b"BLRF", 9, 0, 0))
        with pytest.raises(FormatError) as e:
            read_cloud(path)
        assert e.value.offset == 4

    def test_unknown_kind_offset(self, tmp_path):
        path = tmp_path / "kind.blrf"
        path.write_bytes(struct.pack("<4sHBQ", b"BLRF", 1, 7, 0))
        with pytest.raises(FormatError) as e:
            read_cloud(path)
        assert e.value.offset == 6

    def test_truncated_payload_names_offset(self, tmp_path):
        cloud = _random_cloud("lidar", 10, 0)
        path = tmp_path / "trunc.blrf"
        write_cloud(cloud, path)
        blob = path.read_bytes()
        cut = len(blob) - 7   # mid-record
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError) as e:
            read_cloud(path)
        assert e.value.offset == cut

    def test_short_header(self, tmp_path):
        path = tmp_path / "short.blrf"
        path.write_bytes(b"BLR")
        with pytest.raises(FormatError):
            read_cloud(path)


class TestJsonFixtures:
    def test_round_trip(self, tmp_path):
        cloud = make_cloud("radar_a", {
            "x": [1.5, -2.0], "y": [0.25, 4.0], "rcs": [10.0, 3.5],
            "t": [0.0, -0.05], "vx": [1.0, 0.0], "vy": [0.5, 0.0],
            "dyn_prop": [0.0, 1.0], "invalid_state": [0.0, 0.0],
            "pdh0": [2.0, 1.0]})
        path = tmp_path / "fixture.json"
        write_cloud(cloud, path)
        assert np.array_equal(read_cloud(path), cloud)

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "hand.json"
        path.write_text('{"kind": "lidar", "points": ['
                        '{"x": 1.0, "y": 2.0, "z": 0.5, "intensity": 0.7, "t": 0.0}]}')
        cloud = read_cloud(path)
        assert len(cloud) == 1 and cloud["z"][0] == 0.5


class TestRawImporter:
    def test_quintuples_ring_discarded(self, tmp_path):
        table = np.array([[1.0, 2.0, 3.0, 0.5, 7.0],
                          [-1.0, 0.0, 0.25, 0.9, 3.0]], dtype="<f4")
        path = tmp_path / "raw.bin"
        path.write_bytes(table.tobytes())
        cloud = read_raw_lidar(path)
        assert len(cloud) == 2
        assert np.array_equal(cloud["x"], [1.0, -1.0])
        assert np.array_equal(cloud["intensity"], _f4([0.5, 0.9]))
        assert np.array_equal(cloud["t"], [0.0, 0.0])

    def test_partial_record_rejected(self, tmp_path):
        path = tmp_path / "raw.bin"
        path.write_bytes(bytes(23))
        with pytest.raises(FormatError):
            read_raw_lidar(path)


class TestFeatureMapDump:
    def test_round_trip(self, tmp_path):
        data = _f4(np.random.default_rng(0).normal(size=(3, 4, 5))).reshape(3, 4, 5)
        m = FeatureMap(data)
        path = tmp_path / "map.blrm"
        write_feature_map(m, path)
        back = read_feature_map(path)
        assert back.shape == (3, 4, 5)
        assert np.array_equal(back.data, m.data)

    def test_writes_one_channel_plane_at_a_time(self, tmp_path):
        """No float32 or bytes copy of the whole 4 MB map is made."""
        m = FeatureMap(np.random.default_rng(1).normal(size=(64, 128, 128)))
        path = tmp_path / "map.blrm"
        tracemalloc.start()
        try:
            write_feature_map(m, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.array_equal(read_feature_map(path).data, m.data.astype(np.float32))

    def test_columns_written_plane_by_plane(self, tmp_path):
        """A ``BevColumns`` map is written from its columns, one plane at a
        time, never as its dense map; the bytes are the dense map's."""
        rng = np.random.default_rng(2)
        ids = np.sort(rng.choice(128 * 128, 700, replace=False))
        m = BevColumns(ids, rng.normal(size=(700, 64)), (64, 128, 128))
        path, dense = tmp_path / "columns.blrm", tmp_path / "dense.blrm"
        tracemalloc.start()
        try:
            write_feature_map(m, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20      # the dense map is 8 MB
        write_feature_map(m.dense(), dense)
        assert path.read_bytes() == dense.read_bytes()

    def test_magic_and_truncation(self, tmp_path):
        path = tmp_path / "map.blrm"
        write_feature_map(FeatureMap(np.zeros((1, 2, 2))), path)
        blob = path.read_bytes()
        assert blob[:4] == b"BLRM"
        path.write_bytes(blob[:-3])
        with pytest.raises(FormatError):
            read_feature_map(path)
