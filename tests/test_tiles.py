"""R2L band items on the worker pool: bands, in-order tap sums,
worker-count bits, memory."""

import json
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from lrbev import heads, nn, parallel
from lrbev.config import desk_config
from lrbev.errors import EvaluationError
from lrbev.grids import voxel_encode, voxelize, zstack_collapse
from lrbev.heads import (TILE_ROWS, HeadParams, bev_encoder, detect_forward,
                         fuse_bev_maps, r2l_forward)
from lrbev.nn import Conv2dParams, FeatureMap
from lrbev.oracles import HEAD_FIELDS, columns_of
from lrbev.pipeline import (detections_to_jsonl, generate_clouds,
                            random_weights, run_pipeline)

# tracemalloc peak of the single-thread banded r2l_forward of the previous
# release on the inputs of test_pooled_peak_memory, in bytes.
SINGLE_THREAD_PEAK = 17_061_224


def _inputs(rng, h, w, factor=1):
    m_l = FeatureMap(np.maximum(rng.normal(size=(64, h, w)), 0.0))
    enhanced = FeatureMap(rng.normal(size=(96, h // factor, w // factor)))
    return columns_of(m_l), columns_of(enhanced)


def _weights(rng):
    encoder = [Conv2dParams.init(cin, cout, 3, rng, padding=1)
               for cin, cout in ((160, 8), (8, 8), (8, 512))]
    trunk = [Conv2dParams.init(512, 4, 3, rng, padding=1),
             Conv2dParams.init(4, 4, 3, rng, padding=1)]
    one = lambda out: Conv2dParams.init(4, out, 1, rng)
    return encoder, HeadParams(trunk=trunk, heatmap=one(3), offset=one(2),
                               z=one(1), size=one(3), rot=one(2), vel=one(2))


@pytest.mark.parametrize("h, kernel", [
    (2 * TILE_ROWS, 3), (3 * TILE_ROWS + 5, 3), (2 * TILE_ROWS, 5),
    (3 * TILE_ROWS + 5, 5),
], ids=["32", "53", "32-5x5", "53-5x5"])
@pytest.mark.parametrize("workers", [1, 2])
def test_seams_bit_identical_to_twins(h, kernel, workers):
    """W = 64 keeps every GEMM column in a full block, so the trunk rows
    fed by two items, summed from the taps of both in item order, match
    the whole map. A 5x5 first trunk conv reads two rows of the next item."""
    rng = np.random.default_rng([49, h])
    m_l, enhanced = _inputs(rng, h, 64)
    encoder, head = _weights(rng)
    if kernel != 3:
        head.trunk[0] = Conv2dParams.init(512, 4, kernel, rng, padding=kernel // 2)
    got = r2l_forward(m_l, enhanced, encoder, head, workers=workers)
    want = detect_forward(bev_encoder(fuse_bev_maps(m_l.dense(), enhanced.dense()), encoder),
                          head)
    for name in HEAD_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_seam_hand_ins_under_fast_thread_switching():
    """More workers than cores and a short switch interval: every item's
    taps are still added exactly once, in item order. A 1x1 first trunk
    conv has no taps reaching another item's rows. Checked against one
    worker, not the whole-map twin: a 1x1 trunk conv's small GEMMs may take
    other bits than the whole map's."""
    rng = np.random.default_rng(52)
    m_l, enhanced = _inputs(rng, 8 * TILE_ROWS + 3, 16)
    encoder, head = _weights(rng)
    pointwise = HeadParams(**{**vars(head), "trunk": [
        Conv2dParams.init(512, 4, 1, rng), head.trunk[1]]})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trunk_head in (head, pointwise):
            want = r2l_forward(m_l, enhanced, encoder, trunk_head, workers=1)
            for _ in range(3):
                got = r2l_forward(m_l, enhanced, encoder, trunk_head, workers=6)
                for name in HEAD_FIELDS:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_one_tile_never_touches_the_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a map under two items high started a pool")

    monkeypatch.setattr(parallel, "_POOLS", {})
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    rng = np.random.default_rng(50)
    m_l, enhanced = _inputs(rng, 2 * TILE_ROWS - 1, 16)
    r2l_forward(m_l, enhanced, *_weights(rng), workers=4)
    assert parallel._POOLS == {}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_band_in_a_worker_raises():
    rng = np.random.default_rng(51)
    m_l, enhanced = _inputs(rng, 3 * TILE_ROWS, 16)
    encoder, head = _weights(rng)
    encoder[2] = Conv2dParams(np.full_like(encoder[2].kernel, -1e308),
                              encoder[2].bias, padding=1)
    encoder[1] = Conv2dParams(encoder[1].kernel, np.abs(encoder[1].bias) + 1.0,
                              padding=1)
    with pytest.raises(EvaluationError, match="non-finite"):
        r2l_forward(m_l, enhanced, encoder, head, workers=2)


def test_first_failing_tile_raises_after_every_tile(monkeypatch):
    """The last block's item at row 32 fails at once while the later items
    are still running: its error is raised only after they have all
    finished, and the last item's later failure does not replace it."""
    rng = np.random.default_rng(55)
    m_l, enhanced = _inputs(rng, 90, 64)    # items from rows 0, 16, ..., 80
    encoder, head = _weights(rng)
    running, lock = set(), threading.Lock()
    real = heads._im2col_rows

    def im2col_rows(conv, padded, y0, y1):
        if conv is not encoder[2]:
            yield from real(conv, padded, y0, y1)
            return
        with lock:
            running.add(y0)
        try:
            if y0 == 32:
                raise RuntimeError("item at row 32")
            if y0 > 32:
                time.sleep(0.2)
                if y0 == 80:
                    raise RuntimeError("item at row 80")
            yield from real(conv, padded, y0, y1)
        finally:
            with lock:
                running.discard(y0)

    monkeypatch.setattr(heads, "_im2col_rows", im2col_rows)
    with pytest.raises(RuntimeError, match="item at row 32"):
        r2l_forward(m_l, enhanced, encoder, head, workers=3)
    assert not running


@pytest.mark.parametrize("loop", [0, 1], ids=["chunks", "items"])
def test_failing_add_waits_for_started_items(monkeypatch, loop):
    """The calling thread's add raises on the second item of the first
    block's chunk loop, or of the last block's item loop: by the time the
    error arrives, no chunk GEMM or item started beside it still runs."""
    monkeypatch.setattr(nn, "_BAND_FLOATS", 160 * 8 * 64)
    rng = np.random.default_rng(58)
    m_l, enhanced = _inputs(rng, 90, 64)    # 12 gather chunks, 6 items
    running, lock = set(), threading.Lock()
    real = parallel.each
    loops = []

    def each(fn, items, workers, add=None):
        if add is None:
            return real(fn, items, workers)
        loops.append(len(loops))
        if loops[-1] != loop:
            return real(fn, items, workers, add)
        items, added = list(items), []

        def slow(item):
            with lock:
                running.add(item)
            try:
                if items.index(item) >= 2:
                    time.sleep(0.2)
                return fn(item)
            finally:
                with lock:
                    running.discard(item)

        def failing(item, out):
            added.append(item)
            if len(added) == 2:
                raise RuntimeError("add")
            add(item, out)

        return real(slow, items, workers, failing)

    monkeypatch.setattr(parallel, "each", each)
    # The error, and with it the frames of its traceback, kept alive as a
    # caller handling it would: finishing the started items must not wait
    # for the map's frames to be dropped.
    with pytest.raises(RuntimeError, match="add") as raised:
        r2l_forward(m_l, enhanced, *_weights(rng), workers=2)
    assert not running, raised


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("w", [64, 16])
@pytest.mark.parametrize("h", [53, 64])
def test_last_block_runs_the_whole_maps_bands(monkeypatch, h, w, workers):
    """The last block's items run the whole-map chain's im2col bands, each
    exactly once."""
    rng = np.random.default_rng([57, h, w])
    m_l, enhanced = _inputs(rng, h, w)
    encoder, head = _weights(rng)
    bands = {heads: [], nn: []}

    def spy(module):
        real = module._im2col_rows

        def im2col_rows(conv, padded, y0, y1):
            for ya, yb, rows in real(conv, padded, y0, y1):
                if conv is encoder[2]:
                    bands[module].append((ya, yb))
                yield ya, yb, rows
        return im2col_rows

    for module in bands:
        monkeypatch.setattr(module, "_im2col_rows", spy(module))
    r2l_forward(m_l, enhanced, encoder, head, workers=workers)
    bev_encoder(fuse_bev_maps(m_l.dense(), enhanced.dense()), encoder)
    assert sorted(bands[heads]) == bands[nn]
    assert bands[nn][-1][1] == h


@pytest.mark.parametrize("workers", [2, 8, 32])
def test_pooled_peak_memory(workers):
    """Desk-sized inputs peak no higher than one thread did before the
    tiles, however many workers there are: the tiles in flight share one
    scratch budget."""
    cfg = desk_config()
    weights = random_weights(cfg, cfg.seeds.weights)
    rng = np.random.default_rng(47)
    m_l, enhanced = _inputs(rng, 128, 128, factor=4)
    r2l_forward(m_l, enhanced, weights.encoder, weights.head, workers=workers)
    tracemalloc.start()
    try:
        r2l_forward(m_l, enhanced, weights.encoder, weights.head, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= SINGLE_THREAD_PEAK


@pytest.mark.parametrize("workers", [1, 2])
def test_workers_follow_the_callers_error_handling(workers):
    """An overflow in a pooled tile is handled as the caller set it up: no
    RuntimeWarning under over='ignore', FloatingPointError under 'raise'."""
    rng = np.random.default_rng(53)
    m_l, enhanced = _inputs(rng, 128, 16)
    encoder, head = _weights(rng)
    encoder[2] = Conv2dParams(np.full_like(encoder[2].kernel, 1e308),
                              encoder[2].bias, padding=1)
    encoder[1] = Conv2dParams(encoder[1].kernel, np.abs(encoder[1].bias) + 1.0,
                              padding=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"), \
                pytest.raises(EvaluationError, match="non-finite"):
            r2l_forward(m_l, enhanced, encoder, head, workers=workers)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            r2l_forward(m_l, enhanced, encoder, head, workers=workers)


def test_desk_pipeline_same_bytes_on_one_worker(monkeypatch):
    """Desk pool scenes: stats, heatmap and detections of the default pool
    and of a single worker agree byte for byte."""
    cfg = desk_config()
    for scene in range(3):
        _, lidar, radar = generate_clouds(cfg, scene)
        pooled = run_pipeline(cfg, lidar, radar)
        with monkeypatch.context() as m:
            m.setattr(parallel, "WORKERS", 1)
            serial = run_pipeline(cfg, lidar, radar)
        assert json.dumps(pooled.stats, sort_keys=True) == \
            json.dumps(serial.stats, sort_keys=True)
        assert pooled.maps["heatmap"].data.tobytes() == \
            serial.maps["heatmap"].data.tobytes()
        assert detections_to_jsonl(pooled.detections) == \
            detections_to_jsonl(serial.detections)


def test_desk_r2l_equals_whole_map_twin():
    """A desk frame's LiDAR columns and enhanced map: the gathered first
    block and the bands give the whole-map chain's bytes."""
    cfg = desk_config()
    _, lidar, radar = generate_clouds(cfg, 1)
    result = run_pipeline(cfg, lidar, radar)
    weights = random_weights(cfg, cfg.seeds.weights)
    voxels = voxel_encode(voxelize(lidar, cfg.lidar_grid, cfg.max_points_per_voxel),
                          weights.voxel_mlp)
    m_l = zstack_collapse(voxels, weights.zstack_mlp)
    enhanced = result.maps["enhanced"]
    got = r2l_forward(m_l, enhanced, weights.encoder, weights.head)
    want = detect_forward(bev_encoder(fuse_bev_maps(m_l.dense(), enhanced.dense()),
                                      weights.encoder), weights.head)
    for name in HEAD_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.heatmap.tobytes() == result.maps["heatmap"].data.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_small_gather_chunks_match_twins(monkeypatch, workers):
    """Gather chunks of 16 columns, padded ones among them, over sparse
    LiDAR, radar-only columns and an empty band."""
    monkeypatch.setattr(nn, "_BAND_FLOATS", 160 * 16)
    rng = np.random.default_rng(54)
    h, w = 3 * TILE_ROWS, 64
    data = np.maximum(rng.normal(size=(64, h, w)), 0.0)
    data *= rng.uniform(size=(1, h, w)) < 0.3
    data[:, 5:9] = 0.0
    m_l = columns_of(FeatureMap(data))
    enhanced = columns_of(FeatureMap(rng.normal(size=(96, h // 4, w // 4))
                                     * (rng.uniform(size=(1, h // 4, w // 4)) < 0.3)))
    encoder, head = _weights(rng)
    counts = {}
    got = r2l_forward(m_l, enhanced, encoder, head, workers=workers, counts=counts)
    fused = fuse_bev_maps(m_l.dense(), enhanced)
    want = detect_forward(bev_encoder(fused, encoder), head)
    for name in HEAD_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert counts["gathered_columns"] == int(fused.data.any(axis=0).sum())


@pytest.mark.parametrize("kernel", [3, 5])
@pytest.mark.parametrize("workers", [1, 2])
def test_edge_columns_in_small_chunks_match_twins(monkeypatch, workers, kernel):
    """Occupied columns on every edge and corner, LiDAR and radar-only,
    spread over gather chunks of 16 columns: the taps falling off the map
    land on the border and none of them reaches the output. A 5x5 first
    block pads by 2, more than the second block's 1, so its border is wider
    than the padding the second block reads."""
    monkeypatch.setattr(nn, "_BAND_FLOATS", 160 * 16)
    rng = np.random.default_rng([56, kernel])
    h, w = 3 * TILE_ROWS, 64
    edge = np.zeros((h, w), bool)
    edge[[0, -1]] = edge[:, [0, -1]] = True
    edge |= rng.uniform(size=(h, w)) < 0.1
    data = np.zeros((64, h, w))
    data[:, edge] = np.abs(rng.normal(size=(64, int(edge.sum()))))
    data[:, 1:4, 1:4] = 0.0        # a radar-only corner
    radar = np.zeros((96, h // 4, w // 4))
    radar[:, [0, -1, -1], [0, 0, -1]] = rng.normal(size=(96, 3))
    m_l, enhanced = columns_of(FeatureMap(data)), columns_of(FeatureMap(radar))
    encoder, head = _weights(rng)
    encoder[0] = Conv2dParams.init(160, 8, kernel, rng, padding=kernel // 2)
    counts = {}
    got = r2l_forward(m_l, enhanced, encoder, head, workers=workers, counts=counts)
    fused = fuse_bev_maps(m_l.dense(), enhanced)
    want = detect_forward(bev_encoder(fused, encoder), head)
    for name in HEAD_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert counts["gathered_columns"] == int(fused.data.any(axis=0).sum())
    assert counts["gathered_columns"] > 4 * 16
