"""R2L row tiles on the worker pool: partition, seams, worker-count bits,
memory."""

import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from lrbev import heads
from lrbev.config import desk_config
from lrbev.errors import EvaluationError
from lrbev.heads import (TILE_ROWS, HeadParams, bev_encoder, detect_forward,
                         fuse_bev_maps, r2l_forward, tiles)
from lrbev.nn import Conv2dParams, FeatureMap
from lrbev.oracles import HEAD_FIELDS
from lrbev.pipeline import (detections_to_jsonl, generate_clouds,
                            random_weights, run_pipeline)

# tracemalloc peak of the single-thread banded r2l_forward of the previous
# release on the inputs of test_pooled_peak_memory, in bytes.
SINGLE_THREAD_PEAK = 17_061_224


def _inputs(rng, h, w, factor=1):
    m_l = FeatureMap(np.maximum(rng.normal(size=(64, h, w)), 0.0))
    enhanced = FeatureMap(rng.normal(size=(96, h // factor, w // factor)))
    return m_l, enhanced


def _weights(rng):
    encoder = [Conv2dParams.init(cin, cout, 3, rng, padding=1)
               for cin, cout in ((160, 8), (8, 8), (8, 512))]
    trunk = [Conv2dParams.init(512, 4, 3, rng, padding=1),
             Conv2dParams.init(4, 4, 3, rng, padding=1)]
    one = lambda out: Conv2dParams.init(4, out, 1, rng)
    return encoder, HeadParams(trunk=trunk, heatmap=one(3), offset=one(2),
                               z=one(1), size=one(3), rot=one(2), vel=one(2))


def test_tiles_cover_the_map():
    for h in (1, TILE_ROWS - 1, TILE_ROWS, 2 * TILE_ROWS - 1, 2 * TILE_ROWS,
              3 * TILE_ROWS + 5, 1440):
        cut = tiles(h)
        assert cut[0][0] == 0 and cut[-1][1] == h
        assert all(a[1] == b[0] for a, b in zip(cut, cut[1:]))
        assert len(cut) == max(1, h // TILE_ROWS)
        assert len(cut) == 1 or min(y1 - y0 for y0, y1 in cut) >= TILE_ROWS


@pytest.mark.parametrize("h", [2 * TILE_ROWS, 3 * TILE_ROWS + 5])
@pytest.mark.parametrize("workers", [1, 2])
def test_seams_bit_identical_to_twins(h, workers):
    """W = 64 keeps every GEMM column in a full block, so the rows next to
    a seam, summed from the taps of both tiles, match the whole map."""
    rng = np.random.default_rng([49, h])
    m_l, enhanced = _inputs(rng, h, 64)
    encoder, head = _weights(rng)
    got = r2l_forward(m_l, enhanced, encoder, head, workers=workers)
    want = detect_forward(bev_encoder(fuse_bev_maps(m_l, enhanced), encoder), head)
    for name in HEAD_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_seam_hand_ins_under_fast_thread_switching():
    """More workers than cores and a short switch interval: every seam's
    rows are still summed exactly once, from both tiles' taps."""
    rng = np.random.default_rng(52)
    m_l, enhanced = _inputs(rng, 8 * TILE_ROWS + 3, 16)
    encoder, head = _weights(rng)
    want = r2l_forward(m_l, enhanced, encoder, head, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = r2l_forward(m_l, enhanced, encoder, head, workers=6)
            for name in HEAD_FIELDS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_one_tile_never_touches_the_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-tile map started a pool")

    monkeypatch.setattr(heads, "_POOLS", {})
    monkeypatch.setattr(heads, "ThreadPoolExecutor", no_pool)
    rng = np.random.default_rng(50)
    m_l, enhanced = _inputs(rng, 2 * TILE_ROWS - 1, 16)
    r2l_forward(m_l, enhanced, *_weights(rng), workers=4)
    assert heads._POOLS == {}


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
            m.setattr(heads, "WORKERS", 1)
            serial = run_pipeline(cfg, lidar, radar)
        assert json.dumps(pooled.stats, sort_keys=True) == \
            json.dumps(serial.stats, sort_keys=True)
        assert pooled.maps["heatmap"].data.tobytes() == \
            serial.maps["heatmap"].data.tobytes()
        assert detections_to_jsonl(pooled.detections) == \
            detections_to_jsonl(serial.detections)
