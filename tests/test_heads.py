"""R2L fusion, detection heads, decoding, target rendering, joint loss."""

import math
import tracemalloc

import numpy as np
import pytest

from lrbev.config import desk_config
from lrbev.errors import EvaluationError, ShapeError
from lrbev.grids import GridSpec
from lrbev.heads import (ENCODER_CHANNELS, DetectionBox, HeadOutputs, HeadParams,
                         LossWeights, bev_encoder, compute_loss,
                         decode_detections, detect_forward, find_peaks,
                         fuse_bev_maps, outputs_from_targets, r2l_forward,
                         render_targets, upsample_nearest)
from lrbev.nn import (Conv2dParams, FeatureMap, band_rows, finite_diff_check,
                      sigmoid)
from lrbev.oracles import (HEAD_FIELDS, columns_of, loss_gradcheck_instance,
                           pack_head_maps, unpack_head_maps)
from lrbev.pipeline import random_weights
from lrbev.synth import GroundTruthBox, wrap_angle

GRID = GridSpec(origin=(-8.0, -8.0, -5.0), cell=(0.5, 0.5, 8.0), counts=(32, 32, 1))


def _box(cx=1.0, cy=-2.0, cls=0, yaw=0.7, l=3.0, w=1.6, h=1.5, vx=2.0, vy=-1.0):
    return GroundTruthBox(cx=cx, cy=cy, cz=-0.75, length=l, width=w, height=h,
                          yaw=yaw, vx=vx, vy=vy, class_id=cls)


class TestFuseBevMaps:
    def test_zero_radar_slice_stays_zero(self):
        rng = np.random.default_rng(0)
        m_l = FeatureMap(rng.normal(size=(64, 8, 8)))
        enhanced = FeatureMap.zeros(96, 8, 8)
        fused = fuse_bev_maps(m_l, enhanced)
        assert fused.channels == 160
        assert not np.any(fused.data[64:])

    def test_64_plus_96_is_160(self):
        fused = fuse_bev_maps(FeatureMap.zeros(64, 4, 4), FeatureMap.zeros(96, 4, 4))
        assert fused.channels == 64 + 96 == 160

    def test_lidar_slice_exact(self):
        rng = np.random.default_rng(1)
        m_l = FeatureMap(rng.normal(size=(16, 8, 8)))
        fused = fuse_bev_maps(m_l, FeatureMap(rng.normal(size=(96, 8, 8))))
        assert np.array_equal(fused.data[:16], m_l.data)

    def test_nearest_replication_for_coarser_radar(self):
        rng = np.random.default_rng(2)
        enhanced = FeatureMap(rng.normal(size=(96, 2, 2)))
        fused = fuse_bev_maps(FeatureMap.zeros(16, 8, 8), enhanced)
        up = fused.data[16:]
        for iy in range(8):
            for ix in range(8):
                assert np.array_equal(up[:, iy, ix], enhanced.data[:, iy // 4, ix // 4])

    def test_non_divisible_grids_raise(self):
        with pytest.raises(ShapeError):
            fuse_bev_maps(FeatureMap.zeros(16, 9, 9), FeatureMap.zeros(96, 2, 2))

    def test_upsample_factors_validated(self):
        with pytest.raises(ShapeError):
            upsample_nearest(FeatureMap.zeros(1, 2, 2), 0, 1)


def _encoder(rng, cin=160, hidden=(8, 8)):
    widths = [cin, *hidden, 512]
    return [Conv2dParams.init(widths[k], widths[k + 1], 3, rng)
            for k in range(3)]


class TestBevEncoder:
    def test_zero_input_zero_biases_zero_output(self):
        rng = np.random.default_rng(3)
        blocks = _encoder(rng)
        blocks = [Conv2dParams(b.kernel, np.zeros_like(b.bias))
                  for b in blocks]
        out = bev_encoder(FeatureMap.zeros(160, 6, 6), blocks)
        assert not np.any(out.data)

    def test_output_512_channels(self):
        rng = np.random.default_rng(4)
        out = bev_encoder(FeatureMap(rng.normal(size=(160, 6, 6))), _encoder(rng))
        assert out.channels == 512

    def test_spatial_dims_preserved(self):
        rng = np.random.default_rng(5)
        out = bev_encoder(FeatureMap(rng.normal(size=(160, 5, 9))), _encoder(rng))
        assert (out.height, out.width) == (5, 9)

    def test_wrong_final_width_rejected(self):
        rng = np.random.default_rng(6)
        widths = [160, 8, 8, 256]
        blocks = [Conv2dParams.init(widths[k], widths[k + 1], 3, rng)
                  for k in range(3)]
        with pytest.raises(ShapeError):
            bev_encoder(FeatureMap.zeros(160, 4, 4), blocks)

    def test_two_blocks_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ShapeError):
            bev_encoder(FeatureMap.zeros(160, 4, 4), _encoder(rng)[:2])


def _head_params(rng, cin=512, trunk=(4, 4), num_classes=3, zero_bias=False):
    blocks = []
    prev = cin
    for width in trunk:
        blocks.append(Conv2dParams.init(prev, width, 3, rng))
        prev = width

    def head(out):
        p = Conv2dParams.init(prev, out, 1, rng)
        if zero_bias:
            p = Conv2dParams(p.kernel, np.zeros_like(p.bias))
        return p

    return HeadParams(trunk=blocks, heatmap=head(num_classes), offset=head(2),
                      z=head(1), size=head(3), rot=head(2), vel=head(2))


class TestDetectForward:
    def test_zero_features_zero_biases_heatmap_half(self):
        rng = np.random.default_rng(8)
        params = _head_params(rng, zero_bias=True)
        params = HeadParams(
            trunk=[Conv2dParams(b.kernel, np.zeros_like(b.bias))
                   for b in params.trunk],
            heatmap=Conv2dParams(params.heatmap.kernel, np.zeros(3)),
            offset=params.offset, z=params.z, size=params.size,
            rot=params.rot, vel=params.vel)
        out = detect_forward(FeatureMap.zeros(512, 4, 4), params)
        assert np.all(out.heatmap == 0.5)

    def test_heatmap_strictly_in_unit_interval(self):
        rng = np.random.default_rng(9)
        out = detect_forward(FeatureMap(rng.normal(size=(512, 4, 4))),
                             _head_params(rng))
        assert np.all(out.heatmap > 0) and np.all(out.heatmap < 1)

    def test_spatial_dims_preserved(self):
        rng = np.random.default_rng(10)
        out = detect_forward(FeatureMap(rng.normal(size=(512, 5, 7))),
                             _head_params(rng))
        assert out.heatmap.shape == (3, 5, 7)
        assert out.offset.shape == (2, 5, 7)
        assert out.size.shape == (3, 5, 7)


def _r2l_inputs(rng, h, w, lidar=64, factor=1):
    m_l = FeatureMap(np.maximum(rng.normal(size=(lidar, h, w)), 0.0))
    enhanced = FeatureMap(rng.normal(size=(96, h // factor, w // factor)))
    return columns_of(m_l), columns_of(enhanced)


def _twin_chain(m_l, enhanced, encoder, head):
    return detect_forward(bev_encoder(fuse_bev_maps(m_l.dense(), enhanced), encoder),
                          head)


def _assert_matches_twins(got, want):
    """Bit-identical, or within 1e-12 of the largest reference magnitude."""
    for name in HEAD_FIELDS:
        g, r = getattr(got, name), getattr(want, name)
        assert g.shape == r.shape
        assert np.abs(g - r).max() <= 1e-12 * np.abs(r).max(), name


class TestR2lForward:
    @pytest.mark.parametrize("h,w", [(1, 16), (16, 1), (1, 1)])
    def test_single_row_or_column(self, h, w):
        rng = np.random.default_rng(40)
        m_l, enhanced = _r2l_inputs(rng, h, w)
        encoder, head = _encoder(rng), _head_params(rng)
        _assert_matches_twins(r2l_forward(m_l, enhanced, encoder, head),
                              _twin_chain(m_l, enhanced, encoder, head))

    @pytest.mark.parametrize("extra", [-3, 1, 2, 5])
    def test_band_edges(self, extra):
        """Under one band, one band plus a row, and past two bands, with H
        not a multiple of the band height."""
        w = 64
        rows = band_rows(ENCODER_CHANNELS, w)
        h = rows + extra if extra < 5 else 2 * rows + extra
        rng = np.random.default_rng([41, extra + 3])
        m_l, enhanced = _r2l_inputs(rng, h, w, factor=1)
        encoder, head = _encoder(rng), _head_params(rng)
        got = r2l_forward(m_l, enhanced, encoder, head)
        want = _twin_chain(m_l, enhanced, encoder, head)
        for name in HEAD_FIELDS:   # W = 64 keeps every GEMM column in a full block
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_fused_bands_with_replicated_radar(self):
        w = 32
        h = 2 * band_rows(160, w) + 3
        h -= h % 4
        rng = np.random.default_rng(42)
        m_l, enhanced = _r2l_inputs(rng, h, w, factor=4)
        encoder, head = _encoder(rng), _head_params(rng)
        _assert_matches_twins(r2l_forward(m_l, enhanced, encoder, head),
                              _twin_chain(m_l, enhanced, encoder, head))

    @pytest.mark.parametrize("trunk", [(), (4,)])
    def test_trunk_that_cannot_take_bands_raises(self, trunk):
        """No trunk conv, where the heads would read the 512-channel map
        whole, which the bands never build; or a first trunk conv that reads
        256 channels, which cannot take the bands."""
        rng = np.random.default_rng(48)
        m_l, enhanced = _r2l_inputs(rng, 9, 8)
        encoder = _encoder(rng)
        head = _head_params(rng, cin=256 if trunk else 512, trunk=trunk)
        with pytest.raises(ShapeError, match="head trunk"):
            r2l_forward(m_l, enhanced, encoder, head)

    def test_two_calls_identical_bits(self):
        rng = np.random.default_rng(43)
        m_l, enhanced = _r2l_inputs(rng, 37, 33, factor=1)
        encoder, head = _encoder(rng), _head_params(rng)
        a = r2l_forward(m_l, enhanced, encoder, head)
        b = r2l_forward(m_l, enhanced, encoder, head)
        for name in HEAD_FIELDS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    @pytest.mark.parametrize("case", ["two-blocks", "final-width", "channels"])
    def test_encoder_shape_errors_match_twin(self, case):
        rng = np.random.default_rng(44)
        m_l, enhanced = _r2l_inputs(rng, 6, 6)
        encoder, head = _encoder(rng), _head_params(rng)
        if case == "two-blocks":
            encoder = encoder[:2]
        elif case == "final-width":
            encoder[2] = Conv2dParams.init(8, 256, 3, rng)
        else:
            encoder[0] = Conv2dParams.init(150, 8, 3, rng)
        with pytest.raises(ShapeError) as twin:
            _twin_chain(m_l, enhanced, encoder, head)
        with pytest.raises(ShapeError) as banded:
            r2l_forward(m_l, enhanced, encoder, head)
        assert str(banded.value) == str(twin.value)

    def test_non_divisible_radar_message_matches_twin(self):
        rng = np.random.default_rng(45)
        m_l = FeatureMap(rng.normal(size=(64, 6, 6)))
        enhanced = FeatureMap(rng.normal(size=(96, 4, 4)))
        with pytest.raises(ShapeError) as twin:
            fuse_bev_maps(m_l, enhanced)
        with pytest.raises(ShapeError) as banded:
            r2l_forward(columns_of(m_l), columns_of(enhanced), _encoder(rng),
                        _head_params(rng))
        assert str(banded.value) == str(twin.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e308, -1e308])
    def test_overflowing_preactivation_raises(self, scale):
        """+inf and -inf pre-activations of the 512-channel block are caught
        before the rectifier (which would turn -inf into 0)."""
        rng = np.random.default_rng(46)
        m_l, enhanced = _r2l_inputs(rng, 20, 16)
        encoder, head = _encoder(rng), _head_params(rng)
        encoder[2] = Conv2dParams(np.full_like(encoder[2].kernel, scale), encoder[2].bias)
        encoder[1] = Conv2dParams(encoder[1].kernel, np.abs(encoder[1].bias) + 1.0)
        with pytest.raises(EvaluationError):
            _twin_chain(m_l, enhanced, encoder, head)
        with pytest.raises(EvaluationError, match="non-finite"):
            r2l_forward(m_l, enhanced, encoder, head)

    def test_peak_memory_below_fused_map(self):
        """Desk-sized inputs: the traced peak stays under the size of the
        fused map, so neither it nor the 512-channel map is built whole."""
        cfg = desk_config()
        weights = random_weights(cfg, cfg.seeds.weights)
        rng = np.random.default_rng(47)
        m_l, enhanced = _r2l_inputs(rng, 128, 128, factor=4)
        fused_bytes = (64 + 96) * 128 * 128 * 8
        r2l_forward(m_l, enhanced, weights.encoder, weights.head)
        tracemalloc.start()
        try:
            r2l_forward(m_l, enhanced, weights.encoder, weights.head)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fused_bytes


def _find_peaks_brute(channel, thresh):
    """Row-major scan applying the tie rule one neighbor at a time."""
    h, w = channel.shape
    peaks = []
    for y in range(h):
        for x in range(w):
            v = channel[y, x]
            if v < thresh:
                continue
            ok = True
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if not (0 <= ny < h and 0 <= nx < w):
                        continue
                    before = (dy < 0) or (dy == 0 and dx < 0)
                    if before and not v > channel[ny, nx]:
                        ok = False
                    if not before and not v >= channel[ny, nx]:
                        ok = False
            if ok:
                peaks.append((y, x))
    return peaks


class TestFindPeaks:
    def test_matches_brute_force_on_random_maps(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            channel = rng.uniform(0, 1, size=(rng.integers(2, 12),
                                              rng.integers(2, 12)))
            # sprinkle ties
            if channel.size >= 4:
                channel.flat[1] = channel.flat[0]
            assert find_peaks(channel[None], 0.3).tolist() == \
                [[0, y, x] for y, x in _find_peaks_brute(channel, 0.3)]

    def test_equal_adjacent_peaks_resolved_row_major(self):
        channel = np.zeros((5, 5))
        channel[2, 2] = channel[2, 3] = 0.9
        assert find_peaks(channel[None], 0.5).tolist() == [[0, 2, 2]]

    def test_plateau_keeps_first_cell_only(self):
        channel = np.full((3, 3), 0.8)
        assert find_peaks(channel[None], 0.5).tolist() == [[0, 0, 0]]

    def test_channels_in_class_major_order(self):
        rng = np.random.default_rng(12)
        heatmap = rng.uniform(0, 1, size=(3, 7, 9))
        want = [[c, y, x] for c in range(3)
                for y, x in _find_peaks_brute(heatmap[c], 0.3)]
        assert find_peaks(heatmap, 0.3).tolist() == want
        assert find_peaks(heatmap, 1.0).shape == (0, 3)


def _decode_full_sort(h, grid, score_thresh, max_detections):
    """Reference decoder: a box for every peak, one full sort, then cut."""
    rows = []
    for cls, iy, ix in find_peaks(h.heatmap, score_thresh).tolist():
        score = float(h.heatmap[cls, iy, ix])
        cx, cy = grid.cell_center_xy(ix, iy)
        rows.append(DetectionBox(
            x=cx + float(h.offset[0, iy, ix]),
            y=cy + float(h.offset[1, iy, ix]),
            z=float(h.z[0, iy, ix]),
            length=float(np.exp(h.size[0, iy, ix])),
            width=float(np.exp(h.size[1, iy, ix])),
            height=float(np.exp(h.size[2, iy, ix])),
            yaw=wrap_angle(math.atan2(float(h.rot[0, iy, ix]),
                                      float(h.rot[1, iy, ix]))),
            vx=float(h.vel[0, iy, ix]),
            vy=float(h.vel[1, iy, ix]),
            class_id=cls,
            score=score))
    rows.sort(key=lambda b: (-b.score, b.class_id, b.y, b.x))
    return rows[:max_detections]


class TestDecode:
    def test_uniform_below_threshold_no_detections(self):
        out = outputs_from_targets(render_targets([], GRID, 2))
        assert decode_detections(out, GRID, 0.5, 10) == []

    def test_hand_built_peak_with_offset(self):
        h, w = GRID.ny, GRID.nx
        logits = np.full((1, h, w), -8.0)
        logits[0, 7, 5] = 8.0
        maps = dict(offset=np.zeros((2, h, w)), z=np.zeros((1, h, w)),
                    size=np.zeros((3, h, w)), rot=np.zeros((2, h, w)),
                    vel=np.zeros((2, h, w)))
        maps["offset"][:, 7, 5] = (0.3, -0.2)
        maps["rot"][1, :, :] = 1.0   # cos=1 -> yaw 0
        out = HeadOutputs(heatmap=sigmoid(logits), heatmap_logits=logits, **maps)
        dets = decode_detections(out, GRID, 0.5, 10)
        assert len(dets) == 1
        cx, cy = GRID.cell_center_xy(5, 7)
        assert dets[0].x == cx + 0.3 and dets[0].y == cy - 0.2
        assert dets[0].length == 1.0   # exp(0)
        assert dets[0].yaw == 0.0

    def test_sorted_by_score_and_truncated(self):
        h, w = GRID.ny, GRID.nx
        logits = np.full((1, h, w), -8.0)
        logits[0, 3, 3] = 2.0
        logits[0, 10, 10] = 4.0
        logits[0, 20, 20] = 3.0
        maps = dict(offset=np.zeros((2, h, w)), z=np.zeros((1, h, w)),
                    size=np.zeros((3, h, w)), rot=np.zeros((2, h, w)),
                    vel=np.zeros((2, h, w)))
        out = HeadOutputs(heatmap=sigmoid(logits), heatmap_logits=logits, **maps)
        dets = decode_detections(out, GRID, 0.5, 2)
        assert len(dets) == 2
        assert dets[0].score > dets[1].score

    def test_threshold_validation(self):
        out = outputs_from_targets(render_targets([], GRID, 1))
        with pytest.raises(ValueError):
            decode_detections(out, GRID, 0.0, 10)

    def test_matches_full_sort_reference_on_ties(self):
        # Quantized scores make tied plateaus and equal scores across peaks;
        # offsets of whole cells make equal y (and x) across cells.
        rng = np.random.default_rng(21)
        h, w = GRID.ny, GRID.nx
        for _ in range(20):
            heat = rng.choice([0.2, 0.6, 0.7, 0.9], size=(3, h, w))
            maps = dict(offset=rng.choice([-0.5, 0.0, 0.5], size=(2, h, w)),
                        z=rng.normal(size=(1, h, w)), size=rng.normal(size=(3, h, w)),
                        rot=rng.normal(size=(2, h, w)), vel=rng.normal(size=(2, h, w)))
            out = HeadOutputs(heatmap=heat, heatmap_logits=np.log(heat / (1 - heat)),
                              **maps)
            for limit in (1, 7, 64, 10**6):
                want = _decode_full_sort(out, GRID, 0.5, limit)
                got = decode_detections(out, GRID, 0.5, limit)
                assert repr(got) == repr(want)
            assert len(_decode_full_sort(out, GRID, 0.5, 10**6)) > 64


class TestRenderDecodeRoundTrip:
    def test_single_box_recovered_exactly(self):
        box = _box()
        targets = render_targets([box], GRID, 3)
        dets = decode_detections(outputs_from_targets(targets), GRID, 0.5, 10)
        assert len(dets) == 1
        d = dets[0]
        assert abs(d.x - box.cx) < 1e-12 and abs(d.y - box.cy) < 1e-12
        assert abs(d.length - box.length) < 1e-9
        assert abs(d.width - box.width) < 1e-9
        assert abs(d.height - box.height) < 1e-9
        assert abs(d.yaw - box.yaw) < 1e-9
        assert abs(d.z - box.cz) < 1e-12
        assert d.vx == box.vx and d.vy == box.vy
        assert d.class_id == 0

    def test_many_random_scenes(self):
        from lrbev.synth import SceneSpec, generate_scene
        spec = SceneSpec(extent=16.0, num_objects=6)
        grid = GridSpec(origin=(-16.0, -16.0, -5.0), cell=(0.25, 0.25, 8.0),
                        counts=(128, 128, 1))
        for seed in range(30):
            scene = generate_scene(spec, seed)
            targets = render_targets(scene.objects, grid, 3)
            dets = decode_detections(outputs_from_targets(targets), grid, 0.5, 64)
            for box in scene.objects:
                near = [d for d in dets if d.class_id == box.class_id
                        and abs(d.x - box.cx) <= 0.125 and abs(d.y - box.cy) <= 0.125]
                assert near, f"seed {seed}: box not recovered"
                d = near[0]
                assert abs(d.length - box.length) < 1e-9
                assert abs(d.yaw - box.yaw) < 1e-9

    def test_gaussian_exact_one_at_center(self):
        targets = render_targets([_box()], GRID, 3)
        assert targets.heatmap.max() == 1.0
        assert len(targets.centers) == 1


class TestComputeLoss:
    def test_perfect_predictions_zero_regression(self):
        targets = render_targets([_box(), _box(cx=4.0, cy=4.0, cls=1)], GRID, 3)
        out = outputs_from_targets(targets)
        breakdown, _ = compute_loss(out, targets)
        assert breakdown.offset_loss == 0.0
        assert breakdown.z_loss == 0.0
        assert breakdown.size_loss == 0.0
        assert breakdown.rot_loss == 0.0
        assert breakdown.vel_loss == 0.0

    def test_empty_scene_regression_zero_heatmap_positive(self):
        targets = render_targets([], GRID, 2)
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(2, GRID.ny, GRID.nx))
        out = HeadOutputs(heatmap=sigmoid(logits), heatmap_logits=logits,
                          offset=rng.normal(size=(2, GRID.ny, GRID.nx)),
                          z=rng.normal(size=(1, GRID.ny, GRID.nx)),
                          size=rng.normal(size=(3, GRID.ny, GRID.nx)),
                          rot=rng.normal(size=(2, GRID.ny, GRID.nx)),
                          vel=rng.normal(size=(2, GRID.ny, GRID.nx)))
        breakdown, _ = compute_loss(out, targets)
        assert breakdown.offset_loss == 0.0 and breakdown.vel_loss == 0.0
        assert breakdown.heatmap_loss > 0.0

    def test_regressions_match_per_center_loop(self):
        """Every L1 term and its gradient against a loop over the centers,
        two of which share a cell."""
        targets = render_targets([_box(), _box(cls=1), _box(cx=4.0, cy=4.0)], GRID, 3)
        rng = np.random.default_rng(13)
        maps = {n: rng.normal(size=getattr(targets, n).shape)
                for n in ("heatmap", "offset", "z", "size", "rot", "vel")}
        logits = maps.pop("heatmap")
        out = HeadOutputs(heatmap=sigmoid(logits), heatmap_logits=logits, **maps)
        breakdown, grads = compute_loss(out, targets)
        for name, pred in maps.items():
            tgt, n = getattr(targets, name), len(targets.centers) * pred.shape[0]
            total, grad = 0.0, np.zeros_like(pred)
            for _, iy, ix in targets.centers:
                diff = pred[:, iy, ix] - tgt[:, iy, ix]
                total += float(np.abs(diff).sum())
                grad[:, iy, ix] += np.sign(diff) / n
            assert getattr(breakdown, f"{name}_loss") == pytest.approx(total / n, rel=1e-15)
            assert np.array_equal(grads[name], grad), name

    def test_total_is_weighted_sum(self):
        outputs, targets = loss_gradcheck_instance([30, 0])
        weights = LossWeights(heatmap=2.0, offset=0.5, z=1.5, size=1.0,
                              rot=3.0, vel=0.25)
        b, _ = compute_loss(outputs, targets, weights)
        total = (2.0 * b.heatmap_loss + 0.5 * b.offset_loss + 1.5 * b.z_loss
                 + 1.0 * b.size_loss + 3.0 * b.rot_loss + 0.25 * b.vel_loss)
        assert b.total == total

    def test_gradcheck_random_instance(self):
        outputs, targets = loss_gradcheck_instance([31, 1])
        theta = pack_head_maps(outputs)
        order = ("heatmap", "offset", "z", "size", "rot", "vel")

        def f(v):
            b, _ = compute_loss(unpack_head_maps(v, outputs), targets)
            return b.total

        def grad(v):
            _, g = compute_loss(unpack_head_maps(v, outputs), targets)
            return np.concatenate([g[n].ravel() for n in order])

        rep = finite_diff_check(f, grad, theta, epsilon=1e-3, tol=1e-3)
        assert rep.passed, rep.max_rel_diff

    def test_monotone_in_non_target_logit(self):
        outputs, targets = loss_gradcheck_instance([32, 2])
        base, _ = compute_loss(outputs, targets)
        centers = set(targets.centers)
        c, iy, ix = 0, 1, 1
        assert (c, iy, ix) not in centers
        logits = outputs.heatmap_logits.copy()
        logits[c, iy, ix] += 0.5
        bumped = HeadOutputs(heatmap=sigmoid(logits), heatmap_logits=logits,
                             offset=outputs.offset, z=outputs.z,
                             size=outputs.size, rot=outputs.rot, vel=outputs.vel)
        after, _ = compute_loss(bumped, targets)
        assert after.heatmap_loss > base.heatmap_loss

    def test_shape_mismatch(self):
        targets = render_targets([], GRID, 2)
        out = outputs_from_targets(render_targets([], GRID, 3))
        with pytest.raises(ShapeError):
            compute_loss(out, targets)
