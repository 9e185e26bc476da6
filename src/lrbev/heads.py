"""Radar-to-LiDAR fusion, BEV detection heads, box decoding and the joint loss.

The enhanced radar map is replicated onto the LiDAR BEV resolution
(nearest-neighbor, exact for integer grid ratios), concatenated channel-wise
after the LiDAR map, and pushed through a three-block convolutional encoder
to 512 channels. A small convolutional trunk then feeds parallel 1x1 heads:
a per-class center heatmap (sigmoid) plus offset, z, size, rotation and
velocity regressions. Decoding finds 3x3 local maxima; the loss combines a
penalty-reduced focal term on the heatmap with L1 regression at ground-truth
centers and reports analytic gradients for the finite-difference checker.

``r2l_forward`` runs that chain in row bands, so the fused map and the
512-channel map only ever exist one band at a time; ``fuse_bev_maps``,
``bev_encoder`` and ``detect_forward`` are the whole-map chain it is
checked against, and build those maps when a caller asks for them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import EvaluationError, ShapeError
from .grids import GridSpec
from .nn import (Conv2dParams, FeatureMap, _conv2d_raw, conv2d_forward,
                 conv2d_padded, relu, sigmoid)
from .synth import wrap_angle

ENCODER_CHANNELS = 512


def upsample_nearest(m: FeatureMap, factor_h: int, factor_w: int) -> FeatureMap:
    """Replicate every cell factor_h x factor_w times."""
    if factor_h < 1 or factor_w < 1:
        raise ShapeError(f"upsample factors must be >= 1, got ({factor_h},{factor_w})")
    return FeatureMap._wrap(np.repeat(np.repeat(m.data, factor_h, axis=1), factor_w, axis=2))


def _replication(m_l: FeatureMap, enhanced: FeatureMap) -> tuple:
    """Nearest-neighbour factors taking the radar map to the LiDAR grid."""
    if m_l.height % enhanced.height or m_l.width % enhanced.width:
        raise ShapeError(
            f"radar map {enhanced.height}x{enhanced.width} does not divide "
            f"LiDAR map {m_l.height}x{m_l.width}")
    return m_l.height // enhanced.height, m_l.width // enhanced.width


def fuse_bev_maps(m_l: FeatureMap, enhanced: FeatureMap) -> FeatureMap:
    """Channel concat [LiDAR | enhanced radar], radar replicated up to the
    LiDAR resolution first when the grids differ."""
    if (m_l.height, m_l.width) != (enhanced.height, enhanced.width):
        enhanced = upsample_nearest(enhanced, *_replication(m_l, enhanced))
    return FeatureMap._wrap(np.concatenate([m_l.data, enhanced.data], axis=0))


def bev_encoder(fused: FeatureMap, blocks) -> FeatureMap:
    """Three conv+rectifier blocks adjusting the fused map to 512 channels,
    spatial dimensions preserved."""
    blocks = list(blocks)
    if len(blocks) != 3:
        raise ShapeError(f"encoder needs exactly 3 blocks, got {len(blocks)}")
    if blocks[-1].kernel.shape[0] != ENCODER_CHANNELS:
        raise ShapeError(f"encoder must end at {ENCODER_CHANNELS} channels, "
                         f"last block has {blocks[-1].kernel.shape[0]}")
    out = fused
    for k, conv in enumerate(blocks):
        if conv.stride != 1:
            raise ShapeError(f"encoder block {k}: stride must be 1")
        nxt = conv2d_forward(out, conv)
        if (nxt.height, nxt.width) != (out.height, out.width):
            raise ShapeError(f"encoder block {k}: spatial dims changed "
                             f"{out.shape} -> {nxt.shape}")
        out = FeatureMap._wrap(relu(nxt.data))
    return out


@dataclass
class HeadParams:
    """Shared conv trunk plus parallel 1x1 regression/classification heads."""

    trunk: list              # conv blocks applied with a rectifier
    heatmap: Conv2dParams    # num_classes out
    offset: Conv2dParams     # 2 out, meters relative to the cell center
    z: Conv2dParams          # 1 out, absolute meters
    size: Conv2dParams       # 3 out, log(l, w, h)
    rot: Conv2dParams        # 2 out, (sin yaw, cos yaw)
    vel: Conv2dParams        # 2 out, m/s

    @property
    def num_classes(self) -> int:
        return self.heatmap.kernel.shape[0]


@dataclass
class HeadOutputs:
    """Raw head maps; ``heatmap`` is post-sigmoid, logits kept for the loss."""

    heatmap: np.ndarray
    heatmap_logits: np.ndarray
    offset: np.ndarray
    z: np.ndarray
    size: np.ndarray
    rot: np.ndarray
    vel: np.ndarray

    @property
    def spatial(self) -> tuple:
        return self.heatmap.shape[1:]


def detect_forward(features: FeatureMap, params: HeadParams) -> HeadOutputs:
    """Run the trunk and every head; sigmoid on the heatmap only."""
    out = features
    for conv in params.trunk:
        out = FeatureMap._wrap(relu(conv2d_forward(out, conv).data))
    logits = conv2d_forward(out, params.heatmap).data
    maps = {}
    for name in ("offset", "z", "size", "rot", "vel"):
        maps[name] = conv2d_forward(out, getattr(params, name)).data
    return HeadOutputs(heatmap=sigmoid(logits), heatmap_logits=logits, **maps)


# A row band holds at most this many floats of its widest activation (the
# fused input, or the 512-channel map), ~4 MB of float64, so the band's
# GEMMs work out of cache. The partition depends on the map shape alone.
_BAND_FLOATS = 1 << 19


def band_rows(channels: int, width: int) -> int:
    """Rows per band of an activation with this many channels and columns."""
    return max(1, _BAND_FLOATS // max(1, channels * width))


def _bands(height: int, channels: int, width: int):
    rows = band_rows(channels, width)
    for y0 in range(0, height, rows):
        yield y0, min(height, y0 + rows)


def _finite(a: np.ndarray) -> np.ndarray:
    """The check ``FeatureMap`` makes on every conv output."""
    if not np.isfinite(a).all():
        raise EvaluationError("feature map contains non-finite values")
    return a


def _window(maps, y0: int, y1: int, pad: int) -> np.ndarray:
    """Rows ``y0 - pad`` to ``y1 + pad`` of the channel concat of ``maps``
    (C, H, W arrays, each replicated nearest-neighbour up to the size of the
    first), zero beyond the map edges and in ``pad`` columns either side."""
    h, w = maps[0].shape[1:]
    out = np.zeros((sum(m.shape[0] for m in maps), y1 - y0 + 2 * pad, w + 2 * pad))
    a, b = max(0, y0 - pad), min(h, y1 + pad)
    c = 0
    for m in maps:
        fh, fw = h // m.shape[1], w // m.shape[2]
        src = m[:, a:b] if fh == 1 else m[:, np.arange(a, b) // fh]
        if fw > 1:
            src = np.repeat(src, fw, axis=2)
        out[c:c + m.shape[0], a - y0 + pad:b - y0 + pad, pad:pad + w] = src
        c += m.shape[0]
    return out


def _conv_rows(conv: Conv2dParams, chunks, height: int, width: int):
    """A stride-1 conv that keeps the map size, applied to a map arriving as
    consecutive (C, rows, W) chunks; yields ``(y0, y1, output rows)`` as soon
    as their input rows are in, bias added.

    It is the tap-summing strategy of ``conv2d_padded``: one GEMM of every
    kernel tap against each chunk, then the shifted tap planes summed in
    (ky, kx) order. Each input row goes through the GEMM once; the taps of
    the last ``2 * padding`` rows are carried into the next chunk, and the
    taps the whole map would take from its zero padding (exact zeros) are
    skipped."""
    cout, cin, kh, kw = conv.kernel.shape
    p = conv.padding
    kmat = conv.kernel.transpose(0, 2, 3, 1).reshape(cout * kh * kw, cin)
    taps = np.empty((cout, kh, kw, 0, width))   # taps of input rows t0 onwards
    t0 = done = 0
    for rows in chunks:
        new = kmat @ rows.reshape(cin, -1)
        taps = np.concatenate([taps, new.reshape(cout, kh, kw, -1, width)], axis=3)
        top = t0 + taps.shape[3]
        end = height if top == height else top - p
        if end <= done:
            continue
        out = np.zeros((cout, end - done, width))
        for ky in range(kh):
            ya, yb = max(done, p - ky), min(end, height + p - ky)
            for kx in range(kw):
                xa, xb = max(0, p - kx), min(width, width + p - kx)
                out[:, ya - done:yb - done, xa:xb] += taps[
                    :, ky, kx, ya + ky - p - t0:yb + ky - p - t0,
                    xa + kx - p:xb + kx - p]
        out += conv.bias[:, None, None]
        yield done, end, out
        done = end
        keep = max(t0, done - p)
        taps, t0 = taps[:, :, :, keep - t0:], keep


def _check_encoder(blocks: list, shape: tuple) -> None:
    """The ShapeErrors ``bev_encoder`` raises, from the shapes alone."""
    if len(blocks) != 3:
        raise ShapeError(f"encoder needs exactly 3 blocks, got {len(blocks)}")
    if blocks[-1].kernel.shape[0] != ENCODER_CHANNELS:
        raise ShapeError(f"encoder must end at {ENCODER_CHANNELS} channels, "
                         f"last block has {blocks[-1].kernel.shape[0]}")
    for k, conv in enumerate(blocks):
        if conv.stride != 1:
            raise ShapeError(f"encoder block {k}: stride must be 1")
        cout, cin = conv.kernel.shape[:2]
        if cin != shape[0]:
            raise ShapeError(f"conv input has {shape[0]} channels, kernel expects {cin}")
        oh, ow = conv.out_hw(*shape[1:])
        if oh < 1 or ow < 1:
            raise ShapeError(f"degenerate conv output {oh}x{ow} for input "
                             f"{shape[1]}x{shape[2]}")
        if (oh, ow) != shape[1:]:
            raise ShapeError(f"encoder block {k}: spatial dims changed "
                             f"{shape} -> {(cout, oh, ow)}")
        shape = (cout, oh, ow)


def r2l_forward(m_l: FeatureMap, enhanced: FeatureMap, encoder,
                head: HeadParams) -> HeadOutputs:
    """``detect_forward(bev_encoder(fuse_bev_maps(m_l, enhanced), encoder),
    head)`` evaluated in row bands, so neither the fused map nor the
    512-channel map is ever built whole.

    The first block reads the fused map band by band, each band cut from
    ``m_l`` and the replicated radar rows; its 8-channel output and the
    second block's are kept whole. The last block and its rectifier then
    run band by band (the band reads a one-row halo of the second block's
    output) and feed the first trunk conv, which carries its halo taps from
    band to band. The rest of the head runs on the narrow trunk output.
    Every conv output is checked for non-finite values before its
    rectifier, as in the whole-map chain, and the bands depend on the shapes
    alone.

    Bits: BLAS computes a GEMM column alike wherever it sits, except in
    the last, partial block of the GEMM's columns (8 wide on OpenBLAS
    Haswell kernels). The band GEMMs have ``rows x W`` columns, so when W is
    a multiple of that block and the whole map's first block and trunk conv
    sum taps too, as at desk and tiny scale, the result matches the
    whole-map chain bit for bit; ``heads.tiled-oracle`` bounds any
    difference at 1e-12 of the largest output.
    """
    encoder = list(encoder)
    _replication(m_l, enhanced)
    h, w = m_l.height, m_l.width
    _check_encoder(encoder, (m_l.channels + enhanced.channels, h, w))
    trunk0 = head.trunk[0] if head.trunk else None
    if (trunk0 is None or trunk0.stride != 1 or trunk0.out_hw(h, w) != (h, w)
            or trunk0.kernel.shape[1] != ENCODER_CHANNELS):
        # The bands need a first trunk conv that keeps the map size.
        return detect_forward(bev_encoder(fuse_bev_maps(m_l, enhanced), encoder), head)
    enc0, enc1, enc2 = encoder

    fused = (_window((m_l.data, enhanced.data), y0, y1, 0)
             for y0, y1 in _bands(h, enc0.kernel.shape[1], w))
    a0 = np.empty((enc0.kernel.shape[0], h, w))
    for y0, y1, pre in _conv_rows(enc0, fused, h, w):
        a0[:, y0:y1] = _finite(pre)
    a1 = relu(_finite(_conv2d_raw(relu(a0), enc1)))

    def rectified():
        for y0, y1 in _bands(h, ENCODER_CHANNELS, w):
            pre = _finite(conv2d_padded(_window((a1,), y0, y1, enc2.padding), enc2))
            yield np.maximum(pre, 0.0, out=pre)

    out = np.empty((trunk0.kernel.shape[0], h, w))
    for y0, y1, pre in _conv_rows(trunk0, rectified(), h, w):
        out[:, y0:y1] = _finite(pre)

    feat = relu(out)
    for conv in head.trunk[1:]:
        feat = relu(_finite(_conv2d_raw(feat, conv)))
    logits = _finite(_conv2d_raw(feat, head.heatmap))
    maps = {name: _finite(_conv2d_raw(feat, getattr(head, name)))
            for name in ("offset", "z", "size", "rot", "vel")}
    return HeadOutputs(heatmap=sigmoid(logits), heatmap_logits=logits, **maps)


@dataclass(frozen=True)
class DetectionBox:
    x: float
    y: float
    z: float
    length: float
    width: float
    height: float
    yaw: float
    vx: float
    vy: float
    class_id: int
    score: float

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z,
                "length": self.length, "width": self.width, "height": self.height,
                "yaw": self.yaw, "vx": self.vx, "vy": self.vy,
                "class_id": self.class_id, "score": self.score}

    @classmethod
    def from_dict(cls, d: dict) -> "DetectionBox":
        return cls(**{k: (int(v) if k == "class_id" else float(v))
                      for k, v in d.items()})


def find_peaks(channel: np.ndarray, thresh: float) -> list:
    """3x3 local maxima at or above ``thresh``, as (iy, ix) in row-major order.

    A cell must strictly beat neighbors that precede it in row-major order
    and be >= the rest, so exactly one cell of a tied plateau survives.
    """
    h, w = channel.shape
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = channel
    ok = channel >= thresh
    for dy, dx in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):   # row-major predecessors
        ok &= channel > padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
    for dy, dx in ((0, 1), (1, -1), (1, 0), (1, 1)):
        ok &= channel >= padded[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
    ys, xs = np.nonzero(ok)
    return list(zip(ys.tolist(), xs.tolist()))


def decode_detections(h: HeadOutputs, grid: GridSpec, score_thresh: float,
                      max_detections: int) -> list:
    """Decode heatmap peaks into boxes, best score first.

    Peak cell center plus the offset map gives the BEV center; sizes come
    out of the log-scale size map, yaw from atan2(sin, cos). Peaks are
    ordered by (-score, class_id, y, x), ties keeping class-major, row-major
    peak order, and only the first ``max_detections`` become boxes.
    """
    if not (0.0 < score_thresh < 1.0):
        raise ValueError(f"score_thresh must be in (0,1), got {score_thresh}")
    peaks = [find_peaks(h.heatmap[c], score_thresh) for c in range(h.heatmap.shape[0])]
    cls = np.repeat(np.arange(len(peaks)), [len(p) for p in peaks])
    if not len(cls) or max_detections < 1:
        return []
    iy, ix = np.fromiter(chain.from_iterable(chain.from_iterable(peaks)),
                         dtype=np.int64, count=2 * len(cls)).reshape(-1, 2).T
    score = h.heatmap[cls, iy, ix]
    # Only peaks scoring at least the max_detections-th best can be kept.
    top = min(max_detections, len(score))
    cand = np.flatnonzero(score >= np.partition(score, -top)[-top])
    cls, iy, ix, score = cls[cand], iy[cand], ix[cand], score[cand]
    x = (grid.origin[0] + (ix + 0.5) * grid.cell[0]) + h.offset[0, iy, ix]
    y = (grid.origin[1] + (iy + 0.5) * grid.cell[1]) + h.offset[1, iy, ix]
    keep = np.lexsort((x, y, cls, -score))[:max_detections]
    rows = []
    for k in keep.tolist():
        c, i, j = int(cls[k]), int(iy[k]), int(ix[k])
        rows.append(DetectionBox(
            x=float(x[k]), y=float(y[k]),
            z=float(h.z[0, i, j]),
            length=float(np.exp(h.size[0, i, j])),
            width=float(np.exp(h.size[1, i, j])),
            height=float(np.exp(h.size[2, i, j])),
            yaw=wrap_angle(math.atan2(float(h.rot[0, i, j]), float(h.rot[1, i, j]))),
            vx=float(h.vel[0, i, j]),
            vy=float(h.vel[1, i, j]),
            class_id=c,
            score=float(score[k])))
    return rows


@dataclass
class TargetMaps:
    """Rendered ground truth: gaussian heatmaps plus per-center regressions."""

    heatmap: np.ndarray
    offset: np.ndarray
    z: np.ndarray
    size: np.ndarray
    rot: np.ndarray
    vel: np.ndarray
    centers: list = field(default_factory=list)   # (class_id, iy, ix)


def gaussian_radius_cells(box_length: float, box_width: float, cell: float) -> int:
    """Splat radius proportional to the BEV footprint, at least one cell."""
    return max(1, int(round(min(box_length, box_width) / (4.0 * cell))))


def render_targets(boxes, grid: GridSpec, num_classes: int) -> TargetMaps:
    """Render ground-truth boxes into head-shaped target maps."""
    h, w = grid.ny, grid.nx
    t = TargetMaps(heatmap=np.zeros((num_classes, h, w)),
                   offset=np.zeros((2, h, w)), z=np.zeros((1, h, w)),
                   size=np.zeros((3, h, w)), rot=np.zeros((2, h, w)),
                   vel=np.zeros((2, h, w)))
    for box in boxes:
        ix = int(math.floor((box.cx - grid.origin[0]) / grid.cell[0]))
        iy = int(math.floor((box.cy - grid.origin[1]) / grid.cell[1]))
        if not (0 <= ix < w and 0 <= iy < h):
            continue
        if box.class_id >= num_classes:
            raise ShapeError(f"class_id {box.class_id} >= num_classes {num_classes}")
        radius = gaussian_radius_cells(box.length, box.width, grid.cell[0])
        sigma = (2.0 * radius + 1.0) / 6.0
        y0, y1 = max(0, iy - radius), min(h, iy + radius + 1)
        x0, x1 = max(0, ix - radius), min(w, ix + radius + 1)
        ys, xs = np.mgrid[y0:y1, x0:x1]
        g = np.exp(-((ys - iy) ** 2 + (xs - ix) ** 2) / (2.0 * sigma * sigma))
        hm = t.heatmap[box.class_id]
        hm[y0:y1, x0:x1] = np.maximum(hm[y0:y1, x0:x1], g)
        hm[iy, ix] = 1.0
        ccx, ccy = grid.cell_center_xy(ix, iy)
        t.offset[:, iy, ix] = (box.cx - ccx, box.cy - ccy)
        t.z[0, iy, ix] = box.cz
        t.size[:, iy, ix] = np.log([box.length, box.width, box.height])
        t.rot[:, iy, ix] = (math.sin(box.yaw), math.cos(box.yaw))
        t.vel[:, iy, ix] = (box.vx, box.vy)
        t.centers.append((box.class_id, iy, ix))
    return t


def outputs_from_targets(t: TargetMaps, eps: float = 1e-7) -> HeadOutputs:
    """Turn target maps into head outputs (heatmap logit-inverted with the
    values clamped into (eps, 1-eps)); the decode round-trip oracle."""
    p = np.clip(t.heatmap, eps, 1.0 - eps)
    logits = np.log(p / (1.0 - p))
    return HeadOutputs(heatmap=sigmoid(logits), heatmap_logits=logits,
                       offset=t.offset.copy(), z=t.z.copy(), size=t.size.copy(),
                       rot=t.rot.copy(), vel=t.vel.copy())


@dataclass
class LossWeights:
    heatmap: float = 1.0
    offset: float = 1.0
    z: float = 1.0
    size: float = 1.0
    rot: float = 1.0
    vel: float = 1.0

    def to_dict(self) -> dict:
        return {"heatmap": self.heatmap, "offset": self.offset, "z": self.z,
                "size": self.size, "rot": self.rot, "vel": self.vel}


@dataclass
class LossBreakdown:
    heatmap_loss: float
    offset_loss: float
    z_loss: float
    size_loss: float
    rot_loss: float
    vel_loss: float
    total: float
    weights: dict


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


FOCAL_ALPHA = 2.0
FOCAL_BETA = 4.0


def _focal_loss(logits: np.ndarray, target: np.ndarray):
    """Penalty-reduced focal loss on sigmoid logits, normalized by the
    positive count. Returns (loss, grad w.r.t. logits)."""
    p = sigmoid(logits)
    log_p = -_softplus(-logits)
    log_1p = -_softplus(logits)
    pos = target == 1.0
    neg_w = np.where(pos, 0.0, (1.0 - target) ** FOCAL_BETA)
    pos_terms = np.where(pos, -((1.0 - p) ** FOCAL_ALPHA) * log_p, 0.0)
    neg_terms = neg_w * (-(p ** FOCAL_ALPHA) * log_1p)
    norm = max(1.0, float(pos.sum()))
    loss = float((pos_terms.sum() + neg_terms.sum()) / norm)
    grad_pos = 2.0 * p * (1.0 - p) ** 2 * log_p - (1.0 - p) ** 3
    grad_neg = -neg_w * (2.0 * p * p * (1.0 - p) * log_1p - p ** 3)
    grad = np.where(pos, grad_pos, grad_neg) / norm
    return loss, grad


def _l1_at_centers(pred: np.ndarray, target: np.ndarray, centers):
    """Mean L1 over (center cell, channel) entries; zero without targets."""
    grad = np.zeros_like(pred)
    if not centers:
        return 0.0, grad
    n = len(centers) * pred.shape[0]
    total = 0.0
    for _, iy, ix in centers:
        diff = pred[:, iy, ix] - target[:, iy, ix]
        total += float(np.abs(diff).sum())
        grad[:, iy, ix] += np.sign(diff) / n
    return total / n, grad


def compute_loss(h: HeadOutputs, targets: TargetMaps,
                 weights: LossWeights | None = None):
    """Joint objective: focal heatmap term plus L1 regressions at centers.

    Returns (LossBreakdown, grads) where grads maps each head name to the
    gradient of the weighted total w.r.t. that head's raw map (logits for
    the heatmap).
    """
    if weights is None:
        weights = LossWeights()
    if h.heatmap.shape != targets.heatmap.shape:
        raise ShapeError(f"heatmap {h.heatmap.shape} vs targets "
                         f"{targets.heatmap.shape}")
    hm_loss, hm_grad = _focal_loss(h.heatmap_logits, targets.heatmap)
    terms = {"heatmap": (hm_loss, hm_grad)}
    for name in ("offset", "z", "size", "rot", "vel"):
        pred = getattr(h, name)
        tgt = getattr(targets, name)
        if pred.shape != tgt.shape:
            raise ShapeError(f"{name} {pred.shape} vs targets {tgt.shape}")
        terms[name] = _l1_at_centers(pred, tgt, targets.centers)
    w = weights.to_dict()
    total = 0.0
    for name in ("heatmap", "offset", "z", "size", "rot", "vel"):
        total += w[name] * terms[name][0]
    grads = {name: w[name] * terms[name][1] for name in terms}
    return LossBreakdown(
        heatmap_loss=terms["heatmap"][0], offset_loss=terms["offset"][0],
        z_loss=terms["z"][0], size_loss=terms["size"][0],
        rot_loss=terms["rot"][0], vel_loss=terms["vel"][0],
        total=total, weights=w), grads
