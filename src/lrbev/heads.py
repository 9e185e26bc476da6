"""Radar-to-LiDAR fusion, BEV detection heads, box decoding and the joint loss.

The enhanced radar map is replicated onto the LiDAR BEV resolution
(nearest-neighbor, exact for integer grid ratios), concatenated channel-wise
after the LiDAR map, and pushed through a three-block convolutional encoder
to 512 channels. A small convolutional trunk then feeds parallel 1x1 heads:
a per-class center heatmap (sigmoid) plus offset, z, size, rotation and
velocity regressions. Decoding finds 3x3 local maxima; the loss combines a
penalty-reduced focal term on the heatmap with L1 regression at ground-truth
centers and reports analytic gradients for the finite-difference checker.

``r2l_forward`` runs that chain in row tiles, cut from the map shape
alone, on a small pool of worker threads, and within a tile in row bands,
so the fused map and the 512-channel map only ever exist one band at a
time; its output bits do not depend on the number of workers. It is the
only R2L path: a head it cannot band raises ``ShapeError``.
``fuse_bev_maps``, ``bev_encoder`` and ``detect_forward`` are the whole-map
chain it is checked against; both run the tap-sum and im2col kernels of
``nn``.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import EvaluationError, ShapeError
from .grids import GridSpec
from .nn import (BLAS_PINNED, Conv2dParams, FeatureMap, _conv2d_raw,
                 _im2col_band, _im2col_rows, _spans, _sum_taps, _tap_rows,
                 band_rows, conv2d_forward, relu, sigmoid)
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


def _check_encoder(blocks: list, shape: tuple) -> None:
    """The ShapeErrors of the encoder on an input of this shape."""
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
        if (oh, ow) != shape[1:]:
            raise ShapeError(f"encoder block {k}: spatial dims changed "
                             f"{shape} -> {(cout, oh, ow)}")
        shape = (cout, oh, ow)


def bev_encoder(fused: FeatureMap, blocks) -> FeatureMap:
    """Three conv+rectifier blocks adjusting the fused map to 512 channels,
    spatial dimensions preserved."""
    blocks = list(blocks)
    _check_encoder(blocks, fused.shape)
    out = fused
    for conv in blocks:
        out = FeatureMap._wrap(relu(conv2d_forward(out, conv).data))
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


def detect_forward(features: FeatureMap, params: HeadParams) -> HeadOutputs:
    """Run the trunk and every head; sigmoid on the heatmap only."""
    out = features
    for conv in params.trunk:
        out = FeatureMap._wrap(relu(conv2d_forward(out, conv).data))
    logits = conv2d_forward(out, params.heatmap).data
    maps = {}
    for name in _REGRESSIONS:
        maps[name] = conv2d_forward(out, getattr(params, name)).data
    return HeadOutputs(heatmap=sigmoid(logits), heatmap_logits=logits, **maps)


# The tiles in flight at once hold at most this many floats of scratch
# together, ~12 MB of float64, whatever the number of CPUs. Two tiles may
# always run at once, even when one needs more than half of it.
_SCRATCH_FLOATS = 3 << 19

# Tiles are at least this many rows high. Maps of fewer than twice as many
# rows are one tile and never use the pool.
TILE_ROWS = 16


def tiles(height: int, min_rows: int = TILE_ROWS) -> list:
    """Row tiles ``(y0, y1)`` of a map this many rows high: as many as fit
    ``min_rows`` rows each, sized evenly."""
    n = max(1, height // min_rows)
    return [(height * k // n, height * (k + 1) // n) for k in range(n)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity API on this platform
        return os.cpu_count() or 1


# Worker threads for the tiles: one per usable CPU, or one when BLAS could
# not be pinned to a thread per call (its own threads would then compete
# with the workers for the cores).
WORKERS = _usable_cpus() if BLAS_PINNED else 1
_POOLS: dict = {}


def _each_tile(fn, cut: list, workers: int) -> None:
    """``fn(y0, y1)`` for every tile of ``cut``, on a pool of ``workers``
    threads under the caller's floating-point error handling, or inline
    when there is one tile or one worker; returns when all are done,
    raising the first failing tile's error."""
    if workers < 2 or len(cut) < 2:
        for y0, y1 in cut:
            fn(y0, y1)
        return
    # Keyed by process too: a child forked after the pool started has none
    # of its threads.
    key = (os.getpid(), workers)
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS.setdefault(key, ThreadPoolExecutor(
            workers, thread_name_prefix="lrbev-r2l"))
    err = np.geterr()   # thread-local: the workers would start at the defaults

    def task(y0: int, y1: int) -> None:
        with np.errstate(**err):
            fn(y0, y1)

    futures = [pool.submit(task, y0, y1) for y0, y1 in cut]
    wait(futures)
    for f in futures:
        f.result()


def _finite(a: np.ndarray) -> np.ndarray:
    """The check ``FeatureMap`` makes on every conv output."""
    if not np.isfinite(a).all():
        raise EvaluationError("feature map contains non-finite values")
    return a


def _tap_floats(conv: Conv2dParams, rows: int, width: int) -> int:
    """Scratch of ``_Seams.tile`` on this many rows: the taps and their sum."""
    cout, _, kh, kw = conv.kernel.shape
    return cout * (kh * kw + 1) * rows * width


class _Seams:
    """A stride-1, size-keeping conv and its rectifier, run tile by tile on
    summed taps into ``out`` inside its zero border of ``border`` cells. The
    ``padding`` output rows either side of a seam need taps from both of
    its tiles; the second tile to hand its taps in sums those rows."""

    def __init__(self, conv: Conv2dParams, out: np.ndarray, border: int):
        self.conv, self.out, self.border = conv, out, border
        self.height, self.width = out.shape[1] - 2 * border, out.shape[2] - 2 * border
        self._waiting: dict = {}
        self._lock = threading.Lock()

    def tile(self, y0: int, y1: int, chunks) -> None:
        """A tile's input rows ``y0`` to ``y1`` as consecutive (C, n, W)
        chunks: stores the output rows it alone feeds, hands in the rest."""
        taps = _tap_rows(self.conv, chunks, y1 - y0, self.width)
        p, h = self.conv.padding, self.height
        if p and y0 > 0:
            self._hand_in(y0, taps[:, :, :, :2 * p].copy(), below=True)
        if p and y1 < h:
            self._hand_in(y1, taps[:, :, :, -2 * p:].copy(), below=False)
        ya, yb = (y0 + p if y0 > 0 else 0), (y1 - p if y1 < h else h)
        self._store(ya, yb, _sum_taps(self.conv, taps, y0, ya, yb, h))

    def _hand_in(self, seam: int, taps: np.ndarray, below: bool) -> None:
        with self._lock:
            other = self._waiting.pop(seam, None)
            if other is None:
                self._waiting[seam] = taps
                return
        both = np.concatenate([other, taps] if below else [taps, other], axis=3)
        p = self.conv.padding
        self._store(seam - p, seam + p, _sum_taps(self.conv, both, seam - 2 * p,
                                                  seam - p, seam + p, self.height))

    def _store(self, ya: int, yb: int, pre: np.ndarray) -> None:
        b = self.border
        np.maximum(_finite(pre), 0.0, out=self.out[:, b + ya:b + yb, b:b + self.width])


def _im2col_floats(conv: Conv2dParams, width: int) -> int:
    """Scratch of ``_im2col_rows`` at this output width."""
    cout, cin, kh, kw = conv.kernel.shape
    return (cin * kh * kw + cout) * _im2col_band(conv, width) * width


def r2l_forward(m_l: FeatureMap, enhanced: FeatureMap, encoder,
                head: HeadParams, *, workers: int | None = None) -> HeadOutputs:
    """``detect_forward(bev_encoder(fuse_bev_maps(m_l, enhanced), encoder),
    head)`` evaluated in row tiles and bands, so neither the fused map nor
    the 512-channel map is ever built whole.

    The map is cut into row tiles (``tiles``) and the chain runs in three
    phases, each over every tile before the next starts. The first block
    reads the fused map band by band, cut from ``m_l`` and the replicated
    radar rows; the second reads the first one's 8-channel output; the last
    block and its rectifier then run band by band and feed the first trunk
    conv, so the 512-channel map exists one band at a time. A tile
    allocates each band buffer once and reuses it for all its bands. The
    first block and the trunk conv sum their taps (``nn._tap_rows``,
    ``nn._sum_taps``) and hand the taps next to each seam to the tile across
    it, so no row goes through a GEMM twice; the other two blocks run the
    im2col bands of ``nn._im2col_rows``. The rest of the head runs on the
    narrow trunk output. Tiles run on a pool of ``WORKERS`` threads
    (``workers`` overrides it, for tests), at most as many at once as fit
    their scratch in ``_SCRATCH_FLOATS``; a one-tile map runs inline.
    Every conv output is checked for non-finite values before its
    rectifier, as in the whole-map chain. A head whose first trunk conv
    does not read the 512-channel map at stride 1 and keep its size cannot
    take the bands and raises ``ShapeError``.

    Bits: tiles and bands depend on the shapes alone, and every tile does
    the same arithmetic on whichever thread runs it, so the output does not
    depend on the worker count. The whole-map chain runs the same kernels.
    BLAS computes a GEMM column alike wherever it sits, except in the last,
    partial block of the GEMM's columns (8 wide on OpenBLAS Haswell
    kernels). The band GEMMs have ``rows x W`` columns, so when W is a
    multiple of that block and the whole map picks the same strategies
    (tap sums for the first block and the trunk conv, im2col for the other
    two), as at desk and tiny scale, the result matches the whole-map chain
    bit for bit; ``heads.tiled-oracle`` bounds any difference at 1e-12 of
    the largest output.
    """
    encoder = list(encoder)
    fh, fw = _replication(m_l, enhanced)
    h, w = m_l.height, m_l.width
    _check_encoder(encoder, (m_l.channels + enhanced.channels, h, w))
    trunk0 = head.trunk[0] if head.trunk else None
    if (trunk0 is None or trunk0.stride != 1 or trunk0.out_hw(h, w) != (h, w)
            or trunk0.kernel.shape[1] != ENCODER_CHANNELS):
        raise ShapeError(f"head trunk: the first conv must read the "
                         f"{ENCODER_CHANNELS}-channel map at stride 1 and "
                         f"keep its size")
    enc0, enc1, enc2 = encoder
    lidar, radar = m_l.data, enhanced.data
    cl, cin = m_l.channels, m_l.channels + enhanced.channels
    p1, p2 = enc1.padding, enc2.padding
    band0 = band_rows(cin, w)
    # Rectified outputs of the first two blocks, carrying the zero padding
    # the next block reads, and of the first trunk conv.
    a0 = np.zeros((enc0.kernel.shape[0], h + 2 * p1, w + 2 * p1))
    a1 = np.zeros((enc1.kernel.shape[0], h + 2 * p2, w + 2 * p2))
    feat = np.empty((trunk0.kernel.shape[0], h, w))

    def fused(y0: int, y1: int):
        """Rows y0 to y1 of the fused map, in bands written into one buffer."""
        win = np.empty(cin * min(band0, y1 - y0) * w)
        for ya, yb in _spans(y0, y1, band0):
            n = yb - ya
            band = win[:cin * n * w].reshape(cin, n, w)
            band[:cl] = lidar[:, ya:yb]
            dst = band[cl:].reshape(radar.shape[0], n, radar.shape[2], fw)
            for r in range(ya // fh, (yb - 1) // fh + 1):
                ra, rb = max(ya, r * fh) - ya, min(yb, (r + 1) * fh) - ya
                dst[:, ra:rb] = radar[:, r, None, :, None]
            yield band

    seams0, seams_t = _Seams(enc0, a0, p1), _Seams(trunk0, feat, 0)

    def block0(y0: int, y1: int) -> None:
        seams0.tile(y0, y1, fused(y0, y1))

    def block1(y0: int, y1: int) -> None:
        for ya, yb, pre in _im2col_rows(enc1, a0, y0, y1):
            np.maximum(_finite(pre), 0.0, out=a1[:, p2 + ya:p2 + yb, p2:p2 + w])

    def block2_trunk0(y0: int, y1: int) -> None:
        seams_t.tile(y0, y1, (np.maximum(_finite(pre), 0.0, out=pre)
                              for _, _, pre in _im2col_rows(enc2, a1, y0, y1)))

    cut = tiles(h, max(TILE_ROWS, 2 * enc0.padding, 2 * trunk0.padding))
    rows = max(y1 - y0 for y0, y1 in cut)
    tile_floats = max(cin * band0 * w + _tap_floats(enc0, rows, w),
                      _im2col_floats(enc1, w),
                      _im2col_floats(enc2, w) + _tap_floats(trunk0, rows, w))
    workers = min(WORKERS if workers is None else workers,
                  max(2, _SCRATCH_FLOATS // tile_floats))
    for phase in (block0, block1, block2_trunk0):
        _each_tile(phase, cut, workers)
    # Free the block outputs, and let the head free the first trunk map.
    del a0, a1, seams0, seams_t

    for conv in head.trunk[1:]:
        feat = relu(_finite(_conv2d_raw(feat, conv)))
    logits = _finite(_conv2d_raw(feat, head.heatmap))
    maps = {name: _finite(_conv2d_raw(feat, getattr(head, name)))
            for name in _REGRESSIONS}
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

    @cached_property
    def _loss_terms(self) -> tuple:
        """What ``compute_loss`` reads of the targets, computed on its first
        call (the maps and centers must be complete by then): focal masks
        and norm, center indices, the (center, channel) regression targets
        and each regression head's first column and entry count."""
        pos = self.heatmap == 1.0
        neg_w = np.where(pos, 0.0, (1.0 - self.heatmap) ** FOCAL_BETA)
        iy = np.array([c[1] for c in self.centers], dtype=np.intp)
        ix = np.array([c[2] for c in self.centers], dtype=np.intp)
        regs = [getattr(self, n) for n in _REGRESSIONS]
        channels = [r.shape[0] for r in regs]
        count = max(1, len(iy)) * np.array(channels)   # entries per head
        return (pos, neg_w, max(1.0, float(pos.sum())), iy, ix,
                np.concatenate(regs)[:, iy, ix].T, np.cumsum([0] + channels[:-1]),
                count, np.repeat(count, channels)[:, None])


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


FOCAL_ALPHA = 2.0
FOCAL_BETA = 4.0
_REGRESSIONS = ("offset", "z", "size", "rot", "vel")   # the regression heads


def _focal_loss(logits: np.ndarray, pos: np.ndarray, neg_w: np.ndarray,
                norm: float):
    """Penalty-reduced focal loss on sigmoid logits, normalized by the
    positive count ``norm``; ``pos`` marks the positive cells and ``neg_w``
    weighs the rest. Returns (loss, grad w.r.t. logits)."""
    e = np.exp(-np.abs(logits))
    log1pe = np.log1p(e)
    p = np.where(logits >= 0, 1.0, e) / (1.0 + e)   # sigmoid(logits)
    log_p = -(log1pe + np.maximum(-logits, 0.0))
    log_1p = -(log1pe + np.maximum(logits, 0.0))
    q = 1.0 - p
    pos_terms = np.where(pos, -(q ** FOCAL_ALPHA) * log_p, 0.0)
    neg_terms = neg_w * (-(p ** FOCAL_ALPHA) * log_1p)
    loss = float((pos_terms.sum() + neg_terms.sum()) / norm)
    grad_pos = 2.0 * p * q ** 2 * log_p - q ** 3
    grad_neg = -neg_w * (2.0 * p * p * q * log_1p - p ** 3)
    return loss, np.where(pos, grad_pos, grad_neg) / norm


def compute_loss(h: HeadOutputs, targets: TargetMaps,
                 weights: LossWeights | None = None):
    """Joint objective: focal heatmap term plus L1 regressions at centers.

    Returns (LossBreakdown, grads) where grads maps each head name to the
    gradient of the weighted total w.r.t. that head's raw map (logits for
    the heatmap).
    """
    if weights is None:
        weights = LossWeights()
    names = ("heatmap",) + _REGRESSIONS
    for name in names:
        got, want = getattr(h, name).shape, getattr(targets, name).shape
        if got != want:
            raise ShapeError(f"{name} {got} vs targets {want}")
    pos, neg_w, norm, iy, ix, tgt, starts, count, per_column = targets._loss_terms
    hm_loss, hm_grad = _focal_loss(h.heatmap_logits, pos, neg_w, norm)
    # Mean L1 over the (center, channel) entries of each regression head,
    # every head gathered at the centers at once; zero without centers.
    regs = np.concatenate([getattr(h, name) for name in _REGRESSIONS])
    diff = regs[:, iy, ix].T - tgt
    l1 = (np.add.reduceat(np.abs(diff), starts, axis=1).sum(axis=0) / count).tolist()
    grad = np.zeros_like(regs)
    np.add.at(grad, (slice(None), iy, ix), np.sign(diff).T / per_column)
    losses = dict(zip(names, [hm_loss] + l1))
    w = weights.to_dict()
    grads = {name: w[name] * g
             for name, g in zip(names, [hm_grad] + np.split(grad, starts[1:]))}
    return LossBreakdown(**{f"{name}_loss": v for name, v in losses.items()},
                         total=sum(w[name] * v for name, v in losses.items()),
                         weights=w), grads
