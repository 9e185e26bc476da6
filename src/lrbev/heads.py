"""Radar-to-LiDAR fusion, BEV detection heads, box decoding and the joint loss.

The enhanced radar map is replicated onto the LiDAR BEV resolution
(nearest-neighbor, exact for integer grid ratios), concatenated channel-wise
after the LiDAR map, and pushed through a three-block convolutional encoder
to 512 channels. A small convolutional trunk then feeds parallel 1x1 heads:
a per-class center heatmap (sigmoid) plus offset, z, size, rotation and
velocity regressions. Decoding finds 3x3 local maxima; the loss combines a
penalty-reduced focal term on the heatmap with L1 regression at ground-truth
centers and reports analytic gradients for the finite-difference checker.

``r2l_forward`` runs that chain without building its wide maps. It takes
the LiDAR and the enhanced radar maps as their occupied columns
(``grids.BevColumns``) and runs the first block on the occupied fused
columns only, one GEMM per chunk of them. The second and the last block
run in items of the whole map's row bands, and the last block's feed the
first trunk conv's per-tap GEMMs, so the 512-channel map exists one band
at a time. Chunks and items are maps on the worker threads of
``lrbev.parallel``, and the calling thread adds the chunks' and the last
block's items' taps in order; a map under two items high runs every step
inline. Its output bits do not depend on the number of workers. It is the
only R2L path: a head it cannot band raises ``ShapeError``.
``fuse_bev_maps``, ``bev_encoder`` and ``detect_forward`` are the whole-map
chain it is checked against; both run the tap-sum and im2col kernels of
``nn``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import parallel
from .errors import ShapeError
from .grids import BevColumns, GridSpec
from .nn import (BLAS_BLOCK, Conv2dParams, FeatureMap, _add_taps,
                 _conv2d_raw, _finite, _im2col_band, _im2col_rows, _tap_rows,
                 band_rows, conv2d_forward, relu, sigmoid)
from .synth import wrap_angle

ENCODER_CHANNELS = 512


def upsample_nearest(m: FeatureMap, factor_h: int, factor_w: int) -> FeatureMap:
    """Replicate every cell factor_h x factor_w times."""
    if factor_h < 1 or factor_w < 1:
        raise ShapeError(f"upsample factors must be >= 1, got ({factor_h},{factor_w})")
    return FeatureMap._wrap(np.repeat(np.repeat(m.data, factor_h, axis=1), factor_w, axis=2))


def _replication(m_l, enhanced) -> tuple:
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


# The items of an R2L map (gather chunks, groups of bands) in flight at once
# hold at most this many floats of scratch together, ~12 MB of float64,
# whatever the number of CPUs. Two items may always run at once, even when
# one needs more than half of it.
_SCRATCH_FLOATS = 3 << 19


def _fit(workers: int, floats: int) -> int:
    """``workers``, cut to as many items of ``floats`` floats of scratch
    each as fit ``_SCRATCH_FLOATS``, but at least two."""
    return min(workers, max(2, _SCRATCH_FLOATS // max(1, floats)))

# Items of whole bands are at least this many rows high. Maps of fewer than
# twice as many rows run inline.
TILE_ROWS = 16


def workers_for(height: int, workers: int | None = None) -> int:
    """The threads of R2L, and of a frame, on a map this many rows high:
    ``workers``, or ``parallel.WORKERS`` when None; one, never starting the
    pool, under two items high, where threads cost more than they save."""
    if height < 2 * TILE_ROWS:
        return 1
    return parallel.WORKERS if workers is None else workers


def _items(conv: Conv2dParams, height: int, width: int) -> list:
    """Row spans ``(y0, y1)`` of ``conv``'s whole-map ``nn._im2col_rows``
    bands, counted from row 0, at least ``TILE_ROWS`` rows each but the
    last."""
    band = _im2col_band(conv, width)
    step = band * -(-TILE_ROWS // band)
    return [(y0, min(height, y0 + step)) for y0 in range(0, height, step)]


def _im2col_floats(conv: Conv2dParams, width: int) -> int:
    """Scratch of ``_im2col_rows`` at this output width: a band's im2col
    block with its ones row, and its output."""
    cout, cin, kh, kw = conv.kernel.shape
    return (cin * kh * kw + 1 + cout) * _im2col_band(conv, width) * width


def _gather_plan(m_l: BevColumns, enhanced: BevColumns, fh: int, fw: int) -> tuple:
    """The occupied fused columns, from ``m_l`` and the radar columns
    ``enhanced`` replicated ``fh`` x ``fw`` times: their ascending row-major
    ids, the positions among them of the LiDAR columns and of the
    replicated radar columns, and each of the latter's row in
    ``enhanced.features``."""
    ry, rx = np.divmod(enhanced.ids, enhanced.width)
    dy, dx = np.divmod(np.arange(fh * fw), fw)
    rid = ((ry[:, None] * fh + dy) * m_l.width + rx[:, None] * fw + dx).ravel()
    order = np.argsort(rid)
    rid, rsrc = rid[order], order // (fh * fw)
    # The sorted union of the ids, spelled out: np.union1d imports numpy.ma
    # (~1.5 MB of resident memory) on first use. Both lists ascend, so the
    # stable sort (timsort) merges two runs.
    cols = np.sort(np.concatenate([m_l.ids, rid]), kind="stable")
    cols = cols[np.diff(cols, prepend=-1) != 0]     # ids are >= 0
    return cols, np.searchsorted(cols, m_l.ids), np.searchsorted(cols, rid), rsrc


def _sparse_block(conv: Conv2dParams, m_l: BevColumns, enhanced: BevColumns,
                  fh: int, fw: int, border: int, counts: dict | None,
                  workers: int) -> np.ndarray:
    """The rectified size-keeping, stride-1 ``conv`` of the fused map of
    ``m_l`` and ``enhanced`` replicated ``fh`` x ``fw`` times, inside a zero
    border of ``border`` >= ``conv.padding`` cells: one GEMM per chunk of
    the occupied columns in ascending id order, on up to ``workers``
    threads, and the calling thread adds each tap's results onto the cells
    it feeds, chunk by chunk in ascending order. Taps falling off the map
    land on the border, zeroed again afterwards."""
    h, w = m_l.height, m_l.width
    cout, cin, kh, kw = conv.kernel.shape
    cl, p, wide = m_l.channels, conv.padding, w + 2 * border
    cols, lpos, rpos, rsrc = _gather_plan(m_l, enhanced, fh, fw)
    if counts is not None:
        counts["gathered_columns"] = len(cols)
    out = np.zeros((cout, h + 2 * border, wide))
    flat = out.reshape(-1)
    # Flat index into `out` of each column's cell in each channel, and of
    # each tap's output cell relative to it.
    iy, ix = np.divmod(cols, w)
    home = np.arange(cout)[:, None] * out[0].size + (iy + border) * wide + ix + border
    shifts = [(p - ky) * wide + p - kx for ky in range(kh) for kx in range(kw)]
    kmat = conv.kernel.transpose(0, 2, 3, 1).reshape(-1, cin)
    span = BLAS_BLOCK * band_rows(cin, BLAS_BLOCK)
    edges = list(range(0, len(cols), span)) + [len(cols)]
    lcut = np.searchsorted(lpos, edges).tolist()
    rcut = np.searchsorted(rpos, edges).tolist()

    def gemm(j: int) -> np.ndarray:
        """The (cout, kh * kw, padded) tap results of chunk ``j``."""
        c0, c1 = edges[j], edges[j + 1]
        b = np.zeros((cin, c1 - c0 + -(c1 - c0) % BLAS_BLOCK))
        la, lb, ra, rb = lcut[j], lcut[j + 1], rcut[j], rcut[j + 1]
        b[:cl, lpos[la:lb] - c0] = m_l.features[la:lb].T
        b[cl:, rpos[ra:rb] - c0] = enhanced.features[rsrc[ra:rb]].T
        return np.matmul(kmat, b).reshape(cout, kh * kw, -1)

    def add(j: int, o: np.ndarray) -> None:
        c0, c1 = edges[j], edges[j + 1]
        for t, shift in enumerate(shifts):
            flat[home[:, c0:c1] + shift] += o[:, t, :c1 - c0]

    widest = min(span, len(cols))
    widest += -widest % BLAS_BLOCK
    # Per worker: a running chunk's block and taps, the taps of a second
    # chunk waiting to be taken, and a share of the taps the calling thread
    # is adding (see parallel.each).
    workers = _fit(workers, (cin + 3 * len(kmat)) * widest)
    parallel.each(gemm, range(len(edges) - 1), workers, add)
    out[:, :border] = out[:, h + border:] = 0.0
    out[:, :, :border] = out[:, :, w + border:] = 0.0
    inner = out[:, border:border + h, border:border + w]
    inner += conv.bias[:, None, None]
    np.maximum(_finite(inner), 0.0, out=inner)
    return out


def r2l_forward(m_l: BevColumns, enhanced: BevColumns, encoder,
                head: HeadParams, *, workers: int | None = None,
                counts: dict | None = None) -> HeadOutputs:
    """``detect_forward(bev_encoder(fuse_bev_maps(m_l.dense(),
    enhanced.dense()), encoder), head)`` evaluated without building the
    LiDAR, radar, fused or 512-channel map whole.

    The first block runs on the occupied fused columns alone
    (``_sparse_block``). The second and the last block run in items of the
    whole map's ``nn._im2col_rows`` bands (``_items``). An item of the last
    block rectifies its bands one at a time and runs the first trunk conv's
    per-tap GEMMs on each (``nn._tap_rows``), so the 512-channel map exists
    one band at a time, and returns the taps. The calling thread adds them
    in item order onto the trunk output inside a border of its padding
    (``nn._add_taps``), then adds the bias and rectifies. The rest of the
    head runs on the narrow trunk output. The first block's chunk GEMMs and
    both blocks' items are ``parallel.each`` maps on
    ``parallel.WORKERS`` threads (``workers`` overrides it), each at most
    as many items at once as fit their scratch in ``_SCRATCH_FLOATS``; a
    map under two items high (``workers_for``) runs every step inline and
    never starts the pool. Every conv output is checked for non-finite values
    before its rectifier, as in the whole-map chain. A first trunk conv
    that does not read the 512-channel map at stride 1 and keep its size
    raises ``ShapeError``. ``counts``, when given, receives
    ``gathered_columns``: how many fused columns the first block ran its
    GEMM on.

    Bits: items, bands and gather chunks depend on the shapes and on which
    columns are occupied alone, and every item does the same arithmetic on
    whichever thread runs it, so the output does not depend on the worker
    count. The whole-map chain runs the same kernels. BLAS computes a GEMM
    column alike wherever it sits, except in the last, partial block of the
    GEMM's columns (8 wide under the OpenBLAS SkylakeX kernel, where it was
    measured), so gathered chunks are padded with zero columns to a
    multiple of ``BLAS_BLOCK``;
    without it, taps of a chunk's last 1 to 4 columns differ from the whole
    map's in the last bits (OpenBLAS 0.3.31, AVX-512 Xeon). For any output
    cell, the input column behind tap (ky, kx) has a row-major id that
    strictly increases with (ky, kx), so adding ascending chunks tap by tap
    sums each cell in the whole map's (ky, kx) order, from the same +0; a
    skipped column's taps would be zeros of either sign, which change no
    sum. The same holds for the trunk conv's items, whose input rows rise
    with ky. The second and last blocks run the twin's bands, whose GEMMs
    add the bias themselves (``nn._im2col_rows``), so they match at every
    width. That bias add gives the bits of adding it after the GEMM at the
    shipped layer shapes and map widths, under each OpenBLAS kernel
    ``tests/test_blas_kernels.py`` names, but not at every shape: a sweep
    found last-bit differences for inputs of 400 or more im2col rows,
    single-channel outputs, and bands whose column count is not a multiple
    of 8. But the trunk conv's GEMMs on the bands have
    ``rows x W`` columns where the whole map's has ``H x W``, and BLAS may
    give a small GEMM's columns other bits than the same columns of a large
    one (a 4 x 512 by 512 x 64 GEMM against a 4 x 512 by 512 x 3392 one).
    Of maps 32, 45, 53, 64 and 131 rows by 16, 24 and 64 columns, on 1 and
    2 workers alike, a 1x1 first trunk conv differs from the whole map in
    the last bits (up to 2e-15 of the largest output) on all but 32 x 16,
    32 x 24, 32 x 64, 64 x 16 and 64 x 64; a 3x3 one on 64 x 24 and
    131 x 16 (2e-16); a 5x5 one on none. Desk and tiny maps, with the
    shipped 3x3 trunk, match the whole-map chain bit for bit;
    ``heads.tiled-oracle`` bounds any difference at 1e-12 of the largest
    output.
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
    p1, p2, p = enc1.padding, enc2.padding, trunk0.padding
    workers = workers_for(h, workers)
    border = max(enc0.padding, p1)
    a0 = _sparse_block(enc0, m_l, enhanced, fh, fw, border, counts, workers)
    # The rectified second block, carrying the zero padding the last reads.
    a1 = np.zeros((enc1.kernel.shape[0], h + 2 * p2, w + 2 * p2))
    b = border - p1
    src = a0[:, b:b + h + 2 * p1, b:b + w + 2 * p1]

    def block1(span: tuple) -> None:
        for ya, yb, pre in _im2col_rows(enc1, src, *span):
            np.maximum(_finite(pre), 0.0, out=a1[:, p2 + ya:p2 + yb, p2:p2 + w])

    parallel.each(block1, _items(enc1, h, w), _fit(workers, _im2col_floats(enc1, w)))
    del a0, src

    def block2_trunk0(span: tuple) -> np.ndarray:
        """The first trunk conv's taps of the rectified last block's rows
        ``y0`` to ``y1``."""
        y0, y1 = span
        bands = (np.maximum(_finite(pre), 0.0, out=pre)
                 for _, _, pre in _im2col_rows(enc2, a1, y0, y1))
        return _tap_rows(trunk0, bands, y1 - y0, w)

    # The first trunk conv's output inside a border of its padding.
    acc = np.zeros((trunk0.kernel.shape[0], h + 2 * p, w + 2 * p))
    items = _items(enc2, h, w)
    # Per worker: a running item's scratch and taps, the taps of a second
    # item waiting to be taken, and a share of those being added.
    taps = trunk0.kernel[:, 0].size * items[0][1] * w   # the tallest item's
    parallel.each(block2_trunk0, items,
                  _fit(workers, _im2col_floats(enc2, w) + 3 * taps),
                  lambda span, t: _add_taps(acc, t, span[0]))
    del a1   # the last block's input
    feat = acc[:, p:p + h, p:p + w]
    del acc  # freed with the trunk output, its only view
    feat += trunk0.bias[:, None, None]
    np.maximum(_finite(feat), 0.0, out=feat)

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


def find_peaks(heatmap: np.ndarray, thresh: float) -> np.ndarray:
    """3x3 local maxima at or above ``thresh`` of every channel of a
    (C, H, W) heatmap, as (n, 3) rows (class, iy, ix) in class-major,
    row-major order.

    A cell must strictly beat neighbors that precede it in row-major order
    and be >= the rest, so exactly one cell of a tied plateau survives.
    """
    c, h, w = heatmap.shape
    padded = np.full((c, h + 2, w + 2), -np.inf)
    padded[:, 1:-1, 1:-1] = heatmap
    ok = heatmap >= thresh
    for dy, dx in ((-1, -1), (-1, 0), (-1, 1), (0, -1)):   # row-major predecessors
        ok &= heatmap > padded[:, 1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
    for dy, dx in ((0, 1), (1, -1), (1, 0), (1, 1)):
        ok &= heatmap >= padded[:, 1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
    return np.argwhere(ok)


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
    peaks = find_peaks(h.heatmap, score_thresh)
    if not len(peaks) or max_detections < 1:
        return []
    cls, iy, ix = peaks.T
    score = h.heatmap[cls, iy, ix]
    # Only peaks scoring at least the max_detections-th best can be kept.
    top = min(max_detections, len(score))
    cand = np.flatnonzero(score >= np.partition(score, -top)[-top])
    cls, iy, ix, score = cls[cand], iy[cand], ix[cand], score[cand]
    x = (grid.origin[0] + (ix + 0.5) * grid.cell[0]) + h.offset[0, iy, ix]
    y = (grid.origin[1] + (iy + 0.5) * grid.cell[1]) + h.offset[1, iy, ix]
    keep = np.lexsort((x, y, cls, -score))[:max_detections]
    i, j = iy[keep], ix[keep]
    rows = np.stack([x[keep], y[keep], h.z[0, i, j], np.exp(h.size[0, i, j]),
                     np.exp(h.size[1, i, j]), np.exp(h.size[2, i, j]),
                     h.rot[0, i, j], h.rot[1, i, j], h.vel[0, i, j],
                     h.vel[1, i, j], score[keep]], axis=1).tolist()
    return [DetectionBox(x=bx, y=by, z=bz, length=bl, width=bw, height=bh,
                         yaw=wrap_angle(math.atan2(sin, cos)), vx=vx, vy=vy,
                         class_id=c, score=sc)
            for (bx, by, bz, bl, bw, bh, sin, cos, vx, vy, sc), c
            in zip(rows, cls[keep].tolist())]


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
