"""LiDAR-to-Radar feature fusion.

Every non-empty radar BEV cell is enriched twice:

* height fusion lifts the cell into a vertical pillar, splits it into
  equal-height segments, ball-queries raw LiDAR points around each segment
  center and aggregates them into a 32-wide height profile feature;
* BEV fusion gathers nearby non-empty coarse LiDAR grid features by
  Manhattan distance on cell indices and aggregates them into a 32-wide
  neighborhood feature.

Radar cells and coarse LiDAR cells come as ``grids.BevColumns`` and are
taken in ascending row-major id order. Each half (``height_fuse``,
``bev_fuse``) ranks the query groups of all cells at once, ball groups by
(distance, point index) and BEV groups by (Manhattan distance, i, j), cuts
them at ``max_group`` and max-pools one MLP batch over all grouped rows
(zeros for an empty group). ``ball_query`` and
``bev_query`` run one query through the same kernels, against brute-force
twins."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .grids import BevColumns, GridSpec, segment_max
# mlp_forward is unused here but kept: perfbench's tracer wraps l2r.mlp_forward.
from .nn import MlpParams, mlp_forward, mlp_forward_batch  # noqa: F401

POINT_QUERY_FEATURES = 5   # offsets to the query point, intensity, t
ENHANCED_CHANNELS = 96     # [radar | height | bev] width, fixed by the channel contract


def num_height_segments(pillar_height: float, cell_size: float) -> int:
    """Number of vertical segments: floor(h / 2r), at least 1."""
    return max(1, int(math.floor(pillar_height / (2.0 * cell_size))))


@dataclass
class HeightFusionConfig:
    """Geometry and weights for the height-profile queries.

    ``cell_size`` is the radar BEV cell edge r, ``pillar_height`` the full
    LiDAR z extent, ``z_min`` its lower bound. The ball radius defaults to
    r/2, which makes consecutive query balls disjoint.
    """

    cell_size: float
    pillar_height: float
    z_min: float
    point_mlp: MlpParams
    merge_mlp: MlpParams
    ball_radius: float = 0.0
    max_group: int = 16

    def __post_init__(self):
        if self.ball_radius == 0.0:
            self.ball_radius = 0.5 * self.cell_size
        if self.point_mlp.in_dim != POINT_QUERY_FEATURES:
            raise ShapeError(f"point MLP expects {self.point_mlp.in_dim} inputs, "
                             f"grouped points provide {POINT_QUERY_FEATURES}")
        want = self.num_segments * self.point_mlp.out_dim
        if self.merge_mlp.in_dim != want:
            raise ShapeError(f"merge MLP expects {self.merge_mlp.in_dim} inputs, "
                             f"{self.num_segments} segments provide {want}")

    @property
    def num_segments(self) -> int:
        return num_height_segments(self.pillar_height, self.cell_size)

    @property
    def feature_dim(self) -> int:
        return self.merge_mlp.out_dim


@dataclass
class BevFusionConfig:
    """Window and weights for the neighborhood queries.

    ``window`` is the per-axis index threshold pair; in ``scalar`` distance
    mode its first entry is used as a plain Manhattan distance bound.
    """

    grid_mlp: MlpParams
    window: tuple = (2, 2)
    max_group: int = 16
    distance_mode: str = "window"   # "window" | "scalar"

    def __post_init__(self):
        if self.window[0] < 0 or self.window[1] < 0:
            raise ShapeError(f"window must be non-negative, got {self.window}")
        if self.max_group < 1:
            raise ShapeError(f"max_group must be >= 1, got {self.max_group}")
        if self.distance_mode not in ("window", "scalar"):
            raise ShapeError(f"unknown distance_mode {self.distance_mode!r}")

    @property
    def feature_dim(self) -> int:
        return self.grid_mlp.out_dim


@dataclass(frozen=True)
class QueryPoint:
    x: float
    y: float
    z: float
    segment: int   # 1-based


@dataclass
class QueryResult:
    indices: np.ndarray
    distances: np.ndarray
    capped: bool = False   # more candidates were in range than the cap kept

    def __len__(self) -> int:
        return len(self.indices)


def segment_heights(cfg: HeightFusionConfig) -> np.ndarray:
    """z of the M segment centers: z_min + r * (2s - 1) for s = 1..M."""
    return cfg.z_min + cfg.cell_size * (2 * np.arange(1, cfg.num_segments + 1) - 1)


def segment_query_points(cell: tuple, cfg: HeightFusionConfig,
                         radar_grid: GridSpec) -> list:
    """Query points at the segment centers above the cell center."""
    x, y = radar_grid.cell_center_xy(cell[0], cell[1])
    return [QueryPoint(x=x, y=y, z=float(z), segment=s)
            for s, z in enumerate(segment_heights(cfg), start=1)]


def _first_k(groups: np.ndarray, n_groups: int, k: int) -> tuple:
    """For pairs ordered by ascending group: the mask of the first ``k`` of
    each group, and the segment offsets and in-range count of each group."""
    counts = np.bincount(groups, minlength=n_groups)
    rank = np.arange(len(groups)) - np.repeat(np.cumsum(counts) - counts, counts)
    return rank < k, np.append(0, np.cumsum(np.minimum(counts, k))), counts


def _rank_balls(qid, idx, d2, n_queries: int, radius: float, k: int) -> tuple:
    """The pairs within ``radius`` ranked by (query, d2, point index) and
    cut at ``k``: their positions, and ``_first_k``'s offsets and counts."""
    inside = np.flatnonzero(d2 <= radius * radius)
    order = inside[np.lexsort((idx[inside], d2[inside], qid[inside]))]
    keep, offsets, counts = _first_k(qid[order], n_queries, k)
    return order[keep], offsets, counts


def _lookup(keys: np.ndarray, probes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(P, T) row among the (G, 2) ``keys`` of each probe plus each offset,
    -1 where none, read from a dense index over the keys' bounding box."""
    hit = np.full((len(probes), len(offsets)), -1)
    if len(keys):
        lo = keys.min(axis=0)
        shape = keys.max(axis=0) - lo + 1
        index = np.full(shape, -1)
        index[keys[:, 0] - lo[0], keys[:, 1] - lo[1]] = np.arange(len(keys))
        p = probes[:, None, :] + offsets - lo
        inside = ((p >= 0) & (p < shape)).all(axis=2)
        hit[inside] = index[p[inside, 0], p[inside, 1]]
    return hit


def ball_query(query_xyz, points_xyz: np.ndarray, radius: float,
               k: int) -> QueryResult:
    """Up to ``k`` point indices within Euclidean ``radius`` of the query,
    ranked as in ``segment_balls``: ascending distance, ties by index."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    d = np.asarray(points_xyz, dtype=np.float64).reshape(-1, 3) \
        - np.asarray(query_xyz, dtype=np.float64)[:3]
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    n = len(d2)
    kept, _, counts = _rank_balls(np.zeros(n, np.int64), np.arange(n), d2, 1, radius, k)
    return QueryResult(kept, np.sqrt(d2[kept]), capped=bool(counts[0] > k))


def ball_query_brute(query_xyz, points_xyz, radius: float, k: int) -> QueryResult:
    """Plain O(n) scan; the ordering contract spelled out one point at a time."""
    qx, qy, qz = (float(query_xyz[0]), float(query_xyz[1]), float(query_xyz[2]))
    r2 = radius * radius
    hits = []
    for i, p in enumerate(np.asarray(points_xyz, dtype=np.float64)):
        dx = p[0] - qx
        dy = p[1] - qy
        dz = p[2] - qz
        d2 = dx * dx + dy * dy + dz * dz
        if d2 <= r2:
            hits.append((d2, i))
    hits.sort()
    capped = len(hits) > k
    hits = hits[:k]
    return QueryResult(np.array([i for _, i in hits], dtype=np.int64),
                       np.array([math.sqrt(d2) for d2, _ in hits]), capped=capped)


def segment_balls(cells: np.ndarray, cfg: HeightFusionConfig, xyz: np.ndarray,
                  radar_grid: GridSpec) -> tuple:
    """Ball groups of the (cell, segment) queries q = cell * M + s of the
    (N, 2) ``cells`` over the (P, 3) points, ranked and cut as by
    ``ball_query``: each grouped point's index and offset from its query
    center, and ``_first_k``'s offsets and counts. A point in a ball lies at
    most floor(radius / cell) + 1 columns (clamped into the grid) from the
    cell; points outside the ball's xy disc are dropped before the M
    segments are paired with them. Points no ball can reach, more than the
    radius outside the grid's xy extent or the segment centers' z range or
    not finite, are dropped before any arithmetic on them."""
    m, radius = cfg.num_segments, cfg.ball_radius
    size, n = np.asarray(radar_grid.cell[:2]), np.asarray(radar_grid.counts[:2])
    heights = segment_heights(cfg)
    lo = np.append(radar_grid.origin[:2], heights[0]) - radius
    hi = np.append(radar_grid.origin[:2] + n * size, heights[-1]) + radius
    near = np.flatnonzero(((xyz >= lo) & (xyz <= hi)).all(axis=1))
    xyz = xyz[near]
    reach = np.floor(radius / size).astype(np.int64) + 1
    block = np.indices(2 * reach + 1).reshape(2, -1).T - reach
    cover = _lookup(cells, np.indices(n).reshape(2, -1).T, block)
    col = [np.fmin(np.fmax(np.floor((xyz[:, a] - radar_grid.origin[a]) / size[a]), 0.0),
                   n[a] - 1).astype(np.int64) for a in (0, 1)]
    lin = col[0] * n[1] + col[1]
    idx = np.flatnonzero((cover >= 0).any(axis=1)[lin])
    hit = cover[lin[idx]]
    pair, b = np.nonzero(hit >= 0)
    idx, cell = idx[pair], hit[pair, b]
    center = radar_grid.origin[:2] + (cells + 0.5) * size
    dx = xyz[idx, 0] - center[cell, 0]
    dy = xyz[idx, 1] - center[cell, 1]
    dxy2 = dx * dx + dy * dy
    disc = np.flatnonzero(dxy2 <= radius * radius)
    dz = xyz[idx[disc], 2][:, None] - heights
    kept, offsets, counts = _rank_balls(
        (cell[disc][:, None] * m + np.arange(m)).ravel(), np.repeat(idx[disc], m),
        (dxy2[disc][:, None] + dz * dz).ravel(), len(cells) * m, radius, cfg.max_group)
    pair = disc[kept // m]
    return (near[idx[pair]], np.stack([dx[pair], dy[pair], dz.ravel()[kept]], axis=1),
            offsets, counts)


def height_fuse(cells: np.ndarray, cfg: HeightFusionConfig, points: np.ndarray,
                radar_grid: GridSpec) -> tuple:
    """Height-profile features of the (N, 2) radar ``cells``: the (N, F)
    merge-MLP outputs over each cell's M concatenated segment aggregates,
    and the (N * M) in-range point counts of the segment balls."""
    xyz = np.stack([points["x"], points["y"], points["z"]], axis=1).astype(np.float64)
    idx, delta, offsets, counts = segment_balls(cells, cfg, xyz, radar_grid)
    rows = np.column_stack([delta, points["intensity"][idx], points["t"][idx]])
    segments = segment_max(rows, offsets, cfg.point_mlp)
    return mlp_forward_batch(segments.reshape(len(cells), cfg.merge_mlp.in_dim),
                             cfg.merge_mlp), counts


def _bev_offsets(cfg: BevFusionConfig) -> np.ndarray:
    """(T, 2) index offsets (di, dj) a BEV query accepts, in rank order:
    ascending |di| + |dj|, then di, then dj."""
    wi = int(cfg.window[0])
    w = np.array([wi, int(cfg.window[1]) if cfg.distance_mode == "window" else wi])
    off = np.indices(2 * w + 1).reshape(2, -1).T - w
    d = np.abs(off).sum(axis=1)
    if cfg.distance_mode == "scalar":
        off, d = off[d <= w[0]], d[d <= w[0]]
    return off[np.lexsort((off[:, 1], off[:, 0], d))]


def _bev_pairs(cells: np.ndarray, keys: np.ndarray, cfg: BevFusionConfig) -> tuple:
    """BEV groups of the (N, 2) ``cells`` among the (G, 2) occupied ``keys``:
    the key row and (di, dj) offset of each grouped cell in rank order, and
    ``_first_k``'s offsets and counts."""
    offsets = _bev_offsets(cfg)
    hit = _lookup(keys, cells, offsets)
    cell, t = np.nonzero(hit >= 0)
    keep, group_offsets, counts = _first_k(cell, len(cells), cfg.max_group)
    cell, t = cell[keep], t[keep]
    return hit[cell, t], offsets[t], group_offsets, counts


def bev_query(cell: tuple, lidar_grids, cfg: BevFusionConfig) -> QueryResult:
    """Up to ``max_group`` non-empty LiDAR cells near ``cell`` among any
    collection of (i, j) keys, ranked as in ``bev_fuse``: ascending
    Manhattan distance with row-major (i, then j) tie-breaks."""
    keys = np.array(list(lidar_grids), dtype=np.int64).reshape(-1, 2)
    g, off, _, counts = _bev_pairs(np.array([cell], dtype=np.int64), keys, cfg)
    return QueryResult(keys[g], np.abs(off).sum(axis=1).astype(np.float64),
                       capped=bool(counts[0] > cfg.max_group))


def bev_query_brute(cell: tuple, lidar_grids, cfg: BevFusionConfig) -> QueryResult:
    """Full scan over every occupied cell, same ordering contract."""
    ci, cj = cell
    hits = []
    for (i, j) in lidar_grids:
        di, dj = i - ci, j - cj
        if (abs(di) <= cfg.window[0] and abs(dj) <= cfg.window[1]
                if cfg.distance_mode == "window" else abs(di) + abs(dj) <= cfg.window[0]):
            hits.append((abs(di) + abs(dj), i, j))
    hits.sort()
    capped = len(hits) > cfg.max_group
    hits = hits[:cfg.max_group]
    return QueryResult(np.array([(i, j) for _, i, j in hits], dtype=np.int64).reshape(-1, 2),
                       np.array([float(d) for d, _, _ in hits]), capped=capped)


def bev_fuse(cells: np.ndarray, lidar_grids: BevColumns, cfg: BevFusionConfig) -> tuple:
    """Neighborhood features of the (N, 2) radar ``cells``: the (N, F)
    elementwise max of the grid MLP over each cell's grouped grid features,
    each extended with its (di, dj) offset (zero when nothing is in range),
    and the (N,) in-range counts."""
    g, off, offsets, counts = _bev_pairs(cells, lidar_grids.cells, cfg)
    rows = np.concatenate([lidar_grids.features[g], off], axis=1)
    return segment_max(rows, offsets, cfg.grid_mlp), counts


def fusion_stats(seg_counts: np.ndarray, bev_counts: np.ndarray,
                 cfg_h: HeightFusionConfig, cfg_b: BevFusionConfig) -> dict:
    """The query statistics of the cells whose segment balls and BEV groups
    held ``seg_counts`` and ``bev_counts`` points and cells in range: the
    hit rates and the counts of groups cut at their ``max_group``."""
    n = len(bev_counts)
    seg_hit, bev_hit = int(np.count_nonzero(seg_counts)), int(np.count_nonzero(bev_counts))
    return {
        "cells": n,
        "ball_query_hit_rate": seg_hit / (n * cfg_h.num_segments) if n else 0.0,
        "bev_query_hit_rate": bev_hit / n if n else 0.0,
        "capped_height_groups": int(np.count_nonzero(seg_counts > cfg_h.max_group)),
        "capped_bev_groups": int(np.count_nonzero(bev_counts > cfg_b.max_group)),
    }


def compute_cell_features(occupied_cells: BevColumns, cfg_h: HeightFusionConfig,
                          cfg_b: BevFusionConfig, lidar_points: np.ndarray,
                          lidar_grids: BevColumns, radar_grid: GridSpec):
    """Run both fusion blocks for every non-empty radar cell, the columns of
    ``occupied_cells``.

    Returns (features, stats): one [height | bev] row per cell in ascending
    id order, and ``fusion_stats``. ``pipeline.run_pipeline`` runs the two
    halves in different phases of a frame, and this composition for code
    that wants both at once.
    """
    cells = occupied_cells.cells
    height, seg_counts = height_fuse(cells, cfg_h, lidar_points, radar_grid)
    bev, bev_counts = bev_fuse(cells, lidar_grids, cfg_b)
    return (np.concatenate([height, bev], axis=1),
            fusion_stats(seg_counts, bev_counts, cfg_h, cfg_b))


def enhance_radar_map(m_r: BevColumns, occupied_cells: BevColumns,
                      features: np.ndarray) -> BevColumns:
    """The radar map's columns with their pseudo ``features`` appended:
    channels [m_r | height | bev], one feature row per column as
    ``compute_cell_features`` returns them for ``occupied_cells``, which
    must be those columns. Cells empty on the radar map stay absent, so
    exactly zero across all output channels."""
    if not np.array_equal(occupied_cells.ids, m_r.ids):
        raise ShapeError("pseudo features are for other cells than the "
                         f"{len(m_r)} non-empty cells of the radar map")
    if len(features) != len(m_r):
        raise ShapeError(
            f"pseudo features exist for {len(features)} cells, "
            f"radar map has {len(m_r)} non-empty cells")
    total = m_r.channels + features.shape[1]
    if total != ENHANCED_CHANNELS:
        raise ShapeError(f"enhanced radar map must have {ENHANCED_CHANNELS} channels, "
                         f"got {m_r.channels}+{features.shape[1]} = {total}")
    return BevColumns(m_r.ids, np.concatenate([m_r.features, features], axis=1),
                      (total, m_r.height, m_r.width))


def query_balls_disjoint(cfg: HeightFusionConfig) -> bool:
    """Whether the per-segment query balls of one pillar are pairwise
    disjoint: closed balls of the configured radius never intersect iff the
    minimum center spacing exceeds twice the radius."""
    zs = segment_heights(cfg)
    return len(zs) < 2 or float(np.abs(np.diff(zs)).min()) > 2.0 * cfg.ball_radius
