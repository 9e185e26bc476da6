"""LiDAR-to-Radar feature fusion.

Every non-empty radar BEV cell is enriched twice:

* height fusion lifts the cell into a vertical pillar, splits it into
  equal-height segments, ball-queries raw LiDAR points around each segment
  center and aggregates them into a 32-wide height profile feature;
* BEV fusion gathers nearby non-empty coarse LiDAR grid features by
  Manhattan distance on cell indices and aggregates them into a 32-wide
  neighborhood feature.

Both queries have deterministic ordering (ascending distance, ties by index)
and ship with pure-Python brute-force twins that serve as oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .grids import GridSpec
from .nn import FeatureMap, MlpParams, mlp_forward, mlp_forward_batch

POINT_QUERY_FEATURES = 5   # offsets to the query point, intensity, t


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
    num_segments: int = 0
    ball_radius: float = 0.0
    max_group: int = 16

    def __post_init__(self):
        want = num_height_segments(self.pillar_height, self.cell_size)
        if self.num_segments == 0:
            self.num_segments = want
        elif self.num_segments != want:
            raise ShapeError(f"num_segments {self.num_segments} != floor(h/2r) "
                             f"= {want} for h={self.pillar_height}, "
                             f"r={self.cell_size}")
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


@dataclass
class CellFeatures:
    """Per-cell fusion output for one non-empty radar cell."""

    cell: tuple
    height_feature: np.ndarray
    bev_feature: np.ndarray


def segment_query_points(cell: tuple, cfg: HeightFusionConfig,
                         radar_grid: GridSpec) -> list:
    """Query points at the segment centers of the cell's vertical pillar.

    The s-th point (s = 1..M) sits at z = z_min + r * (2s - 1), directly
    above the cell center.
    """
    x, y = radar_grid.cell_center_xy(cell[0], cell[1])
    return [QueryPoint(x=x, y=y,
                       z=cfg.z_min + cfg.cell_size * (2 * s - 1),
                       segment=s)
            for s in range(1, cfg.num_segments + 1)]


def ball_query(query_xyz, points_xyz: np.ndarray, radius: float,
               k: int) -> QueryResult:
    """Up to ``k`` point indices within Euclidean ``radius`` of the query.

    Ordered by ascending distance, ties by ascending point index; identical
    to the brute-force scan by construction.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pts = np.asarray(points_xyz, dtype=np.float64)
    if len(pts) == 0:
        return QueryResult(np.empty(0, dtype=np.int64), np.empty(0))
    qx, qy, qz = (float(query_xyz[0]), float(query_xyz[1]), float(query_xyz[2]))
    dx = pts[:, 0] - qx
    dy = pts[:, 1] - qy
    dz = pts[:, 2] - qz
    d2 = dx * dx + dy * dy + dz * dz
    inside = np.nonzero(d2 <= radius * radius)[0]
    order = np.lexsort((inside, d2[inside]))[:k]
    chosen = inside[order]
    return QueryResult(chosen.astype(np.int64), np.sqrt(d2[chosen]),
                       capped=len(inside) > k)


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


def aggregate_segment(grouped: np.ndarray, psi: MlpParams) -> np.ndarray:
    """Max over the point MLP of a grouped set; an empty group yields the
    zero vector (radar cells routinely have no LiDAR neighbors)."""
    grouped = np.asarray(grouped, dtype=np.float64)
    if grouped.size == 0:
        return np.zeros(psi.out_dim)
    if grouped.ndim != 2 or grouped.shape[1] != psi.in_dim:
        raise ShapeError(f"grouped points have shape {grouped.shape}, "
                         f"point MLP expects (n, {psi.in_dim})")
    return mlp_forward_batch(grouped, psi).max(axis=0)


def _decorate_points(points: np.ndarray, indices: np.ndarray,
                     q: QueryPoint) -> np.ndarray:
    sel = points[indices]
    return np.stack([sel["x"] - q.x, sel["y"] - q.y, sel["z"] - q.z,
                     sel["intensity"], sel["t"]], axis=1)


def height_fuse(cell: tuple, cfg: HeightFusionConfig, points: np.ndarray,
                radar_grid: GridSpec, points_xyz: np.ndarray | None = None,
                caps: dict | None = None, candidates: np.ndarray | None = None):
    """Height-profile feature for one non-empty radar cell.

    Returns (feature, segments_hit): the merge-MLP output over the
    concatenated per-segment aggregates, and how many segments grouped at
    least one point. ``caps["height"]``, when given, is increased by the
    number of segment groups cut at ``max_group``. ``candidates``, when
    given, are the ascending indices of the only points the cell's balls
    can reach (``ball_candidates``); the queries scan just those and give
    the same groups as a scan of every point.
    """
    if points_xyz is None:
        points_xyz = np.stack([points["x"], points["y"], points["z"]], axis=1) \
            if len(points) else np.zeros((0, 3))
    if candidates is not None:
        points_xyz = points_xyz[candidates]
    segments = []
    hit = 0
    for q in segment_query_points(cell, cfg, radar_grid):
        res = ball_query((q.x, q.y, q.z), points_xyz, cfg.ball_radius, cfg.max_group)
        if caps is not None:
            caps["height"] += res.capped
        if len(res):
            hit += 1
            indices = res.indices if candidates is None else candidates[res.indices]
            grouped = _decorate_points(points, indices, q)
        else:
            grouped = np.zeros((0, POINT_QUERY_FEATURES))
        segments.append(aggregate_segment(grouped, cfg.point_mlp))
    return mlp_forward(np.concatenate(segments), cfg.merge_mlp), hit


def column_buckets(points_xyz: np.ndarray, radar_grid: GridSpec) -> tuple:
    """The points grouped by radar column: ``(order, starts)`` such that
    ``order[starts[k]:starts[k + 1]]`` are the ascending indices of the
    points in column ``k = iy * nx + ix``. Column ids are clamped into the
    grid, so a point outside it joins the nearest edge column."""
    nx, ny = radar_grid.nx, radar_grid.ny
    col = []
    for axis, n in ((0, nx), (1, ny)):
        rel = np.floor((points_xyz[:, axis] - radar_grid.origin[axis])
                       / radar_grid.cell[axis])
        col.append(np.fmin(np.fmax(rel, 0.0), n - 1).astype(np.int64))
    key = col[1] * nx + col[0]
    starts = np.zeros(nx * ny + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=nx * ny), out=starts[1:])
    return np.argsort(key, kind="stable"), starts


def ball_candidates(cell: tuple, buckets: tuple, radar_grid: GridSpec,
                    radius: float) -> np.ndarray:
    """Ascending indices of the points in the columns that a ball of
    ``radius`` around the cell center can reach, from ``column_buckets``.

    A point within ``radius`` of the center lies at most
    ``floor(radius / cell) + 1`` columns away, with half a cell to spare,
    so the block is 3x3 at the default radius r/2 and 5x5 at r."""
    order, starts = buckets
    nx, ny = radar_grid.nx, radar_grid.ny
    bounds = []
    for c, n, size in ((cell[0], nx, radar_grid.cell[0]),
                       (cell[1], ny, radar_grid.cell[1])):
        reach = math.floor(radius / size) + 1
        bounds.append((min(max(c - reach, 0), n - 1), min(max(c + reach, 0), n - 1)))
    (x0, x1), (y0, y1) = bounds
    parts = [order[starts[y * nx + x0]:starts[y * nx + x1 + 1]]
             for y in range(y0, y1 + 1)]
    return np.sort(np.concatenate(parts))


def manhattan_distance(a: tuple, b: tuple) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _window_bounds(cfg: BevFusionConfig) -> tuple:
    if cfg.distance_mode == "window":
        return int(cfg.window[0]), int(cfg.window[1])
    t = int(cfg.window[0])
    return t, t


def _accept(cfg: BevFusionConfig, di: int, dj: int) -> bool:
    if cfg.distance_mode == "window":
        return abs(di) <= cfg.window[0] and abs(dj) <= cfg.window[1]
    return abs(di) + abs(dj) <= cfg.window[0]


def bev_query(cell: tuple, lidar_grids: dict, cfg: BevFusionConfig) -> QueryResult:
    """Up to ``max_group`` non-empty LiDAR cells near ``cell``.

    Candidates come from the index window around the cell; ordering is
    ascending Manhattan distance with row-major (i, then j) tie-breaks.
    """
    ci, cj = cell
    wi, wj = _window_bounds(cfg)
    hits = []
    for di in range(-wi, wi + 1):
        for dj in range(-wj, wj + 1):
            if not _accept(cfg, di, dj):
                continue
            key = (ci + di, cj + dj)
            if key in lidar_grids:
                hits.append((abs(di) + abs(dj), key[0], key[1]))
    hits.sort()
    capped = len(hits) > cfg.max_group
    hits = hits[:cfg.max_group]
    return QueryResult(np.array([(i, j) for _, i, j in hits], dtype=np.int64).reshape(-1, 2),
                       np.array([float(d) for d, _, _ in hits]), capped=capped)


def bev_query_brute(cell: tuple, lidar_grids: dict, cfg: BevFusionConfig) -> QueryResult:
    """Full scan over every occupied cell, same ordering contract."""
    ci, cj = cell
    hits = []
    for (i, j) in lidar_grids:
        di, dj = i - ci, j - cj
        if _accept(cfg, di, dj):
            hits.append((abs(di) + abs(dj), i, j))
    hits.sort()
    capped = len(hits) > cfg.max_group
    hits = hits[:cfg.max_group]
    return QueryResult(np.array([(i, j) for _, i, j in hits], dtype=np.int64).reshape(-1, 2),
                       np.array([float(d) for d, _, _ in hits]), capped=capped)


def bev_fuse(cell: tuple, lidar_grids: dict, cfg: BevFusionConfig,
             caps: dict | None = None):
    """Neighborhood feature for one non-empty radar cell.

    Each grouped grid feature is extended with its (di, dj) offset before the
    grid MLP; the aggregate is the elementwise max, zero when nothing is in
    range. Returns (feature, grouped_count). ``caps["bev"]``, when given, is
    increased by one if the group was cut at ``max_group``.
    """
    res = bev_query(cell, lidar_grids, cfg)
    if caps is not None:
        caps["bev"] += res.capped
    if len(res) == 0:
        return np.zeros(cfg.feature_dim), 0
    rows = []
    for (i, j) in res.indices:
        feat = lidar_grids[(int(i), int(j))]
        rows.append(np.concatenate([feat, [float(i - cell[0]), float(j - cell[1])]]))
    rows = np.asarray(rows)
    if rows.shape[1] != cfg.grid_mlp.in_dim:
        raise ShapeError(f"grid MLP expects {cfg.grid_mlp.in_dim} inputs, "
                         f"grouped grids provide {rows.shape[1]}")
    return mlp_forward_batch(rows, cfg.grid_mlp).max(axis=0), len(res)


def compute_cell_features(occupied_cells, cfg_h: HeightFusionConfig,
                          cfg_b: BevFusionConfig, lidar_points: np.ndarray,
                          lidar_grids: dict, radar_grid: GridSpec):
    """Run both fusion blocks for every non-empty radar cell.

    Returns (features: {cell: CellFeatures}, stats); the stats count the
    ball and BEV groups cut at their ``max_group``. Cells are processed in
    sorted order; each cell is independent, so any schedule would produce
    the same maps. The LiDAR points are bucketed by radar column once, and
    each cell's ball queries scan only the columns its balls can reach.
    """
    xyz = np.stack([lidar_points["x"], lidar_points["y"], lidar_points["z"]], axis=1) \
        if len(lidar_points) else np.zeros((0, 3))
    buckets = column_buckets(xyz, radar_grid)
    features = {}
    seg_total = seg_hit = 0
    bev_total = bev_hit = 0
    caps = {"height": 0, "bev": 0}
    for cell in sorted(occupied_cells):
        near = ball_candidates(cell, buckets, radar_grid, cfg_h.ball_radius)
        hvec, hits = height_fuse(cell, cfg_h, lidar_points, radar_grid,
                                 points_xyz=xyz, caps=caps, candidates=near)
        bvec, grouped = bev_fuse(cell, lidar_grids, cfg_b, caps=caps)
        features[cell] = CellFeatures(cell=cell, height_feature=hvec, bev_feature=bvec)
        seg_total += cfg_h.num_segments
        seg_hit += hits
        bev_total += 1
        bev_hit += 1 if grouped else 0
    stats = {
        "cells": len(features),
        "ball_query_hit_rate": (seg_hit / seg_total) if seg_total else 0.0,
        "bev_query_hit_rate": (bev_hit / bev_total) if bev_total else 0.0,
        "capped_height_groups": caps["height"],
        "capped_bev_groups": caps["bev"],
    }
    return features, stats


def enhance_radar_map(m_r: FeatureMap, occupied_cells, features: dict) -> FeatureMap:
    """Concatenate the radar map with the scattered height and neighborhood
    features: channels [m_r | height | bev]. Cells empty on the radar map
    stay exactly zero across all output channels."""
    cells = set(tuple(c) for c in occupied_cells)
    if set(features) != cells:
        raise ShapeError(
            f"pseudo features exist for {len(features)} cells, "
            f"radar map has {len(cells)} non-empty cells")
    if not cells:
        h_dim = b_dim = 32
    else:
        any_feat = next(iter(features.values()))
        h_dim = len(any_feat.height_feature)
        b_dim = len(any_feat.bev_feature)
    total = m_r.channels + h_dim + b_dim
    if total != 96:
        raise ShapeError(f"enhanced radar map must have 96 channels, "
                         f"got {m_r.channels}+{h_dim}+{b_dim} = {total}")
    out = np.zeros((total, m_r.height, m_r.width))
    out[:m_r.channels] = m_r.data
    for (ix, iy), feat in sorted(features.items()):
        out[m_r.channels:m_r.channels + h_dim, iy, ix] = feat.height_feature
        out[m_r.channels + h_dim:, iy, ix] = feat.bev_feature
    return FeatureMap._wrap(out)


def query_balls_disjoint(cfg: HeightFusionConfig) -> bool:
    """Whether the per-segment query balls of one pillar are pairwise
    disjoint: closed balls of the configured radius never intersect iff the
    minimum center spacing exceeds twice the radius."""
    zs = [cfg.z_min + cfg.cell_size * (2 * s - 1)
          for s in range(1, cfg.num_segments + 1)]
    if len(zs) < 2:
        return True
    min_gap = min(abs(b - a) for a, b in zip(zs[:-1], zs[1:]))
    return min_gap > 2.0 * cfg.ball_radius
