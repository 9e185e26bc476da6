"""Point clouds to BEV feature maps.

LiDAR goes through voxelize -> per-voxel MLP+max encode -> Z-stack collapse,
yielding the LiDAR BEV map. Radar goes through single-layer pillars, yielding
the radar BEV map. A separate collapse rebins encoded LiDAR voxels onto the
coarse radar-sized grid for the BEV-feature queries.

Cell assignment is floor((p - origin) / cell), lower-inclusive and
upper-exclusive. Empty cells are exact zeros everywhere.

Points are grouped by one stable argsort of linear cell ids into segments
(sorted keys plus offsets). Each MLP stage runs as a few batched forwards
over blocks of whole segments, max-pooled per segment with
``np.maximum.reduceat`` and scattered into the dense map by fancy indexing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import FeatureMap, MlpParams, mlp_forward_batch

LIDAR_POINT_FEATURES = 8   # x, y, z, intensity, t, and offsets to the cell center


@dataclass(frozen=True)
class GridSpec:
    """Regular 3D grid: minimum corner, cell size, cell counts."""

    origin: tuple
    cell: tuple
    counts: tuple

    def __post_init__(self):
        if len(self.origin) != 3 or len(self.cell) != 3 or len(self.counts) != 3:
            raise ConfigError("grid: origin, cell and counts must each have 3 entries")
        if any(c <= 0 for c in self.cell):
            raise ConfigError(f"grid.cell: all sizes must be positive, got {self.cell}")
        if any(n < 1 for n in self.counts):
            raise ConfigError(f"grid.counts: all counts must be >= 1, got {self.counts}")

    @property
    def nx(self) -> int:
        return self.counts[0]

    @property
    def ny(self) -> int:
        return self.counts[1]

    @property
    def nz(self) -> int:
        return self.counts[2]

    def is_pillar_grid(self) -> bool:
        return self.nz == 1

    def cell_index(self, xyz: np.ndarray) -> np.ndarray:
        """(n,3) -> (n,3) integer indices; may fall outside the grid."""
        rel = (np.asarray(xyz, dtype=np.float64) - np.asarray(self.origin)) \
            / np.asarray(self.cell)
        return np.floor(rel).astype(np.int64)

    def in_range(self, idx: np.ndarray) -> np.ndarray:
        return ((idx >= 0).all(axis=1)
                & (idx < np.asarray(self.counts, dtype=np.int64)).all(axis=1))

    def cell_center_xy(self, ix: int, iy: int) -> tuple:
        return (self.origin[0] + (ix + 0.5) * self.cell[0],
                self.origin[1] + (iy + 0.5) * self.cell[1])

    def voxel_center(self, ix: int, iy: int, iz: int) -> tuple:
        x, y = self.cell_center_xy(ix, iy)
        return x, y, self.origin[2] + (iz + 0.5) * self.cell[2]

    def to_dict(self) -> dict:
        return {"origin": list(self.origin), "cell": list(self.cell),
                "counts": list(self.counts)}

    @classmethod
    def from_dict(cls, d: dict) -> "GridSpec":
        return cls(origin=tuple(float(v) for v in d["origin"]),
                   cell=tuple(float(v) for v in d["cell"]),
                   counts=tuple(int(v) for v in d["counts"]))


# Most rows one batched MLP forward takes. Blocks hold whole segments, so
# their boundaries are a function of the segment offsets alone; the cap
# bounds the size of the batch temporaries.
BLOCK_ROWS = 4096


def _blocks(offsets: np.ndarray):
    """Consecutive segment ranges (s0, s1) covering every segment, each
    spanning at most BLOCK_ROWS rows, or one segment that alone is longer."""
    s0, n = 0, len(offsets) - 1
    while s0 < n:
        s1 = int(np.searchsorted(offsets, offsets[s0] + BLOCK_ROWS, side="right")) - 1
        s1 = max(s1, s0 + 1)
        yield s0, s1
        s0 = s1


def segment_max(rows: np.ndarray, offsets: np.ndarray, p: MlpParams) -> np.ndarray:
    """(S, out) elementwise max of the MLP over each segment
    rows[offsets[k]:offsets[k+1]], one batched forward per block of the
    non-empty segments; an empty segment yields the zero vector."""
    out = np.zeros((len(offsets) - 1, p.out_dim))
    full = np.flatnonzero(np.diff(offsets))
    offsets = np.append(offsets[full], offsets[-1])
    for s0, s1 in _blocks(offsets):
        r0 = offsets[s0]
        y = mlp_forward_batch(rows[r0:offsets[s1]], p)
        out[full[s0:s1]] = np.maximum.reduceat(y, offsets[s0:s1] - r0, axis=0)
    return out


def _group(cell_ids: np.ndarray, limit: int):
    """Group points by integer cell id, keeping per cell the first ``limit``
    points in input order.

    Returns (kept, offsets, ids, truncated): ``kept`` lists the kept
    positions cell by cell in ascending id, cell k owning
    kept[offsets[k]:offsets[k+1]]; ``ids`` are the G distinct cell ids and
    ``truncated`` counts the points beyond the limit.
    """
    order = np.argsort(cell_ids, kind="stable")
    ids, starts, counts = np.unique(cell_ids[order], return_index=True,
                                    return_counts=True)
    rank = np.arange(len(order)) - np.repeat(starts, counts)
    keep = rank < limit
    offsets = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.minimum(counts, limit), out=offsets[1:])
    return order[keep], offsets, ids, int(len(order) - keep.sum())


def _content_order(points: np.ndarray, members: np.ndarray,
                   offsets: np.ndarray) -> np.ndarray:
    """``members`` reordered inside each segment by record content (fields
    compared in declared order), so a segment's rows depend on the point
    multiset alone."""
    seg = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    recs = points[members]
    first = recs[points.dtype.names[0]]
    order = np.lexsort((first, seg))
    # Rows tied on (segment, first field) are rare: reorder just those runs
    # by the whole record. Runs keep their places, since the sort below
    # keeps (segment, first field) as its leading keys.
    s, f = seg[order], first[order]
    tied = np.flatnonzero((s[1:] == s[:-1]) & (f[1:] == f[:-1]))
    if len(tied):
        pos = np.union1d(tied, tied + 1)
        sub = order[pos]
        keys = [recs[name][sub] for name in reversed(points.dtype.names)]
        order[pos] = sub[np.lexsort(keys + [seg[sub]])]
    return members[order]


@dataclass
class VoxelSet:
    """Occupied voxels of one cloud as sorted segments.

    ``occupied`` holds the V voxel keys (ix, iy, iz) in ascending order.
    Voxel v owns the kept point indices members[offsets[v]:offsets[v+1]],
    ordered by record content, and row v of ``features`` once encoded
    (``features`` has zero columns until then).
    """

    spec: GridSpec
    points: np.ndarray                      # the structured cloud voxelized
    occupied: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), np.int64))
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    members: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    dropped: int = 0
    truncated: int = 0

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def voxel_members(self):
        """(key tuple, member index array) per voxel, in key order."""
        for v, key in enumerate(self.occupied.tolist()):
            yield tuple(key), self.members[self.offsets[v]:self.offsets[v + 1]]


def voxelize(points: np.ndarray, spec: GridSpec,
             max_points_per_voxel: int = 32) -> VoxelSet:
    """Assign points to voxels; out-of-range points are dropped (counted),
    per-voxel membership is truncated in insertion order."""
    if max_points_per_voxel < 1:
        raise ValueError(f"max_points_per_voxel must be >= 1, got {max_points_per_voxel}")
    vs = VoxelSet(spec=spec, points=points)
    if len(points) == 0:
        return vs
    z = points["z"] if "z" in points.dtype.names else np.zeros(len(points))
    idx = spec.cell_index(np.stack([points["x"], points["y"], z], axis=1))
    inside = np.flatnonzero(spec.in_range(idx))
    vs.dropped = int(len(points) - len(inside))
    ix, iy, iz = idx[inside].T
    # Linear ids ascend in (ix, iy, iz) key order.
    lin = (ix * spec.ny + iy) * spec.nz + iz
    kept, vs.offsets, ids, vs.truncated = _group(lin, max_points_per_voxel)
    vs.members = _content_order(points, inside[kept], vs.offsets)
    vs.occupied = np.stack([ids // (spec.ny * spec.nz), ids // spec.nz % spec.ny,
                            ids % spec.nz], axis=1)
    vs.features = np.zeros((len(ids), 0))
    return vs


def _lidar_point_features(vs: VoxelSet) -> np.ndarray:
    pts = vs.points[vs.members]
    centers = np.asarray(vs.spec.origin) + (vs.occupied + 0.5) * np.asarray(vs.spec.cell)
    c = np.repeat(centers, np.diff(vs.offsets), axis=0)
    return np.stack([pts["x"], pts["y"], pts["z"], pts["intensity"], pts["t"],
                     pts["x"] - c[:, 0], pts["y"] - c[:, 1], pts["z"] - c[:, 2]],
                    axis=1)


def voxel_encode(vs: VoxelSet, p: MlpParams) -> VoxelSet:
    """Per-voxel feature: elementwise max over members of the point MLP.

    Point inputs are (x, y, z, intensity, t) plus offsets to the voxel
    center, so the result is invariant under member order.
    """
    if p.in_dim != LIDAR_POINT_FEATURES:
        raise ShapeError(f"voxel MLP expects {p.in_dim} inputs, "
                         f"points provide {LIDAR_POINT_FEATURES}")
    vs.features = segment_max(_lidar_point_features(vs), vs.offsets, p)
    return vs


def zstack_collapse(vs: VoxelSet, p: MlpParams) -> FeatureMap:
    """Concatenate each BEV cell's voxel features bottom-to-top (zeros for
    empty voxels) and project with an MLP; untouched cells stay exact zero."""
    spec = vs.spec
    nvox, fdim = vs.features.shape
    if nvox and p.in_dim != fdim * spec.nz:
        raise ShapeError(f"z-stack MLP expects {p.in_dim} inputs, "
                         f"stack provides {fdim * spec.nz}")
    out = np.zeros((p.out_dim, spec.ny, spec.nx))
    # Keys ascend in (ix, iy, iz) order, so each BEV column is one run of voxels.
    ix, iy, iz = vs.occupied.T
    _, starts, counts = np.unique(ix * spec.ny + iy, return_index=True,
                                  return_counts=True)
    column = np.repeat(np.arange(len(starts)), counts)
    bounds = np.append(starts, nvox)
    for c0, c1 in _blocks(np.arange(len(starts) + 1)):
        v0, v1 = bounds[c0], bounds[c1]
        stack = np.zeros((c1 - c0, spec.nz, fdim))
        stack[column[v0:v1] - c0, iz[v0:v1]] = vs.features[v0:v1]
        cols = mlp_forward_batch(stack.reshape(c1 - c0, -1), p)
        out[:, iy[starts[c0:c1]], ix[starts[c0:c1]]] = cols.T
    return FeatureMap._wrap(out)


@dataclass
class PillarMap:
    """Radar BEV map plus the occupancy bookkeeping downstream stages need."""

    map: FeatureMap
    occupied: dict          # (ix,iy) -> list[int] member point indices
    dropped: int
    truncated: int          # returns beyond max_points_per_pillar


def _radar_point_features(points: np.ndarray) -> np.ndarray:
    names = points.dtype.names
    return np.stack([points[n] for n in names], axis=1)


def pillarize(points: np.ndarray, spec: GridSpec, p: MlpParams,
              max_points_per_pillar: int = 32) -> PillarMap:
    """Radar pillar encoding: per-pillar max over the point MLP, scattered
    onto a dense BEV map. Raw record fields are the MLP inputs."""
    if not spec.is_pillar_grid():
        raise ConfigError(f"radar.counts: pillar grid needs nz == 1, got {spec.nz}")
    nfeat = len(points.dtype.names)
    if p.in_dim != nfeat:
        raise ShapeError(f"pillar MLP expects {p.in_dim} inputs, "
                         f"records provide {nfeat}")
    out = np.zeros((p.out_dim, spec.ny, spec.nx))
    if not len(points):
        return PillarMap(map=FeatureMap._wrap(out), occupied={}, dropped=0, truncated=0)
    z = np.zeros(len(points))
    idx = spec.cell_index(np.stack([points["x"], points["y"], z], axis=1))
    # z index is always 0: the single pillar layer spans the full range.
    idx[:, 2] = 0
    inside = np.flatnonzero(spec.in_range(idx))
    kept, offsets, ids, truncated = _group(idx[inside, 0] * spec.ny + idx[inside, 1],
                                           max_points_per_pillar)
    members = inside[kept]
    ix, iy = ids // spec.ny, ids % spec.ny
    occupied = {(int(ix[k]), int(iy[k])): members[offsets[k]:offsets[k + 1]].tolist()
                for k in range(len(ids))}
    rows = _radar_point_features(points[_content_order(points, members, offsets)])
    out[:, iy, ix] = segment_max(rows, offsets, p).T
    return PillarMap(map=FeatureMap._wrap(out), occupied=occupied,
                     dropped=int(len(points) - len(inside)), truncated=truncated)


@dataclass
class BevGrids:
    """Non-empty coarse LiDAR BEV cells: ascending (G, 2) (i, j) ``keys`` and
    their (G, F) ``features``; iterating yields the keys as tuples."""

    keys: np.ndarray
    features: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return map(tuple, self.keys.tolist())


def collapse_to_bev_grids(vs: VoxelSet, coarse_cell: float) -> BevGrids:
    """Rebin encoded voxel features onto the coarse (radar-sized) BEV grid.

    Each coarse cell covering at least one occupied voxel gets the
    elementwise max of all contained voxel features; empty cells are absent.
    The coarse cell size must be an integer multiple of the fine cell.
    """
    spec = vs.spec
    ratios = []
    for axis, name in ((0, "x"), (1, "y")):
        ratio = coarse_cell / spec.cell[axis]
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ConfigError(
                f"grid.cell: coarse cell {coarse_cell} is not an integer multiple "
                f"of fine {name} cell {spec.cell[axis]}")
        ratios.append(int(round(ratio)))
    rx, ry = ratios
    coarse = (vs.occupied[:, 0] // rx) * spec.ny + vs.occupied[:, 1] // ry
    order = np.argsort(coarse, kind="stable")
    ids, starts = np.unique(coarse[order], return_index=True)
    return BevGrids(keys=np.stack([ids // spec.ny, ids % spec.ny], axis=1),
                    features=np.maximum.reduceat(vs.features[order], starts, axis=0))
